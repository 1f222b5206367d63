//! The HMDL lexer.

use crate::error::LangError;
use crate::token::{Span, Token, TokenKind};

/// Tokenizes HMDL source, skipping whitespace, `//` line comments and
/// `/* ... */` block comments.  Identifier and string tokens borrow their
/// text from `source`, so the token buffer is the only allocation.
///
/// # Errors
///
/// Returns a [`LangError`] on unknown characters, malformed numbers and
/// unterminated comments or strings.
///
/// # Examples
///
/// ```
/// use mdes_lang::lexer::lex;
/// use mdes_lang::token::TokenKind;
///
/// let tokens = lex("resource Decoder[3]; // three decode slots").unwrap();
/// assert_eq!(tokens[0].kind, TokenKind::Resource);
/// assert_eq!(tokens[1].kind, TokenKind::Ident("Decoder"));
/// assert_eq!(tokens.last().unwrap().kind, TokenKind::Eof);
/// ```
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LangError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;

    while i < bytes.len() {
        let start = i;
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    return Err(LangError::new(
                        "unterminated block comment",
                        Span::new(start, bytes.len()),
                    ));
                }
            }
            '0'..='9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &source[start..i];
                let value: i64 = text.parse().map_err(|_| {
                    LangError::new(
                        format!("integer literal `{text}` out of range"),
                        Span::new(start, i),
                    )
                })?;
                tokens.push(Token {
                    kind: TokenKind::Int(value),
                    span: Span::new(start, i),
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = &source[start..i];
                let kind = match text {
                    "let" => TokenKind::Let,
                    "resource" => TokenKind::Resource,
                    "option" => TokenKind::Option,
                    "or_tree" => TokenKind::OrTree,
                    "and_or_tree" => TokenKind::AndOrTree,
                    "class" => TokenKind::Class,
                    "op" => TokenKind::Op,
                    "bypass" => TokenKind::Bypass,
                    "first_of" => TokenKind::FirstOf,
                    "all_of" => TokenKind::AllOf,
                    "cross" => TokenKind::Cross,
                    "for" => TokenKind::For,
                    "in" => TokenKind::In,
                    "if" => TokenKind::If,
                    _ => TokenKind::Ident(text),
                };
                tokens.push(Token {
                    kind,
                    span: Span::new(start, i),
                });
            }
            '"' => {
                i += 1;
                let text_start = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(LangError::new(
                        "unterminated string literal",
                        Span::new(start, bytes.len()),
                    ));
                }
                tokens.push(Token {
                    kind: TokenKind::Str(&source[text_start..i]),
                    span: Span::new(start, i + 1),
                });
                i += 1;
            }
            _ => {
                // Non-ASCII input cannot start any HMDL token; decode the
                // full character for the diagnostic (slicing by bytes
                // would split multi-byte UTF-8).
                if !c.is_ascii() {
                    let full = source[start..].chars().next().unwrap_or('\u{FFFD}');
                    return Err(LangError::new(
                        format!("unexpected character `{full}`"),
                        Span::new(start, start + full.len_utf8()),
                    ));
                }
                let two = source.get(i..i + 2).unwrap_or("");
                let (kind, len) = match two {
                    ".." => (TokenKind::DotDot, 2),
                    "==" => (TokenKind::EqEq, 2),
                    "!=" => (TokenKind::NotEq, 2),
                    "<=" => (TokenKind::Le, 2),
                    ">=" => (TokenKind::Ge, 2),
                    "&&" => (TokenKind::AndAnd, 2),
                    "||" => (TokenKind::OrOr, 2),
                    _ => match c {
                        '=' => (TokenKind::Eq, 1),
                        ';' => (TokenKind::Semi, 1),
                        ',' => (TokenKind::Comma, 1),
                        '{' => (TokenKind::LBrace, 1),
                        '}' => (TokenKind::RBrace, 1),
                        '(' => (TokenKind::LParen, 1),
                        ')' => (TokenKind::RParen, 1),
                        '[' => (TokenKind::LBracket, 1),
                        ']' => (TokenKind::RBracket, 1),
                        '@' => (TokenKind::At, 1),
                        ':' => (TokenKind::Colon, 1),
                        '|' => (TokenKind::Pipe, 1),
                        '+' => (TokenKind::Plus, 1),
                        '-' => (TokenKind::Minus, 1),
                        '*' => (TokenKind::Star, 1),
                        '/' => (TokenKind::Slash, 1),
                        '%' => (TokenKind::Percent, 1),
                        '<' => (TokenKind::Lt, 1),
                        '>' => (TokenKind::Gt, 1),
                        other => {
                            return Err(LangError::new(
                                format!("unexpected character `{other}`"),
                                Span::new(start, start + other.len_utf8()),
                            ));
                        }
                    },
                };
                i += len;
                tokens.push(Token {
                    kind,
                    span: Span::new(start, i),
                });
            }
        }
    }

    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(bytes.len(), bytes.len()),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("or_tree Load ="),
            vec![
                TokenKind::OrTree,
                TokenKind::Ident("Load"),
                TokenKind::Eq,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_operators() {
        assert_eq!(
            kinds("0..12 <= >= == != && ||"),
            vec![
                TokenKind::Int(0),
                TokenKind::DotDot,
                TokenKind::Int(12),
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        let src = "a // comment\n /* block /* nested */ still */ b";
        assert_eq!(
            kinds(src),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        let err = lex("x /* never closed").unwrap_err();
        assert!(err.message.contains("unterminated block comment"));
    }

    #[test]
    fn string_literals() {
        assert_eq!(
            kinds("\"hello world\""),
            vec![TokenKind::Str("hello world"), TokenKind::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn rejects_unknown_characters_with_span() {
        let err = lex("resource M; #").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!(err.span.start, 12);
    }

    #[test]
    fn usage_syntax_tokens() {
        assert_eq!(
            kinds("{ Decoder[2] @ -1 }"),
            vec![
                TokenKind::LBrace,
                TokenKind::Ident("Decoder"),
                TokenKind::LBracket,
                TokenKind::Int(2),
                TokenKind::RBracket,
                TokenKind::At,
                TokenKind::Minus,
                TokenKind::Int(1),
                TokenKind::RBrace,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let tokens = lex("ab cd").unwrap();
        assert_eq!(tokens[0].span, Span::new(0, 2));
        assert_eq!(tokens[1].span, Span::new(3, 5));
        assert_eq!(tokens[2].span, Span::new(5, 5));
    }

    #[test]
    fn rejects_out_of_range_integers() {
        let err = lex("99999999999999999999999").unwrap_err();
        assert!(err.message.contains("out of range"));
    }
}
