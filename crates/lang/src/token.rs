//! Tokens and source spans for the HMDL language.

use std::fmt;

/// A half-open byte range into the source text.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Computes 1-based (line, column) of the span start within `source`.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in source.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// Token kinds of HMDL.  Identifier and string text borrows the source,
/// so a token is a plain `Copy` value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TokenKind<'src> {
    // Literals and identifiers.
    /// Integer literal.
    Int(i64),
    /// Identifier (may be a contextual keyword).
    Ident(&'src str),
    /// String literal (used for documentation fields), without its quotes.
    Str(&'src str),

    // Keywords.
    /// `let`
    Let,
    /// `resource`
    Resource,
    /// `option`
    Option,
    /// `or_tree`
    OrTree,
    /// `and_or_tree`
    AndOrTree,
    /// `class`
    Class,
    /// `op`
    Op,
    /// `bypass`
    Bypass,
    /// `first_of`
    FirstOf,
    /// `all_of`
    AllOf,
    /// `cross`
    Cross,
    /// `for`
    For,
    /// `in`
    In,
    /// `if`
    If,

    // Punctuation.
    /// `=`
    Eq,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `@`
    At,
    /// `..`
    DotDot,
    /// `:`
    Colon,
    /// `|`
    Pipe,

    // Operators.
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,

    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Str(s) => write!(f, "{s:?}"),
            TokenKind::Let => write!(f, "let"),
            TokenKind::Resource => write!(f, "resource"),
            TokenKind::Option => write!(f, "option"),
            TokenKind::OrTree => write!(f, "or_tree"),
            TokenKind::AndOrTree => write!(f, "and_or_tree"),
            TokenKind::Class => write!(f, "class"),
            TokenKind::Op => write!(f, "op"),
            TokenKind::Bypass => write!(f, "bypass"),
            TokenKind::FirstOf => write!(f, "first_of"),
            TokenKind::AllOf => write!(f, "all_of"),
            TokenKind::Cross => write!(f, "cross"),
            TokenKind::For => write!(f, "for"),
            TokenKind::In => write!(f, "in"),
            TokenKind::If => write!(f, "if"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Semi => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::At => write!(f, "@"),
            TokenKind::DotDot => write!(f, ".."),
            TokenKind::Colon => write!(f, ":"),
            TokenKind::Pipe => write!(f, "|"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::NotEq => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source span.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Token<'src> {
    /// The token kind.
    pub kind: TokenKind<'src>,
    /// Where the token came from.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(b.to(a), Span::new(3, 12));
    }

    #[test]
    fn line_col_counts_newlines() {
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 2));
        assert_eq!(Span::new(6, 7).line_col(src), (3, 1));
    }

    #[test]
    fn display_round_trips_symbols() {
        assert_eq!(TokenKind::DotDot.to_string(), "..");
        assert_eq!(TokenKind::Ident("abc").to_string(), "abc");
        assert_eq!(TokenKind::Int(-4).to_string(), "-4");
    }
}
