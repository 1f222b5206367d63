//! Recursive-descent parser for HMDL.

use crate::ast::{
    BinOp, ClassBody, Expr, ForBinding, Item, OptionBody, OrItem, OrTreeBody, Program, ResourceRef,
    UnOp, UsageAst,
};
use crate::error::LangError;
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};

/// Hard ceiling on accepted source size.  Real machine descriptions are a
/// few kilobytes; anything near this limit is hostile or corrupt input.
pub const MAX_SOURCE_BYTES: usize = 1 << 20;

/// Hard ceiling on expression and `for`-comprehension nesting, chosen
/// well below the point where recursive descent would exhaust the stack
/// (each parenthesized level costs the full expression-grammar chain of
/// stack frames, which matters on small test-thread stacks).
pub const MAX_NESTING_DEPTH: usize = 256;

/// Error recovery stops collecting diagnostics past this count; a run of
/// cascading errors after that adds noise, not information.
pub const MAX_ERRORS: usize = 25;

/// Parses HMDL source into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its source span.
/// Use [`parse_recovering`] to collect every diagnostic in one run.
///
/// # Examples
///
/// ```
/// use mdes_lang::parser::parse;
///
/// let program = parse(
///     "resource M;\n\
///      or_tree UseM = first_of({ M @ 0 });\n\
///      class load { constraint = UseM; latency = 1; flags = load; }",
/// ).unwrap();
/// assert_eq!(program.items.len(), 3);
/// ```
pub fn parse(source: &str) -> Result<Program<'_>, LangError> {
    parse_recovering(source).map_err(|errors| {
        errors
            .into_iter()
            .next()
            .unwrap_or_else(|| LangError::new("parse failed", Span::default()))
    })
}

/// Parses HMDL source, recovering at item boundaries after each syntax
/// error so one run reports every diagnostic (up to [`MAX_ERRORS`]).
///
/// # Errors
///
/// Returns all collected errors in source order.  The first element is
/// always the error [`parse`] would have returned.
pub fn parse_recovering(source: &str) -> Result<Program<'_>, Vec<LangError>> {
    if source.len() > MAX_SOURCE_BYTES {
        return Err(vec![LangError::new(
            format!(
                "source is {} bytes, over the {MAX_SOURCE_BYTES}-byte limit",
                source.len()
            ),
            Span::default(),
        )]);
    }
    let tokens = match lex(source) {
        Ok(tokens) => tokens,
        Err(err) => return Err(vec![err]),
    };
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    let mut errors = Vec::new();
    while parser.peek().kind != TokenKind::Eof {
        // Items do not nest, so the depth budget resets per item; this
        // also clears any un-unwound depth left by an error mid-item.
        parser.depth = 0;
        match parser.item() {
            Ok(item) => items.push(item),
            Err(err) => {
                errors.push(err);
                if errors.len() >= MAX_ERRORS {
                    errors.push(LangError::new(
                        format!("too many errors ({MAX_ERRORS}); giving up"),
                        parser.peek().span,
                    ));
                    break;
                }
                parser.synchronize();
            }
        }
    }
    if errors.is_empty() {
        Ok(Program { items })
    } else {
        Err(errors)
    }
}

struct Parser<'src> {
    /// The whole token stream: the lexer runs to the end first, so a
    /// lexical error anywhere precedes every syntax error.
    tokens: Vec<Token<'src>>,
    pos: usize,
    /// Current nesting depth of recursive productions (parenthesized
    /// expressions, unary chains, nested `for` items).
    depth: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Token<'src> {
        self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token<'src> {
        let token = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        if self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<Token<'src>, LangError> {
        let next = self.peek();
        if next.kind == kind {
            Ok(self.advance())
        } else {
            Err(LangError::new(
                format!("expected `{kind}`, found `{}`", next.kind),
                next.span,
            ))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'src str, Span), LangError> {
        match self.peek() {
            Token {
                kind: TokenKind::Ident(name),
                span,
            } => {
                self.advance();
                Ok((name, span))
            }
            other => Err(LangError::new(
                format!("expected {what}, found `{}`", other.kind),
                other.span,
            )),
        }
    }

    /// Enters one level of recursive nesting, rejecting input deeper than
    /// [`MAX_NESTING_DEPTH`].  Every successful call is paired with a
    /// `self.depth -= 1` on the non-error path; error paths leave the
    /// counter elevated, which is fine because recovery resets it per
    /// item.
    fn descend(&mut self, span: Span) -> Result<(), LangError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(LangError::new(
                format!("nesting exceeds the maximum depth of {MAX_NESTING_DEPTH}"),
                span,
            ));
        }
        Ok(())
    }

    /// Skips ahead to a plausible item boundary after a syntax error: the
    /// token after the next top-level `;` or closing `}`, or the next
    /// keyword that can start an item.  Bracket depth is tracked so a `;`
    /// inside a class body or parenthesized list does not end recovery
    /// early.
    fn synchronize(&mut self) {
        let mut depth: usize = 0;
        loop {
            match self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Let
                | TokenKind::Resource
                | TokenKind::Option
                | TokenKind::OrTree
                | TokenKind::AndOrTree
                | TokenKind::Op
                | TokenKind::Bypass
                | TokenKind::Class
                    if depth == 0 =>
                {
                    return;
                }
                TokenKind::LBrace | TokenKind::LParen | TokenKind::LBracket => {
                    depth += 1;
                    self.advance();
                }
                TokenKind::RBrace => {
                    depth = depth.saturating_sub(1);
                    self.advance();
                    if depth == 0 {
                        return self.skip_closers();
                    }
                }
                TokenKind::RParen | TokenKind::RBracket => {
                    depth = depth.saturating_sub(1);
                    self.advance();
                }
                TokenKind::Semi => {
                    self.advance();
                    if depth == 0 {
                        return self.skip_closers();
                    }
                }
                _ => {
                    self.advance();
                }
            }
        }
    }

    /// Consumes stray closing delimiters after a recovery point.  No item
    /// starts with a closer, so reporting each as its own "expected an
    /// item" error would only cascade noise from one real mistake (an
    /// error inside `class { ... }` synchronizes at the inner `;`,
    /// leaving the body's `}` behind).
    fn skip_closers(&mut self) {
        while matches!(
            self.peek().kind,
            TokenKind::RBrace | TokenKind::RParen | TokenKind::RBracket
        ) {
            self.advance();
        }
    }

    fn item(&mut self) -> Result<Item<'src>, LangError> {
        let start = self.peek().span;
        match self.peek().kind {
            TokenKind::Let => {
                self.advance();
                let (name, _) = self.expect_ident("constant name")?;
                self.expect(TokenKind::Eq)?;
                let value = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Item::Let {
                    name,
                    value,
                    span: start.to(end),
                })
            }
            TokenKind::Resource => {
                self.advance();
                let (name, _) = self.expect_ident("resource name")?;
                let count = if self.eat(TokenKind::LBracket) {
                    let count = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    Some(count)
                } else {
                    None
                };
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Item::Resource {
                    name,
                    count,
                    span: start.to(end),
                })
            }
            TokenKind::Option => {
                self.advance();
                let (name, _) = self.expect_ident("option name")?;
                self.expect(TokenKind::Eq)?;
                let body = self.option_body()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Item::Option {
                    name,
                    body,
                    span: start.to(end),
                })
            }
            TokenKind::OrTree => {
                self.advance();
                let (name, _) = self.expect_ident("OR-tree name")?;
                self.expect(TokenKind::Eq)?;
                let body = self.or_tree_body()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Item::OrTree {
                    name,
                    body,
                    span: start.to(end),
                })
            }
            TokenKind::AndOrTree => {
                self.advance();
                let (name, _) = self.expect_ident("AND/OR-tree name")?;
                self.expect(TokenKind::Eq)?;
                self.expect(TokenKind::AllOf)?;
                self.expect(TokenKind::LParen)?;
                let mut trees = vec![self.expect_ident("OR-tree name")?];
                while self.eat(TokenKind::Comma) {
                    trees.push(self.expect_ident("OR-tree name")?);
                }
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Item::AndOrTree {
                    name,
                    trees,
                    span: start.to(end),
                })
            }
            TokenKind::Op => {
                self.advance();
                let mut names = vec![self.expect_ident("opcode mnemonic")?];
                while self.eat(TokenKind::Comma) {
                    names.push(self.expect_ident("opcode mnemonic")?);
                }
                self.expect(TokenKind::Eq)?;
                let class = self.expect_ident("class name")?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Item::Opcode {
                    names,
                    class,
                    span: start.to(end),
                })
            }
            TokenKind::Bypass => {
                self.advance();
                let producer = self.expect_ident("producer class name")?;
                self.expect(TokenKind::Comma)?;
                let consumer = self.expect_ident("consumer class name")?;
                self.expect(TokenKind::Eq)?;
                let latency = self.expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Item::Bypass {
                    producer,
                    consumer,
                    latency,
                    span: start.to(end),
                })
            }
            TokenKind::Class => {
                self.advance();
                let (name, _) = self.expect_ident("class name")?;
                self.expect(TokenKind::LBrace)?;
                let mut body = ClassBody::default();
                while !self.eat(TokenKind::RBrace) {
                    self.class_field(&mut body)?;
                }
                let span = start.to(self.tokens[self.pos.saturating_sub(1)].span);
                Ok(Item::Class { name, body, span })
            }
            other => Err(LangError::new(
                format!("expected an item (let/resource/option/or_tree/and_or_tree/class), found `{other}`"),
                start,
            )),
        }
    }

    fn class_field(&mut self, body: &mut ClassBody<'src>) -> Result<(), LangError> {
        let (field, span) = self.expect_ident("class field name")?;
        self.expect(TokenKind::Eq)?;
        match field {
            "constraint" => {
                let target = self.expect_ident("constraint tree name")?;
                if body.constraint.replace(target).is_some() {
                    return Err(LangError::new("duplicate `constraint` field", span));
                }
            }
            "latency" => {
                let value = self.expr()?;
                if body.latency.replace(value).is_some() {
                    return Err(LangError::new("duplicate `latency` field", span));
                }
            }
            "mem_latency" => {
                let value = self.expr()?;
                if body.mem_latency.replace(value).is_some() {
                    return Err(LangError::new("duplicate `mem_latency` field", span));
                }
            }
            "src_time" => {
                let value = self.expr()?;
                if body.src_time.replace(value).is_some() {
                    return Err(LangError::new("duplicate `src_time` field", span));
                }
            }
            "flags" => loop {
                body.flags.push(self.expect_ident("flag name")?);
                if !self.eat(TokenKind::Pipe) {
                    break;
                }
            },
            other => {
                return Err(LangError::new(
                    format!(
                        "unknown class field `{other}` (expected constraint, latency, mem_latency, src_time or flags)"
                    ),
                    span,
                ));
            }
        }
        self.expect(TokenKind::Semi)?;
        Ok(())
    }

    fn or_tree_body(&mut self) -> Result<OrTreeBody<'src>, LangError> {
        match self.peek().kind {
            TokenKind::FirstOf => {
                self.advance();
                self.expect(TokenKind::LParen)?;
                let mut items = vec![self.or_item()?];
                while self.eat(TokenKind::Comma) {
                    items.push(self.or_item()?);
                }
                self.expect(TokenKind::RParen)?;
                Ok(OrTreeBody::FirstOf(items))
            }
            TokenKind::Cross => {
                let start = self.advance().span;
                self.expect(TokenKind::LParen)?;
                let mut trees = vec![self.expect_ident("OR-tree name")?];
                while self.eat(TokenKind::Comma) {
                    trees.push(self.expect_ident("OR-tree name")?);
                }
                let end = self.expect(TokenKind::RParen)?.span;
                Ok(OrTreeBody::Cross(trees, start.to(end)))
            }
            other => Err(LangError::new(
                format!("expected `first_of` or `cross`, found `{other}`"),
                self.peek().span,
            )),
        }
    }

    fn or_item(&mut self) -> Result<OrItem<'src>, LangError> {
        match self.peek().kind {
            TokenKind::LBrace => Ok(OrItem::Inline(self.option_body()?)),
            TokenKind::Ident(name) => {
                let span = self.advance().span;
                Ok(OrItem::Named(name, span))
            }
            TokenKind::For => {
                let start = self.advance().span;
                self.descend(start)?;
                let mut bindings = vec![self.for_binding()?];
                while self.eat(TokenKind::Comma) {
                    bindings.push(self.for_binding()?);
                }
                let guard = if self.eat(TokenKind::If) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(TokenKind::Colon)?;
                let body = Box::new(self.or_item()?);
                self.depth -= 1;
                let span = start.to(self.tokens[self.pos.saturating_sub(1)].span);
                Ok(OrItem::For {
                    bindings,
                    guard,
                    body,
                    span,
                })
            }
            other => Err(LangError::new(
                format!("expected an option (`{{...}}`, a name, or `for`), found `{other}`"),
                self.peek().span,
            )),
        }
    }

    fn for_binding(&mut self) -> Result<ForBinding<'src>, LangError> {
        let (var, _) = self.expect_ident("loop variable")?;
        self.expect(TokenKind::In)?;
        let lo = self.expr()?;
        self.expect(TokenKind::DotDot)?;
        let hi = self.expr()?;
        Ok(ForBinding { var, lo, hi })
    }

    fn option_body(&mut self) -> Result<OptionBody<'src>, LangError> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut usages = vec![self.usage()?];
        while self.eat(TokenKind::Comma) {
            usages.push(self.usage()?);
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Ok(OptionBody {
            usages,
            span: start.to(end),
        })
    }

    fn usage(&mut self) -> Result<UsageAst<'src>, LangError> {
        let (name, span) = self.expect_ident("resource name")?;
        let index = if self.eat(TokenKind::LBracket) {
            let index = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            Some(index)
        } else {
            None
        };
        self.expect(TokenKind::At)?;
        let time = self.expr()?;
        Ok(UsageAst {
            resource: ResourceRef { name, index, span },
            time,
        })
    }

    // Expression grammar, lowest precedence first:
    //   or  := and (|| and)*
    //   and := cmp (&& cmp)*
    //   cmp := add ((==|!=|<|<=|>|>=) add)?
    //   add := mul ((+|-) mul)*
    //   mul := unary ((*|/|%) unary)*
    //   unary := - unary | atom
    //   atom := INT | IDENT | ( expr )
    // The five binary levels are one precedence-climbing loop.
    fn expr(&mut self) -> Result<Expr<'src>, LangError> {
        self.binary(OR)
    }

    /// Parses the binary levels from `min` up.  Each level is
    /// left-associative except `cmp`, which takes one operator at most:
    /// once this loop has taken a comparison, `&&` or `||`, a comparison
    /// operator ends the expression, as it does in the layered grammar.
    fn binary(&mut self, min: u8) -> Result<Expr<'src>, LangError> {
        let mut lhs = self.unary_expr()?;
        let mut compared = false;
        while let Some((op, level)) = binary_op(self.peek().kind) {
            if level < min || (level == CMP && compared) {
                break;
            }
            self.advance();
            let rhs = self.binary(level + 1)?;
            compared |= level <= CMP;
            let span = lhs.span().to(rhs.span());
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr<'src>, LangError> {
        if self.peek().kind == TokenKind::Minus {
            let start = self.advance().span;
            self.descend(start)?;
            let inner = self.unary_expr()?;
            self.depth -= 1;
            let span = start.to(inner.span());
            return Ok(Expr::Unary(UnOp::Neg, Box::new(inner), span));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr<'src>, LangError> {
        let next = self.peek();
        match next.kind {
            TokenKind::Int(value) => {
                self.advance();
                Ok(Expr::Int(value, next.span))
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::Var(name, next.span))
            }
            TokenKind::LParen => {
                self.descend(next.span)?;
                self.advance();
                let inner = self.expr()?;
                self.expect(TokenKind::RParen)?;
                self.depth -= 1;
                Ok(inner)
            }
            other => Err(LangError::new(
                format!("expected expression, found `{other}`"),
                next.span,
            )),
        }
    }
}

/// Binary-operator levels, loosest first.
const OR: u8 = 1;
const AND: u8 = 2;
const CMP: u8 = 3;
const ADD: u8 = 4;
const MUL: u8 = 5;

/// The operator and level of a binary-operator token.
fn binary_op(kind: TokenKind<'_>) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, OR),
        TokenKind::AndAnd => (BinOp::And, AND),
        TokenKind::EqEq => (BinOp::Eq, CMP),
        TokenKind::NotEq => (BinOp::Ne, CMP),
        TokenKind::Lt => (BinOp::Lt, CMP),
        TokenKind::Le => (BinOp::Le, CMP),
        TokenKind::Gt => (BinOp::Gt, CMP),
        TokenKind::Ge => (BinOp::Ge, CMP),
        TokenKind::Plus => (BinOp::Add, ADD),
        TokenKind::Minus => (BinOp::Sub, ADD),
        TokenKind::Star => (BinOp::Mul, MUL),
        TokenKind::Slash => (BinOp::Div, MUL),
        TokenKind::Percent => (BinOp::Rem, MUL),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_resources_options_and_classes() {
        let src = "
            let N = 2;
            resource Decoder[3];
            resource M;
            option UseM = { M @ 0 };
            or_tree Mem = first_of(UseM);
            or_tree AnyDec = first_of(for d in 0..3: { Decoder[d] @ -1 });
            and_or_tree Load = all_of(Mem, AnyDec);
            class load { constraint = Load; latency = N; flags = load; }
        ";
        let program = parse(src).unwrap();
        assert_eq!(program.items.len(), 8);
        match &program.items[6] {
            Item::AndOrTree { name, trees, .. } => {
                assert_eq!(*name, "Load");
                assert_eq!(trees.len(), 2);
            }
            other => panic!("expected and_or_tree, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_with_guard_and_multiple_bindings() {
        let src =
            "or_tree P = first_of(for i in 0..4, j in 0..4 if j > i: { RP[i] @ 0, RP[j] @ 0 });";
        let program = parse(src).unwrap();
        match &program.items[0] {
            Item::OrTree {
                body: OrTreeBody::FirstOf(items),
                ..
            } => match &items[0] {
                OrItem::For {
                    bindings, guard, ..
                } => {
                    assert_eq!(bindings.len(), 2);
                    assert!(guard.is_some());
                }
                other => panic!("expected for, got {other:?}"),
            },
            other => panic!("expected first_of tree, got {other:?}"),
        }
    }

    #[test]
    fn parses_cross_body() {
        let program = parse("or_tree X = cross(A, B, C);").unwrap();
        match &program.items[0] {
            Item::OrTree {
                body: OrTreeBody::Cross(trees, _),
                ..
            } => assert_eq!(trees.len(), 3),
            other => panic!("expected cross tree, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence_is_conventional() {
        // 1 + 2 * 3 parses as 1 + (2 * 3).
        let program = parse("let x = 1 + 2 * 3;").unwrap();
        match &program.items[0] {
            Item::Let { value, .. } => match value {
                Expr::Binary(BinOp::Add, _, rhs, _) => {
                    assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _, _)));
                }
                other => panic!("expected add at top, got {other:?}"),
            },
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn boolean_operators_bind_looser_than_comparisons() {
        // `1 < 2 && 3 < 4 || 5 >= 6` is `((1 < 2) && (3 < 4)) || (5 >= 6)`.
        let program = parse("let x = 1 < 2 && 3 < 4 || 5 >= 6;").unwrap();
        let Item::Let { value, .. } = &program.items[0] else {
            panic!("expected let");
        };
        let Expr::Binary(BinOp::Or, lhs, rhs, _) = value else {
            panic!("expected `||` at the top, got {value:?}");
        };
        assert!(matches!(**rhs, Expr::Binary(BinOp::Ge, _, _, _)));
        let Expr::Binary(BinOp::And, a, b, _) = &**lhs else {
            panic!("expected `&&` under `||`, got {lhs:?}");
        };
        assert!(matches!(**a, Expr::Binary(BinOp::Lt, _, _, _)));
        assert!(matches!(**b, Expr::Binary(BinOp::Lt, _, _, _)));
    }

    #[test]
    fn comparisons_do_not_chain() {
        // A comparison takes one operator; a second one, directly or
        // after `&&`/`||`, ends the expression where `;` was expected.
        for src in [
            "let x = 1 < 2 < 3;",
            "let x = 1 && 2 < 3 < 4;",
            "let x = 1 < 2 || 3 == 4 == 5;",
            "let x = 1 + 2 < 3 && 4 != 5 >= 6;",
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.message.starts_with("expected `;`, found `"),
                "{src}: {}",
                err.message
            );
        }
        assert!(parse("let x = (1 < 2) < 3;").is_ok());
    }

    #[test]
    fn flags_accept_pipe_separated_list() {
        let program = parse("class br { constraint = T; flags = branch | serial; }").unwrap();
        match &program.items[0] {
            Item::Class { body, .. } => {
                let names: Vec<&str> = body.flags.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, vec!["branch", "serial"]);
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_class_fields_are_rejected() {
        let err = parse("class c { latency = 1; latency = 2; }").unwrap_err();
        assert!(err.message.contains("duplicate `latency`"));
    }

    #[test]
    fn unknown_class_field_is_rejected() {
        let err = parse("class c { speed = 1; }").unwrap_err();
        assert!(err.message.contains("unknown class field `speed`"));
    }

    #[test]
    fn missing_semicolon_reports_expected_token() {
        let err = parse("resource M").unwrap_err();
        assert!(err.message.contains("expected `;`"));
    }

    #[test]
    fn empty_option_body_is_a_parse_error() {
        let err = parse("option x = { };").unwrap_err();
        assert!(err.message.contains("expected resource name"));
    }

    #[test]
    fn negative_times_parse_as_unary_minus() {
        let program = parse("option x = { M @ -2 };").unwrap();
        match &program.items[0] {
            Item::Option { body, .. } => {
                assert!(matches!(body.usages[0].time, Expr::Unary(UnOp::Neg, _, _)));
            }
            other => panic!("expected option, got {other:?}"),
        }
    }

    #[test]
    fn garbage_at_top_level_is_reported() {
        let err = parse("42;").unwrap_err();
        assert!(err.message.contains("expected an item"));
    }

    #[test]
    fn recovery_collects_every_error_in_one_run() {
        // Three independent mistakes: a bad let, an unknown class field,
        // and garbage at top level — all reported in source order.
        let src = "let x = ;\n\
                   class c { speed = 1; }\n\
                   resource M;\n\
                   42;";
        let errors = parse_recovering(src).unwrap_err();
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors[0].message.contains("expected expression"));
        assert!(errors[1].message.contains("unknown class field"));
        assert!(errors[2].message.contains("expected an item"));
    }

    #[test]
    fn recovery_keeps_well_formed_items_around_an_error() {
        let src = "resource M;\n\
                   or_tree T = first_of(;\n\
                   resource N;";
        let errors = parse_recovering(src).unwrap_err();
        assert_eq!(errors.len(), 1);
        // The parse still failed overall, but fail-fast `parse` reports
        // the identical first error.
        assert_eq!(parse(src).unwrap_err(), errors[0]);
    }

    #[test]
    fn first_recovered_error_matches_fail_fast_parse() {
        let src = "class c { latency = 1; latency = 2; } bogus";
        let errors = parse_recovering(src).unwrap_err();
        assert_eq!(parse(src).unwrap_err(), errors[0]);
        assert!(errors[0].message.contains("duplicate `latency`"));
    }

    #[test]
    fn error_count_is_capped() {
        let src = "@ ;".repeat(MAX_ERRORS * 3);
        let errors = parse_recovering(&src).unwrap_err();
        assert_eq!(errors.len(), MAX_ERRORS + 1);
        assert!(errors.last().unwrap().message.contains("too many errors"));
    }

    #[test]
    fn nesting_past_the_depth_limit_is_a_typed_error_not_an_overflow() {
        let mut expr = String::from("1");
        for _ in 0..MAX_NESTING_DEPTH + 8 {
            expr = format!("({expr})");
        }
        let err = parse(&format!("let x = {expr};")).unwrap_err();
        assert!(err.message.contains("nesting exceeds"), "{}", err.message);

        // Unary-minus chains recurse too.
        let minus = "-".repeat(MAX_NESTING_DEPTH + 8);
        let err = parse(&format!("let x = {minus}1;")).unwrap_err();
        assert!(err.message.contains("nesting exceeds"), "{}", err.message);

        // Nested `for` items share the same budget.
        let mut item = String::from("{ M @ 0 }");
        for i in 0..MAX_NESTING_DEPTH + 8 {
            item = format!("for v{i} in 0..1: {item}");
        }
        let err = parse(&format!("or_tree T = first_of({item});")).unwrap_err();
        assert!(err.message.contains("nesting exceeds"), "{}", err.message);
    }

    #[test]
    fn nesting_under_the_limit_still_parses() {
        let mut expr = String::from("1");
        for _ in 0..MAX_NESTING_DEPTH - 2 {
            expr = format!("({expr})");
        }
        assert!(parse(&format!("let x = {expr};")).is_ok());
    }

    #[test]
    fn oversized_source_is_rejected_up_front() {
        let source = " ".repeat(MAX_SOURCE_BYTES + 1);
        let err = parse(&source).unwrap_err();
        assert!(err.message.contains("byte limit"), "{}", err.message);
    }

    #[test]
    fn depth_budget_resets_between_items() {
        // One deep-but-legal expression per item must not accumulate.
        let mut expr = String::from("1");
        for _ in 0..MAX_NESTING_DEPTH / 2 {
            expr = format!("({expr})");
        }
        let src = format!("let a = {expr};\nlet b = {expr};\nlet c = {expr};");
        assert!(parse(&src).is_ok());
    }
}
