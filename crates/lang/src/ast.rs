//! Abstract syntax of HMDL, the high-level machine description language.
//!
//! A description is a sequence of items:
//!
//! ```text
//! let N = 4;                      // integer constant
//! resource Decoder[3];            // indexed resource family
//! resource M;                     // single resource
//! option UseM = { M @ 0 };        // named (shared) reservation option
//! or_tree AnyDec = first_of(for d in 0..3: { Decoder[d] @ -1 });
//! or_tree RpPair = first_of(for i in 0..N, j in 0..N if j > i:
//!                            { RP[i] @ -1, RP[j] @ -1 });
//! and_or_tree Load = all_of(UseM, AnyWrPt, AnyDec);
//! class load { constraint = Load; latency = 1; flags = load; }
//! ```
//!
//! `for` comprehensions expand at elaboration time into enumerated options
//! — the high-level convenience the paper notes can introduce redundant
//! options that the Section-5 transformations later clean up.
//!
//! Every name in the tree borrows the source text (`'src`); elaboration
//! copies a name only into the spec item that defines it.

use crate::token::Span;

/// Unary integer operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
}

/// Binary integer/boolean operators (booleans are 0/1 integers).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating; division by zero is an elaboration error)
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// An integer expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr<'src> {
    /// Literal.
    Int(i64, Span),
    /// Reference to a `let` constant or `for` variable.
    Var(&'src str, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr<'src>>, Span),
    /// Binary operation.
    Binary(BinOp, Box<Expr<'src>>, Box<Expr<'src>>, Span),
}

impl Expr<'_> {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Var(_, s) | Expr::Unary(_, _, s) | Expr::Binary(_, _, _, s) => {
                *s
            }
        }
    }
}

/// A reference to a resource: `M` or `Decoder[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceRef<'src> {
    /// Base name.
    pub name: &'src str,
    /// Optional index expression for indexed families.
    pub index: Option<Expr<'src>>,
    /// Source span.
    pub span: Span,
}

/// One usage inside an option body: `Decoder[i] @ -1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageAst<'src> {
    /// The resource used.
    pub resource: ResourceRef<'src>,
    /// Usage time expression.
    pub time: Expr<'src>,
}

/// An inline option body: `{ usage, usage, ... }`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptionBody<'src> {
    /// The usages in written (check) order.
    pub usages: Vec<UsageAst<'src>>,
    /// Source span.
    pub span: Span,
}

/// One `for` binding: `name in lo..hi`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForBinding<'src> {
    /// Loop variable name.
    pub var: &'src str,
    /// Inclusive lower bound.
    pub lo: Expr<'src>,
    /// Exclusive upper bound.
    pub hi: Expr<'src>,
}

/// An element of a `first_of(...)` list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrItem<'src> {
    /// A fresh inline option.
    Inline(OptionBody<'src>),
    /// A reference to a named option (author-specified sharing).
    Named(&'src str, Span),
    /// A comprehension generating options in lexicographic binding order.
    For {
        /// Bindings, later ones may reference earlier variables.
        bindings: Vec<ForBinding<'src>>,
        /// Optional filter; combinations evaluating to 0 are skipped.
        guard: Option<Expr<'src>>,
        /// Item instantiated per combination.
        body: Box<OrItem<'src>>,
        /// Source span.
        span: Span,
    },
}

/// The right-hand side of an `or_tree` declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrTreeBody<'src> {
    /// `first_of(item, item, ...)` — explicit prioritized options.
    FirstOf(Vec<OrItem<'src>>),
    /// `cross(A, B, ...)` — the lexicographic cross product of named
    /// OR-trees, first tree outermost.  This is how a traditional
    /// (pure OR) description enumerates independent choices.
    Cross(Vec<(&'src str, Span)>, Span),
}

/// Operation class fields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassBody<'src> {
    /// Name of the constraint tree (`and_or_tree` or `or_tree`).
    pub constraint: Option<(&'src str, Span)>,
    /// Result latency (default 1).
    pub latency: Option<Expr<'src>>,
    /// Memory-dependence latency (default: same as `latency`).
    pub mem_latency: Option<Expr<'src>>,
    /// Source-operand read time (default 0).
    pub src_time: Option<Expr<'src>>,
    /// Flag names: `load`, `store`, `branch`, `serial`.
    pub flags: Vec<(&'src str, Span)>,
}

/// A top-level item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Item<'src> {
    /// `let name = expr;`
    Let {
        /// Constant name.
        name: &'src str,
        /// Value expression.
        value: Expr<'src>,
        /// Source span.
        span: Span,
    },
    /// `resource name;` or `resource name[count];`
    Resource {
        /// Base name.
        name: &'src str,
        /// Family size (None = single resource).
        count: Option<Expr<'src>>,
        /// Source span.
        span: Span,
    },
    /// `option name = { ... };`
    Option {
        /// Option name.
        name: &'src str,
        /// Usages.
        body: OptionBody<'src>,
        /// Source span.
        span: Span,
    },
    /// `or_tree name = first_of(...)|cross(...);`
    OrTree {
        /// Tree name.
        name: &'src str,
        /// Body.
        body: OrTreeBody<'src>,
        /// Source span.
        span: Span,
    },
    /// `and_or_tree name = all_of(t1, t2, ...);`
    AndOrTree {
        /// Tree name.
        name: &'src str,
        /// Referenced OR-tree names, in check order.
        trees: Vec<(&'src str, Span)>,
        /// Source span.
        span: Span,
    },
    /// `op NAME, NAME, ... = class;`
    Opcode {
        /// Mnemonics being mapped.
        names: Vec<(&'src str, Span)>,
        /// Target class name.
        class: (&'src str, Span),
        /// Source span.
        span: Span,
    },
    /// `bypass producer, consumer = latency;`
    Bypass {
        /// Producing class name.
        producer: (&'src str, Span),
        /// Consuming class name.
        consumer: (&'src str, Span),
        /// Flow latency expression for the pair.
        latency: Expr<'src>,
        /// Source span.
        span: Span,
    },
    /// `class name { ... }`
    Class {
        /// Class name.
        name: &'src str,
        /// Fields.
        body: ClassBody<'src>,
        /// Source span.
        span: Span,
    },
}

/// A parsed HMDL description.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program<'src> {
    /// Items in source order (declare-before-use).
    pub items: Vec<Item<'src>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_span_is_accessible_for_all_variants() {
        let s = Span::new(1, 2);
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Int(1, s)),
            Box::new(Expr::Var("x", s)),
            Span::new(1, 5),
        );
        assert_eq!(e.span(), Span::new(1, 5));
        assert_eq!(
            Expr::Unary(UnOp::Neg, Box::new(Expr::Int(1, s)), s).span(),
            s
        );
    }
}
