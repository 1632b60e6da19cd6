//! Abstract syntax tree for MiniPy.

/// The builtin functions, interned first: `Sym(i)` names `BUILTINS[i]`
/// in every module, so a call site tells a builtin by one compare.
pub const BUILTINS: &[&str] = &[
    "print", "len", "range", "str", "int", "float", "abs", "min", "max", "sum", "sorted", "list",
    "id", "type",
];

/// An interned identifier: one number per distinct name in a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sym(pub u32);

impl Sym {
    /// The builtin function this symbol names, if any.
    pub fn builtin(self) -> Option<&'static str> {
        BUILTINS.get(self.0 as usize).copied()
    }
}

/// A name as the parser interned it: its symbol, for the interpreter's
/// lookups, and its text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ident {
    /// The module-wide symbol.
    pub sym: Sym,
    /// The name.
    pub name: String,
}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        self.name == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.name == *other
    }
}

/// A parsed module (top-level statements).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Top-level statements, including `def`s and `class`es.
    pub body: Vec<Stmt>,
    /// The module's names but the [`BUILTINS`], by symbol: `names[i]`
    /// is `Sym(BUILTINS.len() + i)`'s.
    pub names: Vec<String>,
}

/// A statement with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// 1-based line.
    pub line: u32,
    /// The statement's form.
    pub kind: StmtKind,
}

/// Statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// An expression evaluated for effect.
    Expr(Expr),
    /// `targets = value` (single target or tuple of names).
    Assign {
        /// Assignment target.
        target: Target,
        /// Right-hand side.
        value: Expr,
    },
    /// `target op= value`.
    AugAssign {
        /// Assignment target (no tuple targets).
        target: Target,
        /// `+`, `-`, `*`, `/`, `//`, `%`.
        op: BinOp,
        /// Right-hand side.
        value: Expr,
    },
    /// `if`/`elif`/`else` chain; `elif`s are nested `If`s in `orelse`.
    If {
        /// Condition.
        test: Expr,
        /// True branch.
        body: Vec<Stmt>,
        /// Else branch (may hold a single nested `If` for `elif`).
        orelse: Vec<Stmt>,
    },
    /// `while test:`
    While {
        /// Condition.
        test: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for target in iter:`
    For {
        /// Loop variable(s).
        target: Target,
        /// Iterable expression.
        iter: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `def name(params):`
    Def {
        /// Function name.
        name: Ident,
        /// Parameter names.
        params: Vec<Ident>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `class name:` with method definitions.
    Class {
        /// Class name.
        name: Ident,
        /// Methods (each a `Def`).
        methods: Vec<Stmt>,
    },
    /// `return value?`
    Return(Option<Expr>),
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `pass`
    Pass,
    /// `global name, ...`
    Global(Vec<Ident>),
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A plain name.
    Name(Ident),
    /// Subscript `base[index]`.
    Index {
        /// Container expression.
        base: Expr,
        /// Index expression.
        index: Expr,
    },
    /// Attribute `base.attr`.
    Attr {
        /// Object expression.
        base: Expr,
        /// Attribute name.
        attr: String,
    },
    /// Tuple of names `a, b = ...`.
    Tuple(Vec<Target>),
}

impl Target {
    /// Whether storing to the target may run user code: its base or
    /// index expressions hold a call.
    pub fn may_call(&self) -> bool {
        match self {
            Target::Name(_) => false,
            Target::Index { base, index } => base.may_call || index.may_call,
            Target::Attr { base, .. } => base.may_call,
            Target::Tuple(targets) => targets.iter().any(Target::may_call),
        }
    }
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// 1-based line.
    pub line: u32,
    /// Form.
    pub kind: ExprKind,
    /// Whether evaluating the expression may run user code: it holds a
    /// call. Only user code starts statements, and so collections; a
    /// value held across an expression without calls needs no root.
    pub may_call: bool,
    /// Nodes on the longest path down from this one, the node included
    /// (saturating): how deep a recursive pass over it nests.
    pub(crate) height: u16,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, line: u32) -> Self {
        let (may_call, tallest) = kind.operands();
        Expr {
            kind,
            line,
            may_call,
            height: tallest.saturating_add(1),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    In,
    NotIn,
}

impl BinOp {
    /// Whether the operator yields a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::In
                | BinOp::NotIn
        )
    }
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `True`/`False`.
    Bool(bool),
    /// `None`.
    None,
    /// Name reference.
    Name(Ident),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `and`/`or` (short-circuit, Python value semantics).
    Bool2 {
        /// true = `and`.
        is_and: bool,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `not e`.
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Call `func(args...)`; `func` is any expression (name, attribute).
    Call {
        /// Callee expression.
        func: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Subscript `base[index]`.
    Index {
        /// Container.
        base: Box<Expr>,
        /// Index.
        index: Box<Expr>,
    },
    /// Slice `base[lo:hi]` (either bound optional).
    Slice {
        /// Container.
        base: Box<Expr>,
        /// Lower bound (default 0).
        lo: Option<Box<Expr>>,
        /// Upper bound (default `len`).
        hi: Option<Box<Expr>>,
    },
    /// Attribute access `base.attr`.
    Attr {
        /// Object.
        base: Box<Expr>,
        /// Attribute name.
        attr: String,
    },
    /// List display `[a, b, c]`.
    List(Vec<Expr>),
    /// Tuple display `(a, b)` or bare `a, b`.
    Tuple(Vec<Expr>),
    /// Dict display `{k: v, ...}`.
    Dict(Vec<(Expr, Expr)>),
}

impl ExprKind {
    /// Whether evaluating the node may run user code (see
    /// [`Expr::may_call`]), and the height of its tallest operand (0 for
    /// a leaf).
    fn operands(&self) -> (bool, u16) {
        let (mut may_call, mut tallest) = (matches!(self, ExprKind::Call { .. }), 0);
        let mut see = |e: &Expr| {
            may_call |= e.may_call;
            tallest = tallest.max(e.height);
        };
        match self {
            ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::None
            | ExprKind::Name(_) => {}
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Bool2 { lhs, rhs, .. } => {
                see(lhs);
                see(rhs);
            }
            ExprKind::Not(inner) | ExprKind::Neg(inner) | ExprKind::Attr { base: inner, .. } => {
                see(inner)
            }
            ExprKind::Call { func, args } => {
                see(func);
                args.iter().for_each(&mut see);
            }
            ExprKind::Index { base, index } => {
                see(base);
                see(index);
            }
            ExprKind::Slice { base, lo, hi } => {
                see(base);
                [lo, hi].into_iter().flatten().for_each(|e| see(e));
            }
            ExprKind::List(items) | ExprKind::Tuple(items) => items.iter().for_each(&mut see),
            ExprKind::Dict(entries) => entries.iter().for_each(|(k, v)| {
                see(k);
                see(v);
            }),
        }
        (may_call, tallest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_classification() {
        assert!(BinOp::In.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Pow.is_comparison());
    }
}
