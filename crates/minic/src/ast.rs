//! Abstract syntax tree for MiniC.
//!
//! Every node carries the 1-based source line it starts on, which is the
//! granularity the trackers step at.

use crate::types::Type;

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Struct definitions in source order.
    pub structs: Vec<StructDef>,
    /// Global variable definitions in source order.
    pub globals: Vec<GlobalDef>,
    /// Function definitions in source order.
    pub functions: Vec<FunctionDef>,
}

/// `struct name { fields };`
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// The struct tag.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<(String, Type)>,
    /// Line of the `struct` keyword.
    pub line: u32,
}

/// A file-scope variable with an optional constant initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Constant initializer (checked by the typechecker).
    pub init: Option<Initializer>,
    /// Declaration line.
    pub line: u32,
}

/// An initializer: a single expression or a brace-enclosed list.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`
    Expr(Expr),
    /// `= { i1, i2, ... }` for arrays and structs.
    List(Vec<Initializer>),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters in declaration order.
    pub params: Vec<(String, Type)>,
    /// Body block.
    pub body: Vec<Stmt>,
    /// Line of the function header.
    pub line: u32,
    /// Line of the closing brace (used for "pause before exit" displays).
    pub end_line: u32,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration `ty name (= init)?;`
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Initializer>,
        /// Declaration line.
        line: u32,
    },
    /// Expression statement `expr;`
    Expr(Expr),
    /// `if (cond) then else?`
    If {
        /// Controlling expression.
        cond: Expr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Optional else branch.
        else_branch: Option<Vec<Stmt>>,
        /// Line of the `if`.
        line: u32,
    },
    /// `while (cond) body`
    While {
        /// Controlling expression.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Line of the `while`.
        line: u32,
    },
    /// `do body while (cond);` — the body runs at least once.
    DoWhile {
        /// Loop body.
        body: Vec<Stmt>,
        /// Controlling expression (evaluated after the body).
        cond: Expr,
        /// Line of the `do`.
        line: u32,
    },
    /// `switch (scrutinee) { case k: ... default: ... }` with C fallthrough.
    Switch {
        /// The switched-on expression (integer).
        scrutinee: Expr,
        /// Arms in source order: constant labels (None = `default`) and
        /// their statements (fallthrough runs into the next arm).
        arms: Vec<(Option<i64>, Vec<Stmt>)>,
        /// Line of the `switch`.
        line: u32,
    },
    /// `for (init; cond; step) body` — each part optional.
    For {
        /// Initialization: a declaration or expression statement.
        init: Option<Box<Stmt>>,
        /// Loop condition.
        cond: Option<Expr>,
        /// Per-iteration step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Line of the `for`.
        line: u32,
    },
    /// `return expr?;`
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Line of the `return`.
        line: u32,
    },
    /// `break;`
    Break {
        /// Line of the `break`.
        line: u32,
    },
    /// `continue;`
    Continue {
        /// Line of the `continue`.
        line: u32,
    },
    /// A braced block introducing a scope.
    Block(Vec<Stmt>),
}

impl Stmt {
    /// The line the statement starts on (first statement line for blocks).
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Decl { line, .. }
            | Stmt::If { line, .. }
            | Stmt::While { line, .. }
            | Stmt::DoWhile { line, .. }
            | Stmt::Switch { line, .. }
            | Stmt::For { line, .. }
            | Stmt::Return { line, .. }
            | Stmt::Break { line }
            | Stmt::Continue { line } => *line,
            Stmt::Expr(e) => e.line,
            Stmt::Block(stmts) => stmts.first().map(Stmt::line).unwrap_or(0),
        }
    }
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's form.
    pub kind: ExprKind,
    /// 1-based line.
    pub line: u32,
    /// Nodes on the longest path down from this one, the node included
    /// (saturating): how deep a recursive pass over it nests.
    pub(crate) height: u16,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, line: u32) -> Self {
        let height = kind.tallest_operand().saturating_add(1);
        Expr { kind, line, height }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// Whether the operator is a comparison (result type `int`).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Whether the operator is `&&` or `||` (short-circuiting).
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
    /// Bitwise not `~e`.
    BitNot,
}

/// Compound-assignment operators (`a op= b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// Plain `=`.
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Char literal.
    CharLit(char),
    /// String literal (type `char*`).
    StrLit(String),
    /// `NULL`.
    Null,
    /// Variable reference.
    Var(String),
    /// `lhs op= rhs` where lhs is an lvalue.
    Assign {
        /// The operator (plain or compound).
        op: AssignOp,
        /// Target lvalue.
        target: Box<Expr>,
        /// Source expression.
        value: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Pre/post increment/decrement.
    IncDec {
        /// `+1` or `-1`.
        delta: i64,
        /// Whether the operator is prefix (`++x`) or postfix (`x++`).
        prefix: bool,
        /// Target lvalue.
        target: Box<Expr>,
    },
    /// `cond ? then : else`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
    /// Function call `callee(args...)`. The callee is a plain name in MiniC.
    Call {
        /// Called function's name.
        callee: String,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// Array indexing `base[index]`.
    Index {
        /// Array or pointer expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Member access `base.field`.
    Member {
        /// Struct expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
    },
    /// Member access through pointer `base->field`.
    Arrow {
        /// Pointer-to-struct expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
    },
    /// Dereference `*e`.
    Deref(Box<Expr>),
    /// Address-of `&e`.
    AddrOf(Box<Expr>),
    /// `sizeof(type)` or `sizeof expr`.
    SizeofType(Type),
    /// `sizeof expr`
    SizeofExpr(Box<Expr>),
    /// Cast `(type)e`.
    Cast {
        /// Destination type.
        ty: Type,
        /// Source expression.
        expr: Box<Expr>,
    },
}

impl ExprKind {
    /// The height of the tallest operand (0 for a leaf).
    fn tallest_operand(&self) -> u16 {
        match self {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Null
            | ExprKind::Var(_)
            | ExprKind::SizeofType(_) => 0,
            ExprKind::Assign {
                target: a,
                value: b,
                ..
            }
            | ExprKind::Binary { lhs: a, rhs: b, .. }
            | ExprKind::Index { base: a, index: b } => a.height.max(b.height),
            ExprKind::Unary { operand: e, .. }
            | ExprKind::IncDec { target: e, .. }
            | ExprKind::Member { base: e, .. }
            | ExprKind::Arrow { base: e, .. }
            | ExprKind::Deref(e)
            | ExprKind::AddrOf(e)
            | ExprKind::SizeofExpr(e)
            | ExprKind::Cast { expr: e, .. } => e.height,
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => cond.height.max(then_expr.height).max(else_expr.height),
            ExprKind::Call { args, .. } => args.iter().map(|a| a.height).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stmt_line_recursion() {
        let e = Expr::new(ExprKind::IntLit(1), 7);
        assert_eq!(Stmt::Expr(e.clone()).line(), 7);
        assert_eq!(Stmt::Block(vec![Stmt::Expr(e)]).line(), 7);
        assert_eq!(Stmt::Block(vec![]).line(), 0);
        assert_eq!(Stmt::Break { line: 3 }.line(), 3);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }
}
