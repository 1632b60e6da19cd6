//! Recursive-descent parser for MiniC.
//!
//! Expressions use precedence climbing with the usual C precedence table.
//! The grammar is LL(2): the only lookahead subtlety is distinguishing a cast
//! `(int)x` from a parenthesized expression `(x)`, resolved by peeking for a
//! type keyword after `(`.

use crate::ast::*;
use crate::lexer::{Keyword, Punct, Token, TokenKind};
use crate::types::Type;
use crate::Error;

/// Deepest nesting the parser accepts, in levels: a statement, an
/// expression, a unary expression, a `?:` else arm and an initializer
/// list each open one, and an expression node counts its height, so
/// each operator of a chain (`a + b + c`, `a[i][j]`, `p->n->n`) adds
/// one. A type takes as many pointer stars, and as many array
/// dimensions. Deeper programs get [`Error::TooDeep`] before a recursive
/// pass (parser, type checker, code generation, drop) can overflow a
/// native stack. Measured in a debug build on a 2 MiB thread, the
/// costliest chain per level, subscripts of an array with as many
/// dimensions, compiles and runs to 77 levels: the bound leaves a
/// margin of two.
pub const MAX_NESTING: u32 = 40;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parser levels open (see [`MAX_NESTING`]).
    depth: u32,
}

/// Parses a token stream into a [`TranslationUnit`].
///
/// # Errors
///
/// Returns [`Error::Parse`] on the first syntax error.
///
/// # Examples
///
/// ```
/// let tokens = minic::lexer::lex("int main() { return 0; }")?;
/// let unit = minic::parser::parse(tokens)?;
/// assert_eq!(unit.functions.len(), 1);
/// # Ok::<(), minic::Error>(())
/// ```
pub fn parse(tokens: Vec<Token>) -> Result<TranslationUnit, Error> {
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    parser.translation_unit()
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        self.tokens
            .get(self.pos + offset)
            .map(|t| &t.kind)
            .unwrap_or(&TokenKind::Eof)
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn prev_line(&self) -> u32 {
        self.tokens[self.pos.saturating_sub(1)].line
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    /// Runs `parse` one level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T, Error>) -> Result<T, Error> {
        if self.depth == MAX_NESTING {
            return Err(Error::TooDeep { line: self.line() });
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Builds an expression node with operands, refusing one whose
    /// deepest operand would sit past [`MAX_NESTING`] levels. The loops
    /// that build left-leaning chains (`a + b + c`, `a[i][j]`, `s.f.g`)
    /// add a tree level per operator without a nested call, so the tree,
    /// not the call depth, is what this bounds.
    fn node(&self, kind: ExprKind, line: u32) -> Result<Expr, Error> {
        let node = Expr::new(kind, line);
        if self.depth + u32::from(node.height) - 1 > MAX_NESTING {
            return Err(Error::TooDeep { line });
        }
        Ok(node)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), Error> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, Error> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword(
                Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Char
                    | Keyword::Void
                    | Keyword::Struct
            )
        )
    }

    /// Parses a base type (no pointer stars): `int`, `struct s`, ...
    fn base_type(&mut self) -> Result<Type, Error> {
        let ty = match self.bump() {
            TokenKind::Keyword(Keyword::Int) => Type::Int,
            TokenKind::Keyword(Keyword::Long) => Type::Long,
            TokenKind::Keyword(Keyword::Float) => Type::Float,
            TokenKind::Keyword(Keyword::Double) => Type::Double,
            TokenKind::Keyword(Keyword::Char) => Type::Char,
            TokenKind::Keyword(Keyword::Void) => Type::Void,
            TokenKind::Keyword(Keyword::Struct) => {
                let name = self.expect_ident()?;
                Type::Struct(name)
            }
            other => return Err(self.error(format!("expected type, found {other}"))),
        };
        Ok(ty)
    }

    /// Parses a full type: base type plus pointer stars.
    fn full_type(&mut self) -> Result<Type, Error> {
        let mut ty = self.base_type()?;
        let mut stars = 0;
        while self.eat_punct(Punct::Star) {
            stars += 1;
            if stars > MAX_NESTING {
                return Err(Error::TooDeep { line: self.line() });
            }
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    fn translation_unit(&mut self) -> Result<TranslationUnit, Error> {
        let mut unit = TranslationUnit::default();
        while self.peek() != &TokenKind::Eof {
            // struct definition: `struct name { ... };`
            if self.peek() == &TokenKind::Keyword(Keyword::Struct)
                && matches!(self.peek_at(1), TokenKind::Ident(_))
                && self.peek_at(2) == &TokenKind::Punct(Punct::LBrace)
            {
                unit.structs.push(self.struct_def()?);
                continue;
            }
            if !self.is_type_start() {
                return Err(self.error(format!(
                    "expected declaration or function, found {}",
                    self.peek()
                )));
            }
            let line = self.line();
            let ty = self.full_type()?;
            let name = self.expect_ident()?;
            if self.peek() == &TokenKind::Punct(Punct::LParen) {
                unit.functions.push(self.function_def(ty, name, line)?);
            } else {
                // Global variable (possibly an array).
                let ty = self.array_suffix(ty)?;
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.initializer()?)
                } else {
                    None
                };
                self.expect_punct(Punct::Semi)?;
                unit.globals.push(GlobalDef {
                    name,
                    ty,
                    init,
                    line,
                });
            }
        }
        Ok(unit)
    }

    fn struct_def(&mut self) -> Result<StructDef, Error> {
        let line = self.line();
        self.bump(); // struct
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            let fty = self.full_type()?;
            let fname = self.expect_ident()?;
            let fty = self.array_suffix(fty)?;
            self.expect_punct(Punct::Semi)?;
            fields.push((fname, fty));
        }
        self.expect_punct(Punct::Semi)?;
        Ok(StructDef { name, fields, line })
    }

    /// Parses `[N]` suffixes after a declarator name.
    fn array_suffix(&mut self, ty: Type) -> Result<Type, Error> {
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            let n = match self.bump() {
                TokenKind::IntLit(n) if n >= 0 => n as usize,
                other => {
                    return Err(self.error(format!(
                        "array dimension must be a non-negative integer literal, found {other}"
                    )))
                }
            };
            self.expect_punct(Punct::RBracket)?;
            if dims.len() as u32 == MAX_NESTING {
                return Err(Error::TooDeep { line: self.line() });
            }
            dims.push(n);
        }
        let mut out = ty;
        for n in dims.into_iter().rev() {
            out = Type::Array(Box::new(out), n);
        }
        Ok(out)
    }

    fn function_def(&mut self, ret: Type, name: String, line: u32) -> Result<FunctionDef, Error> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            // Accept `void` as an empty parameter list.
            if self.peek() == &TokenKind::Keyword(Keyword::Void)
                && self.peek_at(1) == &TokenKind::Punct(Punct::RParen)
            {
                self.bump();
                self.bump();
            } else {
                loop {
                    let pty = self.full_type()?;
                    let pname = self.expect_ident()?;
                    let pty = self.array_suffix(pty)?.decay();
                    params.push((pname, pty));
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::RParen)?;
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let body = self.block_body()?;
        let end_line = self.prev_line();
        Ok(FunctionDef {
            name,
            ret,
            params,
            body,
            line,
            end_line,
        })
    }

    /// Parses statements until the closing `}` (which is consumed).
    fn block_body(&mut self) -> Result<Vec<Stmt>, Error> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek() == &TokenKind::Eof {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt, Error> {
        self.nested(Self::statement_inner)
    }

    fn statement_inner(&mut self) -> Result<Stmt, Error> {
        let line = self.line();
        match self.peek() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?))
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let then_branch = self.branch_body()?;
                let else_branch = if self.eat_keyword(Keyword::Else) {
                    Some(self.branch_body()?)
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    line,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.branch_body()?;
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = self.branch_body()?;
                if !self.eat_keyword(Keyword::While) {
                    return Err(self.error("expected `while` after do-body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::DoWhile { body, cond, line })
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let scrutinee = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::LBrace)?;
                let mut arms: Vec<(Option<i64>, Vec<Stmt>)> = Vec::new();
                while !self.eat_punct(Punct::RBrace) {
                    let label = if self.eat_keyword(Keyword::Case) {
                        Some(self.case_label()?)
                    } else if self.eat_keyword(Keyword::Default) {
                        None
                    } else {
                        return Err(self.error(format!(
                            "expected `case`, `default` or `}}` in switch, found {}",
                            self.peek()
                        )));
                    };
                    self.expect_punct(Punct::Colon)?;
                    let mut body = Vec::new();
                    loop {
                        match self.peek() {
                            TokenKind::Keyword(Keyword::Case | Keyword::Default)
                            | TokenKind::Punct(Punct::RBrace) => break,
                            TokenKind::Eof => return Err(self.error("unterminated switch")),
                            _ => body.push(self.statement()?),
                        }
                    }
                    arms.push((label, body));
                }
                Ok(Stmt::Switch {
                    scrutinee,
                    arms,
                    line,
                })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semi) {
                    None
                } else if self.is_type_start() {
                    Some(Box::new(self.declaration()?))
                } else {
                    let e = self.expression()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if self.peek() == &TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = self.branch_body()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    line,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break { line })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue { line })
            }
            _ if self.is_type_start() => self.declaration(),
            _ => {
                let e = self.expression()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Parses a `case` label: an integer or char literal, optionally
    /// negated.
    fn case_label(&mut self) -> Result<i64, Error> {
        let negate = self.eat_punct(Punct::Minus);
        let v = match self.bump() {
            TokenKind::IntLit(v) => v,
            TokenKind::CharLit(c) => c as i64,
            other => {
                return Err(Error::Parse {
                    line: self.prev_line(),
                    message: format!("case label must be a constant, found {other}"),
                })
            }
        };
        Ok(if negate { -v } else { v })
    }

    /// Parses the body of an `if`/`while`/`for`: either a braced block or a
    /// single statement.
    fn branch_body(&mut self) -> Result<Vec<Stmt>, Error> {
        if self.eat_punct(Punct::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    /// Parses a local declaration statement (consumes the `;`).
    fn declaration(&mut self) -> Result<Stmt, Error> {
        let line = self.line();
        let ty = self.full_type()?;
        let name = self.expect_ident()?;
        let ty = self.array_suffix(ty)?;
        let init = if self.eat_punct(Punct::Assign) {
            Some(self.initializer()?)
        } else {
            None
        };
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Decl {
            name,
            ty,
            init,
            line,
        })
    }

    fn initializer(&mut self) -> Result<Initializer, Error> {
        if self.eat_punct(Punct::LBrace) {
            let mut items = Vec::new();
            if !self.eat_punct(Punct::RBrace) {
                loop {
                    items.push(self.nested(Self::initializer)?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                    // Allow a trailing comma before `}`.
                    if self.peek() == &TokenKind::Punct(Punct::RBrace) {
                        break;
                    }
                }
                self.expect_punct(Punct::RBrace)?;
            }
            Ok(Initializer::List(items))
        } else {
            Ok(Initializer::Expr(self.expression()?))
        }
    }

    // ---- expressions -----------------------------------------------------

    /// Entry point: assignment expression (lowest precedence incl. ternary).
    fn expression(&mut self) -> Result<Expr, Error> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> Result<Expr, Error> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => AssignOp::Assign,
            TokenKind::Punct(Punct::PlusAssign) => AssignOp::Add,
            TokenKind::Punct(Punct::MinusAssign) => AssignOp::Sub,
            TokenKind::Punct(Punct::StarAssign) => AssignOp::Mul,
            TokenKind::Punct(Punct::SlashAssign) => AssignOp::Div,
            TokenKind::Punct(Punct::PercentAssign) => AssignOp::Rem,
            _ => return Ok(lhs),
        };
        let line = self.line();
        self.bump();
        let value = self.expression()?;
        self.node(
            ExprKind::Assign {
                op,
                target: Box::new(lhs),
                value: Box::new(value),
            },
            line,
        )
    }

    fn ternary(&mut self) -> Result<Expr, Error> {
        let cond = self.binary(0)?;
        if self.eat_punct(Punct::Question) {
            let line = cond.line;
            let then_expr = self.expression()?;
            self.expect_punct(Punct::Colon)?;
            let else_expr = self.nested(Self::ternary)?;
            self.node(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_expr: Box::new(then_expr),
                    else_expr: Box::new(else_expr),
                },
                line,
            )
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek() {
            TokenKind::Punct(Punct::OrOr) => (BinOp::Or, 1),
            TokenKind::Punct(Punct::AndAnd) => (BinOp::And, 2),
            TokenKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            TokenKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            TokenKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            TokenKind::Punct(Punct::Eq) => (BinOp::Eq, 6),
            TokenKind::Punct(Punct::Ne) => (BinOp::Ne, 6),
            TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
            TokenKind::Punct(Punct::Le) => (BinOp::Le, 7),
            TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
            TokenKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
            TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
            TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
            TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        Some(op)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, Error> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = self.node(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            )?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Error> {
        self.nested(Self::unary_inner)
    }

    fn unary_inner(&mut self) -> Result<Expr, Error> {
        let line = self.line();
        match self.peek() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump();
                let operand = self.unary()?;
                self.node(
                    ExprKind::Unary {
                        op: UnOp::Neg,
                        operand: Box::new(operand),
                    },
                    line,
                )
            }
            TokenKind::Punct(Punct::Not) => {
                self.bump();
                let operand = self.unary()?;
                self.node(
                    ExprKind::Unary {
                        op: UnOp::Not,
                        operand: Box::new(operand),
                    },
                    line,
                )
            }
            TokenKind::Punct(Punct::Tilde) => {
                self.bump();
                let operand = self.unary()?;
                self.node(
                    ExprKind::Unary {
                        op: UnOp::BitNot,
                        operand: Box::new(operand),
                    },
                    line,
                )
            }
            TokenKind::Punct(Punct::Star) => {
                self.bump();
                let operand = self.unary()?;
                self.node(ExprKind::Deref(Box::new(operand)), line)
            }
            TokenKind::Punct(Punct::Amp) => {
                self.bump();
                let operand = self.unary()?;
                self.node(ExprKind::AddrOf(Box::new(operand)), line)
            }
            TokenKind::Punct(Punct::PlusPlus) => {
                self.bump();
                let target = self.unary()?;
                self.node(
                    ExprKind::IncDec {
                        delta: 1,
                        prefix: true,
                        target: Box::new(target),
                    },
                    line,
                )
            }
            TokenKind::Punct(Punct::MinusMinus) => {
                self.bump();
                let target = self.unary()?;
                self.node(
                    ExprKind::IncDec {
                        delta: -1,
                        prefix: true,
                        target: Box::new(target),
                    },
                    line,
                )
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                if self.peek() == &TokenKind::Punct(Punct::LParen) && self.type_follows(1) {
                    self.bump(); // (
                    let ty = self.full_type()?;
                    self.expect_punct(Punct::RParen)?;
                    Ok(Expr::new(ExprKind::SizeofType(ty), line))
                } else {
                    let e = self.unary()?;
                    self.node(ExprKind::SizeofExpr(Box::new(e)), line)
                }
            }
            // Cast: `(` type `)` unary
            TokenKind::Punct(Punct::LParen) if self.type_follows(1) => {
                self.bump(); // (
                let ty = self.full_type()?;
                self.expect_punct(Punct::RParen)?;
                let e = self.unary()?;
                self.node(
                    ExprKind::Cast {
                        ty,
                        expr: Box::new(e),
                    },
                    line,
                )
            }
            _ => self.postfix(),
        }
    }

    /// Whether a type starts at lookahead `offset` (used for casts/sizeof).
    fn type_follows(&self, offset: usize) -> bool {
        matches!(
            self.peek_at(offset),
            TokenKind::Keyword(
                Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Char
                    | Keyword::Void
                    | Keyword::Struct
            )
        )
    }

    fn postfix(&mut self) -> Result<Expr, Error> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            match self.peek() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.expression()?;
                    self.expect_punct(Punct::RBracket)?;
                    e = self.node(
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        line,
                    )?;
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = self.node(
                        ExprKind::Member {
                            base: Box::new(e),
                            field,
                        },
                        line,
                    )?;
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = self.node(
                        ExprKind::Arrow {
                            base: Box::new(e),
                            field,
                        },
                        line,
                    )?;
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    e = self.node(
                        ExprKind::IncDec {
                            delta: 1,
                            prefix: false,
                            target: Box::new(e),
                        },
                        line,
                    )?;
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    e = self.node(
                        ExprKind::IncDec {
                            delta: -1,
                            prefix: false,
                            target: Box::new(e),
                        },
                        line,
                    )?;
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, Error> {
        let line = self.line();
        match self.bump() {
            TokenKind::IntLit(v) => Ok(Expr::new(ExprKind::IntLit(v), line)),
            TokenKind::FloatLit(v) => Ok(Expr::new(ExprKind::FloatLit(v), line)),
            TokenKind::CharLit(c) => Ok(Expr::new(ExprKind::CharLit(c), line)),
            TokenKind::StrLit(s) => Ok(Expr::new(ExprKind::StrLit(s), line)),
            TokenKind::Keyword(Keyword::Null) => Ok(Expr::new(ExprKind::Null, line)),
            TokenKind::Ident(name) => {
                if self.peek() == &TokenKind::Punct(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.expression()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    self.node(ExprKind::Call { callee: name, args }, line)
                } else {
                    Ok(Expr::new(ExprKind::Var(name), line))
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                let e = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(Error::Parse {
                line,
                message: format!("expected expression, found {other}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> TranslationUnit {
        parse(lex(src).unwrap()).unwrap()
    }

    fn parse_expr(src: &str) -> Expr {
        let unit = parse_src(&format!("int main() {{ {src}; }}"));
        match &unit.functions[0].body[0] {
            Stmt::Expr(e) => e.clone(),
            other => panic!("expected expression statement, got {other:?}"),
        }
    }

    #[test]
    fn parses_function_with_params() {
        let unit = parse_src("int add(int a, int b) { return a + b; }");
        let f = &unit.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
    }

    #[test]
    fn parses_void_param_list() {
        let unit = parse_src("int main(void) { return 0; }");
        assert!(unit.functions[0].params.is_empty());
    }

    #[test]
    fn array_params_decay() {
        let unit = parse_src("int f(int a[4]) { return 0; }");
        assert_eq!(unit.functions[0].params[0].1, Type::Int.ptr_to());
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3");
        match e.kind {
            ExprKind::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => match rhs.kind {
                ExprKind::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("rhs should be mul, got {other:?}"),
            },
            other => panic!("expected add at root, got {other:?}"),
        }
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = parse_expr("a = b = 1");
        match e.kind {
            ExprKind::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::Assign { .. }));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_cast_vs_paren() {
        let cast = parse_expr("(double)3");
        assert!(matches!(cast.kind, ExprKind::Cast { .. }));
        let paren = parse_expr("(3)");
        assert!(matches!(paren.kind, ExprKind::IntLit(3)));
    }

    #[test]
    fn parses_sizeof_both_forms() {
        assert!(matches!(
            parse_expr("sizeof(int)").kind,
            ExprKind::SizeofType(Type::Int)
        ));
        assert!(matches!(
            parse_expr("sizeof x").kind,
            ExprKind::SizeofExpr(_)
        ));
        assert!(matches!(
            parse_expr("sizeof(x)").kind,
            ExprKind::SizeofExpr(_)
        ));
    }

    #[test]
    fn parses_pointer_and_member_chains() {
        let e = parse_expr("p->next->value");
        assert!(matches!(e.kind, ExprKind::Arrow { .. }));
        let e = parse_expr("(*p).x[2]");
        assert!(matches!(e.kind, ExprKind::Index { .. }));
    }

    #[test]
    fn parses_inc_dec() {
        assert!(matches!(
            parse_expr("i++").kind,
            ExprKind::IncDec {
                prefix: false,
                delta: 1,
                ..
            }
        ));
        assert!(matches!(
            parse_expr("--i").kind,
            ExprKind::IncDec {
                prefix: true,
                delta: -1,
                ..
            }
        ));
    }

    #[test]
    fn parses_for_with_declaration() {
        let unit = parse_src("int main() { for (int i = 0; i < 3; i++) { } return 0; }");
        match &unit.functions[0].body[0] {
            Stmt::For {
                init, cond, step, ..
            } => {
                assert!(matches!(init.as_deref(), Some(Stmt::Decl { .. })));
                assert!(cond.is_some());
                assert!(step.is_some());
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_unbraced_bodies() {
        let unit = parse_src("int main() { if (1) return 1; else return 2; }");
        match &unit.functions[0].body[0] {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(then_branch.len(), 1);
                assert_eq!(else_branch.as_ref().unwrap().len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_struct_def_and_globals() {
        let unit = parse_src(
            "struct point { int x; int y; };\n\
             struct point origin;\n\
             int table[4] = {1, 2, 3, 4};\n\
             int main() { return 0; }",
        );
        assert_eq!(unit.structs.len(), 1);
        assert_eq!(unit.structs[0].fields.len(), 2);
        assert_eq!(unit.globals.len(), 2);
        assert_eq!(unit.globals[0].ty, Type::Struct("point".into()));
        assert_eq!(unit.globals[1].ty, Type::Array(Box::new(Type::Int), 4));
        assert!(matches!(unit.globals[1].init, Some(Initializer::List(_))));
    }

    #[test]
    fn parses_ternary() {
        let e = parse_expr("a ? 1 : b ? 2 : 3");
        match e.kind {
            ExprKind::Ternary { else_expr, .. } => {
                assert!(matches!(else_expr.kind, ExprKind::Ternary { .. }));
            }
            other => panic!("expected ternary, got {other:?}"),
        }
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse(lex("int main() { return }").unwrap()).is_err());
        assert!(parse(lex("int main() {").unwrap()).is_err());
        assert!(parse(lex("42").unwrap()).is_err());
        assert!(parse(lex("int a[x];").unwrap()).is_err());
    }

    #[test]
    fn multidim_arrays() {
        let unit = parse_src("int grid[2][3]; int main() { return 0; }");
        assert_eq!(
            unit.globals[0].ty,
            Type::Array(Box::new(Type::Array(Box::new(Type::Int), 3)), 2)
        );
    }
}
