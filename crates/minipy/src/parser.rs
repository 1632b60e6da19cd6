//! Recursive-descent parser for MiniPy.

use crate::ast::*;
use crate::lexer::{lex, Kw, OpTok, Tok, Token};
use crate::Error;
use std::collections::HashMap;

/// Parses MiniPy source into a [`Module`].
///
/// # Errors
///
/// Returns the first lexical or syntax error.
///
/// # Examples
///
/// ```
/// let m = minipy::parser::parse("def f(x):\n    return x + 1\nprint(f(2))")?;
/// assert_eq!(m.body.len(), 2);
/// # Ok::<(), minipy::Error>(())
/// ```
pub fn parse(source: &str) -> Result<Module, Error> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        symbols: HashMap::new(),
        names: Vec::new(),
        depth: 0,
    };
    let body = p.statements_until_eof()?;
    Ok(Module {
        body,
        names: p.names,
    })
}

/// Deepest nesting the parser accepts, in levels: a statement in a
/// block, an `elif`, an expression (parenthesized, an argument, a
/// display item, a subscript) and a `not`, `-` or `**` operand each open
/// one, and an expression node counts its height, so each operator of a
/// chain (`a + b + c`, `x and y and z`, `a[i][j]`, `s.f.g`) adds one.
/// Deeper programs get [`Error::TooDeep`] before a recursive pass
/// (parser, evaluation, drop) can overflow a native stack. Measured in a
/// debug build on a 2 MiB thread, nested parentheses, the costliest
/// construct per level, parse and run to 127 levels: the bound leaves a
/// margin of two.
pub const MAX_NESTING: u32 = 60;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Every name seen so far, with its symbol.
    symbols: HashMap<String, Sym>,
    /// The names but the builtins, by symbol ([`Module::names`]).
    names: Vec<String>,
    /// Parser levels open (see [`MAX_NESTING`]).
    depth: u32,
}

impl Parser {
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
    /// that build left-leaning chains (`a + b + c`, `a[i][j]`, `s.f.g`,
    /// `x and y and z`) add a tree level per operator without a nested
    /// call, so the tree, not the call depth, is what this bounds.
    fn node(&self, kind: ExprKind, line: u32) -> Result<Expr, Error> {
        let node = Expr::new(kind, line);
        if self.depth + u32::from(node.height) - 1 > MAX_NESTING {
            return Err(Error::TooDeep { line });
        }
        Ok(node)
    }

    /// The identifier for `name`: the same symbol for every use of the
    /// name.
    fn intern(&mut self, name: String) -> Ident {
        let sym = match self.symbols.get(&name) {
            Some(&sym) => sym,
            None => {
                let index = match BUILTINS.iter().position(|b| *b == name) {
                    Some(i) => i,
                    None => BUILTINS.len() + self.names.len(),
                };
                let sym = Sym(u32::try_from(index).expect("fewer than 2^32 names"));
                if sym.builtin().is_none() {
                    self.names.push(name.clone());
                }
                self.symbols.insert(name.clone(), sym);
                sym
            }
        };
        Ident { sym, name }
    }

    /// An identifier token, interned.
    fn expect_name(&mut self) -> Result<Ident, Error> {
        let name = self.expect_ident()?;
        Ok(self.intern(name))
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        // A consumed token is never read again, so its text moves out
        // instead of being copied; the last token (`Eof`) stays.
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].kind, Tok::Newline)
        } else {
            self.tokens[self.pos].kind.clone()
        }
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn eat_op(&mut self, op: OpTok) -> bool {
        if self.peek() == &Tok::Op(op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: OpTok) -> Result<(), Error> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{op}`, found {}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek() == &Tok::Kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_newline(&mut self) -> Result<(), Error> {
        match self.bump() {
            Tok::Newline | Tok::Eof => Ok(()),
            other => Err(Error::Parse {
                line: self.tokens[self.pos.saturating_sub(1)].line,
                message: format!("expected end of line, found {other}"),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, Error> {
        if !matches!(self.peek(), Tok::Ident(_)) {
            return Err(self.err(format!("expected identifier, found {}", self.peek())));
        }
        match self.bump() {
            Tok::Ident(name) => Ok(name),
            _ => unreachable!("peeked an identifier"),
        }
    }

    fn statements_until_eof(&mut self) -> Result<Vec<Stmt>, Error> {
        let mut out = Vec::new();
        while self.peek() != &Tok::Eof {
            out.push(self.statement()?);
        }
        Ok(out)
    }

    /// Parses `:` NEWLINE INDENT stmts DEDENT (an indented suite).
    fn suite(&mut self) -> Result<Vec<Stmt>, Error> {
        self.expect_op(OpTok::Colon)?;
        // Inline suite: `if x: y = 1` on one line.
        if self.peek() != &Tok::Newline {
            let stmt = self.simple_statement()?;
            return Ok(vec![stmt]);
        }
        self.expect_newline()?;
        if self.bump() != Tok::Indent {
            return Err(self.err("expected an indented block"));
        }
        let mut out = Vec::new();
        while self.peek() != &Tok::Dedent && self.peek() != &Tok::Eof {
            out.push(self.nested(Self::statement)?);
        }
        if self.peek() == &Tok::Dedent {
            self.bump();
        }
        if out.is_empty() {
            return Err(self.err("empty block"));
        }
        Ok(out)
    }

    fn statement(&mut self) -> Result<Stmt, Error> {
        let line = self.line();
        match self.peek() {
            Tok::Kw(Kw::If) => {
                self.bump();
                self.if_chain(line)
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                let test = self.expression()?;
                let body = self.suite()?;
                Ok(Stmt {
                    line,
                    kind: StmtKind::While { test, body },
                })
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                let target = self.name_target()?;
                if !self.eat_kw(Kw::In) {
                    return Err(self.err("expected `in` in for statement"));
                }
                let iter = self.expression()?;
                let body = self.suite()?;
                Ok(Stmt {
                    line,
                    kind: StmtKind::For { target, iter, body },
                })
            }
            Tok::Kw(Kw::Def) => {
                self.bump();
                let name = self.expect_name()?;
                self.expect_op(OpTok::LParen)?;
                let mut params = Vec::new();
                if !self.eat_op(OpTok::RParen) {
                    loop {
                        params.push(self.expect_name()?);
                        if !self.eat_op(OpTok::Comma) {
                            break;
                        }
                    }
                    self.expect_op(OpTok::RParen)?;
                }
                let body = self.suite()?;
                Ok(Stmt {
                    line,
                    kind: StmtKind::Def { name, params, body },
                })
            }
            Tok::Kw(Kw::Class) => {
                self.bump();
                let name = self.expect_name()?;
                let body = self.suite()?;
                let mut methods = Vec::new();
                for s in body {
                    match &s.kind {
                        StmtKind::Def { .. } => methods.push(s),
                        StmtKind::Pass => {}
                        _ => {
                            return Err(Error::Parse {
                                line: s.line,
                                message: "class bodies may only contain methods and `pass`".into(),
                            })
                        }
                    }
                }
                Ok(Stmt {
                    line,
                    kind: StmtKind::Class { name, methods },
                })
            }
            _ => self.simple_statement(),
        }
    }

    fn if_chain(&mut self, line: u32) -> Result<Stmt, Error> {
        let test = self.expression()?;
        let body = self.suite()?;
        let orelse = if self.peek() == &Tok::Kw(Kw::Elif) {
            let elif_line = self.line();
            self.bump();
            vec![self.nested(|p| p.if_chain(elif_line))?]
        } else if self.eat_kw(Kw::Else) {
            self.suite()?
        } else {
            Vec::new()
        };
        Ok(Stmt {
            line,
            kind: StmtKind::If { test, body, orelse },
        })
    }

    /// A one-line statement ending in NEWLINE.
    fn simple_statement(&mut self) -> Result<Stmt, Error> {
        let line = self.line();
        let kind = match self.peek() {
            Tok::Kw(Kw::Return) => {
                self.bump();
                let value = if matches!(self.peek(), Tok::Newline | Tok::Eof) {
                    None
                } else {
                    Some(self.expression()?)
                };
                StmtKind::Return(value)
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                StmtKind::Break
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                StmtKind::Continue
            }
            Tok::Kw(Kw::Pass) => {
                self.bump();
                StmtKind::Pass
            }
            Tok::Kw(Kw::Global) => {
                self.bump();
                let mut names = vec![self.expect_name()?];
                while self.eat_op(OpTok::Comma) {
                    names.push(self.expect_name()?);
                }
                StmtKind::Global(names)
            }
            _ => {
                let first = self.expression_no_tuple()?;
                match self.peek() {
                    // Tuple target: `a, b = ...`
                    Tok::Op(OpTok::Comma) => {
                        let mut targets = vec![self.expr_to_target(first)?];
                        while self.eat_op(OpTok::Comma) {
                            let e = self.expression_no_tuple()?;
                            targets.push(self.expr_to_target(e)?);
                        }
                        self.expect_op(OpTok::Eq)?;
                        let value = self.expression()?;
                        StmtKind::Assign {
                            target: Target::Tuple(targets),
                            value,
                        }
                    }
                    Tok::Op(OpTok::Eq) => {
                        self.bump();
                        let target = self.expr_to_target(first)?;
                        let value = self.expression()?;
                        StmtKind::Assign { target, value }
                    }
                    Tok::Op(
                        op @ (OpTok::PlusEq
                        | OpTok::MinusEq
                        | OpTok::StarEq
                        | OpTok::SlashEq
                        | OpTok::SlashSlashEq
                        | OpTok::PercentEq),
                    ) => {
                        let binop = match op {
                            OpTok::PlusEq => BinOp::Add,
                            OpTok::MinusEq => BinOp::Sub,
                            OpTok::StarEq => BinOp::Mul,
                            OpTok::SlashEq => BinOp::Div,
                            OpTok::SlashSlashEq => BinOp::FloorDiv,
                            OpTok::PercentEq => BinOp::Mod,
                            _ => unreachable!("matched above"),
                        };
                        self.bump();
                        let target = self.expr_to_target(first)?;
                        if matches!(target, Target::Tuple(_)) {
                            return Err(self.err("augmented assignment needs a single target"));
                        }
                        let value = self.expression()?;
                        StmtKind::AugAssign {
                            target,
                            op: binop,
                            value,
                        }
                    }
                    _ => StmtKind::Expr(first),
                }
            }
        };
        self.expect_newline()?;
        Ok(Stmt { line, kind })
    }

    fn expr_to_target(&self, e: Expr) -> Result<Target, Error> {
        match e.kind {
            ExprKind::Name(n) => Ok(Target::Name(n)),
            ExprKind::Index { base, index } => Ok(Target::Index {
                base: *base,
                index: *index,
            }),
            ExprKind::Attr { base, attr } => Ok(Target::Attr { base: *base, attr }),
            ExprKind::Tuple(items) => {
                let targets = items
                    .into_iter()
                    .map(|i| self.expr_to_target(i))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Target::Tuple(targets))
            }
            _ => Err(Error::Parse {
                line: e.line,
                message: "invalid assignment target".into(),
            }),
        }
    }

    /// For-loop target: names or tuple of names.
    fn name_target(&mut self) -> Result<Target, Error> {
        let first = Target::Name(self.expect_name()?);
        if self.peek() != &Tok::Op(OpTok::Comma) {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat_op(OpTok::Comma) {
            items.push(Target::Name(self.expect_name()?));
        }
        Ok(Target::Tuple(items))
    }

    // -- expressions ---------------------------------------------------------

    /// Full expression, allowing bare tuples `a, b`.
    fn expression(&mut self) -> Result<Expr, Error> {
        let line = self.line();
        // Each level hands a lone operand on as the `Result` it got, so
        // an atom is not copied once per precedence level.
        let first = self.expression_no_tuple();
        if self.peek() != &Tok::Op(OpTok::Comma) {
            return first;
        }
        let mut items = vec![first?];
        while self.eat_op(OpTok::Comma) {
            // Trailing comma before a closer/newline ends the tuple.
            if matches!(
                self.peek(),
                Tok::Newline
                    | Tok::Eof
                    | Tok::Op(OpTok::RParen | OpTok::RBracket | OpTok::RBrace | OpTok::Colon)
            ) {
                break;
            }
            items.push(self.expression_no_tuple()?);
        }
        self.node(ExprKind::Tuple(items), line)
    }

    fn expression_no_tuple(&mut self) -> Result<Expr, Error> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, Error> {
        let first = self.and_expr();
        if self.peek() != &Tok::Kw(Kw::Or) {
            return first;
        }
        let mut lhs = first?;
        while self.peek() == &Tok::Kw(Kw::Or) {
            let line = self.line();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = self.node(
                ExprKind::Bool2 {
                    is_and: false,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            )?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Error> {
        let first = self.not_expr();
        if self.peek() != &Tok::Kw(Kw::And) {
            return first;
        }
        let mut lhs = first?;
        while self.peek() == &Tok::Kw(Kw::And) {
            let line = self.line();
            self.bump();
            let rhs = self.not_expr()?;
            lhs = self.node(
                ExprKind::Bool2 {
                    is_and: true,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            )?;
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, Error> {
        if self.peek() == &Tok::Kw(Kw::Not) {
            let line = self.line();
            self.bump();
            let operand = self.nested(Self::not_expr)?;
            return self.node(ExprKind::Not(Box::new(operand)), line);
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, Error> {
        let first = self.arith();
        let op = match self.peek() {
            Tok::Op(OpTok::EqEq) => Some(BinOp::Eq),
            Tok::Op(OpTok::Ne) => Some(BinOp::Ne),
            Tok::Op(OpTok::Lt) => Some(BinOp::Lt),
            Tok::Op(OpTok::Le) => Some(BinOp::Le),
            Tok::Op(OpTok::Gt) => Some(BinOp::Gt),
            Tok::Op(OpTok::Ge) => Some(BinOp::Ge),
            Tok::Kw(Kw::In) => Some(BinOp::In),
            Tok::Kw(Kw::Not) => {
                // `not in`
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&Tok::Kw(Kw::In)) {
                    Some(BinOp::NotIn)
                } else {
                    None
                }
            }
            _ => None,
        };
        let Some(op) = op else { return first };
        let lhs = first?;
        let line = self.line();
        self.bump();
        if op == BinOp::NotIn {
            self.bump(); // the `in`
        }
        let rhs = self.arith()?;
        self.node(
            ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            line,
        )
    }

    fn arith(&mut self) -> Result<Expr, Error> {
        let first = self.term();
        if !matches!(self.peek(), Tok::Op(OpTok::Plus | OpTok::Minus)) {
            return first;
        }
        let mut lhs = first?;
        loop {
            let op = match self.peek() {
                Tok::Op(OpTok::Plus) => BinOp::Add,
                Tok::Op(OpTok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let line = self.line();
            self.bump();
            let rhs = self.term()?;
            lhs = self.node(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            )?;
        }
    }

    fn term(&mut self) -> Result<Expr, Error> {
        let first = self.factor();
        if !matches!(
            self.peek(),
            Tok::Op(OpTok::Star | OpTok::Slash | OpTok::SlashSlash | OpTok::Percent)
        ) {
            return first;
        }
        let mut lhs = first?;
        loop {
            let op = match self.peek() {
                Tok::Op(OpTok::Star) => BinOp::Mul,
                Tok::Op(OpTok::Slash) => BinOp::Div,
                Tok::Op(OpTok::SlashSlash) => BinOp::FloorDiv,
                Tok::Op(OpTok::Percent) => BinOp::Mod,
                _ => return Ok(lhs),
            };
            let line = self.line();
            self.bump();
            let rhs = self.factor()?;
            lhs = self.node(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            )?;
        }
    }

    fn factor(&mut self) -> Result<Expr, Error> {
        if self.peek() == &Tok::Op(OpTok::Minus) {
            let line = self.line();
            self.bump();
            let operand = self.nested(Self::factor)?;
            return self.node(ExprKind::Neg(Box::new(operand)), line);
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr, Error> {
        let first = self.postfix();
        if self.peek() == &Tok::Op(OpTok::StarStar) {
            let base = first?;
            let line = self.line();
            self.bump();
            let exp = self.nested(Self::factor)?; // right associative
            return self.node(
                ExprKind::Binary {
                    op: BinOp::Pow,
                    lhs: Box::new(base),
                    rhs: Box::new(exp),
                },
                line,
            );
        }
        first
    }

    fn postfix(&mut self) -> Result<Expr, Error> {
        let first = self.atom();
        if !matches!(
            self.peek(),
            Tok::Op(OpTok::LParen | OpTok::LBracket | OpTok::Dot)
        ) {
            return first;
        }
        let mut e = first?;
        loop {
            let line = self.line();
            match self.peek() {
                Tok::Op(OpTok::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_op(OpTok::RParen) {
                        loop {
                            args.push(self.expression_no_tuple()?);
                            if !self.eat_op(OpTok::Comma) {
                                break;
                            }
                        }
                        self.expect_op(OpTok::RParen)?;
                    }
                    e = self.node(
                        ExprKind::Call {
                            func: Box::new(e),
                            args,
                        },
                        line,
                    )?;
                }
                Tok::Op(OpTok::LBracket) => {
                    self.bump();
                    // Slice forms: [:], [lo:], [:hi], [lo:hi]; otherwise an
                    // ordinary subscript.
                    let lo = if matches!(self.peek(), Tok::Op(OpTok::Colon)) {
                        None
                    } else {
                        Some(Box::new(self.expression_no_tuple()?))
                    };
                    if self.eat_op(OpTok::Colon) {
                        let hi = if matches!(self.peek(), Tok::Op(OpTok::RBracket)) {
                            None
                        } else {
                            Some(Box::new(self.expression_no_tuple()?))
                        };
                        self.expect_op(OpTok::RBracket)?;
                        e = self.node(
                            ExprKind::Slice {
                                base: Box::new(e),
                                lo,
                                hi,
                            },
                            line,
                        )?;
                    } else {
                        self.expect_op(OpTok::RBracket)?;
                        let index = *lo.ok_or_else(|| self.err("empty subscript"))?;
                        e = self.node(
                            ExprKind::Index {
                                base: Box::new(e),
                                index: Box::new(index),
                            },
                            line,
                        )?;
                    }
                }
                Tok::Op(OpTok::Dot) => {
                    self.bump();
                    let attr = self.expect_ident()?;
                    e = self.node(
                        ExprKind::Attr {
                            base: Box::new(e),
                            attr,
                        },
                        line,
                    )?;
                }
                _ => return Ok(e),
            }
        }
    }

    fn atom(&mut self) -> Result<Expr, Error> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::new(ExprKind::Int(v), line)),
            Tok::Float(v) => Ok(Expr::new(ExprKind::Float(v), line)),
            Tok::Str(s) => Ok(Expr::new(ExprKind::Str(s), line)),
            Tok::Kw(Kw::True) => Ok(Expr::new(ExprKind::Bool(true), line)),
            Tok::Kw(Kw::False) => Ok(Expr::new(ExprKind::Bool(false), line)),
            Tok::Kw(Kw::None) => Ok(Expr::new(ExprKind::None, line)),
            Tok::Ident(name) => Ok(Expr::new(ExprKind::Name(self.intern(name)), line)),
            Tok::Op(OpTok::LParen) => {
                if self.eat_op(OpTok::RParen) {
                    return self.node(ExprKind::Tuple(Vec::new()), line);
                }
                let inner = self.expression()?;
                self.expect_op(OpTok::RParen)?;
                Ok(inner)
            }
            Tok::Op(OpTok::LBracket) => {
                let mut items = Vec::new();
                if !self.eat_op(OpTok::RBracket) {
                    loop {
                        items.push(self.expression_no_tuple()?);
                        if !self.eat_op(OpTok::Comma) {
                            break;
                        }
                        if self.peek() == &Tok::Op(OpTok::RBracket) {
                            break;
                        }
                    }
                    self.expect_op(OpTok::RBracket)?;
                }
                self.node(ExprKind::List(items), line)
            }
            Tok::Op(OpTok::LBrace) => {
                let mut entries = Vec::new();
                if !self.eat_op(OpTok::RBrace) {
                    loop {
                        let k = self.expression_no_tuple()?;
                        self.expect_op(OpTok::Colon)?;
                        let v = self.expression_no_tuple()?;
                        entries.push((k, v));
                        if !self.eat_op(OpTok::Comma) {
                            break;
                        }
                        if self.peek() == &Tok::Op(OpTok::RBrace) {
                            break;
                        }
                    }
                    self.expect_op(OpTok::RBrace)?;
                }
                self.node(ExprKind::Dict(entries), line)
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

    fn parse_ok(src: &str) -> Module {
        match parse(src) {
            Ok(m) => m,
            Err(e) => panic!("parse failed: {e}"),
        }
    }

    #[test]
    fn assignment_forms() {
        let m = parse_ok("x = 1\nx += 2\na[0] = 3\no.f = 4\na, b = b, a");
        assert_eq!(m.body.len(), 5);
        assert!(matches!(
            &m.body[4].kind,
            StmtKind::Assign {
                target: Target::Tuple(ts),
                value: Expr { kind: ExprKind::Tuple(vs), .. },
            } if ts.len() == 2 && vs.len() == 2
        ));
    }

    #[test]
    fn def_and_return() {
        let m = parse_ok("def add(a, b):\n    return a + b");
        match &m.body[0].kind {
            StmtKind::Def { name, params, body } => {
                assert_eq!(name, "add");
                assert_eq!(params, &["a", "b"]);
                assert!(matches!(body[0].kind, StmtKind::Return(Some(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_elif_else() {
        let m = parse_ok("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3");
        match &m.body[0].kind {
            StmtKind::If { orelse, .. } => match &orelse[0].kind {
                StmtKind::If { orelse: inner, .. } => assert_eq!(inner.len(), 1),
                other => panic!("expected nested if, got {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loops() {
        let m = parse_ok("while x < 10:\n    x += 1\nfor i in range(3):\n    print(i)");
        assert!(matches!(m.body[0].kind, StmtKind::While { .. }));
        assert!(matches!(m.body[1].kind, StmtKind::For { .. }));
    }

    #[test]
    fn for_tuple_target() {
        let m = parse_ok("for k, v in items:\n    pass");
        match &m.body[0].kind {
            StmtKind::For { target, .. } => {
                assert!(matches!(target, Target::Tuple(ts) if ts.len() == 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn class_with_methods() {
        let m = parse_ok(
            "class Point:\n    def __init__(self, x):\n        self.x = x\n    def get(self):\n        return self.x",
        );
        match &m.body[0].kind {
            StmtKind::Class { name, methods } => {
                assert_eq!(name, "Point");
                assert_eq!(methods.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let m = parse_ok("x = 1 + 2 * 3 ** 2");
        match &m.body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => match &rhs.kind {
                    ExprKind::Binary {
                        op: BinOp::Mul,
                        rhs,
                        ..
                    } => {
                        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Pow, .. }));
                    }
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn boolean_and_not_in() {
        let m = parse_ok("y = a and not b or c\nz = x not in lst");
        assert!(matches!(
            &m.body[0].kind,
            StmtKind::Assign {
                value: Expr {
                    kind: ExprKind::Bool2 { is_and: false, .. },
                    ..
                },
                ..
            }
        ));
        match &m.body[1].kind {
            StmtKind::Assign { value, .. } => {
                assert!(matches!(
                    value.kind,
                    ExprKind::Binary {
                        op: BinOp::NotIn,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn displays() {
        let m = parse_ok("a = [1, 2]\nb = (1, 2)\nc = {1: 'x', 2: 'y'}\nd = []\ne = {}");
        assert!(matches!(
            &m.body[0].kind,
            StmtKind::Assign { value: Expr { kind: ExprKind::List(v), .. }, .. } if v.len() == 2
        ));
        assert!(matches!(
            &m.body[1].kind,
            StmtKind::Assign { value: Expr { kind: ExprKind::Tuple(v), .. }, .. } if v.len() == 2
        ));
        assert!(matches!(
            &m.body[2].kind,
            StmtKind::Assign { value: Expr { kind: ExprKind::Dict(v), .. }, .. } if v.len() == 2
        ));
    }

    #[test]
    fn method_calls_and_chains() {
        let m = parse_ok("x.append(1)\ny = a.b.c(2)[3]");
        assert!(matches!(m.body[0].kind, StmtKind::Expr(_)));
    }

    #[test]
    fn inline_suite() {
        let m = parse_ok("if x: y = 1");
        match &m.body[0].kind {
            StmtKind::If { body, .. } => assert_eq!(body.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_statement() {
        let m = parse_ok("def f():\n    global a, b\n    a = 1");
        match &m.body[0].kind {
            StmtKind::Def { body, .. } => {
                assert!(matches!(&body[0].kind, StmtKind::Global(ns) if ns.len() == 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse("x = ").is_err());
        assert!(parse("if x:\npass").is_err()); // missing indent
        assert!(parse("1 = x").is_err());
        assert!(parse("def f(:\n    pass").is_err());
        assert!(parse("class C:\n    x = 1").is_err());
    }
}
