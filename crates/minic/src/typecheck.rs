//! Type checking and lowering to a typed HIR.
//!
//! [`check`] validates a parsed [`TranslationUnit`] and produces a
//! [`CheckedProgram`]: struct layouts, a fully laid-out globals segment
//! (addresses assigned, constant initializers evaluated, string literals
//! interned), per-function frame layouts, and function bodies lowered to a
//! typed HIR in which every lvalue has become an explicit address
//! computation. The bytecode backend ([`crate::codegen`]) is a direct walk
//! of this HIR.
//!
//! Deliberate MiniC restrictions diagnosed here: no struct-by-value
//! parameters/returns, no variable shadowing between nested local scopes,
//! implicit pointer conversions only through `void*`.

use crate::ast::{self, AssignOp, BinOp, Expr, ExprKind, Initializer, Stmt, TranslationUnit, UnOp};
use crate::mem::GLOBAL_BASE;
use crate::types::{round_up, StructTable, Type};
use crate::Error;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// HIR
// ---------------------------------------------------------------------------

/// Result of type checking: everything the backend needs.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    /// Resolved struct layouts.
    pub structs: StructTable,
    /// Global variables with assigned addresses and flattened initializers.
    pub globals: Vec<HGlobal>,
    /// Interned string literals and their addresses.
    pub strings: Vec<(String, u64)>,
    /// Size of the globals segment (variables + string pool).
    pub global_segment_size: u64,
    /// Checked functions; indices are the [`CallTarget::Function`] indices.
    pub functions: Vec<HFunction>,
}

impl CheckedProgram {
    /// Looks a function up by name.
    pub fn function(&self, name: &str) -> Option<(usize, &HFunction)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
    }
}

/// A global variable with a resolved address.
#[derive(Debug, Clone)]
pub struct HGlobal {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Absolute address in the globals segment.
    pub addr: u64,
    /// Constant-initializer writes, as (offset from `addr`) patches.
    pub init: Vec<InitWrite>,
    /// Declaration line.
    pub line: u32,
}

/// One constant write into the initial globals image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitWrite {
    /// Write `value` truncated to `size` bytes at `offset`.
    Int {
        /// Offset from the global's base address.
        offset: u64,
        /// Width in bytes (1, 4 or 8).
        size: u64,
        /// The value.
        value: i64,
    },
    /// Write a float of `size` bytes at `offset`.
    Float {
        /// Offset from the global's base address.
        offset: u64,
        /// Width in bytes (4 or 8).
        size: u64,
        /// The value.
        value: f64,
    },
    /// Write an 8-byte pointer at `offset`.
    Ptr {
        /// Offset from the global's base address.
        offset: u64,
        /// The pointer value (string literal address or 0).
        value: u64,
    },
}

/// A checked function with frame layout and lowered body.
#[derive(Debug, Clone)]
pub struct HFunction {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// The first `nparams` entries of `locals` are the parameters.
    pub nparams: usize,
    /// All locals (parameters first), with frame offsets.
    pub locals: Vec<HLocal>,
    /// Frame size in bytes (16-aligned).
    pub frame_size: u64,
    /// Lowered body.
    pub body: Vec<HStmt>,
    /// Header line.
    pub line: u32,
    /// Closing-brace line.
    pub end_line: u32,
}

/// A local variable slot in a function frame.
#[derive(Debug, Clone)]
pub struct HLocal {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Byte offset from the frame base.
    pub offset: u64,
    /// Declaration line (inspection hides locals not yet declared).
    pub decl_line: u32,
    /// Last statement line of the block that declares it (inspection
    /// hides it after); `u32::MAX` for parameters and the locals of the
    /// function's own body.
    pub scope_end: u32,
    /// Whether the slot is a parameter.
    pub is_param: bool,
}

impl HLocal {
    /// Whether the name denotes this slot at a statement on `line`: a
    /// parameter always, a local from its declaration line to the end of
    /// its block.
    pub fn visible_at(&self, line: u32) -> bool {
        self.is_param || (self.decl_line <= line && line <= self.scope_end)
    }
}

/// A lowered statement.
#[derive(Debug, Clone)]
pub struct HStmt {
    /// Source line (step granularity).
    pub line: u32,
    /// The statement's form.
    pub kind: HStmtKind,
}

/// Lowered statement forms. `for` loops are lowered to `While` with a
/// `step` expression so `continue` can jump to the step.
#[derive(Debug, Clone)]
pub enum HStmtKind {
    /// Evaluate and discard.
    Expr(HExpr),
    /// Two-way branch.
    If {
        /// Scalar condition.
        cond: HExpr,
        /// Then branch.
        then_branch: Vec<HStmt>,
        /// Else branch (possibly empty).
        else_branch: Vec<HStmt>,
    },
    /// Loop. `step` runs after the body and on `continue`.
    While {
        /// Scalar condition.
        cond: HExpr,
        /// Body.
        body: Vec<HStmt>,
        /// `for` step expression.
        step: Option<HExpr>,
    },
    /// `do body while (cond);` — condition evaluated after the body.
    DoWhile {
        /// Body (runs at least once).
        body: Vec<HStmt>,
        /// Scalar condition.
        cond: HExpr,
    },
    /// `switch` with C fallthrough; `break` exits, `continue` passes to the
    /// enclosing loop.
    Switch {
        /// Integer scrutinee.
        scrutinee: HExpr,
        /// Arms in source order (label `None` = `default`).
        arms: Vec<(Option<i64>, Vec<HStmt>)>,
    },
    /// Return from the function.
    Return(Option<HExpr>),
    /// Exit the innermost loop.
    Break,
    /// Jump to the innermost loop's step/condition.
    Continue,
    /// A scope block (no codegen significance; kept for line structure).
    Block(Vec<HStmt>),
}

/// A lowered, typed expression.
#[derive(Debug, Clone)]
pub struct HExpr {
    /// Result type.
    pub ty: Type,
    /// Source line.
    pub line: u32,
    /// Form.
    pub kind: HExprKind,
}

impl HExpr {
    fn new(ty: Type, line: u32, kind: HExprKind) -> Self {
        HExpr { ty, line, kind }
    }
}

/// Call targets: user functions (by index) or built-in intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// Index into [`CheckedProgram::functions`].
    Function(usize),
    /// A built-in.
    Intrinsic(Intrinsic),
}

/// Built-in functions. `Malloc`/`Calloc`/`Realloc`/`Free` feed the tracking
/// allocator (the paper's `LD_PRELOAD` interposition analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// `void* malloc(long)`
    Malloc,
    /// `void* calloc(long, long)`
    Calloc,
    /// `void* realloc(void*, long)`
    Realloc,
    /// `void free(void*)`
    Free,
    /// `int printf(char*, ...)` — subset of conversions.
    Printf,
    /// `int puts(char*)`
    Puts,
    /// `int putchar(int)`
    Putchar,
}

impl Intrinsic {
    fn by_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "malloc" => Intrinsic::Malloc,
            "calloc" => Intrinsic::Calloc,
            "realloc" => Intrinsic::Realloc,
            "free" => Intrinsic::Free,
            "printf" => Intrinsic::Printf,
            "puts" => Intrinsic::Puts,
            "putchar" => Intrinsic::Putchar,
            _ => return None,
        })
    }
}

/// Lowered expression forms. All lvalues have become address computations;
/// `Load`/`Store` make every memory access explicit.
#[derive(Debug, Clone)]
pub enum HExprKind {
    /// Integer constant (type says width).
    ConstInt(i64),
    /// Float constant.
    ConstFloat(f64),
    /// Pointer constant: string literal address, global address, or NULL.
    ConstPtr(u64),
    /// Address of local slot `usize` (frame base + offset at runtime).
    LocalAddr(usize),
    /// Load through an address expression; result is the pointee type.
    Load(Box<HExpr>),
    /// Scalar store; evaluates to the stored value.
    Store {
        /// Address to store to.
        addr: Box<HExpr>,
        /// Value to store (already converted to the target type).
        value: Box<HExpr>,
    },
    /// Struct assignment: byte copy of `size` bytes.
    CopyStruct {
        /// Destination address.
        dst: Box<HExpr>,
        /// Source address.
        src: Box<HExpr>,
        /// Bytes to copy.
        size: u64,
    },
    /// Arithmetic/bitwise/comparison on a common operand type.
    Binary {
        /// Operator.
        op: BinOp,
        /// The type both operands were converted to.
        operand_ty: Type,
        /// Left operand.
        lhs: Box<HExpr>,
        /// Right operand.
        rhs: Box<HExpr>,
    },
    /// Short-circuit `&&` / `||`; result `int` 0/1.
    Logical {
        /// true for `&&`, false for `||`.
        is_and: bool,
        /// Left operand (scalar).
        lhs: Box<HExpr>,
        /// Right operand (scalar).
        rhs: Box<HExpr>,
    },
    /// Unary op on an arithmetic operand (`Not` accepts scalars).
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<HExpr>,
    },
    /// `ptr ± index*elem_size`.
    PtrAdd {
        /// Pointer operand.
        ptr: Box<HExpr>,
        /// Element index (integer).
        index: Box<HExpr>,
        /// Element size in bytes.
        elem_size: u64,
        /// Whether to subtract instead of add.
        negate: bool,
    },
    /// `(lhs - rhs) / elem_size`, type `long`.
    PtrDiff {
        /// Left pointer.
        lhs: Box<HExpr>,
        /// Right pointer.
        rhs: Box<HExpr>,
        /// Element size in bytes.
        elem_size: u64,
    },
    /// Numeric or pointer cast; `ty` is the destination.
    Cast {
        /// Source type.
        from: Type,
        /// Operand.
        expr: Box<HExpr>,
    },
    /// Function or intrinsic call.
    Call {
        /// Callee.
        target: CallTarget,
        /// Arguments (converted).
        args: Vec<HExpr>,
    },
    /// `cond ? a : b`.
    Ternary {
        /// Scalar condition.
        cond: Box<HExpr>,
        /// Value if nonzero.
        then_expr: Box<HExpr>,
        /// Value if zero.
        else_expr: Box<HExpr>,
    },
    /// `++`/`--` on a scalar lvalue.
    IncDec {
        /// Address of the target.
        addr: Box<HExpr>,
        /// +1 or -1.
        delta: i64,
        /// Prefix (result is new value) or postfix (old value).
        prefix: bool,
        /// `Some(elem_size)` when the target is a pointer.
        elem_size: Option<u64>,
    },
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

/// Type checks a translation unit and lowers it to the HIR.
///
/// # Errors
///
/// Returns [`Error::Type`] describing the first semantic error.
///
/// # Examples
///
/// ```
/// let tokens = minic::lexer::lex("int main() { return 1 + 2; }")?;
/// let unit = minic::parser::parse(tokens)?;
/// let checked = minic::typecheck::check(&unit)?;
/// assert_eq!(checked.functions.len(), 1);
/// # Ok::<(), minic::Error>(())
/// ```
pub fn check(unit: &TranslationUnit) -> Result<CheckedProgram, Error> {
    let mut checker = Checker::new();
    checker.check_unit(unit)?;
    Ok(checker.finish())
}

struct FuncSig {
    ret: Type,
    params: Vec<Type>,
}

struct Checker {
    structs: StructTable,
    globals: Vec<HGlobal>,
    global_names: HashMap<String, usize>,
    next_global_addr: u64,
    strings: Vec<(String, u64)>,
    string_map: HashMap<String, u64>,
    string_base: u64,
    sigs: Vec<FuncSig>,
    sig_names: HashMap<String, usize>,
    functions: Vec<HFunction>,
}

/// Per-function checking state.
struct FuncCx {
    locals: Vec<HLocal>,
    scopes: Vec<HashMap<String, usize>>,
    cur_offset: u64,
    ret: Type,
    /// Nesting of constructs `continue` may target (loops only).
    loop_depth: u32,
    /// Nesting of constructs `break` may target (loops and switches).
    break_depth: u32,
    /// The highest statement line checked so far: a block's last line
    /// once its statements are checked.
    last_line: u32,
}

/// Pops the innermost scope. A nested block's locals end at its last
/// statement line; the function body's own block (just above the
/// parameters' scope) lasts to the closing brace.
fn close_scope(cx: &mut FuncCx) {
    let scope = cx.scopes.pop().expect("scope stack never empty");
    if cx.scopes.len() > 1 {
        for idx in scope.into_values() {
            cx.locals[idx].scope_end = cx.last_line;
        }
    }
}

/// Whether `e` has a form [`Checker::lvalue`] accepts.
fn is_lvalue_form(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::Var(_)
            | ExprKind::Deref(_)
            | ExprKind::Index { .. }
            | ExprKind::Member { .. }
            | ExprKind::Arrow { .. }
    )
}

fn terr(line: u32, message: impl Into<String>) -> Error {
    Error::Type {
        line,
        message: message.into(),
    }
}

impl Checker {
    fn new() -> Self {
        Checker {
            structs: StructTable::new(),
            globals: Vec::new(),
            global_names: HashMap::new(),
            next_global_addr: GLOBAL_BASE,
            strings: Vec::new(),
            string_map: HashMap::new(),
            string_base: 0,
            sigs: Vec::new(),
            sig_names: HashMap::new(),
            functions: Vec::new(),
        }
    }

    fn finish(self) -> CheckedProgram {
        let end = self
            .strings
            .iter()
            .map(|(s, a)| a + s.len() as u64 + 1)
            .max()
            .unwrap_or(self.string_base);
        CheckedProgram {
            structs: self.structs,
            globals: self.globals,
            strings: self.strings,
            global_segment_size: end - GLOBAL_BASE,
            functions: self.functions,
        }
    }

    /// Validates that a declared type is well-formed (known structs, no
    /// void variables, positive array sizes are enforced by the parser).
    fn validate_type(&self, ty: &Type, line: u32, allow_void: bool) -> Result<(), Error> {
        match ty {
            Type::Void if !allow_void => Err(terr(line, "variable cannot have type void")),
            Type::Void => Ok(()),
            Type::Struct(name) => {
                if self.structs.get(name).is_none() {
                    Err(terr(line, format!("unknown struct `{name}`")))
                } else {
                    Ok(())
                }
            }
            Type::Ptr(inner) => match inner.as_ref() {
                // Pointers to not-yet-defined structs are fine in C; we
                // require the struct to exist somewhere in the unit, which
                // the definition pass has already ensured.
                Type::Struct(name) if self.structs.get(name).is_none() => {
                    Err(terr(line, format!("unknown struct `{name}`")))
                }
                Type::Void | Type::Struct(_) => Ok(()),
                other => self.validate_type(other, line, true),
            },
            Type::Array(elem, n) => {
                if *n == 0 {
                    return Err(terr(line, "array size must be positive"));
                }
                self.validate_type(elem, line, false)
            }
            _ => Ok(()),
        }
    }

    fn intern_string(&mut self, s: &str) -> u64 {
        if let Some(&addr) = self.string_map.get(s) {
            return addr;
        }
        let addr = if let Some((last, a)) = self.strings.last() {
            a + last.len() as u64 + 1
        } else {
            self.string_base
        };
        self.strings.push((s.to_owned(), addr));
        self.string_map.insert(s.to_owned(), addr);
        addr
    }

    fn check_unit(&mut self, unit: &TranslationUnit) -> Result<(), Error> {
        // 1. Struct definitions, in order.
        for def in &unit.structs {
            if self.structs.get(&def.name).is_some() {
                return Err(terr(def.line, format!("duplicate struct `{}`", def.name)));
            }
            // Self-referential pointers are allowed: temporarily allow the
            // tag for pointer fields by checking field types with a probe.
            for (fname, fty) in &def.fields {
                match fty {
                    Type::Ptr(inner) => {
                        if let Type::Struct(n) = inner.as_ref() {
                            if n != &def.name && self.structs.get(n).is_none() {
                                return Err(terr(
                                    def.line,
                                    format!("unknown struct `{n}` in field `{fname}`"),
                                ));
                            }
                        }
                    }
                    Type::Struct(n) if self.structs.get(n).is_none() => {
                        return Err(terr(
                            def.line,
                            format!(
                                "field `{fname}` has incomplete type `struct {n}` \
                                     (define it first or use a pointer)"
                            ),
                        ));
                    }
                    _ => {}
                }
            }
            let layout = self.structs.layout_struct(&def.name, &def.fields);
            self.structs.insert(layout);
        }

        // 2. Global layout.
        for g in &unit.globals {
            if self.global_names.contains_key(&g.name) {
                return Err(terr(g.line, format!("duplicate global `{}`", g.name)));
            }
            self.validate_type(&g.ty, g.line, false)?;
            let align = self.structs.align_of(&g.ty);
            let size = self.structs.size_of(&g.ty);
            let addr = round_up(self.next_global_addr, align);
            self.next_global_addr = addr + size;
            self.global_names.insert(g.name.clone(), self.globals.len());
            self.globals.push(HGlobal {
                name: g.name.clone(),
                ty: g.ty.clone(),
                addr,
                init: Vec::new(),
                line: g.line,
            });
        }
        self.string_base = round_up(self.next_global_addr, 8);

        // 3. Global initializers (may intern strings).
        for (i, g) in unit.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                let ty = self.globals[i].ty.clone();
                let mut writes = Vec::new();
                self.const_init(&ty, init, 0, g.line, &mut writes)?;
                self.globals[i].init = writes;
            }
        }

        // 4. Function signatures.
        for f in &unit.functions {
            if self.sig_names.contains_key(&f.name) {
                return Err(terr(f.line, format!("duplicate function `{}`", f.name)));
            }
            self.validate_type(&f.ret, f.line, true)?;
            if matches!(f.ret, Type::Struct(_) | Type::Array(..)) {
                return Err(terr(
                    f.line,
                    "MiniC does not support returning structs or arrays by value",
                ));
            }
            for (pname, pty) in &f.params {
                self.validate_type(pty, f.line, false)?;
                if matches!(pty, Type::Struct(_)) {
                    return Err(terr(
                        f.line,
                        format!(
                            "parameter `{pname}`: MiniC does not support struct-by-value \
                             parameters (pass a pointer)"
                        ),
                    ));
                }
            }
            self.sig_names.insert(f.name.clone(), self.sigs.len());
            self.sigs.push(FuncSig {
                ret: f.ret.clone(),
                params: f.params.iter().map(|(_, t)| t.clone()).collect(),
            });
        }
        if !self.sig_names.contains_key("main") {
            return Err(terr(1, "program has no `main` function"));
        }

        // 5. Function bodies.
        for f in &unit.functions {
            let lowered = self.check_function(f)?;
            self.functions.push(lowered);
        }
        Ok(())
    }

    // -- constant initializers ---------------------------------------------

    /// Flattens a constant initializer for type `ty` at `offset`.
    fn const_init(
        &mut self,
        ty: &Type,
        init: &Initializer,
        offset: u64,
        line: u32,
        out: &mut Vec<InitWrite>,
    ) -> Result<(), Error> {
        match (ty, init) {
            (Type::Array(elem, n), Initializer::List(items)) => {
                if items.len() > *n {
                    return Err(terr(line, "too many initializers for array"));
                }
                let esize = self.structs.size_of(elem);
                for (i, item) in items.iter().enumerate() {
                    self.const_init(elem, item, offset + i as u64 * esize, line, out)?;
                }
                Ok(())
            }
            (Type::Struct(name), Initializer::List(items)) => {
                let layout = self.structs.get(name).expect("validated").clone();
                if items.len() > layout.fields.len() {
                    return Err(terr(line, "too many initializers for struct"));
                }
                for (item, field) in items.iter().zip(layout.fields.iter()) {
                    self.const_init(&field.ty, item, offset + field.offset, line, out)?;
                }
                Ok(())
            }
            (_, Initializer::List(_)) => Err(terr(line, "brace initializer on a scalar type")),
            (_, Initializer::Expr(e)) => {
                let c = self.const_expr(e)?;
                let w = match (ty, c) {
                    (t, ConstVal::Int(v)) if t.is_integer() => InitWrite::Int {
                        offset,
                        size: self.structs.size_of(t),
                        value: v,
                    },
                    (t, ConstVal::Int(v)) if t.is_float() => InitWrite::Float {
                        offset,
                        size: self.structs.size_of(t),
                        value: v as f64,
                    },
                    (t, ConstVal::Float(v)) if t.is_float() => InitWrite::Float {
                        offset,
                        size: self.structs.size_of(t),
                        value: v,
                    },
                    (Type::Ptr(_), ConstVal::Ptr(p)) => InitWrite::Ptr { offset, value: p },
                    (Type::Ptr(_), ConstVal::Int(0)) => InitWrite::Ptr { offset, value: 0 },
                    (t, _) => {
                        return Err(terr(
                            e.line,
                            format!("initializer is not a constant of type `{t}`"),
                        ))
                    }
                };
                out.push(w);
                Ok(())
            }
        }
    }

    fn const_expr(&mut self, e: &Expr) -> Result<ConstVal, Error> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(ConstVal::Int(*v)),
            ExprKind::FloatLit(v) => Ok(ConstVal::Float(*v)),
            ExprKind::CharLit(c) => Ok(ConstVal::Int(*c as i64)),
            ExprKind::StrLit(s) => Ok(ConstVal::Ptr(self.intern_string(s))),
            ExprKind::Null => Ok(ConstVal::Ptr(0)),
            ExprKind::SizeofType(ty) => {
                self.validate_type(ty, e.line, false)?;
                Ok(ConstVal::Int(self.structs.size_of(ty) as i64))
            }
            ExprKind::Unary {
                op: UnOp::Neg,
                operand,
            } => match self.const_expr(operand)? {
                ConstVal::Int(v) => Ok(ConstVal::Int(v.wrapping_neg())),
                ConstVal::Float(v) => Ok(ConstVal::Float(-v)),
                ConstVal::Ptr(_) => Err(terr(e.line, "cannot negate a pointer constant")),
            },
            ExprKind::Binary { op, lhs, rhs } => {
                let (l, r) = (self.const_expr(lhs)?, self.const_expr(rhs)?);
                match (l, r) {
                    (ConstVal::Int(a), ConstVal::Int(b)) => {
                        let v = match op {
                            BinOp::Add => a.wrapping_add(b),
                            BinOp::Sub => a.wrapping_sub(b),
                            BinOp::Mul => a.wrapping_mul(b),
                            BinOp::Div if b != 0 => a.wrapping_div(b),
                            BinOp::Rem if b != 0 => a.wrapping_rem(b),
                            BinOp::Shl => a.wrapping_shl(b as u32),
                            BinOp::Shr => a.wrapping_shr(b as u32),
                            BinOp::BitAnd => a & b,
                            BinOp::BitOr => a | b,
                            BinOp::BitXor => a ^ b,
                            _ => {
                                return Err(terr(
                                    e.line,
                                    "operator not allowed in constant initializer",
                                ))
                            }
                        };
                        Ok(ConstVal::Int(v))
                    }
                    _ => Err(terr(e.line, "non-integer constant arithmetic")),
                }
            }
            _ => Err(terr(e.line, "initializer is not a compile-time constant")),
        }
    }

    // -- functions -----------------------------------------------------------

    fn check_function(&mut self, f: &ast::FunctionDef) -> Result<HFunction, Error> {
        let mut cx = FuncCx {
            locals: Vec::new(),
            scopes: vec![HashMap::new()],
            cur_offset: 0,
            ret: f.ret.clone(),
            loop_depth: 0,
            break_depth: 0,
            last_line: f.line,
        };
        for (pname, pty) in &f.params {
            self.declare_local(&mut cx, pname, pty.clone(), f.line, true)?;
        }
        let nparams = f.params.len();
        let body = self.check_block(&mut cx, &f.body)?;
        let frame_size = round_up(cx.cur_offset.max(8), 16);
        Ok(HFunction {
            name: f.name.clone(),
            ret: f.ret.clone(),
            nparams,
            locals: cx.locals,
            frame_size,
            body,
            line: f.line,
            end_line: f.end_line,
        })
    }

    fn declare_local(
        &mut self,
        cx: &mut FuncCx,
        name: &str,
        ty: Type,
        line: u32,
        is_param: bool,
    ) -> Result<usize, Error> {
        self.validate_type(&ty, line, false)?;
        if cx.scopes.iter().any(|s| s.contains_key(name)) {
            return Err(terr(
                line,
                format!("redeclaration of `{name}` (MiniC forbids shadowing)"),
            ));
        }
        let align = self.structs.align_of(&ty);
        let size = self.structs.size_of(&ty);
        let offset = round_up(cx.cur_offset, align);
        cx.cur_offset = offset + size;
        let idx = cx.locals.len();
        cx.locals.push(HLocal {
            name: name.to_owned(),
            ty,
            offset,
            decl_line: line,
            scope_end: u32::MAX,
            is_param,
        });
        cx.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_owned(), idx);
        Ok(idx)
    }

    fn lookup_var(&self, cx: &FuncCx, name: &str) -> Option<VarRef> {
        for scope in cx.scopes.iter().rev() {
            if let Some(&idx) = scope.get(name) {
                return Some(VarRef::Local(idx));
            }
        }
        self.global_names.get(name).map(|&i| VarRef::Global(i))
    }

    fn check_block(&mut self, cx: &mut FuncCx, stmts: &[Stmt]) -> Result<Vec<HStmt>, Error> {
        cx.scopes.push(HashMap::new());
        let result = stmts
            .iter()
            .map(|s| self.check_stmt(cx, s))
            .collect::<Result<Vec<_>, _>>();
        close_scope(cx);
        result
    }

    fn check_stmt(&mut self, cx: &mut FuncCx, stmt: &Stmt) -> Result<HStmt, Error> {
        let line = stmt.line();
        cx.last_line = cx.last_line.max(line);
        let kind = match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                line,
            } => {
                let idx = self.declare_local(cx, name, ty.clone(), *line, false)?;
                let mut writes = Vec::new();
                if let Some(init) = init {
                    self.lower_local_init(cx, idx, ty, init, 0, *line, &mut writes)?;
                }
                // A declaration lowers to the sequence of initializing
                // stores, wrapped in a block to keep one statement per line.
                HStmtKind::Block(
                    writes
                        .into_iter()
                        .map(|e| HStmt {
                            line: *line,
                            kind: HStmtKind::Expr(e),
                        })
                        .collect(),
                )
            }
            Stmt::Expr(e) => HStmtKind::Expr(self.rvalue(cx, e)?),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.scalar_cond(cx, cond)?;
                let then_branch = self.check_block(cx, then_branch)?;
                let else_branch = match else_branch {
                    Some(b) => self.check_block(cx, b)?,
                    None => Vec::new(),
                };
                HStmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            }
            Stmt::While { cond, body, .. } => {
                let cond = self.scalar_cond(cx, cond)?;
                cx.loop_depth += 1;
                cx.break_depth += 1;
                let body = self.check_block(cx, body)?;
                cx.loop_depth -= 1;
                cx.break_depth -= 1;
                HStmtKind::While {
                    cond,
                    body,
                    step: None,
                }
            }
            Stmt::DoWhile { body, cond, .. } => {
                cx.loop_depth += 1;
                cx.break_depth += 1;
                let body = self.check_block(cx, body)?;
                cx.loop_depth -= 1;
                cx.break_depth -= 1;
                let cond = self.scalar_cond(cx, cond)?;
                HStmtKind::DoWhile { body, cond }
            }
            Stmt::Switch {
                scrutinee, arms, ..
            } => {
                let scrutinee = self.rvalue(cx, scrutinee)?;
                if !scrutinee.ty.is_integer() {
                    return Err(terr(
                        line,
                        format!("switch requires an integer, found `{}`", scrutinee.ty),
                    ));
                }
                let scrutinee = self.convert(scrutinee, &Type::Long, line)?;
                let mut seen: Vec<i64> = Vec::new();
                let mut saw_default = false;
                let mut checked_arms = Vec::with_capacity(arms.len());
                cx.break_depth += 1;
                for (label, body) in arms {
                    match label {
                        Some(k) => {
                            if seen.contains(k) {
                                cx.break_depth -= 1;
                                return Err(terr(line, format!("duplicate case label {k}")));
                            }
                            seen.push(*k);
                        }
                        None => {
                            if saw_default {
                                cx.break_depth -= 1;
                                return Err(terr(line, "duplicate default label"));
                            }
                            saw_default = true;
                        }
                    }
                    let body = match self.check_block(cx, body) {
                        Ok(b) => b,
                        Err(e) => {
                            cx.break_depth -= 1;
                            return Err(e);
                        }
                    };
                    checked_arms.push((*label, body));
                }
                cx.break_depth -= 1;
                HStmtKind::Switch {
                    scrutinee,
                    arms: checked_arms,
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                line,
            } => {
                cx.scopes.push(HashMap::new());
                let init_stmt = init
                    .as_deref()
                    .map(|s| self.check_stmt(cx, s))
                    .transpose()?;
                let cond = match cond {
                    Some(c) => self.scalar_cond(cx, c)?,
                    None => HExpr::new(Type::Int, *line, HExprKind::ConstInt(1)),
                };
                let step = step.as_ref().map(|e| self.rvalue(cx, e)).transpose()?;
                if let Some(step) = &step {
                    // The step runs under its own line marker.
                    cx.last_line = cx.last_line.max(step.line);
                }
                cx.loop_depth += 1;
                cx.break_depth += 1;
                let body = self.check_block(cx, body)?;
                cx.loop_depth -= 1;
                cx.break_depth -= 1;
                close_scope(cx);
                let mut outer = Vec::new();
                if let Some(s) = init_stmt {
                    outer.push(s);
                }
                outer.push(HStmt {
                    line: *line,
                    kind: HStmtKind::While { cond, body, step },
                });
                HStmtKind::Block(outer)
            }
            Stmt::Return { value, line } => {
                let value = match (value, &cx.ret) {
                    (None, Type::Void) => None,
                    (None, t) => {
                        return Err(terr(
                            *line,
                            format!("return without value in `{t}` function"),
                        ))
                    }
                    (Some(_), Type::Void) => {
                        return Err(terr(*line, "return with value in void function"))
                    }
                    (Some(e), t) => {
                        let ret_ty = t.clone();
                        let v = self.rvalue(cx, e)?;
                        Some(self.convert(v, &ret_ty, *line)?)
                    }
                };
                HStmtKind::Return(value)
            }
            Stmt::Break { line } => {
                if cx.break_depth == 0 {
                    return Err(terr(*line, "break outside of a loop or switch"));
                }
                HStmtKind::Break
            }
            Stmt::Continue { line } => {
                if cx.loop_depth == 0 {
                    return Err(terr(*line, "continue outside of a loop"));
                }
                HStmtKind::Continue
            }
            Stmt::Block(stmts) => HStmtKind::Block(self.check_block(cx, stmts)?),
        };
        Ok(HStmt { line, kind })
    }

    /// Lowers a local initializer to a list of store expressions.
    #[allow(clippy::too_many_arguments)] // mirrors the initializer shape
    fn lower_local_init(
        &mut self,
        cx: &mut FuncCx,
        local: usize,
        ty: &Type,
        init: &Initializer,
        offset: u64,
        line: u32,
        out: &mut Vec<HExpr>,
    ) -> Result<(), Error> {
        match (ty, init) {
            (Type::Array(elem, n), Initializer::List(items)) => {
                if items.len() > *n {
                    return Err(terr(line, "too many initializers for array"));
                }
                let esize = self.structs.size_of(elem);
                for (i, item) in items.iter().enumerate() {
                    self.lower_local_init(
                        cx,
                        local,
                        elem,
                        item,
                        offset + i as u64 * esize,
                        line,
                        out,
                    )?;
                }
                // C zero-fills the remainder of a partially initialized array.
                for i in items.len()..*n {
                    let zero = self.zero_value(elem, line)?;
                    out.push(self.store_at_local(
                        cx,
                        local,
                        offset + i as u64 * esize,
                        elem,
                        zero,
                        line,
                    ));
                }
                Ok(())
            }
            (Type::Struct(name), Initializer::List(items)) => {
                let layout = self.structs.get(name).expect("validated").clone();
                if items.len() > layout.fields.len() {
                    return Err(terr(line, "too many initializers for struct"));
                }
                for (item, field) in items.iter().zip(layout.fields.iter()) {
                    self.lower_local_init(
                        cx,
                        local,
                        &field.ty,
                        item,
                        offset + field.offset,
                        line,
                        out,
                    )?;
                }
                for field in layout.fields.iter().skip(items.len()) {
                    let zero = self.zero_value(&field.ty, line)?;
                    out.push(self.store_at_local(
                        cx,
                        local,
                        offset + field.offset,
                        &field.ty,
                        zero,
                        line,
                    ));
                }
                Ok(())
            }
            (_, Initializer::List(_)) => Err(terr(line, "brace initializer on a scalar type")),
            (_, Initializer::Expr(e)) => {
                let v = self.rvalue(cx, e)?;
                let v = self.convert(v, ty, line)?;
                out.push(self.store_at_local(cx, local, offset, ty, v, line));
                Ok(())
            }
        }
    }

    fn zero_value(&self, ty: &Type, line: u32) -> Result<HExpr, Error> {
        Ok(match ty {
            t if t.is_integer() => HExpr::new(t.clone(), line, HExprKind::ConstInt(0)),
            t if t.is_float() => HExpr::new(t.clone(), line, HExprKind::ConstFloat(0.0)),
            Type::Ptr(_) => HExpr::new(ty.clone(), line, HExprKind::ConstPtr(0)),
            other => {
                return Err(terr(
                    line,
                    format!("cannot zero-initialize nested `{other}` here"),
                ))
            }
        })
    }

    fn store_at_local(
        &self,
        _cx: &FuncCx,
        local: usize,
        offset: u64,
        ty: &Type,
        value: HExpr,
        line: u32,
    ) -> HExpr {
        let base = HExpr::new(
            Type::Ptr(Box::new(ty.clone())),
            line,
            HExprKind::LocalAddr(local),
        );
        let addr = if offset == 0 {
            base
        } else {
            HExpr::new(
                Type::Ptr(Box::new(ty.clone())),
                line,
                HExprKind::PtrAdd {
                    ptr: Box::new(base),
                    index: Box::new(HExpr::new(
                        Type::Long,
                        line,
                        HExprKind::ConstInt(offset as i64),
                    )),
                    elem_size: 1,
                    negate: false,
                },
            )
        };
        HExpr::new(
            ty.clone(),
            line,
            HExprKind::Store {
                addr: Box::new(addr),
                value: Box::new(value),
            },
        )
    }

    // -- expressions ---------------------------------------------------------

    fn scalar_cond(&mut self, cx: &mut FuncCx, e: &Expr) -> Result<HExpr, Error> {
        let v = self.rvalue(cx, e)?;
        if !v.ty.is_scalar() {
            return Err(terr(
                e.line,
                format!("condition must be scalar, found `{}`", v.ty),
            ));
        }
        Ok(v)
    }

    /// Computes the address of an lvalue. Returns `(addr_expr, value_type)`;
    /// the address expression's type is `Ptr(value_type)`.
    fn lvalue(&mut self, cx: &mut FuncCx, e: &Expr) -> Result<(HExpr, Type), Error> {
        match &e.kind {
            ExprKind::Var(name) => match self.lookup_var(cx, name) {
                Some(VarRef::Local(idx)) => {
                    let ty = cx.locals[idx].ty.clone();
                    Ok((
                        HExpr::new(
                            Type::Ptr(Box::new(ty.clone())),
                            e.line,
                            HExprKind::LocalAddr(idx),
                        ),
                        ty,
                    ))
                }
                Some(VarRef::Global(idx)) => {
                    let g = &self.globals[idx];
                    let ty = g.ty.clone();
                    Ok((
                        HExpr::new(
                            Type::Ptr(Box::new(ty.clone())),
                            e.line,
                            HExprKind::ConstPtr(g.addr),
                        ),
                        ty,
                    ))
                }
                None => Err(terr(e.line, format!("unknown variable `{name}`"))),
            },
            ExprKind::Deref(inner) => {
                let p = self.rvalue(cx, inner)?;
                match p.ty.clone() {
                    Type::Ptr(t) => {
                        if *t == Type::Void {
                            Err(terr(e.line, "cannot dereference a void pointer"))
                        } else {
                            Ok((p, *t))
                        }
                    }
                    other => Err(terr(e.line, format!("cannot dereference `{other}`"))),
                }
            }
            ExprKind::Index { base, index } => {
                let b = self.rvalue(cx, base)?;
                let elem = match b.ty.clone() {
                    Type::Ptr(t) if *t != Type::Void => *t,
                    other => return Err(terr(e.line, format!("cannot index into `{other}`"))),
                };
                let idx = self.rvalue(cx, index)?;
                if !idx.ty.is_integer() {
                    return Err(terr(e.line, "array index must be an integer"));
                }
                let esize = self.structs.size_of(&elem);
                Ok((
                    HExpr::new(
                        Type::Ptr(Box::new(elem.clone())),
                        e.line,
                        HExprKind::PtrAdd {
                            ptr: Box::new(b),
                            index: Box::new(idx),
                            elem_size: esize,
                            negate: false,
                        },
                    ),
                    elem,
                ))
            }
            ExprKind::Member { base, field } => {
                let (baddr, bty) = self.lvalue(cx, base)?;
                self.member_addr(baddr, &bty, field, e.line)
            }
            ExprKind::Arrow { base, field } => {
                // An lvalue base is checked once, as `rvalue` would check
                // it: checking it twice per `->` is exponential in a chain.
                let p = if is_lvalue_form(base) {
                    let (addr, bty) = self.lvalue(cx, base)?;
                    // Friendlier diagnostic when `->` is used on a plain struct.
                    if matches!(bty, Type::Struct(_)) {
                        return Err(terr(
                            e.line,
                            "`->` requires a pointer to struct (did you mean `.`?)",
                        ));
                    }
                    self.load_lvalue(addr, bty, base.line)?
                } else {
                    self.rvalue(cx, base)?
                };
                match p.ty.clone() {
                    Type::Ptr(inner) if matches!(*inner, Type::Struct(_)) => {
                        self.member_addr(p, &inner, field, e.line)
                    }
                    other => Err(terr(
                        e.line,
                        format!("`->` requires a pointer to struct, found `{other}`"),
                    )),
                }
            }
            _ => Err(terr(e.line, "expression is not an lvalue")),
        }
    }

    fn member_addr(
        &self,
        baddr: HExpr,
        bty: &Type,
        field: &str,
        line: u32,
    ) -> Result<(HExpr, Type), Error> {
        let Type::Struct(sname) = bty else {
            return Err(terr(line, format!("`.` requires a struct, found `{bty}`")));
        };
        let layout = self.structs.get(sname).expect("validated");
        let Some(f) = layout.field(field) else {
            return Err(terr(line, format!("struct {sname} has no field `{field}`")));
        };
        let fty = f.ty.clone();
        let addr = HExpr::new(
            Type::Ptr(Box::new(fty.clone())),
            line,
            HExprKind::PtrAdd {
                ptr: Box::new(baddr),
                index: Box::new(HExpr::new(
                    Type::Long,
                    line,
                    HExprKind::ConstInt(f.offset as i64),
                )),
                elem_size: 1,
                negate: false,
            },
        );
        Ok((addr, fty))
    }

    /// Loads from an lvalue address, applying array decay (arrays yield
    /// their address as a pointer rather than loading).
    fn load_lvalue(&mut self, addr: HExpr, ty: Type, line: u32) -> Result<HExpr, Error> {
        match ty {
            Type::Array(elem, _) => Ok(HExpr::new(
                Type::Ptr(elem),
                line,
                // The address of the array *is* the decayed pointer; only
                // the static type changes.
                addr.kind,
            )),
            Type::Struct(_) => {
                // Struct rvalues only appear as assignment sources; the
                // caller (`rvalue` for Assign) intercepts that case. Any
                // other use is an error.
                Err(terr(
                    line,
                    "struct value cannot be used here (MiniC passes structs by pointer)",
                ))
            }
            t => Ok(HExpr::new(t, line, HExprKind::Load(Box::new(addr)))),
        }
    }

    /// Implicit conversion of `e` to type `to`.
    fn convert(&self, e: HExpr, to: &Type, line: u32) -> Result<HExpr, Error> {
        if &e.ty == to {
            return Ok(e);
        }
        match (&e.ty, to) {
            (a, b) if a.is_arithmetic() && b.is_arithmetic() => {
                let from = e.ty.clone();
                Ok(HExpr::new(
                    b.clone(),
                    line,
                    HExprKind::Cast {
                        from,
                        expr: Box::new(e),
                    },
                ))
            }
            (Type::Ptr(a), Type::Ptr(b)) if **a == Type::Void || **b == Type::Void => {
                Ok(HExpr::new(to.clone(), line, e.kind))
            }
            (Type::Ptr(a), Type::Ptr(b)) if a == b => Ok(e),
            (from, to) => Err(terr(
                line,
                format!("cannot implicitly convert `{from}` to `{to}`"),
            )),
        }
    }

    /// The usual arithmetic conversions: the common type of two operands.
    fn common_arith(&self, a: &Type, b: &Type) -> Type {
        if a == &Type::Double || b == &Type::Double {
            Type::Double
        } else if a == &Type::Float || b == &Type::Float {
            Type::Float
        } else if a == &Type::Long || b == &Type::Long {
            Type::Long
        } else {
            Type::Int
        }
    }

    fn rvalue(&mut self, cx: &mut FuncCx, e: &Expr) -> Result<HExpr, Error> {
        let line = e.line;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(HExpr::new(Type::Int, line, HExprKind::ConstInt(*v))),
            ExprKind::FloatLit(v) => Ok(HExpr::new(Type::Double, line, HExprKind::ConstFloat(*v))),
            ExprKind::CharLit(c) => {
                Ok(HExpr::new(Type::Char, line, HExprKind::ConstInt(*c as i64)))
            }
            ExprKind::StrLit(s) => {
                let addr = self.intern_string(s);
                Ok(HExpr::new(
                    Type::Char.ptr_to(),
                    line,
                    HExprKind::ConstPtr(addr),
                ))
            }
            ExprKind::Null => Ok(HExpr::new(
                Type::Void.ptr_to(),
                line,
                HExprKind::ConstPtr(0),
            )),
            ExprKind::Var(_)
            | ExprKind::Deref(_)
            | ExprKind::Index { .. }
            | ExprKind::Member { .. }
            | ExprKind::Arrow { .. } => {
                let (addr, ty) = self.lvalue(cx, e)?;
                self.load_lvalue(addr, ty, line)
            }
            ExprKind::AddrOf(inner) => {
                let (addr, ty) = self.lvalue(cx, inner)?;
                Ok(HExpr::new(Type::Ptr(Box::new(ty)), line, addr.kind))
            }
            ExprKind::Assign { op, target, value } => {
                let (addr, ty) = self.lvalue(cx, target)?;
                if let Type::Struct(name) = &ty {
                    if *op != AssignOp::Assign {
                        return Err(terr(line, "compound assignment on a struct"));
                    }
                    let (src, sty) = self.lvalue(cx, value)?;
                    if sty != ty {
                        return Err(terr(
                            line,
                            format!("cannot assign `{sty}` to `struct {name}`"),
                        ));
                    }
                    let size = self.structs.size_of(&ty);
                    return Ok(HExpr::new(
                        Type::Void,
                        line,
                        HExprKind::CopyStruct {
                            dst: Box::new(addr),
                            src: Box::new(src),
                            size,
                        },
                    ));
                }
                if matches!(ty, Type::Array(..)) {
                    return Err(terr(line, "cannot assign to an array"));
                }
                let rhs = self.rvalue(cx, value)?;
                let stored = if *op == AssignOp::Assign {
                    self.convert(rhs, &ty, line)?
                } else {
                    // Compound assignment: load, combine, store.
                    let binop = match op {
                        AssignOp::Add => BinOp::Add,
                        AssignOp::Sub => BinOp::Sub,
                        AssignOp::Mul => BinOp::Mul,
                        AssignOp::Div => BinOp::Div,
                        AssignOp::Rem => BinOp::Rem,
                        AssignOp::Assign => unreachable!("handled above"),
                    };
                    let current =
                        HExpr::new(ty.clone(), line, HExprKind::Load(Box::new(addr.clone())));
                    let combined = self.binary_typed(binop, current, rhs, line)?;
                    self.convert(combined, &ty, line)?
                };
                Ok(HExpr::new(
                    ty,
                    line,
                    HExprKind::Store {
                        addr: Box::new(addr),
                        value: Box::new(stored),
                    },
                ))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.rvalue(cx, lhs)?;
                let r = self.rvalue(cx, rhs)?;
                self.binary_typed(*op, l, r, line)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.rvalue(cx, operand)?;
                match op {
                    UnOp::Neg => {
                        if !v.ty.is_arithmetic() {
                            return Err(terr(line, format!("cannot negate `{}`", v.ty)));
                        }
                        let ty = if v.ty.is_float() {
                            v.ty.clone()
                        } else {
                            self.common_arith(&v.ty, &Type::Int)
                        };
                        let v = self.convert(v, &ty, line)?;
                        Ok(HExpr::new(
                            ty,
                            line,
                            HExprKind::Unary {
                                op: UnOp::Neg,
                                operand: Box::new(v),
                            },
                        ))
                    }
                    UnOp::Not => {
                        if !v.ty.is_scalar() {
                            return Err(terr(line, format!("cannot apply `!` to `{}`", v.ty)));
                        }
                        Ok(HExpr::new(
                            Type::Int,
                            line,
                            HExprKind::Unary {
                                op: UnOp::Not,
                                operand: Box::new(v),
                            },
                        ))
                    }
                    UnOp::BitNot => {
                        if !v.ty.is_integer() {
                            return Err(terr(line, format!("cannot apply `~` to `{}`", v.ty)));
                        }
                        let ty = self.common_arith(&v.ty, &Type::Int);
                        let v = self.convert(v, &ty, line)?;
                        Ok(HExpr::new(
                            ty,
                            line,
                            HExprKind::Unary {
                                op: UnOp::BitNot,
                                operand: Box::new(v),
                            },
                        ))
                    }
                }
            }
            ExprKind::IncDec {
                delta,
                prefix,
                target,
            } => {
                let (addr, ty) = self.lvalue(cx, target)?;
                let elem_size = match &ty {
                    Type::Ptr(p) if **p != Type::Void => Some(self.structs.size_of(p)),
                    Type::Ptr(_) => return Err(terr(line, "cannot increment a void pointer")),
                    t if t.is_arithmetic() => None,
                    other => return Err(terr(line, format!("cannot increment `{other}`"))),
                };
                Ok(HExpr::new(
                    ty,
                    line,
                    HExprKind::IncDec {
                        addr: Box::new(addr),
                        delta: *delta,
                        prefix: *prefix,
                        elem_size,
                    },
                ))
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.scalar_cond(cx, cond)?;
                let t = self.rvalue(cx, then_expr)?;
                let f = self.rvalue(cx, else_expr)?;
                let ty = if t.ty.is_arithmetic() && f.ty.is_arithmetic() {
                    self.common_arith(&t.ty, &f.ty)
                } else if t.ty == f.ty {
                    t.ty.clone()
                } else if t.ty.is_pointer() && f.ty.is_pointer() {
                    // One side void* (e.g. NULL): adopt the other side.
                    if t.ty == Type::Void.ptr_to() {
                        f.ty.clone()
                    } else {
                        t.ty.clone()
                    }
                } else {
                    return Err(terr(
                        line,
                        format!("incompatible ternary arms `{}` and `{}`", t.ty, f.ty),
                    ));
                };
                let t = self.convert(t, &ty, line)?;
                let f = self.convert(f, &ty, line)?;
                Ok(HExpr::new(
                    ty,
                    line,
                    HExprKind::Ternary {
                        cond: Box::new(c),
                        then_expr: Box::new(t),
                        else_expr: Box::new(f),
                    },
                ))
            }
            ExprKind::Call { callee, args } => self.check_call(cx, callee, args, line),
            ExprKind::SizeofType(ty) => {
                self.validate_type(ty, line, false)?;
                Ok(HExpr::new(
                    Type::Long,
                    line,
                    HExprKind::ConstInt(self.structs.size_of(ty) as i64),
                ))
            }
            ExprKind::SizeofExpr(inner) => {
                // `sizeof` only needs the operand's type; prefer the lvalue
                // type so arrays (and structs) report their full size rather
                // than the decayed pointer's.
                let size = match self.lvalue(cx, inner.as_ref()) {
                    Ok((_, lty)) => self.structs.size_of(&lty),
                    Err(_) => {
                        let v = self.rvalue(cx, inner.as_ref())?;
                        self.structs.size_of(&v.ty)
                    }
                };
                Ok(HExpr::new(
                    Type::Long,
                    line,
                    HExprKind::ConstInt(size as i64),
                ))
            }
            ExprKind::Cast { ty, expr } => {
                self.validate_type(ty, line, true)?;
                let v = self.rvalue(cx, expr)?;
                let from = v.ty.clone();
                let ok = (from.is_arithmetic() && ty.is_arithmetic())
                    || (from.is_pointer() && ty.is_pointer())
                    || (from.is_integer() && ty.is_pointer())
                    || (from.is_pointer() && ty.is_integer());
                if !ok {
                    return Err(terr(line, format!("invalid cast from `{from}` to `{ty}`")));
                }
                Ok(HExpr::new(
                    ty.clone(),
                    line,
                    HExprKind::Cast {
                        from,
                        expr: Box::new(v),
                    },
                ))
            }
        }
    }

    fn binary_typed(&mut self, op: BinOp, l: HExpr, r: HExpr, line: u32) -> Result<HExpr, Error> {
        use BinOp::*;
        if op.is_logical() {
            if !l.ty.is_scalar() || !r.ty.is_scalar() {
                return Err(terr(line, "logical operators require scalar operands"));
            }
            return Ok(HExpr::new(
                Type::Int,
                line,
                HExprKind::Logical {
                    is_and: op == And,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                },
            ));
        }
        // Pointer arithmetic.
        match op {
            Add | Sub => {
                let (lp, rp) = (l.ty.is_pointer(), r.ty.is_pointer());
                if lp && rp {
                    if op == Sub {
                        let elem = l.ty.pointee().expect("pointer").clone();
                        if l.ty != r.ty {
                            return Err(terr(line, "pointer difference of incompatible types"));
                        }
                        if elem == Type::Void {
                            return Err(terr(line, "arithmetic on void pointers"));
                        }
                        let esize = self.structs.size_of(&elem);
                        return Ok(HExpr::new(
                            Type::Long,
                            line,
                            HExprKind::PtrDiff {
                                lhs: Box::new(l),
                                rhs: Box::new(r),
                                elem_size: esize,
                            },
                        ));
                    }
                    return Err(terr(line, "cannot add two pointers"));
                }
                if lp || rp {
                    let (ptr, idx) = if lp { (l, r) } else { (r, l) };
                    if op == Sub && !lp {
                        return Err(terr(line, "cannot subtract a pointer from an integer"));
                    }
                    if !idx.ty.is_integer() {
                        return Err(terr(line, "pointer offset must be an integer"));
                    }
                    let elem = ptr.ty.pointee().expect("pointer").clone();
                    if elem == Type::Void {
                        return Err(terr(line, "arithmetic on void pointers"));
                    }
                    let esize = self.structs.size_of(&elem);
                    let ty = ptr.ty.clone();
                    return Ok(HExpr::new(
                        ty,
                        line,
                        HExprKind::PtrAdd {
                            ptr: Box::new(ptr),
                            index: Box::new(idx),
                            elem_size: esize,
                            negate: op == Sub,
                        },
                    ));
                }
            }
            _ => {}
        }
        // Pointer comparison.
        if op.is_comparison() && l.ty.is_pointer() && r.ty.is_pointer() {
            let compatible =
                l.ty == r.ty || l.ty == Type::Void.ptr_to() || r.ty == Type::Void.ptr_to();
            if !compatible {
                return Err(terr(
                    line,
                    format!(
                        "comparison of incompatible pointers `{}` and `{}`",
                        l.ty, r.ty
                    ),
                ));
            }
            return Ok(HExpr::new(
                Type::Int,
                line,
                HExprKind::Binary {
                    op,
                    operand_ty: Type::Void.ptr_to(),
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                },
            ));
        }
        if !l.ty.is_arithmetic() || !r.ty.is_arithmetic() {
            return Err(terr(
                line,
                format!("invalid operands `{}` and `{}`", l.ty, r.ty),
            ));
        }
        if matches!(op, Rem | Shl | Shr | BitAnd | BitOr | BitXor)
            && (l.ty.is_float() || r.ty.is_float())
        {
            return Err(terr(line, "integer operator applied to floating point"));
        }
        let common = self.common_arith(&l.ty, &r.ty);
        let l = self.convert(l, &common, line)?;
        let r = self.convert(r, &common, line)?;
        let result_ty = if op.is_comparison() {
            Type::Int
        } else {
            common.clone()
        };
        Ok(HExpr::new(
            result_ty,
            line,
            HExprKind::Binary {
                op,
                operand_ty: common,
                lhs: Box::new(l),
                rhs: Box::new(r),
            },
        ))
    }

    fn check_call(
        &mut self,
        cx: &mut FuncCx,
        callee: &str,
        args: &[Expr],
        line: u32,
    ) -> Result<HExpr, Error> {
        // User functions shadow intrinsics.
        if let Some(&idx) = self.sig_names.get(callee) {
            let nparams = self.sigs[idx].params.len();
            if args.len() != nparams {
                return Err(terr(
                    line,
                    format!(
                        "`{callee}` expects {nparams} argument(s), got {}",
                        args.len()
                    ),
                ));
            }
            let mut lowered = Vec::with_capacity(args.len());
            for (i, a) in args.iter().enumerate() {
                let v = self.rvalue(cx, a)?;
                let pty = self.sigs[idx].params[i].clone();
                lowered.push(self.convert(v, &pty, line)?);
            }
            let ret = self.sigs[idx].ret.clone();
            return Ok(HExpr::new(
                ret,
                line,
                HExprKind::Call {
                    target: CallTarget::Function(idx),
                    args: lowered,
                },
            ));
        }
        let Some(intr) = Intrinsic::by_name(callee) else {
            return Err(terr(line, format!("unknown function `{callee}`")));
        };
        let mut lowered: Vec<HExpr> = args
            .iter()
            .map(|a| self.rvalue(cx, a))
            .collect::<Result<_, _>>()?;
        let expect = |n: usize| -> Result<(), Error> {
            if args.len() == n {
                Ok(())
            } else {
                Err(terr(
                    line,
                    format!("`{callee}` expects {n} argument(s), got {}", args.len()),
                ))
            }
        };
        let ty = match intr {
            Intrinsic::Malloc => {
                expect(1)?;
                lowered[0] = self.convert(lowered[0].clone(), &Type::Long, line)?;
                Type::Void.ptr_to()
            }
            Intrinsic::Calloc => {
                expect(2)?;
                for a in lowered.iter_mut() {
                    *a = self.convert(a.clone(), &Type::Long, line)?;
                }
                Type::Void.ptr_to()
            }
            Intrinsic::Realloc => {
                expect(2)?;
                if !lowered[0].ty.is_pointer() {
                    return Err(terr(line, "realloc requires a pointer first argument"));
                }
                lowered[1] = self.convert(lowered[1].clone(), &Type::Long, line)?;
                Type::Void.ptr_to()
            }
            Intrinsic::Free => {
                expect(1)?;
                if !lowered[0].ty.is_pointer() {
                    return Err(terr(line, "free requires a pointer argument"));
                }
                Type::Void
            }
            Intrinsic::Printf => {
                if lowered.is_empty() {
                    return Err(terr(line, "printf requires a format string"));
                }
                if lowered[0].ty != Type::Char.ptr_to() {
                    return Err(terr(line, "printf format must be a char*"));
                }
                // Default promotions: float -> double, char -> int.
                for a in lowered.iter_mut().skip(1) {
                    if a.ty == Type::Float {
                        *a = self.convert(a.clone(), &Type::Double, line)?;
                    } else if a.ty == Type::Char {
                        *a = self.convert(a.clone(), &Type::Int, line)?;
                    } else if !a.ty.is_scalar() {
                        return Err(terr(line, "printf arguments must be scalars"));
                    }
                }
                Type::Int
            }
            Intrinsic::Puts => {
                expect(1)?;
                if lowered[0].ty != Type::Char.ptr_to() {
                    return Err(terr(line, "puts requires a char*"));
                }
                Type::Int
            }
            Intrinsic::Putchar => {
                expect(1)?;
                lowered[0] = self.convert(lowered[0].clone(), &Type::Int, line)?;
                Type::Int
            }
        };
        Ok(HExpr::new(
            ty,
            line,
            HExprKind::Call {
                target: CallTarget::Intrinsic(intr),
                args: lowered,
            },
        ))
    }
}

enum VarRef {
    Local(usize),
    Global(usize),
}

enum ConstVal {
    Int(i64),
    Float(f64),
    Ptr(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<CheckedProgram, Error> {
        check(&parse(lex(src).unwrap()).unwrap())
    }

    fn check_ok(src: &str) -> CheckedProgram {
        match check_src(src) {
            Ok(p) => p,
            Err(e) => panic!("expected success, got: {e}"),
        }
    }

    fn check_err(src: &str) -> Error {
        match check_src(src) {
            Ok(_) => panic!("expected a type error"),
            Err(e) => e,
        }
    }

    #[test]
    fn accepts_basic_program() {
        let p =
            check_ok("int add(int a, int b) { return a + b; } int main() { return add(1, 2); }");
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[0].nparams, 2);
    }

    #[test]
    fn requires_main() {
        let e = check_err("int f() { return 0; }");
        assert!(e.message().contains("main"));
    }

    #[test]
    fn frame_layout_is_aligned() {
        let p = check_ok("int main() { char c; int x; double d; return 0; }");
        let f = &p.functions[0];
        let off: Vec<u64> = f.locals.iter().map(|l| l.offset).collect();
        assert_eq!(off, vec![0, 4, 8]);
        assert_eq!(f.frame_size % 16, 0);
    }

    #[test]
    fn rejects_shadowing() {
        let e = check_err("int main() { int x; { int x; } return 0; }");
        assert!(e.message().contains("shadowing"), "{e}");
    }

    #[test]
    fn rejects_unknown_variable_and_function() {
        assert!(check_err("int main() { return y; }")
            .message()
            .contains("unknown variable"));
        assert!(check_err("int main() { return g(); }")
            .message()
            .contains("unknown function"));
    }

    #[test]
    fn pointer_arithmetic_types() {
        check_ok("int main() { int a[4]; int* p = a; p = p + 1; long d = p - a; return (int)d; }");
        assert!(
            check_err("int main() { int* p; int* q; p = p + q; return 0; }")
                .message()
                .contains("add two pointers")
        );
        assert!(
            check_err("int main() { double x; int* p; p = p + x; return 0; }")
                .message()
                .contains("integer")
        );
    }

    #[test]
    fn void_pointer_rules() {
        check_ok("int main() { int* p = malloc(4); free(p); return 0; }");
        assert!(check_err("int main() { void* p = NULL; return *p; }")
            .message()
            .contains("void"));
        assert!(
            check_err("int main() { void* p = NULL; p = p + 1; return 0; }")
                .message()
                .contains("void")
        );
    }

    #[test]
    fn incompatible_pointer_assignment_rejected() {
        let e = check_err("int main() { int* p; double* q = p; return 0; }");
        assert!(e.message().contains("convert"));
    }

    #[test]
    fn struct_member_resolution() {
        let p = check_ok(
            "struct point { int x; int y; };\n\
             int main() { struct point p; p.x = 1; p.y = p.x + 2; return p.y; }",
        );
        assert!(p.structs.get("point").is_some());
        assert!(
            check_err("struct point { int x; };\nint main() { struct point p; return p.z; }")
                .message()
                .contains("no field")
        );
    }

    #[test]
    fn arrow_requires_pointer() {
        let e = check_err("struct s { int a; };\nint main() { struct s v; return v->a; }");
        assert!(e.message().contains("->"));
    }

    #[test]
    fn self_referential_struct_allowed() {
        check_ok(
            "struct node { int v; struct node* next; };\n\
             int main() { struct node n; n.next = NULL; return n.v; }",
        );
    }

    #[test]
    fn incomplete_struct_field_rejected() {
        let e = check_err(
            "struct a { struct b inner; };\nstruct b { int x; };\nint main() { return 0; }",
        );
        assert!(e.message().contains("incomplete"));
    }

    #[test]
    fn struct_by_value_params_rejected() {
        let e = check_err(
            "struct s { int a; };\nint f(struct s v) { return 0; }\nint main() { return 0; }",
        );
        assert!(e.message().contains("struct-by-value"));
    }

    #[test]
    fn break_continue_outside_loop() {
        assert!(check_err("int main() { break; return 0; }")
            .message()
            .contains("break"));
        assert!(check_err("int main() { continue; return 0; }")
            .message()
            .contains("continue"));
    }

    #[test]
    fn return_type_checking() {
        assert!(check_err("void f() { return 1; } int main() { return 0; }")
            .message()
            .contains("void"));
        assert!(check_err("int main() { return; }")
            .message()
            .contains("without value"));
        check_ok("int main() { return 2.5; }"); // implicit double -> int
    }

    #[test]
    fn global_layout_and_initializers() {
        let p = check_ok(
            "int g = 3;\nchar* msg = \"hi\";\ndouble pi = 3.14;\nint arr[3] = {1, 2};\n\
             int main() { return g; }",
        );
        assert_eq!(p.globals.len(), 4);
        assert_eq!(p.globals[0].addr, GLOBAL_BASE);
        assert!(p.globals[0].init.contains(&InitWrite::Int {
            offset: 0,
            size: 4,
            value: 3
        }));
        assert_eq!(p.strings.len(), 1);
        assert!(p.global_segment_size >= 4 + 8 + 8 + 12);
        // arr gets two explicit writes (zero-fill is implicit in the image).
        assert_eq!(p.globals[3].init.len(), 2);
    }

    #[test]
    fn non_constant_global_initializer_rejected() {
        let e = check_err("int g = f(); int main() { return 0; }");
        assert!(e.message().contains("constant"));
    }

    #[test]
    fn sizeof_values() {
        let p = check_ok("int main() { long a = sizeof(int); int arr[5]; long b = sizeof arr; long c = sizeof(double*); return 0; }");
        // Find the ConstInt stores: 4, 20, 8.
        let f = &p.functions[0];
        let mut consts = Vec::new();
        fn walk(stmts: &[HStmt], out: &mut Vec<i64>) {
            for s in stmts {
                match &s.kind {
                    HStmtKind::Expr(e) => collect(e, out),
                    HStmtKind::Block(b) => walk(b, out),
                    _ => {}
                }
            }
        }
        fn collect(e: &HExpr, out: &mut Vec<i64>) {
            if let HExprKind::Store { value, .. } = &e.kind {
                if let HExprKind::Cast { expr, .. } = &value.kind {
                    if let HExprKind::ConstInt(v) = expr.kind {
                        out.push(v);
                    }
                }
                if let HExprKind::ConstInt(v) = value.kind {
                    out.push(v);
                }
            }
        }
        walk(&f.body, &mut consts);
        assert!(consts.contains(&4));
        assert!(consts.contains(&20));
        assert!(consts.contains(&8));
    }

    #[test]
    fn printf_checking() {
        check_ok("int main() { printf(\"%d %s\\n\", 1, \"x\"); return 0; }");
        let e = check_err("int main() { printf(42); return 0; }");
        assert!(e.message().contains("format"));
    }

    #[test]
    fn intrinsic_shadowed_by_user_function() {
        let p = check_ok("int malloc(int x) { return x; } int main() { return malloc(3); }");
        let main = p.function("main").unwrap().1;
        fn first_call(stmts: &[HStmt]) -> Option<CallTarget> {
            for s in stmts {
                if let HStmtKind::Return(Some(e)) = &s.kind {
                    if let HExprKind::Call { target, .. } = &e.kind {
                        return Some(*target);
                    }
                }
            }
            None
        }
        assert_eq!(first_call(&main.body), Some(CallTarget::Function(0)));
    }

    #[test]
    fn for_loop_lowering() {
        let p = check_ok("int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; return s; }");
        let f = &p.functions[0];
        // The for becomes Block[decl-block, While{step: Some}].
        let has_while_with_step = f.body.iter().any(|s| match &s.kind {
            HStmtKind::Block(inner) => inner
                .iter()
                .any(|s| matches!(&s.kind, HStmtKind::While { step: Some(_), .. })),
            _ => false,
        });
        assert!(has_while_with_step);
    }

    #[test]
    fn array_assignment_rejected() {
        let e = check_err("int main() { int a[2]; int b[2]; a = b; return 0; }");
        assert!(e.message().contains("array"));
    }

    #[test]
    fn ternary_common_types() {
        check_ok(
            "int main() { int x = 1; double d = x ? 1 : 2.5; int* p = x ? NULL : &x; return 0; }",
        );
        let e = check_err("int main() { int x; int* p; double d = x ? x : p; return 0; }");
        assert!(e.message().contains("ternary"));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        assert!(check_err("int g; int g; int main() { return 0; }")
            .message()
            .contains("duplicate"));
        assert!(
            check_err("int f() { return 0; } int f() { return 1; } int main() { return 0; }")
                .message()
                .contains("duplicate")
        );
        assert!(
            check_err("struct s { int a; }; struct s { int b; }; int main() { return 0; }")
                .message()
                .contains("duplicate")
        );
    }

    #[test]
    fn decl_line_recorded_for_inspection() {
        let p = check_ok("int main() {\n int a = 1;\n int b = 2;\n return a + b;\n}");
        let f = &p.functions[0];
        assert_eq!(f.locals[0].decl_line, 2);
        assert_eq!(f.locals[1].decl_line, 3);
        assert_eq!(f.locals[0].scope_end, u32::MAX);
    }

    #[test]
    fn block_locals_end_with_their_block() {
        let src =
            "int main() {\nint i = 0;\nwhile (i < 2) {\nint x = i;\nif (x) {\nint y = 1;\n}\n\
                   i = i + 1;\n}\nfor (int k = 0; k < 2; k = k + 1) {\n}\nreturn i;\n}";
        let p = check_ok(src);
        let local = |name: &str| {
            p.functions[0]
                .locals
                .iter()
                .find(|l| l.name == name)
                .unwrap()
        };
        assert_eq!(local("i").scope_end, u32::MAX);
        assert_eq!(local("x").scope_end, 8);
        assert_eq!(local("y").scope_end, 6);
        assert_eq!(local("k").scope_end, 10);
        let x = local("x");
        assert!(!x.visible_at(3) && x.visible_at(4) && x.visible_at(8) && !x.visible_at(9));
    }
}
