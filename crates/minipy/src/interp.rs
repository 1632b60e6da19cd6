//! The MiniPy tree-walking interpreter with a `sys.settrace`-style hook.
//!
//! The interpreter calls the registered [`Tracer`] before every statement
//! line ([`TraceEvent::Line`]), right after entering a function with its
//! arguments bound ([`TraceEvent::Call`]), right before a function returns
//! with its frame still live ([`TraceEvent::Return`]), and whenever output
//! is produced. The tracer receives a [`TraceCtx`] granting full read
//! access to the frames and the heap — this is what the paper's Python
//! tracker builds its inspection interface on, and returning
//! [`TraceAction::Stop`] is how `tracker.terminate()` works.

use crate::ast::*;
use crate::value::{Heap, ObjRef, PyVal};
use crate::Error;
use std::rc::Rc;

/// What a [`Tracer`] tells the interpreter to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAction {
    /// Keep executing.
    Continue,
    /// Abort execution (the run returns [`Error::Stopped`]).
    Stop,
}

/// Events delivered to a [`Tracer`] (the `sys.settrace` analogue).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// About to execute the statement starting at `line`.
    Line {
        /// 1-based source line.
        line: u32,
    },
    /// Entered `function`; parameters are bound in the new frame.
    Call {
        /// Function name.
        function: Rc<str>,
        /// Line of the `def` header.
        line: u32,
        /// 0-based depth (module frame is 0).
        depth: u32,
    },
    /// `function` is about to return `value`; its frame is still live.
    Return {
        /// Function name.
        function: Rc<str>,
        /// Line of the returning statement.
        line: u32,
        /// 0-based depth of the returning frame.
        depth: u32,
        /// The return value.
        value: ObjRef,
    },
    /// The program printed `text`.
    Output {
        /// The printed text (including the newline for `print`).
        text: String,
    },
}

/// Read access to the paused interpreter, passed to every trace call.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx<'a> {
    /// The object heap.
    pub heap: &'a Heap,
    /// Live frames, module frame first.
    pub frames: &'a [PyFrame],
    /// The binding layout: it changes whenever a frame is pushed or
    /// popped or a frame binds a new name, so while it stands, a name
    /// [`TraceCtx::locate`] found stays at the same [`Place`], and an
    /// unbound name stays unbound.
    pub layout: u64,
}

/// Where a name is bound: a frame (module frame 0) and the binding's slot
/// in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Place {
    frame: usize,
    slot: usize,
}

impl<'a> TraceCtx<'a> {
    /// Looks up a variable: first in the innermost frame, then in the
    /// module frame. `frame_name::var` syntax addresses a specific frame.
    pub fn lookup(&self, name: &str) -> Option<ObjRef> {
        match name.split_once("::") {
            Some((frame_name, var)) => self.lookup_in(Some(frame_name), var),
            None => self.lookup_in(None, name),
        }
    }

    /// [`TraceCtx::lookup`] with the frame qualifier already split off:
    /// `Some(frame_name)` looks only at the innermost frame of that name.
    pub fn lookup_in(&self, frame_name: Option<&str>, var: &str) -> Option<ObjRef> {
        self.locate(frame_name, var).map(|place| self.at(place))
    }

    /// Where [`TraceCtx::lookup_in`] finds `var`.
    pub fn locate(&self, frame_name: Option<&str>, var: &str) -> Option<Place> {
        let in_frame = |frame: usize| {
            let slot = self.frames[frame].locals.position(var)?;
            Some(Place { frame, slot })
        };
        if let Some(frame_name) = frame_name {
            let frame = self.frames.iter().rposition(|f| f.name() == frame_name)?;
            return in_frame(frame);
        }
        in_frame(self.frames.len().checked_sub(1)?).or_else(|| in_frame(0))
    }

    /// The object bound at `place`, which [`TraceCtx::locate`] found
    /// under the current layout.
    pub fn at(&self, place: Place) -> ObjRef {
        self.frames[place.frame].locals.entries[place.slot].value
    }
}

/// A tracer: the `sys.settrace` callback.
pub trait Tracer {
    /// Called at every trace point; return [`TraceAction::Stop`] to abort.
    fn trace(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction;
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Exit code (always 0 for a MiniPy program that finishes).
    pub exit_code: i64,
    /// Everything printed.
    pub output: String,
}

/// An ordered name → object table (declaration order preserved for
/// inspection, like the paper's tools expect). The interpreter finds a
/// binding by its symbol.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    entries: Vec<Binding>,
}

#[derive(Debug, Clone)]
struct Binding {
    sym: Sym,
    name: Rc<str>,
    value: ObjRef,
}

impl NameTable {
    fn get(&self, sym: Sym) -> Option<ObjRef> {
        self.entries.iter().find(|b| b.sym == sym).map(|b| b.value)
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|b| *b.name == *name)
    }

    /// Binds `sym`, whose text `names` holds; returns whether that
    /// added a name.
    fn set(&mut self, sym: Sym, names: &[Rc<str>], value: ObjRef) -> bool {
        if let Some(b) = self.entries.iter_mut().find(|b| b.sym == sym) {
            b.value = value;
            return false;
        }
        self.entries.push(Binding {
            sym,
            name: names[sym.0 as usize].clone(),
            value,
        });
        true
    }

    /// Iterates bindings in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ObjRef)> {
        self.entries.iter().map(|b| (&*b.name, b.value))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One activation record of the MiniPy interpreter.
#[derive(Debug, Clone)]
pub struct PyFrame {
    name: Rc<str>,
    locals: NameTable,
    globals_decl: Vec<Sym>,
    line: u32,
}

impl PyFrame {
    fn new(name: impl Into<Rc<str>>, line: u32) -> Self {
        PyFrame {
            name: name.into(),
            locals: NameTable::default(),
            globals_decl: Vec::new(),
            line,
        }
    }

    /// The function name (`<module>` for the module frame).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The frame's current line.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Looks a local binding up.
    pub fn get(&self, name: &str) -> Option<ObjRef> {
        let slot = self.locals.position(name)?;
        Some(self.locals.entries[slot].value)
    }

    /// Iterates bindings in declaration order.
    pub fn vars(&self) -> impl Iterator<Item = (&str, ObjRef)> {
        self.locals.iter()
    }
}

/// A defined function. Calls share its parts instead of copying them.
#[derive(Debug, Clone)]
struct FuncDef {
    name: Rc<str>,
    params: Rc<[Ident]>,
    body: Rc<[Stmt]>,
    line: u32,
}

#[derive(Debug, Clone)]
struct ClassDef {
    name: String,
    methods: Vec<(String, usize)>,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(ObjRef),
}

/// The interpreter. Create with [`Interp::new`], drive with [`Interp::run`].
#[derive(Debug)]
pub struct Interp {
    module: Module,
    /// The module's names by symbol, shared with the frames' bindings.
    names: Vec<Rc<str>>,
    heap: Heap,
    funcs: Vec<FuncDef>,
    classes: Vec<ClassDef>,
    frames: Vec<PyFrame>,
    output: String,
    none_ref: ObjRef,
    true_ref: ObjRef,
    false_ref: ObjRef,
    /// Temporary roots: the values unfinished statements have computed
    /// and still hold while user code may run. Each statement truncates
    /// the stack back to its depth at entry.
    roots: Vec<ObjRef>,
    /// Bumped by every frame push and pop and every new binding
    /// ([`TraceCtx::layout`]).
    layout: u64,
    max_steps: Option<u64>,
    steps: u64,
    max_depth: usize,
}

impl Interp {
    /// Creates an interpreter for a parsed module.
    pub fn new(module: Module) -> Self {
        Interp::with_heap(module, Heap::new())
    }

    fn with_heap(module: Module, mut heap: Heap) -> Self {
        let none_ref = heap.alloc(PyVal::None);
        let true_ref = heap.alloc(PyVal::Bool(true));
        let false_ref = heap.alloc(PyVal::Bool(false));
        Interp {
            names: BUILTINS
                .iter()
                .copied()
                .chain(module.names.iter().map(String::as_str))
                .map(Rc::from)
                .collect(),
            module,
            heap,
            funcs: Vec::new(),
            classes: Vec::new(),
            frames: vec![PyFrame::new("<module>", 1)],
            output: String::new(),
            none_ref,
            true_ref,
            false_ref,
            roots: Vec::new(),
            layout: 0,
            max_steps: None,
            steps: 0,
            max_depth: 100,
        }
    }

    /// Sets the recursion limit (default 100 — each MiniPy frame consumes a
    /// deep chain of interpreter frames, so callers raising this should run
    /// the interpreter on a thread with a large stack, as the thread-based
    /// tracker does).
    pub fn set_max_depth(&mut self, depth: usize) {
        self.max_depth = depth.max(2);
    }

    /// Bounds the number of statements executed (safety valve for loops).
    pub fn set_max_steps(&mut self, limit: Option<u64>) {
        self.max_steps = limit;
    }

    /// The heap (inspection).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Live frames (inspection).
    pub fn frames(&self) -> &[PyFrame] {
        &self.frames
    }

    /// Output so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Statements executed so far (bench metric).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs the module to completion under `tracer`.
    ///
    /// # Errors
    ///
    /// Returns runtime errors ([`Error::Runtime`]) or [`Error::Stopped`]
    /// when the tracer aborts.
    pub fn run(&mut self, tracer: &mut dyn Tracer) -> Result<RunOutcome, Error> {
        let body = std::mem::take(&mut self.module.body);
        let flow = self.exec_block(&body, tracer)?;
        self.module.body = body;
        debug_assert!(matches!(flow, Flow::Normal | Flow::Return(_)));
        Ok(RunOutcome {
            exit_code: 0,
            output: self.output.clone(),
        })
    }

    fn rerr(&self, line: u32, message: impl Into<String>) -> Error {
        Error::Runtime {
            line,
            message: message.into(),
        }
    }

    fn alloc(&mut self, v: PyVal, line: u32) -> Result<ObjRef, Error> {
        let r = self.heap.try_alloc(v);
        r.ok_or_else(|| self.rerr(line, "MemoryError: no object index is left to issue"))
    }

    /// Frees what nothing can reach. The roots are every frame's
    /// bindings, the shared `None`/`True`/`False` and the temporary roots.
    fn collect(&mut self) {
        let bindings = self.frames.iter().flat_map(|f| f.vars().map(|(_, r)| r));
        let shared = [self.none_ref, self.true_ref, self.false_ref];
        let temporaries = self.roots.iter().copied();
        self.heap.collect(bindings.chain(shared).chain(temporaries));
    }

    /// What a tracer sees of the interpreter now.
    pub fn trace_ctx(&self) -> TraceCtx<'_> {
        TraceCtx {
            heap: &self.heap,
            frames: &self.frames,
            layout: self.layout,
        }
    }

    fn emit(&self, tracer: &mut dyn Tracer, event: TraceEvent) -> Result<(), Error> {
        match tracer.trace(&event, &self.trace_ctx()) {
            TraceAction::Continue => Ok(()),
            TraceAction::Stop => Err(Error::Stopped),
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], tracer: &mut dyn Tracer) -> Result<Flow, Error> {
        for s in stmts {
            match self.exec_stmt(s, tracer)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs one statement. A due collection runs first, so it never sees
    /// a value held only by a caller's Rust locals: each of those is a
    /// temporary root of an enclosing, unfinished statement.
    fn exec_stmt(&mut self, s: &Stmt, tracer: &mut dyn Tracer) -> Result<Flow, Error> {
        if self.heap.wants_collection() {
            self.collect();
        }
        let depth = self.roots.len();
        let flow = self.run_stmt(s, tracer);
        self.roots.truncate(depth);
        flow
    }

    fn run_stmt(&mut self, s: &Stmt, tracer: &mut dyn Tracer) -> Result<Flow, Error> {
        self.steps += 1;
        if let Some(limit) = self.max_steps {
            if self.steps > limit {
                return Err(self.rerr(s.line, "RuntimeError: step limit exceeded"));
            }
        }
        self.frames.last_mut().expect("frame").line = s.line;
        self.emit(tracer, TraceEvent::Line { line: s.line })?;
        match &s.kind {
            StmtKind::Expr(e) => {
                self.eval(e, tracer)?;
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, value } => {
                let v = self.eval_held(value, target.may_call(), tracer)?;
                self.assign(target, v, s.line, tracer)?;
                Ok(Flow::Normal)
            }
            StmtKind::AugAssign { target, op, value } => {
                // Evaluate target as expression, combine, store back.
                let current = match target {
                    Target::Name(n) => self.load_name(n, s.line)?,
                    Target::Index { base, index } => {
                        let b = self.eval_held(base, index.may_call, tracer)?;
                        let i = self.eval(index, tracer)?;
                        self.index_get(b, i, s.line)?
                    }
                    Target::Attr { base, attr } => {
                        let b = self.eval(base, tracer)?;
                        self.attr_get(b, attr, s.line)?
                    }
                    Target::Tuple(_) => {
                        return Err(self.rerr(s.line, "SyntaxError: invalid augmented target"))
                    }
                };
                // Held across the value's calls, and the result across
                // the calls of the target's second evaluation.
                self.hold(current, value.may_call);
                let rhs = self.eval(value, tracer)?;
                let combined = self.binary(*op, current, rhs, s.line)?;
                self.hold(combined, target.may_call());
                self.assign(target, combined, s.line, tracer)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { test, body, orelse } => {
                let t = self.eval(test, tracer)?;
                if self.heap.get(t).is_truthy() {
                    self.exec_block(body, tracer)
                } else {
                    self.exec_block(orelse, tracer)
                }
            }
            StmtKind::While { test, body } => {
                // The statement-level emit above already announced the
                // header; re-announce it only on back edges, so one
                // header evaluation is exactly one Line event (a line
                // breakpoint on the header fires once per iteration, as
                // in the MiniC VM).
                let mut first = true;
                let depth = self.roots.len();
                loop {
                    self.roots.truncate(depth);
                    self.frames.last_mut().expect("frame").line = s.line;
                    if !std::mem::take(&mut first) {
                        self.emit(tracer, TraceEvent::Line { line: s.line })?;
                    }
                    let t = self.eval(test, tracer)?;
                    if !self.heap.get(t).is_truthy() {
                        return Ok(Flow::Normal);
                    }
                    match self.exec_block(body, tracer)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
            }
            StmtKind::For { target, iter, body } => {
                let it = self.eval(iter, tracer)?;
                let items = self.iterate(it, s.line)?;
                // The pending items stay rooted until the loop ends.
                self.roots.extend(&items);
                let depth = self.roots.len();
                // As with `while`, the first iteration's header event was
                // already emitted by the statement-level hook.
                let mut first = true;
                for item in items {
                    self.roots.truncate(depth);
                    self.frames.last_mut().expect("frame").line = s.line;
                    if !std::mem::take(&mut first) {
                        self.emit(tracer, TraceEvent::Line { line: s.line })?;
                    }
                    self.assign(target, item, s.line, tracer)?;
                    match self.exec_block(body, tracer)? {
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Def { name, params, body } => {
                let index = self.funcs.len();
                self.funcs.push(FuncDef {
                    name: name.name.as_str().into(),
                    params: params.as_slice().into(),
                    body: body.as_slice().into(),
                    line: s.line,
                });
                let f = self.alloc(
                    PyVal::Function {
                        name: name.name.as_str().into(),
                        index,
                    },
                    s.line,
                )?;
                self.bind_name(name, f);
                Ok(Flow::Normal)
            }
            StmtKind::Class { name, methods } => {
                let mut table = Vec::new();
                for m in methods {
                    if let StmtKind::Def {
                        name: mname,
                        params,
                        body,
                    } = &m.kind
                    {
                        let index = self.funcs.len();
                        self.funcs.push(FuncDef {
                            name: format!("{}.{}", name.name, mname.name).into(),
                            params: params.as_slice().into(),
                            body: body.as_slice().into(),
                            line: m.line,
                        });
                        table.push((mname.name.clone(), index));
                    }
                }
                let index = self.classes.len();
                self.classes.push(ClassDef {
                    name: name.name.clone(),
                    methods: table,
                });
                let c = self.alloc(
                    PyVal::Class {
                        name: name.name.as_str().into(),
                        index,
                    },
                    s.line,
                )?;
                self.bind_name(name, c);
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                if self.frames.len() == 1 {
                    return Err(self.rerr(s.line, "SyntaxError: 'return' outside function"));
                }
                let v = match value {
                    Some(e) => self.eval(e, tracer)?,
                    None => self.none_ref,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Pass => Ok(Flow::Normal),
            StmtKind::Global(names) => {
                let frame = self.frames.last_mut().expect("frame");
                for n in names {
                    if !frame.globals_decl.contains(&n.sym) {
                        frame.globals_decl.push(n.sym);
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn bind_name(&mut self, id: &Ident, value: ObjRef) {
        let frame = self.frames.last_mut().expect("frame");
        let added = if frame.globals_decl.contains(&id.sym) {
            self.frames[0].locals.set(id.sym, &self.names, value)
        } else {
            frame.locals.set(id.sym, &self.names, value)
        };
        self.layout += u64::from(added);
    }

    fn load_name(&self, id: &Ident, line: u32) -> Result<ObjRef, Error> {
        let frame = self.frames.last().expect("frame");
        let local = if frame.globals_decl.contains(&id.sym) {
            None
        } else {
            frame.locals.get(id.sym)
        };
        match local.or_else(|| self.frames[0].locals.get(id.sym)) {
            Some(r) => Ok(r),
            None => Err(self.rerr(
                line,
                format!("NameError: name '{}' is not defined", id.name),
            )),
        }
    }

    fn assign(
        &mut self,
        target: &Target,
        value: ObjRef,
        line: u32,
        tracer: &mut dyn Tracer,
    ) -> Result<(), Error> {
        match target {
            Target::Name(n) => {
                self.bind_name(n, value);
                Ok(())
            }
            Target::Index { base, index } => {
                let b = self.eval_held(base, index.may_call, tracer)?;
                let i = self.eval(index, tracer)?;
                self.index_set(b, i, value, line)
            }
            Target::Attr { base, attr } => {
                let b = self.eval(base, tracer)?;
                let type_name = self.heap.get(b).type_name().to_owned();
                if let PyVal::Instance { fields, .. } = self.heap.get_mut(b) {
                    if let Some(slot) = fields.iter_mut().find(|(n, _)| n == attr) {
                        slot.1 = value;
                    } else {
                        fields.push((attr.clone(), value));
                    }
                    Ok(())
                } else {
                    Err(self.rerr(
                        line,
                        format!(
                            "AttributeError: '{type_name}' object has no settable attribute '{attr}'"
                        ),
                    ))
                }
            }
            Target::Tuple(targets) => {
                let items = match self.heap.get(value) {
                    PyVal::Tuple(items) | PyVal::List(items) => items.clone(),
                    other => {
                        return Err(self.rerr(
                            line,
                            format!("TypeError: cannot unpack '{}'", other.type_name()),
                        ))
                    }
                };
                // A call in a later target may empty the unpacked list.
                if target.may_call() {
                    self.roots.extend(&items);
                }
                if items.len() != targets.len() {
                    return Err(self.rerr(
                        line,
                        format!(
                            "ValueError: expected {} values to unpack, got {}",
                            targets.len(),
                            items.len()
                        ),
                    ));
                }
                for (t, v) in targets.iter().zip(items) {
                    self.assign(t, v, line, tracer)?;
                }
                Ok(())
            }
        }
    }

    // -- expression evaluation ------------------------------------------------

    /// Roots `r` until the statement ends when `held` says its holder
    /// keeps it while user code may run.
    fn hold(&mut self, r: ObjRef, held: bool) {
        if held {
            self.roots.push(r);
        }
    }

    /// Evaluates `e` for a holder that keeps the result while evaluating
    /// later expressions, of which some may call user code when `later`.
    fn eval_held(
        &mut self,
        e: &Expr,
        later: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<ObjRef, Error> {
        let r = self.eval(e, tracer)?;
        self.hold(r, later);
        Ok(r)
    }

    /// Evaluates `items` in order, rooting every result when `calls`
    /// says one of them may call user code.
    fn eval_all<'e>(
        &mut self,
        items: impl Iterator<Item = &'e Expr>,
        calls: bool,
        tracer: &mut dyn Tracer,
    ) -> Result<Vec<ObjRef>, Error> {
        let mut out = Vec::with_capacity(items.size_hint().0);
        for e in items {
            out.push(self.eval_held(e, calls, tracer)?);
        }
        Ok(out)
    }

    /// Evaluates `e`. Only the caller holds the result: it roots it
    /// before evaluating anything that may call user code.
    fn eval(&mut self, e: &Expr, tracer: &mut dyn Tracer) -> Result<ObjRef, Error> {
        match &e.kind {
            ExprKind::Int(v) => self.alloc(PyVal::Int(*v), e.line),
            ExprKind::Float(v) => self.alloc(PyVal::Float(*v), e.line),
            ExprKind::Str(s) => self.alloc(PyVal::Str(s.clone()), e.line),
            ExprKind::Bool(true) => Ok(self.true_ref),
            ExprKind::Bool(false) => Ok(self.false_ref),
            ExprKind::None => Ok(self.none_ref),
            ExprKind::Name(n) => self.load_name(n, e.line),
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval_held(lhs, rhs.may_call, tracer)?;
                let r = self.eval(rhs, tracer)?;
                self.binary(*op, l, r, e.line)
            }
            ExprKind::Bool2 { is_and, lhs, rhs } => {
                let l = self.eval(lhs, tracer)?;
                let truthy = self.heap.get(l).is_truthy();
                // Python value semantics: `a and b` returns a when falsy.
                if *is_and {
                    if !truthy {
                        return Ok(l);
                    }
                } else if truthy {
                    return Ok(l);
                }
                self.eval(rhs, tracer)
            }
            ExprKind::Not(inner) => {
                let v = self.eval(inner, tracer)?;
                Ok(self.bool_ref(!self.heap.get(v).is_truthy()))
            }
            ExprKind::Neg(inner) => {
                let v = self.eval(inner, tracer)?;
                match self.heap.get(v) {
                    PyVal::Int(x) => {
                        let x = *x;
                        self.alloc(PyVal::Int(x.wrapping_neg()), e.line)
                    }
                    PyVal::Float(x) => {
                        let x = *x;
                        self.alloc(PyVal::Float(-x), e.line)
                    }
                    PyVal::Bool(b) => {
                        let n = -(*b as i64);
                        self.alloc(PyVal::Int(n), e.line)
                    }
                    other => Err(self.rerr(
                        e.line,
                        format!(
                            "TypeError: bad operand type for unary -: '{}'",
                            other.type_name()
                        ),
                    )),
                }
            }
            ExprKind::Call { func, args } => self.eval_call(func, args, e.line, tracer),
            ExprKind::Index { base, index } => {
                let b = self.eval_held(base, index.may_call, tracer)?;
                let i = self.eval(index, tracer)?;
                self.index_get(b, i, e.line)
            }
            ExprKind::Slice { base, lo, hi } => {
                let bounds_call = [lo, hi].into_iter().flatten().any(|e| e.may_call);
                let b = self.eval_held(base, bounds_call, tracer)?;
                let lo = match lo {
                    Some(lo) => {
                        let later = hi.as_ref().is_some_and(|hi| hi.may_call);
                        Some(self.eval_held(lo, later, tracer)?)
                    }
                    None => None,
                };
                let hi = match hi {
                    Some(e) => Some(self.eval(e, tracer)?),
                    None => None,
                };
                self.slice_get(b, lo, hi, e.line)
            }
            ExprKind::Attr { base, attr } => {
                let b = self.eval(base, tracer)?;
                self.attr_get(b, attr, e.line)
            }
            ExprKind::List(items) => {
                let refs = self.eval_all(items.iter(), e.may_call, tracer)?;
                self.alloc(PyVal::List(refs), e.line)
            }
            ExprKind::Tuple(items) => {
                let refs = self.eval_all(items.iter(), e.may_call, tracer)?;
                self.alloc(PyVal::Tuple(refs), e.line)
            }
            ExprKind::Dict(entries) => {
                let flat = entries.iter().flat_map(|(k, v)| [k, v]);
                let refs = self.eval_all(flat, e.may_call, tracer)?;
                let pairs = refs.chunks_exact(2).map(|kv| (kv[0], kv[1])).collect();
                self.alloc(PyVal::Dict(pairs), e.line)
            }
        }
    }

    fn bool_ref(&self, b: bool) -> ObjRef {
        if b {
            self.true_ref
        } else {
            self.false_ref
        }
    }

    fn binary(&mut self, op: BinOp, l: ObjRef, r: ObjRef, line: u32) -> Result<ObjRef, Error> {
        use BinOp::*;
        // Comparisons first (they work across more types).
        match op {
            Eq => return Ok(self.bool_ref(self.heap.py_eq(l, r))),
            Ne => return Ok(self.bool_ref(!self.heap.py_eq(l, r))),
            In | NotIn => {
                let found = self.contains(r, l, line)?;
                return Ok(self.bool_ref(if op == In { found } else { !found }));
            }
            Lt | Le | Gt | Ge => {
                let ord = self.compare(l, r, line)?;
                let b = match op {
                    Lt => ord < 0,
                    Le => ord <= 0,
                    Gt => ord > 0,
                    Ge => ord >= 0,
                    _ => unreachable!("comparison ops"),
                };
                return Ok(self.bool_ref(b));
            }
            _ => {}
        }
        let (lv, rv) = (self.heap.get(l), self.heap.get(r));
        let result = match (op, lv, rv) {
            // String / list concatenation and repetition.
            (Add, PyVal::Str(a), PyVal::Str(b)) => PyVal::Str(format!("{a}{b}")),
            (Add, PyVal::List(a), PyVal::List(b)) => {
                PyVal::List(a.iter().chain(b.iter()).copied().collect())
            }
            (Add, PyVal::Tuple(a), PyVal::Tuple(b)) => {
                PyVal::Tuple(a.iter().chain(b.iter()).copied().collect())
            }
            (Mul, PyVal::Str(s), PyVal::Int(n)) | (Mul, PyVal::Int(n), PyVal::Str(s)) => {
                PyVal::Str(s.repeat((*n).max(0) as usize))
            }
            (Mul, PyVal::List(items), PyVal::Int(n)) | (Mul, PyVal::Int(n), PyVal::List(items)) => {
                let mut out = Vec::new();
                for _ in 0..(*n).max(0) {
                    out.extend(items.iter().copied());
                }
                PyVal::List(out)
            }
            (Mod, PyVal::Str(fmt), _) => {
                // Printf-style formatting is common in teaching code; we
                // support the single-argument form and tuples.
                let args = match rv {
                    PyVal::Tuple(items) => items.as_slice(),
                    _ => &[r],
                };
                PyVal::Str(self.percent_format(fmt, args))
            }
            _ => self.numeric_binary(op, lv, rv, line)?,
        };
        self.alloc(result, line)
    }

    fn numeric_binary(&self, op: BinOp, lv: &PyVal, rv: &PyVal, line: u32) -> Result<PyVal, Error> {
        use BinOp::*;
        let as_num = |v: &PyVal| -> Option<(i64, f64, bool)> {
            match v {
                PyVal::Int(x) => Some((*x, *x as f64, false)),
                PyVal::Bool(b) => Some((*b as i64, *b as i64 as f64, false)),
                PyVal::Float(x) => Some((0, *x, true)),
                _ => None,
            }
        };
        let (Some((li, lf, lfloat)), Some((ri, rf, rfloat))) = (as_num(lv), as_num(rv)) else {
            return Err(self.rerr(
                line,
                format!(
                    "TypeError: unsupported operand type(s): '{}' and '{}'",
                    lv.type_name(),
                    rv.type_name()
                ),
            ));
        };
        let float_mode = lfloat || rfloat || op == Div;
        Ok(if float_mode {
            let v = match op {
                Add => lf + rf,
                Sub => lf - rf,
                Mul => lf * rf,
                Div => {
                    if rf == 0.0 {
                        return Err(self.rerr(line, "ZeroDivisionError: division by zero"));
                    }
                    lf / rf
                }
                FloorDiv => {
                    if rf == 0.0 {
                        return Err(self.rerr(line, "ZeroDivisionError: division by zero"));
                    }
                    (lf / rf).floor()
                }
                Mod => {
                    if rf == 0.0 {
                        return Err(self.rerr(line, "ZeroDivisionError: modulo by zero"));
                    }
                    lf - rf * (lf / rf).floor()
                }
                Pow => lf.powf(rf),
                other => unreachable!("numeric op {other:?}"),
            };
            PyVal::Float(v)
        } else {
            match op {
                Add => PyVal::Int(li.wrapping_add(ri)),
                Sub => PyVal::Int(li.wrapping_sub(ri)),
                Mul => PyVal::Int(li.wrapping_mul(ri)),
                FloorDiv => {
                    if ri == 0 {
                        return Err(self.rerr(line, "ZeroDivisionError: division by zero"));
                    }
                    let q = li.wrapping_div(ri);
                    let rem = li.wrapping_rem(ri);
                    PyVal::Int(if rem != 0 && (rem < 0) != (ri < 0) {
                        q - 1
                    } else {
                        q
                    })
                }
                Mod => {
                    if ri == 0 {
                        return Err(self.rerr(line, "ZeroDivisionError: modulo by zero"));
                    }
                    let rem = li.wrapping_rem(ri);
                    PyVal::Int(if rem != 0 && (rem < 0) != (ri < 0) {
                        rem + ri
                    } else {
                        rem
                    })
                }
                Pow => {
                    if ri >= 0 {
                        let mut acc: i64 = 1;
                        for _ in 0..ri {
                            acc = acc.wrapping_mul(li);
                        }
                        PyVal::Int(acc)
                    } else {
                        PyVal::Float((li as f64).powf(ri as f64))
                    }
                }
                other => unreachable!("numeric op {other:?}"),
            }
        })
    }

    /// Three-way comparison for `< <= > >=`.
    fn compare(&self, l: ObjRef, r: ObjRef, line: u32) -> Result<i32, Error> {
        let (lv, rv) = (self.heap.get(l), self.heap.get(r));
        let ord = match (lv, rv) {
            (PyVal::Int(a), PyVal::Int(b)) => a.cmp(b) as i32,
            (PyVal::Str(a), PyVal::Str(b)) => a.cmp(b) as i32,
            (PyVal::Bool(a), PyVal::Bool(b)) => a.cmp(b) as i32,
            _ => {
                let af = match lv {
                    PyVal::Int(a) => *a as f64,
                    PyVal::Float(a) => *a,
                    PyVal::Bool(a) => *a as i64 as f64,
                    other => {
                        return Err(self.rerr(
                            line,
                            format!("TypeError: '<' not supported for '{}'", other.type_name()),
                        ))
                    }
                };
                let bf = match rv {
                    PyVal::Int(b) => *b as f64,
                    PyVal::Float(b) => *b,
                    PyVal::Bool(b) => *b as i64 as f64,
                    other => {
                        return Err(self.rerr(
                            line,
                            format!("TypeError: '<' not supported for '{}'", other.type_name()),
                        ))
                    }
                };
                if af < bf {
                    -1
                } else if af > bf {
                    1
                } else {
                    0
                }
            }
        };
        Ok(ord)
    }

    fn contains(&self, container: ObjRef, item: ObjRef, line: u32) -> Result<bool, Error> {
        match self.heap.get(container) {
            PyVal::List(items) | PyVal::Tuple(items) => {
                Ok(items.iter().any(|i| self.heap.py_eq(*i, item)))
            }
            PyVal::Dict(entries) => Ok(entries.iter().any(|(k, _)| self.heap.py_eq(*k, item))),
            PyVal::Str(s) => match self.heap.get(item) {
                PyVal::Str(sub) => Ok(s.contains(sub.as_str())),
                other => Err(self.rerr(
                    line,
                    format!(
                        "TypeError: 'in <string>' requires string, got '{}'",
                        other.type_name()
                    ),
                )),
            },
            PyVal::Range { start, stop, step } => match self.heap.get(item) {
                PyVal::Int(v) => {
                    let (v, start, stop, step) = (*v, *start, *stop, *step);
                    let in_range = if step > 0 {
                        v >= start && v < stop && (v - start) % step == 0
                    } else {
                        v <= start && v > stop && (start - v) % (-step) == 0
                    };
                    Ok(in_range)
                }
                _ => Ok(false),
            },
            other => Err(self.rerr(
                line,
                format!(
                    "TypeError: argument of type '{}' is not iterable",
                    other.type_name()
                ),
            )),
        }
    }

    fn iterate(&mut self, r: ObjRef, line: u32) -> Result<Vec<ObjRef>, Error> {
        match self.heap.get(r) {
            PyVal::List(items) | PyVal::Tuple(items) => Ok(items.clone()),
            PyVal::Str(s) => {
                let s = s.clone();
                s.chars()
                    .map(|c| self.alloc(PyVal::Str(c.to_string()), line))
                    .collect()
            }
            PyVal::Dict(entries) => Ok(entries.iter().map(|(k, _)| *k).collect()),
            &PyVal::Range { start, stop, step } => {
                let mut out = Vec::new();
                let mut v = start;
                if step > 0 {
                    while v < stop {
                        out.push(self.alloc(PyVal::Int(v), line)?);
                        v += step;
                    }
                } else if step < 0 {
                    while v > stop {
                        out.push(self.alloc(PyVal::Int(v), line)?);
                        v += step;
                    }
                }
                Ok(out)
            }
            other => Err(self.rerr(
                line,
                format!("TypeError: '{}' object is not iterable", other.type_name()),
            )),
        }
    }

    fn index_get(&mut self, base: ObjRef, index: ObjRef, line: u32) -> Result<ObjRef, Error> {
        match self.heap.get(base) {
            PyVal::List(items) | PyVal::Tuple(items) => {
                let i = self.normalize_index(index, items.len(), line)?;
                Ok(items[i])
            }
            PyVal::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let i = self.normalize_index(index, chars.len(), line)?;
                let c = chars[i].to_string();
                self.alloc(PyVal::Str(c), line)
            }
            PyVal::Dict(entries) => {
                for (k, v) in entries {
                    if self.heap.py_eq(*k, index) {
                        return Ok(*v);
                    }
                }
                Err(self.rerr(line, format!("KeyError: {}", self.heap.repr(index))))
            }
            other => Err(self.rerr(
                line,
                format!(
                    "TypeError: '{}' object is not subscriptable",
                    other.type_name()
                ),
            )),
        }
    }

    /// Python slice semantics: negative bounds count from the end, and
    /// out-of-range bounds clamp instead of erroring.
    fn slice_get(
        &mut self,
        base: ObjRef,
        lo: Option<ObjRef>,
        hi: Option<ObjRef>,
        line: u32,
    ) -> Result<ObjRef, Error> {
        let bound = |this: &Self, r: Option<ObjRef>, default: i64| -> Result<i64, Error> {
            match r {
                None => Ok(default),
                Some(r) => match this.heap.get(r) {
                    PyVal::Int(v) => Ok(*v),
                    PyVal::Bool(b) => Ok(*b as i64),
                    other => Err(this.rerr(
                        line,
                        format!(
                            "TypeError: slice indices must be integers, not '{}'",
                            other.type_name()
                        ),
                    )),
                },
            }
        };
        let clamp = |v: i64, len: usize| -> usize {
            let len = len as i64;
            let v = if v < 0 { v + len } else { v };
            v.clamp(0, len) as usize
        };
        let sliced = match self.heap.get(base) {
            seq @ (PyVal::List(items) | PyVal::Tuple(items)) => {
                let (l, h) = (
                    clamp(bound(self, lo, 0)?, items.len()),
                    clamp(bound(self, hi, items.len() as i64)?, items.len()),
                );
                let out = if l < h {
                    items[l..h].to_vec()
                } else {
                    Vec::new()
                };
                match seq {
                    PyVal::List(_) => PyVal::List(out),
                    _ => PyVal::Tuple(out),
                }
            }
            PyVal::Str(sv) => {
                let chars: Vec<char> = sv.chars().collect();
                let (l, h) = (
                    clamp(bound(self, lo, 0)?, chars.len()),
                    clamp(bound(self, hi, chars.len() as i64)?, chars.len()),
                );
                let out: String = if l < h {
                    chars[l..h].iter().collect()
                } else {
                    String::new()
                };
                PyVal::Str(out)
            }
            other => {
                return Err(self.rerr(
                    line,
                    format!("TypeError: '{}' object is not sliceable", other.type_name()),
                ))
            }
        };
        self.alloc(sliced, line)
    }

    fn index_set(
        &mut self,
        base: ObjRef,
        index: ObjRef,
        value: ObjRef,
        line: u32,
    ) -> Result<(), Error> {
        match self.heap.get(base) {
            PyVal::List(items) => {
                let i = self.normalize_index(index, items.len(), line)?;
                if let PyVal::List(items) = self.heap.get_mut(base) {
                    items[i] = value;
                }
                Ok(())
            }
            PyVal::Dict(entries) => {
                // Replace existing key (by equality) or append.
                let existing = entries.iter().position(|(k, _)| self.heap.py_eq(*k, index));
                if let PyVal::Dict(entries) = self.heap.get_mut(base) {
                    match existing {
                        Some(pos) => entries[pos].1 = value,
                        None => entries.push((index, value)),
                    }
                }
                Ok(())
            }
            PyVal::Tuple(_) => Err(self.rerr(
                line,
                "TypeError: 'tuple' object does not support item assignment",
            )),
            other => Err(self.rerr(
                line,
                format!(
                    "TypeError: '{}' object does not support item assignment",
                    other.type_name()
                ),
            )),
        }
    }

    fn normalize_index(&self, index: ObjRef, len: usize, line: u32) -> Result<usize, Error> {
        let i = match self.heap.get(index) {
            PyVal::Int(v) => *v,
            PyVal::Bool(b) => *b as i64,
            other => {
                return Err(self.rerr(
                    line,
                    format!(
                        "TypeError: indices must be integers, not '{}'",
                        other.type_name()
                    ),
                ))
            }
        };
        let adjusted = if i < 0 { i + len as i64 } else { i };
        if adjusted < 0 || adjusted >= len as i64 {
            return Err(self.rerr(line, format!("IndexError: index {i} out of range")));
        }
        Ok(adjusted as usize)
    }

    fn attr_get(&mut self, base: ObjRef, attr: &str, line: u32) -> Result<ObjRef, Error> {
        match self.heap.get(base) {
            PyVal::Instance { class, fields } => {
                if let Some((_, v)) = fields.iter().find(|(n, _)| n == attr) {
                    return Ok(*v);
                }
                let class_name = class.clone();
                let method = self
                    .classes
                    .iter()
                    .find(|c| *c.name == *class_name)
                    .and_then(|c| c.methods.iter().find(|(n, _)| n == attr))
                    .map(|(n, i)| {
                        let index = u32::try_from(*i).expect("fewer than 2^32 functions");
                        (n.as_str().into(), index)
                    });
                match method {
                    Some((name, index)) => self.alloc(
                        PyVal::BoundMethod {
                            receiver: base,
                            name,
                            index,
                        },
                        line,
                    ),
                    None => Err(self.rerr(
                        line,
                        format!("AttributeError: '{class_name}' object has no attribute '{attr}'"),
                    )),
                }
            }
            other => Err(self.rerr(
                line,
                format!(
                    "AttributeError: '{}' object has no attribute '{attr}' \
                     (builtin methods must be called, not referenced)",
                    other.type_name()
                ),
            )),
        }
    }

    // -- calls -----------------------------------------------------------------

    fn eval_call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        line: u32,
        tracer: &mut dyn Tracer,
    ) -> Result<ObjRef, Error> {
        // The callee is held while the arguments are evaluated.
        let args_call = args.iter().any(|a| a.may_call);
        // Builtin container methods: `base.attr(args)`.
        if let ExprKind::Attr { base, attr } = &func.kind {
            let b = self.eval_held(base, args_call, tracer)?;
            if !matches!(self.heap.get(b), PyVal::Instance { .. }) {
                let argv = self.eval_all(args.iter(), args_call, tracer)?;
                return self.builtin_method(b, attr, &argv, line);
            }
            // Instance: attribute may be a field holding a function or a
            // bound method, possibly a fresh one.
            let target = self.attr_get(b, attr, line)?;
            self.hold(target, args_call);
            let argv = self.eval_all(args.iter(), args_call, tracer)?;
            return self.call_object(target, argv, line, tracer);
        }
        // Builtin functions (unless shadowed by a user definition).
        if let ExprKind::Name(id) = &func.kind {
            if let Some(builtin) = id.sym.builtin() {
                let shadowed = self
                    .frames
                    .last()
                    .expect("frame")
                    .locals
                    .get(id.sym)
                    .is_some()
                    || self.frames[0].locals.get(id.sym).is_some();
                if !shadowed {
                    let argv = self.eval_all(args.iter(), args_call, tracer)?;
                    return self.builtin_function(builtin, &argv, line, tracer);
                }
            }
        }
        let callee = self.eval_held(func, args_call, tracer)?;
        let argv = self.eval_all(args.iter(), args_call, tracer)?;
        self.call_object(callee, argv, line, tracer)
    }

    fn call_object(
        &mut self,
        callee: ObjRef,
        mut args: Vec<ObjRef>,
        line: u32,
        tracer: &mut dyn Tracer,
    ) -> Result<ObjRef, Error> {
        match *self.heap.get(callee) {
            PyVal::Function { index, .. } => self.call_function(index, args, line, tracer),
            PyVal::BoundMethod {
                receiver, index, ..
            } => {
                args.insert(0, receiver);
                self.call_function(index as usize, args, line, tracer)
            }
            PyVal::Class { index, .. } => {
                let class = &self.classes[index];
                let class_name = class.name.clone();
                let init = class
                    .methods
                    .iter()
                    .find(|(n, _)| n == "__init__")
                    .map(|(_, i)| *i);
                let instance = self.alloc(
                    PyVal::Instance {
                        class: class_name.as_str().into(),
                        fields: Box::default(),
                    },
                    line,
                )?;
                // `__init__` may rebind `self`.
                self.roots.push(instance);
                match init {
                    Some(fidx) => {
                        args.insert(0, instance);
                        self.call_function(fidx, args, line, tracer)?;
                    }
                    None if !args.is_empty() => {
                        return Err(self.rerr(
                            line,
                            format!("TypeError: {class_name}() takes no arguments"),
                        ))
                    }
                    None => {}
                }
                Ok(instance)
            }
            ref other => Err(self.rerr(
                line,
                format!("TypeError: '{}' object is not callable", other.type_name()),
            )),
        }
    }

    fn call_function(
        &mut self,
        index: usize,
        args: Vec<ObjRef>,
        line: u32,
        tracer: &mut dyn Tracer,
    ) -> Result<ObjRef, Error> {
        let FuncDef {
            name,
            params,
            body,
            line: def_line,
        } = self.funcs[index].clone();
        if args.len() != params.len() {
            return Err(self.rerr(
                line,
                format!(
                    "TypeError: {name}() takes {} argument(s) but {} were given",
                    params.len(),
                    args.len()
                ),
            ));
        }
        if self.frames.len() >= self.max_depth {
            return Err(self.rerr(line, "RecursionError: maximum recursion depth exceeded"));
        }
        let mut frame = PyFrame::new(name.clone(), def_line);
        for (p, a) in params.iter().zip(&args) {
            frame.locals.set(p.sym, &self.names, *a);
        }
        self.frames.push(frame);
        self.layout += 1;
        let depth = (self.frames.len() - 1) as u32;
        self.emit(
            tracer,
            TraceEvent::Call {
                function: name.clone(),
                line: def_line,
                depth,
            },
        )?;
        let flow = match self.exec_block(&body, tracer) {
            Ok(flow) => flow,
            Err(e) => {
                self.frames.pop();
                self.layout += 1;
                return Err(e);
            }
        };
        let value = match flow {
            Flow::Return(v) => v,
            _ => self.none_ref,
        };
        let ret_line = self.frames.last().expect("frame").line;
        self.emit(
            tracer,
            TraceEvent::Return {
                function: name,
                line: ret_line,
                depth,
                value,
            },
        )?;
        self.frames.pop();
        self.layout += 1;
        Ok(value)
    }

    // -- builtins ---------------------------------------------------------------

    /// Sorts `items` in place by `compare`: an insertion sort, stable, and
    /// free of closures that would need error plumbing through `sort_by`.
    fn sort_refs(&self, items: &mut [ObjRef], line: u32) -> Result<(), Error> {
        for i in 1..items.len() {
            let mut j = i;
            while j > 0 && self.compare(items[j - 1], items[j], line)? > 0 {
                items.swap(j - 1, j);
                j -= 1;
            }
        }
        Ok(())
    }

    fn builtin_function(
        &mut self,
        name: &str,
        args: &[ObjRef],
        line: u32,
        tracer: &mut dyn Tracer,
    ) -> Result<ObjRef, Error> {
        let arity_err = |this: &Self, expected: &str| {
            this.rerr(
                line,
                format!("TypeError: {name}() expects {expected} argument(s)"),
            )
        };
        match name {
            "print" => {
                let text = args
                    .iter()
                    .map(|a| self.heap.str_of(*a))
                    .collect::<Vec<_>>()
                    .join(" ")
                    + "\n";
                self.output.push_str(&text);
                self.emit(tracer, TraceEvent::Output { text })?;
                Ok(self.none_ref)
            }
            "len" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let n = match self.heap.get(*r) {
                    PyVal::Str(s) => s.chars().count() as i64,
                    PyVal::List(v) | PyVal::Tuple(v) => v.len() as i64,
                    PyVal::Dict(v) => v.len() as i64,
                    PyVal::Range { start, stop, step } => {
                        if *step > 0 {
                            ((stop - start).max(0) + step - 1) / step
                        } else {
                            ((start - stop).max(0) + (-step) - 1) / (-step)
                        }
                    }
                    other => {
                        return Err(self.rerr(
                            line,
                            format!(
                                "TypeError: object of type '{}' has no len()",
                                other.type_name()
                            ),
                        ))
                    }
                };
                self.alloc(PyVal::Int(n), line)
            }
            "range" => {
                let ints: Vec<i64> = args
                    .iter()
                    .map(|a| match self.heap.get(*a) {
                        PyVal::Int(v) => Ok(*v),
                        PyVal::Bool(b) => Ok(*b as i64),
                        other => Err(self.rerr(
                            line,
                            format!(
                                "TypeError: range() requires int, got '{}'",
                                other.type_name()
                            ),
                        )),
                    })
                    .collect::<Result<_, _>>()?;
                let (start, stop, step) = match ints.as_slice() {
                    [stop] => (0, *stop, 1),
                    [start, stop] => (*start, *stop, 1),
                    [start, stop, step] if *step != 0 => (*start, *stop, *step),
                    [_, _, _] => {
                        return Err(self.rerr(line, "ValueError: range() arg 3 must not be zero"))
                    }
                    _ => return Err(arity_err(self, "1 to 3")),
                };
                self.alloc(PyVal::Range { start, stop, step }, line)
            }
            "str" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let s = self.heap.str_of(*r);
                self.alloc(PyVal::Str(s), line)
            }
            "int" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let v = match self.heap.get(*r) {
                    PyVal::Int(v) => *v,
                    PyVal::Float(f) => *f as i64,
                    PyVal::Bool(b) => *b as i64,
                    PyVal::Str(s) => s.trim().parse().map_err(|_| {
                        self.rerr(
                            line,
                            format!("ValueError: invalid literal for int(): '{s}'"),
                        )
                    })?,
                    other => {
                        return Err(self.rerr(
                            line,
                            format!(
                                "TypeError: int() argument must not be '{}'",
                                other.type_name()
                            ),
                        ))
                    }
                };
                self.alloc(PyVal::Int(v), line)
            }
            "float" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let v = match self.heap.get(*r) {
                    PyVal::Int(v) => *v as f64,
                    PyVal::Float(f) => *f,
                    PyVal::Bool(b) => *b as i64 as f64,
                    PyVal::Str(s) => s.trim().parse().map_err(|_| {
                        self.rerr(
                            line,
                            format!("ValueError: could not convert '{s}' to float"),
                        )
                    })?,
                    other => {
                        return Err(self.rerr(
                            line,
                            format!(
                                "TypeError: float() argument must not be '{}'",
                                other.type_name()
                            ),
                        ))
                    }
                };
                self.alloc(PyVal::Float(v), line)
            }
            "abs" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let v = match self.heap.get(*r) {
                    PyVal::Int(v) => PyVal::Int(v.wrapping_abs()),
                    PyVal::Float(f) => PyVal::Float(f.abs()),
                    other => {
                        return Err(self.rerr(
                            line,
                            format!(
                                "TypeError: bad operand type for abs(): '{}'",
                                other.type_name()
                            ),
                        ))
                    }
                };
                self.alloc(v, line)
            }
            "min" | "max" => {
                let items = if args.len() == 1 {
                    self.iterate(args[0], line)?
                } else {
                    args.to_vec()
                };
                if items.is_empty() {
                    return Err(self.rerr(line, format!("ValueError: {name}() arg is empty")));
                }
                let mut best = items[0];
                for &i in &items[1..] {
                    let ord = self.compare(i, best, line)?;
                    if (name == "min" && ord < 0) || (name == "max" && ord > 0) {
                        best = i;
                    }
                }
                Ok(best)
            }
            "sum" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let items = self.iterate(*r, line)?;
                let mut acc_i: i64 = 0;
                let mut acc_f: f64 = 0.0;
                let mut is_float = false;
                for i in items {
                    match self.heap.get(i) {
                        PyVal::Int(v) => {
                            acc_i = acc_i.wrapping_add(*v);
                            acc_f += *v as f64;
                        }
                        PyVal::Bool(b) => {
                            acc_i += *b as i64;
                            acc_f += *b as i64 as f64;
                        }
                        PyVal::Float(f) => {
                            is_float = true;
                            acc_f += *f;
                        }
                        other => {
                            return Err(self.rerr(
                                line,
                                format!(
                                    "TypeError: unsupported operand for sum: '{}'",
                                    other.type_name()
                                ),
                            ))
                        }
                    }
                }
                self.alloc(
                    if is_float {
                        PyVal::Float(acc_f)
                    } else {
                        PyVal::Int(acc_i)
                    },
                    line,
                )
            }
            "sorted" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let mut items = self.iterate(*r, line)?;
                self.sort_refs(&mut items, line)?;
                self.alloc(PyVal::List(items), line)
            }
            "list" => {
                if args.is_empty() {
                    return self.alloc(PyVal::List(Vec::new()), line);
                }
                let [r] = args else {
                    return Err(arity_err(self, "0 or 1"));
                };
                let items = self.iterate(*r, line)?;
                self.alloc(PyVal::List(items), line)
            }
            "id" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                self.alloc(PyVal::Int(r.address() as i64), line)
            }
            "type" => {
                let [r] = args else {
                    return Err(arity_err(self, "1"));
                };
                let n = self.heap.get(*r).type_name().to_owned();
                self.alloc(PyVal::Str(format!("<class '{n}'>")), line)
            }
            other => Err(self.rerr(line, format!("NameError: name '{other}' is not defined"))),
        }
    }

    /// A builtin container method. Each borrows the receiver, so a
    /// call costs what the method does, not the receiver's size.
    fn builtin_method(
        &mut self,
        base: ObjRef,
        method: &str,
        args: &[ObjRef],
        line: u32,
    ) -> Result<ObjRef, Error> {
        match self.heap.get(base) {
            PyVal::List(_) => self.list_method(base, method, args, line),
            PyVal::Dict(_) => self.dict_method(base, method, args, line),
            PyVal::Str(s) => {
                let s = s.clone();
                self.str_method(base, &s, method, args, line)
            }
            _ => Err(self.no_method(base, method, line)),
        }
    }

    fn no_method(&self, base: ObjRef, method: &str, line: u32) -> Error {
        let type_name = self.heap.get(base).type_name();
        self.rerr(
            line,
            format!("AttributeError: '{type_name}' object has no method '{method}'"),
        )
    }

    /// The items of the list `base`.
    fn list_items(&self, base: ObjRef) -> &[ObjRef] {
        match self.heap.get(base) {
            PyVal::List(items) => items,
            other => unreachable!("a list method on '{}'", other.type_name()),
        }
    }

    /// The items of the list `base`, to change in place.
    fn list_items_mut(&mut self, base: ObjRef) -> &mut Vec<ObjRef> {
        match self.heap.get_mut(base) {
            PyVal::List(items) => items,
            other => unreachable!("a list method on '{}'", other.type_name()),
        }
    }

    fn list_method(
        &mut self,
        base: ObjRef,
        method: &str,
        args: &[ObjRef],
        line: u32,
    ) -> Result<ObjRef, Error> {
        let len = self.list_items(base).len();
        match method {
            "append" => {
                let [v] = args else {
                    return Err(self.rerr(line, "TypeError: append() takes one argument"));
                };
                self.list_items_mut(base).push(*v);
                Ok(self.none_ref)
            }
            "pop" => {
                let idx = match args {
                    [] => len
                        .checked_sub(1)
                        .ok_or_else(|| self.rerr(line, "IndexError: pop from empty list"))?,
                    [i] => self.normalize_index(*i, len, line)?,
                    _ => return Err(self.rerr(line, "TypeError: pop() takes at most one argument")),
                };
                Ok(self.list_items_mut(base).remove(idx))
            }
            "insert" => {
                let [i, v] = args else {
                    return Err(self.rerr(line, "TypeError: insert() takes two arguments"));
                };
                let raw = match self.heap.get(*i) {
                    PyVal::Int(v) => *v,
                    _ => return Err(self.rerr(line, "TypeError: insert() index must be int")),
                };
                let idx = raw.clamp(0, len as i64) as usize;
                self.list_items_mut(base).insert(idx, *v);
                Ok(self.none_ref)
            }
            "remove" => {
                let [v] = args else {
                    return Err(self.rerr(line, "TypeError: remove() takes one argument"));
                };
                let items = self.list_items(base);
                match items.iter().position(|i| self.heap.py_eq(*i, *v)) {
                    Some(p) => {
                        self.list_items_mut(base).remove(p);
                        Ok(self.none_ref)
                    }
                    None => Err(self.rerr(line, "ValueError: list.remove(x): x not in list")),
                }
            }
            "sort" => {
                if !args.is_empty() {
                    return Err(self.rerr(line, "TypeError: sort() takes no arguments"));
                }
                let mut items = self.list_items(base).to_vec();
                self.sort_refs(&mut items, line)?;
                *self.list_items_mut(base) = items;
                Ok(self.none_ref)
            }
            "index" => {
                let [v] = args else {
                    return Err(self.rerr(line, "TypeError: index() takes one argument"));
                };
                let items = self.list_items(base);
                match items.iter().position(|i| self.heap.py_eq(*i, *v)) {
                    Some(p) => self.alloc(PyVal::Int(p as i64), line),
                    None => Err(self.rerr(line, "ValueError: value not in list")),
                }
            }
            _ => Err(self.no_method(base, method, line)),
        }
    }

    fn dict_method(
        &mut self,
        base: ObjRef,
        method: &str,
        args: &[ObjRef],
        line: u32,
    ) -> Result<ObjRef, Error> {
        let PyVal::Dict(entries) = self.heap.get(base) else {
            unreachable!("a dict method on a non-dict");
        };
        match method {
            "keys" => {
                let ks = entries.iter().map(|(k, _)| *k).collect();
                self.alloc(PyVal::List(ks), line)
            }
            "values" => {
                let vs = entries.iter().map(|(_, v)| *v).collect();
                self.alloc(PyVal::List(vs), line)
            }
            "items" => {
                let entries = entries.clone();
                let pairs = entries
                    .iter()
                    .map(|(k, v)| self.alloc(PyVal::Tuple(vec![*k, *v]), line))
                    .collect::<Result<_, _>>()?;
                self.alloc(PyVal::List(pairs), line)
            }
            "get" => {
                let (key, default) = match args {
                    [k] => (*k, self.none_ref),
                    [k, d] => (*k, *d),
                    _ => return Err(self.rerr(line, "TypeError: get() takes 1 or 2 arguments")),
                };
                let found = entries.iter().find(|(k, _)| self.heap.py_eq(*k, key));
                Ok(found.map_or(default, |&(_, v)| v))
            }
            _ => Err(self.no_method(base, method, line)),
        }
    }

    fn str_method(
        &mut self,
        base: ObjRef,
        s: &str,
        method: &str,
        args: &[ObjRef],
        line: u32,
    ) -> Result<ObjRef, Error> {
        match method {
            "upper" => self.alloc(PyVal::Str(s.to_uppercase()), line),
            "lower" => self.alloc(PyVal::Str(s.to_lowercase()), line),
            "split" => {
                let parts: Vec<ObjRef> = match args {
                    [] => s
                        .split_whitespace()
                        .map(|p| self.alloc(PyVal::Str(p.to_owned()), line))
                        .collect::<Result<_, _>>()?,
                    [sep] => {
                        let sep = match self.heap.get(*sep) {
                            PyVal::Str(x) => x.clone(),
                            _ => return Err(self.rerr(line, "TypeError: separator must be str")),
                        };
                        s.split(sep.as_str())
                            .map(|p| self.alloc(PyVal::Str(p.to_owned()), line))
                            .collect::<Result<_, _>>()?
                    }
                    _ => return Err(self.rerr(line, "TypeError: split() takes 0 or 1 arguments")),
                };
                self.alloc(PyVal::List(parts), line)
            }
            "join" => {
                let [arg] = args else {
                    return Err(self.rerr(line, "TypeError: join() takes one argument"));
                };
                let items = self.iterate(*arg, line)?;
                let mut parts = Vec::with_capacity(items.len());
                for i in items {
                    match self.heap.get(i) {
                        PyVal::Str(p) => parts.push(p.clone()),
                        other => {
                            return Err(self.rerr(
                                line,
                                format!(
                                    "TypeError: join() requires str items, got '{}'",
                                    other.type_name()
                                ),
                            ))
                        }
                    }
                }
                self.alloc(PyVal::Str(parts.join(s)), line)
            }
            _ => Err(self.no_method(base, method, line)),
        }
    }

    /// Minimal `%`-formatting for strings: `%d %s %f %%`.
    fn percent_format(&self, fmt: &str, args: &[ObjRef]) -> String {
        let mut out = String::new();
        let mut it = fmt.chars().peekable();
        let mut next = args.iter();
        while let Some(c) = it.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            match it.next() {
                Some('%') => out.push('%'),
                Some(spec) => match next.next() {
                    Some(a) => match spec {
                        'd' => match self.heap.get(*a) {
                            PyVal::Int(v) => out.push_str(&v.to_string()),
                            PyVal::Float(f) => out.push_str(&(*f as i64).to_string()),
                            _ => out.push_str(&self.heap.str_of(*a)),
                        },
                        'f' => match self.heap.get(*a) {
                            PyVal::Float(f) => out.push_str(&format!("{f:.6}")),
                            PyVal::Int(v) => out.push_str(&format!("{:.6}", *v as f64)),
                            _ => out.push_str(&self.heap.str_of(*a)),
                        },
                        _ => out.push_str(&self.heap.str_of(*a)),
                    },
                    None => {
                        out.push('%');
                        out.push(spec);
                    }
                },
                None => out.push('%'),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_source, NullTracer};

    fn out(src: &str) -> String {
        run_source(src, &mut NullTracer).expect("run ok").output
    }

    fn run_err(src: &str) -> Error {
        run_source(src, &mut NullTracer).expect_err("expected error")
    }

    #[test]
    fn arithmetic() {
        assert_eq!(out("print(1 + 2 * 3)"), "7\n");
        assert_eq!(out("print(7 // 2, 7 % 3, 2 ** 10)"), "3 1 1024\n");
        assert_eq!(out("print(-7 // 2, -7 % 3)"), "-4 2\n"); // Python floor semantics
        assert_eq!(out("print(7 / 2)"), "3.5\n");
        assert_eq!(out("print(2.5 + 1)"), "3.5\n");
        assert_eq!(out("print(-(3))"), "-3\n");
    }

    #[test]
    fn strings() {
        assert_eq!(out("print('a' + 'b', 'ab' * 3)"), "ab ababab\n");
        assert_eq!(out("print(len('hello'), 'ell' in 'hello')"), "5 True\n");
        assert_eq!(out("print('Hi'.upper(), 'Hi'.lower())"), "HI hi\n");
        assert_eq!(out("print('a,b,c'.split(','))"), "['a', 'b', 'c']\n");
        assert_eq!(out("print('-'.join(['a', 'b']))"), "a-b\n");
        assert_eq!(out("print('hello'[1], 'hello'[-1])"), "e o\n");
    }

    #[test]
    fn lists_and_aliasing() {
        assert_eq!(
            out("a = [1, 2]\nb = a\nb.append(3)\nprint(a)"),
            "[1, 2, 3]\n"
        );
        assert_eq!(out("a = [1, 2, 3]\nprint(a[0], a[-1])"), "1 3\n");
        assert_eq!(
            out("a = [3, 1, 2]\nprint(sorted(a))\nprint(a)"),
            "[1, 2, 3]\n[3, 1, 2]\n"
        );
        assert_eq!(
            out("a = [3, 1, 2]\nb = a\nprint(a.sort())\nprint(b)"),
            "None\n[1, 2, 3]\n"
        );
        assert_eq!(out("a = [1]\na[0] = 9\nprint(a)"), "[9]\n");
        assert_eq!(out("a = [1, 2]\nprint(a.pop(), a)"), "2 [1]\n");
        assert_eq!(out("a = [1, 3]\na.insert(1, 2)\nprint(a)"), "[1, 2, 3]\n");
        assert_eq!(out("a = [1, 2, 3]\na.remove(2)\nprint(a.index(3))"), "1\n");
    }

    #[test]
    fn tuples_and_unpacking() {
        assert_eq!(out("t = (1, 2)\na, b = t\nprint(a, b)"), "1 2\n");
        assert_eq!(out("a, b = 1, 2\na, b = b, a\nprint(a, b)"), "2 1\n");
        assert_eq!(out("print((1,) + (2, 3))"), "(1, 2, 3)\n");
    }

    #[test]
    fn dicts() {
        assert_eq!(
            out("d = {'a': 1}\nd['b'] = 2\nprint(d)"),
            "{'a': 1, 'b': 2}\n"
        );
        assert_eq!(out("d = {'a': 1}\nprint(d['a'], d.get('x', 0))"), "1 0\n");
        assert_eq!(
            out("d = {1: 'x', 2: 'y'}\nprint(d.keys(), d.values())"),
            "[1, 2] ['x', 'y']\n"
        );
        assert_eq!(out("d = {'k': 1}\nfor k in d:\n    print(k)"), "k\n");
        assert_eq!(out("print('a' in {'a': 1}, 2 in {'a': 1})"), "True False\n");
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            out("x = 3\nif x > 2:\n    print('big')\nelse:\n    print('small')"),
            "big\n"
        );
        assert_eq!(
            out("s = 0\nfor i in range(5):\n    s += i\nprint(s)"),
            "10\n"
        );
        assert_eq!(
            out("i = 0\nwhile True:\n    i += 1\n    if i == 3:\n        break\nprint(i)"),
            "3\n"
        );
        assert_eq!(
            out("s = 0\nfor i in range(6):\n    if i % 2 == 0:\n        continue\n    s += i\nprint(s)"),
            "9\n"
        );
        assert_eq!(
            out("for i in range(10, 4, -2):\n    print(i)"),
            "10\n8\n6\n"
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            out("def fact(n):\n    if n <= 1:\n        return 1\n    return n * fact(n - 1)\nprint(fact(6))"),
            "720\n"
        );
        assert_eq!(out("def f():\n    pass\nprint(f())"), "None\n");
        assert_eq!(
            out("def add(a, b):\n    return a + b\nprint(add(2, 3))"),
            "5\n"
        );
    }

    #[test]
    fn globals_semantics() {
        assert_eq!(
            out("c = 0\ndef bump():\n    global c\n    c += 1\nbump()\nbump()\nprint(c)"),
            "2\n"
        );
        // Reading a global without declaring works.
        assert_eq!(out("g = 5\ndef f():\n    return g + 1\nprint(f())"), "6\n");
    }

    #[test]
    fn classes() {
        let src = "class Point:\n\
                   \x20   def __init__(self, x, y):\n\
                   \x20       self.x = x\n\
                   \x20       self.y = y\n\
                   \x20   def dist2(self):\n\
                   \x20       return self.x ** 2 + self.y ** 2\n\
                   p = Point(3, 4)\n\
                   print(p.x, p.dist2())\n\
                   p.x = 6\n\
                   print(p.dist2())";
        assert_eq!(out(src), "3 25\n52\n");
    }

    #[test]
    fn builtins() {
        assert_eq!(out("print(abs(-3), min(4, 2), max([1, 9, 5]))"), "3 2 9\n");
        assert_eq!(out("print(sum([1, 2, 3]), sum([0.5, 0.5]))"), "6 1.0\n");
        assert_eq!(out("print(int('42') + 1, float('2.5'))"), "43 2.5\n");
        assert_eq!(out("print(str(12) + '!')"), "12!\n");
        assert_eq!(out("print(list(range(3)))"), "[0, 1, 2]\n");
        assert_eq!(out("print(len(range(0, 10, 3)))"), "4\n");
        assert_eq!(out("print(type(3))"), "<class 'int'>\n");
        assert_eq!(out("a = [1]\nb = a\nprint(id(a) == id(b))"), "True\n");
    }

    #[test]
    fn boolean_value_semantics() {
        assert_eq!(out("print(0 or 'x', 1 and 2, not [])"), "x 2 True\n");
        // Short circuit: right side must not run.
        assert_eq!(
            out("def boom():\n    return 1 // 0\nprint(False and boom())"),
            "False\n"
        );
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(out("print('x=%d y=%s' % (3, 'hi'))"), "x=3 y=hi\n");
        assert_eq!(out("print('v=%d' % 7)"), "v=7\n");
    }

    #[test]
    fn runtime_errors() {
        assert!(run_err("print(x)").message().contains("NameError"));
        assert!(run_err("print(1 // 0)").message().contains("ZeroDivision"));
        assert!(run_err("a = [1]\nprint(a[5])")
            .message()
            .contains("IndexError"));
        assert!(run_err("d = {}\nprint(d['k'])")
            .message()
            .contains("KeyError"));
        assert!(run_err("t = (1, 2)\nt[0] = 5")
            .message()
            .contains("TypeError"));
        assert!(run_err("print('a' + 1)").message().contains("TypeError"));
        assert!(run_err("def f(a):\n    return a\nf(1, 2)")
            .message()
            .contains("TypeError"));
    }

    #[test]
    fn recursion_limit() {
        // Each MiniPy frame costs a deep chain of Rust frames; give the
        // interpreter a roomy stack like the thread-based tracker does.
        let handle = std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| run_err("def f():\n    return f()\nf()"))
            .expect("spawn");
        let err = handle.join().expect("no crash");
        assert!(err.message().contains("RecursionError"));
    }

    #[test]
    fn step_limit() {
        let module = crate::parser::parse("while True:\n    pass").unwrap();
        let mut interp = Interp::new(module);
        interp.set_max_steps(Some(100));
        let err = interp.run(&mut NullTracer).unwrap_err();
        assert!(err.message().contains("step limit"));
    }

    #[test]
    fn trace_event_sequence() {
        struct Rec {
            events: Vec<String>,
        }
        impl Tracer for Rec {
            fn trace(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction {
                match event {
                    TraceEvent::Line { line } => self.events.push(format!("line {line}")),
                    TraceEvent::Call {
                        function, depth, ..
                    } => {
                        // Args must be bound at call time.
                        let f = ctx.frames.last().unwrap();
                        let nargs = f.vars().count();
                        self.events
                            .push(format!("call {function}@{depth} args={nargs}"));
                    }
                    TraceEvent::Return {
                        function, value, ..
                    } => {
                        self.events
                            .push(format!("return {function}={}", ctx.heap.repr(*value)));
                    }
                    TraceEvent::Output { text } => {
                        self.events.push(format!("out {}", text.trim_end()));
                    }
                }
                TraceAction::Continue
            }
        }
        let mut rec = Rec { events: Vec::new() };
        run_source("def f(x):\n    return x + 1\nprint(f(1))", &mut rec).unwrap();
        assert_eq!(
            rec.events,
            vec![
                "line 1",
                "line 3",
                "call f@1 args=1",
                "line 2",
                "return f=2",
                "out 2",
            ]
        );
    }

    #[test]
    fn tracer_can_stop_execution() {
        struct StopAt3 {
            count: u32,
        }
        impl Tracer for StopAt3 {
            fn trace(&mut self, event: &TraceEvent, _ctx: &TraceCtx<'_>) -> TraceAction {
                if matches!(event, TraceEvent::Line { .. }) {
                    self.count += 1;
                    if self.count >= 3 {
                        return TraceAction::Stop;
                    }
                }
                TraceAction::Continue
            }
        }
        let mut t = StopAt3 { count: 0 };
        let err = run_source("a = 1\nb = 2\nc = 3\nd = 4", &mut t).unwrap_err();
        assert_eq!(err, Error::Stopped);
        assert_eq!(t.count, 3);
    }

    #[test]
    fn ctx_lookup_scoped_names() {
        struct Check {
            ok: bool,
        }
        impl Tracer for Check {
            fn trace(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction {
                if let TraceEvent::Line { line: 3 } = event {
                    let local = ctx.lookup("x").unwrap();
                    let scoped = ctx.lookup("f::x").unwrap();
                    let global = ctx.lookup("g").unwrap();
                    self.ok = ctx.heap.repr(local) == "10"
                        && ctx.heap.repr(scoped) == "10"
                        && ctx.heap.repr(global) == "1";
                }
                TraceAction::Continue
            }
        }
        let mut c = Check { ok: false };
        run_source("g = 1\ndef f(x):\n    return x\nf(10)", &mut c).unwrap();
        assert!(c.ok);
    }

    /// Debug builds collect at every statement that follows an
    /// allocation, so each value below would be freed mid-statement if
    /// only a Rust local held it. (Each case allocates right before the
    /// statement that must find the value alive.)
    #[test]
    fn values_held_mid_statement_survive_collection() {
        // The old value of `g` is held only by `+=` while `bump` runs.
        let src = "g = 10\ndef bump():\n    global g\n    g = 0\n    return 5\n\
                   g += bump()\nprint(g)";
        assert_eq!(out(src), "15\n");
        // The sum of `+=`, while the target's index is evaluated again.
        let src = "a = [1]\ndef k():\n    t = [0]\n    return 0\na[k()] += 5\nprint(a)";
        assert_eq!(out(src), "[6]\n");
        // The left operand's result while the right operand's call runs.
        let src = "def fib(n):\n    if n < 2:\n        return n\n    \
                   return fib(n - 1) + fib(n - 2)\nprint(fib(10))";
        assert_eq!(out(src), "55\n");
        // A new instance whose `__init__` rebinds `self`.
        let src = "class Box:\n    def __init__(self, v):\n        self.v = v\n        \
                   self = None\n        t = [1, 2]\n        t = 0\nb = Box(4)\nprint(b.v)";
        assert_eq!(out(src), "4\n");
        // A bound method no binding holds, while its argument's call runs.
        let src = "class C:\n    def m(self, x):\n        return x + 1\n\
                   def shadow():\n    o.m = 0\n    return 1\no = C()\nprint(o.m(shadow()))";
        assert_eq!(out(src), "2\n");
        // A `for`'s pending items that nothing else holds.
        assert_eq!(out("for c in 'ab':\n    t = [c]\n    print(c)"), "a\nb\n");
        // Unpacked items whose list is emptied while a target evaluates.
        let src = "lst = [[7], [8]]\nb = [0]\ndef drain():\n    lst.pop()\n    lst.pop()\n    \
                   t = [0]\n    return 0\na, b[drain()] = lst\nprint(a, b, lst)";
        assert_eq!(out(src), "[7] [[8]] []\n");
    }

    #[test]
    fn running_out_of_object_indices_is_a_memory_error() {
        let module = crate::parser::parse("a = 1\nb = 2\nc = 3\n").unwrap();
        // Room for the three shared constants and two more objects.
        let heap = Heap::issuing_from((1 << 32) - 5);
        let mut interp = Interp::with_heap(module, heap);
        let err = interp.run(&mut NullTracer).unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.message().starts_with("MemoryError: "), "{err}");
        assert_eq!(interp.frames()[0].get("b"), Some(ObjRef(u32::MAX)));
    }
}
