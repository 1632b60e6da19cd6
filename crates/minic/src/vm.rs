//! The MiniC virtual machine.
//!
//! [`Vm::run_until`] runs the program until the next *debug event* a
//! [`Subscription`] asks for: a source line is reached, a function is
//! entered or about to return, memory is written, or output is produced.
//! Sanitizer traps and the exit always stop it. Events nobody subscribed
//! to never leave the op loop, so unprobed code runs at full speed and a
//! debugger engine pays only for the points it has armed — the way GDB
//! plays the paper's tracker, where code between traps runs untouched.
//! [`Vm::step`] subscribes to every event and [`Vm::run_to_completion`]
//! to none; both are thin wrappers over the same loop.
//!
//! Calls and returns are *two-phase*: the `Call` event fires after the
//! callee frame exists and arguments are bound (the paper's
//! `break_before_func` guarantee), and the `Return` event fires while the
//! returning frame is still intact so locals remain inspectable (the
//! paper's `retq`-breakpoint trick).

use crate::alloc::{AllocError, Allocator};
use crate::ast::BinOp;
use crate::bytecode::{MemTy, Op, Program};
use crate::mem::{Memory, GLOBAL_BASE, STACK_BASE, STACK_TOP};
use crate::sanitizer::Sanitizer;
use crate::typecheck::Intrinsic;
use crate::Error;
use state::Diagnostic;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A tagged runtime scalar on the VM's operand stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Integer of any MiniC integer type (held sign-extended in 64 bits).
    Int(i64),
    /// Float of either precision (held as `f64`).
    Float(f64),
    /// Pointer.
    Ptr(u64),
}

impl RtVal {
    /// Whether the value is zero/null in a boolean context.
    pub fn is_zero(&self) -> bool {
        match self {
            RtVal::Int(v) => *v == 0,
            RtVal::Float(v) => *v == 0.0,
            RtVal::Ptr(p) => *p == 0,
        }
    }

    /// Raw 64-bit payload (floats by bit pattern).
    pub fn bits(&self) -> u64 {
        match self {
            RtVal::Int(v) => *v as u64,
            RtVal::Float(v) => v.to_bits(),
            RtVal::Ptr(p) => *p,
        }
    }
}

impl fmt::Display for RtVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtVal::Int(v) => write!(f, "{v}"),
            RtVal::Float(v) => write!(f, "{v}"),
            RtVal::Ptr(0) => write!(f, "NULL"),
            RtVal::Ptr(p) => write!(f, "{p:#x}"),
        }
    }
}

/// A debug event produced by [`Vm::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Execution reached the start of a source line.
    Line(u32),
    /// A function was entered; its frame exists and arguments are bound.
    Call {
        /// Index into [`Program::functions`].
        function: usize,
        /// 0-based call depth (`main` is 0).
        depth: u32,
    },
    /// A function is about to return; its frame is still inspectable.
    Return {
        /// Index into [`Program::functions`].
        function: usize,
        /// 0-based call depth of the returning frame.
        depth: u32,
        /// The value being returned, if any.
        value: Option<RtVal>,
    },
    /// Memory was written (by [`Vm::step`] only when
    /// [`Vm::set_store_events`] is on).
    Store {
        /// First written address.
        addr: u64,
        /// Number of bytes written.
        size: u64,
    },
    /// The program printed something.
    Output(String),
    /// The sanitizer observed a memory-safety violation (only in sanitizer
    /// mode, see [`Vm::set_sanitizer`]). The offending operation already
    /// completed benignly; the program remains alive and resumable.
    SanitizerTrap(Diagnostic),
    /// The program terminated with this exit code.
    Exited(i64),
}

/// The events [`Vm::run_until`] stops for. The VM consults it only where
/// an event arises (a line marker, a call, a return, a store, output),
/// never per op. Function-indexed entries index [`Program::functions`];
/// depths are 0-based (`main` is 0).
///
/// Watching a variable needs two kinds of event: the stores that can
/// change its bytes, and the events that can *rebind* its name to other
/// storage. [`Subscription::rebind`] names the functions whose frames
/// can do that: entering or leaving one of their frames makes the next
/// line or store event stop, and so does a line marker in one of their
/// frames that crosses a listed bound line (a local is visible from its
/// declaration line to the last line of its block, so its bounds are
/// the declaration line and the line after the block).
#[derive(Debug, Clone, Default)]
pub struct Subscription {
    /// Every call, return and output event ([`Vm::step`]'s contract).
    every: bool,
    /// Line events at any line in frames at most this many deep (a frame
    /// count, so 0 means none).
    any_line: usize,
    /// Line events at these lines: a bitset by line number.
    lines: Vec<u64>,
    /// Per function, call events at depths below the entry.
    calls: Vec<u32>,
    /// Per function, return events at depths below the entry.
    returns: Vec<u32>,
    /// Return events of any function at depths below this.
    returns_below: u32,
    /// Every store event.
    all_stores: bool,
    /// Store events overlapping these `[start, end)` address ranges.
    stores: Vec<(u64, u64)>,
    /// Per function, the bound lines whose crossing rebinds a watched
    /// name, when its frames can rebind one at all.
    rebind: Vec<Option<Vec<u32>>>,
}

/// A depth bound as a [`Subscription`] stores it: depths below it pass.
fn below(max_depth: Option<u32>) -> u32 {
    max_depth.map_or(u32::MAX, |d| d.saturating_add(1))
}

impl Subscription {
    /// Every line, call, return and output event; stores are added with
    /// [`Subscription::all_stores`].
    fn every() -> Self {
        Subscription {
            every: true,
            any_line: usize::MAX,
            ..Subscription::default()
        }
    }

    /// Unsubscribes from everything, keeping the allocations.
    pub fn clear(&mut self) {
        self.every = false;
        self.any_line = 0;
        self.lines.clear();
        self.calls.clear();
        self.returns.clear();
        self.returns_below = 0;
        self.clear_stores();
        self.rebind.clear();
    }

    /// Line events at `line`, at any depth.
    pub fn line(&mut self, line: u32) {
        let (word, bit) = (line as usize / 64, line % 64);
        if self.lines.len() <= word {
            self.lines.resize(word + 1, 0);
        }
        self.lines[word] |= 1 << bit;
    }

    /// Line events at every line in frames at most `frames` deep (a frame
    /// count: `usize::MAX` for every line, 0 for none beyond the others).
    pub fn set_any_line(&mut self, frames: usize) {
        self.any_line = frames;
    }

    /// Call events of `function` at depths up to `max_depth` (`None`:
    /// any depth).
    pub fn call(&mut self, function: usize, max_depth: Option<u32>) {
        raise(&mut self.calls, function, below(max_depth));
    }

    /// Return events of `function` at depths up to `max_depth` (`None`:
    /// any depth).
    pub fn ret(&mut self, function: usize, max_depth: Option<u32>) {
        raise(&mut self.returns, function, below(max_depth));
    }

    /// Return events of every function at depths below `depth`.
    pub fn set_returns_below(&mut self, depth: u32) {
        self.returns_below = depth;
    }

    /// Unsubscribes from every store event.
    pub fn clear_stores(&mut self) {
        self.all_stores = false;
        self.stores.clear();
    }

    /// Store events that write any of the `len` bytes at `addr`.
    pub fn stores_within(&mut self, addr: u64, len: u64) {
        self.stores.push((addr, addr.saturating_add(len)));
    }

    /// Every store event.
    pub fn all_stores(&mut self) {
        self.all_stores = true;
    }

    /// Frames of `function` can rebind a watched name: entering or
    /// leaving one stops at the next line or store event, and so does a
    /// line marker in one that crosses any of `bounds` (a line `b` is
    /// crossed when one of the previous and the new line is below `b`
    /// and the other is not).
    pub fn rebind(&mut self, function: usize, bounds: impl IntoIterator<Item = u32>) {
        if self.rebind.len() <= function {
            self.rebind.resize(function + 1, None);
        }
        self.rebind[function]
            .get_or_insert_with(Vec::new)
            .extend(bounds);
    }

    #[inline(always)]
    fn wants_line(&self, line: u32, prev: u32, frames: usize, function: usize) -> bool {
        frames <= self.any_line
            || self
                .lines
                .get(line as usize / 64)
                .is_some_and(|w| w & (1 << (line % 64)) != 0)
            || self
                .bounds(function)
                .is_some_and(|bounds| bounds.iter().any(|&b| (b <= prev) != (b <= line)))
    }

    #[inline]
    fn wants_call(&self, function: usize, depth: u32) -> bool {
        self.every || self.calls.get(function).is_some_and(|&b| depth < b)
    }

    #[inline]
    fn wants_return(&self, function: usize, depth: u32) -> bool {
        self.every
            || depth < self.returns_below
            || self.returns.get(function).is_some_and(|&b| depth < b)
    }

    #[inline]
    fn wants_store(&self, addr: u64, size: u64) -> bool {
        let end = addr.saturating_add(size);
        self.all_stores || self.stores.iter().any(|&(lo, hi)| addr < hi && lo < end)
    }

    #[inline]
    fn bounds(&self, function: usize) -> Option<&[u32]> {
        self.rebind.get(function)?.as_deref()
    }

    #[inline]
    fn rebinds(&self, function: usize) -> bool {
        self.bounds(function).is_some()
    }
}

/// Raises `bounds[index]` to at least `bound`, growing the table.
fn raise(bounds: &mut Vec<u32>, index: usize, bound: u32) {
    if bounds.len() <= index {
        bounds.resize(index + 1, 0);
    }
    bounds[index] = bounds[index].max(bound);
}

/// Why the op loop stopped before its countdown ran out. The event is
/// boxed, and so is the op loop's error ([`Fault`]), so that an op's
/// result fits in two registers: the common answer, "go on", then costs
/// a compare, not a copy of a whole `Event`.
enum Stop {
    /// A subscribed event, or one that always stops.
    Event(Box<Event>),
    /// An allocation left the heap above [`Vm::set_heap_limit`].
    HeapLimit,
}

impl Stop {
    fn event(event: Event) -> Stop {
        Stop::Event(Box::new(event))
    }
}

/// A runtime error as the op loop returns it (see [`Stop`]).
type Fault = Box<Error>;

/// One live activation record.
#[derive(Debug, Clone, Copy)]
pub struct FrameInfo {
    /// Index into [`Program::functions`].
    pub function: usize,
    /// Base address of the frame in the stack segment.
    pub base: u64,
    /// Current source line of this frame.
    pub line: u32,
    /// Saved return address (code index), 0 for `main`.
    pub return_pc: usize,
    /// Operand-stack height at frame creation (unwinding truncates to it).
    stack_mark: usize,
}

/// The MiniC virtual machine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Vm {
    program: Arc<Program>,
    mem: Memory,
    alloc: Allocator,
    frames: Vec<FrameInfo>,
    stack: Vec<RtVal>,
    pc: usize,
    pending_return: bool,
    store_events: bool,
    /// A frame that can rebind a watched name was entered or left: the
    /// next line or store event stops (see [`Subscription::rebind`]).
    rebind_pending: bool,
    output: String,
    exited: Option<i64>,
    ops_executed: u64,
    /// Ops [`Vm::run_until`] may still run before it yields (`u64::MAX`:
    /// never). The engine's fuel slices and step budget both set it.
    countdown: u64,
    /// Hard cap on total executed ops; running past it is an error. It
    /// terminates event-free loops too, which is what the verifier fuzz
    /// needs when executing arbitrary accepted mutants.
    op_budget: Option<u64>,
    /// Live heap bytes above which an allocation stops [`Vm::run_until`].
    heap_limit: Option<u64>,
    /// Shadow state when sanitizer mode is on (see [`Vm::set_sanitizer`]).
    san: Option<Box<Sanitizer>>,
    /// Events displaced by a sanitizer trap, delivered on later steps.
    san_deferred: VecDeque<Event>,
    /// In-engine profiler when profiling is armed (see [`Vm::set_profile`]).
    prof: Option<Box<obs::Profiler>>,
    /// Function index → profiler intern id, filled when profiling is armed.
    prof_ids: Vec<u32>,
}

impl Vm {
    /// Creates a VM ready to execute `program` (paused before anything has
    /// run; the first events will come from `main`).
    pub fn new(program: &Program) -> Self {
        Vm::from_arc(Arc::new(program.clone()))
    }

    /// Creates a VM sharing an already-reference-counted program.
    pub fn from_arc(program: Arc<Program>) -> Self {
        let mut mem = Memory::new(program.global_image.len() as u64);
        if !program.global_image.is_empty() {
            mem.write_bytes(GLOBAL_BASE, &program.global_image)
                .expect("globals segment sized from the image");
        }
        let main = &program.functions[program.main_index];
        let base = align_down(STACK_TOP - main.frame_size, 16);
        let pc = main.entry;
        let frames = vec![FrameInfo {
            function: program.main_index,
            base,
            line: main.line,
            return_pc: 0,
            stack_mark: 0,
        }];
        Vm {
            program,
            mem,
            alloc: Allocator::new(),
            frames,
            stack: Vec::with_capacity(64),
            pc,
            pending_return: false,
            store_events: false,
            rebind_pending: false,
            output: String::new(),
            exited: None,
            ops_executed: 0,
            countdown: u64::MAX,
            op_budget: None,
            heap_limit: None,
            san: None,
            san_deferred: VecDeque::new(),
            prof: None,
            prof_ids: Vec::new(),
        }
    }

    /// Enables or disables sanitizer mode: the allocator adds guard zones
    /// and quarantines freed blocks, and every load/store/allocation is
    /// checked against shadow state. Violations surface as
    /// [`Event::SanitizerTrap`] instead of errors — the program stays alive.
    /// Must be called before the first [`Vm::step`]; toggling mid-run is
    /// unsupported.
    pub fn set_sanitizer(&mut self, on: bool) {
        if on == self.san.is_some() {
            return;
        }
        if on {
            self.alloc.set_sanitize(true);
            let mut s = Box::new(Sanitizer::new());
            for fi in &self.frames {
                s.push_frame(&self.program.functions[fi.function], fi.base);
            }
            self.san = Some(s);
        } else {
            self.san = None;
            self.alloc.set_sanitize(false);
        }
    }

    /// Whether sanitizer mode is on.
    pub fn sanitizer_enabled(&self) -> bool {
        self.san.is_some()
    }

    /// Sanitizer traps raised so far (0 with the sanitizer off).
    pub fn sanitizer_traps(&self) -> u64 {
        self.san.as_deref().map(Sanitizer::traps).unwrap_or(0)
    }

    /// Arms or disarms the in-engine profiler. Counting mode attributes
    /// every executed op, line marker, call, and allocation exactly;
    /// sampling mode attributes ops on a seeded-deterministic interval
    /// clock driven by the op counter, so the same mode and period always
    /// produce the same profile. Like the sanitizer, arm before the first
    /// [`Vm::step`]; re-arming replaces the collected profile.
    pub fn set_profile(&mut self, mode: obs::ProfileMode, period: u64) {
        if mode == obs::ProfileMode::Off {
            self.prof = None;
            self.prof_ids.clear();
            return;
        }
        let mut p = Box::new(obs::Profiler::new(mode, period));
        self.prof_ids = self
            .program
            .functions
            .iter()
            .map(|f| p.intern(&f.name))
            .collect();
        // Frames alive at arm time (at least `main`, pushed by the
        // constructor, which never goes through `do_call`) enter the
        // profile now, mirroring the sanitizer's shadow-stack seeding.
        for fi in &self.frames {
            p.enter(self.prof_ids[fi.function]);
        }
        self.prof = Some(p);
    }

    /// Whether profiling is armed.
    pub fn profile_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// Snapshot of the collected profile (empty when profiling is off).
    pub fn profile_report(&self) -> obs::ProfileReport {
        self.prof
            .as_deref()
            .map(obs::Profiler::report)
            .unwrap_or_default()
    }

    /// Enables or disables [`Event::Store`] reporting by [`Vm::step`].
    /// ([`Vm::run_until`] delivers the stores its subscription names.)
    pub fn set_store_events(&mut self, on: bool) {
        self.store_events = on;
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Live frames, outermost (`main`) first.
    pub fn frames(&self) -> &[FrameInfo] {
        &self.frames
    }

    /// The innermost frame.
    ///
    /// # Panics
    ///
    /// Panics when called after the program exited (no frames remain).
    #[inline]
    pub fn current_frame(&self) -> &FrameInfo {
        self.frames.last().expect("program still running")
    }

    /// The memory, for inspection.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The allocator, for heap-block classification.
    pub fn allocator(&self) -> &Allocator {
        &self.alloc
    }

    /// Everything printed so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The exit code, once the program terminated.
    pub fn exit_code(&self) -> Option<i64> {
        self.exited
    }

    /// Total bytecode operations executed (bench metric).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Caps total executed ops: once `ops_executed` would exceed the
    /// budget, running returns a runtime error and the VM is dead. `None`
    /// (the default) removes the cap.
    pub fn set_op_budget(&mut self, budget: Option<u64>) {
        self.op_budget = budget;
    }

    /// Arms the countdown: after `ops` more ops, [`Vm::run_until`]
    /// returns `None` once and the countdown disarms. `None` disarms it.
    pub fn set_countdown(&mut self, ops: Option<u64>) {
        self.countdown = ops.unwrap_or(u64::MAX);
    }

    /// Sets the heap limit: an allocation that leaves more live heap
    /// bytes than `limit` makes [`Vm::run_until`] return `None` right
    /// after it. `None` (the default) removes the limit.
    pub fn set_heap_limit(&mut self, limit: Option<u64>) {
        self.heap_limit = limit;
    }

    /// Current stack pointer (base of the innermost frame); exposed as a
    /// pseudo-register by the low-level inspection API.
    pub fn stack_pointer(&self) -> u64 {
        self.frames.last().map(|f| f.base).unwrap_or(STACK_TOP)
    }

    #[cold]
    fn err(&self, message: impl Into<String>) -> Error {
        let line = self.frames.last().map(|f| f.line).unwrap_or(0);
        Error::Runtime {
            line,
            message: message.into(),
        }
    }

    #[inline(always)]
    fn pop(&mut self) -> RtVal {
        self.stack.pop().expect("codegen never underflows")
    }

    #[inline(always)]
    fn pop_int(&mut self) -> i64 {
        match self.pop() {
            RtVal::Int(v) => v,
            other => unreachable!("expected integer on stack, found {other:?}"),
        }
    }

    #[inline(always)]
    fn pop_float(&mut self) -> f64 {
        match self.pop() {
            RtVal::Float(v) => v,
            other => unreachable!("expected float on stack, found {other:?}"),
        }
    }

    #[inline(always)]
    fn pop_ptr(&mut self) -> u64 {
        match self.pop() {
            RtVal::Ptr(p) => p,
            // Integer zero can flow into pointer positions through `p = 0`
            // style conversions; accept it as NULL.
            RtVal::Int(v) => v as u64,
            other => unreachable!("expected pointer on stack, found {other:?}"),
        }
    }

    /// Runs until the next debug event.
    ///
    /// After [`Event::Exited`] the VM is finished; further calls keep
    /// returning the same event.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Runtime`] for invalid memory accesses, allocation
    /// misuse, division by zero or stack overflow; the VM is dead
    /// afterwards.
    pub fn step(&mut self) -> Result<Event, Error> {
        let mut every = Subscription::every();
        if self.store_events {
            every.all_stores();
        }
        loop {
            if let Some(event) = self.run_until(&every)? {
                return Ok(event);
            }
        }
    }

    /// Runs until an event `sub` subscribes to, a sanitizer trap or the
    /// exit; `None` when the countdown ([`Vm::set_countdown`]) runs out or
    /// an allocation passes the heap limit ([`Vm::set_heap_limit`]).
    ///
    /// # Errors
    ///
    /// As [`Vm::step`], plus running past the op budget.
    pub fn run_until(&mut self, sub: &Subscription) -> Result<Option<Event>, Error> {
        // Sanitizer traps queued by earlier ops drain first, then any event
        // they displaced — so traps are observed before the triggering op's
        // own event, and before the final `Exited`.
        if let Some(d) = self.san.as_deref_mut().and_then(Sanitizer::pop_pending) {
            return Ok(Some(Event::SanitizerTrap(d)));
        }
        if let Some(ev) = self.san_deferred.pop_front() {
            return Ok(Some(ev));
        }
        if let Some(code) = self.exited {
            return Ok(Some(Event::Exited(code)));
        }
        if self.pending_return {
            if let Some(ev) = self.finish_return::<true>(sub).map_err(|e| *e)? {
                return Ok(Some(self.gate(ev)));
            }
        }
        // One countdown per op: the armed countdown or what is left of the
        // op budget, whichever is smaller.
        let budget = self
            .op_budget
            .map_or(u64::MAX, |b| b.saturating_sub(self.ops_executed));
        let start = self.countdown.min(budget);
        let mut left = start;
        // The plain instance when nothing is armed; instrumentation cannot
        // be armed mid-run, so the choice holds for the whole call.
        let stop = if self.san.is_none() && self.prof.is_none() {
            self.run_ops::<false>(sub, &mut left)
        } else {
            self.run_ops::<true>(sub, &mut left)
        };
        let ran = start - left;
        self.ops_executed += ran;
        self.countdown = self.countdown.saturating_sub(ran);
        match stop.map_err(|e| *e)? {
            Some(Stop::Event(event)) => Ok(Some(*event)),
            Some(Stop::HeapLimit) => Ok(None),
            None if ran == budget => Err(self.err("op budget exhausted")),
            None => {
                self.countdown = u64::MAX;
                Ok(None)
            }
        }
    }

    /// The op loop: runs up to `left` ops, counting them down.
    ///
    /// `INSTR` picks one of two instances of this one body. The
    /// instrumented one (`true`) tests for the profiler and the sanitizer
    /// wherever they hook in; the plain one (`false`) runs only when
    /// neither is armed and compiles those tests out.
    #[inline(always)]
    fn run_ops<const INSTR: bool>(
        &mut self,
        sub: &Subscription,
        left: &mut u64,
    ) -> Result<Option<Stop>, Fault> {
        let program = Arc::clone(&self.program);
        let code = &program.code[..];
        while *left != 0 {
            *left -= 1;
            let op = code[self.pc];
            if INSTR {
                if let Some(p) = self.prof.as_deref_mut() {
                    p.tick();
                }
            }
            match self.exec::<INSTR>(op, sub)? {
                Some(Stop::Event(event)) if INSTR => {
                    return Ok(Some(Stop::event(self.gate(*event))))
                }
                Some(stop) => return Ok(Some(stop)),
                None => {}
            }
            if INSTR && self.san.as_deref().is_some_and(Sanitizer::has_pending) {
                let d = self
                    .san
                    .as_deref_mut()
                    .and_then(Sanitizer::pop_pending)
                    .expect("pending trap just observed");
                return Ok(Some(Stop::event(Event::SanitizerTrap(d))));
            }
        }
        Ok(None)
    }

    /// Delivers `ev`, unless a sanitizer trap is pending — then the trap
    /// goes first and `ev` is deferred to a later step.
    fn gate(&mut self, ev: Event) -> Event {
        match self.san.as_deref_mut().and_then(Sanitizer::pop_pending) {
            Some(d) => {
                self.san_deferred.push_back(ev);
                Event::SanitizerTrap(d)
            }
            None => ev,
        }
    }

    /// Runs the program to completion, subscribed to no event (sanitizer
    /// traps are passed over).
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error.
    pub fn run_to_completion(&mut self) -> Result<i64, Error> {
        let none = Subscription::default();
        loop {
            if let Some(Event::Exited(code)) = self.run_until(&none)? {
                return Ok(code);
            }
        }
    }

    /// Second phase of a return: unwind the frame.
    fn finish_return<const INSTR: bool>(
        &mut self,
        sub: &Subscription,
    ) -> Result<Option<Event>, Fault> {
        self.pending_return = false;
        let has_value = matches!(self.program.code[self.pc], Op::Ret(true));
        let value = if has_value { Some(self.pop()) } else { None };
        let frame = self.frames.pop().expect("returning frame exists");
        let caller = self.frames.last().map(|f| f.function);
        self.rebind_pending |=
            sub.rebinds(frame.function) || caller.is_some_and(|f| sub.rebinds(f));
        self.stack.truncate(frame.stack_mark);
        if INSTR {
            if let Some(s) = self.san.as_deref_mut() {
                s.pop_frame();
                if self.frames.is_empty() {
                    s.leak_check(&self.alloc);
                }
            }
            if let Some(p) = self.prof.as_deref_mut() {
                p.exit();
            }
        }
        if self.frames.is_empty() {
            let code = match value {
                Some(RtVal::Int(v)) => v,
                Some(RtVal::Ptr(p)) => p as i64,
                Some(RtVal::Float(f)) => f as i64,
                None => 0,
            };
            self.exited = Some(code);
            return Ok(Some(Event::Exited(code)));
        }
        if let Some(v) = value {
            self.stack.push(v);
        }
        self.pc = frame.return_pc;
        Ok(None)
    }

    /// Executes `op`; `Some` when it raised an event `sub` subscribes to
    /// or tripped the heap limit. `INSTR` as in [`Vm::run_ops`].
    #[inline(always)]
    fn exec<const INSTR: bool>(
        &mut self,
        op: Op,
        sub: &Subscription,
    ) -> Result<Option<Stop>, Fault> {
        use Op::*;
        // Debug cross-check against the shared stack-effect table: every
        // op that completes the match (no early event return) must change
        // the stack by exactly the delta `Op::stack_effect` declares.
        #[cfg(debug_assertions)]
        let declared = op.stack_effect().map(|fx| (self.stack.len(), fx.delta()));
        match op {
            Line(n) => {
                let frames = self.frames.len();
                let frame = self.frames.last_mut().expect("running frame");
                let prev = std::mem::replace(&mut frame.line, n);
                let function = frame.function;
                if INSTR {
                    if let Some(p) = self.prof.as_deref_mut() {
                        p.line(n);
                    }
                }
                self.pc += 1;
                if self.rebind_pending || sub.wants_line(n, prev, frames, function) {
                    self.rebind_pending = false;
                    return Ok(Some(Stop::event(Event::Line(n))));
                }
                return Ok(None);
            }
            PushI(v) => self.stack.push(RtVal::Int(v)),
            PushF(v) => self.stack.push(RtVal::Float(v)),
            PushP(p) => self.stack.push(RtVal::Ptr(p)),
            LocalAddr(off) => {
                let base = self.current_frame().base;
                self.stack.push(RtVal::Ptr(base + off));
            }
            Load(mt) => {
                let addr = self.pop_ptr();
                let v = self.load(addr, mt)?;
                self.stack.push(v);
                if INSTR {
                    self.san_read(addr, mt.size());
                }
            }
            Store(mt) => {
                let value = self.pop();
                let addr = self.pop_ptr();
                self.store(addr, mt, value)?;
                self.stack.push(value);
                if INSTR {
                    self.san_escape(value);
                    self.san_write(addr, mt.size());
                }
                if let Some(event) = self.store_event(sub, addr, mt.size()) {
                    return Ok(Some(event));
                }
            }
            MemCopy(size) => {
                let src = self.pop_ptr();
                let dst = self.pop_ptr();
                self.mem
                    .copy(dst, src, size)
                    .map_err(|e| self.err(e.to_string()))?;
                if INSTR && self.san.is_some() {
                    let line = self.cur_line();
                    let san = self.san.as_deref_mut().expect("checked above");
                    san.on_memcopy(dst, src, size, &self.alloc, line);
                }
                if let Some(event) = self.store_event(sub, dst, size) {
                    return Ok(Some(event));
                }
            }
            IArith(binop) => {
                let b = self.pop_int();
                let a = self.pop_int();
                let v = self.iarith(binop, a, b)?;
                self.stack.push(RtVal::Int(v));
            }
            FArith(binop) => {
                let b = self.pop_float();
                let a = self.pop_float();
                let v = match binop {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    other => unreachable!("float arith {other:?}"),
                };
                self.stack.push(RtVal::Float(v));
            }
            ICmp(binop) => {
                let b = self.pop();
                let a = self.pop();
                let r = match (a, b) {
                    (RtVal::Ptr(x), RtVal::Ptr(y)) => cmp(binop, &x, &y),
                    (x, y) => cmp(binop, &(x.bits() as i64), &(y.bits() as i64)),
                };
                self.stack.push(RtVal::Int(r as i64));
            }
            FCmp(binop) => {
                let b = self.pop_float();
                let a = self.pop_float();
                self.stack.push(RtVal::Int(cmp(binop, &a, &b) as i64));
            }
            Neg(true) => {
                let v = self.pop_float();
                self.stack.push(RtVal::Float(-v));
            }
            Neg(false) => {
                let v = self.pop_int();
                self.stack.push(RtVal::Int(v.wrapping_neg()));
            }
            Not => {
                let v = self.pop();
                self.stack.push(RtVal::Int(v.is_zero() as i64));
            }
            BitNot => {
                let v = self.pop_int();
                self.stack.push(RtVal::Int(!v));
            }
            I2F => {
                let v = self.pop_int();
                self.stack.push(RtVal::Float(v as f64));
            }
            F2I => {
                let v = self.pop_float();
                let v = if v.is_nan() { 0 } else { v as i64 };
                self.stack.push(RtVal::Int(v));
            }
            TruncI(mt) => {
                let v = self.pop_int();
                let t = match mt {
                    MemTy::I8 => v as i8 as i64,
                    MemTy::I32 => v as i32 as i64,
                    MemTy::I64 => v,
                    other => unreachable!("integer truncation to {other:?}"),
                };
                self.stack.push(RtVal::Int(t));
            }
            F2F32 => {
                let v = self.pop_float();
                self.stack.push(RtVal::Float(v as f32 as f64));
            }
            I2P => {
                let v = self.pop_int();
                self.stack.push(RtVal::Ptr(v as u64));
            }
            P2I => {
                let p = self.pop_ptr();
                self.stack.push(RtVal::Int(p as i64));
            }
            PtrAdd(elem) => {
                let idx = self.pop_int();
                let p = self.pop_ptr();
                self.stack.push(RtVal::Ptr(
                    p.wrapping_add_signed(idx.wrapping_mul(elem as i64)),
                ));
            }
            PtrSub(elem) => {
                let idx = self.pop_int();
                let p = self.pop_ptr();
                self.stack.push(RtVal::Ptr(
                    p.wrapping_sub((idx.wrapping_mul(elem as i64)) as u64),
                ));
            }
            PtrDiff(elem) => {
                let rhs = self.pop_ptr();
                let lhs = self.pop_ptr();
                let diff = (lhs as i64).wrapping_sub(rhs as i64) / elem as i64;
                self.stack.push(RtVal::Int(diff));
            }
            Jump(t) => {
                self.pc = t;
                return Ok(None);
            }
            JumpIfZero(t) => {
                let v = self.pop();
                if v.is_zero() {
                    self.pc = t;
                    return Ok(None);
                }
            }
            JumpIfNotZero(t) => {
                let v = self.pop();
                if !v.is_zero() {
                    self.pc = t;
                    return Ok(None);
                }
            }
            Dup => {
                let v = *self.stack.last().expect("dup on non-empty stack");
                self.stack.push(v);
            }
            Pop => {
                self.pop();
            }
            Call(idx) => {
                return self.do_call::<INSTR>(idx, sub);
            }
            Ret(_) => {
                let function = self.current_frame().function;
                let depth = (self.frames.len() - 1) as u32;
                if !sub.wants_return(function, depth) {
                    return Ok(self.finish_return::<INSTR>(sub)?.map(Stop::event));
                }
                // Phase one: report the imminent return with the frame
                // intact; `finish_return` unwinds on the next run.
                self.pending_return = true;
                let value = match op {
                    Ret(true) => Some(*self.stack.last().expect("return value on stack")),
                    _ => None,
                };
                return Ok(Some(Stop::event(Event::Return {
                    function,
                    depth,
                    value,
                })));
            }
            IncDec {
                memty,
                delta,
                prefix,
                ptr_step,
            } => {
                let addr = self.pop_ptr();
                let old = self.load(addr, memty)?;
                let new = match (old, ptr_step) {
                    (RtVal::Ptr(p), Some(step)) => {
                        RtVal::Ptr(p.wrapping_add_signed(delta * step as i64))
                    }
                    (RtVal::Int(v), None) => RtVal::Int(v.wrapping_add(delta)),
                    (RtVal::Float(v), None) => RtVal::Float(v + delta as f64),
                    other => unreachable!("inc/dec on {other:?}"),
                };
                self.store(addr, memty, new)?;
                self.stack.push(if prefix { new } else { old });
                // Read-then-write for the shadow state: the read clears any
                // pending dead-store candidate, the write starts a new one.
                if INSTR {
                    self.san_read(addr, memty.size());
                    self.san_escape(new);
                    self.san_write(addr, memty.size());
                }
                if let Some(event) = self.store_event(sub, addr, memty.size()) {
                    return Ok(Some(event));
                }
            }
            Intrinsic(intr, argc) => {
                return self.do_intrinsic(intr, argc as usize, sub);
            }
            LoadLocal(mt, off) => {
                let base = self.current_frame().base;
                let addr = base + off;
                let v = self.load(addr, mt)?;
                self.stack.push(v);
                if INSTR {
                    self.san_read(addr, mt.size());
                }
            }
            IArithImm(binop, imm) => {
                let a = self.pop_int();
                let v = self.iarith(binop, a, imm)?;
                self.stack.push(RtVal::Int(v));
            }
            ICmpImm(binop, imm) => {
                let a = self.pop();
                let r = cmp(binop, &(a.bits() as i64), &imm);
                self.stack.push(RtVal::Int(r as i64));
            }
            Nop => {}
        }
        #[cfg(debug_assertions)]
        if let Some((before, delta)) = declared {
            debug_assert_eq!(
                self.stack.len() as i64,
                before as i64 + delta,
                "stack-effect table out of sync for {op:?}"
            );
        }
        self.pc += 1;
        Ok(None)
    }

    #[inline(always)]
    fn iarith(&self, op: BinOp, a: i64, b: i64) -> Result<i64, Error> {
        Ok(match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(self.err("division by zero"));
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(self.err("remainder by zero"));
                }
                a.wrapping_rem(b)
            }
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::BitAnd => a & b,
            BinOp::BitOr => a | b,
            BinOp::BitXor => a ^ b,
            other => unreachable!("integer arith {other:?}"),
        })
    }

    #[inline(always)]
    fn load(&self, addr: u64, mt: MemTy) -> Result<RtVal, Error> {
        let v = match mt {
            MemTy::I8 => RtVal::Int(
                self.mem
                    .read_int(addr, 1)
                    .map_err(|e| self.err(e.to_string()))?,
            ),
            MemTy::I32 => RtVal::Int(
                self.mem
                    .read_int(addr, 4)
                    .map_err(|e| self.err(e.to_string()))?,
            ),
            MemTy::I64 => RtVal::Int(
                self.mem
                    .read_int(addr, 8)
                    .map_err(|e| self.err(e.to_string()))?,
            ),
            MemTy::F32 => RtVal::Float(
                self.mem
                    .read_float(addr, 4)
                    .map_err(|e| self.err(e.to_string()))?,
            ),
            MemTy::F64 => RtVal::Float(
                self.mem
                    .read_float(addr, 8)
                    .map_err(|e| self.err(e.to_string()))?,
            ),
            MemTy::P => RtVal::Ptr(
                self.mem
                    .read_ptr(addr)
                    .map_err(|e| self.err(e.to_string()))?,
            ),
        };
        Ok(v)
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, mt: MemTy, value: RtVal) -> Result<(), Error> {
        let r = match (mt, value) {
            (MemTy::I8, RtVal::Int(v)) => self.mem.write_int(addr, 1, v),
            (MemTy::I32, RtVal::Int(v)) => self.mem.write_int(addr, 4, v),
            (MemTy::I64, RtVal::Int(v)) => self.mem.write_int(addr, 8, v),
            (MemTy::F32, RtVal::Float(v)) => self.mem.write_float(addr, 4, v),
            (MemTy::F64, RtVal::Float(v)) => self.mem.write_float(addr, 8, v),
            (MemTy::P, RtVal::Ptr(p)) => self.mem.write_ptr(addr, p),
            // Integer zero flowing into a pointer slot (NULL conversions).
            (MemTy::P, RtVal::Int(v)) => self.mem.write_ptr(addr, v as u64),
            (mt, v) => unreachable!("store type confusion {mt:?} <- {v:?}"),
        };
        r.map_err(|e| self.err(e.to_string()))
    }

    /// The store event of a completed store of `size` bytes at `addr`,
    /// when `sub` wants it; advances past the op then.
    #[inline(always)]
    fn store_event(&mut self, sub: &Subscription, addr: u64, size: u64) -> Option<Stop> {
        if !(self.rebind_pending || sub.wants_store(addr, size)) {
            return None;
        }
        self.rebind_pending = false;
        self.pc += 1;
        Some(Stop::event(Event::Store { addr, size }))
    }

    fn cur_line(&self) -> u32 {
        self.frames.last().map(|f| f.line).unwrap_or(0)
    }

    fn san_read(&mut self, addr: u64, size: u64) {
        if self.san.is_some() {
            let line = self.cur_line();
            let san = self.san.as_deref_mut().expect("checked above");
            san.on_read(addr, size, &self.alloc, line);
        }
    }

    fn san_write(&mut self, addr: u64, size: u64) {
        if self.san.is_some() {
            let line = self.cur_line();
            let san = self.san.as_deref_mut().expect("checked above");
            san.on_write(addr, size, &self.alloc, line);
        }
    }

    fn san_escape(&mut self, v: RtVal) {
        if let Some(s) = self.san.as_deref_mut() {
            s.escape(v);
        }
    }

    fn san_record_alloc(&mut self, addr: u64) {
        if self.san.is_some() {
            let line = self.cur_line();
            let san = self.san.as_deref_mut().expect("checked above");
            san.record_alloc(addr, line);
        }
    }

    fn prof_alloc(&mut self, bytes: u64) {
        if self.prof.is_some() {
            let line = self.cur_line();
            let p = self.prof.as_deref_mut().expect("checked above");
            p.alloc(line, bytes);
        }
    }

    fn san_check_output_args(&mut self, args: &[RtVal]) {
        if self.san.is_some() {
            let line = self.cur_line();
            let san = self.san.as_deref_mut().expect("checked above");
            for &a in args {
                san.check_intrinsic_arg(a, &self.alloc, line);
            }
        }
    }

    fn do_call<const INSTR: bool>(
        &mut self,
        idx: usize,
        sub: &Subscription,
    ) -> Result<Option<Stop>, Fault> {
        let callee = &self.program.functions[idx];
        let caller = self.current_frame();
        let (cur_base, caller) = (caller.base, caller.function);
        let base = align_down(cur_base - callee.frame_size, 16);
        if base < STACK_BASE {
            let message = format!("stack overflow calling `{}`", callee.name);
            return Err(self.err(message).into());
        }
        // Bind arguments right-to-left into the first nparams slots.
        let nparams = callee.nparams;
        let entry = callee.entry;
        let line = callee.line;
        for i in (0..nparams).rev() {
            let slot = &self.program.functions[idx].locals[i];
            let mt = MemTy::from_type(&slot.ty);
            let offset = slot.offset;
            let v = self.pop();
            // A stack pointer passed as an argument escapes its slot.
            if INSTR {
                self.san_escape(v);
            }
            self.store(base + offset, mt, v)?;
        }
        self.frames.push(FrameInfo {
            function: idx,
            base,
            line,
            return_pc: self.pc + 1,
            stack_mark: self.stack.len(),
        });
        if INSTR {
            if let Some(s) = self.san.as_deref_mut() {
                s.push_frame(&self.program.functions[idx], base);
            }
            if let Some(p) = self.prof.as_deref_mut() {
                p.enter(self.prof_ids[idx]);
            }
        }
        self.pc = entry;
        self.rebind_pending |= sub.rebinds(idx) || sub.rebinds(caller);
        let depth = (self.frames.len() - 1) as u32;
        Ok(sub.wants_call(idx, depth).then(|| {
            Stop::event(Event::Call {
                function: idx,
                depth,
            })
        }))
    }

    fn do_intrinsic(
        &mut self,
        intr: Intrinsic,
        argc: usize,
        sub: &Subscription,
    ) -> Result<Option<Stop>, Fault> {
        let mut args = Vec::with_capacity(argc);
        for _ in 0..argc {
            args.push(self.pop());
        }
        args.reverse();
        let event = match intr {
            Intrinsic::Malloc => {
                let size = int_arg(&args[0]);
                let p = self
                    .alloc
                    .malloc(&mut self.mem, size)
                    .map_err(|e| self.err(e.to_string()))?;
                self.san_record_alloc(p);
                self.prof_alloc(size);
                self.stack.push(RtVal::Ptr(p));
                None
            }
            Intrinsic::Calloc => {
                let (n, sz) = (int_arg(&args[0]), int_arg(&args[1]));
                let p = self
                    .alloc
                    .calloc(&mut self.mem, n, sz)
                    .map_err(|e| self.err(e.to_string()))?;
                self.san_record_alloc(p);
                self.prof_alloc(n.saturating_mul(sz));
                self.stack.push(RtVal::Ptr(p));
                None
            }
            Intrinsic::Realloc => {
                let ptr = ptr_arg(&args[0]);
                let size = int_arg(&args[1]);
                let p = self
                    .alloc
                    .realloc(&mut self.mem, ptr, size)
                    .map_err(|e| self.err(e.to_string()))?;
                self.san_record_alloc(p);
                self.prof_alloc(size);
                self.stack.push(RtVal::Ptr(p));
                None
            }
            Intrinsic::Free => {
                let ptr = ptr_arg(&args[0]);
                match self.alloc.free(ptr) {
                    Ok(()) => {}
                    // In sanitizer mode a double free is a trap, not a VM
                    // error: the free is a no-op and the program continues.
                    Err(AllocError::DoubleFree { addr }) if self.san.is_some() => {
                        let line = self.cur_line();
                        let san = self.san.as_deref_mut().expect("checked above");
                        san.on_double_free(addr, line);
                    }
                    Err(e) => return Err(self.err(e.to_string()).into()),
                }
                None
            }
            Intrinsic::Printf => {
                self.san_check_output_args(&args);
                let fmt_ptr = ptr_arg(&args[0]);
                let fmt = self
                    .mem
                    .read_cstring(fmt_ptr, 64 * 1024)
                    .map_err(|e| self.err(e.to_string()))?;
                let text = self.format_printf(&fmt, &args[1..])?;
                self.stack.push(RtVal::Int(text.len() as i64));
                self.output.push_str(&text);
                Some(Event::Output(text))
            }
            Intrinsic::Puts => {
                self.san_check_output_args(&args);
                let ptr = ptr_arg(&args[0]);
                let mut s = self
                    .mem
                    .read_cstring(ptr, 64 * 1024)
                    .map_err(|e| self.err(e.to_string()))?;
                s.push('\n');
                self.stack.push(RtVal::Int(s.len() as i64));
                self.output.push_str(&s);
                Some(Event::Output(s))
            }
            Intrinsic::Putchar => {
                let c = int_arg(&args[0]) as i64;
                let ch = char::from_u32((c as u32) & 0xff).unwrap_or('\u{fffd}');
                self.stack.push(RtVal::Int(c));
                self.output.push(ch);
                Some(Event::Output(ch.to_string()))
            }
        };
        self.pc += 1;
        let allocated = matches!(
            intr,
            Intrinsic::Malloc | Intrinsic::Calloc | Intrinsic::Realloc
        );
        if allocated && self.heap_limit.is_some_and(|l| self.alloc.live_bytes() > l) {
            return Ok(Some(Stop::HeapLimit));
        }
        Ok(event.filter(|_| sub.every).map(Stop::event))
    }

    /// Minimal printf: `%d %i %ld %li %u %lu %c %s %f %lf %g %x %p %%`.
    /// Unknown directives are copied through literally.
    fn format_printf(&self, fmt: &str, args: &[RtVal]) -> Result<String, Error> {
        let mut out = String::new();
        let mut it = fmt.chars().peekable();
        let mut next_arg = args.iter();
        while let Some(c) = it.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            // Skip length modifiers.
            let mut spec = it.next().unwrap_or('%');
            while spec == 'l' {
                spec = it.next().unwrap_or('%');
            }
            if spec == '%' {
                out.push('%');
                continue;
            }
            let Some(arg) = next_arg.next() else {
                out.push('%');
                out.push(spec);
                continue;
            };
            match spec {
                'd' | 'i' => out.push_str(&int_of(arg).to_string()),
                'u' => out.push_str(&(int_of(arg) as u64).to_string()),
                'x' => out.push_str(&format!("{:x}", int_of(arg))),
                'c' => {
                    let code = (int_of(arg) as u32) & 0xff;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                'f' => out.push_str(&format!("{:.6}", float_of(arg))),
                'g' => out.push_str(&format!("{}", float_of(arg))),
                's' => {
                    let p = ptr_arg(arg);
                    let s = self
                        .mem
                        .read_cstring(p, 64 * 1024)
                        .map_err(|e| self.err(e.to_string()))?;
                    out.push_str(&s);
                }
                'p' => match arg {
                    RtVal::Ptr(0) => out.push_str("(nil)"),
                    other => out.push_str(&format!("{:#x}", other.bits())),
                },
                other => {
                    out.push('%');
                    out.push(other);
                }
            }
        }
        Ok(out)
    }
}

fn align_down(v: u64, align: u64) -> u64 {
    v / align * align
}

fn int_arg(v: &RtVal) -> u64 {
    match v {
        RtVal::Int(i) => *i as u64,
        RtVal::Ptr(p) => *p,
        RtVal::Float(f) => *f as u64,
    }
}

fn ptr_arg(v: &RtVal) -> u64 {
    match v {
        RtVal::Ptr(p) => *p,
        RtVal::Int(i) => *i as u64,
        RtVal::Float(_) => 0,
    }
}

fn int_of(v: &RtVal) -> i64 {
    match v {
        RtVal::Int(i) => *i,
        RtVal::Ptr(p) => *p as i64,
        RtVal::Float(f) => *f as i64,
    }
}

fn float_of(v: &RtVal) -> f64 {
    match v {
        RtVal::Float(f) => *f,
        RtVal::Int(i) => *i as f64,
        RtVal::Ptr(p) => *p as f64,
    }
}

#[inline(always)]
fn cmp<T: PartialOrd>(op: BinOp, a: &T, b: &T) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        other => unreachable!("comparison {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn run(src: &str) -> i64 {
        let p = compile("t.c", src).unwrap();
        Vm::new(&p).run_to_completion().unwrap()
    }

    fn run_output(src: &str) -> (i64, String) {
        let p = compile("t.c", src).unwrap();
        let mut vm = Vm::new(&p);
        let code = vm.run_to_completion().unwrap();
        (code, vm.output().to_owned())
    }

    #[test]
    fn arithmetic_and_locals() {
        assert_eq!(run("int main() { int x = 21; return x * 2; }"), 42);
        assert_eq!(run("int main() { return 7 % 3 + (10 - 4) / 2; }"), 4);
        assert_eq!(run("int main() { return 1 << 5 | 3; }"), 35);
        assert_eq!(run("int main() { return -(-5); }"), 5);
        assert_eq!(run("int main() { return ~0 & 255; }"), 255);
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(
            run("int main() { double d = 2.5; return (int)(d * 4.0); }"),
            10
        );
        assert_eq!(
            run("int main() { float f = 1.5f; return (int)(f + 2.5); }"),
            4
        );
        assert_eq!(run("int main() { return (int)(7.9); }"), 7);
        assert_eq!(run("int main() { return 3 < 2.5; }"), 0);
    }

    #[test]
    fn char_truncation() {
        assert_eq!(
            run("int main() { char c = 200; return c; }"),
            200i64 as i8 as i64
        );
        assert_eq!(run("int main() { char c = 'A'; return c + 1; }"), 66);
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            run("int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i; return s; }"),
            55
        );
        assert_eq!(
            run("int main() { int i = 0; while (i < 100) { i++; if (i == 42) break; } return i; }"),
            42
        );
        assert_eq!(
            run("int main() { int s = 0; for (int i = 0; i < 10; i++) { \
                 if (i % 2) continue; s += i; } return s; }"),
            20
        );
        assert_eq!(run("int main() { return 1 ? 10 : 20; }"), 10);
        assert_eq!(
            run("int main() { int x = 5; if (x > 3) return 1; else return 2; }"),
            1
        );
    }

    #[test]
    fn short_circuit_semantics() {
        // The second operand must not run (it would divide by zero).
        assert_eq!(
            run("int main() { int x = 0; return x != 0 && 10 / x > 1; }"),
            0
        );
        assert_eq!(
            run("int main() { int x = 0; return x == 0 || 10 / x > 1; }"),
            1
        );
        assert_eq!(run("int main() { return 2 && 3; }"), 1);
        assert_eq!(run("int main() { return 0 || 0; }"), 0);
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            run(
                "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } \
                 int main() { return fib(10); }"
            ),
            55
        );
        assert_eq!(
            run("void inc(int* p) { *p = *p + 1; } int main() { int x = 5; inc(&x); return x; }"),
            6
        );
    }

    #[test]
    fn pointers_and_arrays() {
        assert_eq!(
            run(
                "int main() { int a[5]; for (int i = 0; i < 5; i++) a[i] = i * i; \
                 return a[4] + a[2]; }"
            ),
            20
        );
        assert_eq!(
            run("int main() { int a[3] = {10, 20, 30}; int* p = a; p++; return *p; }"),
            20
        );
        assert_eq!(
            run("int main() { int a[4] = {1,2,3,4}; int* p = &a[3]; return (int)(p - a); }"),
            3
        );
        assert_eq!(run("int main() { int a[2] = {5}; return a[1]; }"), 0); // zero fill
    }

    #[test]
    fn strings_and_globals() {
        assert_eq!(
            run("char* msg = \"hi\"; int main() { return msg[0] + msg[1]; }"),
            ('h' as i64) + ('i' as i64)
        );
        assert_eq!(run("int g = 10; int main() { g += 5; return g; }"), 15);
        assert_eq!(
            run("int table[4] = {1, 2, 3, 4}; int main() { return table[2]; }"),
            3
        );
    }

    #[test]
    fn structs() {
        assert_eq!(
            run("struct point { int x; int y; };\n\
                 int main() { struct point p; p.x = 3; p.y = 4; return p.x * p.x + p.y * p.y; }"),
            25
        );
        assert_eq!(
            run("struct pair { int a; int b; };\n\
                 int main() { struct pair p; p.a = 1; p.b = 2; struct pair q; q = p; \
                 q.a = 10; return p.a + q.a + q.b; }"),
            13
        );
        assert_eq!(
            run("struct node { int v; struct node* next; };\n\
                 int main() { struct node a; struct node b; a.v = 1; b.v = 2; \
                 a.next = &b; b.next = NULL; return a.next->v; }"),
            2
        );
    }

    #[test]
    fn heap_allocation() {
        assert_eq!(
            run("int main() { int* p = malloc(4 * sizeof(int)); \
                 for (int i = 0; i < 4; i++) p[i] = i + 1; \
                 int s = p[0] + p[3]; free(p); return s; }"),
            5
        );
        assert_eq!(
            run("int main() { int* p = calloc(8, sizeof(int)); int v = p[7]; free(p); return v; }"),
            0
        );
        assert_eq!(
            run("int main() { int* p = malloc(2 * sizeof(int)); p[0] = 9; \
                 p = realloc(p, 8 * sizeof(int)); int v = p[0]; free(p); return v; }"),
            9
        );
    }

    #[test]
    fn inc_dec_semantics() {
        assert_eq!(
            run("int main() { int i = 5; int a = i++; return a * 100 + i; }"),
            506
        );
        assert_eq!(
            run("int main() { int i = 5; int a = ++i; return a * 100 + i; }"),
            606
        );
        assert_eq!(run("int main() { int i = 5; i--; --i; return i; }"), 3);
    }

    #[test]
    fn printf_output() {
        let (_, out) = run_output(
            "int main() { printf(\"%d %s %c %f\\n\", 42, \"hi\", 'x', 1.5); return 0; }",
        );
        assert_eq!(out, "42 hi x 1.500000\n");
        let (_, out) = run_output("int main() { puts(\"line\"); putchar('!'); return 0; }");
        assert_eq!(out, "line\n!");
        let (_, out) = run_output("int main() { printf(\"%p\", (int*)0); return 0; }");
        assert_eq!(out, "(nil)");
    }

    #[test]
    fn runtime_errors() {
        let p = compile("t.c", "int main() { int* p = NULL; return *p; }").unwrap();
        let err = Vm::new(&p).run_to_completion().unwrap_err();
        assert!(err.message().contains("invalid memory"));

        let p = compile("t.c", "int main() { return 1 / 0; }").unwrap();
        let err = Vm::new(&p).run_to_completion().unwrap_err();
        assert!(err.message().contains("division"));

        let p = compile(
            "t.c",
            "int main() { int* p = malloc(4); free(p); free(p); return 0; }",
        )
        .unwrap();
        let err = Vm::new(&p).run_to_completion().unwrap_err();
        assert!(err.message().contains("double free"));
    }

    #[test]
    fn stack_overflow_detected() {
        let p = compile(
            "t.c",
            "int f(int n) { int pad[200]; pad[0] = n; return f(n + 1); } \
                        int main() { return f(0); }",
        )
        .unwrap();
        let err = Vm::new(&p).run_to_completion().unwrap_err();
        assert!(err.message().contains("stack overflow"));
    }

    #[test]
    fn events_sequence_for_call_and_return() {
        let p = compile(
            "t.c",
            "int id(int x) { return x; }\nint main() { return id(7); }",
        )
        .unwrap();
        let mut vm = Vm::new(&p);
        let mut calls = 0;
        let mut returns = 0;
        let mut lines = Vec::new();
        loop {
            match vm.step().unwrap() {
                Event::Call { function, depth } => {
                    calls += 1;
                    assert_eq!(p.functions[function].name, "id");
                    assert_eq!(depth, 1);
                    // Arguments are bound when the call event fires.
                    let base = vm.current_frame().base;
                    assert_eq!(vm.memory().read_int(base, 4).unwrap(), 7);
                }
                Event::Return { value, .. } => {
                    returns += 1;
                    if returns == 1 {
                        assert_eq!(value, Some(RtVal::Int(7)));
                        // The frame is still intact at the return event.
                        assert_eq!(vm.frames().len(), 2);
                    }
                }
                Event::Line(n) => lines.push(n),
                Event::Exited(code) => {
                    assert_eq!(code, 7);
                    break;
                }
                _ => {}
            }
        }
        assert_eq!(calls, 1);
        assert_eq!(returns, 2); // id and main
        assert!(lines.contains(&1) && lines.contains(&2));
    }

    #[test]
    fn store_events_only_when_enabled() {
        let src = "int main() { int x = 1; x = 2; x = 3; return x; }";
        let p = compile("t.c", src).unwrap();
        let mut vm = Vm::new(&p);
        let mut stores = 0;
        loop {
            match vm.step().unwrap() {
                Event::Store { .. } => stores += 1,
                Event::Exited(_) => break,
                _ => {}
            }
        }
        assert_eq!(stores, 0);

        let mut vm = Vm::new(&p);
        vm.set_store_events(true);
        let mut stores = 0;
        loop {
            match vm.step().unwrap() {
                Event::Store { size, .. } => {
                    stores += 1;
                    assert_eq!(size, 4);
                }
                Event::Exited(_) => break,
                _ => {}
            }
        }
        assert_eq!(stores, 3);
    }

    #[test]
    fn run_until_stops_only_for_subscribed_events() {
        let src = "int f(int x) {\nreturn x + 1;\n}\nint main() {\nint a = f(1);\n\
                   int b = f(a);\nprintf(\"%d\", b);\nreturn b;\n}";
        let p = compile("t.c", src).unwrap();
        let f = p.function("f").unwrap().0;
        let mut sub = Subscription::default();
        sub.line(6);
        sub.ret(f, Some(1));
        let mut vm = Vm::new(&p);
        let mut events = Vec::new();
        loop {
            let event = vm.run_until(&sub).unwrap().expect("no countdown armed");
            events.push(event.clone());
            if let Event::Exited(_) = event {
                break;
            }
        }
        let ret = |v| Event::Return {
            function: f,
            depth: 1,
            value: Some(RtVal::Int(v)),
        };
        assert_eq!(events, [ret(2), Event::Line(6), ret(3), Event::Exited(3)]);
        // Unsubscribed output still lands in the output buffer.
        assert_eq!(vm.output(), "3");
    }

    #[test]
    fn the_countdown_and_the_heap_limit_yield_once() {
        let p = compile(
            "t.c",
            "int main() {\nint i = 0;\nwhile (i < 10) {\nchar* p = malloc(100);\ni = i + 1;\n}\nreturn i;\n}",
        )
        .unwrap();
        let none = Subscription::default();
        let mut vm = Vm::new(&p);
        vm.set_countdown(Some(5));
        assert_eq!(vm.run_until(&none).unwrap(), None);
        assert_eq!(vm.ops_executed(), 5);
        vm.set_heap_limit(Some(250));
        assert_eq!(vm.run_until(&none).unwrap(), None);
        assert_eq!(vm.allocator().live_bytes(), 300);
        // Each allocation past the limit yields again; the countdown
        // disarmed when it ran out.
        for live in [400, 500] {
            assert_eq!(vm.run_until(&none).unwrap(), None);
            assert_eq!(vm.allocator().live_bytes(), live);
        }
        vm.set_heap_limit(None);
        assert_eq!(vm.run_until(&none).unwrap(), Some(Event::Exited(10)));
        // The op budget is a hard stop, not a yield.
        let mut vm = Vm::new(&p);
        vm.set_op_budget(Some(20));
        assert!(vm.run_until(&none).is_err());
        assert_eq!(vm.ops_executed(), 20);
    }

    #[test]
    fn exited_is_idempotent() {
        let p = compile("t.c", "int main() { return 3; }").unwrap();
        let mut vm = Vm::new(&p);
        assert_eq!(vm.run_to_completion().unwrap(), 3);
        assert_eq!(vm.step().unwrap(), Event::Exited(3));
        assert_eq!(vm.exit_code(), Some(3));
    }

    #[test]
    fn long_arithmetic() {
        assert_eq!(
            run("int main() { long big = 1000000000; big = big * 5; \
                 return (int)(big % 1000000007); }"),
            5_000_000_000i64 % 1_000_000_007
        );
    }

    #[test]
    fn pointer_comparison_and_null() {
        assert_eq!(
            run("int main() { int* p = NULL; if (p == NULL) return 1; return 0; }"),
            1
        );
        assert_eq!(
            run("int main() { int a[2]; int* p = &a[0]; int* q = &a[1]; return p < q; }"),
            1
        );
    }

    #[test]
    fn compound_assignment_on_array_elements() {
        assert_eq!(
            run("int main() { int a[3] = {1, 2, 3}; a[1] *= 10; a[2] += a[1]; return a[2]; }"),
            23
        );
    }

    mod sanitizer {
        use super::*;
        use state::DiagnosticKind;

        /// Runs with the sanitizer on, collecting traps and the exit code.
        fn san_run(src: &str) -> (Vec<Diagnostic>, i64) {
            let p = compile("t.c", src).unwrap();
            let mut vm = Vm::new(&p);
            vm.set_sanitizer(true);
            let mut traps = Vec::new();
            loop {
                match vm.step().unwrap() {
                    Event::SanitizerTrap(d) => traps.push(d),
                    Event::Exited(code) => return (traps, code),
                    _ => {}
                }
            }
        }

        #[test]
        fn uninit_read_traps_at_the_reading_line() {
            let (traps, _) = san_run("int main() {\nint x;\nint y = x + 1;\nreturn y - y;\n}");
            assert_eq!(traps.len(), 1);
            assert_eq!(traps[0].kind, DiagnosticKind::UninitRead);
            assert_eq!(traps[0].span, 3);
            assert_eq!(traps[0].function, "main");
        }

        #[test]
        fn use_after_free_traps_and_program_survives() {
            let (traps, code) = san_run(
                "int main() {\nlong* p = malloc(8);\np[0] = 1;\nfree(p);\n\
                 long v = p[0];\nreturn (int)v;\n}",
            );
            assert_eq!(traps.len(), 1);
            assert_eq!(traps[0].kind, DiagnosticKind::UseAfterFree);
            assert_eq!(traps[0].span, 5);
            // Quarantined memory still holds the old value; the program ran on.
            assert_eq!(code, 1);
        }

        #[test]
        fn double_free_is_a_trap_not_an_error() {
            let (traps, code) =
                san_run("int main() {\nint* p = malloc(4);\nfree(p);\nfree(p);\nreturn 7;\n}");
            assert_eq!(traps.len(), 1);
            assert_eq!(traps[0].kind, DiagnosticKind::DoubleFree);
            assert_eq!(traps[0].span, 4);
            assert_eq!(code, 7, "the second free is a no-op");
        }

        #[test]
        fn out_of_bounds_store_lands_in_the_redzone() {
            let (traps, _) = san_run(
                "int main() {\nint* p = malloc(5 * sizeof(int));\np[5] = 1;\nfree(p);\nreturn 0;\n}",
            );
            assert_eq!(traps.len(), 1);
            assert_eq!(traps[0].kind, DiagnosticKind::OutOfBounds);
            assert_eq!(traps[0].span, 3);
        }

        #[test]
        fn dead_store_traps_with_the_first_stores_span() {
            let (traps, code) = san_run("int main() {\nint x = 1;\nx = 2;\nreturn x;\n}");
            assert_eq!(traps.len(), 1);
            assert_eq!(traps[0].kind, DiagnosticKind::DeadStore);
            assert_eq!(traps[0].span, 2, "span is the overwritten store");
            assert_eq!(code, 2);
        }

        #[test]
        fn leak_traps_before_exit() {
            let p = compile("t.c", "int main() {\nint* p = malloc(8);\nreturn 0;\n}").unwrap();
            let mut vm = Vm::new(&p);
            vm.set_sanitizer(true);
            let mut saw_leak = false;
            loop {
                match vm.step().unwrap() {
                    Event::SanitizerTrap(d) => {
                        assert_eq!(d.kind, DiagnosticKind::Leak);
                        assert_eq!(d.span, 2, "leak is anchored at the allocation site");
                        assert!(!saw_leak, "one leak, once");
                        saw_leak = true;
                    }
                    Event::Exited(0) => break,
                    _ => {}
                }
            }
            assert!(saw_leak);
            // Exited stays idempotent after the trap drain.
            assert_eq!(vm.step().unwrap(), Event::Exited(0));
            assert_eq!(vm.sanitizer_traps(), 1);
        }

        #[test]
        fn escaped_slots_are_exempt() {
            let (traps, code) =
                san_run("int main() {\nint x;\nint* p = &x;\n*p = 5;\nint y = x;\nreturn y;\n}");
            assert_eq!(traps, vec![], "escaped slot must not trap");
            assert_eq!(code, 5);
        }

        #[test]
        fn parameters_count_as_initialized() {
            let (traps, code) =
                san_run("int f(int a) {\nreturn a + 1;\n}\nint main() {\nreturn f(3);\n}");
            assert_eq!(traps, vec![]);
            assert_eq!(code, 4);
        }

        #[test]
        fn trap_is_delivered_before_the_ops_own_event() {
            let src = "int main() {\nchar* s = malloc(4);\ns[0] = 'h';\ns[1] = 0;\n\
                       free(s);\nputs(s);\nreturn 0;\n}";
            let p = compile("t.c", src).unwrap();
            let mut vm = Vm::new(&p);
            vm.set_sanitizer(true);
            let mut order = Vec::new();
            loop {
                match vm.step().unwrap() {
                    Event::SanitizerTrap(d) => order.push(format!("trap:{}", d.kind.name())),
                    Event::Output(_) => order.push("output".to_owned()),
                    Event::Exited(_) => break,
                    _ => {}
                }
            }
            assert_eq!(order, ["trap:use-after-free", "output"]);
        }

        #[test]
        fn traps_dedupe_within_a_loop() {
            let (traps, _) = san_run(
                "int main() {\nint* p = malloc(4);\nfree(p);\nint s = 0;\n\
                 for (int i = 0; i < 5; i++) {\ns += p[0];\n}\nreturn s - s;\n}",
            );
            let uaf: Vec<_> = traps
                .iter()
                .filter(|d| d.kind == DiagnosticKind::UseAfterFree)
                .collect();
            assert_eq!(uaf.len(), 1, "same (kind, function, line) reports once");
        }

        #[test]
        fn sanitizer_off_keeps_seed_semantics() {
            // Without the sanitizer, double free stays a hard VM error.
            let p = compile(
                "t.c",
                "int main() { int* p = malloc(4); free(p); free(p); return 0; }",
            )
            .unwrap();
            assert!(Vm::new(&p).run_to_completion().is_err());
        }
    }
}
