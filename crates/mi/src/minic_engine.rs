//! The MiniC debugger engine: the MI command set over the MiniC VM's
//! event stream. The shared control core (`control`) owns the
//! control points, the pause decisions, fuel slices, budgets and
//! engine-agnostic commands; this module reports VM events to it and
//! answers inspection.
//!
//! * `Call` and `Return` events match by function index, resolved once
//!   when the control point is armed; the VM emits `Return` while the
//!   returning frame is still intact (the paper's breakpoint-on-`retq`
//!   trick), and function breakpoints honour `maxdepth` (the paper's GDB
//!   extension that silently resumes when the frame is too deep);
//! * the VM runs until an event the armed points subscribe to
//!   ([`minic::vm::Subscription`], derived again whenever the points or
//!   the command's mode change): breakpoint lines, calls and returns of
//!   breakpointed and tracked functions within their `maxdepth`, every
//!   line while stepping (within the frame for `next`), and the returns
//!   `finish` waits for. Everything else runs inside the VM's op loop;
//! * **watchpoints** are checked at the line and store events that can
//!   change the watched text, not at every line. A watch on pointer-free
//!   storage subscribes to stores into that storage, plus the events that
//!   can rebind its name: entering or leaving a frame of a function that
//!   declares it, and lines that cross its declaration lines. A watch on
//!   a pointer (whose text also depends on its target), a function or a
//!   name not in scope keeps every line and store event. A check first
//!   compares the variable's raw bytes with the ones that produced its
//!   last rendered text and renders again only when they differ. A
//!   variable coming into scope primes its watch silently. The MiniPy
//!   tracker checks its watches at every line instead, as the paper's
//!   `sys.settrace` tracker does, with an object-identity pre-check in
//!   place of the byte compare.

use crate::control::{self, error, BpKind, Core, Func, Inferior, Phase, RunOutcome, Slice, Watch};
use crate::protocol::{Command, Response};
use crate::server::{Engine, SliceOutcome};
use minic::inspect::{self, InspectOptions};
use minic::types::{StructTable, Type};
use minic::vm::{Event, Subscription, Vm};
use minic::Program;
use state::{ExitStatus, PauseReason, Prim, ProgramState, Scope, Value, Variable};

/// MiniC's part of a watch on `var` or `function::var`.
#[derive(Debug, Clone)]
pub(crate) struct WatchSpec {
    /// Byte offset of the `::` in a qualified name, found once.
    qualifier: Option<usize>,
    /// The storage that rendered `last`, when its bytes alone decide
    /// the text.
    seen: Option<Footprint>,
}

/// `(function filter, variable)` of the watched name.
fn parts(w: &Watch<WatchSpec>) -> (Option<&str>, &str) {
    match w.spec.qualifier {
        Some(i) => (Some(&w.name[..i]), &w.name[i + 2..]),
        None => (None, &w.name),
    }
}

/// Brings `w.last` up to date with the watched name. Returns the previous
/// text when it had to render; `None` when the name is out of scope
/// (`last` is kept) or its storage still holds the bytes that rendered
/// `last`.
fn refresh(w: &mut Watch<WatchSpec>, vm: &Vm) -> Option<Option<String>> {
    let (func, var) = parts(w);
    let target = resolve(vm, func, var);
    if let (Some(seen), Resolved::Mem { addr, ty, .. }) = (&w.spec.seen, target) {
        let same = seen.addr == addr
            && seen.ty == *ty
            && vm
                .memory()
                .read_bytes(addr, seen.bytes.len() as u64)
                .is_ok_and(|now| now == seen.bytes);
        if same {
            return None;
        }
    }
    let (_, value) = resolved_value(vm, target)?;
    let old = w.last.replace(state::render_value(&value));
    w.spec.seen = Footprint::of(vm, target);
    Some(old)
}

/// Pointer-free storage and the bytes it held when rendered.
#[derive(Debug, Clone)]
struct Footprint {
    addr: u64,
    ty: Type,
    bytes: Vec<u8>,
}

impl Footprint {
    /// `None` unless `target` is readable storage of a pointer-free type:
    /// a pointer's text follows its target and the target's liveness,
    /// which its own bytes do not capture.
    fn of(vm: &Vm, target: Resolved<'_>) -> Option<Footprint> {
        let Resolved::Mem { addr, ty, .. } = target else {
            return None;
        };
        let size = pointer_free_size(&vm.program().structs, ty)?;
        let bytes = vm.memory().read_bytes(addr, size).ok()?.to_vec();
        Some(Footprint {
            addr,
            ty: ty.clone(),
            bytes,
        })
    }
}

/// Where a name resolves at the current pause, without building anything.
#[derive(Debug, Clone, Copy)]
enum Resolved<'p> {
    Missing,
    Mem {
        addr: u64,
        ty: &'p Type,
        scope: Scope,
    },
    /// A function symbol, by index.
    Function(usize),
}

/// Resolves `var` (restricted to frames of `func` when qualified) against
/// the live frames, innermost first, then the globals and functions.
fn resolve<'p>(vm: &'p Vm, func: Option<&str>, var: &str) -> Resolved<'p> {
    if vm.frames().is_empty() {
        return Resolved::Missing;
    }
    let program = vm.program();
    for fi in vm.frames().iter().rev() {
        let meta = &program.functions[fi.function];
        if func.is_some_and(|f| meta.name != f) {
            continue;
        }
        if let Some(local) = meta
            .locals
            .iter()
            .find(|l| l.name == var && l.visible_at(fi.line))
        {
            let scope = if local.is_param {
                Scope::Parameter
            } else {
                Scope::Local
            };
            return Resolved::Mem {
                addr: fi.base + local.offset,
                ty: &local.ty,
                scope,
            };
        }
        if func.is_none() {
            // Unqualified names only look at the innermost frame
            // before falling back to globals, like a debugger.
            break;
        }
    }
    if func.is_none() {
        if let Some(g) = program.globals.iter().find(|g| g.name == var) {
            return Resolved::Mem {
                addr: g.addr,
                ty: &g.ty,
                scope: Scope::Global,
            };
        }
        // Function symbols are inspectable as FUNCTION values (the
        // paper's abstract type for C function designators).
        if let Some((idx, _)) = program.function(var) {
            return Resolved::Function(idx);
        }
    }
    Resolved::Missing
}

/// Builds the value `target` denotes, `None` when missing.
fn resolved_value(vm: &Vm, target: Resolved<'_>) -> Option<(Scope, Value)> {
    match target {
        Resolved::Missing => None,
        Resolved::Mem { addr, ty, scope } => {
            let location = if scope == Scope::Global {
                state::Location::Global
            } else {
                state::Location::Stack
            };
            let value = inspect::read_value(vm, addr, ty, InspectOptions::default())
                .with_location(location)
                .with_address(addr);
            Some((scope, value))
        }
        Resolved::Function(idx) => {
            let value = Value::function(vm.program().functions[idx].name.clone(), "function")
                .with_location(state::Location::Global)
                .with_address(idx as u64);
            Some((Scope::Global, value))
        }
    }
}

/// Size of `ty` when it holds no pointer or function anywhere (so its
/// bytes alone determine its rendering), `None` otherwise.
fn pointer_free_size(structs: &StructTable, ty: &Type) -> Option<u64> {
    match ty {
        Type::Char | Type::Int | Type::Long | Type::Float | Type::Double => Some(ty.scalar_size()),
        Type::Array(elem, n) => pointer_free_size(structs, elem).map(|size| size * *n as u64),
        Type::Struct(name) => {
            let layout = structs.get(name)?;
            for field in &layout.fields {
                pointer_free_size(structs, &field.ty)?;
            }
            Some(layout.size)
        }
        Type::Ptr(_) | Type::Func { .. } | Type::Void => None,
    }
}

/// The MiniC engine (see the [module docs](self)).
#[derive(Debug)]
pub struct MinicEngine {
    vm: Vm,
    core: Core<usize, WatchSpec>,
    /// The events the VM stops for.
    sub: Subscription,
    /// The control points' generation `sub` was derived from.
    armed: Option<u64>,
    /// VM events delivered to the control loop (published as
    /// `vm.minic.events`).
    events_seen: u64,
    /// Full watch renders, i.e. checks the byte gate could not skip
    /// (published as `vm.minic.watch_evals`).
    watch_evals: u64,
    /// When the VM runs an *optimized* program, the original unoptimized
    /// one, kept for `Analyze`: static diagnostics are part of the
    /// observable surface and must not shift when dead code is deleted.
    /// `None` when the VM's program is the compiler's output unchanged.
    analysis_program: Option<Box<Program>>,
    /// The event the last pause interrupted, and the phase it resumes
    /// from.
    reenter: Option<(Event, Phase)>,
}

impl MinicEngine {
    /// Creates an engine with the program loaded but not started.
    pub fn new(program: &Program) -> Self {
        analysis::verify::debug_verify(program);
        MinicEngine {
            vm: Vm::new(program),
            core: Core::new(),
            sub: Subscription::default(),
            armed: None,
            events_seen: 0,
            watch_evals: 0,
            analysis_program: None,
            reenter: None,
        }
    }

    /// Creates an engine running `program` optimized at `opt` (0 = run it
    /// unchanged). The optimizer verifies before and after every pass;
    /// any failure surfaces here instead of producing a VM panic later.
    /// `Analyze` keeps answering from the unoptimized program, so the
    /// static-diagnostic surface is identical at every level.
    ///
    /// # Errors
    ///
    /// Returns the verifier's findings when the program (or any pass's
    /// output) fails verification.
    pub fn with_opt(program: &Program, opt: u8) -> Result<Self, String> {
        if opt == 0 {
            return Ok(Self::new(program));
        }
        let (optimized, _report) = analysis::opt::optimize(program, opt)?;
        let mut engine = Self::new(&optimized);
        engine.analysis_program = Some(Box::new(program.clone()));
        Ok(engine)
    }

    /// Publishes `vm.minic.*` execution stats into `registry` after every
    /// control command: ops executed, events seen, full watch renders,
    /// heap allocs/frees, and live heap bytes.
    pub fn set_registry(&mut self, registry: obs::Registry) {
        self.core.registry = Some(registry);
    }

    /// Read access to the VM (used by in-process tools and benches).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Resolves `var` / `function::var` against the live frames, then the
    /// globals.
    fn lookup_variable(&self, name: &str) -> Option<Variable> {
        let (func, var) = match name.split_once("::") {
            Some((f, v)) => (Some(f), v),
            None => (None, name),
        };
        let (scope, value) = resolved_value(&self.vm, resolve(&self.vm, func, var))?;
        Some(Variable::new(var, scope, value))
    }

    /// Derives the VM's subscription for a run of `slice`: from the armed
    /// points when they changed since the last run, then [`Self::rearm`].
    fn arm(&mut self, slice: &Slice) {
        let points = &self.core.points;
        if self.armed != Some(points.generation) {
            self.armed = Some(points.generation);
            let sub = &mut self.sub;
            sub.clear();
            for bp in points.breakpoints.iter().chain(&points.tracked) {
                match bp.kind {
                    BpKind::Line(line) => sub.line(line),
                    BpKind::Entry(f) => sub.call(f, bp.maxdepth),
                    BpKind::Track(f) => {
                        sub.call(f, bp.maxdepth);
                        sub.ret(f, bp.maxdepth);
                    }
                }
            }
            // The frames that can rebind a watched name: those of every
            // function declaring it (only the named one for `f::var`).
            for w in &points.watches {
                let (func, var) = parts(w);
                for (index, meta) in self.vm.program().functions.iter().enumerate() {
                    let named = || meta.locals.iter().filter(|l| l.name == var);
                    if func.is_none_or(|f| f == meta.name) && named().next().is_some() {
                        // A local comes into view at its declaration
                        // line and leaves it after its block's last one.
                        let bounds = named().filter(|l| !l.is_param).flat_map(|l| {
                            let end = l.scope_end.checked_add(1);
                            std::iter::once(l.decl_line).chain(end)
                        });
                        sub.rebind(index, bounds);
                    }
                }
            }
        }
        self.rearm(slice);
    }

    /// The parts of the subscription that change while a command runs:
    /// the stores into each watch's footprint (every line and store for a
    /// watch without one), and the lines and returns of `slice`'s stop.
    fn rearm(&mut self, slice: &Slice) {
        let sub = &mut self.sub;
        sub.clear_stores();
        let mut every = false;
        for w in &self.core.points.watches {
            match &w.spec.seen {
                Some(seen) => sub.stores_within(seen.addr, seen.bytes.len() as u64),
                None => every = true,
            }
        }
        let (lines, returns) = slice.stops();
        if every {
            sub.all_stores();
        }
        sub.set_any_line(if every { usize::MAX } else { lines });
        sub.set_returns_below(returns);
    }

    /// The event the last pause interrupted delivers its later phases to
    /// the next command first. Kept out of line, off the run loop's path.
    #[inline(never)]
    fn reenter(&mut self, slice: &mut Slice) -> Option<RunOutcome> {
        let (event, from) = self.reenter.take()?;
        self.decide(slice, &event, from)
    }

    /// The pause `event` causes, checked from `from` (a sanitizer trap
    /// or the exit always pauses); remembers where to re-enter the event
    /// when the inferior next runs. A variable entering scope is not a
    /// modification: its first render primes the watch silently.
    #[inline(always)]
    fn decide(&mut self, slice: &mut Slice, event: &Event, from: Phase) -> Option<RunOutcome> {
        let program = self.vm.program();
        let file = program.file.as_str();
        let func = |f: usize, depth| Func(f, depth, program.functions[f].name.as_str());
        let (vm, evals) = (&self.vm, &mut self.watch_evals);
        let refresh = |w: &mut Watch<WatchSpec>| {
            let old = refresh(w, vm)?;
            *evals += 1;
            old.map(Some)
        };
        let points = &mut self.core.points;
        let (phase, reason) = match *event {
            Event::Line(line) => {
                let line = Some((line, vm.frames().len()));
                points.on_line(slice, file, true, line, from, refresh)
            }
            Event::Store { .. } => points.on_line(slice, file, true, None, from, refresh),
            Event::Call { function, depth } => {
                let line = program.functions[function].line;
                points.on_call(file, (func(function, depth), line), false, from)
            }
            Event::Return {
                function,
                depth,
                value,
            } => {
                // Return events carry the 0-based depth: the frames left
                // once this one is gone. (A return is never re-entered.)
                slice.popped(depth as usize);
                let value = move || value.map(|v| v.to_string());
                points.on_return((func(function, depth), &value), from)
            }
            Event::Output(_) => None,
            Event::SanitizerTrap(ref diagnostic) => {
                if let Some(reg) = &self.core.registry {
                    reg.add("sanitizer.traps", 1);
                }
                let diagnostic = diagnostic.clone();
                return Some(RunOutcome::Paused(PauseReason::Sanitizer { diagnostic }));
            }
            Event::Exited(code) => {
                let status = ExitStatus::Exited(code);
                return Some(RunOutcome::Paused(PauseReason::Exited(status)));
            }
        }?;
        // Returns and stores have no phase after the one that paused.
        if let Event::Line(_) | Event::Call { .. } = event {
            self.reenter = Some((event.clone(), phase.next()));
        }
        Some(RunOutcome::Paused(reason))
    }
}

impl Inferior for MinicEngine {
    type Func = usize;
    type WatchSpec = WatchSpec;
    const EXEC_SPAN: &'static str = "vm.minic.exec";

    fn core(&mut self) -> &mut Core<usize, WatchSpec> {
        &mut self.core
    }

    /// Fuel counts VM ops, as the asm engine counts retired
    /// instructions. Fuel and the step budget are one countdown inside the
    /// VM, which also stops at the allocation that passes the heap budget,
    /// so the budgets are checked only when the VM stops.
    fn run(&mut self, slice: &mut Slice, fuel: Option<u64>) -> RunOutcome {
        self.arm(slice);
        if let Some(out) = self.reenter(slice) {
            return out;
        }
        let budget = &self.core.budget;
        let steps = budget.steps_left(self.vm.ops_executed());
        self.vm.set_countdown(fuel.into_iter().chain(steps).min());
        self.vm.set_heap_limit(budget.max_heap_bytes());
        loop {
            let event = match self.vm.run_until(&self.sub) {
                Ok(event) => event,
                Err(e) => return self.core.crash(e.to_string()),
            };
            let heap = self.vm.allocator().live_bytes();
            if let Some(out) = self.core.budget.check(self.vm.ops_executed(), heap) {
                return out;
            }
            let Some(event) = event else {
                return RunOutcome::OutOfFuel;
            };
            self.events_seen += 1;
            if let Some(out) = self.decide(slice, &event, Phase::FuncBreak) {
                return out;
            }
            self.rearm(slice);
        }
    }

    fn position(&self) -> (u32, usize) {
        let line = self.vm.frames().last().map_or(0, |f| f.line);
        (line, self.vm.frames().len())
    }

    fn exit_code(&self) -> Option<i64> {
        self.vm.exit_code()
    }

    fn output(&self) -> &str {
        self.vm.output()
    }

    fn source(&self) -> (&str, &str) {
        let program = self.vm.program();
        (&program.file, &program.source)
    }

    fn breakable_lines(&self) -> Vec<u32> {
        self.vm.program().breakable_lines().into_iter().collect()
    }

    fn function(&self, name: &str) -> Result<usize, String> {
        let program = self.vm.program();
        program
            .function(name)
            .map(|(index, _)| index)
            .ok_or_else(|| format!("unknown function `{name}`"))
    }

    fn watch(&self, variable: String) -> Result<Watch<WatchSpec>, String> {
        let spec = WatchSpec {
            qualifier: variable.find("::"),
            seen: None,
        };
        let mut watch = Watch::new(variable, None, spec);
        refresh(&mut watch, &self.vm);
        Ok(watch)
    }

    fn publish_stats(&self) {
        let Some(reg) = &self.core.registry else {
            return;
        };
        // Absolute readings of cumulative VM totals: gauges, not
        // counters, so a merged cross-process snapshot never adds two
        // reports of the same total.
        reg.set_gauge("vm.minic.ops", self.vm.ops_executed());
        reg.set_gauge("vm.minic.events", self.events_seen);
        reg.set_gauge("vm.minic.watch_evals", self.watch_evals);
        let alloc = self.vm.allocator();
        reg.set_gauge("vm.minic.heap.allocs", alloc.total_allocs());
        reg.set_gauge("vm.minic.heap.frees", alloc.total_frees());
        reg.set_gauge("vm.minic.heap.live_bytes", alloc.live_bytes());
    }

    fn own_command(&mut self, command: Command) -> Response {
        match command {
            Command::GetState => {
                if self.vm.frames().is_empty() {
                    return error("no frames to inspect");
                }
                let frame = inspect::current_frame(&self.vm);
                let globals = inspect::global_variables(&self.vm);
                let reason = self.core.last_reason.clone();
                Response::State(Box::new(ProgramState::new(frame, globals, reason)))
            }
            Command::GetGlobals => Response::Globals(inspect::global_variables(&self.vm)),
            Command::GetVariable { name } => Response::Variable(self.lookup_variable(&name)),
            Command::GetRegisters => {
                // Pseudo-registers of the C VM: stack pointer and current
                // line (the paper's Fig. 7 registers come from the
                // assembly engine; these are still useful for tools).
                let sp = self.vm.stack_pointer();
                let (line, depth) = self.position();
                let reg = |name: &str, value: i64, ty: &str| {
                    Variable::new(
                        name,
                        Scope::Register,
                        Value::primitive(Prim::Int(value), ty)
                            .with_location(state::Location::Register),
                    )
                };
                Response::Registers(vec![
                    reg("sp", sp as i64, "u64"),
                    reg("line", line as i64, "u32"),
                    reg("depth", depth as i64, "u32"),
                ])
            }
            Command::ReadMemory { addr, len } => {
                match self.vm.memory().read_bytes(addr, len.min(64 * 1024)) {
                    Ok(bytes) => Response::Memory(bytes.to_vec()),
                    Err(e) => error(e.to_string()),
                }
            }
            Command::Analyze => {
                // Diagnose the program the user wrote, not the one the
                // optimizer produced: dead-code deletion must not change
                // the static findings.
                let program = self
                    .analysis_program
                    .as_deref()
                    .unwrap_or_else(|| self.vm.program());
                let diags = match &self.core.registry {
                    Some(reg) => analysis::analyze_with_registry(program, reg),
                    None => analysis::analyze(program),
                };
                Response::Diagnostics(diags)
            }
            Command::Verify => {
                // The program the VM actually executes — for optimized
                // sessions this re-checks the optimizer's output on
                // demand.
                let findings = analysis::verify::verify(self.vm.program())
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                Response::Verified { findings }
            }
            Command::SetSanitizer { on } => {
                if self.core.started {
                    return error("sanitizer mode must be set before start");
                }
                self.vm.set_sanitizer(on);
                Response::Ok
            }
            Command::SetProfile { mode, period } => {
                self.vm.set_profile(mode, period);
                Response::Ok
            }
            Command::ProfileReport { .. } => Response::Profile(Box::new(self.vm.profile_report())),
            other => control::unsupported(&other),
        }
    }
}

impl Engine for MinicEngine {
    fn handle(&mut self, command: Command) -> Response {
        control::handle(self, command)
    }

    fn handle_sliced(&mut self, command: Command, fuel: u64) -> SliceOutcome {
        control::handle_sliced(self, command, fuel)
    }

    fn resume_sliced(&mut self, fuel: u64) -> SliceOutcome {
        control::resume_sliced(self, fuel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ResourceKind;
    use minic::compile;

    fn engine(src: &str) -> MinicEngine {
        MinicEngine::new(&compile("t.c", src).unwrap())
    }

    fn paused(r: Response) -> PauseReason {
        match r {
            Response::Paused(p) => p,
            other => panic!("expected Paused, got {other:?}"),
        }
    }

    const COUNT: &str = "int main() {\nint i = 0;\nwhile (i < 5) {\ni = i + 1;\n}\nreturn i;\n}";

    #[test]
    fn start_pauses_before_first_line() {
        let mut e = engine(COUNT);
        let r = paused(e.handle(Command::Start));
        assert_eq!(r, PauseReason::Started);
        // Inspect: i not yet visible or zero; frame is main.
        match e.handle(Command::GetState) {
            Response::State(st) => {
                assert_eq!(st.frame.name(), "main");
                assert_eq!(st.frame.location().line(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_watch_and_a_breakpoint_on_one_line_both_fire() {
        // In `f` the watched name resolves to its parameter, not the
        // global: a change seen at the line event of line 3, which also
        // holds a breakpoint. Both pause, the watch first.
        let src = "int g = 5;\nint f(int g) {\nreturn g + 1;\n}\nint main() {\nreturn f(7);\n}";
        let mut e = engine(src);
        e.handle(Command::Watch {
            variable: "g".into(),
        });
        e.handle(Command::SetBreakLine { line: 3 });
        assert_eq!(paused(e.handle(Command::Start)), PauseReason::Started);
        let watched = paused(e.handle(Command::Resume));
        assert!(
            matches!(watched, PauseReason::Watchpoint { .. }),
            "{watched}"
        );
        let bp = paused(e.handle(Command::Resume));
        assert!(
            matches!(bp, PauseReason::Breakpoint { ref location, .. } if location.line() == 3),
            "{bp}"
        );
        assert_eq!(
            paused(e.handle(Command::Resume)),
            PauseReason::Exited(ExitStatus::Exited(8))
        );
    }

    #[test]
    fn a_block_local_is_out_of_scope_after_its_block() {
        // The loop's `x` shadows the global inside the loop only: after
        // it, `x` is the global again, in `GetVariable` and in the frame.
        let src = "int x = 100;\nint main() {\nint i = 0;\nwhile (i < 2) {\nint x = i * 10;\n\
                   i = i + 1;\n}\nx = x + 1;\nreturn x;\n}";
        let mut e = engine(src);
        e.handle(Command::SetBreakLine { line: 8 });
        e.handle(Command::Start);
        let bp = paused(e.handle(Command::Resume));
        assert!(
            matches!(bp, PauseReason::Breakpoint { ref location, .. } if location.line() == 8),
            "{bp}"
        );
        match e.handle(Command::GetVariable { name: "x".into() }) {
            Response::Variable(Some(v)) => {
                assert_eq!(v.scope(), Scope::Global);
                assert_eq!(state::render_value(v.value()), "100");
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.handle(Command::GetState) {
            Response::State(st) => assert!(st.frame.variable("x").is_none()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            paused(e.handle(Command::Resume)),
            PauseReason::Exited(ExitStatus::Exited(101))
        );
    }

    #[test]
    fn step_moves_line_by_line() {
        let mut e = engine(COUNT);
        e.handle(Command::Start);
        let mut lines = Vec::new();
        loop {
            match paused(e.handle(Command::Step)) {
                PauseReason::Step => {
                    if let Response::State(st) = e.handle(Command::GetState) {
                        lines.push(st.frame.location().line());
                    }
                }
                PauseReason::Exited(ExitStatus::Exited(code)) => {
                    assert_eq!(code, 5);
                    break;
                }
                other => panic!("unexpected {other}"),
            }
        }
        // 3,4 repeated five times, then 6.
        assert_eq!(lines[0], 3);
        assert_eq!(*lines.last().unwrap(), 6);
        assert_eq!(lines.iter().filter(|&&l| l == 4).count(), 5);
    }

    #[test]
    fn line_breakpoints_slide_and_hit() {
        let mut e = engine(COUNT);
        let id = match e.handle(Command::SetBreakLine { line: 4 }) {
            Response::Created { id } => id,
            other => panic!("unexpected {other:?}"),
        };
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        match r {
            PauseReason::Breakpoint { id: hit, location } => {
                assert_eq!(hit, id);
                assert_eq!(location.line(), 4);
            }
            other => panic!("unexpected {other}"),
        }
        // Hits again each iteration.
        let r = paused(e.handle(Command::Resume));
        assert!(matches!(r, PauseReason::Breakpoint { .. }));
        // Delete, then run to exit.
        assert_eq!(e.handle(Command::Delete { id }), Response::Ok);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(5)));
    }

    const REC: &str = "int fact(int n) {\nif (n <= 1) { return 1; }\nreturn n * fact(n - 1);\n}\nint main() {\nreturn fact(4);\n}";

    #[test]
    fn function_breakpoint_with_maxdepth() {
        let mut e = engine(REC);
        e.handle(Command::SetBreakFunc {
            function: "fact".into(),
            maxdepth: Some(2),
        });
        e.handle(Command::Start);
        let mut hits = 0;
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Breakpoint { .. } => {
                    hits += 1;
                    // Arguments are bound at the pause.
                    match e.handle(Command::GetVariable { name: "n".into() }) {
                        Response::Variable(Some(v)) => {
                            assert_eq!(v.scope(), state::Scope::Parameter);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        // Depths are 1 and 2 only (of 4 recursive activations).
        assert_eq!(hits, 2);
    }

    #[test]
    fn track_function_pairs_calls_and_returns() {
        let mut e = engine(REC);
        e.handle(Command::TrackFunction {
            function: "fact".into(),
            maxdepth: None,
        });
        e.handle(Command::Start);
        let mut calls = 0;
        let mut returns = Vec::new();
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::FunctionCall { function, .. } => {
                    assert_eq!(function, "fact");
                    calls += 1;
                }
                PauseReason::FunctionReturn {
                    function,
                    return_value,
                    ..
                } => {
                    assert_eq!(function, "fact");
                    // Frame still live: n is inspectable.
                    match e.handle(Command::GetVariable { name: "n".into() }) {
                        Response::Variable(Some(_)) => {}
                        other => panic!("unexpected {other:?}"),
                    }
                    returns.push(return_value.unwrap());
                }
                PauseReason::Exited(ExitStatus::Exited(code)) => {
                    assert_eq!(code, 24);
                    break;
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(calls, 4);
        assert_eq!(returns, vec!["1", "2", "6", "24"]);
    }

    #[test]
    fn watchpoint_reports_old_and_new() {
        let mut e = engine(COUNT);
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "i".into(),
        });
        let mut transitions = Vec::new();
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Watchpoint {
                    old, new, variable, ..
                } => {
                    assert_eq!(variable, "i");
                    transitions.push((old, new));
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        // The fresh stack slot already reads 0 when the watch is created,
        // so only the five increments 1..=5 trigger.
        assert_eq!(transitions.len(), 5);
        assert_eq!(transitions[0], (Some("0".into()), "1".into()));
        assert_eq!(transitions[4], (Some("4".into()), "5".into()));
    }

    #[test]
    fn unchanged_watch_bytes_skip_the_render() {
        // The sparse-watch loop: `acc` and `i` are stored every
        // iteration, `mark` every k-th.
        let k = 50;
        let iters = 40 * k;
        let src = format!(
            "int main() {{\nint acc = 0;\nint mark = 1;\nint i = 0;\nwhile (i < {iters}) {{\n\
             acc = acc + i;\nif (i % {k} == 0) {{\nmark = mark + 1;\n}}\ni = i + 1;\n}}\n\
             printf(\"%d\\n\", mark);\nreturn acc % 256;\n}}\n"
        );
        let reg = obs::Registry::new();
        let mut e = engine(&src);
        e.set_registry(reg.clone());
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "mark".into(),
        });
        let mut pauses = 0;
        while let PauseReason::Watchpoint { .. } = paused(e.handle(Command::Resume)) {
            pauses += 1;
        }
        // `mark = 1` over the fresh zeroed slot, then 40 increments.
        assert_eq!(pauses, 41);
        let snapshot = reg.snapshot();
        let (evals, events, ops) = (
            snapshot.gauge("vm.minic.watch_evals"),
            snapshot.gauge("vm.minic.events"),
            snapshot.gauge("vm.minic.ops"),
        );
        assert!(evals <= 2 * pauses, "{evals} renders for {pauses} pauses");
        // Only the stores into `mark` (and the exit) leave the VM.
        assert!(
            events <= 2 * pauses + 4,
            "{events} events for {pauses} pauses"
        );
        assert!(ops > 100 * events, "{ops} ops, {events} events");
    }

    #[test]
    fn a_depth_bounded_track_delivers_only_its_calls_and_returns() {
        // `fib(17)` makes thousands of calls; `maxdepth` 4 keeps the
        // 15 calls and 15 returns at depths 1-4, and the VM filters the
        // rest out before the control core sees them.
        let src = "int fib(int n) {\nif (n < 2) {\nreturn n;\n}\n\
                   return fib(n - 1) + fib(n - 2);\n}\nint main() {\nreturn fib(17) % 256;\n}\n";
        let reg = obs::Registry::new();
        let mut e = engine(src);
        e.set_registry(reg.clone());
        e.handle(Command::TrackFunction {
            function: "fib".into(),
            maxdepth: Some(4),
        });
        e.handle(Command::Start);
        let mut pauses = 0;
        while let PauseReason::FunctionCall { .. } | PauseReason::FunctionReturn { .. } =
            paused(e.handle(Command::Resume))
        {
            pauses += 1;
        }
        assert_eq!(pauses, 30);
        let snapshot = reg.snapshot();
        let (events, ops) = (
            snapshot.gauge("vm.minic.events"),
            snapshot.gauge("vm.minic.ops"),
        );
        assert!(
            events <= 2 * pauses + 4,
            "{events} events for {pauses} pauses"
        );
        assert!(ops > 100 * events, "{ops} ops, {events} events");
    }

    /// Loops with nothing armed: no event leaves the VM, so only its op
    /// countdown and its allocation check can stop them.
    const HOT: &str = "int main() {\nint x = 0;\nwhile (1) {\nx = x + 1;\n}\nreturn x;\n}\n";
    const MALLOC_LOOP: &str =
        "int main() {\nint n = 0;\nwhile (1) {\nchar* p = malloc(1000);\nn = n + 1;\n}\nreturn n;\n}\n";

    fn limits(max_steps: Option<u64>, max_heap_bytes: Option<u64>) -> Command {
        Command::SetLimits {
            max_steps,
            max_heap_bytes,
            max_wall_ms: None,
            max_queue_depth: None,
        }
    }

    /// `Resume` on `src` under `limits`, unsliced and in slices of `fuel`.
    fn resume_under(src: &str, limits: Command, fuel: Option<u64>) -> Response {
        let mut e = engine(src);
        assert_eq!(e.handle(limits), Response::Ok);
        e.handle(Command::Start);
        let Some(fuel) = fuel else {
            return e.handle(Command::Resume);
        };
        let mut outcome = e.handle_sliced(Command::Resume, fuel);
        loop {
            match outcome {
                SliceOutcome::Done(response) => return response,
                SliceOutcome::Yielded => outcome = e.resume_sliced(fuel),
            }
        }
    }

    #[test]
    fn budgets_trip_typed_with_nothing_armed() {
        // The step budget shares the op countdown with fuel: it trips on
        // the op that passes it, whatever the slicing.
        for fuel in [None, Some(7), Some(4_096)] {
            assert_eq!(
                resume_under(HOT, limits(Some(10_000), None), fuel),
                Response::ResourceExhausted {
                    which: ResourceKind::Steps,
                    used: 10_001,
                    limit: 10_000,
                },
                "fuel {fuel:?}"
            );
            // The heap budget trips at the allocation that passes it.
            assert_eq!(
                resume_under(MALLOC_LOOP, limits(None, Some(50_000)), fuel),
                Response::ResourceExhausted {
                    which: ResourceKind::HeapBytes,
                    used: 51_000,
                    limit: 50_000,
                },
                "fuel {fuel:?}"
            );
        }
    }

    #[test]
    fn next_steps_over_calls() {
        let src = "int f(int x) {\nint y = x * 2;\nreturn y;\n}\nint main() {\nint a = f(3);\nreturn a;\n}";
        let mut e = engine(src);
        e.handle(Command::Start); // paused at line 6
        let r = paused(e.handle(Command::Next));
        assert_eq!(r, PauseReason::Step);
        if let Response::State(st) = e.handle(Command::GetState) {
            assert_eq!(st.frame.name(), "main");
            assert_eq!(st.frame.location().line(), 7);
        } else {
            panic!("no state");
        }
        // Whereas step enters.
        let mut e = engine(src);
        e.handle(Command::Start);
        paused(e.handle(Command::Step));
        if let Response::State(st) = e.handle(Command::GetState) {
            assert_eq!(st.frame.name(), "f");
        } else {
            panic!("no state");
        }
    }

    #[test]
    fn finish_returns_to_caller() {
        let src = "int f(int x) {\nint y = x * 2;\nreturn y;\n}\nint main() {\nint a = f(3);\nreturn a;\n}";
        let mut e = engine(src);
        e.handle(Command::Start);
        paused(e.handle(Command::Step)); // inside f
        let r = paused(e.handle(Command::Finish));
        assert_eq!(r, PauseReason::Step);
        if let Response::State(st) = e.handle(Command::GetState) {
            assert_eq!(st.frame.name(), "main");
        } else {
            panic!("no state");
        }
    }

    #[test]
    fn output_and_exit_code() {
        let mut e = engine("int main() {\nprintf(\"hi %d\\n\", 3);\nreturn 9;\n}");
        e.handle(Command::Start);
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(None));
        paused(e.handle(Command::Resume));
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(Some(9)));
        assert_eq!(
            e.handle(Command::GetOutput),
            Response::Output("hi 3\n".into())
        );
        // Cursor advanced: second read is empty.
        assert_eq!(
            e.handle(Command::GetOutput),
            Response::Output(String::new())
        );
    }

    #[test]
    fn crash_reported_as_crashed() {
        let mut e = engine("int main() {\nint* p = NULL;\nreturn *p;\n}");
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Crashed));
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(Some(-1)));
        match e.handle(Command::GetOutput) {
            Response::Output(o) => assert!(o.contains("invalid memory")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_before_start_rejected() {
        let mut e = engine(COUNT);
        assert!(matches!(e.handle(Command::Resume), Response::Error { .. }));
        assert!(matches!(
            e.handle(Command::GetState),
            Response::Error { .. }
        ));
    }

    #[test]
    fn errors_for_unknown_targets() {
        let mut e = engine(COUNT);
        assert!(matches!(
            e.handle(Command::SetBreakFunc {
                function: "nope".into(),
                maxdepth: None
            }),
            Response::Error { .. }
        ));
        assert!(matches!(
            e.handle(Command::SetBreakLine { line: 999 }),
            Response::Error { .. }
        ));
        assert!(matches!(
            e.handle(Command::Delete { id: 42 }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn memory_and_registers() {
        let mut e = engine("int g = 258;\nint main() {\nreturn g;\n}");
        e.handle(Command::Start);
        let g_addr = e.vm().program().global("g").unwrap().addr;
        match e.handle(Command::ReadMemory {
            addr: g_addr,
            len: 4,
        }) {
            Response::Memory(bytes) => assert_eq!(bytes, 258i32.to_le_bytes()),
            other => panic!("unexpected {other:?}"),
        }
        match e.handle(Command::GetRegisters) {
            Response::Registers(regs) => {
                assert!(regs.iter().any(|r| r.name() == "sp"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod sanitizer_tests {
    use super::*;
    use minic::compile;
    use state::DiagnosticKind;

    const UAF: &str =
        "int main() {\nint* p = malloc(4);\n*p = 7;\nfree(p);\nint x = *p;\nreturn x;\n}";

    fn engine(src: &str) -> MinicEngine {
        MinicEngine::new(&compile("t.c", src).unwrap())
    }

    fn paused(r: Response) -> PauseReason {
        match r {
            Response::Paused(p) => p,
            other => panic!("expected Paused, got {other:?}"),
        }
    }

    #[test]
    fn sanitizer_trap_pauses_with_the_diagnostic() {
        let mut e = engine(UAF);
        assert_eq!(e.handle(Command::SetSanitizer { on: true }), Response::Ok);
        e.handle(Command::Start);
        match paused(e.handle(Command::Resume)) {
            PauseReason::Sanitizer { diagnostic } => {
                assert_eq!(diagnostic.kind, DiagnosticKind::UseAfterFree);
                assert_eq!(diagnostic.span, 5);
                assert_eq!(diagnostic.function, "main");
            }
            other => panic!("unexpected {other}"),
        }
        // The trap is an observation, not a fault: the inferior still
        // runs to completion (quarantined memory retains its value).
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(7)));
    }

    #[test]
    fn state_is_inspectable_at_a_sanitizer_pause() {
        let mut e = engine(UAF);
        e.handle(Command::SetSanitizer { on: true });
        e.handle(Command::Start);
        paused(e.handle(Command::Resume)); // the UAF trap
        match e.handle(Command::GetState) {
            Response::State(st) => {
                assert_eq!(st.frame.name(), "main");
                assert!(matches!(st.reason, PauseReason::Sanitizer { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sanitizer_traps_counter_is_published() {
        let reg = obs::Registry::new();
        let mut e = engine(UAF);
        e.set_registry(reg.clone());
        e.handle(Command::SetSanitizer { on: true });
        e.handle(Command::Start);
        loop {
            if let PauseReason::Exited(_) = paused(e.handle(Command::Resume)) {
                break;
            }
        }
        assert_eq!(reg.snapshot().counter("sanitizer.traps"), 1);
    }

    #[test]
    fn set_sanitizer_rejected_after_start() {
        let mut e = engine(UAF);
        e.handle(Command::Start);
        assert!(matches!(
            e.handle(Command::SetSanitizer { on: true }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn analyze_reports_without_running() {
        let mut e = engine(UAF);
        // No Start: the analysis is compile-time only.
        match e.handle(Command::Analyze) {
            Response::Diagnostics(diags) => {
                assert!(diags
                    .iter()
                    .any(|d| d.kind == DiagnosticKind::UseAfterFree && d.span == 5));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(None));
    }

    #[test]
    fn analyze_is_clean_on_a_safe_program() {
        let mut e = engine("int main() {\nint x = 1;\nreturn x;\n}");
        match e.handle(Command::Analyze) {
            Response::Diagnostics(diags) => assert!(diags.is_empty(), "{diags:?}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod function_symbol_tests {
    use super::*;
    use minic::compile;

    #[test]
    fn function_symbols_are_function_values() {
        let mut e = MinicEngine::new(
            &compile(
                "t.c",
                "int helper(int x) { return x; }\nint main() { return helper(1); }",
            )
            .unwrap(),
        );
        e.handle(Command::Start);
        match e.handle(Command::GetVariable {
            name: "helper".into(),
        }) {
            Response::Variable(Some(v)) => {
                assert_eq!(v.value().abstract_type(), state::AbstractType::Function);
                assert_eq!(state::render_value(v.value()), "<fn helper>");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
