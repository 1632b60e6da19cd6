//! The MiniPy engine: the thread-based Python tracker (paper Fig. 5)
//! behind the control core every engine shares.
//!
//! The inferior runs on a dedicated thread executing the MiniPy
//! interpreter; EasyTracker's control logic runs *inside the trace
//! function* on that thread, exactly as the paper's `sys.settrace`-based
//! tracker does. At a pause the trace function sends a full serializable
//! snapshot to the engine and blocks until the next control command,
//! while the engine's run burst blocks symmetrically: control commands
//! "return only when the inferior is paused", the paper's core contract.
//!
//! That handshake is all this module adds; the command shell and every
//! pause decision are the control core's. The trace function reports
//! each line, call and return event to the deciders and re-enters the
//! event past the phase that paused, so one event can deliver several
//! pauses. The control points, the output, the profiler and the step
//! countdown travel with each command to the inferior thread and come
//! back with each pause: each thread owns them outright in turn, and no
//! trace event takes a lock.
//!
//! A step is one trace-hook event. The event that passes a `SetLimits`
//! step budget blocks the hook as a pause does. MiniPy has no allocator
//! budget and no fuel: its heap budget never trips, and a sliced command
//! runs to completion.
//!
//! Watchpoints are checked before every line, as the paper's tracker
//! does, so no change is missed. A check renders the watched value only
//! when it can have changed: each watch keeps the object that rendered
//! its last text and the heap's mutation epoch at that render, and a line
//! where the name still names that object skips the render when the
//! object is immutable or nothing has changed in place since
//! (`vm.minipy.watch_renders` counts the renders). A watched run still
//! pays the hook at every line, which is the slowdown the paper reports
//! for its Python tracker. A corollary of per-line checking (shared with
//! the paper's `sys.settrace` tracker): a modification performed by the
//! program's *final* statement has no following line event and is
//! therefore not observed as a watchpoint hit; it is still visible in the
//! terminal snapshot.

use crate::control::{
    self, resolve, ControlPoints, Core, Func, Inferior, Phase, RunOutcome, Slice, Watch,
};
use crate::protocol::{Command, Response};
use crate::server::Engine;
use crossbeam::channel::{bounded, Receiver, Sender};
use minipy::value::ObjRef;
use minipy::{Interp, TraceAction, TraceCtx, TraceEvent, Tracer};
use state::{ExitStatus, PauseReason, ProgramState};
use std::thread::JoinHandle;

/// What a control command hands the inferior thread: its progress, and
/// the session state the thread owns until the next pause.
#[derive(Debug)]
enum Go {
    Run(Slice, Box<Session>),
    Terminate,
}

#[derive(Debug)]
struct PauseMsg {
    /// The pause and its snapshot; `None` when the step budget tripped
    /// (the inferior blocks as at a pause, and the last snapshot stands).
    pause: Option<(PauseReason, ProgramState)>,
    /// The runtime error the program ended with.
    crash: Option<String>,
    /// Back to the engine, which owns it while the inferior is paused.
    session: Session,
}

/// The state both threads use, owned by one at a time: the inferior's
/// while it runs, the engine's while it is paused. The handoff rides the
/// `Go` and `PauseMsg` messages, so no trace event takes a lock.
#[derive(Debug, Default)]
struct Session {
    /// The core's control points. Functions are keyed by name; a watch is
    /// primed from the last snapshot.
    points: ControlPoints<String, PyWatch>,
    output: String,
    /// `None` until `SetProfile` arms it.
    prof: Option<obs::Profiler>,
    /// Trace-hook events the step budget still allows, the one that
    /// passes it included.
    steps_left: u64,
}

/// MiniPy's part of a watch on `var` or `function::var`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PyWatch {
    /// Byte offset of the `::` in a qualified name, found once.
    qualifier: Option<usize>,
    /// The object that rendered `last`, and the heap's mutation epoch at
    /// that render.
    seen: Option<(ObjRef, u64)>,
}

/// Brings `w.last` up to date with the watched name. Returns the previous
/// text when it had to render; `None` when the name is unbound (`last`
/// is kept) or still names the object that rendered `last` and that
/// object cannot have changed: it is immutable, or no object has changed
/// in place since.
fn refresh_watch(w: &mut Watch<PyWatch>, ctx: &TraceCtx<'_>) -> Option<Option<String>> {
    let PyWatch { qualifier, seen } = w.spec;
    let r = match qualifier {
        Some(i) => ctx.lookup_in(Some(&w.name[..i]), &w.name[i + 2..]),
        None => ctx.lookup_in(None, &w.name),
    }?;
    let epoch = ctx.heap.epoch();
    if seen.is_some_and(|(obj, at)| obj == r && (at == epoch || ctx.heap.is_immutable(r))) {
        return None;
    }
    w.spec.seen = Some((r, epoch));
    // Render through the abstract model so the priming from the last
    // snapshot produces identical strings.
    let now = state::render_value(&ctx.heap.to_abstract(r));
    Some(w.last.replace(now))
}

/// The trace function: EasyTracker's brain on the inferior thread.
struct ControlTracer {
    /// Live count of trace-hook invocations (`vm.minipy.trace_hooks`);
    /// a cheap atomic bump per event, readable from the tool thread.
    hook_counter: obs::Counter,
    /// Full watch renders, i.e. checks the object gate could not skip
    /// (`vm.minipy.watch_renders`); this thread is its only writer.
    renders: obs::Gauge,
    handoff: Handoff,
}

/// The inferior thread's end of the Fig. 5 handshake, with what it owns
/// while the inferior runs.
struct Handoff {
    file: String,
    go_rx: Receiver<Go>,
    pause_tx: Sender<PauseMsg>,
    slice: Slice,
    session: Session,
}

impl Handoff {
    /// Hands a snapshot for `reason` (none for a tripped budget), the
    /// program's runtime error if it crashed, and the session to the
    /// engine; `false` once the engine is gone. The module frame (with its
    /// final bindings) survives the run, so the exit's snapshot renders
    /// the program's terminal state.
    fn send(
        &mut self,
        ctx: &TraceCtx<'_>,
        reason: Option<PauseReason>,
        crash: Option<String>,
    ) -> bool {
        let pause = reason.map(|reason| {
            let frame = minipy::inspect::current_frame(ctx, &self.file);
            let globals = minipy::inspect::global_variables(ctx);
            (reason.clone(), ProgramState::new(frame, globals, reason))
        });
        let session = std::mem::take(&mut self.session);
        let msg = PauseMsg {
            pause,
            crash,
            session,
        };
        self.pause_tx.send(msg).is_ok()
    }

    /// Pauses: sends the snapshot and blocks until the next command hands
    /// the session back.
    fn pause(&mut self, reason: Option<PauseReason>, ctx: &TraceCtx<'_>) -> TraceAction {
        if !self.send(ctx, reason, None) {
            return TraceAction::Stop;
        }
        match self.go_rx.recv() {
            Ok(Go::Run(slice, session)) => {
                self.slice = slice;
                self.session = *session;
                TraceAction::Continue
            }
            Ok(Go::Terminate) | Err(_) => TraceAction::Stop,
        }
    }
}

impl Tracer for ControlTracer {
    fn trace(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction {
        self.hook_counter.inc();
        let h = &mut self.handoff;
        // Every hook event is a step; the one that passes the budget
        // blocks before it is seen.
        h.session.steps_left -= 1;
        if h.session.steps_left == 0 {
            return h.pause(None, ctx);
        }
        if let Some(p) = h.session.prof.as_mut() {
            match event {
                // A line event is the MiniPy step unit.
                TraceEvent::Line { line } => {
                    p.tick();
                    p.line(*line);
                }
                TraceEvent::Call { function, .. } => {
                    let id = p.intern(function);
                    p.enter(id);
                }
                TraceEvent::Return { .. } => p.exit(),
                TraceEvent::Output { .. } => {}
            }
        }
        match event {
            // Return events carry the 0-based depth: the frames left once
            // this one is gone.
            TraceEvent::Return { depth, .. } => h.slice.popped(*depth as usize),
            TraceEvent::Output { text } => h.session.output.push_str(text),
            TraceEvent::Line { .. } | TraceEvent::Call { .. } => {}
        }
        // A first binding is a modification in Python.
        let renders = &self.renders;
        let mut refresh = |w: &mut Watch<PyWatch>| {
            let old = refresh_watch(w, ctx)?;
            renders.set(renders.get() + 1);
            Some(old)
        };
        // One event can carry several triggers (a store on the previous
        // line trips a watch *and* this line holds a breakpoint): each
        // is its own pause, the event re-entered past the phase that
        // paused.
        let mut from = Phase::FuncBreak;
        loop {
            let (points, slice, file) = (&mut h.session.points, &h.slice, h.file.as_str());
            let hit = match event {
                TraceEvent::Line { line } => {
                    let line = Some((*line, ctx.frames.len()));
                    points.on_line(slice, file, true, line, from, &mut refresh)
                }
                TraceEvent::Call {
                    function,
                    line,
                    depth,
                } => points.on_call(
                    file,
                    (Func(&**function, *depth, function), *line),
                    false,
                    from,
                ),
                TraceEvent::Return {
                    function,
                    depth,
                    value,
                    ..
                } => {
                    let value = || Some(ctx.heap.repr(*value));
                    points.on_return((Func(&**function, *depth, function), &value), from)
                }
                TraceEvent::Output { .. } => None,
            };
            let Some((phase, reason)) = hit else {
                return TraceAction::Continue;
            };
            match h.pause(Some(reason), ctx) {
                TraceAction::Continue => from = phase.next(),
                stop => return stop,
            }
        }
    }
}

/// A MiniPy program on its inferior thread, served through the control
/// core like the VM engines.
#[derive(Debug)]
pub struct PyEngine {
    core: Core<String, PyWatch>,
    go_tx: Sender<Go>,
    pause_rx: Receiver<PauseMsg>,
    handle: Option<JoinHandle<()>>,
    /// What travels with each command, here while the inferior is paused
    /// (its points live in the core meanwhile).
    session: Session,
    /// Trace-hook events so far: the step budget's count.
    steps: u64,
    /// The snapshot taken at the last pause.
    last_state: Option<ProgramState>,
    file: String,
    source: String,
    breakable: Vec<u32>,
}

impl PyEngine {
    /// Parses MiniPy source and spawns the inferior thread, blocked until
    /// `Start`. Interpreter stats (`vm.minipy.*`) and the span of each
    /// run burst (`vm.minipy.exec`) go to `registry`.
    ///
    /// # Errors
    ///
    /// The parse error, or why the inferior thread could not be spawned.
    pub fn new(file: &str, source: &str, registry: obs::Registry) -> Result<Self, String> {
        let module = minipy::parser::parse(source).map_err(|e| e.to_string())?;
        let breakable = collect_lines(&module.body);
        let (go_tx, go_rx) = bounded::<Go>(1);
        let (pause_tx, pause_rx) = bounded::<PauseMsg>(1);
        let file_name = file.to_owned();
        let inferior_reg = registry.clone();
        let handle = std::thread::Builder::new()
            .name("easytracker-py-inferior".into())
            // MiniPy frames cost deep Rust recursion; give the inferior a
            // roomy stack like CPython's main thread.
            .stack_size(64 * 1024 * 1024)
            .spawn(move || {
                // Block until the engine starts the inferior (first Go).
                let (slice, session) = match go_rx.recv() {
                    Ok(Go::Run(slice, session)) => (slice, *session),
                    Ok(Go::Terminate) | Err(_) => return,
                };
                let mut tracer = ControlTracer {
                    hook_counter: inferior_reg.counter("vm.minipy.trace_hooks"),
                    renders: inferior_reg.gauge("vm.minipy.watch_renders"),
                    handoff: Handoff {
                        file: file_name,
                        go_rx,
                        pause_tx,
                        slice,
                        session,
                    },
                };
                let mut interp = Interp::new(module);
                interp.set_max_depth(500);
                let run_outcome = interp.run(&mut tracer);
                inferior_reg.set_gauge("vm.minipy.steps", interp.steps());
                let (status, crash) = match run_outcome {
                    Ok(outcome) => (ExitStatus::Exited(outcome.exit_code), None),
                    Err(minipy::Error::Stopped) => return,
                    Err(e) => (ExitStatus::Crashed, Some(e.to_string())),
                };
                let ctx = TraceCtx {
                    heap: interp.heap(),
                    frames: interp.frames(),
                };
                let reason = PauseReason::Exited(status);
                tracer.handoff.send(&ctx, Some(reason), crash);
            })
            .map_err(|e| format!("cannot spawn inferior thread: {e}"))?;
        let mut core = Core::new();
        core.registry = Some(registry);
        Ok(PyEngine {
            core,
            go_tx,
            pause_rx,
            handle: Some(handle),
            session: Session::default(),
            steps: 0,
            last_state: None,
            file: file.to_owned(),
            source: source.to_owned(),
            breakable,
        })
    }

    /// Stops the inferior thread and joins it. Idempotent.
    fn terminate(&mut self) {
        let _ = self.go_tx.send(Go::Terminate);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Inferior for PyEngine {
    type Func = String;
    type WatchSpec = PyWatch;
    const EXEC_SPAN: &'static str = "vm.minipy.exec";

    fn core(&mut self) -> &mut Core<String, PyWatch> {
        &mut self.core
    }

    /// Hands the session to the inferior thread and blocks until it
    /// pauses, ends, or passes the step budget. The fuel is ignored.
    fn run(&mut self, slice: &mut Slice, _fuel: Option<u64>) -> RunOutcome {
        let mut session = std::mem::take(&mut self.session);
        session.points = std::mem::take(&mut self.core.points);
        let steps = self.core.budget.steps_left(self.steps);
        session.steps_left = steps.unwrap_or(u64::MAX).max(1);
        let left = session.steps_left;
        let sent = self.go_tx.send(Go::Run(*slice, Box::new(session)));
        let Some(mut msg) = sent.ok().and_then(|()| self.pause_rx.recv().ok()) else {
            return self.core.crash("inferior thread is gone".into());
        };
        self.steps += left - msg.session.steps_left;
        self.core.points = std::mem::take(&mut msg.session.points);
        self.session = msg.session;
        let Some((reason, state)) = msg.pause else {
            return self
                .core
                .budget
                .check(self.steps, 0)
                .expect("the step budget tripped");
        };
        self.last_state = Some(state);
        match msg.crash {
            Some(message) => self.core.crash(message),
            None => RunOutcome::Paused(reason),
        }
    }

    fn position(&self) -> (u32, usize) {
        match &self.last_state {
            Some(st) => (st.frame.location().line(), st.stack_depth()),
            None => (0, 1),
        }
    }

    fn exit_code(&self) -> Option<i64> {
        match self.last_state.as_ref()?.reason {
            PauseReason::Exited(ExitStatus::Exited(code)) => Some(code),
            _ => None,
        }
    }

    fn output(&self) -> &str {
        &self.session.output
    }

    fn source(&self) -> (&str, &str) {
        (&self.file, &self.source)
    }

    fn breakable_lines(&self) -> Vec<u32> {
        self.breakable.clone()
    }

    /// Functions are keyed by name: any name is accepted.
    fn function(&self, name: &str) -> Result<String, String> {
        Ok(name.to_owned())
    }

    /// Primed from the last snapshot so a pre-existing value does not
    /// immediately "change"; a variable that does not exist yet triggers
    /// on its first binding (a binding is a modification in Python).
    fn watch(&self, variable: String) -> Result<Watch<PyWatch>, String> {
        let bound = self
            .last_state
            .as_ref()
            .and_then(|st| resolve(st, &variable));
        let initial = bound.map(|v| {
            // Bindings are REF wrappers around the abstract object value;
            // render the target, matching the tracer's rendering.
            match v.value().content() {
                state::Content::Ref(target) => state::render_value(target),
                _ => state::render_value(v.value()),
            }
        });
        let spec = PyWatch {
            qualifier: variable.find("::"),
            seen: None,
        };
        Ok(Watch::new(variable, initial, spec))
    }

    fn own_command(&mut self, command: Command) -> Response {
        match command {
            Command::GetState | Command::GetGlobals | Command::GetVariable { .. } => {
                control::inspect(self.last_state.as_ref(), &command)
            }
            Command::SetProfile { mode, period } => {
                self.session.prof = (mode != obs::ProfileMode::Off).then(|| {
                    let mut p = obs::Profiler::new(mode, period);
                    // The module frame is live from the first statement
                    // but never raises a Call event; seed it like the VMs
                    // seed `main`.
                    let id = p.intern("<module>");
                    p.enter(id);
                    p
                });
                Response::Ok
            }
            Command::ProfileReport { .. } => {
                let prof = self.session.prof.as_ref();
                Response::Profile(Box::new(
                    prof.map(obs::Profiler::report).unwrap_or_default(),
                ))
            }
            other => control::unsupported(&other),
        }
    }
}

impl Engine for PyEngine {
    fn handle(&mut self, command: Command) -> Response {
        if command == Command::Terminate {
            self.terminate();
        }
        control::handle(self, command)
    }
}

impl Drop for PyEngine {
    fn drop(&mut self) {
        self.terminate();
    }
}

/// Collects every line holding a statement (breakpoint targets).
fn collect_lines(stmts: &[minipy::ast::Stmt]) -> Vec<u32> {
    fn walk(stmts: &[minipy::ast::Stmt], out: &mut Vec<u32>) {
        use minipy::ast::StmtKind::*;
        for s in stmts {
            out.push(s.line);
            match &s.kind {
                If { body, orelse, .. } => {
                    walk(body, out);
                    walk(orelse, out);
                }
                While { body, .. } | For { body, .. } | Def { body, .. } => walk(body, out),
                Class { methods, .. } => walk(methods, out),
                _ => {}
            }
        }
    }
    let mut lines = Vec::new();
    walk(stmts, &mut lines);
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ResourceKind;
    use std::time::{Duration, Instant};

    #[test]
    fn a_runaway_loop_passes_the_step_budget_and_stays_stopped() {
        let src = "x = 0\nwhile True:\n    x = x + 1\n";
        let mut e = PyEngine::new("loop.py", src, obs::Registry::new()).unwrap();
        let limits = Command::SetLimits {
            max_steps: Some(10_000),
            max_heap_bytes: None,
            max_wall_ms: None,
            max_queue_depth: None,
        };
        assert_eq!(e.handle(limits), Response::Ok);
        assert_eq!(
            e.handle(Command::Start),
            Response::Paused(PauseReason::Started)
        );
        let verdict = Response::ResourceExhausted {
            which: ResourceKind::Steps,
            used: 10_001,
            limit: 10_000,
        };
        assert_eq!(e.handle(Command::Resume), verdict);
        // Terminal: the verdict repeats, and the inferior does not run.
        assert_eq!(e.handle(Command::Resume), verdict);
        assert_eq!(e.steps, 10_001);
        let begin = Instant::now();
        assert_eq!(e.handle(Command::Terminate), Response::Ok);
        drop(e);
        assert!(begin.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn hook_events_are_the_budget_steps() {
        // Without a budget the engine still counts the events the hook
        // saw, so a budget armed mid-run trips at its own count.
        let src = "x = 0\nwhile True:\n    x = x + 1\n";
        let reg = obs::Registry::new();
        let mut e = PyEngine::new("loop.py", src, reg.clone()).unwrap();
        e.handle(Command::Start);
        for _ in 0..20 {
            e.handle(Command::Step);
        }
        assert_eq!(e.steps, reg.snapshot().counter("vm.minipy.trace_hooks"));
        let limits = Command::SetLimits {
            max_steps: Some(e.steps + 100),
            max_heap_bytes: None,
            max_wall_ms: None,
            max_queue_depth: None,
        };
        e.handle(limits);
        match e.handle(Command::Resume) {
            Response::ResourceExhausted { used, limit, .. } => assert_eq!(used, limit + 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
