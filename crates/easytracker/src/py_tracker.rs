//! The thread-based MiniPy tracker (paper Fig. 5).
//!
//! The inferior runs on a dedicated thread executing the MiniPy
//! interpreter; EasyTracker's control logic runs *inside the trace
//! function* on that thread, exactly as the paper's `sys.settrace`-based
//! tracker does. When a pause condition is met, the trace function builds
//! a full serializable snapshot, sends it to the tool thread, and blocks
//! until the tool issues the next control command — the tool thread's
//! control call blocks symmetrically, so control functions "return only
//! when the inferior is paused", the paper's core contract.
//!
//! That handshake is all this module adds. Whether an event pauses is
//! decided by the control core every tracker shares (`mi::control`): the
//! trace function reports each line, call and return event to it and
//! re-enters the event past the phase that paused, so one event can
//! deliver several pauses. The control points, the output and the
//! profiler travel with each command to the inferior thread and come
//! back with each pause: each thread owns them outright in turn, and no
//! trace event takes a lock.
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

use crate::{ControlPointId, Result, Tracker, TrackerError};
use crossbeam::channel::{bounded, Receiver, Sender};
use mi::control::{mode, resolve, BpKind, ControlPoints, Func, Mode, Phase, Slice, Watch};
use mi::protocol::Command;
use minipy::value::ObjRef;
use minipy::{Interp, TraceAction, TraceCtx, TraceEvent, Tracer};
use state::{ExitStatus, Frame, PauseReason, ProgramState, SourceLocation, Variable};
use std::thread::JoinHandle;

/// What a control command hands the inferior thread: its mode, and the
/// session state the thread owns until the next pause.
#[derive(Debug)]
enum Go {
    Run(Mode, Box<Session>),
    Terminate,
}

#[derive(Debug)]
struct PauseMsg {
    reason: PauseReason,
    state: ProgramState,
    exit: Option<i64>,
    /// Back to the tool thread, which owns it while the inferior is
    /// paused.
    session: Session,
}

/// The state both threads use, owned by one at a time: the inferior's
/// while it runs, the tool's while it is paused. The handoff rides the
/// `Go` and `PauseMsg` messages, so no trace event takes a lock.
#[derive(Debug, Default)]
struct Session {
    /// Functions are keyed by name; a watch is primed from the last
    /// snapshot.
    points: ControlPoints<String, PyWatch>,
    output: String,
    /// `None` until [`PyTracker::set_profile`] arms it.
    prof: Option<obs::Profiler>,
}

/// MiniPy's part of a watch on `var` or `function::var`.
#[derive(Debug, Clone, Copy)]
struct PyWatch {
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
    let PyWatch { qualifier, seen } = *w.spec_mut();
    let r = match qualifier {
        Some(i) => ctx.lookup_in(Some(&w.name[..i]), &w.name[i + 2..]),
        None => ctx.lookup_in(None, &w.name),
    }?;
    let epoch = ctx.heap.epoch();
    if seen.is_some_and(|(obj, at)| obj == r && (at == epoch || ctx.heap.is_immutable(r))) {
        return None;
    }
    w.spec_mut().seen = Some((r, epoch));
    // Render through the abstract model so the tool-side priming (which
    // only has the snapshot) produces identical strings.
    let now = state::render_value(&ctx.heap.to_abstract(r));
    Some(w.last.replace(now))
}

/// The trace function: EasyTracker's brain on the inferior thread.
struct ControlTracer {
    file: String,
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
    go_rx: Receiver<Go>,
    pause_tx: Sender<PauseMsg>,
    slice: Slice,
    session: Session,
}

impl Handoff {
    /// Hands a snapshot and the session to the tool thread; `false` once
    /// the tool is gone. The module frame (with its final bindings)
    /// survives the run, so the exit's snapshot renders the program's
    /// terminal state.
    fn send(
        &mut self,
        file: &str,
        ctx: &TraceCtx<'_>,
        reason: PauseReason,
        exit: Option<i64>,
    ) -> bool {
        let state = match ctx.frames {
            [] => {
                let module = Frame::new("<module>", 0, SourceLocation::new(file, 0));
                ProgramState::new(module, Vec::new(), reason.clone())
            }
            _ => ProgramState::new(
                minipy::inspect::current_frame(ctx, file),
                minipy::inspect::global_variables(ctx),
                reason.clone(),
            ),
        };
        let session = std::mem::take(&mut self.session);
        let msg = PauseMsg {
            reason,
            state,
            exit,
            session,
        };
        self.pause_tx.send(msg).is_ok()
    }

    /// Pauses: sends the snapshot and blocks until the next command hands
    /// the session back.
    fn pause(&mut self, file: &str, reason: PauseReason, ctx: &TraceCtx<'_>) -> TraceAction {
        if !self.send(file, ctx, reason, None) {
            return TraceAction::Stop;
        }
        match self.go_rx.recv() {
            Ok(Go::Run(mode, session)) => {
                self.slice = Slice::new(mode);
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
        let (file, h) = (self.file.as_str(), &mut self.handoff);
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
            let (points, slice) = (&mut h.session.points, &h.slice);
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
            match h.pause(file, reason, ctx) {
                TraceAction::Continue => from = phase.next(),
                stop => return stop,
            }
        }
    }
}

/// The tool-thread side of the MiniPy tracker.
#[derive(Debug)]
pub struct PyTracker {
    go_tx: Sender<Go>,
    pause_rx: Receiver<PauseMsg>,
    /// The session while the inferior is paused (or not yet started).
    session: Session,
    handle: Option<JoinHandle<()>>,
    started: bool,
    last_reason: PauseReason,
    last_state: Option<ProgramState>,
    exit: Option<i64>,
    output_cursor: usize,
    file: String,
    source: String,
    breakable: Vec<u32>,
    obs: obs::Registry,
}

impl PyTracker {
    /// Parses MiniPy source and spawns the inferior thread (blocked until
    /// [`Tracker::start`]).
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] for parse errors.
    pub fn load(file: &str, source: &str) -> Result<Self> {
        Self::load_with_registry(file, source, obs::Registry::new())
    }

    /// Like [`PyTracker::load`], with control-call latencies, inspection
    /// counters, and `vm.minipy.*` interpreter stats reported into
    /// `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] for parse errors.
    pub fn load_with_registry(file: &str, source: &str, registry: obs::Registry) -> Result<Self> {
        let module =
            minipy::parser::parse(source).map_err(|e| TrackerError::Load(e.to_string()))?;
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
                // Block until the tool calls start() (first Go message).
                let (mode, session) = match go_rx.recv() {
                    Ok(Go::Run(mode, session)) => (mode, *session),
                    Ok(Go::Terminate) | Err(_) => return,
                };
                let mut tracer = ControlTracer {
                    file: file_name,
                    hook_counter: inferior_reg.counter("vm.minipy.trace_hooks"),
                    renders: inferior_reg.gauge("vm.minipy.watch_renders"),
                    handoff: Handoff {
                        go_rx,
                        pause_tx,
                        slice: Slice::new(mode),
                        session,
                    },
                };
                let mut interp = Interp::new(module);
                interp.set_max_depth(500);
                let run_outcome = interp.run(&mut tracer);
                inferior_reg.set_gauge("vm.minipy.steps", interp.steps());
                let (reason, exit) = match run_outcome {
                    Ok(outcome) => (
                        PauseReason::Exited(ExitStatus::Exited(outcome.exit_code)),
                        Some(outcome.exit_code),
                    ),
                    Err(minipy::Error::Stopped) => return,
                    Err(e) => {
                        let output = &mut tracer.handoff.session.output;
                        output.push_str(&format!("{e}\n"));
                        (PauseReason::Exited(ExitStatus::Crashed), Some(-1))
                    }
                };
                let ctx = TraceCtx {
                    heap: interp.heap(),
                    frames: interp.frames(),
                };
                tracer.handoff.send(&tracer.file, &ctx, reason, exit);
            })
            .map_err(|e| TrackerError::Load(format!("cannot spawn inferior thread: {e}")))?;
        Ok(PyTracker {
            go_tx,
            pause_rx,
            session: Session::default(),
            handle: Some(handle),
            started: false,
            last_reason: PauseReason::NotStarted,
            last_state: None,
            exit: None,
            output_cursor: 0,
            file: file.to_owned(),
            source: source.to_owned(),
            breakable,
            obs: registry,
        })
    }

    /// The registry this tracker reports into.
    pub fn registry(&self) -> &obs::Registry {
        &self.obs
    }

    /// Runs the inferior until it pauses, in the mode `command` asks for
    /// from the current position.
    fn control(&mut self, command: Command) -> Result<PauseReason> {
        let mode = mode(&command, self.position())
            .expect("a control command")
            .map_err(|message| TrackerError::Engine(message.into()))?;
        if !self.started {
            return Err(TrackerError::NotStarted);
        }
        let mut span = self.obs.span(format!("tracker.control.{}", command.kind()));
        span.category("tracker");
        if let Some(code) = self.exit {
            let status = if code == -1 {
                ExitStatus::Crashed
            } else {
                ExitStatus::Exited(code)
            };
            span.tag("pause_reason", PauseReason::Exited(status).tag());
            return Ok(PauseReason::Exited(status));
        }
        fn gone<E>(_: E) -> TrackerError {
            TrackerError::Engine("inferior thread is gone".into())
        }
        let session = Box::new(std::mem::take(&mut self.session));
        self.go_tx.send(Go::Run(mode, session)).map_err(gone)?;
        let msg = self.pause_rx.recv().map_err(gone)?;
        span.tag("pause_reason", msg.reason.tag());
        self.session = msg.session;
        self.last_reason = msg.reason.clone();
        self.last_state = Some(msg.state);
        self.exit = msg.exit;
        Ok(msg.reason)
    }

    fn count_inspect(&self, kind: &str) {
        self.obs.inc(&format!("tracker.inspect.{kind}"));
    }

    fn position(&self) -> (u32, usize) {
        match &self.last_state {
            Some(st) => (st.frame.location().line(), st.stack_depth()),
            None => (0, 1),
        }
    }

    /// Arms a breakpoint or tracked function. `command` names it
    /// (`tracker.control_point.<command>`) after the MI command, so Py
    /// and Mi tracker snapshots line up column for column.
    fn add_point(
        &mut self,
        command: &str,
        kind: BpKind<String>,
        maxdepth: Option<u32>,
    ) -> ControlPointId {
        self.obs.inc(&format!("tracker.control_point.{command}"));
        self.session.points.add(kind, maxdepth)
    }
}

impl Tracker for PyTracker {
    fn start(&mut self) -> Result<PauseReason> {
        if self.started {
            return Err(TrackerError::Engine("inferior already started".into()));
        }
        self.started = true;
        self.control(Command::Start)
    }

    fn resume(&mut self) -> Result<PauseReason> {
        self.control(Command::Resume)
    }

    fn step(&mut self) -> Result<PauseReason> {
        self.control(Command::Step)
    }

    fn next(&mut self) -> Result<PauseReason> {
        self.control(Command::Next)
    }

    fn finish(&mut self) -> Result<PauseReason> {
        self.control(Command::Finish)
    }

    fn break_before_line(&mut self, line: u32) -> Result<ControlPointId> {
        let Some(&actual) = self.breakable.iter().find(|&&l| l >= line) else {
            return Err(TrackerError::Engine(format!(
                "no code at or after line {line}"
            )));
        };
        Ok(self.add_point("SetBreakLine", BpKind::Line(actual), None))
    }

    fn break_before_func(
        &mut self,
        function: &str,
        maxdepth: Option<u32>,
    ) -> Result<ControlPointId> {
        let kind = BpKind::Entry(function.to_owned());
        Ok(self.add_point("SetBreakFunc", kind, maxdepth))
    }

    fn track_function(&mut self, function: &str, maxdepth: Option<u32>) -> Result<ControlPointId> {
        let kind = BpKind::Track(function.to_owned());
        Ok(self.add_point("TrackFunction", kind, maxdepth))
    }

    fn watch(&mut self, variable: &str) -> Result<ControlPointId> {
        // Prime from the current snapshot so a pre-existing value does not
        // immediately "change"; a variable that does not exist yet triggers
        // on its first binding (a binding is a modification in Python).
        let initial = self.get_variable(variable).ok().flatten().map(|v| {
            // Bindings are REF wrappers around the abstract object value;
            // render the target, matching the tracer's rendering.
            match v.value().content() {
                state::Content::Ref(target) => state::render_value(target),
                _ => state::render_value(v.value()),
            }
        });
        self.obs.inc("tracker.control_point.Watch");
        let spec = PyWatch {
            qualifier: variable.find("::"),
            seen: None,
        };
        let watch = Watch::new(variable.to_owned(), initial, spec);
        Ok(self.session.points.add_watch(watch))
    }

    fn remove(&mut self, id: ControlPointId) -> Result<()> {
        self.session.points.delete(id).map_err(TrackerError::Engine)
    }

    fn terminate(&mut self) {
        let _ = self.go_tx.send(Go::Terminate);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    fn pause_reason(&self) -> PauseReason {
        self.last_reason.clone()
    }

    fn get_current_frame(&mut self) -> Result<Frame> {
        self.count_inspect("GetState");
        self.last_state
            .as_ref()
            .map(|st| st.frame.clone())
            .ok_or(TrackerError::NotStarted)
    }

    fn get_state(&mut self) -> Result<ProgramState> {
        self.count_inspect("GetState");
        self.last_state.clone().ok_or(TrackerError::NotStarted)
    }

    fn get_global_variables(&mut self) -> Result<Vec<Variable>> {
        self.count_inspect("GetGlobals");
        Ok(self
            .last_state
            .as_ref()
            .map(|st| st.globals.clone())
            .unwrap_or_default())
    }

    fn get_variable(&mut self, name: &str) -> Result<Option<Variable>> {
        self.count_inspect("GetVariable");
        Ok(self.last_state.as_ref().and_then(|st| resolve(st, name)))
    }

    fn get_exit_code(&mut self) -> Option<i64> {
        self.count_inspect("GetExitCode");
        self.exit
    }

    fn get_output(&mut self) -> Result<String> {
        self.count_inspect("GetOutput");
        let all = &self.session.output;
        let new = all[self.output_cursor.min(all.len())..].to_owned();
        self.output_cursor = all.len();
        Ok(new)
    }

    fn get_source(&mut self) -> Result<(String, String)> {
        self.count_inspect("GetSource");
        Ok((self.file.clone(), self.source.clone()))
    }

    fn breakable_lines(&mut self) -> Result<Vec<u32>> {
        self.count_inspect("GetBreakableLines");
        Ok(self.breakable.clone())
    }

    fn set_profile(&mut self, mode: obs::ProfileMode, period: u64) -> Result<()> {
        if mode == obs::ProfileMode::Off {
            self.session.prof = None;
            return Ok(());
        }
        if self.started {
            return Err(TrackerError::Engine(
                "profiling must be armed before start".into(),
            ));
        }
        let mut p = obs::Profiler::new(mode, period);
        // The module frame is live from the first statement but never
        // raises a Call event; seed it like the VMs seed `main`.
        let id = p.intern("<module>");
        p.enter(id);
        self.session.prof = Some(p);
        Ok(())
    }

    fn profile(&mut self) -> Result<obs::ProfileReport> {
        let prof = self.session.prof.as_ref();
        Ok(prof.map(obs::Profiler::report).unwrap_or_default())
    }

    fn stats(&self) -> obs::Snapshot {
        self.obs.snapshot()
    }
}

impl Drop for PyTracker {
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
    use crate::Tracker;
    use state::{AbstractType, Content, Prim};

    const PY_PROG: &str =
        "def square(x):\n    return x * x\ns = 0\nfor i in range(1, 4):\n    s = s + square(i)\n";

    #[test]
    fn full_session() {
        let mut t = PyTracker::load("p.py", PY_PROG).unwrap();
        assert_eq!(t.start().unwrap(), PauseReason::Started);
        t.track_function("square", None).unwrap();
        let mut calls = 0;
        let mut returns = Vec::new();
        loop {
            match t.resume().unwrap() {
                PauseReason::FunctionCall { function, .. } => {
                    assert_eq!(function, "square");
                    calls += 1;
                    let frame = t.get_current_frame().unwrap();
                    assert_eq!(frame.name(), "square");
                    let x = frame.variable("x").unwrap();
                    assert_eq!(x.value().abstract_type(), AbstractType::Ref);
                }
                PauseReason::FunctionReturn { return_value, .. } => {
                    returns.push(return_value.unwrap());
                }
                PauseReason::Exited(ExitStatus::Exited(0)) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(calls, 3);
        assert_eq!(returns, ["1", "4", "9"]);
        assert_eq!(t.get_exit_code(), Some(0));
        t.terminate();
    }

    #[test]
    fn stepping_and_state() {
        let mut t = PyTracker::load("p.py", "a = 1\nb = 2\nc = a + b\n").unwrap();
        t.start().unwrap();
        assert_eq!(t.current_line(), Some(1));
        t.step().unwrap();
        assert_eq!(t.current_line(), Some(2));
        let frame = t.get_current_frame().unwrap();
        // `a` is bound, `b` not yet.
        assert!(frame.variable("a").is_some());
        assert!(frame.variable("b").is_none());
        t.step().unwrap();
        t.step().unwrap();
        let frame = t.get_current_frame().unwrap();
        match frame.variable("c").unwrap().value().deref_fully().content() {
            Content::Primitive(Prim::Int(3)) => {}
            other => panic!("unexpected {other:?}"),
        }
        let r = t.step().unwrap();
        assert!(matches!(r, PauseReason::Exited(_)));
    }

    #[test]
    fn watchpoints_single_step_under_the_hood() {
        let mut t = PyTracker::load("p.py", "x = 0\nwhile x < 3:\n    x = x + 1\ny = x\n").unwrap();
        t.start().unwrap();
        t.watch("x").unwrap();
        let mut changes = Vec::new();
        loop {
            match t.resume().unwrap() {
                PauseReason::Watchpoint { old, new, .. } => changes.push((old, new)),
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        // The first binding of `x` counts as a modification (Python
        // variables spring into existence), then each increment.
        assert_eq!(
            changes,
            vec![
                (None, "0".into()),
                (Some("0".into()), "1".into()),
                (Some("1".into()), "2".into()),
                (Some("2".into()), "3".into()),
            ]
        );
    }

    #[test]
    fn unchanged_watched_objects_skip_the_render() {
        // The sparse-watch loop: `acc` changes every iteration, the
        // watched `mark` every 50th. Between changes `mark` names the
        // same immutable int, so its line checks skip the render.
        let src = "acc = 0\nmark = 1\ni = 0\nwhile i < 1000:\n    acc = acc + i\n    \
                   if i % 50 == 0:\n        mark = mark + 1\n    i = i + 1\nprint(mark)\n";
        let mut t = PyTracker::load_with_registry("w.py", src, obs::Registry::new()).unwrap();
        t.start().unwrap();
        t.watch("mark").unwrap();
        let mut pauses = 0;
        loop {
            match t.resume().unwrap() {
                PauseReason::Watchpoint { .. } => pauses += 1,
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        // Its first binding, then one pause per change.
        assert_eq!(pauses, 21);
        let snap = t.stats();
        let renders = snap.gauge("vm.minipy.watch_renders");
        let hooks = snap.counter("vm.minipy.trace_hooks");
        assert!(
            renders <= 2 * pauses,
            "{renders} renders for {pauses} pauses"
        );
        assert!(hooks > 100 * renders, "{hooks} hooks, {renders} renders");
    }

    #[test]
    fn line_breakpoints() {
        let mut t = PyTracker::load("p.py", "a = 1\nb = 2\nc = 3\n").unwrap();
        let id = t.break_before_line(2).unwrap();
        t.start().unwrap();
        match t.resume().unwrap() {
            PauseReason::Breakpoint { id: hit, location } => {
                assert_eq!(hit, id);
                assert_eq!(location.line(), 2);
            }
            other => panic!("unexpected {other}"),
        }
        let frame = t.get_current_frame().unwrap();
        assert!(frame.variable("a").is_some());
        assert!(frame.variable("b").is_none());
    }

    #[test]
    fn watch_then_breakpoint_on_the_next_line() {
        // Line 3 assigns the watched `x` and line 4 holds a breakpoint:
        // the line-4 event carries both triggers, delivered in turn.
        let src = "x = 0\ny = 1\nx = 5\nz = 2\n";
        let mut t = PyTracker::load("p.py", src).unwrap();
        t.start().unwrap();
        t.step().unwrap();
        let watch = t.watch("x").unwrap();
        let bp = t.break_before_line(4).unwrap();
        let watched = PauseReason::Watchpoint {
            id: watch,
            variable: "x".into(),
            old: Some("0".into()),
            new: "5".into(),
        };
        assert_eq!(t.resume().unwrap(), watched);
        match t.resume().unwrap() {
            PauseReason::Breakpoint { id, location } => {
                assert_eq!((id, location.line()), (bp, 4));
            }
            other => panic!("breakpoint swallowed: got {other}"),
        }
        assert!(matches!(t.resume().unwrap(), PauseReason::Exited(_)));
    }

    #[test]
    fn next_and_finish() {
        let src = "def f(x):\n    y = x + 1\n    return y\na = f(1)\nb = f(2)\n";
        let mut t = PyTracker::load("p.py", src).unwrap();
        t.start().unwrap(); // at line 1 (def) — step to line 4
        t.step().unwrap();
        assert_eq!(t.current_line(), Some(4));
        t.next().unwrap(); // steps over f
        assert_eq!(t.current_line(), Some(5));
        assert_eq!(t.get_current_frame().unwrap().name(), "<module>");
        // step into f, then finish.
        t.step().unwrap();
        assert_eq!(t.get_current_frame().unwrap().name(), "f");
        t.finish().unwrap();
        assert_eq!(t.get_current_frame().unwrap().name(), "<module>");
    }

    #[test]
    fn output_collection() {
        let mut t = PyTracker::load("p.py", "print('a')\nprint('b')\n").unwrap();
        t.start().unwrap();
        t.step().unwrap();
        assert_eq!(t.get_output().unwrap(), "a\n");
        t.resume().unwrap();
        assert_eq!(t.get_output().unwrap(), "b\n");
        assert_eq!(t.get_output().unwrap(), "");
    }

    #[test]
    fn crash_reports_crashed_status() {
        let mut t = PyTracker::load("p.py", "x = 1\ny = x / 0\n").unwrap();
        t.start().unwrap();
        let r = t.resume().unwrap();
        assert_eq!(r, PauseReason::Exited(ExitStatus::Crashed));
        assert!(t.get_output().unwrap().contains("ZeroDivision"));
        assert_eq!(t.get_exit_code(), Some(-1));
    }

    #[test]
    fn qualified_variable_lookup() {
        let src = "g = 10\ndef f(x):\n    local = x * 2\n    return local\nf(5)\n";
        let mut t = PyTracker::load("p.py", src).unwrap();
        t.break_before_line(4).unwrap();
        t.start().unwrap();
        t.resume().unwrap();
        let local = t.get_variable("f::local").unwrap().unwrap();
        assert_eq!(state::render_value(local.value().deref_fully()), "10");
        let g = t.get_variable("g").unwrap().unwrap();
        assert_eq!(state::render_value(g.value().deref_fully()), "10");
        assert!(t.get_variable("nonexistent").unwrap().is_none());
    }

    #[test]
    fn terminate_mid_run_stops_inferior() {
        let mut t = PyTracker::load("p.py", "i = 0\nwhile True:\n    i = i + 1\n").unwrap();
        t.start().unwrap();
        t.step().unwrap();
        t.terminate(); // must not hang
    }

    #[test]
    fn control_before_start_fails() {
        let mut t = PyTracker::load("p.py", "a = 1\n").unwrap();
        assert!(matches!(t.resume(), Err(TrackerError::NotStarted)));
    }

    #[test]
    fn load_error() {
        assert!(matches!(
            PyTracker::load("p.py", "def ("),
            Err(TrackerError::Load(_))
        ));
    }
}
