//! The one [`Tracker`] implementation: [`EngineTracker`], an adapter
//! from the paper's calls to engine [`Command`]s over an [`EnginePort`].
//! Each call is one command; the port decides how it reaches an engine.
//! An `mi` engine in the tool's process is a port by itself (Py and
//! replay), and the MI trackers' supervisor is one over a serialized,
//! possibly remote boundary (C and asm, see [`crate::mi_tracker`]).

use crate::{ControlPointId, LowLevel, Result, Tracker, TrackerError};
use mi::py_engine::PyEngine;
use mi::{Command, Engine, RecordingEngine, Response};
use state::{Diagnostic, Frame, PauseReason, ProgramState, Variable};

/// What an [`EngineTracker`] sends its commands through.
pub trait EnginePort {
    /// Whether the engine behind the port is a machine-level one, with
    /// registers and memory, and with the MiniC analysis and sanitizer
    /// commands. The adapter answers [`Tracker::low_level`],
    /// [`Tracker::diagnostics`] and [`Tracker::set_sanitizer`] only for
    /// such ports.
    const LOW_LEVEL: bool = false;

    /// Runs one command. An engine's refusal is an `Ok`
    /// [`Response::Error`], for the adapter to map; `Err` is what the
    /// port itself failed at, and the adapter passes it on unchanged.
    ///
    /// # Errors
    ///
    /// The port's own failures (a lost or degraded session, an
    /// exhausted budget, an overloaded host, a protocol fault).
    fn call(&mut self, command: Command) -> Result<Response>;

    /// The frame chain of the pause, as [`Engine::current_frame`]
    /// answers it: `Ok(Err(answer))` when the engine has no state to
    /// give. The default asks [`Command::GetState`].
    ///
    /// # Errors
    ///
    /// As [`EnginePort::call`].
    fn current_frame(&mut self) -> Result<std::result::Result<Frame, Response>> {
        Ok(match self.call(Command::GetState)? {
            Response::State(st) => Ok(st.frame),
            other => Err(other),
        })
    }
}

/// An `mi` engine in the tool's process: each command is one
/// [`Engine::handle`], with no serialization or transport in between.
impl<E: Engine> EnginePort for E {
    fn call(&mut self, command: Command) -> Result<Response> {
        Ok(self.handle(command))
    }

    fn current_frame(&mut self) -> Result<std::result::Result<Frame, Response>> {
        Ok(Engine::current_frame(self))
    }
}

/// A tracker over an [`EnginePort`]: each call is one command.
#[derive(Debug)]
pub struct EngineTracker<P> {
    pub(crate) port: P,
    pub(crate) obs: obs::Registry,
    /// The last control answer.
    last_reason: PauseReason,
}

/// The thread-based MiniPy tracker (paper Fig. 5), in the recorder
/// every spawned C and asm engine carries (inert until
/// [`Tracker::record`]).
pub type PyTracker = EngineTracker<RecordingEngine<PyEngine>>;

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
        let engine = PyEngine::new(file, source, registry.clone()).map_err(TrackerError::Load)?;
        Ok(EngineTracker::over(RecordingEngine::new(engine), registry))
    }
}

/// Maps an engine answer that is not the one asked for: a refusal is
/// [`TrackerError::Engine`], anything else a protocol fault.
pub(crate) fn refusal(resp: Response) -> TrackerError {
    match resp {
        Response::Error { message } => TrackerError::Engine(message),
        other => TrackerError::Protocol(format!("unexpected engine answer {}", other.summary())),
    }
}

impl<P: EnginePort> EngineTracker<P> {
    pub(crate) fn over(port: P, obs: obs::Registry) -> Self {
        EngineTracker {
            port,
            obs,
            last_reason: PauseReason::NotStarted,
        }
    }

    /// The registry this tracker reports into.
    pub fn registry(&self) -> &obs::Registry {
        &self.obs
    }

    /// Maps a failed answer to a control or inspection call: before
    /// `start`, every refusal is [`TrackerError::NotStarted`].
    fn error(&self, resp: Response) -> TrackerError {
        match resp {
            _ if self.last_reason == PauseReason::NotStarted => TrackerError::NotStarted,
            other => refusal(other),
        }
    }

    /// Runs one control call on the port under the span `name`
    /// (`tracker.control.<kind>`).
    pub(crate) fn control(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut P) -> Result<Response>,
    ) -> Result<PauseReason> {
        let mut span = self.obs.span_static(name);
        span.category("tracker");
        match f(&mut self.port)? {
            Response::Paused(reason) => {
                span.tag("pause_reason", reason.tag());
                self.last_reason = reason.clone();
                Ok(reason)
            }
            other => Err(self.error(other)),
        }
    }

    fn command(&mut self, name: &'static str, cmd: Command) -> Result<PauseReason> {
        self.control(name, |port| port.call(cmd))
    }

    /// Arms a control point, counted under `name`
    /// (`tracker.control_point.<kind>`).
    fn arm(&mut self, name: &'static str, cmd: Command) -> Result<ControlPointId> {
        self.obs.inc(name);
        match self.port.call(cmd)? {
            Response::Created { id } => Ok(id),
            other => Err(refusal(other)),
        }
    }

    /// Sends an inspection, counted under `name`
    /// (`tracker.inspect.<kind>`).
    pub(crate) fn inspect(&mut self, name: &'static str, cmd: Command) -> Result<Response> {
        self.obs.inc(name);
        self.port.call(cmd)
    }

    /// Sends a configuration command, answered `Ok`.
    pub(crate) fn configure(&mut self, cmd: Command) -> Result<()> {
        match self.port.call(cmd)? {
            Response::Ok => Ok(()),
            other => Err(refusal(other)),
        }
    }

    /// Asks the recording's write index for `variable` in `[from, to]`;
    /// with `last_only`, for the last write only.
    fn history(
        &mut self,
        variable: &str,
        from: Option<u64>,
        to: Option<u64>,
        last_only: bool,
    ) -> Result<Vec<trace::HistoryHit>> {
        let variable = variable.into();
        let cmd = Command::QueryHistory {
            variable,
            from,
            to,
            last_only,
        };
        match self.inspect("tracker.inspect.QueryHistory", cmd)? {
            Response::History { hits } => Ok(hits),
            other => Err(refusal(other)),
        }
    }
}

impl<P: EnginePort> Tracker for EngineTracker<P> {
    fn start(&mut self) -> Result<PauseReason> {
        self.command("tracker.control.Start", Command::Start)
    }

    fn resume(&mut self) -> Result<PauseReason> {
        self.command("tracker.control.Resume", Command::Resume)
    }

    fn step(&mut self) -> Result<PauseReason> {
        self.command("tracker.control.Step", Command::Step)
    }

    fn next(&mut self) -> Result<PauseReason> {
        self.command("tracker.control.Next", Command::Next)
    }

    fn finish(&mut self) -> Result<PauseReason> {
        self.command("tracker.control.Finish", Command::Finish)
    }

    fn break_before_line(&mut self, line: u32) -> Result<ControlPointId> {
        self.arm(
            "tracker.control_point.SetBreakLine",
            Command::SetBreakLine { line },
        )
    }

    fn break_before_func(
        &mut self,
        function: &str,
        maxdepth: Option<u32>,
    ) -> Result<ControlPointId> {
        let function = function.to_owned();
        let cmd = Command::SetBreakFunc { function, maxdepth };
        self.arm("tracker.control_point.SetBreakFunc", cmd)
    }

    fn track_function(&mut self, function: &str, maxdepth: Option<u32>) -> Result<ControlPointId> {
        let function = function.to_owned();
        let cmd = Command::TrackFunction { function, maxdepth };
        self.arm("tracker.control_point.TrackFunction", cmd)
    }

    fn watch(&mut self, variable: &str) -> Result<ControlPointId> {
        let variable = variable.to_owned();
        self.arm("tracker.control_point.Watch", Command::Watch { variable })
    }

    fn remove(&mut self, id: ControlPointId) -> Result<()> {
        self.configure(Command::Delete { id })
    }

    fn terminate(&mut self) {
        let _ = self.port.call(Command::Terminate);
    }

    fn pause_reason(&self) -> PauseReason {
        self.last_reason.clone()
    }

    fn get_current_frame(&mut self) -> Result<Frame> {
        self.obs.inc("tracker.inspect.GetState");
        self.port.current_frame()?.map_err(|resp| self.error(resp))
    }

    fn get_state(&mut self) -> Result<ProgramState> {
        match self.inspect("tracker.inspect.GetState", Command::GetState)? {
            Response::State(st) => Ok(*st),
            other => Err(self.error(other)),
        }
    }

    fn get_global_variables(&mut self) -> Result<Vec<Variable>> {
        match self.inspect("tracker.inspect.GetGlobals", Command::GetGlobals)? {
            Response::Globals(globals) => Ok(globals),
            other => Err(self.error(other)),
        }
    }

    fn get_variable(&mut self, name: &str) -> Result<Option<Variable>> {
        let cmd = Command::GetVariable { name: name.into() };
        match self.inspect("tracker.inspect.GetVariable", cmd)? {
            Response::Variable(v) => Ok(v),
            other => Err(self.error(other)),
        }
    }

    fn get_exit_code(&mut self) -> Option<i64> {
        match self.inspect("tracker.inspect.GetExitCode", Command::GetExitCode) {
            Ok(Response::ExitCode(code)) => code,
            _ => None,
        }
    }

    fn get_output(&mut self) -> Result<String> {
        match self.inspect("tracker.inspect.GetOutput", Command::GetOutput)? {
            Response::Output(out) => Ok(out),
            other => Err(self.error(other)),
        }
    }

    fn get_source(&mut self) -> Result<(String, String)> {
        match self.inspect("tracker.inspect.GetSource", Command::GetSource)? {
            Response::Source { file, text } => Ok((file, text)),
            other => Err(self.error(other)),
        }
    }

    fn breakable_lines(&mut self) -> Result<Vec<u32>> {
        let cmd = Command::GetBreakableLines;
        match self.inspect("tracker.inspect.GetBreakableLines", cmd)? {
            Response::Lines(lines) => Ok(lines),
            other => Err(self.error(other)),
        }
    }

    fn low_level(&mut self) -> Option<&mut dyn LowLevel> {
        if P::LOW_LEVEL {
            Some(self)
        } else {
            None
        }
    }

    fn diagnostics(&mut self) -> Result<Vec<Diagnostic>> {
        if !P::LOW_LEVEL {
            return Err(TrackerError::Unsupported(
                "static diagnostics are not available for this tracker".into(),
            ));
        }
        match self.inspect("tracker.inspect.Analyze", Command::Analyze)? {
            Response::Diagnostics(diags) => Ok(diags),
            other => Err(refusal(other)),
        }
    }

    fn set_sanitizer(&mut self, on: bool) -> Result<()> {
        if !P::LOW_LEVEL {
            return Err(TrackerError::Unsupported(
                "sanitized execution is not available for this tracker".into(),
            ));
        }
        self.configure(Command::SetSanitizer { on })
    }

    fn set_profile(&mut self, mode: obs::ProfileMode, period: u64) -> Result<()> {
        match self.port.call(Command::SetProfile { mode, period })? {
            Response::Ok => Ok(()),
            other => Err(self.error(other)),
        }
    }

    fn profile(&mut self) -> Result<obs::ProfileReport> {
        let cmd = Command::ProfileReport { since: 0 };
        match self.inspect("tracker.inspect.ProfileReport", cmd)? {
            Response::Profile(report) => Ok(*report),
            other => Err(self.error(other)),
        }
    }

    fn record(&mut self, keyframe_every: u32) -> Result<()> {
        self.configure(Command::Record { keyframe_every })
    }

    fn seek(&mut self, pause: u64) -> Result<PauseReason> {
        // A replay engine answers a bare `Seek`, as hosted replay readers
        // send it; a tracker refuses it before `start`, like every other
        // control call, without asking.
        let started = self.last_reason != PauseReason::NotStarted;
        self.control("tracker.control.Seek", |port| {
            if started {
                port.call(Command::Seek { pause })
            } else {
                Ok(Response::Error {
                    message: "inferior not started".into(),
                })
            }
        })
    }

    fn query_history(
        &mut self,
        variable: &str,
        from: Option<u64>,
        to: Option<u64>,
    ) -> Result<Vec<trace::HistoryHit>> {
        self.history(variable, from, to, false)
    }

    fn last_change(
        &mut self,
        variable: &str,
        before: Option<u64>,
    ) -> Result<Option<trace::HistoryHit>> {
        let hits = self.history(variable, None, before, true)?;
        Ok(hits.into_iter().next())
    }

    fn trace_stats(&mut self) -> Result<(u64, u64, u64)> {
        match self.inspect("tracker.inspect.TraceStats", Command::TraceStats)? {
            Response::TraceStats {
                pauses,
                keyframes,
                bytes,
            } => Ok((pauses, keyframes, bytes)),
            other => Err(refusal(other)),
        }
    }

    fn publish_trace(&mut self, name: &str) -> Result<()> {
        self.configure(Command::PublishTrace { name: name.into() })
    }

    fn stats(&self) -> obs::Snapshot {
        self.obs.snapshot()
    }
}

/// Registers and memory, for ports whose engine has them
/// ([`EnginePort::LOW_LEVEL`]); [`Tracker::low_level`] hands this out
/// for no other.
impl<P: EnginePort> LowLevel for EngineTracker<P> {
    fn registers(&mut self) -> Result<Vec<Variable>> {
        match self.inspect("tracker.inspect.GetRegisters", Command::GetRegisters)? {
            Response::Registers(regs) => Ok(regs),
            other => Err(self.error(other)),
        }
    }

    fn read_memory(&mut self, addr: u64, len: u64) -> Result<Vec<u8>> {
        let cmd = Command::ReadMemory { addr, len };
        match self.inspect("tracker.inspect.ReadMemory", cmd)? {
            Response::Memory(bytes) => Ok(bytes),
            other => Err(self.error(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracker;
    use state::{AbstractType, Content, ExitStatus, Prim};

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
    fn the_current_frame_is_the_state_frame() {
        let mut t = PyTracker::load("p.py", PY_PROG).unwrap();
        assert!(matches!(
            t.get_current_frame(),
            Err(TrackerError::NotStarted)
        ));
        t.start().unwrap();
        t.track_function("square", None).unwrap();
        while t.resume().unwrap().is_alive() {
            let state = t.get_state().unwrap();
            assert!(
                !state.globals.is_empty(),
                "the frame leaves the globals out"
            );
            assert_eq!(t.get_current_frame().unwrap(), state.frame);
        }
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

    /// Calls each inspection and arm once; the inspections only a
    /// low-level port answers run when `low_level` says so.
    fn inspect_and_arm_once(t: &mut dyn Tracker) {
        t.break_before_func("f", None).unwrap();
        t.track_function("f", None).unwrap();
        let line = t.breakable_lines().unwrap()[0];
        t.break_before_line(line).unwrap();
        t.start().unwrap();
        t.watch("g").unwrap();
        t.get_state().unwrap();
        t.get_global_variables().unwrap();
        // A global in C; not bound yet before Python's first line.
        let g = t.get_variable("g").unwrap();
        assert_eq!(t.get_exit_code(), None);
        t.get_output().unwrap();
        t.get_source().unwrap();
        t.profile().unwrap();
        let _ = t.diagnostics();
        if let Some(low) = t.low_level() {
            low.registers().unwrap();
            let addr = g.and_then(|g| g.value().address()).unwrap();
            low.read_memory(addr, 4).unwrap();
        }
    }

    #[test]
    fn each_inspection_and_arm_counts_once_under_its_name() {
        let common = [
            "tracker.control_point.SetBreakFunc",
            "tracker.control_point.SetBreakLine",
            "tracker.control_point.TrackFunction",
            "tracker.control_point.Watch",
            "tracker.inspect.GetBreakableLines",
            "tracker.inspect.GetExitCode",
            "tracker.inspect.GetGlobals",
            "tracker.inspect.GetOutput",
            "tracker.inspect.GetSource",
            "tracker.inspect.GetState",
            "tracker.inspect.GetVariable",
            "tracker.inspect.ProfileReport",
        ];
        let low_level = [
            "tracker.inspect.Analyze",
            "tracker.inspect.GetRegisters",
            "tracker.inspect.ReadMemory",
        ];
        let c = "int g = 7;\nint f(int x) {\nreturn x;\n}\nint main() {\nreturn f(g);\n}\n";
        let py = "g = 7\ndef f(x):\n    return x\ny = f(g)\n";
        let trackers: [(Box<dyn Tracker>, &[&str]); 2] = [
            (
                Box::new(crate::MiTracker::load_c("p.c", c).unwrap()),
                &low_level,
            ),
            (Box::new(PyTracker::load("p.py", py).unwrap()), &[]),
        ];
        for (mut t, extra) in trackers {
            inspect_and_arm_once(t.as_mut());
            let mut expected: Vec<&str> = common.iter().chain(extra).copied().collect();
            expected.sort_unstable();
            let snap = t.stats();
            let counted: Vec<(&str, u64)> = snap
                .counters
                .iter()
                .filter(|(name, _)| {
                    name.starts_with("tracker.inspect.")
                        || name.starts_with("tracker.control_point.")
                })
                .map(|(name, n)| (name.as_str(), *n))
                .collect();
            let once: Vec<(&str, u64)> = expected.iter().map(|name| (*name, 1)).collect();
            assert_eq!(counted, once);
            t.terminate();
        }
    }

    #[test]
    fn a_py_recording_seeks_pause_for_pause_like_its_live_run() {
        let mut t = PyTracker::load("p.py", PY_PROG).unwrap();
        t.record(4).unwrap();
        let mut reason = t.start().unwrap();
        // Past the end of a recording still being made: refused.
        assert!(matches!(t.seek(u64::MAX), Err(TrackerError::Engine(_))));
        let (mut live, mut writes) = (Vec::new(), Vec::new());
        let mut last_s = None;
        while reason.is_alive() {
            live.push(serde_json::to_string(&t.get_state().unwrap()).unwrap());
            let s = t.get_variable("s").unwrap();
            let s = s.map(|v| state::render_value(v.value().deref_fully()));
            if s.is_some() && s != last_s {
                writes.push((live.len() as u64 - 1, s.clone().unwrap()));
                last_s = s;
            }
            reason = t.step().unwrap();
        }
        let (pauses, _, _) = t.trace_stats().unwrap();
        assert_eq!(pauses, live.len() as u64);
        for (i, want) in live.iter().enumerate() {
            t.seek(i as u64).unwrap();
            let got = serde_json::to_string(&t.get_state().unwrap()).unwrap();
            assert_eq!(&got, want, "pause {i}");
            assert_eq!(
                serde_json::to_string(&t.get_current_frame().unwrap()).unwrap(),
                serde_json::to_string(&t.get_state().unwrap().frame).unwrap(),
            );
        }
        let hits = t.query_history("s", None, None).unwrap();
        let hits: Vec<(u64, String)> = hits.into_iter().map(|h| (h.pause, h.value)).collect();
        assert_eq!(hits, writes);
        let last = t.last_change("s", None).unwrap().unwrap();
        assert_eq!((last.pause, last.value), writes.last().unwrap().clone());
        assert!(matches!(t.seek(u64::MAX).unwrap(), PauseReason::Exited(_)));
        t.terminate();
    }

    #[test]
    fn load_error() {
        assert!(matches!(
            PyTracker::load("p.py", "def ("),
            Err(TrackerError::Load(_))
        ));
    }
}
