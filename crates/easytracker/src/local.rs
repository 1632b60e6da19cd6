//! The in-process trackers: one adapter, [`LocalTracker`], over an `mi`
//! engine in the tool's process. Each [`Tracker`] call is one engine
//! command, with no serialization or transport in between.

use crate::{ControlPointId, Result, Tracker, TrackerError};
use mi::py_engine::PyEngine;
use mi::{Command, Engine, Response};
use state::{Frame, PauseReason, ProgramState, Variable};

/// A tracker over an engine in the tool's process: each call is one
/// engine command.
#[derive(Debug)]
pub struct LocalTracker<E> {
    pub(crate) engine: E,
    pub(crate) obs: obs::Registry,
    /// The last control answer.
    last_reason: PauseReason,
}

/// The thread-based MiniPy tracker (paper Fig. 5).
pub type PyTracker = LocalTracker<PyEngine>;

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
        Ok(LocalTracker::over(engine, registry))
    }
}

impl<E: Engine> LocalTracker<E> {
    pub(crate) fn over(engine: E, obs: obs::Registry) -> Self {
        LocalTracker {
            engine,
            obs,
            last_reason: PauseReason::NotStarted,
        }
    }

    /// The registry this tracker reports into.
    pub fn registry(&self) -> &obs::Registry {
        &self.obs
    }

    /// Maps a failed engine answer: before `start`, every refusal is
    /// [`TrackerError::NotStarted`].
    fn error(&self, resp: Response) -> TrackerError {
        match resp {
            _ if self.last_reason == PauseReason::NotStarted => TrackerError::NotStarted,
            Response::Error { message } => TrackerError::Engine(message),
            other => {
                TrackerError::Protocol(format!("unexpected engine answer {}", other.summary()))
            }
        }
    }

    /// Runs one control call on the engine under a
    /// `tracker.control.<kind>` span.
    pub(crate) fn control(
        &mut self,
        kind: &str,
        f: impl FnOnce(&mut E) -> Response,
    ) -> Result<PauseReason> {
        let mut span = self.obs.span(format!("tracker.control.{kind}"));
        span.category("tracker");
        match f(&mut self.engine) {
            Response::Paused(reason) => {
                span.tag("pause_reason", reason.tag());
                self.last_reason = reason.clone();
                Ok(reason)
            }
            other => Err(self.error(other)),
        }
    }

    fn command(&mut self, cmd: Command) -> Result<PauseReason> {
        self.control(cmd.kind(), |e| e.handle(cmd))
    }

    fn arm(&mut self, cmd: Command) -> Result<ControlPointId> {
        self.obs
            .inc(&format!("tracker.control_point.{}", cmd.kind()));
        match self.engine.handle(cmd) {
            Response::Created { id } => Ok(id),
            Response::Error { message } => Err(TrackerError::Engine(message)),
            other => Err(self.error(other)),
        }
    }

    fn inspect(&mut self, cmd: Command) -> Result<Response> {
        self.obs.inc(&format!("tracker.inspect.{}", cmd.kind()));
        match self.engine.handle(cmd) {
            resp @ Response::Error { .. } => Err(self.error(resp)),
            resp => Ok(resp),
        }
    }
}

impl<E: Engine> Tracker for LocalTracker<E> {
    fn start(&mut self) -> Result<PauseReason> {
        self.command(Command::Start)
    }

    fn resume(&mut self) -> Result<PauseReason> {
        self.command(Command::Resume)
    }

    fn step(&mut self) -> Result<PauseReason> {
        self.command(Command::Step)
    }

    fn next(&mut self) -> Result<PauseReason> {
        self.command(Command::Next)
    }

    fn finish(&mut self) -> Result<PauseReason> {
        self.command(Command::Finish)
    }

    fn break_before_line(&mut self, line: u32) -> Result<ControlPointId> {
        self.arm(Command::SetBreakLine { line })
    }

    fn break_before_func(
        &mut self,
        function: &str,
        maxdepth: Option<u32>,
    ) -> Result<ControlPointId> {
        self.arm(Command::SetBreakFunc {
            function: function.to_owned(),
            maxdepth,
        })
    }

    fn track_function(&mut self, function: &str, maxdepth: Option<u32>) -> Result<ControlPointId> {
        self.arm(Command::TrackFunction {
            function: function.to_owned(),
            maxdepth,
        })
    }

    fn watch(&mut self, variable: &str) -> Result<ControlPointId> {
        self.arm(Command::Watch {
            variable: variable.to_owned(),
        })
    }

    fn remove(&mut self, id: ControlPointId) -> Result<()> {
        match self.engine.handle(Command::Delete { id }) {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(TrackerError::Engine(message)),
            other => Err(self.error(other)),
        }
    }

    fn terminate(&mut self) {
        self.engine.handle(Command::Terminate);
    }

    fn pause_reason(&self) -> PauseReason {
        self.last_reason.clone()
    }

    fn get_current_frame(&mut self) -> Result<Frame> {
        Ok(self.get_state()?.frame)
    }

    fn get_state(&mut self) -> Result<ProgramState> {
        match self.inspect(Command::GetState)? {
            Response::State(st) => Ok(*st),
            other => Err(self.error(other)),
        }
    }

    fn get_global_variables(&mut self) -> Result<Vec<Variable>> {
        match self.inspect(Command::GetGlobals)? {
            Response::Globals(globals) => Ok(globals),
            other => Err(self.error(other)),
        }
    }

    fn get_variable(&mut self, name: &str) -> Result<Option<Variable>> {
        match self.inspect(Command::GetVariable { name: name.into() })? {
            Response::Variable(v) => Ok(v),
            other => Err(self.error(other)),
        }
    }

    fn get_exit_code(&mut self) -> Option<i64> {
        match self.inspect(Command::GetExitCode) {
            Ok(Response::ExitCode(code)) => code,
            _ => None,
        }
    }

    fn get_output(&mut self) -> Result<String> {
        match self.inspect(Command::GetOutput)? {
            Response::Output(out) => Ok(out),
            other => Err(self.error(other)),
        }
    }

    fn get_source(&mut self) -> Result<(String, String)> {
        match self.inspect(Command::GetSource)? {
            Response::Source { file, text } => Ok((file, text)),
            other => Err(self.error(other)),
        }
    }

    fn breakable_lines(&mut self) -> Result<Vec<u32>> {
        match self.inspect(Command::GetBreakableLines)? {
            Response::Lines(lines) => Ok(lines),
            other => Err(self.error(other)),
        }
    }

    fn set_profile(&mut self, mode: obs::ProfileMode, period: u64) -> Result<()> {
        match self.engine.handle(Command::SetProfile { mode, period }) {
            Response::Ok => Ok(()),
            other => Err(self.error(other)),
        }
    }

    fn profile(&mut self) -> Result<obs::ProfileReport> {
        match self.engine.handle(Command::ProfileReport { since: 0 }) {
            Response::Profile(report) => Ok(*report),
            other => Err(self.error(other)),
        }
    }

    fn stats(&self) -> obs::Snapshot {
        self.obs.snapshot()
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
