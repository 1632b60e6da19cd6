//! EasyTracker: a library for controlling and inspecting program
//! execution, reproduced in Rust.
//!
//! This crate is the paper's contribution (CGO 2024): one simple,
//! imperative, **language-agnostic** API — the [`Tracker`] trait — for
//! running a program (the *inferior*), pausing it at interesting points,
//! and inspecting its state in the serializable representation of the
//! [`state`] crate. Visualization tools are written once against the
//! trait and work on every supported inferior language.
//!
//! The trait has one implementation, [`EngineTracker`]: an adapter that
//! maps each call to one `mi` command and each answer back to a result,
//! over an [`EnginePort`]. Three kinds of port make the three trackers:
//!
//! * [`MiTracker`] — the GDB-tracker analogue (paper Fig. 4), over a
//!   [`mi_tracker::SupervisedPort`]: the inferior runs behind a
//!   machine-interface boundary (serialized commands over a byte
//!   transport, engine on its own thread, in a child process or in a
//!   shared host), for MiniC (`.c`) and RISC-V assembly (`.s`); the port
//!   retries, respawns and replays a lost engine, and only this tracker
//!   offers [`Tracker::low_level`], diagnostics and the sanitizer;
//! * [`PyTracker`] — the Python-tracker analogue (paper Fig. 5), over
//!   [`mi::py_engine::PyEngine`] in the tool's process: the MiniPy
//!   interpreter runs on a dedicated inferior thread with a
//!   `settrace`-style hook; control calls block until the inferior pauses;
//! * [`ReplayTracker`] — the trace tracker of §III-E, over
//!   [`mi::ReplayEngine`] in the tool's process: the full control API
//!   implemented over a pre-recorded execution, enabling tools to run on
//!   traces (and traces to be made from tools).
//!
//! Every live engine sits in an [`mi::RecordingEngine`], so every
//! tracker answers the same time-travel calls — [`Tracker::record`],
//! [`Tracker::seek`], [`Tracker::query_history`],
//! [`Tracker::last_change`], [`Tracker::trace_stats`] and
//! [`Tracker::publish_trace`] — and refuses them alike where it cannot.
//! Only running backwards ([`ReplayTracker::step_back`],
//! [`ReplayTracker::resume_back`]) is the replay tracker's own.
//!
//! # Naming
//!
//! The inspection methods keep the paper's `get_*` spelling
//! (`get_current_frame`, `get_exit_code`, ...) instead of Rust's bare
//! getter convention: the whole point of this crate is that a reader of
//! the paper (or of the original Python library) can map its API onto
//! this one line by line.
//!
//! # Examples
//!
//! The paper's Listing 1 (the stack-and-heap tool's control loop),
//! unchanged across languages:
//!
//! ```
//! use easytracker::{init_tracker, Tracker};
//!
//! # fn main() -> Result<(), easytracker::TrackerError> {
//! let mut tracker = init_tracker("prog.py", "x = [1, 2]\ny = x\n")?;
//! tracker.start()?;
//! let mut snapshots = 0;
//! while tracker.get_exit_code().is_none() {
//!     let frame = tracker.get_current_frame()?;
//!     assert_eq!(frame.name(), "<module>");
//!     snapshots += 1;
//!     tracker.step()?;
//! }
//! tracker.terminate();
//! assert_eq!(snapshots, 2);
//! # Ok(())
//! # }
//! ```

pub mod adapter;
pub mod mi_tracker;
pub mod recording;

pub use adapter::{EnginePort, EngineTracker, PyTracker};
pub use mi_tracker::{MiTracker, PortWrapper, ProgramSpec, SessionHealth, Supervision};
pub use recording::{RecordedStep, Recording, ReplayTracker};

pub use state::{
    AbstractType, Content, Diagnostic, DiagnosticKind, ExitStatus, Frame, Location, PauseReason,
    Prim, ProgramState, Scope, Severity, SourceLocation, Value, Variable,
};

use std::fmt;

/// Identifier of a control point (breakpoint, watchpoint or tracked
/// function), returned by the control interface.
pub type ControlPointId = u64;

/// Errors reported by trackers.
#[derive(Debug, Clone, PartialEq)]
pub enum TrackerError {
    /// The inferior failed to compile/parse/assemble.
    Load(String),
    /// A machine-interface/protocol failure.
    Protocol(String),
    /// The engine rejected the request.
    Engine(String),
    /// Control/inspection before `start`.
    NotStarted,
    /// The operation is not supported by this tracker.
    Unsupported(String),
    /// The supervised session lost its engine and could not re-establish
    /// an equivalent one (respawn budget exhausted, or the re-established
    /// state diverged from the journal). The tracker stays alive but
    /// refuses further engine traffic rather than answering from a state
    /// it cannot vouch for.
    SessionDegraded(String),
    /// A hard per-session resource budget (`set_limits`) was exceeded.
    /// Terminal: execution is deterministic, so replaying the journal
    /// would burn the same budget again — the session is not recovered.
    /// `which` names the exhausted resource (`steps`, `heap_bytes`,
    /// `wall_ms`, `queue_depth`).
    ResourceExhausted {
        which: String,
        used: u64,
        limit: u64,
    },
    /// The host shed this request before it touched the engine (session
    /// cap or queue bound), and the tracker's bounded backoff retries did
    /// not get through. Retryable later; nothing executed.
    Overloaded(String),
}

impl fmt::Display for TrackerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrackerError::Load(m) => write!(f, "failed to load inferior: {m}"),
            TrackerError::Protocol(m) => write!(f, "machine-interface failure: {m}"),
            TrackerError::Engine(m) => write!(f, "{m}"),
            TrackerError::NotStarted => write!(f, "inferior not started"),
            TrackerError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            TrackerError::SessionDegraded(m) => write!(f, "session degraded: {m}"),
            TrackerError::ResourceExhausted { which, used, limit } => {
                write!(f, "resource budget exhausted: {which} {used}/{limit}")
            }
            TrackerError::Overloaded(m) => write!(f, "host overloaded: {m}"),
        }
    }
}

impl std::error::Error for TrackerError {}

impl From<mi::MiError> for TrackerError {
    fn from(e: mi::MiError) -> Self {
        match e {
            mi::MiError::Overloaded { load, limit } => {
                TrackerError::Overloaded(format!("{load}/{limit} sessions open"))
            }
            e => TrackerError::Protocol(e.to_string()),
        }
    }
}

/// Result alias for tracker operations.
pub type Result<T> = std::result::Result<T, TrackerError>;

/// The language-agnostic control and inspection interface (paper §II-B).
///
/// **Control calls return only when the inferior is paused or
/// terminated**, reporting the [`PauseReason`]. Inspection calls are valid
/// while the inferior is paused.
pub trait Tracker {
    // ---- control (paper Listings 2 and 3) -------------------------------

    /// Starts the inferior, pausing before its first line executes.
    ///
    /// # Errors
    ///
    /// Fails when called twice or when the engine is unreachable.
    fn start(&mut self) -> Result<PauseReason>;

    /// Resumes until the next control point (breakpoint, watchpoint,
    /// tracked-function boundary) or termination.
    ///
    /// # Errors
    ///
    /// Fails before `start` or when the engine is unreachable.
    fn resume(&mut self) -> Result<PauseReason>;

    /// Executes until the next source line, entering function calls.
    ///
    /// # Errors
    ///
    /// Fails before `start` or when the engine is unreachable.
    fn step(&mut self) -> Result<PauseReason>;

    /// Executes until the next source line in the current (or an outer)
    /// frame, stepping over calls.
    ///
    /// # Errors
    ///
    /// Fails before `start` or when the engine is unreachable.
    fn next(&mut self) -> Result<PauseReason>;

    /// Executes until the current function returns to its caller.
    ///
    /// # Errors
    ///
    /// Fails in the outermost frame, before `start`, or when the engine is
    /// unreachable.
    fn finish(&mut self) -> Result<PauseReason>;

    /// Pauses the inferior just before executing `line` (sliding to the
    /// next line holding code, like GDB).
    ///
    /// # Errors
    ///
    /// Fails when no executable line exists at or after `line`.
    fn break_before_line(&mut self, line: u32) -> Result<ControlPointId>;

    /// Pauses just after entering `function` (arguments are bound).
    /// `maxdepth` filters out hits deeper than the given 0-based call
    /// depth.
    ///
    /// # Errors
    ///
    /// Fails for unknown functions.
    fn break_before_func(
        &mut self,
        function: &str,
        maxdepth: Option<u32>,
    ) -> Result<ControlPointId>;

    /// Pauses at every entry of `function` *and* just before each of its
    /// returns (the returning frame is still inspectable).
    ///
    /// # Errors
    ///
    /// Fails for unknown functions.
    fn track_function(&mut self, function: &str, maxdepth: Option<u32>) -> Result<ControlPointId>;

    /// Pauses whenever the variable changes value. Names are `var`,
    /// `function::var`, or engine-specific identifiers (registers,
    /// `*0xADDR:LEN` memory ranges for the assembly engine).
    ///
    /// # Errors
    ///
    /// Fails when the identifier cannot be watched.
    fn watch(&mut self, variable: &str) -> Result<ControlPointId>;

    /// Removes a control point.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids.
    fn remove(&mut self, id: ControlPointId) -> Result<()>;

    /// Stops the inferior and releases its resources. Idempotent.
    fn terminate(&mut self);

    // ---- inspection (paper Listings 4 and 5) ------------------------------

    /// Why the inferior is currently paused.
    fn pause_reason(&self) -> PauseReason;

    /// The innermost frame with its full parent chain.
    ///
    /// # Errors
    ///
    /// Fails before `start` or after termination.
    fn get_current_frame(&mut self) -> Result<Frame>;

    /// The full serializable snapshot (frames + globals + reason).
    ///
    /// # Errors
    ///
    /// Fails before `start` or after termination.
    fn get_state(&mut self) -> Result<ProgramState>;

    /// The global variables.
    ///
    /// # Errors
    ///
    /// Fails when the engine is unreachable.
    fn get_global_variables(&mut self) -> Result<Vec<Variable>>;

    /// Looks one variable up by (possibly `function::`-qualified) name.
    ///
    /// # Errors
    ///
    /// Fails when the engine is unreachable (an unknown name is `None`).
    fn get_variable(&mut self, name: &str) -> Result<Option<Variable>>;

    /// The inferior's exit code; `None` while it is still running.
    fn get_exit_code(&mut self) -> Option<i64>;

    /// Output produced since the last call.
    ///
    /// # Errors
    ///
    /// Fails when the engine is unreachable.
    fn get_output(&mut self) -> Result<String>;

    /// The inferior's source: `(file_name, text)`.
    ///
    /// # Errors
    ///
    /// Fails when the engine is unreachable.
    fn get_source(&mut self) -> Result<(String, String)>;

    /// Lines valid as breakpoint targets.
    ///
    /// # Errors
    ///
    /// Fails when the engine is unreachable.
    fn breakable_lines(&mut self) -> Result<Vec<u32>>;

    /// The current source line of the innermost frame, when paused.
    fn current_line(&mut self) -> Option<u32> {
        self.get_current_frame().ok().map(|f| f.location().line())
    }

    /// Engine-specific low-level access (the paper's `get_registers_gdb` /
    /// `get_value_at_gdb`); `None` for trackers without one.
    fn low_level(&mut self) -> Option<&mut dyn LowLevel>;

    // ---- analysis ---------------------------------------------------------

    /// Runs the static memory-safety analysis over the loaded program and
    /// returns its findings. Purely compile-time: valid before `start`,
    /// and the inferior does not run.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Unsupported`] for trackers whose language has no
    /// analysis; fails when the engine is unreachable.
    fn diagnostics(&mut self) -> Result<Vec<Diagnostic>>;

    /// Switches the runtime memory sanitizer on or off. Must be called
    /// before `start`; sanitized runs pause with
    /// [`PauseReason::Sanitizer`] at every memory-safety trap.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Unsupported`] for trackers without a sanitizer;
    /// fails after `start` or when the engine is unreachable.
    fn set_sanitizer(&mut self, on: bool) -> Result<()>;

    /// Arms or disarms the in-engine profiler. `Counting` attributes
    /// every VM step exactly; `Sampling` attributes on a
    /// seeded-deterministic interval clock with mean `period` steps, so
    /// the same mode and period always produce the same profile. Must be
    /// called before `start`.
    ///
    /// # Errors
    ///
    /// Fails after `start` or when the engine is unreachable.
    fn set_profile(&mut self, mode: obs::ProfileMode, period: u64) -> Result<()>;

    /// Drains the collected profile: cumulative over the whole run so
    /// far, idempotent, and safe to call repeatedly while the inferior
    /// is paused.
    ///
    /// # Errors
    ///
    /// Fails when the engine is unreachable.
    fn profile(&mut self) -> Result<obs::ProfileReport>;

    // ---- time travel (paper §III-E, and §V's RR-style tracker) ------------

    /// Arms recording: every pause from `start` on is captured into an
    /// indexed trace store with a keyframe every `keyframe_every`
    /// pauses. Must precede `start`.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Engine`] after `start`, or where the engine cannot
    /// record (a replay is already a recording).
    fn record(&mut self, keyframe_every: u32) -> Result<()>;

    /// Jumps the inspection cursor to recorded pause `pause` in
    /// O(log n) through the store's keyframe index, and reports the
    /// recorded pause reason. Inspections then answer from the
    /// recording; the next control call continues from the live
    /// position (a replay's live position is the cursor). At or past the
    /// end of a recording that reached its exit, the seek lands on the
    /// recorded exit.
    ///
    /// # Errors
    ///
    /// [`TrackerError::NotStarted`] before `start`;
    /// [`TrackerError::Engine`] when nothing is recorded, or past the end
    /// of a recording still being made.
    fn seek(&mut self, pause: u64) -> Result<PauseReason>;

    /// All recorded writes to `variable` with pause index in
    /// `[from, to]` (defaults: the whole recording), answered from the
    /// store's write index without replaying. Bare names match the
    /// variable in any frame plus globals; `frame::name` qualifies.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Engine`] when nothing is recorded.
    fn query_history(
        &mut self,
        variable: &str,
        from: Option<u64>,
        to: Option<u64>,
    ) -> Result<Vec<trace::HistoryHit>>;

    /// The most recent recorded write to `variable` at or before pause
    /// `before` (default: the end of the recording), if any.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Engine`] when nothing is recorded.
    fn last_change(
        &mut self,
        variable: &str,
        before: Option<u64>,
    ) -> Result<Option<trace::HistoryHit>>;

    /// Recording statistics: `(pauses, keyframes, serialized_bytes)`.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Engine`] when nothing is recorded.
    fn trace_stats(&mut self) -> Result<(u64, u64, u64)>;

    /// Publishes the recording on the session host's trace shelf under
    /// `name`, where [`mi::HostHandle::open_replay`] sessions can scrub
    /// it.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Engine`] outside a session host (no shelf) or
    /// when nothing is recorded.
    fn publish_trace(&mut self, name: &str) -> Result<()>;

    // ---- observability ----------------------------------------------------

    /// Point-in-time view of this tracker's metrics: control-call latency
    /// histograms, inspection counters, MI byte gauges, and VM execution
    /// stats.
    fn stats(&self) -> obs::Snapshot;
}

/// Low-level, engine-specific inspection (registers and raw memory).
pub trait LowLevel {
    /// Machine registers as language-agnostic variables.
    ///
    /// # Errors
    ///
    /// Fails when the engine is unreachable.
    fn registers(&mut self) -> Result<Vec<Variable>>;

    /// Raw memory bytes.
    ///
    /// # Errors
    ///
    /// Fails for unmapped ranges.
    fn read_memory(&mut self, addr: u64, len: u64) -> Result<Vec<u8>>;
}

/// Creates the right tracker for a source file, like the paper's
/// `init_tracker` + `load_program` pair: `.c` and `.s` files get the
/// machine-interface tracker (MiniC / RISC-V engines), `.py` files get the
/// in-process thread-based tracker, `.json` recordings get the replay
/// tracker.
///
/// # Errors
///
/// Returns [`TrackerError::Load`] for unknown extensions or programs that
/// fail to compile.
///
/// # Examples
///
/// ```
/// let mut t = easytracker::init_tracker("q.c", "int main() { return 0; }")?;
/// t.start()?;
/// # Ok::<(), easytracker::TrackerError>(())
/// ```
pub fn init_tracker(file: &str, source: &str) -> Result<Box<dyn Tracker>> {
    init_tracker_with_registry(file, source, obs::Registry::new())
}

/// Like [`init_tracker`], but the tracker (and every layer beneath it —
/// MI client/server, VM engine) reports metrics and trace events into
/// `registry`. Passing the same registry to several trackers aggregates
/// them into one profile.
///
/// # Errors
///
/// Returns [`TrackerError::Load`] for unknown extensions or programs that
/// fail to compile.
pub fn init_tracker_with_registry(
    file: &str,
    source: &str,
    registry: obs::Registry,
) -> Result<Box<dyn Tracker>> {
    if file.ends_with(".c") || file.ends_with(".s") || file.ends_with(".asm") {
        Ok(Box::new(MiTracker::load_c_with_registry(
            file, source, registry,
        )?))
    } else if file.ends_with(".py") {
        Ok(Box::new(PyTracker::load_with_registry(
            file, source, registry,
        )?))
    } else if file.ends_with(".json") {
        let recording: Recording = serde_json::from_str(source)
            .map_err(|e| TrackerError::Load(format!("bad recording: {e}")))?;
        Ok(Box::new(ReplayTracker::with_registry(recording, registry)))
    } else {
        Err(TrackerError::Load(format!(
            "cannot infer language from file name `{file}` (.c, .s, .py, .json)"
        )))
    }
}
