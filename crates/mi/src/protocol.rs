//! The MI command/response vocabulary.
//!
//! Everything here is serde-serializable; the transport sends JSON frames,
//! so the state really crosses a serialization boundary, like the paper's
//! pickled objects crossing the GDB pipe.

use serde::{Deserialize, Serialize};
use state::{Diagnostic, PauseReason, ProgramState, Variable};

/// A command from the tracker to the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Run until the first line of the entry function.
    Start,
    /// Run until the next pause condition (breakpoint, watchpoint,
    /// tracked-function boundary) or exit.
    Resume,
    /// Run until the next different source line (entering calls).
    Step,
    /// Like `Step` but never pauses deeper than the current frame.
    Next,
    /// Run until the current function is about to return to its caller.
    Finish,
    /// Create a line breakpoint.
    SetBreakLine {
        /// 1-based source line.
        line: u32,
    },
    /// Create a function-entry breakpoint (paused with arguments bound).
    SetBreakFunc {
        /// Function name (a label for assembly engines).
        function: String,
        /// Ignore hits whose call depth exceeds this.
        maxdepth: Option<u32>,
    },
    /// Pause at every entry and exit of the function.
    TrackFunction {
        /// Function name.
        function: String,
        /// Ignore events whose call depth exceeds this.
        maxdepth: Option<u32>,
    },
    /// Pause whenever the named variable changes value.
    ///
    /// Names are `var`, `function::var`, a register name (assembly), or
    /// `*0xADDR:SIZE` for a raw memory watch (assembly).
    Watch {
        /// Variable identifier.
        variable: String,
    },
    /// Remove a breakpoint/watchpoint by id.
    Delete {
        /// Identifier returned at creation.
        id: u64,
    },
    /// Fetch the innermost frame (with parent chain) and globals.
    GetState,
    /// Fetch only the global variables.
    GetGlobals,
    /// Fetch a single variable by (possibly qualified) name.
    GetVariable {
        /// `var` or `function::var`.
        name: String,
    },
    /// Fetch machine registers (engine-specific pseudo-registers for the C
    /// VM; the real register file for assembly).
    GetRegisters,
    /// Read raw memory.
    ReadMemory {
        /// Start address.
        addr: u64,
        /// Byte count.
        len: u64,
    },
    /// Fetch output produced since the previous `GetOutput`.
    GetOutput,
    /// Fetch the exit code (None while running).
    GetExitCode,
    /// Fetch the source file name and text.
    GetSource,
    /// Fetch the lines valid as breakpoint targets.
    GetBreakableLines,
    /// Run the static memory-safety analysis over the loaded program and
    /// return its diagnostics. Purely compile-time: the inferior does not
    /// run (and need not have started).
    Analyze,
    /// Run the bytecode verifier over the loaded program and return its
    /// findings (empty = the program is well-formed). Like `Analyze`,
    /// purely static: the inferior does not run. When the engine executes
    /// an optimized program, the *optimized* bytecode is verified — this
    /// is the on-demand face of the optimizer's translation validation.
    Verify,
    /// Switch the runtime memory sanitizer on or off. Must be issued
    /// before `Start`: shadow state is built as frames are pushed, so
    /// toggling mid-run would miss already-live frames.
    SetSanitizer {
        /// `true` enables sanitized execution (redzones, quarantine,
        /// shadow init bits); `false` restores plain execution.
        on: bool,
    },
    /// Drain engine-side telemetry: cumulative counters, gauges, and
    /// histograms from the engine's registry, plus trace events with
    /// absolute index `>= since`. Served by the boundary (like `Ping`),
    /// not the engine, and read-only: the cursor lives client-side, so
    /// re-issuing the same drain returns the same frame — safe for the
    /// supervision layer to retry.
    Telemetry {
        /// Absolute event-index cursor; events before it are skipped.
        since: u64,
    },
    /// Arm or disarm the in-engine profiler. Journaled as configuration,
    /// like `SetSanitizer`, so a respawned engine re-arms before replay;
    /// re-issuing the same mode and period converges (the profile simply
    /// restarts empty), so retries are safe.
    SetProfile {
        /// `Off` disarms; `Counting` attributes every step exactly;
        /// `Sampling` attributes on a deterministic interval clock.
        mode: obs::ProfileMode,
        /// Mean sampling interval in VM step units (ignored when not
        /// sampling; clamped to ≥ 1).
        period: u64,
    },
    /// Drain the collected profile. Cumulative with *set* semantics and
    /// journal-free, like `Telemetry`: the report always covers the whole
    /// run so far, the client keeps the cursor, and re-issuing the same
    /// drain returns the same report — safe to retry.
    ProfileReport {
        /// The client's last-seen unit cursor, echoed back so the client
        /// can detect a respawned (rewound) engine and reset.
        since: u64,
    },
    /// Liveness probe: the serve loop answers [`Response::Pong`] without
    /// involving the engine, so a healthy-but-busy boundary and a wedged
    /// one are distinguishable. Supervisors use it as a heartbeat; the
    /// echoed engine clock also feeds tracker↔engine clock alignment.
    Ping,
    /// Stop the inferior and shut the engine down. Under a session host
    /// this ends only the addressed session, never the host process.
    Terminate,
    /// Host-level: compile `source` and open a fresh session for it.
    ///
    /// Only a [`crate::host::SessionHost`] answers this (with
    /// [`Response::SessionOpened`]); the single-session serve loop
    /// rejects it. Sent with `session: None` in the envelope — it
    /// *creates* the id later frames will carry. The source text rides
    /// the command itself, so the host needs no shared filesystem with
    /// its clients.
    OpenSession {
        /// Logical file name; the extension selects the engine
        /// (`.c` → MiniC, `.s` → MiniAsm).
        file: String,
        /// Full program text.
        source: String,
        /// Optimization level for MiniC programs (0 = off, the default
        /// so older peers' frames decode unchanged; ignored by the
        /// assembly engine). The optimizer is observation-preserving, so
        /// sessions opened at different levels stay byte-identical
        /// through the debugging surface.
        #[serde(default)]
        opt: u8,
    },
    /// Host-level: tear down one session and free its table slot. The
    /// target id is a field, not the envelope `session`, so the reply
    /// routes to the control stream even when the session is already
    /// gone.
    CloseSession {
        /// Id returned by [`Response::SessionOpened`].
        session: u64,
    },
    /// Arm trace recording. Must precede `Start`: the store captures
    /// every pause from the first line on, so arming mid-run would leave
    /// a hole at the front of the recording. Journaled as configuration
    /// (like `SetSanitizer`), so a respawned engine re-arms and the
    /// journal replay rebuilds an equivalent recording. Re-arming before
    /// `Start` converges (the empty store is simply re-created), so
    /// retries are safe.
    Record {
        /// Keyframe cadence: one full snapshot per this many pauses
        /// (deltas in between). 0 is clamped to 1.
        keyframe_every: u32,
    },
    /// Jump the inspection cursor to a recorded pause — O(log n) through
    /// the store's keyframe index. While seeked, state inspections
    /// (`GetState`, `GetGlobals`, `GetVariable`) answer from the
    /// recording; any control command snaps back to the live position.
    /// Read-only and repeatable, so not journaled: a respawned engine
    /// comes back at its live position.
    Seek {
        /// Recorded pause index (0-based).
        pause: u64,
    },
    /// Query the recording's variable-write index: all writes to
    /// `variable` in `[from, to]`, or only the most recent one at or
    /// before `to` when `last_only`. Bare names match the variable in
    /// any frame plus globals; `frame::var` qualifies. Answered from the
    /// index by binary search — no replay.
    QueryHistory {
        /// Variable name, optionally frame-qualified.
        variable: String,
        /// First pause considered (default 0).
        from: Option<u64>,
        /// Last pause considered (default: end of recording).
        to: Option<u64>,
        /// Return only the latest hit.
        last_only: bool,
    },
    /// Fetch recording statistics: pauses captured, keyframes, and the
    /// store's serialized size. Read-only.
    TraceStats,
    /// Host-level, session-scoped: publish this session's recording
    /// under `name` on the host's trace shelf, where [`Command::OpenReplay`]
    /// can find it. Re-publishing the same recording converges.
    PublishTrace {
        /// Shelf key for the recording.
        name: String,
    },
    /// Host-level: open a *replay* session over a recording previously
    /// published with [`Command::PublishTrace`]. Like `OpenSession`, rides
    /// the control plane (`session: None`) and answers
    /// [`Response::SessionOpened`]; the new session serves the recorded
    /// execution (`Start`/`Step`/`Seek`/inspections/`QueryHistory`) from
    /// the shared store — record once, scrub many.
    OpenReplay {
        /// Shelf key the recording was published under.
        name: String,
    },
    /// Set (or clear) the session's hard resource budgets. Exceeding a
    /// budget surfaces as the typed [`Response::ResourceExhausted`] and
    /// ends the session — budgets are quota enforcement, not pause
    /// conditions. `None` clears that budget; the command converges
    /// (re-issuing the same limits is a no-op), so it retries safely and
    /// is journaled as configuration so a respawned session runs under
    /// the same quota.
    SetLimits {
        /// VM steps the inferior may execute, total.
        max_steps: Option<u64>,
        /// Live heap bytes the inferior may hold at once (MiniC).
        max_heap_bytes: Option<u64>,
        /// Accumulated engine execution wall time, in milliseconds,
        /// measured by the host across the session's run slices.
        max_wall_ms: Option<u64>,
        /// Commands the host will queue for the session at once.
        /// Exceeding it is the *retryable* [`Response::QueueFull`], not
        /// a terminal exhaustion.
        max_queue_depth: Option<u64>,
    },
}

/// Which governed resource a budget verdict is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceKind {
    /// VM steps executed ([`Command::SetLimits`] `max_steps`).
    Steps,
    /// Live heap bytes (`max_heap_bytes`).
    HeapBytes,
    /// Accumulated execution wall time in ms (`max_wall_ms`).
    WallMs,
    /// Per-session queued commands (`max_queue_depth`).
    QueueDepth,
}

impl ResourceKind {
    /// Stable short name, used in metrics and flight-recorder entries.
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Steps => "steps",
            ResourceKind::HeapBytes => "heap_bytes",
            ResourceKind::WallMs => "wall_ms",
            ResourceKind::QueueDepth => "queue_depth",
        }
    }
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `Command::kind`, `Command::roundtrip_span` and `Command::served_counter`
/// from one list of the command kinds, each with the pattern that matches
/// it.
macro_rules! command_kinds {
    ($($kind:ident $({ $($rest:tt)* })?),* $(,)?) => {
        impl Command {
            /// Stable short name of the command kind, used as the metric-name
            /// suffix in observability series (`mi.client.roundtrip.<kind>`,
            /// `mi.server.cmd.<kind>`).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Command::$kind $({ $($rest)* })? => stringify!($kind),)*
                }
            }

            /// `mi.client.roundtrip.<kind>`: the name of the client's span
            /// around this command's round trip.
            pub(crate) fn roundtrip_span(&self) -> &'static str {
                match self {
                    $(Command::$kind $({ $($rest)* })? => {
                        concat!("mi.client.roundtrip.", stringify!($kind))
                    })*
                }
            }

            /// `mi.server.cmd.<kind>`: the name of the serve core's counter
            /// of commands of this kind.
            pub(crate) fn served_counter(&self) -> &'static str {
                match self {
                    $(Command::$kind $({ $($rest)* })? => {
                        concat!("mi.server.cmd.", stringify!($kind))
                    })*
                }
            }
        }
    };
}

command_kinds!(
    Start,
    Resume,
    Step,
    Next,
    Finish,
    SetBreakLine { .. },
    SetBreakFunc { .. },
    TrackFunction { .. },
    Watch { .. },
    Delete { .. },
    GetState,
    GetGlobals,
    GetVariable { .. },
    GetRegisters,
    ReadMemory { .. },
    GetOutput,
    GetExitCode,
    GetSource,
    GetBreakableLines,
    Analyze,
    Verify,
    SetSanitizer { .. },
    Telemetry { .. },
    SetProfile { .. },
    ProfileReport { .. },
    Ping,
    Terminate,
    OpenSession { .. },
    CloseSession { .. },
    Record { .. },
    Seek { .. },
    QueryHistory { .. },
    TraceStats,
    PublishTrace { .. },
    OpenReplay { .. },
    SetLimits { .. },
);

impl Command {
    /// Whether re-issuing this command after a lost or timed-out response
    /// cannot change the inferior's state. The supervision layer only
    /// auto-retries idempotent commands; everything else surfaces the
    /// error (or triggers a full respawn) instead.
    ///
    /// `GetOutput` is deliberately *not* idempotent: it drains the output
    /// buffer, so a retry whose first attempt actually reached the engine
    /// would silently lose output. `Analyze` never touches the inferior,
    /// and `SetSanitizer` converges (setting the same mode twice is a
    /// no-op), so both retry safely. `Telemetry` is read-only — the
    /// drain cursor is carried *in* the command, not kept server-side —
    /// so the same request always returns the same frame. `SetProfile`
    /// converges like `SetSanitizer`, and `ProfileReport` is a
    /// cursor-in-command read like `Telemetry`. `OpenSession` is *not*
    /// idempotent — a retry whose first attempt landed would leak a
    /// session — and `CloseSession` is: closing an already-closed id is
    /// answered with a typed error the caller treats as done.
    /// `SetLimits` converges like `SetSanitizer`: setting the same
    /// budgets twice is a no-op. `Record` converges (re-arming before
    /// `Start` recreates the same empty store), `Seek` positions a
    /// read-only cursor (re-seeking the same pause lands in the same
    /// place), and `QueryHistory`/`TraceStats`/`PublishTrace` are pure
    /// reads of (or convergent writes keyed on) the finished recording —
    /// all retry safely. `OpenReplay` is *not* idempotent for the same
    /// reason as `OpenSession`: a retry whose first attempt landed would
    /// leak a replay session.
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Command::GetState
                | Command::GetGlobals
                | Command::GetVariable { .. }
                | Command::GetRegisters
                | Command::ReadMemory { .. }
                | Command::GetExitCode
                | Command::GetSource
                | Command::GetBreakableLines
                | Command::Analyze
                | Command::Verify
                | Command::SetSanitizer { .. }
                | Command::Telemetry { .. }
                | Command::SetProfile { .. }
                | Command::ProfileReport { .. }
                | Command::Ping
                | Command::Terminate
                | Command::CloseSession { .. }
                | Command::Record { .. }
                | Command::Seek { .. }
                | Command::QueryHistory { .. }
                | Command::TraceStats
                | Command::PublishTrace { .. }
                | Command::SetLimits { .. }
        )
    }
}

/// The sequence-numbered wire envelope for a [`Command`].
///
/// [`crate::Client`] wraps every command in one of these; the server
/// echoes the `seq` back in the matching [`ResponseFrame`]. Sequence
/// numbers are what make the boundary robust against frame-level faults:
/// after a duplicated frame or a response lost mid-command, the client
/// can tell stale responses from the one it is waiting for and discard
/// them instead of silently desynchronizing; the server refuses a seq it
/// already served. Bytes that do not decode as a `CommandFrame` have no
/// seq to echo, so they are answered with a bare [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommandFrame {
    /// Client-assigned sequence number, strictly increasing per session.
    pub seq: u64,
    /// The command itself.
    pub cmd: Command,
    /// Trace context of the tracker-side span this command was sent
    /// under, if any: the engine tags the spans it opens while handling
    /// the command as children of this one, so both processes merge
    /// into a single trace. Absent on the wire (`null`) for peers and
    /// sessions that do not trace — older frames without the field
    /// decode as `None`.
    pub trace: Option<obs::TraceContext>,
    /// Session this frame addresses when talking to a
    /// [`crate::host::SessionHost`]. `None` addresses a single-session
    /// server's one session (and the host's control plane:
    /// `OpenSession`/`CloseSession`/`Ping`/`Telemetry` ride with no
    /// session); older frames without the field decode as `None`.
    pub session: Option<u64>,
}

/// The sequence-numbered wire envelope for a [`Response`]; `seq` echoes
/// the triggering [`CommandFrame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// Sequence number of the command this responds to.
    pub seq: u64,
    /// The response itself.
    pub resp: Response,
    /// Echo of the commanding frame's `session`, so one connection can
    /// interleave many sessions' responses and the client can demux
    /// them without inspecting payloads. `None` from single-session
    /// servers and for host-level (control) replies.
    pub session: Option<u64>,
}

/// A response from the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Command accepted, nothing to report.
    Ok,
    /// The inferior paused (or exited) for this reason.
    Paused(PauseReason),
    /// A breakpoint/watchpoint was created.
    Created {
        /// Its identifier.
        id: u64,
    },
    /// Full state snapshot.
    State(Box<ProgramState>),
    /// Global variables.
    Globals(Vec<Variable>),
    /// A single variable (None when not found).
    Variable(Option<Variable>),
    /// Register values.
    Registers(Vec<Variable>),
    /// Raw memory bytes.
    Memory(Vec<u8>),
    /// Buffered output.
    Output(String),
    /// Exit code (None while running).
    ExitCode(Option<i64>),
    /// Source file name and text.
    Source {
        /// File name.
        file: String,
        /// Full text.
        text: String,
    },
    /// Lines that can hold a breakpoint.
    Lines(Vec<u32>),
    /// Static-analysis findings for [`Command::Analyze`].
    Diagnostics(Vec<Diagnostic>),
    /// Verifier findings for [`Command::Verify`], one rendered line per
    /// finding; empty means the loaded bytecode is well-formed.
    Verified {
        /// The findings, already formatted with function/op/line anchors.
        findings: Vec<String>,
    },
    /// One telemetry drain for [`Command::Telemetry`].
    Telemetry(Box<obs::TelemetryFrame>),
    /// One profile drain for [`Command::ProfileReport`].
    Profile(Box<obs::ProfileReport>),
    /// Answer to [`Command::OpenSession`]: the session is compiled,
    /// registered in the host's table, and ready for commands carrying
    /// this id in their envelope.
    SessionOpened {
        /// Host-assigned id, unique for the host's lifetime (never
        /// recycled, so a stale id is always a typed error rather than
        /// someone else's session).
        session: u64,
    },
    /// The addressed session no longer exists in the host (terminated,
    /// closed, or swept after its connection died). A typed liveness
    /// signal, distinct from [`Response::Error`]: the client maps it to
    /// engine loss so supervision re-opens the session and replays its
    /// journal, instead of surfacing a command failure.
    SessionGone {
        /// The id the rejected frame addressed.
        session: u64,
    },
    /// A hard per-session budget ([`Command::SetLimits`]) was exceeded.
    /// Terminal: the host sweeps the session after shipping this, so the
    /// client must not retry or replay — a deterministic replay would
    /// exhaust the same budget again. Distinct from [`Response::Error`]
    /// so supervisors can tell quota enforcement from command failure.
    ResourceExhausted {
        /// Which budget was exceeded.
        which: ResourceKind,
        /// Observed usage when the budget tripped.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The host refused admission: session table at `--max-sessions`
    /// capacity or run queue past its high-water mark. Nothing was
    /// executed, so retrying after backoff is safe for *any* command —
    /// the rejection happens before the command touches an engine.
    Overloaded {
        /// Current load on the refusing resource (open sessions or
        /// queued run slots).
        load: u64,
        /// The capacity it hit.
        limit: u64,
    },
    /// The session's own command queue is at its `max_queue_depth`.
    /// Like [`Response::Overloaded`], a pre-execution rejection:
    /// retryable with backoff, not terminal.
    QueueFull {
        /// Commands already queued for the session.
        depth: u64,
        /// The configured depth limit.
        limit: u64,
    },
    /// Answer to [`Command::QueryHistory`]: the matching writes, in
    /// pause order.
    History {
        /// Matching (pause, rendered value) pairs.
        hits: Vec<trace::HistoryHit>,
    },
    /// Answer to [`Command::TraceStats`]: the recording's shape so far.
    TraceStats {
        /// Pauses captured.
        pauses: u64,
        /// Full keyframe snapshots among them.
        keyframes: u64,
        /// Size of the store's serialized (on-disk) form.
        bytes: u64,
    },
    /// Answer to [`Command::Ping`]: the serve loop is alive and reading.
    Pong {
        /// The responder's monotonic clock (microseconds since its
        /// registry epoch; 0 when it has none). Together with the local
        /// send/receive times this estimates the cross-process clock
        /// offset used to merge traces.
        now_us: u64,
    },
    /// The command failed.
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// Short single-line form for flight-recorder entries: the variant
    /// name plus the few fields cheap enough to keep in a bounded ring.
    pub fn summary(&self) -> String {
        match self {
            Response::Ok => "Ok".into(),
            Response::Paused(reason) => format!("Paused({reason})"),
            Response::Created { id } => format!("Created({id})"),
            Response::State(_) => "State".into(),
            Response::Globals(v) => format!("Globals({})", v.len()),
            Response::Variable(v) => format!("Variable({})", v.is_some()),
            Response::Registers(v) => format!("Registers({})", v.len()),
            Response::Memory(b) => format!("Memory({}B)", b.len()),
            Response::Output(s) => format!("Output({}B)", s.len()),
            Response::ExitCode(c) => format!("ExitCode({c:?})"),
            Response::Source { file, .. } => format!("Source({file})"),
            Response::Lines(v) => format!("Lines({})", v.len()),
            Response::Diagnostics(v) => format!("Diagnostics({})", v.len()),
            Response::Verified { findings } => format!("Verified({})", findings.len()),
            Response::Telemetry(f) => format!("Telemetry({} events)", f.events.len()),
            Response::Profile(r) => format!("Profile({}, {} units)", r.mode.name(), r.units),
            Response::SessionOpened { session } => format!("SessionOpened({session})"),
            Response::SessionGone { session } => format!("SessionGone({session})"),
            Response::ResourceExhausted { which, used, limit } => {
                format!("ResourceExhausted({which} {used}/{limit})")
            }
            Response::Overloaded { load, limit } => format!("Overloaded({load}/{limit})"),
            Response::QueueFull { depth, limit } => format!("QueueFull({depth}/{limit})"),
            Response::History { hits } => format!("History({})", hits.len()),
            Response::TraceStats {
                pauses,
                keyframes,
                bytes,
            } => format!("TraceStats({pauses} pauses, {keyframes} kf, {bytes}B)"),
            Response::Pong { now_us } => format!("Pong({now_us})"),
            Response::Error { message } => format!("Error({message})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use state::{ExitStatus, SourceLocation};

    #[test]
    fn commands_roundtrip_through_json() {
        let cmds = vec![
            Command::Start,
            Command::SetBreakFunc {
                function: "sort".into(),
                maxdepth: Some(3),
            },
            Command::Watch {
                variable: "main::x".into(),
            },
            Command::ReadMemory {
                addr: 0x1000,
                len: 64,
            },
            Command::Terminate,
        ];
        for c in cmds {
            let json = serde_json::to_string(&c).unwrap();
            let back: Command = serde_json::from_str(&json).unwrap();
            assert_eq!(c, back);
        }
    }

    #[test]
    fn envelopes_roundtrip_and_stay_distinguishable_from_bare_frames() {
        let cf = CommandFrame {
            seq: 7,
            cmd: Command::Step,
            trace: None,
            session: None,
        };
        let json = serde_json::to_string(&cf).unwrap();
        let back: CommandFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(cf, back);
        // An envelope never decodes as a bare command, and vice versa, so
        // neither side can mistake one form for the other.
        assert!(serde_json::from_str::<Command>(&json).is_err());
        let bare = serde_json::to_string(&Command::Step).unwrap();
        assert!(serde_json::from_str::<CommandFrame>(&bare).is_err());

        let rf = ResponseFrame {
            seq: 7,
            resp: Response::Paused(PauseReason::Step),
            session: None,
        };
        let json = serde_json::to_string(&rf).unwrap();
        let back: ResponseFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(rf, back);
        assert!(serde_json::from_str::<Response>(&json).is_err());
    }

    #[test]
    fn trace_context_rides_the_envelope_and_stays_optional() {
        let cf = CommandFrame {
            seq: 3,
            cmd: Command::Resume,
            trace: Some(obs::TraceContext {
                trace_id: 0xAB,
                span_id: 0xCD,
            }),
            session: None,
        };
        let json = serde_json::to_string(&cf).unwrap();
        let back: CommandFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(cf, back);
        // Frames from peers predating the field decode with trace: None.
        let legacy = r#"{"seq":3,"cmd":"Resume"}"#;
        let back: CommandFrame = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.seq, 3);
        assert_eq!(back.trace, None);
    }

    #[test]
    fn session_rides_the_envelope_and_stays_optional() {
        let cf = CommandFrame {
            seq: 11,
            cmd: Command::Step,
            trace: None,
            session: Some(4),
        };
        let json = serde_json::to_string(&cf).unwrap();
        let back: CommandFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(cf, back);
        // Single-session peers predating the field still interoperate:
        // their frames decode with session: None on both directions.
        let legacy_cmd = r#"{"seq":11,"cmd":"Step"}"#;
        let back: CommandFrame = serde_json::from_str(legacy_cmd).unwrap();
        assert_eq!(back.session, None);
        let legacy_resp = r#"{"seq":11,"resp":"Ok"}"#;
        let back: ResponseFrame = serde_json::from_str(legacy_resp).unwrap();
        assert_eq!(back.session, None);
        assert_eq!(back.resp, Response::Ok);

        let rf = ResponseFrame {
            seq: 11,
            resp: Response::SessionOpened { session: 4 },
            session: Some(4),
        };
        let json = serde_json::to_string(&rf).unwrap();
        let back: ResponseFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(rf, back);
        assert_eq!(back.resp.summary(), "SessionOpened(4)");
    }

    #[test]
    fn session_commands_are_named_and_classified() {
        let open = Command::OpenSession {
            file: "t.c".into(),
            source: "int main() { return 0; }".into(),
            opt: 0,
        };
        assert_eq!(open.kind(), "OpenSession");
        assert!(!open.is_idempotent());
        let close = Command::CloseSession { session: 9 };
        assert_eq!(close.kind(), "CloseSession");
        assert!(close.is_idempotent());
        for cmd in [open, close] {
            let json = serde_json::to_string(&cmd).unwrap();
            let back: Command = serde_json::from_str(&json).unwrap();
            assert_eq!(cmd, back);
        }
    }

    #[test]
    fn telemetry_is_idempotent_and_named() {
        let cmd = Command::Telemetry { since: 40 };
        assert!(cmd.is_idempotent());
        assert_eq!(cmd.kind(), "Telemetry");
        let json = serde_json::to_string(&cmd).unwrap();
        let back: Command = serde_json::from_str(&json).unwrap();
        assert_eq!(cmd, back);
        let resp = Response::Telemetry(Box::default());
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
        assert_eq!(back.summary(), "Telemetry(0 events)");
    }

    #[test]
    fn profile_commands_are_idempotent_and_roundtrip() {
        let arm = Command::SetProfile {
            mode: obs::ProfileMode::Sampling,
            period: 64,
        };
        assert!(arm.is_idempotent());
        assert_eq!(arm.kind(), "SetProfile");
        let drain = Command::ProfileReport { since: 12 };
        assert!(drain.is_idempotent());
        assert_eq!(drain.kind(), "ProfileReport");
        for cmd in [arm, drain] {
            let json = serde_json::to_string(&cmd).unwrap();
            let back: Command = serde_json::from_str(&json).unwrap();
            assert_eq!(cmd, back);
        }
        let resp = Response::Profile(Box::default());
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
        assert_eq!(back.summary(), "Profile(off, 0 units)");
    }

    #[test]
    fn governance_commands_are_named_classified_and_roundtrip() {
        let limits = Command::SetLimits {
            max_steps: Some(10_000),
            max_heap_bytes: None,
            max_wall_ms: Some(250),
            max_queue_depth: Some(8),
        };
        assert_eq!(limits.kind(), "SetLimits");
        assert!(limits.is_idempotent(), "SetLimits converges, retry-safe");
        let json = serde_json::to_string(&limits).unwrap();
        let back: Command = serde_json::from_str(&json).unwrap();
        assert_eq!(limits, back);

        let rs = vec![
            Response::ResourceExhausted {
                which: ResourceKind::Steps,
                used: 10_001,
                limit: 10_000,
            },
            Response::Overloaded {
                load: 64,
                limit: 64,
            },
            Response::QueueFull { depth: 8, limit: 8 },
        ];
        for r in rs {
            let json = serde_json::to_string(&r).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(r, back);
        }
        assert_eq!(
            Response::ResourceExhausted {
                which: ResourceKind::WallMs,
                used: 300,
                limit: 250,
            }
            .summary(),
            "ResourceExhausted(wall_ms 300/250)"
        );
        assert_eq!(
            Response::Overloaded {
                load: 65,
                limit: 64
            }
            .summary(),
            "Overloaded(65/64)"
        );
        assert_eq!(
            Response::QueueFull { depth: 9, limit: 8 }.summary(),
            "QueueFull(9/8)"
        );
        for kind in [
            ResourceKind::Steps,
            ResourceKind::HeapBytes,
            ResourceKind::WallMs,
            ResourceKind::QueueDepth,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: ResourceKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
    }

    #[test]
    fn trace_commands_are_named_classified_and_roundtrip() {
        let record = Command::Record { keyframe_every: 32 };
        assert_eq!(record.kind(), "Record");
        assert!(record.is_idempotent(), "Record converges before Start");
        let seek = Command::Seek { pause: 1234 };
        assert_eq!(seek.kind(), "Seek");
        assert!(seek.is_idempotent(), "Seek is a read cursor");
        let query = Command::QueryHistory {
            variable: "main::x".into(),
            from: Some(10),
            to: None,
            last_only: false,
        };
        assert_eq!(query.kind(), "QueryHistory");
        assert!(query.is_idempotent());
        let stats = Command::TraceStats;
        assert_eq!(stats.kind(), "TraceStats");
        assert!(stats.is_idempotent());
        let publish = Command::PublishTrace {
            name: "run1".into(),
        };
        assert_eq!(publish.kind(), "PublishTrace");
        assert!(publish.is_idempotent(), "re-publishing converges");
        let replay = Command::OpenReplay {
            name: "run1".into(),
        };
        assert_eq!(replay.kind(), "OpenReplay");
        assert!(
            !replay.is_idempotent(),
            "a retried OpenReplay would leak a session, like OpenSession"
        );
        for cmd in [record, seek, query, stats, publish, replay] {
            let json = serde_json::to_string(&cmd).unwrap();
            let back: Command = serde_json::from_str(&json).unwrap();
            assert_eq!(cmd, back);
        }

        let hist = Response::History {
            hits: vec![trace::HistoryHit {
                pause: 41,
                value: "7".into(),
            }],
        };
        let json = serde_json::to_string(&hist).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(hist, back);
        assert_eq!(back.summary(), "History(1)");
        let stats = Response::TraceStats {
            pauses: 100_000,
            keyframes: 3125,
            bytes: 1 << 20,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
        assert_eq!(
            back.summary(),
            "TraceStats(100000 pauses, 3125 kf, 1048576B)"
        );
    }

    #[test]
    fn old_peers_decode_frames_without_limits() {
        // A frame from a peer predating SetLimits carries none of the
        // governance vocabulary and must keep decoding unchanged.
        let legacy_cmd = r#"{"seq":21,"cmd":"Step"}"#;
        let back: CommandFrame = serde_json::from_str(legacy_cmd).unwrap();
        assert_eq!(back.cmd, Command::Step);
        // And a SetLimits encoded by a new peer is explicit JSON an old
        // reader would reject typed (unknown variant), never misparse.
        let cmd = Command::SetLimits {
            max_steps: None,
            max_heap_bytes: Some(1 << 20),
            max_wall_ms: None,
            max_queue_depth: None,
        };
        let json = serde_json::to_string(&cmd).unwrap();
        assert!(json.contains("SetLimits"), "{json}");
    }

    #[test]
    fn responses_roundtrip_through_json() {
        let rs = vec![
            Response::Ok,
            Response::Paused(PauseReason::Breakpoint {
                id: 2,
                location: SourceLocation::new("a.c", 7),
            }),
            Response::Paused(PauseReason::Exited(ExitStatus::Exited(3))),
            Response::Created { id: 9 },
            Response::ExitCode(None),
            Response::Memory(vec![1, 2, 3]),
            Response::Error {
                message: "nope".into(),
            },
        ];
        for r in rs {
            let json = serde_json::to_string(&r).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(r, back);
        }
    }
}
