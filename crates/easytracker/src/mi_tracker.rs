//! The machine-interface tracker: the GDB tracker analogue (paper Fig. 4).
//!
//! The inferior's engine (MiniC VM or RISC-V simulator) runs on its own
//! thread behind a serialized command/response transport — the same
//! decoupling the paper gets from running `gdb --interpreter=mi` as a
//! subprocess. All state crossing the boundary is serialized and
//! deserialized, so this tracker pays the real marshalling cost the
//! benchmarks measure.
//!
//! [`MiTracker`] is the crate's one adapter, [`EngineTracker`], over a
//! [`SupervisedPort`]: the adapter maps the paper's calls to commands as
//! for every other tracker, and everything below is the port's.
//!
//! # Supervision
//!
//! A real debugger backend can die or wedge at any moment; a tracker
//! that hangs or panics with it is useless for building tools. This
//! tracker's port therefore *supervises* its session:
//!
//! * every MI call goes through one loop, the port's `call`: each
//!   attempt runs under the per-command deadline, so no call blocks
//!   forever against a wedged boundary; idempotent commands that time
//!   out, and anything the host refuses for load (session opens
//!   included), are re-sent after a jittered backoff, within one retry
//!   budget; what still fails goes to recovery, below;
//! * sessions loaded from source keep a declarative **manifest**: the
//!   program spec plus a journal of every successful control command
//!   (with its observed [`PauseReason`]), every armed/disarmed control
//!   point and every acknowledged configuration, kept by the port from
//!   the commands it carries;
//! * when the engine is lost (child killed, thread wedged, pipe broken)
//!   the tracker respawns it from the spec, re-arms every control point,
//!   and deterministically fast-forwards the fresh engine through the
//!   journal, verifying that ids and pause reasons match the original
//!   run step by step;
//! * when re-establishment is impossible — the respawn budget runs out,
//!   or the replayed run diverges from the journal — the session
//!   *degrades*: it stays alive, keeps its last known state, and answers
//!   every further engine request with
//!   [`TrackerError::SessionDegraded`] instead of guessing.
//!
//! Recovery is observable: `mi.respawns`, `mi.retries`,
//! `mi.heartbeat_misses` counters and the `mi.supervisor.recovery`
//! latency histogram all land in the tracker's [`obs::Registry`].
//!
//! # Telemetry plane
//!
//! A process-deployed engine hosts its *own* registry; this tracker
//! bridges it:
//!
//! * every outgoing [`CommandFrame`](mi::protocol::CommandFrame) carries
//!   the tracker's current trace context, so engine-side spans nest
//!   under the tracker control span that caused them;
//! * [`MiTracker::drain_telemetry`] pulls the engine's counters, gauges,
//!   histograms, and trace events over `Command::Telemetry` (idempotent:
//!   cumulative stats plus an absolute event cursor), mirroring stats as
//!   `engine.*` gauges and accumulating events for
//!   [`MiTracker::write_merged_trace`];
//! * [`MiTracker::sync_clock`] estimates the engine↔tracker clock offset
//!   from `Ping` roundtrips so merged traces share one timeline;
//! * an always-on [`obs::FlightRecorder`] ring captures commands,
//!   responses, pauses, traps, retries, and respawns; on engine death or
//!   session degradation a structured [`obs::FlightDump`] post-mortem is
//!   written (to `EASYTRACKER_DUMP_DIR` or the system temp dir),
//!   including the engine's own last-gasp ring recovered from its
//!   captured stderr tail.

use crate::adapter::refusal;
use crate::{ControlPointId, EnginePort, EngineTracker, Result, TrackerError};
use mi::protocol::{Command, Response};
use mi::transport::SocketTransport;
use mi::{CommandPort, HostHandle, MiError};
use state::PauseReason;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A hook interposed between the supervisor and the raw engine port,
/// applied at the initial spawn *and at every respawn*. The conformance
/// suite uses this to inject chaos faults that survive recovery (the
/// closure captures shared state, so a schedule can fire once across the
/// whole supervised session).
pub type PortWrapper = Box<dyn FnMut(Box<dyn CommandPort>) -> Box<dyn CommandPort> + Send>;

/// Supervision knobs for an [`MiTracker`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Per-command roundtrip deadline (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Deadline for [`MiTracker::heartbeat`] probes.
    pub ping_deadline: Duration,
    /// Re-sends per command after a timeout or codec fault (idempotent
    /// commands only, see [`Command::is_idempotent`]) or an overload
    /// refusal (any command, and session opens).
    pub max_retries: u32,
    /// Total engine respawns allowed over the session's lifetime; when
    /// exhausted the session degrades instead of looping.
    pub max_respawns: u32,
    /// Backoff before the first retry/respawn; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter (fixed so test runs are reproducible).
    pub jitter_seed: u64,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            deadline: Some(Duration::from_secs(30)),
            ping_deadline: Duration::from_secs(1),
            max_retries: 2,
            max_respawns: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
            jitter_seed: 0x00e5_7a6e_5eed_0001,
        }
    }
}

impl Supervision {
    /// A configuration that changes nothing: no deadline, no retries, no
    /// respawns. What [`MiTracker::from_port`] uses, since an opaque port
    /// has no spec to respawn from.
    pub fn passthrough() -> Self {
        Supervision {
            deadline: None,
            max_retries: 0,
            max_respawns: 0,
            ..Supervision::default()
        }
    }
}

/// Jittered exponential backoff: `base * 2^attempt`, capped at `cap`,
/// then scaled by a factor in `[0.5, 1.0)` drawn from `rng` (an xorshift
/// state advanced in place). Jitter keeps a fleet of retrying clients
/// from hammering a recovering engine in lockstep.
fn jittered_backoff(base: Duration, cap: Duration, attempt: u32, rng: &mut u64) -> Duration {
    let exp = base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
    let full = exp.min(cap);
    // xorshift64
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    let frac = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    full.mul_f64(frac)
}

/// Whether the supervised session can still vouch for its answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionHealth {
    /// Everything the tracker reports reflects a live, journal-consistent
    /// engine (possibly a respawned one).
    Healthy,
    /// The engine was lost and could not be re-established; engine
    /// requests now fail with [`TrackerError::SessionDegraded`].
    Degraded {
        /// Why recovery gave up.
        reason: String,
    },
}

/// Where the engine runs.
#[derive(Debug, Clone)]
enum Deploy {
    /// Engine thread in this process, channel transport.
    InProcess,
    /// `mi-server` child process, its stdin and stdout one end of a
    /// socket pair.
    Process { server_bin: PathBuf },
    /// One session inside a shared multi-session host (`mi-server
    /// --host`): many trackers multiplex over one engine process.
    Host { host: HostHandle },
}

/// The declarative half of the session manifest: everything needed to
/// build an equivalent fresh engine. Cheap to clone; the journal (the
/// imperative half) lives on the port.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    file: String,
    source: String,
    deploy: Deploy,
    /// MiniC optimization level (0 = off). Part of the manifest so a
    /// respawned engine is rebuilt at the same level; the optimizer is
    /// observation-preserving, so journal replay still converges.
    opt: u8,
}

impl ProgramSpec {
    /// A program, engine on an in-process thread. The file name picks the
    /// engine in every deployment, as [`mi::build_engine`] does: RISC-V
    /// assembly for `.s` and `.asm`, MiniC for anything else.
    pub fn new(file: &str, source: &str) -> Self {
        ProgramSpec {
            file: file.to_owned(),
            source: source.to_owned(),
            deploy: Deploy::InProcess,
            opt: 0,
        }
    }

    /// Runs the MiniC program through the observation-preserving
    /// bytecode optimizer at `level` before execution (0 = off, the
    /// default). Every debugging observable — pause sequence, variable
    /// snapshots, output, sanitizer traps — is identical at every level;
    /// only step counts shrink. Ignored for assembly programs.
    pub fn opt_level(mut self, level: u8) -> Self {
        self.opt = level;
        self
    }

    /// Moves the engine into an `mi-server` child process at `server_bin`
    /// (the paper's `gdb --interpreter=mi` deployment shape).
    pub fn via_server(mut self, server_bin: &Path) -> Self {
        self.deploy = Deploy::Process {
            server_bin: server_bin.to_owned(),
        };
        self
    }

    /// Moves the engine into a session of the shared multi-session
    /// `host`: the tracker opens (and on recovery re-opens) one session
    /// inside the host child instead of owning a dedicated process. The
    /// handle is cheap to clone, so any number of specs can share one
    /// host.
    pub fn via_host(mut self, host: &HostHandle) -> Self {
        self.deploy = Deploy::Host { host: host.clone() };
        self
    }
}

/// One replayable step of the session journal.
#[derive(Debug, Clone)]
enum JournalEntry {
    /// A control command and the pause it produced.
    Control { cmd: Command, reason: PauseReason },
    /// A control point armed, and the id the engine assigned.
    Arm { cmd: Command, id: ControlPointId },
    /// A control point removed.
    Disarm { id: ControlPointId },
    /// A configuration command acknowledged with `Ok` (sanitizer mode).
    /// Replayed in order so a respawned engine runs in the same mode —
    /// sanitized runs pause at traps, and a fresh engine that skipped
    /// the sanitizer would diverge at the first one.
    Config { cmd: Command },
}

/// How the engine behind the port is owned (for teardown and liveness
/// classification).
enum EngineKind {
    /// In-process engine thread (what `mi::spawn` builds).
    Thread {
        handle: Option<std::thread::JoinHandle<()>>,
    },
    /// `mi-server` child process.
    Child {
        child: std::process::Child,
        /// Rolling tail of the child's stderr, drained by a thread.
        stderr: Arc<Mutex<String>>,
        /// Temp dir holding the shipped source; removed on teardown.
        scratch: Option<PathBuf>,
    },
    /// One session inside a shared host child. Teardown closes the
    /// session (never the host — other trackers may be using it);
    /// liveness classification consults the host process.
    HostSession { host: HostHandle, session: u64 },
    /// An opaque port from [`MiTracker::from_port`]; nothing to tear
    /// down or respawn.
    External,
}

/// A live connection: the engine's port plus engine ownership.
struct Backend {
    port: Box<dyn CommandPort>,
    engine: EngineKind,
}

/// Replay verdicts recovery has to tell apart: a lost engine is worth
/// another respawn, a diverging one is not (deterministic engines would
/// diverge again).
enum ReplayOutcome {
    Diverged(String),
    Lost,
}

/// The supervised port behind an [`MiTracker`]: the session's engine
/// connection with everything that keeps it honest (see the module docs).
pub struct SupervisedPort {
    backend: Option<Backend>,
    spec: Option<ProgramSpec>,
    wrapper: Option<PortWrapper>,
    cfg: Supervision,
    journal: Vec<JournalEntry>,
    /// Output already handed to the user via `get_output`.
    drained: String,
    /// Output recovered during replay that the user has not drained yet.
    pending_output: String,
    health: SessionHealth,
    respawns_used: u32,
    rng: u64,
    /// The last control answer, for post-mortem dumps.
    last_pause: PauseReason,
    obs: obs::Registry,
    /// Always-on ring of the session's last moments (see module docs).
    flight: obs::FlightRecorder,
    /// Engine↔tracker clock offset estimator, fed by `Ping` roundtrips.
    clock: obs::ClockSync,
    /// Engine-side trace events accumulated across telemetry drains.
    engine_events: Vec<obs::TraceEvent>,
    /// Export-ring cursor for the next telemetry drain; reset to zero
    /// when a respawned engine starts a fresh event stream.
    telemetry_since: u64,
    /// Unit cursor of the last profile drain; reset to zero when a
    /// respawned engine restarts the profile.
    profile_since: u64,
    /// Where post-mortem dumps go; `None` = `EASYTRACKER_DUMP_DIR` or
    /// the system temp dir.
    dump_dir: Option<PathBuf>,
    last_dump: Option<PathBuf>,
}

impl std::fmt::Debug for SupervisedPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedPort")
            .field("live", &self.backend.is_some())
            .field("health", &self.health)
            .field("journal_len", &self.journal.len())
            .field("respawns_used", &self.respawns_used)
            .finish()
    }
}

/// Tracker for MiniC and RISC-V inferiors behind the MI boundary: the
/// shared adapter over a [`SupervisedPort`].
pub type MiTracker = EngineTracker<SupervisedPort>;

impl MiTracker {
    /// Compiles MiniC source, or assembles RISC-V source for a `.s` or
    /// `.asm` file, and attaches an engine to it.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] for compile or assembly errors.
    pub fn load_c(file: &str, source: &str) -> Result<Self> {
        Self::load_c_with_registry(file, source, obs::Registry::new())
    }

    /// Like [`MiTracker::load_c`], with every layer (tracker control
    /// calls, MI client/server, VM engine) reporting into `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] for compile or assembly errors.
    pub fn load_c_with_registry(file: &str, source: &str, registry: obs::Registry) -> Result<Self> {
        Self::load_spec(
            ProgramSpec::new(file, source),
            registry,
            Supervision::default(),
            None,
        )
    }

    /// The fully general supervised constructor: builds (and on failure
    /// rebuilds) the engine from `spec`, supervised per `cfg`, with
    /// `wrapper` interposed between supervisor and engine port at every
    /// (re)spawn.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] when the program does not
    /// compile/assemble or the server process cannot be spawned;
    /// [`TrackerError::Overloaded`] when a host still refuses to open the
    /// session after `max_retries` backoffs.
    pub fn load_spec(
        spec: ProgramSpec,
        registry: obs::Registry,
        cfg: Supervision,
        wrapper: Option<PortWrapper>,
    ) -> Result<Self> {
        let mut port = SupervisedPort::new(Some(spec), wrapper, cfg, registry.clone());
        port.backend = Some(port.connect()?);
        Ok(EngineTracker::over(port, registry))
    }

    /// Attaches the tracker to an already-connected [`CommandPort`] —
    /// any client over any transport. The conformance suite uses this to
    /// interpose a fault-injection proxy between tracker and engine.
    ///
    /// Opaque ports carry no program spec, so there is nothing to
    /// respawn from: supervision is passthrough (no deadline, no retry)
    /// and every transport fault surfaces directly, exactly as an
    /// unsupervised session would report it.
    pub fn from_port(port: Box<dyn CommandPort>) -> Self {
        Self::from_port_with_registry(port, obs::Registry::new())
    }

    /// Like [`MiTracker::from_port`], reporting into `registry`.
    pub fn from_port_with_registry(port: Box<dyn CommandPort>, registry: obs::Registry) -> Self {
        let mut supervised =
            SupervisedPort::new(None, None, Supervision::passthrough(), registry.clone());
        supervised.backend = Some(Backend {
            port,
            engine: EngineKind::External,
        });
        EngineTracker::over(supervised, registry)
    }

    /// Spawns `mi-server` (at `server_bin`) as a real child process for a
    /// MiniC or RISC-V program (picked by `file`'s name) and connects over its stdio — the paper's
    /// `gdb --interpreter=mi` deployment shape.
    ///
    /// The source is shipped via a temporary file; `file` is passed as
    /// the logical name so reported source locations match an in-process
    /// run byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] if the scratch file cannot be
    /// written or the server process cannot be spawned.
    pub fn load_c_process(server_bin: &Path, file: &str, source: &str) -> Result<Self> {
        Self::load_spec(
            ProgramSpec::new(file, source).via_server(server_bin),
            obs::Registry::new(),
            Supervision::default(),
            None,
        )
    }

    /// Opens a MiniC or RISC-V session (picked by `file`'s name) inside a
    /// shared multi-session host: the tracker shares one `mi-server
    /// --host` child with every other tracker holding a clone of `host`,
    /// instead of owning a dedicated process. All supervision semantics
    /// carry over — a dead session is re-opened inside the host and
    /// replayed from the journal; a dead host child is respawned and the
    /// session re-established in it.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] if the program does not compile or
    /// the host cannot be (re)spawned; [`TrackerError::Overloaded`] when
    /// the host stays at its session cap through every retry.
    pub fn load_c_hosted(host: &HostHandle, file: &str, source: &str) -> Result<Self> {
        Self::load_spec(
            ProgramSpec::new(file, source).via_host(host),
            obs::Registry::new(),
            Supervision::default(),
            None,
        )
    }

    /// Whether the session can still vouch for its answers.
    pub fn health(&self) -> &SessionHealth {
        &self.port.health
    }

    /// Engine respawns performed so far.
    pub fn respawns(&self) -> u32 {
        self.port.respawns_used
    }

    /// OS pid of the `mi-server` child, for process-deployed sessions.
    /// Fault-injection tests use this to kill the engine out from under
    /// the tracker.
    pub fn engine_pid(&self) -> Option<u32> {
        match &self.port.backend {
            Some(Backend {
                engine: EngineKind::Child { child, .. },
                ..
            }) => Some(child.id()),
            Some(Backend {
                engine: EngineKind::HostSession { host, .. },
                ..
            }) => host.host_pid(),
            _ => None,
        }
    }

    /// The host-assigned session id, for trackers deployed into a shared
    /// multi-session host. Chaos tests use this to kill one session out
    /// from under its tracker without touching the host's other tenants.
    pub fn host_session_id(&self) -> Option<u64> {
        match &self.port.backend {
            Some(Backend {
                engine: EngineKind::HostSession { session, .. },
                ..
            }) => Some(*session),
            _ => None,
        }
    }

    /// One bounded liveness probe of the MI boundary (`Ping`/`Pong`,
    /// answered by the serve loop without touching the engine). A miss
    /// bumps the `mi.heartbeat_misses` counter.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Protocol`] describing the miss; also fails on
    /// degraded or terminated sessions.
    pub fn heartbeat(&mut self) -> Result<()> {
        self.port.heartbeat()
    }

    /// Sets hard per-session resource budgets (`None` leaves a resource
    /// unlimited): VM steps and live heap bytes are enforced in-engine,
    /// wall-clock by the serve core (between fuel slices, for dedicated
    /// and hosted engines alike), command-queue depth by the session host
    /// only (a dedicated engine has no queue). Exceeding
    /// any of them surfaces as [`TrackerError::ResourceExhausted`] and
    /// ends the session. Journaled as configuration, so recovery
    /// re-applies the budgets before replaying execution.
    ///
    /// # Errors
    ///
    /// [`TrackerError::Protocol`] on an unexpected acknowledgement;
    /// engine/session errors as usual.
    pub fn set_limits(
        &mut self,
        max_steps: Option<u64>,
        max_heap_bytes: Option<u64>,
        max_wall_ms: Option<u64>,
        max_queue_depth: Option<u64>,
    ) -> Result<()> {
        self.configure(Command::SetLimits {
            max_steps,
            max_heap_bytes,
            max_wall_ms,
            max_queue_depth,
        })
    }

    /// Bytes shipped across the MI boundary so far (bench metric).
    pub fn bytes_transferred(&self) -> u64 {
        self.port
            .backend
            .as_ref()
            .map(|b| b.port.counters().bytes_total())
            .unwrap_or(0)
    }

    /// This session's flight recorder: commands, replies, retries,
    /// heartbeat misses and respawns all land in this one ring.
    pub fn flight_recorder(&self) -> &obs::FlightRecorder {
        &self.port.flight
    }

    /// Overrides where post-mortem flight dumps are written. Default:
    /// `EASYTRACKER_DUMP_DIR`, falling back to the system temp dir.
    pub fn set_dump_dir(&mut self, dir: impl Into<PathBuf>) {
        self.port.dump_dir = Some(dir.into());
    }

    /// The most recent post-mortem dump written by this session.
    pub fn last_flight_dump(&self) -> Option<&Path> {
        self.port.last_dump.as_deref()
    }

    /// Writes a post-mortem flight dump now (chaos/conformance harnesses
    /// call this when a *check* fails even though the session itself is
    /// healthy). Returns the dump path, or `None` if writing failed.
    pub fn dump_flight(&mut self, reason: &str) -> Option<PathBuf> {
        let stderr = self.port.engine_stderr_tail();
        self.port.dump_flight_with(reason, stderr)
    }

    /// Estimates the engine↔tracker clock offset from `rounds` Ping
    /// roundtrips (the tightest roundtrip wins; see [`obs::ClockSync`]).
    /// Returns the estimate, also available via
    /// [`MiTracker::clock_offset_us`].
    ///
    /// # Errors
    ///
    /// Fails as any engine call does (degraded session, lost engine).
    pub fn sync_clock(&mut self, rounds: u32) -> Result<Option<i64>> {
        for _ in 0..rounds.max(1) {
            let send = self.obs.now_us();
            match self.port.call(Command::Ping)? {
                Response::Pong { now_us } => {
                    let recv = self.obs.now_us();
                    self.port.clock.sample(send, recv, now_us);
                }
                other => return Err(refusal(other)),
            }
        }
        Ok(self.port.clock.offset_us())
    }

    /// `engine_clock − tracker_clock` in microseconds, once
    /// [`MiTracker::sync_clock`] or a telemetry drain has sampled it.
    pub fn clock_offset_us(&self) -> Option<i64> {
        self.port.clock.offset_us()
    }

    /// Drains engine-side telemetry over `Command::Telemetry`: mirrors
    /// the engine's cumulative counters and gauges into this tracker's
    /// registry as `engine.*` gauges (set semantics — re-delivery after
    /// a supervised retry or respawn cannot double-count) and appends
    /// new engine trace events for [`MiTracker::write_merged_trace`].
    /// Also feeds the clock-offset estimator. Returns the raw frame.
    ///
    /// In-process sessions share the tracker's registry, so their frames
    /// echo it back; the drain stays well-defined but is only
    /// interesting for process-deployed engines.
    ///
    /// # Errors
    ///
    /// Fails as any engine call does (degraded session, lost engine).
    pub fn drain_telemetry(&mut self) -> Result<obs::TelemetryFrame> {
        let send = self.obs.now_us();
        let since = self.port.telemetry_since;
        match self.port.call(Command::Telemetry { since })? {
            Response::Telemetry(frame) => {
                let recv = self.obs.now_us();
                let frame = *frame;
                let port = &mut self.port;
                port.clock.sample(send, recv, frame.now_us);
                port.telemetry_since = frame.next_event;
                if frame.lost_events > 0 {
                    self.obs.add("mi.telemetry.lost_events", frame.lost_events);
                }
                port.engine_events.extend(frame.events.iter().cloned());
                for (name, v) in frame.counters.iter().chain(frame.gauges.iter()) {
                    self.obs.set_gauge(&format!("engine.{name}"), *v);
                }
                Ok(frame)
            }
            other => Err(refusal(other)),
        }
    }

    /// Engine-side trace events drained so far (engine-clock timestamps;
    /// [`MiTracker::write_merged_trace`] re-stamps them).
    pub fn engine_trace_events(&self) -> &[obs::TraceEvent] {
        &self.port.engine_events
    }

    /// Writes one Chrome trace with two process lanes — `tracker_events`
    /// (from a [`obs::ChromeTraceSink`] attached to this tracker's
    /// registry) and the drained engine events shifted onto the tracker
    /// timeline by the estimated clock offset.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing `path`.
    pub fn write_merged_trace(
        &self,
        path: &Path,
        tracker_events: &[obs::TraceEvent],
    ) -> std::io::Result<()> {
        obs::save_merged_trace(
            path,
            tracker_events,
            &self.port.engine_events,
            self.port.clock.offset_us().unwrap_or(0),
        )
    }
}

impl SupervisedPort {
    /// A port with no engine attached yet.
    fn new(
        spec: Option<ProgramSpec>,
        wrapper: Option<PortWrapper>,
        cfg: Supervision,
        registry: obs::Registry,
    ) -> Self {
        SupervisedPort {
            backend: None,
            spec,
            wrapper,
            cfg,
            journal: Vec::new(),
            drained: String::new(),
            pending_output: String::new(),
            health: SessionHealth::Healthy,
            respawns_used: 0,
            rng: cfg.jitter_seed | 1,
            last_pause: PauseReason::NotStarted,
            obs: registry,
            flight: obs::FlightRecorder::new(256),
            clock: obs::ClockSync::new(),
            engine_events: Vec::new(),
            telemetry_since: 0,
            profile_since: 0,
            dump_dir: None,
            last_dump: None,
        }
    }

    /// Builds a fresh backend from the spec. A host that refuses the open
    /// for load is asked again after a backoff, up to `max_retries` times.
    fn connect(&mut self) -> Result<Backend> {
        let mut attempt = 0;
        loop {
            let spec = self.spec.as_ref().expect("connect requires a program spec");
            match Self::build_backend(spec, &self.obs, &self.cfg, self.wrapper.as_mut()) {
                Err(TrackerError::Overloaded(m)) if attempt < self.cfg.max_retries => {
                    self.retry(attempt, "backpressure", format!("open got {m}"));
                    attempt += 1;
                }
                built => return built,
            }
        }
    }

    fn build_backend(
        spec: &ProgramSpec,
        registry: &obs::Registry,
        cfg: &Supervision,
        wrapper: Option<&mut PortWrapper>,
    ) -> Result<Backend> {
        let (base, engine): (Box<dyn CommandPort>, EngineKind) = match &spec.deploy {
            Deploy::InProcess => {
                let engine = mi::build_engine(&spec.file, &spec.source, spec.opt, registry, None)
                    .map_err(TrackerError::Load)?;
                let (client, handle) = mi::spawn(engine, Some(registry.clone())).into_parts();
                (Box::new(client), EngineKind::Thread { handle })
            }
            Deploy::Process { server_bin } => Self::spawn_server(server_bin, spec, registry)?,
            Deploy::Host { host } => {
                // `open_session` respawns a dead host child once before
                // retrying, so a host crash heals here: every tracker
                // recovering through build_backend re-establishes its
                // own session inside the respawned process.
                let mut handle = host
                    .open_session_opt(&spec.file, &spec.source, spec.opt, cfg.deadline)
                    .map_err(|e| match e {
                        MiError::Overloaded { .. } => TrackerError::from(e),
                        e => TrackerError::Load(e.to_string()),
                    })?;
                handle.set_registry(registry.clone());
                let session = handle.session_id();
                (
                    Box::new(handle),
                    EngineKind::HostSession {
                        host: host.clone(),
                        session,
                    },
                )
            }
        };
        let port = match wrapper {
            Some(w) => w(base),
            None => base,
        };
        Ok(Backend { port, engine })
    }

    fn spawn_server(
        server_bin: &Path,
        spec: &ProgramSpec,
        registry: &obs::Registry,
    ) -> Result<(Box<dyn CommandPort>, EngineKind)> {
        use std::io::Write as _;
        use std::os::fd::OwnedFd;
        use std::os::unix::net::UnixStream;
        use std::process::{Command as Proc, Stdio};

        let load = |e: &dyn std::fmt::Display| TrackerError::Load(e.to_string());
        // The child's stdin and stdout are its end of a socket pair, so
        // the tracker reads replies on its own thread under a socket read
        // timeout (`SocketTransport`): no reader thread, no extra thread
        // switch per reply. Stderr stays a pipe with its tail thread.
        let (ours, theirs) = UnixStream::pair().map_err(|e| load(&e))?;
        let theirs_out = theirs.try_clone().map_err(|e| load(&e))?;
        let transport = SocketTransport::new(ours).map_err(|e| load(&e))?;
        // A private scratch dir per spawn: pid + a process-wide counter
        // keeps concurrent trackers (and concurrent test binaries) apart.
        static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SCRATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("easytracker-mi-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| load(&e))?;
        // The logical name, passed after the path, picks the engine.
        let path = dir.join("program");
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(spec.source.as_bytes()))
            .map_err(|e| load(&e))?;

        let mut proc = Proc::new(server_bin);
        proc.arg(&path).arg(&spec.file);
        if spec.opt > 0 {
            proc.arg("--opt").arg(spec.opt.to_string());
        }
        let spawned = proc
            .stdin(OwnedFd::from(theirs))
            .stdout(OwnedFd::from(theirs_out))
            .stderr(Stdio::piped())
            .spawn();
        // The command holds the child's end until dropped; a tracker
        // holding it would never read a dead child's EOF.
        drop(proc);
        let mut child = spawned.map_err(|e| {
            let _ = std::fs::remove_dir_all(&dir);
            load(&e)
        })?;
        let stderr = mi::tail_stderr(child.stderr.take().expect("piped stderr"));
        let port: Box<dyn CommandPort> =
            Box::new(mi::Client::with_registry(transport, registry.clone()));
        Ok((
            port,
            EngineKind::Child {
                child,
                stderr,
                scratch: Some(dir),
            },
        ))
    }

    /// See [`MiTracker::heartbeat`].
    fn heartbeat(&mut self) -> Result<()> {
        if let SessionHealth::Degraded { reason } = &self.health {
            return Err(TrackerError::SessionDegraded(reason.clone()));
        }
        let backend = self
            .backend
            .as_mut()
            .ok_or_else(|| TrackerError::Engine("tracker already terminated".into()))?;
        let deadline = Some(self.cfg.ping_deadline);
        let miss = match backend.port.call_deadline(Command::Ping, deadline) {
            Ok(Response::Pong { .. }) => return Ok(()),
            Ok(other) => MiError::Codec(format!("heartbeat expected Pong, got {other:?}")),
            Err(e) => e,
        };
        self.obs.inc("mi.heartbeat_misses");
        self.flight
            .record("heartbeat-miss", "ping deadline expired");
        Err(miss.into())
    }

    /// One exchange with the live engine, under the per-command deadline.
    /// An overload refusal is re-sent for any command (it rejects before
    /// execution); a timeout or codec fault only for an idempotent one
    /// (a sequence-numbered envelope discards the late answer to the lost
    /// attempt). Both back off first, up to `max_retries` times. A
    /// disconnect is never re-sent: the engine needs a respawn.
    fn exchange(&mut self, command: &Command) -> std::result::Result<Response, MiError> {
        let mut attempt = 0;
        loop {
            let backend = self
                .backend
                .as_mut()
                .expect("exchange needs a live backend");
            let res = backend
                .port
                .call_deadline(command.clone(), self.cfg.deadline);
            let (kind, detail) = match &res {
                Ok(resp @ (Response::Overloaded { .. } | Response::QueueFull { .. })) => (
                    "backpressure",
                    format!("{} got {}", command.kind(), resp.summary()),
                ),
                Err(e @ (MiError::Timeout | MiError::Codec(_))) if command.is_idempotent() => {
                    ("retry", format!("{} after {e:?}", command.kind()))
                }
                _ => return res,
            };
            if attempt >= self.cfg.max_retries {
                return res;
            }
            self.retry(attempt, kind, detail);
            attempt += 1;
        }
    }

    /// Counts retry number `attempt` (`mi.retries`, a `kind` flight
    /// entry) and backs off before it.
    fn retry(&mut self, attempt: u32, kind: &str, detail: String) {
        self.obs.inc("mi.retries");
        self.flight.record(kind, detail);
        self.backoff(attempt);
    }

    /// Sleeps before retry or respawn number `attempt`: the tracker's one
    /// client-side backoff, drawing its jitter from the session's RNG.
    fn backoff(&mut self, attempt: u32) {
        let sleep = jittered_backoff(
            self.cfg.backoff_base,
            self.cfg.backoff_cap,
            attempt,
            &mut self.rng,
        );
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }

    /// Re-establishes a live, journal-consistent engine after `trigger`,
    /// or degrades the session.
    fn recover(&mut self, trigger: &MiError) -> Result<()> {
        // The dead engine's stderr tail (with its last-gasp flight ring,
        // if any) must be captured before teardown discards the child.
        let dead_stderr = match trigger {
            MiError::EngineDied { stderr, .. } => Some(stderr.clone()),
            _ => self.engine_stderr_tail(),
        };
        // A timeout may be a wedged boundary or merely a slow engine:
        // probe once so the miss is visible in metrics before teardown.
        if matches!(trigger, MiError::Timeout) {
            let _ = self.heartbeat();
        }
        let started_at = Instant::now();
        loop {
            if self.respawns_used >= self.cfg.max_respawns {
                return Err(self.degrade(
                    format!(
                        "engine lost ({trigger}) and respawn budget ({}) exhausted",
                        self.cfg.max_respawns
                    ),
                    dead_stderr.clone(),
                ));
            }
            let attempt = self.respawns_used;
            self.respawns_used += 1;
            self.obs.inc("mi.respawns");
            self.flight.record(
                "respawn",
                format!("attempt {} after {trigger}", attempt + 1),
            );
            self.teardown_backend();
            self.backoff(attempt);
            match self.connect() {
                Ok(b) => self.backend = Some(b),
                // The program compiled when the session was loaded, so a
                // rebuild failure here is spawn-level, or a host still
                // refusing the open, and possibly transient: spend
                // another attempt on it.
                Err(_) => continue,
            }
            match self.replay_journal() {
                Ok(()) => {
                    // The fresh engine starts a fresh export ring and
                    // fresh cumulative stats; rewinding the drain cursor
                    // keeps `Command::Telemetry` journal-safe (mirrored
                    // stats use set semantics, so nothing double-counts).
                    self.telemetry_since = 0;
                    // Same for the profile: the replayed engine rebuilt
                    // it from unit zero.
                    self.profile_since = 0;
                    self.obs
                        .record_duration("mi.supervisor.recovery", started_at.elapsed());
                    // The session survived, but an engine still died:
                    // leave a post-mortem of the death behind.
                    self.dump_flight_with(&format!("recovered: {trigger}"), dead_stderr.clone());
                    return Ok(());
                }
                Err(ReplayOutcome::Diverged(msg)) => {
                    // Deterministic engines would diverge identically on
                    // the next attempt; respawning again cannot help.
                    return Err(self.degrade(
                        format!("re-established engine diverged from the session journal: {msg}"),
                        dead_stderr.clone(),
                    ));
                }
                Err(ReplayOutcome::Lost) => continue,
            }
        }
    }

    /// Fast-forwards a freshly spawned engine through the journal,
    /// verifying every assigned id and pause reason, then reconciles the
    /// output stream against what the user has already drained.
    fn replay_journal(&mut self) -> std::result::Result<(), ReplayOutcome> {
        // Replay sends through `exchange`, which borrows the whole
        // tracker: lend the journal out meanwhile.
        let journal = std::mem::take(&mut self.journal);
        let replayed = journal.iter().try_for_each(|e| self.replay_entry(e));
        self.journal = journal;
        replayed?;
        // The fresh engine re-produced all output since program start;
        // what the user already saw must be a prefix of it. The rest is
        // held pending for the next `get_output`.
        match self.exchange(&Command::GetOutput) {
            Ok(Response::Output(full)) => match full.strip_prefix(self.drained.as_str()) {
                Some(rest) => {
                    self.pending_output = rest.to_owned();
                    Ok(())
                }
                None => Err(ReplayOutcome::Diverged(
                    "replayed output does not extend the output already delivered".into(),
                )),
            },
            Ok(other) => Err(ReplayOutcome::Diverged(format!(
                "output reconciliation got {other:?}"
            ))),
            Err(_) => Err(ReplayOutcome::Lost),
        }
    }

    /// Re-sends one journal entry and checks the answer matches the
    /// original run's.
    fn replay_entry(&mut self, entry: &JournalEntry) -> std::result::Result<(), ReplayOutcome> {
        match entry {
            JournalEntry::Control { cmd, reason } => match self.exchange(cmd) {
                Ok(Response::Paused(r)) if r == *reason => Ok(()),
                Ok(other) => Err(ReplayOutcome::Diverged(format!(
                    "replaying `{}` expected pause `{reason}`, got {other:?}",
                    cmd.kind()
                ))),
                Err(_) => Err(ReplayOutcome::Lost),
            },
            JournalEntry::Arm { cmd, id } => match self.exchange(cmd) {
                Ok(Response::Created { id: got }) if got == *id => Ok(()),
                Ok(other) => Err(ReplayOutcome::Diverged(format!(
                    "re-arming `{}` expected control point {id}, got {other:?}",
                    cmd.kind()
                ))),
                Err(_) => Err(ReplayOutcome::Lost),
            },
            JournalEntry::Disarm { id } => match self.exchange(&Command::Delete { id: *id }) {
                Ok(Response::Ok) => Ok(()),
                Ok(other) => Err(ReplayOutcome::Diverged(format!(
                    "re-deleting control point {id} got {other:?}"
                ))),
                Err(_) => Err(ReplayOutcome::Lost),
            },
            JournalEntry::Config { cmd } => match self.exchange(cmd) {
                Ok(Response::Ok) => Ok(()),
                Ok(other) => Err(ReplayOutcome::Diverged(format!(
                    "replaying `{}` expected Ok, got {other:?}",
                    cmd.kind()
                ))),
                Err(_) => Err(ReplayOutcome::Lost),
            },
        }
    }

    /// Marks the session unusable and releases the engine, leaving a
    /// post-mortem flight dump behind. `engine_stderr` is the stderr
    /// tail of the engine whose loss started the failure (the current
    /// backend, if any, is a later respawn).
    fn degrade(&mut self, reason: String, engine_stderr: Option<String>) -> TrackerError {
        let engine_stderr = engine_stderr.or_else(|| self.engine_stderr_tail());
        self.teardown_backend();
        self.health = SessionHealth::Degraded {
            reason: reason.clone(),
        };
        self.flight.record("degrade", reason.as_str());
        self.dump_flight_with(&format!("SessionDegraded: {reason}"), engine_stderr);
        TrackerError::SessionDegraded(reason)
    }

    /// The current child engine's captured stderr tail, if any.
    fn engine_stderr_tail(&self) -> Option<String> {
        match &self.backend {
            Some(Backend {
                engine: EngineKind::Child { stderr, .. },
                ..
            }) => Some(stderr.lock().unwrap().clone()),
            Some(Backend {
                engine: EngineKind::HostSession { host, .. },
                ..
            }) => host.engine_died().map(|(_, stderr)| stderr),
            _ => None,
        }
    }

    /// Non-graceful teardown: no Terminate handshake, just release.
    fn teardown_backend(&mut self) {
        let Some(Backend { port, engine }) = self.backend.take() else {
            return;
        };
        // Dropping the port disconnects the transport: an in-process
        // serve loop exits on it, a child reads EOF on stdin.
        drop(port);
        match engine {
            EngineKind::Thread { handle } => {
                // The serve loop exits promptly on disconnect; detaching
                // instead of joining keeps teardown bounded even when the
                // thread is wedged mid-fault.
                drop(handle);
            }
            EngineKind::Child {
                mut child, scratch, ..
            } => {
                let _ = child.kill();
                let _ = child.wait();
                if let Some(dir) = scratch {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            // Close only this tracker's session; the host process (and
            // every other tenant in it) stays up.
            EngineKind::HostSession { host, session } => host.close_session(session),
            EngineKind::External => {}
        }
    }

    fn dump_flight_with(&mut self, reason: &str, engine_stderr: Option<String>) -> Option<PathBuf> {
        let stderr = engine_stderr.unwrap_or_default();
        let log = self.flight.log();
        let dump = obs::FlightDump {
            side: "tracker".into(),
            reason: reason.into(),
            last_command: log
                .last_of("cmd")
                .map(|e| e.detail.clone())
                .unwrap_or_default(),
            last_pause: self.last_pause.to_string(),
            respawns: u64::from(self.respawns_used),
            log,
            engine_log: obs::extract_last_gasp(&stderr),
            engine_stderr: stderr,
        };
        let dir = self
            .dump_dir
            .clone()
            .unwrap_or_else(obs::FlightDump::default_dir);
        match dump.write_to_dir(&dir) {
            Ok(path) => {
                self.obs.inc("mi.flight_dumps");
                self.last_dump = Some(path.clone());
                Some(path)
            }
            Err(_) => None,
        }
    }

    /// Books a command's answer before it goes back to the adapter:
    /// journals what a respawned engine must re-run, records pauses and
    /// traps in the flight ring, hands recovered output out first, and
    /// keeps the profile cursor.
    fn settle(&mut self, command: Command, resp: Response) -> Response {
        let entry = match (&command, &resp) {
            (
                Command::Start | Command::Resume | Command::Step | Command::Next | Command::Finish,
                Response::Paused(reason),
            ) => {
                if let PauseReason::Sanitizer { diagnostic } = reason {
                    self.flight.record("trap", format!("{diagnostic:?}"));
                }
                self.flight.record("pause", reason.to_string());
                self.last_pause = reason.clone();
                let reason = reason.clone();
                JournalEntry::Control {
                    cmd: command,
                    reason,
                }
            }
            (
                Command::SetBreakLine { .. }
                | Command::SetBreakFunc { .. }
                | Command::TrackFunction { .. }
                | Command::Watch { .. },
                Response::Created { id },
            ) => JournalEntry::Arm {
                id: *id,
                cmd: command,
            },
            (Command::Delete { id }, Response::Ok) => JournalEntry::Disarm { id: *id },
            (
                Command::SetSanitizer { .. }
                | Command::SetProfile { .. }
                | Command::SetLimits { .. }
                | Command::Record { .. },
                Response::Ok,
            ) => {
                if let Command::SetProfile { .. } = command {
                    self.profile_since = 0;
                }
                JournalEntry::Config { cmd: command }
            }
            (Command::GetOutput, Response::Output(fresh)) => {
                // Output recovered during a respawn is delivered first;
                // `drained` tracks the full stream the user has seen so
                // reconciliation after the *next* crash has a baseline.
                let mut out = std::mem::take(&mut self.pending_output);
                out.push_str(fresh);
                self.drained.push_str(&out);
                return Response::Output(out);
            }
            (Command::ProfileReport { since }, Response::Profile(report)) => {
                if report.units < *since {
                    // A report behind our cursor means the engine
                    // restarted its profile without us noticing a
                    // recovery; count it, it should not happen.
                    self.obs.inc("mi.profile.rewinds");
                }
                self.profile_since = report.next;
                return resp;
            }
            _ => return resp,
        };
        if self.spec.is_some() {
            self.journal.push(entry);
        }
        resp
    }

    /// Ends the session: a bounded farewell, sent exactly once and never
    /// retried (a wedged engine must not block terminate, or drop, for
    /// more than its one deadline), then teardown. Idempotent.
    fn farewell(&mut self) {
        let Some(Backend { mut port, engine }) = self.backend.take() else {
            return;
        };
        let farewell = port.call_deadline(Command::Terminate, Some(Duration::from_secs(2)));
        drop(port);
        match engine {
            EngineKind::Thread { handle } => {
                // Disconnect (from the port drop) ends the serve loop
                // even when Terminate itself was swallowed by a fault.
                if let Some(h) = handle {
                    let _ = h.join();
                }
            }
            EngineKind::Child {
                mut child, scratch, ..
            } => {
                // Closing our end of the socket (dropping the port) is
                // EOF for the child's serve loop; give a child that
                // answered the farewell a bounded grace period before
                // resorting to a kill. One that did not is wedged and
                // will not exit on its own: kill it at once.
                let polls = if farewell.is_ok() { 100 } else { 0 };
                let mut exited = false;
                for _ in 0..polls {
                    match child.try_wait() {
                        Ok(Some(_)) => {
                            exited = true;
                            break;
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                        Err(_) => break,
                    }
                }
                if !exited {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                if let Some(dir) = scratch {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            // The bounded Terminate above already ended the session
            // server-side; closing releases the client route and (best
            // effort) the host's slot. The host itself keeps serving.
            EngineKind::HostSession { host, session } => host.close_session(session),
            EngineKind::External => {}
        }
    }
}

/// The supervisor as the adapter's port: C and asm engines, with
/// registers, memory, analysis and the sanitizer.
impl EnginePort for SupervisedPort {
    const LOW_LEVEL: bool = true;

    /// The tracker's one supervising loop: `exchange` applies the
    /// deadline and the retries; a lost engine is then respawned, the
    /// journal replayed and the command re-issued, within the respawn
    /// budget. `Terminate` is the one farewell instead, and a
    /// `ProfileReport` asks from the port's own cursor.
    fn call(&mut self, command: Command) -> Result<Response> {
        let command = match command {
            Command::Terminate => {
                self.farewell();
                return Ok(Response::Ok);
            }
            Command::ProfileReport { .. } => Command::ProfileReport {
                since: self.profile_since,
            },
            command => command,
        };
        if let SessionHealth::Degraded { reason } = &self.health {
            return Err(TrackerError::SessionDegraded(reason.clone()));
        }
        self.flight.record("cmd", command.kind());
        loop {
            if self.backend.is_none() {
                return Err(TrackerError::Engine("tracker already terminated".into()));
            }
            match self.exchange(&command) {
                Ok(Response::ResourceExhausted { which, used, limit }) => {
                    // A hard budget tripped. Execution is deterministic,
                    // so recovery-by-replay would burn the same budget
                    // again: degrade loudly instead, with the budget
                    // state in the flight dump for the post-mortem.
                    self.obs.inc("mi.budget_exhausted");
                    self.flight
                        .record("budget", format!("{which} used {used} of {limit}"));
                    let _ = self.degrade(
                        format!("resource budget exhausted: {which} {used}/{limit}"),
                        None,
                    );
                    return Err(TrackerError::ResourceExhausted {
                        which: which.name().into(),
                        used,
                        limit,
                    });
                }
                Ok(resp @ (Response::Overloaded { .. } | Response::QueueFull { .. })) => {
                    // The exchange already retried with backoff; a
                    // rejection surviving that is worth reporting, but
                    // nothing executed — the session is still healthy
                    // and the caller may simply try again later.
                    self.flight.record("resp", resp.summary());
                    return Err(TrackerError::Overloaded(resp.summary()));
                }
                Ok(resp) => {
                    self.flight.record("resp", resp.summary());
                    return Ok(self.settle(command, resp));
                }
                Err(e) => {
                    let backend = self.backend.as_mut().expect("exchange keeps the backend");
                    let e = classify_failure(e, &mut backend.engine);
                    self.flight
                        .record("fault", format!("{} failed: {e}", command.kind()));
                    let recoverable = self.spec.is_some()
                        && matches!(
                            e,
                            MiError::Timeout | MiError::Disconnected | MiError::EngineDied { .. }
                        );
                    if !recoverable {
                        if let MiError::EngineDied { stderr, .. } = &e {
                            let tail = stderr.clone();
                            self.dump_flight_with(&e.to_string(), Some(tail));
                        }
                        return Err(e.into());
                    }
                    // Respawn, replay the journal, then re-issue the
                    // failed command against the re-established state.
                    // The loop is bounded: every pass through recover()
                    // consumes respawn budget, which never resets.
                    self.recover(&e)?;
                }
            }
        }
    }
}

/// Upgrades a bare transport failure to [`MiError::EngineDied`] when the
/// child process is confirmed gone, attaching its exit status and stderr
/// tail.
fn classify_failure(e: MiError, engine: &mut EngineKind) -> MiError {
    if !matches!(e, MiError::Disconnected | MiError::Timeout) {
        return e;
    }
    match engine {
        EngineKind::Child { child, stderr, .. } => match child.try_wait() {
            Ok(Some(status)) => MiError::EngineDied {
                exit: status.code(),
                stderr: stderr.lock().unwrap().clone(),
            },
            _ => e,
        },
        // Under a shared host the failure may be session-scoped (the
        // host is fine, only this session ended) or process-scoped; only
        // a confirmed-dead host child upgrades to EngineDied.
        EngineKind::HostSession { host, .. } => match host.engine_died() {
            Some((exit, stderr)) => MiError::EngineDied { exit, stderr },
            None => e,
        },
        _ => e,
    }
}

impl Drop for SupervisedPort {
    fn drop(&mut self) {
        self.farewell();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracker;
    use state::{Content, ExitStatus, Prim};
    use std::sync::atomic::{AtomicBool, Ordering};

    const C_PROG: &str = "int square(int x) {\nreturn x * x;\n}\nint main() {\nint s = 0;\nfor (int i = 1; i <= 3; i++) {\ns += square(i);\n}\nreturn s;\n}";

    #[test]
    fn full_session_over_the_boundary() {
        let mut t = MiTracker::load_c("p.c", C_PROG).unwrap();
        assert_eq!(t.pause_reason(), PauseReason::NotStarted);
        let r = t.start().unwrap();
        assert_eq!(r, PauseReason::Started);
        t.track_function("square", None).unwrap();
        let mut calls = 0;
        loop {
            match t.resume().unwrap() {
                PauseReason::FunctionCall { .. } => {
                    calls += 1;
                    let frame = t.get_current_frame().unwrap();
                    assert_eq!(frame.name(), "square");
                    let x = frame.variable("x").unwrap();
                    match x.value().content() {
                        Content::Primitive(Prim::Int(v)) => assert_eq!(*v, calls),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                PauseReason::FunctionReturn { .. } => {}
                PauseReason::Exited(ExitStatus::Exited(code)) => {
                    assert_eq!(code, 14);
                    break;
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(calls, 3);
        assert!(t.bytes_transferred() > 0, "traffic really crossed the pipe");
        t.terminate();
    }

    #[test]
    fn asm_tracker_speaks_the_same_api() {
        let src = "main:\n    li a0, 5\n    call triple\n    li a7, 93\n    ecall\ntriple:\n    li t0, 3\n    mul a0, a0, t0\n    ret";
        let mut t = MiTracker::load_c("p.s", src).unwrap();
        t.start().unwrap();
        t.track_function("triple", None).unwrap();
        let r = t.resume().unwrap();
        assert!(matches!(r, PauseReason::FunctionCall { .. }));
        let regs = t.low_level().unwrap().registers().unwrap();
        let a0 = regs.iter().find(|v| v.name() == "a0").unwrap();
        assert_eq!(state::render_value(a0.value()), "5");
        let r = t.resume().unwrap();
        assert!(matches!(r, PauseReason::FunctionReturn { .. }));
        let r = t.resume().unwrap();
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(15)));
    }

    #[test]
    fn load_errors_are_reported() {
        assert!(matches!(
            MiTracker::load_c("bad.c", "int main() { return x; }"),
            Err(TrackerError::Load(_))
        ));
        assert!(matches!(
            MiTracker::load_c("bad.s", "frobnicate a0"),
            Err(TrackerError::Load(_))
        ));
    }

    #[test]
    fn engine_errors_surface() {
        let mut t = MiTracker::load_c("p.c", C_PROG).unwrap();
        assert!(matches!(t.resume(), Err(TrackerError::NotStarted)));
        t.start().unwrap();
        assert!(matches!(
            t.break_before_func("nope", None),
            Err(TrackerError::Engine(_))
        ));
    }

    #[test]
    fn terminate_is_idempotent_and_drop_safe() {
        let mut t = MiTracker::load_c("p.c", C_PROG).unwrap();
        t.start().unwrap();
        t.terminate();
        t.terminate();
        assert!(matches!(t.resume(), Err(TrackerError::Engine(_))));
    }

    #[test]
    fn memory_reads_via_low_level() {
        let mut t = MiTracker::load_c("p.c", "int g = 7;\nint main() {\nreturn g;\n}").unwrap();
        t.start().unwrap();
        let g = t.get_variable("g").unwrap().unwrap();
        let addr = g.value().address().unwrap();
        let bytes = t.low_level().unwrap().read_memory(addr, 4).unwrap();
        assert_eq!(bytes, 7i32.to_le_bytes());
    }

    /// The outcome a [`Scripted`] port fakes for a command, or `None` to
    /// pass it through to the engine.
    type Script = Box<dyn FnMut(&Command) -> Option<std::result::Result<Response, MiError>> + Send>;

    /// The kinds of the commands sent through a [`Scripted`] port.
    type Sent = Arc<Mutex<Vec<&'static str>>>;

    /// A port that lets `script` answer a command before the engine
    /// sees it, and logs the kind of every command sent through it.
    struct Scripted {
        inner: Box<dyn CommandPort>,
        script: Arc<Mutex<Script>>,
        sent: Sent,
    }

    impl CommandPort for Scripted {
        fn call(&mut self, command: Command) -> std::result::Result<Response, MiError> {
            self.call_deadline(command, None)
        }

        fn call_deadline(
            &mut self,
            command: Command,
            deadline: Option<Duration>,
        ) -> std::result::Result<Response, MiError> {
            self.sent.lock().unwrap().push(command.kind());
            let faked = (self.script.lock().unwrap())(&command);
            faked.unwrap_or_else(|| self.inner.call_deadline(command, deadline))
        }

        fn counters(&self) -> mi::transport::TransportCounters {
            self.inner.counters()
        }
    }

    /// A wrapper putting a [`Scripted`] port in front of the engine at the
    /// first spawn and every respawn; the script and log are shared
    /// across them.
    fn scripted_wrapper(script: Script) -> (PortWrapper, Sent) {
        let script = Arc::new(Mutex::new(script));
        let sent = Sent::default();
        let log = Arc::clone(&sent);
        let wrapper: PortWrapper = Box::new(move |inner| {
            Box::new(Scripted {
                inner,
                script: Arc::clone(&script),
                sent: Arc::clone(&log),
            })
        });
        (wrapper, sent)
    }

    /// A wrapper that reports Disconnected exactly once, at the
    /// `fail_at`-th call of the whole session (shared across respawns);
    /// the flag tells whether that call happened.
    fn fail_once_wrapper(fail_at: usize) -> (PortWrapper, Arc<AtomicBool>) {
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        let mut calls = 0;
        let (wrapper, _) = scripted_wrapper(Box::new(move |_| {
            calls += 1;
            (calls == fail_at).then(|| {
                flag.store(true, Ordering::SeqCst);
                Err(MiError::Disconnected)
            })
        }));
        (wrapper, fired)
    }

    fn fast_supervision() -> Supervision {
        Supervision {
            deadline: Some(Duration::from_secs(5)),
            ping_deadline: Duration::from_millis(100),
            max_retries: 1,
            max_respawns: 2,
            backoff_base: Duration::from_micros(10),
            backoff_cap: Duration::from_micros(100),
            jitter_seed: 11,
        }
    }

    #[test]
    fn session_recovers_transparently_from_a_lost_engine() {
        let reg = obs::Registry::new();
        let (wrapper, fired) = fail_once_wrapper(6);
        let mut t = MiTracker::load_spec(
            ProgramSpec::new("p.c", C_PROG),
            reg.clone(),
            fast_supervision(),
            Some(wrapper),
        )
        .unwrap();
        t.start().unwrap();
        t.track_function("square", None).unwrap();
        let mut calls = 0;
        loop {
            match t.resume().unwrap() {
                PauseReason::FunctionCall { .. } => calls += 1,
                PauseReason::FunctionReturn { .. } => {}
                PauseReason::Exited(ExitStatus::Exited(code)) => {
                    assert_eq!(code, 14);
                    break;
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(calls, 3, "recovered run sees the same events");
        assert!(fired.load(Ordering::SeqCst), "the fault really fired");
        assert_eq!(*t.health(), SessionHealth::Healthy);
        assert_eq!(t.respawns(), 1);
        assert_eq!(reg.snapshot().counter("mi.respawns"), 1);
        assert!(
            reg.snapshot().histogram("mi.supervisor.recovery").is_some(),
            "recovery latency was recorded"
        );
    }

    /// A wrapper whose port fails every call: recovery can never replay,
    /// so the session must burn its respawn budget and degrade — without
    /// hanging or panicking.
    #[test]
    fn respawn_storm_is_capped_and_degrades() {
        struct Dead;
        impl CommandPort for Dead {
            fn call(&mut self, _: Command) -> std::result::Result<Response, MiError> {
                Err(MiError::Disconnected)
            }
            fn counters(&self) -> mi::transport::TransportCounters {
                mi::transport::TransportCounters::default()
            }
        }
        let reg = obs::Registry::new();
        let wrapper: PortWrapper = Box::new(|inner| {
            drop(inner);
            Box::new(Dead)
        });
        let cfg = fast_supervision();
        let mut t = MiTracker::load_spec(
            ProgramSpec::new("p.c", C_PROG),
            reg.clone(),
            cfg,
            Some(wrapper),
        )
        .unwrap();
        let err = t.start().unwrap_err();
        assert!(matches!(err, TrackerError::SessionDegraded(_)), "{err:?}");
        assert!(matches!(t.health(), SessionHealth::Degraded { .. }));
        assert_eq!(t.respawns(), cfg.max_respawns);
        assert_eq!(
            reg.snapshot().counter("mi.respawns"),
            u64::from(cfg.max_respawns)
        );
        // Degraded is sticky: further calls fail fast, no new respawns.
        assert!(matches!(t.resume(), Err(TrackerError::SessionDegraded(_))));
        assert_eq!(t.respawns(), cfg.max_respawns);
    }

    #[test]
    fn output_is_reconciled_across_a_respawn() {
        let prog = "int main() {\nputs(\"one\");\nputs(\"two\");\nputs(\"three\");\nreturn 0;\n}";
        // Reference: which call index does what, without faults.
        let (wrapper, _) = fail_once_wrapper(usize::MAX);
        let mut r = MiTracker::load_spec(
            ProgramSpec::new("p.c", prog),
            obs::Registry::new(),
            fast_supervision(),
            Some(wrapper),
        )
        .unwrap();
        r.start().unwrap();
        r.step().unwrap();
        r.step().unwrap();
        let first = r.get_output().unwrap();
        while r.get_exit_code().is_none() {
            if r.step().is_err() {
                break;
            }
        }
        let rest = r.get_output().unwrap();
        let full_reference = format!("{first}{rest}");

        // Faulty run: drain some output, lose the engine, drain the rest.
        let (wrapper, fired) = fail_once_wrapper(8);
        let mut t = MiTracker::load_spec(
            ProgramSpec::new("p.c", prog),
            obs::Registry::new(),
            fast_supervision(),
            Some(wrapper),
        )
        .unwrap();
        t.start().unwrap();
        t.step().unwrap();
        t.step().unwrap();
        let mut seen = t.get_output().unwrap();
        while t.get_exit_code().is_none() {
            if t.step().is_err() {
                break;
            }
        }
        seen.push_str(&t.get_output().unwrap());
        assert!(fired.load(Ordering::SeqCst), "the fault really fired");
        assert_eq!(*t.health(), SessionHealth::Healthy);
        assert_eq!(
            seen, full_reference,
            "no output lost or duplicated across the respawn"
        );
    }

    const UNSAFE_PROG: &str =
        "int main() {\nint* p = malloc(4);\n*p = 7;\nfree(p);\nint x = *p;\nreturn x;\n}";

    #[test]
    fn diagnostics_cross_the_boundary_without_running() {
        let mut t = MiTracker::load_c("p.c", UNSAFE_PROG).unwrap();
        let diags = t.diagnostics().unwrap();
        assert!(diags
            .iter()
            .any(|d| d.kind == state::DiagnosticKind::UseAfterFree && d.span == 5));
        assert_eq!(t.get_exit_code(), None, "analysis never ran the inferior");
        // The inferior is still startable afterwards.
        assert_eq!(t.start().unwrap(), PauseReason::Started);
    }

    #[test]
    fn sanitized_session_pauses_at_traps() {
        let mut t = MiTracker::load_c("p.c", UNSAFE_PROG).unwrap();
        t.set_sanitizer(true).unwrap();
        t.start().unwrap();
        match t.resume().unwrap() {
            PauseReason::Sanitizer { diagnostic } => {
                assert_eq!(diagnostic.kind, state::DiagnosticKind::UseAfterFree);
                assert_eq!(diagnostic.span, 5);
                // The paused frame is inspectable like any other pause.
                assert_eq!(t.get_current_frame().unwrap().name(), "main");
            }
            other => panic!("unexpected {other}"),
        }
        assert_eq!(
            t.resume().unwrap(),
            PauseReason::Exited(ExitStatus::Exited(7)),
            "traps are observations, not faults"
        );
    }

    #[test]
    fn sanitizer_must_precede_start() {
        let mut t = MiTracker::load_c("p.c", UNSAFE_PROG).unwrap();
        t.start().unwrap();
        assert!(matches!(
            t.set_sanitizer(true),
            Err(TrackerError::Engine(_))
        ));
    }

    #[test]
    fn sanitizer_mode_survives_an_engine_respawn() {
        // Call 3 is the first `resume`: the engine is lost mid-run, after
        // the sanitizer was armed and the inferior started.
        let (wrapper, fired) = fail_once_wrapper(3);
        let mut t = MiTracker::load_spec(
            ProgramSpec::new("p.c", UNSAFE_PROG),
            obs::Registry::new(),
            fast_supervision(),
            Some(wrapper),
        )
        .unwrap();
        t.set_sanitizer(true).unwrap();
        t.start().unwrap();
        let mut traps = Vec::new();
        loop {
            match t.resume().unwrap() {
                PauseReason::Sanitizer { diagnostic } => traps.push(diagnostic.kind),
                PauseReason::Exited(ExitStatus::Exited(code)) => {
                    assert_eq!(code, 7);
                    break;
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert!(fired.load(Ordering::SeqCst), "the fault really fired");
        assert_eq!(*t.health(), SessionHealth::Healthy);
        assert_eq!(t.respawns(), 1);
        assert_eq!(traps, vec![state::DiagnosticKind::UseAfterFree]);
    }

    #[test]
    fn recording_seek_and_history_through_the_boundary() {
        let mut t = MiTracker::load_c("p.c", C_PROG).unwrap();
        t.record(8).unwrap();
        t.start().unwrap();
        let mut lines = vec![t.current_line().unwrap()];
        while t.step().unwrap().is_alive() {
            lines.push(t.current_line().unwrap());
        }
        let (pauses, keyframes, bytes) = t.trace_stats().unwrap();
        assert_eq!(pauses, lines.len() as u64);
        assert_eq!(keyframes, pauses.div_ceil(8));
        assert!(bytes > 0);
        // Seek anywhere: inspections answer from the recording.
        for n in [0, pauses / 2, pauses - 1] {
            t.seek(n).unwrap();
            let frame = t.get_current_frame().unwrap();
            assert_eq!(frame.location().line(), lines[n as usize]);
        }
        // History: `s` accumulates 1, 5, 14; the last write is 14.
        let hits = t.query_history("main::s", None, None).unwrap();
        let values: Vec<&str> = hits.iter().map(|h| h.value.as_str()).collect();
        assert!(values.windows(2).all(|w| w[0] != w[1]), "{values:?}");
        assert_eq!(values.last(), Some(&"14"));
        assert_eq!(t.last_change("main::s", None).unwrap().unwrap().value, "14");
        // Control snaps back to the live (exited) inferior.
        assert_eq!(t.get_exit_code(), Some(14));
    }

    #[test]
    fn record_must_precede_start() {
        let mut t = MiTracker::load_c("p.c", C_PROG).unwrap();
        t.start().unwrap();
        assert!(matches!(t.record(8), Err(TrackerError::Engine(_))));
    }

    #[test]
    fn recording_survives_an_engine_respawn() {
        // Call 4 lands mid-run: the engine is lost after Record armed
        // and the inferior started. The journal replays Record first,
        // then the control history, so the rebuilt store covers the
        // same pauses.
        let (wrapper, fired) = fail_once_wrapper(4);
        let mut t = MiTracker::load_spec(
            ProgramSpec::new("p.c", C_PROG),
            obs::Registry::new(),
            fast_supervision(),
            Some(wrapper),
        )
        .unwrap();
        t.record(4).unwrap();
        t.start().unwrap();
        let mut steps = 1u64;
        while t.step().unwrap().is_alive() {
            steps += 1;
        }
        assert!(fired.load(Ordering::SeqCst), "the fault really fired");
        assert_eq!(t.respawns(), 1);
        let (pauses, _, _) = t.trace_stats().unwrap();
        assert_eq!(
            pauses, steps,
            "recording covers every pause, respawn included"
        );
        assert_eq!(t.last_change("main::s", None).unwrap().unwrap().value, "14");
    }

    #[test]
    fn heartbeat_probes_the_boundary() {
        let reg = obs::Registry::new();
        let mut t = MiTracker::load_c_with_registry("p.c", C_PROG, reg.clone()).unwrap();
        t.heartbeat().unwrap();
        assert_eq!(reg.snapshot().counter("mi.heartbeat_misses"), 0);
        t.terminate();
        assert!(t.heartbeat().is_err());
    }

    /// Loads [`C_PROG`] under `cfg` behind a [`Scripted`] port; returns
    /// the tracker, its registry and the log of commands sent.
    fn scripted(cfg: Supervision, script: Script) -> (MiTracker, obs::Registry, Sent) {
        let (wrapper, sent) = scripted_wrapper(script);
        let reg = obs::Registry::new();
        let t = MiTracker::load_spec(
            ProgramSpec::new("p.c", C_PROG),
            reg.clone(),
            cfg,
            Some(wrapper),
        )
        .unwrap();
        (t, reg, sent)
    }

    /// A script failing the first `times` commands of kind `kind` with
    /// `outcome`.
    fn fail_first(
        kind: &'static str,
        times: usize,
        outcome: std::result::Result<Response, MiError>,
    ) -> Script {
        let mut left = times;
        Box::new(move |cmd| {
            (cmd.kind() == kind && left > 0).then(|| {
                left -= 1;
                outcome.clone()
            })
        })
    }

    fn sent_count(sent: &Sent, kind: &str) -> usize {
        sent.lock().unwrap().iter().filter(|k| **k == kind).count()
    }

    fn flight_count(t: &MiTracker, kind: &str) -> usize {
        let log = t.flight_recorder().log();
        log.entries.iter().filter(|e| e.kind == kind).count()
    }

    fn retrying_supervision() -> Supervision {
        Supervision {
            max_retries: 2,
            ..fast_supervision()
        }
    }

    #[test]
    fn idempotent_timeouts_are_retried_and_counted() {
        let script = fail_first("GetState", 2, Err(MiError::Timeout));
        let (mut t, reg, sent) = scripted(retrying_supervision(), script);
        t.start().unwrap();
        assert_eq!(t.get_state().unwrap().frame.name(), "main");
        assert_eq!(sent_count(&sent, "GetState"), 3);
        assert_eq!(reg.snapshot().counter("mi.retries"), 2);
        assert_eq!(flight_count(&t, "retry"), 2);
        assert_eq!(t.respawns(), 0, "retries absorbed the timeouts");
    }

    #[test]
    fn non_idempotent_commands_never_retry_and_go_to_recovery() {
        let script = fail_first("Step", 1, Err(MiError::Timeout));
        let (mut t, reg, sent) = scripted(retrying_supervision(), script);
        t.start().unwrap();
        t.step().unwrap();
        assert_eq!(reg.snapshot().counter("mi.retries"), 0);
        assert_eq!(t.respawns(), 1);
        assert_eq!(
            sent_count(&sent, "Step"),
            2,
            "the timed-out Step, then the Step re-issued after recovery"
        );
        assert_eq!(*t.health(), SessionHealth::Healthy);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let cfg = Supervision {
            max_respawns: 0,
            ..retrying_supervision()
        };
        let script = fail_first("GetState", usize::MAX, Err(MiError::Timeout));
        let (mut t, reg, sent) = scripted(cfg, script);
        t.start().unwrap();
        let err = t.get_state().unwrap_err();
        assert!(matches!(err, TrackerError::SessionDegraded(_)), "{err:?}");
        // One attempt plus max_retries(2), then recovery, which has no
        // respawn budget.
        assert_eq!(sent_count(&sent, "GetState"), 3);
        assert_eq!(reg.snapshot().counter("mi.retries"), 2);
    }

    #[test]
    fn disconnects_are_not_retried() {
        let script = fail_first("GetState", 1, Err(MiError::Disconnected));
        let (mut t, reg, sent) = scripted(retrying_supervision(), script);
        t.start().unwrap();
        assert_eq!(t.get_state().unwrap().frame.name(), "main");
        assert_eq!(reg.snapshot().counter("mi.retries"), 0);
        assert_eq!(t.respawns(), 1, "a disconnect goes straight to recovery");
        assert_eq!(sent_count(&sent, "GetState"), 2);
    }

    #[test]
    fn overload_refusals_back_off_then_surface_typed() {
        let refusal = Ok(Response::QueueFull { depth: 4, limit: 4 });
        let script = fail_first("Step", usize::MAX, refusal);
        let (mut t, reg, sent) = scripted(retrying_supervision(), script);
        t.start().unwrap();
        let err = t.step().unwrap_err();
        assert!(matches!(err, TrackerError::Overloaded(_)), "{err:?}");
        assert_eq!(sent_count(&sent, "Step"), 3, "any command is re-sent");
        assert_eq!(reg.snapshot().counter("mi.retries"), 2);
        assert_eq!(flight_count(&t, "backpressure"), 2);
        assert_eq!(*t.health(), SessionHealth::Healthy, "nothing executed");
        assert_eq!(t.respawns(), 0);
    }

    #[test]
    fn heartbeat_miss_is_counted() {
        let script = fail_first("Ping", 1, Err(MiError::Timeout));
        let (mut t, reg, sent) = scripted(retrying_supervision(), script);
        assert!(t.heartbeat().is_err());
        t.heartbeat().unwrap();
        assert_eq!(reg.snapshot().counter("mi.heartbeat_misses"), 1);
        assert_eq!(sent_count(&sent, "Ping"), 2, "a heartbeat is never retried");
        assert_eq!(reg.snapshot().counter("mi.retries"), 0);
    }

    #[test]
    fn terminate_sends_one_farewell_to_a_wedged_engine() {
        let script: Script = Box::new(|_| Some(Err(MiError::Timeout)));
        let (mut t, reg, sent) = scripted(retrying_supervision(), script);
        t.terminate();
        assert_eq!(*sent.lock().unwrap(), ["Terminate"]);
        assert_eq!(reg.snapshot().counter("mi.retries"), 0);
    }

    #[test]
    fn hosted_load_refused_for_overload_is_typed() {
        let host = mi::SessionHost::with_config(
            mi::HostConfig {
                workers: 1,
                max_sessions: Some(0),
                ..mi::HostConfig::default()
            },
            obs::Registry::new(),
        );
        let handle = HostHandle::connect_in_process(&host);
        let reg = obs::Registry::new();
        let cfg = retrying_supervision();
        let err = MiTracker::load_spec(
            ProgramSpec::new("p.c", C_PROG).via_host(&handle),
            reg.clone(),
            cfg,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, TrackerError::Overloaded(_)), "{err:?}");
        assert_eq!(
            reg.snapshot().counter("mi.retries"),
            u64::from(cfg.max_retries)
        );
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.rejected_overloaded"),
            u64::from(cfg.max_retries) + 1
        );
        host.shutdown();
    }

    #[test]
    fn backoff_is_capped_and_jittered_deterministically() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(40);
        let mut rng1 = 42u64;
        let mut rng2 = 42u64;
        for attempt in 0..10 {
            let a = jittered_backoff(base, cap, attempt, &mut rng1);
            let b = jittered_backoff(base, cap, attempt, &mut rng2);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a <= cap);
            assert!(a >= base / 2);
        }
    }
}
