//! The multi-session MI host: one engine process, many supervised
//! sessions.
//!
//! The paper's deployment shape — one tracker, one `mi-server` child —
//! caps a machine at tens of concurrent users, because every session
//! pays a whole OS process. [`SessionHost`] multiplexes instead: a
//! session table keyed by the `session` id carried in the
//! sequence-numbered [`CommandFrame`] envelope, an acceptor that takes
//! any number of client connections, and a small worker pool (N OS
//! threads driving M sessions via a run queue). A session with no
//! pending commands is *parked* — a table entry holding its engine, not
//! a blocked thread — so thousands of idle sessions cost memory only.
//!
//! ```text
//!  conn A ──reader──┐                   ┌─ worker 0 ─┐
//!  conn B ──reader──┼─► session table ──┤  run queue │──► engines
//!  conn C ──reader──┘   (parked M)      └─ worker N ─┘
//! ```
//!
//! Per session the host keeps an engine, an [`obs::Registry`] and export
//! ring of its own (so `Telemetry{since}` and `ProfileReport{since}`
//! cursors never bleed across sessions), and the last sequence number it
//! served (so duplicated or stale frames are rejected with typed errors
//! instead of desynchronizing the stream). Sessions belong to the
//! connection that opened them; a frame addressing another connection's
//! session is refused.
//!
//! What serving one session means lives here once, in the session core
//! (`read_frame`, `refuse_stale`, `SessionState`): frame decoding,
//! the seq check, `Ping`/`Telemetry` at the boundary, command counters,
//! flight records, trace context, fuel slices and the wall budget. The
//! pool drives it one slice per turn; [`crate::Server::serve`] drives one
//! session inline on its connection thread, with no run queue in between.
//!
//! Failure routing is per-session, never host-fatal: a connection whose
//! transport dies takes down *its* sessions (each ended like a
//! [`crate::ServeEnd::PeerClosed`] single-session serve) while every
//! other connection keeps being served. The client side
//! ([`HostHandle`] / [`SessionHandle`]) preserves the PR 3 supervision
//! contract: a dead session is reopened *inside* the host by the
//! tracker's journal replay, and a dead host process is respawned whole,
//! after which each tracker re-establishes its own session.

use crate::control::error;
use crate::protocol::{Command, CommandFrame, ResourceKind, Response, ResponseFrame};
use crate::server::{encode, CommandPort, Engine, Envelope, Link, Reply, SliceOutcome};
use crate::transport::{
    timeout_error, FrameRx, FrameTx, StreamFrameRx, StreamFrameTx, TransportCounters,
};
use crate::MiError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A connection's send half, shared between the acceptor (typed errors)
/// and every worker serving one of its sessions.
type SharedTx = Arc<Mutex<Box<dyn FrameTx>>>;

/// Default fuel for one engine slice, in engine steps: MiniC VM ops or
/// retired RISC-V instructions. Sized as 50 000 VM events (the unit fuel
/// was counted in before) times the 4.4 ops a MiniC event took on the
/// benchmark's control programs (the geometric mean of 3.6 on the
/// recursion tree and 5.3 on the sparse-watch loop), so a slice does
/// about as much work as it did.
pub const DEFAULT_SLICE_STEPS: u64 = 220_000;

/// Resource-governance knobs for a [`SessionHost`].
///
/// The defaults keep preemption on: a hot-loop tenant costs one time
/// slice per turn instead of a worker thread forever. Admission limits
/// (`max_sessions`, `queue_high_water`) default to off because the
/// right capacity is a deployment decision; the per-session queue bound
/// defaults on because an unbounded queue is a memory bomb any client
/// can trigger.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Worker threads driving the run queue.
    pub workers: usize,
    /// Hard cap on concurrently open sessions; opens past it are
    /// rejected with the retryable [`Response::Overloaded`].
    pub max_sessions: Option<usize>,
    /// Fuel for one engine slice, in engine steps (MiniC VM ops, retired
    /// RISC-V instructions). `None` disables preemption — a control command then runs to its next pause
    /// uninterrupted and a hot loop pins a worker (the pre-governance
    /// behavior, kept for A/B measurements).
    pub slice_steps: Option<u64>,
    /// Run-queue high-water mark: session commands arriving while at
    /// least this many sessions are runnable get the retryable
    /// [`Response::Overloaded`] instead of queueing behind a collapse.
    pub queue_high_water: Option<usize>,
    /// Per-session command-queue bound applied when the session has not
    /// set its own `max_queue_depth` via [`Command::SetLimits`].
    pub default_queue_depth: u64,
    /// A session continuously on a worker for longer than this is
    /// flagged by the watchdog (`mi.host.watchdog_flags`). With slicing
    /// on, one slice should never take this long — a flag means a stuck
    /// engine (a bug), not a long program (which yields).
    pub watchdog_ms: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            workers: 4,
            max_sessions: None,
            slice_steps: Some(DEFAULT_SLICE_STEPS),
            queue_high_water: None,
            default_queue_depth: 1024,
            watchdog_ms: 1_000,
        }
    }
}

// ---------------------------------------------------------------------------
// The session core: what serving one session means, for both drivers
// ---------------------------------------------------------------------------

/// One admitted command of a session, queued or about to run.
pub(crate) struct Job {
    pub(crate) seq: u64,
    pub(crate) trace: Option<obs::TraceContext>,
    pub(crate) cmd: Command,
}

/// Everything needed to serve one session's commands, whichever driver
/// runs it: the pool here (one slice per turn, many sessions per worker)
/// or [`crate::Server::serve`] (one session, slices run inline on the
/// connection thread). The drivers only move frames and decide when a
/// slice runs; what a slice does is decided here.
pub(crate) struct SessionState {
    engine: Box<dyn Engine + Send>,
    /// `mi.server.cmd.*` counters and VM spans land here, and `Ping` and
    /// `Telemetry` are answered from it. Hosted sessions own a private
    /// one; an in-process engine shares its tracker's (or has none).
    registry: Option<obs::Registry>,
    /// Export ring backing `Telemetry` event drains, when the registry
    /// is the session's own. Independent rings are what keep
    /// `Telemetry{since}` cursors per-session: one shared ring would
    /// interleave every session's events under one index space.
    export: Option<Arc<obs::ExportSink>>,
    /// Served commands and response summaries, for post-mortems.
    pub(crate) flight: Option<obs::FlightRecorder>,
    /// A control command preempted mid-run: the engine holds the paused
    /// inferior, this holds the reply routing, and the next slice picks
    /// both up via [`Engine::resume_sliced`].
    in_flight: Option<InFlight>,
    /// The `SetLimits` wall budget, in engine milliseconds (steps and
    /// heap are the engine's to enforce).
    max_wall_ms: Option<u64>,
    /// Engine wall time this session has consumed across all slices.
    wall_spent: Duration,
}

/// Reply routing for a command that yielded between slices.
struct InFlight {
    seq: u64,
    trace: Option<obs::TraceContext>,
}

impl SessionState {
    /// A session over `engine`. `export` sizes an export ring attached to
    /// `registry`, for sessions whose registry the tracker cannot read.
    pub(crate) fn new(
        engine: Box<dyn Engine + Send>,
        registry: Option<obs::Registry>,
        export: Option<usize>,
    ) -> Self {
        let export = registry.as_ref().zip(export).map(|(reg, cap)| {
            let ring = Arc::new(obs::ExportSink::new(cap));
            reg.add_sink(ring.clone());
            ring
        });
        SessionState {
            engine,
            registry,
            export,
            flight: None,
            in_flight: None,
            max_wall_ms: None,
            wall_spent: Duration::ZERO,
        }
    }

    pub(crate) fn inc(&self, name: &str) {
        if let Some(reg) = &self.registry {
            reg.inc(name);
        }
    }

    /// Spends one slice on this session: the command a previous slice
    /// left unfinished, else `job`. Returns the reply routing and
    /// response once the command is done; `None` when it yielded (the
    /// driver runs another slice later) or there was nothing to run.
    pub(crate) fn slice(&mut self, job: Option<Job>, fuel: u64) -> Option<(u64, Response)> {
        let started = Instant::now();
        let done = self.run(job, fuel);
        self.wall_spent += started.elapsed();
        done
    }

    fn run(&mut self, job: Option<Job>, fuel: u64) -> Option<(u64, Response)> {
        if let Some(limit) = self
            .max_wall_ms
            .filter(|ms| self.wall_spent >= Duration::from_millis(*ms))
        {
            // The wall budget is spent: whatever comes next — resumed or
            // fresh — gets the typed verdict instead of more engine time.
            // Wall exhaustion is terminal like any other budget, so even
            // a `SetLimits` raising the cap is refused.
            let seq = self
                .in_flight
                .take()
                .map(|f| f.seq)
                .or(job.map(|j| j.seq))?;
            let used = self.wall_spent.as_millis() as u64;
            return Some((
                seq,
                Response::ResourceExhausted {
                    which: ResourceKind::WallMs,
                    used,
                    limit,
                },
            ));
        }
        let (routing, outcome) = match self.in_flight.take() {
            Some(f) => {
                // Transparent resume: the protocol stream never saw the
                // yield.
                obs::set_remote_context(f.trace);
                let out = self.engine.resume_sliced(fuel);
                obs::set_remote_context(None);
                (f, out)
            }
            None => {
                let Job { seq, trace, cmd } = job?;
                (InFlight { seq, trace }, self.start(trace, cmd, fuel))
            }
        };
        match outcome {
            SliceOutcome::Yielded => {
                self.in_flight = Some(routing);
                None
            }
            SliceOutcome::Done(resp) => {
                if let Some(flight) = &self.flight {
                    flight.record("resp", resp.summary());
                }
                Some((routing.seq, resp))
            }
        }
    }

    /// Starts a fresh command: `Ping` and `Telemetry` are answered at the
    /// boundary, everything else by the engine under the caller's trace
    /// context.
    fn start(&mut self, trace: Option<obs::TraceContext>, cmd: Command, fuel: u64) -> SliceOutcome {
        self.inc(&format!("mi.server.cmd.{}", cmd.kind()));
        if let Some(flight) = &self.flight {
            flight.record("cmd", cmd.kind());
        }
        if let Some(resp) = at_boundary(&cmd, self.registry.as_ref(), self.export.as_deref()) {
            return SliceOutcome::Done(resp);
        }
        if let Command::SetLimits { max_wall_ms, .. } = cmd {
            self.max_wall_ms = max_wall_ms;
        }
        // Spans the engine opens while handling this command join the
        // caller's trace.
        obs::set_remote_context(trace);
        let out = self.engine.handle_sliced(cmd, fuel);
        obs::set_remote_context(None);
        out
    }
}

/// Answers the commands the boundary serves itself, never an engine:
/// `Ping`, so the probe measures the boundary's liveness rather than the
/// engine's, and `Telemetry`, drained from `registry` and its export
/// ring. `None` for every other command.
fn at_boundary(
    cmd: &Command,
    registry: Option<&obs::Registry>,
    export: Option<&obs::ExportSink>,
) -> Option<Response> {
    match *cmd {
        Command::Ping => Some(Response::Pong {
            now_us: registry.map_or(0, obs::Registry::now_us),
        }),
        Command::Telemetry { since } => Some(Response::Telemetry(Box::new(match registry {
            Some(reg) => obs::telemetry::collect_frame(reg, export, since),
            // Echo the cursor back unchanged so a registry-less session
            // never rewinds the client's drain position.
            None => obs::TelemetryFrame {
                next_event: since,
                ..obs::TelemetryFrame::default()
            },
        }))),
        _ => None,
    }
}

/// Reads and decodes the next command frame: the one decode site of both
/// drivers. `Ok(Err(reply))` is a frame that arrived but is unreadable —
/// framing-level garbage or bytes that are no `CommandFrame` — answered
/// with this bare error (it has no seq to echo) while the connection
/// stays up. `Err` ends the connection.
pub(crate) fn read_frame(
    rx: &mut (impl FrameRx + ?Sized),
) -> Result<Result<CommandFrame, Response>, MiError> {
    let frame = match rx.recv() {
        Ok(frame) => frame,
        Err(MiError::Codec(m)) => {
            return Ok(Err(Response::Error {
                message: format!("unreadable frame: {m}"),
            }))
        }
        Err(e) => return Err(e),
    };
    Ok(
        serde_json::from_slice::<CommandFrame>(&frame).map_err(|e| Response::Error {
            message: format!("malformed command: {e}"),
        }),
    )
}

/// Refuses a seq at or below the last one served: a duplicated or
/// replayed frame. Refusing it (rather than serving it twice) is what
/// keeps one faulty frame from desynchronizing the rest of the stream:
/// the client discards this error as stale if its real command already
/// completed.
pub(crate) fn refuse_stale(last: Option<u64>, seq: u64, session: Option<u64>) -> Option<Response> {
    let last = last.filter(|last| seq <= *last)?;
    let whose = session.map_or(String::new(), |sid| format!(" for session {sid}"));
    Some(Response::Error {
        message: format!("stale or duplicate seq {seq}{whose} (last served {last})"),
    })
}

/// A session-table slot. `state` is `Some` while parked, `None` while a
/// worker is driving the session.
struct SessionSlot {
    conn: u64,
    tx: SharedTx,
    queue: VecDeque<Job>,
    running: bool,
    /// Close requested (explicitly or by connection death) while a
    /// worker held the state; the worker removes the slot when done and
    /// counts the end under this label.
    closed: Option<&'static str>,
    /// Highest sequence number accepted so far; lower or equal is a
    /// duplicate/stale frame and is refused with a typed error.
    last_seq: Option<u64>,
    state: Option<Box<SessionState>>,
    /// The `SetLimits` queue-depth budget, enforced by the reader.
    max_queue_depth: Option<u64>,
    /// When a worker started the session's current slice; `None` while
    /// parked or queued. The watchdog reads this.
    running_since: Option<Instant>,
    /// The watchdog already flagged the current slice (one flag per
    /// overdue slice, not one per scan).
    watchdog_flagged: bool,
}

enum Work {
    Run(u64),
    Stop,
}

/// The run queue feeding the worker pool: a plain FIFO of runnable
/// session ids, multi-producer (acceptor threads) and multi-consumer
/// (workers). Fairness comes from FIFO order plus the one-batch-per-
/// wakeup worker loop: a chatty session goes to the back of the line
/// after each batch.
struct RunQueue {
    q: Mutex<VecDeque<Work>>,
    cv: std::sync::Condvar,
}

impl RunQueue {
    fn new() -> Self {
        RunQueue {
            q: Mutex::new(VecDeque::new()),
            cv: std::sync::Condvar::new(),
        }
    }

    fn push(&self, w: Work) {
        self.q.lock().expect("run queue").push_back(w);
        self.cv.notify_one();
    }

    fn pop(&self) -> Work {
        let mut q = self.q.lock().expect("run queue");
        loop {
            if let Some(w) = q.pop_front() {
                return w;
            }
            q = self.cv.wait(q).expect("run queue");
        }
    }

    /// Runnable sessions currently waiting for a worker — the load
    /// signal behind the `queue_high_water` admission check and the
    /// `mi.host.run_queue_depth` gauge.
    fn len(&self) -> usize {
        self.q.lock().expect("run queue").len()
    }
}

struct HostShared {
    sessions: Mutex<HashMap<u64, SessionSlot>>,
    run_queue: RunQueue,
    next_session: AtomicU64,
    registry: obs::Registry,
    config: HostConfig,
    /// Recordings published with `PublishTrace`, shared read-only with
    /// every replay session `OpenReplay` spawns over them — one store,
    /// many concurrent scrubbing readers.
    shelf: crate::record::TraceShelf,
    /// Tells the watchdog thread to exit; workers stop via `Work::Stop`.
    shutdown: AtomicBool,
}

impl HostShared {
    fn queue_depth_gauge(&self) {
        self.registry
            .set_gauge("mi.host.run_queue_depth", self.run_queue.len() as u64);
    }
}

/// The session host: session table + acceptor + worker pool + watchdog.
pub struct SessionHost {
    shared: Arc<HostShared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    next_conn: AtomicU64,
}

/// Handle to one accepted connection; dropping it detaches the reader
/// thread (which exits on its own when the peer closes).
pub struct ConnHandle {
    /// Host-assigned connection id.
    pub id: u64,
    join: Option<JoinHandle<()>>,
}

impl ConnHandle {
    /// Blocks until the connection's reader thread exits (peer closed
    /// or transport failed). The `mi-server --host` binary joins its
    /// stdio connection here.
    pub fn join(mut self) {
        if let Some(h) = self.join.take() {
            let _ = h.join();
        }
    }
}

impl SessionHost {
    /// Creates a host with `workers` OS threads, default governance
    /// ([`HostConfig`]) and a private registry.
    pub fn new(workers: usize) -> Self {
        Self::with_registry(workers, obs::Registry::new())
    }

    /// Like [`SessionHost::new`], but host-level metrics (session opens
    /// and ends, rejected frames, malformed traffic) land in `registry`.
    pub fn with_registry(workers: usize, registry: obs::Registry) -> Self {
        Self::with_config(
            HostConfig {
                workers,
                ..HostConfig::default()
            },
            registry,
        )
    }

    /// Full control over the governance knobs: worker count, session
    /// cap, slice fuel, queue bounds and watchdog threshold.
    pub fn with_config(config: HostConfig, registry: obs::Registry) -> Self {
        let shared = Arc::new(HostShared {
            sessions: Mutex::new(HashMap::new()),
            run_queue: RunQueue::new(),
            next_session: AtomicU64::new(1),
            registry,
            config,
            shelf: crate::record::new_shelf(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mi-host-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn host worker")
            })
            .collect();
        let watchdog = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("mi-host-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn host watchdog")
        };
        SessionHost {
            shared,
            workers,
            watchdog: Some(watchdog),
            next_conn: AtomicU64::new(1),
        }
    }

    /// Host-level metrics registry.
    pub fn registry(&self) -> &obs::Registry {
        &self.shared.registry
    }

    /// Number of open sessions across all connections.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.lock().expect("session table").len()
    }

    /// Accepts one client connection: a reader thread pumps its frames
    /// into the session table until the transport dies or the peer
    /// closes, at which point the connection's sessions end
    /// individually and every other connection keeps being served.
    pub fn accept<R, T>(&self, mut rx: R, tx: T) -> ConnHandle
    where
        R: FrameRx + 'static,
        T: FrameTx + 'static,
    {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared.clone();
        let shared_tx: SharedTx = Arc::new(Mutex::new(Box::new(tx)));
        let join = std::thread::Builder::new()
            .name(format!("mi-host-conn-{id}"))
            .spawn(move || conn_reader(&shared, id, &mut rx, &shared_tx))
            .expect("spawn host connection reader");
        ConnHandle {
            id,
            join: Some(join),
        }
    }

    /// Stops the worker pool and joins it. Reader threads exit on their
    /// own when their peers close.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for _ in &self.workers {
            self.shared.run_queue.push(Work::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SessionHost {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Serializes and ships one reply on a connection. A failed send means
/// the connection is gone; the caller treats that like a peer close for
/// whatever session it was serving.
fn reply<T: serde::Serialize>(tx: &SharedTx, frame: &T) -> Result<(), MiError> {
    tx.lock().expect("connection writer").send(&encode(frame))
}

/// The typed liveness rejection: the addressed session no longer exists
/// (or is on its way out). Distinct from an error so the client can
/// treat it as engine loss — supervision then re-opens the session and
/// replays its journal — rather than as a command failure.
fn session_gone(seq: u64, sid: u64) -> ResponseFrame {
    ResponseFrame {
        seq,
        resp: Response::SessionGone { session: sid },
        session: Some(sid),
    }
}

/// One connection's reader loop: decode, route control commands inline,
/// enqueue session commands, and on transport death end this
/// connection's sessions — never the host.
fn conn_reader(shared: &Arc<HostShared>, conn: u64, rx: &mut dyn FrameRx, tx: &SharedTx) {
    loop {
        let cf = match read_frame(rx) {
            Ok(Ok(cf)) => cf,
            Ok(Err(bare)) => {
                shared.registry.inc("mi.host.malformed");
                if reply(tx, &bare).is_err() {
                    break;
                }
                continue;
            }
            // Disconnected or anything else: the connection is over.
            Err(_) => break,
        };
        let session = cf.session;
        let resp = match (session, cf.cmd) {
            (None, Command::OpenSession { file, source, opt }) => {
                shared.registry.inc("mi.host.cmd.OpenSession");
                open_session(shared, conn, tx, |registry| {
                    compile_engine(&file, &source, opt, registry, &shared.shelf)
                })
            }
            (None, Command::CloseSession { session }) => {
                shared.registry.inc("mi.host.cmd.CloseSession");
                close_session(shared, conn, session)
            }
            (None, Command::OpenReplay { name }) => {
                shared.registry.inc("mi.host.cmd.OpenReplay");
                // The shared store is cloned, never the recording: every
                // replay session scrubs the same bytes with its own
                // cursor, decode caches and registry.
                open_session(shared, conn, tx, |registry| {
                    let store = shared
                        .shelf
                        .lock()
                        .expect("trace shelf")
                        .get(&name)
                        .cloned();
                    let store = store.ok_or(format!("no recording published as {name:?}"))?;
                    let engine = crate::record::ReplayEngine::new(store, registry.clone())
                        .with_shelf(shared.shelf.clone());
                    Ok(Box::new(engine))
                })
            }
            (None, cmd) => at_boundary(&cmd, Some(&shared.registry), None).unwrap_or_else(|| {
                shared.registry.inc("mi.host.rejected.no_session");
                error(format!(
                    "{} requires a session id in the envelope",
                    cmd.kind()
                ))
            }),
            (
                Some(_),
                cmd @ (Command::OpenSession { .. }
                | Command::CloseSession { .. }
                | Command::OpenReplay { .. }),
            ) => {
                shared.registry.inc("mi.host.rejected.control_in_session");
                error(format!(
                    "{} is a control command; send it with no session id",
                    cmd.kind()
                ))
            }
            (Some(sid), cmd) => match enqueue(shared, conn, sid, cf.seq, cf.trace, cmd) {
                Some(refusal) => refusal,
                None => continue,
            },
        };
        let rf = ResponseFrame {
            seq: cf.seq,
            resp,
            session,
        };
        if reply(tx, &rf).is_err() {
            break;
        }
    }
    end_connection_sessions(shared, conn);
}

/// Compiles a program shipped in `OpenSession` into a recording-capable
/// engine reporting into `registry`; the extension picks the engine.
fn compile_engine(
    file: &str,
    source: &str,
    opt: u8,
    registry: &obs::Registry,
    shelf: &crate::record::TraceShelf,
) -> Result<Box<dyn Engine + Send>, String> {
    let shelf = Some(shelf.clone());
    if file.ends_with(".s") || file.ends_with(".asm") {
        let program = miniasm::asm::assemble(file, source).map_err(|e| e.to_string())?;
        let mut e = crate::asm_engine::AsmEngine::new(&program);
        e.set_registry(registry.clone());
        return Ok(Box::new(crate::record::RecordingEngine::with_shelf(
            e, shelf,
        )));
    }
    let program = minic::compile(file, source).map_err(|e| e.to_string())?;
    let mut e = crate::minic_engine::MinicEngine::with_opt(&program, opt)?;
    e.set_registry(registry.clone());
    Ok(Box::new(crate::record::RecordingEngine::with_shelf(
        e, shelf,
    )))
}

/// Opens a session over the engine `build` makes, for `OpenSession` and
/// `OpenReplay` alike. Admission control is checked before building —
/// a full host sheds load at the cheapest possible point — and again
/// under the table lock, since `max_sessions` is a hard cap and
/// concurrent opens race past the first check. Building runs on the
/// acceptor thread: it is the once-per-session cost, and keeping it off
/// the worker pool means a giant program cannot stall other sessions'
/// command service.
fn open_session(
    shared: &Arc<HostShared>,
    conn: u64,
    tx: &SharedTx,
    build: impl FnOnce(&obs::Registry) -> Result<Box<dyn Engine + Send>, String>,
) -> Response {
    let overloaded = |open: usize| {
        let cap = shared.config.max_sessions.filter(|cap| open >= *cap)?;
        shared.registry.inc("mi.host.rejected_overloaded");
        Some(Response::Overloaded {
            load: open as u64,
            limit: cap as u64,
        })
    };
    if let Some(refusal) = overloaded(shared.sessions.lock().expect("session table").len()) {
        return refusal;
    }
    let registry = obs::Registry::new();
    let engine = match build(&registry) {
        Ok(engine) => engine,
        Err(message) => return Response::Error { message },
    };
    let sid = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let mut table = shared.sessions.lock().expect("session table");
    if let Some(refusal) = overloaded(table.len()) {
        return refusal;
    }
    table.insert(
        sid,
        SessionSlot {
            conn,
            tx: tx.clone(),
            queue: VecDeque::new(),
            running: false,
            closed: None,
            last_seq: None,
            state: Some(Box::new(SessionState::new(
                engine,
                Some(registry),
                Some(1024),
            ))),
            max_queue_depth: None,
            running_since: None,
            watchdog_flagged: false,
        },
    );
    shared.registry.inc("mi.host.session_open");
    shared
        .registry
        .set_gauge("mi.host.sessions_open", table.len() as u64);
    Response::SessionOpened { session: sid }
}

/// Explicit close. Only the owning connection may close a session;
/// closing an unknown (or already-closed) id is a typed error the
/// caller can treat as "already done".
fn close_session(shared: &Arc<HostShared>, conn: u64, sid: u64) -> Response {
    let mut table = shared.sessions.lock().expect("session table");
    match table.get_mut(&sid) {
        None => error(format!("unknown session {sid}")),
        Some(slot) if slot.conn != conn => {
            shared.registry.inc("mi.host.rejected.foreign_session");
            error(format!("session {sid} belongs to another connection"))
        }
        Some(slot) => {
            if slot.running {
                // A worker holds the state; it removes the slot when it
                // finishes the current batch.
                slot.closed = Some("closed");
            } else {
                table.remove(&sid);
                finish_session(shared, &table, "closed");
            }
            Response::Ok
        }
    }
}

/// Bookkeeping shared by every way a session can end.
fn finish_session(shared: &HostShared, table: &HashMap<u64, SessionSlot>, how: &str) {
    shared.registry.inc(&format!("mi.host.session_end.{how}"));
    shared
        .registry
        .set_gauge("mi.host.sessions_open", table.len() as u64);
}

/// Validates and queues one session command; wakes a worker when the
/// session is parked. Returns the typed refusal to ship when the
/// envelope is rejected.
fn enqueue(
    shared: &Arc<HostShared>,
    conn: u64,
    sid: u64,
    seq: u64,
    trace: Option<obs::TraceContext>,
    cmd: Command,
) -> Option<Response> {
    let mut table = shared.sessions.lock().expect("session table");
    let slot = match table.get_mut(&sid) {
        Some(slot) if slot.conn != conn => {
            // Session ids are never guessable into someone else's
            // stream: isolation between connections is structural.
            shared.registry.inc("mi.host.rejected.foreign_session");
            return Some(error(format!(
                "session {sid} belongs to another connection"
            )));
        }
        Some(slot) if slot.closed.is_none() => slot,
        _ => {
            shared.registry.inc("mi.host.rejected.unknown_session");
            return Some(Response::SessionGone { session: sid });
        }
    };
    if let Some(refusal) = refuse_stale(slot.last_seq, seq, Some(sid)) {
        shared.registry.inc("mi.host.rejected.stale_seq");
        return Some(refusal);
    }
    // Backpressure, per-session depth first: a rejected frame is not
    // accepted, so it does not advance `last_seq` — the client retries
    // with a fresh seq after backing off.
    let depth = slot.queue.len() as u64;
    let limit = slot
        .max_queue_depth
        .unwrap_or(shared.config.default_queue_depth);
    if depth >= limit {
        shared.registry.inc("mi.host.rejected_queue_full");
        return Some(Response::QueueFull { depth, limit });
    }
    // Then the global high-water mark: when too many sessions are
    // already runnable, shed load instead of queueing into latency
    // collapse.
    if let Some(hw) = shared.config.queue_high_water {
        let load = shared.run_queue.len();
        if load >= hw {
            shared.registry.inc("mi.host.rejected_overloaded");
            return Some(Response::Overloaded {
                load: load as u64,
                limit: hw as u64,
            });
        }
    }
    slot.last_seq = Some(seq);
    slot.queue.push_back(Job { seq, trace, cmd });
    if !slot.running && slot.state.is_some() {
        slot.running = true;
        shared.run_queue.push(Work::Run(sid));
        shared.queue_depth_gauge();
    }
    None
}

/// Ends every session owned by a dead connection — the multi-session
/// analogue of a single-session serve returning `PeerClosed`. Sessions
/// currently held by a worker are flagged and removed by that worker;
/// all other connections are untouched.
fn end_connection_sessions(shared: &Arc<HostShared>, conn: u64) {
    let mut table = shared.sessions.lock().expect("session table");
    let mine: Vec<u64> = table
        .iter()
        .filter(|(_, slot)| slot.conn == conn)
        .map(|(sid, _)| *sid)
        .collect();
    for sid in mine {
        let slot = table.get_mut(&sid).expect("session listed");
        if slot.running {
            slot.closed = Some("peer_closed");
            // The worker counts the end when it drops the state.
        } else {
            table.remove(&sid);
            finish_session(shared, &table, "peer_closed");
        }
    }
}

/// A worker: pop a runnable session, serve one bounded slice, repeat.
fn worker_loop(shared: &Arc<HostShared>) {
    loop {
        let work = shared.run_queue.pop();
        shared.queue_depth_gauge();
        match work {
            Work::Run(sid) => serve_slice(shared, sid),
            Work::Stop => break,
        }
    }
}

/// One bounded service turn for a runnable session: resume a preempted
/// command or start the next queued one, spend at most one slice of
/// fuel on it, then put the session back — parked if idle, at the back
/// of the run queue if it still has work (a hot-loop tenant costs one
/// time slice per turn, never a worker thread), or retired if it ended.
fn serve_slice(shared: &Arc<HostShared>, sid: u64) {
    // Take ownership of the state and pick this turn's unit of work: a
    // preempted command beats the queue (FIFO within the session).
    let (mut state, tx, job) = {
        let mut table = shared.sessions.lock().expect("session table");
        let Some(slot) = table.get_mut(&sid) else {
            return;
        };
        let Some(state) = slot.state.take() else {
            slot.running = false;
            return;
        };
        let busy = state.in_flight.is_some();
        let job = if busy { None } else { slot.queue.pop_front() };
        if job.is_none() && !busy {
            // Woken with nothing to do (e.g. the session was closed and
            // its queue swept between enqueue and here): park again.
            slot.state = Some(state);
            slot.running = false;
            return;
        }
        if let Some(Job {
            cmd: Command::SetLimits {
                max_queue_depth, ..
            },
            ..
        }) = &job
        {
            // The queue budget is the reader's to enforce, so it lives on
            // the slot; the rest of the command rides into the session.
            slot.max_queue_depth = *max_queue_depth;
        }
        slot.running_since = Some(Instant::now());
        slot.watchdog_flagged = false;
        (state, slot.tx.clone(), job)
    };
    let mut ended = job
        .as_ref()
        .is_some_and(|j| j.cmd == Command::Terminate)
        .then_some("terminated");
    // No slice fuel configured: run to the next pause, unpreempted.
    match state.slice(job, shared.config.slice_steps.unwrap_or(u64::MAX)) {
        // Out of fuel mid-command: go to the back of the line. Nothing
        // is shipped — the client is still waiting on this seq and
        // cannot tell a sliced run from an unsliced one.
        None => shared.registry.inc("mi.host.preemptions"),
        Some((seq, resp)) => {
            if matches!(resp, Response::ResourceExhausted { .. }) {
                shared.registry.inc("mi.host.budget_exhausted");
                ended = Some("budget_exhausted");
            }
            let rf = ResponseFrame {
                seq,
                resp,
                session: Some(sid),
            };
            if reply(&tx, &rf).is_err() {
                // This connection is gone; its reader will sweep the
                // sibling sessions. Ending just this one here keeps the
                // blast radius at exactly one connection.
                ended = Some("peer_closed");
            }
        }
    }

    // Put the session back.
    let mut table = shared.sessions.lock().expect("session table");
    let Some(slot) = table.get_mut(&sid) else {
        return;
    };
    slot.running_since = None;
    if let Some(how) = ended.or(slot.closed) {
        // The preempted command (if any) and everything still queued
        // get a typed refusal instead of silence. Bookkeeping first,
        // refusals after the lock drops: the moment a client sees its
        // refusal, the end is already counted and the slot gone.
        let refused: Vec<u64> = state
            .in_flight
            .take()
            .map(|f| f.seq)
            .into_iter()
            .chain(slot.queue.drain(..).map(|j| j.seq))
            .collect();
        table.remove(&sid);
        finish_session(shared, &table, how);
        drop(table);
        for seq in refused {
            let _ = reply(&tx, &session_gone(seq, sid));
        }
    } else if state.in_flight.is_some() || !slot.queue.is_empty() {
        // More to do: back of the run queue, other sessions go first.
        slot.state = Some(state);
        shared.run_queue.push(Work::Run(sid));
        shared.queue_depth_gauge();
    } else {
        // Park: the engine waits in the table, no thread attached.
        slot.state = Some(state);
        slot.running = false;
    }
}

/// The watchdog: periodically scans for sessions that have been on a
/// worker longer than the configured threshold. With slicing on, a
/// slice should always finish well inside it, so a flag distinguishes a
/// stuck engine (a bug worth paging on) from a long program (which
/// yields every slice). Flags are observable as `mi.host.watchdog_flags`
/// (one per overdue slice) and the `mi.host.watchdog_stuck` gauge.
fn watchdog_loop(shared: &Arc<HostShared>) {
    let threshold = Duration::from_millis(shared.config.watchdog_ms.max(1));
    let tick = Duration::from_millis((shared.config.watchdog_ms / 4).clamp(5, 50));
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        let mut stuck = 0u64;
        {
            let mut table = shared.sessions.lock().expect("session table");
            for slot in table.values_mut() {
                if slot.running_since.is_some_and(|s| s.elapsed() > threshold) {
                    stuck += 1;
                    if !slot.watchdog_flagged {
                        slot.watchdog_flagged = true;
                        shared.registry.inc("mi.host.watchdog_flags");
                    }
                }
            }
        }
        shared.registry.set_gauge("mi.host.watchdog_stuck", stuck);
    }
}

// ---------------------------------------------------------------------------
// Client side: HostHandle / SessionHandle
// ---------------------------------------------------------------------------

/// Where a [`HostHandle`] gets (and re-gets) its host process.
struct HostSpawnSpec {
    server_bin: PathBuf,
    workers: usize,
}

/// A live host child: the process plus its stderr tail.
struct ChildInfo {
    child: Mutex<Child>,
    pid: u32,
    stderr_tail: Arc<Mutex<String>>,
}

/// A reply as the demux reader hands it on: its size on the wire, and
/// the frame.
type Routed = (u64, ResponseFrame);

/// One live connection to a host (in-process or a child process).
struct Conn {
    /// The control plane's link: session-less replies arrive here.
    control: HostLink,
    routes: Arc<Mutex<HashMap<u64, Sender<Routed>>>>,
    dead: Arc<AtomicBool>,
    child: Option<ChildInfo>,
}

impl Conn {
    /// A link over this connection that reads replies from `mailbox`.
    fn link(&self, mailbox: Receiver<Routed>) -> HostLink {
        HostLink {
            writer: self.control.writer.clone(),
            mailbox,
        }
    }
}

/// The [`Link`] of a stream multiplexed over a host connection: frames
/// go out through the shared writer, replies arrive in a mailbox the
/// demux reader fills.
struct HostLink {
    writer: SharedTx,
    mailbox: Receiver<Routed>,
}

impl Link for HostLink {
    fn ship(&mut self, frame: &[u8]) -> Result<u64, MiError> {
        let mut tx = self.writer.lock().expect("host writer");
        tx.send(frame)?;
        Ok(frame.len() as u64 + tx.framing())
    }

    fn next_reply(&mut self, deadline: Option<Duration>) -> (u64, Result<Reply, MiError>) {
        let routed = match deadline {
            None => self.mailbox.recv().map_err(|_| MiError::Disconnected),
            Some(d) => self.mailbox.recv_timeout(d).map_err(timeout_error),
        };
        match routed {
            Ok((wire, rf)) => (wire, Ok((Some(rf.seq), rf.resp))),
            Err(e) => (0, Err(e)),
        }
    }
}

struct ControlState {
    conn: Option<Conn>,
    spawn: Option<HostSpawnSpec>,
    respawns: u64,
    /// The control plane's own stream: session-less frames.
    envelope: Envelope,
}

/// Client-side handle to a session host, shared by every tracker using
/// it (`Clone` is cheap). Serializes control traffic (open/close,
/// respawn) and demultiplexes response frames to per-session mailboxes.
///
/// When built by [`HostHandle::spawn_process`] the handle owns the host
/// child and respawns it after a crash: the next `open_session` from
/// any tracker starts a fresh host, and every other tracker's own
/// recovery then re-establishes its session against it — the
/// whole-process half of the PR 3 recovery matrix.
#[derive(Clone)]
pub struct HostHandle {
    control: Arc<Mutex<ControlState>>,
}

impl std::fmt::Debug for HostHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ctl = self.control.lock().expect("host control");
        f.debug_struct("HostHandle")
            .field("connected", &ctl.conn.is_some())
            .field("respawns", &ctl.respawns)
            .finish()
    }
}

/// Builds the client-side plumbing over a connection's two halves: a
/// demux reader routing response frames by session id, a shared writer,
/// and a control mailbox for session-less replies.
fn make_conn(tx: Box<dyn FrameTx>, mut rx: Box<dyn FrameRx>, child: Option<ChildInfo>) -> Conn {
    let routes: Arc<Mutex<HashMap<u64, Sender<Routed>>>> = Arc::new(Mutex::new(HashMap::new()));
    let (control_tx, control_rx) = unbounded();
    let dead = Arc::new(AtomicBool::new(false));
    let reader_routes = routes.clone();
    let reader_dead = dead.clone();
    std::thread::Builder::new()
        .name("mi-host-demux".into())
        .spawn(move || {
            loop {
                let before = rx.wire_bytes();
                let frame = match rx.recv() {
                    Ok(f) => f,
                    Err(MiError::Codec(_)) => continue,
                    Err(_) => break,
                };
                let Ok(rf) = serde_json::from_slice::<ResponseFrame>(&frame) else {
                    continue;
                };
                let routed = (rx.wire_bytes().saturating_sub(before), rf);
                match routed.1.session {
                    None => {
                        let _ = control_tx.send(routed);
                    }
                    Some(sid) => {
                        if let Some(mailbox) = reader_routes.lock().expect("routes").get(&sid) {
                            let _ = mailbox.send(routed);
                        }
                    }
                }
            }
            // Dropping every mailbox sender is what turns a dead
            // connection into MiError::Disconnected at each waiting
            // SessionHandle — their supervision takes it from there.
            reader_dead.store(true, Ordering::SeqCst);
            reader_routes.lock().expect("routes").clear();
        })
        .expect("spawn host demux reader");
    Conn {
        control: HostLink {
            writer: Arc::new(Mutex::new(tx)),
            mailbox: control_rx,
        },
        routes,
        dead,
        child,
    }
}

/// Spawns `mi-server --host` and returns the connected conn.
fn spawn_host_child(spec: &HostSpawnSpec) -> Result<Conn, MiError> {
    let mut child = std::process::Command::new(&spec.server_bin)
        .arg("--host")
        .arg("--workers")
        .arg(spec.workers.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| MiError::Engine(format!("cannot spawn session host: {e}")))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");
    let pid = child.id();
    let stderr_tail = crate::tail_stderr(stderr);
    Ok(make_conn(
        Box::new(StreamFrameTx::new(stdin)),
        Box::new(StreamFrameRx::new(stdout)),
        Some(ChildInfo {
            child: Mutex::new(child),
            pid,
            stderr_tail,
        }),
    ))
}

impl HostHandle {
    /// Spawns an `mi-server --host` child over `server_bin` with a
    /// worker pool of `workers` threads, and keeps respawning it when
    /// it dies (the next session open after a host death starts a
    /// fresh child).
    ///
    /// # Errors
    ///
    /// [`MiError::Engine`] when the child cannot be spawned.
    pub fn spawn_process(server_bin: impl Into<PathBuf>, workers: usize) -> Result<Self, MiError> {
        let spec = HostSpawnSpec {
            server_bin: server_bin.into(),
            workers,
        };
        let conn = spawn_host_child(&spec)?;
        Ok(Self::over(conn, Some(spec)))
    }

    /// Connects to an in-process [`SessionHost`] over a channel pair.
    /// No respawn is possible in this mode: the host's lifetime is the
    /// caller's problem.
    pub fn connect_in_process(host: &SessionHost) -> Self {
        let (a, b) = crate::transport::duplex();
        let (btx, brx) = b.split();
        let _conn = host.accept(brx, btx);
        let (atx, arx) = a.split();
        Self::over(make_conn(Box::new(atx), Box::new(arx), None), None)
    }

    fn over(conn: Conn, spawn: Option<HostSpawnSpec>) -> Self {
        HostHandle {
            control: Arc::new(Mutex::new(ControlState {
                conn: Some(conn),
                spawn,
                respawns: 0,
                envelope: Envelope::new(None),
            })),
        }
    }

    /// The host child's pid, when this handle owns a process.
    pub fn host_pid(&self) -> Option<u32> {
        let ctl = self.control.lock().expect("host control");
        ctl.conn.as_ref()?.child.as_ref().map(|c| c.pid)
    }

    /// How many times the host child was respawned after dying.
    pub fn respawns(&self) -> u64 {
        self.control.lock().expect("host control").respawns
    }

    /// When the host *process* is confirmed dead, its exit code and
    /// stderr tail — the ingredients of a typed
    /// [`MiError::EngineDied`]. `None` for in-process hosts or while
    /// the child still runs.
    pub fn engine_died(&self) -> Option<(Option<i32>, String)> {
        let ctl = self.control.lock().expect("host control");
        let child = ctl.conn.as_ref()?.child.as_ref()?;
        let status = child.child.lock().expect("host child").try_wait().ok()??;
        let stderr = child.stderr_tail.lock().expect("stderr tail").clone();
        Some((status.code(), stderr))
    }

    /// Ensures a live connection, respawning the host child if this
    /// handle owns one and the previous child died.
    fn ensure_conn(ctl: &mut ControlState) -> Result<(), MiError> {
        let live = ctl
            .conn
            .as_ref()
            .is_some_and(|c| !c.dead.load(Ordering::SeqCst));
        if !live {
            let Some(spec) = &ctl.spawn else {
                return Err(MiError::Disconnected);
            };
            if let Some(old) = ctl.conn.take() {
                if let Some(info) = &old.child {
                    // Reap the corpse so respawn storms don't leak
                    // zombies; kill first in case only the pipe died.
                    let mut child = info.child.lock().expect("host child");
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            ctl.conn = Some(spawn_host_child(spec)?);
            ctl.respawns += 1;
        }
        Ok(())
    }

    /// One control-plane roundtrip (no session id on the envelope).
    fn control_call(
        ctl: &mut ControlState,
        cmd: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        Self::ensure_conn(ctl)?;
        let conn = ctl.conn.as_mut().expect("conn just ensured");
        ctl.envelope.call(&mut conn.control, cmd, deadline)
    }

    /// Opens a session for `source` (named `file`; the extension picks
    /// the engine) and returns its [`SessionHandle`]. When the host
    /// child is found dead the handle respawns it once and retries, so
    /// a tracker recovering from a host crash re-establishes its
    /// session in a single call.
    ///
    /// # Errors
    ///
    /// [`MiError::Engine`] when the program does not compile (or the
    /// host cannot be spawned); [`MiError::Overloaded`] when the host is
    /// at its session cap; transport errors as usual.
    pub fn open_session(
        &self,
        file: &str,
        source: &str,
        deadline: Option<Duration>,
    ) -> Result<SessionHandle, MiError> {
        self.open_session_opt(file, source, 0, deadline)
    }

    /// [`Self::open_session`] with an optimization level for MiniC
    /// programs (0 = run the compiler's output unchanged). Optimization
    /// is observation-preserving, so sessions at different levels are
    /// indistinguishable through the MI surface.
    ///
    /// # Errors
    ///
    /// As [`Self::open_session`]; additionally [`MiError::Engine`] when
    /// the bytecode verifier rejects the program or a pass's output.
    pub fn open_session_opt(
        &self,
        file: &str,
        source: &str,
        opt: u8,
        deadline: Option<Duration>,
    ) -> Result<SessionHandle, MiError> {
        self.open_via(
            || Command::OpenSession {
                file: file.into(),
                source: source.into(),
                opt,
            },
            deadline,
        )
    }

    /// Opens a *replay* session over a recording previously published on
    /// the host's trace shelf with `Command::PublishTrace`. The handle
    /// drives the recorded execution exactly like a live session's:
    /// `Start`/`Step`/`Seek`/inspections, all served from the shared
    /// store. Any number of replay sessions can scrub one recording
    /// concurrently.
    ///
    /// # Errors
    ///
    /// [`MiError::Engine`] when no recording is shelved under `name`;
    /// transport errors as usual.
    pub fn open_replay(
        &self,
        name: &str,
        deadline: Option<Duration>,
    ) -> Result<SessionHandle, MiError> {
        self.open_via(|| Command::OpenReplay { name: name.into() }, deadline)
    }

    /// The shared open loop: issue a session-creating control command,
    /// absorbing one host respawn. An overload refusal returns at once.
    fn open_via(
        &self,
        make_cmd: impl Fn() -> Command,
        deadline: Option<Duration>,
    ) -> Result<SessionHandle, MiError> {
        let mut ctl = self.control.lock().expect("host control");
        let mut attempt = 0;
        loop {
            let result = Self::control_call(&mut ctl, make_cmd(), deadline);
            match result {
                Ok(Response::SessionOpened { session }) => {
                    let conn = ctl.conn.as_ref().expect("live conn after open");
                    let (mail_tx, mail_rx) = unbounded();
                    conn.routes.lock().expect("routes").insert(session, mail_tx);
                    return Ok(SessionHandle {
                        host: self.clone(),
                        link: conn.link(mail_rx),
                        session,
                        envelope: Envelope::new(Some(session)),
                    });
                }
                Ok(Response::Error { message }) => return Err(MiError::Engine(message)),
                // Admission pressure, not a fault: whether and when to
                // try again is the caller's policy.
                Ok(Response::Overloaded { load, limit }) => {
                    return Err(MiError::Overloaded { load, limit })
                }
                Ok(other) => {
                    return Err(MiError::Codec(format!(
                        "unexpected reply to session open: {}",
                        other.summary()
                    )))
                }
                Err(MiError::Disconnected) if attempt == 0 && ctl.spawn.is_some() => {
                    // The host died under us: drop the dead conn and go
                    // again — ensure_conn respawns on the next attempt.
                    if let Some(conn) = &ctl.conn {
                        conn.dead.store(true, Ordering::SeqCst);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Closes a session (best effort, bounded): drops its client-side
    /// route and tells the host to free the slot.
    pub fn close_session(&self, session: u64) {
        let mut ctl = self.control.lock().expect("host control");
        if let Some(conn) = &ctl.conn {
            conn.routes.lock().expect("routes").remove(&session);
        }
        if ctl
            .conn
            .as_ref()
            .is_some_and(|c| !c.dead.load(Ordering::SeqCst))
        {
            let _ = Self::control_call(
                &mut ctl,
                Command::CloseSession { session },
                Some(Duration::from_secs(2)),
            );
        }
    }
}

/// A tracker-side port to one session inside a shared host: a plain
/// [`CommandPort`], so `MiTracker` supervises a hosted session with
/// exactly the code it uses for a dedicated child.
pub struct SessionHandle {
    host: HostHandle,
    link: HostLink,
    session: u64,
    envelope: Envelope,
}

impl SessionHandle {
    /// The host-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The handle to the host this session lives in.
    pub fn host(&self) -> &HostHandle {
        &self.host
    }

    /// Reports roundtrips into `registry` like
    /// [`crate::Client::with_registry`]: per-kind latency histograms,
    /// traffic gauges, plus trace contexts stamped onto outgoing frames.
    pub fn set_registry(&mut self, registry: obs::Registry) {
        self.envelope.registry = Some(registry);
    }
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("session", &self.session)
            .field("envelope", &self.envelope)
            .finish()
    }
}

impl CommandPort for SessionHandle {
    fn call(&mut self, command: Command) -> Result<Response, MiError> {
        self.call_deadline(command, None)
    }

    fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        self.envelope.call(&mut self.link, command, deadline)
    }

    fn counters(&self) -> TransportCounters {
        self.envelope.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{duplex, ChannelTransport};

    const PROG: &str = "int main() { int x = 1; x = x + 1; return x; }";

    fn call(h: &mut SessionHandle, cmd: Command) -> Response {
        h.call(cmd).expect("session call")
    }

    #[cfg(unix)]
    #[test]
    fn host_links_count_their_own_replies_on_a_stream_wire() {
        use std::io::Write as _;
        use std::os::unix::net::UnixStream;
        // The client side of a host connection over a newline stream; the
        // host's side is played by hand.
        let (client_end, mut host_end) = UnixStream::pair().unwrap();
        let conn = make_conn(
            Box::new(StreamFrameTx::new(client_end.try_clone().unwrap())),
            Box::new(StreamFrameRx::new(client_end)),
            None,
        );
        let (mail_tx, mail_rx) = unbounded();
        conn.routes.lock().unwrap().insert(7, mail_tx);
        let mut link = conn.link(mail_rx);
        let mut envelope = Envelope::new(Some(7));
        // A line naming no session — no stream's traffic — then the
        // session's reply, CRLF-terminated.
        let reply = encode(&ResponseFrame {
            seq: 0,
            resp: Response::Ok,
            session: Some(7),
        });
        let mut wire = b"garbage\n".to_vec();
        wire.extend_from_slice(&reply);
        wire.extend_from_slice(b"\r\n");
        host_end.write_all(&wire).unwrap();
        let deadline = Some(Duration::from_secs(5));
        assert_eq!(
            envelope.call(&mut link, Command::GetOutput, deadline),
            Ok(Response::Ok)
        );
        let sent = encode(&CommandFrame {
            seq: 0,
            cmd: Command::GetOutput,
            trace: None,
            session: Some(7),
        });
        let c = envelope.counters;
        assert_eq!((c.frames_sent, c.frames_received), (1, 1));
        assert_eq!(c.bytes_sent, sent.len() as u64 + 1);
        assert_eq!(c.bytes_received, reply.len() as u64 + 2);
    }

    #[test]
    fn open_drive_close_one_session() {
        let host = SessionHost::new(2);
        let handle = HostHandle::connect_in_process(&host);
        let mut s = handle.open_session("t.c", PROG, None).unwrap();
        assert!(matches!(call(&mut s, Command::Start), Response::Paused(_)));
        assert!(matches!(call(&mut s, Command::Resume), Response::Paused(_)));
        assert_eq!(
            call(&mut s, Command::GetExitCode),
            Response::ExitCode(Some(2))
        );
        assert_eq!(host.session_count(), 1);
        handle.close_session(s.session_id());
        // The slot may be in a worker's hands when the close lands; the
        // worker retires it as soon as it finishes the batch.
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.session_count() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host.session_count(), 0);
        host.shutdown();
    }

    #[test]
    fn terminate_ends_only_the_addressed_session() {
        let host = SessionHost::new(2);
        let handle = HostHandle::connect_in_process(&host);
        let mut a = handle.open_session("a.c", PROG, None).unwrap();
        let mut b = handle.open_session("b.c", PROG, None).unwrap();
        assert_eq!(call(&mut a, Command::Terminate), Response::Ok);
        // Session b keeps serving after a terminated.
        assert!(matches!(call(&mut b, Command::Start), Response::Paused(_)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.session_count() != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host.session_count(), 1);
        let snap = host.registry().snapshot();
        assert_eq!(snap.counter("mi.host.session_end.terminated"), 1);
        host.shutdown();
    }

    #[test]
    fn record_once_scrub_many() {
        // One live session records and publishes; many replay sessions
        // then scrub the single shelved store concurrently.
        let prog = "int main() {\nint x = 0;\nx = x + 1;\nx = x + 2;\nx = x + 3;\nreturn x;\n}";
        let host = SessionHost::new(4);
        let handle = HostHandle::connect_in_process(&host);
        let mut live = handle.open_session("t.c", prog, None).unwrap();
        assert_eq!(
            call(&mut live, Command::Record { keyframe_every: 4 }),
            Response::Ok
        );
        assert!(matches!(
            call(&mut live, Command::Start),
            Response::Paused(_)
        ));
        loop {
            match call(&mut live, Command::Step) {
                Response::Paused(r) if r.is_alive() => {}
                Response::Paused(_) => break,
                other => panic!("unexpected: {other:?}"),
            }
        }
        let pauses = match call(&mut live, Command::TraceStats) {
            Response::TraceStats { pauses, .. } => pauses,
            other => panic!("unexpected: {other:?}"),
        };
        assert!(pauses >= 5, "{pauses}");
        assert_eq!(
            call(&mut live, Command::PublishTrace { name: "run".into() }),
            Response::Ok
        );
        // A missing name is a typed error, not a session.
        assert!(matches!(
            handle.open_replay("nope", None),
            Err(MiError::Engine(_))
        ));
        let threads: Vec<_> = (0..4)
            .map(|r| {
                let handle = handle.clone();
                std::thread::spawn(move || {
                    let mut s = handle.open_replay("run", None).unwrap();
                    // Each reader scrubs its own path over the shared store.
                    for i in 0..pauses {
                        let n = (i * 3 + r) % pauses;
                        assert!(matches!(
                            call(&mut s, Command::Seek { pause: n }),
                            Response::Paused(_)
                        ));
                        match call(&mut s, Command::GetState) {
                            Response::State(st) => {
                                assert_eq!(st.frame.name(), "main");
                            }
                            other => panic!("unexpected: {other:?}"),
                        }
                    }
                    // History answers without any replay.
                    match call(
                        &mut s,
                        Command::QueryHistory {
                            variable: "x".into(),
                            from: None,
                            to: None,
                            last_only: true,
                        },
                    ) {
                        Response::History { hits } => {
                            assert_eq!(hits.len(), 1);
                            assert_eq!(hits[0].value, "6");
                        }
                        other => panic!("unexpected: {other:?}"),
                    }
                    handle.close_session(s.session_id());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = host.registry().snapshot();
        assert_eq!(snap.counter("mi.host.cmd.OpenReplay"), 5);
        host.shutdown();
    }

    #[test]
    fn sessions_park_without_dedicated_threads() {
        // Many more sessions than workers: they can only coexist by
        // parking in the table between commands.
        let host = SessionHost::new(2);
        let handle = HostHandle::connect_in_process(&host);
        let mut sessions: Vec<SessionHandle> = (0..32)
            .map(|i| handle.open_session(&format!("s{i}.c"), PROG, None).unwrap())
            .collect();
        for s in &mut sessions {
            assert!(matches!(call(s, Command::Start), Response::Paused(_)));
        }
        for s in &mut sessions {
            assert!(matches!(call(s, Command::Resume), Response::Paused(_)));
            assert_eq!(call(s, Command::GetExitCode), Response::ExitCode(Some(2)));
        }
        assert_eq!(host.session_count(), 32);
        host.shutdown();
    }

    /// Raw-wire client for envelope-abuse tests: hand-built frames over
    /// one channel transport.
    struct RawConn {
        t: ChannelTransport,
        seq: u64,
    }

    impl RawConn {
        fn connect(host: &SessionHost) -> Self {
            let (a, b) = duplex();
            let (btx, brx) = b.split();
            host.accept(brx, btx);
            RawConn { t: a, seq: 0 }
        }

        fn send_frame(&mut self, seq: u64, session: Option<u64>, cmd: Command) {
            let bytes = serde_json::to_vec(&CommandFrame {
                seq,
                cmd,
                trace: None,
                session,
            })
            .unwrap();
            self.t.send(&bytes).unwrap();
        }

        fn roundtrip(&mut self, session: Option<u64>, cmd: Command) -> ResponseFrame {
            let seq = self.seq;
            self.seq += 1;
            self.send_frame(seq, session, cmd);
            self.recv_frame()
        }

        fn recv_frame(&mut self) -> ResponseFrame {
            let bytes = self
                .t
                .recv_deadline(Duration::from_secs(10))
                .expect("host reply");
            serde_json::from_slice(&bytes).expect("response frame")
        }

        fn open(&mut self, file: &str) -> u64 {
            match self
                .roundtrip(
                    None,
                    Command::OpenSession {
                        file: file.into(),
                        source: PROG.into(),
                        opt: 0,
                    },
                )
                .resp
            {
                Response::SessionOpened { session } => session,
                other => panic!("expected SessionOpened, got {other:?}"),
            }
        }
    }

    fn expect_error(rf: &ResponseFrame, needle: &str) {
        match &rf.resp {
            Response::Error { message } => assert!(message.contains(needle), "{message}"),
            other => panic!("expected Error containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn unknown_session_rejected_with_typed_error() {
        let host = SessionHost::new(1);
        let mut c = RawConn::connect(&host);
        let rf = c.roundtrip(Some(999), Command::GetExitCode);
        assert_eq!(rf.resp, Response::SessionGone { session: 999 });
        assert_eq!(rf.session, Some(999));
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.rejected.unknown_session"),
            1
        );
        host.shutdown();
    }

    #[test]
    fn duplicate_seq_rejected_without_desync() {
        let host = SessionHost::new(1);
        let mut c = RawConn::connect(&host);
        let sid = c.open("t.c");
        let rf = c.roundtrip(Some(sid), Command::Start);
        assert!(matches!(rf.resp, Response::Paused(_)));
        let start_seq = rf.seq;
        // Replay the exact same seq: typed refusal, not double service.
        c.send_frame(start_seq, Some(sid), Command::Start);
        let dup = c.recv_frame();
        expect_error(&dup, "stale or duplicate seq");
        // The stream continues undisturbed at the next seq.
        let rf = c.roundtrip(Some(sid), Command::GetExitCode);
        assert_eq!(rf.resp, Response::ExitCode(None));
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.rejected.stale_seq"),
            1
        );
        host.shutdown();
    }

    #[test]
    fn foreign_connection_cannot_reach_a_session() {
        let host = SessionHost::new(1);
        let mut owner = RawConn::connect(&host);
        let sid = owner.open("t.c");
        let mut intruder = RawConn::connect(&host);
        let rf = intruder.roundtrip(Some(sid), Command::GetState);
        expect_error(&rf, "belongs to another connection");
        // The owner's stream is untouched by the refused frame.
        let rf = owner.roundtrip(Some(sid), Command::Start);
        assert!(matches!(rf.resp, Response::Paused(_)));
        host.shutdown();
    }

    #[test]
    fn session_command_without_id_rejected() {
        let host = SessionHost::new(1);
        let mut c = RawConn::connect(&host);
        let rf = c.roundtrip(None, Command::Step);
        expect_error(&rf, "requires a session id");
        host.shutdown();
    }

    #[test]
    fn dead_connection_ends_its_sessions_and_spares_the_rest() {
        let host = SessionHost::new(2);
        let casualty = HostHandle::connect_in_process(&host);
        let survivor = HostHandle::connect_in_process(&host);
        let mut dying = casualty.open_session("a.c", PROG, None).unwrap();
        let mut living = survivor.open_session("b.c", PROG, None).unwrap();
        assert!(matches!(
            call(&mut dying, Command::Start),
            Response::Paused(_)
        ));
        assert!(matches!(
            call(&mut living, Command::Start),
            Response::Paused(_)
        ));
        // Kill the casualty's transport mid-session (handle and session
        // dropped together: the channel halves close).
        drop(dying);
        drop(casualty);
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.session_count() != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(host.session_count(), 1);
        // The survivor's session is still fully served.
        assert!(matches!(
            call(&mut living, Command::Resume),
            Response::Paused(_)
        ));
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.session_end.peer_closed"),
            1
        );
        host.shutdown();
    }

    #[test]
    fn compile_error_is_a_typed_open_failure() {
        let host = SessionHost::new(1);
        let handle = HostHandle::connect_in_process(&host);
        let err = handle
            .open_session("bad.c", "int main( {", None)
            .unwrap_err();
        assert!(matches!(err, MiError::Engine(_)), "{err:?}");
        assert_eq!(host.session_count(), 0);
        host.shutdown();
    }

    /// 20 source-visible pauses with an inner loop between them: every
    /// Resume spans well over 100 VM steps, so any slice fuel below
    /// that must preempt at least once per Resume.
    const BREAK_PROG: &str = "int main() {\n  int i = 0;\n  int acc = 0;\n  while (i < 20) {\n    int j = 0;\n    while (j < 40) {\n      acc = acc + j;\n      j = j + 1;\n    }\n    i = i + 1;\n  }\n  return acc;\n}\n";

    /// A long-running loop: the hot-loop abuser and budget fodder.
    const LOOP_PROG: &str = "int main() {\n  int i = 0;\n  while (i < 20000000) {\n    i = i + 1;\n  }\n  return i;\n}\n";

    fn governed(config: HostConfig) -> SessionHost {
        SessionHost::with_config(config, obs::Registry::new())
    }

    /// Drives BREAK_PROG to completion and returns every response,
    /// serialized — the byte-level trace the transparency oracle
    /// compares across slice settings.
    fn pause_trace(slice_steps: Option<u64>) -> (Vec<String>, u64) {
        let host = governed(HostConfig {
            workers: 2,
            slice_steps,
            ..HostConfig::default()
        });
        let handle = HostHandle::connect_in_process(&host);
        let mut s = handle.open_session("b.c", BREAK_PROG, None).unwrap();
        let mut trace = Vec::new();
        let record = |r: Response, trace: &mut Vec<String>| {
            trace.push(serde_json::to_string(&r).unwrap());
        };
        record(call(&mut s, Command::Start), &mut trace);
        record(call(&mut s, Command::SetBreakLine { line: 10 }), &mut trace);
        loop {
            let r = call(&mut s, Command::Resume);
            let done = matches!(r, Response::Paused(state::PauseReason::Exited(_)));
            record(r, &mut trace);
            if done {
                break;
            }
        }
        record(call(&mut s, Command::GetExitCode), &mut trace);
        let preemptions = host.registry().snapshot().counter("mi.host.preemptions");
        host.shutdown();
        (trace, preemptions)
    }

    #[test]
    fn sliced_execution_is_pause_for_pause_identical_to_unsliced() {
        let (unsliced, p0) = pause_trace(None);
        assert_eq!(p0, 0, "unsliced host must never preempt");
        for fuel in [1, 7, 50] {
            let (sliced, preemptions) = pause_trace(Some(fuel));
            assert_eq!(
                sliced, unsliced,
                "slice fuel {fuel} changed the observable pause sequence"
            );
            assert!(
                preemptions > 0,
                "fuel {fuel} over {} responses never preempted",
                sliced.len()
            );
        }
    }

    #[test]
    fn step_budget_exhaustion_is_typed_and_terminal() {
        let host = governed(HostConfig {
            workers: 1,
            ..HostConfig::default()
        });
        let handle = HostHandle::connect_in_process(&host);
        let mut s = handle.open_session("hot.c", LOOP_PROG, None).unwrap();
        assert_eq!(
            call(
                &mut s,
                Command::SetLimits {
                    max_steps: Some(10_000),
                    max_heap_bytes: None,
                    max_wall_ms: None,
                    max_queue_depth: None,
                }
            ),
            Response::Ok
        );
        assert!(matches!(call(&mut s, Command::Start), Response::Paused(_)));
        match call(&mut s, Command::Resume) {
            Response::ResourceExhausted { which, used, limit } => {
                assert_eq!(which, ResourceKind::Steps);
                assert_eq!(limit, 10_000);
                assert!(used >= limit, "used {used} below limit {limit}");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Terminal: the session is swept, and the next command reports
        // engine loss (SessionGone → Disconnected), never silence.
        assert!(matches!(
            s.call(Command::GetExitCode),
            Err(MiError::Disconnected)
        ));
        let snap = host.registry().snapshot();
        assert_eq!(snap.counter("mi.host.budget_exhausted"), 1);
        assert_eq!(snap.counter("mi.host.session_end.budget_exhausted"), 1);
        assert_eq!(host.session_count(), 0);
        host.shutdown();
    }

    #[test]
    fn wall_budget_gates_a_hot_loop() {
        let host = governed(HostConfig {
            workers: 1,
            slice_steps: Some(10_000),
            ..HostConfig::default()
        });
        let handle = HostHandle::connect_in_process(&host);
        let mut s = handle.open_session("hot.c", LOOP_PROG, None).unwrap();
        assert!(matches!(call(&mut s, Command::Start), Response::Paused(_)));
        assert_eq!(
            call(
                &mut s,
                Command::SetLimits {
                    max_steps: None,
                    max_heap_bytes: None,
                    max_wall_ms: Some(30),
                    max_queue_depth: None,
                }
            ),
            Response::Ok
        );
        // The loop body runs for far longer than 30ms of engine time;
        // the host must cut it off with the typed verdict mid-command.
        match call(&mut s, Command::Resume) {
            Response::ResourceExhausted { which, used, limit } => {
                assert_eq!(which, ResourceKind::WallMs);
                assert_eq!(limit, 30);
                assert!(used >= limit);
            }
            other => panic!("expected wall ResourceExhausted, got {other:?}"),
        }
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.budget_exhausted"),
            1
        );
        host.shutdown();
    }

    #[test]
    fn queue_depth_budget_rejects_floods_with_queue_full() {
        let host = governed(HostConfig {
            workers: 1,
            slice_steps: Some(50),
            ..HostConfig::default()
        });
        let mut c = RawConn::connect(&host);
        let sid = match c
            .roundtrip(
                None,
                Command::OpenSession {
                    file: "hot.c".into(),
                    source: LOOP_PROG.into(),
                    opt: 0,
                },
            )
            .resp
        {
            Response::SessionOpened { session } => session,
            other => panic!("expected SessionOpened, got {other:?}"),
        };
        assert_eq!(
            c.roundtrip(
                Some(sid),
                Command::SetLimits {
                    max_steps: None,
                    max_heap_bytes: None,
                    max_wall_ms: None,
                    max_queue_depth: Some(1),
                }
            )
            .resp,
            Response::Ok
        );
        assert!(matches!(
            c.roundtrip(Some(sid), Command::Start).resp,
            Response::Paused(_)
        ));
        // Resume runs the hot loop in tiny slices: the command stays
        // in flight, so anything queued behind it never drains.
        let resume_seq = c.seq;
        c.seq += 1;
        c.send_frame(resume_seq, Some(sid), Command::Resume);
        // Wait for the first preemption: from then on Resume is in
        // flight with the session's own queue empty, so the depth the
        // next frames see is deterministic.
        let deadline = Instant::now() + Duration::from_secs(10);
        while host.registry().snapshot().counter("mi.host.preemptions") == 0 {
            assert!(Instant::now() < deadline, "hot loop never preempted");
            std::thread::sleep(Duration::from_millis(2));
        }
        let step_seq = c.seq;
        c.seq += 1;
        c.send_frame(step_seq, Some(sid), Command::Step); // queued, depth 1
        let rf = c.roundtrip(Some(sid), Command::Step); // over the budget
        match rf.resp {
            Response::QueueFull { depth, limit } => {
                assert_eq!((depth, limit), (1, 1));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.rejected_queue_full"),
            1
        );
        host.shutdown();
    }

    #[test]
    fn an_unarmed_hot_loop_is_preempted_while_a_neighbour_answers() {
        // Nothing is armed, so no event leaves the VM: the op countdown
        // alone must end each slice, or the one worker never comes back
        // for the neighbour's `Ping`.
        const HOT: &str = "int main() {\nint x = 0;\nwhile (1) {\nx = x + 1;\n}\nreturn x;\n}\n";
        let host = governed(HostConfig {
            workers: 1,
            ..HostConfig::default()
        });
        let mut c = RawConn::connect(&host);
        let mut open = |file: &str| {
            let open = Command::OpenSession {
                file: file.into(),
                source: HOT.into(),
                opt: 0,
            };
            let sid = match c.roundtrip(None, open).resp {
                Response::SessionOpened { session } => session,
                other => panic!("expected SessionOpened, got {other:?}"),
            };
            assert!(matches!(
                c.roundtrip(Some(sid), Command::Start).resp,
                Response::Paused(_)
            ));
            sid
        };
        let (hot, neighbour) = (open("hot.c"), open("neighbour.c"));
        let resume_seq = c.seq;
        c.seq += 1;
        c.send_frame(resume_seq, Some(hot), Command::Resume);
        let deadline = Instant::now() + Duration::from_secs(10);
        while host.registry().snapshot().counter("mi.host.preemptions") == 0 {
            assert!(Instant::now() < deadline, "hot loop never preempted");
            std::thread::sleep(Duration::from_millis(2));
        }
        let rf = c.roundtrip(Some(neighbour), Command::Ping);
        assert_eq!(rf.session, Some(neighbour));
        assert!(matches!(rf.resp, Response::Pong { .. }), "{:?}", rf.resp);
        host.shutdown();
    }

    #[test]
    fn opens_past_the_session_cap_get_overloaded() {
        let host = governed(HostConfig {
            workers: 1,
            max_sessions: Some(2),
            ..HostConfig::default()
        });
        let mut c = RawConn::connect(&host);
        c.open("a.c");
        c.open("b.c");
        let rf = c.roundtrip(
            None,
            Command::OpenSession {
                file: "c.c".into(),
                source: PROG.into(),
                opt: 0,
            },
        );
        assert_eq!(
            rf.resp,
            Response::Overloaded { load: 2, limit: 2 },
            "third open past max-sessions"
        );
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.rejected_overloaded"),
            1
        );
        host.shutdown();
    }

    #[test]
    fn client_open_refused_for_overload_fails_typed_at_once() {
        let host = governed(HostConfig {
            workers: 1,
            max_sessions: Some(0),
            ..HostConfig::default()
        });
        let handle = HostHandle::connect_in_process(&host);
        let err = handle.open_session("t.c", PROG, None).unwrap_err();
        assert_eq!(err, MiError::Overloaded { load: 0, limit: 0 });
        assert_eq!(
            host.registry()
                .snapshot()
                .counter("mi.host.rejected_overloaded"),
            1,
            "the handle returns the first refusal instead of retrying"
        );
        host.shutdown();
    }

    #[test]
    fn run_queue_high_water_sheds_session_commands() {
        let host = governed(HostConfig {
            workers: 1,
            queue_high_water: Some(0),
            ..HostConfig::default()
        });
        let mut c = RawConn::connect(&host);
        let sid = c.open("t.c");
        let rf = c.roundtrip(Some(sid), Command::Start);
        assert_eq!(rf.resp, Response::Overloaded { load: 0, limit: 0 });
        let registry = host.registry().clone();
        host.shutdown();
        // Workers publish the depth gauge on every wakeup, including
        // the final Stop — the series must exist after any activity.
        assert!(registry
            .snapshot()
            .gauges
            .contains_key("mi.host.run_queue_depth"));
    }

    #[test]
    fn per_session_telemetry_cursors_are_independent() {
        // Two sessions draining interleaved: each sees its own command
        // counters and its own event index space, never the sibling's.
        let host = SessionHost::new(2);
        let handle = HostHandle::connect_in_process(&host);
        let mut a = handle.open_session("a.c", PROG, None).unwrap();
        let mut b = handle.open_session("b.c", PROG, None).unwrap();
        call(&mut a, Command::Start);
        call(&mut a, Command::Step);
        call(&mut a, Command::Step);
        call(&mut b, Command::Start);
        let drain = |h: &mut SessionHandle, since| match call(h, Command::Telemetry { since }) {
            Response::Telemetry(f) => *f,
            other => panic!("expected Telemetry, got {other:?}"),
        };
        let fa = drain(&mut a, 0);
        let fb = drain(&mut b, 0);
        assert_eq!(fa.counters.get("mi.server.cmd.Step"), Some(&2));
        assert!(!fb.counters.contains_key("mi.server.cmd.Step"));
        assert_eq!(fb.counters.get("mi.server.cmd.Start"), Some(&1));
        // Interleaved cursor advance: a's cursor must not move b's.
        let fa2 = drain(&mut a, fa.next_event);
        let fb2 = drain(&mut b, 0);
        assert!(fa2.events.is_empty());
        assert_eq!(fb2.events.len(), fb.events.len());
        host.shutdown();
    }
}
