//! The classroom: an open loop of independent students sharing one
//! `mi-server --host --workers 2` child, run in every traced run.
//!
//! 56 students step an insertion sort (a click is `Step`, then
//! `GetState`), and 8 heavy tenants `Resume` a sparse-watch loop whose
//! every resume runs two fuel slices and a bit. Student arrivals follow a
//! seeded Poisson schedule per session; heavy resumes come at a fixed
//! period. One sender thread issues commands when they come due; one
//! receiver thread reads replies, chains a click's `GetState` after its
//! `Step`, and issues a session's queued arrival as soon as its previous
//! one completes. Each session has at most one command in flight, and
//! every latency runs from the arrival's due time, so a stall counts
//! against every arrival it delays.
//!
//! Only here do host queue wait and fuel-slice scheduling set latency,
//! but its medians moved by 18-37% between runs of one commit on a
//! shared 2-vCPU machine: the heavies' long interpreter runs slowed twice
//! as much as the calibration kernel when neighbours loaded the machine.
//! So its numbers are per-layer metrics, not an end-to-end workload.

use mi::protocol::{Command, CommandFrame, Response, ResponseFrame};
use mi::transport::{FrameRx, FrameTx, StreamFrameRx, StreamFrameTx};
use perfbench::harness::{self, Report, RunArgs, Samples, Tracing, Work};
use perfbench::{Arrival, Due, Tally};
use std::collections::{HashMap, VecDeque};
use std::process::{Child, ChildStdin, ChildStdout, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Warm-up before the measured window.
const WARMUP_SECS: f64 = 2.0;
/// Measured window.
const MEASURE_SECS: f64 = 8.0;
/// Control- and session-plane `Ping` probe pairs per second.
const PROBE_RATE: f64 = 50.0;
/// How long stragglers may take after the window closes.
const DRAIN: Duration = Duration::from_secs(5);
/// Generator lateness above which the latencies are not valid. On a
/// shared VM the timer wake-up of an idle virtual CPU alone ran 2-4 ms
/// late at p99 while neighbours loaded the physical host, with the
/// generator otherwise idle; a generator that could not keep up, or a
/// saturated machine, ran tens of milliseconds late.
const MAX_LAG_P99_US: f64 = 10_000.0;

type Writer = Arc<Mutex<StreamFrameTx<ChildStdin>>>;

/// Linux `SCHED_IDLE`. The generator shares its CPU with the host, so at
/// equal priority a generator thread waking for a due command would wait
/// out a busy worker's time slice (milliseconds). Under `SCHED_IDLE` the
/// host yields the moment the generator wakes, and still gets every
/// cycle the generator leaves idle.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// The reply fields the load generator needs, read without decoding the
/// (possibly large) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peek {
    /// Echoed sequence number.
    pub seq: u64,
    /// Echoed session, `None` on the control plane.
    pub session: Option<u64>,
    /// Response variant name (`State`, `Paused`, `Error`, ...).
    pub variant: String,
}

/// Reads `seq`, `session` and the response variant from a reply frame;
/// falls back to a full decode when the text does not have the expected
/// `{"seq":..,"resp":..,"session":..}` shape.
pub fn peek(frame: &[u8]) -> Option<Peek> {
    scan(frame).or_else(|| {
        let rf: ResponseFrame = serde_json::from_slice(frame).ok()?;
        let text = serde_json::to_string(&rf.resp).ok()?;
        let name = text.trim_start_matches('{').trim_start_matches('"');
        Some(Peek {
            seq: rf.seq,
            session: rf.session,
            variant: name[..name.find('"')?].to_string(),
        })
    })
}

fn scan(frame: &[u8]) -> Option<Peek> {
    let text = std::str::from_utf8(frame).ok()?;
    let rest = text.strip_prefix("{\"seq\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    let seq = rest[..end].parse().ok()?;
    let rest = rest[end..].strip_prefix(",\"resp\":")?;
    let name = rest.trim_start_matches('{').strip_prefix('"')?;
    let variant = name[..name.find('"')?].to_string();
    let tail = &text[text.rfind(",\"session\":")? + ",\"session\":".len()..];
    let tail = tail.strip_suffix('}')?;
    let session = if tail == "null" {
        None
    } else {
        Some(tail.parse().ok()?)
    };
    Some(Peek {
        seq,
        session,
        variant,
    })
}

/// Sends one command frame.
///
/// # Errors
///
/// Encoding or transport failures.
pub fn send(tx: &Writer, seq: u64, session: Option<u64>, cmd: Command) -> Result<(), String> {
    let bytes = serde_json::to_vec(&CommandFrame {
        seq,
        cmd,
        trace: None,
        session,
    })
    .map_err(|e| e.to_string())?;
    tx.lock()
        .expect("writer lock")
        .send(&bytes)
        .map_err(|e| format!("host send: {e}"))
}

/// A host child spoken to in raw frames over its stdio.
pub struct RawHost {
    child: Child,
    tx: Option<Writer>,
    rx: Option<StreamFrameRx<ChildStdout>>,
    seqs: HashMap<Option<u64>, u64>,
}

impl RawHost {
    /// Spawns `mi-server --host --workers <workers>`.
    ///
    /// # Errors
    ///
    /// When the child cannot be spawned.
    pub fn spawn(workers: usize) -> Result<Self, String> {
        use std::os::unix::process::CommandExt as _;
        let mut cmd = std::process::Command::new(harness::server_bin());
        // SAFETY: the hook runs in the forked child before exec and only
        // makes the sched_setscheduler system call (async-signal-safe)
        // with a pointer to a parameter block that lives on the hook's
        // own stack for the duration of the call.
        unsafe {
            cmd.pre_exec(|| {
                let param = SchedParam { priority: 0 };
                sched_setscheduler(0, SCHED_IDLE, &param);
                Ok(())
            });
        }
        let mut child = cmd
            .args(["--host", "--workers", &workers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the session host: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(RawHost {
            child,
            tx: Some(Arc::new(Mutex::new(StreamFrameTx::new(stdin)))),
            rx: Some(StreamFrameRx::new(stdout)),
            seqs: HashMap::new(),
        })
    }

    /// The host child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Next sequence number for `session` (`None`: control plane).
    pub fn next_seq(&mut self, session: Option<u64>) -> u64 {
        let slot = self.seqs.entry(session).or_insert(0);
        *slot += 1;
        *slot
    }

    /// One synchronous roundtrip; valid while no receiver thread runs.
    ///
    /// # Errors
    ///
    /// Transport failures, and error replies as their message.
    pub fn call(&mut self, session: Option<u64>, cmd: Command) -> Result<Response, String> {
        let seq = self.next_seq(session);
        send(self.tx.as_ref().expect("writer open"), seq, session, cmd)?;
        let rx = self.rx.as_mut().expect("reader owned");
        loop {
            let frame = rx.recv().map_err(|e| format!("host reply: {e}"))?;
            let rf: ResponseFrame =
                serde_json::from_slice(&frame).map_err(|e| format!("host reply: {e}"))?;
            if rf.session == session && rf.seq == seq {
                return match rf.resp {
                    Response::Error { message } => Err(message),
                    other => Ok(other),
                };
            }
        }
    }

    /// Opens a session for `source` named `file`.
    ///
    /// # Errors
    ///
    /// Compile errors and transport failures.
    pub fn open(&mut self, file: &str, source: &str) -> Result<u64, String> {
        let cmd = Command::OpenSession {
            file: file.into(),
            source: source.into(),
            opt: 0,
        };
        match self.call(None, cmd)? {
            Response::SessionOpened { session } => Ok(session),
            other => Err(format!("unexpected open reply {}", other.summary())),
        }
    }

    /// Closes stdin (the host exits on EOF) and waits for the child.
    pub fn shutdown(mut self) {
        drop(self.tx.take());
        drop(self.rx.take());
        let begin = Instant::now();
        while begin.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The classroom host with every session open and positioned: students
/// paused at the top of the sorting loop, heavies watching `mark`.
struct Class {
    host: RawHost,
    /// Host session id per schedule session index.
    ids: Vec<u64>,
    /// Idle session answering session-plane probes.
    probe: u64,
}

fn set_up(seed: u64) -> Result<Class, String> {
    let mut host = RawHost::spawn(crate::deploy::HOST_WORKERS)?;
    let mut ids = Vec::new();
    for i in 0..perfbench::STUDENTS {
        let p = perfbench::student_program(seed, i);
        let sid = host.open(&format!("{}.c", p.name), &p.c)?;
        host.call(Some(sid), Command::Start)?;
        let bp = match host.call(
            Some(sid),
            Command::SetBreakLine {
                line: perfbench::SORT_LINE,
            },
        )? {
            Response::Created { id } => id,
            other => return Err(format!("unexpected reply {}", other.summary())),
        };
        host.call(Some(sid), Command::Resume)?;
        host.call(Some(sid), Command::Delete { id: bp })?;
        ids.push(sid);
    }
    let heavy = perfbench::heavy_program();
    for _ in 0..perfbench::HEAVIES {
        let sid = host.open("heavy.c", &heavy.c)?;
        host.call(Some(sid), Command::Start)?;
        host.call(
            Some(sid),
            Command::Watch {
                variable: "mark".into(),
            },
        )?;
        ids.push(sid);
    }
    let probe = host.open("probe.c", "int main() {\nreturn 0;\n}\n")?;
    Ok(Class { host, ids, probe })
}

/// One arrival being served.
struct InFlight {
    due: Instant,
    measured: bool,
    seq: u64,
    /// A click's `Step` came back; its `GetState` is out.
    stepped: bool,
}

struct Sess {
    id: u64,
    kind: Arrival,
    seq: u64,
    inflight: Option<InFlight>,
    backlog: VecDeque<(Instant, bool)>,
}

/// Pending probe pair: control-plane and session-plane `Ping` sent
/// together; their RTT difference is the wait in the host's run queue.
#[derive(Default)]
struct Probe {
    sent: Option<Instant>,
    ctl_seq: u64,
    sess_seq: u64,
    ctl_rtt: Option<Duration>,
    sess_rtt: Option<Duration>,
}

#[derive(Default)]
struct Outcome {
    clicks: Samples,
    resumes: Samples,
    lags: Samples,
    queue_wait: Samples,
    tally: Tally,
    /// Backlog per session at 50%, 67%, 83% and 100% of the window.
    backlog_marks: Vec<[usize; 4]>,
}

struct Shared {
    sessions: Vec<Sess>,
    index: HashMap<u64, usize>,
    probe_sid: u64,
    ctl_seq: u64,
    probe_seq: u64,
    probe: Probe,
    stop: bool,
    out: Outcome,
}

/// What to send after releasing the lock.
type Outgoing = Vec<(u64, Option<u64>, Command)>;

impl Shared {
    /// Starts `session`'s arrival due at `due`, or queues it when busy.
    fn arrive(&mut self, s: usize, due: Instant, measured: bool, out: &mut Outgoing) {
        let sess = &mut self.sessions[s];
        if sess.inflight.is_some() {
            sess.backlog.push_back((due, measured));
            return;
        }
        sess.seq += 1;
        sess.inflight = Some(InFlight {
            due,
            measured,
            seq: sess.seq,
            stepped: false,
        });
        let cmd = match sess.kind {
            Arrival::Click => Command::Step,
            Arrival::Resume => Command::Resume,
        };
        out.push((sess.seq, Some(sess.id), cmd));
    }

    /// Handles one reply; returns frames to send.
    fn reply(&mut self, p: &Peek, now: Instant) -> Outgoing {
        let mut out = Vec::new();
        match p.session {
            None => {
                if p.seq == self.probe.ctl_seq {
                    self.probe.ctl_rtt = self.probe.sent.map(|t| now - t);
                }
            }
            Some(sid) if sid == self.probe_sid => {
                if p.seq == self.probe.sess_seq {
                    self.probe.sess_rtt = self.probe.sent.map(|t| now - t);
                }
            }
            Some(sid) => {
                let Some(&s) = self.index.get(&sid) else {
                    self.out
                        .tally
                        .mismatch(&format!("reply for unknown session {sid}"));
                    return out;
                };
                let sess = &mut self.sessions[s];
                let Some(f) = sess.inflight.as_mut() else {
                    self.out
                        .tally
                        .mismatch(&format!("unsolicited reply on session {sid}"));
                    return out;
                };
                if f.seq != p.seq {
                    self.out
                        .tally
                        .mismatch(&format!("reply seq {} on session {sid}", p.seq));
                    return out;
                }
                let expected = match (sess.kind, f.stepped) {
                    (Arrival::Click, true) => "State",
                    _ => "Paused",
                };
                let ok = p.variant == expected;
                if f.measured {
                    self.out.tally.op(ok);
                }
                if !ok && f.measured {
                    eprintln!("perfbench: session {sid}: {} reply", p.variant);
                }
                if ok && sess.kind == Arrival::Click && !f.stepped {
                    f.stepped = true;
                    sess.seq += 1;
                    f.seq = sess.seq;
                    out.push((sess.seq, Some(sid), Command::GetState));
                    return out;
                }
                let done = sess.inflight.take().expect("in flight");
                if done.measured && ok {
                    let took = now - done.due;
                    match sess.kind {
                        Arrival::Click => self.out.clicks.push(took),
                        Arrival::Resume => self.out.resumes.push(took),
                    }
                }
                if let Some((due, measured)) = self.sessions[s].backlog.pop_front() {
                    self.arrive(s, due, measured, &mut out);
                }
            }
        }
        if let (Some(c), Some(s)) = (self.probe.ctl_rtt, self.probe.sess_rtt) {
            self.out.queue_wait.push_us(
                harness::calibrated_us(s, Work::Encode) - harness::calibrated_us(c, Work::Encode),
            );
            self.probe = Probe::default();
        }
        out
    }

    fn busy(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.inflight.is_some())
            .count()
    }
}

fn flush(tx: &Writer, out: Outgoing) -> Result<(), String> {
    for (seq, session, cmd) in out {
        send(tx, seq, session, cmd)?;
    }
    Ok(())
}

/// Drives the schedule against a set-up class: `warmup` seconds, then a
/// measured window of `measure` seconds with queue-wait probes.
fn drive(
    class: &mut Class,
    schedule: &[Due],
    warmup: f64,
    measure: f64,
) -> Result<Outcome, String> {
    let tx = class.host.tx.clone().expect("writer open");
    let mut rx = class.host.rx.take().expect("reader owned");
    let sessions = class
        .ids
        .iter()
        .enumerate()
        .map(|(i, &id)| Sess {
            id,
            kind: if i < perfbench::STUDENTS {
                Arrival::Click
            } else {
                Arrival::Resume
            },
            seq: class.host.seqs.get(&Some(id)).copied().unwrap_or(0),
            inflight: None,
            backlog: VecDeque::new(),
        })
        .collect::<Vec<_>>();
    let index = class
        .ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let shared = Arc::new(Mutex::new(Shared {
        sessions,
        index,
        probe_sid: class.probe,
        ctl_seq: class.host.seqs.get(&None).copied().unwrap_or(0),
        probe_seq: class
            .host
            .seqs
            .get(&Some(class.probe))
            .copied()
            .unwrap_or(0),
        probe: Probe::default(),
        stop: false,
        out: Outcome {
            resumes: Samples::new(Work::Resume),
            backlog_marks: vec![[0; 4]; class.ids.len()],
            ..Outcome::default()
        },
    }));
    let t0 = Instant::now() + Duration::from_millis(20);
    let window = (warmup, warmup + measure);
    let receiver = {
        let shared = shared.clone();
        let tx = tx.clone();
        std::thread::spawn(move || -> Result<StreamFrameRx<ChildStdout>, String> {
            loop {
                let frame = rx.recv().map_err(|e| format!("host reply: {e}"))?;
                let now = Instant::now();
                let Some(p) = peek(&frame) else {
                    shared
                        .lock()
                        .expect("shared")
                        .out
                        .tally
                        .mismatch("unreadable reply");
                    continue;
                };
                let (out, stop) = {
                    let mut sh = shared.lock().expect("shared");
                    (sh.reply(&p, now), sh.stop)
                };
                flush(&tx, out)?;
                if stop && p.session.is_none() {
                    return Ok(rx);
                }
            }
        })
    };
    let sender = {
        let shared = shared.clone();
        let tx = tx.clone();
        let schedule = schedule.to_vec();
        std::thread::spawn(move || -> Result<(), String> {
            // Backlog checkpoints across the second half of the window.
            let marks = [0.5, 2.0 / 3.0, 5.0 / 6.0, 1.0].map(|f| window.0 + f * measure);
            let mut next_mark = 0;
            let mut next_probe = Some(window.0);
            let mut events = schedule.iter().peekable();
            loop {
                let next_event = events.peek().map(|d| d.at);
                let mark = marks.get(next_mark).copied();
                let Some(wake) = [next_event, next_probe, mark]
                    .into_iter()
                    .flatten()
                    .reduce(f64::min)
                else {
                    return Ok(());
                };
                let at = t0 + Duration::from_secs_f64(wake);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let mut out = Vec::new();
                let mut guard = shared.lock().expect("shared");
                let sh = &mut *guard;
                if mark == Some(wake) {
                    for (m, s) in sh.out.backlog_marks.iter_mut().zip(&sh.sessions) {
                        m[next_mark] = s.backlog.len();
                    }
                    next_mark += 1;
                } else if next_probe == Some(wake) {
                    next_probe = Some(wake + 1.0 / PROBE_RATE).filter(|&p| p < window.1);
                    if sh.probe.sent.is_none() {
                        sh.ctl_seq += 1;
                        sh.probe_seq += 1;
                        sh.probe.ctl_seq = sh.ctl_seq;
                        sh.probe.sess_seq = sh.probe_seq;
                        sh.probe.sent = Some(Instant::now());
                        out.push((sh.ctl_seq, None, Command::Ping));
                        out.push((sh.probe_seq, Some(sh.probe_sid), Command::Ping));
                    }
                } else if let Some(d) = events.next() {
                    let measured = d.at >= window.0 && d.at < window.1;
                    let due = t0 + Duration::from_secs_f64(d.at);
                    let idle = sh.sessions[d.session].inflight.is_none();
                    sh.arrive(d.session, due, measured, &mut out);
                    if idle && measured {
                        // Lateness is wall-clock time: not calibrated.
                        let lag = Instant::now().saturating_duration_since(due);
                        sh.out.lags.push_us(lag.as_secs_f64() * 1e6);
                    }
                }
                drop(guard);
                flush(&tx, out)?;
            }
        })
    };
    sender
        .join()
        .map_err(|_| "sender thread panicked".to_string())??;
    let drain_end = Instant::now() + DRAIN;
    while shared.lock().expect("shared").busy() > 0 && Instant::now() < drain_end {
        std::thread::sleep(Duration::from_millis(5));
    }
    let ctl = {
        let mut sh = shared.lock().expect("shared");
        sh.stop = true;
        sh.ctl_seq += 1;
        sh.ctl_seq
    };
    send(&tx, ctl, None, Command::Ping)?;
    let rx = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_string())??;
    class.host.rx = Some(rx);
    let mut sh = shared.lock().expect("shared");
    // An arrival still unanswered after the drain timed out.
    let stuck: u64 = sh
        .sessions
        .iter()
        .map(|s| u64::from(s.inflight.as_ref().is_some_and(|f| f.measured)))
        .sum();
    for _ in 0..stuck {
        sh.out.tally.op(false);
    }
    Ok(std::mem::take(&mut sh.out))
}

/// Share of the host's workers the classroom's arrival rates keep busy,
/// from the engine self-time of a click and of a heavy resume measured
/// in this process (no transport, no queueing).
fn offered_utilization(seed: u64) -> f64 {
    use mi::Engine;
    let engine = |src: &str| {
        let p = minic::compile("c.c", src).expect("classroom programs compile");
        mi::minic_engine::MinicEngine::new(&p)
    };
    let mut student = engine(&perfbench::student_program(seed, 0).c);
    student.handle(Command::Start);
    student.handle(Command::SetBreakLine {
        line: perfbench::SORT_LINE,
    });
    student.handle(Command::Resume);
    let begin = Instant::now();
    for _ in 0..50 {
        student.handle(Command::Step);
        student.handle(Command::GetState);
    }
    let click = begin.elapsed().as_secs_f64() / 50.0;
    let mut heavy = engine(&perfbench::heavy_program().c);
    heavy.handle(Command::Start);
    heavy.handle(Command::Watch {
        variable: "mark".into(),
    });
    // The initializing store and the first iteration pause at once.
    heavy.handle(Command::Resume);
    heavy.handle(Command::Resume);
    let begin = Instant::now();
    for _ in 0..3 {
        heavy.handle(Command::Resume);
    }
    let resume = begin.elapsed().as_secs_f64() / 3.0;
    let busy = perfbench::STUDENTS as f64 * perfbench::STUDENT_RATE * click
        + perfbench::HEAVIES as f64 * perfbench::HEAVY_RATE * resume;
    busy / crate::deploy::HOST_WORKERS as f64
}

/// Refuses latencies measured by a saturated generator or host.
fn validity(out: &mut Outcome) -> Result<(), String> {
    let lag = out.lags.quantile_us(0.99);
    if lag > MAX_LAG_P99_US {
        return Err(format!(
            "load generator ran {lag:.0} us late at p99 (limit {MAX_LAG_P99_US} us): latencies not valid"
        ));
    }
    for (i, m) in out.backlog_marks.iter().enumerate() {
        if m.windows(2).all(|w| w[0] <= w[1]) && m[3] >= m[0] + 2 {
            return Err(format!(
                "session {i}'s backlog grew through the second half ({m:?}): latencies not valid"
            ));
        }
    }
    Ok(())
}

/// Runs the classroom and adds its per-layer metrics: click and heavy
/// resume latencies timed from their due times, the host's queue wait,
/// the generator's lateness, the offered load and the host's peak RSS.
///
/// # Errors
///
/// Set-up and transport failures, and a saturated (invalid) run.
pub fn probe(args: &RunArgs, tracing: &Tracing, report: &mut Report) -> Result<(), String> {
    let warmup = args.pick(WARMUP_SECS, 0.5);
    // A quick window still holds several heavy resumes (one per heavy
    // every 2 s).
    let measure = args.pick(MEASURE_SECS, 1.5);
    let schedule = perfbench::classroom_schedule(args.seed, warmup + measure);
    let mut class = tracing.time("classroom.set_up", || set_up(args.seed)).0?;
    let outcome = tracing
        .time("classroom.open_loop", || {
            drive(&mut class, &schedule, warmup, measure)
        })
        .0;
    let rss = harness::vm_hwm_mib(Some(class.host.pid()));
    class.host.shutdown();
    let mut out = outcome?;
    validity(&mut out)?;
    report.tally.merge(out.tally);
    for (name, samples) in [
        ("classroom.click", &mut out.clicks),
        ("classroom.resume", &mut out.resumes),
    ] {
        let n = samples.len();
        report.put(&format!("{name}_p50_us"), samples.quantile_us(0.5), n);
        report.put(&format!("{name}_p99_us"), samples.quantile_us(0.99), n);
    }
    let n = out.queue_wait.len();
    report.put("host.queue_wait_us.p50", out.queue_wait.quantile_us(0.5), n);
    report.put(
        "host.queue_wait_us.p99",
        out.queue_wait.quantile_us(0.99),
        n,
    );
    let n = out.lags.len();
    report.put("loadgen.lag_p99_us", out.lags.quantile_us(0.99), n);
    let (util, _) = tracing.time("classroom.offered_utilization", || {
        offered_utilization(args.seed)
    });
    report.put("host.offered_utilization", util, 1);
    report.put("classroom.peak_rss_mib", rss.unwrap_or(f64::NAN), 1);
    Ok(())
}
