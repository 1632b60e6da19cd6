//! Adversarial-tenant chaos: abusive sessions sharing a governed host
//! with innocent ones. Four abuser archetypes — a hot infinite loop, an
//! allocation bomb, a command-queue flood, and a wall-clock hog — plus
//! an admission flood hammering the session cap, all running against 16
//! innocent tenants in the same host.
//!
//! The governance contract under abuse:
//!
//! * every innocent finishes pause-for-pause byte-identical to its
//!   dedicated-engine oracle — neighbours' abuse is invisible;
//! * every abuser is stopped with a *typed* verdict — `ResourceExhausted`
//!   naming the budget, `QueueFull`, or `Overloaded` — never a hang;
//! * every frame an abuser sent gets exactly one reply — refusals are
//!   answered, not dropped.
//!
//! The abuser connections are also slow readers: they write their whole
//! attack before draining a single reply, so responses pile up in the
//! connection until the end (in-process channels are unbounded, so a
//! slow reader cannot wedge the host's reply path — that limitation is
//! what keeps this abuse shape safe to host).

use easytracker::{MiTracker, PauseReason, ProgramSpec, Supervision, Tracker};
use mi::transport::{duplex, ChannelTransport, FrameRx as _, FrameTx};
use mi::{
    Command, CommandFrame, HostConfig, HostHandle, MiError, Response, ResponseFrame, SessionHost,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const INNOCENTS: usize = 16;
/// Sessions the host admits: the innocents plus the four abusive ones.
/// The admission flood then attacks a genuinely full house.
const MAX_SESSIONS: usize = INNOCENTS + 4;

/// A loop too long to finish inside any budget used here.
const HOT_PROG: &str = "int main() {\n\
                        int i = 0;\n\
                        while (i < 2000000000) {\n\
                        i = i + 1;\n\
                        }\n\
                        return i;\n\
                        }\n";

/// Leaks a 4 KiB block per iteration; the live-heap gauge only climbs.
const BOMB_PROG: &str = "int main() {\n\
                         long* p = malloc(8);\n\
                         int i = 0;\n\
                         while (i < 1000000) {\n\
                         p = malloc(4096);\n\
                         i = i + 1;\n\
                         }\n\
                         return 0;\n\
                         }\n";

fn fast_supervision() -> Supervision {
    Supervision {
        deadline: Some(Duration::from_secs(10)),
        ping_deadline: Duration::from_millis(500),
        max_retries: 1,
        max_respawns: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        jitter_seed: 0xabad_7e4a_0000_0001,
    }
}

/// While set, no reply leaves the host on one abuser's wire: the host
/// thread that tries to send one waits, and a worker waiting there keeps
/// the session it is answering for.
#[derive(Clone, Default)]
struct Hold(Arc<(Mutex<bool>, Condvar)>);

impl Hold {
    fn set(&self, held: bool) {
        let (lock, cv) = &*self.0;
        *lock.lock().expect("hold") = held;
        cv.notify_all();
    }
}

/// The host's send half of an abuser wire, subject to its [`Hold`].
struct HeldTx<T> {
    inner: T,
    hold: Hold,
}

impl<T: FrameTx> FrameTx for HeldTx<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        let (lock, cv) = &*self.hold.0;
        drop(cv.wait_while(lock.lock().expect("hold"), |held| *held));
        self.inner.send(frame)
    }

    fn framing(&self) -> u64 {
        self.inner.framing()
    }
}

/// One abuser wire: frames out, replies left unread until the end.
struct Abuser {
    t: ChannelTransport,
    hold: Hold,
    sent: u64,
    consumed: u64,
    seq: u64,
}

impl Abuser {
    fn connect(host: &SessionHost) -> Self {
        let (a, b) = duplex();
        let (btx, brx) = b.split();
        let hold = Hold::default();
        let tx = HeldTx {
            inner: btx,
            hold: hold.clone(),
        };
        host.accept(brx, tx);
        Abuser {
            t: a,
            hold,
            sent: 0,
            consumed: 0,
            seq: 0,
        }
    }

    fn send(&mut self, session: Option<u64>, cmd: Command) {
        let frame = CommandFrame {
            seq: self.seq,
            cmd,
            trace: None,
            session,
        };
        self.seq += 1;
        self.sent += 1;
        self.t
            .send(&serde_json::to_vec(&frame).expect("frame encodes"))
            .expect("send");
    }

    fn recv(&mut self) -> ResponseFrame {
        let bytes = self
            .t
            .recv_deadline(Duration::from_secs(30))
            .expect("typed reply, not a hang");
        self.consumed += 1;
        serde_json::from_slice(&bytes).expect("response frame")
    }

    /// Opening is synchronous: the attack needs the session id back.
    fn open(&mut self, source: &str) -> u64 {
        self.send(
            None,
            Command::OpenSession {
                file: "abuse.c".into(),
                source: source.into(),
                opt: 0,
            },
        );
        match self.recv().resp {
            Response::SessionOpened { session } => session,
            other => panic!("expected SessionOpened, got {other:?}"),
        }
    }

    /// Arming budgets is synchronous too: the attack only tests the
    /// budget that was acknowledged before it started.
    fn arm(&mut self, session: u64, cmd: Command) {
        self.send(Some(session), cmd);
        let resp = self.recv().resp;
        assert!(matches!(resp, Response::Ok), "SetLimits failed: {resp:?}");
    }

    /// Drains exactly one reply per frame still outstanding and returns
    /// the response summaries, in order. A missing reply times out
    /// loudly — silent drops are the failure this asserts against.
    fn drain(mut self) -> Vec<String> {
        let outstanding = self.sent - self.consumed;
        (0..outstanding)
            .map(|_| self.recv().resp.summary())
            .collect()
    }
}

fn observe(t: &mut MiTracker, reason: &PauseReason) -> String {
    let mut obs = format!("pause={reason}");
    if reason.is_alive() {
        let state = t.get_state().expect("state");
        obs.push_str(" state=");
        obs.push_str(&serde_json::to_string(&state).expect("state serializes"));
    } else {
        obs.push_str(&format!(" exit={:?}", t.get_exit_code()));
    }
    obs
}

const MAX_STEPS: usize = 200;

/// The fault-free trace: a dedicated in-process engine, no host at all.
fn oracle(file: &str, source: &str) -> Vec<String> {
    let mut t = MiTracker::load_c(file, source).expect("oracle loads");
    let mut trace = Vec::new();
    let reason = t.start().expect("start");
    trace.push(observe(&mut t, &reason));
    let mut alive = reason.is_alive();
    while alive && trace.len() < MAX_STEPS {
        let reason = t.step().expect("step");
        trace.push(observe(&mut t, &reason));
        alive = reason.is_alive();
    }
    t.terminate();
    trace
}

fn limits(
    max_steps: Option<u64>,
    max_heap_bytes: Option<u64>,
    max_wall_ms: Option<u64>,
    max_queue_depth: Option<u64>,
) -> Command {
    Command::SetLimits {
        max_steps,
        max_heap_bytes,
        max_wall_ms,
        max_queue_depth,
    }
}

#[test]
fn governed_host_isolates_innocents_from_adversarial_tenants() {
    let registry = obs::Registry::new();
    let config = HostConfig {
        workers: 4,
        max_sessions: Some(MAX_SESSIONS),
        slice_steps: Some(2_000),
        ..HostConfig::default()
    };
    let host = SessionHost::with_config(config, registry.clone());
    let handle = HostHandle::connect_in_process(&host);

    // Innocent tenants and their oracles.
    let programs: Vec<(String, String)> = (0..INNOCENTS)
        .map(|i| {
            let program = conformance::gen::gen_program(0xabad_0000 + i as u64);
            (format!("good{i}.c"), conformance::gen::render_c(&program))
        })
        .collect();
    let oracles: Vec<Vec<String>> = programs
        .iter()
        .map(|(file, source)| oracle(file, source))
        .collect();
    let mut innocents: Vec<MiTracker> = programs
        .iter()
        .map(|(file, source)| {
            MiTracker::load_spec(
                ProgramSpec::new(file, source).via_host(&handle),
                obs::Registry::new(),
                fast_supervision(),
                None,
            )
            .expect("innocent session opens")
        })
        .collect();

    // Open and arm every abusive session first: with the 16 innocents
    // the house is now exactly full, and nothing has run yet, so no
    // slot can free up under the admission flood below.
    let mut hot = Abuser::connect(&host);
    let hot_sid = hot.open(HOT_PROG);
    hot.arm(hot_sid, limits(Some(150_000), None, None, None));

    let mut bomb = Abuser::connect(&host);
    let bomb_sid = bomb.open(BOMB_PROG);
    bomb.arm(bomb_sid, limits(None, Some(1 << 20), None, None));

    let mut flood = Abuser::connect(&host);
    let flood_sid = flood.open(HOT_PROG);
    flood.arm(flood_sid, limits(Some(150_000), None, None, Some(2)));

    let mut hog = Abuser::connect(&host);
    let hog_sid = hog.open(HOT_PROG);
    hog.arm(hog_sid, limits(None, None, Some(100), None));

    // Admission flood against the full house: every open is refused.
    // The replies are awaited before any attack fires: an abuser that
    // exhausts its budget is swept, which frees a slot, so the house is
    // only provably full until then.
    let mut gate = Abuser::connect(&host);
    for _ in 0..3 {
        gate.send(
            None,
            Command::OpenSession {
                file: "late.c".into(),
                source: HOT_PROG.into(),
                opt: 0,
            },
        );
    }
    let gate_replies = gate.drain();

    // Now fire the attacks, before the innocents run a single step, so
    // every innocent observation happens under contention.
    hot.send(Some(hot_sid), Command::Start);
    hot.send(Some(hot_sid), Command::Resume);
    bomb.send(Some(bomb_sid), Command::Start);
    bomb.send(Some(bomb_sid), Command::Resume);
    // 32 commands against a depth-2 queue. The flood's replies are held
    // until the host refuses one: the worker answering `Start` keeps the
    // session meanwhile, so `Resume` is still queued when the steps
    // arrive, however the threads are scheduled. Without the hold the
    // resume could exhaust its budget, and the session be swept, first.
    flood.hold.set(true);
    flood.send(Some(flood_sid), Command::Start);
    flood.send(Some(flood_sid), Command::Resume);
    for _ in 0..32 {
        flood.send(Some(flood_sid), Command::Step);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while registry.snapshot().counter("mi.host.rejected_queue_full") == 0 {
        assert!(
            Instant::now() < deadline,
            "the queue flood was never refused"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    flood.hold.set(false);
    hog.send(Some(hog_sid), Command::Start);
    hog.send(Some(hog_sid), Command::Resume);

    // Drive every innocent to completion, interleaved, under abuse.
    let mut traces: Vec<Vec<String>> = vec![Vec::new(); INNOCENTS];
    let mut alive = [true; INNOCENTS];
    for (i, t) in innocents.iter_mut().enumerate() {
        let reason = t.start().expect("start under abuse");
        traces[i].push(observe(t, &reason));
        alive[i] = reason.is_alive();
    }
    while alive.iter().any(|a| *a) {
        for (i, t) in innocents.iter_mut().enumerate() {
            if !alive[i] || traces[i].len() >= MAX_STEPS {
                alive[i] = false;
                continue;
            }
            let reason = t.step().expect("step under abuse");
            traces[i].push(observe(t, &reason));
            if !reason.is_alive() {
                alive[i] = false;
                t.terminate();
            }
        }
    }
    for (i, (trace, oracle)) in traces.iter().zip(oracles.iter()).enumerate() {
        assert_eq!(
            trace, oracle,
            "innocent {i} diverged from its oracle under adversarial load"
        );
    }

    // Every abuser got a typed stop, and one reply per frame sent.
    let hot_replies = hot.drain();
    assert!(
        hot_replies
            .iter()
            .any(|s| s.contains("ResourceExhausted(steps")),
        "hot loop must exhaust its step budget, got {hot_replies:?}"
    );
    let bomb_replies = bomb.drain();
    assert!(
        bomb_replies
            .iter()
            .any(|s| s.contains("ResourceExhausted(heap_bytes")),
        "alloc bomb must exhaust its heap budget, got {bomb_replies:?}"
    );
    let flood_replies = flood.drain();
    assert!(
        flood_replies.iter().any(|s| s.contains("QueueFull")),
        "queue flood must see QueueFull, got {flood_replies:?}"
    );
    assert!(
        flood_replies
            .iter()
            .any(|s| s.contains("ResourceExhausted(steps")),
        "the flooded session still exhausts its step budget, got {flood_replies:?}"
    );
    let hog_replies = hog.drain();
    assert!(
        hog_replies
            .iter()
            .any(|s| s.contains("ResourceExhausted(wall_ms")),
        "wall hog must exhaust its wall budget, got {hog_replies:?}"
    );
    assert_eq!(gate_replies.len(), 3);
    assert!(
        gate_replies.iter().all(|s| s.contains("Overloaded")),
        "every open past the cap is refused typed, got {gate_replies:?}"
    );

    // The governance machinery demonstrably fired.
    let snap = registry.snapshot();
    assert!(
        snap.counter("mi.host.preemptions") > 0,
        "no slice preempted"
    );
    assert!(
        snap.counter("mi.host.budget_exhausted") >= 3,
        "steps, heap, and wall budgets must all have tripped"
    );
    assert!(snap.counter("mi.host.rejected_queue_full") > 0);
    assert!(snap.counter("mi.host.rejected_overloaded") >= 3);

    // Exhausted abusers were swept; innocents closed themselves.
    assert_eq!(host.session_count(), 0, "no session may linger");
    host.shutdown();
}

/// One tenant's program nests 5 000 parentheses deep (about 10 KB): the
/// host builds it on its acceptor thread, whose 2 MiB stack a parser
/// without a nesting bound overflows, aborting the host process and
/// every session in it. The open must be refused, typed, and the host
/// and a session opened before it must not notice.
#[test]
fn a_deeply_nested_tenant_is_refused_without_disturbing_the_host() {
    let server = conformance::mi_server_bin().expect("mi_server builds");
    let host = HostHandle::spawn_process(server, 2).expect("host spawns");
    let program = conformance::gen::gen_program(0xabad_0100);
    let (file, source) = ("early.c", conformance::gen::render_c(&program));
    let expected = oracle(file, &source);
    let mut early = MiTracker::load_spec(
        ProgramSpec::new(file, &source).via_host(&host),
        obs::Registry::new(),
        fast_supervision(),
        None,
    )
    .expect("early session opens");
    let reason = early.start().expect("start");
    let mut trace = vec![observe(&mut early, &reason)];

    // Nested parentheses, and a chain of operators the parser builds in
    // a loop rather than by recursion.
    let nested = format!(
        "int main() {{\nreturn {}1{};\n}}\n",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    let chain = format!("int main() {{\nreturn 1{};\n}}\n", " + 1".repeat(100_000));
    for deep in [nested, chain] {
        match host.open_session("evil.c", &deep, Some(Duration::from_secs(10))) {
            Err(MiError::Engine(message)) => {
                assert!(message.contains("nesting too deep"), "{message}");
            }
            Err(other) => panic!("refused untyped: {other}"),
            Ok(session) => panic!("opened session {}", session.session_id()),
        }
        assert_eq!(host.respawns(), 0, "the host died");
    }

    let mut alive = reason.is_alive();
    while alive && trace.len() < MAX_STEPS {
        let reason = early.step().expect("step");
        trace.push(observe(&mut early, &reason));
        alive = reason.is_alive();
    }
    assert_eq!(
        trace, expected,
        "the early session diverged from its oracle"
    );
    assert_eq!(early.respawns(), 0);
    assert_eq!(host.respawns(), 0);
    early.terminate();
}
