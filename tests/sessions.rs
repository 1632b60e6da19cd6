//! Multi-session host integration tests against a real `mi-server
//! --host` child process: many concurrent supervised sessions multiplex
//! over one engine process, and each must behave byte-for-byte like a
//! session that owns a dedicated process.

use easytracker::{MiTracker, PauseReason, ProgramSpec, Supervision, Tracker};
use mi::HostHandle;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn server_bin() -> PathBuf {
    conformance::mi_server_bin().expect("mi_server binary builds")
}

fn fast_supervision() -> Supervision {
    Supervision {
        deadline: Some(Duration::from_secs(10)),
        ping_deadline: Duration::from_millis(500),
        max_retries: 1,
        max_respawns: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        jitter_seed: 0x5e55_10f5_0000_0001,
    }
}

fn load_hosted(host: &HostHandle, file: &str, source: &str) -> MiTracker {
    MiTracker::load_spec(
        ProgramSpec::c(file, source).via_host(host),
        obs::Registry::new(),
        fast_supervision(),
        None,
    )
    .expect("hosted session opens")
}

/// One observation per pause: the reason plus the full serialized state
/// snapshot. Byte-identical across deployments or the test fails.
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

const MAX_STEPS: usize = 300;

/// Runs the whole step/inspect script solo — one tracker, one dedicated
/// `mi-server` child — and returns the observation trace: the oracle.
fn solo_oracle(file: &str, source: &str) -> Vec<String> {
    let mut t = MiTracker::load_spec(
        ProgramSpec::c(file, source).via_server(&server_bin()),
        obs::Registry::new(),
        fast_supervision(),
        None,
    )
    .expect("solo session spawns");
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

/// The tentpole proof: ≥8 concurrent sessions in ONE host child,
/// advanced in interleaved lockstep (round-robin, one step per pass),
/// each checked pause-for-pause against its solo-process oracle run.
/// The generated programs have different lengths, so sessions complete
/// out of order while their neighbours keep stepping — a finished or
/// terminated session must never disturb a live one.
#[test]
fn interleaved_sessions_match_solo_process_oracles() {
    const N: usize = 8;
    let programs: Vec<(String, String)> = (0..N)
        .map(|i| {
            let program = conformance::gen::gen_program(0xc0de + i as u64);
            (format!("lock{i}.c"), conformance::gen::render_c(&program))
        })
        .collect();
    let oracles: Vec<Vec<String>> = programs
        .iter()
        .map(|(file, source)| solo_oracle(file, source))
        .collect();

    let host = HostHandle::spawn_process(server_bin(), 4).expect("host spawns");
    let mut sessions: Vec<MiTracker> = programs
        .iter()
        .map(|(file, source)| load_hosted(&host, file, source))
        .collect();
    let mut traces: Vec<Vec<String>> = vec![Vec::new(); N];
    let mut alive = [true; N];
    for (i, t) in sessions.iter_mut().enumerate() {
        let reason = t.start().expect("start");
        traces[i].push(observe(t, &reason));
        alive[i] = reason.is_alive();
    }
    let mut finished_order: Vec<usize> = Vec::new();
    while alive.iter().any(|a| *a) {
        for (i, t) in sessions.iter_mut().enumerate() {
            if !alive[i] || traces[i].len() >= MAX_STEPS {
                alive[i] = false;
                continue;
            }
            let reason = t.step().expect("step");
            traces[i].push(observe(t, &reason));
            if !reason.is_alive() {
                alive[i] = false;
                finished_order.push(i);
                // Ending one tenant mid-interleave must not perturb the
                // others (their traces are checked below).
                t.terminate();
            }
        }
    }
    for (i, (trace, oracle)) in traces.iter().zip(oracles.iter()).enumerate() {
        assert_eq!(trace, oracle, "session {i} diverged from its solo oracle");
    }
    // Different program lengths really did finish out of order (sorted
    // order would mean the interleave degenerated to sequential runs).
    let mut sorted = finished_order.clone();
    sorted.sort_unstable();
    assert!(
        finished_order.len() > 1 && finished_order != sorted,
        "expected out-of-order completion, got {finished_order:?}"
    );
}

/// Per-session config is invisible to the neighbours: a breakpoint, the
/// sanitizer, and a profiler armed in session A never fire in session B
/// sharing the same host process.
#[test]
fn session_config_does_not_leak_between_tenants() {
    const PROG: &str = "int f(int n) { return n + 1; }\n\
                        int main() {\n\
                        int x = 0;\n\
                        x = f(x);\n\
                        x = f(x);\n\
                        return x;\n\
                        }\n";
    let host = HostHandle::spawn_process(server_bin(), 2).expect("host spawns");
    let mut a = load_hosted(&host, "iso.c", PROG);
    let mut b = load_hosted(&host, "iso.c", PROG);

    // Arm everything in A only.
    a.break_before_func("f", None).expect("breakpoint");
    a.set_sanitizer(true).expect("sanitizer");
    a.set_profile(obs::ProfileMode::Counting, 1)
        .expect("profiler");

    a.start().expect("start a");
    b.start().expect("start b");
    // A pauses at its breakpoint on f; B runs straight to exit.
    let ra = a.resume().expect("resume a");
    assert!(
        matches!(ra, PauseReason::Breakpoint { .. }),
        "A must hit its own breakpoint, got {ra}"
    );
    let rb = b.resume().expect("resume b");
    assert!(
        matches!(rb, PauseReason::Exited(_)),
        "B must run to exit untouched by A's breakpoint, got {rb}"
    );
    assert_eq!(b.get_exit_code(), Some(2));
    // A's profiler counted units; B's was never armed and reports none.
    while a.resume().expect("resume a").is_alive() {}
    let pa = a.profile().expect("profile a");
    assert!(pa.units > 0, "A's profiler must have counted");
    let pb = b.profile().expect("profile b");
    assert_eq!(pb.units, 0, "B's profiler was never armed");
    a.terminate();
    b.terminate();
}

/// Satellite fix regression: `Telemetry{since}` and
/// `ProfileReport{since}` cursors are per-session. Two sessions draining
/// interleaved must each see their own engine's events exactly once —
/// a shared cursor would skip or repeat.
#[test]
fn telemetry_and_profile_cursors_are_independent_across_sessions() {
    const PROG: &str = "int main() {\n\
                        int i = 0;\n\
                        while (i < 6) {\n\
                        i = i + 1;\n\
                        }\n\
                        return i;\n\
                        }\n";
    let host = HostHandle::spawn_process(server_bin(), 2).expect("host spawns");
    let mut a = load_hosted(&host, "cur.c", PROG);
    let mut b = load_hosted(&host, "cur.c", PROG);
    a.set_profile(obs::ProfileMode::Counting, 1)
        .expect("profile a");
    b.set_profile(obs::ProfileMode::Counting, 1)
        .expect("profile b");
    a.start().expect("start a");
    b.start().expect("start b");

    // Interleave: A steps + drains, then B, then A again. Cursor leakage
    // would make one session's drain advance the other's.
    let mut a_events = 0usize;
    let mut b_events = 0usize;
    let mut a_units = 0u64;
    let mut b_units = 0u64;
    for round in 0..6 {
        for (t, events, units) in [
            (&mut a, &mut a_events, &mut a_units),
            (&mut b, &mut b_events, &mut b_units),
        ] {
            if t.pause_reason().is_alive() {
                t.step().expect("step");
            }
            let frame = t.drain_telemetry().expect("telemetry");
            *events += frame.events.len();
            let report = t.profile().expect("profile");
            assert!(
                report.units >= *units,
                "round {round}: profile cursor went backwards"
            );
            *units = report.units;
        }
    }
    assert!(a_events > 0, "A drained none of its own events");
    assert!(b_events > 0, "B drained none of its own events");
    assert!(a_units > 0 && b_units > 0, "profilers must both count");
    // Draining A again immediately returns nothing new: its cursor was
    // not rewound by B's drains.
    let again = a.drain_telemetry().expect("telemetry");
    assert_eq!(
        again.events.len(),
        0,
        "A's cursor was disturbed by B's drains"
    );
    a.terminate();
    b.terminate();
}

/// Recovery matrix, session half: a session swept out of a *live* host
/// (here: closed out from under its tracker) is re-established inside
/// the same host process by journal replay — the host child itself is
/// not respawned.
#[test]
fn dead_session_is_respawned_inside_the_live_host() {
    const PROG: &str = "int main() {\n\
                        int x = 1;\n\
                        puts(\"alpha\");\n\
                        x = x + 1;\n\
                        puts(\"beta\");\n\
                        return x;\n\
                        }\n";
    let host = HostHandle::spawn_process(server_bin(), 2).expect("host spawns");
    let mut t = load_hosted(&host, "resp.c", PROG);
    t.start().expect("start");
    t.step().expect("step");
    let pid_before = host.host_pid().expect("host child pid");
    let sid_before = t.host_session_id().expect("hosted session");

    // Sweep the session out from under its tracker, as a host would
    // after e.g. the session's other endpoint vanished.
    host.close_session(sid_before);

    // The next command sees the typed SessionGone, classifies it as
    // engine loss, re-opens a session in the SAME host child, replays
    // the journal (start + step), and serves the command.
    let mut reason = t.step().expect("step after sweep");
    while reason.is_alive() {
        reason = t.resume().expect("resume");
    }
    assert_eq!(t.get_exit_code(), Some(2));
    assert_eq!(t.get_output().expect("output"), "alpha\nbeta\n");
    assert_eq!(t.respawns(), 1, "exactly one session re-establishment");
    assert_eq!(
        host.host_pid().expect("host still alive"),
        pid_before,
        "the host child must not be respawned for a session-level death"
    );
    assert_ne!(
        t.host_session_id().expect("re-opened session"),
        sid_before,
        "session ids are never recycled"
    );
    t.terminate();
}

/// Recovery matrix, process half: SIGKILL the host child and every
/// session re-establishes — the first tracker to notice respawns the
/// whole process, each tracker re-opens its own session via journal
/// replay, and both finish with oracle-identical results.
#[test]
fn dead_host_is_respawned_with_every_session_reestablished() {
    const PROG: &str = "int main() {\n\
                        int x = 0;\n\
                        x = x + 2;\n\
                        puts(\"tick\");\n\
                        x = x + 3;\n\
                        return x;\n\
                        }\n";
    let host = HostHandle::spawn_process(server_bin(), 2).expect("host spawns");
    let mut a = load_hosted(&host, "ha.c", PROG);
    let mut b = load_hosted(&host, "hb.c", PROG);
    a.start().expect("start a");
    b.start().expect("start b");
    a.step().expect("step a");
    let pid_before = host.host_pid().expect("host child pid");

    let status = std::process::Command::new("kill")
        .args(["-KILL", &pid_before.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());
    // Wait for the OS to reap visibility of the death.
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.engine_died().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    for (name, t) in [("a", &mut a), ("b", &mut b)] {
        let mut reason = t.step().expect("step after host kill");
        while reason.is_alive() {
            reason = t.resume().expect("resume");
        }
        assert_eq!(t.get_exit_code(), Some(5), "session {name}");
        assert_eq!(t.get_output().expect("output"), "tick\n", "session {name}");
        assert_eq!(t.respawns(), 1, "session {name}");
    }
    assert_ne!(
        host.host_pid().expect("respawned host"),
        pid_before,
        "a new host child must be serving"
    );
    assert_eq!(host.respawns(), 1, "one whole-process respawn, shared");
    a.terminate();
    b.terminate();
}

/// Satellite fix regression: one client's connection dying mid-command
/// ends *its* sessions with a per-session peer-closed end — the host
/// keeps serving every other connection (no host-fatal exit path).
#[test]
fn client_death_mid_command_spares_other_connections() {
    const SLOW: &str = "int main() {\n\
                        int i = 0;\n\
                        while (i < 100000) {\n\
                        i = i + 1;\n\
                        }\n\
                        return 1;\n\
                        }\n";
    const QUICK: &str = "int main() { return 7; }";
    let host = mi::SessionHost::new(2);
    let doomed = HostHandle::connect_in_process(&host);
    let survivor = HostHandle::connect_in_process(&host);

    drop(doomed);
    let mut bystander = load_hosted(&survivor, "quick.c", QUICK);
    bystander.start().expect("start bystander");

    // The doomed client speaks the raw wire so its transport can be
    // severed while a command is mid-flight in a worker.
    let (mut wire, far) = mi::transport::duplex();
    let (ftx, frx) = far.split();
    host.accept(frx, ftx);
    fn send(
        wire: &mut mi::transport::ChannelTransport,
        seq: u64,
        session: Option<u64>,
        cmd: mi::Command,
    ) {
        use mi::transport::FrameTx as _;
        let bytes = serde_json::to_vec(&mi::CommandFrame {
            seq,
            cmd,
            trace: None,
            session,
        })
        .expect("frame encodes");
        wire.send(&bytes).expect("send");
    }
    fn recv(wire: &mut mi::transport::ChannelTransport) -> mi::ResponseFrame {
        use mi::transport::FrameRx as _;
        let bytes = wire
            .recv_deadline(Duration::from_secs(10))
            .expect("host reply");
        serde_json::from_slice(&bytes).expect("response frame")
    }
    send(
        &mut wire,
        0,
        None,
        mi::Command::OpenSession {
            file: "slow.c".into(),
            source: SLOW.into(),
            opt: 0,
        },
    );
    let sid = match recv(&mut wire).resp {
        mi::Response::SessionOpened { session } => session,
        other => panic!("expected SessionOpened, got {other:?}"),
    };
    send(&mut wire, 1, Some(sid), mi::Command::Start);
    assert!(matches!(recv(&mut wire).resp, mi::Response::Paused(_)));
    // Fire the long-running resume, then kill the client with the
    // command still executing in a worker.
    send(&mut wire, 2, Some(sid), mi::Command::Resume);
    std::thread::sleep(Duration::from_millis(20));
    drop(wire);

    // The other connection keeps being served throughout and after.
    let reason = bystander.resume().expect("bystander resume");
    assert!(matches!(reason, PauseReason::Exited(_)));
    assert_eq!(bystander.get_exit_code(), Some(7));

    // The victim's session ends as a per-session peer-closed end; the
    // bystander's session is still in the table.
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.session_count() != 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(host.session_count(), 1);
    let snap = host.registry().snapshot();
    assert!(
        snap.counter("mi.host.session_end.peer_closed") >= 1,
        "the victim's end must be accounted as peer_closed"
    );
    bystander.terminate();
    host.shutdown();
}
