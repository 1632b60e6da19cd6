//! Supervised-session integration tests against a real `mi-server`
//! child process: the engine is killed with SIGKILL mid-session, stalled
//! with SIGSTOP, or replaced by a binary that dies on arrival, and the
//! tracker must respawn transparently, expire deadlines instead of
//! hanging, or degrade explicitly once the respawn budget is spent.

use easytracker::{MiTracker, ProgramSpec, Supervision, Tracker, TrackerError};
use std::time::{Duration, Instant};

const PROGRAM: &str = "int main() {\n\
                       int x = 1;\n\
                       puts(\"alpha\");\n\
                       x = x + 1;\n\
                       puts(\"beta\");\n\
                       x = x + 1;\n\
                       puts(\"gamma\");\n\
                       return 7;\n\
                       }\n";

fn fast_supervision() -> Supervision {
    Supervision {
        deadline: Some(Duration::from_secs(10)),
        ping_deadline: Duration::from_millis(500),
        max_retries: 1,
        max_respawns: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        jitter_seed: 0x5eed_0f5e_55e5_0001,
    }
}

fn signal(pid: u32, sig: &str) {
    let status = std::process::Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill {sig} {pid} failed");
}

/// Fault-free reference behaviour of [`PROGRAM`] over the in-process
/// channel: `(output, exit code)` after running to completion.
fn reference_run() -> (String, Option<i64>) {
    let mut t = MiTracker::load_c("sup.c", PROGRAM).expect("load");
    t.start().expect("start");
    let mut reason = t.resume().expect("resume");
    while reason.is_alive() {
        reason = t.resume().expect("resume");
    }
    let out = t.get_output().expect("output");
    let exit = t.get_exit_code();
    t.terminate();
    (out, exit)
}

/// SIGKILL mid-session: the next engine request classifies the death as
/// [`TrackerError`]-visible only if recovery fails — here it must not;
/// the supervisor respawns, replays the journal, and the session runs to
/// the same output and exit code as a fault-free run.
#[test]
fn sigkill_mid_session_is_survived_by_one_respawn() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let (want_out, want_exit) = reference_run();

    let reg = obs::Registry::new();
    let mut t = MiTracker::load_spec(
        ProgramSpec::c("sup.c", PROGRAM).via_server(&server),
        reg.clone(),
        fast_supervision(),
        None,
    )
    .expect("process-deployed load");
    t.start().expect("start");
    t.step().expect("one clean step");

    let pid = t.engine_pid().expect("process deployment has a pid");
    signal(pid, "-KILL");
    // Let the SIGKILL land so the next request sees a dead engine rather
    // than racing an in-flight reply.
    std::thread::sleep(Duration::from_millis(100));

    // Transparent recovery: no call here is allowed to error.
    let mut reason = t.resume().expect("resume across the kill");
    while reason.is_alive() {
        reason = t.resume().expect("resume");
    }
    assert_eq!(t.get_output().expect("output"), want_out);
    assert_eq!(t.get_exit_code(), want_exit);
    assert_eq!(t.respawns(), 1, "exactly one respawn should repair this");
    assert_ne!(t.engine_pid(), Some(pid), "a fresh engine process");
    t.terminate();

    let snap = reg.snapshot();
    assert_eq!(snap.counter("mi.respawns"), 1);
    assert!(
        snap.histogram("mi.supervisor.recovery").is_some(),
        "recovery latency not recorded"
    );
}

/// Every engine death leaves a post-mortem: after a SIGKILL (even one
/// the supervisor survives), a flight-recorder dump must exist on disk
/// naming the command that hit the dead engine, the last observed pause
/// reason, and the respawn count.
#[test]
fn sigkill_leaves_a_flight_recorder_dump() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let dumps = std::env::temp_dir().join(format!("easytracker-dump-test-{}", std::process::id()));
    let reg = obs::Registry::new();
    let mut t = MiTracker::load_spec(
        ProgramSpec::c("sup.c", PROGRAM).via_server(&server),
        reg.clone(),
        fast_supervision(),
        None,
    )
    .expect("process-deployed load");
    t.set_dump_dir(&dumps);
    t.start().expect("start");
    t.step().expect("one clean step");
    let last_pause = format!("{}", t.pause_reason());

    let pid = t.engine_pid().expect("pid");
    signal(pid, "-KILL");
    std::thread::sleep(Duration::from_millis(100));
    t.resume().expect("resume across the kill");

    let path = t
        .last_flight_dump()
        .expect("a post-mortem dump was written")
        .to_path_buf();
    let text = std::fs::read_to_string(&path).expect("dump is readable");
    let dump = obs::FlightDump::from_json(&text).expect("dump parses");
    assert_eq!(dump.side, "tracker");
    assert_eq!(
        dump.last_command, "Resume",
        "the dump names the command that hit the dead engine"
    );
    assert_eq!(dump.last_pause, last_pause, "the last pause before death");
    assert_eq!(dump.respawns, 1, "the dump names the respawn count");
    assert!(dump.log.last_of("respawn").is_some());
    assert!(dump.log.last_of("fault").is_some());
    assert_eq!(reg.snapshot().counter("mi.flight_dumps"), 1);
    t.terminate();
    let _ = std::fs::remove_dir_all(dumps);
}

/// `Command::Telemetry` is journal-safe: a drain before an engine death
/// and a drain after recovery mirror the engine's counters with *set*
/// semantics onto a rewound cursor, so a killed-and-replayed session
/// ends with exactly the same mirrored values as a fault-free one.
#[test]
fn telemetry_drains_stay_journal_safe_across_a_respawn() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let run_to_exit = |t: &mut MiTracker| {
        let mut reason = t.resume().expect("resume");
        while reason.is_alive() {
            reason = t.resume().expect("resume");
        }
    };

    // Fault-free reference: what the engine-side counters look like at
    // program exit.
    let ref_reg = obs::Registry::new();
    let mut r = MiTracker::load_spec(
        ProgramSpec::c("sup.c", PROGRAM).via_server(&server),
        ref_reg.clone(),
        fast_supervision(),
        None,
    )
    .expect("load");
    r.start().expect("start");
    run_to_exit(&mut r);
    r.drain_telemetry().expect("drain");
    r.terminate();
    let want_ops = ref_reg.snapshot().gauge("engine.vm.minic.ops");
    assert!(want_ops > 0, "the reference run mirrored engine stats");

    // Faulty run: drain mid-session, lose the engine, recover, drain
    // again at exit.
    let reg = obs::Registry::new();
    let mut t = MiTracker::load_spec(
        ProgramSpec::c("sup.c", PROGRAM).via_server(&server),
        reg.clone(),
        fast_supervision(),
        None,
    )
    .expect("load");
    t.start().expect("start");
    t.step().expect("step");
    t.drain_telemetry().expect("mid-session drain");
    assert!(reg.snapshot().gauge("engine.vm.minic.ops") > 0);

    let pid = t.engine_pid().expect("pid");
    signal(pid, "-KILL");
    std::thread::sleep(Duration::from_millis(100));
    run_to_exit(&mut t);
    assert_eq!(t.respawns(), 1);
    t.drain_telemetry().expect("post-recovery drain");
    assert_eq!(
        reg.snapshot().gauge("engine.vm.minic.ops"),
        want_ops,
        "mirrored engine counters neither lost nor double-counted across the respawn"
    );
    t.terminate();
}

/// A respawned engine re-arms the profiler from the journal: `SetProfile`
/// is journaled as configuration and replayed before `Start`, so the
/// re-executed session profiles from unit zero and the drained report at
/// exit matches a fault-free run exactly.
#[test]
fn respawned_sessions_rearm_the_profiler_from_the_journal() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let run_to_exit = |t: &mut MiTracker| {
        let mut reason = t.resume().expect("resume");
        while reason.is_alive() {
            reason = t.resume().expect("resume");
        }
    };
    let script = |t: &mut MiTracker, kill: bool| -> obs::ProfileReport {
        t.set_profile(obs::ProfileMode::Counting, 0)
            .expect("arm profiler");
        t.start().expect("start");
        t.step().expect("step");
        if kill {
            let pid = t.engine_pid().expect("pid");
            signal(pid, "-KILL");
            std::thread::sleep(Duration::from_millis(100));
        }
        run_to_exit(t);
        let report = t.profile().expect("profile");
        t.terminate();
        report
    };
    let load = || {
        MiTracker::load_spec(
            ProgramSpec::c("sup.c", PROGRAM).via_server(&server),
            obs::Registry::new(),
            fast_supervision(),
            None,
        )
        .expect("load")
    };

    let reference = script(&mut load(), false);
    assert!(!reference.is_empty(), "reference run produced a profile");

    let mut t = load();
    let recovered = script(&mut t, true);
    assert_eq!(t.respawns(), 1, "the kill forced exactly one respawn");
    assert_eq!(
        serde_json::to_string(&recovered).expect("serialize"),
        serde_json::to_string(&reference).expect("serialize"),
        "the respawned engine re-armed the profiler and re-counted the session"
    );
}

/// SIGSTOP stall: the stalled engine expires the per-command deadline —
/// the call returns within a bound instead of blocking forever — then the
/// heartbeat confirms the boundary is wedged and a respawn repairs it.
#[test]
fn sigstop_stall_expires_the_deadline_and_respawns() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let reg = obs::Registry::new();
    let mut cfg = fast_supervision();
    cfg.deadline = Some(Duration::from_millis(300));
    cfg.ping_deadline = Duration::from_millis(150);
    let mut t = MiTracker::load_spec(
        ProgramSpec::c("sup.c", PROGRAM).via_server(&server),
        reg.clone(),
        cfg,
        None,
    )
    .expect("process-deployed load");
    t.start().expect("start");

    let pid = t.engine_pid().expect("pid");
    signal(pid, "-STOP");

    // Worst case before recovery kicks in: (1 + retries) command
    // deadlines + the heartbeat probe + respawn and journal replay.
    let begin = Instant::now();
    let state = t.get_state().expect("inspection across the stall");
    let elapsed = begin.elapsed();
    assert_eq!(state.frame.name(), "main");
    assert!(
        elapsed < Duration::from_secs(10),
        "call blocked far past its deadline: {elapsed:?}"
    );
    assert!(t.respawns() >= 1, "a stalled engine must be replaced");
    t.terminate();

    let snap = reg.snapshot();
    assert!(snap.counter("mi.retries") >= 1, "idempotent retry missing");
    assert!(
        snap.counter("mi.heartbeat_misses") >= 1,
        "the wedged boundary should miss at least one heartbeat"
    );
    assert!(snap.counter("mi.respawns") >= 1);
}

/// An engine binary that dies on arrival: every respawn fails the same
/// way, the budget runs out, and the session degrades with a typed error
/// — and stays degraded — instead of retrying forever.
#[test]
fn respawn_storm_exhausts_the_budget_and_degrades() {
    let false_bin = ["/bin/false", "/usr/bin/false"]
        .iter()
        .find(|p| std::path::Path::new(p).is_file())
        .expect("a `false` binary somewhere");
    let reg = obs::Registry::new();
    let cfg = fast_supervision();
    let budget = cfg.max_respawns;
    let mut t = MiTracker::load_spec(
        ProgramSpec::c("sup.c", PROGRAM).via_server(std::path::Path::new(false_bin)),
        reg.clone(),
        cfg,
        None,
    )
    .expect("spawn itself succeeds; death is discovered on first use");

    let begin = Instant::now();
    match t.start() {
        Err(TrackerError::SessionDegraded(reason)) => {
            assert!(
                reason.contains("respawn"),
                "degradation reason should name the exhausted budget: {reason}"
            );
        }
        other => panic!("expected SessionDegraded, got {other:?}"),
    }
    assert!(
        begin.elapsed() < Duration::from_secs(30),
        "degradation must come promptly, not after unbounded retries"
    );
    assert_eq!(t.respawns(), budget);
    assert_eq!(reg.snapshot().counter("mi.respawns"), u64::from(budget));

    // Sticky: later requests fail the same way without new respawns.
    match t.get_state() {
        Err(TrackerError::SessionDegraded(_)) => {}
        other => panic!("degradation must be sticky, got {other:?}"),
    }
    assert_eq!(t.respawns(), budget, "no further respawn attempts");
    t.terminate();
}

/// A wedged child cannot answer the farewell `Terminate`, so it will not
/// exit on its own: `terminate()` kills it once the farewell's deadline
/// passes instead of also waiting out the exit grace of a healthy child.
#[test]
fn terminate_kills_a_wedged_child_without_the_exit_grace() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let mut t = MiTracker::load_spec(
        ProgramSpec::c("sup.c", PROGRAM).via_server(&server),
        obs::Registry::new(),
        fast_supervision(),
        None,
    )
    .expect("process-deployed load");
    t.start().expect("start");
    let pid = t.engine_pid().expect("pid");
    signal(pid, "-STOP");
    let begin = Instant::now();
    t.terminate();
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "terminate took {elapsed:?} on a wedged child"
    );
}
