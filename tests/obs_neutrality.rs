//! Observability must be observation only: wiring a registry (with or
//! without sinks) through a tracker must not change a single bit of the
//! abstract state the tool sees, and the no-sink configuration must stay
//! cheap enough to leave on everywhere.

use easytracker::{init_tracker, init_tracker_with_registry, MiTracker, PauseReason, Tracker};

const C_PROG: &str = "int square(int x) {\nreturn x * x;\n}\nint main() {\nint s = 0;\nfor (int i = 1; i <= 3; i++) {\ns += square(i);\n}\nreturn s;\n}";

const PY_PROG: &str =
    "def square(x):\n    return x * x\ns = 0\nfor i in [1, 2, 3]:\n    s = s + square(i)\n";

/// Runs the same control script on a tracker and returns everything a tool
/// could observe, serialized: pause reasons, full state snapshots, output
/// and the exit code. Does not terminate, so callers can drain diagnostics
/// (like a profile) after the fact.
fn run_script(tracker: &mut dyn Tracker) -> Vec<String> {
    let mut log = Vec::new();
    let r = tracker.start().unwrap();
    log.push(format!("start: {r}"));
    tracker.track_function("square", None).unwrap();
    loop {
        let r = tracker.resume().unwrap();
        log.push(format!("resume: {r}"));
        if matches!(r, PauseReason::Exited(_)) {
            break;
        }
        let state = tracker.get_state().unwrap();
        log.push(serde_json::to_string(&state).unwrap());
        if let Some(v) = tracker.get_variable("s").unwrap() {
            log.push(serde_json::to_string(&v).unwrap());
        }
    }
    log.push(format!("exit: {:?}", tracker.get_exit_code()));
    log.push(format!("output: {:?}", tracker.get_output().unwrap()));
    log
}

fn observe(tracker: &mut dyn Tracker) -> Vec<String> {
    let log = run_script(tracker);
    tracker.terminate();
    log
}

/// [`run_script`] with the in-engine profiler armed before start; returns
/// the observation log plus the drained profile.
fn observe_profiled(
    tracker: &mut dyn Tracker,
    mode: obs::ProfileMode,
    period: u64,
) -> (Vec<String>, obs::ProfileReport) {
    tracker.set_profile(mode, period).unwrap();
    let log = run_script(tracker);
    let report = tracker.profile().unwrap();
    tracker.terminate();
    (log, report)
}

fn run_plain(file: &str, source: &str) -> Vec<String> {
    observe(&mut *init_tracker(file, source).unwrap())
}

fn run_with(file: &str, source: &str, session: &obs::Session) -> Vec<String> {
    observe(&mut *init_tracker_with_registry(file, source, session.registry()).unwrap())
}

#[test]
fn c_states_identical_with_and_without_obs() {
    let plain = run_plain("n.c", C_PROG);
    let sinkless = run_with("n.c", C_PROG, &obs::Session::without_sinks());
    let full = obs::Session::new();
    let traced = run_with("n.c", C_PROG, &full);
    assert_eq!(plain, sinkless);
    assert_eq!(plain, traced);
    // ... and the instrumented run really did instrument.
    let snap = full.snapshot();
    assert!(snap.histogram("tracker.control.Resume").is_some());
    assert!(snap.gauge("mi.client.bytes_sent") > 0);
    assert!(full.trace_len() > 0);
}

#[test]
fn py_states_identical_with_and_without_obs() {
    let plain = run_plain("n.py", PY_PROG);
    let sinkless = run_with("n.py", PY_PROG, &obs::Session::without_sinks());
    let full = obs::Session::new();
    let traced = run_with("n.py", PY_PROG, &full);
    assert_eq!(plain, sinkless);
    assert_eq!(plain, traced);
    let snap = full.snapshot();
    assert!(snap.histogram("tracker.control.Resume").is_some());
    assert!(snap.counter("vm.minipy.trace_hooks") > 0);
}

#[test]
fn asm_tracker_reports_through_the_same_registry() {
    // A subset of the quickstart fib program: enough to verify the asm
    // MI engine publishes its VM stats like the minic engine does.
    let asm = "main:\n    li a0, 3\n    addi a0, a0, 4\n    li a7, 93\n    ecall\n";
    let session = obs::Session::new();
    let mut t = init_tracker_with_registry("n.s", asm, session.registry()).unwrap();
    t.start().unwrap();
    while t.get_exit_code().is_none() {
        t.step().unwrap();
    }
    t.terminate();
    let snap = session.snapshot();
    assert!(snap.gauge("vm.miniasm.instret") > 0);
    assert!(snap.histogram("tracker.control.Step").is_some());
    assert!(snap.gauge("mi.client.bytes_sent") > 0);
    assert!(snap.counter_prefix_sum("mi.server.cmd.") > 0);
}

/// The [`observe`] script over an [`MiTracker`], optionally draining
/// engine telemetry between every control step. The drain results are
/// deliberately *not* part of the observation — only what a tool sees.
fn observe_mi(tracker: &mut MiTracker, drain: bool) -> Vec<String> {
    let mut log = Vec::new();
    let r = tracker.start().unwrap();
    log.push(format!("start: {r}"));
    if drain {
        tracker.drain_telemetry().unwrap();
    }
    tracker.track_function("square", None).unwrap();
    loop {
        if drain {
            tracker.drain_telemetry().unwrap();
        }
        let r = tracker.resume().unwrap();
        log.push(format!("resume: {r}"));
        if matches!(r, PauseReason::Exited(_)) {
            break;
        }
        let state = tracker.get_state().unwrap();
        log.push(serde_json::to_string(&state).unwrap());
        if let Some(v) = tracker.get_variable("s").unwrap() {
            log.push(serde_json::to_string(&v).unwrap());
        }
        if drain {
            tracker.drain_telemetry().unwrap();
        }
    }
    log.push(format!("exit: {:?}", tracker.get_exit_code()));
    log.push(format!("output: {:?}", tracker.get_output().unwrap()));
    tracker.terminate();
    log
}

/// Engine-side neutrality: draining `Command::Telemetry` mid-session —
/// against a real `mi-server` child with its own registry — must not
/// perturb VM state, pause order, or serialized snapshots, lockstep
/// against an undrained run of the same program.
#[test]
fn telemetry_drains_do_not_perturb_the_session() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let spec = || easytracker::ProgramSpec::new("n.c", C_PROG).via_server(&server);
    let load = |reg: obs::Registry| {
        MiTracker::load_spec(spec(), reg, easytracker::Supervision::default(), None).unwrap()
    };
    let undrained = observe_mi(&mut load(obs::Registry::new()), false);
    let reg = obs::Registry::new();
    let mut t = load(reg.clone());
    let drained = observe_mi(&mut t, true);
    assert_eq!(undrained, drained);
    // ... and the drains really pulled engine-side telemetry across.
    let snap = reg.snapshot();
    assert!(snap.gauge("engine.vm.minic.ops") > 0);
    assert!(snap.gauge("engine.mi.server.cmd.Resume") > 0);
}

/// The same lockstep over the in-process channel, where engine and
/// tracker share one registry: the drain must still be a no-op for the
/// session.
#[test]
fn in_process_telemetry_drains_are_neutral_too() {
    let undrained = observe_mi(&mut MiTracker::load_c("n.c", C_PROG).unwrap(), false);
    let drained = observe_mi(&mut MiTracker::load_c("n.c", C_PROG).unwrap(), true);
    assert_eq!(undrained, drained);
}

#[test]
fn replay_states_identical_with_and_without_obs() {
    let mut live = init_tracker("n.c", C_PROG).unwrap();
    let rec = easytracker::Recording::capture(&mut *live).unwrap();
    live.terminate();
    let json = rec.to_json().unwrap();
    let plain = run_plain("n.json", &json);
    let traced = run_with("n.json", &json, &obs::Session::new());
    assert_eq!(plain, traced);
}

/// The profiling plane is observation only: arming the counting profiler
/// must not change a single bit of what the control script observes — on
/// the MiniC tracker, the MiniPy tracker, *and* a replay of the same
/// session — while still producing a real profile.
#[test]
fn profiling_is_behavior_neutral_across_trackers() {
    for (file, source) in [("n.c", C_PROG), ("n.py", PY_PROG)] {
        let plain = run_plain(file, source);
        let mut t = init_tracker(file, source).unwrap();
        let (profiled, report) = observe_profiled(&mut *t, obs::ProfileMode::Counting, 0);
        assert_eq!(plain, profiled, "profiler perturbed the {file} session");
        assert!(!report.is_empty(), "{file} profile came back empty");
        let square = report
            .functions
            .iter()
            .find(|f| f.name == "square")
            .expect("square profiled");
        assert_eq!(square.calls, 3, "{file}");
    }

    // Replay: the derived profile must ride along without perturbing the
    // replayed observation either.
    let mut live = init_tracker("n.c", C_PROG).unwrap();
    let rec = easytracker::Recording::capture(&mut *live).unwrap();
    live.terminate();
    let json = rec.to_json().unwrap();
    let plain = run_plain("n.json", &json);
    let mut t = init_tracker("n.json", &json).unwrap();
    let (profiled, report) = observe_profiled(&mut *t, obs::ProfileMode::Counting, 0);
    assert_eq!(plain, profiled, "profiler perturbed the replay session");
    assert!(report.functions.iter().any(|f| f.name == "square"));
}

/// Sampling runs on a deterministic unit clock seeded from a fixed
/// constant: two runs of the same program with the same period must
/// produce bit-identical profiles — and still observe the same session.
#[test]
fn sampling_profiles_are_deterministic() {
    for (file, source) in [("n.c", C_PROG), ("n.py", PY_PROG)] {
        let plain = run_plain(file, source);
        let run = || {
            let mut t = init_tracker(file, source).unwrap();
            observe_profiled(&mut *t, obs::ProfileMode::Sampling, 4)
        };
        let (log_a, rep_a) = run();
        let (log_b, rep_b) = run();
        assert_eq!(plain, log_a, "sampling perturbed the {file} session");
        assert_eq!(log_a, log_b);
        assert_eq!(
            serde_json::to_string(&rep_a).unwrap(),
            serde_json::to_string(&rep_b).unwrap(),
            "sampling profile not reproducible for {file}"
        );
        assert!(rep_a.samples > 0, "{file} took no samples");
    }
}

#[test]
fn sinkless_instrumentation_overhead_is_bounded() {
    // A sinkless registry only bumps atomics and one histogram bucket per
    // span; 10k spans must finish in well under a second even on a busy
    // CI box. This is the "leave it on in production" guarantee.
    let session = obs::Session::without_sinks();
    let reg = session.registry();
    let start = std::time::Instant::now();
    for _ in 0..10_000 {
        let mut span = reg.span("tracker.control.Step");
        span.tag("pause_reason", "Step");
        span.finish();
        reg.inc("tracker.inspect.GetState");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "10k sinkless spans took {elapsed:?}"
    );
    let snap = session.snapshot();
    assert_eq!(snap.counter("tracker.inspect.GetState"), 10_000);
    assert_eq!(
        snap.histogram("tracker.control.Step").unwrap().count,
        10_000
    );
}
