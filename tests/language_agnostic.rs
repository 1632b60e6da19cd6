//! The paper's core promise (Listing 1): one control script, unchanged,
//! works on every inferior language. These tests run identical controller
//! functions over the MiniC tracker (behind the MI boundary), the MiniPy
//! tracker (thread-based, in-process), the RISC-V tracker, and a replayed
//! recording — asserting the same observable behaviour.

use easytracker::{
    init_tracker, MiTracker, PauseReason, Recording, ReplayTracker, Tracker, TrackerError,
};
use mi::{Command, CommandPort, HostHandle, Response};
use std::path::Path;

/// Equivalent "sum of squares via a helper" programs in each language.
const C_PROG: &str = "\
int square(int x) {
return x * x;
}
int main() {
int s = 0;
for (int i = 1; i <= 4; i++) {
s = s + square(i);
}
printf(\"%d\\n\", s);
return s;
}
";

const PY_PROG: &str = "\
def square(x):
    return x * x
s = 0
for i in range(1, 5):
    s = s + square(i)
print(s)
";

const ASM_PROG: &str = "\
main:
    li s0, 0        # s
    li s1, 1        # i
loop:
    li t0, 4
    bgt s1, t0, done
    mv a0, s1
    call square
    add s0, s0, a0
    addi s1, s1, 1
    j loop
done:
    mv a0, s0
    li a7, 1
    ecall
    li a0, 10
    li a7, 11
    ecall
    mv a0, s0
    li a7, 93
    ecall
square:
    mul a0, a0, a0
    ret
";

/// The generic controller: track `square`, count boundary events, collect
/// return values, run to completion. Works on any `Tracker`.
fn controlled_run(tracker: &mut dyn Tracker) -> (u32, Vec<String>, i64) {
    tracker.track_function("square", None).expect("track");
    tracker.start().expect("start");
    let mut calls = 0;
    let mut returns = Vec::new();
    loop {
        match tracker.resume().expect("resume") {
            PauseReason::FunctionCall { function, .. } => {
                assert_eq!(function, "square");
                calls += 1;
            }
            PauseReason::FunctionReturn {
                function,
                return_value,
                ..
            } => {
                assert_eq!(function, "square");
                returns.push(return_value.unwrap_or_default());
            }
            PauseReason::Exited(status) => {
                return (calls, returns, status.code().unwrap_or(-1));
            }
            other => panic!("unexpected pause: {other}"),
        }
    }
}

#[test]
fn same_controller_for_c() {
    let mut t = init_tracker("p.c", C_PROG).unwrap();
    let (calls, returns, code) = controlled_run(t.as_mut());
    assert_eq!(calls, 4);
    assert_eq!(returns, ["1", "4", "9", "16"]);
    assert_eq!(code, 30);
    assert_eq!(t.get_output().unwrap(), "30\n");
}

#[test]
fn same_controller_for_python() {
    let mut t = init_tracker("p.py", PY_PROG).unwrap();
    let (calls, returns, code) = controlled_run(t.as_mut());
    assert_eq!(calls, 4);
    assert_eq!(returns, ["1", "4", "9", "16"]);
    assert_eq!(code, 0); // MiniPy modules exit 0
    assert_eq!(t.get_output().unwrap(), "30\n");
}

#[test]
fn same_controller_for_assembly() {
    let mut t = init_tracker("p.s", ASM_PROG).unwrap();
    let (calls, returns, code) = controlled_run(t.as_mut());
    assert_eq!(calls, 4);
    assert_eq!(returns, ["1", "4", "9", "16"]);
    assert_eq!(code, 30);
    assert_eq!(t.get_output().unwrap(), "30\n");
}

#[test]
fn same_controller_for_replayed_recording() {
    // Record the C run, then run the identical controller on the replay.
    let mut live = init_tracker("p.c", C_PROG).unwrap();
    let rec = Recording::capture(live.as_mut()).unwrap();
    live.terminate();
    let mut t = ReplayTracker::new(rec);
    let (calls, returns, code) = controlled_run(&mut t);
    assert_eq!(calls, 4);
    // Replay cannot recover concrete return values (documented), but the
    // boundary structure is identical.
    assert_eq!(returns.len(), 4);
    assert_eq!(code, 30);
}

/// A tracked function is a control point like any other: `remove` drops
/// it, and the run then goes straight to the exit.
fn track_then_remove(tracker: &mut dyn Tracker) -> PauseReason {
    let id = tracker.track_function("square", None).expect("track");
    tracker.start().expect("start");
    let first = tracker.resume().expect("resume");
    assert!(matches!(first, PauseReason::FunctionCall { .. }), "{first}");
    tracker.remove(id).expect("remove the tracked function");
    tracker.resume().expect("resume")
}

#[test]
fn tracked_functions_are_removable_everywhere() {
    for (name, mut t) in every_tracker() {
        let after = track_then_remove(t.as_mut());
        assert!(matches!(after, PauseReason::Exited(_)), "{name}: {after}");
        t.terminate();
    }
}

/// Listing 1's stepping loop, shared verbatim across languages.
fn step_count(tracker: &mut dyn Tracker) -> usize {
    tracker.start().expect("start");
    let mut n = 0;
    while tracker.get_exit_code().is_none() {
        let frame = tracker.get_current_frame().expect("frame");
        assert!(!frame.name().is_empty());
        n += 1;
        tracker.step().expect("step");
    }
    n
}

#[test]
fn listing1_step_loop_works_everywhere() {
    for (file, src) in [("p.c", C_PROG), ("p.py", PY_PROG), ("p.s", ASM_PROG)] {
        let mut t = init_tracker(file, src).unwrap();
        let n = step_count(t.as_mut());
        assert!(n > 10, "{file}: stepped only {n} times");
        t.terminate();
    }
}

/// Inspection shape: every tracker exposes the same serializable state
/// model, so a single serde path handles them all.
#[test]
fn state_snapshots_serialize_identically_shaped() {
    for (file, src) in [("p.c", C_PROG), ("p.py", PY_PROG), ("p.s", ASM_PROG)] {
        let mut t = init_tracker(file, src).unwrap();
        t.start().unwrap();
        t.step().unwrap();
        let st = t.get_state().unwrap();
        let json = serde_json::to_string(&st).unwrap();
        let back: easytracker::ProgramState = serde_json::from_str(&json).unwrap();
        assert_eq!(st, back, "{file}: state must round-trip");
        t.terminate();
    }
}

/// `maxdepth` semantics match across trackers (paper Listing 2).
#[test]
fn maxdepth_filters_uniformly() {
    const REC_C: &str = "\
int down(int n) {
if (n == 0) { return 0; }
return down(n - 1);
}
int main() {
return down(5);
}
";
    const REC_PY: &str = "\
def down(n):
    if n == 0:
        return 0
    return down(n - 1)
down(5)
";
    for (file, src) in [("r.c", REC_C), ("r.py", REC_PY)] {
        let mut t = init_tracker(file, src).unwrap();
        t.break_before_func("down", Some(2)).unwrap();
        t.start().unwrap();
        let mut hits = 0;
        loop {
            match t.resume().unwrap() {
                PauseReason::Breakpoint { .. } => hits += 1,
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(hits, 2, "{file}: maxdepth=2 must allow exactly 2 hits");
        t.terminate();
    }
}

/// A fresh tracker per language, plus a replay of the C run.
fn every_tracker() -> [(&'static str, Box<dyn Tracker>); 4] {
    let mut live = init_tracker("p.c", C_PROG).unwrap();
    let rec = Recording::capture(live.as_mut()).unwrap();
    live.terminate();
    [
        ("c", init_tracker("p.c", C_PROG).unwrap()),
        ("py", init_tracker("p.py", PY_PROG).unwrap()),
        ("asm", init_tracker("p.s", ASM_PROG).unwrap()),
        ("replay", Box::new(ReplayTracker::new(rec))),
    ]
}

/// A parity row: drives a fresh tracker and reports whether its last
/// call succeeded.
type Row = fn(&mut dyn Tracker) -> bool;

/// (case, script, whether its last call succeeds on every tracker)
const PARITY: &[(&str, Row, bool)] = &[
    (
        "start twice",
        |t| {
            t.start().expect("first start");
            t.start().is_ok()
        },
        false,
    ),
    ("resume before start", |t| t.resume().is_ok(), false),
    ("step before start", |t| t.step().is_ok(), false),
    ("next before start", |t| t.next().is_ok(), false),
    (
        "finish in the outermost frame",
        |t| {
            t.start().expect("start");
            t.finish().is_ok()
        },
        false,
    ),
    ("remove of an unknown id", |t| t.remove(42).is_ok(), false),
    (
        "set_profile(Off) after start",
        |t| {
            t.start().expect("start");
            t.set_profile(obs::ProfileMode::Off, 0).is_ok()
        },
        true,
    ),
    (
        "get_global_variables before start",
        |t| t.get_global_variables().is_ok(),
        true,
    ),
    (
        "get_variable before start",
        |t| t.get_variable("x").is_ok(),
        true,
    ),
    ("get_state before start", |t| t.get_state().is_ok(), false),
    (
        "get_current_frame before start",
        |t| t.get_current_frame().is_ok(),
        false,
    ),
    (
        "break_before_line past the last line",
        |t| t.break_before_line(9999).is_ok(),
        false,
    ),
    ("seek before start", |t| t.seek(0).is_ok(), false),
    (
        "record after start",
        |t| {
            t.start().expect("start");
            t.record(8).is_ok()
        },
        false,
    ),
    (
        "publish_trace outside a host",
        |t| t.publish_trace("shelf").is_ok(),
        false,
    ),
    (
        "time travel after recording to the exit",
        |t| {
            // A replay is a recording already: its answer to `record`
            // is not this row's.
            let _ = t.record(8);
            let mut reason = t.start().expect("start");
            while reason.is_alive() {
                reason = t.step().expect("step");
            }
            t.seek(0).is_ok()
                && t.trace_stats().is_ok()
                && t.query_history("s", None, None).is_ok()
                && t.last_change("s", None).is_ok()
                && matches!(t.seek(u64::MAX), Ok(PauseReason::Exited(_)))
        },
        true,
    ),
];

/// The time-travel cases of `PARITY`: they also run over C trackers in
/// an `mi-server` child and in a shared host.
const TIME_TRAVEL: [&str; 4] = [
    "seek before start",
    "record after start",
    "publish_trace outside a host",
    "time travel after recording to the exit",
];

#[test]
fn every_tracker_accepts_and_refuses_the_same_calls() {
    for &(case, row, succeeds) in PARITY {
        for (name, mut t) in every_tracker() {
            assert_eq!(row(t.as_mut()), succeeds, "{name}: {case}");
            t.terminate();
        }
    }
}

/// A refusing `PARITY` case again, handing back the refusal.
type Refusal = fn(&mut dyn Tracker) -> Result<(), TrackerError>;

/// Every refusing `PARITY` case, in its order.
const REFUSALS: &[(&str, Refusal)] = &[
    ("start twice", |t| {
        t.start().expect("first start");
        t.start().map(drop)
    }),
    ("resume before start", |t| t.resume().map(drop)),
    ("step before start", |t| t.step().map(drop)),
    ("next before start", |t| t.next().map(drop)),
    ("finish in the outermost frame", |t| {
        t.start().expect("start");
        t.finish().map(drop)
    }),
    ("remove of an unknown id", |t| t.remove(42)),
    ("get_state before start", |t| t.get_state().map(drop)),
    ("get_current_frame before start", |t| {
        t.get_current_frame().map(drop)
    }),
    ("break_before_line past the last line", |t| {
        t.break_before_line(9999).map(drop)
    }),
    ("seek before start", |t| t.seek(0).map(drop)),
    ("record after start", |t| {
        t.start().expect("start");
        t.record(8)
    }),
    ("publish_trace outside a host", |t| t.publish_trace("shelf")),
];

#[test]
fn every_tracker_refuses_alike_and_offers_its_own_capabilities() {
    let refusing: Vec<&str> = PARITY
        .iter()
        .filter(|&&(_, _, succeeds)| !succeeds)
        .map(|&(case, ..)| case)
        .collect();
    let cases: Vec<&str> = REFUSALS.iter().map(|&(case, _)| case).collect();
    assert_eq!(cases, refusing, "one refusal per refusing PARITY case");
    for &(case, row) in REFUSALS {
        let mut first: Option<(&str, TrackerError)> = None;
        for (name, mut t) in every_tracker() {
            let err = row(t.as_mut()).expect_err(case);
            t.terminate();
            match &first {
                None => first = Some((name, err)),
                Some((first_name, first_err)) => assert_eq!(
                    std::mem::discriminant(&err),
                    std::mem::discriminant(first_err),
                    "{case}: {name} answers {err:?}, {first_name} {first_err:?}"
                ),
            }
        }
    }
    let unsupported = |r: Result<(), TrackerError>| matches!(r, Err(TrackerError::Unsupported(_)));
    for (name, mut t) in every_tracker() {
        let mi = matches!(name, "c" | "asm");
        assert_eq!(t.low_level().is_some(), mi, "{name}: low_level");
        assert_eq!(
            unsupported(t.diagnostics().map(drop)),
            !mi,
            "{name}: diagnostics"
        );
        assert_eq!(
            unsupported(t.set_sanitizer(true)),
            !mi,
            "{name}: set_sanitizer"
        );
        t.terminate();
    }
}

#[test]
fn a_function_breakpoint_and_tracking_both_fire_breakpoint_first() {
    for (name, mut t) in every_tracker() {
        t.track_function("square", None).unwrap();
        t.break_before_func("square", None).unwrap();
        t.start().unwrap();
        let first = [t.resume().unwrap(), t.resume().unwrap()].map(|r| r.tag());
        assert_eq!(first, ["Breakpoint", "FunctionCall"], "{name}");
        t.terminate();
    }
}

/// A C tracker in an `mi-server` child and one in a shared host; the
/// hosted one is inside a host, so publishing is its to answer.
fn deployed_trackers(server: &Path, host: &HostHandle) -> [(&'static str, MiTracker); 2] {
    [
        (
            "process",
            MiTracker::load_c_process(server, "p.c", C_PROG).expect("process tracker"),
        ),
        (
            "hosted",
            MiTracker::load_c_hosted(host, "p.c", C_PROG).expect("hosted tracker"),
        ),
    ]
}

#[test]
fn time_travel_answers_alike_in_a_child_process_and_a_shared_host() {
    let server = conformance::mi_server_bin().expect("mi_server builds");
    let host = HostHandle::spawn_process(&server, 2).expect("host spawns");
    let outside_a_host = |name: &str, case: &str| name == "process" || !case.contains("host");
    let rows = PARITY
        .iter()
        .filter(|(case, ..)| TIME_TRAVEL.contains(case));
    for &(case, row, succeeds) in rows {
        for (name, mut t) in deployed_trackers(&server, &host) {
            if outside_a_host(name, case) {
                assert_eq!(row(&mut t), succeeds, "{name}: {case}");
            }
            t.terminate();
        }
    }
    let refusals = REFUSALS
        .iter()
        .filter(|(case, _)| TIME_TRAVEL.contains(case));
    for &(case, row) in refusals {
        let mut in_process = init_tracker("p.c", C_PROG).unwrap();
        let want = row(in_process.as_mut()).expect_err(case);
        in_process.terminate();
        for (name, mut t) in deployed_trackers(&server, &host) {
            if outside_a_host(name, case) {
                let err = row(&mut t).expect_err(case);
                assert_eq!(
                    std::mem::discriminant(&err),
                    std::mem::discriminant(&want),
                    "{case}: {name} answers {err:?}, in process {want:?}"
                );
            }
            t.terminate();
        }
    }
    // Inside a host, a recording publishes, and replay readers open on it.
    let mut t = MiTracker::load_c_hosted(&host, "p.c", C_PROG).unwrap();
    t.record(8).unwrap();
    let mut reason = t.start().unwrap();
    while reason.is_alive() {
        reason = t.step().unwrap();
    }
    t.publish_trace("sum").unwrap();
    let (pauses, _, _) = t.trace_stats().unwrap();
    let mut reader = host.open_replay("sum", None).expect("replay opens");
    let past_the_end = reader.call(Command::Seek { pause: pauses }).unwrap();
    assert!(matches!(
        past_the_end,
        Response::Paused(PauseReason::Exited(_))
    ));
    t.terminate();
}
