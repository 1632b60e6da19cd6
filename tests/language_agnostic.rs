//! The paper's core promise (Listing 1): one control script, unchanged,
//! works on every inferior language. These tests run identical controller
//! functions over the MiniC tracker (behind the MI boundary), the MiniPy
//! tracker (thread-based, in-process), the RISC-V tracker, and a replayed
//! recording — asserting the same observable behaviour.

use easytracker::{init_tracker, PauseReason, Recording, ReplayTracker, Tracker};

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
