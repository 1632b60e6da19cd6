//! Memory regression gate for store-backed time travel: scrubbing a
//! long recording must NOT cost what the naive full-snapshot replay
//! path costs (one decoded `ProgramState` per pause, forever resident).
//! The trace store keeps compressed deltas plus a bounded decoded-
//! segment cache, and reports its footprint through the
//! `replay.resident_bytes` gauge — this test pins that gauge to a
//! fraction of the naive cost so a cache or encoding regression fails
//! loudly instead of quietly re-growing O(pauses) memory.
//!
//! It also holds hosted replay readers (`HostHandle::open_replay`) to the
//! live engine's answers and to the in-process `ReplayTracker`: both run
//! the same `mi::ReplayEngine`.

use easytracker::{MiTracker, Recording, ReplayTracker, Tracker};

/// A loop long enough that full snapshots measurably dominate: ~8k
/// pauses of a two-variable frame.
const PROG: &str = "\
int main() {
    int i = 0;
    int s = 0;
    while (i < 2000) {
        s = s + i;
        i = i + 1;
    }
    return 0;
}
";

fn capture() -> Recording {
    let mut live = MiTracker::load_c("loop.c", PROG).unwrap();
    let rec = Recording::capture(&mut live).unwrap();
    live.terminate();
    rec
}

#[test]
fn resident_bytes_stay_a_fraction_of_full_snapshots() {
    let recording = capture();
    assert!(
        recording.len() > 4_000,
        "workload too short to measure ({} pauses)",
        recording.len()
    );
    // The naive replay path this store replaced: every pause's state
    // decoded and resident at once.
    let naive: u64 = recording
        .steps
        .iter()
        .map(|s| serde_json::to_vec(&s.state).unwrap().len() as u64)
        .sum();

    let registry = obs::Registry::new();
    let mut t = ReplayTracker::with_registry(recording, registry.clone());
    t.start().unwrap();
    // Scrub all over the timeline — worst case for the segment cache.
    let n = t.recorded_pauses();
    for k in 0..64 {
        t.seek(k * 997 % n).unwrap();
    }
    let resident = registry.snapshot().gauge("replay.resident_bytes");
    assert!(resident > 0, "gauge never set");
    assert!(
        resident < naive / 2,
        "store-backed replay resident {resident}B is not below half the \
         naive full-snapshot cost {naive}B"
    );
}

#[test]
fn many_readers_share_one_store() {
    let recording = capture();
    let shared = ReplayTracker::new(recording);
    let store = shared.store().clone();
    let n = store.len();

    // Four readers scrub the same recording to different places; each
    // keeps its own position and cache, none copies the store.
    let mut readers: Vec<ReplayTracker> = (0..4)
        .map(|_| ReplayTracker::from_store(store.clone()))
        .collect();
    for (k, r) in readers.iter_mut().enumerate() {
        r.start().unwrap();
        r.seek(n * (k as u64 + 1) / 5).unwrap();
    }
    let lines: Vec<u32> = readers
        .iter_mut()
        .map(|r| r.current_line().unwrap())
        .collect();
    // Positions are independent…
    assert!(
        lines.windows(2).any(|w| w[0] != w[1]),
        "readers collapsed to one position: {lines:?}"
    );
    // …and every reader answers identically where timelines coincide.
    for r in &mut readers {
        r.seek(7).unwrap();
        assert_eq!(
            serde_json::to_string(&r.get_state().unwrap()).unwrap(),
            serde_json::to_string(&store.state_at(7).unwrap()).unwrap(),
        );
    }
}

// ---- hosted replay readers answer like the live engines ------------------

use easytracker::{ExitStatus, PauseReason};
use mi::{Command, CommandPort, HostHandle, Response, SessionHandle, SessionHost};
use std::sync::Arc;

/// The whole loop on one line: `Next` must step over it in one go.
const LOOP_ONE_LINE: &str = "\
int inc(int v) {
    return v + 1;
}
int main() {
    int i = 0;
    while (i < 3) { i = inc(i); }
    return i;
}
";

const NULL_DEREF: &str = "\
int main() {
    int* p = NULL;
    return *p;
}
";

/// Records `src` in a hosted session, stepping to the exit, and
/// publishes it under `name`.
fn publish(handle: &HostHandle, name: &str, src: &str) {
    let mut t = MiTracker::load_c_hosted(handle, "probe.c", src).unwrap();
    t.record(8).unwrap();
    let mut reason = t.start().unwrap();
    while reason.is_alive() {
        reason = t.step().unwrap();
    }
    t.publish_trace(name).unwrap();
    t.terminate();
}

fn call(s: &mut SessionHandle, cmd: Command) -> Response {
    s.call(cmd).expect("replay session call")
}

fn paused(s: &mut SessionHandle, cmd: Command) -> PauseReason {
    match call(s, cmd) {
        Response::Paused(r) => r,
        other => panic!("expected a pause, got {other:?}"),
    }
}

/// `function:line` of the innermost frame, or `exit`.
fn position(s: &mut SessionHandle, reason: &PauseReason) -> String {
    if !reason.is_alive() {
        return "exit".into();
    }
    match call(s, Command::GetState) {
        Response::State(st) => format!("{}:{}", st.frame.name(), st.frame.location().line()),
        other => panic!("expected a state, got {other:?}"),
    }
}

#[test]
fn hosted_replay_next_lands_where_the_live_engine_does() {
    let mut live = MiTracker::load_c("probe.c", LOOP_ONE_LINE).unwrap();
    live.start().unwrap();
    let mut want = Vec::new();
    for _ in 0..3 {
        let r = live.next().unwrap();
        want.push(if r.is_alive() {
            let f = live.get_current_frame().unwrap();
            format!("{}:{}", f.name(), f.location().line())
        } else {
            "exit".into()
        });
    }
    live.terminate();
    assert_eq!(want, ["main:6", "main:7", "exit"]);

    let host = SessionHost::new(2);
    let handle = HostHandle::connect_in_process(&host);
    publish(&handle, "loop", LOOP_ONE_LINE);
    let mut s = handle.open_replay("loop", None).unwrap();
    paused(&mut s, Command::Start);
    let got: Vec<String> = (0..3)
        .map(|_| {
            let r = paused(&mut s, Command::Next);
            position(&mut s, &r)
        })
        .collect();
    assert_eq!(got, want);
    handle.close_session(s.session_id());
    host.shutdown();
}

#[test]
fn hosted_replay_of_a_crash_reports_crashed() {
    let host = SessionHost::new(2);
    let handle = HostHandle::connect_in_process(&host);
    publish(&handle, "crash", NULL_DEREF);
    let mut s = handle.open_replay("crash", None).unwrap();
    paused(&mut s, Command::Start);
    assert_eq!(
        paused(&mut s, Command::Resume),
        PauseReason::Exited(ExitStatus::Crashed)
    );
    assert_eq!(
        call(&mut s, Command::GetExitCode),
        Response::ExitCode(Some(-1))
    );
    handle.close_session(s.session_id());
    host.shutdown();
}

#[test]
fn hosted_replay_resolves_bare_names_in_the_innermost_frame_only() {
    let host = SessionHost::new(2);
    let handle = HostHandle::connect_in_process(&host);
    publish(&handle, "loop", LOOP_ONE_LINE);
    let mut s = handle.open_replay("loop", None).unwrap();
    let mut r = paused(&mut s, Command::Start);
    while position(&mut s, &r) != "inc:2" {
        assert!(r.is_alive(), "never entered inc");
        r = paused(&mut s, Command::Step);
    }
    // `i` lives in `main` only: invisible from `inc`, as it is live.
    let get = |s: &mut SessionHandle, name: &str| match call(
        s,
        Command::GetVariable { name: name.into() },
    ) {
        Response::Variable(v) => v,
        other => panic!("expected a variable, got {other:?}"),
    };
    assert_eq!(get(&mut s, "i"), None);
    assert!(get(&mut s, "v").is_some());
    assert!(get(&mut s, "main::i").is_some());
    handle.close_session(s.session_id());
    host.shutdown();
}

#[test]
fn hosted_replay_control_points_match_the_in_process_tracker() {
    let mut live = MiTracker::load_c("probe.c", LOOP_ONE_LINE).unwrap();
    let store = Arc::new(Recording::capture(&mut live).unwrap().to_store(8));
    live.terminate();
    let drive = |resume: &mut dyn FnMut() -> PauseReason| {
        let mut tags = Vec::new();
        loop {
            let r = resume();
            tags.push(r.to_string());
            if !r.is_alive() {
                return tags;
            }
        }
    };

    let mut t = ReplayTracker::from_store(store.clone());
    t.start().unwrap();
    t.break_before_line(2).unwrap();
    t.watch("i").unwrap();
    let want = drive(&mut || t.resume().unwrap());

    let host = SessionHost::new(2);
    let handle = HostHandle::connect_in_process(&host);
    publish(&handle, "loop", LOOP_ONE_LINE);
    let mut s = handle.open_replay("loop", None).unwrap();
    // The hosted recording is the same store, byte for byte.
    assert_eq!(
        call(&mut s, Command::TraceStats),
        Response::TraceStats {
            pauses: store.len(),
            keyframes: store.keyframes(),
            bytes: store.disk_bytes(),
        }
    );
    paused(&mut s, Command::Start);
    assert!(matches!(
        call(&mut s, Command::SetBreakLine { line: 2 }),
        Response::Created { .. }
    ));
    assert!(matches!(
        call(
            &mut s,
            Command::Watch {
                variable: "i".into()
            }
        ),
        Response::Created { .. }
    ));
    let got = drive(&mut || paused(&mut s, Command::Resume));
    assert_eq!(got, want);
    assert!(want.len() > 4, "scenario too thin: {want:?}");
    handle.close_session(s.session_id());
    host.shutdown();
}
