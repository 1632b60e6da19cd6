//! Execution recordings and the replay tracker (paper §III-E).
//!
//! A [`Recording`] is a serializable step-by-step capture of an inferior's
//! execution: one [`ProgramState`] snapshot per executed line. Because it
//! serializes, a recording can be saved, shipped to a browser, or replayed
//! later. [`ReplayTracker`] implements the *full* [`Tracker`] API over a
//! recording — "the full power of control through the API on a
//! pre-generated trace" — so every visualization tool in this repository
//! also works offline on recorded runs. Breakpoints, function tracking,
//! stepping and watchpoints are all re-derived from the recorded
//! snapshots by [`mi::ReplayEngine`], the replay engine hosted replay
//! sessions also run; the tracker drives it in process.
//!
//! The recording is folded into a compressed, indexed [`trace::Store`]
//! (keyframes + deltas) and states are decoded on demand, so random
//! access — [`Tracker::seek`] — is O(log n). One `Arc<trace::Store>` can
//! back any number of concurrently scrubbing replay trackers, and
//! history queries ([`Tracker::query_history`],
//! [`Tracker::last_change`]) answer from the store's write index without
//! replaying at all. These are the time-travel calls every tracker
//! answers; only running backwards ([`ReplayTracker::step_back`],
//! [`ReplayTracker::resume_back`]) is the replay tracker's own.

use crate::{EngineTracker, Result, Tracker, TrackerError};
use serde::{Deserialize, Serialize};
use state::{PauseReason, ProgramState};
use std::sync::Arc;

/// One recorded pause: the full snapshot plus the output produced since
/// the previous step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedStep {
    /// The snapshot at this pause.
    pub state: ProgramState,
    /// Output emitted between the previous pause and this one.
    pub output_delta: String,
}

/// A recorded execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recording {
    /// Source file name.
    pub file: String,
    /// Full source text.
    pub source: String,
    /// Snapshots, one per executed line (step granularity).
    pub steps: Vec<RecordedStep>,
    /// Exit code of the run.
    pub exit_code: i64,
}

impl Recording {
    /// Records a *fresh* (not yet started) tracker by single-stepping it to
    /// completion.
    ///
    /// # Errors
    ///
    /// Propagates tracker errors; the tracker must not have been started.
    pub fn capture(tracker: &mut dyn Tracker) -> Result<Recording> {
        let (file, source) = tracker.get_source()?;
        let mut steps = Vec::new();
        let mut reason = tracker.start()?;
        while reason.is_alive() {
            let state = tracker.get_state()?;
            let output_delta = tracker.get_output()?;
            steps.push(RecordedStep {
                state,
                output_delta,
            });
            reason = tracker.step()?;
        }
        // Any output produced by the very last step.
        if let (Some(last), Ok(tail)) = (steps.last_mut(), tracker.get_output()) {
            last.output_delta.push_str(&tail);
        }
        Ok(Recording {
            file,
            source,
            steps,
            exit_code: tracker.get_exit_code().unwrap_or(0),
        })
    }

    /// Serializes to JSON (loadable by [`crate::init_tracker`] with a
    /// `.json` name).
    ///
    /// # Errors
    ///
    /// Never fails in practice; surfaces serializer errors as
    /// [`TrackerError::Engine`].
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| TrackerError::Engine(e.to_string()))
    }

    /// Folds the recording into a compressed, indexed [`trace::Store`]
    /// with the given keyframe cadence.
    pub fn to_store(&self, keyframe_every: u32) -> trace::Store {
        let mut store = trace::Store::new(self.file.clone(), self.source.clone(), keyframe_every);
        for step in &self.steps {
            store.push(&step.state, &step.output_delta);
        }
        store.set_exit_code(Some(self.exit_code));
        store.freeze();
        store
    }

    /// Total number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the recording has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A tracker that replays a recorded execution out of a [`trace::Store`].
///
/// An in-process adapter over [`mi::ReplayEngine`], the same replay
/// engine hosted replay sessions run: each tracker call is one engine
/// command, with no serialization or transport in between.
pub type ReplayTracker = EngineTracker<mi::ReplayEngine>;

impl ReplayTracker {
    /// Creates a replay tracker over a recording (folded into an
    /// in-memory trace store at [`trace::DEFAULT_KEYFRAME_EVERY`]).
    pub fn new(recording: Recording) -> Self {
        Self::with_registry(recording, obs::Registry::new())
    }

    /// Like [`ReplayTracker::new`], with control-call latencies and
    /// inspection counters reported into `registry`.
    pub fn with_registry(recording: Recording, registry: obs::Registry) -> Self {
        let store = recording.to_store(trace::DEFAULT_KEYFRAME_EVERY);
        Self::from_store_with_registry(Arc::new(store), registry)
    }

    /// Replays a shared trace store. Many trackers can scrub one
    /// `Arc<trace::Store>` concurrently; each keeps its own position,
    /// control points, decode caches and metrics.
    pub fn from_store(store: Arc<trace::Store>) -> Self {
        Self::from_store_with_registry(store, obs::Registry::new())
    }

    /// Like [`ReplayTracker::from_store`] with an explicit registry.
    pub fn from_store_with_registry(store: Arc<trace::Store>, registry: obs::Registry) -> Self {
        EngineTracker::over(mi::ReplayEngine::new(store, registry.clone()), registry)
    }

    /// Opens a trace file written by [`ReplayTracker::save`] (or
    /// [`trace::Store::save`]).
    ///
    /// # Errors
    ///
    /// Fails when the file is missing, corrupt, or of an unsupported
    /// format version.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let store = trace::Store::open(path).map_err(TrackerError::Engine)?;
        Ok(Self::from_store(Arc::new(store)))
    }

    /// Persists the backing store to `path` and returns the byte count
    /// (also published as the `trace.bytes_on_disk` gauge).
    ///
    /// # Errors
    ///
    /// Surfaces I/O errors as [`TrackerError::Engine`].
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<u64> {
        let n = self
            .store()
            .save(path)
            .map_err(|e| TrackerError::Engine(e.to_string()))?;
        self.obs.set_gauge("trace.bytes_on_disk", n);
        Ok(n)
    }

    /// The shared store backing this tracker.
    pub fn store(&self) -> &Arc<trace::Store> {
        self.port.reader().store()
    }

    /// Number of recorded pauses.
    pub fn recorded_pauses(&self) -> u64 {
        self.store().len()
    }

    /// Rematerializes the full [`Recording`] from the store (every state
    /// decoded through the keyframe index, up to the first pause that
    /// fails to decode). Mostly useful for tools that consume
    /// recordings, like the `pttrace` timeline.
    pub fn to_recording(&self) -> Recording {
        let store = self.store();
        let steps = (0..store.len())
            .map_while(|i| {
                let state = self.port.reader().state_at(i).ok()?;
                Some(RecordedStep {
                    state: (*state).clone(),
                    output_delta: store.output_range(i, i + 1).to_string(),
                })
            })
            .collect();
        Recording {
            file: store.file().to_string(),
            source: store.source().to_string(),
            steps,
            exit_code: store.exit_code().unwrap_or(0),
        }
    }

    // ---- running backwards (paper §V: the RR-tracker future work) --------

    /// Steps one recorded line backwards. At the first step this reports
    /// [`PauseReason::Started`] and stays put.
    ///
    /// # Errors
    ///
    /// Fails before `start`.
    pub fn step_back(&mut self) -> Result<PauseReason> {
        self.control("tracker.control.StepBack", |e| Ok(e.step_back()))
    }

    /// Runs backwards until the previous control point (breakpoint,
    /// watchpoint, tracked-function boundary), or to the beginning
    /// ([`PauseReason::Started`]).
    ///
    /// # Errors
    ///
    /// Fails before `start`.
    pub fn resume_back(&mut self) -> Result<PauseReason> {
        self.control("tracker.control.ResumeBack", |e| Ok(e.resume_back()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MiTracker, PyTracker};

    const C_PROG: &str = "int square(int x) {\nreturn x * x;\n}\nint main() {\nint s = 0;\nfor (int i = 1; i <= 3; i++) {\ns += square(i);\n}\nreturn s;\n}";

    fn record_c() -> Recording {
        let mut t = MiTracker::load_c("p.c", C_PROG).unwrap();
        let rec = Recording::capture(&mut t).unwrap();
        t.terminate();
        rec
    }

    #[test]
    fn capture_records_every_step() {
        let rec = record_c();
        assert!(rec.len() > 10);
        assert_eq!(rec.exit_code, 14);
        // Serializes and round-trips.
        let json = rec.to_json().unwrap();
        let back: Recording = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn replay_stepping_matches_recording() {
        let rec = record_c();
        let n = rec.len();
        let mut t = ReplayTracker::new(rec);
        assert_eq!(t.start().unwrap(), PauseReason::Started);
        let mut count = 1;
        while t.get_exit_code().is_none() {
            t.step().unwrap();
            count += 1;
        }
        assert_eq!(count, n + 1);
        assert_eq!(t.get_exit_code(), Some(14));
    }

    #[test]
    fn a_replayed_current_frame_is_the_state_frame() {
        let mut t = ReplayTracker::new(record_c());
        assert!(t.get_current_frame().is_err());
        t.start().unwrap();
        while t.get_exit_code().is_none() {
            assert_eq!(t.get_current_frame().unwrap(), t.get_state().unwrap().frame);
            t.step().unwrap();
        }
        // Past the end the last recorded frame still answers.
        assert_eq!(t.get_current_frame().unwrap(), t.get_state().unwrap().frame);
    }

    #[test]
    fn replay_breakpoints_and_tracking() {
        let rec = record_c();
        let mut t = ReplayTracker::new(rec);
        t.track_function("square", None).unwrap();
        t.start().unwrap();
        let mut calls = 0;
        let mut returns = 0;
        loop {
            match t.resume().unwrap() {
                PauseReason::FunctionCall { function, .. } => {
                    assert_eq!(function, "square");
                    calls += 1;
                    // The frame is inspectable from the recording.
                    let f = t.get_current_frame().unwrap();
                    assert_eq!(f.name(), "square");
                }
                PauseReason::FunctionReturn { .. } => returns += 1,
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(calls, 3);
        assert_eq!(returns, 3);
    }

    /// Runs `script` on a live C tracker and on a replay of its
    /// recording; returns both pause-reason tag sequences.
    fn live_and_replay(
        src: &str,
        script: fn(&mut dyn Tracker) -> Vec<PauseReason>,
    ) -> [Vec<&'static str>; 2] {
        let mut live = MiTracker::load_c("t.c", src).unwrap();
        let rec = Recording::capture(&mut live).unwrap();
        live.terminate();
        let mut live = MiTracker::load_c("t.c", src).unwrap();
        let mut replay = ReplayTracker::new(rec);
        [&mut live as &mut dyn Tracker, &mut replay]
            .map(|t| script(t).iter().map(PauseReason::tag).collect())
    }

    const RETURN_LINE: &str =
        "int f(int x) {\nint y = x + 1;\nreturn y;\n}\nint main() {\nint a = f(1);\nreturn a;\n}";

    #[test]
    fn replay_steps_onto_a_tracked_return_line_like_live() {
        // `next` and `step` stop on f's `return` line first; its return
        // is delivered by the command after.
        fn script(t: &mut dyn Tracker, next: bool) -> Vec<PauseReason> {
            t.track_function("f", None).unwrap();
            t.break_before_line(2).unwrap();
            let mut out = vec![t.start().unwrap(), t.resume().unwrap(), t.resume().unwrap()];
            out.push(if next { t.next() } else { t.step() }.unwrap());
            out.push(t.resume().unwrap());
            out.push(t.resume().unwrap());
            out
        }
        let scripts: [fn(&mut dyn Tracker) -> Vec<PauseReason>; 2] =
            [|t| script(t, true), |t| script(t, false)];
        for script in scripts {
            let [live, replay] = live_and_replay(RETURN_LINE, script);
            assert_eq!(
                live,
                [
                    "Started",
                    "FunctionCall",
                    "Breakpoint",
                    "Step",
                    "FunctionReturn",
                    "Exited"
                ]
            );
            assert_eq!(replay, live);
        }
    }

    #[test]
    fn replay_delivers_every_frame_a_recursion_unwinds() {
        // The three frames of `down` return between the last recorded
        // pause and the exit: three tracked returns, as live.
        let src = "int down(int n) {\nif (n == 0) { return 0; }\nreturn down(n - 1);\n}\nint main() {\nreturn down(2);\n}";
        let [live, replay] = live_and_replay(src, |t| {
            t.track_function("down", None).unwrap();
            let mut out = vec![t.start().unwrap()];
            while out.last().unwrap().is_alive() {
                out.push(t.resume().unwrap());
            }
            out
        });
        let returns = live.iter().filter(|&&tag| tag == "FunctionReturn").count();
        assert_eq!(returns, 3);
        assert_eq!(replay, live);
    }

    #[test]
    fn replay_watchpoints_from_recorded_states() {
        let mut live = MiTracker::load_c(
            "w.c",
            "int main() {\nint i = 0;\nwhile (i < 3) {\ni = i + 1;\n}\nreturn i;\n}",
        )
        .unwrap();
        let rec = Recording::capture(&mut live).unwrap();
        live.terminate();
        let mut t = ReplayTracker::new(rec);
        t.start().unwrap();
        t.watch("i").unwrap();
        let mut changes = 0;
        loop {
            match t.resume().unwrap() {
                PauseReason::Watchpoint { variable, .. } => {
                    assert_eq!(variable, "i");
                    changes += 1;
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(changes, 3);
    }

    #[test]
    fn replay_works_for_python_recordings_too() {
        let mut live =
            PyTracker::load("p.py", "def f(x):\n    return x + 1\na = f(1)\nb = f(a)\n").unwrap();
        let rec = Recording::capture(&mut live).unwrap();
        live.terminate();
        let mut t = ReplayTracker::new(rec);
        t.track_function("f", None).unwrap();
        t.start().unwrap();
        let mut calls = 0;
        loop {
            match t.resume().unwrap() {
                PauseReason::FunctionCall { .. } => calls += 1,
                PauseReason::Exited(_) => break,
                _ => {}
            }
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn replay_output_released_in_step_order() {
        let mut live = PyTracker::load("p.py", "print('a')\nprint('b')\nprint('c')\n").unwrap();
        let rec = Recording::capture(&mut live).unwrap();
        live.terminate();
        let mut t = ReplayTracker::new(rec);
        t.start().unwrap();
        t.step().unwrap();
        let first = t.get_output().unwrap();
        assert!(first.contains('a') && !first.contains('c'));
        t.resume().unwrap();
        let rest = t.get_output().unwrap();
        assert!(rest.contains('c'));
    }

    #[test]
    fn via_init_tracker_json() {
        let rec = record_c();
        let json = rec.to_json().unwrap();
        let mut t = crate::init_tracker("recording.json", &json).unwrap();
        t.start().unwrap();
        t.break_before_line(7).unwrap();
        let r = t.resume().unwrap();
        assert!(matches!(r, PauseReason::Breakpoint { .. }));
    }

    #[test]
    fn replay_errors() {
        let rec = record_c();
        let mut t = ReplayTracker::new(rec);
        assert!(matches!(t.step(), Err(TrackerError::NotStarted)));
        t.start().unwrap();
        assert!(matches!(t.finish(), Err(TrackerError::Engine(_))));
        assert!(matches!(t.remove(99), Err(TrackerError::Engine(_))));
        assert!(matches!(
            t.break_before_line(9999),
            Err(TrackerError::Engine(_))
        ));
    }

    // ---- store-backed time travel ----------------------------------------

    #[test]
    fn seek_jumps_to_any_pause() {
        let rec = record_c();
        let n = rec.len();
        // Capture the expected state at every pause the slow way first.
        let expected: Vec<ProgramState> = rec.steps.iter().map(|s| s.state.clone()).collect();
        let mut t = ReplayTracker::new(rec);
        t.start().unwrap();
        // Jump around out of order; each landing must be byte-identical to
        // the recorded snapshot (modulo the pause reason, which seek sets).
        for &i in &[n - 1, 0, n / 2, 1, n / 3, n - 2] {
            t.seek(i as u64).unwrap();
            let got = t.get_state().unwrap();
            let mut want = expected[i].clone();
            want.reason = got.reason.clone();
            assert_eq!(got, want, "seek({i})");
        }
        // Seeking past the end lands on exited.
        assert!(matches!(t.seek(u64::MAX).unwrap(), PauseReason::Exited(_)));
        assert_eq!(t.get_exit_code(), Some(14));
        // Seek before start fails.
        let mut fresh = ReplayTracker::new(record_c());
        assert!(matches!(fresh.seek(0), Err(TrackerError::NotStarted)));
    }

    #[test]
    fn history_queries_answer_without_replay() {
        let rec = record_c();
        let mut t = ReplayTracker::new(rec);
        t.start().unwrap();
        // `s` accumulates square(1) + square(2) + square(3): its write log
        // must end at value 14 and be monotonic in pause order.
        let to = t.recorded_pauses() - 1;
        let writes = t.query_history("s", Some(0), Some(to)).unwrap();
        assert!(!writes.is_empty());
        assert!(writes.windows(2).all(|w| w[0].pause < w[1].pause));
        assert_eq!(writes.last().unwrap().value, "14");
        let last = t.last_change("s", None).unwrap().unwrap();
        assert_eq!(last.value, "14");
        // Qualified names work too.
        let qualified = t.last_change("main::s", None).unwrap().unwrap();
        assert_eq!(qualified.pause, last.pause);
        assert!(t.last_change("main::nosuch", None).unwrap().is_none());
    }

    #[test]
    fn save_open_roundtrip_preserves_replay() {
        let rec = record_c();
        let dir = std::env::temp_dir().join(format!(
            "eztrace-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.trace");
        let t = ReplayTracker::new(rec.clone());
        let bytes = t.save(&path).unwrap();
        assert!(bytes > 0);
        assert_eq!(t.registry().snapshot().gauge("trace.bytes_on_disk"), bytes);

        let mut back = ReplayTracker::open(&path).unwrap();
        back.start().unwrap();
        back.track_function("square", None).unwrap();
        let mut calls = 0;
        loop {
            match back.resume().unwrap() {
                PauseReason::FunctionCall { .. } => calls += 1,
                PauseReason::Exited(_) => break,
                _ => {}
            }
        }
        assert_eq!(calls, 3);
        assert_eq!(back.get_exit_code(), Some(14));
        std::fs::remove_dir_all(&dir).ok();
        assert!(ReplayTracker::open(dir.join("missing.trace")).is_err());
    }

    #[test]
    fn shared_store_serves_concurrent_scrubbing_readers() {
        let rec = record_c();
        let n = rec.len();
        let store = Arc::new(rec.to_store(8));
        let mut handles = Vec::new();
        for r in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let mut t = ReplayTracker::from_store(store);
                t.start().unwrap();
                for k in 0..n as u64 {
                    let i = (k * 13 + r) % n as u64;
                    t.seek(i).unwrap();
                    let st = t.get_state().unwrap();
                    assert!(st.frame.location().line() > 0);
                }
                // Per-reader metrics exist.
                let snap = t.registry().snapshot();
                assert!(snap.counter("trace.keyframe_decodes") > 0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn resident_bytes_gauge_tracks_store_footprint() {
        let rec = record_c();
        let raw_json = rec.to_json().unwrap().len() as u64;
        let t = ReplayTracker::new(rec);
        let resident = t.registry().snapshot().gauge("replay.resident_bytes");
        assert!(resident > 0);
        assert!(
            resident < raw_json,
            "store-backed replay ({resident} B) should undercut the raw \
             snapshot JSON ({raw_json} B)"
        );
    }
}

#[cfg(test)]
mod reverse_tests {
    use super::*;
    use crate::{MiTracker, Tracker};
    use state::ExitStatus;

    fn recording() -> Recording {
        let src = "int bump(int v) {\nreturn v + 1;\n}\nint main() {\nint x = 0;\nx = bump(x);\nx = bump(x);\nreturn x;\n}";
        let mut t = MiTracker::load_c("rev.c", src).unwrap();
        let rec = Recording::capture(&mut t).unwrap();
        t.terminate();
        rec
    }

    #[test]
    fn step_back_reverses_step() {
        let mut t = ReplayTracker::new(recording());
        t.start().unwrap();
        let l0 = t.current_line().unwrap();
        t.step().unwrap();
        t.step().unwrap();
        let l2 = t.current_line().unwrap();
        t.step_back().unwrap();
        t.step_back().unwrap();
        assert_eq!(t.current_line().unwrap(), l0);
        // Forward again reaches the same place (time travel is coherent).
        t.step().unwrap();
        t.step().unwrap();
        assert_eq!(t.current_line().unwrap(), l2);
    }

    #[test]
    fn step_back_at_origin_reports_started() {
        let mut t = ReplayTracker::new(recording());
        t.start().unwrap();
        assert_eq!(t.step_back().unwrap(), PauseReason::Started);
        assert_eq!(t.pause_reason(), PauseReason::Started);
    }

    #[test]
    fn resume_back_finds_previous_breakpoint() {
        let mut t = ReplayTracker::new(recording());
        t.start().unwrap();
        t.break_before_func("bump", None).unwrap();
        // Forward over both calls.
        t.resume().unwrap();
        t.resume().unwrap();
        let line_second = t.get_state().unwrap().frame.location().line();
        t.step().unwrap();
        // Backwards: hits the second call again, then the first.
        let r = t.resume_back().unwrap();
        assert!(matches!(r, PauseReason::Breakpoint { .. }));
        assert_eq!(t.get_state().unwrap().frame.location().line(), line_second);
        let r = t.resume_back().unwrap();
        assert!(matches!(r, PauseReason::Breakpoint { .. }));
        let r = t.resume_back().unwrap();
        assert_eq!(r, PauseReason::Started);
    }

    #[test]
    fn reverse_watchpoint_sees_changes_backwards() {
        let mut t = ReplayTracker::new(recording());
        t.start().unwrap();
        t.watch("x").unwrap();
        // Run forward to the end, then backwards collecting watch hits.
        while t.get_exit_code().is_none() {
            t.step().unwrap();
        }
        let mut hits = 0;
        loop {
            match t.resume_back().unwrap() {
                PauseReason::Watchpoint { .. } => hits += 1,
                PauseReason::Started => break,
                _ => {}
            }
        }
        assert!(hits >= 2, "x changed at least twice, saw {hits}");
    }

    #[test]
    fn reverse_before_start_fails() {
        let mut t = ReplayTracker::new(recording());
        assert!(matches!(t.step_back(), Err(TrackerError::NotStarted)));
        assert!(matches!(t.resume_back(), Err(TrackerError::NotStarted)));
    }

    #[test]
    fn reverse_walks_the_exact_forward_sequence() {
        // Forward trace, then step_back all the way: positions must visit
        // the same states in exactly reversed order.
        let mut t = ReplayTracker::new(recording());
        t.start().unwrap();
        let mut forward = vec![t.get_state().unwrap()];
        while t.get_exit_code().is_none() {
            if t.step().unwrap().is_alive() {
                forward.push(t.get_state().unwrap());
            }
        }
        // Walk back from the exited position; `Started` means position 0
        // was already visited (step_back stays put there).
        let mut backward = Vec::new();
        loop {
            let r = t.step_back().unwrap();
            if r == PauseReason::Started {
                break;
            }
            backward.push(t.get_state().unwrap());
        }
        assert_eq!(backward.len(), forward.len());
        for (i, (f, b)) in forward.iter().rev().zip(backward.iter()).enumerate() {
            let mut f = f.clone();
            let mut b = b.clone();
            // Reasons differ (Step vs Started direction markers); the
            // frames, variables and locations must be identical.
            f.reason = PauseReason::Step;
            b.reason = PauseReason::Step;
            assert_eq!(f, b, "reverse position {i}");
        }
    }

    // ---- degenerate recordings (conformance satellite) -------------------

    fn empty_recording(exit_code: i64) -> Recording {
        Recording {
            file: "empty.c".into(),
            source: String::new(),
            steps: Vec::new(),
            exit_code,
        }
    }

    #[test]
    fn empty_recording_starts_straight_into_exited() {
        let mut t = ReplayTracker::new(empty_recording(7));
        assert_eq!(t.pause_reason(), PauseReason::NotStarted);
        let r = t.start().unwrap();
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(7)));
        // Every control and inspection call keeps answering, no panics.
        assert!(matches!(t.step().unwrap(), PauseReason::Exited(_)));
        assert!(matches!(t.resume().unwrap(), PauseReason::Exited(_)));
        assert!(matches!(t.next().unwrap(), PauseReason::Exited(_)));
        assert_eq!(t.get_output().unwrap(), "");
        assert_eq!(t.get_exit_code().unwrap(), 7);
        let st = t.get_state().unwrap();
        assert!(matches!(st.reason, PauseReason::Exited(_)));
        assert_eq!(st.frame.name(), "<module>");
    }

    #[test]
    fn empty_recording_with_crash_code_reports_crashed() {
        let mut t = ReplayTracker::new(empty_recording(-1));
        let r = t.start().unwrap();
        assert_eq!(r, PauseReason::Exited(ExitStatus::Crashed));
    }

    #[test]
    fn single_step_recording_walks_start_to_exit() {
        let full = recording();
        let single = Recording {
            file: full.file.clone(),
            source: full.source.clone(),
            steps: vec![full.steps[0].clone()],
            exit_code: full.exit_code,
        };
        let mut t = ReplayTracker::new(single);
        assert_eq!(t.start().unwrap(), PauseReason::Started);
        let line = t.get_state().unwrap().frame.location().line();
        assert_eq!(t.current_line().unwrap(), line);
        // The one recorded step is also the last: stepping exits.
        assert!(matches!(t.step().unwrap(), PauseReason::Exited(_)));
        assert_eq!(t.get_exit_code().unwrap(), full.exit_code);
        // And it replays backwards too.
        assert_eq!(t.step_back().unwrap(), PauseReason::Step);
        assert_eq!(t.current_line().unwrap(), line);
    }

    #[test]
    fn single_step_recording_tolerates_control_points() {
        let full = recording();
        let single = Recording {
            file: full.file.clone(),
            source: full.source.clone(),
            steps: vec![full.steps[0].clone()],
            exit_code: full.exit_code,
        };
        let mut t = ReplayTracker::new(single);
        t.start().unwrap();
        // Control points on things the one-step recording never reaches
        // must not fire or wedge the replay.
        t.break_before_func("square", None).unwrap();
        t.track_function("square", None).unwrap();
        t.watch("s").unwrap();
        assert!(matches!(t.resume().unwrap(), PauseReason::Exited(_)));
    }
}
