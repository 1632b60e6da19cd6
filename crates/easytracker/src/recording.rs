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
//! snapshots.
//!
//! Since the trace-store rework, `ReplayTracker` no longer materializes
//! every snapshot in memory: the recording is folded into a compressed,
//! indexed [`trace::Store`] (keyframes + deltas), states are decoded on
//! demand one pause at a time through a per-reader cache, and random access —
//! [`ReplayTracker::seek`] — is O(log n) instead of a linear re-drive.
//! One `Arc<trace::Store>` can back any number of concurrently scrubbing
//! replay trackers, and history queries ([`ReplayTracker::last_change`],
//! [`ReplayTracker::writes_in`]) answer from the store's write index
//! without replaying at all.

use crate::{ControlPointId, Result, Tracker, TrackerError};
use serde::{Deserialize, Serialize};
use state::{ExitStatus, Frame, PauseReason, ProgramState, SourceLocation, Variable};
use std::collections::HashMap;
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

#[derive(Debug, Clone)]
enum CpKind {
    LineBp(u32),
    FuncBp {
        function: String,
        maxdepth: Option<u32>,
    },
    Track {
        function: String,
        maxdepth: Option<u32>,
    },
    Watch {
        variable: String,
    },
}

#[derive(Debug, Clone)]
struct ControlPoint {
    id: u64,
    kind: CpKind,
}

/// Per-watched-variable timeline, derived once from the store when the
/// watchpoint is armed: the variable's rendered visible value at each
/// pause, plus a running "most recent visible value at or before each
/// pause". Together they answer the live trackers' sticky-watch question
/// ("did the value change against the last step where the variable was
/// visible?") in O(1) per trigger check instead of a backward scan.
#[derive(Debug)]
struct WatchTimeline {
    visible: Vec<Option<String>>,
    last: Vec<Option<String>>,
}

/// A tracker that replays a recorded execution out of a [`trace::Store`].
#[derive(Debug)]
pub struct ReplayTracker {
    reader: trace::TraceReader,
    /// Index of the current step; `None` before `start`.
    idx: Option<usize>,
    points: Vec<ControlPoint>,
    next_id: u64,
    last_reason: PauseReason,
    /// Output released to the tool so far (recorded deltas up to `idx`).
    output_pos: usize,
    output_cursor: usize,
    /// Highest trigger phase already reported at the current step
    /// (`u8::MAX` when the step was reached by plain stepping).
    rank_done: u8,
    obs: obs::Registry,
    /// Armed profile configuration; the report is derived on demand from
    /// the recorded snapshots, so there is no live profiler to carry.
    prof: Option<(obs::ProfileMode, u64)>,
    watch_tl: HashMap<String, WatchTimeline>,
}

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
        let reader = trace::TraceReader::new(store, registry.clone());
        let t = ReplayTracker {
            reader,
            idx: None,
            points: Vec::new(),
            next_id: 1,
            last_reason: PauseReason::NotStarted,
            output_pos: 0,
            output_cursor: 0,
            rank_done: u8::MAX,
            obs: registry,
            prof: None,
            watch_tl: HashMap::new(),
        };
        t.obs
            .set_gauge("replay.resident_bytes", t.reader.resident_bytes());
        t
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
            .reader
            .store()
            .save(path)
            .map_err(|e| TrackerError::Engine(e.to_string()))?;
        self.obs.set_gauge("trace.bytes_on_disk", n);
        Ok(n)
    }

    /// The shared store backing this tracker.
    pub fn store(&self) -> &Arc<trace::Store> {
        self.reader.store()
    }

    /// Number of recorded pauses.
    pub fn recorded_pauses(&self) -> u64 {
        self.reader.store().len()
    }

    /// Rematerializes the full [`Recording`] from the store (every state
    /// decoded through the keyframe index). Mostly useful for tools that
    /// consume recordings, like the `pttrace` timeline.
    pub fn to_recording(&self) -> Recording {
        let n = self.len();
        let store = self.reader.store().clone();
        let steps = (0..n)
            .map(|i| RecordedStep {
                state: (*self.state_at(i)).clone(),
                output_delta: store.output_range(i as u64, i as u64 + 1).to_string(),
            })
            .collect();
        Recording {
            file: store.file().to_string(),
            source: store.source().to_string(),
            steps,
            exit_code: self.exit_code(),
        }
    }

    /// The registry this tracker reports into.
    pub fn registry(&self) -> &obs::Registry {
        &self.obs
    }

    fn timed_control(
        &mut self,
        kind: &str,
        f: impl FnOnce(&mut Self) -> Result<PauseReason>,
    ) -> Result<PauseReason> {
        let mut span = self.obs.span(format!("tracker.control.{kind}"));
        span.category("tracker");
        let r = f(self);
        if let Ok(reason) = &r {
            span.tag("pause_reason", reason.tag());
        }
        r
    }

    fn count_inspect(&self, kind: &str) {
        self.obs.inc(&format!("tracker.inspect.{kind}"));
    }

    fn len(&self) -> usize {
        self.reader.store().len() as usize
    }

    fn exit_code(&self) -> i64 {
        self.reader.store().exit_code().unwrap_or(0)
    }

    fn state_at(&self, i: usize) -> Arc<ProgramState> {
        self.reader
            .state_at(i as u64)
            .expect("recorded pause decodes (store is checksummed)")
    }

    fn depth_at(&self, i: usize) -> usize {
        self.reader
            .store()
            .depth_at(i as u64)
            .expect("recorded pause") as usize
    }

    fn line_at(&self, i: usize) -> u32 {
        self.reader
            .store()
            .line_at(i as u64)
            .expect("recorded pause")
    }

    fn exited_reason(&self) -> PauseReason {
        let code = self.exit_code();
        PauseReason::Exited(if code == -1 {
            ExitStatus::Crashed
        } else {
            ExitStatus::Exited(code)
        })
    }

    /// Number of frames named `function` anywhere on the stack at `state`.
    fn occurrences(state: &ProgramState, function: &str) -> usize {
        state.frame.chain().filter(|f| f.name() == function).count()
    }

    fn lookup_in(&self, state: &ProgramState, name: &str) -> Option<Variable> {
        let (frame_filter, var) = match name.split_once("::") {
            Some((f, v)) => (Some(f), v),
            None => (None, name),
        };
        for frame in state.frame.chain() {
            if let Some(f) = frame_filter {
                if frame.name() != f {
                    continue;
                }
            }
            if let Some(v) = frame.variable(var) {
                return Some(v.clone());
            }
            if frame_filter.is_none() {
                break;
            }
        }
        if frame_filter.is_none() {
            return state.globals.iter().find(|g| g.name() == var).cloned();
        }
        None
    }

    /// Derives the sticky-watch timeline for `variable` in one sequential
    /// pass over the store (each record decompressed once).
    fn build_watch_timeline(&self, variable: &str) -> WatchTimeline {
        let n = self.len();
        let mut visible = Vec::with_capacity(n);
        let mut last = Vec::with_capacity(n);
        let mut sticky: Option<String> = None;
        for i in 0..n {
            let st = self.state_at(i);
            let v = self
                .lookup_in(&st, variable)
                .map(|v| state::render_value(v.value().deref_fully()));
            if v.is_some() {
                sticky = v.clone();
            }
            visible.push(v);
            last.push(sticky.clone());
        }
        WatchTimeline { visible, last }
    }

    /// Pause reason triggered at step `i` (coming from step `i - 1`), if
    /// any control point with phase rank `>= min_rank` matches. Ranks
    /// order the triggers that can coexist on one recorded step (a
    /// one-line function's entry and exit share a step) and mirror the
    /// live engines' event order — frame-entry events fire before the
    /// line's own checks, returns at the end of the step: function
    /// breakpoint(0), tracked call(1), watch(2), line breakpoint(3),
    /// tracked return(4). Re-examining the current step with a higher
    /// `min_rank` lets `resume` deliver every event of such a step, like
    /// the live trackers do.
    fn trigger_at_ranked(&self, i: usize, min_rank: u8) -> Option<(u8, PauseReason)> {
        let cur = self.state_at(i);
        let prev = i.checked_sub(1).map(|p| self.state_at(p));
        let cur_depth = cur.stack_depth();
        let mut best: Option<(u8, PauseReason)> = None;
        let mut consider = |rank: u8, reason: PauseReason| {
            if rank >= min_rank && best.as_ref().is_none_or(|(r, _)| rank < *r) {
                best = Some((rank, reason));
            }
        };
        for cp in &self.points {
            match &cp.kind {
                CpKind::Watch { variable } => {
                    if prev.is_none() {
                        continue;
                    }
                    // Sticky semantics like the live trackers: compare with
                    // the most recent step where the variable was visible
                    // (it may have been shadowed by callee frames). The
                    // armed timeline holds the rendered, fully-dereferenced
                    // values, so this is the original backward scan in O(1).
                    let Some(tl) = self.watch_tl.get(variable) else {
                        continue;
                    };
                    let old = tl.last[i - 1].clone();
                    let new = tl.visible[i].clone();
                    if let Some(new_val) = &new {
                        // A variable springing into existence counts as a
                        // modification (`old` stays `None`), matching the
                        // live Python tracker; MiniC locals are visible
                        // (zero-initialized) from frame entry, so for C
                        // this branch only ever fires on value changes.
                        if old != new {
                            consider(
                                2,
                                PauseReason::Watchpoint {
                                    id: cp.id,
                                    variable: variable.clone(),
                                    old: old.clone(),
                                    new: new_val.clone(),
                                },
                            );
                        }
                    }
                }
                CpKind::LineBp(l) => {
                    if self.line_at(i) == *l {
                        consider(
                            3,
                            PauseReason::Breakpoint {
                                id: cp.id,
                                location: cur.frame.location().clone(),
                            },
                        );
                    }
                }
                CpKind::FuncBp { function, maxdepth } => {
                    let depth0 = (cur_depth - 1) as u32;
                    let entered = Self::occurrences(&cur, function)
                        > prev
                            .as_ref()
                            .map(|p| Self::occurrences(p, function))
                            .unwrap_or(0);
                    if entered
                        && cur.frame.name() == function
                        && maxdepth.is_none_or(|m| depth0 <= m)
                    {
                        consider(
                            0,
                            PauseReason::Breakpoint {
                                id: cp.id,
                                location: cur.frame.location().clone(),
                            },
                        );
                    }
                }
                CpKind::Track { function, maxdepth } => {
                    // Count frames named `function` across the whole stack,
                    // not just the innermost one: when a tracked function's
                    // last executed line is itself a call, the pop back to
                    // its caller happens while a *callee* is the innermost
                    // recorded frame, so a top-of-stack check would miss
                    // the return entirely.
                    let cur_occ = Self::occurrences(&cur, function);
                    let prev_occ = prev
                        .as_ref()
                        .map(|p| Self::occurrences(p, function))
                        .unwrap_or(0);
                    if cur_occ > prev_occ && cur.frame.name() == function {
                        let depth0 = (cur_depth - 1) as u32;
                        if maxdepth.is_none_or(|m| depth0 <= m) {
                            consider(
                                1,
                                PauseReason::FunctionCall {
                                    function: function.clone(),
                                    depth: depth0,
                                },
                            );
                        }
                    }
                    let returning = if i + 1 < self.len() {
                        cur_occ > Self::occurrences(&self.state_at(i + 1), function)
                    } else {
                        // Program exit pops every frame at once; the
                        // outermost frame's teardown is not a tracked
                        // return, so only deeper occurrences count.
                        cur.frame
                            .chain()
                            .enumerate()
                            .any(|(k, f)| f.name() == function && cur_depth - k > 1)
                    };
                    if returning {
                        // Report the innermost occurrence: that is the
                        // frame popped last, hence the return observed at
                        // this step boundary.
                        let depth0 = cur
                            .frame
                            .chain()
                            .enumerate()
                            .find(|(_, f)| f.name() == function)
                            .map(|(k, _)| (cur_depth - 1 - k) as u32)
                            .unwrap_or(0);
                        if maxdepth.is_none_or(|m| depth0 <= m) {
                            consider(
                                4,
                                PauseReason::FunctionReturn {
                                    function: function.clone(),
                                    depth: depth0,
                                    return_value: None,
                                },
                            );
                        }
                    }
                }
            }
        }
        best
    }

    /// Advances to step `target` (releasing its output) or to the end.
    fn goto(&mut self, target: usize) -> PauseReason {
        self.rank_done = u8::MAX;
        if target >= self.len() {
            self.idx = Some(self.len());
            self.output_pos = self.len();
            self.last_reason = self.exited_reason();
        } else {
            self.idx = Some(target);
            self.output_pos = target + 1;
            self.last_reason = PauseReason::Step;
        }
        self.last_reason.clone()
    }

    fn advance_until(
        &mut self,
        mut stop: impl FnMut(&Self, usize) -> Option<PauseReason>,
    ) -> Result<PauseReason> {
        let Some(cur) = self.idx else {
            return Err(TrackerError::NotStarted);
        };
        // Later-phase triggers on the *current* step first (a one-line
        // function's entry and exit share one recorded step).
        if cur < self.len() && self.rank_done < u8::MAX {
            if let Some((rank, trigger)) = self.trigger_at_ranked(cur, self.rank_done + 1) {
                self.rank_done = rank;
                self.last_reason = trigger.clone();
                return Ok(trigger);
            }
        }
        let mut i = cur + 1;
        while i < self.len() {
            if let Some((rank, trigger)) = self.trigger_at_ranked(i, 0) {
                self.goto(i);
                self.rank_done = rank;
                self.last_reason = trigger.clone();
                return Ok(trigger);
            }
            if let Some(reason) = stop(self, i) {
                self.goto(i);
                self.last_reason = reason.clone();
                return Ok(reason);
            }
            i += 1;
        }
        let n = self.len();
        Ok(self.goto(n))
    }

    // ---- time travel (paper §V: the RR-tracker future work) --------------
    //
    // The trace store makes the recording a time-travel debugger: these
    // methods walk the recorded steps backwards (honouring the same
    // control points) or jump straight to any pause through the keyframe
    // index.

    /// Jumps directly to pause `pause` — O(log n): the store finds the
    /// enclosing keyframe and replays at most a segment's worth of
    /// deltas. A `pause` at or past the end lands on the exited state.
    ///
    /// # Errors
    ///
    /// Fails before `start`.
    pub fn seek(&mut self, pause: u64) -> Result<PauseReason> {
        self.timed_control("Seek", |t| {
            if t.idx.is_none() {
                return Err(TrackerError::NotStarted);
            }
            let target = usize::try_from(pause).unwrap_or(usize::MAX).min(t.len());
            let r = t.goto(target);
            t.obs
                .set_gauge("replay.resident_bytes", t.reader.resident_bytes());
            Ok(r)
        })
    }

    /// Steps one recorded line backwards. At the first step this reports
    /// [`PauseReason::Started`] and stays put.
    ///
    /// # Errors
    ///
    /// Fails before `start`.
    pub fn step_back(&mut self) -> Result<PauseReason> {
        self.timed_control("StepBack", |t| {
            let Some(cur) = t.idx else {
                return Err(TrackerError::NotStarted);
            };
            if cur == 0 {
                t.last_reason = PauseReason::Started;
                return Ok(PauseReason::Started);
            }
            let target = (cur - 1).min(t.len().saturating_sub(1));
            let r = t.goto(target);
            Ok(r)
        })
    }

    /// Runs backwards until the previous control point (breakpoint,
    /// watchpoint, tracked-function boundary), or to the beginning
    /// ([`PauseReason::Started`]).
    ///
    /// # Errors
    ///
    /// Fails before `start`.
    pub fn resume_back(&mut self) -> Result<PauseReason> {
        self.timed_control("ResumeBack", |t| {
            let Some(cur) = t.idx else {
                return Err(TrackerError::NotStarted);
            };
            // From the exited position every recorded step is behind us.
            let mut i = cur.min(t.len());
            while i > 0 {
                i -= 1;
                if let Some((rank, trigger)) = t.trigger_at_ranked(i, 0) {
                    t.goto(i);
                    t.rank_done = rank;
                    t.last_reason = trigger.clone();
                    return Ok(trigger);
                }
            }
            t.goto(0);
            t.last_reason = PauseReason::Started;
            Ok(PauseReason::Started)
        })
    }

    // ---- history queries (no replay: the store's write index) ------------

    /// The most recent write to `variable` at or before pause `before`
    /// (default: end of the recording). Bare names match the variable in
    /// any frame plus globals; `frame::name` qualifies.
    pub fn last_change(&self, variable: &str, before: Option<u64>) -> Option<trace::HistoryHit> {
        self.count_inspect("QueryHistory");
        self.reader.store().last_change(variable, before)
    }

    /// All writes to `variable` with pause index in `[from, to]`.
    pub fn writes_in(&self, variable: &str, from: u64, to: u64) -> Vec<trace::HistoryHit> {
        self.count_inspect("QueryHistory");
        self.reader.store().writes_in(variable, from, to)
    }

    /// The snapshot at the current position, without counting an
    /// inspection (shared by the public inspection methods).
    fn current_state(&mut self) -> Result<ProgramState> {
        let Some(cur) = self.idx else {
            return Err(TrackerError::NotStarted);
        };
        if cur >= self.len() {
            // After the end: synthesize a terminal state on the last frame.
            if self.len() > 0 {
                let mut st = (*self.state_at(self.len() - 1)).clone();
                st.reason = self.exited_reason();
                return Ok(st);
            }
            return Ok(ProgramState::new(
                Frame::new(
                    "<module>",
                    0,
                    SourceLocation::new(self.reader.store().file().to_string(), 0),
                ),
                Vec::new(),
                self.exited_reason(),
            ));
        }
        let mut st = (*self.state_at(cur)).clone();
        st.reason = self.last_reason.clone();
        Ok(st)
    }
}

impl Tracker for ReplayTracker {
    fn start(&mut self) -> Result<PauseReason> {
        self.timed_control("Start", |t| {
            if t.idx.is_some() {
                return Err(TrackerError::Engine("replay already started".into()));
            }
            if t.len() == 0 {
                t.idx = Some(0);
                t.last_reason = t.exited_reason();
                return Ok(t.last_reason.clone());
            }
            t.idx = Some(0);
            t.output_pos = 1;
            t.last_reason = PauseReason::Started;
            Ok(PauseReason::Started)
        })
    }

    fn resume(&mut self) -> Result<PauseReason> {
        self.timed_control("Resume", |t| t.advance_until(|_, _| None))
    }

    fn step(&mut self) -> Result<PauseReason> {
        self.timed_control("Step", |t| {
            let Some(cur) = t.idx else {
                return Err(TrackerError::NotStarted);
            };
            Ok(t.goto(cur + 1))
        })
    }

    fn next(&mut self) -> Result<PauseReason> {
        self.timed_control("Next", |t| {
            let Some(cur) = t.idx else {
                return Err(TrackerError::NotStarted);
            };
            if cur >= t.len() {
                return Ok(t.exited_reason());
            }
            let depth = t.depth_at(cur);
            let line = t.line_at(cur);
            t.advance_until(move |this, i| {
                let d = this.depth_at(i);
                (d < depth || (d == depth && this.line_at(i) != line)).then_some(PauseReason::Step)
            })
        })
    }

    fn finish(&mut self) -> Result<PauseReason> {
        self.timed_control("Finish", |t| {
            let Some(cur) = t.idx else {
                return Err(TrackerError::NotStarted);
            };
            if cur >= t.len() {
                return Ok(t.exited_reason());
            }
            let depth = t.depth_at(cur);
            if depth <= 1 {
                return Err(TrackerError::Engine(
                    "cannot finish the outermost frame".into(),
                ));
            }
            t.advance_until(move |this, i| (this.depth_at(i) < depth).then_some(PauseReason::Step))
        })
    }

    fn break_before_line(&mut self, line: u32) -> Result<ControlPointId> {
        self.obs.inc("tracker.control_point.SetBreakLine");
        // Slide to the next recorded line, like the live engines.
        let actual = self
            .reader
            .store()
            .breakable_lines()
            .into_iter()
            .filter(|&l| l >= line)
            .min()
            .ok_or_else(|| {
                TrackerError::Engine(format!("no recorded execution at or after line {line}"))
            })?;
        let id = self.next_id;
        self.next_id += 1;
        self.points.push(ControlPoint {
            id,
            kind: CpKind::LineBp(actual),
        });
        Ok(id)
    }

    fn break_before_func(
        &mut self,
        function: &str,
        maxdepth: Option<u32>,
    ) -> Result<ControlPointId> {
        self.obs.inc("tracker.control_point.SetBreakFunc");
        let id = self.next_id;
        self.next_id += 1;
        self.points.push(ControlPoint {
            id,
            kind: CpKind::FuncBp {
                function: function.to_owned(),
                maxdepth,
            },
        });
        Ok(id)
    }

    fn track_function(&mut self, function: &str, maxdepth: Option<u32>) -> Result<ControlPointId> {
        self.obs.inc("tracker.control_point.TrackFunction");
        let id = self.next_id;
        self.next_id += 1;
        self.points.push(ControlPoint {
            id,
            kind: CpKind::Track {
                function: function.to_owned(),
                maxdepth,
            },
        });
        Ok(id)
    }

    fn watch(&mut self, variable: &str) -> Result<ControlPointId> {
        self.obs.inc("tracker.control_point.Watch");
        if !self.watch_tl.contains_key(variable) {
            let tl = self.build_watch_timeline(variable);
            self.watch_tl.insert(variable.to_owned(), tl);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.points.push(ControlPoint {
            id,
            kind: CpKind::Watch {
                variable: variable.to_owned(),
            },
        });
        Ok(id)
    }

    fn remove(&mut self, id: ControlPointId) -> Result<()> {
        let before = self.points.len();
        self.points.retain(|cp| cp.id != id);
        if self.points.len() == before {
            return Err(TrackerError::Engine(format!("no control point {id}")));
        }
        Ok(())
    }

    fn terminate(&mut self) {
        self.idx = Some(self.len());
    }

    fn pause_reason(&self) -> PauseReason {
        self.last_reason.clone()
    }

    fn get_current_frame(&mut self) -> Result<Frame> {
        self.count_inspect("GetState");
        Ok(self.current_state()?.frame)
    }

    fn get_state(&mut self) -> Result<ProgramState> {
        self.count_inspect("GetState");
        self.current_state()
    }

    fn get_global_variables(&mut self) -> Result<Vec<Variable>> {
        self.count_inspect("GetGlobals");
        Ok(self.current_state()?.globals)
    }

    fn get_variable(&mut self, name: &str) -> Result<Option<Variable>> {
        self.count_inspect("GetVariable");
        let st = self.current_state()?;
        Ok(self.lookup_in(&st, name))
    }

    fn get_exit_code(&mut self) -> Option<i64> {
        self.count_inspect("GetExitCode");
        match self.idx {
            Some(i) if i >= self.len() => Some(self.exit_code()),
            _ => None,
        }
    }

    fn get_output(&mut self) -> Result<String> {
        self.count_inspect("GetOutput");
        let upto = self.output_pos.min(self.len());
        let start = self.output_cursor.min(upto);
        let out = self
            .reader
            .store()
            .output_range(start as u64, upto as u64)
            .to_string();
        self.output_cursor = upto;
        Ok(out)
    }

    fn get_source(&mut self) -> Result<(String, String)> {
        self.count_inspect("GetSource");
        let store = self.reader.store();
        Ok((store.file().to_string(), store.source().to_string()))
    }

    fn breakable_lines(&mut self) -> Result<Vec<u32>> {
        self.count_inspect("GetBreakableLines");
        Ok(self.reader.store().breakable_lines())
    }

    fn set_profile(&mut self, mode: obs::ProfileMode, period: u64) -> Result<()> {
        // A recording can be (re)profiled at any position: the report is
        // derived, not collected, so there is no before-start constraint.
        self.prof = (mode != obs::ProfileMode::Off).then_some((mode, period));
        Ok(())
    }

    fn profile(&mut self) -> Result<obs::ProfileReport> {
        let Some((mode, period)) = self.prof else {
            return Ok(obs::ProfileReport::default());
        };
        let upto = match self.idx {
            Some(i) => (i + 1).min(self.len()),
            None => 0,
        };
        // Re-drive a live profiler from the recorded stacks: each
        // recorded step is one line unit attributed to its innermost
        // frame. Calls are recovered from stack growth between steps, so
        // back-to-back calls of one function collapsing onto the same
        // stack shape count once — line-granular recordings cannot tell
        // them apart.
        let mut p = obs::Profiler::new(mode, period);
        let mut stack: Vec<String> = Vec::new();
        for i in 0..upto {
            let st = self.state_at(i);
            let mut chain: Vec<String> = st.frame.chain().map(|f| f.name().to_owned()).collect();
            chain.reverse(); // outermost first
            let common = stack.iter().zip(&chain).take_while(|(a, b)| a == b).count();
            for _ in common..stack.len() {
                p.exit();
            }
            for name in &chain[common..] {
                let id = p.intern(name);
                p.enter(id);
            }
            stack = chain;
            p.line(st.frame.location().line());
            p.tick();
        }
        Ok(p.report())
    }

    fn stats(&self) -> obs::Snapshot {
        self.obs.snapshot()
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
        let writes = t.writes_in("s", 0, t.recorded_pauses() - 1);
        assert!(!writes.is_empty());
        assert!(writes.windows(2).all(|w| w[0].pause < w[1].pause));
        assert_eq!(writes.last().unwrap().value, "14");
        let last = t.last_change("s", None).unwrap();
        assert_eq!(last.value, "14");
        // Qualified names work too.
        assert_eq!(t.last_change("main::s", None).unwrap().pause, last.pause);
        assert!(t.last_change("main::nosuch", None).is_none());
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
