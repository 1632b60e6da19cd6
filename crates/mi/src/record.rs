//! Recording and replay at the MI boundary.
//!
//! [`RecordingEngine`] wraps any [`Engine`] and teaches it the trace
//! vocabulary: [`Command::Record`] arms a [`trace::Store`] that captures
//! the full state snapshot and output delta after every pause the client
//! drives; [`Command::Seek`] positions a read-only inspection cursor
//! inside the recording; [`Command::QueryHistory`] and
//! [`Command::TraceStats`] answer from the store's indexes. The wrapper
//! is transparent while recording is off — every command forwards to the
//! inner engine unchanged — so all spawned sessions carry it.
//!
//! [`ReplayEngine`] is the other half, and the only replay state
//! machine: a session engine whose "inferior" is a finished recording
//! behind an `Arc<trace::Store>`, with the live engines' control points,
//! stepping and variable lookup. Its pauses are decided by the same
//! control core as the live engines' (`control`): each recorded
//! pause is fed to it as the events it stands for. The session host
//! shelves recordings
//! published with [`Command::PublishTrace`] and opens any number of
//! replay sessions over one shelved store with [`Command::OpenReplay`] —
//! record once, scrub many, each reader with its own cursor, control
//! points, decode caches, and metrics. Publishing shares the recording's
//! `Arc`; it never copies the store. `easytracker::ReplayTracker` drives
//! the same engine in process.

use crate::control::{
    error, inspect, mode, resolve, BpKind, ControlPoints, Func, Mode, Phase, Slice, Watch,
};
use crate::protocol::{Command, Response};
use crate::server::{Engine, SliceOutcome};
use state::{ExitStatus, Frame, PauseReason, ProgramState, SourceLocation};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The host's shared shelf of published recordings, keyed by the name
/// given to [`Command::PublishTrace`].
pub type TraceShelf = Arc<Mutex<HashMap<String, Arc<trace::Store>>>>;

/// Creates an empty trace shelf.
#[must_use]
pub fn new_shelf() -> TraceShelf {
    Arc::new(Mutex::new(HashMap::new()))
}

/// An [`Engine`] wrapper that records every pause into a
/// [`trace::Store`] and serves the trace commands.
///
/// While recording is armed, the wrapper drains the inner engine's
/// output after each pause (the delta belongs to the recording), so it
/// buffers that output and serves `GetOutput` itself — the client still
/// sees exactly the bytes the inferior produced, in order, drained
/// exactly once.
pub struct RecordingEngine<E> {
    inner: E,
    shelf: Option<TraceShelf>,
    /// The recording, shared with the shelf once published; a pause
    /// recorded after that copies it first.
    store: Option<Arc<trace::Store>>,
    started: bool,
    finished: bool,
    /// Output captured from the inner engine but not yet drained by the
    /// client's own `GetOutput`.
    pending_out: String,
    /// Replay reader over the recording, positioned by `Seek`; `None` =
    /// live.
    cursor: Option<ReplayEngine>,
}

impl<E: Engine> RecordingEngine<E> {
    /// Wraps `inner`; `PublishTrace` will be rejected (no shelf).
    pub fn new(inner: E) -> Self {
        Self::with_shelf(inner, None)
    }

    /// Wraps `inner` with a host trace shelf for `PublishTrace`.
    pub fn with_shelf(inner: E, shelf: Option<TraceShelf>) -> Self {
        RecordingEngine {
            inner,
            shelf,
            store: None,
            started: false,
            finished: false,
            pending_out: String::new(),
            cursor: None,
        }
    }

    /// The inner engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The recording built so far, if armed.
    pub fn store(&self) -> Option<&trace::Store> {
        self.store.as_deref()
    }

    /// Captures the pause a control command just produced (or the exit
    /// that ended the run) into the armed store.
    fn after_control(&mut self, resp: &Response) {
        let (Some(store), Response::Paused(reason)) = (&mut self.store, resp) else {
            return;
        };
        let drain = |inner: &mut E| match inner.handle(Command::GetOutput) {
            Response::Output(s) => s,
            _ => String::new(),
        };
        if reason.is_alive() {
            let Response::State(st) = self.inner.handle(Command::GetState) else {
                return;
            };
            let delta = drain(&mut self.inner);
            Arc::make_mut(store).push(&st, &delta);
            self.pending_out.push_str(&delta);
        } else if !std::mem::replace(&mut self.finished, true) {
            // Output produced by the very last step, plus the exit code.
            let tail = drain(&mut self.inner);
            let code = match self.inner.handle(Command::GetExitCode) {
                Response::ExitCode(code) => code,
                _ => None,
            };
            let store = Arc::make_mut(store);
            if !tail.is_empty() {
                store.append_output_to_last(&tail);
            }
            store.set_exit_code(code);
            store.freeze();
            self.pending_out.push_str(&tail);
        }
    }

    fn serve_trace_cmd(&mut self, cmd: &Command) -> Option<Response> {
        match cmd {
            Command::Record { keyframe_every } => Some(self.arm(*keyframe_every)),
            Command::Seek { .. } => {
                let Some(store) = &self.store else {
                    return Some(no_recording());
                };
                // Control commands drop the cursor, so while it lives the
                // store it reads is the current one.
                let reader = self.cursor.get_or_insert_with(|| {
                    ReplayEngine::new(Arc::clone(store), obs::Registry::new())
                });
                let resp = reader.handle(cmd.clone());
                // A refused seek leaves the cursor where it was.
                if *reader.pause_reason() == PauseReason::NotStarted {
                    self.cursor = None;
                }
                Some(resp)
            }
            _ => serve_store(self.store.as_ref(), self.shelf.as_ref(), cmd),
        }
    }

    /// Snaps the inspection cursor back to the live inferior before a
    /// control command; `false` for every other command.
    fn before_control(&mut self, cmd: &Command) -> bool {
        let control = matches!(
            cmd,
            Command::Start | Command::Resume | Command::Step | Command::Next | Command::Finish
        );
        if control {
            self.cursor = None;
            self.started |= *cmd == Command::Start;
        }
        control
    }

    fn arm(&mut self, keyframe_every: u32) -> Response {
        if self.started {
            return Response::Error {
                message: "Record must precede Start: the store captures from the first pause"
                    .into(),
            };
        }
        let (file, source) = match self.inner.handle(Command::GetSource) {
            Response::Source { file, text } => (file, text),
            other => {
                return Response::Error {
                    message: format!("engine cannot report its source: {}", other.summary()),
                }
            }
        };
        self.store = Some(Arc::new(trace::Store::new(
            file,
            source,
            keyframe_every.max(1),
        )));
        Response::Ok
    }
}

fn no_recording() -> Response {
    Response::Error {
        message: "no recording: arm one with Record before Start".into(),
    }
}

/// Answers the commands both engines serve from the store itself:
/// `QueryHistory`, `TraceStats` and `PublishTrace`. `None` for others.
fn serve_store(
    store: Option<&Arc<trace::Store>>,
    shelf: Option<&TraceShelf>,
    cmd: &Command,
) -> Option<Response> {
    Some(match (cmd, store, shelf) {
        (Command::PublishTrace { .. }, _, None) => Response::Error {
            message: "no trace shelf here: PublishTrace needs a session host".into(),
        },
        (
            Command::QueryHistory { .. } | Command::TraceStats | Command::PublishTrace { .. },
            None,
            _,
        ) => no_recording(),
        (Command::PublishTrace { name }, Some(store), Some(shelf)) => {
            shelf
                .lock()
                .expect("trace shelf")
                .insert(name.clone(), Arc::clone(store));
            Response::Ok
        }
        (Command::TraceStats, Some(store), _) => Response::TraceStats {
            pauses: store.len(),
            keyframes: store.keyframes(),
            bytes: store.disk_bytes(),
        },
        (
            Command::QueryHistory {
                variable,
                from,
                to,
                last_only,
            },
            Some(store),
            _,
        ) => {
            let (from, to) = (
                from.unwrap_or(0),
                to.unwrap_or(store.len().saturating_sub(1)),
            );
            let hits = if *last_only {
                let last = store.last_change(variable, Some(to));
                last.into_iter().filter(|h| h.pause >= from).collect()
            } else {
                store.writes_in(variable, from, to)
            };
            Response::History { hits }
        }
        _ => return None,
    })
}

impl<E: Engine> Engine for RecordingEngine<E> {
    fn handle(&mut self, cmd: Command) -> Response {
        if let Some(resp) = self.serve_trace_cmd(&cmd) {
            return resp;
        }
        if self.before_control(&cmd) {
            let resp = self.inner.handle(cmd);
            self.after_control(&resp);
            return resp;
        }
        if let Some(reader) = &mut self.cursor {
            if matches!(
                cmd,
                Command::GetState | Command::GetGlobals | Command::GetVariable { .. }
            ) {
                return reader.handle(cmd);
            }
        }
        if cmd == Command::GetOutput && self.store.is_some() {
            // The recording drains the inner buffer at every pause; the
            // client's drain is served from what was captured.
            return Response::Output(std::mem::take(&mut self.pending_out));
        }
        self.inner.handle(cmd)
    }

    fn handle_sliced(&mut self, cmd: Command, fuel: u64) -> SliceOutcome {
        if self.before_control(&cmd) {
            let outcome = self.inner.handle_sliced(cmd, fuel);
            if let SliceOutcome::Done(resp) = &outcome {
                self.after_control(resp);
            }
            return outcome;
        }
        SliceOutcome::Done(self.handle(cmd))
    }

    fn resume_sliced(&mut self, fuel: u64) -> SliceOutcome {
        let outcome = self.inner.resume_sliced(fuel);
        if let SliceOutcome::Done(resp) = &outcome {
            self.after_control(resp);
        }
        outcome
    }
}

/// A session engine whose inferior is a finished recording — the one
/// replay state machine, serving hosted replay sessions and, in process,
/// `easytracker::ReplayTracker`.
///
/// Control commands move a cursor over the recorded pauses. With no
/// control point armed, `Step`/`Next`/`Finish`/`Resume` are answered
/// from the store's line and depth columns without decoding a state;
/// armed control points (breakpoints, tracked functions, watchpoints)
/// fire through the control core on the events derived from the
/// recorded snapshots, so a pause's
/// triggers arrive in the live engines' order. [`ReplayEngine::step_back`] and
/// [`ReplayEngine::resume_back`] run the same control points backwards.
/// `Seek` jumps anywhere in O(log n) and decodes only the pause it lands
/// on. Control points and the derived profile are per-session state; the
/// shared store is never mutated.
#[derive(Debug)]
pub struct ReplayEngine {
    reader: trace::TraceReader,
    shelf: Option<TraceShelf>,
    /// Current pause (the store's length once exited); `None` before
    /// `Start` or the first `Seek`.
    pos: Option<u64>,
    reason: PauseReason,
    /// Where the next forward command resumes the events of `pos` (see
    /// [`ReplayEngine::fire`]).
    owed: Owed,
    /// Functions are keyed by name; a watch's timeline is in
    /// `timelines`.
    points: ControlPoints<String, ()>,
    /// Per watched variable, derived once from the store when armed: its
    /// most recent visible value (rendered) at or before each pause. The
    /// live engines' sticky-watch question — did the value change against
    /// the last pause where the variable was visible? — is then a
    /// comparison of two neighbouring entries.
    timelines: HashMap<String, Vec<Option<String>>>,
    /// Armed profile configuration; the report is derived on demand from
    /// the recorded stacks.
    profile: Option<(obs::ProfileMode, u64)>,
    /// Pauses whose output has been released to the client (high-water
    /// mark of forward progress — moving backwards never re-releases).
    out_released: u64,
    /// Pauses whose output the client has already drained.
    out_drained: u64,
}

impl ReplayEngine {
    /// Opens a reader over a shared store; metrics go to `registry`.
    /// O(1) in the recording's length: nothing is decoded or serialized
    /// until a command needs it.
    #[must_use]
    pub fn new(store: Arc<trace::Store>, registry: obs::Registry) -> Self {
        ReplayEngine {
            reader: trace::TraceReader::new(store, registry),
            shelf: None,
            pos: None,
            reason: PauseReason::NotStarted,
            owed: LINE_DONE,
            points: ControlPoints::default(),
            timelines: HashMap::new(),
            profile: None,
            out_released: 0,
            out_drained: 0,
        }
    }

    /// Attaches the host shelf so the replay session can re-publish its
    /// store under another name.
    #[must_use]
    pub fn with_shelf(mut self, shelf: TraceShelf) -> Self {
        self.shelf = Some(shelf);
        self
    }

    /// The reader this session scrubs with: the shared store, this
    /// session's decode caches, and its registry.
    pub fn reader(&self) -> &trace::TraceReader {
        &self.reader
    }

    /// Why the session is paused: the last control answer.
    pub fn pause_reason(&self) -> &PauseReason {
        &self.reason
    }

    /// Steps one recorded pause backwards. At the first pause this
    /// reports [`PauseReason::Started`] and stays put.
    pub fn step_back(&mut self) -> Response {
        match self.pos {
            None => not_started(),
            Some(0) => {
                self.reason = PauseReason::Started;
                Response::Paused(PauseReason::Started)
            }
            Some(n) => self.land(
                (n - 1).min(self.len().saturating_sub(1)),
                PauseReason::Step,
                LINE_DONE,
            ),
        }
    }

    /// Runs backwards to the previous pause where a control point fires,
    /// or to the first pause ([`PauseReason::Started`]).
    pub fn resume_back(&mut self) -> Response {
        let Some(cur) = self.pos else {
            return not_started();
        };
        let pauses = (0..cur.min(self.len())).rev();
        let resume = Slice::new(Mode::Resume);
        self.run(resume, pauses, (0, Phase::FuncBreak))
            .unwrap_or_else(|| self.land(0, PauseReason::Started, LINE_DONE))
    }

    fn store(&self) -> &Arc<trace::Store> {
        self.reader.store()
    }

    fn len(&self) -> u64 {
        self.store().len()
    }

    /// The recorded exit; code −1 is how every engine reports a crash.
    fn exit_reason(&self) -> PauseReason {
        PauseReason::Exited(match self.store().exit_code() {
            Some(-1) => ExitStatus::Crashed,
            code => ExitStatus::Exited(code.unwrap_or(0)),
        })
    }

    /// Lands on pause `n` for `reason` (on the exit past the end) and
    /// releases the output recorded up to it.
    fn land(&mut self, n: u64, reason: PauseReason, owed: Owed) -> Response {
        let len = self.len();
        let reason = if n < len { reason } else { self.exit_reason() };
        self.pos = Some(n.min(len));
        self.out_released = self.out_released.max((n + 1).min(len));
        self.owed = owed;
        self.reason = reason.clone();
        Response::Paused(reason)
    }

    fn control(&mut self, cmd: &Command) -> Response {
        let Some(cur) = self.pos else {
            return not_started();
        };
        let len = self.len();
        if cur >= len {
            return Response::Paused(self.exit_reason());
        }
        if *cmd == Command::Step {
            return self.land(cur + 1, PauseReason::Step, LINE_DONE);
        }
        let depth = self.store().depth_at(cur).unwrap_or(0) as usize;
        let line = self.store().line_at(cur).unwrap_or(0);
        let mode = match mode(cmd, (line, depth)) {
            Some(Ok(mode)) => mode,
            Some(Err(message)) => return error(message),
            None => unreachable!("only control commands run the recording"),
        };
        self.run(Slice::new(mode), cur..len, self.owed)
            .unwrap_or_else(|| self.land(len, PauseReason::Step, LINE_DONE))
    }

    /// Runs `slice` over `pauses`, the first from `from`, and lands on
    /// the first that pauses; `None` when none does.
    fn run(
        &mut self,
        mut slice: Slice,
        pauses: impl Iterator<Item = u64>,
        mut from: Owed,
    ) -> Option<Response> {
        for n in pauses {
            match self.fire(&mut slice, n, from) {
                Ok(Some((owed, reason))) => return Some(self.land(n, reason, owed)),
                Ok(None) => from = (0, Phase::FuncBreak),
                Err(message) => return Some(error(message)),
            }
        }
        None
    }

    /// Feeds the control core the events recorded pause `n` stands for,
    /// from `from`: event 0 is the arrival at `n` (the frame entered, if
    /// its function has more live frames than at `n - 1`; the watch
    /// timelines' step; the line), then each frame that returns before
    /// pause `n + 1`, innermost first. Returns the pause, with where to
    /// resume `n`'s events; `None` once they are all delivered and the
    /// `finish` target's return is marked. Nothing is decoded while no
    /// control point is armed: the stop rules read the line and depth
    /// columns.
    fn fire(
        &mut self,
        slice: &mut Slice,
        n: u64,
        (mut i, mut from): Owed,
    ) -> Result<Option<(Owed, PauseReason)>, String> {
        let store = Arc::clone(self.store());
        let depth = store.depth_at(n).unwrap_or(0);
        let armed = !self.points.is_empty();
        let cur = armed.then(|| self.reader.state_at(n)).transpose()?;
        let file = cur
            .as_ref()
            .map_or(store.file(), |st| st.frame.location().file());
        let line = Some((store.line_at(n).unwrap_or(0), depth as usize));
        let mut call = None;
        let occurrences =
            |st: &ProgramState, f: &str| st.frame.chain().filter(|fr| fr.name() == f).count();
        let mut returns = Vec::new();
        if let Some(cur) = &cur {
            let name = cur.frame.name();
            let prev = n
                .checked_sub(1)
                .map(|p| self.reader.state_at(p))
                .transpose()?;
            if occurrences(cur, name) > prev.as_ref().map_or(0, |p| occurrences(p, name)) {
                let entered = Func(name, depth.saturating_sub(1), name);
                call = Some((entered, cur.frame.location().line()));
            }
            if !self.points.tracked.is_empty() {
                // The frames above the stack the next pause shares with
                // this one return before it, innermost first; program exit
                // pops every frame but the outermost, whose teardown is
                // not a tracked return.
                let chain: Vec<&str> = cur.frame.chain().map(Frame::name).collect();
                let kept = if n + 1 < self.len() {
                    let next = self.reader.state_at(n + 1)?;
                    let next: Vec<&str> = next.frame.chain().map(Frame::name).collect();
                    let shared = chain.iter().rev().zip(next.iter().rev());
                    shared.take_while(|(a, b)| a == b).count()
                } else {
                    1
                };
                let popped = chain[..chain.len() - kept].iter().enumerate();
                returns = popped
                    .map(|(k, &f)| Func(f, depth - 1 - k as u32, f))
                    .collect();
            }
        }
        let timelines = &self.timelines;
        // A variable springing into existence counts as a change; callee
        // frames may shadow it.
        let refresh = |w: &mut Watch<()>| {
            let tl = timelines.get(&w.name)?;
            let new = tl[n as usize].clone()?;
            let old = tl[n.checked_sub(1)? as usize].clone();
            w.last = Some(new);
            Some(old)
        };
        if i == 0 {
            let points = &mut self.points;
            let hit = call.and_then(|c| points.on_call(file, c, false, from));
            if let Some((p, reason)) =
                hit.or_else(|| points.on_line(slice, file, armed, line, from, refresh))
            {
                return Ok(Some(((0, p.next()), reason)));
            }
            (i, from) = (1, Phase::FuncBreak);
        }
        for (k, &f) in returns.iter().enumerate().skip(i - 1) {
            let from = if k + 1 == i { from } else { Phase::FuncBreak };
            if let Some((p, reason)) = self.points.on_return((f, &|| None), from) {
                return Ok(Some(((k + 1, p.next()), reason)));
            }
        }
        if let Some(depth) = store.depth_at(n + 1) {
            slice.popped(depth as usize);
        }
        Ok(None)
    }

    fn watch(&mut self, variable: String) -> Response {
        if !self.timelines.contains_key(&variable) {
            match self.timeline(&variable) {
                Ok(tl) => self.timelines.insert(variable.clone(), tl),
                Err(message) => return Response::Error { message },
            };
        }
        let id = self.points.add_watch(Watch::new(variable, None, ()));
        Response::Created { id }
    }

    /// Derives the sticky-watch timeline for `variable` in one
    /// sequential pass over the store (each record decompressed once).
    fn timeline(&self, variable: &str) -> Result<Vec<Option<String>>, String> {
        let mut tl = Vec::with_capacity(self.len() as usize);
        for n in 0..self.len() {
            let v = resolve(&*self.reader.state_at(n)?, variable)
                .map(|v| state::render_value(v.value().deref_fully()));
            tl.push(v.or_else(|| tl.last().cloned().flatten()));
        }
        Ok(tl)
    }

    /// Answers an inspection from the state at the current position,
    /// carrying the current pause reason. Past the end that is the last
    /// recorded frame (an empty module frame for an empty recording).
    /// Before `Start` it answers as the live engines do.
    fn inspect(&self, cmd: &Command) -> Response {
        let Some(pos) = self.pos else {
            return inspect(None, cmd);
        };
        let st = match self.len().checked_sub(1) {
            Some(last) => match self.reader.state_at(pos.min(last)) {
                Ok(st) => st,
                Err(message) => return Response::Error { message },
            },
            None => Arc::new(ProgramState::new(
                Frame::new("<module>", 0, SourceLocation::new(self.store().file(), 0)),
                Vec::new(),
                PauseReason::NotStarted,
            )),
        };
        match cmd {
            Command::GetState => Response::State(Box::new(ProgramState {
                reason: self.reason.clone(),
                ..(*st).clone()
            })),
            _ => inspect(Some(&st), cmd),
        }
    }

    /// Re-drives a profiler from the recorded stacks up to the current
    /// pause: each pause is one line unit attributed to its innermost
    /// frame, and calls are recovered from stack growth between pauses —
    /// back-to-back calls of one function collapsing onto the same stack
    /// shape count once, since line-granular recordings cannot tell them
    /// apart.
    fn profile_report(&self) -> Result<obs::ProfileReport, String> {
        let Some((mode, period)) = self.profile else {
            return Ok(obs::ProfileReport::default());
        };
        let upto = self.pos.map_or(0, |p| (p + 1).min(self.len()));
        let mut p = obs::Profiler::new(mode, period);
        let mut stack: Vec<String> = Vec::new();
        for n in 0..upto {
            let st = self.reader.state_at(n)?;
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
}

/// A position inside one recorded pause's events: the event's index
/// (0 is the arrival, then one per returning frame) and the phase it
/// resumes from.
type Owed = (usize, Phase);

/// A pause landed on as a line: its returns are still owed.
const LINE_DONE: Owed = (1, Phase::FuncBreak);

fn not_started() -> Response {
    Response::Error {
        message: "inferior not started".into(),
    }
}

impl Engine for ReplayEngine {
    fn handle(&mut self, cmd: Command) -> Response {
        match cmd {
            Command::Start if self.pos.is_some() => Response::Error {
                message: "replay already started".into(),
            },
            Command::Start => self.land(0, PauseReason::Started, LINE_DONE),
            Command::Step | Command::Next | Command::Finish | Command::Resume => self.control(&cmd),
            Command::Seek { pause } => match self.reader.state_at(pause) {
                Ok(st) => self.land(pause, st.reason.clone(), LINE_DONE),
                Err(message) => Response::Error { message },
            },
            Command::SetBreakLine { line } => {
                // Slide to the next recorded line, like the live engines.
                match self
                    .store()
                    .breakable_lines()
                    .into_iter()
                    .find(|&l| l >= line)
                {
                    Some(actual) => Response::Created {
                        id: self.points.add(BpKind::Line(actual), None),
                    },
                    None => Response::Error {
                        message: format!("no recorded execution at or after line {line}"),
                    },
                }
            }
            Command::SetBreakFunc { function, maxdepth } => Response::Created {
                id: self.points.add(BpKind::Entry(function), maxdepth),
            },
            Command::TrackFunction { function, maxdepth } => Response::Created {
                id: self.points.add(BpKind::Track(function), maxdepth),
            },
            Command::Watch { variable } => self.watch(variable),
            Command::Delete { id } => match self.points.delete(id) {
                Ok(()) => Response::Ok,
                Err(message) => error(message),
            },
            Command::GetState | Command::GetGlobals | Command::GetVariable { .. } => {
                self.inspect(&cmd)
            }
            Command::GetOutput => {
                let out = self
                    .store()
                    .output_range(self.out_drained, self.out_released)
                    .to_string();
                self.out_drained = self.out_released;
                Response::Output(out)
            }
            Command::GetExitCode => Response::ExitCode(if self.pos == Some(self.len()) {
                self.store().exit_code()
            } else {
                None
            }),
            Command::GetSource => Response::Source {
                file: self.store().file().to_string(),
                text: self.store().source().to_string(),
            },
            Command::GetBreakableLines => Response::Lines(self.store().breakable_lines()),
            Command::SetProfile { mode, period } => {
                // Derived, not collected: armable at any position.
                self.profile = (mode != obs::ProfileMode::Off).then_some((mode, period));
                Response::Ok
            }
            Command::ProfileReport { .. } => match self.profile_report() {
                Ok(report) => Response::Profile(Box::new(report)),
                Err(message) => Response::Error { message },
            },
            Command::Terminate => {
                self.land(self.len(), PauseReason::Step, LINE_DONE);
                Response::Ok
            }
            other => {
                serve_store(Some(self.store()), self.shelf.as_ref(), &other).unwrap_or_else(|| {
                    Response::Error {
                        message: format!("{} is not available in a replay session", other.kind()),
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use state::{Frame, Prim, Scope, SourceLocation, Value, Variable};

    fn mk_store(n: u64) -> trace::Store {
        let mut store = trace::Store::new("r.c", "int main() { return 7; }", 8);
        for i in 0..n {
            let mut frame = Frame::new("main", 0, SourceLocation::new("r.c", (i + 1) as u32));
            frame.insert_variable(Variable::new(
                "x",
                Scope::Local,
                Value::primitive(Prim::Int(i as i64), "int"),
            ));
            let reason = if i == 0 {
                PauseReason::Started
            } else {
                PauseReason::Step
            };
            store.push(&ProgramState::new(frame, vec![], reason), &format!("{i};"));
        }
        store.set_exit_code(Some(7));
        store.freeze();
        store
    }

    #[test]
    fn replay_engine_scrubs_and_drains_output_once() {
        let mut eng = ReplayEngine::new(Arc::new(mk_store(10)), obs::Registry::new());
        assert_eq!(
            eng.handle(Command::Start),
            Response::Paused(PauseReason::Started)
        );
        assert_eq!(
            eng.handle(Command::GetOutput),
            Response::Output("0;".into())
        );
        assert_eq!(
            eng.handle(Command::Step),
            Response::Paused(PauseReason::Step)
        );
        assert_eq!(
            eng.handle(Command::Step),
            Response::Paused(PauseReason::Step)
        );
        assert_eq!(
            eng.handle(Command::GetOutput),
            Response::Output("1;2;".into())
        );
        // Seek back: inspections answer from the recording, output does
        // not rewind or repeat.
        assert_eq!(
            eng.handle(Command::Seek { pause: 0 }),
            Response::Paused(PauseReason::Started)
        );
        match eng.handle(Command::GetVariable { name: "x".into() }) {
            Response::Variable(Some(v)) => assert_eq!(state::render_value(v.value()), "0"),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(
            eng.handle(Command::GetOutput),
            Response::Output(String::new())
        );
        // Run off the end: exit surfaces like a live engine.
        assert_eq!(
            eng.handle(Command::Resume),
            Response::Paused(PauseReason::Exited(ExitStatus::Exited(7)))
        );
        assert_eq!(
            eng.handle(Command::GetExitCode),
            Response::ExitCode(Some(7))
        );
        assert_eq!(
            eng.handle(Command::GetOutput),
            Response::Output("3;4;5;6;7;8;9;".into())
        );
        // Control points are per-reader state: a breakpoint fires at the
        // recorded line.
        let mut eng = ReplayEngine::new(Arc::new(mk_store(10)), obs::Registry::new());
        eng.handle(Command::Start);
        let Response::Created { id } = eng.handle(Command::SetBreakLine { line: 3 }) else {
            panic!("breakpoint refused");
        };
        match eng.handle(Command::Resume) {
            Response::Paused(PauseReason::Breakpoint { id: hit, location }) => {
                assert_eq!((hit, location.line()), (id, 3));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn publish_shares_the_recording_and_later_pauses_copy_it() {
        let src =
            "int main() {\n    int x = 1;\n    x = x + 1;\n    x = x + 2;\n    return x;\n}\n";
        let program = minic::compile("p.c", src).unwrap();
        let shelf = new_shelf();
        let inner = crate::minic_engine::MinicEngine::new(&program);
        let mut eng = RecordingEngine::with_shelf(inner, Some(shelf.clone()));
        assert_eq!(
            eng.handle(Command::Record { keyframe_every: 4 }),
            Response::Ok
        );
        eng.handle(Command::Start);
        eng.handle(Command::Step);
        assert_eq!(
            eng.handle(Command::PublishTrace { name: "mid".into() }),
            Response::Ok
        );
        let shelved = shelf.lock().unwrap()["mid"].clone();
        assert!(
            std::ptr::eq(shelved.as_ref(), eng.store().unwrap()),
            "publishing copied the store"
        );
        let published = shelved.len();
        eng.handle(Command::Step);
        assert_eq!(shelved.len(), published, "a later pause reached a reader");
        assert_eq!(eng.store().unwrap().len(), published + 1);
        // After a seek, inspections answer with the recorded state.
        assert_eq!(
            eng.handle(Command::Seek { pause: 0 }),
            Response::Paused(PauseReason::Started)
        );
        let recorded = shelved.state_at(0).unwrap();
        assert_eq!(
            eng.handle(Command::GetState),
            Response::State(Box::new(recorded))
        );
    }

    #[test]
    fn seek_cursor_resolves_bare_names_like_the_live_engine() {
        let src = "int inc(int v) {\n    return v + 1;\n}\nint main() {\n    int i = 0;\n    i = inc(i);\n    return i;\n}\n";
        let program = minic::compile("p.c", src).unwrap();
        let inner = crate::minic_engine::MinicEngine::new(&program);
        let mut eng = RecordingEngine::new(inner);
        eng.handle(Command::Record { keyframe_every: 4 });
        let mut reason = eng.handle(Command::Start);
        while matches!(&reason, Response::Paused(r) if r.is_alive()) {
            reason = eng.handle(Command::Step);
        }
        let store = eng.store().unwrap();
        let callee = (0..store.len())
            .find(|&n| store.state_at(n).unwrap().frame.name() == "inc")
            .expect("a pause inside inc");
        assert!(matches!(
            eng.handle(Command::Seek { pause: callee }),
            Response::Paused(_)
        ));
        let var = |eng: &mut RecordingEngine<_>, name: &str| match eng
            .handle(Command::GetVariable { name: name.into() })
        {
            Response::Variable(v) => v,
            other => panic!("unexpected: {other:?}"),
        };
        // `i` is the caller's: invisible from `inc`, as it is live.
        assert_eq!(var(&mut eng, "i"), None);
        assert!(var(&mut eng, "v").is_some());
        assert!(var(&mut eng, "main::i").is_some());
    }

    #[test]
    fn replay_engine_answers_history_and_stats() {
        let mut eng = ReplayEngine::new(Arc::new(mk_store(20)), obs::Registry::new());
        match eng.handle(Command::QueryHistory {
            variable: "x".into(),
            from: Some(3),
            to: Some(5),
            last_only: false,
        }) {
            Response::History { hits } => {
                assert_eq!(hits.iter().map(|h| h.pause).collect::<Vec<_>>(), [3, 4, 5]);
            }
            other => panic!("unexpected: {other:?}"),
        }
        match eng.handle(Command::TraceStats) {
            Response::TraceStats {
                pauses,
                keyframes,
                bytes,
            } => {
                assert_eq!(pauses, 20);
                assert_eq!(keyframes, 3);
                assert!(bytes > 0);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// `fib(12)` as the benchmark's recorded program writes it: one
    /// statement per line, a frame pushed and popped per call.
    const FIB: &str = "int fib(int n) {\nif (n < 2) { return n; }\n\
        return fib(n - 1) + fib(n - 2);\n}\nint main() {\nint r = fib(12);\n\
        printf(\"%d\\n\", r);\nreturn r % 256;\n}\n";

    /// Mean on-disk bytes per recorded pause of [`FIB`] at keyframe
    /// cadence 32 may not exceed this: the sparse-anchor encoder writes
    /// 44.1 (the full-dictionary one wrote 44.7), and the bound sits ~15%
    /// above it. An encoder change that gives the ratio back fails here.
    const FIB_BYTES_PER_PAUSE_MAX: f64 = 51.0;

    #[test]
    fn recording_fib_reads_back_every_pause_within_its_size_bound() {
        let program = minic::compile("fib.c", FIB).expect("fib compiles");
        let mut eng = RecordingEngine::new(crate::minic_engine::MinicEngine::new(&program));
        assert_eq!(
            eng.handle(Command::Record { keyframe_every: 32 }),
            Response::Ok
        );
        let mut live = Vec::new();
        let mut resp = eng.handle(Command::Start);
        while matches!(&resp, Response::Paused(r) if r.is_alive()) {
            match eng.handle(Command::GetState) {
                Response::State(st) => live.push(*st),
                other => panic!("unexpected: {other:?}"),
            }
            resp = eng.handle(Command::Step);
        }
        assert_eq!(
            resp,
            Response::Paused(PauseReason::Exited(ExitStatus::Exited(144)))
        );
        let store = eng.store().expect("recording armed");
        assert_eq!(store.len(), live.len() as u64);
        assert!(live.len() > 500, "{} pauses", live.len());
        for (n, st) in live.iter().enumerate() {
            assert_eq!(&store.state_at(n as u64).unwrap(), st, "pause {n}");
        }
        let bytes = match eng.handle(Command::TraceStats) {
            Response::TraceStats { bytes, .. } => bytes,
            other => panic!("unexpected: {other:?}"),
        };
        let per_pause = bytes as f64 / live.len() as f64;
        assert!(
            per_pause <= FIB_BYTES_PER_PAUSE_MAX,
            "{per_pause:.1} B/pause exceeds {FIB_BYTES_PER_PAUSE_MAX}"
        );
    }
}
