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
//! [`ReplayEngine`] is the other half: a session engine whose "inferior"
//! is a finished recording behind an `Arc<trace::Store>`. The session
//! host shelves recordings published with [`Command::PublishTrace`] and
//! opens any number of replay sessions over one shelved store with
//! [`Command::OpenReplay`] — record once, scrub many, each reader with
//! its own cursor, decode caches, and metrics. Publishing shares the
//! recording's `Arc`; it never copies the store.

use crate::protocol::{Command, Response};
use crate::server::{Engine, SliceOutcome};
use state::{ExitStatus, PauseReason, ProgramState, Variable};
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

fn is_control(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Start | Command::Resume | Command::Step | Command::Next | Command::Finish
    )
}

/// Finds `name` (bare or `frame::var`-qualified) in a recorded snapshot,
/// innermost frame first, then globals — the same resolution order the
/// live engines use for `GetVariable`.
fn find_variable(st: &ProgramState, name: &str) -> Option<Variable> {
    let (frame_filter, bare) = match name.split_once("::") {
        Some((f, v)) => (Some(f), v),
        None => (None, name),
    };
    for frame in st.frame.chain() {
        if frame_filter.is_some_and(|f| f != frame.name()) {
            continue;
        }
        if let Some(var) = frame.variable(bare) {
            return Some(var.clone());
        }
    }
    if frame_filter.is_none() {
        return st.globals.iter().find(|v| v.name() == bare).cloned();
    }
    None
}

/// Serves an inspection command against a recorded snapshot.
fn inspect_recorded(st: &ProgramState, cmd: &Command) -> Response {
    match cmd {
        Command::GetState => Response::State(Box::new(st.clone())),
        Command::GetGlobals => Response::Globals(st.globals.clone()),
        Command::GetVariable { name } => Response::Variable(find_variable(st, name)),
        _ => Response::Error {
            message: format!("{} is not answerable from a recording", cmd.kind()),
        },
    }
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
    /// Recorded state the inspection cursor points at, decoded once by
    /// `Seek`; `None` = live.
    cursor: Option<ProgramState>,
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
        if self.store.is_none() {
            return;
        }
        let Response::Paused(reason) = resp else {
            return;
        };
        if reason.is_alive() {
            let Response::State(st) = self.inner.handle(Command::GetState) else {
                return;
            };
            let delta = match self.inner.handle(Command::GetOutput) {
                Response::Output(s) => s,
                _ => String::new(),
            };
            self.pending_out.push_str(&delta);
            if let Some(store) = self.store.as_mut() {
                Arc::make_mut(store).push(&st, &delta);
            }
        } else if !self.finished {
            self.finished = true;
            // Output produced by the very last step, plus the exit code.
            if let Response::Output(tail) = self.inner.handle(Command::GetOutput) {
                if !tail.is_empty() {
                    self.pending_out.push_str(&tail);
                    if let Some(store) = self.store.as_mut() {
                        Arc::make_mut(store).append_output_to_last(&tail);
                    }
                }
            }
            let code = match self.inner.handle(Command::GetExitCode) {
                Response::ExitCode(code) => code,
                _ => None,
            };
            if let Some(store) = self.store.as_mut() {
                let store = Arc::make_mut(store);
                store.set_exit_code(code);
                store.freeze();
            }
        }
    }

    fn serve_trace_cmd(&mut self, cmd: &Command) -> Option<Response> {
        match cmd {
            Command::Record { keyframe_every } => Some(self.arm(*keyframe_every)),
            Command::Seek { pause } => Some(self.seek(*pause)),
            Command::QueryHistory {
                variable,
                from,
                to,
                last_only,
            } => Some(self.query_history(variable, *from, *to, *last_only)),
            Command::TraceStats => Some(match &self.store {
                Some(store) => Response::TraceStats {
                    pauses: store.len(),
                    keyframes: store.keyframes(),
                    bytes: store.disk_bytes(),
                },
                None => no_recording(),
            }),
            Command::PublishTrace { name } => Some(self.publish(name)),
            _ => None,
        }
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

    fn seek(&mut self, pause: u64) -> Response {
        let Some(store) = &self.store else {
            return no_recording();
        };
        match store.state_at(pause) {
            Ok(st) => {
                let reason = st.reason.clone();
                self.cursor = Some(st);
                Response::Paused(reason)
            }
            Err(e) => Response::Error { message: e },
        }
    }

    fn query_history(
        &self,
        variable: &str,
        from: Option<u64>,
        to: Option<u64>,
        last_only: bool,
    ) -> Response {
        let Some(store) = &self.store else {
            return no_recording();
        };
        Response::History {
            hits: history_hits(store, variable, from, to, last_only),
        }
    }

    fn publish(&mut self, name: &str) -> Response {
        let Some(shelf) = &self.shelf else {
            return Response::Error {
                message: "no trace shelf here: PublishTrace needs a session host".into(),
            };
        };
        let Some(store) = &self.store else {
            return no_recording();
        };
        shelf
            .lock()
            .unwrap()
            .insert(name.to_string(), Arc::clone(store));
        Response::Ok
    }
}

fn no_recording() -> Response {
    Response::Error {
        message: "no recording: arm one with Record before Start".into(),
    }
}

/// Answers a `QueryHistory` against a store.
fn history_hits(
    store: &trace::Store,
    variable: &str,
    from: Option<u64>,
    to: Option<u64>,
    last_only: bool,
) -> Vec<trace::HistoryHit> {
    let to = to.unwrap_or_else(|| store.len().saturating_sub(1));
    if last_only {
        return store
            .last_change(variable, Some(to))
            .into_iter()
            .filter(|h| h.pause >= from.unwrap_or(0))
            .collect();
    }
    store.writes_in(variable, from.unwrap_or(0), to)
}

impl<E: Engine> Engine for RecordingEngine<E> {
    fn handle(&mut self, cmd: Command) -> Response {
        if let Some(resp) = self.serve_trace_cmd(&cmd) {
            return resp;
        }
        if is_control(&cmd) {
            // Control always acts on the live inferior: snap back.
            self.cursor = None;
            if cmd == Command::Start {
                self.started = true;
            }
            let resp = self.inner.handle(cmd);
            self.after_control(&resp);
            return resp;
        }
        if let Some(st) = &self.cursor {
            if matches!(
                cmd,
                Command::GetState | Command::GetGlobals | Command::GetVariable { .. }
            ) {
                return inspect_recorded(st, &cmd);
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
        if is_control(&cmd) {
            self.cursor = None;
            if cmd == Command::Start {
                self.started = true;
            }
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

/// A session engine whose inferior is a finished recording.
///
/// Control commands move a cursor over the recorded pauses (`Next` and
/// `Finish` use the store's depth column, so they do not even decode
/// skipped states); `Seek` jumps anywhere in O(log n) and decodes only
/// the pause it lands on; inspections are served from the reader's
/// decoded-state cache. Mutating commands
/// (breakpoints, sanitizer, limits) are rejected: a replay session is a
/// read-only view, shared with every other reader of the same store.
pub struct ReplayEngine {
    reader: trace::TraceReader,
    shelf: Option<TraceShelf>,
    /// Current pause; `None` before `Start`.
    cursor: Option<u64>,
    finished: bool,
    /// Pauses whose output has been released to the client (high-water
    /// mark of forward progress — seeking backwards never re-releases).
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
            cursor: None,
            finished: false,
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

    fn store(&self) -> &Arc<trace::Store> {
        self.reader.store()
    }

    fn exit_reason(&self) -> PauseReason {
        PauseReason::Exited(ExitStatus::Exited(self.store().exit_code().unwrap_or(0)))
    }

    /// Lands on pause `n` (or exits past the end) and answers like a
    /// live engine's pause report.
    fn land(&mut self, n: u64) -> Response {
        let len = self.store().len();
        if n >= len {
            self.cursor = len.checked_sub(1);
            self.finished = true;
            self.out_released = len;
            return Response::Paused(self.exit_reason());
        }
        self.cursor = Some(n);
        self.finished = false;
        self.out_released = self.out_released.max(n + 1);
        match self.reader.state_at(n) {
            Ok(st) => Response::Paused(st.reason.clone()),
            Err(e) => Response::Error { message: e },
        }
    }

    /// First pause after `from` whose depth satisfies `keep`; exits when
    /// none does. Drives `Next`/`Finish` off the depth column alone.
    fn advance_until(&mut self, from: u64, keep: impl Fn(u32) -> bool) -> Response {
        let mut n = from;
        while let Some(d) = self.store().depth_at(n) {
            if keep(d) {
                return self.land(n);
            }
            n += 1;
        }
        self.land(n)
    }

    fn current_state(&self) -> Result<Arc<ProgramState>, String> {
        match self.cursor {
            Some(n) => self.reader.state_at(n),
            None => Err("inferior not started".into()),
        }
    }
}

impl Engine for ReplayEngine {
    fn handle(&mut self, cmd: Command) -> Response {
        match cmd {
            Command::Start => {
                self.out_released = 0;
                self.out_drained = 0;
                self.finished = false;
                self.cursor = None;
                self.land(0)
            }
            Command::Step => match self.cursor {
                Some(n) if !self.finished => self.land(n + 1),
                _ => Response::Error {
                    message: "inferior not running".into(),
                },
            },
            Command::Next => match self.cursor {
                Some(n) if !self.finished => {
                    let depth = self.store().depth_at(n).unwrap_or(0);
                    self.advance_until(n + 1, |d| d <= depth)
                }
                _ => Response::Error {
                    message: "inferior not running".into(),
                },
            },
            Command::Finish => match self.cursor {
                Some(n) if !self.finished => {
                    let depth = self.store().depth_at(n).unwrap_or(0);
                    self.advance_until(n + 1, |d| d < depth)
                }
                _ => Response::Error {
                    message: "inferior not running".into(),
                },
            },
            Command::Resume => match self.cursor {
                Some(_) if !self.finished => self.land(self.store().len()),
                _ => Response::Error {
                    message: "inferior not running".into(),
                },
            },
            Command::Seek { pause } => {
                if pause >= self.store().len() {
                    return Response::Error {
                        message: format!("pause {pause} out of range (len {})", self.store().len()),
                    };
                }
                self.land(pause)
            }
            Command::GetState | Command::GetGlobals | Command::GetVariable { .. } => {
                match self.current_state() {
                    Ok(st) => inspect_recorded(&st, &cmd),
                    Err(e) => Response::Error { message: e },
                }
            }
            Command::GetOutput => {
                let out = self
                    .store()
                    .output_range(self.out_drained, self.out_released)
                    .to_string();
                self.out_drained = self.out_released;
                Response::Output(out)
            }
            Command::GetExitCode => Response::ExitCode(if self.finished {
                self.store().exit_code()
            } else {
                None
            }),
            Command::GetSource => Response::Source {
                file: self.store().file().to_string(),
                text: self.store().source().to_string(),
            },
            Command::GetBreakableLines => Response::Lines(self.store().breakable_lines()),
            Command::QueryHistory {
                variable,
                from,
                to,
                last_only,
            } => Response::History {
                hits: history_hits(self.store(), &variable, from, to, last_only),
            },
            Command::TraceStats => Response::TraceStats {
                pauses: self.store().len(),
                keyframes: self.store().keyframes(),
                bytes: self.store().disk_bytes(),
            },
            Command::PublishTrace { name } => match &self.shelf {
                Some(shelf) => {
                    shelf.lock().unwrap().insert(name, Arc::clone(self.store()));
                    Response::Ok
                }
                None => Response::Error {
                    message: "no trace shelf here: PublishTrace needs a session host".into(),
                },
            },
            Command::Terminate => Response::Ok,
            other => Response::Error {
                message: format!("{} is not available in a replay session", other.kind()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use state::{Frame, Prim, Scope, SourceLocation, Value};

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
        // Mutation is refused.
        assert!(matches!(
            eng.handle(Command::SetBreakLine { line: 3 }),
            Response::Error { .. }
        ));
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
}
