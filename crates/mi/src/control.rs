//! The control core: the one place that decides whether an event pauses
//! the inferior, plus the command shell every live engine shares.
//!
//! Every event source reports its events to the deciders
//! [`ControlPoints::on_call`], [`ControlPoints::on_line`] (which also
//! scans the watches, on store events too) and
//! [`ControlPoints::on_return`], the way `sys.settrace` delivers line,
//! call and return events to one hook: the MiniC engine its VM's events,
//! the RISC-V engine its check before each instruction, the MiniPy
//! engine its interpreter's trace events, and
//! [`ReplayEngine`](crate::record::ReplayEngine) the events each recorded
//! pause stands for. Each event's checks run in one [`Phase`] order, and
//! a source that paused re-enters the event past the phase that paused,
//! so ids, error strings, trigger order and the step rules exist once.
//!
//! A live engine also implements `Inferior`: its run loop (which
//! reports pauses through `RunOutcome`), its inspection commands, and a
//! few accessors. The fuel-sliced shell, budgets, crash latching and the
//! engine-agnostic commands are written here. The run loop stays
//! monomorphic: `handle` is generic over the engine, with no dynamic
//! call per event.

use crate::protocol::{Command, ResourceKind, Response};
use crate::server::SliceOutcome;
use state::{ExitStatus, PauseReason, ProgramState, SourceLocation, Variable};

/// What a breakpoint fires on. `F` is the source's function key.
#[derive(Debug)]
pub(crate) enum BpKind<F> {
    /// A source line.
    Line(u32),
    /// Entry to a function.
    Entry(F),
    /// Entry to and return from a function (`track_function`).
    Track(F),
}

/// A breakpoint or tracked function.
#[derive(Debug)]
pub(crate) struct Breakpoint<F> {
    pub(crate) id: u64,
    pub(crate) kind: BpKind<F>,
    /// Deepest 0-based call depth at which a function point fires.
    pub(crate) maxdepth: Option<u32>,
}

impl<F> Breakpoint<F> {
    /// Whether this point is a function point on `function` that fires
    /// at the 0-based `depth`.
    #[inline]
    fn on<K: Copy>(&self, function: K, depth: u32) -> bool
    where
        F: PartialEq<K>,
    {
        let f = match &self.kind {
            BpKind::Entry(f) | BpKind::Track(f) => f,
            BpKind::Line(_) => return false,
        };
        *f == function && self.maxdepth.is_none_or(|m| depth <= m)
    }
}

/// A watchpoint: the shared part, plus the engine's resolution data `S`.
#[derive(Debug)]
pub(crate) struct Watch<S> {
    pub(crate) id: u64,
    /// The name as given.
    pub(crate) name: String,
    /// The text of the last value seen.
    pub(crate) last: Option<String>,
    pub(crate) spec: S,
}

impl<S> Watch<S> {
    /// A watch not yet armed (its id is assigned by
    /// [`ControlPoints::add_watch`]).
    pub(crate) fn new(name: String, last: Option<String>, spec: S) -> Self {
        Watch {
            id: 0,
            name,
            last,
            spec,
        }
    }
}

/// The control points armed on one session. Every kind draws its id from
/// one allocator, so one `Delete` removes any of them. Each kind has its
/// own list, so an event only scans the points that can fire on it.
#[derive(Debug)]
pub(crate) struct ControlPoints<F, S> {
    next_id: u64,
    /// Bumped whenever a point is armed or deleted, so an engine can keep
    /// what it derives from the points until they change.
    pub(crate) generation: u64,
    /// Line and function-entry breakpoints, in arming order.
    pub(crate) breakpoints: Vec<Breakpoint<F>>,
    /// Tracked functions, in arming order.
    pub(crate) tracked: Vec<Breakpoint<F>>,
    /// Watchpoints, in arming order.
    pub(crate) watches: Vec<Watch<S>>,
}

impl<F, S> Default for ControlPoints<F, S> {
    fn default() -> Self {
        ControlPoints {
            next_id: 1,
            generation: 0,
            breakpoints: Vec::new(),
            tracked: Vec::new(),
            watches: Vec::new(),
        }
    }
}

impl<F, S> ControlPoints<F, S> {
    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.generation += 1;
        id
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.breakpoints.is_empty() && self.tracked.is_empty() && self.watches.is_empty()
    }

    /// Arms a breakpoint or tracked function; returns its id.
    pub(crate) fn add(&mut self, kind: BpKind<F>, maxdepth: Option<u32>) -> u64 {
        let id = self.alloc_id();
        let list = match kind {
            BpKind::Track(_) => &mut self.tracked,
            BpKind::Line(_) | BpKind::Entry(_) => &mut self.breakpoints,
        };
        list.push(Breakpoint { id, kind, maxdepth });
        id
    }

    /// Arms `watch`; returns its id.
    pub(crate) fn add_watch(&mut self, mut watch: Watch<S>) -> u64 {
        let id = self.alloc_id();
        watch.id = id;
        self.watches.push(watch);
        id
    }

    /// Removes the point `id`, of any kind.
    ///
    /// # Errors
    ///
    /// `"no control point {id}"` when nothing has that id.
    pub(crate) fn delete(&mut self, id: u64) -> Result<(), String> {
        let count = |p: &Self| p.breakpoints.len() + p.tracked.len() + p.watches.len();
        let before = count(self);
        self.breakpoints.retain(|b| b.id != id);
        self.tracked.retain(|b| b.id != id);
        self.watches.retain(|w| w.id != id);
        if count(self) == before {
            Err(format!("no control point {id}"))
        } else {
            self.generation += 1;
            Ok(())
        }
    }

    /// Brings every watch up to date; the first change (in arming order)
    /// is the pause. `refresh` resolves and renders one watch: it updates
    /// `last` and returns `Some(old)` when the update may fire, `None`
    /// when it must not (value unknown, provably unchanged, or the
    /// source's priming rule says a first sighting is not a change).
    #[inline]
    fn scan_watches(
        &mut self,
        mut refresh: impl FnMut(&mut Watch<S>) -> Option<Option<String>>,
    ) -> Option<PauseReason> {
        let mut hit = None;
        for w in &mut self.watches {
            let Some(old) = refresh(w) else {
                continue;
            };
            if hit.is_none() && old != w.last {
                hit = Some(PauseReason::Watchpoint {
                    id: w.id,
                    variable: w.name.clone(),
                    old,
                    new: w.last.clone().unwrap_or_default(),
                });
            }
        }
        hit
    }

    /// [`Phase::FuncBreak`] and [`Phase::TrackCall`]: a frame entered,
    /// with the line a function breakpoint reports.
    #[inline(always)]
    pub(crate) fn on_call<K: Copy>(
        &self,
        file: &str,
        call: (Func<'_, K>, u32),
        jumped: bool,
        from: Phase,
    ) -> Hit
    where
        F: PartialEq<K>,
    {
        let (Func(f, depth, name), line) = call;
        let bp = self.breakpoints.iter().find(|bp| bp.on(f, depth));
        match bp.filter(|_| from <= Phase::FuncBreak) {
            Some(bp) => Some((Phase::FuncBreak, breakpoint(bp.id, file, line))),
            None => (from <= Phase::TrackCall && !jumped && self.tracks(f, depth))
                .then(|| (Phase::TrackCall, boundary(name, depth, None))),
        }
    }

    /// [`Phase::Watch`] when `watch` is set (a line or store event), then
    /// [`Phase::LineBreak`] and [`Phase::Stop`] at the line reached, if
    /// any, given with its number of live frames.
    #[inline(always)]
    pub(crate) fn on_line(
        &mut self,
        slice: &Slice,
        file: &str,
        watch: bool,
        line: Option<(u32, usize)>,
        from: Phase,
        refresh: impl FnMut(&mut Watch<S>) -> Option<Option<String>>,
    ) -> Hit {
        if watch && from <= Phase::Watch && !self.watches.is_empty() {
            if let Some(reason) = self.scan_watches(refresh) {
                return Some((Phase::Watch, reason));
            }
        }
        let (line, frames) = line?;
        let here = |bp: &&Breakpoint<F>| matches!(bp.kind, BpKind::Line(l) if l == line);
        match self
            .breakpoints
            .iter()
            .find(here)
            .filter(|_| from <= Phase::LineBreak)
        {
            Some(bp) => Some((Phase::LineBreak, breakpoint(bp.id, file, line))),
            None => slice
                .stop(line, frames)
                .filter(|_| from <= Phase::Stop)
                .map(|r| (Phase::Stop, r)),
        }
    }

    /// [`Phase::TrackReturn`]: a frame about to return.
    #[inline(always)]
    pub(crate) fn on_return<K: Copy>(
        &self,
        (Func(f, depth, name), value): Returning<'_, K>,
        from: Phase,
    ) -> Hit
    where
        F: PartialEq<K>,
    {
        (from <= Phase::TrackReturn && self.tracks(f, depth))
            .then(|| (Phase::TrackReturn, boundary(name, depth, Some(value))))
    }

    /// Whether `function` is tracked at the 0-based `depth`.
    #[inline]
    pub(crate) fn tracks<K: Copy>(&self, function: K, depth: u32) -> bool
    where
        F: PartialEq<K>,
    {
        self.tracked.iter().any(|bp| bp.on(function, depth))
    }
}

// The pauses' reasons are built out of line: the deciders are inlined into
// the run loops, which pause on few of the events they check.
#[cold]
fn breakpoint(id: u64, file: &str, line: u32) -> PauseReason {
    let location = SourceLocation::new(file, line);
    PauseReason::Breakpoint { id, location }
}

/// A tracked call, or with its return value's rendering, a tracked
/// return.
#[cold]
fn boundary(name: &str, depth: u32, value: Option<&dyn Fn() -> Option<String>>) -> PauseReason {
    let function = name.to_owned();
    match value {
        None => PauseReason::FunctionCall { function, depth },
        Some(value) => PauseReason::FunctionReturn {
            function,
            depth,
            return_value: value(),
        },
    }
}

/// A pause and the [`Phase`] that caused it.
pub(crate) type Hit = Option<(Phase, PauseReason)>;

/// The checks of one event, in the order they deliver pauses: the frame
/// entry's ([`ControlPoints::on_call`]), then the line's
/// ([`ControlPoints::on_line`]), then the return's
/// ([`ControlPoints::on_return`]); a source whose event has several of
/// these parts asks the deciders in that order. Adding a pause kind adds
/// a phase here and its check in the decider of its part; no event
/// source changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    /// A function breakpoint on the frame just entered.
    FuncBreak,
    /// A tracked function's entry.
    TrackCall,
    /// A watched variable changed.
    Watch,
    /// A line breakpoint.
    LineBreak,
    /// The command's own stop: `start`, `step`, `next`, `finish`.
    Stop,
    /// A tracked function about to return.
    TrackReturn,
    /// Every phase delivered.
    Done,
}

impl Phase {
    /// Where an event that paused in this phase resumes.
    #[inline]
    pub(crate) fn next(self) -> Phase {
        use Phase::*;
        [TrackCall, Watch, LineBreak, Stop, TrackReturn, Done, Done][self as usize]
    }
}

/// A function's frame: its key (`K`, as the source's registry has it),
/// its 0-based depth, and its name.
#[derive(Clone, Copy)]
pub(crate) struct Func<'a, K>(pub(crate) K, pub(crate) u32, pub(crate) &'a str);

/// A frame about to return, with its return value's rendering.
pub(crate) type Returning<'a, K> = (Func<'a, K>, &'a dyn Fn() -> Option<String>);

/// The run mode of a control command.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mode {
    Start,
    Resume,
    /// From `line` with `depth` frames.
    Step {
        line: u32,
        depth: usize,
    },
    Next {
        line: u32,
        depth: usize,
    },
    /// Until the innermost of `depth` frames returns.
    Finish {
        depth: usize,
    },
}

/// A control command's progress; stashed when a slice runs out of fuel
/// and handed back unchanged to the burst that continues it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slice {
    pub(crate) mode: Mode,
    /// Set once the `finish` target frame has returned.
    finish_fired: bool,
}

impl Slice {
    #[inline]
    pub(crate) fn new(mode: Mode) -> Self {
        Slice {
            mode,
            finish_fired: false,
        }
    }

    /// A frame returned, leaving `frames` live: a `finish` whose target
    /// frame that was stops at the next line.
    #[inline]
    pub(crate) fn popped(&mut self, frames: usize) {
        if let Mode::Finish { depth } = self.mode {
            self.finish_fired |= frames < depth;
        }
    }

    /// Where the [`Phase::Stop`] check can fire, for an engine that only
    /// reports the events it must: line events in frames at most `.0`
    /// deep (a frame count), and the returns [`Slice::popped`] needs, at
    /// 0-based depths below `.1`.
    #[inline]
    pub(crate) fn stops(&self) -> (usize, u32) {
        if self.finish_fired {
            return (usize::MAX, 0);
        }
        match self.mode {
            Mode::Start | Mode::Step { .. } => (usize::MAX, 0),
            Mode::Next { depth, .. } => (depth, 0),
            Mode::Finish { depth } => (0, u32::try_from(depth).unwrap_or(u32::MAX)),
            Mode::Resume => (0, 0),
        }
    }

    /// The [`Phase::Stop`] check at `line` with `depth` frames.
    #[inline]
    fn stop(&self, line: u32, depth: usize) -> Option<PauseReason> {
        let stop = self.finish_fired
            || match self.mode {
                Mode::Start => return Some(PauseReason::Started),
                Mode::Step { line: l, depth: d } => line != l || depth != d,
                Mode::Next { line: l, depth: d } => depth < d || (depth == d && line != l),
                Mode::Resume | Mode::Finish { .. } => false,
            };
        stop.then_some(PauseReason::Step)
    }
}

/// Resolves `name` in a snapshot the way the live engines do: a
/// bare name in the innermost frame, then the globals, then nothing;
/// `frame::var` in the innermost frame of that name holding `var`.
pub(crate) fn resolve(st: &ProgramState, name: &str) -> Option<Variable> {
    match name.split_once("::") {
        Some((f, v)) => st
            .frame
            .chain()
            .filter(|frame| frame.name() == f)
            .find_map(|frame| frame.variable(v)),
        None => st
            .frame
            .variable(name)
            .or_else(|| st.globals.iter().find(|g| g.name() == name)),
    }
    .cloned()
}

/// Answers `GetState`, `GetGlobals` or `GetVariable` from `st`, the
/// snapshot at the pause. Before `Start` there is none: no state, no
/// globals and no variable.
pub(crate) fn inspect(st: Option<&ProgramState>, command: &Command) -> Response {
    match (command, st) {
        (Command::GetState, Some(st)) => Response::State(Box::new(st.clone())),
        (Command::GetState, None) => error("inferior not started"),
        (Command::GetVariable { name }, st) => {
            Response::Variable(st.and_then(|st| resolve(st, name)))
        }
        (_, st) => Response::Globals(st.map(|st| st.globals.clone()).unwrap_or_default()),
    }
}

/// How one run burst ended. The protocol never sees `OutOfFuel`.
pub(crate) enum RunOutcome {
    /// A real pause condition — what the protocol reports.
    Paused(PauseReason),
    /// The slice's fuel ran out mid-command.
    OutOfFuel,
    /// A hard budget tripped: terminal, reported typed.
    Exhausted {
        which: ResourceKind,
        used: u64,
        limit: u64,
    },
}

/// Hard per-session budgets ([`Command::SetLimits`]). Steps and heap are
/// enforced in-engine; wall time and queue depth are the host's job.
/// Steps are the engine's fuel unit: VM ops or retired instructions.
#[derive(Debug, Default)]
pub(crate) struct Budget {
    max_steps: Option<u64>,
    max_heap_bytes: Option<u64>,
}

impl Budget {
    /// Steps an engine at `steps` may still take before the step budget
    /// trips, the step that passes it included.
    pub(crate) fn steps_left(&self, steps: u64) -> Option<u64> {
        let limit = self.max_steps?;
        Some(limit.saturating_add(1).saturating_sub(steps))
    }

    /// The heap budget in live bytes.
    pub(crate) fn max_heap_bytes(&self) -> Option<u64> {
        self.max_heap_bytes
    }

    /// The budget `steps` or `heap_bytes` exceeds, if any.
    #[inline]
    pub(crate) fn check(&self, steps: u64, heap_bytes: u64) -> Option<RunOutcome> {
        let (which, used, limit) = match (self.max_steps, self.max_heap_bytes) {
            (Some(limit), _) if steps > limit => (ResourceKind::Steps, steps, limit),
            (_, Some(limit)) if heap_bytes > limit => (ResourceKind::HeapBytes, heap_bytes, limit),
            _ => return None,
        };
        Some(RunOutcome::Exhausted { which, used, limit })
    }
}

/// The engine-agnostic session state [`handle`] keeps for an engine.
#[derive(Debug)]
pub(crate) struct Core<F, S> {
    pub(crate) points: ControlPoints<F, S>,
    pub(crate) budget: Budget,
    pub(crate) registry: Option<obs::Registry>,
    pub(crate) started: bool,
    /// Why the inferior is paused: the last control answer.
    pub(crate) last_reason: PauseReason,
    output_cursor: usize,
    crashed: Option<String>,
    crash_reported: bool,
    /// A command that yielded on fuel, waiting for [`resume_sliced`].
    pending: Option<Slice>,
    /// Set once a budget trips; terminal — later control commands repeat
    /// the same verdict instead of running the inferior.
    exhausted: Option<(ResourceKind, u64, u64)>,
}

impl<F, S> Core<F, S> {
    pub(crate) fn new() -> Self {
        Core {
            points: ControlPoints::default(),
            budget: Budget::default(),
            registry: None,
            started: false,
            last_reason: PauseReason::NotStarted,
            output_cursor: 0,
            crashed: None,
            crash_reported: false,
            pending: None,
            exhausted: None,
        }
    }

    /// Records a fault of the inferior; it is reported once by
    /// `GetOutput`, and `GetExitCode` answers −1 from now on.
    pub(crate) fn crash(&mut self, message: String) -> RunOutcome {
        self.crashed = Some(message);
        RunOutcome::Paused(PauseReason::Exited(ExitStatus::Crashed))
    }
}

/// What a live engine supplies to the shared control core.
pub(crate) trait Inferior {
    /// What call events identify a function by.
    type Func: PartialEq;
    /// The engine's part of a watch.
    type WatchSpec;
    /// The span timing each run burst.
    const EXEC_SPAN: &'static str;

    fn core(&mut self) -> &mut Core<Self::Func, Self::WatchSpec>;
    /// Runs until a pause, the fuel (in the engine's own unit) runs out,
    /// or a budget trips, advancing `slice`. Never called once the
    /// inferior has exited or crashed.
    fn run(&mut self, slice: &mut Slice, fuel: Option<u64>) -> RunOutcome;
    /// Current line and frame count.
    fn position(&self) -> (u32, usize);
    fn exit_code(&self) -> Option<i64>;
    /// Everything the inferior has printed.
    fn output(&self) -> &str;
    /// File name and source text.
    fn source(&self) -> (&str, &str);
    /// Lines that hold code, ascending.
    fn breakable_lines(&self) -> Vec<u32>;
    /// Resolves a function name to its key, or explains why not.
    fn function(&self, name: &str) -> Result<Self::Func, String>;
    /// A watch on `variable`, primed with its current value.
    fn watch(&self, variable: String) -> Result<Watch<Self::WatchSpec>, String>;
    /// Publishes the engine's gauges after each burst; MiniPy's inferior
    /// thread publishes its own as it runs.
    fn publish_stats(&self) {}
    /// Answers the commands the shell leaves to the engine: inspection
    /// and the engine's own extras.
    fn own_command(&mut self, command: Command) -> Response;
}

pub(crate) fn error(message: impl Into<String>) -> Response {
    Response::Error {
        message: message.into(),
    }
}

/// The answer to a command neither the shell nor the engine serves.
pub(crate) fn unsupported(command: &Command) -> Response {
    error(format!("{} is not an engine command", command.kind()))
}

/// [`Engine::handle`](crate::server::Engine::handle) for `engine`.
pub(crate) fn handle<E: Inferior>(engine: &mut E, command: Command) -> Response {
    match control(engine, &command, None) {
        Some(SliceOutcome::Done(resp)) => resp,
        Some(SliceOutcome::Yielded) => unreachable!("unfueled run cannot yield"),
        None => serve(engine, command),
    }
}

/// [`Engine::handle_sliced`](crate::server::Engine::handle_sliced).
pub(crate) fn handle_sliced<E: Inferior>(
    engine: &mut E,
    command: Command,
    fuel: u64,
) -> SliceOutcome {
    control(engine, &command, Some(fuel))
        .unwrap_or_else(|| SliceOutcome::Done(serve(engine, command)))
}

/// [`Engine::resume_sliced`](crate::server::Engine::resume_sliced):
/// continues, not restarts, the stashed command.
pub(crate) fn resume_sliced<E: Inferior>(engine: &mut E, fuel: u64) -> SliceOutcome {
    match engine.core().pending {
        Some(slice) => burst(engine, slice, Some(fuel)),
        None => SliceOutcome::Done(error("no sliced command pending")),
    }
}

/// Starts a fresh control command, optionally fuel-bounded, after the
/// same pre-flight checks on the plain and sliced paths. `None` for
/// other commands.
fn control<E: Inferior>(
    engine: &mut E,
    command: &Command,
    fuel: Option<u64>,
) -> Option<SliceOutcome> {
    let refuse = |message: &str| Some(SliceOutcome::Done(error(message)));
    let mode = match mode(command, engine.position())? {
        Ok(Mode::Start) if engine.core().started => return refuse("inferior already started"),
        Ok(mode) => mode,
        Err(message) => return refuse(message),
    };
    let core = engine.core();
    core.started |= matches!(mode, Mode::Start);
    if !core.started {
        return refuse("inferior not started (call start first)");
    }
    Some(burst(engine, Slice::new(mode), fuel))
}

/// The mode `command` runs in from `line` with `depth` frames, or why it
/// cannot run; `None` for a command that does not run the inferior.
pub(crate) fn mode(
    command: &Command,
    (line, depth): (u32, usize),
) -> Option<Result<Mode, &'static str>> {
    Some(Ok(match command {
        Command::Start => Mode::Start,
        Command::Resume => Mode::Resume,
        Command::Step => Mode::Step { line, depth },
        Command::Next => Mode::Next { line, depth },
        Command::Finish if depth <= 1 => return Some(Err("cannot finish the outermost frame")),
        Command::Finish => Mode::Finish { depth },
        _ => return None,
    }))
}

/// One run burst, shared by fresh commands and slice resumes. The
/// per-burst span is telemetry only, so slicing stays invisible on the
/// protocol.
fn burst<E: Inferior>(engine: &mut E, mut slice: Slice, fuel: Option<u64>) -> SliceOutcome {
    let core = engine.core();
    if let Some((which, used, limit)) = core.exhausted {
        return SliceOutcome::Done(Response::ResourceExhausted { which, used, limit });
    }
    core.pending = None;
    // Times the burst this command caused; joins the tracker's trace when
    // the command frame carried a context.
    let span = core.registry.as_ref().map(|reg| {
        let mut span = reg.span(E::EXEC_SPAN);
        span.category("vm");
        span
    });
    let crashed = core.crashed.is_some();
    let outcome = match engine.exit_code() {
        Some(code) => RunOutcome::Paused(PauseReason::Exited(ExitStatus::Exited(code))),
        None if crashed => RunOutcome::Paused(PauseReason::Exited(ExitStatus::Crashed)),
        None => engine.run(&mut slice, fuel),
    };
    if let Some(mut span) = span {
        let tag = match &outcome {
            RunOutcome::Paused(reason) => reason.to_string(),
            RunOutcome::OutOfFuel => "slice".to_owned(),
            RunOutcome::Exhausted { which, .. } => format!("exhausted:{which}"),
        };
        span.tag("pause_reason", tag);
        span.finish();
    }
    engine.publish_stats();
    let core = engine.core();
    match outcome {
        RunOutcome::Paused(reason) => {
            core.last_reason = reason.clone();
            SliceOutcome::Done(Response::Paused(reason))
        }
        RunOutcome::OutOfFuel => {
            core.pending = Some(slice);
            SliceOutcome::Yielded
        }
        RunOutcome::Exhausted { which, used, limit } => {
            core.exhausted = Some((which, used, limit));
            SliceOutcome::Done(Response::ResourceExhausted { which, used, limit })
        }
    }
}

/// Answers a non-control command: the engine-agnostic ones here, the
/// rest through [`Inferior::own_command`].
///
/// Kept out of line: deleting the `Ping` and `Telemetry` arms (now the
/// serve core's) and leaving inlining to the compiler made hosted
/// `resume` pauses ~7% slower; out of line that build measured level
/// (EXPERIMENTS.md, "One serve core").
#[inline(never)]
fn serve<E: Inferior>(engine: &mut E, command: Command) -> Response {
    let created = |id| Response::Created { id };
    match command {
        Command::SetBreakLine { line } => {
            // Like GDB: slide to the next line that really holds code.
            match engine.breakable_lines().into_iter().find(|&l| l >= line) {
                Some(actual) => created(engine.core().points.add(BpKind::Line(actual), None)),
                None => error(format!("no code at or after line {line}")),
            }
        }
        Command::SetBreakFunc { function, maxdepth } => match engine.function(&function) {
            Ok(f) => created(engine.core().points.add(BpKind::Entry(f), maxdepth)),
            Err(message) => error(message),
        },
        Command::TrackFunction { function, maxdepth } => match engine.function(&function) {
            Ok(f) => created(engine.core().points.add(BpKind::Track(f), maxdepth)),
            Err(message) => error(message),
        },
        Command::Watch { variable } => match engine.watch(variable) {
            Ok(watch) => created(engine.core().points.add_watch(watch)),
            Err(message) => error(message),
        },
        Command::Delete { id } => match engine.core().points.delete(id) {
            Ok(()) => Response::Ok,
            Err(message) => error(message),
        },
        Command::GetState if !engine.core().started => error("inferior not started"),
        Command::GetOutput => {
            let cursor = engine.core().output_cursor;
            let all = engine.output();
            let mut new = all[cursor.min(all.len())..].to_owned();
            let end = all.len();
            let core = engine.core();
            core.output_cursor = end;
            if let Some(message) = core.crashed.as_deref().filter(|_| !core.crash_reported) {
                new.push_str(message);
                new.push('\n');
                core.crash_reported = true;
            }
            Response::Output(new)
        }
        Command::GetExitCode => Response::ExitCode(match engine.core().crashed {
            Some(_) => Some(-1),
            None => engine.exit_code(),
        }),
        Command::GetSource => {
            let (file, text) = engine.source();
            Response::Source {
                file: file.to_owned(),
                text: text.to_owned(),
            }
        }
        Command::GetBreakableLines => Response::Lines(engine.breakable_lines()),
        Command::SetProfile { mode, .. }
            if engine.core().started && mode != obs::ProfileMode::Off =>
        {
            error("profiling must be armed before start")
        }
        Command::Terminate => Response::Ok,
        Command::SetLimits {
            max_steps,
            max_heap_bytes,
            ..
        } => {
            // Converges: re-setting the same budgets is a no-op, `None`
            // clears. An engine without an allocator reports no heap, so
            // its heap budget never trips.
            engine.core().budget = Budget {
                max_steps,
                max_heap_bytes,
            };
            Response::Ok
        }
        // Session management is the host's job, not an engine's.
        Command::OpenSession { .. } | Command::CloseSession { .. } | Command::OpenReplay { .. } => {
            error("session commands are handled by the host, not an engine")
        }
        // The trace vocabulary is served by the RecordingEngine wrapper
        // every spawned session carries, never by a bare engine.
        Command::Record { .. }
        | Command::Seek { .. }
        | Command::QueryHistory { .. }
        | Command::TraceStats
        | Command::PublishTrace { .. } => {
            error("trace commands are handled by the recording wrapper")
        }
        other => engine.own_command(other),
    }
}

#[cfg(test)]
mod parity_tests {
    use crate::asm_engine::AsmEngine;
    use crate::minic_engine::MinicEngine;
    use crate::protocol::{Command, Response};
    use crate::py_engine::PyEngine;
    use crate::server::{Engine, SliceOutcome};

    /// The same three programs in each language: `main` returns `inc(3)`
    /// (MiniPy's module calls it), an endless loop, and a fault: a bad
    /// memory read, or MiniPy's division by zero.
    const C: [&str; 3] = [
        "int inc(int x) {\nreturn x + 1;\n}\nint main() {\nreturn inc(3);\n}",
        "int main() {\nint i = 0;\nwhile (i >= 0) {\ni = i + 1;\ni = i - 1;\n}\nreturn i;\n}",
        "int main() {\nint* p = NULL;\nreturn *p;\n}",
    ];
    const ASM: [&str; 3] = [
        "main:\n    li a0, 3\n    call inc\n    li a7, 93\n    ecall\ninc:\n    addi a0, a0, 1\n    ret",
        "main:\nloop:\n    addi t0, t0, 1\n    j loop",
        "main:\n    li t0, 0x20000\n    lw t1, 0(t0)",
    ];
    const PY: [&str; 3] = [
        "def inc(x):\n    return x + 1\ny = inc(3)\n",
        "i = 0\nwhile i >= 0:\n    i = i + 1\n    i = i - 1\n",
        "x = 0\ny = 1 / x\n",
    ];

    fn engines(program: usize) -> [(&'static str, Box<dyn Engine>); 3] {
        let c = minic::compile("t.c", C[program]).expect("C program compiles");
        let asm = miniasm::asm::assemble("t.s", ASM[program]).expect("asm program assembles");
        let py = PyEngine::new("t.py", PY[program], obs::Registry::new()).expect("py parses");
        [
            ("minic", Box::new(MinicEngine::new(&c))),
            ("asm", Box::new(AsmEngine::new(&asm))),
            ("minipy", Box::new(py)),
        ]
    }

    /// A response as the parity table states it: exact, except the parts
    /// that legitimately differ between engines (the step count a budget
    /// tripped at, the crash message's wording).
    fn observe(response: Response) -> String {
        match response {
            Response::ResourceExhausted { which, used, limit } if used > limit => {
                format!("exhausted {which} over {limit}")
            }
            Response::Output(text) => format!("{} output lines", text.lines().count()),
            other => format!("{other:?}"),
        }
    }

    fn run(engine: &mut dyn Engine, commands: Vec<Command>) -> Vec<String> {
        commands
            .into_iter()
            .map(|c| observe(engine.handle(c)))
            .collect()
    }

    type Script = fn(&mut dyn Engine) -> Vec<String>;

    const NOT_STARTED: &str = r#"Error { message: "inferior not started (call start first)" }"#;

    /// (case, program, script, expected transcript on every engine)
    const CASES: &[(&str, usize, Script, &[&str])] = &[
        (
            "start twice",
            0,
            |e| run(e, vec![Command::Start, Command::Start]),
            &[
                "Paused(Started)",
                r#"Error { message: "inferior already started" }"#,
            ],
        ),
        (
            "control before start",
            0,
            |e| run(e, vec![Command::Resume, Command::Step, Command::Next]),
            &[NOT_STARTED, NOT_STARTED, NOT_STARTED],
        ),
        (
            "finish in the outermost frame",
            0,
            |e| run(e, vec![Command::Start, Command::Finish]),
            &[
                "Paused(Started)",
                r#"Error { message: "cannot finish the outermost frame" }"#,
            ],
        ),
        (
            "delete of an unknown id",
            0,
            |e| run(e, vec![Command::Delete { id: 42 }]),
            &[r#"Error { message: "no control point 42" }"#],
        ),
        (
            "get state before start",
            0,
            |e| run(e, vec![Command::GetState]),
            &[r#"Error { message: "inferior not started" }"#],
        ),
        (
            "a tracked function is removable",
            0,
            |e| {
                let track = Command::TrackFunction {
                    function: "inc".into(),
                    maxdepth: None,
                };
                let delete = Command::Delete { id: 1 };
                run(
                    e,
                    vec![
                        track,
                        Command::Start,
                        Command::Resume,
                        delete,
                        Command::Resume,
                    ],
                )
            },
            &[
                "Created { id: 1 }",
                "Paused(Started)",
                r#"Paused(FunctionCall { function: "inc", depth: 1 })"#,
                "Ok",
                "Paused(Exited(Exited(4)))",
            ],
        ),
        (
            "a step budget trips, then repeats its verdict",
            1,
            |e| {
                let limits = Command::SetLimits {
                    max_steps: Some(500),
                    max_heap_bytes: None,
                    max_wall_ms: None,
                    max_queue_depth: None,
                };
                let _ = e.handle(limits);
                e.handle(Command::Start);
                let first = e.handle(Command::Resume);
                let again = e.handle(Command::Step);
                let same = format!("same verdict: {}", first == again);
                vec![observe(first), same]
            },
            &["exhausted steps over 500", "same verdict: true"],
        ),
        (
            "a crash is reported once, with exit code -1",
            2,
            |e| {
                let commands = vec![
                    Command::Start,
                    Command::Resume,
                    Command::GetExitCode,
                    Command::GetOutput,
                    Command::GetOutput,
                    Command::Resume,
                ];
                run(e, commands)
            },
            &[
                "Paused(Started)",
                "Paused(Exited(Crashed))",
                "ExitCode(Some(-1))",
                "1 output lines",
                "0 output lines",
                "Paused(Exited(Crashed))",
            ],
        ),
        (
            "resume_sliced with nothing pending",
            0,
            |e| {
                let mut out = run(e, vec![Command::Start]);
                out.push(match e.resume_sliced(64) {
                    SliceOutcome::Done(response) => observe(response),
                    SliceOutcome::Yielded => "Yielded".into(),
                });
                out
            },
            &[
                "Paused(Started)",
                r#"Error { message: "no sliced command pending" }"#,
            ],
        ),
    ];

    #[test]
    fn every_engine_answers_the_shared_surface_identically() {
        for &(case, program, script, expected) in CASES {
            for (engine, mut e) in engines(program) {
                // A MiniPy program that finishes exits 0; the others
                // return `inc(3)`.
                let expected: Vec<String> = expected
                    .iter()
                    .map(|l| match engine {
                        "minipy" => l.replace("Exited(4)", "Exited(0)"),
                        _ => l.to_string(),
                    })
                    .collect();
                assert_eq!(script(e.as_mut()), expected, "{engine}: {case}");
            }
        }
    }
}
