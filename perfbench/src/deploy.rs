//! The four deployment workloads: one tool driving programs through the
//! public `Tracker` API, with the engine in-process (`inproc`), in one
//! `mi-server` child per program (`process`), in a session of one shared
//! `mi-server --host` child (`hosted`), or the MiniPy tracker (`py`).
//!
//! Each run interleaves, program by program, the stepper script (frames:
//! `step` + `get_state`) and the control scripts (pauses: `resume` under
//! `track_function` or `watch`). Every program's outcome is checked
//! against an oracle: the MiniC engine driven directly with the same
//! script, or for MiniPy the MiniC program's output and the pause counts
//! its parameters imply.

use easytracker::{MiTracker, PyTracker, Tracker, TrackerError};
use mi::protocol::{Command, Response};
use mi::{Engine, HostHandle};
use perfbench::harness::{self, Report, RunArgs, Samples, Tracing, Work};
use perfbench::{Digest, Observed, Program, ProgramSet, Script, Tally};
use state::{ExitStatus, PauseReason};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Where the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Engine thread in this process, channel transport.
    Inproc,
    /// One `mi-server` child per program.
    Process,
    /// A session in one shared `mi-server --host` child.
    Hosted,
    /// The MiniPy tracker (inferior thread in this process).
    Py,
}

impl Deployment {
    /// The deployment a workload name stands for.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "inproc" => Deployment::Inproc,
            "process" => Deployment::Process,
            "hosted" => Deployment::Hosted,
            "py" => Deployment::Py,
            _ => return None,
        })
    }

    /// Work units (one stepped and one controlled program, with their
    /// oracle checks) per second of `--seconds`, sized on the reference
    /// machine so that the measured phase takes about that long.
    fn units_per_second(self) -> f64 {
        match self {
            Deployment::Inproc => 30.0,
            Deployment::Process => 17.0,
            Deployment::Hosted => 24.0,
            Deployment::Py => 40.0,
        }
    }
}

/// Host worker threads: the machine has two cores.
pub const HOST_WORKERS: usize = 2;

/// Fresh set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 41;

/// Opens trackers for one deployment.
pub struct Opener {
    /// The deployment.
    pub dep: Deployment,
    host: Option<HostHandle>,
    /// Peak RSS of the largest engine child seen (process deployment).
    pub child_hwm_mib: f64,
}

impl Opener {
    /// Prepares a deployment; the hosted one spawns its host child.
    ///
    /// # Errors
    ///
    /// When the host child cannot be spawned.
    pub fn new(dep: Deployment) -> Result<Self, String> {
        let host = match dep {
            Deployment::Hosted => Some(spawn_host()?),
            _ => None,
        };
        Ok(Opener {
            dep,
            host,
            child_hwm_mib: 0.0,
        })
    }

    /// Loads `p` into a fresh tracker.
    ///
    /// # Errors
    ///
    /// The tracker's load error.
    pub fn open(&self, p: &Program) -> Result<Opened, TrackerError> {
        let c_file = format!("{}.c", p.name);
        Ok(match self.dep {
            Deployment::Inproc => Opened::Mi(MiTracker::load_c(&c_file, &p.c)?),
            Deployment::Process => Opened::Mi(MiTracker::load_c_process(
                &harness::server_bin(),
                &c_file,
                &p.c,
            )?),
            Deployment::Hosted => Opened::Mi(MiTracker::load_c_hosted(
                self.host.as_ref().expect("hosted deployment has a host"),
                &c_file,
                &p.c,
            )?),
            Deployment::Py => Opened::Py(PyTracker::load(&format!("{}.py", p.name), &p.py)?),
        })
    }

    /// Peak RSS of the process holding the engines: the host child, the
    /// largest per-program child, or this process.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        match (&self.host, self.dep) {
            (Some(h), _) => harness::vm_hwm_mib(h.host_pid()),
            (None, Deployment::Process) => Some(self.child_hwm_mib),
            _ => harness::vm_hwm_mib(None),
        }
    }

    /// Ends the deployment, closing the host if there is one.
    pub fn shutdown(self) {
        if let Some(host) = self.host {
            close_host(host);
        }
    }
}

/// A loaded tracker of either family.
pub enum Opened {
    /// MiniC behind the MI boundary.
    Mi(MiTracker),
    /// MiniPy on an inferior thread.
    Py(PyTracker),
}

impl Opened {
    /// The tracker, through the language-agnostic API.
    pub fn tracker(&mut self) -> &mut dyn Tracker {
        match self {
            Opened::Mi(t) => t,
            Opened::Py(t) => t,
        }
    }
}

/// Spawns the shared host child.
///
/// # Errors
///
/// When the child cannot be spawned.
pub fn spawn_host() -> Result<HostHandle, String> {
    HostHandle::spawn_process(harness::server_bin(), HOST_WORKERS)
        .map_err(|e| format!("cannot spawn the session host: {e}"))
}

/// Drops `host` and waits for its child to exit (it does on EOF).
pub fn close_host(host: HostHandle) {
    let pid = host.host_pid();
    drop(host);
    if let Some(pid) = pid {
        harness::wait_gone(pid, Duration::from_secs(10));
    }
}

/// Latency samples one script run adds to.
pub struct Timings {
    /// `step` + `get_state`, per frame.
    pub frames: Samples,
    /// `resume`, per pause.
    pub pauses: Samples,
}

impl Default for Timings {
    fn default() -> Self {
        Timings {
            frames: Samples::new(Work::Encode),
            pauses: Samples::new(Work::Resume),
        }
    }
}

/// Drives `p` through its script on an open tracker, timing frames and
/// pauses, then lets it run to its exit untimed. Digests are computed
/// after each timer stops.
///
/// # Errors
///
/// The first tracker error.
pub fn drive(
    t: &mut dyn Tracker,
    p: &Program,
    tm: &mut Timings,
    tracing: &Tracing,
    tally: &mut Tally,
) -> Result<Observed, TrackerError> {
    let mut seen = Observed::default();
    let mut op = |ok: bool| tally.op(ok);
    let reason = t.start();
    op(reason.is_ok());
    let mut reason = reason?;
    let armed = match p.script {
        Script::Stepper => Ok(0),
        Script::RecursionTree { depth } => t.track_function("fib", Some(depth)),
        Script::SparseWatch { .. } => t.watch("mark"),
    };
    if p.script != Script::Stepper {
        op(armed.is_ok());
    }
    armed?;
    while reason.is_alive() && seen.pauses < p.script.timed_pauses() {
        let span = tracing.span("e2e.op");
        let begin = Instant::now();
        let next = match p.script {
            Script::Stepper => tracing.time("tracker.step", || t.step()).0,
            _ => tracing.time("tracker.resume", || t.resume()).0,
        };
        op(next.is_ok());
        reason = next?;
        let control = begin.elapsed();
        if !reason.is_alive() {
            break;
        }
        let state = tracing.time("tracker.get_state", || t.get_state()).0;
        op(state.is_ok());
        let state = state?;
        match p.script {
            Script::Stepper => tm.frames.push(begin.elapsed()),
            _ => tm.pauses.push(control),
        }
        drop(span);
        seen.pauses += 1;
        seen.digest.add_state(&state);
    }
    if reason.is_alive() {
        // No control point is armed past the timed frames.
        let rest = t.resume();
        op(rest.is_ok());
        reason = rest?;
    }
    seen.output = t.get_output()?;
    seen.exit = exit_code(&reason);
    Ok(seen)
}

fn exit_code(reason: &PauseReason) -> Option<i64> {
    match reason {
        PauseReason::Exited(ExitStatus::Exited(c)) => Some(*c),
        _ => None,
    }
}

/// The MiniC engine driven directly (no transport, no tracker) with the
/// script: what every C deployment must show. Also checks the exit code
/// against a plain VM run.
///
/// # Errors
///
/// Compile errors or an engine refusing a command.
pub fn oracle(p: &Program) -> Result<Observed, String> {
    let program = minic::compile(&format!("{}.c", p.name), &p.c).map_err(|e| e.to_string())?;
    let mut e = mi::minic_engine::MinicEngine::new(&program);
    let paused = |r: Response| match r {
        Response::Paused(reason) => Ok(reason),
        other => Err(format!("{}: unexpected {}", p.name, other.summary())),
    };
    let mut reason = paused(e.handle(Command::Start))?;
    let arm = match p.script {
        Script::Stepper => None,
        Script::RecursionTree { depth } => Some(Command::TrackFunction {
            function: "fib".into(),
            maxdepth: Some(depth),
        }),
        Script::SparseWatch { .. } => Some(Command::Watch {
            variable: "mark".into(),
        }),
    };
    if let Some(cmd) = arm {
        e.handle(cmd);
    }
    let mut seen = Observed::default();
    while reason.is_alive() && seen.pauses < p.script.timed_pauses() {
        reason = paused(e.handle(match p.script {
            Script::Stepper => Command::Step,
            _ => Command::Resume,
        }))?;
        if !reason.is_alive() {
            break;
        }
        match e.handle(Command::GetState) {
            Response::State(st) => seen.digest.add_state(&st),
            other => return Err(format!("{}: unexpected {}", p.name, other.summary())),
        }
        seen.pauses += 1;
    }
    if reason.is_alive() {
        reason = paused(e.handle(Command::Resume))?;
    }
    if let Response::Output(out) = e.handle(Command::GetOutput) {
        seen.output = out;
    }
    seen.exit = exit_code(&reason);
    let mut vm = minic::Vm::new(&program);
    if vm.run_to_completion().ok() != seen.exit {
        return Err(format!(
            "{}: engine and VM disagree on the exit code",
            p.name
        ));
    }
    Ok(seen)
}

/// What a MiniPy run must show: the MiniC rendering's output (the
/// conformance suite's cross-language oracle) and the implied pause
/// count.
fn py_oracle(p: &Program) -> Result<Observed, String> {
    let program = minic::compile("p.c", &p.c).map_err(|e| e.to_string())?;
    let mut vm = minic::Vm::new(&program);
    vm.run_to_completion().map_err(|e| e.to_string())?;
    Ok(Observed {
        pauses: p.script.expected_pauses().unwrap_or(0),
        digest: Digest::default(),
        output: vm.output().to_string(),
        exit: Some(0),
    })
}

/// Checks one driven program against its (cached) oracle.
pub struct Checker {
    dep: Deployment,
    cache: HashMap<String, Observed>,
}

impl Checker {
    /// A checker for `dep`.
    pub fn new(dep: Deployment) -> Self {
        Checker {
            dep,
            cache: HashMap::new(),
        }
    }

    /// Compares `got` with the oracle for `p`, counting mismatches.
    pub fn check(&mut self, p: &Program, got: &Observed, tally: &mut Tally) {
        let oracle = match self.cache.get(&p.name) {
            Some(o) => o.clone(),
            None => {
                let made = match self.dep {
                    Deployment::Py => py_oracle(p),
                    _ => oracle(p),
                };
                match made {
                    Ok(o) => {
                        self.cache.insert(p.name.clone(), o.clone());
                        o
                    }
                    Err(e) => {
                        tally.mismatch(&e);
                        return;
                    }
                }
            }
        };
        if let Some(n) = p.script.expected_pauses() {
            if got.pauses != n {
                tally.mismatch(&format!("{}: {} pauses, implied {n}", p.name, got.pauses));
            }
        }
        match self.dep {
            Deployment::Py => {
                if got.output != oracle.output {
                    tally.mismatch(&format!("{}: MiniPy output differs from MiniC", p.name));
                }
                if got.exit != oracle.exit {
                    tally.mismatch(&format!("{}: MiniPy exit {:?}", p.name, got.exit));
                }
            }
            _ => tally.check(&p.name, &oracle, got),
        }
    }
}

/// Opens, drives, checks and closes one program.
pub fn one_program(
    opener: &mut Opener,
    checker: &mut Checker,
    p: &Program,
    tm: &mut Timings,
    tracing: &Tracing,
    tally: &mut Tally,
) {
    let mut opened = match opener.open(p) {
        Ok(t) => t,
        Err(e) => {
            tally.op(false);
            eprintln!("perfbench: cannot load {}: {e}", p.name);
            return;
        }
    };
    match drive(opened.tracker(), p, tm, tracing, tally) {
        Ok(seen) => checker.check(p, &seen, tally),
        Err(e) => eprintln!("perfbench: {}: {e}", p.name),
    }
    if let (Deployment::Process, Opened::Mi(t)) = (opener.dep, &opened) {
        // The child exits on terminate: read its peak while it is alive.
        if let Some(mib) = harness::vm_hwm_mib(t.engine_pid()) {
            opener.child_hwm_mib = opener.child_hwm_mib.max(mib);
        }
    }
    opened.tracker().terminate();
}

/// Time to a usable session: deployment set-up (host spawn), program
/// load, and the first `start()` answered.
///
/// # Errors
///
/// When any step fails.
pub fn setup_once(dep: Deployment, p: &Program) -> Result<Duration, String> {
    let begin = Instant::now();
    let opener = Opener::new(dep)?;
    let mut opened = opener.open(p).map_err(|e| e.to_string())?;
    opened.tracker().start().map_err(|e| e.to_string())?;
    let took = begin.elapsed();
    opened.tracker().terminate();
    drop(opened);
    opener.shutdown();
    Ok(took)
}

/// One deployment workload run.
///
/// # Errors
///
/// When the deployment cannot be set up.
pub fn run(args: &RunArgs, tracing: &Tracing) -> Result<Report, String> {
    let dep = Deployment::parse(&args.workload).expect("deployment workload");
    let units = harness::units(args.seconds, dep.units_per_second());
    // One more unit than measured: the first is the warm-up.
    let set = perfbench::program_set(args.seed, units + 1);
    let mut report = Report::default();
    if args.trace {
        crate::layers::run(args, tracing, &layer_inputs(&set, args), &mut report)?;
        trace_overhead(dep, &set, units / 4, args.limit() / 4, &mut report)?;
        return Ok(report);
    }
    let reps = args.pick(SETUP_REPS, 2);
    let setup = harness::median_secs(reps, || setup_once(dep, &set.stepped[0]))?;
    report.put("setup_s", setup, reps);
    let (tm, rss) = measure(
        dep,
        &set,
        &Tracing::default(),
        units,
        args.limit(),
        &mut report,
    )?;
    let Timings {
        mut frames,
        mut pauses,
    } = tm;
    report.latency("frame", &mut frames);
    report.latency("pause", &mut pauses);
    report.put("peak_rss_mib", rss, 1);
    Ok(report)
}

/// The measured loop: one stepped and one controlled program per unit,
/// after one untimed warm-up unit. Returns the timings and peak RSS.
fn measure(
    dep: Deployment,
    set: &ProgramSet,
    tracing: &Tracing,
    units: usize,
    limit: Duration,
    report: &mut Report,
) -> Result<(Timings, f64), String> {
    let mut opener = Opener::new(dep)?;
    let mut checker = Checker::new(dep);
    let mut tm = Timings::default();
    let mut warm = Timings::default();
    let tally = &mut report.tally;
    harness::run_units(1, units, limit, |i, timed| {
        let sink = if timed { &mut tm } else { &mut warm };
        one_program(
            &mut opener,
            &mut checker,
            &set.stepped[i],
            sink,
            tracing,
            tally,
        );
        one_program(
            &mut opener,
            &mut checker,
            &set.controlled[i],
            sink,
            tracing,
            tally,
        );
    });
    let rss = opener.peak_rss_mib().unwrap_or(f64::NAN);
    opener.shutdown();
    Ok((tm, rss))
}

/// Runs the first `units` units without spans and again with them:
/// reports the frame median's difference in percent (the traced run's
/// instrumentation cost) and the untraced tails.
fn trace_overhead(
    dep: Deployment,
    set: &ProgramSet,
    units: usize,
    limit: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let units = units.max(1);
    let (mut plain, _) = measure(dep, set, &Tracing::default(), units, limit, report)?;
    let (mut traced, _) = measure(dep, set, &Tracing::new(true), units, limit, report)?;
    let a = plain.frames.quantile_us(0.5);
    let b = traced.frames.quantile_us(0.5);
    report.put(
        "bench.trace_overhead_pct",
        (b / a - 1.0) * 100.0,
        traced.frames.len(),
    );
    report.tail("frame", &mut plain.frames);
    report.tail("pause", &mut plain.pauses);
    Ok(())
}

/// The programs the per-layer probes run: the first few of each kind.
fn layer_inputs(set: &ProgramSet, args: &RunArgs) -> Vec<Program> {
    let k = args.pick(12, 2);
    set.stepped
        .iter()
        .take(k)
        .chain(set.controlled.iter().take(k))
        .cloned()
        .collect()
}
