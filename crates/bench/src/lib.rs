//! The benchmark harness behind the `bench` binary, and the workloads
//! its jobs share.
//!
//! Every job parses its flags with [`Flags`], times its variants with
//! [`measure`], writes `BENCH_<job>.json` with [`write_report`] and
//! turns its bounds into an exit code with [`Verdict`]. The workload
//! generators produce equivalent programs for the languages under test,
//! parameterized by size, so series sweep comparable work across the
//! MiniC (machine-interface) tracker and the MiniPy (thread-based)
//! tracker.

use easytracker::{MiTracker, PauseReason, ProgramSpec, PyTracker, Supervision, Tracker};
use mi::{HostHandle, SessionHost};
use obs::Histogram;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How a job flag takes its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Takes a whole number.
    Int,
    /// Takes a decimal number.
    Real,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum FlagValue {
    On,
    Int(u64),
    Real(f64),
}

/// A job's parsed command-line flags.
#[derive(Debug, Default)]
pub struct Flags(Vec<(&'static str, FlagValue)>);

impl Flags {
    /// Parses `args` against the job's declared flags. An unknown flag,
    /// a missing value or a malformed number is a usage error. A flag
    /// given twice keeps its last value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        spec: &[(&'static str, Kind)],
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&(name, kind)) = spec.iter().find(|(name, _)| *name == arg) else {
                return Err(format!("unknown flag {arg}"));
            };
            let value = match kind {
                Kind::Switch => FlagValue::On,
                Kind::Int | Kind::Real => {
                    let raw = args
                        .next()
                        .ok_or_else(|| format!("{name} takes a number"))?;
                    let parsed = match kind {
                        Kind::Int => raw.parse().ok().map(FlagValue::Int),
                        _ => raw
                            .parse()
                            .ok()
                            .filter(|x: &f64| x.is_finite())
                            .map(FlagValue::Real),
                    };
                    parsed.ok_or_else(|| format!("{name} takes a number, not {raw:?}"))?
                }
            };
            flags.0.retain(|(seen, _)| *seen != name);
            flags.0.push((name, value));
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<FlagValue> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Whether the flag was given.
    pub fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of a whole-number flag, if given.
    pub fn int(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(FlagValue::Int(n)) => Some(n),
            _ => None,
        }
    }

    /// The value of a decimal flag, if given.
    pub fn real(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(FlagValue::Real(x)) => Some(x),
            _ => None,
        }
    }
}

/// How many rounds [`measure`] runs.
#[derive(Clone, Copy, Debug)]
pub struct Rounds {
    /// Rounds run first and not scored.
    pub warmup: u32,
    /// Rounds scored.
    pub scored: u32,
    /// Samples each variant takes in a row within one round.
    pub per_round: u32,
}

impl Rounds {
    /// `warmup` unscored rounds, then `scored` rounds, one sample per
    /// variant per round.
    pub const fn new(warmup: u32, scored: u32) -> Rounds {
        Rounds {
            warmup,
            scored,
            per_round: 1,
        }
    }
}

/// One variant's scored samples.
pub struct Timed<T> {
    /// The smallest scored sample: the repeatable cost.
    pub best: Duration,
    /// Every scored sample, in the order taken.
    pub samples: Vec<Duration>,
    /// What the variant's last scored sample produced.
    pub last: T,
}

impl<T: Default> Default for Timed<T> {
    fn default() -> Self {
        Timed {
            best: Duration::MAX,
            samples: Vec::new(),
            last: T::default(),
        }
    }
}

impl<T> Timed<T> {
    /// Scores one sample.
    fn record(&mut self, elapsed: Duration, output: T) {
        self.best = self.best.min(elapsed);
        self.samples.push(elapsed);
        self.last = output;
    }

    /// p50, p95 and p99 of the scored samples as exact order statistics
    /// (nearest rank): each is one of the samples, so `best <= p50 <= p95
    /// <= p99`. Zero when nothing was scored.
    pub fn percentiles(&self) -> [Duration; 3] {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        [50, 95, 99].map(|pct| {
            let rank = (pct * sorted.len()).div_ceil(100).max(1);
            sorted.get(rank - 1).copied().unwrap_or_default()
        })
    }

    /// `{min_us, p50_us, p95_us, p99_us}` for a report.
    pub fn summary(&self) -> Value {
        let [p50, p95, p99] = self.percentiles();
        json!({
            "min_us": self.best.as_micros() as u64,
            "p50_us": p50.as_micros() as u64,
            "p95_us": p95.as_micros() as u64,
            "p99_us": p99.as_micros() as u64,
        })
    }

    /// The same numbers as [`Timed::summary`], for a console line.
    pub fn summary_line(&self) -> String {
        let [p50, p95, p99] = self.percentiles();
        format!(
            "min {:>9}us | p50 {:>9}us p95 {:>9}us p99 {:>9}us",
            self.best.as_micros(),
            p50.as_micros(),
            p95.as_micros(),
            p99.as_micros(),
        )
    }
}

/// The timing loop every job shares. Runs `rounds.warmup` unscored
/// rounds, then `rounds.scored` scored ones; each round visits the
/// variants `0..variants` in order (so slow drift in machine load hits
/// each one equally) and takes `rounds.per_round` samples of each.
/// `sample(variant)` returns the time one sample took and what it
/// produced.
pub fn measure<T: Default>(
    variants: usize,
    rounds: Rounds,
    mut sample: impl FnMut(usize) -> (Duration, T),
) -> Vec<Timed<T>> {
    let mut out: Vec<Timed<T>> = (0..variants).map(|_| Timed::default()).collect();
    for round in 0..rounds.warmup + rounds.scored {
        for (variant, timed) in out.iter_mut().enumerate() {
            for _ in 0..rounds.per_round {
                let (elapsed, output) = sample(variant);
                if round >= rounds.warmup {
                    timed.record(elapsed, output);
                }
            }
        }
    }
    out
}

/// [`measure`] for variants that run side by side: each round calls
/// `sample()` once, which times every variant and returns one
/// `(elapsed, output)` per variant, in variant order.
pub fn measure_together<T: Default>(
    variants: usize,
    rounds: Rounds,
    mut sample: impl FnMut() -> Vec<(Duration, T)>,
) -> Vec<Timed<T>> {
    let mut out: Vec<Timed<T>> = (0..variants).map(|_| Timed::default()).collect();
    for round in 0..rounds.warmup + rounds.scored {
        let results = sample();
        assert_eq!(results.len(), variants, "one sample per variant");
        if round >= rounds.warmup {
            for (timed, (elapsed, output)) in out.iter_mut().zip(results) {
                timed.record(elapsed, output);
            }
        }
    }
    out
}

/// Runs `f` once, returning how long it took and what it produced.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let begin = Instant::now();
    let out = f();
    (begin.elapsed(), out)
}

/// How much slower `variant` is than `base`, in percent.
pub fn overhead_pct(base: Duration, variant: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (variant.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// How much slower `variant` ran than `base`, in percent: the median of
/// the ratios of samples taken in the same round. Machine speed that
/// drifts between rounds slows both halves of a pair alike and cancels
/// in its ratio; a ratio of two minimums taken in different rounds
/// keeps it.
pub fn paired_overhead_pct<T, U>(base: &Timed<T>, variant: &Timed<U>) -> f64 {
    let mut pcts: Vec<f64> = base
        .samples
        .iter()
        .zip(&variant.samples)
        .map(|(b, v)| overhead_pct(*b, *v))
        .collect();
    pcts.sort_by(f64::total_cmp);
    match pcts.len() {
        0 => 0.0,
        n if n % 2 == 1 => pcts[n / 2],
        n => (pcts[n / 2 - 1] + pcts[n / 2]) / 2.0,
    }
}

/// Writes a job's report to `BENCH_<job>.json` in the working directory.
pub fn write_report(job: &str, doc: &Value) {
    let path = format!("BENCH_{job}.json");
    std::fs::write(&path, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// A job's bounds: collects the failed ones and turns them into the
/// process exit code.
#[derive(Debug, Default)]
pub struct Verdict {
    failures: Vec<String>,
    passed: Option<String>,
}

impl Verdict {
    /// Records `failure` unless `ok`.
    pub fn require(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Requires a latency `p99_us` (microseconds) within `budget_ms`.
    /// The comparison is made in microseconds, so 50 001 us exceeds a
    /// 50 ms budget.
    pub fn latency_within(&mut self, what: &str, p99_us: u64, budget_ms: u64) {
        self.require(p99_us <= budget_ms.saturating_mul(1_000), || {
            format!("{what} {p99_us}us exceeds the {budget_ms}ms budget")
        });
        self.passed = Some(format!("{what} {p99_us}us within the {budget_ms}ms budget"));
    }

    /// The line printed when every bound held.
    pub fn on_pass(&mut self, line: String) {
        self.passed = Some(line);
    }

    /// Whether any bound failed.
    fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Reports the outcome: each failed bound on stderr and exit 1, or
    /// the pass line and exit 0.
    pub fn exit_code(self, job: &str) -> ExitCode {
        for failure in &self.failures {
            eprintln!("bench {job}: {failure}");
        }
        if self.failed() {
            return ExitCode::FAILURE;
        }
        if let Some(line) = self.passed {
            println!("{line}");
        }
        ExitCode::SUCCESS
    }
}

/// A MiniC counting loop with `iters` iterations.
pub fn c_loop(iters: u32) -> String {
    format!(
        "int main() {{\nint acc = 0;\nfor (int i = 0; i < {iters}; i++) {{\nacc = acc + i;\n}}\nreturn acc % 97;\n}}"
    )
}

/// The MiniPy equivalent of [`c_loop`].
pub fn py_loop(iters: u32) -> String {
    format!("acc = 0\nfor i in range({iters}):\n    acc = acc + i\nr = acc % 97\n")
}

/// A MiniC recursive Fibonacci program.
pub fn c_fib(n: u32) -> String {
    format!(
        "int fib(int n) {{\nif (n < 2) {{ return n; }}\nreturn fib(n - 1) + fib(n - 2);\n}}\nint main() {{\nreturn fib({n});\n}}"
    )
}

/// The MiniPy equivalent of [`c_fib`].
pub fn py_fib(n: u32) -> String {
    format!(
        "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nr = fib({n})\n"
    )
}

/// A MiniC program that pauses (via a line breakpoint target) at call
/// depth `depth`, for inspection-scaling series.
pub fn c_deep(depth: u32) -> String {
    format!(
        "int down(int n) {{\nint local = n * 2;\nif (n == 0) {{ return local; }}\nreturn down(n - 1);\n}}\nint main() {{\nreturn down({depth});\n}}"
    )
}

/// The MiniPy equivalent of [`c_deep`].
pub fn py_deep(depth: u32) -> String {
    format!(
        "def down(n):\n    local = n * 2\n    if n == 0:\n        return local\n    return down(n - 1)\nr = down({depth})\n"
    )
}

/// A MiniC program holding a heap array of `n` elements at its last line.
pub fn c_heap(n: u32) -> String {
    format!(
        "int main() {{\nint* a = malloc({n} * sizeof(int));\nfor (int i = 0; i < {n}; i++) {{\na[i] = i;\n}}\nint done = 1;\nfree(a);\nreturn done;\n}}"
    )
}

/// The MiniPy equivalent of [`c_heap`].
pub fn py_heap(n: u32) -> String {
    format!("a = []\nfor i in range({n}):\n    a.append(i)\ndone = 1\n")
}

/// Runs a tracker to completion with `resume` (no control points).
pub fn run_resume(tracker: &mut dyn Tracker) {
    tracker.start().expect("start");
    loop {
        if let PauseReason::Exited(_) = tracker.resume().expect("resume") {
            return;
        }
    }
}

/// Runs a tracker to completion by stepping every line.
pub fn run_step_all(tracker: &mut dyn Tracker) -> u64 {
    tracker.start().expect("start");
    let mut steps = 0;
    loop {
        if let PauseReason::Exited(_) = tracker.step().expect("step") {
            return steps;
        }
        steps += 1;
    }
}

/// Runs a tracker to completion with one watchpoint set.
pub fn run_with_watch(tracker: &mut dyn Tracker, variable: &str) -> u64 {
    tracker.start().expect("start");
    tracker.watch(variable).expect("watch");
    let mut hits = 0;
    loop {
        match tracker.resume().expect("resume") {
            PauseReason::Exited(_) => return hits,
            PauseReason::Watchpoint { .. } => hits += 1,
            _ => {}
        }
    }
}

/// Runs a tracker to completion pausing only at `function`'s calls and
/// returns (down to `maxdepth`); returns the number of pauses.
pub fn run_tracked(tracker: &mut dyn Tracker, function: &str, maxdepth: Option<u32>) -> u64 {
    tracker.track_function(function, maxdepth).expect("track");
    tracker.start().expect("start");
    let mut events = 0;
    loop {
        match tracker.resume().expect("resume") {
            PauseReason::Exited(_) => return events,
            _ => events += 1,
        }
    }
}

/// Convenience constructors.
pub fn c_tracker(src: &str) -> MiTracker {
    MiTracker::load_c("bench.c", src).expect("compiles")
}

/// Convenience constructor for MiniPy workloads.
pub fn py_tracker(src: &str) -> PyTracker {
    PyTracker::load("bench.py", src).expect("parses")
}

/// The `mi-server` binary, built if need be, and how a tracker loaded
/// with [`load_mi`] reaches its engine: a child process, or the
/// in-process channel where the binary is unavailable.
pub fn mi_server() -> (Option<PathBuf>, &'static str) {
    let server = conformance::mi_server_bin();
    let deployment = if server.is_some() {
        "mi-server child process"
    } else {
        "in-process channel"
    };
    (server, deployment)
}

/// Loads MiniC `src` over `server` (in process when `None`), reporting
/// into `registry`.
pub fn load_mi(server: Option<&Path>, src: &str, registry: obs::Registry) -> MiTracker {
    let spec = match server {
        Some(bin) => ProgramSpec::new("bench.c", src).via_server(bin),
        None => ProgramSpec::new("bench.c", src),
    };
    MiTracker::load_spec(spec, registry, Supervision::default(), None).expect("workload compiles")
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confines this process, and the engine children it spawns from now
/// on, to the first CPU it may run on. Sessions that ping-pong between a
/// tracker and its `mi-server` child then hand off on one CPU instead of
/// waking one another across vCPUs, whose latency on a shared host
/// varied a tracked-fib session's time by 4× between rounds.
/// Returns the CPU, or `None` where affinity cannot be set (the job then
/// runs unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of `size` bytes (1024 CPUs,
        // glibc's `cpu_set_t`) that outlives the call.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..64 * mask.len()).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of `size` bytes that outlives
        // the call.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// What [`tracked_fib`] runs, for reports.
pub const TRACKED_FIB: &str = "c_fib(13), track fib + inspect each call";

/// A tracker loaded with [`tracked_fib`]'s program.
pub fn tracked_fib_tracker(server: Option<&Path>, registry: obs::Registry) -> MiTracker {
    load_mi(server, &c_fib(13), registry)
}

/// The canonical debugging session the `obs` and `profile` jobs time,
/// on every tracker of `trackers` at once (each loaded by
/// [`tracked_fib_tracker`]): track `fib` in `c_fib(13)`,
/// resume across every call and return, and inspect the state at each
/// call, like a visualization frontend. The sessions run in lockstep,
/// each taking its next pause in turn (the first to go rotating), so a
/// change in machine speed, which on a shared 2-vCPU host swings a whole
/// session's time by 2×, hits every tracker alike. `on_pause(i, t,
/// pauses, exited)` runs inside tracker `i`'s timed region after each of
/// its pauses. Returns the time spent in each tracker's session and the
/// pause count.
pub fn tracked_fib(
    trackers: &mut [MiTracker],
    mut on_pause: impl FnMut(usize, &mut MiTracker, u64, bool),
) -> (Vec<Duration>, u64) {
    let mut spent = vec![Duration::ZERO; trackers.len()];
    for (t, spent) in trackers.iter_mut().zip(&mut spent) {
        let begin = Instant::now();
        t.start().expect("start");
        t.track_function("fib", None).expect("track");
        *spent += begin.elapsed();
    }
    let mut pauses = 0u64;
    loop {
        let mut exits = 0;
        for turn in 0..trackers.len() {
            let i = (turn + pauses as usize) % trackers.len();
            let t = &mut trackers[i];
            let begin = Instant::now();
            let reason = t.resume().expect("resume");
            let exited = matches!(reason, PauseReason::Exited(_));
            if let PauseReason::FunctionCall { .. } = reason {
                let state = t.get_state().expect("state");
                debug_assert_eq!(state.frame.name(), "fib");
            }
            on_pause(i, t, pauses + u64::from(!exited), exited);
            spent[i] += begin.elapsed();
            exits += usize::from(exited);
        }
        if exits == trackers.len() {
            return (spent, pauses);
        }
        assert_eq!(exits, 0, "every tracker runs the same session");
        pauses += 1;
    }
}

/// A session host for the load jobs: one `mi-server --host` child, or
/// an in-process host where the server binary is unavailable.
pub struct Host {
    pub handle: HostHandle,
    pub deployment: &'static str,
    _local: Option<SessionHost>,
}

impl Host {
    /// Opens a host with `workers` worker threads.
    pub fn open(workers: usize) -> Host {
        match conformance::mi_server_bin() {
            Some(bin) => Host {
                handle: HostHandle::spawn_process(&bin, workers).expect("spawn host"),
                deployment: "mi-server --host child process",
                _local: None,
            },
            None => {
                let local = SessionHost::new(workers);
                Host {
                    handle: HostHandle::connect_in_process(&local),
                    deployment: "in-process host",
                    _local: Some(local),
                }
            }
        }
    }
}

/// What a load session does with its commands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Script {
    /// Step through a generated program, inspecting every 4th pause.
    StepInspect,
    /// Line breakpoint + resume-to-pause + inspect at each hit.
    Breakpoint,
    /// Track a recursive function, inspect the frame at each call.
    TrackCalls,
}

/// One hosted session under load: its tracker, its script, and how many
/// commands it has left. A done session stays open (parked in the host)
/// until its driver finishes: the point is concurrent *sessions*, not
/// concurrent commands.
pub struct LoadSession {
    tracker: MiTracker,
    script: Script,
    ops_left: u32,
    step: u64,
    exited: bool,
}

impl LoadSession {
    /// Opens session `index` on `host`. A step/inspect session steps
    /// through the conformance program generated from seed
    /// `seed + index % 8`; the other scripts run fib(6).
    pub fn open(host: &HostHandle, script: Script, seed: u64, index: usize, ops: u32) -> Self {
        let (file, source) = match script {
            Script::StepInspect => {
                let program = conformance::gen::gen_program(seed + (index % 8) as u64);
                (
                    format!("gen{}.c", index % 8),
                    conformance::gen::render_c(&program),
                )
            }
            Script::Breakpoint | Script::TrackCalls => ("fib.c".to_owned(), c_fib(6)),
        };
        let spec = ProgramSpec::new(&file, &source).via_host(host);
        let tracker =
            MiTracker::load_spec(spec, obs::Registry::new(), Supervision::default(), None)
                .expect("workload compiles");
        LoadSession {
            tracker,
            script,
            ops_left: ops,
            step: 0,
            exited: false,
        }
    }

    /// Arms the script's control points and starts the inferior.
    fn begin(&mut self, hist: &mut Histogram) {
        match self.script {
            Script::StepInspect => {}
            Script::Breakpoint => {
                self.tracker.break_before_func("fib", None).expect("break");
            }
            Script::TrackCalls => {
                self.tracker.track_function("fib", None).expect("track");
            }
        }
        let (elapsed, reason) = timed(|| self.tracker.start().expect("start"));
        hist.record(elapsed.as_nanos() as u64);
        self.exited = matches!(reason, PauseReason::Exited(_));
    }

    /// Advances the session by one command; returns false once the
    /// script is exhausted or the inferior exited. Control-command
    /// latency goes to `hist`; inspection commands count toward
    /// `commands` but not pause latency.
    fn advance(&mut self, hist: &mut Histogram, commands: &mut u64) -> bool {
        if self.exited || self.ops_left == 0 {
            return false;
        }
        self.ops_left -= 1;
        self.step += 1;
        *commands += 1;
        let (elapsed, reason) = timed(|| match self.script {
            Script::StepInspect => self.tracker.step(),
            Script::Breakpoint | Script::TrackCalls => self.tracker.resume(),
        });
        hist.record(elapsed.as_nanos() as u64);
        if matches!(reason.expect("control command"), PauseReason::Exited(_)) {
            self.exited = true;
            return false;
        }
        if self.step.is_multiple_of(4) {
            *commands += 1;
            let state = self.tracker.get_state().expect("inspect");
            std::hint::black_box(state.frame.name());
        }
        true
    }
}

/// What [`drive_pool`] measured.
pub struct Drive {
    /// Control-command latencies of every session, in nanoseconds.
    pub pauses: Histogram,
    /// Commands sent, inspections included.
    pub commands: u64,
    /// Wall time of the whole drive.
    pub elapsed: Duration,
}

/// Drives `sessions` from `drivers` threads, dealt round-robin. Each
/// driver starts its sessions, advances each by one command per pass
/// until every script is done, then closes them. `background` runs on
/// `background_threads` more threads for the whole drive; the flag it
/// gets turns true once every driver is done.
pub fn drive_pool(
    sessions: Vec<LoadSession>,
    drivers: usize,
    background_threads: usize,
    background: impl Fn(&AtomicBool) + Sync,
) -> Drive {
    let mut chunks: Vec<Vec<LoadSession>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, s) in sessions.into_iter().enumerate() {
        chunks[i % drivers].push(s);
    }
    let done = AtomicBool::new(false);
    let begin = Instant::now();
    let mut drive = std::thread::scope(|scope| {
        for _ in 0..background_threads {
            scope.spawn(|| background(&done));
        }
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || drive_chunk(chunk)))
            .collect();
        let mut total = Drive {
            pauses: Histogram::new(),
            commands: 0,
            elapsed: Duration::ZERO,
        };
        for handle in handles {
            let (hist, commands) = handle.join().expect("driver thread");
            total.pauses.merge(&hist);
            total.commands += commands;
        }
        done.store(true, Ordering::Relaxed);
        total
    });
    drive.elapsed = begin.elapsed();
    drive
}

fn drive_chunk(mut chunk: Vec<LoadSession>) -> (Histogram, u64) {
    let mut hist = Histogram::new();
    let mut commands = 0u64;
    for s in &mut chunk {
        commands += 1;
        s.begin(&mut hist);
    }
    let mut live = true;
    while live {
        live = false;
        for s in &mut chunk {
            if s.advance(&mut hist, &mut commands) {
                live = true;
            }
        }
    }
    for s in &mut chunk {
        s.tracker.terminate();
    }
    (hist, commands)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_equivalent_across_languages() {
        let mut c = c_tracker(&c_loop(25));
        run_resume(&mut c);
        assert_eq!(c.get_exit_code(), Some((0..25).sum::<i64>() % 97));
        c.terminate();

        let mut p = py_tracker(&py_loop(25));
        run_resume(&mut p);
        assert_eq!(p.get_exit_code(), Some(0));
        p.terminate();
    }

    #[test]
    fn step_counts_scale_with_iterations() {
        let mut small = c_tracker(&c_loop(5));
        let s = run_step_all(&mut small);
        small.terminate();
        let mut big = c_tracker(&c_loop(20));
        let b = run_step_all(&mut big);
        big.terminate();
        assert!(b > s * 2);
    }

    #[test]
    fn watch_hits_equal_mutations() {
        let mut t = c_tracker(&c_loop(10));
        let hits = run_with_watch(&mut t, "acc");
        t.terminate();
        // acc is written once per iteration after the first change from
        // its initial 0 (i = 0 leaves it 0, so 9 observable changes...
        // plus the zero-init store is invisible as a change).
        assert!(hits >= 8, "hits = {hits}");
    }

    #[test]
    fn tracked_runs_honour_maxdepth() {
        let mut all = c_tracker(&c_fib(6));
        let every = run_tracked(&mut all, "fib", None);
        all.terminate();
        let mut shallow = c_tracker(&c_fib(6));
        let top = run_tracked(&mut shallow, "fib", Some(2));
        shallow.terminate();
        assert!(top < every, "maxdepth 2: {top} pauses, unbounded: {every}");
    }

    const SPEC: &[(&str, Kind)] = &[
        ("--check", Kind::Switch),
        ("--sessions", Kind::Int),
        ("--budget", Kind::Real),
    ];

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|a| a.to_string()), SPEC)
    }

    #[test]
    fn flags_parse_declared_flags_and_keep_the_last_value() {
        let flags = parse(&["--sessions", "64", "--check", "--sessions", "8"]).unwrap();
        assert!(flags.on("--check"));
        assert_eq!(flags.int("--sessions"), Some(8));
        assert_eq!(flags.real("--budget"), None);
        let flags = parse(&["--budget", "2.5"]).unwrap();
        assert!(!flags.on("--check"));
        assert_eq!(flags.real("--budget"), Some(2.5));
    }

    #[test]
    fn flags_reject_unknown_flags_and_malformed_numbers() {
        for bad in [
            &["--verbose"][..],
            &["check"],
            &["--sessions"],
            &["--sessions", "ten"],
            &["--sessions", "-3"],
            &["--sessions", "6.5"],
            &["--budget", "five"],
            &["--budget", "NaN"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    /// Drives [`measure`] with scripted samples: the sample at call `i`
    /// takes `script[i]` microseconds and produces `i`.
    fn scripted(
        variants: usize,
        rounds: Rounds,
        script: &[u64],
    ) -> (Vec<Timed<usize>>, Vec<usize>) {
        let mut calls = Vec::new();
        let out = measure(variants, rounds, |variant| {
            let i = calls.len();
            calls.push(variant);
            (Duration::from_micros(script[i]), i)
        });
        (out, calls)
    }

    #[test]
    fn measure_alternates_variants_within_each_round() {
        let (_, calls) = scripted(3, Rounds::new(1, 2), &[1; 9]);
        assert_eq!(calls, [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let rounds = Rounds {
            per_round: 2,
            ..Rounds::new(0, 2)
        };
        let (_, calls) = scripted(2, rounds, &[1; 8]);
        assert_eq!(calls, [0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn measure_scores_neither_warmup_round() {
        // The warm-up rounds hold the fastest samples of all: if they
        // were scored, they would be the minimum.
        let script = [1, 2, 1, 2, 50, 60, 40, 70, 45, 65];
        let (out, _) = scripted(2, Rounds::new(2, 3), &script);
        assert_eq!(out[0].best, Duration::from_micros(40));
        assert_eq!(out[1].best, Duration::from_micros(60));
        assert_eq!(out[0].samples.len(), 3);
        assert_eq!(out[1].samples.len(), 3);
        assert_eq!(
            out[0].samples.iter().max(),
            Some(&Duration::from_micros(50))
        );
        assert_eq!(out[0].last, 8);
        assert_eq!(out[1].last, 9);
    }

    #[test]
    fn percentiles_are_order_statistics_of_the_samples() {
        let us = Duration::from_micros;
        let (out, _) = scripted(1, Rounds::new(0, 7), &[30, 10, 20, 70, 40, 60, 50]);
        assert_eq!(out[0].percentiles(), [us(40), us(70), us(70)]);
        // 1..=100 µs, scrambled: the k-th percentile is the k-th sample.
        let script: Vec<u64> = (0..100).map(|i| (i * 37) % 100 + 1).collect();
        let (out, _) = scripted(1, Rounds::new(0, 100), &script);
        let [p50, p95, p99] = out[0].percentiles();
        assert_eq!([p50, p95, p99], [us(50), us(95), us(99)]);
        assert!(out[0].best <= p50 && p50 <= p95 && p95 <= p99);
        assert_eq!(
            out[0].summary(),
            json!({"min_us": 1, "p50_us": 50, "p95_us": 95, "p99_us": 99})
        );
        // A skewed set: bucketed quantiles could read below the minimum.
        let (out, _) = scripted(1, Rounds::new(0, 3), &[27_289, 27_290, 40_000]);
        let [p50, _, p99] = out[0].percentiles();
        assert_eq!(
            (out[0].best, p50, p99),
            (us(27_289), us(27_290), us(40_000))
        );
        assert_eq!(Timed::<()>::default().percentiles(), [Duration::ZERO; 3]);
    }

    #[test]
    fn overhead_is_relative_to_the_base() {
        let ms = Duration::from_millis;
        assert!((overhead_pct(ms(100), ms(105)) - 5.0).abs() < 1e-9);
        assert!((overhead_pct(ms(100), ms(90)) + 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(Duration::ZERO, ms(3)), 0.0);
    }

    #[test]
    fn paired_overhead_is_the_median_of_same_round_ratios() {
        // Round 2 runs under load, slowing both halves alike; round 3's
        // variant sample is an outlier. The ratio of the minimums reads
        // -50%, while three of the four pairs read +10%.
        let script = [100, 110, 200, 220, 100, 50, 100, 110];
        let (out, _) = scripted(2, Rounds::new(0, 4), &script);
        assert!((overhead_pct(out[0].best, out[1].best) + 50.0).abs() < 1e-9);
        assert!((paired_overhead_pct(&out[0], &out[1]) - 10.0).abs() < 1e-9);
        let (odd, _) = scripted(2, Rounds::new(0, 3), &script[..6]);
        assert!((paired_overhead_pct(&odd[0], &odd[1]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn latency_budgets_compare_in_microseconds() {
        let mut over = Verdict::default();
        over.latency_within("p99 pause latency", 50_001, 50);
        assert!(over.failed(), "50 001 us must fail a 50 ms budget");
        let mut at = Verdict::default();
        at.latency_within("p99 pause latency", 50_000, 50);
        assert!(!at.failed(), "50 000 us is within a 50 ms budget");
    }

    #[test]
    fn verdict_collects_every_failed_bound() {
        let mut v = Verdict::default();
        v.require(true, || unreachable!("a held bound builds no message"));
        assert!(!v.failed());
        v.require(false, || "first".into());
        v.require(false, || "second".into());
        assert_eq!(v.failures, ["first", "second"]);
        assert_eq!(v.exit_code("test"), ExitCode::FAILURE);
    }
}
