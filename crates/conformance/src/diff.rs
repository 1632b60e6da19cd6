//! The lockstep differential driver.
//!
//! Runs one generated program under multiple tracker deployments and
//! compares what the paper's API contract says must be equal:
//!
//! * same source, different deployments (MiTracker over an in-process
//!   channel, MiTracker over a real `mi-server` child process, live
//!   PyTracker vs [`ReplayTracker`] over its own recording): the *full
//!   serialized [`state::ProgramState`]* at every pause point, plus
//!   pause-reason sequence, output, and exit code;
//! * cross-language (MiniC vs MiniPy renderings of one AST): the printed
//!   output lines and the final residue, which the C side also returns
//!   as its exit code.
//!
//! All comparisons return [`Divergence`] values instead of panicking so
//! the shrinker (see [`crate::shrink`](mod@crate::shrink)) can re-run them on reduced
//! candidates.

use crate::fault::{chaos_wrapper, counting_wrapper, ChaosFault, ChaosPlan, ChaosState};
use crate::{gen, rng::Rng};
use easytracker::{
    MiTracker, ProgramSpec, PyTracker, Recording, ReplayTracker, Supervision, Tracker, TrackerError,
};
use state::PauseReason;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One observed disagreement between two legs of a differential run.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which comparison pair diverged (e.g. `c_channel_vs_replay`).
    pub pair: String,
    /// Seed of the generated program, for reproduction.
    pub seed: u64,
    /// Human-readable description of the first disagreement.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} seed={}] {}", self.pair, self.seed, self.detail)
    }
}

/// A step-granular trace of one run: per-pause reason + serialized state,
/// accumulated output, and the exit code.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// `(pause-reason debug, serialized ProgramState)` per pause point.
    pub steps: Vec<(String, String)>,
    /// Everything the program printed.
    pub output: String,
    /// Exit code, if the tracker reports one.
    pub exit: Option<i64>,
}

/// Drives differential runs and reports into an obs registry:
/// `conformance.programs_generated`, `conformance.divergences`, and
/// `conformance.pair.<name>` counters.
pub struct Driver {
    registry: obs::Registry,
    /// Tracker-side trace ring so a failing chaos check can write the
    /// two-lane merged trace next to its flight dump.
    trace: Arc<obs::ExportSink>,
    max_steps: usize,
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

impl Driver {
    /// A driver with a private registry.
    pub fn new() -> Self {
        Self::with_registry(obs::Registry::new())
    }

    /// A driver reporting into `registry`.
    pub fn with_registry(registry: obs::Registry) -> Self {
        let trace = Arc::new(obs::ExportSink::new(8192));
        registry.add_sink(trace.clone());
        Driver {
            registry,
            trace,
            max_steps: 20_000,
        }
    }

    /// The registry the driver counts into.
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// Generates the shared-AST program for `seed` and runs every cheap
    /// in-process pair over it (C channel-vs-replay, Py live-vs-replay,
    /// C-vs-Py output, asm channel-vs-replay). Empty result = conformant.
    pub fn check_seed(&self, seed: u64) -> Vec<Divergence> {
        let program = gen::gen_program(seed);
        let c = gen::render_c(&program);
        let py = gen::render_py(&program);
        self.registry.inc("conformance.programs_generated");
        let mut div = Vec::new();
        div.extend(self.diff_c_vs_replay(seed, &c));
        div.extend(self.diff_c_opt_vs_unopt(seed, &c));
        div.extend(self.diff_py_vs_replay(seed, &py));
        div.extend(self.diff_c_vs_py(seed, &c, &py));
        let asm = gen::render_asm(&gen::gen_asm(seed));
        self.registry.inc("conformance.programs_generated");
        div.extend(self.diff_asm_vs_replay(seed, &asm));
        self.count_divergences(&div);
        div
    }

    /// Best-effort companion to a flight dump: drain whatever telemetry
    /// the session can still produce and write the two-lane merged
    /// trace next to the dump, so the CI artifact trail carries the
    /// timeline as well as the post-mortem.
    fn write_merged_next_to(
        &self,
        chaos: &mut MiTracker,
        dump: Option<&std::path::Path>,
    ) -> Option<std::path::PathBuf> {
        let dump = dump?;
        // A degraded session refuses the drain; merge what was already
        // collected in that case.
        let _ = chaos.drain_telemetry();
        let (tracker_events, _, _) = self.trace.since(0);
        let path = dump.with_extension("trace.json");
        chaos.write_merged_trace(&path, &tracker_events).ok()?;
        Some(path)
    }

    fn count_divergences(&self, div: &[Divergence]) {
        if !div.is_empty() {
            self.registry
                .add("conformance.divergences", div.len() as u64);
        }
    }

    fn pair(&self, name: &str) {
        self.registry.inc(&format!("conformance.pair.{name}"));
    }

    /// Single-steps `t` from fresh to exit, recording every pause.
    pub fn step_trace(&self, t: &mut dyn Tracker) -> Result<Trace, TrackerError> {
        let mut steps = Vec::new();
        let mut output = String::new();
        let mut reason = t.start()?;
        let mut budget = self.max_steps;
        while reason.is_alive() {
            let state = t.get_state()?;
            let json =
                serde_json::to_string(&state).map_err(|e| TrackerError::Engine(e.to_string()))?;
            output.push_str(&t.get_output()?);
            steps.push((format!("{reason:?}"), json));
            reason = t.step()?;
            budget = budget.checked_sub(1).ok_or_else(|| {
                TrackerError::Engine(format!("step budget ({}) exhausted", self.max_steps))
            })?;
        }
        output.push_str(&t.get_output()?);
        Ok(Trace {
            steps,
            output,
            exit: t.get_exit_code(),
        })
    }

    fn compare(&self, pair: &str, seed: u64, a: &Trace, b: &Trace) -> Vec<Divergence> {
        let mut div = Vec::new();
        let mut push = |detail: String| {
            div.push(Divergence {
                pair: pair.to_owned(),
                seed,
                detail,
            });
        };
        for (i, (x, y)) in a.steps.iter().zip(&b.steps).enumerate() {
            if x != y {
                push(format!(
                    "step {i}: left ({} / {}) != right ({} / {})",
                    x.0, x.1, y.0, y.1
                ));
                break;
            }
        }
        if a.steps.len() != b.steps.len() {
            push(format!(
                "step counts differ: {} vs {}",
                a.steps.len(),
                b.steps.len()
            ));
        }
        if a.output != b.output {
            push(format!("output differs: {:?} vs {:?}", a.output, b.output));
        }
        if a.exit != b.exit {
            push(format!("exit codes differ: {:?} vs {:?}", a.exit, b.exit));
        }
        div
    }

    fn error(
        &self,
        pair: &str,
        seed: u64,
        what: &str,
        e: &dyn std::fmt::Display,
    ) -> Vec<Divergence> {
        vec![Divergence {
            pair: pair.to_owned(),
            seed,
            detail: format!("{what}: {e}"),
        }]
    }

    /// MiniC under the channel-backed MiTracker vs a replay of its own
    /// recording: serialized states must agree at every step.
    pub fn diff_c_vs_replay(&self, seed: u64, c_src: &str) -> Vec<Divergence> {
        const PAIR: &str = "c_channel_vs_replay";
        self.pair(PAIR);
        let live = || MiTracker::load_c("gen.c", c_src);
        self.live_vs_replay(PAIR, seed, &|| {
            live().map(|t| Box::new(t) as Box<dyn Tracker>)
        })
    }

    /// MiniC at -O0 vs the same source optimized at -O1: the bytecode
    /// optimizer is observation-preserving, so the serialized
    /// [`state::ProgramState`] at every pause, the pause-reason sequence,
    /// the output, and the exit code must all be byte-identical.
    pub fn diff_c_opt_vs_unopt(&self, seed: u64, c_src: &str) -> Vec<Divergence> {
        const PAIR: &str = "c_unopt_vs_opt";
        self.pair(PAIR);
        let mut plain = match MiTracker::load_c("gen.c", c_src) {
            Ok(t) => t,
            Err(e) => return self.error(PAIR, seed, "unoptimized load failed", &e),
        };
        let mut opt = match MiTracker::load_spec(
            ProgramSpec::new("gen.c", c_src).opt_level(1),
            obs::Registry::new(),
            Supervision::default(),
            None,
        ) {
            Ok(t) => t,
            Err(e) => return self.error(PAIR, seed, "optimized load failed", &e),
        };
        let a = match self.step_trace(&mut plain) {
            Ok(t) => t,
            Err(e) => return self.error(PAIR, seed, "unoptimized run failed", &e),
        };
        let b = match self.step_trace(&mut opt) {
            Ok(t) => t,
            Err(e) => return self.error(PAIR, seed, "optimized run failed", &e),
        };
        plain.terminate();
        opt.terminate();
        self.compare(PAIR, seed, &a, &b)
    }

    /// Live PyTracker vs a replay of its own recording.
    pub fn diff_py_vs_replay(&self, seed: u64, py_src: &str) -> Vec<Divergence> {
        const PAIR: &str = "py_live_vs_replay";
        self.pair(PAIR);
        self.live_vs_replay(PAIR, seed, &|| {
            PyTracker::load("gen.py", py_src).map(|t| Box::new(t) as Box<dyn Tracker>)
        })
    }

    /// RISC-V under the channel-backed MiTracker vs a replay.
    pub fn diff_asm_vs_replay(&self, seed: u64, asm_src: &str) -> Vec<Divergence> {
        const PAIR: &str = "asm_channel_vs_replay";
        self.pair(PAIR);
        self.live_vs_replay(PAIR, seed, &|| {
            MiTracker::load_c("gen.s", asm_src).map(|t| Box::new(t) as Box<dyn Tracker>)
        })
    }

    fn live_vs_replay(
        &self,
        pair: &str,
        seed: u64,
        make: &dyn Fn() -> Result<Box<dyn Tracker>, TrackerError>,
    ) -> Vec<Divergence> {
        let mut live = match make() {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "live load failed", &e),
        };
        let live_trace = match self.step_trace(live.as_mut()) {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "live run failed", &e),
        };
        live.terminate();
        let mut rec_source = match make() {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "recording load failed", &e),
        };
        let rec = match Recording::capture(rec_source.as_mut()) {
            Ok(r) => r,
            Err(e) => return self.error(pair, seed, "recording capture failed", &e),
        };
        rec_source.terminate();
        let mut replay = ReplayTracker::new(rec);
        let replay_trace = match self.step_trace(&mut replay) {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "replay run failed", &e),
        };
        let mut div = self.compare(pair, seed, &live_trace, &replay_trace);
        if div.is_empty() {
            // The forward lockstep held; now the store-backed extras
            // must too: a disk round-trip of the trace store stays
            // byte-identical, random seeks land on the recorded states,
            // and reverse-stepping walks the exact forward sequence
            // backwards.
            div.extend(self.store_roundtrip(pair, seed, &replay, &live_trace));
            div.extend(self.reverse_walk(pair, seed, &mut replay, &live_trace));
        }
        div
    }

    /// Serializes the replay tracker's store to its on-disk form, loads
    /// it back, and spot-checks seeks at the ends and middle against the
    /// live run's serialized states.
    fn store_roundtrip(
        &self,
        pair: &str,
        seed: u64,
        replay: &ReplayTracker,
        fwd: &Trace,
    ) -> Vec<Divergence> {
        let store = replay.store();
        let bytes = store.to_bytes();
        let back = match trace::Store::from_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => return self.error(pair, seed, "trace-store round-trip failed", &e),
        };
        let mut div = Vec::new();
        if back.len() != fwd.steps.len() as u64 {
            div.push(Divergence {
                pair: pair.to_owned(),
                seed,
                detail: format!(
                    "reloaded store holds {} pauses, live run had {}",
                    back.len(),
                    fwd.steps.len()
                ),
            });
            return div;
        }
        let n = back.len();
        for probe in [0, n / 2, n.saturating_sub(1)] {
            if probe >= n {
                continue;
            }
            match back.state_bytes_at(probe) {
                Ok(state_bytes) => {
                    if state_bytes != fwd.steps[probe as usize].1.as_bytes() {
                        div.push(Divergence {
                            pair: pair.to_owned(),
                            seed,
                            detail: format!(
                                "reloaded store state at pause {probe} differs from live"
                            ),
                        });
                    }
                }
                Err(e) => {
                    return self.error(pair, seed, "reloaded store seek failed", &e);
                }
            }
        }
        div
    }

    /// Reverse-steps the replay tracker from the last pause to the
    /// first, requiring the exact forward state sequence backwards
    /// (pause reasons normalized: walking backwards reports `Step`).
    fn reverse_walk(
        &self,
        pair: &str,
        seed: u64,
        replay: &mut ReplayTracker,
        fwd: &Trace,
    ) -> Vec<Divergence> {
        let n = fwd.steps.len();
        if n == 0 {
            return Vec::new();
        }
        if let Err(e) = replay.seek(n as u64 - 1) {
            return self.error(pair, seed, "seek to last pause failed", &e);
        }
        let normalize = |mut st: state::ProgramState| {
            st.reason = PauseReason::Step;
            serde_json::to_string(&st).unwrap_or_default()
        };
        for i in (0..n - 1).rev() {
            if let Err(e) = replay.step_back() {
                return self.error(pair, seed, "reverse step failed", &e);
            }
            let got = match replay.get_state() {
                Ok(st) => normalize(st),
                Err(e) => return self.error(pair, seed, "reverse-state inspection failed", &e),
            };
            let want = match serde_json::from_str::<state::ProgramState>(&fwd.steps[i].1) {
                Ok(st) => normalize(st),
                Err(e) => return self.error(pair, seed, "forward state re-decode failed", &e),
            };
            if got != want {
                return vec![Divergence {
                    pair: pair.to_owned(),
                    seed,
                    detail: format!("reverse walk diverges at pause {i}"),
                }];
            }
        }
        Vec::new()
    }

    /// MiTracker over the in-process channel vs MiTracker over a real
    /// `mi-server` child process speaking newline-framed JSON on pipes.
    pub fn diff_c_channel_vs_process(
        &self,
        seed: u64,
        c_src: &str,
        server_bin: &Path,
    ) -> Vec<Divergence> {
        const PAIR: &str = "c_channel_vs_process";
        self.pair(PAIR);
        let div = self.channel_vs_process(PAIR, seed, c_src, server_bin, false);
        self.count_divergences(&div);
        div
    }

    /// Like [`Driver::diff_c_channel_vs_process`], for assembly.
    pub fn diff_asm_channel_vs_process(
        &self,
        seed: u64,
        asm_src: &str,
        server_bin: &Path,
    ) -> Vec<Divergence> {
        const PAIR: &str = "asm_channel_vs_process";
        self.pair(PAIR);
        let div = self.channel_vs_process(PAIR, seed, asm_src, server_bin, true);
        self.count_divergences(&div);
        div
    }

    fn channel_vs_process(
        &self,
        pair: &str,
        seed: u64,
        src: &str,
        server_bin: &Path,
        asm: bool,
    ) -> Vec<Divergence> {
        let (file, chan, proc_t) = if asm {
            (
                "gen.s",
                MiTracker::load_c("gen.s", src),
                MiTracker::load_c_process(server_bin, "gen.s", src),
            )
        } else {
            (
                "gen.c",
                MiTracker::load_c("gen.c", src),
                MiTracker::load_c_process(server_bin, "gen.c", src),
            )
        };
        let _ = file;
        let mut chan = match chan {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "channel load failed", &e),
        };
        let mut proc_t = match proc_t {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "process load failed", &e),
        };
        let a = match self.step_trace(&mut chan) {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "channel run failed", &e),
        };
        let b = match self.step_trace(&mut proc_t) {
            Ok(t) => t,
            Err(e) => return self.error(pair, seed, "process run failed", &e),
        };
        chan.terminate();
        proc_t.terminate();
        self.compare(pair, seed, &a, &b)
    }

    /// MiniC vs MiniPy renderings of the same AST: identical printed
    /// lines, and the C exit code equals the final printed residue.
    pub fn diff_c_vs_py(&self, seed: u64, c_src: &str, py_src: &str) -> Vec<Divergence> {
        const PAIR: &str = "c_vs_py_output";
        self.pair(PAIR);
        let program = match minic::compile("gen.c", c_src) {
            Ok(p) => p,
            Err(e) => return self.error(PAIR, seed, "C compile failed", &e),
        };
        let mut vm = minic::vm::Vm::new(&program);
        let c_exit = match vm.run_to_completion() {
            Ok(c) => c,
            Err(e) => return self.error(PAIR, seed, "C run failed", &e),
        };
        let c_out = vm.output().to_owned();
        let module = match minipy::parser::parse(py_src) {
            Ok(m) => m,
            Err(e) => return self.error(PAIR, seed, "Py parse failed", &e),
        };
        let mut interp = minipy::Interp::new(module);
        interp.set_max_steps(Some(2_000_000));
        let py_out = match interp.run(&mut minipy::NullTracer) {
            Ok(o) => o.output,
            Err(e) => return self.error(PAIR, seed, "Py run failed", &e),
        };
        let mut div = Vec::new();
        if c_out != py_out {
            div.push(Divergence {
                pair: PAIR.into(),
                seed,
                detail: format!("outputs differ: C {c_out:?} vs Py {py_out:?}"),
            });
        }
        let last = c_out.lines().last().and_then(|l| l.parse::<i64>().ok());
        if last != Some(c_exit) {
            div.push(Divergence {
                pair: PAIR.into(),
                seed,
                detail: format!("C exit {c_exit} != final residue line {last:?}"),
            });
        }
        div
    }

    /// Reason-sequence conformance with live control points: breakpoint,
    /// watchpoint, tracked function with `finish`, `next`, and exit. Both
    /// legs are driven by the same reason-directed procedure; returns the
    /// divergences plus the live leg's observed tag sequence (used by the
    /// property tests to assert variant coverage).
    pub fn check_control_points_c(&self, seed: u64) -> (Vec<Divergence>, Vec<String>) {
        const PAIR: &str = "c_control_points_vs_replay";
        self.pair(PAIR);
        let program = gen::gen_program(seed);
        let c_src = gen::render_c(&program);
        self.registry.inc("conformance.programs_generated");
        let (div, tags) = self.control_points(PAIR, seed, &|| {
            MiTracker::load_c("gen.c", &c_src).map(|t| Box::new(t) as Box<dyn Tracker>)
        });
        self.count_divergences(&div);
        (div, tags)
    }

    /// Like [`Driver::check_control_points_c`] for the Python tracker.
    pub fn check_control_points_py(&self, seed: u64) -> (Vec<Divergence>, Vec<String>) {
        const PAIR: &str = "py_control_points_vs_replay";
        self.pair(PAIR);
        let program = gen::gen_program(seed);
        let py_src = gen::render_py(&program);
        self.registry.inc("conformance.programs_generated");
        let (div, tags) = self.control_points(PAIR, seed, &|| {
            PyTracker::load("gen.py", &py_src).map(|t| Box::new(t) as Box<dyn Tracker>)
        });
        self.count_divergences(&div);
        (div, tags)
    }

    fn control_points(
        &self,
        pair: &str,
        seed: u64,
        make: &dyn Fn() -> Result<Box<dyn Tracker>, TrackerError>,
    ) -> (Vec<Divergence>, Vec<String>) {
        // Capture first: the recording tells us which lines actually
        // execute, so the breakpoint line is valid on both legs.
        let rec = {
            let mut t = match make() {
                Ok(t) => t,
                Err(e) => return (self.error(pair, seed, "load failed", &e), Vec::new()),
            };
            match Recording::capture(t.as_mut()) {
                Ok(r) => r,
                Err(e) => return (self.error(pair, seed, "capture failed", &e), Vec::new()),
            }
        };
        let lines: Vec<u32> = rec
            .steps
            .iter()
            .map(|s| s.state.frame.location().line())
            .collect();
        if lines.is_empty() {
            return (
                self.error(pair, seed, "empty recording", &"no steps"),
                Vec::new(),
            );
        }
        let bp_line = lines[lines.len() / 2];
        let mut live = match make() {
            Ok(t) => t,
            Err(e) => return (self.error(pair, seed, "live load failed", &e), Vec::new()),
        };
        let live_tags = match drive_with_control_points(live.as_mut(), bp_line) {
            Ok(tags) => tags,
            Err(e) => return (self.error(pair, seed, "live drive failed", &e), Vec::new()),
        };
        live.terminate();
        let mut replay = ReplayTracker::new(rec);
        let replay_tags = match drive_with_control_points(&mut replay, bp_line) {
            Ok(tags) => tags,
            Err(e) => return (self.error(pair, seed, "replay drive failed", &e), live_tags),
        };
        let mut div = Vec::new();
        if live_tags != replay_tags {
            div.push(Divergence {
                pair: pair.to_owned(),
                seed,
                detail: format!(
                    "reason sequences differ:\nlive:   {live_tags:?}\nreplay: {replay_tags:?}"
                ),
            });
        }
        (div, live_tags)
    }

    /// The chaos differential: one seeded liveness fault (a boundary
    /// hang or an engine crash) is injected at a seeded call index into a
    /// supervised control-point session, and the session must either
    /// recover to the *exact* fault-free behaviour — same pause-reason
    /// sequence, same output, same exit code — or degrade explicitly.
    /// Silent divergence is the only failure.
    pub fn check_chaos_c(&self, seed: u64) -> (Vec<Divergence>, ChaosOutcome) {
        const PAIR: &str = "c_chaos_vs_reference";
        self.pair(PAIR);
        let program = gen::gen_program(seed);
        let c_src = gen::render_c(&program);
        self.registry.inc("conformance.programs_generated");

        // Which lines actually execute, for a valid breakpoint.
        let rec = {
            let mut t = match MiTracker::load_c("gen.c", &c_src) {
                Ok(t) => t,
                Err(e) => {
                    return (
                        self.error(PAIR, seed, "load failed", &e),
                        ChaosOutcome::Clean,
                    )
                }
            };
            match Recording::capture(&mut t) {
                Ok(r) => r,
                Err(e) => {
                    return (
                        self.error(PAIR, seed, "capture failed", &e),
                        ChaosOutcome::Clean,
                    )
                }
            }
        };
        let lines: Vec<u32> = rec
            .steps
            .iter()
            .map(|s| s.state.frame.location().line())
            .collect();
        if lines.is_empty() {
            return (
                self.error(PAIR, seed, "empty recording", &"no steps"),
                ChaosOutcome::Clean,
            );
        }
        let bp_line = lines[lines.len() / 2];

        // Reference leg: the fault-free behaviour, counting port calls so
        // the schedule below is guaranteed to land inside the run.
        let calls = Arc::new(AtomicUsize::new(0));
        let mut reference = match MiTracker::load_spec(
            ProgramSpec::new("gen.c", &c_src),
            obs::Registry::new(),
            Supervision::default(),
            Some(counting_wrapper(Arc::clone(&calls))),
        ) {
            Ok(t) => t,
            Err(e) => {
                return (
                    self.error(PAIR, seed, "reference load failed", &e),
                    ChaosOutcome::Clean,
                )
            }
        };
        let reference_run = run_chaos_scenario(&mut reference, bp_line);
        reference.terminate();
        let reference_run = match reference_run {
            Ok(r) => r,
            Err(e) => {
                return (
                    self.error(PAIR, seed, "reference run failed", &e),
                    ChaosOutcome::Clean,
                )
            }
        };
        let total = calls.load(Ordering::SeqCst).max(1);

        // Seeded schedule: where the session is killed, and how.
        let mut rng = Rng::new(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let at_call = 1 + rng.below(total as u64) as usize;
        let fault = if rng.chance(50) {
            ChaosFault::Crash
        } else {
            ChaosFault::Hang
        };

        let state = ChaosState::new();
        let mut chaos = match MiTracker::load_spec(
            ProgramSpec::new("gen.c", &c_src),
            self.registry.clone(),
            chaos_supervision(),
            Some(chaos_wrapper(
                ChaosPlan { at_call, fault },
                Arc::clone(&state),
                self.registry.clone(),
            )),
        ) {
            Ok(t) => t,
            Err(e) => {
                return (
                    self.error(PAIR, seed, "chaos load failed", &e),
                    ChaosOutcome::Clean,
                )
            }
        };
        let chaos_run = run_chaos_scenario(&mut chaos, bp_line);
        // A failed check is a post-mortem moment even though the session
        // object is still alive: attach the flight dump *before*
        // terminate discards the child and its stderr tail.
        let result = match chaos_run {
            Ok(run) => {
                let mut div = Vec::new();
                if run.tags != reference_run.tags {
                    div.push(Divergence {
                        pair: PAIR.to_owned(),
                        seed,
                        detail: format!(
                            "reason sequences differ after {fault:?}@{at_call}:\nreference: {:?}\nchaos:     {:?}",
                            reference_run.tags, run.tags
                        ),
                    });
                }
                if run.output != reference_run.output {
                    div.push(Divergence {
                        pair: PAIR.to_owned(),
                        seed,
                        detail: format!(
                            "output differs after {fault:?}@{at_call}: {:?} vs {:?}",
                            reference_run.output, run.output
                        ),
                    });
                }
                if run.exit != reference_run.exit {
                    div.push(Divergence {
                        pair: PAIR.to_owned(),
                        seed,
                        detail: format!(
                            "exit codes differ after {fault:?}@{at_call}: {:?} vs {:?}",
                            reference_run.exit, run.exit
                        ),
                    });
                }
                self.count_divergences(&div);
                if !div.is_empty() {
                    let dump = chaos.dump_flight(&format!("chaos divergence: {fault:?}@{at_call}"));
                    attach_artifact(&mut div, "flight dump", dump.as_deref());
                    let trace = self.write_merged_next_to(&mut chaos, dump.as_deref());
                    attach_artifact(&mut div, "merged trace", trace.as_deref());
                }
                let outcome = if state.fired() {
                    ChaosOutcome::Recovered
                } else {
                    ChaosOutcome::Clean
                };
                (div, outcome)
            }
            Err(TrackerError::SessionDegraded(_)) => {
                // An explicit refusal is a legal outcome; a wrong answer
                // is not. Degrading already wrote its own post-mortem
                // (see `MiTracker`), so nothing extra to attach here.
                self.registry.inc("conformance.chaos.degraded");
                (Vec::new(), ChaosOutcome::Degraded)
            }
            Err(e) => {
                let mut div = self.error(
                    PAIR,
                    seed,
                    &format!("chaos run failed untyped after {fault:?}@{at_call}"),
                    &e,
                );
                let dump = chaos.dump_flight(&format!("chaos run failed: {fault:?}@{at_call}"));
                attach_artifact(&mut div, "flight dump", dump.as_deref());
                let trace = self.write_merged_next_to(&mut chaos, dump.as_deref());
                attach_artifact(&mut div, "merged trace", trace.as_deref());
                (div, ChaosOutcome::Degraded)
            }
        };
        chaos.terminate();
        result
    }
}

/// How the chaos leg of [`Driver::check_chaos_c`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The scheduled fault never fired (or a leg failed before it could).
    Clean,
    /// The fault fired and the session recovered to the reference
    /// behaviour.
    Recovered,
    /// The fault fired and the session degraded explicitly.
    Degraded,
}

/// Points every divergence at a post-mortem artifact written for it
/// (the flight dump, the merged trace), so a failing chaos report names
/// the files to pull.
fn attach_artifact(div: &mut [Divergence], label: &str, path: Option<&std::path::Path>) {
    let Some(path) = path else { return };
    for d in div {
        d.detail.push_str(&format!("\n{label}: {}", path.display()));
    }
}

/// What one chaos leg observed.
struct ScenarioRun {
    tags: Vec<String>,
    output: String,
    exit: Option<i64>,
}

/// Supervision tuned for chaos sweeps: deadlines short enough that a
/// hang costs milliseconds, budgets small enough that a storm degrades
/// fast — the sweep stays bounded.
fn chaos_supervision() -> Supervision {
    Supervision {
        deadline: Some(Duration::from_millis(150)),
        ping_deadline: Duration::from_millis(50),
        max_retries: 1,
        max_respawns: 3,
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_millis(2),
        jitter_seed: 0x0c4a_05ca_0501,
    }
}

fn run_chaos_scenario(t: &mut MiTracker, bp_line: u32) -> Result<ScenarioRun, TrackerError> {
    let tags = drive_with_control_points(t, bp_line)?;
    let output = t.get_output()?;
    let exit = t.get_exit_code();
    Ok(ScenarioRun { tags, output, exit })
}

/// Drives a tracker through a fixed reason-directed scenario and returns
/// the observed pause-reason tag sequence: set a line breakpoint, watch
/// `v0`, track `f0`; `finish` out of the first tracked call, `next` at
/// the first breakpoint, `resume` otherwise.
pub fn drive_with_control_points(
    t: &mut dyn Tracker,
    bp_line: u32,
) -> Result<Vec<String>, TrackerError> {
    let mut tags = Vec::new();
    let r = t.start()?;
    tags.push(r.tag().to_string());
    t.break_before_line(bp_line)?;
    t.watch("v0")?;
    t.track_function("f0", None)?;
    let mut finished = false;
    let mut stepped = false;
    let mut r = t.resume()?;
    for _ in 0..2000 {
        tags.push(r.tag().to_string());
        match &r {
            PauseReason::Exited(_) => return Ok(tags),
            PauseReason::FunctionCall { .. } if !finished => {
                finished = true;
                r = t.finish()?;
            }
            PauseReason::Breakpoint { .. } if !stepped => {
                stepped = true;
                r = t.next()?;
            }
            _ => r = t.resume()?,
        }
    }
    Err(TrackerError::Engine(
        "control-point scenario exceeded 2000 pauses".into(),
    ))
}
