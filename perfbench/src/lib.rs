//! Workload generators and correctness checks for the `perfbench` runner.
//!
//! Everything a run feeds the system is derived here from the `--seed`:
//! the programs (MiniC and MiniPy renderings of the same inferior), the
//! scripts a tool drives them with, and the classroom arrival schedule.
//! The system under test only ever sees the generated programs and
//! commands. The shared measurement plumbing lives in [`harness`].

pub mod harness;

use conformance::rng::Rng;

/// The benchmark's workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = ["inproc", "process", "hosted", "py", "time_travel"];

/// `BENCHMARK.json`, compiled in: the one declaration of every metric's
/// name, unit, direction and bound.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Depth to which the recursion-tree tool tracks `fib`. Fixed, so that
/// every recursion-tree program pauses the same number of times and the
/// share of short and long pauses is the same on every seed.
pub const TRACK_DEPTH: u32 = 4;

/// Watch pauses per sparse-watch program (the loop's `mark` changes).
pub const WATCH_MARKS: u32 = 40;

/// One inferior, rendered in both languages, and the script a tool runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Logical file stem; the runner appends `.c` or `.py`.
    pub name: String,
    /// MiniC rendering.
    pub c: String,
    /// MiniPy rendering, printing the same output.
    pub py: String,
    /// How the tool drives it.
    pub script: Script,
}

/// How a tool drives a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// The Fig. 1/6 redraw loop: `start`, then `step` + `get_state` at
    /// every line until exit.
    Stepper,
    /// The Fig. 8 recursion-tree tool: `track_function("fib", depth)`,
    /// then `resume` + `get_state` at every call and return pause.
    RecursionTree {
        /// Maximum tracked call depth.
        depth: u32,
    },
    /// A loop storing to `acc` every iteration and to `mark` every
    /// `k`-th, under `watch("mark")`: `resume` + `get_state` per change.
    SparseWatch {
        /// Loop iterations.
        iters: u32,
        /// Iterations between two stores to `mark`.
        k: u32,
    },
}

/// Frames a stepper times per program before it lets the program run to
/// its exit. Fresh engines answer their first frames slower than later
/// ones, so timing the same number of frames of every program keeps the
/// share of early frames, and the frame median, the same whatever the
/// seeded programs' lengths; nine in ten generated programs are longer.
pub const FRAMES_PER_PROGRAM: u64 = 24;

impl Script {
    /// Pauses the script times: every pause of a control script, the
    /// first [`FRAMES_PER_PROGRAM`] of a stepper.
    pub fn timed_pauses(self) -> u64 {
        match self {
            Script::Stepper => FRAMES_PER_PROGRAM,
            _ => u64::MAX,
        }
    }

    /// Pauses the script must see before the exit, implied by its
    /// parameters; `None` for line stepping, whose count depends on the
    /// program text.
    pub fn expected_pauses(self) -> Option<u64> {
        match self {
            Script::Stepper => None,
            // Every call at depth <= `depth` pauses on entry and on return;
            // fib(n) with n > depth recurses fully down to that depth.
            Script::RecursionTree { depth } => Some(2 * ((1u64 << depth) - 1)),
            // The initializing store to `mark` is its first change.
            Script::SparseWatch { iters, k } => Some(u64::from(iters.div_ceil(k)) + 1),
        }
    }
}

/// MiniC recursive Fibonacci.
pub fn fib_c(n: u32) -> String {
    format!(
        "int fib(int n) {{\nif (n < 2) {{ return n; }}\nreturn fib(n - 1) + fib(n - 2);\n}}\n\
         int main() {{\nint r = fib({n});\nprintf(\"%d\\n\", r);\nreturn r % 256;\n}}\n"
    )
}

/// MiniPy rendering of [`fib_c`].
pub fn fib_py(n: u32) -> String {
    format!(
        "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\n\
         r = fib({n})\nprint(r)\n"
    )
}

/// MiniC sparse-watch loop: `acc` changes every iteration, `mark` every
/// `k`-th.
pub fn sparse_watch_c(iters: u32, k: u32) -> String {
    format!(
        "int main() {{\nint acc = 0;\nint mark = 1;\nint i = 0;\nwhile (i < {iters}) {{\n\
         acc = acc + i;\nif (i % {k} == 0) {{\nmark = mark + 1;\n}}\ni = i + 1;\n}}\n\
         printf(\"%d\\n\", mark);\nreturn acc % 256;\n}}\n"
    )
}

/// MiniPy rendering of [`sparse_watch_c`].
pub fn sparse_watch_py(iters: u32, k: u32) -> String {
    format!(
        "acc = 0\nmark = 1\ni = 0\nwhile i < {iters}:\n    acc = acc + i\n    if i % {k} == 0:\n\
         \x20       mark = mark + 1\n    i = i + 1\nprint(mark)\n"
    )
}

/// Line of [`insertion_sort_c`] where the sorting loop starts: students
/// run to it before the class begins stepping.
pub const SORT_LINE: u32 = 12;

/// MiniC insertion sort over a `len`-element heap array filled from
/// `seed` (the Fig. 1 loop-invariant tool's inferior).
pub fn insertion_sort_c(len: u32, seed: u32) -> String {
    format!(
        "int main() {{\nint* a = malloc({len} * sizeof(int));\nint s = {seed};\nint i = 0;\n\
         while (i < {len}) {{\ns = (s * 1103 + 12345) % 65536;\na[i] = s % 1000;\ni = i + 1;\n}}\n\
         int key = 0;\nint j = 0;\ni = 1;\nwhile (i < {len}) {{\nkey = a[i];\nj = i - 1;\n\
         while (j >= 0) {{\nif (a[j] <= key) {{\nbreak;\n}}\na[j + 1] = a[j];\nj = j - 1;\n}}\n\
         a[j + 1] = key;\ni = i + 1;\n}}\nprintf(\"%d\\n\", a[0]);\nfree(a);\nreturn 0;\n}}\n"
    )
}

/// MiniPy rendering of [`insertion_sort_c`].
pub fn insertion_sort_py(len: u32, seed: u32) -> String {
    format!(
        "a = []\ns = {seed}\ni = 0\nwhile i < {len}:\n    s = (s * 1103 + 12345) % 65536\n\
         \x20   a.append(s % 1000)\n    i = i + 1\nkey = 0\nj = 0\ni = 1\nwhile i < {len}:\n\
         \x20   key = a[i]\n    j = i - 1\n    while j >= 0:\n        if a[j] <= key:\n\
         \x20           break\n        a[j + 1] = a[j]\n        j = j - 1\n    a[j + 1] = key\n\
         \x20   i = i + 1\nprint(a[0])\n"
    )
}

/// The conformance generator's program for one seed, in both languages.
pub fn stepper_program(seed: u64) -> Program {
    let g = conformance::gen::gen_program(seed);
    Program {
        name: format!("gen{seed:016x}"),
        c: conformance::gen::render_c(&g),
        py: conformance::gen::render_py(&g),
        script: Script::Stepper,
    }
}

/// A recursion-tree program; `n` sets how long each tracked call runs.
pub fn recursion_tree_program(n: u32) -> Program {
    Program {
        name: format!("fib{n}"),
        c: fib_c(n),
        py: fib_py(n),
        script: Script::RecursionTree { depth: TRACK_DEPTH },
    }
}

/// A sparse-watch program pausing [`WATCH_MARKS`] times, `k` iterations
/// apart.
pub fn sparse_watch_program(k: u32) -> Program {
    let iters = k * WATCH_MARKS;
    Program {
        name: format!("watch{k}"),
        c: sparse_watch_c(iters, k),
        py: sparse_watch_py(iters, k),
        script: Script::SparseWatch { iters, k },
    }
}

/// The deployment workloads' inputs: line-stepped programs from the
/// conformance generator, and control programs alternating recursion-tree
/// and sparse-watch runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSet {
    /// Programs driven with [`Script::Stepper`].
    pub stepped: Vec<Program>,
    /// Programs driven with a control-point script.
    pub controlled: Vec<Program>,
}

/// Smallest `fib` argument of a recursion-tree program.
const FIB_N_MIN: u32 = 16;
/// Distinct `fib` arguments, `FIB_N_MIN..FIB_N_MIN + FIB_NS`.
const FIB_NS: usize = 4;
/// Smallest sparse-watch stride.
const K_MIN: u32 = 250;
/// Sparse-watch stride strata, each `K_STEP` wide.
const K_STRATA: usize = 10;
const K_STEP: u32 = 30;

/// The seeded program set for the deployment workloads: `len` programs
/// of each kind.
///
/// The control programs are stratified: their parameters cycle through
/// fixed strata and the seed picks the rotation and the value inside each
/// stratum. Every seed thus has the same mix of short and long pauses,
/// so pause percentiles compare across seeds.
pub fn program_set(seed: u64, len: usize) -> ProgramSet {
    let mut rng = Rng::new(seed ^ 0x5e70_f9a5);
    let stepped = (0..len).map(|_| stepper_program(rng.next_u64())).collect();
    let rotation = rng.below(FIB_NS as u64) as usize;
    let controlled = (0..len)
        .map(|i| {
            let j = i / 2;
            if i % 2 == 0 {
                recursion_tree_program(FIB_N_MIN + ((j + rotation) % FIB_NS) as u32)
            } else {
                let stratum = (j % K_STRATA) as u32;
                sparse_watch_program(K_MIN + stratum * K_STEP + rng.below(u64::from(K_STEP)) as u32)
            }
        })
        .collect();
    ProgramSet {
        stepped,
        controlled,
    }
}

/// Student sessions in the classroom.
pub const STUDENTS: usize = 56;
/// Heavy (long-resume) sessions in the classroom.
pub const HEAVIES: usize = 8;
/// Elements in each student's array.
pub const SORT_LEN: u32 = 128;
/// Iterations between two `mark` changes in a heavy session: one resume
/// runs about 105k VM events (480k bytecode operations), two default
/// 50k-event fuel slices and a bit.
pub const HEAVY_K: u32 = 15_000;
/// Clicks per second per student (Poisson).
pub const STUDENT_RATE: f64 = 6.0;
/// Resumes per second per heavy session, at a fixed period: a tool in
/// "play" mode advancing to the next watch hit. With [`STUDENT_RATE`]
/// this keeps the one CPU the host shares with the generator about a
/// quarter busy on the reference machine, so that the host stays below
/// saturation when a shared machine runs at half speed.
pub const HEAVY_RATE: f64 = 0.5;

/// What a classroom arrival asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// A student click: `Step`, then `GetState`.
    Click,
    /// A heavy session's `Resume`.
    Resume,
}

/// One scheduled command: due time from the schedule's start, session
/// index (students first, then heavies) and kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    /// Seconds after the schedule's start.
    pub at: f64,
    /// Session index.
    pub session: usize,
    /// Command kind.
    pub kind: Arrival,
}

/// A student's program: the insertion sort over a seeded array.
pub fn student_program(seed: u64, student: usize) -> Program {
    let mut rng = Rng::new(seed ^ (0xc1a55 + student as u64));
    let fill = rng.range(1, 65_536) as u32;
    Program {
        name: format!("sort{student}"),
        c: insertion_sort_c(SORT_LEN, fill),
        py: insertion_sort_py(SORT_LEN, fill),
        script: Script::Stepper,
    }
}

/// A heavy session's program: a sparse-watch loop long enough never to
/// exit during the run.
pub fn heavy_program() -> Program {
    let iters = 1_000_000_000;
    Program {
        name: "heavy".into(),
        c: sparse_watch_c(iters, HEAVY_K),
        py: sparse_watch_py(iters, HEAVY_K),
        script: Script::SparseWatch { iters, k: HEAVY_K },
    }
}

/// Every classroom arrival over `seconds`, sorted by due time: seeded
/// Poisson clicks per student, and heavy resumes at a fixed period whose
/// phases the seed jitters inside evenly spaced strata (random phases
/// would let a seed line several heavies up, and their overlap would set
/// every tail).
pub fn classroom_schedule(seed: u64, seconds: f64) -> Vec<Due> {
    let mut out = Vec::new();
    for session in 0..STUDENTS + HEAVIES {
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9) ^ (session as u64 + 1));
        let mut push = |at: f64, kind| out.push(Due { at, session, kind });
        if session < STUDENTS {
            let rate = STUDENT_RATE;
            let mut t = 0.0;
            loop {
                t += -unit_open(&mut rng).ln() / rate;
                if t >= seconds {
                    break;
                }
                push(t, Arrival::Click);
            }
        } else {
            let period = 1.0 / HEAVY_RATE;
            let stratum = (session - STUDENTS) as f64 + unit_open(&mut rng) / 2.0;
            let mut t = period * stratum / HEAVIES as f64;
            while t < seconds {
                push(t, Arrival::Resume);
                t += period;
            }
        }
    }
    out.sort_by(|a, b| a.at.total_cmp(&b.at));
    out
}

/// A uniform draw from (0, 1].
fn unit_open(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Keyframe cadence of the time-travel recording.
pub const KEYFRAME_EVERY: u32 = 32;
/// `fib` argument of the recorded program.
pub const RECORDED_FIB: u32 = 17;
/// Replay readers scrubbing the recording.
pub const READERS: usize = 4;

/// Seeded seek targets over a recording of `pauses` pauses.
pub fn seek_targets(seed: u64, pauses: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x7ee_7ab1e);
    (0..count).map(|_| rng.below(pauses.max(1))).collect()
}

/// 64-bit FNV-1a, folded over a sequence of byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (and a separator) into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds in the serialized form of `state`.
    pub fn add_state(&mut self, state: &state::ProgramState) {
        self.add(&serde_json::to_vec(state).expect("states serialize"));
    }
}

/// What one driven program showed the tool: the oracle and every
/// deployment must agree on it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observed {
    /// Alive pauses before the exit.
    pub pauses: u64,
    /// Digest of the serialized state at every pause.
    pub digest: Digest,
    /// Everything the program printed.
    pub output: String,
    /// Exit code (`None` for a crash).
    pub exit: Option<i64>,
}

/// Attempted and failed operations. A failure is an error, a typed
/// refusal, a timeout, or a correctness mismatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and, when it went wrong, one failure.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts a correctness mismatch against the operation that produced
    /// it; the first few are reported on stderr.
    pub fn mismatch(&mut self, what: &str) {
        if self.failed < 5 {
            eprintln!("perfbench: mismatch: {what}");
        }
        self.failed += 1;
    }

    /// Compares what a deployment showed with the oracle's view of the
    /// same program; every differing field is one failed operation.
    pub fn check(&mut self, program: &str, oracle: &Observed, got: &Observed) {
        if got.pauses != oracle.pauses {
            self.mismatch(&format!(
                "{program}: {} pauses, oracle {}",
                got.pauses, oracle.pauses
            ));
        }
        if got.digest != oracle.digest {
            self.mismatch(&format!("{program}: state digest differs from the oracle"));
        }
        if got.output != oracle.output {
            self.mismatch(&format!("{program}: output differs from the oracle"));
        }
        if got.exit != oracle.exit {
            self.mismatch(&format!(
                "{program}: exit {:?}, oracle {:?}",
                got.exit, oracle.exit
            ));
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_compile_in_both_languages() {
        let set = program_set(3, 8);
        let extra = [student_program(3, 0), heavy_program()];
        for p in set.stepped.iter().chain(&set.controlled).chain(&extra) {
            minic::compile("p.c", &p.c).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            minipy::parser::parse(&p.py).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn schedule_is_sorted_and_within_the_window() {
        let s = classroom_schedule(1, 2.0);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.iter().all(|d| (0.0..2.0).contains(&d.at)));
        assert!(s.iter().any(|d| d.kind == Arrival::Resume));
    }
}
