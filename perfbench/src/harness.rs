//! The benchmark's shared plumbing: argument parsing, exact quantiles
//! with sample counts, fixed-time runners with warm-up, peak-RSS reading,
//! the fresh process per workload, span recording for traced runs, and
//! the result line and JSON stamp every run ends with.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options of one workload run:
/// `--workload <name> --seed <n> --seconds <n> --trace <0|1> [--quick]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name, one of [`crate::WORKLOADS`].
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Scales every phase down for tests.
    pub quick: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: run_seconds(),
            trace: false,
            quick: false,
        }
    }
}

impl RunArgs {
    /// Parses the flags after the program name.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or unknown flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = RunArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                out.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !crate::WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, not {:?}",
                crate::WORKLOADS.join(", "),
                out.workload
            ));
        }
        if !(out.seconds > 0.0 && out.seconds <= 600.0) {
            return Err(format!(
                "--seconds must be in (0, 600], not {}",
                out.seconds
            ));
        }
        Ok(out)
    }

    /// Flags reproducing these options in a child process.
    pub fn to_flags(&self) -> Vec<String> {
        let mut v = vec![
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ];
        if self.quick {
            v.push("--quick".into());
        }
        v
    }

    /// `full` in a real run, `quick` under `--quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The longest a measured phase may take: twice its nominal length.
    pub fn limit(&self) -> Duration {
        Duration::from_secs_f64(2.0 * self.seconds)
    }
}

/// The declared metrics of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    /// End-to-end metrics: `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// Per-layer metrics: `(name, unit, better)`.
    pub per_layer: Vec<(String, String, String)>,
    /// Length of one run's measured phase.
    pub run_seconds: f64,
}

/// Parses the compiled-in `BENCHMARK.json`.
pub fn declared() -> Declared {
    let doc: Value = serde_json::from_str(crate::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |m: &Value, k: &str| m[k].as_str().expect("string field").to_string();
    let list = |k: &str| doc[k].as_array().expect("metric list").clone();
    Declared {
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m["bound"].as_f64().expect("bound"),
                )
            })
            .collect(),
        per_layer: list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect(),
        run_seconds: doc["run_seconds"].as_f64().expect("run_seconds"),
    }
}

fn run_seconds() -> f64 {
    declared().run_seconds
}

/// Samples in microseconds with exact quantiles.
///
/// `obs::Histogram` keeps power-of-two buckets and interpolates inside
/// them, so a median that moves within one bucket barely moves its
/// estimate; a benchmark has to see such moves, so samples are kept.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    us: Vec<f64>,
    sorted: bool,
    work: Work,
}

impl Samples {
    /// Samples of times spent on `work` (the default is [`Work::Encode`]).
    pub fn new(work: Work) -> Self {
        Samples {
            work,
            ..Samples::default()
        }
    }

    /// Adds one measured duration, calibrated by [`calibrated_us`].
    pub fn push(&mut self, d: Duration) {
        self.push_us(calibrated_us(d, self.work));
    }

    /// Adds one value as given: a count, a size, or a time already
    /// calibrated (differences may be negative).
    pub fn push_us(&mut self, us: f64) {
        self.us.push(us);
        self.sorted = false;
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// The `q`-quantile, interpolating between the two nearest order
    /// statistics; NaN without samples (which makes the run incorrect).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.us.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.us.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let pos = q.clamp(0.0, 1.0) * (self.us.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        self.us[lo] + (self.us[hi] - self.us[lo]) * (pos - lo as f64)
    }

    /// Sum of all samples, in microseconds.
    pub fn total_us(&self) -> f64 {
        self.us.iter().sum()
    }
}

/// Median of a small list of plain values (e.g. repeated set-up times).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `values`, by the method
/// of Python's `statistics.quantiles(values, n=4)` ("exclusive"), the one
/// the benchmark's acceptance rule uses. A single value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    let med = median(&mut v);
    let n = v.len();
    if n < 2 {
        return (med, med, med);
    }
    let at = |i: usize| {
        // Position i * (n + 1) / 4 in 1-based order statistics; like
        // Python, extrapolates from the end pair for very small n.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), med, at(3))
}

/// Untimed set-ups before the timed ones: the first few in a process
/// pay for page faults and cold caches that later ones do not.
pub const SETUP_WARMUP: usize = 3;

/// Runs the timed set-up `f` [`SETUP_WARMUP`] times untimed, then `reps`
/// times, each after a [`calibrate`], and returns the median calibrated
/// time in seconds: set-up time is reported as the median of several
/// set-ups in one run.
///
/// # Errors
///
/// The first set-up failure.
pub fn median_secs(
    reps: usize,
    mut f: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    for _ in 0..SETUP_WARMUP {
        f()?;
    }
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        calibrate();
        v.push(calibrated_us(f()?, Work::Encode) / 1e6);
    }
    Ok(median(&mut v))
}

/// Fixed work: calls `unit(i, timed)` for `i` in `0..warmup + units`,
/// the first `warmup` calls untimed, and [`calibrate`]s before every
/// timed call. Timed calls stop early once `limit` has passed: a shared
/// machine ran at half speed for minutes at a time, and a run must still
/// end in bounded time.
pub fn run_units(warmup: usize, units: usize, limit: Duration, mut unit: impl FnMut(usize, bool)) {
    for i in 0..warmup {
        unit(i, false);
    }
    let begin = Instant::now();
    for i in warmup..warmup + units {
        if begin.elapsed() > limit {
            eprintln!(
                "perfbench: stopped after {} of {units} units at the time limit",
                i - warmup
            );
            return;
        }
        calibrate();
        unit(i, true);
    }
}

/// Work units a run of `seconds` does at `per_second` units a second:
/// constant for given options, so both commits of a comparison do the
/// same work.
pub fn units(seconds: f64, per_second: f64) -> usize {
    (seconds * per_second).ceil().max(1.0) as usize
}

/// Median time of one calibration kernel on the reference machine (a
/// 2-vCPU 2.1 GHz Xeon VM), in microseconds.
pub const REFERENCE_US: f64 = 100.0;

/// Records formatted, hashed and sorted by one calibration kernel.
const KERNEL_RECORDS: u32 = 1024;

/// Kernel times the calibration factor is the median of: the last few
/// [`calibrate`] calls, a fraction of a second of work.
const SPEED_WINDOW: usize = 16;

/// What a measured time is spent on, which sets how it follows the
/// calibration kernel when the machine's speed changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Work {
    /// Building, encoding and moving states, compiling, spawning:
    /// frames, seeks, recorded steps, set-ups.
    #[default]
    Encode,
    /// Running a VM for thousands of events until a control point
    /// fires: resumes.
    Resume,
}

impl Work {
    /// How many times as much this work slows as the kernel does, in
    /// log terms: the exponent of the calibration factor. Fitted over
    /// 130 runs in four ten-seed sets taken while the machine's speed
    /// varied up to twofold, and checked on a fifth; with exponent 1
    /// calibrated frames still fell, and resumes rose, as the machine
    /// slowed.
    fn sensitivity(self) -> f64 {
        match self {
            Work::Encode => 0.85,
            Work::Resume => 1.2,
        }
    }
}

/// Machine-speed calibration.
///
/// The benchmark runs on shared machines whose speed drifts by 10-50%
/// within seconds as neighbours load them, and every timing drifts with
/// it. A run therefore interleaves a fixed kernel of its own with the
/// measured work ([`calibrate`]) and scales every time it measures by
/// [`REFERENCE_US`] over the median of the latest kernels, raised to the
/// [`Work`]'s sensitivity ([`calibrated_us`]): times read as on a machine
/// where the kernel takes [`REFERENCE_US`]. Scaling by the latest kernels
/// rather than the run's median follows a slow spell that covers only one
/// phase of a run. The kernel formats, hashes and sorts records, the
/// integer, branch and memory work of state building and encoding; it
/// uses only `std` and allocates nothing after construction, so no change
/// to the system under test can move it. (A second, bytecode-interpreting
/// kernel for resumes tracked the machine worse than this one.)
#[derive(Debug, Default)]
struct Speed {
    buf: Vec<u8>,
    keys: Vec<(u64, u32)>,
    /// The latest kernel times, oldest first.
    recent: std::collections::VecDeque<f64>,
    /// Every kernel time.
    all: Samples,
}

/// The process's calibration: a run is one process.
static SPEED: std::sync::Mutex<Option<Speed>> = std::sync::Mutex::new(None);

fn with_speed<T>(f: impl FnOnce(&mut Speed) -> T) -> T {
    let mut guard = SPEED.lock().expect("no thread panics while calibrating");
    f(guard.get_or_insert_with(Speed::default))
}

/// Times two calibration kernels.
pub fn calibrate() {
    with_speed(Speed::sample);
}

/// `d`, spent on `work`, in microseconds, scaled by the current
/// calibration factor ([`REFERENCE_US`] over the median of the latest
/// kernels) raised to the work's sensitivity; calibrates first if nothing
/// has been.
pub fn calibrated_us(d: Duration, work: Work) -> f64 {
    let factor = with_speed(|s| {
        if s.recent.is_empty() {
            s.sample();
        }
        let mut recent: Vec<f64> = s.recent.iter().copied().collect();
        REFERENCE_US / median(&mut recent)
    });
    d.as_secs_f64() * 1e6 * factor.powf(work.sensitivity())
}

/// Median of every kernel timed in this process, in microseconds, and
/// the number timed.
pub fn kernel_us() -> (f64, usize) {
    with_speed(|s| (s.all.quantile_us(0.5), s.all.len()))
}

impl Speed {
    fn kernel(&mut self) -> u64 {
        use std::io::Write as _;
        self.buf.clear();
        self.keys.clear();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for i in 0..KERNEL_RECORDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = self.buf.len();
            write!(self.buf, "{{\"v{i}\":{}}}", x % 1_000_000).expect("writes to a Vec");
            let hash = self.buf[start..]
                .iter()
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
                });
            self.keys.push((hash, i));
        }
        self.keys.sort_unstable();
        self.keys
            .iter()
            .fold(0, |a, &(k, i)| a.rotate_left(5) ^ k ^ u64::from(i))
    }

    fn sample(&mut self) {
        if self.buf.capacity() == 0 {
            self.buf.reserve(32 * KERNEL_RECORDS as usize);
            self.keys.reserve(KERNEL_RECORDS as usize);
        }
        for _ in 0..2 {
            let begin = Instant::now();
            std::hint::black_box(self.kernel());
            let us = begin.elapsed().as_secs_f64() * 1e6;
            if self.recent.len() == SPEED_WINDOW {
                self.recent.pop_front();
            }
            self.recent.push_back(us);
            self.all.push_us(us);
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` and `M_MMAP_THRESHOLD` parameters.
const M_ARENA_MAX: i32 = -8;
const M_MMAP_THRESHOLD: i32 = -3;

/// glibc's default mmap threshold, in bytes.
const MMAP_THRESHOLD: i32 = 128 * 1024;

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to the lowest-numbered CPU it may run on, to one malloc
/// arena, and to a fixed mmap threshold. Call it before starting any
/// thread.
///
/// On a small VM a hand-off between two threads on different virtual
/// CPUs waits for the hypervisor to wake the idle one, which took from
/// tens to hundreds of microseconds depending on the neighbours' load and
/// made closed-loop latencies vary twofold between runs. On one CPU a
/// hand-off is a plain context switch. Extra arenas only save lock
/// contention between threads that run at the same time, which one CPU
/// rules out; with one per thread, which arena freed what varied between
/// runs and so did a host's peak RSS, by 15%. glibc raises its mmap
/// threshold the first time a large mapped block is freed, after which
/// blocks of that size come from the heap instead of fresh pages; whether
/// that had happened when four replay readers were opened (each encodes
/// its ~300 KB store) varied between runs and made the opens take 2.2 ms
/// or 3.2 ms. Fixing the threshold at its default removes that mode.
///
/// # Errors
///
/// When the affinity or an allocator parameter cannot be set.
pub fn pin_process() -> Result<(), String> {
    // SAFETY: mallopt only sets allocator parameters; no other thread
    // exists yet to allocate concurrently.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        return Err("mallopt(M_ARENA_MAX) refused".into());
    }
    // SAFETY: as above.
    if unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) } != 1 {
        return Err("mallopt(M_MMAP_THRESHOLD) refused".into());
    }
    // Engine children inherit both through their environment.
    std::env::set_var("MALLOC_ARENA_MAX", "1");
    std::env::set_var("MALLOC_MMAP_THRESHOLD_", MMAP_THRESHOLD.to_string());
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes (1024 CPUs, the
    // size of glibc's `cpu_set_t`) that outlives the call.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..64 * mask.len())
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes that outlives the
    // call.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Waits until process `pid` has ended (gone, or a zombie awaiting its
/// reaper), for at most `limit`.
pub fn wait_gone(pid: u32, limit: Duration) -> bool {
    let begin = Instant::now();
    loop {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        // The state letter follows the parenthesised command name.
        let state = stat
            .rsplit(')')
            .next()
            .and_then(|s| s.trim().chars().next());
        if matches!(state, None | Some('Z' | 'X')) {
            return true;
        }
        if begin.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Where runs leave their files: `perfbench/` next to the build's
/// profile directory (`target/perfbench/`, or `$CARGO_TARGET_DIR/...`).
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    // <target>/<profile>/perfbench, or <target>/<profile>/deps/<test>.
    let mut dir = exe.parent().expect("executable has a directory");
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().expect("deps has a parent");
    }
    let target = dir.parent().unwrap_or(dir);
    target.join("perfbench")
}

/// Points every scratch file the system writes (shipped sources, flight
/// dumps) into `dir`, so a run writes only inside the build directory.
pub fn confine_scratch(dir: &Path) {
    let tmp = dir.join("tmp");
    let dumps = dir.join("dumps");
    let _ = std::fs::create_dir_all(&tmp);
    let _ = std::fs::create_dir_all(&dumps);
    std::env::set_var("TMPDIR", &tmp);
    std::env::set_var("EASYTRACKER_DUMP_DIR", &dumps);
}

/// The engine server binary built beside this one.
pub fn server_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let mut dir = exe.parent().expect("executable has a directory");
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().expect("deps has a parent");
    }
    dir.join(format!("mi_server{}", std::env::consts::EXE_SUFFIX))
}

/// Facts that make a result reproducible: git revision, build profile,
/// processor count, and the run's options.
pub fn stamp(seed: u64, seconds: f64, trace: bool, quick: bool) -> Value {
    // Only a repository at the working directory counts: a checkout
    // exported without its history reads "unknown", not an enclosing
    // repository's revision.
    let cwd = std::env::current_dir().unwrap_or_default();
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    json!({
        "git_rev": rev,
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: crate::Tally,
}

impl Report {
    /// Records a metric computed from `n` samples.
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            n,
        });
    }

    /// Records the median of `samples` as `<stem>_p50_us`, an end-to-end
    /// latency.
    pub fn latency(&mut self, stem: &str, samples: &mut Samples) {
        let n = samples.len();
        self.put(&format!("{stem}_p50_us"), samples.quantile_us(0.5), n);
    }

    /// Records the 99th percentile of `samples` as `<stem>_p99_us`, a
    /// per-layer metric. Every percentile above the 75th moved between
    /// runs of one commit by 10-30% on a shared 2-vCPU machine, more
    /// than any bound a regression check could use, so tails are not
    /// end-to-end metrics.
    pub fn tail(&mut self, stem: &str, samples: &mut Samples) {
        let n = samples.len();
        self.put(&format!("{stem}_p99_us"), samples.quantile_us(0.99), n);
    }

    /// Prints one `name value unit (n=samples)` line per metric, then the
    /// result object as the last line of stdout. Metrics are checked
    /// against the declaration: a missing, extra or non-finite metric
    /// makes the run incorrect. Returns the result object and the
    /// calibration facts.
    pub fn emit(&mut self, trace: bool) -> (Value, Value) {
        let decl = declared();
        let wanted: Vec<(String, String)> = if trace {
            decl.per_layer
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect()
        } else {
            decl.end_to_end
                .iter()
                .map(|(n, u, _, _)| (n.clone(), u.clone()))
                .collect()
        };
        let (kernel_us, kernels) = kernel_us();
        println!(
            "# calibration kernel median {kernel_us} us (n={kernels}); times scaled to {REFERENCE_US} us"
        );
        let mut metrics = serde_json::Map::new();
        let mut complete = true;
        for (name, unit) in &wanted {
            match self.metrics.iter().find(|m| &m.name == name) {
                Some(m) if m.value.is_finite() => {
                    println!("{name} {} {unit} (n={})", m.value, m.n);
                    metrics.insert(name.clone(), json!({"value": m.value, "unit": unit}));
                }
                _ => {
                    eprintln!("perfbench: metric {name} was not measured");
                    complete = false;
                }
            }
        }
        for m in &self.metrics {
            if !wanted.iter().any(|(n, _)| n == &m.name) {
                eprintln!("perfbench: metric {} is not declared", m.name);
                complete = false;
            }
        }
        let result = json!({
            "correct": complete && self.tally.failed == 0,
            "attempted": self.tally.attempted.max(1),
            "failed": self.tally.failed,
            "metrics": Value::Object(metrics),
        });
        println!("{result}");
        let calibration = json!({
            "kernel_us": kernel_us,
            "kernels": kernels,
            "reference_us": REFERENCE_US,
        });
        (result, calibration)
    }
}

/// Span recording for the traced run: a bench-side registry whose spans
/// land in an in-memory export ring, written out as a Chrome trace when
/// the run ends. Inert (no registry, no cost) in untraced runs.
#[derive(Clone, Default)]
pub struct Tracing {
    inner: Option<(obs::Registry, Arc<obs::ExportSink>)>,
}

/// Spans kept per traced run; later spans overwrite the oldest.
const TRACE_EVENTS: usize = 1 << 18;

impl Tracing {
    /// Records spans when `on`.
    pub fn new(on: bool) -> Self {
        if !on {
            return Tracing::default();
        }
        let registry = obs::Registry::new();
        let export = Arc::new(obs::ExportSink::new(TRACE_EVENTS));
        registry.add_sink(export.clone());
        Tracing {
            inner: Some((registry, export)),
        }
    }

    /// Opens a span named `name` when tracing.
    pub fn span(&self, name: &str) -> Option<obs::Span> {
        self.inner.as_ref().map(|(reg, _)| reg.span(name))
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.span(name);
        let begin = Instant::now();
        let out = f();
        let took = begin.elapsed();
        drop(span);
        (out, took)
    }

    /// Writes the recorded spans as a Chrome trace; no-op when not
    /// tracing.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let Some((_, export)) = &self.inner else {
            return Ok(());
        };
        let (events, _, _) = export.since(0);
        let list: Vec<Value> = events.iter().map(obs::TraceEvent::to_json).collect();
        let doc = json!({"traceEvents": list, "displayTimeUnit": "ms"});
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_string())
    }
}

/// Runs one workload in a fresh child process (so peak RSS is the
/// workload's own) and returns its result object, with the child's
/// metric lines echoed to stdout.
///
/// # Errors
///
/// When the child cannot start, fails, or prints no result line.
pub fn run_fresh(args: &RunArgs) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(args.to_flags())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {} run: {e}", args.workload))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{} {line}", args.workload);
    }
    if !out.status.success() {
        return Err(format!("{} run failed ({})", args.workload, out.status));
    }
    serde_json::from_str(last).map_err(|e| format!("{} printed no result: {e}", args.workload))
}
