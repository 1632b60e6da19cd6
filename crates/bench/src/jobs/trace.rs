//! `bench trace`: seek scaling and compression of the omniscient trace
//! store.
//!
//! Builds two synthetic recordings with the same state shape — one with
//! 10k pauses, one with 100k — and times uniformly random `state_at`
//! seeks against each. Because a seek is binary-search arithmetic to the
//! enclosing keyframe plus at most `keyframe_every - 1` delta replays,
//! its cost must not grow with recording length: the gate fails if the
//! 100k-pause p99 exceeds 10x the 10k-pause p99 (a linear scan would be
//! ~10x the *median*, far past the p99 ratio this allows).
//!
//! Also gates the columnar format's size: the store on disk must be
//! less than half the cost of the naive encoding the paper's workflow
//! implies (one serialized `ProgramState` JSON snapshot per pause).
//!
//! Each store runs batches of seeks round-robin so machine-load drift
//! hits both equally; the reported p50/p95/p99, and the p99 ratio the
//! gate reads, are exact order statistics of every scored seek.
//!
//! `--check` fails when seek scaling or the compression floor is
//! violated.

use bench::{measure, timed, write_report, Flags, Rounds, Verdict};
use serde_json::json;
use state::{Frame, PauseReason, Prim, ProgramState, Scope, SourceLocation, Value, Variable};

const WARMUP: u32 = 2;
const REPEATS: u32 = 9;
const SEEKS_PER_BATCH: u32 = 1_000;
const SMALL_PAUSES: u64 = 10_000;
const BIG_PAUSES: u64 = 100_000;
const P99_RATIO_CEILING: f64 = 10.0;
const COMPRESSION_FLOOR: f64 = 2.0;

/// One pause of the synthetic workload: a `main` frame plus a shallow
/// call chain, a loop counter that changes every pause, an accumulator
/// that changes every third pause, and a global that changes rarely —
/// the mix the delta encoder sees from real MiniC runs.
fn mk_state(i: u64) -> ProgramState {
    let line = (i % 61 + 1) as u32;
    let mut main = Frame::new("main", 0, SourceLocation::new("bench.c", line));
    main.insert_variable(Variable::new(
        "i",
        Scope::Local,
        Value::primitive(Prim::Int(i as i64), "int"),
    ));
    main.insert_variable(Variable::new(
        "acc",
        Scope::Local,
        Value::primitive(Prim::Int((i / 3) as i64), "int"),
    ));
    let mut inner = main;
    for d in 1..=(i % 3) as u32 {
        let mut f = Frame::new(format!("f{d}"), d, SourceLocation::new("bench.c", line));
        f.insert_variable(Variable::new(
            "n",
            Scope::Local,
            Value::primitive(Prim::Int(i as i64 - i64::from(d)), "int"),
        ));
        f.set_parent(inner);
        inner = f;
    }
    let globals = vec![Variable::new(
        "epoch",
        Scope::Global,
        Value::primitive(Prim::Int((i / 1024) as i64), "int"),
    )];
    let reason = if i == 0 {
        PauseReason::Started
    } else {
        PauseReason::Step
    };
    ProgramState::new(inner, globals, reason)
}

/// Builds a store of `n` pauses and returns it with the byte cost of
/// the naive encoding (full JSON snapshot per pause) for the ratio.
fn build_store(n: u64) -> (trace::Store, u64) {
    let mut store = trace::Store::new(
        "bench.c",
        "int main() { /* synthetic */ }",
        trace::DEFAULT_KEYFRAME_EVERY,
    );
    let mut naive = 0u64;
    for i in 0..n {
        let st = mk_state(i);
        naive += serde_json::to_vec(&st).expect("state serializes").len() as u64;
        store.push(&st, if i % 7 == 0 { "tick;" } else { "" });
    }
    store.set_exit_code(Some(0));
    store.freeze();
    (store, naive)
}

/// Deterministic xorshift so both stores see the same seek mix.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

pub fn run(flags: &Flags) -> Verdict {
    eprintln!(
        "bench trace: uniform random state_at over {SMALL_PAUSES}- and \
         {BIG_PAUSES}-pause stores (keyframe every {})",
        trace::DEFAULT_KEYFRAME_EVERY
    );
    let (small, small_naive) = build_store(SMALL_PAUSES);
    let (big, big_naive) = build_store(BIG_PAUSES);
    let small_disk = small.to_bytes().len() as u64;
    let big_disk = big.to_bytes().len() as u64;

    // One sample is one seek; a round takes a batch of seeks per store.
    let stores = [&small, &big];
    let mut rng = Rng(0x5eed_7ace);
    let rounds = Rounds {
        warmup: WARMUP,
        scored: REPEATS,
        per_round: SEEKS_PER_BATCH,
    };
    let seeks = measure(2, rounds, |i| {
        let target = rng.next() % stores[i].len();
        let (elapsed, st) = timed(|| stores[i].state_at(target).expect("seek lands"));
        assert_eq!(st.frame.location().line(), (target % 61 + 1) as u32);
        (elapsed, ())
    });
    let [s_small, s_big] =
        [&seeks[0], &seeks[1]].map(|t| t.percentiles().map(|d| d.as_nanos() as u64));
    for (name, pauses, s, disk, naive) in [
        ("10k ", SMALL_PAUSES, &s_small, small_disk, small_naive),
        ("100k", BIG_PAUSES, &s_big, big_disk, big_naive),
    ] {
        println!(
            "{name} ({pauses:>6} pauses) seek p50 {:>7}ns p95 {:>7}ns p99 {:>7}ns | \
             {disk:>9}B on disk vs {naive:>10}B naive ({:.1}x)",
            s[0],
            s[1],
            s[2],
            naive as f64 / disk as f64,
        );
    }
    let ratio = if s_small[2] == 0 {
        1.0
    } else {
        s_big[2] as f64 / s_small[2] as f64
    };
    let compression = big_naive as f64 / big_disk as f64;
    println!(
        "p99 scaling 100k/10k = {ratio:.2}x (ceiling {P99_RATIO_CEILING}x) | \
         compression {compression:.1}x (floor {COMPRESSION_FLOOR}x)"
    );

    let per_store = |pauses: u64, s: &[u64; 3], disk: u64, naive: u64| {
        json!({
            "pauses": pauses,
            "seek_p50_ns": s[0],
            "seek_p95_ns": s[1],
            "seek_p99_ns": s[2],
            "disk_bytes": disk,
            "naive_bytes": naive,
        })
    };
    let doc = json!({
        "workload": "uniform random state_at seeks, synthetic MiniC-shaped states",
        "keyframe_every": trace::DEFAULT_KEYFRAME_EVERY,
        "repeats": REPEATS as u64,
        "seeks_per_batch": SEEKS_PER_BATCH as u64,
        "small": per_store(SMALL_PAUSES, &s_small, small_disk, small_naive),
        "big": per_store(BIG_PAUSES, &s_big, big_disk, big_naive),
        "p99_ratio": format!("{ratio:.2}"),
        "p99_ratio_ceiling": P99_RATIO_CEILING,
        "compression_ratio": format!("{compression:.2}"),
        "compression_floor": COMPRESSION_FLOOR,
    });
    write_report("trace", &doc);

    let mut verdict = Verdict::default();
    if flags.on("--check") {
        verdict.require(ratio <= P99_RATIO_CEILING, || {
            format!(
                "seek p99 grew {ratio:.2}x from 10k to 100k pauses \
                 (ceiling {P99_RATIO_CEILING}x) — seek is not sub-linear"
            )
        });
        verdict.require(compression >= COMPRESSION_FLOOR, || {
            format!(
                "compression {compression:.2}x is below the \
                 {COMPRESSION_FLOOR}x floor against naive full snapshots"
            )
        });
        verdict.on_pass(format!(
            "trace gate passed (p99 ratio {ratio:.2}x ≤ {P99_RATIO_CEILING}x, \
             compression {compression:.1}x ≥ {COMPRESSION_FLOOR}x)"
        ));
    }
    verdict
}
