//! `bench opt`: speedup of the observation-preserving bytecode
//! optimizer. The canonical tracked-fib workload runs to completion on a
//! raw VM with the tracker detached (steady-state dispatch cost, no MI
//! roundtrips), compiled at -O0 and at -O1. The minimum of the scored
//! runs scores the gate; optimization runs once, outside the timed
//! region, so the gate measures execution, not compile time.
//!
//! Also sweeps the conformance seed mix through the optimizer and
//! reports the static op-count reduction plus a lockstep sanity check
//! (same output, same exit) per seed.
//!
//! Each level also reports `ns_per_op`, its fastest run's time per
//! executed op: the VM's dispatch cost, apart from what -O1 removes.
//!
//! `--check` fails when the -O1 steady-state speedup on tracked-fib
//! falls below 10%, or any seed-mix program changes behaviour under
//! optimization.

use bench::{measure, timed, write_report, Flags, Rounds, Verdict};
use serde_json::json;

const ROUNDS: Rounds = Rounds::new(2, 9);
const FIB_N: u32 = 24;
const WORKLOAD: &str = "c_fib(24), raw VM run-to-completion (tracker detached)";
const SPEEDUP_FLOOR_PCT: f64 = 10.0;
const SEED_MIX: std::ops::Range<u64> = 1..9;

/// The conformance seed mix through the optimizer: static reduction
/// numbers plus a behaviour check (output + exit identical).
fn seed_mix(diverged: &mut Vec<String>) -> Vec<serde_json::Value> {
    let mut rows = Vec::new();
    for seed in SEED_MIX {
        let program = conformance::gen::gen_program(seed);
        let src = conformance::gen::render_c(&program);
        let compiled = minic::compile("gen.c", &src).expect("seed program compiles");
        let (optimized, report) =
            analysis::opt::optimize(&compiled, 1).expect("optimizer accepts seed program");

        let mut plain = minic::vm::Vm::new(&compiled);
        let plain_exit = plain.run_to_completion().expect("plain run");
        let mut opt = minic::vm::Vm::new(&optimized);
        let opt_exit = opt.run_to_completion().expect("optimized run");
        if plain_exit != opt_exit || plain.output() != opt.output() {
            diverged.push(format!(
                "seed {seed}: exit {plain_exit} vs {opt_exit}, output {:?} vs {:?}",
                plain.output(),
                opt.output()
            ));
        }
        rows.push(json!({
            "seed": seed,
            "ops_before": report.ops_before,
            "ops_after": report.ops_after,
            "executed_before": plain.ops_executed(),
            "executed_after": opt.ops_executed(),
        }));
    }
    rows
}

pub fn run(flags: &Flags) -> Verdict {
    eprintln!("bench opt: {WORKLOAD}");
    let src = bench::c_fib(FIB_N);
    let unopt = minic::compile("bench.c", &src).expect("workload compiles");
    let (opt, report) = analysis::opt::optimize(&unopt, 1).expect("optimizer accepts workload");

    // Each sample produces the run's exit code and executed-op count.
    let levels = measure(2, ROUNDS, |level| {
        let mut vm = minic::vm::Vm::new(if level == 0 { &unopt } else { &opt });
        let (elapsed, exit) = timed(|| vm.run_to_completion().expect("workload completes"));
        (elapsed, (exit, vm.ops_executed()))
    });
    let (m0, m1) = (&levels[0], &levels[1]);
    assert_eq!(
        m0.last.0, m1.last.0,
        "optimized workload changed its answer"
    );

    let speedup_pct = if m0.best.is_zero() {
        0.0
    } else {
        (1.0 - m1.best.as_secs_f64() / m0.best.as_secs_f64()) * 100.0
    };
    // The op loop's own cost: the fastest run's time per executed op.
    let ns_per_op =
        |m: &bench::Timed<(i64, u64)>| m.best.as_nanos() as f64 / m.last.1.max(1) as f64;
    for (name, m) in [("-O0", m0), ("-O1", m1)] {
        println!(
            "{name} {} | {:>12} ops executed | {:.2} ns/op",
            m.summary_line(),
            m.last.1,
            ns_per_op(m)
        );
    }
    println!(
        "steady-state speedup {speedup_pct:.2}% | static ops {} -> {} | \
         folded {} branches {} unreachable {} copies {} fused {}",
        report.ops_before,
        report.ops_after,
        report.folded,
        report.branches,
        report.unreachable,
        report.copies,
        report.fused,
    );

    let mut diverged = Vec::new();
    let mix = seed_mix(&mut diverged);
    for d in &diverged {
        eprintln!("bench opt: seed-mix divergence: {d}");
    }

    let per_level = |m: &bench::Timed<(i64, u64)>| {
        let mut summary = m.summary();
        let fields = summary.as_object_mut().expect("summary is an object");
        fields.insert("ops_executed".into(), json!(m.last.1));
        fields.insert(
            "ns_per_op".into(),
            json!((ns_per_op(m) * 100.0).round() / 100.0),
        );
        summary
    };
    write_report(
        "opt",
        &json!({
            "workload": WORKLOAD,
            "repeats": ROUNDS.scored as u64,
            "unoptimized": per_level(m0),
            "optimized": per_level(m1),
            "speedup_pct": format!("{speedup_pct:.2}"),
            "static_ops_before": report.ops_before,
            "static_ops_after": report.ops_after,
            "folded": report.folded,
            "branches_simplified": report.branches,
            "unreachable_removed": report.unreachable,
            "copies_propagated": report.copies,
            "fused": report.fused,
            "seed_mix": mix,
            "seed_mix_divergences": diverged.len(),
        }),
    );

    let mut verdict = Verdict::default();
    if flags.on("--check") {
        verdict.require(speedup_pct >= SPEEDUP_FLOOR_PCT, || {
            format!("-O1 speedup {speedup_pct:.2}% is below the {SPEEDUP_FLOOR_PCT}% floor")
        });
        verdict.require(diverged.is_empty(), || {
            format!(
                "{} seed-mix program(s) changed behaviour under -O1",
                diverged.len()
            )
        });
        verdict.on_pass(format!(
            "optimizer gate passed (speedup {speedup_pct:.2}% ≥ {SPEEDUP_FLOOR_PCT}%)"
        ));
    }
    verdict
}
