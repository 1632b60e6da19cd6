//! `bench obs` and `bench profile`: what always-on telemetry and the
//! in-engine profiler cost the canonical debugging session
//! ([`bench::tracked_fib`]: track a recursive function, resume across
//! every call/return pause, inspect the state at each call) over a real
//! `mi-server` child, falling back to the in-process channel when the
//! server binary is unavailable.
//!
//! Each round runs one session per configuration side by side, pause by
//! pause in turn, pinned to one CPU, and a gate scores the median over
//! rounds of each round's variant-to-baseline ratio
//! ([`bench::paired_overhead_pct`]). On a shared 2-vCPU host a session's
//! time follows machine speed, and whole sessions run one after another,
//! scored by their minimums, read −28% to +42% on one binary.

use bench::{
    measure_together, paired_overhead_pct, tracked_fib, tracked_fib_tracker, write_report, Flags,
    Rounds, Verdict,
};
use easytracker::{MiTracker, Tracker};
use obs::{ProfileMode, ProfileReport};
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;

const DRAIN_EVERY: u64 = 32;
const SAMPLE_PERIOD: u64 = 64;
const DISABLED_BUDGET_PCT: f64 = 2.0;
const COUNTING_BUDGET_PCT: f64 = 15.0;
const SEED_MIX: std::ops::Range<u64> = 1..9;

/// `bench obs`, in three configurations:
///
/// * `plain` — a bare registry, no sinks, no drains: the baseline;
/// * `obs` — an export ring attached, so every span is recorded: the
///   "leave it on everywhere" configuration;
/// * `obs_drain` — additionally draining engine telemetry over
///   `Command::Telemetry` every 32 pauses.
///
/// `--check PCT` fails when `obs` costs more than `PCT` percent over
/// `plain`.
pub fn obs(flags: &Flags) -> Verdict {
    const ROUNDS: Rounds = Rounds::new(1, 21);
    let (server, deployment) = bench::mi_server();
    let cpu = bench::pin_to_one_cpu();
    eprintln!(
        "bench obs: {} over {deployment}, on CPU {cpu:?}",
        bench::TRACKED_FIB
    );

    let configs = measure_together(3, ROUNDS, || {
        let mut trackers: Vec<MiTracker> = (0..3)
            .map(|config| {
                let registry = obs::Registry::new();
                if config > 0 {
                    registry.add_sink(Arc::new(obs::ExportSink::new(8192)));
                }
                tracked_fib_tracker(server.as_deref(), registry)
            })
            .collect();
        let drain = |config, t: &mut MiTracker, pauses: u64, exited: bool| {
            if config == 2 && (exited || pauses.is_multiple_of(DRAIN_EVERY)) {
                t.drain_telemetry().expect("drain");
            }
        };
        let (spent, pauses) = tracked_fib(&mut trackers, drain);
        for mut t in trackers {
            t.terminate();
        }
        spent.into_iter().map(|d| (d, pauses)).collect()
    });
    let [plain, obs_on, obs_drain] = [0, 1, 2].map(|i| configs[i].best);
    let obs_pct = paired_overhead_pct(&configs[0], &configs[1]);
    let drain_pct = paired_overhead_pct(&configs[0], &configs[2]);
    println!(
        "min: plain {:>9}us | obs {:>9}us | obs+drain {:>9}us; paired: obs {obs_pct:+.2}% | obs+drain {drain_pct:+.2}%",
        plain.as_micros(),
        obs_on.as_micros(),
        obs_drain.as_micros()
    );
    write_report(
        "obs",
        &json!({
            "workload": bench::TRACKED_FIB,
            "deployment": deployment,
            "pauses": configs[0].last,
            "repeats": ROUNDS.scored as u64,
            "drain_every": DRAIN_EVERY,
            "plain_us": plain.as_micros() as u64,
            "obs_us": obs_on.as_micros() as u64,
            "obs_drain_us": obs_drain.as_micros() as u64,
            "obs_overhead_pct": format!("{obs_pct:.2}"),
            "drain_overhead_pct": format!("{drain_pct:.2}"),
        }),
    );

    let mut verdict = Verdict::default();
    if let Some(budget) = flags.real("--check") {
        verdict.require(obs_pct <= budget, || {
            format!("instrumentation overhead {obs_pct:.2}% exceeds budget {budget}%")
        });
        verdict.on_pass(format!(
            "instrumentation overhead {obs_pct:.2}% within the {budget}% budget"
        ));
    }
    verdict
}

/// The `bench profile` configurations, in timing order.
const PROFILE_CONFIGS: [(&str, Option<ProfileMode>, u64); 4] = [
    // Profiler never armed: the baseline.
    ("plain", None, 0),
    // `SetProfile(Off)` issued before start, so the command path runs
    // but every hook stays on the `None` fast path.
    ("disabled", Some(ProfileMode::Off), 0),
    // Exact per-line/per-function counting.
    ("counting", Some(ProfileMode::Counting), 0),
    // Deterministic sampling.
    ("sampling", Some(ProfileMode::Sampling), SAMPLE_PERIOD),
];

fn top_self_names(report: &ProfileReport, n: usize) -> Vec<String> {
    report
        .top_self(n)
        .iter()
        .map(|(name, _)| (*name).to_owned())
        .collect()
}

/// Profiles the conformance seed mix under counting mode and merges the
/// per-seed reports into one self-units ranking.
fn seed_mix_top10(server: Option<&std::path::Path>) -> Vec<(String, u64)> {
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    for seed in SEED_MIX {
        let program = conformance::gen::gen_program(seed);
        let src = conformance::gen::render_c(&program);
        let mut t = bench::load_mi(server, &src, obs::Registry::new());
        t.set_profile(ProfileMode::Counting, 0).expect("arm");
        t.start().expect("start");
        while t.resume().expect("resume").is_alive() {}
        let report = t.profile().expect("profile");
        t.terminate();
        for f in &report.functions {
            *merged.entry(format!("seed{seed}:{}", f.name)).or_default() += f.self_units;
        }
    }
    let mut ranked: Vec<(String, u64)> = merged.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(10);
    ranked
}

/// `bench profile`: the session in four configurations (see
/// [`PROFILE_CONFIGS`]). The profile itself is drained *outside* the
/// timed region: the gates measure in-engine hook cost, not the one
/// extra drain roundtrip. Also profiles the conformance seed mix
/// (counting mode over generated MiniC programs) and reports its top-10
/// hot functions by self units.
///
/// `--check` fails when `disabled` costs more than 2% over `plain`,
/// `counting` more than 15%, or counting and sampling disagree on the
/// top-3 hot functions.
pub fn profile(flags: &Flags) -> Verdict {
    const ROUNDS: Rounds = Rounds::new(2, 21);
    let (server, deployment) = bench::mi_server();
    let cpu = bench::pin_to_one_cpu();
    eprintln!(
        "bench profile: {} over {deployment}, on CPU {cpu:?}",
        bench::TRACKED_FIB
    );

    let configs = measure_together(PROFILE_CONFIGS.len(), ROUNDS, || {
        let mut trackers: Vec<MiTracker> = PROFILE_CONFIGS
            .iter()
            .map(|&(_, mode, period)| {
                let mut t = tracked_fib_tracker(server.as_deref(), obs::Registry::new());
                if let Some(mode) = mode {
                    t.set_profile(mode, period).expect("arm");
                }
                t
            })
            .collect();
        let (spent, pauses) = tracked_fib(&mut trackers, |_, _, _, _| {});
        PROFILE_CONFIGS
            .iter()
            .zip(trackers)
            .zip(spent)
            .map(|((&(_, mode, _), mut t), elapsed)| {
                let report = match mode {
                    Some(ProfileMode::Counting | ProfileMode::Sampling) => {
                        t.profile().expect("profile")
                    }
                    _ => ProfileReport::default(),
                };
                t.terminate();
                (elapsed, (pauses, report))
            })
            .collect()
    });
    let pct = |i: usize| paired_overhead_pct(&configs[0], &configs[i]);
    let (disabled_pct, counting_pct, sampling_pct) = (pct(1), pct(2), pct(3));
    let top_counting = top_self_names(&configs[2].last.1, 3);
    let top_sampling = top_self_names(&configs[3].last.1, 3);
    let rankings_agree = top_counting == top_sampling;

    for (i, (name, _, _)) in PROFILE_CONFIGS.iter().enumerate() {
        println!("{name:<9} {} ({:+.2}%)", configs[i].summary_line(), pct(i));
    }
    println!(
        "top-3 by self units — counting: {top_counting:?}, sampling: {top_sampling:?} ({})",
        if rankings_agree { "agree" } else { "disagree" }
    );

    let mix = seed_mix_top10(server.as_deref());
    println!("conformance seed mix, top-10 hot functions (self units):");
    for (name, units) in &mix {
        println!("  {name:<24} {units:>10}");
    }

    write_report(
        "profile",
        &json!({
            "workload": bench::TRACKED_FIB,
            "deployment": deployment,
            "pauses": configs[0].last.0,
            "repeats": ROUNDS.scored as u64,
            "sample_period": SAMPLE_PERIOD,
            "plain": configs[0].summary(),
            "disabled": configs[1].summary(),
            "counting": configs[2].summary(),
            "sampling": configs[3].summary(),
            "disabled_overhead_pct": format!("{disabled_pct:.2}"),
            "counting_overhead_pct": format!("{counting_pct:.2}"),
            "sampling_overhead_pct": format!("{sampling_pct:.2}"),
            "top3_counting": top_counting,
            "top3_sampling": top_sampling,
            "top3_agree": rankings_agree,
            "seed_mix_top10": mix
                .iter()
                .map(|(name, units)| json!({"function": name, "self_units": units}))
                .collect::<Vec<_>>(),
        }),
    );

    let mut verdict = Verdict::default();
    if flags.on("--check") {
        verdict.require(disabled_pct <= DISABLED_BUDGET_PCT, || {
            format!(
                "disabled-profiler overhead {disabled_pct:.2}% exceeds budget {DISABLED_BUDGET_PCT}%"
            )
        });
        verdict.require(counting_pct <= COUNTING_BUDGET_PCT, || {
            format!(
                "counting-profiler overhead {counting_pct:.2}% exceeds budget {COUNTING_BUDGET_PCT}%"
            )
        });
        verdict.require(rankings_agree, || {
            "counting and sampling disagree on the top-3 hot functions".into()
        });
        verdict.on_pass(format!(
            "profiler overhead within budget (disabled {disabled_pct:.2}% ≤ \
             {DISABLED_BUDGET_PCT}%, counting {counting_pct:.2}% ≤ {COUNTING_BUDGET_PCT}%)"
        ));
    }
    verdict
}
