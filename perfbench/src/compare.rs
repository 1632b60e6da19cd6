//! `perfbench compare <base.json>... -- <change.json>...`: for every
//! workload and end-to-end metric, each side's median and quartiles over
//! its runs, the share of pairs the change wins, and a verdict.
//!
//! The verdict follows the bounds of `BENCHMARK.json`:
//! - `worse`: the change's median is worse than the base's by more than
//!   the metric's bound;
//! - `improved`: the change wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than the base's
//!   interquartile range, with no more failed operations than the base;
//! - `unresolved`: the base's own spread is wider than the bound, unless
//!   every run of the change reads better than every run of the base;
//! - `no worse`: otherwise.
//!
//! Pairs are formed in argument order: the i-th base file with the i-th
//! change file.

use perfbench::harness::{declared, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;

/// Per workload: one value list per metric, plus failed operations.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, Vec<f64>>,
    failed: u64,
}

/// The untraced workload results in one file: a `run` document
/// (`{"workloads": {name: result}}`) or a single-workload document
/// (`{"workload": name, "result": result}`).
fn results(doc: &Value) -> Vec<(String, Value)> {
    if let Some(map) = doc["workloads"].as_object() {
        return map
            .iter()
            .filter(|(name, _)| !name.ends_with(".trace"))
            .map(|(name, r)| (name.clone(), r.clone()))
            .collect();
    }
    match (doc["workload"].as_str(), doc["stamp"]["trace"].as_bool()) {
        (Some(name), Some(false)) => vec![(name.to_string(), doc["result"].clone())],
        _ => Vec::new(),
    }
}

fn load(files: &[String]) -> Result<BTreeMap<String, Side>, String> {
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{file}: {e}"))?;
        let found = results(&doc);
        if found.is_empty() {
            return Err(format!("{file}: no untraced workload result"));
        }
        for (workload, result) in found {
            let side = sides.entry(workload).or_default();
            side.failed += result["failed"].as_u64().unwrap_or(0);
            if let Some(metrics) = result["metrics"].as_object() {
                for (name, m) in metrics {
                    if let Some(v) = m["value"].as_f64() {
                        side.metrics.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        }
    }
    Ok(sides)
}

/// The verdict for one metric, with the share of pairs the change won.
fn verdict(
    base: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
    more_failed: bool,
) -> (String, &'static str) {
    // Positive: the change is better by that much.
    let gain = |b: f64, c: f64| if lower_is_better { b - c } else { c - b };
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| gain(**b, **c) > 0.0)
        .count();
    let (bq1, bmed, bq3) = quartiles(base);
    let (_, cmed, _) = quartiles(change);
    let iqr = bq3 - bq1;
    let won = format!("{wins}/{pairs}");
    let worse_by = -gain(bmed, cmed) / bmed.abs();
    let all_better = base
        .iter()
        .all(|b| change.iter().all(|c| gain(*b, *c) > 0.0));
    let v = if worse_by > bound {
        "worse"
    } else if !more_failed && pairs > 0 && wins * 10 >= pairs * 9 && gain(bmed, cmed) > iqr {
        "improved"
    } else if iqr / bmed.abs() > bound && !all_better {
        "unresolved"
    } else {
        "no worse"
    };
    (won, v)
}

/// Runs the subcommand; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: perfbench compare <base.json>... -- <change.json>...");
        return 2;
    };
    let (base_files, change_files) = (&args[..split], &args[split + 1..]);
    if base_files.is_empty() || change_files.is_empty() {
        eprintln!("perfbench compare: both sides need at least one result file");
        return 2;
    }
    let (base, change) = match (load(base_files), load(change_files)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let decl = declared();
    let fmt = |v: &[f64]| {
        let (q1, med, q3) = quartiles(v);
        format!("{med:>12.4} [{q1:.4}, {q3:.4}]")
    };
    println!(
        "{:<12} {:<16} {:>38} {:>38} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut any_worse = false;
    for (workload, b) in &base {
        let Some(c) = change.get(workload) else {
            println!("{workload:<12} (no change runs)");
            continue;
        };
        for (name, _, better, bound) in &decl.end_to_end {
            let (Some(bv), Some(cv)) = (b.metrics.get(name), c.metrics.get(name)) else {
                continue;
            };
            let (won, v) = verdict(bv, cv, better == "lower", *bound, c.failed > b.failed);
            any_worse |= v == "worse";
            println!(
                "{workload:<12} {name:<16} {:>38} {:>38} {won:>6}  {v}",
                fmt(bv),
                fmt(cv)
            );
        }
        println!(
            "{workload:<12} {:<16} {:>38} {:>38}",
            "failed ops", b.failed, c.failed
        );
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1, false).1, "improved");
        assert_eq!(verdict(&base, &faster, true, 0.1, true).1, "no worse");
        assert_eq!(verdict(&base, &slower, true, 0.1, false).1, "worse");
        assert_eq!(verdict(&base, &base, true, 0.1, false).1, "no worse");
        assert_eq!(verdict(&base, &slower, false, 0.1, false).1, "improved");
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.1, false).1, "unresolved");
    }
}
