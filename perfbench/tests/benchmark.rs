//! The benchmark's contract with `BENCHMARK.json`: every workload, traced
//! and untraced, reports exactly the declared metrics with their units
//! and no failed operation; inputs derive from the seed alone; and a
//! state that differs from its oracle counts as a failed operation.

use perfbench::harness::declared;
use perfbench::{classroom_schedule, program_set, Digest, Observed, Tally, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declaration_respects_the_limits() {
    let decl = declared();
    assert!(!decl.end_to_end.is_empty() && decl.end_to_end.len() <= 16);
    assert!(!decl.per_layer.is_empty() && decl.per_layer.len() <= 128);
    let mut seen = std::collections::HashSet::new();
    for (name, unit, better, bound) in &decl.end_to_end {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name.clone()), "{name} declared twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        assert!(better == "lower" || better == "higher", "{name}: {better}");
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
    }
    for (name, unit, better) in &decl.per_layer {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name.clone()), "{name} declared twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
        assert!(better == "lower" || better == "higher", "{name}: {better}");
    }
    let setup = decl
        .end_to_end
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s declared");
    assert_eq!((setup.1.as_str(), setup.2.as_str()), ("s", "lower"));
    let largest = decl.end_to_end.iter().map(|m| m.3).fold(0.0, f64::max);
    assert_eq!(setup.3, largest, "setup_s has the largest bound");
}

/// Runs one quick workload and returns its result line.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let decl = declared();
    for trace in [false, true] {
        let wanted: BTreeMap<String, String> = if trace {
            decl.per_layer
                .iter()
                .map(|m| (m.0.clone(), m.1.clone()))
                .collect()
        } else {
            decl.end_to_end
                .iter()
                .map(|m| (m.0.clone(), m.1.clone()))
                .collect()
        };
        for workload in WORKLOADS {
            let result = run(workload, trace);
            let mut keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            keys.sort_unstable();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result["correct"], Value::Bool(true), "{workload}: {result}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: failed ops");
            assert!(result["attempted"].as_u64() >= Some(1), "{workload}");
            let metrics = result["metrics"].as_object().expect("metrics");
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, m)| {
                    (
                        k.clone(),
                        m["unit"].as_str().unwrap_or_default().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, wanted, "{workload} (trace {trace})");
            for (name, m) in metrics {
                assert!(
                    m["value"].as_f64().is_some_and(f64::is_finite),
                    "{workload}: {name}"
                );
            }
        }
    }
}

#[test]
fn inputs_derive_from_the_seed_alone() {
    assert_eq!(program_set(7, 16), program_set(7, 16));
    assert_ne!(program_set(7, 16), program_set(8, 16));
    assert_eq!(classroom_schedule(7, 3.0), classroom_schedule(7, 3.0));
    assert_ne!(classroom_schedule(7, 3.0), classroom_schedule(8, 3.0));
}

#[test]
fn an_altered_state_digest_is_a_failed_op() {
    let mut digest = Digest::default();
    digest.add(b"{\"frames\":[]}");
    let oracle = Observed {
        pauses: 3,
        digest,
        output: "1\n".into(),
        exit: Some(0),
    };
    let mut tally = Tally::default();
    tally.check("p", &oracle, &oracle.clone());
    assert_eq!(tally.failed, 0);
    let mut altered = oracle.clone();
    altered.digest.add(b"x");
    tally.check("p", &oracle, &altered);
    assert_eq!(tally.failed, 1);
}
