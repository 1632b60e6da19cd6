//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--quick]
//!     one workload in this process; the last stdout line is the result
//! perfbench run [--seed <n>] [--seconds <n>] [--trace] [--quick] [--workload <name>]...
//!     every workload (or the named ones), each in a fresh process
//! perfbench compare <base.json>... -- <change.json>...
//!     per workload and end-to-end metric: medians, quartiles, verdict
//! ```
//!
//! Untraced runs report the end-to-end metrics of `BENCHMARK.json`;
//! traced runs report its per-layer metrics and write a Chrome trace of
//! the spans recorded around every layer call.

mod classroom;
mod compare;
mod deploy;
mod layers;
mod time_travel;

use perfbench::harness::{self, RunArgs, Tracing};
use serde_json::json;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--quick]\n       \
                     perfbench run [--seed <n>] [--seconds <n>] [--trace] [--quick] [--workload <name>]...\n       \
                     perfbench compare <base.json>... -- <change.json>...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run_one(&args),
    };
    std::process::exit(code);
}

/// One workload in this process.
fn run_one(raw: &[String]) -> i32 {
    let args = match RunArgs::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let dir = harness::out_dir();
    harness::confine_scratch(&dir);
    if let Err(e) = harness::pin_process() {
        eprintln!("perfbench: {e}");
        return 1;
    }
    let tracing = Tracing::new(args.trace);
    let outcome = match args.workload.as_str() {
        "time_travel" => time_travel::run(&args, &tracing),
        _ => deploy::run(&args, &tracing),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return 1;
        }
    };
    let stem = format!(
        "{}-seed{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    if args.trace {
        let path = dir.join(format!("{stem}.trace.json"));
        if let Err(e) = tracing.write_chrome(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let (result, calibration) = report.emit(args.trace);
    let doc = json!({
        "stamp": harness::stamp(args.seed, args.seconds, args.trace, args.quick),
        "workload": args.workload,
        "calibration": calibration,
        "result": result,
    });
    let _ = std::fs::write(dir.join(format!("{stem}.json")), doc.to_string());
    0
}

/// Every workload, each in a fresh process; with `--trace`, each also
/// traced. Writes one JSON document for `compare`.
fn run_all(raw: &[String]) -> i32 {
    let mut base = RunArgs::default();
    let mut trace = false;
    let mut only: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--trace" => trace = true,
            "--quick" => base.quick = true,
            "--seed" => base.seed = value().parse().unwrap_or(base.seed),
            "--seconds" => base.seconds = value().parse().unwrap_or(base.seconds),
            "--workload" => only.push(value()),
            other => {
                eprintln!("perfbench: unknown run flag {other}\n{USAGE}");
                return 2;
            }
        }
    }
    let names: Vec<String> = if only.is_empty() {
        perfbench::WORKLOADS.iter().map(|s| s.to_string()).collect()
    } else {
        only
    };
    let mut results = serde_json::Map::new();
    let mut ok = true;
    for name in &names {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let args = RunArgs {
                workload: name.clone(),
                trace: traced,
                ..base.clone()
            };
            let key = if traced {
                format!("{name}.trace")
            } else {
                name.clone()
            };
            match harness::run_fresh(&args) {
                Ok(result) => {
                    ok &= result["correct"].as_bool() == Some(true);
                    results.insert(key, result);
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ok = false;
                }
            }
        }
    }
    let doc = json!({
        "stamp": harness::stamp(base.seed, base.seconds, trace, base.quick),
        "workloads": serde_json::Value::Object(results),
    });
    let dir = harness::out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("run-seed{}.json", base.seed));
    match std::fs::write(&path, doc.to_string()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    if ok {
        0
    } else {
        1
    }
}
