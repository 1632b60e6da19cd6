//! Micro-benchmark of the span hot path: create + tag + finish, with
//! and without a sink attached, for an owned and a fixed (`&'static`)
//! name. The detached case is what every
//! production tracker pays per control call when nobody is profiling;
//! the attached case adds trace-event construction and the ring push.
//!
//! Run with: `cargo run --release -p obs --example span_micro`

use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 200_000u32;
    for with_sink in [false, true] {
        let reg = obs::Registry::new();
        if with_sink {
            reg.add_sink(Arc::new(obs::ExportSink::new(8192)));
        }
        for fixed in [false, true] {
            let t = Instant::now();
            for _ in 0..n {
                let mut s = if fixed {
                    reg.span_static("tracker.control.resume")
                } else {
                    reg.span("tracker.control.resume")
                };
                s.tag("reason", "FunctionCall");
                s.finish();
            }
            let el = t.elapsed();
            println!(
                "with_sink={with_sink} fixed_name={fixed}: {el:?} total, {:.0}ns/span",
                el.as_nanos() as f64 / f64::from(n)
            );
        }
    }
}
