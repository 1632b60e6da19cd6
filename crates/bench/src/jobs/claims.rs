//! `bench claims`: measures the paper's performance claims with wall
//! clocks and prints a paper-vs-measured table for EXPERIMENTS.md,
//! followed by the supporting series printed under it. Fails when a
//! shape expectation does not hold.

use bench::{
    c_deep, c_fib, c_heap, c_loop, c_tracker, measure, py_deep, py_fib, py_heap, py_loop,
    py_tracker, run_resume, run_step_all, run_tracked, run_with_watch, timed, Flags, Rounds,
    Verdict,
};
use easytracker::{init_tracker, PauseReason, ProgramState, Recording, Tracker};
use minipy::{TraceAction, TraceCtx, TraceEvent, Tracer};
use pttrace::{trace_from_recording, trace_size, trace_with_options, ExportOptions};
use std::hint::black_box;
use std::time::Instant;

/// The Python-Tutor export workload behind the Fig. 10 claim and the
/// `trace_export` series.
const PT_PROG: &str = "\
def work(v, k):
    out = []
    for x in v:
        out.append(x * k)
    return out
data = [3, 1, 4, 1, 5, 9, 2, 6]
r1 = work(data, 2)
r2 = work(r1, 3)
n = len(r2)
print(n)
";

/// The partial export of [`PT_PROG`]: the module's frame and the four
/// variables a student looks at.
fn pt_partial() -> ExportOptions {
    ExportOptions {
        only_functions: Some(vec!["<module>".into()]),
        only_variables: Some(vec!["data".into(), "r1".into(), "r2".into(), "n".into()]),
        ..Default::default()
    }
}

fn record_pt() -> Recording {
    let mut t = py_tracker(PT_PROG);
    let rec = Recording::capture(&mut t).expect("capture");
    t.terminate();
    rec
}

/// One whole debugging session: loads `src` (MiniC for a `.c` file,
/// MiniPy for `.py`), runs `drive` to the end and tears it down.
fn session(file: &str, src: &str, drive: fn(&mut dyn Tracker)) {
    let mut t = init_tracker(file, src).expect("workload loads");
    drive(t.as_mut());
    t.terminate();
}

fn step_all(t: &mut dyn Tracker) {
    black_box(run_step_all(t));
}

fn watch_acc(t: &mut dyn Tracker) {
    black_box(run_with_watch(t, "acc"));
}

fn track_fib(t: &mut dyn Tracker) {
    black_box(run_tracked(t, "fib", None));
}

fn track_fib_depth2(t: &mut dyn Tracker) {
    black_box(run_tracked(t, "fib", Some(2)));
}

/// Times `slow` and `fast` round-robin (one warm-up round, best of 3)
/// and returns how many times slower `slow` is.
fn slowdown(mut slow: impl FnMut(), mut fast: impl FnMut()) -> f64 {
    let t = measure(2, Rounds::new(1, 3), |i| {
        timed(|| if i == 0 { slow() } else { fast() })
    });
    t[0].best.as_secs_f64() / t[1].best.as_secs_f64()
}

/// Resumes `tracker` until it pauses at a breakpoint.
fn pause_at_breakpoint(tracker: &mut dyn Tracker) {
    loop {
        match tracker.resume().expect("resume") {
            PauseReason::Breakpoint { .. } => return,
            PauseReason::Exited(_) => panic!("should pause before exit"),
            _ => {}
        }
    }
}

/// Pauses a tracker at the line after the heap array is built: line 6
/// of [`c_heap`], line 4 of [`py_heap`].
fn pause_after_heap(tracker: &mut dyn Tracker, line: u32) {
    tracker.break_before_line(line).expect("bp");
    tracker.start().expect("start");
    pause_at_breakpoint(tracker);
}

/// Pauses a tracker at the bottom of the `down` recursion.
fn pause_deep(tracker: &mut dyn Tracker) {
    tracker.break_before_func("down", None).expect("bp");
    tracker.start().expect("start");
    loop {
        pause_at_breakpoint(tracker);
        let frame = tracker.get_current_frame().expect("frame");
        if let Some(v) = frame.variable("n") {
            if state::render_value(v.value().deref_fully()) == "0" {
                return;
            }
        }
    }
}

/// Prints one supporting series: the points `names` timed round-robin
/// (one warm-up round, then `samples` scored), each sample calling
/// `run(point)` `batch` times. Each point reports its smallest sample
/// per call.
fn series<S: AsRef<str>>(
    group: &str,
    samples: u32,
    batch: u32,
    names: &[S],
    mut run: impl FnMut(usize),
) {
    let timed = measure(names.len(), Rounds::new(1, samples), |point| {
        let begin = Instant::now();
        for _ in 0..batch {
            run(point);
        }
        (begin.elapsed() / batch, ())
    });
    let points: Vec<String> = names
        .iter()
        .zip(&timed)
        .map(|(name, t)| format!("{} {:.1?}", name.as_ref(), t.best))
        .collect();
    println!("{group:<26} {}", points.join(" | "));
}

/// `get_state` on an MI and an in-process tracker per size, each loaded
/// and paused by `load`.
fn inspect_series(group: &str, sizes: [u32; 3], load: impl Fn(u32) -> [Box<dyn Tracker>; 2]) {
    let mut names = Vec::new();
    let mut trackers = Vec::new();
    for n in sizes {
        let [mi, py] = load(n);
        names.extend([format!("mi_tracker/{n}"), format!("py_tracker/{n}")]);
        trackers.extend([mi, py]);
    }
    series(group, 10, 10, &names, |i| {
        black_box(trackers[i].get_state().expect("state"));
    });
    for mut t in trackers {
        t.terminate();
    }
}

/// A MiniC state snapshot paused at `line`.
fn state_snapshot(src: &str, line: u32) -> ProgramState {
    let mut t = c_tracker(src);
    pause_after_heap(&mut t, line);
    let st = t.get_state().expect("state");
    t.terminate();
    st
}

struct CountingTracer(u64);

impl Tracer for CountingTracer {
    fn trace(&mut self, event: &TraceEvent, _ctx: &TraceCtx<'_>) -> TraceAction {
        if matches!(event, TraceEvent::Line { .. }) {
            self.0 += 1;
        }
        TraceAction::Continue
    }
}

/// The supporting series: the costs behind each claim, swept over
/// program sizes and tracker kinds.
fn supporting_series() {
    // Control granularity (§II-C2, §V). Expected shape:
    // `uncontrolled < resume << step_all ≈ watch1`.
    let control = ["uncontrolled", "resume", "step_all", "watch1"];
    let src = c_loop(60);
    let program = minic::compile("bench.c", &src).expect("compiles");
    series("control_overhead_minic", 10, 1, &control, |i| match i {
        0 => {
            black_box(minic::vm::Vm::new(&program).run_to_completion().unwrap());
        }
        1 => session("bench.c", &src, run_resume),
        2 => session("bench.c", &src, step_all),
        _ => session("bench.c", &src, watch_acc),
    });
    let src = py_loop(60);
    series("control_overhead_minipy", 10, 1, &control, |i| match i {
        0 => {
            black_box(minipy::run_source(&src, &mut minipy::NullTracer).unwrap());
        }
        1 => session("bench.py", &src, run_resume),
        2 => session("bench.py", &src, step_all),
        _ => session("bench.py", &src, watch_acc),
    });

    // Pause granularity on recursion (Fig. 8's workload): pausing only
    // at tracked-function boundaries beats stepping every line.
    let src = c_fib(10);
    series(
        "granularity_minic_fib10",
        10,
        1,
        &[
            "step_every_line",
            "track_function",
            "track_function_maxdepth2",
        ],
        |i| match i {
            0 => session("bench.c", &src, step_all),
            1 => session("bench.c", &src, track_fib),
            _ => session("bench.c", &src, track_fib_depth2),
        },
    );
    let src = py_fib(10);
    series(
        "granularity_minipy_fib10",
        10,
        1,
        &["step_every_line", "track_function"],
        |i| match i {
            0 => session("bench.py", &src, step_all),
            _ => session("bench.py", &src, track_fib),
        },
    );

    // Inspection cost (Fig. 6 workloads) as the stack deepens and the
    // heap grows: the motivation for two tracker implementations.
    inspect_series("inspect_vs_stack_depth", [2, 8, 24], |depth| {
        let mut mi = c_tracker(&c_deep(depth));
        pause_deep(&mut mi);
        let mut py = py_tracker(&py_deep(depth));
        pause_deep(&mut py);
        [Box::new(mi), Box::new(py)]
    });
    inspect_series("inspect_vs_heap_size", [8, 64, 256], |n| {
        let mut mi = c_tracker(&c_heap(n));
        pause_after_heap(&mut mi, 6);
        let mut py = py_tracker(&py_heap(n));
        pause_after_heap(&mut py, 4);
        [Box::new(mi), Box::new(py)]
    });

    // Machine-interface costs (Fig. 4): command roundtrips and state
    // serialization.
    let mut t = c_tracker("int main() {\nint x = 0;\nreturn x;\n}");
    t.start().expect("start");
    series(
        "mi_command_roundtrip",
        20,
        100,
        &["get_exit_code", "get_variable"],
        |i| match i {
            0 => {
                black_box(t.get_exit_code());
            }
            _ => {
                black_box(t.get_variable("x").unwrap());
            }
        },
    );
    t.terminate();
    let mut names = Vec::new();
    let mut encoded = Vec::new();
    for n in [8u32, 64, 256] {
        let st = state_snapshot(&c_heap(n), 6);
        let json = serde_json::to_string(&st).expect("serialize");
        println!(
            "state with {n}-element heap array: {} bytes serialized",
            json.len()
        );
        names.extend([format!("encode/{n}"), format!("decode/{n}")]);
        encoded.push((st, json));
    }
    series("state_serialize", 20, 20, &names, |i| {
        let (st, json) = &encoded[i / 2];
        if i % 2 == 0 {
            black_box(serde_json::to_string(st).unwrap());
        } else {
            black_box(serde_json::from_str::<ProgramState>(json).unwrap());
        }
    });

    // Python-Tutor trace generation and reduction (Fig. 10).
    let rec = record_pt();
    let opts = pt_partial();
    let full = trace_from_recording(&rec);
    series(
        "trace_export",
        10,
        1,
        &[
            "record_run",
            "export_full",
            "export_partial",
            "import_roundtrip",
        ],
        |i| match i {
            0 => {
                black_box(record_pt());
            }
            1 => {
                black_box(trace_from_recording(&rec));
            }
            2 => {
                black_box(trace_with_options(&rec, &opts));
            }
            _ => {
                black_box(pttrace::recording_from_trace(&full, "p.py").unwrap());
            }
        },
    );

    // Ablations of the design choices DESIGN.md calls out. The VM's
    // store-event hook (the watchpoint mechanism), isolated from the
    // tracker stack:
    let program = minic::compile("abl.c", &c_loop(100)).expect("compiles");
    series(
        "ablation_store_events",
        10,
        10,
        &["disabled", "enabled_drained"],
        |i| {
            let mut vm = minic::vm::Vm::new(&program);
            if i == 0 {
                black_box(vm.run_to_completion().unwrap());
            } else {
                vm.set_store_events(true);
                while !matches!(vm.step().unwrap(), minic::vm::Event::Exited(_)) {}
            }
        },
    );
    // The MiniPy line hook: a no-op tracer vs the cheapest useful one.
    let src = py_loop(100);
    series(
        "ablation_trace_hook",
        10,
        10,
        &["null_hook", "counting_hook"],
        |i| {
            if i == 0 {
                black_box(minipy::run_source(&src, &mut minipy::NullTracer).unwrap());
            } else {
                let mut t = CountingTracer(0);
                minipy::run_source(&src, &mut t).unwrap();
                black_box(t.0);
            }
        },
    );
    // Frame building over a 512-element heap array, element rendering
    // capped (`InspectOptions::max_elems`) or not.
    let program = minic::compile("abl.c", &c_heap(512)).expect("compiles");
    let mut vm = minic::vm::Vm::new(&program);
    while !matches!(vm.step().unwrap(), minic::vm::Event::Line(6)) {}
    let caps = [8usize, 64, 512];
    series(
        "ablation_heap_render_cap",
        10,
        20,
        &caps.map(|cap| format!("cap_{cap}")),
        |i| {
            let opts = minic::inspect::InspectOptions {
                max_elems: caps[i],
                ..Default::default()
            };
            black_box(minic::inspect::current_frame_with(&vm, opts));
        },
    );
}

pub fn run(_: &Flags) -> Verdict {
    let mut verdict = Verdict::default();
    let mut check = |name: &str, claim: &str, ratio: f64, expect_at_least: f64| {
        let ok = ratio >= expect_at_least;
        println!(
            "{:<44} {:<34} measured {ratio:6.1}x  (expect ≥{expect_at_least}x)  {}",
            name,
            claim,
            if ok { "OK" } else { "FAIL" }
        );
        verdict.require(ok, || {
            format!("{name}: measured {ratio:.1}x, expected ≥{expect_at_least}x")
        });
    };

    const ITERS: u32 = 150;

    // §II-C2: watchpoints slow the Python tracker down a lot.
    let src = py_loop(ITERS);
    check(
        "minipy: watchpoint vs plain resume",
        "\"slows the execution down a lot\"",
        slowdown(
            || session("bench.py", &src, watch_acc),
            || session("bench.py", &src, run_resume),
        ),
        1.5,
    );

    // Same shape for the C engine: store events + per-store checks.
    let src = c_loop(ITERS);
    check(
        "minic:  watchpoint vs plain resume",
        "watchpoints re-check per store",
        slowdown(
            || session("bench.c", &src, watch_acc),
            || session("bench.c", &src, run_resume),
        ),
        1.5,
    );

    // §V: control cost scales with control points — stepping every line
    // is much slower than coarse function tracking on recursion.
    let src = c_fib(12);
    check(
        "minic:  step-all vs track(maxdepth=2)",
        "coarse control is much cheaper",
        slowdown(
            || session("bench.c", &src, step_all),
            || session("bench.c", &src, track_fib_depth2),
        ),
        2.0,
    );

    // In-process inspection (PyTracker snapshot) vs serialized MI
    // inspection — the motivation for the two implementations.
    let mut mi = c_tracker(&c_heap(128));
    pause_after_heap(&mut mi, 6);
    let mut py = py_tracker(&py_heap(128));
    pause_after_heap(&mut py, 4);
    check(
        "inspect: MI get_state vs in-process",
        "in-process inspection is cheaper",
        slowdown(
            || {
                black_box(mi.get_state().unwrap());
            },
            || {
                black_box(py.get_state().unwrap());
            },
        ),
        1.0,
    );
    mi.terminate();
    py.terminate();

    // Fig. 10: partial trace ~10x smaller.
    let rec = record_pt();
    let full = trace_size(&trace_from_recording(&rec));
    let partial = trace_size(&trace_with_options(&rec, &pt_partial()));
    check(
        "fig10:  full vs partial PT trace size",
        "\"reduce the trace by a factor of 10\"",
        full as f64 / partial as f64,
        5.0,
    );
    println!("fig10 trace sizes: full {full} bytes, partial {partial} bytes");

    println!();
    println!("supporting series (minimum per call):");
    supporting_series();

    println!();
    verdict.on_pass("all quantitative shapes hold".into());
    verdict
}
