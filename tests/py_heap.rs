//! The MiniPy heap's collector: what nothing can reach is freed, and no
//! object index is ever reused.
//!
//! A test binary of its own, whose tests take turns, so the memory other
//! tests use does not mix into the resident-set readings of the runaway
//! loop below. (A panic's backtrace alone can add tens of MiB.)

use easytracker::{PauseReason, PyTracker, Tracker};
use minipy::value::{Heap, ObjRef, PyVal};
use minipy::{Interp, TraceAction, TraceCtx, TraceEvent, Tracer};
use std::sync::{Mutex, MutexGuard, PoisonError};

static TURN: Mutex<()> = Mutex::new(());

/// Waits for this test's turn; held until the test ends.
fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// This process's resident set in KiB (`VmRSS`), where `/proc` has it.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Samples the live object count and the resident set every 64Ki events.
#[derive(Default)]
struct Sampler {
    events: u64,
    max_live: usize,
    max_rss_kib: u64,
}

impl Tracer for Sampler {
    fn trace(&mut self, _event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction {
        self.events += 1;
        if self.events.is_multiple_of(1 << 16) {
            self.max_live = self.max_live.max(ctx.heap.live());
            self.max_rss_kib = self.max_rss_kib.max(rss_kib().unwrap_or(0));
        }
        TraceAction::Continue
    }
}

fn interp(src: &str) -> Interp {
    Interp::new(minipy::parser::parse(src).expect("parses"))
}

#[test]
fn a_runaway_loop_runs_in_bounded_memory() {
    let _turn = turn();
    let mut interp = interp("x = 0\nwhile True:\n    x = x + 1\n");
    interp.set_max_steps(Some(5_000_000));
    let mut sampler = Sampler::default();
    let before = rss_kib();
    let err = interp.run(&mut sampler).unwrap_err();
    assert!(err.message().contains("step limit"), "{err}");
    // Every statement allocated: the literal and the sum.
    let heap = interp.heap();
    assert!(heap.issued() > 9_000_000, "{} issued", heap.issued());
    assert!(
        heap.collections() > 1_000,
        "{} collections",
        heap.collections()
    );
    assert!(sampler.max_live < 10_000, "{} live", sampler.max_live);
    assert!(heap.live() < 10_000, "{} live at the end", heap.live());
    if let Some(before) = before {
        let grown = sampler.max_rss_kib.saturating_sub(before);
        assert!(grown < 16 * 1024, "resident set grew by {grown} KiB");
    }
}

#[test]
fn ids_strictly_increase_across_collections() {
    let _turn = turn();
    // Each iteration frees the last list and allocates a new one.
    let src = "prev = -1\nrising = True\ni = 0\nwhile i < 3000:\n    t = [i]\n    \
               n = id(t)\n    if n <= prev:\n        rising = False\n    prev = n\n    \
               i = i + 1\nprint(rising)\n";
    let mut interp = interp(src);
    let outcome = interp.run(&mut minipy::NullTracer).unwrap();
    assert_eq!(outcome.output, "True\n");
    let heap = interp.heap();
    assert!(heap.collections() > 0);
    let (live, issued) = (heap.live() as u64, heap.issued());
    assert!(live < issued / 2, "{live} of {issued} live");
}

#[test]
fn a_watched_name_rebound_after_its_object_was_collected_renders_again() {
    let _turn = turn();
    // `x`'s int 1 dies at `x = 7`, after enough allocations for a
    // collection in every build, while nothing changes in place. Had the
    // new int taken the freed int's index, the watch would see the same
    // immutable object and skip the change.
    let src = "x = 1\ni = 0\nwhile i < 5000:\n    i = i + 1\nx = 7\ny = 0\nx = 1\nz = 0\n";
    let reg = obs::Registry::new();
    let mut t = PyTracker::load_with_registry("aba.py", src, reg.clone()).unwrap();
    t.start().unwrap();
    t.watch("x").unwrap();
    let mut seen = Vec::new();
    loop {
        match t.resume().unwrap() {
            PauseReason::Watchpoint { old, new, .. } => {
                let collections = reg.snapshot().gauge("vm.minipy.collections");
                seen.push((old, new, collections > 0));
            }
            PauseReason::Exited(_) => break,
            other => panic!("unexpected {other}"),
        }
    }
    let (one, seven) = (Some("1".to_owned()), Some("7".to_owned()));
    // A first binding is a change, as in Python.
    assert_eq!(seen[0].0, None);
    assert_eq!(
        seen[1..],
        [(one, "7".into(), true), (seven, "1".into(), true)]
    );
    // The exit's reading: the loop's 10 000 objects are mostly gone.
    let live = reg.snapshot().gauge("vm.minipy.heap_live");
    assert!((4..5_000).contains(&live), "{live} live");
}

#[test]
#[should_panic(expected = "MiniPy object 1 was read after the collector freed it")]
fn reading_a_collected_object_panics_naming_it() {
    let _turn = turn();
    let mut heap = Heap::new();
    let kept = heap.alloc(PyVal::Int(0));
    let freed = heap.alloc(PyVal::Int(1));
    heap.collect([kept]);
    assert_eq!((heap.live(), freed), (1, ObjRef(1)));
    heap.get(freed);
}
