//! A metric that already exists is updated without allocating: the
//! registry looks its name up as a `&str` and allocates the key only the
//! first time it sees the name. A span with a fixed name borrows it, so
//! opening and closing one allocates nothing either.
//!
//! This binary installs a counting global allocator, so it holds only
//! tests that count; each counts the allocations of its own thread.

use obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// count is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn updating_an_existing_metric_allocates_nothing() {
    let registry = Registry::new();
    let first = allocations(|| {
        registry.inc("vm.ops");
        registry.set_gauge("host.sessions", 1);
        registry.record_value("engine.step", 10);
    });
    assert!(first >= 3, "each new name allocates its key: {first}");
    let hits = allocations(|| {
        for i in 0..100 {
            registry.inc("vm.ops");
            registry.add("vm.ops", 2);
            registry.counter("vm.ops").inc();
            registry.set_gauge("host.sessions", i);
            registry.gauge("host.sessions").set(i + 1);
            registry.record_value("engine.step", i);
            registry.record_duration("engine.step", Duration::from_nanos(i));
        }
    });
    assert_eq!(hits, 0, "updates of existing metrics allocated");
    assert_eq!(registry.counter("vm.ops").get(), 1 + 100 * 4);
    assert_eq!(registry.gauge("host.sessions").get(), 100);
}

#[test]
fn a_new_name_still_registers() {
    let registry = Registry::new();
    registry.inc("a");
    let miss = allocations(|| registry.inc("b"));
    assert!(miss > 0, "a new counter allocates its key and cell");
    assert_eq!(registry.counter("b").get(), 1);
}

#[test]
fn a_fixed_name_span_opens_and_closes_without_allocating() {
    let registry = Registry::new();
    let control = |registry: &Registry| {
        let mut outer = registry.span_static("tracker.control.resume");
        outer.category("tracker");
        let mut inner = registry.span_static("vm.minipy.exec");
        inner.category("vm");
        inner.tag_with("pause_reason", || "Step".to_owned());
        inner.finish();
        outer.tag("pause_reason", "Step");
        outer.finish();
    };
    // The first spans register their histograms and grow this thread's
    // span stack.
    let first = allocations(|| control(&registry));
    assert!(first > 0, "each new histogram allocates its key");
    let hits = allocations(|| {
        for _ in 0..100 {
            control(&registry);
        }
    });
    assert_eq!(hits, 0, "fixed-name spans allocated");
    let snapshot = registry.snapshot();
    for name in ["tracker.control.resume", "vm.minipy.exec"] {
        assert_eq!(snapshot.histogram(name).map(|h| h.count), Some(101));
    }
}
