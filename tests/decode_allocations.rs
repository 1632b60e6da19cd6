//! Allocation pin for the state frame reader.
//!
//! A `ResponseFrame::State` is what every tool decodes at every redraw, so
//! what its decode allocates is a per-layer cost that repeats exactly from
//! run to run. The pinned state is `fib(12)` stepped until its innermost
//! frame first sits at depth 5: six frames of one `int` each.
//!
//! The decode may allocate no more than a `clone()` of the state it came
//! from: every heap object the state owns, and nothing more than the
//! reader's few temporaries, which the shared static type names (`int`)
//! of a decoded value pay for.
//!
//! A frame's `order` sizes the reader's list of variables only up to a
//! small bound, so a long `order` in hostile text reserves no variable
//! per name.
//!
//! This binary installs a counting global allocator, so it holds only
//! tests that count; each counts the allocations of its own thread.

use mi::minic_engine::MinicEngine;
use mi::protocol::{Command, Response, ResponseFrame};
use mi::Engine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn counted(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded to the system allocator unchanged; the
// count is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

const FIB: &str = concat!(
    "int fib(int n) {\nif (n < 2) { return n; }\nreturn fib(n - 1) + fib(n - 2);\n}\n",
    "int main() {\nint r = fib(12);\nprintf(\"%d\\n\", r);\nreturn r % 256;\n}\n",
);

/// The state frame of `fib(12)` when its innermost frame first reaches
/// depth 5.
fn fib_frame() -> ResponseFrame {
    let program = minic::compile("fib.c", FIB).expect("fib compiles");
    let mut engine = MinicEngine::new(&program);
    engine.handle(Command::Start);
    loop {
        let reason = engine.handle(Command::Step);
        assert!(
            matches!(&reason, Response::Paused(r) if r.is_alive()),
            "{reason:?}"
        );
        let Response::State(state) = engine.handle(Command::GetState) else {
            panic!("no state");
        };
        if state.frame.depth() == 5 {
            return ResponseFrame {
                seq: 7,
                resp: Response::State(state),
                session: None,
            };
        }
    }
}

#[test]
fn decoding_a_state_frame_allocates_no_more_than_cloning_it() {
    let frame = fib_frame();
    let Response::State(state) = &frame.resp else {
        unreachable!()
    };
    assert_eq!(state.stack_depth(), 6);
    let wire = serde_json::to_string(&frame).expect("encodes");
    let (decoded, decode) =
        allocations(|| serde_json::from_str::<ResponseFrame>(&wire).expect("decodes"));
    assert_eq!(decoded, frame);
    let (copy, clone) = allocations(|| frame.clone());
    assert_eq!(copy, frame);
    assert!(
        decode <= clone,
        "a {}-byte frame: decode {decode} allocations, clone {clone}",
        wire.len()
    );
    // A count repeats exactly.
    let (_, again) = allocations(|| serde_json::from_str::<ResponseFrame>(&wire).expect("decodes"));
    assert_eq!(again, decode);
}

#[test]
fn a_long_order_reserves_no_variable_per_name() {
    // Four bytes of `order` per name, and no variable at all.
    const NAMES: usize = 100_000;
    let order = vec!["\"a\""; NAMES].join(",");
    let wire = format!(
        "{{\"seq\":1,\"resp\":{{\"State\":{{\"frame\":{{\"name\":\"main\",\"depth\":0,\
         \"location\":{{\"file\":\"t.c\",\"line\":1}},\"order\":[{order}],\
         \"variables\":{{}},\"parent\":null}},\"globals\":[],\"reason\":\"Step\"}}}},\
         \"session\":null}}"
    );
    LARGEST.with(|n| n.set(0));
    let frame: ResponseFrame = serde_json::from_str(&wire).expect("decodes");
    let largest = LARGEST.with(Cell::get);
    let Response::State(state) = frame.resp else {
        panic!("not a state")
    };
    assert!(state.frame.is_empty());
    assert!(
        largest < NAMES * std::mem::size_of::<state::Variable>() / 2,
        "{largest} bytes in one allocation for a {}-byte frame",
        wire.len()
    );
}
