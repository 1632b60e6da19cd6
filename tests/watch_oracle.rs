//! Watchpoint oracle: the MiniC engine's watch checks must pause exactly
//! where a naive reference does.
//!
//! The reference is the plainest possible watch loop, written over public
//! API only: step the VM with store events on and, at every `Line` and
//! `Store` event, resolve each watched name, build its value with
//! `inspect::read_value`, render it with `state::render_value`, and compare
//! the text with the last one. A name coming into scope primes silently;
//! the first changed watch of an event pauses, and every watch is brought
//! up to date. The engine may skip work (it compares raw bytes before
//! rendering), but its sequence of `Watchpoint { id, variable, old, new }`
//! pauses must equal the reference's, pause for pause.

use mi::minic_engine::MinicEngine;
use mi::{Command, Engine, Response, SliceOutcome};
use minic::inspect::{self, InspectOptions};
use minic::vm::{Event, Vm};
use minic::Program;
use state::{ExitStatus, Location, PauseReason, Value};

/// Resolves and renders `name` the way a debugger's `print` does:
/// `var` looks at the innermost frame, then globals, then functions;
/// `function::var` at the innermost frame of `function`.
fn render(vm: &Vm, name: &str) -> Option<String> {
    if vm.frames().is_empty() {
        return None;
    }
    let program = vm.program();
    let (func, var) = match name.split_once("::") {
        Some((f, v)) => (Some(f), v),
        None => (None, name),
    };
    let opts = InspectOptions::default();
    for fi in vm.frames().iter().rev() {
        let meta = &program.functions[fi.function];
        if func.is_some_and(|f| f != meta.name) {
            continue;
        }
        if let Some(local) = meta
            .locals
            .iter()
            .find(|l| l.name == var && (l.is_param || l.decl_line <= fi.line))
        {
            let addr = fi.base + local.offset;
            let value = inspect::read_value(vm, addr, &local.ty, opts)
                .with_location(Location::Stack)
                .with_address(addr);
            return Some(state::render_value(&value));
        }
        if func.is_none() {
            break;
        }
    }
    if func.is_some() {
        return None;
    }
    if let Some(g) = program.globals.iter().find(|g| g.name == var) {
        let value = inspect::read_value(vm, g.addr, &g.ty, opts)
            .with_location(Location::Global)
            .with_address(g.addr);
        return Some(state::render_value(&value));
    }
    let (idx, f) = program.function(var)?;
    let value = Value::function(f.name.clone(), "function")
        .with_location(Location::Global)
        .with_address(idx as u64);
    Some(state::render_value(&value))
}

/// The reference: the watchpoint pauses of `start`, `watch(name)` for
/// every name, then `resume` to the end.
fn reference(program: &Program, names: &[&str]) -> Vec<PauseReason> {
    let mut vm = Vm::new(program);
    // `start` pauses at the first line event.
    loop {
        match vm.step() {
            Ok(Event::Line(_)) => break,
            Ok(Event::Exited(_)) | Err(_) => return Vec::new(),
            Ok(_) => {}
        }
    }
    // Watch ids are allocated 1, 2, ... in arming order.
    let mut watches: Vec<(u64, &str, Option<String>)> = names
        .iter()
        .zip(1..)
        .map(|(name, id)| (id, *name, render(&vm, name)))
        .collect();
    vm.set_store_events(true);
    let mut pauses = Vec::new();
    loop {
        match vm.step() {
            Ok(Event::Line(_) | Event::Store { .. }) => {
                let mut hit = None;
                for (id, name, last) in &mut watches {
                    let Some(current) = render(&vm, name) else {
                        continue;
                    };
                    if hit.is_none() && last.as_ref().is_some_and(|l| *l != current) {
                        hit = Some(PauseReason::Watchpoint {
                            id: *id,
                            variable: (*name).to_owned(),
                            old: last.clone(),
                            new: current.clone(),
                        });
                    }
                    *last = Some(current);
                }
                pauses.extend(hit);
            }
            Ok(Event::Exited(_)) | Err(_) => return pauses,
            Ok(_) => {}
        }
    }
}

/// The engine's watchpoint pauses for the same session, each control
/// command run through `handle_sliced` in slices of `fuel` when it is set.
fn engine(program: &Program, names: &[&str], fuel: Option<u64>) -> Vec<PauseReason> {
    let mut e = MinicEngine::new(program);
    let run = |e: &mut MinicEngine, command| {
        let Some(fuel) = fuel else {
            return e.handle(command);
        };
        let mut outcome = e.handle_sliced(command, fuel);
        loop {
            match outcome {
                SliceOutcome::Done(response) => return response,
                SliceOutcome::Yielded => outcome = e.resume_sliced(fuel),
            }
        }
    };
    run(&mut e, Command::Start);
    for name in names {
        assert!(matches!(
            e.handle(Command::Watch {
                variable: (*name).to_owned(),
            }),
            Response::Created { .. }
        ));
    }
    let mut pauses = Vec::new();
    loop {
        match run(&mut e, Command::Resume) {
            Response::Paused(reason @ PauseReason::Watchpoint { .. }) => pauses.push(reason),
            Response::Paused(PauseReason::Exited(ExitStatus::Exited(_) | ExitStatus::Crashed)) => {
                return pauses
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

fn assert_agree(label: &str, src: &str, names: &[&str]) -> usize {
    let program = minic::compile("w.c", src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = reference(&program, names);
    let got = engine(&program, names, None);
    assert_eq!(got, want, "{label}: watching {names:?} in\n{src}");
    want.len()
}

#[test]
fn generated_programs_pause_like_the_reference() {
    // v0: scalar local; h0: heap pointer (its text turns `<invalid>` at
    // `free(h0)` without its bytes changing); p: a parameter entering and
    // leaving scope; f0::p: qualified; f0: a function designator.
    let names = ["v0", "h0", "p", "f0::p", "f0"];
    let mut pauses = 0;
    for seed in 0..100u64 {
        let g = conformance::gen::gen_program(seed);
        pauses += assert_agree(
            &format!("seed {seed}"),
            &conformance::gen::render_c(&g),
            &names,
        );
    }
    assert!(pauses > 100, "only {pauses} watch pauses in 100 seeds");
}

/// Globals, a pointer-free array and struct, a heap string whose text
/// changes through `s[i] = ...` while `s` itself does not, and stores
/// that rewrite the same bytes.
const AGGREGATES: &str = "struct pt { int x; long y; char c; };
int g = 3;
int bump(int d) {
g = g + d;
return g;
}
int main() {
int a[4];
struct pt q;
char* s = malloc(4);
int i = 0;
while (i < 4) {
a[i] = i * i;
s[i] = 97 + i;
i = i + 1;
}
s[3] = 0;
q.x = bump(2);
q.y = q.x * 1000;
q.c = s[1];
a[2] = a[2];
g = g;
q.x = q.x;
free(s);
return g;
}
";

/// A local that enters and leaves scope at every recursion level, reused
/// stack slots included.
const RECURSION: &str = "int depth = 0;
int fact(int n) {
int r = 1;
if (n > 1) {
r = n * fact(n - 1);
}
depth = depth + 1;
return r;
}
int main() {
int total = fact(5);
total = total + fact(3);
return total;
}
";

/// Two functions whose same-named locals of different types share a
/// stack slot: the same bytes render differently as `int` and `float`.
const SHADOWING: &str = "int g(int d) {
int x = d;
return x;
}
float h(int d) {
float x = 0.5;
x = x + d;
return x;
}
int main() {
int a = g(1);
float b = h(2);
int c = g(3);
return a + c;
}
";

#[test]
fn handwritten_programs_pause_like_the_reference() {
    let cases: [(&str, &str, &[&str]); 7] = [
        ("aggregates", AGGREGATES, &["g", "a", "q", "s", "bump", "i"]),
        ("array only", AGGREGATES, &["a"]),
        ("struct only", AGGREGATES, &["q"]),
        ("heap string only", AGGREGATES, &["s"]),
        (
            "recursion",
            RECURSION,
            &["r", "n", "fact::r", "depth", "total"],
        ),
        ("qualified only", RECURSION, &["fact::r"]),
        ("shadowing", SHADOWING, &["x"]),
    ];
    for (label, src, names) in cases {
        let pauses = assert_agree(label, src, names);
        assert!(pauses > 0, "{label}: no watch pauses");
    }
}

/// A local that shadows a global from its declaration line on, inside a
/// loop: every pass crosses the declaration line forwards, and the jump
/// back to the loop head crosses it backwards, rebinding `x` to the
/// global without touching either variable.
const SHADOWED_GLOBAL: &str = "int x = 100;
int main() {
int i = 0;
while (i < 3) {
x = x + 1;
int x = i * 10;
x = x + 5;
i = i + 1;
}
x = x + 1;
return i;
}
";

/// An unqualified name bound to a global in `main`, a local in `g` (from
/// its declaration line) and a parameter in `f`: calls and returns
/// rebind it with no store to the storage it names. After `f` returns
/// into `v = f(v) + v++;`, two stores change `v` before the next line
/// event.
const REBOUND_ACROSS_CALLS: &str = "int v = 1;
int f(int v) {
int w = v * 2;
return w;
}
int g(int a) {
int v = a + 3;
v = v + f(v);
v = f(v) + v++;
return v;
}
int main() {
int r = g(4);
v = v + r;
r = f(v);
return r;
}
";

/// Struct assignments (`MemCopy`) that write part of a watched struct,
/// one element of a watched array of structs, and, through a cast, a
/// copy that starts at `lo` and ends inside `hi`.
const PARTIAL_COPIES: &str = "struct pair { int a; int b; };
struct outer { struct pair p; int c; };
int main() {
struct outer o;
struct pair q;
struct pair arr[3];
int lo = 1;
int hi = 2;
struct pair* pp = (struct pair*)&lo;
int i = 0;
while (i < 3) {
arr[i].a = i;
arr[i].b = 0;
i = i + 1;
}
o.c = 9;
q.a = 1;
q.b = 2;
o.p = q;
arr[1] = q;
q.b = 7;
arr[2] = q;
o.p = arr[0];
*pp = q;
q.b = 8;
*pp = q;
return o.c + hi;
}
";

/// `fact::acc` follows the innermost `fact` frame through a recursion,
/// while a helper with a parameter of the same name comes and goes.
const QUALIFIED_RECURSION: &str = "int helper(int acc) {
acc = acc + 1;
return acc;
}
int fact(int n) {
int acc = 1;
if (n > 1) {
acc = n * fact(n - 1);
}
acc = helper(acc) - 1;
return acc;
}
int main() {
int t = fact(4);
return t;
}
";

/// A pointer watch whose target is written through another pointer to
/// it, on the stack and on the heap.
const ALIASED_TARGET: &str = "int main() {
int x = 1;
int* p = &x;
int* q = &x;
*q = 5;
x = 6;
*q = *q + 1;
int* h = malloc(8);
int* h2 = h;
*h2 = 3;
h2[1] = 4;
*h2 = *h2 + h2[1];
free(h);
return x;
}
";

/// Watches the engine must not skip when the VM reports only the events
/// a watch subscribes to, each driven unsliced and sliced at fuels that
/// preempt on every op, misaligned with loop bodies, and every few
/// statements.
#[test]
fn subscribed_watches_pause_like_the_reference() {
    let cases: [(&str, &str, &[&str]); 8] = [
        ("shadowed global", SHADOWED_GLOBAL, &["x"]),
        ("rebound across calls", REBOUND_ACROSS_CALLS, &["v"]),
        ("partial struct copies", PARTIAL_COPIES, &["o", "arr"]),
        ("partial copy, struct only", PARTIAL_COPIES, &["o"]),
        ("copy over two locals", PARTIAL_COPIES, &["hi"]),
        ("qualified recursion", QUALIFIED_RECURSION, &["fact::acc"]),
        (
            "qualified and unqualified",
            QUALIFIED_RECURSION,
            &["fact::acc", "acc", "n"],
        ),
        ("aliased pointer target", ALIASED_TARGET, &["p", "h"]),
    ];
    for (label, src, names) in cases {
        let program = minic::compile("w.c", src).unwrap_or_else(|e| panic!("{label}: {e}"));
        let want = reference(&program, names);
        assert!(!want.is_empty(), "{label}: no watch pauses");
        for fuel in [None, Some(1), Some(7), Some(64)] {
            let got = engine(&program, names, fuel);
            assert_eq!(got, want, "{label} at fuel {fuel:?}: watching {names:?}");
        }
    }
}
