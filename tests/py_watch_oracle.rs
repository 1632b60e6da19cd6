//! Watchpoint oracle for the MiniPy tracker: `PyTracker`'s watch checks
//! must pause exactly where a naive reference does.
//!
//! The reference is the plainest possible watch loop, written over public
//! API only: a `minipy::Tracer` that, at every line event after the first,
//! looks up each watched name, renders its object with
//! `Heap::to_abstract` + `state::render_value`, and compares the text with
//! the last one. An unbound name keeps its last text; a first binding is a
//! change, as in Python. The first changed watch of a line is the pause,
//! and every watch is brought up to date. The tracker may skip renders (an
//! object that cannot have changed is not rendered again), but its
//! sequence of `Watchpoint { id, variable, old, new }` pauses must equal
//! the reference's, pause for pause.

use easytracker::{PauseReason, PyTracker, Tracker};
use minipy::{TraceAction, TraceCtx, TraceEvent, Tracer};
use state::ExitStatus;

fn render(ctx: &TraceCtx<'_>, name: &str) -> Option<String> {
    let r = ctx.lookup(name)?;
    Some(state::render_value(&ctx.heap.to_abstract(r)))
}

/// The reference: primes every watch at the first line event (where
/// `start` pauses and the watches are armed), then renders them all at
/// every later line event.
struct Reference<'n> {
    names: &'n [&'n str],
    last: Option<Vec<Option<String>>>,
    pauses: Vec<PauseReason>,
}

impl Tracer for Reference<'_> {
    fn trace(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction {
        if !matches!(event, TraceEvent::Line { .. }) {
            return TraceAction::Continue;
        }
        let Some(last) = &mut self.last else {
            self.last = Some(self.names.iter().map(|n| render(ctx, n)).collect());
            return TraceAction::Continue;
        };
        let mut hit = None;
        // Watch ids are allocated 1, 2, ... in arming order.
        for ((id, name), last) in (1..).zip(self.names).zip(last) {
            let Some(now) = render(ctx, name) else {
                continue;
            };
            let old = last.replace(now.clone());
            if hit.is_none() && old.as_ref() != Some(&now) {
                hit = Some(PauseReason::Watchpoint {
                    id,
                    variable: (*name).to_owned(),
                    old,
                    new: now,
                });
            }
        }
        self.pauses.extend(hit);
        TraceAction::Continue
    }
}

fn reference(src: &str, names: &[&str]) -> Vec<PauseReason> {
    let mut tracer = Reference {
        names,
        last: None,
        pauses: Vec::new(),
    };
    // Every case runs to its end: a case that crashed early would agree
    // while checking little.
    minipy::run_source(src, &mut tracer).unwrap_or_else(|e| panic!("{e} in\n{src}"));
    tracer.pauses
}

/// The tracker's watchpoint pauses for `start`, `watch(name)` for every
/// name, then `resume` to the end.
fn tracked(src: &str, names: &[&str]) -> Vec<PauseReason> {
    let mut t = PyTracker::load("w.py", src).unwrap();
    if let PauseReason::Exited(_) = t.start().unwrap() {
        return Vec::new();
    }
    for name in names {
        t.watch(name).unwrap();
    }
    let mut pauses = Vec::new();
    loop {
        match t.resume().unwrap() {
            reason @ PauseReason::Watchpoint { .. } => pauses.push(reason),
            PauseReason::Exited(ExitStatus::Exited(_)) => return pauses,
            other => panic!("unexpected {other}"),
        }
    }
}

fn assert_agree(label: &str, src: &str, names: &[&str]) -> usize {
    let want = reference(src, names);
    let got = tracked(src, names);
    assert_eq!(got, want, "{label}: watching {names:?} in\n{src}");
    want.len()
}

/// In-place list changes, each followed by a line that leaves the list
/// alone.
const LIST_METHODS: &str = "a = [3, 1, 2]
b = 0
a.append(5)
b = 1
a[0] = 9
b = 2
a.sort()
b = 3
a[1] = a[1]
b = 4
";

/// A dict store (existing and new key) and attribute stores (existing
/// and new attribute) on an instance.
const DICT_AND_ATTRS: &str = "class P:
    def __init__(self, x):
        self.x = x
d = {'k': 1}
p = P(1)
d['k'] = 2
p.x = 5
d['j'] = 3
p.y = 7
n = 0
";

/// A change made through an alias, and one made through a nested list.
const ALIAS: &str = "a = [1]
b = a
b.append(1)
m = [[1], [2]]
c = m[0]
c.append(5)
n = 0
";

/// A tuple, immutable itself, holding a list that is then mutated.
const TUPLE_OF_LIST: &str = "l = [1]
t = (l, 2)
u = (1, 'a', (2.5, None))
l.append(3)
l[0] = 7
n = 0
";

/// Rebinding to new objects with the same value, and to a new value.
const SAME_VALUE: &str = "x = 5
x = 5
x = 2 + 3
y = [1]
y = [1]
y = [2]
s = 'ab'
s = 'a' + 'b'
x = 6
n = 0
";

/// A function local leaving scope at every return and coming back at
/// every call, the qualified `f::x`, and a global of the same name.
const LOCAL_SCOPE: &str = "def f(k):
    x = k * 2
    x = x + 1
    return x
x = 100
a = f(1)
b = f(1)
x = 7
c = f(3)
n = 0
";

/// A `global` declaration: the function rebinds the module's name.
const GLOBAL_DECL: &str = "g = 1
def bump():
    global g
    g = g + 1
    return g
bump()
bump()
g = 10
n = 0
";

/// A loop whose watched counter changes every fifth pass while an
/// unwatched list grows every pass.
const SPARSE_LOOP: &str = "acc = []
mark = 1
i = 0
while i < 40:
    acc.append(i)
    if i % 5 == 0:
        mark = mark + 1
    i = i + 1
n = 0
";

#[test]
fn handwritten_programs_pause_like_the_reference() {
    let cases: [(&str, &str, &[&str]); 13] = [
        ("list methods", LIST_METHODS, &["a", "b"]),
        ("list only", LIST_METHODS, &["a"]),
        ("dict and attributes", DICT_AND_ATTRS, &["d", "p"]),
        ("attributes only", DICT_AND_ATTRS, &["p"]),
        ("alias", ALIAS, &["a", "m"]),
        ("nested only", ALIAS, &["m"]),
        ("tuple of a list", TUPLE_OF_LIST, &["t", "u"]),
        ("same value", SAME_VALUE, &["x", "y", "s"]),
        ("local scope", LOCAL_SCOPE, &["x", "f::x", "k"]),
        ("qualified only", LOCAL_SCOPE, &["f::x"]),
        ("global declaration", GLOBAL_DECL, &["g"]),
        ("sparse loop", SPARSE_LOOP, &["mark", "acc"]),
        ("sparse loop, counter only", SPARSE_LOOP, &["mark"]),
    ];
    for (label, src, names) in cases {
        let pauses = assert_agree(label, src, names);
        assert!(pauses > 0, "{label}: no watch pauses");
    }
}

#[test]
fn generated_programs_pause_like_the_reference() {
    // v0: an int rebound by assignments and calls; h0: a list written
    // through index stores, rebound to 0 where the C rendering frees it.
    let mut pauses = 0;
    for seed in 0..100u64 {
        let g = conformance::gen::gen_program(seed);
        let src = conformance::gen::render_py(&g);
        pauses += assert_agree(&format!("seed {seed}"), &src, &["v0", "h0"]);
    }
    assert!(pauses > 100, "only {pauses} watch pauses in 100 seeds");
}
