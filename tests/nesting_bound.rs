//! Tenant source is a trust boundary: no program, however deeply it
//! nests, may overflow a native stack. A stack overflow aborts the whole
//! process — every session a shared host serves dies with it — so the
//! MiniC and MiniPy parsers bound nesting (`minic::parser::MAX_NESTING`,
//! `minipy::parser::MAX_NESTING`) and refuse deeper programs with a typed
//! error.
//!
//! Each recursive construct nested 100 000 deep, and each chain of
//! 100 000 operators (which the parser builds in a loop, one tree level
//! per operator), gets `TooDeep`, and no abort, on a 2 MiB thread, Rust's
//! default thread stack. The deepest
//! program of each construct that the bound admits compiles,
//! type-checks, generates code and runs on half of that (in a debug
//! build, `cargo test`'s default, frames are at their largest).

use mi::{Command, Engine, Response};

/// Rust's default thread stack, and the host acceptor thread's.
const STACK: usize = 2 << 20;

/// Depth of the refused programs.
const DEEP: usize = 100_000;

/// Runs `f` on a thread with a `stack`-byte stack.
fn on_stack<T: Send + 'static>(stack: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(stack)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

/// A program nesting one construct `n` deep.
type Shape = fn(usize) -> String;

/// MiniC programs nesting one construct `n` deep.
const C_SHAPES: &[(&str, Shape)] = &[
    ("parentheses", |n| {
        format!(
            "int main() {{\nreturn {}1{};\n}}\n",
            "(".repeat(n),
            ")".repeat(n)
        )
    }),
    ("unary minus", |n| {
        format!("int main() {{\nreturn {}1;\n}}\n", "- ".repeat(n))
    }),
    ("blocks", |n| {
        let blocks = format!("{}{}", "{".repeat(n), "}".repeat(n));
        format!("int main() {{\n{blocks}\nreturn 0;\n}}\n")
    }),
    ("if/else chain", |n| {
        let chain = "if (x) x = 1; else ".repeat(n);
        format!("int main() {{\nint x = 0;\n{chain}x = 2;\nreturn x;\n}}\n")
    }),
    ("calls in arguments", |n| {
        let calls = format!("{}1{}", "f(".repeat(n), ")".repeat(n));
        format!("int f(int a) {{\nreturn a;\n}}\nint main() {{\nreturn {calls};\n}}\n")
    }),
    ("conditional chain", |n| {
        let arms = "x ? 1 : ".repeat(n);
        format!("int main() {{\nint x = 0;\nreturn {arms}2;\n}}\n")
    }),
    ("operator chain", |n| {
        format!("int main() {{\nreturn 1{};\n}}\n", " + 1".repeat(n))
    }),
    ("subscript chain", |n| {
        let (dims, subscripts) = ("[1]".repeat(n), "[0]".repeat(n));
        format!("int main() {{\nint a{dims};\nreturn a{subscripts};\n}}\n")
    }),
    ("arrow chain", |n| {
        format!(
            "struct N {{\nstruct N *n;\nint v;\n}};\nint main() {{\nstruct N a;\na.n = &a;\n\
             a.v = 0;\nstruct N *p = &a;\nreturn p{}->v;\n}}\n",
            "->n".repeat(n)
        )
    }),
    ("pointer stars", |n| {
        format!(
            "int main() {{\nint {}p = NULL;\nreturn 0;\n}}\n",
            "*".repeat(n)
        )
    }),
];

/// MiniPy programs nesting one construct `n` deep.
const PY_SHAPES: &[(&str, Shape)] = &[
    ("parentheses", |n| {
        format!("x = {}1{}\n", "(".repeat(n), ")".repeat(n))
    }),
    ("unary minus", |n| format!("x = {}1\n", "- ".repeat(n))),
    ("not", |n| format!("x = {}True\n", "not ".repeat(n))),
    ("list displays", |n| {
        format!("x = {}1{}\n", "[".repeat(n), "]".repeat(n))
    }),
    ("dict displays", |n| {
        format!("x = {}1{}\n", "{1: ".repeat(n), "}".repeat(n))
    }),
    ("calls in arguments", |n| {
        let calls = format!("{}1{}", "f(".repeat(n), ")".repeat(n));
        format!("def f(a):\n    return a\nx = {calls}\n")
    }),
    ("operator chain", |n| format!("x = 1{}\n", " + 1".repeat(n))),
    ("and chain", |n| {
        format!("x = True\ny = x{}\n", " and x".repeat(n))
    }),
    ("subscript chain", |n| {
        let (open, close) = ("[".repeat(n), "]".repeat(n));
        format!("x = {open}1{close}\ny = x{}\n", "[0]".repeat(n))
    }),
    ("attribute chain", |n| {
        let chain = ".f".repeat(n);
        format!("class C:\n    def m(self):\n        pass\nc = C()\nc.f = c\ny = c{chain}\n")
    }),
    ("call chain", |n| {
        format!("def f(a):\n    return f\ny = f{}\n", "(1)".repeat(n))
    }),
    ("elif chain", |n| {
        let chain = "elif x:\n    x = 1\n".repeat(n);
        format!("x = 0\nif x:\n    x = 1\n{chain}else:\n    x = 2\n")
    }),
];

/// MiniPy blocks `n` deep, one space of indentation per level (deeper
/// than the bound is refused long before the source gets large).
fn py_blocks(n: usize) -> String {
    let mut src = String::from("x = 1\n");
    for level in 0..n {
        src.push_str(&" ".repeat(level));
        src.push_str("if x:\n");
    }
    src.push_str(&" ".repeat(n));
    src.push_str("x = 2\n");
    src
}

fn c_too_deep(src: &str) -> bool {
    matches!(
        minic::compile("deep.c", src),
        Err(minic::Error::TooDeep { .. })
    )
}

fn py_too_deep(src: &str) -> bool {
    matches!(
        minipy::parser::parse(src),
        Err(minipy::Error::TooDeep { .. })
    )
}

/// The deepest `shape` the bound admits: the last depth before
/// `too_deep`.
fn deepest(shape: Shape, too_deep: fn(&str) -> bool) -> usize {
    let refused = (1..=DEEP).find(|&n| too_deep(&shape(n)));
    refused.expect("the bound refuses some depth") - 1
}

#[test]
fn every_construct_nested_100_000_deep_is_refused_typed() {
    on_stack(STACK, || {
        for &(name, shape) in C_SHAPES {
            let err = minic::compile("deep.c", &shape(DEEP)).expect_err(name);
            assert!(matches!(err, minic::Error::TooDeep { .. }), "{name}: {err}");
            assert!(
                err.to_string().contains("nesting too deep"),
                "{name}: {err}"
            );
        }
        for &(name, shape) in PY_SHAPES {
            let err = minipy::parser::parse(&shape(DEEP)).expect_err(name);
            assert!(
                matches!(err, minipy::Error::TooDeep { .. }),
                "{name}: {err}"
            );
        }
        let blocks = py_blocks(minipy::parser::MAX_NESTING as usize + 1);
        assert!(py_too_deep(&blocks), "blocks");
    });
}

#[test]
fn programs_at_the_bound_compile_and_run_on_half_a_small_stack() {
    // Half of 2 MiB: the bound leaves a margin of two.
    on_stack(STACK / 2, || {
        for &(name, shape) in C_SHAPES {
            let n = deepest(shape, c_too_deep);
            assert!(n >= 16, "{name}: only {n} levels admitted");
            let registry = obs::Registry::new();
            let mut engine = mi::build_engine("deep.c", &shape(n), 0, &registry, None)
                .unwrap_or_else(|e| panic!("{name} at {n} levels: {e}"));
            assert!(matches!(engine.handle(Command::Start), Response::Paused(_)));
            match engine.handle(Command::Resume) {
                Response::Paused(reason) => assert!(!reason.is_alive(), "{name}: {reason}"),
                other => panic!("{name}: {other:?}"),
            }
        }
        let py: Vec<(&str, Shape)> = PY_SHAPES
            .iter()
            .copied()
            .chain([("blocks", py_blocks as Shape)])
            .collect();
        for (name, shape) in py {
            let n = deepest(shape, py_too_deep);
            assert!(n >= 16, "{name}: only {n} levels admitted");
            minipy::run_source(&shape(n), &mut minipy::NullTracer)
                .unwrap_or_else(|e| panic!("{name} at {n} levels: {e}"));
        }
    });
}
