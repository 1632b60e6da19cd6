//! The MiniC op loop has two instances of one body: a plain one, taken
//! when neither the profiler nor the sanitizer is armed, and an
//! instrumented one. Arming the profiler in counting mode changes no
//! program behaviour, so it selects the instrumented instance and nothing
//! else: every run here goes once plain and once profiled, and both must
//! agree event for event — the op count at every event, the output, the
//! exit code and the final memory bytes — unsliced and under countdowns
//! of 1, 7 and 64 ops, at -O0 and -O1.

use minic::mem::{GLOBAL_BASE, HEAP_BASE, STACK_BASE, STACK_TOP};
use minic::vm::{Subscription, Vm};
use minic::Program;

/// Ends a run that never exits.
const OP_BUDGET: u64 = 5_000_000;

/// Everything one run shows.
#[derive(Debug, PartialEq)]
struct Run {
    /// Each `run_until` result, with `ops_executed` right after it.
    events: Vec<(String, u64)>,
    output: String,
    exit: Option<i64>,
    globals: Vec<u8>,
    heap: Vec<u8>,
    stack: Vec<u8>,
}

fn run(program: &Program, sub: &Subscription, countdown: Option<u64>, profiled: bool) -> Run {
    run_limited(program, sub, countdown, profiled, Limits::default())
}

/// What a finished run shows, given the events it delivered.
fn finish(vm: &Vm, program: &Program, events: Vec<(String, u64)>) -> Run {
    let mem = vm.memory();
    let bytes = |base: u64, len: u64| mem.read_bytes(base, len).unwrap().to_vec();
    Run {
        events,
        output: vm.output().to_string(),
        exit: vm.exit_code(),
        globals: bytes(GLOBAL_BASE, program.global_image.len() as u64),
        heap: bytes(HEAP_BASE, mem.heap_len()),
        stack: bytes(STACK_BASE, STACK_TOP - STACK_BASE),
    }
}

/// The op budget and the heap limit a run is armed with.
#[derive(Debug, Clone, Copy)]
struct Limits {
    op_budget: u64,
    heap_limit: Option<u64>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            op_budget: OP_BUDGET,
            heap_limit: None,
        }
    }
}

fn run_limited(
    program: &Program,
    sub: &Subscription,
    countdown: Option<u64>,
    profiled: bool,
    limits: Limits,
) -> Run {
    let mut vm = Vm::new(program);
    vm.set_op_budget(Some(limits.op_budget));
    vm.set_heap_limit(limits.heap_limit);
    if profiled {
        vm.set_profile(obs::ProfileMode::Counting, 0);
        assert!(vm.profile_enabled());
    }
    let mut events = Vec::new();
    loop {
        vm.set_countdown(countdown);
        let (text, done) = match vm.run_until(sub) {
            Ok(Some(event)) => {
                let done = matches!(event, minic::vm::Event::Exited(_));
                (format!("{event:?}"), done)
            }
            Ok(None) => ("yield".to_string(), false),
            Err(e) => (format!("error: {e}"), true),
        };
        events.push((text, vm.ops_executed()));
        if done {
            break;
        }
    }
    finish(&vm, program, events)
}

/// Subscriptions from dense to none: every line, call, return and
/// store; one store range, one line and one function whose frames
/// rebind a watched name (a sparse watch); nothing.
fn subscriptions(program: &Program) -> Vec<(&'static str, Subscription)> {
    let mut dense = Subscription::default();
    dense.set_any_line(usize::MAX);
    dense.all_stores();
    for f in 0..program.functions.len() {
        dense.call(f, None);
        dense.ret(f, None);
    }
    let mut sparse = Subscription::default();
    if let Some(g) = program.globals.first() {
        sparse.stores_within(g.addr, 4);
    }
    if let Some(line) = program.breakable_lines().into_iter().nth(2) {
        sparse.line(line);
        let helper = (0..program.functions.len()).find(|&f| f != program.main_index);
        sparse.rebind(helper.unwrap_or(program.main_index), [line]);
    }
    vec![
        ("dense", dense),
        ("sparse", sparse),
        ("none", Subscription::default()),
    ]
}

/// Returns the number of events compared.
fn assert_instances_agree(label: &str, src: &str) -> usize {
    let compiled = minic::compile("p.c", src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let (optimized, _) =
        analysis::opt::optimize(&compiled, 1).unwrap_or_else(|e| panic!("{label}: optimizer: {e}"));
    let mut compared = 0;
    for (level, program) in [("-O0", &compiled), ("-O1", &optimized)] {
        for (name, sub) in subscriptions(program) {
            for countdown in [None, Some(1), Some(7), Some(64)] {
                let plain = run(program, &sub, countdown, false);
                let profiled = run(program, &sub, countdown, true);
                assert_eq!(
                    plain, profiled,
                    "{label} {level}, {name} subscription, countdown {countdown:?}"
                );
                assert!(plain.exit.is_some(), "{label} {level} ran to its exit");
                compared += plain.events.len();
            }
        }
    }
    compared
}

#[test]
fn generated_programs_run_alike_plain_and_instrumented() {
    let mut compared = 0;
    for seed in 1..64 {
        let program = conformance::gen::gen_program(seed);
        compared += assert_instances_agree(
            &format!("seed {seed}"),
            &conformance::gen::render_c(&program),
        );
    }
    assert!(compared > 10_000, "only {compared} events compared");
}

const FIB: &str = "int fib(int n) {
if (n < 2) {
return n;
}
return fib(n - 1) + fib(n - 2);
}
int main() {
int r = fib(12);
printf(\"%d\\n\", r);
return r % 256;
}
";

const SPARSE_WATCH: &str = "int hits = 0;
int main() {
int i = 0;
long acc = 0;
while (i < 3000) {
acc = acc + i * 3;
if (i % 500 == 0) {
hits = hits + 1;
}
i = i + 1;
}
printf(\"%d %ld\\n\", hits, acc);
return hits;
}
";

const HEAP_STRUCTS: &str = "struct node { int key; double w; struct node* next; };
struct node seed;
int main() {
struct node* head = NULL;
int i = 0;
while (i < 20) {
struct node* n = malloc(sizeof(struct node));
n->key = i;
n->w = i * 0.5;
n->next = head;
head = n;
i = i + 1;
}
struct node copy;
copy = *head;
seed = copy;
copy.key = 99;
long sum = 0;
struct node* p = head;
while (p != NULL) {
sum = sum + p->key;
struct node* dead = p;
p = p->next;
free(dead);
}
printf(\"%ld %d %d\\n\", sum, seed.key, copy.key);
return 0;
}
";

#[test]
fn handwritten_programs_run_alike_plain_and_instrumented() {
    for (label, src) in [
        ("fib(12)", FIB),
        ("sparse watch", SPARSE_WATCH),
        ("heap structs", HEAP_STRUCTS),
    ] {
        assert_instances_agree(label, src);
    }
}

/// Like [`run`], driven by [`Vm::step`] instead: every event, output and
/// stores included.
fn run_stepped(program: &Program, profiled: bool, limits: Limits) -> Run {
    let mut vm = Vm::new(program);
    vm.set_op_budget(Some(limits.op_budget));
    vm.set_heap_limit(limits.heap_limit);
    vm.set_store_events(true);
    if profiled {
        vm.set_profile(obs::ProfileMode::Counting, 0);
    }
    let mut events = Vec::new();
    loop {
        let (text, done) = match vm.step() {
            Ok(event) => {
                let done = matches!(event, minic::vm::Event::Exited(_));
                (format!("{event:?}"), done)
            }
            Err(e) => (format!("error: {e}"), true),
        };
        events.push((text, vm.ops_executed()));
        if done {
            break;
        }
    }
    finish(&vm, program, events)
}

const DIV_BY_ZERO: &str = "int main() {
int i = 0;
long acc = 0;
while (i < 10) {
acc = acc + 100 / (3 - i);
i = i + 1;
}
return acc;
}
";

const OUT_OF_BOUNDS_LOAD: &str = "int table[4];
int main() {
int i = 0;
long acc = 0;
while (i < 100000) {
acc = acc + table[i * 1000];
i = i + 1;
}
return acc;
}
";

const UNBOUNDED_RECURSION: &str = "int down(int n) {
int pad[2000];
pad[0] = n;
return down(n + 1) + pad[0];
}
int main() {
return down(0);
}
";

const ENDLESS_LOOP: &str = "int spins = 0;
int main() {
while (1) {
spins = spins + 1;
}
return 0;
}
";

const ALLOCATING_LOOP: &str = "int main() {
int i = 0;
long sum = 0;
while (i < 12) {
int* p = malloc(40);
p[0] = i;
sum = sum + p[0];
i = i + 1;
}
return sum;
}
";

const PRINTING_LOOP: &str = "int fact(int n) {
if (n < 2) {
return 1;
}
return n * fact(n - 1);
}
int main() {
int i = 0;
while (i < 6) {
printf(\"%d! = %d\\n\", i, fact(i));
i = i + 1;
}
return 0;
}
";

/// The op loop's error and stop paths: a runtime error, the op budget
/// and the heap limit end or pause a run at the same op, with the same
/// message and the same memory, plain and instrumented.
#[test]
fn error_and_stop_paths_run_alike_plain_and_instrumented() {
    let default = Limits::default();
    let cases = [
        ("division by zero", DIV_BY_ZERO, default, "division by zero"),
        (
            "out-of-bounds load",
            OUT_OF_BOUNDS_LOAD,
            default,
            "invalid memory access",
        ),
        (
            "unbounded recursion",
            UNBOUNDED_RECURSION,
            default,
            "stack overflow",
        ),
        (
            "op budget",
            ENDLESS_LOOP,
            Limits {
                op_budget: 5_000,
                heap_limit: None,
            },
            "op budget exhausted",
        ),
        (
            "heap limit",
            ALLOCATING_LOOP,
            Limits {
                op_budget: OP_BUDGET,
                heap_limit: Some(200),
            },
            "yield",
        ),
        ("printf", PRINTING_LOOP, default, "Output(\"5! = 120\\n\")"),
    ];
    for (label, src, limits, shows) in cases {
        let compiled = minic::compile("p.c", src).unwrap_or_else(|e| panic!("{label}: {e}"));
        let (optimized, _) = analysis::opt::optimize(&compiled, 1)
            .unwrap_or_else(|e| panic!("{label}: optimizer: {e}"));
        for (level, program) in [("-O0", &compiled), ("-O1", &optimized)] {
            let plain = run_stepped(program, false, limits);
            assert_eq!(
                plain,
                run_stepped(program, true, limits),
                "{label} {level}, stepped"
            );
            let mut seen = plain.events.iter().any(|(text, _)| text.contains(shows));
            for (name, sub) in subscriptions(program) {
                for countdown in [None, Some(1), Some(7), Some(64)] {
                    let plain = run_limited(program, &sub, countdown, false, limits);
                    let profiled = run_limited(program, &sub, countdown, true, limits);
                    assert_eq!(
                        plain, profiled,
                        "{label} {level}, {name} subscription, countdown {countdown:?}"
                    );
                    // A countdown yields too; only an unsliced yield is the
                    // heap limit's.
                    seen |= countdown.is_none()
                        && plain.events.iter().any(|(text, _)| text.contains(shows));
                }
            }
            assert!(seen, "{label} {level}: no run showed {shows:?}");
        }
    }
}
