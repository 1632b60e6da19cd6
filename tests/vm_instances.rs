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
    let mut vm = Vm::new(program);
    vm.set_op_budget(Some(OP_BUDGET));
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
