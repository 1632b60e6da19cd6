//! A MiniPy list mutation costs what the mutation does, not the length of
//! the list: `append`, `pop` and `a[i] = v` change the list in place.
//!
//! The check is a ratio of run times, so the machine's speed cancels out:
//! four times the work must take well under eight times as long. Copying
//! the list at every mutation makes it about sixteen times.
//!
//! A test binary of its own, so that no other test competes for the CPU
//! while it times.

use minipy::{run_source, NullTracer};
use std::time::{Duration, Instant};

/// Builds an `n`-element list by appending, stores into every element,
/// then pops it empty.
fn program(n: u32) -> String {
    format!(
        "a = []\ni = 0\nwhile i < {n}:\n    a.append(i)\n    i = i + 1\n\
         i = 0\nwhile i < {n}:\n    a[i] = i * 2\n    i = i + 1\n\
         while len(a) > 0:\n    a.pop()\nprint(len(a))\n"
    )
}

/// The fastest of a few runs of `src`.
fn best_time(src: &str) -> Duration {
    (0..5)
        .map(|_| {
            let begin = Instant::now();
            let out = run_source(src, &mut NullTracer).expect("runs");
            assert_eq!(out.output, "0\n");
            begin.elapsed()
        })
        .min()
        .expect("timed runs")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds collect at every statement, marking the whole list each time"
)]
fn list_mutation_is_linear_in_the_list_length() {
    let small = best_time(&program(10_000));
    let large = best_time(&program(40_000));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 8.0,
        "40 000 elements took {ratio:.1}x the time of 10 000 ({large:?} against {small:?}); \
         linear is 4x"
    );
}
