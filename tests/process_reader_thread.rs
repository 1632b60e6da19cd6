//! A process-backed tracker reads its `mi-server` child's replies on the
//! thread that waits for them: while a `load_c_process` session is live,
//! no thread of this process is a `mi-recv-pump`. This is its own test
//! binary, so no other test's `PumpedTransport` runs in the process.

use easytracker::{MiTracker, Tracker};

const PROGRAM: &str = "int main() {\n\
                       int x = 1;\n\
                       x = x + 1;\n\
                       return x;\n\
                       }\n";

/// The names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn a_process_session_runs_no_receive_pump() {
    let server = conformance::mi_server_bin().expect("mi_server binary builds");
    let mut t = MiTracker::load_c_process(&server, "p.c", PROGRAM).expect("spawn mi-server");
    t.start().expect("start");
    t.step().expect("step");
    assert!(t.get_current_frame().is_ok());
    let names = thread_names();
    // The child's stderr tail is read on a thread of its own: seeing it
    // shows the scan covers the live session's threads.
    assert!(
        names.iter().any(|n| n == "mi-stderr-tail"),
        "no stderr tail thread among {names:?}"
    );
    assert!(
        !names.iter().any(|n| n == "mi-recv-pump"),
        "a receive pump runs: {names:?}"
    );
    t.terminate();
}
