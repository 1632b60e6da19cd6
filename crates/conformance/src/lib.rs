//! Conformance harness for the EasyTracker reproduction.
//!
//! The paper's central promise is a *language-agnostic* control and
//! inspection API: the same program driven through any tracker — MiTracker
//! over an in-process channel, MiTracker over a real `mi-server` child
//! process, the in-process PyTracker, or a [`easytracker::ReplayTracker`]
//! over a recording — must tell the same story. This crate turns that
//! promise into an executable oracle:
//!
//! * [`gen`] — seed-driven generators emitting semantically grounded
//!   MiniC/MiniPy programs from one shared AST (nested calls, bounded
//!   loops, heap allocation, pointer writes, frees) plus a RISC-V
//!   generator;
//! * [`diff`] — the lockstep differential driver comparing serialized
//!   state snapshots at every pause point, reason sequences under live
//!   control points, output, and exit codes;
//! * [`fault`] — deterministic fault injection for the MI boundary: wire
//!   faults (truncated, corrupted, duplicated frames; mid-command EOF)
//!   and liveness faults (hangs, stalls, engine crashes) plus seeded
//!   chaos schedules that kill a supervised session at an arbitrary call;
//! * [`sanitize`] — seed-driven memory-*unsafe* MiniC programs and the
//!   static ⊇ runtime superset oracle tying the `analysis` crate's
//!   findings to the VM sanitizer's traps;
//! * [`shrink`](mod@shrink) — a delta-debugging reducer over the generator AST, and
//!   the committed reproducer corpus under `tests/corpus/`.
//!
//! Counters land under `conformance.*` in the obs registry the driver is
//! built with.

pub mod diff;
pub mod fault;
pub mod gen;
pub mod rng;
pub mod sanitize;
pub mod shrink;

pub use diff::{ChaosOutcome, Divergence, Driver};
pub use fault::{
    chaos_wrapper, counting_wrapper, dead_wrapper, ChaosFault, ChaosPlan, ChaosState, FaultKind,
    FaultTransport,
};
pub use sanitize::{gen_unsafe_c, superset_oracle, OracleReport};
pub use shrink::{shrink, CheckKind, CorpusEntry};

use std::path::PathBuf;
use std::process::Command;

/// Locates the `mi_server` binary for process-backed differential runs,
/// building it with cargo if it is not there yet.
///
/// Walks up from the test executable to the enclosing `target/` directory
/// first (CI builds the binary explicitly, so this is the common path),
/// then falls back to `cargo build -p mi --bin mi_server`.
pub fn mi_server_bin() -> Option<PathBuf> {
    if let Some(found) = locate_built() {
        return Some(found);
    }
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["build", "-p", "mi", "--bin", "mi_server"]);
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    let status = cmd.status().ok()?;
    if !status.success() {
        return None;
    }
    locate_built()
}

fn locate_built() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = format!("mi_server{}", std::env::consts::EXE_SUFFIX);
    for dir in exe.ancestors() {
        if dir.file_name().is_some_and(|n| n == "target") {
            for profile in ["debug", "release"] {
                let candidate = dir.join(profile).join(&bin);
                if candidate.is_file() {
                    return Some(candidate);
                }
            }
        }
        // The test binary itself lives in target/<profile>/deps/.
        let sibling = dir.join(&bin);
        if sibling.is_file() {
            return Some(sibling);
        }
    }
    None
}
