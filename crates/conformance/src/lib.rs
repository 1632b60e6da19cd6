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
use std::sync::OnceLock;

/// Locates the `mi_server` binary of the running build's profile for
/// process-backed differential runs, built fresh from the current source.
///
/// The first call runs `cargo build -p mi --bin mi_server` (with
/// `--release` in an optimized build), which is cheap when the binary is
/// up to date, so a test never spawns a server built from older source.
/// It then takes only that profile's binary, from the target directory
/// the running executable was built in. `None` when the build fails.
pub fn mi_server_bin() -> Option<PathBuf> {
    static BUILT: OnceLock<Option<PathBuf>> = OnceLock::new();
    BUILT
        .get_or_init(|| {
            let mut cmd = Command::new(env!("CARGO"));
            cmd.args(["build", "--quiet", "-p", "mi", "--bin", "mi_server"]);
            if !cfg!(debug_assertions) {
                cmd.arg("--release");
            }
            if !cmd.status().ok()?.success() {
                return None;
            }
            locate_built()
        })
        .clone()
}

fn locate_built() -> Option<PathBuf> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let bin = format!("mi_server{}", std::env::consts::EXE_SUFFIX);
    // The running executable lives under `<target>/<profile>/` (in
    // `deps/` for a test, `examples/` for an example).
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .find(|dir| dir.file_name().is_some_and(|n| n == profile))
        .map(|dir| dir.join(bin))
        .filter(|candidate| candidate.is_file())
}
