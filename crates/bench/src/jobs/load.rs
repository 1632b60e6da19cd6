//! `bench sessions` and `bench overload`: many concurrent supervised
//! sessions through ONE session host.
//!
//! Each session is a full `MiTracker` (supervision, journal, flight
//! recorder) deployed via `ProgramSpec::via_host` and driven through a
//! teaching-tool script ([`bench::LoadSession`]). A small pool of driver
//! threads advances its sessions round-robin, one command per pass — so
//! at any instant the host holds *all* sessions open (mostly parked)
//! while a bounded number of commands are in flight, exactly the shape
//! of a classroom of debugger frontends sharing one backend. Pause
//! latency is that of the control commands (start/step/resume).

use bench::{drive_pool, write_report, Flags, Host, LoadSession, Script, Verdict};
use easytracker::{MiTracker, ProgramSpec, Supervision, Tracker, TrackerError};
use mi::HostHandle;
use serde_json::json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// `bench sessions`: hundreds-to-thousands of sessions over programs
/// produced by the conformance generators plus the fixed fib workload,
/// the three [`Script`]s assigned round-robin. Reports p50/p95/p99
/// pause latency, command throughput and sessions per host worker core.
///
/// `--check MS` fails when p99 pause latency exceeds `MS` milliseconds.
pub fn sessions(flags: &Flags) -> Verdict {
    let sessions = flags.int("--sessions").unwrap_or(1000) as usize;
    let workers = flags.int("--workers").unwrap_or(4) as usize;
    let drivers = (flags.int("--drivers").unwrap_or(8) as usize).clamp(1, sessions.max(1));
    let ops = flags.int("--ops").unwrap_or(12) as u32;

    let host = Host::open(workers);
    eprintln!(
        "bench sessions: {sessions} sessions x {ops} ops, {workers} host workers, \
         {drivers} drivers, over {}",
        host.deployment
    );

    // Phase 1: open every session (compile + session-table insert).
    let open_begin = Instant::now();
    let all: Vec<LoadSession> = (0..sessions)
        .map(|i| {
            let script = [Script::StepInspect, Script::Breakpoint, Script::TrackCalls][i % 3];
            LoadSession::open(&host.handle, script, 0x5e55, i, ops)
        })
        .collect();
    let open_elapsed = open_begin.elapsed();
    eprintln!(
        "bench sessions: {sessions} sessions open in {}ms",
        open_elapsed.as_millis()
    );

    // Phase 2: drive them all concurrently from the driver pool.
    let drive = drive_pool(all, drivers, 0, |_| {});
    let pause = &drive.pauses;
    let [p50_us, p95_us, p99_us] = [0.50, 0.95, 0.99].map(|q| pause.quantile(q) / 1_000);
    let throughput = drive.commands as f64 / drive.elapsed.as_secs_f64();
    let sessions_per_core = sessions as f64 / workers as f64;

    println!(
        "{sessions} sessions | pause p50 {p50_us}us p95 {p95_us}us p99 {p99_us}us | \
         {throughput:.0} cmd/s | {sessions_per_core:.1} sessions/core"
    );
    write_report(
        "sessions",
        &json!({
            "workload": "step/inspect/breakpoint teaching-tool mix (conformance-generated + fib)",
            "deployment": host.deployment,
            "sessions": sessions,
            "ops_per_session": ops,
            "host_workers": workers,
            "driver_threads": drivers,
            "open_ms": open_elapsed.as_millis() as u64,
            "drive_ms": drive.elapsed.as_millis() as u64,
            "commands": drive.commands,
            "commands_per_sec": format!("{throughput:.0}"),
            "pause_count": pause.count(),
            "pause_p50_us": p50_us,
            "pause_p95_us": p95_us,
            "pause_p99_us": p99_us,
            "pause_max_us": pause.max() / 1_000,
            "sessions_per_core": format!("{sessions_per_core:.1}"),
        }),
    );

    let mut verdict = Verdict::default();
    if let Some(budget_ms) = flags.int("--check") {
        verdict.latency_within("p99 pause latency", p99_us, budget_ms);
    }
    verdict
}

/// A loop no step budget used here lets finish.
const HOT_PROG: &str = "int main() {\n\
                        int i = 0;\n\
                        while (i < 2000000000) {\n\
                        i = i + 1;\n\
                        }\n\
                        return i;\n\
                        }\n";

/// Steps each abuser incarnation burns before its typed stop. Big
/// enough to span many preemption slices, small enough that abuse
/// cycles (exhaust → re-open) recur throughout the measured phase.
const ABUSE_BUDGET: u64 = 2_000_000;

/// One abuser thread: hot loop under a step budget, typed exhaustion,
/// re-open, repeat until `done`.
fn abuse(host: &HostHandle, done: &AtomicBool, exhaustions: &AtomicU64, untyped: &AtomicU64) {
    while !done.load(Ordering::Relaxed) {
        let spec = ProgramSpec::new("hot.c", HOT_PROG).via_host(host);
        let mut t =
            match MiTracker::load_spec(spec, obs::Registry::new(), Supervision::default(), None) {
                Ok(t) => t,
                Err(_) => {
                    untyped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            };
        t.set_dump_dir("flight-dumps");
        if t.set_limits(Some(ABUSE_BUDGET), None, None, None).is_err() {
            untyped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let _ = t.start();
        match t.resume() {
            Err(TrackerError::ResourceExhausted { .. }) => {
                exhaustions.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) | Err(_) => {
                // A hot loop must not pause, exit, or fail untyped
                // inside its budget.
                untyped.fetch_add(1, Ordering::Relaxed);
            }
        }
        t.terminate();
    }
}

/// `bench overload`: what one classroom tenant pays when its neighbours
/// are hostile. A pool of innocent step/inspect sessions shares one host
/// with a fleet of abuser threads that, for the whole measured phase,
/// run the hot-loop program under a step budget, take the typed
/// `ResourceExhausted` and immediately re-open. Fuel-sliced scheduling
/// is what keeps the innocents responsive; this measures by how much.
/// Abuser trackers write their post-mortem flight dumps to
/// `flight-dumps/` so CI can archive them next to the report.
///
/// Fails when any abuser was stopped by anything other than a typed
/// verdict; with `--check MS`, also when no abuser tripped its budget
/// or the innocents' p99 pause latency exceeds `MS` milliseconds.
pub fn overload(flags: &Flags) -> Verdict {
    let sessions = flags.int("--sessions").unwrap_or(24) as usize;
    let abusers = flags.int("--abusers").unwrap_or(4) as usize;
    let workers = flags.int("--workers").unwrap_or(4) as usize;
    let drivers = (flags.int("--drivers").unwrap_or(4) as usize).clamp(1, sessions.max(1));
    let ops = flags.int("--ops").unwrap_or(40) as u32;
    std::fs::create_dir_all("flight-dumps").expect("flight-dumps dir");

    let host = Host::open(workers);
    eprintln!(
        "bench overload: {sessions} innocents x {ops} ops vs {abusers} abusers, \
         {workers} host workers, {drivers} drivers, over {}",
        host.deployment
    );

    let innocents: Vec<LoadSession> = (0..sessions)
        .map(|i| LoadSession::open(&host.handle, Script::StepInspect, 0x10ad, i, ops))
        .collect();
    let exhaustions = AtomicU64::new(0);
    let untyped = AtomicU64::new(0);
    let drive = drive_pool(innocents, drivers, abusers, |done| {
        abuse(&host.handle, done, &exhaustions, &untyped)
    });
    let exhaustions = exhaustions.load(Ordering::Relaxed);
    let untyped = untyped.load(Ordering::Relaxed);

    let pause = &drive.pauses;
    let [p50_us, p95_us, p99_us] = [0.50, 0.95, 0.99].map(|q| pause.quantile(q) / 1_000);
    let throughput = drive.commands as f64 / drive.elapsed.as_secs_f64();

    println!(
        "{sessions} innocents vs {abusers} abusers | pause p50 {p50_us}us p95 {p95_us}us \
         p99 {p99_us}us | {throughput:.0} cmd/s | {exhaustions} typed exhaustions"
    );
    write_report(
        "overload",
        &json!({
            "workload": "innocent step/inspect pool vs hot-loop abuser fleet",
            "deployment": host.deployment,
            "innocent_sessions": sessions,
            "ops_per_session": ops,
            "abuser_threads": abusers,
            "abuse_budget_steps": ABUSE_BUDGET,
            "host_workers": workers,
            "driver_threads": drivers,
            "drive_ms": drive.elapsed.as_millis() as u64,
            "commands": drive.commands,
            "commands_per_sec": format!("{throughput:.0}"),
            "abuser_exhaustions_typed": exhaustions,
            "abuser_failures_untyped": untyped,
            "pause_count": pause.count(),
            "pause_p50_us": p50_us,
            "pause_p95_us": p95_us,
            "pause_p99_us": p99_us,
            "pause_max_us": pause.max() / 1_000,
        }),
    );

    let mut verdict = Verdict::default();
    verdict.require(untyped == 0, || {
        format!("{untyped} abuser(s) stopped without a typed verdict")
    });
    if let Some(budget_ms) = flags.int("--check") {
        verdict.require(exhaustions > 0, || {
            "the abusers never tripped a budget — no overload measured".into()
        });
        verdict.latency_within("innocent p99 pause latency", p99_us, budget_ms);
    }
    verdict
}
