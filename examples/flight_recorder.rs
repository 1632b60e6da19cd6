//! The cross-process telemetry plane, end to end, against a real
//! `mi-server` child process:
//!
//! 1. run a session over OS pipes with trace contexts stamped on every
//!    command frame;
//! 2. estimate the engine↔tracker clock offset from Ping roundtrips and
//!    drain the engine's registry (counters, gauges, spans) back over
//!    `Command::Telemetry`;
//! 3. write one merged Chrome trace with two process lanes — open
//!    `merged.trace.json` in Perfetto and the engine's `vm.minic.exec`
//!    spans sit *inside* the tracker control spans that caused them;
//! 4. SIGKILL the engine mid-session, let the supervisor respawn it, and
//!    print the post-mortem flight-recorder dump the death left behind.
//!
//! Run with: `cargo run --example flight_recorder`

use easytracker::{MiTracker, PauseReason, ProgramSpec, Supervision, Tracker};
use std::sync::Arc;
use std::time::Duration;

const C_PROG: &str = "\
int fib(int n) {
if (n < 2) { return n; }
return fib(n - 1) + fib(n - 2);
}
int main() {
int r = fib(10);
printf(\"fib(10) = %d\\n\", r);
return r;
}
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let Some(server) = conformance::mi_server_bin() else {
        eprintln!("mi_server binary not found or buildable; build the workspace first");
        std::process::exit(1);
    };

    // Tracker-side spans land in an export ring so they can be merged
    // with the engine's lane later.
    let registry = obs::Registry::new();
    let tracker_sink = Arc::new(obs::ExportSink::new(8192));
    registry.add_sink(tracker_sink.clone());

    let mut t = MiTracker::load_spec(
        ProgramSpec::new("fib.c", C_PROG).via_server(&server),
        registry.clone(),
        Supervision::default(),
        None,
    )?;
    t.set_dump_dir(std::env::temp_dir());

    let offset = t.sync_clock(8)?.unwrap_or(0);
    println!(
        "engine pid {} | clock offset (engine − tracker): {offset}us",
        t.engine_pid().unwrap_or(0)
    );

    t.start()?;
    t.track_function("fib", None)?;
    let mut pauses = 0u32;
    loop {
        match t.resume()? {
            PauseReason::Exited(_) => break,
            PauseReason::FunctionCall { .. } if pauses == 20 => {
                // Mid-session engine murder: the supervisor respawns the
                // engine, replays the journal, and the session continues
                // as if nothing happened — but a post-mortem dump of the
                // death is written.
                let pid = t.engine_pid().expect("process deployment has a pid");
                println!("SIGKILLing engine pid {pid} mid-session...");
                let _ = std::process::Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
                std::thread::sleep(Duration::from_millis(100));
                pauses += 1;
            }
            _ => pauses += 1,
        }
    }
    let output = t.get_output()?;
    print!("{output}");
    println!(
        "session finished: {pauses} pauses, exit {:?}, {} respawn(s)",
        t.get_exit_code(),
        t.respawns()
    );

    // Drain the (respawned) engine's telemetry and merge both lanes.
    t.drain_telemetry()?;
    let snap = registry.snapshot();
    println!(
        "engine-side (drained over MI): {} VM ops, {} Resume commands served",
        snap.gauge("engine.vm.minic.ops"),
        snap.gauge("engine.mi.server.cmd.Resume"),
    );

    let (tracker_events, _, _) = tracker_sink.since(0);
    let path = std::path::Path::new("merged.trace.json");
    t.write_merged_trace(path, &tracker_events)?;
    println!(
        "wrote {} tracker + {} engine events to {} — two process lanes, one timeline",
        tracker_events.len(),
        t.engine_trace_events().len(),
        path.display()
    );

    // The kill above left a post-mortem behind; show where and what.
    let dump_path = t
        .last_flight_dump()
        .expect("the engine death wrote a flight dump")
        .to_path_buf();
    let dump =
        obs::FlightDump::from_json(&std::fs::read_to_string(&dump_path)?).expect("dump parses");
    println!("\nflight-recorder dump: {}", dump_path.display());
    println!(
        "  reason: {} | last command: {} | last pause: {} | respawns: {}",
        dump.reason, dump.last_command, dump.last_pause, dump.respawns
    );
    for entry in dump.log.entries.iter().rev().take(5).rev() {
        println!(
            "  [{:>8}us] {:<8} {}",
            entry.at_us, entry.kind, entry.detail
        );
    }
    t.terminate();
    Ok(())
}
