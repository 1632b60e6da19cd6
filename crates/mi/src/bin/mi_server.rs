//! `mi-server` — serves a debugger engine for one inferior over
//! stdin/stdout, one JSON frame per line.
//!
//! This is the paper's deployment shape made literal: the tracker runs
//! `mi-server <program>` as a child process and talks to it through real
//! OS pipes, exactly as its GDB tracker runs `gdb --interpreter=mi`.
//!
//! ```text
//! mi-server prog.c          # MiniC engine
//! mi-server prog.s          # RISC-V engine
//! mi-server /tmp/x.c p.c    # read /tmp/x.c, report locations as `p.c`
//! ```
//!
//! The optional second argument is the *logical* file name used in
//! reported source locations. Trackers that ship a program via a
//! temporary file pass the original name here so state snapshots are
//! byte-identical to an in-process run of the same program.
//!
//! The server hosts its own [`obs::Registry`]: engine/VM spans and stats
//! accumulate here (tagged with trace contexts propagated in command
//! frames) and drain back to the tracker over `Command::Telemetry`. It
//! also keeps an always-on flight recorder of served commands; on an
//! abnormal end — transport failure or panic — the recorder's ring is
//! printed as one marked stderr line, which the tracker's stderr tail
//! capture carries into the post-mortem dump.

use mi::transport::{StreamFrameRx, StreamFrameTx, StreamTransport};
use mi::{asm_engine::AsmEngine, minic_engine::MinicEngine, Server, SessionHost};
use std::io::{stdin, stdout, Read};

fn usage() -> String {
    format!(
        "usage: mi-server <program.c|program.s> [logical-name] [--opt N]\n       \
         mi-server --host [--workers N] [--max-sessions N] [--slice-steps N]\n\
         \n\
         solo options:\n  \
         --opt N            optimization level for MiniC programs (default 0);\n                     \
         the optimizer is observation-preserving and verified\n                     \
         before and after every pass\n\
         \n\
         host options:\n  \
         --workers N        worker threads driving the run queue (default 4)\n  \
         --max-sessions N   hard cap on open sessions; opens past it are\n                     \
         rejected with the retryable Overloaded response\n  \
         --slice-steps N    fuel per engine slice in engine steps: MiniC VM\n                     \
         ops or retired RISC-V instructions (default {}); 0\n                     \
         disables preemption (a hot loop then pins a worker)",
        mi::DEFAULT_SLICE_STEPS
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    if path == "--help" || path == "-h" {
        println!("{}", usage());
        return;
    }
    if path == "--host" {
        host_main(args);
        return;
    }
    let mut logical = None;
    let mut opt: u8 = 0;
    let mut rest = args;
    while let Some(arg) = rest.next() {
        if arg == "--opt" {
            opt = rest.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| {
                eprintln!("mi-server: --opt takes a small non-negative integer");
                std::process::exit(2);
            });
        } else if logical.is_none() {
            logical = Some(arg);
        } else {
            eprintln!("mi-server: unexpected argument {arg}");
            std::process::exit(2);
        }
    }
    // `-` reads the program from a leading source block on stdin is not
    // supported (frames own stdin); require a file path.
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mi-server: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let registry = obs::Registry::new();
    let flight = obs::FlightRecorder::new(256);
    // A panicking engine must still get its last gasp out: the default
    // hook prints the panic, ours prepends the flight ring.
    let hook_flight = flight.clone();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        eprintln!("{}", hook_flight.last_gasp_line());
        default_hook(info);
    }));
    let name = logical.as_deref().unwrap_or(&path);
    let transport = StreamTransport::new(LockedStdin, stdout());
    let end = if name.ends_with(".s") || name.ends_with(".asm") {
        let program = match miniasm::asm::assemble(name, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("mi-server: {e}");
                std::process::exit(1);
            }
        };
        let mut engine = AsmEngine::new(&program);
        engine.set_registry(registry.clone());
        let engine = mi::RecordingEngine::new(engine);
        let mut server = Server::with_telemetry(engine, transport, registry);
        server.set_flight_recorder(flight.clone());
        server.serve()
    } else {
        let program = match minic::compile(name, &source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("mi-server: {e}");
                std::process::exit(1);
            }
        };
        let mut engine = match MinicEngine::with_opt(&program, opt) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("mi-server: optimizer rejected the program:\n{e}");
                std::process::exit(1);
            }
        };
        engine.set_registry(registry.clone());
        let engine = mi::RecordingEngine::new(engine);
        let mut server = Server::with_telemetry(engine, transport, registry);
        server.set_flight_recorder(flight.clone());
        server.serve()
    };
    // Never end silently on a broken boundary: a supervisor watching this
    // process must be able to tell "session finished" (exit 0) from "the
    // transport failed mid-session" (exit 3 + diagnostic). The last-gasp
    // line rides the same stderr capture into the tracker's post-mortem.
    if let Err(e) = end {
        eprintln!("{}", flight.last_gasp_line());
        eprintln!("mi-server: transport failure: {e}");
        std::process::exit(3);
    }
}

/// `mi-server --host [--workers N] [--max-sessions N] [--slice-steps N]`:
/// the multi-session mode. Programs
/// arrive inside `OpenSession` frames (no filesystem involved), many
/// sessions multiplex over the one stdio connection, and a worker pool
/// drives them. Exits 0 when the peer closes stdin — a connection
/// dying is a *per-session* end under the host, never the exit-3
/// transport-failure path of the single-session mode.
fn host_main(mut args: impl Iterator<Item = String>) {
    let mut config = mi::HostConfig::default();
    let numeric = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|w| w.parse().ok()).unwrap_or_else(|| {
            eprintln!("mi-server: {flag} takes a non-negative integer");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                config.workers = numeric(&mut args, "--workers").max(1) as usize;
            }
            "--max-sessions" => {
                config.max_sessions = Some(numeric(&mut args, "--max-sessions") as usize);
            }
            "--slice-steps" => {
                // 0 = unsliced: run every control command to its next
                // pause, the pre-governance behavior.
                let fuel = numeric(&mut args, "--slice-steps");
                config.slice_steps = (fuel > 0).then_some(fuel);
            }
            other => {
                eprintln!("mi-server: unknown host option {other}");
                std::process::exit(2);
            }
        }
    }
    let host = SessionHost::with_config(config, obs::Registry::new());
    let conn = host.accept(
        StreamFrameRx::new(LockedStdin),
        StreamFrameTx::new(stdout()),
    );
    conn.join();
    host.shutdown();
}

/// `Stdin` is not `Read` by value without locking games; a tiny adapter.
struct LockedStdin;

impl Read for LockedStdin {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        stdin().lock().read(buf)
    }
}
