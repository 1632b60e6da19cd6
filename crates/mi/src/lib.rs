//! The machine-interface (MI) layer: the GDB/MI analogue of the
//! EasyTracker reproduction.
//!
//! The paper's GDB tracker (Fig. 4) runs GDB as a subprocess in MI mode and
//! exchanges serialized commands and state over a pipe. This crate
//! reproduces that architecture:
//!
//! * [`protocol`] — the command/response vocabulary, serde-serializable;
//! * [`transport`] — framed byte transports; [`transport::duplex`] builds
//!   the in-process analogue of the OS pipe (bytes really are serialized,
//!   framed, sent, and parsed on the other side);
//! * [`server`] — [`server::Server`] serves one engine on its connection
//!   thread, [`server::Client`] is the tracker-side stub;
//! * [`host`] — the session core both servers share, and the
//!   multi-session [`SessionHost`] that drives it from a worker pool;
//! * [`minic_engine`] — wraps the MiniC VM: breakpoints (line and
//!   function-with-`maxdepth`), function tracking with pause-before-return,
//!   watchpoints driven by store events, step/next/finish;
//! * [`asm_engine`] — the same contract over the RISC-V simulator, with a
//!   shadow call stack for function tracking and register/memory access;
//! * [`py_engine`] — the MiniPy interpreter on its own inferior thread
//!   with a `settrace`-style hook (paper Fig. 5); a control command
//!   blocks until the inferior pauses;
//! * [`record`] — the replay engine over a recorded trace, and the
//!   recording wrapper every spawned session carries.
//!
//! The three live engines are adapters over one control core that owns
//! their control points, fuel slices, budgets and engine-agnostic
//! commands, and decides every pause; the replay engine decides its
//! pauses through it too. The core is private to this crate.
//!
//! # Examples
//!
//! ```
//! use mi::{spawn_minic, protocol::{Command, Response}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = minic::compile("t.c", "int main() { return 40 + 2; }")?;
//! let mut session = spawn_minic(&program);
//! session.client.call(Command::Start)?;
//! let reply = session.client.call(Command::Resume)?;
//! match reply {
//!     Response::Paused(reason) => assert_eq!(reason.to_string(), "exited (42)"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! session.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod asm_engine;
mod control;
pub mod host;
pub mod minic_engine;
pub mod protocol;
pub mod py_engine;
pub mod record;
pub mod server;
pub mod transport;

pub use host::{HostConfig, HostHandle, SessionHandle, SessionHost, DEFAULT_SLICE_STEPS};
pub use protocol::{Command, CommandFrame, ResourceKind, Response, ResponseFrame};
pub use record::{RecordingEngine, ReplayEngine, TraceShelf};
pub use server::{Client, CommandPort, Engine, ServeEnd, Server, SliceOutcome};
pub use transport::MAX_FRAME_LEN;

use std::fmt;
use std::io::Read;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Errors at the MI layer (transport failures, protocol violations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiError {
    /// The peer hung up.
    Disconnected,
    /// No response arrived within the caller's deadline. The session
    /// itself may still be alive: the sequence-numbered envelope lets a
    /// later call discard whatever late answer eventually lands.
    Timeout,
    /// A frame failed to encode/decode.
    Codec(String),
    /// The engine reported an error.
    Engine(String),
    /// The engine *process* is gone: the supervisor confirmed the child
    /// exited (as opposed to a transport hiccup).
    EngineDied {
        /// The child's exit code, when the OS reported one.
        exit: Option<i32>,
        /// Whatever the child wrote to stderr before dying.
        stderr: String,
    },
    /// A session host refused to open a session: `load` of its `limit`
    /// sessions are open. Nothing was opened; the caller may retry later.
    Overloaded {
        /// Sessions open when the host refused.
        load: u64,
        /// The host's session cap.
        limit: u64,
    },
}

impl fmt::Display for MiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiError::Disconnected => write!(f, "machine-interface peer disconnected"),
            MiError::Timeout => write!(f, "machine-interface call exceeded its deadline"),
            MiError::Codec(m) => write!(f, "machine-interface codec error: {m}"),
            MiError::Engine(m) => write!(f, "engine error: {m}"),
            MiError::EngineDied { exit, stderr } => {
                match exit {
                    Some(code) => write!(f, "engine process died (exit code {code})")?,
                    None => write!(f, "engine process died (killed by signal)")?,
                }
                if !stderr.trim().is_empty() {
                    write!(f, "; stderr: {}", stderr.trim())?;
                }
                Ok(())
            }
            MiError::Overloaded { load, limit } => {
                write!(f, "host overloaded: {load}/{limit} sessions open")
            }
        }
    }
}

impl std::error::Error for MiError {}

/// Most bytes of a child's stderr that [`tail_stderr`] keeps.
const STDERR_TAIL_CAP: usize = 16 * 1024;

/// Drains a child's stderr on a thread into a rolling tail of its last
/// 16 KiB, so engine diagnostics (the last-gasp flight ring among them)
/// survive the child and can be attached to [`MiError::EngineDied`].
///
/// The tail is cut at a character boundary, and a character split
/// across two reads is decoded whole; bytes that are not UTF-8 are
/// replaced.
pub fn tail_stderr(mut stderr: impl Read + Send + 'static) -> Arc<Mutex<String>> {
    let tail = Arc::new(Mutex::new(String::new()));
    let sink = Arc::clone(&tail);
    let _ = std::thread::Builder::new()
        .name("mi-stderr-tail".into())
        .spawn(move || {
            let mut buf = [0u8; 4096];
            let mut pending = Vec::new();
            loop {
                match stderr.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => pending.extend_from_slice(&buf[..n]),
                }
                // Hold back the start of a character the next read ends.
                let whole = match std::str::from_utf8(&pending) {
                    Err(e) if e.error_len().is_none() => e.valid_up_to(),
                    _ => pending.len(),
                };
                let mut tail = sink.lock().expect("stderr tail");
                tail.push_str(&String::from_utf8_lossy(&pending[..whole]));
                pending.drain(..whole);
                if tail.len() > STDERR_TAIL_CAP {
                    let mut cut = tail.len() - STDERR_TAIL_CAP;
                    while !tail.is_char_boundary(cut) {
                        cut += 1;
                    }
                    tail.drain(..cut);
                }
            }
        });
    tail
}

/// A running engine session: the client stub plus the server thread handle.
pub struct Session {
    /// Tracker-side stub; send commands through it.
    pub client: Client<transport::ChannelTransport>,
    handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl Session {
    /// Sends `Terminate` (best effort, bounded) and joins the server
    /// thread — but only when Terminate was acknowledged; a wedged engine
    /// is detached instead of blocking the caller forever.
    pub fn shutdown(mut self) {
        let acked = self
            .client
            .call_deadline(Command::Terminate, Some(Duration::from_secs(2)))
            .is_ok();
        if let Some(h) = self.handle.take() {
            if acked {
                let _ = h.join();
            }
        }
    }

    /// Splits the session into its client stub and server thread handle,
    /// skipping the Drop-side Terminate. The supervisor uses this to own
    /// the two halves separately (the client goes behind a [`CommandPort`]
    /// chain, the handle into the backend bookkeeping).
    pub fn into_parts(mut self) -> (Client<transport::ChannelTransport>, Option<JoinHandle<()>>) {
        let handle = self.handle.take();
        let (dummy, _gone) = transport::duplex();
        let client = std::mem::replace(&mut self.client, Client::new(dummy));
        (client, handle)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Destructors must not fail or block indefinitely: fire Terminate
        // (bounded) and detach if the user did not call `shutdown`.
        if self.handle.take().is_some() {
            let _ = self
                .client
                .call_deadline(Command::Terminate, Some(Duration::from_secs(2)));
        }
    }
}

/// Spawns a MiniC engine on its own thread (the "GDB subprocess" analogue)
/// and returns the connected session.
pub fn spawn_minic(program: &minic::Program) -> Session {
    spawn_minic_engine(minic_engine::MinicEngine::new(program), None)
}

/// Like [`spawn_minic`], but client, server, and engine all report into
/// `registry`: roundtrip latencies and byte gauges on the client side,
/// per-command counters on the server side, and `vm.minic.*` execution
/// stats from the engine.
pub fn spawn_minic_with_registry(program: &minic::Program, registry: obs::Registry) -> Session {
    spawn_minic_engine(minic_engine::MinicEngine::new(program), Some(registry))
}

/// Like [`spawn_minic_with_registry`], running `program` optimized at
/// `opt` (0 = unchanged). The optimizer is observation-preserving, so the
/// session behaves identically through the MI surface at every level.
///
/// # Errors
///
/// Returns the verifier's findings when the program or any optimization
/// pass's output fails bytecode verification.
pub fn spawn_minic_opt_with_registry(
    program: &minic::Program,
    opt: u8,
    registry: obs::Registry,
) -> Result<Session, String> {
    let engine = minic_engine::MinicEngine::with_opt(program, opt)?;
    Ok(spawn_minic_engine(engine, Some(registry)))
}

fn spawn_minic_engine(
    mut engine: minic_engine::MinicEngine,
    registry: Option<obs::Registry>,
) -> Session {
    if let Some(reg) = &registry {
        engine.set_registry(reg.clone());
    }
    spawn_engine("mi-minic-engine", engine, registry)
}

/// Spawns a RISC-V engine on its own thread and returns the session.
pub fn spawn_asm(program: &miniasm::asm::AsmProgram) -> Session {
    spawn_asm_inner(program, None)
}

/// Like [`spawn_asm`], but client, server, and engine all report into
/// `registry` (engine stats appear as `vm.miniasm.*`).
pub fn spawn_asm_with_registry(
    program: &miniasm::asm::AsmProgram,
    registry: obs::Registry,
) -> Session {
    spawn_asm_inner(program, Some(registry))
}

fn spawn_asm_inner(program: &miniasm::asm::AsmProgram, registry: Option<obs::Registry>) -> Session {
    let mut engine = asm_engine::AsmEngine::new(program);
    if let Some(reg) = &registry {
        engine.set_registry(reg.clone());
    }
    spawn_engine("mi-asm-engine", engine, registry)
}

/// Serves `engine` on a thread named `name` (the "GDB subprocess"
/// analogue), wrapped so every session can record (the wrapper is inert
/// until `Record`), and returns the connected session.
fn spawn_engine<E: Engine + Send + 'static>(
    name: &str,
    engine: E,
    registry: Option<obs::Registry>,
) -> Session {
    let (a, b) = transport::duplex();
    let engine = record::RecordingEngine::new(engine);
    let server_reg = registry.clone();
    let handle = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let mut server = match server_reg {
                Some(reg) => Server::with_registry(engine, b, reg),
                None => Server::new(engine, b),
            };
            let _ = server.serve();
        })
        .expect("spawn engine thread");
    let client = match registry {
        Some(reg) => Client::with_registry(a, reg),
        None => Client::new(a),
    };
    Session {
        client,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn stderr_tail_keeps_whole_characters_from_the_end() {
        // 18 KiB of three-byte characters: reads and the trim both land
        // inside characters unless they are careful.
        let mut input = "→".repeat(6000);
        input.push_str("\nlast words\n");
        let tail = tail_stderr(std::io::Cursor::new(input.clone().into_bytes()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&tail) > 1 {
            assert!(Instant::now() < deadline, "tail thread did not finish");
            std::thread::sleep(Duration::from_millis(5));
        }
        let tail = tail.lock().unwrap();
        assert!(tail.len() <= STDERR_TAIL_CAP);
        assert!(
            tail.len() > STDERR_TAIL_CAP - 4,
            "kept {} bytes",
            tail.len()
        );
        assert!(
            input.ends_with(tail.as_str()),
            "tail is not the input's end"
        );
    }
}
