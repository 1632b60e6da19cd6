//! Regression tests for MI-boundary fault tolerance.
//!
//! Each test pins down a failure mode the conformance fault injector
//! exercises: truncated frames, corrupted bytes, duplicated frames, and
//! a link dropped mid-command. The client/server pair must surface every
//! one as a typed [`MiError`] or [`Response::Error`] — never a panic, a
//! hang, or a silent desync — and the session must recover when the
//! command is re-issued.

use mi::protocol::{Command, Response};
use mi::transport::{duplex, ChannelTransport, FrameRx, FrameTx};
use mi::{minic_engine::MinicEngine, Client, MiError, Server};
use state::PauseReason;

/// What the proxy does to the n-th received frame.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Cut the frame's payload in half.
    Truncate,
    /// Flip bits in the middle of the payload.
    Corrupt,
    /// Deliver the frame, then deliver it again on the next receive.
    Duplicate,
    /// Report a dropped link for this receive; the frame is delivered
    /// (stale) on the next receive, as if the peer resent its buffer.
    DropLink,
    /// Surface a transport-level codec error (e.g. a corrupted length
    /// prefix caught by the framing layer).
    CodecError,
}

/// Deterministic single-fault proxy around any transport.
struct Proxy<T> {
    inner: T,
    recv_count: usize,
    fault_at: usize,
    fault: Fault,
    queued: Option<Vec<u8>>,
}

impl<T> Proxy<T> {
    fn new(inner: T, fault_at: usize, fault: Fault) -> Self {
        Proxy {
            inner,
            recv_count: 0,
            fault_at,
            fault,
            queued: None,
        }
    }
}

impl<T: FrameTx> FrameTx for Proxy<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        self.inner.send(frame)
    }

    fn framing(&self) -> u64 {
        self.inner.framing()
    }
}

impl<T: FrameRx> FrameRx for Proxy<T> {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        if let Some(frame) = self.queued.take() {
            return Ok(frame);
        }
        self.recv_count += 1;
        if self.recv_count != self.fault_at {
            return self.inner.recv();
        }
        match self.fault {
            Fault::CodecError => Err(MiError::Codec("injected framing fault".into())),
            Fault::Truncate => {
                let mut frame = self.inner.recv()?;
                frame.truncate(frame.len() / 2);
                Ok(frame)
            }
            Fault::Corrupt => {
                let mut frame = self.inner.recv()?;
                let mid = frame.len() / 2;
                if let Some(b) = frame.get_mut(mid) {
                    *b ^= 0xFF;
                }
                Ok(frame)
            }
            Fault::Duplicate => {
                let frame = self.inner.recv()?;
                self.queued = Some(frame.clone());
                Ok(frame)
            }
            Fault::DropLink => {
                let frame = self.inner.recv()?;
                self.queued = Some(frame);
                Err(MiError::Disconnected)
            }
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }
}

const PROG: &str = "int main() {\nint x = 1;\nx = x + 1;\nreturn x;\n}";

fn spawn_engine<T: FrameTx + FrameRx + 'static>(endpoint: T) -> std::thread::JoinHandle<()> {
    let program = minic::compile("f.c", PROG).unwrap();
    std::thread::spawn(move || {
        let _ = Server::new(MinicEngine::new(&program), endpoint).serve();
    })
}

/// Builds a client whose *receive* path injects `fault` on frame number
/// `fault_at`, backed by a real MiniC engine.
fn faulty_client(
    fault_at: usize,
    fault: Fault,
) -> (Client<Proxy<ChannelTransport>>, std::thread::JoinHandle<()>) {
    let (a, b) = duplex();
    let handle = spawn_engine(b);
    (Client::new(Proxy::new(a, fault_at, fault)), handle)
}

fn finish(mut client: Client<impl FrameTx + FrameRx>, handle: std::thread::JoinHandle<()>) {
    client.call(Command::Terminate).unwrap();
    handle.join().unwrap();
}

#[test]
fn truncated_response_is_a_typed_error_and_the_session_recovers() {
    let (mut client, handle) = faulty_client(2, Fault::Truncate);
    assert!(matches!(
        client.call(Command::Start),
        Ok(Response::Paused(_))
    ));
    match client.call(Command::GetState) {
        Err(MiError::Codec(_)) => {}
        other => panic!("expected codec error for the truncated frame, got {other:?}"),
    }
    // Re-issuing the command works: the mangled frame was consumed.
    assert!(matches!(
        client.call(Command::GetState),
        Ok(Response::State(_))
    ));
    finish(client, handle);
}

#[test]
fn corrupted_response_is_a_typed_error_and_the_session_recovers() {
    let (mut client, handle) = faulty_client(2, Fault::Corrupt);
    client.call(Command::Start).unwrap();
    match client.call(Command::GetState) {
        Err(MiError::Codec(_)) => {}
        other => panic!("expected codec error for the corrupted frame, got {other:?}"),
    }
    assert!(matches!(
        client.call(Command::GetState),
        Ok(Response::State(_))
    ));
    finish(client, handle);
}

#[test]
fn duplicated_response_is_discarded_by_sequence_number() {
    let reg = obs::Registry::new();
    let (a, b) = duplex();
    let handle = spawn_engine(b);
    let mut client = Client::with_registry(Proxy::new(a, 1, Fault::Duplicate), reg.clone());
    // The duplicated Start response must not be mistaken for the answer
    // to the next command.
    assert!(matches!(
        client.call(Command::Start),
        Ok(Response::Paused(PauseReason::Started))
    ));
    assert_eq!(
        client.call(Command::GetExitCode).unwrap(),
        Response::ExitCode(None)
    );
    finish(client, handle);
    assert_eq!(reg.snapshot().counter("mi.client.stale_frames"), 1);
}

#[test]
fn link_drop_mid_command_is_typed_and_the_resent_frame_is_skipped() {
    let (mut client, handle) = faulty_client(2, Fault::DropLink);
    client.call(Command::Start).unwrap();
    // The link "drops" while waiting for this response.
    assert_eq!(client.call(Command::Step), Err(MiError::Disconnected));
    // On reconnect the stale response for the failed command surfaces
    // first; the sequence number identifies and discards it, so the
    // re-issued command gets *its own* answer, not the stale one.
    match client.call(Command::GetVariable { name: "x".into() }) {
        Ok(Response::Variable(_)) => {}
        other => panic!("expected the re-issued command's response, got {other:?}"),
    }
    finish(client, handle);
}

#[test]
fn transport_codec_fault_on_the_server_side_keeps_it_serving() {
    // The *server's* receive path reports a framing fault (what a
    // corrupted length prefix produces). The server must answer with a
    // typed error and keep serving rather than tearing the session down.
    let (a, b) = duplex();
    let handle = spawn_engine(Proxy::new(b, 2, Fault::CodecError));
    let mut client = Client::new(a);
    client.call(Command::Start).unwrap();
    match client.call(Command::GetState) {
        Ok(Response::Error { message }) => {
            assert!(message.contains("unreadable frame"), "{message}")
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    assert!(matches!(
        client.call(Command::GetState),
        Ok(Response::State(_))
    ));
    finish(client, handle);
}

#[test]
fn corrupted_command_at_the_server_is_answered_not_fatal() {
    let (a, b) = duplex();
    let handle = spawn_engine(Proxy::new(b, 2, Fault::Corrupt));
    let mut client = Client::new(a);
    client.call(Command::Start).unwrap();
    match client.call(Command::Step) {
        Ok(Response::Error { message }) => {
            assert!(message.contains("malformed command"), "{message}")
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    // Re-issue: the engine is still alive and still paused at the start.
    assert!(matches!(
        client.call(Command::Step),
        Ok(Response::Paused(PauseReason::Step))
    ));
    finish(client, handle);
}
