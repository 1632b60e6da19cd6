//! Byte transports with delimited framing.
//!
//! The paper's tracker talks to GDB through an OS pipe. [`duplex`] builds
//! the in-process analogue: two [`ChannelTransport`] endpoints connected by
//! byte channels. Frames are serialized JSON preceded by a 4-byte
//! little-endian length — the content truly leaves the sender as bytes and
//! is re-parsed by the receiver, so nothing structural can sneak across.
//!
//! Every medium is a pair of halves: a [`FrameTx`] that sends one frame per
//! call and a [`FrameRx`] that receives one. A [`Duplex`] holds the two
//! halves of one connection together; the session host keeps them apart,
//! with a reader thread on the receive half while workers share the send
//! half.
//!
//! Across a process boundary a frame is one line: [`StreamFrameTx`] hands
//! the frame and its newline to the writer in one `write_all`, so an
//! unbuffered pipe or socket (and a line-buffered stdout) carries each
//! frame in one `write` call and the reader wakes once per frame. The
//! supervised process backend talks to its `mi-server` child over a
//! [`SocketTransport`]: a Unix socket pair whose receive half is read on
//! the thread that waits for the reply, under the reply's deadline.

use crate::MiError;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Upper bound on a single frame's payload size, in bytes.
///
/// A corrupted length prefix (or a peer gone haywire) must not make the
/// receiver trust an absurd header and attempt a multi-gigabyte read:
/// every transport rejects frames whose claimed or actual size exceeds
/// this cap with a typed [`MiError::Codec`] instead.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Traffic accounting of one command stream, kept by the client envelope
/// whatever the medium.
///
/// `bytes_*` include framing overhead (length prefixes, newline
/// delimiters, a stream's `\r` before its `\n`): they measure what
/// actually crosses the wire. A frame that arrives but cannot be framed
/// or decoded still counts, in bytes and as a frame. On a connection a
/// session host multiplexes, a reply that fails framing or decoding names
/// no session, so no stream on that connection counts it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Bytes shipped to the peer, framing included.
    pub bytes_sent: u64,
    /// Bytes received from the peer, framing included.
    pub bytes_received: u64,
    /// Frames shipped to the peer.
    pub frames_sent: u64,
    /// Frames received from the peer.
    pub frames_received: u64,
}

impl TransportCounters {
    /// Total bytes in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// The send half of a connection: one frame out per call.
pub trait FrameTx: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`MiError::Disconnected`] when the peer is gone.
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError>;

    /// Bytes of framing this half puts around every frame it sends: the
    /// channel's length prefix or a stream's newline.
    fn framing(&self) -> u64;
}

/// The receive half of a connection: one frame in per call.
pub trait FrameRx: Send {
    /// Receives one frame, blocking.
    ///
    /// # Errors
    ///
    /// [`MiError::Disconnected`] when the peer is gone;
    /// [`MiError::Codec`] for a frame that arrived but could not be
    /// framed (the connection stays usable).
    fn recv(&mut self) -> Result<Vec<u8>, MiError>;

    /// Receives one frame, waiting at most `deadline`.
    ///
    /// The default ignores the deadline and blocks — a half that cannot
    /// interrupt its read (a borrowed byte stream) keeps its plain
    /// behaviour. The channel, socket and pumped halves override it; they
    /// are what the supervision layer builds on.
    ///
    /// # Errors
    ///
    /// [`MiError::Timeout`] when the deadline expires with no frame;
    /// otherwise as [`FrameRx::recv`].
    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        let _ = deadline;
        self.recv()
    }

    /// Bytes this half has taken off the wire so far, framing included.
    /// A frame that then fails framing counts too; a timeout or a
    /// disconnect adds nothing.
    fn wire_bytes(&self) -> u64;
}

/// The two halves of one connection, held together: what a
/// [`crate::Client`] or a single-session [`crate::Server`] talks through.
#[derive(Debug)]
pub struct Duplex<Tx, Rx> {
    /// The send half.
    pub tx: Tx,
    /// The receive half.
    pub rx: Rx,
}

impl<Tx, Rx> Duplex<Tx, Rx> {
    /// Splits the connection into its independently-owned halves, so one
    /// side can live on a reader thread while another thread writes — the
    /// shape a [`crate::host::SessionHost`] connection needs.
    pub fn split(self) -> (Tx, Rx) {
        (self.tx, self.rx)
    }
}

impl<Tx: FrameTx, Rx: Send> FrameTx for Duplex<Tx, Rx> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        self.tx.send(frame)
    }

    fn framing(&self) -> u64 {
        self.tx.framing()
    }
}

impl<Tx: Send, Rx: FrameRx> FrameRx for Duplex<Tx, Rx> {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        self.rx.recv()
    }

    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        self.rx.recv_deadline(deadline)
    }

    fn wire_bytes(&self) -> u64 {
        self.rx.wire_bytes()
    }
}

/// One end of an in-process channel pair (the pipe analogue).
pub type ChannelTransport = Duplex<ChannelFrameTx, ChannelFrameRx>;

/// One end of a newline-delimited byte-stream pair — the wire format for
/// running an engine as a *separate OS process* connected by real pipes
/// (or a socket: [`SocketTransport`] speaks it too),
/// like the paper's `gdb --interpreter=mi` subprocess. Frames must not
/// contain raw newlines; JSON guarantees that.
pub type StreamTransport<R, W> = Duplex<StreamFrameTx<W>, StreamFrameRx<R>>;

/// A [`StreamTransport`] whose receive half runs on a reader thread (see
/// [`PumpedFrameRx`]), so receives can honour deadlines.
pub type PumpedTransport<W> = Duplex<StreamFrameTx<W>, PumpedFrameRx>;

/// One end of a Unix socket pair carrying newline-delimited frames, read
/// on the caller's thread under deadlines (see [`SocketFrameRx`]).
#[cfg(unix)]
pub type SocketTransport = Duplex<StreamFrameTx<std::os::unix::net::UnixStream>, SocketFrameRx>;

/// Send half of an in-process channel.
#[derive(Debug)]
pub struct ChannelFrameTx {
    tx: Sender<Vec<u8>>,
}

/// Receive half of an in-process channel.
#[derive(Debug)]
pub struct ChannelFrameRx {
    rx: Receiver<Vec<u8>>,
    received: u64,
}

impl FrameTx for ChannelFrameTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        check_len(frame.len())?;
        // Length-prefix framing: mimic a real byte stream even though the
        // channel already preserves message boundaries.
        let mut wire = Vec::with_capacity(frame.len() + 4);
        wire.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        wire.extend_from_slice(frame);
        self.tx.send(wire).map_err(|_| MiError::Disconnected)
    }

    fn framing(&self) -> u64 {
        4
    }
}

impl FrameRx for ChannelFrameRx {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let wire = self.rx.recv().map_err(|_| MiError::Disconnected)?;
        self.received += wire.len() as u64;
        decode_channel_wire(wire)
    }

    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        let wire = self.rx.recv_timeout(deadline).map_err(timeout_error)?;
        self.received += wire.len() as u64;
        decode_channel_wire(wire)
    }

    fn wire_bytes(&self) -> u64 {
        self.received
    }
}

pub(crate) fn timeout_error(e: RecvTimeoutError) -> MiError {
    match e {
        RecvTimeoutError::Timeout => MiError::Timeout,
        RecvTimeoutError::Disconnected => MiError::Disconnected,
    }
}

fn check_len(len: usize) -> Result<(), MiError> {
    if len > MAX_FRAME_LEN {
        return Err(MiError::Codec(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    Ok(())
}

/// Validates one length-prefixed channel message and strips the prefix.
fn decode_channel_wire(mut wire: Vec<u8>) -> Result<Vec<u8>, MiError> {
    if wire.len() < 4 {
        return Err(MiError::Codec("short frame".into()));
    }
    let len = u32::from_le_bytes(wire[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        // A corrupted header claiming a huge body must be refused
        // before any size arithmetic trusts it.
        return Err(MiError::Codec(format!(
            "frame header claims {len} bytes, beyond the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    if wire.len() - 4 != len {
        return Err(MiError::Codec(format!(
            "frame length mismatch: header {len}, body {}",
            wire.len() - 4
        )));
    }
    // Shift the body down over the prefix: no second buffer per frame.
    wire.drain(..4);
    Ok(wire)
}

/// Creates a connected pair of transports (like `pipe(2)` both ways).
pub fn duplex() -> (ChannelTransport, ChannelTransport) {
    let end = |tx, rx| Duplex {
        tx: ChannelFrameTx { tx },
        rx: ChannelFrameRx { rx, received: 0 },
    };
    let (tx_ab, rx_ab) = channel();
    let (tx_ba, rx_ba) = channel();
    (end(tx_ab, rx_ba), end(tx_ba, rx_ab))
}

/// Send half of a newline-delimited byte stream (e.g. a child's stdin).
#[derive(Debug)]
pub struct StreamFrameTx<W> {
    writer: W,
    /// The frame being sent and its newline, kept between sends.
    line: Vec<u8>,
}

impl<W: std::io::Write + Send> StreamFrameTx<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        StreamFrameTx {
            writer,
            line: Vec::new(),
        }
    }
}

impl<W: std::io::Write + Send> FrameTx for StreamFrameTx<W> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        if frame.contains(&b'\n') {
            return Err(MiError::Codec("frame contains a newline".into()));
        }
        check_len(frame.len())?;
        // One `write_all` for the frame and its delimiter: written apart,
        // an unbuffered stream (and a line-buffered one, for a frame
        // longer than its buffer) takes two `write` calls, and the reader
        // wakes for half a frame.
        self.line.clear();
        self.line.extend_from_slice(frame);
        self.line.push(b'\n');
        let w = &mut self.writer;
        w.write_all(&self.line)
            .and_then(|()| w.flush())
            .map_err(|_| MiError::Disconnected)
    }

    fn framing(&self) -> u64 {
        1
    }
}

/// Receive half of a newline-delimited byte stream (e.g. a child's
/// stdout).
#[derive(Debug)]
pub struct StreamFrameRx<R> {
    reader: std::io::BufReader<R>,
    /// The start of a frame whose read timed out.
    partial: Vec<u8>,
    received: u64,
}

impl<R: std::io::Read + Send> StreamFrameRx<R> {
    /// Wraps a reader.
    pub fn new(reader: R) -> Self {
        StreamFrameRx {
            reader: std::io::BufReader::new(reader),
            partial: Vec::new(),
            received: 0,
        }
    }
}

impl<R: std::io::Read + Send> FrameRx for StreamFrameRx<R> {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let (n, frame) = read_newline_frame(&mut self.reader, &mut self.partial);
        self.received += n;
        frame
    }

    fn wire_bytes(&self) -> u64 {
        self.received
    }
}

impl<R: std::io::Read + Send, W: std::io::Write + Send> StreamTransport<R, W> {
    /// Wraps a reader/writer pair (e.g. a child process's stdout/stdin).
    pub fn new(reader: R, writer: W) -> Self {
        Duplex {
            tx: StreamFrameTx::new(writer),
            rx: StreamFrameRx::new(reader),
        }
    }
}

/// Reads one newline-delimited frame, continuing the one in `partial`
/// that an earlier read left unfinished; returns the bytes the frame took
/// off the stream alongside the frame (or why there is none).
///
/// A read that times out (`WouldBlock`, `TimedOut`) answers
/// [`MiError::Timeout`], counts nothing yet, and leaves what arrived in
/// `partial`; the call that completes the frame counts all of it.
fn read_newline_frame<R: std::io::Read>(
    reader: &mut std::io::BufReader<R>,
    partial: &mut Vec<u8>,
) -> (u64, Result<Vec<u8>, MiError>) {
    use std::io::{BufRead as _, ErrorKind, Read as _};
    // Raw bytes, not `read_line`: corrupted (non-UTF-8) traffic must
    // surface as a codec error on this frame, not kill the stream.
    // The `take` bounds how much one frame may buffer, across every read
    // that adds to it, so a peer that stops sending newlines cannot
    // balloon memory. `partial` never holds more than the cap.
    let room = (MAX_FRAME_LEN + 1 - partial.len()) as u64;
    match reader.take(room).read_until(b'\n', partial) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return (0, Err(MiError::Timeout))
        }
        // End of stream inside a frame: reported below.
        Ok(0) if !partial.is_empty() => {}
        Ok(0) | Err(_) => {
            partial.clear();
            return (0, Err(MiError::Disconnected));
        }
        Ok(_) => {}
    }
    let mut line = std::mem::take(partial);
    let n = line.len() as u64;
    let frame = if line.len() > MAX_FRAME_LEN {
        Err(MiError::Codec(format!(
            "frame exceeds the {MAX_FRAME_LEN}-byte cap"
        )))
    } else if line.last() != Some(&b'\n') {
        // The stream ended (or a fault cut it) in the middle of a
        // frame. Treating the fragment as a complete frame would hand
        // garbage to the codec; report the truncation itself.
        Err(MiError::Codec(
            "mid-frame EOF: stream ended before the frame delimiter".into(),
        ))
    } else {
        while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
            line.pop();
        }
        Ok(line)
    };
    (n, frame)
}

/// The receive half of a byte stream read on a dedicated thread: the
/// thread blocks on the stream and forwards complete frames through an
/// in-process channel, so `recv_deadline` can give up waiting without
/// abandoning a half-read frame, over any reader (a pipe has no read
/// timeout). Each reply costs a thread switch more than a
/// [`SocketFrameRx`], which the supervised process backend uses instead.
///
/// The reader thread exits on EOF or stream error; it holds only the
/// reader, so dropping the send half (closing the writer) lets a
/// well-behaved peer close the stream and the thread unwind.
#[derive(Debug)]
pub struct PumpedFrameRx {
    frames: Receiver<(u64, Result<Vec<u8>, MiError>)>,
    received: u64,
}

impl PumpedFrameRx {
    /// Spawns the reader thread over `reader`.
    pub fn spawn<R: std::io::Read + Send + 'static>(reader: R) -> Self {
        let (tx, rx) = channel();
        std::thread::Builder::new()
            .name("mi-recv-pump".into())
            .spawn(move || {
                let mut reader = std::io::BufReader::new(reader);
                let mut partial = Vec::new();
                loop {
                    let (n, frame) = read_newline_frame(&mut reader, &mut partial);
                    let stop = matches!(frame, Err(MiError::Disconnected));
                    if tx.send((n, frame)).is_err() || stop {
                        return;
                    }
                }
            })
            .expect("spawn mi receive pump");
        PumpedFrameRx {
            frames: rx,
            received: 0,
        }
    }
}

impl FrameRx for PumpedFrameRx {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let (n, frame) = self.frames.recv().map_err(|_| MiError::Disconnected)?;
        self.received += n;
        frame
    }

    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        let (n, frame) = self.frames.recv_timeout(deadline).map_err(timeout_error)?;
        self.received += n;
        frame
    }

    fn wire_bytes(&self) -> u64 {
        self.received
    }
}

impl<W: std::io::Write + Send> PumpedTransport<W> {
    /// Spawns the reader thread over `reader` and wraps `writer`.
    pub fn spawn<R: std::io::Read + Send + 'static>(reader: R, writer: W) -> Self {
        Duplex {
            tx: StreamFrameTx::new(writer),
            rx: PumpedFrameRx::spawn(reader),
        }
    }
}

/// The receive half of a Unix socket, read on the thread that waits for
/// the frame: [`FrameRx::recv_deadline`] sets the socket's read timeout
/// to the time left before each read, and a frame the deadline cuts stays
/// buffered for the next call. The supervised process backend reads its
/// `mi-server` child through it — a wedged or killed child surfaces as
/// [`MiError::Timeout`] / [`MiError::Disconnected`] within the deadline
/// instead of blocking the tracker forever, with no reader thread.
#[cfg(unix)]
#[derive(Debug)]
pub struct SocketFrameRx {
    rx: StreamFrameRx<DeadlineSocket>,
}

/// A socket whose reads give up at `until`.
#[cfg(unix)]
#[derive(Debug)]
struct DeadlineSocket {
    socket: std::os::unix::net::UnixStream,
    /// When the current receive gives up; `None` blocks.
    until: Option<std::time::Instant>,
    /// Whether the socket carries a read timeout now.
    timed: bool,
}

#[cfg(unix)]
impl std::io::Read for DeadlineSocket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(until) = self.until {
            // A zero timeout is an error to `set_read_timeout`, and means
            // no time is left anyway.
            let left = until.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.socket.set_read_timeout(Some(left))?;
            self.timed = true;
        } else if self.timed {
            self.socket.set_read_timeout(None)?;
            self.timed = false;
        }
        self.socket.read(buf)
    }
}

#[cfg(unix)]
impl SocketFrameRx {
    /// Reads frames from `socket`.
    pub fn new(socket: std::os::unix::net::UnixStream) -> Self {
        SocketFrameRx {
            rx: StreamFrameRx::new(DeadlineSocket {
                socket,
                until: None,
                timed: false,
            }),
        }
    }

    fn recv_until(&mut self, until: Option<std::time::Instant>) -> Result<Vec<u8>, MiError> {
        self.rx.reader.get_mut().until = until;
        self.rx.recv()
    }
}

#[cfg(unix)]
impl FrameRx for SocketFrameRx {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        self.recv_until(None)
    }

    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        // A deadline past the clock's range is no deadline.
        self.recv_until(std::time::Instant::now().checked_add(deadline))
    }

    fn wire_bytes(&self) -> u64 {
        self.rx.wire_bytes()
    }
}

#[cfg(unix)]
impl SocketTransport {
    /// Sends and receives frames over `socket`, one end of a
    /// `UnixStream::pair`.
    ///
    /// # Errors
    ///
    /// When the socket cannot be cloned into its two halves.
    pub fn new(socket: std::os::unix::net::UnixStream) -> std::io::Result<Self> {
        Ok(Duplex {
            tx: StreamFrameTx::new(socket.try_clone()?),
            rx: SocketFrameRx::new(socket),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_cross_both_directions() {
        let (mut a, mut b) = duplex();
        a.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        b.send(b"world").unwrap();
        assert_eq!(a.recv().unwrap(), b"world");
    }

    #[test]
    fn byte_counters_track_traffic() {
        let (mut a, mut b) = duplex();
        a.send(&[0u8; 100]).unwrap();
        b.recv().unwrap();
        // 100 payload bytes plus the 4-byte length prefix.
        assert_eq!(b.wire_bytes(), 104);
        assert_eq!(a.framing(), 4);
        assert_eq!(a.wire_bytes(), 0);
    }

    #[test]
    fn disconnect_detected() {
        let (mut a, b) = duplex();
        drop(b);
        assert_eq!(a.send(b"x"), Err(MiError::Disconnected));
        assert_eq!(a.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn empty_frames_allowed() {
        let (mut a, mut b) = duplex();
        a.send(b"").unwrap();
        assert_eq!(b.recv().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn frame_length_mismatch_detected() {
        // Hand-build wire bytes whose length header lies about the body
        // size — recv must refuse them instead of mis-slicing.
        let (a, mut b) = duplex();
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_le_bytes()); // claims 10 bytes
        wire.extend_from_slice(b"ab"); // delivers 2
        a.tx.tx.send(wire).unwrap();
        match b.recv() {
            Err(MiError::Codec(msg)) => {
                assert!(msg.contains("frame length mismatch"), "{msg}");
                assert!(msg.contains("10") && msg.contains('2'), "{msg}");
            }
            other => panic!("expected codec error, got {other:?}"),
        }
        // The bad frame still counts as received traffic…
        assert_eq!(b.wire_bytes(), 6);
        // …and the endpoint keeps working for its successors.
        drop(a);
        assert_eq!(b.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn truncated_header_detected() {
        let (a, mut b) = duplex();
        a.tx.tx.send(vec![1, 2]).unwrap(); // shorter than the 4-byte header
        match b.recv() {
            Err(MiError::Codec(msg)) => assert!(msg.contains("short frame"), "{msg}"),
            other => panic!("expected codec error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_length_prefix_rejected_not_trusted() {
        // A flipped bit in the length prefix can claim gigabytes; recv
        // must refuse the header instead of trusting its arithmetic.
        let (mut a, mut b) = duplex();
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"tiny");
        a.tx.tx.send(wire).unwrap();
        match b.recv() {
            Err(MiError::Codec(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected codec error, got {other:?}"),
        }
        // The endpoint survives for well-formed successors.
        a.send(b"ok").unwrap();
        assert_eq!(b.recv().unwrap(), b"ok");
    }

    #[test]
    fn oversized_send_rejected() {
        let (mut a, mut b) = duplex();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(a.send(&huge), Err(MiError::Codec(_))));
        // Nothing reached the wire.
        drop(a);
        assert_eq!(b.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn channel_recv_deadline_times_out_then_delivers() {
        let (mut a, mut b) = duplex();
        let start = std::time::Instant::now();
        assert_eq!(
            a.recv_deadline(Duration::from_millis(20)),
            Err(MiError::Timeout)
        );
        assert!(start.elapsed() < Duration::from_secs(5));
        // The timeout consumed nothing: a frame sent afterwards arrives.
        b.send(b"late").unwrap();
        assert_eq!(a.recv_deadline(Duration::from_secs(5)).unwrap(), b"late");
        drop(b);
        assert_eq!(
            a.recv_deadline(Duration::from_millis(20)),
            Err(MiError::Disconnected)
        );
    }

    #[test]
    fn split_halves_interoperate_with_a_whole_transport() {
        let (a, mut b) = duplex();
        let (mut tx, mut rx) = a.split();
        tx.send(b"from-half").unwrap();
        assert_eq!(b.recv().unwrap(), b"from-half");
        b.send(b"to-half").unwrap();
        assert_eq!(rx.recv().unwrap(), b"to-half");
        drop(b);
        assert_eq!(tx.send(b"x"), Err(MiError::Disconnected));
        assert_eq!(rx.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn stream_halves_speak_the_stream_wire_format() {
        let mut wire = Vec::new();
        StreamFrameTx::new(&mut wire).send(b"{\"a\":1}").unwrap();
        let mut t = StreamTransport::new(wire.as_slice(), std::io::sink());
        assert_eq!(t.recv().unwrap(), b"{\"a\":1}");
        let mut rx = StreamFrameRx::new(&b"{\"b\":2}\n"[..]);
        assert_eq!(rx.recv().unwrap(), b"{\"b\":2}");
        assert_eq!(rx.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn order_preserved() {
        let (mut a, mut b) = duplex();
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;

    #[test]
    fn stream_frames_roundtrip_through_a_buffer() {
        let mut wire = Vec::new();
        {
            let mut t = StreamTransport::new(std::io::empty(), &mut wire);
            t.send(b"{\"a\":1}").unwrap();
            t.send(b"{\"b\":2}").unwrap();
        }
        assert_eq!(wire, b"{\"a\":1}\n{\"b\":2}\n");
        let mut t = StreamTransport::new(wire.as_slice(), std::io::sink());
        assert_eq!(t.recv().unwrap(), b"{\"a\":1}");
        assert_eq!(t.recv().unwrap(), b"{\"b\":2}");
        assert_eq!(t.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn newlines_in_frames_rejected() {
        let mut wire = Vec::new();
        let mut t = StreamTransport::new(std::io::empty(), &mut wire);
        assert!(matches!(t.send(b"a\nb"), Err(MiError::Codec(_))));
        // A rejected frame never hits the wire.
        drop(t);
        assert!(wire.is_empty());
    }

    #[test]
    fn crlf_line_endings_accepted() {
        // An engine subprocess on Windows (or behind a tty filter) ends
        // lines with \r\n; the payload must come back without either.
        let wire = b"{\"a\":1}\r\n{\"b\":2}\r\n";
        let mut t = StreamTransport::new(&wire[..], std::io::sink());
        assert_eq!(t.recv().unwrap(), b"{\"a\":1}");
        assert_eq!(t.recv().unwrap(), b"{\"b\":2}");
        assert_eq!(t.recv(), Err(MiError::Disconnected));
        // The count measures the wire, CR and LF included.
        assert_eq!(t.wire_bytes(), wire.len() as u64);
    }

    #[test]
    fn mid_frame_eof_is_a_codec_error_not_a_frame() {
        // The stream dies after half a frame: the fragment must not be
        // handed to the codec as if it were complete.
        let wire = b"{\"a\":1}\n{\"b\":";
        let mut t = StreamTransport::new(&wire[..], std::io::sink());
        assert_eq!(t.recv().unwrap(), b"{\"a\":1}");
        match t.recv() {
            Err(MiError::Codec(msg)) => assert!(msg.contains("mid-frame EOF"), "{msg}"),
            other => panic!("expected codec error, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_frames_pass_through_as_bytes() {
        // Corruption often produces invalid UTF-8. The transport is a
        // byte pipe: it must deliver the bytes (the codec above reports
        // the JSON error), not misreport a disconnect.
        let wire = b"\xff\xfe\x00garbage\nok\n";
        let mut t = StreamTransport::new(&wire[..], std::io::sink());
        assert_eq!(t.recv().unwrap(), b"\xff\xfe\x00garbage");
        assert_eq!(t.recv().unwrap(), b"ok");
    }

    #[test]
    fn stream_counters_include_framing() {
        let mut wire = Vec::new();
        let mut tx = StreamFrameTx::new(&mut wire);
        tx.send(b"{\"a\":1}").unwrap();
        let mut t = StreamTransport::new(wire.as_slice(), std::io::sink());
        // 7 payload bytes plus the newline, on both sides.
        assert_eq!(wire.len() as u64, 7 + t.framing());
        t.recv().unwrap();
        assert_eq!(t.wire_bytes(), 8);
    }
}

#[cfg(test)]
mod pumped_tests {
    use super::*;
    use std::io::Read;

    /// A byte stream fed through a channel: `read` blocks until bytes
    /// arrive and reports EOF when the sender is dropped — the test
    /// stand-in for a child process's stdout pipe.
    struct ChanReader {
        rx: Receiver<Vec<u8>>,
        buf: Vec<u8>,
    }

    impl ChanReader {
        fn pair() -> (Sender<Vec<u8>>, ChanReader) {
            let (tx, rx) = channel();
            (
                tx,
                ChanReader {
                    rx,
                    buf: Vec::new(),
                },
            )
        }
    }

    impl Read for ChanReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            while self.buf.is_empty() {
                match self.rx.recv() {
                    Ok(bytes) => self.buf = bytes,
                    Err(_) => return Ok(0),
                }
            }
            let n = out.len().min(self.buf.len());
            out[..n].copy_from_slice(&self.buf[..n]);
            self.buf.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn deadline_expiry_is_a_timeout_not_a_hang() {
        let (tx, reader) = ChanReader::pair();
        let mut t = PumpedTransport::spawn(reader, std::io::sink());
        let start = std::time::Instant::now();
        assert_eq!(
            t.recv_deadline(Duration::from_millis(50)),
            Err(MiError::Timeout)
        );
        assert!(start.elapsed() < Duration::from_secs(5));
        // A frame arriving after the timeout is delivered, not lost.
        tx.send(b"{\"late\":1}\n".to_vec()).unwrap();
        assert_eq!(
            t.recv_deadline(Duration::from_secs(5)).unwrap(),
            b"{\"late\":1}"
        );
        drop(tx);
        assert_eq!(t.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn pumped_frames_and_counters_match_stream_semantics() {
        let (tx, reader) = ChanReader::pair();
        let mut t = PumpedTransport::spawn(reader, Vec::new());
        tx.send(b"{\"a\":1}\r\n".to_vec()).unwrap();
        assert_eq!(t.recv().unwrap(), b"{\"a\":1}");
        assert_eq!(t.wire_bytes(), 9); // CR and LF included
        t.send(b"{\"b\":2}").unwrap();
        assert_eq!(t.tx.writer, b"{\"b\":2}\n");
        assert_eq!(t.framing(), 1);
    }

    #[test]
    fn mid_frame_eof_surfaces_then_disconnect() {
        let (tx, reader) = ChanReader::pair();
        let mut t = PumpedTransport::spawn(reader, std::io::sink());
        tx.send(b"{\"cut".to_vec()).unwrap();
        drop(tx);
        match t.recv() {
            Err(MiError::Codec(msg)) => assert!(msg.contains("mid-frame EOF"), "{msg}"),
            other => panic!("expected codec error, got {other:?}"),
        }
        assert_eq!(t.recv(), Err(MiError::Disconnected));
        // The fragment crossed the wire: it counts.
        assert_eq!(t.wire_bytes(), 5);
    }
}

#[cfg(test)]
mod write_tests {
    use super::*;
    use std::io::{LineWriter, Write};

    /// A writer that counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    const SMALL: usize = 100;
    const LARGE: usize = 3 * 1024;

    #[test]
    fn an_unbuffered_writer_takes_one_write_per_frame() {
        let mut tx = StreamFrameTx::new(CountingWriter::default());
        tx.send(&[b'a'; SMALL]).unwrap();
        assert_eq!(tx.writer.writes, 1);
        tx.send(&[b'b'; LARGE]).unwrap();
        assert_eq!(tx.writer.writes, 2);
        assert_eq!(tx.writer.bytes.len(), SMALL + LARGE + 2);
    }

    #[test]
    fn a_line_buffered_writer_takes_one_write_per_frame() {
        // `mi-server`'s stdout: a `LineWriter` with a 1 KiB buffer, which
        // a 3 KiB frame bypasses.
        let mut tx = StreamFrameTx::new(LineWriter::new(CountingWriter::default()));
        tx.send(&[b'a'; SMALL]).unwrap();
        assert_eq!(tx.writer.get_ref().writes, 1);
        tx.send(&[b'b'; LARGE]).unwrap();
        assert_eq!(tx.writer.get_ref().writes, 2);
        let wire = &tx.writer.get_ref().bytes;
        assert_eq!(wire.len(), SMALL + LARGE + 2);
        assert_eq!((wire[SMALL], wire[wire.len() - 1]), (b'\n', b'\n'));
    }
}

#[cfg(all(test, unix))]
mod socket_tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    const CUT: Duration = Duration::from_millis(20);
    const PATIENT: Duration = Duration::from_secs(10);

    fn pair() -> (UnixStream, SocketFrameRx) {
        let (peer, ours) = UnixStream::pair().unwrap();
        (peer, SocketFrameRx::new(ours))
    }

    #[test]
    fn a_frame_cut_by_a_deadline_arrives_whole_next_call() {
        let (mut peer, mut rx) = pair();
        peer.write_all(b"{\"a\":").unwrap();
        assert_eq!(rx.recv_deadline(CUT), Err(MiError::Timeout));
        // The cut half is held, not yet counted.
        assert_eq!(rx.wire_bytes(), 0);
        peer.write_all(b"1}\r\n").unwrap();
        assert_eq!(rx.recv_deadline(PATIENT).unwrap(), b"{\"a\":1}");
        assert_eq!(rx.wire_bytes(), 9);
        // A blocking receive after a timed one waits as long as it takes.
        assert_eq!(rx.recv_deadline(CUT), Err(MiError::Timeout));
        let late = std::thread::spawn(move || {
            std::thread::sleep(CUT * 3);
            peer.write_all(b"late\n").unwrap();
            peer
        });
        assert_eq!(rx.recv().unwrap(), b"late");
        assert_eq!(rx.wire_bytes(), 9 + 5);
        drop(late.join().unwrap());
        assert_eq!(rx.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn a_frame_grown_past_the_cap_across_timeouts_is_refused() {
        let (mut peer, mut rx) = pair();
        let (go, wait) = channel::<()>();
        let half = MAX_FRAME_LEN / 2;
        let writer = std::thread::spawn(move || {
            peer.write_all(&vec![b'x'; half]).unwrap();
            wait.recv().unwrap();
            // One byte past the cap: the receiver refuses the frame there,
            // and what follows is the next frame.
            peer.write_all(&vec![b'x'; MAX_FRAME_LEN + 1 - half])
                .unwrap();
            peer.write_all(b"ok\n").unwrap();
            peer
        });
        // Timed-out reads until the first half is held; a receiver that
        // drops what a timeout cut fails here instead of spinning.
        let give_up = std::time::Instant::now() + PATIENT;
        loop {
            assert_eq!(rx.recv_deadline(CUT), Err(MiError::Timeout));
            let held = rx.rx.partial.len();
            if held == half {
                break;
            }
            assert!(
                std::time::Instant::now() < give_up,
                "holds {held} of {half} bytes"
            );
        }
        go.send(()).unwrap();
        let refused = loop {
            match rx.recv_deadline(CUT) {
                Err(MiError::Timeout) if std::time::Instant::now() < give_up => continue,
                other => break other,
            }
        };
        match refused {
            Err(MiError::Codec(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected a codec error, got {:?}", other.map(|f| f.len())),
        }
        assert_eq!(rx.wire_bytes(), MAX_FRAME_LEN as u64 + 1);
        assert_eq!(rx.recv_deadline(PATIENT).unwrap(), b"ok");
        assert_eq!(rx.wire_bytes(), MAX_FRAME_LEN as u64 + 4);
        drop(writer.join().unwrap());
    }

    #[test]
    fn a_peer_closing_mid_frame_is_a_mid_frame_eof() {
        let (mut peer, mut rx) = pair();
        peer.write_all(b"{\"cut").unwrap();
        assert_eq!(rx.recv_deadline(CUT), Err(MiError::Timeout));
        drop(peer);
        match rx.recv_deadline(PATIENT) {
            Err(MiError::Codec(msg)) => assert!(msg.contains("mid-frame EOF"), "{msg}"),
            other => panic!("expected a codec error, got {other:?}"),
        }
        // The fragment crossed the wire: it counts, once.
        assert_eq!(rx.wire_bytes(), 5);
        assert_eq!(rx.recv_deadline(PATIENT), Err(MiError::Disconnected));
    }

    #[test]
    fn no_time_left_is_a_timeout() {
        // `set_read_timeout(Some(ZERO))` is an error, which would read as
        // a disconnect; no time left must answer `Timeout` instead.
        let (mut peer, mut rx) = pair();
        assert_eq!(rx.recv_deadline(Duration::ZERO), Err(MiError::Timeout));
        peer.write_all(b"x\n").unwrap();
        assert_eq!(rx.recv_deadline(PATIENT).unwrap(), b"x");
        // A deadline beyond the clock's range blocks like `recv`.
        peer.write_all(b"y\n").unwrap();
        assert_eq!(rx.recv_deadline(Duration::MAX).unwrap(), b"y");
    }

    #[test]
    fn a_socket_transport_round_trips_frames() {
        let (a, b) = UnixStream::pair().unwrap();
        let (mut a, mut b) = (
            SocketTransport::new(a).unwrap(),
            SocketTransport::new(b).unwrap(),
        );
        a.send(b"{\"ping\":1}").unwrap();
        assert_eq!(b.recv_deadline(PATIENT).unwrap(), b"{\"ping\":1}");
        b.send(b"{\"pong\":1}").unwrap();
        assert_eq!(a.recv().unwrap(), b"{\"pong\":1}");
        assert_eq!((a.framing(), a.wire_bytes()), (1, 11));
        drop(b);
        assert_eq!(a.recv_deadline(PATIENT), Err(MiError::Disconnected));
    }
}
