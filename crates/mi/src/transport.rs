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
    /// behaviour. The channel and pumped halves override it; they are
    /// what the supervision layer builds on.
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
/// running an engine as a *separate OS process* connected by real pipes,
/// like the paper's `gdb --interpreter=mi` subprocess. Frames must not
/// contain raw newlines; JSON guarantees that.
pub type StreamTransport<R, W> = Duplex<StreamFrameTx<W>, StreamFrameRx<R>>;

/// A [`StreamTransport`] whose receive half runs on a reader thread (see
/// [`PumpedFrameRx`]), so receives can honour deadlines.
pub type PumpedTransport<W> = Duplex<StreamFrameTx<W>, PumpedFrameRx>;

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
}

impl<W: std::io::Write + Send> StreamFrameTx<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        StreamFrameTx { writer }
    }
}

impl<W: std::io::Write + Send> FrameTx for StreamFrameTx<W> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        if frame.contains(&b'\n') {
            return Err(MiError::Codec("frame contains a newline".into()));
        }
        check_len(frame.len())?;
        let w = &mut self.writer;
        w.write_all(frame)
            .and_then(|()| w.write_all(b"\n"))
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
    received: u64,
}

impl<R: std::io::Read + Send> StreamFrameRx<R> {
    /// Wraps a reader.
    pub fn new(reader: R) -> Self {
        StreamFrameRx {
            reader: std::io::BufReader::new(reader),
            received: 0,
        }
    }
}

impl<R: std::io::Read + Send> FrameRx for StreamFrameRx<R> {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let (n, frame) = read_newline_frame(&mut self.reader);
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

/// Reads one newline-delimited frame; returns the bytes it took off the
/// stream alongside the frame (or why there is none).
fn read_newline_frame<R: std::io::Read>(
    reader: &mut std::io::BufReader<R>,
) -> (u64, Result<Vec<u8>, MiError>) {
    use std::io::{BufRead as _, Read as _};
    // Raw bytes, not `read_line`: corrupted (non-UTF-8) traffic must
    // surface as a codec error on this frame, not kill the stream.
    // The `take` bounds how much one frame may buffer, so a peer that
    // stops sending newlines cannot balloon memory.
    let mut line = Vec::new();
    let mut limited = reader.take(MAX_FRAME_LEN as u64 + 1);
    let n = match limited.read_until(b'\n', &mut line) {
        Ok(0) | Err(_) => return (0, Err(MiError::Disconnected)),
        Ok(n) => n as u64,
    };
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
/// abandoning a half-read frame. The supervised process backend uses it
/// — a wedged or killed `mi-server` child surfaces as
/// [`MiError::Timeout`] / [`MiError::Disconnected`] within the deadline
/// instead of blocking the tracker forever.
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
                loop {
                    let (n, frame) = read_newline_frame(&mut reader);
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
