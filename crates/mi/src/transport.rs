//! Byte transports with length-delimited framing.
//!
//! The paper's tracker talks to GDB through an OS pipe. [`duplex`] builds
//! the in-process analogue: two [`ChannelTransport`] endpoints connected by
//! byte channels. Frames are serialized JSON preceded by a 4-byte
//! little-endian length — the content truly leaves the sender as bytes and
//! is re-parsed by the receiver, so nothing structural can sneak across.

use crate::MiError;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Upper bound on a single frame's payload size, in bytes.
///
/// A corrupted length prefix (or a peer gone haywire) must not make the
/// receiver trust an absurd header and attempt a multi-gigabyte read:
/// both transports reject frames whose claimed or actual size exceeds
/// this cap with a typed [`MiError::Codec`] instead.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Traffic accounting every transport keeps, regardless of medium.
///
/// `bytes_*` include framing overhead (length prefixes, newline
/// delimiters): they measure what actually crosses the wire.
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

/// A bidirectional byte-frame transport.
pub trait Transport {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`MiError::Disconnected`] when the peer is gone.
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError>;

    /// Receives one frame, blocking.
    ///
    /// # Errors
    ///
    /// [`MiError::Disconnected`] when the peer is gone.
    fn recv(&mut self) -> Result<Vec<u8>, MiError>;

    /// Receives one frame, waiting at most `deadline`.
    ///
    /// The default implementation ignores the deadline and blocks — a
    /// transport that cannot interrupt its read (e.g. a borrowed byte
    /// stream) keeps its old behaviour. Deadline-capable transports
    /// ([`ChannelTransport`], [`PumpedTransport`]) override this; they
    /// are what the supervision layer builds on.
    ///
    /// # Errors
    ///
    /// [`MiError::Timeout`] when the deadline expires with no frame;
    /// [`MiError::Disconnected`] when the peer is gone.
    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        let _ = deadline;
        self.recv()
    }

    /// Traffic shipped through this endpoint so far.
    fn counters(&self) -> TransportCounters;
}

/// Transport over in-process byte channels (the pipe analogue).
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    counters: TransportCounters,
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        if frame.len() > MAX_FRAME_LEN {
            return Err(MiError::Codec(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                frame.len()
            )));
        }
        // Length-prefix framing: mimic a real byte stream even though the
        // channel already preserves message boundaries.
        let mut wire = Vec::with_capacity(frame.len() + 4);
        wire.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        wire.extend_from_slice(frame);
        self.counters.bytes_sent += wire.len() as u64;
        self.counters.frames_sent += 1;
        self.tx.send(wire).map_err(|_| MiError::Disconnected)
    }

    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let wire = self.rx.recv().map_err(|_| MiError::Disconnected)?;
        self.decode_wire(wire)
    }

    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        let wire = self.rx.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => MiError::Timeout,
            RecvTimeoutError::Disconnected => MiError::Disconnected,
        })?;
        self.decode_wire(wire)
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

impl ChannelTransport {
    fn decode_wire(&mut self, wire: Vec<u8>) -> Result<Vec<u8>, MiError> {
        self.counters.bytes_received += wire.len() as u64;
        self.counters.frames_received += 1;
        decode_channel_wire(wire)
    }

    /// Splits the transport into independently-owned send and receive
    /// halves, so one side can live on a reader thread while another
    /// thread writes — the shape a [`crate::host::SessionHost`]
    /// connection needs. Counters stay with whichever half moved them.
    pub fn split(self) -> (ChannelFrameTx, ChannelFrameRx) {
        (
            ChannelFrameTx { tx: self.tx },
            ChannelFrameRx { rx: self.rx },
        )
    }
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

/// The send half of a connection: one frame out per call.
///
/// A [`Transport`] is a single `&mut self` object, which forces send and
/// receive onto one thread. The session host multiplexes many sessions
/// over one connection, so it needs the two directions in different
/// hands: a reader thread blocks on a [`FrameRx`] while worker threads
/// share the [`FrameTx`] behind a mutex.
pub trait FrameTx: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`MiError::Disconnected`] when the peer is gone.
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError>;
}

/// The receive half of a connection: one frame in per call, blocking.
pub trait FrameRx: Send {
    /// Receives one frame.
    ///
    /// # Errors
    ///
    /// [`MiError::Disconnected`] when the peer is gone;
    /// [`MiError::Codec`] for a frame that arrived but could not be
    /// framed (the connection stays usable).
    fn recv(&mut self) -> Result<Vec<u8>, MiError>;
}

impl<T: FrameTx + ?Sized> FrameTx for Box<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        (**self).send(frame)
    }
}

impl<T: FrameRx + ?Sized> FrameRx for Box<T> {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        (**self).recv()
    }
}

/// Send half of a split [`ChannelTransport`].
#[derive(Debug)]
pub struct ChannelFrameTx {
    tx: Sender<Vec<u8>>,
}

/// Receive half of a split [`ChannelTransport`].
#[derive(Debug)]
pub struct ChannelFrameRx {
    rx: Receiver<Vec<u8>>,
}

impl FrameTx for ChannelFrameTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        if frame.len() > MAX_FRAME_LEN {
            return Err(MiError::Codec(format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                frame.len()
            )));
        }
        let mut wire = Vec::with_capacity(frame.len() + 4);
        wire.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        wire.extend_from_slice(frame);
        self.tx.send(wire).map_err(|_| MiError::Disconnected)
    }
}

impl FrameRx for ChannelFrameRx {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let wire = self.rx.recv().map_err(|_| MiError::Disconnected)?;
        decode_channel_wire(wire)
    }
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
        write_newline_frame(&mut self.writer, frame).map(|_| ())
    }
}

/// Receive half of a newline-delimited byte stream (e.g. a child's
/// stdout).
#[derive(Debug)]
pub struct StreamFrameRx<R> {
    reader: std::io::BufReader<R>,
}

impl<R: std::io::Read + Send> StreamFrameRx<R> {
    /// Wraps a reader.
    pub fn new(reader: R) -> Self {
        StreamFrameRx {
            reader: std::io::BufReader::new(reader),
        }
    }
}

impl<R: std::io::Read + Send> FrameRx for StreamFrameRx<R> {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        read_newline_frame(&mut self.reader).1
    }
}

/// Creates a connected pair of transports (like `pipe(2)` both ways).
pub fn duplex() -> (ChannelTransport, ChannelTransport) {
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    (
        ChannelTransport {
            tx: tx_ab,
            rx: rx_ba,
            counters: TransportCounters::default(),
        },
        ChannelTransport {
            tx: tx_ba,
            rx: rx_ab,
            counters: TransportCounters::default(),
        },
    )
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
        assert_eq!(a.counters().bytes_sent, 104);
        assert_eq!(a.counters().frames_sent, 1);
        b.recv().unwrap();
        assert_eq!(b.counters().bytes_received, 104);
        assert_eq!(b.counters().frames_received, 1);
        assert_eq!(b.counters().bytes_total(), 104);
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
        a.tx.send(wire).unwrap();
        match b.recv() {
            Err(MiError::Codec(msg)) => {
                assert!(msg.contains("frame length mismatch"), "{msg}");
                assert!(msg.contains("10") && msg.contains('2'), "{msg}");
            }
            other => panic!("expected codec error, got {other:?}"),
        }
        // The bad frame still counts as received traffic…
        assert_eq!(b.counters().bytes_received, 6);
        // …and the endpoint keeps working for well-formed successors.
        drop(a);
        assert_eq!(b.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn truncated_header_detected() {
        let (a, mut b) = duplex();
        a.tx.send(vec![1, 2]).unwrap(); // shorter than the 4-byte header
        match b.recv() {
            Err(MiError::Codec(msg)) => assert!(msg.contains("short frame"), "{msg}"),
            other => panic!("expected codec error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_length_prefix_rejected_not_trusted() {
        // A flipped bit in the length prefix can claim gigabytes; recv
        // must refuse the header instead of trusting its arithmetic.
        let (a, mut b) = duplex();
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"tiny");
        a.tx.send(wire).unwrap();
        match b.recv() {
            Err(MiError::Codec(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected codec error, got {other:?}"),
        }
        // The endpoint survives for well-formed successors.
        let mut a = a;
        a.send(b"ok").unwrap();
        assert_eq!(b.recv().unwrap(), b"ok");
    }

    #[test]
    fn oversized_send_rejected() {
        let (mut a, _b) = duplex();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(a.send(&huge), Err(MiError::Codec(_))));
        assert_eq!(a.counters().frames_sent, 0);
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

/// Transport over arbitrary byte streams using newline-delimited JSON
/// frames — the wire format for running an engine as a *separate OS
/// process* connected by real pipes, like the paper's `gdb
/// --interpreter=mi` subprocess. Frames must not contain raw newlines;
/// JSON guarantees that.
#[derive(Debug)]
pub struct StreamTransport<R, W> {
    reader: std::io::BufReader<R>,
    writer: W,
    counters: TransportCounters,
}

impl<R: std::io::Read, W: std::io::Write> StreamTransport<R, W> {
    /// Wraps a reader/writer pair (e.g. a child process's stdout/stdin).
    pub fn new(reader: R, writer: W) -> Self {
        StreamTransport {
            reader: std::io::BufReader::new(reader),
            writer,
            counters: TransportCounters::default(),
        }
    }
}

/// Writes one newline-delimited frame, returning the wire bytes written.
/// Shared by [`StreamTransport`] and [`PumpedTransport`].
fn write_newline_frame<W: std::io::Write>(writer: &mut W, frame: &[u8]) -> Result<u64, MiError> {
    if frame.contains(&b'\n') {
        return Err(MiError::Codec("frame contains a newline".into()));
    }
    if frame.len() > MAX_FRAME_LEN {
        return Err(MiError::Codec(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            frame.len()
        )));
    }
    writer
        .write_all(frame)
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|_| MiError::Disconnected)?;
    Ok(frame.len() as u64 + 1)
}

/// Reads one newline-delimited frame, returning the wire bytes consumed
/// alongside the decoded payload (or error). Shared by
/// [`StreamTransport`] and [`PumpedTransport`]'s reader thread.
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
    match limited.read_until(b'\n', &mut line) {
        Ok(0) => (0, Err(MiError::Disconnected)),
        Ok(n) => {
            let result = if line.len() > MAX_FRAME_LEN {
                Err(MiError::Codec(format!(
                    "frame exceeds the {MAX_FRAME_LEN}-byte cap"
                )))
            } else if line.last() != Some(&b'\n') {
                // The stream ended (or a fault cut it) in the middle
                // of a frame. Treating the fragment as a complete
                // frame would hand garbage to the codec; report the
                // truncation itself.
                Err(MiError::Codec(
                    "mid-frame EOF: stream ended before the frame delimiter".into(),
                ))
            } else {
                while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
                    line.pop();
                }
                Ok(line)
            };
            (n as u64, result)
        }
        Err(_) => (0, Err(MiError::Disconnected)),
    }
}

impl<R: std::io::Read, W: std::io::Write> Transport for StreamTransport<R, W> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        let wire = write_newline_frame(&mut self.writer, frame)?;
        self.counters.bytes_sent += wire;
        self.counters.frames_sent += 1;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let (n, result) = read_newline_frame(&mut self.reader);
        if n > 0 {
            self.counters.bytes_received += n;
            self.counters.frames_received += 1;
        }
        result
    }

    fn counters(&self) -> TransportCounters {
        self.counters
    }
}

/// A [`StreamTransport`] whose *receive* side runs on a dedicated reader
/// thread: the thread blocks on the byte stream and forwards complete
/// frames through an in-process channel, so `recv_deadline` can give up
/// waiting without abandoning a half-read frame. This is the transport
/// the supervised process backend uses — a wedged or killed `mi-server`
/// child surfaces as [`MiError::Timeout`] / [`MiError::Disconnected`]
/// within the deadline instead of blocking the tracker forever.
///
/// The reader thread exits on EOF or stream error; it holds only the
/// reader half, so dropping the transport (closing the writer) lets a
/// well-behaved peer close the stream and the thread unwind.
#[derive(Debug)]
pub struct PumpedTransport<W> {
    frames: Receiver<(u64, Result<Vec<u8>, MiError>)>,
    writer: W,
    counters: TransportCounters,
}

impl<W: std::io::Write> PumpedTransport<W> {
    /// Spawns the reader thread over `reader` and wraps `writer`.
    pub fn spawn<R: std::io::Read + Send + 'static>(reader: R, writer: W) -> Self {
        let (tx, rx) = unbounded();
        std::thread::Builder::new()
            .name("mi-recv-pump".into())
            .spawn(move || {
                let mut reader = std::io::BufReader::new(reader);
                loop {
                    let (n, result) = read_newline_frame(&mut reader);
                    let stop = matches!(result, Err(MiError::Disconnected));
                    if tx.send((n, result)).is_err() || stop {
                        return;
                    }
                }
            })
            .expect("spawn mi receive pump");
        PumpedTransport {
            frames: rx,
            writer,
            counters: TransportCounters::default(),
        }
    }

    fn account(&mut self, item: (u64, Result<Vec<u8>, MiError>)) -> Result<Vec<u8>, MiError> {
        let (n, result) = item;
        if n > 0 {
            self.counters.bytes_received += n;
            self.counters.frames_received += 1;
        }
        result
    }
}

impl<W: std::io::Write + Send> Transport for PumpedTransport<W> {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        let wire = write_newline_frame(&mut self.writer, frame)?;
        self.counters.bytes_sent += wire;
        self.counters.frames_sent += 1;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let item = self.frames.recv().map_err(|_| MiError::Disconnected)?;
        self.account(item)
    }

    fn recv_deadline(&mut self, deadline: Duration) -> Result<Vec<u8>, MiError> {
        let item = self.frames.recv_timeout(deadline).map_err(|e| match e {
            RecvTimeoutError::Timeout => MiError::Timeout,
            RecvTimeoutError::Disconnected => MiError::Disconnected,
        })?;
        self.account(item)
    }

    fn counters(&self) -> TransportCounters {
        self.counters
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
        let mut t = StreamTransport::new(wire.as_slice(), std::io::sink());
        assert_eq!(t.recv().unwrap(), b"{\"a\":1}");
        assert_eq!(t.recv().unwrap(), b"{\"b\":2}");
        assert_eq!(t.recv(), Err(MiError::Disconnected));
    }

    #[test]
    fn newlines_in_frames_rejected() {
        let mut t = StreamTransport::new(std::io::empty(), std::io::sink());
        assert!(matches!(t.send(b"a\nb"), Err(MiError::Codec(_))));
        // A rejected frame never hits the wire, so it is not counted.
        assert_eq!(t.counters(), TransportCounters::default());
    }

    #[test]
    fn crlf_line_endings_accepted() {
        // An engine subprocess on Windows (or behind a tty filter) ends
        // lines with \r\n; the payload must come back without either.
        let wire = b"{\"a\":1}\r\n{\"b\":2}\r\n";
        let mut t = StreamTransport::new(&wire[..], std::io::sink());
        assert_eq!(t.recv().unwrap(), b"{\"a\":1}");
        assert_eq!(t.recv().unwrap(), b"{\"b\":2}");
        // Counters measure the wire, CR and LF included.
        assert_eq!(t.counters().bytes_received, wire.len() as u64);
        assert_eq!(t.counters().frames_received, 2);
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
        {
            let mut t = StreamTransport::new(std::io::empty(), &mut wire);
            t.send(b"{\"a\":1}").unwrap();
            assert_eq!(t.counters().bytes_sent, 8); // 7 payload + '\n'
            assert_eq!(t.counters().frames_sent, 1);
        }
        let mut t = StreamTransport::new(wire.as_slice(), std::io::sink());
        t.recv().unwrap();
        assert_eq!(t.counters().bytes_received, 8);
        assert_eq!(t.counters().frames_received, 1);
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
            let (tx, rx) = unbounded();
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
        assert_eq!(t.counters().frames_received, 1);
        assert_eq!(t.counters().bytes_received, 9); // CR and LF included
        t.send(b"{\"b\":2}").unwrap();
        assert_eq!(t.counters().bytes_sent, 8);
        assert_eq!(t.counters().frames_sent, 1);
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
    }
}
