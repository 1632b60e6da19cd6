//! The MI server (engine side) and client (tracker side).

use crate::host::{read_frame, refuse_stale, Job, SessionState, DEFAULT_SLICE_STEPS};
use crate::protocol::{Command, CommandFrame, Response, ResponseFrame};
use crate::transport::{FrameRx, FrameTx, TransportCounters};
use crate::MiError;
use state::Frame;
use std::time::{Duration, Instant};

/// How a serve loop ended *normally*. Abnormal ends (the transport
/// failing mid-session in a way that is neither a codec hiccup nor a
/// peer hang-up) are the `Err` side of [`Server::serve`] — the
/// `mi-server` binary exits nonzero on those so a supervisor can tell a
/// crashed boundary from a finished session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// A `Terminate` command was served.
    Terminated,
    /// The peer closed its end of the transport (EOF / disconnect) —
    /// the normal end when a tracker simply drops its client.
    PeerClosed,
}

/// Outcome of one fuel-bounded slice of a command (see
/// [`Engine::handle_sliced`]).
#[derive(Debug)]
pub enum SliceOutcome {
    /// The command finished within the slice; this is the response —
    /// byte-identical to what an unsliced [`Engine::handle`] of the same
    /// command would have produced.
    Done(Response),
    /// The fuel ran out mid-command. Nothing is reported to the peer:
    /// the caller owns the yield (it later calls
    /// [`Engine::resume_sliced`]). The inferior's state is exactly as if
    /// execution had merely progressed — a yield is never observable
    /// through the protocol.
    Yielded,
}

/// A debugger engine: executes one command against its inferior.
pub trait Engine {
    /// Handles one command. Engines never panic on bad input; they return
    /// [`Response::Error`].
    fn handle(&mut self, command: Command) -> Response;

    /// Handles one command, executing at most `fuel` engine steps (MiniC
    /// VM ops, retired RISC-V instructions) before
    /// yielding. Control commands that would run longer return
    /// [`SliceOutcome::Yielded`] and are continued by
    /// [`Engine::resume_sliced`]; non-control commands always complete.
    /// The default ignores the fuel and completes the command — engines
    /// that cannot slice (test doubles) stay correct, they just cannot be
    /// preempted.
    fn handle_sliced(&mut self, command: Command, fuel: u64) -> SliceOutcome {
        let _ = fuel;
        SliceOutcome::Done(self.handle(command))
    }

    /// Continues the command that last yielded, with a fresh `fuel`
    /// allowance. Calling it with no yield pending is a caller bug and
    /// answered with a typed [`Response::Error`].
    fn resume_sliced(&mut self, fuel: u64) -> SliceOutcome {
        let _ = fuel;
        SliceOutcome::Done(Response::Error {
            message: "no sliced command pending".into(),
        })
    }

    /// The innermost frame of the pause, its callers chained on: the
    /// frame of what [`Command::GetState`] answers, for a caller in the
    /// engine's own process. The default asks `GetState` and drops the
    /// rest; an engine that holds its snapshot copies only the frame
    /// chain, not the globals.
    ///
    /// # Errors
    ///
    /// The engine's answer when it has no state to give, as `GetState`
    /// answers (a [`Response::Error`] before `Start`).
    fn current_frame(&mut self) -> Result<Frame, Response> {
        match self.handle(Command::GetState) {
            Response::State(st) => Ok(st.frame),
            other => Err(other),
        }
    }
}

/// A boxed engine serves as the engine it holds, so what
/// [`crate::build_engine`] returns can be spawned or served as is.
impl<E: Engine + ?Sized> Engine for Box<E> {
    fn handle(&mut self, command: Command) -> Response {
        (**self).handle(command)
    }

    fn handle_sliced(&mut self, command: Command, fuel: u64) -> SliceOutcome {
        (**self).handle_sliced(command, fuel)
    }

    fn resume_sliced(&mut self, fuel: u64) -> SliceOutcome {
        (**self).resume_sliced(fuel)
    }

    fn current_frame(&mut self) -> Result<Frame, Response> {
        (**self).current_frame()
    }
}

/// Serves one session on the calling thread: the single-session driver
/// of the session core the [`crate::SessionHost`] pool also drives.
///
/// The core decodes frames, refuses stale or duplicate sequence numbers,
/// answers `Ping` and `Telemetry` at the boundary, counts and records
/// every command and enforces the `SetLimits` wall budget. This loop only
/// reads a frame, runs its command to completion inline — in slices of
/// [`DEFAULT_SLICE_STEPS`], like a default host, so the budget is checked
/// between them — and ships the reply. There is no run queue and no
/// thread hop.
pub struct Server<T> {
    transport: T,
    session: SessionState,
    /// Highest sequence number served; lower or equal is refused.
    last_seq: Option<u64>,
}

impl<T: FrameTx + FrameRx> Server<T> {
    /// Creates a server from an engine and its transport endpoint.
    pub fn new(engine: impl Engine + Send + 'static, transport: T) -> Self {
        Self::with_session(SessionState::new(Box::new(engine), None, None), transport)
    }

    /// Like [`Server::new`], but every served command bumps a
    /// `mi.server.cmd.<kind>` counter in `registry` (and undecodable
    /// frames bump `mi.server.cmd.Malformed`).
    pub fn with_registry(
        engine: impl Engine + Send + 'static,
        transport: T,
        registry: obs::Registry,
    ) -> Self {
        let session = SessionState::new(Box::new(engine), Some(registry), None);
        Self::with_session(session, transport)
    }

    /// Like [`Server::with_registry`], but also attaches an export ring
    /// to the registry so `Command::Telemetry` can drain trace events
    /// (not just metrics) back over the wire. Used by the out-of-process
    /// `mi-server`, whose registry the tracker cannot see directly. When
    /// client and server share one in-process registry there is nothing
    /// to drain, and a ring would duplicate every event into the drain.
    pub fn with_telemetry(
        engine: impl Engine + Send + 'static,
        transport: T,
        registry: obs::Registry,
    ) -> Self {
        let session = SessionState::new(Box::new(engine), Some(registry), Some(4096));
        Self::with_session(session, transport)
    }

    fn with_session(session: SessionState, transport: T) -> Self {
        Server {
            transport,
            session,
            last_seq: None,
        }
    }

    /// Attaches the engine-side flight recorder: every served command
    /// and response summary lands in its bounded ring, so a post-mortem
    /// of a dead engine can name what it was doing last.
    pub fn set_flight_recorder(&mut self, flight: obs::FlightRecorder) {
        self.session.flight = Some(flight);
    }

    /// Serves until `Terminate` arrives or the peer disconnects.
    ///
    /// Every command travels in a sequence-numbered [`CommandFrame`] and
    /// is answered with a [`ResponseFrame`] echoing its `seq`; a seq at or
    /// below the last one served is refused with a typed error instead of
    /// running twice. Malformed frames — undecodable commands as well as
    /// transport-level codec failures like a corrupted length prefix —
    /// are answered with a bare [`Response::Error`] and the server keeps
    /// serving.
    ///
    /// # Errors
    ///
    /// `Ok` for the two normal session ends (see [`ServeEnd`]); `Err`
    /// when the transport failed in a way the loop could not report back
    /// to the peer — a send failure, or a non-codec receive failure that
    /// is not a plain disconnect — and [`MiError::Engine`] after the
    /// engine panicked (the command it was running is answered first). The `mi-server` binary turns `Err` into
    /// a nonzero exit with a stderr diagnostic.
    pub fn serve(&mut self) -> Result<ServeEnd, MiError> {
        loop {
            let (reply, stop) = match read_frame(&mut self.transport) {
                Ok(Ok(frame)) => self.answer(frame),
                Ok(Err(bare)) => {
                    self.session.inc("mi.server.cmd.Malformed");
                    (encode(&bare), false)
                }
                Err(MiError::Disconnected) => return Ok(ServeEnd::PeerClosed),
                Err(e) => return Err(e),
            };
            match self.transport.send(&reply) {
                // The peer may already be gone when Terminate was a
                // best-effort farewell; that is still a normal end.
                _ if stop => return Ok(ServeEnd::Terminated),
                Ok(()) => {}
                Err(MiError::Disconnected) => return Ok(ServeEnd::PeerClosed),
                Err(e) => return Err(e),
            }
            // The engine panicked and the command got its typed error:
            // the session is over, abnormally.
            if let Some(fault) = &self.session.fault {
                return Err(MiError::Engine(fault.clone()));
            }
        }
    }

    /// Answers one frame, running its command to completion inline;
    /// returns the encoded reply and whether it ends the session.
    fn answer(&mut self, frame: CommandFrame) -> (Vec<u8>, bool) {
        let CommandFrame {
            seq, cmd, trace, ..
        } = frame;
        let refusal = refuse_stale(self.last_seq, seq, None);
        let stop = refusal.is_none() && cmd == Command::Terminate;
        let resp = refusal.unwrap_or_else(|| {
            self.last_seq = Some(seq);
            let mut job = Some(Job { seq, trace, cmd });
            loop {
                if let Some((_, resp)) = self.session.slice(job.take(), DEFAULT_SLICE_STEPS) {
                    break resp;
                }
            }
        });
        let reply = ResponseFrame {
            seq,
            resp,
            session: None,
        };
        (encode(&reply), stop)
    }
}

pub(crate) fn encode<T: serde::Serialize>(reply: &T) -> Vec<u8> {
    serde_json::to_vec(reply).expect("responses always serialize")
}

/// Where a client [`Envelope`] ships its frames and waits for replies.
pub(crate) trait Link {
    /// Ships one encoded command frame; returns its size on the wire.
    fn ship(&mut self, frame: &[u8]) -> Result<u64, MiError>;

    /// The next reply, waiting at most `deadline`: the bytes its read took
    /// off the wire (also when the reply then fails framing or decoding;
    /// 0 when nothing arrived), and the reply's seq (`None` for a bare
    /// reply the peer could not attribute to a command) and response.
    fn next_reply(&mut self, deadline: Option<Duration>) -> (u64, Result<Reply, MiError>);
}

/// A reply's seq, if it carries one, and its response.
pub(crate) type Reply = (Option<u64>, Response);

impl<T: FrameTx + FrameRx> Link for T {
    fn ship(&mut self, frame: &[u8]) -> Result<u64, MiError> {
        self.send(frame)?;
        Ok(frame.len() as u64 + self.framing())
    }

    fn next_reply(&mut self, deadline: Option<Duration>) -> (u64, Result<Reply, MiError>) {
        let before = self.wire_bytes();
        let frame = match deadline {
            None => self.recv(),
            Some(d) => self.recv_deadline(d),
        };
        let wire = self.wire_bytes().saturating_sub(before);
        let reply = frame.and_then(
            |frame| match serde_json::from_slice::<ResponseFrame>(&frame) {
                Ok(rf) => Ok((Some(rf.seq), rf.resp)),
                // The server reporting a frame it could not decode, and so
                // could not attribute to a sequence number.
                Err(_) => serde_json::from_slice::<Response>(&frame)
                    .map(|resp| (None, resp))
                    .map_err(|e| MiError::Codec(e.to_string())),
            },
        );
        (wire, reply)
    }
}

/// The tracker side of one sequence-numbered command stream, shared by
/// [`Client`] and [`crate::SessionHandle`]: it allocates sequence numbers,
/// stamps trace contexts, discards stale replies, enforces deadlines,
/// maps a host's `SessionGone` to [`MiError::Disconnected`], and keeps
/// the stream's traffic counters and `mi.client.*` metrics.
#[derive(Debug, Default)]
pub(crate) struct Envelope {
    session: Option<u64>,
    next_seq: u64,
    pub(crate) registry: Option<obs::Registry>,
    pub(crate) counters: TransportCounters,
}

impl Envelope {
    /// An envelope addressing `session` (`None`: a single-session server,
    /// or a host's control plane).
    pub(crate) fn new(session: Option<u64>) -> Self {
        Envelope {
            session,
            ..Envelope::default()
        }
    }

    /// Sends `command` over `link` and waits for its reply.
    ///
    /// Replies whose `seq` is older than the command in flight are
    /// duplicated or stale frames left over from a fault or an expired
    /// deadline: they are discarded, so one faulty frame never silently
    /// desynchronizes the stream. The deadline covers the whole roundtrip,
    /// discarded frames included. After any error the stream stays usable:
    /// the next call allocates a fresh seq and skips the late reply.
    pub(crate) fn call(
        &mut self,
        link: &mut impl Link,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        let span = self
            .registry
            .as_ref()
            .map(|reg| reg.span_static(command.roundtrip_span()));
        // Stamp the roundtrip span's context onto the frame: engine-side
        // spans caused by this command become its (remote) children.
        let trace = span.as_ref().map(obs::Span::context);
        let resp = self.roundtrip(link, command, trace, deadline);
        drop(span);
        if let Some(reg) = &self.registry {
            let c = self.counters;
            reg.set_gauge("mi.client.bytes_sent", c.bytes_sent);
            reg.set_gauge("mi.client.bytes_received", c.bytes_received);
            reg.set_gauge("mi.client.frames_sent", c.frames_sent);
            reg.set_gauge("mi.client.frames_received", c.frames_received);
        }
        let resp = resp?;
        if let Response::SessionGone { .. } = resp {
            // The host swept this session (terminated, closed, or its
            // connection died): engine loss, reported the way a dead
            // dedicated child reports it, so supervision re-opens the
            // session and replays its journal.
            if let Some(reg) = &self.registry {
                reg.inc("mi.client.session_gone");
            }
            return Err(MiError::Disconnected);
        }
        Ok(resp)
    }

    /// Ships `command` and waits for its reply, counting every frame
    /// that crosses the wire, whatever the outcome.
    fn roundtrip(
        &mut self,
        link: &mut impl Link,
        command: Command,
        trace: Option<obs::TraceContext>,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = serde_json::to_vec(&CommandFrame {
            seq,
            cmd: command,
            trace,
            session: self.session,
        })
        .map_err(|e| MiError::Codec(e.to_string()))?;
        self.counters.bytes_sent += link.ship(&bytes)?;
        self.counters.frames_sent += 1;
        let start = Instant::now();
        loop {
            let remaining = match deadline {
                None => None,
                Some(d) => Some(d.checked_sub(start.elapsed()).ok_or(MiError::Timeout)?),
            };
            let (wire, reply) = link.next_reply(remaining);
            if wire > 0 {
                self.counters.bytes_received += wire;
                self.counters.frames_received += 1;
            }
            let (reply_seq, resp) = reply?;
            match reply_seq.map(|s| s.cmp(&seq)) {
                None | Some(std::cmp::Ordering::Equal) => return Ok(resp),
                Some(std::cmp::Ordering::Less) => {
                    if let Some(reg) = &self.registry {
                        reg.inc("mi.client.stale_frames");
                    }
                }
                Some(std::cmp::Ordering::Greater) => {
                    return Err(MiError::Codec(format!(
                        "response seq {} is ahead of the command in flight ({seq})",
                        reply_seq.unwrap_or(seq)
                    )))
                }
            }
        }
    }
}

/// Tracker-side stub: sends a command, waits for the response, through
/// the sequence-numbered envelope over any framed transport.
#[derive(Debug)]
pub struct Client<T> {
    transport: T,
    envelope: Envelope,
}

impl<T: FrameTx + FrameRx> Client<T> {
    /// Creates a client over a transport endpoint.
    pub fn new(transport: T) -> Self {
        Client {
            transport,
            envelope: Envelope::new(None),
        }
    }

    /// Like [`Client::new`], but every roundtrip is timed into a
    /// `mi.client.roundtrip.<kind>` histogram and the stream's traffic
    /// counters are mirrored into `mi.client.{bytes,frames}_{sent,received}`
    /// gauges in `registry`. Discarded stale frames bump
    /// `mi.client.stale_frames`.
    pub fn with_registry(transport: T, registry: obs::Registry) -> Self {
        let mut c = Client::new(transport);
        c.envelope.registry = Some(registry);
        c
    }

    /// Sends `command` and blocks for the engine's response.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`MiError`]; engine-level failures
    /// come back as [`Response::Error`]. After an error the session
    /// stays usable: re-issuing a command allocates a fresh sequence
    /// number and any late response to the failed command is discarded.
    pub fn call(&mut self, command: Command) -> Result<Response, MiError> {
        self.call_deadline(command, None)
    }

    /// Like [`Client::call`], but gives up with [`MiError::Timeout`] once
    /// `deadline` has elapsed without the matching response arriving.
    ///
    /// On timeout nothing is torn down: the command may still reach the
    /// engine and its late response will be discarded as stale by the
    /// next call, so retrying an idempotent command after a timeout is
    /// safe.
    ///
    /// # Errors
    ///
    /// [`MiError::Timeout`] when the deadline expires; otherwise as
    /// [`Client::call`].
    pub fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        self.envelope.call(&mut self.transport, command, deadline)
    }

    /// Traffic this client has shipped and received, framing included.
    pub fn counters(&self) -> TransportCounters {
        self.envelope.counters
    }

    /// Access to the underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }
}

/// An object-safe handle to "somewhere commands can be sent": any
/// [`Client`], over any transport, or a hosted session. Trackers hold one
/// of these so the same tracker code drives an engine thread over
/// in-process channels, a fault-injection proxy, or an `mi-server` child
/// process over real pipes.
pub trait CommandPort: Send {
    /// Sends one command and blocks for its response.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`MiError`].
    fn call(&mut self, command: Command) -> Result<Response, MiError>;

    /// Like [`CommandPort::call`] but bounded: gives up with
    /// [`MiError::Timeout`] once `deadline` elapses. The default simply
    /// delegates to `call` (unbounded) so simple ports keep working;
    /// real clients override it.
    ///
    /// # Errors
    ///
    /// [`MiError::Timeout`] on deadline expiry; otherwise as `call`.
    fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        let _ = deadline;
        self.call(command)
    }

    /// Traffic shipped through the underlying transport so far.
    fn counters(&self) -> TransportCounters;
}

impl<T: FrameTx + FrameRx> CommandPort for Client<T> {
    fn call(&mut self, command: Command) -> Result<Response, MiError> {
        Client::call(self, command)
    }

    fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        Client::call_deadline(self, command, deadline)
    }

    fn counters(&self) -> TransportCounters {
        Client::counters(self)
    }
}

impl<P: CommandPort + ?Sized> CommandPort for Box<P> {
    fn call(&mut self, command: Command) -> Result<Response, MiError> {
        (**self).call(command)
    }

    fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        (**self).call_deadline(command, deadline)
    }

    fn counters(&self) -> TransportCounters {
        (**self).counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex;

    /// An engine that echoes command names.
    struct Echo;

    impl Engine for Echo {
        fn handle(&mut self, command: Command) -> Response {
            match command {
                Command::Terminate => Response::Ok,
                Command::GetOutput => Response::Output("echo".into()),
                _ => Response::Error {
                    message: "unsupported".into(),
                },
            }
        }
    }

    #[test]
    fn the_envelope_counts_wire_bytes_framing_included() {
        let (a, b) = duplex();
        let handle = std::thread::spawn(move || Server::new(Echo, b).serve());
        let mut client = Client::new(a);
        client.call(Command::GetOutput).unwrap();
        let sent = encode(&CommandFrame {
            seq: 0,
            cmd: Command::GetOutput,
            trace: None,
            session: None,
        });
        let received = encode(&ResponseFrame {
            seq: 0,
            resp: Response::Output("echo".into()),
            session: None,
        });
        // The channel wire puts a 4-byte length prefix on every frame.
        let c = client.counters();
        assert_eq!((c.frames_sent, c.frames_received), (1, 1));
        assert_eq!(c.bytes_sent, sent.len() as u64 + 4);
        assert_eq!(c.bytes_received, received.len() as u64 + 4);
        client.call(Command::Terminate).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// Drives a client whose peer wrote `reply` CRLF-terminated, then an
    /// unreadable line, then half a frame: every byte that crossed the
    /// wire counts, the `\r` and the failed frames included.
    fn stream_envelope_counts<T: FrameTx + FrameRx>(mut client: Client<T>, reply: &[u8]) {
        let sent = |seq| {
            let frame = CommandFrame {
                seq,
                cmd: Command::GetOutput,
                trace: None,
                session: None,
            };
            encode(&frame).len() as u64 + 1
        };
        let echo = Response::Output("echo".into());
        assert_eq!(client.call(Command::GetOutput).unwrap(), echo);
        let c = client.counters();
        assert_eq!((c.frames_sent, c.frames_received), (1, 1));
        assert_eq!(c.bytes_sent, sent(0));
        assert_eq!(c.bytes_received, reply.len() as u64 + 2);
        // An unreadable reply is still received traffic.
        assert!(matches!(
            client.call(Command::GetOutput),
            Err(MiError::Codec(_))
        ));
        let c = client.counters();
        assert_eq!(c.frames_received, 2);
        assert_eq!(c.bytes_received, reply.len() as u64 + 2 + 9);
        // So is a frame the stream cut short.
        assert!(matches!(
            client.call(Command::GetOutput),
            Err(MiError::Codec(_))
        ));
        let c = client.counters();
        assert_eq!(c.frames_received, 3);
        assert_eq!(c.bytes_received, reply.len() as u64 + 2 + 9 + 5);
        // A disconnect adds nothing received.
        assert_eq!(client.call(Command::GetOutput), Err(MiError::Disconnected));
        let c = client.counters();
        assert_eq!((c.frames_sent, c.frames_received), (4, 3));
        assert_eq!(c.bytes_sent, (0..4).map(sent).sum::<u64>());
        assert_eq!(c.bytes_received, reply.len() as u64 + 2 + 9 + 5);
    }

    #[test]
    fn stream_envelopes_count_newline_framing_crlf_and_unreadable_frames() {
        use crate::transport::{PumpedTransport, StreamTransport};
        let reply = encode(&ResponseFrame {
            seq: 0,
            resp: Response::Output("echo".into()),
            session: None,
        });
        let mut wire = reply.clone();
        wire.extend_from_slice(b"\r\n\xffgarbage\n{\"cut");
        let stream = StreamTransport::new(std::io::Cursor::new(wire.clone()), Vec::new());
        stream_envelope_counts(Client::new(stream), &reply);
        let pumped = PumpedTransport::spawn(std::io::Cursor::new(wire), std::io::sink());
        stream_envelope_counts(Client::new(pumped), &reply);
    }

    #[test]
    fn request_response_over_thread() {
        let (a, b) = duplex();
        let handle = std::thread::spawn(move || Server::new(Echo, b).serve());
        let mut client = Client::new(a);
        assert_eq!(
            client.call(Command::GetOutput).unwrap(),
            Response::Output("echo".into())
        );
        assert!(matches!(
            client.call(Command::Start).unwrap(),
            Response::Error { .. }
        ));
        assert_eq!(client.call(Command::Terminate).unwrap(), Response::Ok);
        assert_eq!(handle.join().unwrap().unwrap(), ServeEnd::Terminated);
    }

    #[test]
    fn ping_answered_by_serve_loop_without_engine() {
        // Echo's handle() would answer Error for Ping; Pong proves the
        // serve loop intercepted it.
        let (a, b) = duplex();
        let handle = std::thread::spawn(move || Server::new(Echo, b).serve());
        let mut client = Client::new(a);
        assert!(matches!(
            client.call(Command::Ping).unwrap(),
            Response::Pong { .. }
        ));
        assert_eq!(client.call(Command::Terminate).unwrap(), Response::Ok);
        assert_eq!(handle.join().unwrap().unwrap(), ServeEnd::Terminated);
    }

    #[test]
    fn telemetry_drains_idempotently_from_the_server_registry() {
        let reg = obs::Registry::new();
        let (a, b) = duplex();
        let server_reg = reg.clone();
        let handle = std::thread::spawn(move || {
            let mut server = Server::with_telemetry(Echo, b, server_reg);
            server.serve()
        });
        let mut client = Client::new(a);
        // Generate some server-side telemetry: spans land in the export
        // ring, the command counter accumulates.
        assert_eq!(
            client.call(Command::GetOutput).unwrap(),
            Response::Output("echo".into())
        );
        reg.span("vm.fake.exec").finish();
        let drain = |client: &mut Client<_>, since| match client
            .call(Command::Telemetry { since })
            .unwrap()
        {
            Response::Telemetry(frame) => *frame,
            other => panic!("expected Telemetry, got {other:?}"),
        };
        let first = drain(&mut client, 0);
        assert!(first.counters.contains_key("mi.server.cmd.GetOutput"));
        assert!(first.events.iter().any(|e| e.name == "vm.fake.exec"));
        assert!(first.now_us > 0 || first.next_event > 0);
        // Same cursor → same frame (retry safety); new cursor → empty.
        let again = drain(&mut client, 0);
        assert_eq!(again.events.len(), first.events.len());
        assert_eq!(again.next_event, first.next_event);
        let rest = drain(&mut client, first.next_event);
        assert!(rest.events.iter().all(|e| e.name != "vm.fake.exec"));
        assert_eq!(client.call(Command::Terminate).unwrap(), Response::Ok);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn telemetry_without_a_registry_answers_an_empty_frame() {
        let (a, b) = duplex();
        let handle = std::thread::spawn(move || Server::new(Echo, b).serve());
        let mut client = Client::new(a);
        match client.call(Command::Telemetry { since: 9 }).unwrap() {
            Response::Telemetry(frame) => {
                assert!(frame.counters.is_empty());
                assert!(frame.events.is_empty());
                assert_eq!(frame.next_event, 9);
            }
            other => panic!("expected Telemetry, got {other:?}"),
        }
        assert_eq!(client.call(Command::Terminate).unwrap(), Response::Ok);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn server_flight_recorder_captures_commands_and_responses() {
        let flight = obs::FlightRecorder::new(16);
        let (a, b) = duplex();
        let server_flight = flight.clone();
        let handle = std::thread::spawn(move || {
            let mut server = Server::new(Echo, b);
            server.set_flight_recorder(server_flight);
            server.serve()
        });
        let mut client = Client::new(a);
        client.call(Command::GetOutput).unwrap();
        client.call(Command::Terminate).unwrap();
        handle.join().unwrap().unwrap();
        let log = flight.log();
        assert_eq!(log.last_of("cmd").unwrap().detail, "Terminate");
        assert!(log
            .entries
            .iter()
            .any(|e| e.kind == "resp" && e.detail.contains("Output")));
    }

    /// An engine that panics on every command.
    struct Panics;

    impl Engine for Panics {
        fn handle(&mut self, _: Command) -> Response {
            panic!("solo test double");
        }
    }

    #[test]
    fn an_engine_panic_answers_the_command_then_ends_serve() {
        let flight = obs::FlightRecorder::new(16);
        let (a, b) = duplex();
        let server_flight = flight.clone();
        let handle = std::thread::spawn(move || {
            let mut server = Server::new(Panics, b);
            server.set_flight_recorder(server_flight);
            server.serve()
        });
        let mut client = Client::new(a);
        let message = "engine fault: solo test double";
        assert_eq!(
            client.call(Command::Start).unwrap(),
            Response::Error {
                message: message.into()
            }
        );
        assert_eq!(handle.join().unwrap(), Err(MiError::Engine(message.into())));
        assert_eq!(flight.log().last_of("fault").unwrap().detail, message);
        // The post-mortem went to the dump directory; remove it.
        let prefix = format!("easytracker-flight-{}-", std::process::id());
        for entry in std::fs::read_dir(obs::FlightDump::default_dir()).unwrap() {
            let path = entry.unwrap().path();
            let ours = path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with(&prefix)
                && std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| obs::FlightDump::from_json(&text))
                    .is_some_and(|dump| dump.reason == message);
            if ours {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    #[test]
    fn dropped_client_ends_serve_with_peer_closed() {
        let (a, b) = duplex();
        let handle = std::thread::spawn(move || Server::new(Echo, b).serve());
        drop(a);
        assert_eq!(handle.join().unwrap().unwrap(), ServeEnd::PeerClosed);
    }

    #[test]
    fn unknown_command_variant_rejected_and_counted() {
        // A peer speaking a newer (or broken) protocol revision sends a
        // command id this server does not know: decode fails, the server
        // answers Error, counts it as Malformed, and keeps serving.
        let reg = obs::Registry::new();
        let (mut a, b) = duplex();
        let server_reg = reg.clone();
        let handle = std::thread::spawn(move || {
            let _ = Server::with_registry(Echo, b, server_reg).serve();
        });
        a.send(br#"{"SelfDestruct":{"countdown":3}}"#).unwrap();
        let resp: Response = serde_json::from_slice(&a.recv().unwrap()).unwrap();
        let Response::Error { message } = resp else {
            panic!("expected error for unknown command id");
        };
        assert!(message.contains("malformed command"), "{message}");
        let mut client = Client::new(a);
        assert_eq!(
            client.call(Command::GetOutput).unwrap(),
            Response::Output("echo".into())
        );
        assert_eq!(client.call(Command::Terminate).unwrap(), Response::Ok);
        handle.join().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mi.server.cmd.Malformed"), 1);
        assert_eq!(snap.counter("mi.server.cmd.GetOutput"), 1);
        assert_eq!(snap.counter("mi.server.cmd.Terminate"), 1);
    }

    #[test]
    fn malformed_json_frame_answered_with_error_and_counted() {
        let reg = obs::Registry::new();
        let (mut a, b) = duplex();
        let server_reg = reg.clone();
        let handle = std::thread::spawn(move || {
            let _ = Server::with_registry(Echo, b, server_reg).serve();
        });
        // Three flavours of garbage: truncated JSON, binary noise, valid
        // JSON of the wrong shape.
        for garbage in [
            &br#"{"GetOutput"#[..],
            &b"\x00\xff\xfe"[..],
            &b"[1,2,3]"[..],
        ] {
            a.send(garbage).unwrap();
            let resp: Response = serde_json::from_slice(&a.recv().unwrap()).unwrap();
            assert!(matches!(resp, Response::Error { .. }));
        }
        let mut client = Client::new(a);
        assert_eq!(client.call(Command::Terminate).unwrap(), Response::Ok);
        handle.join().unwrap();
        assert_eq!(reg.snapshot().counter("mi.server.cmd.Malformed"), 3);
    }

    #[test]
    fn server_survives_malformed_frames() {
        let (mut a, b) = duplex();
        let handle = std::thread::spawn(move || {
            let _ = Server::new(Echo, b).serve();
        });
        a.send(b"not json").unwrap();
        let resp: Response = serde_json::from_slice(&a.recv().unwrap()).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
        // Still alive afterwards.
        let mut client = Client::new(a);
        assert_eq!(client.call(Command::Terminate).unwrap(), Response::Ok);
        handle.join().unwrap();
    }
}
