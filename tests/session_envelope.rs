//! Property tests of the session envelope: random abuse frames —
//! unknown and stale session ids, duplicate and replayed sequence
//! numbers, frames addressed to another connection's session, malformed
//! bytes — must be rejected with *typed* errors that echo the offending
//! seq and session id, and must never desynchronize an innocent
//! session's stream, whether a session host or a solo engine serves it.

use mi::minic_engine::MinicEngine;
use mi::transport::{duplex, ChannelTransport, FrameRx, FrameTx, PumpedTransport};
use mi::{
    Client, Command, CommandFrame, ResourceKind, Response, ResponseFrame, Server, SessionHost,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Duration;

const PROG: &str = "int main() {\n\
                    int x = 0;\n\
                    x = x + 1;\n\
                    x = x + 2;\n\
                    x = x + 3;\n\
                    return x;\n\
                    }\n";

/// Raw-wire client: hand-built frames over one channel transport, so
/// the test controls every seq and session id on the wire.
struct Raw {
    t: ChannelTransport,
    seq: u64,
}

impl Raw {
    fn connect(host: &SessionHost) -> Self {
        let (a, b) = duplex();
        let (btx, brx) = b.split();
        host.accept(brx, btx);
        Raw { t: a, seq: 0 }
    }

    /// A solo engine serving `source` on its own thread: the
    /// single-session driver behind `spawn_minic` and `mi-server <prog>`.
    fn solo(source: &str) -> Self {
        let program = minic::compile("v.c", source).expect("program compiles");
        let (a, b) = duplex();
        std::thread::spawn(move || Server::new(MinicEngine::new(&program), b).serve());
        Raw { t: a, seq: 0 }
    }

    /// Ships raw bytes, bypassing the envelope.
    fn send_bytes(&mut self, bytes: &[u8]) {
        self.t.send(bytes).expect("send");
    }

    /// A reply that is no `ResponseFrame`: the answer to bytes the peer
    /// could not decode, so there is no seq to echo.
    fn recv_bare(&mut self) -> Response {
        let bytes = self
            .t
            .recv_deadline(Duration::from_secs(10))
            .expect("reply");
        serde_json::from_slice(&bytes).expect("bare response")
    }

    fn send(&mut self, seq: u64, session: Option<u64>, cmd: Command) {
        let bytes = serde_json::to_vec(&CommandFrame {
            seq,
            cmd,
            trace: None,
            session,
        })
        .expect("frame encodes");
        self.send_bytes(&bytes);
    }

    fn recv(&mut self) -> ResponseFrame {
        let bytes = self
            .t
            .recv_deadline(Duration::from_secs(10))
            .expect("host reply");
        serde_json::from_slice(&bytes).expect("response frame")
    }

    /// Sends at the next fresh seq and waits for the matching reply.
    fn roundtrip(&mut self, session: Option<u64>, cmd: Command) -> ResponseFrame {
        let seq = self.seq;
        self.seq += 1;
        self.send(seq, session, cmd);
        let rf = self.recv();
        assert_eq!(rf.seq, seq, "reply must echo the request seq");
        rf
    }

    fn open(&mut self, file: &str) -> u64 {
        match self
            .roundtrip(
                None,
                Command::OpenSession {
                    file: file.into(),
                    source: PROG.into(),
                    opt: 0,
                },
            )
            .resp
        {
            Response::SessionOpened { session } => session,
            other => panic!("expected SessionOpened, got {other:?}"),
        }
    }
}

/// One abuse frame to inject between legitimate commands.
#[derive(Debug, Clone)]
enum Abuse {
    /// A session id the host never assigned (ids start at 1 and stay
    /// tiny here; the offset keeps these unreachable).
    UnknownSid(u64),
    /// Replay the seq of the victim's most recent served command.
    StaleSeq,
    /// Replay a seq from the victim's deeper past (always ≤ last).
    AncientSeq(u64),
    /// Address the *other* connection's session from the victim's
    /// connection, reusing the victim's own seq numbering.
    ForeignSid,
    /// Bytes that are no command frame (an index into [`GARBAGE`]).
    Malformed(usize),
}

/// Undecodable frames: binary noise, a command id no peer knows, and
/// valid JSON of the wrong shape.
const GARBAGE: [&[u8]; 3] = [
    b"\x00\xffnot a frame",
    br#"{"seq":3,"cmd":{"SelfDestruct":{"countdown":3}},"trace":null,"session":null}"#,
    b"[1,2,3]",
];

impl Abuse {
    /// Session ids mean nothing to a solo engine: only seq replays and
    /// malformed bytes reach it.
    fn reaches_a_solo_engine(&self) -> bool {
        matches!(
            self,
            Abuse::StaleSeq | Abuse::AncientSeq(_) | Abuse::Malformed(_)
        )
    }
}

fn arb_abuse() -> impl Strategy<Value = Abuse> {
    prop_oneof![
        (0u64..1000).prop_map(|x| Abuse::UnknownSid(1_000_000 + x)),
        Just(Abuse::StaleSeq),
        (0u64..8).prop_map(Abuse::AncientSeq),
        Just(Abuse::ForeignSid),
        (0usize..GARBAGE.len()).prop_map(Abuse::Malformed),
    ]
}

/// The victim's expected clean trace: response summaries of the legit
/// script run against an un-abused host.
fn clean_trace() -> Vec<String> {
    let host = SessionHost::new(1);
    let mut c = Raw::connect(&host);
    let sid = c.open("v.c");
    let mut trace = Vec::new();
    trace.push(c.roundtrip(Some(sid), Command::Start).resp.summary());
    loop {
        let s = c.roundtrip(Some(sid), Command::Step).resp.summary();
        let done = s.contains("exited") || s.contains("crashed");
        trace.push(s);
        trace.push(c.roundtrip(Some(sid), Command::GetState).resp.summary());
        if done {
            break;
        }
    }
    trace.push(c.roundtrip(Some(sid), Command::GetExitCode).resp.summary());
    let t = trace;
    host.shutdown();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Abuse frames interleaved into a live stream each get a typed
    /// rejection echoing their seq + session id, and the victim's own
    /// script still produces exactly the clean-run responses. The victim
    /// is a hosted session beside a bystander on another connection, or
    /// a solo engine's one implicit session (which only the abuses that
    /// reach it are aimed at).
    #[test]
    fn envelope_abuse_is_rejected_typed_and_never_desyncs(
        solo in any::<bool>(),
        abuses in prop::collection::vec(arb_abuse(), 1..10),
    ) {
        let oracle = clean_trace();
        let host = SessionHost::new(2);
        let (mut victim, vsid, other) = if solo {
            (Raw::solo(PROG), None, None)
        } else {
            let mut victim = Raw::connect(&host);
            let vsid = victim.open("v.c");
            let mut other = Raw::connect(&host);
            let osid = other.open("o.c");
            (victim, Some(vsid), Some((other, osid)))
        };
        let osid = other.as_ref().map(|(_, osid)| *osid);
        let abuses: Vec<Abuse> = abuses
            .into_iter()
            .filter(|a| !solo || a.reaches_a_solo_engine())
            .collect();

        fn abuse_once(
            victim: &mut Raw,
            abuse: &Abuse,
            vsid: Option<u64>,
            osid: Option<u64>,
            last_vseq: u64,
        ) {
            match abuse {
                Abuse::Malformed(pick) => {
                    victim.send_bytes(GARBAGE[*pick]);
                    match victim.recv_bare() {
                        Response::Error { message } => {
                            prop_assert!(
                                message.contains("malformed command"),
                                "unexpected rejection: {}",
                                message
                            );
                        }
                        other => prop_assert!(false, "expected typed Error, got {other:?}"),
                    }
                }
                Abuse::UnknownSid(sid) => {
                    let rf = victim.roundtrip(Some(*sid), Command::GetExitCode);
                    prop_assert_eq!(rf.resp, Response::SessionGone { session: *sid });
                    prop_assert_eq!(rf.session, Some(*sid));
                }
                Abuse::StaleSeq | Abuse::AncientSeq(_) => {
                    // Replay a seq at or below the session's last served
                    // one: an exact duplicate or a deep replay.
                    let seq = match abuse {
                        Abuse::AncientSeq(back) => last_vseq.saturating_sub(*back),
                        _ => last_vseq,
                    };
                    victim.send(seq, vsid, Command::GetExitCode);
                    let rf = victim.recv();
                    prop_assert_eq!(rf.seq, seq);
                    prop_assert_eq!(rf.session, vsid);
                    match &rf.resp {
                        Response::Error { message } => {
                            prop_assert!(
                                message.contains("stale or duplicate seq"),
                                "unexpected rejection: {}",
                                message
                            );
                        }
                        other => prop_assert!(false, "expected typed Error, got {other:?}"),
                    }
                }
                Abuse::ForeignSid => {
                    let rf = victim.roundtrip(osid, Command::GetState);
                    prop_assert_eq!(rf.session, osid);
                    match &rf.resp {
                        Response::Error { message } => {
                            prop_assert!(
                                message.contains("belongs to another connection"),
                                "unexpected rejection: {}",
                                message
                            );
                        }
                        other => prop_assert!(false, "expected typed Error, got {other:?}"),
                    }
                }
            }
        }

        let mut trace = Vec::new();
        let mut abuses = abuses.iter();
        // The victim session's most recently served seq (stale replays
        // must target at-or-below this; the client-side `seq` counter
        // also advances for abuse frames, which the session never saw).
        let mut last_vseq = victim.seq;
        trace.push(victim.roundtrip(vsid, Command::Start).resp.summary());
        loop {
            if let Some(abuse) = abuses.next() {
                abuse_once(&mut victim, abuse, vsid, osid, last_vseq);
            }
            last_vseq = victim.seq;
            let s = victim.roundtrip(vsid, Command::Step).resp.summary();
            let done = s.contains("exited") || s.contains("crashed");
            trace.push(s);
            trace.push(victim.roundtrip(vsid, Command::GetState).resp.summary());
            if done {
                break;
            }
        }
        last_vseq = victim.seq;
        trace.push(
            victim
                .roundtrip(vsid, Command::GetExitCode)
                .resp
                .summary(),
        );
        // Any abuse left over lands after the script, on a still-open
        // (parked) session.
        for abuse in abuses {
            abuse_once(&mut victim, abuse, vsid, osid, last_vseq);
        }
        prop_assert_eq!(trace, oracle, "abuse desynchronized the victim's stream");

        // The bystander session on the other connection is untouched
        // even though its id was used in foreign-sid abuse.
        if let Some((mut other, osid)) = other {
            let rf = other.roundtrip(Some(osid), Command::Start);
            prop_assert!(matches!(rf.resp, Response::Paused(_)));
            prop_assert_eq!(host.session_count(), 2);
        }
        host.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Governance wire compatibility
// ---------------------------------------------------------------------------

/// Mirror of the pre-governance command vocabulary, as a peer compiled
/// before `SetLimits` existed would have it. Serde rejects unknown
/// variants, so a successful decode through this type proves an old
/// peer reads the frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum LegacyCommand {
    Start,
    Resume,
    Step,
    GetExitCode,
    Ping,
    Telemetry { since: u64 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LegacyCommandFrame {
    seq: u64,
    cmd: LegacyCommand,
    trace: Option<serde_json::Value>,
    session: Option<u64>,
}

fn legacy_pairs() -> Vec<(Command, LegacyCommand)> {
    vec![
        (Command::Start, LegacyCommand::Start),
        (Command::Resume, LegacyCommand::Resume),
        (Command::Step, LegacyCommand::Step),
        (Command::GetExitCode, LegacyCommand::GetExitCode),
        (Command::Ping, LegacyCommand::Ping),
        (
            Command::Telemetry { since: 7 },
            LegacyCommand::Telemetry { since: 7 },
        ),
    ]
}

/// The vendored proptest has no `prop::option`; roll one.
fn arb_opt_u64() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)].boxed()
}

fn arb_limits() -> impl Strategy<Value = Command> {
    (arb_opt_u64(), arb_opt_u64(), arb_opt_u64(), arb_opt_u64()).prop_map(|(s, h, w, q)| {
        Command::SetLimits {
            max_steps: s,
            max_heap_bytes: h,
            max_wall_ms: w,
            max_queue_depth: q,
        }
    })
}

fn arb_kind() -> impl Strategy<Value = ResourceKind> {
    prop_oneof![
        Just(ResourceKind::Steps),
        Just(ResourceKind::HeapBytes),
        Just(ResourceKind::WallMs),
        Just(ResourceKind::QueueDepth),
    ]
}

fn arb_governance_resp() -> impl Strategy<Value = Response> {
    prop_oneof![
        (arb_kind(), any::<u64>(), any::<u64>()).prop_map(|(which, used, limit)| {
            Response::ResourceExhausted { which, used, limit }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(load, limit)| Response::Overloaded { load, limit }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(depth, limit)| Response::QueueFull { depth, limit }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SetLimits` commands and the three governance responses survive
    /// a framed JSON round-trip bit-exactly, any combination of set
    /// and cleared budgets included.
    #[test]
    fn governance_frames_roundtrip(
        cmd in arb_limits(),
        resp in arb_governance_resp(),
        seq in any::<u64>(),
        session in arb_opt_u64(),
    ) {
        let cf = CommandFrame { seq, cmd, trace: None, session };
        let bytes = serde_json::to_vec(&cf).expect("encode");
        let back: CommandFrame = serde_json::from_slice(&bytes).expect("decode");
        prop_assert_eq!(&back, &cf);

        let rf = ResponseFrame { seq, resp, session };
        let bytes = serde_json::to_vec(&rf).expect("encode");
        let back: ResponseFrame = serde_json::from_slice(&bytes).expect("decode");
        prop_assert_eq!(&back, &rf);
    }

    /// Wire compatibility with peers that predate governance, both
    /// directions: frames an old peer emits (no limits anywhere)
    /// decode under the new vocabulary, and governance-free frames the
    /// new code emits decode under the old vocabulary — adding the
    /// variants changed nothing about the existing encoding.
    #[test]
    fn old_peers_interoperate_with_governance_free_frames(
        seq in any::<u64>(),
        session in arb_opt_u64(),
        pick in 0usize..6,
    ) {
        let (new_cmd, legacy_cmd) = legacy_pairs().swap_remove(pick);

        // Old peer encodes → new code decodes.
        let old_frame = LegacyCommandFrame {
            seq,
            cmd: legacy_cmd.clone(),
            trace: None,
            session,
        };
        let bytes = serde_json::to_vec(&old_frame).expect("legacy encode");
        let decoded: CommandFrame = serde_json::from_slice(&bytes)
            .expect("new decoder reads old frames");
        prop_assert_eq!(&decoded.cmd, &new_cmd);
        prop_assert_eq!(decoded.seq, seq);
        prop_assert_eq!(decoded.session, session);

        // New code encodes (no governance used) → old peer decodes.
        let new_frame = CommandFrame { seq, cmd: new_cmd, trace: None, session };
        let bytes = serde_json::to_vec(&new_frame).expect("encode");
        let decoded: LegacyCommandFrame = serde_json::from_slice(&bytes)
            .expect("old decoder reads governance-free frames");
        prop_assert_eq!(decoded.cmd, legacy_cmd);
    }
}

// ---------------------------------------------------------------------------
// The solo driver keeps the envelope's promises too
// ---------------------------------------------------------------------------

/// Spawns `mi-server <program>` for `source`: the child, a raw
/// deadline-capable transport on its pipes, and the scratch directory
/// holding the program (the caller removes it).
fn solo_child(
    name: &str,
    source: &str,
) -> (
    std::process::Child,
    PumpedTransport<std::process::ChildStdin>,
    std::path::PathBuf,
) {
    let server = conformance::mi_server_bin().expect("mi_server builds");
    let dir = std::env::temp_dir().join(format!("session-envelope-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, source).expect("program written");
    let mut child = std::process::Command::new(server)
        .arg(&path)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("mi-server spawns");
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    (child, PumpedTransport::spawn(stdout, stdin), dir)
}

/// One hand-built frame out, one reply frame in.
fn frame_roundtrip(t: &mut (impl FrameTx + FrameRx), seq: u64, cmd: Command) -> ResponseFrame {
    let bytes = serde_json::to_vec(&CommandFrame {
        seq,
        cmd,
        trace: None,
        session: None,
    })
    .expect("frame encodes");
    t.send(&bytes).expect("send");
    let reply = t.recv_deadline(Duration::from_secs(10)).expect("reply");
    serde_json::from_slice(&reply).expect("response frame")
}

/// A `CommandFrame` delivered twice (a retransmitting link) must run
/// once: the copy is refused as stale and the inferior advances a single
/// step.
fn duplicate_runs_once(t: &mut (impl FrameTx + FrameRx)) {
    let start = frame_roundtrip(t, 0, Command::Start);
    assert!(matches!(start.resp, Response::Paused(_)), "{start:?}");
    let first = frame_roundtrip(t, 1, Command::Step);
    assert!(matches!(first.resp, Response::Paused(_)), "{first:?}");
    let copy = frame_roundtrip(t, 1, Command::Step);
    assert_eq!(copy.seq, 1);
    match &copy.resp {
        Response::Error { message } => {
            assert!(message.contains("stale or duplicate seq"), "{message}")
        }
        other => panic!("the duplicate ran again: {other:?}"),
    }
    // One step from the first statement (line 2), not two.
    let Response::State(st) = frame_roundtrip(t, 2, Command::GetState).resp else {
        panic!("expected state");
    };
    assert_eq!(st.frame.location().line(), 3);
    frame_roundtrip(t, 3, Command::Terminate);
}

#[test]
fn a_solo_engine_runs_a_duplicated_command_frame_once() {
    // In process: the driver `spawn_minic` runs.
    duplicate_runs_once(&mut Raw::solo(PROG).t);
    // A dedicated `mi-server` child, across real pipes.
    let (mut child, mut pipes, dir) = solo_child("dup.c", PROG);
    duplicate_runs_once(&mut pipes);
    child.wait().expect("mi-server exits after Terminate");
    let _ = std::fs::remove_dir_all(dir);
}

/// A hot loop that never pauses.
const HOT: &str =
    "int main() {\n  int i = 0;\n  while (1) {\n    i = i + 1;\n  }\n  return i;\n}\n";

/// Under a 50 ms wall budget, `Resume` into a hot loop must come back as
/// the typed verdict long before the caller's own deadline expires.
fn wall_budget_trips(client: &mut Client<impl FrameTx + FrameRx>) {
    let limits = Command::SetLimits {
        max_steps: None,
        max_heap_bytes: None,
        max_wall_ms: Some(50),
        max_queue_depth: None,
    };
    assert_eq!(client.call(limits).expect("limits"), Response::Ok);
    assert!(matches!(
        client.call(Command::Start),
        Ok(Response::Paused(_))
    ));
    let begun = std::time::Instant::now();
    match client.call_deadline(Command::Resume, Some(Duration::from_millis(1500))) {
        Ok(Response::ResourceExhausted { which, used, limit }) => {
            assert_eq!(which, ResourceKind::WallMs);
            assert_eq!(limit, 50);
            assert!(used >= limit, "used {used} of {limit}");
        }
        other => panic!("expected the wall verdict, got {other:?}"),
    }
    assert!(
        begun.elapsed() < Duration::from_secs(1),
        "{:?}",
        begun.elapsed()
    );
}

#[test]
fn a_solo_wall_budget_stops_a_hot_loop() {
    let program = minic::compile("hot.c", HOT).expect("compiles");
    let mut session = mi::spawn_minic(&program);
    wall_budget_trips(&mut session.client);
    session.shutdown();
    let (mut child, pipes, dir) = solo_child("hot.c", HOT);
    let mut client = Client::new(pipes);
    wall_budget_trips(&mut client);
    let _ = client.call_deadline(Command::Terminate, Some(Duration::from_secs(2)));
    child.wait().expect("mi-server exits after Terminate");
    let _ = std::fs::remove_dir_all(dir);
}
