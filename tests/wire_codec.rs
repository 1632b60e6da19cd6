//! Wire-format pin for the JSON codec.
//!
//! `tests/fixtures/wire_golden.jsonl` was written by the tree-based codec
//! that preceded the direct writer/reader, so it fixes the protocol's
//! bytes independently of the code under test. Each line is one value:
//!
//! * `{"type":"CommandFrame","wire":<frame>}` / `"ResponseFrame"`: every
//!   frame a `MinicEngine` and an `AsmEngine` exchange with a [`Client`]
//!   over a scripted session on conformance seeds 1..=40, states included;
//! * `{"type":"Command","wire":..}` / `"Response"`: one of every variant
//!   the protocol's own unit tests round-trip;
//! * `{"type":"Store","hex":".."}`: a recorded `EZTRACE` store's
//!   `to_bytes()`, hex-encoded (its JSON snapshots use the same codec).
//!
//! Pinned here: the encoder reproduces every line byte for byte, every
//! line decodes back to an equal value, and mutants of the golden lines
//! either fail typed or decode to a value whose re-encoding decodes
//! equal. The hostile-input cases (nesting bombs, wide objects, deep but
//! legitimate stacks) pin that decoding never aborts the process and stays
//! linear in the frame size.
//!
//! Regenerate the fixture (only when the wire format changes on purpose):
//! `REGENERATE_WIRE_GOLDEN=1 cargo test --test wire_codec -- --ignored regenerate_golden`.

use conformance::gen;
use easytracker::{MiTracker, Recording, Tracker};
use mi::asm_engine::AsmEngine;
use mi::minic_engine::MinicEngine;
use mi::protocol::{Command, CommandFrame, ResourceKind, Response, ResponseFrame};
use mi::transport::{duplex, ChannelTransport, FrameRx, FrameTx};
use mi::{Client, Engine, MiError, Server};
use state::{ExitStatus, PauseReason, SourceLocation};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/wire_golden.jsonl"
);

/// A client-side transport that keeps a copy of every frame it carries.
struct Tap {
    inner: ChannelTransport,
    frames: Vec<(&'static str, Vec<u8>)>,
}

impl FrameTx for Tap {
    fn send(&mut self, frame: &[u8]) -> Result<(), MiError> {
        self.frames.push(("CommandFrame", frame.to_vec()));
        self.inner.send(frame)
    }

    fn framing(&self) -> u64 {
        self.inner.framing()
    }
}

impl FrameRx for Tap {
    fn recv(&mut self) -> Result<Vec<u8>, MiError> {
        let frame = self.inner.recv()?;
        self.frames.push(("ResponseFrame", frame.clone()));
        Ok(frame)
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }
}

/// Runs `script` against `engine` on a served channel and returns every
/// frame that crossed it, in order.
fn exchange<E: Engine + Send + 'static>(
    engine: E,
    script: impl FnOnce(&mut Client<Tap>),
) -> Vec<(&'static str, Vec<u8>)> {
    let (a, b) = duplex();
    let server = std::thread::spawn(move || {
        let _ = Server::new(engine, b).serve();
    });
    let mut client = Client::new(Tap {
        inner: a,
        frames: Vec::new(),
    });
    script(&mut client);
    let _ = client.call(Command::Terminate);
    server.join().expect("engine thread exits cleanly");
    client.transport().frames.clone()
}

fn alive(resp: &Response) -> bool {
    matches!(resp, Response::Paused(r) if r.is_alive())
}

fn minic_session(seed: u64) -> Vec<(&'static str, Vec<u8>)> {
    let src = gen::render_c(&gen::gen_program(seed));
    let program = minic::compile("gen.c", &src).expect("generated C compiles");
    exchange(MinicEngine::new(&program), |c| {
        let call = |c: &mut Client<Tap>, cmd| c.call(cmd).expect("channel call");
        call(c, Command::GetBreakableLines);
        let mut resp = call(c, Command::Start);
        call(
            c,
            Command::SetBreakFunc {
                function: "f0".into(),
                maxdepth: Some(2),
            },
        );
        call(
            c,
            Command::Watch {
                variable: "main::v1".into(),
            },
        );
        for _ in 0..2 {
            if !alive(&resp) {
                break;
            }
            call(c, Command::GetState);
            resp = call(c, Command::Step);
        }
        for cmd in [Command::Next, Command::Finish, Command::Resume] {
            if !alive(&resp) {
                break;
            }
            resp = call(c, cmd);
            call(c, Command::GetState);
        }
        call(c, Command::GetVariable { name: "v0".into() });
        call(c, Command::GetGlobals);
        call(c, Command::GetOutput);
        while alive(&resp) {
            resp = call(c, Command::Resume);
        }
        call(c, Command::GetExitCode);
    })
}

fn asm_session(seed: u64) -> Vec<(&'static str, Vec<u8>)> {
    let src = gen::render_asm(&gen::gen_asm(seed));
    let program = miniasm::asm::assemble("gen.s", &src).expect("generated asm assembles");
    exchange(AsmEngine::new(&program), |c| {
        let call = |c: &mut Client<Tap>, cmd| c.call(cmd).expect("channel call");
        let mut resp = call(c, Command::Start);
        call(
            c,
            Command::SetBreakFunc {
                function: "fn0".into(),
                maxdepth: None,
            },
        );
        for _ in 0..2 {
            if !alive(&resp) {
                break;
            }
            call(c, Command::GetState);
            resp = call(c, Command::Step);
        }
        if seed.is_multiple_of(8) {
            call(c, Command::GetRegisters);
        }
        call(c, Command::ReadMemory { addr: 0, len: 8 });
        let mut states = 0;
        while alive(&resp) {
            resp = call(c, Command::Resume);
            if alive(&resp) && states < 1 {
                states += 1;
                call(c, Command::GetState);
            }
        }
        call(c, Command::GetExitCode);
    })
}

/// One of every `Command` and `Response` variant the protocol's unit
/// tests round-trip.
fn vocabulary() -> Vec<(&'static str, Vec<u8>)> {
    let commands = vec![
        Command::Start,
        Command::Resume,
        Command::Step,
        Command::SetBreakFunc {
            function: "sort".into(),
            maxdepth: Some(3),
        },
        Command::Watch {
            variable: "main::x".into(),
        },
        Command::ReadMemory {
            addr: 0x1000,
            len: 64,
        },
        Command::Terminate,
        Command::OpenSession {
            file: "t.c".into(),
            source: "int main() { return 0; }".into(),
            opt: 0,
        },
        Command::CloseSession { session: 9 },
        Command::Telemetry { since: 40 },
        Command::SetProfile {
            mode: obs::ProfileMode::Sampling,
            period: 64,
        },
        Command::ProfileReport { since: 12 },
        Command::SetLimits {
            max_steps: Some(10_000),
            max_heap_bytes: None,
            max_wall_ms: Some(250),
            max_queue_depth: Some(8),
        },
        Command::Record { keyframe_every: 32 },
        Command::Seek { pause: 1234 },
        Command::QueryHistory {
            variable: "main::x".into(),
            from: Some(10),
            to: None,
            last_only: false,
        },
        Command::TraceStats,
        Command::PublishTrace {
            name: "run1".into(),
        },
        Command::OpenReplay {
            name: "run1".into(),
        },
    ];
    let responses = vec![
        Response::Ok,
        Response::Paused(PauseReason::Step),
        Response::Paused(PauseReason::Breakpoint {
            id: 2,
            location: SourceLocation::new("a.c", 7),
        }),
        Response::Paused(PauseReason::Exited(ExitStatus::Exited(3))),
        Response::Created { id: 9 },
        Response::ExitCode(None),
        Response::Memory(vec![1, 2, 3]),
        Response::Error {
            message: "nope \"quoted\"\n\ttab \u{1} é 😀".into(),
        },
        Response::SessionOpened { session: 4 },
        Response::Telemetry(Box::default()),
        Response::Profile(Box::default()),
        Response::ResourceExhausted {
            which: ResourceKind::Steps,
            used: 10_001,
            limit: 10_000,
        },
        Response::Overloaded {
            load: 64,
            limit: 64,
        },
        Response::QueueFull { depth: 8, limit: 8 },
        Response::History {
            hits: vec![trace::HistoryHit {
                pause: 41,
                value: "7".into(),
            }],
        },
        Response::TraceStats {
            pauses: 100_000,
            keyframes: 3125,
            bytes: 1 << 20,
        },
    ];
    let mut out = Vec::new();
    for c in &commands {
        out.push(("Command", serde_json::to_vec(c).unwrap()));
    }
    for r in &responses {
        out.push(("Response", serde_json::to_vec(r).unwrap()));
    }
    out
}

/// Recursion, a heap array, globals and output.
const STORE_PROG: &str = "\
int total = 0;
int fact(int n) {
    if (n < 2) {
        return 1;
    }
    int r = n * fact(n - 1);
    printf(\"%d\\n\", r);
    return r;
}
int main() {
    int* xs = (int*)malloc(16);
    int i = 0;
    while (i < 3) {
        xs[i] = fact(i + 2);
        total = total + xs[i];
        i = i + 1;
    }
    free(xs);
    return total;
}
";

fn recorded_store() -> Vec<u8> {
    let mut live = MiTracker::load_c("golden.c", STORE_PROG).unwrap();
    let rec = Recording::capture(&mut live).unwrap();
    live.terminate();
    let mut store = rec.to_store(8);
    store.freeze();
    store.to_bytes()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Every golden line, generated by the current encoder.
fn golden_lines() -> Vec<String> {
    let mut values = Vec::new();
    for seed in 1..=40 {
        values.extend(minic_session(seed));
        values.extend(asm_session(seed));
    }
    values.extend(vocabulary());
    let mut lines: Vec<String> = values
        .into_iter()
        .map(|(ty, wire)| {
            let wire = String::from_utf8(wire).expect("frames are UTF-8");
            format!("{{\"type\":\"{ty}\",\"wire\":{wire}}}")
        })
        .collect();
    lines.push(format!(
        "{{\"type\":\"Store\",\"hex\":\"{}\"}}",
        hex(&recorded_store())
    ));
    lines
}

/// A golden line split into its type tag and payload bytes (the raw
/// frame for protocol values, the decoded bytes for a store).
fn split(line: &str) -> (&str, Vec<u8>) {
    let rest = line
        .strip_prefix("{\"type\":\"")
        .expect("golden line shape");
    let (ty, rest) = rest.split_once('"').expect("golden type tag");
    if let Some(hexed) = rest.strip_prefix(",\"hex\":\"") {
        let hexed = hexed.strip_suffix("\"}").expect("hex payload");
        return (ty, unhex(hexed));
    }
    let wire = rest
        .strip_prefix(",\"wire\":")
        .and_then(|w| w.strip_suffix('}'))
        .expect("wire payload");
    (ty, wire.as_bytes().to_vec())
}

fn golden() -> Vec<String> {
    let text = std::fs::read_to_string(GOLDEN).expect("golden fixture present");
    text.lines().map(str::to_owned).collect()
}

#[test]
#[ignore = "rewrites the committed fixture; run only on a deliberate wire change"]
fn regenerate_golden() {
    if std::env::var_os("REGENERATE_WIRE_GOLDEN").is_none() {
        eprintln!("set REGENERATE_WIRE_GOLDEN=1 to rewrite {GOLDEN}");
        return;
    }
    let mut text = golden_lines().join("\n");
    text.push('\n');
    std::fs::write(GOLDEN, text).expect("fixture written");
}

#[test]
fn encoder_reproduces_the_golden_bytes() {
    let want = golden();
    let got = golden_lines();
    assert_eq!(got.len(), want.len(), "golden line count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            g == w,
            "line {}: encoder drifted\n got: {g}\nwant: {w}",
            i + 1
        );
    }
}

/// Decodes `wire` as `T`, re-encodes it, and checks both the bytes and
/// that the re-encoding decodes back equal.
fn roundtrip<T>(wire: &[u8]) -> Result<(), String>
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let value: T = serde_json::from_slice(wire).map_err(|e| e.to_string())?;
    let again = serde_json::to_vec(&value).unwrap();
    if again != wire {
        return Err(format!(
            "re-encoding differs:\n got: {}\nwant: {}",
            String::from_utf8_lossy(&again),
            String::from_utf8_lossy(wire)
        ));
    }
    let back: T = serde_json::from_slice(&again).map_err(|e| e.to_string())?;
    if back != value {
        return Err(format!("decode is not stable: {back:?} != {value:?}"));
    }
    Ok(())
}

#[test]
fn every_golden_line_decodes_back_equal() {
    for (i, line) in golden().iter().enumerate() {
        let (ty, payload) = split(line);
        let res = match ty {
            "CommandFrame" => roundtrip::<CommandFrame>(&payload),
            "ResponseFrame" => roundtrip::<ResponseFrame>(&payload),
            "Command" => roundtrip::<Command>(&payload),
            "Response" => roundtrip::<Response>(&payload),
            "Store" => {
                let store = trace::Store::from_bytes(&payload).expect("golden store opens");
                for n in 0..store.len() {
                    store.state_at(n).expect("golden snapshot decodes");
                }
                if store.to_bytes() == payload {
                    Ok(())
                } else {
                    Err("store re-encoding differs".into())
                }
            }
            other => Err(format!("unknown golden type {other}")),
        };
        if let Err(e) = res {
            panic!("line {} ({ty}): {e}", i + 1);
        }
    }
}

/// `f(n - 1) + 1` recursion; line 3 is the base case.
const DEEP: &str = "\
int f(int n) {
    if (n == 0) {
        return 0;
    }
    return f(n - 1) + 1;
}
int main() {
    return f(DEPTH) % 7;
}
";

/// Stops `tracker` at the base case of a `depth`-deep recursion and
/// checks that the full stack crossed the wire intact.
fn check_deep_state(mut tracker: MiTracker, depth: usize) {
    tracker.break_before_line(3).expect("breakpoint");
    tracker.start().expect("start");
    let reason = tracker.resume().expect("resume to the base case");
    assert!(reason.is_alive(), "stopped at the base case: {reason:?}");
    let state = tracker.get_state().expect("deep state crosses the wire");
    // `f` at every depth plus `main`.
    assert_eq!(state.frame.chain().count(), depth + 2);
    assert_eq!(state.frame.depth() as usize, depth + 1);
    // Compared as bytes: the derived `PartialEq` recurses once per frame.
    let wire = serde_json::to_vec(&state).unwrap();
    let back: state::ProgramState = serde_json::from_slice(&wire).unwrap();
    assert!(
        serde_json::to_vec(&back).unwrap() == wire,
        "deep state round-trips"
    );
    let reason = tracker.resume().expect("run to exit");
    assert!(!reason.is_alive());
    tracker.terminate();
}

fn deep_source(depth: usize) -> String {
    DEEP.replace("DEPTH", &depth.to_string())
}

#[test]
fn deep_stacks_cross_the_channel() {
    for depth in [1000, 5000, 50_000] {
        let tracker = MiTracker::load_c("deep.c", &deep_source(depth)).expect("loads");
        check_deep_state(tracker, depth);
    }
}

#[test]
fn deep_stacks_cross_a_session_host() {
    let host = mi::SessionHost::new(2);
    let handle = mi::HostHandle::connect_in_process(&host);
    for depth in [1000, 5000, 50_000] {
        let tracker =
            MiTracker::load_c_hosted(&handle, "deep.c", &deep_source(depth)).expect("opens");
        check_deep_state(tracker, depth);
    }
}

/// A frame whose `cmd` is `depth` nested arrays.
fn bracket_bomb(depth: usize) -> Vec<u8> {
    let mut frame = b"{\"seq\":0,\"cmd\":".to_vec();
    frame.extend(std::iter::repeat_n(b'[', depth));
    frame.extend(std::iter::repeat_n(b']', depth));
    frame.extend(b",\"trace\":null,\"session\":null}");
    frame
}

#[test]
fn nesting_bombs_fail_typed_instead_of_overflowing_the_stack() {
    let bomb = bracket_bomb(100_000);
    let err = serde_json::from_slice::<CommandFrame>(&bomb).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than"), "{err}");
    let err = serde_json::from_slice::<serde_json::Value>(&bomb).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than"), "{err}");
    // An unclosed bomb, and one hidden under an unknown key.
    let open = vec![b'['; 100_000];
    assert!(serde_json::from_slice::<Command>(&open).is_err());
    let mut hidden = b"{\"seq\":0,\"cmd\":\"Step\",\"junk\":".to_vec();
    hidden.extend(std::iter::repeat_n(b'{', 50_000));
    assert!(serde_json::from_slice::<CommandFrame>(&hidden).is_err());
}

#[test]
fn a_nesting_bomb_costs_a_host_one_error_reply() {
    let host = mi::SessionHost::new(2);
    let handle = mi::HostHandle::connect_in_process(&host);
    let (mut wire, far) = duplex();
    let (ftx, frx) = far.split();
    host.accept(frx, ftx);
    wire.send(&bracket_bomb(100_000)).expect("send");
    let reply = wire
        .recv_deadline(std::time::Duration::from_secs(30))
        .expect("the host answers the bomb");
    match serde_json::from_slice::<Response>(&reply) {
        Ok(Response::Error { message }) => assert!(message.contains("nesting"), "{message}"),
        other => panic!("expected a typed error reply, got {other:?}"),
    }
    // The same connection, and every other session, stay served.
    let ping = serde_json::to_vec(&CommandFrame {
        seq: 1,
        cmd: Command::Ping,
        trace: None,
        session: None,
    })
    .unwrap();
    wire.send(&ping).expect("send");
    let reply = wire
        .recv_deadline(std::time::Duration::from_secs(30))
        .expect("ping answered");
    let rf: ResponseFrame = serde_json::from_slice(&reply).expect("response frame");
    assert_eq!(rf.seq, 1);
    let mut other = MiTracker::load_c_hosted(&handle, "ok.c", "int main() { return 7; }")
        .expect("another session opens");
    other.start().expect("start");
    assert!(!other.resume().expect("resume").is_alive());
    assert_eq!(other.get_exit_code(), Some(7));
    other.terminate();
}

/// The deepest array/object nesting in a JSON text.
fn json_depth(text: &str) -> usize {
    let (mut depth, mut deepest, mut in_str, mut escaped) = (0usize, 0, false, false);
    for b in text.bytes() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

const DEEP_PY: &str = "\
class Node:
    def __init__(self, v, nxt):
        self.v = v
        self.nxt = nxt
head = None
d = {}
i = 0
while i < 30:
    head = Node(i, head)
    d = {'k': d}
    i = i + 1
done = i
";

#[test]
fn python_values_as_deep_as_minipy_renders_them_replay_and_reload() {
    // MiniPy renders a binding 24 objects deep; a linked list of class
    // instances and a nested dict both reach that bound.
    let mut live = easytracker::PyTracker::load("deep.py", DEEP_PY).expect("loads");
    let recording = Recording::capture(&mut live).expect("records");
    let last = &recording.steps.last().expect("steps").state;
    let deepest = json_depth(&serde_json::to_string(last).unwrap());
    assert!(
        (129..=serde::de::MAX_DEPTH).contains(&deepest),
        "deepest state nests {deepest} levels"
    );
    // Through the trace store, as ReplayTracker reads it.
    let replay = easytracker::ReplayTracker::new(recording.clone());
    assert_eq!(replay.recorded_pauses() as usize, recording.len());
    assert!(
        replay.to_recording() == recording,
        "replay decodes every pause"
    );
    // Through a saved `.json` recording.
    let json = recording.to_json().expect("encodes");
    assert!(json_depth(&json) <= serde::de::MAX_DEPTH);
    let back: Recording = serde_json::from_str(&json).expect("reloads");
    assert!(back == recording);
    let mut t = easytracker::init_tracker("deep.json", &json).expect("opens as a tracker");
    t.start().expect("start");
    assert!(t.get_state().is_ok());
}

#[test]
fn the_deepest_accepted_values_decode_on_a_default_thread() {
    use state::{Prim, Value};
    // The JSON levels each link adds, and how it wraps its target.
    type Wrap = fn(Value) -> Value;
    let shapes: [(&str, usize, Wrap); 4] = [
        ("ref", 2, |v| Value::reference(v, "r")),
        ("list", 3, |v| Value::list(vec![v], "l")),
        ("dict", 4, |v| {
            Value::dict(vec![(Value::primitive(Prim::Int(0), "int"), v)], "d")
        }),
        ("struct", 4, |v| {
            Value::structure(vec![("f".into(), v)], "s")
        }),
    ];
    for (name, levels, wrap) in shapes {
        let mut v = Value::primitive(Prim::Int(1), "int");
        let mut text = serde_json::to_string(&v).unwrap();
        while json_depth(&text) + levels <= serde::de::MAX_DEPTH {
            v = wrap(v);
            text = serde_json::to_string(&v).unwrap();
        }
        let deeper = serde_json::to_string(&wrap(v.clone())).unwrap();
        // A default thread's 2 MiB stack, whatever RUST_MIN_STACK says.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let back: Value = serde_json::from_str(&text).expect("at the limit");
                assert!(back == v, "{name}");
                let err = serde_json::from_str::<Value>(&deeper).unwrap_err();
                assert!(
                    err.to_string().contains("nesting deeper than"),
                    "{name}: {err}"
                );
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
    }
}

/// A frame at the transport's size cap, padded with distinct unknown keys.
fn wide_frame() -> Vec<u8> {
    let mut frame = b"{\"seq\":5,\"cmd\":\"Step\"".to_vec();
    let mut i = 0u64;
    while frame.len() < mi::MAX_FRAME_LEN - 64 {
        frame.extend(format!(",\"k{i}\":{i}").as_bytes());
        i += 1;
    }
    frame.push(b'}');
    assert!(frame.len() <= mi::MAX_FRAME_LEN);
    frame
}

#[test]
fn wide_frames_decode_in_linear_time() {
    let frame = wide_frame();
    let t = std::time::Instant::now();
    let cf: CommandFrame = serde_json::from_slice(&frame).expect("unknown keys are skipped");
    assert_eq!((cf.seq, cf.cmd), (5, Command::Step));
    let typed = t.elapsed();
    let t = std::time::Instant::now();
    let v: serde_json::Value = serde_json::from_slice(&frame).expect("parses");
    assert_eq!(v["seq"], 5i64);
    let tree = t.elapsed();
    assert!(
        typed.as_secs() < 10 && tree.as_secs() < 10,
        "16 MiB of distinct keys: typed {typed:?}, tree {tree:?}"
    );
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Decodes a mutant as `T`: it must fail typed, or decode to a value
/// whose re-encoding decodes back equal and re-encodes to the same bytes.
fn check_mutant<T>(bytes: &[u8]) -> Result<bool, String>
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let Ok(value) = serde_json::from_slice::<T>(bytes) else {
        return Ok(false);
    };
    let wire = serde_json::to_vec(&value).unwrap();
    let back: T =
        serde_json::from_slice(&wire).map_err(|e| format!("re-encoding rejected: {e}"))?;
    // A float forged to `null` decodes as NaN, which never equals itself.
    if back != value && !format!("{value:?}").contains("NaN") {
        return Err(format!("{back:?} != {value:?}"));
    }
    if serde_json::to_vec(&back).unwrap() != wire {
        return Err("re-encoding is not stable".into());
    }
    Ok(true)
}

#[test]
fn mutated_golden_lines_fail_typed_or_decode_stably() {
    let lines: Vec<(String, Vec<u8>)> = golden()
        .iter()
        .map(|l| split(l))
        .filter(|(ty, _)| *ty != "Store")
        .map(|(ty, wire)| (ty.to_owned(), wire))
        .collect();
    let mut rng = Rng(0x5eed_c0de_f00d_0001);
    let (mut decoded, mut rejected) = (0, 0);
    for round in 0..3000 {
        let (ty, wire) = &lines[rng.below(lines.len())];
        let mut m = wire.clone();
        match round % 4 {
            0 => {
                for _ in 0..=rng.below(3) {
                    let i = rng.below(m.len());
                    m[i] ^= 1 << rng.below(8);
                }
            }
            1 => m.truncate(rng.below(m.len())),
            2 => {
                let (_, other) = &lines[rng.below(lines.len())];
                m.truncate(rng.below(m.len()));
                m.extend_from_slice(&other[rng.below(other.len())..]);
            }
            _ => {
                let i = rng.below(m.len());
                let b = b"{}[]\",:0-e.nul\\"[rng.below(15)];
                m.insert(i, b);
            }
        }
        let outcome = std::panic::catch_unwind(|| match ty.as_str() {
            "CommandFrame" => check_mutant::<CommandFrame>(&m),
            "ResponseFrame" => check_mutant::<ResponseFrame>(&m),
            "Command" => check_mutant::<Command>(&m),
            _ => check_mutant::<Response>(&m),
        });
        match outcome {
            Ok(Ok(true)) => decoded += 1,
            Ok(Ok(false)) => rejected += 1,
            Ok(Err(e)) => panic!(
                "round {round} ({ty}): {e}\nmutant: {}",
                String::from_utf8_lossy(&m)
            ),
            Err(_) => panic!(
                "round {round} ({ty}) panicked on {}",
                String::from_utf8_lossy(&m)
            ),
        }
    }
    assert!(
        decoded > 100 && rejected > 100,
        "decoded {decoded}, rejected {rejected}"
    );
}

/// A state whose one frame holds `n` distinct `long` variables, inserted
/// in a scrambled name order so that insertions land all over the frame's
/// name index.
fn wide_state(n: u64) -> state::ProgramState {
    use state::{Frame, Prim, Scope, Value, Variable};
    let mut frame = Frame::new("main", 0, SourceLocation::new("wide.c", 1));
    for i in 0..n {
        let k = i * 7_919 % n;
        frame.insert_variable(Variable::new(
            format!("v{k}"),
            Scope::Local,
            Value::primitive(Prim::Int(k as i64), "long"),
        ));
    }
    state::ProgramState::new(frame, Vec::new(), PauseReason::Step)
}

#[test]
fn a_frame_of_ninety_thousand_variables_builds_and_decodes_without_a_quadratic_search() {
    const N: u64 = 88_000;
    let t = std::time::Instant::now();
    let state = wide_state(N);
    let built = t.elapsed();
    assert_eq!(state.frame.len(), N as usize);
    assert_eq!(state.frame.variables().next().unwrap().name(), "v0");
    assert!(state.frame.variable("v87999").is_some());
    let frame = ResponseFrame {
        seq: 1,
        resp: Response::State(Box::new(state)),
        session: None,
    };
    let wire = serde_json::to_vec(&frame).unwrap();
    assert!(
        wire.len() > mi::MAX_FRAME_LEN * 3 / 4 && wire.len() <= mi::MAX_FRAME_LEN,
        "{} bytes",
        wire.len()
    );
    let t = std::time::Instant::now();
    let back: ResponseFrame = serde_json::from_slice(&wire).expect("decodes");
    let decoded = t.elapsed();
    assert!(back == frame, "the wide frame decodes back equal");
    assert!(
        built.as_secs() < 10 && decoded.as_secs() < 10,
        "{N} variables: built in {built:?}, decoded in {decoded:?}"
    );
}

/// A one-frame `ResponseFrame::State` with this `order` and `variables`.
fn frame_text(order: &str, variables: &[(&str, &str, i64)]) -> String {
    let vars: Vec<String> = variables
        .iter()
        .map(|(key, name, v)| {
            format!(
                "\"{key}\":{{\"name\":\"{name}\",\"scope\":\"Local\",\"value\":{{\
                 \"abstract_type\":\"Primitive\",\"content\":{{\"Primitive\":{{\"Int\":{v}}}}},\
                 \"location\":\"Stack\",\"address\":null,\"language_type\":\"long\"}}}}"
            )
        })
        .collect();
    format!(
        "{{\"seq\":1,\"resp\":{{\"State\":{{\"frame\":{{\"name\":\"main\",\"depth\":0,\
         \"location\":{{\"file\":\"t.c\",\"line\":1}},\"order\":{order},\
         \"variables\":{{{}}},\"parent\":null}},\"globals\":[],\"reason\":\"Step\"}}}},\
         \"session\":null}}",
        vars.join(",")
    )
}

/// The frame's variables as `(name, value)` in declaration order.
fn decoded_variables(text: &str) -> Vec<(String, String)> {
    assert_eq!(
        check_mutant::<ResponseFrame>(text.as_bytes()),
        Ok(true),
        "{text}"
    );
    let frame: ResponseFrame = serde_json::from_str(text).unwrap();
    let Response::State(state) = frame.resp else {
        panic!("not a state")
    };
    state
        .frame
        .variables()
        .map(|v| (v.name().to_owned(), state::render_value(v.value())))
        .collect()
}

#[test]
fn frames_whose_order_and_variables_disagree_decode_stably() {
    let pairs = |p: &[(&str, &str)]| -> Vec<(String, String)> {
        p.iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    };
    // What the writer produces: declaration order, variables by name.
    let text = frame_text(r#"["y","x"]"#, &[("x", "x", 1), ("y", "y", 2)]);
    assert_eq!(decoded_variables(&text), pairs(&[("y", "2"), ("x", "1")]));
    // A repeated `variables` key: the last one wins, in its first place.
    let text = frame_text(
        r#"["x","y"]"#,
        &[("x", "x", 1), ("y", "y", 2), ("x", "x", 3)],
    );
    assert_eq!(decoded_variables(&text), pairs(&[("x", "3"), ("y", "2")]));
    // `order` names a variable the frame does not have: passed over.
    let text = frame_text(r#"["ghost","x"]"#, &[("x", "x", 1)]);
    assert_eq!(decoded_variables(&text), pairs(&[("x", "1")]));
    // A variable `order` does not name: after the named ones, by name.
    let text = frame_text(r#"["y"]"#, &[("b", "b", 1), ("a", "a", 2), ("y", "y", 3)]);
    assert_eq!(
        decoded_variables(&text),
        pairs(&[("y", "3"), ("a", "2"), ("b", "1")])
    );
    // A name `order` repeats counts once.
    let text = frame_text(r#"["x","x"]"#, &[("x", "x", 1)]);
    assert_eq!(decoded_variables(&text), pairs(&[("x", "1")]));
    // A variable keyed under another name is refused, typed.
    let text = frame_text(r#"["x"]"#, &[("x", "y", 1)]);
    let err = serde_json::from_str::<ResponseFrame>(&text).unwrap_err();
    assert!(err.to_string().contains("is keyed as"), "{err}");
    assert_eq!(check_mutant::<ResponseFrame>(text.as_bytes()), Ok(false));
}
