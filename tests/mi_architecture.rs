//! Fig. 4 of the paper: the GDB-tracker architecture. The tracker and the
//! engine live on different threads and everything between them really is
//! serialized, framed and shipped as bytes — these tests observe that
//! boundary directly.

use mi::protocol::{Command, CommandFrame, Response, ResponseFrame};
use mi::transport::{duplex, FrameRx as _, FrameTx as _};
use mi::{Server, Session};
use state::PauseReason;

fn c_session(src: &str) -> Session {
    let program = minic::compile("t.c", src).unwrap();
    mi::spawn_minic(&program)
}

#[test]
fn commands_and_state_cross_as_bytes() {
    let mut session =
        c_session("int main() {\nint xs[3] = {7, 8, 9};\nint* p = xs;\nreturn p[1];\n}");
    session.client.call(Command::Start).unwrap();
    session.client.call(Command::Step).unwrap();
    session.client.call(Command::Step).unwrap();
    let before = session.client.counters().bytes_received;
    let resp = session.client.call(Command::GetState).unwrap();
    let after = session.client.counters().bytes_received;
    let Response::State(st) = resp else {
        panic!("expected state");
    };
    // The snapshot was big enough to dominate the frame traffic, proving
    // it crossed serialized (not shared by pointer).
    assert!(after - before > 200, "state bytes: {}", after - before);
    assert_eq!(st.frame.name(), "main");
    assert!(st.frame.variable("xs").is_some());
    session.shutdown();
}

#[test]
fn engine_runs_concurrently_with_tool_thread() {
    // While the tool thread sleeps between commands, the engine thread
    // retains all state (it is a live process, like gdb).
    let mut session = c_session(
        "int main() {\nint total = 0;\nfor (int i = 0; i < 5; i++) {\ntotal += i;\n}\nreturn total;\n}",
    );
    session.client.call(Command::Start).unwrap();
    session
        .client
        .call(Command::SetBreakLine { line: 4 })
        .unwrap();
    let Response::Paused(r) = session.client.call(Command::Resume).unwrap() else {
        panic!("expected pause");
    };
    assert!(matches!(r, PauseReason::Breakpoint { .. }));
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Engine still there, state intact.
    let Response::Variable(Some(v)) = session
        .client
        .call(Command::GetVariable { name: "i".into() })
        .unwrap()
    else {
        panic!("expected i");
    };
    assert_eq!(state::render_value(v.value()), "0");
    session.shutdown();
}

#[test]
fn malformed_bytes_do_not_kill_the_engine() {
    let program = minic::compile("t.c", "int main() { return 1; }").unwrap();
    let (mut a, b) = duplex();
    let engine = mi::minic_engine::MinicEngine::new(&program);
    let handle = std::thread::spawn(move || {
        let _ = Server::new(engine, b).serve();
    });
    // Garbage frame -> error response, engine alive.
    a.send(b"\x00garbage\xff").unwrap();
    let resp: Response = serde_json::from_slice(&a.recv().unwrap()).unwrap();
    assert!(matches!(resp, Response::Error { .. }));
    // Proper command still works afterwards.
    let frame = |seq, cmd| {
        serde_json::to_vec(&CommandFrame {
            seq,
            cmd,
            trace: None,
            session: None,
        })
        .unwrap()
    };
    a.send(&frame(0, Command::GetExitCode)).unwrap();
    let rf: ResponseFrame = serde_json::from_slice(&a.recv().unwrap()).unwrap();
    assert_eq!(rf.resp, Response::ExitCode(None));
    a.send(&frame(1, Command::Terminate)).unwrap();
    let _ = a.recv();
    handle.join().unwrap();
}

#[test]
fn disconnect_shuts_the_server_down() {
    let program = minic::compile("t.c", "int main() { return 0; }").unwrap();
    let (a, b) = duplex();
    let engine = mi::minic_engine::MinicEngine::new(&program);
    let handle = std::thread::spawn(move || {
        let _ = Server::new(engine, b).serve();
    });
    drop(a); // tracker goes away
    handle.join().unwrap(); // server notices and exits
}

#[test]
fn per_command_traffic_is_bounded() {
    // A control command's frames are small; only state snapshots are big.
    let mut session = c_session("int main() {\nint x = 0;\nx = 1;\nreturn x;\n}");
    session.client.call(Command::Start).unwrap();
    let before = session.client.counters().bytes_total();
    session.client.call(Command::Step).unwrap();
    let after = session.client.counters().bytes_total();
    assert!(after - before < 200, "step traffic: {}", after - before);
    session.shutdown();
}

#[test]
fn hosted_trackers_count_their_traffic() {
    // A session inside a shared host counts its own frames both ways,
    // framing included, and mirrors them into the tracker's gauges — the
    // same accounting as a dedicated engine's client.
    use easytracker::Tracker as _;
    let host = mi::SessionHost::new(1);
    let handle = mi::HostHandle::connect_in_process(&host);
    let mut t = easytracker::MiTracker::load_c_hosted(
        &handle,
        "t.c",
        "int main() {\nint xs[3] = {7, 8, 9};\nint* p = xs;\nreturn p[1];\n}",
    )
    .unwrap();
    t.start().unwrap();
    t.step().unwrap();
    let before = t.bytes_transferred();
    let st = t.get_state().unwrap();
    let state_bytes = serde_json::to_vec(&st).unwrap().len() as u64;
    let after = t.bytes_transferred();
    assert!(
        after - before >= state_bytes,
        "a {state_bytes}-byte state moved the counters by {}",
        after - before
    );
    let snap = t.registry().snapshot();
    assert!(snap.gauge("mi.client.bytes_received") >= state_bytes);
    assert!(snap.gauge("mi.client.frames_received") >= 3);
    t.terminate();
    host.shutdown();
}
