//! Cross-process telemetry-plane integration against a real `mi-server`
//! child: trace contexts propagate over the MI wire, engine-side spans
//! drain back, the clock offset is estimated from Ping roundtrips, and
//! the merged Chrome trace has two process lanes where an engine VM
//! span nests — after alignment — inside the tracker control span that
//! caused it.

use easytracker::{MiTracker, ProgramSpec, Supervision, Tracker};
use std::sync::Arc;

const PROGRAM: &str = "int square(int x) {\nreturn x * x;\n}\nint main() {\nint s = 0;\nfor (int i = 1; i <= 3; i++) {\ns += square(i);\n}\nreturn s;\n}";

fn arg<'a>(e: &'a obs::TraceEvent, key: &str) -> Option<&'a str> {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn merged_trace_nests_engine_spans_inside_tracker_spans() {
    let Some(server) = conformance::mi_server_bin() else {
        panic!("mi_server binary not found or buildable");
    };
    let reg = obs::Registry::new();
    let tracker_sink = Arc::new(obs::ExportSink::new(4096));
    reg.add_sink(tracker_sink.clone());
    let mut t = MiTracker::load_spec(
        ProgramSpec::new("tp.c", PROGRAM).via_server(&server),
        reg.clone(),
        Supervision::default(),
        None,
    )
    .expect("process-deployed load");

    t.sync_clock(8).expect("clock sync").expect("an estimate");
    t.start().expect("start");
    let mut reason = t.resume().expect("resume");
    while reason.is_alive() {
        reason = t.resume().expect("resume");
    }
    t.drain_telemetry().expect("drain");

    // Engine spans crossed the wire, carrying the tracker's trace ids.
    let engine_events = t.engine_trace_events().to_vec();
    let exec = engine_events
        .iter()
        .find(|e| e.name == "vm.minic.exec")
        .expect("an engine exec span was drained");
    let exec_trace = arg(exec, "trace_id").expect("exec span has a trace id");
    let (tracker_events, _, _) = tracker_sink.since(0);
    let owner = tracker_events
        .iter()
        .filter(|e| e.name.starts_with("tracker.control."))
        .find(|e| arg(e, "trace_id") == Some(exec_trace))
        .expect("the exec span's trace id belongs to a tracker control span");
    // The engine span's remote parent is the MI roundtrip span nested
    // under that control span — same trace, tracker-side span id.
    let roundtrip = tracker_events
        .iter()
        .filter(|e| e.name.starts_with("mi.client.roundtrip."))
        .find(|e| arg(e, "span_id") == arg(exec, "parent_span"))
        .expect("the exec span's parent is a tracker-side roundtrip span");
    assert_eq!(arg(roundtrip, "trace_id"), Some(exec_trace));

    // Temporal nesting after clock alignment: the control span covers
    // the full MI roundtrip, so the engine-side execution must land
    // inside it. The midpoint assumption errs by at most RTT/2; a small
    // slack absorbs that plus clock-read jitter.
    let sync_offset = t.clock_offset_us().expect("offset estimated");
    let aligned = |ts: u64| (ts as i64 - sync_offset).max(0) as u64;
    let slack = 2_000u64;
    let (exec_start, exec_end) = (aligned(exec.ts_us), aligned(exec.ts_us + exec.dur_us));
    let (own_start, own_end) = (owner.ts_us, owner.ts_us + owner.dur_us);
    assert!(
        exec_start + slack >= own_start && exec_end <= own_end + slack,
        "engine exec [{exec_start}, {exec_end}]us should nest inside \
         tracker control [{own_start}, {own_end}]us (offset {sync_offset}us)"
    );

    // The merged document has two named process lanes with the engine
    // span re-stamped onto the tracker timeline.
    let path = std::env::temp_dir().join(format!("merged-trace-test-{}.json", std::process::id()));
    t.write_merged_trace(&path, &tracker_events)
        .expect("merged trace written");
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("readable"))
            .expect("valid JSON");
    let events = doc["traceEvents"].as_array().expect("event list");
    assert!(events
        .iter()
        .any(|e| e["ph"] == "M" && e["args"]["name"] == "tracker" && e["pid"] == obs::TRACKER_PID));
    assert!(events
        .iter()
        .any(|e| e["ph"] == "M" && e["args"]["name"] == "engine" && e["pid"] == obs::ENGINE_PID));
    let merged_exec = events
        .iter()
        .find(|e| e["name"] == "vm.minic.exec")
        .expect("engine span in the merged doc");
    assert_eq!(merged_exec["pid"], obs::ENGINE_PID);
    assert_eq!(merged_exec["ts"].as_u64(), Some(exec_start));
    let merged_ctrl = events
        .iter()
        .find(|e| e["name"] == owner.name.as_str() && e["pid"] == obs::TRACKER_PID)
        .expect("tracker control span in the merged doc");
    assert_eq!(merged_ctrl["ts"].as_u64(), Some(own_start));

    t.terminate();
    let _ = std::fs::remove_file(path);
}

/// Trace contexts also propagate over the in-process channel, where the
/// engine thread shares the tracker's registry: the engine's exec span
/// must report the tracker control span as its (remote) parent.
#[test]
fn trace_contexts_propagate_in_process_too() {
    let session = obs::Session::new();
    let mut t =
        easytracker::MiTracker::load_c_with_registry("tp.c", PROGRAM, session.registry()).unwrap();
    t.start().unwrap();
    let mut reason = t.resume().unwrap();
    while reason.is_alive() {
        reason = t.resume().unwrap();
    }
    t.terminate();
    let events = session.recent_events();
    let exec = events
        .iter()
        .find(|e| e.name == "vm.minic.exec")
        .expect("engine exec span recorded");
    events
        .iter()
        .filter(|e| e.name.starts_with("tracker.control."))
        .find(|e| arg(e, "trace_id") == arg(exec, "trace_id"))
        .expect("exec inherits a control span's trace id");
    events
        .iter()
        .filter(|e| e.name.starts_with("mi.client.roundtrip."))
        .find(|e| arg(e, "span_id") == arg(exec, "parent_span"))
        .expect("exec's remote parent is the client roundtrip span");
}
