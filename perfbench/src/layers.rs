//! Per-layer probes for the traced run.
//!
//! Each probe calls one layer's public functions directly, on the
//! workload's own programs, and times the calls from here, inside spans
//! of the bench-side registry (written out as the run's Chrome trace).
//! The layers, bottom up: the MiniC front end, the bytecode verifier and
//! optimizer, the MiniC VM, the MiniPy interpreter and its tracker, the
//! MI engine without transport, the wire codec, each transport, the
//! tracker's supervision layer, the session host, and the trace store.
//! `layers.coverage.*` checks that the engine, codec and transport terms
//! add up to the frame they make up.

use crate::deploy::{close_host, spawn_host};
use easytracker::{MiTracker, PyTracker, Tracker};
use mi::protocol::{Command, CommandFrame, Response, ResponseFrame};
use mi::transport::PumpedTransport;
use mi::{Client, CommandPort, Engine};
use perfbench::harness::{self, Report, RunArgs, Samples, Tracing, Work};
use perfbench::{Program, Script};
use state::ProgramState;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pauses driven per program by the engine and trace-store probes.
const CAP: u64 = 10_000;
/// Frames driven per program through each transport and tracker.
const FRAME_CAP: u64 = 500;
/// Pings per transport.
const PINGS: usize = 300;

/// Named sample sets, reported as medians.
struct Probes {
    s: HashMap<&'static str, Samples>,
}

impl Default for Probes {
    fn default() -> Self {
        let resumes = ["engine.resume", "vm.minipy.run", "tracker.py.run"];
        Probes {
            s: resumes
                .into_iter()
                .map(|name| (name, Samples::new(Work::Resume)))
                .collect(),
        }
    }
}

impl Probes {
    fn time<T>(&mut self, tracing: &Tracing, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, took) = tracing.time(name, f);
        self.s.entry(name).or_default().push(took);
        out
    }

    fn get(&mut self, name: &'static str) -> &mut Samples {
        self.s.entry(name).or_default()
    }

    fn p50(&mut self, name: &'static str) -> f64 {
        self.get(name).quantile_us(0.5)
    }

    fn put_p50(&mut self, report: &mut Report, metric: &str, name: &'static str) {
        let n = self.get(name).len();
        let v = self.p50(name);
        report.put(metric, v, n);
    }
}

/// Runs every probe on `inputs`, and the classroom, and adds the
/// per-layer metrics except the caller's own (`bench.trace_overhead_pct`
/// and the `*_p99_us` tails). Speed samples between probes calibrate
/// the run's times.
///
/// # Errors
///
/// When a layer refuses a generated program, a deployment cannot be set
/// up, or the classroom saturates.
pub fn run(
    args: &RunArgs,
    tracing: &Tracing,
    inputs: &[Program],
    report: &mut Report,
) -> Result<(), String> {
    let mut pr = Probes::default();
    let stepped: Vec<&Program> = inputs
        .iter()
        .filter(|p| p.script == Script::Stepper)
        .collect();
    let controlled: Vec<&Program> = inputs
        .iter()
        .filter(|p| p.script != Script::Stepper)
        .collect();
    let reps = args.pick(5, 1);

    harness::calibrate();
    front_end(&mut pr, tracing, inputs, reps, report)?;
    harness::calibrate();
    vm(tracing, inputs, reps, report)?;
    harness::calibrate();
    minipy(&mut pr, tracing, inputs, report)?;
    harness::calibrate();
    let states = engine(&mut pr, tracing, &stepped, &controlled, report)?;
    harness::calibrate();
    codec(&mut pr, tracing, &states, report);
    harness::calibrate();
    transports(&mut pr, tracing, &stepped, report)?;
    harness::calibrate();
    host(&mut pr, tracing, inputs, &stepped, report)?;
    harness::calibrate();
    trace_store(&mut pr, tracing, &stepped, &states, args.seed, report);
    harness::calibrate();
    crate::classroom::probe(args, tracing, report)?;
    harness::calibrate();
    Ok(())
}

fn compile(p: &Program) -> Result<minic::Program, String> {
    minic::compile(&format!("{}.c", p.name), &p.c).map_err(|e| format!("{}: {e}", p.name))
}

fn front_end(
    pr: &mut Probes,
    tracing: &Tracing,
    inputs: &[Program],
    reps: usize,
    report: &mut Report,
) -> Result<(), String> {
    for p in inputs {
        for _ in 0..reps {
            let prog = pr.time(tracing, "minic.compile", || compile(p))?;
            let findings = pr.time(tracing, "analysis.verify", || {
                analysis::verify::verify(&prog)
            });
            if !findings.is_empty() {
                report
                    .tally
                    .mismatch(&format!("{}: verifier rejects compiler output", p.name));
            }
            pr.time(tracing, "analysis.opt", || {
                analysis::opt::optimize(&prog, 1)
            })?;
        }
    }
    pr.put_p50(report, "minic.compile_us", "minic.compile");
    pr.put_p50(report, "analysis.verify_us", "analysis.verify");
    pr.put_p50(report, "analysis.opt_us", "analysis.opt");
    Ok(())
}

fn vm(
    tracing: &Tracing,
    inputs: &[Program],
    reps: usize,
    report: &mut Report,
) -> Result<(), String> {
    let mut ops = 0;
    let mut ns_per_op = Samples::default();
    for p in inputs {
        let prog = compile(p)?;
        let mut program_ops = 0;
        for _ in 0..reps {
            let mut vm = minic::Vm::new(&prog);
            let (ran, took) = tracing.time("vm.minic.run", || vm.run_to_completion());
            ran.map_err(|e| format!("{}: {e}", p.name))?;
            program_ops = vm.ops_executed();
            ns_per_op
                .push_us(harness::calibrated_us(took, Work::Resume) * 1e3 / program_ops as f64);
        }
        ops += program_ops;
    }
    let n = ns_per_op.len();
    report.put(
        "vm.minic.ops",
        ops as f64 / inputs.len() as f64,
        inputs.len(),
    );
    report.put("vm.minic.ns_per_op", ns_per_op.quantile_us(0.5), n);
    Ok(())
}

fn minipy(
    pr: &mut Probes,
    tracing: &Tracing,
    inputs: &[Program],
    report: &mut Report,
) -> Result<(), String> {
    for p in inputs {
        let run = pr.time(tracing, "vm.minipy.run", || {
            minipy::run_source(&p.py, &mut minipy::NullTracer)
        });
        run.map_err(|e| format!("{}: {e}", p.name))?;
        let mut t = PyTracker::load(&format!("{}.py", p.name), &p.py).map_err(|e| e.to_string())?;
        pr.time(tracing, "tracker.py.run", || -> Result<(), String> {
            t.start().map_err(|e| e.to_string())?;
            while t.resume().map_err(|e| e.to_string())?.is_alive() {}
            Ok(())
        })?;
        t.terminate();
    }
    pr.put_p50(report, "vm.minipy.run_us", "vm.minipy.run");
    // Ratio of totals, so the long programs weigh in.
    let ratio = pr.get("tracker.py.run").total_us() / pr.get("vm.minipy.run").total_us();
    report.put("tracker.py.control_ratio", ratio, inputs.len());
    Ok(())
}

/// Drives the engine directly; returns each stepped program's states.
fn engine(
    pr: &mut Probes,
    tracing: &Tracing,
    stepped: &[&Program],
    controlled: &[&Program],
    report: &mut Report,
) -> Result<Vec<Vec<ProgramState>>, String> {
    let mut all = Vec::new();
    for p in stepped {
        let mut e = mi::minic_engine::MinicEngine::new(&compile(p)?);
        e.handle(Command::Start);
        let mut states = Vec::new();
        while (states.len() as u64) < CAP {
            let r = pr.time(tracing, "engine.step", || e.handle(Command::Step));
            if !matches!(&r, Response::Paused(reason) if reason.is_alive()) {
                break;
            }
            match pr.time(tracing, "engine.get_state", || e.handle(Command::GetState)) {
                Response::State(st) => states.push(*st),
                other => return Err(format!("{}: GetState: {}", p.name, other.summary())),
            }
        }
        all.push(states);
    }
    let (mut engine_us, mut vm_us) = (0.0, 0.0);
    for p in controlled {
        let prog = compile(p)?;
        let mut e = mi::minic_engine::MinicEngine::new(&prog);
        e.handle(Command::Start);
        e.handle(match p.script {
            Script::RecursionTree { depth } => Command::TrackFunction {
                function: "fib".into(),
                maxdepth: Some(depth),
            },
            _ => Command::Watch {
                variable: "mark".into(),
            },
        });
        loop {
            let begin = Instant::now();
            let r = tracing
                .time("engine.resume", || e.handle(Command::Resume))
                .0;
            let took = begin.elapsed();
            engine_us += took.as_secs_f64() * 1e6;
            if !matches!(&r, Response::Paused(reason) if reason.is_alive()) {
                break;
            }
            pr.get("engine.resume").push(took);
        }
        let mut vm = minic::Vm::new(&prog);
        let (_, took) = tracing.time("vm.minic.run", || vm.run_to_completion());
        vm_us += took.as_secs_f64() * 1e6;
    }
    pr.put_p50(report, "engine.step_us", "engine.step");
    pr.put_p50(report, "engine.get_state_us", "engine.get_state");
    pr.put_p50(report, "engine.resume_us", "engine.resume");
    report.put("engine.control_ratio", engine_us / vm_us, controlled.len());
    Ok(all)
}

fn codec(pr: &mut Probes, tracing: &Tracing, states: &[Vec<ProgramState>], report: &mut Report) {
    let mut bytes = Samples::default();
    let mut cmd_bytes = Samples::default();
    for (seq, st) in states.iter().flatten().take(2_000).enumerate() {
        for cmd in [Command::Step, Command::GetState] {
            let frame = CommandFrame {
                seq: seq as u64,
                cmd,
                trace: None,
                session: None,
            };
            cmd_bytes.push_us(serde_json::to_vec(&frame).expect("encodes").len() as f64);
        }
        let frame = ResponseFrame {
            seq: seq as u64,
            resp: Response::State(Box::new(st.clone())),
            session: None,
        };
        let wire = pr.time(tracing, "codec.encode", || {
            serde_json::to_vec(&frame).expect("encodes")
        });
        bytes.push_us(wire.len() as f64);
        let back: Result<ResponseFrame, _> =
            pr.time(tracing, "codec.decode", || serde_json::from_slice(&wire));
        if back.as_ref().ok() != Some(&frame) {
            report
                .tally
                .mismatch("a state frame does not survive the codec");
        }
    }
    pr.put_p50(report, "codec.encode_us", "codec.encode");
    pr.put_p50(report, "codec.decode_us", "codec.decode");
    let n = bytes.len();
    report.put("codec.state_bytes", bytes.quantile_us(0.5), n);
    let n = cmd_bytes.len();
    report.put("codec.cmd_bytes", cmd_bytes.quantile_us(0.5), n);
}

/// Step + GetState frames over a raw port, up to [`FRAME_CAP`] per
/// program.
fn raw_frames(
    pr: &mut Probes,
    tracing: &Tracing,
    port: &mut dyn CommandPort,
    name: &'static str,
) -> Result<(), String> {
    port.call(Command::Start).map_err(|e| e.to_string())?;
    for _ in 0..FRAME_CAP {
        let begin = Instant::now();
        let span = tracing.span(name);
        let r = port.call(Command::Step).map_err(|e| e.to_string())?;
        if !matches!(&r, Response::Paused(reason) if reason.is_alive()) {
            return Ok(());
        }
        port.call(Command::GetState).map_err(|e| e.to_string())?;
        drop(span);
        pr.get(name).push(begin.elapsed());
    }
    Ok(())
}

/// The same frames through `MiTracker` (supervision, journal, flight
/// recorder on top of the port).
fn tracker_frames(
    pr: &mut Probes,
    tracing: &Tracing,
    t: &mut MiTracker,
    name: &'static str,
) -> Result<(), String> {
    t.start().map_err(|e| e.to_string())?;
    for _ in 0..FRAME_CAP {
        let begin = Instant::now();
        let span = tracing.span(name);
        if !t.step().map_err(|e| e.to_string())?.is_alive() {
            return Ok(());
        }
        t.get_state().map_err(|e| e.to_string())?;
        drop(span);
        pr.get(name).push(begin.elapsed());
    }
    Ok(())
}

fn pings(
    pr: &mut Probes,
    tracing: &Tracing,
    port: &mut dyn CommandPort,
    name: &'static str,
) -> Result<(), String> {
    for _ in 0..PINGS {
        pr.time(tracing, name, || port.call(Command::Ping))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A dedicated `mi-server` child for `p`, as a raw client.
struct Solo {
    child: std::process::Child,
    client: Client<PumpedTransport<std::process::ChildStdin>>,
    dir: std::path::PathBuf,
}

impl Solo {
    fn spawn(p: &Program) -> Result<Solo, String> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("perfbench-solo-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join("prog.c");
        std::fs::write(&path, &p.c).map_err(|e| e.to_string())?;
        let mut child = std::process::Command::new(harness::server_bin())
            .arg(&path)
            .arg(format!("{}.c", p.name))
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the engine server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(Solo {
            child,
            client: Client::new(PumpedTransport::spawn(stdout, stdin)),
            dir,
        })
    }

    fn shutdown(mut self) {
        let _ = self
            .client
            .call_deadline(Command::Terminate, Some(Duration::from_secs(2)));
        drop(self.client);
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn transports(
    pr: &mut Probes,
    tracing: &Tracing,
    stepped: &[&Program],
    report: &mut Report,
) -> Result<(), String> {
    let first = stepped.first().ok_or("no stepped program to probe")?;
    // In-process: engine thread over the channel transport.
    let mut session = mi::spawn_minic(&compile(first)?);
    pings(pr, tracing, &mut session.client, "transport.ping.inproc")?;
    session.shutdown();
    // Dedicated child over pipes.
    let mut solo = Solo::spawn(first)?;
    pings(pr, tracing, &mut solo.client, "transport.ping.process")?;
    solo.shutdown();
    // Session in a shared host: the ping crosses the host's run queue.
    let host = spawn_host()?;
    {
        let mut s = host
            .open_session(&format!("{}.c", first.name), &first.c, None)
            .map_err(|e| e.to_string())?;
        pings(pr, tracing, &mut s, "transport.ping.hosted")?;
        host.close_session(s.session_id());
    }
    for p in stepped {
        let file = format!("{}.c", p.name);
        let mut session = mi::spawn_minic(&compile(p)?);
        raw_frames(pr, tracing, &mut session.client, "raw.frame.inproc")?;
        session.shutdown();
        let mut solo = Solo::spawn(p)?;
        raw_frames(pr, tracing, &mut solo.client, "raw.frame.process")?;
        solo.shutdown();
        let mut s = host
            .open_session(&file, &p.c, None)
            .map_err(|e| e.to_string())?;
        raw_frames(pr, tracing, &mut s, "raw.frame.hosted")?;
        host.close_session(s.session_id());

        let mut t = MiTracker::load_c(&file, &p.c).map_err(|e| e.to_string())?;
        tracker_frames(pr, tracing, &mut t, "tracker.frame.inproc")?;
        t.terminate();
        let mut t = MiTracker::load_c_process(&harness::server_bin(), &file, &p.c)
            .map_err(|e| e.to_string())?;
        tracker_frames(pr, tracing, &mut t, "tracker.frame.process")?;
        t.terminate();
        let mut t = MiTracker::load_c_hosted(&host, &file, &p.c).map_err(|e| e.to_string())?;
        tracker_frames(pr, tracing, &mut t, "tracker.frame.hosted")?;
        t.terminate();
    }
    close_host(host);
    let layer_sum = pr.p50("engine.step")
        + pr.p50("engine.get_state")
        + pr.p50("codec.encode")
        + pr.p50("codec.decode");
    for (dep, ping, raw, tracked) in [
        (
            "inproc",
            "transport.ping.inproc",
            "raw.frame.inproc",
            "tracker.frame.inproc",
        ),
        (
            "process",
            "transport.ping.process",
            "raw.frame.process",
            "tracker.frame.process",
        ),
        (
            "hosted",
            "transport.ping.hosted",
            "raw.frame.hosted",
            "tracker.frame.hosted",
        ),
    ] {
        pr.put_p50(report, &format!("transport.ping_us.{dep}"), ping);
        let raw_p50 = pr.p50(raw);
        let n = pr.get(raw).len();
        report.put(
            &format!("tracker.overhead_us.{dep}"),
            pr.p50(tracked) - raw_p50,
            n,
        );
        report.put(
            &format!("layers.coverage.{dep}"),
            (layer_sum + 2.0 * pr.p50(ping)) / raw_p50,
            n,
        );
    }
    Ok(())
}

fn host(
    pr: &mut Probes,
    tracing: &Tracing,
    inputs: &[Program],
    stepped: &[&Program],
    report: &mut Report,
) -> Result<(), String> {
    let host = spawn_host()?;
    for p in inputs {
        let s = pr
            .time(tracing, "host.open", || {
                host.open_session(&format!("{}.c", p.name), &p.c, None)
            })
            .map_err(|e| e.to_string())?;
        host.close_session(s.session_id());
    }
    // Publish one recording and open readers over it.
    let first = stepped.first().ok_or("no stepped program to record")?;
    let mut t = MiTracker::load_c_hosted(&host, &format!("{}.c", first.name), &first.c)
        .map_err(|e| e.to_string())?;
    t.record(perfbench::KEYFRAME_EVERY)
        .map_err(|e| e.to_string())?;
    t.start().map_err(|e| e.to_string())?;
    for _ in 0..CAP {
        if !t.step().map_err(|e| e.to_string())?.is_alive() {
            break;
        }
    }
    t.publish_trace("probe").map_err(|e| e.to_string())?;
    for _ in 0..20 {
        let r = pr
            .time(tracing, "host.open_replay", || {
                host.open_replay("probe", None)
            })
            .map_err(|e| e.to_string())?;
        host.close_session(r.session_id());
    }
    t.terminate();
    drop(t);
    close_host(host);
    pr.put_p50(report, "host.open_us", "host.open");
    pr.put_p50(report, "host.open_replay_us", "host.open_replay");
    Ok(())
}

fn trace_store(
    pr: &mut Probes,
    tracing: &Tracing,
    stepped: &[&Program],
    states: &[Vec<ProgramState>],
    seed: u64,
    report: &mut Report,
) {
    let (mut bytes, mut pauses) = (0u64, 0u64);
    let registry = obs::Registry::new();
    let mut stores = Vec::new();
    for (p, sts) in stepped.iter().zip(states) {
        let mut store = trace::Store::new(
            format!("{}.c", p.name),
            p.c.clone(),
            perfbench::KEYFRAME_EVERY,
        );
        for st in sts {
            pr.time(tracing, "trace.push", || store.push(st, ""));
        }
        store.freeze();
        bytes += store.to_bytes().len() as u64;
        pauses += store.len();
        if !store.is_empty() {
            stores.push(Arc::new(store));
        }
    }
    let mut seeks = 0u64;
    for (i, store) in stores.iter().enumerate() {
        let reader = trace::TraceReader::new(store.clone(), registry.clone());
        let mut replay = mi::ReplayEngine::new(store.clone(), obs::Registry::new());
        for &n in &perfbench::seek_targets(seed ^ i as u64, store.len(), 200) {
            let st = pr.time(tracing, "trace.seek", || reader.state_at(n));
            seeks += 1;
            let stored = &states[i][n as usize];
            if st.as_deref().ok() != Some(stored) {
                report.tally.mismatch("a stored state does not read back");
            }
            let begin = Instant::now();
            let _span = tracing.span("engine.seek");
            replay.handle(Command::Seek { pause: n });
            replay.handle(Command::GetState);
            pr.get("engine.seek").push(begin.elapsed());
        }
    }
    pr.put_p50(report, "trace.push_us", "trace.push");
    let s = pr.get("trace.seek");
    let n = s.len();
    let (p50, p99) = (s.quantile_us(0.5), s.quantile_us(0.99));
    report.put("trace.seek_us.p50", p50, n);
    report.put("trace.seek_us.p99", p99, n);
    let decodes = registry.snapshot().counter("trace.keyframe_decodes");
    report.put(
        "trace.segment_decodes",
        decodes as f64 / seeks.max(1) as f64,
        seeks as usize,
    );
    report.put(
        "trace.bytes_per_pause",
        bytes as f64 / pauses.max(1) as f64,
        pauses as usize,
    );
    pr.put_p50(report, "engine.seek_us", "engine.seek");
}
