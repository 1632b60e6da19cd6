//! The `time_travel` workload: record a deep-stack execution in a hosted
//! session, then scrub it with several replay readers.
//!
//! Write phase: three sessions in turn arm `record(32)` and step
//! `fib(17)` to exit with `get_state` at every pause (about 6.8k recorded
//! pauses each); a pause is one recorded `step`, and every recording must
//! show the same states. Read phase: the first recording is published,
//! and four readers opened with `HostHandle::open_replay` serve seeded
//! random `Seek` + `GetState` pairs round-robin; a frame is one such
//! pair. Every state a reader returns must equal, by digest, the state
//! the live session showed at that pause.

use crate::deploy::{close_host, spawn_host};
use easytracker::{MiTracker, Tracker};
use mi::protocol::{Command, Response};
use mi::{CommandPort, HostHandle, SessionHandle};
use perfbench::harness::{self, Report, RunArgs, Samples, Tracing};
use perfbench::Digest;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Name the recording is published under.
const SHELF_NAME: &str = "fib";
/// Seeks per second of `--seconds`, sized on the reference machine so
/// that the write and read phases take about that long.
const SEEKS_PER_SECOND: f64 = 60.0;
/// Recordings of the program per run, every step of each timed: one
/// takes about a second, too short a window alone for a steady median.
const WRITES: usize = 3;

/// The recorded session, set up and started.
struct Writer {
    host: HostHandle,
    tracker: MiTracker,
}

fn program(args: &RunArgs) -> String {
    perfbench::fib_c(args.pick(perfbench::RECORDED_FIB, 11))
}

/// A hosted session of the program, recording and started.
fn recording_session(host: &HostHandle, args: &RunArgs) -> Result<MiTracker, String> {
    let mut tracker =
        MiTracker::load_c_hosted(host, "fib.c", &program(args)).map_err(|e| e.to_string())?;
    tracker
        .record(perfbench::KEYFRAME_EVERY)
        .map_err(|e| e.to_string())?;
    tracker.start().map_err(|e| e.to_string())?;
    Ok(tracker)
}

fn set_up_writer(args: &RunArgs) -> Result<Writer, String> {
    let host = spawn_host()?;
    let tracker = recording_session(&host, args)?;
    Ok(Writer { host, tracker })
}

fn shut(w: Writer) {
    let Writer { host, mut tracker } = w;
    tracker.terminate();
    drop(tracker);
    close_host(host);
}

/// Steps the recorded session to exit, timing each step; returns the
/// digest of the state at every recorded pause.
fn write_phase(
    tracker: &mut MiTracker,
    pauses: &mut Samples,
    report: &mut Report,
) -> Result<Vec<Digest>, String> {
    let digest = |st: &state::ProgramState| {
        let mut d = Digest::default();
        d.add_state(st);
        d
    };
    let tally = &mut report.tally;
    let first = tracker.get_state();
    tally.op(first.is_ok());
    let mut digests = vec![digest(&first.map_err(|e| e.to_string())?)];
    loop {
        if digests.len() % 32 == 0 {
            harness::calibrate();
        }
        let begin = Instant::now();
        let reason = tracker.step();
        let took = begin.elapsed();
        tally.op(reason.is_ok());
        if !reason.map_err(|e| e.to_string())?.is_alive() {
            return Ok(digests);
        }
        pauses.push(took);
        let st = tracker.get_state();
        tally.op(st.is_ok());
        digests.push(digest(&st.map_err(|e| e.to_string())?));
    }
}

fn open_readers(host: &HostHandle) -> Result<Vec<SessionHandle>, String> {
    (0..perfbench::READERS)
        .map(|_| {
            host.open_replay(SHELF_NAME, Some(Duration::from_secs(5)))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn close_readers(host: &HostHandle, readers: Vec<SessionHandle>) {
    for r in readers {
        host.close_session(r.session_id());
    }
}

/// Seeks round-robin across the readers to each of `targets`, checking
/// each state against the write phase's digest.
fn read_phase(
    readers: &mut [SessionHandle],
    targets: &[u64],
    digests: &[Digest],
    frames: &mut Samples,
    tracing: &Tracing,
    limit: Duration,
    report: &mut Report,
) {
    let tally = &mut report.tally;
    harness::run_units(0, targets.len(), limit, |i, _| {
        let pause = targets[i];
        let n = readers.len();
        let reader = &mut readers[i % n];
        let span = tracing.span("e2e.seek");
        let begin = Instant::now();
        let seek = tracing
            .time("replay.seek", || {
                reader.call_deadline(Command::Seek { pause }, Some(Duration::from_secs(5)))
            })
            .0;
        let state = tracing
            .time("replay.get_state", || {
                reader.call_deadline(Command::GetState, Some(Duration::from_secs(5)))
            })
            .0;
        let took = begin.elapsed();
        drop(span);
        let seek_ok = matches!(seek, Ok(Response::Paused(_)));
        tally.op(seek_ok);
        match state {
            Ok(Response::State(st)) => {
                tally.op(true);
                frames.push(took);
                let mut d = Digest::default();
                d.add_state(&st);
                if digests.get(pause as usize) != Some(&d) {
                    tally.mismatch(&format!(
                        "replayed state at pause {pause} differs from the recording"
                    ));
                }
            }
            other => {
                tally.op(false);
                eprintln!("perfbench: seek {pause}: {other:?}");
            }
        }
    });
}

/// One time-travel run.
///
/// # Errors
///
/// Set-up and recording failures.
pub fn run(args: &RunArgs, tracing: &Tracing) -> Result<Report, String> {
    let mut report = Report::default();
    let reps = if args.trace {
        1
    } else {
        args.pick(SETUP_REPS, 1)
    };
    let mut writer = None;
    let open_s = harness::median_secs(reps, || {
        let begin = Instant::now();
        let w = set_up_writer(args)?;
        let took = begin.elapsed();
        if let Some(old) = writer.replace(w) {
            shut(old);
        }
        Ok(took)
    })?;
    let mut w = writer.expect("at least one set-up");
    let mut pauses = Samples::default();
    let digests = write_phase(&mut w.tracker, &mut pauses, &mut report)?;
    for _ in 1..args.pick(WRITES, 1) {
        let mut again = recording_session(&w.host, args)?;
        if write_phase(&mut again, &mut pauses, &mut report)? != digests {
            report
                .tally
                .mismatch("two recordings of the same program showed different states");
        }
        again.terminate();
    }
    let (recorded, _, bytes) = w.tracker.trace_stats().map_err(|e| e.to_string())?;
    if recorded != digests.len() as u64 {
        report.tally.mismatch(&format!(
            "{recorded} pauses recorded, the session showed {}",
            digests.len()
        ));
    }
    w.tracker
        .publish_trace(SHELF_NAME)
        .map_err(|e| e.to_string())?;
    let mut readers = None;
    let readers_s = harness::median_secs(reps, || {
        let begin = Instant::now();
        let r = open_readers(&w.host)?;
        let took = begin.elapsed();
        if let Some(old) = readers.replace(r) {
            close_readers(&w.host, old);
        }
        Ok(took)
    })?;
    let mut readers = readers.expect("at least one open");
    let seeks = harness::units(args.seconds, SEEKS_PER_SECOND);
    let targets = perfbench::seek_targets(args.seed, recorded, seeks);
    let mut frames = Samples::default();
    if args.trace {
        // Half the seeks each way, untraced first.
        let (plain, traced_targets) = targets.split_at(seeks / 2);
        let mut traced = Samples::default();
        let limit = args.limit() / 2;
        read_phase(
            &mut readers,
            plain,
            &digests,
            &mut frames,
            &Tracing::default(),
            limit,
            &mut report,
        );
        read_phase(
            &mut readers,
            traced_targets,
            &digests,
            &mut traced,
            tracing,
            limit,
            &mut report,
        );
        report.put(
            "bench.trace_overhead_pct",
            (traced.quantile_us(0.5) / frames.quantile_us(0.5) - 1.0) * 100.0,
            traced.len(),
        );
        report.tail("frame", &mut frames);
        report.tail("pause", &mut pauses);
    } else {
        read_phase(
            &mut readers,
            &targets,
            &digests,
            &mut frames,
            tracing,
            args.limit(),
            &mut report,
        );
    }
    let rss = harness::vm_hwm_mib(w.host.host_pid());
    close_readers(&w.host, readers);
    shut(w);
    eprintln!(
        "perfbench: time_travel recorded {recorded} pauses in {bytes} B ({:.1} B/pause)",
        bytes as f64 / recorded.max(1) as f64
    );
    if args.trace {
        let inputs = [
            perfbench::Program {
                name: "fib".into(),
                c: program(args),
                py: perfbench::fib_py(args.pick(perfbench::RECORDED_FIB, 11)),
                script: perfbench::Script::Stepper,
            },
            perfbench::recursion_tree_program(args.pick(perfbench::RECORDED_FIB, 11)),
        ];
        crate::layers::run(args, tracing, &inputs, &mut report)?;
        return Ok(report);
    }
    report.put("setup_s", open_s + readers_s, reps);
    report.latency("frame", &mut frames);
    report.latency("pause", &mut pauses);
    report.put("peak_rss_mib", rss.unwrap_or(f64::NAN), 1);
    Ok(report)
}
