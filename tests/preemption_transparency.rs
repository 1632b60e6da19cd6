//! Preemption transparency: fuel-sliced execution must be invisible.
//!
//! The session host serves engine work in bounded fuel slices so one hot
//! tenant cannot pin a worker, re-queueing a session mid-`resume` and
//! picking it back up later. The governance contract is that none of
//! this is observable: a conformance sweep driven through a sliced host
//! — at any `--slice-steps`, including pathological single-digit fuels —
//! must be *pause-for-pause byte-identical* to the same programs driven
//! unsliced, across deployments (dedicated in-process channel, in-process
//! host, real `mi-server --host` child).

use conformance::diff::{drive_with_control_points, Driver, Trace};
use easytracker::{MiTracker, ProgramSpec, Recording, Supervision, Tracker};
use mi::{HostConfig, HostHandle, SessionHost};
use std::time::Duration;

fn fast_supervision() -> Supervision {
    Supervision {
        deadline: Some(Duration::from_secs(10)),
        ping_deadline: Duration::from_millis(500),
        max_retries: 1,
        max_respawns: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        jitter_seed: 0x51ce_0000_0001,
    }
}

/// An in-process host with an explicit slice fuel (`None` = unsliced),
/// plus its registry for asserting preemptions actually happened.
fn sliced_host(slice_steps: Option<u64>) -> (SessionHost, HostHandle, obs::Registry) {
    let registry = obs::Registry::new();
    let config = HostConfig {
        workers: 2,
        slice_steps,
        ..HostConfig::default()
    };
    let host = SessionHost::with_config(config, registry.clone());
    let handle = HostHandle::connect_in_process(&host);
    (host, handle, registry)
}

fn hosted(handle: &HostHandle, spec: ProgramSpec) -> MiTracker {
    MiTracker::load_spec(
        spec.via_host(handle),
        obs::Registry::new(),
        fast_supervision(),
        None,
    )
    .expect("hosted session opens")
}

fn step_trace(driver: &Driver, t: &mut MiTracker) -> Trace {
    let trace = driver.step_trace(t).expect("trace");
    t.terminate();
    trace
}

/// Fuels to sweep on the sliced legs: 1 preempts on every VM step, 7 is
/// adversarially misaligned with loop bodies, 64 preempts every few
/// statements. The oracle uses no host at all.
const FUELS: [u64; 3] = [1, 7, 64];

/// The conformance step sweep through sliced hosts: full serialized
/// `ProgramState` at every pause, output, and exit code — byte-identical
/// to a dedicated unsliced engine, for every generated program and every
/// fuel, in both languages the host serves.
#[test]
fn sliced_hosts_are_pause_for_pause_identical_to_dedicated_engines() {
    let driver = Driver::new();
    for seed in [0xf0e1_0001u64, 0xf0e1_0002, 0xf0e1_0003, 0xf0e1_0004] {
        let program = conformance::gen::gen_program(seed);
        let c_src = conformance::gen::render_c(&program);
        let asm_src = conformance::gen::render_asm(&conformance::gen::gen_asm(seed));

        let mut oracle_c = MiTracker::load_c("gen.c", &c_src).expect("oracle c");
        let oracle_c = step_trace(&driver, &mut oracle_c);
        let mut oracle_asm = MiTracker::load_c("gen.s", &asm_src).expect("oracle asm");
        let oracle_asm = step_trace(&driver, &mut oracle_asm);

        for fuel in FUELS {
            let (host, handle, registry) = sliced_host(Some(fuel));
            let mut c = hosted(&handle, ProgramSpec::new("gen.c", &c_src));
            let c_trace = step_trace(&driver, &mut c);
            assert_eq!(
                c_trace, oracle_c,
                "seed {seed:#x} fuel {fuel}: sliced C leg diverged from the unsliced oracle"
            );
            let mut asm = hosted(&handle, ProgramSpec::new("gen.s", &asm_src));
            let asm_trace = step_trace(&driver, &mut asm);
            assert_eq!(
                asm_trace, oracle_asm,
                "seed {seed:#x} fuel {fuel}: sliced asm leg diverged from the unsliced oracle"
            );
            host.shutdown();
            // The sweep only proves something if slicing actually
            // happened. Step-granular driving runs one VM step per
            // command, so only fuel 1 is guaranteed to exhaust a slice
            // mid-command here (larger fuels preempt on the `resume`
            // legs of the control-point test instead).
            if fuel == 1 {
                let snap = registry.snapshot();
                assert!(
                    snap.counter("mi.host.preemptions") > 0,
                    "seed {seed:#x} fuel {fuel}: no preemption ever fired"
                );
            }
        }

        // Unsliced host leg: --slice-steps 0, the pre-governance path,
        // must also still match.
        let (host, handle, _registry) = sliced_host(None);
        let mut c = hosted(&handle, ProgramSpec::new("gen.c", &c_src));
        let c_trace = step_trace(&driver, &mut c);
        assert_eq!(
            c_trace, oracle_c,
            "seed {seed:#x}: unsliced host leg diverged from the oracle"
        );
        host.shutdown();
    }
}

/// Control-point transparency: breakpoints, watchpoints, tracked
/// functions, `finish` and `next` driven through an aggressively sliced
/// host produce the same pause-reason sequence as the dedicated engine.
/// Slicing mid-`resume` must not double-report, skip, or re-order any
/// control-point pause.
#[test]
fn control_points_survive_slicing_unchanged() {
    for seed in [0xf0e2_0001u64, 0xf0e2_0002, 0xf0e2_0003] {
        let program = conformance::gen::gen_program(seed);
        let c_src = conformance::gen::render_c(&program);

        // A breakpoint line that actually executes, from a recording.
        let rec = {
            let mut t = MiTracker::load_c("gen.c", &c_src).expect("load");
            Recording::capture(&mut t).expect("capture")
        };
        let lines: Vec<u32> = rec
            .steps
            .iter()
            .map(|s| s.state.frame.location().line())
            .collect();
        let bp_line = lines[lines.len() / 2];

        let mut oracle = MiTracker::load_c("gen.c", &c_src).expect("oracle");
        let oracle_tags = drive_with_control_points(&mut oracle, bp_line).expect("oracle drive");
        oracle.terminate();

        for fuel in FUELS {
            let (host, handle, _registry) = sliced_host(Some(fuel));
            let mut t = hosted(&handle, ProgramSpec::new("gen.c", &c_src));
            let tags = drive_with_control_points(&mut t, bp_line).expect("sliced drive");
            t.terminate();
            host.shutdown();
            assert_eq!(
                tags, oracle_tags,
                "seed {seed:#x} fuel {fuel}: control-point reasons changed under slicing"
            );
        }
    }
}

/// The process deployment: a real `mi-server --host` child runs with the
/// default slice fuel, so every hosted process session in the suite
/// already exercises the sliced path — pin that with an explicit oracle
/// comparison rather than trusting the default.
#[test]
fn default_sliced_process_host_matches_the_dedicated_engine() {
    let server = conformance::mi_server_bin().expect("mi_server builds");
    let driver = Driver::new();
    let program = conformance::gen::gen_program(0xf0e3_0001);
    let c_src = conformance::gen::render_c(&program);

    let mut oracle = MiTracker::load_c("gen.c", &c_src).expect("oracle");
    let oracle = step_trace(&driver, &mut oracle);

    let host = HostHandle::spawn_process(server, 2).expect("host spawns");
    let mut t = hosted(&host, ProgramSpec::new("gen.c", &c_src));
    let trace = step_trace(&driver, &mut t);
    assert_eq!(
        trace, oracle,
        "process host (default slice fuel) diverged from the dedicated engine"
    );
}
