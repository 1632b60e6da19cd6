//! Chaos sweeps over the multi-session host: seeded kill schedules
//! target individual sessions (swept out of a live host) and the host
//! process itself (SIGKILL). Every targeted session must either recover
//! to its solo-process oracle trace or degrade with the typed
//! [`TrackerError::SessionDegraded`]; sessions the schedule never
//! touches must finish oracle-identical, unaffected by their
//! neighbours' deaths.

use conformance::rng::Rng;
use easytracker::{MiTracker, PauseReason, ProgramSpec, Supervision, Tracker, TrackerError};
use mi::HostHandle;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn server_bin() -> PathBuf {
    conformance::mi_server_bin().expect("mi_server binary builds")
}

/// Two session re-establishments are in budget; a third kill degrades.
const MAX_RESPAWNS: u32 = 2;

fn chaos_supervision() -> Supervision {
    Supervision {
        deadline: Some(Duration::from_secs(10)),
        ping_deadline: Duration::from_millis(500),
        max_retries: 1,
        max_respawns: MAX_RESPAWNS,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        jitter_seed: 0xc4a0_5e55_0000_0007,
    }
}

fn load_hosted(host: &HostHandle, file: &str, source: &str) -> MiTracker {
    MiTracker::load_spec(
        ProgramSpec::new(file, source).via_host(host),
        obs::Registry::new(),
        chaos_supervision(),
        None,
    )
    .expect("hosted session opens")
}

fn observe(t: &mut MiTracker, reason: &PauseReason) -> String {
    let mut obs = format!("pause={reason}");
    if reason.is_alive() {
        let state = t.get_state().expect("state");
        obs.push_str(" state=");
        obs.push_str(&serde_json::to_string(&state).expect("state serializes"));
    } else {
        obs.push_str(&format!(" exit={:?}", t.get_exit_code()));
    }
    obs
}

const MAX_STEPS: usize = 300;

/// The fault-free behaviour: one tracker, one dedicated `mi-server`
/// child, full step/observe trace.
fn solo_oracle(file: &str, source: &str) -> Vec<String> {
    let mut t = MiTracker::load_spec(
        ProgramSpec::new(file, source).via_server(&server_bin()),
        obs::Registry::new(),
        chaos_supervision(),
        None,
    )
    .expect("solo session spawns");
    let mut trace = Vec::new();
    let reason = t.start().expect("start");
    trace.push(observe(&mut t, &reason));
    let mut alive = reason.is_alive();
    while alive && trace.len() < MAX_STEPS {
        let reason = t.step().expect("step");
        trace.push(observe(&mut t, &reason));
        alive = reason.is_alive();
    }
    t.terminate();
    trace
}

/// How one session under chaos ended.
#[derive(Debug, PartialEq, Eq)]
enum Ending {
    /// Ran to completion; trace checked against the oracle.
    Finished,
    /// Refused with the typed degradation error.
    Degraded,
}

/// One seeded round of the session-kill sweep: N sessions interleave in
/// one host child; the schedule sweeps chosen victims out of the (live)
/// host mid-run, some within the respawn budget and one past it.
fn session_kill_round(seed: u64) {
    const N: usize = 5;
    let programs: Vec<(String, String)> = (0..N)
        .map(|i| {
            let program = conformance::gen::gen_program(seed.wrapping_mul(31) + i as u64);
            (format!("chaos{i}.c"), conformance::gen::render_c(&program))
        })
        .collect();
    let oracles: Vec<Vec<String>> = programs
        .iter()
        .map(|(file, source)| solo_oracle(file, source))
        .collect();

    // Schedule: one victim killed once (must recover), one killed until
    // its budget is exhausted (must degrade). Everyone else is a
    // bystander the chaos must not touch.
    let mut rng = Rng::new(seed ^ 0x5e55_10f5_c4a0_5c4a);
    let recover_victim = rng.below(N as u64) as usize;
    let mut degrade_victim = rng.below(N as u64) as usize;
    if degrade_victim == recover_victim {
        degrade_victim = (degrade_victim + 1) % N;
    }
    let mut kills_left: Vec<u32> = vec![0; N];
    kills_left[recover_victim] = 1;
    kills_left[degrade_victim] = MAX_RESPAWNS + 1;
    // Which pass of the round-robin the first kill lands on; the
    // degrade victim's kills then land on consecutive passes.
    let first_kill_round = 1 + rng.below(3);

    let host = HostHandle::spawn_process(server_bin(), 4).expect("host spawns");
    let mut sessions: Vec<MiTracker> = programs
        .iter()
        .map(|(file, source)| load_hosted(&host, file, source))
        .collect();
    let host_pid = host.host_pid().expect("host child pid");

    let mut traces: Vec<Vec<String>> = vec![Vec::new(); N];
    let mut alive = [true; N];
    let mut endings: Vec<Option<Ending>> = (0..N).map(|_| None).collect();
    let mut kills_delivered = [0u32; N];
    for (i, t) in sessions.iter_mut().enumerate() {
        let reason = t.start().expect("start");
        traces[i].push(observe(t, &reason));
        alive[i] = reason.is_alive();
        if !alive[i] {
            endings[i] = Some(Ending::Finished);
        }
    }
    let mut round = 0u64;
    while alive.iter().any(|a| *a) {
        round += 1;
        for (i, t) in sessions.iter_mut().enumerate() {
            if !alive[i] {
                continue;
            }
            if traces[i].len() >= MAX_STEPS {
                alive[i] = false;
                endings[i] = Some(Ending::Finished);
                continue;
            }
            if kills_left[i] > 0 && round >= first_kill_round {
                let sid = t.host_session_id().expect("hosted session");
                host.close_session(sid);
                kills_left[i] -= 1;
                kills_delivered[i] += 1;
            }
            match t.step() {
                Ok(reason) => {
                    traces[i].push(observe(t, &reason));
                    if !reason.is_alive() {
                        alive[i] = false;
                        endings[i] = Some(Ending::Finished);
                        t.terminate();
                    }
                }
                Err(TrackerError::SessionDegraded(_)) => {
                    alive[i] = false;
                    endings[i] = Some(Ending::Degraded);
                }
                Err(e) => panic!(
                    "seed {seed}: session {i} failed untyped after {} kills: {e}",
                    kills_delivered[i]
                ),
            }
        }
    }

    for i in 0..N {
        let delivered = kills_delivered[i];
        match endings[i].as_ref().expect("every session ended") {
            Ending::Finished => {
                assert!(
                    delivered <= MAX_RESPAWNS,
                    "seed {seed}: session {i} survived {delivered} kills past its budget"
                );
                assert_eq!(
                    &traces[i], &oracles[i],
                    "seed {seed}: session {i} ({delivered} kills) diverged from its oracle"
                );
                assert_eq!(
                    sessions[i].respawns(),
                    delivered,
                    "seed {seed}: session {i}"
                );
            }
            Ending::Degraded => {
                assert!(
                    delivered > MAX_RESPAWNS,
                    "seed {seed}: session {i} degraded after only {delivered} kills"
                );
                // Everything it reported before refusing was truthful.
                assert_eq!(
                    &traces[i][..],
                    &oracles[i][..traces[i].len()],
                    "seed {seed}: session {i} diverged before degrading"
                );
            }
        }
    }
    // Session-level kills never cost the host child its life.
    assert_eq!(
        host.host_pid().expect("host still alive"),
        host_pid,
        "seed {seed}: the host process must survive session-level chaos"
    );
    assert_eq!(host.respawns(), 0, "seed {seed}");
    for mut t in sessions {
        t.terminate();
    }
}

/// One seeded round of the host-kill sweep: SIGKILL the shared host
/// child at a seeded pass; every session must re-establish in the
/// respawned process and finish oracle-identical.
fn host_kill_round(seed: u64) {
    const N: usize = 4;
    let programs: Vec<(String, String)> = (0..N)
        .map(|i| {
            let program = conformance::gen::gen_program(seed.wrapping_mul(37) + 17 + i as u64);
            (format!("hk{i}.c"), conformance::gen::render_c(&program))
        })
        .collect();
    let oracles: Vec<Vec<String>> = programs
        .iter()
        .map(|(file, source)| solo_oracle(file, source))
        .collect();

    let mut rng = Rng::new(seed ^ 0x09_f1f5_0c4a_05c4);
    let kill_round = 1 + rng.below(3);

    let host = HostHandle::spawn_process(server_bin(), 4).expect("host spawns");
    let mut sessions: Vec<MiTracker> = programs
        .iter()
        .map(|(file, source)| load_hosted(&host, file, source))
        .collect();
    let pid_before = host.host_pid().expect("host child pid");

    let mut traces: Vec<Vec<String>> = vec![Vec::new(); N];
    let mut alive = [true; N];
    for (i, t) in sessions.iter_mut().enumerate() {
        let reason = t.start().expect("start");
        traces[i].push(observe(t, &reason));
        alive[i] = reason.is_alive();
    }
    let mut round = 0u64;
    let mut killed = false;
    while alive.iter().any(|a| *a) {
        round += 1;
        if !killed && round >= kill_round {
            let status = std::process::Command::new("kill")
                .args(["-KILL", &pid_before.to_string()])
                .status()
                .expect("kill runs");
            assert!(status.success());
            let deadline = Instant::now() + Duration::from_secs(5);
            while host.engine_died().is_none() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            killed = true;
        }
        for (i, t) in sessions.iter_mut().enumerate() {
            if !alive[i] || traces[i].len() >= MAX_STEPS {
                alive[i] = false;
                continue;
            }
            let reason = t
                .step()
                .unwrap_or_else(|e| panic!("seed {seed}: session {i} failed after host kill: {e}"));
            traces[i].push(observe(t, &reason));
            if !reason.is_alive() {
                alive[i] = false;
                t.terminate();
            }
        }
    }

    assert!(killed, "seed {seed}: the schedule never fired");
    for (i, (trace, oracle)) in traces.iter().zip(oracles.iter()).enumerate() {
        assert_eq!(
            trace, oracle,
            "seed {seed}: session {i} diverged after the host kill"
        );
    }
    for (i, t) in sessions.iter().enumerate() {
        assert_eq!(
            t.respawns(),
            1,
            "seed {seed}: session {i} re-established once"
        );
    }
    assert_eq!(
        host.respawns(),
        1,
        "seed {seed}: one shared process respawn"
    );
    assert_ne!(
        host.host_pid().expect("respawned host"),
        pid_before,
        "seed {seed}: a new host child must be serving"
    );
    for mut t in sessions {
        t.terminate();
    }
}

/// CI sweep, session half: seeded kill schedules against individual
/// sessions in a live host.
#[test]
fn session_kill_sweep_recovers_or_degrades_with_survivors_unaffected() {
    for seed in [0xA11CE, 0xB0B5E] {
        session_kill_round(seed);
    }
}

/// CI sweep, process half: seeded SIGKILL schedules against the shared
/// host child.
#[test]
fn host_kill_sweep_reestablishes_every_session() {
    for seed in [0xCAFE5, 0xD00D5] {
        host_kill_round(seed);
    }
}
