//! Reproducer shrinking and the committed corpus.
//!
//! When a differential check or fault scenario fails, [`shrink`] reduces
//! the generated program to a local minimum that still fails, delta-
//! debugging style: drop statements, hoist block bodies, collapse
//! conditionals, clamp loop bounds, and simplify expressions, to a
//! fixpoint. Minimized reproducers are written as [`CorpusEntry`] JSON
//! files under `tests/corpus/` (repo root) and re-run on every CI build
//! by `tests/corpus_replay.rs`.

use crate::diff::Driver;
use crate::fault::{
    chaos_wrapper, dead_wrapper, ChaosFault, ChaosPlan, ChaosState, FaultKind, FaultTransport,
};
use crate::gen::{self, Expr, Program, Stmt};
use easytracker::{MiTracker, ProgramSpec, Supervision, Tracker, TrackerError};
use mi::protocol::{Command, Response};
use mi::transport::{duplex, ChannelTransport};
use mi::{minic_engine::MinicEngine, Client, MiError, Server};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// The reducer.
// ---------------------------------------------------------------------------

/// Shrinks `program` to a local minimum for which `fails` still returns
/// true. If `fails(program)` is false the program is returned unchanged.
pub fn shrink(program: &Program, fails: &mut dyn FnMut(&Program) -> bool) -> Program {
    if !fails(program) {
        return program.clone();
    }
    let mut current = program.clone();
    loop {
        let mut reduced = false;
        for candidate in candidates(&current) {
            if measure(&candidate) < measure(&current) && fails(&candidate) {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

/// Node count, the primary measure the reducer drives down.
pub fn size(p: &Program) -> usize {
    p.funcs
        .iter()
        .map(|f| 1 + expr_size(&f.expr) + expr_size(&f.inner))
        .sum::<usize>()
        + stmts_size(&p.body)
}

/// Lexicographic reduction measure: node count first, then leaf weight so
/// same-size simplifications (variable → literal, literal halving) still
/// make progress without cycling.
fn measure(p: &Program) -> (usize, u64) {
    let mut w = 0u64;
    let mut expr_w = |e: &Expr| w += expr_weight(e);
    for f in &p.funcs {
        expr_w(&f.expr);
        expr_w(&f.inner);
    }
    fn walk(body: &[Stmt], w: &mut u64) {
        for s in body {
            match s {
                Stmt::Assign(_, e) | Stmt::Store(_, e) | Stmt::Print(e) => *w += expr_weight(e),
                Stmt::Call { arg, .. } => *w += expr_weight(arg),
                Stmt::If(_, a, b) => {
                    walk(a, w);
                    walk(b, w);
                }
                Stmt::Loop { body, .. } => walk(body, w),
                Stmt::Free => {}
            }
        }
    }
    walk(&p.body, &mut w);
    (size(p), w)
}

fn expr_weight(e: &Expr) -> u64 {
    match e {
        Expr::Lit(v) => v.unsigned_abs(),
        // Heavier than any literal the generator emits, so leaf → Lit(0)
        // always reduces.
        Expr::Var(_) | Expr::Load(_) | Expr::Param => 1_000,
        Expr::Bin(_, a, b) => expr_weight(a) + expr_weight(b),
    }
}

fn expr_size(e: &Expr) -> usize {
    match e {
        Expr::Bin(_, a, b) => 1 + expr_size(a) + expr_size(b),
        _ => 1,
    }
}

fn stmts_size(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::If(_, a, b) => 1 + stmts_size(a) + stmts_size(b),
            Stmt::Loop { body, .. } => 1 + stmts_size(body),
            _ => 1,
        })
        .sum()
}

/// All single-edit reductions of `p`.
fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    // Drop the highest function if nothing references it.
    if p.funcs.len() > 1 {
        let last = p.funcs.len() - 1;
        let called = calls_func(&p.body, last) || p.funcs.iter().any(|f| f.callee == Some(last));
        if !called {
            let mut q = p.clone();
            q.funcs.pop();
            out.push(q);
        }
    }
    // Cut call chains.
    for (i, f) in p.funcs.iter().enumerate() {
        if f.callee.is_some() {
            let mut q = p.clone();
            q.funcs[i].callee = None;
            out.push(q);
        }
    }
    // Structural reductions of the body.
    let variants = reduce_stmts(&p.body);
    out.extend(variants.into_iter().map(|body| Program {
        funcs: p.funcs.clone(),
        body,
    }));
    out
}

fn calls_func(body: &[Stmt], id: usize) -> bool {
    body.iter().any(|s| match s {
        Stmt::Call { func, .. } => *func == id,
        Stmt::If(_, a, b) => calls_func(a, id) || calls_func(b, id),
        Stmt::Loop { body, .. } => calls_func(body, id),
        _ => false,
    })
}

/// Every one-edit variant of a statement list: remove one statement,
/// replace a compound by (part of) its body, clamp a loop bound, shrink
/// one embedded expression, or recurse into a nested block.
fn reduce_stmts(body: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        // Removal.
        let mut v = body.to_vec();
        v.remove(i);
        out.push(v);
        match &body[i] {
            Stmt::If(_, a, b) => {
                for arm in [a, b] {
                    let mut v = body.to_vec();
                    v.splice(i..=i, arm.iter().cloned());
                    out.push(v);
                }
                for (branch, variants) in [(0, reduce_stmts(a)), (1, reduce_stmts(b))] {
                    for nested in variants {
                        let mut v = body.to_vec();
                        if let Stmt::If(_, a2, b2) = &mut v[i] {
                            if branch == 0 {
                                *a2 = nested;
                            } else {
                                *b2 = nested;
                            }
                        }
                        out.push(v);
                    }
                }
            }
            Stmt::Loop {
                id,
                bound,
                body: inner,
            } => {
                // Hoist the body out of the loop (runs once).
                let mut v = body.to_vec();
                v.splice(i..=i, inner.iter().cloned());
                out.push(v);
                if *bound > 1 {
                    let mut v = body.to_vec();
                    v[i] = Stmt::Loop {
                        id: *id,
                        bound: 1,
                        body: inner.clone(),
                    };
                    out.push(v);
                }
                for nested in reduce_stmts(inner) {
                    let mut v = body.to_vec();
                    if let Stmt::Loop { body: b2, .. } = &mut v[i] {
                        *b2 = nested;
                    }
                    out.push(v);
                }
            }
            Stmt::Assign(var, e) => {
                for e2 in reduce_expr(e) {
                    let mut v = body.to_vec();
                    v[i] = Stmt::Assign(*var, e2);
                    out.push(v);
                }
            }
            Stmt::Store(slot, e) => {
                for e2 in reduce_expr(e) {
                    let mut v = body.to_vec();
                    v[i] = Stmt::Store(*slot, e2);
                    out.push(v);
                }
            }
            Stmt::Print(e) => {
                for e2 in reduce_expr(e) {
                    let mut v = body.to_vec();
                    v[i] = Stmt::Print(e2);
                    out.push(v);
                }
            }
            Stmt::Call { target, func, arg } => {
                for e2 in reduce_expr(arg) {
                    let mut v = body.to_vec();
                    v[i] = Stmt::Call {
                        target: *target,
                        func: *func,
                        arg: e2,
                    };
                    out.push(v);
                }
            }
            Stmt::Free => {}
        }
    }
    out
}

fn reduce_expr(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Bin(_, a, b) => vec![(**a).clone(), (**b).clone()],
        Expr::Lit(v) if *v != 0 => vec![Expr::Lit(v / 2)],
        Expr::Var(_) | Expr::Load(_) | Expr::Param => vec![Expr::Lit(0)],
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// The corpus.
// ---------------------------------------------------------------------------

/// What a corpus entry asserts when replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckKind {
    /// `diff_c_vs_replay` on `c` reports no divergence.
    CAgainstReplay,
    /// `diff_py_vs_replay` on `py` reports no divergence.
    PyAgainstReplay,
    /// `diff_asm_vs_replay` on `asm` reports no divergence.
    AsmAgainstReplay,
    /// `diff_c_vs_py` on `c`/`py` reports no divergence.
    CrossLanguageOutput,
    /// A duplicated MI response frame desyncs a legacy bare-wire client
    /// on `c` but is discarded by the sequence-numbered envelope.
    DuplicateFaultRecovery,
    /// A truncated MI response frame yields a typed codec error on `c`
    /// and the re-issued command succeeds.
    TruncateFaultRecovery,
    /// An engine crash mid-session on `c` is survived transparently: the
    /// supervised tracker respawns, re-establishes state, and produces a
    /// trace identical to the fault-free run.
    ChaosCrashRecovery,
    /// An engine that dies on every incarnation exhausts the respawn
    /// budget on `c` and degrades explicitly instead of looping forever.
    RespawnStormDegraded,
    /// On a generated memory-unsafe `c` program, the static analysis
    /// covers every runtime sanitizer trap at the same
    /// `(kind, function, line)`, and at least one trap actually fires.
    StaticCoversSanitizer,
    /// On a generated memory-safe `c` program, running under the
    /// sanitizer is behaviour-neutral: identical output and exit code to
    /// the plain VM.
    SanitizerNeutralOutput,
}

/// A minimized, committed reproducer. `seed` records the generator seed
/// the program was shrunk from (reproduce with `shrink` + the predicate
/// named by `check`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// File-stem-style identifier.
    pub name: String,
    /// What this entry pins down, for humans.
    pub note: String,
    /// Generator seed the program was shrunk from.
    pub seed: u64,
    /// Assertion replayed by `tests/corpus_replay.rs`.
    pub check: CheckKind,
    /// MiniC rendering, when the check needs one.
    pub c: Option<String>,
    /// MiniPy rendering, when the check needs one.
    pub py: Option<String>,
    /// MiniAsm rendering, when the check needs one.
    pub asm: Option<String>,
}

/// The committed corpus directory (`tests/corpus/` at the repo root).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Loads every `*.json` entry in [`corpus_dir`], sorted by file name.
pub fn load_corpus() -> Result<Vec<CorpusEntry>, String> {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|r| r.ok().map(|d| d.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", p.display()))
        })
        .collect()
}

/// Writes `entry` as pretty JSON into `dir` as `<name>.json`.
pub fn write_entry(dir: &std::path::Path, entry: &CorpusEntry) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}.json", entry.name));
    let json = serde_json::to_string_pretty(entry).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| e.to_string())?;
    Ok(path)
}

fn need<'a>(src: &'a Option<String>, what: &str, entry: &CorpusEntry) -> Result<&'a str, String> {
    src.as_deref()
        .ok_or_else(|| format!("entry {} lacks its {what} source", entry.name))
}

/// Re-runs a corpus entry's assertion. `Ok(())` means the pinned
/// behaviour still holds.
pub fn run_entry(entry: &CorpusEntry) -> Result<(), String> {
    let driver = Driver::new();
    let no_divergence = |div: Vec<crate::diff::Divergence>| {
        if div.is_empty() {
            Ok(())
        } else {
            Err(div
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n"))
        }
    };
    match entry.check {
        CheckKind::CAgainstReplay => {
            no_divergence(driver.diff_c_vs_replay(entry.seed, need(&entry.c, "C", entry)?))
        }
        CheckKind::PyAgainstReplay => {
            no_divergence(driver.diff_py_vs_replay(entry.seed, need(&entry.py, "Py", entry)?))
        }
        CheckKind::AsmAgainstReplay => {
            no_divergence(driver.diff_asm_vs_replay(entry.seed, need(&entry.asm, "asm", entry)?))
        }
        CheckKind::CrossLanguageOutput => no_divergence(driver.diff_c_vs_py(
            entry.seed,
            need(&entry.c, "C", entry)?,
            need(&entry.py, "Py", entry)?,
        )),
        CheckKind::DuplicateFaultRecovery => duplicate_fault_recovery(need(&entry.c, "C", entry)?),
        CheckKind::TruncateFaultRecovery => truncate_fault_recovery(need(&entry.c, "C", entry)?),
        CheckKind::ChaosCrashRecovery => chaos_crash_recovery(need(&entry.c, "C", entry)?),
        CheckKind::RespawnStormDegraded => respawn_storm_degraded(need(&entry.c, "C", entry)?),
        CheckKind::StaticCoversSanitizer => static_covers_sanitizer(need(&entry.c, "C", entry)?),
        CheckKind::SanitizerNeutralOutput => sanitizer_neutral_output(need(&entry.c, "C", entry)?),
    }
}

/// The superset-oracle reproducer: the static findings must cover every
/// runtime trap, and at least one trap must actually fire so the entry
/// keeps exercising the sanitizer path.
fn static_covers_sanitizer(src: &str) -> Result<(), String> {
    let report = crate::sanitize::superset_oracle("corpus.c", src)?;
    if !report.holds() {
        return Err(format!(
            "runtime traps escaped the static findings: {:#?}",
            report.violations
        ));
    }
    if report.runtime_traps.is_empty() {
        return Err("no runtime traps fired; the entry no longer exercises the sanitizer".into());
    }
    Ok(())
}

/// The behaviour-neutrality reproducer: on a safe program the sanitized
/// VM must print the same output and exit with the same code as the
/// plain one (traps are observations, never behaviour changes).
fn sanitizer_neutral_output(src: &str) -> Result<(), String> {
    let program = minic::compile("corpus.c", src).map_err(|e| e.to_string())?;
    let mut plain = minic::vm::Vm::new(&program);
    let plain_exit = plain
        .run_to_completion()
        .map_err(|e| format!("plain run: {e}"))?;
    let mut sanitized = minic::vm::Vm::new(&program);
    sanitized.set_sanitizer(true);
    let sanitized_exit = loop {
        match sanitized.step() {
            Ok(minic::Event::Exited(code)) => break code,
            Ok(_) => {}
            Err(e) => return Err(format!("sanitized run faulted: {e}")),
        }
    };
    if plain.output() != sanitized.output() || plain_exit != sanitized_exit {
        return Err(format!(
            "sanitizer changed behaviour:\n\
             plain:     exit {plain_exit}, output {:?}\n\
             sanitized: exit {sanitized_exit}, output {:?}",
            plain.output(),
            sanitized.output(),
        ));
    }
    Ok(())
}

/// Supervision for corpus chaos replays: generous deadline (crashes do
/// not hang), tiny backoff, a small respawn budget.
fn corpus_supervision() -> Supervision {
    Supervision {
        deadline: Some(Duration::from_secs(10)),
        ping_deadline: Duration::from_millis(200),
        max_retries: 1,
        max_respawns: 2,
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_millis(2),
        jitter_seed: 0xc0fe_efac_e5ca_1e01,
    }
}

/// The crash-recovery reproducer: the engine dies at a fixed port call
/// and the supervised session must still produce the fault-free trace.
fn chaos_crash_recovery(src: &str) -> Result<(), String> {
    let driver = Driver::new();
    let mut reference =
        MiTracker::load_c("corpus.c", src).map_err(|e| format!("reference load: {e}"))?;
    let want = driver
        .step_trace(&mut reference)
        .map_err(|e| format!("reference run: {e}"))?;
    reference.terminate();

    let reg = obs::Registry::new();
    let state = ChaosState::new();
    let mut chaos = MiTracker::load_spec(
        ProgramSpec::new("corpus.c", src),
        reg.clone(),
        corpus_supervision(),
        Some(chaos_wrapper(
            ChaosPlan {
                at_call: 4,
                fault: ChaosFault::Crash,
            },
            Arc::clone(&state),
            reg.clone(),
        )),
    )
    .map_err(|e| format!("chaos load: {e}"))?;
    let got = driver
        .step_trace(&mut chaos)
        .map_err(|e| format!("chaos run: {e}"))?;
    chaos.terminate();
    if !state.fired() {
        return Err("crash never fired; scenario too short for call 4".into());
    }
    if got != want {
        return Err(format!(
            "trace after recovery differs from the fault-free run:\n\
             reference: {} steps, output {:?}, exit {:?}\n\
             chaos:     {} steps, output {:?}, exit {:?}",
            want.steps.len(),
            want.output,
            want.exit,
            got.steps.len(),
            got.output,
            got.exit,
        ));
    }
    let snap = reg.snapshot();
    if snap.counter("mi.respawns") < 1 {
        return Err("recovery happened without counting mi.respawns".into());
    }
    Ok(())
}

/// The respawn-storm reproducer: every incarnation is dead on arrival, so
/// the session must exhaust its budget and degrade with a typed error.
fn respawn_storm_degraded(src: &str) -> Result<(), String> {
    let reg = obs::Registry::new();
    let cfg = corpus_supervision();
    let budget = cfg.max_respawns;
    let mut t = MiTracker::load_spec(
        ProgramSpec::new("corpus.c", src),
        reg.clone(),
        cfg,
        Some(dead_wrapper()),
    )
    .map_err(|e| format!("load: {e}"))?;
    match t.start() {
        Err(TrackerError::SessionDegraded(_)) => {}
        other => return Err(format!("expected SessionDegraded, got {other:?}")),
    }
    if t.respawns() != budget {
        return Err(format!(
            "expected exactly {budget} respawn attempts, saw {}",
            t.respawns()
        ));
    }
    if reg.snapshot().counter("mi.respawns") != u64::from(budget) {
        return Err("mi.respawns does not match the attempts made".into());
    }
    t.terminate();
    Ok(())
}

fn spawn_minic_engine(
    src: &str,
    endpoint: ChannelTransport,
) -> Result<std::thread::JoinHandle<()>, String> {
    let program = minic::compile("corpus.c", src).map_err(|e| e.to_string())?;
    Ok(std::thread::spawn(move || {
        let _ = Server::new(MinicEngine::new(&program), endpoint).serve();
    }))
}

/// The duplicated-frame reproducer: the sequence-numbered envelope
/// client discards the stale frame, so the duplicate is invisible.
fn duplicate_fault_recovery(src: &str) -> Result<(), String> {
    let reg = obs::Registry::new();
    let (a, b) = duplex();
    let handle = spawn_minic_engine(src, b)?;
    let mut client = Client::with_registry(
        FaultTransport::single(a, 1, FaultKind::Duplicate, reg.clone()),
        reg.clone(),
    );
    client.call(Command::Start).map_err(|e| e.to_string())?;
    match client.call(Command::GetExitCode) {
        Ok(Response::ExitCode(None)) => {}
        other => {
            return Err(format!(
                "enveloped client should see the real answer, got {other:?}"
            ))
        }
    }
    let _ = client.call(Command::Terminate);
    handle.join().map_err(|_| "engine thread panicked")?;
    if reg.snapshot().counter("mi.client.stale_frames") != 1 {
        return Err("stale-frame discard not counted".into());
    }
    Ok(())
}

/// The truncated-frame reproducer: typed codec error, then recovery.
fn truncate_fault_recovery(src: &str) -> Result<(), String> {
    let reg = obs::Registry::new();
    let (a, b) = duplex();
    let handle = spawn_minic_engine(src, b)?;
    let mut client = Client::new(FaultTransport::single(
        a,
        2,
        FaultKind::Truncate,
        reg.clone(),
    ));
    client.call(Command::Start).map_err(|e| e.to_string())?;
    match client.call(Command::GetState) {
        Err(MiError::Codec(_)) => {}
        other => return Err(format!("expected a typed codec error, got {other:?}")),
    }
    match client.call(Command::GetState) {
        Ok(Response::State(_)) => {}
        other => return Err(format!("re-issue after the fault failed: {other:?}")),
    }
    let _ = client.call(Command::Terminate);
    handle.join().map_err(|_| "engine thread panicked")?;
    if reg
        .snapshot()
        .counter("conformance.fault.injected.truncate")
        != 1
    {
        return Err("fault injection not counted".into());
    }
    Ok(())
}

/// Shrinks the generator program for `seed` under `fails` and packages
/// the result as a corpus entry carrying the renderings `check` needs.
pub fn shrink_to_entry(
    seed: u64,
    name: &str,
    note: &str,
    check: CheckKind,
    fails: &mut dyn FnMut(&Program) -> bool,
) -> CorpusEntry {
    let shrunk = shrink(&gen::gen_program(seed), fails);
    let needs_c = matches!(
        check,
        CheckKind::CAgainstReplay
            | CheckKind::CrossLanguageOutput
            | CheckKind::DuplicateFaultRecovery
            | CheckKind::TruncateFaultRecovery
            | CheckKind::ChaosCrashRecovery
            | CheckKind::RespawnStormDegraded
    );
    let needs_py = matches!(
        check,
        CheckKind::PyAgainstReplay | CheckKind::CrossLanguageOutput
    );
    CorpusEntry {
        name: name.to_owned(),
        note: note.to_owned(),
        seed,
        check,
        c: needs_c.then(|| gen::render_c(&shrunk)),
        py: needs_py.then(|| gen::render_py(&shrunk)),
        asm: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_reaches_a_small_fixpoint() {
        // Predicate: the program still prints something. The minimum is a
        // single Print statement (plus f0, which gen always emits).
        let program = gen::gen_program(3);
        let has_print = |p: &Program| {
            fn any_print(body: &[Stmt]) -> bool {
                body.iter().any(|s| match s {
                    Stmt::Print(_) => true,
                    Stmt::If(_, a, b) => any_print(a) || any_print(b),
                    Stmt::Loop { body, .. } => any_print(body),
                    _ => false,
                })
            }
            any_print(&p.body)
        };
        let shrunk = shrink(&program, &mut |p| has_print(p));
        assert!(has_print(&shrunk));
        assert!(size(&shrunk) < size(&program));
        // The fixpoint is genuinely minimal for this predicate: exactly
        // one statement, a print of a leaf expression.
        assert_eq!(stmts_size(&shrunk.body), 1);
        assert!(matches!(&shrunk.body[..], [Stmt::Print(Expr::Lit(0))]));
        // Shrunk programs still render and run.
        let src = gen::render_c(&shrunk);
        let compiled = minic::compile("shrunk.c", &src).expect("renders valid C");
        minic::vm::Vm::new(&compiled)
            .run_to_completion()
            .expect("runs");
    }

    #[test]
    fn shrink_on_a_passing_program_is_identity() {
        let program = gen::gen_program(5);
        let same = shrink(&program, &mut |_| false);
        assert_eq!(same, program);
    }

    #[test]
    fn corpus_entries_roundtrip_json() {
        let entry = CorpusEntry {
            name: "x".into(),
            note: "n".into(),
            seed: 9,
            check: CheckKind::CAgainstReplay,
            c: Some("int main() { return 0; }".into()),
            py: None,
            asm: None,
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: CorpusEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(entry, back);
    }
}
