//! Static dataflow analysis and memory-safety checking for MiniC bytecode.
//!
//! The crate layers a classic dataflow engine over compiled
//! [`minic::Program`]s:
//!
//! 1. [`cfg`](mod@cfg) builds one control-flow graph per function, with per-op source
//!    lines recovered from the `Line` markers;
//! 2. [`interp`] runs a small abstract interpreter over the operand stack to
//!    resolve which scalar local slot every `Load`/`Store` touches, to track
//!    heap-pointer provenance per allocation site, and to find which slot
//!    addresses escape;
//! 3. [`dataflow`] provides the bit-set worklist solvers — dominators,
//!    reaching definitions, liveness, and a may-overwrite analysis — that
//!    [`analyze`] composes into the memory-safety checker.
//!
//! The checker reports six [`DiagnosticKind`]s: uninitialized reads (the
//! "uninit" pseudo-definition reaches a read), use-after-free, double-free,
//! out-of-bounds accesses at constant offsets, dead stores (a store that is
//! overwritten before any read on some path, or never read at all), and
//! leaked heap blocks. All findings are *may* findings: the MiniC VM's
//! sanitizer mode turns the subset that actually happens at run time into
//! precise [`state::PauseReason::Sanitizer`] traps, and the conformance
//! oracle checks that the static answer is a superset of the runtime traps
//! on every generated program.
//!
//! # Examples
//!
//! ```
//! let program = minic::compile(
//!     "t.c",
//!     "int main() { long* p = malloc(16); free(p); free(p); return 0; }",
//! )
//! .unwrap();
//! let diags = analysis::analyze(&program);
//! assert!(diags.iter().any(|d| d.kind == analysis::DiagnosticKind::DoubleFree));
//! ```

pub mod cfg;
pub mod dataflow;
pub mod interp;
pub mod opt;
pub mod verify;

pub use state::{Diagnostic, DiagnosticKind, Severity};

use crate::cfg::FuncCfg;
use crate::dataflow::BitSet;
use crate::interp::{AccessKind, FuncSummary};
use minic::Program;
use std::collections::BTreeSet;
use std::time::Instant;

/// Runs every analysis pass over `program` and returns the findings,
/// sorted by (line, kind, function) and deduplicated per defect site.
///
/// Timing of the individual passes is recorded into the global
/// [`obs::Registry`] as `analysis.pass_ns.*` histograms; use
/// [`analyze_with_registry`] to direct them elsewhere.
pub fn analyze(program: &Program) -> Vec<Diagnostic> {
    analyze_with_registry(program, &obs::Registry::global())
}

/// [`analyze`] with an explicit metrics registry.
pub fn analyze_with_registry(program: &Program, registry: &obs::Registry) -> Vec<Diagnostic> {
    let t = Instant::now();
    let cfgs = cfg::build_cfgs(program);
    registry.record_duration("analysis.pass_ns.cfg", t.elapsed());

    let t = Instant::now();
    let summaries: Vec<FuncSummary> = cfgs.iter().map(|c| interp::interpret(program, c)).collect();
    registry.record_duration("analysis.pass_ns.interp", t.elapsed());

    let t = Instant::now();
    for c in &cfgs {
        let idom = dataflow::dominators(c);
        // The dominator tree doubles as a CFG sanity check: every reachable
        // block must be dominated by the entry.
        debug_assert!(c
            .reverse_post_order()
            .iter()
            .all(|&b| dataflow::dominates(&idom, 0, b)));
    }
    registry.record_duration("analysis.pass_ns.dominators", t.elapsed());

    let mut diags: Vec<Diagnostic> = Vec::new();
    for s in &summaries {
        diags.extend(s.diagnostics.iter().cloned());
    }

    let t = Instant::now();
    for (c, s) in cfgs.iter().zip(&summaries) {
        check_uninit_reads(c, s, &mut diags);
    }
    registry.record_duration("analysis.pass_ns.reaching", t.elapsed());

    let t = Instant::now();
    for (c, s) in cfgs.iter().zip(&summaries) {
        check_dead_stores(c, s, &mut diags);
    }
    registry.record_duration("analysis.pass_ns.liveness", t.elapsed());

    // Stable order and one finding per defect site.
    diags.sort_by(|a, b| {
        (a.span, a.kind, &a.function, &a.message).cmp(&(b.span, b.kind, &b.function, &b.message))
    });
    let mut seen = BTreeSet::new();
    diags.retain(|d| seen.insert((d.kind, d.function.clone(), d.span)));
    diags
}

/// Uninitialized-read detection: seed reaching definitions with one
/// "uninitialized" pseudo-definition per non-parameter scalar slot; a read
/// the pseudo-def still reaches may observe the slot before any store.
fn check_uninit_reads(cfg: &FuncCfg, summary: &FuncSummary, diags: &mut Vec<Diagnostic>) {
    if summary.bailed || summary.slots.is_empty() {
        return;
    }
    let nslots = summary.slots.len();

    // Definition universe: every store op, plus one pseudo-def per slot.
    let real_defs: Vec<(usize, usize)> = summary
        .accesses
        .iter()
        .filter(|(_, (_, k))| matches!(k, AccessKind::Write | AccessKind::ReadWrite))
        .map(|(&op, &(slot, _))| (op, slot))
        .collect();
    let ndefs = real_defs.len() + nslots;
    let pseudo = |slot: usize| real_defs.len() + slot;
    let mut defs_of_slot: Vec<Vec<usize>> = vec![Vec::new(); nslots];
    for (id, &(_, slot)) in real_defs.iter().enumerate() {
        defs_of_slot[slot].push(id);
    }
    let def_id_of_op: std::collections::BTreeMap<usize, usize> = real_defs
        .iter()
        .enumerate()
        .map(|(id, &(op, _))| (op, id))
        .collect();

    // Per-block gen/kill.
    let mut gen = vec![BitSet::empty(ndefs); cfg.len()];
    let mut kill = vec![BitSet::empty(ndefs); cfg.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        for op in block.start..block.end {
            if let Some(&id) = def_id_of_op.get(&op) {
                let slot = real_defs[id].1;
                for &d in &defs_of_slot[slot] {
                    kill[b].insert(d);
                    gen[b].remove(d);
                }
                kill[b].insert(pseudo(slot));
                gen[b].insert(id);
            }
        }
    }

    // Entry: all non-parameter slots start uninitialized.
    let mut entry = BitSet::empty(ndefs);
    for (i, s) in summary.slots.iter().enumerate() {
        if !s.is_param {
            entry.insert(pseudo(i));
        }
    }

    let ins = dataflow::reaching_definitions(cfg, ndefs, &gen, &kill, &entry);

    // Walk each block with its in-set, flagging reads the pseudo-def reaches.
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut cur = ins[b].clone();
        for op in block.start..block.end {
            if let Some(&(slot, kind)) = summary.accesses.get(&op) {
                let watched = !summary.escaped.contains(&slot) && !summary.slots[slot].is_param;
                if matches!(kind, AccessKind::Read | AccessKind::ReadWrite)
                    && watched
                    && cur.contains(pseudo(slot))
                {
                    let every_path = defs_of_slot[slot].iter().all(|&d| !cur.contains(d));
                    diags.push(Diagnostic::new(
                        DiagnosticKind::UninitRead,
                        cfg.line_of(op),
                        cfg.name.clone(),
                        format!(
                            "`{}` is read before initialization{}",
                            summary.slots[slot].name,
                            if every_path { "" } else { " on some path" }
                        ),
                    ));
                }
                if matches!(kind, AccessKind::Write | AccessKind::ReadWrite) {
                    for &d in &defs_of_slot[slot] {
                        cur.remove(d);
                    }
                    cur.remove(pseudo(slot));
                    if let Some(&id) = def_id_of_op.get(&op) {
                        cur.insert(id);
                    }
                }
            }
        }
    }
}

/// Dead-store detection: a store is dead when the slot is not live
/// afterwards (no path reads it again) or when some path overwrites it
/// before reading (the case the runtime sanitizer traps on).
fn check_dead_stores(cfg: &FuncCfg, summary: &FuncSummary, diags: &mut Vec<Diagnostic>) {
    if summary.bailed || summary.slots.is_empty() {
        return;
    }
    let n = summary.slots.len();

    let mut use_ = vec![BitSet::empty(n); cfg.len()];
    let mut def = vec![BitSet::empty(n); cfg.len()];
    let mut first_read = vec![BitSet::empty(n); cfg.len()];
    let mut first_write = vec![BitSet::empty(n); cfg.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut touched = BitSet::empty(n);
        for op in block.start..block.end {
            if let Some(&(slot, kind)) = summary.accesses.get(&op) {
                if !touched.contains(slot) {
                    touched.insert(slot);
                    match kind {
                        AccessKind::Read | AccessKind::ReadWrite => {
                            use_[b].insert(slot);
                            first_read[b].insert(slot);
                        }
                        AccessKind::Write => {
                            def[b].insert(slot);
                            first_write[b].insert(slot);
                        }
                    }
                }
            }
        }
    }

    let live_out = dataflow::liveness(cfg, n, &use_, &def);
    let ow_out = dataflow::may_overwrite(cfg, n, &first_write, &first_read);

    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut live = live_out[b].clone();
        let mut ow = ow_out[b].clone();
        for op in (block.start..block.end).rev() {
            let Some(&(slot, kind)) = summary.accesses.get(&op) else {
                continue;
            };
            // `live`/`ow` currently describe the point *after* this op.
            if matches!(kind, AccessKind::Write | AccessKind::ReadWrite)
                && !summary.escaped.contains(&slot)
            {
                let name = &summary.slots[slot].name;
                if ow.contains(slot) {
                    diags.push(Diagnostic::new(
                        DiagnosticKind::DeadStore,
                        cfg.line_of(op),
                        cfg.name.clone(),
                        format!("value stored to `{name}` may be overwritten before it is read"),
                    ));
                } else if !live.contains(slot) {
                    diags.push(Diagnostic::new(
                        DiagnosticKind::DeadStore,
                        cfg.line_of(op),
                        cfg.name.clone(),
                        format!("value stored to `{name}` is never read"),
                    ));
                }
            }
            // Update to the point before the op.
            match kind {
                AccessKind::Read | AccessKind::ReadWrite => {
                    live.insert(slot);
                    ow.remove(slot);
                }
                AccessKind::Write => {
                    live.remove(slot);
                    ow.insert(slot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let program = minic::compile("t.c", src).expect("fixture compiles");
        analyze(&program)
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let diags = run(
            "int main() { long x = 3; long* p = malloc(16); p[0] = x; long y = p[0]; free(p); return (int)y; }",
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn uninit_read_is_flagged_with_line() {
        let diags = run("int main() {\n  long x;\n  long y = x + 1;\n  return (int)y;\n}");
        let d = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::UninitRead)
            .expect("uninit read finding");
        assert_eq!(d.span, 3);
        assert_eq!(d.function, "main");
        assert!(d.message.contains("`x`"), "{}", d.message);
    }

    #[test]
    fn uninit_read_on_one_path_only() {
        let diags = run(
            "int main() {\n  long c = 1;\n  long x;\n  if (c) { x = 5; }\n  long y = x;\n  return (int)y;\n}",
        );
        let d = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::UninitRead)
            .expect("may-uninit finding");
        assert!(d.message.contains("some path"), "{}", d.message);
    }

    #[test]
    fn initialized_before_loop_is_clean() {
        let diags = run(
            "int main() { long i = 0; long acc = 0; while (i < 4) { acc = acc + i; i = i + 1; } return (int)acc; }",
        );
        assert!(
            !kinds(&diags).contains(&DiagnosticKind::UninitRead),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_store_overwrite_flags_first_store() {
        let diags = run("int main() {\n  long x = 1;\n  x = 2;\n  return (int)x;\n}");
        let d = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::DeadStore)
            .expect("dead store finding");
        assert_eq!(d.span, 2, "span must be the overwritten store: {diags:?}");
    }

    #[test]
    fn loop_counter_is_not_a_dead_store() {
        let diags = run("int main() { long i = 0; while (i < 3) { i = i + 1; } return 0; }");
        // The final `i = i + 1` is never read again, but every store is
        // read by the loop condition first — only the may-overwrite rule
        // must stay quiet; the never-read rule does not apply since the
        // condition reads i after each store.
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::DeadStore)
            .collect();
        assert!(dead.is_empty(), "{dead:?}");
    }

    #[test]
    fn all_six_kinds_are_reachable() {
        let sources = [
            "int main() {\n  long x;\n  return (int)x;\n}",
            "int main() { long* p = malloc(16); free(p); return (int)p[0]; }",
            "int main() { long* p = malloc(16); free(p); free(p); return 0; }",
            "int main() { long* p = malloc(16); p[2] = 1; free(p); return 0; }",
            "int main() { long x = 1; x = 2; return (int)x; }",
            "int main() { long* p = malloc(16); return 0; }",
        ];
        let expected = [
            DiagnosticKind::UninitRead,
            DiagnosticKind::UseAfterFree,
            DiagnosticKind::DoubleFree,
            DiagnosticKind::OutOfBounds,
            DiagnosticKind::DeadStore,
            DiagnosticKind::Leak,
        ];
        for (src, want) in sources.iter().zip(expected) {
            let diags = run(src);
            assert!(
                kinds(&diags).contains(&want),
                "{want:?} not found in {diags:?} for {src}"
            );
        }
    }

    #[test]
    fn diagnostics_are_sorted_and_deduped() {
        let diags = run(
            "int main() {\n  long* p = malloc(16);\n  free(p);\n  free(p);\n  free(p);\n  return 0;\n}",
        );
        let mut sorted = diags.clone();
        sorted.sort_by_key(|d| (d.span, d.kind, d.function.clone()));
        assert_eq!(diags, sorted);
        let dfs: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::DoubleFree)
            .collect();
        assert_eq!(dfs.len(), 2, "one per offending line: {diags:?}");
    }

    #[test]
    fn pass_timings_are_recorded() {
        let registry = obs::Registry::new();
        let program = minic::compile("t.c", "int main() { return 0; }").unwrap();
        let _ = analyze_with_registry(&program, &registry);
        let snap = registry.snapshot();
        for pass in ["cfg", "interp", "dominators", "reaching", "liveness"] {
            assert!(
                snap.histogram(&format!("analysis.pass_ns.{pass}"))
                    .is_some(),
                "missing histogram for pass {pass}"
            );
        }
    }
}
