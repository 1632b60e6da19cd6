//! Observation-preserving bytecode optimizer.
//!
//! Rewrites a compiled [`Program`] into a faster one that is
//! *indistinguishable through the debugging surface*: the same `Line`
//! events in the same order, the same `Call`/`Return`/`Store`/`Output`
//! events, the same sanitizer traps, the same inspectable memory at every
//! pause, and the same breakable-line set. PR 2's conformance lockstep
//! oracle checks exactly this contract end to end; this module maintains
//! it by construction with two rules:
//!
//! - **Barriers.** Every op the tracker can observe — `Line` markers
//!   (step/breakpoint hooks), store-like ops (watchpoint hooks), calls,
//!   returns, intrinsics ([`Op::is_observation_barrier`]) — stays exactly
//!   where it is, and no value is folded across one. Rewrites happen only
//!   inside barrier-free windows of pure stack ops, where no pause can
//!   ever observe the intermediate stack.
//! - **Translation validation.** The [`verify`] checker
//!   runs on the input and after every pass; a pass that breaks the
//!   stack/tag/structure invariants aborts optimization with an error
//!   instead of producing a program the VM could panic on.
//!
//! Passes, in order (all index-stable until the final compaction — they
//! only rewrite ops in place, turning dead ones into `Nop`):
//!
//! 1. `const_fold` — constant folding and propagation through the operand
//!    stack, with branch simplification on constant conditions. Division
//!    and remainder by a constant zero are never folded: the runtime
//!    error is an observable outcome.
//! 2. `dce` — ops in blocks unreachable from the function entry become
//!    `Nop`s, *except* `Line` markers: the breakable-line set the tracker
//!    advertises is computed statically and must not change.
//! 3. `copy_prop` — an adjacent re-load of the local just loaded becomes
//!    a `Dup` of the copy already on the stack (the sanitizer dedups
//!    per-line traps and the shadow state is idempotent under the
//!    repeated read, so eliding it is invisible), and push-then-pop
//!    shuffles annihilate.
//! 4. `fuse` — superinstruction peephole: `LocalAddr`+`Load` →
//!    [`Op::LoadLocal`], `PushI`+`IArith` → [`Op::IArithImm`],
//!    `PushI`+`ICmp` → [`Op::ICmpImm`]. A pair is fused only when no jump
//!    lands between its two halves; the fused op takes the second slot so
//!    jumps to the pair's start still execute it.
//! 5. `compact` — `Nop`s are deleted and every jump target and function
//!    entry is remapped (targets that pointed at a deleted op move to the
//!    next surviving one, which is where fall-through would have gone).

use crate::cfg;
use crate::verify;
use minic::ast::BinOp;
use minic::bytecode::{MemTy, Op, Program};
use std::collections::BTreeSet;

/// What the optimizer did, for reports and benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Requested optimization level.
    pub level: u8,
    /// Op count before optimization.
    pub ops_before: usize,
    /// Op count after compaction.
    pub ops_after: usize,
    /// Constants folded (consumer ops rewritten to pushes).
    pub folded: usize,
    /// Conditional branches turned unconditional or deleted.
    pub branches: usize,
    /// Ops deleted as unreachable.
    pub unreachable: usize,
    /// Redundant loads forwarded and push/pop pairs annihilated.
    pub copies: usize,
    /// Op pairs fused into superinstructions.
    pub fused: usize,
}

/// Optimizes `program` at `level` (0 = identity). Verifies the input and
/// re-verifies after every pass; any verification failure aborts with a
/// report of the findings.
///
/// # Errors
///
/// Returns `Err` when the input program does not verify, or when a pass
/// produces a program that does not (translation validation).
pub fn optimize(program: &Program, level: u8) -> Result<(Program, OptReport), String> {
    let mut report = OptReport {
        level,
        ops_before: program.code.len(),
        ops_after: program.code.len(),
        ..OptReport::default()
    };
    if level == 0 {
        return Ok((program.clone(), report));
    }
    verify::check(program).map_err(|e| format!("input failed verification:\n{e}"))?;
    let mut p = program.clone();

    const_fold(&mut p, &mut report);
    validate(&p, "const_fold")?;
    dce(&mut p, &mut report);
    validate(&p, "dce")?;
    copy_prop(&mut p, &mut report);
    validate(&p, "copy_prop")?;
    fuse(&mut p, &mut report);
    validate(&p, "fuse")?;
    compact(&mut p);
    validate(&p, "compact")?;

    report.ops_after = p.code.len();
    Ok((p, report))
}

fn validate(p: &Program, pass: &str) -> Result<(), String> {
    verify::check(p).map_err(|e| format!("verification failed after `{pass}`:\n{e}"))
}

/// One abstract operand-stack entry during folding: the producing op's
/// index and its constant integer value, when both are known and the
/// producer may be deleted if its value is consumed by a fold.
type Sim = Vec<Option<(usize, i64)>>;

fn const_fold(p: &mut Program, report: &mut OptReport) {
    for c in cfg::build_cfgs(p) {
        for b in &c.blocks {
            let mut sim: Sim = Vec::new();
            for at in b.start..b.end {
                fold_op(p, at, &mut sim, report);
            }
        }
    }
}

/// Pops one sim entry; entries inherited from predecessors (below the
/// block-local stack) are unknown.
fn spop(sim: &mut Sim) -> Option<(usize, i64)> {
    sim.pop().flatten()
}

fn fold_op(p: &mut Program, at: usize, sim: &mut Sim, report: &mut OptReport) {
    let op = p.code[at];
    match op {
        Op::PushI(v) => sim.push(Some((at, v))),
        Op::IArith(b) => {
            let rhs = spop(sim);
            let lhs = spop(sim);
            match (lhs, rhs) {
                (Some((ja, va)), Some((jb, vb))) => {
                    if let Some(r) = eval_iarith(b, va, vb) {
                        p.code[ja] = Op::Nop;
                        p.code[jb] = Op::Nop;
                        p.code[at] = Op::PushI(r);
                        report.folded += 1;
                        sim.push(Some((at, r)));
                    } else {
                        sim.push(None);
                    }
                }
                _ => sim.push(None),
            }
        }
        Op::ICmp(b) => {
            let rhs = spop(sim);
            let lhs = spop(sim);
            match (lhs, rhs) {
                (Some((ja, va)), Some((jb, vb))) => {
                    let r = eval_cmp(b, va, vb) as i64;
                    p.code[ja] = Op::Nop;
                    p.code[jb] = Op::Nop;
                    p.code[at] = Op::PushI(r);
                    report.folded += 1;
                    sim.push(Some((at, r)));
                }
                _ => sim.push(None),
            }
        }
        Op::Neg(false) => fold_unary(p, at, sim, report, |v| v.wrapping_neg()),
        Op::Not => fold_unary(p, at, sim, report, |v| (v == 0) as i64),
        Op::BitNot => fold_unary(p, at, sim, report, |v| !v),
        Op::TruncI(mt) => fold_unary(p, at, sim, report, move |v| match mt {
            MemTy::I8 => v as i8 as i64,
            MemTy::I32 => v as i32 as i64,
            _ => v,
        }),
        Op::JumpIfZero(t) | Op::JumpIfNotZero(t) => {
            if let Some((j, v)) = spop(sim) {
                let taken = (v == 0) == matches!(op, Op::JumpIfZero(_));
                p.code[j] = Op::Nop;
                p.code[at] = if taken { Op::Jump(t) } else { Op::Nop };
                report.branches += 1;
            }
        }
        Op::Dup => {
            // A folded copy must not delete the `Dup` that produced it
            // (the sibling copy still needs the original): both copies
            // are opaque to folding.
            sim.pop();
            sim.push(None);
            sim.push(None);
        }
        _ => {
            // Generic stack bookkeeping from the shared table; barriers
            // additionally forget every constant so no value is ever
            // folded across an observation point.
            let fx = op.stack_effect_with(&p.functions);
            for _ in &fx.pops {
                sim.pop();
            }
            for _ in &fx.pushes {
                sim.push(None);
            }
            if op.is_observation_barrier() {
                for e in sim.iter_mut() {
                    *e = None;
                }
            }
        }
    }
}

fn fold_unary(
    p: &mut Program,
    at: usize,
    sim: &mut Sim,
    report: &mut OptReport,
    f: impl Fn(i64) -> i64,
) {
    match spop(sim) {
        Some((j, v)) => {
            let r = f(v);
            p.code[j] = Op::Nop;
            p.code[at] = Op::PushI(r);
            report.folded += 1;
            sim.push(Some((at, r)));
        }
        None => sim.push(None),
    }
}

/// VM-identical integer arithmetic on constants; `None` when folding
/// would erase an observable runtime error (division/remainder by zero).
fn eval_iarith(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div if b != 0 => a.wrapping_div(b),
        BinOp::Rem if b != 0 => a.wrapping_rem(b),
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        _ => return None,
    })
}

fn eval_cmp(op: BinOp, a: i64, b: i64) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => unreachable!("verified comparison"),
    }
}

/// Unreachable-op elimination. `Line` markers survive: the breakable-line
/// set is part of the observable surface even when the line never runs.
fn dce(p: &mut Program, report: &mut OptReport) {
    for c in cfg::build_cfgs(p) {
        let reachable: BTreeSet<usize> = c.reverse_post_order().into_iter().collect();
        for (id, b) in c.blocks.iter().enumerate() {
            if reachable.contains(&id) {
                continue;
            }
            for at in b.start..b.end {
                if !matches!(p.code[at], Op::Line(_) | Op::Nop) {
                    p.code[at] = Op::Nop;
                    report.unreachable += 1;
                }
            }
        }
    }
}

/// Every op index some jump targets, plus every function entry: rewrites
/// may not change what executes from these indices on.
fn leaders(p: &Program) -> BTreeSet<usize> {
    let mut l: BTreeSet<usize> = p.code.iter().filter_map(|op| op.jump_target()).collect();
    l.extend(p.functions.iter().map(|f| f.entry));
    l
}

fn copy_prop(p: &mut Program, report: &mut OptReport) {
    let leaders = leaders(p);
    // Adjacent redundant load: LocalAddr(o) Load(mt) LocalAddr(o) Load(mt)
    // with no jump into the window → forward the first copy with a Dup.
    let mut at = 0;
    while at + 4 <= p.code.len() {
        let w = &p.code[at..at + 4];
        let window_sealed = (at + 1..at + 4).all(|i| !leaders.contains(&i));
        if window_sealed
            && matches!((w[0], w[1], w[2], w[3]),
                (Op::LocalAddr(a), Op::Load(m), Op::LocalAddr(b), Op::Load(n))
                    if a == b && m == n)
        {
            p.code[at + 2] = Op::Nop;
            p.code[at + 3] = Op::Dup;
            report.copies += 1;
            at += 4;
            continue;
        }
        at += 1;
    }
    // Push-then-pop shuffles cancel.
    for at in 0..p.code.len().saturating_sub(1) {
        if leaders.contains(&(at + 1)) {
            continue;
        }
        let pure_push = matches!(
            p.code[at],
            Op::PushI(_) | Op::PushF(_) | Op::PushP(_) | Op::LocalAddr(_) | Op::Dup
        );
        if pure_push && p.code[at + 1] == Op::Pop {
            p.code[at] = Op::Nop;
            p.code[at + 1] = Op::Nop;
            report.copies += 1;
        }
    }
}

fn fuse(p: &mut Program, report: &mut OptReport) {
    let leaders = leaders(p);
    let mut at = 0;
    while at + 2 <= p.code.len() {
        if leaders.contains(&(at + 1)) {
            at += 1;
            continue;
        }
        let fused = match (p.code[at], p.code[at + 1]) {
            (Op::LocalAddr(off), Op::Load(mt)) => Some(Op::LoadLocal(mt, off)),
            (Op::PushI(imm), Op::IArith(b)) => Some(Op::IArithImm(b, imm)),
            (Op::PushI(imm), Op::ICmp(b)) => Some(Op::ICmpImm(b, imm)),
            _ => None,
        };
        if let Some(f) = fused {
            // The fused op takes the second slot: a jump to `at` still
            // executes the (now single) op, and nothing jumps to `at+1`.
            p.code[at] = Op::Nop;
            p.code[at + 1] = f;
            report.fused += 1;
            at += 2;
        } else {
            at += 1;
        }
    }
}

/// Deletes `Nop`s, remapping jump targets and function entries. A target
/// whose op was deleted moves to the next surviving op — exactly where
/// fall-through through the deleted `Nop`s would have arrived.
fn compact(p: &mut Program) {
    let n = p.code.len();
    let mut new_idx = vec![0usize; n + 1];
    let mut survivors = 0usize;
    for (slot, op) in new_idx.iter_mut().zip(&p.code) {
        *slot = survivors;
        if *op != Op::Nop {
            survivors += 1;
        }
    }
    new_idx[n] = survivors;
    let mut new_code = Vec::with_capacity(survivors);
    for i in 0..n {
        let mut op = p.code[i];
        if op == Op::Nop {
            continue;
        }
        if let Some(t) = op.jump_target_mut() {
            *t = new_idx[*t];
        }
        new_code.push(op);
    }
    p.code = new_code;
    for f in &mut p.functions {
        f.entry = new_idx[f.entry];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::vm::{Event, Vm};

    fn compiled(src: &str) -> Program {
        minic::compile("t.c", src).expect("fixture compiles")
    }

    /// Full observable transcript of one run: every event, in order.
    fn transcript(p: &Program, store_events: bool) -> Vec<String> {
        let mut vm = Vm::new(p);
        vm.set_store_events(store_events);
        let mut out = Vec::new();
        loop {
            let ev = vm.step().expect("fixtures run clean");
            let exit = matches!(ev, Event::Exited(_));
            out.push(format!("{ev:?}"));
            if exit {
                break;
            }
        }
        out
    }

    fn assert_observation_preserved(src: &str) {
        let p0 = compiled(src);
        let (p1, report) = optimize(&p0, 1).expect("optimizes clean");
        assert_eq!(
            transcript(&p0, true),
            transcript(&p1, true),
            "transcripts diverge for {src} ({report:?})"
        );
        assert_eq!(
            p0.breakable_lines(),
            p1.breakable_lines(),
            "breakable lines changed for {src}"
        );
    }

    #[test]
    fn folds_constant_arithmetic() {
        let (p, report) = optimize(&compiled("int main() { return 1 + 2 * 3; }"), 1).unwrap();
        assert!(report.folded >= 2, "{report:?}");
        assert!(
            !p.code.iter().any(|op| matches!(op, Op::IArith(_))),
            "{:?}",
            p.code
        );
        assert!(p.code.contains(&Op::PushI(7)));
    }

    #[test]
    fn division_by_constant_zero_survives() {
        let src = "int main() { return 1 / 0; }";
        let (p, _) = optimize(&compiled(src), 1).unwrap();
        assert!(
            p.code
                .iter()
                .any(|op| matches!(op, Op::IArith(BinOp::Div) | Op::IArithImm(BinOp::Div, 0))),
            "runtime error folded away: {:?}",
            p.code
        );
        let mut vm = Vm::new(&p);
        let err = loop {
            match vm.step() {
                Ok(Event::Exited(_)) => panic!("must fault"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.message().contains("division"), "{err}");
    }

    #[test]
    fn simplifies_constant_branches_and_removes_unreachable() {
        let (p, report) = optimize(
            &compiled("int main() {\n  if (0) { return 1; }\n  return 2;\n}"),
            1,
        )
        .unwrap();
        assert!(report.branches >= 1, "{report:?}");
        assert!(report.unreachable >= 1, "{report:?}");
        // The dead branch's Line marker must survive for the breakpoint
        // surface.
        assert!(
            p.breakable_lines().contains(&2),
            "{:?}",
            p.breakable_lines()
        );
    }

    #[test]
    fn fuses_superinstructions() {
        let (p, report) = optimize(
            &compiled("int main() { long x = 5; long y = x + 1; return (int)y; }"),
            1,
        )
        .unwrap();
        assert!(report.fused >= 1, "{report:?}");
        assert!(
            p.code
                .iter()
                .any(|op| matches!(op, Op::LoadLocal(_, _) | Op::IArithImm(_, _))),
            "{:?}",
            p.code
        );
    }

    #[test]
    fn level_zero_is_identity() {
        let p0 = compiled("int main() { return 1 + 2; }");
        let (p1, report) = optimize(&p0, 0).unwrap();
        assert_eq!(p0.code, p1.code);
        assert_eq!(report.folded, 0);
    }

    #[test]
    fn compaction_shrinks_code() {
        let p0 = compiled("int main() { return 1 + 2 * 3; }");
        let (p1, report) = optimize(&p0, 1).unwrap();
        assert!(p1.code.len() < p0.code.len());
        assert_eq!(report.ops_after, p1.code.len());
        assert!(!p1.code.contains(&Op::Nop));
    }

    #[test]
    fn transcripts_identical_across_programs() {
        let sources = [
            "int main() { return 1 + 2 * 3; }",
            "int main() { long i = 0; long acc = 0; while (i < 10) { acc = acc + i * 2; i = i + 1; } return (int)acc; }",
            "long fib(long n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } int main() { return (int)fib(10); }",
            "int main() { if (0) { return 1; } if (1) { return 2; } return 3; }",
            "int main() { long* p = malloc(24); long i = 0; while (i < 3) { p[i] = i * i; i = i + 1; } long s = p[0] + p[1] + p[2]; free(p); return (int)s; }",
            "int main() { long x = 7; long y = x + x; printf(\"%d\\n\", (int)y); return 0; }",
            "double scale(double v) { return v * 2.0; } int main() { double d = scale(1.5); return (int)d; }",
            "int g = 3; int main() { g = g + 1; return g; }",
        ];
        for src in sources {
            assert_observation_preserved(src);
        }
    }

    #[test]
    fn sanitizer_traps_preserved_under_optimization() {
        // Uninit read + dead store: the shadow-state hooks ride on loads
        // and stores, which the optimizer must keep.
        let src =
            "int main() {\n  long x;\n  long y = x + 1;\n  y = 2;\n  y = 3;\n  return (int)y;\n}";
        let p0 = compiled(src);
        let (p1, _) = optimize(&p0, 1).unwrap();
        let traps = |p: &Program| {
            let mut vm = Vm::new(p);
            vm.set_sanitizer(true);
            let mut traps = Vec::new();
            loop {
                match vm.step().expect("runs clean") {
                    Event::SanitizerTrap(d) => traps.push(format!("{:?}@{}", d.kind, d.span)),
                    Event::Exited(_) => break,
                    _ => {}
                }
            }
            traps
        };
        assert_eq!(traps(&p0), traps(&p1), "sanitizer transcript diverged");
    }
}
