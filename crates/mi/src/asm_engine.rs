//! The RISC-V debugger engine: the MI command set over the simulator.
//! The shared control core ([`crate::control`]) owns the control points,
//! the pause decisions, fuel slices, budgets and engine-agnostic
//! commands; this module reports the CPU's events to it and answers
//! inspection.
//!
//! Control points are checked *before* executing the instruction at the
//! paused pc (like a hardware debugger), function tracking keeps a shadow
//! call stack keyed by `jal ra` / `jalr zero, 0(ra)` control transfers,
//! and the pause-before-return check decodes the instruction at the pc —
//! the direct analogue of the paper's scan-for-`retq` trick, applied to
//! `ret`. Fuel counts retired instructions; the heap budget never trips
//! (the simulator has no allocator).
//!
//! Watchable things: registers by name (`a0`, `sp`, ...) and raw memory
//! ranges written `*0xADDR:LEN`. A watch whose first readable value
//! differs from the one seen when it was armed fires.

use crate::control::{self, error, Core, Func, Inferior, Mode, Phase, RunOutcome, Slice, Watch};
use crate::protocol::{Command, Response};
use crate::server::{Engine, SliceOutcome};
use miniasm::asm::AsmProgram;
use miniasm::isa::{decode, parse_reg, reg_name, Inst};
use miniasm::sim::{Control, Cpu};
use state::{
    ExitStatus, Frame, PauseReason, Prim, ProgramState, Scope, SourceLocation, Value, Variable,
};

/// What an asm watch reads.
#[derive(Debug, Clone)]
pub(crate) enum WatchKind {
    Reg(u8),
    Mem { addr: u32, len: u32 },
}

/// One shadow-stack entry.
#[derive(Debug, Clone)]
struct ShadowFrame {
    name: String,
    /// The function's entry address: what calls and tracking match on.
    entry: u32,
    call_line: u32,
}

/// The RISC-V engine (see the [module docs](self)).
#[derive(Debug)]
pub struct AsmEngine {
    cpu: Cpu,
    /// Control points keyed by label address.
    core: Core<u32, WatchKind>,
    shadow: Vec<ShadowFrame>,
    /// In-engine profiler; lives here (not in the CPU) because function
    /// identity comes from the shadow call stack.
    prof: Option<Box<obs::Profiler>>,
    /// The phase the pc's checks resume from: past the one that paused
    /// there, or all of them once the instruction is new.
    reenter: Phase,
}

/// Coarse instruction class for per-class retirement counts.
fn inst_class(inst: &Inst) -> &'static str {
    match inst {
        Inst::R { .. } | Inst::I { .. } | Inst::Lui { .. } | Inst::Auipc { .. } => "alu",
        Inst::Load { .. } => "load",
        Inst::Store { .. } => "store",
        Inst::Branch { .. } => "branch",
        Inst::Jal { .. } | Inst::Jalr { .. } => "jump",
        Inst::Ecall => "ecall",
    }
}

fn eval_watch(cpu: &Cpu, kind: &WatchKind) -> Option<String> {
    match kind {
        WatchKind::Reg(r) => Some((cpu.reg(*r) as i32).to_string()),
        WatchKind::Mem { addr, len } => cpu.read_mem(*addr, *len).map(|b| format!("{b:02x?}")),
    }
}

impl AsmEngine {
    /// Creates an engine with the program loaded, paused at the entry.
    pub fn new(program: &AsmProgram) -> Self {
        let cpu = Cpu::new(program);
        let entry_name = program.label_at(program.entry).unwrap_or("main").to_owned();
        AsmEngine {
            cpu,
            core: Core::new(),
            shadow: vec![ShadowFrame {
                name: entry_name,
                entry: program.entry,
                call_line: 0,
            }],
            prof: None,
            reenter: Phase::Done,
        }
    }

    /// Publishes `vm.miniasm.*` execution stats into `registry` after
    /// every control command: retired instructions and shadow-stack depth.
    pub fn set_registry(&mut self, registry: obs::Registry) {
        self.core.registry = Some(registry);
    }

    /// Read access to the CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    fn location(&self, line: u32) -> SourceLocation {
        SourceLocation::new(self.cpu.program().file.clone(), line)
    }

    /// The pause due *before* executing the instruction at the pc, if
    /// any, checked from `reenter`. The pc is a line event only on its
    /// line's first instruction word (so multi-word pseudo-instructions
    /// break and step once), a label reached is a frame entry when the
    /// call just landed there (the shadow top is its frame), and a
    /// tracked function about to return is found by decoding `ret` at the
    /// pc (the paper's retq scan).
    fn check_before(&mut self, slice: &Slice) -> Option<PauseReason> {
        let (pc, program) = (self.cpu.pc(), self.cpu.program());
        let line = program.line_at(pc);
        let line_start = line.is_some() && (pc < 4 || program.line_at(pc - 4) != line);
        let top = self.shadow.last().expect("shadow stack never empty");
        let depth = (self.shadow.len() - 1) as u32;
        let a0 = self.cpu.reg(10) as i32;
        let value = move || Some(a0.to_string());
        let returning = || self.cpu.read_word(pc).and_then(decode) == Some(RET);
        let line = line.unwrap_or(0);
        let call = (Func(pc, depth, top.name.as_str()), line);
        let at_line = line_start.then_some((line, self.shadow.len()));
        let ret = (Func(top.entry, depth, top.name.as_str()), &value as _);
        let (file, points, from) = (&program.file, &mut self.core.points, self.reenter);
        let (phase, reason) = points
            .on_call(file, call, top.entry != pc, from)
            .or_else(|| points.on_line(slice, file, false, at_line, from, |_| None))
            .or_else(|| {
                (!points.tracked.is_empty() && returning()).then(|| points.on_return(ret, from))?
            })?;
        self.reenter = phase.next();
        Some(reason)
    }

    /// Builds the frame chain from the shadow stack; the innermost frame
    /// carries the register file as its variables.
    fn build_state(&self) -> ProgramState {
        let mut result: Option<Frame> = None;
        let n = self.shadow.len();
        for (depth, sf) in self.shadow.iter().enumerate() {
            let line = if depth + 1 == n {
                self.cpu.current_line()
            } else {
                // Parent frames show their call site.
                self.shadow
                    .get(depth + 1)
                    .map(|child| child.call_line)
                    .unwrap_or(0)
            };
            let mut frame = Frame::new(sf.name.clone(), depth as u32, self.location(line));
            if depth + 1 == n {
                for var in self.cpu.register_variables() {
                    frame.insert_variable(var);
                }
            }
            if let Some(parent) = result.take() {
                frame.set_parent(parent);
            }
            result = Some(frame);
        }
        ProgramState::new(
            result.expect("shadow stack never empty"),
            self.data_globals(),
            self.core.last_reason.clone(),
        )
    }

    /// Data-segment labels as global variables (word values).
    fn data_globals(&self) -> Vec<Variable> {
        let p = self.cpu.program();
        p.labels
            .iter()
            .filter(|(_, a)| *a >= p.data_base)
            .map(|(name, addr)| self.data_word(name.clone(), *addr))
            .collect()
    }

    /// The data label `name` at `addr`, as a word-valued global.
    fn data_word(&self, name: String, addr: u32) -> Variable {
        let word = self.cpu.read_word(addr).unwrap_or(0);
        Variable::new(
            name,
            Scope::Global,
            Value::primitive(Prim::Int(word as i32 as i64), "word")
                .with_location(state::Location::Global)
                .with_address(addr as u64),
        )
    }
}

/// `ret`, i.e. `jalr zero, 0(ra)`.
const RET: Inst = Inst::Jalr {
    rd: 0,
    rs1: 1,
    imm: 0,
};

impl Inferior for AsmEngine {
    type Func = u32;
    type WatchSpec = WatchKind;
    const EXEC_SPAN: &'static str = "vm.miniasm.exec";

    fn core(&mut self) -> &mut Core<u32, WatchKind> {
        &mut self.core
    }

    /// The fuel check sits before the pre-execution checks, so each
    /// paused pc is inspected exactly once whether or not a yield lands
    /// on it — slicing stays invisible.
    fn run(&mut self, slice: &mut Slice, fuel: Option<u64>) -> RunOutcome {
        if let Mode::Start = slice.mode {
            // Paused before the entry instruction; nothing executes, and
            // the entry pc is not checked.
            self.reenter = Phase::Done;
            return RunOutcome::Paused(PauseReason::Started);
        }
        let mut spent = 0u64;
        loop {
            if fuel.is_some_and(|f| spent >= f) {
                return RunOutcome::OutOfFuel;
            }
            if let Some(reason) = self.check_before(slice) {
                return RunOutcome::Paused(reason);
            }
            self.reenter = Phase::FuncBreak;

            let info = match self.cpu.step() {
                Ok(i) => i,
                Err(e) => return self.core.crash(e.to_string()),
            };
            spent += 1;
            if let Some(out) = self.core.budget.check(self.cpu.instret(), 0) {
                return out;
            }
            // Retired-instruction hooks, before the control transfer is
            // applied: a `jal` is charged to its caller.
            if let Some(p) = self.prof.as_deref_mut() {
                p.tick();
                p.line(info.line);
                p.inst_class(inst_class(&info.inst));
            }
            if let Some(code) = info.exit {
                return RunOutcome::Paused(PauseReason::Exited(ExitStatus::Exited(code)));
            }
            match info.control {
                Some(Control::Call { target }) => {
                    let name = self
                        .cpu
                        .program()
                        .label_at(target)
                        .unwrap_or("<anonymous>")
                        .to_owned();
                    if let Some(p) = self.prof.as_deref_mut() {
                        let id = p.intern(&name);
                        p.enter(id);
                    }
                    self.shadow.push(ShadowFrame {
                        name,
                        entry: target,
                        call_line: info.line,
                    });
                }
                Some(Control::Return) => {
                    if self.shadow.len() > 1 {
                        self.shadow.pop();
                        if let Some(p) = self.prof.as_deref_mut() {
                            p.exit();
                        }
                    }
                    slice.popped(self.shadow.len());
                }
                None => {}
            }
            if !self.core.points.watches.is_empty() {
                // Stores are not reported: every watch is re-read after
                // each instruction.
                let (cpu, points) = (&self.cpu, &mut self.core.points);
                let refresh = |w: &mut Watch<WatchKind>| {
                    let now = eval_watch(cpu, &w.spec)?;
                    Some(w.last.replace(now))
                };
                let file = &cpu.program().file;
                if let Some((_, reason)) =
                    points.on_line(slice, file, true, None, Phase::Watch, refresh)
                {
                    return RunOutcome::Paused(reason);
                }
            }
        }
    }

    fn position(&self) -> (u32, usize) {
        (self.cpu.current_line(), self.shadow.len())
    }

    fn exit_code(&self) -> Option<i64> {
        self.cpu.exit_code()
    }

    fn output(&self) -> &str {
        self.cpu.output()
    }

    fn source(&self) -> (&str, &str) {
        let program = self.cpu.program();
        (&program.file, &program.source)
    }

    fn breakable_lines(&self) -> Vec<u32> {
        self.cpu.program().breakable_lines()
    }

    fn function(&self, name: &str) -> Result<u32, String> {
        let program = self.cpu.program();
        program
            .label(name)
            .ok_or_else(|| format!("unknown label `{name}`"))
    }

    fn watch(&self, variable: String) -> Result<Watch<WatchKind>, String> {
        let kind = if let Some(r) = parse_reg(&variable) {
            WatchKind::Reg(r)
        } else if let Some(spec) = variable.strip_prefix('*') {
            let (addr_s, len_s) = spec.split_once(':').unwrap_or((spec, "4"));
            match (parse_u32(addr_s), parse_u32(len_s)) {
                (Some(addr), Some(len)) if len > 0 && len <= 256 => WatchKind::Mem { addr, len },
                _ => return Err(format!("bad memory watch `{variable}`")),
            }
        } else if let Some(addr) = self.cpu.program().label(&variable) {
            WatchKind::Mem { addr, len: 4 }
        } else {
            return Err(format!(
                "cannot watch `{variable}` (register, label or *0xADDR:LEN)"
            ));
        };
        let last = eval_watch(&self.cpu, &kind);
        Ok(Watch::new(variable, last, kind))
    }

    fn publish_stats(&self) {
        let Some(reg) = &self.core.registry else {
            return;
        };
        // Absolute readings: gauges, so merged snapshots never double-add.
        reg.set_gauge("vm.miniasm.instret", self.cpu.instret());
        reg.set_gauge("vm.miniasm.shadow_depth", self.shadow.len() as u64);
    }

    fn own_command(&mut self, command: Command) -> Response {
        match command {
            Command::GetState => Response::State(Box::new(self.build_state())),
            Command::GetGlobals => Response::Globals(self.data_globals()),
            Command::GetVariable { name } => {
                // Registers by name, then data labels as words, then text
                // labels as FUNCTION values.
                let var = if let Some(r) = parse_reg(&name) {
                    Some(Variable::new(
                        reg_name(r),
                        Scope::Register,
                        Value::primitive(Prim::Int(self.cpu.reg(r) as i32 as i64), "u32")
                            .with_location(state::Location::Register),
                    ))
                } else if let Some(addr) = self.cpu.program().label(&name) {
                    if addr >= self.cpu.program().data_base {
                        Some(self.data_word(name, addr))
                    } else {
                        Some(Variable::new(
                            name.clone(),
                            Scope::Global,
                            Value::function(name, "label")
                                .with_location(state::Location::Global)
                                .with_address(addr as u64),
                        ))
                    }
                } else {
                    None
                };
                Response::Variable(var)
            }
            Command::GetRegisters => Response::Registers(self.cpu.register_variables()),
            Command::ReadMemory { addr, len } => {
                match self.cpu.read_mem(addr as u32, len.min(64 * 1024) as u32) {
                    Some(bytes) => Response::Memory(bytes.to_vec()),
                    None => error(format!("memory range {addr:#x}+{len} out of bounds")),
                }
            }
            // The dataflow analysis and the sanitizer are defined over
            // MiniC bytecode; assembly programs have neither.
            Command::Analyze => error("static analysis is not supported for assembly programs"),
            Command::Verify => {
                error("bytecode verification is not supported for assembly programs")
            }
            Command::SetSanitizer { .. } => {
                error("sanitizer mode is not supported for assembly programs")
            }
            Command::SetProfile { mode, period } => {
                if mode == obs::ProfileMode::Off {
                    self.prof = None;
                } else {
                    let mut p = Box::new(obs::Profiler::new(mode, period));
                    // Frames alive at arm time (the entry label) enter the
                    // profile now, like the MiniC VM's seeding.
                    for sf in &self.shadow {
                        let id = p.intern(&sf.name);
                        p.enter(id);
                    }
                    self.prof = Some(p);
                }
                Response::Ok
            }
            Command::ProfileReport { .. } => Response::Profile(Box::new(
                self.prof
                    .as_deref()
                    .map(obs::Profiler::report)
                    .unwrap_or_default(),
            )),
            other => control::unsupported(&other),
        }
    }
}

impl Engine for AsmEngine {
    fn handle(&mut self, command: Command) -> Response {
        control::handle(self, command)
    }

    fn handle_sliced(&mut self, command: Command, fuel: u64) -> SliceOutcome {
        control::handle_sliced(self, command, fuel)
    }

    fn resume_sliced(&mut self, fuel: u64) -> SliceOutcome {
        control::resume_sliced(self, fuel)
    }
}

fn parse_u32(s: &str) -> Option<u32> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniasm::asm::assemble;

    fn engine(src: &str) -> AsmEngine {
        AsmEngine::new(&assemble("t.s", src).unwrap())
    }

    fn paused(r: Response) -> PauseReason {
        match r {
            Response::Paused(p) => p,
            other => panic!("expected Paused, got {other:?}"),
        }
    }

    const SUM: &str = "main:\n    li t0, 0\n    li t1, 1\nloop:\n    li t2, 5\n    bgt t1, t2, done\n    add t0, t0, t1\n    addi t1, t1, 1\n    j loop\ndone:\n    mv a0, t0\n    li a7, 93\n    ecall";

    #[test]
    fn resume_runs_to_exit() {
        let mut e = engine(SUM);
        assert_eq!(paused(e.handle(Command::Start)), PauseReason::Started);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(15)));
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(Some(15)));
    }

    #[test]
    fn stepping_by_source_line() {
        let mut e = engine(SUM);
        e.handle(Command::Start);
        paused(e.handle(Command::Step)); // past li t0
        paused(e.handle(Command::Step));
        match e.handle(Command::GetRegisters) {
            Response::Registers(regs) => {
                let t0 = regs.iter().find(|r| r.name() == "t0").unwrap();
                assert_eq!(state::render_value(t0.value()), "0");
                let t1 = regs.iter().find(|r| r.name() == "t1").unwrap();
                assert_eq!(state::render_value(t1.value()), "1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn line_breakpoint_hits_once_per_pass() {
        let mut e = engine(SUM);
        e.handle(Command::SetBreakLine { line: 7 }); // the add
        e.handle(Command::Start);
        let mut hits = 0;
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Breakpoint { location, .. } => {
                    assert_eq!(location.line(), 7);
                    hits += 1;
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(hits, 5);
    }

    const CALLPROG: &str = "main:\n    li a0, 3\n    call double\n    li a7, 93\n    ecall\ndouble:\n    add a0, a0, a0\n    ret";

    #[test]
    fn function_breakpoint_and_tracking() {
        let mut e = engine(CALLPROG);
        e.handle(Command::TrackFunction {
            function: "double".into(),
            maxdepth: None,
        });
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        match r {
            PauseReason::FunctionCall { function, depth } => {
                assert_eq!(function, "double");
                assert_eq!(depth, 1);
            }
            other => panic!("unexpected {other}"),
        }
        // a0 holds the argument at entry.
        match e.handle(Command::GetVariable { name: "a0".into() }) {
            Response::Variable(Some(v)) => assert_eq!(state::render_value(v.value()), "3"),
            other => panic!("unexpected {other:?}"),
        }
        let r = paused(e.handle(Command::Resume));
        match r {
            PauseReason::FunctionReturn {
                function,
                return_value,
                ..
            } => {
                assert_eq!(function, "double");
                assert_eq!(return_value.as_deref(), Some("6"));
            }
            other => panic!("unexpected {other}"),
        }
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(6)));
    }

    #[test]
    fn shadow_stack_frames_in_state() {
        let mut e = engine(CALLPROG);
        e.handle(Command::SetBreakFunc {
            function: "double".into(),
            maxdepth: None,
        });
        e.handle(Command::Start);
        paused(e.handle(Command::Resume));
        match e.handle(Command::GetState) {
            Response::State(st) => {
                let names: Vec<_> = st.frame.chain().map(|f| f.name().to_owned()).collect();
                assert_eq!(names, ["double", "main"]);
                assert!(st.frame.variable("a0").is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn register_watchpoint() {
        let mut e = engine(SUM);
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "t1".into(),
        });
        let mut changes = Vec::new();
        for _ in 0..3 {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Watchpoint { variable, new, .. } => {
                    assert_eq!(variable, "t1");
                    changes.push(new);
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(changes, ["1", "2", "3"]);
    }

    #[test]
    fn a_watch_then_a_breakpoint_on_the_next_instruction_both_fire() {
        // `li t1, 1` (line 3) changes the watched t1; line 4's
        // breakpoint is checked before its instruction runs, after the
        // watch's pause.
        let mut e = engine(SUM);
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "t1".into(),
        });
        e.handle(Command::SetBreakLine { line: 5 });
        let watched = paused(e.handle(Command::Resume));
        assert!(
            matches!(watched, PauseReason::Watchpoint { .. }),
            "{watched}"
        );
        let bp = paused(e.handle(Command::Resume));
        assert!(
            matches!(bp, PauseReason::Breakpoint { ref location, .. } if location.line() == 5),
            "{bp}"
        );
    }

    #[test]
    fn stepping_onto_a_tracked_ret_stops_before_returning() {
        let mut e = engine(CALLPROG);
        e.handle(Command::TrackFunction {
            function: "double".into(),
            maxdepth: None,
        });
        e.handle(Command::Start);
        let call = paused(e.handle(Command::Resume));
        assert!(matches!(call, PauseReason::FunctionCall { .. }), "{call}");
        // From `add`, a step lands on the `ret` line; the return is the
        // next pause, like the MiniC engine's line-then-return events.
        assert_eq!(paused(e.handle(Command::Step)), PauseReason::Step);
        let ret = paused(e.handle(Command::Resume));
        assert!(matches!(ret, PauseReason::FunctionReturn { .. }), "{ret}");
    }

    #[test]
    fn memory_watch_on_data_label() {
        let src = ".data\ncounter: .word 0\n.text\nmain:\n    la t0, counter\n    li t1, 7\n    sw t1, 0(t0)\n    li a7, 10\n    ecall";
        let mut e = engine(src);
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "counter".into(),
        });
        let r = paused(e.handle(Command::Resume));
        assert!(matches!(r, PauseReason::Watchpoint { .. }));
    }

    #[test]
    fn next_steps_over_call() {
        let mut e = engine(CALLPROG);
        e.handle(Command::Start);
        paused(e.handle(Command::Step)); // li a0 done, at call line
        let r = paused(e.handle(Command::Next)); // steps over double
        assert_eq!(r, PauseReason::Step);
        match e.handle(Command::GetState) {
            Response::State(st) => {
                assert_eq!(st.frame.name(), "main");
                assert_eq!(st.frame.location().line(), 4); // li a7, 93
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_memory_and_globals() {
        let src = ".data\nvalue: .word 1234\n.text\nmain:\n    li a7, 10\n    ecall";
        let mut e = engine(src);
        e.handle(Command::Start);
        match e.handle(Command::GetGlobals) {
            Response::Globals(gs) => {
                let v = gs.iter().find(|g| g.name() == "value").unwrap();
                assert_eq!(state::render_value(v.value()), "1234");
            }
            other => panic!("unexpected {other:?}"),
        }
        let addr = e.cpu().program().label("value").unwrap();
        match e.handle(Command::ReadMemory {
            addr: addr as u64,
            len: 4,
        }) {
            Response::Memory(bytes) => assert_eq!(bytes, 1234i32.to_le_bytes()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn output_collected() {
        let src = ".data\nmsg: .asciz \"ok\"\n.text\nmain:\n    la a0, msg\n    li a7, 4\n    ecall\n    li a7, 10\n    ecall";
        let mut e = engine(src);
        e.handle(Command::Start);
        paused(e.handle(Command::Resume));
        assert_eq!(e.handle(Command::GetOutput), Response::Output("ok".into()));
    }

    #[test]
    fn crash_reported() {
        let src = "main:\n    li t0, 0x20000\n    lw t1, 0(t0)";
        let mut e = engine(src);
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Crashed));
        match e.handle(Command::GetOutput) {
            Response::Output(o) => assert!(o.contains("out of range")),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod label_lookup_tests {
    use super::*;
    use miniasm::asm::assemble;

    #[test]
    fn labels_resolve_as_variables() {
        let src = ".data\ncount: .word 7\n.text\nmain:\n    li a7, 10\n    ecall\nhelper:\n    ret";
        let mut e = AsmEngine::new(&assemble("t.s", src).unwrap());
        e.handle(Command::Start);
        match e.handle(Command::GetVariable {
            name: "count".into(),
        }) {
            Response::Variable(Some(v)) => {
                assert_eq!(state::render_value(v.value()), "7");
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.handle(Command::GetVariable {
            name: "helper".into(),
        }) {
            Response::Variable(Some(v)) => {
                assert_eq!(v.value().abstract_type(), state::AbstractType::Function);
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.handle(Command::GetVariable {
            name: "nonesuch".into(),
        }) {
            Response::Variable(None) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
