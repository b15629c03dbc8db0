//! Property-based tests for the program substrate: random structured
//! programs must simulate deterministically, disassemble/reassemble to
//! equivalent programs, and attribute their traces completely; and the
//! simulator's run loop and `step` must both execute exactly what a
//! reference interpreter does.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rtprogram::asm::{assemble, disassemble};
use rtprogram::builder::ProgramBuilder;
use rtprogram::cfg::Cfg;
use rtprogram::isa::regs::*;
use rtprogram::isa::{AluOp, Cond};
use rtprogram::mem::{MemError, Memory};
use rtprogram::paths::{enumerate_paths, immediate_dominators, natural_loops};
use rtprogram::sim::{AccessKind, ExecError, MemoryAccess, Simulator, StepAccesses};
use rtprogram::{DataSegment, InputVariant, Instr, Program, Reg};

/// A tiny structured-program AST the strategy generates; rendered through
/// the builder so all control flow is well formed.
#[derive(Debug, Clone)]
enum Stmt {
    Arith(u8),
    LoadStore(u8),
    Loop(u8, Vec<Stmt>),
    If(Vec<Stmt>),
    IfElse(Vec<Stmt>, Vec<Stmt>),
}

fn arb_stmts(depth: u32) -> impl Strategy<Value = Vec<Stmt>> {
    let leaf = prop_oneof![(0u8..8).prop_map(Stmt::Arith), (0u8..16).prop_map(Stmt::LoadStore),];
    let stmt = leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            ((1u8..5), prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(n, b)| Stmt::Loop(n, b)),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Stmt::If),
            (prop::collection::vec(inner.clone(), 1..3), prop::collection::vec(inner, 1..3))
                .prop_map(|(t, e)| Stmt::IfElse(t, e)),
        ]
    });
    prop::collection::vec(stmt, 1..6)
}

/// Renders statements through the builder. Registers: r1 buffer pointer
/// base, r4/r5 scratch, r6 accumulator; loops use r8..r11 by depth.
fn emit(b: &mut ProgramBuilder, stmts: &[Stmt], buf: u64, depth: u8) {
    for stmt in stmts {
        match stmt {
            Stmt::Arith(k) => {
                b.addi(R6, R6, i32::from(*k) - 3);
                b.xor(R6, R6, R4);
            }
            Stmt::LoadStore(slot) => {
                b.li_addr(R1, buf + 4 * u64::from(*slot));
                b.ld(R4, R1, 0);
                b.add(R6, R6, R4);
                b.st(R6, R1, 0);
            }
            Stmt::Loop(n, body) => {
                if depth < 4 {
                    let counter = [R8, R9, R10, R11][usize::from(depth)];
                    b.counted_loop(u32::from(*n), counter, |b| {
                        emit(b, body, buf, depth + 1);
                    });
                }
            }
            Stmt::If(body) => {
                b.if_then(Cond::Ge, R6, R0, |b| emit(b, body, buf, depth));
            }
            Stmt::IfElse(t, e) => {
                b.if_else(Cond::Lt, R6, R0, |b| emit(b, t, buf, depth), |b| emit(b, e, buf, depth));
            }
        }
    }
}

fn build(stmts: &[Stmt]) -> Program {
    let mut b = ProgramBuilder::new("prop", 0x1000, 0x0010_0000);
    let buf = b.data_words("buf", &(0..16).map(|i| i * 3 - 7).collect::<Vec<_>>());
    b.li(R6, 1);
    emit(&mut b, stmts, buf, 0);
    b.build().expect("structured programs are well formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simulator is deterministic and always halts on structured
    /// programs.
    #[test]
    fn simulation_is_deterministic(stmts in arb_stmts(3)) {
        let p = build(&stmts);
        let mut a = Simulator::new(&p);
        let ta = a.run_to_halt_with_limit(2_000_000).expect("halts");
        let mut b = Simulator::new(&p);
        let tb = b.run_to_halt_with_limit(2_000_000).expect("halts");
        prop_assert_eq!(ta, tb);
    }

    /// Disassembling and reassembling preserves code, entry, data image
    /// and loop bounds.
    #[test]
    fn disassembly_round_trips(stmts in arb_stmts(3)) {
        let p = build(&stmts);
        let text = disassemble(&p);
        let q = assemble("prop", &text).expect("listing reassembles");
        prop_assert_eq!(p.code(), q.code());
        prop_assert_eq!(p.entry(), q.entry());
        prop_assert_eq!(p.loop_bounds(), q.loop_bounds());
        let p_data: Vec<(u64, &[i32])> =
            p.data_segments().iter().map(|s| (s.base, s.words.as_slice())).collect();
        let q_data: Vec<(u64, &[i32])> =
            q.data_segments().iter().map(|s| (s.base, s.words.as_slice())).collect();
        prop_assert_eq!(p_data, q_data);
        // And the reassembled program behaves identically.
        let mut sp = Simulator::new(&p);
        let tp = sp.run_to_halt_with_limit(2_000_000).expect("halts");
        let mut sq = Simulator::new(&q);
        let tq = sq.run_to_halt_with_limit(2_000_000).expect("halts");
        prop_assert_eq!(tp.accesses.len(), tq.accesses.len());
        prop_assert_eq!(tp.instructions, tq.instructions);
    }

    /// Every access of a trace is attributed to exactly one node
    /// execution, in order.
    #[test]
    fn attribution_is_a_partition(stmts in arb_stmts(3)) {
        let p = build(&stmts);
        let cfg = Cfg::from_program(&p);
        let mut sim = Simulator::new(&p);
        let trace = sim.run_to_halt_with_limit(2_000_000).expect("halts");
        let execs = cfg.attribute(&trace);
        let flattened: Vec<_> = execs.iter().flat_map(|e| e.accesses.iter().copied()).collect();
        prop_assert_eq!(flattened, trace.accesses.clone());
        for e in &execs {
            // Each execution's accesses belong to its block's pc range.
            let block = cfg.block(e.block);
            for a in &e.accesses {
                prop_assert!(block.contains(a.pc));
            }
        }
    }

    /// Structural invariants: the entry dominates every reachable block,
    /// loops have their declared bounds, and the executed block sequence
    /// is consistent with one enumerated path (per variant there is only
    /// one feasible path since branches depend on fixed data).
    #[test]
    fn structure_is_consistent(stmts in arb_stmts(2)) {
        let p = build(&stmts);
        let cfg = Cfg::from_program(&p);
        let idom = immediate_dominators(&cfg);
        let mut sim = Simulator::new(&p);
        let trace = sim.run_to_halt_with_limit(2_000_000).expect("halts");
        for e in cfg.attribute(&trace) {
            prop_assert!(
                rtprogram::paths::dominates(&idom, cfg.entry(), e.block),
                "executed block must be dominated by entry"
            );
        }
        let loops = natural_loops(&cfg, &p).expect("reducible");
        for l in &loops {
            prop_assert!(l.bound.is_some(), "builder loops carry bounds");
        }
        if let Ok(paths) = enumerate_paths(&cfg, &p, 4096) {
            prop_assert!(!paths.is_empty());
        }
    }
}

/// A test-only copy of `Simulator::step` and `run_with_limit` as they
/// were before both ran one inlined body: `step` decoded and executed one
/// instruction into a `Result<Option<StepAccesses>>`, and the run loop
/// unwrapped that per instruction. Registers are indexed by number and
/// code is looked up through `is_instr_addr`, so nothing here shares the
/// simulator's hot path.
struct Reference<'p> {
    program: &'p Program,
    regs: [i32; Reg::COUNT],
    pc: u64,
    memory: Memory,
    halted: bool,
    steps: u64,
}

impl<'p> Reference<'p> {
    fn with_variant(program: &'p Program, variant: &InputVariant) -> Result<Self, MemError> {
        let mut memory = Memory::from_program(program);
        memory.apply_variant(variant)?;
        Ok(Reference {
            program,
            regs: [0; Reg::COUNT],
            pc: program.entry(),
            memory,
            halted: false,
            steps: 0,
        })
    }

    fn reg(&self, r: Reg) -> i32 {
        self.regs[usize::from(r.number())]
    }

    fn set(&mut self, r: Reg, value: i32) {
        self.regs[usize::from(r.number())] = value;
    }

    fn step(&mut self) -> Result<Option<StepAccesses>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        if !self.program.is_instr_addr(pc) {
            return Err(ExecError::UnmappedCode { pc });
        }
        let instr = self.program.code()[((pc - self.program.code_base()) / Instr::SIZE) as usize];
        let fetch = MemoryAccess { pc, addr: pc, kind: AccessKind::Fetch };
        let mut data = None;
        let mut next_pc = pc + Instr::SIZE;
        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => self.set(rd, op.eval(self.reg(rs1), self.reg(rs2))),
            Instr::Addi { rd, rs1, imm } => self.set(rd, self.reg(rs1).wrapping_add(imm)),
            Instr::Li { rd, imm } => self.set(rd, imm),
            Instr::Ld { rd, base, offset } => {
                let addr = (self.reg(base) as i64).wrapping_add(offset as i64) as u64;
                let value =
                    self.memory.read(addr).map_err(|source| ExecError::Mem { pc, source })?;
                self.set(rd, value);
                data = Some(MemoryAccess { pc, addr, kind: AccessKind::Load });
            }
            Instr::St { src, base, offset } => {
                let addr = (self.reg(base) as i64).wrapping_add(offset as i64) as u64;
                self.memory
                    .write(addr, self.reg(src))
                    .map_err(|source| ExecError::Mem { pc, source })?;
                data = Some(MemoryAccess { pc, addr, kind: AccessKind::Store });
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    next_pc = target;
                }
            }
            Instr::Jal { rd, target } => {
                self.set(rd, (pc + Instr::SIZE) as i32);
                next_pc = target;
            }
            Instr::Jr { rs1 } => next_pc = self.reg(rs1) as u32 as u64,
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }
        self.pc = next_pc;
        self.steps += 1;
        Ok(Some(StepAccesses { fetch, data }))
    }

    fn run_with_limit(
        &mut self,
        limit: u64,
        mut sink: impl FnMut(MemoryAccess),
    ) -> Result<(), ExecError> {
        let start = self.steps;
        while !self.halted {
            if self.steps - start >= limit {
                return Err(ExecError::StepLimit { limit });
            }
            if let Some(step) = self.step()? {
                sink(step.fetch);
                if let Some(d) = step.data {
                    sink(d);
                }
            }
        }
        Ok(())
    }
}

/// Asserts the simulator's state equals the reference's: program
/// counter, step count, every register and data memory.
fn assert_same_state(sim: &Simulator<'_>, reference: &Reference<'_>) {
    assert_eq!(sim.pc(), reference.pc);
    assert_eq!(sim.steps(), reference.steps);
    for n in 0..Reg::COUNT as u8 {
        assert_eq!(sim.reg(Reg::new(n)), reference.reg(Reg::new(n)), "r{n}");
    }
    assert_eq!(sim.memory(), &reference.memory);
}

/// Runs `variant` of `program` through `run_with_limit` and through a
/// `step` loop, each beside the reference, and asserts equal access
/// streams, step counts, registers, memory and errors. Returns the run
/// loop's result.
fn check_against_reference(
    program: &Program,
    variant: &InputVariant,
    limit: u64,
) -> Result<(), ExecError> {
    let mut sim = Simulator::with_variant(program, variant).expect("variant applies");
    let mut reference = Reference::with_variant(program, variant).expect("variant applies");
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let result = sim.run_with_limit(limit, |a| got.push(a));
    assert_eq!(result, reference.run_with_limit(limit, |a| want.push(a)));
    assert_eq!(got, want, "access streams differ");
    assert_same_state(&sim, &reference);

    // `step`, one instruction at a time, for as many instructions as the
    // run loop was allowed plus one, so a halt right at the limit shows.
    let mut sim = Simulator::with_variant(program, variant).expect("variant applies");
    let mut reference = Reference::with_variant(program, variant).expect("variant applies");
    for _ in 0..=limit {
        let step = sim.step();
        assert_eq!(step, reference.step());
        assert_same_state(&sim, &reference);
        if !matches!(step, Ok(Some(_))) {
            break;
        }
    }
    result
}

/// A data segment of eight words at `DATA`, and code at `CODE`.
const CODE: u64 = 0x1000;
const DATA: u64 = 0x8000;

/// Values the random code computes addresses from: data words in and
/// just past the segment, a misaligned one, code addresses for `jr`, and
/// small integers.
fn arb_imm() -> impl Strategy<Value = i32> {
    prop_oneof![
        (0i32..10).prop_map(|w| DATA as i32 + 4 * w),
        prop::sample::select(vec![DATA as i32 + 2]),
        (0i32..24).prop_map(|w| CODE as i32 + 4 * w),
        -4i32..8,
    ]
}

/// One random instruction over `r0..r3`. Static targets are instruction
/// indices below 24; [`arb_random_code`] folds them into the code.
fn arb_instr() -> impl Strategy<Value = Instr> {
    let reg = || (0u8..4).prop_map(Reg::new);
    let target = || 0u64..24;
    let op = prop::sample::select(vec![
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Sra,
        AluOp::Slt,
    ]);
    let cond = prop::sample::select(vec![Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge]);
    let offset = || prop::sample::select(vec![-4, 0, 2, 4, 8]);
    prop_oneof![
        (op, reg(), reg(), reg()).prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
        (reg(), reg(), -8i32..8).prop_map(|(rd, rs1, imm)| Instr::Addi { rd, rs1, imm }),
        (reg(), arb_imm()).prop_map(|(rd, imm)| Instr::Li { rd, imm }),
        (reg(), arb_imm()).prop_map(|(rd, imm)| Instr::Li { rd, imm }),
        (reg(), reg(), offset()).prop_map(|(rd, base, offset)| Instr::Ld { rd, base, offset }),
        (reg(), reg(), offset()).prop_map(|(src, base, offset)| Instr::St { src, base, offset }),
        (cond, reg(), reg(), target()).prop_map(|(cond, rs1, rs2, target)| Instr::Branch {
            cond,
            rs1,
            rs2,
            target
        }),
        (reg(), target()).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        reg().prop_map(|rs1| Instr::Jr { rs1 }),
        prop::sample::select(vec![Instr::Nop, Instr::Halt]),
    ]
}

/// Random code over one data segment of eight words, with a step limit:
/// it halts, runs off the code or into `jr` garbage, faults on an
/// unaligned or unmapped data word, or loops into the limit.
fn arb_random_code() -> impl Strategy<Value = (Program, u64)> {
    (prop::collection::vec(arb_instr(), 1..24), 0u64..64).prop_map(|(mut code, limit)| {
        let len = code.len() as u64;
        for instr in &mut code {
            if let Instr::Branch { target, .. } | Instr::Jal { target, .. } = instr {
                *target = CODE + 4 * (*target % len);
            }
        }
        let data = vec![DataSegment { name: "d".into(), base: DATA, words: vec![7; 8] }];
        let program = Program::new(
            "random",
            CODE,
            code,
            data,
            CODE,
            Default::default(),
            Default::default(),
            vec![],
        )
        .expect("static targets lie in the code");
        (program, limit)
    })
}

/// Sorts a result into the outcome classes the random code must reach.
fn outcome(result: &Result<(), ExecError>) -> &'static str {
    match result {
        Ok(()) => "halt",
        Err(ExecError::UnmappedCode { .. }) => "unmapped code",
        Err(ExecError::Mem { source: MemError::Unaligned { .. }, .. }) => "unaligned data",
        Err(ExecError::Mem { source: MemError::Unmapped { .. }, .. }) => "unmapped data",
        Err(ExecError::StepLimit { .. }) => "step limit",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random code, the run loop and `step` equal the reference in
    /// accesses, steps, registers, memory and error.
    #[test]
    fn run_loop_and_step_match_the_reference_on_random_code(case in arb_random_code()) {
        let (program, limit) = case;
        let _ = check_against_reference(&program, &program.variants()[0], limit);
    }

    /// On structured programs, at a limit that may cut the run short.
    #[test]
    fn run_loop_and_step_match_the_reference_on_structured_programs(
        stmts in arb_stmts(3),
        limit in 0u64..600,
    ) {
        let p = build(&stmts);
        let _ = check_against_reference(&p, &p.variants()[0], limit);
    }
}

/// The random-code generator reaches every outcome the reference test
/// is meant to compare, so a regression in one of them cannot hide.
#[test]
fn random_code_reaches_every_outcome() {
    let mut rng = TestRng::from_name("random_code_reaches_every_outcome");
    let mut seen = BTreeSet::new();
    for _ in 0..256 {
        let (program, limit) = arb_random_code().generate(&mut rng);
        let mut sim = Simulator::new(&program);
        seen.insert(outcome(&sim.run_with_limit(limit, |_| {})));
    }
    let every = ["halt", "unmapped code", "unaligned data", "unmapped data", "step limit"];
    assert_eq!(seen, every.into_iter().collect::<BTreeSet<_>>());
}

/// Every variant of every workload, run to halt and cut at half its
/// length, equals the reference.
#[test]
fn run_loop_and_step_match_the_reference_on_every_workload_variant() {
    use rtworkloads::kernels;
    const DATA_LO: u64 = 0x0010_0000;
    let mut programs = rtworkloads::experiment1();
    programs.extend(rtworkloads::experiment2());
    programs.push(rtworkloads::context_switch());
    programs.extend([
        kernels::fir_filter(0x0005_0000, DATA_LO, 8, 32),
        kernels::matrix_multiply(0x0005_4000, DATA_LO, 8),
        kernels::crc32(0x0005_8000, DATA_LO, 64),
        kernels::histogram(0x0005_c000, DATA_LO, 128, 16),
        kernels::insertion_sort(0x0006_0000, DATA_LO, 32),
    ]);
    for program in &programs {
        for variant in program.variants() {
            let full = Simulator::with_variant(program, variant)
                .expect("variant applies")
                .run_to_halt()
                .unwrap_or_else(|e| panic!("{}/{}: {e}", program.name(), variant.name))
                .instructions;
            assert_eq!(check_against_reference(program, variant, full), Ok(()));
            let half = full / 2;
            assert_eq!(
                check_against_reference(program, variant, half),
                Err(ExecError::StepLimit { limit: half })
            );
        }
    }
}
