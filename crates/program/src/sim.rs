//! The TRISC-16 instruction-set simulator.
//!
//! Plays the role the XRAY ARM simulator plays in the paper (Fig. 5): it
//! executes a task program and emits the exact sequence of memory
//! accesses — one instruction fetch per issued instruction plus the data
//! access of each load/store. These traces feed the WCET estimator, the
//! CRPD analyses (via CFG attribution) and the scheduler co-simulation.
//!
//! One interpreter body executes every instruction. The run loop
//! ([`Simulator::run_with_limit`], under [`Simulator::run_to_halt`] and
//! [`trace_variant`]) inlines it and hands each fetch and data access
//! straight to its sink; [`Simulator::step`] wraps the same body for one
//! instruction. So the analysis, the co-simulation and the fuzz farm all
//! run one interpreter. The crate's property tests keep the earlier
//! decode-into-`StepAccesses` loop as the reference both paths must
//! equal.

use std::fmt;

use crate::isa::{Instr, Reg};
use crate::mem::{MemError, Memory};
use crate::program::{InputVariant, Program};

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (marks the start of an instruction).
    Fetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// One memory access made by the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// Address of the instruction that made the access.
    pub pc: u64,
    /// The accessed byte address (equals `pc` for fetches).
    pub addr: u64,
    /// Fetch, load or store.
    pub kind: AccessKind,
}

/// A complete memory trace of one program run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The accesses in program order.
    pub accesses: Vec<MemoryAccess>,
    /// Number of instructions executed.
    pub instructions: u64,
}

impl Trace {
    /// Iterates over the accessed byte addresses.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.accesses.iter().map(|a| a.addr)
    }
}

/// Errors raised during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the code region.
    UnmappedCode {
        /// The bad program counter.
        pc: u64,
    },
    /// A data access failed.
    Mem {
        /// Address of the faulting instruction.
        pc: u64,
        /// The underlying memory error.
        source: MemError,
    },
    /// The step limit was exhausted before `halt` (runaway loop guard).
    StepLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnmappedCode { pc } => write!(f, "pc {pc:#x} left the code region"),
            ExecError::Mem { pc, source } => write!(f, "at pc {pc:#x}: {source}"),
            ExecError::StepLimit { limit } => {
                write!(f, "step limit of {limit} instructions exhausted before halt")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Mem { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Default step limit for [`Simulator::run_to_halt`].
pub const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

/// The accesses made by a single instruction (fetch plus at most one data
/// access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepAccesses {
    /// The instruction fetch.
    pub fetch: MemoryAccess,
    /// The data access, if the instruction was a load or store.
    pub data: Option<MemoryAccess>,
}

impl StepAccesses {
    /// Iterates over the accesses in issue order.
    pub fn iter(&self) -> impl Iterator<Item = MemoryAccess> {
        std::iter::once(self.fetch).chain(self.data)
    }
}

/// An executing instance of a [`Program`].
///
/// The simulator is resumable: [`Simulator::step`] executes exactly one
/// instruction and reports its memory accesses, so a scheduler can
/// interleave several simulators and preempt at any instruction boundary.
///
/// ```
/// use rtprogram::asm::assemble;
/// use rtprogram::sim::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = assemble("demo", r#"
///     .text 0x1000
///     .data 0x8000
/// result: .space 1
///     .text
/// start:
///     li   r1, 6
///     li   r2, 7
///     mul  r3, r1, r2
///     li   r4, result
///     st   r3, 0(r4)
///     halt
/// "#)?;
/// let mut sim = Simulator::new(&program);
/// let trace = sim.run_to_halt()?;
/// assert_eq!(sim.memory().read(program.symbol("result").unwrap())?, 42);
/// assert_eq!(trace.instructions, 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'p> {
    program: &'p Program,
    regs: [i32; Reg::COUNT],
    pc: u64,
    memory: Memory,
    halted: bool,
    steps: u64,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator at the program's entry point with fresh data
    /// memory (the program's first variant is *not* applied — see
    /// [`Simulator::with_variant`]).
    pub fn new(program: &'p Program) -> Self {
        Simulator {
            program,
            regs: [0; Reg::COUNT],
            pc: program.entry(),
            memory: Memory::from_program(program),
            halted: false,
            steps: 0,
        }
    }

    /// Creates a simulator with an input variant applied to data memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if a variant write lands outside the data
    /// segments.
    pub fn with_variant(program: &'p Program, variant: &InputVariant) -> Result<Self, MemError> {
        let mut sim = Simulator::new(program);
        sim.memory.apply_variant(variant)?;
        Ok(sim)
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// `true` once `halt` has executed.
    #[cfg(test)]
    fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Register contents.
    pub fn reg(&self, r: Reg) -> i32 {
        self.regs[r.index()]
    }

    /// Sets a register (useful for test harnesses).
    pub fn set_reg(&mut self, r: Reg, value: i32) {
        self.regs[r.index()] = value;
    }

    /// The data memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Executes one instruction and returns its memory accesses, or `None`
    /// if the simulator has already halted.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if the program counter leaves the code
    /// region or a data access faults.
    pub fn step(&mut self) -> Result<Option<StepAccesses>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let mut data = None;
        self.execute(&mut |access: MemoryAccess| {
            if access.kind != AccessKind::Fetch {
                data = Some(access);
            }
        })?;
        Ok(Some(StepAccesses {
            fetch: MemoryAccess { pc, addr: pc, kind: AccessKind::Fetch },
            data,
        }))
    }

    /// Executes the instruction at `pc` (the simulator must not have
    /// halted) and hands its fetch, then its data access if any, to
    /// `sink`. A faulting instruction changes no state and reaches the
    /// sink with nothing. This is the one interpreter body: [`step`] and
    /// [`run_with_limit`] both run it.
    ///
    /// [`step`]: Simulator::step
    /// [`run_with_limit`]: Simulator::run_with_limit
    #[inline(always)]
    fn execute<F>(&mut self, sink: &mut F) -> Result<(), ExecError>
    where
        F: FnMut(MemoryAccess),
    {
        let pc = self.pc;
        let instr = self.program.instr_at(pc).ok_or(ExecError::UnmappedCode { pc })?;
        let mut next_pc = pc + Instr::SIZE;
        let data = match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                self.regs[rd.index()] = op.eval(self.regs[rs1.index()], self.regs[rs2.index()]);
                None
            }
            Instr::Addi { rd, rs1, imm } => {
                self.regs[rd.index()] = self.regs[rs1.index()].wrapping_add(imm);
                None
            }
            Instr::Li { rd, imm } => {
                self.regs[rd.index()] = imm;
                None
            }
            Instr::Ld { rd, base, offset } => {
                let addr = (self.regs[base.index()] as i64).wrapping_add(offset as i64) as u64;
                let value =
                    self.memory.read(addr).map_err(|source| ExecError::Mem { pc, source })?;
                self.regs[rd.index()] = value;
                Some(MemoryAccess { pc, addr, kind: AccessKind::Load })
            }
            Instr::St { src, base, offset } => {
                let addr = (self.regs[base.index()] as i64).wrapping_add(offset as i64) as u64;
                self.memory
                    .write(addr, self.regs[src.index()])
                    .map_err(|source| ExecError::Mem { pc, source })?;
                Some(MemoryAccess { pc, addr, kind: AccessKind::Store })
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                if cond.eval(self.regs[rs1.index()], self.regs[rs2.index()]) {
                    next_pc = target;
                }
                None
            }
            Instr::Jal { rd, target } => {
                self.regs[rd.index()] = (pc + Instr::SIZE) as i32;
                next_pc = target;
                None
            }
            Instr::Jr { rs1 } => {
                next_pc = self.regs[rs1.index()] as u32 as u64;
                None
            }
            Instr::Nop => None,
            Instr::Halt => {
                self.halted = true;
                next_pc = pc;
                None
            }
        };
        self.pc = next_pc;
        self.steps += 1;
        sink(MemoryAccess { pc, addr: pc, kind: AccessKind::Fetch });
        if let Some(data) = data {
            sink(data);
        }
        Ok(())
    }

    /// Runs to `halt` with the default step limit, collecting the full
    /// trace.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a fault or if the step limit is hit.
    pub fn run_to_halt(&mut self) -> Result<Trace, ExecError> {
        self.run_to_halt_with_limit(DEFAULT_STEP_LIMIT)
    }

    /// Runs to `halt` with an explicit step limit, collecting the full
    /// trace.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a fault or if the step limit is hit.
    pub fn run_to_halt_with_limit(&mut self, limit: u64) -> Result<Trace, ExecError> {
        let mut trace = Trace::default();
        self.run_with_limit(limit, |acc| trace.accesses.push(acc))?;
        trace.instructions = self.steps;
        Ok(trace)
    }

    /// Runs to `halt`, streaming each access into `sink` instead of
    /// collecting a trace (avoids large allocations for long runs).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a fault or if the step limit is hit.
    pub fn run_with_limit<F>(&mut self, limit: u64, mut sink: F) -> Result<(), ExecError>
    where
        F: FnMut(MemoryAccess),
    {
        let start = self.steps;
        while !self.halted {
            if self.steps - start >= limit {
                return Err(ExecError::StepLimit { limit });
            }
            self.execute(&mut sink)?;
        }
        Ok(())
    }
}

/// Runs `program` under `variant` and returns the full trace.
///
/// # Errors
///
/// Returns an [`ExecError`] on any execution fault; variant writes outside
/// the data segments are reported as [`ExecError::Mem`] at the entry pc.
pub fn trace_variant(program: &Program, variant: &InputVariant) -> Result<Trace, ExecError> {
    let mut sim = Simulator::with_variant(program, variant)
        .map_err(|source| ExecError::Mem { pc: program.entry(), source })?;
    sim.run_to_halt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::regs::*;
    use crate::isa::{AluOp, Cond};
    use crate::program::DataSegment;
    use std::collections::BTreeMap;

    fn prog(code: Vec<Instr>, data: Vec<DataSegment>) -> Program {
        Program::new("t", 0x1000, code, data, 0x1000, BTreeMap::new(), BTreeMap::new(), vec![])
            .unwrap()
    }

    #[test]
    fn arithmetic_and_halt() {
        let p = prog(
            vec![
                Instr::Li { rd: R1, imm: 6 },
                Instr::Li { rd: R2, imm: 7 },
                Instr::Alu { op: AluOp::Mul, rd: R3, rs1: R1, rs2: R2 },
                Instr::Halt,
            ],
            vec![],
        );
        let mut sim = Simulator::new(&p);
        let trace = sim.run_to_halt().unwrap();
        assert_eq!(sim.reg(R3), 42);
        assert!(sim.is_halted());
        assert_eq!(trace.instructions, 4);
        // One fetch per instruction, no data accesses.
        assert_eq!(trace.accesses.len(), 4);
        assert!(trace.accesses.iter().all(|a| a.kind == AccessKind::Fetch));
    }

    #[test]
    fn load_store_traces_data_accesses() {
        let p = prog(
            vec![
                Instr::Li { rd: R1, imm: 0x8000 },
                Instr::Ld { rd: R2, base: R1, offset: 0 },
                Instr::Addi { rd: R2, rs1: R2, imm: 1 },
                Instr::St { src: R2, base: R1, offset: 4 },
                Instr::Halt,
            ],
            vec![DataSegment { name: "d".into(), base: 0x8000, words: vec![41, 0] }],
        );
        let mut sim = Simulator::new(&p);
        let trace = sim.run_to_halt().unwrap();
        assert_eq!(sim.memory().read(0x8004).unwrap(), 42);
        let loads: Vec<_> = trace.accesses.iter().filter(|a| a.kind == AccessKind::Load).collect();
        let stores: Vec<_> =
            trace.accesses.iter().filter(|a| a.kind == AccessKind::Store).collect();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].addr, 0x8000);
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].addr, 0x8004);
        assert_eq!(stores[0].pc, 0x100c);
    }

    #[test]
    fn branch_loop_executes_bounded() {
        // r1 = 5; loop { r2 += r1; r1 -= 1 } while r1 != 0
        let p = prog(
            vec![
                Instr::Li { rd: R1, imm: 5 },
                Instr::Li { rd: R2, imm: 0 },
                // 0x1008:
                Instr::Alu { op: AluOp::Add, rd: R2, rs1: R2, rs2: R1 },
                Instr::Addi { rd: R1, rs1: R1, imm: -1 },
                Instr::Branch { cond: Cond::Ne, rs1: R1, rs2: R0, target: 0x1008 },
                Instr::Halt,
            ],
            vec![],
        );
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        assert_eq!(sim.reg(R2), 15);
        assert_eq!(sim.steps(), 2 + 3 * 5 + 1);
    }

    #[test]
    fn jal_jr_round_trip() {
        // jal r15, 0x100c (skip halt at 0x1004... layout: 0x1000 jal, 0x1004 nop, 0x1008 halt, 0x100c jr back)
        let p = prog(
            vec![
                Instr::Jal { rd: R15, target: 0x100c },
                Instr::Nop,
                Instr::Halt,
                Instr::Jr { rs1: R15 },
            ],
            vec![],
        );
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        // jal -> jr -> nop -> halt
        assert_eq!(sim.steps(), 4);
        assert_eq!(sim.reg(R15), 0x1004);
    }

    #[test]
    fn unmapped_code_errors() {
        let p = prog(vec![Instr::Jal { rd: R15, target: 0x1004 }, Instr::Jr { rs1: R0 }], vec![]);
        let mut sim = Simulator::new(&p);
        // jal ok, then jr to r0 == 0 leaves code.
        let err = sim.run_to_halt().unwrap_err();
        assert_eq!(err, ExecError::UnmappedCode { pc: 0 });
    }

    #[test]
    fn data_fault_reports_pc() {
        let p = prog(
            vec![Instr::Li { rd: R1, imm: 0x9999 }, Instr::Ld { rd: R2, base: R1, offset: 3 }],
            vec![],
        );
        let mut sim = Simulator::new(&p);
        let err = sim.run_to_halt().unwrap_err();
        assert_eq!(err, ExecError::Mem { pc: 0x1004, source: MemError::Unmapped { addr: 0x999c } });
    }

    #[test]
    fn step_limit_guards_runaway() {
        let p = prog(
            vec![Instr::Branch { cond: Cond::Eq, rs1: R0, rs2: R0, target: 0x1000 }, Instr::Halt],
            vec![],
        );
        let mut sim = Simulator::new(&p);
        let err = sim.run_to_halt_with_limit(100).unwrap_err();
        assert_eq!(err, ExecError::StepLimit { limit: 100 });
    }

    #[test]
    fn step_after_halt_is_none() {
        let p = prog(vec![Instr::Halt], vec![]);
        let mut sim = Simulator::new(&p);
        assert!(sim.step().unwrap().is_some());
        assert!(sim.step().unwrap().is_none());
        assert_eq!(sim.steps(), 1);
    }

    #[test]
    fn resumable_stepping_matches_full_run() {
        let p = prog(
            vec![
                Instr::Li { rd: R1, imm: 3 },
                Instr::Addi { rd: R1, rs1: R1, imm: 10 },
                Instr::Halt,
            ],
            vec![],
        );
        let mut stepped = Simulator::new(&p);
        let mut collected = Vec::new();
        while let Some(step) = stepped.step().unwrap() {
            collected.extend(step.iter());
        }
        let mut full = Simulator::new(&p);
        let trace = full.run_to_halt().unwrap();
        assert_eq!(collected, trace.accesses);
        assert_eq!(stepped.reg(R1), full.reg(R1));
    }

    #[test]
    fn error_display() {
        assert!(ExecError::UnmappedCode { pc: 0x2 }.to_string().contains("0x2"));
        assert!(ExecError::StepLimit { limit: 9 }.to_string().contains('9'));
        let e = ExecError::Mem { pc: 0x4, source: MemError::Unaligned { addr: 0x5 } };
        assert!(e.to_string().contains("unaligned"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
