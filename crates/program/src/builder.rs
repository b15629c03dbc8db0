//! A structured builder for TRISC-16 programs.
//!
//! The benchmark workloads are built with this API rather than raw
//! assembly: structured loops record their iteration bounds automatically
//! (the annotations the paper's path analysis relies on), and structured
//! conditionals guarantee well-formed control flow.
//!
//! # Register conventions
//!
//! The builder reserves `r0` as a constant zero: it emits `li r0, 0` as
//! the program's first instruction and uses `r0` in the comparisons behind
//! [`ProgramBuilder::counted_loop`] and unconditional jumps. Builder users
//! must not write `r0`.

use std::collections::BTreeMap;

use crate::isa::regs::R0;
use crate::isa::{AluOp, Cond, Instr, Reg};
use crate::program::{DataSegment, InputVariant, Program, ProgramError};

/// An unresolved code location handed out by [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Structured builder for [`Program`]s.
///
/// ```
/// use rtprogram::builder::ProgramBuilder;
/// use rtprogram::isa::regs::*;
/// use rtprogram::sim::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new("triangle", 0x1000, 0x8000);
/// let out = b.data_space("out", 1);
/// b.li(R2, 0);
/// b.counted_loop(10, R1, |b| {
///     b.add(R2, R2, R1); // r1 counts 10, 9, ..., 1
/// });
/// b.li_addr(R3, out);
/// b.st(R2, R3, 0);
/// let program = b.build()?;
/// let mut sim = Simulator::new(&program);
/// sim.run_to_halt()?;
/// assert_eq!(sim.memory().read(out)?, 55);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    code_base: u64,
    data_cursor: u64,
    instrs: Vec<Instr>,
    /// `(instruction index, label)` pairs awaiting target resolution.
    fixups: Vec<(usize, Label)>,
    /// Label id → resolved code address.
    labels: Vec<Option<u64>>,
    segments: Vec<DataSegment>,
    /// `(loop head label, bound)` pairs.
    bounds: Vec<(Label, u32)>,
    symbols: BTreeMap<String, u64>,
    variants: Vec<InputVariant>,
}

impl ProgramBuilder {
    /// Starts a program with code at `code_base` and the data cursor at
    /// `data_base`. Emits the `li r0, 0` zero-register prologue.
    pub fn new(name: impl Into<String>, code_base: u64, data_base: u64) -> Self {
        let mut b = ProgramBuilder {
            name: name.into(),
            code_base,
            data_cursor: data_base,
            instrs: Vec::new(),
            fixups: Vec::new(),
            labels: Vec::new(),
            segments: Vec::new(),
            bounds: Vec::new(),
            symbols: BTreeMap::new(),
            variants: Vec::new(),
        };
        b.li(R0, 0);
        b
    }

    /// The address the next emitted instruction will occupy.
    pub fn here(&self) -> u64 {
        self.code_base + self.instrs.len() as u64 * Instr::SIZE
    }

    // ---- data ----------------------------------------------------------

    /// Places an initialized data segment at the data cursor and returns
    /// its base address. The name is recorded as a symbol.
    pub fn data_words(&mut self, name: impl Into<String>, words: &[i32]) -> u64 {
        let name = name.into();
        let base = self.data_cursor;
        self.data_cursor += 4 * words.len() as u64;
        self.symbols.insert(name.clone(), base);
        self.segments.push(DataSegment { name, base, words: words.to_vec() });
        base
    }

    /// Places a zero-initialized segment of `words` words and returns its
    /// base address.
    pub fn data_space(&mut self, name: impl Into<String>, words: usize) -> u64 {
        self.data_words(name, &vec![0; words])
    }

    /// Moves the data cursor to an explicit address (e.g. to force a
    /// particular cache-index alignment).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word aligned or moves the cursor backwards.
    #[cfg(test)]
    pub fn data_align_to(&mut self, addr: u64) {
        assert!(addr.is_multiple_of(4), "data cursor must stay word aligned");
        assert!(addr >= self.data_cursor, "data cursor cannot move backwards");
        self.data_cursor = addr;
    }

    // ---- labels --------------------------------------------------------

    /// Creates a fresh, unplaced label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current code address.
    ///
    /// # Panics
    ///
    /// Panics if the label was already placed.
    pub fn place(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label placed twice");
        self.labels[label.0] = Some(self.here());
    }

    /// Declares the iteration bound of a hand-rolled loop whose header is
    /// at `label`. [`ProgramBuilder::counted_loop`] records its own bound;
    /// use this for loops with data-dependent trip counts (the bound is
    /// the worst case, as a WCET tool requires).
    pub fn declare_loop_bound(&mut self, label: Label, bound: u32) {
        self.bounds.push((label, bound));
    }

    // ---- raw instructions ----------------------------------------------

    /// Emits a raw instruction.
    pub fn emit(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    /// `op rd, rs1, rs2`.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instr::Alu { op, rd, rs1, rs2 });
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Add, rd, rs1, rs2);
    }

    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Sub, rd, rs1, rs2);
    }

    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Mul, rd, rs1, rs2);
    }

    /// `and rd, rs1, rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::And, rd, rs1, rs2);
    }

    /// `or rd, rs1, rs2`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Or, rd, rs1, rs2);
    }

    /// `xor rd, rs1, rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Xor, rd, rs1, rs2);
    }

    /// `shl rd, rs1, rs2`.
    pub fn shl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Shl, rd, rs1, rs2);
    }

    /// `sra rd, rs1, rs2`.
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Sra, rd, rs1, rs2);
    }

    /// `slt rd, rs1, rs2`.
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.alu(AluOp::Slt, rd, rs1, rs2);
    }

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instr::Addi { rd, rs1, imm });
    }

    /// `li rd, imm`.
    pub fn li(&mut self, rd: Reg, imm: i32) {
        self.emit(Instr::Li { rd, imm });
    }

    /// `li rd, addr` for a data address.
    ///
    /// # Panics
    ///
    /// Panics if the address does not fit in a 32-bit immediate.
    pub fn li_addr(&mut self, rd: Reg, addr: u64) {
        assert!(addr <= u32::MAX as u64, "address {addr:#x} exceeds the 32-bit register width");
        self.li(rd, addr as u32 as i32);
    }

    /// `ld rd, offset(base)`.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i32) {
        self.emit(Instr::Ld { rd, base, offset });
    }

    /// `st src, offset(base)`.
    pub fn st(&mut self, src: Reg, base: Reg, offset: i32) {
        self.emit(Instr::St { src, base, offset });
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.emit(Instr::Nop);
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: Cond, rs1: Reg, rs2: Reg, label: Label) {
        self.fixups.push((self.instrs.len(), label));
        self.emit(Instr::Branch { cond, rs1, rs2, target: 0 });
    }

    /// Unconditional jump to a label (`beq r0, r0, label`).
    pub fn jump(&mut self, label: Label) {
        self.branch(Cond::Eq, R0, R0, label);
    }

    // ---- structured control flow ----------------------------------------

    /// A loop running exactly `times` iterations. `counter` counts down
    /// from `times` to 1 inside the body. The loop's bound annotation is
    /// recorded automatically.
    ///
    /// The body must not write `counter` or `r0`.
    pub fn counted_loop(&mut self, times: u32, counter: Reg, body: impl FnOnce(&mut Self)) {
        self.li(counter, times as i32);
        let head = self.new_label();
        self.place(head);
        self.bounds.push((head, times));
        body(self);
        self.addi(counter, counter, -1);
        self.branch(Cond::Ne, counter, R0, head);
    }

    /// `if cond(rs1, rs2) { then_body }`.
    pub fn if_then(&mut self, cond: Cond, rs1: Reg, rs2: Reg, then_body: impl FnOnce(&mut Self)) {
        let skip = self.new_label();
        self.branch(cond.negate(), rs1, rs2, skip);
        then_body(self);
        self.place(skip);
    }

    /// `if cond(rs1, rs2) { then_body } else { else_body }`.
    pub fn if_else(
        &mut self,
        cond: Cond,
        rs1: Reg,
        rs2: Reg,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let else_label = self.new_label();
        let end = self.new_label();
        self.branch(cond.negate(), rs1, rs2, else_label);
        then_body(self);
        self.jump(end);
        self.place(else_label);
        else_body(self);
        self.place(end);
    }

    // ---- variants & build ------------------------------------------------

    /// Registers an input variant.
    pub fn variant(&mut self, variant: InputVariant) {
        self.variants.push(variant);
    }

    /// Appends `halt`, resolves labels and validates the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if validation fails.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never placed.
    pub fn build(mut self) -> Result<Program, ProgramError> {
        self.emit(Instr::Halt);
        for (idx, label) in &self.fixups {
            let target = self.labels[label.0].expect("branch to a label that was never placed");
            match &mut self.instrs[*idx] {
                Instr::Branch { target: t, .. } | Instr::Jal { target: t, .. } => *t = target,
                other => unreachable!("fixup on non-control instruction {other}"),
            }
        }
        let loop_bounds = self
            .bounds
            .iter()
            .map(|(label, n)| (self.labels[label.0].expect("loop head label placed"), *n))
            .collect();
        Program::new(
            self.name,
            self.code_base,
            self.instrs,
            self.segments,
            self.code_base,
            self.symbols,
            loop_bounds,
            self.variants,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::regs::*;
    use crate::sim::Simulator;

    #[test]
    fn counted_loop_runs_exact_iterations() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let out = b.data_space("out", 1);
        b.li(R2, 0);
        b.counted_loop(7, R1, |b| {
            b.addi(R2, R2, 1);
        });
        b.li_addr(R3, out);
        b.st(R2, R3, 0);
        let p = b.build().unwrap();
        assert_eq!(p.loop_bounds().len(), 1);
        assert_eq!(*p.loop_bounds().values().next().unwrap(), 7);
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        assert_eq!(sim.memory().read(out).unwrap(), 7);
    }

    #[test]
    fn nested_loops() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let out = b.data_space("out", 1);
        b.li(R3, 0);
        b.counted_loop(4, R1, |b| {
            b.counted_loop(5, R2, |b| {
                b.addi(R3, R3, 1);
            });
        });
        b.li_addr(R4, out);
        b.st(R3, R4, 0);
        let p = b.build().unwrap();
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        assert_eq!(sim.memory().read(out).unwrap(), 20);
    }

    #[test]
    fn if_else_takes_correct_arm() {
        for (input, expected) in [(3, 100), (9, 200)] {
            let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
            let out = b.data_space("out", 1);
            b.li(R1, input);
            b.li(R2, 5);
            b.if_else(Cond::Lt, R1, R2, |b| b.li(R3, 100), |b| b.li(R3, 200));
            b.li_addr(R4, out);
            b.st(R3, R4, 0);
            let p = b.build().unwrap();
            let mut sim = Simulator::new(&p);
            sim.run_to_halt().unwrap();
            assert_eq!(sim.memory().read(out).unwrap(), expected, "input {input}");
        }
    }

    #[test]
    fn if_then_skips_when_false() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let out = b.data_space("out", 1);
        b.li(R1, 1);
        b.li(R3, 7);
        b.if_then(Cond::Eq, R1, R0, |b| b.li(R3, 99));
        b.li_addr(R4, out);
        b.st(R3, R4, 0);
        let p = b.build().unwrap();
        let mut sim = Simulator::new(&p);
        sim.run_to_halt().unwrap();
        assert_eq!(sim.memory().read(out).unwrap(), 7);
    }

    #[test]
    fn data_layout_and_symbols() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let a = b.data_words("a", &[1, 2]);
        let c = b.data_space("c", 3);
        b.data_align_to(0x9000);
        let d = b.data_words("d", &[9]);
        b.nop();
        let p = b.build().unwrap();
        assert_eq!(a, 0x8000);
        assert_eq!(c, 0x8008);
        assert_eq!(d, 0x9000);
        assert_eq!(p.symbol("a"), Some(0x8000));
        assert_eq!(p.symbol("d"), Some(0x9000));
    }

    #[test]
    fn zero_register_prologue() {
        let b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let p = b.build().unwrap();
        assert_eq!(p.code()[0], Instr::Li { rd: R0, imm: 0 });
        assert_eq!(*p.code().last().unwrap(), Instr::Halt);
    }

    #[test]
    #[should_panic(expected = "label placed twice")]
    fn double_place_panics() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let l = b.new_label();
        b.place(l);
        b.place(l);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn unplaced_label_panics_at_build() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let l = b.new_label();
        b.jump(l);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn data_cursor_backwards_panics() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        b.data_space("x", 4);
        b.data_align_to(0x8000);
    }

    #[test]
    fn variants_recorded() {
        let mut b = ProgramBuilder::new("t", 0x1000, 0x8000);
        let flag = b.data_space("flag", 1);
        b.variant(InputVariant::named("on").with_write(flag, 1));
        b.variant(InputVariant::named("off").with_write(flag, 0));
        b.nop();
        let p = b.build().unwrap();
        assert_eq!(p.variants().len(), 2);
        assert_eq!(p.variants()[0].name, "on");
    }
}
