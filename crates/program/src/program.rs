//! The static image of a task: code, initialized data, loop bounds and
//! input variants.

use std::collections::BTreeMap;
use std::fmt;

use crate::isa::Instr;

/// One contiguous, word-aligned region of initialized data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Symbolic name (for diagnostics).
    pub name: String,
    /// Base byte address (word aligned).
    pub base: u64,
    /// Initial word values; the segment spans `4 * words.len()` bytes.
    pub words: Vec<i32>,
}

impl DataSegment {
    /// One-past-the-end byte address.
    pub fn end(&self) -> u64 {
        self.base + 4 * self.words.len() as u64
    }

    /// `true` if `addr` lies within the segment.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// A named input assignment used to drive one feasible path of a program
/// (paper §VI: per-path memory traces are obtained by simulation, one run
/// per feasible path).
///
/// A variant is a list of word writes applied to data memory before the
/// program starts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InputVariant {
    /// Human-readable variant name (e.g. `"sobel"`, `"cauchy"`).
    pub name: String,
    /// `(byte address, value)` pairs written before execution.
    pub writes: Vec<(u64, i32)>,
}

impl InputVariant {
    /// A variant with a name and no writes.
    pub fn named(name: impl Into<String>) -> Self {
        InputVariant { name: name.into(), writes: Vec::new() }
    }

    /// Adds a word write (builder style).
    pub fn with_write(mut self, addr: u64, value: i32) -> Self {
        self.writes.push((addr, value));
        self
    }
}

/// Errors detected when a [`Program`] is validated at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Two data segments overlap.
    OverlappingSegments {
        /// First segment name.
        first: String,
        /// Second segment name.
        second: String,
    },
    /// A data segment base is not word aligned.
    UnalignedSegment {
        /// Segment name.
        name: String,
        /// Offending base address.
        base: u64,
    },
    /// A branch or jump targets an address outside the code region or not
    /// on an instruction boundary.
    BadTarget {
        /// Address of the offending instruction.
        pc: u64,
        /// The bad target.
        target: u64,
    },
    /// The entry point is outside the code region.
    BadEntry {
        /// The bad entry address.
        entry: u64,
    },
    /// The code region overlaps a data segment.
    CodeDataOverlap {
        /// Offending data segment name.
        name: String,
    },
    /// The program has no instructions.
    EmptyCode,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::OverlappingSegments { first, second } => {
                write!(f, "data segments `{first}` and `{second}` overlap")
            }
            ProgramError::UnalignedSegment { name, base } => {
                write!(f, "data segment `{name}` base {base:#x} is not word aligned")
            }
            ProgramError::BadTarget { pc, target } => {
                write!(f, "instruction at {pc:#x} targets invalid address {target:#x}")
            }
            ProgramError::BadEntry { entry } => {
                write!(f, "entry point {entry:#x} is outside the code region")
            }
            ProgramError::CodeDataOverlap { name } => {
                write!(f, "code region overlaps data segment `{name}`")
            }
            ProgramError::EmptyCode => write!(f, "program has no instructions"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// The static image of a task program.
///
/// Holds the instruction stream (at `code_base`), the initialized data
/// segments, the symbol table, user-declared loop bounds (by loop-header
/// address) and the input variants that drive its feasible paths.
///
/// Programs are produced by the [assembler](crate::asm::assemble) or the
/// [`ProgramBuilder`](crate::builder::ProgramBuilder) and consumed by the
/// [`Simulator`](crate::sim::Simulator) and the
/// [`Cfg`](crate::cfg::Cfg) extractor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    code_base: u64,
    code: Vec<Instr>,
    data: Vec<DataSegment>,
    entry: u64,
    symbols: BTreeMap<String, u64>,
    loop_bounds: BTreeMap<u64, u32>,
    variants: Vec<InputVariant>,
}

impl Program {
    /// Assembles the parts into a validated program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if segments overlap, alignment is
    /// violated, a static branch target is invalid, or the entry point is
    /// outside the code.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        code_base: u64,
        code: Vec<Instr>,
        data: Vec<DataSegment>,
        entry: u64,
        symbols: BTreeMap<String, u64>,
        loop_bounds: BTreeMap<u64, u32>,
        variants: Vec<InputVariant>,
    ) -> Result<Self, ProgramError> {
        let mut variants = variants;
        if variants.is_empty() {
            variants.push(InputVariant::named("default"));
        }
        let p = Program {
            name: name.into(),
            code_base,
            code,
            data,
            entry,
            symbols,
            loop_bounds,
            variants,
        };
        p.validate()?;
        Ok(p)
    }

    fn validate(&self) -> Result<(), ProgramError> {
        if self.code.is_empty() {
            return Err(ProgramError::EmptyCode);
        }
        let mut segs: Vec<&DataSegment> = self.data.iter().collect();
        segs.sort_by_key(|s| s.base);
        for s in &segs {
            if !s.base.is_multiple_of(4) {
                return Err(ProgramError::UnalignedSegment { name: s.name.clone(), base: s.base });
            }
        }
        for pair in segs.windows(2) {
            if pair[0].end() > pair[1].base {
                return Err(ProgramError::OverlappingSegments {
                    first: pair[0].name.clone(),
                    second: pair[1].name.clone(),
                });
            }
        }
        let code_end = self.code_end();
        for s in &segs {
            if s.base < code_end && self.code_base < s.end() {
                return Err(ProgramError::CodeDataOverlap { name: s.name.clone() });
            }
        }
        if !self.is_instr_addr(self.entry) {
            return Err(ProgramError::BadEntry { entry: self.entry });
        }
        for (i, instr) in self.code.iter().enumerate() {
            if let Some(t) = instr.target() {
                if !self.is_instr_addr(t) {
                    return Err(ProgramError::BadTarget {
                        pc: self.code_base + i as u64 * Instr::SIZE,
                        target: t,
                    });
                }
            }
        }
        Ok(())
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First byte address of the code region.
    pub fn code_base(&self) -> u64 {
        self.code_base
    }

    /// One-past-the-end byte address of the code region.
    pub fn code_end(&self) -> u64 {
        self.code_base + self.code.len() as u64 * Instr::SIZE
    }

    /// The instruction stream.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` if the program has no instructions (never true for a
    /// validated program).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The entry point address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The initialized data segments.
    pub fn data_segments(&self) -> &[DataSegment] {
        &self.data
    }

    /// The symbol table (label name → address).
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.symbols
    }

    /// Looks up a symbol address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Loop bounds, keyed by loop-header code address.
    pub fn loop_bounds(&self) -> &BTreeMap<u64, u32> {
        &self.loop_bounds
    }

    /// The input variants driving this program's feasible paths. Always
    /// non-empty.
    pub fn variants(&self) -> &[InputVariant] {
        &self.variants
    }

    /// `true` if `addr` is an instruction boundary within the code region.
    pub fn is_instr_addr(&self, addr: u64) -> bool {
        addr >= self.code_base
            && addr < self.code_end()
            && (addr - self.code_base).is_multiple_of(Instr::SIZE)
    }

    /// The instruction at code address `pc`, if valid.
    pub fn instr_at(&self, pc: u64) -> Option<Instr> {
        // Below `code_base` the offset wraps past every index `get`
        // accepts, and `2^64` is a multiple of `Instr::SIZE`, so one
        // alignment test and one bounds check decide `is_instr_addr`.
        let offset = pc.wrapping_sub(self.code_base);
        if !offset.is_multiple_of(Instr::SIZE) {
            return None;
        }
        self.code.get(usize::try_from(offset / Instr::SIZE).ok()?).copied()
    }

    /// The code address of the `idx`-th instruction.
    pub fn addr_of_index(&self, idx: usize) -> u64 {
        self.code_base + idx as u64 * Instr::SIZE
    }

    /// The instruction index of a code address.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not an instruction boundary in this program.
    pub fn index_of_addr(&self, pc: u64) -> usize {
        assert!(self.is_instr_addr(pc), "{pc:#x} is not an instruction address");
        ((pc - self.code_base) / Instr::SIZE) as usize
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program `{}`: {} instrs at {:#x}, {} data segments, {} variants",
            self.name,
            self.code.len(),
            self.code_base,
            self.data.len(),
            self.variants.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::regs::*;
    use crate::isa::{Cond, Instr};

    fn tiny(code: Vec<Instr>) -> Result<Program, ProgramError> {
        Program::new("t", 0x1000, code, vec![], 0x1000, BTreeMap::new(), BTreeMap::new(), vec![])
    }

    #[test]
    fn default_variant_is_added() {
        let p = tiny(vec![Instr::Halt]).unwrap();
        assert_eq!(p.variants().len(), 1);
        assert_eq!(p.variants()[0].name, "default");
    }

    #[test]
    fn rejects_empty_code() {
        assert_eq!(tiny(vec![]).unwrap_err(), ProgramError::EmptyCode);
    }

    #[test]
    fn rejects_bad_entry() {
        let e = Program::new(
            "t",
            0x1000,
            vec![Instr::Halt],
            vec![],
            0x2000,
            BTreeMap::new(),
            BTreeMap::new(),
            vec![],
        )
        .unwrap_err();
        assert_eq!(e, ProgramError::BadEntry { entry: 0x2000 });
    }

    #[test]
    fn rejects_bad_branch_target() {
        let e = tiny(vec![
            Instr::Branch { cond: Cond::Eq, rs1: R1, rs2: R2, target: 0x1006 },
            Instr::Halt,
        ])
        .unwrap_err();
        assert_eq!(e, ProgramError::BadTarget { pc: 0x1000, target: 0x1006 });
    }

    #[test]
    fn rejects_overlapping_segments() {
        let e = Program::new(
            "t",
            0x1000,
            vec![Instr::Halt],
            vec![
                DataSegment { name: "a".into(), base: 0x8000, words: vec![0; 4] },
                DataSegment { name: "b".into(), base: 0x8008, words: vec![0; 4] },
            ],
            0x1000,
            BTreeMap::new(),
            BTreeMap::new(),
            vec![],
        )
        .unwrap_err();
        assert!(matches!(e, ProgramError::OverlappingSegments { .. }));
    }

    #[test]
    fn rejects_code_data_overlap() {
        let e = Program::new(
            "t",
            0x1000,
            vec![Instr::Halt, Instr::Halt],
            vec![DataSegment { name: "a".into(), base: 0x1004, words: vec![0; 2] }],
            0x1000,
            BTreeMap::new(),
            BTreeMap::new(),
            vec![],
        )
        .unwrap_err();
        assert_eq!(e, ProgramError::CodeDataOverlap { name: "a".into() });
    }

    #[test]
    fn rejects_unaligned_segment() {
        let e = Program::new(
            "t",
            0x1000,
            vec![Instr::Halt],
            vec![DataSegment { name: "a".into(), base: 0x8002, words: vec![0] }],
            0x1000,
            BTreeMap::new(),
            BTreeMap::new(),
            vec![],
        )
        .unwrap_err();
        assert_eq!(e, ProgramError::UnalignedSegment { name: "a".into(), base: 0x8002 });
    }

    #[test]
    fn addressing_round_trip() {
        let p = tiny(vec![Instr::Nop, Instr::Nop, Instr::Halt]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.code_end(), 0x100c);
        assert!(p.is_instr_addr(0x1008));
        assert!(!p.is_instr_addr(0x1002));
        assert!(!p.is_instr_addr(0x100c));
        assert_eq!(p.instr_at(0x1008), Some(Instr::Halt));
        assert_eq!(p.instr_at(0x100c), None);
        assert_eq!(p.addr_of_index(2), 0x1008);
        assert_eq!(p.index_of_addr(0x1004), 1);
    }

    #[test]
    fn segment_bounds() {
        let s = DataSegment { name: "a".into(), base: 0x8000, words: vec![1, 2, 3] };
        assert_eq!(s.end(), 0x800c);
        assert!(s.contains(0x8000));
        assert!(s.contains(0x800b));
        assert!(!s.contains(0x800c));
    }

    #[test]
    fn variant_builder() {
        let v = InputVariant::named("sobel").with_write(0x8000, 1);
        assert_eq!(v.name, "sobel");
        assert_eq!(v.writes, vec![(0x8000, 1)]);
    }

    #[test]
    fn error_display() {
        let e = ProgramError::BadTarget { pc: 0x10, target: 0x33 };
        assert!(e.to_string().contains("0x33"));
    }
}
