//! The TRISC-16 instruction set: a tiny load/store architecture standing in
//! for the paper's ARM9TDMI.
//!
//! Every instruction occupies 4 bytes of code memory, so instruction
//! fetches exercise the instruction-cache side of the analysis exactly as
//! on the paper's target. Data accesses are 32-bit words.

use std::fmt;

/// One of the sixteen general-purpose registers `r0 ..= r15`.
///
/// There is no hard-wired zero register; conventions are left to the
/// program builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 16;

    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub const fn new(n: u8) -> Self {
        assert!(n < Reg::COUNT as u8, "register number out of range");
        Reg(n)
    }

    /// The register number.
    pub const fn number(self) -> u8 {
        self.0
    }

    /// The register number as an index into a `[_; Reg::COUNT]` file.
    /// The mask changes no value, since [`Reg::new`] rejects `n >= 16`,
    /// but it lets the compiler drop the bounds check on every register
    /// read and write of the simulator's run loop.
    pub const fn index(self) -> usize {
        self.0 as usize & (Reg::COUNT - 1)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Convenience constants `R0 ..= R15`.
pub mod regs {
    use super::Reg;

    macro_rules! define_regs {
        ($($name:ident = $n:expr;)*) => {
            $(
                #[doc = concat!("Register r", stringify!($n), ".")]
                pub const $name: Reg = Reg::new($n);
            )*
        };
    }

    define_regs! {
        R0 = 0; R1 = 1; R2 = 2; R3 = 3; R4 = 4; R5 = 5; R6 = 6; R7 = 7;
        R8 = 8; R9 = 9; R10 = 10; R11 = 11; R12 = 12; R13 = 13; R14 = 14;
        R15 = 15;
    }
}

/// Comparison used by conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// Evaluates the condition on two signed words.
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
        }
    }

    /// The condition that holds exactly when `self` does not.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Assembly mnemonic suffix (`beq`, `bne`, `blt`, `bge`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
        }
    }
}

/// Binary ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by `rhs & 31`).
    Shl,
    /// Arithmetic shift right (by `rhs & 31`).
    Sra,
    /// Set to 1 if signed less-than, else 0.
    Slt,
}

impl AluOp {
    /// Applies the operation to two signed words.
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => ((a as u32) << (b as u32 & 31)) as i32,
            AluOp::Sra => a >> (b as u32 & 31),
            AluOp::Slt => i32::from(a < b),
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
        }
    }
}

/// A TRISC-16 instruction. Branch and jump targets are absolute code byte
/// addresses (the assembler and builder resolve labels before
/// construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `op rd, rs1, rs2` — three-register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `addi rd, rs1, imm` — add a signed immediate.
    Addi {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate.
        imm: i32,
    },
    /// `li rd, imm` — load a full-width immediate.
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate.
        imm: i32,
    },
    /// `ld rd, off(rs1)` — load the word at `rs1 + off`.
    Ld {
        /// Destination.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// `st rs2, off(rs1)` — store `rs2` to the word at `rs1 + off`.
    St {
        /// Value to store.
        src: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// `bCC rs1, rs2, target` — conditional branch to an absolute address.
    Branch {
        /// Comparison.
        cond: Cond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Absolute code byte address.
        target: u64,
    },
    /// `jal rd, target` — store the return address in `rd`, jump.
    Jal {
        /// Link register.
        rd: Reg,
        /// Absolute code byte address.
        target: u64,
    },
    /// `jr rs1` — indirect jump to the address in `rs1`.
    Jr {
        /// Target-holding register.
        rs1: Reg,
    },
    /// `nop` — no operation.
    Nop,
    /// `halt` — stop execution.
    Halt,
}

impl Instr {
    /// Size of every instruction in bytes.
    pub const SIZE: u64 = 4;

    /// `true` for instructions that may divert control flow.
    pub fn is_control_flow(&self) -> bool {
        matches!(self, Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jr { .. } | Instr::Halt)
    }

    /// The static branch/jump target, if this instruction has one.
    pub fn target(&self) -> Option<u64> {
        match self {
            Instr::Branch { target, .. } | Instr::Jal { target, .. } => Some(*target),
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Ld { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Instr::St { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Instr::Branch { cond, rs1, rs2, target } => {
                write!(f, "{} {rs1}, {rs2}, {target:#x}", cond.mnemonic())
            }
            Instr::Jal { rd, target } => write!(f, "jal {rd}, {target:#x}"),
            Instr::Jr { rs1 } => write!(f, "jr {rs1}"),
            Instr::Nop => f.write_str("nop"),
            Instr::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::regs::*;
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.eval(i32::MAX, 1), i32::MIN); // wrapping
        assert_eq!(AluOp::Sub.eval(3, 5), -2);
        assert_eq!(AluOp::Mul.eval(-4, 3), -12);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.eval(1, 4), 16);
        assert_eq!(AluOp::Shl.eval(1, 33), 2); // shift amount masked
        assert_eq!(AluOp::Sra.eval(-16, 2), -4); // arithmetic
        assert_eq!(AluOp::Slt.eval(-1, 0), 1);
        assert_eq!(AluOp::Slt.eval(0, 0), 0);
    }

    #[test]
    fn cond_semantics_and_negation() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(Cond::Ge.eval(0, 0));
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge] {
            for (a, b) in [(0, 0), (1, 2), (-3, 7)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "register number out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(16);
    }

    #[test]
    fn display_round_trips_mnemonics() {
        let i = Instr::Alu { op: AluOp::Add, rd: R1, rs1: R2, rs2: R3 };
        assert_eq!(i.to_string(), "add r1, r2, r3");
        assert_eq!(Instr::Ld { rd: R1, base: R2, offset: 8 }.to_string(), "ld r1, 8(r2)");
        assert_eq!(
            Instr::Branch { cond: Cond::Lt, rs1: R1, rs2: R2, target: 0x40 }.to_string(),
            "blt r1, r2, 0x40"
        );
        assert_eq!(Instr::Halt.to_string(), "halt");
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instr::Halt.is_control_flow());
        assert!(Instr::Jr { rs1: R1 }.is_control_flow());
        assert!(!Instr::Nop.is_control_flow());
        assert_eq!(Instr::Jal { rd: R15, target: 0x10 }.target(), Some(0x10));
        assert_eq!(Instr::Nop.target(), None);
    }
}
