//! TRISC-16: the processor and program substrate of the Tan & Mooney
//! (DATE 2004) WCRT reproduction.
//!
//! The paper obtains per-task memory traces by simulating ARM9TDMI binaries
//! under the XRAY instruction-set simulator. This crate plays that role
//! with a self-contained stack:
//!
//! * [`isa`] — a tiny load/store instruction set (4-byte instructions,
//!   16 registers, word data accesses).
//! * [`asm`] — a two-pass assembler (and a round-tripping disassembler).
//! * [`builder`] — a structured program builder with loops that record
//!   their own iteration bounds (used by the benchmark workloads).
//! * [`sim`] — a resumable instruction-set simulator that emits exact
//!   memory traces (instruction fetches plus data accesses).
//! * [`cfg`](mod@cfg) — basic-block control flow graphs and trace
//!   attribution.
//! * [`paths`] — dominators, natural loops and feasible-path enumeration
//!   (the SFP-Prs path view of the paper's Fig. 4).
//!
//! # Example
//!
//! ```
//! use rtprogram::asm::assemble;
//! use rtprogram::cfg::Cfg;
//! use rtprogram::sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("count", r#"
//!     .text 0x1000
//!     start: li r1, 3
//!     loop:  addi r1, r1, -1
//!            bne r1, r0, loop
//!     .bound loop, 3
//!            halt
//! "#)?;
//! let mut sim = Simulator::new(&program);
//! let trace = sim.run_to_halt()?;
//! assert_eq!(trace.instructions, 1 + 3 * 2 + 1);
//! let cfg = Cfg::from_program(&program);
//! assert_eq!(cfg.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod cfg;
pub mod isa;
pub mod mem;
pub mod paths;
pub mod program;
pub mod sim;

pub use cfg::{BasicBlock, BlockId, Cfg, NodeExecution};
pub use isa::{AluOp, Cond, Instr, Reg};
pub use program::{DataSegment, InputVariant, Program, ProgramError};
pub use sim::{AccessKind, ExecError, MemoryAccess, Simulator, Trace};
