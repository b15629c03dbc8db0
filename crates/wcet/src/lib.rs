//! WCET estimation for TRISC-16 task programs — the role SYMTA \[9\] plays
//! in the paper.
//!
//! Two estimators are provided:
//!
//! * [`estimate_wcet`] — the paper's method: simulate every feasible path
//!   (input variant) against a cold cache and take the slowest
//!   (`cycles = instructions × CPI + misses × Cmiss`). This is what feeds
//!   `C_i` in the WCRT recurrence (Eq. 6/7). Misses are counted by
//!   [`rtcache::ColdLru`], the LRU kernel the useful-block classification
//!   also replays, while the ISS streams each access into it. The
//!   co-simulation's executable cache, `CacheSim`, shares no code with
//!   it; `tests/executable_cache.rs` pins every path's misses and cycles
//!   to a `CacheSim` pass over the same stream.
//! * [`structural_wcet_bound`] — a simulation-free all-accesses-miss bound
//!   from the CFG: longest entry→exit path with loop bodies weighted by
//!   their declared iteration bounds. It always dominates the simulated
//!   estimate and serves as a sanity cross-check.
//!
//! # Example
//!
//! ```
//! use rtcache::CacheGeometry;
//! use rtprogram::asm::assemble;
//! use rtwcet::{estimate_wcet, TimingModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble("t", "li r1, 2\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n")?;
//! let est = estimate_wcet(&p, CacheGeometry::paper_l1(), TimingModel::default())?;
//! assert_eq!(est.instructions, 1 + 2 * 2 + 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use rtcache::{CacheGeometry, ColdLru};
use rtprogram::cfg::Cfg;
use rtprogram::paths::{self, PathEnumError};
use rtprogram::sim::Simulator;
use rtprogram::{ExecError, Instr, Program};

/// The processor timing model: one instruction per `cpi` cycles plus
/// `miss_penalty` cycles per cache miss (the paper's ARM9 setup uses a
/// 20-cycle penalty, varied 10–40 in Tables III/V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingModel {
    /// Cycles per issued instruction.
    pub cpi: u64,
    /// Extra cycles per cache miss (`Cmiss`).
    pub miss_penalty: u64,
}

impl TimingModel {
    /// A model with the given miss penalty and single-cycle issue.
    pub fn with_miss_penalty(miss_penalty: u64) -> Self {
        TimingModel { cpi: 1, miss_penalty }
    }
}

impl Default for TimingModel {
    /// Single-cycle issue, 20-cycle miss penalty (paper Example 6).
    fn default() -> Self {
        TimingModel { cpi: 1, miss_penalty: 20 }
    }
}

impl fmt::Display for TimingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpi={}, Cmiss={}", self.cpi, self.miss_penalty)
    }
}

/// Timing of a single feasible path (input variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantTiming {
    /// Variant name.
    pub name: String,
    /// Cold-cache cycle count.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Cold-cache misses.
    pub misses: u64,
}

/// The result of [`estimate_wcet`]: the worst path plus every path's
/// timing (exposed so callers can see the spread — C-INTERMEDIATE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WcetEstimate {
    /// Worst-case cycles over all feasible paths.
    pub cycles: u64,
    /// Instruction count of the worst path.
    pub instructions: u64,
    /// Miss count of the worst path.
    pub misses: u64,
    /// Name of the worst path's variant.
    pub worst_variant: String,
    /// Per-variant breakdown.
    pub per_variant: Vec<VariantTiming>,
}

/// Errors from WCET estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WcetError {
    /// A path simulation faulted.
    Exec {
        /// The variant that faulted.
        variant: String,
        /// The underlying fault.
        source: ExecError,
    },
    /// Structural analysis failed (irreducible CFG).
    Paths(PathEnumError),
    /// A path's `instructions × cpi + misses × Cmiss`, or the structural
    /// all-miss bound, exceeds `u64`.
    Overflow {
        /// The variant whose cycle count overflowed; `None` for the
        /// structural bound, which spans every path.
        variant: Option<String>,
    },
}

impl fmt::Display for WcetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcetError::Exec { variant, source } => {
                write!(f, "simulating variant `{variant}`: {source}")
            }
            WcetError::Paths(e) => write!(f, "structural analysis: {e}"),
            WcetError::Overflow { variant: Some(variant) } => {
                write!(f, "variant `{variant}`: cycle count overflows 64 bits")
            }
            WcetError::Overflow { variant: None } => write!(f, "cycle count overflows 64 bits"),
        }
    }
}

impl std::error::Error for WcetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WcetError::Exec { source, .. } => Some(source),
            WcetError::Paths(e) => Some(e),
            WcetError::Overflow { .. } => None,
        }
    }
}

impl From<PathEnumError> for WcetError {
    fn from(e: PathEnumError) -> Self {
        WcetError::Paths(e)
    }
}

/// Simulates one variant against a cold cache and returns its timing:
/// one ISS pass, each access replayed through [`ColdLru`] as it is made.
///
/// # Errors
///
/// Returns [`WcetError::Exec`] if the simulation faults and
/// [`WcetError::Overflow`] if the cycle count exceeds `u64`.
pub fn time_variant(
    program: &Program,
    variant_index: usize,
    geometry: CacheGeometry,
    model: TimingModel,
) -> Result<VariantTiming, WcetError> {
    let variant = &program.variants()[variant_index];
    let wrap = |source: ExecError| WcetError::Exec { variant: variant.name.clone(), source };
    let mut sim = Simulator::with_variant(program, variant)
        .map_err(|source| wrap(ExecError::Mem { pc: program.entry(), source }))?;
    let mut cache = ColdLru::new(geometry);
    let mut misses = 0u64;
    sim.run_with_limit(rtprogram::sim::DEFAULT_STEP_LIMIT, |access| {
        misses += u64::from(cache.access(geometry.block_of_addr(access.addr)).is_none());
    })
    .map_err(wrap)?;
    let cycles = sim
        .steps()
        .checked_mul(model.cpi)
        .zip(misses.checked_mul(model.miss_penalty))
        .and_then(|(execute, stalls)| execute.checked_add(stalls))
        .ok_or_else(|| WcetError::Overflow { variant: Some(variant.name.clone()) })?;
    Ok(VariantTiming { name: variant.name.clone(), cycles, instructions: sim.steps(), misses })
}

/// Estimates the WCET of a program: the slowest feasible path under a
/// cold cache (the paper's SYMTA-style simulation method, §III-A).
///
/// # Errors
///
/// Returns [`WcetError::Exec`] if any variant's simulation faults and
/// [`WcetError::Overflow`] if a variant's cycle count exceeds `u64`.
pub fn estimate_wcet(
    program: &Program,
    geometry: CacheGeometry,
    model: TimingModel,
) -> Result<WcetEstimate, WcetError> {
    let mut per_variant = Vec::with_capacity(program.variants().len());
    for i in 0..program.variants().len() {
        per_variant.push(time_variant(program, i, geometry, model)?);
    }
    let worst = per_variant
        .iter()
        .max_by_key(|v| v.cycles)
        .expect("programs always have at least one variant")
        .clone();
    Ok(WcetEstimate {
        cycles: worst.cycles,
        instructions: worst.instructions,
        misses: worst.misses,
        worst_variant: worst.name,
        per_variant,
    })
}

/// A structural, simulation-free WCET bound: every access (fetch and
/// load/store) is charged a miss, block costs are weighted by loop
/// iteration factors, and the longest entry→exit path of the
/// back-edge-free CFG is taken.
///
/// The bound is loose but sound for any cache contents, so
/// `structural_wcet_bound >= estimate_wcet(...).cycles` always holds; the
/// test suite checks this on every benchmark workload.
///
/// Loops without a declared bound are assumed to iterate `default_bound`
/// times.
///
/// # Errors
///
/// Returns [`WcetError::Paths`] for irreducible control flow and
/// [`WcetError::Overflow`] if the bound exceeds `u64`.
pub fn structural_wcet_bound(
    program: &Program,
    model: TimingModel,
    default_bound: u32,
) -> Result<u64, WcetError> {
    let cfg = Cfg::from_program(program);
    let loops = paths::natural_loops(&cfg, program)?;
    let factors = paths::iteration_factors(&cfg, &loops, default_bound);
    let overflow = || WcetError::Overflow { variant: None };
    // Per-block all-miss cost.
    let cost: Vec<u64> = cfg
        .blocks()
        .iter()
        .zip(&factors)
        .map(|(block, factor)| {
            let instrs = block.instr_count();
            let ldst = block
                .addrs()
                .filter_map(|a| program.instr_at(a))
                .filter(|i| matches!(i, Instr::Ld { .. } | Instr::St { .. }))
                .count() as u64;
            let execute = instrs.checked_mul(model.cpi);
            let stalls = (instrs + ldst).checked_mul(model.miss_penalty);
            execute
                .zip(stalls)
                .and_then(|(execute, stalls)| execute.checked_add(stalls))
                .and_then(|per_pass| per_pass.checked_mul(*factor))
                .ok_or_else(overflow)
        })
        .collect::<Result<_, _>>()?;
    // Longest path over the residual DAG via DFS with memoization (the
    // graph is acyclic after back-edge removal, which natural_loops
    // verified).
    let back_edges: std::collections::BTreeSet<(rtprogram::BlockId, rtprogram::BlockId)> =
        loops.iter().flat_map(|l| l.tails.iter().map(move |t| (*t, l.header))).collect();
    let mut memo: Vec<Option<u64>> = vec![None; cfg.len()];
    let mut stack = vec![cfg.entry()];
    while let Some(&b) = stack.last() {
        if memo[b.index()].is_some() {
            stack.pop();
            continue;
        }
        let succs: Vec<_> =
            cfg.block(b).succs.iter().copied().filter(|s| !back_edges.contains(&(b, *s))).collect();
        let unresolved: Vec<_> =
            succs.iter().copied().filter(|s| memo[s.index()].is_none()).collect();
        if unresolved.is_empty() {
            let tail = succs.iter().map(|s| memo[s.index()].expect("resolved")).max().unwrap_or(0);
            memo[b.index()] = Some(cost[b.index()].checked_add(tail).ok_or_else(overflow)?);
            stack.pop();
        } else {
            stack.extend(unresolved);
        }
    }
    Ok(memo[cfg.entry().index()].expect("entry resolved"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtprogram::asm::assemble;

    fn small_geom() -> CacheGeometry {
        CacheGeometry::new(16, 2, 16).unwrap()
    }

    #[test]
    fn straight_line_exact() {
        // 3 instructions in 0x1000..0x100c span one 16-byte block boundary:
        // fetches touch blocks 0x100 and... all three at 0x1000,0x1004,0x1008
        // share block 0x100 -> 1 miss.
        let p = assemble("t", ".text 0x1000\nnop\nnop\nhalt\n").unwrap();
        let est = estimate_wcet(&p, small_geom(), TimingModel::with_miss_penalty(10)).unwrap();
        assert_eq!(est.instructions, 3);
        assert_eq!(est.misses, 1);
        assert_eq!(est.cycles, 3 + 10);
    }

    #[test]
    fn loop_reuses_code_lines() {
        let p = assemble(
            "t",
            ".text 0x1000\nstart: li r1, 100\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
        )
        .unwrap();
        let est = estimate_wcet(&p, small_geom(), TimingModel::with_miss_penalty(10)).unwrap();
        assert_eq!(est.instructions, 1 + 200 + 1);
        // Code spans 4 instructions = 1 block: a single cold miss.
        assert_eq!(est.misses, 1);
    }

    #[test]
    fn wcet_is_max_over_variants() {
        let p = rtworkloads::edge_detection_with_dim(8);
        let est = estimate_wcet(&p, CacheGeometry::paper_l1(), TimingModel::default()).unwrap();
        assert_eq!(est.per_variant.len(), 2);
        assert_eq!(est.worst_variant, "cauchy", "the cauchy arm is the longer path");
        let max = est.per_variant.iter().map(|v| v.cycles).max().unwrap();
        assert_eq!(est.cycles, max);
        assert!(est.per_variant[0].cycles < est.per_variant[1].cycles);
    }

    #[test]
    fn miss_penalty_scales_cycles() {
        let p = rtworkloads::mobile_robot();
        let g = CacheGeometry::paper_l1();
        let e10 = estimate_wcet(&p, g, TimingModel::with_miss_penalty(10)).unwrap();
        let e40 = estimate_wcet(&p, g, TimingModel::with_miss_penalty(40)).unwrap();
        assert_eq!(e10.instructions, e40.instructions);
        assert_eq!(e40.cycles - e10.cycles, 30 * e10.misses);
    }

    #[test]
    fn cycle_count_overflow_is_a_typed_error() {
        let p = assemble("t", ".text 0x1000\nnop\nnop\nhalt\n").unwrap();
        for model in [
            TimingModel::with_miss_penalty(u64::MAX),
            TimingModel { cpi: u64::MAX, miss_penalty: 0 },
            TimingModel { cpi: u64::MAX / 3, miss_penalty: 1 },
        ] {
            let err = estimate_wcet(&p, small_geom(), model).unwrap_err();
            assert_eq!(err, WcetError::Overflow { variant: Some(p.variants()[0].name.clone()) });
            assert!(err.to_string().contains("overflows"), "{err}");
        }
        // The largest representable count still fits: 3 + 1·(MAX − 3).
        let edge = TimingModel { cpi: 1, miss_penalty: u64::MAX - 3 };
        assert_eq!(estimate_wcet(&p, small_geom(), edge).unwrap().cycles, u64::MAX);
        // The all-miss bound charges all 3 fetches a miss: past u64::MAX
        // it is the same typed error, never a wrapped bound below the WCET.
        let err = structural_wcet_bound(&p, edge, 1).unwrap_err();
        assert_eq!(err, WcetError::Overflow { variant: None });
        assert_eq!(err.to_string(), "cycle count overflows 64 bits");
    }

    #[test]
    fn structural_bound_dominates_simulation_on_all_workloads() {
        let model = TimingModel::default();
        let g = CacheGeometry::paper_l1();
        for p in rtworkloads::experiment1().iter().chain(rtworkloads::experiment2().iter()) {
            let est = estimate_wcet(p, g, model).unwrap();
            let bound = structural_wcet_bound(p, model, 1).unwrap();
            assert!(
                bound >= est.cycles,
                "{}: structural {} < simulated {}",
                p.name(),
                bound,
                est.cycles
            );
        }
    }

    #[test]
    fn structural_bound_counts_loops() {
        let p = assemble(
            "t",
            ".text 0x1000\nstart: li r1, 8\nloop: addi r1, r1, -1\nbne r1, r0, loop\n.bound loop, 8\nhalt\n",
        )
        .unwrap();
        let model = TimingModel { cpi: 1, miss_penalty: 0 };
        let bound = structural_wcet_bound(&p, model, 1).unwrap();
        // 1 (li) + 8 * 2 (loop body) + 1 (halt) instructions.
        assert_eq!(bound, 18);
    }

    #[test]
    fn context_switch_wcet_is_constant_and_small() {
        // The paper's Example 6 measures 1049 cycles on ARM9; ours is of
        // the same order of magnitude under the default model.
        let p = rtworkloads::context_switch();
        let est = estimate_wcet(&p, CacheGeometry::paper_l1(), TimingModel::default()).unwrap();
        assert!(est.cycles > 100 && est.cycles < 2000, "Ccs = {}", est.cycles);
        assert_eq!(est.per_variant.len(), 1);
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = WcetError::Paths(PathEnumError::Irreducible);
        assert!(e.to_string().contains("structural"));
        assert!(e.source().is_some());
    }

    #[test]
    fn timing_model_display() {
        assert_eq!(TimingModel::default().to_string(), "cpi=1, Cmiss=20");
    }
}
