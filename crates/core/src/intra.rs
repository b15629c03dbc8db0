//! Intra-task cache access analysis: *useful memory blocks* (paper §IV,
//! after Lee et al. \[21\]).
//!
//! A memory block of the preempted task can only cause reload overhead if
//! it is in the cache at the preemption point **and** is referenced again
//! afterwards while it would still have been resident (otherwise it would
//! have been evicted anyway and the preemption adds nothing). Two
//! implementations are provided:
//!
//! * [`UsefulTrace`] — an **exact** per-execution-point computation over a
//!   concrete memory trace. The key observation: under LRU, a block is
//!   useful at point `t` exactly when its next access after `t` is a hit
//!   in the unpreempted run (a hit at `t'` implies residency over the
//!   whole interval, and a next-access miss means the block would have
//!   been evicted regardless). One forward cache simulation plus one
//!   backward sweep yields `useful(t)` incrementally for every instruction
//!   boundary.
//! * [`dataflow_useful`] — the RMB/LMB abstract-interpretation formulation
//!   of Lee's paper: reaching memory blocks (forward may-analysis of LRU
//!   ages) intersected with living memory blocks (backward may-analysis of
//!   first-`L`-distinct future references), evaluated at basic-block
//!   entries. It over-approximates the exact sweep and is kept for
//!   fidelity to \[21\] and for tightness ablations.

use std::collections::{BTreeMap, BTreeSet};

use rtcache::{CacheGeometry, CacheSim, Ciip, MemoryBlock, PackedFootprint, SetIndex};
use rtprogram::cfg::{BlockId, Cfg};
use rtprogram::sim::Trace;
use rtprogram::Program;

use crate::AnalysisError;

/// Safety valve for pathological traces: beyond this many surviving
/// Pareto points the skyline is abandoned (the exact sweep remains as
/// fallback) so construction cost stays bounded.
const MAX_SKYLINE_POINTS: usize = 1024;

/// Upper bound on candidate peaks examined before giving up, bounding
/// worst-case build cost at `MAX_SKYLINE_CANDIDATES * MAX_SKYLINE_POINTS`
/// byte-vector comparisons.
const MAX_SKYLINE_CANDIDATES: usize = 1 << 16;

/// The dominance-pruned Pareto front of a trace's per-point saturated
/// useful-count vectors: every execution point's packed vector is
/// element-wise `<=` some retained point, so maximizing any monotone
/// per-set objective (Eq. 3's `S(useful(t), Mb)` for *every* preemptor
/// `Mb`) over the retained points equals maximizing over all points.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Skyline {
    /// Pareto-maximal packed vectors, in (deterministic) build order.
    points: Vec<PackedFootprint>,
    /// Candidate peaks the build examined, including pruned ones.
    candidates: usize,
}

/// A memory trace reduced to block granularity with per-access hit flags
/// from a cold-cache LRU simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsefulTrace {
    geometry: CacheGeometry,
    /// `(block, next-run-is-hit)` per access, in program order.
    accesses: Vec<(MemoryBlock, bool)>,
    /// Dominance-pruned packed vectors for the fast Eq. 3 maximum;
    /// `None` when the geometry does not pack (`L > 255`) or the trace
    /// blew the skyline size caps — callers fall back to the exact
    /// sweep. A deterministic function of `(geometry, accesses)`.
    skyline: Option<Skyline>,
}

impl UsefulTrace {
    /// Simulates `trace` against a cold cache and records each access's
    /// hit/miss outcome. With an `rtobs` recorder installed, the cold
    /// simulation's per-set hit/miss/eviction tallies are flushed into
    /// the recorder.
    pub fn from_trace(trace: &Trace, geometry: CacheGeometry) -> Self {
        let mut cache = CacheSim::new(geometry);
        let accesses = trace
            .accesses
            .iter()
            .map(|a| {
                let block = geometry.block_of_addr(a.addr);
                (block, cache.access_block(block).is_hit())
            })
            .collect();
        cache.flush_set_stats();
        let mut trace = UsefulTrace { geometry, accesses, skyline: None };
        trace.skyline = trace.build_skyline();
        trace
    }

    /// Rebuilds a trace from an already-classified access sequence, as
    /// produced by [`UsefulTrace::accesses`]. The skyline is a
    /// deterministic function of `(geometry, accesses)`, so the result
    /// is indistinguishable from the [`from_trace`] original. This is
    /// the trace half of the artifact's deterministic core (see
    /// [`AnalyzedProgram::from_parts`](crate::AnalyzedProgram::from_parts)),
    /// which perfbench's traced `cold_paper` op rebuilds.
    ///
    /// [`from_trace`]: UsefulTrace::from_trace
    pub fn from_accesses(geometry: CacheGeometry, accesses: Vec<(MemoryBlock, bool)>) -> Self {
        let mut trace = UsefulTrace { geometry, accesses, skyline: None };
        trace.skyline = trace.build_skyline();
        trace
    }

    /// The classified access sequence: `(block, hit)` in execution
    /// order. Together with the geometry this is the trace's entire
    /// identity, its deterministic core (see
    /// [`UsefulTrace::from_accesses`]).
    pub fn accesses(&self) -> &[(MemoryBlock, bool)] {
        &self.accesses
    }

    /// Builds the dominance-pruned skyline of the trace's per-point
    /// saturated useful-count vectors in one extra backward sweep.
    ///
    /// Only "peaks" — vectors about to lose a line, plus the final state
    /// — are candidates: between two peaks the vector only grows, so
    /// every interior point is dominated by the peak that follows it in
    /// sweep order. Each candidate is then checked against the retained
    /// front (with a line-bound-sum prefilter) and dominated retained
    /// points are evicted in turn.
    fn build_skyline(&self) -> Option<Skyline> {
        let _span = rtobs::span("ciip_pack");
        let ways = usize::try_from(self.geometry.ways()).ok().filter(|w| *w <= 255)?;
        let mut current = vec![0u8; self.geometry.sets() as usize];
        let mut sum = 0usize;
        // `true` while `current` has grown since the last emitted peak.
        let mut dirty = false;
        let mut candidates = 0usize;
        let mut points: Vec<PackedFootprint> = Vec::new();
        // Line bounds of `points`, kept alongside as the cheap dominance
        // prefilter (element-wise dominance implies sum dominance).
        let mut sums: Vec<usize> = Vec::new();
        let mut overflow = false;
        let mut emit = |current: &[u8], sum: usize, candidates: &mut usize| {
            *candidates += 1;
            if *candidates > MAX_SKYLINE_CANDIDATES {
                return false;
            }
            let dominated = points.iter().zip(&sums).any(|(p, s)| {
                *s >= sum && p.counts().iter().zip(current).all(|(have, new)| have >= new)
            });
            if dominated {
                return true;
            }
            let mut i = 0;
            while i < points.len() {
                let beaten = sums[i] <= sum
                    && points[i].counts().iter().zip(current).all(|(have, new)| have <= new);
                if beaten {
                    points.swap_remove(i);
                    sums.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            let indexed =
                current.iter().enumerate().map(|(r, c)| (SetIndex::new(r as u32), *c as usize));
            points.push(
                PackedFootprint::from_counts(self.geometry, indexed)
                    .expect("ways checked to fit u8 above"),
            );
            sums.push(sum);
            points.len() <= MAX_SKYLINE_POINTS
        };
        self.sweep(|_pos, set, old, new| {
            if overflow {
                return;
            }
            let sold = old.min(ways);
            let snew = new.min(ways);
            if snew == sold {
                return;
            }
            if snew > sold {
                dirty = true;
            } else if dirty {
                // About to shrink a grown vector: it is a Pareto peak.
                overflow = !emit(&current, sum, &mut candidates);
                dirty = false;
            }
            current[set.as_usize()] = snew as u8;
            sum = sum + snew - sold;
        });
        if !overflow && dirty {
            overflow = !emit(&current, sum, &mut candidates);
        }
        if overflow {
            return None;
        }
        let kept = points.len();
        let pruned = candidates - kept;
        rtobs::record_skyline_points(kept as u64, pruned as u64);
        Some(Skyline { points, candidates })
    }

    /// The geometry the trace was simulated under.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of accesses (and hence execution points: one before each
    /// access).
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The distinct memory blocks of the whole trace (the task's `M`).
    pub fn all_blocks(&self) -> Ciip {
        Ciip::from_blocks(self.geometry, self.accesses.iter().map(|(b, _)| *b))
    }

    /// Runs the backward sweep, reporting `(position, set, old, new)`
    /// per-set useful-count changes to `visit`; `visit` is called after
    /// each access position's update, at which point the maintained counts
    /// describe `useful(position)` (the state just before that access
    /// executes).
    fn sweep(&self, mut visit: impl FnMut(usize, SetIndex, usize, usize)) {
        // BTreeMaps, not HashMaps: everything observable about the sweep
        // must be a pure function of the trace so that repeated analyses of
        // one program produce byte-identical artifacts (the server memoizes
        // and compares them across requests).
        let mut status: BTreeMap<MemoryBlock, bool> = BTreeMap::new();
        let mut counts: BTreeMap<SetIndex, usize> = BTreeMap::new();
        for (pos, (block, hit)) in self.accesses.iter().enumerate().rev() {
            let set = self.geometry.index_of_block(*block);
            let was = status.insert(*block, *hit).unwrap_or(false);
            if was != *hit {
                let count = counts.entry(set).or_insert(0);
                let old = *count;
                if *hit {
                    *count += 1;
                } else {
                    *count -= 1;
                }
                visit(pos, set, old, *count);
            } else {
                let current = counts.get(&set).copied().unwrap_or(0);
                visit(pos, set, current, current);
            }
        }
    }

    /// The maximum over all execution points of the reload bound
    /// `Σ_r min(|useful_r|, L)` — Approach 3's per-task count for this
    /// path — together with the position where it occurs.
    pub fn max_line_bound(&self) -> (usize, usize) {
        let ways = self.geometry.ways() as usize;
        let mut total = 0usize;
        let mut best = (0usize, 0usize);
        self.sweep(|pos, _set, old, new| {
            total = total - old.min(ways) + new.min(ways);
            if total > best.0 {
                best = (total, pos);
            }
        });
        best
    }

    /// Approach 3's per-path count `max_t Σ_r min(|useful_r(t)|, L)` —
    /// identical to [`UsefulTrace::max_line_bound`]`.0`, but read off the
    /// skyline instead of re-running the backward sweep. Every execution
    /// point's saturated vector is element-wise `<=` some retained point,
    /// the line bound is monotone in that order, and every retained point
    /// is itself an execution point, so the largest retained line bound
    /// is the exact maximum. Traces without a skyline run the sweep.
    pub fn peak_line_bound(&self) -> usize {
        if let Some(skyline) = &self.skyline {
            return skyline.points.iter().map(PackedFootprint::line_bound).max().unwrap_or(0);
        }
        self.max_line_bound().0
    }

    /// The maximum over all execution points of the inter-task bound
    /// `S(useful(t), Mb)` of Eq. 3/4 against a preempting footprint `mb` —
    /// the combined approach's per-path count.
    ///
    /// # Panics
    ///
    /// Panics if `mb` was built for a different geometry.
    pub fn max_overlap_bound(&self, mb: &Ciip) -> (usize, usize) {
        assert_eq!(self.geometry, mb.geometry(), "geometry mismatch");
        let ways = self.geometry.ways() as usize;
        let mut total = 0usize;
        let mut best = (0usize, 0usize);
        self.sweep(|pos, set, old, new| {
            let limit = mb.subset_len(set).min(ways);
            total = total - old.min(limit) + new.min(limit);
            if total > best.0 {
                best = (total, pos);
            }
        });
        best
    }

    /// The maximum Eq. 3/4 bound `max_t S(useful(t), mb)` against a
    /// packed preempting footprint — identical to
    /// [`UsefulTrace::max_overlap_bound`]`.0` for the footprint `mb` was
    /// packed from, but evaluated over the dominance-pruned skyline
    /// instead of the full backward sweep. Traces without a skyline (the
    /// build blew its size caps) run the exact sweep against `mb`'s
    /// saturated per-set counts, which is all the sweep ever reads.
    ///
    /// Note the skyline carries no execution points: callers needing the
    /// maximizing *position* (per-set attribution, MUMBS extraction) must
    /// use [`UsefulTrace::max_overlap_bound`].
    ///
    /// # Panics
    ///
    /// Panics if `mb` was packed for a different geometry.
    pub fn max_packed_overlap(&self, mb: &PackedFootprint) -> usize {
        assert_eq!(self.geometry, mb.geometry(), "geometry mismatch");
        if let Some(skyline) = &self.skyline {
            return skyline.points.iter().map(|p| p.overlap_bound(mb)).max().unwrap_or(0);
        }
        // Exact fallback: same arithmetic as `max_overlap_bound`, whose
        // per-set limit `min(|m̂b,r|, L)` is exactly `mb`'s stored count.
        let mut total = 0usize;
        let mut best = 0usize;
        self.sweep(|_pos, set, old, new| {
            let limit = mb.count(set) as usize;
            total = total - old.min(limit) + new.min(limit);
            best = best.max(total);
        });
        best
    }

    /// Number of Pareto-maximal points the skyline retained, if one was
    /// built.
    pub fn skyline_kept(&self) -> Option<usize> {
        self.skyline.as_ref().map(|s| s.points.len())
    }

    /// Number of candidate peaks the skyline build examined (kept +
    /// pruned), if one was built.
    pub fn skyline_candidates(&self) -> Option<usize> {
        self.skyline.as_ref().map(|s| s.candidates)
    }

    /// Materializes the useful-block set at execution point `pos` (just
    /// before access `pos` executes).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    pub fn useful_at(&self, pos: usize) -> Ciip {
        assert!(pos < self.accesses.len(), "execution point out of range");
        // Replay the backward sweep down to `pos` and collect the set. The
        // ordered map keeps the Ciip input order — and hence every
        // downstream artifact — independent of hasher state.
        let mut status: BTreeMap<MemoryBlock, bool> = BTreeMap::new();
        for (block, hit) in self.accesses.iter().skip(pos).rev() {
            status.insert(*block, *hit);
        }
        Ciip::from_blocks(
            self.geometry,
            status.iter().filter(|(_, useful)| **useful).map(|(b, _)| *b),
        )
    }

    /// The Maximum Useful Memory Blocks Set of this path (paper
    /// Definition 4): the useful set at the execution point maximizing the
    /// reload bound.
    pub fn mumbs(&self) -> Ciip {
        if self.accesses.is_empty() {
            return Ciip::empty(self.geometry);
        }
        let (_, pos) = self.max_line_bound();
        self.useful_at(pos)
    }
}

// ---------------------------------------------------------------------------
// RMB/LMB dataflow formulation (Lee [21]), kept for fidelity and ablation.
// ---------------------------------------------------------------------------

/// An abstract LRU cache state: block → minimal possible age (RMB) or
/// minimal possible future-distinctness rank (LMB). Blocks at age/rank
/// `>= L` are dropped.
type AbstractState = BTreeMap<MemoryBlock, u8>;

/// The single-reference LRU update shared by the forward (RMB) and
/// backward (LMB) transfer functions.
fn lru_update(state: &mut AbstractState, block: MemoryBlock, geometry: CacheGeometry) {
    let ways = geometry.ways() as u8;
    let set = geometry.index_of_block(block);
    let old_age = state.get(&block).copied();
    let mut evicted = Vec::new();
    for (b, age) in state.iter_mut() {
        if *b == block || geometry.index_of_block(*b) != set {
            continue;
        }
        if old_age.is_none_or(|oa| *age < oa) {
            *age += 1;
            if *age >= ways {
                evicted.push(*b);
            }
        }
    }
    for b in evicted {
        state.remove(&b);
    }
    state.insert(block, 0);
}

/// Pointwise-minimum join (may analysis).
fn join(into: &mut AbstractState, from: &AbstractState) -> bool {
    let mut changed = false;
    for (b, age) in from {
        match into.get_mut(b) {
            Some(cur) if *cur <= *age => {}
            Some(cur) => {
                *cur = *age;
                changed = true;
            }
            None => {
                into.insert(*b, *age);
                changed = true;
            }
        }
    }
    changed
}

/// Per-node reference profile: the distinct block-reference sequences
/// observed across all executions of the node in all variants.
#[derive(Debug, Clone, Default)]
struct NodeSequences {
    seqs: BTreeSet<Vec<MemoryBlock>>,
}

/// The result of the RMB/LMB dataflow analysis: one useful-block set per
/// reachable basic-block entry.
#[derive(Debug, Clone)]
pub struct DataflowUseful {
    geometry: CacheGeometry,
    /// `(block entry, RMB ∩ LMB)` per executed node.
    pub points: Vec<(BlockId, Ciip)>,
}

impl DataflowUseful {
    /// Maximum over node entries of the reload bound `Σ_r min(|u_r|, L)`.
    pub fn max_line_bound(&self) -> usize {
        self.points.iter().map(|(_, c)| c.line_bound()).max().unwrap_or(0)
    }

    /// Maximum over node entries of `S(u, mb)` (Eq. 3).
    pub fn max_overlap_bound(&self, mb: &Ciip) -> usize {
        self.points.iter().map(|(_, c)| c.overlap_bound(mb)).max().unwrap_or(0)
    }

    /// The maximum useful memory blocks set (Definition 4) under this
    /// formulation.
    pub fn mumbs(&self) -> Ciip {
        self.points
            .iter()
            .max_by_key(|(_, c)| c.line_bound())
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| Ciip::empty(self.geometry))
    }
}

/// Runs Lee's RMB/LMB analysis over the program's CFG.
///
/// Node reference behaviour is profiled from one simulation per input
/// variant; nodes whose dynamic executions differ (data-dependent
/// addressing) contribute the join over all observed sequences, which is
/// a sound may-approximation.
///
/// # Errors
///
/// Returns [`AnalysisError`] if a variant simulation faults.
pub fn dataflow_useful(
    program: &Program,
    geometry: CacheGeometry,
) -> Result<DataflowUseful, AnalysisError> {
    let cfg = Cfg::from_program(program);
    let mut profiles: Vec<NodeSequences> = vec![NodeSequences::default(); cfg.len()];
    for variant in program.variants() {
        let trace = rtprogram::sim::trace_variant(program, variant)
            .map_err(|source| AnalysisError::Exec { task: program.name().to_string(), source })?;
        for exec in cfg.attribute(&trace) {
            let seq: Vec<MemoryBlock> =
                exec.accesses.iter().map(|a| geometry.block_of_addr(a.addr)).collect();
            profiles[exec.block.index()].seqs.insert(seq);
        }
    }

    let transfer = |state: &AbstractState, node: usize, reverse: bool| -> AbstractState {
        let seqs = &profiles[node].seqs;
        if seqs.is_empty() {
            return state.clone();
        }
        let mut out = AbstractState::new();
        for seq in seqs {
            let mut s = state.clone();
            if reverse {
                for b in seq.iter().rev() {
                    lru_update(&mut s, *b, geometry);
                }
            } else {
                for b in seq {
                    lru_update(&mut s, *b, geometry);
                }
            }
            join(&mut out, &s);
        }
        out
    };

    // Forward RMB fixpoint: in[v] = ⊔ out[p]; out[v] = transfer(in[v]).
    let _span = rtobs::span("dataflow");
    let n = cfg.len();
    let mut rmb_in: Vec<AbstractState> = vec![AbstractState::new(); n];
    let mut rmb_out: Vec<AbstractState> = vec![AbstractState::new(); n];
    let mut changed = true;
    let mut rounds = 0;
    while changed {
        changed = false;
        rounds += 1;
        assert!(rounds <= 4 * n + 16, "RMB fixpoint failed to converge");
        for v in 0..n {
            let mut input = AbstractState::new();
            for p in cfg.preds(BlockId::from_index(v)) {
                join(&mut input, &rmb_out[p.index()]);
            }
            if input != rmb_in[v] || rounds == 1 {
                rmb_in[v] = input;
                let out = transfer(&rmb_in[v], v, false);
                if out != rmb_out[v] {
                    rmb_out[v] = out;
                    changed = true;
                }
            }
        }
    }

    let rmb_rounds = rounds;

    // Backward LMB fixpoint: out[v] = ⊔ in[s]; in[v] = transfer_rev(out[v]).
    let mut lmb_in: Vec<AbstractState> = vec![AbstractState::new(); n];
    let mut lmb_out: Vec<AbstractState> = vec![AbstractState::new(); n];
    changed = true;
    rounds = 0;
    while changed {
        changed = false;
        rounds += 1;
        assert!(rounds <= 4 * n + 16, "LMB fixpoint failed to converge");
        for v in (0..n).rev() {
            let mut output = AbstractState::new();
            for s in &cfg.block(BlockId::from_index(v)).succs {
                join(&mut output, &lmb_in[s.index()]);
            }
            if output != lmb_out[v] || rounds == 1 {
                lmb_out[v] = output;
                let input = transfer(&lmb_out[v], v, true);
                if input != lmb_in[v] {
                    lmb_in[v] = input;
                    changed = true;
                }
            }
        }
    }

    rtobs::record_dataflow_rounds(rmb_rounds as u64, rounds as u64);

    let points = (0..n)
        .filter(|v| !profiles[*v].seqs.is_empty())
        .map(|v| {
            let useful = rmb_in[v]
                .keys()
                .filter(|b| lmb_in[v].contains_key(*b))
                .copied()
                .collect::<Vec<_>>();
            (BlockId::from_index(v), Ciip::from_blocks(geometry, useful))
        })
        .collect();
    Ok(DataflowUseful { geometry, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtprogram::sim::{AccessKind, MemoryAccess};

    fn geom(sets: u32, ways: u32) -> CacheGeometry {
        CacheGeometry::new(sets, ways, 16).unwrap()
    }

    fn trace_of(blocks: &[u64], geometry: CacheGeometry) -> Trace {
        Trace {
            accesses: blocks
                .iter()
                .map(|b| MemoryAccess {
                    pc: 0,
                    addr: b << geometry.offset_bits(),
                    kind: AccessKind::Load,
                })
                .collect(),
            instructions: blocks.len() as u64,
        }
    }

    #[test]
    fn single_reuse_one_useful_block() {
        // A B A C A with a 1-set 2-way cache: only A ever re-hits; at any
        // point at most one block is useful.
        let g = geom(1, 2);
        let t = UsefulTrace::from_trace(&trace_of(&[0, 1, 0, 2, 0], g), g);
        let (max, _) = t.max_line_bound();
        assert_eq!(max, 1);
        let mumbs = t.mumbs();
        assert_eq!(mumbs.block_count(), 1);
        assert!(mumbs.contains(MemoryBlock::new(0)));
    }

    #[test]
    fn two_live_blocks_both_useful() {
        // A B A B: before the third access both A and B will hit next.
        let g = geom(1, 2);
        let t = UsefulTrace::from_trace(&trace_of(&[0, 1, 0, 1], g), g);
        let (max, pos) = t.max_line_bound();
        assert_eq!(max, 2);
        let useful = t.useful_at(pos);
        assert_eq!(useful.block_count(), 2);
    }

    #[test]
    fn thrashing_blocks_are_never_useful() {
        // Three blocks round-robin in a 2-way set: every access misses, so
        // nothing is ever useful.
        let g = geom(1, 2);
        let t = UsefulTrace::from_trace(&trace_of(&[0, 1, 2, 0, 1, 2, 0, 1, 2], g), g);
        assert_eq!(t.max_line_bound().0, 0);
        assert!(t.mumbs().is_empty());
    }

    #[test]
    fn useful_capped_by_ways_in_line_bound() {
        // Four blocks in different sets, all re-hit: bound counts all 4.
        let g = geom(8, 2);
        let t = UsefulTrace::from_trace(&trace_of(&[0, 1, 2, 3, 0, 1, 2, 3], g), g);
        assert_eq!(t.max_line_bound().0, 4);
    }

    #[test]
    fn overlap_bound_respects_preemptor_footprint() {
        let g = geom(8, 2);
        let t = UsefulTrace::from_trace(&trace_of(&[0, 1, 2, 3, 0, 1, 2, 3], g), g);
        // Preemptor only touches sets 0 and 1.
        let mb = Ciip::from_blocks(g, [MemoryBlock::new(8), MemoryBlock::new(9)]);
        assert_eq!(t.max_overlap_bound(&mb).0, 2);
        let empty = Ciip::empty(g);
        assert_eq!(t.max_overlap_bound(&empty).0, 0);
    }

    #[test]
    fn overlap_never_exceeds_line_bound() {
        let g = geom(4, 2);
        let blocks: Vec<u64> = (0..40).map(|i| (i * 7) % 12).collect();
        let t = UsefulTrace::from_trace(&trace_of(&blocks, g), g);
        let mb = Ciip::from_blocks(g, (0..20u64).map(MemoryBlock::new));
        assert!(t.max_overlap_bound(&mb).0 <= t.max_line_bound().0);
    }

    #[test]
    fn skyline_matches_exact_overlap_on_many_footprints() {
        let g = geom(8, 2);
        // A trace with interleaved reuse so the useful set rises and falls.
        let blocks: Vec<u64> = (0..60).map(|i| (i * 13 + i / 7) % 24).collect();
        let t = UsefulTrace::from_trace(&trace_of(&blocks, g), g);
        assert!(t.skyline_kept().is_some(), "small geometry must pack");
        for seed in 0..16u64 {
            let mb = Ciip::from_blocks(g, (0..10).map(|i| MemoryBlock::new((i * seed + i) % 32)));
            let packed = PackedFootprint::from_ciip(&mb).unwrap();
            assert_eq!(t.max_packed_overlap(&packed), t.max_overlap_bound(&mb).0, "seed {seed}");
        }
    }

    #[test]
    fn skyline_prunes_monotone_traces_to_one_point() {
        // A B A B ...: the useful set only grows during the backward
        // sweep, so a single Pareto peak covers every execution point.
        let g = geom(1, 2);
        let t = UsefulTrace::from_trace(&trace_of(&[0, 1, 0, 1, 0, 1], g), g);
        assert_eq!(t.skyline_kept(), Some(1));
        assert!(t.skyline_candidates().unwrap() >= 1);
        let ciip = Ciip::from_blocks(g, [MemoryBlock::new(7)]);
        let mb = PackedFootprint::from_ciip(&ciip).unwrap();
        assert_eq!(t.max_packed_overlap(&mb), t.max_overlap_bound(&ciip).0);
    }

    #[test]
    fn empty_and_useless_traces_have_empty_skylines() {
        let g = geom(4, 2);
        let empty = UsefulTrace::from_trace(&trace_of(&[], g), g);
        assert_eq!(empty.skyline_kept(), Some(0));
        let mb = PackedFootprint::from_ciip(&Ciip::from_blocks(g, [MemoryBlock::new(0)])).unwrap();
        assert_eq!(empty.max_packed_overlap(&mb), 0);
        // All-miss thrashing: nothing useful, no peaks.
        let thrash = UsefulTrace::from_trace(&trace_of(&[0, 4, 8, 0, 4, 8], g), g);
        assert_eq!(thrash.skyline_kept(), Some(0));
        assert_eq!(thrash.max_packed_overlap(&mb), 0);
    }

    #[test]
    fn all_blocks_collects_footprint() {
        let g = geom(4, 2);
        let t = UsefulTrace::from_trace(&trace_of(&[5, 6, 5, 7], g), g);
        assert_eq!(t.all_blocks().block_count(), 3);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn lru_update_ages_and_evicts() {
        let g = geom(1, 2);
        let mut s = AbstractState::new();
        lru_update(&mut s, MemoryBlock::new(0), g);
        lru_update(&mut s, MemoryBlock::new(1), g);
        assert_eq!(s.get(&MemoryBlock::new(0)), Some(&1));
        assert_eq!(s.get(&MemoryBlock::new(1)), Some(&0));
        lru_update(&mut s, MemoryBlock::new(2), g);
        assert!(!s.contains_key(&MemoryBlock::new(0)), "aged out at L");
        // Re-touching an existing block does not age blocks older than it.
        lru_update(&mut s, MemoryBlock::new(2), g);
        assert_eq!(s.get(&MemoryBlock::new(1)), Some(&1));
    }

    #[test]
    fn join_takes_minimum_age() {
        let mut a = AbstractState::from([(MemoryBlock::new(0), 1)]);
        let b = AbstractState::from([(MemoryBlock::new(0), 0), (MemoryBlock::new(1), 1)]);
        assert!(join(&mut a, &b));
        assert_eq!(a.get(&MemoryBlock::new(0)), Some(&0));
        assert_eq!(a.get(&MemoryBlock::new(1)), Some(&1));
        assert!(!join(&mut a.clone(), &b), "idempotent");
    }

    #[test]
    fn dataflow_on_loop_program_marks_loop_blocks_useful() {
        // A tight loop's code blocks are useful at the loop head: loaded,
        // and re-fetched every iteration.
        let p = rtprogram::asm::assemble(
            "t",
            ".text 0x1000\nstart: li r1, 10\nloop: addi r1, r1, -1\n bne r1, r0, loop\n halt\n",
        )
        .unwrap();
        let g = geom(16, 2);
        let df = dataflow_useful(&p, g).unwrap();
        assert!(df.max_line_bound() >= 1, "loop code must be useful somewhere");
        // And the dataflow bound dominates the exact trace bound.
        let trace = rtprogram::sim::trace_variant(&p, &p.variants()[0]).unwrap();
        let exact = UsefulTrace::from_trace(&trace, g);
        assert!(df.max_line_bound() >= exact.max_line_bound().0);
    }

    #[test]
    fn repeated_analysis_is_deterministic() {
        // Two independent analyses of the same workload must agree on
        // every artifact down to the Debug rendering: the server-side memo
        // store treats analyses as content-addressed values, so any
        // hasher-order leak here would surface as spurious cache
        // divergence.
        let p = rtworkloads::mobile_robot();
        let g = CacheGeometry::paper_l1();
        let variants = p.variants();
        let trace = rtprogram::sim::trace_variant(&p, &variants[0]).unwrap();
        let a = UsefulTrace::from_trace(&trace, g);
        let b = UsefulTrace::from_trace(&trace, g);
        assert_eq!(a, b);
        assert_eq!(a.max_line_bound(), b.max_line_bound());
        assert_eq!(format!("{:?}", a.mumbs()), format!("{:?}", b.mumbs()));
        let pos = a.max_line_bound().1;
        assert_eq!(
            a.useful_at(pos).blocks().collect::<Vec<_>>(),
            b.useful_at(pos).blocks().collect::<Vec<_>>(),
        );
        let da = dataflow_useful(&p, g).unwrap();
        let db = dataflow_useful(&p, g).unwrap();
        assert_eq!(format!("{:?}", da.points), format!("{:?}", db.points));
    }

    #[test]
    fn dataflow_straight_line_has_no_useful_blocks() {
        let p = rtprogram::asm::assemble("t", ".text 0x1000\nnop\nhalt\n").unwrap();
        let g = geom(16, 2);
        let df = dataflow_useful(&p, g).unwrap();
        assert_eq!(df.max_line_bound(), 0);
        assert!(df.mumbs().is_empty());
    }
}
