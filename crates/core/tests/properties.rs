//! Property-based tests for the CRPD analysis: invariants of the exact
//! useful-block sweep and its equality with a tree-map reference,
//! ordering laws among the four approaches, and monotonicity of the WCRT
//! recurrence.

use std::collections::BTreeMap;

use proptest::prelude::*;

use crpd::{reload_lines, AnalyzedTask, CrpdApproach, TaskParams, UsefulTrace};
use rtcache::{CacheGeometry, CacheSim, Ciip, MemoryBlock, PackedFootprint, SetIndex};
use rtprogram::sim::{AccessKind, MemoryAccess, Trace};
use rtwcet::TimingModel;
use rtworkloads::synthetic::{synthetic_task, SyntheticSpec};

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    (0u32..=5, 1u32..=4).prop_map(|(set_log, ways)| {
        CacheGeometry::new(1 << set_log, ways, 16).expect("valid geometry")
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The useful set at any point is a subset of the trace footprint,
    /// and the reload bound respects both the footprint and the cache.
    #[test]
    fn useful_blocks_are_within_footprint(geom in arb_geometry(),
                                          blocks in prop::collection::vec(0u64..96, 1..300)) {
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        let all = t.all_blocks();
        let (max, pos) = t.max_line_bound();
        prop_assert!(max <= all.line_bound());
        prop_assert!(max as u64 <= geom.total_lines());
        let useful = t.useful_at(pos);
        for b in useful.blocks() {
            prop_assert!(all.contains(b));
        }
        let mumbs = t.mumbs();
        prop_assert_eq!(mumbs.line_bound().min(geom.ways() as usize * geom.sets() as usize),
                        mumbs.line_bound());
    }

    /// `max_overlap_bound` is monotone in the preemptor footprint and
    /// bounded by `max_line_bound` and the preemptor's own occupancy.
    #[test]
    fn overlap_bound_laws(geom in arb_geometry(),
                          blocks in prop::collection::vec(0u64..96, 1..200),
                          mb1 in prop::collection::vec(0u64..96, 0..60),
                          extra in prop::collection::vec(0u64..96, 0..30)) {
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        let small = Ciip::from_blocks(geom, mb1.iter().map(|b| MemoryBlock::new(*b)));
        let big = small.union(&Ciip::from_blocks(geom, extra.iter().map(|b| MemoryBlock::new(*b))));
        let (with_small, _) = t.max_overlap_bound(&small);
        let (with_big, _) = t.max_overlap_bound(&big);
        prop_assert!(with_small <= with_big, "monotone in the preemptor footprint");
        prop_assert!(with_big <= t.max_line_bound().0);
        prop_assert!(with_small <= small.line_bound());
        prop_assert_eq!(t.max_overlap_bound(&Ciip::empty(geom)).0, 0);
    }

    /// Skyline pruning never changes the Eq. 3 maximum: the packed
    /// skyline search returns exactly `max_overlap_bound` for arbitrary
    /// traces and preemptor footprints (the tentpole's equivalence
    /// contract), and the pruned front is never larger than what it
    /// pruned from.
    #[test]
    fn skyline_preserves_max_overlap_bound(geom in arb_geometry(),
                                           blocks in prop::collection::vec(0u64..96, 1..300),
                                           mb in prop::collection::vec(0u64..96, 0..80)) {
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        prop_assert!(t.skyline_kept().is_some(), "small geometries always build a skyline");
        prop_assert!(t.skyline_kept() <= t.skyline_candidates());
        let ciip = Ciip::from_blocks(geom, mb.iter().map(|b| MemoryBlock::new(*b)));
        let packed = rtcache::PackedFootprint::from_ciip(&ciip);
        prop_assert_eq!(t.max_packed_overlap(&packed), t.max_overlap_bound(&ciip).0);
    }

    /// Approach 3's skyline read equals the exact sweep's maximum line
    /// bound over 1-8 ways and 1-64 sets, empty and all-miss (streaming)
    /// traces included.
    #[test]
    fn peak_line_bound_matches_max_line_bound(set_log in 0u32..=6, ways in 1u32..=8,
                                              blocks in prop::collection::vec(0u64..160, 0..300),
                                              shape in 0u8..4) {
        let geom = CacheGeometry::new(1 << set_log, ways, 16).expect("valid geometry");
        // One case in four runs the empty trace and one in four a trace
        // of distinct blocks, where every access misses.
        let blocks: Vec<u64> = match shape {
            0 => Vec::new(),
            1 => (0..blocks.len() as u64).collect(),
            _ => blocks,
        };
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        prop_assert!(t.skyline_kept().is_some(), "small geometries always build a skyline");
        prop_assert_eq!(t.peak_line_bound(), t.max_line_bound().0);
        if shape < 2 {
            prop_assert_eq!(t.peak_line_bound(), 0);
        }
    }

    /// A single-pass (no-reuse) trace has no useful blocks at all.
    #[test]
    fn streaming_traces_have_no_useful_blocks(geom in arb_geometry(), len in 1usize..200) {
        let blocks: Vec<u64> = (0..len as u64).collect(); // all distinct
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        prop_assert_eq!(t.max_line_bound().0, 0);
        prop_assert!(t.mumbs().is_empty());
    }

    /// A trace that fits its cache and repeats has every block useful at
    /// the loop point.
    #[test]
    fn resident_loops_are_fully_useful(set_log in 0u32..4, ways in 1u32..4, reps in 2usize..5) {
        let geom = CacheGeometry::new(1 << set_log, ways, 16).expect("valid geometry");
        // Exactly one block per way per set: fits precisely.
        let distinct: Vec<u64> = (0..(1u64 << set_log) * u64::from(ways)).collect();
        prop_assume!(!distinct.is_empty());
        let blocks: Vec<u64> =
            std::iter::repeat_n(distinct.clone(), reps).flatten().collect();
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        prop_assert_eq!(t.max_line_bound().0, distinct.len());
    }
}

/// The analysis's useful-block sweep as it was written with tree maps:
/// a `BTreeMap` of per-block "next access hits" status and one of per-set
/// counts, updated per access. Kept here only as the reference the dense
/// next-hit sweep must reproduce call for call.
fn reference_sweep(
    geometry: CacheGeometry,
    accesses: &[(MemoryBlock, bool)],
    mut visit: impl FnMut(usize, SetIndex, usize, usize),
) {
    let mut status: BTreeMap<MemoryBlock, bool> = BTreeMap::new();
    let mut counts: BTreeMap<SetIndex, usize> = BTreeMap::new();
    for (pos, (block, hit)) in accesses.iter().enumerate().rev() {
        let set = geometry.index_of_block(*block);
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

/// `(max Σ_r min(|useful_r|, limit_r), position)` over the reference
/// sweep, with the per-set limit supplied by `limit`.
fn reference_max(
    geometry: CacheGeometry,
    accesses: &[(MemoryBlock, bool)],
    limit: impl Fn(SetIndex) -> usize,
) -> (usize, usize) {
    let mut total = 0usize;
    let mut best = (0usize, 0usize);
    reference_sweep(geometry, accesses, |pos, set, old, new| {
        let cap = limit(set);
        total = total - old.min(cap) + new.min(cap);
        if total > best.0 {
            best = (total, pos);
        }
    });
    best
}

/// The skyline build over the reference sweep with element-wise scalar
/// dominance checks: `(kept saturated vectors, candidates examined)`.
/// Traces here stay far below the analysis's size caps.
fn reference_skyline(
    geometry: CacheGeometry,
    accesses: &[(MemoryBlock, bool)],
) -> (Vec<Vec<u8>>, usize) {
    let ways = geometry.ways() as usize;
    let mut current = vec![0u8; geometry.sets() as usize];
    let mut sum = 0usize;
    let mut dirty = false;
    let mut candidates = 0usize;
    let mut points: Vec<(Vec<u8>, usize)> = Vec::new();
    let mut emit = |current: &[u8], sum: usize| {
        candidates += 1;
        let dominated = points
            .iter()
            .any(|(p, s)| *s >= sum && p.iter().zip(current).all(|(have, new)| have >= new));
        if !dominated {
            points.retain(|(p, s)| !(*s <= sum && p.iter().zip(current).all(|(h, n)| h <= n)));
            points.push((current.to_vec(), sum));
        }
    };
    reference_sweep(geometry, accesses, |_pos, set, old, new| {
        let (sold, snew) = (old.min(ways), new.min(ways));
        if snew == sold {
            return;
        }
        if snew > sold {
            dirty = true;
        } else if dirty {
            emit(&current, sum);
            dirty = false;
        }
        current[set.as_usize()] = snew as u8;
        sum = sum + snew - sold;
    });
    if dirty {
        emit(&current, sum);
    }
    (points.into_iter().map(|(p, _)| p).collect(), candidates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The replay's hit flags are the cache simulator's, and the dense
    /// next-hit sweep, the footprint built from misses and the chunked
    /// dominance kernel reproduce the tree-map reference exactly: line bound and overlap bound (value and position), the footprint,
    /// and the skyline's kept count, candidate count and Eq. 3 maximum,
    /// over 1-8 ways and 1-64 sets.
    #[test]
    fn dense_sweep_matches_the_tree_map_reference(set_log in 0u32..=6, ways in 1u32..=8,
                                                  raw in prop::collection::vec(0u64..4096, 0..400),
                                                  spread in 1u64..4,
                                                  mb in prop::collection::vec(0u64..4096, 0..120)) {
        let geom = CacheGeometry::new(1 << set_log, ways, 16).expect("valid geometry");
        // Blocks drawn from a few times the cache's capacity, so traces
        // mix reuse hits with capacity and conflict misses.
        let span = geom.total_lines() * spread + 1;
        let blocks: Vec<u64> = raw.iter().map(|b| b % span).collect();
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        let accesses = t.accesses();
        let mut cache = CacheSim::new(geom);
        for (pos, (block, hit)) in accesses.iter().enumerate() {
            prop_assert_eq!(cache.access_block(*block).is_hit(), *hit, "access {}", pos);
        }

        prop_assert_eq!(t.max_line_bound(), reference_max(geom, accesses, |_| ways as usize));
        let mb = Ciip::from_blocks(geom, mb.iter().map(|b| MemoryBlock::new(b % span)));
        prop_assert_eq!(
            t.max_overlap_bound(&mb),
            reference_max(geom, accesses, |set| mb.subset_len(set).min(ways as usize))
        );
        prop_assert_eq!(
            t.all_blocks(),
            Ciip::from_blocks(geom, accesses.iter().map(|(b, _)| *b))
        );

        let (kept, candidates) = reference_skyline(geom, accesses);
        prop_assert_eq!(t.skyline_kept(), Some(kept.len()));
        prop_assert_eq!(t.skyline_candidates(), Some(candidates));
        let packed = PackedFootprint::from_ciip(&mb);
        let reference_overlap = kept
            .iter()
            .map(|p| p.iter().zip(packed.counts()).map(|(a, b)| usize::from(*a.min(b))).sum())
            .max()
            .unwrap_or(0);
        prop_assert_eq!(t.max_packed_overlap(&packed), reference_overlap);
    }

    /// `from_accesses` accepts exactly the hit flags a cold LRU run
    /// yields: the recorded flags rebuild an equal trace, and flipping
    /// any one of them is rejected.
    #[test]
    fn from_accesses_rejects_flags_no_cold_lru_run_produces(
        set_log in 0u32..=3, ways in 1u32..=4,
        blocks in prop::collection::vec(0u64..48, 1..120),
        at in 0usize..1000,
    ) {
        let geom = CacheGeometry::new(1 << set_log, ways, 16).expect("valid geometry");
        let t = UsefulTrace::from_trace(&trace_of(&blocks, geom), geom);
        let rebuilt = UsefulTrace::from_accesses(geom, t.accesses().to_vec());
        prop_assert_eq!(&rebuilt, &t);
        let mut flipped = t.accesses().to_vec();
        let at = at % flipped.len();
        flipped[at].1 = !flipped[at].1;
        let rejected = std::panic::catch_unwind(move || UsefulTrace::from_accesses(geom, flipped));
        prop_assert!(rejected.is_err(), "flipped flag at {} accepted", at);
    }
}

#[test]
#[should_panic(expected = "cold LRU run")]
fn from_accesses_rejects_a_hit_on_a_cold_cache() {
    let geom = CacheGeometry::new(4, 2, 16).expect("valid geometry");
    let _ = UsefulTrace::from_accesses(geom, vec![(MemoryBlock::new(3), true)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cross-approach ordering laws hold on random synthetic task pairs.
    #[test]
    fn approach_ordering_on_synthetic_pairs(seed in 0u64..1000, stagger in 0u64..8) {
        let geometry = CacheGeometry::new(64, 2, 16).expect("valid geometry");
        let model = TimingModel::default();
        let mut lo_spec = SyntheticSpec::new("lo", 0x0001_0000, 0x0010_0000);
        lo_spec.seed = seed;
        let mut hi_spec = SyntheticSpec::new("hi", 0x0002_0000, 0x0011_0000 + 0x100 * stagger);
        hi_spec.seed = seed.wrapping_mul(31);
        let lo = AnalyzedTask::analyze(
            &synthetic_task(&lo_spec),
            TaskParams { period: 1_000_000, priority: 3 },
            geometry,
            model,
        ).expect("analyzes");
        let hi = AnalyzedTask::analyze(
            &synthetic_task(&hi_spec),
            TaskParams { period: 100_000, priority: 2 },
            geometry,
            model,
        ).expect("analyzes");
        let a1 = reload_lines(CrpdApproach::AllPreemptingLines, &lo, &hi);
        let a2 = reload_lines(CrpdApproach::InterTask, &lo, &hi);
        let a3 = reload_lines(CrpdApproach::UsefulBlocks, &lo, &hi);
        let a4 = reload_lines(CrpdApproach::Combined, &lo, &hi);
        prop_assert!(a2 <= a1);
        prop_assert!(a4 <= a2);
        prop_assert!(a4 <= a3);
        prop_assert!(a3 <= lo.all_blocks().line_bound());
    }
}
