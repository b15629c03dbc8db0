//! Property-based tests for the CRPD analysis: invariants of the exact
//! useful-block sweep, ordering laws among the four approaches, and
//! monotonicity of the WCRT recurrence.

use proptest::prelude::*;

use crpd::{reload_lines, AnalyzedTask, CrpdApproach, TaskParams, UsefulTrace};
use rtcache::{CacheGeometry, Ciip, MemoryBlock};
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
        let packed = rtcache::PackedFootprint::from_ciip(&ciip).expect("ways <= 4 packs");
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
