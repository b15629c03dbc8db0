//! Property-based tests for the cache model: LRU residency invariants,
//! CIIP partition laws, and the Eq. 2 bound against simulated evictions.

use proptest::prelude::*;
use rtcache::{CacheGeometry, CacheSim, Ciip, MemoryBlock, ReplacementPolicy, SetIndex};
use std::collections::BTreeSet;

fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    (0u32..=5, 1u32..=8, 2u32..=6).prop_map(|(set_log, ways, line_log)| {
        CacheGeometry::new(1 << set_log, ways, 1 << line_log).expect("valid geometry")
    })
}

fn arb_blocks(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..256, 0..max_len)
}

proptest! {
    /// A set never holds more than `ways` distinct blocks, and every block
    /// just accessed is resident.
    #[test]
    fn residency_invariants(geom in arb_geometry(), refs in arb_blocks(200),
                            policy in prop::sample::select(ReplacementPolicy::ALL.to_vec())) {
        let mut cache = CacheSim::with_policy(geom, policy);
        for r in refs {
            let block = MemoryBlock::new(r);
            cache.access_block(block);
            prop_assert!(cache.is_resident(block));
        }
        let snap = cache.snapshot();
        for idx in (0..geom.sets()).map(SetIndex::new) {
            let in_set: Vec<_> = snap.blocks()
                .filter(|b| geom.index_of_block(*b) == idx)
                .collect();
            prop_assert!(in_set.len() <= geom.ways() as usize);
            for b in in_set {
                prop_assert_eq!(geom.index_of_block(b), idx);
            }
        }
    }

    /// Re-running an identical trace on a fresh cache reproduces identical
    /// statistics (the simulator is deterministic).
    #[test]
    fn deterministic_replay(geom in arb_geometry(), refs in arb_blocks(150)) {
        let mut a = CacheSim::new(geom);
        let mut b = CacheSim::new(geom);
        for r in &refs {
            a.access_block(MemoryBlock::new(*r));
        }
        for r in &refs {
            b.access_block(MemoryBlock::new(*r));
        }
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.snapshot(), b.snapshot());
    }

    /// CIIP is a partition: subsets are disjoint, non-empty, cover all
    /// blocks, and each block lands in the subset of its own index.
    #[test]
    fn ciip_is_a_partition(geom in arb_geometry(), refs in arb_blocks(100)) {
        let blocks: BTreeSet<_> = refs.iter().map(|r| MemoryBlock::new(*r)).collect();
        let ciip = Ciip::from_blocks(geom, blocks.iter().copied());
        prop_assert_eq!(ciip.block_count(), blocks.len());
        let mut seen = BTreeSet::new();
        for (idx, subset) in ciip.iter() {
            prop_assert!(!subset.is_empty(), "empty subsets must not be stored");
            for b in subset {
                prop_assert_eq!(geom.index_of_block(*b), idx);
                prop_assert!(seen.insert(*b), "subsets must be disjoint");
            }
        }
        prop_assert_eq!(seen, blocks);
    }

    /// Eq. 2 bound properties: symmetric, bounded by both line bounds,
    /// zero against the empty set, and monotone under union.
    #[test]
    fn overlap_bound_laws(geom in arb_geometry(), a in arb_blocks(80), b in arb_blocks(80),
                          c in arb_blocks(40)) {
        let ma = Ciip::from_blocks(geom, a.iter().map(|r| MemoryBlock::new(*r)));
        let mb = Ciip::from_blocks(geom, b.iter().map(|r| MemoryBlock::new(*r)));
        let mc = Ciip::from_blocks(geom, c.iter().map(|r| MemoryBlock::new(*r)));
        let s = ma.overlap_bound(&mb);
        prop_assert_eq!(s, mb.overlap_bound(&ma));
        prop_assert!(s <= ma.line_bound());
        prop_assert!(s <= mb.line_bound());
        prop_assert_eq!(ma.overlap_bound(&Ciip::empty(geom)), 0);
        // Monotone: growing one side can only grow the bound.
        let mb_grown = mb.union(&mc);
        prop_assert!(ma.overlap_bound(&mb_grown) >= s);
        // Bounded by total lines.
        prop_assert!(s as u64 <= geom.total_lines());
    }

    /// Definition 3 reference model: `S(Ma, Mb)` equals the hand-computed
    /// `Σ_r min(|m̂a,r|, |m̂b,r|, L)` over every cache set `r`, and is
    /// therefore bounded by `L × N` (associativity × sets).
    #[test]
    fn overlap_bound_matches_definition3(geom in arb_geometry(),
                                         a in arb_blocks(120), b in arb_blocks(120)) {
        let ma = Ciip::from_blocks(geom, a.iter().map(|r| MemoryBlock::new(*r)));
        let mb = Ciip::from_blocks(geom, b.iter().map(|r| MemoryBlock::new(*r)));
        let count_per_set = |refs: &[u64]| {
            let mut counts = std::collections::BTreeMap::new();
            for block in refs.iter().map(|r| MemoryBlock::new(*r)).collect::<BTreeSet<_>>() {
                *counts.entry(geom.index_of_block(block)).or_insert(0usize) += 1;
            }
            counts
        };
        let (ca, cb) = (count_per_set(&a), count_per_set(&b));
        let ways = geom.ways() as usize;
        let expected: usize = (0..geom.sets())
            .map(SetIndex::new)
            .map(|r| {
                ca.get(&r).copied().unwrap_or(0).min(cb.get(&r).copied().unwrap_or(0)).min(ways)
            })
            .sum();
        prop_assert_eq!(ma.overlap_bound(&mb), expected);
        prop_assert!(expected as u64 <= geom.ways() as u64 * geom.sets() as u64);
    }

    /// Stepwise monotonicity: adding blocks to either operand one at a
    /// time never decreases the bound, and each step grows it by at most
    /// one (each new block adds at most one conflicting line).
    #[test]
    fn overlap_bound_monotone_per_block(geom in arb_geometry(),
                                        a in arb_blocks(60), grow in arb_blocks(40)) {
        let ma = Ciip::from_blocks(geom, a.iter().map(|r| MemoryBlock::new(*r)));
        let mut mb = Ciip::empty(geom);
        let mut previous = 0;
        for r in grow {
            mb.extend([MemoryBlock::new(r)]);
            let bound = ma.overlap_bound(&mb);
            prop_assert!(bound >= previous, "bound {bound} dropped below {previous}");
            prop_assert!(bound <= previous + 1, "one block added {} lines", bound - previous);
            // Symmetry at every step, not just on final operands.
            prop_assert_eq!(bound, mb.overlap_bound(&ma));
            previous = bound;
        }
    }

    /// Intersection/union algebra.
    #[test]
    fn ciip_algebra(geom in arb_geometry(), a in arb_blocks(60), b in arb_blocks(60)) {
        let ma = Ciip::from_blocks(geom, a.iter().map(|r| MemoryBlock::new(*r)));
        let mb = Ciip::from_blocks(geom, b.iter().map(|r| MemoryBlock::new(*r)));
        let i = Ciip::from_blocks(geom, ma.blocks().filter(|b| mb.contains(*b)));
        let u = ma.union(&mb);
        prop_assert_eq!(i.block_count() + u.block_count(), ma.block_count() + mb.block_count());
        for blk in i.blocks() {
            prop_assert!(ma.contains(blk) && mb.contains(blk));
        }
        for blk in ma.blocks() {
            prop_assert!(u.contains(blk));
        }
        // The overlap bound of the intersection with anything is no larger
        // than the original bound.
        prop_assert!(i.overlap_bound(&mb) <= ma.overlap_bound(&mb));
    }
}

mod packed_props {
    use super::*;
    use rtcache::PackedFootprint;

    /// The ISSUE's differential envelope: 4–64 sets, 1–8 ways.
    fn arb_packed_geometry() -> impl Strategy<Value = CacheGeometry> {
        (2u32..=6, 1u32..=8, 2u32..=6).prop_map(|(set_log, ways, line_log)| {
            CacheGeometry::new(1 << set_log, ways, 1 << line_log).expect("valid geometry")
        })
    }

    proptest! {
        /// The packed min-sum kernel is bit-identical to the tree-walk
        /// Eq. 2 bound, and the packed line bound to the tree line bound,
        /// on arbitrary footprints.
        #[test]
        fn packed_bound_equals_tree_bound(geom in arb_packed_geometry(),
                                          a in arb_blocks(120), b in arb_blocks(120)) {
            let ma = Ciip::from_blocks(geom, a.iter().map(|r| MemoryBlock::new(*r)));
            let mb = Ciip::from_blocks(geom, b.iter().map(|r| MemoryBlock::new(*r)));
            let pa = PackedFootprint::from_ciip(&ma);
            let pb = PackedFootprint::from_ciip(&mb);
            prop_assert_eq!(pa.overlap_bound(&pb), ma.overlap_bound(&mb));
            prop_assert_eq!(pb.overlap_bound(&pa), mb.overlap_bound(&ma));
            prop_assert_eq!(pa.line_bound(), ma.line_bound());
            prop_assert_eq!(pb.line_bound(), mb.line_bound());
        }

        /// Dominance is what the skyline pruning relies on: if `a`
        /// dominates `b`, then `S(a, mb) >= S(b, mb)` for every `mb`.
        #[test]
        fn dominance_implies_pointwise_bound_order(geom in arb_packed_geometry(),
                                                   a in arb_blocks(80), grow in arb_blocks(40),
                                                   probe in arb_blocks(80)) {
            let small = Ciip::from_blocks(geom, a.iter().map(|r| MemoryBlock::new(*r)));
            let big = small.union(&Ciip::from_blocks(geom, grow.iter().map(|r| MemoryBlock::new(*r))));
            let p_small = PackedFootprint::from_ciip(&small);
            let p_big = PackedFootprint::from_ciip(&big);
            prop_assert!(p_big.dominates(&p_small), "a superset footprint dominates");
            let mb = PackedFootprint::from_ciip(
                &Ciip::from_blocks(geom, probe.iter().map(|r| MemoryBlock::new(*r)))
            );
            prop_assert!(p_big.overlap_bound(&mb) >= p_small.overlap_bound(&mb));
        }
    }
}

mod hierarchy_props {
    use super::*;
    use rtcache::{CacheHierarchy, LevelOutcome, ReplacementPolicy};

    proptest! {
        /// Hierarchy invariants: an access never hits L1 without being
        /// resident there afterwards; every block touched is resident in
        /// both levels afterwards; the memory-miss count equals the
        /// distinct-block count when the L2 holds the whole footprint.
        #[test]
        fn hierarchy_residency_and_memory_traffic(refs in prop::collection::vec(0u64..64, 1..300)) {
            let l1 = CacheGeometry::new(4, 1, 16).expect("valid geometry");
            let l2 = CacheGeometry::new(64, 2, 16).expect("valid geometry");
            let mut h = CacheHierarchy::with_policy(l1, l2, ReplacementPolicy::Lru).expect("valid pair");
            let mut mem_misses = 0u64;
            for r in &refs {
                let block = MemoryBlock::new(*r);
                match h.access_block(block) {
                    LevelOutcome::MemMiss => mem_misses += 1,
                    LevelOutcome::L2Hit | LevelOutcome::L1Hit => {}
                }
                prop_assert!(h.l1().is_resident(block));
                prop_assert!(h.l2().is_resident(block));
            }
            // 64 sets x 2 ways holds all 64 possible blocks: each block
            // faults exactly once.
            let distinct: BTreeSet<_> = refs.iter().collect();
            prop_assert_eq!(mem_misses as usize, distinct.len());
        }

        /// With an L2 at least as effective as the L1, L1 hits under the
        /// hierarchy match a standalone L1 fed the same references.
        #[test]
        fn hierarchy_l1_behaves_like_standalone_l1(refs in prop::collection::vec(0u64..128, 1..200)) {
            let l1 = CacheGeometry::new(8, 2, 16).expect("valid geometry");
            let l2 = CacheGeometry::new(128, 4, 16).expect("valid geometry");
            let mut h = CacheHierarchy::with_policy(l1, l2, ReplacementPolicy::Lru).expect("valid pair");
            let mut alone = CacheSim::new(l1);
            for r in &refs {
                let block = MemoryBlock::new(*r);
                let hier_l1_hit = matches!(h.access_block(block), LevelOutcome::L1Hit);
                let alone_hit = alone.access_block(block).is_hit();
                prop_assert_eq!(hier_l1_hit, alone_hit, "L1 is unaffected by the L2 behind it");
            }
        }
    }
}
