//! An executable set-associative cache with accounting and snapshots.

use std::collections::BTreeSet;
use std::fmt;

use crate::{CacheGeometry, MemoryBlock, ReplacementPolicy};

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was already resident.
    Hit,
    /// The block was filled; `evicted` is the block that was displaced, if
    /// the set was full.
    Miss {
        /// Block evicted to make room, if any.
        evicted: Option<MemoryBlock>,
    },
}

impl AccessOutcome {
    /// `true` if the access hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// `true` if the access missed.
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// The evicted block, if this was a miss that displaced a line.
    pub const fn evicted(self) -> Option<MemoryBlock> {
        match self {
            AccessOutcome::Hit => None,
            AccessOutcome::Miss { evicted } => evicted,
        }
    }
}

/// Running hit/miss/eviction counters of a [`CacheSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (and filled a line).
    pub misses: u64,
    /// Misses that displaced a valid line.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits, {} misses, {} evictions ({:.1}% hit rate)",
            self.accesses,
            self.hits,
            self.misses,
            self.evictions,
            self.hit_rate() * 100.0
        )
    }
}

/// Per-set state: fixed way slots plus recency/fill metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SetState {
    lines: Vec<Option<MemoryBlock>>,
    /// Global access counter value of the most recent touch, per way.
    last_used: Vec<u64>,
    /// Global access counter value of the fill, per way.
    filled_at: Vec<u64>,
    /// Tree bits for pseudo-LRU (one bit per internal tree node).
    plru_bits: u64,
}

impl SetState {
    fn new(ways: u32) -> Self {
        SetState {
            lines: vec![None; ways as usize],
            last_used: vec![0; ways as usize],
            filled_at: vec![0; ways as usize],
            plru_bits: 0,
        }
    }

    fn find(&self, block: MemoryBlock) -> Option<usize> {
        self.lines.iter().position(|l| *l == Some(block))
    }

    /// Walks the PLRU tree bits toward the pseudo-least-recently-used leaf.
    fn plru_victim(&self) -> usize {
        let ways = self.lines.len();
        let mut node = 0usize; // root of the implicit binary tree
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let bit = (self.plru_bits >> node) & 1;
            let mid = (lo + hi) / 2;
            // bit == 0 means "go left next time", so the victim is on the
            // side the bit points to.
            if bit == 0 {
                hi = mid;
                node = 2 * node + 1;
            } else {
                lo = mid;
                node = 2 * node + 2;
            }
        }
        lo
    }

    /// Flips the PLRU tree bits along the path to `way` so the tree points
    /// away from it.
    fn plru_touch(&mut self, way: usize) {
        let ways = self.lines.len();
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed the left half: point the bit right (1).
                self.plru_bits |= 1 << node;
                hi = mid;
                node = 2 * node + 1;
            } else {
                self.plru_bits &= !(1 << node);
                lo = mid;
                node = 2 * node + 2;
            }
        }
    }
}

/// An executable set-associative cache.
///
/// The scheduler co-simulation runs it to measure actual response times
/// (paper Fig. 5). The analysis never does: it replays its cold paths
/// through [`ColdLru`](crate::ColdLru), so the co-simulation checks the
/// analysis against code the two do not share. All operations are at
/// [`MemoryBlock`] granularity; byte-address entry points convert first.
///
/// ```
/// use rtcache::{CacheGeometry, CacheSim};
///
/// # fn main() -> Result<(), rtcache::GeometryError> {
/// let mut cache = CacheSim::new(CacheGeometry::new(2, 2, 16)?);
/// // Three blocks map to set 0 in a 2-set cache: 0x00, 0x40, 0x80.
/// cache.access(0x00);
/// cache.access(0x40);
/// let out = cache.access(0x80); // evicts the LRU block 0x00
/// assert_eq!(out.evicted().map(|b| b.number()), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    sets: Vec<SetState>,
    clock: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates an empty (all-invalid) cache with LRU replacement.
    pub fn new(geometry: CacheGeometry) -> Self {
        CacheSim::with_policy(geometry, ReplacementPolicy::Lru)
    }

    /// Creates an empty cache with the given replacement policy.
    pub fn with_policy(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        CacheSim {
            geometry,
            policy,
            sets: (0..geometry.sets()).map(|_| SetState::new(geometry.ways())).collect(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The replacement policy in effect.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics counters without touching cache contents.
    #[cfg(test)]
    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line (cold cache) and clears recency state.
    #[cfg(test)]
    fn invalidate_all(&mut self) {
        for set in &mut self.sets {
            *set = SetState::new(self.geometry.ways());
        }
    }

    /// Accesses the block containing byte address `addr`.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.access_block(self.geometry.block_of_addr(addr))
    }

    /// Accesses a memory block directly.
    pub fn access_block(&mut self, block: MemoryBlock) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let idx = self.geometry.index_of_block(block).as_usize();
        let policy = self.effective_policy();
        let set = &mut self.sets[idx];
        if let Some(way) = set.find(block) {
            self.stats.hits += 1;
            set.last_used[way] = self.clock;
            if policy == ReplacementPolicy::PseudoLru {
                set.plru_touch(way);
            }
            return AccessOutcome::Hit;
        }
        self.stats.misses += 1;
        // Prefer an invalid way; otherwise ask the policy for a victim.
        let way = match set.lines.iter().position(Option::is_none) {
            Some(w) => w,
            None => match policy {
                ReplacementPolicy::Lru => {
                    let (w, _) = set
                        .last_used
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, t)| **t)
                        .expect("ways >= 1");
                    w
                }
                ReplacementPolicy::Fifo => {
                    let (w, _) = set
                        .filled_at
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, t)| **t)
                        .expect("ways >= 1");
                    w
                }
                ReplacementPolicy::PseudoLru => set.plru_victim(),
            },
        };
        let evicted = set.lines[way];
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        set.lines[way] = Some(block);
        set.last_used[way] = self.clock;
        set.filled_at[way] = self.clock;
        if policy == ReplacementPolicy::PseudoLru {
            set.plru_touch(way);
        }
        AccessOutcome::Miss { evicted }
    }

    /// PLRU needs a power-of-two way count; otherwise LRU semantics apply.
    fn effective_policy(&self) -> ReplacementPolicy {
        if self.policy == ReplacementPolicy::PseudoLru && !self.geometry.ways().is_power_of_two() {
            ReplacementPolicy::Lru
        } else {
            self.policy
        }
    }

    /// `true` if the block is currently resident.
    pub fn is_resident(&self, block: MemoryBlock) -> bool {
        let idx = self.geometry.index_of_block(block).as_usize();
        self.sets[idx].find(block).is_some()
    }

    /// The blocks currently resident in one set, most-recently-used first.
    #[cfg(test)]
    fn set_contents(&self, index: crate::SetIndex) -> Vec<MemoryBlock> {
        let set = &self.sets[index.as_usize()];
        let mut occupied: Vec<(u64, MemoryBlock)> = set
            .lines
            .iter()
            .enumerate()
            .filter_map(|(w, l)| l.map(|b| (set.last_used[w], b)))
            .collect();
        occupied.sort_by_key(|(age, _)| std::cmp::Reverse(*age));
        occupied.into_iter().map(|(_, b)| b).collect()
    }

    /// Captures the set of resident blocks per set.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            geometry: self.geometry,
            sets: self.sets.iter().map(|s| s.lines.iter().flatten().copied().collect()).collect(),
        }
    }
}

/// The resident blocks of a cache at one instant, per set.
///
/// Snapshots taken before and after a preemption let the co-simulation
/// count exactly which blocks of the preempted task were displaced —
/// the ground truth the paper's Eq. 2/3 bound is compared against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    geometry: CacheGeometry,
    sets: Vec<BTreeSet<MemoryBlock>>,
}

impl CacheSnapshot {
    /// The geometry the snapshot was taken under.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// `true` if `block` was resident when the snapshot was taken.
    pub fn is_resident(&self, block: MemoryBlock) -> bool {
        let idx = self.geometry.index_of_block(block).as_usize();
        self.sets[idx].contains(&block)
    }

    /// All resident blocks, in set order.
    pub fn blocks(&self) -> impl Iterator<Item = MemoryBlock> + '_ {
        self.sets.iter().flat_map(|s| s.iter().copied())
    }

    /// Number of valid lines.
    #[cfg(test)]
    fn resident_count(&self) -> usize {
        self.sets.iter().map(BTreeSet::len).sum()
    }

    /// Blocks resident in `self` but no longer resident in `after`: the
    /// lines that were displaced between the two snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots have different geometries.
    #[cfg(test)]
    fn evicted_in(&self, after: &CacheSnapshot) -> BTreeSet<MemoryBlock> {
        assert_eq!(
            self.geometry, after.geometry,
            "snapshots from different cache geometries cannot be compared"
        );
        self.sets
            .iter()
            .zip(&after.sets)
            .flat_map(|(before, now)| before.difference(now).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ciip, SetIndex};
    use proptest::prelude::*;

    fn small() -> CacheGeometry {
        CacheGeometry::new(2, 2, 16).unwrap()
    }

    /// Block numbers that all map to set 0 of the 2-set cache.
    fn set0(n: u64) -> MemoryBlock {
        MemoryBlock::new(n * 2)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheSim::new(small());
        assert!(c.access(0x00).is_miss());
        assert!(c.access(0x04).is_hit()); // same block
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheSim::new(small());
        c.access_block(set0(0));
        c.access_block(set0(1));
        c.access_block(set0(0)); // block 0 now MRU
        let out = c.access_block(set0(2));
        assert_eq!(out.evicted(), Some(set0(1)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut c = CacheSim::with_policy(small(), ReplacementPolicy::Fifo);
        c.access_block(set0(0));
        c.access_block(set0(1));
        c.access_block(set0(0)); // hit does not refresh FIFO order
        let out = c.access_block(set0(2));
        assert_eq!(out.evicted(), Some(set0(0)));
    }

    #[test]
    fn plru_four_way_basics() {
        let g = CacheGeometry::new(1, 4, 16).unwrap();
        let mut c = CacheSim::with_policy(g, ReplacementPolicy::PseudoLru);
        for n in 0..4 {
            assert!(c.access_block(MemoryBlock::new(n)).is_miss());
        }
        // All four resident; next distinct block must evict something.
        let out = c.access_block(MemoryBlock::new(4));
        assert!(out.evicted().is_some());
        // The just-filled block must be resident.
        assert!(c.is_resident(MemoryBlock::new(4)));
        // The most recently touched pre-existing block must survive one
        // eviction under tree-PLRU.
        let mut c = CacheSim::with_policy(g, ReplacementPolicy::PseudoLru);
        for n in 0..4 {
            c.access_block(MemoryBlock::new(n));
        }
        c.access_block(MemoryBlock::new(3)); // touch: tree points away
        let out = c.access_block(MemoryBlock::new(9));
        assert_ne!(out.evicted(), Some(MemoryBlock::new(3)));
    }

    #[test]
    fn set_isolation() {
        let mut c = CacheSim::new(small());
        // Fill set 0 far beyond capacity; set 1 must be untouched.
        for n in 0..10 {
            c.access_block(set0(n));
        }
        assert!(c.set_contents(SetIndex::new(1)).is_empty());
        assert_eq!(c.set_contents(SetIndex::new(0)).len(), 2);
    }

    #[test]
    fn set_contents_mru_order() {
        let mut c = CacheSim::new(small());
        c.access_block(set0(0));
        c.access_block(set0(1));
        assert_eq!(c.set_contents(SetIndex::new(0)), vec![set0(1), set0(0)]);
        c.access_block(set0(0));
        assert_eq!(c.set_contents(SetIndex::new(0)), vec![set0(0), set0(1)]);
    }

    #[test]
    fn snapshot_eviction_diff() {
        let mut c = CacheSim::new(small());
        c.access_block(set0(0));
        c.access_block(set0(1));
        let before = c.snapshot();
        assert_eq!(before.resident_count(), 2);
        assert!(before.is_resident(set0(0)));
        c.access_block(set0(2)); // evicts block 0 (LRU)
        let after = c.snapshot();
        let evicted = before.evicted_in(&after);
        assert_eq!(evicted.into_iter().collect::<Vec<_>>(), vec![set0(0)]);
    }

    #[test]
    #[should_panic(expected = "different cache geometries")]
    fn snapshot_geometry_mismatch_panics() {
        let a = CacheSim::new(small()).snapshot();
        let b = CacheSim::new(CacheGeometry::new(4, 2, 16).unwrap()).snapshot();
        let _ = a.evicted_in(&b);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = CacheSim::new(small());
        c.access(0x00);
        c.invalidate_all();
        assert_eq!(c.snapshot().resident_count(), 0);
        assert!(c.access(0x00).is_miss());
    }

    #[test]
    fn stats_display_and_rate() {
        let mut c = CacheSim::new(small());
        c.access(0x00);
        c.access(0x00);
        let s = c.stats();
        assert_eq!(s.hit_rate(), 0.5);
        assert!(s.to_string().contains("50.0% hit rate"));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
        (0u32..=5, 1u32..=8, 2u32..=6).prop_map(|(set_log, ways, line_log)| {
            CacheGeometry::new(1 << set_log, ways, 1 << line_log).expect("valid geometry")
        })
    }

    fn arb_blocks(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..256, 0..max_len)
    }

    proptest! {
        /// Accessing the same trace twice in a row yields all hits the second
        /// time when the distinct footprint per set fits in the ways (LRU).
        #[test]
        fn fitting_working_set_all_hits(geom in arb_geometry(), refs in arb_blocks(100)) {
            let distinct: BTreeSet<_> = refs.iter().map(|r| MemoryBlock::new(*r)).collect();
            let fits = (0..geom.sets()).map(SetIndex::new).all(|idx| {
                distinct.iter().filter(|b| geom.index_of_block(**b) == idx).count()
                    <= geom.ways() as usize
            });
            prop_assume!(fits);
            let mut cache = CacheSim::new(geom);
            for r in &refs {
                cache.access_block(MemoryBlock::new(*r));
            }
            cache.reset_stats();
            for b in &distinct {
                prop_assert!(cache.access_block(*b).is_hit());
            }
            prop_assert_eq!(cache.stats().misses, 0);
        }

        /// Ground truth check for Eq. 2: load task A's blocks, then task B's;
        /// the number of A-blocks evicted during B's execution never exceeds
        /// `S(Ma, Mb)` under LRU.
        #[test]
        fn eq2_bounds_simulated_evictions(geom in arb_geometry(),
                                          a in arb_blocks(120), b in arb_blocks(120)) {
            let mut cache = CacheSim::new(geom);
            for r in &a {
                cache.access_block(MemoryBlock::new(*r));
            }
            let before = cache.snapshot();
            for r in &b {
                cache.access_block(MemoryBlock::new(*r));
            }
            let after = cache.snapshot();
            let evicted = before.evicted_in(&after);
            let ma = Ciip::from_blocks(geom, a.iter().map(|r| MemoryBlock::new(*r)));
            let mb = Ciip::from_blocks(geom, b.iter().map(|r| MemoryBlock::new(*r)));
            prop_assert!(
                evicted.len() <= ma.overlap_bound(&mb),
                "evicted {} > bound {}", evicted.len(), ma.overlap_bound(&mb)
            );
        }
    }
}
