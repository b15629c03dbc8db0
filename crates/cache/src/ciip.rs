//! The Cache Index Induced Partition (CIIP) and the per-set conflict
//! bounds of the paper's Eq. 2 and Eq. 3.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::{CacheGeometry, MemoryBlock, SetIndex};

/// The *Cache Index Induced Partition* of a memory-block set (paper
/// Definition 3).
///
/// Given a set of memory blocks `M` and a cache geometry, the CIIP groups
/// the blocks by the cache set they map to: `m̂_i = { m ∈ M | idx(m) = i }`.
/// Blocks in different subsets can never conflict in the cache; blocks in
/// the same subset contend for that set's `L` ways. The partition is the
/// basis of the inter-task eviction bound [`Ciip::overlap_bound`] (Eq. 2).
///
/// Empty subsets are not stored, matching the paper's definition
/// (`m̂_i ≠ ∅`).
///
/// ```
/// use rtcache::{CacheGeometry, Ciip};
///
/// # fn main() -> Result<(), rtcache::GeometryError> {
/// // Paper Example 3.
/// let geom = CacheGeometry::example2();
/// let m = Ciip::from_addrs(geom, [0x000u64, 0x100, 0x010, 0x110, 0x210]);
/// assert_eq!(m.subset_count(), 2); // indices 0 and 1
/// assert_eq!(m.subset_len(rtcache::SetIndex::new(0)), 2);
/// assert_eq!(m.subset_len(rtcache::SetIndex::new(1)), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciip {
    geometry: CacheGeometry,
    parts: BTreeMap<SetIndex, BTreeSet<MemoryBlock>>,
}

impl Ciip {
    /// Builds the CIIP of a collection of memory blocks.
    pub fn from_blocks<I>(geometry: CacheGeometry, blocks: I) -> Self
    where
        I: IntoIterator<Item = MemoryBlock>,
    {
        let mut parts: BTreeMap<SetIndex, BTreeSet<MemoryBlock>> = BTreeMap::new();
        for block in blocks {
            parts.entry(geometry.index_of_block(block)).or_default().insert(block);
        }
        Ciip { geometry, parts }
    }

    /// Builds the CIIP of the blocks containing the given byte addresses.
    pub fn from_addrs<I>(geometry: CacheGeometry, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        Ciip::from_blocks(geometry, addrs.into_iter().map(|a| geometry.block_of_addr(a)))
    }

    /// An empty partition.
    pub fn empty(geometry: CacheGeometry) -> Self {
        Ciip { geometry, parts: BTreeMap::new() }
    }

    /// The geometry the partition was built for.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of non-empty subsets.
    pub fn subset_count(&self) -> usize {
        self.parts.len()
    }

    /// Total number of distinct blocks across all subsets (`|M|`).
    pub fn block_count(&self) -> usize {
        self.parts.values().map(BTreeSet::len).sum()
    }

    /// `true` if no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The blocks mapped to cache set `index` (empty slice semantics: an
    /// absent subset yields `None`).
    pub fn subset(&self, index: SetIndex) -> Option<&BTreeSet<MemoryBlock>> {
        self.parts.get(&index)
    }

    /// `|m̂_index|`, zero when the subset is empty.
    pub fn subset_len(&self, index: SetIndex) -> usize {
        self.parts.get(&index).map_or(0, BTreeSet::len)
    }

    /// Iterates over the non-empty subsets in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SetIndex, &BTreeSet<MemoryBlock>)> {
        self.parts.iter().map(|(i, s)| (*i, s))
    }

    /// Iterates over every block in the partition.
    pub fn blocks(&self) -> impl Iterator<Item = MemoryBlock> + '_ {
        self.parts.values().flat_map(|s| s.iter().copied())
    }

    /// `true` if `block` is in the partition.
    pub fn contains(&self, block: MemoryBlock) -> bool {
        self.parts.get(&self.geometry.index_of_block(block)).is_some_and(|s| s.contains(&block))
    }

    /// The number of cache lines the blocks can occupy at once:
    /// `Σ_r min(|m̂_r|, L)`.
    ///
    /// This is the quantity Approach 1 (Busquets-Mataix \[20\]) charges for a
    /// preemption — every line the preempting task can touch — and the cap
    /// Approach 3 (Lee \[21\]) applies to the useful-block set.
    pub fn line_bound(&self) -> usize {
        let ways = self.geometry.ways() as usize;
        self.parts.values().map(|s| s.len().min(ways)).sum()
    }

    /// Eq. 2 / Eq. 3: `S(Ma, Mb) = Σ_r min(|m̂a,r|, |m̂b,r|, L)`, the upper
    /// bound on the number of cache lines used by `self`'s blocks that can
    /// be displaced when `other`'s blocks are loaded (and vice versa — the
    /// bound is symmetric).
    ///
    /// The analysis runs the packed kernel ([`crate::PackedFootprint`]);
    /// this tree walk is its reference.
    ///
    /// # Panics
    ///
    /// Panics if the two partitions were built for different geometries;
    /// the per-set pairing is meaningless across geometries.
    pub fn overlap_bound(&self, other: &Ciip) -> usize {
        assert_eq!(
            self.geometry, other.geometry,
            "CIIPs from different cache geometries cannot be compared"
        );
        let ways = self.geometry.ways() as usize;
        // Iterate the smaller map for efficiency; the bound is symmetric.
        let (small, large) =
            if self.parts.len() <= other.parts.len() { (self, other) } else { (other, self) };
        small.parts.iter().map(|(idx, s)| s.len().min(large.subset_len(*idx)).min(ways)).sum()
    }

    /// The per-set terms of [`Ciip::overlap_bound`], in set-index order,
    /// each annotated with the binding argument of
    /// `min(|m̂a,r|, |m̂b,r|, L)`. `self` plays the preempted side (`a`),
    /// `other` the preempting side (`b`); the total equals the bound.
    /// Zero terms are omitted.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn overlap_contributions(&self, other: &Ciip) -> Vec<OverlapContribution> {
        assert_eq!(
            self.geometry, other.geometry,
            "CIIPs from different cache geometries cannot be compared"
        );
        let ways = self.geometry.ways() as usize;
        let mut contributions = Vec::new();
        for (idx, subset) in &self.parts {
            let a = subset.len();
            let b = other.subset_len(*idx);
            let lines = a.min(b).min(ways);
            if lines == 0 {
                continue;
            }
            // Tie-breaking favours the hard architectural cap first,
            // then the preempted side, mirroring the order the paper
            // states the bound in.
            let cap = if ways <= a && ways <= b {
                rtobs::OverlapCap::Ways
            } else if a <= b {
                rtobs::OverlapCap::Preempted
            } else {
                rtobs::OverlapCap::Preempting
            };
            contributions.push(OverlapContribution { set: *idx, lines, cap });
        }
        contributions
    }

    /// Per-set occupancy histogram: `histogram[k]` counts the cache sets
    /// holding exactly `k` of the partition's blocks (`k` ranges from 0
    /// to the largest subset size). Useful for seeing how evenly a task's
    /// footprint spreads over the index space.
    ///
    /// ```
    /// use rtcache::{CacheGeometry, Ciip};
    ///
    /// # fn main() -> Result<(), rtcache::GeometryError> {
    /// let geom = CacheGeometry::example2(); // 16 sets
    /// let m = Ciip::from_addrs(geom, [0x000u64, 0x100, 0x010]);
    /// let h = m.occupancy_histogram();
    /// assert_eq!(h, vec![14, 1, 1]); // 14 empty sets, one 1-block, one 2-block
    /// # Ok(())
    /// # }
    /// ```
    pub fn occupancy_histogram(&self) -> Vec<u32> {
        // One pass: grow the vector as larger subsets appear instead of
        // pre-scanning the map for the maximum.
        let mut histogram = vec![0u32; 1];
        for subset in self.parts.values() {
            let len = subset.len();
            if len >= histogram.len() {
                histogram.resize(len + 1, 0);
            }
            histogram[len] += 1;
        }
        histogram[0] = self.geometry.sets() - self.parts.len() as u32;
        histogram
    }

    /// The largest number of blocks mapped to any single set (the
    /// worst-case pressure; self-eviction is possible once it exceeds the
    /// way count).
    pub fn max_set_pressure(&self) -> usize {
        self.parts.values().map(BTreeSet::len).max().unwrap_or(0)
    }

    /// Block-wise union of two partitions.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn union(&self, other: &Ciip) -> Ciip {
        assert_eq!(
            self.geometry, other.geometry,
            "CIIPs from different cache geometries cannot be merged"
        );
        Ciip::from_blocks(self.geometry, self.blocks().chain(other.blocks()))
    }
}

/// One non-zero per-set term of the Eq. 2 / Eq. 3 overlap bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapContribution {
    /// The cache set the term belongs to.
    pub set: SetIndex,
    /// `min(|m̂a,r|, |m̂b,r|, L)` for that set.
    pub lines: usize,
    /// Which argument of the `min` was binding.
    pub cap: rtobs::OverlapCap,
}

impl fmt::Display for Ciip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CIIP({} blocks over {} sets)", self.block_count(), self.subset_count())
    }
}

impl Extend<MemoryBlock> for Ciip {
    fn extend<T: IntoIterator<Item = MemoryBlock>>(&mut self, iter: T) {
        for block in iter {
            self.parts.entry(self.geometry.index_of_block(block)).or_default().insert(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::example2()
    }

    /// Paper Example 3: M = {0x000, 0x100, 0x010, 0x110, 0x210}.
    fn example3() -> Ciip {
        Ciip::from_addrs(geom(), [0x000u64, 0x100, 0x010, 0x110, 0x210])
    }

    #[test]
    fn example3_partition_shape() {
        let m = example3();
        assert_eq!(m.subset_count(), 2);
        assert_eq!(m.block_count(), 5);
        assert_eq!(m.subset_len(SetIndex::new(0)), 2);
        assert_eq!(m.subset_len(SetIndex::new(1)), 3);
        assert_eq!(m.subset_len(SetIndex::new(2)), 0);
        assert!(m.subset(SetIndex::new(5)).is_none());
    }

    #[test]
    fn example4_overlap_bound_is_four() {
        // Paper Example 4: M1 as Example 3, M2 = {0x200, 0x310, 0x410, 0x510}.
        let m1 = example3();
        let m2 = Ciip::from_addrs(geom(), [0x200u64, 0x310, 0x410, 0x510]);
        // Set 0: min(2, 1, 4) = 1; set 1: min(3, 3, 4) = 3; total 4.
        assert_eq!(m1.overlap_bound(&m2), 4);
        assert_eq!(m2.overlap_bound(&m1), 4, "bound is symmetric");
    }

    #[test]
    fn overlap_contributions_match_the_bound_and_name_the_cap() {
        let m1 = example3();
        let m2 = Ciip::from_addrs(geom(), [0x200u64, 0x310, 0x410, 0x510]);
        let contributions = m1.overlap_contributions(&m2);
        let total: usize = contributions.iter().map(|c| c.lines).sum();
        assert_eq!(total, m1.overlap_bound(&m2));
        // Set 0: min(2, 1, 4) = 1 capped by the preempting side;
        // set 1: min(3, 3, 4) = 3 capped by the (tied) preempted side.
        assert_eq!(
            contributions,
            vec![
                OverlapContribution {
                    set: SetIndex::new(0),
                    lines: 1,
                    cap: rtobs::OverlapCap::Preempting,
                },
                OverlapContribution {
                    set: SetIndex::new(1),
                    lines: 3,
                    cap: rtobs::OverlapCap::Preempted,
                },
            ]
        );
        // Direct-mapped: associativity saturates every non-empty set.
        let g = CacheGeometry::new(16, 1, 16).unwrap();
        let a = Ciip::from_addrs(g, [0x000u64, 0x100, 0x200]);
        let b = Ciip::from_addrs(g, [0x300u64, 0x400]);
        let caps: Vec<_> = a.overlap_contributions(&b).iter().map(|c| c.cap).collect();
        assert_eq!(caps, vec![rtobs::OverlapCap::Ways]);
    }

    #[test]
    fn overlap_bound_caps_at_ways() {
        // Direct-mapped: L = 1 caps every set's contribution at 1.
        let g = CacheGeometry::new(16, 1, 16).unwrap();
        let a = Ciip::from_addrs(g, [0x000u64, 0x100, 0x200]);
        let b = Ciip::from_addrs(g, [0x300u64, 0x400]);
        assert_eq!(a.overlap_bound(&b), 1);
    }

    #[test]
    fn disjoint_indices_never_conflict() {
        let a = Ciip::from_addrs(geom(), [0x000u64, 0x100]);
        let b = Ciip::from_addrs(geom(), [0x010u64, 0x110]);
        assert_eq!(a.overlap_bound(&b), 0);
    }

    #[test]
    fn line_bound_counts_occupancy() {
        let m = example3();
        // Set 0 holds 2 lines, set 1 holds 3 (<= 4 ways): 5 lines total.
        assert_eq!(m.line_bound(), 5);
        // With 2 ways the same blocks occupy at most 2 + 2 = 4 lines.
        let g2 = CacheGeometry::new(16, 2, 16).unwrap();
        let m2 = Ciip::from_addrs(g2, [0x000u64, 0x100, 0x010, 0x110, 0x210]);
        assert_eq!(m2.line_bound(), 4);
    }

    #[test]
    fn union_merges_blocks() {
        let a = Ciip::from_addrs(geom(), [0x000u64, 0x010, 0x020]);
        let b = Ciip::from_addrs(geom(), [0x010u64, 0x020, 0x030]);
        let u = a.union(&b);
        assert_eq!(u.block_count(), 4);
        for blk in a.blocks().chain(b.blocks()) {
            assert!(u.contains(blk));
        }
    }

    #[test]
    fn duplicates_collapse() {
        let m = Ciip::from_addrs(geom(), [0x000u64, 0x001, 0x00f, 0x000]);
        assert_eq!(m.block_count(), 1);
    }

    #[test]
    fn extend_adds_blocks() {
        let mut m = Ciip::empty(geom());
        assert!(m.is_empty());
        m.extend([MemoryBlock::new(0), MemoryBlock::new(1)]);
        assert_eq!(m.block_count(), 2);
    }

    #[test]
    #[should_panic(expected = "different cache geometries")]
    fn geometry_mismatch_panics() {
        let a = Ciip::empty(geom());
        let b = Ciip::empty(CacheGeometry::new(32, 4, 16).unwrap());
        let _ = a.overlap_bound(&b);
    }

    #[test]
    fn display_summarizes() {
        assert_eq!(example3().to_string(), "CIIP(5 blocks over 2 sets)");
    }

    #[test]
    fn occupancy_histogram_partitions_the_sets() {
        let m = example3();
        let h = m.occupancy_histogram();
        assert_eq!(h, vec![14, 0, 1, 1]);
        assert_eq!(h.iter().sum::<u32>(), m.geometry().sets());
        assert_eq!(m.max_set_pressure(), 3);
        let empty = Ciip::empty(geom());
        assert_eq!(empty.occupancy_histogram(), vec![16]);
        assert_eq!(empty.max_set_pressure(), 0);
    }
}
