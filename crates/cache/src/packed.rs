//! Dense, pre-saturated footprint vectors for the Eq. 2 / Eq. 3 kernel.
//!
//! A [`PackedFootprint`] flattens a [`Ciip`] into one byte per cache set
//! holding `min(|m̂_r|, L)` — the only quantity the bound ever reads — so
//! the overlap bound becomes a branchless min-sum over two byte slices
//! (2 KB each for the paper's 32 KiB / 4-way geometry) that the compiler
//! autovectorizes. It is the one Eq. 2/3 kernel every approach runs;
//! [`Ciip::overlap_bound`]'s tree walk stays as its reference.
//!
//! Every geometry [`CacheGeometry::new`] accepts packs: it caps the way
//! count at [`CacheGeometry::MAX_WAYS`] (255), so a saturated count always
//! fits its byte.
//!
//! Saturating at `L` during construction is lossless for every consumer:
//! the per-set term is `min(|m̂a,r|, |m̂b,r|, L) = min(sat_a[r], sat_b[r])`
//! with `sat[r] = min(|m̂_r|, L)`, and the line bound `Σ_r min(|m̂_r|, L)`
//! is just the vector's element sum, precomputed at build time.

use std::fmt;

use crate::{CacheGeometry, Ciip, SetIndex};

/// A footprint packed for the hot CRPD kernel: one byte per cache set
/// holding the saturated count `min(|m̂_r|, L)`, plus the precomputed
/// line bound `Σ_r min(|m̂_r|, L)`.
///
/// ```
/// use rtcache::{CacheGeometry, Ciip, PackedFootprint};
///
/// // Paper Example 4: S(M1, M2) = 4.
/// let geom = CacheGeometry::example2();
/// let m1 = Ciip::from_addrs(geom, [0x000u64, 0x100, 0x010, 0x110, 0x210]);
/// let m2 = Ciip::from_addrs(geom, [0x200u64, 0x310, 0x410, 0x510]);
/// let p1 = PackedFootprint::from_ciip(&m1);
/// let p2 = PackedFootprint::from_ciip(&m2);
/// assert_eq!(p1.overlap_bound(&p2), m1.overlap_bound(&m2));
/// assert_eq!(p1.line_bound(), m1.line_bound());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedFootprint {
    geometry: CacheGeometry,
    /// `counts[r] = min(|m̂_r|, L)`; length is exactly `geometry.sets()`.
    counts: Vec<u8>,
    /// `Σ_r counts[r]`, the Eq. 1 line bound, fixed at build time.
    line_bound: usize,
}

impl PackedFootprint {
    /// Packs a [`Ciip`] into its dense saturated-count vector.
    pub fn from_ciip(ciip: &Ciip) -> Self {
        Self::from_counts(ciip.geometry(), ciip.iter().map(|(idx, subset)| (idx, subset.len())))
    }

    /// Packs explicit per-set block counts (absent sets count zero),
    /// saturating each at the way count.
    pub fn from_counts<I>(geometry: CacheGeometry, counts: I) -> Self
    where
        I: IntoIterator<Item = (SetIndex, usize)>,
    {
        let ways = u8::try_from(geometry.ways()).expect("CacheGeometry::new caps ways at 255");
        let mut packed = vec![0u8; geometry.sets() as usize];
        let mut line_bound = 0usize;
        for (idx, count) in counts {
            let sat = count.min(ways as usize) as u8;
            let slot = &mut packed[idx.as_usize()];
            line_bound = line_bound - *slot as usize + sat as usize;
            *slot = sat;
        }
        PackedFootprint { geometry, counts: packed, line_bound }
    }

    /// The geometry the footprint was packed for.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The saturated per-set counts, one byte per cache set.
    pub fn counts(&self) -> &[u8] {
        &self.counts
    }

    /// `min(|m̂_index|, L)` for one set.
    pub fn count(&self, index: SetIndex) -> u8 {
        self.counts[index.as_usize()]
    }

    /// The precomputed line bound `Σ_r min(|m̂_r|, L)` (Eq. 1 / Approach
    /// 1's charge). Equals [`Ciip::line_bound`] of the source partition.
    pub fn line_bound(&self) -> usize {
        self.line_bound
    }

    /// Eq. 2 / Eq. 3: `S(Ma, Mb) = Σ_r min(|m̂a,r|, |m̂b,r|, L)` as a dense
    /// min-sum over the two saturated vectors. Bit-identical to
    /// [`Ciip::overlap_bound`] on the source partitions.
    ///
    /// # Panics
    ///
    /// Panics if the footprints were packed for different geometries.
    pub fn overlap_bound(&self, other: &PackedFootprint) -> usize {
        assert_eq!(
            self.geometry, other.geometry,
            "packed footprints from different cache geometries cannot be compared"
        );
        min_sum(&self.counts, &other.counts)
    }

    /// `true` if `self` is element-wise `>=` `other`: then for *every*
    /// preempting footprint `mb`, `S(self, mb) >= S(other, mb)`, so
    /// `other` can never win a `max_overlap_bound` search — the dominance
    /// relation behind the useful-trace skyline pruning.
    ///
    /// # Panics
    ///
    /// Panics if the footprints were packed for different geometries.
    pub fn dominates(&self, other: &PackedFootprint) -> bool {
        assert_eq!(
            self.geometry, other.geometry,
            "packed footprints from different cache geometries cannot be compared"
        );
        // Cheap rejection: element-wise dominance implies sum dominance.
        self.line_bound >= other.line_bound && counts_dominate(&self.counts, &other.counts)
    }
}

/// `true` if `high[r] >= low[r]` for every set `r`: the element-wise
/// dominance test behind [`PackedFootprint::dominates`] and the
/// useful-trace skyline build, over raw saturated-count slices.
///
/// Branchless within 32-byte chunks (the compiler turns each into a
/// vector compare and one mask test), with an early exit between
/// chunks and a scalar tail.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn counts_dominate(high: &[u8], low: &[u8]) -> bool {
    assert_eq!(high.len(), low.len(), "count vectors of different lengths cannot be compared");
    let mut high_chunks = high.chunks_exact(32);
    let mut low_chunks = low.chunks_exact(32);
    for (ch, cl) in high_chunks.by_ref().zip(low_chunks.by_ref()) {
        let mut below = false;
        for i in 0..32 {
            below |= ch[i] < cl[i];
        }
        if below {
            return false;
        }
    }
    high_chunks.remainder().iter().zip(low_chunks.remainder()).all(|(h, l)| h >= l)
}

/// Branchless chunked min-sum: 16-byte blocks (two `u64` lanes' worth,
/// autovectorized to byte-min + horizontal-add) with a scalar tail.
fn min_sum(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut a_chunks = a.chunks_exact(16);
    let mut b_chunks = b.chunks_exact(16);
    let mut total = 0u64;
    for (ca, cb) in a_chunks.by_ref().zip(b_chunks.by_ref()) {
        // A fixed-size inner loop keeps the per-chunk accumulator in u32
        // (16 × 255 can't overflow it) and vectorizes cleanly.
        let mut chunk = 0u32;
        for i in 0..16 {
            chunk += u32::from(ca[i].min(cb[i]));
        }
        total += u64::from(chunk);
    }
    for (x, y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        total += u64::from(*x.min(y));
    }
    total as usize
}

impl fmt::Display for PackedFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackedFootprint({} lines over {} sets)",
            self.line_bound,
            self.counts.iter().filter(|c| **c > 0).count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::example2()
    }

    fn example3() -> Ciip {
        Ciip::from_addrs(geom(), [0x000u64, 0x100, 0x010, 0x110, 0x210])
    }

    #[test]
    fn example4_matches_tree_bound() {
        let m1 = example3();
        let m2 = Ciip::from_addrs(geom(), [0x200u64, 0x310, 0x410, 0x510]);
        let p1 = PackedFootprint::from_ciip(&m1);
        let p2 = PackedFootprint::from_ciip(&m2);
        assert_eq!(p1.overlap_bound(&p2), 4);
        assert_eq!(p2.overlap_bound(&p1), 4, "bound is symmetric");
        assert_eq!(p1.line_bound(), m1.line_bound());
        assert_eq!(p2.line_bound(), m2.line_bound());
    }

    #[test]
    fn counts_saturate_at_ways() {
        let g = CacheGeometry::new(4, 2, 16).unwrap();
        // Five blocks in set 0 saturate at 2 ways.
        let m = Ciip::from_blocks(g, (0..5u64).map(|i| crate::MemoryBlock::new(i * 4)));
        let p = PackedFootprint::from_ciip(&m);
        assert_eq!(p.count(SetIndex::new(0)), 2);
        assert_eq!(p.count(SetIndex::new(1)), 0);
        assert_eq!(p.line_bound(), 2);
        assert_eq!(p.counts().len(), 4);
    }

    #[test]
    fn long_vectors_exercise_chunks_and_tail() {
        // 512 sets: 32 full 16-byte chunks; 8 sets: scalar tail only.
        for sets in [512u32, 32, 8] {
            let g = CacheGeometry::new(sets, 4, 16).unwrap();
            let a = Ciip::from_blocks(g, (0..600u64).map(crate::MemoryBlock::new));
            let b = Ciip::from_blocks(g, (300..700u64).map(|i| crate::MemoryBlock::new(i * 3)));
            let pa = PackedFootprint::from_ciip(&a);
            let pb = PackedFootprint::from_ciip(&b);
            assert_eq!(pa.overlap_bound(&pb), a.overlap_bound(&b), "{sets} sets");
            assert_eq!(pa.line_bound(), a.line_bound());
        }
    }

    #[test]
    fn single_set_geometry_packs_and_matches_tree() {
        // 1 set: every block collides; the packed kernel is a single
        // saturating min against the way count.
        let g = CacheGeometry::new(1, 4, 16).unwrap();
        let a = Ciip::from_blocks(g, (0..7u64).map(crate::MemoryBlock::new));
        let b = Ciip::from_blocks(g, (5..8u64).map(crate::MemoryBlock::new));
        let pa = PackedFootprint::from_ciip(&a);
        let pb = PackedFootprint::from_ciip(&b);
        assert_eq!(pa.count(SetIndex::new(0)), 4, "7 blocks saturate at 4 ways");
        assert_eq!(pa.overlap_bound(&pb), a.overlap_bound(&b));
        assert_eq!(pa.overlap_bound(&pb), 3, "min(4, 3, L=4)");
    }

    #[test]
    fn way_count_boundary_is_exactly_u8() {
        // 255 ways is the last packable width: counts fit u8 unsaturated
        // and the packed bound still equals the tree walk.
        let g = CacheGeometry::new(2, 255, 16).unwrap();
        let a = Ciip::from_blocks(g, (0..300u64).map(crate::MemoryBlock::new));
        let b = Ciip::from_blocks(g, (100..500u64).map(crate::MemoryBlock::new));
        let pa = PackedFootprint::from_ciip(&a);
        let pb = PackedFootprint::from_ciip(&b);
        assert_eq!(pa.overlap_bound(&pb), a.overlap_bound(&b));
        // 256 ways do not fit a u8 lane, so `CacheGeometry::new` refuses them.
        assert_eq!(CacheGeometry::new(2, 256, 16), Err(crate::GeometryError::TooManyWays(256)));
    }

    #[test]
    fn zero_footprint_overlaps_nothing_both_ways() {
        let g = geom();
        let empty = PackedFootprint::from_ciip(&Ciip::empty(g));
        let full = PackedFootprint::from_ciip(&example3());
        assert_eq!(empty.overlap_bound(&full), 0);
        assert_eq!(full.overlap_bound(&empty), 0);
        assert_eq!(empty.overlap_bound(&empty), 0);
        assert_eq!(empty.line_bound(), 0);
        assert!(full.dominates(&empty), "anything dominates the zero footprint");
    }

    #[test]
    fn dominance_is_elementwise() {
        let g = geom();
        let small = PackedFootprint::from_ciip(&Ciip::from_addrs(g, [0x000u64, 0x010]));
        let big = PackedFootprint::from_ciip(&Ciip::from_addrs(
            g,
            [0x000u64, 0x100, 0x010, 0x110, 0x020],
        ));
        assert!(big.dominates(&small));
        assert!(!small.dominates(&big));
        assert!(big.dominates(&big), "dominance is reflexive");
        // Incomparable vectors: each has a set the other lacks.
        let left = PackedFootprint::from_ciip(&Ciip::from_addrs(g, [0x000u64]));
        let right = PackedFootprint::from_ciip(&Ciip::from_addrs(g, [0x010u64]));
        assert!(!left.dominates(&right) && !right.dominates(&left));
    }

    #[test]
    fn counts_dominate_checks_every_chunk_and_the_tail() {
        // 32-byte chunks: a single lower byte anywhere — first chunk,
        // last full chunk or the scalar tail — breaks dominance.
        for len in [0usize, 7, 32, 64, 100, 512] {
            let high = vec![3u8; len];
            let low: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
            assert!(counts_dominate(&high, &low), "{len} bytes");
            assert_eq!(counts_dominate(&low, &high), len == 0, "{len} bytes");
            for at in [0, len / 2, len.saturating_sub(1)] {
                if at >= len {
                    continue;
                }
                let mut bumped = low.clone();
                bumped[at] = 4;
                assert!(!counts_dominate(&high, &bumped), "{len} bytes, raised at {at}");
                assert!(counts_dominate(&bumped, &low), "{len} bytes, raised at {at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn counts_dominate_rejects_mismatched_lengths() {
        let _ = counts_dominate(&[1, 2], &[1]);
    }

    #[test]
    fn dominated_point_never_beats_dominator_on_any_preemptor() {
        let g = geom();
        let small = PackedFootprint::from_ciip(&Ciip::from_addrs(g, [0x000u64, 0x010]));
        let big = PackedFootprint::from_ciip(&Ciip::from_addrs(
            g,
            [0x000u64, 0x100, 0x010, 0x110, 0x020],
        ));
        for seed in 0..16u64 {
            let mb = PackedFootprint::from_ciip(&Ciip::from_blocks(
                g,
                (0..20).map(|i| crate::MemoryBlock::new(i * seed + i)),
            ));
            assert!(small.overlap_bound(&mb) <= big.overlap_bound(&mb));
        }
    }

    #[test]
    fn from_counts_accepts_duplicates_last_wins() {
        let g = geom();
        let p = PackedFootprint::from_counts(
            g,
            [(SetIndex::new(1), 7), (SetIndex::new(1), 1), (SetIndex::new(2), 3)],
        );
        assert_eq!(p.count(SetIndex::new(1)), 1);
        assert_eq!(p.count(SetIndex::new(2)), 3);
        assert_eq!(p.line_bound(), 4);
    }

    #[test]
    #[should_panic(expected = "different cache geometries")]
    fn geometry_mismatch_panics() {
        let a = PackedFootprint::from_ciip(&Ciip::empty(geom()));
        let b = PackedFootprint::from_ciip(&Ciip::empty(CacheGeometry::new(32, 4, 16).unwrap()));
        let _ = a.overlap_bound(&b);
    }

    #[test]
    fn display_summarizes() {
        let p = PackedFootprint::from_ciip(&example3());
        assert_eq!(p.to_string(), "PackedFootprint(5 lines over 2 sets)");
    }
}
