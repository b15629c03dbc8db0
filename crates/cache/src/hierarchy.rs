//! A two-level cache hierarchy (L1 + L2) for measurement: the scheduler
//! co-simulation's optional L2. No analysis bounds this hierarchy; the
//! paper leaves multi-level caches to future work (§IX).
//!
//! The model is a non-inclusive lookup hierarchy: every access probes L1;
//! on an L1 miss the L2 is probed; on an L2 miss both levels fill. L2
//! recency is only updated by L1 misses, as in real hardware.

use std::fmt;

use crate::{CacheGeometry, CacheSim, GeometryError, MemoryBlock, ReplacementPolicy};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOutcome {
    /// Satisfied by the L1.
    L1Hit,
    /// Missed L1, satisfied by the L2.
    L2Hit,
    /// Missed both levels (memory access).
    MemMiss,
}

/// Errors from [`CacheHierarchy::with_policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// L1 and L2 must share a line size (no sectoring).
    LineSizeMismatch {
        /// L1 line bytes.
        l1: u32,
        /// L2 line bytes.
        l2: u32,
    },
    /// The L2 must be at least as large as the L1.
    L2SmallerThanL1,
    /// An underlying geometry was invalid.
    Geometry(GeometryError),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::LineSizeMismatch { l1, l2 } => {
                write!(f, "L1 ({l1} B) and L2 ({l2} B) line sizes must match")
            }
            HierarchyError::L2SmallerThanL1 => write!(f, "L2 must be at least as large as L1"),
            HierarchyError::Geometry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl From<GeometryError> for HierarchyError {
    fn from(e: GeometryError) -> Self {
        HierarchyError::Geometry(e)
    }
}

/// An executable L1 + L2 hierarchy.
///
/// ```
/// use rtcache::{CacheGeometry, CacheHierarchy, LevelOutcome, ReplacementPolicy};
///
/// # fn main() -> Result<(), rtcache::HierarchyError> {
/// let l1 = CacheGeometry::new(2, 1, 16)?;
/// let l2 = CacheGeometry::new(8, 2, 16)?;
/// let mut h = CacheHierarchy::with_policy(l1, l2, ReplacementPolicy::Lru)?;
/// let block = |addr| l1.block_of_addr(addr);
/// assert_eq!(h.access_block(block(0x000)), LevelOutcome::MemMiss);
/// assert_eq!(h.access_block(block(0x000)), LevelOutcome::L1Hit);
/// // Evict from the tiny L1 (same set), then re-touch: the L2 holds it.
/// h.access_block(block(0x020));
/// h.access_block(block(0x040));
/// assert_eq!(h.access_block(block(0x000)), LevelOutcome::L2Hit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: CacheSim,
    l2: CacheSim,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy with the given replacement policy at
    /// both levels.
    ///
    /// # Errors
    ///
    /// Returns a [`HierarchyError`] if the line sizes differ or the L2 is
    /// smaller than the L1.
    pub fn with_policy(
        l1: CacheGeometry,
        l2: CacheGeometry,
        policy: ReplacementPolicy,
    ) -> Result<Self, HierarchyError> {
        if l1.line_bytes() != l2.line_bytes() {
            return Err(HierarchyError::LineSizeMismatch {
                l1: l1.line_bytes(),
                l2: l2.line_bytes(),
            });
        }
        if l2.size_bytes() < l1.size_bytes() {
            return Err(HierarchyError::L2SmallerThanL1);
        }
        Ok(CacheHierarchy {
            l1: CacheSim::with_policy(l1, policy),
            l2: CacheSim::with_policy(l2, policy),
        })
    }

    /// Accesses a memory block.
    pub fn access_block(&mut self, block: MemoryBlock) -> LevelOutcome {
        if self.l1.access_block(block).is_hit() {
            return LevelOutcome::L1Hit;
        }
        if self.l2.access_block(block).is_hit() {
            LevelOutcome::L2Hit
        } else {
            LevelOutcome::MemMiss
        }
    }

    /// The L1 simulator (e.g. for snapshots).
    pub fn l1(&self) -> &CacheSim {
        &self.l1
    }

    /// The L2 simulator.
    pub fn l2(&self) -> &CacheSim {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::with_policy(
            CacheGeometry::new(2, 1, 16).unwrap(),
            CacheGeometry::new(8, 2, 16).unwrap(),
            ReplacementPolicy::Lru,
        )
        .unwrap()
    }

    fn access(h: &mut CacheHierarchy, addr: u64) -> LevelOutcome {
        h.access_block(h.l1().geometry().block_of_addr(addr))
    }

    #[test]
    fn miss_fills_both_levels() {
        let mut h = hierarchy();
        assert_eq!(access(&mut h, 0x00), LevelOutcome::MemMiss);
        assert!(h.l1().is_resident(h.l1().geometry().block_of_addr(0x00)));
        assert!(h.l2().is_resident(h.l2().geometry().block_of_addr(0x00)));
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = hierarchy();
        access(&mut h, 0x00);
        access(&mut h, 0x20); // same L1 set (2 sets), evicts 0x00 from L1
        assert_eq!(access(&mut h, 0x00), LevelOutcome::L2Hit);
    }

    #[test]
    fn l2_hits_do_not_touch_memory() {
        let mut h = hierarchy();
        // Thrash the direct-mapped L1 set 0 with three blocks; all stay in
        // the 8-set 2-way L2 (different L2 sets).
        for _ in 0..3 {
            for addr in [0x000u64, 0x020, 0x040] {
                access(&mut h, addr);
            }
        }
        let mem_misses = h.l2().stats().misses;
        assert_eq!(mem_misses, 3, "each block fetched from memory exactly once");
    }

    #[test]
    fn l2_recency_updated_only_on_l1_miss() {
        let mut h = hierarchy();
        access(&mut h, 0x00);
        // 100 L1 hits on 0x00 leave the L2 untouched after the first fill.
        for _ in 0..100 {
            assert_eq!(access(&mut h, 0x00), LevelOutcome::L1Hit);
        }
        assert_eq!(h.l2().stats().accesses, 1);
    }

    #[test]
    fn rejects_mismatched_lines_and_small_l2() {
        let a = CacheGeometry::new(2, 1, 16).unwrap();
        let b = CacheGeometry::new(8, 2, 32).unwrap();
        let lru = ReplacementPolicy::Lru;
        assert!(matches!(
            CacheHierarchy::with_policy(a, b, lru),
            Err(HierarchyError::LineSizeMismatch { .. })
        ));
        let tiny = CacheGeometry::new(1, 1, 16).unwrap();
        assert!(matches!(
            CacheHierarchy::with_policy(a, tiny, lru),
            Err(HierarchyError::L2SmallerThanL1)
        ));
    }

    #[test]
    fn error_display() {
        let e = HierarchyError::LineSizeMismatch { l1: 16, l2: 32 };
        assert!(e.to_string().contains("line sizes"));
        assert!(HierarchyError::L2SmallerThanL1.to_string().contains("at least as large"));
    }
}
