//! The analysis's cold-cache LRU kernel.

use crate::{CacheGeometry, MemoryBlock};

/// A cache that starts empty and replaces by LRU, replayed one access at
/// a time: the one LRU model the analysis runs. The useful-block
/// classification and the WCET estimator both drive
/// [`ColdLru::access`].
///
/// Each line holds its block and the position of the block's last
/// access. Positions only grow, so the least recently used line of a
/// full set is the one with the smallest position, and a hit returns the
/// position its line held: the block has sat in that line since then. A
/// cold set fills its ways in order, so its valid lines are a prefix.
///
/// [`CacheSim`](crate::CacheSim) is the co-simulation's executable cache
/// and shares no code with this kernel, so the soundness oracle checks
/// the analysis against an independent replay.
///
/// ```
/// use rtcache::{CacheGeometry, ColdLru, MemoryBlock};
///
/// # fn main() -> Result<(), rtcache::GeometryError> {
/// let mut lru = ColdLru::new(CacheGeometry::new(1, 2, 16)?);
/// let (a, b, c) = (MemoryBlock::new(0), MemoryBlock::new(1), MemoryBlock::new(2));
/// assert_eq!(lru.access(a), None); // position 0: cold miss
/// assert_eq!(lru.access(b), None); // position 1
/// assert_eq!(lru.access(a), Some(0)); // hits; last touched at 0
/// assert_eq!(lru.access(c), None); // evicts b, the LRU block
/// assert_eq!(lru.access(b), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ColdLru {
    geometry: CacheGeometry,
    ways: usize,
    /// `sets × ways` lines; set `s` owns `lines[s·ways .. (s+1)·ways]`.
    blocks: Vec<MemoryBlock>,
    /// Last access position per line, parallel to `blocks`.
    last: Vec<usize>,
    /// Valid lines per set.
    filled: Vec<usize>,
    /// Position of the next access.
    next: usize,
}

impl ColdLru {
    /// An empty cache of `geometry`.
    pub fn new(geometry: CacheGeometry) -> Self {
        let ways = geometry.ways() as usize;
        let lines = geometry.sets() as usize * ways;
        ColdLru {
            geometry,
            ways,
            blocks: vec![MemoryBlock::new(0); lines],
            last: vec![0; lines],
            filled: vec![0; geometry.sets() as usize],
            next: 0,
        }
    }

    /// Accesses `block` as the next position (the first access is
    /// position 0). Returns the position of the block's previous access
    /// if this access hits, and `None` if it misses.
    #[inline]
    pub fn access(&mut self, block: MemoryBlock) -> Option<usize> {
        let pos = self.next;
        self.next += 1;
        let set = self.geometry.index_of_block(block).as_usize();
        let lines = set * self.ways..(set + 1) * self.ways;
        let (blocks, last) = (&mut self.blocks[lines.clone()], &mut self.last[lines]);
        let filled = &mut self.filled[set];
        if let Some(way) = blocks[..*filled].iter().position(|b| *b == block) {
            return Some(std::mem::replace(&mut last[way], pos));
        }
        let way = if *filled < blocks.len() {
            *filled += 1;
            *filled - 1
        } else {
            // Full set: evict the line touched longest ago.
            let (victim, _) =
                last.iter().enumerate().min_by_key(|(_, at)| **at).expect("a set has ways");
            victim
        };
        blocks[way] = block;
        last[way] = pos;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheSim;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Every outcome equals the executable LRU cache's, and a hit
        /// returns the position of the block's previous access.
        #[test]
        fn outcomes_match_the_executable_cache(
            set_log in 0u32..=5,
            ways in 1u32..=8,
            refs in prop::collection::vec(0u64..256, 0..400),
        ) {
            let geometry = CacheGeometry::new(1 << set_log, ways, 16).expect("valid geometry");
            let mut lru = ColdLru::new(geometry);
            let mut sim = CacheSim::new(geometry);
            let mut last = BTreeMap::new();
            for (pos, r) in refs.into_iter().enumerate() {
                let block = MemoryBlock::new(r);
                let previous = lru.access(block);
                prop_assert_eq!(previous.is_some(), sim.access_block(block).is_hit());
                if previous.is_some() {
                    prop_assert_eq!(previous, last.get(&block).copied());
                }
                last.insert(block, pos);
            }
        }
    }
}
