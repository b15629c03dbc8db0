//! Set-associative cache modelling for real-time timing analysis.
//!
//! This crate provides the cache substrate of the Tan & Mooney (DATE 2004)
//! WCRT reproduction:
//!
//! * [`CacheGeometry`] — the (sets, ways, line size) description of a cache
//!   and the tag/index/offset split of a memory address (paper §III-A,
//!   Fig. 2).
//! * [`MemoryBlock`] — a line-sized, line-aligned block of memory; the unit
//!   every cache operation works on (paper Example 2).
//! * [`CacheSim`] — an executable cache with pluggable replacement
//!   ([`ReplacementPolicy`]), hit/miss/eviction accounting and snapshots.
//!   This is the ground-truth model used by the scheduler co-simulation.
//! * [`ColdLru`] — the analysis's one LRU model: a cold cache replayed
//!   one access at a time over dense per-set stacks. The useful-block
//!   classification and the WCET estimator both drive it; it shares no
//!   code with [`CacheSim`], so the co-simulation stays an independent
//!   oracle.
//! * [`Ciip`] — the *Cache Index Induced Partition* of a memory-block set
//!   (paper Definition 3) together with the per-set conflict bound
//!   `S(Ma, Mb) = Σ_r min(|m̂a,r|, |m̂b,r|, L)` of Eq. 2/3.
//! * [`PackedFootprint`] — the same footprint flattened to one saturated
//!   byte per cache set, turning the Eq. 2/3 bound into a dense min-sum
//!   for the hot CRPD inner loop.
//!
//! # Example
//!
//! The cache of the paper's Example 2: 4-way set associative, 16-byte
//! lines, 1 KiB total (16 sets).
//!
//! ```
//! use rtcache::{CacheGeometry, CacheSim};
//!
//! # fn main() -> Result<(), rtcache::GeometryError> {
//! let geom = CacheGeometry::new(16, 4, 16)?;
//! assert_eq!(geom.size_bytes(), 1024);
//! assert_eq!(geom.index_of_addr(0x011).as_u32(), 1);
//!
//! let mut cache = CacheSim::new(geom);
//! assert!(cache.access(0x011).is_miss()); // cold
//! assert!(cache.access(0x01f).is_hit());  // same 16-byte block
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ciip;
mod geometry;
mod hierarchy;
mod lru;
mod packed;
mod replacement;
mod sim;

pub use ciip::{Ciip, OverlapContribution};
pub use geometry::{CacheGeometry, GeometryError, MemoryBlock, SetIndex};
pub use hierarchy::{CacheHierarchy, HierarchyError, LevelOutcome};
pub use lru::ColdLru;
pub use packed::{counts_dominate, PackedFootprint};
pub use replacement::ReplacementPolicy;
pub use sim::{AccessOutcome, CacheSim, CacheSnapshot, CacheStats};
