//! Cache geometry and the tag/index/offset address split.

use std::fmt;

/// A line-sized, line-aligned block of memory, identified by its block
/// number (`address >> offset_bits`).
///
/// The paper (Example 2) notes that every cache operation is performed on
/// whole memory blocks: loading one byte pulls in the full surrounding
/// block. This newtype keeps block numbers distinct from raw byte
/// addresses ([C-NEWTYPE]).
///
/// ```
/// use rtcache::{CacheGeometry, MemoryBlock};
///
/// # fn main() -> Result<(), rtcache::GeometryError> {
/// let geom = CacheGeometry::new(16, 4, 16)?;
/// let block = geom.block_of_addr(0x011);
/// assert_eq!(block, MemoryBlock::new(1));
/// assert_eq!(geom.base_addr_of_block(block), 0x010);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemoryBlock(u64);

impl MemoryBlock {
    /// Creates a block from its block number.
    pub const fn new(number: u64) -> Self {
        MemoryBlock(number)
    }

    /// The block number (`address >> offset_bits`).
    pub const fn number(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MemoryBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{:#x}", self.0)
    }
}

impl fmt::LowerHex for MemoryBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<MemoryBlock> for u64 {
    fn from(b: MemoryBlock) -> u64 {
        b.0
    }
}

/// The index of a cache set, `0 ..= sets - 1` (paper §III-A: "the sets in a
/// cache are indexed sequentially, starting from 0").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SetIndex(u32);

impl SetIndex {
    /// Creates a set index.
    pub const fn new(index: u32) -> Self {
        SetIndex(index)
    }

    /// The raw index value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The raw index as a `usize`, for indexing per-set tables.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SetIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cs({})", self.0)
    }
}

/// Errors from [`CacheGeometry::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// The number of sets must be a non-zero power of two so the index can
    /// be carved out of the address bits.
    SetsNotPowerOfTwo(u32),
    /// More sets than [`CacheGeometry::MAX_SETS`]: per-set tables are
    /// dense, so the set count bounds the memory one analysis takes.
    TooManySets(u32),
    /// At least one way is required.
    ZeroWays,
    /// More ways than [`CacheGeometry::MAX_WAYS`], the widest count a
    /// packed footprint's one-byte lane holds.
    TooManyWays(u32),
    /// The line size must be a power of two of at least 4 bytes (one
    /// instruction word).
    BadLineBytes(u32),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::SetsNotPowerOfTwo(n) => {
                write!(f, "number of cache sets must be a power of two, got {n}")
            }
            GeometryError::TooManySets(n) => {
                write!(
                    f,
                    "number of cache sets must be at most {}, got {n}",
                    CacheGeometry::MAX_SETS
                )
            }
            GeometryError::ZeroWays => write!(f, "cache must have at least one way"),
            GeometryError::TooManyWays(n) => {
                write!(f, "number of ways must be at most {}, got {n}", CacheGeometry::MAX_WAYS)
            }
            GeometryError::BadLineBytes(n) => {
                write!(f, "line size must be a power of two >= 4 bytes, got {n}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Geometry of a set-associative cache: number of sets, number of ways
/// (lines per set) and line size in bytes (paper §III-A).
///
/// A direct-mapped cache is the special case `ways == 1`. The geometry
/// defines the split of a byte address into tag / index / offset (Fig. 2)
/// and the mapping from addresses to [`MemoryBlock`]s and [`SetIndex`]es.
///
/// ```
/// use rtcache::CacheGeometry;
///
/// # fn main() -> Result<(), rtcache::GeometryError> {
/// // The paper's experimental cache: 32 KiB, 4-way, 16-byte lines.
/// let geom = CacheGeometry::new(512, 4, 16)?;
/// assert_eq!(geom.size_bytes(), 32 * 1024);
/// assert_eq!(geom.total_lines(), 2048);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
    line_bytes: u32,
    offset_bits: u32,
    index_bits: u32,
}

impl CacheGeometry {
    /// The most sets a geometry may have (2^16). Every per-set table the
    /// analysis keeps is dense, so this bounds the memory one untrusted
    /// spec can ask for.
    pub const MAX_SETS: u32 = 1 << 16;

    /// The most ways a geometry may have: a packed footprint stores each
    /// set's saturated count `min(|m̂_r|, L)` in one byte.
    pub const MAX_WAYS: u32 = u8::MAX as u32;

    /// Creates a geometry with `sets` cache sets, `ways` lines per set and
    /// `line_bytes` bytes per line.
    ///
    /// This is the one place that decides which caches the tool analyses:
    /// every accepted geometry packs (see [`crate::PackedFootprint`]).
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if `sets` is not a power of two or exceeds
    /// [`MAX_SETS`](Self::MAX_SETS), `ways` is zero or exceeds
    /// [`MAX_WAYS`](Self::MAX_WAYS), or `line_bytes` is not a power of two
    /// of at least 4.
    pub fn new(sets: u32, ways: u32, line_bytes: u32) -> Result<Self, GeometryError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo(sets));
        }
        if sets > Self::MAX_SETS {
            return Err(GeometryError::TooManySets(sets));
        }
        if ways == 0 {
            return Err(GeometryError::ZeroWays);
        }
        if ways > Self::MAX_WAYS {
            return Err(GeometryError::TooManyWays(ways));
        }
        if line_bytes < 4 || !line_bytes.is_power_of_two() {
            return Err(GeometryError::BadLineBytes(line_bytes));
        }
        Ok(CacheGeometry {
            sets,
            ways,
            line_bytes,
            offset_bits: line_bytes.trailing_zeros(),
            index_bits: sets.trailing_zeros(),
        })
    }

    /// The paper's experimental L1 cache: 32 KiB, 4-way set associative,
    /// 16-byte lines (512 sets, 2048 lines total).
    pub fn paper_l1() -> Self {
        CacheGeometry::new(512, 4, 16).expect("paper cache geometry is valid")
    }

    /// The 1 KiB 4-way cache of the paper's Example 2 (16 sets).
    pub fn example2() -> Self {
        CacheGeometry::new(16, 4, 16).expect("example 2 geometry is valid")
    }

    /// Number of cache sets (`N` in the paper).
    pub const fn sets(&self) -> u32 {
        self.sets
    }

    /// Number of ways, i.e. lines per set (`L` in the paper).
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub const fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total cache capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes as u64
    }

    /// Total number of cache lines (`sets * ways`).
    pub const fn total_lines(&self) -> u64 {
        self.sets as u64 * self.ways as u64
    }

    /// Number of address bits consumed by the intra-line offset.
    pub const fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Number of address bits consumed by the set index.
    pub const fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// The memory block containing byte address `addr`.
    pub const fn block_of_addr(&self, addr: u64) -> MemoryBlock {
        MemoryBlock(addr >> self.offset_bits)
    }

    /// The first byte address of memory block `block`.
    pub const fn base_addr_of_block(&self, block: MemoryBlock) -> u64 {
        block.0 << self.offset_bits
    }

    /// `idx(a)`: the cache set a byte address maps to (paper §III-A).
    pub const fn index_of_addr(&self, addr: u64) -> SetIndex {
        self.index_of_block(self.block_of_addr(addr))
    }

    /// The cache set a memory block maps to.
    pub const fn index_of_block(&self, block: MemoryBlock) -> SetIndex {
        SetIndex((block.0 & (self.sets as u64 - 1)) as u32)
    }

    /// The tag of a memory block (the block number with the index bits
    /// stripped).
    pub const fn tag_of_block(&self, block: MemoryBlock) -> u64 {
        block.0 >> self.index_bits
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B {}-way cache ({} sets x {} B lines)",
            self.size_bytes(),
            self.ways,
            self.sets,
            self.line_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example2_split() {
        // Example 2: 4-way, 16 B lines, 1 KiB => 16 sets, max index 15.
        let g = CacheGeometry::example2();
        assert_eq!(g.sets(), 16);
        assert_eq!(g.offset_bits(), 4);
        assert_eq!(g.index_bits(), 4);
        // Address 0x011 sits in the block starting at 0x010, index 1.
        assert_eq!(g.block_of_addr(0x011), MemoryBlock::new(1));
        assert_eq!(g.base_addr_of_block(MemoryBlock::new(1)), 0x010);
        assert_eq!(g.index_of_addr(0x011), SetIndex::new(1));
        assert_eq!(g.index_of_addr(0x010), SetIndex::new(1));
        assert_eq!(g.index_of_addr(0x01f), SetIndex::new(1));
        assert_eq!(g.index_of_addr(0x000), SetIndex::new(0));
    }

    #[test]
    fn paper_example3_indices() {
        // Example 3: 0x000 and 0x100 share index 0; 0x010, 0x110, 0x210
        // share index 1 in the Example 2 cache.
        let g = CacheGeometry::example2();
        assert_eq!(g.index_of_addr(0x000), g.index_of_addr(0x100));
        assert_eq!(g.index_of_addr(0x000).as_u32(), 0);
        for a in [0x010u64, 0x110, 0x210] {
            assert_eq!(g.index_of_addr(a).as_u32(), 1);
        }
        // ...but their tags differ, so they conflict rather than alias.
        let b1 = g.block_of_addr(0x010);
        let b2 = g.block_of_addr(0x110);
        assert_ne!(g.tag_of_block(b1), g.tag_of_block(b2));
    }

    #[test]
    fn paper_l1_dimensions() {
        let g = CacheGeometry::paper_l1();
        assert_eq!(g.size_bytes(), 32 * 1024);
        assert_eq!(g.total_lines(), 2048);
        assert_eq!(g.sets(), 512);
        assert_eq!(g.ways(), 4);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert_eq!(CacheGeometry::new(3, 4, 16).unwrap_err(), GeometryError::SetsNotPowerOfTwo(3));
        assert_eq!(CacheGeometry::new(0, 4, 16).unwrap_err(), GeometryError::SetsNotPowerOfTwo(0));
        assert_eq!(CacheGeometry::new(16, 0, 16).unwrap_err(), GeometryError::ZeroWays);
        assert_eq!(CacheGeometry::new(16, 256, 16).unwrap_err(), GeometryError::TooManyWays(256));
        assert_eq!(
            CacheGeometry::new(1 << 17, 4, 16).unwrap_err(),
            GeometryError::TooManySets(1 << 17)
        );
        assert_eq!(
            CacheGeometry::new(1 << 31, 1, 16).unwrap_err(),
            GeometryError::TooManySets(1 << 31)
        );
        assert_eq!(CacheGeometry::new(16, 4, 12).unwrap_err(), GeometryError::BadLineBytes(12));
        assert_eq!(CacheGeometry::new(16, 4, 2).unwrap_err(), GeometryError::BadLineBytes(2));
    }

    #[test]
    fn accepts_the_widest_and_largest_geometry() {
        let g = CacheGeometry::new(CacheGeometry::MAX_SETS, CacheGeometry::MAX_WAYS, 16).unwrap();
        assert_eq!((g.sets(), g.ways()), (65_536, 255));
    }

    #[test]
    fn direct_mapped_is_one_way() {
        let g = CacheGeometry::new(64, 1, 32).unwrap();
        assert_eq!(g.ways(), 1);
        assert_eq!(g.total_lines(), 64);
    }

    #[test]
    fn block_addr_round_trip() {
        let g = CacheGeometry::paper_l1();
        for addr in [0u64, 0x11, 0x8000, 0xffff_fff3, 0x1_0000_0000] {
            let b = g.block_of_addr(addr);
            let base = g.base_addr_of_block(b);
            assert!(base <= addr && addr < base + u64::from(g.line_bytes()));
        }
    }

    #[test]
    fn display_formats() {
        let g = CacheGeometry::example2();
        assert_eq!(g.to_string(), "1024 B 4-way cache (16 sets x 16 B lines)");
        assert_eq!(MemoryBlock::new(0x1f).to_string(), "blk#0x1f");
        assert_eq!(SetIndex::new(3).to_string(), "cs(3)");
        assert_eq!(format!("{:x}", MemoryBlock::new(255)), "ff");
    }

    #[test]
    fn error_display() {
        let e = GeometryError::SetsNotPowerOfTwo(5);
        assert!(e.to_string().contains("power of two"));
        assert!(GeometryError::ZeroWays.to_string().contains("one way"));
        assert_eq!(
            GeometryError::TooManyWays(300).to_string(),
            "number of ways must be at most 255, got 300"
        );
        assert_eq!(
            GeometryError::TooManySets(1 << 20).to_string(),
            "number of cache sets must be at most 65536, got 1048576"
        );
        assert!(GeometryError::BadLineBytes(3).to_string().contains("line size"));
    }
}
