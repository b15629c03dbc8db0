//! Word-addressable data memory backed by a program's data segments.

use std::fmt;

use crate::program::{DataSegment, InputVariant, Program};

/// Errors raised by data-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Access outside every declared data segment.
    Unmapped {
        /// Offending byte address.
        addr: u64,
    },
    /// Access not aligned to a word boundary.
    Unaligned {
        /// Offending byte address.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "access to unmapped data address {addr:#x}"),
            MemError::Unaligned { addr } => write!(f, "unaligned word access at {addr:#x}"),
        }
    }
}

impl std::error::Error for MemError {}

/// A task's data memory: the program's data segments instantiated as
/// mutable word arrays, with strict bounds checking.
///
/// Accesses outside declared segments are errors rather than silently
/// returning zero — workload bugs surface immediately instead of skewing
/// memory traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    /// Segments sorted by base address; (base, words).
    segments: Vec<(u64, Vec<i32>)>,
}

impl Memory {
    /// Instantiates memory from a program's data segments.
    pub fn from_program(program: &Program) -> Self {
        Memory::from_segments(program.data_segments())
    }

    /// Instantiates memory from explicit segments.
    pub fn from_segments(segments: &[DataSegment]) -> Self {
        let mut segs: Vec<(u64, Vec<i32>)> =
            segments.iter().map(|s| (s.base, s.words.clone())).collect();
        segs.sort_by_key(|(base, _)| *base);
        Memory { segments: segs }
    }

    /// Applies an input variant's writes.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if a write lands outside the segments.
    pub fn apply_variant(&mut self, variant: &InputVariant) -> Result<(), MemError> {
        for (addr, value) in &variant.writes {
            self.write(*addr, *value)?;
        }
        Ok(())
    }

    fn locate(&self, addr: u64) -> Result<(usize, usize), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Unaligned { addr });
        }
        // Binary search for the segment whose base is <= addr.
        let idx = self.segments.partition_point(|(base, _)| *base <= addr);
        if idx == 0 {
            return Err(MemError::Unmapped { addr });
        }
        let (base, words) = &self.segments[idx - 1];
        let offset = ((addr - base) / 4) as usize;
        if offset >= words.len() {
            return Err(MemError::Unmapped { addr });
        }
        Ok((idx - 1, offset))
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or unaligned accesses.
    pub fn read(&self, addr: u64) -> Result<i32, MemError> {
        let (seg, off) = self.locate(addr)?;
        Ok(self.segments[seg].1[off])
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped or unaligned accesses.
    pub fn write(&mut self, addr: u64, value: i32) -> Result<(), MemError> {
        let (seg, off) = self.locate(addr)?;
        self.segments[seg].1[off] = value;
        Ok(())
    }

    /// Total mapped words.
    #[cfg(test)]
    fn word_count(&self) -> usize {
        self.segments.iter().map(|(_, w)| w.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::from_segments(&[
            DataSegment { name: "lo".into(), base: 0x100, words: vec![1, 2, 3] },
            DataSegment { name: "hi".into(), base: 0x200, words: vec![9] },
        ])
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = mem();
        assert_eq!(m.read(0x100).unwrap(), 1);
        assert_eq!(m.read(0x108).unwrap(), 3);
        assert_eq!(m.read(0x200).unwrap(), 9);
        m.write(0x104, 42).unwrap();
        assert_eq!(m.read(0x104).unwrap(), 42);
    }

    #[test]
    fn unmapped_and_unaligned() {
        let mut m = mem();
        assert_eq!(m.read(0x10c).unwrap_err(), MemError::Unmapped { addr: 0x10c });
        assert_eq!(m.read(0x0).unwrap_err(), MemError::Unmapped { addr: 0x0 });
        assert_eq!(m.read(0x300).unwrap_err(), MemError::Unmapped { addr: 0x300 });
        assert_eq!(m.read(0x101).unwrap_err(), MemError::Unaligned { addr: 0x101 });
        assert_eq!(m.write(0x10c, 0).unwrap_err(), MemError::Unmapped { addr: 0x10c });
    }

    #[test]
    fn gap_between_segments_is_unmapped() {
        let m = mem();
        assert_eq!(m.read(0x180).unwrap_err(), MemError::Unmapped { addr: 0x180 });
    }

    #[test]
    fn variant_application() {
        let mut m = mem();
        let v = InputVariant::named("v").with_write(0x100, 77);
        m.apply_variant(&v).unwrap();
        assert_eq!(m.read(0x100).unwrap(), 77);
        let bad = InputVariant::named("bad").with_write(0x400, 0);
        assert!(m.apply_variant(&bad).is_err());
    }

    #[test]
    fn word_count_sums_segments() {
        assert_eq!(mem().word_count(), 4);
    }

    #[test]
    fn error_display() {
        assert!(MemError::Unmapped { addr: 0x10 }.to_string().contains("unmapped"));
        assert!(MemError::Unaligned { addr: 0x11 }.to_string().contains("unaligned"));
    }
}
