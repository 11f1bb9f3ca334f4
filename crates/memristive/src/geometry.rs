//! Physical organization of a RIME chip (§IV-B, Table I).
//!
//! A chip is banks → subbanks → mats → four 512×512 SLC arrays. One key
//! occupies one array row (the select latches that gate column searches are
//! per-wordline, so a row is the exclusion granularity). Capacity in *key
//! slots* is therefore `banks × subbanks × mats × 4 × rows`.

use std::fmt;

/// Geometry of one memristive chip.
///
/// Table I lists `Channels/Chips/Banks/Subbanks: 1/8/64/64` with 1 Gb
/// DDR4-1600-compatible chips of 512×512 SLC subarrays. Taken literally
/// (64 subbanks per bank) that exceeds 1 Gb, so [`ChipGeometry::table1`]
/// keeps the 64 banks and 512×512 arrays and sizes subbanks so the chip is
/// exactly 1 Gb (1024 mats × 4 arrays × 512 × 512 bits).
///
/// # Example
///
/// ```
/// use rime_memristive::ChipGeometry;
///
/// let g = ChipGeometry::table1();
/// assert_eq!(g.capacity_bits(), 1 << 30); // 1 Gb chip
/// assert_eq!(g.arrays_per_mat, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipGeometry {
    /// Banks per chip.
    pub banks: u16,
    /// Subbanks per bank.
    pub subbanks_per_bank: u16,
    /// Mats per subbank (one mat active per subbank access, §IV-B.2).
    pub mats_per_subbank: u16,
    /// Arrays per mat sharing sense/drive circuits (always 4 in the paper).
    pub arrays_per_mat: u16,
    /// Wordlines (rows) per array; one key slot per row.
    pub rows: u32,
    /// Bitlines (columns) per array; bounds the key width.
    pub cols: u32,
}

impl ChipGeometry {
    /// The Table I configuration: a 1 Gb chip of 512×512 SLC arrays,
    /// 64 banks, 1024 mats.
    pub fn table1() -> ChipGeometry {
        ChipGeometry {
            banks: 64,
            subbanks_per_bank: 16,
            mats_per_subbank: 1,
            arrays_per_mat: 4,
            rows: 512,
            cols: 512,
        }
    }

    /// A reduced geometry for tests and examples: 8192 key slots.
    pub fn small() -> ChipGeometry {
        ChipGeometry {
            banks: 2,
            subbanks_per_bank: 2,
            mats_per_subbank: 2,
            arrays_per_mat: 4,
            rows: 256,
            cols: 64,
        }
    }

    /// A minimal geometry for unit tests: 64 key slots in two mats.
    pub fn tiny() -> ChipGeometry {
        ChipGeometry {
            banks: 1,
            subbanks_per_bank: 1,
            mats_per_subbank: 2,
            arrays_per_mat: 4,
            rows: 8,
            cols: 64,
        }
    }

    /// Total mats in the chip.
    pub fn mats(&self) -> u32 {
        self.banks as u32 * self.subbanks_per_bank as u32 * self.mats_per_subbank as u32
    }

    /// Total arrays in the chip.
    pub fn arrays(&self) -> u32 {
        self.mats() * self.arrays_per_mat as u32
    }

    /// Key slots per mat.
    pub fn slots_per_mat(&self) -> u64 {
        self.arrays_per_mat as u64 * self.rows as u64
    }

    /// Total key slots in the chip (one key per array row).
    pub fn capacity_slots(&self) -> u64 {
        self.mats() as u64 * self.slots_per_mat()
    }

    /// Total cell capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.arrays() as u64 * self.rows as u64 * self.cols as u64
    }

    /// Splits a chip-level slot address into `(mat, slot-within-mat)`.
    pub fn split_slot(&self, slot: u64) -> (u32, u32) {
        let per_mat = self.slots_per_mat();
        ((slot / per_mat) as u32, (slot % per_mat) as u32)
    }
}

impl fmt::Display for ChipGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} banks × {} subbanks × {} mats × {} arrays of {}×{} ({} key slots)",
            self.banks,
            self.subbanks_per_bank,
            self.mats_per_subbank,
            self.arrays_per_mat,
            self.rows,
            self.cols,
            self.capacity_slots()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_one_gigabit() {
        let g = ChipGeometry::table1();
        assert_eq!(g.capacity_bits(), 1 << 30);
        assert_eq!(g.mats(), 1024);
        assert_eq!(g.capacity_slots(), 1024 * 4 * 512);
    }

    #[test]
    fn slot_split_roundtrip() {
        let g = ChipGeometry::tiny();
        assert_eq!(g.slots_per_mat(), 32);
        assert_eq!(g.split_slot(0), (0, 0));
        assert_eq!(g.split_slot(31), (0, 31));
        assert_eq!(g.split_slot(32), (1, 0));
        assert_eq!(g.split_slot(63), (1, 31));
    }

    #[test]
    fn display_mentions_slots() {
        let s = ChipGeometry::small().to_string();
        assert!(s.contains("key slots"), "{s}");
    }
}
