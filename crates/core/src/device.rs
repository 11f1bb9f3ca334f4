//! The RIME device: DIMMs of ranking chips behind a DDR4 interface (§V).
//!
//! [`RimeDevice`] is the functional model of a full RIME memory system —
//! multiple single-DIMM channels, eight chips per DIMM (Table I) — together
//! with the userspace API library of Fig. 12:
//!
//! | paper API      | here                                   |
//! |----------------|----------------------------------------|
//! | `rime_malloc`  | [`RimeDevice::alloc`]                  |
//! | `rime_free`    | [`RimeDevice::free`]                   |
//! | loads/stores   | [`RimeDevice::write`] / [`RimeDevice::read`] |
//! | `rime_init`    | [`RimeDevice::init`]                   |
//! | `rime_min`     | [`RimeDevice::rime_min`]               |
//! | `rime_max`     | [`RimeDevice::rime_max`]               |
//!
//! `RimeDevice` is another name for the command [`Executor`]: this
//! module adds the Fig. 12 API to it as one `impl Executor` block. Each
//! method is a thin *encoder* that builds the corresponding typed
//! [`Command`] and runs it, while the executor owns validation, chip
//! dispatch, and result marshalling. The MMIO register file
//! ([`crate::mmio`]) and journal replay ([`Executor::replay`]) lower into
//! the same executor, so all three front-ends share one semantics and one
//! set of counters.
//!
//! A RIME DIMM forbids fine-grained channel interleaving (§V): contiguous
//! key ranges map contiguously onto chips, so one region spans as few
//! chips as possible and each spanned chip can rank its local sub-range
//! independently. `rime_min`/`rime_max` implement Fig. 14's multi-chip
//! coordination: every spanned chip keeps one buffered candidate in the
//! library; the CPU picks the global winner and only the winning chip
//! recomputes.

use std::borrow::Cow;

use rime_memristive::{ArrayTiming, ChipGeometry, Direction, KeyFormat, SortableBits};

use crate::cmd::{Command, Executor, Outcome};
use crate::driver::DriverConfig;
use crate::error::RimeError;

/// System-level RIME configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RimeConfig {
    /// Single-DIMM memory channels dedicated to RIME.
    pub channels: u32,
    /// Chips per DIMM (Table I: 8).
    pub chips_per_channel: u32,
    /// Geometry of each chip.
    pub chip_geometry: ChipGeometry,
    /// Device timing/energy characterization.
    pub timing: ArrayTiming,
    /// Driver allocator tunables.
    pub driver: DriverConfig,
}

impl RimeConfig {
    /// The Table I full-scale system: 4 channels × 8 × 1 Gb chips.
    pub fn table1() -> RimeConfig {
        RimeConfig {
            channels: 4,
            chips_per_channel: 8,
            chip_geometry: ChipGeometry::table1(),
            timing: ArrayTiming::table1(),
            driver: DriverConfig::default(),
        }
    }

    /// A reduced functional configuration for tests and examples:
    /// 2 channels × 2 small chips (32 Ki key slots).
    pub fn small() -> RimeConfig {
        RimeConfig {
            channels: 2,
            chips_per_channel: 2,
            chip_geometry: ChipGeometry::small(),
            timing: ArrayTiming::table1(),
            driver: DriverConfig::default(),
        }
    }

    /// Total chips in the system.
    pub fn total_chips(&self) -> u32 {
        self.channels * self.chips_per_channel
    }

    /// Key slots per chip.
    pub fn chip_slots(&self) -> u64 {
        self.chip_geometry.capacity_slots()
    }

    /// Total key slots across all chips.
    pub fn total_slots(&self) -> u64 {
        self.total_chips() as u64 * self.chip_slots()
    }
}

/// A handle to a physically contiguous allocation (`rime_malloc` result).
///
/// `Region` is a plain handle — cheap to copy, validated by the device on
/// every use, and invalidated by [`RimeDevice::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    pub(crate) id: u64,
    pub(crate) start: u64,
    pub(crate) len: u64,
}

impl Region {
    /// Length in key slots.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region holds zero slots (never true for live regions).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Starting global key-slot address.
    pub fn start(&self) -> u64 {
        self.start
    }
}

/// The functional RIME memory device plus API library state: the
/// command [`Executor`] itself, under the paper's name.
///
/// The Fig. 12 API below is an `impl Executor` block of thin encoders:
/// each method builds one [`Command`] and runs it through
/// [`Executor::execute`]. Every method takes `&self`, so a shared
/// `&RimeDevice` supports the concurrent multi-range operation
/// §III-B.3 requires (e.g. the merge scenario of Fig. 14, one thread per
/// input run). See [`crate::cmd`] for the locking discipline.
pub type RimeDevice = Executor;

impl Executor {
    /// `rime_malloc`: allocates `len` physically contiguous key slots.
    ///
    /// # Errors
    ///
    /// [`RimeError::OutOfContiguousMemory`] under fragmentation/exhaustion.
    pub fn alloc(&self, len: u64) -> Result<Region, RimeError> {
        match self.execute(Command::Alloc { len })? {
            Outcome::Region(region) => Ok(region),
            other => unreachable!("Alloc produced {other:?}"),
        }
    }

    /// `rime_free`: releases a region and drops any active session.
    ///
    /// # Errors
    ///
    /// [`RimeError::InvalidRegion`] for stale handles.
    pub fn free(&self, region: Region) -> Result<(), RimeError> {
        self.execute(Command::Free { region }).map(|_| ())
    }

    /// Stores keys at `offset` within the region (ordinary DDR4 writes).
    ///
    /// # Errors
    ///
    /// [`RimeError::InvalidRegion`], [`RimeError::OutOfBounds`], or a chip
    /// fault for over-wide key formats.
    pub fn write<T: SortableBits>(
        &self,
        region: Region,
        offset: u64,
        keys: &[T],
    ) -> Result<(), RimeError> {
        let raw: Vec<u64> = keys.iter().map(|k| k.to_raw_bits()).collect();
        self.execute(Command::Write {
            region,
            offset,
            raw: Cow::Owned(raw),
            format: T::FORMAT,
        })
        .map(|_| ())
    }

    /// Format-explicit store of raw bit patterns — the form the
    /// memory-mapped interface ([`crate::mmio`]) uses, where the key type
    /// is a register value rather than a Rust type.
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::write`].
    pub fn write_raw(
        &self,
        region: Region,
        offset: u64,
        raw_keys: &[u64],
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        self.execute(Command::Write {
            region,
            offset,
            raw: Cow::Borrowed(raw_keys),
            format,
        })
        .map(|_| ())
    }

    /// Loads `n` keys from `offset` within the region (ordinary reads).
    ///
    /// # Errors
    ///
    /// [`RimeError::InvalidRegion`] or [`RimeError::OutOfBounds`].
    pub fn read<T: SortableBits>(
        &self,
        region: Region,
        offset: u64,
        n: u64,
    ) -> Result<Vec<T>, RimeError> {
        Ok(self
            .read_raw(region, offset, n)?
            .into_iter()
            .map(T::from_raw_bits)
            .collect())
    }

    /// Raw-bit-pattern load (see [`RimeDevice::write_raw`]).
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::read`].
    pub fn read_raw(&self, region: Region, offset: u64, n: u64) -> Result<Vec<u64>, RimeError> {
        match self.execute(Command::Read { region, offset, n })? {
            Outcome::Keys(keys) => Ok(keys),
            other => unreachable!("Read produced {other:?}"),
        }
    }

    /// `rime_init`: prepares `[offset, offset+len)` of the region for a
    /// new sort/rank/merge operation. Any previously buffered values for
    /// the region are discarded (§VI, Fig. 14).
    ///
    /// # Errors
    ///
    /// Region/bounds errors, or a chip-level format mismatch.
    pub fn init<T: SortableBits>(
        &self,
        region: Region,
        offset: u64,
        len: u64,
    ) -> Result<(), RimeError> {
        self.init_raw(region, offset, len, T::FORMAT)
    }

    /// Format-explicit `rime_init` (see [`RimeDevice::write_raw`]).
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::init`].
    pub fn init_raw(
        &self,
        region: Region,
        offset: u64,
        len: u64,
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        self.execute(Command::Init {
            region,
            offset,
            len,
            format,
        })
        .map(|_| ())
    }

    /// Convenience: `rime_init` over the whole region.
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::init`].
    pub fn init_all<T: SortableBits>(&self, region: Region) -> Result<(), RimeError> {
        self.init::<T>(region, 0, region.len)
    }

    fn next_extreme<T: SortableBits>(
        &self,
        region: Region,
        direction: Direction,
    ) -> Result<Option<(u64, T)>, RimeError> {
        Ok(self
            .next_extreme_raw(region, T::FORMAT, direction)?
            .map(|(slot, raw)| (slot, T::from_raw_bits(raw))))
    }

    /// Format-explicit extraction core shared by the typed API and the
    /// memory-mapped interface: returns the next extreme's (global slot,
    /// raw bits).
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::rime_min`].
    pub fn next_extreme_raw(
        &self,
        region: Region,
        want_format: KeyFormat,
        direction: Direction,
    ) -> Result<Option<(u64, u64)>, RimeError> {
        match self.execute(Command::Extract {
            region,
            format: want_format,
            direction,
        })? {
            Outcome::Hit(hit) => Ok(hit),
            other => unreachable!("Extract produced {other:?}"),
        }
    }

    /// Format-explicit top-k extraction core: up to `k` consecutive
    /// extremes in order, equivalent to calling
    /// [`RimeDevice::next_extreme_raw`] until `k` results are collected
    /// or the range is exhausted — but with the per-chip candidate
    /// buffers of Fig. 14 prefilled to depth `k` via the chips' batched
    /// extraction, so select-vector setup and H-tree index traversals
    /// amortize across the whole batch. Unconsumed candidates stay
    /// buffered for subsequent calls of either form.
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::rime_min`].
    pub fn next_extremes_raw(
        &self,
        region: Region,
        want_format: KeyFormat,
        direction: Direction,
        k: usize,
    ) -> Result<Vec<(u64, u64)>, RimeError> {
        match self.execute(Command::ExtractBatch {
            region,
            format: want_format,
            direction,
            k,
        })? {
            Outcome::Hits(hits) => Ok(hits),
            other => unreachable!("ExtractBatch produced {other:?}"),
        }
    }

    /// Drains one already-buffered candidate from the region's session
    /// (Fig. 14's per-chip buffers) *without* re-engaging any chip.
    /// `None` means the buffers are dry — not that the range is
    /// exhausted; a subsequent extraction may still find more.
    ///
    /// # Errors
    ///
    /// [`RimeError::NotInitialized`] without a prior
    /// [`RimeDevice::init`]; [`RimeError::InvalidRegion`] for stale
    /// handles.
    pub fn fifo_next_raw(&self, region: Region) -> Result<Option<(u64, u64)>, RimeError> {
        match self.execute(Command::FifoNext { region })? {
            Outcome::Hit(hit) => Ok(hit),
            other => unreachable!("FifoNext produced {other:?}"),
        }
    }

    /// `rime_min_k`: the next `k` smallest keys of the initialized range
    /// in ascending order (with their global slot addresses). Returns
    /// fewer when the range runs dry. Equivalent to — but cheaper than —
    /// `k` successive [`RimeDevice::rime_min`] calls.
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::rime_min`].
    pub fn rime_min_k<T: SortableBits>(
        &self,
        region: Region,
        k: usize,
    ) -> Result<Vec<(u64, T)>, RimeError> {
        Ok(self
            .next_extremes_raw(region, T::FORMAT, Direction::Min, k)?
            .into_iter()
            .map(|(slot, raw)| (slot, T::from_raw_bits(raw)))
            .collect())
    }

    /// `rime_max_k`: the next `k` largest keys in descending order. See
    /// [`RimeDevice::rime_min_k`].
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::rime_min`].
    pub fn rime_max_k<T: SortableBits>(
        &self,
        region: Region,
        k: usize,
    ) -> Result<Vec<(u64, T)>, RimeError> {
        Ok(self
            .next_extremes_raw(region, T::FORMAT, Direction::Max, k)?
            .into_iter()
            .map(|(slot, raw)| (slot, T::from_raw_bits(raw)))
            .collect())
    }

    /// `rime_min`: returns the next smallest key of the initialized range
    /// (with its global slot address), or `None` when exhausted.
    ///
    /// # Errors
    ///
    /// [`RimeError::NotInitialized`] without a prior [`RimeDevice::init`];
    /// [`RimeError::TypeMismatch`] if `T` differs from the stored format.
    pub fn rime_min<T: SortableBits>(&self, region: Region) -> Result<Option<(u64, T)>, RimeError> {
        self.next_extreme(region, Direction::Min)
    }

    /// `rime_max`: returns the next largest key of the initialized range.
    ///
    /// # Errors
    ///
    /// As for [`RimeDevice::rime_min`].
    pub fn rime_max<T: SortableBits>(&self, region: Region) -> Result<Option<(u64, T)>, RimeError> {
        self.next_extreme(region, Direction::Max)
    }

    /// Another name for [`Executor::enable_extraction_probes`], kept for
    /// callers that say "metrics".
    pub fn enable_extraction_metrics(&self) {
        self.enable_extraction_probes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RimeError;

    fn device() -> RimeDevice {
        RimeDevice::new(RimeConfig::small())
    }

    #[test]
    fn config_capacity() {
        let cfg = RimeConfig::small();
        assert_eq!(cfg.total_chips(), 4);
        assert_eq!(
            cfg.total_slots(),
            4 * ChipGeometry::small().capacity_slots()
        );
        assert_eq!(RimeConfig::table1().total_chips(), 32);
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let dev = device();
        let region = dev.alloc(100).unwrap();
        let keys: Vec<u32> = (0..100).map(|i| i * 3).collect();
        dev.write(region, 0, &keys).unwrap();
        let back: Vec<u32> = dev.read(region, 0, 100).unwrap();
        assert_eq!(back, keys);
        let mid: Vec<u32> = dev.read(region, 10, 5).unwrap();
        assert_eq!(mid, vec![30, 33, 36, 39, 42]);
    }

    #[test]
    fn rime_min_streams_sorted_values() {
        let dev = device();
        let region = dev.alloc(8).unwrap();
        dev.write(region, 0, &[5u32, 1, 3, 7, 10, 4, 8, 5]).unwrap();
        dev.init_all::<u32>(region).unwrap();
        let mut got = Vec::new();
        while let Some((_, v)) = dev.rime_min::<u32>(region).unwrap() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 3, 4, 5, 5, 7, 8, 10]);
    }

    #[test]
    fn region_spanning_chips_sorts_globally() {
        let dev = device();
        let per_chip = dev.config().chip_slots();
        // Allocate more than one chip's worth.
        let n = per_chip + 10;
        let region = dev.alloc(n).unwrap();
        let keys: Vec<u32> = (0..n as u32).rev().collect();
        dev.write(region, 0, &keys).unwrap();
        dev.init_all::<u32>(region).unwrap();
        assert!(dev.spanned_chips(region) >= 2);
        // First three minima are 0, 1, 2 — they live in the *last* slots.
        for want in 0..3u32 {
            let (_, v) = dev.rime_min::<u32>(region).unwrap().unwrap();
            assert_eq!(v, want);
        }
    }

    #[test]
    fn rank_example_from_fig12() {
        // Fig. 12: find the 100 least values of a large range in order.
        let dev = device();
        let n = 1000u64;
        let region = dev.alloc(n).unwrap();
        let keys: Vec<u64> = (0..n).map(|i| (i * 7919) % 104729).collect();
        dev.write(region, 0, &keys).unwrap();
        dev.init_all::<u64>(region).unwrap();
        let mut sorted_list = Vec::with_capacity(100);
        for _ in 0..100 {
            sorted_list.push(dev.rime_min::<u64>(region).unwrap().unwrap().1);
        }
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(sorted_list, want[..100]);
    }

    #[test]
    fn reinit_discards_buffered_values() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        dev.write(region, 0, &[4u32, 3, 2, 1]).unwrap();
        dev.init_all::<u32>(region).unwrap();
        assert_eq!(dev.rime_min::<u32>(region).unwrap().unwrap().1, 1);
        dev.init_all::<u32>(region).unwrap();
        assert_eq!(dev.rime_min::<u32>(region).unwrap().unwrap().1, 1);
    }

    #[test]
    fn sub_range_init() {
        let dev = device();
        let region = dev.alloc(10).unwrap();
        dev.write(region, 0, &[9u32, 8, 7, 6, 5, 4, 3, 2, 1, 0])
            .unwrap();
        dev.init::<u32>(region, 2, 4).unwrap(); // keys 7,6,5,4
        assert_eq!(dev.rime_min::<u32>(region).unwrap().unwrap().1, 4);
        assert_eq!(dev.rime_max::<u32>(region).unwrap().unwrap().1, 7);
    }

    #[test]
    fn direction_switch_rearms() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        dev.write(region, 0, &[4i32, -3, 2, -1]).unwrap();
        dev.init_all::<i32>(region).unwrap();
        assert_eq!(dev.rime_min::<i32>(region).unwrap().unwrap().1, -3);
        // Switching to max re-initializes: the full set is back.
        assert_eq!(dev.rime_max::<i32>(region).unwrap().unwrap().1, 4);
        assert_eq!(dev.rime_max::<i32>(region).unwrap().unwrap().1, 2);
    }

    #[test]
    fn errors_on_misuse() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        assert_eq!(dev.rime_min::<u32>(region), Err(RimeError::NotInitialized));
        dev.write(region, 0, &[1u32, 2, 3, 4]).unwrap();
        dev.init_all::<u32>(region).unwrap();
        assert!(matches!(
            dev.rime_min::<f32>(region),
            Err(RimeError::TypeMismatch { .. })
        ));
        assert!(matches!(
            dev.write(region, 3, &[1u32, 2]),
            Err(RimeError::OutOfBounds { .. })
        ));
        dev.free(region).unwrap();
        assert_eq!(dev.free(region), Err(RimeError::InvalidRegion));
        assert_eq!(dev.rime_min::<u32>(region), Err(RimeError::InvalidRegion));
    }

    #[test]
    fn write_invalidates_session() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        dev.write(region, 0, &[4u32, 3, 2, 1]).unwrap();
        dev.init_all::<u32>(region).unwrap();
        let _ = dev.rime_min::<u32>(region).unwrap();
        dev.write(region, 0, &[0u32]).unwrap();
        assert_eq!(dev.rime_min::<u32>(region), Err(RimeError::NotInitialized));
    }

    #[test]
    fn floats_sort_in_total_order() {
        let dev = device();
        let region = dev.alloc(5).unwrap();
        dev.write(region, 0, &[18.0f32, -1.625, -0.75, 0.5, -2.5])
            .unwrap();
        dev.init_all::<f32>(region).unwrap();
        let mut got = Vec::new();
        while let Some((_, v)) = dev.rime_min::<f32>(region).unwrap() {
            got.push(v);
        }
        assert_eq!(got, vec![-2.5, -1.625, -0.75, 0.5, 18.0]);
    }

    #[test]
    fn modeled_time_and_energy_track_activity() {
        let dev = device();
        let region = dev.alloc(64).unwrap();
        let keys: Vec<u32> = (0..64).rev().collect();
        dev.write(region, 0, &keys).unwrap();
        let after_load_ns = dev.modeled_busy_ns();
        assert!(after_load_ns > 0.0, "writes cost tWrite");
        dev.init_all::<u32>(region).unwrap();
        for _ in 0..8 {
            let _ = dev.rime_min::<u32>(region).unwrap();
        }
        assert!(dev.modeled_busy_ns() > after_load_ns);
        assert!(dev.modeled_energy_nj() > 0.0);
        // One extraction costs at most tCompute + tRead on the busy chip.
        let per_op_bound = dev.config().timing.t_compute_ns + dev.config().timing.t_read_ns;
        let growth = dev.modeled_busy_ns() - after_load_ns;
        assert!(growth <= 8.0 * per_op_bound + 1e-9, "growth {growth}");
    }

    #[test]
    fn counters_and_transfers_accumulate() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        dev.write(region, 0, &[4u32, 3, 2, 1]).unwrap();
        dev.init_all::<u32>(region).unwrap();
        let _ = dev.rime_min::<u32>(region).unwrap();
        let c = dev.counters();
        assert_eq!(c.row_writes, 4);
        assert!(c.extractions >= 1);
        assert!(dev.interface_transfers() >= 5);
        dev.reset_counters();
        assert_eq!(dev.counters().row_writes, 0);
    }

    #[test]
    fn rime_min_k_matches_repeated_rime_min() {
        let seq = device();
        let bat = device();
        let keys: Vec<u32> = (0..200u32).map(|i| (i * 7919) % 541).collect();
        let mut regions = Vec::new();
        for dev in [&seq, &bat] {
            let region = dev.alloc(keys.len() as u64).unwrap();
            dev.write(region, 0, &keys).unwrap();
            dev.init_all::<u32>(region).unwrap();
            regions.push(region);
        }
        let mut want = Vec::new();
        for _ in 0..50 {
            match seq.rime_min::<u32>(regions[0]).unwrap() {
                Some(hit) => want.push(hit),
                None => break,
            }
        }
        let got = bat.rime_min_k::<u32>(regions[1], 50).unwrap();
        assert_eq!(got, want);
        // Both streams continue identically after the batch.
        assert_eq!(
            bat.rime_min::<u32>(regions[1]).unwrap(),
            seq.rime_min::<u32>(regions[0]).unwrap()
        );
    }

    #[test]
    fn rime_max_k_spans_chips_and_exhausts() {
        let dev = device();
        let per_chip = dev.config().chip_slots();
        let n = per_chip + 6;
        let region = dev.alloc(n).unwrap();
        let keys: Vec<u32> = (0..n as u32).collect();
        dev.write(region, 0, &keys).unwrap();
        dev.init_all::<u32>(region).unwrap();
        assert!(dev.spanned_chips(region) >= 2);
        // Ask for more than exist: get everything, in descending order.
        let got = dev.rime_max_k::<u32>(region, n as usize + 10).unwrap();
        assert_eq!(got.len(), n as usize);
        let vals: Vec<u32> = got.iter().map(|&(_, v)| v).collect();
        let mut want = keys.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(vals, want);
        assert!(dev.rime_max::<u32>(region).unwrap().is_none());
    }

    #[test]
    fn rime_min_k_direction_switch_rearms() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        dev.write(region, 0, &[4i32, -3, 2, -1]).unwrap();
        dev.init_all::<i32>(region).unwrap();
        assert_eq!(
            dev.rime_min_k::<i32>(region, 2)
                .unwrap()
                .iter()
                .map(|&(_, v)| v)
                .collect::<Vec<_>>(),
            vec![-3, -1]
        );
        // Switching to max re-initializes: the full set is back.
        assert_eq!(
            dev.rime_max_k::<i32>(region, 4)
                .unwrap()
                .iter()
                .map(|&(_, v)| v)
                .collect::<Vec<_>>(),
            vec![4, 2, -1, -3]
        );
    }

    #[test]
    fn rime_min_k_zero_and_errors() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        dev.write(region, 0, &[1u32, 2, 3, 4]).unwrap();
        assert_eq!(
            dev.rime_min_k::<u32>(region, 3),
            Err(RimeError::NotInitialized)
        );
        dev.init_all::<u32>(region).unwrap();
        assert_eq!(dev.rime_min_k::<u32>(region, 0).unwrap(), vec![]);
        assert!(matches!(
            dev.rime_min_k::<f32>(region, 3),
            Err(RimeError::TypeMismatch { .. })
        ));
        dev.free(region).unwrap();
        assert_eq!(
            dev.rime_min_k::<u32>(region, 3),
            Err(RimeError::InvalidRegion)
        );
    }

    #[test]
    fn fifo_next_raw_requires_a_session() {
        let dev = device();
        let region = dev.alloc(4).unwrap();
        dev.write(region, 0, &[4u32, 3, 2, 1]).unwrap();
        assert_eq!(dev.fifo_next_raw(region), Err(RimeError::NotInitialized));
        dev.init_all::<u32>(region).unwrap();
        // Dry buffers are a miss, not an error.
        assert_eq!(dev.fifo_next_raw(region), Ok(None));
    }

    #[test]
    fn shared_reference_supports_concurrent_ranges() {
        // Two disjoint regions driven from two threads through &RimeDevice.
        let dev = device();
        let a = dev.alloc(64).unwrap();
        let b = dev.alloc(64).unwrap();
        let ka: Vec<u32> = (0..64u32).rev().collect();
        let kb: Vec<u32> = (0..64u32).map(|i| i * 3 % 101).collect();
        dev.write(a, 0, &ka).unwrap();
        dev.write(b, 0, &kb).unwrap();
        dev.init_all::<u32>(a).unwrap();
        dev.init_all::<u32>(b).unwrap();
        let (got_a, got_b) = std::thread::scope(|s| {
            let ta = s.spawn(|| {
                let mut out = Vec::new();
                while let Some((_, v)) = dev.rime_min::<u32>(a).unwrap() {
                    out.push(v);
                }
                out
            });
            let tb = s.spawn(|| {
                let mut out = Vec::new();
                while let Some((_, v)) = dev.rime_min::<u32>(b).unwrap() {
                    out.push(v);
                }
                out
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        let mut want_a = ka.clone();
        want_a.sort_unstable();
        let mut want_b = kb.clone();
        want_b.sort_unstable();
        assert_eq!(got_a, want_a);
        assert_eq!(got_b, want_b);
    }
}
