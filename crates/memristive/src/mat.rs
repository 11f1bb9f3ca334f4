//! A mat: four arrays sharing sense/drive circuits (§IV-B.1, Fig. 8).
//!
//! The mat controller sequences row read, row write, and column search
//! commands over its four arrays; all four are active during each command
//! (bit-parallel access). For RIME computation the mat reports the two
//! upstream signals of §IV-B.2 — the *all-0-or-1* outcome and whether a 1
//! was present — and applies select-vector loads when the chip controller
//! orders a global exclusion.
//!
//! Key slots within a mat are numbered `array * rows + row`.

use crate::array::{Array, ArrayState, ColumnSignals};
use crate::bitmap::Bitmap;
use crate::error::Error;

/// A command the chip controller sends to a mat (Fig. 8's three access
/// types plus the RIME-mode select-vector operations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatCommand {
    /// Row read: load the key at `slot`.
    RowRead {
        /// Slot within the mat.
        slot: u32,
    },
    /// Row write: store `raw` into `slot`.
    RowWrite {
        /// Slot within the mat.
        slot: u32,
        /// Raw key pattern.
        raw: u64,
    },
    /// Column search at bit `pos`: sense the column, report the
    /// two-signal outcome upstream (Fig. 9).
    ColumnSearch {
        /// Bit position (0 = LSB).
        pos: u16,
    },
    /// Global exclusion ordered by the controller: latch the match
    /// vector for (`pos`, `keep`) into the select latches.
    LoadSelect {
        /// Bit position searched.
        pos: u16,
        /// Reference bit to keep.
        keep: bool,
    },
    /// Select-vector initialization for `[start, end)` (Fig. 11 leaves).
    SetSelectRange {
        /// First slot (inclusive).
        start: u32,
        /// One past the last slot.
        end: u32,
        /// Latch value for the range.
        value: bool,
    },
}

/// A mat's response to a [`MatCommand`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatResponse {
    /// Data read by `RowRead`.
    Data(u64),
    /// The two upstream signals of a `ColumnSearch`.
    Signals(ColumnSignals),
    /// Rows deselected by a `LoadSelect`.
    Deselected(u32),
    /// Acknowledgement for writes and select-range commands.
    Ack,
}

/// Serializable snapshot of one mat's durable state: its arrays'
/// [`ArrayState`]s in array order. See [`ArrayState`] for what is (and
/// deliberately is not) captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatState {
    /// Per-array snapshots, in array order.
    pub arrays: Vec<ArrayState>,
}

/// Four memristive arrays under one mat controller.
#[derive(Debug, Clone)]
pub struct Mat {
    arrays: Vec<Array>,
    rows_per_array: u32,
}

impl Mat {
    /// Creates a mat of `arrays_per_mat` arrays with `rows` wordlines each.
    pub fn new(arrays_per_mat: u16, rows: u32) -> Mat {
        Mat {
            arrays: (0..arrays_per_mat).map(|_| Array::new(rows)).collect(),
            rows_per_array: rows,
        }
    }

    /// Key-slot capacity of the mat.
    pub fn slots(&self) -> u32 {
        self.arrays.len() as u32 * self.rows_per_array
    }

    fn split(&self, slot: u32) -> (usize, usize) {
        debug_assert!(slot < self.slots());
        (
            (slot / self.rows_per_array) as usize,
            (slot % self.rows_per_array) as usize,
        )
    }

    /// Row-write command: stores a raw key into `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the mat capacity.
    pub fn write_slot(&mut self, slot: u32, raw: u64) {
        let (array, row) = self.split(slot);
        self.arrays[array].write_row(row, raw);
    }

    /// Row-read command: loads the raw key stored in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the mat capacity.
    pub fn read_slot(&self, slot: u32) -> u64 {
        let (array, row) = self.split(slot);
        self.arrays[array].read_row(row)
    }

    /// Sets one select latch.
    pub fn set_select_bit(&mut self, slot: u32, value: bool) {
        let (array, row) = self.split(slot);
        self.arrays[array].set_select_bit(row, value);
    }

    /// Whether the latch for `slot` is set.
    pub fn select_bit(&self, slot: u32) -> bool {
        let (array, row) = self.split(slot);
        self.arrays[array].select().get(row)
    }

    /// Clears every select latch in the mat.
    pub fn clear_select(&mut self) {
        for array in &mut self.arrays {
            array.clear_select();
        }
    }

    /// Replaces the mat's entire select vector with `bits` (one bit per
    /// slot, in mat slot order). This is the word-parallel rearm path the
    /// chip's batched extraction uses: the periphery latches a whole
    /// membership vector at once instead of walking slots individually.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the mat's slot capacity.
    pub fn load_select_bits(&mut self, bits: &Bitmap) {
        assert_eq!(
            bits.len(),
            self.slots() as usize,
            "select vector length mismatch"
        );
        self.load_select_window(bits, 0);
    }

    /// Latches the mat's select vector from the `slots()`-bit window of a
    /// larger (e.g. chip-global membership) bitmap starting at `start`,
    /// without allocating: each array's select vector is assigned its
    /// slice of the window in place.
    ///
    /// # Panics
    ///
    /// Panics if the window runs past `bits.len()`.
    pub fn load_select_window(&mut self, bits: &Bitmap, start: usize) {
        let rows = self.rows_per_array as usize;
        for (ai, array) in self.arrays.iter_mut().enumerate() {
            array.load_select_window(bits, start + ai * rows);
        }
    }

    /// Number of selected slots across the mat's arrays.
    pub fn selected_count(&self) -> usize {
        self.arrays.iter().map(Array::selected_count).sum()
    }

    /// Column-search command: all four arrays sense column `pos`; the mat
    /// wire-ORs their signals upstream (Fig. 9's two-signal protocol).
    pub fn sense_column(&self, pos: u16) -> ColumnSignals {
        let mut signals = ColumnSignals::default();
        for array in &self.arrays {
            signals.merge(array.sense_column(pos));
            if signals.any_one && signals.any_zero {
                break;
            }
        }
        signals
    }

    /// Applies a global exclusion: every array latches its match vector for
    /// (`pos`, `keep`) into its select vector. Returns rows deselected.
    ///
    /// Uses the fused in-place AND/ANDN over the column shadow
    /// ([`Array::apply_exclusion`]) — no match-vector allocation per array
    /// per step.
    pub fn apply_exclusion(&mut self, pos: u16, keep: bool) -> usize {
        let mut removed = 0;
        for array in &mut self.arrays {
            removed += array.apply_exclusion(pos, keep);
        }
        removed
    }

    /// Scalar-oracle column search: wire-ORs the arrays' row-major
    /// [`Array::sense_column_scalar`] results. Differential-test
    /// counterpart of [`Mat::sense_column`].
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn sense_column_scalar(&self, pos: u16) -> ColumnSignals {
        let mut signals = ColumnSignals::default();
        for array in &self.arrays {
            signals.merge(array.sense_column_scalar(pos));
            if signals.any_one && signals.any_zero {
                break;
            }
        }
        signals
    }

    /// Scalar-oracle exclusion: per-array row-major match vector, then a
    /// select-latch load — the pre-shadow two-step path. Differential-test
    /// counterpart of [`Mat::apply_exclusion`].
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn apply_exclusion_scalar(&mut self, pos: u16, keep: bool) -> usize {
        let mut removed = 0;
        for array in &mut self.arrays {
            let matches = array.match_vector_scalar(pos, keep);
            removed += array.load_select(&matches);
        }
        removed
    }

    /// [`Mat::sense_column`], or its scalar oracle when `scalar` is set
    /// (the chip's `scalar-oracle` switch; ignored without the feature).
    pub(crate) fn sense(&self, pos: u16, scalar: bool) -> ColumnSignals {
        #[cfg(any(test, feature = "scalar-oracle"))]
        if scalar {
            return self.sense_column_scalar(pos);
        }
        let _ = scalar;
        self.sense_column(pos)
    }

    /// [`Mat::apply_exclusion`], or its scalar oracle when `scalar` is
    /// set; returns the rows deselected.
    pub(crate) fn exclude(&mut self, pos: u16, keep: bool, scalar: bool) -> u64 {
        #[cfg(any(test, feature = "scalar-oracle"))]
        if scalar {
            return self.apply_exclusion_scalar(pos, keep) as u64;
        }
        let _ = scalar;
        self.apply_exclusion(pos, keep) as u64
    }

    /// Lowest selected slot in the mat, if any — the mat's initial index
    /// `A` fed into the H-tree (Fig. 10, priority to smaller indices).
    pub fn first_selected(&self) -> Option<u32> {
        for (ai, array) in self.arrays.iter().enumerate() {
            if let Some(row) = array.first_selected() {
                return Some(ai as u32 * self.rows_per_array + row as u32);
            }
        }
        None
    }

    /// Executes one controller command — the explicit protocol form of
    /// the typed methods, useful for command-level tests and traces.
    ///
    /// Unlike the typed methods (which document their panics and are only
    /// reachable through the chip controller's validated paths), the
    /// command protocol faces arbitrary traffic, so a malformed command
    /// degrades into a typed [`Error`] instead of aborting the model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] when a `RowRead`/`RowWrite`
    /// slot exceeds the mat capacity, [`Error::KeyTooWide`] when a
    /// `ColumnSearch`/`LoadSelect` bit position exceeds the modelled key
    /// width, and [`Error::EmptyRange`] when a `SetSelectRange` is
    /// inverted (`start > end`).
    pub fn execute(&mut self, command: MatCommand) -> Result<MatResponse, Error> {
        match command {
            MatCommand::RowRead { slot } => {
                self.check_slot(slot)?;
                Ok(MatResponse::Data(self.read_slot(slot)))
            }
            MatCommand::RowWrite { slot, raw } => {
                self.check_slot(slot)?;
                self.write_slot(slot, raw);
                Ok(MatResponse::Ack)
            }
            MatCommand::ColumnSearch { pos } => {
                Self::check_pos(pos)?;
                Ok(MatResponse::Signals(self.sense_column(pos)))
            }
            MatCommand::LoadSelect { pos, keep } => {
                Self::check_pos(pos)?;
                Ok(MatResponse::Deselected(
                    self.apply_exclusion(pos, keep) as u32
                ))
            }
            MatCommand::SetSelectRange { start, end, value } => {
                if start > end {
                    return Err(Error::EmptyRange {
                        begin: u64::from(start),
                        end: u64::from(end),
                    });
                }
                for slot in start..end.min(self.slots()) {
                    self.set_select_bit(slot, value);
                }
                Ok(MatResponse::Ack)
            }
        }
    }

    fn check_pos(pos: u16) -> Result<(), Error> {
        if pos < 64 {
            Ok(())
        } else {
            Err(Error::KeyTooWide {
                bits: pos.saturating_add(1),
                max: 64,
            })
        }
    }

    fn check_slot(&self, slot: u32) -> Result<(), Error> {
        if slot < self.slots() {
            Ok(())
        } else {
            Err(Error::AddressOutOfRange {
                addr: u64::from(slot),
                capacity: u64::from(self.slots()),
            })
        }
    }

    /// Injects a stuck-at fault at `slot`'s cell `bit`.
    pub fn inject_stuck_cell(&mut self, slot: u32, bit: u16, stuck: bool) {
        let (array, row) = self.split(slot);
        self.arrays[array].inject_stuck_cell(row, bit, stuck);
    }

    /// Snapshots the mat's durable state (all arrays, in array order).
    pub fn state(&self) -> MatState {
        MatState {
            arrays: self.arrays.iter().map(Array::state).collect(),
        }
    }

    /// Rebuilds a mat from a snapshot against the expected geometry.
    /// Returns `None` when the snapshot disagrees with `arrays_per_mat` /
    /// `rows` or any array snapshot is internally inconsistent.
    pub fn from_state(state: &MatState, arrays_per_mat: u16, rows: u32) -> Option<Mat> {
        if state.arrays.len() != arrays_per_mat as usize {
            return None;
        }
        let arrays: Vec<Array> = state
            .arrays
            .iter()
            .map(Array::from_state)
            .collect::<Option<_>>()?;
        if arrays.iter().any(|a| a.rows() != rows as usize) {
            return None;
        }
        Some(Mat {
            arrays,
            rows_per_array: rows,
        })
    }

    /// The most-written slot's write count (endurance).
    pub fn max_wear(&self) -> u32 {
        self.arrays.iter().map(Array::max_wear).max().unwrap_or(0)
    }

    /// Total writes absorbed by the mat.
    pub fn total_writes(&self) -> u64 {
        self.arrays.iter().map(Array::total_writes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_mat(values: &[u64]) -> Mat {
        let mut mat = Mat::new(4, 4); // 16 slots
        for (slot, &v) in values.iter().enumerate() {
            mat.write_slot(slot as u32, v);
            mat.set_select_bit(slot as u32, true);
        }
        mat
    }

    #[test]
    fn slots_span_arrays() {
        let mut mat = Mat::new(4, 4);
        mat.write_slot(0, 11); // array 0 row 0
        mat.write_slot(5, 22); // array 1 row 1
        mat.write_slot(15, 33); // array 3 row 3
        assert_eq!(mat.read_slot(0), 11);
        assert_eq!(mat.read_slot(5), 22);
        assert_eq!(mat.read_slot(15), 33);
        assert_eq!(mat.slots(), 16);
    }

    #[test]
    fn sense_merges_across_arrays() {
        // slot 0 (array 0) holds a 1-bit, slot 5 (array 1) holds a 0-bit.
        let mat = loaded_mat(&[0b1, 0, 0, 0, 0, 0b0]);
        let s = mat.sense_column(0);
        assert!(s.any_one && s.any_zero);
    }

    #[test]
    fn exclusion_applies_to_all_arrays() {
        let mut mat = loaded_mat(&[0b1, 0b0, 0b1, 0b0, 0b1]);
        let removed = mat.apply_exclusion(0, false);
        assert_eq!(removed, 3);
        assert_eq!(mat.selected_count(), 2);
        assert_eq!(mat.first_selected(), Some(1));
    }

    #[test]
    fn first_selected_prefers_lowest_array() {
        let mut mat = Mat::new(4, 4);
        mat.set_select_bit(9, true); // array 2
        mat.set_select_bit(6, true); // array 1
        assert_eq!(mat.first_selected(), Some(6));
        assert!(mat.select_bit(9));
        assert!(!mat.select_bit(0));
    }

    #[test]
    fn clear_select_resets() {
        let mut mat = loaded_mat(&[1, 2, 3]);
        assert_eq!(mat.selected_count(), 3);
        mat.clear_select();
        assert_eq!(mat.selected_count(), 0);
        assert_eq!(mat.first_selected(), None);
    }

    #[test]
    fn command_protocol_matches_typed_methods() {
        // Drive one full min-search step purely through commands.
        let mut mat = Mat::new(4, 4);
        for (slot, raw) in [(0u32, 0b10u64), (1, 0b01), (2, 0b11)] {
            assert_eq!(
                mat.execute(MatCommand::RowWrite { slot, raw }),
                Ok(MatResponse::Ack)
            );
        }
        assert_eq!(
            mat.execute(MatCommand::SetSelectRange {
                start: 0,
                end: 3,
                value: true
            }),
            Ok(MatResponse::Ack)
        );
        let Ok(MatResponse::Signals(signals)) = mat.execute(MatCommand::ColumnSearch { pos: 1 })
        else {
            panic!("column search returns signals");
        };
        assert!(signals.any_one && signals.any_zero);
        // Controller decides: keep rows with 0 at bit 1 (min search).
        assert_eq!(
            mat.execute(MatCommand::LoadSelect {
                pos: 1,
                keep: false
            }),
            Ok(MatResponse::Deselected(2))
        );
        assert_eq!(mat.first_selected(), Some(1));
        assert_eq!(
            mat.execute(MatCommand::RowRead { slot: 1 }),
            Ok(MatResponse::Data(0b01))
        );
    }

    #[test]
    fn set_select_range_clamps_to_capacity() {
        let mut mat = Mat::new(2, 2);
        mat.execute(MatCommand::SetSelectRange {
            start: 0,
            end: 99,
            value: true,
        })
        .unwrap();
        assert_eq!(mat.selected_count(), 4);
    }

    #[test]
    fn malformed_commands_degrade_to_errors() {
        let mut mat = Mat::new(2, 2); // 4 slots
        mat.write_slot(1, 42);
        assert_eq!(
            mat.execute(MatCommand::RowRead { slot: 4 }),
            Err(Error::AddressOutOfRange {
                addr: 4,
                capacity: 4
            })
        );
        assert_eq!(
            mat.execute(MatCommand::RowWrite { slot: 9, raw: 1 }),
            Err(Error::AddressOutOfRange {
                addr: 9,
                capacity: 4
            })
        );
        assert_eq!(
            mat.execute(MatCommand::SetSelectRange {
                start: 3,
                end: 1,
                value: true
            }),
            Err(Error::EmptyRange { begin: 3, end: 1 })
        );
        // Column positions past the modelled key width degrade too
        // (previously a debug-build shift panic).
        assert_eq!(
            mat.execute(MatCommand::ColumnSearch { pos: 64 }),
            Err(Error::KeyTooWide { bits: 65, max: 64 })
        );
        assert_eq!(
            mat.execute(MatCommand::LoadSelect {
                pos: 200,
                keep: true
            }),
            Err(Error::KeyTooWide { bits: 201, max: 64 })
        );
        // The mat stays usable after rejecting malformed traffic.
        assert_eq!(
            mat.execute(MatCommand::RowRead { slot: 1 }),
            Ok(MatResponse::Data(42))
        );
    }

    #[test]
    fn scalar_oracle_agrees_at_mat_level() {
        let mut bitsliced = loaded_mat(&[0b1010, 0b0110, 0b1111, 0b0001, 0b1000]);
        let mut scalar = bitsliced.clone();
        bitsliced.inject_stuck_cell(2, 0, false);
        scalar.inject_stuck_cell(2, 0, false);
        for pos in 0..4u16 {
            assert_eq!(
                bitsliced.sense_column(pos),
                scalar.sense_column_scalar(pos),
                "sense at {pos}"
            );
        }
        let a = bitsliced.apply_exclusion(1, true);
        let b = scalar.apply_exclusion_scalar(1, true);
        assert_eq!(a, b);
        assert_eq!(bitsliced.selected_count(), scalar.selected_count());
        assert_eq!(bitsliced.first_selected(), scalar.first_selected());
    }

    #[test]
    fn load_select_bits_matches_per_bit_latching() {
        let mut word = Mat::new(4, 4);
        let mut bits = Mat::new(4, 4);
        let pattern: Bitmap = (0..16).map(|slot| slot % 3 == 0 || slot == 13).collect();
        for slot in 0..16 {
            word.set_select_bit(slot, slot % 2 == 0); // stale state to overwrite
            bits.set_select_bit(slot, pattern.get(slot as usize));
        }
        word.load_select_bits(&pattern);
        for slot in 0..16 {
            assert_eq!(word.select_bit(slot), bits.select_bit(slot), "slot {slot}");
        }
        assert_eq!(word.selected_count(), bits.selected_count());
    }

    #[test]
    fn snapshot_restore_roundtrips_and_validates_geometry() {
        let mut mat = loaded_mat(&[9, 1, 4, 7, 2]);
        mat.inject_stuck_cell(2, 3, true);
        let state = mat.state();
        let restored = Mat::from_state(&state, 4, 4).unwrap();
        for slot in 0..16 {
            assert_eq!(restored.read_slot(slot), mat.read_slot(slot), "{slot}");
        }
        assert_eq!(restored.max_wear(), mat.max_wear());
        assert_eq!(restored.total_writes(), mat.total_writes());
        assert_eq!(restored.selected_count(), 0, "latches come up cleared");
        // Geometry disagreements are rejected, not mis-mapped.
        assert!(Mat::from_state(&state, 2, 4).is_none());
        assert!(Mat::from_state(&state, 4, 8).is_none());
    }

    #[test]
    fn wear_aggregates() {
        let mut mat = Mat::new(2, 2);
        mat.write_slot(0, 1);
        mat.write_slot(0, 2);
        mat.write_slot(3, 7);
        assert_eq!(mat.max_wear(), 2);
        assert_eq!(mat.total_writes(), 3);
    }
}
