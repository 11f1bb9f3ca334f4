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
//!
//! # Bit-sliced view
//!
//! The four arrays share their sense circuits, so the periphery that
//! gates and senses their cells is modelled once per mat, over all its
//! slots:
//!
//! * the **select vector**: one latch per slot (bit index = slot), with
//!   its count kept beside it so survivor checks cost O(1);
//! * the **column shadow**: the slots' *effective* (post-fault) bits in
//!   column-major order, 64 columns of `slots/64` words each, so bit `s`
//!   of column `b` is bit `b` of slot `s`.
//!
//! A column search in hardware senses every selected row in one analog
//! step (Fig. 7); the shadow lets the model match it with `slots/64` word
//! operations (`select & column`, `select & !column`) instead of a
//! row-at-a-time walk. Its one coherence point is `Mat::sync_slot`:
//! [`Mat::write_slot`], [`Mat::inject_stuck_cell`], [`Mat::clear_faults`]
//! and [`Mat::from_state`] call it. The arrays keep only what checkpoints
//! carry (rows, wear, faults). The view is a pure simulator
//! optimization: it models no extra hardware and changes no operation
//! counts, and the scalar oracle (`scalar-oracle` feature) reads rows
//! through [`Mat::read_slot`] instead.

use crate::array::{Array, ArrayState, ColumnSignals, KEY_BITS};
use crate::bitmap::Bitmap;

/// Serializable snapshot of one mat's durable state: its arrays'
/// [`ArrayState`]s in array order. See [`ArrayState`] for what is (and
/// deliberately is not) captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatState {
    /// Per-array snapshots, in array order.
    pub arrays: Vec<ArrayState>,
}

/// Four memristive arrays under one mat controller, with the mat's
/// select latches and column shadow (see the module docs).
#[derive(Debug, Clone)]
pub struct Mat {
    arrays: Vec<Array>,
    rows_per_array: u32,
    /// Select latches, bit index = slot.
    select: Bitmap,
    /// Cached `select.count_ones()`, maintained by every select mutator.
    selected: usize,
    /// Column-major shadow: word `b * select_words() + w` holds
    /// effective bit `b` of slots `64w..64w + 64`.
    columns: Vec<u64>,
    /// Counts changes to what a descent over the mat reads besides its
    /// select latches: row writes and stuck-at faults bump it here, and
    /// the chip bumps it when the mat's exclusion flags change. The memo
    /// engine keeps a mat's descent across calls while it holds still.
    generation: u64,
}

impl Mat {
    /// Creates a mat of `arrays_per_mat` arrays with `rows` wordlines each.
    pub fn new(arrays_per_mat: u16, rows: u32) -> Mat {
        Mat::with_arrays(
            (0..arrays_per_mat).map(|_| Array::new(rows)).collect(),
            rows,
        )
    }

    /// A mat over `arrays` of `rows` rows each with its latches cleared
    /// and an all-zero shadow: the caller syncs any nonzero slot.
    fn with_arrays(arrays: Vec<Array>, rows: u32) -> Mat {
        let slots = arrays.len() * rows as usize;
        Mat {
            arrays,
            rows_per_array: rows,
            select: Bitmap::zeros(slots),
            selected: 0,
            columns: vec![0; KEY_BITS * slots.div_ceil(64)],
            generation: 0,
        }
    }

    /// Re-transposes one slot's effective bits into the column shadow
    /// after a write or a fault edit: the view's single coherence point.
    fn sync_slot(&mut self, slot: u32) {
        let eff = self.read_slot(slot);
        let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
        let words = self.select_words();
        for (b, column_word) in self.columns[word..].iter_mut().step_by(words).enumerate() {
            if eff >> b & 1 == 1 {
                *column_word |= bit;
            } else {
                *column_word &= !bit;
            }
        }
    }

    /// Column `pos` of the shadow.
    fn column(&self, pos: u16) -> &[u64] {
        let words = self.select_words();
        let start = pos as usize * words;
        &self.columns[start..start + words]
    }

    /// The mat's generation (see the field docs).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Records a change the mat cannot see itself: its exclusion flags.
    pub(crate) fn bump_generation(&mut self) {
        self.generation += 1;
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
        self.sync_slot(slot);
        self.generation += 1;
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

    /// The select vector (one latch per slot, in slot order).
    pub fn select(&self) -> &Bitmap {
        &self.select
    }

    /// Sets one select latch.
    pub fn set_select_bit(&mut self, slot: u32, value: bool) {
        let slot = slot as usize;
        if self.select.get(slot) != value {
            self.select.set(slot, value);
            if value {
                self.selected += 1;
            } else {
                self.selected -= 1;
            }
        }
    }

    /// Whether the latch for `slot` is set.
    pub fn select_bit(&self, slot: u32) -> bool {
        self.select.get(slot as usize)
    }

    /// Clears every select latch in the mat.
    pub fn clear_select(&mut self) {
        self.select.clear();
        self.selected = 0;
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
    /// larger (e.g. chip-global membership) bitmap starting at `start`:
    /// one slice assignment, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the window runs past `bits.len()`.
    pub fn load_select_window(&mut self, bits: &Bitmap, start: usize) {
        self.select.assign_slice(bits, start);
        self.selected = self.select.count_ones();
    }

    /// Number of selected slots (cached; O(1)).
    pub fn selected_count(&self) -> usize {
        self.selected
    }

    /// Words in one saved copy of the select vector ([`Mat::save_select`]);
    /// bit `s % 64` of word `s / 64` is slot `s`.
    pub(crate) fn select_words(&self) -> usize {
        self.select.words().len()
    }

    /// Appends the select latches to `out`.
    pub(crate) fn save_select(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.select.words());
    }

    /// Latches select words saved by [`Mat::save_select`], holding
    /// `count` selected slots.
    pub(crate) fn restore_select(&mut self, words: &[u64], count: u64) {
        self.select.copy_words_from(words);
        self.selected = count as usize;
        debug_assert_eq!(self.selected, self.select.count_ones(), "select count");
    }

    /// [`Mat::exclude`], appending to `out` the select words of the slots
    /// it deselected ([`Mat::select_words`] of them). Returns their count.
    pub(crate) fn exclude_saving(
        &mut self,
        pos: u16,
        keep: bool,
        scalar: bool,
        out: &mut Vec<u64>,
    ) -> u64 {
        #[cfg(any(test, feature = "scalar-oracle"))]
        if scalar {
            let start = out.len();
            self.save_select(out);
            let removed = self.apply_exclusion_scalar(pos, keep);
            for (saved, &now) in out[start..].iter_mut().zip(self.select.words()) {
                *saved ^= now;
            }
            return removed as u64;
        }
        let _ = scalar;
        let words = self.select_words();
        let start = pos as usize * words;
        let column = &self.columns[start..start + words];
        let removed = self.select.and_words_saving_removed(column, keep, out);
        self.selected -= removed;
        removed as u64
    }

    /// Column-search command: the mat senses column `pos` over its
    /// selected slots in all four arrays at once and sends the two
    /// signals upstream (Fig. 9's two-signal protocol).
    ///
    /// Bit-sliced: one pass over the select words, ANDing each against
    /// the column (and its complement), with an early exit once both
    /// signals are raised; column words under unselected slots are
    /// skipped four at a time.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 64`.
    pub fn sense_column(&self, pos: u16) -> ColumnSignals {
        if self.selected == 0 {
            return ColumnSignals::default();
        }
        let (sel, col) = (self.select.words(), self.column(pos));
        let (mut one, mut zero) = (0u64, 0u64);
        let mut chunks = sel.chunks_exact(4).zip(col.chunks_exact(4));
        for (s, c) in chunks.by_ref() {
            if s[0] | s[1] | s[2] | s[3] == 0 {
                continue; // nothing selected here: leave the column unread
            }
            one |= (s[0] & c[0]) | (s[1] & c[1]) | (s[2] & c[2]) | (s[3] & c[3]);
            zero |= (s[0] & !c[0]) | (s[1] & !c[1]) | (s[2] & !c[2]) | (s[3] & !c[3]);
            if one != 0 && zero != 0 {
                return ColumnSignals {
                    any_one: true,
                    any_zero: true,
                };
            }
        }
        let (s_rem, c_rem) = (sel.chunks_exact(4), col.chunks_exact(4));
        for (&s, &c) in s_rem.remainder().iter().zip(c_rem.remainder()) {
            one |= s & c;
            zero |= s & !c;
        }
        ColumnSignals {
            any_one: one != 0,
            any_zero: zero != 0,
        }
    }

    /// The match vector for column `pos` against reference bit `keep`,
    /// written into the caller-provided scratch bitmap: `out = select &
    /// column` (`keep`) or `select & !column` (`!keep`), word-parallel.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 64` or `out.len()` differs from the slot count.
    pub fn match_vector_into(&self, pos: u16, keep: bool, out: &mut Bitmap) {
        assert_eq!(out.len(), self.select.len(), "match vector length");
        out.copy_words_from(self.select.words());
        out.and_words_count_removed(self.column(pos), keep);
    }

    /// The match vector for column `pos` against reference bit `keep`:
    /// selected slots whose cell XNORs true with the reference. Allocating
    /// form of [`Mat::match_vector_into`].
    pub fn match_vector(&self, pos: u16, keep: bool) -> Bitmap {
        let mut matches = Bitmap::zeros(self.select.len());
        self.match_vector_into(pos, keep, &mut matches);
        matches
    }

    /// Loads a match vector into the select latches (selective row
    /// exclusion, §IV-A.2). Returns the number of slots deselected.
    pub fn load_select(&mut self, matches: &Bitmap) -> usize {
        let removed = self.select.and_assign_count_removed(matches);
        self.selected -= removed;
        removed
    }

    /// Applies a global exclusion: the mat latches its match vector for
    /// (`pos`, `keep`) into its select vector. Returns slots deselected.
    ///
    /// Fused match-and-load: because `select &= select & col` simplifies
    /// to `select &= col`, it needs no match vector at all — one in-place
    /// AND/ANDN over the select words. Semantically identical to
    /// `load_select(&match_vector(pos, keep))`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 64`.
    pub fn apply_exclusion(&mut self, pos: u16, keep: bool) -> usize {
        let words = self.select_words();
        let start = pos as usize * words;
        let column = &self.columns[start..start + words];
        let removed = self.select.and_words_count_removed(column, keep);
        self.selected -= removed;
        removed
    }

    /// Scalar row-major column search — the differential oracle for the
    /// bit-sliced path, kept alive under the `scalar-oracle` feature (and
    /// in tests). Walks the selected slots one at a time through
    /// [`Mat::read_slot`], never touching the shadow.
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn sense_column_scalar(&self, pos: u16) -> ColumnSignals {
        let mut signals = ColumnSignals::default();
        for slot in self.select.iter_ones() {
            if self.read_slot(slot as u32) >> pos & 1 == 1 {
                signals.any_one = true;
            } else {
                signals.any_zero = true;
            }
            if signals.any_one && signals.any_zero {
                break;
            }
        }
        signals
    }

    /// Scalar row-major match vector — differential oracle counterpart
    /// of [`Mat::match_vector`] (see [`Mat::sense_column_scalar`]).
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn match_vector_scalar(&self, pos: u16, keep: bool) -> Bitmap {
        let mut matches = Bitmap::zeros(self.select.len());
        for slot in self.select.iter_ones() {
            if (self.read_slot(slot as u32) >> pos & 1 == 1) == keep {
                matches.set(slot, true);
            }
        }
        matches
    }

    /// Scalar-oracle exclusion: the row-major match vector, then a
    /// select-latch load — the pre-shadow two-step path. Differential-test
    /// counterpart of [`Mat::apply_exclusion`].
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn apply_exclusion_scalar(&mut self, pos: u16, keep: bool) -> usize {
        let matches = self.match_vector_scalar(pos, keep);
        self.load_select(&matches)
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
        self.select.first_one().map(|slot| slot as u32)
    }

    /// Injects a stuck-at fault at `slot`'s cell `bit`.
    pub fn inject_stuck_cell(&mut self, slot: u32, bit: u16, stuck: bool) {
        let (array, row) = self.split(slot);
        self.arrays[array].inject_stuck_cell(row, bit, stuck);
        self.sync_slot(slot);
        self.generation += 1;
    }

    /// Removes every injected fault, re-syncing the slots they covered.
    pub fn clear_faults(&mut self) {
        for array in 0..self.arrays.len() {
            if self.arrays[array].fault_count() == 0 {
                continue;
            }
            self.arrays[array].clear_faults();
            let first = array as u32 * self.rows_per_array;
            for slot in first..first + self.rows_per_array {
                self.sync_slot(slot);
            }
            self.generation += 1;
        }
    }

    /// Snapshots the mat's durable state (all arrays, in array order).
    pub fn state(&self) -> MatState {
        MatState {
            arrays: self.arrays.iter().map(Array::state).collect(),
        }
    }

    /// Rebuilds a mat from a snapshot against the expected geometry: the
    /// column shadow is re-transposed through the fault lists and the
    /// select latches come up cleared. Returns `None` when the snapshot disagrees with `arrays_per_mat` /
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
        let mut mat = Mat::with_arrays(arrays, rows);
        for slot in 0..mat.slots() {
            mat.sync_slot(slot);
        }
        Some(mat)
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
