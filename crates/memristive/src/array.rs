//! A single 1T1R memristive array with RIME periphery (§IV-A, Fig. 7).
//!
//! Keys live one per wordline; the first `k` bitlines of a row hold the
//! key's bits (1 = low-resistance state, 0 = high-resistance state). The
//! RIME periphery adds, per array:
//!
//! * a **select vector** of per-wordline latches gating which rows
//!   participate in column searches,
//! * **column search**: drive one bitline, sense all selectlines, XNOR the
//!   sensed column with a 1-bit reference to form the **match vector**,
//! * the **all-0-or-1 logic** producing the `load` gate (modelled at the
//!   mat/chip level through the [`ColumnSignals`] the array reports).
//!
//! Writes are the only wear-inducing operation; the array tracks per-row
//! write counts for the §VII-C lifetime study.

use crate::bitmap::Bitmap;

/// Per-array outcome of sensing one column restricted to selected rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnSignals {
    /// At least one selected cell in the column holds 1.
    pub any_one: bool,
    /// At least one selected cell in the column holds 0.
    pub any_zero: bool,
}

impl ColumnSignals {
    /// Whether every selected cell holds the same bit (or none is selected)
    /// — the *all 0 or 1* condition that vetoes a select-vector load.
    pub fn all_same(&self) -> bool {
        !(self.any_one && self.any_zero)
    }

    /// Merges signals from another array or mat (wired-OR upstream, Fig. 9).
    pub fn merge(&mut self, other: ColumnSignals) {
        self.any_one |= other.any_one;
        self.any_zero |= other.any_zero;
    }
}

/// Key bits per array row; the row-major store packs them in a `u64`.
const KEY_BITS: usize = 64;

/// Serializable snapshot of one array's durable state.
///
/// Captures exactly what nonvolatile cells hold: the *raw* (pre-fault)
/// row patterns, the per-row write counts, and the injected stuck-at
/// faults. Volatile periphery — the select latches and the derived
/// column shadow — is intentionally absent: latches are CMOS state that
/// every extraction re-arms before use, and the shadow is recomputed on
/// restore. Used by `rime-core`'s checkpoint/recovery path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayState {
    /// Raw row patterns as written (before stuck-at faults apply).
    pub rows: Vec<u64>,
    /// Per-row write counts (endurance bookkeeping, §VII-C).
    pub wear: Vec<u32>,
    /// Injected stuck-at faults as `(row, bit, stuck value)`.
    pub faults: Vec<(usize, u16, bool)>,
}

/// One memristive array: `rows` key slots of up to 64 key bits each.
///
/// The array stores each row's key bits packed in a `u64` — bit-identical
/// to the cells the paper describes for key widths up to 64; columns past
/// the key width would hold unrelated data in normal-storage mode and are
/// not modelled.
///
/// # Bit-sliced column shadow
///
/// Alongside the row-major store the array maintains a transposed view:
/// one [`Bitmap`] per bit position, holding that column's *effective*
/// (post-fault) cell values with one bit per row. A column search in
/// hardware senses every selected row in one analog step (Fig. 7); the
/// shadow lets the software model match that parallelism with
/// `rows/64` word operations (`select & column`, `select & !column`)
/// instead of a row-at-a-time scalar walk. The shadow is kept coherent
/// on every [`Array::write_row`] and fault change — see `sync_row` —
/// and is a pure simulator optimization: it models no extra hardware
/// and changes no operation counts.
#[derive(Debug, Clone)]
pub struct Array {
    rows: Vec<u64>,
    /// Transposed shadow: `cols[b]` bit `r` == effective bit `b` of row
    /// `r` (through any injected faults).
    cols: Vec<Bitmap>,
    select: Bitmap,
    /// Cached `select.count_ones()`, maintained by every select mutator so
    /// the per-step survivor checks cost O(1) instead of a popcount pass.
    selected: usize,
    wear: Vec<u32>,
    /// Injected stuck-at cell faults: (row, bit, stuck value). Endurance
    /// failures manifest as cells stuck in one resistance state; the
    /// fault list lets tests exercise the periphery under such defects.
    faults: Vec<(usize, u16, bool)>,
}

impl Array {
    /// Creates an array of `rows` zeroed key slots with an empty selection.
    pub fn new(rows: u32) -> Array {
        let rows = rows as usize;
        Array {
            rows: vec![0; rows],
            cols: (0..KEY_BITS).map(|_| Bitmap::zeros(rows)).collect(),
            select: Bitmap::zeros(rows),
            selected: 0,
            wear: vec![0; rows],
            faults: Vec::new(),
        }
    }

    /// Re-transposes one row into the column shadow after its effective
    /// value changed (write or fault edit). This is the single coherence
    /// point of the dual representation.
    fn sync_row(&mut self, row: usize) {
        let eff = self.effective(row);
        for (bit, col) in self.cols.iter_mut().enumerate() {
            col.set(row, eff >> bit & 1 == 1);
        }
    }

    /// Injects a stuck-at fault: the cell at (`row`, `bit`) permanently
    /// senses `stuck` regardless of what is written (worn-out RRAM cells
    /// freeze in one resistance state, §VII-C).
    pub fn inject_stuck_cell(&mut self, row: usize, bit: u16, stuck: bool) {
        assert!(row < self.rows.len(), "row {row} out of range");
        assert!(bit < KEY_BITS as u16, "bit {bit} out of range");
        self.faults.retain(|&(r, b, _)| (r, b) != (row, bit));
        self.faults.push((row, bit, stuck));
        self.cols[bit as usize].set(row, stuck);
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        let dirty: Vec<usize> = self.faults.iter().map(|&(r, _, _)| r).collect();
        self.faults.clear();
        for row in dirty {
            self.sync_row(row);
        }
    }

    /// Number of injected faults.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    fn effective(&self, row: usize) -> u64 {
        let mut raw = self.rows[row];
        for &(r, bit, stuck) in &self.faults {
            if r == row {
                if stuck {
                    raw |= 1 << bit;
                } else {
                    raw &= !(1 << bit);
                }
            }
        }
        raw
    }

    /// Number of key slots (wordlines).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Writes a raw key pattern into `row`, inducing one cell-line write.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn write_row(&mut self, row: usize, raw: u64) {
        self.rows[row] = raw;
        self.wear[row] = self.wear[row].saturating_add(1);
        self.sync_row(row);
    }

    /// Reads the raw key pattern stored in `row` (through any injected
    /// stuck-at faults).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn read_row(&self, row: usize) -> u64 {
        if self.faults.is_empty() {
            self.rows[row]
        } else {
            self.effective(row)
        }
    }

    /// The select vector (shared view; per-wordline latches).
    pub fn select(&self) -> &Bitmap {
        &self.select
    }

    /// Replaces the select vector wholesale (used by range initialization).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the row count.
    pub fn set_select(&mut self, select: Bitmap) {
        assert_eq!(select.len(), self.rows.len(), "select vector length");
        self.selected = select.count_ones();
        self.select = select;
    }

    /// Replaces the select vector with the `rows()`-bit window of `bits`
    /// starting at `start` — the zero-allocation whole-vector latch the
    /// batched extraction engine rearms with.
    ///
    /// # Panics
    ///
    /// Panics if the window runs past `bits.len()`.
    pub fn load_select_window(&mut self, bits: &Bitmap, start: usize) {
        self.select.assign_slice(bits, start);
        self.selected = self.select.count_ones();
    }

    /// Latches select words saved from this array's [`Array::select`].
    ///
    /// # Panics
    ///
    /// Panics if the word count differs.
    pub(crate) fn load_select_words(&mut self, words: &[u64]) {
        self.select.copy_words_from(words);
        self.selected = self.select.count_ones();
    }

    /// Sets or clears one select latch.
    pub fn set_select_bit(&mut self, row: usize, value: bool) {
        let was = self.select.get(row);
        if was != value {
            self.select.set(row, value);
            if value {
                self.selected += 1;
            } else {
                self.selected -= 1;
            }
        }
    }

    /// Clears the whole select vector.
    pub fn clear_select(&mut self) {
        self.select.clear();
        self.selected = 0;
    }

    /// Number of selected rows (cached; O(1)).
    pub fn selected_count(&self) -> usize {
        self.selected
    }

    /// Senses column `pos` across the selected rows (Fig. 7): returns the
    /// per-array signals; the match vector itself is produced by
    /// [`Array::match_vector`] when the controller decides to load.
    ///
    /// Bit-sliced: one pass over the `rows/64` select words, ANDing each
    /// against the column shadow (and its complement), with an early exit
    /// once both signals are raised — mirroring the hardware, which
    /// senses all selected rows in a single analog step.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 64`.
    pub fn sense_column(&self, pos: u16) -> ColumnSignals {
        if self.selected == 0 {
            return ColumnSignals::default();
        }
        let col = self.cols[pos as usize].words();
        let sel = self.select.words();
        let (mut one, mut zero) = (0u64, 0u64);
        let mut chunks = sel.chunks_exact(4).zip(col.chunks_exact(4));
        for (s, c) in chunks.by_ref() {
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
    /// written into the caller-provided scratch bitmap — the
    /// zero-allocation form: `out = select & column` (`keep`) or
    /// `select & !column` (`!keep`), word-parallel.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 64` or `out.len()` differs from the row count.
    pub fn match_vector_into(&self, pos: u16, keep: bool, out: &mut Bitmap) {
        let col = &self.cols[pos as usize];
        if keep {
            out.assign_and(&self.select, col);
        } else {
            out.assign_and_not(&self.select, col);
        }
    }

    /// The match vector for column `pos` against reference bit `keep`:
    /// selected rows whose cell XNORs true with the reference. Allocating
    /// convenience form of [`Array::match_vector_into`].
    pub fn match_vector(&self, pos: u16, keep: bool) -> Bitmap {
        let mut matches = Bitmap::zeros(self.rows.len());
        self.match_vector_into(pos, keep, &mut matches);
        matches
    }

    /// Loads the match vector into the select latches (selective row
    /// exclusion, §IV-A.2). Returns the number of rows deselected.
    pub fn load_select(&mut self, matches: &Bitmap) -> usize {
        let removed = self.select.and_assign_count_removed(matches);
        self.selected -= removed;
        removed
    }

    /// Fused match-and-load (§IV-A.2): because `select &= select & col`
    /// simplifies to `select &= col`, the global exclusion needs no match
    /// vector at all — one in-place AND/ANDN over the select words.
    /// Semantically identical to `load_select(&match_vector(pos, keep))`.
    /// Returns the number of rows deselected.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 64`.
    pub fn apply_exclusion(&mut self, pos: u16, keep: bool) -> usize {
        let col = &self.cols[pos as usize];
        let removed = if keep {
            self.select.and_assign_count_removed(col)
        } else {
            self.select.and_not_assign_count_removed(col)
        };
        self.selected -= removed;
        removed
    }

    /// Scalar row-major `sense_column` — the differential oracle for the
    /// bit-sliced path, kept alive under the `scalar-oracle` feature (and
    /// in tests). Walks selected rows one at a time through
    /// [`Array::read_row`], exactly the pre-shadow implementation.
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn sense_column_scalar(&self, pos: u16) -> ColumnSignals {
        let mut signals = ColumnSignals::default();
        for row in self.select.iter_ones() {
            if self.read_row(row) >> pos & 1 == 1 {
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

    /// Scalar row-major `match_vector` — differential oracle counterpart
    /// of [`Array::match_vector`] (see [`Array::sense_column_scalar`]).
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn match_vector_scalar(&self, pos: u16, keep: bool) -> Bitmap {
        let mut matches = Bitmap::zeros(self.rows.len());
        for row in self.select.iter_ones() {
            if (self.read_row(row) >> pos & 1 == 1) == keep {
                matches.set(row, true);
            }
        }
        matches
    }

    /// Lowest selected row, if any (the array's contribution to the
    /// H-tree priority index).
    pub fn first_selected(&self) -> Option<usize> {
        self.select.first_one()
    }

    /// Snapshots the array's durable state (raw rows, wear, faults).
    /// Select latches are volatile and excluded — see [`ArrayState`].
    pub fn state(&self) -> ArrayState {
        ArrayState {
            rows: self.rows.clone(),
            wear: self.wear.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Rebuilds an array from a snapshot: rows, wear, and faults are
    /// installed verbatim (no wear is induced — this models power-up of
    /// nonvolatile cells, not writes), the column shadow is re-transposed
    /// through the fault list, and the select latches come up cleared.
    ///
    /// Returns `None` when the snapshot is internally inconsistent
    /// (mismatched lengths or out-of-range fault coordinates).
    pub fn from_state(state: &ArrayState) -> Option<Array> {
        let rows = state.rows.len();
        if state.wear.len() != rows {
            return None;
        }
        if state
            .faults
            .iter()
            .any(|&(r, b, _)| r >= rows || b >= KEY_BITS as u16)
        {
            return None;
        }
        let mut array = Array {
            rows: state.rows.clone(),
            cols: (0..KEY_BITS).map(|_| Bitmap::zeros(rows)).collect(),
            select: Bitmap::zeros(rows),
            selected: 0,
            wear: state.wear.clone(),
            faults: state.faults.clone(),
        };
        for row in 0..rows {
            array.sync_row(row);
        }
        Some(array)
    }

    /// Per-row write counts for the endurance study.
    pub fn wear(&self) -> &[u32] {
        &self.wear
    }

    /// The most-written row's write count.
    pub fn max_wear(&self) -> u32 {
        self.wear.iter().copied().max().unwrap_or(0)
    }

    /// Total writes absorbed by the array.
    pub fn total_writes(&self) -> u64 {
        self.wear.iter().map(|&w| w as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array_with(values: &[u64]) -> Array {
        let mut a = Array::new(values.len() as u32);
        for (row, &v) in values.iter().enumerate() {
            a.write_row(row, v);
            a.set_select_bit(row, true);
        }
        a
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = Array::new(4);
        a.write_row(2, 0xDEAD_BEEF);
        assert_eq!(a.read_row(2), 0xDEAD_BEEF);
        assert_eq!(a.read_row(0), 0);
    }

    #[test]
    fn sense_column_reports_mixed() {
        let a = array_with(&[0b10, 0b00, 0b11]);
        let s = a.sense_column(1);
        assert!(s.any_one && s.any_zero && !s.all_same());
        let s0 = a.sense_column(0);
        assert!(s0.any_one && s0.any_zero);
    }

    #[test]
    fn sense_column_uniform() {
        let a = array_with(&[0b1, 0b1, 0b1]);
        let s = a.sense_column(0);
        assert!(s.any_one && !s.any_zero && s.all_same());
    }

    #[test]
    fn sense_respects_selection() {
        let mut a = array_with(&[0b1, 0b0]);
        a.set_select_bit(1, false);
        let s = a.sense_column(0);
        assert!(
            s.any_one && !s.any_zero,
            "deselected row must not be sensed"
        );
    }

    #[test]
    fn empty_selection_is_silent() {
        let mut a = array_with(&[0b1]);
        a.clear_select();
        let s = a.sense_column(0);
        assert!(!s.any_one && !s.any_zero && s.all_same());
    }

    #[test]
    fn match_and_load_exclude_rows() {
        let mut a = array_with(&[0b10, 0b00, 0b11]);
        // keep rows with 0 in column 1 → only row 1 survives
        let m = a.match_vector(1, false);
        let removed = a.load_select(&m);
        assert_eq!(removed, 2);
        assert_eq!(a.first_selected(), Some(1));
    }

    #[test]
    fn wear_tracks_writes_only() {
        let mut a = Array::new(2);
        a.write_row(0, 1);
        a.write_row(0, 2);
        a.write_row(1, 3);
        let _ = a.read_row(0);
        let _ = a.sense_column(0);
        assert_eq!(a.wear(), &[2, 1]);
        assert_eq!(a.max_wear(), 2);
        assert_eq!(a.total_writes(), 3);
    }

    #[test]
    fn stuck_cell_overrides_writes() {
        let mut a = Array::new(2);
        a.write_row(0, 0b0000);
        a.inject_stuck_cell(0, 1, true);
        assert_eq!(a.read_row(0), 0b0010);
        a.write_row(0, 0b1111);
        a.inject_stuck_cell(0, 3, false);
        assert_eq!(a.read_row(0), 0b0111);
        assert_eq!(a.fault_count(), 2);
        a.clear_faults();
        assert_eq!(a.read_row(0), 0b1111);
    }

    #[test]
    fn faulty_cell_corrupts_column_search() {
        let mut a = array_with(&[0b10, 0b01]);
        // Row 1's MSB is stuck high: it now looks like 0b11.
        a.inject_stuck_cell(1, 1, true);
        let s = a.sense_column(1);
        assert!(s.any_one && !s.any_zero, "both rows sense 1 in column 1");
        let m = a.match_vector(1, true);
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn reinjecting_same_cell_replaces_fault() {
        let mut a = Array::new(1);
        a.inject_stuck_cell(0, 0, true);
        a.inject_stuck_cell(0, 0, false);
        assert_eq!(a.fault_count(), 1);
        a.write_row(0, 1);
        assert_eq!(a.read_row(0), 0);
    }

    #[test]
    fn bitsliced_matches_scalar_with_faults_and_partial_select() {
        // 70 rows so the select/column bitmaps span a word boundary.
        let mut a = Array::new(70);
        for row in 0..70 {
            a.write_row(row, (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            a.set_select_bit(row, row % 3 != 1);
        }
        a.inject_stuck_cell(0, 5, true);
        a.inject_stuck_cell(64, 63, false);
        a.inject_stuck_cell(69, 0, true);
        for pos in 0..64u16 {
            assert_eq!(
                a.sense_column(pos),
                a.sense_column_scalar(pos),
                "sense at {pos}"
            );
            for keep in [false, true] {
                assert_eq!(
                    a.match_vector(pos, keep),
                    a.match_vector_scalar(pos, keep),
                    "match at {pos}/{keep}"
                );
            }
        }
    }

    #[test]
    fn shadow_stays_coherent_through_fault_edits() {
        let mut a = Array::new(3);
        a.write_row(1, 0b101);
        a.inject_stuck_cell(1, 1, true); // effective 0b111
        assert!(a.match_vector(1, true).none());
        a.set_select_bit(1, true);
        assert_eq!(
            a.match_vector(1, true).iter_ones().collect::<Vec<_>>(),
            vec![1]
        );
        // Overwriting the row keeps the stuck bit visible in the shadow.
        a.write_row(1, 0);
        assert!(a.sense_column(1).any_one);
        // Clearing faults re-transposes the raw value.
        a.clear_faults();
        assert!(!a.sense_column(1).any_one);
    }

    #[test]
    fn fused_exclusion_equals_match_then_load() {
        let mut fused = Array::new(70);
        for row in 0..70 {
            fused.write_row(row, row as u64 ^ 0x55);
            fused.set_select_bit(row, row % 2 == 0);
        }
        let mut two_step = fused.clone();
        for (pos, keep) in [(0u16, false), (3, true), (6, false)] {
            let removed_fused = fused.apply_exclusion(pos, keep);
            let matches = two_step.match_vector(pos, keep);
            let removed_two = two_step.load_select(&matches);
            assert_eq!(removed_fused, removed_two, "removed at {pos}/{keep}");
            assert_eq!(fused.select(), two_step.select(), "select at {pos}/{keep}");
        }
    }

    #[test]
    fn match_vector_into_reuses_scratch() {
        let mut a = Array::new(5);
        for row in 0..5 {
            a.write_row(row, row as u64);
            a.set_select_bit(row, true);
        }
        let mut scratch = Bitmap::ones(5); // stale contents must be overwritten
        a.match_vector_into(0, true, &mut scratch);
        assert_eq!(scratch.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        a.match_vector_into(0, false, &mut scratch);
        assert_eq!(scratch.iter_ones().collect::<Vec<_>>(), vec![0, 2, 4]);
    }

    #[test]
    fn load_select_window_latches_slice() {
        let mut a = Array::new(8);
        let bits: Bitmap = (0..20).map(|i| i % 2 == 0).collect();
        a.load_select_window(&bits, 3);
        // Window [3, 11): even global indices 4, 6, 8, 10 → local 1, 3, 5, 7.
        assert_eq!(a.select().iter_ones().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
    }

    #[test]
    fn snapshot_restore_is_bit_identical_without_wear() {
        let mut a = Array::new(70);
        for row in 0..70 {
            a.write_row(row, (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        a.inject_stuck_cell(3, 7, true);
        a.inject_stuck_cell(64, 0, false);
        a.set_select_bit(5, true); // volatile; must NOT survive restore
        let restored = Array::from_state(&a.state()).unwrap();
        // Durable state is bit-identical: effective reads, wear, faults.
        for row in 0..70 {
            assert_eq!(restored.read_row(row), a.read_row(row), "row {row}");
        }
        assert_eq!(restored.wear(), a.wear());
        assert_eq!(restored.fault_count(), a.fault_count());
        // The column shadow was re-synced through the fault list.
        for pos in 0..64u16 {
            let mut all = restored.clone();
            let mut all_a = a.clone();
            for row in 0..70 {
                all.set_select_bit(row, true);
                all_a.set_select_bit(row, true);
            }
            assert_eq!(all.sense_column(pos), all_a.sense_column(pos), "{pos}");
        }
        // Select latches come up cleared; restore induced no wear.
        assert_eq!(restored.selected_count(), 0);
        assert_eq!(restored.total_writes(), a.total_writes());
    }

    #[test]
    fn from_state_rejects_inconsistent_snapshots() {
        let a = Array::new(4);
        let mut bad = a.state();
        bad.wear.pop();
        assert!(Array::from_state(&bad).is_none());
        let mut bad = a.state();
        bad.faults.push((9, 0, true)); // row out of range
        assert!(Array::from_state(&bad).is_none());
        let mut bad = a.state();
        bad.faults.push((0, 64, true)); // bit out of range
        assert!(Array::from_state(&bad).is_none());
    }

    #[test]
    fn cached_selected_count_tracks_every_mutator() {
        let mut a = Array::new(70);
        for row in 0..70 {
            a.write_row(row, row as u64 ^ 0xA5);
        }
        let check = |a: &Array, ctx: &str| {
            assert_eq!(a.selected_count(), a.select().count_ones(), "{ctx}");
        };
        check(&a, "new");
        a.set_select((0..70).map(|i| i % 2 == 0).collect());
        check(&a, "set_select");
        a.set_select_bit(1, true);
        a.set_select_bit(1, true); // idempotent set must not double-count
        a.set_select_bit(0, false);
        a.set_select_bit(0, false);
        check(&a, "set_select_bit");
        let bits: Bitmap = (0..140).map(|i| i % 3 != 0).collect();
        a.load_select_window(&bits, 35);
        check(&a, "load_select_window");
        let matches: Bitmap = (0..70).map(|i| i % 5 != 2).collect();
        a.load_select(&matches);
        check(&a, "load_select");
        a.apply_exclusion(3, true);
        check(&a, "apply_exclusion keep");
        a.apply_exclusion(2, false);
        check(&a, "apply_exclusion drop");
        let restored = Array::from_state(&a.state()).unwrap();
        check(&restored, "from_state");
        a.clear_select();
        check(&a, "clear_select");
    }

    #[test]
    fn signals_merge_is_or() {
        let mut s = ColumnSignals {
            any_one: true,
            any_zero: false,
        };
        s.merge(ColumnSignals {
            any_one: false,
            any_zero: true,
        });
        assert!(s.any_one && s.any_zero);
    }
}
