//! A single 1T1R memristive array (§IV-A, Fig. 7): its cells.
//!
//! Keys live one per wordline; the first `k` bitlines of a row hold the
//! key's bits (1 = low-resistance state, 0 = high-resistance state). An
//! array holds exactly what its nonvolatile cells and a checkpoint carry:
//! the rows, their write counts and any stuck-at faults.
//!
//! The RIME periphery that senses those cells — the select latches that
//! gate which rows take part in a column search, the column search that
//! XNORs the sensed column with a reference bit into the match vector,
//! and the *all-0-or-1* gate — is driven per mat: a mat's four arrays
//! share sense circuits and send one signal pair upstream (§IV-B.1,
//! Fig. 8). So the select vector and the bit-sliced column shadow live in
//! [`Mat`](crate::mat::Mat), one of each per mat; this module keeps the
//! [`ColumnSignals`] pair the sense amplifiers raise.
//!
//! Writes are the only wear-inducing operation; the array tracks per-row
//! write counts for the §VII-C lifetime study.

/// Outcome of sensing one column over the selected rows.
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

    /// Merges signals from another mat (wired-OR upstream, Fig. 9).
    pub fn merge(&mut self, other: ColumnSignals) {
        self.any_one |= other.any_one;
        self.any_zero |= other.any_zero;
    }
}

/// Key bits per array row; the row-major store packs them in a `u64`.
pub(crate) const KEY_BITS: usize = 64;

/// Serializable snapshot of one array's durable state.
///
/// Captures exactly what nonvolatile cells hold: the *raw* (pre-fault)
/// row patterns, the per-row write counts, and the injected stuck-at
/// faults. Volatile periphery — the mat's select latches and its derived
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
/// not modelled. Its fields are exactly [`ArrayState`]'s.
#[derive(Debug, Clone)]
pub struct Array {
    rows: Vec<u64>,
    wear: Vec<u32>,
    /// Injected stuck-at cell faults: (row, bit, stuck value). Endurance
    /// failures manifest as cells stuck in one resistance state; the
    /// fault list lets tests exercise the periphery under such defects.
    faults: Vec<(usize, u16, bool)>,
}

impl Array {
    /// Creates an array of `rows` zeroed key slots.
    pub fn new(rows: u32) -> Array {
        let rows = rows as usize;
        Array {
            rows: vec![0; rows],
            wear: vec![0; rows],
            faults: Vec::new(),
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
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
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

    /// Snapshots the array's durable state (raw rows, wear, faults).
    pub fn state(&self) -> ArrayState {
        ArrayState {
            rows: self.rows.clone(),
            wear: self.wear.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Rebuilds an array from a snapshot: rows, wear, and faults are
    /// installed verbatim (no wear is induced — this models power-up of
    /// nonvolatile cells, not writes).
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
        Some(Array {
            rows: state.rows.clone(),
            wear: state.wear.clone(),
            faults: state.faults.clone(),
        })
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
    //! Sensing an array's rows runs on its mat's select latches and column
    //! shadow, so the periphery tests drive it through a one-array mat.

    use super::*;
    use crate::bitmap::Bitmap;
    use crate::mat::Mat;

    /// A one-array mat holding `values`, every row selected.
    fn array_with(values: &[u64]) -> Mat {
        let mut m = Mat::new(1, values.len() as u32);
        for (row, &v) in values.iter().enumerate() {
            m.write_slot(row as u32, v);
            m.set_select_bit(row as u32, true);
        }
        m
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
        // 70 rows so the select/column words span a word boundary.
        let mut a = Mat::new(1, 70);
        for row in 0..70 {
            a.write_slot(row, (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
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
        let mut a = Mat::new(1, 3);
        a.write_slot(1, 0b101);
        a.inject_stuck_cell(1, 1, true); // effective 0b111
        assert!(a.match_vector(1, true).none());
        a.set_select_bit(1, true);
        assert_eq!(
            a.match_vector(1, true).iter_ones().collect::<Vec<_>>(),
            vec![1]
        );
        // Overwriting the row keeps the stuck bit visible in the shadow.
        a.write_slot(1, 0);
        assert!(a.sense_column(1).any_one);
        // Clearing faults re-transposes the raw value.
        a.clear_faults();
        assert!(!a.sense_column(1).any_one);
    }

    #[test]
    fn fused_exclusion_equals_match_then_load() {
        let mut fused = Mat::new(1, 70);
        for row in 0..70 {
            fused.write_slot(row, row as u64 ^ 0x55);
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
        let a = array_with(&[0, 1, 2, 3, 4]);
        let mut scratch = Bitmap::ones(5); // stale contents must be overwritten
        a.match_vector_into(0, true, &mut scratch);
        assert_eq!(scratch.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
        a.match_vector_into(0, false, &mut scratch);
        assert_eq!(scratch.iter_ones().collect::<Vec<_>>(), vec![0, 2, 4]);
    }

    #[test]
    fn load_select_window_latches_slice() {
        let mut a = Mat::new(1, 8);
        let bits: Bitmap = (0..20).map(|i| i % 2 == 0).collect();
        a.load_select_window(&bits, 3);
        // Window [3, 11): even global indices 4, 6, 8, 10 → local 1, 3, 5, 7.
        assert_eq!(a.select().iter_ones().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
    }

    #[test]
    fn snapshot_restore_is_bit_identical_without_wear() {
        let mut a = Mat::new(1, 70);
        for row in 0..70 {
            a.write_slot(row, (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        a.inject_stuck_cell(3, 7, true);
        a.inject_stuck_cell(64, 0, false);
        a.set_select_bit(5, true); // volatile; must NOT survive restore
        let state = a.state();
        let array = Array::from_state(&state.arrays[0]).unwrap();
        let mut restored = Mat::from_state(&state, 1, 70).unwrap();
        // Durable state is bit-identical: effective reads, wear, faults.
        for row in 0..70 {
            assert_eq!(restored.read_slot(row), a.read_slot(row), "row {row}");
            assert_eq!(array.read_row(row as usize), a.read_slot(row), "row {row}");
        }
        assert_eq!(array.state(), state.arrays[0]);
        assert_eq!(array.fault_count(), 2);
        // Select latches come up cleared; restore induced no wear.
        assert_eq!(restored.selected_count(), 0);
        assert_eq!(restored.total_writes(), a.total_writes());
        // The column shadow was re-synced through the fault list.
        let all = Bitmap::ones(70);
        restored.load_select_bits(&all);
        a.load_select_bits(&all);
        for pos in 0..64u16 {
            assert_eq!(restored.sense_column(pos), a.sense_column(pos), "{pos}");
            assert_eq!(
                restored.match_vector(pos, true),
                a.match_vector(pos, true),
                "{pos}"
            );
        }
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
        let mut a = Mat::new(1, 70);
        for row in 0..70 {
            a.write_slot(row, row as u64 ^ 0xA5);
        }
        let check = |a: &Mat, ctx: &str| {
            assert_eq!(a.selected_count(), a.select().count_ones(), "{ctx}");
        };
        check(&a, "new");
        a.load_select_bits(&(0..70).map(|i| i % 2 == 0).collect());
        check(&a, "load_select_bits");
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
        let restored = Mat::from_state(&a.state(), 1, 70).unwrap();
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
