//! Differential properties for the bit-sliced column-search engine: the
//! mat's column-major shadow must be observationally identical to the
//! row-major scalar path it replaced (compiled here via the
//! `scalar-oracle` feature) — at mat level (`sense_column`,
//! `match_vector`, exclusions), and at chip level for whole
//! `extract_batch` runs (same slots, same raw bits, bit-identical
//! [`OpCounters`]) across formats, random select vectors, and injected
//! stuck-at faults.

use proptest::prelude::*;
use rime_memristive::{Chip, ChipGeometry, Direction, Mat, ParallelPolicy, SortableBits};

/// Mats of four 70-row arrays: every array boundary but the first falls
/// inside a select/column word, and the last word is partial.
const ARRAYS: u16 = 4;
const ROWS: u32 = 70;
const SLOTS: usize = ARRAYS as usize * ROWS as usize;

/// Builds a mat with the given slots, select pattern, and faults —
/// exercising both representations through the same public mutators.
fn loaded_mat(slots: &[u64], select: &[bool], faults: &[(usize, u16, bool)]) -> Mat {
    let mut m = Mat::new(ARRAYS, ROWS);
    for (slot, &raw) in slots.iter().enumerate() {
        m.write_slot(slot as u32, raw);
    }
    for (slot, &sel) in select.iter().enumerate() {
        m.set_select_bit(slot as u32, sel);
    }
    for &(slot, bit, stuck) in faults {
        m.inject_stuck_cell((slot % SLOTS) as u32, bit % 64, stuck);
    }
    m
}

/// A geometry with `mats` mats of 32 slots each (1 bank, 1 subbank).
fn geometry(mats: u16) -> ChipGeometry {
    ChipGeometry {
        banks: 1,
        subbanks_per_bank: 1,
        mats_per_subbank: mats,
        arrays_per_mat: 4,
        rows: 8,
        cols: 64,
    }
}

/// Two chips loaded identically — one bit-sliced, one scalar oracle —
/// with the same stuck-at faults injected into both.
fn chip_pair<T: SortableBits>(keys: &[T], mats: u16, faults: &[(u64, u16, bool)]) -> (Chip, Chip) {
    let raw: Vec<u64> = keys.iter().map(|v| v.to_raw_bits()).collect();
    let build = |scalar: bool| {
        let mut chip = Chip::new(geometry(mats));
        chip.set_scalar_oracle(scalar);
        chip.set_parallel_policy(ParallelPolicy::Sequential);
        chip.store_keys(0, &raw, T::FORMAT).unwrap();
        for &(slot, bit, stuck) in faults {
            chip.inject_stuck_cell(slot % raw.len() as u64, bit % T::FORMAT.bits(), stuck)
                .unwrap();
        }
        chip.init_range(0, raw.len() as u64, T::FORMAT).unwrap();
        chip
    };
    (build(false), build(true))
}

/// Drains both chips through `extract_batch` and asserts hits and
/// counters are bit-identical.
fn assert_chips_agree(
    mut bitsliced: Chip,
    mut scalar: Chip,
    direction: Direction,
    k: usize,
) -> Result<(), TestCaseError> {
    let a = bitsliced.extract_batch(direction, k).unwrap();
    let b = scalar.extract_batch(direction, k).unwrap();
    prop_assert_eq!(a, b, "hit streams must be identical");
    prop_assert_eq!(
        bitsliced.counters(),
        scalar.counters(),
        "OpCounters must be bit-identical"
    );
    // Single-key continuation stays in lockstep too.
    prop_assert_eq!(
        bitsliced.extract(direction).unwrap(),
        scalar.extract(direction).unwrap()
    );
    prop_assert_eq!(bitsliced.counters(), scalar.counters());
    Ok(())
}

/// Zips independently generated fault component vectors (the proptest
/// shim has no tuple strategies); the count is driven by `slots`.
fn zip_faults(slots: &[usize], bits: &[u16], stuck: &[bool]) -> Vec<(usize, u16, bool)> {
    slots
        .iter()
        .zip(bits)
        .zip(stuck)
        .map(|((&r, &b), &s)| (r, b, s))
        .collect()
}

/// Chip-level counterpart of [`zip_faults`] (global slot addresses).
fn zip_chip_faults(slots: &[u64], bits: &[u16], stuck: &[bool]) -> Vec<(u64, u16, bool)> {
    slots
        .iter()
        .zip(bits)
        .zip(stuck)
        .map(|((&sl, &b), &s)| (sl, b, s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mat_sense_and_match_agree(
        slots in prop::collection::vec(any::<u64>(), SLOTS..=SLOTS),
        select in prop::collection::vec(any::<bool>(), SLOTS..=SLOTS),
        fault_slots in prop::collection::vec(0usize..SLOTS, 0..6),
        fault_bits in prop::collection::vec(0u16..64, 6..=6),
        fault_stuck in prop::collection::vec(any::<bool>(), 6..=6),
        pos in 0u16..64,
    ) {
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let m = loaded_mat(&slots, &select, &faults);
        prop_assert_eq!(m.sense_column(pos), m.sense_column_scalar(pos));
        for keep in [false, true] {
            prop_assert_eq!(
                m.match_vector(pos, keep),
                m.match_vector_scalar(pos, keep),
                "keep = {}", keep
            );
        }
    }

    #[test]
    fn mat_exclusion_cascade_agrees(
        slots in prop::collection::vec(any::<u64>(), SLOTS..=SLOTS),
        select in prop::collection::vec(any::<bool>(), SLOTS..=SLOTS),
        fault_slots in prop::collection::vec(0usize..SLOTS, 0..4),
        fault_bits in prop::collection::vec(0u16..64, 4..=4),
        fault_stuck in prop::collection::vec(any::<bool>(), 4..=4),
        schedule_pos in prop::collection::vec(0u16..64, 1..16),
        schedule_keep in prop::collection::vec(any::<bool>(), 16..=16),
    ) {
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let schedule: Vec<(u16, bool)> = schedule_pos
            .iter()
            .copied()
            .zip(schedule_keep.iter().copied())
            .collect();
        // Apply a whole exclusion schedule through the fused bit-sliced
        // path and the scalar match+load two-step; the select vectors,
        // their counts and every sense must never diverge.
        let mut fused = loaded_mat(&slots, &select, &faults);
        let mut twostep = fused.clone();
        for &(pos, keep) in &schedule {
            prop_assert_eq!(fused.sense_column(pos), twostep.sense_column_scalar(pos));
            let removed_fused = fused.apply_exclusion(pos, keep);
            let removed_two = twostep.apply_exclusion_scalar(pos, keep);
            prop_assert_eq!(removed_fused, removed_two);
            prop_assert_eq!(fused.select(), twostep.select());
            prop_assert_eq!(fused.selected_count(), twostep.select().count_ones());
            prop_assert_eq!(fused.first_selected(), twostep.first_selected());
        }
    }

    #[test]
    fn unsigned_chip_paths_agree(
        keys in prop::collection::vec(any::<u64>(), 1..96),
        mats in 1u16..4,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..64, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..100,
        max in any::<bool>(),
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * 32);
        let direction = if max { Direction::Max } else { Direction::Min };
        let faults = zip_chip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let (bitsliced, scalar) = chip_pair(&keys, mats, &faults);
        assert_chips_agree(bitsliced, scalar, direction, k)?;
    }

    #[test]
    fn signed_chip_paths_agree(
        keys in prop::collection::vec(any::<i32>(), 1..96),
        mats in 1u16..4,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..100,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * 32);
        let faults = zip_chip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let (bitsliced, scalar) = chip_pair(&keys, mats, &faults);
        assert_chips_agree(bitsliced, scalar, Direction::Min, k)?;
    }

    #[test]
    fn float_chip_paths_agree(
        keys in prop::collection::vec(any::<f32>(), 1..96),
        mats in 1u16..4,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..100,
        max in any::<bool>(),
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * 32);
        let direction = if max { Direction::Max } else { Direction::Min };
        let faults = zip_chip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let (bitsliced, scalar) = chip_pair(&keys, mats, &faults);
        assert_chips_agree(bitsliced, scalar, direction, k)?;
    }

    #[test]
    fn fault_overlay_is_identical_through_both_paths(
        keys in prop::collection::vec(0u64..256, 4..64),
        slot in any::<u64>(),
        bit in 0u16..8,
        stuck in any::<bool>(),
    ) {
        // A fault that actually flips key bits must perturb both engines
        // the same way: drain everything and compare raw readouts.
        let (mut bitsliced, mut scalar) = chip_pair(&keys, 2, &[(slot, bit, stuck)]);
        let a = bitsliced.extract_batch(Direction::Min, keys.len() + 1).unwrap();
        let b = scalar.extract_batch(Direction::Min, keys.len() + 1).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(bitsliced.counters(), scalar.counters());
        // Both streams reflect the *faulty* values, ordered.
        let bits: Vec<u64> = a.iter().map(|h| h.raw_bits).collect();
        prop_assert!(bits.windows(2).all(|w| w[0] <= w[1]));
    }
}
