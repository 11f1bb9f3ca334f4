//! Differential properties for the batched extraction engine: for every
//! key format, geometry, and direction, `extract_batch(k)` must be
//! observationally identical to `k` sequential `extract` calls — same
//! slots, same raw bits, same stable tie-breaking, and identical
//! [`OpCounters`] — under both `ParallelPolicy::Sequential` (the full
//! walk) and `ParallelPolicy::Auto` (the memoized engine), with the
//! range at slot 0 and at an offset that is neither mat- nor
//! word-aligned and starts past mat 0. One deterministic case also runs
//! `Auto` against `Sequential` on a Table I chip over a wide offset span
//! with ties and a stuck-at cell.

use proptest::prelude::*;
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, KeyFormat, OpCounters, ParallelPolicy, SortableBits,
};

/// Slots per mat under [`geometry`] (4 arrays × 8 rows).
const SLOTS_PER_MAT: u64 = 32;

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

/// A chip holding `raw` from slot `offset` on, with `[offset, offset +
/// len)` initialized. The slots before the range hold keys too, so the
/// range's first mat also stores keys outside it.
fn loaded_chip(
    raw: &[u64],
    format: KeyFormat,
    mats: u16,
    offset: u64,
    policy: ParallelPolicy,
) -> Chip {
    let mut chip = Chip::new(geometry(mats));
    chip.set_parallel_policy(policy);
    let lead: Vec<u64> = (0..offset as usize).map(|i| raw[i % raw.len()]).collect();
    chip.store_keys(0, &lead, format).unwrap();
    chip.store_keys(offset, raw, format).unwrap();
    chip.init_range(offset, offset + raw.len() as u64, format)
        .unwrap();
    chip
}

/// Drains up to `k` hits through single-key extraction, stopping at the
/// first exhausted probe — the contract `extract_batch` replicates.
fn sequential_reference(chip: &mut Chip, direction: Direction, k: usize) -> Vec<ExtractHit> {
    let mut out = Vec::new();
    for _ in 0..k {
        match chip.extract(direction).unwrap() {
            Some(hit) => out.push(hit),
            None => break,
        }
    }
    out
}

/// The expected (slot, raw_bits) sequence from a pure software model of
/// a range starting at `offset`: keys ordered by the format's
/// comparison, ties by lowest slot.
fn software_reference(
    raw: &[u64],
    offset: u64,
    format: KeyFormat,
    direction: Direction,
    k: usize,
) -> Vec<(u64, u64)> {
    let mut order: Vec<(u64, u64)> = raw
        .iter()
        .enumerate()
        .map(|(slot, &bits)| (offset + slot as u64, bits))
        .collect();
    order.sort_by(|a, b| {
        let cmp = format.compare_bits(a.1, b.1);
        let cmp = match direction {
            Direction::Min => cmp,
            Direction::Max => cmp.reverse(),
        };
        cmp.then(a.0.cmp(&b.0))
    });
    order.truncate(k);
    order
}

/// Runs the full differential check for one key set, batched under both
/// policies against a `Sequential` single-extract drain, first with the
/// range at slot 0 on `mats` mats, then at slot `lead_mats × 32 +
/// lead_slots` (`lead_slots` in `1..32`) on a chip grown to fit. Returns
/// the batch and sequential counter snapshots of each placement and
/// policy for the caller's assertions.
fn check<T: SortableBits>(
    keys: &[T],
    mats: u16,
    (lead_mats, lead_slots): (u64, u64),
    k: usize,
    direction: Direction,
) -> Vec<(OpCounters, OpCounters)> {
    let raw: Vec<u64> = keys.iter().map(|v| v.to_raw_bits()).collect();
    let placements = [
        (mats, 0),
        (
            mats + lead_mats as u16 + 1,
            lead_mats * SLOTS_PER_MAT + lead_slots,
        ),
    ];
    let mut counters = Vec::new();
    for (mats, offset) in placements {
        let mut seq_chip = loaded_chip(&raw, T::FORMAT, mats, offset, ParallelPolicy::Sequential);
        let seq = sequential_reference(&mut seq_chip, direction, k);
        let soft = software_reference(&raw, offset, T::FORMAT, direction, k);
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::Auto] {
            let mut batch_chip = loaded_chip(&raw, T::FORMAT, mats, offset, policy);
            let batch = batch_chip.extract_batch(direction, k).unwrap();
            assert_eq!(
                batch, seq,
                "batch under {policy:?} must equal the sequential drain at {offset}"
            );
            let got: Vec<(u64, u64)> = batch.iter().map(|h| (h.slot, h.raw_bits)).collect();
            assert_eq!(
                got, soft,
                "stable order with lowest-slot tie-break under {policy:?} at {offset}"
            );
            counters.push((*batch_chip.counters(), *seq_chip.counters()));
        }
    }
    counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unsigned_batch_equals_sequential(
        keys in prop::collection::vec(any::<u64>(), 1..96),
        mats in 1u16..4,
        k in 0usize..100,
        max in any::<bool>(),
        lead_mats in 1u64..3,
        lead_slots in 1u64..32,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let direction = if max { Direction::Max } else { Direction::Min };
        let lead = (lead_mats, lead_slots);
        for (bc, sc) in check(&keys, mats, lead, k, direction) {
            prop_assert_eq!(bc, sc, "OpCounters must be identical");
        }
    }

    #[test]
    fn signed_batch_equals_sequential(
        keys in prop::collection::vec(any::<i32>(), 1..96),
        mats in 1u16..4,
        k in 0usize..100,
        lead_mats in 1u64..3,
        lead_slots in 1u64..32,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let lead = (lead_mats, lead_slots);
        for (bc, sc) in check(&keys, mats, lead, k, Direction::Min) {
            prop_assert_eq!(bc, sc, "OpCounters must be identical");
        }
    }

    #[test]
    fn float_batch_equals_sequential(
        keys in prop::collection::vec(any::<f32>(), 1..96),
        mats in 1u16..4,
        k in 0usize..100,
        max in any::<bool>(),
        lead_mats in 1u64..3,
        lead_slots in 1u64..32,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let direction = if max { Direction::Max } else { Direction::Min };
        let lead = (lead_mats, lead_slots);
        for (bc, sc) in check(&keys, mats, lead, k, direction) {
            prop_assert_eq!(bc, sc, "OpCounters must be identical");
        }
    }

    #[test]
    fn duplicate_heavy_keys_keep_stable_ties(
        keys in prop::collection::vec(0u64..4, 1..96),
        mats in 1u16..4,
        k in 0usize..100,
        lead_mats in 1u64..3,
        lead_slots in 1u64..32,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        // `check` already asserts slots come out lowest-address-first
        // among ties via the software reference.
        let lead = (lead_mats, lead_slots);
        for (bc, sc) in check(&keys, mats, lead, k, Direction::Min) {
            prop_assert_eq!(bc, sc, "OpCounters must be identical");
        }
    }

    #[test]
    fn single_mat_geometry_works(
        keys in prop::collection::vec(any::<u32>(), 1..32),
        k in 0usize..40,
        lead_mats in 1u64..3,
        lead_slots in 1u64..32,
    ) {
        let lead = (lead_mats, lead_slots);
        for (bc, sc) in check(&keys, 1, lead, k, Direction::Min) {
            prop_assert_eq!(bc, sc, "OpCounters must be identical");
        }
    }

    #[test]
    fn resuming_after_a_batch_continues_the_stream(
        keys in prop::collection::vec(any::<u64>(), 2..64),
        split in 1usize..63,
    ) {
        prop_assume!(split < keys.len());
        let raw: Vec<u64> = keys.clone();
        let mut chip = loaded_chip(&raw, KeyFormat::UNSIGNED64, 2, 0, ParallelPolicy::Auto);
        let mut hits = chip.extract_batch(Direction::Min, split).unwrap();
        // Finish with single-key extraction: the exclusion flags persist.
        while let Some(hit) = chip.extract(Direction::Min).unwrap() {
            hits.push(hit);
        }
        let soft = software_reference(&raw, 0, KeyFormat::UNSIGNED64, Direction::Min, keys.len());
        let got: Vec<(u64, u64)> = hits.iter().map(|h| (h.slot, h.raw_bits)).collect();
        prop_assert_eq!(got, soft);
    }
}

/// Auto against Sequential on a Table I chip: a range that starts 300
/// slots into mat 5 and spans 34 mats, holding four distinct keys (so
/// descents end in ties, not one survivor) and one stuck-at cell, is
/// drained by several 256-key batches and then from the other end. Each
/// batch is a fresh memo cache; hits and every counter must match.
#[test]
fn table1_wide_offset_span_with_ties_and_a_fault_matches_sequential() {
    let geometry = ChipGeometry::table1();
    let per_mat = geometry.slots_per_mat();
    let begin = 5 * per_mat + 300;
    let end = begin + 33 * per_mat;
    let classes = [
        0x0123_4567_89ab_cdef_u64,
        0x0123_4567_0000_0000,
        0x7edc_ba98_7654_3210,
        7,
    ];
    let keys: Vec<u64> = (0..end - begin)
        .map(|i| classes[(i.wrapping_mul(2_654_435_761) >> 7) as usize % classes.len()])
        .collect();
    // A stuck-at-1 MSB makes this key larger than every class.
    let stuck = begin + 2 * per_mat + 17;
    let run = |policy: ParallelPolicy| {
        let mut chip = Chip::new(geometry);
        chip.set_parallel_policy(policy);
        chip.store_keys(begin, &keys, KeyFormat::UNSIGNED64)
            .unwrap();
        chip.inject_stuck_cell(stuck, 63, true).unwrap();
        chip.init_range(begin, end, KeyFormat::UNSIGNED64).unwrap();
        let mut hits = Vec::new();
        for _ in 0..3 {
            hits.extend(chip.extract_batch(Direction::Min, 256).unwrap());
        }
        hits.extend(chip.extract_batch(Direction::Max, 256).unwrap());
        (hits, *chip.counters())
    };
    let (want_hits, want_counters) = run(ParallelPolicy::Sequential);
    assert_eq!(want_hits.len(), 1024);
    assert_eq!(
        want_hits[768].slot, stuck,
        "the fault decides the first max"
    );
    let (hits, counters) = run(ParallelPolicy::Auto);
    assert_eq!(hits, want_hits);
    assert_eq!(counters, want_counters);
}
