//! Scheduling-invariance properties for the parallel mat fan-out: the
//! persistent shard pool ([`rime_memristive::MatPool`] behind
//! `ParallelPolicy::Threads`), the legacy per-step `thread::scope`
//! fan-out (`ParallelPolicy::SpawnPerStep`), and `Auto` must all be
//! observationally identical to `Sequential` — same hit streams, same
//! raw bits, and bit-identical [`rime_memristive::OpCounters`] — across
//! random formats, thread counts, injected stuck-at faults, and batch
//! sizes. This is the executable form of the pool's fixed-order
//! reduction argument (wire-OR and removed-row sums are commutative
//! over disjoint shards, merged in worker order).
//!
//! Since the batched-epoch protocol (PR 7) the pool runs each descent
//! *speculatively* — workers race ahead on their local wire-OR view and
//! the controller folds their traces into the global decision sequence,
//! replaying divergent suffixes. The same properties therefore also run
//! with the force-replay knob armed (every descent takes the replay
//! path) and under adversarial shard plans (1-mat shards, maximal
//! imbalance with empty shards), pinning that speculation + replay is
//! bit-identical to `Sequential` too.
//!
//! Every property runs its range twice: at slot 0, and at an offset
//! that is neither mat- nor word-aligned and starts past mat 0, after a
//! decoy extraction on the mats before it. Host membership, select
//! windows, dirty slots and the index reduction are all indexed from
//! the span's first slot, so only the offset placement pins that
//! arithmetic; the decoy leaves stale selects and exclusion flags
//! outside the span that must not leak into it.

use proptest::prelude::*;
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, OpCounters, ParallelPolicy, SortableBits,
};

/// Slots per mat under [`geometry`] (4 arrays × 4 rows).
const SLOTS_PER_MAT: u64 = 16;

/// A geometry with `mats` narrow mats (16 slots each), so moderate key
/// counts span many mats and every policy gets real fan-out to schedule.
fn geometry(mats: u16) -> ChipGeometry {
    ChipGeometry {
        banks: 1,
        subbanks_per_bank: 1,
        mats_per_subbank: mats,
        arrays_per_mat: 4,
        rows: 4,
        cols: 64,
    }
}

/// One determinism scenario: the keys and where the range sits, the
/// faults, and what gets extracted.
struct Scenario<'a, T> {
    keys: &'a [T],
    /// Mats in the chip.
    mats: u16,
    /// First slot of the range. From the second mat on, the slots before
    /// it hold keys too and a decoy extraction runs first (see [`run`]).
    offset: u64,
    /// `(slot, bit, stuck)`; slots index the range modulo its length.
    faults: &'a [(u64, u16, bool)],
    direction: Direction,
    k: usize,
}

impl<T> Scenario<'_, T> {
    /// Mats the range spans.
    fn span(&self) -> usize {
        let first = self.offset / SLOTS_PER_MAT;
        let last = (self.offset + self.keys.len() as u64 - 1) / SLOTS_PER_MAT;
        (last - first + 1) as usize
    }
}

/// Everything a scenario run observes: the batch hits, the
/// single-extract continuation, and the chip's counters.
type Observed = (Vec<ExtractHit>, Option<ExtractHit>, OpCounters);

/// Runs `scenario` under `policy`: store, fault injection, the decoy (if
/// the range starts past mat 0), init, one batch extraction, one
/// single-extract continuation. `force_replay` bails every initial
/// speculation after that many steps (driving the fold through
/// divergence replay) and `shard_plan` pins an explicit per-worker
/// shard split for every pool lease of the range.
fn run<T: SortableBits>(
    scenario: &Scenario<'_, T>,
    policy: ParallelPolicy,
    force_replay: Option<u16>,
    shard_plan: Option<Vec<usize>>,
) -> Observed {
    let Scenario {
        keys,
        mats,
        offset,
        faults,
        direction,
        k,
    } = *scenario;
    let mut chip = Chip::new(geometry(mats));
    chip.set_parallel_policy(policy);
    chip.set_pool_force_replay(force_replay);
    let raw: Vec<u64> = keys.iter().map(|v| v.to_raw_bits()).collect();
    let len = raw.len() as u64;
    // The slots before the range hold keys as well; those in the range's
    // first mat are in its span but outside the range.
    let lead: Vec<u64> = (0..offset as usize).map(|i| raw[i % raw.len()]).collect();
    chip.store_keys(0, &lead, T::FORMAT).unwrap();
    chip.store_keys(offset, &raw, T::FORMAT).unwrap();
    for &(slot, bit, stuck) in faults {
        chip.inject_stuck_cell(offset + slot % len, bit % T::FORMAT.bits(), stuck)
            .unwrap();
    }
    // Decoy: extract from the mats wholly before the range, ending on a
    // batch so their select latches are left stale, with exclusion
    // flags set outside the range's span.
    let decoy_end = offset / SLOTS_PER_MAT * SLOTS_PER_MAT;
    if decoy_end > 0 {
        chip.init_range(0, decoy_end, T::FORMAT).unwrap();
        chip.extract(direction).unwrap();
        chip.extract_batch(direction, 3).unwrap();
    }
    chip.set_pool_shard_plan(shard_plan);
    chip.init_range(offset, offset + len, T::FORMAT).unwrap();
    let hits = chip.extract_batch(direction, k).unwrap();
    let next = chip.extract(direction).unwrap();
    (hits, next, *chip.counters())
}

/// Asserts every scheduling policy reproduces the `Sequential` oracle
/// bit for bit: hits (slots, raw bits, step counts), the single-extract
/// continuation, and all counters.
fn assert_policies_agree<T: SortableBits>(
    scenario: &Scenario<'_, T>,
    threads: usize,
) -> Result<(), TestCaseError> {
    let want = run(scenario, ParallelPolicy::Sequential, None, None);
    for policy in [
        ParallelPolicy::Threads(threads),
        ParallelPolicy::SpawnPerStep(threads),
        ParallelPolicy::Auto,
    ] {
        let got = run(scenario, policy, None, None);
        prop_assert_eq!(&got.0, &want.0, "hit stream under {:?}", policy);
        prop_assert_eq!(got.1, want.1, "continuation under {:?}", policy);
        prop_assert_eq!(got.2, want.2, "counters under {:?}", policy);
    }

    // Speculative-path adversaries: forced divergence replay at several
    // bail points, and shard plans the default chunking never produces —
    // every shard a single mat, and one worker owning the whole span
    // while the rest sit on empty shards. All must still be
    // bit-identical to the Sequential oracle.
    let span = scenario.span();
    let single_mat_shards = vec![1usize; span];
    let mut max_imbalance = vec![0usize; 3];
    max_imbalance[0] = span;
    let scenarios: [(Option<u16>, Option<Vec<usize>>); 4] = [
        (Some(0), None),
        (Some(9), None),
        (None, Some(single_mat_shards)),
        (Some(3), Some(max_imbalance)),
    ];
    for (force, plan) in scenarios {
        let label = (force, plan.clone());
        let got = run(scenario, ParallelPolicy::Threads(threads), force, plan);
        prop_assert_eq!(&got.0, &want.0, "hit stream under knobs {:?}", &label);
        prop_assert_eq!(got.1, want.1, "continuation under knobs {:?}", &label);
        prop_assert_eq!(got.2, want.2, "counters under knobs {:?}", &label);
    }
    Ok(())
}

/// Zips independently generated fault component vectors (the proptest
/// shim has no tuple strategies).
fn zip_faults(slots: &[u64], bits: &[u16], stuck: &[bool]) -> Vec<(u64, u16, bool)> {
    slots
        .iter()
        .zip(bits)
        .zip(stuck)
        .map(|((&sl, &b), &s)| (sl, b, s))
        .collect()
}

/// Checks a scenario whose range starts at slot 0, then the same
/// scenario moved to slot `lead_mats × 16 + lead_slots` (with
/// `lead_slots` in `1..16`: neither mat- nor word-aligned, first mat >
/// 0) on a chip grown to fit.
fn assert_both_placements_agree<T: SortableBits>(
    at_zero: Scenario<'_, T>,
    (lead_mats, lead_slots): (u64, u64),
    threads: usize,
) -> Result<(), TestCaseError> {
    assert_policies_agree(&at_zero, threads)?;
    let moved = Scenario {
        mats: at_zero.mats + lead_mats as u16 + 1,
        offset: lead_mats * SLOTS_PER_MAT + lead_slots,
        ..at_zero
    };
    assert_policies_agree(&moved, threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn unsigned_policies_agree(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..64, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
        threads in 2usize..6,
        max in any::<bool>(),
        lead_mats in 1u64..4,
        lead_slots in 1u64..16,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let direction = if max { Direction::Max } else { Direction::Min };
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let scenario = Scenario {
            keys: &keys,
            mats,
            offset: 0,
            faults: &faults,
            direction,
            k,
        };
        assert_both_placements_agree(scenario, (lead_mats, lead_slots), threads)?;
    }

    #[test]
    fn signed_policies_agree(
        keys in prop::collection::vec(any::<i32>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
        threads in 2usize..6,
        lead_mats in 1u64..4,
        lead_slots in 1u64..16,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let scenario = Scenario {
            keys: &keys,
            mats,
            offset: 0,
            faults: &faults,
            direction: Direction::Min,
            k,
        };
        assert_both_placements_agree(scenario, (lead_mats, lead_slots), threads)?;
    }

    #[test]
    fn float_policies_agree(
        keys in prop::collection::vec(any::<f32>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
        threads in 2usize..6,
        max in any::<bool>(),
        lead_mats in 1u64..4,
        lead_slots in 1u64..16,
    ) {
        prop_assume!(keys.len() as u64 <= u64::from(mats) * SLOTS_PER_MAT);
        let direction = if max { Direction::Max } else { Direction::Min };
        let faults = zip_faults(&fault_slots, &fault_bits, &fault_stuck);
        let scenario = Scenario {
            keys: &keys,
            mats,
            offset: 0,
            faults: &faults,
            direction,
            k,
        };
        assert_both_placements_agree(scenario, (lead_mats, lead_slots), threads)?;
    }
}

/// A wide fixed-span drain: 18 mats fully populated, drained to
/// exhaustion under every policy, with the pool reused across an
/// interleaved re-init. Deterministic (non-proptest) so it always runs
/// the wide-span pool path even if case generation trends narrow.
#[test]
fn wide_span_drain_is_policy_invariant() {
    let mats = 18u16;
    let n = u64::from(mats) * SLOTS_PER_MAT;
    let keys: Vec<u64> = (0..n).map(|i| (i * 2654435761) % 4093).collect();
    let mut reference: Option<(Vec<ExtractHit>, OpCounters)> = None;
    for policy in [
        ParallelPolicy::Sequential,
        ParallelPolicy::Threads(2),
        ParallelPolicy::Threads(5),
        ParallelPolicy::SpawnPerStep(4),
        ParallelPolicy::Auto,
    ] {
        let mut chip = Chip::new(geometry(mats));
        chip.set_parallel_policy(policy);
        chip.store_keys(0, &keys, u64::FORMAT).unwrap();
        chip.init_range(0, n, u64::FORMAT).unwrap();
        let mut hits = chip
            .extract_batch(Direction::Min, (n / 2) as usize)
            .unwrap();
        // Re-init mid-drain: the parked pool must rearm cleanly.
        chip.init_range(0, n, u64::FORMAT).unwrap();
        hits.extend(chip.extract_batch(Direction::Max, 8).unwrap());
        match &reference {
            None => reference = Some((hits, *chip.counters())),
            Some((want_hits, want_counters)) => {
                assert_eq!(&hits, want_hits, "{policy:?}");
                assert_eq!(chip.counters(), want_counters, "{policy:?}");
            }
        }
    }

    // Same drain with the speculative knobs armed: every descent bails
    // into the replay path and the lease splits 16/0/2 across three
    // workers (one near-total shard, one empty, one tiny).
    let (want_hits, want_counters) = reference.expect("reference recorded");
    let mut chip = Chip::new(geometry(mats));
    chip.set_parallel_policy(ParallelPolicy::Threads(3));
    chip.set_pool_force_replay(Some(5));
    chip.set_pool_shard_plan(Some(vec![16, 0, 2]));
    chip.store_keys(0, &keys, u64::FORMAT).unwrap();
    chip.init_range(0, n, u64::FORMAT).unwrap();
    let mut hits = chip
        .extract_batch(Direction::Min, (n / 2) as usize)
        .unwrap();
    chip.init_range(0, n, u64::FORMAT).unwrap();
    hits.extend(chip.extract_batch(Direction::Max, 8).unwrap());
    assert_eq!(hits, want_hits, "forced replay + adversarial shards");
    assert_eq!(*chip.counters(), want_counters);
}
