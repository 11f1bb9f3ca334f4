//! Scheduling-invariance properties for the two ways the model computes
//! a multi-mat descent: `ParallelPolicy::Auto` (the memoized engine,
//! per-mat traces folded up a tree over the span) must be
//! observationally identical to `Sequential` (the full walk) — same hit
//! streams, same raw bits, same step counts, and bit-identical
//! [`rime_memristive::OpCounters`] — across random formats, spans,
//! directions, injected stuck-at faults, and batch sizes.
//!
//! Every property runs its range twice: at slot 0, and at an offset
//! that is neither mat- nor word-aligned and starts past mat 0, after a
//! decoy extraction on the mats before it. Host membership, select
//! windows, the dirty mat and the index reduction are all indexed from
//! the span's first slot, so only the offset placement pins that
//! arithmetic; the decoy leaves stale selects and exclusion flags
//! outside the span that must not leak into it.
//!
//! The cross-call properties (`*_cross_calls_agree`) check what `Auto`
//! keeps between calls: its memo tree and each mat's resumable descent.
//! An `Auto` and a `Sequential` chip take the same random interleaving
//! of writes, inits, extractions on two ranges sharing a mat, stuck-at
//! faults, snapshots and clones, and must agree on hits and every
//! counter after every call.

use proptest::prelude::*;
use rime_memristive::{
    Chip, ChipGeometry, ChipState, Direction, ExtractHit, KeyFormat, OpCounters, ParallelPolicy,
    SortableBits,
};

/// Slots per mat under [`geometry`] (4 arrays × 4 rows).
const SLOTS_PER_MAT: u64 = 16;

/// A geometry with `mats` narrow mats (16 slots each), so moderate key
/// counts span many mats and the memo tree gets several levels.
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

/// Everything a scenario run observes: the batch hits, the
/// single-extract continuation, and the chip's counters.
type Observed = (Vec<ExtractHit>, Option<ExtractHit>, OpCounters);

/// Runs `scenario` under `policy`: store, fault injection, the decoy (if
/// the range starts past mat 0), init, one batch extraction, one
/// single-extract continuation.
fn run<T: SortableBits>(scenario: &Scenario<'_, T>, policy: ParallelPolicy) -> Observed {
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
    chip.init_range(offset, offset + len, T::FORMAT).unwrap();
    let hits = chip.extract_batch(direction, k).unwrap();
    let next = chip.extract(direction).unwrap();
    (hits, next, *chip.counters())
}

/// Asserts `Auto` reproduces the `Sequential` oracle bit for bit: hits
/// (slots, raw bits, step counts), the single-extract continuation, and
/// all counters.
fn assert_policies_agree<T: SortableBits>(scenario: &Scenario<'_, T>) -> Result<(), TestCaseError> {
    let want = run(scenario, ParallelPolicy::Sequential);
    let got = run(scenario, ParallelPolicy::Auto);
    prop_assert_eq!(&got.0, &want.0, "hit stream");
    prop_assert_eq!(got.1, want.1, "continuation");
    prop_assert_eq!(got.2, want.2, "counters");
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
) -> Result<(), TestCaseError> {
    assert_policies_agree(&at_zero)?;
    let moved = Scenario {
        mats: at_zero.mats + lead_mats as u16 + 1,
        offset: lead_mats * SLOTS_PER_MAT + lead_slots,
        ..at_zero
    };
    assert_policies_agree(&moved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn unsigned_policies_agree(
        keys in prop::collection::vec(any::<u64>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..64, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
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
        assert_both_placements_agree(scenario, (lead_mats, lead_slots))?;
    }

    #[test]
    fn signed_policies_agree(
        keys in prop::collection::vec(any::<i32>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
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
        assert_both_placements_agree(scenario, (lead_mats, lead_slots))?;
    }

    #[test]
    fn float_policies_agree(
        keys in prop::collection::vec(any::<f32>(), 1..200),
        mats in 1u16..20,
        fault_slots in prop::collection::vec(any::<u64>(), 0..5),
        fault_bits in prop::collection::vec(0u16..32, 5..=5),
        fault_stuck in prop::collection::vec(any::<bool>(), 5..=5),
        k in 0usize..32,
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
        assert_both_placements_agree(scenario, (lead_mats, lead_slots))?;
    }
}

/// A wide fixed-span drain: 18 mats fully populated, drained past half
/// under both policies, with an interleaved re-init and a change of
/// direction. Deterministic (non-proptest) so it always runs a wide
/// span even if case generation trends narrow.
#[test]
fn wide_span_drain_is_policy_invariant() {
    let mats = 18u16;
    let n = u64::from(mats) * SLOTS_PER_MAT;
    let keys: Vec<u64> = (0..n).map(|i| (i * 2654435761) % 4093).collect();
    let mut reference: Option<(Vec<ExtractHit>, OpCounters)> = None;
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Auto] {
        let mut chip = Chip::new(geometry(mats));
        chip.set_parallel_policy(policy);
        chip.store_keys(0, &keys, u64::FORMAT).unwrap();
        chip.init_range(0, n, u64::FORMAT).unwrap();
        let mut hits = chip
            .extract_batch(Direction::Min, (n / 2) as usize)
            .unwrap();
        // Re-init mid-drain: every select and exclusion flag rearms.
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
}

/// Mats in the cross-call chip.
const CROSS_MATS: u16 = 6;
/// Key slots in the cross-call chip.
const CROSS_SLOTS: u64 = CROSS_MATS as u64 * SLOTS_PER_MAT;

/// The two ranges of a cross-call case: `[a, b)` and `[b, c)`, disjoint
/// but sharing the mat that holds slot `b`.
#[derive(Debug, Clone, Copy)]
struct Ranges {
    a: u64,
    b: u64,
    c: u64,
}

impl Ranges {
    /// `a` in `0..16`; `b` off a mat boundary; `c` past `b`, within the
    /// chip.
    fn new(a: u64, first_len: u64, second_len: u64) -> Ranges {
        let mut b = a + first_len;
        if b.is_multiple_of(SLOTS_PER_MAT) {
            b += 1;
        }
        Ranges {
            a,
            b,
            c: (b + second_len).min(CROSS_SLOTS),
        }
    }
}

/// One chip call of a cross-call case.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// Store `len` keys from `slot` on, cycling the case's keys from
    /// index `from` (`len == 1`: a single-slot write).
    Store {
        slot: u64,
        len: u64,
        from: usize,
    },
    Init {
        begin: u64,
        end: u64,
    },
    /// `k: None` is a single extract. With `walk`, the `Auto` chip runs
    /// this one call under `Sequential`.
    Extract {
        begin: u64,
        end: u64,
        max: bool,
        k: Option<usize>,
        walk: bool,
    },
    Fault {
        slot: u64,
        bit: u16,
        stuck: bool,
    },
    /// Snapshot the chip; restore the last snapshot; replace the chip by
    /// its clone.
    Save,
    Restore,
    Clone,
}

impl Call {
    /// Decodes one random word into a call on `ranges`; `max` is the
    /// case's direction on the first range, the second runs the other.
    fn decode(word: u64, ranges: Ranges, keys: usize, bits: u16, max: bool) -> Call {
        let Ranges { a, b, c } = ranges;
        let arg = word >> 8;
        // One first-range extraction in eight flips direction.
        let max = max ^ (arg >> 40 & 7 == 0);
        let walk = arg >> 44 & 7 == 0;
        match word % 16 {
            0 | 1 => Call::Store {
                slot: arg % CROSS_SLOTS,
                len: 1,
                from: (arg >> 16) as usize % keys,
            },
            2 => {
                let slot = arg % CROSS_SLOTS;
                Call::Store {
                    slot,
                    len: (arg >> 8 & 31).min(CROSS_SLOTS - slot - 1) + 1,
                    from: (arg >> 16) as usize % keys,
                }
            }
            3 => Call::Init { begin: a, end: b },
            4 => {
                let begin = a + arg % (b - a);
                Call::Init {
                    begin,
                    end: begin + 1 + (arg >> 16) % (b - begin),
                }
            }
            5 | 6 => Call::Extract {
                begin: a,
                end: b,
                max,
                k: None,
                walk,
            },
            7..=9 => Call::Extract {
                begin: a,
                end: b,
                max,
                k: Some((arg % 40) as usize),
                walk,
            },
            10 => Call::Extract {
                begin: b,
                end: c,
                max: !max,
                k: Some((arg % 8) as usize),
                walk,
            },
            11 => Call::Init { begin: b, end: c },
            // Half the faults hit one of a key's top six bits, where they
            // move its rank.
            12 => Call::Fault {
                slot: a + arg % (c - a),
                bit: if arg >> 24 & 1 == 1 {
                    bits - 1 - (arg >> 16) as u16 % 6
                } else {
                    (arg >> 16) as u16 % bits
                },
                stuck: arg >> 32 & 1 == 1,
            },
            13 => Call::Save,
            14 => Call::Restore,
            _ => Call::Clone,
        }
    }
}

/// One side of a cross-call case: a chip under one policy and its last
/// snapshot.
struct Side {
    chip: Chip,
    policy: ParallelPolicy,
    saved: Option<ChipState>,
}

impl Side {
    /// Runs `call`; returns its hits (none for a call that extracts none).
    fn apply(&mut self, call: Call, raw: &[u64], format: KeyFormat) -> Vec<ExtractHit> {
        let chip = &mut self.chip;
        match call {
            Call::Store { slot, len, from } => {
                let keys: Vec<u64> = (0..len as usize)
                    .map(|i| raw[(from + i) % raw.len()])
                    .collect();
                chip.store_keys(slot, &keys, format).unwrap();
            }
            Call::Init { begin, end } => chip.init_range(begin, end, format).unwrap(),
            Call::Extract {
                begin,
                end,
                max,
                k,
                walk,
            } => {
                let direction = if max { Direction::Max } else { Direction::Min };
                if walk {
                    chip.set_parallel_policy(ParallelPolicy::Sequential);
                }
                let hits = match k {
                    None => chip
                        .extract_range(begin, end, format, direction)
                        .unwrap()
                        .into_iter()
                        .collect(),
                    Some(k) => chip
                        .extract_range_batch(begin, end, format, direction, k)
                        .unwrap(),
                };
                chip.set_parallel_policy(self.policy);
                return hits;
            }
            Call::Fault { slot, bit, stuck } => chip.inject_stuck_cell(slot, bit, stuck).unwrap(),
            Call::Save => self.saved = Some(chip.state()),
            Call::Restore => {
                if let Some(state) = &self.saved {
                    assert!(chip.restore_state(state));
                }
            }
            Call::Clone => *chip = chip.clone(),
        }
        Vec::new()
    }
}

/// The cross-call property: a chip under `Auto` and one under
/// `Sequential` take the same random interleaving of writes, inits,
/// extractions on two ranges sharing a mat, faults, snapshots and
/// clones; after every call their hits and every `OpCounters` field are
/// equal. `Auto` keeps its memo tree across these calls, so a stale leaf
/// or a wrong resume shows up as a differing hit or count.
fn assert_cross_calls_agree<T: SortableBits>(
    keys: &[T],
    words: &[u64],
    ranges: Ranges,
    max: bool,
) -> Result<(), TestCaseError> {
    let raw: Vec<u64> = keys.iter().map(|k| k.to_raw_bits()).collect();
    let format = T::FORMAT;
    let mut sides = [ParallelPolicy::Sequential, ParallelPolicy::Auto].map(|policy| {
        let mut chip = Chip::new(geometry(CROSS_MATS));
        chip.set_parallel_policy(policy);
        let fill: Vec<u64> = (0..CROSS_SLOTS as usize)
            .map(|i| raw[i % raw.len()])
            .collect();
        chip.store_keys(0, &fill, format).unwrap();
        chip.init_range(ranges.a, ranges.b, format).unwrap();
        Side {
            chip,
            policy,
            saved: None,
        }
    });
    for (i, &word) in words.iter().enumerate() {
        let call = Call::decode(word, ranges, raw.len(), format.bits(), max);
        let [want, got] = sides.each_mut().map(|side| side.apply(call, &raw, format));
        prop_assert_eq!(&got, &want, "call {} {:?}: hits", i, call);
        prop_assert_eq!(
            sides[1].chip.counters(),
            sides[0].chip.counters(),
            "call {} {:?}: counters",
            i,
            call
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unsigned_cross_calls_agree(
        keys in prop::collection::vec(any::<u64>(), 1..24),
        words in prop::collection::vec(any::<u64>(), 1..80),
        a in 0u64..16,
        first_len in 2u64..70,
        second_len in 1u64..24,
        max in any::<bool>(),
    ) {
        assert_cross_calls_agree(&keys, &words, Ranges::new(a, first_len, second_len), max)?;
    }

    #[test]
    fn signed_cross_calls_agree(
        keys in prop::collection::vec(any::<i32>(), 1..24),
        words in prop::collection::vec(any::<u64>(), 1..80),
        a in 0u64..16,
        first_len in 2u64..70,
        second_len in 1u64..24,
        max in any::<bool>(),
    ) {
        assert_cross_calls_agree(&keys, &words, Ranges::new(a, first_len, second_len), max)?;
    }

    #[test]
    fn float_cross_calls_agree(
        keys in prop::collection::vec(any::<f32>(), 1..24),
        words in prop::collection::vec(any::<u64>(), 1..80),
        a in 0u64..16,
        first_len in 2u64..70,
        second_len in 1u64..24,
        max in any::<bool>(),
    ) {
        assert_cross_calls_agree(&keys, &words, Ranges::new(a, first_len, second_len), max)?;
    }
}
