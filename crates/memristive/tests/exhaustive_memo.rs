//! Exhaustive small-scope check of the memo engine across calls.
//!
//! `ParallelPolicy::Auto` keeps a resumable descent per span mat and a
//! merged trace per tree node across calls (`memo.rs`); its exactness
//! rests on an argument, and random tests have missed planted defects.
//! This suite enumerates, on tiny geometries, every key assignment, every
//! range `[a, b)` and every call sequence up to a depth over a small
//! alphabet, and after every call compares an `Auto` chip with a
//! `Sequential` one: hits (slot, raw bits, steps), every `OpCounters`
//! field and `remaining()`, and at each checkpoint the `ChipState`s.
//!
//! The alphabet ([`Call`]): extract 1, 2 or all keys of `[a, b)` in
//! either direction; extract one minimum by the sequential walk on
//! either chip, so the memo engine must notice flags it did not set;
//! write slot `b - 1` (its varied bits flipped); a
//! stuck-at fault on slot `a`'s top varied bit, opposite to its stored
//! value; re-init `[a + 1, b)` (or `[a, b)` for one slot), which clears
//! flags under a range the next extraction keeps; `state` then
//! `restore_state`. Extractions name `[a, b)` explicitly, so the memo tree
//! stays keyed to it across re-inits, writes and faults.
//!
//! Sequences are explored depth-first: each prefix runs once, and every
//! continuation starts from clones of the two chips after it, so a case
//! costs one call per tree node rather than one chip per sequence.
//!
//! The CI scope ([`ci_scopes`]) takes about a minute in a debug build.
//! `RIME_EXHAUSTIVE=full` runs the larger scopes of [`full_scopes`]
//! (about 250 M calls per policy, 18 minutes in a release build on a
//! 2-vCPU host):
//!
//! ```text
//! RIME_EXHAUSTIVE=full cargo test --release -p rime-memristive --test exhaustive_memo
//! ```

use rime_memristive::{Chip, ChipGeometry, Direction, ExtractHit, KeyFormat, ParallelPolicy};

/// A key format and the values each slot takes: value `v` (in
/// `0..1 << varied.len()`) sets bit `varied[i]` of `base` when bit `i` of
/// `v` is set.
#[derive(Clone, Copy)]
struct Keys {
    format: KeyFormat,
    base: u64,
    varied: &'static [u16],
}

impl Keys {
    fn unsigned(bits: u16) -> Keys {
        Keys {
            format: KeyFormat::unsigned_fixed(bits, 0),
            base: 0,
            varied: &[0, 1, 2][..bits as usize],
        }
    }

    fn signed(bits: u16) -> Keys {
        Keys {
            format: KeyFormat::signed_fixed(bits, 0),
            base: 0,
            varied: &[0, 1, 2][..bits as usize],
        }
    }

    /// 2-bit unsigned keys that differ only in their top bit: every
    /// exclusion falls on the first step, so a mat of many rows keeps
    /// large splits and ties as select words (see `memo.rs`).
    fn top_bit() -> Keys {
        Keys {
            format: KeyFormat::unsigned_fixed(2, 0),
            base: 0,
            varied: &[1],
        }
    }

    /// 1.5f32 with its sign, top exponent bit and lowest mantissa bit
    /// varied: ±1.5, ±1.5 + ulp, ±2^128-scale patterns (NaN-free: the
    /// exponent never reaches all ones).
    fn float() -> Keys {
        Keys {
            format: KeyFormat::FLOAT32,
            base: 0x3fc0_0000,
            varied: &[0, 30, 31],
        }
    }

    fn values(&self) -> u64 {
        1 << self.varied.len()
    }

    fn raw(&self, value: u64) -> u64 {
        let mut raw = self.base;
        for (i, &bit) in self.varied.iter().enumerate() {
            raw = raw & !(1 << bit) | (value >> i & 1) << bit;
        }
        raw
    }

    /// The bits a write flips and the bit a fault sticks.
    fn flip(&self) -> u64 {
        self.varied.iter().fold(0, |mask, &bit| mask | 1 << bit)
    }

    fn top(&self) -> u16 {
        *self.varied.last().expect("at least one varied bit")
    }
}

/// One exhaustive scope: a chip of `mats` mats of `slots` rows (one
/// array), every assignment of `keys` to its slots, every range, and
/// every call sequence up to `depth`.
struct Scope {
    mats: u16,
    slots: u32,
    keys: Keys,
    depth: usize,
}

/// The alphabet (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Call {
    Extract { k: usize, max: bool },
    Walk,
    Write,
    Stuck,
    Reinit,
    Checkpoint,
}

const ALPHABET: [Call; 11] = [
    Call::Extract { k: 1, max: false },
    Call::Extract { k: 1, max: true },
    Call::Extract { k: 2, max: false },
    Call::Extract { k: 2, max: true },
    Call::Extract {
        k: usize::MAX,
        max: false,
    },
    Call::Extract {
        k: usize::MAX,
        max: true,
    },
    Call::Walk,
    Call::Write,
    Call::Stuck,
    Call::Reinit,
    Call::Checkpoint,
];

/// What one case knows: the scope's keys, the range, and slot `a`'s
/// stored key.
struct Case<'a> {
    keys: &'a Keys,
    range: (u64, u64),
    first: u64,
}

impl Case<'_> {
    /// Runs `call` on `chip`: the hits of an extraction, else none.
    fn apply(&self, chip: &mut Chip, call: Call) -> Vec<ExtractHit> {
        let (a, b) = self.range;
        let format = self.keys.format;
        match call {
            Call::Extract { k, max } => {
                let direction = if max { Direction::Max } else { Direction::Min };
                if k == 1 {
                    let hit = chip.extract_range(a, b, format, direction).unwrap();
                    return hit.into_iter().collect();
                }
                let k = k.min((b - a + 1) as usize);
                return chip
                    .extract_range_batch(a, b, format, direction, k)
                    .unwrap();
            }
            Call::Walk => {
                let policy = chip.parallel_policy();
                chip.set_parallel_policy(ParallelPolicy::Sequential);
                let hit = chip.extract_range(a, b, format, Direction::Min).unwrap();
                chip.set_parallel_policy(policy);
                return hit.into_iter().collect();
            }
            Call::Write => {
                let slot = b - 1;
                let old = chip.read_key(slot).unwrap();
                chip.store_keys(slot, &[old ^ self.keys.flip()], format)
                    .unwrap();
            }
            Call::Stuck => {
                let top = self.keys.top();
                chip.inject_stuck_cell(a, top, self.first >> top & 1 == 0)
                    .unwrap();
            }
            Call::Reinit => {
                let lo = if b - a > 1 { a + 1 } else { a };
                chip.init_range(lo, b, format).unwrap();
            }
            Call::Checkpoint => {
                let state = chip.state();
                assert!(chip.restore_state(&state));
            }
        }
        Vec::new()
    }
}

/// The calls tried at a node with `depth` calls left: the whole alphabet,
/// but only the two full drains last. A last write, fault, re-init or
/// checkpoint is observed by nothing after it, and a full drain's first
/// keys are what a 1- or 2-key extraction in its direction returns.
fn calls(depth: usize) -> &'static [Call] {
    if depth > 1 {
        &ALPHABET
    } else {
        &ALPHABET[4..6]
    }
}

/// Runs every continuation of `trail` up to `depth` more calls from
/// `auto` and `sequential` (clones of them, the last continuation
/// excepted), comparing after every call. Returns the calls run.
fn explore(
    case: &Case<'_>,
    auto: Chip,
    sequential: Chip,
    depth: usize,
    trail: &mut Vec<Call>,
) -> u64 {
    let calls = calls(depth);
    let mut chips = Some((auto, sequential));
    let mut run = 0;
    for (i, &call) in calls.iter().enumerate() {
        let (mut a, mut s) = if i + 1 == calls.len() {
            chips.take().expect("the last continuation takes the chips")
        } else {
            let (a, s) = chips.as_ref().expect("chips until the last continuation");
            (a.clone(), s.clone())
        };
        let got = case.apply(&mut a, call);
        let want = case.apply(&mut s, call);
        trail.push(call);
        let at = || format!("range {:?}, calls {trail:?}", case.range);
        assert_eq!(got, want, "hits after {}", at());
        assert_eq!(a.counters(), s.counters(), "counters after {}", at());
        assert_eq!(a.remaining(), s.remaining(), "remaining after {}", at());
        if matches!(call, Call::Checkpoint) {
            assert_eq!(a.state(), s.state(), "checkpoint after {}", at());
        }
        run += 1;
        if depth > 1 {
            run += explore(case, a, s, depth - 1, trail);
        }
        trail.pop();
    }
    run
}

/// Runs `scope` in full; returns the calls run.
fn run(scope: &Scope) -> u64 {
    let geometry = ChipGeometry {
        banks: 1,
        subbanks_per_bank: 1,
        mats_per_subbank: scope.mats,
        arrays_per_mat: 1,
        rows: scope.slots,
        cols: 64,
    };
    let slots = geometry.capacity_slots() as usize;
    let keys = &scope.keys;
    let mut auto = Chip::new(geometry);
    let mut sequential = Chip::new(geometry);
    sequential.set_parallel_policy(ParallelPolicy::Sequential);
    let blank = auto.state();
    let mut calls = 0;
    // Slots outside the range hold a filler that would win in one
    // direction or the other if it leaked into the range.
    let filler = |slot: usize| {
        keys.raw(if slot.is_multiple_of(2) {
            0
        } else {
            keys.values() - 1
        })
    };
    for a in 0..slots {
        for b in a + 1..=slots {
            let mut raw: Vec<u64> = (0..slots).map(filler).collect();
            for assignment in 0..keys.values().pow((b - a) as u32) {
                let mut rest = assignment;
                for key in &mut raw[a..b] {
                    *key = keys.raw(rest % keys.values());
                    rest /= keys.values();
                }
                let case = Case {
                    keys,
                    range: (a as u64, b as u64),
                    first: raw[a],
                };
                for chip in [&mut auto, &mut sequential] {
                    assert!(chip.restore_state(&blank));
                    chip.store_keys(0, &raw, keys.format).unwrap();
                    chip.init_range(a as u64, b as u64, keys.format).unwrap();
                }
                let mut trail = Vec::new();
                let explored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    explore(
                        &case,
                        auto.clone(),
                        sequential.clone(),
                        scope.depth,
                        &mut trail,
                    )
                }));
                match explored {
                    Ok(n) => calls += n,
                    Err(panic) => {
                        eprintln!("failing case: keys {raw:x?}, range {a}..{b}");
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
    }
    calls
}

/// The scopes CI runs (about a minute in a debug build).
fn ci_scopes() -> Vec<Scope> {
    vec![
        scope(2, 2, Keys::unsigned(3), 3),
        scope(2, 2, Keys::signed(3), 2),
        scope(2, 2, Keys::float(), 2),
        scope(4, 1, Keys::unsigned(2), 3),
        scope(4, 1, Keys::signed(2), 3),
        scope(3, 2, Keys::signed(2), 2),
        scope(1, 6, Keys::unsigned(2), 2),
        // More rows than a leaf keeps as pairs: select-word splits and ties.
        scope(1, 12, Keys::top_bit(), 2),
    ]
}

/// The larger scopes `RIME_EXHAUSTIVE=full` adds.
fn full_scopes() -> Vec<Scope> {
    vec![
        scope(2, 2, Keys::unsigned(3), 4),
        scope(2, 2, Keys::signed(3), 4),
        scope(2, 2, Keys::float(), 3),
        scope(4, 2, Keys::signed(2), 2),
        scope(1, 10, Keys::unsigned(2), 2),
        scope(2, 10, Keys::top_bit(), 2),
    ]
}

fn scope(mats: u16, slots: u32, keys: Keys, depth: usize) -> Scope {
    Scope {
        mats,
        slots,
        keys,
        depth,
    }
}

#[test]
fn auto_equals_sequential_in_every_small_case() {
    let full = std::env::var("RIME_EXHAUSTIVE").is_ok_and(|v| v == "full");
    let mut scopes = ci_scopes();
    if full {
        scopes.extend(full_scopes());
    }
    for scope in &scopes {
        let t = std::time::Instant::now();
        let calls = run(scope);
        eprintln!(
            "{} mats × {} rows, {} {}-value keys, depth {}: {calls} calls per policy in {:.1?}",
            scope.mats,
            scope.slots,
            scope.keys.format.name(),
            scope.keys.values(),
            scope.depth,
            t.elapsed()
        );
    }
}
