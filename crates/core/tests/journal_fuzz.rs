//! Fuzzes the journal decoders: `journal::scan`, `Executor::recover` and
//! `Executor::replay` must return `Ok` or a typed error for any journal
//! whose records all pass their checksums, and never panic; recovery's
//! errors must come from the journal layer. A recovered device must then
//! survive one read and one extraction per live region.
//!
//! Inputs start from a recorded journal that holds every command kind,
//! failed commands, and checkpoints taken while a two-chip session still
//! buffers candidates. One record's body is mutated — bit flips, a
//! truncation, or a `u32`/`u64` field inflated — and re-framed with
//! valid checksums, so the mutation reaches the record and checkpoint
//! decoders instead of stopping at the CRC. For a checkpoint, the
//! mutation usually lands in the state blob, whose length prefix is
//! then fixed up to match.

use std::sync::OnceLock;

use proptest::prelude::*;
use rime_core::{
    journal, Direction, DriverConfig, Executor, JournalConfig, KeyFormat, MemJournalStore,
    RimeConfig, RimeDevice, RimeError,
};
use rime_memristive::{ArrayTiming, ChipGeometry};

const U64: KeyFormat = KeyFormat::UNSIGNED64;

/// Four chips of 64 slots each.
fn config() -> RimeConfig {
    RimeConfig {
        channels: 2,
        chips_per_channel: 2,
        chip_geometry: ChipGeometry::tiny(),
        timing: ArrayTiming::table1(),
        driver: DriverConfig::default(),
    }
}

/// A journal of every command kind, successful and failed, with
/// checkpoints before, during and after a two-chip drain. Few keys are
/// written, so the chips' snapshots do not swamp a checkpoint's tables.
fn recorded() -> Vec<u8> {
    let dev = RimeDevice::new(config());
    let store = MemJournalStore::new();
    dev.attach_journal(
        Box::new(store.clone()),
        JournalConfig {
            checkpoint_every: 5,
        },
    )
    .unwrap();
    let pad = dev.alloc(56).unwrap();
    let a = dev.alloc(16).unwrap(); // slots 56..72: chips 0 and 1
    let b = dev.alloc(10).unwrap();
    let keys: Vec<u64> = (0..16).map(|i| (i * 37) % 17).collect();
    dev.write_raw(a, 0, &keys, U64).unwrap();
    dev.write(b, 0, &[3i32, -1, 4, -1, 5, -9, 2, 6, -5, 3])
        .unwrap();
    dev.read_raw(a, 10, 5).unwrap();
    dev.init_raw(a, 0, 16, U64).unwrap();
    dev.init::<i32>(b, 2, 6).unwrap();
    dev.init::<u64>(pad, 0, 56).unwrap();
    dev.next_extremes_raw(a, U64, Direction::Min, 3).unwrap();
    dev.checkpoint_now().unwrap(); // chip 0's candidates still buffered
    dev.fifo_next_raw(a).unwrap();
    dev.next_extreme_raw(a, U64, Direction::Min).unwrap();
    dev.rime_max::<i32>(b).unwrap();
    dev.checkpoint_now().unwrap();
    dev.next_extremes_raw(a, U64, Direction::Max, 2).unwrap();
    dev.rime_min::<f32>(a).unwrap_err();
    dev.read_raw(a, 99, 5).unwrap_err();
    let c = dev.alloc(8).unwrap();
    dev.free(c).unwrap();
    dev.free(c).unwrap_err();
    dev.fifo_next_raw(a).unwrap();
    dev.rime_min_k::<i32>(b, 2).unwrap();
    store.snapshot()
}

/// CRC-32 (IEEE, reflected), as the journal frames records.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Splits a journal image into its magic and record payloads
/// (`[kind][body]`).
fn records(image: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let word = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
    let mut payloads = Vec::new();
    let mut pos = 8;
    while pos < image.len() {
        let len = word(pos);
        payloads.push(image[pos + 8..pos + 8 + len].to_vec());
        pos += 8 + len + 4;
    }
    (image[..8].to_vec(), payloads)
}

/// Frames payloads back into a journal image with valid checksums.
fn frame(magic: &[u8], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut image = magic.to_vec();
    for payload in payloads {
        let len = (payload.len() as u32).to_le_bytes();
        image.extend_from_slice(&len);
        image.extend_from_slice(&crc32(&len).to_le_bytes());
        image.extend_from_slice(payload);
        image.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    image
}

const KIND_CHECKPOINT: u8 = 3;

/// One edit of a record body. A position is taken modulo the smaller of
/// the body's length and the edit's window, so short windows aim at the
/// front of a body: a checkpoint's allocator, region and session tables.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// XOR one byte with a nonzero mask.
    Flip { at: usize, mask: u8 },
    /// Cut the body at the position.
    Cut { at: usize },
    /// Add `by` to the little-endian `u32` (or `u64`, when `wide`) at
    /// the position, wrapping.
    Inflate { at: usize, wide: bool, by: u64 },
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let at = || {
        let window = prop_oneof![Just(64usize), Just(512), Just(usize::MAX)];
        (any::<usize>(), window).prop_map(|(at, window)| at % window)
    };
    let flip = (at(), 1u8..=255).prop_map(|(at, mask)| Edit::Flip { at, mask });
    // Small steps and jumps to near the top of a `u32` or `u64`, so sums
    // with the field wrap.
    let by = prop_oneof![
        1u64..8,
        Just(1 << 28),
        (0u64..8).prop_map(|d| u64::from(u32::MAX) - d),
        (0u64..8).prop_map(|d| u64::MAX - d),
        any::<u64>()
    ];
    let inflate =
        (at(), any::<bool>(), by).prop_map(|(at, wide, by)| Edit::Inflate { at, wide, by });
    let edit = prop_oneof![flip, inflate, at().prop_map(|at| Edit::Cut { at })];
    prop::collection::vec(edit, 1..4)
}

fn apply(body: &mut Vec<u8>, edits: &[Edit]) {
    for &edit in edits {
        if body.is_empty() {
            return;
        }
        match edit {
            Edit::Flip { at, mask } => {
                let at = at % body.len();
                body[at] ^= mask;
            }
            Edit::Cut { at } => body.truncate(at % body.len()),
            Edit::Inflate { at, wide, by } => {
                let width = if wide { 8 } else { 4 };
                if body.len() < width {
                    continue;
                }
                let at = at % (body.len() - width + 1);
                let mut word = [0u8; 8];
                word[..width].copy_from_slice(&body[at..at + width]);
                let value = u64::from_le_bytes(word).wrapping_add(by);
                body[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
        }
    }
}

/// Mutates one record of `image`: the newest checkpoint, which recovery
/// loads, when `checkpoint` is set, else the `pick`th record. A
/// checkpoint's state blob (past its `committed` and length words) takes
/// the edits when `in_state` is set.
fn mutate(image: &[u8], pick: usize, checkpoint: bool, in_state: bool, edits: &[Edit]) -> Vec<u8> {
    let (magic, mut payloads) = records(image);
    let pick = if checkpoint {
        let newest = payloads.iter().rposition(|p| p[0] == KIND_CHECKPOINT);
        newest.expect("the journal holds checkpoints")
    } else {
        pick % payloads.len()
    };
    let payload = &mut payloads[pick];
    if payload[0] == KIND_CHECKPOINT && in_state {
        let mut state = payload[13..].to_vec();
        apply(&mut state, edits);
        payload.truncate(9);
        payload.extend_from_slice(&(state.len() as u32).to_le_bytes());
        payload.extend_from_slice(&state);
    } else {
        let mut body = payload[1..].to_vec();
        apply(&mut body, edits);
        payload.truncate(1);
        payload.extend_from_slice(&body);
    }
    frame(&magic, &payloads)
}

/// Runs every decoder over `image`; a panic, or a recovery error from
/// outside the journal layer, fails the case. Returns whether recovery
/// succeeded.
fn exercise(image: &[u8]) -> bool {
    let _ = journal::scan(image);
    let _ = Executor::replay(config(), image);
    let store = MemJournalStore::from_bytes(image.to_vec());
    let dev = match Executor::recover(config(), Box::new(store), JournalConfig::default()) {
        Ok((dev, _)) => dev,
        Err(RimeError::Journal(_)) => return false,
        Err(err) => panic!("recovery failed outside the journal layer: {err:?}"),
    };
    for region in dev.regions() {
        let _ = dev.read_raw(region, 0, 1);
        let _ = dev.fifo_next_raw(region);
        let _ = dev.rime_min_k::<u64>(region, 2);
        let _ = dev.rime_max::<i32>(region);
    }
    true
}

#[test]
fn the_recorded_journal_covers_every_kind_and_recovers() {
    let image = recorded();
    let (magic, payloads) = records(&image);
    assert_eq!(
        frame(&magic, &payloads),
        image,
        "the test's framing is the journal's"
    );
    let scanned = journal::scan(&image).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    for (_, record) in &scanned.records {
        match record {
            journal::JournalRecord::Intent { command, .. } => {
                kinds.insert(command.kind());
            }
            journal::JournalRecord::Checkpoint { .. } => {
                kinds.insert("checkpoint");
            }
            journal::JournalRecord::Outcome { .. } => {}
        }
    }
    let want = [
        "alloc",
        "checkpoint",
        "extract",
        "extract_batch",
        "fifo_next",
        "free",
        "init",
        "read",
        "write",
    ];
    assert_eq!(kinds.into_iter().collect::<Vec<_>>(), want);
    assert!(exercise(&image), "the unmutated journal recovers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_records_decode_or_err(
        pick in any::<usize>(),
        checkpoint in any::<bool>(),
        in_state in any::<bool>(),
        edits in edits(),
    ) {
        static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
        let image = IMAGE.get_or_init(recorded);
        exercise(&mutate(image, pick, checkpoint, in_state, &edits));
    }
}
