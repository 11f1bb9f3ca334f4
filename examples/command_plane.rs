//! The unified command plane: three front-ends, one executor, one set
//! of counters.
//!
//! Every mutation of a RIME device — whether issued through the typed
//! Rust API, built programmatically as a `Command`, or replayed from a
//! journal — lowers into the same `rime_core::cmd::Executor`, which
//! records each command once: the device's counters and metrics account
//! every front-end's work alike.
//!
//! Run with: `cargo run --example command_plane`

use std::borrow::Cow;

use rime_core::{
    Command, Executor, JournalConfig, KeyFormat, MemJournalStore, Outcome, RimeConfig, RimeDevice,
};

fn main() {
    let dev = RimeDevice::new(RimeConfig::small());

    // Front-end 1: the typed API (thin encoders over Commands).
    let region = dev.alloc(8).unwrap();
    dev.write(region, 0, &[412u32, 17, 9_000, 233, 17, 4, 777, 56])
        .unwrap();
    dev.init_all::<u32>(region).unwrap();
    let top3 = dev.rime_min_k::<u32>(region, 3).unwrap();
    println!("typed API    rime_min_k(3) -> {top3:?}");

    // Front-end 2: raw typed Commands through the same executor — what
    // the MMIO register file decodes doorbell writes into.
    let raw = [1u64, 2];
    let outcome = dev
        .execute(Command::Write {
            region,
            offset: 6,
            raw: Cow::Borrowed(&raw),
            format: KeyFormat::UNSIGNED32,
        })
        .unwrap();
    assert_eq!(outcome, Outcome::Done);
    dev.execute(Command::Init {
        region,
        offset: 0,
        len: 8,
        format: KeyFormat::UNSIGNED32,
    })
    .unwrap();
    let hit = dev.execute(Command::Extract {
        region,
        format: KeyFormat::UNSIGNED32,
        direction: rime_core::Direction::Min,
    });
    println!("raw Command  Extract(min)  -> {hit:?}");

    // The counters account both front-ends' work.
    let counters = dev.counters();
    println!(
        "\ncounters: {} extractions, {} row writes, {} transfers, {:.1} nJ modeled",
        counters.extractions,
        counters.row_writes,
        dev.interface_transfers(),
        dev.modeled_energy_nj(),
    );

    // Front-end 3: journal replay. The write-ahead journal that makes
    // the device crash-consistent is also its trace: replay feeds the
    // logged Commands back through a fresh device's executor.
    let recorded = RimeDevice::new(RimeConfig::small());
    let journal = MemJournalStore::new();
    recorded
        .attach_journal(Box::new(journal.clone()), JournalConfig::default())
        .unwrap();
    let r = recorded.alloc(6).unwrap();
    recorded
        .write_raw(r, 0, &[31, 41, 5, 9, 2, 65], KeyFormat::UNSIGNED64)
        .unwrap();
    recorded.init_raw(r, 0, 6, KeyFormat::UNSIGNED64).unwrap();
    let batch = recorded
        .next_extremes_raw(r, KeyFormat::UNSIGNED64, rime_core::Direction::Min, 4)
        .unwrap();
    let log = journal.snapshot();
    let replayed = Executor::replay(RimeConfig::small(), &log).unwrap();
    println!(
        "\njournal: {} bytes recorded; live batch {:?}; replayed {:?}",
        log.len(),
        batch.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
        replayed
    );
    assert_eq!(
        replayed,
        batch.iter().map(|&(_, v)| Some(v)).collect::<Vec<_>>()
    );
    println!("replay is bit-identical to the live run");
}
