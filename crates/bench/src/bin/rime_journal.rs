//! `rime-journal` — inspect and self-check the command journal.
//!
//! Two modes:
//!
//! * `--selfcheck` runs a deterministic journaled workload against an
//!   in-memory store, recovers a second device from the bytes, and
//!   verifies the rebuild is bit-identical (chip states, allocation
//!   map, op counters). It then tears the final record — the signature
//!   of a crash mid-append — recovers again, and verifies the torn
//!   tail is detected, the interrupted command reported, and the
//!   resubmitted command converges on the same state. It does so on
//!   `RimeConfig::small()` and again on `RimeConfig::table1()` with a
//!   4096-key region, where every checkpoint must stay under 256 KiB
//!   (checkpoints cost the device's live state, not its capacity).
//!   Exits nonzero on any divergence; CI gates on it (see
//!   `.github/workflows/ci.yml`).
//! * `--inspect <file>` scans a journal file and prints a summary:
//!   record counts and bytes by kind, the largest checkpoint, the
//!   committed ordinal, and whether the tail is torn. Interior
//!   corruption is a typed error and a nonzero exit.
//!
//! The wire format and recovery protocol are specified in DESIGN.md
//! §12.

use std::process::ExitCode;

use rime_core::journal::{self, JournalConfig, JournalRecord, MemJournalStore};
use rime_core::{OpCounters, RimeConfig, RimeDevice, RimeError};
use rime_memristive::ChipState;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mode = match args.next() {
        Some(mode) => mode,
        None => {
            eprintln!("usage: rime-journal --selfcheck | --inspect <file>");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match mode.as_str() {
        "--selfcheck" => selfcheck(),
        "--inspect" | "inspect" => match args.next() {
            Some(path) => inspect(&path),
            None => Err("--inspect needs a journal file path".to_string()),
        },
        other => Err(format!(
            "unknown argument `{other}` (expected --selfcheck or --inspect <file>)"
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("rime-journal: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Everything recovery must reproduce bit-identically.
#[derive(PartialEq)]
struct Fingerprint {
    chip_states: Vec<ChipState>,
    allocation_map: (u64, Vec<(u64, u64)>),
    counters: OpCounters,
    per_chip: Vec<OpCounters>,
    transfers: u64,
}

fn fingerprint(device: &RimeDevice) -> Fingerprint {
    Fingerprint {
        chip_states: device.chip_states(),
        allocation_map: device.allocation_map(),
        counters: device.counters(),
        per_chip: device.per_chip_counters(),
        transfers: device.interface_transfers(),
    }
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("selfcheck failed: {what}"))
    }
}

fn rime(result: Result<(), RimeError>, what: &str) -> Result<(), String> {
    result.map_err(|e| format!("selfcheck failed: {what}: {e}"))
}

/// Largest checkpoint state either selfcheck leg may write: a checkpoint
/// costs the device's live state, while a Table I device's exclusion
/// flags alone span 32 × 2 Mi slots (8 MiB if stored densely).
const CHECKPOINT_BOUND: usize = 256 * 1024;

fn selfcheck() -> Result<(), String> {
    for (name, config, n_keys) in [
        ("small", RimeConfig::small(), 64),
        ("table1", RimeConfig::table1(), 4096),
    ] {
        let leg = selfcheck_leg(config, n_keys).map_err(|e| format!("{name}: {e}"))?;
        println!(
            "selfcheck OK ({name}): {} commands journaled ({} bytes, largest checkpoint {} \
             bytes), clean and torn-tail recovery both bit-identical",
            leg.committed, leg.bytes, leg.largest_checkpoint
        );
    }
    Ok(())
}

/// What one selfcheck leg journaled.
struct Leg {
    committed: u64,
    bytes: usize,
    largest_checkpoint: usize,
}

fn selfcheck_leg(config: RimeConfig, n_keys: u32) -> Result<Leg, String> {
    let store = MemJournalStore::new();
    let jconfig = JournalConfig {
        checkpoint_every: 3,
    };

    // A deterministic workload: enough commands to cross periodic
    // checkpoints, a forced checkpoint, and a final extraction whose
    // outcome is the last record on the wire.
    let device = RimeDevice::new(config);
    rime(
        device.attach_journal(Box::new(store.clone()), jconfig),
        "attach_journal",
    )?;
    let keys: Vec<u32> = (0..n_keys).map(|i| (i * 37) % 251 + 1).collect();
    let region = device
        .alloc(keys.len() as u64)
        .map_err(|e| format!("selfcheck failed: alloc: {e}"))?;
    rime(device.write(region, 0, &keys), "write")?;
    rime(device.init::<u32>(region, 0, keys.len() as u64), "init")?;
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let eight = device
        .rime_min_k::<u32>(region, 8)
        .map_err(|e| format!("selfcheck failed: rime_min_k: {e}"))?;
    let got: Vec<u32> = eight.iter().map(|&(_, key)| key).collect();
    check(got == sorted[..8], "rime_min_k returned the wrong keys")?;
    match device.checkpoint_now() {
        Ok(true) => {}
        Ok(false) => return Err("selfcheck failed: checkpoint_now had no journal".to_string()),
        Err(e) => return Err(format!("selfcheck failed: checkpoint_now: {e}")),
    }
    let ninth = device
        .rime_min::<u32>(region)
        .map_err(|e| format!("selfcheck failed: rime_min: {e}"))?;
    check(
        ninth.map(|(_, key)| key) == Some(sorted[8]),
        "rime_min returned the wrong key",
    )?;

    let reference = fingerprint(&device);
    let committed = device
        .journal_committed()
        .ok_or("selfcheck failed: no journal attached")?;
    let bytes = store.snapshot();
    let largest_checkpoint = journal::scan(&bytes)
        .map_err(|e| format!("selfcheck failed: scan: {e}"))?
        .records
        .iter()
        .filter_map(|(_, record)| match record {
            JournalRecord::Checkpoint { state, .. } => Some(state.len()),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    check(
        largest_checkpoint <= CHECKPOINT_BOUND,
        &format!("a checkpoint of {largest_checkpoint} bytes exceeds {CHECKPOINT_BOUND}"),
    )?;

    // Clean recovery: the rebuilt device must be bit-identical.
    let (recovered, report) = RimeDevice::recover(
        config,
        Box::new(MemJournalStore::from_bytes(bytes.clone())),
        jconfig,
    )
    .map_err(|e| format!("selfcheck failed: recover: {e}"))?;
    check(
        report.committed == committed,
        "clean recovery lost commands",
    )?;
    check(!report.torn_tail, "clean recovery reported a torn tail")?;
    check(
        report.from_checkpoint,
        "clean recovery ignored the checkpoint",
    )?;
    check(
        fingerprint(&recovered) == reference,
        "clean recovery is not bit-identical",
    )?;

    // Torn tail: cut into the final record (a crash mid-append),
    // recover, and resubmit the interrupted command.
    let torn = MemJournalStore::from_bytes(bytes[..bytes.len() - 3].to_vec());
    let (resumed, report) = RimeDevice::recover(config, Box::new(torn), jconfig)
        .map_err(|e| format!("selfcheck failed: torn recover: {e}"))?;
    check(report.torn_tail, "torn tail went undetected")?;
    check(
        report.committed == committed - 1,
        "torn recovery miscounted committed commands",
    )?;
    check(
        report.interrupted == Some(committed - 1),
        "interrupted command not reported",
    )?;
    let rehydrated = resumed.regions();
    check(
        rehydrated == vec![region],
        "rehydrated region handles diverged",
    )?;
    let retried = resumed
        .rime_min::<u32>(rehydrated[0])
        .map_err(|e| format!("selfcheck failed: resubmission: {e}"))?;
    check(retried == ninth, "resubmitted command diverged")?;
    check(
        fingerprint(&resumed) == reference,
        "torn recovery is not bit-identical after resubmission",
    )?;
    check(
        resumed.journal_committed() == Some(committed),
        "resubmission did not re-commit",
    )?;

    Ok(Leg {
        committed,
        bytes: bytes.len(),
        largest_checkpoint,
    })
}

fn inspect(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let report = journal::scan(&bytes).map_err(|e| format!("`{path}`: {e}"))?;

    // (count, framed bytes) per record kind; a record runs to the next
    // record's offset, the last one to the end of the valid prefix.
    let (mut intents, mut outcomes, mut checkpoints) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    let mut largest_checkpoint = 0u64;
    let mut committed = 0u64;
    let ends = report
        .records
        .iter()
        .skip(1)
        .map(|&(offset, _)| offset)
        .chain([report.valid_len]);
    for ((offset, record), end) in report.records.iter().zip(ends) {
        let size = end - offset;
        let tally = match record {
            JournalRecord::Intent { .. } => &mut intents,
            JournalRecord::Outcome { ordinal, .. } => {
                committed = committed.max(ordinal + 1);
                &mut outcomes
            }
            JournalRecord::Checkpoint {
                committed: at_checkpoint,
                ..
            } => {
                committed = committed.max(*at_checkpoint);
                largest_checkpoint = largest_checkpoint.max(size);
                &mut checkpoints
            }
        };
        tally.0 += 1;
        tally.1 += size;
    }

    println!(
        "{path}: {} bytes, {} records",
        bytes.len(),
        report.records.len()
    );
    println!("  intents:     {} ({} bytes)", intents.0, intents.1);
    println!("  outcomes:    {} ({} bytes)", outcomes.0, outcomes.1);
    println!(
        "  checkpoints: {} ({} bytes, largest {largest_checkpoint})",
        checkpoints.0, checkpoints.1
    );
    println!("  committed:   {committed}");
    println!("  valid_len:   {}", report.valid_len);
    if report.torn_tail {
        println!(
            "  torn tail:   {} trailing bytes are a torn final record (crash mid-append); \
             recovery will truncate them",
            bytes.len() as u64 - report.valid_len
        );
    } else {
        println!("  torn tail:   none");
    }
    if intents.0 > outcomes.0 {
        println!("  in doubt:    an intent without an outcome — the journal records an interrupted command");
    }
    Ok(())
}
