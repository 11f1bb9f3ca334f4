//! Concurrency × durability: N submitters against one journaled
//! executor — the gap PR 6's single-threaded crash harness left open.
//!
//! Always compiled: four tenant threads drive a *started*
//! `rime-service` ring over a journaled executor (doorbell coalescing,
//! same-tenant fusion, cross-tenant fusion on a shared region), then
//! recovery from the journal bytes must reconstruct the live device bit
//! for bit — the dispatcher runs each pass's units in order on its own
//! thread and the journal lock serializes execution, so log order *is*
//! execution order even when the submitters race.
//!
//! With `--features crash-test`: four threads burst extracts directly
//! at a journaled executor while an armed [`CrashPoint`] kills one
//! command mid-dispatch. Tenants own chip-disjoint regions, so the
//! victim's partial effects never leak into survivors' commands, and
//! recovery must (a) succeed, (b) be deterministic (two recoveries
//! from the same bytes agree bit for bit), (c) account exactly for
//! every command that returned, and (d) resume extraction.

use std::borrow::Cow;
use std::sync::Arc;

use rime_core::{
    Command, Direction, DriverConfig, Executor, JournalConfig, KeyFormat, MemJournalStore, Outcome,
    Region, RimeConfig,
};
use rime_memristive::{ArrayTiming, ChipGeometry};
use rime_service::{RankingService, ServiceConfig};

const FMT: KeyFormat = KeyFormat::UNSIGNED64;
const TENANTS: usize = 4;

/// One small chip per tenant, so per-tenant regions can be made
/// chip-disjoint (a full chip each).
fn test_config() -> RimeConfig {
    RimeConfig {
        channels: 1,
        chips_per_channel: TENANTS as u32,
        chip_geometry: ChipGeometry::tiny(),
        timing: ArrayTiming::table1(),
        driver: DriverConfig {
            page_slots: 8,
            startup_pages: 2,
            growth_pages: 1,
        },
    }
}

fn jconfig() -> JournalConfig {
    JournalConfig {
        checkpoint_every: 3,
    }
}

fn keys(n: usize, salt: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i * 2654435761 + salt * 97) % 100_003)
        .collect()
}

fn extract(region: Region) -> Command<'static> {
    Command::Extract {
        region,
        format: FMT,
        direction: Direction::Min,
    }
}

/// The bit-identity fingerprint both halves compare.
fn assert_same_device(a: &Executor, b: &Executor, context: &str) {
    assert_eq!(a.chip_states(), b.chip_states(), "{context}: chip states");
    assert_eq!(
        a.allocation_map(),
        b.allocation_map(),
        "{context}: allocation map"
    );
    assert_eq!(a.counters(), b.counters(), "{context}: OpCounters");
    assert_eq!(
        a.per_chip_counters(),
        b.per_chip_counters(),
        "{context}: per-chip OpCounters"
    );
    assert_eq!(
        a.interface_transfers(),
        b.interface_transfers(),
        "{context}: interface transfers"
    );
}

#[test]
fn journaled_service_under_concurrent_tenants_recovers_bit_identically() {
    let config = test_config();
    let exec = Arc::new(Executor::new(config));
    let store = MemJournalStore::new();
    exec.attach_journal(Box::new(store.clone()), jconfig())
        .expect("attach journal");

    let service = Arc::new(RankingService::new(
        Arc::clone(&exec),
        ServiceConfig::default(),
    ));
    service.start();

    // A shared region so different tenants' extracts can fuse
    // cross-tenant mid-burst.
    let shared = {
        let setup = service.session();
        let region = match setup.call(Command::Alloc { len: 16 }) {
            Ok(Outcome::Region(r)) => r,
            other => panic!("shared alloc: {other:?}"),
        };
        setup
            .call(Command::Write {
                region,
                offset: 0,
                raw: Cow::Owned(keys(16, 99)),
                format: FMT,
            })
            .expect("shared write");
        setup
            .call(Command::Init {
                region,
                offset: 0,
                len: 16,
                format: FMT,
            })
            .expect("shared init");
        region
    };

    let workers: Vec<_> = (0..TENANTS)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let session = service.session();
                let n = 12u64;
                let region = match session.call(Command::Alloc { len: n }) {
                    Ok(Outcome::Region(r)) => r,
                    other => panic!("tenant {t} alloc: {other:?}"),
                };
                session
                    .call(Command::Write {
                        region,
                        offset: 0,
                        raw: Cow::Owned(keys(n as usize, t as u64)),
                        format: FMT,
                    })
                    .expect("write");
                session
                    .call(Command::Init {
                        region,
                        offset: 0,
                        len: n,
                        format: FMT,
                    })
                    .expect("init");

                // Mid-burst: own-region extracts (same-tenant fusion)
                // interleaved with shared-region extracts (cross-tenant
                // fusion), submitted as one burst so the dispatcher
                // coalesces them.
                let mut expected = Vec::new();
                for i in 0..n {
                    session.submit(extract(region)).expect("own extract");
                    expected.push(("own", i));
                    if i % 3 == 0 {
                        session.submit(extract(shared)).expect("shared extract");
                        expected.push(("shared", i));
                    }
                }
                let completions = session.wait_reap(expected.len());
                assert_eq!(completions.len(), expected.len());
                // Per-tenant program order: ordinals strictly ascend.
                let ordinals: Vec<u64> = completions.iter().map(|c| c.ordinal).collect();
                assert!(
                    ordinals.windows(2).all(|w| w[0] < w[1]),
                    "tenant {t} ordinals out of order: {ordinals:?}"
                );
                // Own-region minima are non-decreasing in program order.
                let mut prev = None;
                for (c, (kind, _)) in completions.iter().zip(&expected) {
                    let Ok(Outcome::Hit(hit)) = &c.result else {
                        panic!("tenant {t} extract failed: {:?}", c.result);
                    };
                    if *kind == "own" {
                        if let Some((_, raw)) = hit {
                            if let Some(p) = prev {
                                assert!(*raw >= p, "tenant {t} minima regressed");
                            }
                            prev = Some(*raw);
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("tenant thread");
    }
    service.shutdown();

    let committed = exec.journal_committed().expect("journal attached");
    let (recovered, report) = Executor::recover(
        config,
        Box::new(MemJournalStore::from_bytes(store.snapshot())),
        jconfig(),
    )
    .expect("recovery after concurrent service run");
    assert_eq!(report.committed, committed, "all commands accounted");
    assert!(
        report.interrupted.is_none(),
        "clean shutdown leaves no tail"
    );
    assert_same_device(&recovered, &exec, "recovered vs live");
}

/// The crash half needs the fault injectors.
#[cfg(not(feature = "crash-test"))]
#[test]
fn mid_burst_crash_requires_the_crash_test_feature() {
    // Run `cargo test -p rime-bench --features crash-test` (CI's
    // crash-smoke job does) to drive the mid-burst kill sweep.
}

#[cfg(feature = "crash-test")]
mod crash {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    use rime_core::{CrashPoint, CrashSignal};

    /// Injected crashes panic on purpose; silence exactly that payload
    /// (same filter as `tests/crash_recovery.rs`).
    fn silence_injected_panics() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                if payload.downcast_ref::<CrashSignal>().is_none() {
                    prev(info);
                }
            }));
        });
    }

    /// Sets up one full-chip region per tenant (chip-disjoint by
    /// construction: contiguous allocator, chip-sized allocations).
    fn setup(exec: &Executor) -> (Vec<Region>, u64) {
        let chip_slots = exec.config().chip_slots();
        let mut setup_commands = 0u64;
        let regions = (0..TENANTS)
            .map(|t| {
                let region = match exec.execute(Command::Alloc { len: chip_slots }) {
                    Ok(Outcome::Region(r)) => r,
                    other => panic!("setup alloc: {other:?}"),
                };
                exec.execute(Command::Write {
                    region,
                    offset: 0,
                    raw: Cow::Owned(keys(chip_slots as usize, t as u64)),
                    format: FMT,
                })
                .expect("setup write");
                exec.execute(Command::Init {
                    region,
                    offset: 0,
                    len: chip_slots,
                    format: FMT,
                })
                .expect("setup init");
                setup_commands += 3;
                region
            })
            .collect();
        (regions, setup_commands)
    }

    #[test]
    fn mid_burst_crash_recovers_deterministically_and_resumes() {
        silence_injected_panics();
        const BURST: usize = 12;

        // Sweep several kill offsets: early (during the first burst
        // of extracts), middle, and beyond the total so the no-crash
        // path is also covered.
        for kill_at in [1u64, 7, 19, 41, 100_000] {
            let config = test_config();
            let store = MemJournalStore::new();
            let exec = Arc::new(Executor::new(config));
            exec.attach_journal(Box::new(store.clone()), jconfig())
                .expect("attach journal");
            let (regions, setup_commands) = setup(&exec);

            let point = CrashPoint::armed(kill_at);
            exec.install_crash_point(Some(point.clone()));
            let stop = Arc::new(AtomicBool::new(false));

            let workers: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let exec = Arc::clone(&exec);
                    let stop = Arc::clone(&stop);
                    let region = regions[t];
                    std::thread::spawn(move || {
                        let mut returned = 0u64;
                        for _ in 0..BURST {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            match panic::catch_unwind(AssertUnwindSafe(|| {
                                exec.execute(extract(region))
                            })) {
                                Ok(result) => {
                                    result.expect("extract on a live region");
                                    returned += 1;
                                }
                                Err(_) => {
                                    // The armed kill: this command never
                                    // returned and must not be counted.
                                    stop.store(true, Ordering::SeqCst);
                                    break;
                                }
                            }
                        }
                        returned
                    })
                })
                .collect();
            let returned: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
            let crashed = point.fired();
            assert_eq!(
                crashed,
                kill_at < 100_000,
                "sweep covers both crashing and clean runs (kill_at={kill_at})"
            );

            // Recovery is deterministic: two recoveries from the same
            // bytes agree bit for bit.
            let bytes = store.snapshot();
            let (rec_a, report_a) = Executor::recover(
                config,
                Box::new(MemJournalStore::from_bytes(bytes.clone())),
                jconfig(),
            )
            .unwrap_or_else(|e| panic!("recovery failed (kill_at={kill_at}): {e}"));
            let (rec_b, report_b) = Executor::recover(
                config,
                Box::new(MemJournalStore::from_bytes(bytes)),
                jconfig(),
            )
            .expect("second recovery");
            assert_eq!(report_a.committed, report_b.committed);
            assert_same_device(&rec_a, &rec_b, &format!("kill_at={kill_at} re-recovery"));

            // Exact accounting: every command that returned committed.
            // The killed command never returned, but whether it
            // committed depends on which site the armed point hit —
            // before `record_outcome` (intent dangles, dropped by
            // recovery) or after (outcome durable, never reported to
            // the caller). Either way the gap is at most that one
            // command; a clean run balances exactly.
            let base = setup_commands + returned;
            if crashed {
                assert!(
                    report_a.committed == base || report_a.committed == base + 1,
                    "committed {} vs setup + returned {} (kill_at={kill_at})",
                    report_a.committed,
                    base
                );
            } else {
                assert_eq!(
                    report_a.committed, base,
                    "clean run: committed == setup + returned (kill_at={kill_at})"
                );
            }

            // The recovered device resumes: every region still ranks.
            for &region in &regions {
                match rec_a.execute(extract(region)) {
                    Ok(Outcome::Hit(_)) => {}
                    other => panic!("resume extract failed (kill_at={kill_at}): {other:?}"),
                }
            }
        }
    }
}
