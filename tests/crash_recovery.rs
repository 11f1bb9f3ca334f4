//! Crash-point injection harness for the command-plane journal.
//!
//! The property: for a random command sequence over 1..4 chips, killing
//! the executor at *every* crash site — mid-write, mid-extraction,
//! mid-rearm, mid-checkpoint, between intent and outcome — and then
//! recovering from the journal always reconstructs a device that is
//! bit-identical to an uncrashed run: same raw chip snapshots, same
//! allocation map, same OpCounters, same interface transfers, and the
//! same outcomes for the commands resumed after recovery. A second
//! property tears the final journal record at arbitrary byte cuts (a
//! crash mid-append) and demands the same convergence.
//!
//! Requires `--features crash-test`; without it a pointer test points
//! the way.

#[cfg(not(feature = "crash-test"))]
#[test]
fn crash_harness_requires_the_crash_test_feature() {
    // The fault-injection hooks compile to inline no-ops without the
    // feature, so there is nothing to drive here. Run
    //     cargo test -p rime-bench --features crash-test
    // to sweep every crash site (CI's crash-smoke job does).
}

#[cfg(feature = "crash-test")]
mod harness {
    use std::borrow::Cow;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Once;

    use proptest::prelude::*;
    use rime_core::{
        journal, Command, CrashPoint, CrashSignal, Direction, DriverConfig, Executor,
        JournalConfig, KeyFormat, MemJournalStore, OpCounters, Outcome, Region, RimeConfig,
        RimeError,
    };
    use rime_memristive::{ArrayTiming, ChipGeometry, ChipState};

    /// A tiny device: 64-slot chips so a handful of commands spans
    /// mats, and an aggressive page granularity so allocation state is
    /// non-trivial.
    fn test_config(chips: u32) -> RimeConfig {
        RimeConfig {
            channels: 1,
            chips_per_channel: chips,
            chip_geometry: ChipGeometry::tiny(),
            timing: ArrayTiming::table1(),
            driver: DriverConfig {
                page_slots: 8,
                startup_pages: 2,
                growth_pages: 1,
            },
        }
    }

    /// Short cadence so the sweep crosses checkpoint boundaries.
    fn jconfig() -> JournalConfig {
        JournalConfig {
            checkpoint_every: 3,
        }
    }

    fn cases() -> u32 {
        std::env::var("CRASH_PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8)
    }

    /// Injected crashes panic on purpose — many times per property.
    /// Silence exactly that payload (the raw [`CrashSignal`]) so real
    /// failures still print.
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

    /// Scripted operations name regions by index into the list of
    /// still-live allocations, so every lowered command is valid for
    /// *some* device state without the generator knowing outcomes.
    #[derive(Debug, Clone)]
    enum ScriptOp {
        Alloc {
            len: u64,
        },
        Write {
            region_ix: usize,
            offset: u64,
            raw: Vec<u64>,
        },
        Init {
            region_ix: usize,
            len: u64,
        },
        Extract {
            region_ix: usize,
            direction: Direction,
        },
        Batch {
            region_ix: usize,
            direction: Direction,
            k: usize,
        },
        Fifo {
            region_ix: usize,
        },
        Free {
            region_ix: usize,
        },
    }

    fn direction() -> impl Strategy<Value = Direction> {
        prop_oneof![Just(Direction::Min), Just(Direction::Max)]
    }

    fn op_strategy() -> impl Strategy<Value = ScriptOp> {
        prop_oneof![
            (1u64..10).prop_map(|len| ScriptOp::Alloc { len }),
            (0usize..8, 0u64..4, prop::collection::vec(0u64..1000, 1..6)).prop_map(
                |(region_ix, offset, raw)| ScriptOp::Write {
                    region_ix,
                    offset,
                    raw
                }
            ),
            (0usize..8, 1u64..10).prop_map(|(region_ix, len)| ScriptOp::Init { region_ix, len }),
            (0usize..8, direction()).prop_map(|(region_ix, direction)| ScriptOp::Extract {
                region_ix,
                direction
            }),
            (0usize..8, direction(), 1usize..5).prop_map(|(region_ix, direction, k)| {
                ScriptOp::Batch {
                    region_ix,
                    direction,
                    k,
                }
            }),
            (0usize..8).prop_map(|region_ix| ScriptOp::Fifo { region_ix }),
            (0usize..8).prop_map(|region_ix| ScriptOp::Free { region_ix }),
        ]
    }

    /// A fixed script prefix so *every* case crosses the interesting
    /// sites — mid-write, mid-extraction, and (at
    /// `checkpoint_every = 3`) a mid-checkpoint — before the random
    /// suffix takes over.
    fn preamble() -> Vec<ScriptOp> {
        vec![
            ScriptOp::Alloc { len: 6 },
            ScriptOp::Write {
                region_ix: 0,
                offset: 0,
                raw: vec![9, 2, 7, 5, 8, 4],
            },
            ScriptOp::Init {
                region_ix: 0,
                len: 6,
            },
            ScriptOp::Batch {
                region_ix: 0,
                direction: Direction::Min,
                k: 2,
            },
        ]
    }

    /// Lowers one op against the live-region list; with no region to
    /// name yet, the op degrades to a 1-slot allocation.
    fn lower(op: &ScriptOp, regions: &[Region]) -> Command<'static> {
        let pick = |ix: usize| {
            if regions.is_empty() {
                None
            } else {
                Some(regions[ix % regions.len()])
            }
        };
        let fmt = KeyFormat::UNSIGNED64;
        match *op {
            ScriptOp::Alloc { len } => Command::Alloc { len },
            ScriptOp::Write {
                region_ix,
                offset,
                ref raw,
            } => match pick(region_ix) {
                Some(region) => Command::Write {
                    region,
                    offset,
                    raw: Cow::Owned(raw.clone()),
                    format: fmt,
                },
                None => Command::Alloc { len: 1 },
            },
            ScriptOp::Init { region_ix, len } => match pick(region_ix) {
                Some(region) => Command::Init {
                    region,
                    offset: 0,
                    len,
                    format: fmt,
                },
                None => Command::Alloc { len: 1 },
            },
            ScriptOp::Extract {
                region_ix,
                direction,
            } => match pick(region_ix) {
                Some(region) => Command::Extract {
                    region,
                    format: fmt,
                    direction,
                },
                None => Command::Alloc { len: 1 },
            },
            ScriptOp::Batch {
                region_ix,
                direction,
                k,
            } => match pick(region_ix) {
                Some(region) => Command::ExtractBatch {
                    region,
                    format: fmt,
                    direction,
                    k,
                },
                None => Command::Alloc { len: 1 },
            },
            ScriptOp::Fifo { region_ix } => match pick(region_ix) {
                Some(region) => Command::FifoNext { region },
                None => Command::Alloc { len: 1 },
            },
            ScriptOp::Free { region_ix } => match pick(region_ix) {
                Some(region) => Command::Free { region },
                None => Command::Alloc { len: 1 },
            },
        }
    }

    /// Everything "bit-identical" means.
    type Fingerprint = (
        Vec<ChipState>,
        (u64, Vec<(u64, u64)>),
        OpCounters,
        Vec<OpCounters>,
        u64,
    );

    fn fingerprint(exec: &Executor) -> Fingerprint {
        (
            exec.chip_states(),
            exec.allocation_map(),
            exec.counters(),
            exec.per_chip_counters(),
            exec.interface_transfers(),
        )
    }

    /// The uncrashed oracle run. It also counts the crash sites (a
    /// counting injector never fires) and keeps its journal bytes for
    /// the torn-tail sweep.
    struct Reference {
        commands: Vec<Command<'static>>,
        outcomes: Vec<Result<Outcome, RimeError>>,
        fingerprint: Fingerprint,
        sites: u64,
        journal_bytes: Vec<u8>,
    }

    fn build_reference(chips: u32, ops: &[ScriptOp]) -> Reference {
        let counter = CrashPoint::counting();
        let store = MemJournalStore::new();
        let exec = Executor::new(test_config(chips));
        exec.attach_journal(Box::new(store.clone()), jconfig())
            .expect("attach reference journal");
        exec.install_crash_point(Some(counter.clone()));
        let mut commands = Vec::new();
        let mut outcomes = Vec::new();
        let mut regions: Vec<Region> = Vec::new();
        for op in ops {
            let cmd = lower(op, &regions);
            let out = exec.execute(cmd.clone());
            match (&cmd, &out) {
                (_, Ok(Outcome::Region(r))) => regions.push(*r),
                (Command::Free { region }, Ok(_)) => regions.retain(|r| r != region),
                _ => {}
            }
            commands.push(cmd);
            outcomes.push(out);
        }
        exec.install_crash_point(None);
        Reference {
            commands,
            outcomes,
            fingerprint: fingerprint(&exec),
            sites: counter.hits(),
            journal_bytes: store.snapshot(),
        }
    }

    /// Recovers from `store`, resumes the not-yet-committed suffix of
    /// the script, and demands outcome-by-outcome and bit-for-bit
    /// convergence with the uncrashed oracle.
    fn recover_resume_and_check(
        chips: u32,
        store: MemJournalStore,
        reference: &Reference,
        context: &str,
    ) -> Result<(), TestCaseError> {
        let (rec, report) = Executor::recover(test_config(chips), Box::new(store), jconfig())
            .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
        let from = report.committed as usize;
        prop_assert!(
            from <= reference.commands.len(),
            "{}: recovered committed={} beyond the script",
            context,
            from
        );
        if let Some(ordinal) = report.interrupted {
            prop_assert_eq!(
                ordinal as usize,
                from,
                "{}: the in-doubt command is the next to resubmit",
                context
            );
        }
        for i in from..reference.commands.len() {
            let out = rec.execute(reference.commands[i].clone());
            prop_assert_eq!(
                &out,
                &reference.outcomes[i],
                "{}: resumed command {} diverged",
                context,
                i
            );
        }
        prop_assert_eq!(
            fingerprint(&rec),
            reference.fingerprint.clone(),
            "{}: recovered device is not bit-identical",
            context
        );
        prop_assert_eq!(
            rec.journal_committed(),
            Some(reference.commands.len() as u64),
            "{}: journal did not resume counting",
            context
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Kill at every crash site (k-th telemetry/journal seq point),
        /// recover, resume, compare bit-for-bit.
        #[test]
        fn every_crash_site_recovers_bit_identically(
            chips in 1u32..5,
            ops in prop::collection::vec(op_strategy(), 3..8),
        ) {
            silence_injected_panics();
            let ops: Vec<ScriptOp> = preamble().into_iter().chain(ops).collect();
            let reference = build_reference(chips, &ops);
            prop_assert!(reference.sites > 0, "no crash sites counted");
            if std::env::var_os("CRASH_DEBUG").is_some() {
                eprintln!(
                    "chips={} ops={} sites={}",
                    chips,
                    reference.commands.len(),
                    reference.sites
                );
            }
            for k in 0..reference.sites {
                let store = MemJournalStore::new();
                let exec = Executor::new(test_config(chips));
                exec.attach_journal(Box::new(store.clone()), jconfig()).unwrap();
                let injector = CrashPoint::armed(k);
                exec.install_crash_point(Some(injector.clone()));
                let mut crashed = false;
                for cmd in &reference.commands {
                    match panic::catch_unwind(AssertUnwindSafe(|| exec.execute(cmd.clone()))) {
                        Ok(_) => {}
                        Err(payload) => {
                            if !injector.fired() {
                                // A real bug, not our injection.
                                panic::resume_unwind(payload);
                            }
                            crashed = true;
                            break;
                        }
                    }
                }
                drop(exec);
                prop_assert!(
                    crashed,
                    "armed({}) never fired although counting saw {} sites",
                    k,
                    reference.sites
                );
                recover_resume_and_check(chips, store, &reference, &format!("site {k}"))?;
            }
        }

        /// Tear the final journal record at arbitrary byte cuts — the
        /// on-disk image a crash mid-append leaves behind — and demand
        /// the same convergence.
        #[test]
        fn a_torn_final_record_recovers_bit_identically(
            chips in 1u32..5,
            ops in prop::collection::vec(op_strategy(), 3..8),
        ) {
            silence_injected_panics();
            let ops: Vec<ScriptOp> = preamble().into_iter().chain(ops).collect();
            let reference = build_reference(chips, &ops);
            let bytes = &reference.journal_bytes;
            let scanned = journal::scan(bytes).expect("reference journal scans clean");
            prop_assert!(!scanned.torn_tail);
            let last_offset = scanned.records.last().expect("journal has records").0 as usize;
            // Every cut strictly inside the final record tears it.
            // Sample the range (bounded) but always include the
            // single-missing-byte cut.
            let lo = last_offset + 1;
            let hi = bytes.len();
            let stride = ((hi - lo) / 12).max(1);
            let mut cuts: Vec<usize> = (lo..hi).step_by(stride).collect();
            cuts.push(hi - 1);
            cuts.dedup();
            for cut in cuts {
                let store = MemJournalStore::from_bytes(bytes[..cut].to_vec());
                let probe = journal::scan(&store.snapshot()).expect("torn scan is tolerated");
                prop_assert!(probe.torn_tail, "cut at {} did not tear", cut);
                recover_resume_and_check(chips, store, &reference, &format!("cut {cut}"))?;
            }
        }
    }

    /// The injected-fault path is exercised separately from crashes:
    /// a chip failing mid-`ExtractBatch` surfaces the lowest-indexed
    /// chip's error, and the journal still records the outcome (see
    /// `tests/mmio_api_differential.rs` for the differential version).
    #[test]
    fn recovery_detects_unreplayable_injected_faults() {
        silence_injected_panics();
        // A fault injected into the *original* run is not replayable:
        // re-execution cannot reproduce the error, and recovery says so
        // instead of handing back a device that silently diverges.
        let store = MemJournalStore::new();
        let exec = Executor::new(test_config(2));
        exec.attach_journal(Box::new(store.clone()), jconfig())
            .unwrap();
        let r = match exec.execute(Command::Alloc { len: 4 }).unwrap() {
            Outcome::Region(r) => r,
            other => panic!("{other:?}"),
        };
        exec.execute(Command::Write {
            region: r,
            offset: 0,
            raw: Cow::Owned(vec![9, 2, 7, 5]),
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.execute(Command::Init {
            region: r,
            offset: 0,
            len: 4,
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.inject_extract_fault(0, RimeError::NotInitialized);
        let err = exec
            .execute(Command::ExtractBatch {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
                k: 2,
            })
            .unwrap_err();
        assert_eq!(err, RimeError::NotInitialized);
        drop(exec);
        let err = Executor::recover(test_config(2), Box::new(store), jconfig()).unwrap_err();
        assert!(
            matches!(
                err,
                RimeError::Journal(rime_core::JournalError::ReplayDivergence { .. })
            ),
            "{err:?}"
        );
    }
}
