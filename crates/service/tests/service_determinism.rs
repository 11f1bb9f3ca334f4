//! The service determinism contract (ISSUE 9 acceptance):
//!
//! 1. a fused cross-tenant batch executes literally one
//!    `Command::ExtractBatch`, so its results and `OpCounters` are
//!    bit-identical to an equivalent direct batch call;
//! 2. fusion never changes answers: per-tenant results under fused
//!    dispatch equal per-tenant results under naive (fusion-off)
//!    dispatch for the same submission history;
//! 3. a single tenant submitting serially observes byte-identical
//!    results to driving `RimeDevice` directly;
//! 4. admission control bounds outstanding commands and recovers after
//!    reaping;
//! 5. completions always arrive in per-tenant ordinal order;
//! 6. the executor runs a pass's work units one after another in DRR
//!    pass order, whatever chips they touch;
//! 7. a submit that races `shutdown` either completes or is refused.
//!
//! All multi-arm tests drive the service in *manual* mode
//! (`process_pending`), where the pass composition is a pure function
//! of the submission history.

use std::borrow::Cow;
use std::sync::{Arc, Barrier};

use rime_core::metrics::MetricValue;
use rime_core::{
    journal, Command, Direction, Executor, JournalConfig, JournalRecord, KeyFormat,
    MemJournalStore, Outcome, Region, RimeConfig, RimeDevice,
};
use rime_service::{Completion, RankingService, ServiceConfig, SessionHandle, SubmitError};

const FMT: KeyFormat = KeyFormat::UNSIGNED64;

fn keys(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 2654435761) % 100_003).collect()
}

fn region_of(completion: &Completion) -> Region {
    match &completion.result {
        Ok(Outcome::Region(region)) => *region,
        other => panic!("expected a region, got {other:?}"),
    }
}

fn extract(region: Region) -> Command<'static> {
    Command::Extract {
        region,
        format: FMT,
        direction: Direction::Min,
    }
}

/// Allocates, writes, and inits an `n`-key region through `session`,
/// completing each step with its own pass (the region handle feeds the
/// next command). Returns the region.
fn setup_region(service: &RankingService, session: &SessionHandle, n: usize) -> Region {
    session
        .submit(Command::Alloc { len: n as u64 })
        .expect("alloc");
    assert_eq!(service.process_pending(), 1);
    let region = region_of(&session.reap(1)[0]);
    session
        .submit(Command::Write {
            region,
            offset: 0,
            raw: Cow::Owned(keys(n)),
            format: FMT,
        })
        .expect("write");
    session
        .submit(Command::Init {
            region,
            offset: 0,
            len: n as u64,
            format: FMT,
        })
        .expect("init");
    assert_eq!(service.process_pending(), 2);
    for c in session.reap(2) {
        assert_eq!(c.result, Ok(Outcome::Done));
    }
    region
}

/// Reads a counter value out of a metrics snapshot.
fn counter_value(exec: &Executor, name: &str) -> u64 {
    let snapshot = exec.metrics_snapshot();
    snapshot
        .metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| match &m.value {
            MetricValue::Counter(v) => *v,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

/// `tenants` sessions each submit `per_tenant` extracts, in tenant
/// order, before one pass; returns every completion, tenant by tenant.
fn fan_extracts(
    service: &RankingService,
    region: Region,
    tenants: usize,
    per_tenant: usize,
) -> Vec<Completion> {
    let sessions: Vec<SessionHandle> = (0..tenants).map(|_| service.session()).collect();
    for s in &sessions {
        for _ in 0..per_tenant {
            s.submit(extract(region)).expect("extract");
        }
    }
    assert_eq!(service.process_pending(), tenants * per_tenant);
    sessions
        .iter()
        .flat_map(|s| {
            let got = s.reap(per_tenant + 1);
            assert_eq!(got.len(), per_tenant, "every extract completes");
            got
        })
        .collect()
}

#[test]
fn fused_batch_is_bit_identical_to_direct_extract_batch() {
    // (tenants, extracts per tenant, region keys, and the pinned
    // drained / fused-batch / fused-command counters). Setup drains
    // three commands; at `max_fuse` 64, 8 × 64 extracts fuse into eight
    // full batches — the saturated shape of the open-loop service bench.
    for (tenants, per_tenant, n, drained, batches, fused_commands) in [
        (8usize, 1usize, 64usize, 11, 1, 8),
        (8, 64, 512, 515, 8, 512),
    ] {
        let k = tenants * per_tenant;
        let max_fuse = ServiceConfig::default().max_fuse;

        // Arm 1: direct executor issuing the equivalent ExtractBatches.
        let direct = Executor::new(RimeConfig::small());
        let region = match direct.execute(Command::Alloc { len: n as u64 }) {
            Ok(Outcome::Region(r)) => r,
            other => panic!("alloc: {other:?}"),
        };
        direct
            .execute(Command::Write {
                region,
                offset: 0,
                raw: Cow::Owned(keys(n)),
                format: FMT,
            })
            .expect("write");
        direct
            .execute(Command::Init {
                region,
                offset: 0,
                len: n as u64,
                format: FMT,
            })
            .expect("init");
        let mut direct_hits = Vec::with_capacity(k);
        for _ in 0..k.div_ceil(max_fuse) {
            match direct.execute(Command::ExtractBatch {
                region,
                format: FMT,
                direction: Direction::Min,
                k: max_fuse.min(k),
            }) {
                Ok(Outcome::Hits(hits)) => direct_hits.extend(hits),
                other => panic!("batch: {other:?}"),
            }
        }
        assert_eq!(direct_hits.len(), k);

        // Arm 2: fused service — every tenant's extracts in one pass.
        let fused = RankingService::with_device(RimeConfig::small(), ServiceConfig::default());
        let setup = fused.session();
        let fregion = setup_region(&fused, &setup, n);
        let fused_results = fan_extracts(&fused, fregion, tenants, per_tenant);

        // Arm 3: naive service — identical submission history, fusion off.
        let naive = RankingService::with_device(
            RimeConfig::small(),
            ServiceConfig {
                max_fuse: 1,
                ..ServiceConfig::default()
            },
        );
        let nsetup = naive.session();
        let nregion = setup_region(&naive, &nsetup, n);
        let naive_results = fan_extracts(&naive, nregion, tenants, per_tenant);

        // Fusion must not change any tenant's answer.
        assert_eq!(fused_results, naive_results, "fused == naive per tenant");

        // The pass drained everything and fused it into full batches.
        let exec = fused.executor();
        assert_eq!(
            [
                counter_value(exec, "rime_service_drained_total"),
                counter_value(exec, "rime_service_fused_batches_total"),
                counter_value(exec, "rime_service_fused_commands_total"),
            ],
            [drained, batches, fused_commands],
            "{tenants} tenants × {per_tenant}"
        );

        // Every extract hit, with the direct batches' extremes:
        // successive minima are unique here, so sorting the per-tenant
        // hits by raw bits must reproduce the extraction order exactly.
        let mut fused_hits: Vec<(u64, u64)> = fused_results
            .iter()
            .map(|c| match &c.result {
                Ok(Outcome::Hit(Some(hit))) => *hit,
                other => panic!("expected a hit, got {other:?}"),
            })
            .collect();
        fused_hits.sort_by_key(|&(_, raw)| raw);
        assert_eq!(fused_hits, direct_hits, "same hits as the direct batches");

        // Bit-identical device effects: the fused arm executed exactly
        // [Alloc, Write, Init, ExtractBatch{..}, ...] — the direct arm's
        // stream.
        assert_eq!(exec.counters(), direct.counters(), "OpCounters");
        assert_eq!(
            exec.per_chip_counters(),
            direct.per_chip_counters(),
            "per-chip OpCounters"
        );
        assert_eq!(exec.interface_transfers(), direct.interface_transfers());
        assert_eq!(exec.chip_states(), direct.chip_states());
    }
}

#[test]
fn fused_exhaustion_hands_overflow_members_none() {
    let n = 4usize;
    let tenants = 7usize;

    let fused = RankingService::with_device(RimeConfig::small(), ServiceConfig::default());
    let setup = fused.session();
    let region = setup_region(&fused, &setup, n);
    let fused_results = fan_extracts(&fused, region, tenants, 1);

    let naive = RankingService::with_device(
        RimeConfig::small(),
        ServiceConfig {
            max_fuse: 1,
            ..ServiceConfig::default()
        },
    );
    let nsetup = naive.session();
    let nregion = setup_region(&naive, &nsetup, n);
    let naive_results = fan_extracts(&naive, nregion, tenants, 1);

    assert_eq!(fused_results, naive_results, "fused == naive per tenant");
    let somes = fused_results
        .iter()
        .filter(|c| matches!(c.result, Ok(Outcome::Hit(Some(_)))))
        .count();
    let nones = fused_results
        .iter()
        .filter(|c| matches!(c.result, Ok(Outcome::Hit(None))))
        .count();
    assert_eq!((somes, nones), (n, tenants - n), "range exhausts mid-group");
}

#[test]
fn single_tenant_serial_is_byte_identical_to_device() {
    let n = 48usize;
    let device = RimeDevice::new(RimeConfig::small());
    let service = RankingService::with_device(RimeConfig::small(), ServiceConfig::default());
    let session = service.session();

    // Both arms run this script step by step; the region handle is
    // discovered from step 0 and must match (fresh devices, same
    // allocator state).
    let run_both = |command: Command<'static>| {
        let direct = device.execute(command.clone());
        session.submit(command).expect("submit");
        assert_eq!(service.process_pending(), 1);
        let mut got = session.reap(1);
        let ring = got.pop().expect("one completion").result;
        assert_eq!(ring, direct, "ring result == direct device result");
        direct
    };

    let region = match run_both(Command::Alloc { len: n as u64 }) {
        Ok(Outcome::Region(r)) => r,
        other => panic!("alloc: {other:?}"),
    };
    run_both(Command::Write {
        region,
        offset: 0,
        raw: Cow::Owned(keys(n)),
        format: FMT,
    })
    .expect("write");
    run_both(Command::Init {
        region,
        offset: 0,
        len: n as u64,
        format: FMT,
    })
    .expect("init");
    for _ in 0..3 {
        run_both(extract(region)).expect("extract");
    }
    run_both(Command::FifoNext { region }).expect("fifo");
    run_both(Command::ExtractBatch {
        region,
        format: FMT,
        direction: Direction::Min,
        k: 5,
    })
    .expect("batch");
    // Errors must match bit for bit too.
    assert!(run_both(Command::Extract {
        region,
        format: KeyFormat::FLOAT64,
        direction: Direction::Min,
    })
    .is_err());
    assert!(run_both(Command::Write {
        region,
        offset: n as u64 + 1,
        raw: Cow::Owned(vec![1]),
        format: FMT,
    })
    .is_err());
    run_both(Command::Read {
        region,
        offset: 0,
        n: n as u64,
    })
    .expect("read");
    run_both(Command::Free { region }).expect("free");
    assert!(run_both(extract(region)).is_err(), "stale handle");

    // Identical command streams → identical device state and counters.
    assert_eq!(service.executor().counters(), device.counters());
    assert_eq!(
        service.executor().per_chip_counters(),
        device.per_chip_counters()
    );
    assert_eq!(
        service.executor().interface_transfers(),
        device.interface_transfers()
    );
    assert_eq!(service.executor().chip_states(), device.chip_states());
    assert_eq!(service.executor().allocation_map(), device.allocation_map());
}

#[test]
fn admission_control_bounds_outstanding_and_recovers() {
    let service = RankingService::with_device(
        RimeConfig::small(),
        ServiceConfig {
            queue_depth: 4,
            ..ServiceConfig::default()
        },
    );
    let session = service.session();
    for _ in 0..4 {
        session
            .submit(Command::Alloc { len: 1 })
            .expect("under depth");
    }
    assert_eq!(
        session.submit(Command::Alloc { len: 1 }),
        Err(SubmitError::Busy),
        "SQ full"
    );
    assert_eq!(service.process_pending(), 4);
    // Completed but unreaped still counts against the bound.
    assert_eq!(
        session.submit(Command::Alloc { len: 1 }),
        Err(SubmitError::Busy),
        "unreaped CQ counts"
    );
    assert_eq!(session.reap(4).len(), 4);
    session
        .submit(Command::Alloc { len: 1 })
        .expect("slot freed");
    assert!(counter_value(service.executor(), "rime_service_busy_total") >= 2);
}

#[test]
fn completions_arrive_in_ordinal_order_per_tenant() {
    let service = RankingService::with_device(RimeConfig::small(), ServiceConfig::default());
    let setup = service.session();
    let region = setup_region(&service, &setup, 32);

    // Tenant A mixes extracts with a barrier (FifoNext); tenant B
    // extracts throughout. Fusion reorders execution, completion
    // posting must still restore ordinal order.
    let a = service.session();
    let b = service.session();
    a.submit(extract(region)).expect("a0");
    b.submit(extract(region)).expect("b0");
    a.submit(Command::FifoNext { region }).expect("a1");
    b.submit(extract(region)).expect("b1");
    a.submit(extract(region)).expect("a2");
    let done = service.process_pending();
    assert_eq!(done, 5);
    let a_ordinals: Vec<u64> = a.reap(8).iter().map(|c| c.ordinal).collect();
    let b_ordinals: Vec<u64> = b.reap(8).iter().map(|c| c.ordinal).collect();
    assert_eq!(a_ordinals, [0, 1, 2]);
    assert_eq!(b_ordinals, [0, 1]);
}

#[test]
fn started_mode_serves_concurrent_tenants() {
    let service = Arc::new(RankingService::with_device(
        RimeConfig::small(),
        ServiceConfig::default(),
    ));
    service.start();
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let session = service.session();
                let n = 16u64;
                let region = match session.call(Command::Alloc { len: n }) {
                    Ok(Outcome::Region(r)) => r,
                    other => panic!("tenant {t} alloc: {other:?}"),
                };
                session
                    .call(Command::Write {
                        region,
                        offset: 0,
                        raw: Cow::Owned(keys(n as usize)),
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
                let mut prev = None;
                for _ in 0..n {
                    match session.call(extract(region)) {
                        Ok(Outcome::Hit(Some((_, raw)))) => {
                            if let Some(p) = prev {
                                assert!(raw >= p, "minima are non-decreasing");
                            }
                            prev = Some(raw);
                        }
                        other => panic!("tenant {t} extract: {other:?}"),
                    }
                }
                session.call(Command::Free { region }).expect("free");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("tenant thread");
    }
    service.shutdown();
    let submitted = counter_value(service.executor(), "rime_service_submissions_total");
    let completed = counter_value(service.executor(), "rime_service_completions_total");
    assert_eq!(submitted, completed, "every accepted command completed");
    assert_eq!(submitted, 4 * (16 + 4));
}

/// Allocates three chip-sized regions on a fresh small executor — one
/// per chip 0, 1 and 2 — and writes and inits 64 keys in the first two.
fn three_chip_regions(exec: &Executor) -> [Region; 3] {
    let chip_slots = exec.config().chip_slots();
    let regions = [0, 1, 2].map(|_| match exec.execute(Command::Alloc { len: chip_slots }) {
        Ok(Outcome::Region(r)) => r,
        other => panic!("alloc: {other:?}"),
    });
    for (salt, &region) in regions[..2].iter().enumerate() {
        let raw: Vec<u64> = keys(64).iter().map(|k| k ^ salt as u64).collect();
        exec.execute(Command::Write {
            region,
            offset: 0,
            raw: Cow::Owned(raw),
            format: FMT,
        })
        .expect("write");
        exec.execute(Command::Init {
            region,
            offset: 0,
            len: 64,
            format: FMT,
        })
        .expect("init");
    }
    regions
}

#[test]
fn a_pass_executes_its_units_in_drr_pass_order() {
    // Regions on chips 0, 1 and 2, set up before the journal attaches,
    // so the journal's intents are exactly the pass under test.
    let exec = Arc::new(Executor::new(RimeConfig::small()));
    let [a, b, c] = three_chip_regions(&exec);
    let store = MemJournalStore::new();
    exec.attach_journal(Box::new(store.clone()), JournalConfig::default())
        .expect("attach journal");
    let config = ServiceConfig {
        drr_quantum: 1,
        ..ServiceConfig::default()
    };
    let service = RankingService::new(Arc::clone(&exec), config);
    let tenants: Vec<SessionHandle> = (0..3).map(|_| service.session()).collect();
    let batch = Command::ExtractBatch {
        region: a,
        format: FMT,
        direction: Direction::Min,
        k: 2,
    };
    // Per tenant, in submit order. Fusion keeps all five apart: the
    // batch is a barrier for region `a`, and nothing else shares a key.
    let submitted = [
        vec![extract(a), Command::Free { region: c }],
        vec![batch.clone()],
        vec![extract(b), Command::Alloc { len: 64 }],
    ];
    for (tenant, commands) in tenants.iter().zip(&submitted) {
        for command in commands {
            tenant.submit(command.clone()).expect("submit");
        }
    }
    assert_eq!(service.process_pending(), 5);

    // Quantum 1 from cursor 0 releases one command per tenant per turn.
    // `extract(b)` touches only chip 1, so a schedule that ran
    // chip-disjoint units side by side could start it before the batch
    // on chip 0; the order pinned here leaves no such freedom.
    let pass_order = [
        extract(a),
        batch,
        extract(b),
        Command::Free { region: c },
        Command::Alloc { len: 64 },
    ];
    let intents: Vec<Command<'static>> = journal::scan(&store.snapshot())
        .expect("journal scans clean")
        .records
        .into_iter()
        .filter_map(|(_, record)| match record {
            JournalRecord::Intent { command, .. } => Some(command),
            _ => None,
        })
        .collect();
    assert_eq!(intents, pass_order, "the executor saw the pass order");

    // Every completion equals the same order run serially on a fresh
    // executor with the same setup.
    let serial = Executor::new(RimeConfig::small());
    assert_eq!(three_chip_regions(&serial), [a, b, c]);
    let want: Vec<_> = pass_order
        .iter()
        .map(|command| serial.execute(command.clone()))
        .collect();
    // (tenant, ordinal) of each pass-order position.
    let positions = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)];
    let mut checked = 0;
    for (tenant, session) in tenants.iter().enumerate() {
        for completion in session.reap(4) {
            let position = positions
                .iter()
                .position(|&p| p == (tenant, completion.ordinal))
                .expect("a submitted ordinal");
            assert_eq!(
                completion.result, want[position],
                "tenant {tenant} ordinal {}",
                completion.ordinal
            );
            checked += 1;
        }
    }
    assert_eq!(checked, pass_order.len(), "every command completed");
    assert_eq!(exec.per_chip_counters(), serial.per_chip_counters());
    assert_eq!(exec.allocation_map(), serial.allocation_map());
}

#[test]
fn submits_racing_shutdown_either_complete_or_are_refused() {
    // Submitters loop while another thread shuts the started service
    // down, all released by one barrier. Every accepted ordinal must
    // come back on its session's CQ once `shutdown` has returned, and no
    // session may keep a queue-depth slot after its CQ is drained.
    const SUBMITTERS: usize = 3;
    for round in 0..16 {
        let service = RankingService::with_device(RimeConfig::small(), ServiceConfig::default());
        let admin = service.session();
        admin.submit(Command::Alloc { len: 4 }).expect("alloc");
        assert_eq!(service.process_pending(), 1);
        let region = region_of(&admin.reap(1)[0]);
        service.start();
        let sessions: Vec<SessionHandle> = (0..SUBMITTERS).map(|_| service.session()).collect();
        let barrier = Barrier::new(SUBMITTERS + 1);
        let runs: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
            let submitters: Vec<_> = sessions
                .iter()
                .map(|session| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let read = Command::Read {
                            region,
                            offset: 0,
                            n: 1,
                        };
                        let (mut accepted, mut reaped) = (Vec::new(), Vec::new());
                        barrier.wait();
                        loop {
                            match session.submit(read.clone()) {
                                Ok(ordinal) => accepted.push(ordinal),
                                Err(SubmitError::Busy) => reaped
                                    .extend(session.reap(usize::MAX).iter().map(|c| c.ordinal)),
                                Err(SubmitError::Closed) => break,
                            }
                        }
                        (accepted, reaped)
                    })
                })
                .collect();
            barrier.wait();
            service.shutdown();
            submitters
                .into_iter()
                .map(|t| t.join().expect("submitter"))
                .collect()
        });
        for (session, (accepted, mut reaped)) in sessions.iter().zip(runs) {
            reaped.extend(session.reap(usize::MAX).iter().map(|c| c.ordinal));
            assert_eq!(reaped, accepted, "round {round}: accepted == completed");
            assert_eq!(session.outstanding(), 0, "round {round}");
        }
    }
}
