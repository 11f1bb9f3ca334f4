//! Cross-crate observability tests: the registry agrees with the
//! executor's own totals, and metrics snapshots are deterministic.
//!
//! The executor records each command once, under one lock, into its
//! built-in stats and its metrics registry. These tests drive a threaded
//! multi-chip `ExtractBatch` workload and check that the two tell one
//! story, then pin the determinism contract of
//! [`RimeDevice::metrics_snapshot`]: masked exports are byte-identical
//! across identical runs and across both [`ParallelPolicy`] values, and
//! the modeled chip-op metrics agree with the device's counters.

use std::borrow::Cow;
use std::sync::Arc;

use rime_core::{
    Command, Direction, DriverConfig, Executor, FlightConfig, KeyFormat, MetricValue, OpCounters,
    ParallelPolicy, RimeConfig, RimeDevice,
};
use rime_memristive::{ArrayTiming, ChipGeometry};
use rime_service::{RankingService, ServiceConfig, SessionHandle};

/// Four chips of 16 mats each, 1024 slots per chip.
fn config() -> RimeConfig {
    RimeConfig {
        channels: 2,
        chips_per_channel: 2,
        chip_geometry: ChipGeometry {
            banks: 1,
            subbanks_per_bank: 4,
            mats_per_subbank: 4,
            arrays_per_mat: 4,
            rows: 16,
            cols: 64,
        },
        timing: ArrayTiming::table1(),
        driver: DriverConfig::default(),
    }
}

fn keys(n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// Each `op` label of `rime_chip_ops_total` with its field of `c`.
fn ops(c: &OpCounters) -> [(&'static str, u64); 8] {
    [
        ("column_search_steps", c.column_search_steps),
        ("mat_column_searches", c.mat_column_searches),
        ("row_reads", c.row_reads),
        ("row_writes", c.row_writes),
        ("select_loads", c.select_loads),
        ("htree_traversals", c.htree_traversals),
        ("init_ops", c.init_ops),
        ("extractions", c.extractions),
    ]
}

#[test]
fn registry_and_device_stats_tell_one_story_under_concurrency() {
    let dev = RimeDevice::new(config());

    // One region per thread, spanning all four chips together, so
    // concurrent ExtractBatch commands race through the executor while
    // each one fans out across its own chips.
    let threads = 4;
    let per = dev.capacity() / threads;
    let regions: Vec<_> = (0..threads)
        .map(|_| dev.alloc(per).expect("alloc slice"))
        .collect();
    let dev = &dev;
    std::thread::scope(|scope| {
        for &region in &regions {
            scope.spawn(move || {
                let data = keys(per);
                dev.write_raw(region, 0, &data, KeyFormat::UNSIGNED64)
                    .expect("store");
                dev.init_raw(region, 0, per, KeyFormat::UNSIGNED64)
                    .expect("init");
                for k in [8usize, 16, 4] {
                    let hits = dev
                        .next_extremes_raw(region, KeyFormat::UNSIGNED64, Direction::Min, k)
                        .expect("batch");
                    assert_eq!(hits.len(), k);
                }
                let _ = dev.fifo_next_raw(region).expect("drain");
            });
        }
    });
    // An alloc per thread, then write, init, three batches and a drain.
    let issued = threads * (1 + 6);

    let snapshot = dev.metrics_snapshot();
    let per_chip = dev.per_chip_counters();
    let (mut commands, mut timed, mut seq, mut transfers) = (0, 0, None, None);
    let mut op_series = 0;
    for m in &snapshot.metrics {
        let label = |key: &str| {
            m.labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("{} lacks label {key}", m.name))
        };
        match (m.name.as_str(), &m.value) {
            ("rime_chip_ops_total", MetricValue::Counter(v)) => {
                let chip: usize = label("chip").parse().expect("numeric chip label");
                let field = ops(&per_chip[chip])
                    .into_iter()
                    .find(|(op, _)| *op == label("op"));
                assert_eq!(field.map(|(_, f)| f), Some(*v), "{:?}", m.labels);
                op_series += 1;
            }
            ("rime_commands_total", MetricValue::Counter(v)) => commands += v,
            ("rime_command_wall_ns", MetricValue::Histogram(h)) => timed += h.count,
            ("rime_events_seq", MetricValue::Gauge(v)) => seq = Some(*v),
            ("rime_interface_transfers_total", MetricValue::Counter(v)) => transfers = Some(*v),
            _ => {}
        }
    }
    // Every nonzero counter field has its series, and no other does.
    let nonzero = per_chip
        .iter()
        .flat_map(ops)
        .filter(|&(_, f)| f > 0)
        .count();
    assert_eq!(op_series, nonzero);
    assert!(per_chip.iter().all(|c| c.extractions > 0));
    assert_eq!(transfers, Some(dev.interface_transfers()));
    // One outcome and one wall-time sample per command; seq counts from 0.
    assert_eq!(commands, issued);
    assert_eq!(timed, issued);
    assert_eq!(seq, Some(issued as i64 - 1));
}

/// Runs a fixed instrumented multi-chip workload and returns the masked
/// metrics snapshot JSON.
fn masked_run(policy: ParallelPolicy) -> (String, rime_core::Snapshot, rime_core::OpCounters) {
    let dev = RimeDevice::new(config());
    dev.enable_extraction_metrics();
    dev.set_parallel_policy(policy);
    let n = dev.capacity();
    let region = dev.alloc(n).expect("alloc");
    let data = keys(n);
    dev.write_raw(region, 0, &data, KeyFormat::UNSIGNED64)
        .expect("store");
    dev.init_raw(region, 0, n, KeyFormat::UNSIGNED64)
        .expect("init");
    for k in [32usize, 8] {
        let hits = dev
            .next_extremes_raw(region, KeyFormat::UNSIGNED64, Direction::Min, k)
            .expect("batch");
        assert_eq!(hits.len(), k);
    }
    let snapshot = dev.metrics_snapshot();
    (snapshot.masked().to_json(false), snapshot, dev.counters())
}

/// Regression for an observability gap: the committed bench snapshots
/// are *masked* (nondeterministic series zeroed), which once hid that a
/// family of wall-clock probes never fired. Pin the unmasked truth for
/// the extraction phases: a batch lands nonzero sense and rearm wall
/// time, the chips rearm once per key (read from `OpCounters`, where
/// the device's work is counted), and masking zeroes the wall time but
/// keeps the modeled op counts.
#[test]
fn extraction_lands_nonzero_wall_clock_metrics() {
    let (_, snapshot, counters) = masked_run(ParallelPolicy::Auto);
    for phase in ["sense", "rearm"] {
        let (count, sum) = snapshot
            .metrics
            .iter()
            .filter(|m| {
                m.name == "rime_phase_wall_ns"
                    && m.labels.iter().any(|(k, v)| k == "phase" && v == phase)
            })
            .fold((0, 0), |(c, t), m| {
                assert!(m.nondeterministic, "wall time is flagged nondeterministic");
                match &m.value {
                    MetricValue::Histogram(h) => (c + h.count, t + h.sum),
                    other => panic!("{phase} wall time is not a histogram: {other:?}"),
                }
            });
        assert!(
            count > 0 && sum > 0,
            "extraction recorded no {phase} wall time"
        );
    }
    // Every rearm and every index reduction walks the H-tree once, and
    // so does each `init`; what is left is one rearm per extracted key
    // (no call here ran its range dry).
    let rearms = counters.htree_traversals - counters.extractions - counters.init_ops;
    assert_eq!(rearms, counters.extractions, "one rearm per extracted key");

    // Masking — the determinism contract — zeroes the wall time and
    // leaves the modeled op counts as they were.
    let masked = snapshot.masked();
    for (m, live) in masked.metrics.iter().zip(&snapshot.metrics) {
        match (m.name.as_str(), &m.value) {
            ("rime_phase_wall_ns", MetricValue::Histogram(h)) => assert_eq!(h.count, 0),
            ("rime_chip_ops_total", value) => assert_eq!(value, &live.value),
            _ => {}
        }
    }
}

/// Sums the observation counts of the whole
/// `rime_service_attribution_ns` histogram family.
fn attribution_observations(service: &RankingService) -> u64 {
    service
        .executor()
        .metrics_snapshot()
        .metrics
        .iter()
        .filter(|m| m.name == "rime_service_attribution_ns")
        .map(|m| match &m.value {
            MetricValue::Histogram(h) => h.count,
            other => panic!("attribution is not a histogram: {other:?}"),
        })
        .sum()
}

/// Attribution observations are buffered in a per-session shard and
/// only merged into the shared histograms every 128 observations, when
/// a [`SessionHandle`] drops, or at service shutdown — so the exported
/// family is exact only once the handles are gone. Pin both halves:
/// a small session stays invisible until dropped, and dropping every
/// handle accounts for exactly four phase observations per command.
#[test]
fn attribution_histograms_flush_on_session_drop() {
    let exec = Arc::new(Executor::new(RimeConfig::small()));
    let service =
        RankingService::with_flight(exec, ServiceConfig::default(), FlightConfig::default());
    let session = service.session();
    let total = 5u64;
    let region = {
        let mut got = None;
        session
            .submit(Command::Alloc { len: total })
            .expect("alloc");
        service.process_pending();
        for c in session.reap(1) {
            if let Ok(rime_core::Outcome::Region(r)) = c.result {
                got = Some(r);
            }
        }
        got.expect("alloc outcome")
    };
    let sync = |session: &SessionHandle, command: Command<'static>| {
        session.submit(command).expect("submit");
        service.process_pending();
        assert_eq!(session.reap(1).len(), 1);
    };
    sync(
        &session,
        Command::Write {
            region,
            offset: 0,
            raw: Cow::Owned(keys(total)),
            format: KeyFormat::UNSIGNED64,
        },
    );
    sync(
        &session,
        Command::Init {
            region,
            offset: 0,
            len: total,
            format: KeyFormat::UNSIGNED64,
        },
    );
    for _ in 0..total {
        sync(
            &session,
            Command::Extract {
                region,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
            },
        );
    }
    // 8 commands × 4 phase observations = 32 buffered — far below the
    // 128-observation flush threshold, so nothing has been merged yet.
    assert_eq!(
        attribution_observations(&service),
        0,
        "attribution shard leaked before the session ended"
    );
    drop(session);
    assert_eq!(
        attribution_observations(&service),
        (3 + total) * 4,
        "dropping the handle must flush four phase observations per command"
    );
}

#[test]
fn masked_snapshots_are_byte_identical_across_runs() {
    let (first, _, _) = masked_run(ParallelPolicy::Auto);
    let (second, _, _) = masked_run(ParallelPolicy::Auto);
    assert_eq!(
        first, second,
        "identical workloads must export identical masked snapshots"
    );
    let (oracle, _, _) = masked_run(ParallelPolicy::Sequential);
    assert_eq!(
        first, oracle,
        "Auto and Sequential must export identical masked snapshots"
    );
}

/// The modeled chip-op metrics are a scheduling-independent quantity:
/// both `ParallelPolicy` values must report bit-identical
/// `rime_chip_ops_total` samples, and they must agree with the device's
/// own `OpCounters`.
#[test]
fn chip_op_metrics_are_policy_independent_and_match_counters() {
    type OpSamples = Vec<(Vec<(String, String)>, u64)>;
    let mut baseline: Option<OpSamples> = None;
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Auto] {
        let (_, snapshot, counters) = masked_run(policy);
        let ops: OpSamples = snapshot
            .metrics
            .iter()
            .filter(|m| m.name == "rime_chip_ops_total")
            .map(|m| match m.value {
                MetricValue::Counter(v) => (m.labels.clone(), v),
                ref other => panic!("rime_chip_ops_total is not a counter: {other:?}"),
            })
            .collect();
        assert!(!ops.is_empty(), "chip op metrics were recorded");
        // Per-op totals across chips must equal the device counters.
        let total_for = |op: &str| -> u64 {
            ops.iter()
                .filter(|(labels, _)| labels.iter().any(|(k, v)| k == "op" && v == op))
                .map(|&(_, v)| v)
                .sum()
        };
        assert_eq!(
            total_for("column_search_steps"),
            counters.column_search_steps
        );
        assert_eq!(total_for("extractions"), counters.extractions);
        match &baseline {
            None => baseline = Some(ops),
            Some(first) => assert_eq!(
                first, &ops,
                "{policy:?} produced different chip-op metrics than Sequential"
            ),
        }
    }
}
