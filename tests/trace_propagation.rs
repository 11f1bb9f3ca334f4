//! Causal-tracing invariants under randomized multi-tenant workloads:
//! whatever the submission interleave, fusion grouping, and DRR
//! deferral decide, the trace plane must stay structurally sound.
//!
//! Three properties, each over scripted manual-mode workloads (round
//! `r`: each tenant submits `script[r][t]` extracts, one dispatch pass
//! runs, every tenant reaps — so traces exercise fusion, deferral, and
//! cq_wait on every round):
//!
//! 1. **One terminal `cq_wait` per command.** Every reaped completion
//!    is attributed, trace ids are unique, the four phases tile the
//!    total exactly, and the flight recorder holds exactly one
//!    `cq_wait` span per trace — reaping is the only exit.
//! 2. **Fusion links partition the absorbed requests.** The `link`
//!    events collectively name each absorbed member's root span at
//!    most once, every named span is a known request root, each link
//!    hangs off a recorded `fused_batch` umbrella span, and the link
//!    count equals the `rime_service_fused_commands_total` counter.
//! 3. **One `device` span per chip call.** With extraction probes on,
//!    every dispatched extraction unit — a single `Extract` (under its
//!    request root) or a fused batch (under its `fused_batch` span) —
//!    holds exactly one `device` span per spanned chip; with probes off,
//!    none. (Properties 1–3 run with probes off and on.)
//! 4. **Tracing is invisible to the modeled-metric contract.** Masked
//!    metrics snapshots are byte-identical with the recorder on vs off
//!    and across `ParallelPolicy` values — the observability plane
//!    must not perturb deterministic device accounting.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use rime_core::{
    Command, Direction, Executor, FlightConfig, KeyFormat, MetricValue, Outcome, ParallelPolicy,
    PhaseTag, Region, RimeConfig,
};
use rime_service::{Attribution, Completion, RankingService, ServiceConfig, SessionHandle};

const FMT: KeyFormat = KeyFormat::UNSIGNED64;

/// Manual-mode synchronous call: submit, run one pass, reap one.
fn call(service: &RankingService, session: &SessionHandle, command: Command<'static>) -> Outcome {
    session.submit(command).expect("setup submit");
    service.process_pending();
    let mut got = session.reap(1);
    got.pop()
        .expect("setup completion")
        .result
        .expect("setup command")
}

/// Runs one scripted workload in manual dispatch mode. `script[r][t]`
/// is how many extracts tenant `t` submits in round `r`; every round
/// ends with one dispatch pass and a full reap by every tenant;
/// `probes` turns on the chips' extraction probes. Returns the service
/// (snapshot/recorder still attached), every worker completion with its
/// attribution, and the chips the shared region spans.
fn run_script(
    policy: ParallelPolicy,
    traced: bool,
    probes: bool,
    script: &[Vec<u8>],
) -> (RankingService, Vec<(Completion, Option<Attribution>)>, u64) {
    let tenants = script.first().map(Vec::len).unwrap_or(0);
    let total: u64 = script
        .iter()
        .flat_map(|round| round.iter())
        .map(|&n| u64::from(n))
        .sum();
    let exec = Arc::new(Executor::new(RimeConfig::small()));
    exec.set_parallel_policy(policy);
    let config = ServiceConfig::default();
    let service = if traced {
        RankingService::with_flight(exec, config, FlightConfig::default())
    } else {
        RankingService::new(exec, config)
    };
    if probes {
        service.executor().enable_extraction_probes();
    }

    let setup = service.session();
    let region = match call(&service, &setup, Command::Alloc { len: total.max(1) }) {
        Outcome::Region(r) => r,
        other => panic!("alloc: {other:?}"),
    };
    let keys: Vec<u64> = (0..total.max(1))
        .map(|i| (i * 2654435761) % 1_000_003)
        .collect();
    call(
        &service,
        &setup,
        Command::Write {
            region,
            offset: 0,
            raw: Cow::Owned(keys),
            format: FMT,
        },
    );
    call(
        &service,
        &setup,
        Command::Init {
            region,
            offset: 0,
            len: total.max(1),
            format: FMT,
        },
    );

    let extract = |region: Region| Command::Extract {
        region,
        format: FMT,
        direction: Direction::Min,
    };
    let sessions: Vec<SessionHandle> = (0..tenants).map(|_| service.session()).collect();
    let mut out = Vec::with_capacity(total as usize);
    for round in script {
        for (session, &n) in sessions.iter().zip(round) {
            for _ in 0..n {
                session.submit(extract(region)).expect("worker submit");
            }
        }
        service.process_pending();
        for session in &sessions {
            out.extend(session.reap_attributed(usize::MAX));
        }
    }
    // Tail drain: nothing scripted may remain in flight.
    while service.process_pending() > 0 {}
    for session in &sessions {
        out.extend(session.reap_attributed(usize::MAX));
    }
    let chip_slots = service.executor().config().chip_slots();
    let chips = (region.start() + region.len() - 1) / chip_slots - region.start() / chip_slots + 1;
    (service, out, chips)
}

/// Strategy: 2–4 tenants, 1–5 rounds, 0–3 submits per tenant-round,
/// with at least one command overall.
fn scripts() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (
        2usize..=4,
        prop::collection::vec(prop::collection::vec(0u8..=3, 4..=4), 1..=5),
    )
        .prop_map(|(tenants, rows)| {
            let mut script: Vec<Vec<u8>> = rows
                .into_iter()
                .map(|mut row| {
                    row.truncate(tenants);
                    row
                })
                .collect();
            if script.iter().flatten().all(|&n| n == 0) {
                script[0][0] = 1;
            }
            script
        })
}

fn fused_commands_total(service: &RankingService) -> u64 {
    service
        .executor()
        .metrics_snapshot()
        .metrics
        .iter()
        .filter(|m| m.name == "rime_service_fused_commands_total")
        .map(|m| match &m.value {
            MetricValue::Counter(v) => *v,
            _ => 0,
        })
        .sum()
}

/// Properties 1–3 over one scripted run, traced, with extraction
/// probes off or on.
fn check_spans(script: &[Vec<u8>], probes: bool) -> TestCaseResult {
    let (service, completions, chips) =
        run_script(ParallelPolicy::Sequential, true, probes, script);
    let total: usize = script.iter().flatten().map(|&n| usize::from(n)).sum();
    prop_assert_eq!(completions.len(), total, "every submitted command reaps");

    let mut traces = HashSet::new();
    for (c, attr) in &completions {
        prop_assert!(attr.is_some(), "ordinal {} unattributed", c.ordinal);
        let attr = attr.as_ref().unwrap();
        prop_assert!(traces.insert(attr.trace), "trace id reused");
        let sum = attr.sq_wait_ns + attr.queue_wait_ns + attr.dispatch_ns + attr.cq_wait_ns;
        prop_assert_eq!(sum, attr.total_ns(), "phases tile the total");
    }

    let recorder = service.flight().expect("traced service has a recorder");
    let snap = recorder.snapshot();
    prop_assert_eq!(snap.overwritten, 0, "workload fits the ring");

    // 1. Exactly one terminal cq_wait per trace.
    let mut exits: HashMap<u64, usize> = HashMap::new();
    for e in &snap.events {
        if e.phase == PhaseTag::CqWait {
            *exits.entry(e.trace).or_default() += 1;
        }
    }
    for &trace in &traces {
        prop_assert_eq!(
            exits.get(&trace).copied().unwrap_or(0),
            1,
            "trace {} must exit exactly once",
            trace
        );
    }
    // The setup session's alloc/write/init are traced too; beyond
    // those three, every exit belongs to a scripted command.
    prop_assert_eq!(exits.len(), traces.len() + 3, "no stray cq_wait spans");
    prop_assert!(
        exits.values().all(|&n| n == 1),
        "every command (setup included) exits exactly once"
    );

    // 2. Links partition the absorbed members. A request's root
    // span id equals its trace id (`FlightRecorder::root`), so
    // link targets must be distinct known roots, and the link
    // count must match the fusion counter exactly.
    let mut linked = HashSet::new();
    let mut link_count = 0u64;
    for e in snap.events.iter().filter(|e| e.phase == PhaseTag::Link) {
        link_count += 1;
        prop_assert!(
            traces.contains(&e.linked),
            "link names a known request root"
        );
        prop_assert!(linked.insert(e.linked), "member absorbed twice");
        prop_assert!(
            snap.events
                .iter()
                .any(|u| u.span == e.span && u.phase == PhaseTag::FusedBatch),
            "link hangs off a recorded fused_batch span"
        );
    }
    prop_assert_eq!(
        link_count,
        fused_commands_total(&service),
        "links == fused commands counter"
    );

    // 3. Device spans hang off extraction units only: a request
    // that was not absorbed ran as a single under its root span (its
    // trace id), and a fused batch ran under its umbrella span.
    let mut device: HashMap<u64, usize> = HashMap::new();
    for e in snap.events.iter().filter(|e| e.phase == PhaseTag::Device) {
        *device.entry(e.parent).or_default() += 1;
    }
    let singles = traces.iter().filter(|t| !linked.contains(*t)).copied();
    let fused = snap
        .events
        .iter()
        .filter(|e| e.phase == PhaseTag::FusedBatch)
        .map(|e| e.span);
    let want = if probes { chips as usize } else { 0 };
    for unit in singles.chain(fused) {
        prop_assert_eq!(
            device.remove(&unit).unwrap_or(0),
            want,
            "device spans under unit {} (probes {})",
            unit,
            probes
        );
    }
    prop_assert!(device.is_empty(), "stray device spans: {:?}", device);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Properties 1–3: span accounting, fusion-link partition, and one
    /// device span per chip call.
    #[test]
    fn every_command_exits_once_and_links_partition(script in scripts()) {
        check_spans(&script, false)?;
        check_spans(&script, true)?;
    }

    /// Property 4: masked snapshots are byte-identical recorder on vs
    /// off and across parallel policies.
    #[test]
    fn masked_snapshot_ignores_tracing_and_policy(script in scripts()) {
        let (baseline, _, _) = run_script(ParallelPolicy::Sequential, false, false, &script);
        let want = baseline.executor().metrics_snapshot().masked().to_json(false);
        drop(baseline);
        for (policy, traced) in [
            (ParallelPolicy::Sequential, true),
            (ParallelPolicy::Auto, true),
            (ParallelPolicy::Auto, false),
        ] {
            let (service, _, _) = run_script(policy, traced, false, &script);
            let got = service.executor().metrics_snapshot().masked().to_json(false);
            prop_assert_eq!(
                &got,
                &want,
                "masked snapshot differs (policy {:?}, traced {})",
                policy,
                traced
            );
        }
    }
}
