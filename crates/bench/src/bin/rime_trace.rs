//! `rime-trace`: drive a fixed traced service workload and export the
//! flight recorder.
//!
//! The workload is four tenants submitting single-key `Extract`s on one
//! shared region through the ring service in manual dispatch mode, with
//! the flight recorder attached and extraction probes enabled — every
//! request trace runs the full `sq_wait → drain/fusion_wait/drr_defer →
//! dispatch → cq_wait` tiling, fused batches emit link events, and each
//! chip extraction call contributes one `device` span under the
//! dispatched command.
//!
//! ```text
//! rime-trace [--export chrome] [--selfcheck]
//! ```
//!
//! * no flags — run the workload and print the per-phase totals table
//!   (the text analogue of the Perfetto track view);
//! * `--export chrome` — print the snapshot as Chrome trace-event JSON
//!   (load it in `chrome://tracing` or <https://ui.perfetto.dev>),
//!   validated through the in-repo parser before printing;
//! * `--selfcheck` — validate the whole trace plane and exit nonzero on
//!   any failure (the CI smoke gate): exporter round-trip, one terminal
//!   `cq_wait` per request, fusion links partition the absorbed
//!   requests, ring overwrite accounting, and masked metrics snapshots
//!   byte-identical with the recorder on vs off.

use std::borrow::Cow;
use std::process::ExitCode;
use std::sync::Arc;

use rime_core::flight::{parse_chrome, PhaseTag};
use rime_core::{
    Command, Direction, Executor, FlightConfig, FlightRecorder, KeyFormat, Outcome, ParallelPolicy,
    Region, RimeConfig,
};
use rime_service::{Attribution, Completion, RankingService, ServiceConfig, SessionHandle};

const FMT: KeyFormat = KeyFormat::UNSIGNED64;
const TENANTS: usize = 4;
const PER_TENANT: usize = 16;

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

/// Runs the fixed workload; `traced` attaches a flight recorder.
/// Returns the service and every worker completion with its
/// attribution. Deterministic command stream: the parallel policy is
/// pinned and submissions are single-threaded, so modeled metrics agree
/// between traced and untraced runs.
fn run_workload(traced: bool) -> (RankingService, Vec<(Completion, Option<Attribution>)>) {
    let exec = Arc::new(Executor::new(RimeConfig::small()));
    exec.set_parallel_policy(ParallelPolicy::Sequential);
    let config = ServiceConfig::default();
    let service = if traced {
        RankingService::with_flight(exec, config, FlightConfig::default())
    } else {
        RankingService::new(exec, config)
    };
    service.executor().enable_extraction_probes();

    let setup = service.session();
    let total = (TENANTS * PER_TENANT) as u64;
    let region = match call(&service, &setup, Command::Alloc { len: total }) {
        Outcome::Region(r) => r,
        other => panic!("alloc: {other:?}"),
    };
    let keys: Vec<u64> = (0..total).map(|i| (i * 2654435761) % 1_000_003).collect();
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
            len: total,
            format: FMT,
        },
    );

    let extract = |region: Region| Command::Extract {
        region,
        format: FMT,
        direction: Direction::Min,
    };
    let sessions: Vec<SessionHandle> = (0..TENANTS).map(|_| service.session()).collect();
    let mut out = Vec::with_capacity(TENANTS * PER_TENANT);
    // Several passes, each fusing one round of cross-tenant extracts,
    // with reaps in between so cq_wait spans are recorded.
    for _round in 0..PER_TENANT {
        for session in &sessions {
            session.submit(extract(region)).expect("worker submit");
        }
        service.process_pending();
        for session in &sessions {
            out.extend(session.reap_attributed(TENANTS));
        }
    }
    (service, out)
}

fn print_phase_totals(recorder: &FlightRecorder) {
    let snap = recorder.snapshot();
    println!(
        "{} events recorded ({} overwritten, capacity {})",
        snap.events.len(),
        snap.overwritten,
        snap.capacity
    );
    println!(
        "{:<16} {:>8} {:>14} {:>12}",
        "phase", "events", "total ns", "mean ns"
    );
    for (label, n, total_ns) in snap.phase_totals() {
        if n == 0 {
            continue;
        }
        println!(
            "{:<16} {:>8} {:>14} {:>12}",
            label,
            n,
            total_ns,
            total_ns / n
        );
    }
}

fn selfcheck() -> Result<(), String> {
    // 1. Exporter round-trip: every event survives the Chrome JSON
    //    encode/parse cycle field-for-field.
    let (service, completions) = run_workload(true);
    let recorder = Arc::clone(service.flight().expect("traced service has a recorder"));
    let snap = recorder.snapshot();
    let json = snap.to_chrome_json();
    let parsed = parse_chrome(&json).map_err(|e| format!("chrome export invalid: {e}"))?;
    if parsed.len() != snap.events.len() {
        return Err(format!(
            "round-trip lost events: {} exported, {} parsed",
            snap.events.len(),
            parsed.len()
        ));
    }
    for (p, e) in parsed.iter().zip(&snap.events) {
        if p.name != e.phase.label() || p.span != e.span || p.start_ns != e.start_ns {
            return Err(format!("round-trip mangled event seq {}", e.seq));
        }
    }

    // 2. Every reaped request is attributed, its trace has exactly one
    //    terminal cq_wait span, and the phase sum equals the total.
    let total = TENANTS * PER_TENANT;
    if completions.len() != total {
        return Err(format!(
            "reaped {} of {total} completions",
            completions.len()
        ));
    }
    let mut traces = std::collections::HashSet::new();
    for (c, attr) in &completions {
        let attr = attr.ok_or_else(|| format!("ordinal {} not attributed", c.ordinal))?;
        if !traces.insert(attr.trace) {
            return Err(format!("trace {} attributed twice", attr.trace));
        }
        let sum = attr.sq_wait_ns + attr.queue_wait_ns + attr.dispatch_ns + attr.cq_wait_ns;
        if sum != attr.total_ns() {
            return Err("attribution phases do not sum to total".to_string());
        }
    }
    for &trace in &traces {
        let exits = snap
            .events
            .iter()
            .filter(|e| e.trace == trace && e.phase == PhaseTag::CqWait)
            .count();
        if exits != 1 {
            return Err(format!("trace {trace} has {exits} cq_wait exits, want 1"));
        }
    }

    // 3. Fusion links partition the absorbed requests: collectively the
    //    links name distinct submitted root spans, and every linked
    //    member's fused batch executed (its umbrella span exists).
    let links: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.phase == PhaseTag::Link)
        .collect();
    if links.is_empty() {
        return Err("workload fused nothing — no link events".to_string());
    }
    let mut linked = std::collections::HashSet::new();
    for l in links {
        if !traces.contains(&l.linked) {
            return Err(format!("link names unknown member span {}", l.linked));
        }
        if !linked.insert(l.linked) {
            return Err(format!("member span {} absorbed twice", l.linked));
        }
        if !snap
            .events
            .iter()
            .any(|e| e.span == l.span && e.phase == PhaseTag::FusedBatch)
        {
            return Err(format!("link's fused span {} has no umbrella span", l.span));
        }
    }

    // 4. Ring overwrite accounting on a deliberately tiny recorder.
    let tiny = FlightRecorder::new(FlightConfig {
        capacity: 8,
        stripes: 2,
        seed: 1,
    });
    let ctx = tiny.root();
    for i in 0..24u64 {
        tiny.record_span(ctx, PhaseTag::Dispatch, i, 1, 0, i);
    }
    let tsnap = tiny.snapshot();
    if tsnap.events.len() != tiny.capacity() || tsnap.overwritten != 24 - tiny.capacity() as u64 {
        return Err(format!(
            "overwrite accounting wrong: {} kept, {} overwritten",
            tsnap.events.len(),
            tsnap.overwritten
        ));
    }
    if tsnap.events.first().map(|e| e.seq) != Some(24 - tiny.capacity() as u64) {
        return Err("ring did not keep the most recent window".to_string());
    }

    // 5. Masked metrics snapshots are byte-identical recorder on vs
    //    off — tracing must not perturb the modeled-metric contract.
    let on = service
        .executor()
        .metrics_snapshot()
        .masked()
        .to_json(false);
    drop(service);
    let (untraced, _) = run_workload(false);
    let off = untraced
        .executor()
        .metrics_snapshot()
        .masked()
        .to_json(false);
    if on != off {
        return Err("masked snapshots differ between recorder on and off".to_string());
    }

    println!(
        "selfcheck ok: {} events round-tripped, {} requests attributed with one cq_wait exit each, \
         {} fused members linked, overwrite accounting exact, masked snapshots identical",
        snap.events.len(),
        traces.len(),
        linked.len(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut export: Option<String> = None;
    let mut run_selfcheck = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--export" => match args.next() {
                Some(f) if f == "chrome" => export = Some(f),
                other => {
                    eprintln!("--export expects 'chrome', got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--selfcheck" => run_selfcheck = true,
            other => {
                eprintln!(
                    "unknown argument {other:?}\n\
                     usage: rime-trace [--export chrome] [--selfcheck]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if run_selfcheck {
        return match selfcheck() {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("selfcheck failed: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let (service, _completions) = run_workload(true);
    let recorder = service.flight().expect("traced service has a recorder");

    if export.is_some() {
        let json = recorder.snapshot().to_chrome_json();
        if let Err(err) = parse_chrome(&json) {
            eprintln!("refusing to export invalid trace JSON: {err}");
            return ExitCode::FAILURE;
        }
        print!("{json}");
        return ExitCode::SUCCESS;
    }

    print_phase_totals(recorder);
    ExitCode::SUCCESS
}
