//! `service_mixed`: a closed loop of four tenants, each with a private
//! region and one command in flight, on a journaled executor.
//!
//! One generator thread drives all four sessions and blocks in
//! `wait_reap`; it never spins. Each tenant cycles: write fresh keys →
//! init → `ExtractBatch(16)` and single `Extract`s → and, once a round,
//! free and re-alloc its region. The executor journals every command to
//! a `MemJournalStore` with the default `JournalConfig`.
//!
//! The layers are the same as `service_extract`'s but used differently:
//! writes beside reads, fusion barriers with no cross-tenant fusion,
//! allocator commands serialized into their own waves, and the journal
//! lock on every command. Most of the time is in the executor and the
//! journal (its periodic full-state checkpoints in particular).
//!
//! Each round starts a fresh journal store, attached while the service
//! is idle and outside the timed region, so memory stays bounded.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rime_core::journal::scan;
use rime_core::{
    Command, Direction, Executor, FlightConfig, JournalConfig, JournalRecord, JournalStore,
    KeyFormat, MemJournalStore, OpCounters, Outcome, Region, RimeConfig,
};
use rime_service::{Attribution, RankingService, ServiceConfig, SessionHandle};

use crate::layers::{self, Delta, Reading, Values};
use crate::slices::{Slices, Sum};
use crate::stats::{self, LatencySummary};
use crate::trace::SpanLog;
use crate::{host, Report, Rng, RunConfig};

const TENANTS: usize = 4;
const REGION_KEYS: u64 = 4096;
const BATCH: usize = 16;
/// Cycles per tenant per round; the first one frees and re-allocs.
const CYCLES: usize = 2;
/// Per cycle: this many `ExtractBatch(16)`, each followed by a single
/// `Extract`, then the remaining singles.
const BATCHES: usize = 6;
const SINGLES: usize = 8;
const FMT: KeyFormat = KeyFormat::UNSIGNED64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Free,
    Alloc,
    Write(usize),
    Init,
    Batch,
    Single,
}

impl Step {
    fn kind(self) -> &'static str {
        match self {
            Step::Free => "free",
            Step::Alloc => "alloc",
            Step::Write(_) => "write",
            Step::Init => "init",
            Step::Batch => "extract_batch",
            Step::Single => "extract",
        }
    }
}

/// One tenant's commands for one round, identical every round.
fn script() -> Vec<Step> {
    let mut steps = Vec::new();
    for cycle in 0..CYCLES {
        if cycle == 0 {
            steps.extend([Step::Free, Step::Alloc]);
        }
        steps.extend([Step::Write(cycle), Step::Init]);
        for i in 0..SINGLES {
            if i < BATCHES {
                steps.push(Step::Batch);
            }
            steps.push(Step::Single);
        }
    }
    steps
}

/// Per tenant and cycle: the keys written, and the same keys sorted.
struct Keys {
    keys: Vec<Vec<Vec<u64>>>,
    sorted: Vec<Vec<Vec<u64>>>,
}

fn keys(seed: u64) -> Keys {
    let mut rng = Rng::new(seed);
    let keys: Vec<Vec<Vec<u64>>> = (0..TENANTS)
        .map(|_| {
            (0..CYCLES)
                .map(|_| (0..REGION_KEYS).map(|_| rng.next_u64()).collect())
                .collect()
        })
        .collect();
    let sorted = keys
        .iter()
        .map(|t| {
            t.iter()
                .map(|k| {
                    let mut s = k.clone();
                    s.sort_unstable();
                    s
                })
                .collect()
        })
        .collect();
    Keys { keys, sorted }
}

struct Fixture {
    exec: Arc<Executor>,
    service: RankingService,
    tenants: Vec<SessionHandle>,
    regions: Vec<Region>,
    store: MemJournalStore,
}

fn call(session: &SessionHandle, command: Command<'static>) -> Result<Outcome, String> {
    session.call(command).map_err(|e| e.to_string())
}

fn write(region: Region, keys: &[u64]) -> Command<'static> {
    Command::Write {
        region,
        offset: 0,
        raw: Cow::Owned(keys.to_vec()),
        format: FMT,
    }
}

fn init(region: Region) -> Command<'static> {
    Command::Init {
        region,
        offset: 0,
        len: REGION_KEYS,
        format: FMT,
    }
}

fn setup(k: &Keys, traced: bool) -> Result<Fixture, String> {
    let exec = Arc::new(Executor::new(RimeConfig::table1()));
    let store = MemJournalStore::new();
    exec.attach_journal(Box::new(store.clone()), JournalConfig::default())
        .map_err(|e| e.to_string())?;
    let service = if traced {
        let service = RankingService::with_flight(
            Arc::clone(&exec),
            ServiceConfig::default(),
            FlightConfig::default(),
        );
        exec.enable_extraction_probes();
        service
    } else {
        RankingService::new(Arc::clone(&exec), ServiceConfig::default())
    };
    service.start();
    let tenants: Vec<SessionHandle> = (0..TENANTS).map(|_| service.session()).collect();
    let mut regions = Vec::with_capacity(TENANTS);
    for (t, session) in tenants.iter().enumerate() {
        let Outcome::Region(region) = call(session, Command::Alloc { len: REGION_KEYS })? else {
            return Err("alloc returned no region".to_string());
        };
        call(session, write(region, &k.keys[t][0]))?;
        call(session, init(region))?;
        call(
            session,
            Command::ExtractBatch {
                region,
                format: FMT,
                direction: Direction::Min,
                k: BATCH,
            },
        )?;
        regions.push(region);
    }
    Ok(Fixture {
        exec,
        service,
        tenants,
        regions,
        store,
    })
}

/// Per-tenant progress through the round's script.
struct Tenant {
    pos: usize,
    cycle: usize,
    /// Next expected index into the cycle's sorted keys.
    cursor: usize,
    submitted: Instant,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    rounds: usize,
    commands: u64,
    extracts: u64,
    ledger: layers::SessionLedger,
    journal_bytes: u64,
    checkpoints: u64,
    /// Simulated statistics of the first round, for the traced check.
    first: Option<(OpCounters, f64)>,
    spans: Option<SpanLog>,
    slices: Slices,
    /// Submit → reap latencies by kind of command.
    by_kind: BTreeMap<&'static str, Vec<u64>>,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

struct Ctx<'a> {
    fx: &'a mut Fixture,
    k: &'a Keys,
    script: Vec<Step>,
    journaled: bool,
}

impl Ctx<'_> {
    fn command(&self, t: usize, step: Step) -> Command<'static> {
        let region = self.fx.regions[t];
        match step {
            Step::Free => Command::Free { region },
            Step::Alloc => Command::Alloc { len: REGION_KEYS },
            Step::Write(cycle) => write(region, &self.k.keys[t][cycle]),
            Step::Init => init(region),
            Step::Batch => Command::ExtractBatch {
                region,
                format: FMT,
                direction: Direction::Min,
                k: BATCH,
            },
            Step::Single => Command::Extract {
                region,
                format: FMT,
                direction: Direction::Min,
            },
        }
    }

    fn submit(&self, ph: &mut Phase, t: usize, state: &mut Tenant) -> Result<(), String> {
        let step = self.script[state.pos];
        let command = self.command(t, step);
        let t0 = Instant::now();
        self.fx.tenants[t]
            .submit(command)
            .map_err(|e| format!("tenant {t}: {} refused: {e}", step.kind()))?;
        let t1 = Instant::now();
        ph.ledger.submit_call(ns_between(t0, t1));
        state.submitted = t0;
        if let Some(log) = ph.spans.as_mut() {
            log.record_between("submit", 0, t as u64, t0, t1);
        }
        Ok(())
    }

    /// Checks one completion against the tenant's expected keys.
    fn check(
        &mut self,
        t: usize,
        state: &mut Tenant,
        result: &Result<Outcome, rime_core::RimeError>,
    ) -> Result<(), String> {
        let step = self.script[state.pos];
        let region = self.fx.regions[t];
        let keys = &self.k.keys[t][state.cycle];
        let sorted = &self.k.sorted[t][state.cycle];
        let stored = |slot: u64| {
            keys.get(slot.wrapping_sub(region.start()) as usize)
                .copied()
        };
        let outcome = result
            .as_ref()
            .map_err(|e| format!("tenant {t}: {} failed: {e}", step.kind()))?;
        match (step, outcome) {
            (Step::Alloc, Outcome::Region(r)) => self.fx.regions[t] = *r,
            (Step::Free | Step::Write(_), Outcome::Done) => {}
            (Step::Init, Outcome::Done) => state.cursor = 0,
            (Step::Batch, Outcome::Hits(hits)) => {
                let want = &sorted[state.cursor..state.cursor + BATCH];
                if hits.len() != BATCH
                    || hits
                        .iter()
                        .zip(want)
                        .any(|(&(slot, raw), &w)| raw != w || stored(slot) != Some(raw))
                {
                    return Err(format!(
                        "tenant {t}: batch at {} is not the next {BATCH} sorted keys",
                        state.cursor
                    ));
                }
                state.cursor += BATCH;
            }
            (Step::Single, Outcome::Hit(Some((slot, raw)))) => {
                if *raw != sorted[state.cursor] || stored(*slot) != Some(*raw) {
                    return Err(format!(
                        "tenant {t}: extract at {} is not the next sorted key",
                        state.cursor
                    ));
                }
                state.cursor += 1;
            }
            (step, other) => return Err(format!("tenant {t}: {step:?} returned {other:?}")),
        }
        if let Step::Write(cycle) = step {
            state.cycle = cycle;
        }
        Ok(())
    }

    fn complete(
        &mut self,
        ph: &mut Phase,
        t: usize,
        state: &mut Tenant,
        attr: Option<Attribution>,
        result: &Result<Outcome, rime_core::RimeError>,
        now: Instant,
    ) -> Result<(), String> {
        let latency = ns_between(state.submitted, now);
        ph.commands += 1;
        ph.slices.work(1);
        ph.slices.latency(latency);
        ph.by_kind
            .entry(self.script[state.pos].kind())
            .or_default()
            .push(latency);
        if matches!(self.script[state.pos], Step::Batch | Step::Single) {
            ph.extracts += 1;
        }
        if let Some(a) = attr {
            ph.ledger.add(&a, latency);
            if let Some(log) = ph.spans.as_mut() {
                let request = ph.commands;
                let root = log.record_between(
                    self.script[state.pos].kind(),
                    0,
                    request,
                    state.submitted,
                    now,
                );
                log.record_phases(root, request, state.submitted, &a);
            }
        }
        self.check(t, state, result)
    }

    fn round(&mut self, ph: &mut Phase) -> Result<(), String> {
        // A fresh journal per round, attached while every tenant is idle.
        self.fx.store = MemJournalStore::new();
        if self.journaled {
            self.fx
                .exec
                .attach_journal(Box::new(self.fx.store.clone()), JournalConfig::default())
                .map_err(|e| e.to_string())?;
        } else {
            self.fx.exec.detach_journal();
        }
        let attached = self.fx.store.read_all().map_or(0, |b| b.len() as u64);
        let before = self.fx.exec.per_chip_counters();
        let commands0 = ph.commands;
        let now = Instant::now();
        let mut states: Vec<Tenant> = (0..TENANTS)
            .map(|_| Tenant {
                pos: 0,
                cycle: 0,
                cursor: 0,
                submitted: now,
            })
            .collect();
        ph.slices.start(0);
        for (t, state) in states.iter_mut().enumerate() {
            self.submit(ph, t, state)?;
        }
        let mut live = TENANTS;
        while live > 0 {
            for (t, state) in states.iter_mut().enumerate() {
                if state.pos == self.script.len() {
                    continue;
                }
                let t0 = Instant::now();
                let got = self.fx.tenants[t].wait_reap_attributed(1);
                let now = Instant::now();
                ph.ledger.reap_call(ns_between(t0, now));
                let (completion, attr) = got
                    .into_iter()
                    .next()
                    .ok_or_else(|| format!("tenant {t}: service closed mid-run"))?;
                self.complete(ph, t, state, attr, &completion.result, now)?;
                state.pos += 1;
                if state.pos == self.script.len() {
                    live -= 1;
                } else {
                    self.submit(ph, t, state)?;
                }
            }
        }
        ph.slices.stop();
        ph.rounds += 1;
        let n = ph.commands - commands0;
        let after = self.fx.exec.per_chip_counters();
        let sim = (
            layers::chip_deltas(&before, &after)
                .into_iter()
                .fold(OpCounters::new(), |acc, c| acc + c),
            layers::modeled_ns(&self.fx.exec.config().timing, &before, &after),
        );
        match ph.first {
            None => ph.first = Some(sim),
            Some(first) if first != sim => {
                return Err(format!(
                    "a later round simulated differently: {first:?} vs {sim:?}"
                ))
            }
            Some(_) => {}
        }
        if self.journaled {
            let (bytes, checkpoints) = self.check_journal(n)?;
            ph.journal_bytes += bytes - attached;
            ph.checkpoints += checkpoints - 1;
        }
        Ok(())
    }

    /// The round's journal holds one committed outcome per command, in
    /// ordinal order, each after its intent. Returns the store's size
    /// and its checkpoint count (the attach checkpoint included).
    fn check_journal(&self, commands: u64) -> Result<(u64, u64), String> {
        let bytes = self.fx.store.read_all().map_err(|e| e.to_string())?;
        let report = scan(&bytes).map_err(|e| format!("journal scan: {e}"))?;
        if report.torn_tail {
            return Err("journal has a torn tail".to_string());
        }
        let mut intents = 0u64;
        let mut outcomes = 0u64;
        let mut checkpoints = 0u64;
        for (_, record) in &report.records {
            match record {
                JournalRecord::Intent { ordinal, .. } => {
                    if *ordinal != outcomes || intents != outcomes {
                        return Err(format!("journal intent {ordinal} out of order"));
                    }
                    intents += 1;
                }
                JournalRecord::Outcome { ordinal, .. } => {
                    if *ordinal != outcomes || intents != outcomes + 1 {
                        return Err(format!("journal outcome {ordinal} without its intent"));
                    }
                    outcomes += 1;
                }
                JournalRecord::Checkpoint { .. } => checkpoints += 1,
            }
        }
        if outcomes != commands || self.fx.exec.journal_committed() != Some(commands) {
            return Err(format!(
                "journal committed {outcomes} outcomes for {commands} commands"
            ));
        }
        Ok((bytes.len() as u64, checkpoints))
    }
}

fn measure(
    fx: &mut Fixture,
    k: &Keys,
    budget: Duration,
    spans: Option<SpanLog>,
) -> Result<Phase, String> {
    let mut ph = Phase {
        spans,
        ..Phase::default()
    };
    let mut ctx = Ctx {
        fx,
        k,
        script: script(),
        journaled: true,
    };
    crate::run_rounds(budget, || ctx.round(&mut ph))?;
    Ok(ph)
}

impl Phase {
    /// Commands per second.
    fn throughput(&self) -> f64 {
        self.slices.sum(|_| true).rate()
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let k = keys(cfg.seed);
    let (mut fx, setup_s) = match crate::timed_setups(|| setup(&k, false)) {
        Ok(v) => v,
        Err(e) => return report.fail(e),
    };
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let before = Reading::of_executor(&fx.exec);
    let plain = measure(&mut fx, &k, budget, None);
    let after = Reading::of_executor(&fx.exec);
    drop(fx);
    let mut plain = match plain {
        Ok(p) => p,
        Err(e) => return report.fail(e),
    };
    report.attempted = plain.commands;
    report.info("tenants", TENANTS.to_string());
    report.info("rounds", plain.rounds.to_string());
    report.info("commands", plain.commands.to_string());
    report.info("extracts", plain.extracts.to_string());
    report.info("commands_per_round", (script().len() * TENANTS).to_string());
    report.info("journal_bytes", plain.journal_bytes.to_string());
    report.info("checkpoints", plain.checkpoints.to_string());
    report.info("pool", crate::pool_record());
    if !cfg.trace {
        report.info("slices", plain.slices.len().to_string());
        let Sum {
            mut latencies,
            process_cpu_s,
            thread_cpu_s,
            work,
            ..
        } = plain.slices.sum(|_| true);
        // CPU excludes the generator thread's own.
        let cpu = (process_cpu_s - thread_cpu_s) * 1e3 / (work as f64 / 1e3);
        let Some(l) = LatencySummary::of(&mut latencies) else {
            return report.fail("too few completions".to_string());
        };
        let n = plain.commands as f64;
        let v = &mut report.values;
        v.insert("throughput", plain.throughput());
        // Each kind of command has its own latency, so the pooled median
        // sits between two kinds; take the kinds' medians, weighed.
        let p50 = stats::weighted_median(plain.by_kind.values_mut()).unwrap_or(0.0);
        v.insert("latency_p50_us", p50 / 1e3);
        let d = Delta {
            before: &before,
            after: &after,
        };
        v.insert("modeled_ns_per_op", d.modeled_ns() / n);
        v.insert("cpu_ms_per_kop", cpu);
        v.insert("peak_rss_mb", host::peak_rss_mb());
        v.insert("setup_s", setup_s);
        report.latency("submit_to_reap", &l);
        return report;
    }

    let mut fx = match setup(&k, true) {
        Ok(f) => f,
        Err(e) => return report.fail(e),
    };
    let before = Reading::of_executor(&fx.exec);
    let traced = measure(&mut fx, &k, budget, Some(SpanLog::new(Instant::now())));
    let after = Reading::of_executor(&fx.exec);
    // One more round without the journal, for the journal's share of
    // dispatch time on the same command mix.
    let mut bare = Phase::default();
    let bare_result = Ctx {
        fx: &mut fx,
        k: &k,
        script: script(),
        journaled: false,
    }
    .round(&mut bare);
    fx.service.shutdown();
    let traced = match (traced, bare_result) {
        (Ok(p), Ok(())) => p,
        (Err(e), _) | (_, Err(e)) => return report.fail(e),
    };
    if plain.first != traced.first {
        return report.fail(format!(
            "the traced run simulated differently: {:?} vs {:?}",
            plain.first, traced.first
        ));
    }
    report.attempted += traced.commands + bare.commands;
    let n = traced.commands as f64;
    let mut v = Values::new();
    traced.ledger.fill(&mut v);
    v.insert("session.busy_refusals", 0.0);
    v.insert(
        "journal.bytes_per_cmd",
        layers::ratio(traced.journal_bytes as f64, n),
    );
    v.insert(
        "journal.checkpoints_per_kcmd",
        layers::ratio(1000.0 * traced.checkpoints as f64, n),
    );
    v.insert(
        "journal.dispatch_delta_ns",
        traced.ledger.dispatch_ns() - bare.ledger.dispatch_ns(),
    );
    let d = Delta {
        before: &before,
        after: &after,
    };
    layers::service_rows(&d, n, traced.extracts as f64, &mut v);
    layers::device_rows(&d, n, None, &mut v);
    v.insert("trace.overhead", traced.throughput() / plain.throughput());
    report.values = v;
    report.spans = traced.spans;
    report
}
