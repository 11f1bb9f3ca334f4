//! `service_extract`: single-key `Extract{Min}` requests from eight
//! tenant sessions on one shared 4096-key region.
//!
//! One generator thread drives every session, so the service's own
//! threads get the other core. Each round has two phases:
//!
//! * **open loop**, for latency: arrivals follow seeded `ArrivalProcess`
//!   schedules (even tenants Poisson, odd tenants bursty) at a fixed
//!   total rate well below capacity. Latency runs from each request's
//!   due time to its reap, so a stall also charges the requests queued
//!   behind it.
//! * **saturated**, for throughput: the same sessions keep their queues
//!   full (up to the queue depth each), so the dispatcher always has
//!   work and extracts from different tenants fuse into batches.
//!
//! An admin session re-`Init`s the region after every 2048 extracts,
//! once the extracts before it have completed. A `Busy` refusal counts
//! as a failure and is not retried.
//!
//! The region spans 2 mats, below the pool crossover, so chip work per
//! request is small and most of the time is in the ring, fusion and
//! DRR, and completion.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rime_core::{
    Command, Direction, Executor, FlightConfig, KeyFormat, Outcome, Region, RimeConfig,
};
use rime_service::{
    Attribution, Completion, RankingService, ServiceConfig, SessionHandle, SubmitError,
};
use rime_workloads::ArrivalProcess;

use crate::layers::{self, Delta, Reading, Values};
use crate::slices::Slices;
use crate::stats::{LatencySummary, Lateness, Quartiles};
use crate::trace::SpanLog;
use crate::{host, json, Report, Rng, RunConfig};

const TENANTS: usize = 8;
const REGION_KEYS: u64 = 4096;
/// Extracts between two re-`Init`s of the region.
const EPOCH: usize = 2048;
/// Open-loop epochs per round.
const EPOCHS_PER_ROUND: usize = 4;
/// Saturated epochs per round: most of a round, since the saturated
/// rate drifts with the host's load and needs the longer sample.
const SATURATED_EPOCHS: usize = 256;
/// Total offered rate of the open loop, requests/s. Half the saturated
/// capacity would be about 85 000/s on the reference host, but there
/// host preemption stalls of up to tens of ms then fill a tenant's
/// queue and requests are refused; at this rate none are (see
/// README.md).
const OFFERED_RATE: f64 = 5_000.0;
/// Pause between completion polls while no request is due.
const POLL_NS: u64 = 10_000;
const FMT: KeyFormat = KeyFormat::UNSIGNED64;
/// Slice kinds: the open loop and the saturated loop.
const OPEN: usize = 0;
const SATURATED: usize = 1;

fn extract(region: Region) -> Command<'static> {
    Command::Extract {
        region,
        format: FMT,
        direction: Direction::Min,
    }
}

/// The merged arrival timeline of one round's open loop:
/// `(due ns, tenant)`.
fn schedule(seed: u64) -> Vec<(u64, usize)> {
    let per_tenant = EPOCH * EPOCHS_PER_ROUND / TENANTS;
    let gap = (TENANTS as f64 * 1e9 / OFFERED_RATE) as u64;
    let mut events = Vec::with_capacity(per_tenant * TENANTS);
    for t in 0..TENANTS {
        let process = if t % 2 == 0 {
            ArrivalProcess::Poisson { mean_gap_ns: gap }
        } else {
            // Bursts of about sixteen at twice the mean rate, on half
            // the time: the same mean rate as the Poisson tenants.
            ArrivalProcess::Bursty {
                mean_on_ns: 8 * gap,
                mean_off_ns: 8 * gap,
                burst_gap_ns: gap / 2,
            }
        };
        let tenant_seed =
            Rng::new(seed ^ (t as u64 + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB)).next_u64();
        let times = process.schedule(per_tenant, tenant_seed);
        // Stretch the draw to span exactly `per_tenant · gap`, so every
        // seed offers precisely the configured rate and a round lasts
        // the same time whatever the seed.
        let span =
            per_tenant as f64 * gap as f64 / times.last().copied().unwrap_or(1).max(1) as f64;
        events.extend(times.into_iter().map(|due| ((due as f64 * span) as u64, t)));
    }
    events.sort_unstable();
    events
}

struct Fixture {
    service: RankingService,
    tenants: Vec<SessionHandle>,
    admin: SessionHandle,
    region: Region,
}

fn call(session: &SessionHandle, command: Command<'static>) -> Result<Outcome, String> {
    session.call(command).map_err(|e| e.to_string())
}

fn setup(keys: &[u64], traced: bool) -> Result<Fixture, String> {
    let exec = Arc::new(Executor::new(RimeConfig::table1()));
    let service = if traced {
        let service = RankingService::with_flight(
            Arc::clone(&exec),
            ServiceConfig::default(),
            FlightConfig::default(),
        );
        exec.enable_extraction_probes();
        service
    } else {
        RankingService::new(exec, ServiceConfig::default())
    };
    service.start();
    let admin = service.session();
    let tenants: Vec<SessionHandle> = (0..TENANTS).map(|_| service.session()).collect();
    let Outcome::Region(region) = call(&admin, Command::Alloc { len: REGION_KEYS })? else {
        return Err("alloc returned no region".to_string());
    };
    call(
        &admin,
        Command::Write {
            region,
            offset: 0,
            raw: Cow::Owned(keys.to_vec()),
            format: FMT,
        },
    )?;
    // Warm-up: every tenant's first extracts pay lazy set-up; the round
    // re-inits the region before measuring.
    call(&admin, init(region))?;
    for t in &tenants {
        for _ in 0..8 {
            call(t, extract(region))?;
        }
    }
    Ok(Fixture {
        service,
        tenants,
        admin,
        region,
    })
}

fn init(region: Region) -> Command<'static> {
    Command::Init {
        region,
        offset: 0,
        len: REGION_KEYS,
        format: FMT,
    }
}

/// A submitted request awaiting its completion.
struct InFlight {
    ordinal: u64,
    due: Instant,
    submitted: Instant,
    request: u64,
}

/// Everything one phase (untraced or traced) measured.
#[derive(Default)]
struct Phase {
    rounds: usize,
    /// Extracts completed in both loops.
    completed: u64,
    /// Extracts completed in the saturated loops.
    saturated: u64,
    /// Extracts per second of each saturated epoch, from its `Init` to
    /// its last completion.
    epoch_rates: Vec<f64>,
    attempted: u64,
    busy: u64,
    errors_ok: u64,
    /// Slices of both loops; the open loop's carry its due → reap
    /// latencies.
    slices: Slices,
    lateness: Lateness,
    ledger: layers::SessionLedger,
    spans: Option<SpanLog>,
    /// The current epoch's hits, checked when it closes.
    hits: Vec<u64>,
}

impl Phase {
    /// Saturated extracts per second.
    fn throughput(&self) -> f64 {
        self.slices.sum(|k| k == SATURATED).rate()
    }

    /// Process CPU ms per 1000 extracts of both loops, the generator
    /// thread's own excluded.
    fn cpu_ms_per_kop(&self) -> f64 {
        let s = self.slices.sum(|_| true);
        (s.process_cpu_s - s.thread_cpu_s) * 1e3 / (s.work as f64 / 1e3)
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

struct Ctx<'a> {
    fx: &'a Fixture,
    keys: &'a [u64],
    sorted: &'a [u64],
    events: &'a [(u64, usize)],
    traced: bool,
}

impl Ctx<'_> {
    /// Handles one reaped completion.
    fn complete(
        &self,
        ph: &mut Phase,
        r: &mut RoundState,
        t: usize,
        front: InFlight,
        (c, attr): &(Completion, Option<Attribution>),
        now: Instant,
    ) -> Result<(), String> {
        if c.ordinal != front.ordinal {
            return Err(format!(
                "tenant {t}: completion {} for ordinal {}",
                c.ordinal, front.ordinal
            ));
        }
        let raw = match &c.result {
            Ok(Outcome::Hit(Some((slot, raw)))) => {
                let offset = slot.wrapping_sub(self.fx.region.start());
                if self.keys.get(offset as usize) != Some(raw) {
                    return Err(format!(
                        "tenant {t}: hit {raw} at slot {slot} is not the stored key"
                    ));
                }
                *raw
            }
            Ok(other) => return Err(format!("tenant {t}: extract returned {other:?}")),
            Err(_) => {
                ph.errors_ok += 1;
                return Ok(());
            }
        };
        if r.last[t].is_some_and(|prev| raw < prev) {
            return Err(format!(
                "tenant {t}: hit {raw} after a larger hit within one epoch"
            ));
        }
        r.last[t] = Some(raw);
        ph.hits.push(raw);
        let latency = ns_between(front.due, now);
        ph.completed += 1;
        ph.slices.work(1);
        if r.saturated {
            ph.saturated += 1;
        } else {
            ph.slices.latency(latency);
        }
        if let Some(a) = attr {
            ph.ledger.add(a, latency);
            if let Some(log) = ph.spans.as_mut() {
                let root = log.record_between("request", 0, front.request, front.due, now);
                log.record_phases(root, front.request, front.submitted, a);
            }
        }
        Ok(())
    }

    /// Reaps tenant `t`'s completions: whatever is ready when `wait` is
    /// 0, or else blocks until `wait` of them are. Returns how many.
    fn reap(
        &self,
        ph: &mut Phase,
        r: &mut RoundState,
        t: usize,
        wait: usize,
    ) -> Result<usize, String> {
        let session = &self.fx.tenants[t];
        let t0 = Instant::now();
        let got = if wait > 0 {
            session.wait_reap_attributed(wait)
        } else {
            session.reap_attributed(usize::MAX)
        };
        if got.is_empty() {
            return Ok(0);
        }
        let now = Instant::now();
        if self.traced {
            ph.ledger.reap_call(ns_between(t0, now));
            if let Some(log) = ph.spans.as_mut() {
                log.record_between("reap", 0, 0, t0, now);
            }
        }
        for got in &got {
            let front = r.inflight[t]
                .pop_front()
                .ok_or("completion without a request")?;
            self.complete(ph, r, t, front, got, now)?;
        }
        Ok(got.len())
    }

    /// Reaps every tenant's in-flight requests, blocking until done.
    fn drain(&self, ph: &mut Phase, r: &mut RoundState) -> Result<(), String> {
        for t in 0..TENANTS {
            let n = r.inflight[t].len();
            if n > 0 {
                self.reap(ph, r, t, n)?;
            }
        }
        Ok(())
    }

    /// Submits the next scheduled extract at its due time.
    fn submit(
        &self,
        ph: &mut Phase,
        r: &mut RoundState,
        due: Instant,
        t: usize,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let submitted = self.fx.tenants[t].submit(extract(self.fx.region));
        let t1 = Instant::now();
        r.next += 1;
        ph.attempted += 1;
        match submitted {
            Ok(ordinal) => {
                if !r.saturated {
                    ph.lateness.record(ns_between(due, t0));
                }
                r.inflight[t].push_back(InFlight {
                    ordinal,
                    due,
                    submitted: t0,
                    request: r.next as u64,
                });
                if self.traced {
                    ph.ledger.submit_call(ns_between(t0, t1));
                    if let Some(log) = ph.spans.as_mut() {
                        log.record_between("submit", 0, r.next as u64, t0, t1);
                    }
                }
                Ok(())
            }
            Err(SubmitError::Busy) => {
                ph.busy += 1;
                Ok(())
            }
            Err(SubmitError::Closed) => Err("service closed mid-run".to_string()),
        }
    }

    /// Completes the epoch's requests, then re-`Init`s the region through
    /// the admin session. Nothing is submitted meanwhile, so blocking
    /// here is what the open loop would do; requests falling due in the
    /// pause are charged the wait.
    fn next_epoch(&self, ph: &mut Phase, r: &mut RoundState) -> Result<(), String> {
        self.close_epoch(ph, r)?;
        self.fx
            .admin
            .submit(init(self.fx.region))
            .map_err(|e| format!("init: {e}"))?;
        ph.attempted += 1;
        match self.fx.admin.wait_reap(1).pop().map(|c| c.result) {
            Some(Ok(_)) => {}
            other => return Err(format!("init failed: {other:?}")),
        }
        r.last.iter_mut().for_each(|l| *l = None);
        Ok(())
    }

    /// Completes the epoch's requests and checks that they extracted
    /// exactly the smallest keys of the region.
    fn close_epoch(&self, ph: &mut Phase, r: &mut RoundState) -> Result<(), String> {
        self.drain(ph, r)?;
        ph.hits.sort_unstable();
        if ph.hits[..] != self.sorted[..ph.hits.len()] {
            return Err("an epoch's hits are not the smallest keys of the region".to_string());
        }
        ph.hits.clear();
        Ok(())
    }

    /// The open loop: submits each scheduled extract at its due time.
    fn open_loop(&self, ph: &mut Phase) -> Result<(), String> {
        let mut r = RoundState::new(false);
        ph.slices.start(OPEN);
        let start = Instant::now();
        while r.next < self.events.len() {
            if r.next.is_multiple_of(EPOCH) {
                self.next_epoch(ph, &mut r)?;
            }
            let (due_ns, t) = self.events[r.next];
            let due = start + Duration::from_nanos(due_ns);
            // Poll completions until the next request is due, pausing
            // between polls: a tight reap loop would keep taking the
            // session locks the dispatcher needs to post completions.
            loop {
                for t in 0..TENANTS {
                    if !r.inflight[t].is_empty() {
                        self.reap(ph, &mut r, t, 0)?;
                    }
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let until = due.min(now + Duration::from_nanos(POLL_NS));
                while Instant::now() < until {
                    std::thread::yield_now();
                }
            }
            self.submit(ph, &mut r, due, t)?;
        }
        self.close_epoch(ph, &mut r)?;
        ph.slices.stop();
        Ok(())
    }

    /// The saturated loop: each epoch, every tenant submits its share
    /// while it has fewer than the queue depth in flight. Completions
    /// are reaped as they land; when none has, the generator blocks on
    /// the oldest request instead of spinning on the session locks.
    fn saturated(&self, ph: &mut Phase) -> Result<(), String> {
        let depth = ServiceConfig::default().queue_depth;
        let share = EPOCH / TENANTS;
        let mut r = RoundState::new(true);
        ph.slices.start(SATURATED);
        for _ in 0..SATURATED_EPOCHS {
            let epoch_start = Instant::now();
            self.next_epoch(ph, &mut r)?;
            let mut sent = [0; TENANTS];
            loop {
                for (t, sent) in sent.iter_mut().enumerate() {
                    while *sent < share && r.inflight[t].len() < depth {
                        self.submit(ph, &mut r, Instant::now(), t)?;
                        *sent += 1;
                    }
                }
                let mut reaped = 0;
                for t in 0..TENANTS {
                    if !r.inflight[t].is_empty() {
                        reaped += self.reap(ph, &mut r, t, 0)?;
                    }
                }
                if reaped > 0 {
                    continue;
                }
                let oldest = (0..TENANTS)
                    .filter_map(|t| r.inflight[t].front().map(|f| (f.submitted, t)))
                    .min();
                match oldest {
                    Some((_, t)) => {
                        self.reap(ph, &mut r, t, 1)?;
                    }
                    None => break,
                }
            }
            ph.epoch_rates
                .push(EPOCH as f64 / epoch_start.elapsed().as_secs_f64());
            // Every request of the epoch is reaped: the service is idle.
            ph.slices.tick();
        }
        ph.slices.stop();
        self.close_epoch(ph, &mut r)
    }

    fn round(&self, ph: &mut Phase) -> Result<(), String> {
        self.open_loop(ph)?;
        self.saturated(ph)?;
        ph.rounds += 1;
        Ok(())
    }
}

/// Generator state of one loop.
struct RoundState {
    /// The saturated loop, rather than the open loop.
    saturated: bool,
    /// Per tenant, submitted requests in ordinal order.
    inflight: Vec<VecDeque<InFlight>>,
    /// Per tenant, the last hit of the current epoch.
    last: Vec<Option<u64>>,
    /// Requests submitted so far; in the open loop, the index of the
    /// next scheduled request.
    next: usize,
}

impl RoundState {
    fn new(saturated: bool) -> RoundState {
        RoundState {
            saturated,
            inflight: (0..TENANTS).map(|_| VecDeque::new()).collect(),
            last: vec![None; TENANTS],
            next: 0,
        }
    }
}

fn measure(
    fx: &Fixture,
    keys: &[u64],
    sorted: &[u64],
    events: &[(u64, usize)],
    budget: Duration,
    spans: Option<SpanLog>,
) -> Result<Phase, String> {
    let ctx = Ctx {
        fx,
        keys,
        sorted,
        events,
        traced: spans.is_some(),
    };
    let mut ph = Phase {
        spans,
        ..Phase::default()
    };
    crate::run_rounds(budget, || ctx.round(&mut ph))?;
    Ok(ph)
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(cfg.seed);
    let keys: Vec<u64> = (0..REGION_KEYS).map(|_| rng.next_u64()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let events = schedule(cfg.seed);
    let (fx, setup_s) = match crate::timed_setups(|| setup(&keys, false)) {
        Ok(v) => v,
        Err(e) => return report.fail(e),
    };
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let exec = fx.service.executor();
    let before = Reading::of_executor(exec);
    let plain = measure(&fx, &keys, &sorted, &events, budget, None);
    let after = Reading::of_executor(exec);
    drop(fx);
    let mut plain = match plain {
        Ok(p) => p,
        Err(e) => return report.fail(e),
    };
    report.attempted = plain.attempted;
    report.failed = plain.busy + plain.errors_ok;
    report.info("offered_rate_per_s", json::number(OFFERED_RATE));
    report.info("tenants", TENANTS.to_string());
    report.info("rounds", plain.rounds.to_string());
    report.info("extracts", plain.completed.to_string());
    report.info("saturated_extracts", plain.saturated.to_string());
    if let Some(q) = Quartiles::of(&plain.epoch_rates) {
        report.info(
            "saturated_epoch_rate_per_s",
            json::object(&[
                ("q1", json::number(q.q1)),
                ("median", json::number(q.median)),
                ("q3", json::number(q.q3)),
            ]),
        );
    }
    report.info("busy_refusals", plain.busy.to_string());
    let (l50, l99, lmax) = plain.lateness.summary();
    report.info(
        "generator_lateness_us",
        json::object(&[
            ("p50", json::number(l50 as f64 / 1e3)),
            ("p99", json::number(l99 as f64 / 1e3)),
            ("max", json::number(lmax as f64 / 1e3)),
        ]),
    );
    report.info("pool", crate::pool_record());
    if !cfg.trace {
        report.info("slices", plain.slices.len().to_string());
        let mut latencies = plain.slices.sum(|k| k == OPEN).latencies;
        let Some(l) = LatencySummary::of(&mut latencies) else {
            return report.fail("too few completions".to_string());
        };
        let n = plain.completed as f64;
        let v = &mut report.values;
        v.insert("throughput", plain.throughput());
        v.insert("latency_p50_us", l.p50 as f64 / 1e3);
        let d = Delta {
            before: &before,
            after: &after,
        };
        v.insert("modeled_ns_per_op", d.modeled_ns() / n);
        v.insert("cpu_ms_per_kop", plain.cpu_ms_per_kop());
        v.insert("peak_rss_mb", host::peak_rss_mb());
        v.insert("setup_s", setup_s);
        report.latency("due_to_reap", &l);
        return report;
    }

    let fx = match setup(&keys, true) {
        Ok(f) => f,
        Err(e) => return report.fail(e),
    };
    let exec = fx.service.executor();
    let before = Reading::of_executor(exec);
    let traced = measure(
        &fx,
        &keys,
        &sorted,
        &events,
        budget,
        Some(SpanLog::new(Instant::now())),
    );
    // Shut down first so every attribution shard is folded in.
    fx.service.shutdown();
    let after = Reading::of_executor(fx.service.executor());
    let traced = match traced {
        Ok(p) => p,
        Err(e) => return report.fail(e),
    };
    report.attempted += traced.attempted;
    report.failed += traced.busy + traced.errors_ok;
    let n = traced.completed as f64;
    let mut v = Values::new();
    traced.ledger.fill(&mut v);
    v.insert("session.busy_refusals", traced.busy as f64);
    let d = Delta {
        before: &before,
        after: &after,
    };
    layers::service_rows(&d, n, n, &mut v);
    layers::device_rows(&d, n, None, &mut v);
    v.insert("trace.overhead", traced.throughput() / plain.throughput());
    report.values = v;
    report.spans = traced.spans;
    report
}
