//! `device_sort`: full sorts on a directly driven `RimeDevice`, with no
//! service and no journal.
//!
//! Each sort is alloc → write → init → `rime_min_k(256)` until the range
//! runs dry → free, and its output is checked against `slice::sort` of
//! its input. The plan spans 8 to 64 mats (16Ki to 128Ki u64 keys), so
//! it crosses the `ParallelPolicy::Auto` pool crossover and runs from
//! L2-resident to larger than L2; three key distributions vary the
//! column-search steps per key; and some regions straddle a chip
//! boundary so multi-chip dispatch runs. Most of the time is in the
//! chip, the mat pool, the mat kernels and the row-write path; the
//! executor's share per call is small.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rime_core::{OpCounters, Region, RimeConfig, RimeDevice};

use crate::layers::{self, Delta, Reading, Values};
use crate::slices::Slices;
use crate::stats::{self, LatencySummary};
use crate::trace::SpanLog;
use crate::{Report, Rng, RunConfig};

/// Keys returned per `rime_min_k` call.
const BATCH: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dist {
    /// Independent uniform 64-bit keys.
    Uniform,
    /// Sixteen distinct values, so most keys tie with many others.
    FewDistinct,
    /// Ascending keys with one in a hundred displaced at random.
    NearlySorted,
}

#[derive(Debug, Clone, Copy)]
struct Planned {
    keys: u64,
    dist: Dist,
    /// Place the region so half of it lies on each side of the boundary
    /// between chips 0 and 1.
    straddle: bool,
}

/// One round: every entry once, in this order. The mix is fixed so a
/// round costs the same for every seed; the seed picks the key values.
const PLAN: [Planned; 8] = [
    Planned {
        keys: 16 << 10,
        dist: Dist::Uniform,
        straddle: false,
    },
    Planned {
        keys: 16 << 10,
        dist: Dist::FewDistinct,
        straddle: false,
    },
    Planned {
        keys: 16 << 10,
        dist: Dist::NearlySorted,
        straddle: true,
    },
    Planned {
        keys: 32 << 10,
        dist: Dist::Uniform,
        straddle: true,
    },
    Planned {
        keys: 32 << 10,
        dist: Dist::FewDistinct,
        straddle: false,
    },
    Planned {
        keys: 32 << 10,
        dist: Dist::NearlySorted,
        straddle: false,
    },
    Planned {
        keys: 64 << 10,
        dist: Dist::NearlySorted,
        straddle: true,
    },
    Planned {
        keys: 128 << 10,
        dist: Dist::Uniform,
        straddle: false,
    },
];

struct Input {
    plan: Planned,
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

fn inputs(seed: u64) -> Vec<Input> {
    PLAN.iter()
        .enumerate()
        .map(|(i, &plan)| {
            let mut rng = Rng::new(seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            let n = plan.keys as usize;
            let keys: Vec<u64> = match plan.dist {
                Dist::Uniform => (0..n).map(|_| rng.next_u64()).collect(),
                Dist::FewDistinct => {
                    let values: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
                    (0..n).map(|_| values[rng.below(16) as usize]).collect()
                }
                Dist::NearlySorted => {
                    let stride = u64::MAX / n as u64;
                    let mut keys: Vec<u64> = (0..n as u64)
                        .map(|j| j * stride + rng.below(stride))
                        .collect();
                    for _ in 0..n / 100 {
                        let a = rng.below(n as u64) as usize;
                        let b = rng.below(n as u64) as usize;
                        keys.swap(a, b);
                    }
                    keys
                }
            };
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            Input { plan, keys, sorted }
        })
        .collect()
}

/// Per-kind `(calls, total ns)` of the benchmark's timed device calls.
type Timers = BTreeMap<&'static str, (f64, f64)>;

/// What one round measured.
#[derive(Default)]
struct Round {
    keys: u64,
    wall_ns: u64,
    /// Sum of the timed device calls (the nested layer time).
    calls_ns: u64,
    /// Table I modeled device ns, summed per sort over its chips' deltas.
    modeled_ns: f64,
    counters: OpCounters,
}

struct Sorter<'a> {
    dev: &'a RimeDevice,
    chip_slots: u64,
    timers: Timers,
    /// Slices tagged with the index of the plan entry being sorted.
    slices: Slices,
    spans: Option<SpanLog>,
    sorts: u64,
}

impl Sorter<'_> {
    /// Times one device call, books it under `kind`, and records a span
    /// under `parent` when tracing.
    fn call<T>(
        &mut self,
        kind: &'static str,
        parent: u32,
        f: impl FnOnce(&RimeDevice) -> Result<T, rime_core::RimeError>,
    ) -> Result<(T, u64), String> {
        let t0 = Instant::now();
        let out = f(self.dev).map_err(|e| format!("{kind}: {e}"))?;
        let t1 = Instant::now();
        let ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
        let slot = self.timers.entry(kind).or_default();
        slot.0 += 1.0;
        slot.1 += ns as f64;
        if let Some(log) = self.spans.as_mut() {
            log.record_between(kind, parent, self.sorts, t0, t1);
        }
        Ok((out, ns))
    }

    fn place(&mut self, plan: &Planned, parent: u32) -> Result<(Region, u64), String> {
        let n = plan.keys;
        if !plan.straddle {
            return self.call("alloc", parent, |d| d.alloc(n));
        }
        let pad_len = self.chip_slots - n / 2;
        let (pad, a) = self.call("alloc", parent, |d| d.alloc(pad_len))?;
        let (region, b) = self.call("alloc", parent, |d| d.alloc(n))?;
        let ((), c) = self.call("free", parent, |d| d.free(pad))?;
        if region.start() != self.chip_slots - n / 2 {
            return Err(format!("straddling region placed at {}", region.start()));
        }
        Ok((region, a + b + c))
    }

    /// One full sort; returns `(wall ns, timed-call ns)` after checking
    /// the output.
    fn sort(&mut self, kind: usize, input: &Input) -> Result<(u64, u64), String> {
        self.sorts += 1;
        let n = input.plan.keys;
        let root = self
            .spans
            .as_mut()
            .map_or(0, |log| log.open("sort", 0, self.sorts));
        self.slices.start(kind);
        let start = Instant::now();
        let (region, mut calls) = self.place(&input.plan, root)?;
        let ((), ns) = self.call("write", root, |d| d.write(region, 0, &input.keys))?;
        calls += ns;
        let ((), ns) = self.call("init", root, |d| d.init::<u64>(region, 0, n))?;
        calls += ns;
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(n as usize);
        loop {
            let (hits, ns) = self.call("extract_batch", root, |d| {
                d.rime_min_k::<u64>(region, BATCH)
            })?;
            calls += ns;
            self.slices.work(hits.len() as u64);
            self.slices.latency(ns);
            self.slices.tick();
            if hits.is_empty() {
                break;
            }
            out.extend(hits);
        }
        let ((), ns) = self.call("free", root, |d| d.free(region))?;
        calls += ns;
        let end = Instant::now();
        self.slices.stop();
        let wall = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        if let Some(log) = self.spans.as_mut() {
            log.close(root, start, end);
        }
        check(input, region, &out)?;
        Ok((wall, calls))
    }

    fn round(&mut self, inputs: &[Input]) -> Result<Round, String> {
        let timing = self.dev.config().timing;
        let mut round = Round::default();
        let before = self.dev.counters();
        for (kind, input) in inputs.iter().enumerate() {
            let chips0 = self.dev.per_chip_counters();
            let (wall, calls) = self.sort(kind, input)?;
            round.modeled_ns += layers::modeled_ns(&timing, &chips0, &self.dev.per_chip_counters());
            round.keys += input.plan.keys;
            round.wall_ns += wall;
            round.calls_ns += calls;
        }
        round.counters = self.dev.counters().delta_since(&before);
        Ok(round)
    }
}

fn check(input: &Input, region: Region, out: &[(u64, u64)]) -> Result<(), String> {
    if out.len() != input.sorted.len() {
        return Err(format!(
            "sorted {} of {} keys",
            out.len(),
            input.sorted.len()
        ));
    }
    for (i, (&(slot, value), &want)) in out.iter().zip(&input.sorted).enumerate() {
        let offset = slot.wrapping_sub(region.start());
        if value != want || input.keys.get(offset as usize) != Some(&value) {
            return Err(format!(
                "{:?} sort of {} keys: output {i} is {value} at slot {slot}, want {want}",
                input.plan.dist, input.plan.keys
            ));
        }
    }
    Ok(())
}

/// Builds a device and warms it: one short pass over every planned
/// placement materializes the mats the plan writes, runs the one-shot
/// pool calibration, and spawns the pool workers.
fn setup(inputs: &[Input], traced: bool) -> Result<RimeDevice, String> {
    let dev = RimeDevice::new(RimeConfig::table1());
    if traced {
        dev.enable_extraction_metrics();
    }
    let mut warm = Sorter {
        chip_slots: dev.config().chip_slots(),
        dev: &dev,
        timers: Timers::new(),
        slices: Slices::default(),
        spans: None,
        sorts: 0,
    };
    for input in inputs {
        let (region, _) = warm.place(&input.plan, 0)?;
        let d = warm.dev;
        d.write(region, 0, &input.keys).map_err(|e| e.to_string())?;
        d.init::<u64>(region, 0, input.plan.keys)
            .map_err(|e| e.to_string())?;
        d.rime_min_k::<u64>(region, BATCH)
            .map_err(|e| e.to_string())?;
        d.free(region).map_err(|e| e.to_string())?;
    }
    Ok(dev)
}

/// Sorts measured in one phase of a run.
struct Phase {
    rounds: Vec<Round>,
    slices: Slices,
    timers: Timers,
    spans: Option<SpanLog>,
}

impl Phase {
    fn keys(&self) -> u64 {
        self.rounds.iter().map(|r| r.keys).sum()
    }

    /// Sorted keys per second.
    fn throughput(&self) -> f64 {
        self.figures().0
    }

    /// `(keys/s, rime_min_k µs, CPU ms per 1000 keys)`. Each plan entry
    /// is measured over its own slices and the entries are combined in
    /// the plan's proportions. The latency is the entries' median calls
    /// weighed by their call counts ([`stats::weighted_median`]): call
    /// latency grows with the sort's size.
    fn figures(&self) -> (f64, f64, f64) {
        let (mut keys, mut secs, mut cpu_s) = (0.0, 0.0, 0.0);
        let mut latencies = Vec::with_capacity(PLAN.len());
        for (kind, plan) in PLAN.iter().enumerate() {
            let s = self.slices.sum(|k| k == kind);
            let n = plan.keys as f64;
            keys += n;
            secs += n / s.rate();
            cpu_s += n * s.process_cpu_s / s.work as f64;
            latencies.push(s.latencies);
        }
        (
            keys / secs,
            stats::weighted_median(&mut latencies).unwrap_or(0.0) / 1e3,
            cpu_s * 1e3 / (keys / 1e3),
        )
    }
}

fn measure(
    dev: &RimeDevice,
    inputs: &[Input],
    budget: Duration,
    spans: Option<SpanLog>,
) -> Result<Phase, String> {
    let mut sorter = Sorter {
        chip_slots: dev.config().chip_slots(),
        dev,
        timers: Timers::new(),
        slices: Slices::default(),
        spans,
        sorts: 0,
    };
    let mut rounds = Vec::new();
    crate::run_rounds(budget, || {
        let round = sorter.round(inputs)?;
        if let Some(first) = rounds.first() {
            same_simulation(first, &round, "a later round")?;
        }
        rounds.push(round);
        Ok(())
    })?;
    Ok(Phase {
        rounds,
        slices: sorter.slices,
        timers: sorter.timers,
        spans: sorter.spans,
    })
}

/// Rounds repeat the same inputs, so their simulated statistics must be
/// identical however they were scheduled or observed.
fn same_simulation(a: &Round, b: &Round, what: &str) -> Result<(), String> {
    if a.counters != b.counters || a.modeled_ns != b.modeled_ns {
        return Err(format!(
            "{what} simulated differently: {:?} / {} ns vs {:?} / {} ns",
            a.counters, a.modeled_ns, b.counters, b.modeled_ns
        ));
    }
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let inputs = inputs(cfg.seed);
    let (dev, setup_s) = match crate::timed_setups(|| setup(&inputs, false)) {
        Ok(v) => v,
        Err(e) => return report.fail(e),
    };
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let plain = match measure(&dev, &inputs, budget, None) {
        Ok(p) => p,
        Err(e) => return report.fail(e),
    };
    drop(dev);
    let sorts = (plain.rounds.len() * PLAN.len()) as u64;
    report.attempted = sorts;
    report.info("rounds", plain.rounds.len().to_string());
    report.info("sorts", sorts.to_string());
    report.info("keys", plain.keys().to_string());
    report.info("pool", crate::pool_record());
    if !cfg.trace {
        let Some(l) = LatencySummary::of(&mut plain.slices.sum(|_| true).latencies) else {
            return report.fail("too few rime_min_k calls".to_string());
        };
        report.info("slices", plain.slices.len().to_string());
        let (throughput, p50_us, cpu) = plain.figures();
        let keys = plain.keys() as f64;
        let modeled: f64 = plain.rounds.iter().map(|r| r.modeled_ns).sum();
        let v = &mut report.values;
        v.insert("throughput", throughput);
        v.insert("latency_p50_us", p50_us);
        v.insert("modeled_ns_per_op", modeled / keys);
        v.insert("cpu_ms_per_kop", cpu);
        v.insert("peak_rss_mb", crate::host::peak_rss_mb());
        v.insert("setup_s", setup_s);
        report.latency("rime_min_k", &l);
        return report;
    }

    // Traced phase: a second device with the chip probes installed and
    // the benchmark's spans recorded around every call.
    let dev = match setup(&inputs, true) {
        Ok(d) => d,
        Err(e) => return report.fail(e),
    };
    let before = Reading::of_device(&dev);
    let traced = match measure(&dev, &inputs, budget, Some(SpanLog::new(Instant::now()))) {
        Ok(p) => p,
        Err(e) => return report.fail(e),
    };
    let after = Reading::of_device(&dev);
    if let Err(e) = same_simulation(&plain.rounds[0], &traced.rounds[0], "the traced run") {
        return report.fail(e);
    }
    report.attempted += (traced.rounds.len() * PLAN.len()) as u64;
    let keys = traced.keys() as f64;
    let mut values = Values::new();
    layers::device_rows(
        &Delta {
            before: &before,
            after: &after,
        },
        keys,
        Some(&traced.timers),
        &mut values,
    );
    values.insert("trace.overhead", traced.throughput() / plain.throughput());
    let wall: u64 = traced.rounds.iter().map(|r| r.wall_ns).sum();
    let calls: u64 = traced.rounds.iter().map(|r| r.calls_ns).sum();
    values.insert("trace.coverage", layers::ratio(calls as f64, wall as f64));
    report.values = values;
    report.spans = traced.spans;
    report.info("traced_rounds", traced.rounds.len().to_string());
    report
}
