//! The metric catalog and the per-layer ledger.
//!
//! End-to-end metrics are what a user of the device or the service sees.
//! Per-layer metrics come from a traced run and split that cost across
//! the layers a request crosses: session ring → fusion/DRR → dispatch →
//! executor → journal → chip → mat pool → mat kernels. Each per-layer
//! figure is either timed by the benchmark around a public call or read
//! from counters the program already exports (its metrics registry,
//! `OpCounters`, the flight recorder's `Attribution`, the journal store).

use std::collections::BTreeMap;

use rime_core::metrics::MetricValue;
use rime_core::{Executor, OpCounters, PhaseTag, RimeDevice, Snapshot};
use rime_memristive::ArrayTiming;
use rime_service::Attribution;

/// End-to-end metrics: `(name, unit)`. `BENCHMARK.json` lists the same
/// names with their bounds (a unit test keeps the two in step).
pub const END_TO_END: [(&str, &str); 4] = [
    ("modeled_ns_per_op", "ns"),
    ("cpu_ms_per_kop", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload bypasses
/// reports 0 (for example the journal outside `service_mixed`).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("session.submit_ns", "ns"),
    ("session.reap_ns", "ns"),
    ("session.sq_wait_ns", "ns"),
    ("session.cq_wait_ns", "ns"),
    ("session.busy_refusals", "count"),
    ("fusion.passes_per_kop", "1/kop"),
    ("fusion.drained_per_pass", "count"),
    ("fusion.fused_frac", "frac"),
    ("fusion.mean_batch", "count"),
    ("fusion.fusion_wait_ns", "ns"),
    ("fusion.drr_defer_ns", "ns"),
    ("fusion.units_per_wave", "count"),
    ("dispatch.dispatch_ns", "ns"),
    ("cmd.execute_ns.alloc", "ns"),
    ("cmd.execute_ns.write", "ns"),
    ("cmd.execute_ns.init", "ns"),
    ("cmd.execute_ns.extract", "ns"),
    ("cmd.execute_ns.extract_batch", "ns"),
    ("cmd.execute_ns.free", "ns"),
    ("cmd.overhead_ns_per_cmd", "ns"),
    ("cmd.transfers_per_op", "count"),
    ("journal.bytes_per_cmd", "bytes"),
    ("journal.checkpoints_per_kcmd", "1/kcmd"),
    ("journal.dispatch_delta_ns", "ns"),
    ("chip.sense_ns", "ns"),
    ("chip.exclude_ns", "ns"),
    ("chip.index_reduce_ns", "ns"),
    ("chip.readout_ns", "ns"),
    ("chip.rearm_ns", "ns"),
    ("chip.steps_per_key", "count"),
    ("chip.mat_searches_per_key", "count"),
    ("chip.write_ns_per_key", "ns"),
    ("pool.step_wall_ns", "ns"),
    ("pool.memoized_frac", "frac"),
    ("pool.replay_steps_per_kkey", "1/kkey"),
    ("pool.worker_busy_frac", "frac"),
    ("pool.leases_per_kop", "1/kop"),
    ("mat.ns_per_column_search", "ns"),
    ("mat.row_writes_per_op", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "frac"),
];

/// Command kinds whose executor time the ledger reports, with the row
/// each fills.
const COMMAND_ROWS: [(&str, &str); 6] = [
    ("alloc", "cmd.execute_ns.alloc"),
    ("write", "cmd.execute_ns.write"),
    ("init", "cmd.execute_ns.init"),
    ("extract", "cmd.execute_ns.extract"),
    ("extract_batch", "cmd.execute_ns.extract_batch"),
    ("free", "cmd.execute_ns.free"),
];

/// Chip extraction phases, with the row each fills.
const PHASE_ROWS: [(&str, &str); 5] = [
    ("sense", "chip.sense_ns"),
    ("exclude", "chip.exclude_ns"),
    ("index_reduce", "chip.index_reduce_ns"),
    ("readout", "chip.readout_ns"),
    ("rearm", "chip.rearm_ns"),
];

/// Metric values by name, filled by a workload.
pub type Values = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sum of counter `name` over the series matching `label`.
fn counter(s: &Snapshot, name: &str, label: Option<(&str, &str)>) -> u64 {
    series(s, name, label)
        .map(|v| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// `(count, sum)` of histogram `name` over the series matching `label`.
fn hist(s: &Snapshot, name: &str, label: Option<(&str, &str)>) -> (u64, u64) {
    series(s, name, label).fold((0, 0), |(c, t), v| match v {
        MetricValue::Histogram(h) => (c + h.count, t + h.sum),
        _ => (c, t),
    })
}

fn series<'a>(
    s: &'a Snapshot,
    name: &'a str,
    label: Option<(&'a str, &'a str)>,
) -> impl Iterator<Item = &'a MetricValue> + 'a {
    s.metrics
        .iter()
        .filter(move |m| {
            m.name == name
                && label.is_none_or(|(k, v)| m.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|m| &m.value)
}

/// A point-in-time reading of the program's exported counters.
#[derive(Debug, Clone)]
pub struct Reading {
    pub snap: Snapshot,
    pub per_chip: Vec<OpCounters>,
    pub transfers: u64,
    pub timing: ArrayTiming,
}

impl Reading {
    pub fn of_device(dev: &RimeDevice) -> Reading {
        Reading {
            snap: dev.metrics_snapshot(),
            per_chip: dev.per_chip_counters(),
            transfers: dev.interface_transfers(),
            timing: dev.config().timing,
        }
    }

    pub fn of_executor(exec: &Executor) -> Reading {
        Reading {
            snap: exec.metrics_snapshot(),
            per_chip: exec.per_chip_counters(),
            transfers: exec.interface_transfers(),
            timing: exec.config().timing,
        }
    }
}

/// Counters the chips added between two per-chip readings.
pub fn chip_deltas(before: &[OpCounters], after: &[OpCounters]) -> Vec<OpCounters> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a.delta_since(b))
        .collect()
}

/// Table I modeled device time of the work between two per-chip
/// readings: the busiest chip's priced counter deltas. Computed from
/// the integer deltas, so equal work always prices to the same bits.
pub fn modeled_ns(timing: &ArrayTiming, before: &[OpCounters], after: &[OpCounters]) -> f64 {
    rime_core::perf::modeled_busy_ns(timing, &chip_deltas(before, after))
}

/// What changed between two readings.
pub struct Delta<'a> {
    pub before: &'a Reading,
    pub after: &'a Reading,
}

impl Delta<'_> {
    pub fn ops(&self) -> OpCounters {
        chip_deltas(&self.before.per_chip, &self.after.per_chip)
            .into_iter()
            .fold(OpCounters::new(), |acc, c| acc + c)
    }

    pub fn modeled_ns(&self) -> f64 {
        modeled_ns(
            &self.after.timing,
            &self.before.per_chip,
            &self.after.per_chip,
        )
    }

    pub fn counter(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        counter(&self.after.snap, name, label).saturating_sub(counter(
            &self.before.snap,
            name,
            label,
        )) as f64
    }

    /// `(count, sum)` added to histogram `name` between the readings.
    pub fn hist(&self, name: &str, label: Option<(&str, &str)>) -> (f64, f64) {
        let (c0, s0) = hist(&self.before.snap, name, label);
        let (c1, s1) = hist(&self.after.snap, name, label);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    /// Mean of the observations added to histogram `name`.
    pub fn hist_mean(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        let (c, s) = self.hist(name, label);
        ratio(s, c)
    }

    /// Total wall nanoseconds the chips reported across every phase.
    pub fn phase_wall_ns(&self) -> f64 {
        self.hist("rime_phase_wall_ns", None).1
    }

    /// Executor time per command kind from the always-on
    /// `rime_command_wall_ns` span, as `(commands, total ns)`.
    pub fn command_wall(&self, kind: &str) -> (f64, f64) {
        self.hist("rime_command_wall_ns", Some(("command", kind)))
    }
}

/// Fills the executor, chip, pool and mat rows from the program's own
/// counters. `ops` is the workload's unit of work (keys sorted,
/// extracts, commands). When `timed_exec` is given it holds the
/// benchmark's own timing of each command kind, `(calls, total ns)`;
/// otherwise the executor's `rime_command_wall_ns` span is used.
pub fn device_rows(
    d: &Delta<'_>,
    ops: f64,
    timed_exec: Option<&BTreeMap<&'static str, (f64, f64)>>,
    out: &mut Values,
) {
    let c = d.ops();
    let keys = c.extractions as f64;
    let mut exec_total = 0.0;
    let mut exec_calls = 0.0;
    for (kind, name) in COMMAND_ROWS {
        let (calls, total) = match timed_exec {
            Some(t) => t.get(kind).copied().unwrap_or((0.0, 0.0)),
            None => d.command_wall(kind),
        };
        exec_total += total;
        exec_calls += calls;
        out.insert(name, ratio(total, calls));
    }
    let phase_wall = d.phase_wall_ns();
    out.insert(
        "cmd.overhead_ns_per_cmd",
        ratio(exec_total - phase_wall, exec_calls),
    );
    out.insert(
        "cmd.transfers_per_op",
        ratio(
            d.after.transfers.saturating_sub(d.before.transfers) as f64,
            ops,
        ),
    );
    for (phase, name) in PHASE_ROWS {
        out.insert(
            name,
            ratio(d.hist("rime_phase_wall_ns", Some(("phase", phase))).1, keys),
        );
    }
    out.insert(
        "chip.steps_per_key",
        ratio(c.column_search_steps as f64, keys),
    );
    out.insert(
        "chip.mat_searches_per_key",
        ratio(c.mat_column_searches as f64, keys),
    );
    let (_, write_ns) = match timed_exec {
        Some(t) => t.get("write").copied().unwrap_or((0.0, 0.0)),
        None => d.command_wall("write"),
    };
    out.insert(
        "chip.write_ns_per_key",
        ratio(write_ns, c.row_writes as f64),
    );
    out.insert(
        "pool.step_wall_ns",
        d.hist_mean("rime_pool_step_wall_ns", None),
    );
    let memoized = d.counter("rime_pool_descend_memoized_shards_total", None);
    let woken = d.counter("rime_pool_descend_woken_workers_total", None);
    out.insert("pool.memoized_frac", ratio(memoized, memoized + woken));
    out.insert(
        "pool.replay_steps_per_kkey",
        ratio(
            1000.0 * d.counter("rime_pool_replay_steps_total", None),
            keys,
        ),
    );
    let busy = d.counter("rime_pool_worker_busy_ns_total", None);
    let park = d.counter("rime_pool_worker_park_ns_total", None);
    out.insert("pool.worker_busy_frac", ratio(busy, busy + park));
    out.insert(
        "pool.leases_per_kop",
        ratio(1000.0 * d.counter("rime_pool_leases_total", None), ops),
    );
    let search_wall = d.hist("rime_phase_wall_ns", Some(("phase", "sense"))).1
        + d.hist("rime_phase_wall_ns", Some(("phase", "exclude"))).1;
    out.insert(
        "mat.ns_per_column_search",
        ratio(search_wall, c.mat_column_searches as f64),
    );
    out.insert("mat.row_writes_per_op", ratio(c.row_writes as f64, ops));
}

/// Per-request sums of the service's `Attribution` and of the
/// benchmark's timed session calls, from a traced phase.
#[derive(Debug, Default)]
pub struct SessionLedger {
    requests: f64,
    sq_wait: f64,
    fusion_wait: f64,
    drr_defer: f64,
    drain: f64,
    dispatch: f64,
    cq_wait: f64,
    /// Summed end-to-end latency of the attributed requests.
    e2e: f64,
    submit_calls: f64,
    submit_ns: f64,
    reap_calls: f64,
    reap_ns: f64,
}

impl SessionLedger {
    /// Books one request's attribution and its end-to-end latency.
    pub fn add(&mut self, a: &Attribution, latency_ns: u64) {
        self.requests += 1.0;
        self.sq_wait += a.sq_wait_ns as f64;
        let q = a.queue_wait_ns as f64;
        match a.queue_phase {
            PhaseTag::FusionWait => self.fusion_wait += q,
            PhaseTag::DrrDefer => self.drr_defer += q,
            _ => self.drain += q,
        }
        self.dispatch += a.dispatch_ns as f64;
        self.cq_wait += a.cq_wait_ns as f64;
        self.e2e += latency_ns as f64;
    }

    pub fn submit_call(&mut self, ns: u64) {
        self.submit_calls += 1.0;
        self.submit_ns += ns as f64;
    }

    pub fn reap_call(&mut self, ns: u64) {
        self.reap_calls += 1.0;
        self.reap_ns += ns as f64;
    }

    /// Mean executor dispatch time per request.
    pub fn dispatch_ns(&self) -> f64 {
        ratio(self.dispatch, self.requests)
    }

    /// Fills the session, queue-wait and dispatch rows, and the share of
    /// end-to-end latency the attributed phases cover.
    pub fn fill(&self, out: &mut Values) {
        let per = |v: f64| ratio(v, self.requests);
        out.insert(
            "session.submit_ns",
            ratio(self.submit_ns, self.submit_calls),
        );
        out.insert("session.reap_ns", ratio(self.reap_ns, self.reap_calls));
        out.insert("session.sq_wait_ns", per(self.sq_wait));
        out.insert("session.cq_wait_ns", per(self.cq_wait));
        out.insert("fusion.fusion_wait_ns", per(self.fusion_wait));
        out.insert("fusion.drr_defer_ns", per(self.drr_defer));
        out.insert("dispatch.dispatch_ns", self.dispatch_ns());
        let attributed = self.sq_wait
            + self.fusion_wait
            + self.drr_defer
            + self.drain
            + self.dispatch
            + self.cq_wait;
        out.insert("trace.coverage", ratio(attributed, self.e2e));
    }
}

/// Fills the fusion/scheduler rows from the service's counters. `ops`
/// is the number of requests the rows are normalized by.
pub fn service_rows(d: &Delta<'_>, ops: f64, extracts: f64, out: &mut Values) {
    let passes = d.counter("rime_service_passes_total", None);
    let drained = d.counter("rime_service_drained_total", None);
    let fused_batches = d.counter("rime_service_fused_batches_total", None);
    let fused = d.counter("rime_service_fused_commands_total", None);
    let waves = d.counter("rime_service_waves_total", None);
    let units = d.counter("rime_service_wave_units_total", None);
    out.insert("fusion.passes_per_kop", ratio(1000.0 * passes, ops));
    out.insert("fusion.drained_per_pass", ratio(drained, passes));
    out.insert("fusion.fused_frac", ratio(fused, extracts));
    out.insert("fusion.mean_batch", ratio(fused, fused_batches));
    out.insert("fusion.units_per_wave", ratio(units, waves));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// The catalog here and `BENCHMARK.json` name the same metrics with
    /// the same units, in the same order.
    #[test]
    fn catalog_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let bench = json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(json::Value::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(json::Value::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn ratio_is_total() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
