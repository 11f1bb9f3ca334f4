//! Metrics registry over the executor and the chip probes.
//!
//! The registry holds three metric families — monotonic [`Counter`]s,
//! [`Gauge`]s, and fixed-log2-bucket [`Histogram`]s — keyed by
//! `(name, sorted labels)` in a `BTreeMap`, so a [`Snapshot`] always
//! lists metrics in one canonical order. Handles returned by the
//! registration calls are `Arc`-wrapped atomics: after the first
//! registration of a key, updates are lock-free, which is what lets the
//! chip hot paths record into the registry without contending with
//! snapshot readers. The executor's own publisher keeps every handle it
//! has resolved, so a command costs atomics, not registry lookups.
//!
//! # Determinism contract
//!
//! Every metric is either *modeled* (derived from the bit-accurate
//! simulation: op counts, transfers, modeled nanoseconds priced from
//! `OpCounters`) or *wall-clock* (host timing, flagged
//! `nondeterministic`). For a fixed workload, under either
//! [`rime_memristive::ParallelPolicy`], two runs produce byte-identical
//! [`Snapshot::masked`] exports: masking zeroes the nondeterministic
//! metrics and the canonical key order fixes the rest. Wall-clock
//! metrics are quarantined this way so differential
//! oracles can keep asserting bit-equality while humans still get real
//! latency distributions. The log2 bucket layout is fixed (powers of
//! two), never adapted to observed data, so histogram *shape* can never
//! differ between runs either.
//!
//! # Example
//!
//! ```
//! use rime_core::metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let steps = registry.counter("steps_total", &[("chip", "0")], "column-search steps");
//! steps.add(64);
//! let wall = registry.histogram_with("extract_wall_ns", &[], "host time per extract", true);
//! wall.observe(1_250);
//! let snap = registry.snapshot();
//! assert!(snap.to_prometheus().contains("steps_total{chip=\"0\"} 64"));
//! // Wall-clock metrics are zeroed under masking; modeled ones survive.
//! assert!(snap.masked().to_json(false).contains("\"steps_total\""));
//! assert!(!snap.masked().to_json(false).contains("1250"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use rime_memristive::probe::{CallTime, ExtractionProbe, Phase};
use rime_memristive::{ArrayTiming, OpCounters};

use crate::cmd::Command;
use crate::error::RimeError;
use crate::telemetry::Effects;

/// Number of histogram buckets: bucket `i < 63` counts observations in
/// `(2^(i-1), 2^i]` (bucket 0 also takes 0), bucket 63 is the overflow
/// (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket an observation of `v` lands in.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A monotonically increasing counter handle (lock-free updates).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (lock-free updates).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl HistogramCore {
    /// Observation count, derived exactly as the sum of the bucket
    /// counts — histograms sit on hot paths, so `observe` pays two
    /// atomic adds instead of three and the (rare) readers do the
    /// 64-load fold here.
    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A histogram handle with fixed log2 buckets (lock-free updates).
///
/// The bucket layout never adapts to the data, so two runs observing the
/// same modeled values produce bit-identical snapshots.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The `p`-th percentile (`0.0 ..= 100.0`) estimated from the live
    /// bucket counts — see [`HistogramSnap::percentile`] for the
    /// interpolation rule. `None` while the histogram is empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let snap = HistogramSnap {
            buckets: std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed)),
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count(),
        };
        snap.percentile(p)
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    nondeterministic: bool,
    handle: Handle,
}

type MetricKey = (String, Vec<(String, String)>);

/// The lock-cheap metrics registry: registration takes a short lock, but
/// the returned handles update atomically with no lock at all. Cloning
/// the registry clones a shared reference (`Arc`), not the metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RwLock<BTreeMap<MetricKey, Entry>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn get_or_register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        nondeterministic: bool,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        sorted.sort();
        let key = (name.to_string(), sorted);
        {
            let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = map.get(&key) {
                return entry.handle.clone();
            }
        }
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        map.entry(key)
            .or_insert_with(|| Entry {
                help: help.to_string(),
                nondeterministic,
                handle: make(),
            })
            .handle
            .clone()
    }

    /// Registers (or fetches) a deterministic counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        self.counter_with(name, labels, help, false)
    }

    /// Registers (or fetches) a counter, flagged nondeterministic when it
    /// aggregates wall-clock quantities.
    pub fn counter_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        nondeterministic: bool,
    ) -> Counter {
        match self.get_or_register(name, labels, help, nondeterministic, || {
            Handle::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Handle::Counter(c) => Counter(c),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Registers (or fetches) a deterministic gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        self.gauge_with(name, labels, help, false)
    }

    /// Registers (or fetches) a gauge, flagged nondeterministic when it
    /// reflects wall-clock-derived quantities.
    pub fn gauge_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        nondeterministic: bool,
    ) -> Gauge {
        match self.get_or_register(name, labels, help, nondeterministic, || {
            Handle::Gauge(Arc::new(AtomicI64::new(0)))
        }) {
            Handle::Gauge(g) => Gauge(g),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Registers (or fetches) a deterministic histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        self.histogram_with(name, labels, help, false)
    }

    /// Registers (or fetches) a histogram, flagged nondeterministic when
    /// it observes wall-clock quantities.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        nondeterministic: bool,
    ) -> Histogram {
        match self.get_or_register(name, labels, help, nondeterministic, || {
            Handle::Histogram(Arc::new(HistogramCore::default()))
        }) {
            Handle::Histogram(h) => Histogram(h),
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// A consistent point-in-time export of every registered metric, in
    /// canonical `(name, labels)` order.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let metrics = map
            .iter()
            .map(|((name, labels), entry)| MetricSnap {
                name: name.clone(),
                labels: labels.clone(),
                help: entry.help.clone(),
                nondeterministic: entry.nondeterministic,
                value: match &entry.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Handle::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                    Handle::Histogram(h) => MetricValue::Histogram(Box::new(HistogramSnap {
                        buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count(),
                    })),
                },
            })
            .collect();
        Snapshot { metrics }
    }
}

/// A frozen histogram: per-bucket (non-cumulative) counts plus sum and
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnap {
    /// Raw per-bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnap {
    /// The `p`-th percentile (`0.0 ..= 100.0`) estimated by linear
    /// interpolation inside the log2 bucket holding the target rank.
    ///
    /// Bucket `i` spans `(2^(i-1), 2^i]` (bucket 0 spans `[0, 1]`), so
    /// the estimate walks cumulative counts to the bucket containing
    /// rank `ceil(p/100 · count)` and interpolates between the bucket's
    /// bounds by the rank's position within it. Observations in the
    /// overflow (`+Inf`) bucket have no finite upper bound, so a
    /// percentile landing there reports `f64::INFINITY`.
    ///
    /// Returns `None` for an empty histogram; `p` is clamped to
    /// `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            // A single observation is known exactly — the sum *is* the
            // sample; interpolating inside its log2 bucket would report
            // up to 2x off for no reason.
            return Some(self.sum as f64);
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        // Nearest-rank target, at least 1: p=0 reports the minimum
        // bucket's lower edge region rather than a synthetic -∞.
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if cumulative.saturating_add(b) >= target {
                if i == HISTOGRAM_BUCKETS - 1 {
                    return Some(f64::INFINITY);
                }
                let lower = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let upper = (1u64 << i) as f64;
                let into = (target - cumulative) as f64 / b as f64;
                return Some(lower + (upper - lower) * into);
            }
            cumulative = cumulative.saturating_add(b);
        }
        // Unreachable when count equals the bucket total, but a stale
        // (racing) snapshot may undercount: fall back to the top edge.
        Some(f64::INFINITY)
    }
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state (boxed: its buckets are an inline array).
    Histogram(Box<HistogramSnap>),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    fn zeroed(&self) -> MetricValue {
        match self {
            MetricValue::Counter(_) => MetricValue::Counter(0),
            MetricValue::Gauge(_) => MetricValue::Gauge(0),
            MetricValue::Histogram(_) => MetricValue::Histogram(Box::new(HistogramSnap {
                buckets: [0; HISTOGRAM_BUCKETS],
                sum: 0,
                count: 0,
            })),
        }
    }
}

/// One frozen metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnap {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Whether the metric carries wall-clock (host) quantities.
    pub nondeterministic: bool,
    /// The frozen value.
    pub value: MetricValue,
}

/// A consistent point-in-time export of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Metrics in canonical `(name, labels)` order.
    pub metrics: Vec<MetricSnap>,
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers, cumulative `le` histogram buckets).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for m in &self.metrics {
            if last_name != Some(m.name.as_str()) {
                out.push_str(&format!(
                    "# HELP {} {}\n",
                    m.name,
                    m.help.replace('\n', " ")
                ));
                out.push_str(&format!("# TYPE {} {}\n", m.name, m.value.kind()));
                last_name = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        m.name,
                        render_labels(&m.labels, None)
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        m.name,
                        render_labels(&m.labels, None)
                    ));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate() {
                        cumulative = cumulative.saturating_add(b);
                        let le = if i == HISTOGRAM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            (1u64 << i).to_string()
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            m.name,
                            render_labels(&m.labels, Some(("le", &le)))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        render_labels(&m.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.name,
                        render_labels(&m.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }

    /// Renders the snapshot as JSON (`pretty` adds indentation). The
    /// format round-trips through [`Snapshot::from_json`].
    pub fn to_json(&self, pretty: bool) -> String {
        let (nl, ind, sp) = if pretty {
            ("\n", "  ", " ")
        } else {
            ("", "", "")
        };
        let mut out = String::new();
        out.push_str(&format!("{{{nl}{ind}\"metrics\":{sp}[{nl}"));
        for (i, m) in self.metrics.iter().enumerate() {
            let labels = m
                .labels
                .iter()
                .map(|(k, v)| format!("\"{}\":{sp}\"{}\"", escape_json(k), escape_json(v)))
                .collect::<Vec<_>>()
                .join(&format!(",{sp}"));
            let value = match &m.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Gauge(v) => format!("{v}"),
                MetricValue::Histogram(h) => {
                    let buckets = h
                        .buckets
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    format!(
                        "{{\"buckets\":{sp}[{buckets}],{sp}\"sum\":{sp}{},{sp}\"count\":{sp}{}}}",
                        h.sum, h.count
                    )
                }
            };
            out.push_str(&format!(
                "{ind}{ind}{{\"name\":{sp}\"{}\",{sp}\"labels\":{sp}{{{labels}}},{sp}\"type\":{sp}\"{}\",{sp}\"help\":{sp}\"{}\",{sp}\"nondeterministic\":{sp}{},{sp}\"value\":{sp}{value}}}{}{nl}",
                escape_json(&m.name),
                m.value.kind(),
                escape_json(&m.help),
                m.nondeterministic,
                if i + 1 < self.metrics.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!("{ind}]{nl}}}{nl}"));
        out
    }

    /// A copy with every nondeterministic (wall-clock) metric zeroed.
    /// Two runs of the same workload under a pinned parallel policy
    /// produce byte-identical `masked().to_json(false)` strings.
    pub fn masked(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .map(|m| {
                    let mut m = m.clone();
                    if m.nondeterministic {
                        m.value = m.value.zeroed();
                    }
                    m
                })
                .collect(),
        }
    }

    /// Subtracts `baseline` metric-wise: counters and histograms become
    /// deltas (saturating at zero), gauges keep their current value.
    /// Metrics absent from the baseline pass through unchanged.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        type BaseKey<'a> = (&'a str, &'a [(String, String)]);
        let base: BTreeMap<BaseKey<'_>, &MetricValue> = baseline
            .metrics
            .iter()
            .map(|m| ((m.name.as_str(), m.labels.as_slice()), &m.value))
            .collect();
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .map(|m| {
                    let mut m = m.clone();
                    if let Some(earlier) = base.get(&(m.name.as_str(), m.labels.as_slice())) {
                        m.value = match (&m.value, earlier) {
                            (MetricValue::Counter(now), MetricValue::Counter(then)) => {
                                MetricValue::Counter(now.saturating_sub(*then))
                            }
                            (MetricValue::Histogram(now), MetricValue::Histogram(then)) => {
                                MetricValue::Histogram(Box::new(HistogramSnap {
                                    buckets: std::array::from_fn(|i| {
                                        now.buckets[i].saturating_sub(then.buckets[i])
                                    }),
                                    sum: now.sum.saturating_sub(then.sum),
                                    count: now.count.saturating_sub(then.count),
                                }))
                            }
                            (current, _) => (*current).clone(),
                        };
                    }
                    m
                })
                .collect(),
        }
    }

    /// Parses a snapshot back from its [`Snapshot::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema violation.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = json::parse(text)?;
        let obj = root.as_object().ok_or("top level must be an object")?;
        let metrics = json::field(obj, "metrics")?
            .as_array()
            .ok_or("\"metrics\" must be an array")?;
        let mut out = Vec::with_capacity(metrics.len());
        for m in metrics {
            let m = m.as_object().ok_or("metric entries must be objects")?;
            let name = json::field(m, "name")?
                .as_str()
                .ok_or("\"name\" must be a string")?
                .to_string();
            let labels_obj = json::field(m, "labels")?
                .as_object()
                .ok_or("\"labels\" must be an object")?;
            let labels: Vec<(String, String)> = labels_obj
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or_else(|| format!("label {k} must be a string"))
                })
                .collect::<Result<_, _>>()?;
            let help = json::field(m, "help")?
                .as_str()
                .ok_or("\"help\" must be a string")?
                .to_string();
            let nondeterministic = json::field(m, "nondeterministic")?
                .as_bool()
                .ok_or("\"nondeterministic\" must be a boolean")?;
            let kind = json::field(m, "type")?
                .as_str()
                .ok_or("\"type\" must be a string")?;
            let value = json::field(m, "value")?;
            let value = match kind {
                "counter" => {
                    MetricValue::Counter(value.as_u64().ok_or("counter value must be a u64")?)
                }
                "gauge" => MetricValue::Gauge(value.as_i64().ok_or("gauge value must be an i64")?),
                "histogram" => {
                    let h = value
                        .as_object()
                        .ok_or("histogram value must be an object")?;
                    let buckets = json::field(h, "buckets")?
                        .as_array()
                        .ok_or("\"buckets\" must be an array")?;
                    if buckets.len() != HISTOGRAM_BUCKETS {
                        return Err(format!(
                            "histogram {name:?} has {} buckets, not {HISTOGRAM_BUCKETS}",
                            buckets.len()
                        ));
                    }
                    let mut counts = [0; HISTOGRAM_BUCKETS];
                    for (count, b) in counts.iter_mut().zip(buckets) {
                        *count = b.as_u64().ok_or("buckets must hold u64s")?;
                    }
                    MetricValue::Histogram(Box::new(HistogramSnap {
                        buckets: counts,
                        sum: json::field(h, "sum")?
                            .as_u64()
                            .ok_or("\"sum\" must be a u64")?,
                        count: json::field(h, "count")?
                            .as_u64()
                            .ok_or("\"count\" must be a u64")?,
                    }))
                }
                other => return Err(format!("unknown metric type {other:?}")),
            };
            out.push(MetricSnap {
                name,
                labels,
                help,
                nondeterministic,
                value,
            });
        }
        Ok(Snapshot { metrics: out })
    }
}

/// Minimal recursive-descent JSON reader for [`Snapshot::from_json`] —
/// the workspace is offline, so no serde. Crate-visible so the flight
/// recorder's Chrome-trace selfcheck can reuse it.
pub(crate) mod json {
    /// The error for a surrogate escape `\u{code}` without its partner.
    fn lone_surrogate(code: u32) -> String {
        format!("lone surrogate \\u{code:04x}")
    }

    /// A parsed JSON value (numbers are kept as `i128`; the snapshot
    /// schema never uses fractions).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Integral number.
        Int(i128),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object (insertion order preserved).
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Int(i) => u64::try_from(*i).ok(),
                _ => None,
            }
        }
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Int(i) => i64::try_from(*i).ok(),
                _ => None,
            }
        }
    }

    pub fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {name:?}"))
    }

    /// Deepest nesting of arrays and objects the reader accepts. A
    /// snapshot nests 5 deep and a Chrome trace 4; the cap keeps the
    /// recursive descent from overflowing the stack on hostile input.
    pub const MAX_DEPTH: usize = 64;

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    if self.depth == MAX_DEPTH {
                        return Err(format!(
                            "nesting deeper than {MAX_DEPTH} at byte {}",
                            self.pos
                        ));
                    }
                    self.depth += 1;
                    let v = if open == b'{' {
                        self.object()
                    } else {
                        self.array()
                    };
                    self.depth -= 1;
                    v
                }
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(out));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                out.push((key, self.value()?));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(out));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                self.skip_ws();
                out.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(out));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let code = self.hex4(self.pos + 1)?;
                                self.pos += 4;
                                let code = match code {
                                    // A high surrogate needs a low one
                                    // right after it; together they are
                                    // one character.
                                    0xD800..=0xDBFF => {
                                        let low = match self.bytes.get(self.pos + 1..self.pos + 3) {
                                            Some(b"\\u") => self.hex4(self.pos + 3)?,
                                            _ => return Err(lone_surrogate(code)),
                                        };
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err(lone_surrogate(code));
                                        }
                                        self.pos += 6;
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    0xDC00..=0xDFFF => return Err(lone_surrogate(code)),
                                    code => code,
                                };
                                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            }
                            other => {
                                return Err(format!("bad escape {:?}", other.map(|c| c as char)))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(c) if c < 0x20 => {
                        return Err(format!("raw control character U+{c:04X} in a string"))
                    }
                    Some(_) => {
                        // Copy the run up to the next quote, backslash or
                        // control character. All are ASCII, so the run of
                        // the `&str` input ends on a character boundary.
                        let rest = &self.bytes[self.pos..];
                        let run = rest
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                            .unwrap_or(rest.len());
                        out.push_str(
                            std::str::from_utf8(&rest[..run]).map_err(|_| "invalid UTF-8")?,
                        );
                        self.pos += run;
                    }
                }
            }
        }

        /// The four hex digits of a `\\u` escape starting at byte `at`.
        fn hex4(&self, at: usize) -> Result<u32, String> {
            let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
            hex.iter().try_fold(0, |code, &b| {
                let digit = char::from(b).to_digit(16).ok_or("bad \\u escape")?;
                Ok(code << 4 | digit)
            })
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
            if let Some(b'.' | b'e' | b'E') = self.peek() {
                return Err(format!(
                    "non-integer number at byte {start} (snapshot schema is integral)"
                ));
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
            s.parse::<i128>()
                .map(Value::Int)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
    }
}

/// Validates Prometheus text exposition syntax, returning the number of
/// sample lines. Used by the `rime-stats --selfcheck` CI gate (the
/// workspace is offline, so the check is an in-repo grammar walk, not an
/// external parser).
///
/// # Errors
///
/// Returns `(line number, description)` of the first malformed line.
pub fn validate_prometheus(text: &str) -> Result<usize, (usize, String)> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    fn parse_labels(s: &str) -> Result<(), String> {
        // `s` is the text between '{' and '}'.
        if s.is_empty() {
            return Ok(());
        }
        let mut rest = s;
        loop {
            let eq = rest.find('=').ok_or("label without '='")?;
            let key = &rest[..eq];
            if !valid_name(key) {
                return Err(format!("bad label name {key:?}"));
            }
            rest = rest[eq + 1..]
                .strip_prefix('"')
                .ok_or("label value must be quoted")?;
            // Scan to the closing unescaped quote.
            let mut escaped = false;
            let mut end = None;
            for (i, c) in rest.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = end.ok_or("unterminated label value")?;
            rest = &rest[end + 1..];
            match rest.strip_prefix(',') {
                Some(r) => rest = r,
                None if rest.is_empty() => return Ok(()),
                None => return Err("expected ',' between labels".to_string()),
            }
        }
    }

    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            let ok = comment
                .strip_prefix("HELP ")
                .map(|r| r.split_whitespace().next().is_some_and(valid_name))
                .or_else(|| {
                    comment.strip_prefix("TYPE ").map(|r| {
                        let mut parts = r.split_whitespace();
                        parts.next().is_some_and(valid_name)
                            && matches!(parts.next(), Some("counter" | "gauge" | "histogram"))
                    })
                })
                .unwrap_or(true); // other comments are legal
            if !ok {
                return Err((lineno, format!("malformed comment: {line:?}")));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or((lineno, "sample line without value".to_string()))?;
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return Err((lineno, format!("bad sample value {value:?}")));
        }
        let name = if let Some(open) = series.find('{') {
            let labels = series[open..]
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .ok_or((lineno, "unbalanced label braces".to_string()))?;
            parse_labels(labels).map_err(|e| (lineno, e))?;
            &series[..open]
        } else {
            series
        };
        if !valid_name(name) {
            return Err((lineno, format!("bad metric name {name:?}")));
        }
        samples += 1;
    }
    Ok(samples)
}

fn error_code(err: &RimeError) -> &'static str {
    match err {
        RimeError::OutOfContiguousMemory { .. } => "out_of_contiguous_memory",
        RimeError::InvalidRegion => "invalid_region",
        RimeError::OutOfBounds { .. } => "out_of_bounds",
        RimeError::NotInitialized => "not_initialized",
        RimeError::TypeMismatch { .. } => "type_mismatch",
        RimeError::Chip(_) => "chip_fault",
        RimeError::Journal(_) => "journal",
    }
}

const OP_NAMES: [&str; 8] = [
    "column_search_steps",
    "mat_column_searches",
    "row_reads",
    "row_writes",
    "select_loads",
    "htree_traversals",
    "init_ops",
    "extractions",
];

fn op_values(c: &OpCounters) -> [u64; 8] {
    [
        c.column_search_steps,
        c.mat_column_searches,
        c.row_reads,
        c.row_writes,
        c.select_loads,
        c.htree_traversals,
        c.init_ops,
        c.extractions,
    ]
}

/// One command kind's series, registered when the kind first runs.
#[derive(Debug)]
struct KindSeries {
    /// `rime_commands_total` with `outcome="ok"`, then `outcome="error"`,
    /// each registered when first counted.
    outcomes: [Option<Counter>; 2],
    wall: Histogram,
    transfers: Histogram,
    modeled: Histogram,
}

impl KindSeries {
    fn new(registry: &MetricsRegistry, kind: &str) -> KindSeries {
        let labels = [("command", kind)];
        KindSeries {
            outcomes: [None, None],
            wall: registry.histogram_with(
                "rime_command_wall_ns",
                &labels,
                "wall-clock span duration in nanoseconds",
                true,
            ),
            transfers: registry.histogram(
                "rime_command_transfers",
                &labels,
                "interface transfers per command",
            ),
            modeled: registry.histogram(
                "rime_command_modeled_ns",
                &labels,
                "modeled device nanoseconds per command (Table I pricing)",
            ),
        }
    }
}

/// The executor's metrics publisher: per-command outcome/errcode
/// counters, per-command wall-time, modeled-latency and transfer
/// histograms, and per-chip op counters. A series is registered when a
/// command first touches it, so a snapshot lists exactly the series the
/// workload touched; its handle is kept, so later commands update atomics
/// without a registry lookup (only the rare error-code counter looks up).
#[derive(Debug)]
pub(crate) struct MetricsSink {
    registry: MetricsRegistry,
    timing: ArrayTiming,
    seq: Gauge,
    transfers_total: Counter,
    replayed: Counter,
    kinds: BTreeMap<&'static str, KindSeries>,
    /// `rime_chip_ops_total`, indexed `[chip][op]` in [`OP_NAMES`] order.
    chip_ops: Vec<[Option<Counter>; OP_NAMES.len()]>,
}

impl MetricsSink {
    /// Creates a publisher into `registry` for a device of `chips` chips,
    /// pricing modeled latency with `timing`.
    pub(crate) fn new(registry: MetricsRegistry, timing: ArrayTiming, chips: usize) -> MetricsSink {
        MetricsSink {
            seq: registry.gauge(
                "rime_events_seq",
                &[],
                "sequence number of the last telemetry event",
            ),
            transfers_total: registry.counter(
                "rime_interface_transfers_total",
                &[],
                "values transferred over the DDR4 interface",
            ),
            // Flagged nondeterministic: whether (and how much) a run
            // replayed depends on where a crash landed, so masked
            // snapshots of a recovered device must still match an
            // uncrashed run's.
            replayed: registry.counter_with(
                "rime_replayed_commands_total",
                &[],
                "commands re-executed during journal recovery (not fresh work)",
                true,
            ),
            registry,
            timing,
            kinds: BTreeMap::new(),
            chip_ops: vec![Default::default(); chips],
        }
    }

    /// Counts one journal-replay re-execution. Replayed commands skip
    /// the regular per-command metrics (they are not new device work —
    /// the recovered chips re-earn their counters, but command totals
    /// must stay identical to the uncrashed run) and tick only this
    /// nondeterministic-flagged counter.
    pub(crate) fn note_replayed(&self) {
        self.replayed.inc();
    }

    /// Publishes command number `seq`: its outcome, the host time it
    /// took, and its effects.
    pub(crate) fn observe(
        &mut self,
        seq: u64,
        command: &Command<'_>,
        error: Option<&RimeError>,
        wall_ns: u64,
        effects: &Effects,
    ) {
        let registry = &self.registry;
        let kind = command.kind();
        let series = self
            .kinds
            .entry(kind)
            .or_insert_with(|| KindSeries::new(registry, kind));
        self.seq.set(i64::try_from(seq).unwrap_or(i64::MAX));
        let outcome = usize::from(error.is_some());
        series.outcomes[outcome]
            .get_or_insert_with(|| {
                registry.counter(
                    "rime_commands_total",
                    &[("command", kind), ("outcome", ["ok", "error"][outcome])],
                    "executed commands by kind and outcome",
                )
            })
            .inc();
        if let Some(err) = error {
            registry
                .counter(
                    "rime_command_errors_total",
                    &[("command", kind), ("code", error_code(err))],
                    "failed commands by kind and error code",
                )
                .inc();
        }
        series.wall.observe(wall_ns);
        self.transfers_total.add(effects.interface_transfers());
        series.transfers.observe(effects.interface_transfers());
        // Spanned chips work concurrently (Fig. 14): a command takes as
        // long as its busiest chip, not the sum over chips.
        let deltas = effects.chip_deltas();
        let modeled_ns = crate::perf::modeled_busy_ns(&self.timing, deltas.iter().map(|(_, d)| d));
        series.modeled.observe(modeled_ns as u64);
        for (chip, delta) in deltas {
            let slots = &mut self.chip_ops[*chip as usize];
            for ((slot, op), value) in slots.iter_mut().zip(OP_NAMES).zip(op_values(delta)) {
                if value == 0 {
                    continue;
                }
                slot.get_or_insert_with(|| {
                    registry.counter(
                        "rime_chip_ops_total",
                        &[("chip", &chip.to_string()), ("op", op)],
                        "chip operations by kind (mirrors OpCounters)",
                    )
                })
                .add(value);
            }
        }
    }
}

/// The registry-backed [`ExtractionProbe`]: publishes each extraction
/// call's host time, once, as `rime_phase_wall_ns{chip, phase}` (`sense`
/// for the descents, `rearm` for the select-vector rearms) and — with a
/// flight recorder and a thread trace context — one
/// [`PhaseTag::Device`](crate::flight::PhaseTag::Device) span under that
/// context.
///
/// Installed per chip by `RimeDevice::enable_extraction_metrics()` (one
/// probe per chip so the `chip` label is fixed at construction). It
/// prices nothing: what the device did, and its Table I modeled time,
/// come from the chip's [`OpCounters`] through the executor's ledger
/// (`rime_chip_ops_total`, `rime_command_modeled_ns`).
#[derive(Debug)]
pub struct ChipProbe {
    sense: Histogram,
    rearm: Histogram,
    flight: Option<Arc<crate::flight::FlightRecorder>>,
}

impl ChipProbe {
    /// Builds a probe for chip `chip`, publishing into `registry`. With
    /// `flight`, each reported call also emits one `device` span
    /// parented under the dispatching thread's current trace context
    /// (see [`crate::flight::current`]); without a recorder — or without
    /// a thread context — a report costs one pointer test extra.
    pub fn new(
        registry: &MetricsRegistry,
        chip: u32,
        flight: Option<Arc<crate::flight::FlightRecorder>>,
    ) -> ChipProbe {
        let chip = chip.to_string();
        let wall = |phase: Phase| {
            registry.histogram_with(
                "rime_phase_wall_ns",
                &[("chip", chip.as_str()), ("phase", phase.label())],
                "wall-clock nanoseconds per extraction phase",
                true,
            )
        };
        ChipProbe {
            sense: wall(Phase::Sense),
            rearm: wall(Phase::Rearm),
            flight,
        }
    }
}

impl ExtractionProbe for ChipProbe {
    fn extraction(&self, time: CallTime) {
        self.sense.observe(time.sense_ns);
        self.rearm.observe(time.rearm_ns);
        if let Some(flight) = &self.flight {
            if let Some(ctx) = crate::flight::current() {
                // The call just ended: its span closes now.
                let dur = time.rearm_ns.saturating_add(time.sense_ns);
                flight.record_span(
                    flight.child(ctx),
                    crate::flight::PhaseTag::Device,
                    flight.now_ns().saturating_sub(dur),
                    dur,
                    crate::flight::TENANT_SERVICE,
                    0,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 62), 62);
        assert_eq!(bucket_index((1 << 62) + 1), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn percentile_pins_the_log2_interpolation() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", &[], "help");
        assert_eq!(h.percentile(50.0), None, "empty histogram");
        // Four observations of 4 land in bucket 2, which spans (2, 4].
        for _ in 0..4 {
            h.observe(4);
        }
        // Ranks 1..4 of 4 sit at within-bucket fractions 1/4 .. 4/4 of
        // the (2, 4] span: 2 + 2·k/4.
        assert_eq!(h.percentile(25.0), Some(2.5));
        assert_eq!(h.percentile(50.0), Some(3.0));
        assert_eq!(h.percentile(100.0), Some(4.0));
        // p=0 clamps to rank 1, not a synthetic minimum.
        assert_eq!(h.percentile(0.0), Some(2.5));
    }

    #[test]
    fn percentile_walks_buckets_and_handles_edges() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("mix_ns", &[], "help");
        // 1 → bucket 0 ([0,1]), 8 → bucket 3 ((4,8]), 1024 → bucket 10.
        h.observe(1);
        h.observe(8);
        h.observe(1024);
        // Rank 1 of 3 is the whole of bucket 0's single observation.
        assert_eq!(h.percentile(33.0), Some(1.0));
        // Rank 2 consumes bucket 3's one observation entirely: 4 + 4·1/1.
        assert_eq!(h.percentile(66.0), Some(8.0));
        // Rank 3: bucket 10 spans (512, 1024].
        assert_eq!(h.percentile(99.0), Some(1024.0));
        // An observation beyond 2^62 lands in the +Inf bucket: the tail
        // percentile is honestly unbounded.
        h.observe(u64::MAX);
        assert_eq!(h.percentile(99.9), Some(f64::INFINITY));
        // The snapshot computes the same estimates.
        let snap = reg.snapshot();
        let MetricValue::Histogram(hs) = &snap.metrics[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(hs.percentile(40.0), Some(8.0));
        assert_eq!(hs.percentile(100.0), Some(f64::INFINITY));
    }

    #[test]
    fn percentile_single_sample_is_exact() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("one_ns", &[], "help");
        // 37 lands in bucket 6 ((32, 64]); interpolation would report 64,
        // but one observation is known exactly from the sum.
        h.observe(37);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(37.0), "p{p}");
        }
        // Holds in the top (+Inf) bucket too: the sum is still the sample.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("top_ns", &[], "help");
        h.observe(u64::MAX);
        assert_eq!(h.percentile(99.0), Some(u64::MAX as f64));
    }

    #[test]
    fn percentile_all_mass_in_top_bucket_is_unbounded() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("inf_ns", &[], "help");
        // Beyond 2^62 everything is overflow: no finite upper bound
        // exists at any rank once count > 1.
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        h.observe(1 << 63);
        for p in [0.0, 1.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), Some(f64::INFINITY), "p{p}");
        }
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("clamp_ns", &[], "help");
        for _ in 0..4 {
            h.observe(4);
        }
        // Below 0 clamps to p0 (rank 1); above 100 clamps to p100.
        assert_eq!(h.percentile(-25.0), h.percentile(0.0));
        assert_eq!(h.percentile(250.0), h.percentile(100.0));
        assert_eq!(h.percentile(f64::NEG_INFINITY), h.percentile(0.0));
        assert_eq!(h.percentile(f64::INFINITY), h.percentile(100.0));
        assert_eq!(h.percentile(f64::NAN), h.percentile(0.0));
        // Empty histograms report None at every p, clamped or not.
        let e = reg.histogram("empty_ns", &[], "help");
        assert_eq!(e.percentile(-1.0), None);
        assert_eq!(e.percentile(50.0), None);
        assert_eq!(e.percentile(101.0), None);
    }

    #[test]
    fn handles_are_shared_across_registration() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("k", "v")], "help");
        let b = reg.counter("x_total", &[("k", "v")], "ignored on re-registration");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let g = reg.gauge("depth", &[], "help");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", &[], "help");
        let _ = reg.gauge("x", &[], "help");
    }

    #[test]
    fn snapshot_is_canonically_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta_total", &[], "z").inc();
        reg.counter("alpha_total", &[("chip", "1")], "a").inc();
        reg.counter("alpha_total", &[("chip", "0")], "a").inc();
        let names: Vec<(String, Vec<(String, String)>)> = reg
            .snapshot()
            .metrics
            .into_iter()
            .map(|m| (m.name, m.labels))
            .collect();
        assert_eq!(names[0].0, "alpha_total");
        assert_eq!(names[0].1[0].1, "0");
        assert_eq!(names[1].1[0].1, "1");
        assert_eq!(names[2].0, "zeta_total");
    }

    #[test]
    fn prometheus_exposition_is_valid_and_cumulative() {
        let reg = MetricsRegistry::new();
        reg.counter("ops_total", &[("chip", "0")], "ops").add(7);
        reg.gauge("depth", &[], "queue depth").set(-3);
        let h = reg.histogram("lat_ns", &[], "latency");
        h.observe(1);
        h.observe(3);
        h.observe(1000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{chip=\"0\"} 7"));
        assert!(text.contains("depth -3"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"4\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"1024\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 1004"));
        assert!(text.contains("lat_ns_count 3"));
        let samples = validate_prometheus(&text).expect("own exposition must parse");
        assert!(samples > HISTOGRAM_BUCKETS);
    }

    #[test]
    fn prometheus_validator_rejects_malformed_lines() {
        assert!(validate_prometheus("9bad_name 1\n").is_err());
        assert!(validate_prometheus("name{k=unquoted} 1\n").is_err());
        assert!(validate_prometheus("name novalue\n").is_err());
        assert!(validate_prometheus("name{k=\"v\"} 1\n").is_ok());
        assert!(validate_prometheus("# arbitrary comment\n").is_ok());
        assert!(validate_prometheus("# TYPE x summary\n").is_err());
    }

    #[test]
    fn json_roundtrips_compact_and_pretty() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[("k", "va\"l")], "with \"quotes\"")
            .add(3);
        reg.gauge("g", &[], "gauge").set(-7);
        reg.histogram("h_ns", &[], "hist").observe(42);
        let snap = reg.snapshot();
        for pretty in [false, true] {
            let text = snap.to_json(pretty);
            let back = Snapshot::from_json(&text).expect("roundtrip parse");
            assert_eq!(back, snap, "pretty={pretty}");
        }
    }

    #[test]
    fn masking_zeroes_only_nondeterministic_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter("modeled_total", &[], "modeled").add(9);
        reg.counter_with("wall_ns_total", &[], "wall", true)
            .add(1234);
        let h = reg.histogram_with("span_wall_ns", &[], "wall hist", true);
        h.observe(55);
        let masked = reg.snapshot().masked();
        for m in &masked.metrics {
            match (m.name.as_str(), &m.value) {
                ("modeled_total", MetricValue::Counter(v)) => assert_eq!(*v, 9),
                ("wall_ns_total", MetricValue::Counter(v)) => assert_eq!(*v, 0),
                ("span_wall_ns", MetricValue::Histogram(h)) => {
                    assert_eq!(h.count, 0);
                    assert_eq!(h.sum, 0);
                    assert!(h.buckets.iter().all(|&b| b == 0));
                }
                other => panic!("unexpected metric {other:?}"),
            }
        }
    }

    #[test]
    fn diff_subtracts_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", &[], "c");
        let g = reg.gauge("g", &[], "g");
        let h = reg.histogram("h_ns", &[], "h");
        c.add(5);
        g.set(2);
        h.observe(8);
        let baseline = reg.snapshot();
        c.add(3);
        g.set(9);
        h.observe(8);
        h.observe(100);
        let diff = reg.snapshot().diff(&baseline);
        for m in &diff.metrics {
            match (m.name.as_str(), &m.value) {
                ("c_total", MetricValue::Counter(v)) => assert_eq!(*v, 3),
                ("g", MetricValue::Gauge(v)) => assert_eq!(*v, 9, "gauges pass through"),
                ("h_ns", MetricValue::Histogram(h)) => {
                    assert_eq!(h.count, 2);
                    assert_eq!(h.sum, 108);
                }
                other => panic!("unexpected metric {other:?}"),
            }
        }
    }

    #[test]
    fn chip_probe_publishes_wall_time_once_per_call() {
        let reg = MetricsRegistry::new();
        let probe = ChipProbe::new(&reg, 2, None);
        probe.extraction(CallTime {
            keys: 3,
            rearm_ns: 40,
            sense_ns: 999,
        });
        // A call on an exhausted range: one rearm, no descent.
        probe.extraction(CallTime {
            keys: 0,
            rearm_ns: 5,
            sense_ns: 0,
        });
        let series: Vec<(String, u64, u64)> = reg
            .snapshot()
            .metrics
            .iter()
            .map(|m| {
                assert_eq!(m.name, "rime_phase_wall_ns", "the probe prices nothing");
                assert!(m.nondeterministic, "wall clock is masked");
                assert_eq!(m.labels[0], ("chip".to_string(), "2".to_string()));
                match &m.value {
                    MetricValue::Histogram(h) => (m.labels[1].1.clone(), h.count, h.sum),
                    other => panic!("{other:?}"),
                }
            })
            .collect();
        assert_eq!(
            series,
            [("rearm".to_string(), 2, 45), ("sense".to_string(), 2, 999)]
        );

        // Modeled time comes from the counters through the ledger: keys
        // 5 and 3 part at bit 2, so one extract runs 62 column-search
        // steps and one readout, priced 62 × 282.5 / 64 + 4.3 ns.
        use rime_memristive::{Direction, KeyFormat};
        let dev = crate::RimeDevice::new(crate::RimeConfig::small());
        dev.enable_extraction_metrics();
        let (region, fmt) = (dev.alloc(2).unwrap(), KeyFormat::UNSIGNED64);
        dev.write_raw(region, 0, &[5, 3], fmt).unwrap();
        dev.init_raw(region, 0, 2, fmt).unwrap();
        let hit = dev.next_extreme_raw(region, fmt, Direction::Min);
        assert_eq!(hit.unwrap(), Some((1, 3)));
        let modeled = dev
            .metrics_snapshot()
            .metrics
            .into_iter()
            .find(|m| m.name == "rime_command_modeled_ns" && m.labels[0].1 == "extract");
        match modeled.map(|m| m.value) {
            Some(MetricValue::Histogram(h)) => assert_eq!((h.count, h.sum), (1, 277)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        let v = json::parse(r#"{"a": [1, -2, "x\nyA"], "b": true, "c": null}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = json::field(obj, "a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_i64(), Some(-2));
        assert_eq!(arr[2].as_str(), Some("x\nyA"));
        let runs = json::parse(r#""é\u00e9ü\"x\\""#).unwrap();
        assert_eq!(runs.as_str(), Some("ééü\"x\\"));
        // Escapes JSON allows: `\b`, `\f`, and a surrogate pair as one
        // character.
        let allowed = json::parse(r#""\b\f\ud83d\ude00\uD834\uDD1E""#).unwrap();
        assert_eq!(allowed.as_str(), Some("\u{8}\u{c}\u{1f600}\u{1d11e}"));
        // Strings JSON forbids: a `\u` with a sign, and raw control
        // characters.
        for bad in [r#""a\u+041""#, "\"a\u{1}b\"", "\"a\nb\""] {
            assert!(json::parse(bad).is_err(), "{bad:?}");
        }
        // A surrogate without its partner is an error of its own.
        for lone in [
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\udc00\ud800""#,
        ] {
            let err = json::parse(lone).unwrap_err();
            assert!(err.contains("lone surrogate"), "{lone}: {err}");
        }
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("1.5").is_err(), "schema is integral");
        assert!(json::parse("{} extra").is_err());
        // Nesting is capped: a deep input is an error, not a stack
        // overflow, through both decoders that share the reader.
        let deep = "[".repeat(100_000);
        assert!(Snapshot::from_json(&deep).is_err());
        assert!(crate::flight::parse_chrome(&deep).is_err());
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(json::parse(&nest(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&nest(json::MAX_DEPTH + 1)).is_err());
    }
}
