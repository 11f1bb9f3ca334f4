//! Service-side instrumentation, registered on the executor's own
//! [`MetricsRegistry`] so one snapshot covers device and service.
//!
//! Scheduling-dependent series (how many passes the coalescing produced,
//! how fusion groups fell across pass boundaries, wall-clock latency)
//! are flagged nondeterministic so [`rime_core::Snapshot::masked`]
//! zeroes them; workload totals (submissions, completions, drained) are
//! deterministic — after a quiesced run they equal what the tenants
//! submitted regardless of how the dispatcher sliced the work.

use rime_core::metrics::{bucket_index, Counter, Histogram, HISTOGRAM_BUCKETS};
use rime_core::{MetricsRegistry, PhaseTag};

/// The latency-attribution phases exported as
/// `rime_service_attribution_ns{phase=…}`, in fixed registration order.
/// Every phase registers unconditionally — recorder on or off — so the
/// snapshot key set (and therefore masked byte-identity) never depends
/// on whether tracing is enabled.
pub(crate) const ATTRIBUTION_PHASES: [PhaseTag; 6] = [
    PhaseTag::SqWait,
    PhaseTag::Drain,
    PhaseTag::FusionWait,
    PhaseTag::DrrDefer,
    PhaseTag::Dispatch,
    PhaseTag::CqWait,
];

/// Global (per-service) counters.
#[derive(Debug, Clone)]
pub(crate) struct ServiceMetrics {
    /// Dispatch passes executed (`rime_service_passes_total`).
    pub passes: Counter,
    /// Commands drained from submission queues; `drained / passes` is
    /// the doorbell coalescing factor.
    pub drained: Counter,
    /// Fused `ExtractBatch` dispatches issued.
    pub fused_batches: Counter,
    /// Single-key `Extract` commands absorbed into fused batches.
    pub fused_commands: Counter,
    /// Per-phase latency attribution histograms, indexed parallel to
    /// [`ATTRIBUTION_PHASES`]. Wall-clock, so nondeterministic.
    pub attribution: Vec<Histogram>,
}

impl ServiceMetrics {
    /// Registers (or fetches) the global service series on `registry`.
    pub(crate) fn register(registry: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            passes: registry.counter_with(
                "rime_service_passes_total",
                &[],
                "Dispatch passes executed by the service dispatcher",
                true,
            ),
            drained: registry.counter(
                "rime_service_drained_total",
                &[],
                "Commands drained from tenant submission queues",
            ),
            fused_batches: registry.counter_with(
                "rime_service_fused_batches_total",
                &[],
                "Cross-tenant fused ExtractBatch dispatches",
                true,
            ),
            fused_commands: registry.counter_with(
                "rime_service_fused_commands_total",
                &[],
                "Extract commands absorbed into fused batches",
                true,
            ),
            attribution: ATTRIBUTION_PHASES
                .iter()
                .map(|phase| {
                    registry.histogram_with(
                        "rime_service_attribution_ns",
                        &[("phase", phase.label())],
                        "Per-request latency attribution by pipeline phase (wall clock, ns)",
                        true,
                    )
                })
                .collect(),
        }
    }
}

/// Index of `phase` in [`ATTRIBUTION_PHASES`] — a direct match, since
/// this runs four times per reaped completion.
fn attribution_row(phase: PhaseTag) -> usize {
    match phase {
        PhaseTag::SqWait => 0,
        PhaseTag::Drain => 1,
        PhaseTag::FusionWait => 2,
        PhaseTag::DrrDefer => 3,
        PhaseTag::Dispatch => 4,
        PhaseTag::CqWait => 5,
        _ => panic!("phase outside the attribution family"),
    }
}

/// Plain-integer pre-aggregation of one tenant's attribution
/// observations, guarded by the session state lock the reap path
/// already holds. Reaping is the recorder's per-request hot path and
/// atomic histogram traffic is its single biggest cost on small
/// commands, so observations land here as unsynchronized adds and fold
/// into the global lock-free histograms (via
/// [`Histogram::merge_bucket`], bucket-exact) every
/// [`AttrShard::FLUSH_EVERY`] observations, at session teardown, and
/// at service shutdown.
#[derive(Debug)]
pub(crate) struct AttrShard {
    /// `[phase row][bucket]` observation counts since the last flush.
    counts: [[u32; HISTOGRAM_BUCKETS]; ATTRIBUTION_PHASES.len()],
    /// `[phase row][bucket]` observed-value sums since the last flush.
    sums: [[u64; HISTOGRAM_BUCKETS]; ATTRIBUTION_PHASES.len()],
    /// Unflushed observation count across all phases.
    pending: u32,
}

impl Default for AttrShard {
    fn default() -> AttrShard {
        AttrShard {
            counts: [[0; HISTOGRAM_BUCKETS]; ATTRIBUTION_PHASES.len()],
            sums: [[0; HISTOGRAM_BUCKETS]; ATTRIBUTION_PHASES.len()],
            pending: 0,
        }
    }
}

impl AttrShard {
    /// Flush cadence: the global histograms lag a live tenant by at
    /// most this many observations (and by zero once its session drops
    /// or the service shuts down).
    pub(crate) const FLUSH_EVERY: u32 = 128;

    /// Records one observation for `phase` — two plain adds.
    pub(crate) fn observe(&mut self, phase: PhaseTag, v: u64) {
        let row = attribution_row(phase);
        let bucket = bucket_index(v);
        self.counts[row][bucket] += 1;
        self.sums[row][bucket] += v;
        self.pending += 1;
    }

    /// Whether the flush cadence is due.
    pub(crate) fn due(&self) -> bool {
        self.pending >= Self::FLUSH_EVERY
    }

    /// Folds every pending observation into the global histograms and
    /// zeroes the shard. No-op when nothing is pending.
    pub(crate) fn flush(&mut self, metrics: &ServiceMetrics) {
        if self.pending == 0 {
            return;
        }
        for (row, hist) in metrics.attribution.iter().enumerate() {
            for bucket in 0..HISTOGRAM_BUCKETS {
                let count = self.counts[row][bucket];
                if count != 0 {
                    hist.merge_bucket(bucket, u64::from(count), self.sums[row][bucket]);
                    self.counts[row][bucket] = 0;
                    self.sums[row][bucket] = 0;
                }
            }
        }
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_row_matches_registration_order() {
        for (i, phase) in ATTRIBUTION_PHASES.iter().enumerate() {
            assert_eq!(attribution_row(*phase), i);
        }
    }
}

/// Per-tenant counters, labeled `tenant="<n>"`.
#[derive(Debug, Clone)]
pub(crate) struct TenantMetrics {
    /// Commands accepted into the submission queue.
    pub submissions: Counter,
    /// Completions posted to the completion queue.
    pub completions: Counter,
    /// Submissions rejected by admission control (`Busy`).
    pub busy: Counter,
    /// Submit-to-completion-post latency in wall-clock nanoseconds.
    pub latency: Histogram,
}

impl TenantMetrics {
    /// Registers (or fetches) the per-tenant series on `registry`.
    pub(crate) fn register(registry: &MetricsRegistry, tenant: usize) -> TenantMetrics {
        let tenant = tenant.to_string();
        let labels: &[(&str, &str)] = &[("tenant", tenant.as_str())];
        TenantMetrics {
            submissions: registry.counter(
                "rime_service_submissions_total",
                labels,
                "Commands accepted into the tenant submission queue",
            ),
            completions: registry.counter(
                "rime_service_completions_total",
                labels,
                "Completions posted to the tenant completion queue",
            ),
            busy: registry.counter_with(
                "rime_service_busy_total",
                labels,
                "Submissions rejected by admission control",
                true,
            ),
            latency: registry.histogram_with(
                "rime_service_latency_ns",
                labels,
                "Submit-to-completion latency (wall clock, ns)",
                true,
            ),
        }
    }
}
