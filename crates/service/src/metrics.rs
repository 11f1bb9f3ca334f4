//! Service-side instrumentation, registered on the executor's own
//! [`MetricsRegistry`] so one snapshot covers device and service.
//!
//! Scheduling-dependent series (how many passes the coalescing produced,
//! how fusion groups fell across pass boundaries, wall-clock latency)
//! are flagged nondeterministic so [`rime_core::Snapshot::masked`]
//! zeroes them; workload totals (submissions, completions, drained) are
//! deterministic — after a quiesced run they equal what the tenants
//! submitted regardless of how the dispatcher sliced the work.

use rime_core::metrics::{Counter, Histogram};
use rime_core::MetricsRegistry;

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
