//! Observation hooks for extraction phases.
//!
//! The chip model is deliberately free of any metrics dependency: higher
//! layers (rime-core's metrics registry) implement [`ExtractionProbe`] and
//! install it with [`crate::Chip::set_probe`]. When no probe is installed
//! the instrumented paths take a single `Option` branch and perform **no**
//! clock reads, so the functional model stays as fast as before PR 5.
//!
//! Two kinds of payload flow through a probe:
//!
//! - **Modeled quantities** (operation counts, step counts, rows removed
//!   per exclusion) are derived from the bit-accurate simulation and are
//!   deterministic for a fixed workload, under either
//!   [`crate::ParallelPolicy`].
//! - **Wall-clock nanoseconds** measure the host simulation and are
//!   inherently non-deterministic; consumers must quarantine them from
//!   differential oracles (rime-core flags the derived metrics as such).
//!
//! Probes never touch [`crate::OpCounters`] — the performance layer's
//! source of truth is unchanged whether or not a probe is installed, which
//! is what keeps counters bit-identical across scheduling policies.

use std::sync::Arc;
use std::time::Instant;

/// Phases of one extraction (Fig. 9 inner loop) plus select-vector rearm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Bit-position sense: wire-OR column search across the active mats.
    Sense,
    /// Exclusion: latch the match vector into the select latches.
    Exclude,
    /// H-tree index reduction locating the first selected slot.
    IndexReduce,
    /// Result readout of the winning row.
    Readout,
    /// Select-vector rearm between batch extractions (`rime_min_k`).
    Rearm,
}

impl Phase {
    /// Stable lowercase label (used as a metric label value).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Sense => "sense",
            Phase::Exclude => "exclude",
            Phase::IndexReduce => "index_reduce",
            Phase::Readout => "readout",
            Phase::Rearm => "rearm",
        }
    }
}

/// Observer for chip extraction phases.
///
/// All methods take `&self`: implementations are expected to be cheap,
/// lock-free aggregators (atomics) held behind an `Arc`. Default
/// implementations are no-ops so implementors can subscribe to a subset
/// of the surface.
pub trait ExtractionProbe: Send + Sync {
    /// One completed phase: total wall nanoseconds spent in the phase and
    /// the number of device operations it performed (sense steps,
    /// exclusion latches, reductions, readouts, or rearms).
    fn phase(&self, _phase: Phase, _wall_ns: u64, _ops: u64) {}

    /// One completed extraction and the column-search steps it took
    /// (the paper's fixed per-key step count; 64 for `u64` keys).
    fn extraction(&self, _steps: u16) {}

    /// Rows deselected by a single exclusion step.
    fn excluded_step(&self, _removed: u64) {}
}

/// Shared probe handle as stored by [`crate::Chip`].
pub type SharedProbe = Arc<dyn ExtractionProbe>;

/// Runs `f`, adding its wall-clock duration to `acc` only when a probe is
/// installed. The no-probe path performs no clock reads.
#[inline]
pub(crate) fn timed<T>(probe: &Option<SharedProbe>, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if probe.is_some() {
        let start = Instant::now();
        let out = f();
        *acc += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingProbe {
        phases: AtomicU64,
        extractions: AtomicU64,
    }

    impl ExtractionProbe for CountingProbe {
        fn phase(&self, _phase: Phase, _wall_ns: u64, ops: u64) {
            self.phases.fetch_add(ops, Ordering::Relaxed);
        }
        fn extraction(&self, _steps: u16) {
            self.extractions.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Phase::Sense.label(), "sense");
        assert_eq!(Phase::Exclude.label(), "exclude");
        assert_eq!(Phase::IndexReduce.label(), "index_reduce");
        assert_eq!(Phase::Readout.label(), "readout");
        assert_eq!(Phase::Rearm.label(), "rearm");
    }

    #[test]
    fn timed_accumulates_only_with_probe() {
        let mut acc = 0u64;
        let none: Option<SharedProbe> = None;
        assert_eq!(timed(&none, &mut acc, || 7), 7);
        assert_eq!(acc, 0);

        let probe: Option<SharedProbe> = Some(Arc::new(CountingProbe::default()));
        let out = timed(&probe, &mut acc, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            42
        });
        assert_eq!(out, 42);
        assert!(acc > 0);
    }

    #[test]
    fn default_methods_are_noops() {
        struct Quiet;
        impl ExtractionProbe for Quiet {}
        let q = Quiet;
        q.phase(Phase::Sense, 1, 1);
        q.extraction(3);
        q.excluded_step(2);
    }
}
