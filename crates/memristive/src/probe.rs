//! Observation hook for extraction calls.
//!
//! The chip model is deliberately free of any metrics dependency: higher
//! layers (rime-core's metrics registry) implement [`ExtractionProbe`] and
//! install it with [`crate::Chip::set_probe`]. When no probe is installed
//! an extraction call takes a single `Option` branch and reads **no**
//! clock.
//!
//! A probe hears host time only, once per extraction call that rearmed
//! the select vectors. The chip reads the clock once per phase boundary
//! (rearm → descent → next rearm) into plain integers and reports the
//! call's sums as one [`CallTime`]. Wall-clock nanoseconds measure the
//! host simulation and are inherently non-deterministic; consumers must
//! quarantine them from differential oracles (rime-core flags the
//! derived metrics as such).
//!
//! What the device *did* — column-search steps, mat senses, exclusions,
//! readouts — is counted in [`crate::OpCounters`], which probes never
//! touch: results and counters are bit-identical with or without one,
//! and modeled device time is priced from the counters
//! ([`crate::ArrayTiming::time_ns`]), not from probe reports.

use std::sync::Arc;
use std::time::Instant;

/// The two host phases of an extraction call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Descents: bit-serial column search with its exclusions, the
    /// H-tree index reduction, and the winner's readout.
    Sense,
    /// Select-vector rearm before each key (`rime_min_k`), including
    /// the call's span membership setup.
    Rearm,
}

impl Phase {
    /// Stable lowercase label (used as a metric label value).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Sense => "sense",
            Phase::Rearm => "rearm",
        }
    }
}

/// Host time of one extraction call, summed over its keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTime {
    /// Keys the call extracted: exactly the hits it returned.
    pub keys: u64,
    /// Wall nanoseconds spent rearming select vectors ([`Phase::Rearm`]).
    pub rearm_ns: u64,
    /// Wall nanoseconds spent in descents ([`Phase::Sense`]).
    pub sense_ns: u64,
}

/// Observer for chip extraction calls.
///
/// Takes `&self`: implementations are expected to be cheap, lock-free
/// aggregators (atomics) held behind an `Arc`.
pub trait ExtractionProbe: Send + Sync {
    /// One completed extraction call that rearmed at least once
    /// (including a call on an exhausted range, which reports zero
    /// keys).
    fn extraction(&self, time: CallTime);
}

/// Shared probe handle as stored by [`crate::Chip`].
pub type SharedProbe = Arc<dyn ExtractionProbe>;

/// Times one extraction call's phases for an installed probe: one clock
/// read at the start and one per phase boundary. Without a probe it
/// holds `None` and every method is a branch.
pub(crate) struct Stopwatch {
    probe: Option<SharedProbe>,
    last: Option<Instant>,
    time: CallTime,
}

impl Stopwatch {
    /// Starts timing a call, the first rearm included.
    pub(crate) fn start(probe: Option<SharedProbe>) -> Stopwatch {
        Stopwatch {
            last: probe.as_ref().map(|_| Instant::now()),
            probe,
            time: CallTime::default(),
        }
    }

    /// Nanoseconds since the previous boundary; `None` without a probe.
    fn lap(&mut self) -> Option<u64> {
        let last = self.last.as_mut()?;
        let now = Instant::now();
        let ns = now.duration_since(*last);
        *last = now;
        Some(u64::try_from(ns.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Closes a rearm: a descent (or the call's end) starts now.
    pub(crate) fn rearmed(&mut self) {
        if let Some(ns) = self.lap() {
            self.time.rearm_ns += ns;
        }
    }

    /// Closes a descent that extracted one key.
    pub(crate) fn descended(&mut self) {
        if let Some(ns) = self.lap() {
            self.time.sense_ns += ns;
            self.time.keys += 1;
        }
    }

    /// Reports the call to the probe, if one is installed.
    pub(crate) fn finish(self) {
        if let Some(probe) = self.probe {
            probe.extraction(self.time);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records every report, in call order.
    #[derive(Default)]
    pub(crate) struct Recording(pub(crate) Mutex<Vec<CallTime>>);

    impl ExtractionProbe for Recording {
        fn extraction(&self, time: CallTime) {
            self.0.lock().unwrap().push(time);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Phase::Sense.label(), "sense");
        assert_eq!(Phase::Rearm.label(), "rearm");
    }

    #[test]
    fn stopwatch_times_only_with_a_probe() {
        let mut quiet = Stopwatch::start(None);
        assert!(quiet.last.is_none(), "no probe, no clock read");
        quiet.rearmed();
        quiet.descended();
        assert_eq!(quiet.time, CallTime::default());
        quiet.finish();

        let probe = Arc::new(Recording::default());
        let mut watch = Stopwatch::start(Some(probe.clone()));
        for _ in 0..2 {
            watch.rearmed();
            std::thread::sleep(std::time::Duration::from_millis(1));
            watch.descended();
        }
        watch.rearmed();
        watch.finish();
        let reports = probe.0.lock().unwrap();
        assert_eq!(reports.len(), 1, "one report per call");
        assert_eq!(reports[0].keys, 2);
        assert!(reports[0].sense_ns >= 2_000_000);
    }
}
