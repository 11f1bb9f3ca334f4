//! The telemetry spine: an observer interface over the command executor.
//!
//! Every command the [`crate::cmd::Executor`] runs — no matter whether it
//! entered through the typed [`crate::device::RimeDevice`] API, the MMIO
//! register file ([`crate::mmio`]), or journal replay
//! ([`crate::cmd::Executor::replay`]) — is published exactly once as a
//! [`TelemetryEvent`] to every attached [`Telemetry`] sink. Publication
//! happens under a single hub lock with a monotonically increasing
//! sequence number, so all sinks observe the *same* event order
//! (deterministic fan-in): counters, energy, and wear all describe one
//! event stream instead of each layer keeping ad-hoc private plumbing.
//!
//! The built-in [`DeviceStats`] sink is always attached; it is what
//! `RimeDevice::{counters, interface_transfers, modeled_energy_nj,
//! modeled_busy_ns}` read. [`CounterSink`] and [`WearSink`] are optional
//! reusable sinks; `rime-energy` provides an energy-accounting sink over
//! the same trait.
//!
//! Sinks run synchronously inside the executor, so a sink must never call
//! back into the device that feeds it (the hub lock is held during
//! [`Telemetry::record`]).

use std::sync::{Arc, Mutex};

use rime_memristive::OpCounters;

use crate::cmd::{Command, Outcome};
use crate::error::RimeError;

/// Measured side effects of one executed command.
///
/// The executor snapshots each touched chip's [`OpCounters`] around every
/// chip interaction and publishes the per-chip deltas here, together with
/// the number of values that crossed the DDR4 interface. Deltas from
/// multiple interactions with the same chip within one command are merged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    chip_deltas: Vec<(u32, OpCounters)>,
    interface_transfers: u64,
}

impl Effects {
    /// Merges a chip's counter delta into the effect set.
    pub(crate) fn record_chip(&mut self, chip: u32, delta: OpCounters) {
        if delta == OpCounters::default() {
            return;
        }
        if let Some((_, acc)) = self.chip_deltas.iter_mut().find(|(c, _)| *c == chip) {
            *acc += delta;
        } else {
            self.chip_deltas.push((chip, delta));
        }
    }

    /// Counts `n` values transferred over the interface.
    pub(crate) fn add_transfers(&mut self, n: u64) {
        self.interface_transfers += n;
    }

    /// Per-chip counter deltas `(chip index, delta)`, one entry per chip
    /// the command touched, in first-touch order.
    pub fn chip_deltas(&self) -> &[(u32, OpCounters)] {
        &self.chip_deltas
    }

    /// Values transferred over the DDR4 interface by this command.
    pub fn interface_transfers(&self) -> u64 {
        self.interface_transfers
    }

    /// Sum of all per-chip deltas (device-wide counter delta).
    pub fn total(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for (_, delta) in &self.chip_deltas {
            total += *delta;
        }
        total
    }
}

/// One executed command, as observed at the executor boundary.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryEvent<'a> {
    /// Position in the device's event stream (0-based, gap-free; every
    /// sink sees events in strictly increasing `seq` order).
    pub seq: u64,
    /// The command that ran.
    pub command: &'a Command<'a>,
    /// What it produced: the marshalled outcome or the typed error.
    pub result: Result<&'a Outcome, &'a RimeError>,
    /// The chip/interface work it performed.
    pub effects: &'a Effects,
}

/// An observer of the executor's event stream.
///
/// Implementations must not call back into the publishing device from
/// [`Telemetry::record`]: sinks run under the telemetry hub lock.
pub trait Telemetry: Send {
    /// Observes one executed command. Called exactly once per command,
    /// in execution order, for successes *and* failures.
    fn record(&mut self, event: &TelemetryEvent<'_>);
}

/// The shareable handle form every external sink is attached as.
pub type SharedSink = Arc<Mutex<dyn Telemetry>>;

/// Wraps a sink for attachment while keeping a typed handle to read
/// results back out later.
///
/// ```
/// use rime_core::telemetry::{shared, CounterSink};
/// use rime_core::{RimeConfig, RimeDevice};
///
/// let dev = RimeDevice::new(RimeConfig::small());
/// let counters = shared(CounterSink::default());
/// dev.attach_telemetry(counters.clone());
/// let region = dev.alloc(4).unwrap();
/// dev.write(region, 0, &[3u32, 1, 2, 0]).unwrap();
/// let commands = counters
///     .lock()
///     .unwrap_or_else(std::sync::PoisonError::into_inner)
///     .commands();
/// assert_eq!(commands, 2); // alloc + write
/// ```
pub fn shared<T: Telemetry + 'static>(sink: T) -> Arc<Mutex<T>> {
    Arc::new(Mutex::new(sink))
}

/// The built-in statistics sink: per-chip counter totals plus interface
/// transfers, accumulated from the event stream. One instance lives
/// inside every executor; `RimeDevice::counters()` and the modeled
/// time/energy queries read from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceStats {
    per_chip: Vec<OpCounters>,
    interface_transfers: u64,
}

impl DeviceStats {
    /// A zeroed stats block for `chips` chips.
    pub fn new(chips: usize) -> DeviceStats {
        DeviceStats {
            per_chip: vec![OpCounters::new(); chips],
            interface_transfers: 0,
        }
    }

    /// Per-chip accumulated counters, indexed by chip.
    pub fn per_chip(&self) -> &[OpCounters] {
        &self.per_chip
    }

    /// Device-wide accumulated counters (sum over chips).
    pub fn counters(&self) -> OpCounters {
        let mut total = OpCounters::new();
        for c in &self.per_chip {
            total += *c;
        }
        total
    }

    /// Values transferred over the DDR4 interface.
    pub fn interface_transfers(&self) -> u64 {
        self.interface_transfers
    }

    /// Zeroes everything.
    pub fn reset(&mut self) {
        for c in &mut self.per_chip {
            c.reset();
        }
        self.interface_transfers = 0;
    }

    /// Rebuilds a stats block from checkpointed values (journal
    /// recovery); replayed events then re-accumulate on top.
    pub(crate) fn restore(per_chip: Vec<OpCounters>, interface_transfers: u64) -> DeviceStats {
        DeviceStats {
            per_chip,
            interface_transfers,
        }
    }
}

impl Telemetry for DeviceStats {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        for &(chip, delta) in event.effects.chip_deltas() {
            if let Some(c) = self.per_chip.get_mut(chip as usize) {
                *c += delta;
            }
        }
        self.interface_transfers += event.effects.interface_transfers();
    }
}

/// A simple aggregating sink: device-wide counter totals plus command
/// and fault counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSink {
    total: OpCounters,
    transfers: u64,
    commands: u64,
    faults: u64,
}

impl CounterSink {
    /// Accumulated device-wide counters.
    pub fn counters(&self) -> OpCounters {
        self.total
    }

    /// Accumulated interface transfers.
    pub fn interface_transfers(&self) -> u64 {
        self.transfers
    }

    /// Commands observed (successes and failures).
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// Commands that returned an error.
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

impl Telemetry for CounterSink {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        self.total += event.effects.total();
        self.transfers += event.effects.interface_transfers();
        self.commands += 1;
        if event.result.is_err() {
            self.faults += 1;
        }
    }
}

/// Device-level wear tracking: cumulative row writes per chip, derived
/// from the event stream (row writes are the only wear-inducing
/// operation, §VII-C). Complements `RimeDevice::max_wear()`, which reads
/// the chips' per-block high-water marks directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WearSink {
    writes_per_chip: Vec<u64>,
}

impl WearSink {
    /// Cumulative row writes per chip (indexed by chip; chips beyond the
    /// last written one are omitted).
    pub fn writes_per_chip(&self) -> &[u64] {
        &self.writes_per_chip
    }

    /// Total row writes across the device.
    pub fn total_writes(&self) -> u64 {
        self.writes_per_chip.iter().sum()
    }

    /// The chip with the most row writes, as `(chip, writes)`.
    pub fn hottest_chip(&self) -> Option<(u32, u64)> {
        self.writes_per_chip
            .iter()
            .enumerate()
            .max_by_key(|&(_, w)| w)
            .filter(|&(_, w)| *w > 0)
            .map(|(c, &w)| (c as u32, w))
    }
}

impl Telemetry for WearSink {
    fn record(&mut self, event: &TelemetryEvent<'_>) {
        for &(chip, delta) in event.effects.chip_deltas() {
            if delta.row_writes == 0 {
                continue;
            }
            let idx = chip as usize;
            if self.writes_per_chip.len() <= idx {
                self.writes_per_chip.resize(idx + 1, 0);
            }
            self.writes_per_chip[idx] += delta.row_writes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::lock_recover;
    use crate::device::{RimeConfig, RimeDevice};

    fn loaded_device() -> (RimeDevice, crate::device::Region) {
        let dev = RimeDevice::new(RimeConfig::small());
        let region = dev.alloc(8).unwrap();
        dev.write(region, 0, &[9u32, 2, 7, 4, 5, 1, 8, 3]).unwrap();
        dev.init_all::<u32>(region).unwrap();
        (dev, region)
    }

    #[test]
    fn counter_sink_matches_device_stats() {
        let (dev, region) = loaded_device();
        let sink = shared(CounterSink::default());
        dev.attach_telemetry(sink.clone());
        // Only activity after attachment is seen by the sink.
        let before = dev.counters();
        let _ = dev.rime_min_k::<u32>(region, 4).unwrap();
        let sunk = lock_recover(&sink).counters();
        let grown = dev.counters().delta_since(&before);
        assert_eq!(sunk, grown);
        assert!(sunk.extractions >= 4);
        assert_eq!(lock_recover(&sink).commands(), 1);
        assert_eq!(lock_recover(&sink).faults(), 0);
    }

    #[test]
    fn sinks_see_one_deterministic_stream() {
        let (dev, region) = loaded_device();
        let a = shared(CounterSink::default());
        let b = shared(CounterSink::default());
        dev.attach_telemetry(a.clone());
        dev.attach_telemetry(b.clone());
        let _ = dev.rime_min::<u32>(region).unwrap();
        let _ = dev.rime_min::<f32>(region); // TypeMismatch fault
        dev.free(region).unwrap();
        let a = lock_recover(&a).clone();
        let b = lock_recover(&b).clone();
        assert_eq!(a, b, "both sinks observed the identical stream");
        assert_eq!(a.commands(), 3);
        assert_eq!(a.faults(), 1);
    }

    #[test]
    fn wear_sink_tracks_row_writes_per_chip() {
        let dev = RimeDevice::new(RimeConfig::small());
        let wear = shared(WearSink::default());
        dev.attach_telemetry(wear.clone());
        let per_chip = dev.config().chip_slots();
        let region = dev.alloc(per_chip + 4).unwrap();
        let keys: Vec<u32> = (0..per_chip as u32 + 4).collect();
        dev.write(region, 0, &keys).unwrap();
        let wear = lock_recover(&wear).clone();
        assert_eq!(wear.total_writes(), keys.len() as u64);
        assert_eq!(wear.writes_per_chip().len(), 2, "write spans two chips");
        assert_eq!(wear.hottest_chip(), Some((0, per_chip)));
    }

    #[test]
    fn effects_merge_repeated_chip_touches() {
        let mut fx = Effects::default();
        let mut d = OpCounters::new();
        d.row_reads = 2;
        fx.record_chip(1, d);
        fx.record_chip(1, d);
        fx.record_chip(0, d);
        fx.record_chip(2, OpCounters::new()); // empty deltas are dropped
        assert_eq!(fx.chip_deltas().len(), 2);
        assert_eq!(fx.chip_deltas()[0].1.row_reads, 4);
        assert_eq!(fx.total().row_reads, 6);
    }
}
