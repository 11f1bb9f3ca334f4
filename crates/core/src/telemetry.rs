//! What one command did, and what all commands have done so far.
//!
//! Every command the [`crate::cmd::Executor`] runs — no matter whether it
//! entered through the typed [`crate::device::RimeDevice`] API, the MMIO
//! register file ([`crate::mmio`]), or journal replay
//! ([`crate::cmd::Executor::replay`]) — yields one [`Effects`] record:
//! the per-chip counter deltas and interface transfers it caused. The
//! executor publishes each record exactly once, under one lock, into its
//! built-in [`DeviceStats`] (what `RimeDevice::{counters,
//! per_chip_counters, interface_transfers, modeled_energy_nj,
//! modeled_busy_ns}` read) and its metrics registry (see
//! [`crate::metrics`]). The journal stores the same `Effects` next to
//! each command's outcome, so recovery can demand they match.

use rime_memristive::OpCounters;

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
}

/// The executor's running totals: per-chip counters plus interface
/// transfers, accumulated from every command's [`Effects`].
/// `RimeDevice::counters()` and the modeled time/energy queries read
/// from it.
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

    /// Adds one command's effects to the totals.
    pub(crate) fn record(&mut self, effects: &Effects) {
        for &(chip, delta) in effects.chip_deltas() {
            if let Some(c) = self.per_chip.get_mut(chip as usize) {
                *c += delta;
            }
        }
        self.interface_transfers += effects.interface_transfers();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{RimeConfig, RimeDevice};

    #[test]
    fn per_chip_counters_track_row_writes_per_chip() {
        let dev = RimeDevice::new(RimeConfig::small());
        let per_chip = dev.config().chip_slots();
        let region = dev.alloc(per_chip + 4).unwrap();
        let keys: Vec<u32> = (0..per_chip as u32 + 4).collect();
        dev.write(region, 0, &keys).unwrap();
        let writes: Vec<u64> = dev
            .per_chip_counters()
            .iter()
            .map(|c| c.row_writes)
            .collect();
        assert_eq!(writes[..2], [per_chip, 4], "the write spans two chips");
        assert!(writes[2..].iter().all(|&w| w == 0));
        assert_eq!(dev.counters().row_writes, keys.len() as u64);
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
        assert_eq!(fx.chip_deltas()[1], (0, d));
    }
}
