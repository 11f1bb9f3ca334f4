//! What one command did.
//!
//! Every command the [`crate::cmd::Executor`] runs — no matter whether it
//! entered through the typed [`crate::device::RimeDevice`] API, the MMIO
//! register file ([`crate::mmio`]), or journal replay
//! ([`crate::cmd::Executor::replay`]) — yields one [`Effects`] record:
//! the per-chip counter deltas and interface transfers it caused. The
//! executor publishes each record exactly once, under one lock, into its
//! interface-transfer total and its metrics registry (see
//! [`crate::metrics`]). The journal stores the same `Effects` next to
//! each command's outcome, so recovery can demand they match. The
//! running operation counters are not copied here: each chip keeps its
//! own, and `Executor::{counters, per_chip_counters, modeled_energy_nj,
//! modeled_busy_ns}` read them from the chips.

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
