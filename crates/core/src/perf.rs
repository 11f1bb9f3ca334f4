//! Analytic performance model of a RIME system.
//!
//! The functional model ([`crate::device`]) is exact but executes every
//! column search; the figure sweeps go to 65M keys, where the paper-scale
//! behaviour is governed by four rates, all derived from Table I:
//!
//! 1. **Chip compute** — one in-situ extraction takes
//!    `tCompute(k) + tRead ≈ 286.8 ns` for 64-bit keys. Every chip ranks
//!    its ranges independently, so chips are the unit of concurrency
//!    (Fig. 14 activates all chips and then only the winner). The
//!    functional executor refills the chips of a multi-chip command one
//!    after another on the calling thread, and prices that concurrency
//!    from their counter deltas: [`modeled_busy_ns`] takes the max over
//!    chips, whatever order the host ran them in.
//! 2. **Interface** — `rime_min` results and refill commands travel as
//!    in-order strong-uncacheable DDR4 accesses (§V), a fixed cost per
//!    value per channel.
//! 3. **CPU reduce** — the library's cross-chip winner selection
//!    (a handful of cycles per value, spread over cores).
//! 4. **Init** — each `rime_init` walks the H-tree (microseconds).
//!
//! A sorted stream therefore runs at
//! `min(active_chips / t_extract, channels / t_interface, cpu)` values
//! per second — *independent of data size* once data is spread over the
//! chips, which is exactly the insensitivity §VII-A reports.
//!
//! All tunables live in [`RimePerfConfig`]; the defaults are calibrated so
//! the headline factors (Figs. 15–18) land in the paper's reported ranges
//! against the baseline model in `rime-memsim` (see `EXPERIMENTS.md`).

use rime_memristive::{ArrayTiming, OpCounters};

/// Modeled busy time (ns) of the busiest chip given each chip's
/// accumulated counters — the device-side critical path when chips
/// operate concurrently (Fig. 14 activates all spanned chips at once).
pub fn modeled_busy_ns<'a>(
    timing: &ArrayTiming,
    per_chip: impl IntoIterator<Item = &'a OpCounters>,
) -> f64 {
    per_chip
        .into_iter()
        .map(|c| timing.time_ns(c))
        .fold(0.0, f64::max)
}

/// Modeled array energy (nJ) summed over all chips given each chip's
/// accumulated counters. Energy is linear in the counters, so summing
/// per-chip contributions equals pricing the aggregated totals.
pub fn modeled_energy_nj(timing: &ArrayTiming, per_chip: &[OpCounters]) -> f64 {
    per_chip.iter().map(|c| timing.energy_nj(c)).sum()
}

/// How a dataset is laid out across the RIME chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One contiguous region (single `rime_malloc`): spans
    /// `ceil(n / keys_per_chip)` chips.
    Contiguous,
    /// The application allocates one region per chip and stripes data
    /// (Fig. 12's explicit-address `rime_malloc` permits this), engaging
    /// every chip even for small datasets. The RIME sort kernels use this.
    Striped,
}

/// Tunable parameters of the analytic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RimePerfConfig {
    /// Device timing (Table I).
    pub timing: ArrayTiming,
    /// RIME channels.
    pub channels: u32,
    /// Chips per channel (Table I: 8).
    pub chips_per_channel: u32,
    /// Key slots per chip (Table I geometry: 2 Mi slots).
    pub keys_per_chip: u64,
    /// Key width in bits (column-search steps per extraction).
    pub key_bits: u16,
    /// Latency of one in-order strong-uncacheable interface access (ns).
    pub uc_access_ns: f64,
    /// Interface accesses per extracted value (result read + amortized
    /// refill command).
    pub interface_accesses_per_value: f64,
    /// CPU cycles per value for the library's cross-chip reduce.
    pub cpu_reduce_cycles: f64,
    /// Cores available to the library.
    pub cores: u32,
    /// CPU clock (GHz).
    pub clock_ghz: f64,
    /// Overhead of one `rime_init` (ns): H-tree walk + register writes.
    pub init_ns: f64,
    /// Interface bandwidth per channel for bulk data loads (GB/s).
    pub load_gbps_per_channel: f64,
    /// Minimum keys per striped stream for striping to be worthwhile.
    pub min_keys_per_chip_stream: u64,
}

impl RimePerfConfig {
    /// The calibrated Table I configuration (4 channels × 8 chips).
    pub fn table1() -> RimePerfConfig {
        RimePerfConfig {
            timing: ArrayTiming::table1(),
            channels: 4,
            chips_per_channel: 8,
            keys_per_chip: 1024 * 4 * 512, // ChipGeometry::table1 slots
            key_bits: 64,
            uc_access_ns: 70.0,
            interface_accesses_per_value: 1.6,
            cpu_reduce_cycles: 20.0,
            cores: 64,
            clock_ghz: 2.0,
            init_ns: 2_000.0,
            load_gbps_per_channel: 12.8,
            min_keys_per_chip_stream: 1024,
        }
    }

    /// An analytic model matching a *specific* functional device
    /// configuration: geometry-derived chip count and capacity from
    /// `config`, interface/CPU constants from the Table I calibration.
    /// This is what lets a cost model price a validation-scale
    /// [`crate::RimeConfig::small`] device instead of silently assuming
    /// the 32-chip paper system.
    pub fn for_config(config: &crate::RimeConfig) -> RimePerfConfig {
        RimePerfConfig {
            timing: config.timing,
            channels: config.channels,
            chips_per_channel: config.chips_per_channel,
            keys_per_chip: config.chip_slots(),
            key_bits: 64,
            ..RimePerfConfig::table1()
        }
    }

    /// Total chips.
    pub fn total_chips(&self) -> u32 {
        self.channels * self.chips_per_channel
    }

    /// One in-situ extraction: full `k`-step compute plus the result row
    /// read (ns).
    pub fn extract_ns(&self) -> f64 {
        self.timing.extraction_time_ns(self.key_bits) + self.timing.t_read_ns
    }

    /// Number of chips engaged for `n` keys under `placement`.
    pub fn active_chips(&self, n: u64, placement: Placement) -> u32 {
        let max = self.total_chips() as u64;
        let chips = match placement {
            Placement::Contiguous => n.div_ceil(self.keys_per_chip.max(1)),
            Placement::Striped => n / self.min_keys_per_chip_stream.max(1),
        };
        chips.clamp(1, max) as u32
    }

    /// Number of channels engaged by `chips` active chips.
    fn active_channels(&self, chips: u32) -> u32 {
        chips.div_ceil(self.chips_per_channel).max(1)
    }

    /// Steady-state sorted-stream rate in values per second for `n` keys.
    pub fn stream_rate_vps(&self, n: u64, placement: Placement) -> f64 {
        let chips = self.active_chips(n, placement);
        let channels = self.active_channels(chips);
        let chip_rate = chips as f64 / (self.extract_ns() * 1e-9);
        let interface_rate =
            channels as f64 / (self.interface_accesses_per_value * self.uc_access_ns * 1e-9);
        let cpu_rate = self.cores as f64 * self.clock_ghz * 1e9 / self.cpu_reduce_cycles;
        chip_rate.min(interface_rate).min(cpu_rate)
    }

    /// Wall-clock seconds to stream `extractions` ordered values out of
    /// `n` stored keys (sort: `extractions = n`; rank-k: `k`).
    pub fn stream_seconds(&self, n: u64, extractions: u64, placement: Placement) -> f64 {
        let inits = self.active_chips(n, placement) as f64;
        inits * self.init_ns * 1e-9 + extractions as f64 / self.stream_rate_vps(n, placement)
    }

    /// Sort throughput in million keys per second (Fig. 15's y-axis).
    pub fn sort_throughput_mkps(&self, n: u64, placement: Placement) -> f64 {
        n as f64 / self.stream_seconds(n, n, placement) / 1e6
    }

    /// Seconds to bulk-load `n` keys of `bytes_per_key` into the device
    /// over the DDR4 interface (ordinary writes; array `tWrite` is hidden
    /// by mat-level parallelism).
    pub fn load_seconds(&self, n: u64, bytes_per_key: u64, placement: Placement) -> f64 {
        let chips = self.active_chips(n, placement);
        let channels = self.active_channels(chips);
        let gbps = self.load_gbps_per_channel * channels as f64;
        (n * bytes_per_key) as f64 / (gbps * 1e9)
    }

    /// Average chip power while one chip computes continuously (W) —
    /// the §VII-B budget check.
    pub fn chip_compute_power_w(&self) -> f64 {
        self.timing.extraction_energy_nj(self.key_bits) / self.extract_ns()
    }

    /// Energy of extracting `extractions` values (nJ), array side only.
    pub fn extraction_energy_nj(&self, extractions: u64) -> f64 {
        self.timing.extraction_energy_nj(self.key_bits) * extractions as f64
    }
}

impl Default for RimePerfConfig {
    fn default() -> Self {
        RimePerfConfig::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_ns_is_max_energy_is_sum() {
        let timing = ArrayTiming::table1();
        let mut a = OpCounters::new();
        a.row_reads = 10;
        let mut b = OpCounters::new();
        b.row_reads = 3;
        let per_chip = [a, b];
        assert!((modeled_busy_ns(&timing, &per_chip) - timing.time_ns(&a)).abs() < 1e-9);
        let want = timing.energy_nj(&a) + timing.energy_nj(&b);
        assert!((modeled_energy_nj(&timing, &per_chip) - want).abs() < 1e-9);
        assert_eq!(modeled_busy_ns(&timing, &[]), 0.0);
    }

    #[test]
    fn extraction_latency_matches_table1() {
        let cfg = RimePerfConfig::table1();
        assert!((cfg.extract_ns() - 286.8).abs() < 1e-6);
        assert_eq!(cfg.total_chips(), 32);
    }

    #[test]
    fn striped_engages_all_chips_early() {
        let cfg = RimePerfConfig::table1();
        assert_eq!(cfg.active_chips(500_000, Placement::Striped), 32);
        assert_eq!(cfg.active_chips(500_000, Placement::Contiguous), 1);
        assert_eq!(cfg.active_chips(5_000, Placement::Striped), 4);
        assert_eq!(cfg.active_chips(1, Placement::Striped), 1);
        // 65M keys / 2Mi slots per chip = 31 chips.
        assert_eq!(cfg.active_chips(65_000_000, Placement::Contiguous), 31);
    }

    #[test]
    fn throughput_in_paper_range_and_flat() {
        // Fig. 15: RIME sorts tens of MKps, insensitive to data size.
        let cfg = RimePerfConfig::table1();
        let t1 = cfg.sort_throughput_mkps(500_000, Placement::Striped);
        let t2 = cfg.sort_throughput_mkps(65_000_000, Placement::Striped);
        assert!(t1 > 20.0 && t1 < 80.0, "t1 = {t1}");
        assert!((t1 - t2).abs() / t2 < 0.1, "flat: {t1} vs {t2}");
    }

    #[test]
    fn single_chip_rate_is_extraction_bound() {
        let cfg = RimePerfConfig::table1();
        let rate = cfg.stream_rate_vps(1000, Placement::Contiguous);
        let chip_bound = 1.0 / (cfg.extract_ns() * 1e-9);
        assert!((rate - chip_bound).abs() / chip_bound < 1e-9);
    }

    #[test]
    fn rank_k_cost_scales_with_k_not_n() {
        let cfg = RimePerfConfig::table1();
        let t_k100 = cfg.stream_seconds(65_000_000, 100, Placement::Striped);
        let t_k10000 = cfg.stream_seconds(65_000_000, 10_000, Placement::Striped);
        let t_full = cfg.stream_seconds(65_000_000, 65_000_000, Placement::Striped);
        assert!(t_k100 < t_k10000);
        assert!(t_k10000 < t_full / 100.0);
    }

    #[test]
    fn power_within_an_order_of_the_1w_budget() {
        // §VII-B: the library keeps peak power at 1 W; one computing chip
        // draws ~0.18 W in our model.
        let cfg = RimePerfConfig::table1();
        let p = cfg.chip_compute_power_w();
        assert!(p > 0.05 && p < 0.5, "chip power {p} W");
    }

    #[test]
    fn for_config_mirrors_device_geometry() {
        let small = crate::RimeConfig::small();
        let cfg = RimePerfConfig::for_config(&small);
        assert_eq!(cfg.total_chips(), small.total_chips());
        assert_eq!(cfg.keys_per_chip, small.chip_slots());
        // Interface/CPU constants stay at the Table I calibration.
        let t1 = RimePerfConfig::table1();
        assert_eq!(cfg.uc_access_ns, t1.uc_access_ns);
        assert_eq!(cfg.cpu_reduce_cycles, t1.cpu_reduce_cycles);
        // And the full-scale config round-trips exactly.
        let full = RimePerfConfig::for_config(&crate::RimeConfig::table1());
        assert_eq!(full.total_chips(), t1.total_chips());
        assert_eq!(full.keys_per_chip, t1.keys_per_chip);
    }

    #[test]
    fn load_time_scales_with_bytes() {
        let cfg = RimePerfConfig::table1();
        let t1 = cfg.load_seconds(1_000_000, 8, Placement::Striped);
        let t2 = cfg.load_seconds(2_000_000, 8, Placement::Striped);
        assert!(t2 > 1.9 * t1);
    }
}
