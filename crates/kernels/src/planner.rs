//! Cost-based sort planning: CPU kernels vs the RIME device vs hybrids.
//!
//! Related work frames the decision this module automates: full
//! in-memory sorting amortizes differently from CPU sorting depending on
//! data width, array geometry, and transfer costs, so *which* path wins
//! is a per-query question. The [`Planner`] answers it from measured
//! costs instead of hardcoded rules:
//!
//! * **CPU side** — the calibrated phase model of [`crate::model`],
//!   priced through the `rime-memsim` [`MemoryBackend`] for the memory
//!   half and through a one-shot deterministic calibration
//!   ([`planner_calibration`]) for the compute half;
//! * **device side** — Table I pricing via [`RimePerfConfig`] plus the
//!   modeled-ns metrics of `rime_core::perf` (`modeled_busy_ns` over
//!   real `OpCounters`), sampled once per process on a probe device;
//! * **hybrids** — the [`crate::hybrid`] kernels, priced as device
//!   streaming plus the CPU merge/partition/scatter passes they retain.
//!
//! Calibration runs once per process, but unlike a wall-clock probe
//! every input here is *simulated* time — exec-kernel cycles and modeled
//! busy nanoseconds — so the calibration, the exported gauges, and every
//! plan are deterministic and safe to embed in masked metric snapshots.
//!
//! `RIME_PLANNER_FORCE=cpu|rime|hybrid` restricts the candidate set (the
//! operational escape hatch), and is how the ablation harness measures
//! the planner's win margin.
//!
//! [`MemoryBackend`]: rime_memsim::MemoryBackend

use std::sync::OnceLock;

use rime_core::{ops, RimeConfig, RimeDevice, RimeError, RimePerfConfig};
use rime_core::{MetricsRegistry, Placement};
use rime_memsim::{MemorySystem, SystemConfig};
use rime_workloads::keys::{generate_u64, KeyDistribution};

use crate::exec::{self, TracedMemory};
use crate::hybrid;
use crate::model::SortAlgorithm;
use crate::rime_sort;

/// One way to produce a sorted output (the planner's decision space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Sort entirely on the CPU with the given baseline kernel.
    CpuSort {
        /// The baseline kernel.
        algo: SortAlgorithm,
    },
    /// Sort entirely in the RIME memory (stripe, load, stream out).
    Rime,
    /// A [`crate::hybrid`] kernel: device-ranked chunks stitched by the
    /// host algorithm's outer structure.
    Hybrid {
        /// The host algorithm providing the CPU-side structure.
        algo: SortAlgorithm,
        /// Chunks handed to the device.
        stripes: usize,
    },
}

impl Strategy {
    /// Short label for reports and metric labels.
    pub fn label(&self) -> String {
        match self {
            Strategy::CpuSort { algo } => format!("cpu:{}", algo.label()),
            Strategy::Rime => "rime".to_string(),
            Strategy::Hybrid { algo, stripes } => {
                format!("hybrid:{}:{stripes}", algo.label())
            }
        }
    }
}

/// One-shot measured costs of the planner's primitives. Every field is
/// derived from *simulated* quantities (traced-execution cycles, modeled
/// busy nanoseconds, interface transfer counts), so repeated runs —
/// including runs on different machines — produce identical values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerCalibration {
    /// Single-core CPU nanoseconds per key per pass for each baseline
    /// kernel (order of [`SortAlgorithm::ALL`]), measured by running the
    /// [`crate::exec`] kernels through the timed cache+DRAM simulation.
    pub cpu_ns_per_key_pass: [f64; 4],
    /// Device-side modeled ns per key slot for the bulk load (writes),
    /// busiest chip.
    pub load_ns_per_slot: f64,
    /// Device-side modeled ns per key slot for streaming the full order
    /// out (64-bit keys), busiest chip.
    pub extract_ns_per_slot: f64,
    /// Measured interface transfers per extracted value.
    pub interface_accesses_per_value: f64,
}

impl PlannerCalibration {
    /// CPU ns/key/pass for one algorithm.
    pub fn cpu_ns(&self, algo: SortAlgorithm) -> f64 {
        let idx = SortAlgorithm::ALL
            .iter()
            .position(|a| *a == algo)
            .expect("ALL covers every algorithm");
        self.cpu_ns_per_key_pass[idx]
    }
}

/// Number of keys each CPU probe sorts (large enough to amortize cold
/// caches, small enough to stay in-cache like the validation grid).
const CPU_PROBE_KEYS: usize = 24_000;
/// Number of keys the device probe loads and streams.
const DEV_PROBE_KEYS: usize = 4_096;

/// Measures (once per process) the planner's cost primitives. It reads
/// no wall clocks: CPU costs come from the
/// timed [`TracedMemory`] simulation (deterministic cycles), device
/// costs from `modeled_busy_ns` over real operation counters.
pub fn planner_calibration() -> PlannerCalibration {
    static CAL: OnceLock<PlannerCalibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        // CPU probes: run each kernel over the same keys through the
        // timed single-core simulation and normalize to ns/key/pass.
        let keys = generate_u64(CPU_PROBE_KEYS, KeyDistribution::Uniform, 0xC0DE);
        let mut cpu_ns_per_key_pass = [0.0f64; 4];
        for (idx, algo) in SortAlgorithm::ALL.into_iter().enumerate() {
            let mut mem = TracedMemory::timed(MemorySystem::OffChip, 2);
            let buf = mem.add_buf(keys.clone());
            match algo {
                SortAlgorithm::Merge => {
                    let _ = exec::merge_sort(&mut mem, buf);
                }
                SortAlgorithm::Quick => exec::quick_sort(&mut mem, buf),
                SortAlgorithm::Radix => {
                    let _ = exec::radix_sort(&mut mem, buf);
                }
                SortAlgorithm::Heap => exec::heap_sort(&mut mem, buf),
            }
            let ns = mem.cycles() as f64 / rime_memsim::CPU_GHZ;
            let passes = algo.total_passes(CPU_PROBE_KEYS as u64) as f64;
            cpu_ns_per_key_pass[idx] = ns / (CPU_PROBE_KEYS as f64 * passes);
        }

        // Device probe: load then stream on a fresh small device,
        // splitting modeled busy time into its load and extract parts.
        let device = RimeDevice::new(RimeConfig::small());
        let keys = generate_u64(DEV_PROBE_KEYS, KeyDistribution::Uniform, 0xD0DE);
        let stripes = device.config().total_chips() as usize;
        let chunk = keys.len().div_ceil(stripes);
        let regions: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                let region = device.alloc(part.len() as u64).expect("probe alloc");
                device.write(region, 0, part).expect("probe write");
                region
            })
            .collect();
        let busy_load = device.modeled_busy_ns();
        let sorted = ops::merge::<u64>(&device, &regions).expect("probe merge");
        assert_eq!(sorted.len(), keys.len(), "probe must stream every key");
        let busy_total = device.modeled_busy_ns();
        let transfers = device.interface_transfers();
        for region in regions {
            device.free(region).expect("probe free");
        }
        // The probe's regions land on however many chips the driver
        // spans; normalize by the busiest chip's slot count.
        let chips = RimePerfConfig::for_config(device.config())
            .active_chips(DEV_PROBE_KEYS as u64, Placement::Contiguous);
        let slots_per_chip = DEV_PROBE_KEYS as f64 / chips as f64;

        PlannerCalibration {
            cpu_ns_per_key_pass,
            load_ns_per_slot: busy_load / slots_per_chip,
            extract_ns_per_slot: (busy_total - busy_load).max(0.0) / slots_per_chip,
            interface_accesses_per_value: transfers as f64 / DEV_PROBE_KEYS as f64,
        }
    })
}

/// A cost-based sort planner for one (CPU system, RIME device) pair.
#[derive(Debug, Clone)]
pub struct Planner {
    system: SystemConfig,
    perf: RimePerfConfig,
    cal: PlannerCalibration,
}

impl Planner {
    /// A planner for `system` CPUs alongside a device modeled by `perf`,
    /// using the process-wide [`planner_calibration`].
    pub fn new(system: SystemConfig, perf: RimePerfConfig) -> Planner {
        Planner::with_calibration(system, perf, planner_calibration())
    }

    /// A planner with explicit calibration (tests, what-if studies).
    pub fn with_calibration(
        system: SystemConfig,
        perf: RimePerfConfig,
        cal: PlannerCalibration,
    ) -> Planner {
        Planner { system, perf, cal }
    }

    /// A planner for the given functional device, priced against a
    /// single off-chip CPU core — the configuration the validation-scale
    /// measurements use.
    pub fn for_device(device: &RimeDevice) -> Planner {
        Planner::new(
            SystemConfig::off_chip(1),
            RimePerfConfig::for_config(device.config()),
        )
    }

    /// The paper-scale planner: Table I device, 64 off-chip cores.
    pub fn table1() -> Planner {
        Planner::new(SystemConfig::off_chip(64), RimePerfConfig::table1())
    }

    /// The calibration in force.
    pub fn calibration(&self) -> &PlannerCalibration {
        &self.cal
    }

    /// The device-side analytic model in force.
    pub fn perf(&self) -> &RimePerfConfig {
        &self.perf
    }

    /// Total key slots of the modeled device.
    fn device_slots(&self) -> u64 {
        self.perf.keys_per_chip * self.perf.total_chips() as u64
    }

    /// Extraction-cost scaling for narrower keys: a `k`-bit column
    /// search takes proportionally fewer steps than the 64-bit probe.
    fn bits_ratio(&self, key_bits: u16) -> f64 {
        let full = self.perf.timing.extraction_time_ns(64) + self.perf.timing.t_read_ns;
        let narrow = self.perf.timing.extraction_time_ns(key_bits) + self.perf.timing.t_read_ns;
        narrow / full
    }

    /// Prices a *measured* device-side execution: modeled busy ns of the
    /// busiest chip plus the interface cost of the observed transfers.
    /// The validation harness uses this same function on observed
    /// (`Δbusy`, `Δtransfers`), keeping predictions and measurements in
    /// one currency.
    pub fn price_device_ns(&self, busy_ns: f64, transfers: u64) -> f64 {
        busy_ns + transfers as f64 * self.perf.uc_access_ns / self.perf.channels.max(1) as f64
    }

    /// Modeled cost (ns) of a strategy sorting `n` keys of `key_bits`.
    /// Infinite for infeasible strategies (device capacity exceeded).
    pub fn cost_ns(&self, strategy: Strategy, n: u64, key_bits: u16) -> f64 {
        if n == 0 {
            return 0.0;
        }
        match strategy {
            Strategy::CpuSort { algo } => self.cpu_sort_ns(algo, n),
            Strategy::Rime => {
                if n > self.device_slots() / 2 {
                    return f64::INFINITY;
                }
                self.device_stream_ns(n, key_bits)
            }
            Strategy::Hybrid { algo, stripes } => {
                let stripes = stripes.clamp(1, n as usize) as u64;
                if n.div_ceil(stripes) > self.device_slots() / 2 {
                    return f64::INFINITY;
                }
                let cpu_passes = match algo {
                    // Binary merge tree over the sorted runs.
                    SortAlgorithm::Merge => (stripes.max(1) as f64).log2().ceil(),
                    // Partition levels down to device-sized chunks.
                    SortAlgorithm::Quick => (stripes.max(1) as f64).log2().ceil(),
                    // One MSD scatter pass.
                    SortAlgorithm::Radix => 1.0,
                    // Pure device streaming; no CPU structure retained.
                    SortAlgorithm::Heap => 0.0,
                };
                let cpu = n as f64 * cpu_passes * self.cal.cpu_ns(algo);
                cpu + self.device_stream_ns(n, key_bits)
            }
        }
    }

    /// CPU sort cost: calibrated compute on `system`'s cores, roofed
    /// against the memory-side service time of the kernel's phase
    /// decomposition priced through the memsim backend.
    fn cpu_sort_ns(&self, algo: SortAlgorithm, n: u64) -> f64 {
        let cores = self.system.core.cores.max(1) as f64;
        let compute = n as f64 * algo.total_passes(n) as f64 * self.cal.cpu_ns(algo) / cores;
        let backend = self.system.memory.backend();
        let execution = algo
            .workload(n, &self.system)
            .execute_on(&self.system, backend.as_ref());
        let memory = execution.mem_busy_cycles / self.system.core.clock_ghz;
        compute.max(memory)
    }

    /// Device-side cost of loading `n` keys and streaming them all out,
    /// priced like [`Planner::price_device_ns`] prices a measurement.
    fn device_stream_ns(&self, n: u64, key_bits: u16) -> f64 {
        let chips = self.perf.active_chips(n, Placement::Contiguous);
        let per_chip = n as f64 / chips as f64;
        let busy = per_chip
            * (self.cal.load_ns_per_slot
                + self.cal.extract_ns_per_slot * self.bits_ratio(key_bits));
        let transfers = (n as f64 * self.cal.interface_accesses_per_value) as u64;
        self.price_device_ns(busy, transfers)
    }

    /// The candidate strategies for sorting `n` keys of `key_bits`.
    /// Hybrids require 64-bit keys (the [`crate::hybrid`] kernels are
    /// u64); `RIME_PLANNER_FORCE=cpu|rime|hybrid` restricts the classes.
    pub fn candidates(&self, n: u64, key_bits: u16) -> Vec<Strategy> {
        let mut out: Vec<Strategy> = SortAlgorithm::ALL
            .into_iter()
            .map(|algo| Strategy::CpuSort { algo })
            .collect();
        out.push(Strategy::Rime);
        if key_bits == 64 {
            let chunk = (self.device_slots() / 2).max(1);
            let stripes = (self.perf.total_chips() as u64).max(n.div_ceil(chunk)) as usize;
            for algo in SortAlgorithm::ALL {
                out.push(Strategy::Hybrid { algo, stripes });
            }
        }
        if let Ok(force) = std::env::var("RIME_PLANNER_FORCE") {
            out.retain(|s| match force.as_str() {
                "cpu" => matches!(s, Strategy::CpuSort { .. }),
                "rime" => matches!(s, Strategy::Rime),
                "hybrid" => matches!(s, Strategy::Hybrid { .. }),
                _ => true,
            });
        }
        out
    }

    /// Picks the cheapest feasible strategy for sorting `n` keys of
    /// `key_bits` (64-bit is the common case).
    pub fn plan_sort(&self, n: u64, key_bits: u16) -> Strategy {
        self.candidates(n, key_bits)
            .into_iter()
            .map(|s| (s, self.cost_ns(s, n, key_bits)))
            .filter(|(_, c)| c.is_finite())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s)
            .unwrap_or(Strategy::CpuSort {
                algo: SortAlgorithm::Quick,
            })
    }

    /// Whether a top-`k` query over `n` stored keys should use the
    /// device (O(k) extractions) or a CPU selection scan. The device
    /// amortizes once the per-key load cost beats the CPU scan; a full
    /// `k = n` degenerates to [`Planner::plan_sort`]'s Rime-vs-CPU call.
    pub fn device_wins_top_k(&self, n: u64, k: u64, key_bits: u16) -> bool {
        if n == 0 || n > self.device_slots() / 2 {
            return false;
        }
        let chips = self.perf.active_chips(n, Placement::Contiguous);
        let busy = n as f64 / chips as f64 * self.cal.load_ns_per_slot
            + k as f64 / chips as f64 * self.cal.extract_ns_per_slot * self.bits_ratio(key_bits);
        let transfers = (k as f64 * self.cal.interface_accesses_per_value) as u64;
        let device = self.price_device_ns(busy, transfers);
        // CPU: one selection scan plus the heap maintenance on k winners.
        let scan = self.cal.cpu_ns(SortAlgorithm::Quick);
        let heap = self.cal.cpu_ns(SortAlgorithm::Heap);
        let k_levels = (k.max(2) as f64).log2().ceil();
        let cpu = n as f64 * scan + k as f64 * k_levels * heap;
        device < cpu
    }

    /// Exports the calibration and modeled-device parameters as
    /// deterministic gauges (integer picoseconds / milli-units, so the
    /// values survive the i64 gauge encoding losslessly enough to diff).
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        for algo in SortAlgorithm::ALL {
            registry
                .gauge(
                    "rime_planner_cpu_ps_per_key_pass",
                    &[("algo", algo.label())],
                    "Calibrated single-core CPU cost per key per pass (ps)",
                )
                .set((self.cal.cpu_ns(algo) * 1e3) as i64);
        }
        registry
            .gauge(
                "rime_planner_load_ps_per_slot",
                &[],
                "Calibrated device bulk-load cost per key slot (ps)",
            )
            .set((self.cal.load_ns_per_slot * 1e3) as i64);
        registry
            .gauge(
                "rime_planner_extract_ps_per_slot",
                &[],
                "Calibrated device extraction cost per key slot (ps)",
            )
            .set((self.cal.extract_ns_per_slot * 1e3) as i64);
        registry
            .gauge(
                "rime_planner_interface_accesses_per_kvalue",
                &[],
                "Calibrated interface transfers per thousand extracted values",
            )
            .set((self.cal.interface_accesses_per_value * 1e3) as i64);
    }

    /// Executes a strategy on real data through the real device,
    /// returning the fully sorted keys. Every strategy produces
    /// byte-identical output to `slice::sort`.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the RIME-backed strategies.
    pub fn execute(
        &self,
        device: &RimeDevice,
        keys: &[u64],
        strategy: Strategy,
    ) -> Result<Vec<u64>, RimeError> {
        execute_strategy(device, keys, strategy, self.perf.total_chips() as usize)
    }
}

/// Runs one strategy end to end. `device_stripes` is the stripe count
/// for [`Strategy::Rime`] (hybrids carry their own).
///
/// # Errors
///
/// Propagates device errors from the RIME-backed strategies.
pub fn execute_strategy(
    device: &RimeDevice,
    keys: &[u64],
    strategy: Strategy,
    device_stripes: usize,
) -> Result<Vec<u64>, RimeError> {
    match strategy {
        Strategy::CpuSort { algo } => {
            let mut mem = TracedMemory::untraced();
            let buf = mem.add_buf(keys.to_vec());
            let out = match algo {
                SortAlgorithm::Merge => exec::merge_sort(&mut mem, buf),
                SortAlgorithm::Quick => {
                    exec::quick_sort(&mut mem, buf);
                    buf
                }
                SortAlgorithm::Radix => exec::radix_sort(&mut mem, buf),
                SortAlgorithm::Heap => {
                    exec::heap_sort(&mut mem, buf);
                    buf
                }
            };
            Ok(mem.into_buf(out))
        }
        Strategy::Rime => rime_sort::sort_via_device(device, keys, device_stripes.max(1)),
        Strategy::Hybrid { algo, stripes } => match algo {
            SortAlgorithm::Merge => hybrid::merge_sort_rime(device, keys, stripes),
            SortAlgorithm::Quick => {
                let cutoff = keys.len().div_ceil(stripes.max(1)).max(1);
                hybrid::quick_sort_rime(device, keys, cutoff)
            }
            SortAlgorithm::Radix => hybrid::radix_sort_rime(device, keys),
            SortAlgorithm::Heap => hybrid::heap_sort_rime(device, keys),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_deterministic_and_positive() {
        let a = planner_calibration();
        let b = planner_calibration();
        assert_eq!(a, b);
        for ns in a.cpu_ns_per_key_pass {
            assert!(ns > 0.0 && ns < 1_000.0, "cpu ns/key/pass {ns}");
        }
        assert!(a.load_ns_per_slot > 0.0);
        assert!(a.extract_ns_per_slot > 0.0);
        assert!(a.interface_accesses_per_value >= 1.0);
    }

    #[test]
    fn small_inputs_prefer_cpu_large_prefer_device_at_table1() {
        let planner = Planner::table1();
        // A handful of keys: device init/load overhead dominates.
        assert!(matches!(
            planner.plan_sort(512, 64),
            Strategy::CpuSort { .. }
        ));
        // Paper scale: CPU sorting is bandwidth-walled, RIME streams.
        let big = planner.plan_sort(65_000_000, 64);
        assert!(
            !matches!(big, Strategy::CpuSort { .. }),
            "65M keys must leave the CPU: {big:?}"
        );
    }

    #[test]
    fn infeasible_rime_costs_infinity() {
        let dev = RimeDevice::new(RimeConfig::small());
        let planner = Planner::for_device(&dev);
        let over = planner.device_slots() * 2;
        assert!(planner.cost_ns(Strategy::Rime, over, 64).is_infinite());
        let plan = planner.plan_sort(over, 64);
        assert!(planner.cost_ns(plan, over, 64).is_finite());
    }

    #[test]
    fn narrower_keys_cheapen_the_device_only() {
        let planner = Planner::table1();
        let n = 1_000_000;
        let r64 = planner.cost_ns(Strategy::Rime, n, 64);
        let r32 = planner.cost_ns(Strategy::Rime, n, 32);
        assert!(r32 < r64, "32-bit extraction must be cheaper");
        let algo = SortAlgorithm::Quick;
        let c64 = planner.cost_ns(Strategy::CpuSort { algo }, n, 64);
        let c32 = planner.cost_ns(Strategy::CpuSort { algo }, n, 32);
        assert_eq!(c64, c32, "CPU cost is width-blind in this model");
    }

    #[test]
    fn all_strategies_sort_correctly() {
        let keys = generate_u64(1_200, KeyDistribution::Uniform, 7);
        let mut want = keys.clone();
        want.sort_unstable();
        let dev = RimeDevice::new(RimeConfig::small());
        let planner = Planner::for_device(&dev);
        for strategy in planner.candidates(keys.len() as u64, 64) {
            let got = planner.execute(&dev, &keys, strategy).unwrap();
            assert_eq!(got, want, "{}", strategy.label());
        }
    }

    #[test]
    fn top_k_gates_and_determinism() {
        let planner = Planner::table1();
        let n = 4_000_000u64;
        // Deterministic: the same question always gets the same answer.
        assert_eq!(
            planner.device_wins_top_k(n, 10, 64),
            planner.device_wins_top_k(n, 10, 64)
        );
        // Oversubscribed tables can never win: capacity gate.
        let over = planner.perf().keys_per_chip * planner.perf().total_chips() as u64;
        assert!(!planner.device_wins_top_k(over * 2, 10, 64));
        // Degenerate query: nothing stored, nothing to win.
        assert!(!planner.device_wins_top_k(0, 10, 64));
        // At full extraction the CPU pays k·log k heap maintenance while
        // the device pays linear k — paper scale favors the device.
        assert!(planner.device_wins_top_k(n, n, 64));
    }

    #[test]
    fn gauges_export_calibration() {
        let registry = MetricsRegistry::new();
        Planner::table1().bind_metrics(&registry);
        let snap = registry.snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("rime_planner_cpu_ps_per_key_pass"));
        assert!(text.contains("rime_planner_extract_ps_per_slot"));
        // Deterministic gauges survive masking (byte-identical embeds).
        let masked = registry.snapshot().masked().to_prometheus();
        assert!(masked.contains("rime_planner_extract_ps_per_slot"));
    }

    #[test]
    fn force_env_is_respected() {
        // Serialize around the env var: candidates() reads it directly.
        let planner = Planner::table1();
        std::env::set_var("RIME_PLANNER_FORCE", "rime");
        let only_rime = planner.candidates(1_000_000, 64);
        std::env::remove_var("RIME_PLANNER_FORCE");
        assert_eq!(only_rime, vec![Strategy::Rime]);
    }
}
