//! # rime-energy
//!
//! System power and energy models (§VI-B, §VII-B).
//!
//! The paper estimates system energy with McPAT (processor), the Micron
//! power calculator (off-chip DRAM), prior work on fine-grained DRAM
//! (in-package HBM), and its own circuit characterization (RIME). We
//! substitute closed-form activity-based models whose constants are
//! chosen so the baselines' *relative* energies reproduce §VII-B:
//!
//! * the HBM system carries **both** an in-package memory and the
//!   off-chip DRAM, so when it cannot shorten execution (A*-Search,
//!   strict priority queues) its extra background power makes it ~24 %
//!   *worse* than the off-chip baseline;
//! * where HBM does shorten execution, system energy drops ~40 %;
//! * RIME runs far shorter, moves almost no data, and its non-volatile
//!   arrays burn no refresh/leakage, yielding >90 % savings.
//!
//! Fig. 19 normalizes everything to the off-chip baseline, so only these
//! ratios matter — absolute watts are stated for transparency, not
//! fidelity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rime_memsim::perf::Execution;

/// Power-model constants. All powers in watts, energies in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Dynamic power of one busy core (McPAT-class OoO core at 22 nm).
    pub core_dynamic_w: f64,
    /// Static/leakage power per core (always on while the app runs).
    pub core_static_w: f64,
    /// Uncore/LLC static power.
    pub uncore_static_w: f64,
    /// Off-chip DRAM background power (refresh + standby, all ranks).
    pub dram_background_w: f64,
    /// Off-chip DRAM energy per 64 B line transferred (nJ).
    pub dram_nj_per_line: f64,
    /// In-package memory background power.
    pub hbm_background_w: f64,
    /// In-package memory energy per 64 B line (nJ) — cheaper I/O.
    pub hbm_nj_per_line: f64,
    /// RIME DIMM background power (non-volatile: no refresh; peripheral
    /// logic only). §VII-B bounds the whole DIMM at 1 W peak.
    pub rime_background_w: f64,
    /// RIME energy per extraction (nJ/chip, Table I: 51.3 for 64 steps).
    pub rime_nj_per_extraction: f64,
    /// RIME interface energy per transferred value (nJ).
    pub rime_nj_per_transfer: f64,
}

impl PowerModel {
    /// The calibrated model (see module docs).
    pub fn table1() -> PowerModel {
        PowerModel {
            core_dynamic_w: 1.5,
            core_static_w: 0.3,
            uncore_static_w: 8.0,
            dram_background_w: 6.0,
            dram_nj_per_line: 35.0,
            hbm_background_w: 9.0,
            hbm_nj_per_line: 12.0,
            rime_background_w: 0.25,
            rime_nj_per_extraction: 51.3,
            rime_nj_per_transfer: 2.0,
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::table1()
    }
}

/// Energy of one baseline run (joules), split by component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Processor energy (dynamic + static).
    pub cpu_j: f64,
    /// Off-chip DRAM energy.
    pub dram_j: f64,
    /// In-package memory energy (zero for the off-chip system).
    pub hbm_j: f64,
    /// RIME DIMM energy (zero for the baselines).
    pub rime_j: f64,
}

impl EnergyBreakdown {
    /// Total system energy in joules.
    pub fn total_j(&self) -> f64 {
        self.cpu_j + self.dram_j + self.hbm_j + self.rime_j
    }
}

/// Which memory system a run executed on (determines background power).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// CPU + off-chip DRAM.
    OffChip,
    /// CPU + in-package HBM + off-chip DRAM (both present, §VII-B).
    InPackage,
    /// CPU + RIME DIMMs (+ idle off-chip DRAM for code/stack).
    Rime,
}

/// Computes the energy of a baseline execution.
///
/// `exec` comes from `rime_memsim::perf::Workload::execute`; `cores` is
/// the active core count.
pub fn baseline_energy(
    model: &PowerModel,
    kind: SystemKind,
    exec: &Execution,
    cores: u32,
    clock_ghz: f64,
) -> EnergyBreakdown {
    let secs = exec.total_cycles / (clock_ghz * 1e9);
    let busy_core_secs = exec.cpu_busy_cycles / (clock_ghz * 1e9);
    let cpu_j = busy_core_secs * model.core_dynamic_w
        + secs * (model.core_static_w * cores as f64 + model.uncore_static_w);
    let lines = exec.mem_bytes as f64 / 64.0;
    let (dram_j, hbm_j) = match kind {
        SystemKind::OffChip => (
            secs * model.dram_background_w + lines * model.dram_nj_per_line * 1e-9,
            0.0,
        ),
        SystemKind::InPackage => (
            // Off-chip DRAM still present and refreshing; traffic goes to
            // the in-package memory.
            secs * model.dram_background_w,
            secs * model.hbm_background_w + lines * model.hbm_nj_per_line * 1e-9,
        ),
        SystemKind::Rime => (secs * model.dram_background_w, 0.0),
    };
    EnergyBreakdown {
        cpu_j,
        dram_j,
        hbm_j,
        rime_j: 0.0,
    }
}

/// Computes the energy of a RIME execution.
///
/// * `secs` — wall-clock seconds of the RIME-accelerated run;
/// * `cpu_busy_core_secs` — core-seconds the library/application spent;
/// * `extractions` — in-situ min/max computations performed;
/// * `transfers` — values moved over the DDR4 interface;
/// * `cores` — cores powered during the run.
pub fn rime_energy(
    model: &PowerModel,
    secs: f64,
    cpu_busy_core_secs: f64,
    extractions: u64,
    transfers: u64,
    cores: u32,
) -> EnergyBreakdown {
    let cpu_j = cpu_busy_core_secs * model.core_dynamic_w
        + secs * (model.core_static_w * cores as f64 + model.uncore_static_w);
    let rime_j = secs * model.rime_background_w
        + extractions as f64 * model.rime_nj_per_extraction * 1e-9
        + transfers as f64 * model.rime_nj_per_transfer * 1e-9;
    EnergyBreakdown {
        cpu_j,
        dram_j: secs * model.dram_background_w,
        hbm_j: 0.0,
        rime_j,
    }
}

/// Average power of a RIME DIMM while continuously extracting with
/// `concurrent_chips` chips active — the §VII-B 1 W budget check.
pub fn rime_dimm_power_w(model: &PowerModel, concurrent_chips: u32, extract_ns: f64) -> f64 {
    model.rime_background_w + concurrent_chips as f64 * model.rime_nj_per_extraction / extract_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use rime_memsim::perf::{Phase, Workload};
    use rime_memsim::SystemConfig;

    fn run(kind: SystemKind, cores: u32, n: u64) -> (EnergyBreakdown, f64) {
        // A mergesort-shaped 65M-key run: ~15 memory passes of 24 B/key.
        let w = Workload::new(vec![Phase::streaming("pass", n * 15, 245.0, 15 * 24 * n)]);
        let sys = match kind {
            SystemKind::OffChip => SystemConfig::off_chip(cores),
            SystemKind::InPackage => SystemConfig::in_package(cores),
            SystemKind::Rime => SystemConfig::unlimited(cores),
        };
        let exec = w.execute(&sys);
        let secs = exec.total_seconds();
        (
            baseline_energy(&PowerModel::table1(), kind, &exec, cores, 2.0),
            secs,
        )
    }

    #[test]
    fn hbm_saves_energy_on_memory_bound_work() {
        // §VII-B: HBM cuts execution time on streaming apps → ~40 % less.
        let (off, t_off) = run(SystemKind::OffChip, 16, 65_000_000);
        let (hbm, t_hbm) = run(SystemKind::InPackage, 16, 65_000_000);
        assert!(t_hbm < t_off);
        let ratio = hbm.total_j() / off.total_j();
        assert!((0.3..0.9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hbm_wastes_energy_when_it_cannot_speed_up() {
        // §VII-B: equal execution times → HBM's extra background power
        // costs ~24 % more energy.
        let model = PowerModel::table1();
        let w = Workload::new(vec![Phase::dependent("chase", 1_000_000, 40.0, 64_000_000)]);
        let off_exec = w.execute(&SystemConfig::off_chip(16));
        let hbm_exec = w.execute(&SystemConfig::in_package(16));
        let off = baseline_energy(&model, SystemKind::OffChip, &off_exec, 16, 2.0);
        let hbm = baseline_energy(&model, SystemKind::InPackage, &hbm_exec, 16, 2.0);
        let ratio = hbm.total_j() / off.total_j();
        assert!((1.0..1.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rime_saves_more_than_90_percent() {
        // Fig. 19: RIME cuts system energy by ≥90 %.
        let model = PowerModel::table1();
        let (off, t_off) = run(SystemKind::OffChip, 16, 65_000_000);
        // RIME at ~35 MKps sorts 65M keys in ~1.9 s.
        let n = 65_000_000u64;
        let secs = n as f64 / 35e6;
        let rime = rime_energy(&model, secs, secs * 2.0, n, n, 16);
        assert!(t_off > secs);
        let reduction = 1.0 - rime.total_j() / off.total_j();
        assert!(reduction > 0.9, "reduction {reduction}");
    }

    #[test]
    fn rime_dimm_stays_near_1w() {
        // §VII-B: peak DIMM power ~1 W with a handful of active chips.
        let model = PowerModel::table1();
        let p5 = rime_dimm_power_w(&model, 5, 286.8);
        assert!((0.5..1.5).contains(&p5), "{p5} W");
    }

    #[test]
    fn breakdown_totals() {
        let b = EnergyBreakdown {
            cpu_j: 1.0,
            dram_j: 2.0,
            hbm_j: 3.0,
            rime_j: 4.0,
        };
        assert_eq!(b.total_j(), 10.0);
    }
}
