//! The Figs. 15–19 series, each computed by one function that both the
//! per-figure binaries (`fig15`–`fig19`) and the `figures` snapshot
//! call. Every baseline is priced by `Workload::execute`, which routes
//! through `MemorySystem::backend()`; RIME is priced by the Table I
//! performance model. Keys are the snapshot's names; the binaries print
//! their own display names.

use rime_apps::{astar, dijkstra, groupby, kruskal, mergejoin, prim, spq};
use rime_core::RimePerfConfig;
use rime_energy::{baseline_energy, rime_energy, EnergyBreakdown, PowerModel, SystemKind};
use rime_kernels::{rime_sort, SortAlgorithm};
use rime_memsim::perf::Workload;
use rime_memsim::SystemConfig;

use crate::DEFAULT_CORES;

/// Packets removed per strict-priority-queue run (Figs. 18–19).
pub const SPQ_REMOVES: u64 = 1_000_000;

/// Keys per Fig. 19 energy run.
pub const ENERGY_KEYS: u64 = 65_000_000;

/// One value per swept size.
pub type Series = Vec<f64>;

/// One workload's throughput (MKps) on the off-chip and in-package
/// baselines and on RIME (Figs. 16–17).
#[derive(Debug, Clone, PartialEq)]
pub struct Versus {
    /// Off-chip DDR4 baseline.
    pub off_chip: Series,
    /// In-package HBM baseline.
    pub in_package: Series,
    /// RIME.
    pub rime: Series,
}

/// The off-chip and in-package baseline systems.
fn systems() -> (SystemConfig, SystemConfig) {
    let cores = DEFAULT_CORES;
    (
        SystemConfig::off_chip(cores),
        SystemConfig::in_package(cores),
    )
}

fn sweep(sizes: &[u64], f: impl Fn(u64) -> f64) -> Series {
    sizes.iter().map(|&n| f(n)).collect()
}

fn versus(
    sizes: &[u64],
    baseline: impl Fn(u64, &SystemConfig) -> f64,
    rime: impl Fn(u64) -> f64,
) -> Versus {
    let (off, hbm) = systems();
    Versus {
        off_chip: sweep(sizes, |n| baseline(n, &off)),
        in_package: sweep(sizes, |n| baseline(n, &hbm)),
        rime: sweep(sizes, rime),
    }
}

/// Fig. 15 on `sys`: each kernel of [`SortAlgorithm::ALL`], in that
/// order, then RIME — sort throughput in MKps.
pub fn fig15(sizes: &[u64], sys: &SystemConfig) -> (Vec<(SortAlgorithm, Series)>, Series) {
    let perf = RimePerfConfig::table1();
    let kernels = SortAlgorithm::ALL
        .iter()
        .map(|&alg| (alg, sweep(sizes, |n| alg.throughput_mkps(n, sys))))
        .collect();
    (
        kernels,
        sweep(sizes, |n| rime_sort::throughput_mkps(n, &perf)),
    )
}

/// Fig. 16: GroupBy over `n` rows, and MergeJoin of two `n / 2`-row
/// tables.
pub fn fig16(sizes: &[u64]) -> [(&'static str, Versus); 2] {
    let perf = RimePerfConfig::table1();
    [
        (
            "groupby",
            versus(sizes, groupby::baseline_throughput_mkps, |n| {
                groupby::rime_throughput_mkps(n, &perf)
            }),
        ),
        (
            "mergejoin",
            versus(
                sizes,
                |n, sys| mergejoin::baseline_throughput_mkps(n / 2, sys),
                |n| mergejoin::rime_throughput_mkps(n / 2, &perf),
            ),
        ),
    ]
}

/// Fig. 17: the graph workloads over `n` processed elements (edges or
/// grid cells), with `|V| = |E| / 8` (a typical power-law-ish density).
pub fn fig17(sizes: &[u64]) -> [(&'static str, Versus); 4] {
    let perf = RimePerfConfig::table1();
    let (off, _) = systems();
    let vertices = |e: u64| (e / 8).max(2);
    [
        (
            "kruskal",
            versus(sizes, kruskal::baseline_throughput_mkps, |n| {
                kruskal::rime_throughput_mkps(n, &perf, &off)
            }),
        ),
        (
            "dijkstra",
            versus(
                sizes,
                |n, sys| dijkstra::baseline_throughput_mkps(vertices(n), n, sys),
                |n| dijkstra::rime_throughput_mkps(vertices(n), n, &perf, &off),
            ),
        ),
        (
            "prim",
            versus(
                sizes,
                |n, sys| prim::baseline_throughput_mkps(vertices(n), n, sys),
                |n| prim::rime_throughput_mkps(vertices(n), n, &perf, &off),
            ),
        ),
        (
            "astar",
            versus(sizes, astar::baseline_throughput_mkps, |n| {
                astar::rime_throughput_mkps(n, &perf, &off)
            }),
        ),
    ]
}

/// Fig. 18: strict-priority-queue remove throughput (MKps) over the
/// initial buffer size, for add:remove ratios `R = 1..=5`, on the
/// off-chip and in-package baselines and on RIME.
pub fn fig18(sizes: &[u64]) -> [(&'static str, [Series; 5]); 3] {
    let perf = RimePerfConfig::table1();
    let (off, hbm) = systems();
    let ratios = |f: &dyn Fn(u64, u32) -> f64| -> [Series; 5] {
        std::array::from_fn(|i| sweep(sizes, |n| f(n, i as u32 + 1)))
    };
    [
        (
            "off_chip",
            ratios(&|n, r| spq::baseline_throughput_mkps(n, SPQ_REMOVES, r, &off)),
        ),
        (
            "in_package",
            ratios(&|n, r| spq::baseline_throughput_mkps(n, SPQ_REMOVES, r, &hbm)),
        ),
        (
            "rime",
            ratios(&|n, r| spq::rime_throughput_mkps(n, SPQ_REMOVES, r, &perf)),
        ),
    ]
}

/// One Fig. 19 application at [`ENERGY_KEYS`] keys.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Snapshot name (`kruskal`, …, `spq_r5`).
    pub key: String,
    /// Off-chip baseline system energy, joules.
    pub off_chip_j: f64,
    /// In-package baseline system energy, joules.
    pub in_package_j: f64,
    /// RIME system energy by component.
    pub rime: EnergyBreakdown,
}

/// Fig. 19: system energy of every evaluated application — Kruskal,
/// Dijkstra, Prim, GroupBy, MergeJoin, A*-Search, then SPQ for
/// `R = 1..=5`.
pub fn fig19() -> Vec<EnergyRow> {
    const N: u64 = ENERGY_KEYS;
    let perf = RimePerfConfig::table1();
    let (off, hbm) = systems();
    let model = PowerModel::table1();
    let v = N / 8;
    // One application: its baseline workload on a system, and the RIME
    // run's seconds, extractions and transfers.
    let row = |key: String, baseline: &dyn Fn(&SystemConfig) -> Workload, rime: (f64, u64, u64)| {
        let system_j = |kind, sys: &SystemConfig| {
            let exec = baseline(sys).execute(sys);
            baseline_energy(&model, kind, &exec, DEFAULT_CORES, 2.0).total_j()
        };
        let (secs, extractions, transfers) = rime;
        EnergyRow {
            key,
            off_chip_j: system_j(SystemKind::OffChip, &off),
            in_package_j: system_j(SystemKind::InPackage, &hbm),
            rime: rime_energy(
                &model,
                secs,
                secs * 2.0,
                extractions,
                transfers,
                DEFAULT_CORES,
            ),
        }
    };
    let mut rows = vec![
        row(
            "kruskal".into(),
            &|sys| kruskal::baseline_workload(N, sys),
            (kruskal::rime_seconds(N, &perf, &off), N, 2 * N),
        ),
        row(
            "dijkstra".into(),
            &|sys| dijkstra::baseline_workload(v, N, sys),
            (dijkstra::rime_seconds(v, N, &perf, &off), v + N / 4, N + v),
        ),
        row(
            "prim".into(),
            &|sys| prim::baseline_workload(v, N, sys),
            (prim::rime_seconds(v, N, &perf, &off), v + N / 3, 2 * N + v),
        ),
        row(
            "groupby".into(),
            &|sys| groupby::baseline_workload(N, sys),
            (groupby::rime_seconds(N, &perf), N, 2 * N),
        ),
        row(
            "mergejoin".into(),
            &|sys| mergejoin::baseline_workload(N / 2, sys),
            (mergejoin::rime_seconds(N / 2, &perf), N, 2 * N),
        ),
        row(
            "astar".into(),
            &|sys| astar::baseline_workload(N, sys),
            (astar::rime_seconds(N, &perf, &off), 3 * N / 5, 2 * N),
        ),
    ];
    for r in 1u32..=5 {
        let thr = spq::rime_throughput_mkps(N, SPQ_REMOVES, r, &perf) * 1e6;
        let removes = (
            SPQ_REMOVES as f64 / thr,
            SPQ_REMOVES,
            SPQ_REMOVES * (1 + r as u64),
        );
        rows.push(row(
            format!("spq_r{r}"),
            &|sys| spq::baseline_workload(N, SPQ_REMOVES, r, sys),
            removes,
        ));
    }
    rows
}
