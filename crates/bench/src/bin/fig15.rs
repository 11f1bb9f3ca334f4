//! Regenerates Fig. 15: throughput of the four sorting kernels on the
//! off-chip DDR4 and in-package HBM baselines vs RIME, across data sizes.
//! Ends with the paper's headline average gains.

use rime_bench::{factor, header, print_series, series, size_sweep, DEFAULT_CORES};
use rime_memsim::SystemConfig;

fn main() {
    let sizes = size_sweep();
    let mean = |ys: &[f64]| ys.iter().sum::<f64>() / ys.len() as f64;

    let mut gains = Vec::new();
    for (panel, sys) in [
        ("Off-Chip (DDR4)", SystemConfig::off_chip(DEFAULT_CORES)),
        ("In-Package (HBM)", SystemConfig::in_package(DEFAULT_CORES)),
    ] {
        header(
            "Fig. 15",
            &format!("sort throughput on {panel} vs RIME"),
            "throughput (MKps)",
        );
        let (kernels, rime) = series::fig15(&sizes, &sys);
        if gains.is_empty() {
            gains = kernels
                .iter()
                .map(|(alg, ys)| (alg.label(), factor(mean(&rime), mean(ys))))
                .collect();
        }
        let mut table: Vec<(String, Vec<f64>)> = kernels
            .into_iter()
            .map(|(alg, ys)| (alg.label().to_string(), ys))
            .collect();
        table.push(("RIME".to_string(), rime));
        print_series("keys", &sizes, &table);
    }

    println!("Average RIME gains over the off-chip baseline (paper: M/S 30.2x,");
    println!("Q/S 12.4x, R/S 50.7x, H/S 26x):");
    for (label, gain) in gains {
        println!("  {label:>4}: {gain}");
    }
}
