//! Regenerates Fig. 18: strict-priority-queue remove throughput for
//! packet add:remove ratios R = 1..5, on the off-chip, in-package, and
//! RIME systems, vs initial buffer size.

use rime_bench::{factor, header, print_series, series, size_sweep};

fn main() {
    let sizes = size_sweep();
    let panels = series::fig18(&sizes);
    for (name, (_, by_ratio)) in ["Off-Chip (DDR4)", "In-Package (HBM)", "RIME"]
        .into_iter()
        .zip(&panels)
    {
        header(
            &format!("Fig. 18 ({name})"),
            "strict priority queue remove throughput",
            "throughput (MKps removed)",
        );
        let table: Vec<(String, Vec<f64>)> = by_ratio
            .iter()
            .enumerate()
            .map(|(i, ys)| (format!("R={}", i + 1), ys.clone()))
            .collect();
        print_series("buffer", &sizes, &table);
    }

    let [(_, off), _, (_, rime)] = &panels;
    let worst = *off[4].last().unwrap();
    let best = off[0][0];
    let rime = *rime[4].last().unwrap();
    println!(
        "RIME gain range over DDR4 across sizes/ratios: {} to {}",
        factor(rime, best),
        factor(rime, worst)
    );
    println!("(paper: 6.1-43.6x; RIME flat across buffer sizes and R)");
}
