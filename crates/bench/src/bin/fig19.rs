//! Regenerates Fig. 19: system energy of every evaluated application at
//! 65M keys, for the in-package (HBM) and RIME systems, normalized to
//! the off-chip DRAM baseline.

use rime_bench::series;

/// Display name and the energy reduction the paper reports, in
/// [`series::fig19`]'s order.
const APPS: [(&str, f64); 11] = [
    ("Kruskal", 94.0),
    ("Dijkstra", 92.0),
    ("Prim", 91.0),
    ("GroupBy", 95.0),
    ("MergeJoin", 95.0),
    ("A*-Search", 94.0),
    ("SPQ (R=1)", 96.0),
    ("SPQ (R=2)", 96.0),
    ("SPQ (R=3)", 96.0),
    ("SPQ (R=4)", 96.0),
    ("SPQ (R=5)", 96.0),
];

fn main() {
    println!("Fig. 19 — system energy normalized to the off-chip baseline");
    println!("(65M keys; paper: HBM ±, RIME >=90% reduction)\n");
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>16}   breakdown of RIME J (cpu/dram/rime)",
        "app", "Off-Chip", "HBM", "RIME", "paper RIME"
    );

    for ((name, paper_reduction_pct), row) in APPS.into_iter().zip(series::fig19()) {
        let off_j = row.off_chip_j;
        let rime = row.rime;
        println!(
            "{:>12} {:>10.2} {:>10.2} {:>10.2} {:>15.0}%   {:>6.2} / {:>5.2} / {:>5.2} J",
            name,
            1.0,
            row.in_package_j / off_j,
            rime.total_j() / off_j,
            paper_reduction_pct,
            rime.cpu_j,
            rime.dram_j,
            rime.rime_j,
        );
    }
    println!("\n(RIME column: fraction of off-chip energy; paper column: the");
    println!("reduction the paper reports, i.e. RIME fraction ≈ 1 − paper%.)");
}
