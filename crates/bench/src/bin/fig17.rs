//! Regenerates Fig. 17: throughput of the graph workloads — Kruskal,
//! Dijkstra, Prim, A*-Search — on the off-chip, in-package, and RIME
//! systems across data sizes (elements = edges or grid cells).

use rime_bench::{factor, header, print_series, series, size_sweep};

/// Display name and the paper's RIME gain range, in
/// [`series::fig17`]'s order.
const APPS: [(&str, (f64, f64)); 4] = [
    ("Kruskal", (8.5, 20.9)),
    ("Dijkstra", (7.5, 17.2)),
    ("Prim", (6.3, 14.3)),
    ("A*-Search", (2.3, 23.0)),
];

fn main() {
    let sizes = size_sweep();
    for ((name, (lo, hi)), (_, app)) in APPS.into_iter().zip(series::fig17(&sizes)) {
        header(
            &format!("Fig. 17 ({name})"),
            &format!("{name} throughput"),
            "throughput (MKps, processed elements)",
        );
        let last = |ys: &[f64]| *ys.last().unwrap();
        let (off, hbm, rime) = (last(&app.off_chip), last(&app.in_package), last(&app.rime));
        let table = vec![
            ("Off-Chip".to_string(), app.off_chip),
            ("In-Package".to_string(), app.in_package),
            ("RIME".to_string(), app.rime),
        ];
        print_series("elements", &sizes, &table);
        let n = *sizes.last().unwrap();
        println!(
            "  at {}M: HBM {}, RIME {}   (paper RIME range {lo}-{hi}x)\n",
            n / 1_000_000,
            factor(hbm, off),
            factor(rime, off),
        );
    }
}
