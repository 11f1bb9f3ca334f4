//! Regenerates Fig. 16: GroupBy and MergeJoin throughput for the
//! off-chip, in-package, and RIME systems across data sizes.

use rime_bench::{factor, header, print_series, series, size_sweep};

fn main() {
    let sizes = size_sweep();
    let [(_, groupby), (_, mergejoin)] = series::fig16(&sizes);

    for (name, title, app) in [
        ("GroupBy", "key-value GroupBy throughput", &groupby),
        ("MergeJoin", "sort-merge join throughput", &mergejoin),
    ] {
        header(&format!("Fig. 16 ({name})"), title, "throughput (MKps)");
        let table = vec![
            ("Off-Chip".to_string(), app.off_chip.clone()),
            ("In-Package".to_string(), app.in_package.clone()),
            ("RIME".to_string(), app.rime.clone()),
        ];
        print_series("rows", &sizes, &table);
    }

    let n = *sizes.last().unwrap();
    let last = |ys: &[f64]| *ys.last().unwrap();
    println!(
        "Gains at {}M rows (paper: GroupBy RIME 5.4-23.1x, HBM 1.1-2x;",
        n / 1_000_000
    );
    println!("MergeJoin RIME 5.6-24.1x, HBM 1.1-2x):");
    for (name, app) in [("GroupBy  ", &groupby), ("MergeJoin", &mergejoin)] {
        let off = last(&app.off_chip);
        println!(
            "  {name}: HBM {}, RIME {}",
            factor(last(&app.in_package), off),
            factor(last(&app.rime), off),
        );
    }
}
