//! `figures`: one deterministic pass over the Figs. 15–19 data, closing
//! the reproduction loop through the [`rime_memsim::MemoryBackend`]
//! trait (every baseline series below is priced by
//! `Workload::execute`, which routes through `MemorySystem::backend()`).
//!
//! ```text
//! figures            # print the snapshot JSON to stdout
//! figures --write    # (re)generate BENCH_figures.json at the repo root
//! figures --check    # recompute and fail unless the committed file is
//!                    # byte-identical AND its embedded metrics are
//!                    # well-formed (required keys present, in order)
//! ```
//!
//! Everything in the snapshot is modeled (analytic series, traced-cycle
//! planner calibration, masked metrics), so two runs — on any machine —
//! produce byte-identical output. The canonical paper sweep is
//! hardcoded; `RIME_SIZES` is deliberately ignored so `--check` is
//! stable under `repro-all --quick`.

use std::fmt::Write as _;
use std::process::ExitCode;

use rime_apps::{astar, dijkstra, groupby, kruskal, mergejoin, prim, spq};
use rime_bench::DEFAULT_CORES;
use rime_core::{MetricsRegistry, RimePerfConfig, Snapshot};
use rime_energy::{baseline_energy, rime_energy, PowerModel, SystemKind};
use rime_kernels::planner::{Planner, Strategy};
use rime_kernels::{rime_sort, SortAlgorithm};
use rime_memristive::ChipGeometry;
use rime_memsim::SystemConfig;

/// The canonical Fig. 15–18 sweep (0.5M–65M keys), fixed for snapshot
/// byte-identity regardless of `RIME_SIZES`.
const SIZES: [u64; 6] = [
    500_000, 2_000_000, 8_000_000, 16_000_000, 32_000_000, 65_000_000,
];
const N: u64 = 65_000_000;
const SPQ_REMOVES: u64 = 1_000_000;

/// Metric names every committed snapshot must carry; `--check` fails if
/// one goes missing (e.g. a refactor silently drops the planner gauges).
const REQUIRED_METRICS: [&str; 6] = [
    "rime_chip_ops_total",
    "rime_interface_transfers_total",
    "rime_planner_cpu_ps_per_key_pass",
    "rime_planner_extract_ps_per_slot",
    "rime_planner_interface_accesses_per_kvalue",
    "rime_planner_load_ps_per_slot",
];

fn num(x: f64) -> String {
    format!("{x:.4}")
}

fn series(out: &mut String, name: &str, values: &[f64], last: bool) {
    let vals: Vec<String> = values.iter().map(|&v| num(v)).collect();
    let comma = if last { "" } else { "," };
    let _ = writeln!(out, "      \"{name}\": [{}]{comma}", vals.join(", "));
}

fn build_snapshot() -> String {
    let perf = RimePerfConfig::table1();
    let off = SystemConfig::off_chip(DEFAULT_CORES);
    let hbm = SystemConfig::in_package(DEFAULT_CORES);
    let vertices = |e: u64| (e / 8).max(2);

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"figures\",\n");
    let _ = writeln!(
        out,
        "  \"sizes\": [{}],",
        SIZES.map(|n| n.to_string()).join(", ")
    );

    // Fig. 15 — sorting kernels vs RIME on both DRAM baselines.
    out.push_str("  \"fig15\": {\n");
    for (idx, (panel, sys)) in [("off_chip", &off), ("in_package", &hbm)]
        .iter()
        .enumerate()
    {
        let _ = writeln!(out, "    \"{panel}\": {{");
        for alg in SortAlgorithm::ALL {
            let ys: Vec<f64> = SIZES.iter().map(|&n| alg.throughput_mkps(n, sys)).collect();
            series(&mut out, alg.label(), &ys, false);
        }
        let rime: Vec<f64> = SIZES
            .iter()
            .map(|&n| rime_sort::throughput_mkps(n, &perf))
            .collect();
        series(&mut out, "rime", &rime, true);
        let _ = writeln!(out, "    }}{}", if idx == 0 { "," } else { "" });
    }
    out.push_str("  },\n");

    // Fig. 16 — GroupBy and MergeJoin.
    out.push_str("  \"fig16\": {\n");
    for (idx, (name, base, rime)) in [
        (
            "groupby",
            Box::new(|n: u64, sys: &SystemConfig| groupby::baseline_throughput_mkps(n, sys))
                as Box<dyn Fn(u64, &SystemConfig) -> f64>,
            Box::new(|n: u64| groupby::rime_throughput_mkps(n, &perf)) as Box<dyn Fn(u64) -> f64>,
        ),
        (
            "mergejoin",
            Box::new(|n, sys| mergejoin::baseline_throughput_mkps(n / 2, sys)),
            Box::new(|n| mergejoin::rime_throughput_mkps(n / 2, &perf)),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let _ = writeln!(out, "    \"{name}\": {{");
        let ys: Vec<f64> = SIZES.iter().map(|&n| base(n, &off)).collect();
        series(&mut out, "off_chip", &ys, false);
        let ys: Vec<f64> = SIZES.iter().map(|&n| base(n, &hbm)).collect();
        series(&mut out, "in_package", &ys, false);
        let ys: Vec<f64> = SIZES.iter().map(|&n| rime(n)).collect();
        series(&mut out, "rime", &ys, true);
        let _ = writeln!(out, "    }}{}", if idx == 0 { "," } else { "" });
    }
    out.push_str("  },\n");

    // Fig. 17 — graph workloads.
    out.push_str("  \"fig17\": {\n");
    type GraphRow<'p> = (
        &'static str,
        Box<dyn Fn(u64, &SystemConfig) -> f64 + 'p>,
        Box<dyn Fn(u64) -> f64 + 'p>,
    );
    let graph_apps: Vec<GraphRow> = vec![
        (
            "kruskal",
            Box::new(kruskal::baseline_throughput_mkps),
            Box::new(|n| kruskal::rime_throughput_mkps(n, &perf, &off)),
        ),
        (
            "dijkstra",
            Box::new(move |n, sys| dijkstra::baseline_throughput_mkps(vertices(n), n, sys)),
            Box::new(move |n| dijkstra::rime_throughput_mkps(vertices(n), n, &perf, &off)),
        ),
        (
            "prim",
            Box::new(move |n, sys| prim::baseline_throughput_mkps(vertices(n), n, sys)),
            Box::new(move |n| prim::rime_throughput_mkps(vertices(n), n, &perf, &off)),
        ),
        (
            "astar",
            Box::new(astar::baseline_throughput_mkps),
            Box::new(|n| astar::rime_throughput_mkps(n, &perf, &off)),
        ),
    ];
    let last = graph_apps.len() - 1;
    for (idx, (name, base, rime)) in graph_apps.iter().enumerate() {
        let _ = writeln!(out, "    \"{name}\": {{");
        let ys: Vec<f64> = SIZES.iter().map(|&n| base(n, &off)).collect();
        series(&mut out, "off_chip", &ys, false);
        let ys: Vec<f64> = SIZES.iter().map(|&n| base(n, &hbm)).collect();
        series(&mut out, "in_package", &ys, false);
        let ys: Vec<f64> = SIZES.iter().map(|&n| rime(n)).collect();
        series(&mut out, "rime", &ys, true);
        let _ = writeln!(out, "    }}{}", if idx == last { "" } else { "," });
    }
    out.push_str("  },\n");

    // Fig. 18 — strict priority queue, R = 1..5.
    out.push_str("  \"fig18\": {\n");
    for (idx, (panel, sys)) in [
        ("off_chip", Some(&off)),
        ("in_package", Some(&hbm)),
        ("rime", None),
    ]
    .into_iter()
    .enumerate()
    {
        let _ = writeln!(out, "    \"{panel}\": {{");
        for r in 1u32..=5 {
            let ys: Vec<f64> = SIZES
                .iter()
                .map(|&n| match sys {
                    Some(sys) => spq::baseline_throughput_mkps(n, SPQ_REMOVES, r, sys),
                    None => spq::rime_throughput_mkps(n, SPQ_REMOVES, r, &perf),
                })
                .collect();
            series(&mut out, &format!("r{r}"), &ys, r == 5);
        }
        let _ = writeln!(out, "    }}{}", if idx == 2 { "" } else { "," });
    }
    out.push_str("  },\n");

    // Fig. 19 — normalized system energy at 65M keys.
    out.push_str("  \"fig19\": {\n");
    let model = PowerModel::table1();
    let v = N / 8;
    type EnergyRow = (
        &'static str,
        Box<dyn Fn(&SystemConfig) -> rime_memsim::perf::Workload>,
        Box<dyn Fn() -> (f64, u64, u64)>,
    );
    let mut rows: Vec<EnergyRow> = vec![
        (
            "kruskal",
            Box::new(|sys| kruskal::baseline_workload(N, sys)),
            Box::new(move || (kruskal::rime_seconds(N, &perf, &off), N, 2 * N)),
        ),
        (
            "dijkstra",
            Box::new(move |sys| dijkstra::baseline_workload(v, N, sys)),
            Box::new(move || (dijkstra::rime_seconds(v, N, &perf, &off), v + N / 4, N + v)),
        ),
        (
            "prim",
            Box::new(move |sys| prim::baseline_workload(v, N, sys)),
            Box::new(move || (prim::rime_seconds(v, N, &perf, &off), v + N / 3, 2 * N + v)),
        ),
        (
            "groupby",
            Box::new(|sys| groupby::baseline_workload(N, sys)),
            Box::new(move || (groupby::rime_seconds(N, &perf), N, 2 * N)),
        ),
        (
            "mergejoin",
            Box::new(|sys| mergejoin::baseline_workload(N / 2, sys)),
            Box::new(move || (mergejoin::rime_seconds(N / 2, &perf), N, 2 * N)),
        ),
        (
            "astar",
            Box::new(|sys| astar::baseline_workload(N, sys)),
            Box::new(move || (astar::rime_seconds(N, &perf, &off), 3 * N / 5, 2 * N)),
        ),
    ];
    for r in 1u32..=5 {
        rows.push((
            Box::leak(format!("spq_r{r}").into_boxed_str()),
            Box::new(move |sys| spq::baseline_workload(N, SPQ_REMOVES, r, sys)),
            Box::new(move || {
                let thr = spq::rime_throughput_mkps(N, SPQ_REMOVES, r, &perf) * 1e6;
                (
                    SPQ_REMOVES as f64 / thr,
                    SPQ_REMOVES,
                    SPQ_REMOVES * (1 + r as u64),
                )
            }),
        ));
    }
    let last = rows.len() - 1;
    for (idx, (name, baseline, rime)) in rows.iter().enumerate() {
        let off_exec = baseline(&off).execute(&off);
        let hbm_exec = baseline(&hbm).execute(&hbm);
        let off_j =
            baseline_energy(&model, SystemKind::OffChip, &off_exec, DEFAULT_CORES, 2.0).total_j();
        let hbm_j =
            baseline_energy(&model, SystemKind::InPackage, &hbm_exec, DEFAULT_CORES, 2.0).total_j();
        let (secs, extractions, transfers) = rime();
        let rime_j = rime_energy(
            &model,
            secs,
            secs * 2.0,
            extractions,
            transfers,
            DEFAULT_CORES,
        )
        .total_j();
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"hbm_frac\": {}, \"rime_frac\": {}}}{}",
            num(hbm_j / off_j),
            num(rime_j / off_j),
            if idx == last { "" } else { "," }
        );
    }
    out.push_str("  },\n");

    // Planner: calibration + the strategy it picks at each sweep size.
    let planner = Planner::table1();
    let cal = planner.calibration();
    out.push_str("  \"planner\": {\n    \"cpu_ns_per_key_pass\": {");
    let cpu: Vec<String> = SortAlgorithm::ALL
        .iter()
        .map(|&a| format!("\"{}\": {}", a.label(), num(cal.cpu_ns(a))))
        .collect();
    let _ = writeln!(out, "{}}},", cpu.join(", "));
    let _ = writeln!(
        out,
        "    \"load_ns_per_slot\": {}, \"extract_ns_per_slot\": {}, \
         \"interface_accesses_per_value\": {},",
        num(cal.load_ns_per_slot),
        num(cal.extract_ns_per_slot),
        num(cal.interface_accesses_per_value)
    );
    let choices: Vec<String> = SIZES
        .iter()
        .map(|&n| {
            let s = planner.plan_sort(n, 64);
            format!("\"{}\"", s.label())
        })
        .collect();
    let _ = writeln!(out, "    \"chosen_strategy\": [{}]", choices.join(", "));
    out.push_str("  },\n");

    // Masked metrics: one instrumented device pass plus the planner's
    // deterministic gauges, merged into a single registry snapshot.
    let registry = MetricsRegistry::new();
    planner.bind_metrics(&registry);
    let planner_snapshot = registry.snapshot().masked().to_json(false);
    let device_snapshot = rime_bench::instrumented_metrics_json(ChipGeometry::small(), 64);
    let _ = writeln!(out, "  \"planner_metrics\": {planner_snapshot},");
    let _ = writeln!(out, "  \"metrics\": {device_snapshot}");
    out.push_str("}\n");
    out
}

/// Extracts the JSON object value that follows `"key": ` in `text`.
/// The snapshot writer above controls the format, so a brace-matching
/// scan is enough.
fn extract_object<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let at = text.find(&format!("\"{key}\": {{"))?;
    let start = at + key.len() + 4;
    let mut depth = 0usize;
    let mut in_str = false;
    let mut esc = false;
    for (i, c) in text[start..].char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Validates the embedded metrics of a snapshot file: both snapshots
/// parse, the union carries every [`REQUIRED_METRICS`] name, and metric
/// names appear in sorted order (the registry's canonical export order —
/// a disordered file means it was hand-edited or the exporter broke).
fn check_embedded_metrics(text: &str) -> Result<(), String> {
    let mut names: Vec<String> = Vec::new();
    for key in ["planner_metrics", "metrics"] {
        let raw = extract_object(text, key).ok_or(format!("missing \"{key}\" object"))?;
        let snap = Snapshot::from_json(raw).map_err(|e| format!("\"{key}\" unparseable: {e}"))?;
        let mut prev: Option<String> = None;
        for m in &snap.metrics {
            if let Some(p) = &prev {
                if m.name < *p {
                    return Err(format!(
                        "\"{key}\" metrics disordered: {} after {p}",
                        m.name
                    ));
                }
            }
            prev = Some(m.name.clone());
            names.push(m.name.clone());
        }
    }
    for required in REQUIRED_METRICS {
        if !names.iter().any(|n| n == required) {
            return Err(format!("required metric {required} missing from snapshot"));
        }
    }
    Ok(())
}

fn snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_figures.json")
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_default();
    // A couple of planner sanity gates ride along in every mode: the
    // paper-scale device must win big sorts, CPU must win tiny ones.
    let planner = Planner::table1();
    assert!(
        matches!(planner.plan_sort(512, 64), Strategy::CpuSort { .. }),
        "planner must keep tiny sorts on the CPU"
    );
    assert!(
        !matches!(planner.plan_sort(N, 64), Strategy::CpuSort { .. }),
        "planner must move 65M-key sorts off the CPU"
    );

    let computed = build_snapshot();
    match mode.as_str() {
        "--write" => {
            let path = snapshot_path();
            std::fs::write(&path, &computed).expect("write BENCH_figures.json");
            println!("snapshot written to {}", path.display());
            ExitCode::SUCCESS
        }
        "--check" => {
            let path = snapshot_path();
            let committed = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("cannot read {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if committed != computed {
                eprintln!(
                    "BENCH_figures.json is stale: recompute with `cargo run -p rime-bench \
                     --bin figures -- --write` and commit the result"
                );
                return ExitCode::FAILURE;
            }
            if let Err(err) = check_embedded_metrics(&committed) {
                eprintln!("embedded metrics invalid: {err}");
                return ExitCode::FAILURE;
            }
            println!("figures snapshot up to date; embedded metrics well-formed");
            ExitCode::SUCCESS
        }
        "" => {
            print!("{computed}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown argument {other:?}\nusage: figures [--write | --check]");
            ExitCode::FAILURE
        }
    }
}
