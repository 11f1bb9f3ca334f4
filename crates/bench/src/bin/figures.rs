//! `figures`: one deterministic pass over the Figs. 15–19 data, closing
//! the reproduction loop through the [`rime_memsim::MemoryBackend`]
//! trait (every baseline series is priced by `Workload::execute`, which
//! routes through `MemorySystem::backend()`). The series come from
//! [`rime_bench::series`], the same functions the `fig15`–`fig19`
//! binaries print.
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

use rime_bench::{series, DEFAULT_CORES};
use rime_core::{MetricsRegistry, Snapshot};
use rime_kernels::planner::{Planner, Strategy};
use rime_kernels::SortAlgorithm;
use rime_memristive::ChipGeometry;
use rime_memsim::SystemConfig;

/// The canonical Fig. 15–18 sweep (0.5M–65M keys), fixed for snapshot
/// byte-identity regardless of `RIME_SIZES`.
const SIZES: [u64; 6] = [
    500_000, 2_000_000, 8_000_000, 16_000_000, 32_000_000, 65_000_000,
];

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

fn series_line(out: &mut String, name: &str, values: &[f64], last: bool) {
    let vals: Vec<String> = values.iter().map(|&v| num(v)).collect();
    let comma = if last { "" } else { "," };
    let _ = writeln!(out, "      \"{name}\": [{}]{comma}", vals.join(", "));
}

fn build_snapshot() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"figures\",\n");
    let _ = writeln!(
        out,
        "  \"sizes\": [{}],",
        SIZES.map(|n| n.to_string()).join(", ")
    );

    // Fig. 15 — sorting kernels vs RIME on both DRAM baselines.
    out.push_str("  \"fig15\": {\n");
    for (idx, (panel, sys)) in [
        ("off_chip", SystemConfig::off_chip(DEFAULT_CORES)),
        ("in_package", SystemConfig::in_package(DEFAULT_CORES)),
    ]
    .iter()
    .enumerate()
    {
        let _ = writeln!(out, "    \"{panel}\": {{");
        let (kernels, rime) = series::fig15(&SIZES, sys);
        for (alg, ys) in &kernels {
            series_line(&mut out, alg.label(), ys, false);
        }
        series_line(&mut out, "rime", &rime, true);
        let _ = writeln!(out, "    }}{}", if idx == 0 { "," } else { "" });
    }
    out.push_str("  },\n");

    // Figs. 16 and 17 — GroupBy/MergeJoin and the graph workloads.
    for (fig, apps) in [
        ("fig16", series::fig16(&SIZES).to_vec()),
        ("fig17", series::fig17(&SIZES).to_vec()),
    ] {
        let _ = writeln!(out, "  \"{fig}\": {{");
        let last = apps.len() - 1;
        for (idx, (name, app)) in apps.iter().enumerate() {
            let _ = writeln!(out, "    \"{name}\": {{");
            series_line(&mut out, "off_chip", &app.off_chip, false);
            series_line(&mut out, "in_package", &app.in_package, false);
            series_line(&mut out, "rime", &app.rime, true);
            let _ = writeln!(out, "    }}{}", if idx == last { "" } else { "," });
        }
        out.push_str("  },\n");
    }

    // Fig. 18 — strict priority queue, R = 1..5.
    out.push_str("  \"fig18\": {\n");
    for (idx, (panel, by_ratio)) in series::fig18(&SIZES).iter().enumerate() {
        let _ = writeln!(out, "    \"{panel}\": {{");
        for (i, ys) in by_ratio.iter().enumerate() {
            series_line(&mut out, &format!("r{}", i + 1), ys, i == 4);
        }
        let _ = writeln!(out, "    }}{}", if idx == 2 { "" } else { "," });
    }
    out.push_str("  },\n");

    // Fig. 19 — normalized system energy at 65M keys.
    out.push_str("  \"fig19\": {\n");
    let rows = series::fig19();
    let last = rows.len() - 1;
    for (idx, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"hbm_frac\": {}, \"rime_frac\": {}}}{}",
            row.key,
            num(row.in_package_j / row.off_chip_j),
            num(row.rime.total_j() / row.off_chip_j),
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
        !matches!(
            planner.plan_sort(series::ENERGY_KEYS, 64),
            Strategy::CpuSort { .. }
        ),
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
