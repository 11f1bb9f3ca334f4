//! `rime-stats`: run a fixed instrumented workload and export the
//! device's metrics snapshot.
//!
//! The workload is a 64-mat `rime_min_k` ranking session on one chip
//! with full extraction instrumentation enabled and the default
//! parallel policy, so every *modeled* metric in the snapshot is
//! deterministic — run it twice and the masked exports are
//! byte-identical. Wall-clock metrics (command and phase times) are real
//! host measurements and vary; `--masked` zeroes them.
//!
//! ```text
//! rime-stats [--format prom|json] [--pretty] [--masked]
//!            [--baseline <snapshot.json>] [--wear] [--percentiles]
//!            [--selfcheck]
//! ```
//!
//! * `--format prom` (default) — Prometheus text exposition;
//! * `--format json` — JSON, round-trippable via `--baseline`;
//! * `--pretty` — indented JSON;
//! * `--masked` — zero nondeterministic (wall-clock) metrics;
//! * `--baseline FILE` — subtract a previous `--format json` snapshot
//!   (counters/histograms become deltas; gauges pass through);
//! * `--wear` — append the per-mat wear matrix (JSON) and its ASCII
//!   heatmap instead of the metrics export;
//! * `--percentiles` — append a p50/p95/p99 table for every histogram
//!   (log2-bucket interpolation, see `Histogram::percentile`);
//! * `--selfcheck` — run the workload twice, validate the Prometheus
//!   exposition grammar and masked-snapshot determinism, exit nonzero on
//!   any failure (the CI smoke gate).

use std::process::ExitCode;

use rime_bench::heatmap;
use rime_core::metrics::validate_prometheus;
use rime_core::{DriverConfig, KeyFormat, RimeConfig, RimeDevice, Snapshot};
use rime_energy::{rime_energy, PowerModel};
use rime_memristive::{ArrayTiming, ChipGeometry};

/// One chip of 64 mats (4×4×4), 64 slots per mat: 4096 keys total. Small
/// enough to run in milliseconds, big enough to exercise a six-level
/// memo tree over the range's mats and the multi-step H-tree.
fn config() -> RimeConfig {
    RimeConfig {
        channels: 1,
        chips_per_channel: 1,
        chip_geometry: ChipGeometry {
            banks: 4,
            subbanks_per_bank: 4,
            mats_per_subbank: 4,
            arrays_per_mat: 4,
            rows: 16,
            cols: 64,
        },
        timing: ArrayTiming::table1(),
        driver: DriverConfig::default(),
    }
}

/// Runs the fixed workload and returns the device (with its populated
/// registry). Deterministic for modeled metrics: fixed keys and fixed
/// batch sizes.
fn run_workload() -> RimeDevice {
    let dev = RimeDevice::new(config());
    dev.enable_extraction_metrics();

    let n = dev.capacity();
    let region = dev.alloc(n).expect("alloc fixed workload");
    // A full permutation-ish spray: every mat holds keys, no duplicates
    // of the extremes, deterministic.
    let keys: Vec<u64> = (0..n).map(|i| (i * 2654435761) % 1_000_003).collect();
    dev.write_raw(region, 0, &keys, KeyFormat::UNSIGNED64)
        .expect("store keys");
    dev.init_raw(region, 0, n, KeyFormat::UNSIGNED64)
        .expect("init range");
    // Three batches exercise extract, rearm-between-batches, and the
    // FIFO drain; one failing probe exercises the error counters.
    for k in [16, 64, 8] {
        let hits = dev
            .next_extremes_raw(region, KeyFormat::UNSIGNED64, rime_core::Direction::Min, k)
            .expect("batch extraction");
        assert_eq!(hits.len(), k, "range is large enough for every batch");
    }
    let _ = dev.fifo_next_raw(region).expect("fifo drain");
    let _ = dev.next_extreme_raw(region, KeyFormat::FLOAT64, rime_core::Direction::Min);
    dev.free(region).expect("free region");
    publish_energy(&dev);
    dev
}

/// Prices the workload's extractions and interface transfers with the
/// Table I power model and publishes the result next to the executor's
/// own series.
fn publish_energy(dev: &RimeDevice) {
    let (extractions, transfers) = (dev.counters().extractions, dev.interface_transfers());
    // No elapsed time and no cores: only the dynamic RIME energy is left.
    let dynamic = rime_energy(&PowerModel::table1(), 0.0, 0.0, extractions, transfers, 0);
    let metrics = dev.metrics();
    let help = "extractions priced by the energy model";
    metrics
        .counter("rime_energy_extractions_total", &[], help)
        .add(extractions);
    let help = "interface transfers priced by the energy model";
    metrics
        .counter("rime_energy_transfers_total", &[], help)
        .add(transfers);
    let help = "dynamic RIME energy of the workload in nanojoules";
    metrics
        .gauge("rime_energy_dynamic_nj", &[], help)
        .set((dynamic.rime_j * 1e9) as i64);
}

fn selfcheck() -> Result<(), String> {
    let first = run_workload().metrics_snapshot();
    let second = run_workload().metrics_snapshot();
    let samples = validate_prometheus(&first.to_prometheus())
        .map_err(|(line, err)| format!("prometheus exposition invalid at line {line}: {err}"))?;
    if samples == 0 {
        return Err("prometheus exposition contains no samples".to_string());
    }
    let a = first.masked().to_json(false);
    let b = second.masked().to_json(false);
    if a != b {
        return Err("masked snapshots differ between identical runs".to_string());
    }
    // The JSON exporter must round-trip its own output.
    let back = Snapshot::from_json(&a).map_err(|e| format!("json roundtrip failed: {e}"))?;
    if back != first.masked() {
        return Err("json roundtrip changed the snapshot".to_string());
    }
    println!("selfcheck ok: {samples} prometheus samples, masked snapshots identical");
    Ok(())
}

/// Renders one percentile value: integral nanoseconds, or `inf` for a
/// tail that escaped into the overflow bucket.
fn fmt_pct(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) if v.is_infinite() => "inf".to_string(),
        Some(v) => format!("{v:.0}"),
    }
}

/// Prints a `p50/p95/p99` table for every histogram in the snapshot.
fn print_percentiles(snapshot: &Snapshot) {
    println!(
        "{:<44} {:>12} {:>12} {:>12} {:>10}",
        "histogram", "p50", "p95", "p99", "count"
    );
    for m in &snapshot.metrics {
        let rime_core::metrics::MetricValue::Histogram(h) = &m.value else {
            continue;
        };
        let labels = m
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        let name = if labels.is_empty() {
            m.name.clone()
        } else {
            format!("{}{{{labels}}}", m.name)
        };
        println!(
            "{:<44} {:>12} {:>12} {:>12} {:>10}",
            name,
            fmt_pct(h.percentile(50.0)),
            fmt_pct(h.percentile(95.0)),
            fmt_pct(h.percentile(99.0)),
            h.count,
        );
    }
}

fn main() -> ExitCode {
    let mut format = "prom".to_string();
    let mut pretty = false;
    let mut masked = false;
    let mut wear = false;
    let mut percentiles = false;
    let mut run_selfcheck = false;
    let mut baseline: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if f == "prom" || f == "json" => format = f,
                other => {
                    eprintln!("--format expects 'prom' or 'json', got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--pretty" => pretty = true,
            "--masked" => masked = true,
            "--wear" => wear = true,
            "--percentiles" => percentiles = true,
            "--selfcheck" => run_selfcheck = true,
            "--baseline" => match args.next() {
                Some(path) => baseline = Some(path),
                None => {
                    eprintln!("--baseline expects a file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?}\n\
                     usage: rime-stats [--format prom|json] [--pretty] [--masked] \
                     [--baseline FILE] [--wear] [--percentiles] [--selfcheck]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if run_selfcheck {
        return match selfcheck() {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("selfcheck failed: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let dev = run_workload();

    if wear {
        let matrix = dev.wear_matrix();
        println!("{}", heatmap::to_json(&matrix));
        print!("{}", heatmap::render(&matrix));
        return ExitCode::SUCCESS;
    }

    let mut snapshot = dev.metrics_snapshot();
    if let Some(path) = baseline {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let base = match Snapshot::from_json(&text) {
            Ok(base) => base,
            Err(err) => {
                eprintln!("cannot parse baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        snapshot = snapshot.diff(&base);
    }
    if masked {
        snapshot = snapshot.masked();
    }
    match format.as_str() {
        "json" => print!("{}", snapshot.to_json(pretty)),
        _ => print!("{}", snapshot.to_prometheus()),
    }
    if percentiles {
        println!();
        print_percentiles(&snapshot);
    }
    ExitCode::SUCCESS
}
