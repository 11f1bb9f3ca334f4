//! Column-search engine benchmark: bit-sliced column shadow vs the
//! row-major scalar oracle (feature `scalar-oracle`), at 1/8/64 mats.
//!
//! Measures keys/sec for single-key extraction (`extract` in a loop) and
//! batched extraction (`extract_batch`), both engines driven through the
//! identical chip controller so the difference is purely the
//! sense/match kernel. Prints a table with speedups; with
//! `RIME_BENCH_JSON=<path>` also writes a machine-readable snapshot
//! (see `BENCH_column_search.json` at the repo root for the committed
//! perf trajectory). Pass `--quick` for a CI-sized smoke run.

use rime_memristive::{Chip, ChipGeometry, Direction, KeyFormat, ParallelPolicy};
use std::time::{Duration, Instant};

/// Slots per mat = 4 arrays × rows.
fn geometry(mats: u16, rows: u32) -> ChipGeometry {
    ChipGeometry {
        banks: 1,
        subbanks_per_bank: 1,
        mats_per_subbank: mats,
        arrays_per_mat: 4,
        rows,
        cols: 64,
    }
}

fn loaded_chip(mats: u16, rows: u32, scalar: bool) -> (Chip, u64) {
    let geo = geometry(mats, rows);
    let n = geo.capacity_slots();
    let mut chip = Chip::new(geo);
    chip.set_scalar_oracle(scalar);
    // Sequential fan-out so the comparison isolates the sense/match
    // kernel rather than thread-scheduling effects.
    chip.set_parallel_policy(ParallelPolicy::Sequential);
    let keys: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
    (chip, n)
}

/// Best-of-`reps` wall time for `f`, which receives a fresh clone of
/// `chip` each repetition (clone/setup excluded from the measurement).
fn best_of(reps: usize, chip: &Chip, mut f: impl FnMut(Chip)) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let fresh = chip.clone();
        let t = Instant::now();
        f(fresh);
        best = best.min(t.elapsed());
    }
    best
}

fn keys_per_sec(extracted: u64, elapsed: Duration) -> f64 {
    extracted as f64 / elapsed.as_secs_f64()
}

struct EngineResult {
    scalar_kps: f64,
    bitsliced_kps: f64,
}

impl EngineResult {
    fn speedup(&self) -> f64 {
        self.bitsliced_kps / self.scalar_kps
    }
}

struct ConfigResult {
    mats: u16,
    keys: u64,
    single: EngineResult,
    batch: EngineResult,
}

fn run_config(mats: u16, rows: u32, extracts: u64, batch_k: usize, reps: usize) -> ConfigResult {
    let mut single = [0.0f64; 2];
    let mut batch = [0.0f64; 2];
    let mut keys = 0;
    for (idx, scalar) in [(0usize, true), (1, false)] {
        let (chip, n) = loaded_chip(mats, rows, scalar);
        keys = n;

        let elapsed = best_of(reps, &chip, |mut chip| {
            chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
            for _ in 0..extracts {
                std::hint::black_box(chip.extract(Direction::Min).unwrap());
            }
        });
        single[idx] = keys_per_sec(extracts, elapsed);

        let elapsed = best_of(reps, &chip, |mut chip| {
            chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
            std::hint::black_box(chip.extract_batch(Direction::Min, batch_k).unwrap());
        });
        batch[idx] = keys_per_sec(batch_k as u64, elapsed);
    }
    ConfigResult {
        mats,
        keys,
        single: EngineResult {
            scalar_kps: single[0],
            bitsliced_kps: single[1],
        },
        batch: EngineResult {
            scalar_kps: batch[0],
            bitsliced_kps: batch[1],
        },
    }
}

fn write_json(path: &str, mode: &str, results: &[ConfigResult], rows: u32, batch_k: usize) {
    let mut out = String::from("{\n  \"bench\": \"column_search\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n  \"configs\": [\n"));
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mats\": {}, \"keys\": {}, \
             \"single_scalar_kps\": {:.0}, \"single_bitsliced_kps\": {:.0}, \
             \"single_speedup\": {:.2}, \
             \"batch_scalar_kps\": {:.0}, \"batch_bitsliced_kps\": {:.0}, \
             \"batch_speedup\": {:.2}}}{}\n",
            r.mats,
            r.keys,
            r.single.scalar_kps,
            r.single.bitsliced_kps,
            r.single.speedup(),
            r.batch.scalar_kps,
            r.batch.bitsliced_kps,
            r.batch.speedup(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    // One extra fully instrumented pass of the largest config, outside
    // any timed region, whose masked (deterministic) metrics snapshot
    // rides along in the committed file.
    let metrics = rime_bench::instrumented_metrics_json(geometry(64, rows), batch_k);
    out.push_str(&format!("  ],\n  \"metrics\": {metrics}\n}}\n"));
    std::fs::write(path, out).expect("write bench snapshot");
    println!("snapshot written to {path}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    // Quick mode keeps all three mat counts but shrinks rows and the
    // extraction workload so the whole run stays CI-smoke-sized.
    let (rows, extracts, batch_k, reps) = if quick {
        (64u32, 8u64, 64usize, 2usize)
    } else {
        (512, 32, 256, 3)
    };

    println!(
        "column-search engine: bit-sliced shadow vs scalar oracle ({} mode)",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:>5} {:>8} | {:>14} {:>14} {:>8} | {:>14} {:>14} {:>8}",
        "mats",
        "keys",
        "single scl/s",
        "single bit/s",
        "speedup",
        "batch scl/s",
        "batch bit/s",
        "speedup"
    );

    let mut results = Vec::new();
    for mats in [1u16, 8, 64] {
        let r = run_config(mats, rows, extracts, batch_k, reps);
        println!(
            "{:>5} {:>8} | {:>14.0} {:>14.0} {:>7.2}x | {:>14.0} {:>14.0} {:>7.2}x",
            r.mats,
            r.keys,
            r.single.scalar_kps,
            r.single.bitsliced_kps,
            r.single.speedup(),
            r.batch.scalar_kps,
            r.batch.bitsliced_kps,
            r.batch.speedup(),
        );
        results.push(r);
    }

    if let Ok(path) = std::env::var("RIME_BENCH_JSON") {
        let mode = if quick { "quick" } else { "full" };
        write_json(&path, mode, &results, rows, batch_k);
    }
}
