//! Criterion bench: batched top-k extraction (`extract_batch`) against a
//! sequential per-key `extract` loop on a multi-mat geometry, plus the
//! device-level `rime_min_k` path. The batch engine amortizes
//! select-vector setup and H-tree traversal across the whole batch, so it
//! should beat the loop wall-clock while producing identical results.
//!
//! `chip_top_k_table1` runs the same extraction on a full Table I chip
//! (1024 mats, 2 Mi key slots) over one 4096-key region that starts off
//! mat 0, so any host cost that grows with the chip's capacity rather
//! than the range's span shows up next to the small-geometry rows.
//!
//! `chip_span_table1` is the span probe and a gate: on a Table I chip,
//! one region of `mats × 2048` u64 keys (2/8/32/64/128 mats) is drained
//! with `extract_batch(Min, 256)` until 2048 keys are out, under `Auto`
//! (the memoized engine) and `Sequential` (the full walk). Each
//! iteration extracts 2048 keys, so µs/key is the reported mean divided
//! by 2048. Before the timed rows, every span drains three times under
//! each policy, and the bench exits nonzero if `Auto`'s hits or any
//! `OpCounters` field differ from `Sequential`'s, or if `Auto`'s best
//! drain runs below 2× `Sequential`'s keys/s at 64 or 128 mats. Run it
//! with `cargo bench -p rime-bench --bench bench_batch -- --quick`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rime_core::{ops, RimeConfig, RimeDevice};
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, KeyFormat, OpCounters, ParallelPolicy,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn loaded_chip(n: u64) -> Chip {
    let mut chip = Chip::new(ChipGeometry::small());
    let keys: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
    chip
}

fn bench_chip_batch_vs_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("chip_top_k");
    let n = 4096u64;
    let chip = loaded_chip(n);
    for k in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("extract_batch", k), &k, |b, &k| {
            b.iter_batched(
                || chip.clone(),
                |mut chip| {
                    chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
                    black_box(chip.extract_batch(Direction::Min, k).unwrap())
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("sequential_loop", k), &k, |b, &k| {
            b.iter_batched(
                || chip.clone(),
                |mut chip| {
                    chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
                    let mut out = Vec::with_capacity(k);
                    for _ in 0..k {
                        match chip.extract(Direction::Min).unwrap() {
                            Some(hit) => out.push(hit),
                            None => break,
                        }
                    }
                    black_box(out)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_table1_chip_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("chip_top_k_table1");
    let geometry = ChipGeometry::table1();
    let n = 4096u64;
    // Mid-mat start five mats in: the range spans mats 5..=7.
    let begin = 5 * geometry.slots_per_mat() + 300;
    let mut chip = Chip::new(geometry);
    let keys: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    chip.store_keys(begin, &keys, KeyFormat::UNSIGNED64)
        .unwrap();
    for k in [1usize, 64] {
        group.bench_with_input(BenchmarkId::new("extract_batch", k), &k, |b, &k| {
            b.iter(|| {
                chip.init_range(begin, begin + n, KeyFormat::UNSIGNED64)
                    .unwrap();
                black_box(chip.extract_batch(Direction::Min, k).unwrap())
            })
        });
    }
    group.finish();
}

/// Keys one span-probe drain extracts.
const KEYS_OUT: usize = 2048;
/// Spans (mats) from which `Auto` must run at least [`AUTO_FLOOR`] times
/// `Sequential`'s keys/s.
const AUTO_FLOOR_MATS: u64 = 64;
const AUTO_FLOOR: f64 = 2.0;

/// One span-probe drain of `[0, n)`: `extract_batch(Min, 256)` until
/// [`KEYS_OUT`] keys are out.
fn span_drain(chip: &mut Chip, n: u64) -> Vec<ExtractHit> {
    chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
    let mut hits = Vec::with_capacity(KEYS_OUT);
    while hits.len() < KEYS_OUT {
        hits.extend(black_box(chip.extract_batch(Direction::Min, 256).unwrap()));
    }
    hits
}

/// Three drains under `policy`: the last one's hits and counters, and
/// the best wall time.
fn gate_drains(
    chip: &mut Chip,
    n: u64,
    policy: ParallelPolicy,
) -> (Vec<ExtractHit>, OpCounters, Duration) {
    chip.set_parallel_policy(policy);
    let mut best = Duration::MAX;
    let mut hits = Vec::new();
    for _ in 0..3 {
        chip.reset_counters();
        let t = Instant::now();
        hits = span_drain(chip, n);
        best = best.min(t.elapsed());
    }
    (hits, *chip.counters(), best)
}

fn bench_table1_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("chip_span_table1");
    let geometry = ChipGeometry::table1();
    let mut failures = Vec::new();
    for mats in [2u64, 8, 32, 64, 128] {
        let n = mats * geometry.slots_per_mat();
        let mut chip = Chip::new(geometry);
        let keys: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();

        // The gate: Auto is bit-identical to the Sequential oracle, and
        // well ahead of it on wide spans.
        let (auto_hits, auto_counters, auto_best) = gate_drains(&mut chip, n, ParallelPolicy::Auto);
        let (seq_hits, seq_counters, seq_best) =
            gate_drains(&mut chip, n, ParallelPolicy::Sequential);
        let speedup = seq_best.as_secs_f64() / auto_best.as_secs_f64();
        println!(
            "{mats:>4} mats: best drain Auto {:.2} µs/key, Sequential {:.2} µs/key ({speedup:.1}×)",
            auto_best.as_secs_f64() * 1e6 / KEYS_OUT as f64,
            seq_best.as_secs_f64() * 1e6 / KEYS_OUT as f64,
        );
        if auto_hits != seq_hits {
            failures.push(format!("Auto hits differ from Sequential at {mats} mats"));
        }
        if auto_counters != seq_counters {
            failures.push(format!(
                "Auto counters differ from Sequential at {mats} mats: {auto_counters:?} vs {seq_counters:?}"
            ));
        }
        if mats >= AUTO_FLOOR_MATS && speedup < AUTO_FLOOR {
            failures.push(format!(
                "Auto runs {speedup:.2}× Sequential's keys/s at {mats} mats (floor {AUTO_FLOOR}×)"
            ));
        }

        for policy in [ParallelPolicy::Auto, ParallelPolicy::Sequential] {
            chip.set_parallel_policy(policy);
            let id = BenchmarkId::new(format!("{policy:?}_2048_keys"), mats);
            group.bench_with_input(id, &mats, |b, _| b.iter(|| span_drain(&mut chip, n)));
        }
    }
    group.finish();
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("chip_span_table1 gate: {failure}");
        }
        std::process::exit(1);
    }
    println!("chip_span_table1 gate: Auto matches Sequential at every span and clears {AUTO_FLOOR}× from {AUTO_FLOOR_MATS} mats");
}

fn bench_device_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_top_k");
    let n = 4096u64;
    let dev = RimeDevice::new(RimeConfig::small());
    let region = dev.alloc(n).unwrap();
    let keys: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x2545F4914F6CDD1D)).collect();
    dev.write(region, 0, &keys).unwrap();
    for k in [64u64, 256] {
        group.bench_with_input(BenchmarkId::new("rime_min_k", k), &k, |b, &k| {
            b.iter(|| black_box(ops::smallest_k::<u64>(&dev, region, k).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("rime_min_loop", k), &k, |b, &k| {
            b.iter(|| {
                dev.init_all::<u64>(region).unwrap();
                let mut out = Vec::with_capacity(k as usize);
                for _ in 0..k {
                    match dev.rime_min::<u64>(region).unwrap() {
                        Some((_, v)) => out.push(v),
                        None => break,
                    }
                }
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chip_batch_vs_loop,
    bench_table1_chip_batch,
    bench_table1_span,
    bench_device_batch
);
criterion_main!(benches);
