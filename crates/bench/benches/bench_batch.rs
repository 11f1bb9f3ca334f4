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
//! `chip_span_table1` is the span probe: on a Table I chip, one region
//! of `mats × 2048` u64 keys (2/8/32/128 mats) is drained with
//! `extract_batch(Min, 256)` until 2048 keys are out, under `Auto` (the
//! memoized engine) and `Sequential` (the full walk). Each iteration
//! extracts 2048 keys, so µs/key is the reported mean divided by 2048.
//! Run it alone with
//! `cargo bench -p rime-bench --bench bench_batch -- --quick`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rime_core::{ops, RimeConfig, RimeDevice};
use rime_memristive::{Chip, ChipGeometry, Direction, KeyFormat, ParallelPolicy};
use std::hint::black_box;

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

fn bench_table1_span(c: &mut Criterion) {
    const KEYS_OUT: usize = 2048;
    let mut group = c.benchmark_group("chip_span_table1");
    let geometry = ChipGeometry::table1();
    for mats in [2u64, 8, 32, 128] {
        let n = mats * geometry.slots_per_mat();
        let mut chip = Chip::new(geometry);
        let keys: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
        for policy in [ParallelPolicy::Auto, ParallelPolicy::Sequential] {
            chip.set_parallel_policy(policy);
            let id = BenchmarkId::new(format!("{policy:?}_2048_keys"), mats);
            group.bench_with_input(id, &mats, |b, _| {
                b.iter(|| {
                    chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
                    let mut out = 0;
                    while out < KEYS_OUT {
                        out += black_box(chip.extract_batch(Direction::Min, 256).unwrap()).len();
                    }
                })
            });
        }
    }
    group.finish();
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
