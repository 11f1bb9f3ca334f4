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
//! each policy, plus one cross-call drain on a copy of the chip: calls
//! of 1, 16 and 256 keys in turn, with a `store_keys` into one span mat
//! and an `init_range` of the region halfway through, so `Auto` keeps
//! its memo tree across calls and across a write. The bench exits
//! nonzero if `Auto`'s hits or any `OpCounters` field differ from
//! `Sequential`'s in either drain, or if `Auto`'s best drain runs below
//! 2× `Sequential`'s keys/s at 64 or 128 mats. Run it with
//! `cargo bench -p rime-bench --bench bench_batch -- --quick`.
//!
//! `chip_drain_table1` is an ungated full-drain row of the span probe. A
//! Table I chip holds 16Ki or 128Ki keys (8 or 64 mats) from slot 0 in
//! each of perfbench `device_sort`'s three distributions: uniform u64
//! keys, 16 distinct random values, and ascending keys with one in a
//! hundred displaced. Each run re-initializes the range and drains it
//! completely by `extract_range_batch(Min, 256)` under `Auto`; every
//! drain is checked against `slice::sort`. Runs repeat until at least
//! three have run and a second has passed; the best is printed in ns per
//! key. Then the two uniform chips drain in turn, [`RATIO_PAIRS`] pairs
//! of a 16Ki drain and a 128Ki drain, each checked again, and the median
//! of the pairs' 128Ki/16Ki ns/key ratios is printed with its quartiles
//! (ungated): the chip's host cost per key should barely grow with the
//! span. Pairing times both sides of a ratio in the same stretch of the
//! host, which best-of rows taken seconds apart do not.
//!
//! `device_straddle_table1` is an ungated probe of multi-chip commands.
//! On a Table I device, 16Ki and 64Ki uniform u64 keys sit in one region
//! placed two ways: on chip 0, or straddling chips 0/1 with half the keys
//! on each (placed like perfbench's `device_sort`: a pad allocation, the
//! region, then the pad freed). Each region is re-initialized and drained
//! by `rime_min_k(16)` and `rime_min_k(256)` until it runs dry; every
//! drain is checked against `slice::sort`. The two placements drain in
//! turn, in rounds that repeat until at least three have run and a
//! second has passed; each placement's best drain is printed in µs per
//! key with the straddling/one-chip ratio. A straddling refill engages
//! both chips one after another on the calling thread, so the two
//! placements should cost about the same per key.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rime_core::{ops, Region, RimeConfig, RimeDevice};
use rime_memristive::{
    Chip, ChipGeometry, Direction, ExtractHit, KeyFormat, OpCounters, ParallelPolicy,
};
use rime_workloads::keys::{generate_u64, KeyDistribution};
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

/// Call sizes of the cross-call drain, used in turn.
const CROSS_CALL_KS: [usize; 3] = [1, 16, 256];

/// The cross-call drain of `[0, n)` under `policy`, on a copy of `chip`:
/// calls of [`CROSS_CALL_KS`] keys in turn until [`KEYS_OUT`] keys are
/// out. Once half are out, 256 new keys land in the span's middle mat
/// and the region is re-initialized. Returns the hits and the drain's
/// counters.
fn cross_call_drain(chip: &Chip, n: u64, policy: ParallelPolicy) -> (Vec<ExtractHit>, OpCounters) {
    let mut chip = chip.clone();
    chip.set_parallel_policy(policy);
    chip.reset_counters();
    chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
    let per_mat = chip.geometry().slots_per_mat();
    let written: Vec<u64> = (0..256u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D) >> 8)
        .collect();
    let mut hits = Vec::with_capacity(KEYS_OUT);
    let mut rewritten = false;
    for k in CROSS_CALL_KS.iter().cycle() {
        if hits.len() >= KEYS_OUT {
            break;
        }
        if !rewritten && hits.len() >= KEYS_OUT / 2 {
            let middle = n / per_mat / 2 * per_mat;
            chip.store_keys(middle, &written, KeyFormat::UNSIGNED64)
                .unwrap();
            chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
            rewritten = true;
        }
        hits.extend(
            chip.extract_range_batch(0, n, KeyFormat::UNSIGNED64, Direction::Min, *k)
                .unwrap(),
        );
    }
    (hits, *chip.counters())
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
        let (auto_hits, auto_counters) = cross_call_drain(&chip, n, ParallelPolicy::Auto);
        let (seq_hits, seq_counters) = cross_call_drain(&chip, n, ParallelPolicy::Sequential);
        if auto_hits != seq_hits {
            failures.push(format!(
                "Auto cross-call hits differ from Sequential at {mats} mats"
            ));
        }
        if auto_counters != seq_counters {
            failures.push(format!(
                "Auto cross-call counters differ from Sequential at {mats} mats: {auto_counters:?} vs {seq_counters:?}"
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
    println!("chip_span_table1 gate: Auto matches Sequential at every span, within and across calls, and clears {AUTO_FLOOR}× from {AUTO_FLOOR_MATS} mats");
}

/// perfbench `device_sort`'s key distributions, by name: `n` keys each.
fn drain_inputs(n: usize, seed: u64) -> [(&'static str, Vec<u64>); 3] {
    let values = generate_u64(16, KeyDistribution::Uniform, seed);
    let picks = generate_u64(n, KeyDistribution::FewDistinct { distinct: 16 }, seed + 1);
    [
        (
            "uniform",
            generate_u64(n, KeyDistribution::Uniform, seed + 2),
        ),
        (
            "16_distinct",
            picks.iter().map(|&i| values[i as usize]).collect(),
        ),
        (
            // `fraction` counts both ends of a swap: n/100 swaps.
            "nearly_sorted",
            generate_u64(
                n,
                KeyDistribution::NearlySorted { fraction: 0.02 },
                seed + 3,
            ),
        ),
    ]
}

/// Uniform 16Ki/128Ki drain pairs behind `chip_drain_table1`'s span
/// ratio.
const RATIO_PAIRS: usize = 15;

/// Re-initializes `[0, n)` and drains it by `extract_range_batch(Min,
/// 256)`, returning the keys in extraction order.
fn full_drain(chip: &mut Chip, n: u64) -> Vec<u64> {
    chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
    let mut out = Vec::with_capacity(n as usize);
    loop {
        let hits = chip
            .extract_range_batch(0, n, KeyFormat::UNSIGNED64, Direction::Min, 256)
            .unwrap();
        if hits.is_empty() {
            return out;
        }
        out.extend(hits.iter().map(|hit| hit.raw_bits));
    }
}

/// One [`full_drain`] of `chip`, checked against `want`, and its time.
fn timed_drain(chip: &mut Chip, want: &[u64], dist: &str) -> Duration {
    let n = want.len();
    let t = Instant::now();
    let got = black_box(full_drain(chip, n as u64));
    let took = t.elapsed();
    assert_eq!(got, want, "full drain of {n} {dist} keys");
    took
}

fn bench_table1_drain(_c: &mut Criterion) {
    // The uniform chips and their sorted keys, at 16Ki and 128Ki keys.
    let mut uniform = Vec::new();
    for n in [16usize << 10, 128 << 10] {
        for (dist, keys) in drain_inputs(n, 42) {
            let mut want = keys.clone();
            want.sort();
            let mut chip = Chip::new(ChipGeometry::table1());
            chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
            let mut best = Duration::MAX;
            let (mut spent, mut runs) = (Duration::ZERO, 0);
            while runs < PROBE_RUNS || spent < PROBE_BUDGET {
                let took = timed_drain(&mut chip, &want, dist);
                (best, spent, runs) = (best.min(took), spent + took, runs + 1);
            }
            let ns = best.as_secs_f64() * 1e9 / n as f64;
            println!("chip_drain_table1/{n}_keys/{dist}: {ns:.0} ns/key (best of {runs})");
            if dist == "uniform" {
                uniform.push((chip, want));
            }
        }
    }
    let mut ratios: Vec<f64> = (0..RATIO_PAIRS)
        .map(|_| {
            let [small, large] = [0, 1].map(|i| {
                let (chip, want) = &mut uniform[i];
                timed_drain(chip, want, "uniform").as_secs_f64() / want.len() as f64
            });
            large / small
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let quartile = |q: usize| ratios[(ratios.len() - 1) * q / 4];
    println!(
        "chip_drain_table1/uniform 128Ki/16Ki: median paired ratio {:.2}× ns/key (q1 {:.2}×, q3 {:.2}×, {RATIO_PAIRS} pairs; ungated)",
        quartile(2),
        quartile(1),
        quartile(3)
    );
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

/// Drain- and straddle-probe runs per case (a straddle round drains
/// each placement once): at least this many, and at least
/// [`PROBE_BUDGET`] of them.
const PROBE_RUNS: usize = 3;
const PROBE_BUDGET: Duration = Duration::from_secs(1);

/// A Table I device holding `keys` in one region, on chip 0 or
/// straddling chips 0/1 with half the keys on each.
fn placed_region(keys: &[u64], straddle: bool) -> (RimeDevice, Region) {
    let dev = RimeDevice::new(RimeConfig::table1());
    let n = keys.len() as u64;
    let region = if straddle {
        let chip_slots = dev.config().chip_slots();
        let pad = dev.alloc(chip_slots - n / 2).unwrap();
        let region = dev.alloc(n).unwrap();
        dev.free(pad).unwrap();
        assert_eq!(region.start(), chip_slots - n / 2, "straddling placement");
        region
    } else {
        dev.alloc(n).unwrap()
    };
    dev.write(region, 0, keys).unwrap();
    (dev, region)
}

/// Re-initializes `region` and drains it by `rime_min_k(k)`.
fn drain_min_k(dev: &RimeDevice, region: Region, k: usize) -> Vec<u64> {
    dev.init_all::<u64>(region).unwrap();
    let mut out = Vec::with_capacity(region.len() as usize);
    loop {
        let batch = dev.rime_min_k::<u64>(region, k).unwrap();
        if batch.is_empty() {
            return out;
        }
        out.extend(batch.into_iter().map(|(_, key)| key));
    }
}

fn bench_device_straddle(_c: &mut Criterion) {
    for n in [16usize << 10, 64 << 10] {
        let keys = generate_u64(n, KeyDistribution::Uniform, 42);
        let mut want = keys.clone();
        want.sort_unstable();
        let placed = [false, true].map(|straddle| placed_region(&keys, straddle));
        for k in [16usize, 256] {
            // The placements drain in turn, so a slow stretch of the host
            // lands on both rather than on one.
            let mut best = [Duration::MAX; 2];
            let (mut spent, mut rounds) = (Duration::ZERO, 0);
            while rounds < PROBE_RUNS || spent < PROBE_BUDGET {
                for ((dev, region), best) in placed.iter().zip(&mut best) {
                    let t = Instant::now();
                    let got = black_box(drain_min_k(dev, *region, k));
                    let took = t.elapsed();
                    (*best, spent) = ((*best).min(took), spent + took);
                    assert_eq!(got, want, "rime_min_k({k}) drain of {n} keys");
                }
                rounds += 1;
            }
            let [one_chip, straddle] = best.map(|b| b.as_secs_f64() * 1e6 / n as f64);
            println!(
                "device_straddle_table1/{n}_keys/k={k}: one chip {one_chip:.2} µs/key, straddling chips 0/1 {straddle:.2} µs/key ({:.2}×, best of {rounds})",
                straddle / one_chip
            );
        }
    }
}

criterion_group!(
    benches,
    bench_chip_batch_vs_loop,
    bench_table1_chip_batch,
    bench_table1_span,
    bench_table1_drain,
    bench_device_batch,
    bench_device_straddle
);
criterion_main!(benches);
