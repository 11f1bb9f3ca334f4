//! Criterion bench: strict priority queue (Fig. 18's code paths) —
//! binary heap vs the RIME-backed queue, across add:remove ratios.
//!
//! `spq_queue_table1` is an ungated queue probe: functional SPQ on a
//! Table I device with 4096 removes and R = 2, at 2Ki and 128Ki initial
//! packets, so host time per remove shows how the queue's cost grows
//! with its size. Each run builds a fresh device and loads the initial
//! packets (`spq_load`) untimed, then times the event loop alone
//! (`spq_events`: the removes and the adds between them). Runs repeat
//! until at least three have run and half a second of event loops has
//! passed, and the best one is printed in µs per remove. Every run's
//! output is checked against `spq_baseline`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rime_apps::spq;
use rime_core::{RimeConfig, RimeDevice};
use rime_workloads::PacketStream;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Removes per queue-probe stream.
const PROBE_REMOVES: usize = 4096;
/// Queue-probe runs per size: at least this many, and at least
/// [`PROBE_BUDGET`] of them.
const PROBE_RUNS: usize = 3;
const PROBE_BUDGET: Duration = Duration::from_millis(500);

fn bench_spq(c: &mut Criterion) {
    let mut group = c.benchmark_group("spq");
    for ratio in [1u32, 3, 5] {
        let stream = PacketStream::generate(256, 128, ratio, 31 + ratio as u64);
        group.bench_with_input(BenchmarkId::new("heap", ratio), &stream, |b, s| {
            b.iter(|| black_box(spq::spq_baseline(s)))
        });
        group.bench_with_input(
            BenchmarkId::new("rime_functional", ratio),
            &stream,
            |b, s| {
                b.iter(|| {
                    let dev = RimeDevice::new(RimeConfig::small());
                    black_box(spq::spq_rime(&dev, s).unwrap())
                })
            },
        );
    }
    group.finish();
}

fn bench_spq_queue(_c: &mut Criterion) {
    for initial in [2usize << 10, 128 << 10] {
        let stream = PacketStream::generate(initial, PROBE_REMOVES, 2, 41);
        let want = spq::spq_baseline(&stream);
        let (mut best, mut spent, mut runs) = (Duration::MAX, Duration::ZERO, 0);
        while runs < PROBE_RUNS || spent < PROBE_BUDGET {
            let dev = RimeDevice::new(RimeConfig::table1());
            let mut pq = spq::spq_load(&dev, &stream).unwrap();
            let t = Instant::now();
            let got = black_box(spq::spq_events(&dev, &mut pq, &stream).unwrap());
            let took = t.elapsed();
            (best, spent, runs) = (best.min(took), spent + took, runs + 1);
            assert_eq!(
                got, want,
                "spq_rime disagrees with the baseline at {initial} packets"
            );
        }
        println!(
            "spq_queue_table1/initial={initial}: {:.1} µs per remove ({PROBE_REMOVES} removes, R = 2, loading untimed, best of {runs})",
            best.as_secs_f64() * 1e6 / PROBE_REMOVES as f64
        );
    }
}

criterion_group!(benches, bench_spq, bench_spq_queue);
criterion_main!(benches);
