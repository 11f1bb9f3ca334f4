//! Criterion bench: the graph applications (Fig. 17's code paths).
//!
//! `dijkstra_queue_table1` is an ungated queue probe: functional
//! `dijkstra_rime` on a Table I device over
//! `Graph::random_connected(E/8, E, 7)` at E = 2Ki and 128Ki. Every pop
//! re-initializes the queue's region and extracts one key, so host time
//! per extraction shows how the queue's cost grows with its size. Each
//! run builds a fresh device; runs repeat until at least three have run
//! and half a second has passed, and the best one is printed in µs per
//! extraction (wall time over the device's extraction count). Every
//! run's distances are checked against `dijkstra_baseline`.

use criterion::{criterion_group, criterion_main, Criterion};
use rime_apps::{astar, dijkstra, kruskal, prim};
use rime_core::{RimeConfig, RimeDevice};
use rime_workloads::{Graph, ObstacleGrid};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_mst(c: &mut Criterion) {
    let graph = Graph::random_connected(300, 2_000, 21);
    let mut group = c.benchmark_group("mst");
    group.bench_function("kruskal_baseline", |b| {
        b.iter(|| black_box(kruskal::kruskal_baseline(&graph)))
    });
    group.bench_function("prim_baseline", |b| {
        b.iter(|| black_box(prim::prim_baseline(&graph)))
    });
    group.bench_function("kruskal_rime_functional", |b| {
        b.iter(|| {
            let dev = RimeDevice::new(RimeConfig::small());
            black_box(kruskal::kruskal_rime(&dev, &graph).unwrap())
        })
    });
    group.finish();
}

fn bench_paths(c: &mut Criterion) {
    let graph = Graph::random_connected(400, 2_400, 22);
    let grid = ObstacleGrid::random(40, 40, 0.25, 23);
    let mut group = c.benchmark_group("paths");
    group.bench_function("dijkstra_baseline", |b| {
        b.iter(|| black_box(dijkstra::dijkstra_baseline(&graph, 0)))
    });
    group.bench_function("astar_baseline", |b| {
        b.iter(|| black_box(astar::astar_baseline(&grid)))
    });
    group.bench_function("astar_rime_functional", |b| {
        b.iter(|| {
            let dev = RimeDevice::new(RimeConfig::small());
            black_box(astar::astar_rime(&dev, &grid).unwrap())
        })
    });
    group.finish();
}

/// Queue-probe runs per size: at least this many, and at least
/// [`PROBE_BUDGET`] of them.
const PROBE_RUNS: usize = 3;
const PROBE_BUDGET: Duration = Duration::from_millis(500);

fn bench_dijkstra_queue(_c: &mut Criterion) {
    for edges in [2usize << 10, 128 << 10] {
        let graph = Graph::random_connected((edges / 8) as u32, edges, 7);
        let want = dijkstra::dijkstra_baseline(&graph, 0);
        let (mut best, mut spent, mut runs) = (Duration::MAX, Duration::ZERO, 0);
        let mut extractions = 0;
        while runs < PROBE_RUNS || spent < PROBE_BUDGET {
            let dev = RimeDevice::new(RimeConfig::table1());
            let t = Instant::now();
            let got = black_box(dijkstra::dijkstra_rime(&dev, &graph, 0).unwrap());
            let took = t.elapsed();
            (best, spent, runs) = (best.min(took), spent + took, runs + 1);
            assert_eq!(
                got, want,
                "dijkstra_rime disagrees with the baseline at E = {edges}"
            );
            extractions = dev.counters().extractions;
        }
        println!(
            "dijkstra_queue_table1/E={edges}: {:.1} µs per extraction ({extractions} extractions, best of {runs})",
            best.as_secs_f64() * 1e6 / extractions as f64
        );
    }
}

criterion_group!(benches, bench_mst, bench_paths, bench_dijkstra_queue);
criterion_main!(benches);
