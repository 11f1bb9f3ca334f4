//! Parallel scaling benchmark: the memoized engine (`Auto`) and the
//! persistent mat-shard pool against the sequential walk and the legacy
//! per-step `thread::scope` fan-out, plus chip-parallel executor
//! dispatch.
//!
//! **Mat level** (8/16/32/64/128 mats): batched extraction throughput
//! under `Sequential` (inline walk), `SpawnPerStep(T)` (the retired
//! default — a fresh thread scope per column-search step), `Threads(T)`
//! (the persistent pool; a whole bit-serial descent ships as *one*
//! speculative broadcast→fold round trip), and `Auto` (per-mat descents
//! memoized and folded up a tree over the span, on the calling thread).
//! `T` is fixed at 4 so the protocols are compared at the same fan-out
//! on any host. The sweep also reports the chip's *measured* pool
//! crossover next to the empirically observed one (the narrowest swept
//! width where the pool beats sequential).
//!
//! Every pool and Auto run is cross-checked against the Sequential hit
//! stream. With `--assert-pool` (the CI perf-smoke gate) the bench
//! exits nonzero on any divergence, if pool_vs_spawn drops below 2.0
//! anywhere, or if Auto runs below 2× Sequential's keys/s at 64 or 128
//! mats.
//!
//! **Chip level** (1/2/4 chips): full-device batched drain through the
//! executor, whose multi-chip prefill dispatches independent chips on
//! scoped threads with a deterministic chip-order merge. Reported as
//! keys/sec against the chip count (chips are per-command scoped
//! threads — one spawn per *chip batch*, not per step, so the spawn
//! cost is already amortized there).
//!
//! Prints a table; with `RIME_BENCH_JSON=<path>` writes a
//! machine-readable snapshot (see `BENCH_parallel_scaling.json` at the
//! repo root). Pass `--quick` for a CI-sized smoke run.

use rime_core::{RimeConfig, RimeDevice};
use rime_memristive::{Chip, ChipGeometry, Direction, KeyFormat, ParallelPolicy};
use std::time::{Duration, Instant};

/// Fixed fan-out width for the spawn-vs-pool comparison.
const FANOUT: usize = 4;

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

fn loaded_chip(mats: u16, rows: u32, policy: ParallelPolicy) -> (Chip, u64) {
    let geo = geometry(mats, rows);
    let n = geo.capacity_slots();
    let mut chip = Chip::new(geo);
    chip.set_parallel_policy(policy);
    let keys: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
    (chip, n)
}

/// Best-of-`reps` wall time for `f`, which receives a fresh clone of
/// `chip` each repetition (clone/setup — including pool spin-up, which
/// clones do not inherit — excluded from the measurement only insofar
/// as it happens before `init_range`; the first lease is part of the
/// measured session, as it would be in real use). The clone is dropped
/// *outside* the timed region: tearing a chip down joins its pool's
/// worker threads, which is shutdown cost, not extraction throughput —
/// and a cost the poolless Sequential clone never pays.
fn best_of(reps: usize, chip: &Chip, mut f: impl FnMut(&mut Chip)) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let mut fresh = chip.clone();
        let t = Instant::now();
        f(&mut fresh);
        best = best.min(t.elapsed());
        drop(fresh);
    }
    best
}

fn keys_per_sec(extracted: u64, elapsed: Duration) -> f64 {
    extracted as f64 / elapsed.as_secs_f64()
}

/// Spans (mats) from which `--assert-pool` requires Auto to run at
/// least [`AUTO_FLOOR`] times Sequential's keys/s.
const AUTO_FLOOR_MATS: u16 = 64;
const AUTO_FLOOR: f64 = 2.0;

struct MatResult {
    mats: u16,
    keys: u64,
    seq_kps: f64,
    spawn_kps: f64,
    pool_kps: f64,
    auto_kps: f64,
    /// The pool's hit stream (slots + raw bits) matched Sequential's.
    pool_matches_seq: bool,
    /// Auto's hit stream matched Sequential's.
    auto_matches_seq: bool,
}

impl MatResult {
    fn pool_vs_spawn(&self) -> f64 {
        self.pool_kps / self.spawn_kps
    }
    fn pool_vs_seq(&self) -> f64 {
        self.pool_kps / self.seq_kps
    }
    fn auto_vs_seq(&self) -> f64 {
        self.auto_kps / self.seq_kps
    }
}

fn run_mat_config(mats: u16, rows: u32, batch_k: usize, reps: usize) -> MatResult {
    let mut kps = [0.0f64; 4];
    let mut keys = 0;
    let mut hit_streams: Vec<Vec<rime_memristive::ExtractHit>> = Vec::new();
    let policies = [
        ParallelPolicy::Sequential,
        ParallelPolicy::SpawnPerStep(FANOUT),
        ParallelPolicy::Threads(FANOUT),
        ParallelPolicy::Auto,
    ];
    for (idx, policy) in policies.into_iter().enumerate() {
        let (chip, n) = loaded_chip(mats, rows, policy);
        keys = n;
        let hits = std::cell::RefCell::new(Vec::new());
        let elapsed = best_of(reps, &chip, |chip| {
            chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
            *hits.borrow_mut() =
                std::hint::black_box(chip.extract_batch(Direction::Min, batch_k).unwrap());
        });
        hit_streams.push(hits.into_inner());
        kps[idx] = keys_per_sec(batch_k as u64, elapsed);
    }
    MatResult {
        mats,
        keys,
        seq_kps: kps[0],
        spawn_kps: kps[1],
        pool_kps: kps[2],
        auto_kps: kps[3],
        pool_matches_seq: hit_streams[2] == hit_streams[0],
        auto_matches_seq: hit_streams[3] == hit_streams[0],
    }
}

struct ChipResult {
    chips: u32,
    keys: u64,
    kps: f64,
}

fn run_chip_config(chips: u32, rows: u32, batch_k: usize, reps: usize) -> ChipResult {
    let config = RimeConfig {
        channels: chips,
        chips_per_channel: 1,
        chip_geometry: geometry(8, rows),
        ..RimeConfig::small()
    };
    let total = config.total_slots();
    let keys: Vec<u64> = (0..total)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    // One batch of `batch_k` prefills every chip's candidate buffer to
    // that depth concurrently — the executor-level fan-out under test —
    // so the chip-side work grows with the chip count while the
    // measured command stays the same size.
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let dev = RimeDevice::new(config);
        dev.set_parallel_policy(ParallelPolicy::Sequential);
        let region = dev.alloc(total).unwrap();
        dev.write(region, 0, &keys).unwrap();
        let t = Instant::now();
        dev.init_all::<u64>(region).unwrap();
        std::hint::black_box(dev.rime_min_k::<u64>(region, batch_k).unwrap());
        best = best.min(t.elapsed());
    }
    ChipResult {
        chips,
        keys: total,
        kps: keys_per_sec(batch_k as u64 * u64::from(chips), best),
    }
}

/// The narrowest swept width where the pool actually beat sequential
/// (`None` if it never did) — the empirical twin of the calibrated
/// crossover.
fn observed_crossover(mat: &[MatResult]) -> Option<u16> {
    mat.iter()
        .filter(|r| r.pool_vs_seq() > 1.0)
        .map(|r| r.mats)
        .min()
}

fn write_json(
    path: &str,
    mode: &str,
    mat: &[MatResult],
    chip: &[ChipResult],
    rows: u32,
    batch_k: usize,
    measured_crossover: usize,
) {
    let mut out = String::from("{\n  \"bench\": \"parallel_scaling\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{mode}\",\n  \"fanout_threads\": {FANOUT},\n  \"mat_level\": [\n"
    ));
    for (i, r) in mat.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mats\": {}, \"keys\": {}, \"seq_kps\": {:.0}, \
             \"spawn_kps\": {:.0}, \"pool_kps\": {:.0}, \"auto_kps\": {:.0}, \
             \"pool_vs_spawn\": {:.2}, \"pool_vs_seq\": {:.2}, \
             \"auto_vs_seq\": {:.2}, \"pool_matches_seq\": {}, \
             \"auto_matches_seq\": {}}}{}\n",
            r.mats,
            r.keys,
            r.seq_kps,
            r.spawn_kps,
            r.pool_kps,
            r.auto_kps,
            r.pool_vs_spawn(),
            r.pool_vs_seq(),
            r.auto_vs_seq(),
            r.pool_matches_seq,
            r.auto_matches_seq,
            if i + 1 < mat.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"chip_level\": [\n");
    for (i, r) in chip.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"chips\": {}, \"keys\": {}, \"kps\": {:.0}}}{}\n",
            r.chips,
            r.keys,
            r.kps,
            if i + 1 < chip.len() { "," } else { "" },
        ));
    }
    // The one-shot calibration sample Auto's gate is derived from, plus
    // both crossovers (calibrated and empirically observed).
    let cal = rime_memristive::pool_calibration();
    out.push_str(&format!(
        "  ],\n  \"calibration\": {{\"round_trip_ns\": {}, \"word_picos\": {}, \
         \"crossover_mats\": {}, \"observed_crossover_mats\": {}}},\n",
        cal.round_trip_ns,
        cal.word_picos,
        measured_crossover,
        observed_crossover(mat).map_or(-1i64, i64::from),
    ));
    // One extra fully instrumented pass of the pool configuration,
    // outside any timed region: the masked (deterministic) snapshot
    // rides along for byte-stable diffs, while the unmasked pool
    // wall-clock evidence is distilled into "pool_metrics" so the
    // committed file proves the probes fired (PR-7 regression).
    let (metrics, pool_metrics) = rime_bench::instrumented_metrics_and_pool_stats(
        geometry(64, rows),
        ParallelPolicy::Threads(FANOUT),
        batch_k,
    );
    out.push_str(&format!("  \"pool_metrics\": {pool_metrics},\n"));
    out.push_str(&format!("  \"metrics\": {metrics}\n}}\n"));
    std::fs::write(path, out).expect("write bench snapshot");
    println!("snapshot written to {path}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    let assert_pool = std::env::args().any(|a| a == "--assert-pool");
    let (rows, batch_k, reps) = if quick {
        (64u32, 64usize, 2usize)
    } else {
        (512, 256, 3)
    };

    println!(
        "parallel scaling: memoized Auto and speculative pool descents vs per-step spawns \
         ({} mode, fan-out {})",
        if quick { "quick" } else { "full" },
        FANOUT,
    );
    println!(
        "{:>5} {:>8} | {:>12} {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
        "mats",
        "keys",
        "seq k/s",
        "spawn k/s",
        "pool k/s",
        "auto k/s",
        "pool/spawn",
        "pool/seq",
        "auto/seq"
    );
    let mut mat_results = Vec::new();
    for mats in [8u16, 16, 32, 64, 128] {
        let r = run_mat_config(mats, rows, batch_k, reps);
        println!(
            "{:>5} {:>8} | {:>12.0} {:>12.0} {:>12.0} {:>12.0} | {:>9.2}x {:>9.2}x {:>9.2}x{}{}",
            r.mats,
            r.keys,
            r.seq_kps,
            r.spawn_kps,
            r.pool_kps,
            r.auto_kps,
            r.pool_vs_spawn(),
            r.pool_vs_seq(),
            r.auto_vs_seq(),
            if r.pool_matches_seq {
                ""
            } else {
                "  POOL DIVERGED"
            },
            if r.auto_matches_seq {
                ""
            } else {
                "  AUTO DIVERGED"
            },
        );
        mat_results.push(r);
    }

    let measured_crossover = Chip::new(geometry(64, rows)).pool_crossover_mats();
    println!();
    match observed_crossover(&mat_results) {
        Some(m) => println!(
            "crossover: calibrated {measured_crossover} mats, pool first beats sequential at {m} mats"
        ),
        None => println!(
            "crossover: calibrated {measured_crossover} mats, pool never beat sequential in this sweep"
        ),
    }

    println!();
    println!("chip-parallel executor dispatch (8 mats per chip)");
    println!("{:>5} {:>8} | {:>14}", "chips", "keys", "extracted k/s");
    let mut chip_results = Vec::new();
    for chips in [1u32, 2, 4] {
        let r = run_chip_config(chips, rows, batch_k, reps);
        println!("{:>5} {:>8} | {:>14.0}", r.chips, r.keys, r.kps);
        chip_results.push(r);
    }

    if let Ok(path) = std::env::var("RIME_BENCH_JSON") {
        let mode = if quick { "quick" } else { "full" };
        write_json(
            &path,
            mode,
            &mat_results,
            &chip_results,
            rows,
            batch_k,
            measured_crossover,
        );
    }

    // CI perf-smoke gate: Auto's memoized engine and the pool must keep
    // their hit streams bit-identical to Sequential at every swept width;
    // the memo engine must run well ahead of the walk on wide spans, and
    // the batched-epoch protocol comfortably ahead of per-step spawning.
    if assert_pool {
        let mut failed = false;
        for r in &mat_results {
            if !r.auto_matches_seq {
                eprintln!(
                    "ASSERT: Auto hit stream diverged from Sequential at {} mats",
                    r.mats
                );
                failed = true;
            }
            if r.mats >= AUTO_FLOOR_MATS && r.auto_vs_seq() < AUTO_FLOOR {
                eprintln!(
                    "ASSERT: auto_vs_seq {:.2} < {AUTO_FLOOR} at {} mats",
                    r.auto_vs_seq(),
                    r.mats
                );
                failed = true;
            }
            if !r.pool_matches_seq {
                eprintln!(
                    "ASSERT: pool hit stream diverged from Sequential at {} mats",
                    r.mats
                );
                failed = true;
            }
            if r.pool_vs_spawn() < 2.0 {
                eprintln!(
                    "ASSERT: pool_vs_spawn {:.2} < 2.0 at {} mats",
                    r.pool_vs_spawn(),
                    r.mats
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("--assert-pool: all Auto and pool checks passed");
    }
}
