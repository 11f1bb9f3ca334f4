//! What is left of the mat-shard pool: the crossover perfbench records.
//!
//! Extraction no longer hands mats to worker threads (see
//! [`crate::ParallelPolicy`]). What remains is the span width at which
//! such a pool would have beaten the inline walk on this host.
//! perfbench's `pool_record()`, the only caller of
//! [`crate::Chip::pool_crossover_mats`] and [`pool_calibration`], records
//! it with every run, and its `compare` mode refuses to compare runs
//! whose crossovers differ. This module goes once the benchmark stops
//! recording them (ROADMAP item 1, stage (b)).

use std::sync::mpsc::channel;
use std::sync::OnceLock;
use std::time::Instant;

use crate::bitmap::Bitmap;
use crate::geometry::ChipGeometry;

/// Clamp bounds for the crossover (mats): below 2 a pool could never win
/// (single-mat spans walk anyway), and a pathological calibration sample
/// must not push the crossover past any real span.
const CROSSOVER_MIN: usize = 2;
const CROSSOVER_MAX: usize = 1 << 20;

/// One-shot measured costs of a thread hand-off vs the bit-sliced data
/// plane, used to price the crossover
/// ([`crate::Chip::pool_crossover_mats`]). Measured once per process
/// (see [`pool_calibration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCalibration {
    /// Best-case round-trip latency to a parked helper thread over a
    /// channel pair, in nanoseconds (≥ 1).
    pub round_trip_ns: u64,
    /// Cost of one 64-bit word of select-vector AND work, in
    /// picoseconds (≥ 1).
    pub word_picos: u64,
}

/// Measures (once per process) the round-trip latency to a helper thread
/// and the per-word cost of the bit-sliced kernels. Both are wall-clock
/// measurements and therefore nondeterministic; the crossover derived
/// from them is reported, never part of a result.
pub fn pool_calibration() -> PoolCalibration {
    static CAL: OnceLock<PoolCalibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Control plane: minimum of 64 ping-pongs with one spawned
        // thread (min, not mean, so scheduler noise is excluded).
        let (ping, pings) = channel::<u64>();
        let (pong, pongs) = channel::<u64>();
        let echo = std::thread::spawn(move || {
            for n in pings {
                if pong.send(n).is_err() {
                    break;
                }
            }
        });
        let mut best = u64::MAX;
        for n in 0..64 {
            let t = Instant::now();
            ping.send(n).expect("echo thread is alive");
            std::hint::black_box(pongs.recv().expect("echo thread replies"));
            best = best.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        // Closing the channel is the exit signal.
        drop(ping);
        echo.join()
            .expect("echo thread exits when its channel closes");
        // Data plane: words/sec of the exclusion kernel over a select
        // vector big enough to dwarf loop overhead.
        const BITS: usize = 1 << 16;
        const REPS: u64 = 64;
        let mut a = Bitmap::ones(BITS);
        let b = Bitmap::ones(BITS);
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(&mut a).and_assign(std::hint::black_box(&b));
        }
        let total_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let words = REPS * (BITS as u64 / 64);
        PoolCalibration {
            round_trip_ns: best.max(1),
            word_picos: (total_ns.saturating_mul(1000) / words).max(1),
        }
    })
}

/// The crossover of a chip of `geometry` on a host with `threads`
/// hardware threads: `RIME_POOL_CROSSOVER=<mats>` if it parses, else the
/// priced calibration, clamped to `[2, 2^20]`.
pub(crate) fn crossover_mats(geometry: &ChipGeometry, threads: usize) -> usize {
    std::env::var("RIME_POOL_CROSSOVER")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or_else(|| priced_crossover(geometry, threads))
        .clamp(CROSSOVER_MIN, CROSSOVER_MAX)
}

/// Prices a pooled descent against the inline walk from the calibration
/// sample: it costs one round trip and saves the host
/// `(threads-1)/threads` of the span's per-mat step work, so it wins once
/// `mats × steps × per_mat_step × (threads-1)/threads > round_trip`.
fn priced_crossover(geometry: &ChipGeometry, threads: usize) -> usize {
    let cal = pool_calibration();
    let words_per_mat = u64::from(geometry.arrays_per_mat) * u64::from(geometry.rows).div_ceil(64);
    // Each step touches every select word twice (sense + exclusion).
    let per_mat_step_ps = 2 * words_per_mat * cal.word_picos;
    let threads = threads.max(2) as u64;
    // A full-width descent (64 steps) is the unit the round trip is
    // amortized over.
    let saved_per_mat_ps = 64 * per_mat_step_ps * (threads - 1) / threads;
    (cal.round_trip_ns.saturating_mul(1000))
        .div_ceil(saved_per_mat_ps.max(1))
        .try_into()
        .unwrap_or(CROSSOVER_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_stable() {
        let a = pool_calibration();
        let b = pool_calibration();
        assert!(a.round_trip_ns >= 1 && a.word_picos >= 1);
        assert_eq!(a, b, "per-process calibration must be cached");
    }
}
