//! The host's speed, from a fixed reference unit.
//!
//! The reference host is a 2-vCPU virtual machine on a shared machine,
//! and it runs the same code faster or slower from one stretch of
//! minutes to the next: by 20–30% over the benchmark's own sets of
//! runs, in CPU time per operation as well as in wall time, on every
//! workload at once (even on `service_mixed`, whose work repeats exactly).
//! No statistic within a run removes a slowdown that outlasts the run.
//!
//! So a run also times a *reference unit*: fixed work of the
//! benchmark's own, never the program's, made of three parts that stand
//! for what the program spends its time on: an in-cache sort (branchy
//! compute), a pointer chase through a 2 MiB table (memory latency) and
//! a 2 MiB copy (memory bandwidth). A unit is timed at the start of
//! every measurement slice and before every set-up, on the generator
//! thread, while the program has no work in flight. The run's *host factor* is
//! the mean over the parts of each part's median time over its time on
//! the reference host ([`NOMINAL_NS`]), so each part weighs alike.
//! Timed metrics are then scaled to the reference host: durations
//! divided by the factor, rates multiplied by it. A change to the
//! program moves a scaled metric exactly as it moves the raw one; a
//! change in the host's speed moves the reference unit too and cancels.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// Keys the sort part sorts (32 KiB).
const SORT_KEYS: usize = 4096;
/// Slots of the pointer-chase table (2 MiB of `u32`), and steps per unit.
const CHASE_SLOTS: usize = 1 << 19;
const CHASE_STEPS: usize = 8192;
/// Words the copy part copies (2 MiB).
const COPY_WORDS: usize = 1 << 18;

/// Median time of each part on the reference host: sort, chase, copy.
const NOMINAL_NS: [f64; PARTS] = [85_000.0, 980_000.0, 355_000.0];
const PARTS: usize = 3;

/// Memory the reference unit keeps resident, in MiB.
pub const RESIDENT_MB: f64 =
    ((SORT_KEYS * 2 + COPY_WORDS * 2) * 8 + CHASE_SLOTS * 4) as f64 / (1024.0 * 1024.0);

/// One timed unit: ns of each part.
type Sample = [u64; PARTS];

struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    next: Vec<u32>,
    at: u32,
    from: Vec<u64>,
    to: Vec<u64>,
    samples: Vec<Sample>,
}

impl Reference {
    fn new() -> Reference {
        let mut rng = crate::Rng::new(0x5EED);
        let keys = (0..SORT_KEYS).map(|_| rng.next_u64()).collect();
        // Sattolo's shuffle: a single cycle through every slot.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            next.swap(i, rng.below(i as u64) as usize);
        }
        Reference {
            keys,
            sorted: vec![0; SORT_KEYS],
            next,
            at: 0,
            from: (0..COPY_WORDS as u64).collect(),
            to: vec![0; COPY_WORDS],
            samples: Vec::new(),
        }
    }

    fn sample(&mut self) {
        let start = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        std::hint::black_box(&self.sorted);
        let sort = ns(start);
        let start = Instant::now();
        for _ in 0..CHASE_STEPS {
            self.at = self.next[self.at as usize];
        }
        std::hint::black_box(self.at);
        let chase = ns(start);
        let start = Instant::now();
        self.to.copy_from_slice(&self.from);
        std::hint::black_box(&self.to);
        let copy = ns(start);
        self.samples.push([sort, chase, copy]);
    }

    /// Per-part medians over the samples in `units`.
    fn medians(&self, units: Range<usize>) -> Sample {
        let end = units.end.min(self.samples.len());
        let samples = &self.samples[units.start.min(end)..end];
        std::array::from_fn(|part| {
            let mut v: Vec<u64> = samples.iter().map(|s| s[part]).collect();
            v.sort_unstable();
            crate::stats::quantile(&v, 0.5).unwrap_or(0)
        })
    }
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

static REFERENCE: Mutex<Option<Reference>> = Mutex::new(None);

fn with<T>(f: impl FnOnce(&mut Reference) -> T) -> T {
    let mut guard = REFERENCE
        .lock()
        .expect("the reference unit's lock is poisoned only by a panic while timing it");
    f(guard.get_or_insert_with(Reference::new))
}

/// Times one reference unit.
pub fn sample() {
    with(Reference::sample);
}

/// The host factor over the `units` timed (by their order in the
/// process): 1.0 on the reference host, above 1.0 on a slower one.
pub fn factor(units: Range<usize>) -> f64 {
    factor_of(with(|r| r.medians(units)))
}

fn factor_of(medians: Sample) -> f64 {
    let parts = medians
        .iter()
        .zip(NOMINAL_NS)
        .map(|(&m, nominal)| m as f64 / nominal);
    parts.sum::<f64>() / NOMINAL_NS.len() as f64
}

/// How many of `units` were timed, their per-part medians and the
/// factor, as a JSON object for the record.
pub fn record(units: Range<usize>) -> String {
    let (count, medians) = with(|r| {
        let end = units.end.min(r.samples.len());
        (end.saturating_sub(units.start), r.medians(units))
    });
    crate::json::object(&[
        ("units", count.to_string()),
        ("sort_ns", medians[0].to_string()),
        ("chase_ns", medians[1].to_string()),
        ("copy_ns", medians[2].to_string()),
        ("factor", crate::json::number(factor_of(medians))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_weighs_each_part_alike() {
        assert!((factor_of([85_000, 980_000, 355_000]) - 1.0).abs() < 1e-12);
        // One part twice as slow, the others as nominal.
        assert!((factor_of([170_000, 980_000, 355_000]) - 4.0 / 3.0).abs() < 1e-12);
        assert!((factor_of([85_000, 490_000, 177_500]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_unit_times_every_part() {
        let mut r = Reference::new();
        r.sample();
        r.sample();
        assert_eq!(r.samples.len(), 2);
        assert!(r.medians(0..2).iter().all(|&m| m > 0));
        assert!(r.sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.medians(5..usize::MAX), [0; PARTS]);
    }
}
