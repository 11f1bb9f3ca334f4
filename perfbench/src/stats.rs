//! Statistics over raw samples: exact quantiles, the reportable tail,
//! median and quartiles over repeated runs, and open-loop lateness.
//!
//! Every figure here is computed from the raw samples themselves, never
//! from a bucketed histogram, so two runs can be compared to the last
//! digit.

/// Exact `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it. The
/// result is always one of the samples. `None` for no samples.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`: the sample at rank `n - 10`. `None`
/// with ten samples or fewer, where no tail percentile is reportable.
pub fn tail_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// The medians of several groups of samples (say, one per kind of
/// operation), averaged with each group weighed by its sample count.
/// Sorts every group in place; `None` when all are empty. Where the
/// groups' latencies differ by kind, a median over the pooled samples
/// falls in the gap between two kinds and jumps with small shifts in
/// their mix; this figure moves only as the kinds' own medians do.
pub fn weighted_median<'a>(groups: impl IntoIterator<Item = &'a mut Vec<u64>>) -> Option<f64> {
    let (mut sum, mut count) = (0.0, 0usize);
    for group in groups {
        group.sort_unstable();
        if let Some(m) = quantile(group, 0.5) {
            sum += m as f64 * group.len() as f64;
            count += group.len();
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Summary of a latency sample set, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Exact median.
    pub p50: u64,
    /// Exact 99th percentile.
    pub p99: u64,
    /// Highest percentile with at least ten samples beyond it.
    pub tail_pct: f64,
    /// Its value.
    pub tail: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencySummary {
    /// Sorts `samples` in place and summarizes them; `None` for fewer
    /// than eleven samples (no reportable tail).
    pub fn of(samples: &mut [u64]) -> Option<LatencySummary> {
        samples.sort_unstable();
        let (tail_pct, tail) = tail_percentile(samples)?;
        Some(LatencySummary {
            count: samples.len(),
            p50: quantile(samples, 0.5)?,
            p99: quantile(samples, 0.99)?,
            tail_pct,
            tail,
            max: *samples.last()?,
            mean: samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64,
        })
    }
}

/// Median and quartiles over repeated runs, computed exactly as
/// Python's `statistics.median` and `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) do, so a spread computed here
/// matches one computed by any tool that uses those functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// `None` for fewer than two values (quartiles are undefined).
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        if values.len() < 2 {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let m = n + 1;
        let cut = |i: usize| {
            // statistics.quantiles, method="exclusive": j = i·m // 4
            // clamped into [1, n-1], then interpolate by i·m − 4j.
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Some(Quartiles {
            q1: cut(1),
            median,
            q3: cut(3),
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// How late an open-loop generator ran: the delay from each request's
/// due time to its actual submission, in nanoseconds. Reported beside
/// the latency figures so a stalled generator is visible; never gated.
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    samples: Vec<u64>,
}

impl Lateness {
    /// Records one request submitted `late_ns` after it was due.
    pub fn record(&mut self, late_ns: u64) {
        self.samples.push(late_ns);
    }

    /// `(p50, p99, max)` lateness in nanoseconds; zeros when empty.
    pub fn summary(&mut self) -> (u64, u64, u64) {
        self.samples.sort_unstable();
        (
            quantile(&self.samples, 0.5).unwrap_or(0),
            quantile(&self.samples, 0.99).unwrap_or(0),
            self.samples.last().copied().unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_median_weighs_each_group_by_its_count() {
        let mut a = vec![30, 10, 20];
        let mut b = vec![1000];
        // Medians 20 (three samples) and 1000 (one).
        assert_eq!(weighted_median([&mut a, &mut b]), Some(265.0));
        assert_eq!(a, vec![10, 20, 30]);
        let mut empty: Vec<u64> = Vec::new();
        assert_eq!(weighted_median([&mut empty]), None);
    }

    #[test]
    fn quantile_is_nearest_rank_and_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), Some(50));
        assert_eq!(quantile(&s, 0.99), Some(99));
        assert_eq!(quantile(&s, 1.0), Some(100));
        assert_eq!(quantile(&s, 0.0), Some(1));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
        // Never interpolates: a two-point set answers with a sample.
        assert_eq!(quantile(&[10, 20], 0.5), Some(10));
        assert_eq!(quantile(&[10, 20], 0.51), Some(20));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let s: Vec<u64> = (1..=1000).collect();
        let (pct, v) = tail_percentile(&s).unwrap();
        assert_eq!(v, 990);
        assert!((pct - 99.0).abs() < 1e-9);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(tail_percentile(&s), Some((50.0, 10)));
        assert_eq!(tail_percentile(&s[..10]), None);
    }

    #[test]
    fn latency_summary_sorts_and_reports() {
        let mut s: Vec<u64> = (1..=200).rev().collect();
        let sum = LatencySummary::of(&mut s).unwrap();
        assert_eq!(sum.count, 200);
        assert_eq!(sum.p50, 100);
        assert_eq!(sum.p99, 198);
        assert_eq!(sum.tail, 190);
        assert_eq!(sum.max, 200);
        assert!((sum.mean - 100.5).abs() < 1e-9);
        assert!(LatencySummary::of(&mut [1, 2, 3]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        assert!(Quartiles::of(&[1.0]).is_none());
    }

    #[test]
    fn lateness_summarizes_submission_delay() {
        let mut l = Lateness::default();
        assert_eq!(l.summary(), (0, 0, 0));
        for x in [5, 1, 3, 2, 4] {
            l.record(x);
        }
        assert_eq!(l.summary(), (3, 5, 5));
    }
}
