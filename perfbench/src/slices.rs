//! Measurement slices.
//!
//! A run measures in slices of about [`SLICE`]: each slice books the
//! operations completed in it, their latencies and the process's CPU
//! time, tagged with the kind of work it measured (a loop, or a plan
//! entry). Every slice starts by timing one reference unit
//! ([`crate::speed`]) outside its own wall time, so a run times units
//! spread over the whole run. Callers start a slice only while the
//! program has no work in flight, so the unit never competes with the
//! program's own threads.

use std::time::{Duration, Instant};

use crate::host;

/// Target slice length.
pub const SLICE: Duration = Duration::from_millis(100);

/// One closed slice.
#[derive(Debug, Clone, Default)]
struct Slice {
    /// Caller-chosen tag: which loop or input the slice measured.
    kind: usize,
    wall_s: f64,
    /// Operations completed in the slice.
    work: u64,
    /// CPU seconds of the process, and of the calling thread.
    process_cpu_s: f64,
    thread_cpu_s: f64,
    latencies: Vec<u64>,
}

/// Readings at the start of the open slice.
struct Open {
    slice: Slice,
    start: Instant,
    process_cpu_s: f64,
    thread_cpu_s: f64,
}

/// What the slices of some kinds measured, summed.
#[derive(Debug, Clone, Default)]
pub struct Sum {
    pub slices: usize,
    pub wall_s: f64,
    pub work: u64,
    pub process_cpu_s: f64,
    pub thread_cpu_s: f64,
    pub latencies: Vec<u64>,
}

impl Sum {
    /// Operations per second.
    pub fn rate(&self) -> f64 {
        crate::layers::ratio(self.work as f64, self.wall_s)
    }
}

/// A run's slices.
#[derive(Default)]
pub struct Slices {
    closed: Vec<Slice>,
    open: Option<Open>,
}

impl Slices {
    /// Closes the open slice, if any, times a reference unit, and opens
    /// a slice of `kind`.
    pub fn start(&mut self, kind: usize) {
        self.stop();
        crate::speed::sample();
        self.open = Some(Open {
            slice: Slice {
                kind,
                ..Slice::default()
            },
            start: Instant::now(),
            process_cpu_s: host::process_cpu_s(),
            thread_cpu_s: host::thread_cpu_s(),
        });
    }

    /// Closes the open slice, if any; nothing is measured until the
    /// next [`Slices::start`].
    pub fn stop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let mut slice = open.slice;
        slice.wall_s = open.start.elapsed().as_secs_f64();
        slice.process_cpu_s = host::process_cpu_s() - open.process_cpu_s;
        slice.thread_cpu_s = host::thread_cpu_s() - open.thread_cpu_s;
        self.closed.push(slice);
    }

    /// Starts a new slice of the same kind once the open one is
    /// [`SLICE`] old; call it only while no work is in flight.
    pub fn tick(&mut self) {
        if let Some(open) = &self.open {
            if open.start.elapsed() >= SLICE {
                self.start(open.slice.kind);
            }
        }
    }

    /// Books `n` completed operations to the open slice.
    pub fn work(&mut self, n: u64) {
        if let Some(open) = self.open.as_mut() {
            open.slice.work += n;
        }
    }

    /// Books one latency sample to the open slice.
    pub fn latency(&mut self, ns: u64) {
        if let Some(open) = self.open.as_mut() {
            open.slice.latencies.push(ns);
        }
    }

    /// Sums the closed slices whose kind `keep` accepts.
    pub fn sum(&self, keep: impl Fn(usize) -> bool) -> Sum {
        let mut q = Sum::default();
        for s in self.closed.iter().filter(|s| keep(s.kind)) {
            q.slices += 1;
            q.wall_s += s.wall_s;
            q.work += s.work;
            q.process_cpu_s += s.process_cpu_s;
            q.thread_cpu_s += s.thread_cpu_s;
            q.latencies.extend_from_slice(&s.latencies);
        }
        q
    }

    /// Closed slices.
    pub fn len(&self) -> usize {
        self.closed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(kind: usize, work: u64, latency: u64) -> Slice {
        Slice {
            kind,
            wall_s: 0.1,
            work,
            process_cpu_s: 0.05,
            thread_cpu_s: 0.01,
            latencies: vec![latency],
        }
    }

    #[test]
    fn sums_the_slices_of_the_kinds_kept() {
        let slices = Slices {
            closed: vec![
                slice(0, 10, 1),
                slice(0, 4, 9),
                slice(1, 20, 2),
                slice(1, 30, 3),
            ],
            open: None,
        };
        let all = slices.sum(|_| true);
        assert_eq!((all.slices, all.work), (4, 64));
        assert_eq!(all.latencies, vec![1, 9, 2, 3]);
        assert!((all.rate() - 160.0).abs() < 1e-9);
        let one = slices.sum(|k| k == 1);
        assert_eq!((one.slices, one.work), (2, 50));
        let zero = slices.sum(|k| k == 0);
        assert!((zero.process_cpu_s - 0.1).abs() < 1e-12);
        assert!((zero.thread_cpu_s - 0.02).abs() < 1e-12);
    }

    #[test]
    fn a_slice_books_work_only_while_open() {
        let mut slices = Slices::default();
        slices.work(5);
        slices.start(3);
        slices.work(2);
        slices.latency(7);
        slices.stop();
        slices.work(9);
        let s = slices.sum(|k| k == 3);
        assert_eq!((slices.len(), s.work, s.latencies), (1, 2, vec![7]));
    }
}
