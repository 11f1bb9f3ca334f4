//! Strict priority queuing (§VI-C, Fig. 18): a packet-processing
//! workload where adds and removes interleave at ratio R; every remove
//! takes the minimum-key packet. Baselines pay heap maintenance on both
//! operations; RIME adds with ordinary writes and removes with one
//! ranking access, which is why its throughput is flat across buffer
//! sizes and ratios (§VII-A).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rime_core::{Placement, RimeDevice, RimeError, RimePerfConfig};
use rime_memsim::perf::{Phase, Workload};
use rime_memsim::SystemConfig;
use rime_workloads::{PacketEvent, PacketStream};

use crate::rimepq::RimePriorityQueue;

/// Runs the trace on a binary heap; returns the removed keys in order.
pub fn spq_baseline(stream: &PacketStream) -> Vec<u64> {
    let mut heap: BinaryHeap<Reverse<u64>> = stream.initial.iter().map(|&k| Reverse(k)).collect();
    let mut removed = Vec::with_capacity(stream.removes());
    for event in &stream.events {
        match event {
            PacketEvent::Add(k) => heap.push(Reverse(*k)),
            PacketEvent::Remove => {
                let Reverse(k) = heap.pop().expect("trace never underflows");
                removed.push(k);
            }
        }
    }
    removed
}

/// Runs the trace on a [`RimePriorityQueue`]; returns the removed keys.
/// It loads the initial packets ([`spq_load`]), runs the events
/// ([`spq_events`]) and frees the queue.
///
/// # Errors
///
/// Propagates device errors.
pub fn spq_rime(device: &RimeDevice, stream: &PacketStream) -> Result<Vec<u64>, RimeError> {
    let mut pq = spq_load(device, stream)?;
    let removed = spq_events(device, &mut pq, stream)?;
    pq.destroy(device)?;
    Ok(removed)
}

/// A [`RimePriorityQueue`] on `device`, sized for the whole trace and
/// holding its initial packets.
///
/// # Errors
///
/// Propagates device errors.
pub fn spq_load(
    device: &RimeDevice,
    stream: &PacketStream,
) -> Result<RimePriorityQueue, RimeError> {
    let capacity = (stream.initial.len() + stream.adds()) as u64 + 1;
    let mut pq = RimePriorityQueue::new(device, capacity.max(4))?;
    for &k in &stream.initial {
        pq.push(device, k)?;
    }
    Ok(pq)
}

/// Runs the trace's events on `pq` as [`spq_load`] left it; returns the
/// removed keys.
///
/// Consecutive removes with no interleaved add are served by one batched
/// `pop_min_k` access, which amortizes select-vector setup across the
/// whole run and matches the per-remove semantics exactly (the queue is
/// untouched between the removes of a run).
///
/// # Errors
///
/// Propagates device errors.
pub fn spq_events(
    device: &RimeDevice,
    pq: &mut RimePriorityQueue,
    stream: &PacketStream,
) -> Result<Vec<u64>, RimeError> {
    let mut removed = Vec::with_capacity(stream.removes());
    let events = &stream.events;
    let mut idx = 0;
    while idx < events.len() {
        match events[idx] {
            PacketEvent::Add(k) => {
                pq.push(device, k)?;
                idx += 1;
            }
            PacketEvent::Remove => {
                let run = events[idx..]
                    .iter()
                    .take_while(|e| matches!(e, PacketEvent::Remove))
                    .count();
                let batch = pq.pop_min_k(device, run as u64)?;
                assert_eq!(batch.len(), run, "trace never underflows");
                removed.extend(batch);
                idx += run;
            }
        }
    }
    Ok(removed)
}

/// Baseline decomposition: every remove does `1 + R` heap operations,
/// each touching the below-cache heap levels of a `buffer_size` heap.
pub fn baseline_workload(
    buffer_size: u64,
    removes: u64,
    ratio: u32,
    system: &SystemConfig,
) -> Workload {
    let total_levels = (buffer_size.max(2) as f64).log2();
    let cached_levels = (system.l2_capacity_keys() as f64 / 4.0).log2();
    let below = (total_levels - cached_levels).max(0.5);
    let ops = removes * (1 + ratio as u64);
    // §VI-C: the workload uses two threads (one adding, one removing), so
    // only 2 of the modelled cores do heap work; the per-op cost is folded
    // into the cycle count (≈300 serial cycles per heap op × 16/2).
    Workload::new(vec![Phase::dependent(
        "heap maintenance",
        ops,
        2400.0,
        (ops as f64 * below) as u64 * 64,
    )])
}

/// Baseline remove-throughput in million packets per second (Fig. 18).
pub fn baseline_throughput_mkps(
    buffer_size: u64,
    removes: u64,
    ratio: u32,
    system: &SystemConfig,
) -> f64 {
    baseline_workload(buffer_size, removes, ratio, system)
        .execute(system)
        .throughput_mkps(removes)
}

/// RIME remove-throughput (million packets per second): adds are plain
/// DDR4 writes (cheap, off the critical path with two threads); removes
/// stream at the device extraction rate regardless of buffer size or R.
pub fn rime_throughput_mkps(
    buffer_size: u64,
    removes: u64,
    ratio: u32,
    perf: &RimePerfConfig,
) -> f64 {
    let adds = removes * ratio as u64;
    let write_secs = perf.load_seconds(adds, 8, Placement::Striped);
    let extract_secs = perf.stream_seconds(buffer_size.max(1), removes, Placement::Striped);
    // Two threads (§VI-C): adds overlap removes; the slower side binds.
    removes as f64 / extract_secs.max(write_secs) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use rime_core::RimeConfig;

    #[test]
    fn baseline_and_rime_agree() {
        let stream = PacketStream::generate(64, 40, 2, 81);
        let dev = RimeDevice::new(RimeConfig::small());
        assert_eq!(spq_baseline(&stream), spq_rime(&dev, &stream).unwrap());
    }

    #[test]
    fn removes_come_out_ascending_per_window() {
        // With R=1 and a pre-loaded buffer, each remove yields the current
        // global minimum, so removed keys trend upward.
        let stream = PacketStream::generate(256, 64, 1, 82);
        let removed = spq_baseline(&stream);
        assert_eq!(removed.len(), 64);
        let mut sorted = removed.clone();
        sorted.sort_unstable();
        // Not strictly sorted (new adds can be smaller), but the first
        // removal is the initial minimum.
        assert!(removed[0] <= *stream.initial.iter().min().unwrap());
        let _ = sorted;
    }

    #[test]
    fn fig18_shape_baseline_degrades_rime_flat() {
        // Fig. 18: baselines fall with buffer size and R; RIME stays flat
        // and 6.1–43.6× ahead.
        let sys = SystemConfig::off_chip(16);
        let perf = RimePerfConfig::table1();
        let removes = 1_000_000u64;

        let base_small = baseline_throughput_mkps(500_000, removes, 1, &sys);
        let base_big = baseline_throughput_mkps(65_000_000, removes, 1, &sys);
        assert!(base_big < base_small, "{base_big} vs {base_small}");

        let base_r1 = baseline_throughput_mkps(65_000_000, removes, 1, &sys);
        let base_r5 = baseline_throughput_mkps(65_000_000, removes, 5, &sys);
        assert!(base_r5 < base_r1);

        let rime_small = rime_throughput_mkps(500_000, removes, 1, &perf);
        let rime_big = rime_throughput_mkps(65_000_000, removes, 5, &perf);
        assert!(
            (rime_small - rime_big).abs() / rime_small < 0.15,
            "{rime_small} vs {rime_big}"
        );

        let gain = rime_big / base_r5;
        assert!(gain > 5.0, "gain {gain}");
    }
}
