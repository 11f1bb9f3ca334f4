//! Rank, sort, merge, and merge-join operations (§III-B).
//!
//! These are thin compositions over the `rime_min`/`rime_max` primitive —
//! exactly the point of the paper's API design: once the memory can hand
//! back the next extreme of any range in O(1) bandwidth, sorting is `N`
//! repeated accesses, ranking is `k`, and merging `m` ranges costs one
//! candidate buffer per range plus CPU-side winner selection (Fig. 6,
//! Fig. 14).
//!
//! Streaming operations fetch keys through the batched
//! [`RimeDevice::rime_min_k`] / [`RimeDevice::rime_max_k`] primitives,
//! which amortize select-vector setup and H-tree traversal across a whole
//! batch of consecutive extractions. Every operation takes the device by
//! shared reference, so disjoint regions can be driven from different
//! threads concurrently (see [`merge_parallel`]).
//!
//! Like every other consumer of the device, these compositions bottom
//! out in the unified command plane ([`crate::cmd`]): each primitive
//! call lowers into one typed `Command`, so the executor's counters and
//! metrics account rank/sort/merge workloads exactly as they account
//! any front-end's commands.

use std::collections::VecDeque;

use rime_memristive::{Direction, SortableBits};

use crate::device::{Region, RimeDevice};
use crate::error::RimeError;

/// How many keys a [`SortedStream`] requests from the device per refill.
///
/// Large enough to amortize select-vector setup across the batch, small
/// enough that over-asking near exhaustion stays cheap.
const STREAM_BATCH: usize = 32;

/// Streaming handle over one initialized region, yielding keys in order.
///
/// Created by [`sorted`] / [`sorted_desc`]; call
/// [`SortedStream::try_next`] until it returns `Ok(None)`.
///
/// The stream pulls keys from the device in batches of `STREAM_BATCH`
/// and buffers them host-side, so device errors (stale region, format
/// mismatch, …) surface at refill boundaries rather than on every call.
#[derive(Debug)]
pub struct SortedStream<'d, T> {
    device: &'d RimeDevice,
    region: Region,
    direction: Direction,
    buffer: VecDeque<T>,
    exhausted: bool,
}

impl<T: SortableBits> SortedStream<'_, T> {
    /// The next key in order, or `None` when the range is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates device errors (stale region, format mismatch, …).
    pub fn try_next(&mut self) -> Result<Option<T>, RimeError> {
        if self.buffer.is_empty() && !self.exhausted {
            let batch = match self.direction {
                Direction::Min => self.device.rime_min_k::<T>(self.region, STREAM_BATCH)?,
                Direction::Max => self.device.rime_max_k::<T>(self.region, STREAM_BATCH)?,
            };
            if batch.len() < STREAM_BATCH {
                self.exhausted = true;
            }
            self.buffer.extend(batch.into_iter().map(|(_, v)| v));
        }
        Ok(self.buffer.pop_front())
    }

    /// Drains the remaining keys into a vector.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn collect_remaining(&mut self) -> Result<Vec<T>, RimeError> {
        let mut out = Vec::new();
        while let Some(v) = self.try_next()? {
            out.push(v);
        }
        Ok(out)
    }
}

impl<'d, T: SortableBits> SortedStream<'d, T> {
    /// Adapts the stream into a plain [`Iterator`] that ends on the first
    /// error, latching it for inspection via [`IterSorted::error`].
    pub fn by_ref_iter(&mut self) -> IterSorted<'_, 'd, T> {
        IterSorted {
            stream: self,
            error: None,
        }
    }
}

/// Infallible-looking iterator over a [`SortedStream`]; produced by
/// [`SortedStream::by_ref_iter`]. Errors end the iteration and are
/// latched instead of panicking.
#[derive(Debug)]
pub struct IterSorted<'s, 'd, T> {
    stream: &'s mut SortedStream<'d, T>,
    error: Option<RimeError>,
}

impl<T: SortableBits> IterSorted<'_, '_, T> {
    /// The error that ended iteration early, if any.
    pub fn error(&self) -> Option<&RimeError> {
        self.error.as_ref()
    }
}

impl<T: SortableBits> Iterator for IterSorted<'_, '_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.error.is_some() {
            return None;
        }
        match self.stream.try_next() {
            Ok(item) => item,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Begins an ascending sorted stream over the whole region
/// (initializes it first).
///
/// # Errors
///
/// Propagates [`RimeDevice::init`] errors.
///
/// # Example
///
/// ```
/// use rime_core::{ops, RimeConfig, RimeDevice};
///
/// # fn main() -> Result<(), rime_core::RimeError> {
/// let dev = RimeDevice::new(RimeConfig::small());
/// let region = dev.alloc(4)?;
/// dev.write(region, 0, &[3u32, 1, 4, 1])?;
/// let mut stream = ops::sorted::<u32>(&dev, region)?;
/// assert_eq!(stream.collect_remaining()?, vec![1, 1, 3, 4]);
/// # Ok(())
/// # }
/// ```
pub fn sorted<T: SortableBits>(
    device: &RimeDevice,
    region: Region,
) -> Result<SortedStream<'_, T>, RimeError> {
    device.init_all::<T>(region)?;
    Ok(SortedStream {
        device,
        region,
        direction: Direction::Min,
        buffer: VecDeque::new(),
        exhausted: false,
    })
}

/// Begins a descending sorted stream over the whole region.
///
/// # Errors
///
/// Propagates [`RimeDevice::init`] errors.
pub fn sorted_desc<T: SortableBits>(
    device: &RimeDevice,
    region: Region,
) -> Result<SortedStream<'_, T>, RimeError> {
    device.init_all::<T>(region)?;
    Ok(SortedStream {
        device,
        region,
        direction: Direction::Max,
        buffer: VecDeque::new(),
        exhausted: false,
    })
}

/// Sorts the whole region ascending into a vector (`N` sort accesses).
///
/// # Errors
///
/// Propagates device errors.
pub fn sort_into_vec<T: SortableBits>(
    device: &RimeDevice,
    region: Region,
) -> Result<Vec<T>, RimeError> {
    sorted::<T>(device, region)?.collect_remaining()
}

/// The `k` smallest keys of the region, ascending — one batched
/// top-k extraction (§III-B.2).
///
/// Returns fewer than `k` keys when the region holds fewer.
///
/// # Errors
///
/// Propagates device errors.
pub fn smallest_k<T: SortableBits>(
    device: &RimeDevice,
    region: Region,
    k: u64,
) -> Result<Vec<T>, RimeError> {
    device.init_all::<T>(region)?;
    Ok(device
        .rime_min_k::<T>(region, usize::try_from(k).unwrap_or(usize::MAX))?
        .into_iter()
        .map(|(_, v)| v)
        .collect())
}

/// The `k` largest keys of the region, descending.
///
/// # Errors
///
/// Propagates device errors.
pub fn largest_k<T: SortableBits>(
    device: &RimeDevice,
    region: Region,
    k: u64,
) -> Result<Vec<T>, RimeError> {
    device.init_all::<T>(region)?;
    Ok(device
        .rime_max_k::<T>(region, usize::try_from(k).unwrap_or(usize::MAX))?
        .into_iter()
        .map(|(_, v)| v)
        .collect())
}

/// The `k`-th smallest key (0-based) of the region — §III-B.2's O(k)
/// ranking operation, served by a single batched extraction.
///
/// Returns `None` when `k` is at least the region's key count.
///
/// # Errors
///
/// Propagates device errors.
pub fn kth_smallest<T: SortableBits>(
    device: &RimeDevice,
    region: Region,
    k: u64,
) -> Result<Option<T>, RimeError> {
    device.init_all::<T>(region)?;
    let want = k.saturating_add(1);
    let batch = device.rime_min_k::<T>(region, usize::try_from(want).unwrap_or(usize::MAX))?;
    if (batch.len() as u64) < want {
        return Ok(None);
    }
    Ok(batch.last().map(|&(_, v)| v))
}

/// The `k`-th largest key (0-based) of the region.
///
/// # Errors
///
/// Propagates device errors.
pub fn kth_largest<T: SortableBits>(
    device: &RimeDevice,
    region: Region,
    k: u64,
) -> Result<Option<T>, RimeError> {
    device.init_all::<T>(region)?;
    let want = k.saturating_add(1);
    let batch = device.rime_max_k::<T>(region, usize::try_from(want).unwrap_or(usize::MAX))?;
    if (batch.len() as u64) < want {
        return Ok(None);
    }
    Ok(batch.last().map(|&(_, v)| v))
}

/// Merges any number of regions into one ascending stream (Fig. 6):
/// each region supplies its running minimum; the CPU repeatedly takes the
/// global winner and refills only that region's candidate.
///
/// # Errors
///
/// Propagates device errors.
pub fn merge<T: SortableBits + PartialOrd>(
    device: &RimeDevice,
    regions: &[Region],
) -> Result<Vec<T>, RimeError> {
    for &r in regions {
        device.init_all::<T>(r)?;
    }
    let format = T::FORMAT;
    let mut candidates: Vec<Option<T>> = Vec::with_capacity(regions.len());
    for &r in regions {
        candidates.push(device.rime_min::<T>(r)?.map(|(_, v)| v));
    }
    let mut out = Vec::new();
    loop {
        let mut best: Option<usize> = None;
        for (idx, cand) in candidates.iter().enumerate() {
            if let Some(v) = cand {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let cur = candidates[b].as_ref().expect("best is set");
                        format
                            .compare_bits(v.to_raw_bits(), cur.to_raw_bits())
                            .is_lt()
                    }
                };
                if better {
                    best = Some(idx);
                }
            }
        }
        let Some(winner) = best else { break };
        let value = candidates[winner].take().expect("winner had a candidate");
        out.push(value);
        candidates[winner] = device.rime_min::<T>(regions[winner])?.map(|(_, v)| v);
    }
    Ok(out)
}

/// Merges regions like [`merge`], but drains every region on its own
/// thread through the shared device before a CPU-side k-way merge of the
/// sorted runs.
///
/// This is the Fig. 14 merge scenario with the ranges actually running
/// concurrently: each worker streams its region through the batched
/// extraction path while the others do the same. The worker count is
/// bounded by the host's parallelism — regions are striped across a
/// fixed set of workers instead of spawning one OS thread per region,
/// so a thousand-way merge costs the same handful of threads as a
/// four-way one. The output is identical to [`merge`] — ties between
/// runs resolve toward the earlier region in `regions`, matching the
/// sequential candidate-buffer walk; each worker's runs are placed back
/// by region index, so the k-way merge sees them in `regions` order
/// regardless of scheduling.
///
/// # Errors
///
/// Propagates device errors from any worker.
pub fn merge_parallel<T: SortableBits + Send>(
    device: &RimeDevice,
    regions: &[Region],
) -> Result<Vec<T>, RimeError> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(regions.len().max(1));
    merge_parallel_with_workers(device, regions, workers)
}

/// Drains one region to a sorted run via the batched extraction stream.
fn drain_region<T: SortableBits>(device: &RimeDevice, region: Region) -> Result<Vec<T>, RimeError> {
    let mut stream = SortedStream::<T> {
        device,
        region,
        direction: Direction::Min,
        buffer: VecDeque::new(),
        exhausted: false,
    };
    stream.collect_remaining()
}

/// [`merge_parallel`] with an explicit worker bound (exposed to tests so
/// the striping is exercised regardless of the host's core count).
fn merge_parallel_with_workers<T: SortableBits + Send>(
    device: &RimeDevice,
    regions: &[Region],
    workers: usize,
) -> Result<Vec<T>, RimeError> {
    for &r in regions {
        device.init_all::<T>(r)?;
    }
    let results: Vec<Result<Vec<T>, RimeError>> = if workers <= 1 || regions.len() <= 1 {
        regions.iter().map(|&r| drain_region(device, r)).collect()
    } else {
        // Stripe regions across the bounded worker set; every worker
        // tags its runs with the region index so the merge below sees
        // them in `regions` order whatever the scheduling.
        let mut slots: Vec<Option<Result<Vec<T>, RimeError>>> =
            regions.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        regions
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .map(|(idx, &region)| (idx, drain_region(device, region)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (idx, res) in handle.join().expect("merge worker panicked") {
                    slots[idx] = Some(res);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every region is striped to a worker"))
            .collect()
    };
    let mut runs = Vec::with_capacity(results.len());
    for res in results {
        runs.push(res?);
    }
    // CPU-side k-way merge of the already-sorted runs.
    let format = T::FORMAT;
    let mut cursors = vec![0usize; runs.len()];
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<usize> = None;
        for (idx, run) in runs.iter().enumerate() {
            let Some(v) = run.get(cursors[idx]) else {
                continue;
            };
            let better = match best {
                None => true,
                Some(b) => {
                    let cur = &runs[b][cursors[b]];
                    format
                        .compare_bits(v.to_raw_bits(), cur.to_raw_bits())
                        .is_lt()
                }
            };
            if better {
                best = Some(idx);
            }
        }
        let winner = best.expect("out.len() < total implies a live run");
        out.push(runs[winner][cursors[winner]]);
        cursors[winner] += 1;
    }
    Ok(out)
}

/// Merge-join (Fig. 6's `join` output): the ascending stream of keys
/// present in *both* regions; duplicate keys match pairwise, so a key
/// appearing `a` times in one region and `b` times in the other is
/// emitted `min(a, b)` times.
///
/// # Errors
///
/// Propagates device errors.
pub fn merge_join<T: SortableBits>(
    device: &RimeDevice,
    left: Region,
    right: Region,
) -> Result<Vec<T>, RimeError> {
    device.init_all::<T>(left)?;
    device.init_all::<T>(right)?;
    let format = T::FORMAT;
    let mut a = device.rime_min::<T>(left)?.map(|(_, v)| v);
    let mut b = device.rime_min::<T>(right)?.map(|(_, v)| v);
    let mut out = Vec::new();
    while let (Some(av), Some(bv)) = (&a, &b) {
        match format.compare_bits(av.to_raw_bits(), bv.to_raw_bits()) {
            std::cmp::Ordering::Less => a = device.rime_min::<T>(left)?.map(|(_, v)| v),
            std::cmp::Ordering::Greater => b = device.rime_min::<T>(right)?.map(|(_, v)| v),
            std::cmp::Ordering::Equal => {
                out.push(*av);
                a = device.rime_min::<T>(left)?.map(|(_, v)| v);
                b = device.rime_min::<T>(right)?.map(|(_, v)| v);
            }
        }
    }
    Ok(out)
}

/// Multi-way merge-join: the ascending stream of keys present in *every*
/// region (§III-B.3's "data points that exists in all input sets").
/// Duplicates match tuple-wise: a key appearing `cᵢ` times in region `i`
/// is emitted `min(cᵢ)` times.
///
/// # Errors
///
/// Propagates device errors.
pub fn merge_join_all<T: SortableBits>(
    device: &RimeDevice,
    regions: &[Region],
) -> Result<Vec<T>, RimeError> {
    if regions.is_empty() {
        return Ok(Vec::new());
    }
    for &r in regions {
        device.init_all::<T>(r)?;
    }
    let format = T::FORMAT;
    let mut heads: Vec<Option<T>> = Vec::with_capacity(regions.len());
    for &r in regions {
        heads.push(device.rime_min::<T>(r)?.map(|(_, v)| v));
    }
    let mut out = Vec::new();
    'outer: loop {
        // Find the largest head: every stream must reach it to match.
        let mut target: Option<u64> = None;
        for head in &heads {
            match head {
                None => break 'outer,
                Some(v) => {
                    let raw = v.to_raw_bits();
                    target = Some(match target {
                        None => raw,
                        Some(t) if format.compare_bits(raw, t).is_gt() => raw,
                        Some(t) => t,
                    });
                }
            }
        }
        let target = target.expect("non-empty regions have heads");
        // Advance every stream up to the target.
        let mut all_match = true;
        for (idx, &r) in regions.iter().enumerate() {
            loop {
                match &heads[idx] {
                    None => break 'outer,
                    Some(v) => {
                        let ord = format.compare_bits(v.to_raw_bits(), target);
                        if ord.is_lt() {
                            heads[idx] = device.rime_min::<T>(r)?.map(|(_, v)| v);
                        } else {
                            if ord.is_gt() {
                                all_match = false;
                            }
                            break;
                        }
                    }
                }
            }
        }
        if all_match {
            out.push(T::from_raw_bits(target));
            // Consume one instance from every stream.
            for (idx, &r) in regions.iter().enumerate() {
                heads[idx] = device.rime_min::<T>(r)?.map(|(_, v)| v);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RimeConfig;

    fn dev_with<T: SortableBits>(sets: &[&[T]]) -> (RimeDevice, Vec<Region>) {
        let dev = RimeDevice::new(RimeConfig::small());
        let mut regions = Vec::new();
        for set in sets {
            let r = dev.alloc(set.len() as u64).unwrap();
            dev.write(r, 0, set).unwrap();
            regions.push(r);
        }
        (dev, regions)
    }

    #[test]
    fn sort_into_vec_ascending() {
        let (dev, rs) = dev_with(&[&[5u32, 1, 4, 1, 3][..]]);
        assert_eq!(
            sort_into_vec::<u32>(&dev, rs[0]).unwrap(),
            vec![1, 1, 3, 4, 5]
        );
    }

    #[test]
    fn sort_spanning_multiple_stream_batches() {
        // More keys than STREAM_BATCH so the stream refills mid-sort.
        let keys: Vec<u64> = (0..100).map(|i| (i * 7919) % 541).collect();
        let (dev, rs) = dev_with(&[&keys[..]]);
        let mut want = keys;
        want.sort_unstable();
        assert_eq!(sort_into_vec::<u64>(&dev, rs[0]).unwrap(), want);
    }

    #[test]
    fn iterator_adapter_streams_and_composes() {
        let (dev, rs) = dev_with(&[&[5u32, 1, 4, 1, 3][..]]);
        let mut stream = sorted::<u32>(&dev, rs[0]).unwrap();
        let mut iter = stream.by_ref_iter();
        let first_two: Vec<u32> = iter.by_ref().take(2).collect();
        assert_eq!(first_two, vec![1, 1]);
        let rest: Vec<u32> = iter.collect();
        assert_eq!(rest, vec![3, 4, 5]);
        assert!(stream.by_ref_iter().error().is_none());
    }

    #[test]
    fn iterator_adapter_latches_errors() {
        let dev = RimeDevice::new(RimeConfig::small());
        let region = dev.alloc(2).unwrap();
        dev.write(region, 0, &[2u32, 1]).unwrap();
        let mut stream = sorted::<u32>(&dev, region).unwrap();
        let _ = stream.try_next().unwrap();
        let mut iter = stream.by_ref_iter();
        assert_eq!(iter.next(), Some(2));
        assert_eq!(iter.next(), None);
        assert!(iter.error().is_none(), "clean exhaustion has no error");
    }

    #[test]
    fn sorted_desc_descends() {
        let (dev, rs) = dev_with(&[&[5i32, -1, 4][..]]);
        let mut s = sorted_desc::<i32>(&dev, rs[0]).unwrap();
        assert_eq!(s.collect_remaining().unwrap(), vec![5, 4, -1]);
    }

    #[test]
    fn kth_statistics() {
        let (dev, rs) = dev_with(&[&[9u64, 2, 7, 4, 4][..]]);
        assert_eq!(kth_smallest::<u64>(&dev, rs[0], 0).unwrap(), Some(2));
        assert_eq!(kth_smallest::<u64>(&dev, rs[0], 2).unwrap(), Some(4));
        assert_eq!(kth_smallest::<u64>(&dev, rs[0], 4).unwrap(), Some(9));
        assert_eq!(kth_smallest::<u64>(&dev, rs[0], 5).unwrap(), None);
        assert_eq!(kth_largest::<u64>(&dev, rs[0], 0).unwrap(), Some(9));
        assert_eq!(kth_largest::<u64>(&dev, rs[0], 1).unwrap(), Some(7));
    }

    #[test]
    fn top_k_helpers() {
        let (dev, rs) = dev_with(&[&[9u64, 2, 7, 4, 4][..]]);
        assert_eq!(smallest_k::<u64>(&dev, rs[0], 3).unwrap(), vec![2, 4, 4]);
        assert_eq!(largest_k::<u64>(&dev, rs[0], 2).unwrap(), vec![9, 7]);
        // Over-asking returns everything.
        assert_eq!(
            smallest_k::<u64>(&dev, rs[0], 99).unwrap(),
            vec![2, 4, 4, 7, 9]
        );
        assert!(smallest_k::<u64>(&dev, rs[0], 0).unwrap().is_empty());
    }

    #[test]
    fn fig6_merge_example() {
        // A = {5,1,3,7,10}, B = {4,8,5} → merge = 1,3,4,5,5,7,8,10
        let (dev, rs) = dev_with(&[&[5u32, 1, 3, 7, 10][..], &[4, 8, 5][..]]);
        let merged = merge::<u32>(&dev, &rs).unwrap();
        assert_eq!(merged, vec![1, 3, 4, 5, 5, 7, 8, 10]);
    }

    #[test]
    fn fig6_join_example() {
        // join = {5}: the only key in both sets.
        let (dev, rs) = dev_with(&[&[5u32, 1, 3, 7, 10][..], &[4, 8, 5][..]]);
        let joined = merge_join::<u32>(&dev, rs[0], rs[1]).unwrap();
        assert_eq!(joined, vec![5]);
    }

    #[test]
    fn join_duplicates_match_pairwise() {
        let (dev, rs) = dev_with(&[&[2u32, 2, 2, 5][..], &[2, 2, 7][..]]);
        let joined = merge_join::<u32>(&dev, rs[0], rs[1]).unwrap();
        assert_eq!(joined, vec![2, 2]);
    }

    #[test]
    fn three_way_merge() {
        let (dev, rs) = dev_with(&[&[3u32, 9][..], &[1, 7][..], &[5, 2][..]]);
        let merged = merge::<u32>(&dev, &rs).unwrap();
        assert_eq!(merged, vec![1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn merge_of_floats_uses_total_order() {
        let (dev, rs) = dev_with(&[&[-1.5f32, 2.0][..], &[0.0, -3.25][..]]);
        let merged = merge::<f32>(&dev, &rs).unwrap();
        assert_eq!(merged, vec![-3.25, -1.5, 0.0, 2.0]);
    }

    #[test]
    fn merge_empty_region_list() {
        let dev = RimeDevice::new(RimeConfig::small());
        assert_eq!(merge::<u32>(&dev, &[]).unwrap(), Vec::<u32>::new());
        assert_eq!(merge_parallel::<u32>(&dev, &[]).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn parallel_merge_matches_sequential_merge() {
        let sets: Vec<Vec<u64>> = (0..4)
            .map(|s| {
                (0..40)
                    .map(|i| (i * 2654435761u64 + s * 97) % 733)
                    .collect()
            })
            .collect();
        let slices: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let (dev, rs) = dev_with(&slices);
        let par = merge_parallel::<u64>(&dev, &rs).unwrap();
        let seq = merge::<u64>(&dev, &rs).unwrap();
        assert_eq!(par, seq);
        let mut want: Vec<u64> = sets.into_iter().flatten().collect();
        want.sort_unstable();
        assert_eq!(par, want);
    }

    #[test]
    fn many_region_merge_stays_bounded_and_unchanged() {
        // Far more regions than any sane core count: the striped worker
        // bound must not change the output. Exercise the striping at
        // several explicit worker counts (including counts that do not
        // divide the region count) plus the host-derived default.
        let sets: Vec<Vec<u32>> = (0..24)
            .map(|s| {
                (0..6)
                    .map(|i| ((i * 2654435761u64 + s * 193) % 509) as u32)
                    .collect()
            })
            .collect();
        let slices: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let (dev, rs) = dev_with(&slices);
        let mut want: Vec<u32> = sets.into_iter().flatten().collect();
        want.sort_unstable();
        for workers in [1, 3, 7, 24, 64] {
            let got = merge_parallel_with_workers::<u32>(&dev, &rs, workers).unwrap();
            assert_eq!(got, want, "workers = {workers}");
        }
        assert_eq!(merge_parallel::<u32>(&dev, &rs).unwrap(), want);
        assert_eq!(merge::<u32>(&dev, &rs).unwrap(), want);
    }

    #[test]
    fn multiway_join_intersects_all_sets() {
        let (dev, rs) = dev_with(&[&[5u32, 1, 3, 7][..], &[4, 5, 3][..], &[3, 9, 5, 5][..]]);
        let joined = merge_join_all::<u32>(&dev, &rs).unwrap();
        assert_eq!(joined, vec![3, 5]);
    }

    #[test]
    fn multiway_join_duplicates_take_minimum_count() {
        let (dev, rs) = dev_with(&[&[2u32, 2, 2][..], &[2, 2][..], &[2, 2, 2, 2][..]]);
        let joined = merge_join_all::<u32>(&dev, &rs).unwrap();
        assert_eq!(joined, vec![2, 2]);
    }

    #[test]
    fn multiway_join_matches_pairwise_for_two_sets() {
        let (dev, rs) = dev_with(&[&[5u32, 1, 3, 7, 10][..], &[4, 8, 5][..]]);
        let multi = merge_join_all::<u32>(&dev, &rs).unwrap();
        let pair = merge_join::<u32>(&dev, rs[0], rs[1]).unwrap();
        assert_eq!(multi, pair);
    }

    #[test]
    fn multiway_join_empty_inputs() {
        let dev = RimeDevice::new(RimeConfig::small());
        assert!(merge_join_all::<u32>(&dev, &[]).unwrap().is_empty());
        let (dev, rs) = dev_with(&[&[1u32][..], &[2][..]]);
        assert!(merge_join_all::<u32>(&dev, &rs).unwrap().is_empty());
    }

    #[test]
    fn streams_over_disjoint_regions_interleave() {
        // Two regions on the same device, consumed alternately — the
        // concurrent-range support in the chips makes this legal.
        let (dev, rs) = dev_with(&[&[4u32, 2][..], &[3, 1][..]]);
        dev.init_all::<u32>(rs[0]).unwrap();
        dev.init_all::<u32>(rs[1]).unwrap();
        assert_eq!(dev.rime_min::<u32>(rs[0]).unwrap().unwrap().1, 2);
        assert_eq!(dev.rime_min::<u32>(rs[1]).unwrap().unwrap().1, 1);
        assert_eq!(dev.rime_min::<u32>(rs[0]).unwrap().unwrap().1, 4);
        assert_eq!(dev.rime_min::<u32>(rs[1]).unwrap().unwrap().1, 3);
    }
}
