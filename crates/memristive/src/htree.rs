//! The bidirectional data/index H-tree (§IV-B.2, Figs. 10 & 11).
//!
//! Unlike a conventional address tree, RIME's tree carries information in
//! both directions:
//!
//! * **Upstream — index reduction (Fig. 10):** after a min/max computation,
//!   each mat raises `E` (it contains the extreme value) with an initial
//!   index `A`; every tree node combines its children as
//!   `Eₙ = E₀ ∨ E₁`, `Aₙ = (E₀ ∧ E₁ ? 0,A₀ : E₀ ? 0,A₀ : 1,A₁)` — i.e. a
//!   priority encoder that always prefers the lower-address child, which is
//!   what makes RIME's sort *stable*.
//! * **Downstream — select-vector initialization (Fig. 11):** `begin`/`end`
//!   of an address range flow root-to-leaves, pruning branches entirely
//!   below/above the range; surviving leaves latch select bits for the
//!   rows inside the range.
//!
//! [`IndexTree`] implements both walks over the chip's mats and counts node
//! visits for the performance layer.

use std::ops::RangeInclusive;

/// The H-tree over a chip's mats.
///
/// # Example
///
/// ```
/// use rime_memristive::IndexTree;
///
/// let mut tree = IndexTree::new(4, 8); // 4 mats × 8 slots
/// // Mats 1 and 3 contain the min, at local rows 5 and 0.
/// let global = tree.reduce(&[None, Some(5), None, Some(0)]);
/// assert_eq!(global, Some(13)); // lowest address wins: mat 1, slot 5
/// ```
#[derive(Debug, Clone)]
pub struct IndexTree {
    n_mats: usize,
    slots_per_mat: u64,
    node_visits: u64,
}

impl IndexTree {
    /// Builds a tree over `n_mats` leaves, each owning `slots_per_mat`
    /// key slots.
    ///
    /// # Panics
    ///
    /// Panics if `n_mats` or `slots_per_mat` is zero.
    pub fn new(n_mats: usize, slots_per_mat: u64) -> IndexTree {
        assert!(n_mats > 0, "tree needs at least one mat");
        assert!(slots_per_mat > 0, "mats need at least one slot");
        IndexTree {
            n_mats,
            slots_per_mat,
            node_visits: 0,
        }
    }

    /// Number of leaf mats.
    pub fn n_mats(&self) -> usize {
        self.n_mats
    }

    /// Cumulative node visits across all walks (performance accounting).
    pub fn node_visits(&self) -> u64 {
        self.node_visits
    }

    /// Resets the visit counter.
    pub fn reset_visits(&mut self) {
        self.node_visits = 0;
    }

    /// Upstream index reduction: given each mat's lowest selected local
    /// slot (`None` when the mat holds no extreme value), returns the
    /// global slot of the winner — the lowest-addressed extreme value.
    pub fn reduce(&mut self, leaf_hits: &[Option<u32>]) -> Option<u64> {
        assert_eq!(leaf_hits.len(), self.n_mats, "one hit slot per mat");
        self.reduce_window(0..=self.n_mats - 1, |mat| leaf_hits[mat])
    }

    /// Upstream index reduction over the leaves in `window` only: every
    /// mat outside it is taken to raise no `E`, so branches wholly
    /// outside the window are pruned like Fig. 11's downstream walk and
    /// `leaf_hit` is asked only for in-window mats. Equal to
    /// [`IndexTree::reduce`] over the full leaf vector with `None`
    /// outside the window (the same lowest-address priority).
    ///
    /// # Panics
    ///
    /// Panics if the window reaches past the last mat.
    pub(crate) fn reduce_window(
        &mut self,
        window: RangeInclusive<usize>,
        mut leaf_hit: impl FnMut(usize) -> Option<u32>,
    ) -> Option<u64> {
        assert!(*window.end() < self.n_mats, "window past the last mat");
        self.reduce_span(&window, &mut leaf_hit, 0, self.n_mats)
    }

    fn reduce_span(
        &mut self,
        window: &RangeInclusive<usize>,
        leaf_hit: &mut impl FnMut(usize) -> Option<u32>,
        lo: usize,
        hi: usize,
    ) -> Option<u64> {
        self.node_visits += 1;
        if hi <= *window.start() || lo > *window.end() {
            return None; // pruned branch
        }
        if hi - lo == 1 {
            return leaf_hit(lo).map(|row| lo as u64 * self.slots_per_mat + row as u64);
        }
        let mid = lo + (hi - lo).div_ceil(2);
        // E₀ has priority: the lower-address child wins ties.
        match self.reduce_span(window, leaf_hit, lo, mid) {
            Some(idx) => Some(idx),
            None => self.reduce_span(window, leaf_hit, mid, hi),
        }
    }

    /// Downstream select-vector initialization: intersects the global slot
    /// range `[begin, end)` with each mat and returns, per touched mat,
    /// the local slot sub-range to latch. Branches fully outside the range
    /// are pruned without visiting their subtrees (Fig. 11).
    pub fn init_range(&mut self, begin: u64, end: u64) -> Vec<MatRange> {
        let mut out = Vec::new();
        self.init_span(begin, end, 0, self.n_mats, &mut out);
        out
    }

    fn init_span(&mut self, begin: u64, end: u64, lo: usize, hi: usize, out: &mut Vec<MatRange>) {
        self.node_visits += 1;
        let span_begin = lo as u64 * self.slots_per_mat;
        let span_end = hi as u64 * self.slots_per_mat;
        if end <= span_begin || begin >= span_end {
            return; // pruned branch
        }
        if hi - lo == 1 {
            let local_start = begin.saturating_sub(span_begin).min(self.slots_per_mat) as u32;
            let local_end = (end.min(span_end) - span_begin) as u32;
            if local_start < local_end {
                out.push(MatRange {
                    mat: lo as u32,
                    start: local_start,
                    end: local_end,
                });
            }
            return;
        }
        let mid = lo + (hi - lo).div_ceil(2);
        self.init_span(begin, end, lo, mid, out);
        self.init_span(begin, end, mid, hi, out);
    }
}

/// A per-mat slice of a global initialization range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatRange {
    /// Mat index within the chip.
    pub mat: u32,
    /// First local slot inside the range.
    pub start: u32,
    /// One past the last local slot inside the range.
    pub end: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_prefers_lowest_mat() {
        let mut tree = IndexTree::new(4, 8);
        assert_eq!(tree.reduce(&[None, Some(5), None, Some(0)]), Some(13));
        assert_eq!(tree.reduce(&[Some(7), Some(0), Some(0), Some(0)]), Some(7));
        assert_eq!(tree.reduce(&[None, None, None, None]), None);
    }

    #[test]
    fn reduce_single_mat() {
        let mut tree = IndexTree::new(1, 16);
        assert_eq!(tree.reduce(&[Some(3)]), Some(3));
        assert_eq!(tree.reduce(&[None]), None);
    }

    #[test]
    fn reduce_non_power_of_two_mats() {
        let mut tree = IndexTree::new(3, 4);
        assert_eq!(tree.reduce(&[None, None, Some(2)]), Some(10));
        assert_eq!(tree.reduce(&[None, Some(1), Some(0)]), Some(5));
    }

    #[test]
    fn windowed_reduce_equals_full_reduce_with_none_outside() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        // 13 mats: not a power of two, so the tree's halves are uneven.
        const MATS: usize = 13;
        let mut rng = StdRng::seed_from_u64(0x5eed_0f10);
        let mut windowed = IndexTree::new(MATS, 8);
        let mut full = IndexTree::new(MATS, 8);
        let mut windows = vec![(0, 0), (0, MATS - 1), (MATS - 1, MATS - 1), (0, 4), (9, 12)];
        for _ in 0..200 {
            let first = rng.gen_range(0..MATS);
            windows.push((first, rng.gen_range(first..MATS)));
        }
        for (first, last) in windows {
            for _ in 0..8 {
                // Sparse hits so the winner is often deep in the window,
                // and stale hits outside it that the window must ignore.
                let hits: Vec<Option<u32>> = (0..MATS)
                    .map(|_| rng.gen_bool(0.3).then(|| rng.gen_range(0..8u32)))
                    .collect();
                let masked: Vec<Option<u32>> = (0..MATS)
                    .map(|m| {
                        if (first..=last).contains(&m) {
                            hits[m]
                        } else {
                            None
                        }
                    })
                    .collect();
                let got = windowed.reduce_window(first..=last, |m| {
                    assert!((first..=last).contains(&m), "leaf {m} outside the window");
                    hits[m]
                });
                assert_eq!(
                    got,
                    full.reduce(&masked),
                    "window {first}..={last}, hits {hits:?}"
                );
            }
        }
    }

    #[test]
    fn fig10_example_sixteen_arrays() {
        // Fig. 10: 16 arrays across 4 mats; arrays 2, 7, 12 hold the value.
        // With one slot per "array-leaf", the reduced index is array 2.
        let mut tree = IndexTree::new(16, 1);
        let mut hits = vec![None; 16];
        for idx in [2usize, 7, 12] {
            hits[idx] = Some(0);
        }
        assert_eq!(tree.reduce(&hits), Some(2));
    }

    #[test]
    fn fig11_range_init() {
        // Fig. 11: range [5, 10] inclusive over 16 slots (4 mats × 4).
        let mut tree = IndexTree::new(4, 4);
        let ranges = tree.init_range(5, 11);
        assert_eq!(
            ranges,
            vec![
                MatRange {
                    mat: 1,
                    start: 1,
                    end: 4
                },
                MatRange {
                    mat: 2,
                    start: 0,
                    end: 3
                },
            ]
        );
    }

    #[test]
    fn init_range_single_mat_interior() {
        let mut tree = IndexTree::new(4, 8);
        let ranges = tree.init_range(10, 12);
        assert_eq!(
            ranges,
            vec![MatRange {
                mat: 1,
                start: 2,
                end: 4
            }]
        );
    }

    #[test]
    fn init_range_prunes_outside_branches() {
        let mut tree = IndexTree::new(8, 4);
        tree.reset_visits();
        let ranges = tree.init_range(0, 4); // only mat 0
        assert_eq!(ranges.len(), 1);
        // Visits: root + one node per level on the left spine, far fewer
        // than the 15 nodes of the full tree.
        assert!(tree.node_visits() < 8, "visits = {}", tree.node_visits());
    }

    #[test]
    fn init_range_full_span() {
        let mut tree = IndexTree::new(3, 4);
        let ranges = tree.init_range(0, 12);
        assert_eq!(ranges.len(), 3);
        assert!(ranges.iter().all(|r| r.start == 0 && r.end == 4));
    }

    #[test]
    fn visits_accumulate_and_reset() {
        let mut tree = IndexTree::new(4, 4);
        let _ = tree.reduce(&[Some(0), None, None, None]);
        assert!(tree.node_visits() > 0);
        tree.reset_visits();
        assert_eq!(tree.node_visits(), 0);
    }

    #[test]
    #[should_panic(expected = "one hit slot per mat")]
    fn reduce_wrong_arity_panics() {
        IndexTree::new(4, 4).reduce(&[None, None]);
    }
}
