//! Memoized descent engine: host work per extracted key follows one mat
//! and the H-tree depth, not the range's span (§IV-B.2, Figs. 9/10).
//!
//! The chip controller senses every mat of a range at once and wire-ORs
//! the two search signals up the H-tree, so hardware pays a fixed number
//! of column steps per key however many mats the range spans. The
//! sequential walk instead senses every span mat at every step. This
//! engine ([`MemoTree`], behind [`crate::ParallelPolicy::Auto`]) keeps,
//! for the length of one extraction call:
//!
//! - one **leaf trace** per span mat: the mat's whole bit-serial descent
//!   run as if the mat were the entire range. It is a pure function of
//!   the mat's cells, its membership window and the plan.
//! - one **merged trace** per internal node of a binary tree over the
//!   span (lower addresses in the left child, Fig. 10's priority): the
//!   descent of the node's mats run as if they were the entire range,
//!   folded from its two children.
//!
//! Extracting a key clears one membership bit, which changes one leaf.
//! So after the first key only the previous winner's mat re-runs its
//! descent and only its `log2(span)` ancestors re-merge: per key the host
//! does `O(steps × (rows/64 + log2 span))` work where the walk does
//! `O(steps × span × rows/64)`. Steps, active-mat senses, exclusions
//! with their removed rows, and the winner's slot and raw bits all come
//! from the root, which is the span's own descent.
//!
//! # A trace
//!
//! Per step `s`, a subtree's trace records its wire-ORed `any_one` and
//! `any_zero` signals, the mats with a nonempty selection, and the rows
//! its exclusion removed. A step excludes exactly when both signals are
//! raised, so no decision bits are stored. Once the subtree is down to
//! one survivor no exclusion can fire: a lone row senses its own stored
//! bit at every later column. The trace keeps going past that collapse
//! anyway, with that row's bits, so every trace covers all `steps` and
//! has the same shape at a leaf and at the root. The trace also names
//! its lowest-address survivor after the last step.
//!
//! # Why a merge is exact
//!
//! A merge folds two children the way the sequential walk would see
//! their union, step by step, while the union holds more than one row.
//! Invariant: at every step each child is either **in sync** (its
//! recorded selection equals the union's surviving set restricted to
//! the child) or **dead** (that restriction is empty, and the merge
//! ignores everything the child recorded afterwards). An in-sync
//! child's signals are exactly its share of the union's wired OR, so
//! the merged signals are exact. At a step where the union excludes,
//! an alive child is in one of three cases:
//!
//! * **Mixed** (both signals raised): the child excluded too, and with
//!   the same keep bit. Keep bits depend on the signals only through the
//!   float sign step's survivor polarity, and an alive child's polarity
//!   equals the union's (a child whose polarity would differ is uniform
//!   in the discarded sign and dies there). Exclusion (`select &= col`)
//!   depends only on the keep bit, so the child removed exactly the
//!   union's victims inside it and stays in sync.
//! * **Uniform in the kept bit**: neither the union nor the child
//!   removes anything from the child; it stays in sync.
//! * **Uniform in the discarded bit**: the union removes every survivor
//!   the child holds. The child **dies**; its tracked remaining count is
//!   the rows removed.
//!
//! At a step where the union does not exclude, every alive child saw a
//! uniform column too, so neither excluded. By induction the merged
//! trace equals the union's own descent, and a merged trace can be
//! merged again. Past the union's collapse the one alive child holds the
//! lone survivor, and is itself collapsed, so its trace is the union's
//! continuation. The union's lowest-address survivor lies in its
//! lower-address alive child.
//!
//! Nothing in the argument depends on how the span is split: it holds
//! for any partition into disjoint parts, so the power-of-two tree is
//! only the shape that makes a dirty leaf cost `log2(span)` merges.

use crate::mat::Mat;
use crate::plan::SearchPlan;

/// Key widths never exceed 64 bits, so per-step records fit fixed
/// arrays (and bit `s` of a `u64` stands for step `s`).
const MAX_STEPS: usize = 64;

/// A subtree's lowest-address survivor after its descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Survivor {
    /// Key slot, counted from the span's first slot.
    pub slot: u64,
    /// The stored (effective, post-fault) bits.
    pub raw: u64,
}

/// One subtree's whole descent, run as if its mats were the whole range.
#[derive(Clone)]
struct Trace {
    /// Bit `s`: some selected cell held 1 at step `s`.
    one: u64,
    /// Bit `s`: some selected cell held 0 at step `s`.
    zero: u64,
    /// Rows selected when the descent starts.
    selected: u64,
    /// Mats with a nonempty selection at each step.
    active: [u32; MAX_STEPS],
    /// Rows removed at each step (0 unless both signals were raised).
    removed: [u64; MAX_STEPS],
    /// Lowest-address survivor (`None` for an empty subtree).
    survivor: Option<Survivor>,
}

impl Trace {
    const EMPTY: Trace = Trace {
        one: 0,
        zero: 0,
        selected: 0,
        active: [0; MAX_STEPS],
        removed: [0; MAX_STEPS],
        survivor: None,
    };

    /// Runs `mat`'s descent (its select latches hold its membership
    /// window; `base` is its first slot within the span). Physical
    /// stepping stops at the local collapse; the rest of the trace is
    /// the survivor's own bits, read once.
    fn speculate(&mut self, mat: &mut Mat, plan: &SearchPlan, scalar: bool, base: u64) {
        *self = Trace::EMPTY;
        let mut running = mat.selected_count() as u64;
        if running == 0 {
            return;
        }
        self.selected = running;
        let steps = plan.steps();
        let mut survivors_negative = false;
        let mut step = 0u16;
        while step < steps && running > 1 {
            let pos = plan.position(step);
            let signals = mat.sense(pos, scalar);
            self.one |= u64::from(signals.any_one) << step;
            self.zero |= u64::from(signals.any_zero) << step;
            if plan.is_sign_step(step) {
                survivors_negative = plan.survivors_negative(signals.any_one, signals.any_zero);
            }
            if !signals.all_same() {
                let removed = mat.exclude(pos, plan.keep_bit(step, survivors_negative), scalar);
                self.removed[step as usize] = removed;
                running -= removed;
            }
            step += 1;
        }
        self.active[..steps as usize].fill(1);
        let first = mat
            .first_selected()
            .expect("a descent keeps at least one row");
        let raw = mat.read_slot(first);
        // Bit `s` of `by_step` is the raw bit that step `s` senses.
        let by_step = raw.reverse_bits() >> (MAX_STEPS - steps as usize);
        let tail = step_mask(steps) & !step_mask(step);
        self.one |= by_step & tail;
        self.zero |= !by_step & tail;
        self.survivor = Some(Survivor {
            slot: base + u64::from(first),
            raw,
        });
    }

    /// Folds two adjacent subtrees into their union's descent; `lo`
    /// holds the lower addresses. See the module docs for why it is
    /// exact.
    fn merge(&mut self, lo: &Trace, hi: &Trace, plan: &SearchPlan) {
        if hi.selected == 0 {
            self.clone_from(lo);
            return;
        }
        if lo.selected == 0 {
            self.clone_from(hi);
            return;
        }
        let kids = [lo, hi];
        let mut remaining = [lo.selected, hi.selected];
        let mut alive = [true, true];
        let mut total = lo.selected + hi.selected;
        self.selected = total;
        self.one = 0;
        self.zero = 0;
        let steps = plan.steps();
        let mut survivors_negative = false;
        let mut step = 0u16;
        while step < steps && total > 1 {
            let s = step as usize;
            let bit = 1u64 << step;
            let (mut one, mut zero, mut active) = (0u64, 0u64, 0u32);
            for (kid, _) in kids.iter().zip(alive).filter(|(_, alive)| *alive) {
                one |= kid.one;
                zero |= kid.zero;
                active += kid.active[s];
            }
            let (any_one, any_zero) = (one & bit != 0, zero & bit != 0);
            self.one |= one & bit;
            self.zero |= zero & bit;
            self.active[s] = active;
            if plan.is_sign_step(step) {
                survivors_negative = plan.survivors_negative(any_one, any_zero);
            }
            let mut removed = 0;
            if any_one && any_zero {
                let keep = plan.keep_bit(step, survivors_negative);
                for (c, kid) in kids.iter().enumerate() {
                    if !alive[c] {
                        continue;
                    }
                    if kid.one & kid.zero & bit != 0 {
                        removed += kid.removed[s];
                        remaining[c] -= kid.removed[s];
                    } else if (kid.one & bit != 0) != keep {
                        removed += remaining[c];
                        alive[c] = false;
                    }
                }
                total -= removed;
            }
            self.removed[s] = removed;
            step += 1;
        }
        if step < steps {
            // Collapsed: the one alive child holds the lone survivor and
            // its trace continues the union's.
            let kid = kids[usize::from(!alive[0])];
            let tail = step_mask(steps) & !step_mask(step);
            self.one |= kid.one & tail;
            self.zero |= kid.zero & tail;
            let rest = step as usize..steps as usize;
            self.active[rest.clone()].copy_from_slice(&kid.active[rest.clone()]);
            self.removed[rest.clone()].copy_from_slice(&kid.removed[rest]);
        }
        self.survivor = if alive[0] { lo.survivor } else { hi.survivor };
    }
}

/// Bits `0..steps` set.
fn step_mask(steps: u16) -> u64 {
    if steps as usize >= MAX_STEPS {
        u64::MAX
    } else {
        (1u64 << steps) - 1
    }
}

/// What the span's descent did for one key, read from the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Descent {
    /// Column-search steps executed (the walk stops at one survivor).
    pub steps: u16,
    /// Active-mat senses summed over those steps.
    pub mat_searches: u64,
    /// Exclusions performed.
    pub exclusions: u64,
    /// The winner: the lowest-address survivor.
    pub winner: Survivor,
}

/// The per-call trace cache over one span: leaf `i` is span mat `i`,
/// padded with empty leaves to a power of two, and node `n` (heap order,
/// root 1) merges nodes `2n` and `2n + 1`. Sized by the span only.
pub(crate) struct MemoTree {
    plan: SearchPlan,
    /// Leaves, a power of two ≥ the span's mats.
    leaves: usize,
    /// Heap-ordered traces; index 0 is unused.
    nodes: Vec<Trace>,
}

impl MemoTree {
    /// An empty cache for a span of `mats` mats, ranked by `plan`.
    pub(crate) fn new(mats: usize, plan: SearchPlan) -> MemoTree {
        let leaves = mats.next_power_of_two();
        MemoTree {
            plan,
            leaves,
            nodes: vec![Trace::EMPTY; 2 * leaves],
        }
    }

    /// Re-runs leaf `leaf`'s descent on `mat`, whose select latches hold
    /// its membership window and whose first slot is `base` within the
    /// span. Its ancestors are stale until [`MemoTree::refold`].
    pub(crate) fn speculate(&mut self, leaf: usize, mat: &mut Mat, base: u64, scalar: bool) {
        self.nodes[self.leaves + leaf].speculate(mat, &self.plan, scalar, base);
    }

    /// Re-merges the ancestors of `leaf`, bottom-up.
    pub(crate) fn refold(&mut self, leaf: usize) {
        let mut node = (self.leaves + leaf) / 2;
        while node > 0 {
            self.merge(node);
            node /= 2;
        }
    }

    /// Merges every internal node, bottom-up.
    pub(crate) fn fold_all(&mut self) {
        for node in (1..self.leaves).rev() {
            self.merge(node);
        }
    }

    fn merge(&mut self, node: usize) {
        let (parents, kids) = self.nodes.split_at_mut(2 * node);
        parents[node].merge(&kids[0], &kids[1], &self.plan);
    }

    /// The span's descent, read from the root. `None` for an empty span.
    pub(crate) fn descent(&self) -> Option<Descent> {
        let root = &self.nodes[1];
        let winner = root.survivor?;
        let mut selected = root.selected;
        let mut descent = Descent {
            steps: 0,
            mat_searches: 0,
            exclusions: 0,
            winner,
        };
        for step in 0..self.plan.steps() {
            if selected <= 1 {
                break;
            }
            let s = step as usize;
            descent.steps += 1;
            descent.mat_searches += u64::from(root.active[s]);
            if root.one & root.zero & (1 << step) != 0 {
                descent.exclusions += 1;
                selected -= root.removed[s];
            }
        }
        Some(descent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::encoding::KeyFormat;
    use crate::plan::Direction;

    /// One-array mats of 8 rows holding `keys`, every row selected.
    fn mats(keys: &[u64]) -> Vec<Mat> {
        keys.chunks(8)
            .map(|chunk| {
                let mut mat = Mat::new(1, 8);
                for (slot, &raw) in chunk.iter().enumerate() {
                    mat.write_slot(slot as u32, raw);
                }
                let mut select = Bitmap::zeros(8);
                select.set_range(0, chunk.len());
                mat.load_select_bits(&select);
                mat
            })
            .collect()
    }

    /// The sequential walk over `mats` as one range: steps, active-mat
    /// senses, exclusions and the winner.
    fn walk(mats: &mut [Mat], plan: &SearchPlan) -> Descent {
        let mut selected: u64 = mats.iter().map(|m| m.selected_count() as u64).sum();
        let (mut steps, mut searches, mut exclusions) = (0, 0, 0);
        let mut survivors_negative = false;
        for step in 0..plan.steps() {
            if selected <= 1 {
                break;
            }
            steps += 1;
            let pos = plan.position(step);
            let (mut one, mut zero) = (false, false);
            for mat in mats.iter().filter(|m| m.selected_count() > 0) {
                searches += 1;
                let signals = mat.sense(pos, false);
                one |= signals.any_one;
                zero |= signals.any_zero;
            }
            if plan.is_sign_step(step) {
                survivors_negative = plan.survivors_negative(one, zero);
            }
            if one && zero {
                exclusions += 1;
                let keep = plan.keep_bit(step, survivors_negative);
                for mat in mats.iter_mut().filter(|m| m.selected_count() > 0) {
                    selected -= mat.exclude(pos, keep, false);
                }
            }
        }
        let (mat, slot) = mats
            .iter()
            .enumerate()
            .find_map(|(m, mat)| mat.first_selected().map(|s| (m, s)))
            .expect("nonempty range");
        Descent {
            steps,
            mat_searches: searches,
            exclusions,
            winner: Survivor {
                slot: mat as u64 * 8 + u64::from(slot),
                raw: mats[mat].read_slot(slot),
            },
        }
    }

    #[test]
    fn root_equals_the_sequential_walk() {
        // Ties across mats, an empty mat, a lone-row mat, and a span
        // that is not a power of two.
        let sets: [&[u64]; 4] = [
            &[9, 3, 3, 7, 1, 1, 8, 2, 5, 1, 6, 6, 4, 0, 2, 9, 3],
            &[5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
            &[0x8000_0000, 1, 0xffff_ffff, 0x7fff_ffff, 0x8000_0001, 3],
            &[4; 1],
        ];
        for keys in sets {
            for format in [
                KeyFormat::UNSIGNED32,
                KeyFormat::SIGNED32,
                KeyFormat::FLOAT32,
            ] {
                for direction in [Direction::Min, Direction::Max] {
                    let plan = SearchPlan::new(format, direction);
                    let mut span = mats(keys);
                    span.push(Mat::new(1, 8)); // empty, never selected
                    let want = walk(&mut mats(keys), &plan);
                    let mut memo = MemoTree::new(span.len(), plan);
                    for (leaf, mat) in span.iter_mut().enumerate() {
                        memo.speculate(leaf, mat, leaf as u64 * 8, false);
                    }
                    memo.fold_all();
                    let got = memo.descent().expect("nonempty range");
                    assert_eq!(got, want, "{keys:?} {format:?} {direction:?}");
                }
            }
        }
    }

    #[test]
    fn empty_span_has_no_descent() {
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let mut memo = MemoTree::new(3, plan);
        memo.fold_all();
        assert_eq!(memo.descent(), None);
    }
}
