//! Memoized descent engine: host work per extracted key follows one mat's
//! key trie and the H-tree depth, not the range's span (§IV-B.2, Figs.
//! 9/10).
//!
//! The chip controller senses every mat of a range at once and wire-ORs
//! the two search signals up the H-tree, so hardware pays a fixed number
//! of column steps per key however many mats the range spans. The
//! sequential walk instead senses every span mat at every step. This
//! engine ([`MemoTree`], behind [`crate::ParallelPolicy::Auto`]) keeps, in
//! the chip and across extraction calls on one range and plan:
//!
//! - one **leaf** per span mat: the mat's bit-serial descent run as if the
//!   mat were the entire range, a pure function of the mat's cells, its
//!   membership window and the plan. Beside its trace it keeps the rows
//!   alive before each of its exclusions and after its last step, so it
//!   can resume (below).
//! - one **merged trace** per internal node of a binary tree over the
//!   span (lower addresses in the left child, Fig. 10's priority): the
//!   descent of the node's mats run as if they were the entire range,
//!   folded from its two children.
//!
//! Extracting a key clears one membership bit, which changes one leaf. It
//! resumes where the winner split off, and only its `log2(span)`
//! ancestors re-merge. Steps, active-mat senses, exclusions with their
//! removed rows, and the winner's slot and raw bits all come from the
//! root, which is the span's own descent.
//!
//! # A trace
//!
//! Per step `s`, a subtree's trace has its wire-ORed `any_one` and
//! `any_zero` signals, the mats with a nonempty selection, and the rows
//! its exclusion removed. A step excludes exactly when both signals are
//! raised, so no decision bits are stored. Once the subtree is down to
//! one survivor no exclusion can fire: a lone row senses its own stored
//! bit at every later column. The trace keeps going past that collapse
//! anyway, with that row's bits, so every trace covers all `steps` and
//! has the same shape at a leaf and at the root. The trace also names
//! its lowest-address survivor after the last step.
//!
//! # Resuming a leaf
//!
//! Every row alive at a step shares its bits at all earlier steps with
//! every other row alive there: a uniform column leaves the alive rows
//! equal in that bit, and an exclusion keeps only rows holding the keep
//! bit. Let `m` be the leaf's survivor, just extracted. If some row
//! besides `m` is alive at step `e`, dropping `m` from the membership
//! changes no signal and no removed count before `e`, so the alive set at
//! `e` is the old one minus `m`. So the leaf keeps a **snapshot** of the
//! select words alive before each of its exclusions, with their count,
//! and the words alive after its last step:
//!
//! - If that final set still holds another row, `m` had ties. The next
//!   row of the final set is the new survivor and nothing is sensed.
//! - Otherwise the last exclusion step `e` removed every row but `m`.
//!   The leaf latches `e`'s snapshot minus `m` (never empty: `e` removed
//!   a row) and descends again from `e`. At `e = 0` that re-senses the
//!   sign step, so a float range's polarity is recomputed.
//! - Either way `m` is first cleared from every snapshot, decrementing its
//!   count. Otherwise a later resume from a shallower step would bring
//!   `m` back.
//!
//! Draining a mat is therefore a depth-first walk of its key trie: its
//! senses follow the trie's nodes, not keys × key width. A resumed leaf's
//! trace equals a fresh descent over its new membership.
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
//!   the child holds. The child **dies**; its remaining rows are the
//!   rows removed.
//!
//! At a step where the union does not exclude, every alive child saw a
//! uniform column too, so neither excluded. By induction the merged
//! trace equals the union's own descent, and a merged trace can be
//! merged again. Both children of a union stay alive until one dies,
//! and the two cannot die at the same step (the union would then be
//! uniform there). So the fold has a **closed form**:
//!
//! - The first death step `d` is the lowest set bit, over both children
//!   `c`, of `mixed & ((c.one & !c.zero & !keep) | (c.zero & !c.one &
//!   keep))`, where `mixed` is the union's `one & zero` and `keep` is the
//!   plan's keep-bit mask for the union's sign-step polarity (two masks
//!   per plan).
//! - Up to `d` the union's signals are the children's OR, and its active
//!   mats and removed rows per step are their sums; at `d` the dying
//!   child's remaining rows join the removed rows. After `d` the union's
//!   trace is the surviving child's, which holds every surviving row.
//! - If no child dies, both end on equal bits and the lower child's
//!   survivor wins (Fig. 10's priority).
//!
//! Nothing in the argument depends on how the span is split: it holds
//! for any partition into disjoint parts, so the power-of-two tree is
//! only the shape that makes a changed leaf cost `log2(span)` merges.
//!
//! # What a node stores
//!
//! The signals are two `u64` masks; the per-step counts are stored only
//! as far as a node owns them, and a node reads every later step from
//! the node its `rest` names:
//!
//! - a merged node records steps `0..=d` (all steps if no child dies)
//!   and reads past `d` from its winning child: from the first node down
//!   that child's chain that records more steps, so `recorded` rises
//!   along every chain and reading one is a hop or two;
//! - a leaf records up to its collapse, and any subtree down to one row
//!   reads every later step from [`Trace::SOLO`] (one active mat,
//!   nothing removed), a node past the leaves;
//! - a node with an empty child records nothing and reads the other.
//!
//! A merge walks both children's chains once over steps `0..=d`, adding
//! one packed count word per step, and copies nothing past `d`: a refold
//! costs O(`d` + chain length) per level. The root's descent is read
//! down its chain the same way.
//!
//! A refold after a resume does less. The resumed leaf's trace changes
//! only from the step it resumed at (a tie changes no step), and the
//! leaf holds one row fewer. At an ancestor whose split `d` comes before
//! that step, every step through `d` stands, so the death, the winner
//! and the recorded counts stand too. The winner is the resumed path's
//! child, since the extracted key was the union's survivor. Only the row
//! count, the signals past `d`, the survivor and `rest` move: O(1). Any
//! other ancestor merges in full, and its trace changes from the same
//! step on.
//!
//! # Keeping the tree across calls
//!
//! The chip keeps one tree, keyed by range and plan, and re-keys it
//! (reusing its allocations) when a call names another. Each mat carries
//! a generation. Row writes and stuck-at faults bump it, and so does any
//! change to the mat's exclusion flags: an extraction under either
//! policy, or an init that clears a set flag in that mat. Restoring a
//! chip snapshot drops the tree. At the start of a call:
//!
//! - a leaf whose mat's generation differs from the one it recorded
//!   re-runs from its membership window;
//! - the previous winner's leaf resumes only if its mat's generation
//!   still equals the one recorded right after flagging that winner;
//! - any other leaf stands, and only changed leaves' ancestors refold.
//!
//! Select latches are never trusted across calls: a resume latches a
//! snapshot, and a re-run latches its membership window.

use crate::bitmap::Bitmap;
use crate::mat::Mat;
use crate::plan::SearchPlan;

/// Key widths never exceed 64 bits, so per-step records fit fixed
/// arrays (and bit `s` of a `u64` stands for step `s`).
const MAX_STEPS: usize = 64;

/// A step's count word holds the rows it removed in its low
/// `REMOVED_BITS` bits and its active mats above them, so a merge adds
/// one word per step. A span holds fewer than 2^40 rows and 2^24 mats
/// (checked whenever the tree is keyed), so sums never carry between the
/// two.
const REMOVED_BITS: u32 = 40;
const REMOVED: u64 = (1 << REMOVED_BITS) - 1;
/// The count word of one active mat that removed nothing.
const ONE_MAT: u64 = 1 << REMOVED_BITS;

/// A subtree's lowest-address survivor after its descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Survivor {
    /// Key slot, counted from the span's first slot.
    pub slot: u64,
    /// The stored (effective, post-fault) bits.
    pub raw: u64,
}

/// One subtree's whole descent, run as if its mats were the whole range.
/// Its fields fill one cache line ahead of `counts`, so a merge that
/// reads a child's first steps touches few lines.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct Trace {
    /// Bit `s`: some selected cell held 1 at step `s`.
    one: u64,
    /// Bit `s`: some selected cell held 0 at step `s`.
    zero: u64,
    /// Rows selected when the descent starts.
    selected: u64,
    /// `counts` holds steps `0..recorded` (a leaf's up to its collapse,
    /// a merged node's up to and including its split); every later step
    /// is node `rest`'s. That is [`Trace::SOLO`] once the subtree is down
    /// to one row, else the first node down the winning child's chain
    /// that records more steps than this one, so `recorded` rises along
    /// every chain.
    recorded: usize,
    rest: usize,
    /// Lowest-address survivor (`None` for an empty subtree).
    survivor: Option<Survivor>,
    /// Per step, packed (see [`REMOVED_BITS`]): the mats with a nonempty
    /// selection, and the rows removed (0 unless both signals were
    /// raised).
    counts: [u64; MAX_STEPS],
}

/// An exclusion step of a leaf's descent and the rows alive before it.
#[derive(Debug, Clone, Copy)]
struct Split {
    step: u16,
    alive: u64,
}

/// What a leaf keeps beside its trace so it can resume: see the module
/// docs.
#[derive(Debug, Clone, Default)]
struct Leaf {
    /// The mat's first slot within the span.
    base: u64,
    /// The mat generation the descent reflects (`None`: never run).
    generation: Option<u64>,
    /// Mat slot extracted since the descent ran, not yet removed from it.
    pending: Option<u32>,
    /// The descent's exclusion steps, shallowest first.
    splits: Vec<Split>,
    /// Select words alive before each split, one mat's worth per split.
    snapshots: Vec<u64>,
    /// Select words alive after the last step (kept only while they
    /// hold more than one row), and their count.
    last: Vec<u64>,
    last_count: u64,
}

impl Leaf {
    /// Forgets the descent, keeping allocations.
    fn clear(&mut self) {
        self.generation = None;
        self.pending = None;
        self.splits.clear();
        self.snapshots.clear();
        self.last.clear();
        self.last_count = 0;
    }

    /// Clears `slot` from every snapshot (of `words` words each) and
    /// from the final set.
    fn remove(&mut self, words: usize, slot: u32) {
        let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
        for (split, snapshot) in self
            .splits
            .iter_mut()
            .zip(self.snapshots.chunks_exact_mut(words))
        {
            if snapshot[word] & bit != 0 {
                snapshot[word] &= !bit;
                split.alive -= 1;
            }
        }
        if self.last_count > 1 {
            if self.last[word] & bit != 0 {
                self.last[word] &= !bit;
                self.last_count -= 1;
            }
        } else {
            // A lone final row is the survivor, the only row that leaves.
            self.last_count = 0;
        }
    }

    /// Lowest slot of the nonempty final set.
    fn first_of_last(&self) -> u32 {
        let (word, bits) = self
            .last
            .iter()
            .enumerate()
            .find(|(_, &bits)| bits != 0)
            .expect("the final set holds a row");
        word as u32 * 64 + bits.trailing_zeros()
    }
}

impl Trace {
    const EMPTY: Trace = Trace {
        one: 0,
        zero: 0,
        selected: 0,
        recorded: MAX_STEPS,
        rest: 0,
        survivor: None,
        counts: [0; MAX_STEPS],
    };

    /// The node past the heap's last leaf, which is no tree node: one
    /// active mat that removes nothing, at every step. A subtree past its
    /// collapse holds one row, so every later step of its trace reads
    /// here.
    const SOLO: Trace = Trace {
        counts: [ONE_MAT; MAX_STEPS],
        ..Trace::EMPTY
    };

    /// Runs `mat`'s whole descent over the rows its select latches hold.
    fn rerun(&mut self, leaf: &mut Leaf, mat: &mut Mat, plan: &SearchPlan, scalar: bool) {
        *self = Trace::EMPTY;
        leaf.clear();
        let selected = mat.selected_count() as u64;
        if selected == 0 {
            return;
        }
        self.selected = selected;
        self.descend(leaf, mat, plan, scalar, 0);
    }

    /// Removes the extracted survivor `slot` from the descent: a tie
    /// reads the next row, anything else descends again from the last
    /// split (see the module docs). Returns the step from which the
    /// trace's signals and counts changed ([`MAX_STEPS`] for a tie).
    fn resume(
        &mut self,
        leaf: &mut Leaf,
        mat: &mut Mat,
        plan: &SearchPlan,
        scalar: bool,
        slot: u32,
    ) -> usize {
        let words = mat.select_words();
        self.selected -= 1;
        leaf.remove(words, slot);
        if leaf.last_count > 0 {
            let first = leaf.first_of_last();
            self.survivor = Some(Survivor {
                slot: leaf.base + u64::from(first),
                raw: mat.read_slot(first),
            });
            return MAX_STEPS;
        }
        while let Some(Split { step, alive }) = leaf.splits.pop() {
            let top = leaf.snapshots.len() - words;
            if alive > 0 {
                mat.restore_select(&leaf.snapshots[top..], alive);
                leaf.snapshots.truncate(top);
                self.descend(leaf, mat, plan, scalar, step);
                return step as usize;
            }
            leaf.snapshots.truncate(top);
        }
        // `slot` was the mat's last row.
        *self = Trace::EMPTY;
        leaf.last.clear();
        0
    }

    /// Descends from `start` over the rows latched in `mat`, recording a
    /// snapshot before each exclusion. The trace before `start` stands.
    /// Physical stepping stops at the local collapse; the rest of the
    /// trace is the survivor's own bits, read once.
    fn descend(
        &mut self,
        leaf: &mut Leaf,
        mat: &mut Mat,
        plan: &SearchPlan,
        scalar: bool,
        start: u16,
    ) {
        let steps = plan.steps();
        let mut running = mat.selected_count() as u64;
        self.one &= step_mask(start);
        self.zero &= step_mask(start);
        // Resuming past the sign step: its signals are the trace's.
        let mut survivors_negative = start > 0
            && plan.is_sign_step(0)
            && plan.survivors_negative(self.one & 1 != 0, self.zero & 1 != 0);
        let mut step = start;
        while step < steps && running > 1 {
            let pos = plan.position(step);
            let signals = mat.sense(pos, scalar);
            self.one |= u64::from(signals.any_one) << step;
            self.zero |= u64::from(signals.any_zero) << step;
            if plan.is_sign_step(step) {
                survivors_negative = plan.survivors_negative(signals.any_one, signals.any_zero);
            }
            let mut removed = 0;
            if !signals.all_same() {
                leaf.splits.push(Split {
                    step,
                    alive: running,
                });
                mat.save_select(&mut leaf.snapshots);
                removed = mat.exclude(pos, plan.keep_bit(step, survivors_negative), scalar);
                running -= removed;
            }
            self.counts[step as usize] = ONE_MAT + removed;
            step += 1;
        }
        // Any later step holds one row: [`Trace::SOLO`] reads for it (the
        // tree points `rest` there).
        self.recorded = step as usize;
        leaf.last.clear();
        if running > 1 {
            mat.save_select(&mut leaf.last);
        }
        leaf.last_count = running;
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
            slot: leaf.base + u64::from(first),
            raw,
        });
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

/// Where a span mat's membership comes from: its slots `[lo, hi)` are in
/// the range, minus the chip's exclusion flags from chip slot `base` on.
pub(crate) struct Membership<'a> {
    pub flags: Option<&'a Bitmap>,
    pub base: usize,
    pub lo: usize,
    pub hi: usize,
}

/// The trace cache over one span: leaf `i` is span mat `i`, padded with
/// empty leaves to a power of two, and node `n` (heap order, root 1)
/// merges nodes `2n` and `2n + 1`. Sized by the span only.
#[derive(Clone)]
pub(crate) struct MemoTree {
    /// The key: the range `[begin, end)` and its plan.
    range: (u64, u64),
    plan: SearchPlan,
    /// Keep-bit masks for positive and negative sign-step survivors.
    keep: [u64; 2],
    /// Leaves, a power of two ≥ the span's mats.
    leaves: usize,
    /// Heap-ordered traces; index 0 is unused and the last one, past the
    /// leaves, is [`Trace::SOLO`].
    nodes: Vec<Trace>,
    /// One per span mat.
    cells: Vec<Leaf>,
    /// Internal nodes due a merge ([`MemoTree::refold_marked`]).
    marked: Vec<bool>,
    /// Scratch for one mat's membership window and its flags.
    window: Bitmap,
    flags: Bitmap,
}

impl MemoTree {
    /// An empty cache for `range` ranked by `plan`, spanning `mats` mats
    /// of `slots` slots each.
    ///
    /// # Panics
    ///
    /// Panics if the span holds 2^40 rows or 2^24 mats or more.
    pub(crate) fn new(range: (u64, u64), plan: SearchPlan, mats: usize, slots: u32) -> MemoTree {
        let mut memo = MemoTree {
            range,
            plan,
            keep: [0; 2],
            leaves: 0,
            nodes: Vec::new(),
            cells: Vec::new(),
            marked: Vec::new(),
            window: Bitmap::zeros(slots as usize),
            flags: Bitmap::zeros(slots as usize),
        };
        memo.reset(mats);
        memo
    }

    /// Points the cache at `range` ranked by `plan` over `mats` mats. The
    /// same key keeps every leaf; another drops them all, keeping the
    /// allocations.
    ///
    /// # Panics
    ///
    /// As [`MemoTree::new`].
    pub(crate) fn rekey(&mut self, range: (u64, u64), plan: SearchPlan, mats: usize) {
        if (range, plan) != (self.range, self.plan) {
            self.range = range;
            self.plan = plan;
            self.reset(mats);
        }
    }

    fn reset(&mut self, mats: usize) {
        let rows = mats as u64 * self.window.len() as u64;
        assert!(
            mats < 1 << (64 - REMOVED_BITS) && rows < ONE_MAT,
            "span too large for packed step counts"
        );
        let plan = self.plan;
        self.keep = [false, true].map(|negative| {
            (0..plan.steps())
                .filter(|&step| plan.keep_bit(step, negative))
                .fold(0u64, |mask, step| mask | 1 << step)
        });
        self.leaves = mats.next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(2 * self.leaves, Trace::EMPTY);
        self.nodes.push(Trace::SOLO);
        self.cells.truncate(mats);
        self.cells.iter_mut().for_each(Leaf::clear);
        self.cells.resize_with(mats, Leaf::default);
        self.marked.clear();
        self.marked.resize(self.leaves, false);
    }

    /// Brings leaf `leaf` up to date with `mat` (see the module docs):
    /// re-runs it from `membership` if the mat changed, or resumes it
    /// without its pending winner. Returns the step from which its trace
    /// changed (0 for a re-run), or `None` if it did not; its ancestors
    /// are stale until [`MemoTree::refold`] or [`MemoTree::refold_marked`].
    pub(crate) fn refresh(
        &mut self,
        leaf: usize,
        mat: &mut Mat,
        membership: Membership<'_>,
        scalar: bool,
    ) -> Option<usize> {
        let solo = self.solo();
        let trace = &mut self.nodes[self.leaves + leaf];
        let cell = &mut self.cells[leaf];
        if cell.generation != Some(mat.generation()) {
            self.window.clear();
            self.window.set_range(membership.lo, membership.hi);
            if let Some(flags) = membership.flags {
                self.flags.assign_slice(flags, membership.base);
                self.window.and_not_assign(&self.flags);
            }
            mat.load_select_bits(&self.window);
            cell.base = leaf as u64 * u64::from(mat.slots());
            trace.rerun(cell, mat, &self.plan, scalar);
            trace.rest = solo;
            cell.generation = Some(mat.generation());
            Some(0)
        } else if let Some(slot) = cell.pending.take() {
            let from = trace.resume(cell, mat, &self.plan, scalar, slot);
            trace.rest = solo;
            Some(from)
        } else {
            None
        }
    }

    /// Records that slot `slot` of leaf `leaf`'s mat was extracted and
    /// flagged, leaving the mat at `generation`: the next refresh resumes
    /// the leaf without it, unless the mat changes again first.
    pub(crate) fn extracted(&mut self, leaf: usize, slot: u32, generation: u64) {
        let cell = &mut self.cells[leaf];
        cell.generation = Some(generation);
        cell.pending = Some(slot);
    }

    /// The index of [`Trace::SOLO`].
    fn solo(&self) -> usize {
        2 * self.leaves
    }

    /// Re-merges the ancestors of `leaf`, bottom-up, after its trace
    /// changed from step `from` on ([`MemoTree::refresh`]).
    pub(crate) fn refold(&mut self, leaf: usize, mut from: usize) {
        let mut node = self.leaves + leaf;
        while node > 1 {
            let path = node;
            node /= 2;
            from = self.merge(node, Some((path, from)));
        }
    }

    /// Marks the ancestors of `leaf` for [`MemoTree::refold_marked`].
    pub(crate) fn mark(&mut self, leaf: usize) {
        let mut node = (self.leaves + leaf) / 2;
        while node > 0 && !self.marked[node] {
            self.marked[node] = true;
            node /= 2;
        }
    }

    /// Merges every marked node, bottom-up, and clears the marks.
    pub(crate) fn refold_marked(&mut self) {
        for node in (1..self.leaves).rev() {
            if std::mem::take(&mut self.marked[node]) {
                self.merge(node, None);
            }
        }
    }

    /// Folds node `node`'s children into their union's descent in closed
    /// form (see the module docs for why it is exact). The node records
    /// its steps up to and including the first death and reads the
    /// winning child past it; with an empty child it reads the other
    /// child from step 0. Each child's winner chain is walked once, so a
    /// merge costs O(split + depth) and copies nothing past its split.
    ///
    /// `changed` names the child on a resumed leaf's path and the step
    /// from which its trace changed; it also holds one row fewer. A node
    /// whose split comes before that step keeps its counts but one (see
    /// the module docs). Returns the step from which the node's own trace
    /// changed (0 when unknown).
    fn merge(&mut self, node: usize, changed: Option<(usize, usize)>) -> usize {
        let (lo_at, hi_at) = (2 * node, 2 * node + 1);
        let solo = self.solo();
        let (head, kids) = self.nodes.split_at_mut(node + 1);
        let kids: &[Trace] = kids;
        let kid = |at: usize| &kids[at - node - 1];
        let this = &mut head[node];
        let (lo, hi) = (kid(lo_at), kid(hi_at));
        // The first node down `at`'s chain that records more than
        // `recorded` steps (`recorded` rises along a chain, up to `solo`'s
        // 64).
        let past = |mut at: usize, recorded: usize| {
            while kid(at).recorded <= recorded {
                at = kid(at).rest;
            }
            at
        };
        if lo.selected == 0 || hi.selected == 0 {
            let only = if hi.selected == 0 { lo_at } else { hi_at };
            let t = kid(only);
            (this.one, this.zero, this.selected) = (t.one, t.zero, t.selected);
            (this.recorded, this.rest, this.survivor) = (0, past(only, 0), t.survivor);
            return match changed {
                Some((path, from)) if path == only => from,
                _ => 0,
            };
        }
        let steps = self.plan.steps() as usize;
        let (one, zero) = (lo.one | hi.one, lo.zero | hi.zero);
        let negative =
            self.plan.is_sign_step(0) && self.plan.survivors_negative(one & 1 != 0, zero & 1 != 0);
        let keep = self.keep[usize::from(negative)];
        let mixed = one & zero;
        let dies =
            |kid: &Trace| mixed & ((kid.one & !kid.zero & !keep) | (kid.zero & !kid.one & keep));
        let lo_dies = dies(lo);
        let death = lo_dies | dies(hi);
        // Both children are alive through step `split`.
        let split = (death.trailing_zeros() as usize).min(steps - 1);
        let (winner, loser) = if lo_dies >> split & 1 == 1 {
            (hi_at, lo_at)
        } else {
            (lo_at, hi_at)
        };
        let recorded = split + 1;
        let alive = step_mask(recorded as u16);
        let changed_from = match changed {
            // The changed child's steps through `split` stand, so the
            // death, the winner and the recorded counts stand too.
            Some((path, from)) if from > split => {
                this.selected = lo.selected + hi.selected;
                if death == 0 {
                    this.survivor = lo.survivor;
                    return from;
                }
                let w = kid(winner);
                this.one = (one & alive) | (w.one & !alive);
                this.zero = (zero & alive) | (w.zero & !alive);
                this.survivor = w.survivor;
                // The extracted key was this union's survivor, so its child
                // won, and still wins.
                debug_assert_eq!(path, winner, "a resumed path wins");
                // A union down to one row past `split` stays so.
                if this.rest != solo {
                    this.rest = past(winner, recorded);
                }
                return from;
            }
            Some((_, from)) => from,
            None => 0,
        };
        // Steps `0..recorded` are the children's sums, read down both
        // winner chains at once: each pass covers the steps over which
        // neither child's holder changes.
        let (mut wi, mut w, mut l) = (winner, kid(winner), kid(loser));
        // `gone`: rows the union removed through `split`; `lost`: the
        // loser's share.
        let (mut from, mut gone, mut lost) = (0, 0, 0);
        while from < recorded {
            while w.recorded <= from {
                (wi, w) = (w.rest, kid(w.rest));
            }
            while l.recorded <= from {
                l = kid(l.rest);
            }
            let to = w.recorded.min(l.recorded).min(recorded);
            let sums = this.counts[from..to].iter_mut();
            for ((sum, &wc), &lc) in sums.zip(&w.counts[from..to]).zip(&l.counts[from..to]) {
                *sum = wc + lc;
                gone += *sum & REMOVED;
                lost += lc & REMOVED;
            }
            from = to;
        }
        this.selected = lo.selected + hi.selected;
        this.recorded = recorded;
        if death == 0 {
            // No death: `recorded` covers every step.
            (this.rest, this.one, this.zero, this.survivor) = (winner, one, zero, lo.survivor);
            return changed_from;
        }
        // The loser is uniform at its death step, so it removed nothing
        // there; its remaining rows leave with it.
        let left = kid(loser).selected - lost;
        this.counts[split] += left;
        gone += left;
        // Holding one row past `split`, the union reads `solo` from there;
        // else the first node down the winner's chain (`wi` holds
        // `split`) that records later steps, if any are left.
        this.rest = if this.selected - gone <= 1 || recorded == MAX_STEPS {
            solo
        } else {
            past(wi, recorded)
        };
        let winner = kid(winner);
        this.one = (one & alive) | (winner.one & !alive);
        this.zero = (zero & alive) | (winner.zero & !alive);
        this.survivor = winner.survivor;
        changed_from
    }

    /// The node whose arrays hold step `step` of the trace read from
    /// `node`: the first node down its chain that records it.
    #[cfg(test)]
    fn holder(&self, mut node: usize, step: usize) -> usize {
        while step >= self.nodes[node].recorded {
            node = self.nodes[node].rest;
        }
        node
    }

    /// The span's descent, read from the root down its chain. `None` for
    /// an empty span.
    pub(crate) fn descent(&self) -> Option<Descent> {
        let root = &self.nodes[1];
        let winner = root.survivor?;
        let steps = self.plan.steps() as usize;
        let excluded = root.one & root.zero;
        let mut selected = root.selected;
        let mut descent = Descent {
            steps: 0,
            mat_searches: 0,
            exclusions: 0,
            winner,
        };
        let (mut held, mut step) = (root, 0);
        'walk: while step < steps {
            while held.recorded <= step {
                held = &self.nodes[held.rest];
            }
            let to = held.recorded.min(steps);
            if excluded >> step == 0 {
                // No exclusion is left, so every remaining step runs.
                if selected <= 1 {
                    break;
                }
                descent.steps += (to - step) as u16;
                let counts = held.counts[step..to].iter();
                descent.mat_searches += counts.map(|c| c >> REMOVED_BITS).sum::<u64>();
                step = to;
                continue;
            }
            for s in step..to {
                if selected <= 1 {
                    break 'walk;
                }
                descent.steps += 1;
                descent.mat_searches += held.counts[s] >> REMOVED_BITS;
                if excluded >> s & 1 == 1 {
                    descent.exclusions += 1;
                    selected -= held.counts[s] & REMOVED;
                }
            }
            step = to;
        }
        Some(descent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::KeyFormat;
    use crate::plan::Direction;

    /// Slots per test mat (one array of 8 rows).
    const SLOTS: u64 = 8;

    /// One-array mats of 8 rows holding `keys`.
    fn mats(keys: &[u64]) -> Vec<Mat> {
        keys.chunks(SLOTS as usize)
            .map(|chunk| {
                let mut mat = Mat::new(1, SLOTS as u32);
                for (slot, &raw) in chunk.iter().enumerate() {
                    mat.write_slot(slot as u32, raw);
                }
                mat
            })
            .collect()
    }

    /// The sequential walk over `mats` as one range of `len` keys minus
    /// the `gone` slots: steps, active-mat senses, exclusions and the
    /// winner. `None` once every key is gone.
    fn walk(mats: &mut [Mat], len: u64, gone: &Bitmap, plan: &SearchPlan) -> Option<Descent> {
        for (m, mat) in mats.iter_mut().enumerate() {
            let mut select = Bitmap::zeros(SLOTS as usize);
            let base = m as u64 * SLOTS;
            select.set_range(0, (len.saturating_sub(base)).min(SLOTS) as usize);
            select.and_not_assign(&gone.slice(base as usize, SLOTS as usize));
            mat.load_select_bits(&select);
        }
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
            .find_map(|(m, mat)| mat.first_selected().map(|s| (m, s)))?;
        Some(Descent {
            steps,
            mat_searches: searches,
            exclusions,
            winner: Survivor {
                slot: mat as u64 * SLOTS + u64::from(slot),
                raw: mats[mat].read_slot(slot),
            },
        })
    }

    /// Brings every leaf of `memo` up to date over `span` (range
    /// `[0, len)` minus `gone`) and refolds.
    fn refresh_all(memo: &mut MemoTree, span: &mut [Mat], len: u64, gone: &Bitmap) {
        for (leaf, mat) in span.iter_mut().enumerate() {
            let base = leaf as u64 * SLOTS;
            let membership = Membership {
                flags: Some(gone),
                base: base as usize,
                lo: 0,
                hi: (len.saturating_sub(base)).min(SLOTS) as usize,
            };
            if memo.refresh(leaf, mat, membership, false).is_some() {
                memo.mark(leaf);
            }
        }
        memo.refold_marked();
    }

    /// A node's signals, selection and survivor, and `(active mats,
    /// removed rows)` at each plan step.
    type NodeView = (u64, u64, u64, Option<Survivor>, Vec<(u64, u64)>);

    /// Every node's trace as read through the representation, each step
    /// followed down the node's winner chain.
    fn read(memo: &MemoTree) -> Vec<NodeView> {
        (1..memo.solo())
            .map(|node| {
                let t = &memo.nodes[node];
                let mut at = node;
                let steps = (0..memo.plan.steps() as usize)
                    .map(|s| {
                        at = memo.holder(at, s);
                        let counts = memo.nodes[at].counts[s];
                        (counts >> REMOVED_BITS, counts & REMOVED)
                    })
                    .collect();
                (t.one, t.zero, t.selected, t.survivor, steps)
            })
            .collect()
    }

    /// Key sets with ties across and within mats, an empty mat, a
    /// lone-row mat, sign-mixed keys, and spans that are not a power of
    /// two.
    const SETS: [&[u64]; 5] = [
        &[9, 3, 3, 7, 1, 1, 8, 2, 5, 1, 6, 6, 4, 0, 2, 9, 3],
        &[5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        &[0x8000_0000, 1, 0xffff_ffff, 0x7fff_ffff, 0x8000_0001, 3],
        &[4; 1],
        &[
            0xbf80_0000,
            0x3f80_0000,
            0x8000_0000,
            0,
            0xbf80_0000,
            7,
            0xc000_0000,
            0x4000_0000,
            0xff80_0000,
            0x7f80_0000,
            0x8000_0001,
            1,
        ],
    ];

    fn plans() -> impl Iterator<Item = SearchPlan> {
        [
            KeyFormat::UNSIGNED32,
            KeyFormat::SIGNED32,
            KeyFormat::FLOAT32,
        ]
        .into_iter()
        .flat_map(|format| {
            [Direction::Min, Direction::Max].map(|direction| SearchPlan::new(format, direction))
        })
    }

    #[test]
    fn root_equals_the_sequential_walk() {
        for keys in SETS {
            for plan in plans() {
                let len = keys.len() as u64;
                let mut span = mats(keys);
                span.push(Mat::new(1, SLOTS as u32)); // empty, never selected
                let gone = Bitmap::zeros(span.len() * SLOTS as usize);
                let want = walk(&mut mats(keys), len, &gone, &plan);
                let mut memo = MemoTree::new((0, len), plan, span.len(), SLOTS as u32);
                refresh_all(&mut memo, &mut span, len, &gone);
                assert_eq!(memo.descent(), want, "{keys:?} {plan:?}");
            }
        }
    }

    #[test]
    fn a_drain_that_resumes_equals_fresh_descents() {
        // Each key resumes the winner's leaf; every leaf trace must equal
        // a fresh descent of its mat's remaining rows, and the root the
        // walk, until the range runs dry.
        for keys in SETS {
            for plan in plans() {
                let len = keys.len() as u64;
                let mut span = mats(keys);
                let mut gone = Bitmap::zeros(span.len() * SLOTS as usize);
                let mut memo = MemoTree::new((0, len), plan, span.len(), SLOTS as u32);
                refresh_all(&mut memo, &mut span, len, &gone);
                for _ in 0..len {
                    let fresh = {
                        let mut fresh = MemoTree::new((0, len), plan, span.len(), SLOTS as u32);
                        refresh_all(&mut fresh, &mut span.clone(), len, &gone);
                        fresh
                    };
                    assert_eq!(read(&memo), read(&fresh), "{keys:?} {plan:?}");
                    let want = walk(&mut mats(keys), len, &gone, &plan);
                    let got = memo.descent();
                    assert_eq!(got, want, "{keys:?} {plan:?}");
                    let slot = got.expect("keys remain").winner.slot;
                    let leaf = (slot / SLOTS) as usize;
                    gone.set(slot as usize, true);
                    span[leaf].bump_generation();
                    memo.extracted(leaf, (slot % SLOTS) as u32, span[leaf].generation());
                    // The winner's leaf resumes (its generation held).
                    let from = memo.refresh(
                        leaf,
                        &mut span[leaf],
                        Membership {
                            flags: Some(&gone),
                            base: 0,
                            lo: 0,
                            hi: 0,
                        },
                        false,
                    );
                    memo.refold(leaf, from.expect("the winner's leaf resumes"));
                }
                assert_eq!(memo.descent(), None, "{keys:?} {plan:?} drained");
            }
        }
    }

    #[test]
    fn a_moved_generation_reruns_the_leaf() {
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let keys = [6, 2, 9, 4, 1, 8, 3, 7, 5, 0];
        let len = keys.len() as u64;
        let mut span = mats(&keys);
        let gone = Bitmap::zeros(span.len() * SLOTS as usize);
        let mut memo = MemoTree::new((0, len), plan, span.len(), SLOTS as u32);
        refresh_all(&mut memo, &mut span, len, &gone);
        assert_eq!(memo.descent().unwrap().winner.raw, 0);
        // Nothing moved: nothing refreshes.
        for (leaf, mat) in span.iter_mut().enumerate() {
            let membership = Membership {
                flags: None,
                base: 0,
                lo: 0,
                hi: 0,
            };
            assert_eq!(memo.refresh(leaf, mat, membership, false), None);
        }
        // A write to mat 0 re-runs its leaf from its window.
        span[0].write_slot(3, 0);
        refresh_all(&mut memo, &mut span, len, &gone);
        let winner = memo.descent().unwrap().winner;
        assert_eq!((winner.slot, winner.raw), (3, 0));
    }

    #[test]
    fn empty_span_has_no_descent() {
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let mut memo = MemoTree::new((0, 1), plan, 3, SLOTS as u32);
        memo.refold_marked();
        assert_eq!(memo.descent(), None);
    }
}
