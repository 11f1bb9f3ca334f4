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
//! ancestors re-merge. Steps, active-mat senses, exclusions, and the
//! winner's slot and raw bits all come from the root, which is the
//! span's own descent.
//!
//! # A trace
//!
//! Per step `s`, a subtree's trace has its wire-ORed `any_one` and
//! `any_zero` signals and the mats holding a row alive at `s`. A step
//! excludes exactly when both signals are raised, so no decision bits
//! are stored. Once the subtree is down to one survivor no exclusion can
//! fire: a lone row senses its own stored bit at every later column. The
//! trace keeps going past that collapse anyway, with that row's bits, so
//! every trace covers all of the plan's steps and has the same shape at
//! a leaf and at the root. The trace also counts the steps its own
//! descent runs (the walk stops once one row is left) and names its
//! lowest-address survivor after the last step.
//!
//! # Resuming a leaf
//!
//! Every row alive at a step shares its bits at all earlier steps with
//! every other row alive there: a uniform column leaves the alive rows
//! equal in that bit, and an exclusion keeps only rows holding the keep
//! bit. Let `m` be the leaf's survivor, just extracted. If some row
//! besides `m` is alive at step `e`, dropping `m` from the membership
//! changes no signal before `e`. The leaf keeps,
//! for each of its exclusions, the rows that exclusion **removed**, and
//! the rows alive after its last step (the final set):
//!
//! - If the final set still holds another row, `m` had ties. The next
//!   row of the final set is the new survivor and nothing is sensed.
//! - Otherwise the last exclusion `e` kept only `m`, and the leaf
//!   resumes at `e` with exactly the rows `e` removed: step `e` is now
//!   uniform in the bit it discarded (no exclusion, nothing removed) and
//!   the descent goes on from `e + 1` over those rows.
//!
//! *Why the removed rows are the rows alive (lazy removal).* While an
//! exclusion `e` stays the leaf's last, every key the leaf yields comes
//! from the rows `e` kept, and its deeper exclusions split only those.
//! When the resume reaches `e`, its kept rows are exactly the rows
//! extracted since `e` was recorded, and the rows alive again are the
//! ones `e` removed, with their count. So a resume touches one saved row set,
//! never the other exclusions', and no saved set ever holds an extracted
//! row.
//!
//! A row set of at most [`PAIRS`] rows is kept as (slot, effective bits)
//! pairs, and a descent that is down to that many rows runs on the pairs
//! alone: it senses by ORing their bits and excludes by partitioning
//! them, without the mat's select latches or column shadow. Larger sets
//! are a mat's select words, latched to resume. Draining a mat is
//! therefore a depth-first walk of its key trie: its senses follow the
//! trie's nodes, not keys × key width. A resumed leaf's trace equals a
//! fresh descent over its new membership.
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
//! - Up to `d` the union's signals are the children's OR. After `d` the
//!   union's trace is the surviving child's, which holds every surviving
//!   row.
//! - If no child dies, both end on equal bits and the lower child's
//!   survivor wins (Fig. 10's priority).
//!
//! Nothing in the argument depends on how the span is split: it holds
//! for any partition into disjoint parts, so the power-of-two tree is
//! only the shape that makes a changed leaf cost `log2(span)` merges.
//!
//! # What a node stores, and why a merge reads only its children
//!
//! A node keeps its two signal masks, its row count, its survivor,
//! `steps` (the steps its own descent runs) and `act` (per step, the
//! mats holding a row alive there): 192 bytes, three cache lines. Both
//! counts follow from the closed form, so a merge reads its two children
//! and nothing below them, and needs no record of removed rows:
//!
//! - **`steps`, from the runner-up.** A descent stops after the step
//!   that removes its runner-up, the last row to go before the survivor
//!   is alone; a tie never goes, and its descent runs every step. The
//!   union's runner-up is either the winner's own runner-up or the
//!   loser's last row. The winner is in sync with the union, so its
//!   runner-up leaves the union at the same step it leaves the winner's
//!   descent, the last that descent runs; the loser's last row leaves at
//!   `d`. Hence the union runs `max(w.steps, d + 1)` steps, and every
//!   step if no child dies (both hold a row to the end). A leaf's final
//!   set is what its last split kept, so it runs every step if that set
//!   holds a tie, else through its last split, and none without a split.
//! - **`act`, one 64-lane add.** Through `d` both children are alive
//!   and in sync with the union, so the rows alive in the union at step
//!   `s <= d` are the two children's, and its active mats are their sum.
//!   After `d` only the winner holds rows. So `act[s] = w.act[s] + (s <=
//!   d ? l.act[s] : 0)`: one branch-free fold over the 64 lanes. An
//!   exclusion never empties a descent, so a leaf holds a row at every
//!   step while it holds any, and its `act` is 1 throughout.
//!
//! The root gives the span's descent directly: `steps` column steps,
//! `act` summed over them active-mat senses, and an exclusion at each of
//! those steps where both signals are raised. A resumed leaf's ancestors
//! each re-merge in full, one fold per level, with nothing to remember
//! about which steps changed.
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
//! saved row set (or runs on its pairs), and a re-run latches its
//! membership window.
//!
//! # Checks
//!
//! `tests/exhaustive_memo.rs` compares `Auto` with the sequential walk
//! (hits, every `OpCounters` field, `remaining()`, checkpoints) in every
//! case of a small scope: tiny chips of 1–4 mats, every assignment of
//! 2–3-bit unsigned and signed keys (and of a float's sign, top exponent
//! bit and lowest mantissa bit) to a range, every range, and every call
//! sequence up to depth 2–3 over extractions of 1, 2 or all keys in
//! either direction, one key by the sequential walk, a one-slot write, a
//! stuck-at cell, a sub-range re-init and a checkpoint round trip. It
//! takes about a minute in a debug build; `RIME_EXHAUSTIVE=full` adds
//! depth 4, mats of 10 rows (select-word row sets with two varied bits)
//! and two such mats. `tests/parallel_determinism.rs` adds random
//! cross-call interleavings on wider spans.

use crate::bitmap::Bitmap;
use crate::mat::Mat;
use crate::plan::SearchPlan;

/// Key widths never exceed 64 bits, so per-step records fit fixed
/// arrays (and bit `s` of a `u64` stands for step `s`).
const MAX_STEPS: usize = 64;

/// A row set of at most this many rows is kept as (slot, effective bits)
/// pairs in two cache lines with its split's step, a larger one as a
/// mat's select words (four lines on a Table I mat). On
/// `chip_drain_table1` uniform keys, 8 beat 4 and 16.
const PAIRS: usize = 8;

/// A subtree's lowest-address survivor after its descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Survivor {
    /// Key slot, counted from the span's first slot.
    pub slot: u64,
    /// The stored (effective, post-fault) bits.
    pub raw: u64,
}

/// One subtree's whole descent, run as if its mats were the whole range
/// (see the module docs): three cache lines, `act` in the first two.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C, align(64))]
struct Trace {
    /// Per step, the mats holding a row alive at that step (a span has
    /// at most `u16::MAX` mats, checked whenever the tree is keyed).
    act: [u16; MAX_STEPS],
    /// Bit `s`: some selected cell held 1 at step `s`.
    one: u64,
    /// Bit `s`: some selected cell held 0 at step `s`.
    zero: u64,
    /// Rows selected when the descent starts.
    selected: u64,
    /// Lowest-address survivor (`None` for an empty subtree).
    survivor: Option<Survivor>,
    /// Steps the descent runs before at most one row is left (all of the
    /// plan's while a tie remains).
    steps: u16,
}

/// Some of a mat's rows: `len` of them, kept as the first `len` (slot,
/// effective bits) pairs in slot order when `len <= PAIRS`, else as
/// select words kept beside them.
#[derive(Debug, Clone, Copy, Default)]
struct Rows {
    len: u64,
    slots: [u32; PAIRS],
    bits: [u64; PAIRS],
}

impl Rows {
    /// The rows of `words` (which hold `len` set bits), as pairs if they
    /// are few.
    fn of(words: &[u64], len: u64, mat: &Mat) -> Rows {
        let mut rows = Rows {
            len,
            ..Rows::default()
        };
        if len as usize <= PAIRS {
            let mut at = 0;
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = w as u32 * 64 + bits.trailing_zeros();
                    (rows.slots[at], rows.bits[at]) = (slot, mat.read_slot(slot));
                    at += 1;
                    bits &= bits - 1;
                }
                if at == len as usize {
                    break;
                }
            }
        }
        rows
    }

    fn paired(&self) -> bool {
        self.len as usize <= PAIRS
    }

    /// Splits paired rows by their bit at `pos`: those holding `keep`,
    /// then the others.
    fn split(&self, pos: u16, keep: bool) -> (Rows, Rows) {
        let (mut kept, mut gone) = (Rows::default(), Rows::default());
        for (&slot, &bits) in self.slots.iter().zip(&self.bits).take(self.len as usize) {
            let side = if (bits >> pos & 1 == 1) == keep {
                &mut kept
            } else {
                &mut gone
            };
            let at = side.len as usize;
            (side.slots[at], side.bits[at]) = (slot, bits);
            side.len += 1;
        }
        (kept, gone)
    }
}

/// An exclusion step of a leaf's descent and the rows it removed:
/// exactly the rows alive when the leaf next resumes here (see the
/// module docs).
#[derive(Debug, Clone, Copy)]
struct Split {
    step: u16,
    removed: Rows,
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
    /// The select words of each split that removed more than [`PAIRS`]
    /// rows, one mat's worth each, in split order.
    words: Vec<u64>,
    /// Rows alive after the last step, and their select words if there
    /// were more than [`PAIRS`] of them when the descent ended.
    last: Rows,
    last_words: Vec<u64>,
}

impl Leaf {
    /// Forgets the descent, keeping allocations.
    fn clear(&mut self) {
        self.generation = None;
        self.pending = None;
        self.splits.clear();
        self.words.clear();
        self.last = Rows::default();
        self.last_words.clear();
    }

    /// The steps this leaf's descent runs: every step while its final set
    /// holds a tie, else through its last split (none without a split).
    fn steps(&self, plan: &SearchPlan) -> u16 {
        if self.last.len > 1 {
            plan.steps()
        } else {
            self.splits.last().map_or(0, |split| split.step + 1)
        }
    }

    /// Drops the final set's first row, `slot`, and returns the next one
    /// (the final set held more than one).
    fn next_of_last(&mut self, slot: u32, mat: &Mat) -> Survivor {
        let last = &mut self.last;
        // A final set kept as words stays so as it shrinks.
        let next = if self.last_words.is_empty() {
            debug_assert_eq!(last.slots[0], slot, "the survivor leads the final set");
            last.slots.copy_within(1.., 0);
            last.bits.copy_within(1.., 0);
            (last.slots[0], last.bits[0])
        } else {
            let word = slot as usize / 64;
            self.last_words[word] &= !(1 << (slot % 64));
            let (w, bits) = self.last_words[word..]
                .iter()
                .enumerate()
                .find(|(_, &bits)| bits != 0)
                .expect("the final set holds another row");
            let next = (word + w) as u32 * 64 + bits.trailing_zeros();
            (next, mat.read_slot(next))
        };
        last.len -= 1;
        Survivor {
            slot: self.base + u64::from(next.0),
            raw: next.1,
        }
    }
}

impl Trace {
    const EMPTY: Trace = Trace {
        act: [0; MAX_STEPS],
        one: 0,
        zero: 0,
        selected: 0,
        survivor: None,
        steps: 0,
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
        self.act = [1; MAX_STEPS];
        self.descend(leaf, mat, plan, scalar, 0);
        self.steps = leaf.steps(plan);
    }

    /// Removes the extracted survivor `slot` from the descent: a tie
    /// reads the next row, anything else descends again from the last
    /// split over the rows that split removed (see the module docs).
    fn resume(
        &mut self,
        leaf: &mut Leaf,
        mat: &mut Mat,
        plan: &SearchPlan,
        scalar: bool,
        slot: u32,
    ) {
        self.selected -= 1;
        if leaf.last.len > 1 {
            self.survivor = Some(leaf.next_of_last(slot, mat));
            self.steps = leaf.steps(plan);
            return;
        }
        let Some(Split { step, removed }) = leaf.splits.pop() else {
            // `slot` was the mat's last row.
            *self = Trace::EMPTY;
            return;
        };
        // The rows back at `step` all hold the bit its exclusion
        // discarded: the step is uniform now, and removes nothing.
        let negative = self.restart(plan, step);
        if plan.keep_bit(step, negative) {
            self.zero |= 1 << step;
        } else {
            self.one |= 1 << step;
        }
        if removed.paired() {
            self.descend_rows(leaf, plan, step + 1, removed);
        } else {
            let top = leaf.words.len() - mat.select_words();
            mat.restore_select(&leaf.words[top..], removed.len);
            leaf.words.truncate(top);
            self.descend(leaf, mat, plan, scalar, step + 1);
        }
        self.steps = leaf.steps(plan);
    }

    /// Clears the trace's signals from `start` on and returns whether the
    /// sign step left negative survivors before `start`.
    fn restart(&mut self, plan: &SearchPlan, start: u16) -> bool {
        self.one &= step_mask(start);
        self.zero &= step_mask(start);
        // Resuming past the sign step: its signals are the trace's.
        start > 0
            && plan.is_sign_step(0)
            && plan.survivors_negative(self.one & 1 != 0, self.zero & 1 != 0)
    }

    /// Descends from `start` over the rows latched in `mat`, recording
    /// each exclusion's removed rows, until at most [`PAIRS`] rows are
    /// left; [`Trace::descend_rows`] finishes on their pairs. The signals
    /// before `start` stand.
    fn descend(
        &mut self,
        leaf: &mut Leaf,
        mat: &mut Mat,
        plan: &SearchPlan,
        scalar: bool,
        start: u16,
    ) {
        let steps = plan.steps();
        let words = mat.select_words();
        let mut running = mat.selected_count() as u64;
        let mut negative = self.restart(plan, start);
        let mut step = start;
        while step < steps && running as usize > PAIRS {
            let pos = plan.position(step);
            let signals = mat.sense(pos, scalar);
            self.one |= u64::from(signals.any_one) << step;
            self.zero |= u64::from(signals.any_zero) << step;
            if plan.is_sign_step(step) {
                negative = plan.survivors_negative(signals.any_one, signals.any_zero);
            }
            if !signals.all_same() {
                let keep = plan.keep_bit(step, negative);
                let gone = mat.exclude_saving(pos, keep, scalar, &mut leaf.words);
                let top = leaf.words.len() - words;
                let rows = Rows::of(&leaf.words[top..], gone, mat);
                if rows.paired() {
                    leaf.words.truncate(top);
                }
                leaf.splits.push(Split {
                    step,
                    removed: rows,
                });
                running -= gone;
            }
            step += 1;
        }
        if running as usize <= PAIRS {
            let rows = Rows::of(mat.select().words(), running, mat);
            return self.descend_rows(leaf, plan, step, rows);
        }
        // Every step ran on more than [`PAIRS`] rows: they tie.
        leaf.last = Rows {
            len: running,
            ..Rows::default()
        };
        leaf.last_words.clear();
        mat.save_select(&mut leaf.last_words);
        let first = mat
            .first_selected()
            .expect("a descent keeps at least one row");
        self.survivor = Some(Survivor {
            slot: leaf.base + u64::from(first),
            raw: mat.read_slot(first),
        });
    }

    /// Descends from `start` over `rows` (paired), recording each
    /// exclusion's removed rows. The signals before `start` stand.
    /// Stepping stops at the collapse; the rest of the signals are the
    /// survivor's own bits.
    fn descend_rows(&mut self, leaf: &mut Leaf, plan: &SearchPlan, start: u16, mut rows: Rows) {
        let steps = plan.steps();
        let mut negative = self.restart(plan, start);
        let mut step = start;
        while step < steps && rows.len > 1 {
            let pos = plan.position(step);
            let live = &rows.bits[..rows.len as usize];
            let any_one = live.iter().any(|&bits| bits >> pos & 1 == 1);
            let any_zero = live.iter().any(|&bits| bits >> pos & 1 == 0);
            self.one |= u64::from(any_one) << step;
            self.zero |= u64::from(any_zero) << step;
            if plan.is_sign_step(step) {
                negative = plan.survivors_negative(any_one, any_zero);
            }
            if any_one && any_zero {
                let (kept, gone) = rows.split(pos, plan.keep_bit(step, negative));
                leaf.splits.push(Split {
                    step,
                    removed: gone,
                });
                rows = kept;
            }
            step += 1;
        }
        leaf.last = rows;
        leaf.last_words.clear();
        let raw = rows.bits[0];
        // Bit `s` of `by_step` is the raw bit that step `s` senses.
        let by_step = raw.reverse_bits() >> (MAX_STEPS - steps as usize);
        let tail = step_mask(steps) & !step_mask(step);
        self.one |= by_step & tail;
        self.zero |= !by_step & tail;
        self.survivor = Some(Survivor {
            slot: leaf.base + u64::from(rows.slots[0]),
            raw,
        });
    }
}

/// `ALIVE[MAX_STEPS - n..][..MAX_STEPS]` is all ones in its first `n`
/// lanes and zero in the rest. Sliding that window, rather than comparing
/// each lane's step with `n`, makes a merge's `act` fold a handful of
/// vector ands and adds.
const ALIVE: [u16; 2 * MAX_STEPS] = {
    let mut lanes = [0; 2 * MAX_STEPS];
    let mut s = 0;
    while s < MAX_STEPS {
        lanes[s] = u16::MAX;
        s += 1;
    }
    lanes
};

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
    /// Heap-ordered traces; index 0 is unused.
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
    /// Panics if the span holds more than `u16::MAX` mats.
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
        assert!(
            mats <= usize::from(u16::MAX),
            "span too large for per-step mat counts"
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
        self.cells.truncate(mats);
        self.cells.iter_mut().for_each(Leaf::clear);
        self.cells.resize_with(mats, Leaf::default);
        self.marked.clear();
        self.marked.resize(self.leaves, false);
    }

    /// Brings leaf `leaf` up to date with `mat` (see the module docs):
    /// re-runs it from `membership` if the mat changed, or resumes it
    /// without its pending winner. Returns whether its trace changed; its
    /// ancestors are stale until [`MemoTree::refold`] or
    /// [`MemoTree::refold_marked`].
    pub(crate) fn refresh(
        &mut self,
        leaf: usize,
        mat: &mut Mat,
        membership: Membership<'_>,
        scalar: bool,
    ) -> bool {
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
            cell.generation = Some(mat.generation());
            true
        } else if let Some(slot) = cell.pending.take() {
            trace.resume(cell, mat, &self.plan, scalar, slot);
            true
        } else {
            false
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

    /// Re-merges the ancestors of `leaf`, bottom-up, after its trace
    /// changed ([`MemoTree::refresh`]).
    pub(crate) fn refold(&mut self, leaf: usize) {
        let mut node = (self.leaves + leaf) / 2;
        while node > 0 {
            self.merge(node);
            node /= 2;
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
                self.merge(node);
            }
        }
    }

    /// Folds node `node`'s children into their union's descent in closed
    /// form, reading the two children alone (see the module docs for why
    /// it is exact). With an empty child the union is the other child.
    fn merge(&mut self, node: usize) {
        let (head, kids) = self.nodes.split_at_mut(2 * node);
        let this = &mut head[node];
        let (lo, hi) = (&kids[0], &kids[1]);
        if lo.selected == 0 || hi.selected == 0 {
            this.clone_from(if hi.selected == 0 { lo } else { hi });
            return;
        }
        let (one, zero) = (lo.one | hi.one, lo.zero | hi.zero);
        let negative =
            self.plan.is_sign_step(0) && self.plan.survivors_negative(one & 1 != 0, zero & 1 != 0);
        let keep = self.keep[usize::from(negative)];
        let mixed = one & zero;
        let dies =
            |kid: &Trace| mixed & ((kid.one & !kid.zero & !keep) | (kid.zero & !kid.one & keep));
        let lo_dies = dies(lo);
        let death = lo_dies | dies(hi);
        // Both children are alive at steps `0..through`: through the
        // first death, or every step if neither dies. The child dying
        // there loses.
        let through = (death.trailing_zeros() as usize + 1).min(MAX_STEPS);
        let (winner, loser) = if lo_dies & death & death.wrapping_neg() != 0 {
            (hi, lo)
        } else {
            (lo, hi)
        };
        let shared = step_mask(through as u16);
        this.one = (one & shared) | (winner.one & !shared);
        this.zero = (zero & shared) | (winner.zero & !shared);
        this.selected = lo.selected + hi.selected;
        this.survivor = winner.survivor;
        this.steps = if death == 0 {
            self.plan.steps()
        } else {
            winner.steps.max(through as u16)
        };
        // act[s] = winner.act[s] + (s < through ? loser.act[s] : 0).
        let alive = &ALIVE[MAX_STEPS - through..][..MAX_STEPS];
        let lanes = this.act.iter_mut().zip(&winner.act).zip(&loser.act);
        for (((act, &w), &l), &alive) in lanes.zip(alive) {
            *act = w + (l & alive);
        }
    }

    /// The span's descent, read from the root. `None` for an empty span.
    pub(crate) fn descent(&self) -> Option<Descent> {
        let root = &self.nodes[1];
        let winner = root.survivor?;
        let steps = root.steps;
        Some(Descent {
            steps,
            mat_searches: root.act[..steps as usize]
                .iter()
                .copied()
                .map(u64::from)
                .sum(),
            exclusions: u64::from((root.one & root.zero & step_mask(steps)).count_ones()),
            winner,
        })
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
            if memo.refresh(leaf, mat, membership, false) {
                memo.mark(leaf);
            }
        }
        memo.refold_marked();
    }

    /// Extracts `memo`'s winner from `span` the way the chip does: flags
    /// it in `gone`, bumps its mat, resumes its leaf and refolds.
    fn take_winner(memo: &mut MemoTree, span: &mut [Mat], gone: &mut Bitmap) {
        let slot = memo.descent().expect("keys remain").winner.slot;
        let leaf = (slot / SLOTS) as usize;
        gone.set(slot as usize, true);
        span[leaf].bump_generation();
        memo.extracted(leaf, (slot % SLOTS) as u32, span[leaf].generation());
        // The winner's leaf resumes (its generation held).
        let membership = Membership {
            flags: Some(gone),
            base: 0,
            lo: 0,
            hi: 0,
        };
        assert!(memo.refresh(leaf, &mut span[leaf], membership, false));
        memo.refold(leaf);
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
                    // Every node: signals, rows, survivor, steps and `act`.
                    assert_eq!(memo.nodes, fresh.nodes, "{keys:?} {plan:?}");
                    let want = walk(&mut mats(keys), len, &gone, &plan);
                    assert_eq!(memo.descent(), want, "{keys:?} {plan:?}");
                    take_winner(&mut memo, &mut span, &mut gone);
                }
                assert_eq!(memo.descent(), None, "{keys:?} {plan:?} drained");
            }
        }
    }

    #[test]
    fn step_counts_follow_the_last_split_and_the_runner_up() {
        // Each case: keys (slots holding `GONE` are out of the range
        // before the first descent), the extractions before the check,
        // and the steps of leaf 0 and of the root then. u64 minima: bit 2
        // is step 61, bit 1 step 62, bit 0 step 63.
        const GONE: u64 = u64::MAX;
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        // Mat 0 holds `row` alone; mat 1 holds `other`.
        let one_row = |row: u64, other: &[u64]| {
            let mut keys = vec![GONE; SLOTS as usize];
            keys[0] = row;
            keys.extend(other);
            keys
        };
        let cases = [
            // A tie of two 1s after step 62 runs every step ...
            ("tie", vec![1, 1, 3], 0, 64, 64),
            // ... and once one 1 is gone, through its split.
            ("tie, one gone", vec![1, 1, 3], 1, 63, 63),
            // Splits at 62 (2 goes) and 63 (1 goes); taking 0 resumes 63,
            // which removed one row, so the split at 62 is the last.
            ("resumed split", vec![0, 1, 2], 1, 63, 63),
            // A one-row leaf runs no step; beside {3, 2} (split at 63) it
            // wins at 62, where the sibling dies: d + 1.
            ("one row, winning", one_row(0, &[3, 2]), 0, 0, 63),
            // The runner-up is the winner's: {3, 2} beats a lone 4 at 61.
            ("one row, losing", one_row(4, &[3, 2]), 0, 0, 64),
            // Two lone equal rows: no death, every step.
            ("no death", one_row(5, &[5]), 0, 0, 64),
        ];
        for (case, keys, taken, leaf_steps, root_steps) in cases {
            let len = keys.len() as u64;
            let mut span = mats(&keys);
            let mut gone = Bitmap::zeros(span.len() * SLOTS as usize);
            for (slot, _) in keys.iter().enumerate().filter(|(_, &key)| key == GONE) {
                gone.set(slot, true);
            }
            let mut memo = MemoTree::new((0, len), plan, span.len(), SLOTS as u32);
            refresh_all(&mut memo, &mut span, len, &gone);
            for _ in 0..taken {
                take_winner(&mut memo, &mut span, &mut gone);
            }
            assert_eq!(memo.nodes[memo.leaves].steps, leaf_steps, "{case}: leaf 0");
            let descent = memo.descent();
            assert_eq!(descent.unwrap().steps, root_steps, "{case}: root");
            assert_eq!(descent, walk(&mut mats(&keys), len, &gone, &plan), "{case}");
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
            assert!(!memo.refresh(leaf, mat, membership, false));
        }
        // A write to mat 0 re-runs its leaf from its window.
        span[0].write_slot(3, 0);
        refresh_all(&mut memo, &mut span, len, &gone);
        let winner = memo.descent().unwrap().winner;
        assert_eq!((winner.slot, winner.raw), (3, 0));
    }

    #[test]
    #[should_panic(expected = "span too large")]
    fn a_span_past_u16_max_mats_is_refused() {
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        MemoTree::new((0, 1), plan, usize::from(u16::MAX) + 1, SLOTS as u32);
    }

    #[test]
    fn empty_span_has_no_descent() {
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let mut memo = MemoTree::new((0, 1), plan, 3, SLOTS as u32);
        memo.refold_marked();
        assert_eq!(memo.descent(), None);
    }
}
