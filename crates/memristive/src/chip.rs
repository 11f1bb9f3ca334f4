//! The RIME chip: banks/subbanks/mats under a chip controller (§IV-B.2).
//!
//! The chip controller coordinates the bit-serial search across mats using
//! the two-signal protocol of Fig. 9: every active mat reports, per column
//! search, whether its selected cells were all-equal and whether any held a
//! 1; the controller wire-ORs these, decides globally whether an exclusion
//! is warranted, and orders every mat to latch its match vector (or not).
//! After the search converges, the data/index H-tree priority-encodes the
//! winner's address (Fig. 10), the row is read out, and its *exclusion
//! flag* is set so subsequent sort accesses skip it (§III-B.1).
//!
//! Mats materialize lazily: a full Table I chip models 2 M key slots, but
//! storage is only allocated for mats that actually hold data.
//!
//! # Parallel mat fan-out
//!
//! In hardware every mat senses its column simultaneously and the
//! signals meet at wire-OR nodes on the way up the H-tree (Fig. 9/10),
//! so a key costs a fixed number of column steps however many mats its
//! range spans. [`ParallelPolicy`] picks how the model computes that
//! descent, on the calling thread; both policies yield the same hits and
//! bit-identical [`OpCounters`].
//!
//! - [`ParallelPolicy::Auto`] (the default) runs the memoized engine
//!   (`crate::memo`). For the length of one extraction call it keeps one
//!   descent trace per span mat and one merged trace per node of a
//!   binary tree over the span, folded with Fig. 10's lower-address
//!   priority. A key re-runs only the previous winner's mat and
//!   re-merges its `log2(span)` ancestors, so host work per key follows
//!   one mat, not the span. Single extractions are batches of one.
//! - [`ParallelPolicy::Sequential`] walks every span mat at every step:
//!   the differential oracle `Auto` is checked against.
//!
//! [`Chip::pool_crossover_mats`] still reports a crossover priced from a
//! one-shot host calibration ([`crate::pool_calibration`], overridable
//! via `RIME_POOL_CROSSOVER`), but no policy consults it.

use crate::array::ColumnSignals;
use crate::bitmap::Bitmap;
use crate::counters::OpCounters;
use crate::encoding::KeyFormat;
use crate::error::Error;
use crate::geometry::ChipGeometry;
use crate::htree::IndexTree;
use crate::mat::{Mat, MatState};
use crate::memo::MemoTree;
use crate::plan::{Direction, SearchPlan};
use crate::pool;
use crate::probe::{SharedProbe, Stopwatch};

/// Result of one in-situ min/max extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractHit {
    /// Global key-slot address of the extracted value (lowest address among
    /// ties — RIME's sort is stable).
    pub slot: u64,
    /// The raw stored bit pattern.
    pub raw_bits: u64,
    /// Column-search steps executed (≤ key width; early exit shortens it).
    pub steps: u16,
}

/// How the chip controller computes each extraction's descent across
/// the range's mats.
///
/// Hardware mats always operate simultaneously; this knob only controls
/// how the *model* computes them, always on the calling thread. Results
/// and [`OpCounters`] are identical under both policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelPolicy {
    /// Walk every mat of the span at every column-search step — the
    /// differential oracle.
    Sequential,
    /// The memoized engine: each span mat's descent is computed once per
    /// extraction call and folded up a binary tree over the span with
    /// Fig. 10's lower-address priority, so after the first key only the
    /// previous winner's mat re-runs and only its `log2(span)` ancestors
    /// re-merge. Reads no calibration. Single-mat spans walk as
    /// `Sequential` does. The default.
    #[default]
    Auto,
}

/// Serializable snapshot of one chip's durable state, for
/// checkpoint/recovery: per-mat cell contents (lazily materialized mats
/// stay `None`), the exclusion flags, the active format/range, and the
/// accumulated [`OpCounters`]. Scheduling knobs ([`ParallelPolicy`],
/// probes) and volatile select latches are not state — a restored chip
/// keeps its own and re-arms latches on the next extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipState {
    /// Per-mat snapshots in mat order; `None` for never-materialized mats.
    pub mats: Vec<Option<MatState>>,
    /// Exclusion flags (one bit per key slot).
    pub excluded: Bitmap,
    /// Format recorded by the last `store_keys`/`init_range`.
    pub format: Option<KeyFormat>,
    /// Active `[begin, end)` range, if initialized.
    pub range: Option<(u64, u64)>,
    /// Accumulated operation counters.
    pub counters: OpCounters,
}

/// One RIME memristive chip.
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Clone)]
pub struct Chip {
    geometry: ChipGeometry,
    mats: Vec<Option<Mat>>,
    tree: IndexTree,
    /// Exclusion flags (CMOS latches, §VII-C — not wear-inducing), one
    /// bit per key slot, allocated by the chip's first extraction: a
    /// Table I chip's flags are a 256 KiB bitmap, and a chip that never
    /// ranks keeps none.
    excluded: Option<Bitmap>,
    format: Option<KeyFormat>,
    range: Option<(u64, u64)>,
    counters: OpCounters,
    parallel: ParallelPolicy,
    /// Route column searches through the row-major scalar oracle instead
    /// of the bit-sliced column shadow. Only settable with the
    /// `scalar-oracle` feature (or in tests); both paths are
    /// observationally identical — hits and counters bit-equal — which
    /// the differential suite proves.
    scalar_oracle: bool,
    /// Host parallelism, queried at construction; prices the reported
    /// crossover ([`Chip::pool_crossover_mats`]). Querying it here rather
    /// than where the crossover is priced is deliberate: moving the
    /// `available_parallelism()` call out of `Chip::new` raised
    /// perfbench's `service_extract` peak RSS from ~10 to ~14 MiB through
    /// heap layout alone, with no extra live data.
    auto_threads: usize,
    /// Extraction observer (rime-core's metrics layer). `None` keeps
    /// every extraction call free of clock reads.
    probe: Option<SharedProbe>,
}

impl std::fmt::Debug for Chip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chip")
            .field("geometry", &self.geometry)
            .field("mats", &self.mats)
            .field("tree", &self.tree)
            .field("excluded", &self.excluded)
            .field("format", &self.format)
            .field("range", &self.range)
            .field("counters", &self.counters)
            .field("parallel", &self.parallel)
            .field("scalar_oracle", &self.scalar_oracle)
            .field("auto_threads", &self.auto_threads)
            .field("probe", &self.probe.as_ref().map(|_| "installed"))
            .finish()
    }
}

impl Chip {
    /// Creates an empty chip with the given geometry.
    pub fn new(geometry: ChipGeometry) -> Chip {
        let mats = geometry.mats() as usize;
        Chip {
            geometry,
            mats: vec![None; mats],
            tree: IndexTree::new(mats, geometry.slots_per_mat()),
            excluded: None,
            format: None,
            range: None,
            counters: OpCounters::new(),
            parallel: ParallelPolicy::Auto,
            scalar_oracle: false,
            auto_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            probe: None,
        }
    }

    /// Installs (or removes) an extraction probe. A probe hears each
    /// extraction call's host time once, read at the rearm/descent
    /// boundaries; it never touches [`OpCounters`], so results and
    /// counters are identical with or without one. See
    /// [`crate::probe::ExtractionProbe`].
    pub fn set_probe(&mut self, probe: Option<SharedProbe>) {
        self.probe = probe;
    }

    /// Routes every column search and exclusion through the row-major
    /// scalar path instead of the bit-sliced column shadow — the
    /// differential oracle. Available only with the `scalar-oracle`
    /// feature (or in unit tests); production builds always run
    /// bit-sliced.
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn set_scalar_oracle(&mut self, scalar: bool) {
        self.scalar_oracle = scalar;
    }

    /// The chip's geometry.
    pub fn geometry(&self) -> &ChipGeometry {
        &self.geometry
    }

    /// The active mat fan-out policy.
    pub fn parallel_policy(&self) -> ParallelPolicy {
        self.parallel
    }

    /// Sets how column-search steps are scheduled across mats. Purely a
    /// model-execution knob: extraction results and counters do not
    /// depend on it.
    pub fn set_parallel_policy(&mut self, policy: ParallelPolicy) {
        self.parallel = policy;
    }

    /// Whether a span of `mats` mats runs the memoized engine: every
    /// multi-mat span under [`ParallelPolicy::Auto`]. A single mat has
    /// nothing to fold, so it always walks.
    fn memoized(&self, mats: usize) -> bool {
        mats > 1 && self.parallel == ParallelPolicy::Auto
    }

    /// Span width (in mats) from which the retired mat-shard pool was
    /// priced to beat the inline walk on this host. Reported only: no
    /// policy consults it. `RIME_POOL_CROSSOVER=<mats>` overrides the
    /// pricing for reproducible runs. Always in `[2, 2^20]`.
    pub fn pool_crossover_mats(&self) -> usize {
        pool::crossover_mats(&self.geometry, self.auto_threads)
    }

    /// Key-slot capacity.
    pub fn capacity(&self) -> u64 {
        self.geometry.capacity_slots()
    }

    /// Accumulated operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Resets the operation counters (not the stored data).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
        self.tree.reset_visits();
    }

    fn mat_mut(&mut self, mat: u32) -> &mut Mat {
        let geometry = self.geometry;
        self.mats[mat as usize]
            .get_or_insert_with(|| Mat::new(geometry.arrays_per_mat, geometry.rows))
    }

    fn check_slot(&self, slot: u64) -> Result<(), Error> {
        if slot >= self.capacity() {
            Err(Error::AddressOutOfRange {
                addr: slot,
                capacity: self.capacity(),
            })
        } else {
            Ok(())
        }
    }

    /// Stores raw key patterns starting at `start_slot` (ordinary DDR4
    /// writes through the interface, §V).
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] if the run exceeds capacity and
    /// [`Error::KeyTooWide`] if the format is wider than an array row.
    pub fn store_keys(
        &mut self,
        start_slot: u64,
        raw_keys: &[u64],
        format: KeyFormat,
    ) -> Result<(), Error> {
        if raw_keys.is_empty() {
            return Ok(());
        }
        let past_the_top = Error::AddressOutOfRange {
            addr: start_slot,
            capacity: self.capacity(),
        };
        let last = start_slot
            .checked_add(raw_keys.len() as u64 - 1)
            .ok_or(past_the_top)?;
        self.check_slot(last)?;
        if u32::from(format.bits()) > self.geometry.cols.min(64) {
            return Err(Error::KeyTooWide {
                bits: format.bits(),
                max: self.geometry.cols.min(64) as u16,
            });
        }
        for (offset, &raw) in raw_keys.iter().enumerate() {
            let slot = start_slot + offset as u64;
            let (mat, local) = self.geometry.split_slot(slot);
            self.mat_mut(mat).write_slot(local, raw);
        }
        self.counters.row_writes += raw_keys.len() as u64;
        self.format = Some(format);
        Ok(())
    }

    /// Reads back the raw key stored at `slot` (ordinary DDR4 read).
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] for slots beyond capacity.
    pub fn read_key(&mut self, slot: u64) -> Result<u64, Error> {
        self.check_slot(slot)?;
        let (mat, local) = self.geometry.split_slot(slot);
        self.counters.row_reads += 1;
        Ok(self.mats[mat as usize]
            .as_ref()
            .map_or(0, |m| m.read_slot(local)))
    }

    /// `rime_init`: prepares the range `[begin, end)` for a new
    /// sort/rank/merge operation — clears its exclusion flags and walks the
    /// H-tree downstream to latch the select vectors (Fig. 11).
    ///
    /// Format agreement between stored data and ranking operations is the
    /// responsibility of the API library (`rime-core`), which tracks the
    /// format per allocation; the chip accepts whatever interpretation the
    /// controller configures.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyRange`] or [`Error::AddressOutOfRange`] for a
    /// bad range.
    pub fn init_range(&mut self, begin: u64, end: u64, format: KeyFormat) -> Result<(), Error> {
        if begin >= end {
            return Err(Error::EmptyRange { begin, end });
        }
        self.check_slot(end - 1)?;
        if let Some(flags) = &mut self.excluded {
            flags.clear_range(begin as usize, end as usize);
        }
        self.load_selection(begin, end);
        self.format = Some(format);
        self.range = Some((begin, end));
        self.counters.init_ops += 1;
        Ok(())
    }

    /// Re-latches the select vectors for the active range, skipping
    /// excluded slots. This is what the controller performs between sort
    /// accesses to rearm the search.
    ///
    /// Word-level: the span membership ([`Chip::span_membership`]) is
    /// assembled with masked word operations, then each touched mat
    /// latches its window of it in one pass — no per-slot walks. Counter
    /// semantics are unchanged (one select load, one H-tree traversal).
    fn load_selection(&mut self, begin: u64, end: u64) {
        let (first_mat, last_mat) = self.mat_span(begin, end);
        self.clear_selects_outside(first_mat, last_mat);
        let membership = self.span_membership(begin, end);

        // The downstream tree walk names the touched mats (and keeps the
        // node-visit accounting identical); each one latches its window.
        // Materializing via `mat_mut` keeps select latches available even
        // before data was stored (normal for sparse test setups).
        let per_mat = self.geometry.slots_per_mat() as usize;
        let ranges = self.tree.init_range(begin, end);
        for range in ranges {
            let window = (range.mat as usize - first_mat) * per_mat;
            self.mat_mut(range.mat)
                .load_select_window(&membership, window);
        }
        self.counters.select_loads += 1;
        self.counters.htree_traversals += 1;
    }

    /// The select membership of `[begin, end)` — the range minus its
    /// exclusion flags — over the range's mat span only: bit `i` stands
    /// for key slot `first_mat × slots_per_mat + i`. Every extraction
    /// path (single and batch) latches its select windows from this
    /// vector, so its host cost follows the span, not the chip.
    fn span_membership(&self, begin: u64, end: u64) -> Bitmap {
        let per_mat = self.geometry.slots_per_mat() as usize;
        let (first_mat, last_mat) = self.mat_span(begin, end);
        let span_base = first_mat * per_mat;
        let span_slots = (last_mat - first_mat + 1) * per_mat;
        let mut membership = Bitmap::zeros(span_slots);
        membership.set_range(begin as usize - span_base, end as usize - span_base);
        if let Some(flags) = &self.excluded {
            membership.and_not_assign(&flags.slice(span_base, span_slots));
        }
        membership
    }

    /// Clears the stale select latches of materialized mats outside
    /// `[first_mat, last_mat]` — the one pass over the chip's mats an
    /// extraction call makes. In-span mats need no clearing: every rearm
    /// overwrites their whole select vector. With nothing selected
    /// outside the span, the span alone decides every step and the
    /// index reduction ([`IndexTree::reduce_window`]).
    fn clear_selects_outside(&mut self, first_mat: usize, last_mat: usize) {
        for (idx, mat) in self.mats.iter_mut().enumerate() {
            if !(first_mat..=last_mat).contains(&idx) {
                if let Some(mat) = mat {
                    mat.clear_select();
                }
            }
        }
    }

    /// Flags `slot` excluded for later accesses, allocating the flags on
    /// the chip's first extraction.
    fn flag_excluded(&mut self, slot: u64) {
        let slots = self.capacity() as usize;
        self.excluded
            .get_or_insert_with(|| Bitmap::zeros(slots))
            .set(slot as usize, true);
    }

    /// Number of not-yet-extracted keys in the active range.
    pub fn remaining(&self) -> u64 {
        match self.range {
            None => 0,
            Some((begin, end)) => {
                let excluded = self.excluded.as_ref().map_or(0, |flags| {
                    flags.count_ones_in_range(begin as usize, end as usize) as u64
                });
                end - begin - excluded
            }
        }
    }

    /// The active range, if initialized.
    pub fn active_range(&self) -> Option<(u64, u64)> {
        self.range
    }

    /// Extracts the next minimum (or maximum) from the active range: runs
    /// the bit-serial search, priority-encodes the winner, reads it out,
    /// and flags it for exclusion. Returns `None` when the range is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInitialized`] if no `init_range` is active.
    pub fn extract(&mut self, direction: Direction) -> Result<Option<ExtractHit>, Error> {
        let (begin, end) = self.range.ok_or(Error::NotInitialized)?;
        let format = self.format.ok_or(Error::NotInitialized)?;
        self.extract_range(begin, end, format, direction)
    }

    /// Extracts the next extreme of an explicit `[begin, end)` range —
    /// the concurrent-range form §III-B.3 requires for merge operations
    /// ("the in-memory hardware implements concurrent min/max computation
    /// on multiple data ranges"). Exclusion flags are shared chip state,
    /// so concurrent ranges must be disjoint; each range still needs a
    /// prior [`Chip::init_range`] to clear its flags.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyRange`]/[`Error::AddressOutOfRange`] for bad
    /// ranges.
    pub fn extract_range(
        &mut self,
        begin: u64,
        end: u64,
        format: KeyFormat,
        direction: Direction,
    ) -> Result<Option<ExtractHit>, Error> {
        if begin >= end {
            return Err(Error::EmptyRange { begin, end });
        }
        self.check_slot(end - 1)?;
        let (first_mat, last_mat) = self.mat_span(begin, end);
        if self.memoized(last_mat - first_mat + 1) {
            return Ok(self
                .extract_range_batch(begin, end, format, direction, 1)?
                .pop());
        }
        let plan = SearchPlan::new(format, direction);

        // Rearm the select vectors (range minus exclusion flags).
        let mut watch = Stopwatch::start(self.probe.clone());
        self.load_selection(begin, end);
        watch.rearmed();

        let mut selected: u64 = 0;
        for mat in self.mats[first_mat..=last_mat].iter().flatten() {
            selected += mat.selected_count() as u64;
        }
        let hit = (selected > 0).then(|| self.converge_host(first_mat, last_mat, &plan, selected));
        if hit.is_some() {
            watch.descended();
        }
        watch.finish();
        Ok(hit)
    }

    /// Extracts up to `k` consecutive extremes from the active range — the
    /// top-k form of [`Chip::extract`]. Stops early (with a short vector)
    /// once the range is exhausted.
    ///
    /// Equivalent to calling `extract` until `k` hits are collected or it
    /// returns `None`: same slots, same raw bits, same stable lowest-
    /// address tie-breaking, identical [`OpCounters`]. What the batch form
    /// amortizes is host-side work: the select-vector rearm between
    /// consecutive extractions latches a word-level membership vector
    /// (one [`Bitmap::slice`] per mat) instead of re-walking the H-tree
    /// slot by slot, and range decoding/planning happen once.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInitialized`] if no `init_range` is active.
    pub fn extract_batch(
        &mut self,
        direction: Direction,
        k: usize,
    ) -> Result<Vec<ExtractHit>, Error> {
        let (begin, end) = self.range.ok_or(Error::NotInitialized)?;
        let format = self.format.ok_or(Error::NotInitialized)?;
        self.extract_range_batch(begin, end, format, direction, k)
    }

    /// Batched form of [`Chip::extract_range`]: up to `k` consecutive
    /// extremes from an explicit `[begin, end)` range. See
    /// [`Chip::extract_batch`] for the equivalence and amortization
    /// guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyRange`]/[`Error::AddressOutOfRange`] for bad
    /// ranges.
    pub fn extract_range_batch(
        &mut self,
        begin: u64,
        end: u64,
        format: KeyFormat,
        direction: Direction,
        k: usize,
    ) -> Result<Vec<ExtractHit>, Error> {
        if begin >= end {
            return Err(Error::EmptyRange { begin, end });
        }
        self.check_slot(end - 1)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let plan = SearchPlan::new(format, direction);
        let (first_mat, last_mat) = self.mat_span(begin, end);
        let per_mat = self.geometry.slots_per_mat() as usize;
        let span_base = (first_mat * per_mat) as u64;

        // The call's setup times as part of its first rearm.
        let mut watch = Stopwatch::start(self.probe.clone());
        // Host-side span membership, kept in sync as winners are
        // extracted so each rearm is a word-parallel latch instead of a
        // per-slot H-tree walk.
        let mut membership = self.span_membership(begin, end);
        self.clear_selects_outside(first_mat, last_mat);

        let mut selected = membership.count_ones() as u64;
        let mut hits = Vec::with_capacity(k.min(selected as usize));
        // The memoized engine keeps each mat's descent for the whole
        // call; the walk re-senses every mat per key.
        let mut memo = self
            .memoized(last_mat - first_mat + 1)
            .then(|| MemoTree::new(last_mat - first_mat + 1, plan));
        // The span mat whose membership window changed since the last key
        // (`None`: every mat, before the first key).
        let mut dirty: Option<usize> = None;
        for _ in 0..k {
            // Rearm: one select-vector load through the H-tree, exactly as
            // the single-key path counts it. Each mat latches its window of
            // the membership vector in place — zero allocations per
            // iteration. The memo engine re-latches only the mat it will
            // re-run.
            let rearmed = match (&memo, dirty) {
                (Some(_), Some(mat)) => first_mat + mat..=first_mat + mat,
                _ => first_mat..=last_mat,
            };
            for idx in rearmed {
                self.mat_mut(idx as u32)
                    .load_select_window(&membership, (idx - first_mat) * per_mat);
            }
            self.counters.select_loads += 1;
            self.counters.htree_traversals += 1;
            watch.rearmed();

            if selected == 0 {
                break;
            }
            let hit = match &mut memo {
                Some(memo) => self.converge_memo(first_mat, last_mat, memo, dirty),
                None => self.converge_host(first_mat, last_mat, &plan, selected),
            };
            watch.descended();
            let span_slot = (hit.slot - span_base) as usize;
            membership.set(span_slot, false);
            selected -= 1;
            dirty = Some(span_slot / per_mat);
            hits.push(hit);
        }
        watch.finish();
        Ok(hits)
    }

    /// Indices of the first and last mats a `[begin, end)` range touches.
    fn mat_span(&self, begin: u64, end: u64) -> (usize, usize) {
        let per_mat = self.geometry.slots_per_mat();
        ((begin / per_mat) as usize, ((end - 1) / per_mat) as usize)
    }

    /// Runs the bit-serial search to convergence over `selected` armed
    /// rows in `mats[first_mat..=last_mat]`, priority-encodes the winner,
    /// reads it out, and flags it excluded. The caller has already armed
    /// the select vectors and counted `selected > 0`.
    fn converge_host(
        &mut self,
        first_mat: usize,
        last_mat: usize,
        plan: &SearchPlan,
        mut selected: u64,
    ) -> ExtractHit {
        let mut survivors_negative = false;
        let mut steps_executed = 0u16;
        for step in 0..plan.steps() {
            if selected <= 1 {
                break; // §IV-B.2: stop once a single value remains
            }
            steps_executed += 1;
            let pos = plan.position(step);

            // Column search on every active mat; wire-OR the signals.
            let (global, active_mats) =
                sense_step(&self.mats[first_mat..=last_mat], pos, self.scalar_oracle);
            self.counters.column_search_steps += 1;
            self.counters.mat_column_searches += active_mats;

            if plan.is_sign_step(step) {
                survivors_negative = plan.survivors_negative(global.any_one, global.any_zero);
            }

            // The global all-0-or-1 gate: only exclude when the column is
            // non-uniform across the whole selected set.
            if !global.all_same() {
                let keep = plan.keep_bit(step, survivors_negative);
                let removed = exclude_step(
                    &mut self.mats[first_mat..=last_mat],
                    pos,
                    keep,
                    self.scalar_oracle,
                );
                self.counters.select_loads += 1;
                selected -= removed;
            }
        }

        // Upstream index reduction (Fig. 10) over the span's leaves: the
        // caller cleared every select outside the span, so no other mat
        // can raise E.
        let mats = &self.mats;
        let slot = self
            .tree
            .reduce_window(first_mat..=last_mat, |m| {
                mats[m].as_ref().and_then(Mat::first_selected)
            })
            .expect("non-empty selection must reduce to a winner");
        self.counters.htree_traversals += 1;

        // Read the winner out and flag it excluded for later accesses.
        let (mat, local) = self.geometry.split_slot(slot);
        let raw_bits = self.mats[mat as usize]
            .as_ref()
            .expect("winning mat is materialized")
            .read_slot(local);
        self.counters.row_reads += 1;
        self.flag_excluded(slot);
        self.counters.extractions += 1;

        ExtractHit {
            slot,
            raw_bits,
            steps: steps_executed,
        }
    }

    /// Memoized twin of [`Chip::converge_host`]: re-runs the descent of
    /// span mat `dirty` (of every span mat when `None`, for a call's
    /// first key), re-merges its ancestors in `memo`, and reads the
    /// span's descent off the root. The caller has rearmed the re-run
    /// mats' select windows and counted `selected > 0`. Counter
    /// arithmetic matches the host path line for line.
    fn converge_memo(
        &mut self,
        first_mat: usize,
        last_mat: usize,
        memo: &mut MemoTree,
        dirty: Option<usize>,
    ) -> ExtractHit {
        let per_mat = self.geometry.slots_per_mat();
        let leaves = match dirty {
            Some(leaf) => leaf..=leaf,
            None => 0..=last_mat - first_mat,
        };
        for leaf in leaves {
            let mat = self.mats[first_mat + leaf]
                .as_mut()
                .expect("span mats are materialized");
            memo.speculate(leaf, mat, leaf as u64 * per_mat, self.scalar_oracle);
        }
        match dirty {
            Some(leaf) => memo.refold(leaf),
            None => memo.fold_all(),
        }
        let descent = memo
            .descent()
            .expect("non-empty selection must reduce to a winner");
        self.counters.column_search_steps += u64::from(descent.steps);
        self.counters.mat_column_searches += descent.mat_searches;
        self.counters.select_loads += descent.exclusions;

        // The root's survivor is the index reduction's winner (Fig. 10),
        // and its raw bits came with it.
        self.counters.htree_traversals += 1;
        let slot = first_mat as u64 * per_mat + descent.winner.slot;
        self.counters.row_reads += 1;
        self.flag_excluded(slot);
        self.counters.extractions += 1;

        ExtractHit {
            slot,
            raw_bits: descent.winner.raw,
            steps: descent.steps,
        }
    }

    /// Snapshots the chip's durable state — see [`ChipState`] for the
    /// capture boundary.
    pub fn state(&self) -> ChipState {
        ChipState {
            mats: self
                .mats
                .iter()
                .map(|m| m.as_ref().map(Mat::state))
                .collect(),
            excluded: self
                .excluded
                .clone()
                .unwrap_or_else(|| Bitmap::zeros(self.capacity() as usize)),
            format: self.format,
            range: self.range,
            counters: self.counters,
        }
    }

    /// Restores the chip's durable state from a snapshot taken on a chip
    /// of the same geometry. Select latches come up cleared (every
    /// extraction re-arms them) and the H-tree is rebuilt fresh.
    /// Scheduling knobs are kept.
    ///
    /// Returns `false` — leaving the chip untouched — when the snapshot
    /// disagrees with this chip's geometry or is internally inconsistent
    /// (a mat of the wrong shape, or an active range that is empty or
    /// runs past the chip's capacity).
    pub fn restore_state(&mut self, state: &ChipState) -> bool {
        if state.mats.len() != self.mats.len() || state.excluded.len() as u64 != self.capacity() {
            return false;
        }
        if let Some((begin, end)) = state.range {
            if begin >= end || end > self.capacity() {
                return false;
            }
        }
        let mut mats: Vec<Option<Mat>> = Vec::with_capacity(state.mats.len());
        for mat_state in &state.mats {
            match mat_state {
                None => mats.push(None),
                Some(ms) => {
                    match Mat::from_state(ms, self.geometry.arrays_per_mat, self.geometry.rows) {
                        Some(mat) => mats.push(Some(mat)),
                        None => return false,
                    }
                }
            }
        }
        self.mats = mats;
        self.tree = IndexTree::new(state.mats.len(), self.geometry.slots_per_mat());
        self.excluded = Some(state.excluded.clone());
        self.format = state.format;
        self.range = state.range;
        self.counters = state.counters;
        true
    }

    /// Injects a stuck-at fault into the cell holding bit `bit` of the
    /// key at `slot` — for failure-injection tests (§VII-C endurance
    /// failures freeze cells in one resistance state).
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] for slots beyond capacity.
    pub fn inject_stuck_cell(&mut self, slot: u64, bit: u16, stuck: bool) -> Result<(), Error> {
        self.check_slot(slot)?;
        let (mat, local) = self.geometry.split_slot(slot);
        self.mat_mut(mat).inject_stuck_cell(local, bit, stuck);
        Ok(())
    }

    /// Most-written slot's write count across the chip (endurance study).
    pub fn max_wear(&self) -> u32 {
        self.mats
            .iter()
            .flatten()
            .map(Mat::max_wear)
            .max()
            .unwrap_or(0)
    }

    /// Total writes absorbed by the chip's arrays.
    pub fn total_writes(&self) -> u64 {
        self.mats.iter().flatten().map(Mat::total_writes).sum()
    }

    /// Per-mat write counts (index = mat number; unmaterialized mats
    /// report 0). The wear-heatmap source: row writes are the only
    /// wear-inducing operation (§VII-C), so this matrix localizes
    /// endurance hot spots to individual mats.
    pub fn wear_by_mat(&self) -> Vec<u64> {
        self.mats
            .iter()
            .map(|m| m.as_ref().map_or(0, Mat::total_writes))
            .collect()
    }
}

/// One column-search step across a mat span: every active mat senses bit
/// `pos` and the signals wire-OR upstream (Fig. 9). Returns the merged
/// signals and the number of active mats.
fn sense_step(mats: &[Option<Mat>], pos: u16, scalar: bool) -> (ColumnSignals, u64) {
    let mut signals = ColumnSignals::default();
    let mut active = 0u64;
    for mat in mats.iter().flatten() {
        if mat.selected_count() == 0 {
            continue;
        }
        active += 1;
        signals.merge(mat.sense(pos, scalar));
    }
    (signals, active)
}

/// One global exclusion across a mat span: every active mat latches its
/// match vector for (`pos`, `keep`). Returns total rows deselected.
fn exclude_step(mats: &mut [Option<Mat>], pos: u16, keep: bool, scalar: bool) -> u64 {
    let mut removed = 0u64;
    for mat in mats.iter_mut().flatten() {
        if mat.selected_count() == 0 {
            continue;
        }
        removed += mat.exclude(pos, keep, scalar);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::SortableBits;

    fn chip_with<T: SortableBits>(keys: &[T]) -> Chip {
        let mut chip = Chip::new(ChipGeometry::tiny());
        let raw: Vec<u64> = keys.iter().map(|k| k.to_raw_bits()).collect();
        chip.store_keys(0, &raw, T::FORMAT).unwrap();
        chip.init_range(0, keys.len() as u64, T::FORMAT).unwrap();
        chip
    }

    fn drain<T: SortableBits>(chip: &mut Chip, direction: Direction) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(hit) = chip.extract(direction).unwrap() {
            out.push(T::from_raw_bits(hit.raw_bits));
        }
        out
    }

    #[test]
    fn sorts_unsigned_ascending() {
        let keys = [43u32, 7, 99, 0, 255, 7, 128, 1];
        let mut chip = chip_with(&keys);
        let sorted: Vec<u32> = drain(&mut chip, Direction::Min);
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn sorts_unsigned_descending_with_max() {
        let keys = [5u64, 1, 9, 9, 3];
        let mut chip = chip_with(&keys);
        let sorted: Vec<u64> = drain(&mut chip, Direction::Max);
        let mut want = keys.to_vec();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sorted, want);
    }

    #[test]
    fn sorts_signed_with_negatives() {
        let keys = [-5i32, 3, -8, 0, 7, -1, i32::MIN, i32::MAX];
        let mut chip = chip_with(&keys);
        let sorted: Vec<i32> = drain(&mut chip, Direction::Min);
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn sorts_floats_total_order() {
        let keys = [18.0f32, -1.625, -0.75, 0.0, -0.0, 1e-10, -1e10];
        let mut chip = chip_with(&keys);
        let sorted: Vec<f32> = drain(&mut chip, Direction::Min);
        let mut want = keys.to_vec();
        want.sort_unstable_by(f32::total_cmp);
        assert_eq!(
            sorted.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn extraction_spans_mats() {
        // tiny geometry: 2 mats × 32 slots. Place keys in both mats.
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.store_keys(0, &[50, 40], KeyFormat::UNSIGNED32)
            .unwrap();
        chip.store_keys(33, &[10, 60], KeyFormat::UNSIGNED32)
            .unwrap();
        chip.init_range(0, 64, KeyFormat::UNSIGNED32).unwrap();
        // Empty (zero) slots participate: zeros come out first. Restrict
        // to explicit sub-ranges instead.
        chip.init_range(33, 35, KeyFormat::UNSIGNED32).unwrap();
        let hit = chip.extract(Direction::Min).unwrap().unwrap();
        assert_eq!(hit.slot, 33);
        assert_eq!(hit.raw_bits, 10);
    }

    #[test]
    fn stability_lowest_address_wins_ties() {
        let keys = [7u32, 3, 3, 9, 3];
        let mut chip = chip_with(&keys);
        let slots: Vec<u64> =
            std::iter::from_fn(|| chip.extract(Direction::Min).unwrap().map(|h| h.slot)).collect();
        assert_eq!(slots, vec![1, 2, 4, 0, 3]);
    }

    #[test]
    fn exclusion_flags_persist_until_reinit() {
        let keys = [4u32, 2, 6];
        let mut chip = chip_with(&keys);
        // The flags are allocated by the first extraction; a snapshot
        // holds every slot's flag either way.
        assert!(chip.excluded.is_none());
        assert_eq!(chip.state().excluded.len() as u64, chip.capacity());
        assert_eq!(chip.extract(Direction::Min).unwrap().unwrap().raw_bits, 2);
        assert_eq!(chip.state().excluded.count_ones(), 1);
        assert_eq!(chip.remaining(), 2);
        // Re-init rearms everything.
        chip.init_range(0, 3, KeyFormat::UNSIGNED32).unwrap();
        assert_eq!(chip.remaining(), 3);
        assert_eq!(chip.extract(Direction::Min).unwrap().unwrap().raw_bits, 2);
    }

    #[test]
    fn extract_without_init_errors() {
        let mut chip = Chip::new(ChipGeometry::tiny());
        assert_eq!(chip.extract(Direction::Min), Err(Error::NotInitialized));
    }

    #[test]
    fn init_rejects_bad_ranges() {
        let mut chip = Chip::new(ChipGeometry::tiny());
        assert!(matches!(
            chip.init_range(5, 5, KeyFormat::UNSIGNED32),
            Err(Error::EmptyRange { .. })
        ));
        assert!(matches!(
            chip.init_range(0, 10_000, KeyFormat::UNSIGNED32),
            Err(Error::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn store_rejects_overflow_and_wide_keys() {
        let mut chip = Chip::new(ChipGeometry::tiny());
        let too_many = vec![0u64; chip.capacity() as usize + 1];
        assert!(matches!(
            chip.store_keys(0, &too_many, KeyFormat::UNSIGNED64),
            Err(Error::AddressOutOfRange { .. })
        ));
        // tiny geometry has 64 columns, so 64-bit keys are fine; check via
        // a narrower geometry.
        let mut narrow = ChipGeometry::tiny();
        narrow.cols = 32;
        let mut chip = Chip::new(narrow);
        assert!(matches!(
            chip.store_keys(0, &[1], KeyFormat::UNSIGNED64),
            Err(Error::KeyTooWide { .. })
        ));
    }

    #[test]
    fn concurrent_ranges_extract_independently() {
        // §III-B.3: merge needs concurrent min/max on multiple ranges.
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.store_keys(0, &[5, 1, 3], KeyFormat::UNSIGNED32)
            .unwrap();
        chip.store_keys(8, &[4, 8], KeyFormat::UNSIGNED32).unwrap();
        chip.init_range(0, 3, KeyFormat::UNSIGNED32).unwrap();
        chip.init_range(8, 10, KeyFormat::UNSIGNED32).unwrap();
        let a = chip
            .extract_range(0, 3, KeyFormat::UNSIGNED32, Direction::Min)
            .unwrap()
            .unwrap();
        let b = chip
            .extract_range(8, 10, KeyFormat::UNSIGNED32, Direction::Min)
            .unwrap()
            .unwrap();
        assert_eq!(a.raw_bits, 1);
        assert_eq!(b.raw_bits, 4);
        // Interleaved continuation: exclusion flags are per range.
        let a2 = chip
            .extract_range(0, 3, KeyFormat::UNSIGNED32, Direction::Min)
            .unwrap()
            .unwrap();
        assert_eq!(a2.raw_bits, 3);
    }

    #[test]
    fn early_exit_shortens_steps() {
        // A single-key range converges immediately (0 steps).
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.store_keys(0, &[42], KeyFormat::UNSIGNED32).unwrap();
        chip.init_range(0, 1, KeyFormat::UNSIGNED32).unwrap();
        let hit = chip.extract(Direction::Min).unwrap().unwrap();
        assert_eq!(hit.steps, 0);
        assert_eq!(hit.raw_bits, 42);
    }

    #[test]
    fn counters_track_operations() {
        let keys = [4u32, 2, 6, 1];
        let mut chip = chip_with(&keys);
        let base_writes = chip.counters().row_writes;
        assert_eq!(base_writes, 4);
        let _ = chip.extract(Direction::Min).unwrap();
        let c = chip.counters();
        assert!(c.column_search_steps > 0);
        assert_eq!(c.extractions, 1);
        assert_eq!(c.row_reads, 1);
        assert_eq!(chip.total_writes(), 4);
        assert_eq!(chip.max_wear(), 1);
    }

    #[test]
    fn extract_batch_matches_sequential_loop() {
        let keys = [43u32, 7, 99, 0, 255, 7, 128, 1];
        let mut seq = chip_with(&keys);
        let mut bat = chip_with(&keys);
        let mut want = Vec::new();
        for _ in 0..5 {
            match seq.extract(Direction::Min).unwrap() {
                Some(hit) => want.push(hit),
                None => break,
            }
        }
        let got = bat.extract_batch(Direction::Min, 5).unwrap();
        assert_eq!(got, want);
        assert_eq!(bat.counters(), seq.counters());
        // The two chips stay interchangeable afterwards.
        assert_eq!(
            bat.extract(Direction::Min).unwrap(),
            seq.extract(Direction::Min).unwrap()
        );
    }

    #[test]
    fn extract_batch_overasking_stops_at_exhaustion() {
        let keys = [5u32, 2, 9];
        let mut seq = chip_with(&keys);
        let mut bat = chip_with(&keys);
        let got = bat.extract_batch(Direction::Max, 10).unwrap();
        assert_eq!(
            got.iter().map(|h| h.raw_bits).collect::<Vec<_>>(),
            vec![9, 5, 2]
        );
        // Sequential equivalent: three hits then one exhausted probe.
        let mut want = Vec::new();
        while let Some(hit) = seq.extract(Direction::Max).unwrap() {
            want.push(hit);
        }
        assert_eq!(got, want);
        assert_eq!(bat.counters(), seq.counters());
    }

    #[test]
    fn extract_batch_zero_is_a_noop() {
        let mut chip = chip_with(&[3u32, 1]);
        let before = *chip.counters();
        assert_eq!(chip.extract_batch(Direction::Min, 0).unwrap(), vec![]);
        assert_eq!(*chip.counters(), before);
    }

    #[test]
    fn extract_batch_without_init_errors() {
        let mut chip = Chip::new(ChipGeometry::tiny());
        assert_eq!(
            chip.extract_batch(Direction::Min, 3),
            Err(Error::NotInitialized)
        );
    }

    #[test]
    fn parallel_policy_is_observationally_invisible() {
        // Same keys under both policies (the full walk and the memoized
        // engine): identical hit streams and identical counters.
        let keys: Vec<u32> = (0..64).map(|i| (i * 2654435761u64 % 997) as u32).collect();
        let mut reference: Option<(Vec<ExtractHit>, OpCounters)> = None;
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::Auto] {
            let mut chip = chip_with(&keys);
            chip.set_parallel_policy(policy);
            let hits = chip.extract_batch(Direction::Min, keys.len() + 1).unwrap();
            match &reference {
                None => reference = Some((hits, *chip.counters())),
                Some((want_hits, want_counters)) => {
                    assert_eq!(&hits, want_hits, "{policy:?}");
                    assert_eq!(chip.counters(), want_counters, "{policy:?}");
                }
            }
        }
    }

    #[test]
    fn probe_hears_each_rearming_call_once_with_its_hits() {
        // A two-mat range: `Auto` runs the memo engine, `Sequential`
        // the walk, for batches and single extracts alike.
        let keys: Vec<u32> = (0..40).map(|i| (i * 2654435761u64 % 997) as u32).collect();
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::Auto] {
            let probe = std::sync::Arc::new(crate::probe::tests::Recording::default());
            let mut chip = chip_with(&keys);
            chip.set_parallel_policy(policy);
            chip.set_probe(Some(probe.clone()));
            let hits = [
                chip.extract_batch(Direction::Min, 7).unwrap().len(),
                usize::from(chip.extract(Direction::Min).unwrap().is_some()),
                chip.extract_batch(Direction::Min, 100).unwrap().len(),
                // The range is exhausted: each call still rearms once.
                chip.extract_batch(Direction::Min, 5).unwrap().len(),
                usize::from(chip.extract(Direction::Min).unwrap().is_some()),
            ];
            assert_eq!(hits, [7, 1, 32, 0, 0], "{policy:?}");
            // A batch of zero rearms nothing and reports nothing.
            assert!(chip.extract_batch(Direction::Min, 0).unwrap().is_empty());
            let reports = probe.0.lock().unwrap();
            let keys: Vec<usize> = reports.iter().map(|t| t.keys as usize).collect();
            assert_eq!(keys, hits, "{policy:?}: one report per call, keys == hits");
            for report in reports.iter().filter(|t| t.keys == 0) {
                assert_eq!(report.sense_ns, 0, "{policy:?}: no descent, no sense time");
            }
        }
    }

    #[test]
    fn interleaved_batches_single_extracts_and_clones_keep_one_stream() {
        // One drain over a two-mat range, split across batches and single
        // extracts with the policy switched between calls, must still be
        // the sorted stream; a clone keeps the data and drains it again.
        let mut chip = Chip::new(ChipGeometry::tiny());
        let keys: Vec<u64> = (0..40).map(|i| (i * 7919 % 241) as u64).collect();
        chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
        chip.init_range(0, 40, KeyFormat::UNSIGNED64).unwrap();
        let first = chip.extract_batch(Direction::Min, 3).unwrap();
        chip.set_parallel_policy(ParallelPolicy::Sequential);
        let second = chip.extract_batch(Direction::Min, 3).unwrap();
        chip.set_parallel_policy(ParallelPolicy::Auto);
        let third: Vec<ExtractHit> =
            std::iter::from_fn(|| chip.extract(Direction::Min).unwrap()).collect();
        let got: Vec<u64> = first
            .iter()
            .chain(&second)
            .chain(&third)
            .map(|h| h.raw_bits)
            .collect();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        let mut cloned = chip.clone();
        cloned.init_range(0, 40, KeyFormat::UNSIGNED64).unwrap();
        let redo = cloned.extract_batch(Direction::Min, 41).unwrap();
        assert_eq!(redo.iter().map(|h| h.raw_bits).collect::<Vec<_>>(), want);
    }

    #[test]
    fn batch_spans_mats_with_stable_ties() {
        // tiny geometry: 2 mats × 32 slots; duplicate keys across mats.
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.store_keys(30, &[7, 3], KeyFormat::UNSIGNED32).unwrap();
        chip.store_keys(33, &[3, 9], KeyFormat::UNSIGNED32).unwrap();
        chip.init_range(30, 35, KeyFormat::UNSIGNED32).unwrap();
        let hits = chip.extract_batch(Direction::Min, 5).unwrap();
        // Slot 32 is an in-range empty slot holding 0 — it ranks first;
        // the tied 3s resolve to the lower address (31 before 33).
        assert_eq!(
            hits.iter().map(|h| h.slot).collect::<Vec<_>>(),
            vec![32, 31, 33, 30, 34]
        );
    }

    #[test]
    fn scalar_oracle_is_observationally_invisible() {
        // Bit-sliced vs row-major scalar engine: identical hit streams and
        // identical counters, with a stuck-at fault visible through both.
        let keys: Vec<u32> = (0..48).map(|i| (i * 2654435761u64 % 997) as u32).collect();
        let mut bitsliced = chip_with(&keys);
        let mut scalar = chip_with(&keys);
        bitsliced.inject_stuck_cell(7, 2, true).unwrap();
        scalar.inject_stuck_cell(7, 2, true).unwrap();
        scalar.set_scalar_oracle(true);
        let a = bitsliced
            .extract_batch(Direction::Min, keys.len() + 1)
            .unwrap();
        let b = scalar
            .extract_batch(Direction::Min, keys.len() + 1)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(bitsliced.counters(), scalar.counters());
    }

    #[test]
    fn stuck_cell_perturbs_sort_detectably() {
        // A worn-out cell silently corrupts the order — exactly the
        // failure a read-back verification would catch.
        let keys = [8u32, 1, 4, 2];
        let mut chip = chip_with(&keys);
        // Freeze key 1's bit 3 high: it now ranks as 9.
        chip.inject_stuck_cell(1, 3, true).unwrap();
        chip.init_range(0, 4, KeyFormat::UNSIGNED32).unwrap();
        let sorted: Vec<u32> = drain(&mut chip, Direction::Min);
        assert_eq!(sorted, vec![2, 4, 8, 9], "corrupted but still terminates");
        let ok = sorted.windows(2).all(|w| w[0] <= w[1]);
        assert!(ok, "output is ordered under the *faulty* values");
        assert_ne!(sorted, vec![1, 2, 4, 8], "fault is observable");
    }

    #[test]
    fn stuck_cell_out_of_range_rejected() {
        let mut chip = Chip::new(ChipGeometry::tiny());
        assert!(chip.inject_stuck_cell(1 << 30, 0, true).is_err());
    }

    #[test]
    fn read_key_roundtrip() {
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.store_keys(3, &[77], KeyFormat::UNSIGNED64).unwrap();
        assert_eq!(chip.read_key(3).unwrap(), 77);
        assert_eq!(chip.read_key(4).unwrap(), 0);
        assert!(chip.read_key(1 << 40).is_err());
    }

    #[test]
    fn auto_policy_memoizes_every_multi_mat_span_and_ignores_the_crossover() {
        // Pins the Auto decision (DESIGN.md §13): every span of two or
        // more mats runs the memo engine, whatever the reported crossover
        // says; single-mat spans walk, and Sequential always walks.
        let mut chip = Chip::new(ChipGeometry::tiny());
        assert!(!chip.memoized(1));
        for span in [2, 15, 16, 17, 1000] {
            assert!(chip.memoized(span), "span {span}");
        }
        chip.set_parallel_policy(ParallelPolicy::Sequential);
        assert!(!chip.memoized(16));
        // The crossover is still reported, inside the documented clamp
        // (this exercises the real calibration once per process), and
        // repeated asks agree.
        let reported = chip.pool_crossover_mats();
        assert!((2..=1 << 20).contains(&reported));
        assert_eq!(chip.pool_crossover_mats(), reported);
    }

    #[test]
    fn store_keys_near_the_top_of_the_address_space_is_out_of_range() {
        // `start + len - 1` would overflow u64: a typed error, no panic,
        // and nothing written.
        let mut chip = Chip::new(ChipGeometry::tiny());
        for start in [u64::MAX, u64::MAX - 1] {
            assert!(matches!(
                chip.store_keys(start, &[1, 2, 3], KeyFormat::UNSIGNED64),
                Err(Error::AddressOutOfRange { .. })
            ));
        }
        assert!(matches!(
            chip.store_keys(u64::MAX, &[1, 2], KeyFormat::UNSIGNED64),
            Err(Error::AddressOutOfRange { .. })
        ));
        assert_eq!(chip.counters().row_writes, 0);
        assert_eq!(chip.total_writes(), 0);
    }

    #[test]
    fn snapshot_restore_resumes_mid_extraction_bit_identically() {
        // Drain half the keys, snapshot, keep draining on both the
        // original and a restored twin: hits, counters, and wear must be
        // bit-identical (exclusion flags carried the session across).
        let keys = [43u32, 7, 99, 0, 255, 7, 128, 1];
        let mut chip = chip_with(&keys);
        let _ = chip.extract_batch(Direction::Min, 4).unwrap();
        let state = chip.state();
        let mut restored = Chip::new(ChipGeometry::tiny());
        assert!(restored.restore_state(&state));
        assert_eq!(restored.state(), state, "snapshot is a fixed point");
        let a = chip.extract_batch(Direction::Min, 10).unwrap();
        let b = restored.extract_batch(Direction::Min, 10).unwrap();
        assert_eq!(a, b);
        assert_eq!(chip.counters(), restored.counters());
        assert_eq!(chip.wear_by_mat(), restored.wear_by_mat());
        assert_eq!(chip.max_wear(), restored.max_wear());
    }

    #[test]
    fn restore_state_rejects_geometry_mismatch() {
        let chip = Chip::new(ChipGeometry::tiny());
        let state = chip.state();
        let mut other = Chip::new(ChipGeometry::small());
        assert!(!other.restore_state(&state));
        // Unmaterialized mats stay unmaterialized through a roundtrip.
        assert!(state.mats.iter().all(Option::is_none));
    }

    #[test]
    fn restore_state_rejects_an_impossible_range() {
        // An empty, inverted or over-long active range is internally
        // inconsistent: refused, and the chip keeps its own state.
        let keys = [4u32, 2, 6];
        let mut chip = chip_with(&keys);
        let good = chip.state();
        let capacity = chip.capacity();
        for range in [(0, capacity + 10), (5, 2), (3, 3)] {
            let bad = ChipState {
                range: Some(range),
                ..good.clone()
            };
            assert!(!chip.restore_state(&bad), "{range:?}");
            assert_eq!(chip.state(), good, "{range:?} left the chip untouched");
        }
        // The whole chip is a possible range.
        let whole = ChipState {
            range: Some((0, capacity)),
            ..good
        };
        assert!(chip.restore_state(&whole));
        assert_eq!(chip.remaining(), capacity);
    }

    #[test]
    fn remaining_counts_down() {
        let keys = [9u32, 8, 7];
        let mut chip = chip_with(&keys);
        assert_eq!(chip.remaining(), 3);
        let _ = chip.extract(Direction::Min).unwrap();
        assert_eq!(chip.remaining(), 2);
        let _ = chip.extract(Direction::Min).unwrap();
        let _ = chip.extract(Direction::Min).unwrap();
        assert_eq!(chip.remaining(), 0);
        assert_eq!(chip.extract(Direction::Min).unwrap(), None);
    }
}
