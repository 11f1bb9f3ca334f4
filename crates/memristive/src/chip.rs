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
//! signals meet at wire-OR nodes on the way up the H-tree (Fig. 9/10).
//! The model mirrors that with a persistent mat-shard worker pool
//! ([`crate::pool::MatPool`]): long-lived workers each own a fixed
//! shard of the range's mats for the duration of an extraction session.
//! A whole bit-serial descent ships to the workers as *one* broadcast —
//! each worker speculates its shard's descent against its local wire-OR
//! view and the controller folds the recorded traces in fixed worker
//! order into the exact global decision sequence, replaying a divergent
//! suffix only when a shard's local signals could have changed a global
//! decision (see [`crate::pool`] for why the fold is exact). Because
//! the fold reconstructs the same per-step wire-OR and removed-row sums
//! the sequential walk computes, every [`OpCounters`] field is
//! bit-identical whatever the thread count ([`ParallelPolicy`] is purely
//! a scheduling knob). The retired per-step `thread::scope` fan-out
//! survives as [`ParallelPolicy::SpawnPerStep`], kept as a benchmark
//! baseline and an extra differential subject.
//!
//! [`ParallelPolicy::Auto`] gates pool use on a *measured* crossover:
//! a one-shot process-wide calibration ([`crate::pool::pool_calibration`])
//! prices a broadcast→fold round trip against per-mat step cost, and the
//! chip derives the span width where leasing the pool starts winning
//! (overridable via `RIME_POOL_CROSSOVER` for reproducible CI).

use std::sync::Arc;

use crate::array::ColumnSignals;
use crate::bitmap::Bitmap;
use crate::counters::OpCounters;
use crate::encoding::KeyFormat;
use crate::error::Error;
use crate::geometry::ChipGeometry;
use crate::htree::IndexTree;
use crate::mat::{Mat, MatState};
use crate::plan::{Direction, SearchPlan};
use crate::pool::{pool_calibration, Dirty, MatPool};
use crate::probe::{timed, Phase, SharedProbe};

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

/// How the chip controller fans each column-search step out across mats.
///
/// Hardware mats always operate simultaneously; this knob only controls
/// how the *model* schedules them onto OS threads. Results and
/// [`OpCounters`] are identical under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelPolicy {
    /// Walk the mats on the calling thread — the differential oracle.
    Sequential,
    /// Route ranges spanning at least the *measured* crossover width
    /// (see [`Chip::pool_crossover_mats`]) through the persistent
    /// mat-shard pool with `min(host parallelism, mats in range)`
    /// workers, where host parallelism is `available_parallelism`
    /// (cached per chip, re-queried whenever the pool is rebuilt).
    /// Narrower ranges — and hosts whose parallelism is 1 — stay on
    /// the calling thread. The default.
    #[default]
    Auto,
    /// Drive the persistent pool with exactly this many workers
    /// (`0` and `1` stay on the calling thread).
    Threads(usize),
    /// Legacy scheduling: open a fresh `thread::scope` with this many
    /// workers on *every* column-search step. Retained as a benchmark
    /// baseline for the pool and as an extra differential subject; new
    /// code wants [`ParallelPolicy::Threads`] or
    /// [`ParallelPolicy::Auto`].
    SpawnPerStep(usize),
}

/// How a given extraction session is actually scheduled.
enum Fanout {
    /// Walk (or scope-spawn over) the mats on the calling side with this
    /// many threads per step.
    Host(usize),
    /// Lease the span to the persistent pool with this many workers.
    Pool(usize),
}

/// Clamp bounds for the Auto crossover (mats): below 2 the pool can
/// never win (single-mat spans short-circuit anyway), and a pathological
/// calibration sample must not push the crossover past any real span.
const POOL_CROSSOVER_MIN: usize = 2;
const POOL_CROSSOVER_MAX: usize = 1 << 20;

/// Where a pooled descent's replay path finds the span's select
/// membership ([`Chip::span_membership`], indexed from the span's first
/// slot): the batch loop already holds it as a shared `Arc`, while a
/// single extraction rebuilds it from the exclusion flags on demand
/// (replay never fires on the natural path, so the rebuild is free in
/// the common case).
#[derive(Clone, Copy)]
enum MembershipSource<'a> {
    /// Clone this shared membership vector (batch path).
    Shared(&'a Arc<Bitmap>),
    /// Rebuild the span membership of `[begin, end)` (single path).
    Rebuild { begin: u64, end: u64 },
}

/// Serializable snapshot of one chip's durable state, for
/// checkpoint/recovery: per-mat cell contents (lazily materialized mats
/// stay `None`), the exclusion flags, the active format/range, and the
/// accumulated [`OpCounters`]. Scheduling knobs ([`ParallelPolicy`],
/// probes, the worker pool) and volatile select latches are not state —
/// a restored chip keeps its own and re-arms latches on the next
/// extraction.
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
pub struct Chip {
    geometry: ChipGeometry,
    mats: Vec<Option<Mat>>,
    tree: IndexTree,
    /// Exclusion flags (CMOS latches, §VII-C — not wear-inducing).
    excluded: Bitmap,
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
    /// Host parallelism, queried at construction and re-queried whenever
    /// the pool is rebuilt (`available_parallelism` is a syscall-backed
    /// lookup; re-querying per extraction range was measurable on the
    /// batch path, but a parked-then-rebuilt pool must not keep a stale
    /// thread count).
    auto_threads: usize,
    /// Measured Auto crossover (mats), derived lazily from the one-shot
    /// pool calibration (or `RIME_POOL_CROSSOVER`). Invalidated together
    /// with `auto_threads` when the pool is rebuilt.
    pool_crossover: Option<usize>,
    /// Test knob: bail initial pool speculation after this many steps so
    /// the fold exercises the divergence-replay path.
    pool_force_replay: Option<u16>,
    /// Test knob: explicit per-worker shard sizes for pool leases
    /// (overrides the worker count with the plan's length).
    pool_shard_plan: Option<Vec<usize>>,
    /// Persistent mat-shard workers, built lazily on first pooled
    /// extraction and kept across sessions. `None` until then (and in
    /// clones — worker threads are per-instance).
    pool: Option<MatPool>,
    /// Extraction/pool observer (rime-core's metrics layer). `None` keeps
    /// every instrumented path free of clock reads.
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
            .field("pool_crossover", &self.pool_crossover)
            .field("pool", &self.pool)
            .field("probe", &self.probe.as_ref().map(|_| "installed"))
            .finish()
    }
}

impl Clone for Chip {
    fn clone(&self) -> Chip {
        Chip {
            geometry: self.geometry,
            mats: self.mats.clone(),
            tree: self.tree.clone(),
            excluded: self.excluded.clone(),
            format: self.format,
            range: self.range,
            counters: self.counters,
            parallel: self.parallel,
            scalar_oracle: self.scalar_oracle,
            auto_threads: self.auto_threads,
            pool_crossover: self.pool_crossover,
            pool_force_replay: self.pool_force_replay,
            pool_shard_plan: self.pool_shard_plan.clone(),
            // Worker threads are not shareable state; the clone builds
            // its own pool on first pooled extraction.
            pool: None,
            probe: self.probe.clone(),
        }
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
            excluded: Bitmap::zeros(geometry.capacity_slots() as usize),
            format: None,
            range: None,
            counters: OpCounters::new(),
            parallel: ParallelPolicy::Auto,
            scalar_oracle: false,
            auto_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_crossover: None,
            pool_force_replay: None,
            pool_shard_plan: None,
            pool: None,
            probe: None,
        }
    }

    /// Installs (or removes) an extraction probe. Probes observe phase
    /// timing, step counts, and pool activity — they never touch
    /// [`OpCounters`], so results and counters are identical with or
    /// without one. See [`crate::probe::ExtractionProbe`].
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

    /// Decides how this session's span is scheduled. Single-mat spans
    /// always stay on the calling thread — no fan-out can help them.
    fn fanout(&mut self, mats_in_range: usize) -> Fanout {
        if mats_in_range <= 1 {
            return Fanout::Host(1);
        }
        match self.parallel {
            ParallelPolicy::Sequential => Fanout::Host(1),
            ParallelPolicy::SpawnPerStep(n) => Fanout::Host(n.clamp(1, mats_in_range)),
            ParallelPolicy::Threads(0 | 1) => Fanout::Host(1),
            ParallelPolicy::Threads(n) => Fanout::Pool(n),
            ParallelPolicy::Auto => {
                if self.auto_threads <= 1 || mats_in_range < self.pool_crossover_mats() {
                    Fanout::Host(1)
                } else {
                    Fanout::Pool(self.auto_threads.min(mats_in_range))
                }
            }
        }
    }

    /// Span width (in mats) where [`ParallelPolicy::Auto`] starts leasing
    /// the pool. Derived lazily from the one-shot process-wide
    /// calibration ([`crate::pool::pool_calibration`]) and cached until
    /// the pool is rebuilt; `RIME_POOL_CROSSOVER=<mats>` overrides the
    /// measurement for reproducible runs. Always in
    /// `[2, 2^20]`.
    pub fn pool_crossover_mats(&mut self) -> usize {
        if let Some(crossover) = self.pool_crossover {
            return crossover;
        }
        let crossover = std::env::var("RIME_POOL_CROSSOVER")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| self.measured_crossover())
            .clamp(POOL_CROSSOVER_MIN, POOL_CROSSOVER_MAX);
        self.pool_crossover = Some(crossover);
        crossover
    }

    /// Prices the pool against the inline walk from the calibration
    /// sample: a pooled descent costs one broadcast→fold round trip and
    /// saves the host `(threads-1)/threads` of the span's per-mat step
    /// work, so the pool wins once
    /// `mats × steps × per_mat_step × (threads-1)/threads > round_trip`.
    fn measured_crossover(&self) -> usize {
        let cal = pool_calibration();
        let words_per_mat =
            u64::from(self.geometry.arrays_per_mat) * u64::from(self.geometry.rows).div_ceil(64);
        // Each step touches every select word twice (sense + exclusion).
        let per_mat_step_ps = 2 * words_per_mat * cal.word_picos;
        let threads = self.auto_threads.max(2) as u64;
        // A full-width descent (64 steps) is the unit the protocol
        // amortizes the round trip over.
        let saved_per_mat_ps = 64 * per_mat_step_ps * (threads - 1) / threads;
        (cal.round_trip_ns.saturating_mul(1000))
            .div_ceil(saved_per_mat_ps.max(1))
            .try_into()
            .unwrap_or(POOL_CROSSOVER_MAX)
    }

    /// Test knob: make pool workers bail their *initial* speculation
    /// after `limit` steps, forcing the fold through the divergence
    /// replay path (replayed runs always complete). `None` disarms.
    /// Purely a scheduling knob — results and counters are unchanged,
    /// which is exactly what the replay proptests pin.
    pub fn set_pool_force_replay(&mut self, limit: Option<u16>) {
        self.pool_force_replay = limit;
    }

    /// Test knob: pin an explicit shard plan for pool leases —
    /// `plan[i]` mats go to worker `i`, in span order, and the worker
    /// count follows the plan's length. Lets tests drive adversarial
    /// splits (1-mat shards, maximal imbalance, empty shards) that the
    /// default contiguous chunking never produces. The plan must cover
    /// exactly the leased span or the lease panics. `None` restores
    /// default chunking.
    pub fn set_pool_shard_plan(&mut self, plan: Option<Vec<usize>>) {
        self.pool_shard_plan = plan;
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
        let end = start_slot + raw_keys.len() as u64 - 1;
        self.check_slot(end)?;
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
        self.excluded.clear_range(begin as usize, end as usize);
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
    /// path (single, batch, pooled replay) latches its select windows
    /// from this vector, so its host cost follows the span, not the chip.
    fn span_membership(&self, begin: u64, end: u64) -> Bitmap {
        let per_mat = self.geometry.slots_per_mat() as usize;
        let (first_mat, last_mat) = self.mat_span(begin, end);
        let span_base = first_mat * per_mat;
        let span_slots = (last_mat - first_mat + 1) * per_mat;
        let mut membership = Bitmap::zeros(span_slots);
        membership.set_range(begin as usize - span_base, end as usize - span_base);
        membership.and_not_assign(&self.excluded.slice(span_base, span_slots));
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

    /// Number of not-yet-extracted keys in the active range.
    pub fn remaining(&self) -> u64 {
        match self.range {
            None => 0,
            Some((begin, end)) => {
                let excluded = self
                    .excluded
                    .count_ones_in_range(begin as usize, end as usize)
                    as u64;
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
        let plan = SearchPlan::new(format, direction);

        // Rearm the select vectors (range minus exclusion flags).
        let probe = self.probe.clone();
        let mut rearm_ns = 0u64;
        timed(&probe, &mut rearm_ns, || self.load_selection(begin, end));
        if let Some(p) = &probe {
            p.phase(Phase::Rearm, rearm_ns, 1);
        }

        // Determine the mats participating in this range.
        let (first_mat, last_mat) = self.mat_span(begin, end);

        let mut selected: u64 = 0;
        for mat in self.mats[first_mat..=last_mat].iter().flatten() {
            selected += mat.selected_count() as u64;
        }
        if selected == 0 {
            return Ok(None);
        }

        Ok(Some(match self.fanout(last_mat - first_mat + 1) {
            Fanout::Host(threads) => {
                self.converge_host(first_mat, last_mat, &plan, selected, threads)
            }
            Fanout::Pool(workers) => {
                let mut pool = self.lease_pool(first_mat, last_mat, workers);
                let hit = self.converge_pooled(
                    first_mat,
                    &mut pool,
                    &plan,
                    MembershipSource::Rebuild { begin, end },
                    Dirty::All,
                );
                self.restore_pool(first_mat, pool);
                hit
            }
        }))
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

        // Host-side span membership, kept in sync as winners are
        // extracted so each rearm is a word-parallel latch instead of a
        // per-slot H-tree walk.
        let mut membership = self.span_membership(begin, end);
        self.clear_selects_outside(first_mat, last_mat);

        let mut selected = membership.count_ones() as u64;
        let mut hits = Vec::with_capacity(k.min(selected as usize));
        let probe = self.probe.clone();
        match self.fanout(last_mat - first_mat + 1) {
            Fanout::Host(threads) => {
                for _ in 0..k {
                    // Rearm: one select-vector load through the H-tree,
                    // exactly as the sequential path counts it. Each mat
                    // latches its window of the membership vector in
                    // place — zero allocations per iteration.
                    let mut rearm_ns = 0u64;
                    timed(&probe, &mut rearm_ns, || {
                        for idx in first_mat..=last_mat {
                            self.mat_mut(idx as u32)
                                .load_select_window(&membership, (idx - first_mat) * per_mat);
                        }
                    });
                    if let Some(p) = &probe {
                        p.phase(Phase::Rearm, rearm_ns, 1);
                    }
                    self.counters.select_loads += 1;
                    self.counters.htree_traversals += 1;

                    if selected == 0 {
                        break;
                    }
                    let hit = self.converge_host(first_mat, last_mat, &plan, selected, threads);
                    membership.set((hit.slot - span_base) as usize, false);
                    selected -= 1;
                    hits.push(hit);
                }
            }
            Fanout::Pool(workers) => {
                // One lease covers the whole batch: the membership vector
                // is shared with the workers (`Arc`), each rearm is a
                // fire-and-forget broadcast, and the mats come home only
                // after the last extraction. Counter arithmetic matches
                // the host path line for line.
                let mut pool = self.lease_pool(first_mat, last_mat, workers);
                let mut membership = Arc::new(membership);
                let mut dirty_slot: Option<u64> = None;
                for _ in 0..k {
                    // The select-vector rearm is fused into the descend
                    // broadcast (the workers latch their windows before
                    // speculating), so its wall time lands inside the
                    // descent; the modeled hardware event is the same
                    // one-traversal select load as the host path.
                    if let Some(p) = &probe {
                        p.phase(Phase::Rearm, 0, 1);
                    }
                    self.counters.select_loads += 1;
                    self.counters.htree_traversals += 1;

                    if selected == 0 {
                        break;
                    }
                    // After the first key only the previous winner's
                    // shard re-speculates; the rest serve their memoized
                    // traces (bit-identical by purity — see MatPool).
                    let dirty = match &dirty_slot {
                        None => Dirty::All,
                        Some(slot) => Dirty::Slots(std::slice::from_ref(slot)),
                    };
                    let hit = self.converge_pooled(
                        first_mat,
                        &mut pool,
                        &plan,
                        MembershipSource::Shared(&membership),
                        dirty,
                    );
                    // The next barrier (any reply-bearing request) has
                    // already passed by the time a hit returns, so the
                    // workers hold no clone and this mutates in place.
                    let span_slot = hit.slot - span_base;
                    Arc::make_mut(&mut membership).set(span_slot as usize, false);
                    selected -= 1;
                    dirty_slot = Some(span_slot);
                    hits.push(hit);
                }
                self.restore_pool(first_mat, pool);
            }
        }
        Ok(hits)
    }

    /// Materializes the span's mats (empty in-range slots hold 0 and
    /// participate in ranking) and moves them into the persistent pool,
    /// building or resizing the pool if the requested worker count
    /// changed.
    fn lease_pool(&mut self, first_mat: usize, last_mat: usize, workers: usize) -> MatPool {
        for idx in first_mat..=last_mat {
            self.mat_mut(idx as u32);
        }
        let workers = match &self.pool_shard_plan {
            Some(plan) => plan.len(),
            None => workers,
        };
        let mut pool = match self.pool.take() {
            Some(pool) if pool.workers() == workers => pool,
            _ => {
                // Rebuilding the pool invalidates the host-derived
                // caches: the machine's thread budget may have changed
                // since they were computed, and a crossover priced for a
                // stale thread count would mis-gate Auto (§satellite).
                self.auto_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                self.pool_crossover = None;
                MatPool::new(workers)
            }
        };
        pool.set_probe(self.probe.clone());
        pool.set_force_replay(self.pool_force_replay);
        let probe = self.probe.clone();
        if let Some(p) = &probe {
            p.pool_crossover(self.pool_crossover_mats());
        }
        let span: Vec<Option<Mat>> = self.mats[first_mat..=last_mat]
            .iter_mut()
            .map(Option::take)
            .collect();
        let slots_per_mat = self.geometry.slots_per_mat() as usize;
        match &self.pool_shard_plan {
            Some(plan) => pool.lease_with_shards(span, slots_per_mat, self.scalar_oracle, plan),
            None => pool.lease(span, slots_per_mat, self.scalar_oracle),
        }
        pool
    }

    /// Moves the leased mats back into the chip and parks the pool for
    /// the next session.
    fn restore_pool(&mut self, first_mat: usize, mut pool: MatPool) {
        for (offset, mat) in pool.unlease().into_iter().enumerate() {
            self.mats[first_mat + offset] = mat;
        }
        self.pool = Some(pool);
    }

    /// Indices of the first and last mats a `[begin, end)` range touches.
    fn mat_span(&self, begin: u64, end: u64) -> (usize, usize) {
        let per_mat = self.geometry.slots_per_mat();
        ((begin / per_mat) as usize, ((end - 1) / per_mat) as usize)
    }

    /// Runs the bit-serial search to convergence over `selected` armed
    /// rows in `mats[first_mat..=last_mat]`, priority-encodes the winner,
    /// reads it out, and flags it excluded. The caller has already armed
    /// the select vectors and counted `selected > 0`. Host-side
    /// scheduling: `threads == 1` walks inline, `threads > 1` opens a
    /// `thread::scope` per step (the legacy
    /// [`ParallelPolicy::SpawnPerStep`] baseline).
    fn converge_host(
        &mut self,
        first_mat: usize,
        last_mat: usize,
        plan: &SearchPlan,
        mut selected: u64,
        threads: usize,
    ) -> ExtractHit {
        let probe = self.probe.clone();
        let (mut sense_ns, mut exclude_ns, mut reduce_ns, mut readout_ns) = (0u64, 0, 0, 0);
        let mut exclusions = 0u64;
        let mut survivors_negative = false;
        let mut steps_executed = 0u16;
        for step in 0..plan.steps() {
            if selected <= 1 {
                break; // §IV-B.2: stop once a single value remains
            }
            steps_executed += 1;
            let pos = plan.position(step);

            // Column search on every active mat; wire-OR the signals
            // (fanned out across threads per the chip's policy).
            let (global, active_mats) = timed(&probe, &mut sense_ns, || {
                sense_step(
                    &self.mats[first_mat..=last_mat],
                    pos,
                    threads,
                    self.scalar_oracle,
                )
            });
            self.counters.column_search_steps += 1;
            self.counters.mat_column_searches += active_mats;

            if plan.is_sign_step(step) {
                survivors_negative = plan.survivors_negative(global.any_one, global.any_zero);
            }

            // The global all-0-or-1 gate: only exclude when the column is
            // non-uniform across the whole selected set.
            if !global.all_same() {
                let keep = plan.keep_bit(step, survivors_negative);
                let removed = timed(&probe, &mut exclude_ns, || {
                    exclude_step(
                        &mut self.mats[first_mat..=last_mat],
                        pos,
                        keep,
                        threads,
                        self.scalar_oracle,
                    )
                });
                self.counters.select_loads += 1;
                selected -= removed;
                exclusions += 1;
                if let Some(p) = &probe {
                    p.excluded_step(removed);
                }
            }
        }

        // Upstream index reduction (Fig. 10) over the span's leaves: the
        // caller cleared every select outside the span, so no other mat
        // can raise E.
        let slot = timed(&probe, &mut reduce_ns, || {
            let mats = &self.mats;
            self.tree
                .reduce_window(first_mat..=last_mat, |m| {
                    mats[m].as_ref().and_then(Mat::first_selected)
                })
                .expect("non-empty selection must reduce to a winner")
        });
        self.counters.htree_traversals += 1;

        // Read the winner out and flag it excluded for later accesses.
        let (mat, local) = self.geometry.split_slot(slot);
        let raw_bits = timed(&probe, &mut readout_ns, || {
            self.mats[mat as usize]
                .as_ref()
                .expect("winning mat is materialized")
                .read_slot(local)
        });
        self.counters.row_reads += 1;
        self.excluded.set(slot as usize, true);
        self.counters.extractions += 1;

        if let Some(p) = &probe {
            p.phase(Phase::Sense, sense_ns, u64::from(steps_executed));
            p.phase(Phase::Exclude, exclude_ns, exclusions);
            p.phase(Phase::IndexReduce, reduce_ns, 1);
            p.phase(Phase::Readout, readout_ns, 1);
            p.extraction(steps_executed);
        }

        ExtractHit {
            slot,
            raw_bits,
            steps: steps_executed,
        }
    }

    /// Pool-scheduled twin of [`Chip::converge_host`]: the span's mats
    /// live in `pool` (leased from `first_mat`), and the whole bit-serial
    /// descent runs as a *single* broadcast→fold round trip
    /// ([`MatPool::descend`]) — workers speculate their shard's descent
    /// locally and the fold reconstructs the exact global decision
    /// sequence, so the counter arithmetic still matches the host path
    /// line for line and [`OpCounters`] stays scheduling-invariant.
    fn converge_pooled(
        &mut self,
        first_mat: usize,
        pool: &mut MatPool,
        plan: &SearchPlan,
        membership: MembershipSource<'_>,
        dirty: Dirty<'_>,
    ) -> ExtractHit {
        let probe = self.probe.clone();
        let (mut descend_ns, mut reduce_ns) = (0u64, 0u64);
        let outcome = {
            // Shared membership doubles as the fused rearm payload: the
            // workers re-latch their select windows inside the descend
            // request (one wake cycle, not two). The rebuild path loads
            // selects host-side before leasing, so no rearm rides along.
            let rearm = match membership {
                MembershipSource::Shared(m) => Some(m),
                MembershipSource::Rebuild { .. } => None,
            };
            // Replay membership (indexed from the span's first slot),
            // materialized only if the fold actually replays — never on
            // the natural path.
            let mut membership_fn = || match membership {
                MembershipSource::Shared(m) => Arc::clone(m),
                MembershipSource::Rebuild { begin, end } => {
                    Arc::new(self.span_membership(begin, end))
                }
            };
            timed(&probe, &mut descend_ns, || {
                pool.descend(plan, rearm, dirty, &mut membership_fn)
            })
        };
        let steps_executed = outcome.steps_executed;
        self.counters.column_search_steps += u64::from(steps_executed);
        self.counters.mat_column_searches += outcome.mat_searches;
        let exclusions = outcome.removed_per_step.len() as u64;
        self.counters.select_loads += exclusions;
        if let Some(p) = &probe {
            for &removed in &outcome.removed_per_step {
                p.excluded_step(removed);
            }
        }

        // Upstream index reduction (Fig. 10) over the span's leaves,
        // whose entries came home with the fold in span order; mats
        // outside the span hold no selects (the caller cleared them).
        let last_mat = first_mat + outcome.firsts.len() - 1;
        let slot = timed(&probe, &mut reduce_ns, || {
            self.tree
                .reduce_window(first_mat..=last_mat, |m| outcome.firsts[m - first_mat])
                .expect("non-empty selection must reduce to a winner")
        });
        self.counters.htree_traversals += 1;

        // The winner's raw bits also came home with the fold — no extra
        // round trip to its shard.
        let (mat, _local) = self.geometry.split_slot(slot);
        let raw_bits = outcome.raws[mat as usize - first_mat];
        self.counters.row_reads += 1;
        self.excluded.set(slot as usize, true);
        self.counters.extractions += 1;

        if let Some(p) = &probe {
            // Phase attribution mirrors the host path: the descent wall
            // time lands on Sense (it is overwhelmingly sensing), and the
            // op counts — which the metrics layer prices and pins against
            // OpCounters — are exact.
            p.phase(Phase::Sense, descend_ns, u64::from(steps_executed));
            p.phase(Phase::Exclude, 0, exclusions);
            p.phase(Phase::IndexReduce, reduce_ns, 1);
            p.phase(Phase::Readout, 0, 1);
            p.extraction(steps_executed);
        }

        ExtractHit {
            slot,
            raw_bits,
            steps: steps_executed,
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
            excluded: self.excluded.clone(),
            format: self.format,
            range: self.range,
            counters: self.counters,
        }
    }

    /// Restores the chip's durable state from a snapshot taken on a chip
    /// of the same geometry. Select latches come up cleared (every
    /// extraction re-arms them), the H-tree is rebuilt fresh, and any
    /// leased worker pool is dropped. Scheduling knobs are kept.
    ///
    /// Returns `false` — leaving the chip untouched — when the snapshot
    /// disagrees with this chip's geometry or is internally inconsistent.
    pub fn restore_state(&mut self, state: &ChipState) -> bool {
        if state.mats.len() != self.mats.len() || state.excluded.len() != self.excluded.len() {
            return false;
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
        self.excluded = state.excluded.clone();
        self.format = state.format;
        self.range = state.range;
        self.counters = state.counters;
        self.pool = None;
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
/// `pos` and the signals wire-OR upstream (Fig. 9). With `threads > 1`
/// the span splits into contiguous chunks, each worker accumulating its
/// own `ColumnSignals` and active-mat count; the partials merge in chunk
/// order, mirroring the H-tree's reduction nodes. Both the OR and the
/// count are commutative, so the result is independent of scheduling.
fn sense_step(
    mats: &[Option<Mat>],
    pos: u16,
    threads: usize,
    scalar: bool,
) -> (ColumnSignals, u64) {
    fn sense_mat(mat: &Mat, pos: u16, scalar: bool) -> ColumnSignals {
        #[cfg(any(test, feature = "scalar-oracle"))]
        if scalar {
            return mat.sense_column_scalar(pos);
        }
        let _ = scalar;
        mat.sense_column(pos)
    }

    fn walk(mats: &[Option<Mat>], pos: u16, scalar: bool) -> (ColumnSignals, u64) {
        let mut signals = ColumnSignals::default();
        let mut active = 0u64;
        for mat in mats.iter().flatten() {
            if mat.selected_count() == 0 {
                continue;
            }
            active += 1;
            signals.merge(sense_mat(mat, pos, scalar));
        }
        (signals, active)
    }

    if threads <= 1 || mats.len() <= 1 {
        return walk(mats, pos, scalar);
    }
    let chunk = mats.len().div_ceil(threads);
    let partials: Vec<(ColumnSignals, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = mats
            .chunks(chunk)
            .map(|part| scope.spawn(move || walk(part, pos, scalar)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sense worker panicked"))
            .collect()
    });
    let mut global = ColumnSignals::default();
    let mut active = 0u64;
    for (signals, count) in partials {
        global.merge(signals);
        active += count;
    }
    (global, active)
}

/// One global exclusion across a mat span: every active mat latches its
/// match vector for (`pos`, `keep`). Returns total rows deselected,
/// accumulated per chunk and summed in chunk order (commutative, so
/// deterministic under any thread count).
fn exclude_step(
    mats: &mut [Option<Mat>],
    pos: u16,
    keep: bool,
    threads: usize,
    scalar: bool,
) -> u64 {
    fn exclude_mat(mat: &mut Mat, pos: u16, keep: bool, scalar: bool) -> u64 {
        #[cfg(any(test, feature = "scalar-oracle"))]
        if scalar {
            return mat.apply_exclusion_scalar(pos, keep) as u64;
        }
        let _ = scalar;
        mat.apply_exclusion(pos, keep) as u64
    }

    fn walk(mats: &mut [Option<Mat>], pos: u16, keep: bool, scalar: bool) -> u64 {
        let mut removed = 0u64;
        for mat in mats.iter_mut().flatten() {
            if mat.selected_count() == 0 {
                continue;
            }
            removed += exclude_mat(mat, pos, keep, scalar);
        }
        removed
    }

    if threads <= 1 || mats.len() <= 1 {
        return walk(mats, pos, keep, scalar);
    }
    let chunk = mats.len().div_ceil(threads);
    let partials: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = mats
            .chunks_mut(chunk)
            .map(|part| scope.spawn(move || walk(part, pos, keep, scalar)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("exclusion worker panicked"))
            .collect()
    });
    partials.into_iter().sum()
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
        assert_eq!(chip.extract(Direction::Min).unwrap().unwrap().raw_bits, 2);
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
        // Same keys, every scheduling policy (inline walk, persistent
        // pool, legacy per-step spawns, Auto): identical hit streams and
        // identical counters (the wire-OR merge is order-independent).
        let keys: Vec<u32> = (0..64).map(|i| (i * 2654435761u64 % 997) as u32).collect();
        let mut reference: Option<(Vec<ExtractHit>, OpCounters)> = None;
        for policy in [
            ParallelPolicy::Sequential,
            ParallelPolicy::Threads(3),
            ParallelPolicy::SpawnPerStep(3),
            ParallelPolicy::Auto,
        ] {
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
    fn pool_survives_across_sessions_and_interleaved_ranges() {
        // The persistent pool is parked between sessions and reused; an
        // interleaved single extract and a policy that alternates worker
        // counts must all stay correct.
        let mut chip = Chip::new(ChipGeometry::tiny());
        let keys: Vec<u64> = (0..40).map(|i| (i * 7919 % 241) as u64).collect();
        chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
        chip.init_range(0, 40, KeyFormat::UNSIGNED64).unwrap();
        chip.set_parallel_policy(ParallelPolicy::Threads(2));
        let first = chip.extract_batch(Direction::Min, 3).unwrap();
        chip.set_parallel_policy(ParallelPolicy::Threads(4));
        let second = chip.extract_batch(Direction::Min, 3).unwrap();
        chip.set_parallel_policy(ParallelPolicy::Threads(2));
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
        // A clone leaves the worker threads behind but keeps the data.
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
        chip.set_parallel_policy(ParallelPolicy::Threads(2));
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
    fn auto_policy_gates_on_measured_crossover_and_host_parallelism() {
        // Pins the Auto fan-out decision (DESIGN.md §13): spans narrower
        // than the cached crossover stay on the calling thread, wider
        // ones lease the pool with min(host, mats) workers. The
        // crossover is injected here so the test is calibration-free.
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.auto_threads = 4;
        chip.pool_crossover = Some(16);
        assert!(matches!(chip.fanout(15), Fanout::Host(1)));
        assert!(matches!(chip.fanout(16), Fanout::Pool(4)));
        assert!(matches!(chip.fanout(17), Fanout::Pool(4)));
        // A single-threaded host never leases the pool, whatever the span.
        chip.auto_threads = 1;
        assert!(matches!(chip.fanout(16), Fanout::Host(1)));
        assert!(matches!(chip.fanout(1000), Fanout::Host(1)));
        // Worker count is clamped to the mats actually in range.
        chip.auto_threads = 32;
        assert!(matches!(chip.fanout(17), Fanout::Pool(17)));
        // Single-mat spans short-circuit before the policy is consulted.
        assert!(matches!(chip.fanout(1), Fanout::Host(1)));
        // The measured crossover is always inside the documented clamp
        // (this exercises the real calibration once per process).
        chip.pool_crossover = None;
        let measured = chip.pool_crossover_mats();
        assert!((POOL_CROSSOVER_MIN..=POOL_CROSSOVER_MAX).contains(&measured));
        // ... and it is cached until the pool is rebuilt.
        assert_eq!(chip.pool_crossover, Some(measured));
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
