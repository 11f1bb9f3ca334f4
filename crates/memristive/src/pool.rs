//! Persistent mat-shard worker pool — standing concurrency for the
//! column search (§IV-B.2, Fig. 9).
//!
//! In hardware every mat is always powered and listening: the chip
//! controller broadcasts one step descriptor per column search and the
//! per-mat signals meet at fixed wire-OR nodes on the way back up the
//! H-tree. The earlier model approximated that with a fresh
//! `std::thread::scope` per step — up to ~128 spawn/join rounds per
//! 64-bit key. [`MatPool`] replaces the per-step fan-out with the
//! hardware shape: long-lived shard executors each own a fixed
//! contiguous shard of the range's mats for the duration of an
//! extraction *session* (lease → steps → unlease), and the controller
//! drives them by broadcasting epoch-tagged requests over per-worker
//! channels. The controller itself is shard executor 0 (**leader
//! participation**): instead of blocking in `recv` while one more
//! worker wakes, it runs shard 0 inline between the broadcast and the
//! fold — one fewer park/wake cycle per round trip (decisive when the
//! executors timeshare few cores) and overlapped compute on multicore
//! hosts.
//!
//! # Protocol
//!
//! - **Lease** moves the session's mats into the workers (the crate
//!   forbids `unsafe`, so persistent threads cannot borrow chip state;
//!   moving the ~40-byte `Mat` headers is cheap — the heap storage never
//!   moves). Shards are contiguous and assigned in worker order.
//! - **Descend** broadcasts one *whole bit-serial descent* (all
//!   `plan.steps()` sense/exclude steps of one key) in a single message.
//!   Each worker runs its shard's descent **speculatively** against its
//!   local wire-OR view, recording a per-step `ShardTrace` (packed
//!   signals, active-mat counts, local exclusion decisions, final
//!   per-mat firsts and raw bits). The controller folds the traces in
//!   worker index order — the fixed-order reduction that stands in for
//!   the H-tree's wired OR nodes — reconstructing the exact global
//!   decision sequence and every counter Sequential would produce, at
//!   the cost of **one** broadcast→fold round trip per key instead of
//!   one per bit.
//! - **ReplaySuffix** re-runs one shard's descent from a fold point when
//!   the shard's trace cannot serve the fold (it bailed early, or its
//!   local decision contradicts the reconstructed global one). The
//!   controller ships the authoritative decision prefix; the worker
//!   re-arms from the membership vector, fast-forwards the prefix, and
//!   speculates the suffix. Replay is bounded: each round extends the
//!   agreed prefix by at least one step (see *Why speculation is exact*).
//! - **Trace memoization** (batch extraction): a shard's trace is a pure
//!   function of its stored keys, the membership restricted to the
//!   shard, and the plan. Clearing one winner's membership bit dirties
//!   exactly one shard, so consecutive descents re-speculate *only the
//!   previous winner's shard* and fold everyone else's memoized trace —
//!   per-key compute drops by roughly the shard count and untouched
//!   workers are not even woken. Purity makes the cache hit
//!   bit-identical to re-speculating; partial traces (bailed initial
//!   runs, replayed suffixes) are never reused.
//! - **Sense/Exclude** remain as single-step messages for incremental
//!   callers and the calibration pass.
//! - **Rearm** re-latches every shard's select windows from a shared
//!   membership bitmap (batch extraction). It is fire-and-forget: the
//!   per-worker channel is FIFO, so the next reply-bearing request
//!   doubles as its barrier.
//! - **Unlease** moves the mats back to the chip at session end.
//!
//! Every reply carries the epoch of the request that triggered it and
//! the controller asserts the match, so a protocol desync (a lost or
//! reordered reply) is loud, never silent corruption.
//!
//! # Why speculation is exact
//!
//! Invariant: at every fold step each shard is either **in-sync** (its
//! local speculative select state equals the global surviving set
//! restricted to the shard) or **dead** (that restriction is empty, and
//! the controller ignores everything the shard reported after its death
//! step). An in-sync shard's recorded signals are exactly its global
//! contribution, so the fold's wired-OR is exact. At an exclusion step
//! three cases exhaust an alive shard:
//!
//! * **Locally mixed** (both signals raised): exclusion is monotone —
//!   `select &= col` depends only on the keep bit, and the shard's local
//!   keep equals the global keep. For integer formats the keep bit is
//!   signal-independent; for floats the only signal-derived input is the
//!   sign-step survivor polarity, and an alive shard's local polarity
//!   provably equals the global one (a shard whose polarity would differ
//!   is uniform in the discarded sign and dies at the sign step). So the
//!   shard's speculative exclusion removed exactly the global victims
//!   inside the shard: still in-sync.
//! * **Uniform in the kept bit**: neither the global nor the local step
//!   removes anything from the shard: still in-sync.
//! * **Uniform in the discarded bit**: globally every survivor in the
//!   shard is removed — the shard **dies**. The controller accounts its
//!   tracked remaining count as removed and masks all later trace data.
//!   The worker's continued local descent is garbage but harmless:
//!   every lease/rearm rebuilds select state from scratch.
//!
//! A *globally* uniform step raises the all-0-or-1 veto, and every alive
//! shard saw a uniform (or silent) column too, so nobody excluded:
//! in-sync. By induction the fold never observes a divergent alive
//! shard, so replay never fires on the natural path — it exists as a
//! defensive bound (and is exercised via the force-replay test knob).
//! Each replay round re-syncs a shard to the full agreed prefix, which
//! then grows by at least one step before that shard can lag again,
//! so replays per descent are bounded by the step count.
//!
//! # Why counters are scheduling-invariant
//!
//! Traces are folded in worker order and both reductions (signal OR,
//! active-mat / removed-row sums) are commutative over disjoint shards,
//! so hits *and every [`crate::OpCounters`] field* derived from them are
//! bit-identical to [`crate::ParallelPolicy::Sequential`] at any worker
//! count. The differential suites assert exactly that.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::array::ColumnSignals;
use crate::bitmap::Bitmap;
use crate::mat::Mat;
use crate::plan::SearchPlan;
use crate::probe::SharedProbe;

/// Requests broadcast (or targeted) from the chip controller to workers.
enum Request {
    /// Move a shard of the session's mats into the worker.
    /// Fire-and-forget (like [`Request::Rearm`]): the per-worker channel
    /// is FIFO, so the next reply-bearing request doubles as its
    /// barrier, and only reply-bearing requests carry epochs.
    Lease {
        /// Position of the shard's first mat within the leased span
        /// (mats, counted from the span's first mat).
        base: usize,
        /// Key slots per mat (for select-window offsets).
        slots_per_mat: usize,
        /// Route through the row-major scalar oracle.
        scalar: bool,
        /// Accumulate per-request busy time for this session (set only
        /// when a probe is installed — the untimed path reads no clocks).
        timed: bool,
        mats: Vec<Option<Mat>>,
    },
    /// One column-search step: sense bit `pos` on every active mat.
    Sense { epoch: u64, pos: u16 },
    /// One exclusion step: latch the match vector for (`pos`, `keep`).
    Exclude { epoch: u64, pos: u16, keep: bool },
    /// One whole bit-serial descent, run speculatively against the
    /// shard's local wire-OR view. `bail_at` is the force-replay test
    /// knob: stop speculating after that many steps so the controller
    /// must exercise [`Request::ReplaySuffix`]. `rearm`, when set,
    /// re-latches the shard's select windows from the membership vector
    /// first — fusing what used to be a separate [`Request::Rearm`]
    /// broadcast into the descent saves one park/wake cycle per
    /// extraction, which matters when workers timeshare few cores.
    Descend {
        epoch: u64,
        plan: SearchPlan,
        bail_at: Option<u16>,
        rearm: Option<Arc<Bitmap>>,
    },
    /// Re-run the shard's descent from step `resume`: re-arm from the
    /// membership vector, fast-forward the authoritative decision prefix
    /// (`decided`/`keeps` bits below `resume`), then speculate the
    /// suffix with the given survivor polarity.
    ReplaySuffix {
        epoch: u64,
        plan: SearchPlan,
        membership: Arc<Bitmap>,
        decided: u64,
        keeps: u64,
        resume: u16,
        survivors_negative: bool,
    },
    /// Re-latch the shard's select windows from the membership vector.
    Rearm { membership: Arc<Bitmap> },
    /// Report the first selected row per mat in the shard.
    FirstSelected { epoch: u64 },
    /// Read the raw bits of row `slot` in shard-local mat `mat`.
    ReadSlot { epoch: u64, mat: usize, slot: u32 },
    /// Move the shard's mats back to the chip.
    Unlease { epoch: u64 },
}

/// Replies from a worker; each carries the epoch of its request.
enum Reply {
    Signals {
        epoch: u64,
        signals: ColumnSignals,
        active: u64,
    },
    Removed {
        epoch: u64,
        removed: u64,
    },
    Firsts {
        epoch: u64,
        firsts: Vec<Option<u32>>,
    },
    Raw {
        epoch: u64,
        raw: u64,
    },
    Trace {
        epoch: u64,
        trace: ShardTrace,
    },
    Mats {
        epoch: u64,
        mats: Vec<Option<Mat>>,
        /// Nanoseconds this worker spent processing requests during the
        /// session (0 when the session was untimed).
        busy_ns: u64,
    },
}

/// The mats a worker holds between lease and unlease.
struct Shard {
    /// Position of the shard's first mat within the leased span.
    base: usize,
    slots_per_mat: usize,
    scalar: bool,
    mats: Vec<Option<Mat>>,
}

/// Everything one shard recorded while speculatively running a descent.
///
/// Per-step signals and decisions are bit-packed (bit `s` = step `s`;
/// key widths never exceed 64 steps) so a whole descent's trace is a few
/// words plus the per-step count vectors.
struct ShardTrace {
    /// Bit `s`: the shard's local `any_one` at step `s`.
    any_one: u64,
    /// Bit `s`: the shard's local `any_zero` at step `s`.
    any_zero: u64,
    /// Bit `s`: the shard applied a local exclusion at step `s`.
    decided: u64,
    /// Bit `s`: the keep bit the shard used where `decided` is set.
    keeps: u64,
    /// Mats with a nonempty selection at each step (indexed by step).
    active: Vec<u64>,
    /// Rows the shard's local exclusion removed at each step.
    removed: Vec<u64>,
    /// Selected rows in the shard when this run started.
    initial_selected: u64,
    /// First step this run covers (0 for an initial speculation, the
    /// resume point for a replay — replay traces are *suffixes* and
    /// must never be reused as whole-descent traces).
    start: u16,
    /// Steps covered: trace data is valid for steps `< ran` (a bailed
    /// run under the force-replay knob covers fewer than `plan.steps()`).
    ran: u16,
    /// First selected slot per mat (shard-local mat order, mat-local
    /// slot index) after the run.
    firsts: Vec<Option<u32>>,
    /// Raw bits of each mat's first selected slot (0 where none).
    raws: Vec<u64>,
}

impl ShardTrace {
    /// Whether this trace covers a whole descent from step 0 — the
    /// precondition for memoized reuse. Bailed runs (force-replay knob)
    /// and replayed suffixes are partial and must re-speculate.
    fn is_full(&self, steps: u16) -> bool {
        self.start == 0 && self.ran == steps
    }
}

impl Shard {
    /// Latches every mat's select window from the span's membership
    /// vector (indexed from the span's first slot).
    fn load_windows(&mut self, membership: &Bitmap) {
        for (offset, mat) in self.mats.iter_mut().enumerate() {
            if let Some(mat) = mat {
                mat.load_select_window(membership, (self.base + offset) * self.slots_per_mat);
            }
        }
    }

    fn selected_total(&self) -> u64 {
        self.mats
            .iter()
            .flatten()
            .map(|m| m.selected_count() as u64)
            .sum()
    }

    /// Runs steps `[start, bail_at.unwrap_or(steps))` of `plan`
    /// speculatively against the shard's local wire-OR view and records
    /// the trace.
    ///
    /// The trace always covers every step up to the bail point, but the
    /// worker stops *physically* stepping once its local set collapses
    /// to at most one survivor: from there on no local exclusion can
    /// fire (a singleton is all-same at every column and an empty shard
    /// is silent), so the rest of the trace is fully determined by the
    /// survivor's stored bits and is synthesized from one row read
    /// instead of sensed column by column. This is what lets a pooled
    /// descent do *less* total column work than the sequential walk —
    /// each shard's local collapse (`log2(shard keys)` steps) comes
    /// earlier than the global one.
    fn speculate(
        &mut self,
        plan: &SearchPlan,
        start: u16,
        mut survivors_negative: bool,
        bail_at: Option<u16>,
    ) -> ShardTrace {
        let steps = plan.steps();
        let stop = bail_at.unwrap_or(steps).min(steps);
        let mut trace = ShardTrace {
            any_one: 0,
            any_zero: 0,
            decided: 0,
            keeps: 0,
            active: vec![0; steps as usize],
            removed: vec![0; steps as usize],
            initial_selected: self.selected_total(),
            start,
            ran: stop,
            firsts: Vec::with_capacity(self.mats.len()),
            raws: Vec::with_capacity(self.mats.len()),
        };
        let mut running = trace.initial_selected;
        let mut resume = stop;
        for step in start..stop {
            if running <= 1 {
                resume = step;
                break;
            }
            let pos = plan.position(step);
            let mut signals = ColumnSignals::default();
            let mut active = 0u64;
            for mat in self.mats.iter().flatten() {
                if mat.selected_count() == 0 {
                    continue;
                }
                active += 1;
                signals.merge(mat.sense(pos, self.scalar));
            }
            trace.active[step as usize] = active;
            if signals.any_one {
                trace.any_one |= 1 << step;
            }
            if signals.any_zero {
                trace.any_zero |= 1 << step;
            }
            if plan.is_sign_step(step) {
                survivors_negative = plan.survivors_negative(signals.any_one, signals.any_zero);
            }
            if !signals.all_same() {
                let keep = plan.keep_bit(step, survivors_negative);
                let mut removed = 0u64;
                for mat in self.mats.iter_mut().flatten() {
                    if mat.selected_count() == 0 {
                        continue;
                    }
                    removed += mat.exclude(pos, keep, self.scalar);
                }
                trace.decided |= 1 << step;
                if keep {
                    trace.keeps |= 1 << step;
                }
                trace.removed[step as usize] = removed;
                running -= removed;
            }
        }
        if resume < stop {
            // Local collapse: synthesize the remaining steps. A lone
            // survivor senses its own stored bit at every column (the
            // column shadow is the row transposed, faults included) and
            // never triggers an exclusion; a dead shard is silent. Both
            // are exactly what physical stepping would record, at the
            // cost of one row read.
            let survivor = self.mats.iter().flatten().find_map(|mat| {
                let slot = mat.first_selected()?;
                Some(mat.read_slot(slot))
            });
            if let Some(raw) = survivor {
                for step in resume..stop {
                    if raw >> plan.position(step) & 1 == 1 {
                        trace.any_one |= 1 << step;
                    } else {
                        trace.any_zero |= 1 << step;
                    }
                    trace.active[step as usize] = 1;
                }
            }
        }
        for mat in &self.mats {
            let first = mat.as_ref().and_then(Mat::first_selected);
            trace.raws.push(match (first, mat) {
                (Some(slot), Some(mat)) => mat.read_slot(slot),
                _ => 0,
            });
            trace.firsts.push(first);
        }
        trace
    }

    /// Re-arms the shard from the membership vector and fast-forwards
    /// the authoritative exclusion prefix (steps below `resume`).
    fn rewind_to(&mut self, membership: &Bitmap, plan: &SearchPlan, prefix: Prefix) {
        self.load_windows(membership);
        let scalar = self.scalar;
        for step in 0..prefix.resume {
            if prefix.decided >> step & 1 == 0 {
                continue;
            }
            let pos = plan.position(step);
            let keep = prefix.keeps >> step & 1 == 1;
            for mat in self.mats.iter_mut().flatten() {
                if mat.selected_count() == 0 {
                    continue;
                }
                mat.exclude(pos, keep, scalar);
            }
        }
    }
}

/// The authoritative decision prefix shipped with a replay.
#[derive(Clone, Copy)]
struct Prefix {
    decided: u64,
    keeps: u64,
    resume: u16,
}

/// What changed in the session's membership since the previous
/// [`MatPool::descend`] — the key to per-shard trace memoization.
///
/// A shard's speculative trace is a pure function of (stored keys, the
/// membership restricted to the shard, the plan). Batch extraction
/// clears exactly one membership bit per hit, so between consecutive
/// descents only the winner's shard changes: every other shard's trace
/// from the previous round is *still exact* and the controller reuses
/// it without waking the worker at all.
pub(crate) enum Dirty<'a> {
    /// Treat every shard as changed (first descent of a batch, or any
    /// path that rebuilt membership wholesale).
    All,
    /// Only these slots were cleared from the membership (positions
    /// within the leased span, like the membership itself).
    Slots(&'a [u64]),
}

/// Worker body: block on the request channel until the pool drops it.
/// During a timed session the worker accumulates the wall time it spends
/// *processing* requests; the controller subtracts that from the session
/// duration to get the time the worker sat parked on its channel.
fn worker_loop(rx: Receiver<Request>, tx: Sender<Reply>) {
    let mut shard: Option<Shard> = None;
    let mut session_timed = false;
    let mut busy_ns = 0u64;
    while let Ok(req) = rx.recv() {
        let started = if session_timed {
            Some(Instant::now())
        } else {
            None
        };
        // A send failure means the pool is gone; exit quietly.
        let ok = match req {
            Request::Lease {
                base,
                slots_per_mat,
                scalar,
                timed,
                mats,
            } => {
                assert!(shard.is_none(), "pool protocol desync: double lease");
                session_timed = timed;
                busy_ns = 0;
                shard = Some(Shard {
                    base,
                    slots_per_mat,
                    scalar,
                    mats,
                });
                true
            }
            Request::Sense { epoch, pos } => {
                let s = shard.as_ref().expect("pool protocol desync: no lease");
                let mut signals = ColumnSignals::default();
                let mut active = 0u64;
                for mat in s.mats.iter().flatten() {
                    if mat.selected_count() == 0 {
                        continue;
                    }
                    active += 1;
                    signals.merge(mat.sense(pos, s.scalar));
                }
                tx.send(Reply::Signals {
                    epoch,
                    signals,
                    active,
                })
                .is_ok()
            }
            Request::Exclude { epoch, pos, keep } => {
                let s = shard.as_mut().expect("pool protocol desync: no lease");
                let mut removed = 0u64;
                for mat in s.mats.iter_mut().flatten() {
                    if mat.selected_count() == 0 {
                        continue;
                    }
                    removed += mat.exclude(pos, keep, s.scalar);
                }
                tx.send(Reply::Removed { epoch, removed }).is_ok()
            }
            Request::Descend {
                epoch,
                plan,
                bail_at,
                rearm,
            } => {
                let s = shard.as_mut().expect("pool protocol desync: no lease");
                if let Some(membership) = rearm {
                    s.load_windows(&membership);
                    // Drop before replying so the controller's
                    // `Arc::make_mut` after the fold mutates in place.
                    drop(membership);
                }
                let trace = s.speculate(&plan, 0, false, bail_at);
                tx.send(Reply::Trace { epoch, trace }).is_ok()
            }
            Request::ReplaySuffix {
                epoch,
                plan,
                membership,
                decided,
                keeps,
                resume,
                survivors_negative,
            } => {
                let s = shard.as_mut().expect("pool protocol desync: no lease");
                s.rewind_to(
                    &membership,
                    &plan,
                    Prefix {
                        decided,
                        keeps,
                        resume,
                    },
                );
                let trace = s.speculate(&plan, resume, survivors_negative, None);
                tx.send(Reply::Trace { epoch, trace }).is_ok()
            }
            Request::Rearm { membership } => {
                let s = shard.as_mut().expect("pool protocol desync: no lease");
                s.load_windows(&membership);
                // `membership` drops here: the worker keeps no reference,
                // so the controller's `Arc::make_mut` stays in place.
                true
            }
            Request::FirstSelected { epoch } => {
                let s = shard.as_ref().expect("pool protocol desync: no lease");
                let firsts = s
                    .mats
                    .iter()
                    .map(|m| m.as_ref().and_then(Mat::first_selected))
                    .collect();
                tx.send(Reply::Firsts { epoch, firsts }).is_ok()
            }
            Request::ReadSlot { epoch, mat, slot } => {
                let s = shard.as_ref().expect("pool protocol desync: no lease");
                let raw = s.mats[mat]
                    .as_ref()
                    .expect("winning mat is materialized")
                    .read_slot(slot);
                tx.send(Reply::Raw { epoch, raw }).is_ok()
            }
            Request::Unlease { epoch } => {
                let s = shard.take().expect("pool protocol desync: no lease");
                session_timed = false;
                tx.send(Reply::Mats {
                    epoch,
                    mats: s.mats,
                    busy_ns,
                })
                .is_ok()
            }
        };
        if let Some(started) = started {
            busy_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        if !ok {
            return;
        }
    }
}

struct Worker {
    /// `None` only during shutdown (dropping the sender closes the
    /// channel, which is the worker's exit signal).
    tx: Option<Sender<Request>>,
    rx: Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn send(&self, req: Request) {
        self.tx
            .as_ref()
            .expect("pool is shutting down")
            .send(req)
            .expect("pool worker exited unexpectedly");
    }

    fn recv(&self) -> Reply {
        self.rx.recv().expect("pool worker exited unexpectedly")
    }
}

/// While leased: how the span is sharded across the shard executors
/// (shard lengths in executor order, used to target `ReadSlot` and map
/// dirty slots to their owning shard) and, for timed sessions, when the
/// session opened.
struct LeaseInfo {
    shard_lens: Vec<usize>,
    /// Key slots per mat (span slot → span mat arithmetic).
    slots_per_mat: usize,
    started: Option<Instant>,
}

impl LeaseInfo {
    /// Shard executor owning the given slot (a position within the span).
    fn shard_of_slot(&self, slot: u64) -> usize {
        let mut mat = slot as usize / self.slots_per_mat;
        for (i, &len) in self.shard_lens.iter().enumerate() {
            if mat < len {
                return i;
            }
            mat -= len;
        }
        self.shard_lens.len().saturating_sub(1)
    }
}

/// A persistent pool of mat-shard workers driving one chip's extraction
/// sessions. See the [module docs](self) for the protocol.
///
/// The pool is an execution vehicle only: it holds no chip state between
/// sessions and is deliberately *not* cloned with the chip (a cloned
/// chip lazily builds its own workers on first pooled extraction).
pub struct MatPool {
    /// Spawned worker threads, owning shards `1..N` in shard order.
    workers: Vec<Worker>,
    /// Shard 0, leader-resident: the controller thread participates in
    /// every broadcast instead of blocking in `recv` while an extra
    /// worker wakes. This removes one park/wake cycle per round trip
    /// (decisive when workers timeshare few cores) and overlaps the
    /// leader's shard with the workers' on multicore hosts.
    local: Option<Shard>,
    /// Wall time the leader spent on shard-0 work this session (timed
    /// sessions only; reported as worker 0 at unlease).
    local_busy_ns: u64,
    epoch: u64,
    lease: Option<LeaseInfo>,
    /// Memoized per-shard traces from this session's previous descend
    /// (empty until one completes). Valid per shard while the membership
    /// restricted to that shard is untouched — see [`Dirty`].
    cache: Vec<ShardTrace>,
    /// The plan the cached traces were speculated under.
    cache_plan: Option<SearchPlan>,
    /// Session observer (set by the owning chip before each lease).
    probe: Option<SharedProbe>,
    /// Force-replay test knob: workers bail out of the *initial*
    /// speculation after this many steps, so the fold must exercise the
    /// replay path. Replayed runs always complete.
    force_replay: Option<u16>,
}

/// What a folded descent produced — exactly the shape the chip needs to
/// reconstruct Sequential's counters and probe stream for one key.
pub(crate) struct DescentOutcome {
    /// Column-search steps the global descent executed.
    pub steps_executed: u16,
    /// Active (nonempty-selection) mat senses summed over those steps.
    pub mat_searches: u64,
    /// Rows removed by each exclusion, in step order (one entry per
    /// exclusion the global descent performed).
    pub removed_per_step: Vec<u64>,
    /// First selected slot per mat across the whole span, in span order
    /// (dead shards masked to `None`).
    pub firsts: Vec<Option<u32>>,
    /// Raw bits of each mat's first selected slot (0 where none).
    pub raws: Vec<u64>,
    /// Replay rounds the fold needed (0 on the natural path).
    pub replays: u64,
}

impl std::fmt::Debug for MatPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatPool")
            .field("workers", &self.workers.len())
            .field("epoch", &self.epoch)
            .field("leased", &self.lease.is_some())
            .finish()
    }
}

/// Runs one leader-resident shard operation, accumulating its wall time
/// into the leader's busy ledger during timed sessions (the clock-free
/// path reads no clocks, matching the workers).
fn local_timed<R>(timed: bool, busy: &mut u64, f: impl FnOnce() -> R) -> R {
    if timed {
        let t = Instant::now();
        let r = f();
        *busy += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        r
    } else {
        f()
    }
}

impl MatPool {
    /// Builds a pool of `shards` shard executors (at least one): the
    /// calling thread is the leader and owns shard 0 in place; the
    /// remaining `shards - 1` are long-lived spawned workers.
    pub fn new(shards: usize) -> MatPool {
        let workers = (1..shards.max(1))
            .map(|i| {
                let (req_tx, req_rx) = channel::<Request>();
                let (rep_tx, rep_rx) = channel::<Reply>();
                let handle = std::thread::Builder::new()
                    .name(format!("rime-mat-shard-{i}"))
                    .spawn(move || worker_loop(req_rx, rep_tx))
                    .expect("spawn mat-shard worker");
                Worker {
                    tx: Some(req_tx),
                    rx: rep_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        MatPool {
            workers,
            local: None,
            local_busy_ns: 0,
            epoch: 0,
            lease: None,
            cache: Vec::new(),
            cache_plan: None,
            probe: None,
            force_replay: None,
        }
    }

    /// Number of shard executors (the leader plus the spawned workers).
    pub fn workers(&self) -> usize {
        self.workers.len() + 1
    }

    /// Whether the current session accumulates busy time (probe set at
    /// lease time).
    fn timed(&self) -> bool {
        self.lease.as_ref().is_some_and(|l| l.started.is_some())
    }

    /// Arms (or disarms) the force-replay test knob: initial descents
    /// bail after `limit` steps so the fold must take the replay path.
    /// Drops any memoized traces — they were speculated under the old
    /// setting.
    pub fn set_force_replay(&mut self, limit: Option<u16>) {
        self.force_replay = limit;
        self.cache.clear();
        self.cache_plan = None;
    }

    /// Installs (or removes) the session observer. Timed sessions read
    /// clocks worker-side; with no probe the pool takes the pre-PR-5
    /// clock-free path.
    pub fn set_probe(&mut self, probe: Option<SharedProbe>) {
        self.probe = probe;
    }

    fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Opens a session: shards `span` (the mats of `[first, last]`,
    /// already materialized) contiguously across the shard executors
    /// (leader first). Everything the session is handed afterwards —
    /// membership bitmaps and dirty slots — indexes key slots from
    /// the span's first slot, so the pool never sees a chip address.
    ///
    /// # Panics
    ///
    /// Panics if a session is already open.
    pub fn lease(&mut self, span: Vec<Option<Mat>>, slots_per_mat: usize, scalar: bool) {
        let shards = self.workers();
        let chunk = span.len().div_ceil(shards).max(1);
        let mut shard_lens = Vec::with_capacity(shards);
        let mut left = span.len();
        for _ in 0..shards {
            let take = chunk.min(left);
            shard_lens.push(take);
            left -= take;
        }
        self.lease_with_shards(span, slots_per_mat, scalar, &shard_lens);
    }

    /// [`MatPool::lease`] with an explicit shard plan: `shard_lens[i]`
    /// mats go to shard executor `i` (0 = the leader), in span order.
    /// Lets tests pin adversarial splits (1-mat shards, maximally
    /// imbalanced shards) that the default contiguous chunking would
    /// never produce.
    ///
    /// # Panics
    ///
    /// Panics if a session is already open, if the plan's length differs
    /// from the shard-executor count, or if the plan does not cover the
    /// span.
    pub fn lease_with_shards(
        &mut self,
        span: Vec<Option<Mat>>,
        slots_per_mat: usize,
        scalar: bool,
        shard_lens: &[usize],
    ) {
        assert!(self.lease.is_none(), "pool session already open");
        assert_eq!(
            shard_lens.len(),
            self.workers(),
            "shard plan length must match shard-executor count"
        );
        assert_eq!(
            shard_lens.iter().sum::<usize>(),
            span.len(),
            "shard plan must cover the span"
        );
        let mats_total = span.len();
        let mut rest = span;
        let timed = self.probe.is_some();
        self.local = Some(Shard {
            base: 0,
            slots_per_mat,
            scalar,
            mats: rest.drain(..shard_lens[0]).collect(),
        });
        self.local_busy_ns = 0;
        let mut offset = shard_lens[0];
        for (worker, &take) in self.workers.iter().zip(&shard_lens[1..]) {
            let mats: Vec<Option<Mat>> = rest.drain(..take).collect();
            worker.send(Request::Lease {
                base: offset,
                slots_per_mat,
                scalar,
                timed,
                mats,
            });
            offset += take;
        }
        let started = if let Some(p) = &self.probe {
            let largest = shard_lens.iter().copied().max().unwrap_or(0);
            let smallest = shard_lens.iter().copied().min().unwrap_or(0);
            p.pool_lease(self.workers(), mats_total, largest, smallest);
            Some(Instant::now())
        } else {
            None
        };
        self.cache.clear();
        self.cache_plan = None;
        self.lease = Some(LeaseInfo {
            shard_lens: shard_lens.to_vec(),
            slots_per_mat,
            started,
        });
    }

    /// Closes the session and returns the span's mats in order. For timed
    /// sessions, reports each executor's busy time against the session
    /// duration (the difference is time parked on the channel — for the
    /// leader, time spent controller-side instead of on its shard).
    pub fn unlease(&mut self) -> Vec<Option<Mat>> {
        let lease = self.lease.take().expect("no pool session open");
        self.cache.clear();
        self.cache_plan = None;
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::Unlease { epoch });
        }
        let local = self.local.take().expect("no pool session open");
        let mut span = local.mats;
        let mut busy = Vec::with_capacity(self.workers());
        busy.push(self.local_busy_ns);
        for worker in &self.workers {
            match worker.recv() {
                Reply::Mats {
                    epoch: e,
                    mats,
                    busy_ns,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    span.extend(mats);
                    busy.push(busy_ns);
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        if let (Some(p), Some(started)) = (&self.probe, lease.started) {
            let session_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            for (worker, &busy_ns) in busy.iter().enumerate() {
                p.pool_worker(worker, busy_ns, session_ns);
            }
            p.pool_unlease();
        }
        span
    }

    /// Reports one completed broadcast→fold round trip to the probe.
    fn step_done(&self, started: Option<Instant>) {
        if let (Some(p), Some(t)) = (&self.probe, started) {
            p.pool_step(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Starts timing a broadcast→fold round trip (probe installed only).
    fn step_start(&self) -> Option<Instant> {
        self.probe.as_ref().map(|_| Instant::now())
    }

    /// Broadcasts one column-search step; wire-ORs the per-shard signals
    /// and sums active mats in shard order (Fig. 9's fixed reduction).
    /// The leader runs shard 0 inline between the broadcast and the fold.
    pub fn sense(&mut self, pos: u16) -> (ColumnSignals, u64) {
        let started = self.step_start();
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::Sense { epoch, pos });
        }
        let timed = self.timed();
        let local = self.local.as_ref().expect("no pool session open");
        let (mut global, mut active) = local_timed(timed, &mut self.local_busy_ns, || {
            let mut signals = ColumnSignals::default();
            let mut active = 0u64;
            for mat in local.mats.iter().flatten() {
                if mat.selected_count() == 0 {
                    continue;
                }
                active += 1;
                signals.merge(mat.sense(pos, local.scalar));
            }
            (signals, active)
        });
        for worker in &self.workers {
            match worker.recv() {
                Reply::Signals {
                    epoch: e,
                    signals,
                    active: a,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    global.merge(signals);
                    active += a;
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        self.step_done(started);
        (global, active)
    }

    /// Broadcasts one exclusion step; returns total rows deselected,
    /// summed in shard order (leader's shard first).
    pub fn exclude(&mut self, pos: u16, keep: bool) -> u64 {
        let started = self.step_start();
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::Exclude { epoch, pos, keep });
        }
        let timed = self.timed();
        let local = self.local.as_mut().expect("no pool session open");
        let mut removed = local_timed(timed, &mut self.local_busy_ns, || {
            let mut removed = 0u64;
            for mat in local.mats.iter_mut().flatten() {
                if mat.selected_count() == 0 {
                    continue;
                }
                removed += mat.exclude(pos, keep, local.scalar);
            }
            removed
        });
        for worker in &self.workers {
            match worker.recv() {
                Reply::Removed {
                    epoch: e,
                    removed: r,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    removed += r;
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        self.step_done(started);
        removed
    }

    /// Runs one whole bit-serial descent in a single broadcast→fold
    /// round trip: every worker speculates its shard's descent locally,
    /// and the controller folds the recorded traces in worker order into
    /// the exact global decision sequence (see the module docs for why
    /// the fold is exact and when it replays).
    ///
    /// `rearm`, when set, re-latches every *stale* shard's select
    /// windows from the shared membership vector before speculating —
    /// the fused form of [`MatPool::rearm`] + descend (one wake cycle
    /// per worker instead of two).
    ///
    /// `dirty` names the membership slots cleared since the previous
    /// descend of this session. Shards untouched by them reuse their
    /// memoized trace from that descend — a pure-function cache hit, so
    /// the fold's inputs (and therefore hits and every counter) are
    /// bit-identical to re-speculating — and their workers are not woken
    /// at all. Memoization requires the shared-membership path (`rearm`
    /// set); with `rearm == None` the select state is host-loaded and
    /// every shard runs fresh.
    ///
    /// `membership` lazily materializes the span's select membership
    /// (indexed from the span's first slot) — it is only invoked if a
    /// replay must re-arm a shard, which never happens on the natural
    /// path.
    pub(crate) fn descend(
        &mut self,
        plan: &SearchPlan,
        rearm: Option<&Arc<Bitmap>>,
        dirty: Dirty<'_>,
        membership: &mut dyn FnMut() -> Arc<Bitmap>,
    ) -> DescentOutcome {
        let started = self.step_start();
        let shards = self.workers();
        let cached = rearm.is_some()
            && self.cache.len() == shards
            && self.cache_plan.as_ref() == Some(plan)
            && matches!(dirty, Dirty::Slots(_));
        let stale: Vec<bool> = if cached {
            let lease = self.lease.as_ref().expect("no pool session open");
            // Partial traces (bailed under the force-replay knob, or
            // replayed suffixes) never stand in for a whole descent.
            let mut stale: Vec<bool> = self
                .cache
                .iter()
                .map(|t| !t.is_full(plan.steps()))
                .collect();
            if let Dirty::Slots(slots) = dirty {
                for &slot in slots {
                    stale[lease.shard_of_slot(slot)] = true;
                }
            }
            stale
        } else {
            vec![true; shards]
        };
        if let Some(p) = &self.probe {
            // Wake accounting: workers whose shard is clean are answered
            // from the memoized trace and never receive a request. The
            // leader's shard 0 counts as memoized but never as woken (it
            // runs inline, not on a parked worker).
            let woken = stale.iter().skip(1).filter(|&&s| s).count();
            let memoized = stale.iter().filter(|&&s| !s).count();
            p.pool_descend(woken, memoized);
        }
        let epoch = self.next_epoch();
        let bail_at = self.force_replay;
        for (w, worker) in self.workers.iter().enumerate() {
            if stale[w + 1] {
                worker.send(Request::Descend {
                    epoch,
                    plan: *plan,
                    bail_at,
                    rearm: rearm.map(Arc::clone),
                });
            }
        }
        // Leader runs shard 0 while the workers speculate theirs: on one
        // core this removes a park/wake cycle, on many it overlaps.
        let mut traces = std::mem::take(&mut self.cache);
        if !cached {
            traces.clear();
        }
        if stale[0] {
            let timed = self.timed();
            let local = self.local.as_mut().expect("no pool session open");
            let local_trace = local_timed(timed, &mut self.local_busy_ns, || {
                if let Some(membership) = rearm {
                    local.load_windows(membership);
                }
                local.speculate(plan, 0, false, bail_at)
            });
            if cached {
                traces[0] = local_trace;
            } else {
                traces.push(local_trace);
            }
        }
        for (w, worker) in self.workers.iter().enumerate() {
            if !stale[w + 1] {
                continue;
            }
            match worker.recv() {
                Reply::Trace { epoch: e, trace } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    if cached {
                        traces[w + 1] = trace;
                    } else {
                        traces.push(trace);
                    }
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        let outcome = self.fold(plan, &mut traces, membership);
        self.cache = traces;
        self.cache_plan = Some(*plan);
        self.step_done(started);
        outcome
    }

    /// Folds per-shard traces into the global descent, replaying shards
    /// whose traces cannot serve the fold (bailed early or divergent).
    fn fold(
        &mut self,
        plan: &SearchPlan,
        traces: &mut [ShardTrace],
        membership: &mut dyn FnMut() -> Arc<Bitmap>,
    ) -> DescentOutcome {
        let steps = plan.steps();
        let shards = traces.len();
        let mut alive: Vec<bool> = traces.iter().map(|t| t.initial_selected > 0).collect();
        let mut remaining: Vec<u64> = traces.iter().map(|t| t.initial_selected).collect();
        let mut selected: u64 = remaining.iter().sum();
        let mut survivors_negative = false;
        let mut decided = 0u64;
        let mut keeps = 0u64;
        let mut cached: Option<Arc<Bitmap>> = None;
        let mut outcome = DescentOutcome {
            steps_executed: 0,
            mat_searches: 0,
            removed_per_step: Vec::new(),
            firsts: Vec::new(),
            raws: Vec::new(),
            replays: 0,
        };
        let mut step: u16 = 0;
        while step < steps {
            if selected <= 1 {
                break;
            }
            // Coverage: a bailed shard's trace ends before the fold point.
            let lagging: Vec<usize> = (0..shards)
                .filter(|&i| alive[i] && traces[i].ran <= step)
                .collect();
            if !lagging.is_empty() {
                outcome.replays += 1;
                assert!(
                    outcome.replays <= 2 * steps as u64 + 2,
                    "pool replay failed to converge"
                );
                let prefix = Prefix {
                    decided,
                    keeps,
                    resume: step,
                };
                self.replay(
                    plan,
                    traces,
                    &lagging,
                    prefix,
                    survivors_negative,
                    membership,
                    &mut cached,
                    &remaining,
                );
                continue;
            }
            // Tentative wired-OR fold at this step (committed only once
            // no shard needs a replay).
            let bit = 1u64 << step;
            let mut global = ColumnSignals::default();
            let mut active = 0u64;
            for i in 0..shards {
                if !alive[i] {
                    continue;
                }
                global.any_one |= traces[i].any_one & bit != 0;
                global.any_zero |= traces[i].any_zero & bit != 0;
                active += traces[i].active[step as usize];
            }
            let sv_next = if plan.is_sign_step(step) {
                plan.survivors_negative(global.any_one, global.any_zero)
            } else {
                survivors_negative
            };
            let excluded = !global.all_same();
            let mut keep = false;
            let mut removed = 0u64;
            let mut deaths: Vec<usize> = Vec::new();
            if excluded {
                keep = plan.keep_bit(step, sv_next);
                let mut divergent: Vec<usize> = Vec::new();
                for i in 0..shards {
                    if !alive[i] {
                        continue;
                    }
                    let local_one = traces[i].any_one & bit != 0;
                    let local_zero = traces[i].any_zero & bit != 0;
                    if local_one && local_zero {
                        // Locally mixed: the shard speculated an
                        // exclusion; it must match the global decision.
                        let agreed =
                            traces[i].decided & bit != 0 && (traces[i].keeps & bit != 0) == keep;
                        if agreed {
                            removed += traces[i].removed[step as usize];
                        } else {
                            divergent.push(i);
                        }
                    } else if local_one || local_zero {
                        // Uniform: nothing removed locally. If uniform
                        // in the discarded bit, the whole shard dies.
                        if local_one != keep {
                            deaths.push(i);
                            removed += remaining[i];
                        }
                    } else {
                        // An alive shard with a silent column is out of
                        // sync with the tracked remaining count.
                        divergent.push(i);
                    }
                }
                if !divergent.is_empty() {
                    outcome.replays += 1;
                    assert!(
                        outcome.replays <= 2 * steps as u64 + 2,
                        "pool replay failed to converge"
                    );
                    let prefix = Prefix {
                        decided,
                        keeps,
                        resume: step,
                    };
                    self.replay(
                        plan,
                        traces,
                        &divergent,
                        prefix,
                        survivors_negative,
                        membership,
                        &mut cached,
                        &remaining,
                    );
                    continue;
                }
            }
            // Commit the step.
            outcome.steps_executed += 1;
            outcome.mat_searches += active;
            survivors_negative = sv_next;
            if excluded {
                decided |= bit;
                if keep {
                    keeps |= bit;
                }
                outcome.removed_per_step.push(removed);
                selected -= removed;
                for &i in &deaths {
                    alive[i] = false;
                }
                for i in 0..shards {
                    if alive[i] && traces[i].decided & bit != 0 {
                        remaining[i] -= traces[i].removed[step as usize];
                    }
                }
            }
            step += 1;
        }
        // Overlay per-mat firsts/raws in span order, masking dead shards
        // (their local select state is speculative garbage).
        for (trace, &ok) in traces.iter().zip(&alive) {
            if ok {
                outcome.firsts.extend_from_slice(&trace.firsts);
                outcome.raws.extend_from_slice(&trace.raws);
            } else {
                let (nf, nr) = (outcome.firsts.len(), outcome.raws.len());
                outcome.firsts.resize(nf + trace.firsts.len(), None);
                outcome.raws.resize(nr + trace.raws.len(), 0);
            }
        }
        outcome
    }

    /// Replays the targeted shards from `prefix.resume`, substituting
    /// their traces.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        plan: &SearchPlan,
        traces: &mut [ShardTrace],
        targets: &[usize],
        prefix: Prefix,
        survivors_negative: bool,
        membership: &mut dyn FnMut() -> Arc<Bitmap>,
        cached: &mut Option<Arc<Bitmap>>,
        remaining: &[u64],
    ) {
        let replay_started = self.probe.as_ref().map(|_| Instant::now());
        let membership = Arc::clone(cached.get_or_insert_with(&mut *membership));
        let epoch = self.next_epoch();
        for &i in targets {
            if i == 0 {
                continue;
            }
            self.workers[i - 1].send(Request::ReplaySuffix {
                epoch,
                plan: *plan,
                membership: Arc::clone(&membership),
                decided: prefix.decided,
                keeps: prefix.keeps,
                resume: prefix.resume,
                survivors_negative,
            });
        }
        for &i in targets {
            let trace = if i == 0 {
                // Leader replays its own shard (targets are ascending,
                // so this overlaps with the workers' replays).
                let timed = self.timed();
                let local = self.local.as_mut().expect("no pool session open");
                local_timed(timed, &mut self.local_busy_ns, || {
                    local.rewind_to(&membership, plan, prefix);
                    local.speculate(plan, prefix.resume, survivors_negative, None)
                })
            } else {
                match self.workers[i - 1].recv() {
                    Reply::Trace { epoch: e, trace } => {
                        assert_eq!(e, epoch, "pool protocol desync");
                        trace
                    }
                    _ => panic!("pool protocol desync: unexpected reply"),
                }
            };
            debug_assert_eq!(
                trace.initial_selected, remaining[i],
                "replayed shard disagrees with tracked remaining"
            );
            traces[i] = trace;
        }
        if let (Some(p), Some(t)) = (&self.probe, replay_started) {
            // Replayed work reports separately from first-run speculation
            // (`pool_step`): suffix steps actually re-executed, summed
            // over the targets.
            let steps: u64 = targets
                .iter()
                .map(|&i| u64::from(traces[i].ran.saturating_sub(prefix.resume)))
                .sum();
            p.pool_replay(
                steps,
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }

    /// Broadcasts a select-window rearm from the shared membership
    /// vector. Fire-and-forget worker-side (the per-worker channels are
    /// FIFO, so the next reply-bearing request is its barrier); the
    /// leader re-latches shard 0 immediately.
    pub fn rearm(&mut self, membership: &Arc<Bitmap>) {
        for worker in &self.workers {
            worker.send(Request::Rearm {
                membership: Arc::clone(membership),
            });
        }
        let timed = self.timed();
        let local = self.local.as_mut().expect("no pool session open");
        local_timed(timed, &mut self.local_busy_ns, || {
            local.load_windows(membership)
        });
    }

    /// First selected row per mat across the whole span, in mat order
    /// (leader's shard first).
    pub fn first_selected(&mut self) -> Vec<Option<u32>> {
        let started = self.step_start();
        let epoch = self.next_epoch();
        for worker in &self.workers {
            worker.send(Request::FirstSelected { epoch });
        }
        let timed = self.timed();
        let local = self.local.as_ref().expect("no pool session open");
        let mut firsts: Vec<Option<u32>> = local_timed(timed, &mut self.local_busy_ns, || {
            local
                .mats
                .iter()
                .map(|m| m.as_ref().and_then(Mat::first_selected))
                .collect()
        });
        for worker in &self.workers {
            match worker.recv() {
                Reply::Firsts {
                    epoch: e,
                    firsts: f,
                } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    firsts.extend(f);
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        }
        self.step_done(started);
        firsts
    }

    /// Reads raw bits of row `slot` in the span's `mat`-th mat
    /// (0 = first mat of the leased span).
    pub fn read_slot(&mut self, mat: usize, slot: u32) -> u64 {
        let started = self.step_start();
        let lease = self.lease.as_ref().expect("no pool session open");
        // Locate the shard executor owning span-local mat index `mat`.
        let mut index = mat;
        let mut owner = 0usize;
        for (w, &len) in lease.shard_lens.iter().enumerate() {
            if index < len {
                owner = w;
                break;
            }
            index -= len;
        }
        let raw = if owner == 0 {
            let timed = self.timed();
            let local = self.local.as_ref().expect("no pool session open");
            local_timed(timed, &mut self.local_busy_ns, || {
                local.mats[index]
                    .as_ref()
                    .expect("winning mat is materialized")
                    .read_slot(slot)
            })
        } else {
            let epoch = self.next_epoch();
            let worker = &self.workers[owner - 1];
            worker.send(Request::ReadSlot {
                epoch,
                mat: index,
                slot,
            });
            match worker.recv() {
                Reply::Raw { epoch: e, raw } => {
                    assert_eq!(e, epoch, "pool protocol desync");
                    raw
                }
                _ => panic!("pool protocol desync: unexpected reply"),
            }
        };
        self.step_done(started);
        raw
    }
}

/// One-shot measured costs of the pool's control plane vs the bit-sliced
/// data plane, used to price the pool crossover
/// ([`crate::Chip::pool_crossover_mats`]). Measured once per process
/// (see [`pool_calibration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCalibration {
    /// Best-case broadcast→fold round-trip latency through a worker
    /// channel pair, in nanoseconds (≥ 1).
    pub round_trip_ns: u64,
    /// Cost of one 64-bit word of select-vector AND work, in
    /// picoseconds (≥ 1).
    pub word_picos: u64,
}

/// Measures (once per process) the pool round-trip latency and the
/// per-word cost of the bit-sliced kernels. Both are wall-clock
/// measurements and therefore nondeterministic; everything derived from
/// them (the pool crossover, which no policy consults) is reported,
/// never part of a result.
pub fn pool_calibration() -> PoolCalibration {
    static CAL: OnceLock<PoolCalibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Control plane: minimum of 64 sense round trips through a tiny
        // two-shard pool (leader + one spawned worker — the smallest
        // shape that pays a real channel+wake cost; min, not mean, so
        // scheduler noise is excluded).
        let mut pool = MatPool::new(2);
        let span = vec![Some(Mat::new(1, 1)), Some(Mat::new(1, 1))];
        pool.lease(span, 1, false);
        let mut best = u64::MAX;
        for _ in 0..64 {
            let t = Instant::now();
            std::hint::black_box(pool.sense(0));
            best = best.min(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        pool.unlease();
        // Data plane: words/sec of the exclusion kernel over a select
        // vector big enough to dwarf loop overhead.
        const BITS: usize = 1 << 16;
        const REPS: u64 = 64;
        let mut a = Bitmap::ones(BITS);
        let b = Bitmap::ones(BITS);
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(&mut a).and_assign(std::hint::black_box(&b));
        }
        let total_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let words = REPS * (BITS as u64 / 64);
        PoolCalibration {
            round_trip_ns: best.max(1),
            word_picos: (total_ns.saturating_mul(1000) / words).max(1),
        }
    })
}

impl Drop for MatPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Closing the request channel is the exit signal.
            worker.tx.take();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_with(rows: u32, keys: &[u64]) -> Mat {
        let mut mat = Mat::new(1, rows);
        for (slot, &raw) in keys.iter().enumerate() {
            mat.write_slot(slot as u32, raw);
        }
        mat
    }

    fn select_all(mat: &mut Mat, slots: usize, base: usize, capacity: usize) {
        let mut membership = Bitmap::zeros(capacity);
        membership.set_range(base, base + slots);
        mat.load_select_window(&membership, base);
    }

    #[test]
    fn lease_roundtrip_preserves_mats() {
        let mut pool = MatPool::new(3);
        let span: Vec<Option<Mat>> = vec![
            Some(mat_with(8, &[1, 2, 3])),
            None,
            Some(mat_with(8, &[9])),
            Some(mat_with(8, &[4, 5])),
        ];
        pool.lease(span, 8, false);
        let back = pool.unlease();
        assert_eq!(back.len(), 4);
        assert!(back[1].is_none());
        assert_eq!(back[0].as_ref().unwrap().read_slot(2), 3);
        assert_eq!(back[2].as_ref().unwrap().read_slot(0), 9);
        assert_eq!(back[3].as_ref().unwrap().read_slot(1), 5);
    }

    #[test]
    fn sense_matches_sequential_walk_at_any_worker_count() {
        let keys = [0b1010u64, 0b0110, 0b0001, 0b1111, 0b0000];
        for workers in 1..=4 {
            let mut mats: Vec<Option<Mat>> = (0..3)
                .map(|i| {
                    let mut m = mat_with(8, &keys[i..i + 2]);
                    select_all(&mut m, 2, i * 8, 64);
                    Some(m)
                })
                .collect();
            // Sequential reference.
            let mut want = ColumnSignals::default();
            let mut want_active = 0u64;
            for mat in mats.iter().flatten() {
                if mat.selected_count() > 0 {
                    want_active += 1;
                    want.merge(mat.sense_column(1));
                }
            }
            // Pool under test.
            let mut pool = MatPool::new(workers);
            pool.lease(std::mem::take(&mut mats), 8, false);
            let (got, active) = pool.sense(1);
            assert_eq!((got.any_one, got.any_zero), (want.any_one, want.any_zero));
            assert_eq!(active, want_active);
            pool.unlease();
        }
    }

    #[test]
    fn read_slot_targets_the_owning_shard() {
        let mut pool = MatPool::new(2);
        let span: Vec<Option<Mat>> = (0..5)
            .map(|i| Some(mat_with(8, &[i as u64 * 100 + 7])))
            .collect();
        pool.lease(span, 8, false);
        for mat in 0..5 {
            assert_eq!(pool.read_slot(mat, 0), mat as u64 * 100 + 7);
        }
        pool.unlease();
    }

    #[test]
    fn descend_is_worker_count_invariant_and_replay_safe() {
        use crate::encoding::KeyFormat;
        use crate::plan::Direction;

        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let keys: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let slots = 8usize;
        let build_span = || -> Vec<Option<Mat>> {
            (0..5)
                .map(|m| {
                    let mut mat = mat_with(slots as u32, &keys[m * slots..(m + 1) * slots]);
                    select_all(&mut mat, slots, m * slots, 40);
                    Some(mat)
                })
                .collect()
        };
        let run = |workers: usize, force: Option<u16>| {
            let mut pool = MatPool::new(workers);
            pool.set_force_replay(force);
            pool.lease(build_span(), slots, false);
            let mut membership = || {
                let mut b = Bitmap::zeros(40);
                b.set_range(0, 40);
                Arc::new(b)
            };
            let out = pool.descend(&plan, None, Dirty::All, &mut membership);
            pool.unlease();
            out
        };
        let want = run(1, None);
        assert_eq!(want.replays, 0, "natural path must never replay");
        for workers in [1usize, 2, 3, 5] {
            for force in [None, Some(0u16), Some(1), Some(17), Some(63)] {
                let got = run(workers, force);
                let ctx = format!("workers {workers}, force {force:?}");
                assert_eq!(got.steps_executed, want.steps_executed, "{ctx}");
                assert_eq!(got.mat_searches, want.mat_searches, "{ctx}");
                assert_eq!(got.removed_per_step, want.removed_per_step, "{ctx}");
                assert_eq!(got.firsts, want.firsts, "{ctx}");
                assert_eq!(got.raws, want.raws, "{ctx}");
                if let Some(bail) = force {
                    if bail < got.steps_executed {
                        assert!(got.replays > 0, "{ctx}: bail must force a replay");
                    }
                } else {
                    assert_eq!(got.replays, 0, "{ctx}: natural path must never replay");
                }
            }
        }
    }

    #[test]
    fn memoized_descents_match_fresh_speculation() {
        use crate::encoding::KeyFormat;
        use crate::plan::Direction;

        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let keys: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let slots = 8usize;
        let build_span = || -> Vec<Option<Mat>> {
            (0..5)
                .map(|m| Some(mat_with(slots as u32, &keys[m * slots..(m + 1) * slots])))
                .collect()
        };
        // Extract every key twice: once letting consecutive descents
        // reuse memoized shard traces (only the winner's shard dirty),
        // once forcing every shard to re-speculate each round. The hit
        // streams and counters must be bit-identical — memoization is a
        // pure-function cache, not an approximation.
        type DescentRecord = (Vec<Option<u32>>, Vec<u64>, u16, u64);
        let run = |use_dirty_slots: bool| -> Vec<DescentRecord> {
            let mut pool = MatPool::new(3);
            pool.lease(build_span(), slots, false);
            let mut membership = Arc::new({
                let mut b = Bitmap::zeros(40);
                b.set_range(0, 40);
                b
            });
            let mut extracted = Vec::new();
            let mut dirty_slot: Option<u64> = None;
            for _ in 0..40 {
                let rearm = Arc::clone(&membership);
                let mut membership_fn = || Arc::clone(&membership);
                let dirty = match (&dirty_slot, use_dirty_slots) {
                    (Some(slot), true) => Dirty::Slots(std::slice::from_ref(slot)),
                    _ => Dirty::All,
                };
                let out = pool.descend(&plan, Some(&rearm), dirty, &mut membership_fn);
                drop(rearm);
                // Winner = first selected slot of the lowest-index mat.
                let (mat, first) = out
                    .firsts
                    .iter()
                    .enumerate()
                    .find_map(|(m, f)| f.map(|s| (m, s)))
                    .expect("non-empty selection yields a winner");
                let slot = (mat * slots) as u64 + u64::from(first);
                extracted.push((
                    out.firsts.clone(),
                    out.raws.clone(),
                    out.steps_executed,
                    out.mat_searches,
                ));
                Arc::make_mut(&mut membership).set(slot as usize, false);
                dirty_slot = Some(slot);
            }
            pool.unlease();
            extracted
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn lease_with_shards_honors_adversarial_splits() {
        for shard_lens in [vec![1usize, 1, 3], vec![5, 0, 0], vec![0, 0, 5]] {
            let mut pool = MatPool::new(3);
            let span: Vec<Option<Mat>> = (0..5)
                .map(|i| Some(mat_with(8, &[i as u64 * 100 + 7])))
                .collect();
            pool.lease_with_shards(span, 8, false, &shard_lens);
            for mat in 0..5 {
                assert_eq!(
                    pool.read_slot(mat, 0),
                    mat as u64 * 100 + 7,
                    "shards {shard_lens:?}"
                );
            }
            let back = pool.unlease();
            assert_eq!(back.len(), 5);
        }
    }

    #[test]
    fn calibration_is_positive_and_stable() {
        let a = pool_calibration();
        let b = pool_calibration();
        assert!(a.round_trip_ns >= 1 && a.word_picos >= 1);
        assert_eq!(a, b, "per-process calibration must be cached");
    }

    #[test]
    fn rearm_updates_selection_through_shared_bitmap() {
        let mut pool = MatPool::new(2);
        let span: Vec<Option<Mat>> = (0..2).map(|_| Some(mat_with(8, &[1, 2, 3]))).collect();
        pool.lease(span, 8, false);
        let mut membership = Arc::new({
            let mut b = Bitmap::zeros(16);
            b.set_range(0, 3);
            b.set_range(8, 11);
            b
        });
        pool.rearm(&membership);
        assert_eq!(pool.first_selected(), vec![Some(0), Some(0)]);
        Arc::make_mut(&mut membership).set(0, false);
        pool.rearm(&membership);
        assert_eq!(pool.first_selected(), vec![Some(1), Some(0)]);
        pool.unlease();
    }
}
