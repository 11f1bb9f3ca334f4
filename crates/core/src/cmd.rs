//! The unified command plane: one typed command IR and one executor.
//!
//! The paper's §V defines a *single* hardware command interface — ranges
//! and formats programmed into registers, a command doorbell, results
//! read back over the DDR4 interface. This module is that interface in
//! typed form: every mutation of a RIME device is a [`Command`], and one
//! [`Executor`] owns validation, chip dispatch, and result marshalling
//! into an [`Outcome`]. The three front-ends are encoders over it:
//!
//! * [`crate::device::RimeDevice`] — the Fig. 12 userspace API; each
//!   method builds the corresponding `Command`;
//! * [`crate::mmio::MmioInterface`] — decodes register writes into the
//!   same `Command`s and translates errors to register codes;
//! * [`Executor::replay`] — feeds the `Command`s a journal recorded
//!   back into a fresh executor, so a journal doubles as a debugging
//!   trace.
//!
//! Because every path funnels through [`Executor::execute`], the
//! executor records *all* device activity, one command at a time: its
//! [`crate::telemetry::Effects`] feed the built-in stats and the metrics
//! registry once each, and future queueing/sharding/async work is an
//! executor feature rather than a three-way rewrite.
//!
//! Internal locks use poison *recovery* (`PoisonError::into_inner`), not
//! `expect`: a worker thread that panics mid-operation may leave its own
//! range in an undefined state, but it cannot cascade into a panic for
//! every other thread sharing the device.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

use rime_memristive::{
    Chip, ChipState, Direction, ExtractHit, KeyFormat, OpCounters, ParallelPolicy,
};

use crate::device::{Region, RimeConfig};
use crate::driver::ContiguousAllocator;
use crate::error::RimeError;
use crate::flight::{self, FlightRecorder, TraceCtx};
#[cfg(feature = "crash-test")]
use crate::journal::CrashPoint;
use crate::journal::{
    self, Journal, JournalConfig, JournalError, JournalRecord, JournalStore, RecoveryReport,
};
use crate::metrics::{ChipProbe, MetricsRegistry, MetricsSink, Snapshot};
use crate::telemetry::{DeviceStats, Effects};

/// Locks a mutex, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks an `RwLock`, recovering from poison.
fn read_recover<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks an `RwLock`, recovering from poison.
fn write_recover<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One typed device command — the IR every front-end lowers into.
///
/// Commands borrow bulk payloads (`Cow`) so encoding a store does not
/// copy the key buffer; an owning form (`Cow::Owned`) exists for feeders
/// that build commands from recorded data.
#[derive(Debug, Clone, PartialEq)]
pub enum Command<'a> {
    /// `rime_malloc(len)`: allocate `len` contiguous key slots.
    Alloc {
        /// Requested length in key slots.
        len: u64,
    },
    /// `rime_free`: release a region and drop any active session.
    Free {
        /// The region to release.
        region: Region,
    },
    /// Ordinary DDR4 stores of raw key bits at `offset` in the region.
    Write {
        /// Target region.
        region: Region,
        /// Region-relative slot offset.
        offset: u64,
        /// Raw key patterns to store.
        raw: Cow<'a, [u64]>,
        /// Key format the bits are encoded in.
        format: KeyFormat,
    },
    /// Ordinary DDR4 loads of `n` raw keys from `offset`.
    Read {
        /// Source region.
        region: Region,
        /// Region-relative slot offset.
        offset: u64,
        /// Number of keys to load.
        n: u64,
    },
    /// `rime_init` over `[offset, offset + len)` of the region.
    Init {
        /// Target region.
        region: Region,
        /// Region-relative start.
        offset: u64,
        /// Length in slots.
        len: u64,
        /// Key format for the ranking session.
        format: KeyFormat,
    },
    /// `rime_min`/`rime_max`: extract the next extreme of the session.
    Extract {
        /// Target region.
        region: Region,
        /// Format the caller requests (checked against the session).
        format: KeyFormat,
        /// Min or max.
        direction: Direction,
    },
    /// `rime_min_k`/`rime_max_k`: extract up to `k` consecutive extremes
    /// with the per-chip candidate buffers prefilled to depth `k`
    /// (Fig. 14's buffer, generalized).
    ExtractBatch {
        /// Target region.
        region: Region,
        /// Format the caller requests.
        format: KeyFormat,
        /// Min or max.
        direction: Direction,
        /// Batch size.
        k: usize,
    },
    /// Drains one already-buffered candidate from the session's per-chip
    /// queues *without* re-engaging the chips. Returns `None` once the
    /// buffers are dry — which is not the same as the range being
    /// exhausted: an `Extract` may still find more.
    FifoNext {
        /// Target region.
        region: Region,
    },
}

impl Command<'_> {
    /// Stable lowercase label of the command kind, used as a metric
    /// label value (`rime_commands_total{command="extract_batch"}`).
    pub fn kind(&self) -> &'static str {
        match self {
            Command::Alloc { .. } => "alloc",
            Command::Free { .. } => "free",
            Command::Write { .. } => "write",
            Command::Read { .. } => "read",
            Command::Init { .. } => "init",
            Command::Extract { .. } => "extract",
            Command::ExtractBatch { .. } => "extract_batch",
            Command::FifoNext { .. } => "fifo_next",
        }
    }

    /// The region this command addresses, if any.
    pub fn region(&self) -> Option<Region> {
        match self {
            Command::Alloc { .. } => None,
            Command::Free { region }
            | Command::Write { region, .. }
            | Command::Read { region, .. }
            | Command::Init { region, .. }
            | Command::Extract { region, .. }
            | Command::ExtractBatch { region, .. }
            | Command::FifoNext { region } => Some(*region),
        }
    }

    fn region_mut(&mut self) -> Option<&mut Region> {
        match self {
            Command::Alloc { .. } => None,
            Command::Free { region }
            | Command::Write { region, .. }
            | Command::Read { region, .. }
            | Command::Init { region, .. }
            | Command::Extract { region, .. }
            | Command::ExtractBatch { region, .. }
            | Command::FifoNext { region } => Some(region),
        }
    }
}

/// One committed command of a journal: an intent and the outcome that
/// committed it.
struct Committed<'j> {
    ordinal: u64,
    command: &'j Command<'static>,
    result: &'j Result<Outcome, RimeError>,
    effects: &'j Effects,
}

/// Pairs each intent in `records` with its outcome, in log order,
/// skipping checkpoints. A repeated intent for the same ordinal is the
/// resume of a command whose first attempt crashed mid-dispatch. Also
/// returns the ordinal of a final intent that never committed.
fn committed_commands(
    records: &[(u64, JournalRecord)],
) -> Result<(Vec<Committed<'_>>, Option<u64>), RimeError> {
    let mut pending: Option<(u64, &Command<'static>)> = None;
    let mut committed = Vec::new();
    for (_, record) in records {
        match record {
            JournalRecord::Intent { ordinal, command } => pending = Some((*ordinal, command)),
            JournalRecord::Outcome {
                ordinal,
                result,
                effects,
            } => match pending.take() {
                Some((intent, command)) if intent == *ordinal => committed.push(Committed {
                    ordinal: *ordinal,
                    command,
                    result,
                    effects,
                }),
                _ => {
                    return Err(RimeError::Journal(JournalError::Decode {
                        what: format!("outcome for ordinal {ordinal} without a matching intent"),
                    }))
                }
            },
            JournalRecord::Checkpoint { .. } => {}
        }
    }
    Ok((committed, pending.map(|(ordinal, _)| ordinal)))
}

/// The marshalled result of a successfully executed [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `Alloc` → the new region handle.
    Region(Region),
    /// `Free` / `Write` / `Init` → completion without a payload.
    Done,
    /// `Read` → the loaded raw key bits.
    Keys(Vec<u64>),
    /// `Extract` / `FifoNext` → the next `(global slot, raw bits)`, or
    /// `None` on exhaustion (empty buffers, for `FifoNext`).
    Hit(Option<(u64, u64)>),
    /// `ExtractBatch` → up to `k` `(global slot, raw bits)` in order.
    Hits(Vec<(u64, u64)>),
}

/// An active ranking session (`rime_init` state) for one region.
#[derive(Debug, Clone)]
struct Session {
    direction: Option<Direction>,
    begin: u64,
    end: u64,
    format: KeyFormat,
    /// Per spanned chip: FIFO of buffered candidates (global slot, raw
    /// bits), in extraction order. Depth 1 under `Extract`; the batch
    /// command prefills deeper so one call drains `k` results (Fig. 14's
    /// buffer, generalized).
    queues: HashMap<u32, VecDeque<(u64, u64)>>,
}

/// Region/format bookkeeping shared under one lock: a region's extent
/// and its stored key format are always consulted together.
#[derive(Debug, Default)]
struct Tables {
    regions: HashMap<u64, (u64, u64)>, // id → (start, len)
    formats: HashMap<u64, KeyFormat>,  // id → stored key format
}

/// Where each executed command is recorded, once: the event sequence
/// number, the built-in stats, and the metrics publisher, under one lock
/// so `seq` order is publication order.
#[derive(Debug)]
struct Ledger {
    seq: u64,
    stats: DeviceStats,
    metrics: MetricsSink,
}

impl Ledger {
    fn new(config: &RimeConfig, registry: &MetricsRegistry, seq: u64, stats: DeviceStats) -> Self {
        let chips = config.total_chips() as usize;
        Ledger {
            seq,
            stats,
            metrics: MetricsSink::new(registry.clone(), config.timing, chips),
        }
    }

    /// Records one executed command. A command re-executed by journal
    /// recovery only ticks the replay counter in the metrics.
    fn record(
        &mut self,
        command: &Command<'_>,
        result: &Result<Outcome, RimeError>,
        wall_ns: u64,
        effects: &Effects,
        replayed: bool,
    ) {
        self.stats.record(effects);
        if replayed {
            self.metrics.note_replayed();
        } else {
            let error = result.as_ref().err();
            self.metrics
                .observe(self.seq, command, error, wall_ns, effects);
        }
        self.seq += 1;
    }
}

/// The single command executor behind every front-end.
///
/// Owns the chips, the driver allocator, region/format tables, and the
/// active sessions; validates and dispatches every [`Command`] and
/// records each one once, into its stats and its metrics registry.
///
/// Every method takes `&self`: chips, allocator, and session state sit
/// behind their own locks, so a shared executor supports the concurrent
/// multi-range operation §III-B.3 requires. Lock order is tables →
/// sessions map → one session → one chip at a time → ledger; no
/// path holds two chips or two sessions simultaneously, so the
/// hierarchy is deadlock-free.
#[derive(Debug)]
pub struct Executor {
    config: RimeConfig,
    chips: Vec<Mutex<Chip>>,
    allocator: Mutex<ContiguousAllocator>,
    tables: RwLock<Tables>,
    sessions: RwLock<HashMap<u64, Arc<Mutex<Session>>>>, // region id → rime_init state
    next_id: AtomicU64,
    ledger: Mutex<Ledger>,
    /// The registry the ledger's metrics publisher feeds; always on.
    registry: MetricsRegistry,
    /// Write-ahead journal, when attached. Doubles as the serialization
    /// point for journaled execution: [`Executor::execute`] holds this
    /// lock across intent → dispatch → outcome, so the log order *is*
    /// the execution order and recovery replay is deterministic.
    journal: Mutex<Option<Journal>>,
    /// Causal-trace flight recorder, when attached. One `OnceLock`
    /// pointer test on the traced-dispatch path; never consulted on
    /// plain [`Executor::execute`].
    flight: OnceLock<Arc<FlightRecorder>>,
    /// Set while [`Executor::recover`] replays the journal tail:
    /// replayed commands skip the regular per-command metrics and tick
    /// only the nondeterministic-flagged replay counter, keeping masked
    /// snapshots of a recovered device identical to an uncrashed run's.
    replaying: AtomicBool,
    /// Fault injector for the crash harness; `None` keeps every crash
    /// site a no-op.
    #[cfg(feature = "crash-test")]
    crash: Mutex<Option<Arc<CrashPoint>>>,
    /// One-shot per-chip errors substituted for the *next* batched
    /// extraction result on that chip — models a chip failing
    /// mid-`ExtractBatch` after its work (and counter delta) happened.
    #[cfg(feature = "crash-test")]
    extract_faults: Mutex<Vec<(u32, RimeError)>>,
}

impl Executor {
    /// Brings up an executor with fresh chips for `config`.
    pub fn new(config: RimeConfig) -> Executor {
        let registry = MetricsRegistry::new();
        let stats = DeviceStats::new(config.total_chips() as usize);
        Executor {
            chips: (0..config.total_chips())
                .map(|_| Mutex::new(Chip::new(config.chip_geometry)))
                .collect(),
            allocator: Mutex::new(ContiguousAllocator::new(
                config.total_slots(),
                config.driver,
            )),
            tables: RwLock::new(Tables::default()),
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            ledger: Mutex::new(Ledger::new(&config, &registry, 0, stats)),
            registry,
            journal: Mutex::new(None),
            flight: OnceLock::new(),
            replaying: AtomicBool::new(false),
            #[cfg(feature = "crash-test")]
            crash: Mutex::new(None),
            #[cfg(feature = "crash-test")]
            extract_faults: Mutex::new(Vec::new()),
            config,
        }
    }

    /// Validates, dispatches, and marshals one command, recording it
    /// (success or failure) in the stats and metrics.
    /// With a journal attached, the command rides the commit-marker
    /// protocol: intent logged before dispatch, outcome after.
    pub fn execute(&self, command: Command<'_>) -> Result<Outcome, RimeError> {
        let guard = lock_recover(&self.journal);
        if guard.is_some() {
            self.execute_journaled(guard, &command)
        } else {
            drop(guard);
            self.run(&command).0
        }
    }

    /// Like [`Executor::execute`], but runs the command under a trace
    /// context: while the command executes, `ctx` is the calling
    /// thread's [`flight::current`] context, so the chip probes (and any
    /// nested spans) parent their `device` spans correctly.
    /// Without an attached recorder — or with `ctx` `None` — this is
    /// exactly `execute` plus one pointer test.
    pub fn execute_traced(
        &self,
        command: Command<'_>,
        ctx: Option<TraceCtx>,
    ) -> Result<Outcome, RimeError> {
        let _guard = match (self.flight.get(), ctx) {
            (Some(_), Some(ctx)) => Some(flight::enter(ctx)),
            _ => None,
        };
        self.execute(command)
    }

    /// Dispatches one command and records it in the ledger, returning
    /// both the result and the captured effects — the pair the journal
    /// records and recovery replay compares against.
    fn run(&self, command: &Command<'_>) -> (Result<Outcome, RimeError>, Effects) {
        let start = Instant::now();
        let mut effects = Effects::default();
        let result = self.dispatch(command, &mut effects);
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let replayed = self.replaying.load(Ordering::Relaxed);
        lock_recover(&self.ledger).record(command, &result, wall_ns, &effects, replayed);
        (result, effects)
    }

    /// The journaled path: intent durable before dispatch, outcome
    /// durable after, a checkpoint every `checkpoint_every` commits —
    /// with a crash site at every step boundary. A journal append
    /// failure refuses the command *before* it runs (the durability
    /// contract is write-ahead, not best-effort).
    fn execute_journaled(
        &self,
        mut guard: MutexGuard<'_, Option<Journal>>,
        command: &Command<'_>,
    ) -> Result<Outcome, RimeError> {
        let journal = guard.as_mut().expect("journaled path");
        let ordinal = journal.committed();
        journal.record_intent(ordinal, command)?;
        self.crash_point(); // intent durable, nothing dispatched
        let (result, effects) = self.run(command);
        self.crash_point(); // dispatched + published, outcome not durable
        journal.record_outcome(ordinal, &result, &effects)?;
        self.crash_point(); // committed; checkpoint may still be due
        let every = journal.config().checkpoint_every;
        if every > 0 && journal.committed().is_multiple_of(every) {
            let state = self.checkpoint_bytes();
            self.crash_point(); // mid-checkpoint: state built, not appended
            journal.record_checkpoint(&state)?;
            self.crash_point(); // checkpoint durable
        }
        result
    }

    fn dispatch(&self, command: &Command<'_>, fx: &mut Effects) -> Result<Outcome, RimeError> {
        match command {
            Command::Alloc { len } => self.do_alloc(*len).map(Outcome::Region),
            Command::Free { region } => self.do_free(*region).map(|()| Outcome::Done),
            Command::Write {
                region,
                offset,
                raw,
                format,
            } => self
                .do_write(*region, *offset, raw, *format, fx)
                .map(|()| Outcome::Done),
            Command::Read { region, offset, n } => {
                self.do_read(*region, *offset, *n, fx).map(Outcome::Keys)
            }
            Command::Init {
                region,
                offset,
                len,
                format,
            } => self
                .do_init(*region, *offset, *len, *format, fx)
                .map(|()| Outcome::Done),
            Command::Extract {
                region,
                format,
                direction,
            } => self
                .do_extract(*region, *format, *direction, fx)
                .map(Outcome::Hit),
            Command::ExtractBatch {
                region,
                format,
                direction,
                k,
            } => self
                .do_extract_batch(*region, *format, *direction, *k, fx)
                .map(Outcome::Hits),
            Command::FifoNext { region } => self.do_fifo_next(*region, fx).map(Outcome::Hit),
        }
    }

    /// Runs `f` under one chip's lock, publishing the chip's counter
    /// delta into `fx` — the single point where chip work becomes an
    /// accounted effect. Deltas are captured even when `f` fails, so
    /// partially performed work is still accounted.
    fn with_chip<R>(&self, idx: u32, fx: &mut Effects, f: impl FnOnce(&mut Chip) -> R) -> R {
        let mut chip = lock_recover(&self.chips[idx as usize]);
        let before = *chip.counters();
        let out = f(&mut chip);
        let delta = chip.counters().delta_since(&before);
        drop(chip);
        fx.record_chip(idx, delta);
        // Crash site: the chip mutated and its delta is captured, but
        // the command has not committed (mid-write, mid-init, mid-rearm).
        self.crash_point();
        out
    }

    fn do_alloc(&self, len: u64) -> Result<Region, RimeError> {
        let start = lock_recover(&self.allocator).alloc(len)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        write_recover(&self.tables).regions.insert(id, (start, len));
        Ok(Region { id, start, len })
    }

    fn do_free(&self, region: Region) -> Result<(), RimeError> {
        let (start, _) = {
            let mut tables = write_recover(&self.tables);
            let extent = tables
                .regions
                .remove(&region.id)
                .ok_or(RimeError::InvalidRegion)?;
            tables.formats.remove(&region.id);
            extent
        };
        write_recover(&self.sessions).remove(&region.id);
        lock_recover(&self.allocator).free(start)
    }

    /// Validates region + bounds, returning the global start slot.
    fn check(&self, region: Region, offset: u64, n: u64) -> Result<u64, RimeError> {
        let tables = read_recover(&self.tables);
        let &(start, len) = tables
            .regions
            .get(&region.id)
            .ok_or(RimeError::InvalidRegion)?;
        if offset + n > len {
            return Err(RimeError::OutOfBounds {
                offset: offset + n,
                len,
            });
        }
        Ok(start + offset)
    }

    fn chip_of(&self, slot: u64) -> (u32, u64) {
        let per_chip = self.config.chip_slots();
        ((slot / per_chip) as u32, slot % per_chip)
    }

    fn do_write(
        &self,
        region: Region,
        offset: u64,
        raw_keys: &[u64],
        format: KeyFormat,
        fx: &mut Effects,
    ) -> Result<(), RimeError> {
        let mut slot = self.check(region, offset, raw_keys.len() as u64)?;
        // Writing invalidates any buffered candidates for this region.
        write_recover(&self.sessions).remove(&region.id);
        let per_chip = self.config.chip_slots();
        let mut idx = 0usize;
        while idx < raw_keys.len() {
            let (chip, local) = self.chip_of(slot);
            let room = (per_chip - local).min((raw_keys.len() - idx) as u64) as usize;
            self.with_chip(chip, fx, |c| {
                c.store_keys(local, &raw_keys[idx..idx + room], format)
            })?;
            idx += room;
            slot += room as u64;
        }
        fx.add_transfers(raw_keys.len() as u64);
        write_recover(&self.tables)
            .formats
            .insert(region.id, format);
        Ok(())
    }

    fn do_read(
        &self,
        region: Region,
        offset: u64,
        n: u64,
        fx: &mut Effects,
    ) -> Result<Vec<u64>, RimeError> {
        let start = self.check(region, offset, n)?;
        let mut out = Vec::with_capacity(n as usize);
        for slot in start..start + n {
            let (chip, local) = self.chip_of(slot);
            out.push(self.with_chip(chip, fx, |c| c.read_key(local))?);
        }
        fx.add_transfers(n);
        Ok(out)
    }

    fn do_init(
        &self,
        region: Region,
        offset: u64,
        len: u64,
        format: KeyFormat,
        fx: &mut Effects,
    ) -> Result<(), RimeError> {
        let begin = self.check(region, offset, len)?;
        if len == 0 {
            return Err(RimeError::OutOfBounds {
                offset,
                len: region.len,
            });
        }
        if let Some(&stored) = read_recover(&self.tables).formats.get(&region.id) {
            if stored != format {
                return Err(RimeError::TypeMismatch {
                    stored: stored.name(),
                    requested: format.name(),
                });
            }
        }
        let end = begin + len;
        let mut queues = HashMap::new();
        let per_chip = self.config.chip_slots();
        let first_chip = (begin / per_chip) as u32;
        let last_chip = ((end - 1) / per_chip) as u32;
        for chip_idx in first_chip..=last_chip {
            let chip_base = chip_idx as u64 * per_chip;
            let local_begin = begin.saturating_sub(chip_base);
            let local_end = (end - chip_base).min(per_chip);
            self.with_chip(chip_idx, fx, |c| {
                c.init_range(local_begin, local_end, format)
            })?;
            queues.insert(chip_idx, VecDeque::new());
        }
        write_recover(&self.sessions).insert(
            region.id,
            Arc::new(Mutex::new(Session {
                direction: None,
                begin,
                end,
                format,
                queues,
            })),
        );
        Ok(())
    }

    /// Looks up the live session for `region`, validating the region
    /// handle first. The returned `Arc` lets the caller lock the session
    /// without holding the sessions-map lock.
    fn session(&self, region: Region) -> Result<Arc<Mutex<Session>>, RimeError> {
        if !read_recover(&self.tables).regions.contains_key(&region.id) {
            return Err(RimeError::InvalidRegion);
        }
        read_recover(&self.sessions)
            .get(&region.id)
            .cloned()
            .ok_or(RimeError::NotInitialized)
    }

    fn chip_local_range(&self, session: &Session, chip_idx: u32) -> (u64, u64, u64) {
        let per_chip = self.config.chip_slots();
        let chip_base = chip_idx as u64 * per_chip;
        let local_begin = session.begin.saturating_sub(chip_base);
        let local_end = (session.end - chip_base).min(per_chip);
        (chip_base, local_begin, local_end)
    }

    /// Applies the requested direction to the session, re-initializing
    /// every spanned chip when it flips mid-stream: the buffered
    /// candidates and exclusion flags encode the old direction.
    fn apply_direction(
        &self,
        session: &mut Session,
        direction: Direction,
        fx: &mut Effects,
    ) -> Result<(), RimeError> {
        if let Some(d) = session.direction {
            if d != direction {
                let mut chip_ids: Vec<u32> = session.queues.keys().copied().collect();
                chip_ids.sort_unstable();
                for chip_idx in chip_ids {
                    let (_, local_begin, local_end) = self.chip_local_range(session, chip_idx);
                    self.with_chip(chip_idx, fx, |c| {
                        c.init_range(local_begin, local_end, session.format)
                    })?;
                }
                for queue in session.queues.values_mut() {
                    queue.clear();
                }
            }
        }
        session.direction = Some(direction);
        Ok(())
    }

    /// Fig. 14: tops up each spanned chip's candidate buffer to `depth`
    /// using the chip's batched extraction, so one command can drain
    /// several results without re-engaging every chip in between.
    ///
    /// Chips are independent devices behind their own locks, so when a
    /// session spans more than one, the per-chip extractions dispatch
    /// concurrently on scoped threads — the executor-level mirror of the
    /// chip's mat fan-out. The merge is deterministic by construction:
    /// per-chip results come back keyed by chip index and are folded in
    /// ascending chip order, so buffered candidates, `Outcome::Hits`,
    /// and the per-chip [`Effects`] deltas the ledger records
    /// are identical to the serial walk regardless of scheduling. On
    /// failure every chip's partial delta is still recorded (all chips
    /// ran) and the lowest-chip-index error is returned.
    fn prefill_queues(
        &self,
        session: &mut Session,
        direction: Direction,
        depth: usize,
        fx: &mut Effects,
    ) -> Result<(), RimeError> {
        let mut chip_ids: Vec<u32> = session.queues.keys().copied().collect();
        chip_ids.sort_unstable();
        // (chip, need, chip_base, local_begin, local_end) per chip that
        // actually needs a refill, in ascending chip order.
        let mut work: Vec<(u32, usize, u64, u64, u64)> = Vec::new();
        for &chip_idx in &chip_ids {
            let have = session.queues[&chip_idx].len();
            if have >= depth {
                continue;
            }
            let (chip_base, local_begin, local_end) = self.chip_local_range(session, chip_idx);
            work.push((chip_idx, depth - have, chip_base, local_begin, local_end));
        }
        let format = session.format;
        // Scoped worker threads start with an empty thread-local trace
        // context; re-enter the dispatching thread's so device spans
        // recorded on workers still land under the right request.
        let trace_ctx = if self.flight.get().is_some() {
            flight::current()
        } else {
            None
        };
        let refill = |&(chip_idx, need, chip_base, begin, end): &(u32, usize, u64, u64, u64)| {
            let _trace = trace_ctx.map(flight::enter);
            let mut chip = lock_recover(&self.chips[chip_idx as usize]);
            let before = *chip.counters();
            let res = chip
                .extract_range_batch(begin, end, format, direction, need)
                .map_err(RimeError::from);
            let delta = chip.counters().delta_since(&before);
            drop(chip);
            // Harness hook: a chip "fails" mid-batch *after* doing the
            // work — its partial delta must still reach the journal.
            let res = match self.take_extract_fault(chip_idx) {
                Some(err) => Err(err),
                None => res,
            };
            // Crash site: mid-extraction, possibly on a worker thread.
            self.crash_point();
            (chip_idx, chip_base, delta, res)
        };
        type Refill = (u32, u64, OpCounters, Result<Vec<ExtractHit>, RimeError>);
        let results: Vec<Refill> = if work.len() <= 1 {
            work.iter().map(refill).collect()
        } else {
            std::thread::scope(|scope| {
                let refill = &refill;
                let handles: Vec<_> = work
                    .iter()
                    .map(|item| scope.spawn(move || refill(item)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chip dispatch worker panicked"))
                    .collect()
            })
        };
        let mut first_err = None;
        for (chip_idx, chip_base, delta, res) in results {
            fx.record_chip(chip_idx, delta);
            match res {
                Ok(hits) => {
                    let queue = session.queues.get_mut(&chip_idx).expect("spanned chip");
                    queue.extend(hits.iter().map(|h| (chip_base + h.slot, h.raw_bits)));
                }
                Err(err) => {
                    if first_err.is_none() {
                        first_err = Some(err);
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(err) => Err(err),
        }
    }

    /// CPU-side reduction across the buffered per-chip queue fronts:
    /// pops and returns the global winner, breaking value ties toward
    /// the lower global slot (stable, like the H-tree's priority rule).
    fn pop_winner(session: &mut Session, direction: Direction) -> Option<(u64, u64)> {
        let format = session.format;
        let mut best: Option<(u32, u64, u64)> = None; // (chip, slot, raw)
        for (&chip_idx, queue) in &session.queues {
            if let Some(&(slot, raw)) = queue.front() {
                let better = match best {
                    None => true,
                    Some((_, bslot, braw)) => {
                        let ord = format.compare_bits(raw, braw);
                        match direction {
                            Direction::Min => ord.is_lt() || (ord.is_eq() && slot < bslot),
                            Direction::Max => ord.is_gt() || (ord.is_eq() && slot < bslot),
                        }
                    }
                };
                if better {
                    best = Some((chip_idx, slot, raw));
                }
            }
        }
        best.map(|(chip_idx, slot, raw)| {
            session
                .queues
                .get_mut(&chip_idx)
                .expect("winning chip is spanned")
                .pop_front();
            (slot, raw)
        })
    }

    /// Checks an extraction-family command's requested format against
    /// the session's stored one.
    fn check_format(session: &Session, want_format: KeyFormat) -> Result<(), RimeError> {
        if session.format != want_format {
            return Err(RimeError::TypeMismatch {
                stored: session.format.name(),
                requested: want_format.name(),
            });
        }
        Ok(())
    }

    fn do_extract(
        &self,
        region: Region,
        want_format: KeyFormat,
        direction: Direction,
        fx: &mut Effects,
    ) -> Result<Option<(u64, u64)>, RimeError> {
        let session = self.session(region)?;
        let mut session = lock_recover(&session);
        Self::check_format(&session, want_format)?;
        self.apply_direction(&mut session, direction, fx)?;
        self.prefill_queues(&mut session, direction, 1, fx)?;
        match Self::pop_winner(&mut session, direction) {
            None => Ok(None),
            Some(hit) => {
                fx.add_transfers(1);
                Ok(Some(hit))
            }
        }
    }

    fn do_extract_batch(
        &self,
        region: Region,
        want_format: KeyFormat,
        direction: Direction,
        k: usize,
        fx: &mut Effects,
    ) -> Result<Vec<(u64, u64)>, RimeError> {
        let session = self.session(region)?;
        let mut session = lock_recover(&session);
        Self::check_format(&session, want_format)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        self.apply_direction(&mut session, direction, fx)?;
        self.prefill_queues(&mut session, direction, k, fx)?;
        let buffered: usize = session.queues.values().map(VecDeque::len).sum();
        let mut out = Vec::with_capacity(k.min(buffered));
        while out.len() < k {
            match Self::pop_winner(&mut session, direction) {
                None => break,
                Some(hit) => {
                    fx.add_transfers(1);
                    out.push(hit);
                }
            }
        }
        Ok(out)
    }

    fn do_fifo_next(
        &self,
        region: Region,
        fx: &mut Effects,
    ) -> Result<Option<(u64, u64)>, RimeError> {
        let session = self.session(region)?;
        let mut session = lock_recover(&session);
        let Some(direction) = session.direction else {
            // Nothing has been extracted yet, so nothing is buffered.
            return Ok(None);
        };
        match Self::pop_winner(&mut session, direction) {
            None => Ok(None),
            Some(hit) => {
                fx.add_transfers(1);
                Ok(Some(hit))
            }
        }
    }

    // ---- Queries (reads of executor/ledger state, not commands) ----

    /// The device configuration.
    pub fn config(&self) -> &RimeConfig {
        &self.config
    }

    /// Total key-slot capacity.
    pub fn capacity(&self) -> u64 {
        self.config.total_slots()
    }

    /// Aggregated operation counters across all chips, read from the
    /// built-in stats.
    pub fn counters(&self) -> OpCounters {
        lock_recover(&self.ledger).stats.counters()
    }

    /// Per-chip accumulated counters (indexed by chip), read from the
    /// built-in stats.
    pub fn per_chip_counters(&self) -> Vec<OpCounters> {
        lock_recover(&self.ledger).stats.per_chip().to_vec()
    }

    /// Values transferred over the DDR4 interface so far (perf model).
    pub fn interface_transfers(&self) -> u64 {
        lock_recover(&self.ledger).stats.interface_transfers()
    }

    /// Resets all chips' counters and the built-in stats.
    pub fn reset_counters(&self) {
        for chip in &self.chips {
            lock_recover(chip).reset_counters();
        }
        lock_recover(&self.ledger).stats.reset();
    }

    /// Modeled array energy of everything done so far (nJ).
    pub fn modeled_energy_nj(&self) -> f64 {
        crate::perf::modeled_energy_nj(
            &self.config.timing,
            lock_recover(&self.ledger).stats.per_chip(),
        )
    }

    /// Modeled busy time of the *busiest* chip (ns) — the device-side
    /// critical path when chips operate concurrently (Fig. 14).
    pub fn modeled_busy_ns(&self) -> f64 {
        crate::perf::modeled_busy_ns(
            &self.config.timing,
            lock_recover(&self.ledger).stats.per_chip(),
        )
    }

    /// Hottest-block write count across all chips (endurance study).
    pub fn max_wear(&self) -> u32 {
        self.chips
            .iter()
            .map(|c| lock_recover(c).max_wear())
            .max()
            .unwrap_or(0)
    }

    /// Largest free contiguous extent (driver diagnostics).
    pub fn largest_free(&self) -> u64 {
        lock_recover(&self.allocator).largest_free()
    }

    /// Number of chips a region's initialized range spans (the
    /// concurrency the performance model exploits).
    pub fn spanned_chips(&self, region: Region) -> u32 {
        read_recover(&self.sessions)
            .get(&region.id)
            .map_or(0, |s| lock_recover(s).queues.len() as u32)
    }

    /// Sets every chip's mat fan-out policy (model-execution knob; see
    /// [`ParallelPolicy`] — results and counters are unaffected). The
    /// policy picks how a chip computes a multi-mat descent on the
    /// calling thread; multi-chip dispatch is independent of it.
    pub fn set_parallel_policy(&self, policy: ParallelPolicy) {
        for chip in &self.chips {
            lock_recover(chip).set_parallel_policy(policy);
        }
    }

    /// The built-in metrics registry. Per-command metrics are always
    /// published here; chip phase wall times appear once
    /// [`Executor::enable_extraction_probes`] has run.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A consistent point-in-time snapshot of the built-in registry.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Installs a registry-backed [`ChipProbe`] on every chip: each
    /// extraction call then reports its rearm and descent wall time once
    /// (and, with a flight recorder, one `device` span). Off by default:
    /// the probes read the host clock, so benchmarks leave them
    /// uninstalled.
    pub fn enable_extraction_probes(&self) {
        for (idx, chip) in self.chips.iter().enumerate() {
            let probe = ChipProbe::new(&self.registry, idx as u32, self.flight.get().cloned());
            lock_recover(chip).set_probe(Some(Arc::new(probe)));
        }
    }

    /// Attaches the causal-trace flight recorder. First attach wins
    /// (the recorder is shared with the service layer and must stay
    /// one object); call before [`Executor::enable_extraction_probes`]
    /// so device spans are recorded too.
    pub fn attach_flight_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.flight.set(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.get()
    }

    /// Cumulative per-mat write counts, indexed `[chip][mat]` — the raw
    /// matrix behind wear heatmaps (absent mats report zero).
    pub fn wear_matrix(&self) -> Vec<Vec<u64>> {
        self.chips
            .iter()
            .map(|c| lock_recover(c).wear_by_mat())
            .collect()
    }

    // ---- Durability (write-ahead journal + recovery) ----

    /// Attaches a write-ahead journal: every subsequent command is
    /// logged intent-first, outcome-after, with periodic checkpoints.
    /// An initial checkpoint of the *current* state is written
    /// immediately, so the journal alone reconstructs the device even
    /// when commands ran before attach. Call while quiescent (no
    /// concurrent `execute` in flight).
    pub fn attach_journal(
        &self,
        store: Box<dyn JournalStore>,
        config: JournalConfig,
    ) -> Result<(), RimeError> {
        let mut guard = lock_recover(&self.journal);
        let mut journal = Journal::new(store, config)?;
        journal.record_checkpoint(&self.checkpoint_bytes())?;
        *guard = Some(journal);
        Ok(())
    }

    /// Detaches the journal (no further records are written). Returns
    /// whether one was attached.
    pub fn detach_journal(&self) -> bool {
        lock_recover(&self.journal).take().is_some()
    }

    /// Commands committed to the attached journal, or `None` without
    /// one.
    pub fn journal_committed(&self) -> Option<u64> {
        lock_recover(&self.journal).as_ref().map(Journal::committed)
    }

    /// Forces a checkpoint now. `Ok(true)` when one was written,
    /// `Ok(false)` when no journal is attached.
    pub fn checkpoint_now(&self) -> Result<bool, RimeError> {
        let mut guard = lock_recover(&self.journal);
        match guard.as_mut() {
            None => Ok(false),
            Some(journal) => {
                let state = self.checkpoint_bytes();
                journal.record_checkpoint(&state)?;
                Ok(true)
            }
        }
    }

    /// Per-chip raw snapshots (the crash harness's bit-identity
    /// fingerprint; also what checkpoints marshal).
    pub fn chip_states(&self) -> Vec<ChipState> {
        self.chips.iter().map(|c| lock_recover(c).state()).collect()
    }

    /// The driver allocation map as `(reserved_slots, sorted live
    /// (start, len) extents)` — canonical, so two bit-identical devices
    /// compare equal.
    pub fn allocation_map(&self) -> (u64, Vec<(u64, u64)>) {
        let allocator = lock_recover(&self.allocator);
        (allocator.reserved_slots(), allocator.live_allocations())
    }

    /// Live region handles, sorted by id. `Region` is otherwise only
    /// obtainable from `Alloc`, so this is how a process that recovered
    /// a device from a journal rehydrates its handles and resumes.
    pub fn regions(&self) -> Vec<Region> {
        let tables = read_recover(&self.tables);
        let mut regions: Vec<Region> = tables
            .regions
            .iter()
            .map(|(&id, &(start, len))| Region { id, start, len })
            .collect();
        regions.sort_by_key(|r| r.id);
        regions
    }

    /// Marshals the full executor state into a checkpoint blob:
    /// configuration fingerprint, event seq + stats, driver
    /// allocator, region/format tables, sessions (with buffered
    /// candidates), and every chip's raw snapshot. All map-backed state
    /// is serialized in sorted key order, so equal devices produce
    /// byte-equal checkpoints.
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        journal::put_u32(&mut buf, self.chips.len() as u32);
        journal::put_u64(&mut buf, self.config.chip_slots());
        journal::put_u64(&mut buf, self.next_id.load(Ordering::SeqCst));
        {
            let ledger = lock_recover(&self.ledger);
            journal::put_u64(&mut buf, ledger.seq);
            for counters in ledger.stats.per_chip() {
                journal::put_counters(&mut buf, counters);
            }
            journal::put_u64(&mut buf, ledger.stats.interface_transfers());
        }
        {
            let allocator = lock_recover(&self.allocator);
            journal::put_u64(&mut buf, allocator.total_slots());
            journal::put_u64(&mut buf, allocator.reserved_slots());
            let free = allocator.free_extents();
            journal::put_u32(&mut buf, free.len() as u32);
            for &(start, len) in free {
                journal::put_u64(&mut buf, start);
                journal::put_u64(&mut buf, len);
            }
            let live = allocator.live_allocations();
            journal::put_u32(&mut buf, live.len() as u32);
            for (start, len) in live {
                journal::put_u64(&mut buf, start);
                journal::put_u64(&mut buf, len);
            }
        }
        {
            let tables = read_recover(&self.tables);
            let mut regions: Vec<(u64, u64, u64)> = tables
                .regions
                .iter()
                .map(|(&id, &(start, len))| (id, start, len))
                .collect();
            regions.sort_unstable();
            journal::put_u32(&mut buf, regions.len() as u32);
            for (id, start, len) in regions {
                journal::put_u64(&mut buf, id);
                journal::put_u64(&mut buf, start);
                journal::put_u64(&mut buf, len);
            }
            let mut formats: Vec<(u64, KeyFormat)> =
                tables.formats.iter().map(|(&id, &f)| (id, f)).collect();
            formats.sort_unstable_by_key(|&(id, _)| id);
            journal::put_u32(&mut buf, formats.len() as u32);
            for (id, format) in formats {
                journal::put_u64(&mut buf, id);
                journal::put_format(&mut buf, format);
            }
        }
        {
            let sessions = read_recover(&self.sessions);
            let mut ids: Vec<u64> = sessions.keys().copied().collect();
            ids.sort_unstable();
            journal::put_u32(&mut buf, ids.len() as u32);
            for id in ids {
                let session = lock_recover(&sessions[&id]);
                journal::put_u64(&mut buf, id);
                journal::put_u8(
                    &mut buf,
                    match session.direction {
                        None => 0,
                        Some(Direction::Min) => 1,
                        Some(Direction::Max) => 2,
                    },
                );
                journal::put_u64(&mut buf, session.begin);
                journal::put_u64(&mut buf, session.end);
                journal::put_format(&mut buf, session.format);
                let mut chips: Vec<u32> = session.queues.keys().copied().collect();
                chips.sort_unstable();
                journal::put_u32(&mut buf, chips.len() as u32);
                for chip in chips {
                    journal::put_u32(&mut buf, chip);
                    let queue = &session.queues[&chip];
                    journal::put_u32(&mut buf, queue.len() as u32);
                    for &(slot, raw) in queue {
                        journal::put_u64(&mut buf, slot);
                        journal::put_u64(&mut buf, raw);
                    }
                }
            }
        }
        for chip in &self.chips {
            journal::put_chip_state(&mut buf, &lock_recover(chip).state());
        }
        buf
    }

    /// Rebuilds an executor from a checkpoint blob, validating the
    /// configuration fingerprint against `config` first.
    fn from_checkpoint(config: RimeConfig, bytes: &[u8]) -> Result<Executor, JournalError> {
        let mut d = journal::Dec::new(bytes);
        let chip_count = d.u32()? as usize;
        if chip_count != config.total_chips() as usize {
            return Err(JournalError::CheckpointMismatch {
                what: format!(
                    "checkpoint has {chip_count} chips, device has {}",
                    config.total_chips()
                ),
            });
        }
        let chip_slots = d.u64()?;
        if chip_slots != config.chip_slots() {
            return Err(JournalError::CheckpointMismatch {
                what: format!(
                    "checkpoint chips hold {chip_slots} slots, configured chips hold {}",
                    config.chip_slots()
                ),
            });
        }
        let next_id = d.u64()?;
        let seq = d.u64()?;
        let per_chip: Vec<OpCounters> = (0..chip_count)
            .map(|_| journal::get_counters(&mut d))
            .collect::<Result<_, _>>()?;
        let transfers = d.u64()?;
        let total_slots = d.u64()?;
        if total_slots != config.total_slots() {
            return Err(JournalError::CheckpointMismatch {
                what: format!(
                    "checkpoint spans {total_slots} slots, device spans {}",
                    config.total_slots()
                ),
            });
        }
        let reserved_slots = d.u64()?;
        let nfree = d.len_prefix(16)?;
        let free: Vec<(u64, u64)> = (0..nfree)
            .map(|_| Ok((d.u64()?, d.u64()?)))
            .collect::<Result<_, JournalError>>()?;
        let nlive = d.len_prefix(16)?;
        let live: Vec<(u64, u64)> = (0..nlive)
            .map(|_| Ok((d.u64()?, d.u64()?)))
            .collect::<Result<_, JournalError>>()?;
        let allocator =
            ContiguousAllocator::from_parts(config.driver, total_slots, reserved_slots, free, live);
        let mut tables = Tables::default();
        let nregions = d.len_prefix(24)?;
        for _ in 0..nregions {
            let id = d.u64()?;
            let start = d.u64()?;
            let len = d.u64()?;
            tables.regions.insert(id, (start, len));
        }
        let nformats = d.len_prefix(8)?;
        for _ in 0..nformats {
            let id = d.u64()?;
            tables.formats.insert(id, journal::get_format(&mut d)?);
        }
        let mut sessions = HashMap::new();
        let nsessions = d.len_prefix(1)?;
        for _ in 0..nsessions {
            let id = d.u64()?;
            let direction = match d.u8()? {
                0 => None,
                1 => Some(Direction::Min),
                2 => Some(Direction::Max),
                tag => {
                    return Err(JournalError::Decode {
                        what: format!("invalid direction tag {tag}"),
                    })
                }
            };
            let begin = d.u64()?;
            let end = d.u64()?;
            let format = journal::get_format(&mut d)?;
            let mut queues = HashMap::new();
            let nqueues = d.len_prefix(4)?;
            for _ in 0..nqueues {
                let chip = d.u32()?;
                let qlen = d.len_prefix(16)?;
                let mut queue = VecDeque::with_capacity(qlen);
                for _ in 0..qlen {
                    queue.push_back((d.u64()?, d.u64()?));
                }
                queues.insert(chip, queue);
            }
            sessions.insert(
                id,
                Arc::new(Mutex::new(Session {
                    direction,
                    begin,
                    end,
                    format,
                    queues,
                })),
            );
        }
        let mut chips = Vec::with_capacity(chip_count);
        for idx in 0..chip_count {
            let state = journal::get_chip_state(&mut d, chip_slots)?;
            let mut chip = Chip::new(config.chip_geometry);
            if !chip.restore_state(&state) {
                return Err(JournalError::CheckpointMismatch {
                    what: format!(
                        "chip {idx} snapshot does not fit the configured geometry \
                         or is inconsistent"
                    ),
                });
            }
            chips.push(Mutex::new(chip));
        }
        d.finish("checkpoint")?;
        let registry = MetricsRegistry::new();
        let stats = DeviceStats::restore(per_chip, transfers);
        Ok(Executor {
            chips,
            allocator: Mutex::new(allocator),
            tables: RwLock::new(tables),
            sessions: RwLock::new(sessions),
            next_id: AtomicU64::new(next_id),
            ledger: Mutex::new(Ledger::new(&config, &registry, seq, stats)),
            registry,
            journal: Mutex::new(None),
            flight: OnceLock::new(),
            replaying: AtomicBool::new(false),
            #[cfg(feature = "crash-test")]
            crash: Mutex::new(None),
            #[cfg(feature = "crash-test")]
            extract_faults: Mutex::new(Vec::new()),
            config,
        })
    }

    /// Reconstructs a bit-identical executor from a journal: loads the
    /// newest checkpoint, re-executes the committed tail (demanding
    /// recorded results and effects match exactly — any divergence is a
    /// typed refusal, not a silently different device), truncates a
    /// torn final record, and re-attaches the journal so execution can
    /// resume where the crash left off.
    ///
    /// Recovery is *detectable*: the [`RecoveryReport`] says how much
    /// was replayed, whether a command's intent was left without an
    /// outcome (that command did **not** commit and is not re-run — the
    /// caller decides whether to resubmit), and whether the tail was
    /// torn.
    pub fn recover(
        config: RimeConfig,
        store: Box<dyn JournalStore>,
        journal_config: JournalConfig,
    ) -> Result<(Executor, RecoveryReport), RimeError> {
        let bytes = store.read_all().map_err(RimeError::from)?;
        if bytes.is_empty() {
            // Never journaled: bring up fresh and start a log.
            let executor = Executor::new(config);
            executor.attach_journal(store, journal_config)?;
            let report = RecoveryReport {
                committed: 0,
                replayed: 0,
                interrupted: None,
                torn_tail: false,
                from_checkpoint: false,
            };
            return Ok((executor, report));
        }
        let scanned = journal::scan(&bytes).map_err(RimeError::from)?;
        let mut base = 0u64;
        let mut checkpoint: Option<(usize, &[u8])> = None;
        for (idx, (_, record)) in scanned.records.iter().enumerate() {
            if let JournalRecord::Checkpoint { committed, state } = record {
                base = *committed;
                checkpoint = Some((idx, state));
            }
        }
        let executor = match checkpoint {
            Some((_, state)) => Executor::from_checkpoint(config, state)?,
            None => Executor::new(config),
        };
        // Replay the commands committed past the newest checkpoint.
        let start = checkpoint.map_or(0, |(idx, _)| idx + 1);
        let (tail, interrupted) = committed_commands(&scanned.records[start..])?;
        let replayed = tail.len() as u64;
        executor.replaying.store(true, Ordering::SeqCst);
        for committed in &tail {
            let (result, effects) = executor.run(committed.command);
            if result != *committed.result || effects != *committed.effects {
                executor.replaying.store(false, Ordering::SeqCst);
                return Err(RimeError::Journal(JournalError::ReplayDivergence {
                    ordinal: committed.ordinal,
                }));
            }
        }
        executor.replaying.store(false, Ordering::SeqCst);
        if scanned.torn_tail {
            store.truncate(scanned.valid_len).map_err(RimeError::from)?;
        }
        let committed = base + replayed;
        let mut journal = Journal::new(store, journal_config).map_err(RimeError::from)?;
        journal.set_committed(committed);
        *lock_recover(&executor.journal) = Some(journal);
        let report = RecoveryReport {
            committed,
            replayed,
            interrupted,
            torn_tail: scanned.torn_tail,
            from_checkpoint: checkpoint.is_some(),
        };
        Ok((executor, report))
    }

    /// Replays a journal as a debugging trace: runs its committed,
    /// successful commands on a fresh device for `config` and returns
    /// the raw bits every extraction produced, in order (`None` marks an
    /// exhausted range or a dry FIFO drain; an `ExtractBatch` adds one
    /// entry per hit).
    ///
    /// To record a trace, attach a journal to a fresh device. Unlike
    /// [`Executor::recover`], replay ignores checkpoints, skips the
    /// commands that failed when recorded, and checks nothing against
    /// the log, so `config` may differ from the recording device. Each
    /// recorded region maps to the region its `Alloc` returns on replay.
    /// A torn journal replays its committed prefix.
    ///
    /// # Errors
    ///
    /// [`RimeError::Journal`] for an unreadable journal,
    /// [`RimeError::InvalidRegion`] for a command naming a region the
    /// log never allocated, and any error a replayed command hits.
    pub fn replay(config: RimeConfig, journal: &[u8]) -> Result<Vec<Option<u64>>, RimeError> {
        let scanned = journal::scan(journal)?;
        let (commands, _) = committed_commands(&scanned.records)?;
        let executor = Executor::new(config);
        let mut regions: HashMap<Region, Region> = HashMap::new();
        let mut extracted = Vec::new();
        for committed in commands {
            let Ok(recorded) = committed.result else {
                continue;
            };
            let mut command = committed.command.clone();
            if let Some(region) = command.region_mut() {
                *region = *regions.get(&*region).ok_or(RimeError::InvalidRegion)?;
            }
            match (executor.run(&command).0?, recorded) {
                (Outcome::Region(live), Outcome::Region(logged)) => {
                    regions.insert(*logged, live);
                }
                (Outcome::Hit(hit), _) => extracted.push(hit.map(|(_, v)| v)),
                (Outcome::Hits(hits), _) => extracted.extend(hits.iter().map(|&(_, v)| Some(v))),
                _ => {}
            }
        }
        Ok(extracted)
    }

    /// Installs (or clears) the crash-site fault injector.
    #[cfg(feature = "crash-test")]
    pub fn install_crash_point(&self, point: Option<Arc<CrashPoint>>) {
        *lock_recover(&self.crash) = point;
    }

    /// Queues a one-shot error for `chip`'s next batched extraction —
    /// the chip does its work (and its counter delta is recorded) but
    /// the result is replaced by `error`, modeling a chip failing
    /// mid-`ExtractBatch`.
    #[cfg(feature = "crash-test")]
    pub fn inject_extract_fault(&self, chip: u32, error: RimeError) {
        lock_recover(&self.extract_faults).push((chip, error));
    }

    #[cfg(feature = "crash-test")]
    fn take_extract_fault(&self, chip: u32) -> Option<RimeError> {
        let mut faults = lock_recover(&self.extract_faults);
        let pos = faults.iter().position(|&(c, _)| c == chip)?;
        Some(faults.remove(pos).1)
    }

    #[cfg(not(feature = "crash-test"))]
    #[inline(always)]
    fn take_extract_fault(&self, _chip: u32) -> Option<RimeError> {
        None
    }

    /// Registers passage through one crash site with the installed
    /// injector. With the `crash-test` feature off this is an empty
    /// inline no-op (the `ExtractionProbe` pattern).
    #[cfg(feature = "crash-test")]
    fn crash_point(&self) {
        let point = lock_recover(&self.crash).clone();
        if let Some(point) = point {
            point.hit();
        }
    }

    #[cfg(not(feature = "crash-test"))]
    #[inline(always)]
    fn crash_point(&self) {}

    #[cfg(test)]
    fn poison_chip(&self, idx: usize) {
        let chips = &self.chips;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_recover(&chips[idx]);
            panic!("poison chip {idx} for test");
        }));
        assert!(result.is_err());
        assert!(chips[idx].is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> Executor {
        Executor::new(RimeConfig::small())
    }

    fn region_of(outcome: Outcome) -> Region {
        match outcome {
            Outcome::Region(r) => r,
            other => panic!("expected Region, got {other:?}"),
        }
    }

    #[test]
    fn command_roundtrip_through_executor() {
        let exec = exec();
        let r = region_of(exec.execute(Command::Alloc { len: 4 }).unwrap());
        assert_eq!(
            exec.execute(Command::Write {
                region: r,
                offset: 0,
                raw: Cow::Borrowed(&[9, 2, 7, 5]),
                format: KeyFormat::UNSIGNED64,
            })
            .unwrap(),
            Outcome::Done
        );
        assert_eq!(
            exec.execute(Command::Read {
                region: r,
                offset: 1,
                n: 2
            })
            .unwrap(),
            Outcome::Keys(vec![2, 7])
        );
        exec.execute(Command::Init {
            region: r,
            offset: 0,
            len: 4,
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        assert_eq!(
            exec.execute(Command::Extract {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
            })
            .unwrap(),
            Outcome::Hit(Some((1, 2)))
        );
        assert_eq!(
            exec.execute(Command::ExtractBatch {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
                k: 8,
            })
            .unwrap(),
            Outcome::Hits(vec![(3, 5), (2, 7), (0, 9)])
        );
        assert_eq!(
            exec.execute(Command::Free { region: r }).unwrap(),
            Outcome::Done
        );
        assert_eq!(
            exec.execute(Command::FifoNext { region: r }),
            Err(RimeError::InvalidRegion)
        );
    }

    #[test]
    fn fifo_next_drains_buffers_without_prefill() {
        let exec = exec();
        // Span two chips: chip 0 holds values n-1..=4, chip 1 holds 3..=0.
        let per_chip = exec.config().chip_slots();
        let n = per_chip + 4;
        let r = region_of(exec.execute(Command::Alloc { len: n }).unwrap());
        let keys: Vec<u64> = (0..n).rev().collect();
        exec.execute(Command::Write {
            region: r,
            offset: 0,
            raw: Cow::Borrowed(&keys),
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.execute(Command::Init {
            region: r,
            offset: 0,
            len: n,
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        // Before any extraction, the buffers are empty: FifoNext is a
        // miss, not an error — and not a chip engagement.
        let before = exec.counters();
        assert_eq!(
            exec.execute(Command::FifoNext { region: r }).unwrap(),
            Outcome::Hit(None)
        );
        assert_eq!(exec.counters(), before, "no chip work on a dry drain");
        // A batch of 3 prefills each spanned chip's queue to depth 3 and
        // pops the 3 global winners (0, 1, 2 — all on chip 1); chip 0's
        // three candidates (4, 5, 6) stay buffered and drain via
        // FifoNext in order, without re-engaging any chip.
        let hits = match exec
            .execute(Command::ExtractBatch {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
                k: 3,
            })
            .unwrap()
        {
            Outcome::Hits(h) => h,
            other => panic!("{other:?}"),
        };
        assert_eq!(hits.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [0, 1, 2]);
        let mut drained = Vec::new();
        while let Outcome::Hit(Some((_, v))) =
            exec.execute(Command::FifoNext { region: r }).unwrap()
        {
            drained.push(v);
        }
        assert_eq!(drained, [4, 5, 6], "leftover candidates stay buffered");
        // The drain consumed buffers only — it is *not* exhaustion:
        // Extract re-engages the chips and finds value 3 on chip 1.
        let next = exec
            .execute(Command::Extract {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
            })
            .unwrap();
        assert_eq!(next, Outcome::Hit(Some((n - 4, 3))));
    }

    #[test]
    fn poisoned_chip_lock_recovers_instead_of_cascading() {
        let exec = exec();
        let r = region_of(exec.execute(Command::Alloc { len: 4 }).unwrap());
        exec.execute(Command::Write {
            region: r,
            offset: 0,
            raw: Cow::Borrowed(&[4, 3, 2, 1]),
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        // Poison the chip that holds the region, then keep using it.
        exec.poison_chip(0);
        assert_eq!(exec.counters().row_writes, 4, "counters() recovers");
        exec.execute(Command::Init {
            region: r,
            offset: 0,
            len: 4,
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        assert_eq!(
            exec.execute(Command::Extract {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
            })
            .unwrap(),
            Outcome::Hit(Some((3, 1)))
        );
        exec.reset_counters();
        assert_eq!(exec.counters(), OpCounters::default());
    }

    #[test]
    fn multi_chip_dispatch_is_deterministic_and_ordered() {
        use crate::driver::DriverConfig;
        use crate::journal::MemJournalStore;
        use crate::metrics::MetricValue;
        use rime_memristive::{ArrayTiming, ChipGeometry};

        let config = RimeConfig {
            channels: 2,
            chips_per_channel: 2,
            chip_geometry: ChipGeometry::tiny(),
            timing: ArrayTiming::table1(),
            driver: DriverConfig::default(),
        };
        let total = config.total_slots();
        let keys: Vec<u64> = (0..total).map(|i| (i * 2654435761) % 1009).collect();
        let mut want: Vec<(u64, u64)> = keys
            .iter()
            .copied()
            .enumerate()
            .map(|(s, v)| (s as u64, v))
            .collect();
        want.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        want.truncate(40);

        type RunSnapshot = (Vec<(u64, u64)>, Vec<OpCounters>);
        let mut reference: Option<RunSnapshot> = None;
        for _ in 0..2 {
            let exec = Executor::new(config);
            let store = MemJournalStore::new();
            exec.attach_journal(Box::new(store.clone()), JournalConfig::default())
                .unwrap();
            let r = region_of(exec.execute(Command::Alloc { len: total }).unwrap());
            exec.execute(Command::Write {
                region: r,
                offset: 0,
                raw: Cow::Borrowed(&keys),
                format: KeyFormat::UNSIGNED64,
            })
            .unwrap();
            exec.execute(Command::Init {
                region: r,
                offset: 0,
                len: total,
                format: KeyFormat::UNSIGNED64,
            })
            .unwrap();
            let hits = match exec
                .execute(Command::ExtractBatch {
                    region: r,
                    format: KeyFormat::UNSIGNED64,
                    direction: Direction::Min,
                    k: 40,
                })
                .unwrap()
            {
                Outcome::Hits(h) => h,
                other => panic!("{other:?}"),
            };
            assert_eq!(hits, want, "global top-40 across four chips");
            // Concurrent chip dispatch must still fold each command's
            // deltas in ascending chip order (the deterministic merge),
            // as the journal records them.
            let mut batch = Effects::default();
            for (_, record) in journal::scan(&store.snapshot()).unwrap().records {
                if let JournalRecord::Outcome { effects, .. } = record {
                    let deltas = effects.chip_deltas();
                    assert!(deltas.is_sorted_by_key(|&(c, _)| c), "{deltas:?}");
                    batch = effects;
                }
            }
            // The batch (the last command) spans four chips that extract
            // concurrently (Fig. 14): it costs its busiest chip's time,
            // not the sum over chips.
            let prices: Vec<u64> = batch
                .chip_deltas()
                .iter()
                .map(|(_, d)| config.timing.time_ns(d) as u64)
                .collect();
            assert_eq!(prices.len(), 4, "the batch engaged all four chips");
            let snapshot = exec.metrics_snapshot().metrics.into_iter();
            let modeled = snapshot
                .filter(|m| m.name == "rime_command_modeled_ns" && m.labels[0].1 == "extract_batch")
                .map(|m| m.value);
            let [MetricValue::Histogram(modeled)] = &modeled.collect::<Vec<_>>()[..] else {
                panic!("one extract_batch modeled-ns histogram");
            };
            assert_eq!(Some(&modeled.sum), prices.iter().max());
            assert!(modeled.sum < prices.iter().sum(), "{prices:?}");
            match &reference {
                None => reference = Some((hits, exec.per_chip_counters())),
                Some((want_hits, want_counters)) => {
                    assert_eq!(&hits, want_hits, "run-to-run hit determinism");
                    assert_eq!(
                        &exec.per_chip_counters(),
                        want_counters,
                        "run-to-run counter determinism"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_match_chip_counters_exactly() {
        // The telemetry stats are fed from per-command deltas; they must
        // agree bit-for-bit with summing the chips directly.
        let exec = exec();
        let r = region_of(exec.execute(Command::Alloc { len: 100 }).unwrap());
        let keys: Vec<u64> = (0..100).map(|i| (i * 37) % 251).collect();
        exec.execute(Command::Write {
            region: r,
            offset: 0,
            raw: Cow::Borrowed(&keys),
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.execute(Command::Init {
            region: r,
            offset: 0,
            len: 100,
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        for _ in 0..5 {
            exec.execute(Command::ExtractBatch {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
                k: 7,
            })
            .unwrap();
        }
        let mut direct = OpCounters::new();
        for chip in &exec.chips {
            direct += *lock_recover(chip).counters();
        }
        assert_eq!(exec.counters(), direct);
        let per_chip = exec.per_chip_counters();
        for (idx, chip) in exec.chips.iter().enumerate() {
            assert_eq!(per_chip[idx], *lock_recover(chip).counters(), "chip {idx}");
        }
    }

    // ---- Journal + recovery ----

    use crate::device::RimeDevice;
    use crate::journal::MemJournalStore;
    use crate::metrics::MetricValue;

    fn journaled_exec(checkpoint_every: u64) -> (Executor, MemJournalStore) {
        let exec = exec();
        let store = MemJournalStore::new();
        exec.attach_journal(Box::new(store.clone()), JournalConfig { checkpoint_every })
            .unwrap();
        (exec, store)
    }

    /// Alloc + write + init + a batched extraction: touches the
    /// allocator, tables, sessions (with leftover buffered candidates),
    /// and every chip the region spans.
    fn run_workload(exec: &Executor) -> Region {
        let r = region_of(exec.execute(Command::Alloc { len: 4 }).unwrap());
        exec.execute(Command::Write {
            region: r,
            offset: 0,
            raw: Cow::Borrowed(&[9, 2, 7, 5]),
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.execute(Command::Init {
            region: r,
            offset: 0,
            len: 4,
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.execute(Command::ExtractBatch {
            region: r,
            format: KeyFormat::UNSIGNED64,
            direction: Direction::Min,
            k: 2,
        })
        .unwrap();
        r
    }

    /// Everything "bit-identical" means: raw chip snapshots, the
    /// allocation map, and the full telemetry ledger.
    #[allow(clippy::type_complexity)]
    fn fingerprint(
        exec: &Executor,
    ) -> (
        Vec<ChipState>,
        (u64, Vec<(u64, u64)>),
        OpCounters,
        Vec<OpCounters>,
        u64,
    ) {
        (
            exec.chip_states(),
            exec.allocation_map(),
            exec.counters(),
            exec.per_chip_counters(),
            exec.interface_transfers(),
        )
    }

    #[test]
    fn recovery_rebuilds_a_bit_identical_device() {
        // checkpoint_every=3 puts a checkpoint mid-stream, so recovery
        // exercises both the checkpoint load and a journal-tail replay.
        let (exec, store) = journaled_exec(3);
        let r = run_workload(&exec);
        let want = fingerprint(&exec);
        let committed = exec.journal_committed().unwrap();
        drop(exec); // the "crash": the process is simply gone
        let (rec, report) = Executor::recover(
            RimeConfig::small(),
            Box::new(store),
            JournalConfig {
                checkpoint_every: 3,
            },
        )
        .unwrap();
        assert_eq!(report.committed, committed);
        assert!(report.from_checkpoint);
        assert!(report.replayed >= 1, "the tail past the checkpoint re-ran");
        assert_eq!(report.interrupted, None);
        assert!(!report.torn_tail);
        assert_eq!(fingerprint(&rec), want, "recovery is bit-identical");
        // Replayed commands are flagged, not silently recounted: the
        // nondeterministic `rime_replayed_commands_total` carries them,
        // and masking zeroes it so masked snapshots stay deterministic.
        let snap = rec.metrics().snapshot();
        let replayed = snap
            .metrics
            .iter()
            .find(|m| m.name == "rime_replayed_commands_total")
            .expect("replay counter registered");
        assert!(replayed.nondeterministic);
        assert_eq!(replayed.value, MetricValue::Counter(report.replayed));
        let masked = snap.masked();
        let masked_replayed = masked
            .metrics
            .iter()
            .find(|m| m.name == "rime_replayed_commands_total")
            .unwrap();
        assert_eq!(masked_replayed.value, MetricValue::Counter(0));
        // The device keeps working and the journal keeps counting.
        assert_eq!(
            rec.execute(Command::Extract {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
            })
            .unwrap(),
            Outcome::Hit(Some((2, 7)))
        );
        assert_eq!(rec.journal_committed(), Some(committed + 1));
    }

    #[test]
    fn an_unmatched_intent_is_reported_not_replayed() {
        // An intent without an outcome is a command that never
        // committed: recovery must not guess at it.
        let store = MemJournalStore::new();
        let mut journal = Journal::new(Box::new(store.clone()), JournalConfig::default()).unwrap();
        journal
            .record_intent(0, &Command::Alloc { len: 2 })
            .unwrap();
        drop(journal);
        let (rec, report) = Executor::recover(
            RimeConfig::small(),
            Box::new(store),
            JournalConfig::default(),
        )
        .unwrap();
        assert_eq!(
            report,
            RecoveryReport {
                committed: 0,
                replayed: 0,
                interrupted: Some(0),
                torn_tail: false,
                from_checkpoint: false,
            }
        );
        assert_eq!(
            rec.allocation_map().1,
            Vec::new(),
            "in-doubt command not applied"
        );
        // The caller resubmits; it commits at the same ordinal.
        region_of(rec.execute(Command::Alloc { len: 2 }).unwrap());
        assert_eq!(rec.journal_committed(), Some(1));
    }

    #[test]
    fn divergent_replay_is_refused() {
        // Doctor an outcome record so the log claims a result the
        // device cannot reproduce — recovery must refuse, not hand back
        // a silently different device.
        let store = MemJournalStore::new();
        let mut journal = Journal::new(Box::new(store.clone()), JournalConfig::default()).unwrap();
        journal
            .record_intent(0, &Command::Alloc { len: 4 })
            .unwrap();
        let wrong = Ok(Outcome::Region(Region {
            id: 7,
            start: 512,
            len: 4,
        }));
        journal
            .record_outcome(0, &wrong, &Effects::default())
            .unwrap();
        drop(journal);
        let err = Executor::recover(
            RimeConfig::small(),
            Box::new(store),
            JournalConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RimeError::Journal(JournalError::ReplayDivergence { ordinal: 0 })
        );
    }

    #[test]
    fn checkpoint_for_a_different_device_is_refused() {
        let (exec, store) = journaled_exec(32);
        run_workload(&exec);
        let mut other = RimeConfig::small();
        other.chips_per_channel = 1;
        let err = Executor::recover(other, Box::new(store), JournalConfig::default()).unwrap_err();
        assert!(
            matches!(
                err,
                RimeError::Journal(JournalError::CheckpointMismatch { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn checkpoint_with_an_impossible_chip_range_is_refused() {
        // A chip snapshot whose active range is inverted or runs past
        // the chip is internally inconsistent: recovery refuses it
        // rather than restoring a chip whose `remaining()` would panic.
        let exec = exec();
        run_workload(&exec);
        let blob = exec.checkpoint_bytes();
        let states: Vec<ChipState> = exec.chips.iter().map(|c| lock_recover(c).state()).collect();
        let mut encoded = Vec::new();
        for state in &states {
            journal::put_chip_state(&mut encoded, state);
        }
        // Chip states close the blob; swap in a doctored first chip.
        let head = &blob[..blob.len() - encoded.len()];
        let slots = exec.config.chip_slots();
        let recover = |range: Option<(u64, u64)>| {
            let mut doctored = head.to_vec();
            for (idx, state) in states.iter().enumerate() {
                let mut state = state.clone();
                if idx == 0 {
                    state.range = range;
                }
                journal::put_chip_state(&mut doctored, &state);
            }
            let store = MemJournalStore::new();
            let mut journal =
                Journal::new(Box::new(store.clone()), JournalConfig::default()).unwrap();
            journal.record_checkpoint(&doctored).unwrap();
            drop(journal);
            Executor::recover(
                RimeConfig::small(),
                Box::new(store),
                JournalConfig::default(),
            )
        };
        assert!(
            recover(states[0].range).is_ok(),
            "the untouched blob recovers"
        );
        for range in [(0, slots + 10), (5, 2)] {
            let err = recover(Some(range)).unwrap_err();
            assert!(
                matches!(
                    err,
                    RimeError::Journal(JournalError::CheckpointMismatch { .. })
                ),
                "{range:?}: {err:?}"
            );
        }
    }

    #[test]
    fn a_torn_tail_is_amputated_and_the_command_resubmitted() {
        let (exec, store) = journaled_exec(32);
        let r = run_workload(&exec);
        let want = fingerprint(&exec);
        drop(exec);
        // Tear the final outcome record (the batch extraction), as a
        // crash mid-append would.
        let bytes = store.snapshot();
        let torn = MemJournalStore::from_bytes(bytes[..bytes.len() - 3].to_vec());
        let (rec, report) = Executor::recover(
            RimeConfig::small(),
            Box::new(torn.clone()),
            JournalConfig::default(),
        )
        .unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.interrupted, Some(3), "the batch never committed");
        assert_eq!(report.committed, 3);
        // The torn record was truncated away: the log scans clean.
        let rescanned = journal::scan(&torn.snapshot()).unwrap();
        assert!(!rescanned.torn_tail);
        // Resubmitting the in-doubt command converges on the uncrashed
        // device, bit for bit.
        assert_eq!(
            rec.execute(Command::ExtractBatch {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
                k: 2,
            })
            .unwrap(),
            Outcome::Hits(vec![(1, 2), (3, 5)])
        );
        assert_eq!(fingerprint(&rec), want);
    }

    #[test]
    fn recovery_of_an_empty_store_is_a_fresh_start() {
        let (rec, report) = Executor::recover(
            RimeConfig::small(),
            Box::new(MemJournalStore::new()),
            JournalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.committed, 0);
        assert_eq!(report.replayed, 0);
        assert!(!report.from_checkpoint);
        assert_eq!(
            rec.journal_committed(),
            Some(0),
            "journaling starts at once"
        );
        run_workload(&rec);
        assert_eq!(rec.journal_committed(), Some(4));
    }

    #[test]
    fn a_table1_checkpoint_tracks_live_state_not_capacity() {
        // One live 4096-key region on a Table I device (32 chips of 2 Mi
        // slots each). Its checkpoint holds the region's materialized
        // mats, a few set exclusion words and one presence byte per mat;
        // the exclusion flags alone would take 8 MiB stored densely.
        let config = RimeConfig::table1();
        let exec = Executor::new(config);
        let store = MemJournalStore::new();
        exec.attach_journal(Box::new(store.clone()), JournalConfig::default())
            .unwrap();
        let r = region_of(exec.execute(Command::Alloc { len: 4096 }).unwrap());
        let keys: Vec<u64> = (0..4096u64)
            .map(|i| (i * 2_654_435_761) % 100_003)
            .collect();
        exec.execute(Command::Write {
            region: r,
            offset: 0,
            raw: Cow::Borrowed(&keys),
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.execute(Command::Init {
            region: r,
            offset: 0,
            len: 4096,
            format: KeyFormat::UNSIGNED64,
        })
        .unwrap();
        exec.execute(Command::ExtractBatch {
            region: r,
            format: KeyFormat::UNSIGNED64,
            direction: Direction::Min,
            k: 16,
        })
        .unwrap();
        for _ in 0..3 {
            exec.execute(Command::Extract {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction: Direction::Min,
            })
            .unwrap();
        }
        assert!(exec.checkpoint_now().unwrap());
        let want = fingerprint(&exec);
        drop(exec);
        let scanned = journal::scan(&store.snapshot()).unwrap();
        let sizes: Vec<usize> = scanned
            .records
            .iter()
            .filter_map(|(_, record)| match record {
                JournalRecord::Checkpoint { state, .. } => Some(state.len()),
                _ => None,
            })
            .collect();
        assert_eq!(sizes.len(), 2, "attach + forced");
        for size in sizes {
            assert!(size < 256 * 1024, "checkpoint of {size} bytes");
        }
        let (rec, report) =
            Executor::recover(config, Box::new(store), JournalConfig::default()).unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(
            report.replayed, 0,
            "the forced checkpoint is the last record"
        );
        assert_eq!(fingerprint(&rec), want, "recovery is bit-identical");
    }

    #[test]
    fn checkpoints_detach_and_forced_cadence_work() {
        let exec = exec();
        assert_eq!(exec.journal_committed(), None);
        assert!(!exec.checkpoint_now().unwrap(), "no journal, no checkpoint");
        assert!(!exec.detach_journal());
        let store = MemJournalStore::new();
        exec.attach_journal(Box::new(store.clone()), JournalConfig::default())
            .unwrap();
        assert_eq!(exec.journal_committed(), Some(0));
        assert!(exec.checkpoint_now().unwrap());
        let scanned = journal::scan(&store.snapshot()).unwrap();
        let checkpoints = scanned
            .records
            .iter()
            .filter(|(_, r)| matches!(r, JournalRecord::Checkpoint { .. }))
            .count();
        assert_eq!(checkpoints, 2, "attach + forced");
        assert!(exec.detach_journal());
        assert!(!exec.detach_journal());
        assert_eq!(exec.journal_committed(), None);
    }

    // ---- Replay: a journal as a debugging trace ----

    const U64: KeyFormat = KeyFormat::UNSIGNED64;

    /// A small device recording into a fresh journal.
    fn recording() -> (RimeDevice, MemJournalStore) {
        let dev = RimeDevice::new(RimeConfig::small());
        let store = MemJournalStore::new();
        dev.attach_journal(Box::new(store.clone()), JournalConfig::default())
            .unwrap();
        (dev, store)
    }

    /// Stores `keys` in a fresh region and starts a ranking session.
    fn loaded(dev: &RimeDevice, keys: &[u64]) -> Region {
        let r = dev.alloc(keys.len() as u64).unwrap();
        dev.write_raw(r, 0, keys, U64).unwrap();
        dev.init_raw(r, 0, keys.len() as u64, U64).unwrap();
        r
    }

    fn values(hits: &[(u64, u64)]) -> Vec<Option<u64>> {
        hits.iter().map(|&(_, v)| Some(v)).collect()
    }

    #[test]
    fn replay_reproduces_the_live_extractions() {
        let (dev, store) = recording();
        let r = loaded(&dev, &[9, 2, 7, 5]);
        let mut live = Vec::new();
        for _ in 0..5 {
            let hit = dev.next_extreme_raw(r, U64, Direction::Min).unwrap();
            live.push(hit.map(|(_, v)| v));
            dev.checkpoint_now().unwrap(); // replay skips checkpoints
        }
        dev.free(r).unwrap();
        assert_eq!(live, [Some(2), Some(5), Some(7), Some(9), None]);
        assert_eq!(
            Executor::replay(RimeConfig::small(), &store.snapshot()),
            Ok(live)
        );
    }

    #[test]
    fn replay_works_on_a_different_geometry() {
        let (dev, store) = recording();
        let r = loaded(&dev, &[3, 1, 2]);
        let hit = dev.next_extreme_raw(r, U64, Direction::Max).unwrap();
        assert_eq!(hit.map(|(_, v)| v), Some(3));
        // A bigger device must produce the same extraction results.
        let big = RimeConfig {
            chips_per_channel: 4,
            ..RimeConfig::small()
        };
        assert_eq!(Executor::replay(big, &store.snapshot()), Ok(vec![Some(3)]));
    }

    #[test]
    fn a_region_the_log_never_allocated_is_invalid_on_replay() {
        let dev = RimeDevice::new(RimeConfig::small());
        let r = dev.alloc(2).unwrap();
        let store = MemJournalStore::new();
        dev.attach_journal(Box::new(store.clone()), JournalConfig::default())
            .unwrap();
        dev.free(r).unwrap();
        assert_eq!(
            Executor::replay(RimeConfig::small(), &store.snapshot()),
            Err(RimeError::InvalidRegion)
        );
    }

    #[test]
    fn failed_commands_are_logged_but_not_replayed() {
        let (dev, store) = recording();
        dev.alloc(dev.capacity() + 1).unwrap_err();
        let r = dev.alloc(2).unwrap();
        dev.next_extreme_raw(r, U64, Direction::Min).unwrap_err();
        let scanned = journal::scan(&store.snapshot()).unwrap();
        let failed = scanned
            .records
            .iter()
            .filter(|(_, record)| matches!(record, JournalRecord::Outcome { result: Err(_), .. }))
            .count();
        assert_eq!(failed, 2);
        // Either failure, replayed, would fail the replay.
        assert_eq!(
            Executor::replay(RimeConfig::small(), &store.snapshot()),
            Ok(Vec::new())
        );
    }

    #[test]
    fn a_batch_drain_and_direction_switch_replay_bit_identically() {
        let (dev, store) = recording();
        // Span two chips so the batch leaves candidates buffered on the
        // losing chip — the FIFO drain then has real work to do.
        let n = dev.config().chip_slots() + 8;
        let keys: Vec<u64> = (0..n).map(|i| (i * 7919) % 104_729).collect();
        let r = loaded(&dev, &keys);
        let mut live = values(&dev.next_extremes_raw(r, U64, Direction::Min, 7).unwrap());
        assert_eq!(live.len(), 7);
        while let Some((_, v)) = dev.fifo_next_raw(r).unwrap() {
            live.push(Some(v));
        }
        assert!(live.len() > 7, "the batch left candidates to drain");
        // The dry drain itself, then a direction switch, which re-arms
        // every spanned chip.
        live.push(None);
        let top = values(&dev.next_extremes_raw(r, U64, Direction::Max, 3).unwrap());
        let mut want = keys.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(top, want[..3].iter().map(|&v| Some(v)).collect::<Vec<_>>());
        live.extend(top);
        dev.free(r).unwrap();
        assert_eq!(
            Executor::replay(RimeConfig::small(), &store.snapshot()),
            Ok(live)
        );
    }

    #[test]
    fn replay_of_every_truncation_is_typed_or_a_prefix() {
        // A torn journal replays its committed prefix; a cut too short to
        // scan is a typed journal error. No cut panics.
        let (dev, store) = recording();
        let r = loaded(&dev, &[9, 2, 7, 5, 3]);
        let mut live = values(&dev.next_extremes_raw(r, U64, Direction::Min, 2).unwrap());
        live.push(dev.fifo_next_raw(r).unwrap().map(|(_, v)| v));
        live.push(
            dev.next_extreme_raw(r, U64, Direction::Max)
                .unwrap()
                .map(|(_, v)| v),
        );
        dev.free(r).unwrap();
        let bytes = store.snapshot();
        assert_eq!(
            Executor::replay(RimeConfig::small(), &bytes),
            Ok(live.clone())
        );
        for cut in 0..bytes.len() {
            match Executor::replay(RimeConfig::small(), &bytes[..cut]) {
                Ok(replayed) => assert!(live.starts_with(&replayed), "cut {cut}: {replayed:?}"),
                Err(err) => assert!(matches!(err, RimeError::Journal(_)), "cut {cut}: {err:?}"),
            }
        }
    }
}
