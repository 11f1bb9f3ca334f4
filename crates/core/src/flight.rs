//! End-to-end causal tracing and the always-on flight recorder.
//!
//! Since the service PR a request's life spans five layers (session
//! ring → doorbell/drain → fusion → executor dispatch → chip/mats),
//! but the metrics spine only exposes *aggregates*. This module
//! adds the per-request layer: a [`TraceCtx`] stamped at submission and
//! carried through every stage, emitting [`SpanEvent`]s (phase-tagged
//! enter/exit pairs, collapsed into complete spans) into a fixed-size
//! lock-striped ring buffer — the **flight recorder** — that is cheap
//! enough to leave on in production.
//!
//! # Cost discipline
//!
//! The recorder follows the probe discipline from the metrics PR: every
//! holder stores an `Option<Arc<FlightRecorder>>`, so the disabled (or
//! passive) cost on a hot path is one pointer test and **no clock
//! reads**. An enabled `record_span` is one atomic increment plus one
//! striped mutex push of a plain-old-data event.
//!
//! # Determinism contract
//!
//! Trace and span ids come from a *seeded* deterministic source
//! ([`FlightRecorder::next_id`]): splitmix64 of a monotone counter, so
//! a fixed allocation order yields fixed ids. Timestamps are wall-clock
//! and inherently nondeterministic — they live only in the recorder and
//! its exports, never in the metrics registry, so masked metric snapshots
//! stay byte-identical with the recorder on or off (the attribution
//! histograms the service derives from spans are registered
//! unconditionally and flagged nondeterministic).
//!
//! # Ring-buffer overwrite semantics
//!
//! Capacity is fixed at construction and split evenly across stripes;
//! events are striped round-robin by sequence-number *block*. Sequence
//! numbers come from a global counter, but each thread reserves them in
//! aligned blocks (one atomic fetch per block, not per event), and a
//! whole block lands in one stripe — so a recording thread stays
//! sticky on one stripe for a block's worth of events instead of
//! ping-ponging every push across every stripe lock. Within one thread
//! sequence order is exact; across threads it can skew by up to a
//! block per thread (the exact interleaving of concurrent pushes was
//! never observable anyway — sort by timestamp for wall order).
//!
//! When a stripe is full the oldest event in that stripe is
//! overwritten — a flight recorder keeps the *most recent* window, and
//! [`FlightSnapshot::overwritten`] reports exactly how many events were
//! lost to overwrite. A snapshot merges stripes back into global
//! sequence order.
//!
//! # Export format
//!
//! [`FlightSnapshot::to_chrome_json`] renders a snapshot as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` envelope understood
//! by `chrome://tracing` and Perfetto): one `"ph":"X"` complete event
//! per span (`ts`/`dur` in integer microseconds; exact nanoseconds ride
//! in `args`) and one `"ph":"i"` instant event per fusion link. The
//! recorder keeps only its ring; a snapshot is taken, and exported,
//! when a reader asks for one (`rime-trace`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::metrics::json;

/// Tenant value for service-scope spans (dispatch passes, fused-batch
/// umbrella spans) that belong to no single tenant.
pub const TENANT_SERVICE: u32 = u32::MAX;

/// One causal context: which trace an event belongs to and where in the
/// span tree it sits. `Copy`, three words — cheap to thread through
/// queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The trace id, shared by every span of one request (or one fused
    /// batch, or one dispatch pass).
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// The parent span id; `0` marks a root span.
    pub parent: u64,
}

/// Phase tags for span events — the per-request latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseTag {
    /// Submit → dispatch-pass drain: time parked in the tenant SQ.
    SqWait,
    /// Pass drain/fuse/schedule work (singles in wave 0 wait exactly
    /// this long; also the pass-scope span's tag).
    Drain,
    /// Drain → unit execution for members of a fused batch in wave 0:
    /// time waiting for the fusion wave to form.
    FusionWait,
    /// Drain → unit execution for units deferred to a later wave by
    /// DRR ordering / chip-footprint conflicts.
    DrrDefer,
    /// Unit execution on the shared executor (includes device time).
    Dispatch,
    /// The fused `ExtractBatch` umbrella span; its links name the
    /// absorbed tenant spans.
    FusedBatch,
    /// One chip extraction call (select-vector rearms and descents),
    /// reported once per call by the chip probe.
    Device,
    /// Completion posted → reaped: time parked in the tenant CQ. The
    /// terminal exit of every request trace.
    CqWait,
    /// A fusion link event: `linked` names an absorbed member's root
    /// span. Zero-duration.
    Link,
}

impl PhaseTag {
    /// Stable lowercase label (metric label value / Chrome event name).
    pub fn label(self) -> &'static str {
        match self {
            PhaseTag::SqWait => "sq_wait",
            PhaseTag::Drain => "drain",
            PhaseTag::FusionWait => "fusion_wait",
            PhaseTag::DrrDefer => "drr_defer",
            PhaseTag::Dispatch => "dispatch",
            PhaseTag::FusedBatch => "fused_batch",
            PhaseTag::Device => "device",
            PhaseTag::CqWait => "cq_wait",
            PhaseTag::Link => "link",
        }
    }
}

/// One recorded event: a completed span (enter/exit collapsed into
/// start + duration) or a fusion link. Plain old data — the ring buffer
/// stores these by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Global sequence number (snapshot order; detects overwrite).
    pub seq: u64,
    /// Trace id.
    pub trace: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    /// Phase tag.
    pub phase: PhaseTag,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for links).
    pub dur_ns: u64,
    /// Owning tenant, or [`TENANT_SERVICE`].
    pub tenant: u32,
    /// Tenant-local command ordinal (0 for service-scope events).
    pub ordinal: u64,
    /// For [`PhaseTag::Link`]: the absorbed member's root span id.
    pub linked: u64,
}

/// Construction knobs for a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Total event capacity across all stripes. Older events are
    /// overwritten once exceeded.
    pub capacity: usize,
    /// Lock stripes; each holds `capacity / stripes` events (rounded
    /// up, min 1).
    pub stripes: usize,
    /// Seed for the deterministic id source.
    pub seed: u64,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            capacity: 16 * 1024,
            stripes: 8,
            seed: 0x51ED_0BAD_CAFE,
        }
    }
}

/// One lock stripe of the ring: a fixed ring of events plus the total
/// ever written (the excess over `ring.len()` is the overwrite count).
#[derive(Debug)]
struct Stripe {
    ring: Vec<SpanEvent>,
    next: usize,
    written: u64,
}

/// The fixed-size, lock-striped flight recorder. See the module docs
/// for cost, determinism, and overwrite semantics.
#[derive(Debug)]
pub struct FlightRecorder {
    stripes: Vec<Mutex<Stripe>>,
    stripe_cap: usize,
    capacity: usize,
    /// Identity for the thread-local sequence-block cache (recorders
    /// come and go; a stale cached block must never leak across).
    identity: u64,
    /// Events per reserved sequence block (aligned: `seq` only ever
    /// advances in multiples of it). Always a power of two so the
    /// per-event stripe computation is a shift, not a division.
    block: u64,
    /// `log2(block)`.
    block_shift: u32,
    seq: AtomicU64,
    ids: AtomicU64,
    seed: u64,
    epoch: Instant,
}

/// Recorder identities for [`SEQ_BLOCK`] (0 is the "no block" marker).
static RECORDER_IDENTITY: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's reserved sequence block: `(recorder identity,
    /// next unused seq, block end)`.
    static SEQ_BLOCK: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
    /// This thread's reserved id-counter block, same shape. Ids stay
    /// deterministic in per-thread allocation order; the block merely
    /// batches the global counter fetch.
    static ID_BLOCK: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Id-counter values reserved per [`ID_BLOCK`] refill.
const ID_BLOCK_LEN: u64 = 64;

/// Largest power of two `<= n` (`n >= 1`).
fn prev_power_of_two(n: u64) -> u64 {
    1 << (63 - n.leading_zeros())
}

/// Saturating `Duration` → nanoseconds without the 128-bit
/// `as_nanos` detour — this runs several times per traced command, here
/// and in the service's dispatch and reap paths.
#[inline]
pub fn dur_ns(d: std::time::Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000_000)
        .saturating_add(u64::from(d.subsec_nanos()))
}

/// splitmix64: a fixed bijective mix so ids are deterministic in
/// allocation order yet don't collide with small integers.
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FlightRecorder {
    /// Builds a recorder; the epoch (t=0 of every timestamp) is now.
    pub fn new(config: FlightConfig) -> FlightRecorder {
        let stripes = config.stripes.max(1);
        let stripe_cap = config.capacity.div_ceil(stripes).max(1);
        FlightRecorder {
            stripes: (0..stripes)
                .map(|_| {
                    // Pre-fault the ring pages now, at construction,
                    // so the first recorded events don't pay first-
                    // touch page faults on the hot path.
                    let mut ring = Vec::with_capacity(stripe_cap);
                    ring.resize(
                        stripe_cap,
                        SpanEvent {
                            seq: 0,
                            trace: 0,
                            span: 0,
                            parent: 0,
                            phase: PhaseTag::Link,
                            start_ns: 0,
                            dur_ns: 0,
                            tenant: 0,
                            ordinal: 0,
                            linked: 0,
                        },
                    );
                    ring.clear();
                    Mutex::new(Stripe {
                        ring,
                        next: 0,
                        written: 0,
                    })
                })
                .collect(),
            stripe_cap,
            capacity: stripe_cap * stripes,
            identity: RECORDER_IDENTITY.fetch_add(1, Ordering::Relaxed),
            // Small rings keep block <= stripe size so round-robin
            // still covers every stripe before any overwrite; rounded
            // down to a power of two so striping needs no division.
            block: prev_power_of_two(stripe_cap.min(64) as u64),
            block_shift: prev_power_of_two(stripe_cap.min(64) as u64).trailing_zeros(),
            seq: AtomicU64::new(0),
            ids: AtomicU64::new(1),
            seed: config.seed,
            epoch: Instant::now(),
        }
    }

    /// Total event capacity (stripe-rounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reserves `n` consecutive id-counter values from this thread's
    /// cached block — one global atomic fetch per [`ID_BLOCK_LEN`]
    /// ids instead of one per id. Returns the first counter value.
    fn next_ids(&self, n: u64) -> u64 {
        if n >= ID_BLOCK_LEN {
            return self.ids.fetch_add(n, Ordering::Relaxed);
        }
        ID_BLOCK.with(|cell| {
            let (identity, next, end) = cell.get();
            if identity == self.identity && next + n <= end {
                cell.set((identity, next + n, end));
                return next;
            }
            let start = self.ids.fetch_add(ID_BLOCK_LEN, Ordering::Relaxed);
            cell.set((self.identity, start + n, start + ID_BLOCK_LEN));
            start
        })
    }

    /// Allocates the next deterministic id (never 0).
    pub fn next_id(&self) -> u64 {
        let n = self.next_ids(1);
        let id = mix(self.seed, n);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Allocates a fresh root context (new trace).
    pub fn root(&self) -> TraceCtx {
        let id = self.next_id();
        TraceCtx {
            trace: id,
            span: id,
            parent: 0,
        }
    }

    /// Allocates a child context under `parent` in the same trace.
    pub fn child(&self, parent: TraceCtx) -> TraceCtx {
        TraceCtx {
            trace: parent.trace,
            span: self.next_id(),
            parent: parent.span,
        }
    }

    /// Nanoseconds since the recorder epoch.
    pub fn now_ns(&self) -> u64 {
        dur_ns(self.epoch.elapsed())
    }

    /// Nanoseconds from the epoch to `at` (0 when `at` predates it).
    pub fn ns_since(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map(dur_ns)
            .unwrap_or(0)
    }

    /// Takes the next sequence number from this thread's reserved
    /// block, reserving a fresh one (a single global atomic fetch per
    /// `block` events) when the cache is empty or belongs to another
    /// recorder.
    fn next_seq(&self) -> u64 {
        SEQ_BLOCK.with(|cell| {
            let (identity, next, end) = cell.get();
            if identity == self.identity && next < end {
                cell.set((identity, next + 1, end));
                return next;
            }
            let start = self.seq.fetch_add(self.block, Ordering::Relaxed);
            cell.set((self.identity, start + 1, start + self.block));
            start
        })
    }

    /// Which stripe a sequence number lands in. Blocks are aligned, so
    /// a whole block maps to one stripe: the hot path reuses a lock
    /// this thread already owns in cache. The block divide is a shift,
    /// and the stripe-count modulo a mask whenever the count is a
    /// power of two (the default) — this runs once per recorded event.
    fn stripe_of(&self, seq: u64) -> usize {
        let block = seq >> self.block_shift;
        let n = self.stripes.len() as u64;
        if n & (n - 1) == 0 {
            (block & (n - 1)) as usize
        } else {
            (block % n) as usize
        }
    }

    fn write(&self, stripe: &mut Stripe, event: SpanEvent) {
        stripe.written += 1;
        if stripe.ring.len() < self.stripe_cap {
            stripe.ring.push(event);
            stripe.next = if stripe.ring.len() == self.stripe_cap {
                0
            } else {
                stripe.ring.len()
            };
        } else {
            let at = stripe.next;
            stripe.ring[at] = event;
            stripe.next = if at + 1 == self.stripe_cap { 0 } else { at + 1 };
        }
    }

    fn push(&self, mut event: SpanEvent) {
        let seq = self.next_seq();
        event.seq = seq;
        let stripe = &self.stripes[self.stripe_of(seq)];
        let mut stripe = stripe.lock().unwrap_or_else(PoisonError::into_inner);
        self.write(&mut stripe, event);
    }

    /// Pushes a batch of events, stamping each with its sequence number
    /// and sharing one stripe lock across every run of consecutive
    /// events that land in the same stripe. Sequence numbers come from
    /// the thread's reserved block, so the whole batch usually maps to
    /// a single stripe — one lock round-trip instead of one per event.
    fn push_batch(&self, events: &mut [SpanEvent]) {
        // Stamp sequence numbers and compute each event's stripe once
        // (chunked so the scratch stays on the stack); consecutive
        // same-stripe runs (the common whole-batch case, thanks to
        // block-aligned striping) share one lock round-trip.
        for events in events.chunks_mut(64) {
            let mut idxs = [0usize; 64];
            for (event, idx) in events.iter_mut().zip(idxs.iter_mut()) {
                event.seq = self.next_seq();
                *idx = self.stripe_of(event.seq);
            }
            let mut i = 0;
            while i < events.len() {
                let idx = idxs[i];
                let mut j = i + 1;
                while j < events.len() && idxs[j] == idx {
                    j += 1;
                }
                let mut stripe = self.stripes[idx]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                for event in &events[i..j] {
                    self.write(&mut stripe, *event);
                }
                drop(stripe);
                i = j;
            }
        }
    }

    /// Records one completed span under `ctx`.
    pub fn record_span(
        &self,
        ctx: TraceCtx,
        phase: PhaseTag,
        start_ns: u64,
        dur_ns: u64,
        tenant: u32,
        ordinal: u64,
    ) {
        self.push(SpanEvent {
            seq: 0,
            trace: ctx.trace,
            span: ctx.span,
            parent: ctx.parent,
            phase,
            start_ns,
            dur_ns,
            tenant,
            ordinal,
            linked: 0,
        });
    }

    /// Records several completed spans as fresh children of `parent`
    /// in one ring transaction: the child ids come from a single
    /// allocation (identical to calling [`Self::child`] +
    /// [`Self::record_span`] once per tile, in order) and the ring
    /// writes share stripe locks via the batched push — the hot-path
    /// form for a request's reap-time phase tiling.
    pub fn record_span_tiles<const N: usize>(
        &self,
        parent: TraceCtx,
        tiles: [(PhaseTag, u64, u64); N],
        tenant: u32,
        ordinal: u64,
    ) {
        let first = self.next_ids(N as u64);
        let mut events = tiles.map(|(phase, start_ns, dur_ns)| {
            // Placeholder span id; fixed up below so `map` stays simple.
            SpanEvent {
                seq: 0,
                trace: parent.trace,
                span: 0,
                parent: parent.span,
                phase,
                start_ns,
                dur_ns,
                tenant,
                ordinal,
                linked: 0,
            }
        });
        for (i, event) in events.iter_mut().enumerate() {
            let id = mix(self.seed, first + i as u64);
            event.span = if id == 0 { 1 } else { id };
        }
        self.push_batch(&mut events);
    }

    /// Records a fused unit's whole causal record in one ring
    /// transaction: the [`PhaseTag::FusedBatch`] umbrella span, then one
    /// [`PhaseTag::Link`] event per absorbed member — each `members`
    /// item is `(member root span, tenant, ordinal)` — stamped at the
    /// span's start. This is the dispatcher's only hot-path ring write,
    /// so it batches everything it knows into a single push, built in
    /// stack chunks so it never heap-allocates.
    pub fn record_fused<I>(&self, fused: TraceCtx, start_ns: u64, dur_ns: u64, members: I)
    where
        I: IntoIterator<Item = (u64, u32, u64)>,
    {
        let blank = SpanEvent {
            seq: 0,
            trace: fused.trace,
            span: fused.span,
            parent: fused.parent,
            phase: PhaseTag::Link,
            start_ns,
            dur_ns: 0,
            tenant: 0,
            ordinal: 0,
            linked: 0,
        };
        let mut buf = [blank; 64];
        buf[0] = SpanEvent {
            phase: PhaseTag::FusedBatch,
            dur_ns,
            tenant: TENANT_SERVICE,
            ..blank
        };
        let mut n = 1;
        for (member_span, tenant, ordinal) in members {
            buf[n] = SpanEvent {
                tenant,
                ordinal,
                linked: member_span,
                ..blank
            };
            n += 1;
            if n == buf.len() {
                self.push_batch(&mut buf);
                n = 0;
            }
        }
        if n > 0 {
            self.push_batch(&mut buf[..n]);
        }
    }

    /// A consistent merge of every stripe, in global sequence order.
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut events = Vec::new();
        let mut overwritten = 0u64;
        for stripe in &self.stripes {
            let stripe = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            overwritten += stripe.written - stripe.ring.len() as u64;
            events.extend_from_slice(&stripe.ring);
        }
        events.sort_by_key(|e| e.seq);
        FlightSnapshot {
            events,
            overwritten,
            capacity: self.capacity,
        }
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The calling thread's active trace context, set by [`enter`]. The
/// executor installs the dispatched command's context here so the chip
/// probes (which have no context parameter) can parent their `device`
/// spans correctly.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(Cell::get)
}

/// Restores the previous thread context on drop.
#[derive(Debug)]
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

/// Makes `ctx` the calling thread's active context until the returned
/// guard drops.
pub fn enter(ctx: TraceCtx) -> CtxGuard {
    CtxGuard {
        prev: CURRENT.with(|c| c.replace(Some(ctx))),
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// A frozen view of the ring: events in sequence order plus overwrite
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Surviving events, ascending `seq`.
    pub events: Vec<SpanEvent>,
    /// Events lost to ring overwrite before this snapshot.
    pub overwritten: u64,
    /// The recorder's total capacity.
    pub capacity: usize,
}

impl FlightSnapshot {
    /// Renders the snapshot as Chrome trace-event JSON (see the module
    /// docs for the mapping).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{");
        out.push_str(&format!(
            "\"overwritten\":{},\"capacity\":{}",
            self.overwritten, self.capacity
        ));
        out.push_str("},\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let common = format!(
                "\"name\":\"{}\",\"cat\":\"rime\",\"ts\":{},\"pid\":{},\"tid\":{}",
                e.phase.label(),
                e.start_ns / 1_000,
                e.tenant,
                e.trace,
            );
            let args = format!(
                "\"args\":{{\"seq\":{},\"trace\":{},\"span\":{},\"parent\":{},\"ordinal\":{},\"linked\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                e.seq, e.trace, e.span, e.parent, e.ordinal, e.linked, e.start_ns, e.dur_ns,
            );
            if e.phase == PhaseTag::Link {
                out.push_str(&format!("{{{common},\"ph\":\"i\",\"s\":\"p\",{args}}}"));
            } else {
                out.push_str(&format!(
                    "{{{common},\"ph\":\"X\",\"dur\":{},{args}}}",
                    e.dur_ns / 1_000,
                ));
            }
        }
        out.push_str("]}\n");
        out
    }

    /// Per-phase `(events, total_ns)` over every span in the snapshot,
    /// in a fixed phase order — the text analogue of the Perfetto view.
    pub fn phase_totals(&self) -> Vec<(&'static str, u64, u64)> {
        const ORDER: [PhaseTag; 9] = [
            PhaseTag::SqWait,
            PhaseTag::Drain,
            PhaseTag::FusionWait,
            PhaseTag::DrrDefer,
            PhaseTag::Dispatch,
            PhaseTag::FusedBatch,
            PhaseTag::Device,
            PhaseTag::CqWait,
            PhaseTag::Link,
        ];
        ORDER
            .iter()
            .map(|&tag| {
                let (mut n, mut total) = (0u64, 0u64);
                for e in self.events.iter().filter(|e| e.phase == tag) {
                    n += 1;
                    total += e.dur_ns;
                }
                (tag.label(), n, total)
            })
            .collect()
    }
}

/// One event parsed back from Chrome trace JSON — the exporter
/// round-trip surface [`parse_chrome`] returns for validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeEvent {
    /// Event name (the phase label).
    pub name: String,
    /// Chrome phase: `"X"` (complete span) or `"i"` (instant/link).
    pub ph: String,
    /// Timestamp in microseconds.
    pub ts_us: u64,
    /// Process id (tenant).
    pub pid: u64,
    /// Thread id (trace id).
    pub tid: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Exact span id from `args`.
    pub span: u64,
    /// Exact parent span id from `args`.
    pub parent: u64,
    /// Link target span id from `args` (0 for spans).
    pub linked: u64,
    /// Exact start from `args`, nanoseconds.
    pub start_ns: u64,
    /// Exact duration from `args`, nanoseconds.
    pub dur_ns: u64,
}

/// Parses and validates a [`FlightSnapshot::to_chrome_json`] document,
/// reusing the in-repo no-serde JSON reader. This is the `--selfcheck`
/// oracle: any schema violation is an error, and the returned events
/// can be compared 1:1 against the source snapshot.
///
/// # Errors
///
/// The first syntax or schema violation, described.
pub fn parse_chrome(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let root = json::parse(text)?;
    let obj = root.as_object().ok_or("top level must be an object")?;
    json::field(obj, "displayTimeUnit")?
        .as_str()
        .ok_or("\"displayTimeUnit\" must be a string")?;
    let events = json::field(obj, "traceEvents")?
        .as_array()
        .ok_or("\"traceEvents\" must be an array")?;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let e = e.as_object().ok_or("trace events must be objects")?;
        let name = json::field(e, "name")?
            .as_str()
            .ok_or("\"name\" must be a string")?
            .to_string();
        let ph = json::field(e, "ph")?
            .as_str()
            .ok_or("\"ph\" must be a string")?
            .to_string();
        if ph != "X" && ph != "i" {
            return Err(format!("unexpected event phase {ph:?}"));
        }
        let ts_us = json::field(e, "ts")?
            .as_u64()
            .ok_or("\"ts\" must be a u64")?;
        let pid = json::field(e, "pid")?
            .as_u64()
            .ok_or("\"pid\" must be a u64")?;
        let tid = json::field(e, "tid")?
            .as_u64()
            .ok_or("\"tid\" must be a u64")?;
        let dur_us = if ph == "X" {
            json::field(e, "dur")?
                .as_u64()
                .ok_or("\"dur\" must be a u64")?
        } else {
            0
        };
        let args = json::field(e, "args")?
            .as_object()
            .ok_or("\"args\" must be an object")?;
        let arg = |k: &str| -> Result<u64, String> {
            json::field(args, k)?
                .as_u64()
                .ok_or_else(|| format!("args.{k} must be a u64"))
        };
        let (start_ns, dur_ns) = (arg("start_ns")?, arg("dur_ns")?);
        if ts_us != start_ns / 1_000 {
            return Err(format!("ts {ts_us} disagrees with start_ns {start_ns}"));
        }
        if ph == "X" && dur_us != dur_ns / 1_000 {
            return Err(format!("dur {dur_us} disagrees with dur_ns {dur_ns}"));
        }
        out.push(ChromeEvent {
            name,
            ph,
            ts_us,
            pid,
            tid,
            dur_us,
            span: arg("span")?,
            parent: arg("parent")?,
            linked: arg("linked")?,
            start_ns,
            dur_ns,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize, stripes: usize) -> FlightRecorder {
        FlightRecorder::new(FlightConfig {
            capacity,
            stripes,
            seed: 7,
        })
    }

    #[test]
    fn ids_are_seed_deterministic_and_nonzero() {
        let a = recorder(64, 2);
        let b = recorder(64, 2);
        let ids: Vec<u64> = (0..100).map(|_| a.next_id()).collect();
        assert_eq!(ids, (0..100).map(|_| b.next_id()).collect::<Vec<u64>>());
        assert!(ids.iter().all(|&id| id != 0));
        let dedup: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(dedup.len(), ids.len(), "ids collide");
        let c = FlightRecorder::new(FlightConfig {
            seed: 8,
            ..FlightConfig {
                capacity: 64,
                stripes: 2,
                seed: 0,
            }
        });
        assert_ne!(c.next_id(), ids[0], "seed changes the id stream");
    }

    #[test]
    fn child_spans_nest_under_their_parent() {
        let r = recorder(64, 2);
        let root = r.root();
        assert_eq!(root.trace, root.span);
        assert_eq!(root.parent, 0);
        let kid = r.child(root);
        assert_eq!(kid.trace, root.trace);
        assert_eq!(kid.parent, root.span);
        assert_ne!(kid.span, root.span);
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_it() {
        let r = recorder(8, 2);
        assert_eq!(r.capacity(), 8);
        let ctx = r.root();
        for i in 0..20u64 {
            r.record_span(ctx, PhaseTag::Dispatch, i, 1, 0, i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 8, "ring keeps exactly capacity");
        assert_eq!(snap.overwritten, 12);
        // The survivors are the 8 most recent, in sequence order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn thread_context_nests_and_restores() {
        assert_eq!(current(), None);
        let r = recorder(8, 1);
        let outer = r.root();
        let inner = r.child(outer);
        {
            let _a = enter(outer);
            assert_eq!(current(), Some(outer));
            {
                let _b = enter(inner);
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn chrome_export_round_trips_through_the_parser() {
        let r = recorder(64, 4);
        let root = r.root();
        let fused = r.root();
        r.record_span(r.child(root), PhaseTag::SqWait, 1_500, 2_500, 3, 9);
        r.record_fused(fused, 4_000, 10_000, [(root.span, 3, 9)]);
        let snap = r.snapshot();
        let json = snap.to_chrome_json();
        let parsed = parse_chrome(&json).expect("exporter output must validate");
        assert_eq!(parsed.len(), snap.events.len());
        for (p, e) in parsed.iter().zip(&snap.events) {
            assert_eq!(p.name, e.phase.label());
            assert_eq!(p.span, e.span);
            assert_eq!(p.parent, e.parent);
            assert_eq!(p.linked, e.linked);
            assert_eq!(p.start_ns, e.start_ns);
            assert_eq!(p.dur_ns, e.dur_ns);
            assert_eq!(p.ph, if e.phase == PhaseTag::Link { "i" } else { "X" });
            assert_eq!(p.tid, e.trace);
            assert_eq!(u64::from(e.tenant), p.pid);
        }
    }

    #[test]
    fn parse_chrome_rejects_schema_violations() {
        assert!(parse_chrome("[]").is_err(), "top level must be an object");
        assert!(parse_chrome("{\"traceEvents\":[]}").is_err(), "no unit");
        let bad = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Q\"}]}";
        assert!(parse_chrome(bad).is_err(), "unknown ph");
    }

    #[test]
    fn phase_totals_sum_durations() {
        let r = recorder(16, 2);
        let ctx = r.root();
        r.record_span(ctx, PhaseTag::SqWait, 0, 5, 0, 0);
        r.record_span(ctx, PhaseTag::SqWait, 5, 7, 0, 1);
        r.record_span(ctx, PhaseTag::Dispatch, 12, 100, 0, 0);
        let totals = r.snapshot().phase_totals();
        let get = |label: &str| totals.iter().find(|(l, _, _)| *l == label).copied();
        assert_eq!(get("sq_wait"), Some(("sq_wait", 2, 12)));
        assert_eq!(get("dispatch"), Some(("dispatch", 1, 100)));
        assert_eq!(get("cq_wait"), Some(("cq_wait", 0, 0)));
    }
}
