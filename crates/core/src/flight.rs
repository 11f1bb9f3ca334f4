//! End-to-end causal tracing and the always-on flight recorder.
//!
//! Since the service PR a request's life spans five layers (session
//! ring → doorbell/drain → fusion → executor dispatch → chip/mats),
//! but the metrics spine only exposes *aggregates*. This module
//! adds the per-request layer: a [`TraceCtx`] stamped at submission and
//! carried through every stage, emitting [`SpanEvent`]s (phase-tagged
//! enter/exit pairs, collapsed into complete spans) into a fixed-size
//! ring buffer under one lock — the **flight recorder** — that is cheap
//! enough to leave on in production.
//!
//! # Cost discipline
//!
//! The recorder follows the probe discipline from the metrics PR: every
//! holder stores an `Option<Arc<FlightRecorder>>`, so the disabled (or
//! passive) cost on a hot path is one pointer test and **no clock
//! reads**. An enabled `record_span` is one mutex push of a
//! plain-old-data event; a request's reap-time spans, and a fused
//! unit's umbrella span with its links, each share one lock round-trip.
//! One lock suffices: commands run on the threads that ask for them, so
//! no worker pool records spans.
//!
//! # Determinism contract
//!
//! Trace and span ids come from the recorder's own counter
//! ([`FlightRecorder::next_id`]), starting at 1: ids are never 0, dense,
//! and a fixed allocation order on one recorder yields fixed ids,
//! whatever other recorders or threads do. Timestamps are wall-clock
//! and inherently nondeterministic — they live only in the recorder and
//! its exports, never in the metrics registry, so masked metric snapshots
//! stay byte-identical with the recorder on or off (the attribution
//! histograms the service derives from spans are registered
//! unconditionally and flagged nondeterministic).
//!
//! # Ring-buffer overwrite semantics
//!
//! Capacity is fixed at construction. An event's `seq` is its position
//! in lock order, so sequence numbers are dense and the ring holds
//! exactly the last `capacity` events recorded, for any interleaving of
//! recording threads. A span is recorded when it ends, so `seq` is not
//! start order — sort by `start_ns` for wall order.
//!
//! When the ring is full its oldest event is overwritten — a flight
//! recorder keeps the *most recent* window, and
//! [`FlightSnapshot::overwritten`] reports exactly how many events were
//! lost to overwrite. A snapshot returns the kept window in recording
//! order.
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
use std::sync::{Mutex, MutexGuard, PoisonError};
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
    /// Pass drain/fuse work: drain → execution of a single that runs
    /// first in its pass (also the pass-scope span's tag).
    Drain,
    /// Drain → execution of a fused batch that runs first in its pass:
    /// time spent forming the fused group.
    FusionWait,
    /// Drain → execution of a unit that runs behind an earlier unit of
    /// its pass, in DRR pass order.
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
    /// Position in recording order (dense; detects overwrite).
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
    /// Event capacity (at least 1). Older events are overwritten once
    /// exceeded.
    pub capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            capacity: 16 * 1024,
        }
    }
}

/// The ring's slots, the slot the next event lands in, and the number
/// of events ever recorded, which is also the next event's `seq`.
#[derive(Debug)]
struct Ring {
    slots: Vec<SpanEvent>,
    next: usize,
    written: u64,
}

impl Ring {
    fn push(&mut self, mut event: SpanEvent) {
        event.seq = self.written;
        self.slots[self.next] = event;
        self.next = if self.next + 1 == self.slots.len() {
            0
        } else {
            self.next + 1
        };
        self.written += 1;
    }
}

/// The fixed-size flight recorder: one ring under one lock. See the
/// module docs for cost, determinism, and overwrite semantics.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    /// The next id to hand out; starts at 1, so no id is 0.
    ids: AtomicU64,
    epoch: Instant,
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

impl FlightRecorder {
    /// Builds a recorder; the epoch (t=0 of every timestamp) is now.
    pub fn new(config: FlightConfig) -> FlightRecorder {
        let capacity = config.capacity.max(1);
        let blank = SpanEvent {
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
        };
        FlightRecorder {
            // Every slot is written now, at construction, so the first
            // recorded events don't pay first-touch page faults on the
            // hot path.
            ring: Mutex::new(Ring {
                slots: vec![blank; capacity],
                next: 0,
                written: 0,
            }),
            capacity,
            ids: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// Event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Every push leaves the ring whole, so a panic elsewhere while the
    /// lock was held cannot have corrupted it.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocates the next id (never 0): this recorder's own counter,
    /// starting at 1.
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
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
        self.ring().push(SpanEvent {
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
    /// under one lock: the child ids come from a single allocation
    /// (identical to calling [`Self::child`] + [`Self::record_span`]
    /// once per tile, in order) — the hot-path form for a request's
    /// reap-time phase tiling.
    pub fn record_span_tiles<const N: usize>(
        &self,
        parent: TraceCtx,
        tiles: [(PhaseTag, u64, u64); N],
        tenant: u32,
        ordinal: u64,
    ) {
        let first = self.ids.fetch_add(N as u64, Ordering::Relaxed);
        let mut ring = self.ring();
        for (span, (phase, start_ns, dur_ns)) in (first..).zip(tiles) {
            ring.push(SpanEvent {
                seq: 0,
                trace: parent.trace,
                span,
                parent: parent.span,
                phase,
                start_ns,
                dur_ns,
                tenant,
                ordinal,
                linked: 0,
            });
        }
    }

    /// Records a fused unit's whole causal record under one lock: the
    /// [`PhaseTag::FusedBatch`] umbrella span, then one
    /// [`PhaseTag::Link`] event per absorbed member — each `members`
    /// item is `(member root span, tenant, ordinal)` — stamped at the
    /// span's start. `members` is iterated with the lock held, so it
    /// must not record into this recorder.
    pub fn record_fused<I>(&self, fused: TraceCtx, start_ns: u64, dur_ns: u64, members: I)
    where
        I: IntoIterator<Item = (u64, u32, u64)>,
    {
        let umbrella = SpanEvent {
            seq: 0,
            trace: fused.trace,
            span: fused.span,
            parent: fused.parent,
            phase: PhaseTag::FusedBatch,
            start_ns,
            dur_ns,
            tenant: TENANT_SERVICE,
            ordinal: 0,
            linked: 0,
        };
        let mut ring = self.ring();
        ring.push(umbrella);
        for (member_span, tenant, ordinal) in members {
            ring.push(SpanEvent {
                phase: PhaseTag::Link,
                dur_ns: 0,
                tenant,
                ordinal,
                linked: member_span,
                ..umbrella
            });
        }
    }

    /// The kept window: the last [`Self::capacity`] events, in
    /// recording order.
    pub fn snapshot(&self) -> FlightSnapshot {
        let ring = self.ring();
        let kept = ring.written.min(self.capacity as u64) as usize;
        let mut events = Vec::with_capacity(kept);
        if kept == self.capacity {
            // A full ring's oldest event sits where the next one lands.
            events.extend_from_slice(&ring.slots[ring.next..]);
        }
        events.extend_from_slice(&ring.slots[..ring.next]);
        FlightSnapshot {
            events,
            overwritten: ring.written - kept as u64,
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

    fn recorder(capacity: usize) -> FlightRecorder {
        FlightRecorder::new(FlightConfig { capacity })
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = recorder(64);
        let b = recorder(64);
        let ids: Vec<u64> = (0..100).map(|_| a.next_id()).collect();
        assert_eq!(ids, (0..100).map(|_| b.next_id()).collect::<Vec<u64>>());
        assert_eq!(ids, (1..=100).collect::<Vec<u64>>(), "dense from 1");
    }

    #[test]
    fn ids_do_not_depend_on_other_recorders() {
        let lone = recorder(8);
        let expected: Vec<u64> = (0..200).map(|_| lone.next_id()).collect();
        let (a, b) = (recorder(8), recorder(8));
        let (mut from_a, mut from_b) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            from_a.push(a.next_id());
            from_b.push(b.next_id());
        }
        assert_eq!(from_a, expected);
        assert_eq!(from_b, expected);
    }

    #[test]
    fn child_spans_nest_under_their_parent() {
        let r = recorder(64);
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
        let r = recorder(8);
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
    fn the_window_is_the_last_events_in_recording_order_across_threads() {
        let r = recorder(64);
        let ctx = r.root();
        // This thread records one event, a second thread 64, then this
        // thread one more; `ordinal` numbers them in recording order.
        r.record_span(ctx, PhaseTag::Dispatch, 0, 1, 0, 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=64 {
                    r.record_span(ctx, PhaseTag::Dispatch, i, 1, 1, i);
                }
            });
        });
        r.record_span(ctx, PhaseTag::Dispatch, 65, 1, 0, 65);
        let snap = r.snapshot();
        assert_eq!(snap.overwritten, 2);
        let ordinals: Vec<u64> = snap.events.iter().map(|e| e.ordinal).collect();
        assert_eq!(ordinals, (2..=65).collect::<Vec<u64>>());
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (2..=65).collect::<Vec<u64>>());
    }

    #[test]
    fn thread_context_nests_and_restores() {
        assert_eq!(current(), None);
        let r = recorder(8);
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
        // One fused round on a small ring, and enough rounds to wrap a
        // full default ring.
        let small = recorder(64);
        let full = FlightRecorder::new(FlightConfig::default());
        for (r, rounds) in [(&small, 1), (&full, full.capacity() / 3 + 1)] {
            for i in 0..rounds as u64 {
                let root = r.root();
                let fused = r.root();
                r.record_span(r.child(root), PhaseTag::SqWait, 1_500 + i, 2_500, 3, i);
                r.record_fused(fused, 4_000 + i, 10_000, [(root.span, 3, i)]);
            }
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
        assert_eq!(full.snapshot().events.len(), full.capacity());
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
        let r = recorder(16);
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
