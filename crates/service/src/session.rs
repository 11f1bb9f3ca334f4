//! Per-tenant sessions: one bounded SQ/CQ pair each, io_uring style.
//!
//! A tenant interacts only with its own [`SessionHandle`]: `submit`
//! enqueues a command and rings the doorbell, `reap`/`wait_reap` drain
//! completions. Ordinals are assigned at submit time and completions
//! are always posted to the CQ in ordinal order, so a tenant observes
//! its own program order no matter how the dispatcher reordered or
//! fused its commands against other tenants'.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use rime_core::flight::dur_ns as ns;
use rime_core::{Command, Outcome, PhaseTag, RimeError, TraceCtx};

use crate::admission;
use crate::metrics::TenantMetrics;
use crate::ServiceInner;

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the tenant already has `queue_depth`
    /// commands outstanding (queued + in flight + unreaped). Reap the
    /// completion queue and retry — the service never buffers without
    /// bound.
    Busy,
    /// The service has shut down; no further submissions are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "tenant queue full (reap completions and retry)"),
            SubmitError::Closed => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A synchronous [`SessionHandle::call`] failure: either the ring
/// refused the submission or the device rejected the command.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The submission never reached the device (shutdown mid-call).
    Submit(SubmitError),
    /// The device executed the command and returned an error — exactly
    /// what a direct [`rime_core::Executor::execute`] would have said.
    Device(RimeError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Submit(e) => write!(f, "submission failed: {e}"),
            ServiceError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One completed command, delivered on the tenant's completion queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The submit-time ordinal; per-tenant CQ order is ordinal order.
    pub ordinal: u64,
    /// The marshalled device result, exactly what a direct
    /// [`rime_core::Executor::execute`] call would have returned.
    pub result: Result<Outcome, RimeError>,
}

/// One queued command awaiting dispatch.
#[derive(Debug, Clone)]
pub(crate) struct Submission {
    pub(crate) ordinal: u64,
    pub(crate) command: Command<'static>,
    /// Submit timestamp, carried through dispatch so the latency
    /// histogram observes submit → completion-post wall time.
    pub(crate) enqueued: Instant,
    /// Root trace context, stamped at submit when the flight recorder
    /// is attached (`None` otherwise — tracing costs submitters one
    /// pointer test when off).
    pub(crate) ctx: Option<TraceCtx>,
}

/// Trace bookkeeping riding a CQ entry, populated by dispatch when the
/// flight recorder is attached. The request's spans are recorded at
/// reap time from this carried breakdown — reapers run on tenant
/// threads, so the recording cost stays off the dispatcher's critical
/// path (the dispatcher only records fusion links and the fused-batch
/// umbrella spans it alone knows about).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CqTrace {
    pub(crate) ctx: TraceCtx,
    /// Submit time: the base timestamp the phase spans tile from.
    pub(crate) enqueued: Instant,
    pub(crate) sq_wait_ns: u64,
    pub(crate) queue_wait_ns: u64,
    pub(crate) queue_phase: PhaseTag,
    pub(crate) dispatch_ns: u64,
    /// Unit-execution end; `cq_wait` runs from here to the reap.
    pub(crate) done: Instant,
}

/// Where one completed request spent its life, phase by phase. The
/// four segments tile the submit→reap interval exactly:
/// `sq_wait` (submit → dispatch-pass drain), `queue_wait` (drain →
/// unit execution, tagged by its cause), `dispatch` (execution on the
/// shared executor, device time included), and `cq_wait` (completion
/// posted → reaped — posting overhead is accounted here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// The request's trace id in the flight recorder.
    pub trace: u64,
    /// Submit → dispatch-pass drain, nanoseconds in the tenant SQ.
    pub sq_wait_ns: u64,
    /// Drain → unit execution start.
    pub queue_wait_ns: u64,
    /// What `queue_wait` was spent on: [`PhaseTag::DrrDefer`] when the
    /// unit ran behind an earlier unit of its pass; otherwise
    /// [`PhaseTag::FusionWait`] for a fused member and
    /// [`PhaseTag::Drain`] for a single.
    pub queue_phase: PhaseTag,
    /// Unit execution on the shared executor.
    pub dispatch_ns: u64,
    /// Completion post → reap, nanoseconds in the tenant CQ.
    pub cq_wait_ns: u64,
}

impl Attribution {
    /// Sum of all phases — by construction the request's full
    /// submit→reap latency (minus only the sub-microsecond seams
    /// between consecutive clock reads).
    pub fn total_ns(&self) -> u64 {
        self.sq_wait_ns
            .saturating_add(self.queue_wait_ns)
            .saturating_add(self.dispatch_ns)
            .saturating_add(self.cq_wait_ns)
    }
}

/// The mutable half of a session, under one lock.
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    /// Submission queue: FIFO, drained whole by the dispatcher.
    pub(crate) sq: VecDeque<Submission>,
    /// Completion queue: ordinal-ordered, drained by the tenant. Each
    /// entry optionally carries its trace bookkeeping (recorder
    /// attached only); [`Completion`] itself is unchanged so tenant
    /// code is oblivious.
    pub(crate) cq: VecDeque<(Completion, Option<CqTrace>)>,
    /// Commands taken from the SQ but not yet posted to the CQ.
    pub(crate) in_flight: usize,
    /// Next ordinal to assign at submit.
    pub(crate) next_ordinal: u64,
}

impl SessionState {
    /// Commands the tenant currently holds against its queue depth.
    pub(crate) fn outstanding(&self) -> usize {
        self.sq.len() + self.in_flight + self.cq.len()
    }
}

/// The dispatcher-visible session: state + wakeup for reapers.
#[derive(Debug)]
pub(crate) struct SessionShared {
    /// Dense tenant index (position in the service's session list).
    pub(crate) tenant: usize,
    pub(crate) state: Mutex<SessionState>,
    /// Signaled when completions are posted or slots free up.
    pub(crate) cv: Condvar,
    pub(crate) metrics: TenantMetrics,
}

impl SessionShared {
    pub(crate) fn lock(&self) -> MutexGuard<'_, SessionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A tenant's handle to the service: the only way to submit commands
/// and reap completions. Clone-free by design — one handle per tenant —
/// but `Send`, so a tenant can live on its own thread.
#[derive(Debug)]
pub struct SessionHandle {
    pub(crate) shared: Arc<SessionShared>,
    pub(crate) service: Arc<ServiceInner>,
}

impl SessionHandle {
    /// Enqueues one command and rings the doorbell. Returns the
    /// command's ordinal; completions carry it back. Fails `Busy` when
    /// the tenant is at queue depth and `Closed` after shutdown.
    pub fn submit(&self, command: Command<'static>) -> Result<u64, SubmitError> {
        let ordinal = {
            let mut state = self.shared.lock();
            // Checked under the session lock: `shutdown` sets `closed`
            // before its final pass locks every session, so a command
            // pushed here is either drained by that pass or refused.
            if self.service.is_closed() {
                return Err(SubmitError::Closed);
            }
            admission::try_admit(&state, self.service.config.queue_depth).inspect_err(|_| {
                self.shared.metrics.busy.inc();
            })?;
            let ordinal = state.next_ordinal;
            state.next_ordinal += 1;
            state.sq.push_back(Submission {
                ordinal,
                command,
                enqueued: Instant::now(),
                // Root span of the request's trace; everything
                // downstream parents under it.
                ctx: self.service.flight.as_ref().map(|f| f.root()),
            });
            ordinal
        };
        self.shared.metrics.submissions.inc();
        self.service.doorbell.ring();
        Ok(ordinal)
    }

    /// Like [`SessionHandle::submit`], but parks on `Busy` until a slot
    /// frees up (a completion is posted and reaped by another call, or
    /// the CQ drains). Still fails fast with `Closed` after shutdown.
    pub fn submit_blocking(&self, command: Command<'static>) -> Result<u64, SubmitError> {
        loop {
            match self.submit(command.clone()) {
                Err(SubmitError::Busy) => {
                    let mut state = self.shared.lock();
                    // Re-check under the lock; a completion may have
                    // landed between the failed submit and here.
                    while state.outstanding() >= self.service.config.queue_depth
                        && !self.service.is_closed()
                    {
                        state = self
                            .shared
                            .cv
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
                other => return other,
            }
        }
    }

    /// Finishes drained CQ entries: records each trace's phase spans
    /// from the carried breakdown — `sq_wait`, the queue-wait phase,
    /// `dispatch`, and the terminal `cq_wait` (exactly one per
    /// completion — reaping is the only exit) — and builds the public
    /// [`Attribution`]. All of this runs on the reaping tenant's thread,
    /// after the session lock is released, keeping the dispatcher's
    /// critical path trace-free. Untraced entries pass through without a
    /// clock read.
    fn finish(
        &self,
        drained: Vec<(Completion, Option<CqTrace>)>,
    ) -> Vec<(Completion, Option<Attribution>)> {
        let now = if drained.iter().any(|(_, t)| t.is_some()) {
            Some(Instant::now())
        } else {
            None
        };
        let flight = self.service.flight.as_deref();
        let tenant = self.shared.tenant as u32;
        drained
            .into_iter()
            .map(|(completion, trace)| {
                let attribution = trace.map(|t| {
                    let now = now.expect("traced entry implies a clock read");
                    let cq_wait_ns = ns(now.saturating_duration_since(t.done));
                    if let Some(flight) = flight {
                        let base = flight.ns_since(t.enqueued);
                        // The four spans tile submit→reap end to end:
                        // each starts where the previous one stopped.
                        let tiles = [
                            (PhaseTag::SqWait, base, t.sq_wait_ns),
                            (t.queue_phase, base + t.sq_wait_ns, t.queue_wait_ns),
                            (
                                PhaseTag::Dispatch,
                                base + t.sq_wait_ns + t.queue_wait_ns,
                                t.dispatch_ns,
                            ),
                            (PhaseTag::CqWait, flight.ns_since(t.done), cq_wait_ns),
                        ];
                        flight.record_span_tiles(t.ctx, tiles, tenant, completion.ordinal);
                    }
                    Attribution {
                        trace: t.ctx.trace,
                        sq_wait_ns: t.sq_wait_ns,
                        queue_wait_ns: t.queue_wait_ns,
                        queue_phase: t.queue_phase,
                        dispatch_ns: t.dispatch_ns,
                        cq_wait_ns,
                    }
                });
                (completion, attribution)
            })
            .collect()
    }

    /// Drains up to `max` completions from the completion queue without
    /// blocking. Completions arrive in ordinal order.
    pub fn reap(&self, max: usize) -> Vec<Completion> {
        self.reap_attributed(max)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// Like [`SessionHandle::reap`], but each completion carries its
    /// per-phase latency breakdown when the service was built with a
    /// flight recorder ([`crate::RankingService::with_flight`]);
    /// `None` otherwise.
    pub fn reap_attributed(&self, max: usize) -> Vec<(Completion, Option<Attribution>)> {
        let mut state = self.shared.lock();
        let n = max.min(state.cq.len());
        let drained: Vec<(Completion, Option<CqTrace>)> = state.cq.drain(..n).collect();
        drop(state);
        let out = self.finish(drained);
        if !out.is_empty() {
            // Reaping frees admission slots; wake blocked submitters.
            self.shared.cv.notify_all();
        }
        out
    }

    /// Blocks until at least `n` completions are available, then drains
    /// exactly `n`. Returns fewer only if the service shuts down first.
    pub fn wait_reap(&self, n: usize) -> Vec<Completion> {
        self.wait_reap_attributed(n)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// Blocking variant of [`SessionHandle::reap_attributed`]: waits
    /// for `n` completions, each with its breakdown when tracing is on.
    pub fn wait_reap_attributed(&self, n: usize) -> Vec<(Completion, Option<Attribution>)> {
        let mut state = self.shared.lock();
        while state.cq.len() < n && !self.service.is_closed() {
            state = self
                .shared
                .cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let take = n.min(state.cq.len());
        let drained: Vec<(Completion, Option<CqTrace>)> = state.cq.drain(..take).collect();
        drop(state);
        let out = self.finish(drained);
        if !out.is_empty() {
            self.shared.cv.notify_all();
        }
        out
    }

    /// Synchronous convenience: submit one command and wait for its
    /// completion. Requires a *started* service (a dispatcher thread —
    /// in manual mode nothing drains the ring and this would park
    /// forever) and no other outstanding commands on this session, so
    /// the next completion is necessarily this command's.
    pub fn call(&self, command: Command<'static>) -> Result<Outcome, ServiceError> {
        debug_assert!(
            self.service.started(),
            "call() needs a started dispatcher; use submit + process_pending + reap in manual mode"
        );
        let ordinal = self
            .submit_blocking(command)
            .map_err(ServiceError::Submit)?;
        let mut got = self.wait_reap(1);
        match got.pop() {
            Some(c) => {
                debug_assert_eq!(c.ordinal, ordinal, "call() races another reaper");
                c.result.map_err(ServiceError::Device)
            }
            None => Err(ServiceError::Submit(SubmitError::Closed)),
        }
    }

    /// Completions currently waiting in the CQ.
    pub fn completions_ready(&self) -> usize {
        self.shared.lock().cq.len()
    }

    /// Commands currently counted against the tenant's queue depth.
    pub fn outstanding(&self) -> usize {
        self.shared.lock().outstanding()
    }
}
