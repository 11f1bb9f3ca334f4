//! # rime-service
//!
//! An io_uring-style multi-tenant submission/completion ring over the
//! [`rime_core`] command executor — the shared-service front-end the
//! RIME device needs once more than one client ranks at a time
//! (ROADMAP item 2; the shared search-accelerator framing of Liu et
//! al. and the Fig. 14 multi-stream coordination, lifted to the
//! service boundary).
//!
//! ## Ring protocol
//!
//! Each tenant owns a [`SessionHandle`]: a bounded submission queue
//! (SQ) and completion queue (CQ) pair. [`SessionHandle::submit`]
//! assigns a per-tenant *ordinal*, enqueues, and rings the service
//! doorbell; a dispatcher (a thread after [`RankingService::start`],
//! or the caller via [`RankingService::process_pending`]) drains *all*
//! SQs per wakeup — N doorbell rings coalesce into one dispatch pass.
//! Per pass the dispatcher:
//!
//! 1. drains SQs with deficit-round-robin interleaving (no tenant
//!    starves, the cursor rotates per pass);
//! 2. **fuses** compatible single-key `Extract` commands — same
//!    region, format, and direction, possibly from different tenants —
//!    into one `ExtractBatch { k }`, amortizing the select-vector
//!    rearm exactly as PR 1's batch path does per chip;
//! 3. packs chip-disjoint work units into concurrent *waves*
//!    (allocator commands serialize);
//! 4. posts completions per tenant in ordinal order, one CQ lock per
//!    tenant per pass.
//!
//! ## Invariants
//!
//! * **Bounded memory**: a tenant holds at most
//!   [`ServiceConfig::queue_depth`] commands across SQ + in-flight +
//!   unreaped CQ; beyond that [`SubmitError::Busy`] pushes back.
//! * **Program order**: a tenant's completions arrive in submit
//!   (ordinal) order, whatever fusion or waves did underneath.
//! * **Determinism**: a fused group executes literally
//!   `Command::ExtractBatch` on the shared executor, so its results,
//!   `OpCounters`, and telemetry are bit-identical to an equivalent
//!   direct batch call; a single tenant submitting serially observes
//!   byte-identical results to driving [`rime_core::RimeDevice`]
//!   directly. See `tests/service_determinism.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod completion;
mod dispatch;
mod fusion;
mod metrics;
mod ring;
mod scheduler;
mod session;

#[cfg(test)]
pub(crate) mod tests_support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use rime_core::{Executor, FlightConfig, FlightRecorder, RimeConfig};

pub use session::{Attribution, Completion, ServiceError, SessionHandle, SubmitError};

use metrics::{ServiceMetrics, TenantMetrics};
use ring::Doorbell;
use session::{SessionShared, SessionState};

/// Tuning knobs for the ring service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Per-tenant bound on outstanding commands (SQ + in-flight +
    /// unreaped CQ). Submissions beyond it fail [`SubmitError::Busy`].
    pub queue_depth: usize,
    /// Maximum members of one fused `ExtractBatch`. At `1` there is no
    /// cross-tenant fusion: every command dispatches individually — the
    /// naive baseline the determinism tests compare against.
    pub max_fuse: usize,
    /// Deficit-round-robin quantum: commands a tenant may release per
    /// turn. Larger quanta keep same-tenant runs adjacent (deeper
    /// fusion); smaller quanta interleave tenants more finely.
    pub drr_quantum: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            queue_depth: 64,
            max_fuse: 64,
            drr_quantum: 8,
        }
    }
}

/// Scheduler state that persists across passes.
#[derive(Debug, Default)]
pub(crate) struct SchedState {
    /// Which tenant goes first next pass (rotates by one per pass).
    pub(crate) cursor: usize,
}

/// Shared interior of the service: everything the dispatcher and the
/// session handles touch.
#[derive(Debug)]
pub(crate) struct ServiceInner {
    pub(crate) exec: Arc<Executor>,
    pub(crate) config: ServiceConfig,
    pub(crate) doorbell: Doorbell,
    pub(crate) sessions: Mutex<Vec<Arc<SessionShared>>>,
    pub(crate) sched: Mutex<SchedState>,
    pub(crate) metrics: ServiceMetrics,
    /// Flight recorder shared with the executor; `None` keeps every
    /// trace site down to a single pointer test.
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    closed: AtomicBool,
    started: AtomicBool,
}

impl ServiceInner {
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    pub(crate) fn started(&self) -> bool {
        self.started.load(Ordering::Acquire)
    }
}

/// The multi-tenant ranking service: one shared [`Executor`], many
/// tenant rings, one dispatcher.
///
/// Two dispatch modes:
///
/// * **manual** — no thread; the test or caller runs
///   [`RankingService::process_pending`] to execute exactly one
///   deterministic pass (determinism and differential tests use this);
/// * **started** — [`RankingService::start`] spawns the dispatcher
///   thread that parks on the doorbell; [`RankingService::shutdown`]
///   (or drop) drains and joins it.
#[derive(Debug)]
pub struct RankingService {
    inner: Arc<ServiceInner>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl RankingService {
    /// Builds a service over an existing (possibly journaled) executor.
    /// Service metrics register on the executor's registry, so one
    /// snapshot covers device and service.
    pub fn new(exec: Arc<Executor>, config: ServiceConfig) -> RankingService {
        // Adopt a recorder already attached to the executor so service
        // and device spans land in the same ring.
        let flight = exec.flight_recorder().cloned();
        RankingService::build(exec, config, flight)
    }

    /// Builds a service with end-to-end causal tracing: creates a
    /// flight recorder from `flight_config`, attaches it to the
    /// executor (device phase spans nest under request spans once
    /// extraction probes are enabled), and stamps every submission with
    /// a root trace context. If the executor already carries a
    /// recorder, that one stays canonical and `flight_config` is
    /// ignored — there is one ring per executor.
    pub fn with_flight(
        exec: Arc<Executor>,
        config: ServiceConfig,
        flight_config: FlightConfig,
    ) -> RankingService {
        exec.attach_flight_recorder(Arc::new(FlightRecorder::new(flight_config)));
        let flight = exec.flight_recorder().cloned();
        RankingService::build(exec, config, flight)
    }

    fn build(
        exec: Arc<Executor>,
        config: ServiceConfig,
        flight: Option<Arc<FlightRecorder>>,
    ) -> RankingService {
        let metrics = ServiceMetrics::register(exec.metrics());
        RankingService {
            inner: Arc::new(ServiceInner {
                exec,
                config,
                doorbell: Doorbell::default(),
                sessions: Mutex::new(Vec::new()),
                sched: Mutex::new(SchedState::default()),
                metrics,
                flight,
                closed: AtomicBool::new(false),
                started: AtomicBool::new(false),
            }),
            worker: Mutex::new(None),
        }
    }

    /// Convenience: a service over a fresh executor for `device`.
    pub fn with_device(device: RimeConfig, config: ServiceConfig) -> RankingService {
        RankingService::new(Arc::new(Executor::new(device)), config)
    }

    /// The flight recorder, when the service was built with one.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.inner.flight.as_ref()
    }

    /// The shared executor (for inspecting device state, counters, and
    /// the metrics registry).
    pub fn executor(&self) -> &Executor {
        &self.inner.exec
    }

    /// Opens a new tenant session with its own SQ/CQ pair. Tenants are
    /// numbered densely from 0 in open order; the number labels the
    /// tenant's metrics series.
    pub fn session(&self) -> SessionHandle {
        let mut sessions = self
            .inner
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let tenant = sessions.len();
        let shared = Arc::new(SessionShared {
            tenant,
            state: Mutex::new(SessionState::default()),
            cv: std::sync::Condvar::new(),
            metrics: TenantMetrics::register(self.inner.exec.metrics(), tenant),
        });
        sessions.push(Arc::clone(&shared));
        drop(sessions);
        SessionHandle {
            shared,
            service: Arc::clone(&self.inner),
        }
    }

    /// Manual-mode dispatch: runs exactly one pass over everything
    /// currently queued and returns the number of commands completed.
    /// Deterministic for a fixed submission history — the determinism
    /// tests drive the service this way.
    pub fn process_pending(&self) -> usize {
        dispatch::pass(&self.inner)
    }

    /// Spawns the dispatcher thread. Idempotent.
    pub fn start(&self) {
        if self.inner.started.swap(true, Ordering::AcqRel) {
            return;
        }
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("rime-service-dispatch".to_string())
            .spawn(move || dispatch::run_dispatcher(inner))
            .expect("spawn dispatcher thread");
        *self.worker.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
    }

    /// Stops accepting submissions, drains everything already
    /// accepted, joins the dispatcher, and wakes every blocked reaper.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.doorbell.close();
        let handle = self
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // Manual mode (or submissions that raced the worker's final
        // pass): drain whatever remains, then wake blocked reapers so
        // they observe the closed service.
        while dispatch::pass(&self.inner) > 0 {}
        let sessions = self
            .inner
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for session in sessions {
            // Fold any attribution observations still sitting in the
            // tenant's shard, so post-shutdown snapshots are exact even
            // for handles the tenant never drops.
            session.lock().attr_shard.flush(&self.inner.metrics);
            session.cv.notify_all();
        }
    }
}

impl Drop for RankingService {
    fn drop(&mut self) {
        self.shutdown();
    }
}
