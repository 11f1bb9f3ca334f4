//! The dispatch pass: one doorbell wakeup's worth of work.
//!
//! A pass is the unit of amortization. Whatever accumulated in the
//! tenant SQs since the last wakeup is drained fairly (DRR), fused
//! (cross-tenant `Extract` → `ExtractBatch`), executed one unit after
//! another in pass order on the thread running the pass, and
//! completion-posted in one sweep — the fixed costs (fusion scan,
//! per-tenant CQ lock and broadcast) are paid once per pass instead of
//! once per command.
//!
//! Passes serialize on the scheduler lock, so manual-mode
//! `process_pending` and a started dispatcher thread can coexist
//! without interleaving half-passes.
//!
//! # Trace emission
//!
//! With a flight recorder attached, the pass is where a request's
//! latency gets tiled: `sq_wait` ends when the pass drains the SQs
//! (one clock read per pass, shared by every drained item); the drain
//! → unit-execution gap becomes `drr_defer` when the unit ran behind an
//! earlier unit of its pass, and otherwise `fusion_wait` (fused unit)
//! or `drain` (single); execution itself is `dispatch`. The pass only
//! *measures* these phases — the durations ride the CQ entry and the
//! spans are recorded at reap time on the tenant's thread (see
//! `session`), keeping ring pushes off the dispatcher's critical path.
//! The dispatcher records just what it alone witnesses: a fused unit's
//! root span and the `link` events naming every absorbed member — the
//! causal record of the fusion decision. Recorder off, every trace site
//! is one pointer test.

use std::collections::VecDeque;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use rime_core::flight::dur_ns as ns;
use rime_core::{Command, Executor, FlightRecorder, PhaseTag};

use crate::completion::{self, Completed};
use crate::fusion::{self, ItemTrace, WorkItem, WorkUnit};
use crate::ring::Wakeup;
use crate::scheduler;
use crate::session::{CqTrace, Submission};
use crate::ServiceInner;

/// Trace context one unit executes under: the recorder, the pass's
/// drain timestamp (start of every queue-wait span), and whether an
/// earlier unit of the pass ran first (the unit was DRR-deferred).
struct FlightPass<'a> {
    recorder: &'a FlightRecorder,
    drained_at: Instant,
    deferred: bool,
}

impl FlightPass<'_> {
    /// Measures the queue-wait and dispatch phases shared by every
    /// member of one executed unit: `(queue_wait_ns, queue_phase,
    /// dispatch_ns)` — pure arithmetic, computed once per unit no
    /// matter how many members share it. `fused` tags the queue wait
    /// as fused-group formation rather than plain drain.
    fn unit_phases(&self, exec_start: Instant, done: Instant, fused: bool) -> (u64, PhaseTag, u64) {
        let queue_phase = if self.deferred {
            PhaseTag::DrrDefer
        } else if fused {
            PhaseTag::FusionWait
        } else {
            PhaseTag::Drain
        };
        (
            ns(exec_start.saturating_duration_since(self.drained_at)),
            queue_phase,
            ns(done.saturating_duration_since(exec_start)),
        )
    }
}

/// Runs one dispatch pass. Returns the number of commands completed
/// (0 when every SQ was empty).
pub(crate) fn pass(inner: &ServiceInner) -> usize {
    let mut sched = inner.sched.lock().unwrap_or_else(PoisonError::into_inner);
    // Consume the rings this pass will cover. Submissions that land
    // after this point may still be drained below; their leftover ring
    // just triggers one extra (likely empty) pass — never a lost
    // command.
    let _ = inner.doorbell.take_pending();
    let sessions = {
        let list = inner
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        list.clone()
    };

    let flight = inner.flight.as_deref();
    // One clock read bounds sq_wait for every item this pass drains.
    let drained_at = flight.map(|_| Instant::now());

    // Drain every SQ whole; fairness comes from the DRR interleave
    // below, and admission control bounds the total at
    // tenants × queue_depth.
    let mut queues: Vec<VecDeque<WorkItem>> = Vec::with_capacity(sessions.len());
    for session in &sessions {
        let mut state = session.lock();
        let taken = std::mem::take(&mut state.sq);
        state.in_flight += taken.len();
        drop(state);
        queues.push(
            taken
                .into_iter()
                .map(|sub: Submission| {
                    let trace = match (drained_at, sub.ctx) {
                        (Some(t1), Some(ctx)) => Some(ItemTrace {
                            ctx,
                            sq_wait_ns: ns(t1.saturating_duration_since(sub.enqueued)),
                        }),
                        _ => None,
                    };
                    WorkItem {
                        tenant: session.tenant,
                        ordinal: sub.ordinal,
                        enqueued: sub.enqueued,
                        command: sub.command,
                        trace,
                    }
                })
                .collect(),
        );
    }
    let total: usize = queues.iter().map(VecDeque::len).sum();
    if total == 0 {
        return 0;
    }
    inner.metrics.passes.inc();
    inner.metrics.drained.add(total as u64);

    let order = scheduler::drr_drain(queues, sched.cursor, inner.config.drr_quantum);
    sched.cursor = sched.cursor.wrapping_add(1);

    let mut completed: Vec<Completed> = Vec::with_capacity(total);
    let units = fusion::fuse(order, inner.config.max_fuse);
    for (position, unit) in units.into_iter().enumerate() {
        if let WorkUnit::Fused { members, .. } = &unit {
            inner.metrics.fused_batches.inc();
            inner.metrics.fused_commands.add(members.len() as u64);
        }
        let fp = match (flight, drained_at) {
            (Some(recorder), Some(drained_at)) => Some(FlightPass {
                recorder,
                drained_at,
                deferred: position > 0,
            }),
            _ => None,
        };
        completed.extend(run_unit(&inner.exec, unit, fp.as_ref()));
    }

    completion::post(&sessions, completed);
    total
}

/// Executes one work unit against the shared executor.
fn run_unit(exec: &Executor, unit: WorkUnit, fp: Option<&FlightPass<'_>>) -> Vec<Completed> {
    match unit {
        WorkUnit::Single(item) => {
            let WorkItem {
                tenant,
                ordinal,
                enqueued,
                command,
                trace,
            } = item;
            let exec_start = fp.map(|_| Instant::now());
            let result = exec.execute_traced(command, trace.map(|t| t.ctx));
            let trace = match (fp, exec_start, trace) {
                (Some(fp), Some(start), Some(trace)) => {
                    let done = Instant::now();
                    let (queue_wait_ns, queue_phase, dispatch_ns) =
                        fp.unit_phases(start, done, false);
                    Some(CqTrace {
                        ctx: trace.ctx,
                        enqueued,
                        sq_wait_ns: trace.sq_wait_ns,
                        queue_wait_ns,
                        queue_phase,
                        dispatch_ns,
                        done,
                    })
                }
                _ => None,
            };
            vec![Completed {
                tenant,
                ordinal,
                enqueued,
                result,
                trace,
            }]
        }
        WorkUnit::Fused { key, members } => {
            // The fused batch gets its own root span; `link` events
            // name each absorbed member's root span — the N links are
            // exactly the fused group, so a trace viewer (or the
            // propagation proptest) can recover the fusion partition.
            // The umbrella span and all links are recorded together
            // after execution, in one batched ring transaction.
            let fused_ctx = fp.map(|fp| fp.recorder.root());
            let exec_start = fp.map(|_| Instant::now());
            let result = exec.execute_traced(
                Command::ExtractBatch {
                    region: key.region,
                    format: key.format,
                    direction: key.direction,
                    k: members.len(),
                },
                fused_ctx,
            );
            let traces: Option<Vec<Option<CqTrace>>> = match (fp, exec_start, fused_ctx) {
                (Some(fp), Some(start), Some(fused)) => {
                    let done = Instant::now();
                    let (queue_wait_ns, queue_phase, dispatch_ns) =
                        fp.unit_phases(start, done, true);
                    fp.recorder.record_fused(
                        fused,
                        fp.recorder.ns_since(start),
                        dispatch_ns,
                        members.iter().filter_map(|m| {
                            m.trace.map(|t| (t.ctx.span, m.tenant as u32, m.ordinal))
                        }),
                    );
                    Some(
                        members
                            .iter()
                            .map(|m| {
                                m.trace.map(|t| CqTrace {
                                    ctx: t.ctx,
                                    enqueued: m.enqueued,
                                    sq_wait_ns: t.sq_wait_ns,
                                    queue_wait_ns,
                                    queue_phase,
                                    dispatch_ns,
                                    done,
                                })
                            })
                            .collect(),
                    )
                }
                _ => None,
            };
            let mut out = completion::fan_out(members, result);
            if let Some(traces) = traces {
                // fan_out preserves member order; zip re-attaches each
                // member's trace carry.
                for (c, t) in out.iter_mut().zip(traces) {
                    c.trace = t;
                }
            }
            out
        }
    }
}

/// The started-mode dispatcher loop: park on the doorbell, run a pass
/// per wakeup, and drain once more on shutdown so no accepted
/// submission is dropped.
pub(crate) fn run_dispatcher(inner: Arc<ServiceInner>) {
    loop {
        match inner.doorbell.wait() {
            Wakeup::Rang(_) => {
                pass(&inner);
            }
            Wakeup::Closed => {
                pass(&inner);
                break;
            }
        }
    }
}
