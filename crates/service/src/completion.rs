//! Completion fan-out and batched posting.
//!
//! Execution produces results in wave order; tenants must see ordinal
//! order. The pass buffers every completion, then posts each tenant's
//! batch sorted by ordinal under one session lock — one lock
//! acquisition and one condvar broadcast per tenant per pass, however
//! many commands completed.
//!
//! Fused results fan out positionally: hit `i` of the `ExtractBatch`
//! answers member `i`, and a short batch (range exhausted mid-group)
//! completes the overflow members with `Hit(None)` — exactly what the
//! same tenants would have seen issuing serial `Extract`s, which
//! return `None` past exhaustion.
//!
//! Posting is also where each completion's submit-to-post latency is
//! observed (`rime_service_latency_ns`); the latency's causal breakdown
//! is recorded at reap time (see `session`).

use std::sync::Arc;
use std::time::Instant;

use rime_core::{Outcome, RimeError};

use crate::fusion::WorkItem;
use crate::session::{Completion, CqTrace, SessionShared};

/// One completed command on its way back to a tenant CQ.
#[derive(Debug)]
pub(crate) struct Completed {
    pub(crate) tenant: usize,
    pub(crate) ordinal: u64,
    pub(crate) enqueued: Instant,
    pub(crate) result: Result<Outcome, RimeError>,
    /// Trace bookkeeping, populated by `dispatch::run_unit` when the
    /// flight recorder is attached.
    pub(crate) trace: Option<CqTrace>,
}

/// Fans one fused `ExtractBatch` result out to the group members.
/// Traces are attached by the caller afterwards (member order is
/// preserved, so a positional zip suffices).
pub(crate) fn fan_out(
    members: Vec<WorkItem>,
    result: Result<Outcome, RimeError>,
) -> Vec<Completed> {
    match result {
        Ok(Outcome::Hits(hits)) => members
            .into_iter()
            .enumerate()
            .map(|(i, m)| Completed {
                tenant: m.tenant,
                ordinal: m.ordinal,
                enqueued: m.enqueued,
                result: Ok(Outcome::Hit(hits.get(i).copied())),
                trace: None,
            })
            .collect(),
        Ok(other) => unreachable!("executor returned {other:?} for ExtractBatch"),
        Err(err) => members
            .into_iter()
            .map(|m| Completed {
                tenant: m.tenant,
                ordinal: m.ordinal,
                enqueued: m.enqueued,
                result: Err(err.clone()),
                trace: None,
            })
            .collect(),
    }
}

/// Posts a pass's completions: grouped per tenant, sorted by ordinal,
/// one lock + notify per tenant. Latency is observed here (submit →
/// post), so queueing delay introduced by coalescing is part of the
/// measured tail.
pub(crate) fn post(sessions: &[Arc<SessionShared>], mut completed: Vec<Completed>) {
    // (tenant, ordinal) pairs are unique, so unstable sorting is
    // observably identical and skips the stable sort's allocation.
    completed.sort_unstable_by_key(|c| (c.tenant, c.ordinal));
    let mut rest = completed.as_slice();
    while let Some(first) = rest.first() {
        let tenant = first.tenant;
        let split = rest.partition_point(|c| c.tenant == tenant);
        let (batch, tail) = rest.split_at(split);
        rest = tail;
        let session = &sessions[tenant];
        let now = Instant::now();
        let mut state = session.lock();
        debug_assert!(state.in_flight >= batch.len(), "in-flight accounting");
        state.in_flight -= batch.len().min(state.in_flight);
        for c in batch {
            let latency = now.duration_since(c.enqueued).as_nanos() as u64;
            session.metrics.latency.observe(latency);
            state.cq.push_back((
                Completion {
                    ordinal: c.ordinal,
                    result: c.result.clone(),
                },
                c.trace,
            ));
        }
        drop(state);
        session.metrics.completions.add(batch.len() as u64);
        session.cv.notify_all();
    }
}
