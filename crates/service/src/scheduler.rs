//! Fairness: deficit-round-robin SQ draining.
//!
//! Each pass drains the tenant SQs into one interleaved pass-order
//! stream. Tenants take turns in a rotating order (the cursor advances
//! one tenant per pass so no tenant is permanently first); on its turn
//! a tenant's deficit grows by the quantum and it releases one command
//! per unit of deficit. With unit-cost commands this is quantum-batched
//! round robin — a flooding tenant cannot starve a trickling one, and
//! the quantum trades fusion adjacency (longer same-tenant runs fuse
//! into deeper batches) against interleave granularity.

use std::collections::VecDeque;

use crate::fusion::WorkItem;

/// Drains per-tenant FIFO queues into one fair pass-order stream.
/// `queues[i]` belongs to tenant slot `i`; `cursor` picks who goes
/// first this pass.
pub(crate) fn drr_drain(
    mut queues: Vec<VecDeque<WorkItem>>,
    cursor: usize,
    quantum: u64,
) -> Vec<WorkItem> {
    let n = queues.len();
    let total: usize = queues.iter().map(VecDeque::len).sum();
    let mut out = Vec::with_capacity(total);
    if n == 0 {
        return out;
    }
    let quantum = quantum.max(1);
    let mut deficit = vec![0u64; n];
    while out.len() < total {
        for step in 0..n {
            let i = (cursor + step) % n;
            if queues[i].is_empty() {
                // An idle tenant banks nothing (classic DRR: deficit
                // resets when the queue is empty).
                deficit[i] = 0;
                continue;
            }
            deficit[i] += quantum;
            while deficit[i] > 0 {
                match queues[i].pop_front() {
                    Some(item) => {
                        deficit[i] -= 1;
                        out.push(item);
                    }
                    None => {
                        deficit[i] = 0;
                        break;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rime_core::Command;
    use std::time::Instant;

    fn item(tenant: usize, ordinal: u64) -> WorkItem {
        WorkItem {
            tenant,
            ordinal,
            enqueued: Instant::now(),
            command: Command::Alloc { len: 1 },
            trace: None,
        }
    }

    fn order(items: &[WorkItem]) -> Vec<(usize, u64)> {
        items.iter().map(|i| (i.tenant, i.ordinal)).collect()
    }

    #[test]
    fn drr_interleaves_a_flood_against_a_trickle() {
        let flood: VecDeque<WorkItem> = (0..6).map(|k| item(0, k)).collect();
        let trickle: VecDeque<WorkItem> = (0..2).map(|k| item(1, k)).collect();
        let out = drr_drain(vec![flood, trickle], 0, 2);
        // Quantum 2: two from the flood, two from the trickle, then the
        // flood's remainder. The trickle never waits behind the whole
        // flood.
        assert_eq!(
            order(&out),
            [
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5)
            ]
        );
    }

    #[test]
    fn drr_cursor_rotates_first_turn() {
        let a: VecDeque<WorkItem> = (0..1).map(|k| item(0, k)).collect();
        let b: VecDeque<WorkItem> = (0..1).map(|k| item(1, k)).collect();
        let out = drr_drain(vec![a.clone(), b.clone()], 1, 4);
        assert_eq!(
            order(&out),
            [(1, 0), (0, 0)],
            "cursor 1 serves tenant 1 first"
        );
        let out = drr_drain(vec![a, b], 0, 4);
        assert_eq!(order(&out), [(0, 0), (1, 0)]);
    }

    #[test]
    fn drr_preserves_per_tenant_fifo() {
        let a: VecDeque<WorkItem> = (0..5).map(|k| item(0, k)).collect();
        let b: VecDeque<WorkItem> = (0..5).map(|k| item(1, k)).collect();
        let out = drr_drain(vec![a, b], 0, 3);
        for tenant in 0..2 {
            let ordinals: Vec<u64> = out
                .iter()
                .filter(|i| i.tenant == tenant)
                .map(|i| i.ordinal)
                .collect();
            assert_eq!(ordinals, [0, 1, 2, 3, 4], "tenant {tenant} stays FIFO");
        }
    }
}
