//! Cross-tenant batch fusion: the service-level analogue of
//! `ExtractBatch`'s per-chip amortization.
//!
//! Within one dispatch pass, single-key `Extract` commands that agree
//! on `(region, format, direction)` are fused into one
//! `ExtractBatch { k }` — one session lock, one per-chip prefill to
//! depth `k`, one select-vector rearm cycle — and the `k` hits are
//! fanned back out to the members in order. PR 1 proved
//! `ExtractBatch { k }` result-identical to `k` serial `Extract`s, so
//! fusion changes cost, never answers.
//!
//! # Eligibility and barriers
//!
//! A group stays open only while it is safe to execute a later member
//! at the group's position in pass order:
//!
//! * Only `Command::Extract` fuses. Everything else is a *barrier* for
//!   its region: any non-`Extract` command targeting region `R`
//!   (`Write`, `Read`, `Init`, `Free`, `ExtractBatch`, `FifoNext`)
//!   closes `R`'s open group, because hoisting an `Extract` across it
//!   would reorder against a command that mutates or drains the same
//!   session.
//! * An `Extract` with a *different* key (other direction or format)
//!   on the same region also closes the open group and opens its own —
//!   a Min extract must not jump over an earlier Max extract on the
//!   same session.
//! * `Alloc` closes nothing: it cannot address an existing region.
//! * Groups cap at `max_fuse` members; the next member opens a fresh
//!   group.
//!
//! Consequently at most one group is open per region at any point in
//! the scan, and a tenant's own commands are never reordered relative
//! to each other on the same region — ordinal-ordered completion
//! posting (see `completion`) then restores full per-tenant program
//! order.
//!
//! Groups that end the scan with a single member are demoted back to
//! plain `Extract` singles: `ExtractBatch { k: 1 }` would return the
//! same hit, but the single-tenant byte-identity contract requires the
//! device to see the *same command stream* a direct caller would issue.

use std::collections::HashMap;
use std::time::Instant;

use rime_core::{Command, Direction, KeyFormat, Region, TraceCtx};

/// Trace state a work item carries from drain to execution: the
/// request's root context plus the already-measured SQ wait, which the
/// eventual completion needs for its attribution breakdown.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ItemTrace {
    /// The request's root trace context (stamped at submit).
    pub(crate) ctx: TraceCtx,
    /// Submit → drain, recorded as the `sq_wait` span at drain time.
    pub(crate) sq_wait_ns: u64,
}

/// One drained submission, tagged with its origin for completion
/// routing.
#[derive(Debug, Clone)]
pub(crate) struct WorkItem {
    /// Dense tenant index (position in the service session list).
    pub(crate) tenant: usize,
    /// The tenant-local submit ordinal.
    pub(crate) ordinal: u64,
    /// Submit timestamp for the latency histogram.
    pub(crate) enqueued: Instant,
    /// The command to execute.
    pub(crate) command: Command<'static>,
    /// Trace carry, when the flight recorder is attached.
    pub(crate) trace: Option<ItemTrace>,
}

/// What makes two `Extract`s fusable: same region, same requested
/// format, same direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FuseKey {
    pub(crate) region: Region,
    pub(crate) format: KeyFormat,
    pub(crate) direction: Direction,
}

/// A schedulable unit: one command, or one fused extract group.
#[derive(Debug, Clone)]
pub(crate) enum WorkUnit {
    /// Executes `item.command` directly.
    Single(WorkItem),
    /// Executes `ExtractBatch { key.region, key.format, key.direction,
    /// k: members.len() }`; hit `i` completes member `i`.
    Fused {
        key: FuseKey,
        members: Vec<WorkItem>,
    },
}

/// Fuses a pass-order command stream into work units, preserving
/// per-region execution order per the barrier rules above. With
/// `max_fuse <= 1` every item becomes a `Single` — the naive
/// per-command dispatch baseline.
pub(crate) fn fuse(items: Vec<WorkItem>, max_fuse: usize) -> Vec<WorkUnit> {
    if max_fuse <= 1 {
        return items.into_iter().map(WorkUnit::Single).collect();
    }
    let mut units: Vec<WorkUnit> = Vec::with_capacity(items.len());
    // region → (key of the open group, its index in `units`). At most
    // one open group per region (see module docs).
    let mut open: HashMap<Region, (FuseKey, usize)> = HashMap::new();
    for item in items {
        if let Command::Extract {
            region,
            format,
            direction,
        } = item.command
        {
            let key = FuseKey {
                region,
                format,
                direction,
            };
            let joined = match open.get(&region) {
                Some((open_key, idx)) if *open_key == key => {
                    if let WorkUnit::Fused { members, .. } = &mut units[*idx] {
                        if members.len() < max_fuse {
                            members.push(item.clone());
                            true
                        } else {
                            false
                        }
                    } else {
                        false
                    }
                }
                _ => false,
            };
            if !joined {
                // Different key (or full group): the old group closes —
                // later same-key extracts must not hop over this one.
                open.insert(region, (key, units.len()));
                units.push(WorkUnit::Fused {
                    key,
                    members: vec![item],
                });
            }
        } else {
            // Barrier for the addressed region. Alloc addresses none.
            if let Some(region) = item.command.region() {
                open.remove(&region);
            }
            units.push(WorkUnit::Single(item));
        }
    }
    // Demote singleton groups to plain Extract singles.
    units
        .into_iter()
        .map(|unit| match unit {
            WorkUnit::Fused { mut members, .. } if members.len() == 1 => {
                WorkUnit::Single(members.pop().expect("len checked"))
            }
            other => other,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(id_seed: u64) -> Region {
        // Regions are only comparable by value here; fabricate distinct
        // ones through the public API of a tiny device.
        crate::tests_support::region(id_seed)
    }

    fn extract(tenant: usize, ordinal: u64, r: Region, direction: Direction) -> WorkItem {
        WorkItem {
            tenant,
            ordinal,
            enqueued: Instant::now(),
            command: Command::Extract {
                region: r,
                format: KeyFormat::UNSIGNED64,
                direction,
            },
            trace: None,
        }
    }

    fn write(tenant: usize, ordinal: u64, r: Region) -> WorkItem {
        WorkItem {
            tenant,
            ordinal,
            enqueued: Instant::now(),
            command: Command::Write {
                region: r,
                offset: 0,
                raw: std::borrow::Cow::Owned(vec![1]),
                format: KeyFormat::UNSIGNED64,
            },
            trace: None,
        }
    }

    fn kinds(units: &[WorkUnit]) -> Vec<String> {
        units
            .iter()
            .map(|u| match u {
                WorkUnit::Single(i) => format!("s:{}", i.command.kind()),
                WorkUnit::Fused { members, .. } => format!("f:{}", members.len()),
            })
            .collect()
    }

    #[test]
    fn same_key_extracts_fuse_across_tenants() {
        let r = region(1);
        let items = (0..5)
            .map(|t| extract(t, 0, r, Direction::Min))
            .collect::<Vec<_>>();
        let units = fuse(items, 64);
        assert_eq!(kinds(&units), ["f:5"]);
        let WorkUnit::Fused { members, key } = &units[0] else {
            panic!("fused")
        };
        assert_eq!(key.direction, Direction::Min);
        // Members keep pass order.
        assert_eq!(
            members.iter().map(|m| m.tenant).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn direction_change_is_a_barrier() {
        let r = region(1);
        let items = vec![
            extract(0, 0, r, Direction::Min),
            extract(1, 0, r, Direction::Max),
            extract(2, 0, r, Direction::Min),
        ];
        // The trailing Min must NOT join the leading Min group — the Max
        // between them would be reordered.
        assert_eq!(
            kinds(&fuse(items, 64)),
            ["s:extract", "s:extract", "s:extract"]
        );
    }

    #[test]
    fn non_extract_on_same_region_is_a_barrier() {
        let r = region(1);
        let items = vec![
            extract(0, 0, r, Direction::Min),
            extract(1, 0, r, Direction::Min),
            write(2, 0, r),
            extract(0, 1, r, Direction::Min),
            extract(1, 1, r, Direction::Min),
        ];
        assert_eq!(kinds(&fuse(items, 64)), ["f:2", "s:write", "f:2"]);
    }

    #[test]
    fn other_regions_fuse_independently_through_barriers() {
        let (ra, rb) = (region(1), region(2));
        let items = vec![
            extract(0, 0, ra, Direction::Min),
            extract(1, 0, rb, Direction::Min),
            write(2, 0, ra),
            extract(0, 1, ra, Direction::Min),
            extract(1, 1, rb, Direction::Min),
        ];
        // rb's group spans the write barrier on ra; ra's does not.
        assert_eq!(
            kinds(&fuse(items, 64)),
            ["s:extract", "f:2", "s:write", "s:extract"]
        );
    }

    #[test]
    fn max_fuse_caps_group_size() {
        let r = region(1);
        let items = (0..7)
            .map(|i| extract(i % 3, i as u64, r, Direction::Min))
            .collect::<Vec<_>>();
        assert_eq!(kinds(&fuse(items, 3)), ["f:3", "f:3", "s:extract"]);
    }

    #[test]
    fn disabled_fusion_yields_naive_singles() {
        let r = region(1);
        let items = (0..4)
            .map(|t| extract(t, 0, r, Direction::Min))
            .collect::<Vec<_>>();
        for max_fuse in [0, 1] {
            assert!(fuse(items.clone(), max_fuse)
                .iter()
                .all(|u| matches!(u, WorkUnit::Single(_))));
        }
    }
}
