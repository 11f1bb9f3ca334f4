//! Typed event counters — the performance layer's source of truth.
//!
//! Every functional operation on the chip model increments these counters;
//! [`crate::timing::ArrayTiming`] and the higher-level performance models in
//! `rime-core` convert them into time and energy. Keeping the counters on
//! the functional path guarantees the performance numbers describe exactly
//! the work the bit-accurate model performed.

use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Operation counts accumulated by a chip (or aggregated across chips).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Global column-search steps (one per bit position examined).
    pub column_search_steps: u64,
    /// Per-mat column searches (steps × active mats) — energy scales with
    /// this, latency with `column_search_steps`.
    pub mat_column_searches: u64,
    /// Row reads (result readout and normal-mode loads).
    pub row_reads: u64,
    /// Row writes (stores; the only wear-inducing operation, §VII-C).
    pub row_writes: u64,
    /// Select-vector loads (match vector latched into select latches).
    pub select_loads: u64,
    /// H-tree reduction traversals (one per index computation).
    pub htree_traversals: u64,
    /// Select-vector initializations (`rime_init`-driven range walks).
    pub init_ops: u64,
    /// Completed min/max extractions.
    pub extractions: u64,
}

impl OpCounters {
    /// A zeroed counter set.
    pub fn new() -> OpCounters {
        OpCounters::default()
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = OpCounters::default();
    }

    /// Counter-wise difference `self - earlier`, saturating at zero.
    ///
    /// Used by the command executor to turn two snapshots of a chip's
    /// monotonically increasing counters into the per-command delta it
    /// records. Saturation makes the helper total:
    /// a reset between snapshots yields zeros instead of wrapping.
    pub fn delta_since(&self, earlier: &OpCounters) -> OpCounters {
        OpCounters {
            column_search_steps: self
                .column_search_steps
                .saturating_sub(earlier.column_search_steps),
            mat_column_searches: self
                .mat_column_searches
                .saturating_sub(earlier.mat_column_searches),
            row_reads: self.row_reads.saturating_sub(earlier.row_reads),
            row_writes: self.row_writes.saturating_sub(earlier.row_writes),
            select_loads: self.select_loads.saturating_sub(earlier.select_loads),
            htree_traversals: self
                .htree_traversals
                .saturating_sub(earlier.htree_traversals),
            init_ops: self.init_ops.saturating_sub(earlier.init_ops),
            extractions: self.extractions.saturating_sub(earlier.extractions),
        }
    }

    /// Total array-level accesses of any kind (useful for sanity checks).
    pub fn total_events(&self) -> u64 {
        self.column_search_steps
            + self.mat_column_searches
            + self.row_reads
            + self.row_writes
            + self.select_loads
            + self.htree_traversals
            + self.init_ops
            + self.extractions
    }
}

impl Add for OpCounters {
    type Output = OpCounters;

    fn add(mut self, rhs: OpCounters) -> OpCounters {
        self += rhs;
        self
    }
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, rhs: OpCounters) {
        self.column_search_steps += rhs.column_search_steps;
        self.mat_column_searches += rhs.mat_column_searches;
        self.row_reads += rhs.row_reads;
        self.row_writes += rhs.row_writes;
        self.select_loads += rhs.select_loads;
        self.htree_traversals += rhs.htree_traversals;
        self.init_ops += rhs.init_ops;
        self.extractions += rhs.extractions;
    }
}

impl Sub for OpCounters {
    type Output = OpCounters;

    fn sub(self, rhs: OpCounters) -> OpCounters {
        self.delta_since(&rhs)
    }
}

impl SubAssign for OpCounters {
    fn sub_assign(&mut self, rhs: OpCounters) {
        *self = self.delta_since(&rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut a = OpCounters::new();
        a.row_reads = 3;
        a.extractions = 1;
        let mut b = OpCounters::new();
        b.row_reads = 2;
        b.column_search_steps = 64;
        let c = a + b;
        assert_eq!(c.row_reads, 5);
        assert_eq!(c.column_search_steps, 64);
        assert_eq!(c.extractions, 1);
    }

    #[test]
    fn reset_zeroes() {
        let mut a = OpCounters::new();
        a.row_writes = 9;
        a.reset();
        assert_eq!(a, OpCounters::default());
        assert_eq!(a.total_events(), 0);
    }

    #[test]
    fn delta_since_is_fieldwise_and_saturating() {
        let mut before = OpCounters::new();
        before.row_reads = 3;
        before.extractions = 2;
        let mut after = before;
        after.row_reads = 7;
        after.select_loads = 5;
        let d = after - before;
        assert_eq!(d.row_reads, 4);
        assert_eq!(d.select_loads, 5);
        assert_eq!(d.extractions, 0);
        // A reset between snapshots saturates to zero instead of wrapping.
        let zeroed = OpCounters::new();
        assert_eq!(zeroed.delta_since(&before), OpCounters::default());
        let mut acc = after;
        acc -= before;
        assert_eq!(acc, d);
    }

    #[test]
    fn total_events_sums_everything() {
        let mut a = OpCounters::new();
        a.column_search_steps = 1;
        a.mat_column_searches = 2;
        a.row_reads = 3;
        a.row_writes = 4;
        a.select_loads = 5;
        a.htree_traversals = 6;
        a.init_ops = 7;
        a.extractions = 8;
        assert_eq!(a.total_events(), 36);
    }
}
