//! The RIME driver's contiguous physical allocator (§V, Fig. 13).
//!
//! The tree-based index reduction only works over *physically contiguous*
//! mats, so `rime_malloc` must return physically contiguous extents — the
//! opposite of an ordinary page allocator, which happily scatters a
//! virtually contiguous buffer. The paper's driver achieves this by
//! reserving a block of contiguous physical pages at `mmap` time, growing
//! the reservation by a tunable increment when it fills, and *failing*
//! (null pointer) when fragmentation leaves no hole big enough — the user
//! is expected to `rime_free` and retry.
//!
//! [`ContiguousAllocator`] reproduces that behaviour over an abstract
//! key-slot space: first-fit allocation within the reserved watermark,
//! extent coalescing on free, incremental reservation growth, and
//! truthful [`RimeError::OutOfContiguousMemory`] failures.

use std::collections::HashMap;

use crate::error::RimeError;

/// Driver tunables (§V: "the driver has tunable parameters to specify the
/// number of pages that should be reserved on startup during an mmap call,
/// and the number of additional pages to reserve when the initially
/// reserved block gets full").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Key slots per physical page.
    pub page_slots: u64,
    /// Pages reserved at startup.
    pub startup_pages: u64,
    /// Additional pages reserved when the current reservation fills.
    pub growth_pages: u64,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            page_slots: 512, // a 4 KiB page of 8-byte keys
            startup_pages: 64,
            growth_pages: 16,
        }
    }
}

/// First-fit contiguous extent allocator over the RIME region.
#[derive(Debug, Clone)]
pub struct ContiguousAllocator {
    config: DriverConfig,
    total_slots: u64,
    reserved_slots: u64,
    /// Sorted, disjoint, coalesced free extents within the reservation.
    free: Vec<(u64, u64)>,
    /// Live allocations: start → length.
    live: HashMap<u64, u64>,
}

impl ContiguousAllocator {
    /// Creates an allocator over `total_slots` physical key slots.
    pub fn new(total_slots: u64, config: DriverConfig) -> ContiguousAllocator {
        let reserved = (config.startup_pages * config.page_slots).min(total_slots);
        let free = if reserved > 0 {
            vec![(0, reserved)]
        } else {
            Vec::new()
        };
        ContiguousAllocator {
            config,
            total_slots,
            reserved_slots: reserved,
            free,
            live: HashMap::new(),
        }
    }

    /// Total physical slots managed.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Slots currently reserved from the OS.
    pub fn reserved_slots(&self) -> u64 {
        self.reserved_slots
    }

    /// Slots currently allocated to callers.
    pub fn allocated_slots(&self) -> u64 {
        self.live.values().sum()
    }

    /// Size of the largest free contiguous extent, counting the
    /// not-yet-reserved tail (which could be reserved on demand).
    pub fn largest_free(&self) -> u64 {
        let tail_unreserved = self.total_slots - self.reserved_slots;
        let tail = match self.free.last() {
            Some(&(start, len)) if start + len == self.reserved_slots => len + tail_unreserved,
            _ => tail_unreserved,
        };
        self.free
            .iter()
            .map(|&(_, len)| len)
            .chain(std::iter::once(tail))
            .max()
            .unwrap_or(0)
    }

    /// Number of free extents (fragmentation indicator).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }

    /// The sorted, coalesced free list (checkpoint marshalling).
    pub(crate) fn free_extents(&self) -> &[(u64, u64)] {
        &self.free
    }

    /// Live allocations as sorted `(start, len)` pairs — the canonical
    /// order checkpoints and the crash harness's allocation-map
    /// fingerprint both use.
    pub(crate) fn live_allocations(&self) -> Vec<(u64, u64)> {
        let mut live: Vec<(u64, u64)> = self.live.iter().map(|(&s, &l)| (s, l)).collect();
        live.sort_unstable();
        live
    }

    /// Rebuilds an allocator from checkpointed parts, which the caller
    /// has checked: the free and live extents tile the reservation,
    /// which fits `total_slots`. `config` comes from the device
    /// configuration, not the checkpoint.
    pub(crate) fn from_parts(
        config: DriverConfig,
        total_slots: u64,
        reserved_slots: u64,
        free: Vec<(u64, u64)>,
        live: Vec<(u64, u64)>,
    ) -> ContiguousAllocator {
        ContiguousAllocator {
            config,
            total_slots,
            reserved_slots,
            free,
            live: live.into_iter().collect(),
        }
    }

    /// `rime_malloc`: allocates `len` physically contiguous slots.
    ///
    /// # Errors
    ///
    /// [`RimeError::OutOfContiguousMemory`] when fragmentation (or
    /// exhaustion) leaves no hole of `len` slots even after growing the
    /// reservation.
    pub fn alloc(&mut self, len: u64) -> Result<u64, RimeError> {
        if len == 0 || len > self.total_slots {
            return Err(RimeError::OutOfContiguousMemory {
                requested: len,
                largest_free: self.largest_free(),
            });
        }
        loop {
            if let Some(idx) = self.free.iter().position(|&(_, flen)| flen >= len) {
                let (start, flen) = self.free[idx];
                if flen == len {
                    self.free.remove(idx);
                } else {
                    self.free[idx] = (start + len, flen - len);
                }
                self.live.insert(start, len);
                return Ok(start);
            }
            if !self.grow_reservation() {
                return Err(RimeError::OutOfContiguousMemory {
                    requested: len,
                    largest_free: self.largest_free(),
                });
            }
        }
    }

    /// Grows the reservation by the configured increment (or as much as
    /// remains). Returns `false` when fully reserved already.
    fn grow_reservation(&mut self) -> bool {
        if self.reserved_slots >= self.total_slots {
            return false;
        }
        let grow = (self.config.growth_pages * self.config.page_slots)
            .max(1)
            .min(self.total_slots - self.reserved_slots);
        let start = self.reserved_slots;
        self.reserved_slots += grow;
        self.insert_free(start, grow);
        true
    }

    /// `rime_free`: releases the allocation starting at `start`.
    ///
    /// # Errors
    ///
    /// [`RimeError::InvalidRegion`] if `start` is not a live allocation.
    pub fn free(&mut self, start: u64) -> Result<(), RimeError> {
        let len = self.live.remove(&start).ok_or(RimeError::InvalidRegion)?;
        self.insert_free(start, len);
        Ok(())
    }

    fn insert_free(&mut self, start: u64, len: u64) {
        let idx = self.free.partition_point(|&(s, _)| s < start);
        self.free.insert(idx, (start, len));
        // Coalesce with the right neighbor, then the left.
        if idx + 1 < self.free.len() {
            let (s, l) = self.free[idx];
            let (ns, nl) = self.free[idx + 1];
            if s + l == ns {
                self.free[idx] = (s, l + nl);
                self.free.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (ps, pl) = self.free[idx - 1];
            let (s, l) = self.free[idx];
            if ps + pl == s {
                self.free[idx - 1] = (ps, pl + l);
                self.free.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_with(total: u64) -> ContiguousAllocator {
        ContiguousAllocator::new(
            total,
            DriverConfig {
                page_slots: 16,
                startup_pages: 4,
                growth_pages: 2,
            },
        )
    }

    #[test]
    fn alloc_is_contiguous_and_disjoint() {
        let mut a = alloc_with(1024);
        let r1 = a.alloc(40).unwrap();
        let r2 = a.alloc(24).unwrap();
        assert!(r1 + 40 <= r2 || r2 + 24 <= r1);
        assert_eq!(a.allocated_slots(), 64);
    }

    #[test]
    fn free_coalesces_neighbors() {
        let mut a = alloc_with(1024);
        let r1 = a.alloc(16).unwrap();
        let r2 = a.alloc(16).unwrap();
        let r3 = a.alloc(16).unwrap();
        a.free(r2).unwrap();
        a.free(r1).unwrap();
        a.free(r3).unwrap();
        assert_eq!(a.fragments(), 1, "all extents coalesced");
        assert_eq!(a.allocated_slots(), 0);
    }

    #[test]
    fn fragmentation_fails_big_alloc_until_free() {
        // 64 reserved startup slots, total 64 → no growth possible.
        let mut a = ContiguousAllocator::new(
            64,
            DriverConfig {
                page_slots: 16,
                startup_pages: 4,
                growth_pages: 2,
            },
        );
        let r1 = a.alloc(32).unwrap();
        let _r2 = a.alloc(32).unwrap();
        a.free(r1).unwrap();
        // 32 free but fragmented? Actually contiguous; ask for more.
        let err = a.alloc(48).unwrap_err();
        assert!(matches!(
            err,
            RimeError::OutOfContiguousMemory {
                requested: 48,
                largest_free: 32
            }
        ));
        // §V: free and retry succeeds.
        assert!(a.alloc(32).is_ok());
    }

    #[test]
    fn reservation_grows_on_demand() {
        let mut a = alloc_with(1024);
        assert_eq!(a.reserved_slots(), 64);
        let _ = a.alloc(200).unwrap();
        assert!(a.reserved_slots() >= 200);
        assert!(a.reserved_slots() < 1024, "grows incrementally");
    }

    #[test]
    fn exhaustion_reports_largest_hole() {
        let mut a = alloc_with(128);
        let _r1 = a.alloc(128).unwrap();
        let err = a.alloc(1).unwrap_err();
        assert!(matches!(
            err,
            RimeError::OutOfContiguousMemory {
                largest_free: 0,
                ..
            }
        ));
    }

    #[test]
    fn double_free_rejected() {
        let mut a = alloc_with(128);
        let r = a.alloc(8).unwrap();
        a.free(r).unwrap();
        assert_eq!(a.free(r), Err(RimeError::InvalidRegion));
    }

    #[test]
    fn zero_len_alloc_rejected() {
        let mut a = alloc_with(128);
        assert!(a.alloc(0).is_err());
    }

    #[test]
    fn first_fit_reuses_holes() {
        let mut a = alloc_with(1024);
        let r1 = a.alloc(16).unwrap();
        let _r2 = a.alloc(16).unwrap();
        a.free(r1).unwrap();
        let r3 = a.alloc(8).unwrap();
        assert_eq!(r3, r1, "first fit reuses the freed hole");
    }

    #[test]
    fn largest_free_counts_unreserved_tail() {
        let a = alloc_with(1024);
        assert_eq!(a.largest_free(), 1024);
    }
}
