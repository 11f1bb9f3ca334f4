//! The doorbell: the one synchronization point between submitters and
//! the dispatcher.
//!
//! Tenants ring after enqueuing into their submission queue; the
//! dispatcher parks on [`Doorbell::wait`] and is handed the *number of
//! rings* it slept through. That count is the coalescing signal — one
//! wakeup that drains 32 rings means 32 submissions shared a single
//! dispatch pass (one drain, one fusion scan, one completion post)
//! instead of paying the per-command path 32 times. This is the
//! same trick an NVMe driver plays with its SQ doorbell register:
//! writes are cheap, the expensive work happens once per wakeup.

use std::sync::{Condvar, Mutex, PoisonError};

/// What a dispatcher wakeup means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wakeup {
    /// The doorbell rang `n` times since the last wakeup; run one
    /// dispatch pass covering all of them.
    Rang(u64),
    /// The service is shutting down and every prior ring has been
    /// consumed; run a final drain pass and exit.
    Closed,
}

#[derive(Debug, Default)]
struct DoorbellState {
    /// Rings since the last `wait` return (the coalescing counter).
    pending: u64,
    /// Set once by `close`; never cleared.
    closed: bool,
}

/// A counting doorbell with shutdown.
///
/// `ring` is wait-free apart from one short mutex; `wait` blocks until
/// at least one ring (or close) and atomically takes the whole pending
/// count, so N rings while the dispatcher was busy collapse into one
/// wakeup.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    state: Mutex<DoorbellState>,
    cv: Condvar,
}

impl Doorbell {
    /// Records one submission and wakes the dispatcher if it is parked.
    pub(crate) fn ring(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.pending = state.pending.saturating_add(1);
        drop(state);
        self.cv.notify_one();
    }

    /// Marks the service closed and wakes everyone.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Parks until the doorbell rings or the service closes. Pending
    /// rings are always drained before `Closed` is reported, so no
    /// submission that rang before `close` can be lost.
    pub(crate) fn wait(&self) -> Wakeup {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.pending > 0 {
                let n = state.pending;
                state.pending = 0;
                return Wakeup::Rang(n);
            }
            if state.closed {
                return Wakeup::Closed;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Nonblocking variant for manual-mode dispatch: takes whatever is
    /// pending without parking.
    pub(crate) fn take_pending(&self) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut state.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rings_coalesce_into_one_wakeup() {
        let bell = Doorbell::default();
        for _ in 0..7 {
            bell.ring();
        }
        assert_eq!(bell.wait(), Wakeup::Rang(7));
        assert_eq!(bell.take_pending(), 0);
    }

    #[test]
    fn close_drains_pending_rings_first() {
        let bell = Doorbell::default();
        bell.ring();
        bell.close();
        assert_eq!(bell.wait(), Wakeup::Rang(1), "ring before close is kept");
        assert_eq!(bell.wait(), Wakeup::Closed);
        assert_eq!(bell.wait(), Wakeup::Closed, "closed is sticky");
    }

    #[test]
    fn wait_wakes_on_ring_from_another_thread() {
        let bell = Arc::new(Doorbell::default());
        let waiter = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.wait())
        };
        bell.ring();
        assert!(matches!(waiter.join().expect("waiter"), Wakeup::Rang(_)));
    }
}
