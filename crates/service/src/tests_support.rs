//! Unit-test helpers: `Region` values are only mintable through a live
//! executor (their fields are private to `rime-core`), so fabricate
//! them from a scratch device. Fresh executors hand out identical
//! region sequences, so `region(n)` is stable across calls.

use rime_core::{Command, Executor, Outcome, Region, RimeConfig};

/// The `n`-th region a fresh small device would allocate (one chip
/// each) — a stable, distinct-by-`n` region value for pure-function
/// tests.
pub(crate) fn region(n: u64) -> Region {
    let exec = Executor::new(RimeConfig::small());
    let chip_slots = exec.config().chip_slots();
    let mut last = None;
    for _ in 0..=n {
        match exec.execute(Command::Alloc { len: chip_slots }) {
            Ok(Outcome::Region(region)) => last = Some(region),
            other => panic!("alloc failed: {other:?}"),
        }
    }
    last.expect("at least one allocation")
}
