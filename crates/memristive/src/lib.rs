//! # rime-memristive
//!
//! Bit-accurate functional and timing model of the RIME memristive
//! ranking-in-memory substrate from *Memristive Data Ranking* (HPCA 2021).
//!
//! The crate models the full hardware stack described in §III–IV of the
//! paper, bottom-up:
//!
//! * [`bitmap`] — dense bit vectors used for select vectors, match vectors,
//!   and exclusion flags.
//! * [`encoding`] — the number formats RIME ranks natively: unsigned and
//!   signed fixed-point and IEEE-754 floating point ([`KeyFormat`]).
//! * [`plan`] — the bit-serial search schedule ([`SearchPlan`]): which
//!   reference bit each column-search step uses, for min or max, per format.
//! * [`mod@reference`] — a pure-software golden model of Algorithm 1 and its
//!   signed/float variants, used to cross-check the hardware model.
//! * [`mod@array`] — a single 1T1R memristive array's cells: rows, wear
//!   and stuck-at faults (Fig. 7).
//! * [`mat`] — four arrays sharing sense/drive circuitry plus the mat
//!   controller (Fig. 8): one select vector and one bit-sliced column
//!   shadow per mat, column search, match-vector generation, and the
//!   *all-0-or-1* load gate.
//! * [`chip`] — banks, subbanks, and mats under a chip controller that
//!   coordinates multi-mat exclusion with the two-signal protocol (Fig. 9)
//!   and streams ranked values. The data/index H-tree is the chip's rearm
//!   (Fig. 11: each span mat latches its window of the range) and its
//!   lower-address priority in the index reduction (Fig. 10).
//! * `memo` — the memoized descent engine behind
//!   [`ParallelPolicy::Auto`]: one resumable descent per mat, kept across
//!   calls and folded up a binary tree over the range's mats, so host work
//!   per key follows one mat's key trie rather than the range's span.
//! * [`probe`] — a zero-cost-when-disabled hook that hears each
//!   extraction call's host time once (rime-core's metrics layer plugs
//!   in here).
//! * [`timing`] / [`counters`] — Table I device timings and energy, and
//!   the typed event counters every operation increments.
//! * [`lifetime`] — write-endurance tracking and lifetime estimation
//!   (§VII-C).
//! * [`selftest`] — a march-test BIST locating worn-out (stuck) cells
//!   plus a functional check of the ranking datapath.
//! * [`storage`] — the byte-addressable normal-storage-mode datapath a
//!   non-RIME DIMM serves (§V).
//! * [`verify`] — exhaustive model checking of the search schedule
//!   against comparison-based ground truth.
//!
//! # Example
//!
//! Rank three floats in a single chip and stream them out in ascending
//! order:
//!
//! ```
//! use rime_memristive::{Chip, ChipGeometry, Direction, KeyFormat};
//!
//! # fn main() -> Result<(), rime_memristive::Error> {
//! let mut chip = Chip::new(ChipGeometry::small());
//! let keys = [18.0f32, -1.625, -0.75];
//! let bits: Vec<u64> = keys.iter().map(|k| k.to_bits() as u64).collect();
//! chip.store_keys(0, &bits, KeyFormat::FLOAT32)?;
//! chip.init_range(0, keys.len() as u64, KeyFormat::FLOAT32)?;
//!
//! let mut sorted = Vec::new();
//! while let Some(hit) = chip.extract(Direction::Min)? {
//!     sorted.push(f32::from_bits(hit.raw_bits as u32));
//! }
//! assert_eq!(sorted, vec![-1.625, -0.75, 18.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bitmap;
pub mod chip;
pub mod counters;
pub mod encoding;
pub mod error;
pub mod geometry;
pub mod lifetime;
pub mod mat;
mod memo;
pub mod plan;
mod pool;
pub mod probe;
pub mod reference;
pub mod selftest;
pub mod storage;
pub mod timing;
pub mod verify;

pub use array::{Array, ArrayState};
pub use bitmap::Bitmap;
pub use chip::{Chip, ChipState, ExtractHit, ParallelPolicy};
pub use counters::OpCounters;
pub use encoding::{KeyFormat, SortableBits};
pub use error::Error;
pub use geometry::ChipGeometry;
pub use lifetime::EnduranceTracker;
pub use mat::{Mat, MatState};
pub use plan::{Direction, SearchPlan};
pub use pool::{pool_calibration, PoolCalibration};
pub use probe::{CallTime, ExtractionProbe, Phase, SharedProbe};
pub use selftest::{march_test, SelfTestReport};
pub use storage::NormalStorageView;
pub use timing::ArrayTiming;
