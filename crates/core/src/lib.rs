//! # rime-core
//!
//! The primary contribution of *Memristive Data Ranking* (HPCA 2021):
//! RIME, a hardware/software co-design for in-situ data ranking in
//! memristive memory. This crate layers the paper's software stack on top
//! of the bit-accurate chip model in [`rime_memristive`]:
//!
//! * [`driver`] — the kernel driver's contiguous physical allocator
//!   (§V, Fig. 13), which makes the H-tree index reduction usable.
//! * [`cmd`] — the unified command plane: the typed [`cmd::Command`] IR
//!   and the single [`cmd::Executor`] that owns validation, chip
//!   dispatch, and result marshalling for *every* front-end.
//! * [`telemetry`] — what each command did (`Effects`: per-chip counter
//!   deltas and interface transfers), which the executor records once
//!   per command into its transfer total and its metrics. The running
//!   operation counters live only in the chips.
//! * [`metrics`] — the metrics registry the executor and the chip probes
//!   publish into: counters, gauges, and log2-bucket histograms with
//!   Prometheus/JSON export, deterministic for modeled quantities.
//! * [`device`] — the full device (channels × DIMMs × chips) plus the
//!   userspace API library of Fig. 12: `rime_malloc`, `rime_init`,
//!   `rime_min`, `rime_max`, `rime_free`, and ordinary loads/stores, with
//!   Fig. 14's multi-chip buffered coordination — thin encoders added to
//!   the [`cmd::Executor`], which [`RimeDevice`] names.
//! * [`dimm`] — boot-time DIMM mode configuration and the §V multi-DIMM
//!   address mapping (bit 2³⁰ selects the DIMM).
//! * [`mmio`] — the §V memory-mapped register interface: the same
//!   operations driven by strong-uncacheable reads/writes at fixed
//!   offsets, as a kernel driver would issue them.
//! * [`ops`] — rank / sort / merge / merge-join built from those
//!   primitives with the bandwidth complexities of §III-B.
//! * [`perf`] — the calibrated analytic performance model used by the
//!   figure-regeneration harness at paper scale.
//! * [`flight`] — end-to-end causal tracing: per-request trace
//!   contexts, the fixed-size flight recorder (one ring under one
//!   lock), and the Chrome trace-event exporter behind `rime-trace`.
//! * [`journal`] — the one command log: an append-only, checksummed
//!   write-ahead log of commands with commit markers and periodic
//!   checkpoints, plus the typed [`journal::scan`] reader and the
//!   `crash-test`-gated fault injector. [`cmd::Executor::recover`]
//!   rebuilds a crashed device from it; [`cmd::Executor::replay`] runs
//!   it as a debugging trace on a fresh device.
//!
//! # Quickstart
//!
//! ```
//! use rime_core::{ops, RimeConfig, RimeDevice};
//!
//! # fn main() -> Result<(), rime_core::RimeError> {
//! let dev = RimeDevice::new(RimeConfig::small());
//!
//! // rime_malloc + ordinary stores
//! let region = dev.alloc(6)?;
//! dev.write(region, 0, &[5.5f32, -1.0, 3.25, 0.0, -7.5, 2.0])?;
//!
//! // rime_init + batched rime_min_k = an ordered stream
//! let sorted = ops::sort_into_vec::<f32>(&dev, region)?;
//! assert_eq!(sorted, vec![-7.5, -1.0, 0.0, 2.0, 3.25, 5.5]);
//!
//! dev.free(region)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cmd;
pub mod device;
pub mod dimm;
pub mod driver;
pub mod error;
pub mod flight;
pub mod journal;
pub mod metrics;
pub mod mmio;
pub mod ops;
pub mod perf;
pub mod telemetry;

pub use cmd::{Command, Executor, Outcome};
pub use device::{Region, RimeConfig, RimeDevice};
pub use driver::{ContiguousAllocator, DriverConfig};
pub use error::RimeError;
pub use flight::{FlightConfig, FlightRecorder, FlightSnapshot, PhaseTag, SpanEvent, TraceCtx};
#[cfg(feature = "crash-test")]
pub use journal::{CrashPoint, CrashSignal};
pub use journal::{
    FileJournalStore, Journal, JournalConfig, JournalError, JournalRecord, JournalStore,
    MemJournalStore, RecoveryReport, ScanReport,
};
pub use metrics::{ChipProbe, MetricValue, MetricsRegistry, Snapshot};
pub use perf::{Placement, RimePerfConfig};

// Re-export the substrate types callers need at the API boundary.
pub use rime_memristive::{Direction, KeyFormat, OpCounters, ParallelPolicy, SortableBits};
