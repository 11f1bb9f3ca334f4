//! MMIO ↔ Rust-API ↔ service-ring differential property test.
//!
//! All three front-ends lower into the same `rime_core::cmd::Executor`,
//! so a random command sequence driven through the register file must
//! be indistinguishable — statuses, latched results, typed error
//! codes, operation counters, interface transfers — from the same
//! sequence driven through the typed API, and from the same sequence
//! submitted as Command IR through a `rime-service` ring session, each
//! against a device with an identical full-capacity window region.

use std::borrow::Cow;
use std::collections::VecDeque;

use proptest::prelude::*;
use rime_core::mmio::{cmd, errcode, format_code, regs, status, MmioInterface, DATA_BASE};
use rime_core::{
    Command, Direction, KeyFormat, OpCounters, Outcome, Region, RimeConfig, RimeDevice, RimeError,
};
use rime_service::{RankingService, ServiceConfig};

/// One step of the random register-level workload.
#[derive(Debug, Clone)]
enum Op {
    /// Store a raw value through the data window.
    Store { slot: u64, value: u64 },
    /// Select one of the staged formats (index into `FORMATS`).
    SetFormat(usize),
    /// Program BEGIN/END and ring the INIT doorbell.
    Init { begin: u64, end: u64 },
    /// Ring MIN or MAX.
    Extract { max: bool },
    /// Program COUNT and ring MIN_K or MAX_K.
    ExtractBatch { max: bool, k: u64 },
    /// Ring FIFO_NEXT.
    FifoNext,
}

/// Formats the workload cycles through; `None` stages a deliberately
/// undecodable register value.
const FORMATS: [Option<KeyFormat>; 4] = [
    Some(KeyFormat::UNSIGNED64),
    Some(KeyFormat::SIGNED32),
    Some(KeyFormat::FLOAT32),
    None,
];

/// The FORMAT register value staging `FORMATS[i]`.
fn format_reg(i: usize) -> u64 {
    FORMATS[i].map_or(u64::MAX, format_code)
}

/// Mirrors the private `errcode_of` mapping: the typed API error a
/// command returns must park exactly this code in the ERROR register.
fn expected_errcode(error: &RimeError) -> u64 {
    match error {
        RimeError::InvalidRegion => errcode::INVALID_REGION,
        RimeError::OutOfBounds { .. } => errcode::OUT_OF_BOUNDS,
        RimeError::NotInitialized => errcode::NOT_INITIALIZED,
        RimeError::TypeMismatch { .. } => errcode::TYPE_MISMATCH,
        RimeError::OutOfContiguousMemory { .. } => errcode::OUT_OF_MEMORY,
        RimeError::Chip(_) => errcode::CHIP,
        _ => unreachable!("unmapped error variant"),
    }
}

/// How a twin reaches its executor: through `RimeDevice` methods, or
/// by submitting Command IR through a `rime-service` ring session.
/// Both lower into the same `Executor`, so the twins must stay
/// indistinguishable.
trait Backend {
    fn write_raw(
        &self,
        region: Region,
        offset: u64,
        values: &[u64],
        format: KeyFormat,
    ) -> Result<(), RimeError>;
    fn init_raw(
        &self,
        region: Region,
        offset: u64,
        len: u64,
        format: KeyFormat,
    ) -> Result<(), RimeError>;
    fn next_extreme_raw(
        &self,
        region: Region,
        format: KeyFormat,
        direction: Direction,
    ) -> Result<Option<(u64, u64)>, RimeError>;
    fn next_extremes_raw(
        &self,
        region: Region,
        format: KeyFormat,
        direction: Direction,
        k: usize,
    ) -> Result<Vec<(u64, u64)>, RimeError>;
    fn counters(&self) -> OpCounters;
    fn per_chip_counters(&self) -> Vec<OpCounters>;
    fn interface_transfers(&self) -> u64;
}

impl Backend for RimeDevice {
    fn write_raw(
        &self,
        region: Region,
        offset: u64,
        values: &[u64],
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        RimeDevice::write_raw(self, region, offset, values, format)
    }

    fn init_raw(
        &self,
        region: Region,
        offset: u64,
        len: u64,
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        RimeDevice::init_raw(self, region, offset, len, format)
    }

    fn next_extreme_raw(
        &self,
        region: Region,
        format: KeyFormat,
        direction: Direction,
    ) -> Result<Option<(u64, u64)>, RimeError> {
        RimeDevice::next_extreme_raw(self, region, format, direction)
    }

    fn next_extremes_raw(
        &self,
        region: Region,
        format: KeyFormat,
        direction: Direction,
        k: usize,
    ) -> Result<Vec<(u64, u64)>, RimeError> {
        RimeDevice::next_extremes_raw(self, region, format, direction, k)
    }

    fn counters(&self) -> OpCounters {
        RimeDevice::counters(self)
    }

    fn per_chip_counters(&self) -> Vec<OpCounters> {
        RimeDevice::per_chip_counters(self)
    }

    fn interface_transfers(&self) -> u64 {
        RimeDevice::interface_transfers(self)
    }
}

/// The ring arm: every operation becomes a single submitted command,
/// dispatched manually (submit → one pass → reap) so completions are
/// deterministic and immediate. The singleton pass exercises the full
/// ring path — ordinals, drain, scheduling, completion posting —
/// while fusion's own determinism is proven in
/// `crates/service/tests/service_determinism.rs`.
struct RingBackend {
    service: RankingService,
    session: rime_service::SessionHandle,
}

impl RingBackend {
    fn new() -> RingBackend {
        let service = RankingService::with_device(RimeConfig::small(), ServiceConfig::default());
        let session = service.session();
        RingBackend { service, session }
    }

    fn call(&self, command: Command<'static>) -> Result<Outcome, RimeError> {
        self.session
            .submit(command)
            .expect("queue drained every call, never Busy");
        self.service.process_pending();
        self.session
            .reap(1)
            .pop()
            .expect("one completion per pass")
            .result
    }
}

impl Backend for RingBackend {
    fn write_raw(
        &self,
        region: Region,
        offset: u64,
        values: &[u64],
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        self.call(Command::Write {
            region,
            offset,
            raw: Cow::Owned(values.to_vec()),
            format,
        })
        .map(|_| ())
    }

    fn init_raw(
        &self,
        region: Region,
        offset: u64,
        len: u64,
        format: KeyFormat,
    ) -> Result<(), RimeError> {
        self.call(Command::Init {
            region,
            offset,
            len,
            format,
        })
        .map(|_| ())
    }

    fn next_extreme_raw(
        &self,
        region: Region,
        format: KeyFormat,
        direction: Direction,
    ) -> Result<Option<(u64, u64)>, RimeError> {
        match self.call(Command::Extract {
            region,
            format,
            direction,
        })? {
            Outcome::Hit(hit) => Ok(hit),
            other => panic!("extract returned {other:?}"),
        }
    }

    fn next_extremes_raw(
        &self,
        region: Region,
        format: KeyFormat,
        direction: Direction,
        k: usize,
    ) -> Result<Vec<(u64, u64)>, RimeError> {
        match self.call(Command::ExtractBatch {
            region,
            format,
            direction,
            k,
        })? {
            Outcome::Hits(hits) => Ok(hits),
            other => panic!("extract batch returned {other:?}"),
        }
    }

    fn counters(&self) -> OpCounters {
        self.service.executor().counters()
    }

    fn per_chip_counters(&self) -> Vec<OpCounters> {
        self.service.executor().per_chip_counters()
    }

    fn interface_transfers(&self) -> u64 {
        self.service.executor().interface_transfers()
    }
}

/// A twin of the register file: one full-capacity region, a result
/// latch, and a presentation FIFO, updated with the register semantics
/// but driven through a [`Backend`].
struct ApiTwin<B: Backend> {
    device: B,
    window: Region,
    format_code: u64,
    status: u64,
    error: u64,
    latch: (u64, u64), // (value, addr)
    fifo: VecDeque<(u64, u64)>,
}

impl ApiTwin<RimeDevice> {
    fn new() -> ApiTwin<RimeDevice> {
        let device = RimeDevice::new(RimeConfig::small());
        let window = device.alloc(device.capacity()).unwrap();
        ApiTwin::over(device, window)
    }
}

impl ApiTwin<RingBackend> {
    fn ring() -> ApiTwin<RingBackend> {
        let backend = RingBackend::new();
        let len = backend.service.executor().capacity();
        let window = match backend.call(Command::Alloc { len }) {
            Ok(Outcome::Region(r)) => r,
            other => panic!("window alloc through the ring: {other:?}"),
        };
        ApiTwin::over(backend, window)
    }
}

impl<B: Backend> ApiTwin<B> {
    fn over(device: B, window: Region) -> ApiTwin<B> {
        ApiTwin {
            device,
            window,
            format_code: format_code(KeyFormat::UNSIGNED64),
            status: status::OK,
            error: errcode::NONE,
            latch: (0, 0),
            fifo: VecDeque::new(),
        }
    }

    fn format(&self) -> Option<KeyFormat> {
        rime_core::mmio::decode_format(self.format_code)
    }

    fn fault(&mut self, code: u64) {
        self.status = status::ERROR;
        self.error = code;
    }

    fn advance_fifo(&mut self) {
        match self.fifo.pop_front() {
            Some((slot, raw)) => {
                self.latch = (raw, slot);
                self.status = status::OK;
            }
            None => self.status = status::EXHAUSTED,
        }
    }

    fn apply(&mut self, op: &Op, begin: u64, end: u64) {
        match *op {
            Op::Store { slot, value } => {
                let format = self.format().unwrap_or(KeyFormat::UNSIGNED64);
                match self.device.write_raw(self.window, slot, &[value], format) {
                    Ok(()) => {
                        self.status = status::OK;
                        self.error = errcode::NONE;
                    }
                    Err(e) => self.fault(expected_errcode(&e)),
                }
            }
            Op::SetFormat(i) => self.format_code = format_reg(i),
            Op::FifoNext => {
                self.error = errcode::NONE;
                self.advance_fifo();
            }
            Op::Init { .. } => {
                self.error = errcode::NONE;
                let Some(format) = self.format() else {
                    self.fault(errcode::BAD_FORMAT);
                    return;
                };
                self.fifo.clear();
                match self
                    .device
                    .init_raw(self.window, begin, end.saturating_sub(begin), format)
                {
                    Ok(()) => self.status = status::OK,
                    Err(e) => self.fault(expected_errcode(&e)),
                }
            }
            Op::Extract { max } => {
                self.error = errcode::NONE;
                let Some(format) = self.format() else {
                    self.fault(errcode::BAD_FORMAT);
                    return;
                };
                self.fifo.clear();
                let direction = if max { Direction::Max } else { Direction::Min };
                match self.device.next_extreme_raw(self.window, format, direction) {
                    Ok(Some((slot, raw))) => {
                        self.latch = (raw, slot);
                        self.status = status::OK;
                    }
                    Ok(None) => self.status = status::EXHAUSTED,
                    Err(e) => self.fault(expected_errcode(&e)),
                }
            }
            Op::ExtractBatch { max, k } => {
                self.error = errcode::NONE;
                let Some(format) = self.format() else {
                    self.fault(errcode::BAD_FORMAT);
                    return;
                };
                self.fifo.clear();
                let direction = if max { Direction::Max } else { Direction::Min };
                let want = usize::try_from(k).unwrap_or(usize::MAX);
                match self
                    .device
                    .next_extremes_raw(self.window, format, direction, want)
                {
                    Ok(results) => {
                        self.fifo.extend(results);
                        self.advance_fifo();
                    }
                    Err(e) => self.fault(expected_errcode(&e)),
                }
            }
        }
    }
}

fn drive_mmio(m: &mut MmioInterface, op: &Op, begin: u64, end: u64) {
    match *op {
        Op::Store { slot, value } => m.write(DATA_BASE + 8 * slot, value),
        Op::SetFormat(i) => m.write(regs::FORMAT, format_reg(i)),
        Op::Init { .. } => {
            m.write(regs::BEGIN, begin);
            m.write(regs::END, end);
            m.write(regs::COMMAND, cmd::INIT);
        }
        Op::Extract { max } => {
            m.write(regs::COMMAND, if max { cmd::MAX } else { cmd::MIN });
        }
        Op::ExtractBatch { max, k } => {
            m.write(regs::COUNT, k);
            m.write(regs::COMMAND, if max { cmd::MAX_K } else { cmd::MIN_K });
        }
        Op::FifoNext => m.write(regs::COMMAND, cmd::FIFO_NEXT),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..24, any::<u32>()).prop_map(|(slot, v)| Op::Store {
            slot,
            value: v as u64,
        }),
        (0usize..FORMATS.len()).prop_map(Op::SetFormat),
        (0u64..20, 0u64..24).prop_map(|(begin, end)| Op::Init { begin, end }),
        any::<bool>().prop_map(|max| Op::Extract { max }),
        // `u64::MAX` reaches the executor as `usize::MAX`: a batch size
        // the caller controls must never size an allocation.
        (any::<bool>(), prop_oneof![0u64..10, Just(u64::MAX)])
            .prop_map(|(max, k)| Op::ExtractBatch { max, k }),
        Just(Op::FifoNext),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mmio_api_and_ring_are_indistinguishable(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut mmio = MmioInterface::new(RimeConfig::small());
        let mut api = ApiTwin::new();
        let mut ring = ApiTwin::ring();
        let mut last_init = (0u64, 0u64);
        for (step, op) in ops.iter().enumerate() {
            if let Op::Init { begin, end } = *op {
                last_init = (begin, end);
            }
            let (begin, end) = last_init;
            drive_mmio(&mut mmio, op, begin, end);
            api.apply(op, begin, end);
            ring.apply(op, begin, end);
            prop_assert_eq!(
                mmio.read(regs::STATUS), api.status,
                "status diverged at step {} ({:?})", step, op
            );
            prop_assert_eq!(
                mmio.read(regs::ERROR), api.error,
                "errcode diverged at step {} ({:?})", step, op
            );
            prop_assert_eq!(
                (mmio.read(regs::RESULT_VALUE), mmio.read(regs::RESULT_ADDR)),
                api.latch,
                "result latch diverged at step {} ({:?})", step, op
            );
            prop_assert_eq!(
                mmio.read(regs::RESULT_COUNT), api.fifo.len() as u64,
                "fifo depth diverged at step {} ({:?})", step, op
            );
            // The ring arm agrees with the typed API on everything,
            // including full FIFO contents (the register file only
            // exposes its depth).
            prop_assert_eq!(
                (ring.status, ring.error, ring.latch), (api.status, api.error, api.latch),
                "ring state diverged at step {} ({:?})", step, op
            );
            prop_assert_eq!(
                &ring.fifo, &api.fifo,
                "ring fifo diverged at step {} ({:?})", step, op
            );
        }
        // All three devices executed the identical command stream, so
        // the telemetry they accumulated must match exactly.
        prop_assert_eq!(mmio.device().counters(), api.device.counters());
        prop_assert_eq!(
            mmio.device().interface_transfers(),
            api.device.interface_transfers()
        );
        prop_assert_eq!(
            mmio.device().per_chip_counters(),
            api.device.per_chip_counters()
        );
        prop_assert_eq!(api.device.counters(), Backend::counters(&ring.device));
        prop_assert_eq!(
            api.device.interface_transfers(),
            Backend::interface_transfers(&ring.device)
        );
        prop_assert_eq!(
            api.device.per_chip_counters(),
            Backend::per_chip_counters(&ring.device)
        );
    }
}

/// One-chip-fails-mid-`ExtractBatch` sequences (needs `--features
/// crash-test` for the fault injectors): the register file must park
/// the *lowest-indexed* failing chip's error code, and the journal's
/// outcome record must still carry every chip's counter delta — the
/// chips did the work even though the command failed.
#[cfg(feature = "crash-test")]
mod chip_fault_injection {
    use super::*;
    use rime_core::journal::{self, JournalConfig, JournalRecord, MemJournalStore};
    use rime_core::OpCounters;
    use rime_memristive::{ArrayTiming, ChipGeometry};

    /// 4 tiny chips (64 slots each) on one channel, so a 136-slot
    /// initialized range spans chips 0, 1, and 2.
    const SPAN: u64 = 136;

    fn tiny4() -> RimeConfig {
        RimeConfig {
            channels: 1,
            chips_per_channel: 4,
            chip_geometry: ChipGeometry::tiny(),
            timing: ArrayTiming::table1(),
            driver: rime_core::DriverConfig::default(),
        }
    }

    /// A journaled MMIO device with keys stored and initialized across
    /// three chips, ready for a batched extraction.
    fn faulted_batch_setup() -> (MmioInterface, MemJournalStore) {
        let mut mmio = MmioInterface::new(tiny4());
        let store = MemJournalStore::new();
        mmio.device()
            .attach_journal(
                Box::new(store.clone()),
                JournalConfig {
                    checkpoint_every: 1024,
                },
            )
            .unwrap();
        for slot in 0..SPAN {
            mmio.write(DATA_BASE + 8 * slot, (slot * 37) % 251 + 1);
        }
        mmio.write(regs::BEGIN, 0);
        mmio.write(regs::END, SPAN);
        mmio.write(regs::COMMAND, cmd::INIT);
        assert_eq!(mmio.read(regs::STATUS), status::OK);
        (mmio, store)
    }

    #[test]
    fn lowest_chip_index_error_wins_when_chips_fail_mid_batch() {
        let (mut mmio, _store) = faulted_batch_setup();
        // Two chips fail, injected in *descending* order: the surfaced
        // error must be chip 1's (the lowest failing index), proving
        // the deterministic chip-order fold, not injection order or
        // worker scheduling, decides.
        mmio.device()
            .inject_extract_fault(2, RimeError::NotInitialized);
        mmio.device()
            .inject_extract_fault(1, RimeError::OutOfBounds { offset: 5, len: 1 });
        mmio.write(regs::COUNT, 3);
        mmio.write(regs::COMMAND, cmd::MIN_K);
        assert_eq!(mmio.read(regs::STATUS), status::ERROR);
        assert_eq!(mmio.read(regs::ERROR), errcode::OUT_OF_BOUNDS);
        // The injected faults are one-shot: the retry engages the chips
        // again and succeeds, with the global minimum latched.
        mmio.write(regs::COMMAND, cmd::MIN_K);
        assert_eq!(mmio.read(regs::STATUS), status::OK);
        assert_eq!(mmio.read(regs::ERROR), errcode::NONE);
        assert_eq!(mmio.read(regs::RESULT_VALUE), 1);
    }

    #[test]
    fn a_failed_batch_still_journals_every_chips_delta() {
        let (mut mmio, store) = faulted_batch_setup();
        let before = mmio.device().journal_committed().unwrap();
        mmio.device()
            .inject_extract_fault(0, RimeError::NotInitialized);
        mmio.write(regs::COUNT, 2);
        mmio.write(regs::COMMAND, cmd::MIN_K);
        assert_eq!(mmio.read(regs::ERROR), errcode::NOT_INITIALIZED);
        // The failure committed: intent and outcome are both durable.
        assert_eq!(mmio.device().journal_committed(), Some(before + 1));
        let scanned = journal::scan(&store.snapshot()).unwrap();
        let (ordinal, result, effects) = scanned
            .records
            .iter()
            .rev()
            .find_map(|(_, r)| match r {
                JournalRecord::Outcome {
                    ordinal,
                    result,
                    effects,
                } => Some((*ordinal, result.clone(), effects.clone())),
                _ => None,
            })
            .expect("an outcome record");
        assert_eq!(ordinal, before);
        assert_eq!(result, Err(RimeError::NotInitialized));
        // Every spanned chip ran and its delta survived into the
        // journal — including chip 0, whose result was replaced by the
        // injected fault *after* the work was done.
        let mut chips: Vec<u32> = effects.chip_deltas().iter().map(|&(c, _)| c).collect();
        chips.sort_unstable();
        assert_eq!(chips, vec![0, 1, 2]);
        for (chip, delta) in effects.chip_deltas() {
            assert_ne!(
                *delta,
                OpCounters::default(),
                "chip {chip} recorded an empty delta"
            );
        }
        // An injected fault is *not replayable*: recovery re-executes
        // the tail, gets a success where the journal says failure, and
        // refuses with a typed divergence instead of handing back a
        // silently different device.
        drop(mmio);
        let err = RimeDevice::recover(
            tiny4(),
            Box::new(store),
            JournalConfig {
                checkpoint_every: 1024,
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                RimeError::Journal(rime_core::JournalError::ReplayDivergence { ordinal: o })
                    if o == before
            ),
            "{err:?}"
        );
        // (With no fault injected, the same journal recovers cleanly —
        // tests/crash_recovery.rs proves that exhaustively.)
    }
}
