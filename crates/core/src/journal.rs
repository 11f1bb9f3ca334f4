//! Crash-consistent write-ahead journal for the command plane.
//!
//! The paper's premise is that ranking happens *inside* nonvolatile
//! memristive arrays — the arrays are simultaneously storage and compute
//! — so the honest system model must survive a driver crash without
//! losing allocation state, session state, or in-flight extraction
//! progress. This module supplies the durability layer the
//! [`crate::cmd::Executor`] builds on:
//!
//! * a **record codec** for [`Command`], [`Outcome`], [`RimeError`], and
//!   [`Effects`] — little-endian, length-prefixed, append-only;
//! * **framing** with a per-record CRC-32 so torn writes are *detected*,
//!   never silently half-applied: `[u32 len][u32 crc(len)][kind + body]
//!   [u32 crc]` under the `RIMEWAL4` magic. The length carries its own
//!   checksum, so a corrupt length is never mistaken for a torn tail;
//! * the **commit-marker protocol**: an [`JournalRecord::Intent`] is
//!   appended *before* a command dispatches and an
//!   [`JournalRecord::Outcome`] *after*, so recovery can always tell a
//!   committed command from an interrupted one;
//! * periodic [`JournalRecord::Checkpoint`]s carrying the executor's
//!   full marshalled state (driver allocator, region tables, sessions,
//!   per-chip snapshots), bounding replay work. A chip snapshot stores
//!   only materialized mats and the nonzero words of its exclusion
//!   flags, so a checkpoint's size tracks the device's live state, not
//!   its capacity. It also carries the chip's operation counters, the
//!   only copy the checkpoint holds;
//! * [`scan`] — a strict, typed reader that distinguishes a torn *tail*
//!   (tolerated, truncated on recovery) from interior corruption
//!   (refused with [`JournalError::BadChecksum`]);
//! * pluggable [`JournalStore`] backends: [`MemJournalStore`] for tests
//!   and the crash harness, [`FileJournalStore`] for real files — every
//!   I/O failure surfaces as a typed [`JournalError::Io`], never an
//!   `unwrap`;
//! * the `CrashPoint` fault injector (behind the `crash-test`
//!   feature) that `tests/crash_recovery.rs` uses to kill the executor
//!   at every journaling/dispatch step and prove recovery converges.
//!
//! The recovery algorithm itself lives in
//! [`crate::cmd::Executor::recover`]; this module owns everything that
//! touches bytes.

use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rime_memristive::encoding::FormatKind;
use rime_memristive::{
    ArrayState, Bitmap, ChipState, Direction, Error as ChipError, KeyFormat, MatState, OpCounters,
};

use crate::cmd::{lock_recover, Command, Outcome};
use crate::device::Region;
use crate::error::RimeError;
use crate::telemetry::Effects;

/// Journal file magic: identifies format and version in one probe.
/// Version 2 stored exclusion flags sparsely; version 3 also checksums
/// each record's length on its own; version 4 checkpoints store each
/// chip's counters once (in its snapshot) and no session chip ids. An
/// older journal is refused with [`JournalError::BadMagic`] rather than
/// misread.
pub(crate) const MAGIC: &[u8; 8] = b"RIMEWAL4";

/// Record header: `[u32 len][u32 crc32(len)]`.
const HEADER: usize = 8;

const KIND_INTENT: u8 = 1;
const KIND_OUTCOME: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;

/// Decoded vector lengths are sanity-capped so a corrupt-but-CRC-valid
/// length field cannot request an absurd allocation.
const MAX_DECODE_ITEMS: u64 = 1 << 28;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed failures of the journal layer. Every filesystem or decode
/// problem becomes one of these — the journal never panics on bad input
/// and never partially applies a record.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JournalError {
    /// An underlying store operation failed. `kind` is the stable
    /// `std::io::ErrorKind` debug name; `message` the OS text.
    Io {
        /// Which store operation failed (`open`, `append`, `read`,
        /// `truncate`, …).
        op: String,
        /// `io::ErrorKind` of the failure, in `Debug` form.
        kind: String,
        /// Human-readable OS error text.
        message: String,
    },
    /// The store's first bytes are not the `RIMEWAL4` magic.
    BadMagic,
    /// Decoding ran past the end of the buffer at `offset` — a record
    /// or blob was cut short.
    TruncatedRecord {
        /// Byte offset (within the decoded buffer) where data ran out.
        offset: u64,
    },
    /// A record's stored CRC-32 does not match its length or its
    /// payload.
    BadChecksum {
        /// Byte offset of the corrupt record's length prefix.
        offset: u64,
    },
    /// A payload was structurally undecodable (unknown tag, invalid
    /// format width, non-canonical content) despite passing the CRC.
    Decode {
        /// What failed to decode.
        what: String,
    },
    /// Replaying the journal tail produced a result or effect different
    /// from the recorded one — the recovered device would not be
    /// bit-identical, so recovery refuses.
    ReplayDivergence {
        /// Ordinal of the diverging command.
        ordinal: u64,
    },
    /// A checkpoint's shape does not match the device configuration it
    /// is being restored into.
    CheckpointMismatch {
        /// What disagreed.
        what: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, kind, message } => {
                write!(f, "journal store {op} failed ({kind}): {message}")
            }
            JournalError::BadMagic => write!(f, "not a RIME journal (bad magic)"),
            JournalError::TruncatedRecord { offset } => {
                write!(f, "journal data truncated at byte {offset}")
            }
            JournalError::BadChecksum { offset } => {
                write!(f, "journal record at byte {offset} fails its checksum")
            }
            JournalError::Decode { what } => write!(f, "undecodable journal payload: {what}"),
            JournalError::ReplayDivergence { ordinal } => {
                write!(
                    f,
                    "replay of command ordinal {ordinal} diverged from the journal"
                )
            }
            JournalError::CheckpointMismatch { what } => {
                write!(f, "checkpoint does not fit this device: {what}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(op: &str, e: std::io::Error) -> JournalError {
    JournalError::Io {
        op: op.to_string(),
        kind: format!("{:?}", e.kind()),
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — the workspace is offline, so it is
// hand-rolled. Every record is checksummed on append and on scan, and a
// Table I checkpoint runs to hundreds of KiB, so the CRC is
// slicing-by-8: eight table lookups per 8-byte word instead of eight
// shift/xor steps per byte.
// ---------------------------------------------------------------------

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `CRC_TABLES[0][b]` is the
/// CRC register after shifting in byte `b`; `CRC_TABLES[k][b]` is the
/// same followed by `k` zero bytes, so the eight bytes of a word fold in
/// with one lookup each.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 over `bytes` (IEEE polynomial, reflected, init/xorout all-1s).
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let v = u64::from_le_bytes(word.try_into().expect("len 8")) ^ u64::from(crc);
        crc = t[7][v as u8 as usize]
            ^ t[6][(v >> 8) as u8 as usize]
            ^ t[5][(v >> 16) as u8 as usize]
            ^ t[4][(v >> 24) as u8 as usize]
            ^ t[3][(v >> 32) as u8 as usize]
            ^ t[2][(v >> 40) as u8 as usize]
            ^ t[1][(v >> 48) as u8 as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

// ---------------------------------------------------------------------
// Little-endian primitive codec
// ---------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte slice. Reading past
/// the end yields [`JournalError::TruncatedRecord`] with the offset —
/// never a panic.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        if self.bytes.len() - self.pos < n {
            return Err(JournalError::TruncatedRecord {
                offset: self.pos as u64,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, JournalError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    pub(crate) fn str_(&mut self) -> Result<String, JournalError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| JournalError::Decode {
            what: "non-UTF-8 string".to_string(),
        })
    }

    /// Reads a `u32` element count and sanity-checks it against both the
    /// global cap and the bytes actually remaining (`elem_size` each),
    /// so corrupt lengths fail typed before any allocation.
    pub(crate) fn len_prefix(&mut self, elem_size: usize) -> Result<usize, JournalError> {
        let n = u64::from(self.u32()?);
        if n > MAX_DECODE_ITEMS {
            return Err(JournalError::Decode {
                what: format!("length {n} exceeds sanity cap"),
            });
        }
        let need = (n as usize).saturating_mul(elem_size);
        if self.bytes.len() - self.pos < need {
            return Err(JournalError::TruncatedRecord {
                offset: self.pos as u64,
            });
        }
        Ok(n as usize)
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, JournalError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Asserts the buffer is fully consumed (strict decode).
    pub(crate) fn finish(self, what: &str) -> Result<(), JournalError> {
        if self.pos != self.bytes.len() {
            return Err(JournalError::Decode {
                what: format!("{what}: {} trailing bytes", self.bytes.len() - self.pos),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------

/// Maps a decoded format name back onto the fixed `&'static str` set
/// [`KeyFormat::name`] produces — the only way to rebuild the
/// `&'static str` fields of [`RimeError::TypeMismatch`] and friends.
fn intern_format_name(name: &str) -> Result<&'static str, JournalError> {
    for candidate in ["unsigned", "signed", "float"] {
        if name == candidate {
            return Ok(candidate);
        }
    }
    Err(JournalError::Decode {
        what: format!("unknown format name {name:?}"),
    })
}

pub(crate) fn put_format(buf: &mut Vec<u8>, format: KeyFormat) {
    put_u8(
        buf,
        match format.kind() {
            FormatKind::Unsigned => 0,
            FormatKind::Signed => 1,
            FormatKind::Float => 2,
        },
    );
    put_u16(buf, format.bits() - format.frac_bits());
    put_u16(buf, format.frac_bits());
}

pub(crate) fn get_format(d: &mut Dec<'_>) -> Result<KeyFormat, JournalError> {
    let kind = d.u8()?;
    let int_bits = d.u16()?;
    let frac_bits = d.u16()?;
    let total = u32::from(int_bits) + u32::from(frac_bits);
    // The KeyFormat constructors assert on width, so validate first and
    // fail typed instead.
    match kind {
        0 if (1..=64).contains(&total) => Ok(KeyFormat::unsigned_fixed(int_bits, frac_bits)),
        1 if (2..=64).contains(&total) => Ok(KeyFormat::signed_fixed(int_bits, frac_bits)),
        2 if (int_bits, frac_bits) == (32, 0) => Ok(KeyFormat::FLOAT32),
        2 if (int_bits, frac_bits) == (64, 0) => Ok(KeyFormat::FLOAT64),
        _ => Err(JournalError::Decode {
            what: format!("invalid key format (kind {kind}, {int_bits}+{frac_bits} bits)"),
        }),
    }
}

fn put_direction(buf: &mut Vec<u8>, direction: Direction) {
    put_u8(
        buf,
        match direction {
            Direction::Min => 0,
            Direction::Max => 1,
        },
    );
}

fn get_direction(d: &mut Dec<'_>) -> Result<Direction, JournalError> {
    match d.u8()? {
        0 => Ok(Direction::Min),
        1 => Ok(Direction::Max),
        tag => Err(JournalError::Decode {
            what: format!("invalid direction tag {tag}"),
        }),
    }
}

pub(crate) fn put_region(buf: &mut Vec<u8>, region: Region) {
    put_u64(buf, region.id);
    put_u64(buf, region.start);
    put_u64(buf, region.len);
}

pub(crate) fn get_region(d: &mut Dec<'_>) -> Result<Region, JournalError> {
    Ok(Region {
        id: d.u64()?,
        start: d.u64()?,
        len: d.u64()?,
    })
}

pub(crate) fn put_counters(buf: &mut Vec<u8>, c: &OpCounters) {
    put_u64(buf, c.column_search_steps);
    put_u64(buf, c.mat_column_searches);
    put_u64(buf, c.row_reads);
    put_u64(buf, c.row_writes);
    put_u64(buf, c.select_loads);
    put_u64(buf, c.htree_traversals);
    put_u64(buf, c.init_ops);
    put_u64(buf, c.extractions);
}

pub(crate) fn get_counters(d: &mut Dec<'_>) -> Result<OpCounters, JournalError> {
    Ok(OpCounters {
        column_search_steps: d.u64()?,
        mat_column_searches: d.u64()?,
        row_reads: d.u64()?,
        row_writes: d.u64()?,
        select_loads: d.u64()?,
        htree_traversals: d.u64()?,
        init_ops: d.u64()?,
        extractions: d.u64()?,
    })
}

pub(crate) fn put_command(buf: &mut Vec<u8>, command: &Command<'_>) {
    match command {
        Command::Alloc { len } => {
            put_u8(buf, 0);
            put_u64(buf, *len);
        }
        Command::Free { region } => {
            put_u8(buf, 1);
            put_region(buf, *region);
        }
        Command::Write {
            region,
            offset,
            raw,
            format,
        } => {
            put_u8(buf, 2);
            put_region(buf, *region);
            put_u64(buf, *offset);
            put_u32(buf, raw.len() as u32);
            for &word in raw.iter() {
                put_u64(buf, word);
            }
            put_format(buf, *format);
        }
        Command::Read { region, offset, n } => {
            put_u8(buf, 3);
            put_region(buf, *region);
            put_u64(buf, *offset);
            put_u64(buf, *n);
        }
        Command::Init {
            region,
            offset,
            len,
            format,
        } => {
            put_u8(buf, 4);
            put_region(buf, *region);
            put_u64(buf, *offset);
            put_u64(buf, *len);
            put_format(buf, *format);
        }
        Command::Extract {
            region,
            format,
            direction,
        } => {
            put_u8(buf, 5);
            put_region(buf, *region);
            put_format(buf, *format);
            put_direction(buf, *direction);
        }
        Command::ExtractBatch {
            region,
            format,
            direction,
            k,
        } => {
            put_u8(buf, 6);
            put_region(buf, *region);
            put_format(buf, *format);
            put_direction(buf, *direction);
            put_u64(buf, *k as u64);
        }
        Command::FifoNext { region } => {
            put_u8(buf, 7);
            put_region(buf, *region);
        }
    }
}

pub(crate) fn get_command(d: &mut Dec<'_>) -> Result<Command<'static>, JournalError> {
    match d.u8()? {
        0 => Ok(Command::Alloc { len: d.u64()? }),
        1 => Ok(Command::Free {
            region: get_region(d)?,
        }),
        2 => {
            let region = get_region(d)?;
            let offset = d.u64()?;
            let raw = d.u64_vec()?;
            let format = get_format(d)?;
            Ok(Command::Write {
                region,
                offset,
                raw: raw.into(),
                format,
            })
        }
        3 => Ok(Command::Read {
            region: get_region(d)?,
            offset: d.u64()?,
            n: d.u64()?,
        }),
        4 => Ok(Command::Init {
            region: get_region(d)?,
            offset: d.u64()?,
            len: d.u64()?,
            format: get_format(d)?,
        }),
        5 => Ok(Command::Extract {
            region: get_region(d)?,
            format: get_format(d)?,
            direction: get_direction(d)?,
        }),
        6 => Ok(Command::ExtractBatch {
            region: get_region(d)?,
            format: get_format(d)?,
            direction: get_direction(d)?,
            k: usize::try_from(d.u64()?).map_err(|_| JournalError::Decode {
                what: "batch size exceeds usize".to_string(),
            })?,
        }),
        7 => Ok(Command::FifoNext {
            region: get_region(d)?,
        }),
        tag => Err(JournalError::Decode {
            what: format!("unknown command tag {tag}"),
        }),
    }
}

fn put_hit(buf: &mut Vec<u8>, hit: &Option<(u64, u64)>) {
    match hit {
        None => put_u8(buf, 0),
        Some((slot, raw)) => {
            put_u8(buf, 1);
            put_u64(buf, *slot);
            put_u64(buf, *raw);
        }
    }
}

fn get_hit(d: &mut Dec<'_>) -> Result<Option<(u64, u64)>, JournalError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some((d.u64()?, d.u64()?))),
        tag => Err(JournalError::Decode {
            what: format!("invalid option tag {tag}"),
        }),
    }
}

pub(crate) fn put_outcome(buf: &mut Vec<u8>, outcome: &Outcome) {
    match outcome {
        Outcome::Region(region) => {
            put_u8(buf, 0);
            put_region(buf, *region);
        }
        Outcome::Done => put_u8(buf, 1),
        Outcome::Keys(keys) => {
            put_u8(buf, 2);
            put_u32(buf, keys.len() as u32);
            for &key in keys {
                put_u64(buf, key);
            }
        }
        Outcome::Hit(hit) => {
            put_u8(buf, 3);
            put_hit(buf, hit);
        }
        Outcome::Hits(hits) => {
            put_u8(buf, 4);
            put_u32(buf, hits.len() as u32);
            for &(slot, raw) in hits {
                put_u64(buf, slot);
                put_u64(buf, raw);
            }
        }
    }
}

pub(crate) fn get_outcome(d: &mut Dec<'_>) -> Result<Outcome, JournalError> {
    match d.u8()? {
        0 => Ok(Outcome::Region(get_region(d)?)),
        1 => Ok(Outcome::Done),
        2 => Ok(Outcome::Keys(d.u64_vec()?)),
        3 => Ok(Outcome::Hit(get_hit(d)?)),
        4 => {
            let n = d.len_prefix(16)?;
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                hits.push((d.u64()?, d.u64()?));
            }
            Ok(Outcome::Hits(hits))
        }
        tag => Err(JournalError::Decode {
            what: format!("unknown outcome tag {tag}"),
        }),
    }
}

fn put_chip_error(buf: &mut Vec<u8>, e: &ChipError) {
    match e {
        ChipError::AddressOutOfRange { addr, capacity } => {
            put_u8(buf, 0);
            put_u64(buf, *addr);
            put_u64(buf, *capacity);
        }
        ChipError::EmptyRange { begin, end } => {
            put_u8(buf, 1);
            put_u64(buf, *begin);
            put_u64(buf, *end);
        }
        ChipError::NotInitialized => put_u8(buf, 2),
        ChipError::KeyTooWide { bits, max } => {
            put_u8(buf, 3);
            put_u16(buf, *bits);
            put_u16(buf, *max);
        }
        ChipError::FormatMismatch { stored, requested } => {
            put_u8(buf, 4);
            put_str(buf, stored);
            put_str(buf, requested);
        }
        // `ChipError` is non_exhaustive upstream; new variants must get
        // a codec arm before they can transit the journal.
        other => unreachable!("unencodable chip error {other:?}"),
    }
}

fn get_chip_error(d: &mut Dec<'_>) -> Result<ChipError, JournalError> {
    match d.u8()? {
        0 => Ok(ChipError::AddressOutOfRange {
            addr: d.u64()?,
            capacity: d.u64()?,
        }),
        1 => Ok(ChipError::EmptyRange {
            begin: d.u64()?,
            end: d.u64()?,
        }),
        2 => Ok(ChipError::NotInitialized),
        3 => Ok(ChipError::KeyTooWide {
            bits: d.u16()?,
            max: d.u16()?,
        }),
        4 => Ok(ChipError::FormatMismatch {
            stored: intern_format_name(&d.str_()?)?,
            requested: intern_format_name(&d.str_()?)?,
        }),
        tag => Err(JournalError::Decode {
            what: format!("unknown chip error tag {tag}"),
        }),
    }
}

fn put_journal_error(buf: &mut Vec<u8>, e: &JournalError) {
    match e {
        JournalError::Io { op, kind, message } => {
            put_u8(buf, 0);
            put_str(buf, op);
            put_str(buf, kind);
            put_str(buf, message);
        }
        JournalError::BadMagic => put_u8(buf, 1),
        JournalError::TruncatedRecord { offset } => {
            put_u8(buf, 2);
            put_u64(buf, *offset);
        }
        JournalError::BadChecksum { offset } => {
            put_u8(buf, 3);
            put_u64(buf, *offset);
        }
        JournalError::Decode { what } => {
            put_u8(buf, 4);
            put_str(buf, what);
        }
        JournalError::ReplayDivergence { ordinal } => {
            put_u8(buf, 5);
            put_u64(buf, *ordinal);
        }
        JournalError::CheckpointMismatch { what } => {
            put_u8(buf, 6);
            put_str(buf, what);
        }
    }
}

fn get_journal_error(d: &mut Dec<'_>) -> Result<JournalError, JournalError> {
    match d.u8()? {
        0 => Ok(JournalError::Io {
            op: d.str_()?,
            kind: d.str_()?,
            message: d.str_()?,
        }),
        1 => Ok(JournalError::BadMagic),
        2 => Ok(JournalError::TruncatedRecord { offset: d.u64()? }),
        3 => Ok(JournalError::BadChecksum { offset: d.u64()? }),
        4 => Ok(JournalError::Decode { what: d.str_()? }),
        5 => Ok(JournalError::ReplayDivergence { ordinal: d.u64()? }),
        6 => Ok(JournalError::CheckpointMismatch { what: d.str_()? }),
        tag => Err(JournalError::Decode {
            what: format!("unknown journal error tag {tag}"),
        }),
    }
}

pub(crate) fn put_rime_error(buf: &mut Vec<u8>, e: &RimeError) {
    match e {
        RimeError::OutOfContiguousMemory {
            requested,
            largest_free,
        } => {
            put_u8(buf, 0);
            put_u64(buf, *requested);
            put_u64(buf, *largest_free);
        }
        RimeError::InvalidRegion => put_u8(buf, 1),
        RimeError::OutOfBounds { offset, len } => {
            put_u8(buf, 2);
            put_u64(buf, *offset);
            put_u64(buf, *len);
        }
        RimeError::NotInitialized => put_u8(buf, 3),
        RimeError::TypeMismatch { stored, requested } => {
            put_u8(buf, 4);
            put_str(buf, stored);
            put_str(buf, requested);
        }
        RimeError::Chip(chip) => {
            put_u8(buf, 5);
            put_chip_error(buf, chip);
        }
        RimeError::Journal(journal) => {
            put_u8(buf, 6);
            put_journal_error(buf, journal);
        }
    }
}

pub(crate) fn get_rime_error(d: &mut Dec<'_>) -> Result<RimeError, JournalError> {
    match d.u8()? {
        0 => Ok(RimeError::OutOfContiguousMemory {
            requested: d.u64()?,
            largest_free: d.u64()?,
        }),
        1 => Ok(RimeError::InvalidRegion),
        2 => Ok(RimeError::OutOfBounds {
            offset: d.u64()?,
            len: d.u64()?,
        }),
        3 => Ok(RimeError::NotInitialized),
        4 => Ok(RimeError::TypeMismatch {
            stored: intern_format_name(&d.str_()?)?,
            requested: intern_format_name(&d.str_()?)?,
        }),
        5 => Ok(RimeError::Chip(get_chip_error(d)?)),
        6 => Ok(RimeError::Journal(get_journal_error(d)?)),
        tag => Err(JournalError::Decode {
            what: format!("unknown error tag {tag}"),
        }),
    }
}

pub(crate) fn put_result(buf: &mut Vec<u8>, result: &Result<Outcome, RimeError>) {
    match result {
        Ok(outcome) => {
            put_u8(buf, 0);
            put_outcome(buf, outcome);
        }
        Err(error) => {
            put_u8(buf, 1);
            put_rime_error(buf, error);
        }
    }
}

pub(crate) fn get_result(d: &mut Dec<'_>) -> Result<Result<Outcome, RimeError>, JournalError> {
    match d.u8()? {
        0 => Ok(Ok(get_outcome(d)?)),
        1 => Ok(Err(get_rime_error(d)?)),
        tag => Err(JournalError::Decode {
            what: format!("invalid result tag {tag}"),
        }),
    }
}

pub(crate) fn put_effects(buf: &mut Vec<u8>, effects: &Effects) {
    let deltas = effects.chip_deltas();
    put_u32(buf, deltas.len() as u32);
    for (chip, delta) in deltas {
        put_u32(buf, *chip);
        put_counters(buf, delta);
    }
    put_u64(buf, effects.interface_transfers());
}

pub(crate) fn get_effects(d: &mut Dec<'_>) -> Result<Effects, JournalError> {
    let n = d.len_prefix(4 + 64)?;
    let mut effects = Effects::default();
    for _ in 0..n {
        let chip = d.u32()?;
        let delta = get_counters(d)?;
        effects.record_chip(chip, delta);
    }
    effects.add_transfers(d.u64()?);
    Ok(effects)
}

// ---------------------------------------------------------------------
// Chip-state codec (checkpoint payloads)
// ---------------------------------------------------------------------

/// Exclusion flags are sparse: `[u64 len][u32 n]` then `n` ×
/// `(u32 word index, u64 word)` for the nonzero words only, indices
/// strictly increasing. A chip's flags span its whole capacity (2 Mi
/// bits at Table I scale) but only the slots of extracted keys are set.
fn put_exclusion(buf: &mut Vec<u8>, flags: &Bitmap) {
    put_u64(buf, flags.len() as u64);
    let count_at = buf.len();
    put_u32(buf, 0);
    let mut n = 0u32;
    for (idx, &word) in flags.words().iter().enumerate() {
        if word != 0 {
            put_u32(
                buf,
                u32::try_from(idx).expect("chips hold under 2^38 slots"),
            );
            put_u64(buf, word);
            n += 1;
        }
    }
    buf[count_at..count_at + 4].copy_from_slice(&n.to_le_bytes());
}

/// Decodes [`put_exclusion`]'s form for a chip of `slots` key slots.
/// The length is checked against `slots` before anything is allocated,
/// and only the canonical encoding is accepted: every listed word
/// nonzero, indices strictly increasing and in range, no bits past
/// `slots` — anything else is a typed [`JournalError::Decode`].
fn get_exclusion(d: &mut Dec<'_>, slots: u64) -> Result<Bitmap, JournalError> {
    let len = d.u64()?;
    if len != slots {
        return Err(JournalError::Decode {
            what: format!("exclusion flags span {len} slots, chips hold {slots}"),
        });
    }
    let len = usize::try_from(len).map_err(|_| JournalError::Decode {
        what: "exclusion length exceeds usize".to_string(),
    })?;
    let words = len.div_ceil(64);
    let n = d.len_prefix(4 + 8)?;
    let tail_mask = match len % 64 {
        0 => u64::MAX,
        rem => (1u64 << rem) - 1,
    };
    let mut flags = Bitmap::zeros(len);
    let mut next = 0;
    for _ in 0..n {
        let idx = d.u32()? as usize;
        let word = d.u64()?;
        let problem = if idx < next {
            Some("index not strictly increasing")
        } else if idx >= words {
            Some("index past the last word")
        } else if word == 0 {
            Some("zero word listed")
        } else if idx == words - 1 && word & !tail_mask != 0 {
            Some("tail bits set")
        } else {
            None
        };
        if let Some(problem) = problem {
            return Err(JournalError::Decode {
                what: format!("exclusion word {idx}: {problem}"),
            });
        }
        let mut rest = word;
        while rest != 0 {
            flags.set(idx * 64 + rest.trailing_zeros() as usize, true);
            rest &= rest - 1;
        }
        next = idx + 1;
    }
    Ok(flags)
}

fn put_array_state(buf: &mut Vec<u8>, state: &ArrayState) {
    put_u32(buf, state.rows.len() as u32);
    for &row in &state.rows {
        put_u64(buf, row);
    }
    put_u32(buf, state.wear.len() as u32);
    for &wear in &state.wear {
        put_u32(buf, wear);
    }
    put_u32(buf, state.faults.len() as u32);
    for &(row, bit, stuck) in &state.faults {
        put_u64(buf, row as u64);
        put_u16(buf, bit);
        put_u8(buf, u8::from(stuck));
    }
}

fn get_array_state(d: &mut Dec<'_>) -> Result<ArrayState, JournalError> {
    let rows = d.u64_vec()?;
    let wear_len = d.len_prefix(4)?;
    let wear = (0..wear_len).map(|_| d.u32()).collect::<Result<_, _>>()?;
    let fault_len = d.len_prefix(11)?;
    let mut faults = Vec::with_capacity(fault_len);
    for _ in 0..fault_len {
        let row = usize::try_from(d.u64()?).map_err(|_| JournalError::Decode {
            what: "fault row exceeds usize".to_string(),
        })?;
        let bit = d.u16()?;
        let stuck = match d.u8()? {
            0 => false,
            1 => true,
            tag => {
                return Err(JournalError::Decode {
                    what: format!("invalid bool tag {tag}"),
                })
            }
        };
        faults.push((row, bit, stuck));
    }
    Ok(ArrayState { rows, wear, faults })
}

fn put_mat_state(buf: &mut Vec<u8>, state: &MatState) {
    put_u32(buf, state.arrays.len() as u32);
    for array in &state.arrays {
        put_array_state(buf, array);
    }
}

fn get_mat_state(d: &mut Dec<'_>) -> Result<MatState, JournalError> {
    let n = d.len_prefix(1)?;
    let arrays = (0..n)
        .map(|_| get_array_state(d))
        .collect::<Result<_, _>>()?;
    Ok(MatState { arrays })
}

pub(crate) fn put_chip_state(buf: &mut Vec<u8>, state: &ChipState) {
    put_u32(buf, state.mats.len() as u32);
    for mat in &state.mats {
        match mat {
            None => put_u8(buf, 0),
            Some(mat) => {
                put_u8(buf, 1);
                put_mat_state(buf, mat);
            }
        }
    }
    put_exclusion(buf, &state.excluded);
    match state.format {
        None => put_u8(buf, 0),
        Some(format) => {
            put_u8(buf, 1);
            put_format(buf, format);
        }
    }
    match state.range {
        None => put_u8(buf, 0),
        Some((begin, end)) => {
            put_u8(buf, 1);
            put_u64(buf, begin);
            put_u64(buf, end);
        }
    }
    put_counters(buf, &state.counters);
}

/// Decodes one chip snapshot for a chip of `slots` key slots (already
/// validated against the device configuration by the caller).
pub(crate) fn get_chip_state(d: &mut Dec<'_>, slots: u64) -> Result<ChipState, JournalError> {
    let n = d.len_prefix(1)?;
    let mut mats = Vec::with_capacity(n);
    for _ in 0..n {
        mats.push(match d.u8()? {
            0 => None,
            1 => Some(get_mat_state(d)?),
            tag => {
                return Err(JournalError::Decode {
                    what: format!("invalid option tag {tag}"),
                })
            }
        });
    }
    let excluded = get_exclusion(d, slots)?;
    let format = match d.u8()? {
        0 => None,
        1 => Some(get_format(d)?),
        tag => {
            return Err(JournalError::Decode {
                what: format!("invalid option tag {tag}"),
            })
        }
    };
    let range = match d.u8()? {
        0 => None,
        1 => Some((d.u64()?, d.u64()?)),
        tag => {
            return Err(JournalError::Decode {
                what: format!("invalid option tag {tag}"),
            })
        }
    };
    let counters = get_counters(d)?;
    Ok(ChipState {
        mats,
        excluded,
        format,
        range,
        counters,
    })
}

// ---------------------------------------------------------------------
// Records and framing
// ---------------------------------------------------------------------

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// Commit-marker half one: command `ordinal` is *about to*
    /// dispatch. Durable before any device state changes.
    Intent {
        /// Zero-based position in the committed command sequence.
        ordinal: u64,
        /// The command itself, decoded into owning form.
        command: Command<'static>,
    },
    /// Commit-marker half two: command `ordinal` finished with this
    /// result and these effects. Its presence *is* the commit.
    Outcome {
        /// Ordinal this outcome pairs with.
        ordinal: u64,
        /// The marshalled result, success or typed failure.
        result: Result<Outcome, RimeError>,
        /// Per-chip counter deltas and interface transfers.
        effects: Effects,
    },
    /// Full marshalled executor state as of `committed` commands; replay
    /// after recovery starts here instead of from the beginning.
    Checkpoint {
        /// Commands committed when the checkpoint was taken.
        committed: u64,
        /// Opaque state blob (see `Executor::checkpoint_bytes`).
        state: Vec<u8>,
    },
}

fn encode_record(kind: u8, body: &[u8]) -> Vec<u8> {
    let len = (1 + body.len()) as u32;
    let mut record = Vec::with_capacity(HEADER + len as usize + 4);
    put_u32(&mut record, len);
    put_u32(&mut record, crc32(&len.to_le_bytes()));
    record.push(kind);
    record.extend_from_slice(body);
    let crc = crc32(&record[HEADER..]);
    put_u32(&mut record, crc);
    record
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, JournalError> {
    let mut d = Dec::new(payload);
    let record = match d.u8()? {
        KIND_INTENT => JournalRecord::Intent {
            ordinal: d.u64()?,
            command: get_command(&mut d)?,
        },
        KIND_OUTCOME => JournalRecord::Outcome {
            ordinal: d.u64()?,
            result: get_result(&mut d)?,
            effects: get_effects(&mut d)?,
        },
        KIND_CHECKPOINT => {
            let committed = d.u64()?;
            let n = d.len_prefix(1)?;
            JournalRecord::Checkpoint {
                committed,
                state: d.take(n)?.to_vec(),
            }
        }
        tag => {
            return Err(JournalError::Decode {
                what: format!("unknown record kind {tag}"),
            })
        }
    };
    d.finish("journal record")?;
    Ok(record)
}

/// The result of [`scan`]: every decodable record, where the valid
/// prefix ends, and whether a torn (incomplete or CRC-failing) final
/// record was discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// `(byte offset, record)` for each intact record, in file order.
    pub records: Vec<(u64, JournalRecord)>,
    /// Length of the valid prefix; recovery truncates the store here
    /// when `torn_tail` is set.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` form a torn final record — the
    /// expected signature of a crash mid-append, tolerated and dropped.
    pub torn_tail: bool,
}

/// Walks a journal byte image, validating framing and checksums.
///
/// An image that ends inside a record header, or inside a record whose
/// length passed its check, is a torn tail — reported, not fatal,
/// because a crash mid-append produces exactly that; so is a final
/// record whose payload fails its checksum. A length that fails its
/// check is [`JournalError::BadChecksum`] wherever it sits, and so is a
/// payload checksum failure before the end; an undecodable payload
/// behind a valid CRC fails with [`JournalError::Decode`].
pub fn scan(bytes: &[u8]) -> Result<ScanReport, JournalError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    loop {
        if pos == bytes.len() {
            return Ok(ScanReport {
                records,
                valid_len: pos as u64,
                torn_tail: false,
            });
        }
        let torn = |records: Vec<(u64, JournalRecord)>| {
            Ok(ScanReport {
                records,
                valid_len: pos as u64,
                torn_tail: true,
            })
        };
        if bytes.len() - pos < HEADER {
            return torn(records);
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("len 4"));
        if crc32(&bytes[pos..pos + 4]) != word(pos + 4) {
            return Err(JournalError::BadChecksum { offset: pos as u64 });
        }
        let len = word(pos) as usize;
        let total = HEADER + len + 4;
        if bytes.len() - pos < total {
            return torn(records);
        }
        let payload = &bytes[pos + HEADER..pos + HEADER + len];
        if crc32(payload) != word(pos + HEADER + len) {
            if pos + total == bytes.len() {
                // A torn write of the final record: the length prefix
                // landed but part of the payload did not.
                return torn(records);
            }
            return Err(JournalError::BadChecksum { offset: pos as u64 });
        }
        records.push((pos as u64, decode_record(payload)?));
        pos += total;
    }
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

/// Byte-level backend a [`Journal`] appends to. Implementations must
/// make `append` atomic with respect to `read_all` (the executor
/// serializes its own appends), but need *not* guarantee a crashing
/// process cannot tear the last append — [`scan`] detects that.
pub trait JournalStore: Send {
    /// Appends `bytes` at the end of the store.
    fn append(&self, bytes: &[u8]) -> Result<(), JournalError>;
    /// Reads the entire store image.
    fn read_all(&self) -> Result<Vec<u8>, JournalError>;
    /// Cuts the store down to `len` bytes (drops a torn tail).
    fn truncate(&self, len: u64) -> Result<(), JournalError>;
}

/// In-memory store for tests and the crash harness. Clones share the
/// same buffer, so a harness can keep a handle while the executor owns
/// the boxed store — exactly how a file on disk outlives a process.
#[derive(Debug, Clone, Default)]
pub struct MemJournalStore {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemJournalStore {
    /// An empty in-memory store.
    pub fn new() -> MemJournalStore {
        MemJournalStore::default()
    }

    /// A store pre-loaded with `bytes` (e.g. a truncated image).
    pub fn from_bytes(bytes: Vec<u8>) -> MemJournalStore {
        MemJournalStore {
            bytes: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A copy of the current store image.
    pub fn snapshot(&self) -> Vec<u8> {
        lock_recover(&self.bytes).clone()
    }
}

impl JournalStore for MemJournalStore {
    fn append(&self, bytes: &[u8]) -> Result<(), JournalError> {
        lock_recover(&self.bytes).extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>, JournalError> {
        Ok(self.snapshot())
    }

    fn truncate(&self, len: u64) -> Result<(), JournalError> {
        let mut bytes = lock_recover(&self.bytes);
        let len = len.min(bytes.len() as u64) as usize;
        bytes.truncate(len);
        Ok(())
    }
}

/// File-backed store. Opens per operation (append mode), so the handle
/// is just a path; a missing file reads as empty and is created on
/// first append. Every I/O failure becomes a typed
/// [`JournalError::Io`].
#[derive(Debug, Clone)]
pub struct FileJournalStore {
    path: PathBuf,
}

impl FileJournalStore {
    /// A store at `path` (not created until the first append).
    pub fn new(path: impl AsRef<Path>) -> FileJournalStore {
        FileJournalStore {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl JournalStore for FileJournalStore {
    fn append(&self, bytes: &[u8]) -> Result<(), JournalError> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("open", e))?;
        file.write_all(bytes).map_err(|e| io_err("append", e))
    }

    fn read_all(&self) -> Result<Vec<u8>, JournalError> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err("read", e)),
        }
    }

    fn truncate(&self, len: u64) -> Result<(), JournalError> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("open", e))?;
        file.set_len(len).map_err(|e| io_err("truncate", e))
    }
}

// ---------------------------------------------------------------------
// The journal proper
// ---------------------------------------------------------------------

/// Journal tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// A checkpoint is appended after every `checkpoint_every`-th
    /// committed command (0 disables periodic checkpoints; an initial
    /// one is still written on attach).
    pub checkpoint_every: u64,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            checkpoint_every: 32,
        }
    }
}

/// An append-only, checksummed write-ahead log of executor commands.
///
/// Owned by the executor behind its journal lock; `committed` counts
/// outcome records written, i.e. the ordinal the *next* command gets.
pub struct Journal {
    store: Box<dyn JournalStore>,
    config: JournalConfig,
    committed: u64,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("config", &self.config)
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens a journal over `store`, writing the magic if the store is
    /// empty and validating it otherwise.
    pub fn new(
        store: Box<dyn JournalStore>,
        config: JournalConfig,
    ) -> Result<Journal, JournalError> {
        let bytes = store.read_all()?;
        if bytes.is_empty() {
            store.append(MAGIC)?;
        } else if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(JournalError::BadMagic);
        }
        Ok(Journal {
            store,
            config,
            committed: 0,
        })
    }

    /// The journal tunables.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    /// Commands committed (outcome records written) through this handle
    /// plus whatever `Journal::set_committed` seeded after recovery.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    pub(crate) fn set_committed(&mut self, committed: u64) {
        self.committed = committed;
    }

    fn append_record(&self, kind: u8, body: &[u8]) -> Result<(), JournalError> {
        self.store.append(&encode_record(kind, body))
    }

    pub(crate) fn record_intent(
        &mut self,
        ordinal: u64,
        command: &Command<'_>,
    ) -> Result<(), JournalError> {
        let mut body = Vec::new();
        put_u64(&mut body, ordinal);
        put_command(&mut body, command);
        self.append_record(KIND_INTENT, &body)
    }

    pub(crate) fn record_outcome(
        &mut self,
        ordinal: u64,
        result: &Result<Outcome, RimeError>,
        effects: &Effects,
    ) -> Result<(), JournalError> {
        let mut body = Vec::new();
        put_u64(&mut body, ordinal);
        put_result(&mut body, result);
        put_effects(&mut body, effects);
        self.append_record(KIND_OUTCOME, &body)?;
        self.committed = ordinal + 1;
        Ok(())
    }

    pub(crate) fn record_checkpoint(&mut self, state: &[u8]) -> Result<(), JournalError> {
        let mut body = Vec::new();
        put_u64(&mut body, self.committed);
        put_u32(&mut body, state.len() as u32);
        body.extend_from_slice(state);
        self.append_record(KIND_CHECKPOINT, &body)
    }
}

/// What [`crate::cmd::Executor::recover`] found and did — recovery is
/// *detectable*: the caller learns whether a crash interrupted a
/// command, whether the tail was torn, and how much was replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commands durable after recovery (the next command's ordinal).
    pub committed: u64,
    /// Commands re-executed from the journal tail past the checkpoint.
    pub replayed: u64,
    /// Ordinal of a command whose intent was durable but whose outcome
    /// was not — the command the crash interrupted, *not* re-executed.
    pub interrupted: Option<u64>,
    /// Whether a torn final record was detected and truncated away.
    pub torn_tail: bool,
    /// Whether a checkpoint seeded the device (vs. replay from zero).
    pub from_checkpoint: bool,
}

// ---------------------------------------------------------------------
// Crash-point fault injection (crash-test feature)
// ---------------------------------------------------------------------

/// Panic payload [`CrashPoint::hit`] throws, on the thread running the
/// command, so harnesses can tell an injected crash from a genuine bug;
/// [`CrashPoint::fired`] is the authoritative signal.
#[cfg(feature = "crash-test")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal;

/// Countdown fault injector threaded through executor dispatch and
/// journaling steps (mirroring the `ExtractionProbe` pattern: a
/// zero-cost no-op unless the `crash-test` feature is on *and* an
/// injector is installed).
///
/// In counting mode it tallies how many crash sites a workload passes;
/// armed at `k` it simulates a kill at the `k`-th site by panicking
/// with [`CrashSignal`]. `tests/crash_recovery.rs` sweeps `k` over
/// every site.
#[cfg(feature = "crash-test")]
#[derive(Debug)]
pub struct CrashPoint {
    remaining: std::sync::atomic::AtomicI64,
    fired: std::sync::atomic::AtomicBool,
    hits: std::sync::atomic::AtomicU64,
}

#[cfg(feature = "crash-test")]
impl CrashPoint {
    /// An injector that only counts crash sites, never firing.
    pub fn counting() -> Arc<CrashPoint> {
        Arc::new(CrashPoint {
            remaining: std::sync::atomic::AtomicI64::new(i64::MAX),
            fired: std::sync::atomic::AtomicBool::new(false),
            hits: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// An injector that crashes at the `k`-th site hit (zero-based).
    pub fn armed(k: u64) -> Arc<CrashPoint> {
        Arc::new(CrashPoint {
            remaining: std::sync::atomic::AtomicI64::new(
                i64::try_from(k).expect("crash index fits i64") + 1,
            ),
            fired: std::sync::atomic::AtomicBool::new(false),
            hits: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Registers passage through one crash site, panicking with
    /// [`CrashSignal`] exactly once when the countdown reaches zero.
    pub fn hit(&self) {
        use std::sync::atomic::Ordering;
        self.hits.fetch_add(1, Ordering::Relaxed);
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.fired.store(true, Ordering::SeqCst);
            std::panic::panic_any(CrashSignal);
        }
    }

    /// Crash sites passed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Whether the simulated crash has been thrown.
    pub fn fired(&self) -> bool {
        self.fired.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bitwise CRC-32 the tables are derived from: the oracle the
    /// slicing-by-8 form must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_driven_crc32_matches_the_bitwise_reference() {
        // Every length through the 8-byte body and the byte-wise tail,
        // at every start alignment.
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..257 + 8).map(|_| rng.gen::<u32>() as u8).collect();
        for offset in 0..8 {
            for len in 0..=257 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    fn decode_exclusion(bytes: &[u8], slots: u64) -> Result<Bitmap, JournalError> {
        let mut d = Dec::new(bytes);
        let flags = get_exclusion(&mut d, slots)?;
        d.finish("exclusion flags")?;
        Ok(flags)
    }

    #[test]
    fn exclusion_flags_round_trip_sparsely() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cases = Vec::new();
        for len in [0usize, 1, 63, 64, 65, 200, 4096 + 13] {
            cases.push(Bitmap::zeros(len));
            cases.push(Bitmap::ones(len));
            if len > 0 {
                let mut single = Bitmap::zeros(len);
                single.set(len / 2, true);
                cases.push(single);
                let mut last = Bitmap::zeros(len);
                last.set(len - 1, true);
                cases.push(last);
                let mut random = Bitmap::zeros(len);
                for idx in 0..len {
                    random.set(idx, rng.gen_bool(0.3));
                }
                cases.push(random);
            }
        }
        for flags in cases {
            let mut bytes = Vec::new();
            put_exclusion(&mut bytes, &flags);
            let nonzero = flags.words().iter().filter(|&&w| w != 0).count();
            assert_eq!(bytes.len(), 8 + 4 + 12 * nonzero, "only nonzero words");
            let back = decode_exclusion(&bytes, flags.len() as u64).expect("decode");
            assert_eq!(back, flags);
        }
    }

    /// Hand-builds an exclusion encoding for `len` slots listing `words`.
    fn raw_exclusion(len: u64, words: &[(u32, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, len);
        put_u32(&mut buf, words.len() as u32);
        for &(idx, word) in words {
            put_u32(&mut buf, idx);
            put_u64(&mut buf, word);
        }
        buf
    }

    #[test]
    fn non_canonical_exclusion_flags_fail_typed() {
        // 130 slots: three words, the last holding two live bits.
        let cases: [(&[(u32, u64)], &str); 5] = [
            (&[(1, 1), (1, 2)], "strictly increasing"),
            (&[(1, 1), (0, 1)], "strictly increasing"),
            (&[(3, 1)], "past the last word"),
            (&[(0, 0)], "zero word"),
            (&[(2, 0b100)], "tail bits"),
        ];
        for (words, want) in cases {
            let err = decode_exclusion(&raw_exclusion(130, words), 130).expect_err("refused");
            assert!(
                matches!(err, JournalError::Decode { ref what } if what.contains(want)),
                "{words:?}: {err:?}"
            );
        }
        // The canonical neighbours of those cases decode.
        let flags = decode_exclusion(&raw_exclusion(130, &[(0, 1), (2, 0b11)]), 130).expect("ok");
        assert_eq!(flags.iter_ones().collect::<Vec<_>>(), vec![0, 128, 129]);
    }

    #[test]
    fn an_inflated_exclusion_length_is_refused_before_allocating() {
        // A 2^28-slot length field (32 MiB of flags) for a chip of 4096
        // slots fails on the length alone.
        let bytes = raw_exclusion(1 << 28, &[]);
        let err = decode_exclusion(&bytes, 4096).expect_err("refused");
        assert!(
            matches!(err, JournalError::Decode { ref what } if what.contains("268435456")),
            "{err:?}"
        );
        // An inflated word count fails on the bytes actually present.
        let mut bytes = raw_exclusion(4096, &[]);
        bytes[8..12].copy_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(
            decode_exclusion(&bytes, 4096),
            Err(JournalError::TruncatedRecord { .. })
        ));
    }

    fn region(id: u64, start: u64, len: u64) -> Region {
        Region { id, start, len }
    }

    fn all_commands() -> Vec<Command<'static>> {
        vec![
            Command::Alloc { len: 9 },
            Command::Free {
                region: region(3, 8, 9),
            },
            Command::Write {
                region: region(1, 0, 4),
                offset: 2,
                raw: Cow::Owned(vec![0, u64::MAX, 42]),
                format: KeyFormat::SIGNED32,
            },
            Command::Read {
                region: region(1, 0, 4),
                offset: 1,
                n: 3,
            },
            Command::Init {
                region: region(2, 4, 4),
                offset: 0,
                len: 4,
                format: KeyFormat::FLOAT64,
            },
            Command::Extract {
                region: region(2, 4, 4),
                format: KeyFormat::FLOAT64,
                direction: Direction::Max,
            },
            Command::ExtractBatch {
                region: region(2, 4, 4),
                format: KeyFormat::unsigned_fixed(5, 3),
                direction: Direction::Min,
                k: 7,
            },
            Command::FifoNext {
                region: region(2, 4, 4),
            },
        ]
    }

    #[test]
    fn every_command_round_trips() {
        for command in all_commands() {
            let mut buf = Vec::new();
            put_command(&mut buf, &command);
            let mut d = Dec::new(&buf);
            let back = get_command(&mut d).expect("decode");
            d.finish("command").expect("fully consumed");
            assert_eq!(back, command);
        }
    }

    #[test]
    fn every_result_round_trips() {
        let results: Vec<Result<Outcome, RimeError>> = vec![
            Ok(Outcome::Region(region(5, 0, 2))),
            Ok(Outcome::Done),
            Ok(Outcome::Keys(vec![1, 2, 3])),
            Ok(Outcome::Hit(None)),
            Ok(Outcome::Hit(Some((7, 99)))),
            Ok(Outcome::Hits(vec![(0, 1), (2, 3)])),
            Err(RimeError::OutOfContiguousMemory {
                requested: 10,
                largest_free: 3,
            }),
            Err(RimeError::InvalidRegion),
            Err(RimeError::OutOfBounds { offset: 9, len: 4 }),
            Err(RimeError::NotInitialized),
            Err(RimeError::TypeMismatch {
                stored: "unsigned",
                requested: "float",
            }),
            Err(RimeError::Chip(ChipError::AddressOutOfRange {
                addr: 70,
                capacity: 64,
            })),
            Err(RimeError::Chip(ChipError::EmptyRange { begin: 4, end: 4 })),
            Err(RimeError::Chip(ChipError::NotInitialized)),
            Err(RimeError::Chip(ChipError::KeyTooWide { bits: 65, max: 64 })),
            Err(RimeError::Chip(ChipError::FormatMismatch {
                stored: "signed",
                requested: "unsigned",
            })),
            Err(RimeError::Journal(JournalError::Io {
                op: "append".into(),
                kind: "PermissionDenied".into(),
                message: "denied".into(),
            })),
            Err(RimeError::Journal(JournalError::BadMagic)),
            Err(RimeError::Journal(JournalError::TruncatedRecord {
                offset: 12,
            })),
            Err(RimeError::Journal(JournalError::BadChecksum { offset: 8 })),
            Err(RimeError::Journal(JournalError::Decode {
                what: "tag".into(),
            })),
            Err(RimeError::Journal(JournalError::ReplayDivergence {
                ordinal: 3,
            })),
            Err(RimeError::Journal(JournalError::CheckpointMismatch {
                what: "chips".into(),
            })),
        ];
        for result in results {
            let mut buf = Vec::new();
            put_result(&mut buf, &result);
            let mut d = Dec::new(&buf);
            let back = get_result(&mut d).expect("decode");
            d.finish("result").expect("fully consumed");
            assert_eq!(back, result);
        }
    }

    #[test]
    fn effects_round_trip_preserving_order() {
        let mut effects = Effects::default();
        let mut delta = OpCounters::new();
        delta.row_reads = 3;
        effects.record_chip(2, delta);
        delta.extractions = 1;
        effects.record_chip(0, delta);
        effects.add_transfers(11);
        let mut buf = Vec::new();
        put_effects(&mut buf, &effects);
        let mut d = Dec::new(&buf);
        let back = get_effects(&mut d).expect("decode");
        d.finish("effects").expect("fully consumed");
        assert_eq!(back, effects);
    }

    #[test]
    fn chip_state_round_trips_through_the_codec() {
        use rime_memristive::{Chip, ChipGeometry};
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.inject_stuck_cell(3, 5, true).expect("inject");
        chip.store_keys(0, &[5, 1, 9, 1], KeyFormat::UNSIGNED64)
            .expect("store");
        chip.init_range(0, 4, KeyFormat::UNSIGNED64).expect("init");
        chip.extract(Direction::Min).expect("extract");
        let state = chip.state();
        let slots = state.excluded.len() as u64;
        let mut buf = Vec::new();
        put_chip_state(&mut buf, &state);
        let mut d = Dec::new(&buf);
        let back = get_chip_state(&mut d, slots).expect("decode");
        d.finish("chip state").expect("fully consumed");
        assert_eq!(back, state);
        // Every strict prefix fails typed, never panics.
        for cut in 0..buf.len() {
            let err = get_chip_state(&mut Dec::new(&buf[..cut]), slots).expect_err("prefix");
            assert!(
                matches!(
                    err,
                    JournalError::TruncatedRecord { .. } | JournalError::Decode { .. }
                ),
                "cut {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn truncated_command_fails_typed_at_every_byte() {
        // Satellite: decoding any strict prefix must yield a typed
        // error (truncation or a tag/format decode failure), never a
        // panic and never a silently short value.
        for command in all_commands() {
            let mut buf = Vec::new();
            put_command(&mut buf, &command);
            for cut in 0..buf.len() {
                let mut d = Dec::new(&buf[..cut]);
                let err = match get_command(&mut d) {
                    Err(e) => e,
                    Ok(back) => {
                        // A prefix that still decodes must fail the
                        // strict fully-consumed check instead.
                        assert_ne!(back, command, "prefix decoded to the full command");
                        d.finish("command").expect_err("trailing bytes")
                    }
                };
                assert!(
                    matches!(
                        err,
                        JournalError::TruncatedRecord { .. } | JournalError::Decode { .. }
                    ),
                    "cut {cut}: unexpected error {err:?}"
                );
            }
        }
    }

    fn journal_with_traffic() -> (MemJournalStore, Journal) {
        let store = MemJournalStore::new();
        let mut journal =
            Journal::new(Box::new(store.clone()), JournalConfig::default()).expect("open");
        journal
            .record_intent(0, &Command::Alloc { len: 4 })
            .expect("intent");
        journal
            .record_outcome(
                0,
                &Ok(Outcome::Region(region(1, 0, 4))),
                &Effects::default(),
            )
            .expect("outcome");
        journal
            .record_checkpoint(b"state-blob")
            .expect("checkpoint");
        (store, journal)
    }

    #[test]
    fn scan_reads_back_the_commit_marker_protocol() {
        let (store, journal) = journal_with_traffic();
        assert_eq!(journal.committed(), 1);
        let report = scan(&store.snapshot()).expect("scan");
        assert!(!report.torn_tail);
        assert_eq!(report.valid_len, store.snapshot().len() as u64);
        assert_eq!(report.records.len(), 3);
        assert!(matches!(
            report.records[0].1,
            JournalRecord::Intent { ordinal: 0, .. }
        ));
        assert!(matches!(
            report.records[1].1,
            JournalRecord::Outcome { ordinal: 0, .. }
        ));
        match &report.records[2].1 {
            JournalRecord::Checkpoint { committed, state } => {
                assert_eq!(*committed, 1);
                assert_eq!(state, b"state-blob");
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_at_every_cut_is_detected_not_fatal() {
        let (store, _journal) = journal_with_traffic();
        let bytes = store.snapshot();
        let report = scan(&bytes).expect("scan");
        let last_start = report.records.last().expect("records").0 as usize;
        for cut in last_start + 1..bytes.len() {
            let cut_report = scan(&bytes[..cut]).expect("torn tails are not errors");
            assert!(cut_report.torn_tail, "cut {cut} not flagged torn");
            assert_eq!(cut_report.valid_len, last_start as u64);
            assert_eq!(cut_report.records.len(), report.records.len() - 1);
        }
    }

    #[test]
    fn interior_corruption_is_refused_with_the_offset() {
        let (store, _journal) = journal_with_traffic();
        let mut bytes = store.snapshot();
        let report = scan(&bytes).expect("scan");
        let (first_offset, _) = report.records[0];
        // Flip a payload byte of the *first* record: damage before the
        // end of the log is corruption, not a torn tail.
        bytes[first_offset as usize + HEADER + 1] ^= 0xFF;
        assert_eq!(
            scan(&bytes),
            Err(JournalError::BadChecksum {
                offset: first_offset
            })
        );
        // Every bit of every record header. A length corrupted upward
        // runs past the end of the image; were it trusted, every later
        // record would read as a torn tail and recovery would truncate
        // them away.
        let clean = store.snapshot();
        for &(offset, _) in &report.records {
            for bit in 0..HEADER * 8 {
                let mut bytes = clean.clone();
                bytes[offset as usize + bit / 8] ^= 1 << (bit % 8);
                let want = JournalError::BadChecksum { offset };
                assert_eq!(scan(&bytes), Err(want.clone()), "bit {bit} @ {offset}");
                let damaged = MemJournalStore::from_bytes(bytes.clone());
                let recovered = crate::cmd::Executor::recover(
                    crate::device::RimeConfig::small(),
                    Box::new(damaged.clone()),
                    JournalConfig::default(),
                );
                assert_eq!(recovered.err(), Some(RimeError::Journal(want)));
                assert_eq!(damaged.snapshot(), bytes, "recovery truncated the store");
            }
        }
    }

    #[test]
    fn bad_magic_is_refused() {
        assert_eq!(scan(b"NOTAWAL!rest"), Err(JournalError::BadMagic));
        assert_eq!(scan(b"RIME"), Err(JournalError::BadMagic));
        let store = MemJournalStore::from_bytes(b"GARBAGE-GARBAGE".to_vec());
        assert_eq!(
            Journal::new(Box::new(store), JournalConfig::default()).err(),
            Some(JournalError::BadMagic)
        );
        // Older versions frame records or checkpoints differently; they
        // must not be read as version 4.
        for old in [b"RIMEWAL1", b"RIMEWAL2", b"RIMEWAL3"] {
            let (store, _journal) = journal_with_traffic();
            let mut image = store.snapshot();
            image[..8].copy_from_slice(old);
            assert_eq!(scan(&image), Err(JournalError::BadMagic));
            let store = MemJournalStore::from_bytes(image);
            assert_eq!(
                Journal::new(Box::new(store), JournalConfig::default()).err(),
                Some(JournalError::BadMagic)
            );
        }
    }

    #[test]
    fn valid_crc_with_undecodable_payload_is_a_decode_error() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(0xEE, b""));
        assert!(matches!(
            scan(&bytes),
            Err(JournalError::Decode { ref what }) if what.contains("record kind")
        ));
    }

    #[test]
    fn io_failures_surface_as_typed_errors() {
        // Appending *to a directory path* must fail with a typed Io
        // error naming the operation — never a panic or unwrap.
        let dir = std::env::temp_dir();
        let store = FileJournalStore::new(&dir);
        let err = store
            .append(b"x")
            .expect_err("cannot append to a directory");
        match &err {
            JournalError::Io { op, kind, message } => {
                assert_eq!(op, "open");
                assert!(!kind.is_empty());
                assert!(!message.is_empty());
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let err = store.truncate(0).expect_err("cannot truncate a directory");
        assert!(matches!(err, JournalError::Io { ref op, .. } if op == "open"));
        // Reading a *missing* file is not an error: the journal does
        // not exist yet, which reads as empty.
        let missing = FileJournalStore::new(dir.join("rime-journal-missing-test.wal"));
        assert_eq!(
            missing.read_all().expect("missing reads empty"),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn file_store_round_trips_a_journal() {
        let path =
            std::env::temp_dir().join(format!("rime-journal-test-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = FileJournalStore::new(&path);
        {
            let mut journal =
                Journal::new(Box::new(store.clone()), JournalConfig::default()).expect("open");
            journal
                .record_intent(0, &Command::Alloc { len: 2 })
                .expect("intent");
            journal
                .record_outcome(
                    0,
                    &Ok(Outcome::Region(region(1, 0, 2))),
                    &Effects::default(),
                )
                .expect("outcome");
        }
        let bytes = store.read_all().expect("read");
        let report = scan(&bytes).expect("scan");
        assert_eq!(report.records.len(), 2);
        // Truncating to the first record's start drops it.
        store.truncate(report.records[1].0).expect("truncate");
        let report = scan(&store.read_all().expect("read")).expect("scan");
        assert_eq!(report.records.len(), 1);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn every_error_variant_displays_distinctly() {
        let variants = [
            JournalError::Io {
                op: "append".into(),
                kind: "Other".into(),
                message: "boom".into(),
            },
            JournalError::BadMagic,
            JournalError::TruncatedRecord { offset: 7 },
            JournalError::BadChecksum { offset: 9 },
            JournalError::Decode { what: "tag".into() },
            JournalError::ReplayDivergence { ordinal: 4 },
            JournalError::CheckpointMismatch {
                what: "chips".into(),
            },
        ];
        let texts: Vec<String> = variants.iter().map(|v| v.to_string()).collect();
        for (i, a) in texts.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &texts[i + 1..] {
                assert_ne!(a, b, "error displays must be distinguishable");
            }
        }
    }

    #[cfg(not(feature = "crash-test"))]
    #[test]
    fn crash_points_compile_out_without_the_feature() {
        // Pointer test (the `ExtractionProbe` pattern): with the
        // `crash-test` feature off, `CrashPoint`, `CrashSignal`,
        // `Executor::install_crash_point`, and
        // `Executor::inject_extract_fault` do not exist and every
        // `crash_point()` call in the executor is an empty inline
        // no-op. Run `cargo test --features crash-test` — and
        // `tests/crash_recovery.rs` — for the real coverage.
    }

    #[cfg(feature = "crash-test")]
    #[test]
    fn crash_point_counts_then_fires_exactly_once() {
        let counting = CrashPoint::counting();
        for _ in 0..5 {
            counting.hit();
        }
        assert_eq!(counting.hits(), 5);
        assert!(!counting.fired());

        let armed = CrashPoint::armed(2);
        armed.hit();
        armed.hit();
        assert!(!armed.fired());
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| armed.hit()));
        let payload = unwind.expect_err("third hit crashes");
        assert!(payload.downcast_ref::<CrashSignal>().is_some());
        assert!(armed.fired());
        // Past the firing point the injector never fires again.
        armed.hit();
        assert_eq!(armed.hits(), 4);
    }
}
