//! # Chunk-indexed trace store (`VGVS`)
//!
//! A flat event array means reading *anything* decodes *everything*,
//! which dies at the paper's 144×8 scale and is hopeless at 10k+ ranks.
//! The store is a seekable, chunk-compressed layout so every query
//! touches only the bytes it needs. It is also crash-consistent: every
//! chunk carries a CRC-32 and the file is salvageable without its footer
//! (see [`StoreReader::open_salvage`] and DESIGN §17). Format **version
//! 4** ([`STORE_VERSION`]) is the one version written and read; chunk
//! payloads are the recurrence-coded events of [`codec`].
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ header (8B):  "VGVS" magic │ version u16 │ flags u16               │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ preamble: len u32 │ crc32 u32 │ program string │ function dict     │
//! │           (written before the first chunk so a footer-less salvage │
//! │            scan still knows the program + function names)          │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ chunk 0: ┌ disk header (40B) ───────────────────────────────┐      │
//! │          │ rank u32 │ count u32 │ enc_len u32 │ crc32 u32   │      │
//! │          │ min_t u64 │ max_t u64 │ max_end u64              │      │
//! │          └ payload: enc_len bytes, literals and repeat tags ┘      │
//! │ chunk 1: …  (one rank per chunk; ≤ chunk_events events)            │
//! │   ⋮       crc32 covers the header's non-crc bytes + the payload    │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ footer:  program string │ function dictionary │ chunk index        │
//! │          (index entry = rank, offset, enc_len, count, crc,         │
//! │           min_t, max_t, max_end — 48B per chunk)                   │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ trailer (18B): footer_len u64 │ footer crc32 │ "VGVS" │ version    │
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! **Bounded memory.** The writer holds one open chunk per rank
//! (`O(ranks × chunk_events)` events, never `O(trace)`); a chunk is
//! encoded incrementally and written out the moment it fills. The reader
//! seeks via the footer index and decodes **one chunk at a time**; a
//! windowed query ([`StoreReader::for_each_query`]) consults each index
//! entry's `[min_t, max_end]` envelope and never reads the payload of a
//! chunk outside the window. Skip ratios are observable through the
//! `analysis.chunks_{written,read,skipped}` counters.
//!
//! **Crash consistency.** A writer that dies before
//! [`StoreWriter::finish`] leaves a file without a footer; the salvage
//! scanner ([`StoreReader::open_salvage`], `vgv fsck [--repair]`) rebuilds
//! the index by forward-scanning the self-describing chunk headers and
//! recovers every chunk whose bytes were fully flushed — the CRC proves
//! it. Long captures can additionally rotate segments
//! ([`RotatingWriter`], [`SegmentSet`]) so a crash only ever risks the
//! tail of the *newest* segment. Torn-write behaviour is tested through
//! the seeded [`iofault::FaultyFile`] layer.
//!
//! **Writing.** [`StoreWriter`] and [`RotatingWriter`] are
//! [`EventSink`](dynprof_vt::EventSink)s: installed on a `VtLib` they
//! capture a run as it happens, which is how `dynprof trace=` writes
//! ([`write_store_from_vt`] flushes a buffered library after the run — the
//! reference path — and [`write_store_from_trace`] writes an in-memory
//! [`Trace`](dynprof_vt::Trace)). Offline and live, events reach a
//! chunk through the same per-rank lanes.
//!
//! ```
//! use dynprof_analysis::store::{StoreOptions, StoreReader, StoreWriter};
//! use dynprof_sim::SimTime;
//! use dynprof_vt::{Event, VtFuncId};
//!
//! let dir = std::env::temp_dir().join("dynprof-doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join(format!("doc-{}.vgvs", std::process::id()));
//!
//! // Stream events through the bounded-memory writer…
//! let mut w = StoreWriter::create(&path, "demo", StoreOptions::default()).unwrap();
//! w.set_functions(vec!["solve".to_string()]);
//! for i in 0..100u64 {
//!     w.append(&Event::FuncEnter {
//!         t: SimTime::from_micros(2 * i),
//!         rank: (i % 4) as u32,
//!         thread: 0,
//!         func: VtFuncId(0),
//!     });
//!     w.append(&Event::FuncExit {
//!         t: SimTime::from_micros(2 * i + 1),
//!         rank: (i % 4) as u32,
//!         thread: 0,
//!         func: VtFuncId(0),
//!     });
//! }
//! let stats = w.finish().unwrap();
//! assert_eq!(stats.events, 200);
//!
//! // …then query a time window without decoding the whole file.
//! let mut r = StoreReader::open(&path).unwrap();
//! let mut seen = 0;
//! let q = r
//!     .for_each_query(
//!         Some((SimTime::from_micros(10), SimTime::from_micros(20))),
//!         None,
//!         |ev| {
//!             assert!(ev.time() <= SimTime::from_micros(20));
//!             seen += 1;
//!         },
//!     )
//!     .unwrap();
//! assert!(seen > 0 && q.events == seen);
//! std::fs::remove_file(&path).ok();
//! ```

pub mod codec;
mod crc;
pub mod iofault;
mod reader;
mod salvage;
mod segment;
mod writer;

use std::collections::BTreeMap;

pub use codec::{event_end, event_overlaps};
pub use crc::{crc32, Crc32};
pub use iofault::{FaultScript, FaultyFile};
pub use reader::{QueryStats, SalvageSummary, StoreInfo, StoreReader};
pub use salvage::{fsck, repair, ChunkFault, FooterState, FsckReport};
pub use segment::{RetentionPolicy, RotatingWriter, RotationPolicy, SegmentSet, SegmentStats};
pub use writer::{
    write_store_from_trace, write_store_from_vt, ChunkBuf, StoreStats, StoreWriter, STAGE_BUDGET,
};

use dynprof_sim::SimTime;
use dynprof_vt::{Event, VtFuncId};

use crate::error::TraceError;

/// File magic of the chunk-indexed store format.
pub const STORE_MAGIC: &[u8; 4] = b"VGVS";
/// The store format version, the only one written and read: CRC-32
/// chunks, a salvageable preamble, and recurrence-coded payloads over a
/// 48-slot, eight-way shape table. A file of any other version is
/// [`TraceError::UnsupportedVersion`].
pub const STORE_VERSION: u16 = 4;
/// What [`SegmentSet`] re-numbers a function id to when the member that
/// recorded it never defined it (a capture torn before a late
/// `VT_funcdef` reached a footer). No dictionary can define it — the
/// dictionary's length is itself a `u32` — so it reads `<unknown>`, as an
/// id beyond the dictionary of a single salvaged store does.
pub const UNKNOWN_FUNC: VtFuncId = VtFuncId(u32::MAX);
/// Bytes of the fixed file header (magic + version + flags).
pub(crate) const HEADER_BYTES: u64 = 8;
/// Bytes of the per-chunk on-disk header.
pub(crate) const CHUNK_HEADER_BYTES: usize = 40;
/// Bytes of the `footer_len | footer crc | magic | version` trailer.
pub(crate) const TRAILER_BYTES: u64 = 18;

/// Writer/reader tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Events per chunk: the unit of seeking, skipping, and writer
    /// memory. Smaller chunks skip more precisely but index larger.
    pub chunk_events: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions { chunk_events: 2048 }
    }
}

/// One chunk's footer-index entry: everything a query needs to decide
/// whether the payload is worth reading, without touching it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Rank whose events the chunk holds.
    pub rank: u32,
    /// File offset of the chunk's on-disk header.
    pub offset: u64,
    /// Encoded payload length in bytes.
    pub enc_len: u32,
    /// Number of events.
    pub count: u32,
    /// CRC-32 over the chunk header's non-crc bytes followed by the
    /// payload.
    pub crc: u32,
    /// Minimum event timestamp.
    pub min_t: SimTime,
    /// Maximum event *start* timestamp ([`Trace`](dynprof_vt::Trace)'s
    /// notion of the last event time — timeline bounds use this).
    pub max_t: SimTime,
    /// Maximum event *end* timestamp (spans included); window-overlap
    /// tests use `[min_t, max_end]`.
    pub max_end: SimTime,
}

impl ChunkMeta {
    /// Does this chunk's time envelope intersect the closed window
    /// `[t0, t1]`?
    pub fn overlaps(&self, t0: SimTime, t1: SimTime) -> bool {
        self.min_t <= t1 && self.max_end >= t0
    }

    /// Total on-disk bytes of the chunk (header + payload).
    pub(crate) fn disk_bytes(&self) -> u64 {
        CHUNK_HEADER_BYTES as u64 + self.enc_len as u64
    }

    /// The chunk's on-disk header, with `crc` computed over it and the
    /// `payload` pieces in order and stamped into both the header and
    /// `self`.
    pub(crate) fn seal_header<'a>(
        &mut self,
        payload: impl IntoIterator<Item = &'a [u8]>,
    ) -> [u8; CHUNK_HEADER_BYTES] {
        let mut header = [0u8; CHUNK_HEADER_BYTES];
        header[0..4].copy_from_slice(&self.rank.to_le_bytes());
        header[4..8].copy_from_slice(&self.count.to_le_bytes());
        header[8..12].copy_from_slice(&self.enc_len.to_le_bytes());
        // crc at bytes 12..16, stamped below
        header[16..24].copy_from_slice(&self.min_t.as_nanos().to_le_bytes());
        header[24..32].copy_from_slice(&self.max_t.as_nanos().to_le_bytes());
        header[32..40].copy_from_slice(&self.max_end.as_nanos().to_le_bytes());
        self.crc = chunk_crc(&header, payload);
        header[12..16].copy_from_slice(&self.crc.to_le_bytes());
        header
    }

    /// Parse the chunk header at the front of `raw`, read from file offset
    /// `offset`. Fewer than 40 bytes is chunk `index`'s
    /// [`TraceError::ShortChunk`].
    pub(crate) fn from_header(raw: &[u8], offset: u64, index: usize) -> Result<Self, TraceError> {
        let buf = &mut &raw[..];
        let mut header = || {
            Some(ChunkMeta {
                rank: take_u32(buf)?,
                count: take_u32(buf)?,
                enc_len: take_u32(buf)?,
                crc: take_u32(buf)?,
                min_t: take_time(buf)?,
                max_t: take_time(buf)?,
                max_end: take_time(buf)?,
                offset,
            })
        };
        header().ok_or(TraceError::ShortChunk { index })
    }

    /// Append the chunk's 48-byte footer-index entry.
    pub(crate) fn put_entry(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.enc_len.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.extend_from_slice(&self.min_t.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.max_t.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.max_end.as_nanos().to_le_bytes());
    }

    /// Take one footer-index entry off the front of `buf`. Fewer than 48
    /// bytes is a [`TraceError::TruncatedFooter`].
    pub(crate) fn take_entry(buf: &mut &[u8]) -> Result<Self, TraceError> {
        let mut entry = || {
            Some(ChunkMeta {
                rank: take_u32(buf)?,
                offset: take_u64(buf)?,
                enc_len: take_u32(buf)?,
                count: take_u32(buf)?,
                crc: take_u32(buf)?,
                min_t: take_time(buf)?,
                max_t: take_time(buf)?,
                max_end: take_time(buf)?,
            })
        };
        entry().ok_or(TraceError::TruncatedFooter)
    }
}

/// A chunk's CRC-32: its header's non-crc bytes, then its payload, in as
/// many pieces as it is held in.
pub(crate) fn chunk_crc<'a>(header: &[u8], payload: impl IntoIterator<Item = &'a [u8]>) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&header[..12])
        .update(&header[16..CHUNK_HEADER_BYTES]);
    for piece in payload {
        crc.update(piece);
    }
    crc.finish()
}

/// Take `N` bytes off the front of `buf`; `None`, leaving `buf` as it was,
/// when it holds fewer. With the `take_*` readers below, the only way the
/// store's fixed layouts are read.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// Take one byte off the front of `buf`.
#[inline]
pub(crate) fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = buf.split_first()?;
    *buf = rest;
    Some(byte)
}

/// Take a little-endian `u32` off the front of `buf`.
pub(crate) fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    take(buf).map(u32::from_le_bytes)
}

/// Take a little-endian `u64` off the front of `buf`.
pub(crate) fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    take(buf).map(u64::from_le_bytes)
}

fn take_time(buf: &mut &[u8]) -> Option<SimTime> {
    take_u64(buf).map(SimTime::from_nanos)
}

/// Take a `len u32 | utf-8 bytes` string off the front of `buf`.
fn take_string(buf: &mut &[u8]) -> Result<String, TraceError> {
    let n = take_u32(buf).ok_or(TraceError::BadString)? as usize;
    let (bytes, rest) = buf.split_at_checked(n).ok_or(TraceError::BadString)?;
    *buf = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::BadString)
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append the program name and function dictionary, as the preamble and
/// the footer both begin.
pub(crate) fn put_dictionary(out: &mut Vec<u8>, program: &str, functions: &[String]) {
    put_string(out, program);
    out.extend_from_slice(&(functions.len() as u32).to_le_bytes());
    for f in functions {
        put_string(out, f);
    }
}

/// Take what [`put_dictionary`] wrote off the front of `buf`.
pub(crate) fn take_dictionary(buf: &mut &[u8]) -> Result<(String, Vec<String>), TraceError> {
    let program = take_string(buf)?;
    let n = take_u32(buf).ok_or(TraceError::TruncatedFooter)? as usize;
    let mut functions = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        functions.push(take_string(buf)?);
    }
    Ok((program, functions))
}

/// Anything the streaming query layer can consume events from: a single
/// [`StoreReader`] or a rotated [`SegmentSet`]. The `vgv` reports
/// ([`crate::info_report`], [`crate::top_report`], …) and the streaming
/// builders ([`crate::Profile::from_store`],
/// [`crate::CommStats::from_store`]) are generic over this trait, so
/// rotation is transparent to every analysis.
pub trait EventSource {
    /// Program name recorded by the writer.
    fn program(&self) -> &str;

    /// Function dictionary (names indexed by `VtFuncId`).
    fn functions(&self) -> &[String];

    /// Index-only summary (no chunk payload is read).
    fn source_info(&self) -> StoreInfo;

    /// Distinct ranks present, ascending.
    fn source_ranks(&self) -> Vec<u32>;

    /// Per-rank `(events, min_t, max_t)` drawn from the index alone.
    fn source_rank_summary(&self) -> BTreeMap<u32, (u64, SimTime, SimTime)>;

    /// Stream every event overlapping `window` (closed interval; `None` =
    /// all time) on `rank` (`None` = all ranks) through `f`, decoding
    /// only chunks whose index envelope overlaps. Returns what it cost.
    /// Events arrive in file order (a family's segments oldest first), so
    /// each rank's are in recorded, causal order — all a call-stack replay
    /// needs.
    fn query(
        &mut self,
        window: Option<(SimTime, SimTime)>,
        rank: Option<u32>,
        f: &mut dyn FnMut(&Event),
    ) -> Result<QueryStats, TraceError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two fixed layouts read back what was written, and one byte
    /// short of either is a typed error.
    #[test]
    fn chunk_header_and_index_entry_round_trip() {
        let us = SimTime::from_micros;
        let mut meta = ChunkMeta {
            rank: 7,
            offset: 1 << 40,
            enc_len: 3,
            count: 2,
            crc: 0,
            min_t: us(5),
            max_t: us(9),
            max_end: us(11),
        };
        let header = meta.seal_header([&b"ab"[..], b"c"]);
        assert_eq!(meta.crc, chunk_crc(&header, [&b"abc"[..]]));
        assert_eq!(
            ChunkMeta::from_header(&header, meta.offset, 0).unwrap(),
            meta
        );
        assert!(matches!(
            ChunkMeta::from_header(&header[..CHUNK_HEADER_BYTES - 1], meta.offset, 3),
            Err(TraceError::ShortChunk { index: 3 })
        ));

        let mut entry = Vec::new();
        meta.put_entry(&mut entry);
        assert_eq!(entry.len(), 48);
        let mut buf = &entry[..];
        assert_eq!(ChunkMeta::take_entry(&mut buf).unwrap(), meta);
        assert!(buf.is_empty());
        assert!(matches!(
            ChunkMeta::take_entry(&mut &entry[..47]),
            Err(TraceError::TruncatedFooter)
        ));
    }
}
