//! The seeking store reader: footer-index open, one-chunk-at-a-time
//! decode, CRC verification, and windowed queries that never touch
//! non-overlapping chunks.
//!
//! Chunk bytes become events in exactly one place, `StoreReader::load`
//! behind [`StoreReader::chunk_events`]: one `read_exact` into a buffer the
//! reader owns, the CRC over that borrowed slice, and the decode into an event
//! vector the reader also owns. Queries, `fsck`, `repair` and `read_all`
//! all go through it, so a pass over a store allocates nothing
//! once the largest chunk has been seen.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use dynprof_sim::SimTime;
use dynprof_vt::{Event, Trace};

use super::codec::{decode_chunk, event_overlaps};
use super::crc::crc32;
use super::salvage::survey;
use super::{
    chunk_crc, take_dictionary, take_u32, take_u64, ChunkMeta, EventSource, CHUNK_HEADER_BYTES,
    HEADER_BYTES, STORE_MAGIC, STORE_VERSION, TRAILER_BYTES,
};
use crate::error::TraceError;

/// What one windowed query cost — and, in degraded mode, exactly what it
/// had to drop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Chunks in the store (after the rank filter).
    pub chunks_considered: usize,
    /// Chunks whose payload was read and decoded.
    pub chunks_decoded: usize,
    /// Chunks skipped purely from the footer index.
    pub chunks_skipped: usize,
    /// Chunks dropped because they failed their CRC or shape checks
    /// (only in degraded mode — strict readers error instead).
    pub chunks_bad: usize,
    /// Events lost with those dropped chunks, per the index's counts.
    pub events_lost: u64,
    /// Events delivered to the callback.
    pub events: u64,
}

/// What a footer-less salvage scan recovered and what it had to leave
/// behind (see [`StoreReader::open_salvage`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SalvageSummary {
    /// Chunks recovered by the forward scan.
    pub chunks_recovered: usize,
    /// Events inside those chunks.
    pub events_recovered: u64,
    /// Trailing bytes that could not be validated as a complete chunk —
    /// the torn tail the crash destroyed. 0 means the scan consumed the
    /// file exactly.
    pub tail_bytes_dropped: u64,
}

/// Summary of a store file, computed from the footer index alone
/// (no chunk payload is read).
#[derive(Clone, Debug, Default)]
pub struct StoreInfo {
    /// Program name.
    pub program: String,
    /// Registered function count.
    pub functions: usize,
    /// Total chunks.
    pub chunks: usize,
    /// Total events.
    pub events: u64,
    /// Distinct ranks.
    pub ranks: usize,
    /// File size in bytes.
    pub file_bytes: u64,
    /// Earliest event timestamp.
    pub t_min: SimTime,
    /// Latest event *start* timestamp.
    pub t_max: SimTime,
    /// Latest event *end* timestamp (spans included).
    pub t_end: SimTime,
    /// Segments backing this source (1 for a single file; rotated
    /// [`SegmentSet`](super::SegmentSet)s report their member count).
    pub segments: usize,
    /// Salvage summary when the source was opened footer-less.
    pub salvage: Option<SalvageSummary>,
}

/// One chunk's disk bytes and its decoded events: the scratch a chunk
/// walk reuses from chunk to chunk (a [`StoreReader`] owns one, the salvage
/// scan another). Both buffers only ever grow.
#[derive(Default)]
pub(crate) struct ChunkBuf {
    /// Header then payload, exactly as on disk.
    raw: Vec<u8>,
    /// How much of `raw` the current chunk occupies.
    len: usize,
    events: Vec<Event>,
}

impl ChunkBuf {
    /// Fill the buffer with the `len` bytes at `offset`: one `read_exact`.
    /// Callers bound `len` by the file size before asking.
    pub(crate) fn read(
        &mut self,
        file: &mut std::fs::File,
        offset: u64,
        len: usize,
    ) -> std::io::Result<()> {
        if self.raw.len() < len {
            self.raw.resize(len, 0);
        }
        self.len = len;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut self.raw[..len])
    }

    /// The bytes of the last [`ChunkBuf::read`].
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.raw[..self.len]
    }

    /// The CRC-32 of what was read, a header and its payload.
    pub(crate) fn crc(&self) -> u32 {
        let (header, payload) = self.bytes().split_at(CHUNK_HEADER_BYTES);
        chunk_crc(header, [payload])
    }

    /// Decode the payload behind the header as `count` events of `rank`
    /// (see [`decode_chunk`]: whole chunk or nothing).
    fn decode(&mut self, rank: u32, count: u32) -> Result<usize, TraceError> {
        let payload = &self.raw[CHUNK_HEADER_BYTES..self.len];
        decode_chunk(payload, rank, count, &mut self.events)
    }

    /// The events of the last successful [`ChunkBuf::decode`].
    fn events(&self) -> &[Event] {
        &self.events
    }
}

/// Reader over a `VGVS` store file. Holds the footer index in memory
/// (48 bytes per chunk); payloads are decoded one chunk at a time and
/// verified against their CRC-32.
pub struct StoreReader {
    file: std::fs::File,
    program: String,
    functions: Vec<String>,
    index: Vec<ChunkMeta>,
    file_bytes: u64,
    events: u64,
    degraded: bool,
    salvage: Option<SalvageSummary>,
    dropped_chunks: usize,
    dropped_events: u64,
    /// Largest chunk payload decoded so far — the reader's
    /// bounded-memory witness (`O(chunk)`, never `O(trace)`).
    peak_chunk_bytes: usize,
    /// The one chunk resident at a time.
    chunk: ChunkBuf,
}

impl StoreReader {
    /// Open a store file: validate magic/version, read the footer index.
    /// A missing or torn footer is the typed [`TraceError::TruncatedFooter`]
    /// — reach for [`StoreReader::open_salvage`] to recover such a
    /// capture.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreReader, TraceError> {
        let mut file = std::fs::File::open(path)?;
        let file_bytes = check_header(&mut file)?;
        if file_bytes < HEADER_BYTES + TRAILER_BYTES {
            return Err(TraceError::TruncatedFooter);
        }
        // Trailer: footer_len u64 | footer crc u32 | magic | version.
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        file.read_exact(&mut trailer)?;
        if &trailer[12..16] != STORE_MAGIC || trailer[16..] != STORE_VERSION.to_le_bytes() {
            return Err(TraceError::TruncatedFooter);
        }
        let mut fields = &trailer[..12];
        let (Some(footer_len), Some(footer_crc)) = (take_u64(&mut fields), take_u32(&mut fields))
        else {
            return Err(TraceError::TruncatedFooter);
        };
        // Checked arithmetic: a garbage footer_len near u64::MAX must be
        // a typed error, not a wrapping add that sneaks past the bound.
        let needed = footer_len
            .checked_add(TRAILER_BYTES)
            .and_then(|v| v.checked_add(HEADER_BYTES))
            .ok_or(TraceError::TruncatedFooter)?;
        if needed > file_bytes {
            return Err(TraceError::TruncatedFooter);
        }
        let back =
            i64::try_from(TRAILER_BYTES + footer_len).map_err(|_| TraceError::TruncatedFooter)?;
        file.seek(SeekFrom::End(-back))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer)?;
        if crc32(&footer) != footer_crc {
            return Err(TraceError::TruncatedFooter);
        }
        let mut buf: &[u8] = &footer;
        let (program, functions) = take_dictionary(&mut buf)?;
        let nc = take_u32(&mut buf).ok_or(TraceError::TruncatedFooter)? as usize;
        let mut index = Vec::with_capacity(nc.min(1 << 24));
        for i in 0..nc {
            let meta = ChunkMeta::take_entry(&mut buf)?;
            let end = meta
                .offset
                .checked_add(meta.disk_bytes())
                .ok_or(TraceError::ShortChunk { index: i })?;
            if end > file_bytes {
                return Err(TraceError::ShortChunk { index: i });
            }
            index.push(meta);
        }
        Ok(StoreReader::from_parts(
            file, program, functions, index, file_bytes,
        ))
    }

    /// Assemble a reader from already-validated parts (the salvage
    /// scanner builds its index without a footer).
    pub(crate) fn from_parts(
        file: std::fs::File,
        program: String,
        functions: Vec<String>,
        index: Vec<ChunkMeta>,
        file_bytes: u64,
    ) -> StoreReader {
        let events = index.iter().map(|m| m.count as u64).sum();
        StoreReader {
            file,
            program,
            functions,
            index,
            file_bytes,
            events,
            degraded: false,
            salvage: None,
            dropped_chunks: 0,
            dropped_events: 0,
            peak_chunk_bytes: 0,
            chunk: ChunkBuf::default(),
        }
    }

    /// Open a store whose footer is missing or torn (the writer died
    /// before [`StoreWriter::finish`](super::StoreWriter::finish)) by
    /// forward-scanning the self-describing chunk headers. Recovers every
    /// chunk whose bytes were fully flushed — each one proves itself via
    /// its CRC-32 — and reports the torn tail via
    /// [`StoreReader::salvage`]. See `vgv fsck [--repair]`.
    pub fn open_salvage(path: impl AsRef<Path>) -> Result<StoreReader, TraceError> {
        let survey = survey(path.as_ref())?;
        let mut reader = survey.reader;
        let chunks_recovered = reader.index.len();
        reader.salvage = Some(SalvageSummary {
            chunks_recovered,
            events_recovered: reader.events,
            tail_bytes_dropped: survey.tail_bytes,
        });
        Ok(reader)
    }

    /// Program name recorded by the writer.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// Function dictionary (names indexed by `VtFuncId`).
    pub fn functions(&self) -> &[String] {
        &self.functions
    }

    /// The footer index: one entry per chunk, in file order.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.index
    }

    /// Switch degraded mode on: queries skip chunks that fail their CRC
    /// or shape checks instead of erroring, counting every dropped chunk
    /// and event in [`QueryStats`] (and the session-level
    /// [`StoreReader::dropped_chunks`]) — corruption is reported, never
    /// silently absorbed.
    pub fn set_degraded(&mut self, on: bool) {
        self.degraded = on;
    }

    /// The salvage summary, when this reader was built by
    /// [`StoreReader::open_salvage`].
    pub fn salvage(&self) -> Option<SalvageSummary> {
        self.salvage
    }

    /// Chunks dropped by degraded-mode queries since open.
    pub fn dropped_chunks(&self) -> usize {
        self.dropped_chunks
    }

    /// Events lost with those dropped chunks, per the index's counts.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Largest chunk payload decoded so far — the bounded-memory witness
    /// for tests.
    pub fn peak_chunk_bytes(&self) -> usize {
        self.peak_chunk_bytes
    }

    /// Index-only store summary.
    pub fn info(&self) -> StoreInfo {
        let t_min = self
            .index
            .iter()
            .map(|m| m.min_t)
            .min()
            .unwrap_or(SimTime::ZERO);
        let t_max = self
            .index
            .iter()
            .map(|m| m.max_t)
            .max()
            .unwrap_or(SimTime::ZERO);
        let t_end = self
            .index
            .iter()
            .map(|m| m.max_end)
            .max()
            .unwrap_or(SimTime::ZERO);
        StoreInfo {
            program: self.program.clone(),
            functions: self.functions.len(),
            chunks: self.index.len(),
            events: self.events,
            ranks: self.ranks().len(),
            file_bytes: self.file_bytes,
            t_min,
            t_max,
            t_end,
            segments: 1,
            salvage: self.salvage,
        }
    }

    /// Chunk `i`'s events, read into the reader's own buffers (exactly one
    /// chunk resident at a time): its header checked against the index,
    /// its CRC-32 verified, and every event decoded before any is handed
    /// out — a chunk with one malformed event yields an error, never its
    /// intact front half.
    pub fn chunk_events(&mut self, i: usize) -> Result<&[Event], TraceError> {
        self.load(i)?;
        Ok(self.chunk.events())
    }

    /// [`StoreReader::chunk_events`], returning the chunk's disk bytes
    /// (header, then payload) instead of its events.
    pub(crate) fn load(&mut self, i: usize) -> Result<&[u8], TraceError> {
        let meta = *self
            .index
            .get(i)
            .ok_or(TraceError::ShortChunk { index: i })?;
        // `open` checked that the index entry lies inside the file, so the
        // length is bounded by the file's size.
        self.chunk
            .read(&mut self.file, meta.offset, meta.disk_bytes() as usize)
            .map_err(|_| TraceError::ShortChunk { index: i })?;
        let head = ChunkMeta::from_header(self.chunk.bytes(), meta.offset, i)?;
        if (head.rank, head.count, head.enc_len) != (meta.rank, meta.count, meta.enc_len) {
            return Err(TraceError::ShortChunk { index: i });
        }
        let actual = self.chunk.crc();
        if actual != head.crc || actual != meta.crc {
            return Err(TraceError::ChecksumMismatch { index: i });
        }
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(meta.enc_len as usize);
        self.chunk.decode(meta.rank, meta.count)?;
        Ok(self.chunk.bytes())
    }

    /// [`StoreReader::chunk_events`] as an owned vector.
    pub fn read_chunk(&mut self, i: usize) -> Result<Vec<Event>, TraceError> {
        self.chunk_events(i).map(<[Event]>::to_vec)
    }

    /// In degraded mode, absorb a chunk-content error as an accounted
    /// drop; strict mode propagates it. I/O errors always propagate.
    fn degrade(
        &mut self,
        i: usize,
        e: TraceError,
        stats: Option<&mut QueryStats>,
    ) -> Result<(), TraceError> {
        let droppable = matches!(
            e,
            TraceError::ChecksumMismatch { .. }
                | TraceError::ShortChunk { .. }
                | TraceError::BadEvent { .. }
        );
        if !self.degraded || !droppable {
            return Err(e);
        }
        let count = self.index.get(i).map(|m| m.count as u64).unwrap_or(0);
        self.dropped_chunks += 1;
        self.dropped_events += count;
        if let Some(stats) = stats {
            stats.chunks_bad += 1;
            stats.events_lost += count;
        }
        Ok(())
    }

    /// Stream every event overlapping `window` (closed interval; `None` =
    /// all time) on `rank` (`None` = all ranks) through `f`, decoding
    /// only chunks whose index envelope overlaps. Returns what it cost.
    /// In degraded mode ([`StoreReader::set_degraded`]) corrupt chunks
    /// are skipped and accounted in [`QueryStats::chunks_bad`] /
    /// [`QueryStats::events_lost`] instead of failing the query.
    pub fn for_each_query(
        &mut self,
        window: Option<(SimTime, SimTime)>,
        rank: Option<u32>,
        mut f: impl FnMut(&Event),
    ) -> Result<QueryStats, TraceError> {
        self.query(window, rank, &mut f)
    }

    /// Distinct ranks present, ascending.
    pub fn ranks(&self) -> Vec<u32> {
        let mut ranks: Vec<u32> = self.index.iter().map(|m| m.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Per-rank `(events, min_t, max_t)` drawn from the index alone.
    pub fn rank_summary(&self) -> BTreeMap<u32, (u64, SimTime, SimTime)> {
        let mut out: BTreeMap<u32, (u64, SimTime, SimTime)> = BTreeMap::new();
        for m in &self.index {
            let e = out.entry(m.rank).or_insert((0, m.min_t, m.max_t));
            e.0 += m.count as u64;
            e.1 = e.1.min(m.min_t);
            e.2 = e.2.max(m.max_t);
        }
        out
    }

    /// Materialize the whole store as a [`Trace`] (merged across ranks,
    /// `(time, rank)`-sorted) — the reference path the streaming queries
    /// are tested against.
    /// Memory is `O(trace)`; avoid on large stores.
    pub fn read_all(&mut self) -> Result<Trace, TraceError> {
        let mut events = Vec::with_capacity(self.events as usize);
        for i in 0..self.index.len() {
            match self.chunk_events(i) {
                Ok(chunk) => events.extend_from_slice(chunk),
                Err(e) => self.degrade(i, e, None)?,
            }
        }
        events.sort_by_key(|e| (e.time(), e.rank()));
        Ok(Trace {
            program: self.program.clone(),
            functions: self.functions.clone(),
            events,
        })
    }
}

impl EventSource for StoreReader {
    fn program(&self) -> &str {
        StoreReader::program(self)
    }

    fn functions(&self) -> &[String] {
        StoreReader::functions(self)
    }

    fn source_info(&self) -> StoreInfo {
        self.info()
    }

    fn source_ranks(&self) -> Vec<u32> {
        self.ranks()
    }

    fn source_rank_summary(&self) -> BTreeMap<u32, (u64, SimTime, SimTime)> {
        self.rank_summary()
    }

    fn query(
        &mut self,
        window: Option<(SimTime, SimTime)>,
        rank: Option<u32>,
        f: &mut dyn FnMut(&Event),
    ) -> Result<QueryStats, TraceError> {
        let mut stats = QueryStats::default();
        for i in 0..self.index.len() {
            let meta = self.index[i];
            if rank.is_some_and(|r| r != meta.rank) {
                continue;
            }
            stats.chunks_considered += 1;
            if let Some((t0, t1)) = window {
                if !meta.overlaps(t0, t1) {
                    stats.chunks_skipped += 1;
                    continue;
                }
            }
            match self.chunk_events(i) {
                Ok(events) => {
                    stats.chunks_decoded += 1;
                    for ev in events {
                        if let Some((t0, t1)) = window {
                            if !event_overlaps(ev, t0, t1) {
                                continue;
                            }
                        }
                        stats.events += 1;
                        f(ev);
                    }
                }
                Err(e) => self.degrade(i, e, Some(&mut stats))?,
            }
        }
        Ok(stats)
    }
}

/// Check the 8-byte file header — the `VGVS` magic, then
/// [`STORE_VERSION`] — and return the file's size.
pub(crate) fn check_header(file: &mut std::fs::File) -> Result<u64, TraceError> {
    let file_bytes = file.seek(SeekFrom::End(0))?;
    if file_bytes < HEADER_BYTES {
        return Err(TraceError::TruncatedHeader);
    }
    let mut head = [0u8; HEADER_BYTES as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut head)?;
    if &head[..4] != STORE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != STORE_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    Ok(file_bytes)
}
