//! The streaming store writer: bounded memory per rank, chunks flushed
//! the moment they fill, footer index written once at `finish()`. It is
//! an [`EventSink`]: installed on a trace library it captures the run as
//! it happens, the dictionary arriving name by name.
//!
//! Crash-consistency discipline (DESIGN §17): the salvageable preamble
//! (program + function dictionary) is written before the first chunk;
//! every chunk carries a CRC-32 over its header and payload; the footer
//! and trailer land last. At any kill point the file is therefore a
//! valid prefix — every fully-flushed chunk is recoverable by
//! [`StoreReader::open_salvage`](super::StoreReader::open_salvage), and
//! only the unflushed tail is at risk.

use std::collections::HashMap;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::OnceLock;

use bytes::{BufMut, BytesMut};
use dynprof_obs as obs;
use dynprof_sim::SimTime;
use dynprof_vt::{Event, EventSink, Trace, VtFuncId, VtLib};

use super::codec::{encode_event, event_end};
use super::crc::{crc32, Crc32};
use super::reader::StoreReader;
use super::{ChunkMeta, StoreOptions, HEADER_BYTES, STORE_MAGIC, STORE_VERSION, UNKNOWN_FUNC};
use crate::error::TraceError;

fn obs_chunks_written(n: u64) {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("analysis.chunks_written"))
        .add(n);
}

fn obs_store_bytes(n: u64) {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("analysis.store_bytes"))
        .add(n);
}

/// What one finished store write produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Chunks written.
    pub chunks: usize,
    /// Events written.
    pub events: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// High-water mark of encoder memory held across all open chunks —
    /// the writer's bounded-memory witness: `O(ranks × chunk_events)`
    /// regardless of trace length.
    pub peak_buffered_bytes: usize,
}

/// An open, per-rank chunk being encoded incrementally.
struct ChunkBuf {
    payload: BytesMut,
    count: u32,
    min_t: SimTime,
    max_t: SimTime,
    max_end: SimTime,
    prev_t: u64,
}

impl ChunkBuf {
    fn new() -> ChunkBuf {
        ChunkBuf {
            payload: BytesMut::new(),
            count: 0,
            min_t: SimTime(u64::MAX),
            max_t: SimTime::ZERO,
            max_end: SimTime::ZERO,
            prev_t: 0,
        }
    }
}

/// Streaming writer of the `VGVS` chunk-indexed store format
/// (version 2: CRC-32 chunks + salvageable preamble).
///
/// Append events in any rank order; each rank accumulates into its own
/// chunk, flushed to disk when [`StoreOptions::chunk_events`] is reached.
/// Call [`StoreWriter::finish`] to flush partial chunks and write the
/// footer index — a file without a footer is detected as
/// [`TraceError::TruncatedFooter`] by the reader and remains salvageable
/// chunk by chunk.
pub struct StoreWriter<W: Write + Seek> {
    out: W,
    pos: u64,
    opts: StoreOptions,
    program: String,
    functions: Vec<String>,
    preamble_written: bool,
    open: HashMap<u32, ChunkBuf>,
    index: Vec<ChunkMeta>,
    events: u64,
    buffered: usize,
    peak_buffered: usize,
    obs_counted: u64,
    deferred_err: Option<std::io::Error>,
}

impl StoreWriter<BufWriter<std::fs::File>> {
    /// Create a store file at `path`.
    pub fn create(
        path: impl AsRef<Path>,
        program: impl Into<String>,
        opts: StoreOptions,
    ) -> Result<Self, TraceError> {
        let file = std::fs::File::create(path)?;
        StoreWriter::new(BufWriter::new(file), program, opts)
    }
}

impl<W: Write + Seek> StoreWriter<W> {
    /// Wrap any seekable sink.
    pub fn new(
        mut out: W,
        program: impl Into<String>,
        opts: StoreOptions,
    ) -> Result<Self, TraceError> {
        let mut header = [0u8; HEADER_BYTES as usize];
        header[..4].copy_from_slice(STORE_MAGIC);
        header[4..6].copy_from_slice(&STORE_VERSION.to_le_bytes());
        out.write_all(&header)?;
        Ok(StoreWriter {
            out,
            pos: HEADER_BYTES,
            opts: StoreOptions {
                chunk_events: opts.chunk_events.max(1),
            },
            program: program.into(),
            functions: Vec::new(),
            preamble_written: false,
            open: HashMap::new(),
            index: Vec::new(),
            events: 0,
            buffered: 0,
            peak_buffered: 0,
            obs_counted: 0,
            deferred_err: None,
        })
    }

    /// Install the function dictionary (names indexed by `VtFuncId`).
    /// Names installed before the first chunk is flushed land in the
    /// salvageable preamble; later additions only reach the footer.
    pub fn set_functions(&mut self, names: Vec<String>) {
        self.functions = names;
    }

    /// Register one function name, returning its id (append-only; no
    /// dedup — callers that may repeat names should dedup themselves).
    pub fn define_function(&mut self, name: impl Into<String>) -> VtFuncId {
        self.functions.push(name.into());
        VtFuncId(self.functions.len() as u32 - 1)
    }

    /// Events appended so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Bytes this store occupies right now: what is on disk plus the
    /// open per-rank chunk buffers (the footer will add more at
    /// [`StoreWriter::finish`]). Rotation policies poll this.
    pub fn bytes_written(&self) -> u64 {
        self.pos + self.buffered as u64
    }

    /// Append one event to its rank's open chunk, flushing the chunk to
    /// disk if it reaches the configured size.
    pub fn append(&mut self, ev: &Event) {
        let rank = ev.rank();
        let buf = self.open.entry(rank).or_insert_with(ChunkBuf::new);
        let before = buf.payload.len();
        encode_event(&mut buf.payload, ev, &mut buf.prev_t);
        buf.count += 1;
        let t = ev.time();
        buf.min_t = buf.min_t.min(t);
        buf.max_t = buf.max_t.max(t);
        buf.max_end = buf.max_end.max(event_end(ev));
        self.events += 1;
        let full = buf.count as usize >= self.opts.chunk_events;
        self.buffered += buf.payload.len() - before;
        self.peak_buffered = self.peak_buffered.max(self.buffered);
        if full {
            self.flush_rank(rank);
        }
    }

    /// Write the salvage preamble (program + dictionary snapshot) if it
    /// has not been written yet. Must precede the first chunk so a
    /// footer-less scan can name what it recovers.
    fn ensure_preamble(&mut self) -> std::io::Result<()> {
        if self.preamble_written {
            return Ok(());
        }
        self.preamble_written = true;
        let framed = encode_preamble(&self.program, &self.functions);
        self.write_all_tracked(&framed)
    }

    /// Flush `rank`'s open chunk (no-op if empty). Errors are deferred to
    /// `finish()` so the hot path stays infallible.
    fn flush_rank(&mut self, rank: u32) {
        let Some(buf) = self.open.remove(&rank) else {
            return;
        };
        if buf.count == 0 {
            return;
        }
        let start = if obs::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        // Deferred error handling: remember the first failure, surface it
        // from finish(). (A wedged disk mid-run must not panic the sim.)
        if let Err(e) = self.ensure_preamble() {
            self.buffered -= buf.payload.len();
            if self.deferred_err.is_none() {
                self.deferred_err = Some(e);
            }
            return;
        }
        let mut meta = ChunkMeta {
            rank,
            offset: self.pos,
            enc_len: buf.payload.len() as u32,
            count: buf.count,
            crc: 0,
            min_t: buf.min_t,
            max_t: buf.max_t,
            max_end: buf.max_end,
        };
        let header = encode_chunk_header(&mut meta, &buf.payload);
        self.buffered -= buf.payload.len();
        let wrote = self
            .write_all_tracked(&header)
            .and_then(|()| self.write_all_tracked(&buf.payload));
        if let Err(e) = wrote {
            if self.deferred_err.is_none() {
                self.deferred_err = Some(e);
            }
            return;
        }
        self.index.push(meta);
        if let Some(t0) = start {
            obs::histogram("analysis.encode_real_ns").record(t0.elapsed().as_nanos() as u64);
            obs_chunks_written(1);
            let disk = header.len() as u64 + buf.payload.len() as u64;
            obs_store_bytes(disk);
            self.obs_counted += disk;
        }
    }

    fn write_all_tracked(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Flush every partial chunk, write the footer index and trailer, and
    /// return the write statistics.
    pub fn finish(mut self) -> Result<StoreStats, TraceError> {
        // Deterministic flush order for partial chunks: ascending rank.
        let mut pending: Vec<u32> = self.open.keys().copied().collect();
        pending.sort_unstable();
        for rank in pending {
            self.flush_rank(rank);
        }
        if let Some(e) = self.deferred_err.take() {
            return Err(TraceError::Io(e));
        }
        // An empty store still carries its preamble.
        self.ensure_preamble()?;
        let footer = encode_footer_and_trailer(&self.program, &self.functions, &self.index);
        self.write_all_tracked(&footer)?;
        self.out.flush()?;
        // Verify nothing was silently lost to a deferred chunk-write
        // failure: the stream position must match our byte accounting.
        let end = self.out.seek(SeekFrom::End(0))?;
        if end != self.pos {
            return Err(TraceError::Io(std::io::Error::other(
                "store write lost bytes (disk full mid-chunk?)",
            )));
        }
        if obs::enabled() {
            // Everything not yet counted per-chunk: header, preamble,
            // footer, trailer — so analysis.store_bytes == file length.
            obs_store_bytes(self.pos - self.obs_counted);
        }
        Ok(StoreStats {
            chunks: self.index.len(),
            events: self.events,
            bytes: self.pos,
            peak_buffered_bytes: self.peak_buffered,
        })
    }
}

/// Live capture: events are appended as the trace library settles them,
/// names join the dictionary as `VT_funcdef` registers them (those known
/// when the first chunk is flushed make the salvage preamble, all of them
/// the footer), and I/O errors wait for [`StoreWriter::finish`].
impl<W: Write + Seek + Send> EventSink for StoreWriter<W> {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        debug_assert_eq!(id.0 as usize, self.functions.len(), "ids arrive in order");
        self.functions.push(name.to_string());
    }

    fn push(&mut self, ev: &Event) {
        self.append(ev);
    }
}

/// Encode the version-2 chunk header for `meta`, computing and stamping
/// `meta.crc` (CRC-32 over the header's non-crc bytes then the payload).
pub(crate) fn encode_chunk_header(meta: &mut ChunkMeta, payload: &[u8]) -> BytesMut {
    let mut header = BytesMut::with_capacity(super::chunk_header_bytes(STORE_VERSION));
    header.put_u32_le(meta.rank);
    header.put_u32_le(meta.count);
    header.put_u32_le(meta.enc_len);
    header.put_u32_le(0); // crc placeholder at bytes 12..16
    header.put_u64_le(meta.min_t.as_nanos());
    header.put_u64_le(meta.max_t.as_nanos());
    header.put_u64_le(meta.max_end.as_nanos());
    let mut crc = Crc32::new();
    crc.update(&header[..12])
        .update(&header[16..])
        .update(payload);
    meta.crc = crc.finish();
    header[12..16].copy_from_slice(&meta.crc.to_le_bytes());
    header
}

/// Encode the framed salvage preamble: `len | crc32 | program | dict`.
pub(crate) fn encode_preamble(program: &str, functions: &[String]) -> BytesMut {
    let mut p = BytesMut::new();
    put_string(&mut p, program);
    p.put_u32_le(functions.len() as u32);
    for f in functions {
        put_string(&mut p, f);
    }
    let crc = crc32(&p);
    let mut framed = BytesMut::with_capacity(8 + p.len());
    framed.put_u32_le(p.len() as u32);
    framed.put_u32_le(crc);
    framed.put_slice(&p);
    framed
}

/// Encode the version-2 footer (program, dictionary, chunk index) plus
/// the 18-byte trailer (`footer_len | footer crc | magic | version`).
pub(crate) fn encode_footer_and_trailer(
    program: &str,
    functions: &[String],
    index: &[ChunkMeta],
) -> BytesMut {
    let mut footer = BytesMut::new();
    put_string(&mut footer, program);
    footer.put_u32_le(functions.len() as u32);
    for f in functions {
        put_string(&mut footer, f);
    }
    footer.put_u32_le(index.len() as u32);
    for m in index {
        footer.put_u32_le(m.rank);
        footer.put_u64_le(m.offset);
        footer.put_u32_le(m.enc_len);
        footer.put_u32_le(m.count);
        footer.put_u32_le(m.crc);
        footer.put_u64_le(m.min_t.as_nanos());
        footer.put_u64_le(m.max_t.as_nanos());
        footer.put_u64_le(m.max_end.as_nanos());
    }
    let footer_len = footer.len() as u64;
    let footer_crc = crc32(&footer);
    footer.put_u64_le(footer_len);
    footer.put_u32_le(footer_crc);
    footer.put_slice(STORE_MAGIC);
    footer.put_u16_le(STORE_VERSION);
    footer
}

pub(crate) fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Flush a [`VtLib`]'s per-rank trace buffers into a store file after the
/// run — the buffered reference a live capture (the writer installed as
/// the library's sink) is tested against. Events stream rank by rank
/// through the bounded writer; no merged `O(trace)` vector is ever built.
pub fn write_store_from_vt(
    vt: &VtLib,
    path: impl AsRef<Path>,
    opts: StoreOptions,
) -> Result<StoreStats, TraceError> {
    let mut w = StoreWriter::create(path, vt.program(), opts)?;
    w.set_functions(vt.function_names());
    for rank in 0..vt.ranks() {
        vt.with_rank_events(rank, |events| {
            for ev in events {
                w.append(ev);
            }
        });
    }
    w.finish()
}

/// Convert an in-memory (legacy) [`Trace`] into a store file.
pub fn write_store_from_trace(
    trace: &Trace,
    path: impl AsRef<Path>,
    opts: StoreOptions,
) -> Result<StoreStats, TraceError> {
    let mut w = StoreWriter::create(path, trace.program.clone(), opts)?;
    w.set_functions(trace.functions.clone());
    for ev in &trace.events {
        w.append(ev);
    }
    w.finish()
}

/// Compact several store segments (e.g. one small file per rank group)
/// into a single indexed store. Function dictionaries are unioned by
/// name; events whose segment used different ids are re-mapped. Every
/// input chunk's CRC is re-verified on the way through (a corrupt input
/// fails compaction with a typed [`TraceError::ChecksumMismatch`]), and
/// the output is freshly checksummed by the writer.
pub fn compact(
    inputs: &[impl AsRef<Path>],
    out: impl AsRef<Path>,
    opts: StoreOptions,
) -> Result<StoreStats, TraceError> {
    let mut readers = Vec::with_capacity(inputs.len());
    for p in inputs {
        readers.push(StoreReader::open(p)?);
    }
    let program = readers
        .first()
        .map(|r| r.program().to_string())
        .unwrap_or_default();
    // Union dictionary, preserving first-seen order.
    let mut names: Vec<String> = Vec::new();
    let mut remaps: Vec<Vec<u32>> = Vec::new();
    for r in &readers {
        let mut remap = Vec::with_capacity(r.functions().len());
        for f in r.functions() {
            match names.iter().position(|n| n == f) {
                Some(i) => remap.push(i as u32),
                None => {
                    names.push(f.clone());
                    remap.push(names.len() as u32 - 1);
                }
            }
        }
        remaps.push(remap);
    }
    let mut w = StoreWriter::create(out, program, opts)?;
    w.set_functions(names);
    for (r, remap) in readers.iter_mut().zip(&remaps) {
        for i in 0..r.chunks().len() {
            for mut ev in r.read_chunk(i)? {
                remap_func(&mut ev, remap);
                w.append(&ev);
            }
        }
    }
    w.finish()
}

/// Re-number `ev`'s function id from its member's dictionary into the
/// union's. An id the member never defined becomes [`UNKNOWN_FUNC`]: left
/// as it was, it would name whichever function holds that slot in the
/// union.
pub(crate) fn remap_func(ev: &mut Event, remap: &[u32]) {
    if let Event::FuncEnter { func, .. }
    | Event::FuncExit { func, .. }
    | Event::FuncBatch { func, .. }
    | Event::FuncSuppressed { func, .. } = ev
    {
        *func = remap
            .get(func.0 as usize)
            .map_or(UNKNOWN_FUNC, |&to| VtFuncId(to));
    }
}
