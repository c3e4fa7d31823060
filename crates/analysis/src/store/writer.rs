//! The streaming store writer: bounded memory per rank, chunks sealed the
//! moment they fill, footer index written once at `finish()`.
//!
//! A rank's open chunk — its **stage**, a [`ChunkBuf`] — is private to
//! whoever feeds that rank: the writer's own rank-indexed table for the
//! offline feeders, a [`Lane`] held by the trace library for a live
//! capture (the writer is an [`EventSink`]). The **file half** is shared
//! behind a mutex taken once per sealed chunk, never per event.
//! [`ChunkBuf::stage`] is the only encoder and `FileHalf::seal` the only
//! writer of a chunk, whoever calls them.
//!
//! Crash-consistency discipline (DESIGN §17): the salvageable preamble
//! (program + function dictionary) is written before the first chunk;
//! every chunk carries a CRC-32 over its header and payload; the footer
//! and trailer land last. At any kill point the file is therefore a
//! valid prefix — every fully-flushed chunk is recoverable by
//! [`StoreReader::open_salvage`](super::StoreReader::open_salvage), and
//! only the unflushed tail is at risk.

use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bytes::{BufMut, BytesMut};
use dynprof_obs as obs;
use dynprof_sim::SimTime;
use dynprof_vt::{locked, Event, EventSink, Lane, Trace, VtFuncId, VtLib};

use super::codec::{event_end, ShapeTableV4};
use super::crc::{crc32, Crc32};
use super::reader::StoreReader;
use super::{
    ChunkMeta, StoreOptions, CHUNK_HEADER_BYTES, HEADER_BYTES, STORE_MAGIC, STORE_VERSION,
    UNKNOWN_FUNC,
};
use crate::dense::{DenseMap, DENSE_RANKS};
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
    /// The largest payload each rank handed over, summed: an upper bound on
    /// the encoder memory ever held in open chunks — the bounded-memory
    /// witness, `O(ranks × chunk_events)` regardless of trace length.
    pub peak_buffered_bytes: usize,
}

/// One rank's open chunk, encoded incrementally: a stage. Sealing it
/// empties it — the shape table too, so every chunk decodes on its own —
/// and keeps its allocation for the rank's next chunk.
pub struct ChunkBuf {
    payload: BytesMut,
    count: u32,
    min_t: SimTime,
    max_t: SimTime,
    max_end: SimTime,
    prev_t: u64,
    /// The open chunk's recurrence table (see [`super::codec`]).
    shapes: ShapeTableV4,
    /// The largest payload this stage has handed over
    /// ([`StoreStats::peak_buffered_bytes`]).
    high_water: usize,
}

impl Default for ChunkBuf {
    /// An empty stage; allocates at the first event.
    fn default() -> ChunkBuf {
        ChunkBuf {
            payload: BytesMut::new(),
            count: 0,
            min_t: SimTime(u64::MAX),
            max_t: SimTime::ZERO,
            max_end: SimTime::ZERO,
            prev_t: 0,
            shapes: ShapeTableV4::default(),
            high_water: 0,
        }
    }
}

impl ChunkBuf {
    /// Events staged since the last seal.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encode `ev` onto the open chunk and widen its envelope; returns the
    /// bytes it took.
    #[inline]
    pub fn stage(&mut self, ev: &Event) -> usize {
        let before = self.payload.len();
        self.shapes.encode(&mut self.payload, ev, &mut self.prev_t);
        self.count += 1;
        let t = ev.time();
        self.min_t = self.min_t.min(t);
        self.max_t = self.max_t.max(t);
        self.max_end = self.max_end.max(event_end(ev));
        self.payload.len() - before
    }

    /// Encoded bytes staged since the last seal.
    pub(crate) fn staged_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Start the next chunk in the same allocation.
    pub fn clear(&mut self) {
        self.payload.clear();
        *self = ChunkBuf {
            payload: std::mem::take(&mut self.payload),
            high_water: self.high_water,
            ..ChunkBuf::default()
        };
    }
}

/// Where sealed chunks go: the half of a capture its lanes share.
pub(crate) trait Seal {
    /// Write `chunk` out as one chunk of `rank` and empty it (no-op if it
    /// is empty). Infallible: an I/O error waits for `finish()`.
    fn seal(&mut self, rank: u32, chunk: &mut ChunkBuf);

    /// Every stage is empty and the [`Meter`] is at its cap: close the
    /// sub-buffer generation.
    fn roll(&mut self) {}
}

/// What a capture *with a cap* and its lanes share so the cap trips before
/// an event is staged without asking the shared half: the caps, and the
/// open generation's bytes (on disk + staged) and events. `Relaxed`: one
/// simulated process executes at a time.
pub(crate) struct Meter {
    max_bytes: Option<u64>,
    max_events: Option<u64>,
    disk: AtomicU64,
    staged: AtomicU64,
    events: AtomicU64,
}

impl Meter {
    /// A meter over a generation whose file holds `pos` bytes so far.
    pub(crate) fn new(max_bytes: Option<u64>, max_events: Option<u64>, pos: u64) -> Meter {
        Meter {
            max_bytes,
            max_events,
            disk: AtomicU64::new(pos),
            staged: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }

    /// One event of `bytes` encoded bytes was staged.
    #[inline]
    pub(crate) fn note_staged(&self, bytes: usize) {
        self.staged.fetch_add(bytes as u64, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    /// A stage of `payload` bytes was sealed; the file now ends at `pos`.
    pub(crate) fn note_sealed(&self, payload: usize, pos: u64) {
        self.staged.fetch_sub(payload as u64, Ordering::Relaxed);
        self.disk.store(pos, Ordering::Relaxed);
    }

    /// A fresh generation whose file holds `pos` bytes so far.
    pub(crate) fn reset(&self, pos: u64) {
        self.disk.store(pos, Ordering::Relaxed);
        self.events.store(0, Ordering::Relaxed);
    }

    /// Bytes still in stages.
    pub(crate) fn staged(&self) -> u64 {
        self.staged.load(Ordering::Relaxed)
    }

    /// Has the open generation — never an empty one — reached a cap?
    #[inline]
    pub(crate) fn at_cap(&self) -> bool {
        let events = self.events.load(Ordering::Relaxed);
        let bytes = self.disk.load(Ordering::Relaxed) + self.staged();
        events > 0
            && (self.max_bytes.is_some_and(|cap| bytes >= cap)
                || self.max_events.is_some_and(|cap| events >= cap))
    }
}

/// One rank's lane into a store: its stage, and a handle on the shared
/// half that is locked once per sealed chunk.
pub(crate) struct StoreLane {
    pub(crate) rank: u32,
    pub(crate) stage: ChunkBuf,
    pub(crate) chunk_events: usize,
    pub(crate) shared: Arc<Mutex<dyn Seal + Send>>,
    /// Present when the capture has a cap.
    pub(crate) meter: Option<Arc<Meter>>,
}

impl Lane for StoreLane {
    fn push(&mut self, ev: &Event) -> bool {
        if let Some(meter) = &self.meter {
            if meter.at_cap() {
                if meter.staged() > 0 {
                    return false;
                }
                locked(&self.shared).roll();
            }
        }
        let bytes = self.stage.stage(ev);
        if let Some(meter) = &self.meter {
            meter.note_staged(bytes);
        }
        if self.stage.len() >= self.chunk_events {
            locked(&self.shared).seal(self.rank, &mut self.stage);
        }
        true
    }

    fn switch(&mut self) {
        if !self.stage.is_empty() {
            locked(&self.shared).seal(self.rank, &mut self.stage);
        }
    }

    fn close(mut self: Box<Self>) {
        self.switch();
    }
}

/// The file half of a store being written: everything but the open chunks.
pub(crate) struct FileHalf<W: Write + Seek> {
    out: W,
    pos: u64,
    program: String,
    functions: Vec<String>,
    preamble_written: bool,
    index: Vec<ChunkMeta>,
    events: u64,
    peak_buffered: usize,
    obs_counted: u64,
    deferred_err: Option<std::io::Error>,
}

impl FileHalf<BufWriter<std::fs::File>> {
    /// The file half of a new store file at `path`.
    pub(crate) fn create(path: &Path, program: String) -> Result<Self, TraceError> {
        FileHalf::new(BufWriter::new(std::fs::File::create(path)?), program)
    }
}

impl<W: Write + Seek> FileHalf<W> {
    fn new(mut out: W, program: String) -> Result<Self, TraceError> {
        out.write_all(&encode_header(STORE_VERSION))?;
        Ok(FileHalf {
            out,
            pos: HEADER_BYTES,
            program,
            functions: Vec::new(),
            preamble_written: false,
            index: Vec::new(),
            events: 0,
            peak_buffered: 0,
            obs_counted: 0,
            deferred_err: None,
        })
    }

    /// Bytes written to the file so far.
    pub(crate) fn pos(&self) -> u64 {
        self.pos
    }

    pub(crate) fn set_functions(&mut self, names: Vec<String>) {
        self.functions = names;
    }

    pub(crate) fn funcdef(&mut self, id: VtFuncId, name: &str) {
        debug_assert_eq!(id.0 as usize, self.functions.len(), "ids arrive in order");
        self.functions.push(name.to_string());
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

    fn write_all_tracked(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn write_chunk(&mut self, rank: u32, chunk: &ChunkBuf) -> std::io::Result<()> {
        self.ensure_preamble()?;
        let mut meta = ChunkMeta {
            rank,
            offset: self.pos,
            enc_len: chunk.payload.len() as u32,
            count: chunk.count,
            crc: 0,
            min_t: chunk.min_t,
            max_t: chunk.max_t,
            max_end: chunk.max_end,
        };
        let header = encode_chunk_header(&mut meta, &chunk.payload);
        self.write_all_tracked(&header)?;
        self.write_all_tracked(&chunk.payload)?;
        self.index.push(meta);
        Ok(())
    }

    /// Write the footer index and trailer, and return the write
    /// statistics. Every stage has been sealed by now.
    pub(crate) fn finish(&mut self) -> Result<StoreStats, TraceError> {
        if let Some(e) = self.deferred_err.take() {
            return Err(TraceError::Io(e));
        }
        // An empty store still carries its preamble.
        self.ensure_preamble()?;
        let footer =
            encode_footer_and_trailer(&self.program, &self.functions, &self.index, STORE_VERSION);
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

impl<W: Write + Seek> Seal for FileHalf<W> {
    /// Write `chunk` out as one chunk of `rank` — header + CRC + payload +
    /// index entry, the only place that does — and empty it (no-op if it
    /// is empty). The first failure is remembered for `finish()`: a wedged
    /// disk mid-run must not panic the sim.
    fn seal(&mut self, rank: u32, chunk: &mut ChunkBuf) {
        if chunk.is_empty() {
            return;
        }
        let start = obs::enabled().then(std::time::Instant::now);
        let len = chunk.payload.len();
        self.events += u64::from(chunk.count);
        if len > chunk.high_water {
            self.peak_buffered += len - chunk.high_water;
            chunk.high_water = len;
        }
        match self.write_chunk(rank, chunk) {
            Ok(()) => {
                if let Some(t0) = start {
                    obs::histogram("analysis.encode_real_ns")
                        .record(t0.elapsed().as_nanos() as u64);
                    obs_chunks_written(1);
                    let disk = (CHUNK_HEADER_BYTES + len) as u64;
                    obs_store_bytes(disk);
                    self.obs_counted += disk;
                }
            }
            Err(e) => {
                self.deferred_err.get_or_insert(e);
            }
        }
        chunk.clear();
    }
}

/// Streaming writer of the `VGVS` chunk-indexed store format
/// (version 4: CRC-32 chunks, a salvageable preamble, recurrence-coded
/// payloads).
///
/// Append events in any rank order; each rank accumulates into its own
/// stage, sealed to disk when [`StoreOptions::chunk_events`] is reached.
/// Call [`StoreWriter::finish`] to seal partial chunks and write the
/// footer index — a file without a footer is detected as
/// [`TraceError::TruncatedFooter`] by the reader and remains salvageable
/// chunk by chunk.
pub struct StoreWriter<W: Write + Seek> {
    file: Arc<Mutex<FileHalf<W>>>,
    /// The offline feeders' stages, by rank.
    stages: DenseMap<ChunkBuf>,
    chunk_events: usize,
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
    pub fn new(out: W, program: impl Into<String>, opts: StoreOptions) -> Result<Self, TraceError> {
        Ok(StoreWriter {
            file: Arc::new(Mutex::new(FileHalf::new(out, program.into())?)),
            stages: DenseMap::new(DENSE_RANKS),
            chunk_events: opts.chunk_events.max(1),
        })
    }

    /// Install the function dictionary (names indexed by `VtFuncId`).
    /// Names installed before the first chunk is flushed land in the
    /// salvageable preamble; later additions only reach the footer.
    pub fn set_functions(&mut self, names: Vec<String>) {
        locked(&self.file).set_functions(names);
    }

    /// Append one event to its rank's stage, sealing the chunk to disk if
    /// it reaches the configured size.
    pub fn append(&mut self, ev: &Event) {
        let rank = ev.rank();
        let stage = self.stages.entry(rank, ChunkBuf::default);
        stage.stage(ev);
        if stage.len() >= self.chunk_events {
            locked(&self.file).seal(rank, stage);
        }
    }

    /// Seal every partial chunk, write the footer index and trailer, and
    /// return the write statistics.
    pub fn finish(mut self) -> Result<StoreStats, TraceError> {
        let mut file = locked(&self.file);
        // Deterministic order for partial chunks: ascending rank.
        for (rank, stage) in self.stages.iter_mut() {
            file.seal(rank, stage);
        }
        file.finish()
    }
}

/// Live capture: names join the dictionary as `VT_funcdef` registers them
/// (those known at the first seal make the salvage preamble, all of them
/// the footer), and I/O errors wait for [`StoreWriter::finish`].
impl<W: Write + Seek + Send + 'static> EventSink for StoreWriter<W> {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        locked(&self.file).funcdef(id, name);
    }

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        Box::new(StoreLane {
            rank,
            stage: ChunkBuf::default(),
            chunk_events: self.chunk_events,
            shared: Arc::clone(&self.file) as _,
            meter: None,
        })
    }
}

/// Encode the chunk header for `meta`, computing and stamping
/// `meta.crc` (CRC-32 over the header's non-crc bytes then the payload).
pub(crate) fn encode_chunk_header(
    meta: &mut ChunkMeta,
    payload: &[u8],
) -> [u8; CHUNK_HEADER_BYTES] {
    let mut header = [0u8; CHUNK_HEADER_BYTES];
    header[0..4].copy_from_slice(&meta.rank.to_le_bytes());
    header[4..8].copy_from_slice(&meta.count.to_le_bytes());
    header[8..12].copy_from_slice(&meta.enc_len.to_le_bytes());
    // crc at bytes 12..16, stamped below
    header[16..24].copy_from_slice(&meta.min_t.as_nanos().to_le_bytes());
    header[24..32].copy_from_slice(&meta.max_t.as_nanos().to_le_bytes());
    header[32..40].copy_from_slice(&meta.max_end.as_nanos().to_le_bytes());
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

/// The 8-byte file header: magic, `version`, no flags.
pub(crate) fn encode_header(version: u16) -> [u8; HEADER_BYTES as usize] {
    let mut header = [0u8; HEADER_BYTES as usize];
    header[..4].copy_from_slice(STORE_MAGIC);
    header[4..6].copy_from_slice(&version.to_le_bytes());
    header
}

/// Encode the footer (program, dictionary, chunk index) plus
/// the 18-byte trailer (`footer_len | footer crc | magic | version`).
pub(crate) fn encode_footer_and_trailer(
    program: &str,
    functions: &[String],
    index: &[ChunkMeta],
    version: u16,
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
    footer.put_u16_le(version);
    footer
}

fn put_string(buf: &mut BytesMut, s: &str) {
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

/// Write an in-memory [`Trace`] as a store file.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A sealed stage starts its next chunk in the allocation the last one
    /// grew: nothing is dropped and regrown by doubling.
    #[test]
    fn a_sealed_stage_keeps_its_allocation() {
        let opts = StoreOptions { chunk_events: 64 };
        let mut w = StoreWriter::new(std::io::Cursor::new(Vec::new()), "t", opts).unwrap();
        let chunk = |w: &mut StoreWriter<_>| {
            for i in 0..64 {
                w.append(&Event::ConfSync {
                    t: SimTime::from_micros(i),
                    rank: 0,
                    epoch: i as u32,
                });
            }
            let stage = w.stages.get(0).expect("rank 0 staged");
            assert!(stage.is_empty(), "the 64th event sealed the chunk");
            stage.payload.capacity()
        };
        let cap = chunk(&mut w);
        assert!(cap >= 64 * 3, "{cap}");
        assert_eq!(chunk(&mut w), cap);
        assert_eq!(chunk(&mut w), cap);
        let stats = w.finish().unwrap();
        assert_eq!((stats.chunks, stats.events), (3, 192));
        assert!(stats.peak_buffered_bytes <= cap);
    }
}
