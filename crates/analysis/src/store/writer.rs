//! The streaming store writer: bounded memory per capture, chunks sealed
//! the moment they fill, footer index written once at `finish()`.
//!
//! A rank's open chunk — its **stage**, a [`ChunkBuf`] — lives in that
//! rank's [`Lane`]: held by the trace library for a live capture (the
//! writer is an [`EventSink`]), or by the writer's own rank-indexed table
//! of the same lanes for the offline feeders. The **file half** is shared
//! behind a mutex taken once per sealed chunk, never per event.
//! [`ChunkBuf::stage`] is the only encoder, `StoreLane::push` the only
//! staging step and `FileHalf::seal` the only writer of a chunk, whoever
//! feeds them.
//!
//! A stage holds its payload in memory until the capture's stages hold
//! more than [`STAGE_BUDGET`]; from then on a stage that finishes a block
//! moves its full blocks to the capture's [`Spill`], an unlinked scratch
//! file, and keeps one block in memory. A capture therefore holds about
//! one block per rank plus the budget, however many ranks it has; the seal
//! reads the spilled blocks back, and the chunk it writes is the same
//! bytes either way.
//!
//! Crash-consistency discipline (DESIGN §17): the salvageable preamble
//! (program + function dictionary) is written before the first chunk;
//! every chunk carries a CRC-32 over its header and payload; the footer
//! and trailer land last. At any kill point the file is therefore a
//! valid prefix — every fully-flushed chunk is recoverable by
//! [`StoreReader::open_salvage`](super::StoreReader::open_salvage), and
//! only the unflushed tail is at risk.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dynprof_sim::SimTime;
use dynprof_vt::{locked, Event, EventSink, Lane, Trace, VtFuncId, VtLib};

use super::codec::{event_end, Put, ShapeTable};
use super::crc::crc32;
use super::{
    put_dictionary, ChunkMeta, StoreOptions, HEADER_BYTES, STORE_MAGIC, STORE_VERSION, UNKNOWN_FUNC,
};
use crate::dense::{DenseMap, DENSE_RANKS};
use crate::error::TraceError;

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

/// Bytes in one block of a stage, and in one slot of a [`Spill`]. A stage
/// holds its payload in blocks of this size, taken as it grows and never
/// moved or regrown (a doubling vector holds up to twice what it staged
/// and frees each buffer it outgrows); a stage past the capture's
/// [`STAGE_BUDGET`] keeps only the block it is filling and spills the
/// rest whole.
const BLOCK: usize = 256;

/// Staged payload, in bytes, a capture holds in memory across its ranks
/// before its stages start to spill: counted in whole blocks, spare ones
/// included. Above the most one rank stages in a chunk of the default
/// size (2 048 events of at most 39 bytes, about 80 KB), so a one-process
/// capture never spills; a wide one holds about this plus a block per
/// rank.
pub const STAGE_BUDGET: usize = 256 * 1024;

/// One event's encoding on its way into a stage: the longest, a literal
/// with every field at its full width, is 39 bytes.
struct Scratch {
    bytes: [u8; 64],
    len: usize,
}

impl Put for Scratch {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }
}

/// One block of a stage's payload, and the block chained after it.
struct Block {
    bytes: [u8; BLOCK],
    next: Option<Box<Block>>,
}

impl Drop for Block {
    /// Unchain the rest first: a chain as long as a chunk is dropped in a
    /// loop, not one frame a block.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(mut block) = next {
            next = block.next.take();
        }
    }
}

/// One rank's open chunk, encoded incrementally: a stage. Sealing it
/// empties it — the shape table too, so every chunk decodes on its own —
/// and keeps its blocks for the rank's next chunk.
pub struct ChunkBuf {
    /// The spilled head of the payload, in order: its first
    /// `slots.len() * BLOCK` bytes are these slots of the spill.
    slots: Vec<u32>,
    /// The payload's blocks in memory while it is staged, the one being
    /// filled first, each chained to the one filled before it: the rest
    /// of the payload is their bytes in the reverse order, an event
    /// straddling a block edge where it falls.
    filled: Option<Box<Block>>,
    /// The blocks to fill next, in order: those earlier chunks filled.
    /// Sealing puts the payload's blocks at the front, in payload order
    /// ([`ChunkBuf::settle`]), so the next chunk fills the same blocks in
    /// the same order.
    spare: Option<Box<Block>>,
    len: usize,
    count: u32,
    min_t: SimTime,
    max_t: SimTime,
    max_end: SimTime,
    prev_t: u64,
    /// The open chunk's recurrence table (see [`super::codec`]).
    shapes: ShapeTable,
    /// The largest payload this stage has handed over
    /// ([`StoreStats::peak_buffered_bytes`]).
    high_water: usize,
    /// The capture's spill, for a stage that may spill.
    stash: Option<Stash>,
}

impl Default for ChunkBuf {
    /// An empty stage that never spills; takes its first block at the
    /// first event.
    fn default() -> ChunkBuf {
        ChunkBuf {
            slots: Vec::new(),
            filled: None,
            spare: None,
            len: 0,
            count: 0,
            min_t: SimTime(u64::MAX),
            max_t: SimTime::ZERO,
            max_end: SimTime::ZERO,
            prev_t: 0,
            shapes: ShapeTable::default(),
            high_water: 0,
            stash: None,
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
        let mut scratch = Scratch {
            bytes: [0; 64],
            len: 0,
        };
        self.shapes.encode(&mut scratch, ev, &mut self.prev_t);
        self.append(&scratch);
        self.count += 1;
        let t = ev.time();
        self.min_t = self.min_t.min(t);
        self.max_t = self.max_t.max(t);
        self.max_end = self.max_end.max(event_end(ev));
        scratch.len
    }

    /// Append an event's bytes to the payload, across a block edge if
    /// they reach one, taking a block at each edge.
    #[inline]
    fn append(&mut self, event: &Scratch) {
        let at = self.len % BLOCK;
        // Room for the whole scratch in the block being filled: one
        // fixed-size copy. What it copies past the event lies past the
        // payload, and the next event overwrites it.
        let block = self.filled.as_mut().filter(|_| at > 0);
        if let Some(room) = block.and_then(|b| b.bytes.get_mut(at..at + event.bytes.len())) {
            room.copy_from_slice(&event.bytes);
            self.len += event.len;
            return;
        }
        let mut bytes = &event.bytes[..event.len];
        while !bytes.is_empty() {
            let at = self.len % BLOCK;
            if at == 0 {
                self.take_block();
            }
            let block = self.filled.as_mut().expect("a block is being filled");
            let (now, rest) = bytes.split_at(bytes.len().min(BLOCK - at));
            block.bytes[at..at + now.len()].copy_from_slice(now);
            self.len += now.len();
            bytes = rest;
        }
    }

    /// Start filling the next spare block, or a new one. The blocks filled
    /// so far are full: a stage that spills moves them to the spill first,
    /// and fills the newest again.
    fn take_block(&mut self) {
        if self.filled.is_some() && self.stash.as_mut().is_some_and(Stash::spills_at_edge) {
            self.spill_full();
        }
        let mut block = match self.spare.take() {
            Some(mut block) => {
                self.spare = block.next.take();
                block
            }
            None => {
                if let Some(stash) = &mut self.stash {
                    stash.hold();
                }
                Box::new(Block {
                    bytes: [0; BLOCK],
                    next: None,
                })
            }
        };
        block.next = self.filled.take();
        self.filled = Some(block);
    }

    /// Write every filled block, all full, to the spill, and keep the
    /// newest as the only block, spare: the stage spills from here on.
    /// Nothing moves if the spill fails; the error waits for `finish()`.
    fn spill_full(&mut self) {
        let Some(stash) = &mut self.stash else {
            return;
        };
        let spilled = self.slots.len();
        let full = self.len / BLOCK - spilled;
        let blocks = std::iter::successors(self.filled.as_deref(), |b| b.next.as_deref());
        if !stash.spill.put(blocks, full, &mut self.slots) {
            return;
        }
        debug_assert_eq!(self.slots.len(), spilled + full);
        let mut keep = self.filled.take().expect("a block was filled");
        keep.next = None;
        self.spare = Some(keep);
        stash.keep_one();
    }

    /// Chain the payload's blocks at the front of the spare ones, in
    /// payload order, for [`ChunkBuf::pieces`] to read.
    fn settle(&mut self) {
        while let Some(mut block) = self.filled.take() {
            self.filled = block.next.take();
            block.next = self.spare.take();
            self.spare = Some(block);
        }
    }

    /// Read the spilled head of the payload into `into`, one read per run
    /// of consecutive slots; `into` is left empty when nothing spilled.
    fn unspill(&self, into: &mut Vec<u8>) -> std::io::Result<()> {
        into.clear();
        match &self.stash {
            Some(stash) if !self.slots.is_empty() => stash.spill.read(&self.slots, into),
            _ => Ok(()),
        }
    }

    /// The payload in order: `spilled`, its head as [`ChunkBuf::unspill`]
    /// read it, then one piece per block it occupies in memory. The stage
    /// is settled.
    fn pieces<'a>(&'a self, spilled: &'a [u8]) -> impl Iterator<Item = &'a [u8]> {
        debug_assert!(self.filled.is_none(), "pieces of an unsettled stage");
        debug_assert_eq!(spilled.len(), self.slots.len() * BLOCK);
        let blocks = std::iter::successors(self.spare.as_deref(), |b| b.next.as_deref());
        let pieces = blocks.zip((spilled.len()..self.len).step_by(BLOCK));
        let held = pieces.map(|(block, at)| &block.bytes[..BLOCK.min(self.len - at)]);
        std::iter::once(spilled).chain(held)
    }

    /// Encoded bytes staged since the last seal.
    pub(crate) fn staged_bytes(&self) -> usize {
        self.len
    }

    /// Start the next chunk in the same blocks, and free its slots.
    pub fn clear(&mut self) {
        self.settle();
        if let Some(stash) = &self.stash {
            stash.spill.free(&self.slots);
        }
        self.slots.clear();
        *self = ChunkBuf {
            slots: std::mem::take(&mut self.slots),
            spare: self.spare.take(),
            high_water: self.high_water,
            stash: self.stash.take(),
            ..ChunkBuf::default()
        };
    }

    /// An empty stage that spills to `spill`.
    fn spilling(spill: Arc<Spill>) -> ChunkBuf {
        ChunkBuf {
            stash: Some(Stash {
                spill,
                blocks: 0,
                spills: false,
            }),
            ..ChunkBuf::default()
        }
    }

    /// An empty stage that spills where this one does, if it does.
    fn sibling(&self) -> ChunkBuf {
        match &self.stash {
            Some(stash) => ChunkBuf::spilling(Arc::clone(&stash.spill)),
            None => ChunkBuf::default(),
        }
    }
}

/// A stage's hold on its capture's spill: the blocks it counts in the
/// spill's [`Spill::held`], given back when the stage is dropped.
struct Stash {
    spill: Arc<Spill>,
    blocks: u32,
    /// The stage has spilled and holds one block. It stays so: grown back
    /// in memory, it would take its blocks afresh for every chunk.
    spills: bool,
}

impl Stash {
    /// Does the stage spill its full blocks at this edge? From the first
    /// edge it meets with the capture over budget, on.
    fn spills_at_edge(&mut self) -> bool {
        self.spills = self.spills || self.spill.over_budget();
        self.spills
    }

    /// The stage took a new block.
    fn hold(&mut self) {
        self.blocks += 1;
        self.spill.held.fetch_add(1, Ordering::Relaxed);
    }

    /// The stage dropped all its blocks but one.
    fn keep_one(&mut self) {
        let dropped = self.blocks - 1;
        self.blocks = 1;
        self.spill
            .held
            .fetch_sub(dropped as usize, Ordering::Relaxed);
    }
}

impl Drop for Stash {
    fn drop(&mut self) {
        self.spill
            .held
            .fetch_sub(self.blocks as usize, Ordering::Relaxed);
    }
}

/// Where a capture's stages move their full blocks once its stages hold
/// more than [`STAGE_BUDGET`]: a scratch file of `BLOCK`-byte slots, made
/// in the store's directory at the first spill and unlinked at once, so
/// nothing is left of it however the capture ends. A slot freed at a seal
/// is taken again before the file grows, so the file never holds more
/// slots than were spilled at once. A capture's lanes share one, as they
/// share the [`Meter`].
pub(crate) struct Spill {
    /// Blocks the capture's stages hold in memory, spare ones included.
    /// `Relaxed`, as the meter.
    held: AtomicUsize,
    file: Mutex<SpillFile>,
}

struct SpillFile {
    /// Where the file is made.
    dir: PathBuf,
    /// The file, unlinked; `None` until the first spill.
    file: Option<File>,
    /// Slots freed at seals, to take again from the top.
    free: Vec<u32>,
    /// Slots the file holds.
    slots: u32,
    /// The first I/O error: nothing spills after it.
    err: Option<std::io::Error>,
}

impl Spill {
    /// A spill whose file, once needed, is made in `dir`.
    pub(crate) fn new(dir: PathBuf) -> Spill {
        Spill {
            held: AtomicUsize::new(0),
            file: Mutex::new(SpillFile {
                dir,
                file: None,
                free: Vec::new(),
                slots: 0,
                err: None,
            }),
        }
    }

    /// A spill beside the store at `path`.
    pub(crate) fn beside(path: &Path) -> Spill {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        Spill::new(dir.unwrap_or(Path::new(".")).to_path_buf())
    }

    /// Do the capture's stages hold more than the budget?
    #[inline]
    fn over_budget(&self) -> bool {
        self.held.load(Ordering::Relaxed) * BLOCK > STAGE_BUDGET
    }

    /// Write the `n` blocks of `newest_first`, the end of a payload in
    /// reverse order, to `n` slots appended to `slots` in payload order.
    /// On an error nothing is appended, and the error is kept.
    fn put<'a>(
        &self,
        newest_first: impl Iterator<Item = &'a Block>,
        n: usize,
        slots: &mut Vec<u32>,
    ) -> bool {
        let mut file = locked(&self.file);
        let at = slots.len();
        match file.put(newest_first, n, slots) {
            Ok(()) => true,
            Err(e) => {
                file.free(&slots[at..]);
                slots.truncate(at);
                file.err.get_or_insert(e);
                false
            }
        }
    }

    /// Read `slots` into `into`, one read per run of consecutive slots.
    fn read(&self, slots: &[u32], into: &mut Vec<u8>) -> std::io::Result<()> {
        let file = locked(&self.file);
        let file = file.file.as_ref().expect("slots were written");
        into.resize(slots.len() * BLOCK, 0);
        let mut runs = slots.iter().enumerate().peekable();
        while let Some((first, &slot)) = runs.next() {
            let mut last = first;
            while let Some((i, _)) = runs.next_if(|&(i, &s)| s == slot + (i - first) as u32) {
                last = i;
            }
            let bytes = &mut into[first * BLOCK..(last + 1) * BLOCK];
            file.read_exact_at(bytes, u64::from(slot) * BLOCK as u64)?;
        }
        Ok(())
    }

    /// Give `slots` back, to be taken again.
    fn free(&self, slots: &[u32]) {
        if !slots.is_empty() {
            locked(&self.file).free(slots);
        }
    }

    /// The first spill I/O error, as the capture's.
    pub(crate) fn check(&self) -> Result<(), TraceError> {
        match locked(&self.file).err.take() {
            Some(e) => Err(TraceError::Io(e)),
            None => Ok(()),
        }
    }
}

impl SpillFile {
    /// Make the file at the first spill, and unlink it at once; fails
    /// again once anything has failed.
    fn open(&mut self) -> std::io::Result<()> {
        if let Some(e) = &self.err {
            return Err(e.kind().into());
        }
        if self.file.is_none() {
            // Fixed-width names: a session's allocations are the same
            // bytes in every process.
            static MADE: AtomicU64 = AtomicU64::new(0);
            let made = MADE.fetch_add(1, Ordering::Relaxed);
            let name = format!(".spill-{:010}-{made:010}", std::process::id());
            let path = self.dir.join(name);
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)?;
            std::fs::remove_file(&path)?;
            self.file = Some(file);
        }
        Ok(())
    }

    /// [`Spill::put`]: take the slots and write the blocks. The slots taken
    /// stay in `slots` on an error.
    fn put<'a>(
        &mut self,
        newest_first: impl Iterator<Item = &'a Block>,
        n: usize,
        slots: &mut Vec<u32>,
    ) -> std::io::Result<()> {
        self.open()?;
        let at = slots.len();
        slots.extend((0..n).map(|_| self.take_slot()));
        let file = self.file.as_ref().expect("opened above");
        for (block, &slot) in newest_first.zip(slots[at..].iter().rev()) {
            file.write_all_at(&block.bytes, u64::from(slot) * BLOCK as u64)?;
        }
        Ok(())
    }

    /// A free slot, or a new one at the end of the file.
    fn take_slot(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots += 1;
            self.slots - 1
        })
    }

    /// Free a stage's slots, last first, so that the next stage takes
    /// them in the order this one did.
    fn free(&mut self, slots: &[u32]) {
        self.free.extend(slots.iter().rev());
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
    rank: u32,
    stage: ChunkBuf,
    chunk_events: usize,
    shared: Arc<Mutex<dyn Seal + Send>>,
    /// Present when the capture has a cap.
    meter: Option<Arc<Meter>>,
}

impl StoreLane {
    /// An empty lane for `rank` into the same capture.
    fn open(&self, rank: u32) -> StoreLane {
        StoreLane {
            rank,
            stage: self.stage.sibling(),
            chunk_events: self.chunk_events,
            shared: Arc::clone(&self.shared),
            meter: self.meter.clone(),
        }
    }
}

/// A capture's lanes, held by the capture itself for its offline feeders
/// and fed by the trace library's rule: a refused push switches every lane
/// in ascending rank order, then pushes again. A live capture's lanes are
/// opened here too, and handed to the library.
pub(crate) struct Lanes {
    by_rank: DenseMap<StoreLane>,
    /// What every lane is opened from.
    proto: StoreLane,
    /// The capture's spill, for its error at `finish()`.
    pub(crate) spill: Arc<Spill>,
}

impl Lanes {
    pub(crate) fn new(
        opts: StoreOptions,
        shared: Arc<Mutex<dyn Seal + Send>>,
        meter: Option<Arc<Meter>>,
        spill: Spill,
    ) -> Lanes {
        let spill = Arc::new(spill);
        let proto = StoreLane {
            rank: 0,
            stage: ChunkBuf::spilling(Arc::clone(&spill)),
            chunk_events: opts.chunk_events.max(1),
            shared,
            meter,
        };
        Lanes {
            by_rank: DenseMap::new(DENSE_RANKS),
            proto,
            spill,
        }
    }

    /// A new lane for `rank`, for the library to hold.
    pub(crate) fn open(&self, rank: u32) -> Box<dyn Lane> {
        Box::new(self.proto.open(rank))
    }

    /// Stage `ev` in its rank's lane, opening the lane at its first event.
    pub(crate) fn push(&mut self, ev: &Event) {
        let rank = ev.rank();
        let Lanes { by_rank, proto, .. } = self;
        if !by_rank.entry(rank, || proto.open(rank)).push(ev) {
            self.switch();
            let lane = self.by_rank.get_mut(rank).expect("opened above");
            assert!(lane.push(ev), "a lane refused an event after a switch");
        }
    }

    /// Hand every partial chunk over, in ascending rank order.
    pub(crate) fn switch(&mut self) {
        for (_, lane) in self.by_rank.iter_mut() {
            lane.switch();
        }
    }
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
    deferred_err: Option<std::io::Error>,
    /// A spilled stage's head, read back at its seal.
    spilled: Vec<u8>,
}

impl FileHalf<BufWriter<std::fs::File>> {
    /// The file half of a new store file at `path`.
    pub(crate) fn create(path: &Path, program: String) -> Result<Self, TraceError> {
        FileHalf::new(BufWriter::new(std::fs::File::create(path)?), program)
    }
}

impl<W: Write + Seek> FileHalf<W> {
    fn new(mut out: W, program: String) -> Result<Self, TraceError> {
        out.write_all(&encode_header())?;
        Ok(FileHalf {
            out,
            pos: HEADER_BYTES,
            program,
            functions: Vec::new(),
            preamble_written: false,
            index: Vec::new(),
            events: 0,
            peak_buffered: 0,
            deferred_err: None,
            spilled: Vec::new(),
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

    /// Append a chunk exactly as `raw` holds it, header and payload, as
    /// the index entry `meta` describes it: how a repair copies the chunks
    /// it vouched for.
    pub(crate) fn copy_chunk(&mut self, meta: &ChunkMeta, raw: &[u8]) -> std::io::Result<()> {
        self.ensure_preamble()?;
        let offset = self.pos;
        self.write_all_tracked(raw)?;
        self.index.push(ChunkMeta { offset, ..*meta });
        self.events += u64::from(meta.count);
        Ok(())
    }

    fn write_chunk(&mut self, rank: u32, chunk: &ChunkBuf) -> std::io::Result<()> {
        self.ensure_preamble()?;
        let mut spilled = std::mem::take(&mut self.spilled);
        let written = chunk.unspill(&mut spilled).and_then(|()| {
            let mut meta = ChunkMeta {
                rank,
                offset: self.pos,
                enc_len: chunk.len as u32,
                count: chunk.count,
                crc: 0,
                min_t: chunk.min_t,
                max_t: chunk.max_t,
                max_end: chunk.max_end,
            };
            let header = meta.seal_header(chunk.pieces(&spilled));
            self.write_all_tracked(&header)?;
            for piece in chunk.pieces(&spilled) {
                self.write_all_tracked(piece)?;
            }
            self.index.push(meta);
            Ok(())
        });
        self.spilled = spilled;
        written
    }

    /// Write the footer index and trailer, and return the write
    /// statistics. Every stage has been sealed by now.
    pub(crate) fn finish(&mut self) -> Result<StoreStats, TraceError> {
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
        let len = chunk.len;
        self.events += u64::from(chunk.count);
        if len > chunk.high_water {
            self.peak_buffered += len - chunk.high_water;
            chunk.high_water = len;
        }
        chunk.settle();
        if let Err(e) = self.write_chunk(rank, chunk) {
            self.deferred_err.get_or_insert(e);
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
    lanes: Lanes,
}

impl StoreWriter<BufWriter<std::fs::File>> {
    /// Create a store file at `path`; its stages spill beside it.
    pub fn create(
        path: impl AsRef<Path>,
        program: impl Into<String>,
        opts: StoreOptions,
    ) -> Result<Self, TraceError> {
        let file = std::fs::File::create(path.as_ref())?;
        let spill = Spill::beside(path.as_ref());
        StoreWriter::with_spill(BufWriter::new(file), program.into(), opts, spill)
    }
}

impl<W: Write + Seek + Send + 'static> StoreWriter<W> {
    /// Wrap any seekable sink; its stages spill into the system's
    /// temporary directory.
    pub fn new(out: W, program: impl Into<String>, opts: StoreOptions) -> Result<Self, TraceError> {
        let spill = Spill::new(std::env::temp_dir());
        StoreWriter::with_spill(out, program.into(), opts, spill)
    }

    fn with_spill(
        out: W,
        program: String,
        opts: StoreOptions,
        spill: Spill,
    ) -> Result<Self, TraceError> {
        let file = Arc::new(Mutex::new(FileHalf::new(out, program)?));
        let lanes = Lanes::new(opts, Arc::clone(&file) as _, None, spill);
        Ok(StoreWriter { file, lanes })
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
        self.lanes.push(ev);
    }

    /// Seal every partial chunk, write the footer index and trailer, and
    /// return the write statistics. A spill's I/O error is the capture's.
    pub fn finish(mut self) -> Result<StoreStats, TraceError> {
        self.lanes.switch();
        self.lanes.spill.check()?;
        locked(&self.file).finish()
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
        self.lanes.open(rank)
    }
}

/// Encode the framed salvage preamble: `len | crc32 | program | dict`.
fn encode_preamble(program: &str, functions: &[String]) -> Vec<u8> {
    let mut p = Vec::new();
    put_dictionary(&mut p, program, functions);
    let mut framed = Vec::with_capacity(8 + p.len());
    framed.extend_from_slice(&(p.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(&p).to_le_bytes());
    framed.extend_from_slice(&p);
    framed
}

/// The 8-byte file header: magic, version, no flags.
fn encode_header() -> [u8; HEADER_BYTES as usize] {
    let mut header = [0u8; HEADER_BYTES as usize];
    header[..4].copy_from_slice(STORE_MAGIC);
    header[4..6].copy_from_slice(&STORE_VERSION.to_le_bytes());
    header
}

/// Encode the footer (program, dictionary, chunk index) plus
/// the 18-byte trailer (`footer_len | footer crc | magic | version`).
fn encode_footer_and_trailer(program: &str, functions: &[String], index: &[ChunkMeta]) -> Vec<u8> {
    let mut footer = Vec::new();
    put_dictionary(&mut footer, program, functions);
    footer.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for m in index {
        m.put_entry(&mut footer);
    }
    let footer_len = footer.len() as u64;
    let footer_crc = crc32(&footer);
    footer.extend_from_slice(&footer_len.to_le_bytes());
    footer.extend_from_slice(&footer_crc.to_le_bytes());
    footer.extend_from_slice(STORE_MAGIC);
    footer.extend_from_slice(&STORE_VERSION.to_le_bytes());
    footer
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
    use std::io::Cursor;

    use super::*;
    use crate::store::codec::decode_chunk;
    use crate::store::{chunk_crc, CHUNK_HEADER_BYTES};

    /// A sealed stage starts its next chunk in the blocks the last one
    /// took: three chunks alike hold the same blocks, at the same
    /// addresses, so the second and third take none.
    #[test]
    fn a_sealed_stage_keeps_its_allocation() {
        let opts = StoreOptions { chunk_events: 100 };
        let mut w = StoreWriter::new(Cursor::new(Vec::new()), "t", opts).unwrap();
        let chunk = |w: &mut StoreWriter<_>| {
            for i in 0..100 {
                w.append(&Event::ConfSync {
                    t: SimTime::from_micros(i),
                    rank: 0,
                    epoch: u32::MAX - i as u32,
                });
            }
            let stage = &w.lanes.by_rank.get(0).expect("rank 0 staged").stage;
            assert!(stage.is_empty(), "the 100th event sealed the chunk");
            assert!(stage.filled.is_none(), "every block is spare again");
            let blocks = std::iter::successors(stage.spare.as_deref(), |b| b.next.as_deref());
            blocks
                .map(|b| b as *const Block as usize)
                .collect::<Vec<_>>()
        };
        let held = chunk(&mut w);
        assert_eq!(chunk(&mut w), held);
        assert_eq!(chunk(&mut w), held);
        let stats = w.finish().unwrap();
        assert_eq!((stats.chunks, stats.events), (3, 300));
        // 7 + 99 × 8 bytes: three full blocks and part of a fourth.
        assert_eq!(stats.peak_buffered_bytes, 799);
        assert_eq!(held.len(), 4);
    }

    /// Rounds of literals at full width — a 2³³ Δt, a `u64` count, a
    /// `FuncBatch` span of 2⁶², each a shape of its own, 33 bytes — between
    /// runs of one-byte repeats of varying length, so events cross block
    /// edges at many offsets.
    fn edge_events() -> Vec<Event> {
        let (mut events, mut t) = (Vec::new(), 0u64);
        for round in 0..24u64 {
            for i in 0..round % 5 + 1 {
                t += 1 << 33;
                events.push(Event::FuncBatch {
                    t: SimTime(t),
                    rank: 3,
                    thread: u16::MAX,
                    func: VtFuncId(u32::MAX - i as u32),
                    count: u64::MAX - 8 * round - i,
                    span: SimTime(1 << 62 | round),
                });
            }
            for _ in 0..round * 7 % 23 + 2 {
                t += 100;
                events.push(Event::FuncEnter {
                    t: SimTime(t),
                    rank: 3,
                    thread: 0,
                    func: VtFuncId(1),
                });
            }
        }
        events
    }

    /// Three chunks through one stage of a capture: the second shorter and
    /// in the blocks the first filled, the third spilling from mid-chunk,
    /// once the capture's other stages come to hold the budget, an event
    /// straddling the edge where it starts. Each is sealed byte for byte as
    /// the codec encodes it into one `Vec<u8>`, under that encoding's CRC,
    /// and decodes back event for event.
    #[test]
    fn a_chunk_sealed_from_blocks_is_its_contiguous_encoding() {
        let events = edge_events();
        let chunks = [&events[..], &events[..events.len() / 3], &events[..]];
        let spill = Arc::new(Spill::new(std::env::temp_dir()));
        let mut file = FileHalf::new(Cursor::new(Vec::new()), "t".into()).unwrap();
        let mut stage = ChunkBuf::spilling(Arc::clone(&spill));
        let others = STAGE_BUDGET / BLOCK;
        for (round, chunk) in chunks.into_iter().enumerate() {
            let mut straddles = 0;
            for (i, ev) in chunk.iter().enumerate() {
                if round == 2 && i == chunk.len() / 2 {
                    spill.held.fetch_add(others, Ordering::Relaxed);
                }
                let (at, spilled) = (stage.staged_bytes(), stage.slots.len());
                let took = stage.stage(ev);
                let straddle = at / BLOCK != (at + took - 1) / BLOCK;
                straddles += usize::from(straddle);
                if spilled == 0 && !stage.slots.is_empty() {
                    assert!(
                        straddle && at % BLOCK != 0,
                        "event {i} at {at} began the spill"
                    );
                    assert!(
                        stage.slots.len() >= 2,
                        "{} blocks spilled",
                        stage.slots.len()
                    );
                }
            }
            let len = stage.staged_bytes();
            assert!(len > 2 * BLOCK && !len.is_multiple_of(BLOCK), "{len}");
            assert!(straddles >= 2, "{straddles} events straddle an edge");
            assert_eq!(!stage.slots.is_empty(), round == 2, "round {round}");
            file.seal(3, &mut stage);
            assert!(stage.slots.is_empty(), "a seal frees the slots");
        }
        spill.held.fetch_sub(others, Ordering::Relaxed);
        let bytes = file.out.get_ref();
        assert_eq!(file.index.len(), 3);
        for (meta, chunk) in file.index.iter().zip(chunks) {
            let (mut want, mut table, mut prev) = (Vec::new(), ShapeTable::default(), 0);
            for ev in chunk {
                table.encode(&mut want, ev, &mut prev);
            }
            let at = meta.offset as usize;
            let raw = &bytes[at..at + meta.disk_bytes() as usize];
            let (header, payload) = raw.split_at(CHUNK_HEADER_BYTES);
            assert_eq!(payload, &want[..]);
            assert_eq!(meta.crc, chunk_crc(header, [&want[..]]));
            assert_eq!(header[12..16], meta.crc.to_le_bytes());
            let mut back = Vec::new();
            decode_chunk(payload, 3, meta.count, &mut back).unwrap();
            assert_eq!(back, chunk);
        }
    }

    /// `rounds` rounds of `events` eight-byte events on each of 16 ranks,
    /// the ranks taking turns event by event, every stage sealed at the end
    /// of a round: a round of 4 096 stages 512 KiB. `each` sees the writer
    /// after every event.
    fn feed<W: Write + Seek + Send + 'static>(
        w: &mut StoreWriter<W>,
        rounds: u64,
        events: u64,
        mut each: impl FnMut(&StoreWriter<W>),
    ) {
        let mut t = 0;
        for _ in 0..rounds {
            for _ in 0..events * 16 {
                w.append(&Event::ConfSync {
                    t: SimTime(t),
                    rank: (t % 16) as u32,
                    epoch: u32::MAX - t as u32,
                });
                each(w);
                t += 1;
            }
            w.lanes.switch();
        }
    }

    /// Slots in use in the spill of `w`'s capture.
    fn slots_in_use<W: Write + Seek>(w: &StoreWriter<W>) -> usize {
        let file = locked(&w.lanes.spill.file);
        file.slots as usize - file.free.len()
    }

    /// Four rounds of chunks over the budget, every rank sealing at the end
    /// of each: a slot freed at a seal is taken again before the file
    /// grows, so the file never holds more slots than were spilled at once.
    /// Only a round's end seals, so what is in use after each event is all
    /// that ever was.
    #[test]
    fn the_spill_file_holds_no_more_than_was_spilled_at_once() {
        let opts = StoreOptions {
            chunk_events: 1 << 20,
        };
        let mut w = StoreWriter::new(Cursor::new(Vec::new()), "t", opts).unwrap();
        let mut most = 0;
        feed(&mut w, 4, 4096, |w| most = most.max(slots_in_use(w)));
        let spill = Arc::clone(&w.lanes.spill);
        let stats = w.finish().unwrap();
        assert_eq!((stats.chunks, stats.events), (64, 4 * 16 * 4096));
        let file = locked(&spill.file);
        let len = file.file.as_ref().expect("the capture spilled").metadata();
        // A round stages 2 048 blocks, at most the budget's 1 024 of them
        // in memory.
        assert!(most > 512, "{most} slots in use at most");
        assert_eq!(file.slots as usize, most);
        assert_eq!(len.unwrap().len(), (most * BLOCK) as u64);
        assert_eq!(file.free.len(), most, "every slot is free again");
    }

    /// A one-process capture never spills: the widest chunk one rank
    /// stages at the default chunk size stays under the budget.
    #[test]
    fn one_rank_stays_under_the_budget() {
        let opts = StoreOptions::default();
        assert!(opts.chunk_events * 39 < STAGE_BUDGET);
        let mut w = StoreWriter::new(Cursor::new(Vec::new()), "t", opts).unwrap();
        let mut t = 0u64;
        for i in 0..3 * opts.chunk_events as u64 {
            t += 1 << 33;
            w.append(&Event::FuncBatch {
                t: SimTime(t),
                rank: 0,
                thread: u16::MAX,
                func: VtFuncId(u32::MAX - i as u32 % 64),
                count: u64::MAX - i,
                span: SimTime(1 << 62 | i),
            });
        }
        assert!(
            locked(&w.lanes.spill.file).file.is_none(),
            "nothing spilled"
        );
        let stats = w.finish().unwrap();
        assert_eq!(stats.chunks, 3);
        assert!(stats.peak_buffered_bytes > 30 * opts.chunk_events);
    }

    /// A capture beside a store spills there, and leaves no file of it; a
    /// spill that cannot be made is the capture's I/O error at `finish()`.
    #[test]
    fn a_spill_leaves_no_file_and_its_error_waits_for_finish() {
        let dir = std::env::temp_dir().join(format!("dynprof-spill-{}", std::process::id()));
        let path = dir.join("s.vgvs");
        let listing = || {
            let names = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name());
            names.collect::<Vec<_>>()
        };
        let opts = StoreOptions { chunk_events: 4096 };
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = StoreWriter::create(&path, "t", opts).unwrap();
        feed(&mut w, 1, 4000, |_| {});
        let made = locked(&w.lanes.spill.file).file.is_some();
        assert!(made, "the capture spilled");
        assert_eq!(listing(), ["s.vgvs"]);
        assert_eq!(w.finish().unwrap().events, 16 * 4000);
        assert_eq!(listing(), ["s.vgvs"]);

        let mut w = StoreWriter::create(&path, "t", opts).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        feed(&mut w, 1, 4000, |_| {});
        let made = locked(&w.lanes.spill.file).file.is_some();
        assert!(!made, "nothing could spill");
        assert!(matches!(w.finish(), Err(TraceError::Io(_))));
    }
}
