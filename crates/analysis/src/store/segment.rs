//! Segment rotation and multi-segment reading.
//!
//! Long captures should not bet everything on one file: the
//! [`RotatingWriter`] rolls to a fresh segment (`name.0000.vgvs`,
//! `name.0001.vgvs`, …) whenever the open one crosses its
//! [`RotationPolicy`] byte/event caps, sealing each closed segment with
//! a full footer. A crash therefore only ever risks the tail of the
//! *newest* segment — everything older is a complete, footer-valid
//! store. [`RetentionPolicy`] bounds disk by deleting the oldest
//! segments past a keep-last-N budget (flight-recorder mode).
//!
//! [`SegmentSet`] is the read side: it discovers a base name's
//! segments, unions their function dictionaries (re-mapping ids on the
//! fly), and implements
//! [`EventSource`](super::EventSource) so `vgv info/top/slice/comm` and
//! the streaming profile/comm builders work across segments untouched.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dynprof_sim::SimTime;
use dynprof_vt::{locked, Event, EventSink, Lane, VtFuncId};

use super::reader::{QueryStats, StoreInfo, StoreReader};
use super::writer::{remap_func, ChunkBuf, FileHalf, Lanes, Meter, Seal, Spill, StoreStats};
use super::{EventSource, StoreOptions};
use crate::error::TraceError;

/// When to roll to a new segment. A cap of `None` never triggers; the
/// default policy never rotates: one file, named as given, byte-identical
/// to a plain [`StoreWriter`](super::StoreWriter) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RotationPolicy {
    /// Roll once the open segment holds at least this many bytes
    /// (on-disk plus buffered).
    pub max_bytes: Option<u64>,
    /// Roll once the open segment holds at least this many events.
    pub max_events: Option<u64>,
}

impl RotationPolicy {
    /// Roll at `max_events` per segment.
    pub fn by_events(max_events: u64) -> RotationPolicy {
        RotationPolicy {
            max_bytes: None,
            max_events: Some(max_events.max(1)),
        }
    }
}

/// How many closed segments to keep on disk. The default keeps
/// everything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep only the newest N segments (the open one counts); older
    /// segments are deleted as rotation seals new ones.
    pub keep_last: Option<usize>,
}

impl RetentionPolicy {
    /// Keep the newest `n` segments (flight-recorder mode).
    pub fn keep_last(n: usize) -> RetentionPolicy {
        RetentionPolicy {
            keep_last: Some(n.max(1)),
        }
    }
}

/// What one rotating capture produced.
#[derive(Clone, Debug, Default)]
pub struct SegmentStats {
    /// Segments still on disk, in order.
    pub segments: Vec<PathBuf>,
    /// Segments rotated (sealed because a cap was hit).
    pub rotated: usize,
    /// Segments deleted by retention.
    pub deleted: usize,
    /// Events written across all segments (including deleted ones).
    pub events: u64,
    /// Chunks written across surviving segments.
    pub chunks: usize,
    /// Bytes across surviving segments.
    pub bytes: u64,
}

/// The shared half of a rotating capture: the open segment's file and the
/// family's bookkeeping.
struct Rotor {
    base: PathBuf,
    program: String,
    functions: Vec<String>,
    retention: RetentionPolicy,
    /// The open segment; `None` once a roll has failed.
    current: Option<FileHalf<BufWriter<File>>>,
    next_seg: usize,
    live: Vec<PathBuf>,
    sealed: Vec<StoreStats>,
    rotated: usize,
    deleted: usize,
    events: u64,
    /// Present when the rotation policy has a cap.
    meter: Option<Arc<Meter>>,
    /// First seal/open/prune failure met while fed by lanes; the capture
    /// stops there and [`RotatingWriter::finish`] reports it.
    deferred_err: Option<TraceError>,
}

/// `base` = `trace.vgvs`, `seg` = 3 → `trace.0003.vgvs`.
pub(crate) fn segment_path(base: &Path, seg: usize) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("vgvs");
    base.with_file_name(format!("{stem}.{seg:04}.{ext}"))
}

impl Rotor {
    /// Seal the open segment (full footer) and start the next one, from
    /// the dictionary so far. Every stage has been handed over.
    fn roll(&mut self) -> Result<(), TraceError> {
        let Some(mut file) = self.current.take() else {
            return Ok(());
        };
        self.sealed.push(file.finish()?);
        self.rotated += 1;
        self.prune()?;
        let next = segment_path(&self.base, self.next_seg);
        self.next_seg += 1;
        let mut file = FileHalf::create(&next, self.program.clone())?;
        file.set_functions(self.functions.clone());
        if let Some(meter) = &self.meter {
            meter.reset(file.pos());
        }
        self.current = Some(file);
        self.live.push(next);
        Ok(())
    }

    /// Delete the oldest segments past the retention budget. Runs after
    /// a seal, just before the next segment opens — `keep_last` counts
    /// that about-to-open segment, so sealed ones get `keep - 1` slots.
    fn prune(&mut self) -> Result<(), TraceError> {
        let Some(keep) = self.retention.keep_last else {
            return Ok(());
        };
        while self.live.len() + 1 > keep {
            let victim = self.live.remove(0);
            std::fs::remove_file(&victim)?;
            self.deleted += 1;
            if !self.sealed.is_empty() {
                self.sealed.remove(0);
            }
        }
        Ok(())
    }
}

impl Seal for Rotor {
    fn seal(&mut self, rank: u32, chunk: &mut ChunkBuf) {
        let (events, staged) = (chunk.len() as u64, chunk.staged_bytes());
        match &mut self.current {
            Some(file) => file.seal(rank, chunk),
            // The capture failed: what arrives is dropped.
            None => chunk.clear(),
        }
        self.events += events;
        if let Some(meter) = &self.meter {
            let pos = self.current.as_ref().map_or(0, FileHalf::pos);
            meter.note_sealed(staged, pos);
        }
    }

    fn roll(&mut self) {
        if let Err(e) = Rotor::roll(self) {
            self.deferred_err.get_or_insert(e);
        }
    }
}

/// A [`StoreWriter`](super::StoreWriter) that rolls across
/// `name.NNNN.vgvs` segments per a [`RotationPolicy`], sealing each
/// closed segment with a full footer and pruning old ones per a
/// [`RetentionPolicy`].
///
/// A roll is a sub-buffer switch: every rank's open chunk is sealed into
/// the closing segment, in ascending rank order, before the next opens —
/// so segments are slices of the run's *time* across all ranks.
pub struct RotatingWriter {
    rotor: Arc<Mutex<Rotor>>,
    lanes: Lanes,
}

impl RotatingWriter {
    /// Start a rotating capture. `base` names the segment family:
    /// `trace.vgvs` produces `trace.0000.vgvs`, `trace.0001.vgvs`, … —
    /// or, under a policy that never rotates, the one file `trace.vgvs`.
    pub fn create(
        base: impl AsRef<Path>,
        program: impl Into<String>,
        opts: StoreOptions,
        rotation: RotationPolicy,
        retention: RetentionPolicy,
    ) -> Result<RotatingWriter, TraceError> {
        let base = base.as_ref().to_path_buf();
        let program = program.into();
        let rotates = rotation != RotationPolicy::default();
        let first = if rotates {
            segment_path(&base, 0)
        } else {
            base.clone()
        };
        let file = FileHalf::create(&first, program.clone())?;
        let meter = rotates.then(|| {
            Arc::new(Meter::new(
                rotation.max_bytes,
                rotation.max_events,
                file.pos(),
            ))
        });
        let spill = Spill::beside(&base);
        let rotor = Arc::new(Mutex::new(Rotor {
            base,
            program,
            functions: Vec::new(),
            retention,
            current: Some(file),
            next_seg: 1,
            live: vec![first],
            sealed: Vec::new(),
            rotated: 0,
            deleted: 0,
            events: 0,
            meter: meter.clone(),
            deferred_err: None,
        }));
        let lanes = Lanes::new(opts, Arc::clone(&rotor) as _, meter, spill);
        Ok(RotatingWriter { rotor, lanes })
    }

    /// Install the function dictionary (forwarded to every segment's
    /// file, so each segment is self-contained and salvageable).
    pub fn set_functions(&mut self, names: Vec<String>) {
        let mut rotor = locked(&self.rotor);
        rotor.functions = names.clone();
        if let Some(file) = rotor.current.as_mut() {
            file.set_functions(names);
        }
    }

    /// Append one event. Once the open segment has crossed the rotation
    /// caps, every rank's open chunk is sealed into it and the event opens
    /// the next (so a segment is only ever opened for an event to go into
    /// it — no empty tail segment). A failed roll ends the capture and is
    /// reported by [`RotatingWriter::finish`].
    pub fn append(&mut self, ev: &Event) {
        self.lanes.push(ev);
    }

    /// Seal the final segment and report what the capture produced.
    pub fn finish(mut self) -> Result<SegmentStats, TraceError> {
        self.lanes.switch();
        let mut rotor = locked(&self.rotor);
        if let Some(e) = rotor.deferred_err.take() {
            return Err(e);
        }
        self.lanes.spill.check()?;
        let mut file = rotor
            .current
            .take()
            .expect("only a failed roll drops the file");
        let last = file.finish()?;
        rotor.sealed.push(last);
        Ok(SegmentStats {
            segments: std::mem::take(&mut rotor.live),
            rotated: rotor.rotated,
            deleted: rotor.deleted,
            events: rotor.events,
            chunks: rotor.sealed.iter().map(|s| s.chunks).sum(),
            bytes: rotor.sealed.iter().map(|s| s.bytes).sum(),
        })
    }
}

/// Live capture: a roll is the library's switch (see [`Lane::push`]), and
/// every new segment starts from the dictionary so far. The first
/// seal/open/prune failure ends the capture and is reported by
/// [`RotatingWriter::finish`]; sealed segments stay valid.
impl EventSink for RotatingWriter {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        let mut rotor = locked(&self.rotor);
        debug_assert_eq!(id.0 as usize, rotor.functions.len(), "ids arrive in order");
        rotor.functions.push(name.to_string());
        if let Some(file) = rotor.current.as_mut() {
            file.funcdef(id, name);
        }
    }

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        self.lanes.open(rank)
    }
}

/// One member of a [`SegmentSet`].
struct Member {
    reader: StoreReader,
    /// Maps this member's function ids into the set's union dictionary.
    /// `None` when the member's dictionary *is* the union (always, for a
    /// single store): its events pass through as they are, and an id beyond
    /// its dictionary is beyond the union too.
    remap: Option<Vec<u32>>,
}

/// A reader over a whole segment family that behaves like one store.
/// Dictionaries are unioned by name (first-seen order) and events are
/// re-mapped on the fly, so every [`EventSource`] consumer (reports, profiles, comm matrices)
/// is rotation-agnostic.
pub struct SegmentSet {
    members: Vec<Member>,
    program: String,
    functions: Vec<String>,
}

impl SegmentSet {
    /// Segment files a base name resolves to: the base itself when it
    /// exists, else its `name.NNNN.vgvs` siblings in order.
    pub fn discover(base: impl AsRef<Path>) -> Vec<PathBuf> {
        let base = base.as_ref();
        if base.exists() {
            return vec![base.to_path_buf()];
        }
        let mut found = Vec::new();
        for seg in 0..10_000usize {
            let p = segment_path(base, seg);
            if p.exists() {
                found.push(p);
            } else if !found.is_empty() {
                // Surviving segment numbers are contiguous (retention
                // deletes from the front); the first gap past the run
                // ends it. A leading gap just means old segments were
                // retired, so keep scanning until the run starts.
                break;
            }
        }
        found
    }

    /// Open a base name's segments strictly: every member must have a
    /// valid footer.
    pub fn open(base: impl AsRef<Path>) -> Result<SegmentSet, TraceError> {
        SegmentSet::open_inner(base.as_ref(), false)
    }

    /// Open leniently for post-crash analysis: sealed members open
    /// normally, and a member with a missing/torn footer (at most the
    /// newest segment, by the rotation discipline) is salvaged instead
    /// of failing the whole set.
    pub fn open_salvage(base: impl AsRef<Path>) -> Result<SegmentSet, TraceError> {
        SegmentSet::open_inner(base.as_ref(), true)
    }

    fn open_inner(base: &Path, salvage: bool) -> Result<SegmentSet, TraceError> {
        let paths = SegmentSet::discover(base);
        if paths.is_empty() {
            let seg0 = segment_path(base, 0);
            return Err(TraceError::Io(std::io::Error::new(
                ErrorKind::NotFound,
                format!(
                    "no store at {} (nor segments like {})",
                    base.display(),
                    seg0.display()
                ),
            )));
        }
        let mut readers = Vec::with_capacity(paths.len());
        for p in &paths {
            let r = if salvage {
                StoreReader::open_salvage(p)?
            } else {
                StoreReader::open(p)?
            };
            readers.push(r);
        }
        let program = readers
            .first()
            .map(|r| r.program().to_string())
            .unwrap_or_default();
        // Union dictionary, preserving first-seen order.
        let mut functions: Vec<String> = Vec::new();
        let mut members = Vec::with_capacity(readers.len());
        for reader in readers {
            let mut remap = Vec::with_capacity(reader.functions().len());
            for f in reader.functions() {
                match functions.iter().position(|n| n == f) {
                    Some(i) => remap.push(i as u32),
                    None => {
                        functions.push(f.clone());
                        remap.push(functions.len() as u32 - 1);
                    }
                }
            }
            members.push(Member {
                reader,
                remap: Some(remap),
            });
        }
        for m in &mut members {
            let same = |r: &Vec<u32>| (0..functions.len() as u32).eq(r.iter().copied());
            if m.remap.as_ref().is_some_and(same) {
                m.remap = None;
            }
        }
        Ok(SegmentSet {
            members,
            program,
            functions,
        })
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Is the set empty? (It never is after a successful open.)
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Forward degraded mode (skip-and-account bad chunks) to every
    /// member.
    pub fn set_degraded(&mut self, on: bool) {
        for m in &mut self.members {
            m.reader.set_degraded(on);
        }
    }

    /// The newest member's salvage summary, if any member was salvaged.
    pub fn salvage(&self) -> Option<super::SalvageSummary> {
        self.members.iter().rev().find_map(|m| m.reader.salvage())
    }
}

impl EventSource for SegmentSet {
    fn program(&self) -> &str {
        &self.program
    }

    fn functions(&self) -> &[String] {
        &self.functions
    }

    fn source_info(&self) -> StoreInfo {
        let mut out = StoreInfo {
            program: self.program.clone(),
            functions: self.functions.len(),
            segments: self.members.len(),
            salvage: self.salvage(),
            ..StoreInfo::default()
        };
        let mut first = true;
        for m in &self.members {
            let info = m.reader.info();
            out.chunks += info.chunks;
            out.events += info.events;
            out.file_bytes += info.file_bytes;
            if info.chunks == 0 {
                continue;
            }
            if first {
                out.t_min = info.t_min;
                out.t_max = info.t_max;
                out.t_end = info.t_end;
                first = false;
            } else {
                out.t_min = out.t_min.min(info.t_min);
                out.t_max = out.t_max.max(info.t_max);
                out.t_end = out.t_end.max(info.t_end);
            }
        }
        out.ranks = self.source_ranks().len();
        out
    }

    fn source_ranks(&self) -> Vec<u32> {
        let mut ranks: Vec<u32> = self.members.iter().flat_map(|m| m.reader.ranks()).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    fn source_rank_summary(&self) -> BTreeMap<u32, (u64, SimTime, SimTime)> {
        let mut out: BTreeMap<u32, (u64, SimTime, SimTime)> = BTreeMap::new();
        for m in &self.members {
            for (rank, (n, lo, hi)) in m.reader.rank_summary() {
                let e = out.entry(rank).or_insert((0, lo, hi));
                e.0 += n;
                e.1 = e.1.min(lo);
                e.2 = e.2.max(hi);
            }
        }
        out
    }

    fn query(
        &mut self,
        window: Option<(SimTime, SimTime)>,
        rank: Option<u32>,
        f: &mut dyn FnMut(&Event),
    ) -> Result<QueryStats, TraceError> {
        let mut total = QueryStats::default();
        // Segments are sealed in time order, so members in order keep each
        // rank's causal event order.
        for m in &mut self.members {
            let stats = match &m.remap {
                None => m.reader.query(window, rank, f)?,
                Some(remap) => m.reader.for_each_query(window, rank, |ev| {
                    let mut ev = ev.clone();
                    remap_func(&mut ev, remap);
                    f(&ev);
                })?,
            };
            total.chunks_considered += stats.chunks_considered;
            total.chunks_decoded += stats.chunks_decoded;
            total.chunks_skipped += stats.chunks_skipped;
            total.chunks_bad += stats.chunks_bad;
            total.events_lost += stats.events_lost;
            total.events += stats.events;
        }
        Ok(total)
    }
}
