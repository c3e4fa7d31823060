//! Rank-private capture lanes against the design they replaced.
//!
//! Until PR 23 every settled event went through one process-wide sink
//! mutex. That path is kept here as the reference model: [`Recorder`] is
//! a sink whose lanes lock it and append, one event at a time. The product
//! sinks (`StoreWriter`, `ProfileBuilder`, `RotatingWriter`) stage in the
//! rank's own lane and enter their shared half a chunk at a time; these
//! tests hold them to what the recorder and the buffered library saw, and
//! count how often the shared half is entered.

use std::io::{Cursor, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dynprof::analysis::store::{
    write_store_from_vt, ChunkMeta, EventSource, RetentionPolicy, RotatingWriter, RotationPolicy,
    StoreOptions, StoreReader, StoreWriter,
};
use dynprof::analysis::{Profile, ProfileBuilder, ProfileOptions};
use dynprof::apps::test_app;
use dynprof::core::{run_session, AppSpec, SessionConfig};
use dynprof::sim::{Machine, ProbeCosts, Sim, SimTime};
use dynprof::vt::{Event, EventSink, Lane, Policy, SharedSink, VtConfig, VtFuncId, VtLib};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dynprof-lanes");
    std::fs::create_dir_all(&dir).unwrap();
    let tag: String = tag.chars().filter(char::is_ascii_alphanumeric).collect();
    dir.join(format!("{tag}-{}.vgvs", std::process::id()))
}

// ---- the reference model: one shared list, a lock per event ------------

/// The pre-lane capture path: every event of every rank is appended to one
/// list under one lock, in execution order.
#[derive(Default)]
struct Recorder {
    names: Vec<String>,
    events: Arc<Mutex<Vec<Event>>>,
}

struct RecorderLane(Arc<Mutex<Vec<Event>>>);

impl EventSink for Recorder {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        assert_eq!(id.0 as usize, self.names.len(), "ids arrive in order");
        self.names.push(name.to_string());
    }

    fn lane(&mut self, _rank: u32) -> Box<dyn Lane> {
        Box::new(RecorderLane(Arc::clone(&self.events)))
    }
}

impl Lane for RecorderLane {
    fn push(&mut self, ev: &Event) -> bool {
        self.0.lock().unwrap().push(ev.clone());
        true
    }

    fn switch(&mut self) {}

    fn close(self: Box<Self>) {}
}

/// Several sinks fed by one run: a rank's lane is one lane of each.
struct Tee(Vec<SharedSink>);

struct TeeLane(Vec<Box<dyn Lane>>);

impl EventSink for Tee {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        for sink in &self.0 {
            sink.lock().unwrap().funcdef(id, name);
        }
    }

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        let lanes = self.0.iter().map(|s| s.lock().unwrap().lane(rank));
        Box::new(TeeLane(lanes.collect()))
    }
}

impl Lane for TeeLane {
    fn push(&mut self, ev: &Event) -> bool {
        for lane in &mut self.0 {
            assert!(lane.push(ev), "no member of this tee has a cap");
        }
        true
    }

    fn switch(&mut self) {
        self.0.iter_mut().for_each(|lane| lane.switch());
    }

    fn close(self: Box<Self>) {
        self.0.into_iter().for_each(|lane| lane.close());
    }
}

// ---- the oracle ---------------------------------------------------------

/// A chunk as the format identifies it, wherever it landed in the file.
fn identity(m: &ChunkMeta) -> (u32, u32, u32, u32, SimTime, SimTime, SimTime) {
    (
        m.rank, m.count, m.enc_len, m.crc, m.min_t, m.max_t, m.max_end,
    )
}

/// One session, buffered and then captured through lanes into a recorder,
/// a store and a profile at once. The store must be the buffered flush's
/// — chunk for chunk per rank (header fields and CRC, so payload bytes)
/// and name for name, and byte for byte whenever no chunk sealed before
/// the run ended (a live capture interleaves the ranks' chunks in time and
/// writes its preamble at the first); the profile must be the buffered
/// trace's; each rank's recorded stream its buffered one.
fn assert_lanes_match_the_shared_path(app: &AppSpec, cfg: SessionConfig, ctx: &str) {
    let buffered = run_session(app, cfg.clone());
    let expected = Profile::from_trace(&buffered.vt.build_trace());
    let streams: Vec<Vec<Event>> = (0..buffered.vt.ranks())
        .map(|r| buffered.vt.with_rank_events(r, <[Event]>::to_vec))
        .collect();
    assert!(streams.iter().any(|s| !s.is_empty()), "{ctx}: empty trace");

    for chunk_events in [16, 2048] {
        let ctx = format!("{ctx} chunk_events={chunk_events}");
        let opts = StoreOptions { chunk_events };
        let ref_path = tmp(&format!("ref {ctx}"));
        let ref_stats = write_store_from_vt(&buffered.vt, &ref_path, opts).unwrap();

        let live_path = tmp(&format!("live {ctx}"));
        let recorder = Arc::new(Mutex::new(Recorder::default()));
        let store = Arc::new(Mutex::new(Some(
            StoreWriter::create(&live_path, &app.name, opts).unwrap(),
        )));
        let profile = Arc::new(Mutex::new(Some(ProfileBuilder::new(
            Vec::new(),
            ProfileOptions::default(),
        ))));
        let tee = Tee(vec![
            Arc::clone(&recorder) as SharedSink,
            Arc::clone(&store) as SharedSink,
            Arc::clone(&profile) as SharedSink,
        ]);
        let live = run_session(app, cfg.clone().with_capture(Arc::new(Mutex::new(tee))));
        let live_stats = store.lock().unwrap().take().unwrap().finish().unwrap();
        let fed = profile.lock().unwrap().take().unwrap().finish();

        // Where the events went changes nothing the session measures.
        assert_eq!(live.app_time, buffered.app_time, "{ctx}");
        assert_eq!(live.total_time, buffered.total_time, "{ctx}");
        assert_eq!(live.trace_bytes, buffered.trace_bytes, "{ctx}");

        // The recorder saw each rank's buffered stream, and its names.
        let rec = recorder.lock().unwrap();
        assert_eq!(rec.names, buffered.vt.function_names(), "{ctx}");
        let recorded = rec.events.lock().unwrap();
        for (rank, expect) in streams.iter().enumerate() {
            let got: Vec<&Event> = recorded
                .iter()
                .filter(|e| e.rank() as usize == rank)
                .collect();
            assert!(got.iter().copied().eq(expect.iter()), "{ctx}: rank {rank}");
        }

        // The lane-fed profile is the replayed one.
        assert_eq!(fed.per_rank, expected.per_rank, "{ctx}: profile");
        assert_eq!(fed.ranks, expected.ranks, "{ctx}: ranks");
        assert_eq!(fed.functions, expected.functions, "{ctx}: dictionary");

        // The lane-captured store is the buffered flush.
        assert_eq!(live_stats.events, ref_stats.events, "{ctx}");
        assert_eq!(live_stats.chunks, ref_stats.chunks, "{ctx}");
        let (live_r, ref_r) = (
            StoreReader::open(&live_path).unwrap(),
            StoreReader::open(&ref_path).unwrap(),
        );
        let in_file_order =
            |r: &StoreReader| r.chunks().iter().map(|m| m.rank).collect::<Vec<u32>>();
        // Same chunk order and same salvage preamble (a live capture's
        // lists the names registered before its first seal, so it is the
        // flush's or shorter): the same file.
        let same_layout =
            in_file_order(&live_r) == in_file_order(&ref_r) && live_stats.bytes == ref_stats.bytes;
        if same_layout {
            assert!(
                std::fs::read(&live_path).unwrap() == std::fs::read(&ref_path).unwrap(),
                "{ctx}: same layout, different bytes"
            );
        } else {
            assert!(chunk_events == 16, "{ctx}: only small chunks seal mid-run");
            assert!(live_stats.bytes <= ref_stats.bytes, "{ctx}");
        }
        assert_eq!(live_r.functions(), ref_r.functions(), "{ctx}");
        for rank in ref_r.source_ranks() {
            let of = |r: &StoreReader| -> Vec<_> {
                let mine = r.chunks().iter().filter(|m| m.rank == rank);
                mine.map(identity).collect()
            };
            assert_eq!(of(&live_r), of(&ref_r), "{ctx}: rank {rank} chunks");
        }
        for p in [ref_path, live_path] {
            std::fs::remove_file(&p).ok();
        }
    }
}

#[test]
fn lanes_match_the_shared_path_on_every_app_policy_and_floor() {
    for app in ["smg98", "sppm", "sweep3d", "umt98"] {
        for policy in [Policy::Full, Policy::Subset, Policy::Dynamic] {
            for floor_us in [0, 3] {
                let cfg = SessionConfig::new(Machine::ibm_power3_colony(), policy)
                    .with_seed(12)
                    .with_suppress_floor(SimTime::from_micros(floor_us));
                assert_lanes_match_the_shared_path(
                    &test_app(app, 4).unwrap(),
                    cfg,
                    &format!("{app} {policy} floor={floor_us}"),
                );
            }
        }
    }
}

/// Eight OpenMP threads are eight simulated processes feeding one rank's
/// lane, under that rank's one guard.
#[test]
fn eight_threads_share_one_lane() {
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(12);
    assert_lanes_match_the_shared_path(&test_app("umt98", 8).unwrap(), cfg, "umt98 x8");
}

// ---- the lock witness ---------------------------------------------------

#[derive(Default)]
struct Counts {
    funcdefs: AtomicU64,
    lanes: AtomicU64,
    pushes: AtomicU64,
    closes: AtomicU64,
    /// `write` calls the store's file received.
    writes: AtomicU64,
}

/// Counts what the library asks of a sink's shared half (every call here
/// is made under the sink mutex) and of its lanes (none is).
struct Witness<S> {
    inner: S,
    counts: Arc<Counts>,
}

struct WitnessLane {
    inner: Box<dyn Lane>,
    counts: Arc<Counts>,
}

impl<S: EventSink> EventSink for Witness<S> {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        self.counts.funcdefs.fetch_add(1, Ordering::Relaxed);
        self.inner.funcdef(id, name);
    }

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        self.counts.lanes.fetch_add(1, Ordering::Relaxed);
        Box::new(WitnessLane {
            inner: self.inner.lane(rank),
            counts: Arc::clone(&self.counts),
        })
    }
}

impl Lane for WitnessLane {
    fn push(&mut self, ev: &Event) -> bool {
        self.counts.pushes.fetch_add(1, Ordering::Relaxed);
        self.inner.push(ev)
    }

    fn switch(&mut self) {
        self.inner.switch();
    }

    fn close(self: Box<Self>) {
        self.counts.closes.fetch_add(1, Ordering::Relaxed);
        self.inner.close();
    }
}

/// An in-memory file that counts the writes it receives: the store's file
/// half is only ever entered to write.
struct CountingFile {
    file: Cursor<Vec<u8>>,
    counts: Arc<Counts>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Seek for CountingFile {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
}

/// The deep workload's shape at test scale — one process, eight threads,
/// every static probe active, chunks small enough that dozens seal: the
/// sink mutex is taken per `VT_funcdef` and per lane opened, the store's
/// file half per sealed chunk, and neither per event.
#[test]
fn the_shared_half_is_entered_per_chunk_not_per_event() {
    let app = test_app("umt98", 8).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(12);
    let counts = Arc::new(Counts::default());
    let file = CountingFile {
        file: Cursor::new(Vec::new()),
        counts: Arc::clone(&counts),
    };
    let opts = StoreOptions { chunk_events: 8 };
    let slot = Arc::new(Mutex::new(Some(Witness {
        inner: StoreWriter::new(file, &app.name, opts).unwrap(),
        counts: Arc::clone(&counts),
    })));
    let report = run_session(&app, cfg.with_capture(Arc::clone(&slot) as _));
    let stats = slot.lock().unwrap().take().unwrap().inner.finish().unwrap();

    let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let funcdefs = report.vt.function_names().len() as u64;
    assert_eq!(n(&counts.funcdefs), funcdefs);
    assert_eq!(n(&counts.lanes), 1, "one recording rank, asked once");
    assert_eq!(n(&counts.closes), 1);
    assert_eq!(
        n(&counts.pushes),
        stats.events,
        "every event, through the lane"
    );
    // The file: its header, the preamble, header + payload per chunk, the
    // footer — nothing per event.
    assert_eq!(n(&counts.writes), 2 + 2 * stats.chunks as u64 + 1);
    // Pinned: what this session is, so a change in either direction shows.
    let entries = n(&counts.funcdefs) + n(&counts.lanes) + stats.chunks as u64 + n(&counts.closes);
    assert_eq!(
        (stats.events, stats.chunks, entries),
        (PINNED.0, PINNED.1, PINNED.2),
        "events, chunks, shared-half entries (funcdefs + lanes + chunks + closes)"
    );
    assert!(
        entries * 4 < stats.events,
        "{entries} entries, {} events",
        stats.events
    );
}

/// `(events, chunks, shared-half entries)` of umt98 ×8 `policy=full` seed
/// 12 at test scale with 8-event chunks.
const PINNED: (u64, usize, u64) = (578, 73, 99);

// ---- lanes at the library's surface --------------------------------------

/// Drive `body` as the one simulated process of a library with `ranks`
/// ranks whose sink is `sink`, then close the lanes.
fn drive(
    ranks: usize,
    sink: SharedSink,
    body: impl FnOnce(&dynprof::sim::Proc, &VtLib) + Send + 'static,
) {
    let vt = VtLib::new("lanes", ranks, VtConfig::all_on(), ProbeCosts::power3());
    vt.set_sink(sink);
    let sim = Sim::virtual_time(Machine::test_machine(), 1);
    let vt2 = Arc::clone(&vt);
    sim.spawn("driver", 0, move |p| {
        (0..ranks).for_each(|r| vt2.init(p, r));
        body(p, &vt2);
    });
    sim.run();
    vt.close_lanes();
}

/// A run that dies never closes its lanes; a lane dropped unclosed hands
/// nothing over, so the file holds exactly the chunks sealed while it ran.
#[test]
fn a_lane_dropped_unclosed_writes_nothing() {
    let path = tmp("unclosed");
    let mut w = StoreWriter::create(&path, "unclosed", StoreOptions { chunk_events: 4 }).unwrap();
    let mut lane = w.lane(0);
    for i in 0..6 {
        let ev = Event::ConfSync {
            t: SimTime::from_micros(i),
            rank: 0,
            epoch: i as u32,
        };
        assert!(lane.push(&ev));
    }
    drop(lane);
    let stats = w.finish().unwrap();
    assert_eq!((stats.chunks, stats.events), (1, 4), "the full chunk only");
    let mut r = StoreReader::open(&path).unwrap();
    assert_eq!(r.read_all().unwrap().events.len(), 4);
    std::fs::remove_file(&path).ok();
}

/// A roll is a sub-buffer switch: a rank that recorded a little and went
/// quiet — never filling a chunk — is in every segment up to its last
/// event and in none after, and each segment holds each rank's events of
/// that slice of the run, in order.
#[test]
fn a_quiet_rank_is_in_every_segment_up_to_its_last_event() {
    let base = tmp("quiet");
    let w = RotatingWriter::create(
        &base,
        "quiet",
        StoreOptions::default(),
        RotationPolicy::by_events(30),
        RetentionPolicy::default(),
    )
    .unwrap();
    let slot = Arc::new(Mutex::new(Some(w)));
    // Pairs round-robin over three ranks for the first 24 pairs (48
    // events: one roll at 30), then over ranks 0 and 1 only.
    let schedule: Vec<usize> = (0..24)
        .map(|i| i % 3)
        .chain((0..60).map(|i| i % 2))
        .collect();
    let plan = schedule.clone();
    drive(3, Arc::clone(&slot) as _, move |p, vt| {
        let f = vt.funcdef(p, "work");
        for rank in plan {
            vt.begin(p, rank, 0, f, 1);
            p.advance(SimTime::from_micros(1));
            vt.end(p, rank, 0, f);
        }
    });
    let stats = slot.lock().unwrap().take().unwrap().finish().unwrap();
    assert_eq!(stats.events as usize, 2 * schedule.len());
    assert_eq!(stats.rotated, 5, "{stats:?}");

    // Replay the schedule against the cap: which rank is in which segment.
    let mut expect: Vec<Vec<usize>> = vec![Vec::new()];
    for (i, rank) in schedule.iter().flat_map(|r| [r, r]).enumerate() {
        if i > 0 && i % 30 == 0 {
            expect.push(Vec::new());
        }
        expect.last_mut().unwrap().push(*rank);
    }
    assert_eq!(stats.segments.len(), expect.len());
    for (path, ranks) in stats.segments.iter().zip(&expect) {
        let mut r = StoreReader::open(path).unwrap();
        let mut want: Vec<u32> = ranks.iter().map(|&r| r as u32).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(r.source_ranks(), want, "{}", path.display());
        for rank in want {
            let mut n = 0;
            r.query(None, Some(rank), &mut |_| n += 1).unwrap();
            let expected = ranks.iter().filter(|&&x| x as u32 == rank).count();
            assert_eq!(n, expected, "{} rank {rank}", path.display());
        }
    }
    assert_eq!(expect[0].iter().filter(|&&r| r == 2).count(), 10);
    assert!(expect[1].contains(&2) && !expect[2].contains(&2));
    for p in &stats.segments {
        std::fs::remove_file(p).ok();
    }
}
