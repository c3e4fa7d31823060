//! Property-based tests over the core data structures and invariants.
//!
//! Each property is exercised over a few hundred randomized cases driven
//! by the simulator's own deterministic [`SimRng`] (no external
//! property-testing framework is available in this build environment), so
//! failures reproduce exactly from the fixed seeds below.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dynprof::analysis::store::{write_store_from_trace, StoreOptions, StoreReader};
use dynprof::analysis::{
    CommStats, FuncProfile, ProfileBuilder, ProfileOptions, TimelineBuilder, TimelineOptions,
};
use dynprof::dpcl::{BackoffSchedule, DpclClient, DpclSystem};
use dynprof::image::{FunctionInfo, ImageBuilder, ProbePoint, Snippet};
use dynprof::mpi::{launch, JobSpec};
use dynprof::omp::Schedule;
use dynprof::sim::fault::{FaultPlan, FaultSpec};
use dynprof::sim::rng::SimRng;
use dynprof::sim::SimTime;
use dynprof::sim::{Machine, Sim};
use dynprof::vt::{ConfigDelta, Event, Trace, VtConfig, VtFuncId};

fn rng(stream: u64) -> SimRng {
    SimRng::new(0xD15C_0B5E, stream)
}

/// A random identifier `[a-z][a-z0-9_]*` of length in `min..=max`.
fn ident(r: &mut SimRng, min: usize, max: usize) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let len = min + r.gen_index(max - min + 1);
    let mut s = String::with_capacity(len.max(1));
    s.push(FIRST[r.gen_index(FIRST.len())] as char);
    while s.len() < len.max(1) {
        s.push(REST[r.gen_index(REST.len())] as char);
    }
    s
}

fn arb_time(r: &mut SimRng) -> SimTime {
    SimTime::from_nanos(r.gen_range_u64(0..=u64::MAX / 4))
}

/// Any of the ten event kinds, its fields drawn from wide ranges.
fn arb_event(r: &mut SimRng) -> Event {
    let t = arb_time(r);
    let rank = r.next_u64() as u32;
    let thread = r.next_u64() as u16;
    let func = VtFuncId(r.next_u64() as u32);
    let span = |r: &mut SimRng| SimTime::from_nanos(r.gen_range_u64(0..=(1 << 40) - 1));
    match r.gen_index(10) {
        0 => Event::FuncEnter {
            t,
            rank,
            thread,
            func,
        },
        1 => Event::FuncExit {
            t,
            rank,
            thread,
            func,
        },
        2 => Event::FuncBatch {
            t,
            rank,
            thread,
            func,
            count: r.gen_range_u64(1..=1 << 40),
            span: span(r),
        },
        3 => Event::MpiCall {
            t,
            t_end: t + span(r),
            rank,
            op: r.gen_index(11) as u8,
            peer: r.next_u64() as i32,
            bytes: r.next_u64(),
        },
        4 => Event::OmpFork {
            t,
            rank,
            region: r.next_u64() as u32,
            team: thread,
        },
        5 => Event::OmpThread {
            t,
            t_end: t + span(r),
            rank,
            thread,
            region: r.next_u64() as u32,
        },
        6 => Event::FuncSuppressed {
            t,
            rank,
            thread,
            func,
            count: r.gen_range_u64(1..=1 << 40),
            span: span(r),
        },
        7 => Event::ConfSync {
            t,
            rank,
            epoch: r.next_u64() as u32,
        },
        8 => Event::OmpJoin {
            t,
            rank,
            region: r.next_u64() as u32,
            team: thread,
        },
        _ => Event::Suspended {
            t,
            t_end: t + span(r),
            rank,
        },
    }
}

/// The store round-trips arbitrary event sequences through any chunk
/// size: what `read_all` returns is the input, stable-sorted by
/// `(time, rank)`.
#[test]
fn trace_encode_decode_round_trip() {
    let mut r = rng(1);
    let path = std::env::temp_dir().join(format!("dynprof-codec-{}.vgvs", std::process::id()));
    for _ in 0..200 {
        let trace = Trace {
            program: if r.gen_index(4) == 0 {
                String::new()
            } else {
                ident(&mut r, 1, 24)
            },
            functions: (0..r.gen_index(20)).map(|_| ident(&mut r, 1, 40)).collect(),
            events: (0..r.gen_index(200)).map(|_| arb_event(&mut r)).collect(),
        };
        let chunk_events = 1 + r.gen_index(64);
        write_store_from_trace(&trace, &path, StoreOptions { chunk_events }).expect("write");
        let back = StoreReader::open(&path)
            .expect("open")
            .read_all()
            .expect("read");
        let mut want = trace;
        want.events.sort_by_key(|e| (e.time(), e.rank()));
        assert_eq!(back, want, "chunk_events {chunk_events}");
    }
    std::fs::remove_file(&path).ok();
}

/// `shape` — an event's kind and every field but time and duration — at
/// time `t`, lasting `dur` if its kind has a duration, on `rank`.
fn recur(shape: &Event, rank: u32, t: u64, dur: u64) -> Event {
    let (t, span) = (SimTime::from_nanos(t), SimTime::from_nanos(dur));
    let mut ev = shape.clone();
    match &mut ev {
        Event::FuncBatch { span: s, .. } | Event::FuncSuppressed { span: s, .. } => *s = span,
        Event::MpiCall { t_end, .. }
        | Event::OmpThread { t_end, .. }
        | Event::Suspended { t_end, .. } => *t_end = t + span,
        _ => {}
    }
    match &mut ev {
        Event::FuncEnter { t: at, rank: r, .. }
        | Event::FuncExit { t: at, rank: r, .. }
        | Event::FuncBatch { t: at, rank: r, .. }
        | Event::MpiCall { t: at, rank: r, .. }
        | Event::OmpFork { t: at, rank: r, .. }
        | Event::OmpJoin { t: at, rank: r, .. }
        | Event::OmpThread { t: at, rank: r, .. }
        | Event::ConfSync { t: at, rank: r, .. }
        | Event::Suspended { t: at, rank: r, .. }
        | Event::FuncSuppressed { t: at, rank: r, .. } => (*at, *r) = (t, rank),
    }
    ev
}

/// Store v4's recurrence codec on the streams it exists for: ranks
/// repeating a vocabulary of event shapes (every kind, with and without a
/// duration; from one shape to far more than the table holds, so shapes
/// collide and evict each other), each time with the same gap and
/// duration as last time, slightly more or less, or something unrelated,
/// and now and then a step back in time — through every chunk size from 1
/// to 64. What `read_all` returns is the input, stable-sorted; and the
/// repeats are what makes it small: the same stream sealed one event a
/// chunk, all literals, takes at least a third more bytes.
#[test]
fn recurrence_codec_round_trip() {
    let mut r = rng(2);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dynprof-recur-{}.vgvs", std::process::id()));
    let (mut tagged, mut literal) = (0u64, 0u64);
    let payload = |path: &std::path::Path| -> u64 {
        let r = StoreReader::open(path).expect("open");
        r.chunks().iter().map(|m| u64::from(m.enc_len)).sum()
    };
    for _ in 0..200 {
        let vocab: Vec<Event> = (0..1 + r.gen_index(80))
            .map(|_| arb_event(&mut r))
            .collect();
        let mut events = Vec::new();
        for rank in 0..1 + r.gen_index(3) as u32 {
            let cyclic = r.gen_index(2) == 0;
            let mut last = vec![(1_000i64, 50u64); vocab.len()];
            let mut t = r.gen_range_u64(0..=1 << 40) as i64;
            for i in 0..r.gen_index(300) {
                let k = if cyclic {
                    i % vocab.len()
                } else {
                    r.gen_index(vocab.len())
                };
                let (gap, dur) = &mut last[k];
                match r.gen_index(6) {
                    0..=2 => {} // the same gap and duration again
                    3 => {
                        *gap += r.gen_range_u64(0..=1_000) as i64 - 500;
                        *dur = dur.saturating_add_signed(r.gen_range_u64(0..=200) as i64 - 100);
                    }
                    4 => *gap = -(r.gen_range_u64(0..=5_000) as i64),
                    // Past what a v4 slot keeps (an `i32` Δt, a `u32`
                    // duration), so the narrowed words get exercised.
                    _ => {
                        *gap = r.gen_range_u64(0..=1 << 34) as i64 - (1 << 33);
                        *dur = r.gen_range_u64(0..=1 << 34);
                    }
                }
                t = (t + *gap).max(0);
                events.push(recur(&vocab[k], rank, t as u64, *dur));
            }
        }
        let trace = Trace {
            program: "recur".into(),
            functions: vec!["f".into()],
            events,
        };
        let chunk_events = 1 + r.gen_index(64);
        write_store_from_trace(&trace, &path, StoreOptions { chunk_events }).expect("write");
        let back = StoreReader::open(&path)
            .expect("open")
            .read_all()
            .expect("read");
        let mut want = trace.clone();
        want.events.sort_by_key(|e| (e.time(), e.rank()));
        assert_eq!(back, want, "chunk_events {chunk_events}");
        if chunk_events >= 8 {
            tagged += payload(&path);
            write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 1 }).expect("write");
            literal += payload(&path);
        }
    }
    assert!(
        tagged * 4 < literal * 3,
        "repeats took {tagged} payload bytes, the same events as literals {literal}"
    );
    std::fs::remove_file(&path).ok();
}

/// The profile accumulator the dense `ProfileBuilder` replaced: plain
/// ordered maps keyed `(rank, thread)` and `(rank, func)`, one search per
/// event. Kept here as the reference the dense builder is tested against.
#[derive(Default)]
struct MapProfile {
    windows: Option<BTreeMap<u32, Vec<(SimTime, SimTime)>>>,
    stacks: BTreeMap<(u32, u16), Vec<(SimTime, SimTime)>>,
    per_rank: BTreeMap<(u32, VtFuncId), FuncProfile>,
    ranks: BTreeSet<u32>,
}

impl MapProfile {
    fn discount(&self, rank: u32, a: SimTime, b: SimTime) -> SimTime {
        let ws = self.windows.as_ref().and_then(|w| w.get(&rank));
        let overlap = |&(w0, w1): &(SimTime, SimTime)| b.min(w1).saturating_sub(a.max(w0));
        ws.map_or(SimTime::ZERO, |ws| {
            ws.iter().map(overlap).fold(SimTime::ZERO, |x, y| x + y)
        })
    }

    fn push(&mut self, ev: &Event) {
        self.ranks.insert(ev.rank());
        match *ev {
            Event::FuncEnter {
                t, rank, thread, ..
            } => self
                .stacks
                .entry((rank, thread))
                .or_default()
                .push((t, SimTime::ZERO)),
            Event::FuncExit {
                t,
                rank,
                thread,
                func,
            } => {
                let stack = self.stacks.entry((rank, thread)).or_default();
                let Some((t0, child)) = stack.pop() else {
                    return;
                };
                let span = t.saturating_sub(t0);
                let span = span.saturating_sub(self.discount(rank, t0, t));
                let row = self.per_rank.entry((rank, func)).or_default();
                row.count += 1;
                row.incl += span;
                row.excl += span.saturating_sub(child);
                self.credit_parent(rank, thread, span);
            }
            Event::FuncBatch {
                t,
                rank,
                thread,
                func,
                count,
                span,
            }
            | Event::FuncSuppressed {
                t,
                rank,
                thread,
                func,
                count,
                span,
            } => {
                let span = span.saturating_sub(self.discount(rank, t, t + span));
                let row = self.per_rank.entry((rank, func)).or_default();
                row.count += count;
                row.incl += span;
                row.excl += span;
                self.credit_parent(rank, thread, span);
            }
            _ => {}
        }
    }

    fn credit_parent(&mut self, rank: u32, thread: u16, span: SimTime) {
        if let Some(parent) = self
            .stacks
            .get_mut(&(rank, thread))
            .and_then(|s| s.last_mut())
        {
            parent.1 += span;
        }
    }
}

/// `ProfileBuilder` indexes arrays by rank, thread and function id where
/// they are small and spills where they are not; whatever ids a trace
/// names — interleaved, sparse, descending, up to the type's maximum,
/// beyond the function dictionary — it must produce exactly what the
/// map-based reference does, and feeding the same events grouped by rank
/// (the order a store and a live capture's lanes use) must change nothing.
#[test]
fn profile_builder_matches_map_reference_on_arbitrary_ids() {
    // Both sides of every dense/spill boundary, listed descending.
    const RANKS: [u32; 8] = [u32::MAX, 1 << 20, 65_536, 65_535, 1_152, 7, 1, 0];
    const THREADS: [u16; 6] = [u16::MAX, 256, 64, 63, 1, 0];
    const FUNCS: [u32; 6] = [0, 1, 5, 6, 4_000, u32::MAX];
    let functions: Vec<String> = (0..6).map(|i| format!("f{i}")).collect();
    let mut r = rng(12);
    for case in 0..150 {
        let ranks: Vec<u32> = RANKS
            .iter()
            .copied()
            .filter(|_| r.gen_index(2) == 0)
            .collect();
        if ranks.is_empty() {
            continue;
        }
        // Two disjoint suspension windows per rank, used by half the cases.
        let ms = SimTime::from_millis;
        let windows: BTreeMap<u32, Vec<(SimTime, SimTime)>> = ranks
            .iter()
            .map(|&rank| (rank, vec![(ms(2), ms(3)), (ms(6), ms(9))]))
            .collect();
        let opts = ProfileOptions {
            exclude_suspensions: case % 2 == 0,
        };

        // Well-nested per-(rank, thread) streams on one per-rank clock,
        // interleaved across ranks at random.
        let mut clock: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut open: BTreeMap<(u32, u16), Vec<VtFuncId>> = BTreeMap::new();
        let mut events = Vec::new();
        for _ in 0..r.gen_index(400) {
            let rank = ranks[r.gen_index(ranks.len())];
            let thread = THREADS[r.gen_index(THREADS.len())];
            let func = VtFuncId(FUNCS[r.gen_index(FUNCS.len())]);
            let now = clock.entry(rank).or_default();
            *now += SimTime::from_micros(r.gen_range_u64(0..=400));
            let t = *now;
            let stack = open.entry((rank, thread)).or_default();
            let span = SimTime::from_micros(r.gen_range_u64(0..=2_000));
            events.push(match r.gen_index(7) {
                0 | 1 => {
                    stack.push(func);
                    Event::FuncEnter {
                        t,
                        rank,
                        thread,
                        func,
                    }
                }
                // An exit on an empty stack is a stray: ignored by both.
                2 | 3 => Event::FuncExit {
                    t,
                    rank,
                    thread,
                    func: stack.pop().unwrap_or(func),
                },
                4 => Event::FuncBatch {
                    t,
                    rank,
                    thread,
                    func,
                    count: r.gen_range_u64(0..=9),
                    span,
                },
                5 => Event::FuncSuppressed {
                    t,
                    rank,
                    thread,
                    func,
                    count: r.gen_range_u64(1..=9),
                    span,
                },
                // Names the rank without touching any function row.
                _ => Event::ConfSync { t, rank, epoch: 1 },
            });
        }

        let mut reference = MapProfile {
            windows: opts.exclude_suspensions.then(|| windows.clone()),
            ..MapProfile::default()
        };
        events.iter().for_each(|ev| reference.push(ev));

        let mut by_rank = events.clone();
        by_rank.sort_by_key(Event::rank); // stable: per-rank order kept
        for (feed, order) in [(&events, "interleaved"), (&by_rank, "by rank")] {
            let mut b = ProfileBuilder::new(functions.clone(), opts);
            b.set_suspensions(windows.clone());
            feed.iter().for_each(|ev| b.push(ev));
            let got = b.finish();
            assert_eq!(got.per_rank, reference.per_rank, "case {case} {order}");
            let want: Vec<u32> = reference.ranks.iter().copied().collect();
            assert_eq!(got.ranks, want, "case {case} {order}");
        }
    }
}

/// The time-line accumulator the dense `TimelineBuilder` replaced: rows,
/// first/last times and frame stacks in ordered maps keyed `(rank, …)`,
/// two searches per event, and `u128` bucket arithmetic. Kept here as the
/// reference the dense builder is tested against.
struct MapTimeline {
    program: String,
    t0: SimTime,
    t1: SimTime,
    width: usize,
    per_thread: bool,
    grids: BTreeMap<(u32, Option<u16>), Vec<u8>>,
    first_last: BTreeMap<u32, (SimTime, SimTime)>,
    func_stack: BTreeMap<(u32, u16), Vec<SimTime>>,
    events: u64,
}

impl MapTimeline {
    const GLYPHS: [char; 6] = [' ', '.', '#', '~', 'M', 'S'];
    const IDLE: u8 = 1;
    const FUNC: u8 = 2;
    const WIGGLE: u8 = 3;
    const MPI: u8 = 4;
    const SUSPENDED: u8 = 5;

    fn new(program: &str, t0: SimTime, t1: SimTime, opts: TimelineOptions) -> MapTimeline {
        MapTimeline {
            program: program.to_string(),
            t0,
            t1,
            width: opts.width.max(8),
            per_thread: opts.per_thread,
            grids: BTreeMap::new(),
            first_last: BTreeMap::new(),
            func_stack: BTreeMap::new(),
            events: 0,
        }
    }

    fn bucket_of(&self, t: SimTime) -> usize {
        let span = self.t1.saturating_sub(self.t0).max(SimTime::from_nanos(1));
        let rel = t.saturating_sub(self.t0).as_nanos() as u128;
        ((rel * self.width as u128 / span.as_nanos().max(1) as u128) as usize).min(self.width - 1)
    }

    fn paint(&mut self, rank: u32, thread: Option<u16>, a: SimTime, b: SimTime, g: u8) {
        let (ba, bb) = (self.bucket_of(a), self.bucket_of(b));
        let width = self.width;
        let grid = self
            .grids
            .entry((rank, thread))
            .or_insert_with(|| vec![0; width]);
        for cell in grid[ba..=bb].iter_mut() {
            *cell = (*cell).max(g);
        }
    }

    fn push(&mut self, ev: &Event) {
        self.events += 1;
        let entry = self
            .first_last
            .entry(ev.rank())
            .or_insert((ev.time(), ev.time()));
        entry.0 = entry.0.min(ev.time());
        entry.1 = entry.1.max(ev.time());
        match *ev {
            Event::FuncEnter {
                t, rank, thread, ..
            } => {
                self.func_stack.entry((rank, thread)).or_default().push(t);
            }
            Event::FuncExit {
                t, rank, thread, ..
            } => {
                if let Some(t0) = self.func_stack.entry((rank, thread)).or_default().pop() {
                    self.paint(rank, None, t0, t, Self::FUNC);
                    if self.per_thread {
                        self.paint(rank, Some(thread), t0, t, Self::FUNC);
                    }
                }
            }
            Event::FuncBatch {
                t,
                rank,
                thread,
                span,
                ..
            } => {
                self.paint(rank, None, t, t + span, Self::FUNC);
                if self.per_thread {
                    self.paint(rank, Some(thread), t, t + span, Self::FUNC);
                }
            }
            Event::MpiCall { t, t_end, rank, .. } => {
                self.paint(rank, None, t, t_end, Self::MPI);
            }
            Event::OmpThread {
                t,
                t_end,
                rank,
                thread,
                ..
            } => {
                self.paint(rank, None, t, t_end, Self::WIGGLE);
                if self.per_thread {
                    self.paint(rank, Some(thread), t, t_end, Self::WIGGLE);
                }
            }
            Event::Suspended { t, t_end, rank } => {
                self.paint(rank, None, t, t_end, Self::SUSPENDED);
            }
            _ => {}
        }
    }

    fn finish(mut self) -> String {
        if self.events == 0 {
            return String::from("(empty trace)\n");
        }
        let spans: Vec<(u32, SimTime, SimTime)> = self
            .first_last
            .iter()
            .map(|(&r, &(a, b))| (r, a, b))
            .collect();
        for (r, a, b) in spans {
            self.paint(r, None, a, b, Self::IDLE);
        }
        let ranks = self.first_last.len();
        let mut out = String::new();
        out.push_str(&format!(
            "time-line of {:?}: {} .. {} ({} ranks)\n",
            self.program, self.t0, self.t1, ranks
        ));
        out.push_str("legend: M=MPI call  ~=OpenMP region  #=function  S=suspended  .=traced\n");
        for (&(rank, thread), grid) in &self.grids {
            let label = match thread {
                None => format!("rank {rank:>3}      "),
                Some(t) => format!("  thread {t:>2}   "),
            };
            out.push_str(&label);
            out.push('|');
            out.extend(grid.iter().map(|&g| Self::GLYPHS[g as usize]));
            out.push_str("|\n");
        }
        out
    }
}

/// The message statistics the dense `CommStats` replaced: four ordered
/// maps, a search per event, and a matrix rendered with one `format!` and
/// one `(sender, receiver)` search per cell.
#[derive(Default)]
struct MapComm {
    bytes: BTreeMap<(u32, u32), u64>,
    messages: BTreeMap<(u32, u32), u64>,
    mpi_time: BTreeMap<u32, SimTime>,
    collectives: BTreeMap<u32, u64>,
}

impl MapComm {
    fn push(&mut self, ev: &Event) {
        if let Event::MpiCall {
            t,
            t_end,
            rank,
            op,
            peer,
            bytes,
        } = *ev
        {
            *self.mpi_time.entry(rank).or_insert(SimTime::ZERO) += t_end.saturating_sub(t);
            match op {
                2 if peer >= 0 => {
                    *self.bytes.entry((rank, peer as u32)).or_insert(0) += bytes;
                    *self.messages.entry((rank, peer as u32)).or_insert(0) += 1;
                }
                4..=11 => *self.collectives.entry(rank).or_insert(0) += 1,
                _ => {}
            }
        }
    }

    fn render_matrix(&self) -> String {
        let mut ranks: Vec<u32> = self.bytes.keys().flat_map(|&(a, b)| [a, b]).collect();
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.is_empty() {
            return String::new();
        }
        let mut out = String::from("bytes sent (row = sender, col = receiver)\n");
        out.push_str("        ");
        for &c in &ranks {
            out.push_str(&format!("{c:>12}"));
        }
        out.push('\n');
        for &r in &ranks {
            out.push_str(&format!("rank {r:>3}"));
            for &c in &ranks {
                let v = self.bytes.get(&(r, c)).copied().unwrap_or(0);
                out.push_str(&format!("{v:>12}"));
            }
            out.push('\n');
        }
        out
    }
}

/// `TimelineBuilder` and `CommStats` keep their per-event state in arrays
/// indexed by rank and thread where the ids are small and spill where they
/// are not. Over random traces naming ranks and threads on both sides of
/// every dense/spill boundary — for whole, inner, disjoint and zero-length
/// windows, rank-only and per-thread pictures, widths at and off the
/// default — they must render, byte for byte, what the map-based
/// references render.
#[test]
fn timeline_and_comm_match_map_references_on_arbitrary_ids() {
    const RANKS: [u32; 7] = [u32::MAX, 1 << 20, 65_536, 65_535, 1_152, 7, 0];
    const THREADS: [u16; 6] = [u16::MAX, 65, 64, 63, 1, 0];
    // Receivers include ranks that record nothing, and `MPI_PROC_NULL`.
    const PEERS: [i32; 9] = [-2, -1, 0, 5, 7, 1_152, 65_535, 65_536, i32::MAX];
    let us = SimTime::from_micros;
    let mut r = rng(19);
    for case in 0..40 {
        let ranks: Vec<u32> = RANKS
            .iter()
            .copied()
            .filter(|_| r.gen_index(2) == 0)
            .collect();
        // Per-rank clocks; frames nest per (rank, thread).
        let mut clock: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut events = Vec::new();
        for _ in 0..r.gen_index(300) * ranks.len().min(1) {
            let rank = ranks[r.gen_index(ranks.len())];
            let thread = THREADS[r.gen_index(THREADS.len())];
            let now = clock.entry(rank).or_default();
            *now += us(r.gen_range_u64(0..=300));
            let t = *now;
            let span = us(r.gen_range_u64(0..=1_500));
            let func = VtFuncId(0);
            // Now and then wider than a 12-column cell.
            let bytes_bits = [10, 45][r.gen_index(2)];
            events.push(match r.gen_index(8) {
                0 | 1 => Event::FuncEnter {
                    t,
                    rank,
                    thread,
                    func,
                },
                // Unmatched exits are strays: ignored by both.
                2 | 3 => Event::FuncExit {
                    t,
                    rank,
                    thread,
                    func,
                },
                4 => Event::FuncBatch {
                    t,
                    rank,
                    thread,
                    func,
                    count: 3,
                    span,
                },
                5 => Event::MpiCall {
                    t,
                    t_end: t + span,
                    rank,
                    // Every known op and two unknown codes.
                    op: r.gen_index(14) as u8,
                    peer: PEERS[r.gen_index(PEERS.len())],
                    bytes: r.gen_range_u64(0..=1 << bytes_bits),
                },
                6 => Event::OmpThread {
                    t,
                    t_end: t + span,
                    rank,
                    thread,
                    region: 1,
                },
                _ if r.gen_index(2) == 0 => Event::Suspended {
                    t,
                    t_end: t + span,
                    rank,
                },
                _ => Event::ConfSync { t, rank, epoch: 1 },
            });
        }

        let mut comm = CommStats::default();
        let mut comm_ref = MapComm::default();
        for ev in &events {
            comm.push(ev);
            comm_ref.push(ev);
        }
        assert_eq!(
            comm.render_matrix(),
            comm_ref.render_matrix(),
            "case {case}"
        );
        assert_eq!(
            comm.has_traffic(),
            !comm_ref.bytes.is_empty(),
            "case {case}"
        );
        let times: Vec<(u32, SimTime)> = comm.mpi_times().collect();
        let want: Vec<(u32, SimTime)> = comm_ref.mpi_time.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(times, want, "case {case}");
        for &sender in &RANKS {
            let count = comm_ref.collectives.get(&sender).copied().unwrap_or(0);
            assert_eq!(comm.collectives(sender), count, "case {case}");
            for &peer in PEERS.iter().filter(|&&p| p >= 0) {
                let key = (sender, peer as u32);
                let (bytes, messages) = (comm_ref.bytes.get(&key), comm_ref.messages.get(&key));
                assert_eq!(comm.bytes(key.0, key.1), bytes.copied().unwrap_or(0));
                assert_eq!(comm.messages(key.0, key.1), messages.copied().unwrap_or(0));
            }
        }

        let end = clock.values().copied().max().unwrap_or_default() + us(1_500);
        let windows = [
            (SimTime::ZERO, end),           // everything
            (end / 4, end / 2),             // inside
            (end + us(10), end + us(20)),   // after the last event
            (end / 2, end / 2),             // zero length, inside
            (SimTime::ZERO, SimTime::ZERO), // zero length, at the start
            (end * 3, end * 3),             // zero length, outside
        ];
        for (t0, t1) in windows {
            for width in [3, 8, 96, 97] {
                for per_thread in [false, true] {
                    let opts = TimelineOptions { width, per_thread };
                    let mut b = TimelineBuilder::new("prop", t0, t1, opts);
                    let mut reference = MapTimeline::new("prop", t0, t1, opts);
                    for ev in &events {
                        b.push(ev);
                        reference.push(ev);
                    }
                    assert_eq!(
                        b.finish(),
                        reference.finish(),
                        "case {case} window {t0}..{t1} width {width} per_thread {per_thread}"
                    );
                }
            }
        }
    }
}

/// Configuration render/parse round-trips semantically: every queried
/// name resolves identically before and after.
#[test]
fn config_render_parse_round_trip() {
    let mut r = rng(2);
    for _ in 0..200 {
        let mut cfg = if r.gen_index(2) == 0 {
            VtConfig::all_on()
        } else {
            VtConfig::all_off()
        };
        for _ in 0..r.gen_index(12) {
            let name = ident(&mut r, 1, 13);
            let on = r.gen_index(2) == 0;
            cfg.exact.insert(name, on);
        }
        for _ in 0..r.gen_index(6) {
            let p = ident(&mut r, 1, 7);
            let on = r.gen_index(2) == 0;
            // Deduplicate: the render order of duplicate prefixes is not
            // defined, so keep last-write-wins semantics explicit.
            cfg.prefixes.retain(|(q, _)| q != &p);
            cfg.prefixes.push((p, on));
        }
        let queries: Vec<String> = (0..r.gen_index(24)).map(|_| ident(&mut r, 1, 15)).collect();
        let reparsed = VtConfig::parse(&cfg.render()).expect("parse");
        for q in &queries {
            assert_eq!(reparsed.resolve(q), cfg.resolve(q), "query {q}");
        }
        for n in cfg.exact.keys() {
            assert_eq!(reparsed.resolve(n), cfg.resolve(n));
        }
    }
}

/// Applying a Set delta makes exactly the named symbols resolve to the
/// requested state (for non-prefix, non-default names).
#[test]
fn config_delta_set_is_effective() {
    let mut r = rng(3);
    for _ in 0..200 {
        let names: std::collections::BTreeSet<String> = (0..1 + r.gen_index(7))
            .map(|_| ident(&mut r, 3, 11))
            .collect();
        let on = r.gen_index(2) == 0;
        let mut cfg = if on {
            VtConfig::all_off()
        } else {
            VtConfig::all_on()
        };
        let delta = ConfigDelta::Set(names.iter().map(|n| (n.clone(), on)).collect());
        cfg.apply(&delta);
        for n in &names {
            assert_eq!(cfg.resolve(n), on);
        }
    }
}

/// Static schedules partition any iteration space exactly: every index
/// executed once, regardless of thread count or chunking.
#[test]
fn static_schedules_partition_exactly() {
    let mut r = rng(4);
    for _ in 0..300 {
        let start = r.gen_index(1000);
        let len = r.gen_index(500);
        let nthreads = 1 + r.gen_index(16);
        let chunk = r.gen_index(9);
        let sched = Schedule::Static { chunk };
        let range = start..start + len;
        let mut seen = vec![0u32; len];
        for tid in 0..nthreads {
            for c in sched.static_chunks(range.clone(), tid, nthreads) {
                for i in c {
                    assert!(i >= start && i < start + len, "index {i} out of range");
                    seen[i - start] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "not a partition: {seen:?}");
    }
}

/// 3-D decompositions multiply out exactly and order their factors.
#[test]
fn decomp3_is_exact() {
    for p in 1usize..512 {
        let d = dynprof::apps::workload::Decomp3::new(p);
        assert_eq!(d.px * d.py * d.pz, p);
        assert!(d.px >= d.py && d.py >= d.pz);
        // Coordinates round-trip for every rank.
        for rk in 0..p {
            let (x, y, z) = d.coords(rk);
            assert_eq!(d.rank_at(x as isize, y as isize, z as isize), Some(rk));
        }
    }
}

/// Online statistics match the naive definitions.
#[test]
fn online_stats_match_naive() {
    let mut r = rng(5);
    for _ in 0..200 {
        let xs: Vec<f64> = (0..1 + r.gen_index(59))
            .map(|_| (r.gen_f64() - 0.5) * 2e6)
            .collect();
        let mut s = dynprof::sim::OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
        if xs.len() > 1 {
            let var =
                xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
            assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }
    }
}

/// MPI collectives agree with sequential oracles for arbitrary inputs
/// and rank counts (exercised end-to-end through the simulator).
#[test]
fn mpi_collectives_match_oracle() {
    let mut r = rng(6);
    for case in 0..24 {
        let n = 1 + r.gen_index(8);
        let root = r.gen_index(n);
        let values: Vec<u64> = (0..n).map(|_| r.gen_range_u64(0..=(1 << 30) - 1)).collect();
        let seed = r.gen_range_u64(0..=999);
        let values = Arc::new(values);
        let results = Arc::new(std::sync::Mutex::new(std::collections::BTreeMap::<
            usize,
            (u64, u64, Vec<u64>, u64),
        >::new()));
        let sim = Sim::virtual_time(Machine::test_machine(), seed);
        let (v2, r2) = (Arc::clone(&values), Arc::clone(&results));
        launch(&sim, JobSpec::new("prop", n), vec![], move |p, c| {
            c.init(p);
            let mine = v2[c.rank()];
            let sum = c.allreduce(p, mine, |a, b| a.wrapping_add(b));
            let maxv = c.bcast(
                p,
                root,
                (c.rank() == root).then(|| *v2.iter().max().unwrap()),
            );
            let gathered = c.allgather(p, mine);
            let prefix = c.scan(p, mine, |a, b| a.wrapping_add(b));
            r2.lock()
                .unwrap()
                .insert(c.rank(), (sum, maxv, gathered, prefix));
            c.finalize(p);
        });
        sim.run();
        let results = results.lock().unwrap();
        let oracle_sum: u64 = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        let oracle_max = *values.iter().max().unwrap();
        for (rank, (sum, maxv, gathered, prefix)) in results.iter() {
            assert_eq!(*sum, oracle_sum, "allreduce on rank {rank} (case {case})");
            assert_eq!(*maxv, oracle_max, "bcast on rank {rank} (case {case})");
            assert_eq!(gathered.as_slice(), &values[..], "allgather on rank {rank}");
            let oracle_prefix: u64 = values[..=*rank]
                .iter()
                .fold(0u64, |a, &b| a.wrapping_add(b));
            assert_eq!(*prefix, oracle_prefix, "scan on rank {rank} (case {case})");
        }
    }
}

/// Alltoall is a transpose for arbitrary square payload matrices.
#[test]
fn mpi_alltoall_transposes() {
    let mut r = rng(7);
    for _ in 0..12 {
        let n = 1 + r.gen_index(6);
        let seed = r.gen_range_u64(0..=99);
        let results = Arc::new(std::sync::Mutex::new(vec![Vec::new(); n]));
        let sim = Sim::virtual_time(Machine::test_machine(), seed);
        let r2 = Arc::clone(&results);
        launch(&sim, JobSpec::new("a2a", n), vec![], move |p, c| {
            c.init(p);
            let me = c.rank() as u64;
            let send: Vec<u64> = (0..c.size() as u64).map(|i| me * 1000 + i).collect();
            let recv = c.alltoall(p, send);
            r2.lock().unwrap()[c.rank()] = recv;
            c.finalize(p);
        });
        sim.run();
        let results = results.lock().unwrap();
        for (rk, row) in results.iter().enumerate() {
            for (s, v) in row.iter().enumerate() {
                assert_eq!(*v, s as u64 * 1000 + rk as u64);
            }
        }
    }
}

/// The retry backoff schedule is monotone non-decreasing, bounded by
/// `cap + cap/4` (cap plus maximum jitter), starts at `base` or above,
/// and is a pure function of its seed.
#[test]
fn backoff_schedule_is_monotone_bounded_deterministic() {
    let mut r = rng(9);
    let mut seeds_diverged = 0usize;
    for _ in 0..200 {
        let base = SimTime::from_nanos(1 + r.gen_range_u64(0..=100_000_000));
        let cap = SimTime::from_nanos(base.as_nanos() + r.gen_range_u64(0..=3_000_000_000));
        let seed = r.next_u64();
        let mut a = BackoffSchedule::new(base, cap, seed);
        let mut b = BackoffSchedule::new(base, cap, seed);
        let mut c = BackoffSchedule::new(base, cap, seed ^ 0x5eed);
        let mut prev = SimTime::ZERO;
        let mut c_differs = false;
        for i in 0..12 {
            let d = a.next_delay();
            assert_eq!(d, b.next_delay(), "same seed must replay identically");
            c_differs |= d != c.next_delay();
            assert!(d >= base, "delay {i} below base: {d:?} < {base:?}");
            assert!(d >= prev, "delay {i} not monotone: {d:?} < {prev:?}");
            assert!(
                d.as_nanos() <= cap.as_nanos() + cap.as_nanos() / 4,
                "delay {i} above cap+jitter: {d:?} (cap {cap:?})"
            );
            prev = d;
        }
        seeds_diverged += c_differs as usize;
    }
    // Jitter must actually depend on the seed (a handful of ties among
    // 200 cases is fine; zero divergence means the seed is ignored).
    assert!(seeds_diverged > 150, "only {seeds_diverged}/200 diverged");
}

/// A simulation under a live fault plan of `profile`: the only kind in
/// which a request can arrive twice, so the only kind in which the client
/// keeps resend copies and daemons keep dedup entries.
fn faulted_sim(seed: u64, profile: &str) -> Sim {
    let sim = Sim::virtual_time(Machine::test_machine(), seed);
    let spec = FaultSpec::parse(&format!("{seed}:{profile}")).expect("fault profile");
    assert!(sim.set_fault_plan(FaultPlan::new(&spec, sim.machine())));
    sim
}

/// Resending an already-acked request is a no-op: the client refuses
/// (the pending entry is gone) and the target image state is unchanged.
#[test]
fn resend_after_ack_is_noop() {
    let mut r = rng(10);
    for _ in 0..20 {
        let seed = r.gen_range_u64(0..=9999);
        let sim = faulted_sim(seed, "delay");
        let system = DpclSystem::new(["u"]);
        let mut b = ImageBuilder::new("t");
        let f = b.add(FunctionInfo::new("hot"));
        let image = Arc::new(b.build());
        let img2 = Arc::clone(&image);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&img2), "t").unwrap();
            let req = client.install_probe(p, &h, ProbePoint::entry(f), Snippet::noop("n"));
            assert!(client.wait_ack(p, req).is_ok());
            let patches = img2.patch_count();
            assert!(img2.occupied(ProbePoint::entry(f)));
            // Acked: the pending entry is gone, so a resend is refused...
            assert!(!client.resend_pending(p, req));
            p.sleep(SimTime::from_secs(1));
            // ...and nothing was re-applied.
            assert_eq!(img2.patch_count(), patches);
            client.shutdown(p);
        });
        sim.run();
    }
}

/// Duplicate delivery of an in-flight request applies exactly once: the
/// daemon's dedup table re-acks the stored result instead of re-running
/// the install, for any number of duplicates.
#[test]
fn duplicate_in_flight_request_applies_once() {
    let mut r = rng(11);
    for _ in 0..20 {
        let seed = r.gen_range_u64(0..=9999);
        let dups = 1 + r.gen_index(4);
        let sim = faulted_sim(seed, "delay");
        let system = DpclSystem::new(["u"]);
        let mut b = ImageBuilder::new("t");
        let f = b.add(FunctionInfo::new("hot"));
        let image = Arc::new(b.build());
        let img2 = Arc::clone(&image);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&img2), "t").unwrap();
            let req = client.install_probe(p, &h, ProbePoint::entry(f), Snippet::noop("n"));
            // Still in flight: duplicates are accepted for (re)send.
            for _ in 0..dups {
                assert!(client.resend_pending(p, req));
            }
            assert!(client.wait_ack(p, req).is_ok());
            // Let the duplicate acks drain, then check single application:
            // one base-jump patch plus one mini-trampoline store, and
            // exactly one snippet chained at the point.
            p.sleep(SimTime::from_secs(1));
            assert_eq!(img2.patch_count(), 2, "install applied more than once");
            assert!(img2.occupied(ProbePoint::entry(f)));
            assert_eq!(img2.remove_function_instr(f), 1);
            client.shutdown(p);
        });
        sim.run();
    }
}

/// Under `dup`, the link delivers some requests twice; every install
/// still applies exactly once (the daemon's dedup table, kept because the
/// plan is live, re-acks instead of re-applying).
#[test]
fn duplicated_installs_apply_once() {
    let mut r = rng(12);
    for _ in 0..10 {
        let seed = r.gen_range_u64(0..=9999);
        let sim = faulted_sim(seed, "dup");
        let system = DpclSystem::new(["u"]);
        let mut b = ImageBuilder::new("t");
        let fs: Vec<_> = (0..16)
            .map(|i| b.add(FunctionInfo::new(format!("f{i}"))))
            .collect();
        let image = Arc::new(b.build());
        let img2 = Arc::clone(&image);
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(system, "u");
            let h = client.attach(p, 1, Arc::clone(&img2), "t").unwrap();
            let reqs: Vec<_> = fs
                .iter()
                .map(|&f| client.install_probe(p, &h, ProbePoint::entry(f), Snippet::noop("n")))
                .collect();
            for (_, ack) in client.wait_all(p, &reqs) {
                assert!(ack.is_ok());
            }
            p.sleep(SimTime::from_secs(1));
            client.shutdown(p);
        });
        sim.run();
        assert_eq!(
            image.patch_count(),
            2 * 16,
            "an install applied more than once"
        );
        assert_eq!(image.instrumented_functions().len(), 16);
    }
}

/// SimTime display/convert invariants.
#[test]
fn simtime_conversions() {
    let mut r = rng(8);
    for _ in 0..500 {
        let ns = r.gen_range_u64(0..=u64::MAX / 2 - 1);
        let t = SimTime::from_nanos(ns);
        assert_eq!(t.as_nanos(), ns);
        assert_eq!(t.as_micros(), ns / 1_000);
        assert!(t.max(SimTime::ZERO) == t);
        assert!(t.saturating_sub(t) == SimTime::ZERO);
        let secs = t.as_secs_f64();
        assert!(
            (SimTime::from_secs_f64(secs).as_nanos() as i128 - ns as i128).abs()
                <= (1 + ns / 1_000_000_000) as i128 * 200
        );
    }
}

/// A deterministic mixed workload exercising every scheduler path the
/// engine has: cross-process channel wakes (jittered latencies), barrier
/// release storms, a gate broadcast, deadline receives (some of which
/// time out, arming and cancelling timers), and self-wakes via `sleep`.
/// Returns the exact dispatch sequence `(pid, resumed-clock-ns)` plus the
/// run's event count and horizon. Runs on `backend` so the recorded
/// oracle pins both the threaded and the coroutine scheduler.
fn scheduler_trace(seed: u64, backend: dynprof::sim::ProcBackend) -> (Vec<(usize, u64)>, u64, u64) {
    use dynprof::sim::sync::{SimBarrier, SimChannel, SimGate};
    const N: usize = 8;
    const ROUNDS: usize = 12;
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), seed, backend);
    let log = sim.record_dispatches();
    let stats = sim.stats();
    let chans: Vec<Arc<SimChannel<u32>>> = (0..N).map(|_| Arc::new(SimChannel::new())).collect();
    let bar = Arc::new(SimBarrier::new(N, SimTime::from_nanos(300)));
    let gate = Arc::new(SimGate::new());
    for i in 0..N {
        let chans = chans.clone();
        let bar = Arc::clone(&bar);
        let gate = Arc::clone(&gate);
        sim.spawn(format!("mix{i}"), i % 4, move |p| {
            if i == 0 {
                p.advance(SimTime::from_micros(3));
                gate.open(p, SimTime::from_nanos(500));
            } else {
                gate.wait_open(p);
            }
            for r in 0..ROUNDS {
                p.advance(p.jitter(SimTime::from_micros(1)) + SimTime::from_nanos(10));
                let lat = SimTime::from_nanos(200 + p.jitter(SimTime::from_micros(2)).as_nanos());
                chans[(i + 1) % N].send(p, (i * ROUNDS + r) as u32, lat);
                if r % 3 == 2 {
                    bar.wait(p);
                }
                if r % 4 == 1 {
                    // A deadline receive: depending on the jitter draw the
                    // message beats the deadline or the timer fires, so both
                    // timer outcomes appear across seeds and rounds.
                    let deadline = p.now() + p.jitter(SimTime::from_micros(3));
                    let _ = chans[i].recv_match_deadline(p, |_| true, deadline);
                } else {
                    let _ = chans[i].recv(p);
                }
                if r % 5 == 0 {
                    p.sleep(p.jitter(SimTime::from_micros(2)) + SimTime::from_nanos(1));
                }
            }
        });
    }
    let horizon = sim.run();
    let entries = log
        .entries()
        .iter()
        .map(|&(pid, t)| (pid, t.as_nanos()))
        .collect();
    (entries, stats.events_dispatched(), horizon.as_nanos())
}

/// Render a scheduler trace in the golden-file format: header lines with
/// the event count and horizon, then one `pid time_ns` line per dispatch.
fn render_trace(entries: &[(usize, u64)], events: u64, horizon: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "events {events}");
    let _ = writeln!(out, "horizon_ns {horizon}");
    for (pid, t) in entries {
        let _ = writeln!(out, "{pid} {t}");
    }
    out
}

/// The dispatch order of the mixed workload must match the recorded
/// oracle in `tests/golden/` exactly — same `(pid, time)` sequence, same
/// event count, same horizon. The goldens were recorded under the
/// hub-and-spoke scheduler (every dispatch routed through the `run()`
/// thread), so this test is the acceptance oracle for the direct-handoff
/// rewrite: any reordering, lost wake, or tie-break change shows up as a
/// first-divergence diff. Regenerate (only with cause) via
/// `UPDATE_GOLDENS=1 cargo test --test properties dispatch_order`.
#[test]
fn dispatch_order_matches_recorded_oracle() {
    use dynprof::sim::ProcBackend;
    for seed in [1u64, 7, 42] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/dispatch_seed{seed}.txt"));
        if std::env::var("UPDATE_GOLDENS").is_ok() {
            // Regenerate from the oracle backend (threads — the scheduler
            // the goldens were first recorded under).
            let (entries, events, horizon) = scheduler_trace(seed, ProcBackend::Threads);
            let actual = render_trace(&entries, events, horizon);
            std::fs::write(&path, &actual).expect("write golden dispatch log");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with UPDATE_GOLDENS=1 to record",
                path.display()
            )
        });
        for backend in [ProcBackend::Threads, ProcBackend::Coroutine] {
            let (entries, events, horizon) = scheduler_trace(seed, backend);
            assert_eq!(
                entries.len() as u64,
                events,
                "dispatch log length vs events_dispatched (seed {seed}, {backend:?})"
            );
            let actual = render_trace(&entries, events, horizon);
            if actual != expected {
                let a: Vec<&str> = actual.lines().collect();
                let b: Vec<&str> = expected.lines().collect();
                let first = a
                    .iter()
                    .zip(&b)
                    .position(|(x, y)| x != y)
                    .unwrap_or(a.len().min(b.len()));
                panic!(
                    "dispatch order diverged from recorded oracle (seed {seed}, {backend:?}) \
                     at line {}: actual {:?} vs expected {:?} ({} vs {} lines)",
                    first + 1,
                    a.get(first),
                    b.get(first),
                    a.len(),
                    b.len()
                );
            }
        }
    }
}

/// Scheduler determinism: two in-process runs of the same seeded workload
/// produce identical dispatch sequences (on either backend — and the
/// backends agree with each other), and a different seed diverges.
#[test]
fn dispatch_order_is_deterministic_across_runs() {
    use dynprof::sim::ProcBackend;
    for backend in [ProcBackend::Threads, ProcBackend::Coroutine] {
        assert_eq!(scheduler_trace(1, backend), scheduler_trace(1, backend));
        assert_ne!(scheduler_trace(1, backend), scheduler_trace(2, backend));
    }
    assert_eq!(
        scheduler_trace(3, ProcBackend::Threads),
        scheduler_trace(3, ProcBackend::Coroutine)
    );
}

/// One adaptive sweep3d session for the overhead-controller properties:
/// a probe-dense scaling of the workload (the regime where the controller
/// has real work to do), 4 ranks, one confsync epoch per iteration.
fn controller_session(
    settings: dynprof::vt::ControllerConfig,
    seed: u64,
    iterations: usize,
) -> Arc<dynprof::vt::OverheadController> {
    use dynprof::apps::{sweep3d, Sweep3dParams};
    use dynprof::core::{run_session, SessionConfig};
    let params = Sweep3dParams {
        global_n: 16,
        k_block: 1,
        angle_groups: 4,
        iterations,
        omp_threads: 1,
        scale: 0.001,
        outputs: dynprof::apps::workload::Outputs::new(),
    };
    let cfg = SessionConfig::new(Machine::test_machine(), dynprof::vt::Policy::Full)
        .with_seed(seed)
        .with_adaptive(settings);
    run_session(&sweep3d(4, params), cfg)
        .controller
        .expect("controller attached")
}

/// For any seed and any achievable budget, measured overhead converges to
/// at most the budget within 4 confsync epochs and (with re-probing off)
/// stays there for the rest of the run.
#[test]
fn controller_converges_for_any_seed_and_budget() {
    for seed in [1u64, 5, 9] {
        for budget in [4.0f64, 6.0, 12.0] {
            let settings = dynprof::vt::ControllerConfig {
                reprobe_every: 0,
                ..dynprof::vt::ControllerConfig::budget(budget)
            };
            let ctrl = controller_session(settings, seed, 6);
            let measured = ctrl.measured_series();
            // Sustained convergence: from some epoch on, every measurement
            // is within budget (a single early under-budget epoch before
            // the workload's steady state kicks in does not count).
            let converged_at = measured
                .iter()
                .rposition(|&pct| pct > budget)
                .map_or(0, |last_over| last_over + 1);
            assert!(
                converged_at < 4 && converged_at < measured.len(),
                "seed {seed} budget {budget}%: no sustained convergence within 4 epochs: \
                 {measured:?}"
            );
        }
    }
}

/// The deactivation order is a pure function of observed statistics: two
/// runs with the same seed produce byte-identical decision logs, and a
/// longer run's decisions are an exact prefix-extension of a shorter
/// run's (the extra epochs cannot rewrite history).
#[test]
fn controller_deactivation_order_is_deterministic() {
    let settings = dynprof::vt::ControllerConfig {
        reprobe_every: 4,
        ..dynprof::vt::ControllerConfig::budget(5.0)
    };
    let log_a = controller_session(settings, 3, 6).decision_log();
    let log_b = controller_session(settings, 3, 6).decision_log();
    assert_eq!(log_a, log_b, "same seed must replay identically");
    let log_long = controller_session(settings, 3, 8).decision_log();
    assert!(
        log_long.starts_with(&log_a),
        "longer run must extend, not rewrite, the decision sequence:\n\
         short:\n{log_a}\nlong:\n{log_long}"
    );
}

// ---------------------------------------------------------------------
// SimChannel against the queue it replaced
// ---------------------------------------------------------------------

mod channel_oracle {
    use std::sync::{Arc, Mutex, MutexGuard};

    use dynprof::sim::fault::{FaultPlan, FaultSpec};
    use dynprof::sim::rng::SimRng;
    use dynprof::sim::sync::SimChannel;
    use dynprof::sim::{Machine, Proc, ProcBackend, Sim, SimTime};

    /// `(key, id)`; key 0 is "no key".
    type Msg = (u64, u32);
    type Pred<'a> = &'a dyn Fn(&Msg) -> bool;

    fn key_of(m: &Msg) -> Option<u64> {
        (m.0 != 0).then_some(m.0)
    }

    /// The channel operations the programs below use, so one program can
    /// drive the real channel and the oracle.
    trait Chan: Send + Sync {
        fn send(&self, p: &Proc, m: Msg, latency: SimTime);
        fn send_ctl(&self, p: &Proc, m: Msg, latency: SimTime);
        fn recv(&self, p: &Proc) -> Msg;
        fn recv_match(&self, p: &Proc, pred: Pred) -> Msg;
        fn recv_match_deadline(&self, p: &Proc, pred: Pred, deadline: SimTime) -> Option<Msg>;
        fn recv_key_deadline(&self, p: &Proc, key: u64, deadline: SimTime) -> Option<Msg>;
        fn try_recv_match(&self, p: &Proc, pred: Pred) -> Option<Msg>;
        fn peek_arrival(&self, pred: Pred) -> Option<SimTime>;
        fn len(&self) -> usize;
    }

    impl Chan for SimChannel<Msg> {
        fn send(&self, p: &Proc, m: Msg, latency: SimTime) {
            SimChannel::send(self, p, m, latency)
        }
        fn send_ctl(&self, p: &Proc, m: Msg, latency: SimTime) {
            SimChannel::send_ctl(self, p, m, latency)
        }
        fn recv(&self, p: &Proc) -> Msg {
            SimChannel::recv(self, p)
        }
        fn recv_match(&self, p: &Proc, pred: Pred) -> Msg {
            SimChannel::recv_match(self, p, pred)
        }
        fn recv_match_deadline(&self, p: &Proc, pred: Pred, deadline: SimTime) -> Option<Msg> {
            SimChannel::recv_match_deadline(self, p, pred, deadline)
        }
        fn recv_key_deadline(&self, p: &Proc, key: u64, deadline: SimTime) -> Option<Msg> {
            SimChannel::recv_key_deadline(self, p, key, deadline)
        }
        fn try_recv_match(&self, p: &Proc, pred: Pred) -> Option<Msg> {
            SimChannel::try_recv_match(self, p, pred)
        }
        fn peek_arrival(&self, pred: Pred) -> Option<SimTime> {
            SimChannel::peek_arrival(self, pred)
        }
        fn len(&self) -> usize {
            SimChannel::len(self)
        }
    }

    /// The queue `SimChannel` had before PR 21, kept as the oracle: a
    /// `Vec` in whatever order `swap_remove` leaves it, and every receive
    /// one `min_by_key` over all of it, the predicate called once per
    /// queued message.
    ///
    /// What it cannot do from outside the `sim` crate is block
    /// (`Proc::block` and `wake_other` are private). A wait is therefore a
    /// receive on a one-shot token channel, to which the next send posts a
    /// token arriving when its own message does: that registers, blocks
    /// (arming the deadline timer), and is woken at the arrival — the very
    /// engine events the old code scheduled, so the dispatch logs compare.
    struct OldChannel {
        fifo: bool,
        state: Mutex<OldState>,
    }

    #[derive(Default)]
    struct OldState {
        queue: Vec<(SimTime, u64, Msg)>,
        waiters: Vec<Arc<SimChannel<()>>>,
        seq: u64,
        last_arrival: SimTime,
    }

    impl OldState {
        fn earliest_match(&self, pred: Pred) -> Option<(usize, SimTime)> {
            self.queue
                .iter()
                .enumerate()
                .filter(|(_, e)| pred(&e.2))
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, e)| (i, e.0))
        }
    }

    impl OldChannel {
        fn wait(&self, p: &Proc, mut s: MutexGuard<'_, OldState>, until: Option<SimTime>) {
            let token = Arc::new(SimChannel::new());
            s.waiters.push(Arc::clone(&token));
            drop(s);
            match until {
                Some(deadline) => drop(token.recv_match_deadline(p, |_| true, deadline)),
                None => token.recv(p),
            }
            self.state
                .lock()
                .unwrap()
                .waiters
                .retain(|w| !Arc::ptr_eq(w, &token));
        }
    }

    impl Chan for OldChannel {
        fn send(&self, p: &Proc, m: Msg, latency: SimTime) {
            let mut arrival = p.now() + latency;
            let mut s = self.state.lock().unwrap();
            if self.fifo {
                arrival = arrival.max(s.last_arrival);
                s.last_arrival = arrival;
            }
            s.seq += 1;
            let seq = s.seq;
            s.queue.push((arrival, seq, m));
            for w in s.waiters.drain(..) {
                w.send(p, (), arrival - p.now());
            }
        }

        fn send_ctl(&self, p: &Proc, m: Msg, latency: SimTime) {
            let plan = match p.fault_plan() {
                Some(plan) if plan.links_enabled() => plan,
                _ => return self.send(p, m, latency),
            };
            let d = plan.decide_link();
            if d.drop {
                return;
            }
            if d.duplicate {
                self.send(p, m, latency + d.extra_delay);
            }
            self.send(p, m, latency + d.extra_delay);
        }

        fn recv(&self, p: &Proc) -> Msg {
            self.recv_match(p, &|_| true)
        }

        fn recv_match(&self, p: &Proc, pred: Pred) -> Msg {
            loop {
                let mut s = self.state.lock().unwrap();
                match s.earliest_match(pred) {
                    Some((i, arrival)) if arrival <= p.now() => return s.queue.swap_remove(i).2,
                    Some((_, arrival)) => {
                        drop(s);
                        p.sleep_until(arrival);
                    }
                    None => self.wait(p, s, None),
                }
            }
        }

        fn recv_match_deadline(&self, p: &Proc, pred: Pred, deadline: SimTime) -> Option<Msg> {
            loop {
                let mut s = self.state.lock().unwrap();
                match s.earliest_match(pred) {
                    Some((i, arrival)) if arrival <= p.now() => {
                        return Some(s.queue.swap_remove(i).2)
                    }
                    Some((_, arrival)) if arrival <= deadline => {
                        drop(s);
                        p.sleep_until(arrival);
                    }
                    _ => {
                        if p.now() >= deadline {
                            return None;
                        }
                        self.wait(p, s, Some(deadline));
                    }
                }
            }
        }

        fn recv_key_deadline(&self, p: &Proc, key: u64, deadline: SimTime) -> Option<Msg> {
            self.recv_match_deadline(p, &|m| key_of(m) == Some(key), deadline)
        }

        fn try_recv_match(&self, p: &Proc, pred: Pred) -> Option<Msg> {
            let mut s = self.state.lock().unwrap();
            match s.earliest_match(pred) {
                Some((i, arrival)) if arrival <= p.now() => Some(s.queue.swap_remove(i).2),
                _ => None,
            }
        }

        fn peek_arrival(&self, pred: Pred) -> Option<SimTime> {
            let s = self.state.lock().unwrap();
            s.queue.iter().filter(|e| pred(&e.2)).map(|e| e.0).min()
        }

        fn len(&self) -> usize {
            self.state.lock().unwrap().queue.len()
        }
    }

    const SENDERS: usize = 3;
    const RECEIVERS: usize = 3;
    const SENDS_EACH: usize = 60;
    const OPS_EACH: usize = 50;
    /// Key of the closing messages, which every predicate accepts.
    const WILD: u64 = 999;

    /// Everything a run shows: per operation `(process, op, outcome,
    /// clock)`, the dispatch log, the event count, the horizon and what is
    /// left queued.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        ops: Vec<(usize, usize, i64, u64)>,
        dispatches: Vec<(usize, u64)>,
        events: u64,
        horizon: u64,
        left: usize,
    }

    /// One seeded program — three senders, three receivers sharing the
    /// channel, and a closer whose late messages every blocked receive
    /// accepts — run on `ch`.
    fn run(
        ch: Arc<dyn Chan>,
        keyed: bool,
        seed: u64,
        faults: &str,
        backend: ProcBackend,
    ) -> Outcome {
        let sim = Sim::virtual_time_with_backend(Machine::test_machine(), seed, backend);
        if faults != "none" {
            let spec = FaultSpec::parse(&format!("{seed}:{faults}")).expect("fault profile");
            assert!(sim.set_fault_plan(FaultPlan::new(&spec, sim.machine())));
        }
        let dispatches = sim.record_dispatches();
        let stats = sim.stats();
        let log = Arc::new(Mutex::new(Vec::new()));
        let us = |r: &mut SimRng, max: u64| SimTime::from_nanos(r.gen_range_u64(0..=max * 1000));
        for i in 0..SENDERS {
            let ch = Arc::clone(&ch);
            sim.spawn(format!("send{i}"), i % 4, move |p| {
                let mut r = SimRng::new(seed, 100 + i as u64);
                for n in 0..SENDS_EACH {
                    p.advance(us(&mut r, 3));
                    let m = (r.gen_range_u64(0..=6), (i * SENDS_EACH + n) as u32);
                    let latency = us(&mut r, 10);
                    match r.gen_index(3) {
                        0 => ch.send_ctl(p, m, latency),
                        _ => ch.send(p, m, latency),
                    }
                }
            });
        }
        for i in 0..RECEIVERS {
            let (ch, log) = (Arc::clone(&ch), Arc::clone(&log));
            sim.spawn(format!("recv{i}"), (i + 1) % 4, move |p| {
                let mut r = SimRng::new(seed, 200 + i as u64);
                for n in 0..OPS_EACH {
                    p.advance(us(&mut r, 4));
                    let class = r.gen_range_u64(0..=2) as u32;
                    let key = r.gen_range_u64(1..=6);
                    let deadline = p.now() + us(&mut r, 30);
                    let of_class = move |m: &Msg| m.1 % 3 == class || m.0 == WILD;
                    let has_key = move |m: &Msg| key_of(m) == Some(key);
                    let id = |m: Option<Msg>| m.map_or(-1, |m| i64::from(m.1));
                    let outcome = match r.gen_index(10) {
                        0 | 1 => id(Some(ch.recv(p))),
                        2 => id(Some(ch.recv_match(p, &of_class))),
                        3 | 4 => id(ch.recv_match_deadline(p, &of_class, deadline)),
                        5 | 6 if keyed => id(ch.recv_key_deadline(p, key, deadline)),
                        // Without a key function nothing has a key: the
                        // same question as a predicate, then.
                        5 | 6 => id(ch.recv_match_deadline(p, &has_key, deadline)),
                        7 => id(ch.try_recv_match(p, &of_class)),
                        8 => ch
                            .peek_arrival(&of_class)
                            .map_or(-1, |t| t.as_nanos() as i64),
                        _ => ch.len() as i64,
                    };
                    log.lock()
                        .unwrap()
                        .push((i, n, outcome, p.now().as_nanos()));
                }
            });
        }
        let closer = Arc::clone(&ch);
        sim.spawn("closer", 3, move |p| {
            p.sleep_until(SimTime::from_millis(50));
            for n in 0..RECEIVERS * OPS_EACH {
                closer.send(p, (WILD, 10_000 + n as u32), SimTime::from_micros(1));
                p.advance(SimTime::from_micros(1));
            }
        });
        let horizon = sim.run();
        let ops = std::mem::take(&mut *log.lock().unwrap());
        Outcome {
            ops,
            dispatches: dispatches
                .entries()
                .iter()
                .map(|&(pid, t)| (pid, t.as_nanos()))
                .collect(),
            events: stats.events_dispatched(),
            horizon: horizon.as_nanos(),
            left: ch.len(),
        }
    }

    /// The real channel and the old queue, given the same program, deliver
    /// the same messages to the same receivers at the same clocks through
    /// the same dispatch sequence — FIFO (keyed) and unordered, with and
    /// without link faults, on both carriers.
    #[test]
    fn sim_channel_matches_the_queue_it_replaced() {
        let mut taken = 0;
        for fifo in [true, false] {
            for faults in ["none", "dup", "delay", "lossy"] {
                for seed in 1..=12u64 {
                    let mut per_backend = Vec::new();
                    for backend in [ProcBackend::Threads, ProcBackend::Coroutine] {
                        let new: Arc<dyn Chan> = match fifo {
                            true => Arc::new(SimChannel::new_fifo_keyed(key_of)),
                            false => Arc::new(SimChannel::new()),
                        };
                        let old = Arc::new(OldChannel {
                            fifo,
                            state: Mutex::default(),
                        });
                        let new = run(new, fifo, seed, faults, backend);
                        let old = run(old, fifo, seed, faults, backend);
                        let what = format!("fifo={fifo} faults={faults} seed={seed} {backend:?}");
                        if let Some(i) = (0..new.ops.len()).find(|&i| new.ops[i] != old.ops[i]) {
                            panic!(
                                "{what}: op {i} (process, op, outcome, clock) is {:?}, the old queue gave {:?}",
                                new.ops[i], old.ops[i]
                            );
                        }
                        assert_eq!(new.ops.len(), RECEIVERS * OPS_EACH, "{what}");
                        assert!(new == old, "{what}: same operations, different schedule");
                        taken += new.ops.iter().filter(|o| o.2 >= 0).count();
                        per_backend.push(new);
                    }
                    assert!(per_backend[0] == per_backend[1], "carriers differ");
                }
            }
        }
        assert!(
            taken > 10_000,
            "the programs must actually receive: {taken}"
        );
    }
}
