//! An ASCII rendering of the VGV main time-line display (paper Fig 4).
//!
//! "In the main time-line display, MPI processes and OpenMP threads are
//! shown as horizontal bars. A wiggle glyph is superimposed on these bars
//! to represent OpenMP parallel regions."
//!
//! Each rank gets one row; time is bucketed into columns. Bucket glyphs,
//! by precedence: `M` while inside an MPI call, `~` while any OpenMP
//! parallel region is active (the wiggle), `#` while inside an
//! instrumented function, `.` otherwise-idle trace time, ` ` before the
//! rank's first event. Optional per-thread rows expand the activity of
//! the individual team members.
//!
//! Rendering is streaming: [`TimelineBuilder`] takes the time bounds up
//! front (for a store, the footer index provides them without decoding
//! anything), accepts events in any order via [`TimelineBuilder::push`],
//! and assembles the rows at [`TimelineBuilder::finish`]. Memory is
//! `O(rows × width)` — the size of the picture, not of the trace.

use std::fmt::Write as _;

use dynprof_sim::SimTime;
use dynprof_vt::{Event, Trace};

use crate::dense::{DenseMap, DENSE_RANKS, DENSE_THREADS};

/// Timeline rendering options.
#[derive(Clone, Copy, Debug)]
pub struct TimelineOptions {
    /// Number of time buckets (columns).
    pub width: usize,
    /// Also render one row per OpenMP thread.
    pub per_thread: bool,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            width: 72,
            per_thread: false,
        }
    }
}

#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Glyph {
    Blank = 0,
    Idle = 1,
    Func = 2,
    Wiggle = 3,
    Mpi = 4,
    /// Suspended by the instrumenter (paper §5.1's period of inactivity).
    Suspended = 5,
}

impl Glyph {
    fn ch(self) -> char {
        match self {
            Glyph::Blank => ' ',
            Glyph::Idle => '.',
            Glyph::Func => '#',
            Glyph::Wiggle => '~',
            Glyph::Mpi => 'M',
            Glyph::Suspended => 'S',
        }
    }
}

/// Where a time falls among the columns of the window `[t0, t0 + span]`.
#[derive(Clone, Copy)]
struct Scale {
    t0: u64,
    /// The window's length in nanoseconds, at least 1.
    span: u64,
    width: usize,
}

impl Scale {
    fn new(t0: SimTime, t1: SimTime, width: usize) -> Scale {
        Scale {
            t0: t0.as_nanos(),
            span: t1.saturating_sub(t0).as_nanos().max(1),
            width,
        }
    }

    /// `(t - t0) × width / span`, clamped into the picture.
    fn bucket_of(self, t: SimTime) -> usize {
        let rel = t.as_nanos().saturating_sub(self.t0);
        let bucket = match rel.checked_mul(self.width as u64) {
            Some(scaled) => (scaled / self.span) as usize,
            // Only a time centuries past `t0` gets here.
            None => (rel as u128 * self.width as u128 / self.span as u128) as usize,
        };
        bucket.min(self.width - 1)
    }

    /// Raise the cells of `row` covering `[a, b]` to at least `g`. A row
    /// is allocated by its first paint.
    fn paint(self, row: &mut Vec<Glyph>, a: SimTime, b: SimTime, g: Glyph) {
        if row.is_empty() {
            row.resize(self.width, Glyph::Blank);
        }
        for cell in &mut row[self.bucket_of(a)..=self.bucket_of(b)] {
            if (*cell as u8) < (g as u8) {
                *cell = g;
            }
        }
    }
}

/// One thread of a rank: its open function frames and, in a per-thread
/// picture, its row (empty until something paints it).
#[derive(Default)]
struct ThreadRows {
    stack: Vec<SimTime>,
    row: Vec<Glyph>,
}

/// Everything the builder keeps for one rank.
struct RankRows {
    /// First and last event time, painted as the idle baseline.
    first: SimTime,
    last: SimTime,
    row: Vec<Glyph>,
    threads: DenseMap<ThreadRows>,
}

impl RankRows {
    /// Paint a span of `thread` on the rank's row and, in a per-thread
    /// picture, on the thread's own.
    fn paint(&mut self, scale: Scale, thread: Option<u16>, a: SimTime, b: SimTime, g: Glyph) {
        scale.paint(&mut self.row, a, b, g);
        if let Some(thread) = thread {
            let thread = self.threads.entry(thread.into(), ThreadRows::default);
            scale.paint(&mut thread.row, a, b, g);
        }
    }
}

/// Streaming timeline accumulator over a fixed time window `[t0, t1]`.
/// A push on a rank and thread already seen is two array indexings and
/// the painting: no search, no allocation.
pub struct TimelineBuilder {
    program: String,
    t0: SimTime,
    t1: SimTime,
    scale: Scale,
    per_thread: bool,
    /// Present for every rank any event named.
    ranks: DenseMap<RankRows>,
    events: u64,
}

impl TimelineBuilder {
    /// Start a timeline of `program` spanning `[t0, t1]`.
    pub fn new(
        program: impl Into<String>,
        t0: SimTime,
        t1: SimTime,
        opts: TimelineOptions,
    ) -> Self {
        TimelineBuilder {
            program: program.into(),
            t0,
            t1,
            scale: Scale::new(t0, t1, opts.width.max(8)),
            per_thread: opts.per_thread,
            ranks: DenseMap::new(DENSE_RANKS),
            events: 0,
        }
    }

    /// Account one event (order-independent except for
    /// `FuncEnter`/`FuncExit` pairing, which needs each rank-thread's
    /// causal order — what traces and store chunks both provide).
    pub fn push(&mut self, ev: &Event) {
        self.events += 1;
        let scale = self.scale;
        // The thread whose row a span also lands on: none in a rank-only
        // picture.
        let own_row = |thread: u16| self.per_thread.then_some(thread);
        let at = ev.time();
        let state = self.ranks.entry(ev.rank(), || RankRows {
            first: at,
            last: at,
            row: Vec::new(),
            threads: DenseMap::new(DENSE_THREADS),
        });
        state.first = state.first.min(at);
        state.last = state.last.max(at);
        match *ev {
            Event::FuncEnter { t, thread, .. } => {
                let thread = state.threads.entry(thread.into(), ThreadRows::default);
                thread.stack.push(t);
            }
            Event::FuncExit { t, thread, .. } => {
                let open = state.threads.get_mut(thread.into());
                if let Some(t0) = open.and_then(|th| th.stack.pop()) {
                    state.paint(scale, own_row(thread), t0, t, Glyph::Func);
                }
            }
            Event::FuncBatch {
                t, thread, span, ..
            } => state.paint(scale, own_row(thread), t, t + span, Glyph::Func),
            Event::MpiCall { t, t_end, .. } => state.paint(scale, None, t, t_end, Glyph::Mpi),
            Event::OmpThread {
                t, t_end, thread, ..
            } => state.paint(scale, own_row(thread), t, t_end, Glyph::Wiggle),
            Event::Suspended { t, t_end, .. } => {
                state.paint(scale, None, t, t_end, Glyph::Suspended)
            }
            _ => {}
        }
    }

    /// Assemble the picture: one row a rank in ascending order, each
    /// followed by its threads' rows. Returns `"(empty trace)\n"` when
    /// nothing was pushed.
    pub fn finish(self) -> String {
        if self.events == 0 {
            return String::from("(empty trace)\n");
        }
        let ranks: Vec<(u32, RankRows)> = self.ranks.into_sorted().collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "time-line of {:?}: {} .. {} ({} ranks)",
            self.program,
            self.t0,
            self.t1,
            ranks.len()
        );
        out.push_str("legend: M=MPI call  ~=OpenMP region  #=function  S=suspended  .=traced\n");
        let mut push_row = |label: std::fmt::Arguments<'_>, row: &[Glyph]| {
            let _ = out.write_fmt(label);
            out.push('|');
            out.extend(row.iter().map(|g| g.ch()));
            out.push_str("|\n");
        };
        for (rank, mut state) in ranks {
            // Idle baseline: the rank's first..last event span.
            let (first, last) = (state.first, state.last);
            state.paint(self.scale, None, first, last, Glyph::Idle);
            push_row(format_args!("rank {rank:>3}      "), &state.row);
            for (thread, rows) in state.threads.iter() {
                if !rows.row.is_empty() {
                    push_row(format_args!("  thread {thread:>2}   "), &rows.row);
                }
            }
        }
        out
    }
}

/// Render a whole trace as an ASCII time-line (the legacy entry point;
/// events must be time-sorted, as [`dynprof_vt::VtLib::build_trace`]
/// guarantees).
pub fn render(trace: &Trace, opts: TimelineOptions) -> String {
    let (t0, t1) = match (trace.events.first(), trace.events.last()) {
        (Some(a), Some(b)) => (a.time(), b.time()),
        _ => return String::from("(empty trace)\n"),
    };
    let mut b = TimelineBuilder::new(trace.program.clone(), t0, t1, opts);
    for ev in &trace.events {
        b.push(ev);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_vt::VtFuncId;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn sample() -> Trace {
        Trace {
            program: "sweep3d".into(),
            functions: vec!["sweep".into()],
            events: vec![
                Event::FuncEnter {
                    t: us(0),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::MpiCall {
                    t: us(10),
                    t_end: us(30),
                    rank: 0,
                    op: 2,
                    peer: 1,
                    bytes: 100,
                },
                Event::FuncExit {
                    t: us(50),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::OmpFork {
                    t: us(0),
                    rank: 1,
                    region: 0,
                    team: 2,
                },
                Event::OmpThread {
                    t: us(5),
                    t_end: us(45),
                    rank: 1,
                    thread: 0,
                    region: 0,
                },
                Event::OmpThread {
                    t: us(5),
                    t_end: us(40),
                    rank: 1,
                    thread: 1,
                    region: 0,
                },
                Event::OmpJoin {
                    t: us(50),
                    rank: 1,
                    region: 0,
                    team: 2,
                },
            ],
        }
    }

    #[test]
    fn renders_rows_for_each_rank() {
        let s = render(&sample(), TimelineOptions::default());
        assert!(s.contains("rank   0"));
        assert!(s.contains("rank   1"));
        assert!(s.contains('M'), "MPI glyph missing:\n{s}");
        assert!(s.contains('~'), "wiggle glyph missing:\n{s}");
        assert!(s.contains('#'), "function glyph missing:\n{s}");
    }

    #[test]
    fn per_thread_rows_expand_team() {
        let s = render(
            &sample(),
            TimelineOptions {
                width: 40,
                per_thread: true,
            },
        );
        assert!(s.contains("thread  0"));
        assert!(s.contains("thread  1"));
    }

    #[test]
    fn mpi_glyph_beats_function_glyph() {
        let s = render(
            &sample(),
            TimelineOptions {
                width: 50,
                per_thread: false,
            },
        );
        let row0 = s.lines().find(|l| l.contains("rank   0")).unwrap();
        // The MPI call sits at 20%-60% of the row.
        let bars: String = row0.chars().skip_while(|c| *c != '|').collect();
        assert!(bars.contains('M'));
        assert!(bars.contains('#'));
    }

    #[test]
    fn empty_trace_is_handled() {
        let t = Trace::default();
        assert_eq!(render(&t, TimelineOptions::default()), "(empty trace)\n");
    }

    #[test]
    fn width_is_respected() {
        let s = render(
            &sample(),
            TimelineOptions {
                width: 30,
                per_thread: false,
            },
        );
        for line in s.lines().filter(|l| l.starts_with("rank")) {
            let inner = line.split('|').nth(1).unwrap();
            assert_eq!(inner.chars().count(), 30);
        }
    }

    #[test]
    fn windowed_builder_clamps_outside_spans() {
        // A window inside the trace: spans crossing the edge clamp to it.
        let mut b = TimelineBuilder::new(
            "w",
            us(10),
            us(20),
            TimelineOptions {
                width: 10,
                per_thread: false,
            },
        );
        b.push(&Event::MpiCall {
            t: us(5),
            t_end: us(40),
            rank: 0,
            op: 2,
            peer: 1,
            bytes: 0,
        });
        let s = b.finish();
        let row = s.lines().find(|l| l.starts_with("rank")).unwrap();
        let inner: String = row.split('|').nth(1).unwrap().into();
        assert_eq!(inner, "MMMMMMMMMM", "span clamps to the window: {s}");
    }

    #[test]
    fn bucket_math_equals_the_wide_formula() {
        use dynprof_sim::rng::SimRng;
        // What `bucket_of` computed before the span was hoisted and the
        // multiply narrowed: every step in `u128`.
        let wide = |t0: SimTime, t1: SimTime, t: SimTime, width: usize| {
            let span = t1.saturating_sub(t0).max(SimTime::from_nanos(1));
            let rel = t.saturating_sub(t0).as_nanos() as u128;
            ((rel * width as u128 / span.as_nanos().max(1) as u128) as usize).min(width - 1)
        };
        let mut r = SimRng::new(0xB0C4E7, 3);
        // Magnitudes from a nanosecond to the end of the clock; the last
        // two make `rel × width` overflow 64 bits.
        let time = |r: &mut SimRng| {
            let top = [1u64 << 10, 1 << 30, 1 << 44, 1 << 58, u64::MAX - 1][r.gen_index(5)];
            SimTime::from_nanos(r.gen_range_u64(0..=top) + r.gen_range_u64(0..=1))
        };
        let mut fallbacks = 0;
        for case in 0..20_000 {
            let (a, b, t) = (time(&mut r), time(&mut r), time(&mut r));
            // Mostly ordered windows; now and then empty or inverted.
            let (t0, t1) = match case % 8 {
                0 => (a, a),
                1 => (a.max(b), a.min(b)),
                _ => (a.min(b), a.max(b)),
            };
            let width = [8, 72, 96, 97, 4_096][r.gen_index(5)];
            let scale = Scale::new(t0, t1, width);
            let rel = t.saturating_sub(t0).as_nanos();
            fallbacks += usize::from(rel.checked_mul(width as u64).is_none());
            assert_eq!(
                scale.bucket_of(t),
                wide(t0, t1, t, width),
                "t0 {t0:?} t1 {t1:?} t {t:?} width {width}"
            );
        }
        assert!(fallbacks > 1_000, "the overflow path ran: {fallbacks}");
    }

    #[test]
    fn builder_equals_legacy_render() {
        let trace = sample();
        let opts = TimelineOptions {
            width: 44,
            per_thread: false,
        };
        let mut b = TimelineBuilder::new(
            trace.program.clone(),
            trace.events.first().unwrap().time(),
            trace.events.last().unwrap().time(),
            opts,
        );
        for ev in &trace.events {
            b.push(ev);
        }
        assert_eq!(b.finish(), render(&trace, opts));
    }
}
