//! Postmortem profiles from traces.
//!
//! The VGV GUI's statistics views, recomputed from the trace data:
//! per-function inclusive/exclusive time and call counts, per rank and
//! aggregated, plus the load-imbalance metrics instrumentation exists to
//! expose (paper §1).
//!
//! Profiles are accumulated by [`ProfileBuilder`], which consumes events
//! one at a time. It has three feeders: a merged [`Trace`]
//! ([`Profile::from_trace`]), a chunk-indexed store streamed in file order
//! ([`Profile::from_store`]), and the running library itself — the
//! builder is an [`EventSink`] whose per-rank state goes out to the rank
//! as its [`Lane`] and comes home when the lane closes, which is how
//! `dynprof` computes its summary without ever holding the trace or
//! taking a shared lock per event. Only the first materializes the event
//! array.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynprof_sim::SimTime;
use dynprof_vt::{locked, Event, EventSink, Lane, Trace, VtFuncId};

use crate::dense::{DenseMap, DENSE_RANKS, DENSE_THREADS};
use crate::error::TraceError;
use crate::store::EventSource;

/// Aggregated statistics of one function on one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FuncProfile {
    /// Completed calls.
    pub count: u64,
    /// Inclusive time.
    pub incl: SimTime,
    /// Exclusive time.
    pub excl: SimTime,
}

/// Profile computation options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfileOptions {
    /// Disregard instrumenter-initiated suspension periods when computing
    /// function times — the paper's §5.1 requirement: "analysis tools
    /// would need to be modified to likewise disregard these periods of
    /// inactivity when calculating the aggregate runtime of functions."
    pub exclude_suspensions: bool,
}

/// A full profile computed from a [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// `(rank, func)` → statistics.
    pub per_rank: BTreeMap<(u32, VtFuncId), FuncProfile>,
    /// Function names (from the trace dictionary).
    pub functions: Vec<String>,
    /// Ranks seen.
    pub ranks: Vec<u32>,
}

/// An open call frame: (func, entry time, time attributed to callees).
type Frame = (VtFuncId, SimTime, SimTime);

/// Everything the builder keeps for one rank — and, in a live capture,
/// the rank's lane.
struct RankState {
    /// Open frames per thread.
    stacks: DenseMap<Vec<Frame>>,
    /// Statistics per function, present once an exit or batch touched it.
    funcs: DenseMap<FuncProfile>,
}

impl RankState {
    /// Function ids are array-indexed up to `known_funcs`, the dictionary's
    /// length at the rank's first event; one beyond it spills — a file
    /// naming an id it never defined (read as "<unknown>"), or a name
    /// registered later in a live capture (2 % of a `policy=full` umt98
    /// session, not worth re-homing the spilled rows).
    fn new(known_funcs: usize) -> RankState {
        RankState {
            stacks: DenseMap::new(DENSE_THREADS),
            funcs: DenseMap::new(known_funcs),
        }
    }

    /// Account one event of this rank, discounting the rank's suspension
    /// `windows` (sorted, disjoint) if given.
    fn push(&mut self, ev: &Event, windows: Option<&[(SimTime, SimTime)]>) {
        let discount =
            |a: SimTime, b: SimTime| windows.map_or(SimTime::ZERO, |ws| overlap_with(a, b, ws));
        match *ev {
            Event::FuncEnter {
                t, thread, func, ..
            } => {
                self.stacks
                    .entry(thread.into(), Vec::new)
                    .push((func, t, SimTime::ZERO));
            }
            Event::FuncExit {
                t, thread, func, ..
            } => {
                let Some(stack) = self.stacks.get_mut(thread.into()) else {
                    return;
                };
                if let Some((f, t0, child)) = stack.pop() {
                    debug_assert_eq!(f, func, "trace stack mismatch");
                    let span = t.saturating_sub(t0).saturating_sub(discount(t0, t));
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += span;
                    }
                    let e = self.funcs.entry(func.0, FuncProfile::default);
                    e.count += 1;
                    e.incl += span;
                    e.excl += span.saturating_sub(child);
                }
            }
            // A suppressed-count record carries exactly the cumulative
            // wall time of its elided entry/exit pairs, so it is accounted
            // like a batch: profiles from a suppressed trace match the
            // unsuppressed ones in inclusive/exclusive time.
            Event::FuncBatch {
                t,
                thread,
                func,
                count,
                span,
                ..
            }
            | Event::FuncSuppressed {
                t,
                thread,
                func,
                count,
                span,
                ..
            } => {
                let span = span.saturating_sub(discount(t, t + span));
                let e = self.funcs.entry(func.0, FuncProfile::default);
                e.count += count;
                e.incl += span;
                e.excl += span;
                let stack = self.stacks.get_mut(thread.into());
                if let Some(parent) = stack.and_then(|s| s.last_mut()) {
                    parent.2 += span;
                }
            }
            _ => {}
        }
    }
}

/// Per-rank instrumenter-suspension windows.
type Windows = BTreeMap<u32, Vec<(SimTime, SimTime)>>;

/// `rank`'s windows, if `opts` wants them discounted.
fn windows_of(opts: ProfileOptions, all: &Windows, rank: u32) -> Option<&[(SimTime, SimTime)]> {
    if !opts.exclude_suspensions {
        return None;
    }
    all.get(&rank).map(Vec::as_slice)
}

/// Streaming profile accumulator: feed events in each rank's causal
/// order via [`ProfileBuilder::push`], then [`ProfileBuilder::finish`].
/// Ranks may interleave freely (a time-sorted [`Trace`]) or arrive one
/// after another (a store): only the order *within* a rank
/// matters. Memory is `O(functions × ranks + open frames)` — independent
/// of trace length — and a push on an already-seen rank, thread and
/// function is three array indexings: no search, no allocation.
///
/// To honor [`ProfileOptions::exclude_suspensions`], install the
/// per-rank suspension windows (a cheap pre-pass) with
/// [`ProfileBuilder::set_suspensions`] before pushing events.
pub struct ProfileBuilder {
    opts: ProfileOptions,
    suspensions: Windows,
    /// Present for every rank any event named.
    ranks: DenseMap<RankState>,
    /// Where a closed lane leaves its rank's state.
    home: Arc<Mutex<Vec<(u32, RankState)>>>,
    functions: Vec<String>,
}

impl ProfileBuilder {
    /// Start a profile over the given function dictionary.
    pub fn new(functions: Vec<String>, opts: ProfileOptions) -> ProfileBuilder {
        ProfileBuilder {
            opts,
            suspensions: BTreeMap::new(),
            ranks: DenseMap::new(DENSE_RANKS),
            home: Arc::default(),
            functions,
        }
    }

    /// Install per-rank suspension windows (sorted, disjoint) to discount
    /// when [`ProfileOptions::exclude_suspensions`] is set.
    pub fn set_suspensions(&mut self, windows: BTreeMap<u32, Vec<(SimTime, SimTime)>>) {
        self.suspensions = windows;
    }

    /// Account one event.
    pub fn push(&mut self, ev: &Event) {
        let rank = ev.rank();
        let windows = windows_of(self.opts, &self.suspensions, rank);
        let known_funcs = self.functions.len();
        self.ranks
            .entry(rank, || RankState::new(known_funcs))
            .push(ev, windows);
    }

    /// Finish: produce the [`Profile`], ranks and rows in ascending order.
    pub fn finish(mut self) -> Profile {
        for (rank, state) in locked(&self.home).drain(..) {
            self.ranks.entry(rank, || state);
        }
        let mut ranks = Vec::new();
        let mut per_rank = BTreeMap::new();
        for (rank, state) in self.ranks.into_sorted() {
            ranks.push(rank);
            let rows = state.funcs.into_sorted();
            per_rank.extend(rows.map(|(f, row)| ((rank, VtFuncId(f)), row)));
        }
        Profile {
            per_rank,
            functions: self.functions,
            ranks,
        }
    }
}

/// Live accumulation: installed on a trace library (alone or beside a
/// store writer) the builder profiles the run as it happens, the
/// dictionary growing as `VT_funcdef` registers names. A rank's state
/// *is* its lane; closing the lane brings it home for
/// [`ProfileBuilder::finish`].
impl EventSink for ProfileBuilder {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        debug_assert_eq!(id.0 as usize, self.functions.len(), "ids arrive in order");
        self.functions.push(name.to_string());
    }

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        Box::new(ProfileLane {
            rank,
            state: RankState::new(self.functions.len()),
            windows: windows_of(self.opts, &self.suspensions, rank).map(<[_]>::to_vec),
            home: Arc::clone(&self.home),
        })
    }
}

struct ProfileLane {
    rank: u32,
    state: RankState,
    windows: Option<Vec<(SimTime, SimTime)>>,
    home: Arc<Mutex<Vec<(u32, RankState)>>>,
}

impl Lane for ProfileLane {
    fn push(&mut self, ev: &Event) -> bool {
        self.state.push(ev, self.windows.as_deref());
        true
    }

    fn switch(&mut self) {}

    fn close(self: Box<Self>) {
        locked(&self.home).push((self.rank, self.state));
    }
}

impl Profile {
    /// Compute the profile by replaying the trace's per-(rank, thread)
    /// call stacks. `FuncBatch` events contribute their aggregate span.
    pub fn from_trace(trace: &Trace) -> Profile {
        Profile::from_trace_opts(trace, ProfileOptions::default())
    }

    /// As [`Profile::from_trace`], with options.
    pub fn from_trace_opts(trace: &Trace, opts: ProfileOptions) -> Profile {
        let mut b = ProfileBuilder::new(trace.functions.clone(), opts);
        if opts.exclude_suspensions {
            b.set_suspensions(suspension_windows(trace));
        }
        for ev in &trace.events {
            b.push(ev);
        }
        b.finish()
    }

    /// Stream a chunk-indexed store through a [`ProfileBuilder`] in one
    /// pass in file order — which keeps each rank's own order, all the
    /// builder needs — decoding one chunk at a time. When
    /// [`ProfileOptions::exclude_suspensions`] is set a pre-pass collects
    /// the suspension windows first (still `O(chunk)` memory).
    pub fn from_store<S: EventSource + ?Sized>(
        reader: &mut S,
        opts: ProfileOptions,
    ) -> Result<Profile, TraceError> {
        let mut b = ProfileBuilder::new(reader.functions().to_vec(), opts);
        if opts.exclude_suspensions {
            let mut windows = Windows::new();
            reader.query(None, None, &mut |ev| note_suspension(&mut windows, ev))?;
            b.set_suspensions(sorted_windows(windows));
        }
        reader.query(None, None, &mut |ev| b.push(ev))?;
        Ok(b.finish())
    }

    /// Function name lookup.
    pub fn name(&self, f: VtFuncId) -> &str {
        self.functions
            .get(f.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Aggregate a function's statistics across ranks.
    pub fn aggregate(&self, f: VtFuncId) -> FuncProfile {
        let mut total = FuncProfile::default();
        for ((_, func), p) in &self.per_rank {
            if *func == f {
                total.count += p.count;
                total.incl += p.incl;
                total.excl += p.excl;
            }
        }
        total
    }

    /// All functions with any recorded activity, by descending aggregate
    /// inclusive time.
    pub fn hot_functions(&self) -> Vec<(VtFuncId, FuncProfile)> {
        let mut by_func: BTreeMap<VtFuncId, FuncProfile> = BTreeMap::new();
        for ((_, func), p) in &self.per_rank {
            let e = by_func.entry(*func).or_default();
            e.count += p.count;
            e.incl += p.incl;
            e.excl += p.excl;
        }
        let mut v: Vec<_> = by_func.into_iter().collect();
        v.sort_by(|a, b| b.1.incl.cmp(&a.1.incl).then(a.0.cmp(&b.0)));
        v
    }

    /// Load imbalance of `f` across ranks: `max(incl) / mean(incl)`
    /// (1.0 = perfectly balanced; 0.0 if never called).
    pub fn imbalance(&self, f: VtFuncId) -> f64 {
        let per: Vec<f64> = self
            .ranks
            .iter()
            .map(|r| {
                self.per_rank
                    .get(&(*r, f))
                    .map_or(0.0, |p| p.incl.as_secs_f64())
            })
            .collect();
        if per.is_empty() {
            return 0.0;
        }
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        per.iter().cloned().fold(0.0, f64::max) / mean
    }

    /// Render the top-`n` functions as a text table (the GUI's statistics
    /// pane).
    pub fn render_top(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>12} {:>14} {:>14} {:>8}\n",
            "function", "calls", "incl", "excl", "imbal"
        ));
        for (f, p) in self.hot_functions().into_iter().take(n) {
            out.push_str(&format!(
                "{:<40} {:>12} {:>14} {:>14} {:>8.2}\n",
                self.name(f),
                p.count,
                p.incl.to_string(),
                p.excl.to_string(),
                self.imbalance(f)
            ));
        }
        out
    }
}

/// Per-rank instrumenter-suspension windows found in a trace.
pub fn suspension_windows(trace: &Trace) -> BTreeMap<u32, Vec<(SimTime, SimTime)>> {
    let mut out = Windows::new();
    for ev in &trace.events {
        note_suspension(&mut out, ev);
    }
    sorted_windows(out)
}

/// Record `ev`'s window if it is a suspension record.
fn note_suspension(windows: &mut Windows, ev: &Event) {
    if let Event::Suspended { t, t_end, rank } = *ev {
        windows.entry(rank).or_default().push((t, t_end));
    }
}

/// Put each rank's windows in the order [`overlap_with`] expects.
fn sorted_windows(mut windows: Windows) -> Windows {
    for ws in windows.values_mut() {
        ws.sort_unstable();
    }
    windows
}

/// Total overlap of `[a, b]` with the (sorted, disjoint) windows.
fn overlap_with(a: SimTime, b: SimTime, windows: &[(SimTime, SimTime)]) -> SimTime {
    let mut total = SimTime::ZERO;
    for &(w0, w1) in windows {
        if w0 >= b {
            break;
        }
        let lo = a.max(w0);
        let hi = b.min(w1);
        if hi > lo {
            total += hi - lo;
        }
    }
    total
}

/// Trace volume statistics: the paper's motivating data-rate numbers
/// ("performance data gathering has been estimated to grow at ~2 MB/s").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceVolume {
    /// Modelled bytes in the trace.
    pub bytes: u64,
    /// Trace duration (first to last event).
    pub duration: SimTime,
    /// Bytes per second of execution, across all ranks.
    pub bytes_per_second: f64,
}

/// Compute trace-volume statistics (with `event_bytes` per plain event).
pub fn trace_volume(trace: &Trace, event_bytes: usize) -> TraceVolume {
    let bytes = trace.modelled_bytes(event_bytes);
    let duration = match (trace.events.first(), trace.events.last()) {
        (Some(a), Some(b)) => b.time().saturating_sub(a.time()),
        _ => SimTime::ZERO,
    };
    let secs = duration.as_secs_f64();
    TraceVolume {
        bytes,
        duration,
        bytes_per_second: if secs > 0.0 { bytes as f64 / secs } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> Trace {
        let us = SimTime::from_micros;
        Trace {
            program: "toy".into(),
            functions: vec!["main".into(), "work".into()],
            events: vec![
                Event::FuncEnter {
                    t: us(0),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::FuncEnter {
                    t: us(10),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(1),
                },
                Event::FuncExit {
                    t: us(40),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(1),
                },
                Event::FuncExit {
                    t: us(50),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::FuncEnter {
                    t: us(0),
                    rank: 1,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::FuncBatch {
                    t: us(5),
                    rank: 1,
                    thread: 0,
                    func: VtFuncId(1),
                    count: 100,
                    span: us(60),
                },
                Event::FuncExit {
                    t: us(70),
                    rank: 1,
                    thread: 0,
                    func: VtFuncId(0),
                },
            ],
        }
    }

    #[test]
    fn nested_calls_split_incl_excl() {
        let p = Profile::from_trace(&toy_trace());
        let main0 = p.per_rank[&(0, VtFuncId(0))];
        let work0 = p.per_rank[&(0, VtFuncId(1))];
        assert_eq!(main0.count, 1);
        assert_eq!(main0.incl, SimTime::from_micros(50));
        assert_eq!(main0.excl, SimTime::from_micros(20));
        assert_eq!(work0.incl, SimTime::from_micros(30));
        assert_eq!(work0.excl, SimTime::from_micros(30));
    }

    #[test]
    fn batches_count_fully_and_charge_parents() {
        let p = Profile::from_trace(&toy_trace());
        let work1 = p.per_rank[&(1, VtFuncId(1))];
        assert_eq!(work1.count, 100);
        assert_eq!(work1.incl, SimTime::from_micros(60));
        let main1 = p.per_rank[&(1, VtFuncId(0))];
        assert_eq!(main1.excl, SimTime::from_micros(10));
    }

    #[test]
    fn hot_functions_sorted_by_inclusive() {
        let p = Profile::from_trace(&toy_trace());
        let hot = p.hot_functions();
        assert_eq!(p.name(hot[0].0), "main"); // 50+70us total
        assert_eq!(hot[0].1.count, 2);
    }

    #[test]
    fn imbalance_detects_skew() {
        let p = Profile::from_trace(&toy_trace());
        // work: rank0 30us, rank1 60us -> max/mean = 60/45.
        let f = VtFuncId(1);
        assert!((p.imbalance(f) - 60.0 / 45.0).abs() < 1e-9);
    }

    #[test]
    fn volume_counts_batches() {
        let v = trace_volume(&toy_trace(), 24);
        // 6 plain events + batch of 100 pairs.
        assert_eq!(v.bytes, 6 * 24 + 200 * 24);
        assert_eq!(v.duration, SimTime::from_micros(70));
        assert!(v.bytes_per_second > 0.0);
    }

    #[test]
    fn suspension_exclusion_discounts_overlap() {
        // work: 0..100us with a 20..50us suspension inside.
        let us = SimTime::from_micros;
        let trace = Trace {
            program: "t".into(),
            functions: vec!["work".into()],
            events: vec![
                Event::FuncEnter {
                    t: us(0),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::Suspended {
                    t: us(20),
                    t_end: us(50),
                    rank: 0,
                },
                Event::FuncExit {
                    t: us(100),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
            ],
        };
        let plain = Profile::from_trace(&trace);
        assert_eq!(plain.per_rank[&(0, VtFuncId(0))].incl, us(100));
        let fair = Profile::from_trace_opts(
            &trace,
            ProfileOptions {
                exclude_suspensions: true,
            },
        );
        assert_eq!(fair.per_rank[&(0, VtFuncId(0))].incl, us(70));
        // Windows are reported per rank.
        let ws = suspension_windows(&trace);
        assert_eq!(ws[&0], vec![(us(20), us(50))]);
    }

    #[test]
    fn suspension_exclusion_clips_partial_overlap() {
        let us = SimTime::from_micros;
        let trace = Trace {
            program: "t".into(),
            functions: vec!["w".into()],
            events: vec![
                // Batch spanning 10..40; suspension 30..60 overlaps 10us.
                Event::Suspended {
                    t: us(30),
                    t_end: us(60),
                    rank: 0,
                },
                Event::FuncBatch {
                    t: us(10),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                    count: 5,
                    span: us(30),
                },
            ],
        };
        let fair = Profile::from_trace_opts(
            &trace,
            ProfileOptions {
                exclude_suspensions: true,
            },
        );
        assert_eq!(fair.per_rank[&(0, VtFuncId(0))].incl, us(20));
        // Other ranks are unaffected.
        let trace2 = Trace {
            events: trace
                .events
                .iter()
                .cloned()
                .map(|e| match e {
                    Event::FuncBatch {
                        t,
                        thread,
                        func,
                        count,
                        span,
                        ..
                    } => Event::FuncBatch {
                        t,
                        rank: 1,
                        thread,
                        func,
                        count,
                        span,
                    },
                    other => other,
                })
                .collect(),
            ..trace.clone()
        };
        let fair2 = Profile::from_trace_opts(
            &trace2,
            ProfileOptions {
                exclude_suspensions: true,
            },
        );
        assert_eq!(fair2.per_rank[&(1, VtFuncId(0))].incl, us(30));
    }

    #[test]
    fn render_top_mentions_functions() {
        let p = Profile::from_trace(&toy_trace());
        let s = p.render_top(5);
        assert!(s.contains("main"));
        assert!(s.contains("work"));
    }
}
