//! The trace library core: registration, activation, and the
//! `VT_begin`/`VT_end` fast paths.
//!
//! One [`VtLib`] exists per job and is shared (via `Arc`) by every rank's
//! instrumentation. Each rank owns a private buffer/stack/stats area; the
//! function registry and activation table are global (they are identical
//! on every rank between safe points by construction of `VT_confsync`).
//!
//! Every event leaves the library through one path ([`VtLib::emit`]):
//! into the rank's capture lane when a sink is installed
//! ([`VtLib::set_sink`]), into the rank's in-memory buffer — the default
//! sink — otherwise. Either way under the rank's own guard and no other.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dynprof_obs as obs;
use parking_lot::{Mutex, RwLock};

use dynprof_sim::{ProbeCosts, Proc, SimTime};

use crate::config::{ConfigDelta, VtConfig};
use crate::event::{Event, Trace, VtFuncId};
use crate::sink::{locked, Lane, SharedSink};

/// Per-function statistics accumulated while probes are active — the data
/// `VT_confsync` can write out at runtime (paper §5, Experiment 3).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FuncStat {
    /// Completed calls.
    pub count: u64,
    /// Inclusive time.
    pub incl: SimTime,
    /// Exclusive time (inclusive minus instrumented children).
    pub excl: SimTime,
}

/// Wire row of one function's statistics: `(func, count, incl_ns, excl_ns)`.
pub type FuncStatRow = (u32, u64, u64, u64);

/// The library's handles into its run's registry, each resolved at its
/// first use, so a fast path pays one atomic add and no lookup.
#[derive(Default)]
struct VtMetrics {
    events: OnceLock<Arc<obs::Counter>>,
    deactivated_lookups: OnceLock<Arc<obs::Counter>>,
    suppressed_pairs: OnceLock<Arc<obs::Counter>>,
}

/// Fold one elided `func` pair on `thread` into `pending`, the coalesced
/// [`Event::FuncSuppressed`] records waiting to be sealed.
fn coalesce(
    pending: &mut Vec<Event>,
    rank: u32,
    thread: u16,
    func: VtFuncId,
    t0: SimTime,
    pair: SimTime,
) {
    for ev in pending.iter_mut() {
        if let Event::FuncSuppressed {
            thread: th,
            func: f,
            count,
            span,
            ..
        } = ev
        {
            if (*th, *f) == (thread, func) {
                *count += 1;
                *span += pair;
                return;
            }
        }
    }
    pending.push(Event::FuncSuppressed {
        t: t0,
        rank,
        thread,
        func,
        count: 1,
        span: pair,
    });
}

struct Frame {
    func: VtFuncId,
    t0: SimTime,
    reps: u64,
    active: bool,
    child: SimTime,
    /// Pairs elided directly under this frame, coalesced per function;
    /// sealed into the trace when the frame closes.
    suppressed: Vec<Event>,
}

#[derive(Default)]
pub(crate) struct ProcBuf {
    /// The default in-memory sink: this rank's settled events in append
    /// order. Stays empty once a capture sink is installed.
    events: Vec<Event>,
    /// This rank's private half of the capture, opened at its first
    /// settled event and closed by [`VtLib::close_lanes`].
    lane: Option<Box<dyn Lane>>,
    /// The one event not settled yet: a trailing `FuncEnter` that `VT_end`
    /// may still elide (suppression floor > 0 only). Anything else the
    /// rank emits settles it first.
    held: Option<Event>,
    /// Call stacks indexed by OpenMP thread id.
    stacks: Vec<Vec<Frame>>,
    stats: Vec<FuncStat>,
    trace_bytes: u64,
    deactivated_lookups: u64,
    stray_ends: u64,
    /// Entry/exit pairs elided by the redundancy suppressor.
    suppressed_pairs: u64,
    /// Pairs elided with no frame open above them, coalesced per
    /// (thread, function); sealed at `VT_finalize`.
    orphans: Vec<Event>,
    /// Pending MPI operations (op code, entry time), a stack because
    /// `MPI_Init`'s inserted snippet issues nested `MPI_Barrier`s.
    pub(crate) mpi_stack: Vec<(u8, SimTime)>,
    /// OpenMP threads inside a region: (thread, region, entry time).
    pub(crate) omp_open: Vec<(usize, u32, SimTime)>,
    /// When the instrumenter suspended the process, while it is suspended.
    pub(crate) suspended_since: Option<SimTime>,
    /// Resolved activation per registered function: this rank's table,
    /// filled lazily against its configuration ([`VtLib::active_in`]).
    active: Vec<bool>,
}

impl ProcBuf {
    /// `thread`'s call stack (threads are few and numbered from 0).
    fn stack_of(&mut self, thread: u16) -> &mut Vec<Frame> {
        let i = usize::from(thread);
        if i >= self.stacks.len() {
            self.stacks.resize_with(i + 1, Vec::new);
        }
        &mut self.stacks[i]
    }
}

/// One rank's share of the library.
///
/// **One guard per call.** Everything `VT_begin`, `VT_end` and the
/// MPI, OpenMP and suspension hooks touch on their way out — the event
/// buffer or the capture lane, the call stacks, the open MPI operations,
/// OpenMP thread shares and suspension, the activation table — lives in
/// `buf`, and each of those calls takes that lock exactly once and no
/// other: an event reaches its lane's open chunk under the guard the rank
/// already holds.
///
/// **Lock order**: `buf` → `registry` (read) → `config`, then the capture
/// sink innermost — per lane opened, and inside a lane per chunk handed
/// over, never per event. The first three nest only when a lookup meets a
/// function registered since the rank last resolved its table
/// ([`VtLib::active_in`], [`VtLib::reresolve`]). `buf` → *another rank's*
/// `buf` happens in one place, the sub-buffer switch
/// ([`VtLib::switch_lanes`]), in ascending rank order; it is legal because
/// one simulated process runs at a time on either carrier and none yields
/// with its `buf` held. Nothing that holds the `registry` *write* lock may
/// take a `buf` lock (`VT_funcdef` takes the sink, which takes nothing;
/// [`VtLib::set_sink`] looks at the buffers before it takes the registry,
/// never under it). One lock from outside comes before `buf`: an image's
/// `suspend` lock, under which the image opens and closes a suspension
/// window (its observer's [`VtLib::with_rank`]).
struct ProcState {
    initialized: AtomicBool,
    finalized: AtomicBool,
    buf: Mutex<ProcBuf>,
    /// This rank's view of the configuration. Distributed on purpose:
    /// between safe points different ranks may (transiently) disagree,
    /// exactly as the real library's per-process tables do — and the
    /// simulator's causality depends on it.
    config: Mutex<VtConfig>,
    /// Safe points this rank has entered (drives the fault plan's
    /// missed-epoch decision; consistent across ranks because
    /// `VT_confsync` is collective).
    sync_round: AtomicU64,
    /// Deltas this rank missed (its config epoch arrived while it was
    /// unreachable), tagged with the safe-point round that decided them;
    /// applied as catch-up at the next safe point.
    deferred: Mutex<Vec<(u64, ConfigDelta)>>,
}

struct Registry {
    names: Vec<String>,
    ids: HashMap<String, VtFuncId>,
}

/// The Vampirtrace-analogue instrumentation library of one job.
pub struct VtLib {
    program: String,
    costs: ProbeCosts,
    registry: RwLock<Registry>,
    procs: Vec<ProcState>,
    epoch: AtomicU32,
    /// `(rank, epoch)` markers for safe points a rank passed without
    /// applying that epoch's delta (it caught up later).
    partials: Mutex<Vec<(usize, u32)>>,
    /// Degraded-mode instrumentation epochs: `(txn epoch, nodes left
    /// uninstrumented)` recorded by the 2PC control plane when an epoch
    /// committed without the full node set or aborted. Figure output
    /// labels runs with a non-empty list.
    degraded: Mutex<Vec<(u64, Vec<usize>)>>,
    /// Redundancy-suppression duration floor in nanoseconds (0 = off):
    /// active entry/exit pairs shorter than this are elided into
    /// per-function [`Event::FuncSuppressed`] records.
    suppress_floor: AtomicU64,
    /// Verifier-derived worst-case costs of the `VT_begin`/`VT_end`
    /// snippet programs, stamped when the snippets are built from the IR.
    /// The overhead controller prefers these over the declared
    /// [`ProbeCosts`] pair — derived bounds are checked, not trusted.
    derived_costs: Mutex<(Option<SimTime>, Option<SimTime>)>,
    /// Where settled events go instead of the per-rank buffers.
    sink: OnceLock<SharedSink>,
    /// Identity of this library in happens-before reports (`check`).
    pub(crate) check_id: u64,
    /// The run's instruments (see [`VtLib::registry`]).
    metrics: VtMetrics,
}

impl VtLib {
    /// Create the library for `program` with `ranks` processes, an initial
    /// configuration (the "VT configuration file"), and the machine's
    /// probe cost model.
    pub fn new(
        program: impl Into<String>,
        ranks: usize,
        config: VtConfig,
        costs: ProbeCosts,
    ) -> Arc<VtLib> {
        Arc::new(VtLib {
            program: program.into(),
            costs,
            registry: RwLock::new(Registry {
                names: Vec::new(),
                ids: HashMap::new(),
            }),
            procs: (0..ranks)
                .map(|_| ProcState {
                    initialized: AtomicBool::new(false),
                    finalized: AtomicBool::new(false),
                    buf: Mutex::new(ProcBuf::default()),
                    config: Mutex::new(config.clone()),
                    sync_round: AtomicU64::new(0),
                    deferred: Mutex::new(Vec::new()),
                })
                .collect(),
            epoch: AtomicU32::new(0),
            partials: Mutex::new(Vec::new()),
            degraded: Mutex::new(Vec::new()),
            suppress_floor: AtomicU64::new(0),
            derived_costs: Mutex::new((None, None)),
            sink: OnceLock::new(),
            check_id: dynprof_sim::hb::unique_id(),
            metrics: VtMetrics::default(),
        })
    }

    /// Send every event into `sink`'s lanes as it settles instead of
    /// buffering it per rank: the library then holds no trace at all
    /// ([`VtLib::with_rank_events`] and [`VtLib::build_trace`] see nothing).
    /// Install it before the run starts; names already registered are
    /// replayed to the sink first. Call [`VtLib::close_lanes`] once the run
    /// has ended. Feeding a capture costs no virtual time.
    pub fn set_sink(&self, sink: SharedSink) {
        // Looked at before the registry lock is taken, not under it: a
        // rank resolving its activation table holds `buf` and wants the
        // registry (see the lock order on `ProcState`). The check guards
        // the "before the run starts" contract; it needs no atomicity
        // with the installation.
        assert!(
            self.procs.iter().all(|st| st.buf.lock().events.is_empty()),
            "capture sink installed after events were buffered"
        );
        // Under the registry lock, so no `VT_funcdef` slips between the
        // replay and the installation.
        let reg = self.registry.write();
        {
            let mut s = locked(&sink);
            for (i, name) in reg.names.iter().enumerate() {
                s.funcdef(VtFuncId(i as u32), name);
            }
        }
        assert!(self.sink.set(sink).is_ok(), "capture sink installed twice");
    }

    /// Program name.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The probe cost model in force.
    pub fn costs(&self) -> &ProbeCosts {
        &self.costs
    }

    /// Number of ranks this library serves.
    pub fn ranks(&self) -> usize {
        self.procs.len()
    }

    /// Current configuration epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Acquire)
    }

    pub(crate) fn bump_epoch(&self) -> u32 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The index of the safe point `rank` is entering (0-based, bumped on
    /// each `VT_confsync`).
    pub(crate) fn next_sync_round(&self, rank: usize) -> u64 {
        self.procs[rank].sync_round.fetch_add(1, Ordering::AcqRel)
    }

    /// Queue a delta `rank` could not apply at the safe point `round`.
    pub(crate) fn defer_delta(&self, rank: usize, round: u64, delta: ConfigDelta) {
        self.procs[rank].deferred.lock().push((round, delta));
    }

    /// Drain `rank`'s missed `(round, delta)` pairs for catch-up
    /// application.
    pub(crate) fn take_deferred(&self, rank: usize) -> Vec<(u64, ConfigDelta)> {
        std::mem::take(&mut *self.procs[rank].deferred.lock())
    }

    /// How many missed deltas `rank` has yet to catch up on.
    pub fn deferred_count(&self, rank: usize) -> usize {
        self.procs[rank].deferred.lock().len()
    }

    /// Record that `rank` passed the safe point of `epoch` without
    /// applying its delta.
    pub(crate) fn note_partial(&self, rank: usize, epoch: u32) {
        self.partials.lock().push((rank, epoch));
    }

    /// `(rank, epoch)` markers of partially-applied config epochs: safe
    /// points a rank passed while its delta was deferred. Empty in
    /// fault-free runs.
    pub fn partial_epochs(&self) -> Vec<(usize, u32)> {
        self.partials.lock().clone()
    }

    /// Record that instrumentation txn `epoch` left `nodes` uninstrumented
    /// (excluded from a degraded commit, or every participant of an
    /// aborted epoch), so the trace carries the reduced coverage alongside
    /// the measurements.
    pub fn note_degraded(&self, epoch: u64, nodes: &[usize]) {
        self.degraded.lock().push((epoch, nodes.to_vec()));
    }

    /// True if any instrumentation epoch landed on fewer than all of its
    /// nodes — figure harnesses use this to label output rows.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.lock().is_empty()
    }

    /// Set the redundancy-suppression duration floor. Pairs with
    /// inclusive time strictly below `floor` (and with no recorded or
    /// instrumented children) are elided into coalesced
    /// [`Event::FuncSuppressed`] records. `SimTime::ZERO` disables
    /// suppression and leaves the recording path byte-identical to a
    /// library without the feature.
    pub fn set_suppress_floor(&self, floor: SimTime) {
        self.suppress_floor
            .store(floor.as_nanos(), Ordering::Release);
    }

    /// Current redundancy-suppression floor (`ZERO` = off).
    pub fn suppress_floor(&self) -> SimTime {
        SimTime::from_nanos(self.suppress_floor.load(Ordering::Acquire))
    }

    /// Entry/exit pairs elided by the redundancy suppressor on `rank`.
    pub fn suppressed_pairs(&self, rank: usize) -> u64 {
        self.procs[rank].buf.lock().suppressed_pairs
    }

    /// Record the verifier-derived bound of the `VT_begin` program.
    pub(crate) fn register_derived_begin(&self, cost: Option<SimTime>) {
        self.derived_costs.lock().0 = cost;
    }

    /// Record the verifier-derived bound of the `VT_end` program.
    pub(crate) fn register_derived_end(&self, cost: Option<SimTime>) {
        self.derived_costs.lock().1 = cost;
    }

    /// Verifier-derived worst-case cost of one active begin/end pair,
    /// available once both snippet programs have been built and verified.
    /// `None` until then (the controller falls back to the declared
    /// [`ProbeCosts::active_pair`]).
    pub fn derived_pair(&self) -> Option<SimTime> {
        let (b, e) = *self.derived_costs.lock();
        Some(b? + e?)
    }

    /// `VT_init` on `rank`: reads the configuration file and sets up the
    /// rank's trace structures. Must precede any other VT call on the rank.
    pub fn init(&self, p: &Proc, rank: usize) {
        let st = &self.procs[rank];
        assert!(
            !st.initialized.swap(true, Ordering::AcqRel),
            "VT_init called twice on rank {rank}"
        );
        // Config file read + table construction.
        p.advance(SimTime::from_micros(400));
    }

    /// Has `VT_init` completed on `rank`?
    pub fn is_initialized(&self, rank: usize) -> bool {
        self.procs[rank].initialized.load(Ordering::Acquire)
    }

    /// `VT_funcdef`: register `name`, returning its id (idempotent).
    /// Charges the registration cost only on first registration.
    pub fn funcdef(&self, p: &Proc, name: &str) -> VtFuncId {
        if let Some(&id) = self.registry.read().ids.get(name) {
            return id;
        }
        let mut reg = self.registry.write();
        if let Some(&id) = reg.ids.get(name) {
            return id;
        }
        p.advance(self.costs.vt_funcdef);
        let id = VtFuncId(reg.names.len() as u32);
        reg.names.push(name.to_string());
        reg.ids.insert(name.to_string(), id);
        if let Some(sink) = self.sink.get() {
            locked(sink).funcdef(id, name);
        }
        id
    }

    /// Look up a registered function by name.
    pub fn func_id(&self, name: &str) -> Option<VtFuncId> {
        self.registry.read().ids.get(name).copied()
    }

    /// Is `func` active on `rank` (would `VT_begin` record there)?
    ///
    /// The activation table is per rank: the configuration file is read
    /// per process at `VT_init`, and `VT_confsync` changes are applied by
    /// each rank as the safe point reaches it (paper §4.2, §5).
    pub fn is_active(&self, rank: usize, func: VtFuncId) -> bool {
        let st = &self.procs[rank];
        self.active_in(st, &mut st.buf.lock(), func)
    }

    /// [`VtLib::is_active`] for a caller that already holds the rank's
    /// `buf` guard (the `VT_begin` path). Functions registered since the
    /// rank last looked are resolved against its configuration first.
    fn active_in(&self, st: &ProcState, buf: &mut ProcBuf, func: VtFuncId) -> bool {
        if let Some(&on) = buf.active.get(func.0 as usize) {
            return on;
        }
        let reg = self.registry.read();
        let cfg = st.config.lock();
        while buf.active.len() < reg.names.len() {
            let on = cfg.resolve(&reg.names[buf.active.len()]);
            buf.active.push(on);
        }
        buf.active.get(func.0 as usize).copied().unwrap_or(false)
    }

    /// Re-resolve `rank`'s activation table after a configuration change;
    /// returns how many functions changed state.
    pub(crate) fn reresolve(&self, rank: usize) -> usize {
        let st = &self.procs[rank];
        let mut buf = st.buf.lock();
        let reg = self.registry.read();
        let cfg = st.config.lock();
        let a = &mut buf.active;
        let mut changed = 0;
        a.resize(reg.names.len(), false);
        for (i, name) in reg.names.iter().enumerate() {
            let on = cfg.resolve(name);
            if a[i] != on {
                a[i] = on;
                changed += 1;
            }
        }
        changed
    }

    pub(crate) fn with_config<R>(&self, rank: usize, f: impl FnOnce(&mut VtConfig) -> R) -> R {
        f(&mut self.procs[rank].config.lock())
    }

    fn assert_ready(&self, rank: usize) {
        assert!(
            self.is_initialized(rank),
            "VT call before VT_init on rank {rank} — the instrumenter must \
             defer instrumentation until initialization completes (paper §3.4)"
        );
    }

    /// `VT_begin` for `reps` aggregated invocations.
    pub fn begin(&self, p: &Proc, rank: usize, thread: u16, func: VtFuncId, reps: u64) {
        self.assert_ready(rank);
        let st = &self.procs[rank];
        let mut buf = st.buf.lock();
        let active = self.active_in(st, &mut buf, func);
        if active {
            p.advance(self.costs.vt_begin_active * reps);
            if reps == 1 {
                let ev = Event::FuncEnter {
                    t: p.now(),
                    rank: rank as u32,
                    thread,
                    func,
                };
                // Redundancy suppression may take this entry back: hold it
                // (and only it) until the rank's next event or `VT_end`
                // decides. Nothing is held once the rank has finalized.
                let hold =
                    self.suppress_floor() > SimTime::ZERO && !st.finalized.load(Ordering::Acquire);
                if hold {
                    if let Some(prev) = buf.held.replace(ev) {
                        self.settle(p, &mut buf, prev);
                    }
                } else {
                    self.emit(p, &mut buf, ev);
                }
            }
        } else {
            // Deactivated: the call still happens, pays the table lookup,
            // and bails out (paper §4.2).
            p.advance(self.costs.vt_deactivated * reps);
            buf.deactivated_lookups += reps;
            if let Some(m) = p.metrics() {
                self.metrics
                    .deactivated_lookups
                    .get_or_init(|| m.counter("vt.deactivated_lookups"))
                    .add(reps);
            }
        }
        buf.stack_of(thread).push(Frame {
            func,
            t0: p.now(),
            reps,
            active,
            child: SimTime::ZERO,
            suppressed: Vec::new(),
        });
    }

    /// `VT_end` matching the innermost `begin` on (`rank`, `thread`).
    ///
    /// If no frame for `func` is open on the thread — which happens when a
    /// dynamic entry probe was removed between a function's entry and
    /// exit — the call is counted in [`VtLib::stray_ends`] and otherwise
    /// ignored, as the real library must tolerate. An exit that *skips*
    /// open frames of other functions, however, is a true nesting bug in
    /// the instrumented program and panics.
    pub fn end(&self, p: &Proc, rank: usize, thread: u16, func: VtFuncId) {
        self.assert_ready(rank);
        let mut buf = self.procs[rank].buf.lock();
        {
            let stack = buf.stack_of(thread);
            match stack.last() {
                Some(top) if top.func == func => {}
                Some(top) => {
                    assert!(
                        !stack.iter().any(|f| f.func == func),
                        "mismatched VT_end on rank {rank}: began {:?}, ended {:?}",
                        top.func,
                        func
                    );
                    buf.stray_ends += 1;
                    return;
                }
                None => {
                    buf.stray_ends += 1;
                    return;
                }
            }
        }
        let frame = buf.stack_of(thread).pop().expect("frame checked above");
        // Pairs elided under this frame are sealed while it is still the
        // innermost open one, so a profile charges them to it. (A frame
        // that collected any has settled its own entry long before.)
        for ev in frame.suppressed {
            self.emit(p, &mut buf, ev);
        }
        if frame.active {
            p.advance(self.costs.vt_end_active * frame.reps);
            let now = p.now();
            let span = now.saturating_sub(frame.t0);
            // Redundancy suppression: a single pair shorter than the floor
            // whose enter is still held back (so nothing — child events,
            // MPI records, another thread — happened on the rank since) is
            // dropped and folded into a suppressed-count record under the
            // enclosing frame. An instrumented child always emits, so a
            // pair with children is never elided and exclusive-time
            // reconstruction from the trace stays exact.
            let elide = span < self.suppress_floor()
                && matches!(
                    buf.held,
                    Some(Event::FuncEnter { thread: th, func: f, .. }) if th == thread && f == func
                );
            if elide {
                buf.held = None;
                let ProcBuf {
                    stacks, orphans, ..
                } = &mut *buf;
                let pending = match stacks[usize::from(thread)].last_mut() {
                    Some(parent) => &mut parent.suppressed,
                    None => orphans,
                };
                coalesce(pending, rank as u32, thread, func, frame.t0, span);
                buf.suppressed_pairs += 1;
                if let Some(m) = p.metrics() {
                    self.metrics
                        .suppressed_pairs
                        .get_or_init(|| m.counter("vt.suppressed_pairs"))
                        .inc();
                }
            } else {
                let ev = if frame.reps == 1 {
                    Event::FuncExit {
                        t: now,
                        rank: rank as u32,
                        thread,
                        func,
                    }
                } else {
                    Event::FuncBatch {
                        t: frame.t0,
                        rank: rank as u32,
                        thread,
                        func,
                        count: frame.reps,
                        span,
                    }
                };
                self.emit(p, &mut buf, ev);
            }
            // Statistics (identical whether or not the pair was elided —
            // suppression changes the trace, never the runtime stats).
            let idx = func.0 as usize;
            if buf.stats.len() <= idx {
                buf.stats.resize(idx + 1, FuncStat::default());
            }
            let s = &mut buf.stats[idx];
            s.count += frame.reps;
            s.incl += span;
            s.excl += span.saturating_sub(frame.child);
            // Attribute our inclusive time to the parent's child-time.
            if let Some(parent) = buf.stack_of(thread).last_mut() {
                parent.child += span;
            }
        }
    }

    /// Record an event that closes no open span (a fork, a join, a safe
    /// point): [`VtLib::with_rank`] with nothing to update.
    pub(crate) fn record(&self, p: &Proc, rank: usize, ev: Event) {
        self.emit(p, &mut self.procs[rank].buf.lock(), ev);
    }

    /// The one path out of the library: settle whatever the rank still
    /// holds back, then `ev`. `VT_begin`, `VT_end` and the MPI/OpenMP
    /// hooks all end here.
    fn emit(&self, p: &Proc, buf: &mut ProcBuf, ev: Event) {
        if let Some(held) = buf.held.take() {
            self.settle(p, buf, held);
        }
        self.settle(p, buf, ev);
    }

    /// Account one event that will never be taken back and put it in the
    /// rank's capture lane (opened here, at the rank's first), or in the
    /// rank's buffer when no sink is installed.
    fn settle(&self, p: &Proc, buf: &mut ProcBuf, ev: Event) {
        buf.trace_bytes += ev.trace_bytes_of(self.costs.event_bytes);
        if let Some(m) = p.metrics() {
            self.metrics
                .events
                .get_or_init(|| m.counter("vt.events"))
                .inc();
        }
        let Some(sink) = self.sink.get() else {
            buf.events.push(ev);
            return;
        };
        let lane = buf.lane.get_or_insert_with(|| locked(sink).lane(ev.rank()));
        if !lane.push(&ev) {
            self.switch_lanes(ev.rank() as usize, buf);
            let lane = buf.lane.as_mut().expect("opened above");
            assert!(lane.push(&ev), "a lane refused an event after a switch");
        }
    }

    /// Sub-buffer switch: every open lane hands its partial chunk over, in
    /// ascending rank order. `mine` is the guard `me` already holds; the
    /// other ranks' are taken one at a time (see the lock order on
    /// [`ProcState`]).
    fn switch_lanes(&self, me: usize, mine: &mut ProcBuf) {
        for (rank, st) in self.procs.iter().enumerate() {
            if rank == me {
                mine.lane.iter_mut().for_each(|lane| lane.switch());
            } else {
                st.buf.lock().lane.iter_mut().for_each(|lane| lane.switch());
            }
        }
    }

    /// Close every rank's capture lane, in ascending rank order. Call it
    /// once the run has ended, before the sink is finished.
    pub fn close_lanes(&self) {
        for st in &self.procs {
            let lane = st.buf.lock().lane.take();
            if let Some(lane) = lane {
                lane.close();
            }
        }
    }

    /// One hook event on `rank`: `f` updates the rank's buffer — an open
    /// MPI call, OpenMP thread share or suspension — and the event it
    /// returns, if any, leaves through [`VtLib::emit`], all under the
    /// rank's one guard.
    pub(crate) fn with_rank(
        &self,
        p: &Proc,
        rank: usize,
        f: impl FnOnce(&mut ProcBuf) -> Option<Event>,
    ) {
        let mut buf = self.procs[rank].buf.lock();
        if let Some(ev) = f(&mut buf) {
            self.emit(p, &mut buf, ev);
        }
    }

    /// `VT_finalize` on `rank`: flush the rank's buffer to the trace file
    /// (charged at the modelled per-byte flush cost).
    pub fn finalize(&self, p: &Proc, rank: usize) {
        self.assert_ready(rank);
        let st = &self.procs[rank];
        if st.finalized.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut buf = st.buf.lock();
        // Settle what suppression still holds back: the trailing entry,
        // the pairs elided under frames left open, the top-level ones.
        if let Some(held) = buf.held.take() {
            self.settle(p, &mut buf, held);
        }
        let mut pending = std::mem::take(&mut buf.orphans);
        for frame in buf.stacks.iter_mut().flatten() {
            pending.append(&mut frame.suppressed);
        }
        for ev in pending {
            self.settle(p, &mut buf, ev);
        }
        let bytes = buf.trace_bytes;
        drop(buf);
        p.advance(self.costs.flush_per_byte.mul_f64(bytes as f64));
        if let Some(m) = p.metrics() {
            m.counter("vt.bytes_flushed").add(bytes);
        }
    }

    /// Modelled trace volume produced by `rank` so far.
    pub fn trace_bytes(&self, rank: usize) -> u64 {
        self.procs[rank].buf.lock().trace_bytes
    }

    /// Total modelled trace volume across ranks.
    pub fn total_trace_bytes(&self) -> u64 {
        (0..self.procs.len()).map(|r| self.trace_bytes(r)).sum()
    }

    /// Number of deactivated-probe lookups performed by `rank` (the
    /// Full-Off/Subset overhead the paper measures).
    pub fn deactivated_lookups(&self, rank: usize) -> u64 {
        self.procs[rank].buf.lock().deactivated_lookups
    }

    /// `VT_end` calls on `rank` that found no matching open frame
    /// (orphaned by probe removal between entry and exit).
    pub fn stray_ends(&self, rank: usize) -> u64 {
        self.procs[rank].buf.lock().stray_ends
    }

    /// Frames still open on `rank` (begin without end — e.g. an exit
    /// probe removed mid-call).
    pub fn open_frames(&self, rank: usize) -> usize {
        self.procs[rank]
            .buf
            .lock()
            .stacks
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// Snapshot of `rank`'s per-function statistics, as wire rows.
    pub fn stats_rows(&self, rank: usize) -> Vec<FuncStatRow> {
        let buf = self.procs[rank].buf.lock();
        buf.stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count > 0)
            .map(|(i, s)| (i as u32, s.count, s.incl.as_nanos(), s.excl.as_nanos()))
            .collect()
    }

    /// Statistics of one function on one rank.
    pub fn stat_of(&self, rank: usize, func: VtFuncId) -> FuncStat {
        let buf = self.procs[rank].buf.lock();
        buf.stats.get(func.0 as usize).copied().unwrap_or_default()
    }

    /// Snapshot of the function dictionary (names indexed by
    /// [`VtFuncId`]), for trace writers that stream per rank instead of
    /// materializing a merged [`Trace`].
    pub fn function_names(&self) -> Vec<String> {
        self.registry.read().names.clone()
    }

    /// Visit `rank`'s buffered events in causal (append) order without
    /// cloning them. Frames still open are not visible here (same contract
    /// as [`VtLib::build_trace`]), and with a capture sink installed
    /// nothing is: the events went to the sink.
    pub fn with_rank_events<R>(&self, rank: usize, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&self.procs[rank].buf.lock().events)
    }

    /// Assemble the postmortem trace (merged across ranks, time-sorted)
    /// from the per-rank buffers — empty with a capture sink installed.
    pub fn build_trace(&self) -> Trace {
        let mut events = Vec::new();
        for st in self.procs.iter() {
            let buf = st.buf.lock();
            // Frames still open (e.g. an exit probe removed while the
            // function executed) are dropped; they are observable through
            // `open_frames`.
            events.extend(buf.events.iter().cloned());
        }
        events.sort_by_key(|e| (e.time(), e.rank()));
        Trace {
            program: self.program.clone(),
            functions: self.registry.read().names.clone(),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EventSink;
    use dynprof_sim::{Machine, Sim};

    fn lib(config: VtConfig) -> Arc<VtLib> {
        VtLib::new("app", 2, config, ProbeCosts::power3())
    }

    fn in_sim(f: impl FnOnce(&Proc) + Send + 'static) {
        let sim = Sim::virtual_time(Machine::test_machine(), 5);
        sim.spawn("p", 0, f);
        sim.run();
    }

    #[test]
    fn funcdef_is_idempotent_and_charges_once() {
        let vt = lib(VtConfig::all_on());
        in_sim(move |p| {
            let a = vt.funcdef(p, "solve");
            let cost1 = p.now();
            assert_eq!(cost1, vt.costs().vt_funcdef);
            let b = vt.funcdef(p, "solve");
            assert_eq!(a, b);
            assert_eq!(p.now(), cost1, "re-registration is free");
            let c = vt.funcdef(p, "other");
            assert_ne!(a, c);
        });
    }

    #[test]
    fn active_begin_end_records_events_and_charges() {
        let vt = lib(VtConfig::all_on());
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let f = vt2.funcdef(p, "work");
            let t0 = p.now();
            vt2.begin(p, 0, 0, f, 1);
            assert_eq!(p.now() - t0, vt2.costs().vt_begin_active);
            p.advance(SimTime::from_micros(100));
            vt2.end(p, 0, 0, f);
            let s = vt2.stat_of(0, f);
            assert_eq!(s.count, 1);
            assert!(s.incl >= SimTime::from_micros(100));
        });
        let trace = vt.build_trace();
        assert_eq!(trace.events.len(), 2);
        assert!(matches!(trace.events[0], Event::FuncEnter { .. }));
        assert!(matches!(trace.events[1], Event::FuncExit { .. }));
        assert_eq!(vt.trace_bytes(0), 48);
    }

    #[test]
    fn deactivated_pays_lookup_only() {
        let vt = lib(VtConfig::all_off());
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let f = vt2.funcdef(p, "work");
            let t0 = p.now();
            vt2.begin(p, 0, 0, f, 1);
            vt2.end(p, 0, 0, f);
            assert_eq!(p.now() - t0, vt2.costs().vt_deactivated);
        });
        assert_eq!(vt.trace_bytes(0), 0, "no events for deactivated probes");
        assert_eq!(vt.deactivated_lookups(0), 1);
        assert_eq!(vt.build_trace().events.len(), 0);
    }

    #[test]
    fn batch_pair_aggregates() {
        let vt = lib(VtConfig::all_on());
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let f = vt2.funcdef(p, "hot_leaf");
            let t0 = p.now();
            vt2.begin(p, 0, 0, f, 1000);
            p.advance(SimTime::from_millis(1));
            vt2.end(p, 0, 0, f);
            let charged = p.now() - t0 - SimTime::from_millis(1);
            assert_eq!(charged, vt2.costs().active_pair() * 1000);
            assert_eq!(vt2.stat_of(0, f).count, 1000);
        });
        let trace = vt.build_trace();
        assert_eq!(trace.events.len(), 1, "one FuncBatch event");
        // Trace volume accounts for all 2000 events.
        assert_eq!(vt.trace_bytes(0), 2 * 1000 * 24);
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let vt = lib(VtConfig::all_on());
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let outer = vt2.funcdef(p, "outer");
            let inner = vt2.funcdef(p, "inner");
            vt2.begin(p, 0, 0, outer, 1);
            p.advance(SimTime::from_micros(10));
            vt2.begin(p, 0, 0, inner, 1);
            p.advance(SimTime::from_micros(30));
            vt2.end(p, 0, 0, inner);
            p.advance(SimTime::from_micros(5));
            vt2.end(p, 0, 0, outer);
            let so = vt2.stat_of(0, outer);
            let si = vt2.stat_of(0, inner);
            assert!(si.incl >= SimTime::from_micros(30));
            assert!(so.incl > si.incl);
            // outer exclusive excludes inner inclusive.
            assert_eq!(so.excl, so.incl - si.incl);
        });
    }

    #[test]
    fn per_thread_stacks_do_not_interfere() {
        let vt = lib(VtConfig::all_on());
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let a = vt2.funcdef(p, "a");
            let b = vt2.funcdef(p, "b");
            vt2.begin(p, 0, 0, a, 1);
            vt2.begin(p, 0, 1, b, 1); // different thread, interleaved
            vt2.end(p, 0, 0, a);
            vt2.end(p, 0, 1, b);
        });
        assert_eq!(vt.build_trace().events.len(), 4);
    }

    #[test]
    #[should_panic(expected = "before VT_init")]
    fn begin_before_init_panics() {
        let vt = lib(VtConfig::all_on());
        in_sim(move |p| {
            let f = vt.funcdef(p, "f");
            vt.begin(p, 0, 0, f, 1);
        });
    }

    #[test]
    #[should_panic(expected = "mismatched VT_end")]
    fn skipping_an_open_frame_panics() {
        let vt = lib(VtConfig::all_on());
        in_sim(move |p| {
            vt.init(p, 0);
            let a = vt.funcdef(p, "a");
            let b = vt.funcdef(p, "b");
            vt.begin(p, 0, 0, a, 1);
            vt.begin(p, 0, 0, b, 1);
            // Ending `a` while `b` is still open skips a frame: a real
            // nesting violation.
            vt.end(p, 0, 0, a);
        });
    }

    #[test]
    fn stray_end_is_tolerated_and_counted() {
        // A removal race can fire VT_end with no matching begin.
        let vt = lib(VtConfig::all_on());
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let a = vt2.funcdef(p, "a");
            vt2.end(p, 0, 0, a); // nothing open at all
            let b = vt2.funcdef(p, "b");
            vt2.begin(p, 0, 0, b, 1);
            vt2.end(p, 0, 0, a); // `a` not on the stack (b is): stray
            vt2.end(p, 0, 0, b);
        });
        assert_eq!(vt.stray_ends(0), 2);
        assert_eq!(vt.open_frames(0), 0);
    }

    #[test]
    fn activation_survives_config_reresolution() {
        let vt = lib(VtConfig::all_on());
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let f = vt2.funcdef(p, "solver_kernel");
            assert!(vt2.is_active(0, f));
            vt2.with_config(0, |c| {
                c.apply(&crate::config::ConfigDelta::Set(vec![(
                    "solver_*".into(),
                    false,
                )]));
            });
            let changed = vt2.reresolve(0);
            assert_eq!(changed, 1);
            assert!(!vt2.is_active(0, f));
            // A deactivated pair mid-flight stays balanced.
            vt2.begin(p, 0, 0, f, 1);
            vt2.end(p, 0, 0, f);
        });
    }

    #[test]
    fn suppression_elides_and_coalesces_short_pairs() {
        let vt = lib(VtConfig::all_on());
        vt.set_suppress_floor(SimTime::from_micros(10));
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let f = vt2.funcdef(p, "tiny");
            for _ in 0..3 {
                vt2.begin(p, 0, 0, f, 1);
                p.advance(SimTime::from_micros(1));
                vt2.end(p, 0, 0, f);
            }
            // A pair above the floor is recorded normally.
            vt2.begin(p, 0, 0, f, 1);
            p.advance(SimTime::from_micros(50));
            vt2.end(p, 0, 0, f);
            assert_eq!(vt2.stat_of(0, f).count, 4, "stats are never suppressed");
            // Top-level elisions are sealed when the rank finalizes.
            vt2.with_rank_events(0, |evs| assert_eq!(evs.len(), 2));
            vt2.finalize(p, 0);
        });
        assert_eq!(vt.suppressed_pairs(0), 3);
        let trace = vt.build_trace();
        let suppressed: Vec<_> = trace
            .events
            .iter()
            .filter(|e| matches!(e, Event::FuncSuppressed { .. }))
            .collect();
        assert_eq!(suppressed.len(), 1, "elided pairs coalesce into one record");
        if let Event::FuncSuppressed { count, .. } = suppressed[0] {
            assert_eq!(*count, 3);
        }
        // One coalesced record + the long pair's enter/exit.
        assert_eq!(trace.events.len(), 3);
        assert_eq!(vt.trace_bytes(0), 3 * 24);
    }

    #[test]
    fn suppression_floor_zero_is_identical_to_off() {
        fn run(floor: Option<SimTime>) -> (Trace, u64) {
            let vt = lib(VtConfig::all_on());
            if let Some(floor) = floor {
                vt.set_suppress_floor(floor);
            }
            let vt2 = Arc::clone(&vt);
            in_sim(move |p| {
                vt2.init(p, 0);
                let f = vt2.funcdef(p, "f");
                for _ in 0..5 {
                    vt2.begin(p, 0, 0, f, 1);
                    p.advance(SimTime::from_nanos(100));
                    vt2.end(p, 0, 0, f);
                }
            });
            (vt.build_trace(), vt.trace_bytes(0))
        }
        let (off_trace, off_bytes) = run(None);
        let (default_trace, default_bytes) = run(Some(SimTime::ZERO));
        assert_eq!(off_trace, default_trace);
        assert_eq!(off_bytes, default_bytes);
        assert_eq!(off_trace.events.len(), 10, "nothing suppressed at floor 0");
    }

    #[test]
    fn suppression_keeps_pairs_with_recorded_or_suppressed_children() {
        let vt = lib(VtConfig::all_on());
        vt.set_suppress_floor(SimTime::from_millis(1));
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let outer = vt2.funcdef(p, "outer");
            let inner = vt2.funcdef(p, "inner");
            vt2.begin(p, 0, 0, outer, 1);
            vt2.begin(p, 0, 0, inner, 1);
            p.advance(SimTime::from_micros(2));
            vt2.end(p, 0, 0, inner); // short: elided
            vt2.end(p, 0, 0, outer); // also short, but had an elided child
        });
        let trace = vt.build_trace();
        // `outer` must keep its enter/exit (its child time would otherwise
        // be unrecoverable), while `inner` collapses to one record.
        assert_eq!(vt.suppressed_pairs(0), 1);
        assert_eq!(trace.events.len(), 3);
        assert!(matches!(trace.events[0], Event::FuncEnter { .. }));
        assert!(matches!(trace.events[1], Event::FuncSuppressed { .. }));
        assert!(matches!(trace.events[2], Event::FuncExit { .. }));
    }

    #[test]
    fn suppression_seals_one_record_per_enclosing_frame() {
        let vt = lib(VtConfig::all_on());
        vt.set_suppress_floor(SimTime::from_micros(10));
        let vt2 = Arc::clone(&vt);
        in_sim(move |p| {
            vt2.init(p, 0);
            let outer = vt2.funcdef(p, "outer");
            let tiny = vt2.funcdef(p, "tiny");
            for _ in 0..2 {
                vt2.begin(p, 0, 0, outer, 1);
                for _ in 0..3 {
                    vt2.begin(p, 0, 0, tiny, 1);
                    p.advance(SimTime::from_micros(1));
                    vt2.end(p, 0, 0, tiny);
                }
                vt2.end(p, 0, 0, outer);
            }
        });
        assert_eq!(vt.suppressed_pairs(0), 6);
        // Each `outer` invocation closes over its own coalesced record,
        // placed just before its exit.
        let kinds: Vec<u64> = vt.with_rank_events(0, |evs| {
            evs.iter()
                .map(|e| match e {
                    Event::FuncEnter { .. } => 0,
                    Event::FuncSuppressed { count, .. } => *count,
                    Event::FuncExit { .. } => 9,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        });
        assert_eq!(kinds, [0, 3, 9, 0, 3, 9]);
        assert_eq!(vt.trace_bytes(0), 6 * 24);
    }

    /// A sink that keeps what it is given, to look at afterwards. Its lanes
    /// append to the one shared list, a lock per event.
    #[derive(Default)]
    struct Recorder {
        names: Vec<String>,
        events: Arc<std::sync::Mutex<Vec<Event>>>,
    }

    struct RecorderLane(Arc<std::sync::Mutex<Vec<Event>>>);

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

    #[test]
    fn sink_gets_dictionary_and_events_and_nothing_is_buffered() {
        let run = |sink: Option<Arc<std::sync::Mutex<Recorder>>>| {
            let vt = lib(VtConfig::all_on());
            let vt2 = Arc::clone(&vt);
            in_sim(move |p| {
                // One name is registered before the sink arrives.
                let early = vt2.funcdef(p, "early");
                if let Some(sink) = sink {
                    vt2.set_sink(sink);
                }
                vt2.init(p, 0);
                let late = vt2.funcdef(p, "late");
                vt2.begin(p, 0, 0, early, 1);
                vt2.begin(p, 0, 0, late, 40);
                vt2.end(p, 0, 0, late);
                vt2.end(p, 0, 0, early);
                vt2.finalize(p, 0);
            });
            vt
        };
        let buffered = run(None);
        let recorder = Arc::new(std::sync::Mutex::new(Recorder::default()));
        let live = run(Some(Arc::clone(&recorder)));
        let rec = recorder.lock().unwrap();
        assert_eq!(rec.names, ["early", "late"]);
        let events = rec.events.lock().unwrap();
        assert_eq!(*events, buffered.build_trace().events);
        assert_eq!(events.len(), 3);
        live.with_rank_events(0, |evs| assert!(evs.is_empty()));
        assert!(live.build_trace().events.is_empty());
        // The accounting does not depend on where the events went.
        assert_eq!(live.trace_bytes(0), buffered.trace_bytes(0));
        assert_eq!(
            live.stat_of(0, VtFuncId(1)),
            buffered.stat_of(0, VtFuncId(1))
        );
    }

    #[test]
    fn sink_sees_only_settled_events() {
        let recorder = Arc::new(std::sync::Mutex::new(Recorder::default()));
        let vt = lib(VtConfig::all_on());
        vt.set_suppress_floor(SimTime::from_micros(10));
        vt.set_sink(Arc::clone(&recorder) as SharedSink);
        let events = Arc::clone(&recorder.lock().unwrap().events);
        let seen = {
            let events = Arc::clone(&events);
            move || events.lock().unwrap().len()
        };
        in_sim(move |p| {
            vt.init(p, 0);
            let f = vt.funcdef(p, "f");
            // An entry that may still be elided is held back…
            vt.begin(p, 0, 0, f, 1);
            assert_eq!(seen(), 0);
            p.advance(SimTime::from_micros(1));
            vt.end(p, 0, 0, f);
            assert_eq!(seen(), 0, "…and an elided pair never reaches the sink");
            // …at most one per rank: the next entry settles it.
            vt.begin(p, 0, 0, f, 1);
            vt.begin(p, 0, 1, f, 1);
            assert_eq!(seen(), 1);
            p.advance(SimTime::from_micros(50));
            vt.end(p, 0, 1, f);
            vt.end(p, 0, 0, f);
            assert_eq!(seen(), 4);
            vt.finalize(p, 0);
            assert_eq!(seen(), 5, "the top-level record is sealed at finalize");
        });
        let events = events.lock().unwrap();
        assert!(
            matches!(events[4], Event::FuncSuppressed { count: 1, .. }),
            "{:?}",
            events[4]
        );
    }

    #[test]
    fn finalize_charges_flush_and_is_idempotent() {
        let vt = lib(VtConfig::all_on());
        in_sim(move |p| {
            vt.init(p, 0);
            let f = vt.funcdef(p, "f");
            vt.begin(p, 0, 0, f, 1);
            vt.end(p, 0, 0, f);
            let t0 = p.now();
            vt.finalize(p, 0);
            let flushed = p.now() - t0;
            assert_eq!(flushed, vt.costs().flush_per_byte * 48);
            vt.finalize(p, 0);
            assert_eq!(p.now() - t0, flushed, "second finalize free");
        });
    }
}
