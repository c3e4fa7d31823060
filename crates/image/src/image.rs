//! The executable image of a running process, as seen by a dynamic
//! instrumenter.
//!
//! Applications route every (interesting) function call through
//! [`Image::call`], which is the moral equivalent of executing the
//! function's entry instruction: if a dynamic probe has been installed
//! there, control flows through the base trampoline and its chain of
//! mini-trampolines (whose snippets really execute); if the binary was
//! compiled with Guide-style static instrumentation, the static begin/end
//! hooks fire; if neither, the call costs nothing — the property that makes
//! the paper's `Dynamic` policy track `None` so closely (Fig 7).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use dynprof_sim::sync::SimGate;
use dynprof_sim::{Proc, SimTime};

use crate::func::{FuncId, FunctionInfo, ProbePoint, ProbePointKind};
use crate::snippet::{ProbeCtx, Snippet, SnippetId};
use crate::trampoline::{BaseTrampoline, ChainPool, MIN_PATCHABLE_BYTES};

/// Why a probe could not be installed at a point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatchError {
    /// The function body is smaller than the jump the patch must write;
    /// installing would overwrite the following symbol.
    FunctionTooSmall {
        /// Symbol that was targeted.
        name: String,
        /// Its body size.
        size_bytes: usize,
        /// The minimum patchable size ([`MIN_PATCHABLE_BYTES`]).
        required: usize,
    },
    /// The function's CFG has a branch whose target lands strictly inside
    /// the prologue bytes the entry patch overwrites — executing it would
    /// land mid-jump on half-relocated instructions.
    BranchIntoPatch {
        /// Symbol that was targeted.
        name: String,
        /// Offending branch-target offset within the function.
        target_offset: usize,
        /// Patched prologue length ([`MIN_PATCHABLE_BYTES`]).
        patch_len: usize,
    },
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::FunctionTooSmall {
                name,
                size_bytes,
                required,
            } => write!(
                f,
                "function {name:?} is {size_bytes} bytes, smaller than the \
                 {required}-byte probe-point jump"
            ),
            PatchError::BranchIntoPatch {
                name,
                target_offset,
                patch_len,
            } => write!(
                f,
                "function {name:?} has a branch target at offset \
                 {target_offset}, inside the {patch_len}-byte patched \
                 prologue (branch-into-patch hazard)"
            ),
        }
    }
}

impl std::error::Error for PatchError {}

/// Observer of process-state transitions (suspension/resumption), used
/// to realize the paper's §5.1 proposal: suspensions appear in the
/// time-line as periods of inactivity that analysis tools can disregard.
pub trait ImageObserver: Send + Sync {
    /// The process was suspended at `p.now()` (`p` is the acting daemon).
    fn on_suspend(&self, p: &Proc);
    /// The process resumed at `p.now()`.
    fn on_resume(&self, p: &Proc);
}

/// Static instrumentation hooks, as inserted by the Guide compiler at
/// function entry/exit (implemented by the Vampirtrace layer).
pub trait StaticHooks: Send + Sync {
    /// Fired at function entry (aggregated over `ctx.reps` invocations).
    fn begin(&self, ctx: &ProbeCtx<'_>);
    /// Fired at function exit.
    fn end(&self, ctx: &ProbeCtx<'_>);
}

/// The PC journal: per-thread `(enter, exit, function index)` intervals.
pub type PcLog = HashMap<usize, Vec<(SimTime, SimTime, u32)>>;

/// Identity of the caller inside a process: its MPI rank and OpenMP thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallerCtx {
    /// MPI rank of the process (0 if not an MPI job).
    pub rank: usize,
    /// OpenMP thread id within the process (0 = initial thread).
    pub thread: usize,
}

/// What every process running one executable shares: the program's name
/// and its symbol table, immutable once built, so one `Arc<Program>`
/// serves any number of [`Image`]s — as one text segment and symbol table,
/// mapped once per node, serve every rank of a real job. It also keeps the
/// pool its images take trampoline chains from, so ranks patched alike
/// hold one chain per probe point between them.
pub struct Program {
    name: String,
    info: Vec<FunctionInfo>,
    by_name: HashMap<String, FuncId>,
    chains: ChainPool,
}

impl Program {
    /// The program `name` with symbol table `info` (a function's index is
    /// its [`FuncId`]). Panics on duplicate symbol names.
    pub fn new(name: impl Into<String>, info: Vec<FunctionInfo>) -> Arc<Program> {
        let mut by_name = HashMap::with_capacity(info.len());
        for (i, f) in info.iter().enumerate() {
            let prev = by_name.insert(f.name.clone(), FuncId(i as u32));
            assert!(prev.is_none(), "duplicate function name {:?}", f.name);
        }
        Arc::new(Program {
            name: name.into(),
            info,
            by_name,
            chains: ChainPool::default(),
        })
    }

    /// Look up a function by symbol name.
    pub fn func(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// Metadata of `fid`.
    pub fn info(&self, fid: FuncId) -> &FunctionInfo {
        &self.info[fid.index()]
    }

    /// Symbol name of `fid`.
    pub fn name(&self, fid: FuncId) -> &str {
        &self.info[fid.index()].name
    }

    /// Number of functions in the program.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    /// True if the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }

    /// The program's name.
    pub fn program(&self) -> &str {
        &self.name
    }

    /// Iterate all function ids.
    pub fn functions(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.info.len() as u32).map(FuncId)
    }

    /// Can `fid` legally hold a probe-point patch? False for functions
    /// whose body is smaller than the jump the patch writes.
    pub fn patchable(&self, fid: FuncId) -> bool {
        self.info[fid.index()].size_bytes >= MIN_PATCHABLE_BYTES
    }

    /// Would a patch at `point` be safe? Checks the target's size against
    /// the probe-point jump and, for entry points, its CFG for the
    /// branch-into-patch hazard — without installing anything. DPCL
    /// daemons run this (plus snippet-program verification) when voting
    /// on a transaction's staged installs.
    pub fn validate_patch(&self, point: ProbePoint) -> Result<(), PatchError> {
        let info = &self.info[point.func.index()];
        if info.size_bytes < MIN_PATCHABLE_BYTES {
            return Err(PatchError::FunctionTooSmall {
                name: info.name.clone(),
                size_bytes: info.size_bytes,
                required: MIN_PATCHABLE_BYTES,
            });
        }
        // Only the entry patch overwrites prologue bytes a branch could
        // re-enter; the exit patch rewrites return sites.
        if point.kind == ProbePointKind::Entry {
            if let Some(target) = info.branch_into_patch(MIN_PATCHABLE_BYTES) {
                return Err(PatchError::BranchIntoPatch {
                    name: info.name.clone(),
                    target_offset: target,
                    patch_len: MIN_PATCHABLE_BYTES,
                });
            }
        }
        Ok(())
    }
}

/// Index of a probe point in an image's per-point tables: the entry and
/// exit of function *f* sit at 2*f* and 2*f* + 1.
fn slot(func: FuncId, kind: ProbePointKind) -> usize {
    2 * func.index() + kind as usize
}

/// A process's executable image: a shared [`Program`] (reached through
/// `Deref`, so `image.func(..)`, `image.info(..)`, `image.len()` read the
/// symbol table) under a private overlay of what patching and running
/// change — trampoline chains, call counts, the suspend gate, hooks.
///
/// One `Image` per MPI process; OpenMP threads of a process share a single
/// image (which is why instrumenting an OpenMP application patches one
/// image regardless of thread count — paper Fig 9).
pub struct Image {
    program: Arc<Program>,
    /// Trampoline chains by [`slot`], one word each. Empty until the first
    /// insert: an image nobody patches never allocates the table.
    probes: RwLock<Vec<BaseTrampoline>>,
    /// `probes[slot].occupied()`, republished by [`Image::patch`] under the
    /// `probes` write lock (`Release`) and read by the call path without it
    /// (`Acquire`): a caller that sees `false` ran before the patch, as one
    /// that won the lock would have; a caller that sees `true` takes the
    /// lock and runs whatever chain is there by then.
    occupancy: Box<[AtomicBool]>,
    /// Link-time state: the paper links the target against the trace
    /// library when it is compiled, so the hooks are published once and the
    /// call path borrows them — no lock, no reference count.
    static_hooks: OnceLock<Arc<dyn StaticHooks>>,
    /// Published once too, and borrowed at each suspend and resume.
    observer: OnceLock<Arc<dyn ImageObserver>>,
    suspended: AtomicBool,
    /// The gate suspended callers wait at; replaced at each suspension.
    suspend: Mutex<Arc<SimGate>>,
    next_snippet: AtomicU64,
    counts: Box<[AtomicU64]>,
    /// When enabled, every call's `[enter, exit)` interval is journaled
    /// per thread so an ideal interrupt sampler can be evaluated on the
    /// virtual timeline (see `dynprof_bench::sampling`).
    pc_log_enabled: AtomicBool,
    pc_log: Mutex<PcLog>,
    /// Count of probe-point patches performed (jump written or removed),
    /// reported in dynprof's timefile.
    patches: AtomicU64,
}

impl std::ops::Deref for Image {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

impl Image {
    /// A fresh, unpatched process image of `program`.
    pub fn new(program: Arc<Program>) -> Image {
        let n = program.len();
        Image {
            probes: RwLock::new(Vec::new()),
            occupancy: (0..2 * n).map(|_| AtomicBool::new(false)).collect(),
            static_hooks: OnceLock::new(),
            observer: OnceLock::new(),
            suspended: AtomicBool::new(false),
            suspend: Mutex::new(Arc::new(SimGate::new())),
            next_snippet: AtomicU64::new(1),
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            pc_log_enabled: AtomicBool::new(false),
            pc_log: Mutex::new(HashMap::new()),
            patches: AtomicU64::new(0),
            program,
        }
    }

    /// The program this image runs, shared with every other image of it.
    pub fn shared_program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Install image-wide static instrumentation hooks (linking the app
    /// against the trace library at "compile" time). An image is linked
    /// once: a second call panics.
    pub fn set_static_hooks(&self, hooks: Arc<dyn StaticHooks>) {
        assert!(
            self.static_hooks.set(hooks).is_ok(),
            "static hooks installed twice on an image of {:?} (an image is linked once)",
            self.program.name
        );
    }

    /// Install a process-state observer (suspension tracking, §5.1). An
    /// image has one: a second call panics.
    pub fn set_observer(&self, obs: Arc<dyn ImageObserver>) {
        assert!(
            self.observer.set(obs).is_ok(),
            "observer installed twice on an image of {:?}",
            self.program.name
        );
    }

    /// Total calls recorded for `fid` (including batched reps).
    pub fn call_count(&self, fid: FuncId) -> u64 {
        self.counts[fid.index()].load(Ordering::Relaxed)
    }

    /// Number of probe-point patch operations performed so far.
    pub fn patch_count(&self) -> u64 {
        self.patches.load(Ordering::Relaxed)
    }

    // -- dynamic instrumentation -------------------------------------------

    /// Run `f` on the trampoline at `point`, with the program's chain pool,
    /// under the instrumenter lock — allocating the chain table if this is
    /// the image's first patch — and republish the point's occupancy.
    fn patch<R>(
        &self,
        point: ProbePoint,
        f: impl FnOnce(&mut BaseTrampoline, &ChainPool) -> R,
    ) -> R {
        let slot = slot(point.func, point.kind);
        let mut probes = self.probes.write();
        if probes.is_empty() {
            probes.resize_with(self.occupancy.len(), BaseTrampoline::new);
        }
        let r = f(&mut probes[slot], &self.program.chains);
        self.occupancy[slot].store(probes[slot].occupied(), Ordering::Release);
        r
    }

    /// Insert `snippet` at `point` if the target can hold the patch.
    ///
    /// The caller is expected to have suspended the process (DPCL does);
    /// the image itself only requires the instrumenter lock.
    pub fn try_insert(&self, point: ProbePoint, snippet: Snippet) -> Result<SnippetId, PatchError> {
        self.validate_patch(point)?;
        let id = SnippetId(self.next_snippet.fetch_add(1, Ordering::Relaxed));
        // Writing the jump instruction at an idle probe point is a patch,
        // and so is the mini-trampoline store.
        let writes = self.patch(point, |base, pool| {
            let jump = !base.occupied();
            base.push(id, snippet, pool);
            1 + u64::from(jump)
        });
        self.patches.fetch_add(writes, Ordering::Relaxed);
        Ok(id)
    }

    /// Remove the snippet `id` from `point`. Returns `true` if present.
    pub fn remove(&self, point: ProbePoint, id: SnippetId) -> bool {
        let removed = self.occupied(point) && self.patch(point, |base, pool| base.remove(id, pool));
        if removed {
            self.patches.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Remove every snippet at both probe points of `fid`; returns how many
    /// mini-trampolines were deallocated.
    pub fn remove_function_instr(&self, fid: FuncId) -> usize {
        let n = [ProbePoint::entry(fid), ProbePoint::exit(fid)]
            .into_iter()
            .filter(|&point| self.occupied(point))
            .map(|point| self.patch(point, |base, _| base.clear()))
            .sum();
        self.patches.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Is any instrumentation installed at `point`?
    pub fn occupied(&self, point: ProbePoint) -> bool {
        self.occupancy[slot(point.func, point.kind)].load(Ordering::Acquire)
    }

    /// Total dynamically-allocated trampoline bytes.
    pub fn allocated_trampoline_bytes(&self) -> usize {
        let probes = self.probes.read();
        probes.iter().map(BaseTrampoline::allocated_bytes).sum()
    }

    /// Functions that currently have instrumentation at entry or exit.
    pub fn instrumented_functions(&self) -> Vec<FuncId> {
        self.functions()
            .filter(|&f| self.occupied(ProbePoint::entry(f)) || self.occupied(ProbePoint::exit(f)))
            .collect()
    }

    // -- suspend / resume ---------------------------------------------------

    /// Suspend the process: subsequent `call`s block until [`Image::resume`].
    /// Threads already inside a function body run to the next call boundary
    /// (the simulator's approximation of stopping at a safe point).
    /// `p` is the acting process (the DPCL daemon).
    pub fn suspend(&self, p: &Proc) {
        let mut s = self.suspend.lock();
        if !self.suspended.swap(true, Ordering::SeqCst) {
            *s = Arc::new(SimGate::new());
            if let Some(obs) = self.observer.get() {
                obs.on_suspend(p);
            }
        }
    }

    /// Resume the process; blocked calls proceed `latency` after `p`'s time.
    pub fn resume(&self, p: &Proc, latency: SimTime) {
        let s = self.suspend.lock();
        if self.suspended.swap(false, Ordering::SeqCst) {
            s.open(p, latency);
            if let Some(obs) = self.observer.get() {
                obs.on_resume(p);
            }
        }
    }

    /// Is the process currently suspended?
    pub fn is_suspended(&self) -> bool {
        self.suspended.load(Ordering::SeqCst)
    }

    fn wait_if_suspended(&self, p: &Proc) {
        while self.suspended.load(Ordering::SeqCst) {
            let gate = Arc::clone(&self.suspend.lock());
            // Recheck under the gate: resume may have happened in between.
            if !self.suspended.load(Ordering::SeqCst) {
                break;
            }
            gate.wait_open(p);
        }
    }

    // -- the call path -------------------------------------------------------

    /// Execute `body` as a call to `fid`, firing instrumentation.
    pub fn call<R>(&self, p: &Proc, cc: CallerCtx, fid: FuncId, body: impl FnOnce() -> R) -> R {
        self.call_batch(p, cc, fid, 1, |_| body())
    }

    /// Execute `body` once on behalf of `reps` aggregated invocations of
    /// `fid`.
    ///
    /// Very hot leaf functions (called millions of times in the real ASCI
    /// kernels) would make the simulation itself intractable if every call
    /// were played out; `call_batch` preserves *accounting* fidelity — all
    /// instrumentation costs, call counts, and trace volume are multiplied
    /// by `reps` — while executing the probe machinery once. `body`
    /// receives `reps` so the application can scale its own modelled work.
    pub fn call_batch<R>(
        &self,
        p: &Proc,
        cc: CallerCtx,
        fid: FuncId,
        reps: u64,
        body: impl FnOnce(u64) -> R,
    ) -> R {
        debug_assert!(reps > 0, "call_batch with zero reps");
        self.wait_if_suspended(p);
        self.counts[fid.index()].fetch_add(reps, Ordering::Relaxed);
        let t_enter = self.pc_log_enabled.load(Ordering::Relaxed).then(|| p.now());

        let static_hooks = if self.info(fid).statically_instrumented {
            self.static_hooks.get()
        } else {
            None
        };

        // Entry: dynamic probe fires at the entry instruction, then the
        // compiler-inserted static prologue.
        self.fire_point(p, cc, fid, ProbePointKind::Entry, reps);
        if let Some(h) = static_hooks {
            h.begin(&self.ctx(p, cc, fid, ProbePointKind::Entry, reps));
        }

        let r = body(reps);

        if let Some(h) = static_hooks {
            h.end(&self.ctx(p, cc, fid, ProbePointKind::Exit, reps));
        }
        self.fire_point(p, cc, fid, ProbePointKind::Exit, reps);
        if let Some(t0) = t_enter {
            self.pc_log
                .lock()
                .entry(cc.thread)
                .or_default()
                .push((t0, p.now(), fid.0));
        }
        r
    }

    /// Enable journaling of per-call PC intervals (virtual-time sampling).
    pub fn enable_pc_log(&self) {
        self.pc_log_enabled.store(true, Ordering::Relaxed);
    }

    /// Snapshot the PC journal: per-thread `(enter, exit, func)` intervals
    /// in completion order.
    pub fn pc_log_snapshot(&self) -> PcLog {
        self.pc_log.lock().clone()
    }

    fn ctx<'a>(
        &'a self,
        p: &'a Proc,
        cc: CallerCtx,
        fid: FuncId,
        point: ProbePointKind,
        reps: u64,
    ) -> ProbeCtx<'a> {
        ProbeCtx {
            proc: p,
            rank: cc.rank,
            thread: cc.thread,
            func: fid,
            name: self.name(fid),
            point,
            reps,
        }
    }

    fn fire_point(&self, p: &Proc, cc: CallerCtx, fid: FuncId, kind: ProbePointKind, reps: u64) {
        // An idle point costs one load and no lock (see `occupancy`). At an
        // occupied one, snippet code must run outside the `probes` read
        // guard (a snippet may itself insert/remove probes), so the
        // traversal takes the point's chain — immutable, shared, swapped
        // whole on insert and remove — with it: one reference-count bump
        // whatever the chain's length, and no allocation (pinned by
        // `a_probe_fire_allocates_nothing` in `tests/footprint.rs`).
        let slot = slot(fid, kind);
        if !self.occupancy[slot].load(Ordering::Acquire) {
            return;
        }
        let Some(chain) = self.probes.read()[slot].snapshot() else {
            return;
        };
        // Base trampoline dispatch: jump, save regs, relocated instruction,
        // restore regs, jump back — once per traversal, times reps.
        let dispatch = p.machine().probe.trampoline_dispatch;
        p.advance(dispatch * reps);
        let ctx = self.ctx(p, cc, fid, kind, reps);
        for m in chain.iter() {
            (m.snippet.code)(&ctx);
        }
    }
}

/// Builder for a one-off [`Image`] (tests, examples, tools): collects a
/// symbol table, then builds the [`Program`] and one image of it. A job of
/// many processes builds the program once and calls [`Image::new`] per
/// process instead.
pub struct ImageBuilder {
    program: String,
    info: Vec<FunctionInfo>,
}

impl ImageBuilder {
    /// Start building the image of `program`.
    pub fn new(program: impl Into<String>) -> ImageBuilder {
        ImageBuilder {
            program: program.into(),
            info: Vec::new(),
        }
    }

    /// Add a function; returns its id. Panics on duplicate names at build.
    pub fn add(&mut self, info: FunctionInfo) -> FuncId {
        let id = FuncId(self.info.len() as u32);
        self.info.push(info);
        id
    }

    /// Add a plain function by name.
    pub fn add_named(&mut self, name: impl Into<String>) -> FuncId {
        self.add(FunctionInfo::new(name))
    }

    /// Finish, producing the image.
    pub fn build(self) -> Image {
        Image::new(Program::new(self.program, self.info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_sim::{Machine, Sim};
    use std::sync::atomic::AtomicUsize;

    fn two_fn_image() -> Arc<Image> {
        let mut b = ImageBuilder::new("app");
        b.add_named("main");
        b.add_named("test");
        Arc::new(b.build())
    }

    #[test]
    fn uninstrumented_call_is_free_and_counted() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            let v = img2.call(p, CallerCtx::default(), f, || 41 + 1);
            assert_eq!(v, 42);
            assert_eq!(p.now(), dynprof_sim::SimTime::ZERO, "no probe, no cost");
        });
        sim.run();
        assert_eq!(img.call_count(f), 1);
    }

    #[test]
    fn inserted_snippet_fires_and_charges() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        img.try_insert(
            ProbePoint::entry(f),
            Snippet::new("timer", SimTime::from_nanos(500), move |ctx| {
                assert_eq!(ctx.name, "test");
                assert_eq!(ctx.point, ProbePointKind::Entry);
                h.fetch_add(ctx.reps as usize, Ordering::Relaxed);
            }),
        )
        .expect("patchable");
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || ());
            let expect = p.machine().probe.trampoline_dispatch + SimTime::from_nanos(500);
            assert_eq!(p.now(), expect);
        });
        sim.run();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_call_multiplies_costs_and_counts() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        img.try_insert(
            ProbePoint::entry(f),
            Snippet::new("t", SimTime::from_nanos(100), |_| {}),
        )
        .expect("patchable");
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call_batch(p, CallerCtx::default(), f, 1000, |reps| {
                assert_eq!(reps, 1000);
            });
            let per = p.machine().probe.trampoline_dispatch + SimTime::from_nanos(100);
            assert_eq!(p.now(), per * 1000);
        });
        sim.run();
        assert_eq!(img.call_count(f), 1000);
    }

    #[test]
    fn chained_snippets_fire_in_insertion_order() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        for tag in ["first", "second", "third"] {
            let o = Arc::clone(&order);
            img.try_insert(
                ProbePoint::exit(f),
                Snippet::new(tag, SimTime::ZERO, move |_| o.lock().push(tag)),
            )
            .expect("patchable");
        }
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || ());
        });
        sim.run();
        assert_eq!(*order.lock(), ["first", "second", "third"]);
    }

    #[test]
    fn a_snippet_may_repatch_its_own_point_while_it_runs() {
        // The traversal in flight runs the chain it took; the change a
        // snippet makes shows from the next traversal on.
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        let point = ProbePoint::entry(f);
        let fired = Arc::new(Mutex::new(Vec::new()));
        let victim = Arc::new(Mutex::new(None));
        let (img2, fired2, victim2) = (Arc::clone(&img), Arc::clone(&fired), Arc::clone(&victim));
        img.try_insert(
            point,
            Snippet::new("patcher", SimTime::ZERO, move |_| {
                fired2.lock().push("patcher");
                if let Some(id) = victim2.lock().take() {
                    assert!(img2.remove(point, id));
                    let fired3 = Arc::clone(&fired2);
                    img2.try_insert(
                        point,
                        Snippet::new("late", SimTime::ZERO, move |_| fired3.lock().push("late")),
                    )
                    .expect("patchable");
                }
            }),
        )
        .expect("patchable");
        let fired2 = Arc::clone(&fired);
        *victim.lock() = Some(
            img.try_insert(
                point,
                Snippet::new("victim", SimTime::ZERO, move |_| {
                    fired2.lock().push("victim")
                }),
            )
            .expect("patchable"),
        );
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || ());
            img2.call(p, CallerCtx::default(), f, || ());
        });
        sim.run();
        assert_eq!(
            *fired.lock(),
            ["patcher", "victim", "patcher", "late"],
            "first traversal ran the chain as taken, second the chain as patched"
        );
    }

    #[test]
    fn images_patched_alike_share_chains_and_repatch_alone() {
        // Two ranks of one program, patched alike, hold one chain at the
        // point; a snippet on one rank that re-patches its own point while
        // it runs changes that rank's chain only, from the next traversal.
        let program = two_fn_image().shared_program().clone();
        let (a, b) = (
            Arc::new(Image::new(Arc::clone(&program))),
            Arc::new(Image::new(program)),
        );
        let f = a.func("test").unwrap();
        let point = ProbePoint::entry(f);
        let fired = Arc::new(Mutex::new(Vec::new()));
        let (a2, fired2) = (Arc::clone(&a), Arc::clone(&fired));
        let armed = Arc::new(AtomicUsize::new(1));
        let patcher = Snippet::new("patcher", SimTime::ZERO, move |ctx| {
            fired2.lock().push((ctx.rank, "patcher"));
            if ctx.rank == 0 && armed.swap(0, Ordering::Relaxed) == 1 {
                let fired3 = Arc::clone(&fired2);
                a2.try_insert(
                    point,
                    Snippet::new("late", SimTime::ZERO, move |ctx| {
                        fired3.lock().push((ctx.rank, "late"))
                    }),
                )
                .expect("patchable");
            }
        });
        for img in [&a, &b] {
            img.try_insert(point, patcher.clone()).expect("patchable");
        }
        let at = slot(f, point.kind);
        let chain = |img: &Image| img.probes.read()[at].snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&chain(&a), &chain(&b)),
            "one chain for both ranks"
        );
        let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            let (r0, r1) = (CallerCtx::default(), CallerCtx { rank: 1, thread: 0 });
            a3.call(p, r0, f, || ());
            b3.call(p, r1, f, || ());
            a3.call(p, r0, f, || ());
        });
        sim.run();
        assert_eq!(
            *fired.lock(),
            [(0, "patcher"), (1, "patcher"), (0, "patcher"), (0, "late")]
        );
        assert_eq!((chain(&a).len(), chain(&b).len()), (2, 1));
        // A removal on `a` splices back to the chain `b` still holds.
        let late = SnippetId(2);
        assert!(a.remove(point, late));
        assert!(Arc::ptr_eq(&chain(&a), &chain(&b)));
    }

    #[test]
    fn an_unpatched_image_answers_without_a_chain_table() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        let (entry, exit) = (ProbePoint::entry(f), ProbePoint::exit(f));
        assert!(!img.remove(entry, SnippetId(1)));
        assert!(!img.remove(exit, SnippetId(1)));
        assert_eq!(img.remove_function_instr(f), 0);
        assert!(!img.occupied(entry) && !img.occupied(exit));
        assert!(img.instrumented_functions().is_empty());
        assert_eq!(img.allocated_trampoline_bytes(), 0);
        assert_eq!(img.patch_count(), 0);
        assert!(img.probes.read().is_empty(), "asking allocated nothing");
        // The first insert allocates the table — one word per probe point,
        // exactly — and emptied again, the image gives the same answers
        // with the table in place.
        let id = img
            .try_insert(entry, Snippet::noop("n"))
            .expect("patchable");
        assert_eq!(std::mem::size_of::<BaseTrampoline>(), 8);
        assert_eq!(img.probes.read().len(), 2 * img.len());
        assert_eq!(img.probes.read().capacity(), 2 * img.len());
        assert_eq!(img.instrumented_functions(), [f]);
        assert!(img.remove(entry, id));
        assert!(!img.remove(entry, id), "double remove reports absence");
        assert_eq!(img.remove_function_instr(f), 0);
        assert!(img.instrumented_functions().is_empty());
        assert_eq!(img.allocated_trampoline_bytes(), 0);
    }

    #[test]
    fn the_insert_that_allocates_the_table_may_come_from_inside_a_call() {
        // A static hook patches its own function's exit while the call is
        // in flight, on an image nothing has patched before: the insert
        // allocates the chain table, and the exit of that same call — whose
        // idle entry was passed without the lock — already runs the probe.
        struct Patcher(Mutex<Option<Arc<Image>>>, Arc<AtomicUsize>);
        impl StaticHooks for Patcher {
            fn begin(&self, ctx: &ProbeCtx<'_>) {
                if let Some(img) = self.0.lock().take() {
                    let hits = Arc::clone(&self.1);
                    let late = Snippet::new("late", SimTime::ZERO, move |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    let id = img
                        .try_insert(ProbePoint::exit(ctx.func), late.clone())
                        .expect("patchable");
                    assert!(img.remove(ProbePoint::exit(ctx.func), id));
                    img.try_insert(ProbePoint::exit(ctx.func), late)
                        .expect("patchable");
                }
            }
            fn end(&self, _: &ProbeCtx<'_>) {}
        }
        let mut b = ImageBuilder::new("app");
        let f = b.add(FunctionInfo::new("f").static_instr(true));
        let img = Arc::new(b.build());
        let hits = Arc::new(AtomicUsize::new(0));
        img.set_static_hooks(Arc::new(Patcher(
            Mutex::new(Some(Arc::clone(&img))),
            Arc::clone(&hits),
        )));
        assert!(img.probes.read().is_empty());
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || ());
            img2.call(p, CallerCtx::default(), f, || ());
        });
        sim.run();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(img.patch_count(), 5, "jump + mini, splice, jump + mini");
    }

    #[test]
    fn remove_stops_firing_and_frees_bytes() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        let id = img
            .try_insert(ProbePoint::entry(f), Snippet::noop("n"))
            .expect("patchable");
        assert!(img.occupied(ProbePoint::entry(f)));
        assert!(img.allocated_trampoline_bytes() > 0);
        assert!(img.remove(ProbePoint::entry(f), id));
        assert!(!img.occupied(ProbePoint::entry(f)));
        assert_eq!(img.allocated_trampoline_bytes(), 0);
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || ());
            assert_eq!(p.now(), SimTime::ZERO);
        });
        sim.run();
    }

    #[test]
    fn static_hooks_fire_only_for_instrumented_functions() {
        struct Counter(AtomicUsize, AtomicUsize);
        impl StaticHooks for Counter {
            fn begin(&self, _: &ProbeCtx<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn end(&self, _: &ProbeCtx<'_>) {
                self.1.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut b = ImageBuilder::new("app");
        let fi = b.add(FunctionInfo::new("instrumented").static_instr(true));
        let fp = b.add(FunctionInfo::new("plain"));
        let img = Arc::new(b.build());
        let counter = Arc::new(Counter(AtomicUsize::new(0), AtomicUsize::new(0)));
        img.set_static_hooks(Arc::clone(&counter) as Arc<dyn StaticHooks>);
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call(p, CallerCtx::default(), fi, || ());
            img2.call(p, CallerCtx::default(), fp, || ());
        });
        sim.run();
        assert_eq!(counter.0.load(Ordering::Relaxed), 1);
        assert_eq!(counter.1.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "static hooks installed twice")]
    fn static_hooks_are_installed_once() {
        struct Nop;
        impl StaticHooks for Nop {
            fn begin(&self, _: &ProbeCtx<'_>) {}
            fn end(&self, _: &ProbeCtx<'_>) {}
        }
        let img = two_fn_image();
        img.set_static_hooks(Arc::new(Nop));
        img.set_static_hooks(Arc::new(Nop));
    }

    #[test]
    #[should_panic(expected = "observer installed twice")]
    fn observer_is_installed_once() {
        struct Nop;
        impl ImageObserver for Nop {
            fn on_suspend(&self, _: &Proc) {}
            fn on_resume(&self, _: &Proc) {}
        }
        let img = two_fn_image();
        img.set_observer(Arc::new(Nop));
        img.set_observer(Arc::new(Nop));
    }

    #[test]
    fn suspend_blocks_calls_until_resume() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        {
            // Suspend before anything runs (suspender clock at t=0).
            let img3 = Arc::clone(&img);
            sim.spawn("suspender", 2, move |p| img3.suspend(p));
        }
        sim.spawn("app", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || ());
            assert_eq!(p.now(), SimTime::from_millis(5));
        });
        let img3 = Arc::clone(&img);
        sim.spawn("instrumenter", 1, move |p| {
            p.advance(SimTime::from_millis(5));
            img3.resume(p, SimTime::ZERO);
        });
        sim.run();
        assert!(!img.is_suspended());
    }

    #[test]
    fn remove_function_instr_clears_both_points() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        img.try_insert(ProbePoint::entry(f), Snippet::noop("a"))
            .expect("patchable");
        img.try_insert(ProbePoint::entry(f), Snippet::noop("b"))
            .expect("patchable");
        img.try_insert(ProbePoint::exit(f), Snippet::noop("c"))
            .expect("patchable");
        assert_eq!(img.remove_function_instr(f), 3);
        assert!(!img.occupied(ProbePoint::entry(f)));
        assert!(!img.occupied(ProbePoint::exit(f)));
        assert_eq!(img.instrumented_functions().len(), 0);
    }

    #[test]
    fn too_small_function_rejects_patch_at_boundary() {
        let mut b = ImageBuilder::new("app");
        let tiny = b.add(FunctionInfo::new("tiny").with_size(MIN_PATCHABLE_BYTES - 1));
        let fits = b.add(FunctionInfo::new("fits").with_size(MIN_PATCHABLE_BYTES));
        let img = b.build();
        assert!(!img.patchable(tiny));
        assert!(img.patchable(fits));
        let err = img
            .try_insert(ProbePoint::entry(tiny), Snippet::noop("n"))
            .unwrap_err();
        assert_eq!(
            err,
            PatchError::FunctionTooSmall {
                name: "tiny".into(),
                size_bytes: MIN_PATCHABLE_BYTES - 1,
                required: MIN_PATCHABLE_BYTES,
            }
        );
        assert_eq!(img.patch_count(), 0, "rejected patch wrote nothing");
        assert!(!img.occupied(ProbePoint::entry(tiny)));
        // The exit point of the same function is equally unpatchable.
        assert!(img
            .try_insert(ProbePoint::exit(tiny), Snippet::noop("n"))
            .is_err());
        // The boundary size itself is accepted.
        assert!(img
            .try_insert(ProbePoint::entry(fits), Snippet::noop("n"))
            .is_ok());
    }

    #[test]
    fn branch_into_patch_rejects_entry_but_not_exit() {
        use crate::func::BasicBlock;
        let mut b = ImageBuilder::new("app");
        let hazard = b.add(FunctionInfo::new("hazard").with_size(256).with_blocks(vec![
            BasicBlock::new(0, vec![64]),
            BasicBlock::new(64, vec![8, 128]), // 8 is inside the 16-byte patch
        ]));
        let clean = b.add(FunctionInfo::new("clean").with_size(256).with_blocks(vec![
            BasicBlock::new(0, vec![64]),
            BasicBlock::new(64, vec![0, 128]), // 0 hits the patched jump: safe
        ]));
        let img = b.build();
        let err = img
            .try_insert(ProbePoint::entry(hazard), Snippet::noop("n"))
            .unwrap_err();
        assert_eq!(
            err,
            PatchError::BranchIntoPatch {
                name: "hazard".into(),
                target_offset: 8,
                patch_len: MIN_PATCHABLE_BYTES,
            }
        );
        assert_eq!(img.patch_count(), 0);
        // The exit patch does not touch the prologue: allowed.
        assert!(img
            .try_insert(ProbePoint::exit(hazard), Snippet::noop("n"))
            .is_ok());
        // A CFG whose targets avoid the patched region is fine at entry.
        assert!(img
            .try_insert(ProbePoint::entry(clean), Snippet::noop("n"))
            .is_ok());
        // validate_patch alone installs nothing.
        assert!(img.validate_patch(ProbePoint::entry(clean)).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_names_rejected() {
        let mut b = ImageBuilder::new("app");
        b.add_named("f");
        b.add_named("f");
        b.build();
    }

    #[test]
    fn patch_count_tracks_mutations() {
        let img = two_fn_image();
        let f = img.func("test").unwrap();
        assert_eq!(img.patch_count(), 0);
        let id = img
            .try_insert(ProbePoint::entry(f), Snippet::noop("a"))
            .expect("patchable"); // jump + mini
        assert_eq!(img.patch_count(), 2);
        img.try_insert(ProbePoint::entry(f), Snippet::noop("b"))
            .expect("patchable"); // mini only
        assert_eq!(img.patch_count(), 3);
        img.remove(ProbePoint::entry(f), id);
        assert_eq!(img.patch_count(), 4);
    }
}
