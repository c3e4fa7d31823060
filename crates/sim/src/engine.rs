//! The simulation engine: a deterministic sequential discrete-event
//! scheduler on one virtual clock, with coroutine- or thread-carried
//! processes.
//!
//! Exactly one simulated process executes at a time. A process blocks
//! whenever it performs a simulator operation ([`Proc::sleep`], a
//! blocking receive, or any primitive in [`crate::sync`]); before
//! sleeping it pops the globally-earliest pending wake event itself and
//! resumes the successor directly (*direct handoff*; popping one's own
//! wake costs nothing). The [`Sim::run`] thread only performs the
//! startup dispatch, detects deadlock, and tears the run down — it is
//! not on the per-event path. Computation between simulator operations
//! executes natively (results are real) while simulated time advances
//! only through explicit charges — to a clock the running process owns,
//! so neither a charge nor a timestamp takes a lock. Ties in the event
//! queue are broken by insertion sequence number, which makes every run with the same seed
//! bit-for-bit deterministic; because the dispatch decision always
//! happens under the same lock hold that blocked the yielding process,
//! the event *order* is identical on every backend (and to the
//! historical hub-and-spoke scheduler's).
//!
//! There is one scheduler core — one yield path
//! (`Engine::yield_and_wait`), one finish path, one run loop with one
//! deadlock verdict — over a *carrier* that knows only how to resume a
//! dispatched process, wait until resumed, and tear a run down. Two
//! [`ProcBackend`]s carry the processes:
//!
//! * **`coroutine`** (default where supported) — every process is a
//!   green task (see the `co` module) and all of them take turns on a few
//!   run stacks, on the thread inside [`Sim::run`]. A handoff copies the
//!   live frames of the process leaving the successor's run stack out
//!   and the successor's back in, then swaps `rsp` — no syscall anywhere
//!   on the per-event path.
//! * **`threads`** — every process is an OS thread and a handoff is a
//!   `park`/`unpark` futex pair. Kept as the differential oracle and as
//!   the carrier for platforms without the coroutine runtime: everything
//!   but the three carrier operations is shared code, so dispatch logs,
//!   figures, metrics and panic verdicts must be byte-identical across
//!   backends.
//!
//! Both carriers end a process the same way (`ProcExit`): its body
//! returned, it panicked (the first payload is kept and re-raised from
//! [`Sim::run`]), or it was unwound by the quiet `Poison` payload that
//! tears the survivors down once a run has failed.
//!
//! All scheduler state — the process slots, the wake heap, the timers,
//! the threads carrier's join handles, the dispatch log — sits behind one
//! mutex, `inner`. Producers (`schedule`, timer arming) take it only on
//! the running process, and a yielder drops it before resuming its
//! successor, so no two contexts ever want it at once on the per-event
//! path.

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

use dynprof_obs as obs;
use parking_lot::Mutex;

use crate::co::{self, CarrierError};
use crate::fault::FaultPlan;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::topology::Machine;

/// Identifier of a simulated process (dense, starting at 0).
pub type Pid = usize;

/// Which mechanism carries the simulated processes of a simulation.
///
/// Both backends share the scheduler core (one dispatch function, one
/// lock discipline, one run loop), so event order, dispatch logs, figure
/// output, and every deterministic metric are byte-identical across
/// them; only the cost of a handoff differs. `threads` is kept as the differential oracle for
/// `coroutine` and for platforms without a coroutine implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcBackend {
    /// One OS thread per process; a handoff parks the yielder and
    /// unparks the successor — a futex syscall pair per event.
    Threads,
    /// One coroutine per process (the `co` module), all taking turns on
    /// a few run stacks on the thread driving [`Sim::run`]; a handoff
    /// copies live frames and swaps stacks in userspace. The default where
    /// supported (x86-64 Linux).
    Coroutine,
}

impl ProcBackend {
    /// The backend a plain [`Sim::virtual_time`] resolves to:
    /// `DYNPROF_PROC_BACKEND` (`threads` / `coroutine`; read once), else
    /// coroutines where supported. A coroutine request on a platform
    /// without the runtime falls back to threads. A caller that wants a
    /// particular carrier names it ([`Sim::virtual_time_with_backend`]).
    ///
    /// A value other than those two stops the run with
    /// `ProcBackend::parse`'s message.
    pub fn default_backend() -> ProcBackend {
        static ENV: OnceLock<Option<ProcBackend>> = OnceLock::new();
        let env = *ENV.get_or_init(|| {
            let v = std::env::var_os("DYNPROF_PROC_BACKEND")?;
            Some(ProcBackend::parse(&v.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")))
        });
        let resolved = env.unwrap_or(ProcBackend::Coroutine);
        if resolved == ProcBackend::Coroutine && !co::supported() {
            ProcBackend::Threads
        } else {
            resolved
        }
    }

    /// A `DYNPROF_PROC_BACKEND` value: `threads` or `coroutine`.
    fn parse(value: &str) -> Result<ProcBackend, String> {
        match value {
            "threads" => Ok(ProcBackend::Threads),
            "coroutine" => Ok(ProcBackend::Coroutine),
            _ => Err(format!(
                "DYNPROF_PROC_BACKEND={value:?}: expected `threads` or `coroutine`"
            )),
        }
    }
}

/// Unwind payload used to tear blocked processes down: raised with
/// `resume_unwind` (no panic-hook noise) at the resume point in
/// [`Engine::yield_and_wait`] once the simulation is poisoned, caught by
/// [`Engine::run_body`] and classified as a poisoned — not panicked —
/// exit. Destructors on the process's stack run normally on the way out.
struct Poison;

/// How a process ended, on either carrier (see [`Engine::run_body`]).
enum ProcExit {
    /// The body returned normally.
    Normal,
    /// Unwound by [`Poison`] during teardown (or never started).
    Poisoned,
    /// The body panicked; the first such payload is re-raised from
    /// [`Sim::run`].
    Panicked(Box<dyn std::any::Any + Send>),
}

/// A dispatched process as the carrier needs it to resume it: the pid
/// and (threads carrier) the handle of the thread to unpark.
type Dispatched = (Pid, Option<Thread>);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PState {
    /// Not currently running; resumed by a queued wake event.
    Blocked,
    /// The single currently-executing process.
    Running,
    /// Finished.
    Done,
}

/// A simulated process's virtual clock: one cell per process, shared by
/// its [`ProcSlot`] and its [`Proc`] handle.
///
/// **Exactly one writer at a time.** While the process runs it alone
/// reads and writes the cell ([`Proc::now`], [`Proc::advance`]), taking
/// no lock. While it is blocked only a dispatcher does, under the
/// `inner` mutex, lifting the clock to the time of the wake it pops
/// (that is how a sender that ran meanwhile moves a receiver's clock).
/// The handoff orders the two: on the `threads` backend the yielder's
/// last write precedes its `inner` acquisition, and the dispatcher's
/// lift precedes the `current_word` release-store the resumed process
/// acquire-loads before it touches the cell again; the `coroutine`
/// backend never leaves one OS thread. Relaxed accesses are therefore
/// enough — the atomic exists to make the sharing sound, not to order
/// anything.
struct Clock(AtomicU64);

impl Clock {
    fn new(t: SimTime) -> Arc<Clock> {
        Arc::new(Clock(AtomicU64::new(t.as_nanos())))
    }

    #[inline]
    fn get(&self) -> SimTime {
        SimTime::from_nanos(self.0.load(Ordering::Relaxed))
    }

    #[inline]
    fn set(&self, t: SimTime) {
        self.0.store(t.as_nanos(), Ordering::Relaxed);
    }

    /// Raise the clock to at least `t`; returns the result.
    #[inline]
    fn lift(&self, t: SimTime) -> SimTime {
        let t = self.get().max(t);
        self.set(t);
        t
    }
}

struct ProcSlot {
    name: String,
    node: usize,
    state: PState,
    clock: Arc<Clock>,
    /// Timer generation: a timer entry fires only if the generation it
    /// recorded still matches (see [`Engine::cancel_timers`]).
    timer_gen: u64,
    /// OS thread backing this process (threads carrier), for `unpark`
    /// wakes and the join at teardown. Registered by `spawn_at` before
    /// any dispatch can target the pid, so the dispatcher never races a
    /// missing handle.
    thread: Option<JoinHandle<()>>,
}

/// All scheduler state, behind the engine's one mutex.
struct EngineInner {
    procs: Vec<ProcSlot>,
    /// Pending wake events `(at, seq, pid)`, min-first. `(at, seq)` is
    /// unique, so the pop order is total and the same on every run.
    queue: BinaryHeap<Reverse<(SimTime, u64, Pid)>>,
    /// Deadline timers `(at, seq, pid, gen)`. Kept apart from the wake
    /// queue so a timed wait whose timer never fires (the no-fault fast
    /// path) leaves every queue metric — and thus the metrics dump —
    /// untouched.
    timers: BinaryHeap<Reverse<(SimTime, u64, Pid, u64)>>,
    /// Tie-break sequence number shared by both heaps (insertion order).
    seq: u64,
    /// Deepest the wake queue has grown (deterministic, since pushes are
    /// serialized).
    queue_hw: usize,
    /// Cancelled timer entries removed from the heap at the cancellation
    /// site rather than lingering until they surface at the top.
    timers_cancelled: u64,
    /// Currently running pid; `None` while a dispatch is
    /// being chosen. `None` is never observable outside the lock during a
    /// successful handoff: the yielder clears and re-fills it under one
    /// hold, which is what makes who-dispatches deterministic.
    current: Option<Pid>,
    live: usize,
    /// Furthest time any process has reached (the makespan).
    horizon: SimTime,
    /// Wake events dispatched (throughput metric).
    dispatched: u64,
    /// Pid of the most recently dispatched process; a dispatch that
    /// resumes a different process than last time is a context switch in
    /// the one-runs-at-a-time model.
    last_pid: Option<Pid>,
    ctx_switches: u64,
    /// Optional dispatch recorder: every dispatched wake appends
    /// `(pid, resumed clock)`. Used by the dispatch-order equivalence
    /// tests; `None` (one test per dispatch) in normal runs.
    dispatch_log: Option<Vec<(Pid, SimTime)>>,
    /// Dispatches performed by a yielding/finishing process handing
    /// straight to its successor (one OS-thread switch each; a process
    /// popping its own wake costs none and is also counted here as zero).
    direct_handoffs: u64,
    /// Dispatches performed by the `run()` thread (two context switches
    /// each: yielder -> scheduler -> successor). Startup only, by design.
    sched_fallbacks: u64,
    panicked: bool,
    /// First real panic payload of a process, re-raised from
    /// [`Sim::run`] after teardown.
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
}

impl EngineInner {
    /// Push a wake event for `pid` at `at`.
    fn push_wake(&mut self, at: SimTime, pid: Pid) {
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, pid)));
        self.queue_hw = self.queue_hw.max(self.queue.len());
    }
}

/// The coroutine carrier's state: per-pid contexts, the run stacks they
/// share, and the scheduler context's save slot.
///
/// Wrapped in `UnsafeCell` with hand-written `Send`/`Sync` because
/// `Engine` is shared through `Arc` (stats handles, process bodies) and
/// must stay `Sync`, while the pool itself is never accessed
/// concurrently: before `run()` only spawners touch it, serialized under
/// the `inner` lock; from then on only the driving thread — `run()` and
/// the coroutines it multiplexes are the same OS thread — ever does.
struct CoPool(UnsafeCell<CoPoolInner>);

// SAFETY: see the invariant on [`CoPool`]. Every access goes through an
// `unsafe` engine method whose caller discharges it.
unsafe impl Send for CoPool {}
unsafe impl Sync for CoPool {}

struct CoPoolInner {
    /// Per-pid coroutine contexts; `None` once finished. Boxed so a
    /// context keeps its address while the vector grows (`spawn_child`
    /// can push mid-run while the carrier points at one).
    slots: Vec<Option<Box<co::Co>>>,
    /// The run stacks the coroutines run on (`coroutine` backend only).
    carrier: Option<co::Carrier>,
    /// Saved context of the `run()` thread while a coroutine runs.
    sched_sp: *mut u8,
    /// Where a finished coroutine's last switch saves its stack pointer,
    /// never read.
    dead_sp: *mut u8,
    /// The process the coroutine that last switched to the scheduler
    /// context asks it to resume; `None`: the verdict, or the run's end,
    /// is `run()`'s.
    handoff: Option<Pid>,
}

pub(crate) struct Engine {
    /// Process carrier (after platform fallback).
    backend: ProcBackend,
    inner: Mutex<EngineInner>,
    /// Coroutine state (`coroutine` backend only; empty otherwise).
    co: CoPool,
    /// The thread inside [`Sim::run`], which the threads carrier unparks
    /// when a dispatch finds nothing runnable.
    sched_thread: OnceLock<Thread>,
    /// Mirror of `inner.current` (usize::MAX = none), written by the
    /// dispatcher under the lock (release) and read lock-free (acquire)
    /// by a waiting process as its wake condition. A process may only
    /// proceed past its park loop when this equals its own pid, and the
    /// dispatcher only stores a pid after setting `inner.current` to it —
    /// the word cannot move again until that process runs and yields, so
    /// observing one's own pid here is definitive, not a hint.
    current_word: AtomicUsize,
    /// Mirror of `inner.panicked` so resumed waiters notice teardown.
    panicked_word: AtomicBool,
    /// Iterations a freshly-yielded process polls `current_word` before
    /// parking. In the alternation-heavy workloads on multi-core hosts
    /// this catches the successor's handoff without any futex traffic.
    /// Zero on single-core hosts (spinning would starve the runner).
    spin_limit: u32,
    /// Construction time, for the `sim.real_elapsed_ns` gauge.
    epoch: Instant,
    machine: Machine,
    seed: u64,
    /// Fault plan in force, if any (set at most once, before processes
    /// start exchanging messages).
    faults: OnceLock<Arc<FaultPlan>>,
    /// Happens-before recorder, installed by [`Sim::enable_check`] only.
    hb: OnceLock<Arc<dyn crate::hb::Recorder>>,
    /// The run's metrics registry, if it is observed (set at most once,
    /// by [`Sim::set_metrics`], before processes start).
    metrics: OnceLock<Arc<obs::Registry>>,
}

impl Engine {
    fn new(machine: Machine, seed: u64, backend: ProcBackend) -> Result<Engine, CarrierError> {
        // Coroutine requests degrade to threads on platforms without the
        // runtime.
        let backend = if co::supported() {
            backend
        } else {
            ProcBackend::Threads
        };
        let carrier = match backend {
            ProcBackend::Coroutine => Some(co::Carrier::new(co::stack_bytes())?),
            ProcBackend::Threads => None,
        };
        Ok(Engine {
            backend,
            inner: Mutex::new(EngineInner {
                procs: Vec::new(),
                queue: BinaryHeap::new(),
                timers: BinaryHeap::new(),
                seq: 0,
                queue_hw: 0,
                timers_cancelled: 0,
                current: None,
                live: 0,
                horizon: SimTime::ZERO,
                dispatched: 0,
                last_pid: None,
                ctx_switches: 0,
                dispatch_log: None,
                direct_handoffs: 0,
                sched_fallbacks: 0,
                panicked: false,
                panic_payload: None,
            }),
            co: CoPool(UnsafeCell::new(CoPoolInner {
                slots: Vec::new(),
                carrier,
                sched_sp: core::ptr::null_mut(),
                dead_sp: core::ptr::null_mut(),
                handoff: None,
            })),
            sched_thread: OnceLock::new(),
            current_word: AtomicUsize::new(usize::MAX),
            panicked_word: AtomicBool::new(false),
            spin_limit: match std::thread::available_parallelism() {
                Ok(n) if n.get() >= 2 => 1200,
                _ => 0,
            },
            epoch: Instant::now(),
            machine,
            seed,
            faults: OnceLock::new(),
            hb: OnceLock::new(),
            metrics: OnceLock::new(),
        })
    }

    /// Push a wake event for `pid` at absolute time `at`.
    ///
    /// Producers only ever run on the currently-executing process (or on
    /// the spawning thread before `run()` starts), so no dispatcher can be
    /// idle-waiting on this event: it will be considered at the producer's
    /// next yield point. Hence no signalling here, and the `inner` lock
    /// is uncontended: the yielder dropped it before resuming us.
    pub(crate) fn schedule(&self, pid: Pid, at: SimTime) {
        self.inner.lock().push_wake(at, pid);
    }

    /// Arm a deadline timer waking `pid` at `at` unless cancelled first.
    pub(crate) fn schedule_timer(&self, pid: Pid, at: SimTime) {
        let mut g = self.inner.lock();
        g.seq += 1;
        let entry = (at, g.seq, pid, g.procs[pid].timer_gen);
        g.timers.push(Reverse(entry));
    }

    /// Is a wake or a timer pending at or before `t`?
    fn due_by(&self, t: SimTime) -> bool {
        let g = self.inner.lock();
        let wake = g.queue.peek().map(|&Reverse((at, ..))| at);
        let timer = g.timers.peek().map(|&Reverse((at, ..))| at);
        wake.into_iter().chain(timer).any(|at| at <= t)
    }

    /// Invalidate every outstanding timer of `pid`, removing its dead heap
    /// entries eagerly so they never surface at dispatch (the generation
    /// bump still guards any entry a future refactor might leave behind).
    pub(crate) fn cancel_timers(&self, pid: Pid) {
        let mut g = self.inner.lock();
        g.procs[pid].timer_gen += 1;
        let before = g.timers.len();
        if before > 0 {
            g.timers.retain(|&Reverse((_, _, tpid, _))| tpid != pid);
            g.timers_cancelled += (before - g.timers.len()) as u64;
        }
    }

    /// Pop the earliest runnable event and dispatch it: lift the target's
    /// clock, mark it `Running`, account the dispatch, and set `current`
    /// — so the resumed process finds everything in place and takes no
    /// lock on its way back into its body. Returns the
    /// dispatched process, or `None` if no useful event is pending (the
    /// `run()` loop decides whether that means deadlock).
    ///
    /// Must be called with the `inner` guard held and `current == None`;
    /// the whole decision happens under that single hold, so which thread
    /// calls this (a yielding process, a finishing process, or the `run()`
    /// thread at startup) can never change the chosen order.
    ///
    /// The caller must [`Engine::resume`] the result **after dropping the
    /// guard**: on the threads carrier, waking first would let the
    /// successor preempt us (CFS wake-up preemption on a loaded core) only
    /// to block on the mutex we still hold — an extra context switch plus
    /// a futex round trip on every single event. Deferring the wake is
    /// safe because the park token cannot be lost and `current_word` is
    /// already published.
    fn dispatch_next(&self, g: &mut EngineInner) -> Option<Dispatched> {
        debug_assert!(g.current.is_none());
        loop {
            // Discard stale timers at the top: cancelled generations
            // (normally already removed eagerly) or finished procs.
            while let Some(&Reverse((_, _, tpid, tgen))) = g.timers.peek() {
                let target = &g.procs[tpid];
                if target.timer_gen != tgen || target.state == PState::Done {
                    g.timers.pop();
                } else {
                    break;
                }
            }
            let wake = g.queue.peek().map(|&Reverse((at, _, pid))| (at, pid));
            let timer = g.timers.peek().map(|&Reverse((at, _, pid, _))| (at, pid));
            let (t, pid) = match (wake, timer) {
                (None, None) => return None,
                // Strict precedence only: at equal times the wake event
                // wins, so a message arriving exactly at a receive
                // deadline is delivered (and observed) before the
                // timeout can fire.
                (Some(w), Some(tm)) if w.0 <= tm.0 => {
                    g.queue.pop();
                    w
                }
                (Some(w), None) => {
                    g.queue.pop();
                    w
                }
                (_, Some(tm)) => {
                    g.timers.pop();
                    tm
                }
            };
            match g.procs[pid].state {
                PState::Done => continue, // stale wake for a finished process
                PState::Running => {
                    unreachable!("running proc has queued wake while scheduler active")
                }
                PState::Blocked => {
                    // The target is blocked, so its clock is ours to
                    // write (see [`Clock`]).
                    let clock = g.procs[pid].clock.lift(t);
                    g.procs[pid].state = PState::Running;
                    g.horizon = g.horizon.max(clock);
                    g.dispatched += 1;
                    if let Some(log) = &mut g.dispatch_log {
                        log.push((pid, clock));
                    }
                    if g.last_pid != Some(pid) {
                        g.ctx_switches += 1;
                        g.last_pid = Some(pid);
                    }
                    g.current = Some(pid);
                    self.current_word.store(pid, Ordering::Release);
                    let thread = g.procs[pid].thread.as_ref().map(|h| h.thread().clone());
                    return Some((pid, thread));
                }
            }
        }
    }

    /// Yield the calling process and wait to be resumed; by then the
    /// dispatcher has lifted its clock to the wake time.
    ///
    /// The caller must have arranged to be woken: either by scheduling its
    /// own wake, or because another process will `schedule` it.
    ///
    /// This is the direct-handoff fast path: the yielder itself pops the
    /// next runnable event and resumes the successor, all under the same
    /// `inner` hold that marked it blocked — one context switch per event
    /// instead of the hub-and-spoke two, and zero when the popped event
    /// is the yielder's own wake (timed sleeps). Only when no event is
    /// pending does it resume the `run()` thread, which owns the
    /// deadlock verdict. What a "context switch" costs is the carrier's
    /// business: a futex `park`/`unpark` pair on `threads`, a copy of live
    /// frames and a userspace stack swap on `coroutine`.
    ///
    /// This is the only place a started process is ever suspended, so it
    /// is also where teardown poison unwinds one.
    pub(crate) fn yield_and_wait(&self, pid: Pid) {
        let mut g = self.inner.lock();
        debug_assert_eq!(g.current, Some(pid), "yield by non-running process");
        g.procs[pid].state = PState::Blocked;
        g.current = None;
        self.current_word.store(usize::MAX, Ordering::Relaxed);
        let next = self.dispatch_next(&mut g);
        match &next {
            // Popped our own wake (a timed sleep): no handoff at all.
            Some((next, _)) if *next == pid => return,
            Some(_) => g.direct_handoffs += 1,
            // Nothing runnable: the verdict (deadlock or teardown) is
            // `run()`'s.
            None => {}
        }
        drop(g);
        self.resume(Some(pid), next);
        self.wait_resumed(Some(pid));
        if self.panicked_word.load(Ordering::Acquire) {
            std::panic::resume_unwind(Box::new(Poison));
        }
    }

    /// The one finish path: account `pid`'s exit and, unless the run is
    /// over or poisoned, dispatch its successor under the same hold (the
    /// single-hold argument of [`Engine::yield_and_wait`]). The caller's
    /// carrier resumes what is returned; `None` is the `run()` thread,
    /// which owns completion, the deadlock verdict and teardown.
    fn finish(&self, pid: Pid, exit: ProcExit) -> Option<Dispatched> {
        let mut g = self.inner.lock();
        if let ProcExit::Panicked(payload) = exit {
            g.panicked = true;
            self.panicked_word.store(true, Ordering::Release);
            g.panic_payload.get_or_insert(payload);
        }
        g.procs[pid].state = PState::Done;
        g.live -= 1;
        let clock = g.procs[pid].clock.get();
        g.horizon = g.horizon.max(clock);
        g.current = None;
        self.current_word.store(usize::MAX, Ordering::Relaxed);
        if g.panicked || g.live == 0 {
            return None;
        }
        let next = self.dispatch_next(&mut g);
        if next.is_some() {
            g.direct_handoffs += 1;
        }
        next
    }

    /// Run a process body to its end on the calling carrier context and
    /// classify how it ended. Every unwind stops here, so none crosses a
    /// coroutine's root frame or escapes a process thread.
    ///
    /// Inlined into each carrier's boot code: a frame here would sit under
    /// every frame of every process, and a parked process costs every
    /// byte of its frames (DESIGN §18, "Stack depth is a reported limit").
    #[inline(always)]
    fn run_body(
        self: &Arc<Engine>,
        pid: Pid,
        node: usize,
        clock: Arc<Clock>,
        body: impl FnOnce(&Proc),
    ) -> ProcExit {
        if self.panicked_word.load(Ordering::Acquire) {
            // Poisoned before its start event was dispatched (a process
            // thread woken by teardown): the body never runs.
            return ProcExit::Poisoned;
        }
        let proc_ = Proc {
            eng: Arc::clone(self),
            pid,
            node,
            clock,
            rng: Mutex::new(SimRng::for_process(self.seed, pid)),
            hb: self.hb.get().cloned(),
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&proc_))) {
            Ok(()) => ProcExit::Normal,
            Err(p) if p.is::<Poison>() => ProcExit::Poisoned,
            Err(p) => ProcExit::Panicked(p),
        }
    }

    // -- the carrier seam: resume, wait until resumed, tear down ------------

    /// Carrier operation 1: make `to` run — a process
    /// [`Engine::dispatch_next`] just dispatched, or `None` for the
    /// scheduler context inside `run()`. `from` is the calling context,
    /// same convention. No lock guard may be held.
    ///
    /// On `threads` this is a wake-up and returns at once. On `coroutine`
    /// resuming another context *is* suspending this one, once `to`'s
    /// frames are on its run stack — so the call returns only once `from`
    /// has been resumed.
    fn resume(&self, from: Option<Pid>, to: Option<Dispatched>) {
        match self.backend {
            ProcBackend::Threads => match to {
                Some((_, thread)) => thread.expect("registered by spawn_at").unpark(),
                None => self.sched_thread.get().expect("run() is driving").unpark(),
            },
            // SAFETY: only the driving thread runs engine code on this
            // carrier, and the caller holds no guard and no reference
            // into engine state across the switch.
            ProcBackend::Coroutine => unsafe { self.co_switch(from, to.map(|(pid, _)| pid)) },
        }
    }

    /// Carrier operation 2: return once `me` (`None` = the scheduler) has
    /// been resumed or the run is poisoned.
    fn wait_resumed(&self, me: Option<Pid>) {
        match self.backend {
            ProcBackend::Threads => match me {
                Some(pid) => {
                    // Seeing our own pid in the mirror is definitive (see
                    // `current_word`). A bounded spin first (multi-core
                    // hosts catch the next handoff without any futex
                    // traffic), then park; a stale `unpark` token from a
                    // wake caught mid-spin costs one immediate return.
                    let resumed = || {
                        self.current_word.load(Ordering::Acquire) == pid
                            || self.panicked_word.load(Ordering::Acquire)
                    };
                    for _ in 0..self.spin_limit {
                        if resumed() {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    while !resumed() {
                        std::thread::park();
                    }
                }
                None => loop {
                    // Checked under the lock: a successful handoff never
                    // exposes `current == None` outside it, so seeing it
                    // here means a dispatch genuinely found nothing.
                    let g = self.inner.lock();
                    if g.current.is_none() || g.panicked {
                        return;
                    }
                    drop(g);
                    std::thread::park();
                },
            },
            // `resume` returning was the wake.
            ProcBackend::Coroutine => {}
        }
    }

    /// Carrier operation 3: end every process still blocked and reclaim
    /// the carrier's resources. Called once from `run()`, after its loop,
    /// with no process running. On a clean completion nobody is left; on
    /// a poisoned run (`panicked_word` set) each survivor is resumed,
    /// unwinds by [`Poison`] — its destructors run — and exits through
    /// [`Engine::finish`].
    fn teardown(&self) {
        match self.backend {
            ProcBackend::Threads => {
                let mut g = self.inner.lock();
                let handles: Vec<_> = g.procs.iter_mut().filter_map(|p| p.thread.take()).collect();
                drop(g);
                for h in &handles {
                    h.thread().unpark();
                }
                for h in handles {
                    if let Err(payload) = h.join() {
                        // `run_body` stops every unwind of a process, so
                        // this is the engine's own bug: surface it.
                        self.inner.lock().panic_payload.get_or_insert(payload);
                    }
                }
            }
            // SAFETY: driving thread, no coroutine running, and the
            // poison (if any) is already published.
            ProcBackend::Coroutine => unsafe { self.co_teardown() },
        }
    }

    // -- coroutine carrier ---------------------------------------------------

    /// Register a coroutine for the next pid. Must be called under the
    /// `inner` lock (which serializes pre-run spawners) or from the
    /// driving thread mid-run (`spawn_child`).
    ///
    /// # Safety
    ///
    /// Caller must hold one of the serializations above; `pid` must be
    /// the slot index `register_proc` just assigned.
    unsafe fn co_register(&self, pid: Pid, boot: co::BootFn) {
        let pool = &mut *self.co.0.get();
        debug_assert_eq!(pool.slots.len(), pid, "coroutine pids must be dense");
        pool.slots.push(Some(Box::new(co::Co::new(pid, boot))));
    }

    /// `pid`'s context.
    ///
    /// # Safety
    ///
    /// Driving thread only, `pid` unfinished. The pointer stays valid
    /// while the process lives (contexts are boxed).
    unsafe fn co_ctx(&self, pid: Pid) -> *mut co::Co {
        let pool = &mut *self.co.0.get();
        pool.slots[pid].as_deref_mut().expect("live coroutine")
    }

    /// Save the context `from` and resume `to` (just dispatched: marked
    /// `Running`, clock lifted — or the scheduler). Returns when something
    /// later switches back to `from`.
    ///
    /// A coroutine puts a successor on another run stack in place itself
    /// and switches straight to it. One on its own run stack it cannot:
    /// it switches to the scheduler context, which does
    /// ([`Engine::co_resume`]).
    ///
    /// # Safety
    ///
    /// Driving thread only; no lock guard may be held and no reference
    /// into engine state may be live across the call.
    unsafe fn co_switch(&self, from: Option<Pid>, to: Option<Pid>) {
        debug_assert_ne!(from, to, "self-transfer is the lock-held fast path");
        let Some(pid) = from else {
            return self.co_resume(to.expect("the scheduler resumes a process"));
        };
        let pool = self.co.0.get();
        let from = self.co_ctx(pid);
        let to = match to.map(|next| self.co_ctx(next)) {
            Some(next) if !(*from).shares_stack(&*next) => {
                let carrier = (*pool).carrier.as_mut().expect("coroutine carrier");
                carrier.enter(next)
            }
            _ => {
                (*pool).handoff = to;
                (*pool).sched_sp
            }
        };
        co::switch(&mut (*from).sp, to);
    }

    /// From the scheduler context: put `pid`'s frames on its run stack and
    /// resume it, then serve the handoffs coroutines ask of the scheduler
    /// until one hands control back to `run()`.
    ///
    /// # Safety
    ///
    /// Driving thread, on the scheduler context, with no guard held.
    unsafe fn co_resume(&self, mut pid: Pid) {
        let pool = self.co.0.get();
        loop {
            let ctx = self.co_ctx(pid);
            let carrier = (*pool).carrier.as_mut().expect("coroutine carrier");
            let to = carrier.enter(ctx);
            co::switch(&mut (*pool).sched_sp, to);
            match (*pool).handoff.take() {
                Some(next) => pid = next,
                None => return,
            }
        }
    }

    /// The last switch of `pid`'s finished coroutine, which [`crate::co`]'s
    /// entry point performs once the boot closure's environment is gone:
    /// straight to `next` if it runs on another run stack, else to the
    /// scheduler context. The coroutine's frames are dead from here on,
    /// and its context is dropped now.
    ///
    /// # Safety
    ///
    /// Same contract as [`Engine::co_switch`], from `pid`'s own context.
    unsafe fn co_final_switch(&self, pid: Pid, next: Option<Dispatched>) -> co::FinalSwitch {
        let pool = &mut *self.co.0.get();
        let done = pool.slots[pid].take().expect("a coroutine finishes once");
        let carrier = pool.carrier.as_mut().expect("coroutine carrier");
        carrier.vacate(&done);
        let next = next.map(|(next, _)| next);
        let to = match next.and_then(|next| pool.slots[next].as_deref_mut()) {
            Some(next) if !done.shares_stack(next) => carrier.enter(next),
            _ => {
                pool.handoff = next;
                pool.sched_sp
            }
        };
        co::FinalSwitch {
            save: &mut pool.dead_sp,
            to,
        }
    }

    /// [`Engine::teardown`], coroutine carrier: poison-unwind every
    /// started-but-unfinished coroutine, then free all coroutine state
    /// and report how deep the run stacks got.
    ///
    /// # Safety
    ///
    /// Driving thread, with no coroutine currently running. On the
    /// unwind path `panicked_word` must already be set (the resumed
    /// coroutines unwind off it).
    unsafe fn co_teardown(&self) {
        loop {
            let pid = {
                let g = self.inner.lock();
                let pool = &*self.co.0.get();
                pool.slots.iter().enumerate().find_map(|(i, s)| match s {
                    Some(s) if s.started() && g.procs[i].state != PState::Done => Some(i),
                    _ => None,
                })
            };
            let Some(pid) = pid else { break };
            debug_assert!(
                self.panicked_word.load(Ordering::Acquire),
                "unfinished coroutine at teardown without poison"
            );
            // The coroutine resumes at its poison check, unwinds, and
            // its final switch comes straight back here.
            self.co_resume(pid);
        }
        let pool = &mut *self.co.0.get();
        pool.slots.clear();
        let carrier = pool.carrier.as_ref().expect("coroutine carrier");
        debug_assert_eq!(
            carrier.blocks_held(),
            0,
            "parked frames outlived their processes"
        );
        if let Some(m) = self.metrics.get() {
            // A host-side reading (it moves with the compiler, the build
            // profile and the backend), hence `real` in the name:
            // outside every deterministic snapshot.
            m.gauge("sim.co_stack_high_water_real_bytes")
                .set(carrier.high_water() as u64);
        }
    }

    /// Push the bookkeeping for a new process — slot, liveness, start
    /// event, HB registration (armed runs) and (coroutine backend) the
    /// coroutine slot — under one `inner` hold, and return
    /// the pid. The single hold is what serializes concurrent pre-run
    /// spawners, including their coroutine-pool pushes.
    fn register_proc(
        &self,
        name: &str,
        node: usize,
        clock: Arc<Clock>,
        boot: Option<co::BootFn>,
    ) -> Pid {
        let mut g = self.inner.lock();
        let pid = g.procs.len();
        if let Some(r) = self.hb.get() {
            r.register(pid, name);
        }
        let start = clock.get();
        g.procs.push(ProcSlot {
            name: name.to_string(),
            node,
            state: PState::Blocked,
            clock,
            timer_gen: 0,
            thread: None,
        });
        g.live += 1;
        g.push_wake(start, pid);
        if let Some(boot) = boot {
            // SAFETY: serialized by the `inner` hold above (pre-run
            // spawners) or by being the driving thread (`spawn_child`).
            unsafe { self.co_register(pid, boot) };
        }
        pid
    }
}

/// A handle to the simulation: spawn processes, run to completion.
pub struct Sim {
    eng: Arc<Engine>,
}

impl Sim {
    /// A deterministic virtual-time simulation on `machine`, on the
    /// default [`ProcBackend`] (see [`ProcBackend::default_backend`]),
    /// with no fault plan (see [`Sim::set_fault_plan`]).
    pub fn virtual_time(machine: Machine, seed: u64) -> Sim {
        Sim::virtual_time_with_backend(machine, seed, ProcBackend::default_backend())
    }

    /// [`Sim::virtual_time`] on an explicit process backend. A coroutine
    /// request on a platform without the runtime degrades to threads.
    ///
    /// Panics with [`Sim::try_virtual_time_with_backend`]'s error.
    pub fn virtual_time_with_backend(machine: Machine, seed: u64, backend: ProcBackend) -> Sim {
        Sim::try_virtual_time_with_backend(machine, seed, backend).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Sim::virtual_time_with_backend`], or the error that the
    /// coroutine carrier could not map its run stacks.
    pub fn try_virtual_time_with_backend(
        machine: Machine,
        seed: u64,
        backend: ProcBackend,
    ) -> Result<Sim, CarrierError> {
        Ok(Sim {
            eng: Arc::new(Engine::new(machine, seed, backend)?),
        })
    }

    /// The process backend actually in force (after platform fallback).
    pub fn backend(&self) -> ProcBackend {
        self.eng.backend
    }

    /// The machine this simulation models.
    pub fn machine(&self) -> &Machine {
        &self.eng.machine
    }

    /// Install a fault plan for this simulation (at most once; before the
    /// processes start exchanging messages). This is the only way a plan
    /// reaches a simulation. Returns `false` if one was already in place.
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) -> bool {
        self.eng.faults.set(plan).is_ok()
    }

    /// The fault plan in force, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.eng.faults.get().cloned()
    }

    /// Arm happens-before recording for this simulation: install its
    /// recorder (see [`crate::hb`]). Call before spawning processes so
    /// registration and events are complete.
    pub fn enable_check(&self) {
        self.eng.hb.get_or_init(crate::hb::recorder);
    }

    /// Observe this simulation into `metrics` (at most once; before
    /// processes start). Every layer of the run records into it through
    /// [`Proc::metrics`]. Returns `false` if one was already in place.
    pub fn set_metrics(&self, metrics: Arc<obs::Registry>) -> bool {
        self.eng.metrics.set(metrics).is_ok()
    }

    /// A handle for reading this simulation's happens-before verdict.
    /// Take it after [`Sim::enable_check`] and before [`Sim::run`]
    /// consumes the `Sim`; call [`crate::hb::CheckHandle::report`] after
    /// the run completes.
    pub fn check_handle(&self) -> crate::hb::CheckHandle {
        crate::hb::CheckHandle {
            recorder: self.eng.hb.get().cloned(),
        }
    }

    /// Wake events dispatched so far (a throughput metric for harnesses
    /// sizing their workloads).
    pub fn events_dispatched(&self) -> u64 {
        self.eng.inner.lock().dispatched
    }

    /// A read handle onto the engine's throughput counters that stays
    /// valid after [`Sim::run`] consumes the `Sim`. Benchmarks use it to
    /// compute events/sec without enabling the observability layer.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            eng: Arc::clone(&self.eng),
        }
    }

    /// Turn on dispatch recording: every dispatched wake event appends
    /// `(pid, clock-at-resumption)` to the returned log, in dispatch
    /// order. The log handle stays valid after [`Sim::run`] consumes the
    /// `Sim`; used by the dispatch-order equivalence tests to pin the
    /// scheduler's exact event ordering.
    pub fn record_dispatches(&self) -> DispatchLog {
        self.eng.inner.lock().dispatch_log = Some(Vec::new());
        DispatchLog {
            eng: Arc::clone(&self.eng),
        }
    }

    /// Spawn a process named `name` on `node`, starting at time `start`.
    /// Returns its pid.
    ///
    /// Panics if `node` is out of range for the machine.
    pub fn spawn_at(
        &self,
        name: impl Into<String>,
        node: usize,
        start: SimTime,
        f: impl FnOnce(&Proc) + Send + 'static,
    ) -> Pid {
        let name = name.into();
        assert!(
            node < self.eng.machine.nodes,
            "node {node} out of range for {} ({} nodes)",
            self.eng.machine.name,
            self.eng.machine.nodes
        );
        let eng = Arc::clone(&self.eng);
        // The process's clock: one cell, shared by its engine slot and
        // the `Proc` handle its body gets (see [`Clock`]).
        let clock = Clock::new(start);
        let proc_clock = Arc::clone(&clock);
        match self.eng.backend {
            ProcBackend::Coroutine => {
                // No thread, no handshake. The boot closure ends the
                // process, drops everything it owns (including its engine
                // reference — `run()` keeps the engine alive), and
                // returns the final switch for the coroutine entry point
                // to perform from an owning-nothing frame.
                let body: Box<dyn FnOnce(&Proc) + Send> = Box::new(f);
                let boot: co::BootFn = Box::new(move || {
                    // First dispatch: we are the current process by
                    // definition, which is how the closure learns its pid
                    // (it is built before the pid is assigned).
                    let pid = eng
                        .inner
                        .lock()
                        .current
                        .expect("started coroutine is current");
                    let exit = eng.run_body(pid, node, proc_clock, body);
                    let eng_ptr: *const Engine = Arc::as_ptr(&eng);
                    drop(eng);
                    // SAFETY: a coroutine only finishes while `run()`
                    // drives it, and `run()` holds a strong engine
                    // reference; this is the driving thread with no guard
                    // held.
                    unsafe {
                        let next = (*eng_ptr).finish(pid, exit);
                        (*eng_ptr).co_final_switch(pid, next)
                    }
                });
                self.eng.register_proc(&name, node, clock, Some(boot))
            }
            ProcBackend::Threads => {
                let pid = self.eng.register_proc(&name, node, clock, None);
                let handle = std::thread::Builder::new()
                    .name(format!("sim-{name}"))
                    .spawn(move || {
                        // Wait to be dispatched our start event.
                        eng.wait_resumed(Some(pid));
                        let exit = eng.run_body(pid, node, proc_clock, f);
                        let next = eng.finish(pid, exit);
                        eng.resume(Some(pid), next);
                    })
                    .expect("spawn simulation thread");
                // Register the wake handle before any dispatch can pick
                // this pid: the spawner (the running process, or the main
                // thread before `run()`) does not yield between the slot
                // push above and here, so no dispatcher can race a
                // still-missing handle.
                self.eng.inner.lock().procs[pid].thread = Some(handle);
                pid
            }
        }
    }

    /// Spawn at time zero.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        node: usize,
        f: impl FnOnce(&Proc) + Send + 'static,
    ) -> Pid {
        self.spawn_at(name, node, SimTime::ZERO, f)
    }

    /// Run the simulation until all processes finish. Returns the makespan
    /// (latest clock reached by any process).
    ///
    /// The calling thread is the scheduler context, and it is off the
    /// per-event path: it performs the startup dispatch and is resumed
    /// again only when a dispatch finds nothing runnable (completion or
    /// the deadlock verdict) or a process panicked. On the coroutine
    /// carrier it is also the thread every process runs on.
    ///
    /// Panics — after unwinding every blocked process — if the simulation
    /// deadlocks (live processes remain but no wake event is pending), and
    /// re-raises the first panic of a process body.
    pub fn run(self) -> SimTime {
        let eng = &*self.eng;
        let _ = eng.sched_thread.set(std::thread::current());
        let deadlock = loop {
            let mut g = eng.inner.lock();
            if g.panicked || g.live == 0 {
                break None;
            }
            debug_assert!(
                g.current.is_none(),
                "scheduler resumed while a process is running"
            );
            match eng.dispatch_next(&mut g) {
                Some(next) => {
                    g.sched_fallbacks += 1;
                    drop(g);
                    eng.resume(None, Some(next));
                    eng.wait_resumed(None);
                }
                None => {
                    // live > 0 but no event: deadlock. Name who is stuck
                    // *before* teardown marks them done.
                    let stuck: Vec<String> = g
                        .procs
                        .iter()
                        .filter(|p| p.state == PState::Blocked)
                        .map(|p| format!("{} (node {}, t={})", p.name, p.node, p.clock.get()))
                        .collect();
                    g.panicked = true;
                    eng.panicked_word.store(true, Ordering::Release);
                    break Some(format!(
                        "simulation deadlock: no pending events but {} process(es) blocked: {}",
                        stuck.len(),
                        stuck.join(", ")
                    ));
                }
            }
        };
        eng.teardown();
        if let Some(verdict) = deadlock {
            panic!("{verdict}");
        }
        let mut g = eng.inner.lock();
        if let Some(payload) = g.panic_payload.take() {
            drop(g);
            // Re-raise the original process panic so callers (and
            // #[should_panic] tests) see the real message.
            std::panic::resume_unwind(payload);
        }
        if g.panicked {
            drop(g);
            panic!("a simulated process panicked");
        }
        Self::flush_obs(eng, &g);
        g.horizon
    }

    /// Flush the per-run throughput counters and gauges into the run's
    /// registry. Called once at the end of a successful run, under the
    /// `inner` lock.
    fn flush_obs(eng: &Engine, g: &EngineInner) {
        if let Some(m) = eng.metrics.get() {
            // Flushed once per run, so nothing touches the
            // per-event hot path and nothing advances virtual time.
            m.counter("sim.events_dispatched").add(g.dispatched);
            m.counter("sim.context_switches").add(g.ctx_switches);
            m.counter("sim.direct_handoffs").add(g.direct_handoffs);
            m.counter("sim.sched_fallbacks").add(g.sched_fallbacks);
            m.counter("sim.timers_cancelled_eagerly")
                .add(g.timers_cancelled);
            m.gauge("sim.queue_depth_high_water").set(g.queue_hw as u64);
            m.gauge("sim.virtual_horizon_ns").set(g.horizon.as_nanos());
            m.gauge("sim.real_elapsed_ns")
                .set(eng.epoch.elapsed().as_nanos() as u64);
        }
    }
}

/// A read-only handle onto a simulation's throughput counters, usable
/// after [`Sim::run`] has consumed the `Sim` (obtain with [`Sim::stats`]
/// before the run).
pub struct EngineStats {
    eng: Arc<Engine>,
}

impl EngineStats {
    /// Total wake/timer events dispatched.
    pub fn events_dispatched(&self) -> u64 {
        self.eng.inner.lock().dispatched
    }

    /// The furthest virtual time any process reached.
    pub fn horizon(&self) -> SimTime {
        self.eng.inner.lock().horizon
    }

    /// Dispatches performed as a direct process-to-process handoff
    /// (one OS-thread switch each).
    pub fn direct_handoffs(&self) -> u64 {
        self.eng.inner.lock().direct_handoffs
    }

    /// Dispatches routed through the scheduler thread (two OS-thread
    /// switches each).
    pub fn sched_fallbacks(&self) -> u64 {
        self.eng.inner.lock().sched_fallbacks
    }

    /// Cancelled timer entries removed eagerly at cancellation sites.
    pub fn timers_cancelled_eagerly(&self) -> u64 {
        self.eng.inner.lock().timers_cancelled
    }

    /// Processes spawned so far, finished ones included.
    pub fn processes(&self) -> usize {
        self.eng.inner.lock().procs.len()
    }
}

/// A recorded dispatch sequence (see [`Sim::record_dispatches`]).
pub struct DispatchLog {
    eng: Arc<Engine>,
}

impl DispatchLog {
    /// The `(pid, clock-at-resumption)` pairs, in dispatch order.
    pub fn entries(&self) -> Vec<(Pid, SimTime)> {
        self.eng
            .inner
            .lock()
            .dispatch_log
            .clone()
            .unwrap_or_default()
    }
}

/// Per-process handle passed to each process body.
pub struct Proc {
    eng: Arc<Engine>,
    pid: Pid,
    node: usize,
    /// This process's clock, shared with its engine slot (see [`Clock`]).
    clock: Arc<Clock>,
    rng: Mutex<SimRng>,
    /// The run's happens-before recorder, if armed: every recording site
    /// is one branch on this.
    hb: Option<Arc<dyn crate::hb::Recorder>>,
}

impl Proc {
    /// This process's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The node this process runs on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// This process's name.
    pub fn name(&self) -> String {
        self.eng.inner.lock().procs[self.pid].name.clone()
    }

    /// The machine model.
    pub fn machine(&self) -> &Machine {
        &self.eng.machine
    }

    /// Current local time: a load of this process's own clock. Takes no
    /// lock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock.get()
    }

    /// Charge `dt` of simulated work to this process's clock.
    ///
    /// The charge is applied in place — no rescheduling occurs, so a long
    /// `advance` does not release the CPU model-wise (processes are
    /// assumed pinned to dedicated CPUs, as on the paper's batch system).
    ///
    /// Takes no lock: a running process is its clock's only writer. A
    /// fault plan's node slowdown still scales the charge.
    #[inline]
    pub fn advance(&self, dt: SimTime) {
        if dt == SimTime::ZERO {
            return;
        }
        debug_assert_eq!(
            self.eng.current_word.load(Ordering::Relaxed),
            self.pid,
            "charge by non-running process"
        );
        let dt = match self.eng.faults.get() {
            Some(plan) => plan.scale_work(self.node, dt),
            None => dt,
        };
        self.clock.set(self.clock.get() + dt);
    }

    /// Block until another process (or a primitive) schedules a wake for
    /// this pid. Returns the resumption time.
    pub(crate) fn block(&self) -> SimTime {
        self.eng.yield_and_wait(self.pid);
        self.clock.get()
    }

    /// Like [`Proc::block`], but also arm a deadline timer: if nothing
    /// else wakes this process first, the scheduler resumes it at
    /// `deadline`. The timer is cancelled on resumption either way, and a
    /// timer that never fires leaves the event-queue metrics untouched.
    pub(crate) fn block_until_deadline(&self, deadline: SimTime) -> SimTime {
        self.eng.schedule_timer(self.pid, deadline.max(self.now()));
        let t = self.block();
        self.eng.cancel_timers(self.pid);
        t
    }

    /// The fault plan in force, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.eng.faults.get().cloned()
    }

    /// Does this process run under a fault plan that can inject something
    /// (installed and not [inert](FaultPlan::is_inert))? Without one, no
    /// message can be lost or duplicated.
    pub fn live_faults(&self) -> bool {
        self.eng.faults.get().is_some_and(|plan| !plan.is_inert())
    }

    /// The run's metrics registry, if [`Sim::set_metrics`] gave it one:
    /// every metric site of every layer is one branch on this.
    #[inline]
    pub fn metrics(&self) -> Option<&Arc<obs::Registry>> {
        self.eng.metrics.get()
    }

    /// This run's happens-before recorder, if [`Sim::enable_check`]
    /// armed it.
    #[inline(always)]
    pub(crate) fn recorder(&self) -> Option<&dyn crate::hb::Recorder> {
        self.hb.as_deref()
    }

    /// Schedule a wake for this process at absolute time `at`, then block.
    /// Used to model timed waits (polling intervals, timeouts).
    pub fn sleep_until(&self, at: SimTime) {
        self.eng.schedule(self.pid, at.max(self.now()));
        self.block();
    }

    /// Let every process with a wake due at or before this process's clock
    /// run first, then carry on at the same time. With nothing due this is
    /// a no-op: no dispatch, no switch. Virtual time moves for nobody — a
    /// process due now would run at this time anyway, only later in the
    /// host's order; what the yield buys is that its work (an ack sent, a
    /// message consumed) is done before this process goes on.
    pub fn yield_now(&self) {
        let now = self.now();
        if self.eng.due_by(now) {
            self.sleep_until(now);
        }
    }

    /// Sleep for a relative duration.
    pub fn sleep(&self, dt: SimTime) {
        let t = self.now() + dt;
        self.sleep_until(t);
    }

    /// Schedule a wake for *another* process at absolute time `at`.
    pub(crate) fn wake_other(&self, pid: Pid, at: SimTime) {
        self.eng.schedule(pid, at);
    }

    /// Raise this process's own clock to at least `t` (the last arriver
    /// of a barrier leaves at the release time).
    pub(crate) fn lift_clock(&self, t: SimTime) {
        self.clock.lift(t);
    }

    /// Spawn a child process starting at this process's current time.
    pub fn spawn_child(
        &self,
        name: impl Into<String>,
        node: usize,
        f: impl FnOnce(&Proc) + Send + 'static,
    ) -> Pid {
        let sim = Sim {
            eng: Arc::clone(&self.eng),
        };
        let start = self.now();
        sim.spawn_at(name, node, start, f)
    }

    /// Draw from this process's deterministic RNG.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SimRng) -> R) -> R {
        f(&mut self.rng.lock())
    }

    /// Uniform random duration in `[0, max]` from the process RNG
    /// (used for daemon jitter).
    pub fn jitter(&self, max: SimTime) -> SimTime {
        if max == SimTime::ZERO {
            return SimTime::ZERO;
        }
        self.with_rng(|r| SimTime::from_nanos(r.gen_range_u64(0..=max.as_nanos())))
    }
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("pid", &self.pid)
            .field("node", &self.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::test_machine()
    }

    #[test]
    fn backend_parse_accepts_the_two_carriers_and_names_the_variable_otherwise() {
        assert_eq!(ProcBackend::parse("threads"), Ok(ProcBackend::Threads));
        assert_eq!(ProcBackend::parse("coroutine"), Ok(ProcBackend::Coroutine));
        for bad in ["thread", "Threads", "coroutines", "", " threads"] {
            let err = ProcBackend::parse(bad).expect_err(bad);
            assert!(err.starts_with("DYNPROF_PROC_BACKEND="), "{err}");
            assert!(err.contains("`threads` or `coroutine`"), "{err}");
        }
    }

    #[test]
    fn single_process_advances_clock() {
        let sim = Sim::virtual_time(machine(), 1);
        sim.spawn("p0", 0, |p| {
            assert_eq!(p.now(), SimTime::ZERO);
            p.advance(SimTime::from_micros(5));
            assert_eq!(p.now(), SimTime::from_micros(5));
            p.advance(SimTime::from_micros(3));
            assert_eq!(p.now(), SimTime::from_micros(8));
        });
        assert_eq!(sim.run(), SimTime::from_micros(8));
    }

    #[test]
    fn makespan_is_max_over_processes() {
        let sim = Sim::virtual_time(machine(), 1);
        for i in 0..4 {
            sim.spawn(format!("p{i}"), 0, move |p| {
                p.advance(SimTime::from_micros(10 * (i as u64 + 1)));
            });
        }
        assert_eq!(sim.run(), SimTime::from_micros(40));
    }

    #[test]
    fn sleep_until_wakes_at_target() {
        let sim = Sim::virtual_time(machine(), 1);
        sim.spawn("sleeper", 0, |p| {
            p.sleep_until(SimTime::from_millis(2));
            assert_eq!(p.now(), SimTime::from_millis(2));
            // Sleeping until the past is a no-op in time.
            p.sleep_until(SimTime::from_millis(1));
            assert_eq!(p.now(), SimTime::from_millis(2));
        });
        assert_eq!(sim.run(), SimTime::from_millis(2));
    }

    #[test]
    fn cross_process_wake() {
        // p1 blocks; p0 wakes it at an explicit later time.
        let sim = Sim::virtual_time(machine(), 1);
        let _p0 = sim.spawn("waker", 0, |p| {
            p.advance(SimTime::from_micros(50));
            p.wake_other(1, SimTime::from_micros(70));
        });
        sim.spawn("waitee", 0, |p| {
            let t = p.block();
            assert_eq!(t, SimTime::from_micros(70));
            assert_eq!(p.now(), SimTime::from_micros(70));
        });
        assert_eq!(sim.run(), SimTime::from_micros(70));
    }

    // -- clock ownership, on both backends ---------------------------------

    /// Run `f` against a fresh simulation on each process backend.
    fn on_both_backends(mut f: impl FnMut(Sim)) {
        for backend in [ProcBackend::Coroutine, ProcBackend::Threads] {
            f(Sim::virtual_time_with_backend(machine(), 1, backend));
        }
    }

    #[test]
    fn advance_applies_the_fault_plans_slowdown() {
        use crate::fault::{FaultProfile, FaultSpec};
        on_both_backends(|sim| {
            let spec = FaultSpec {
                seed: 1,
                profile_name: "slow-all".into(),
                profile: FaultProfile {
                    slow_node_ppm: 1_000_000,
                    slowdown_permille: 2000,
                    ..FaultProfile::none()
                },
            };
            assert!(sim.set_fault_plan(FaultPlan::new(&spec, sim.machine())));
            sim.spawn("slowed", 0, |p| {
                p.advance(SimTime::from_micros(5));
                p.advance(SimTime::from_micros(3));
                assert_eq!(p.now(), SimTime::from_micros(16), "2 x (5 + 3)");
            });
            assert_eq!(sim.run(), SimTime::from_micros(16));
        });
    }

    #[test]
    fn a_sender_that_ran_meanwhile_lifts_the_blocked_receivers_clock() {
        on_both_backends(|sim| {
            let ch: Arc<crate::sync::SimChannel<u32>> =
                Arc::new(crate::sync::SimChannel::new_fifo());
            let rx = Arc::clone(&ch);
            sim.spawn("receiver", 0, move |p| {
                p.advance(SimTime::from_micros(2));
                assert_eq!(rx.recv(p), 9);
                // Blocked at 2 us; the message left at 50 us and took 7.
                assert_eq!(p.now(), SimTime::from_micros(57));
                p.advance(SimTime::from_micros(1));
                assert_eq!(p.now(), SimTime::from_micros(58));
            });
            sim.spawn("sender", 1, move |p| {
                p.advance(SimTime::from_micros(50));
                ch.send(p, 9, SimTime::from_micros(7));
                assert_eq!(
                    p.now(),
                    SimTime::from_micros(50),
                    "sending is not receiving"
                );
            });
            assert_eq!(sim.run(), SimTime::from_micros(58));
        });
    }

    #[test]
    fn spawn_child_starts_at_parent_time() {
        on_both_backends(|sim| {
            sim.spawn("parent", 0, |p| {
                p.advance(SimTime::from_millis(1));
                p.spawn_child("child", 1, |c| {
                    assert_eq!(c.now(), SimTime::from_millis(1));
                    c.advance(SimTime::from_millis(2));
                });
                // The child's clock is its own: charging it moved nothing here.
                p.sleep(SimTime::from_millis(5));
                assert_eq!(p.now(), SimTime::from_millis(6));
            });
            assert_eq!(sim.run(), SimTime::from_millis(6));
        });
    }

    /// A second handle on process `pid`, as only code outside the engine's
    /// rules could come by one: a process's own handle lives in its
    /// frames, which are not where they were while another process runs.
    #[cfg(debug_assertions)]
    fn forged_handle(p: &Proc, pid: Pid) -> Proc {
        let g = p.eng.inner.lock();
        Proc {
            eng: Arc::clone(&p.eng),
            pid,
            node: g.procs[pid].node,
            clock: Arc::clone(&g.procs[pid].clock),
            rng: Mutex::new(SimRng::for_process(p.eng.seed, pid)),
            hb: None,
        }
    }

    /// A process charging a clock that is not its own to charge: the
    /// parent blocks, and the child, now the running process, charges
    /// through a handle on the parent.
    #[cfg(debug_assertions)]
    fn charge_through_a_blocked_processs_handle(backend: ProcBackend) {
        let sim = Sim::virtual_time_with_backend(machine(), 1, backend);
        sim.spawn("parent", 0, |p| {
            let parent = p.pid();
            p.spawn_child("child", 0, move |c| {
                forged_handle(c, parent).advance(SimTime::from_micros(1));
            });
            p.sleep(SimTime::from_millis(1));
        });
        sim.run();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "charge by non-running process")]
    fn charge_by_non_running_process_is_caught_coroutine() {
        charge_through_a_blocked_processs_handle(ProcBackend::Coroutine);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "charge by non-running process")]
    fn charge_by_non_running_process_is_caught_threads() {
        charge_through_a_blocked_processs_handle(ProcBackend::Threads);
    }

    /// Build the same failing simulation on each carrier and return the
    /// message `Sim::run` panics with — which must not depend on the
    /// carrier.
    fn verdict_on_both_backends(build: impl Fn(&Sim)) -> String {
        let mut verdicts = Vec::new();
        on_both_backends(|sim| {
            build(&sim);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
                .expect_err("the run must fail");
            verdicts.push(match payload.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p
                    .downcast_ref::<&str>()
                    .expect("string payload")
                    .to_string(),
            });
        });
        assert_eq!(verdicts[0], verdicts[1], "coroutine vs threads");
        verdicts.swap_remove(0)
    }

    #[test]
    fn deadlock_is_detected() {
        let verdict = verdict_on_both_backends(|sim| {
            sim.spawn("stuck", 0, |p| {
                p.block(); // nobody will ever wake us
            });
        });
        assert_eq!(
            verdict,
            "simulation deadlock: no pending events but 1 process(es) blocked: \
             stuck (node 0, t=0ns)"
        );
    }

    #[test]
    fn deadlock_teardown_is_quiet_and_runs_destructors() {
        // Every blocked process is unwound (its destructors run) by the
        // quiet poison payload: none of them reaches the panic hook, on
        // either carrier. The hook is process-global, so count only the
        // hook calls made from this test's uniquely named processes.
        use std::sync::atomic::AtomicUsize;
        static HOOKED: AtomicUsize = AtomicUsize::new(0);
        const NAME: &str = "quietly-stuck";
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current()
                .name()
                .is_some_and(|n| n.contains(NAME))
            {
                HOOKED.fetch_add(1, Ordering::Relaxed);
            }
            prev(info);
        }));
        struct Dropped(Arc<AtomicUsize>);
        impl Drop for Dropped {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let verdict = verdict_on_both_backends(|sim| {
            for i in 0..3 {
                let d = Dropped(Arc::clone(&dropped));
                sim.spawn(format!("{NAME}{i}"), 0, move |p| {
                    let _d = d;
                    p.block();
                });
            }
        });
        assert!(verdict.contains("3 process(es) blocked"), "{verdict}");
        assert_eq!(
            dropped.load(Ordering::Relaxed),
            6,
            "3 processes x 2 carriers"
        );
        assert_eq!(HOOKED.load(Ordering::Relaxed), 0, "poison is not a panic");
    }

    #[test]
    fn process_panic_propagates() {
        let verdict = verdict_on_both_backends(|sim| {
            sim.spawn("bad", 0, |_| panic!("boom"));
            sim.spawn("other", 0, |p| {
                p.sleep(SimTime::from_secs(1));
            });
        });
        assert_eq!(verdict, "boom");
    }

    #[test]
    fn root_panic_is_not_masked_by_a_process_that_never_started() {
        // Regression: the threads run loop told cascade panics from the
        // root one by string match and missed the message of a process
        // torn down before its start event, so `run()` re-raised that
        // teardown message instead of "boom".
        let verdict = verdict_on_both_backends(|sim| {
            sim.spawn_at("late", 0, SimTime::from_secs(1), |_| {});
            sim.spawn("bad", 0, |_| panic!("boom"));
        });
        assert_eq!(verdict, "boom");
    }

    #[test]
    fn proc_name_and_event_metric() {
        let sim = Sim::virtual_time(machine(), 1);
        sim.spawn("alpha", 0, |p| {
            assert_eq!(p.name(), "alpha");
            p.sleep(SimTime::from_micros(1));
            p.sleep(SimTime::from_micros(1));
        });
        let events_before = sim.events_dispatched();
        assert_eq!(events_before, 0);
        let eng = Arc::clone(&sim.eng);
        sim.run();
        // start + two sleeps = 3 dispatches.
        assert_eq!(eng.inner.lock().dispatched, 3);
    }

    #[test]
    fn self_dispatch_costs_no_handoff() {
        // A lone process's timed sleeps pop its own wake events: zero
        // OS-thread handoffs; the only fallback is the startup dispatch.
        let sim = Sim::virtual_time(machine(), 1);
        sim.spawn("solo", 0, |p| {
            p.sleep(SimTime::from_micros(1));
            p.sleep(SimTime::from_micros(1));
        });
        let stats = sim.stats();
        sim.run();
        assert_eq!(stats.events_dispatched(), 3);
        assert_eq!(stats.sched_fallbacks(), 1, "startup dispatch only");
        assert_eq!(stats.direct_handoffs(), 0, "self-dispatches are free");
    }

    #[test]
    fn yield_now_runs_what_is_due_first_and_costs_nothing_otherwise() {
        on_both_backends(|sim| {
            let us = SimTime::from_micros;
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let (mine, theirs) = (Arc::clone(&log), Arc::clone(&log));
            let stats = sim.stats();
            sim.spawn("yielder", 0, move |p| {
                p.advance(us(10));
                // "other" has not started, and then sleeps to 5 us: both
                // wakes are due by 10 us, so both run before this returns.
                p.yield_now();
                assert_eq!(p.now(), us(10), "a yield moves no clock");
                mine.lock().unwrap().push(("yielder", p.now()));
                // Its next wake is at 50 us: nothing is due, no dispatch.
                let before = stats.events_dispatched();
                p.yield_now();
                assert_eq!(stats.events_dispatched(), before);
            });
            sim.spawn("other", 0, move |p| {
                p.sleep_until(us(5));
                theirs.lock().unwrap().push(("other", p.now()));
                p.sleep_until(us(50));
            });
            assert_eq!(sim.run(), us(50));
            let log = log.lock().unwrap();
            assert_eq!(*log, [("other", us(5)), ("yielder", us(10))]);
        });
    }

    #[test]
    fn pingpong_handoffs_drop_at_least_40_percent_vs_hub_and_spoke() {
        // Hub-and-spoke paid two OS-thread switches per dispatched event
        // (yielder -> scheduler -> successor). Direct handoff must cut
        // the total switch count by at least 40% on the ping-pong
        // workload; by design it achieves ~50% (one per event).
        let sim = Sim::virtual_time(machine(), 1);
        let ch_a: Arc<crate::sync::SimChannel<u32>> = Arc::new(crate::sync::SimChannel::new_fifo());
        let ch_b: Arc<crate::sync::SimChannel<u32>> = Arc::new(crate::sync::SimChannel::new_fifo());
        let (a1, b1) = (Arc::clone(&ch_a), Arc::clone(&ch_b));
        sim.spawn("ping", 0, move |p| {
            for i in 0..200u32 {
                a1.send(p, i, SimTime::from_micros(1));
                let _ = b1.recv(p);
            }
        });
        let (a2, b2) = (ch_a, ch_b);
        sim.spawn("pong", 1, move |p| {
            for _ in 0..200u32 {
                let v = a2.recv(p);
                b2.send(p, v, SimTime::from_micros(1));
            }
        });
        let stats = sim.stats();
        sim.run();
        let events = stats.events_dispatched();
        let switches = stats.direct_handoffs() + 2 * stats.sched_fallbacks();
        let hub_and_spoke = 2 * events;
        assert!(
            switches * 10 <= hub_and_spoke * 6,
            "handoff reduction below 40%: {switches} switches vs hub-and-spoke {hub_and_spoke}"
        );
        assert_eq!(stats.sched_fallbacks(), 1, "startup dispatch only");
    }

    #[test]
    fn cancelled_timers_are_removed_eagerly() {
        // A deadline wait whose wake beats the deadline leaves an armed
        // timer behind; cancellation must remove it from the heap at the
        // cancellation site, not leave it to be skipped at pop.
        let sim = Sim::virtual_time(machine(), 1);
        sim.spawn("waker", 0, |p| {
            p.advance(SimTime::from_micros(5));
            p.wake_other(1, SimTime::from_micros(5));
        });
        sim.spawn("waitee", 0, |p| {
            let t = p.block_until_deadline(SimTime::from_micros(100));
            assert_eq!(t, SimTime::from_micros(5), "wake must beat deadline");
        });
        let stats = sim.stats();
        sim.run();
        assert_eq!(stats.timers_cancelled_eagerly(), 1);
    }

    #[test]
    fn dispatch_order_across_many_nodes_is_the_time_then_scheduling_order_sort() {
        // One process per node on a 72-node machine. Every wake is logged
        // as it is scheduled (one process runs at a time, so the log order
        // is the scheduling order); since no wake is ever scheduled before
        // the time being dispatched, the dispatch sequence must be exactly
        // the log sorted by time, ties in scheduling order. Roles by
        // `i % 4`: 0 sleeps to a shared instant; 1 schedules its own wake
        // and arms a deadline it then cancels; 2 sleeps to a staggered
        // instant and wakes its neighbour; 3 only waits for that wake.
        const N: usize = 72;
        const ROUNDS: u64 = 5;
        let ns = SimTime::from_nanos;
        let machine = Machine {
            nodes: N,
            ..Machine::test_machine()
        };
        for backend in [ProcBackend::Coroutine, ProcBackend::Threads] {
            let sim = Sim::virtual_time_with_backend(machine.clone(), 1, backend);
            let dispatches = sim.record_dispatches();
            let stats = sim.stats();
            let log: Arc<Mutex<Vec<(SimTime, Pid)>>> = Arc::new(Mutex::new(Vec::new()));
            for i in 0..N {
                let start = if i % 3 == 0 { 0 } else { (N - i) as u64 * 7 };
                log.lock().push((ns(start), i));
                let log = Arc::clone(&log);
                sim.spawn_at(format!("n{i}"), i, ns(start), move |p| {
                    let stagger = (i as u64 * 37) % 101;
                    for r in 0..ROUNDS {
                        let base = (r + 1) * 1000;
                        let at = match (i % 4, r % 2) {
                            (0, _) | (1, 0) => ns(base),
                            _ => ns(base + stagger),
                        };
                        p.advance(ns(i as u64 % 5));
                        match i % 4 {
                            0 | 2 => {
                                log.lock().push((at, i));
                                p.sleep_until(at);
                            }
                            1 => {
                                log.lock().push((at, i));
                                p.eng.schedule(i, at);
                                p.block_until_deadline(at + ns(400));
                            }
                            _ => {
                                p.block();
                            }
                        }
                        if i % 4 == 2 {
                            let wake = p.now() + ns(50 + (i as u64 % 7) * 3);
                            log.lock().push((wake, i + 1));
                            p.wake_other(i + 1, wake);
                        }
                    }
                });
            }
            sim.run();
            let mut expected = log.lock().clone();
            expected.sort_by_key(|&(at, _)| at);
            let expected: Vec<(Pid, SimTime)> =
                expected.into_iter().map(|(at, pid)| (pid, at)).collect();
            assert_eq!(dispatches.entries(), expected, "{backend:?}");
            assert_eq!(stats.events_dispatched(), expected.len() as u64);
            assert_eq!(
                stats.timers_cancelled_eagerly(),
                (N / 4) as u64 * ROUNDS,
                "{backend:?}: every armed deadline was cancelled"
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_interleaving() {
        // Record the order of wakes across two identical runs.
        fn trace(seed: u64) -> Vec<(usize, u64)> {
            let sim = Sim::virtual_time(Machine::test_machine(), seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..8usize {
                let log = Arc::clone(&log);
                sim.spawn(format!("p{i}"), i % 4, move |p| {
                    for _ in 0..5 {
                        let d = p.jitter(SimTime::from_micros(100));
                        p.sleep(d + SimTime::from_nanos(1));
                        log.lock().push((i, p.now().as_nanos()));
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43));
    }
}
