//! The OpenMP runtime: persistent thread team, fork-join parallel
//! regions, and the intra-team synchronization constructs.
//!
//! Worker threads are simulated processes on the *same node* as the
//! master (OpenMP is restricted to one shared-memory node — the reason
//! Umt98 tops out at 8 CPUs in the paper). Workers live for the whole
//! runtime lifetime and pick up region work from per-worker queues, so a
//! program with thousands of parallel regions does not spawn thousands of
//! threads.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_sim::sync::{SimBarrier, SimQueue};
use dynprof_sim::{Proc, SimTime};

use crate::hooks::{RegionHooks, RegionId};
use crate::schedule::Schedule;

/// Base cost of forking a team (master side).
pub const FORK_BASE: SimTime = SimTime::from_nanos(1_200);
/// Additional fork cost per team thread.
pub const FORK_PER_THREAD: SimTime = SimTime::from_nanos(300);
/// Cost of one team barrier episode (also charged at region join).
pub const TEAM_BARRIER_COST: SimTime = SimTime::from_nanos(900);
/// Cost of acquiring a `critical` section lock.
pub const CRITICAL_COST: SimTime = SimTime::from_nanos(300);
/// Cost of claiming one dynamically-scheduled chunk.
pub const DYN_CHUNK_COST: SimTime = SimTime::from_nanos(150);

/// Erased region body: `(tid, worker_proc)`.
///
/// SAFETY CONTRACT: the pointee lives on the master's stack for the
/// duration of the region. The runtime's join barrier guarantees every
/// worker has *returned* from the call before the master's `parallel`
/// returns and the closure is dropped. Workers must not retain the
/// pointer past the call.
struct ErasedBody(*const (dyn Fn(usize, &Proc) + Sync));
// SAFETY: the pointee is Sync (shared execution is the point) and the
// lifetime is enforced by the join barrier as described above.
unsafe impl Send for ErasedBody {}

enum WorkerJob {
    Region(ErasedBody),
    Shutdown,
}

/// Shared state of one team execution (lives on the master's stack).
pub struct TeamShared {
    nthreads: usize,
    barrier: SimBarrier,
    critical: Mutex<()>,
    single_done: Mutex<u64>,
}

impl TeamShared {
    fn new(nthreads: usize) -> TeamShared {
        TeamShared {
            nthreads,
            barrier: SimBarrier::new(nthreads, TEAM_BARRIER_COST),
            critical: Mutex::new(()),
            single_done: Mutex::new(0),
        }
    }
}

/// Per-thread view of an executing parallel region.
pub struct RegionCtx<'a> {
    /// This thread's id within the team (0 = master).
    pub tid: usize,
    /// The executing simulated process (master's or a worker's).
    pub proc: &'a Proc,
    team: &'a TeamShared,
    singles_seen: Cell<u64>,
}

impl<'a> RegionCtx<'a> {
    /// Team size.
    pub fn nthreads(&self) -> usize {
        self.team.nthreads
    }

    /// `#pragma omp barrier`.
    pub fn barrier(&self) {
        self.team.barrier.wait(self.proc);
    }

    /// `#pragma omp critical`: run `f` under the team's critical lock.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        self.proc.advance(CRITICAL_COST);
        let _g = self.team.critical.lock();
        f()
    }

    /// `#pragma omp single`: exactly one thread (the first to arrive)
    /// runs `f`; all threads then synchronize at an implicit barrier.
    pub fn single(&self, f: impl FnOnce()) {
        let my_instance = self.singles_seen.get() + 1;
        self.singles_seen.set(my_instance);
        {
            let mut done = self.team.single_done.lock();
            if *done < my_instance {
                *done = my_instance;
                drop(done);
                f();
            }
        }
        self.barrier();
    }

    fn claim_pause(&self) {
        self.yield_point();
    }

    /// A cooperative scheduling point: charges the claim cost and yields,
    /// so team threads interleave in virtual-time order (shared-cursor
    /// constructs are unfair without it).
    pub fn yield_point(&self) {
        self.proc.sleep(DYN_CHUNK_COST);
    }

    /// `#pragma omp master`: only thread 0 runs `f`, no synchronization.
    pub fn master(&self, f: impl FnOnce()) {
        if self.tid == 0 {
            f();
        }
    }

    /// Worksharing loop over `range` with the given schedule; `body`
    /// receives contiguous chunks. Ends with the loop's implicit barrier.
    pub fn for_each(
        &self,
        range: Range<usize>,
        sched: Schedule,
        shared: &LoopShared,
        mut body: impl FnMut(Range<usize>),
    ) {
        match sched {
            Schedule::Static { chunk } => {
                for c in sched.static_chunks(range.clone(), self.tid, self.nthreads()) {
                    body(c);
                }
                let _ = chunk;
            }
            Schedule::Dynamic { chunk } => loop {
                // Claiming a chunk must *yield* in virtual mode so that
                // team threads interleave in virtual-time order — without
                // the yield, whichever thread runs first on the host would
                // drain the shared cursor and the loop would serialize.
                self.claim_pause();
                let start = shared.next.fetch_add(chunk, Ordering::Relaxed);
                if start >= range.end {
                    break;
                }
                body(start..range.end.min(start + chunk));
            },
            Schedule::Guided { min_chunk } => loop {
                self.claim_pause();
                let claimed = {
                    // Claim remaining/(2*nthreads), at least min_chunk.
                    let mut next = shared.next.load(Ordering::Relaxed);
                    loop {
                        if next >= range.end {
                            break None;
                        }
                        let remaining = range.end - next;
                        let take = (remaining / (2 * self.nthreads())).max(min_chunk);
                        let take = take.min(remaining);
                        match shared.next.compare_exchange_weak(
                            next,
                            next + take,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break Some(next..next + take),
                            Err(cur) => next = cur,
                        }
                    }
                };
                match claimed {
                    Some(c) => body(c),
                    None => break,
                }
            },
        }
        self.barrier();
    }
}

/// Shared cursor of one worksharing loop instance.
pub struct LoopShared {
    next: AtomicUsize,
}

impl LoopShared {
    /// A cursor starting at `range_start`.
    pub fn new(range_start: usize) -> LoopShared {
        LoopShared {
            next: AtomicUsize::new(range_start),
        }
    }
}

struct Worker {
    queue: Arc<SimQueue<WorkerJob>>,
}

/// The OpenMP runtime of one process: a master plus a persistent pool of
/// `nthreads - 1` workers.
pub struct OmpRuntime {
    name: String,
    nthreads: usize,
    workers: Vec<Worker>,
    join_barrier: Arc<SimBarrier>,
    hooks: Vec<Arc<dyn RegionHooks>>,
    region_seq: AtomicU32,
    in_parallel: AtomicBool,
    shut_down: AtomicBool,
}

impl OmpRuntime {
    /// Create the runtime for the process `p`, with a team of `nthreads`
    /// (including the master). Workers are spawned on `p`'s node.
    pub fn new(
        p: &Proc,
        name: impl Into<String>,
        nthreads: usize,
        hooks: Vec<Arc<dyn RegionHooks>>,
    ) -> OmpRuntime {
        assert!(nthreads >= 1, "team needs at least the master");
        let name = name.into();
        let join_barrier = Arc::new(SimBarrier::new(nthreads, TEAM_BARRIER_COST));
        let mut workers = Vec::with_capacity(nthreads.saturating_sub(1));
        for tid in 1..nthreads {
            let queue: Arc<SimQueue<WorkerJob>> = Arc::new(SimQueue::new());
            let q2 = Arc::clone(&queue);
            let jb = Arc::clone(&join_barrier);
            p.spawn_child(format!("{name}-omp{tid}"), p.node(), move |wp| {
                while let Some(job) = q2.pop(wp) {
                    match job {
                        WorkerJob::Region(body) => {
                            // SAFETY: see ErasedBody contract — the master
                            // keeps the closure alive until we arrive at
                            // the join barrier below.
                            let f = unsafe { &*body.0 };
                            f(tid, wp);
                            jb.wait(wp);
                        }
                        WorkerJob::Shutdown => break,
                    }
                }
            });
            workers.push(Worker { queue });
        }
        OmpRuntime {
            name,
            nthreads,
            workers,
            join_barrier,
            hooks,
            region_seq: AtomicU32::new(0),
            in_parallel: AtomicBool::new(false),
            shut_down: AtomicBool::new(false),
        }
    }

    /// Team size (including the master).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The runtime's name (used for worker process names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parallel regions executed so far.
    pub fn regions_executed(&self) -> u32 {
        self.region_seq.load(Ordering::Relaxed)
    }

    /// `#pragma omp parallel`: run `body` on every team thread.
    ///
    /// `body` may borrow from the caller's stack; the join barrier
    /// guarantees it is not referenced after `parallel` returns.
    pub fn parallel(&self, p: &Proc, region_name: &str, body: impl Fn(&RegionCtx<'_>) + Sync) {
        assert!(
            !self.shut_down.load(Ordering::Acquire),
            "parallel after shutdown"
        );
        assert!(
            !self.in_parallel.swap(true, Ordering::AcqRel),
            "nested parallel regions are not supported"
        );
        let region = RegionId(self.region_seq.fetch_add(1, Ordering::Relaxed));
        for h in &self.hooks {
            h.on_fork(p, region, region_name, self.nthreads);
        }
        p.advance(FORK_BASE + FORK_PER_THREAD * self.nthreads as u64);

        let team = TeamShared::new(self.nthreads);
        let hooks = &self.hooks;
        let wrapper = |tid: usize, wp: &Proc| {
            for h in hooks {
                h.on_thread_begin(wp, region, tid);
            }
            let ctx = RegionCtx {
                tid,
                proc: wp,
                team: &team,
                singles_seen: Cell::new(0),
            };
            body(&ctx);
            for h in hooks {
                h.on_thread_end(wp, region, tid);
            }
        };
        {
            let erased: &(dyn Fn(usize, &Proc) + Sync) = &wrapper;
            // SAFETY: lifetime-erased; validity upheld by the join barrier
            // below (see ErasedBody).
            let erased: &'static (dyn Fn(usize, &Proc) + Sync) =
                unsafe { std::mem::transmute(erased) };
            for w in &self.workers {
                w.queue.push(p, WorkerJob::Region(ErasedBody(erased)));
            }
            wrapper(0, p);
            self.join_barrier.wait(p);
        }
        for h in &self.hooks {
            h.on_join(p, region, region_name, self.nthreads);
        }
        self.in_parallel.store(false, Ordering::Release);
    }

    /// `#pragma omp parallel for`: worksharing loop across the team.
    pub fn parallel_for(
        &self,
        p: &Proc,
        region_name: &str,
        range: Range<usize>,
        sched: Schedule,
        body: impl Fn(Range<usize>, &RegionCtx<'_>) + Sync,
    ) {
        let shared = LoopShared::new(range.start);
        self.parallel(p, region_name, |ctx| {
            ctx.for_each(range.clone(), sched, &shared, |chunk| body(chunk, ctx));
        });
    }

    /// `#pragma omp sections`: each section runs exactly once, claimed
    /// dynamically by the team's threads; ends at the region's implicit
    /// barrier.
    pub fn parallel_sections(
        &self,
        p: &Proc,
        region_name: &str,
        sections: &[&(dyn Fn(&RegionCtx<'_>) + Sync)],
    ) {
        let next = AtomicUsize::new(0);
        self.parallel(p, region_name, |ctx| loop {
            ctx.yield_point();
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= sections.len() {
                break;
            }
            sections[i](ctx);
        });
    }

    /// Worksharing loop with a reduction; returns the combined value.
    /// (The argument list mirrors the OpenMP clause set.)
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_for_reduce<T: Send>(
        &self,
        p: &Proc,
        region_name: &str,
        range: Range<usize>,
        sched: Schedule,
        init: impl Fn() -> T + Sync,
        body: impl Fn(Range<usize>, &mut T, &RegionCtx<'_>) + Sync,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let partials: Mutex<Vec<Option<T>>> =
            Mutex::new((0..self.nthreads).map(|_| None).collect());
        let shared = LoopShared::new(range.start);
        self.parallel(p, region_name, |ctx| {
            let mut acc = init();
            ctx.for_each(range.clone(), sched, &shared, |chunk| {
                body(chunk, &mut acc, ctx);
            });
            partials.lock()[ctx.tid] = Some(acc);
        });
        let mut out: Option<T> = None;
        for part in partials.into_inner().into_iter().flatten() {
            out = Some(match out {
                None => part,
                Some(acc) => combine(acc, part),
            });
        }
        out.expect("at least the master contributes")
    }

    /// Tear down the worker pool. Must be called before the simulation
    /// ends (idle workers would otherwise be reported as deadlocked).
    pub fn shutdown(&self, p: &Proc) {
        if self.shut_down.swap(true, Ordering::AcqRel) {
            return;
        }
        for w in &self.workers {
            w.queue.push(p, WorkerJob::Shutdown);
        }
    }
}
