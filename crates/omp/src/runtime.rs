//! The OpenMP runtime: persistent thread team, fork-join parallel
//! regions, barriers and worksharing loops.
//!
//! Worker threads are simulated processes on the *same node* as the
//! master (OpenMP is restricted to one shared-memory node — the reason
//! Umt98 tops out at 8 CPUs in the paper). Workers live for the whole
//! runtime lifetime and pick up region work from per-worker queues, so a
//! program with thousands of parallel regions does not spawn thousands of
//! threads.
//!
//! A region owns what its team shares — the body, the team barrier, the
//! worksharing cursor — behind one `Arc` that every team thread holds
//! while it runs its share. Nothing a worker reads lives in the master's
//! frames: a simulated process's frames are not where they were while
//! another process runs (see `dynprof_sim`'s coroutine carrier).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

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
/// Cost of claiming one dynamically-scheduled chunk.
pub const DYN_CHUNK_COST: SimTime = SimTime::from_nanos(150);

/// The hooks a runtime was created with, shared by its team threads.
type Hooks = Arc<[Arc<dyn RegionHooks>]>;

/// One parallel region as its team shares it.
struct Region<F: ?Sized> {
    id: RegionId,
    nthreads: usize,
    /// The team barrier (`#pragma omp barrier`, a loop's implicit one).
    barrier: SimBarrier,
    /// Next unclaimed iteration of the region's worksharing loop.
    cursor: AtomicUsize,
    body: F,
}

/// A region whatever its body.
type SharedRegion = Arc<Region<dyn Fn(&RegionCtx<'_>) + Send + Sync>>;

impl Region<dyn Fn(&RegionCtx<'_>) + Send + Sync> {
    /// Thread `tid`'s share of the region, between its hooks.
    fn run(&self, tid: usize, p: &Proc, hooks: &Hooks) {
        for h in hooks.iter() {
            h.on_thread_begin(p, self.id, tid);
        }
        (self.body)(&RegionCtx {
            tid,
            proc: p,
            region: self,
        });
        for h in hooks.iter() {
            h.on_thread_end(p, self.id, tid);
        }
    }
}

enum WorkerJob {
    Region(SharedRegion),
    Shutdown,
}

/// Per-thread view of an executing parallel region.
pub struct RegionCtx<'a> {
    /// This thread's id within the team (0 = master).
    pub tid: usize,
    /// The executing simulated process (master's or a worker's).
    pub proc: &'a Proc,
    region: &'a Region<dyn Fn(&RegionCtx<'_>) + Send + Sync>,
}

impl RegionCtx<'_> {
    /// Team size.
    pub fn nthreads(&self) -> usize {
        self.region.nthreads
    }

    /// `#pragma omp barrier`.
    pub fn barrier(&self) {
        self.region.barrier.wait(self.proc);
    }

    /// Claiming a chunk of a shared cursor charges the claim and *yields*,
    /// so team threads interleave in virtual-time order — without the
    /// yield, whichever thread runs first on the host would drain the
    /// cursor and the loop would serialize.
    fn claim_pause(&self) {
        self.proc.sleep(DYN_CHUNK_COST);
    }

    /// The region's worksharing loop over `range` with the given
    /// schedule; `body` receives contiguous chunks. Ends with the loop's
    /// implicit barrier.
    fn for_each(&self, range: Range<usize>, sched: Schedule, mut body: impl FnMut(Range<usize>)) {
        let cursor = &self.region.cursor;
        match sched {
            Schedule::Static { .. } => {
                for c in sched.static_chunks(range, self.tid, self.nthreads()) {
                    body(c);
                }
            }
            Schedule::Dynamic { chunk } => loop {
                self.claim_pause();
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= range.end {
                    break;
                }
                body(start..range.end.min(start + chunk));
            },
            Schedule::Guided { min_chunk } => loop {
                self.claim_pause();
                let claimed = {
                    // Claim remaining/(2*nthreads), at least min_chunk.
                    let mut next = cursor.load(Ordering::Relaxed);
                    loop {
                        if next >= range.end {
                            break None;
                        }
                        let remaining = range.end - next;
                        let take = (remaining / (2 * self.nthreads())).max(min_chunk);
                        let take = take.min(remaining);
                        match cursor.compare_exchange_weak(
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
    hooks: Hooks,
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
        let hooks: Hooks = hooks.into();
        let join_barrier = Arc::new(SimBarrier::new(nthreads, TEAM_BARRIER_COST));
        let mut workers = Vec::with_capacity(nthreads.saturating_sub(1));
        for tid in 1..nthreads {
            let queue: Arc<SimQueue<WorkerJob>> = Arc::new(SimQueue::new());
            let q2 = Arc::clone(&queue);
            let jb = Arc::clone(&join_barrier);
            let hooks = Arc::clone(&hooks);
            p.spawn_child(format!("{name}-omp{tid}"), p.node(), move |wp| {
                while let Some(job) = q2.pop(wp) {
                    match job {
                        WorkerJob::Region(region) => {
                            region.run(tid, wp, &hooks);
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

    /// `#pragma omp parallel`: run `body` on every team thread. The body
    /// owns what it uses: the team shares it, not the master's frames.
    pub fn parallel(
        &self,
        p: &Proc,
        region_name: &str,
        body: impl Fn(&RegionCtx<'_>) + Send + Sync + 'static,
    ) {
        self.fork_join(p, region_name, 0, body);
    }

    /// `#pragma omp parallel for`: worksharing loop across the team.
    pub fn parallel_for(
        &self,
        p: &Proc,
        region_name: &str,
        range: Range<usize>,
        sched: Schedule,
        body: impl Fn(Range<usize>, &RegionCtx<'_>) + Send + Sync + 'static,
    ) {
        let start = range.start;
        self.fork_join(p, region_name, start, move |ctx| {
            ctx.for_each(range.clone(), sched, |chunk| body(chunk, ctx));
        });
    }

    /// Fork a region whose worksharing cursor starts at `cursor`, run the
    /// master's share, and join.
    fn fork_join(
        &self,
        p: &Proc,
        region_name: &str,
        cursor: usize,
        body: impl Fn(&RegionCtx<'_>) + Send + Sync + 'static,
    ) {
        assert!(
            !self.shut_down.load(Ordering::Acquire),
            "parallel after shutdown"
        );
        assert!(
            !self.in_parallel.swap(true, Ordering::AcqRel),
            "nested parallel regions are not supported"
        );
        let id = RegionId(self.region_seq.fetch_add(1, Ordering::Relaxed));
        for h in self.hooks.iter() {
            h.on_fork(p, id, region_name, self.nthreads);
        }
        p.advance(FORK_BASE + FORK_PER_THREAD * self.nthreads as u64);

        let region: SharedRegion = Arc::new(Region {
            id,
            nthreads: self.nthreads,
            barrier: SimBarrier::new(self.nthreads, TEAM_BARRIER_COST),
            cursor: AtomicUsize::new(cursor),
            body,
        });
        for w in &self.workers {
            w.queue.push(p, WorkerJob::Region(Arc::clone(&region)));
        }
        region.run(0, p, &self.hooks);
        self.join_barrier.wait(p);
        for h in self.hooks.iter() {
            h.on_join(p, id, region_name, self.nthreads);
        }
        self.in_parallel.store(false, Ordering::Release);
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
