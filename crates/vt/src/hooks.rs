//! Vampirtrace's attachment points: Guide static instrumentation, the MPI
//! wrapper interface, Guidetrace OpenMP events, and the dynamically
//! insertable `VT_begin`/`VT_end` snippets used by dynprof.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dynprof_image::ir::{BinOp, CtxField, Expr, Intrinsic, IntrinsicTable, SnippetProgram, Stmt};
use dynprof_image::{Image, ImageObserver, ProbeCtx, ProbePointKind, Snippet, StaticHooks};
use dynprof_mpi::{Comm, MpiHooks, MpiOp};
use dynprof_omp::{RegionHooks, RegionId};
use dynprof_sim::{Proc, SimTime};

use crate::event::{Event, VtFuncId};
use crate::vtlib::VtLib;

fn op_code(op: MpiOp) -> u8 {
    match op {
        MpiOp::Init => 0,
        MpiOp::Finalize => 1,
        MpiOp::Send => 2,
        MpiOp::Recv => 3,
        MpiOp::Barrier => 4,
        MpiOp::Bcast => 5,
        MpiOp::Reduce => 6,
        MpiOp::Allreduce => 7,
        MpiOp::Gather => 8,
        MpiOp::Allgather => 9,
        MpiOp::Alltoall => 10,
        MpiOp::Scan => 11,
    }
}

/// Decode an op code back to the operation (for analysis tools).
pub fn op_from_code(code: u8) -> Option<MpiOp> {
    Some(match code {
        0 => MpiOp::Init,
        1 => MpiOp::Finalize,
        2 => MpiOp::Send,
        3 => MpiOp::Recv,
        4 => MpiOp::Barrier,
        5 => MpiOp::Bcast,
        6 => MpiOp::Reduce,
        7 => MpiOp::Allreduce,
        8 => MpiOp::Gather,
        9 => MpiOp::Allgather,
        10 => MpiOp::Alltoall,
        11 => MpiOp::Scan,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Static (Guide compiler) instrumentation
// ---------------------------------------------------------------------------

/// [`StaticHooks`] implementation: the entry/exit profile calls the Guide
/// compiler inserts into every subroutine (paper §3.1). Function ids are
/// registered with `VT_funcdef` on first call and cached per image slot.
pub struct VtStaticHooks {
    vt: Arc<VtLib>,
    /// Image function index → VtFuncId + 1 (0 = not yet registered).
    cache: Vec<AtomicU32>,
}

impl VtStaticHooks {
    /// Build the hooks for `image`, to install with
    /// [`Image::set_static_hooks`].
    pub fn for_image(vt: Arc<VtLib>, image: &Image) -> Arc<VtStaticHooks> {
        Arc::new(VtStaticHooks {
            cache: (0..image.len()).map(|_| AtomicU32::new(0)).collect(),
            vt,
        })
    }

    fn vt_id(&self, ctx: &ProbeCtx<'_>) -> VtFuncId {
        let slot = &self.cache[ctx.func.index()];
        let cached = slot.load(Ordering::Acquire);
        if cached != 0 {
            return VtFuncId(cached - 1);
        }
        let id = self.vt.funcdef(ctx.proc, ctx.name);
        slot.store(id.0 + 1, Ordering::Release);
        id
    }
}

impl StaticHooks for VtStaticHooks {
    fn begin(&self, ctx: &ProbeCtx<'_>) {
        let id = self.vt_id(ctx);
        self.vt
            .begin(ctx.proc, ctx.rank, ctx.thread as u16, id, ctx.reps);
    }

    fn end(&self, ctx: &ProbeCtx<'_>) {
        let id = self.vt_id(ctx);
        self.vt.end(ctx.proc, ctx.rank, ctx.thread as u16, id);
    }
}

// ---------------------------------------------------------------------------
// Dynamic (dynprof-inserted) snippets
// ---------------------------------------------------------------------------

/// Build the `VT_begin` snippet dynprof inserts at a function's entry.
/// The function must already be registered (`VT_funcdef`), which dynprof
/// does at insertion time (paper §3.4).
///
/// The snippet is expressed in the typed IR and verified before it is
/// handed out: its body is a single call to an *internal* `VT_begin`
/// intrinsic — the library charges the clock itself (active vs
/// deactivated charge depends on the activation table), while the
/// intrinsic's declared cost (`vt_begin_active`, the worst case) feeds
/// the verifier's derived bound, which the overhead controller consumes.
pub fn vt_begin_snippet(vt: Arc<VtLib>, func: VtFuncId) -> Snippet {
    let worst = vt.costs().vt_begin_active;
    let lib = Arc::clone(&vt);
    let table = IntrinsicTable::new(vec![Intrinsic::internal("VT_begin", worst, move |ctx| {
        debug_assert_eq!(ctx.point, ProbePointKind::Entry);
        lib.begin(ctx.proc, ctx.rank, ctx.thread as u16, func, ctx.reps);
    })]);
    let prog = SnippetProgram::new("VT_begin", 0, vec![Stmt::Call(0)], table);
    let snippet = prog.compile().expect("VT_begin program verifies");
    vt.register_derived_begin(snippet.derived_cost);
    snippet
}

/// Build the `VT_end` snippet dynprof inserts at a function's exit.
/// IR-expressed and verified, like [`vt_begin_snippet`].
pub fn vt_end_snippet(vt: Arc<VtLib>, func: VtFuncId) -> Snippet {
    let worst = vt.costs().vt_end_active;
    let lib = Arc::clone(&vt);
    let table = IntrinsicTable::new(vec![Intrinsic::internal("VT_end", worst, move |ctx| {
        debug_assert_eq!(ctx.point, ProbePointKind::Exit);
        lib.end(ctx.proc, ctx.rank, ctx.thread as u16, func);
    })]);
    let prog = SnippetProgram::new("VT_end", 0, vec![Stmt::Call(0)], table);
    let snippet = prog.compile().expect("VT_end program verifies");
    vt.register_derived_end(snippet.derived_cost);
    snippet
}

/// Build a pure-IR counting snippet: `region[0] += reps`, no library
/// calls at all. Useful when dynprof only needs call counts (paper §2's
/// "how often is this function called" question) without paying the
/// trace-event cost; the count is read back through the snippet's
/// [`dynprof_image::ir::ProgramState`].
pub fn vt_count_snippet() -> (Snippet, Arc<dynprof_image::ir::ProgramState>) {
    let prog = SnippetProgram::new(
        "VT_count",
        1,
        vec![Stmt::Store {
            slot: Expr::Const(0),
            value: Expr::bin(BinOp::Add, Expr::load(0), Expr::Ctx(CtxField::Reps)),
        }],
        IntrinsicTable::empty(),
    );
    prog.compile_with_state()
        .expect("VT_count program verifies")
}

/// Build the `configuration_break` snippet: the empty IR program whose
/// only job is to *be a probe point* — `VT_confsync`'s safe-point
/// breakpoint body (paper §5). Verifies trivially with a zero derived
/// bound, which is the point: the breakpoint must never perturb the
/// timeline.
pub fn configuration_break_snippet() -> Snippet {
    Snippet::noop("configuration_break")
}

// ---------------------------------------------------------------------------
// Suspension tracking (paper §5.1)
// ---------------------------------------------------------------------------

/// [`ImageObserver`] implementation: records instrumenter-initiated
/// suspensions as [`Event::Suspended`] intervals, so the time-line shows
/// them as inactivity and profiles can disregard them.
pub struct VtImageObserver {
    vt: Arc<VtLib>,
    rank: usize,
    open_since: parking_lot::Mutex<Option<SimTime>>,
}

impl VtImageObserver {
    /// Observer for the process running MPI rank `rank`.
    pub fn new(vt: Arc<VtLib>, rank: usize) -> Arc<VtImageObserver> {
        Arc::new(VtImageObserver {
            vt,
            rank,
            open_since: parking_lot::Mutex::new(None),
        })
    }
}

impl ImageObserver for VtImageObserver {
    fn on_suspend(&self, p: &Proc) {
        *self.open_since.lock() = Some(p.now());
    }

    fn on_resume(&self, p: &Proc) {
        if let Some(t0) = self.open_since.lock().take() {
            self.vt.record(
                self.rank,
                Event::Suspended {
                    t: t0,
                    t_end: p.now().max(t0),
                    rank: self.rank as u32,
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// MPI wrapper interface
// ---------------------------------------------------------------------------

/// [`MpiHooks`] implementation: logs every MPI call as a time-spanned
/// event, and performs `VT_init` inside `MPI_Init` (the Vampirtrace
/// library "initializes its own data structures within MPI_Init", §3.4).
pub struct VtMpiHooks {
    vt: Arc<VtLib>,
}

impl VtMpiHooks {
    /// Wrap `vt` as an MPI hook.
    pub fn new(vt: Arc<VtLib>) -> Arc<VtMpiHooks> {
        Arc::new(VtMpiHooks { vt })
    }
}

impl MpiHooks for VtMpiHooks {
    fn on_init(&self, p: &Proc, comm: &Comm) {
        self.vt.init(p, comm.rank());
    }

    fn on_call_begin(&self, p: &Proc, comm: &Comm, op: MpiOp, _peer: Option<usize>, _bytes: usize) {
        let rank = comm.rank();
        if !self.vt.is_initialized(rank) {
            return; // MPI_Init's own begin precedes VT_init
        }
        self.vt.mpi_push(rank, op_code(op), p.now());
    }

    fn on_call_end(&self, p: &Proc, comm: &Comm, op: MpiOp, peer: Option<usize>, bytes: usize) {
        let rank = comm.rank();
        if !self.vt.is_initialized(rank) {
            return;
        }
        p.advance(self.vt.costs().mpi_wrapper_event);
        self.vt.mpi_end(
            rank,
            op_code(op),
            p.now(),
            peer.map_or(-1, |r| r as i32),
            bytes as u64,
        );
    }

    fn on_finalize(&self, p: &Proc, comm: &Comm) {
        self.vt.finalize(p, comm.rank());
    }
}

// ---------------------------------------------------------------------------
// OpenMP (Guidetrace) events
// ---------------------------------------------------------------------------

/// [`RegionHooks`] implementation for one process: logs parallel-region
/// fork/join and per-thread occupancy (the VGV time-line's wiggle glyphs).
pub struct VtOmpHooks {
    vt: Arc<VtLib>,
    rank: usize,
    /// Open per-thread region entries (thread, region, t_begin).
    open: parking_lot::Mutex<Vec<(usize, u32, SimTime)>>,
}

impl VtOmpHooks {
    /// Hooks for the process running MPI rank `rank` (0 for pure OpenMP).
    pub fn new(vt: Arc<VtLib>, rank: usize) -> Arc<VtOmpHooks> {
        Arc::new(VtOmpHooks {
            vt,
            rank,
            open: parking_lot::Mutex::new(Vec::new()),
        })
    }
}

impl RegionHooks for VtOmpHooks {
    fn on_fork(&self, p: &Proc, region: RegionId, _name: &str, team: usize) {
        if !self.vt.is_initialized(self.rank) {
            return;
        }
        p.advance(self.vt.costs().omp_region_event);
        self.vt.record(
            self.rank,
            Event::OmpFork {
                t: p.now(),
                rank: self.rank as u32,
                region: region.0,
                team: team as u16,
            },
        );
    }

    fn on_join(&self, p: &Proc, region: RegionId, _name: &str, team: usize) {
        if !self.vt.is_initialized(self.rank) {
            return;
        }
        p.advance(self.vt.costs().omp_region_event);
        self.vt.record(
            self.rank,
            Event::OmpJoin {
                t: p.now(),
                rank: self.rank as u32,
                region: region.0,
                team: team as u16,
            },
        );
    }

    fn on_thread_begin(&self, p: &Proc, region: RegionId, tid: usize) {
        if !self.vt.is_initialized(self.rank) {
            return;
        }
        p.advance(self.vt.costs().omp_region_event);
        self.open.lock().push((tid, region.0, p.now()));
    }

    fn on_thread_end(&self, p: &Proc, region: RegionId, tid: usize) {
        if !self.vt.is_initialized(self.rank) {
            return;
        }
        p.advance(self.vt.costs().omp_region_event);
        let t0 = {
            let mut open = self.open.lock();
            match open
                .iter()
                .rposition(|&(t, r, _)| t == tid && r == region.0)
            {
                Some(i) => open.swap_remove(i).2,
                None => p.now(),
            }
        };
        self.vt.record(
            self.rank,
            Event::OmpThread {
                t: t0,
                t_end: p.now(),
                rank: self.rank as u32,
                thread: tid as u16,
                region: region.0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VtConfig;
    use dynprof_image::{CallerCtx, FunctionInfo, ImageBuilder, ProbePoint};
    use dynprof_mpi::{launch, JobSpec, Source, Tag, TagSel};
    use dynprof_omp::OmpRuntime;
    use dynprof_sim::{Machine, ProbeCosts, Sim};

    fn vt(ranks: usize, cfg: VtConfig) -> Arc<VtLib> {
        VtLib::new("app", ranks, cfg, ProbeCosts::power3())
    }

    #[test]
    fn static_hooks_register_and_log() {
        let vtl = vt(1, VtConfig::all_on());
        let mut b = ImageBuilder::new("app");
        let f = b.add(FunctionInfo::new("solve").static_instr(true));
        let img = Arc::new(b.build());
        img.set_static_hooks(VtStaticHooks::for_image(Arc::clone(&vtl), &img));
        let (img2, vt2) = (Arc::clone(&img), Arc::clone(&vtl));
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            vt2.init(p, 0);
            for _ in 0..3 {
                img2.call(p, CallerCtx::default(), f, || ());
            }
        });
        sim.run();
        let id = vtl.func_id("solve").expect("registered");
        assert_eq!(vtl.stat_of(0, id).count, 3);
        assert_eq!(vtl.build_trace().events.len(), 6);
    }

    #[test]
    fn dynamic_snippets_log_through_trampolines() {
        let vtl = vt(1, VtConfig::all_on());
        let mut b = ImageBuilder::new("app");
        let f = b.add(FunctionInfo::new("test")); // NOT statically instrumented
        let img = Arc::new(b.build());
        let (img2, vt2) = (Arc::clone(&img), Arc::clone(&vtl));
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            vt2.init(p, 0);
            // dynprof registers the name, then inserts the snippets.
            let id = vt2.funcdef(p, "test");
            img2.try_insert(ProbePoint::entry(f), vt_begin_snippet(Arc::clone(&vt2), id))
                .expect("patchable target");
            img2.try_insert(ProbePoint::exit(f), vt_end_snippet(Arc::clone(&vt2), id))
                .expect("patchable target");
            img2.call(p, CallerCtx::default(), f, || {
                p.advance(SimTime::from_micros(50))
            });
        });
        sim.run();
        let id = vtl.func_id("test").unwrap();
        let s = vtl.stat_of(0, id);
        assert_eq!(s.count, 1);
        assert!(s.incl >= SimTime::from_micros(50));
    }

    #[test]
    fn standard_snippets_carry_verified_programs_and_derived_costs() {
        let vtl = vt(1, VtConfig::all_on());
        assert_eq!(vtl.derived_pair(), None, "no programs built yet");
        let begin = vt_begin_snippet(Arc::clone(&vtl), VtFuncId(0));
        let end = vt_end_snippet(Arc::clone(&vtl), VtFuncId(0));
        let (count, _) = vt_count_snippet();
        let brk = configuration_break_snippet();
        for s in [&begin, &end, &count, &brk] {
            assert_eq!(dynprof_image::verify_snippet(s), Ok(()));
        }
        assert_eq!(begin.derived_cost, Some(vtl.costs().vt_begin_active));
        assert_eq!(end.derived_cost, Some(vtl.costs().vt_end_active));
        assert_eq!(brk.derived_cost, Some(SimTime::ZERO));
        // Building both registered the derived pair == the declared pair.
        assert_eq!(vtl.derived_pair(), Some(vtl.costs().active_pair()));
    }

    #[test]
    fn count_snippet_counts_without_library_calls() {
        let mut b = ImageBuilder::new("app");
        let f = b.add(FunctionInfo::new("hot"));
        let img = Arc::new(b.build());
        let (snippet, state) = vt_count_snippet();
        img.try_insert(ProbePoint::entry(f), snippet)
            .expect("patchable target");
        let img2 = Arc::clone(&img);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("p", 0, move |p| {
            img2.call(p, CallerCtx::default(), f, || ());
            img2.call_batch(p, CallerCtx::default(), f, 41, |_| ());
        });
        sim.run();
        assert_eq!(state.slot(0), 42);
    }

    #[test]
    fn mpi_hooks_initialize_vt_and_log_calls() {
        let vtl = vt(2, VtConfig::all_on());
        let hook = VtMpiHooks::new(Arc::clone(&vtl));
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let v2 = Arc::clone(&vtl);
        launch(&sim, JobSpec::new("app", 2), vec![hook], move |p, c| {
            c.init(p);
            assert!(v2.is_initialized(c.rank()), "VT_init ran inside MPI_Init");
            if c.rank() == 0 {
                c.send(p, 1, Tag::user(0), 64u64);
            } else {
                let _ = c.recv::<u64>(p, Source::Any, TagSel::Any);
            }
            c.barrier(p);
            c.finalize(p);
        });
        sim.run();
        let trace = vtl.build_trace();
        let mpi_events: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::MpiCall { op, rank, .. } => Some((*rank, op_from_code(*op).unwrap())),
                _ => None,
            })
            .collect();
        // Init end on both, send/recv, barrier x2, finalize x2.
        assert!(mpi_events.contains(&(0, MpiOp::Send)));
        assert!(mpi_events.contains(&(1, MpiOp::Recv)));
        assert_eq!(
            mpi_events
                .iter()
                .filter(|(_, op)| *op == MpiOp::Barrier)
                .count(),
            2
        );
        assert_eq!(
            mpi_events
                .iter()
                .filter(|(_, op)| *op == MpiOp::Init)
                .count(),
            2
        );
    }

    #[test]
    fn omp_hooks_log_regions_and_threads() {
        let vtl = vt(1, VtConfig::all_on());
        let v2 = Arc::clone(&vtl);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("app", 0, move |p| {
            v2.init(p, 0);
            let hooks = VtOmpHooks::new(Arc::clone(&v2), 0);
            let rt = OmpRuntime::new(p, "app", 4, vec![hooks]);
            rt.parallel(p, "region", |ctx| {
                ctx.proc.advance(SimTime::from_micros(10));
            });
            rt.shutdown(p);
        });
        sim.run();
        let trace = vtl.build_trace();
        let forks = trace
            .events
            .iter()
            .filter(|e| matches!(e, Event::OmpFork { .. }))
            .count();
        let joins = trace
            .events
            .iter()
            .filter(|e| matches!(e, Event::OmpJoin { .. }))
            .count();
        let threads = trace
            .events
            .iter()
            .filter(|e| matches!(e, Event::OmpThread { .. }))
            .count();
        assert_eq!(forks, 1);
        assert_eq!(joins, 1);
        assert_eq!(threads, 4);
        // Thread events carry positive spans.
        for e in &trace.events {
            if let Event::OmpThread { t, t_end, .. } = e {
                assert!(t_end >= t);
            }
        }
    }

    #[test]
    fn hooks_stay_silent_before_vt_init() {
        // A pure-OpenMP app whose VT_init has not run yet must not log.
        let vtl = vt(1, VtConfig::all_on());
        let v2 = Arc::clone(&vtl);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("app", 0, move |p| {
            let hooks = VtOmpHooks::new(Arc::clone(&v2), 0);
            let rt = OmpRuntime::new(p, "app", 2, vec![hooks]);
            rt.parallel(p, "early", |_| {});
            rt.shutdown(p);
        });
        sim.run();
        assert_eq!(vtl.build_trace().events.len(), 0);
    }
}
