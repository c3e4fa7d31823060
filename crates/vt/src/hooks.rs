//! Vampirtrace's attachment points: Guide static instrumentation, the MPI
//! wrapper interface, Guidetrace OpenMP events, and the dynamically
//! insertable `VT_begin`/`VT_end` snippets used by dynprof.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dynprof_image::ir::{Intrinsic, IntrinsicTable, SnippetProgram};
use dynprof_image::{ImageObserver, ProbeCtx, ProbePointKind, Program, Snippet, StaticHooks};
use dynprof_mpi::{Comm, MpiHooks, MpiOp};
use dynprof_omp::{RegionHooks, RegionId};
use dynprof_sim::Proc;

use crate::event::{Event, VtFuncId};
use crate::vtlib::VtLib;

/// Decode an op code back to the operation (for analysis tools).
pub fn op_from_code(code: u8) -> Option<MpiOp> {
    MpiOp::ALL.get(usize::from(code)).copied()
}

// ---------------------------------------------------------------------------
// Static (Guide compiler) instrumentation
// ---------------------------------------------------------------------------

/// [`StaticHooks`] implementation: the entry/exit profile calls the Guide
/// compiler inserts into every subroutine (paper §3.1). Function ids are
/// registered with `VT_funcdef` on first call and cached per program
/// slot, so one instance serves every image of the program.
pub struct VtStaticHooks {
    vt: Arc<VtLib>,
    /// Program function index → VtFuncId + 1 (0 = not yet registered).
    cache: Vec<AtomicU32>,
}

impl VtStaticHooks {
    /// Build the hooks for the images of `program`, to install on each
    /// with [`dynprof_image::Image::set_static_hooks`].
    pub fn for_program(vt: Arc<VtLib>, program: &Program) -> Arc<VtStaticHooks> {
        Arc::new(VtStaticHooks {
            cache: (0..program.len()).map(|_| AtomicU32::new(0)).collect(),
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
/// The snippet is a program verified before it is handed out: its body
/// is a single call to an *internal* `VT_begin` intrinsic — the library
/// charges the clock itself (active vs deactivated charge depends on the
/// activation table), while the intrinsic's declared cost
/// (`vt_begin_active`, the worst case) is the derived bound, which the
/// overhead controller consumes.
pub fn vt_begin_snippet(vt: Arc<VtLib>, func: VtFuncId) -> Snippet {
    let worst = vt.costs().vt_begin_active;
    let lib = Arc::clone(&vt);
    let table = IntrinsicTable::new(vec![Intrinsic::internal("VT_begin", worst, move |ctx| {
        debug_assert_eq!(ctx.point, ProbePointKind::Entry);
        lib.begin(ctx.proc, ctx.rank, ctx.thread as u16, func, ctx.reps);
    })]);
    let prog = SnippetProgram::new("VT_begin", vec![0], table);
    let snippet = prog.compile().expect("VT_begin program verifies");
    vt.register_derived_begin(snippet.derived_cost);
    snippet
}

/// Build the `VT_end` snippet dynprof inserts at a function's exit.
/// A verified one-call program, like [`vt_begin_snippet`].
pub fn vt_end_snippet(vt: Arc<VtLib>, func: VtFuncId) -> Snippet {
    let worst = vt.costs().vt_end_active;
    let lib = Arc::clone(&vt);
    let table = IntrinsicTable::new(vec![Intrinsic::internal("VT_end", worst, move |ctx| {
        debug_assert_eq!(ctx.point, ProbePointKind::Exit);
        lib.end(ctx.proc, ctx.rank, ctx.thread as u16, func);
    })]);
    let prog = SnippetProgram::new("VT_end", vec![0], table);
    let snippet = prog.compile().expect("VT_end program verifies");
    vt.register_derived_end(snippet.derived_cost);
    snippet
}

/// Build the `configuration_break` snippet: the empty program whose
/// only job is to *be a probe point* — `VT_confsync`'s safe-point
/// breakpoint body (paper §5). Verifies trivially with a zero derived
/// bound, which is the point: the breakpoint must never perturb the
/// timeline.
pub fn configuration_break_snippet() -> Snippet {
    Snippet::noop("configuration_break")
}

// ---------------------------------------------------------------------------
// MPI wrapper interface
// ---------------------------------------------------------------------------

/// The library is its own MPI hook: it logs every MPI call as a
/// time-spanned event, and performs `VT_init` inside `MPI_Init` (the
/// Vampirtrace library "initializes its own data structures within
/// MPI_Init", §3.4).
impl MpiHooks for VtLib {
    fn on_init(&self, p: &Proc, comm: &Comm) {
        self.init(p, comm.rank());
    }

    fn on_call_begin(&self, p: &Proc, comm: &Comm, op: MpiOp, _peer: Option<usize>, _bytes: usize) {
        let rank = comm.rank();
        if !self.is_initialized(rank) {
            return; // MPI_Init's own begin precedes VT_init
        }
        let t = p.now();
        self.with_rank(p, rank, |buf| {
            buf.mpi_stack.push((op as u8, t));
            None
        });
    }

    fn on_call_end(&self, p: &Proc, comm: &Comm, op: MpiOp, peer: Option<usize>, bytes: usize) {
        let rank = comm.rank();
        if !self.is_initialized(rank) {
            return;
        }
        p.advance(self.costs().mpi_wrapper_event);
        let (op, t_end) = (op as u8, p.now());
        self.with_rank(p, rank, |buf| {
            let t = match buf.mpi_stack.pop() {
                Some((code, t0)) if code == op => t0,
                // MPI_Init's end has no matching begin (VT came up
                // mid-call); log it as a point event.
                _ => t_end,
            };
            Some(Event::MpiCall {
                t,
                t_end,
                rank: rank as u32,
                op,
                peer: peer.map_or(-1, |r| r as i32),
                bytes: bytes as u64,
            })
        });
    }

    fn on_finalize(&self, p: &Proc, comm: &Comm) {
        self.finalize(p, comm.rank());
    }
}

// ---------------------------------------------------------------------------
// Suspension tracking (paper §5.1) and OpenMP (Guidetrace) events
// ---------------------------------------------------------------------------

/// One process's attachment to the library, for MPI rank `rank` (0 for
/// pure OpenMP): as its image's [`ImageObserver`] it records
/// instrumenter-initiated suspensions as [`Event::Suspended`] intervals,
/// so the time-line shows them as inactivity and profiles can disregard
/// them; as its OpenMP runtime's [`RegionHooks`] it logs parallel-region
/// fork/join and per-thread occupancy (the VGV time-line's wiggle
/// glyphs). It keeps no state: an open span waits in the rank's buffer.
pub struct VtRankHooks {
    vt: Arc<VtLib>,
    rank: usize,
}

impl VtRankHooks {
    /// Hooks for the process running MPI rank `rank`.
    pub fn new(vt: Arc<VtLib>, rank: usize) -> Arc<VtRankHooks> {
        Arc::new(VtRankHooks { vt, rank })
    }

    /// Charge one Guidetrace event; `false` before `VT_init`, when the
    /// OpenMP hooks stay silent.
    fn charge(&self, p: &Proc) -> bool {
        let ready = self.vt.is_initialized(self.rank);
        if ready {
            p.advance(self.vt.costs().omp_region_event);
        }
        ready
    }
}

impl ImageObserver for VtRankHooks {
    fn on_suspend(&self, p: &Proc) {
        self.vt.with_rank(p, self.rank, |buf| {
            buf.suspended_since = Some(p.now());
            None
        });
    }

    /// A resume with no suspension records nothing.
    fn on_resume(&self, p: &Proc) {
        let (t_end, rank) = (p.now(), self.rank as u32);
        self.vt.with_rank(p, self.rank, |buf| {
            let t = buf.suspended_since.take()?;
            let t_end = t_end.max(t);
            Some(Event::Suspended { t, t_end, rank })
        });
    }
}

impl RegionHooks for VtRankHooks {
    fn on_fork(&self, p: &Proc, region: RegionId, _name: &str, team: usize) {
        if self.charge(p) {
            self.vt.record(
                p,
                self.rank,
                Event::OmpFork {
                    t: p.now(),
                    rank: self.rank as u32,
                    region: region.0,
                    team: team as u16,
                },
            );
        }
    }

    fn on_join(&self, p: &Proc, region: RegionId, _name: &str, team: usize) {
        if self.charge(p) {
            self.vt.record(
                p,
                self.rank,
                Event::OmpJoin {
                    t: p.now(),
                    rank: self.rank as u32,
                    region: region.0,
                    team: team as u16,
                },
            );
        }
    }

    fn on_thread_begin(&self, p: &Proc, region: RegionId, tid: usize) {
        if self.charge(p) {
            self.vt.with_rank(p, self.rank, |buf| {
                buf.omp_open.push((tid, region.0, p.now()));
                None
            });
        }
    }

    /// A thread end with no recorded begin is a zero-length span at now.
    fn on_thread_end(&self, p: &Proc, region: RegionId, tid: usize) {
        if !self.charge(p) {
            return;
        }
        let t_end = p.now();
        self.vt.with_rank(p, self.rank, |buf| {
            let open = &mut buf.omp_open;
            let found = open
                .iter()
                .rposition(|&(t, r, _)| (t, r) == (tid, region.0));
            Some(Event::OmpThread {
                t: found.map_or(t_end, |i| open.swap_remove(i).2),
                t_end,
                rank: self.rank as u32,
                thread: tid as u16,
                region: region.0,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VtConfig;
    use dynprof_image::{CallerCtx, FunctionInfo, ImageBuilder, ProbePoint};
    use dynprof_mpi::{launch, JobSpec, Source, Tag, TagSel};
    use dynprof_omp::OmpRuntime;
    use dynprof_sim::{Machine, ProbeCosts, Sim, SimTime};

    fn vt(ranks: usize, cfg: VtConfig) -> Arc<VtLib> {
        VtLib::new("app", ranks, cfg, ProbeCosts::power3())
    }

    #[test]
    fn static_hooks_register_and_log() {
        let vtl = vt(1, VtConfig::all_on());
        let mut b = ImageBuilder::new("app");
        let f = b.add(FunctionInfo::new("solve").static_instr(true));
        let img = Arc::new(b.build());
        img.set_static_hooks(VtStaticHooks::for_program(
            Arc::clone(&vtl),
            img.shared_program(),
        ));
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
        let brk = configuration_break_snippet();
        for s in [&begin, &end, &brk] {
            assert_eq!(dynprof_image::verify_snippet(s), Ok(()));
        }
        assert_eq!(begin.derived_cost, Some(vtl.costs().vt_begin_active));
        assert_eq!(end.derived_cost, Some(vtl.costs().vt_end_active));
        assert_eq!(brk.derived_cost, Some(SimTime::ZERO));
        // Building both registered the derived pair == the declared pair.
        assert_eq!(vtl.derived_pair(), Some(vtl.costs().active_pair()));
    }

    #[test]
    fn mpi_hooks_initialize_vt_and_log_calls() {
        let vtl = vt(2, VtConfig::all_on());
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let v2 = Arc::clone(&vtl);
        launch(
            &sim,
            JobSpec::new("app", 2),
            vec![Arc::clone(&vtl) as _],
            move |p, c| {
                c.init(p);
                assert!(v2.is_initialized(c.rank()), "VT_init ran inside MPI_Init");
                if c.rank() == 0 {
                    c.send(p, 1, Tag::user(0), 64u64);
                } else {
                    let _ = c.recv::<u64>(p, Source::Any, TagSel::Any);
                }
                c.barrier(p);
                c.finalize(p);
            },
        );
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
        let count = |op| mpi_events.iter().filter(|e| e.1 == op).count();
        assert_eq!((count(MpiOp::Barrier), count(MpiOp::Init)), (2, 2));
    }

    #[test]
    fn omp_hooks_log_regions_and_threads() {
        let vtl = vt(1, VtConfig::all_on());
        let v2 = Arc::clone(&vtl);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("app", 0, move |p| {
            v2.init(p, 0);
            let hooks = VtRankHooks::new(Arc::clone(&v2), 0);
            let rt = OmpRuntime::new(p, "app", 4, vec![hooks]);
            rt.parallel(p, "region", |ctx| {
                ctx.proc.advance(SimTime::from_micros(10));
            });
            rt.shutdown(p);
        });
        sim.run();
        let trace = vtl.build_trace();
        let count = |f: fn(&&Event) -> bool| trace.events.iter().filter(f).count();
        assert_eq!(count(|e| matches!(e, Event::OmpFork { .. })), 1);
        assert_eq!(count(|e| matches!(e, Event::OmpJoin { .. })), 1);
        // Four thread events, each with a positive span.
        assert_eq!(
            count(|e| matches!(e, Event::OmpThread { t, t_end, .. } if t_end >= t)),
            4
        );
        assert_eq!(trace.events.len(), 6);
    }

    #[test]
    fn unmatched_ends_record_as_before() {
        // Rank 1 of a hybrid job: its image observer and its OpenMP hooks
        // write to the same rank.
        let vtl = vt(2, VtConfig::all_on());
        let img = Arc::new(ImageBuilder::new("app").build());
        img.set_observer(VtRankHooks::new(Arc::clone(&vtl), 1));
        let omp = VtRankHooks::new(Arc::clone(&vtl), 1);
        let (v2, img2) = (Arc::clone(&vtl), Arc::clone(&img));
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let step = SimTime::from_micros(10);
        let charge = vtl.costs().omp_region_event;
        sim.spawn("p", 0, move |p| {
            v2.init(p, 1);
            let t0 = p.now();
            // A thread end with no recorded begin: a zero-length span at now.
            omp.on_thread_end(p, RegionId(7), 3);
            // A resume with no suspend records nothing.
            img2.resume(p, SimTime::ZERO);
            VtRankHooks::new(Arc::clone(&v2), 1).on_resume(p);
            // A suspension inside an open thread span: both spans, nested.
            omp.on_thread_begin(p, RegionId(8), 0);
            p.advance(step);
            img2.suspend(p);
            p.advance(step);
            img2.resume(p, SimTime::ZERO);
            p.advance(step);
            omp.on_thread_end(p, RegionId(8), 0);
            assert_eq!(p.now(), t0 + charge * 3 + step * 3);
        });
        sim.run();
        let events = vtl.with_rank_events(1, <[Event]>::to_vec);
        let t0 = SimTime::from_micros(400);
        let (t1, t2) = (t0 + charge, t0 + charge * 2);
        let span = |t, t_end, thread, region| Event::OmpThread {
            t,
            t_end,
            rank: 1,
            thread,
            region,
        };
        let suspended = Event::Suspended {
            t: t2 + step,
            t_end: t2 + step * 2,
            rank: 1,
        };
        let nested = span(t2, t2 + charge + step * 3, 0, 8);
        assert_eq!(events, [span(t1, t1, 3, 7), suspended, nested]);
        vtl.with_rank_events(0, |evs| assert!(evs.is_empty()));
    }

    #[test]
    fn hooks_stay_silent_before_vt_init() {
        // A pure-OpenMP app whose VT_init has not run yet must not log.
        let vtl = vt(1, VtConfig::all_on());
        let v2 = Arc::clone(&vtl);
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        sim.spawn("app", 0, move |p| {
            let hooks = VtRankHooks::new(Arc::clone(&v2), 0);
            let rt = OmpRuntime::new(p, "app", 2, vec![hooks]);
            rt.parallel(p, "early", |_| {});
            rt.shutdown(p);
        });
        sim.run();
        assert_eq!(vtl.build_trace().events.len(), 0);
    }
}
