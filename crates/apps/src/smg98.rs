//! Smg98 — a semicoarsening multigrid solver (ASCI kernel, MPI/C).
//!
//! Paper Table 2 and §4.3: 199 functions, of which 62 implement the
//! multigrid solver (the `Subset`/`Dynamic` target). The input sets the
//! per-process data size, so the global problem — and the execution time —
//! grows with the processor count (weak scaling). Smg98's functions are
//! *small and very frequently called* (hypre-style box loops), which is
//! exactly why `Full` static instrumentation slows it down ~7× at 64
//! processors while `Dynamic` tracks `None`.

use std::sync::Arc;

use dynprof_core::{AppCtx, AppMode, AppSpec};
use dynprof_image::{FuncId, FunctionInfo};
use dynprof_mpi::{Sized, Source, Tag, TagSel};

use crate::workload::{
    generate_names, leaf, scaled, synthetic_blocks, work, Decomp3, Grid3, Outputs,
};

/// Number of functions in the Smg98 manifest (paper §4.3).
pub const FUNCTIONS: usize = 199;
/// Size of the solver subset (paper §4.3).
pub const SUBSET: usize = 62;

const SOLVER_STEMS: &[&str] = &[
    "hypre_SMGSolve",
    "hypre_SMGRelax",
    "hypre_SMGResidual",
    "hypre_SMGRestrict",
    "hypre_SMGIntAdd",
    "hypre_SemiInterp",
    "hypre_SemiRestrict",
    "hypre_CyclicReduction",
    "hypre_SMGAxpy",
    "hypre_SMGSetup",
    "hypre_SMGRelaxSetup",
    "hypre_SMGResidualSetup",
    "hypre_SMG2BuildRAPSym",
    "hypre_SMG3BuildRAPSym",
    "hypre_SMGSetupInterpOp",
    "hypre_SMGSetupRestrictOp",
    "hypre_SMGSetupRAPOp",
    "hypre_CycRedSetupCoarseOp",
];

const UTIL_STEMS: &[&str] = &[
    "hypre_StructAxpy",
    "hypre_StructCopy",
    "hypre_StructScale",
    "hypre_StructInnerProd",
    "hypre_StructVectorSetConstantValues",
    "hypre_StructMatvec",
    "hypre_BoxLoop",
    "hypre_BoxGetSize",
    "hypre_BoxGetStrideSize",
    "hypre_ExchangeLocalData",
    "hypre_InitializeCommunication",
    "hypre_FinalizeCommunication",
    "hypre_CommPkgCreate",
    "hypre_CommTypeSort",
    "hypre_StructVectorCreate",
    "hypre_StructVectorDestroy",
];

const DRIVER_STEMS: &[&str] = &[
    "main",
    "HYPRE_StructSMGCreate",
    "HYPRE_StructSMGSetup",
    "HYPRE_StructSMGSolve",
    "HYPRE_StructGridCreate",
    "HYPRE_StructGridAssemble",
    "HYPRE_StructMatrixCreate",
    "HYPRE_StructMatrixAssemble",
    "HYPRE_StructVectorCreate",
    "ReadInput",
    "SetupGrid",
    "SetupMatrix",
    "SetupRhs",
    "PrintTiming",
];

/// Smg98 run parameters.
#[derive(Clone)]
pub struct Smg98Params {
    /// Modelled per-process grid edge (weak scaling input).
    pub per_rank_n: usize,
    /// Base number of V-cycles at one processor; grows with log2(P)
    /// (larger global problems need more cycles to converge).
    pub base_cycles: usize,
    /// Extra V-cycles per doubling of the processor count.
    pub cycles_per_doubling: usize,
    /// Edge of the *real* grid each rank relaxes (genuine numerics).
    pub real_n: usize,
    /// Global scale on modelled leaf-call counts (1.0 = paper scale).
    pub scale: f64,
    /// Result sink.
    pub outputs: Arc<Outputs>,
}

impl Smg98Params {
    /// Paper-scale parameters.
    pub fn paper() -> Smg98Params {
        Smg98Params {
            per_rank_n: 64,
            base_cycles: 12,
            cycles_per_doubling: 3,
            real_n: 10,
            scale: 1.0,
            outputs: Outputs::new(),
        }
    }

    /// Small parameters for unit/integration tests.
    pub fn test() -> Smg98Params {
        Smg98Params {
            per_rank_n: 16,
            base_cycles: 2,
            cycles_per_doubling: 1,
            real_n: 6,
            scale: 0.01,
            outputs: Outputs::new(),
        }
    }

    /// V-cycles for `ranks` processes.
    pub fn cycles(&self, ranks: usize) -> usize {
        self.base_cycles + self.cycles_per_doubling * (ranks.max(1)).ilog2() as usize
    }

    /// Multigrid levels for `ranks` processes (the global grid deepens as
    /// the weak-scaled problem grows).
    pub fn levels(&self, ranks: usize) -> usize {
        let local = (self.per_rank_n.max(4)).ilog2() as usize;
        let global_extra = ((ranks.max(1)).ilog2() as usize).div_ceil(3);
        (local + global_extra).saturating_sub(2).max(3)
    }
}

/// The full Smg98 function manifest.
pub fn manifest() -> Vec<FunctionInfo> {
    let mut names = Vec::with_capacity(FUNCTIONS);
    names.extend(generate_names(SOLVER_STEMS, SUBSET));
    names.extend(generate_names(UTIL_STEMS, 110));
    names.extend(generate_names(DRIVER_STEMS, FUNCTIONS - SUBSET - 110));
    names
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let module = if i < SUBSET { "smg" } else { "struct_mv" };
            FunctionInfo::new(n)
                .in_module(module)
                .with_size(192)
                .with_blocks(synthetic_blocks(192))
        })
        .collect()
}

/// The solver subset instrumented by `Subset`/`Dynamic` (62 functions).
pub fn subset() -> Vec<String> {
    generate_names(SOLVER_STEMS, SUBSET)
}

fn halo_exchange(ctx: &AppCtx<'_>, d: &Decomp3, tag: Tag, bytes: usize) {
    let comm = ctx.comm();
    let nbrs = d.neighbours(ctx.rank);
    // Nonblocking (buffered) sends: posting all sends before the receives
    // stays deadlock-free even when a large `per_rank_n` pushes faces over
    // the eager limit (a blocking send would rendezvous and deadlock).
    for &n in &nbrs {
        comm.isend(ctx.p, n, tag, Sized::new(ctx.rank as u64, bytes))
            .wait(ctx.p);
    }
    for &n in &nbrs {
        let _ = comm.recv::<Sized<u64>>(ctx.p, Source::Rank(n), TagSel::Is(tag));
    }
}

struct Fids {
    solve: FuncId,
    setup: FuncId,
    relax: FuncId,
    residual: FuncId,
    restrict: FuncId,
    interp: FuncId,
    cyc_red: FuncId,
    axpy: FuncId,
    inner_prod: FuncId,
    utils: Vec<FuncId>,
}

impl Fids {
    fn resolve(ctx: &AppCtx<'_>) -> Fids {
        Fids {
            solve: ctx.fid("hypre_SMGSolve"),
            setup: ctx.fid("hypre_SMGSetup"),
            relax: ctx.fid("hypre_SMGRelax"),
            residual: ctx.fid("hypre_SMGResidual"),
            restrict: ctx.fid("hypre_SMGRestrict"),
            interp: ctx.fid("hypre_SemiInterp"),
            cyc_red: ctx.fid("hypre_CyclicReduction"),
            axpy: ctx.fid("hypre_StructAxpy"),
            inner_prod: ctx.fid("hypre_StructInnerProd"),
            utils: UTIL_STEMS.iter().map(|n| ctx.fid(n)).collect(),
        }
    }
}

/// Build the Smg98 [`AppSpec`] for an MPI job of `ranks` processes.
pub fn smg98(ranks: usize, params: Smg98Params) -> AppSpec {
    let p = params.clone();
    AppSpec::new(
        "smg98",
        manifest(),
        subset(),
        AppMode::Mpi { ranks },
        Arc::new(move |ctx| run_rank(ctx, &p)),
    )
}

/// Modelled flops of one hypre box-loop call (sets the `None` baseline:
/// calls average a few hundred nanoseconds of real work, which is what
/// makes a 1.6 µs active probe pair catastrophic for this code).
const FLOPS_PER_CALL: u64 = 75;
const BYTES_PER_CALL: u64 = 64;

fn run_rank(ctx: &AppCtx<'_>, params: &Smg98Params) {
    let d = Decomp3::new(ctx.nranks);
    let fids = Fids::resolve(ctx);
    let cycles = params.cycles(ctx.nranks);
    let levels = params.levels(ctx.nranks);
    let n3 = (params.per_rank_n * params.per_rank_n * params.per_rank_n) as u64;

    // --- Setup: grid assembly, RAP construction, comm packages. ---------
    ctx.call(fids.setup, || {
        for (i, &u) in fids.utils.iter().enumerate().take(8) {
            leaf(ctx, u, scaled(n3 / 64, params.scale), 120, 96);
            let _ = i;
        }
        // RAP: one matrix triple-product per level.
        work(ctx, scaled(n3 * 24 * levels as u64, params.scale), n3 / 2);
    });

    // --- Solve: V-cycles over the semicoarsened hierarchy. --------------
    let mut grid = Grid3::new(params.real_n);
    let r0 = grid.residual_norm();
    let mut last_res = r0;
    let tag = Tag::user(100);
    // V-cycles are simulated in blocks: a block charges `cb` cycles' worth
    // of calls and work but exchanges halos once, bounding the simulator's
    // event count without changing any per-policy accounting.
    let cb = cycles.min(4) as u64;
    let nblocks = cycles.div_ceil(cb as usize);
    for _cycle_block in 0..nblocks {
        ctx.call(fids.solve, || {
            // Down-sweep.
            for level in 0..levels {
                let pts = (n3 >> level).max(64);
                let reps = scaled(pts / 2, params.scale) * cb;
                ctx.call(fids.relax, || {
                    for &u in &fids.utils[0..4] {
                        leaf(ctx, u, reps, FLOPS_PER_CALL, BYTES_PER_CALL);
                    }
                });
                ctx.call(fids.residual, || {
                    for &u in &fids.utils[4..7] {
                        leaf(ctx, u, reps, FLOPS_PER_CALL, BYTES_PER_CALL);
                    }
                });
                ctx.call(fids.restrict, || {
                    for &u in &fids.utils[7..9] {
                        leaf(ctx, u, reps / 2, FLOPS_PER_CALL, BYTES_PER_CALL);
                    }
                });
                let face = (params.per_rank_n * params.per_rank_n * 8) >> (level / 2);
                halo_exchange(ctx, &d, tag, face.max(256));
            }
            // Coarse solve (cyclic reduction; partially serialized).
            ctx.call(fids.cyc_red, || {
                leaf(ctx, fids.utils[6], scaled(256, params.scale) * cb, 200, 128);
            });
            // Up-sweep.
            for level in (0..levels).rev() {
                let pts = (n3 >> level).max(64);
                let reps = scaled(pts / 2, params.scale) * cb;
                ctx.call(fids.interp, || {
                    for &u in &fids.utils[9..11] {
                        leaf(ctx, u, reps, FLOPS_PER_CALL, BYTES_PER_CALL);
                    }
                });
                ctx.call(fids.relax, || {
                    for &u in &fids.utils[0..4] {
                        leaf(ctx, u, reps, FLOPS_PER_CALL, BYTES_PER_CALL);
                    }
                });
                let face = (params.per_rank_n * params.per_rank_n * 8) >> (level / 2);
                halo_exchange(ctx, &d, tag, face.max(256));
            }
        });
        // Real numerics: relax the real grid once per cycle block.
        last_res = grid.jacobi_step();
        // Convergence check.
        ctx.call(fids.inner_prod, || {
            leaf(ctx, fids.axpy, scaled(n3 / 512, params.scale) * cb, 60, 32);
        });
        let global = ctx
            .comm()
            .allreduce(ctx.p, last_res, |a: f64, b: f64| a.max(b));
        debug_assert!(global.is_finite());
    }
    params.outputs.record(format!("residual0:{}", ctx.rank), r0);
    params
        .outputs
        .record(format!("residual:{}", ctx.rank), last_res);
    params
        .outputs
        .record(format!("checksum:{}", ctx.rank), grid.checksum());
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_core::{run_session, SessionConfig};
    use dynprof_sim::Machine;
    use dynprof_vt::Policy;

    #[test]
    fn manifest_matches_paper_counts() {
        let m = manifest();
        assert_eq!(m.len(), FUNCTIONS);
        let s = subset();
        assert_eq!(s.len(), SUBSET);
        let names: std::collections::HashSet<_> = m.iter().map(|f| f.name.clone()).collect();
        assert_eq!(names.len(), FUNCTIONS, "duplicate names");
        for f in &s {
            assert!(names.contains(f), "subset fn {f} missing from manifest");
        }
    }

    #[test]
    fn runs_and_converges_under_none_policy() {
        let params = Smg98Params::test();
        let outputs = Arc::clone(&params.outputs);
        let app = smg98(4, params);
        let report = run_session(
            &app,
            SessionConfig::new(Machine::test_machine(), Policy::None),
        );
        assert!(report.app_time > dynprof_sim::SimTime::ZERO);
        let r0 = outputs.get("residual0:0").unwrap();
        let r = outputs.get("residual:0").unwrap();
        assert!(r < r0, "residual did not drop: {r0} -> {r}");
        // All ranks solve the same local problem: checksums agree.
        assert_eq!(outputs.get("checksum:0"), outputs.get("checksum:3"));
        // None registers and records no subroutine instrumentation; the
        // MPI wrapper events (always present) are all that remains.
        let trace = report.vt.build_trace();
        assert!(trace.functions.is_empty(), "no VT_funcdef under None");
        assert!(trace.events.iter().all(|e| matches!(
            e,
            dynprof_vt::Event::MpiCall { .. } | dynprof_vt::Event::ConfSync { .. }
        )));
    }

    #[test]
    fn full_records_every_manifest_call() {
        let app = smg98(2, Smg98Params::test());
        let report = run_session(
            &app,
            SessionConfig::new(Machine::test_machine(), Policy::Full),
        );
        assert!(report.trace_bytes > 0);
        let vt = &report.vt;
        for name in ["hypre_SMGSolve", "hypre_StructAxpy", "hypre_SMGSetup"] {
            let id = vt
                .func_id(name)
                .unwrap_or_else(|| panic!("{name} unregistered"));
            assert!(vt.stat_of(0, id).count > 0, "{name} uncounted");
        }
    }

    #[test]
    fn policy_ordering_holds_even_at_test_scale() {
        let times: Vec<_> = [Policy::Full, Policy::FullOff, Policy::None]
            .into_iter()
            .map(|pol| {
                let app = smg98(2, Smg98Params::test());
                run_session(&app, SessionConfig::new(Machine::test_machine(), pol)).app_time
            })
            .collect();
        assert!(
            times[0] > times[1],
            "Full {} !> Full-Off {}",
            times[0],
            times[1]
        );
        assert!(
            times[1] > times[2],
            "Full-Off {} !> None {}",
            times[1],
            times[2]
        );
    }

    #[test]
    fn cycles_and_levels_grow_with_ranks() {
        let p = Smg98Params::paper();
        assert!(p.cycles(64) > p.cycles(1));
        assert!(p.levels(64) > p.levels(1));
        assert_eq!(p.cycles(1), p.base_cycles);
    }
}
