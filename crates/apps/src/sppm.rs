//! Sppm — a 3-D gas dynamics problem (simplified PPM; ASCI kernel, MPI/F77).
//!
//! Paper Table 2 and §4.3: 22 functions, 7 of which perform the majority
//! of the *computation* (the per-pencil hydro kernels). The call *count*,
//! however, is dominated by tiny per-zone helpers (`geteos`, `getflx`,
//! `putflx`), which is why `Full-Off` and `Subset` behave alike while
//! `Full` pays heavily and `Dynamic` tracks `None` — the same pattern as
//! Smg98, but milder because Sppm's functions are coarser on average.

use std::sync::Arc;

use dynprof_core::{AppCtx, AppMode, AppSpec};
use dynprof_image::{FuncId, FunctionInfo};
use dynprof_mpi::{Sized, Source, Tag, TagSel};

use crate::workload::{leaf, scaled, synthetic_blocks, work, Decomp3, Outputs};

/// Number of functions in the Sppm manifest (paper §4.3).
pub const FUNCTIONS: usize = 22;
/// Size of the hot subset (paper §4.3).
pub const SUBSET: usize = 7;

/// The seven hot hydro kernels (the `Subset`/`Dynamic` target).
const HOT: [&str; SUBSET] = [
    "sppm1d", "interf", "difuze", "riemann", "flaten", "parabola", "monot",
];

/// The remaining fifteen functions: drivers, boundary/ghost handling, and
/// the per-zone helpers that dominate the call count.
const REST: [&str; FUNCTIONS - SUBSET] = [
    "main", "runhyd", "setup", "decomp", "init", "bdrys", "ghostx", "ghosty", "ghostz", "geteos",
    "getflx", "putflx", "dump", "timing", "report",
];

/// Sppm run parameters.
#[derive(Clone)]
pub struct SppmParams {
    /// Modelled per-process zones per edge (weak scaling input).
    pub per_rank_n: usize,
    /// Base double-timesteps at one processor.
    pub base_steps: usize,
    /// Extra steps per doubling (the weak-scaled domain needs more).
    pub steps_per_doubling: usize,
    /// Real 1-D advection resolution (genuine numerics).
    pub real_n: usize,
    /// Global scale on modelled call counts.
    pub scale: f64,
    /// Result sink.
    pub outputs: Arc<Outputs>,
}

impl SppmParams {
    /// Paper-scale parameters.
    pub fn paper() -> SppmParams {
        SppmParams {
            per_rank_n: 64,
            base_steps: 6,
            steps_per_doubling: 1,
            real_n: 128,
            scale: 1.0,
            outputs: Outputs::new(),
        }
    }

    /// Small parameters for tests.
    pub fn test() -> SppmParams {
        SppmParams {
            per_rank_n: 16,
            base_steps: 2,
            steps_per_doubling: 0,
            real_n: 32,
            scale: 0.01,
            outputs: Outputs::new(),
        }
    }

    /// Timesteps for `ranks` processes.
    pub fn steps(&self, ranks: usize) -> usize {
        self.base_steps + self.steps_per_doubling * (ranks.max(1)).ilog2() as usize
    }
}

/// The full Sppm function manifest.
pub fn manifest() -> Vec<FunctionInfo> {
    HOT.iter()
        .chain(REST.iter())
        .map(|n| {
            FunctionInfo::new(*n)
                .in_module("sppm")
                .with_size(640)
                .with_blocks(synthetic_blocks(640))
        })
        .collect()
}

/// The hot subset (7 functions).
pub fn subset() -> Vec<String> {
    HOT.iter().map(|s| s.to_string()).collect()
}

/// Build the Sppm [`AppSpec`] for an MPI job of `ranks` processes.
pub fn sppm(ranks: usize, params: SppmParams) -> AppSpec {
    let p = params.clone();
    AppSpec::new(
        "sppm",
        manifest(),
        subset(),
        AppMode::Mpi { ranks },
        Arc::new(move |ctx| run_rank(ctx, &p)),
    )
}

/// A real 1-D periodic advection step (first-order upwind): the genuine
/// numerics; total mass is conserved exactly.
fn advect(u: &mut [f64], courant: f64) {
    let n = u.len();
    let prev = u.to_vec();
    for i in 0..n {
        let up = prev[(i + n - 1) % n];
        u[i] = prev[i] - courant * (prev[i] - up);
    }
}

fn ghost_exchange(ctx: &AppCtx<'_>, d: &Decomp3, fid: FuncId, tag: Tag, bytes: usize) {
    ctx.call(fid, || {
        let comm = ctx.comm();
        let nbrs = d.neighbours(ctx.rank);
        // Buffered nonblocking sends: deadlock-free above the eager limit.
        for &n in &nbrs {
            comm.isend(ctx.p, n, tag, Sized::new(0u64, bytes))
                .wait(ctx.p);
        }
        for &n in &nbrs {
            let _ = comm.recv::<Sized<u64>>(ctx.p, Source::Rank(n), TagSel::Is(tag));
        }
    });
}

fn run_rank(ctx: &AppCtx<'_>, params: &SppmParams) {
    let d = Decomp3::new(ctx.nranks);
    let n = params.per_rank_n as u64;
    let zones = n * n * n;
    let pencils = n * n;
    let steps = params.steps(ctx.nranks);

    let hot: Vec<FuncId> = HOT.iter().map(|f| ctx.fid(f)).collect();
    let runhyd = ctx.fid("runhyd");
    let setup = ctx.fid("setup");
    let geteos = ctx.fid("geteos");
    let getflx = ctx.fid("getflx");
    let putflx = ctx.fid("putflx");
    let ghosts = [ctx.fid("ghostx"), ctx.fid("ghosty"), ctx.fid("ghostz")];
    let bdrys = ctx.fid("bdrys");

    // Setup: domain decomposition and initial state.
    ctx.call(setup, || {
        work(ctx, scaled(zones * 20, params.scale), zones * 8);
    });

    // Real state: a periodic density profile, advected each step.
    let mut u: Vec<f64> = (0..params.real_n)
        .map(|i| 1.0 + (i as f64 / params.real_n as f64 * std::f64::consts::TAU).sin() * 0.5)
        .collect();
    let mass0: f64 = u.iter().sum();

    let face_bytes = (n * n * 8) as usize;
    for step in 0..steps {
        ctx.call(runhyd, || {
            for (dir, &gfid) in ghosts.iter().enumerate() {
                // Boundary fill + ghost exchange for this sweep direction.
                ctx.call(bdrys, || {
                    work(ctx, scaled(pencils * 40, params.scale), pencils * 16);
                });
                ghost_exchange(ctx, &d, gfid, Tag::user(200 + dir as u32), face_bytes);
                // The seven hot kernels run once per pencil; each call
                // processes a pencil of n zones (coarse-grained).
                for &h in &hot {
                    leaf(ctx, h, scaled(pencils, params.scale), n * 400, n * 48);
                }
                // Per-zone helpers dominate the call count: tiny work each.
                leaf(ctx, geteos, scaled(zones * 2, params.scale), 220, 48);
                leaf(ctx, getflx, scaled(zones, params.scale), 260, 64);
                leaf(ctx, putflx, scaled(zones, params.scale), 240, 64);
            }
        });
        // Real numerics once per step.
        advect(&mut u, 0.4);
        let _ = step;
    }

    let mass: f64 = u.iter().sum();
    params.outputs.record(format!("mass0:{}", ctx.rank), mass0);
    params.outputs.record(format!("mass:{}", ctx.rank), mass);
    params.outputs.record(
        format!("peak:{}", ctx.rank),
        u.iter().cloned().fold(0.0, f64::max),
    );
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
        assert_eq!(subset().len(), SUBSET);
        let names: std::collections::HashSet<_> = m.iter().map(|f| f.name.clone()).collect();
        assert_eq!(names.len(), FUNCTIONS);
    }

    #[test]
    fn advection_conserves_mass() {
        let params = SppmParams::test();
        let outputs = Arc::clone(&params.outputs);
        let app = sppm(4, params);
        run_session(
            &app,
            SessionConfig::new(Machine::test_machine(), Policy::None),
        );
        let m0 = outputs.get("mass0:0").unwrap();
        let m = outputs.get("mass:0").unwrap();
        assert!((m - m0).abs() < 1e-9 * m0.abs(), "mass drift: {m0} -> {m}");
        // Upwind diffusion must not raise the peak.
        assert!(outputs.get("peak:0").unwrap() <= 1.5 + 1e-12);
    }

    #[test]
    fn hot_subset_dominates_time_not_calls() {
        let app = sppm(2, SppmParams::test());
        let report = run_session(
            &app,
            SessionConfig::new(Machine::test_machine(), Policy::Full),
        );
        let vt = &report.vt;
        let hot_calls: u64 = HOT
            .iter()
            .map(|f| vt.stat_of(0, vt.func_id(f).unwrap()).count)
            .sum();
        let helper_calls: u64 = ["geteos", "getflx", "putflx"]
            .iter()
            .map(|f| vt.stat_of(0, vt.func_id(f).unwrap()).count)
            .sum();
        assert!(
            helper_calls > 4 * hot_calls,
            "helpers {helper_calls} should dwarf hot {hot_calls}"
        );
        // Granularity: a hot-kernel call is far coarser than a helper
        // call (that contrast is why Sppm tolerates instrumentation
        // better than Smg98, paper §4.3).
        let per_call = |f: &str| {
            let s = vt.stat_of(0, vt.func_id(f).unwrap());
            s.incl.as_secs_f64() / s.count.max(1) as f64
        };
        let hot_pc: f64 = HOT.iter().map(|f| per_call(f)).sum::<f64>() / HOT.len() as f64;
        let helper_pc: f64 = ["geteos", "getflx", "putflx"]
            .iter()
            .map(|f| per_call(f))
            .sum::<f64>()
            / 3.0;
        assert!(
            hot_pc > 3.0 * helper_pc,
            "hot per-call {hot_pc} should be much coarser than helper {helper_pc}"
        );
    }

    #[test]
    fn dynamic_is_cheaper_than_full() {
        let t_full = run_session(
            &sppm(2, SppmParams::test()),
            SessionConfig::new(Machine::test_machine(), Policy::Full),
        )
        .app_time;
        let t_dyn = run_session(
            &sppm(2, SppmParams::test()),
            SessionConfig::new(Machine::test_machine(), Policy::Dynamic),
        )
        .app_time;
        assert!(t_dyn < t_full, "Dynamic {t_dyn} !< Full {t_full}");
    }
}
