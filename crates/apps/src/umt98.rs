//! Umt98 — the Boltzmann transport equation on an unstructured mesh
//! (ASCI kernel, OpenMP/F77).
//!
//! Paper Table 2 and §4.3: 44 functions, most of which perform
//! initialization; 6 are responsible for most of the functionality and
//! the majority of the execution time (the `Subset`/`Dynamic` target).
//! As an OpenMP code it is restricted to a single SMP node, so the paper
//! measures 1–8 processors; the input fixes the global problem, so time
//! falls as threads are added (strong scaling).
//!
//! The sweep schedule parallelizes zones across the team with a dynamic
//! schedule (unstructured meshes balance poorly under static partitions);
//! small per-zone helper functions dominate the *call* count, giving
//! `Dynamic` its "small but noticeable" edge over the static policies
//! (Fig 7d).

use std::ops::Range;
use std::sync::Arc;

use dynprof_core::{AppCtx, AppMode, AppSpec};
use dynprof_image::{CallerCtx, FuncId, FunctionInfo, Image};
use dynprof_omp::{RegionCtx, Schedule};

use crate::workload::{generate_names, scaled, synthetic_blocks, work, Outputs};

/// Number of functions in the Umt98 manifest (paper §4.3).
pub const FUNCTIONS: usize = 44;
/// Size of the hot subset (paper §4.3).
pub const SUBSET: usize = 6;

/// The six functions responsible for most of the execution time.
const HOT: [&str; SUBSET] = [
    "snswp3d",
    "snflwxyz",
    "snneed",
    "snmoments",
    "snqq",
    "sweepscheduler",
];

/// Per-zone helpers active during the sweep (not in the subset — they are
/// "functionality", not the headline kernels, but they are called a lot).
const RUN_HELPERS: [&str; 3] = ["zonediff", "facedot", "fluxsum"];

const INIT_STEMS: &[&str] = &[
    "main",
    "rdmesh",
    "genmesh",
    "setbc",
    "partition",
    "snrqst",
    "snmref",
    "sninit",
    "rswgts",
    "angleset",
    "matprops",
    "zonegeom",
    "facegeom",
    "connect",
    "report",
];

/// Umt98 run parameters.
#[derive(Clone)]
pub struct Umt98Params {
    /// Mesh zones (strong scaling input).
    pub zones: usize,
    /// Discrete ordinates (angles).
    pub angles: usize,
    /// Transport iterations.
    pub iterations: usize,
    /// Zones claimed per dynamic-schedule grab.
    pub chunk: usize,
    /// Global scale on modelled work.
    pub scale: f64,
    /// Result sink.
    pub outputs: Arc<Outputs>,
}

impl Umt98Params {
    /// Paper-scale parameters.
    pub fn paper() -> Umt98Params {
        Umt98Params {
            zones: 48_000,
            angles: 48,
            iterations: 6,
            chunk: 128,
            scale: 1.0,
            outputs: Outputs::new(),
        }
    }

    /// Small parameters for tests.
    pub fn test() -> Umt98Params {
        Umt98Params {
            zones: 600,
            angles: 4,
            iterations: 2,
            chunk: 64,
            scale: 0.05,
            outputs: Outputs::new(),
        }
    }
}

/// The full Umt98 function manifest.
pub fn manifest() -> Vec<FunctionInfo> {
    let mut names: Vec<String> = HOT.iter().map(|s| s.to_string()).collect();
    names.extend(RUN_HELPERS.iter().map(|s| s.to_string()));
    names.extend(generate_names(
        INIT_STEMS,
        FUNCTIONS - SUBSET - RUN_HELPERS.len(),
    ));
    names
        .into_iter()
        .map(|n| {
            FunctionInfo::new(n)
                .in_module("umt")
                .with_size(1024)
                .with_blocks(synthetic_blocks(1024))
        })
        .collect()
}

/// The hot subset (6 functions).
pub fn subset() -> Vec<String> {
    HOT.iter().map(|s| s.to_string()).collect()
}

/// Build the Umt98 [`AppSpec`] for an OpenMP team of `threads`.
pub fn umt98(threads: usize, params: Umt98Params) -> AppSpec {
    let p = params.clone();
    AppSpec::new(
        "umt98",
        manifest(),
        subset(),
        AppMode::Omp { threads },
        Arc::new(move |ctx| run_process(ctx, &p)),
    )
}

/// Modelled flops of one zone-angle chunk element in `snswp3d`.
const FLOPS_PER_ZONE_ANGLE: u64 = 5800;

/// What a team thread of the zone sweep uses: the process's image and
/// rank, and the functions it calls. The team shares one.
struct ZoneSweep {
    image: Arc<Image>,
    rank: usize,
    swp: FuncId,
    helpers: Vec<FuncId>,
    scale: f64,
}

impl ZoneSweep {
    /// One team thread's chunk of zones, for one ordinate.
    fn run(&self, zones: Range<usize>, rctx: &RegionCtx<'_>) {
        let n = zones.len() as u64;
        let (wp, caller) = (
            rctx.proc,
            CallerCtx {
                rank: self.rank,
                thread: rctx.tid,
            },
        );
        let charge = |flops: u64, bytes: u64| wp.advance(wp.machine().cpu.work(flops, bytes));
        // snswp3d: one coarse call per zone chunk, doing the per-zone-angle
        // transport work.
        self.image.call_batch(wp, caller, self.swp, 1, |_| {
            charge(scaled(n * FLOPS_PER_ZONE_ANGLE, self.scale), n * 96);
        });
        // Per-zone helpers dominate the call count.
        for &h in &self.helpers {
            let reps = scaled(n, self.scale);
            self.image
                .call_batch(wp, caller, h, reps, |r| charge(r * 150, r * 48));
        }
    }
}

fn run_process(ctx: &AppCtx<'_>, params: &Umt98Params) {
    let zones = params.zones as u64;

    let f_sched = ctx.fid("sweepscheduler");
    let f_flw = ctx.fid("snflwxyz");
    let f_need = ctx.fid("snneed");
    let f_mom = ctx.fid("snmoments");
    let f_qq = ctx.fid("snqq");
    let sweep = Arc::new(ZoneSweep {
        image: Arc::clone(ctx.image),
        rank: ctx.rank,
        swp: ctx.fid("snswp3d"),
        helpers: RUN_HELPERS.iter().map(|f| ctx.fid(f)).collect(),
        scale: params.scale,
    });

    // Initialization: most of the 44 functions run exactly once here.
    for stem in INIT_STEMS {
        let fid = ctx.fid(stem);
        ctx.call(fid, || {
            work(ctx, scaled(zones * 30, params.scale), zones * 24);
        });
    }

    // Real numerics: a toy Sn iteration on a coarse angular grid whose
    // scalar flux must stay positive and converge geometrically.
    let mut phi_real = vec![1.0f64; 512];
    let mut real_err = f64::INFINITY;

    let rt = ctx.make_omp_runtime();
    for _it in 0..params.iterations {
        for _angle in 0..params.angles {
            ctx.call(f_sched, || {
                // Upstream dependency analysis for this ordinate.
                ctx.call(f_need, || {
                    work(ctx, scaled(zones * 4, params.scale), zones * 4);
                });
                let sweep = Arc::clone(&sweep);
                rt.parallel_for(
                    ctx.p,
                    "snswp3d_zones",
                    0..params.zones,
                    Schedule::Dynamic {
                        chunk: params.chunk,
                    },
                    move |zones, rctx| sweep.run(zones, rctx),
                );
            });
        }
        // Moments + flux update on the master thread.
        ctx.call(f_mom, || {
            work(ctx, scaled(zones * 60, params.scale), zones * 16);
        });
        ctx.call(f_qq, || {
            work(ctx, scaled(zones * 25, params.scale), zones * 8);
        });
        ctx.call(f_flw, || {
            work(ctx, scaled(zones * 40, params.scale), zones * 16);
        });
        // Real numerics: damped source iteration.
        let mut err = 0.0f64;
        for v in phi_real.iter_mut() {
            let nv = 0.5 * *v + 0.25;
            err = err.max((nv - *v).abs());
            *v = nv;
        }
        real_err = err;
    }
    rt.shutdown(ctx.p);

    let total: f64 = phi_real.iter().sum();
    params.outputs.record("flux_total", total);
    params.outputs.record("final_err", real_err);
    params.outputs.record(
        "min_flux",
        phi_real.iter().cloned().fold(f64::INFINITY, f64::min),
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
        assert_eq!(names.len(), FUNCTIONS, "duplicate names");
    }

    #[test]
    fn strong_scaling_with_threads() {
        let t1 = run_session(
            &umt98(1, Umt98Params::test()),
            SessionConfig::new(Machine::test_machine(), Policy::None),
        )
        .app_time;
        let t4 = run_session(
            &umt98(4, Umt98Params::test()),
            SessionConfig::new(Machine::test_machine(), Policy::None),
        )
        .app_time;
        assert!(t4 < t1, "1 thread {t1}, 4 threads {t4}");
    }

    #[test]
    fn source_iteration_converges_positive() {
        let params = Umt98Params::test();
        let outputs = Arc::clone(&params.outputs);
        run_session(
            &umt98(2, params),
            SessionConfig::new(Machine::test_machine(), Policy::None),
        );
        assert!(outputs.get("min_flux").unwrap() > 0.0);
        assert!(outputs.get("final_err").unwrap() < 1.0);
        // Fixed point of phi = phi/2 + 1/4 is 1/2; after a couple of
        // iterations the total is between 256 (limit) and 512 (start).
        let total = outputs.get("flux_total").unwrap();
        assert!(total > 256.0 && total < 512.0, "total {total}");
    }

    #[test]
    fn dynamic_beats_static_policies() {
        // Fig 7d: a noticeable benefit from dynamic instrumentation.
        let run = |pol| {
            run_session(
                &umt98(2, Umt98Params::test()),
                SessionConfig::new(Machine::test_machine(), pol),
            )
            .app_time
        };
        let full = run(Policy::Full);
        let off = run(Policy::FullOff);
        let dynamic = run(Policy::Dynamic);
        let none = run(Policy::None);
        assert!(full > off, "Full {full} !> Full-Off {off}");
        assert!(off > dynamic, "Full-Off {off} !> Dynamic {dynamic}");
        assert!(dynamic >= none, "Dynamic {dynamic} < None {none}?");
    }

    #[test]
    fn hot_functions_carry_the_time() {
        let report = run_session(
            &umt98(2, Umt98Params::test()),
            SessionConfig::new(Machine::test_machine(), Policy::Full),
        );
        let vt = &report.vt;
        let hot_incl: f64 = HOT
            .iter()
            .filter_map(|f| vt.func_id(f))
            .map(|id| vt.stat_of(0, id).incl.as_secs_f64())
            .sum();
        let init_incl: f64 = INIT_STEMS
            .iter()
            .filter_map(|f| vt.func_id(f))
            .map(|id| vt.stat_of(0, id).incl.as_secs_f64())
            .sum();
        assert!(
            hot_incl > init_incl,
            "hot {hot_incl} should outweigh init {init_incl}"
        );
    }
}
