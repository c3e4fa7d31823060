//! Sweep3d — a neutron transport problem (Sn wavefront sweep; ASCI
//! kernel, MPI/F77, optionally hybrid MPI/OpenMP as in paper Fig 4).
//!
//! Paper Table 2 and §4.3: 21 functions, all of which the `Dynamic`
//! policy instruments. The input fixes the *global* problem size, so the
//! execution time falls as processors are added (strong scaling). The
//! functions are few and coarse — a `sweep` call processes a whole block
//! of cells — so every instrumentation policy performs alike (Fig 7c):
//! the probe cost disappears into the block granularity.
//!
//! The sweep itself is the classic KBA algorithm: a 2-D process grid
//! pipelines wavefronts for each of the eight octants, receiving inflow
//! faces from upstream neighbours and forwarding outflow downstream.

use std::sync::Arc;

use dynprof_core::{AppCtx, AppMode, AppSpec};
use dynprof_image::FunctionInfo;
use dynprof_mpi::{Sized, Source, Tag, TagSel};
use dynprof_omp::Schedule;

use crate::workload::{decomp2, scaled, synthetic_blocks, work, Outputs};

/// Number of functions in the Sweep3d manifest (paper §4.3).
pub const FUNCTIONS: usize = 21;

const NAMES: [&str; FUNCTIONS] = [
    "main",
    "driver",
    "inner",
    "inner_auto",
    "sweep",
    "source",
    "flux_err",
    "snd_real",
    "rcv_real",
    "octant",
    "initialize",
    "read_input",
    "decomp",
    "task_init",
    "initgeom",
    "initsnc",
    "timers",
    "global_int_sum",
    "global_real_sum",
    "global_real_max",
    "barrier_sync",
];

/// Sweep3d run parameters.
#[derive(Clone)]
pub struct Sweep3dParams {
    /// Global cells per edge (strong scaling input).
    pub global_n: usize,
    /// Cells per k-plane block (KBA pipelining granularity).
    pub k_block: usize,
    /// Angle groups per octant.
    pub angle_groups: usize,
    /// Source/flux iterations.
    pub iterations: usize,
    /// OpenMP threads per MPI process (1 = pure MPI; Fig 4 uses 4).
    pub omp_threads: usize,
    /// Global scale on modelled work.
    pub scale: f64,
    /// Result sink.
    pub outputs: Arc<Outputs>,
}

impl Sweep3dParams {
    /// Paper-scale parameters (150³ global problem).
    pub fn paper() -> Sweep3dParams {
        Sweep3dParams {
            global_n: 150,
            k_block: 25,
            angle_groups: 3,
            iterations: 4,
            omp_threads: 1,
            scale: 1.0,
            outputs: Outputs::new(),
        }
    }

    /// Small parameters for tests.
    pub fn test() -> Sweep3dParams {
        Sweep3dParams {
            global_n: 16,
            k_block: 4,
            angle_groups: 2,
            iterations: 2,
            omp_threads: 1,
            scale: 1.0,
            outputs: Outputs::new(),
        }
    }

    /// Hybrid MPI/OpenMP variant (paper Fig 4: 8 × 4).
    pub fn with_threads(mut self, t: usize) -> Sweep3dParams {
        self.omp_threads = t;
        self
    }
}

/// The full Sweep3d function manifest.
pub fn manifest() -> Vec<FunctionInfo> {
    NAMES
        .iter()
        .map(|n| {
            FunctionInfo::new(*n)
                .in_module("sweep3d")
                .with_size(2048)
                .with_blocks(synthetic_blocks(2048))
        })
        .collect()
}

/// Sweep3d's `Dynamic` policy instruments all 21 functions (paper §4.3).
pub fn subset() -> Vec<String> {
    NAMES.iter().map(|s| s.to_string()).collect()
}

/// Build the Sweep3d [`AppSpec`] for an MPI job of `ranks` processes.
pub fn sweep3d(ranks: usize, params: Sweep3dParams) -> AppSpec {
    let p = params.clone();
    AppSpec::new(
        "sweep3d",
        manifest(),
        subset(),
        AppMode::Mpi { ranks },
        Arc::new(move |ctx| run_rank(ctx, &p)),
    )
}

/// Modelled flops per cell-angle update.
const FLOPS_PER_CELL_ANGLE: u64 = 280;

fn run_rank(ctx: &AppCtx<'_>, params: &Sweep3dParams) {
    let (px, py) = decomp2(ctx.nranks);
    let (ix, iy) = (ctx.rank % px, ctx.rank / px);
    let nx = params.global_n.div_ceil(px) as u64;
    let ny = params.global_n.div_ceil(py) as u64;
    let nz = params.global_n as u64;
    let kb = params.k_block as u64;
    let nblocks = nz.div_ceil(kb);

    let f_sweep = ctx.fid("sweep");
    let f_source = ctx.fid("source");
    let f_flux = ctx.fid("flux_err");
    let f_snd = ctx.fid("snd_real");
    let f_rcv = ctx.fid("rcv_real");
    let f_octant = ctx.fid("octant");
    let f_inner = ctx.fid("inner");
    let f_init = ctx.fid("initialize");

    ctx.call(f_init, || {
        work(
            ctx,
            scaled(nx * ny * nz * 12, params.scale),
            nx * ny * nz * 8,
        );
    });

    // Optional OpenMP team: angle groups parallelize within a block.
    let omp = (params.omp_threads > 1).then(|| ctx.make_omp_runtime_with(params.omp_threads));

    // Real numerics: accumulate scalar flux over sweeps on a coarse grid.
    let real_cells = 8usize * 8 * 8;
    let mut phi = vec![0.0f64; real_cells];

    let face_bytes = |n_a: u64, n_b: u64| ((n_a * n_b * kb * 8) as usize).min(48 * 1024);
    let tag = Tag::user(300);
    let comm = ctx.comm();

    for iter in 0..params.iterations {
        ctx.call(f_inner, || {
            ctx.call(f_source, || {
                work(
                    ctx,
                    scaled(nx * ny * nz * 20, params.scale),
                    nx * ny * nz * 8,
                );
            });
            // Eight octants; sweep direction flips per octant.
            for oct in 0..8u32 {
                ctx.call(f_octant, || {});
                let (sx, sy) = ((oct & 1) == 0, (oct & 2) == 0);
                // Upstream/downstream neighbours in the 2-D process grid.
                let up_x = if sx {
                    ix.checked_sub(1)
                } else {
                    (ix + 1 < px).then_some(ix + 1)
                };
                let dn_x = if sx {
                    (ix + 1 < px).then_some(ix + 1)
                } else {
                    ix.checked_sub(1)
                };
                let up_y = if sy {
                    iy.checked_sub(1)
                } else {
                    (iy + 1 < py).then_some(iy + 1)
                };
                let dn_y = if sy {
                    (iy + 1 < py).then_some(iy + 1)
                } else {
                    iy.checked_sub(1)
                };
                let rank_of = |x: usize, y: usize| y * px + x;

                for g in 0..params.angle_groups {
                    for _blk in 0..nblocks {
                        // Inflow faces from upstream (pipelined wavefront).
                        if let Some(x) = up_x {
                            ctx.call(f_rcv, || {
                                let _ = comm.recv::<Sized<u64>>(
                                    ctx.p,
                                    Source::Rank(rank_of(x, iy)),
                                    TagSel::Is(tag),
                                );
                            });
                        }
                        if let Some(y) = up_y {
                            ctx.call(f_rcv, || {
                                let _ = comm.recv::<Sized<u64>>(
                                    ctx.p,
                                    Source::Rank(rank_of(ix, y)),
                                    TagSel::Is(tag),
                                );
                            });
                        }
                        // Compute the block: nx × ny × kb cells, one angle
                        // group — the coarse unit the paper's sweep() is.
                        ctx.call(f_sweep, || {
                            let cells = nx * ny * kb;
                            let flops = scaled(cells * FLOPS_PER_CELL_ANGLE, params.scale);
                            match (&omp, g) {
                                (Some(rt), _) => {
                                    // Angles within the group split across
                                    // the team (Fig 4's hybrid mode).
                                    rt.parallel_for(
                                        ctx.p,
                                        "sweep_angles",
                                        0..rt.nthreads(),
                                        Schedule::static_block(),
                                        move |chunk, rctx| {
                                            let share =
                                                flops * chunk.len() as u64 / rctx.nthreads() as u64;
                                            let cpu = rctx.proc.machine().cpu;
                                            rctx.proc.advance(cpu.work(share, share / 4));
                                        },
                                    );
                                }
                                (None, _) => {
                                    work(ctx, flops, flops / 4);
                                }
                            }
                        });
                        // Outflow faces downstream.
                        if let Some(x) = dn_x {
                            ctx.call(f_snd, || {
                                comm.send(
                                    ctx.p,
                                    rank_of(x, iy),
                                    tag,
                                    Sized::new(oct as u64, face_bytes(ny, 1)),
                                );
                            });
                        }
                        if let Some(y) = dn_y {
                            ctx.call(f_snd, || {
                                comm.send(
                                    ctx.p,
                                    rank_of(ix, y),
                                    tag,
                                    Sized::new(oct as u64, face_bytes(nx, 1)),
                                );
                            });
                        }
                    }
                }
                // Real numerics: one upwind sweep accumulating flux.
                let dir = if sx { 1.0 } else { -1.0 };
                for (i, v) in phi.iter_mut().enumerate() {
                    *v += dir * ((i % 13) as f64 - 6.0) / (13.0 * (iter + 1) as f64);
                    *v = v.abs();
                }
            }
        });
        // Global convergence test.
        ctx.call(f_flux, || {
            let local: f64 = phi.iter().sum::<f64>() / phi.len() as f64;
            let err = comm.allreduce(ctx.p, local, |a: f64, b: f64| a.max(b));
            debug_assert!(err.is_finite());
        });
        // All ranks are between collectives here — a VT_confsync safe
        // point (live only in adaptive sessions; a no-op otherwise).
        ctx.safe_point();
    }
    if let Some(rt) = &omp {
        rt.shutdown(ctx.p);
    }

    let total_flux: f64 = phi.iter().sum();
    params
        .outputs
        .record(format!("flux:{}", ctx.rank), total_flux);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_core::{run_session, SessionConfig};
    use dynprof_sim::Machine;
    use dynprof_vt::Policy;

    #[test]
    fn manifest_matches_paper_counts() {
        assert_eq!(manifest().len(), FUNCTIONS);
        assert_eq!(subset().len(), FUNCTIONS, "Dynamic instruments all 21");
    }

    #[test]
    fn strong_scaling_reduces_time() {
        let t2 = run_session(
            &sweep3d(2, Sweep3dParams::test()),
            SessionConfig::new(Machine::test_machine(), Policy::None),
        )
        .app_time;
        let t8 = run_session(
            &sweep3d(8, Sweep3dParams::test()),
            SessionConfig::new(Machine::test_machine(), Policy::None),
        )
        .app_time;
        assert!(t8 < t2, "strong scaling failed: 2 ranks {t2}, 8 ranks {t8}");
    }

    #[test]
    fn policies_are_indistinguishable() {
        // Fig 7c: negligible differences between Full and None.
        let t_full = run_session(
            &sweep3d(4, Sweep3dParams::test()),
            SessionConfig::new(Machine::test_machine(), Policy::Full),
        )
        .app_time;
        let t_none = run_session(
            &sweep3d(4, Sweep3dParams::test()),
            SessionConfig::new(Machine::test_machine(), Policy::None),
        )
        .app_time;
        let ratio = t_full.as_secs_f64() / t_none.as_secs_f64();
        assert!(
            ratio < 1.10,
            "sweep3d Full should be within 10% of None, got {ratio:.3}"
        );
    }

    #[test]
    fn flux_is_positive_and_deterministic() {
        let params = Sweep3dParams::test();
        let outputs = Arc::clone(&params.outputs);
        run_session(
            &sweep3d(4, params),
            SessionConfig::new(Machine::test_machine(), Policy::None),
        );
        let f0 = outputs.get("flux:0").unwrap();
        assert!(f0 > 0.0);
        assert_eq!(outputs.get("flux:0"), outputs.get("flux:3"));
    }

    #[test]
    fn hybrid_mode_runs_with_threads() {
        let params = Sweep3dParams::test().with_threads(4);
        let app = sweep3d(4, params);
        let report = run_session(
            &app,
            SessionConfig::new(Machine::test_machine(), Policy::Full),
        );
        // OpenMP region events present in the trace.
        let trace = report.vt.build_trace();
        let forks = trace
            .events
            .iter()
            .filter(|e| matches!(e, dynprof_vt::Event::OmpFork { .. }))
            .count();
        assert!(forks > 0, "hybrid run produced no OpenMP fork events");
    }
}
