//! Target-application description.
//!
//! A [`AppSpec`] is what dynprof sees of an application: its name, its
//! function manifest (the symbol table), the "important subset" used by
//! the `Subset`/`Dynamic` policies, its parallel mode, and a body to
//! execute per process. The `dynprof-apps` crate provides the four ASCI
//! kernels as `AppSpec`s.

use std::sync::{Arc, OnceLock};

use dynprof_image::{CallerCtx, FuncId, FunctionInfo, Image, Program};
use dynprof_mpi::Comm;
use dynprof_omp::OmpRuntime;
use dynprof_sim::Proc;
use dynprof_vt::{MonitorLink, VtLib, VtRankHooks};

/// Parallel execution mode of the target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppMode {
    /// An MPI job of `ranks` processes.
    Mpi {
        /// Number of MPI ranks.
        ranks: usize,
    },
    /// A single-process OpenMP application with a team of `threads`
    /// (restricted to one SMP node, as in the paper).
    Omp {
        /// OpenMP team size.
        threads: usize,
    },
}

impl AppMode {
    /// Number of processes (MPI ranks, or 1 for OpenMP).
    pub fn processes(self) -> usize {
        match self {
            AppMode::Mpi { ranks } => ranks,
            AppMode::Omp { .. } => 1,
        }
    }

    /// Number of "CPUs" in the paper's x-axis sense.
    pub fn cpus(self) -> usize {
        match self {
            AppMode::Mpi { ranks } => ranks,
            AppMode::Omp { threads } => threads,
        }
    }
}

/// Per-process execution context handed to the application body.
pub struct AppCtx<'a> {
    /// The executing simulated process.
    pub p: &'a Proc,
    /// The communicator (MPI apps only).
    pub comm: Option<&'a Comm>,
    /// This process's executable image.
    pub image: &'a Arc<Image>,
    /// The trace library.
    pub vt: &'a Arc<VtLib>,
    /// MPI rank (0 for OpenMP apps).
    pub rank: usize,
    /// Number of ranks (1 for OpenMP apps).
    pub nranks: usize,
    /// OpenMP team size (1 for pure MPI apps).
    pub omp_threads: usize,
    /// The monitoring link `VT_confsync` polls at every safe point,
    /// carrying any attached [`dynprof_vt::OverheadController`]. `None`
    /// outside adaptive sessions: their safe points are no-ops, so those
    /// runs stay byte-identical.
    pub adaptive: Option<Arc<MonitorLink>>,
}

impl<'a> AppCtx<'a> {
    /// The communicator; panics for non-MPI apps.
    pub fn comm(&self) -> &Comm {
        self.comm.expect("MPI communicator in a non-MPI app")
    }

    /// Resolve a function id by name; panics if absent from the manifest.
    pub fn fid(&self, name: &str) -> FuncId {
        self.image
            .func(name)
            .unwrap_or_else(|| panic!("function {name:?} not in {}'s image", self.image.program()))
    }

    /// Call `fid` (thread 0) through the image, firing instrumentation.
    pub fn call<R>(&self, fid: FuncId, body: impl FnOnce() -> R) -> R {
        self.image.call(
            self.p,
            CallerCtx {
                rank: self.rank,
                thread: 0,
            },
            fid,
            body,
        )
    }

    /// Batched call of a hot leaf function (see `Image::call_batch`).
    pub fn call_batch<R>(&self, fid: FuncId, reps: u64, body: impl FnOnce(u64) -> R) -> R {
        self.image.call_batch(
            self.p,
            CallerCtx {
                rank: self.rank,
                thread: 0,
            },
            fid,
            reps,
            body,
        )
    }

    /// Batched call from an OpenMP worker thread.
    pub fn call_batch_on_thread<R>(
        &self,
        wp: &Proc,
        thread: usize,
        fid: FuncId,
        reps: u64,
        body: impl FnOnce(u64) -> R,
    ) -> R {
        self.image.call_batch(
            wp,
            CallerCtx {
                rank: self.rank,
                thread,
            },
            fid,
            reps,
            body,
        )
    }

    /// A `VT_confsync` safe point (paper §5): in an adaptive MPI session,
    /// collectively synchronize the activation table — applying any
    /// pending configuration change or controller decision. Outside
    /// adaptive sessions (or in non-MPI apps) this is a no-op, so
    /// sprinkling safe points through an application body cannot move a
    /// byte of an unadaptive run.
    pub fn safe_point(&self) {
        if let (Some(monitor), Some(comm)) = (&self.adaptive, self.comm) {
            dynprof_vt::confsync(self.vt, monitor, self.p, comm, false);
        }
    }

    /// Create this process's OpenMP runtime with Guidetrace logging wired
    /// to the trace library.
    pub fn make_omp_runtime(&self) -> OmpRuntime {
        self.make_omp_runtime_with(self.omp_threads)
    }

    /// As [`AppCtx::make_omp_runtime`], with an explicit team size (hybrid
    /// MPI/OpenMP applications choose their own, e.g. Sweep3d in Fig 4).
    pub fn make_omp_runtime_with(&self, threads: usize) -> OmpRuntime {
        OmpRuntime::new(
            self.p,
            format!("{}:{}", self.image.program(), self.rank),
            threads,
            vec![VtRankHooks::new(Arc::clone(self.vt), self.rank)],
        )
    }
}

/// Body closure type of an application.
pub type AppBody = Arc<dyn Fn(&AppCtx<'_>) + Send + Sync>;

/// A target application, as dynprof sees it.
#[derive(Clone)]
pub struct AppSpec {
    /// Application name (paper Table 2: Smg98, Sppm, Sweep3d, Umt98, ...).
    pub name: String,
    /// Full function manifest (the image symbol table).
    pub functions: Vec<FunctionInfo>,
    /// The "important subset" instrumented by `Subset` and `Dynamic`.
    pub subset: Vec<String>,
    /// Parallel mode.
    pub mode: AppMode,
    /// Per-process body.
    pub body: AppBody,
    /// The two programs `functions` compiles to — without and with static
    /// instrumentation — each built by the first [`AppSpec::program`] call
    /// that wants it and shared by every image after that.
    programs: [OnceLock<Arc<Program>>; 2],
}

impl AppSpec {
    /// The application `name`: its manifest, the "important subset", its
    /// parallel mode and its per-process body.
    pub fn new(
        name: impl Into<String>,
        functions: Vec<FunctionInfo>,
        subset: Vec<String>,
        mode: AppMode,
        body: AppBody,
    ) -> AppSpec {
        AppSpec {
            name: name.into(),
            functions,
            subset,
            mode,
            body,
            programs: Default::default(),
        }
    }

    /// Names of all manifest functions.
    pub fn function_names(&self) -> Vec<String> {
        self.functions.iter().map(|f| f.name.clone()).collect()
    }

    /// The app's executable: one [`Program`] that all of its process images
    /// share, as the ranks of a real job share one text segment and symbol
    /// table. `static_instr` selects whether the Guide compiler inserted
    /// entry/exit instrumentation (paper Table 3 policies
    /// `Full`/`Full-Off`/`Subset`). Built from `functions` as they are at
    /// the first call and cached, so finish editing the manifest first.
    pub fn program(&self, static_instr: bool) -> &Arc<Program> {
        self.programs[usize::from(static_instr)].get_or_init(|| {
            let manifest = self.functions.iter().cloned();
            Program::new(
                self.name.clone(),
                manifest.map(|f| f.static_instr(static_instr)).collect(),
            )
        })
    }

    /// One process image for this app: a fresh per-process overlay (chains,
    /// counts, suspend state) over the shared [`AppSpec::program`].
    pub fn build_image(&self, static_instr: bool) -> Arc<Image> {
        Arc::new(Image::new(Arc::clone(self.program(static_instr))))
    }
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSpec")
            .field("name", &self.name)
            .field("functions", &self.functions.len())
            .field("subset", &self.subset.len())
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_app() -> AppSpec {
        AppSpec::new(
            "toy",
            vec![FunctionInfo::new("main"), FunctionInfo::new("work")],
            vec!["work".into()],
            AppMode::Mpi { ranks: 4 },
            Arc::new(|_| {}),
        )
    }

    #[test]
    fn mode_accessors() {
        assert_eq!(AppMode::Mpi { ranks: 8 }.processes(), 8);
        assert_eq!(AppMode::Mpi { ranks: 8 }.cpus(), 8);
        assert_eq!(AppMode::Omp { threads: 4 }.processes(), 1);
        assert_eq!(AppMode::Omp { threads: 4 }.cpus(), 4);
    }

    #[test]
    fn build_image_respects_static_flag() {
        let app = toy_app();
        let dynamic = app.build_image(false);
        let stat = app.build_image(true);
        assert_eq!(dynamic.len(), 2);
        assert!(
            !dynamic
                .info(dynamic.func("work").unwrap())
                .statically_instrumented
        );
        assert!(
            stat.info(stat.func("work").unwrap())
                .statically_instrumented
        );
    }

    #[test]
    fn function_names_match_manifest() {
        assert_eq!(toy_app().function_names(), vec!["main", "work"]);
    }
}
