//! The four workloads and how often each is sampled: the one table a
//! reader needs to know what a number was measured on.

/// What a workload's timed loop mostly runs. Every workload reports every
/// end-to-end metric, so the loop also takes a sample of the other kind
/// now and then (`run::measure` says how often).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Focus {
    /// `dynprof` sessions; a query set over the store just captured is
    /// the occasional other sample.
    Sessions,
    /// `vgv` query sets over one captured store; capturing it again is the
    /// occasional other sample.
    Queries,
}

/// One workload: a `dynprof` session shape and what the timed loop does.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// Why it exists (one line; `BENCHMARK.json` carries the same text).
    pub why: &'static str,
    /// Target application.
    pub app: &'static str,
    /// `cpus=`: MPI ranks, or OpenMP threads of the one process.
    pub cpus: u32,
    /// `cpus=` under `--quick`.
    pub quick_cpus: u32,
    /// `policy=`.
    pub policy: &'static str,
    /// `scale=` (absent = the app's test scale).
    pub scale: Option<&'static str>,
    /// One process per cpu (MPI) or one process in all (OpenMP).
    pub mpi: bool,
    /// Functions in the app's `subset` list: under `policy=dynamic` the
    /// script's `insert-file subset` installs this many probe pairs in
    /// every process. 0 for static policies, which install none.
    pub subset: u64,
    /// What the timed loop runs.
    pub focus: Focus,
    /// Set-up repetitions (`setup_s` is their median). Each costs a
    /// reference session, a session and a query set, so the 1152-rank
    /// shapes (2.5 s a repetition) get the fewest.
    pub setup_reps: usize,
}

impl Workload {
    /// Processes the session runs, which is also the store's rank count.
    pub fn processes(&self, cpus: u32) -> u64 {
        if self.mpi {
            u64::from(cpus)
        } else {
            1
        }
    }

    /// Probe pairs a correct session reports.
    pub fn probe_pairs(&self, cpus: u32) -> u64 {
        self.subset * self.processes(cpus)
    }
}

/// The script every session gets (static policies ignore it).
pub const SCRIPT: &str = "insert-file subset\nstart\nquit\n";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wide_sweep3d_1152",
        why: "many processes, shallow work: per-rank state, mpi matching and the capture path dominate (the paper's 144x8 machine)",
        app: "sweep3d",
        cpus: 1152,
        quick_cpus: 64,
        policy: "dynamic",
        scale: None,
        mpi: true,
        subset: 21,
        focus: Focus::Sessions,
        setup_reps: 3,
    },
    Workload {
        name: "deep_umt98_full",
        why: "one OpenMP process, all static probes active: bypasses mpi and dpcl, so sim dispatch, omp fork-join, vt record and store encode do the work",
        app: "umt98",
        cpus: 8,
        quick_cpus: 8,
        policy: "full",
        scale: Some("1"),
        mpi: false,
        subset: 0,
        focus: Focus::Sessions,
        setup_reps: 5,
    },
    Workload {
        name: "control_smg98_512",
        why: "the Fig 9 shape: dpcl control plane and image patching dominate and trace volume is small, so a capture or store change shows nothing",
        app: "smg98",
        cpus: 512,
        quick_cpus: 64,
        policy: "dynamic",
        scale: None,
        mpi: true,
        subset: 62,
        focus: Focus::Sessions,
        setup_reps: 5,
    },
    Workload {
        name: "query_sweep3d_1152",
        why: "the store layer used the other way: seven vgv reads of the wide capture, so a format change that speeds capture but slows decode shows as a loss",
        app: "sweep3d",
        cpus: 1152,
        quick_cpus: 64,
        policy: "dynamic",
        scale: None,
        mpi: true,
        subset: 21,
        focus: Focus::Queries,
        setup_reps: 3,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
