//! A dynprof session: spawn the target (held), attach, run the command
//! script, and collect measurements (paper §3.3, §4.2).
//!
//! Two paths exist, matching the paper's methodology (Table 3):
//!
//! * **static policies** (`Full`, `Full-Off`, `Subset`, `None`): the
//!   application runs alone, with static instrumentation and the VT
//!   configuration file chosen by the policy — no dynprof, no DPCL.
//! * **`Dynamic`**: dynprof spawns the target suspended, attaches through
//!   DPCL, queues instrumentation requests until the MPI_Init callback
//!   confirms it is safe (Fig 6), patches every process image, and
//!   releases the application.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_dpcl::{
    AckResult, DegradedPolicy, DpclClient, DpclSystem, HeartbeatConfig, HeartbeatMonitor,
    InstrumentationTxn, ProcessHandle, TxnOptions, TxnOutcome,
};
use dynprof_image::{Image, ProbePoint, Snippet};
use dynprof_mpi::{launch_from, Job, JobSpec, MpiHooks};
use dynprof_sim::hb::Finding;
use dynprof_sim::sync::SimGate;
use dynprof_sim::{Machine, Proc, Sim, SimTime};
use dynprof_vt::{
    vt_begin_snippet, vt_end_snippet, ControllerConfig, MonitorLink, OverheadController, Policy,
    SharedSink, VtConfig, VtFuncId, VtImageObserver, VtLib, VtMpiHooks, VtStaticHooks,
};

use crate::app::{AdaptiveRuntime, AppCtx, AppMode, AppSpec};
use crate::command::Command;
use crate::initsync::InitSync;
use crate::timefile::Timefile;

/// `poe` job-startup base cost.
pub const POE_BASE: SimTime = SimTime::from_millis(400);
/// `poe` per-process startup cost.
pub const POE_PER_PROC: SimTime = SimTime::from_millis(30);

/// Configuration of one session run.
#[derive(Clone)]
pub struct SessionConfig {
    /// Machine model to simulate.
    pub machine: Machine,
    /// Simulation seed.
    pub seed: u64,
    /// Instrumentation policy (Table 3).
    pub policy: Policy,
    /// dynprof command script; `None` uses the policy's default
    /// (`insert-file subset`, `start`, `quit` for `Dynamic`).
    pub script: Option<Vec<Command>>,
    /// Named function-list files for `insert-file`/`remove-file`. The
    /// session pre-defines `subset` (the app's important subset) and
    /// `all` (every manifest function).
    pub function_files: BTreeMap<String, Vec<String>>,
    /// First node of the application placement.
    pub app_base_node: usize,
    /// Node the instrumenter runs on (the paper used the few interactive
    /// nodes of the batch system).
    pub instrumenter_node: usize,
    /// Journal per-call PC intervals in every image (enables post-run
    /// evaluation of an ideal statistical sampler; see
    /// `dynprof_vt::sample_image`).
    pub enable_pc_log: bool,
    /// Run multi-node instrumentation changes as 2PC transactions
    /// (`None`: the classic multicast path).
    pub txn: Option<TxnSettings>,
    /// Redundancy-suppression floor: entry/exit pairs shorter than this
    /// are elided from the trace (coalesced into per-function
    /// suppressed-count events; profiles stay exact). `ZERO` disables
    /// suppression and is byte-identical to not setting it at all.
    pub suppress_floor: SimTime,
    /// Closed-loop adaptive instrumentation (`None`: no controller, no
    /// confsync at safe points — byte-identical to earlier sessions).
    pub adaptive: Option<AdaptiveSettings>,
    /// Capture sink: the session's trace library sends every event into
    /// this sink's per-rank lanes as it happens and buffers none (`None`:
    /// events stay in the library's per-rank buffers, readable from
    /// [`SessionReport::vt`] after the run). The session closes the lanes
    /// when the run ends; the caller keeps a handle and finishes the sink
    /// once the session returns. Costs no virtual time either way.
    pub capture: Option<SharedSink>,
}

/// Settings of the closed-loop overhead controller attached to an
/// adaptive session. The controller observes per-probe cost at each
/// `VT_confsync` safe point and rewrites the activation table to keep
/// measured instrumentation overhead under `budget_pct`.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveSettings {
    /// Overhead budget in percent of application time
    /// (`f64::INFINITY`: observe only, never reconfigure).
    pub budget_pct: f64,
    /// Re-probe one deactivated function every this many under-budget
    /// decisions (0 disables re-probing).
    pub reprobe_every: u64,
}

impl AdaptiveSettings {
    /// A controller enforcing `budget_pct`, with the default re-probe
    /// schedule.
    pub fn budget(budget_pct: f64) -> AdaptiveSettings {
        AdaptiveSettings {
            budget_pct,
            reprobe_every: ControllerConfig::default().reprobe_every,
        }
    }

    /// Observe-only: record measured overhead per epoch, never deactivate.
    pub fn observer() -> AdaptiveSettings {
        AdaptiveSettings::budget(f64::INFINITY)
    }
}

/// Transactional-epoch settings for the `Dynamic` policy.
#[derive(Clone)]
pub struct TxnSettings {
    /// Reaction to a failed participant.
    pub policy: DegradedPolicy,
    /// Run a heartbeat failure detector alongside the session (it feeds
    /// the coordinator's dead-node pre-check). Only spawned under a
    /// non-inert fault plan — undisturbed runs stay byte-identical.
    pub heartbeat: bool,
    /// Pre-flight probe-plan validator (normally `dynprof-check`'s
    /// analyzer, injected as a closure to keep the crate graph acyclic);
    /// called with the function names about to be instrumented. Any
    /// error finding aborts the transaction before a message is sent.
    #[allow(clippy::type_complexity)]
    pub validator: Option<Arc<dyn Fn(&[String]) -> Vec<Finding> + Send + Sync>>,
}

impl TxnSettings {
    /// Settings with the given degraded-mode policy, heartbeat on, no
    /// validator.
    pub fn new(policy: DegradedPolicy) -> TxnSettings {
        TxnSettings {
            policy,
            heartbeat: true,
            validator: None,
        }
    }
}

impl SessionConfig {
    /// Defaults for `machine`/`policy`: seed 42, app on node 0, the
    /// instrumenter on the machine's last node.
    pub fn new(machine: Machine, policy: Policy) -> SessionConfig {
        let instrumenter_node = machine.nodes - 1;
        SessionConfig {
            machine,
            seed: 42,
            policy,
            script: None,
            function_files: BTreeMap::new(),
            app_base_node: 0,
            instrumenter_node,
            enable_pc_log: false,
            txn: None,
            suppress_floor: SimTime::ZERO,
            adaptive: None,
            capture: None,
        }
    }

    /// Capture the run through `sink` as it happens instead of buffering
    /// the trace in the library.
    pub fn with_capture(mut self, sink: SharedSink) -> SessionConfig {
        self.capture = Some(sink);
        self
    }

    /// Run instrumentation changes through the 2PC transactional control
    /// plane.
    pub fn with_txn(mut self, settings: TxnSettings) -> SessionConfig {
        self.txn = Some(settings);
        self
    }

    /// Attach a closed-loop overhead controller; the application's
    /// [`AppCtx::safe_point`]s become live `VT_confsync` epochs.
    pub fn with_adaptive(mut self, settings: AdaptiveSettings) -> SessionConfig {
        self.adaptive = Some(settings);
        self
    }

    /// Elide entry/exit pairs shorter than `floor` from the trace.
    pub fn with_suppress_floor(mut self, floor: SimTime) -> SessionConfig {
        self.suppress_floor = floor;
        self
    }

    /// Enable PC-interval journaling (statistical-sampling studies).
    pub fn with_pc_log(mut self) -> SessionConfig {
        self.enable_pc_log = true;
        self
    }

    /// Use a specific seed.
    pub fn with_seed(mut self, seed: u64) -> SessionConfig {
        self.seed = seed;
        self
    }

    /// Use a custom dynprof script.
    pub fn with_script(mut self, script: Vec<Command>) -> SessionConfig {
        self.script = Some(script);
        self
    }

    /// The default Dynamic-policy script (paper §4.2: instrument the
    /// subset before the main computation begins, then run).
    pub fn default_dynamic_script() -> Vec<Command> {
        vec![
            Command::InsertFile(vec!["subset".into()]),
            Command::Start,
            Command::Quit,
        ]
    }
}

/// Measurements of one session.
pub struct SessionReport {
    /// The policy that ran.
    pub policy: Policy,
    /// Application main-computation time: latest body end minus earliest
    /// body start (excludes startup instrumentation, which happens while
    /// the target is suspended — paper §4.2).
    pub app_time: SimTime,
    /// Full simulation makespan.
    pub total_time: SimTime,
    /// Time to create (spawn + attach) the target (Fig 9 component).
    pub create_time: SimTime,
    /// Time to insert the startup instrumentation (Fig 9 component).
    pub instrument_time: SimTime,
    /// Modelled trace volume produced.
    pub trace_bytes: u64,
    /// Probes installed at startup (entry+exit pairs).
    pub probe_pairs_installed: usize,
    /// dynprof's internal timefile.
    pub timefile: Arc<Timefile>,
    /// The trace library: runtime statistics, and the buffered trace
    /// unless the session ran with a [`SessionConfig::capture`] sink (the
    /// events went there; the library then holds none).
    pub vt: Arc<VtLib>,
    /// Diagnostics (unknown functions, failed installs, ...).
    pub warnings: Vec<String>,
    /// The per-process images (inspection: call counts, PC journals).
    pub images: Vec<Arc<Image>>,
    /// The overhead controller, when the session ran adaptively
    /// (decision log, measured-overhead series).
    pub controller: Option<Arc<OverheadController>>,
    /// What the session's receives cost (inspection: the queue-discipline
    /// bounds).
    pub recv_cost: RecvCost,
}

/// What receiving cost a session, per kind of channel: `(examined,
/// received)` — queued messages that receives looked at, and messages they
/// delivered — or `(0, 0)` where the session had no such channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecvCost {
    /// The DPCL control plane's FIFO channels (`DpclSystem::recv_cost`).
    pub fifo: (u64, u64),
    /// The MPI job's unordered mailboxes (`Job::recv_cost`).
    pub mpi: (u64, u64),
}

impl SessionReport {
    /// Fig 9's metric: create + instrument.
    pub fn create_and_instrument(&self) -> SimTime {
        self.create_time + self.instrument_time
    }
}

struct BodyTimes {
    times: Mutex<Vec<Option<(SimTime, SimTime)>>>,
}

impl BodyTimes {
    fn new(n: usize) -> Arc<BodyTimes> {
        Arc::new(BodyTimes {
            times: Mutex::new(vec![None; n]),
        })
    }

    fn record(&self, rank: usize, start: SimTime, end: SimTime) {
        self.times.lock()[rank] = Some((start, end));
    }

    fn app_time(&self) -> SimTime {
        let times = self.times.lock();
        let mut min = SimTime::MAX;
        let mut max = SimTime::ZERO;
        for t in times.iter().flatten() {
            min = min.min(t.0);
            max = max.max(t.1);
        }
        if min == SimTime::MAX {
            SimTime::ZERO
        } else {
            max - min
        }
    }
}

/// The session's trace library, its capture sink (if any) installed
/// before anything can record.
fn new_vt(app: &AppSpec, cfg: &SessionConfig, config: VtConfig) -> Arc<VtLib> {
    let vt = VtLib::new(&app.name, app.mode.processes(), config, cfg.machine.probe);
    if let Some(sink) = &cfg.capture {
        vt.set_sink(Arc::clone(sink));
    }
    vt
}

/// The session's process images, one per process — the only place a
/// session builds images (dynlint's `image-construction` rule). All of
/// them share the app's program; each is its own overlay, wired to the
/// trace library: static hooks where the policy compiled instrumentation
/// in, and the §5.1 observer that records a suspension window should a
/// daemon ever suspend the process.
fn process_images(
    app: &AppSpec,
    cfg: &SessionConfig,
    vt: &Arc<VtLib>,
    static_instr: bool,
) -> Arc<Vec<Arc<Image>>> {
    let image = |rank| {
        let img = app.build_image(static_instr);
        if static_instr {
            img.set_static_hooks(VtStaticHooks::for_image(Arc::clone(vt), &img));
        }
        img.set_observer(VtImageObserver::new(Arc::clone(vt), rank));
        if cfg.enable_pc_log {
            img.enable_pc_log();
        }
        img
    };
    Arc::new((0..app.mode.processes()).map(image).collect())
}

/// Instantiate the adaptive runtime of a session: set the trace library's
/// suppression floor and, when a controller is configured, build the
/// monitor link the application's safe points will poll. Returns `(None,
/// None)` for unadaptive sessions — no link, no confsync, no new bytes.
fn make_adaptive(
    cfg: &SessionConfig,
    vt: &Arc<VtLib>,
) -> (
    Option<Arc<AdaptiveRuntime>>,
    Option<Arc<OverheadController>>,
) {
    if cfg.suppress_floor > SimTime::ZERO {
        vt.set_suppress_floor(cfg.suppress_floor);
    }
    match &cfg.adaptive {
        None => (None, None),
        Some(s) => {
            let ctrl = OverheadController::new(ControllerConfig {
                budget_pct: s.budget_pct,
                reprobe_every: s.reprobe_every,
                ..ControllerConfig::default()
            });
            let monitor = MonitorLink::new();
            monitor.attach_controller(Arc::clone(&ctrl));
            let runtime = AdaptiveRuntime {
                monitor,
                write_stats: false,
            };
            (Some(Arc::new(runtime)), Some(ctrl))
        }
    }
}

/// Run one session of `app` under `cfg` and return the measurements.
pub fn run_session(app: &AppSpec, cfg: SessionConfig) -> SessionReport {
    match cfg.policy {
        Policy::Dynamic => run_dynamic(app, cfg),
        _ => run_static(app, cfg),
    }
}

/// Attach to an *already executing* application (the extension paper §3.3
/// leaves as future work: "we do not foresee any difficult issues in
/// extending our tool to support dynamic attachment").
///
/// The target launches normally (no hold gate, no startup deferral); at
/// `attach_at`, dynprof attaches through DPCL, suspends every process,
/// installs entry/exit probes for the app's subset, resumes, waits for
/// `observe`, removes its instrumentation again, and detaches — an
/// ephemeral observation window in the middle of an uninstrumented run.
pub fn run_attach_session(
    app: &AppSpec,
    cfg: SessionConfig,
    attach_at: SimTime,
    observe: SimTime,
) -> SessionReport {
    let processes = app.mode.processes();
    let vt = new_vt(app, &cfg, VtConfig::all_on());
    let images = process_images(app, &cfg, &vt, false);
    let sim = Sim::virtual_time(cfg.machine.clone(), cfg.seed);
    let times = BodyTimes::new(processes);
    let timefile = Arc::new(Timefile::new());
    let system = DpclSystem::new(["dynprof"]);
    let warnings: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let pairs_out: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
    let (adaptive, controller) = make_adaptive(&cfg, &vt);
    let mut job_out = None;

    // The application starts on its own — nobody is holding it.
    let nodes_of: Vec<usize> = match app.mode {
        AppMode::Mpi { ranks } => {
            let (vt3, imgs, times3, body) = (
                Arc::clone(&vt),
                Arc::clone(&images),
                Arc::clone(&times),
                Arc::clone(&app.body),
            );
            let adaptive2 = adaptive.clone();
            let job = dynprof_mpi::launch(
                &sim,
                JobSpec::new(&app.name, ranks).on_node(cfg.app_base_node),
                vec![VtMpiHooks::new(Arc::clone(&vt))],
                move |p, comm| {
                    comm.init(p);
                    let rank = comm.rank();
                    let t0 = p.now();
                    body(&AppCtx {
                        p,
                        comm: Some(comm),
                        image: &imgs[rank],
                        vt: &vt3,
                        rank,
                        nranks: ranks,
                        omp_threads: 1,
                        adaptive: adaptive2.clone(),
                    });
                    times3.record(rank, t0, p.now());
                    comm.finalize(p);
                },
            );
            let nodes = (0..ranks).map(|r| job.node_of(r, &cfg.machine)).collect();
            job_out = Some(job);
            nodes
        }
        AppMode::Omp { threads } => {
            let (vt3, imgs, times3, body) = (
                Arc::clone(&vt),
                Arc::clone(&images),
                Arc::clone(&times),
                Arc::clone(&app.body),
            );
            let adaptive2 = adaptive.clone();
            let name = app.name.clone();
            let node = cfg.app_base_node;
            sim.spawn(name, node, move |p| {
                vt3.init(p, 0);
                let t0 = p.now();
                body(&AppCtx {
                    p,
                    comm: None,
                    image: &imgs[0],
                    vt: &vt3,
                    rank: 0,
                    nranks: 1,
                    omp_threads: threads,
                    adaptive: adaptive2.clone(),
                });
                times3.record(0, t0, p.now());
                vt3.finalize(p, 0);
            });
            vec![node]
        }
    };

    {
        let vt = Arc::clone(&vt);
        let images = Arc::clone(&images);
        let timefile = Arc::clone(&timefile);
        let subset = app.subset.clone();
        let name = app.name.clone();
        let warnings2 = Arc::clone(&warnings);
        let pairs2 = Arc::clone(&pairs_out);
        let system = Arc::clone(&system);
        sim.spawn("dynprof-attach", cfg.instrumenter_node, move |p| {
            p.sleep_until(attach_at);
            let client = DpclClient::new(system, "dynprof");
            // Attach to the live processes.
            let t0 = p.now();
            let mut handles = Vec::new();
            for (i, &node) in nodes_of.iter().enumerate() {
                match client.attach(p, node, Arc::clone(&images[i]), format!("{name}:{i}")) {
                    Ok(h) => handles.push(h),
                    Err(e) => {
                        warnings2.lock().push(format!("attach failed: {e}"));
                        client.shutdown(p);
                        return;
                    }
                }
            }
            timefile.record("attach", t0, p.now());
            // Instrument only if VT is up everywhere (it initializes inside
            // MPI_Init / at the start of main; attaching that early would
            // be unsafe — the same constraint as §3.4).
            if !(0..handles.len()).all(|r| vt.is_initialized(r)) {
                warnings2
                    .lock()
                    .push("attach: VT not initialized everywhere; skipping".into());
                client.shutdown(p);
                return;
            }
            // Suspend, install subset probes, resume.
            let t0 = p.now();
            let reqs: Vec<_> = handles.iter().map(|h| client.suspend(p, h)).collect();
            client.wait_all(p, &reqs);
            let mut reqs = Vec::new();
            let mut pairs = 0usize;
            for fname in &subset {
                let fid = match handles[0].image.func(fname) {
                    Some(f) => f,
                    None => continue,
                };
                let vtid = vt.funcdef(p, fname);
                let (begin, end) = vt_snippet_pair(&vt, vtid);
                for h in &handles {
                    reqs.push(client.install_probe(p, h, ProbePoint::entry(fid), begin.clone()));
                    reqs.push(client.install_probe(p, h, ProbePoint::exit(fid), end.clone()));
                    pairs += 1;
                }
            }
            let failures = install_failures(&client.wait_all(p, &reqs));
            if !failures.is_empty() {
                warnings2.lock().push(failures);
            }
            *pairs2.lock() = pairs;
            let resumes: Vec<_> = handles.iter().map(|h| client.resume(p, h)).collect();
            client.wait_all(p, &resumes);
            timefile.record("instrument", t0, p.now());
            // Observe, then remove everything and detach.
            p.sleep(observe);
            let t0 = p.now();
            let reqs: Vec<_> = handles.iter().map(|h| client.suspend(p, h)).collect();
            client.wait_all(p, &reqs);
            let mut reqs = Vec::new();
            for fname in &subset {
                if let Some(fid) = handles[0].image.func(fname) {
                    for h in &handles {
                        reqs.push(client.remove_function(p, h, fid));
                    }
                }
            }
            client.wait_all(p, &reqs);
            let resumes: Vec<_> = handles.iter().map(|h| client.resume(p, h)).collect();
            client.wait_all(p, &resumes);
            timefile.record("remove", t0, p.now());
            client.shutdown(p);
        });
    }

    let total = sim.run();
    vt.close_lanes();
    let pairs = *pairs_out.lock();
    let warnings = std::mem::take(&mut *warnings.lock());
    SessionReport {
        policy: cfg.policy,
        app_time: times.app_time(),
        total_time: total,
        create_time: timefile.total("attach"),
        instrument_time: timefile.total("instrument"),
        trace_bytes: vt.total_trace_bytes(),
        probe_pairs_installed: pairs,
        timefile,
        vt,
        warnings,
        images: images.to_vec(),
        controller,
        recv_cost: RecvCost {
            fifo: system.recv_cost(),
            mpi: job_out.map_or((0, 0), |job| job.recv_cost()),
        },
    }
}

/// The `VT_begin`/`VT_end` snippets of one function, compiled and
/// verified once; installs clone the pair per process (a `Snippet` is
/// all `Arc`s) instead of rebuilding it for each of up to 1152 handles.
fn vt_snippet_pair(vt: &Arc<VtLib>, func: VtFuncId) -> (Snippet, Snippet) {
    (
        vt_begin_snippet(Arc::clone(vt), func),
        vt_end_snippet(Arc::clone(vt), func),
    )
}

/// Summarize failed install acks: the count plus each distinct typed
/// reason (verifier rejections, patch hazards, timeouts). Empty when
/// every ack succeeded.
fn install_failures(acks: &[(dynprof_dpcl::ReqId, AckResult)]) -> String {
    let mut reasons: Vec<String> = acks
        .iter()
        .filter_map(|(_, r)| match r {
            AckResult::Ok { .. } => None,
            AckResult::Error { message } => Some(message.clone()),
            AckResult::TimedOut { attempts } => {
                Some(format!("timed out after {attempts} attempt(s)"))
            }
        })
        .collect();
    if reasons.is_empty() {
        return String::new();
    }
    let n = reasons.len();
    reasons.sort_unstable();
    reasons.dedup();
    format!("{n} probe installs failed: {}", reasons.join("; "))
}

fn make_function_files(app: &AppSpec, cfg: &SessionConfig) -> BTreeMap<String, Vec<String>> {
    let mut files = cfg.function_files.clone();
    files
        .entry("subset".into())
        .or_insert_with(|| app.subset.clone());
    files
        .entry("all".into())
        .or_insert_with(|| app.function_names());
    files
}

// ---------------------------------------------------------------------------
// Static policies: plain (instrumented) runs, no dynprof.
// ---------------------------------------------------------------------------

fn run_static(app: &AppSpec, cfg: SessionConfig) -> SessionReport {
    let processes = app.mode.processes();
    let vt = new_vt(app, &cfg, cfg.policy.config(&app.subset));
    let images = process_images(app, &cfg, &vt, cfg.policy.static_instrumentation());
    let sim = Sim::virtual_time(cfg.machine.clone(), cfg.seed);
    let times = BodyTimes::new(processes);
    let (adaptive, controller) = make_adaptive(&cfg, &vt);

    let job = match app.mode {
        AppMode::Mpi { ranks } => {
            let (vt2, imgs, times2, body) = (
                Arc::clone(&vt),
                Arc::clone(&images),
                Arc::clone(&times),
                Arc::clone(&app.body),
            );
            let adaptive2 = adaptive.clone();
            let omp_threads = 1;
            let job = dynprof_mpi::launch(
                &sim,
                JobSpec::new(&app.name, ranks).on_node(cfg.app_base_node),
                vec![VtMpiHooks::new(Arc::clone(&vt))],
                move |p, comm| {
                    comm.init(p);
                    let rank = comm.rank();
                    let t0 = p.now();
                    body(&AppCtx {
                        p,
                        comm: Some(comm),
                        image: &imgs[rank],
                        vt: &vt2,
                        rank,
                        nranks: ranks,
                        omp_threads,
                        adaptive: adaptive2.clone(),
                    });
                    times2.record(rank, t0, p.now());
                    comm.finalize(p);
                },
            );
            Some(job)
        }
        AppMode::Omp { threads } => {
            let (vt2, imgs, times2, body) = (
                Arc::clone(&vt),
                Arc::clone(&images),
                Arc::clone(&times),
                Arc::clone(&app.body),
            );
            let adaptive2 = adaptive.clone();
            let name = app.name.clone();
            let node = cfg.app_base_node;
            sim.spawn(name, node, move |p| {
                // Guide statically inserts VT_init at the start of main.
                vt2.init(p, 0);
                let t0 = p.now();
                body(&AppCtx {
                    p,
                    comm: None,
                    image: &imgs[0],
                    vt: &vt2,
                    rank: 0,
                    nranks: 1,
                    omp_threads: threads,
                    adaptive: adaptive2.clone(),
                });
                times2.record(0, t0, p.now());
                vt2.finalize(p, 0);
            });
            None
        }
    };
    let total = sim.run();
    vt.close_lanes();
    SessionReport {
        policy: cfg.policy,
        app_time: times.app_time(),
        total_time: total,
        create_time: SimTime::ZERO,
        instrument_time: SimTime::ZERO,
        trace_bytes: vt.total_trace_bytes(),
        probe_pairs_installed: 0,
        timefile: Arc::new(Timefile::new()),
        vt,
        warnings: Vec::new(),
        images: images.to_vec(),
        controller,
        recv_cost: RecvCost {
            fifo: (0, 0),
            mpi: job.map_or((0, 0), |job| job.recv_cost()),
        },
    }
}

// ---------------------------------------------------------------------------
// Dynamic policy: a full dynprof session.
// ---------------------------------------------------------------------------

struct DynState {
    client: DpclClient,
    sync: Arc<InitSync>,
    handles: Vec<ProcessHandle>,
    vt: Arc<VtLib>,
    timefile: Arc<Timefile>,
    files: BTreeMap<String, Vec<String>>,
    warnings: Vec<String>,
    pairs_installed: usize,
    started: bool,
    txn: Option<TxnSettings>,
    monitor: Option<Arc<HeartbeatMonitor>>,
}

impl DynState {
    fn resolve_files(&mut self, files: &[String]) -> Vec<String> {
        let mut names = Vec::new();
        for f in files {
            match self.files.get(f) {
                Some(list) => names.extend(list.iter().cloned()),
                None => self
                    .warnings
                    .push(format!("insert-file: unknown function list {f:?}")),
            }
        }
        names
    }

    /// Install entry/exit VT probes for `names` in every process.
    fn install(&mut self, p: &Proc, names: &[String]) {
        let t0 = p.now();
        if self.handles.is_empty() {
            self.warnings
                .push("install: no attached processes; nothing to do".into());
            return;
        }
        // The 2PC control plane only engages under a live fault plan: an
        // inert plan cannot produce a partial epoch, so transactional
        // sessions take the classic path and stay byte-identical to
        // untransacted runs (the `InstrumentationTxn` fast path guards
        // direct library users the same way).
        let faulty = p.fault_plan().is_some_and(|plan| !plan.is_inert());
        match self.txn.clone() {
            Some(settings) if faulty => self.install_txn(p, names, &settings),
            _ => self.install_multicast(p, names),
        }
        self.timefile.record("instrument", t0, p.now());
    }

    /// The classic path: multicast install requests, then wait for every
    /// ack.
    fn install_multicast(&mut self, p: &Proc, names: &[String]) {
        let mut reqs = Vec::new();
        for name in names {
            let fid = match self.handles[0].image.func(name) {
                Some(f) => f,
                None => {
                    self.warnings
                        .push(format!("insert: unknown function {name:?}"));
                    continue;
                }
            };
            // dynprof registers the symbol with Vampirtrace (§3.4).
            let vtid = self.vt.funcdef(p, name);
            let (begin, end) = vt_snippet_pair(&self.vt, vtid);
            for h in &self.handles {
                reqs.push(
                    self.client
                        .install_probe(p, h, ProbePoint::entry(fid), begin.clone()),
                );
                reqs.push(
                    self.client
                        .install_probe(p, h, ProbePoint::exit(fid), end.clone()),
                );
            }
            self.pairs_installed += self.handles.len();
        }
        let failures = install_failures(&self.client.wait_all(p, &reqs));
        if !failures.is_empty() {
            self.warnings.push(failures);
        }
    }

    /// The transactional path: stage the same probe batch, then run the
    /// 2PC protocol so either every process gets the epoch or none does
    /// (or, under `exclude-node`, the run is explicitly degraded).
    fn install_txn(&mut self, p: &Proc, names: &[String], settings: &TxnSettings) {
        let mut txn = InstrumentationTxn::new(TxnOptions {
            policy: settings.policy,
            ..TxnOptions::default()
        });
        let pairs_before = self.pairs_installed;
        let mut staged_names: Vec<String> = Vec::new();
        for name in names {
            let fid = match self.handles[0].image.func(name) {
                Some(f) => f,
                None => {
                    self.warnings
                        .push(format!("insert: unknown function {name:?}"));
                    continue;
                }
            };
            let vtid = self.vt.funcdef(p, name);
            let (begin, end) = vt_snippet_pair(&self.vt, vtid);
            for h in &self.handles {
                txn.stage_install(h, ProbePoint::entry(fid), begin.clone());
                txn.stage_install(h, ProbePoint::exit(fid), end.clone());
            }
            self.pairs_installed += self.handles.len();
            staged_names.push(name.clone());
        }
        let v = settings.validator.clone();
        let validator_closure = v.map(|v| move || v(&staged_names));
        let validator: Option<&dyn Fn() -> Vec<Finding>> = validator_closure
            .as_ref()
            .map(|c| c as &dyn Fn() -> Vec<Finding>);
        let report = txn.execute(p, &self.client, validator, self.monitor.as_deref());
        if report.two_phase {
            // Actual coverage: each committed op is one probe.
            self.pairs_installed = pairs_before + (report.applied / 2) as usize;
        }
        match &report.outcome {
            TxnOutcome::Committed => {}
            TxnOutcome::CommittedDegraded { excluded } => {
                self.vt.note_degraded(report.epoch, excluded);
                self.warnings.push(format!(
                    "txn epoch {} committed degraded; excluded nodes {excluded:?}",
                    report.epoch
                ));
            }
            TxnOutcome::Aborted { reason } => {
                self.warnings
                    .push(format!("txn epoch {} aborted: {reason}", report.epoch));
            }
            TxnOutcome::ValidationFailed { errors } => {
                for e in errors {
                    self.warnings.push(format!("txn validation: {e}"));
                }
            }
        }
        for f in &report.op_failures {
            self.warnings.push(format!("txn install failed: {f}"));
        }
        for node in &report.unconfirmed {
            self.warnings
                .push(format!("txn decision to node {node} unconfirmed"));
        }
    }

    /// Remove all instrumentation from `names` in every process.
    fn remove(&mut self, p: &Proc, names: &[String]) {
        let t0 = p.now();
        if self.handles.is_empty() {
            self.warnings
                .push("remove: no attached processes; nothing to do".into());
            return;
        }
        let mut reqs = Vec::new();
        for name in names {
            let fid = match self.handles[0].image.func(name) {
                Some(f) => f,
                None => {
                    self.warnings
                        .push(format!("remove: unknown function {name:?}"));
                    continue;
                }
            };
            for h in &self.handles {
                reqs.push(self.client.remove_function(p, h, fid));
            }
        }
        self.client.wait_all(p, &reqs);
        self.timefile.record("remove", t0, p.now());
    }

    /// Suspend every process, run `f`, resume every process — the paper's
    /// mid-run modification procedure ("all processes are first
    /// suspended", §3.4).
    fn while_suspended(&mut self, p: &Proc, f: impl FnOnce(&mut Self, &Proc)) {
        let reqs: Vec<_> = self
            .handles
            .iter()
            .map(|h| self.client.suspend(p, h))
            .collect();
        self.client.wait_all(p, &reqs);
        f(self, p);
        let reqs: Vec<_> = self
            .handles
            .iter()
            .map(|h| self.client.resume(p, h))
            .collect();
        // Wait for the resumes to land so a subsequent quit/shutdown can
        // never overtake them.
        self.client.wait_all(p, &reqs);
    }
}

fn run_dynamic(app: &AppSpec, cfg: SessionConfig) -> SessionReport {
    let processes = app.mode.processes();
    let vt = new_vt(app, &cfg, cfg.policy.config(&app.subset));
    let images = process_images(app, &cfg, &vt, false);
    let sim = Sim::virtual_time(cfg.machine.clone(), cfg.seed);
    let times = BodyTimes::new(processes);
    let timefile = Arc::new(Timefile::new());
    let system = DpclSystem::new(["dynprof"]);
    let script = cfg
        .script
        .clone()
        .unwrap_or_else(SessionConfig::default_dynamic_script);
    let files = make_function_files(app, &cfg);
    let start_gate = Arc::new(SimGate::new());
    let warnings: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let pairs_out: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
    let job_out: Arc<Mutex<Option<Job>>> = Arc::new(Mutex::new(None));
    let (adaptive, controller) = make_adaptive(&cfg, &vt);

    {
        let vt = Arc::clone(&vt);
        let images = Arc::clone(&images);
        let times = Arc::clone(&times);
        let timefile = Arc::clone(&timefile);
        let app = app.clone();
        let machine = cfg.machine.clone();
        let start_gate2 = Arc::clone(&start_gate);
        let warnings2 = Arc::clone(&warnings);
        let pairs_out2 = Arc::clone(&pairs_out);
        let job_out2 = Arc::clone(&job_out);
        let system = Arc::clone(&system);
        let app_base = cfg.app_base_node;
        let txn_settings = cfg.txn.clone();
        let adaptive = adaptive.clone();
        sim.spawn("dynprof", cfg.instrumenter_node, move |p| {
            let client = DpclClient::new(system, "dynprof");
            let sync = InitSync::new(&client, processes);

            // ---- create: spawn the target suspended, attach everywhere.
            let t_create = p.now();
            p.advance(POE_BASE + POE_PER_PROC * processes as u64);
            let nodes_of: Vec<usize> = match app.mode {
                AppMode::Mpi { ranks } => {
                    let (vt3, imgs, times3, body) = (
                        Arc::clone(&vt),
                        Arc::clone(&images),
                        Arc::clone(&times),
                        Arc::clone(&app.body),
                    );
                    let hooks: Vec<Arc<dyn MpiHooks>> =
                        vec![VtMpiHooks::new(Arc::clone(&vt)), sync.mpi_hook()];
                    let adaptive2 = adaptive.clone();
                    let job = launch_from(
                        p,
                        JobSpec::new(&app.name, ranks)
                            .on_node(app_base)
                            .held_by(Arc::clone(&start_gate2)),
                        hooks,
                        move |ap, comm| {
                            comm.init(ap);
                            let rank = comm.rank();
                            let t0 = ap.now();
                            body(&AppCtx {
                                p: ap,
                                comm: Some(comm),
                                image: &imgs[rank],
                                vt: &vt3,
                                rank,
                                nranks: ranks,
                                omp_threads: 1,
                                adaptive: adaptive2.clone(),
                            });
                            times3.record(rank, t0, ap.now());
                            comm.finalize(ap);
                        },
                    );
                    let nodes = (0..ranks).map(|r| job.node_of(r, &machine)).collect();
                    *job_out2.lock() = Some(job);
                    nodes
                }
                AppMode::Omp { threads } => {
                    let (vt3, imgs, times3, body) = (
                        Arc::clone(&vt),
                        Arc::clone(&images),
                        Arc::clone(&times),
                        Arc::clone(&app.body),
                    );
                    let sync2 = Arc::clone(&sync);
                    let gate = Arc::clone(&start_gate2);
                    let name = app.name.clone();
                    let adaptive2 = adaptive.clone();
                    p.spawn_child(name, app_base, move |ap| {
                        gate.wait_open(ap);
                        // VT_init at the start of main (Guide), then the
                        // dynamically inserted callback + spin (Fig 6
                        // variant without barriers, §3.4).
                        vt3.init(ap, 0);
                        sync2.omp_init(ap);
                        let t0 = ap.now();
                        body(&AppCtx {
                            p: ap,
                            comm: None,
                            image: &imgs[0],
                            vt: &vt3,
                            rank: 0,
                            nranks: 1,
                            omp_threads: threads,
                            adaptive: adaptive2.clone(),
                        });
                        times3.record(0, t0, ap.now());
                        vt3.finalize(ap, 0);
                    });
                    vec![app_base]
                }
            };
            let mut handles = Vec::with_capacity(processes);
            let mut attach_warnings = Vec::new();
            for (i, &node) in nodes_of.iter().enumerate() {
                match client.attach(p, node, Arc::clone(&images[i]), format!("{}:{i}", app.name)) {
                    Ok(h) => handles.push(h),
                    Err(e) => attach_warnings.push(format!(
                        "attach failed for process {i}: {e}; excluded from instrumentation"
                    )),
                }
            }
            timefile.record("create", t_create, p.now());

            // Heartbeat failure detection: only under a non-inert fault
            // plan (an undisturbed run must stay byte-identical), and only
            // when the transactional control plane asked for it.
            let faulty = p.fault_plan().is_some_and(|plan| !plan.is_inert());
            let monitor = match &txn_settings {
                Some(s) if s.heartbeat && faulty => {
                    let mut nodes = nodes_of.clone();
                    nodes.sort_unstable();
                    nodes.dedup();
                    let m = HeartbeatMonitor::new(
                        Arc::clone(client.system()),
                        nodes,
                        HeartbeatConfig::default(),
                    );
                    let m2 = Arc::clone(&m);
                    p.spawn_child("dynprof-hb", p.node(), move |hp| m2.run(hp));
                    Some(m)
                }
                _ => None,
            };

            let mut st = DynState {
                client,
                sync: Arc::clone(&sync),
                handles,
                vt: Arc::clone(&vt),
                timefile: Arc::clone(&timefile),
                files,
                warnings: attach_warnings,
                pairs_installed: 0,
                started: false,
                txn: txn_settings,
                monitor,
            };
            let mut pending: Vec<String> = Vec::new();
            let do_start = |st: &mut DynState, p: &Proc, pending: &mut Vec<String>| {
                let t0 = p.now();
                start_gate2.open(p, SimTime::from_micros(50));
                st.sync.await_ready(&st.client, p, processes);
                timefile.record("start-to-callback", t0, p.now());
                // Safe now: act on the queued requests (paper §3.4).
                let names = std::mem::take(pending);
                st.install(p, &names);
                let t_rel = p.now();
                st.sync.release_all(p);
                st.timefile.record("release", t_rel, p.now());
                st.started = true;
            };
            for cmd in &script {
                match cmd {
                    Command::Help => { /* prints HELP_TEXT interactively */ }
                    Command::Insert(names) => {
                        if st.started {
                            let names = names.clone();
                            st.while_suspended(p, |st, p| st.install(p, &names));
                        } else {
                            pending.extend(names.iter().cloned());
                        }
                    }
                    Command::InsertFile(fs) => {
                        let names = st.resolve_files(fs);
                        if st.started {
                            st.while_suspended(p, |st, p| st.install(p, &names));
                        } else {
                            pending.extend(names);
                        }
                    }
                    Command::Remove(names) => {
                        if st.started {
                            let names = names.clone();
                            st.while_suspended(p, |st, p| st.remove(p, &names));
                        } else {
                            pending.retain(|n| !names.contains(n));
                        }
                    }
                    Command::RemoveFile(fs) => {
                        let names = st.resolve_files(fs);
                        if st.started {
                            st.while_suspended(p, |st, p| st.remove(p, &names));
                        } else {
                            pending.retain(|n| !names.contains(n));
                        }
                    }
                    Command::Start => {
                        if !st.started {
                            do_start(&mut st, p, &mut pending);
                        }
                    }
                    Command::Wait(d) => p.sleep(*d),
                    Command::Quit => break,
                }
            }
            if !st.started {
                // A script that never starts the target would deadlock it;
                // dynprof's interactive loop effectively always starts.
                st.warnings
                    .push("script had no `start`; target started at script end".into());
                do_start(&mut st, p, &mut pending);
            }
            // quit: detach, leaving active instrumentation in place.
            if let Some(m) = &st.monitor {
                m.stop();
            }
            st.client.shutdown(p);
            warnings2.lock().extend(st.warnings);
            *pairs_out2.lock() = st.pairs_installed;
        });
    }

    let total = sim.run();
    vt.close_lanes();
    let pairs = *pairs_out.lock();
    let warnings = std::mem::take(&mut *warnings.lock());
    let job = job_out.lock().take();
    SessionReport {
        policy: cfg.policy,
        app_time: times.app_time(),
        total_time: total,
        create_time: timefile.total("create"),
        instrument_time: timefile.total("instrument"),
        trace_bytes: vt.total_trace_bytes(),
        probe_pairs_installed: pairs,
        timefile,
        vt,
        warnings,
        images: images.to_vec(),
        controller,
        recv_cost: RecvCost {
            fifo: system.recv_cost(),
            mpi: job.map_or((0, 0), |job| job.recv_cost()),
        },
    }
}
