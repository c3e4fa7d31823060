//! A dynprof session (paper §3.3, §3.4, §4.2), run by one staged driver:
//! create the trace library, images and simulation; launch the
//! application; let dynprof instrument it by running its script; run;
//! close the capture lanes and assemble the one report.
//!
//! A `Launch`, chosen by the entry point and the policy, says who spawns
//! what: `Static` (`Full`, `Full-Off`, `Subset`, `None`) runs the
//! application alone, with the policy's static instrumentation and VT
//! configuration; `Held` (`Dynamic`) starts dynprof, which spawns the
//! target suspended, attaches, defers its requests until the `MPI_Init`
//! callback says patching is safe (Fig 6) and releases it; `Running`
//! ([`run_attach_session`]) starts the application, then dynprof attaches
//! mid-run and applies every command while the target is suspended.

use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_dpcl::{
    AckResult, DegradedPolicy, DpclClient, DpclSystem, HeartbeatConfig, HeartbeatMonitor,
    InstrumentationTxn, ProcessHandle, ReqId, TxnOptions, TxnOutcome,
};
use dynprof_image::{Image, ProbePoint};
use dynprof_mpi::{launch, launch_from, Comm, Job, JobSpec, MpiHooks};
use dynprof_sim::hb::Finding;
use dynprof_sim::sync::SimGate;
use dynprof_sim::{FaultPlan, FaultSpec, Machine, Proc, ProcBackend, Sim, SimTime};
use dynprof_vt::{
    vt_begin_snippet, vt_end_snippet, ControllerConfig, MonitorLink, OverheadController, Policy,
    SharedSink, VtConfig, VtLib, VtRankHooks, VtStaticHooks,
};

use crate::app::{AppCtx, AppMode, AppSpec};
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
    /// Machine model to simulate. The application is placed from node 0;
    /// dynprof runs on the machine's last node (the paper used the few
    /// interactive nodes of the batch system).
    pub machine: Machine,
    /// Simulation seed.
    pub seed: u64,
    /// Instrumentation policy (Table 3).
    pub policy: Policy,
    /// dynprof command script; `None` uses the policy's default
    /// (`insert-file subset`, `start`, `quit` for `Dynamic`). The function
    /// lists `insert-file`/`remove-file` know are `subset` (the app's
    /// important subset) and `all` (every manifest function).
    pub script: Option<Vec<Command>>,
    /// Journal per-call PC intervals in every image (enables post-run
    /// evaluation of an ideal statistical sampler; see
    /// `dynprof_bench::sampling::sample_image`).
    pub enable_pc_log: bool,
    /// How instrumentation changes run as 2PC transactions, which they do
    /// exactly when the fault plan is live; an undisturbed run installs
    /// plain and never reads this.
    pub txn: TxnSettings,
    /// Redundancy-suppression floor: entry/exit pairs shorter than this
    /// are elided from the trace (coalesced into per-function
    /// suppressed-count events; profiles stay exact). `ZERO` disables
    /// suppression and is byte-identical to not setting it at all.
    pub suppress_floor: SimTime,
    /// Closed-loop adaptive instrumentation: the overhead controller's
    /// settings, its budget and re-probe schedule (`None`: no controller,
    /// no confsync at safe points — byte-identical to earlier sessions).
    pub adaptive: Option<ControllerConfig>,
    /// Capture sink: the session's trace library sends every event into
    /// this sink's per-rank lanes as it happens and buffers none (`None`:
    /// events stay in the library's per-rank buffers, readable from
    /// [`SessionReport::vt`] after the run). The session closes the lanes
    /// when the run ends; the caller keeps a handle and finishes the sink
    /// once the session returns. Costs no virtual time either way.
    pub capture: Option<SharedSink>,
    /// Fault-injection plan to instantiate for the run (`None`: no plan,
    /// byte-identical to an inert one).
    pub faults: Option<FaultSpec>,
    /// What carries the simulated processes. Every output is
    /// byte-identical on either; only host time differs.
    pub backend: ProcBackend,
}

/// Transactional-epoch settings for instrumented sessions, used under a
/// live fault plan, where every install is a 2PC transaction and a
/// heartbeat failure detector feeds the coordinator's dead-node pre-check.
/// The default aborts an epoch a participant fails, with no validator.
#[derive(Clone, Default)]
pub struct TxnSettings {
    /// Reaction to a failed participant.
    pub policy: DegradedPolicy,
    /// Pre-flight probe-plan validator (normally `dynprof-check`'s
    /// analyzer, injected as a closure to keep the crate graph acyclic);
    /// called with the function names about to be instrumented. Any
    /// error finding aborts the transaction before a message is sent.
    #[allow(clippy::type_complexity)]
    pub validator: Option<Arc<dyn Fn(&[String]) -> Vec<Finding> + Send + Sync>>,
}

impl SessionConfig {
    /// Defaults for `machine`/`policy`: seed 42, the default script, no
    /// faults, the default carrier ([`ProcBackend::default_backend`]).
    pub fn new(machine: Machine, policy: Policy) -> SessionConfig {
        SessionConfig {
            machine,
            seed: 42,
            policy,
            script: None,
            enable_pc_log: false,
            txn: TxnSettings::default(),
            suppress_floor: SimTime::ZERO,
            adaptive: None,
            capture: None,
            faults: None,
            backend: ProcBackend::default_backend(),
        }
    }

    /// The simulation this configuration runs on: its machine, seed and
    /// carrier, with the fault plan instantiated when `faults` is set.
    pub fn sim(&self) -> Sim {
        let sim = Sim::virtual_time_with_backend(self.machine.clone(), self.seed, self.backend);
        if let Some(spec) = &self.faults {
            sim.set_fault_plan(FaultPlan::new(spec, &self.machine));
        }
        sim
    }

    /// Capture the run through `sink` as it happens instead of buffering
    /// the trace in the library.
    pub fn with_capture(mut self, sink: SharedSink) -> SessionConfig {
        self.capture = Some(sink);
        self
    }

    /// Attach a closed-loop overhead controller; the application's
    /// [`AppCtx::safe_point`]s become live `VT_confsync` epochs.
    pub fn with_adaptive(mut self, settings: ControllerConfig) -> SessionConfig {
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

/// Run one session of `app` under `cfg` and return the measurements.
pub fn run_session(app: &AppSpec, mut cfg: SessionConfig) -> SessionReport {
    let launch = match cfg.policy {
        Policy::Dynamic => Launch::Held,
        _ => Launch::Static,
    };
    let script = cfg.script.take();
    let script = script.unwrap_or_else(SessionConfig::default_dynamic_script);
    drive(app, cfg, launch, script)
}

/// Attach to an *already executing* application (the extension paper §3.3
/// leaves as future work: "we do not foresee any difficult issues in
/// extending our tool to support dynamic attachment").
///
/// The target launches normally (no hold gate, no startup deferral); at
/// `attach_at`, dynprof attaches through DPCL and runs `insert-file
/// subset`, `wait <observe>`, `remove-file subset`, `quit` — an ephemeral
/// observation window in the middle of an uninstrumented run.
pub fn run_attach_session(
    app: &AppSpec,
    cfg: SessionConfig,
    attach_at: SimTime,
    observe: SimTime,
) -> SessionReport {
    let subset = vec!["subset".to_string()];
    let script = vec![
        Command::InsertFile(subset.clone()),
        Command::Wait(observe),
        Command::RemoveFile(subset),
        Command::Quit,
    ];
    drive(app, cfg, Launch::Running { attach_at }, script)
}

/// How the target starts, and so who spawns what, in which order (spawn
/// order fixes every pid, and with it every per-process random stream).
#[derive(Clone, Copy, PartialEq)]
enum Launch {
    /// The application alone, spawned by the simulation.
    Static,
    /// dynprof, which spawns the application held from inside itself.
    Held,
    /// The application, then dynprof, which attaches at `attach_at`.
    Running { attach_at: SimTime },
}

/// What dynprof hands back when it quits, and the job however launched.
#[derive(Default)]
struct Outcome {
    warnings: Vec<String>,
    pairs_installed: usize,
    job: Option<Job>,
}

/// The staged driver behind both entry points.
fn drive(app: &AppSpec, cfg: SessionConfig, launch: Launch, script: Vec<Command>) -> SessionReport {
    // ---- create: trace library, images, simulation.
    let processes = app.mode.processes();
    let (config, static_instr) = if launch == Launch::Static {
        (
            cfg.policy.config(&app.subset),
            cfg.policy.static_instrumentation(),
        )
    } else {
        (VtConfig::all_on(), false)
    };
    let vt = VtLib::new(&app.name, processes, config, cfg.machine.probe);
    if let Some(sink) = &cfg.capture {
        // Installed before anything can record.
        vt.set_sink(Arc::clone(sink));
    }
    let images = process_images(app, &cfg, &vt, static_instr);
    let sim = cfg.sim();
    let (adaptive, controller) = make_adaptive(&cfg, &vt);
    let target = Target {
        app: Arc::new(app.clone()),
        vt: Arc::clone(&vt),
        images: Arc::clone(&images),
        times: Arc::new(Mutex::new(vec![None; processes])),
        adaptive,
    };
    let timefile = Arc::new(Timefile::new());
    let system = DpclSystem::new(["dynprof"]);
    let outcome = Arc::new(Mutex::new(Outcome::default()));

    // ---- launch: the application first unless dynprof spawns it.
    let mut nodes = Vec::new();
    if launch != Launch::Held {
        let (job, at) = launch_app(&target, Spawner::Sim(&sim), None);
        outcome.lock().job = job;
        nodes = at;
    }
    if launch != Launch::Static {
        let (target, timefile, outcome) =
            (target.clone(), Arc::clone(&timefile), Arc::clone(&outcome));
        let (system, txn) = (Arc::clone(&system), cfg.txn.clone());
        let gate = (launch == Launch::Held).then(|| Arc::new(SimGate::new()));
        sim.spawn("dynprof", cfg.machine.nodes - 1, move |p| {
            if let Launch::Running { attach_at } = launch {
                p.sleep_until(attach_at);
            }
            let client = DpclClient::new(system, "dynprof");
            let hold = gate.map(|gate| Hold {
                gate,
                sync: InitSync::new(&client, processes),
            });
            let t0 = p.now();
            if let Some(hold) = &hold {
                p.advance(POE_BASE + POE_PER_PROC * processes as u64);
                let (job, at) = launch_app(&target, Spawner::Proc(p), Some(hold));
                outcome.lock().job = job;
                nodes = at;
            }
            let mut dynprof = Instrumenter {
                target,
                client,
                handles: Vec::with_capacity(processes),
                timefile: Arc::clone(&timefile),
                hold,
                pending: Vec::new(),
                txn,
                monitor: None,
                warnings: Vec::new(),
                pairs_installed: 0,
            };
            dynprof.attach(p, &nodes);
            timefile.record("create", t0, p.now());
            dynprof.run(p, &nodes, &script);
            let mut out = outcome.lock();
            out.warnings = dynprof.warnings;
            out.pairs_installed = dynprof.pairs_installed;
        });
    }

    // ---- run, then close.
    let total = sim.run();
    vt.close_lanes();
    let out = std::mem::take(&mut *outcome.lock());
    SessionReport {
        policy: cfg.policy,
        app_time: app_time(&target.times),
        total_time: total,
        create_time: timefile.total("create"),
        instrument_time: timefile.total("instrument"),
        trace_bytes: vt.total_trace_bytes(),
        probe_pairs_installed: out.pairs_installed,
        timefile,
        vt,
        warnings: out.warnings,
        images: images.to_vec(),
        controller,
        recv_cost: RecvCost {
            fifo: system.recv_cost(),
            mpi: out.job.map_or((0, 0), |job| job.recv_cost()),
        },
    }
}

/// When each process ran its body: `(start, end)` per rank.
type BodyTimes = Mutex<Vec<Option<(SimTime, SimTime)>>>;

/// Application main-computation time: latest body end minus earliest body
/// start (zero if no body ran).
fn app_time(times: &BodyTimes) -> SimTime {
    let times = times.lock();
    let start = times.iter().flatten().map(|t| t.0).min();
    let end = times.iter().flatten().map(|t| t.1).max();
    start.zip(end).map_or(SimTime::ZERO, |(s, e)| e - s)
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
    let hooks = static_instr.then(|| VtStaticHooks::for_program(Arc::clone(vt), app.program(true)));
    let image = |rank| {
        let img = app.build_image(static_instr);
        if let Some(hooks) = &hooks {
            img.set_static_hooks(Arc::clone(hooks) as _);
        }
        img.set_observer(VtRankHooks::new(Arc::clone(vt), rank));
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
) -> (Option<Arc<MonitorLink>>, Option<Arc<OverheadController>>) {
    if cfg.suppress_floor > SimTime::ZERO {
        vt.set_suppress_floor(cfg.suppress_floor);
    }
    match &cfg.adaptive {
        None => (None, None),
        Some(settings) => {
            let ctrl = OverheadController::new(*settings);
            let monitor = MonitorLink::new();
            monitor.attach_controller(Arc::clone(&ctrl));
            (Some(monitor), Some(ctrl))
        }
    }
}

/// Node the application is placed from.
const APP_NODE: usize = 0;

/// What a launched process runs: the app's body over its image, wired to
/// the session's trace library and adaptive runtime, timed into the
/// session's body-time log.
#[derive(Clone)]
struct Target {
    app: Arc<AppSpec>,
    vt: Arc<VtLib>,
    images: Arc<Vec<Arc<Image>>>,
    times: Arc<BodyTimes>,
    adaptive: Option<Arc<MonitorLink>>,
}

impl Target {
    /// Run the body as process `rank` of `nranks`.
    fn run_body(&self, p: &Proc, comm: Option<&Comm>, rank: usize, nranks: usize, threads: usize) {
        let t0 = p.now();
        (self.app.body)(&AppCtx {
            p,
            comm,
            image: &self.images[rank],
            vt: &self.vt,
            rank,
            nranks,
            omp_threads: threads,
            adaptive: self.adaptive.clone(),
        });
        self.times.lock()[rank] = Some((t0, p.now()));
    }
}

/// Where a launch spawns the application's processes from.
enum Spawner<'a> {
    /// The simulation, before it runs.
    Sim(&'a Sim),
    /// dynprof's process (`poe` run by the instrumenter).
    Proc(&'a Proc),
}

/// A held launch's start protocol: the gate every process waits on before
/// its first instruction, and the Fig 6 callback + spin dynprof inserts.
#[derive(Clone)]
struct Hold {
    gate: Arc<SimGate>,
    sync: Arc<InitSync>,
}

/// Launch the application from `from`: one MPI rank per process, or the
/// single OpenMP process. Returns the MPI job, if any, and each process's
/// node.
fn launch_app(
    target: &Target,
    from: Spawner<'_>,
    hold: Option<&Hold>,
) -> (Option<Job>, Vec<usize>) {
    let app = &target.app;
    match app.mode {
        AppMode::Mpi { ranks } => {
            let mut spec = JobSpec::new(&app.name, ranks).on_node(APP_NODE);
            let mut hooks: Vec<Arc<dyn MpiHooks>> = vec![Arc::clone(&target.vt) as _];
            if let Some(hold) = hold {
                spec = spec.held_by(Arc::clone(&hold.gate));
                hooks.push(hold.sync.mpi_hook());
            }
            let target = target.clone();
            let body = move |p: &Proc, comm: &Comm| {
                comm.init(p);
                target.run_body(p, Some(comm), comm.rank(), ranks, 1);
                comm.finalize(p);
            };
            let (job, machine) = match from {
                Spawner::Sim(sim) => (launch(sim, spec, hooks, body), sim.machine()),
                Spawner::Proc(p) => (launch_from(p, spec, hooks, body), p.machine()),
            };
            let nodes = (0..ranks).map(|r| job.node_of(r, machine)).collect();
            (Some(job), nodes)
        }
        AppMode::Omp { threads } => {
            let (target, hold) = (target.clone(), hold.cloned());
            let body = move |p: &Proc| {
                if let Some(hold) = &hold {
                    hold.gate.wait_open(p);
                }
                // VT_init at the start of main (Guide), then, when held, the
                // dynamically inserted callback + spin (Fig 6 variant
                // without barriers, §3.4).
                target.vt.init(p, 0);
                if let Some(hold) = &hold {
                    hold.sync.omp_init(p);
                }
                target.run_body(p, None, 0, 1, threads);
                target.vt.finalize(p, 0);
            };
            let name = app.name.clone();
            match from {
                Spawner::Sim(sim) => sim.spawn(name, APP_NODE, body),
                Spawner::Proc(p) => p.spawn_child(name, APP_NODE, body),
            };
            (None, vec![APP_NODE])
        }
    }
}

/// What a staged batch does to each function it names.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Change {
    /// Install the entry/exit VT probe pair.
    Install,
    /// Remove all instrumentation.
    Remove,
}

/// dynprof after it has started: its DPCL connection, the processes it
/// attached, and what the script has asked of it so far.
struct Instrumenter {
    target: Target,
    client: DpclClient,
    handles: Vec<ProcessHandle>,
    timefile: Arc<Timefile>,
    /// The held target's start protocol; `start` takes it, so it is
    /// `None` once the target runs (from the beginning, for an attach).
    hold: Option<Hold>,
    /// Insert requests queued until the target is safe to patch (§3.4).
    pending: Vec<String>,
    txn: TxnSettings,
    monitor: Option<Arc<HeartbeatMonitor>>,
    warnings: Vec<String>,
    pairs_installed: usize,
}

impl Instrumenter {
    /// Attach to every process of the target (at `nodes`); a process that
    /// cannot be attached is left out of instrumentation.
    fn attach(&mut self, p: &Proc, nodes: &[usize]) {
        for (i, &node) in nodes.iter().enumerate() {
            let image = Arc::clone(&self.target.images[i]);
            let name = format!("{}:{i}", self.target.app.name);
            match self.client.attach(p, node, image, name) {
                Ok(h) => self.handles.push(h),
                Err(e) => self.warnings.push(format!(
                    "attach failed for process {i}: {e}; excluded from instrumentation"
                )),
            }
        }
    }

    /// Run `script` against the target's processes (at `nodes`), then
    /// quit: detach, leaving active instrumentation in place.
    fn run(&mut self, p: &Proc, nodes: &[usize], script: &[Command]) {
        // Heartbeat failure detection backs the 2PC coordinator, so it
        // runs only when that engages: under a live fault plan (an
        // undisturbed run must stay byte-identical).
        if p.live_faults() {
            let mut nodes = nodes.to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            let system = Arc::clone(self.client.system());
            let m = HeartbeatMonitor::new(system, nodes, HeartbeatConfig::default());
            let m2 = Arc::clone(&m);
            p.spawn_child("dynprof-hb", p.node(), move |hp| m2.run(hp));
            self.monitor = Some(m);
        }
        // An attach is only safe once VT is up everywhere (it initializes
        // inside MPI_Init / at the start of main — the constraint of §3.4).
        let vt = &self.target.vt;
        if self.hold.is_none() && !(0..self.handles.len()).all(|r| vt.is_initialized(r)) {
            self.warnings
                .push("attach: VT not initialized everywhere; skipping".into());
        } else {
            self.script(p, script);
        }
        if let Some(m) = &self.monitor {
            m.stop();
        }
        self.client.shutdown(p);
    }

    /// The command loop (Table 1).
    fn script(&mut self, p: &Proc, script: &[Command]) {
        for cmd in script {
            match cmd {
                Command::Help => { /* prints HELP_TEXT interactively */ }
                Command::Insert(names) => self.insert(p, names.clone()),
                Command::InsertFile(files) => {
                    let names = self.resolve_files("insert-file", files);
                    self.insert(p, names);
                }
                Command::Remove(names) => self.remove(p, names),
                Command::RemoveFile(files) => {
                    let names = self.resolve_files("remove-file", files);
                    self.remove(p, &names);
                }
                Command::Start => self.start(p),
                Command::Wait(d) => p.sleep(*d),
                Command::Quit => break,
            }
        }
        if self.hold.is_some() {
            // A script that never starts the target would deadlock it;
            // dynprof's interactive loop effectively always starts.
            self.warnings
                .push("script had no `start`; target started at script end".into());
            self.start(p);
        }
    }

    /// The functions of the lists `command` names: `subset` or `all`.
    fn resolve_files(&mut self, command: &str, files: &[String]) -> Vec<String> {
        let mut names = Vec::new();
        for f in files {
            match f.as_str() {
                "subset" => names.extend(self.target.app.subset.iter().cloned()),
                "all" => names.extend(self.target.app.function_names()),
                _ => self
                    .warnings
                    .push(format!("{command}: unknown function list {f:?}")),
            }
        }
        names
    }

    /// `insert`: queue `names` until `start`, or patch them in now.
    fn insert(&mut self, p: &Proc, names: Vec<String>) {
        if self.hold.is_some() {
            self.pending.extend(names);
        } else {
            self.while_suspended(p, |st, p| st.patch(p, Change::Install, &names));
        }
    }

    /// `remove`: drop `names` from the queue before `start`, or remove
    /// their instrumentation now.
    fn remove(&mut self, p: &Proc, names: &[String]) {
        if self.hold.is_some() {
            self.pending.retain(|n| !names.contains(n));
        } else {
            self.while_suspended(p, |st, p| st.patch(p, Change::Remove, names));
        }
    }

    /// `start`: open the hold gate, wait for every process's init
    /// callback, act on the queued requests — safe now (paper §3.4) — and
    /// release the target. A no-op once the target runs.
    fn start(&mut self, p: &Proc) {
        let Some(hold) = self.hold.take() else {
            return;
        };
        let t0 = p.now();
        hold.gate.open(p, SimTime::from_micros(50));
        hold.sync.await_ready(&self.client, p);
        self.timefile.record("start-to-callback", t0, p.now());
        let names = std::mem::take(&mut self.pending);
        self.patch(p, Change::Install, &names);
        let t_rel = p.now();
        hold.sync.release_all(p);
        self.timefile.record("release", t_rel, p.now());
    }

    /// Install entry/exit VT probes for `names` in every process, or
    /// remove all instrumentation from them: stage the batch, then run it
    /// through 2PC where that can protect something — under a live fault
    /// plan — and send it plain everywhere else (an inert plan cannot
    /// produce a partial epoch).
    fn patch(&mut self, p: &Proc, change: Change, names: &[String]) {
        let t0 = p.now();
        let install = change == Change::Install;
        // The script command, its batch in ack warnings, its timefile row.
        let (command, batch, label) = if install {
            ("insert", "probe installs", "instrument")
        } else {
            ("remove", "probe removals", "remove")
        };
        if self.handles.is_empty() {
            self.warnings
                .push(format!("{command}: no attached processes; nothing to do"));
            return;
        }
        let mut txn = InstrumentationTxn::new(TxnOptions {
            policy: self.txn.policy,
        });
        let two_phase = p.live_faults();
        let mut staged = Vec::new();
        for name in names {
            let Some(fid) = self.handles[0].image.func(name) else {
                self.warnings
                    .push(format!("{command}: unknown function {name:?}"));
                continue;
            };
            staged.push(name.clone());
            if !install {
                for h in &self.handles {
                    txn.stage_remove(h, fid);
                }
                continue;
            }
            // dynprof registers the symbol with Vampirtrace (§3.4), then
            // compiles its snippet pair once; every process gets a clone (a
            // `Snippet` is all `Arc`s).
            let vt = &self.target.vt;
            let vtid = vt.funcdef(p, name);
            let begin = vt_begin_snippet(Arc::clone(vt), vtid);
            let end = vt_end_snippet(Arc::clone(vt), vtid);
            for h in &self.handles {
                txn.stage_install(h, ProbePoint::entry(fid), begin.clone());
                txn.stage_install(h, ProbePoint::exit(fid), end.clone());
            }
            if !two_phase {
                // A function's probes leave before the next one is
                // registered, and what the daemons have answered by then
                // is taken off the wire (DESIGN §8, the install window).
                txn.send_plain(p, &self.client);
                txn.collect_acks(p, &self.client);
            }
        }
        if two_phase {
            let applied = self.commit(p, txn, install, staged);
            if install {
                // Actual coverage: each committed install is one probe.
                self.pairs_installed += (applied / 2) as usize;
            }
        } else {
            // Removals leave all at once: every send, then every wait.
            txn.send_plain(p, &self.client);
            let (_, failed) = txn.wait_plain(p, &self.client);
            let failed = failed.iter().map(|(_, ack)| ack);
            self.warnings.extend(ack_failures(batch, failed));
            if install {
                self.pairs_installed += staged.len() * self.handles.len();
            }
        }
        self.timefile.record(label, t0, p.now());
    }

    /// Run a staged batch through the 2PC protocol, so either every
    /// process gets the epoch or none does; a run where an epoch did not
    /// land everywhere (an abort, or an `exclude-node` commit) is marked
    /// degraded. The validator judges only an `install` batch. Returns
    /// the ops that landed.
    fn commit(
        &mut self,
        p: &Proc,
        txn: InstrumentationTxn,
        install: bool,
        staged: Vec<String>,
    ) -> u64 {
        let validator = (self.txn.validator.clone())
            .filter(|_| install)
            .map(|v| move || v(&staged));
        let validator = validator.as_ref().map(|c| c as &dyn Fn() -> Vec<Finding>);
        let nodes = txn.nodes();
        let report = txn.execute(p, &self.client, validator, self.monitor.as_deref());
        match &report.outcome {
            TxnOutcome::Committed => {}
            TxnOutcome::CommittedDegraded { excluded } => {
                self.target.vt.note_degraded(report.epoch, excluded);
                self.warnings.push(format!(
                    "txn epoch {} committed degraded; excluded nodes {excluded:?}",
                    report.epoch
                ));
            }
            TxnOutcome::Aborted { reason } => {
                self.target.vt.note_degraded(report.epoch, &nodes);
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
            self.warnings.push(format!("txn op failed: {f}"));
        }
        for node in &report.unconfirmed {
            self.warnings
                .push(format!("txn decision to node {node} unconfirmed"));
        }
        report.applied
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
        self.wait_all(p, "suspends", &reqs);
        f(self, p);
        let reqs: Vec<_> = self
            .handles
            .iter()
            .map(|h| self.client.resume(p, h))
            .collect();
        // Wait for the resumes to land so a subsequent quit/shutdown can
        // never overtake them.
        self.wait_all(p, "resumes", &reqs);
    }

    /// Wait for every ack of `reqs`, one batch of `what`, and summarize
    /// those that failed into one warning.
    fn wait_all(&mut self, p: &Proc, what: &str, reqs: &[ReqId]) {
        let acks = self.client.wait_all(p, reqs);
        let acks = acks.iter().map(|(_, ack)| ack);
        self.warnings.extend(ack_failures(what, acks));
    }
}

/// Summarize the failed acks of a batch of `what` (e.g. "probe installs"):
/// the count plus each distinct typed reason (verifier rejections, patch
/// hazards, timeouts). `None` when there are none.
fn ack_failures<'a>(what: &str, acks: impl Iterator<Item = &'a AckResult>) -> Option<String> {
    let mut reasons: Vec<String> = acks
        .filter_map(|r| match r {
            AckResult::Ok { .. } => None,
            AckResult::Error { message } => Some(message.clone()),
            AckResult::TimedOut { attempts } => {
                Some(format!("timed out after {attempts} attempt(s)"))
            }
        })
        .collect();
    let n = reasons.len();
    reasons.sort_unstable();
    reasons.dedup();
    (n > 0).then(|| format!("{n} {what} failed: {}", reasons.join("; ")))
}
