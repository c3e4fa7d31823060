//! # dynprof-bench — experiment harnesses
//!
//! One runner per paper artefact:
//!
//! * [`fig7`] — execution time of the instrumented ASCI kernels under the
//!   five Table-3 policies (Fig 7 a–d);
//! * [`fig8a`]/[`fig8b`]/[`fig8c`] — `VT_confsync` costs: no-change vs
//!   change, statistics writing, and the IA32 cross-check (Fig 8 a–c);
//! * [`fig9`] — dynprof's time to create and instrument each application;
//! * table renderers for Tables 1–3;
//! * [`sampling`] — the ideal interrupt sampler `ablation` sets against
//!   complete profiling (§2).
//!
//! Every runner takes a base [`SessionConfig`] and a worker count. The
//! base is the run configuration (fault spec, carrier, degraded-mode
//! policy, overhead budget); each run is that base with its own machine,
//! policy and seed, so runs on one base — or on two bases at once — never
//! share state.
//! The runners fan their independent runs across `workers` threads (see
//! [`parallel`]) and assemble results in the serial sweep's order, so the
//! output is byte-identical for any worker count.
//!
//! The binaries in `src/bin/` print the same rows/series the paper
//! reports; [`FigureArgs`] is their one command-line parser.

#![warn(missing_docs)]

pub mod parallel;
pub mod sampling;

use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_apps::paper_app;
use dynprof_check::analyzer::{analyze, Budget, ProbePlan};
use dynprof_core::{run_session, AppSpec, SessionConfig, SessionReport, TxnSettings};
use dynprof_dpcl::DegradedPolicy;
use dynprof_mpi::{launch, JobSpec};
use dynprof_obs::{Json, Registry};
use dynprof_sim::{FaultSpec, Machine, OnlineStats, SimTime};
use dynprof_vt::{confsync, ConfigDelta, ControllerConfig, MonitorLink, Policy, VtConfig, VtLib};

// ---------------------------------------------------------------------------
// The figure binaries' command line
// ---------------------------------------------------------------------------

/// What a figure binary's command line asks for. The flags every binary
/// shares:
///
/// * `--json` — print figure JSON instead of the text table;
/// * `--parallel [N]` — fan the independent runs across N worker threads
///   (default: the host's parallelism); output is byte-identical;
/// * `--metrics out.json` — observe the sweep into one registry, which
///   all its sessions share, and dump it afterwards;
/// * `--faults seed[:profile]` — run every session under a deterministic
///   fault plan (`dynprof_sim::fault`; profiles none, drop, dup, delay,
///   slow, crash, epochs, lossy — the default); under a live plan every
///   install runs through the two-phase-commit control plane;
///
/// and, for binaries whose sessions install probes:
///
/// * `--degraded-policy abort-txn|exclude-node` — how a faulted install
///   reacts to a failed participant (default `abort-txn`); series with an
///   epoch that did not land on every node are labelled `[degraded]`;
/// * `--overhead-budget pct` — attach the closed-loop overhead controller
///   to every session; 100 or more attaches none (byte-identical output).
pub struct FigureArgs {
    /// The run configuration every session of the sweep starts from.
    pub base: SessionConfig,
    /// Worker threads for the sweep.
    pub workers: usize,
    /// Print JSON instead of text tables.
    pub json: bool,
    /// Where to write the metrics after the sweep (`base.metrics` is the
    /// registry then).
    pub metrics: Option<String>,
    /// The binary's own `--flag value` options, in command-line order.
    pub own: Vec<(String, String)>,
}

impl FigureArgs {
    /// Parse `args` (without the program name). `own` names the binary's
    /// own value-taking flags; `probes` says whether its sessions install
    /// probes, and with it whether `--degraded-policy` and
    /// `--overhead-budget` are arguments at all.
    pub fn parse(args: &[String], own: &[&str], probes: bool) -> Result<FigureArgs, String> {
        let mut out = FigureArgs {
            base: SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic),
            workers: 1,
            json: false,
            metrics: None,
            own: Vec::new(),
        };
        let mut args = args.iter().peekable();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--json" => out.json = true,
                "--parallel" => {
                    out.workers = match args.peek().and_then(|v| v.parse::<usize>().ok()) {
                        Some(n) => {
                            args.next();
                            n.max(1)
                        }
                        None => parallel::default_workers(),
                    }
                }
                "--metrics" => {
                    out.metrics = Some(value()?);
                    out.base.metrics = Some(Arc::new(Registry::new()));
                }
                "--faults" => {
                    let spec = FaultSpec::parse(&value()?);
                    out.base.faults = Some(spec.map_err(|e| format!("bad --faults value: {e}"))?);
                }
                "--degraded-policy" if probes => {
                    let p = value()?;
                    out.base.txn.policy = DegradedPolicy::parse(&p)
                        .ok_or_else(|| format!("unknown policy {p:?} (abort-txn|exclude-node)"))?;
                }
                "--overhead-budget" if probes => {
                    let pct = value()?;
                    let p = pct
                        .parse::<f64>()
                        .ok()
                        .filter(|p| *p >= 0.0)
                        .ok_or_else(|| {
                            format!("bad --overhead-budget value {pct:?} (percent, >= 0)")
                        })?;
                    // An inert budget attaches no controller at all.
                    out.base.adaptive = (p < 100.0).then(|| ControllerConfig::budget(p));
                }
                f if own.contains(&f) => out.own.push((f.to_string(), value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }

    /// [`FigureArgs::parse`] over the process's arguments: a bad command
    /// line exits with status 2.
    pub fn from_env(own: &[&str], probes: bool) -> FigureArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        FigureArgs::parse(&args, own, probes).unwrap_or_else(|e| usage_error(&e))
    }

    /// Print each figure as it is produced, then write the metrics file if
    /// one was asked for (exit status 1 if it cannot be written).
    pub fn emit(&self, figures: impl IntoIterator<Item = Figure>) {
        for fig in figures {
            if self.json {
                println!("{}", fig.to_json());
            } else {
                println!("{}", fig.render());
            }
        }
        if let (Some(path), Some(metrics)) = (&self.metrics, &self.base.metrics) {
            std::fs::write(path, metrics.dump_json() + "\n").unwrap_or_else(|e| {
                eprintln!("failed to write metrics to {path}: {e}");
                std::process::exit(1);
            });
        }
    }
}

/// Report a bad command line and exit with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

// ---------------------------------------------------------------------------
// Sessions from a base configuration
// ---------------------------------------------------------------------------

/// One session of `app` on the IBM machine: `base` with its own policy and
/// seed, and with `dynprof-check`'s probe-safety analyzer wired into
/// `base.txn` as the pre-flight validator of faulted installs (the
/// dependency inversion that keeps `dpcl` free of a `check` edge).
fn session(base: &SessionConfig, app: &AppSpec, policy: Policy, seed: u64) -> SessionReport {
    let (program, manifest) = (app.name.clone(), app.functions.clone());
    let txn = TxnSettings {
        validator: Some(Arc::new(move |targets: &[String]| {
            let plan = ProbePlan::timer_pair(targets.to_vec());
            analyze(&program, &manifest, &plan, &Budget::default())
        })),
        ..base.txn.clone()
    };
    let cfg = SessionConfig {
        machine: Machine::ibm_power3_colony(),
        policy,
        seed,
        txn,
        ..base.clone()
    };
    run_session(app, cfg)
}

/// Suffix a series label when any of its runs left an instrumentation
/// epoch off some nodes (an aborted epoch, or an exclude-node commit), so
/// figure output is never silently mixed-provenance. Inert runs keep their
/// exact labels, which preserves the byte-identity goldens.
fn degraded_label(label: &str, degraded: bool) -> String {
    if degraded {
        format!("{label} [degraded]")
    } else {
        label.to_string()
    }
}

/// One measured series: a labelled curve over CPU counts.
#[derive(Clone, Debug)]
pub struct Series {
    /// Curve label (e.g. the policy name).
    pub label: String,
    /// `(cpus, seconds)` points.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// The value at `cpus`, if measured.
    pub fn at(&self, cpus: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|(c, _)| *c == cpus)
            .map(|&(_, v)| v)
    }
}

/// A figure: a titled set of series (one paper sub-plot).
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure identifier (e.g. "Fig 7(a) Smg98").
    pub title: String,
    /// Unit of the y axis.
    pub unit: &'static str,
    /// X-axis column label ("CPUs" for the paper figures, "Epoch" for
    /// the controller-convergence figure).
    pub xaxis: &'static str,
    /// The measured series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as an aligned text table (CPU rows × series columns).
    pub fn render(&self) -> String {
        let mut cpus: Vec<usize> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(c, _)| c))
            .collect();
        cpus.sort_unstable();
        cpus.dedup();
        let mut out = format!("## {} ({})\n", self.title, self.unit);
        out.push_str(&format!("{:>6}", self.xaxis));
        for s in &self.series {
            out.push_str(&format!(" {:>12}", s.label));
        }
        out.push('\n');
        for c in cpus {
            out.push_str(&format!("{c:>6}"));
            for s in &self.series {
                match s.at(c) {
                    Some(v) => out.push_str(&format!(" {v:>12.4}")),
                    None => out.push_str(&format!(" {:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialize to pretty-printed JSON. The writer ([`Json`]) is fully
    /// deterministic, so serial and parallel sweeps of the same figure
    /// produce byte-identical output.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("title", self.title.as_str().into()),
            ("unit", self.unit.into()),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("label", s.label.as_str().into()),
                                (
                                    "points",
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|&(c, v)| {
                                                Json::Arr(vec![c.into(), Json::Float(v)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }
}

/// The CPU counts of paper Fig 7 for each application.
pub fn fig7_cpus(app: &str) -> Vec<usize> {
    match app {
        // "Data for a 1 processor run of Sweep3d was not collected"
        "sweep3d" => vec![2, 4, 8, 16, 32, 64],
        // OpenMP: one SMP node.
        "umt98" => vec![1, 2, 4, 8],
        _ => vec![1, 2, 4, 8, 16, 32, 64],
    }
}

/// The policies plotted for each application (Sweep3d has no `Subset`
/// version — paper §4.3 deemed it unnecessary).
pub fn fig7_policies(app: &str) -> Vec<Policy> {
    if app == "sweep3d" {
        vec![Policy::Full, Policy::FullOff, Policy::None, Policy::Dynamic]
    } else {
        vec![
            Policy::Full,
            Policy::FullOff,
            Policy::Subset,
            Policy::None,
            Policy::Dynamic,
        ]
    }
}

/// One independent Fig-7 run: `app` under `policy` at `cpus` processors,
/// with the exact seed the sweep has always used. Returns the application
/// time in seconds and whether one of the run's transactional epochs left
/// nodes uninstrumented (possible only under a live fault plan).
pub fn fig7_run(base: &SessionConfig, app_name: &str, cpus: usize, policy: Policy) -> (f64, bool) {
    let metrics = base.metrics.as_deref();
    let _span = metrics.map(|m| m.span("bench.fig7.run.real_ns"));
    if let Some(m) = metrics {
        m.counter("bench.fig7.runs").inc();
    }
    let (app, _outputs) =
        paper_app(app_name, cpus).unwrap_or_else(|| panic!("unknown app {app_name}"));
    let report = session(base, &app, policy, 1000 + cpus as u64);
    (report.app_time.as_secs_f64(), report.vt.is_degraded())
}

/// Reproduce one sub-plot of Fig 7: run `app` under every policy across
/// the paper's CPU counts on the IBM machine model.
pub fn fig7(base: &SessionConfig, app_name: &str, workers: usize) -> Figure {
    let cpus = fig7_cpus(app_name);
    let policies = fig7_policies(app_name);
    let mut series: Vec<Series> = policies
        .iter()
        .map(|p| Series {
            label: p.label().to_string(),
            points: Vec::new(),
        })
        .collect();
    // Jobs in the serial sweep's iteration order: outer CPUs, inner policy.
    let jobs: Vec<(usize, usize)> = cpus
        .iter()
        .flat_map(|&c| (0..policies.len()).map(move |si| (c, si)))
        .collect();
    let results = parallel::run(&jobs, workers, base.metrics.as_deref(), |&(c, si)| {
        fig7_run(base, app_name, c, policies[si])
    });
    let mut degraded = vec![false; series.len()];
    for (&(c, si), (t, deg)) in jobs.iter().zip(results) {
        series[si].points.push((c, t));
        degraded[si] |= deg;
    }
    for (s, deg) in series.iter_mut().zip(degraded) {
        s.label = degraded_label(&s.label, deg);
    }
    let sub = match app_name {
        "smg98" => "a",
        "sppm" => "b",
        "sweep3d" => "c",
        "umt98" => "d",
        _ => "?",
    };
    Figure {
        title: format!("Fig 7({sub}) {app_name}: execution time of instrumented versions"),
        unit: "seconds",
        xaxis: "CPUs",
        series,
    }
}

// ---------------------------------------------------------------------------
// Fig 8: VT_confsync
// ---------------------------------------------------------------------------

/// Which Fig 8 experiment to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfsyncExperiment {
    /// Experiment 1: `VT_confsync` with no configuration change.
    NoChange,
    /// Experiment 2: with a configuration change posted.
    WithChange,
    /// Experiment 3: writing runtime statistics.
    WriteStats,
}

/// Measure the cost of one `VT_confsync` at rank 0 on `base.machine`,
/// averaged over `runs` seeds, for each processor count. The per-point
/// averages are folded in the serial sweep's run order.
pub fn confsync_cost(
    base: &SessionConfig,
    procs: &[usize],
    experiment: ConfsyncExperiment,
    runs: usize,
    workers: usize,
) -> Series {
    let label = match experiment {
        ConfsyncExperiment::NoChange => "No Change",
        ConfsyncExperiment::WithChange => "Changes",
        ConfsyncExperiment::WriteStats => "Write Stats",
    };
    // Jobs in the serial sweep's order: outer proc count, inner seed.
    let jobs: Vec<(usize, u64)> = procs
        .iter()
        .flat_map(|&p| (0..runs).map(move |run| (p, 0xF160 + run as u64)))
        .collect();
    let results = parallel::run(&jobs, workers, base.metrics.as_deref(), |&(p, seed)| {
        one_confsync(base, p, experiment, seed)
    });
    let mut points = Vec::new();
    for (pi, &p) in procs.iter().enumerate() {
        let mut stats = OnlineStats::new();
        for &t in &results[pi * runs..(pi + 1) * runs] {
            stats.push_time(t);
        }
        points.push((p, stats.mean()));
    }
    Series {
        label: label.into(),
        points,
    }
}

fn one_confsync(
    base: &SessionConfig,
    ranks: usize,
    experiment: ConfsyncExperiment,
    seed: u64,
) -> SimTime {
    let probe = base.machine.probe;
    let vt = VtLib::new("confsync-probe", ranks, VtConfig::all_on(), probe);
    let monitor = MonitorLink::new();
    if experiment == ConfsyncExperiment::WithChange {
        monitor.post_change(
            ConfigDelta::Set(vec![("default".into(), false), ("solve_*".into(), true)]),
            // The tool applies the edit programmatically here; the paper's
            // point is that the *sync* is cheap compared to the human.
            SimTime::from_micros(500),
        );
    }
    let sim = SessionConfig {
        seed,
        ..base.clone()
    }
    .sim();
    let cost = Arc::new(Mutex::new(SimTime::ZERO));
    let (vt2, m2, c2) = (Arc::clone(&vt), Arc::clone(&monitor), Arc::clone(&cost));
    let write_stats = experiment == ConfsyncExperiment::WriteStats;
    launch(
        &sim,
        JobSpec::new("confsync-probe", ranks),
        vec![Arc::clone(&vt) as _],
        move |p, comm| {
            comm.init(p);
            // Populate statistics so Experiment 3 has data to write
            // (16 instrumented functions with activity per rank).
            for i in 0..16 {
                let f = vt2.funcdef(p, &format!("kernel_{i}"));
                vt2.begin(p, comm.rank(), 0, f, 1);
                p.advance(SimTime::from_micros(30));
                vt2.end(p, comm.rank(), 0, f);
            }
            comm.barrier(p);
            let t0 = p.now();
            confsync(&vt2, &m2, p, comm, write_stats);
            if comm.rank() == 0 {
                *c2.lock() = p.now() - t0;
            }
            comm.finalize(p);
        },
    );
    sim.run();
    let t = *cost.lock();
    t
}

/// `base` on the machine `machine`.
fn on(base: &SessionConfig, machine: Machine) -> SessionConfig {
    SessionConfig {
        machine,
        ..base.clone()
    }
}

/// Reproduce Fig 8(a): confsync on the IBM machine, 2–512 processors.
pub fn fig8a(base: &SessionConfig, runs: usize, workers: usize) -> Figure {
    let base = on(base, Machine::ibm_power3_colony());
    let procs = [2, 4, 8, 16, 32, 64, 128, 256, 512];
    Figure {
        title: "Fig 8(a) VT_confsync on IBM (no change vs changes)".into(),
        unit: "seconds",
        xaxis: "CPUs",
        series: vec![
            confsync_cost(&base, &procs, ConfsyncExperiment::NoChange, runs, workers),
            confsync_cost(&base, &procs, ConfsyncExperiment::WithChange, runs, workers),
        ],
    }
}

/// Reproduce Fig 8(b): confsync writing statistics on the IBM machine.
pub fn fig8b(base: &SessionConfig, runs: usize, workers: usize) -> Figure {
    let base = on(base, Machine::ibm_power3_colony());
    let procs = [2, 4, 8, 16, 32, 64, 128, 256, 512];
    Figure {
        title: "Fig 8(b) VT_confsync writing statistics on IBM".into(),
        unit: "seconds",
        xaxis: "CPUs",
        series: vec![confsync_cost(
            &base,
            &procs,
            ConfsyncExperiment::WriteStats,
            runs,
            workers,
        )],
    }
}

/// Reproduce Fig 8(c): confsync on the IA32 Pentium III cluster.
pub fn fig8c(base: &SessionConfig, runs: usize, workers: usize) -> Figure {
    let base = on(base, Machine::ia32_pentium3_cluster());
    let procs: Vec<usize> = (2..=16).collect();
    Figure {
        title: "Fig 8(c) VT_confsync on IA32 (no change)".into(),
        unit: "seconds",
        xaxis: "CPUs",
        series: vec![confsync_cost(
            &base,
            &procs,
            ConfsyncExperiment::NoChange,
            runs,
            workers,
        )],
    }
}

// ---------------------------------------------------------------------------
// Fig 9: time to create and instrument
// ---------------------------------------------------------------------------

/// Reproduce Fig 9: dynprof's time to create + instrument each kernel.
///
/// The metric is independent of the modelled computation (the target is
/// suspended throughout), so the kernels run with test-scale bodies.
pub fn fig9(base: &SessionConfig, workers: usize) -> Figure {
    let apps = ["smg98", "sppm", "sweep3d", "umt98"];
    // Jobs in the serial sweep's order: outer app, inner CPU count.
    let jobs: Vec<(usize, usize)> = apps
        .iter()
        .enumerate()
        .flat_map(|(ai, &a)| fig7_cpus(a).into_iter().map(move |c| (ai, c)))
        .collect();
    let results = parallel::run(&jobs, workers, base.metrics.as_deref(), |&(ai, c)| {
        let app = dynprof_apps::test_app(apps[ai], c).expect("app");
        let report = session(base, &app, Policy::Dynamic, 77 + c as u64);
        (
            c,
            report.create_and_instrument().as_secs_f64(),
            report.vt.is_degraded(),
        )
    });
    let mut series = Vec::new();
    let mut idx = 0;
    for app_name in apps {
        let n = fig7_cpus(app_name).len();
        let mut points = Vec::new();
        let mut degraded = false;
        for &(c, t, deg) in &results[idx..idx + n] {
            points.push((c, t));
            degraded |= deg;
        }
        idx += n;
        series.push(Series {
            label: degraded_label(app_name, degraded),
            points,
        });
    }
    Figure {
        title: "Fig 9 Time to create and instrument".into(),
        unit: "seconds",
        xaxis: "CPUs",
        series,
    }
}

// ---------------------------------------------------------------------------
// Controller convergence (overhead vs budget)
// ---------------------------------------------------------------------------

/// The budgets swept by [`fig_controller`]; `INFINITY` is the unbudgeted
/// observer baseline.
pub const CONTROLLER_BUDGETS: [f64; 4] = [2.0, 5.0, 10.0, f64::INFINITY];

/// One adaptive sweep3d session for the convergence figure: 4 ranks on
/// the test machine, probe-dense scaling (tiny per-cell work, one KBA
/// plane per block), one confsync epoch per flux iteration. Returns the
/// controller's measured-overhead series, one point per epoch.
pub fn controller_convergence_run(budget_pct: f64, epochs: usize) -> Vec<f64> {
    let params = dynprof_apps::Sweep3dParams {
        global_n: 16,
        k_block: 1,
        angle_groups: 4,
        iterations: epochs,
        omp_threads: 1,
        scale: 0.001,
        outputs: dynprof_apps::workload::Outputs::new(),
    };
    let cfg = SessionConfig::new(Machine::test_machine(), Policy::Full)
        .with_seed(42)
        .with_adaptive(ControllerConfig::budget(budget_pct));
    let report = run_session(&dynprof_apps::sweep3d(4, params), cfg);
    report
        .controller
        .expect("adaptive session attaches a controller")
        .measured_series()
}

/// The closed-loop figure: measured instrumentation overhead per confsync
/// epoch for each budget in [`CONTROLLER_BUDGETS`], on the probe-dense
/// sweep3d scaling. The unbudgeted series holds its ~12% plateau; every
/// budgeted series steps down as the controller deactivates hot-cheap
/// probes, converging within a few epochs (re-probe excursions show as
/// one-epoch spikes that are immediately re-suppressed).
pub fn fig_controller(epochs: usize) -> Figure {
    let series = CONTROLLER_BUDGETS
        .iter()
        .map(|&b| {
            let label = if b.is_finite() {
                format!("budget {b}%")
            } else {
                "unbudgeted".to_string()
            };
            Series {
                label,
                points: controller_convergence_run(b, epochs)
                    .into_iter()
                    .enumerate()
                    .collect(),
            }
        })
        .collect();
    Figure {
        title: "Adaptive controller: measured overhead per confsync epoch (sweep3d, 4 ranks)"
            .into(),
        unit: "% of application time",
        xaxis: "Epoch",
        series,
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Render paper Table 1 (the dynprof command set).
pub fn table1() -> String {
    let mut out = String::from("## Table 1: commands accepted by the dynprof tool\n");
    out.push_str(dynprof_core::HELP_TEXT);
    out
}

/// Render paper Table 2 (the ASCI kernel applications).
pub fn table2() -> String {
    let mut out = String::from("## Table 2: the ASCI kernel applications\n");
    out.push_str(&format!(
        "{:<10} {:<10} {}\n",
        "App", "Type/Lang", "Description"
    ));
    for (name, kind, desc) in dynprof_apps::table2() {
        out.push_str(&format!("{name:<10} {kind:<10} {desc}\n"));
    }
    out
}

/// Render paper Table 3 (the instrumentation policies).
pub fn table3() -> String {
    let mut out = String::from("## Table 3: the instrumentation policies\n");
    out.push_str(&format!("{:<10} {}\n", "Policy", "Description"));
    for p in dynprof_vt::ALL_POLICIES {
        out.push_str(&format!("{:<10} {}\n", p.label(), p.description()));
    }
    out
}
