//! The traced run: per-layer numbers for one workload.
//!
//! Three levels, each from the benchmark's own files:
//!
//! 1. `layer_apps` runs one session in-process through the product's own
//!    `cli::run_cli` / `cli::write_outputs`, with the program's observation
//!    off and on (the pair gives the tracing overhead);
//! 2. `layer_core` replays the public calls those two make, a span around
//!    each, and reads the program's exact counters afterwards;
//! 3. the other drivers time each layer's public functions in isolation at
//!    the workload's shape; a unit cost times the exact count of level 2
//!    is that layer's estimated busy time.
//!
//! What the levels fail to explain is reported, not hidden:
//! `apps.cli_unattributed_s` (level 1 minus level 2) and
//! `core.unattributed_s` (`run_session` minus the busy estimates).
//! End-to-end metrics are never taken from this run.

use std::fs;
use std::path::Path;

use crate::child;
use crate::host;
use crate::json::Json;
use crate::layer::{Answer, Shape, UnitCost};
use crate::metrics::{self, Values};
use crate::run::{Measured, Runner, QUERIES};
use crate::stats;
use crate::workloads::SCRIPT;

/// The drivers, in the order they run. `core` comes before the isolated
/// drivers only so that a reader of the log sees the counts first.
pub const LAYERS: [&str; 10] = [
    "apps", "core", "sim", "mpi", "omp", "image", "dpcl", "vt", "analysis", "obs",
];

/// The traced run's outcome.
pub struct Traced {
    /// The per-layer metrics that could be measured.
    pub values: Values,
    /// Per driver: status, wall time, what it answered.
    pub layers: Json,
    /// Every span of every driver, each tagged with its process.
    pub spans: Json,
    /// `layer: reason` for each driver whose rows are missing.
    pub unavailable: Vec<String>,
}

/// Start one driver and parse its answer. An `Err` is the reason its rows
/// are unavailable.
fn drive(
    bin_dir: &Path,
    dir: &Path,
    layer: &str,
    tag: &str,
    shape: &Shape,
    extra: &[&str],
) -> Result<(Answer, f64), String> {
    let bin = bin_dir.join(format!("layer_{layer}"));
    if !bin.exists() {
        // `run.sh` leaves the first compiler error beside the binaries.
        let why = fs::read_to_string(bin_dir.join(format!("layer_{layer}.unavailable")));
        return Err(why.map_or("not built".to_string(), |w| w.trim().to_string()));
    }
    let mut args = shape.to_args();
    args.extend(extra.iter().map(|s| s.to_string()));
    let out = dir.join(format!("{tag}.json"));
    let run = child::run(&bin, &args, dir, &out)?;
    if !run.ok {
        let err = fs::read_to_string(dir.join(format!("{tag}.json.err"))).unwrap_or_default();
        return Err(format!(
            "driver failed: {}",
            err.lines().last().unwrap_or("no message")
        ));
    }
    let text = fs::read_to_string(&out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    let line = text.lines().last().ok_or("driver printed nothing")?;
    Ok((Answer::parse(line)?, run.wall_s))
}

/// Least-squares slope of ln(y) over ln(x).
fn log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// What the drivers answered.
#[derive(Default)]
struct Answers {
    /// Level 1 with the program's observation off: the faster of two.
    apps_off: Option<Answer>,
    /// Level 1 with it on: the faster of two.
    apps_on: Option<Answer>,
    /// The other drivers, by layer.
    others: Vec<(&'static str, Answer)>,
}

impl Answers {
    fn of(&self, layer: &str) -> Option<&Answer> {
        self.others
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, a)| a)
    }
}

/// The per-layer metrics the drivers' answers give. A value a driver
/// reports under a metric's name is that metric; this adds what takes more
/// than one driver: self costs net of the engine's share, busy estimates,
/// and what neither level explains. A missing driver costs the rows that
/// need it and nothing else.
fn reduce(answers: &Answers) -> Values {
    let mut v = Values::default();
    let direct = answers
        .apps_off
        .iter()
        .chain(answers.others.iter().map(|(_, a)| a));
    for (name, x) in direct.flat_map(|a| &a.values) {
        if metrics::find(name).is_some() {
            v.set(name, *x);
        }
    }
    macro_rules! set {
        ($name:expr, $value:expr) => {
            if let Some(x) = $value {
                v.set($name, x);
            }
        };
    }

    // The engine's price per event; every other self cost is net of it.
    let dispatch_ns = answers
        .of("sim")
        .and_then(|a| a.cost("dispatch"))
        .map(|c| c.wall_ns / c.ops);
    set!("sim.dispatch_ns_per_event", dispatch_ns);
    let self_ns =
        |c: &UnitCost| (c.wall_ns - c.engine_events * dispatch_ns.unwrap_or(0.0)).max(0.0) / c.ops;
    let self_cost =
        |layer: &str, name: &str| answers.of(layer).and_then(|a| a.cost(name)).map(&self_ns);
    let value = |layer: &str, name: &str| answers.of(layer).and_then(|a| a.value(name));
    let core = |name: &str| value("core", name);

    let p2p_ns = self_cost("mpi", "p2p");
    let allreduce_ns = self_cost("mpi", "allreduce");
    let forkjoin_ns = self_cost("omp", "forkjoin");
    let build_ns = self_cost("image", "build");
    let insert_ns = self_cost("image", "insert");
    let unprobed_ns = self_cost("image", "call_unprobed");
    // A probed call fires twice, at entry and at exit.
    let fire_ns = self_cost("image", "call_probed")
        .zip(unprobed_ns)
        .map(|(p, u)| (p - u).max(0.0) / 2.0);
    // An install ends in the image's own insert, costed on its own.
    let net_of_insert =
        |name: &str| self_cost("dpcl", name).map(|x| (x - insert_ns.unwrap_or(0.0)).max(0.0));
    let install_ns = net_of_insert("install");
    let record_ns = self_cost("vt", "record");
    let lookup_ns = self_cost("vt", "lookup");
    set!("mpi.p2p_ns_per_message", p2p_ns);
    set!("mpi.allreduce_us", allreduce_ns.map(|x| x * 1e-3));
    set!("omp.forkjoin_us", forkjoin_ns.map(|x| x * 1e-3));
    set!("image.build_us_per_image", build_ns.map(|x| x * 1e-3));
    set!(
        "image.patch_ns_per_probe",
        self_cost("image", "insert_remove")
    );
    set!("image.call_unprobed_ns", unprobed_ns);
    set!("image.fire_ns", fire_ns);
    set!("dpcl.install_us_per_probe", install_ns.map(|x| x * 1e-3));
    set!(
        "dpcl.txn_install_us_per_probe",
        net_of_insert("txn_install").map(|x| x * 1e-3)
    );
    set!("vt.record_ns_per_event", record_ns);
    set!("vt.lookup_ns", lookup_ns);
    set!(
        "vt.confsync_us_per_rank",
        self_cost("vt", "confsync").map(|x| x * 1e-3)
    );
    set!("obs.disabled_site_ns", self_cost("obs", "disabled_site"));

    // Busy estimates, in seconds: unit cost x the exact count of level 2.
    // `?` inside the closures: an estimate needs every one of its terms.
    let events = core("vt.events");
    let busy = [
        (
            "sim.est_busy_s",
            (|| {
                let lifecycle =
                    value("sim", "procs")? * value("sim", "sim.proc_lifecycle_us")? * 1e-6;
                Some(core("sim.events_dispatched")? * dispatch_ns? * 1e-9 + lifecycle)
            })(),
        ),
        (
            "mpi.est_busy_s",
            (|| {
                Some(
                    (core("mpi.messages")? * p2p_ns? + core("mpi.collectives")? * allreduce_ns?)
                        * 1e-9,
                )
            })(),
        ),
        (
            "omp.est_busy_s",
            (|| Some(core("omp_regions")? * forkjoin_ns? * 1e-9))(),
        ),
        // The session inserts and never removes; each recorded event is
        // one firing through an image.
        (
            "image.est_busy_s",
            (|| {
                let patch = 2.0 * core("image.probe_pairs")? * insert_ns?;
                Some((core("images")? * build_ns? + patch + events? * fire_ns?) * 1e-9)
            })(),
        ),
        (
            "dpcl.est_busy_s",
            (|| Some(core("dpcl.msgs_install")? * install_ns? * 1e-9))(),
        ),
        (
            "vt.est_busy_s",
            (|| Some((events? * record_ns? + core("vt.deactivated_lookups")? * lookup_ns?) * 1e-9))(
            ),
        ),
    ];
    for (name, x) in busy {
        set!(name, x);
    }
    // What the estimates leave of `run_session`: only when all six exist.
    set!(
        "core.unattributed_s",
        busy.iter()
            .map(|(_, x)| *x)
            .sum::<Option<f64>>()
            .zip(core("core.run_session_s"))
            .map(|(estimated, measured)| measured - estimated)
    );
    // What level 2 leaves of level 1's `run_cli`.
    let stages = [
        "build_app_s",
        "core.run_session_s",
        "vt.build_trace_s",
        "analysis.profile_s",
        "timefile_render_s",
    ];
    let apps = |a: &Option<Answer>, name: &str| a.as_ref().and_then(|a| a.value(name));
    set!(
        "apps.cli_unattributed_s",
        apps(&answers.apps_off, "apps.run_cli_s")
            .zip(stages.iter().map(|s| core(s)).sum::<Option<f64>>())
            .map(|(level1, level2)| level1 - level2)
    );
    set!(
        "harness.trace_overhead_pct",
        apps(&answers.apps_off, "session_s")
            .zip(apps(&answers.apps_on, "session_s"))
            .map(|(off, on)| 100.0 * (on / off - 1.0))
    );
    v
}

/// Run the drivers for the workload `runner` just measured and report the
/// per-layer metrics.
pub fn run(runner: &mut Runner<'_>, m: &Measured, end_to_end: &Values) -> Result<Traced, String> {
    let w = runner.workload;
    let cpus = runner.cpus;
    let dir = runner.tmp.join("layers");
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let shape = Shape {
        app: w.app.to_string(),
        cpus: cpus as usize,
        policy: w.policy.to_string(),
        scale: w
            .scale
            .map(|s| s.parse().expect("the workload table holds numbers")),
        seed: runner.seed,
        processes: w.processes(cpus) as usize,
        dir: dir.clone(),
        store: m.dir.join("run.vgvs"),
    };

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    let mut unavailable: Vec<String> = Vec::new();
    // File one driver's outcome in the result document.
    let mut record = |layer: &str, tag: &str, got: Result<(Answer, f64), String>| match got {
        Ok((a, wall_s)) => {
            for s in &a.spans {
                let mut row = vec![("process".to_string(), Json::str(tag))];
                row.extend(s.as_obj().unwrap_or_default().iter().cloned());
                spans.push(Json::Obj(row));
            }
            let numbers = a.values.iter().map(|(k, x)| (k.clone(), Json::from(*x)));
            let notes = a.notes.iter().map(|(k, x)| (k.clone(), Json::str(x)));
            layers.push((
                tag.to_string(),
                Json::obj([
                    ("status", Json::str("ok")),
                    ("driver_wall_s", Json::from(wall_s)),
                    ("values", Json::obj(numbers)),
                    ("notes", Json::obj(notes)),
                ]),
            ));
            Some(a)
        }
        Err(why) => {
            let status = format!("unavailable: {why}");
            if !unavailable.iter().any(|u| u.starts_with(layer)) {
                unavailable.push(format!("{layer}: {status}"));
            }
            layers.push((tag.to_string(), Json::obj([("status", Json::Str(status))])));
            None
        }
    };

    // Level 1, observation off and on, twice each in alternation; the
    // faster of each pair stands (interference only adds time).
    let mut answers = Answers::default();
    for round in 0..2 {
        for (on, flag) in [(false, None), (true, Some("--obs-on"))] {
            let tag = format!("apps.obs_{}.{round}", if on { "on" } else { "off" });
            let got = drive(&runner.bin_dir, &dir, "apps", &tag, &shape, flag.as_slice());
            let slot = if on {
                &mut answers.apps_on
            } else {
                &mut answers.apps_off
            };
            if let Some(a) = record("apps", &tag, got) {
                if slot
                    .as_ref()
                    .is_none_or(|b| a.value("session_s") < b.value("session_s"))
                {
                    *slot = Some(a);
                }
            }
        }
    }
    for layer in &LAYERS[1..] {
        let got = drive(&runner.bin_dir, &dir, layer, layer, &shape, &[]);
        answers
            .others
            .extend(record(layer, layer, got).map(|a| (*layer, a)));
    }
    let mut v = reduce(&answers);

    // analysis: counts and per-child times from the `vgv` children themselves.
    let first = &m.queries[0];
    v.set("analysis.chunks_written", first.info.chunks as f64);
    v.set("analysis.chunks_read", first.chunks_decoded as f64);
    v.set("analysis.chunks_skipped", first.chunks_skipped as f64);
    v.set(
        "analysis.store_bytes_per_event",
        first.info.bytes as f64 / first.info.events as f64,
    );
    for (i, q) in QUERIES.iter().enumerate() {
        let walls: Vec<f64> = m.queries.iter().map(|s| s.child_wall_s[i]).collect();
        v.set(&format!("analysis.vgv_{q}_s"), stats::p25(&walls));
    }

    // session: the untraced children.
    let walls = m.session_walls();
    let wall_p25 = end_to_end
        .get("session_wall_s")
        .expect("end-to-end metrics are complete");
    let s = stats::Summary::of(&walls).expect("measure() returned samples");
    // Under eleven samples no percentile has ten samples beyond it: the
    // tail is then the maximum, and `tail_pct` says so by reading 100.
    let (tail_pct, tail) = s
        .tail
        .unwrap_or((100.0, walls.iter().copied().fold(f64::MIN, f64::max)));
    let med = |f: fn(&child::ChildRun) -> f64| {
        stats::median(&m.sessions.iter().map(f).collect::<Vec<_>>())
    };
    v.set("session.wall_median_s", s.median);
    v.set("session.wall_min_s", s.min);
    v.set("session.wall_p75_s", s.p75);
    v.set("session.wall_tail_s", tail);
    v.set("session.tail_pct", tail_pct);
    v.set("session.samples", s.n as f64);
    v.set("session.cpu_user_s", med(|r| r.user_s));
    v.set("session.cpu_sys_s", med(|r| r.sys_s));
    v.set("session.minor_faults", med(|r| r.minor_faults as f64));
    // What the child pays around `main`'s three calls: exec, loading,
    // runtime start, and the kernel unmapping its memory at exit.
    if let Some(in_process_s) = answers.apps_off.as_ref().and_then(|a| a.value("session_s")) {
        v.set("session.process_overhead_s", wall_p25 - in_process_s);
    }
    // The scaling exponent needs two more sizes, the best of two sessions each.
    let mut points = vec![(f64::from(cpus), wall_p25)];
    let small = runner.tmp.join("scaling");
    fs::create_dir_all(&small).map_err(|e| format!("creating {}: {e}", small.display()))?;
    fs::write(small.join("script.dp"), SCRIPT).map_err(|e| format!("writing script: {e}"))?;
    for divisor in [4, 2] {
        let n = (cpus / divisor).max(1);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let (run, facts) = runner.session(&small, n, w.policy, "scale", false)?;
            if facts.is_some() {
                best = best.min(run.wall_s);
            }
        }
        if best.is_finite() {
            points.push((f64::from(n), best));
        }
    }
    if points.len() == 3 {
        v.set("session.scaling_exponent", log_slope(&points));
    }

    v.set("harness.sentinel_p25_ms", runner.sentinel.p25_ms());
    v.set(
        "harness.sentinel_spread_pct",
        100.0 * runner.sentinel.spread(),
    );
    if let Some(mb) = host::runner_peak_rss_mb() {
        v.set("harness.runner_peak_rss_mb", mb);
    }

    Ok(Traced {
        values: v,
        layers: Json::Obj(layers),
        spans: Json::Arr(spans),
        unavailable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(values: &[(&str, f64)], costs: &[(&str, f64, f64, f64)]) -> Answer {
        Answer {
            values: values.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            costs: costs
                .iter()
                .map(|&(name, wall_ns, ops, engine_events)| UnitCost {
                    name: name.to_string(),
                    wall_ns,
                    ops,
                    engine_events,
                })
                .collect(),
            ..Answer::default()
        }
    }

    #[test]
    fn self_costs_are_net_of_the_engine_and_missing_drivers_cost_only_their_rows() {
        let mut answers = Answers {
            apps_off: Some(answer(&[("apps.run_cli_s", 1.0), ("session_s", 1.2)], &[])),
            apps_on: Some(answer(&[("apps.run_cli_s", 9.0), ("session_s", 1.5)], &[])),
            others: vec![
                // 100 ns an event.
                ("sim", answer(&[], &[("dispatch", 1e6, 1e4, 1e4)])),
                // 1000 messages took 500 us, 2000 events of them: 300 ns each.
                (
                    "mpi",
                    answer(&[], &[("p2p", 5e5, 1e3, 2e3), ("allreduce", 1e5, 1e3, 5e3)]),
                ),
                (
                    "core",
                    answer(
                        &[
                            ("mpi.messages", 1e6),
                            ("mpi.collectives", 10.0),
                            ("helper", 1.0),
                        ],
                        &[],
                    ),
                ),
            ],
        };
        let v = reduce(&answers);
        assert_eq!(v.get("sim.dispatch_ns_per_event"), Some(100.0));
        assert_eq!(v.get("mpi.p2p_ns_per_message"), Some(300.0));
        assert_eq!(v.get("mpi.allreduce_us"), Some(0.0), "never below zero");
        assert_eq!(v.get("mpi.est_busy_s"), Some(1e6 * 300.0 * 1e-9));
        assert_eq!(
            v.get("mpi.messages"),
            Some(1e6),
            "named like a metric: copied"
        );
        assert_eq!(
            v.get("apps.run_cli_s"),
            Some(1.0),
            "from the observation-off run"
        );
        assert!((v.get("harness.trace_overhead_pct").unwrap() - 25.0).abs() < 1e-9);
        for absent in [
            "omp.forkjoin_us",
            "vt.est_busy_s",
            "core.unattributed_s",
            "apps.cli_unattributed_s",
        ] {
            assert_eq!(v.get(absent), None, "{absent}");
        }
        // Without the engine's price the costs are gross, not missing.
        answers.others.remove(0);
        assert_eq!(reduce(&answers).get("mpi.p2p_ns_per_message"), Some(500.0));
    }

    #[test]
    fn log_slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = [288.0, 576.0, 1152.0]
            .iter()
            .map(|&x: &f64| (x, 3e-4 * x.powf(1.45)))
            .collect();
        assert!((log_slope(&pts) - 1.45).abs() < 1e-9);
        assert!((log_slope(&[(2.0, 5.0), (4.0, 5.0), (8.0, 5.0)])).abs() < 1e-12);
    }
}
