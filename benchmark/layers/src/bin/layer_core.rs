//! Level 2 of the traced run: the public calls `cli::run_cli` and
//! `cli::write_outputs` make, replayed one by one with a span around each,
//! with the program's observation on so that its exact counts can be read
//! afterwards. The stages must add up to level 1 (`layer_apps`); the
//! runner reports the difference as `apps.cli_unattributed_s`.

#[path = "../app.rs"]
mod app;

use benchmark::layer::{Report, Shape};
use benchmark::workloads::SCRIPT;
use dynprof_analysis::store::{write_store_from_vt, StoreOptions};
use dynprof_analysis::Profile;
use dynprof_core::{run_session, Command, SessionConfig};
use dynprof_obs::{self as obs, MetricValue};
use dynprof_sim::Machine;
use dynprof_vt::{Event, Policy};

/// The program's own counters behind the exact per-layer metrics, as
/// `(metric, counter)`.
const COUNTERS: [(&str, &str); 12] = [
    ("sim.events_dispatched", "sim.events_dispatched"),
    ("sim.context_switches", "sim.context_switches"),
    ("sim.queue_depth_high_water", "sim.queue_depth_high_water"),
    ("mpi.messages", "mpi.messages"),
    ("mpi.bytes", "mpi.bytes"),
    ("mpi.collectives", "mpi.collectives"),
    ("dpcl.requests", "dpcl.requests"),
    ("dpcl.msgs_install", "dpcl.msgs.install"),
    ("dpcl.retries", "dpcl.retries"),
    ("dpcl.timeouts", "dpcl.timeouts"),
    ("vt.events", "vt.events"),
    ("vt.deactivated_lookups", "vt.deactivated_lookups"),
];

fn main() {
    let shape = Shape::from_args();
    let mut report = Report::new("core");
    let policy = Policy::parse(&shape.policy).expect("the runner passes a known policy");

    let (app, build_app_s) = report
        .spans
        .span("apps", "build_app", |_| app::build(&shape, shape.cpus));
    report.value("build_app_s", build_app_s);
    let mut cfg = SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(shape.seed);
    if policy == Policy::Dynamic {
        cfg =
            cfg.with_script(Command::parse_script(SCRIPT).expect("the benchmark's script parses"));
    }

    obs::reset();
    obs::set_enabled(true);
    let (session, run_session_s) = report
        .spans
        .span("core", "run_session", |_| run_session(&app, cfg));
    let (trace, build_trace_s) = report
        .spans
        .span("vt", "build_trace", |_| session.vt.build_trace());
    let (_, profile_s) = report.spans.span("analysis", "profile", |_| {
        Profile::from_trace(&trace).render_top(15)
    });
    let regions = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::OmpFork { .. }))
        .count();
    let (_, drop_trace_s) = report.spans.span("vt", "drop_trace", |_| drop(trace));
    let (_, timefile_s) = report
        .spans
        .span("core", "timefile_render", |_| session.timefile.render());
    let store = shape.dir.join("core.vgvs");
    let (_, store_write_s) = report.spans.span("analysis", "store_write", |_| {
        write_store_from_vt(&session.vt, &store, StoreOptions::default())
            .expect("writing the store")
    });
    obs::set_enabled(false);

    // Values named like a metric are that metric; the rest are the
    // runner's working numbers.
    report.value("image.probe_pairs", session.probe_pairs_installed as f64);
    report.value("images", session.images.len() as f64);
    report.value("omp_regions", regions as f64);
    let (_, teardown_s) = report.spans.span("core", "teardown", |_| drop(session));

    report.value("core.run_session_s", run_session_s);
    report.value("core.teardown_s", teardown_s);
    // Materializing the merged trace costs its build and its release.
    report.value("vt.build_trace_s", build_trace_s + drop_trace_s);
    report.value("analysis.profile_s", profile_s);
    report.value("analysis.store_write_s", store_write_s);
    report.value("timefile_render_s", timefile_s);
    for (metric, counter) in COUNTERS {
        // A counter the run never touched is not registered: that is 0.
        let v = match obs::read(counter) {
            Some(MetricValue::Counter(n)) => n,
            Some(MetricValue::Gauge(_, high_water)) => high_water,
            Some(MetricValue::Histogram(h)) => h.count,
            None => 0,
        };
        report.value(metric, v as f64);
    }
    report.emit();
}
