//! The self-observability layer: counter determinism, the
//! cheap-when-off guarantee, the metrics goldens, the counters of the
//! figure harnesses, and the parallel figure runner.
//!
//! Every observed run here records into a registry of its own, handed to
//! it through `SessionConfig::metrics` (or `Sim::set_metrics`), so the
//! tests share nothing and run in parallel like any others.

mod common;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{base, check_golden, fig7_reduced};
use dynprof::apps::test_app;
use dynprof::core::{run_session, SessionConfig};
use dynprof::obs;
use dynprof::sim::{FaultSpec, Machine, ProcBackend, Sim};
use dynprof::vt::Policy;
use dynprof_bench::{fig8c, fig9};

/// `cfg` observed into `metrics`.
fn into(cfg: &SessionConfig, metrics: &Arc<obs::Registry>) -> SessionConfig {
    SessionConfig {
        metrics: Some(Arc::clone(metrics)),
        ..cfg.clone()
    }
}

/// Run `run` on `cfg` observed into a fresh registry; return its result
/// and the deterministic slice of the registry (wall-clock metrics, whose
/// names contain `real`, excluded).
fn observe<T>(cfg: &SessionConfig, run: impl FnOnce(&SessionConfig) -> T) -> (T, obs::Snapshot) {
    let metrics = Arc::new(obs::Registry::new());
    let out = run(&into(cfg, &metrics));
    (out, metrics.snapshot().deterministic())
}

/// One observed session's deterministic metrics.
fn observed_session(app: &str, policy: Policy, seed: u64) -> obs::Snapshot {
    let spec = test_app(app, 4).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(seed);
    observe(&cfg, |cfg| run_session(&spec, cfg.clone())).1
}

#[test]
fn counters_are_bit_reproducible_per_seed() {
    let a = observed_session("sweep3d", Policy::Dynamic, 7);
    let b = observed_session("sweep3d", Policy::Dynamic, 7);
    assert!(!a.metrics.is_empty(), "an observed session records metrics");
    assert_eq!(a, b, "same seed must reproduce every deterministic metric");
    // JSON rendering is deterministic too (the figure harness relies on
    // this for byte-identical parallel output).
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}

/// Two observed sessions at once, on two threads, each into its own
/// registry: each registry reads exactly what the same session records
/// alone, and an unobserved session beside them leaves the process
/// default untouched.
#[test]
fn concurrent_sessions_keep_their_own_metrics() {
    let alone = [
        observed_session("sweep3d", Policy::Dynamic, 7),
        observed_session("smg98", Policy::Full, 42),
    ];
    let together = std::thread::scope(|s| {
        let a = s.spawn(|| observed_session("sweep3d", Policy::Dynamic, 7));
        let b = s.spawn(|| observed_session("smg98", Policy::Full, 42));
        let unobserved = s.spawn(|| {
            let spec = test_app("umt98", 2).unwrap();
            run_session(
                &spec,
                SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full),
            )
        });
        unobserved.join().unwrap();
        [a.join().unwrap(), b.join().unwrap()]
    });
    assert_ne!(alone[0], alone[1], "the two sessions record different runs");
    assert_eq!(together, alone);
    assert!(obs::process_default().is_none());
    for name in ["sim.events_dispatched", "vt.events", "mpi.messages"] {
        assert_eq!(obs::read(name), None, "{name} reached the process default");
    }
}

#[test]
fn counters_cover_every_layer() {
    let snap = observed_session("smg98", Policy::Dynamic, 42);
    for expect in [
        "sim.events_dispatched",
        "sim.context_switches",
        "sim.queue_depth_high_water",
        "mpi.messages",
        "mpi.bytes",
        "mpi.collectives",
        "mpi.barrier_wait_ns",
        "dpcl.requests",
        "dpcl.msgs.install",
        "dpcl.install_latency_ns",
        "vt.events",
        "vt.bytes_flushed",
    ] {
        assert!(
            snap.metrics.iter().any(|m| m.name == expect),
            "metric {expect:?} missing from {:?}",
            snap.metrics.iter().map(|m| &m.name).collect::<Vec<_>>()
        );
    }
}

/// The deepest coroutine stack of a run is a reported limit, not one to
/// be discovered by a guard-page fault: coroutine-backed runs set the
/// gauge, it lies inside the stack, and — being a host-side reading that
/// moves with the build — it stays out of every deterministic snapshot.
#[test]
fn coroutine_stack_high_water_is_reported() {
    use dynprof::sim::{Sim, SimTime};
    const GAUGE: &str = "sim.co_stack_high_water_real_bytes";
    let reading = |backend| {
        let metrics = Arc::new(obs::Registry::new());
        let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 3, backend);
        sim.set_metrics(Arc::clone(&metrics));
        let backend = sim.backend();
        for i in 0..4u64 {
            sim.spawn(format!("p{i}"), 0, move |p| {
                p.sleep(SimTime::from_micros(i + 1))
            });
        }
        sim.run();
        let snap = metrics.snapshot();
        assert!(snap.deterministic().metrics.iter().all(|m| m.name != GAUGE));
        let deepest = match metrics.read(GAUGE) {
            Some(obs::MetricValue::Gauge(v, _)) => v,
            _ => 0,
        };
        (backend, deepest)
    };
    let (backend, deepest) = reading(ProcBackend::Coroutine);
    if backend == ProcBackend::Coroutine {
        assert!(
            deepest > 64,
            "a started coroutine writes past its root frame"
        );
        assert!(deepest < 1024 * 1024, "{deepest} bytes: outside the stack");
    }
    let (_, deepest) = reading(ProcBackend::Threads);
    assert_eq!(deepest, 0, "threads have no coroutine stacks to measure");
}

/// A session given no registry records nothing anywhere: not into the
/// process default, which stays disarmed.
#[test]
fn disabled_observation_is_invisible() {
    let spec = test_app("sweep3d", 4).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(7);
    run_session(&spec, cfg);
    assert!(obs::process_default().is_none());
    for name in [
        "sim.events_dispatched",
        "mpi.messages",
        "dpcl.requests",
        "vt.events",
    ] {
        assert_eq!(obs::read(name), None, "{name} recorded while unobserved");
    }
}

#[test]
fn disabled_check_costs_nanoseconds() {
    // The whole cost of a site in an unobserved run is the guard every
    // site runs: `Proc::metrics()`, one load through the engine and a
    // branch on `None`. Budget 50 ns/check — an order of magnitude above
    // reality (~1 ns) so the test stays robust on loaded CI hosts, while
    // still catching a regression to, say, a lock or a registry lookup on
    // the fast path. The loop runs as five batches and the fastest one is
    // judged, so a slice the host gives to another process cannot decide
    // the result; a regression slows every batch.
    const BATCHES: usize = 5;
    const ITERS: u64 = 2_000_000;
    let fastest = Arc::new(Mutex::new(Duration::MAX));
    let out = Arc::clone(&fastest);
    let sim = Sim::virtual_time(Machine::test_machine(), 1);
    sim.spawn("guard", 0, move |p| {
        let mut sink = 0u64;
        for _ in 0..BATCHES {
            let t = Instant::now();
            for i in 0..ITERS {
                if let Some(m) = std::hint::black_box(p).metrics() {
                    m.counter("test.never").inc();
                }
                sink = sink.wrapping_add(i);
            }
            let mut fastest = out.lock().unwrap();
            *fastest = (*fastest).min(t.elapsed());
        }
        assert!(std::hint::black_box(sink) != 1);
    });
    sim.run();
    let per_iter = fastest.lock().unwrap().as_nanos() as f64 / ITERS as f64;
    assert!(
        per_iter < 50.0,
        "disabled obs check costs {per_iter:.1} ns/iter (budget 50 ns)"
    );
}

/// Golden regression: the deterministic subset of the `--metrics` JSON
/// for each reference workload. (Wall-clock gauges are excluded — they
/// differ between any two runs; see `Snapshot::deterministic`.)
///
/// The three workloads are captured in order into one registry, reset
/// between them, as the goldens were recorded: a later golden also lists,
/// at zero, the instruments an earlier workload registered.
///
/// The scheduler-transport counters postdate the recorded goldens: they
/// describe which thread performed each dispatch (and how timer heap
/// entries were reclaimed), not anything the simulation model computed,
/// so they are excluded to keep the goldens pinned across scheduler
/// rewrites. Everything the model produces — events, context switches,
/// queue depth, horizons — stays checked.
#[test]
fn golden_metrics_json() {
    let metrics = Arc::new(obs::Registry::new());
    let base = into(&base(), &metrics);
    let workloads: [(&str, &dyn Fn()); 3] = [
        ("fig7_smg98_8_metrics.json", &|| drop(fig7_reduced(&base))),
        ("fig8c_r4_metrics.json", &|| drop(fig8c(&base, 4, 1))),
        ("fig9_metrics.json", &|| drop(fig9(&base, 1))),
    ];
    for (name, run) in workloads {
        metrics.reset();
        run();
        let mut snap = metrics.snapshot().deterministic();
        snap.metrics.retain(|m| {
            !matches!(
                m.name.as_str(),
                "sim.direct_handoffs" | "sim.sched_fallbacks" | "sim.timers_cancelled_eagerly"
            )
        });
        check_golden(name, &snap.to_json().pretty());
    }
}

/// The headline invariant of fault injection: a fault plan with every
/// fault disabled produces byte-identical figure JSON *and* byte-identical
/// deterministic metrics to a run with no plan installed at all.
#[test]
fn no_faults_is_identity() {
    let (fig_base, snap_base) = observe(&base(), |b| fig9(b, 1).to_json());
    let inert = SessionConfig {
        faults: Some(FaultSpec::parse("7:none").expect("spec")),
        ..base()
    };
    let (fig_none, snap_none) = observe(&inert, |b| fig9(b, 1).to_json());
    assert_eq!(fig_base, fig_none, "figure JSON must be byte-identical");
    assert_eq!(snap_base, snap_none, "deterministic metrics must match");
    assert_eq!(
        snap_base.to_json().pretty(),
        snap_none.to_json().pretty(),
        "rendered metrics JSON must be byte-identical"
    );
}

/// Figure JSON and deterministic metrics are byte-identical across
/// carriers, including the dispatch accounting the metrics goldens
/// deliberately exclude (the dispatch decisions are shared code).
#[test]
fn figures_and_metrics_identical_across_backends() {
    let run = |backend| {
        let base = SessionConfig { backend, ..base() };
        let (fig, snap) = observe(&base, |b| fig9(b, 1).to_json());
        (fig, snap.to_json().pretty())
    };
    let (fig_t, met_t) = run(ProcBackend::Threads);
    let (fig_c, met_c) = run(ProcBackend::Coroutine);
    assert_eq!(fig_t, fig_c, "figure JSON must be byte-identical");
    assert_eq!(met_t, met_c, "deterministic metrics must be byte-identical");
}

#[test]
fn parallel_figure_runner_matches_serial_bytes() {
    // The fig7 sweep fans out across a worker pool; its JSON must be
    // byte-identical to the serial runner's. Exercised through the same
    // entry point the `fig7` binary uses.
    let serial = dynprof_bench::fig7(&base(), "smg98", 1).to_json();
    let par = dynprof_bench::fig7(&base(), "smg98", 4).to_json();
    assert_eq!(serial, par);
}

#[test]
fn parallel_fig8_matches_serial_bytes() {
    // Same byte-identity contract for the fig8 confsync sweeps (the
    // entry point the `fig8 --parallel` binary uses). Two seeds per
    // point keep the averaging path honest without the full 16-run cost.
    let serial = fig8c(&base(), 2, 1).to_json();
    let par = fig8c(&base(), 2, 4).to_json();
    assert_eq!(serial, par);
}

#[test]
fn parallel_fig9_matches_serial_bytes() {
    // And for the fig9 create-and-instrument sweep (`fig9 --parallel`):
    // per-app point order and degraded-label folding must survive the
    // fan-out. The workers' sessions share one registry, as under
    // `--metrics`, and its counters (sums, whatever the finishing order)
    // read what the serial sweep's do.
    let (serial, serial_metrics) = observe(&base(), |b| fig9(b, 1).to_json());
    let (par, par_metrics) = observe(&base(), |b| fig9(b, 4).to_json());
    assert_eq!(serial, par);
    let counters = |s: &obs::Snapshot| -> Vec<obs::Metric> {
        s.metrics
            .iter()
            .filter(|m| matches!(m.value, obs::MetricValue::Counter(_)))
            .filter(|m| !m.name.starts_with("bench.pool"))
            .cloned()
            .collect()
    };
    assert!(!counters(&serial_metrics).is_empty());
    assert_eq!(counters(&serial_metrics), counters(&par_metrics));
}
