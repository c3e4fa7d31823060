//! The self-observability layer: counter determinism, the
//! zero-cost-when-off guarantee, and the parallel figure runner.
//!
//! The obs registry is process-global, so every test here serializes on
//! one mutex and runs in this dedicated binary (Rust integration-test
//! files are separate processes; tests in other files cannot pollute the
//! registry while these run).

use std::sync::Mutex;
use std::time::Instant;

use dynprof::apps::test_app;
use dynprof::core::{run_session, SessionConfig};
use dynprof::obs;
use dynprof::sim::Machine;
use dynprof::vt::Policy;

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Run one observed session and return the deterministic slice of the
/// registry (wall-clock metrics, whose names contain `real`, excluded).
fn observed_session(app: &str, policy: Policy, seed: u64) -> obs::Snapshot {
    obs::reset();
    obs::set_enabled(true);
    let spec = test_app(app, 4).unwrap();
    run_session(
        &spec,
        SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(seed),
    );
    obs::set_enabled(false);
    obs::snapshot().deterministic()
}

#[test]
fn counters_are_bit_reproducible_per_seed() {
    let _g = REGISTRY_LOCK.lock().unwrap();
    let a = observed_session("sweep3d", Policy::Dynamic, 7);
    let b = observed_session("sweep3d", Policy::Dynamic, 7);
    assert!(!a.metrics.is_empty(), "observed session recorded nothing");
    assert_eq!(a, b, "same seed must reproduce every deterministic metric");
    // JSON rendering is deterministic too (the figure harness relies on
    // this for byte-identical parallel output).
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}

#[test]
fn counters_cover_every_layer() {
    let _g = REGISTRY_LOCK.lock().unwrap();
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
    use dynprof::sim::{ProcBackend, Sim, SimTime};
    let _g = REGISTRY_LOCK.lock().unwrap();
    if !obs_compiled_in() {
        return;
    }
    const GAUGE: &str = "sim.co_stack_high_water_real_bytes";
    let reading = |backend| {
        obs::reset();
        obs::set_enabled(true);
        let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 3, backend);
        let backend = sim.backend();
        for i in 0..4u64 {
            sim.spawn(format!("p{i}"), 0, move |p| {
                p.sleep(SimTime::from_micros(i + 1))
            });
        }
        sim.run();
        obs::set_enabled(false);
        let snap = obs::snapshot();
        assert!(snap.deterministic().metrics.iter().all(|m| m.name != GAUGE));
        let deepest = snap.metrics.iter().find_map(|m| match m.value {
            obs::MetricValue::Gauge(v, _) if m.name == GAUGE => Some(v),
            _ => None,
        });
        (backend, deepest.unwrap_or(0))
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

/// Is the obs feature compiled in? (Compiled out ⇒ enabling is a no-op.)
fn obs_compiled_in() -> bool {
    obs::set_enabled(true);
    let live = obs::enabled();
    obs::set_enabled(false);
    live
}

#[test]
fn disabled_observation_is_invisible() {
    let _g = REGISTRY_LOCK.lock().unwrap();
    obs::reset();
    obs::set_enabled(false);
    let spec = test_app("sweep3d", 4).unwrap();
    run_session(
        &spec,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(7),
    );
    let snap = obs::snapshot();
    for m in &snap.metrics {
        let zero = match &m.value {
            obs::MetricValue::Counter(v) => *v == 0,
            obs::MetricValue::Gauge(v, hw) => *v == 0 && *hw == 0,
            obs::MetricValue::Histogram(h) => h.count == 0,
        };
        assert!(
            zero,
            "metric {:?} recorded while disabled: {:?}",
            m.name, m.value
        );
    }
}

#[test]
fn disabled_check_costs_nanoseconds() {
    // The whole cost of a disabled obs site is one relaxed load + branch.
    // Budget 50 ns/check — an order of magnitude above reality (~1 ns) so
    // the test stays robust on loaded CI hosts, while still catching a
    // regression to, say, a lock or a registry lookup on the fast path.
    let _g = REGISTRY_LOCK.lock().unwrap();
    obs::set_enabled(false);
    const ITERS: u64 = 10_000_000;
    let t = Instant::now();
    let mut sink = 0u64;
    for i in 0..ITERS {
        if obs::enabled() {
            obs::counter("test.never").inc();
        }
        sink = sink.wrapping_add(i);
    }
    let per_iter = t.elapsed().as_nanos() as f64 / ITERS as f64;
    assert!(std::hint::black_box(sink) != 1);
    assert!(
        per_iter < 50.0,
        "disabled obs check costs {per_iter:.1} ns/iter (budget 50 ns)"
    );
}

#[test]
fn parallel_figure_runner_matches_serial_bytes() {
    // The fig7 sweep fans out across a worker pool; its JSON must be
    // byte-identical to the serial runner's. Exercised through the same
    // entry points the `fig7` binary uses.
    let _g = REGISTRY_LOCK.lock().unwrap();
    let serial = dynprof_bench::fig7("smg98").to_json();
    let par = dynprof_bench::fig7_with_workers("smg98", 4).to_json();
    assert_eq!(serial, par);
}

#[test]
fn parallel_fig8_matches_serial_bytes() {
    // Same byte-identity contract for the fig8 confsync sweeps (the
    // entry points the `fig8 --parallel` binary uses). Two seeds per
    // point keep the averaging path honest without the full 16-run cost.
    let _g = REGISTRY_LOCK.lock().unwrap();
    let serial = dynprof_bench::fig8c(2).to_json();
    let par = dynprof_bench::fig8c_with_workers(2, 4).to_json();
    assert_eq!(serial, par);
}

#[test]
fn parallel_fig9_matches_serial_bytes() {
    // And for the fig9 create-and-instrument sweep (`fig9 --parallel`):
    // per-app point order and degraded-label folding must survive the
    // fan-out.
    let _g = REGISTRY_LOCK.lock().unwrap();
    let serial = dynprof_bench::fig9().to_json();
    let par = dynprof_bench::fig9_with_workers(4).to_json();
    assert_eq!(serial, par);
}
