//! Reproducibility: identical seeds produce bit-identical measurements.
//!
//! The discrete-event simulator is the foundation of every number this
//! repository reports; these tests pin its determinism end-to-end,
//! through MPI, OpenMP, DPCL daemons, and full dynprof sessions.

use dynprof::apps::test_app;
use dynprof::core::{run_session, SessionConfig, SessionReport};
use dynprof::sim::Machine;
use dynprof::vt::Policy;

fn session(app: &str, policy: Policy, seed: u64) -> SessionReport {
    let spec = test_app(app, 4).unwrap();
    run_session(
        &spec,
        SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(seed),
    )
}

#[test]
fn static_runs_are_bit_reproducible() {
    for policy in [Policy::Full, Policy::None] {
        let a = session("smg98", policy, 42);
        let b = session("smg98", policy, 42);
        assert_eq!(a.app_time, b.app_time, "{policy}");
        assert_eq!(a.total_time, b.total_time, "{policy}");
        assert_eq!(a.trace_bytes, b.trace_bytes, "{policy}");
        assert_eq!(a.vt.build_trace(), b.vt.build_trace(), "{policy}");
    }
}

#[test]
fn dynamic_sessions_are_bit_reproducible() {
    let a = session("sweep3d", Policy::Dynamic, 7);
    let b = session("sweep3d", Policy::Dynamic, 7);
    assert_eq!(a.app_time, b.app_time);
    assert_eq!(a.create_time, b.create_time);
    assert_eq!(a.instrument_time, b.instrument_time);
    assert_eq!(a.trace_bytes, b.trace_bytes);
}

#[test]
fn different_seeds_change_daemon_timing_but_not_results() {
    let a = session("sweep3d", Policy::Dynamic, 7);
    let b = session("sweep3d", Policy::Dynamic, 8);
    // DPCL jitter differs...
    assert_ne!(
        (a.create_time, a.instrument_time),
        (b.create_time, b.instrument_time),
        "seeds should perturb daemon delays"
    );
    // ...but the instrumentation outcome is identical.
    assert_eq!(a.probe_pairs_installed, b.probe_pairs_installed);
    // And the application's own numerics are seed-independent.
    let oa = {
        let p = dynprof::apps::Sweep3dParams::test();
        let o = std::sync::Arc::clone(&p.outputs);
        run_session(
            &dynprof::apps::sweep3d(4, p),
            SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(7),
        );
        o.get("flux:0").unwrap()
    };
    let ob = {
        let p = dynprof::apps::Sweep3dParams::test();
        let o = std::sync::Arc::clone(&p.outputs);
        run_session(
            &dynprof::apps::sweep3d(4, p),
            SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(8),
        );
        o.get("flux:0").unwrap()
    };
    assert_eq!(oa, ob, "numerics must not depend on the simulation seed");
}

#[test]
fn omp_app_is_reproducible() {
    let a = session("umt98", Policy::Dynamic, 21);
    let b = session("umt98", Policy::Dynamic, 21);
    assert_eq!(a.app_time, b.app_time);
    assert_eq!(a.trace_bytes, b.trace_bytes);
}

#[test]
fn observation_adds_zero_virtual_time() {
    // The self-observability layer must be free on the virtual clock:
    // every simulated result is bit-identical whether the run records
    // into a registry or not. (Counter reproducibility itself is pinned
    // in tests/observability.rs.)
    let off = session("smg98", Policy::Dynamic, 42);
    let metrics = std::sync::Arc::new(dynprof::obs::Registry::new());
    let on = run_session(
        &test_app("smg98", 4).unwrap(),
        SessionConfig {
            metrics: Some(std::sync::Arc::clone(&metrics)),
            ..SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(42)
        },
    );
    assert!(metrics.read("vt.events").is_some(), "the run was observed");
    assert_eq!(off.app_time, on.app_time);
    assert_eq!(off.total_time, on.total_time);
    assert_eq!(off.create_time, on.create_time);
    assert_eq!(off.instrument_time, on.instrument_time);
    assert_eq!(off.trace_bytes, on.trace_bytes);
    assert_eq!(off.vt.build_trace(), on.vt.build_trace());
}
