//! Closed-loop adaptive instrumentation, end-to-end: the overhead-budget
//! controller driving `VT_confsync` epochs of sweep3d sessions, plus
//! redundancy suppression in the trace library.
//!
//! The workload is sweep3d scaled so probe cost is a *large* fraction of
//! the run (~12% unbudgeted) — the regime the controller exists for. The
//! headline acceptance property: with a 5% budget, measured overhead
//! converges under budget within 4 confsync epochs, while the observer
//! (unbudgeted) run exceeds it at every epoch.

use dynprof::analysis::Profile;
use dynprof::apps::workload::Outputs;
use dynprof::apps::{sweep3d, Sweep3dParams};
use dynprof::core::{run_session, AdaptiveSettings, SessionConfig, SessionReport};
use dynprof::sim::{Machine, SimTime};
use dynprof::vt::Policy;

/// A sweep3d workload scaled so instrumentation overhead is *visible*:
/// tiny per-cell work and single-plane KBA blocks make the (fixed) probe
/// cost a large fraction of the run.
fn hot_params(iterations: usize) -> Sweep3dParams {
    Sweep3dParams {
        global_n: 16,
        k_block: 1,
        angle_groups: 4,
        iterations,
        omp_threads: 1,
        scale: 0.001,
        outputs: Outputs::new(),
    }
}

/// One adaptive sweep3d session: 4 ranks, fully instrumented, one
/// confsync epoch per flux iteration.
fn adaptive_run(settings: AdaptiveSettings, seed: u64, iterations: usize) -> SessionReport {
    let cfg = SessionConfig::new(Machine::test_machine(), Policy::Full)
        .with_seed(seed)
        .with_adaptive(settings);
    run_session(&sweep3d(4, hot_params(iterations)), cfg)
}

const BUDGET: f64 = 5.0;

/// The issue's acceptance criterion: with `--overhead-budget 5` the
/// measured overhead converges to ≤ 5% within 4 confsync epochs, while
/// an unbudgeted run exceeds it at every epoch.
#[test]
fn overhead_budget_converges_on_sweep3d() {
    let observer = adaptive_run(AdaptiveSettings::observer(), 42, 8);
    let ctrl = observer.controller.as_ref().expect("controller attached");
    let unbudgeted = ctrl.measured_series();
    assert!(
        unbudgeted.iter().all(|&pct| pct > BUDGET),
        "unbudgeted sweep3d run should exceed the {BUDGET}% budget at every epoch: {unbudgeted:?}"
    );
    assert!(
        ctrl.decisions().iter().all(|d| d.deactivated.is_empty()),
        "observer mode must never reconfigure"
    );

    let budgeted = adaptive_run(AdaptiveSettings::budget(BUDGET), 42, 8);
    let ctrl = budgeted.controller.as_ref().expect("controller attached");
    let measured = ctrl.measured_series();
    let converged_at = measured
        .iter()
        .position(|&pct| pct <= BUDGET)
        .unwrap_or(measured.len());
    assert!(
        converged_at < 4,
        "overhead should converge to ≤ {BUDGET}% within 4 epochs: {measured:?}"
    );
    // The controller did real work: probes were deactivated, and the
    // budgeted run traced less than the observer run.
    assert!(ctrl.decisions().iter().any(|d| !d.deactivated.is_empty()));
    assert!(
        budgeted.trace_bytes < observer.trace_bytes,
        "budgeted {} vs observer {}",
        budgeted.trace_bytes,
        observer.trace_bytes
    );
}

/// After every re-probe excursion (a deactivated probe periodically
/// reactivated to check whether its behavior changed), the controller
/// returns under budget within two epochs.
#[test]
fn reprobe_excursions_recover() {
    let report = adaptive_run(AdaptiveSettings::budget(BUDGET), 42, 12);
    let ctrl = report.controller.as_ref().expect("controller attached");
    let measured = ctrl.measured_series();
    let converged_at = measured
        .iter()
        .position(|&pct| pct <= BUDGET)
        .expect("never converged");
    for (i, w) in measured[converged_at..].windows(3).enumerate() {
        assert!(
            w.iter().any(|&pct| pct <= BUDGET),
            "overhead stayed over budget for 3 epochs from epoch {}: {measured:?}",
            converged_at + i
        );
    }
    // Re-probing actually happened.
    assert!(ctrl.decisions().iter().any(|d| !d.reactivated.is_empty()));
}

/// With re-probing disabled and a steady workload, the activation table
/// reaches a fixed point: after convergence no decision changes anything.
#[test]
fn activation_table_reaches_fixed_point_on_steady_workload() {
    let settings = AdaptiveSettings {
        budget_pct: BUDGET,
        reprobe_every: 0,
    };
    let report = adaptive_run(settings, 42, 10);
    let ctrl = report.controller.as_ref().expect("controller attached");
    let decisions = ctrl.decisions();
    let last_change = decisions
        .iter()
        .rposition(|d| !d.deactivated.is_empty() || !d.reactivated.is_empty())
        .expect("controller never acted");
    assert!(
        last_change < 4,
        "table should stop changing within 4 epochs; last change at round {last_change}"
    );
    let off = decisions[last_change].off_count;
    for d in &decisions[last_change + 1..] {
        assert_eq!(d.off_count, off, "off-set drifted after the fixed point");
        assert!(
            d.measured_pct <= BUDGET,
            "steady workload over budget after fixed point: {:?}",
            ctrl.measured_series()
        );
    }
}

/// Same seed, same budget → byte-identical decision log (the controller
/// is a pure function of observed statistics; ties break on probe id).
#[test]
fn controller_decisions_are_deterministic_across_runs() {
    let log = |seed| {
        let report = adaptive_run(AdaptiveSettings::budget(BUDGET), seed, 8);
        report.controller.as_ref().unwrap().decision_log()
    };
    assert_eq!(log(42), log(42));
}

/// Epoch-by-epoch activation decisions pinned for three seeds.
/// Regenerate (only with cause) via
/// `UPDATE_GOLDENS=1 cargo test --test controller controller_decisions_match`.
#[test]
fn controller_decisions_match_recorded_goldens() {
    for seed in [7u64, 21, 42] {
        let report = adaptive_run(AdaptiveSettings::budget(BUDGET), seed, 8);
        let actual = report.controller.as_ref().unwrap().decision_log();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/controller_seed{seed}.txt"));
        if std::env::var("UPDATE_GOLDENS").is_ok() {
            std::fs::write(&path, &actual).expect("write golden decision log");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with UPDATE_GOLDENS=1 to record",
                path.display()
            )
        });
        if actual != expected {
            let a: Vec<&str> = actual.lines().collect();
            let b: Vec<&str> = expected.lines().collect();
            let first = a
                .iter()
                .zip(&b)
                .position(|(x, y)| x != y)
                .unwrap_or(a.len().min(b.len()));
            panic!(
                "decision log diverged from golden (seed {seed}) at line {}: \
                 actual {:?} vs expected {:?}",
                first + 1,
                a.get(first),
                b.get(first),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Redundancy suppression
// ---------------------------------------------------------------------------

/// A plain (unadaptive) sweep3d session with the given suppression floor.
fn suppressed_run(floor: SimTime) -> SessionReport {
    let cfg = SessionConfig::new(Machine::test_machine(), Policy::Full)
        .with_seed(42)
        .with_suppress_floor(floor);
    run_session(&sweep3d(4, Sweep3dParams::test()), cfg)
}

/// Suppression elides short entry/exit pairs from the trace but coalesces
/// them into per-function suppressed-count events, so the postmortem
/// profile — call counts, inclusive and exclusive times — is *exact*,
/// not approximated.
#[test]
fn suppressed_profiles_equal_unsuppressed() {
    let base = suppressed_run(SimTime::ZERO);
    let supp = suppressed_run(SimTime::from_micros(10));
    let suppressed_pairs: u64 = (0..4).map(|r| supp.vt.suppressed_pairs(r)).sum();
    assert!(suppressed_pairs > 0, "floor too low: nothing was elided");

    let t_base = base.vt.build_trace();
    let t_supp = supp.vt.build_trace();
    assert!(
        t_supp.events.len() < t_base.events.len(),
        "suppression should shrink the trace: {} vs {}",
        t_supp.events.len(),
        t_base.events.len()
    );
    assert!(supp.trace_bytes < base.trace_bytes);

    let p_base = Profile::from_trace(&t_base);
    let p_supp = Profile::from_trace(&t_supp);
    assert_eq!(p_base.per_rank.len(), p_supp.per_rank.len());
    for (key, fp) in &p_base.per_rank {
        let sp = &p_supp.per_rank[key];
        assert_eq!(fp.count, sp.count, "call count drifted at {key:?}");
        assert_eq!(fp.incl, sp.incl, "inclusive time drifted at {key:?}");
        assert_eq!(fp.excl, sp.excl, "exclusive time drifted at {key:?}");
    }
    // Timing side-effect free: suppression changes the trace, never the
    // run (probe charges are identical whether or not a pair is elided).
    assert_eq!(base.app_time, supp.app_time);
}

/// A floor of zero is suppression *off*: byte-identical trace, identical
/// measurements.
#[test]
fn floor_zero_is_byte_identical_to_suppression_off() {
    let base = suppressed_run(SimTime::ZERO);
    let cfg = SessionConfig::new(Machine::test_machine(), Policy::Full).with_seed(42);
    let off = run_session(&sweep3d(4, Sweep3dParams::test()), cfg);
    assert_eq!(base.app_time, off.app_time);
    assert_eq!(base.total_time, off.total_time);
    assert_eq!(base.trace_bytes, off.trace_bytes);
    let (tb, to) = (base.vt.build_trace(), off.vt.build_trace());
    assert_eq!(tb.events.len(), to.events.len());
    assert_eq!(tb, to, "traces must be identical");
}
