//! Shape assertions for every figure in the paper's evaluation.
//!
//! These tests run the same harnesses as the `fig7`/`fig8`/`fig9`
//! binaries at reduced sweep sizes and assert the *qualitative* results
//! the paper reports: who wins, by roughly what factor, and where the
//! lines bend. Absolute seconds are our machine model's, not the 2003
//! Power3's (see EXPERIMENTS.md).
//!
//! The `golden_*` tests additionally pin the figure JSON byte-for-byte
//! against the files in `tests/golden/` (the `--metrics` goldens live in
//! `tests/observability.rs`, the binary that owns the obs registry). To
//! regenerate after an intentional model change:
//! `UPDATE_GOLDENS=1 cargo test --test figures_shape golden_`.

mod common;

use common::{base, check_golden, fig7_reduced};
use dynprof::apps::paper_app;
use dynprof::core::{run_session, SessionConfig};
use dynprof::sim::Machine;
use dynprof::vt::Policy;
use dynprof_bench::{confsync_cost, fig7_run, fig8c, fig9, ConfsyncExperiment, FigureArgs};

fn app_time(app_name: &str, cpus: usize, policy: Policy) -> f64 {
    let (app, _) = paper_app(app_name, cpus).expect("known app");
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(9);
    run_session(&app, cfg).app_time.as_secs_f64()
}

/// Fig 7(a): Smg98's policy hierarchy at 8 CPUs.
#[test]
fn fig7a_smg98_policy_hierarchy() {
    let full = app_time("smg98", 8, Policy::Full);
    let off = app_time("smg98", 8, Policy::FullOff);
    let subset = app_time("smg98", 8, Policy::Subset);
    let none = app_time("smg98", 8, Policy::None);
    let dynamic = app_time("smg98", 8, Policy::Dynamic);

    // "statically inserting instrumentation in all functions leads to
    // significant run-time overhead" — several-fold, approaching the
    // paper's 7x at 64 CPUs.
    assert!(full / none > 4.0, "Full/None = {:.2}", full / none);
    // "the overhead did decrease, but it was still large"
    assert!(off / none > 1.3, "Full-Off/None = {:.2}", off / none);
    assert!(full / off > 2.0);
    // "the overhead was approximately equal to the Full-Off version"
    assert!(
        (subset - off).abs() / off < 0.05,
        "Subset {subset} vs Full-Off {off}"
    );
    // "an execution time that is very close to None"
    assert!(
        (dynamic - none) / none < 0.05,
        "Dynamic {dynamic} vs None {none}"
    );
}

/// Fig 7(a): the weak-scaled problem grows with the processor count, and
/// the Full/None gap is worst at scale.
#[test]
fn fig7a_smg98_weak_scaling_and_worst_case() {
    let none_2 = app_time("smg98", 2, Policy::None);
    let none_32 = app_time("smg98", 32, Policy::None);
    assert!(
        none_32 > 1.5 * none_2,
        "weak scaling: {none_2} -> {none_32}"
    );

    let full_32 = app_time("smg98", 32, Policy::Full);
    assert!(
        full_32 / none_32 > 5.0,
        "Full/None at 32 CPUs = {:.2} (paper: ~7x at 64)",
        full_32 / none_32
    );
}

/// Fig 7(b): Sppm shows the same ordering with a smaller gap.
#[test]
fn fig7b_sppm_same_ordering_smaller_gap() {
    let full = app_time("sppm", 8, Policy::Full);
    let off = app_time("sppm", 8, Policy::FullOff);
    let subset = app_time("sppm", 8, Policy::Subset);
    let none = app_time("sppm", 8, Policy::None);
    let dynamic = app_time("sppm", 8, Policy::Dynamic);

    assert!(full > off && off > none, "{full} > {off} > {none}");
    // "the difference is not as extreme" as Smg98's.
    let ratio = full / none;
    assert!(
        (1.2..4.0).contains(&ratio),
        "Sppm Full/None = {ratio:.2}, expected mild"
    );
    assert!((subset - off).abs() / off < 0.05);
    assert!((dynamic - none) / none < 0.05);
}

/// Fig 7(c): Sweep3d shows no benefit — all policies comparable — and
/// scales strongly.
#[test]
fn fig7c_sweep3d_policies_negligible() {
    let full = app_time("sweep3d", 8, Policy::Full);
    let none = app_time("sweep3d", 8, Policy::None);
    let dynamic = app_time("sweep3d", 8, Policy::Dynamic);
    assert!(
        (full - none).abs() / none < 0.02,
        "Full {full} vs None {none} should be negligible"
    );
    assert!((dynamic - none).abs() / none < 0.02);

    let none_2 = app_time("sweep3d", 2, Policy::None);
    let none_16 = app_time("sweep3d", 16, Policy::None);
    assert!(
        none_16 < none_2 / 3.0,
        "strong scaling: {none_2} at 2 -> {none_16} at 16"
    );
}

/// Fig 7(d): Umt98 keeps the ordering with modest but noticeable gaps,
/// and time decreases with threads.
#[test]
fn fig7d_umt98_ordering_and_strong_scaling() {
    let full = app_time("umt98", 4, Policy::Full);
    let off = app_time("umt98", 4, Policy::FullOff);
    let none = app_time("umt98", 4, Policy::None);
    let dynamic = app_time("umt98", 4, Policy::Dynamic);

    assert!(full > off && off > dynamic && dynamic >= none);
    // "the variations ... are not as significant as with Smg98"
    assert!(full / none < 2.0, "Umt98 Full/None = {:.2}", full / none);
    // "there is still a noticeable benefit from dynamic instrumentation"
    assert!(off / dynamic > 1.01, "Full-Off {off} vs Dynamic {dynamic}");

    let none_1 = app_time("umt98", 1, Policy::None);
    let none_8 = app_time("umt98", 8, Policy::None);
    assert!(none_8 < none_1 / 4.0, "{none_1} at 1 -> {none_8} at 8");
}

/// Fig 8(a): confsync stays under the paper's 0.04 s bound, with a change
/// costing slightly more than no change.
#[test]
fn fig8a_confsync_bounds() {
    let procs = [2, 64, 256];
    let none = confsync_cost(&base(), &procs, ConfsyncExperiment::NoChange, 3, 1);
    let change = confsync_cost(&base(), &procs, ConfsyncExperiment::WithChange, 3, 1);
    for &(p, v) in &none.points {
        assert!(v < 0.04, "no-change at {p} procs = {v}");
        let c = change.at(p).unwrap();
        assert!(c > v, "change {c} should exceed no-change {v} at {p}");
        assert!(c < 0.04, "change at {p} procs = {c}");
    }
    // Growth with processors is mild (the sync is tree-structured).
    assert!(none.at(256).unwrap() < 3.0 * none.at(2).unwrap());
}

/// Fig 8(b): writing statistics costs roughly an order of magnitude more
/// than a plain sync at scale, but stays far below user-interaction time.
#[test]
fn fig8b_stats_an_order_of_magnitude_up() {
    let procs = [256];
    let plain = confsync_cost(&base(), &procs, ConfsyncExperiment::NoChange, 3, 1);
    let stats = confsync_cost(&base(), &procs, ConfsyncExperiment::WriteStats, 3, 1);
    let ratio = stats.at(256).unwrap() / plain.at(256).unwrap();
    assert!(
        (3.0..40.0).contains(&ratio),
        "stats/plain at 256 procs = {ratio:.1}"
    );
    assert!(stats.at(256).unwrap() < 0.5, "still negligible vs the user");
}

/// Fig 8(c): the second architecture behaves the same way (low, flat).
#[test]
fn fig8c_ia32_same_behaviour() {
    let ia32 = SessionConfig::new(Machine::ia32_pentium3_cluster(), Policy::Dynamic);
    let s = confsync_cost(&ia32, &[2, 8, 16], ConfsyncExperiment::NoChange, 3, 1);
    for &(p, v) in &s.points {
        assert!(v < 0.006, "IA32 confsync at {p} = {v}");
    }
    assert!(s.at(16).unwrap() < 2.0 * s.at(2).unwrap(), "flat-ish in P");
}

/// Fig 9: creation+instrumentation time grows with process count for the
/// MPI codes but is flat for the OpenMP code (single shared image).
#[test]
fn fig9_instrument_time_shapes() {
    use dynprof::apps::test_app;
    let time_for = |name: &str, cpus: usize| {
        let app = test_app(name, cpus).unwrap();
        let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(5);
        run_session(&app, cfg).create_and_instrument().as_secs_f64()
    };
    let smg_2 = time_for("smg98", 2);
    let smg_16 = time_for("smg98", 16);
    assert!(
        smg_16 > 2.5 * smg_2,
        "smg98 create+instrument should grow: {smg_2} -> {smg_16}"
    );
    let umt_1 = time_for("umt98", 1);
    let umt_8 = time_for("umt98", 8);
    assert!(
        (umt_8 - umt_1).abs() / umt_1 < 0.10,
        "umt98 should be flat: {umt_1} vs {umt_8}"
    );
}

/// Golden regression: the reduced Fig 7 reference figure renders to
/// byte-identical JSON.
#[test]
fn golden_fig7_smg98_8_json() {
    check_golden("fig7_smg98_8.json", &fig7_reduced(&base()).to_json());
}

/// Golden regression: Fig 8(c) at 4 runs per point.
#[test]
fn golden_fig8c_json() {
    check_golden("fig8c_r4.json", &fig8c(&base(), 4, 1).to_json());
}

/// Golden regression: the full Fig 9 sweep.
#[test]
fn golden_fig9_json() {
    check_golden("fig9.json", &fig9(&base(), 1).to_json());
}

/// An inert overhead budget (`--overhead-budget 100`) attaches no
/// controller at all, so figure output must be byte-identical to the
/// recorded goldens — while a *tight* budget on an app with safe points
/// (sweep3d) demonstrably changes the measured run, proving the flag is
/// actually plumbed through and the identity assertion is not vacuous.
#[test]
fn golden_inert_budget_byte_identical() {
    let budget = |pct: &str| {
        let args = ["--overhead-budget".to_string(), pct.to_string()];
        FigureArgs::parse(&args, &[], true).expect("valid").base
    };
    let inert = budget("100");
    assert!(inert.adaptive.is_none(), "100% attaches no controller");
    check_golden("fig7_smg98_8.json", &fig7_reduced(&inert).to_json());
    check_golden("fig9.json", &fig9(&inert, 1).to_json());
    let (inert, _) = fig7_run(&inert, "sweep3d", 4, Policy::Full);
    assert_eq!(
        inert,
        fig7_run(&base(), "sweep3d", 4, Policy::Full).0,
        "budget 100% must not perturb a run"
    );
    let (tight, _) = fig7_run(&budget("0.01"), "sweep3d", 4, Policy::Full);
    assert_ne!(
        inert, tight,
        "a tight budget should deactivate probes and move sweep3d's time"
    );
}

/// The figure binaries' one parser: `--degraded-policy` sets
/// `base.txn.policy`, `--faults` sets `base.faults`, and a binary whose
/// sessions install no probes (fig8) refuses the probe flags as unknown
/// arguments.
#[test]
fn figure_args_parse_into_one_run_configuration() {
    let parse = |args: &[&str], probes| {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        FigureArgs::parse(&args, &["--app"], probes)
    };
    let args = parse(
        &["--app", "umt98", "--degraded-policy", "exclude-node"],
        true,
    )
    .unwrap();
    assert_eq!(
        args.base.txn.policy,
        dynprof::dpcl::DegradedPolicy::ExcludeNode
    );
    assert_eq!(args.own, [("--app".to_string(), "umt98".to_string())]);
    let args = parse(&["--faults", "3:crash", "--parallel", "2", "--json"], false).unwrap();
    assert_eq!(args.base.faults.expect("spec").profile_name, "crash");
    assert_eq!((args.workers, args.json), (2, true));
    for flag in ["--degraded-policy", "--overhead-budget"] {
        let err = parse(&[flag, "5"], false).err().expect("refused");
        assert_eq!(err, format!("unknown argument {flag:?}"));
    }
    assert!(parse(&["--faults", "x:lossy"], true).is_err());
    assert!(parse(&["--overhead-budget", "-1"], true).is_err());
}

/// The controller-convergence figure has the documented shape: the
/// unbudgeted series stays at its plateau, and each budgeted series ends
/// at or under its budget after the first epochs.
#[test]
fn fig_controller_convergence_shape() {
    let fig = dynprof_bench::fig_controller(6);
    assert_eq!(fig.series.len(), dynprof_bench::CONTROLLER_BUDGETS.len());
    let unbudgeted = fig.series("unbudgeted").expect("observer series");
    for budget in [2.0f64, 5.0, 10.0] {
        let s = fig
            .series(&format!("budget {budget}%"))
            .expect("budget series");
        assert_eq!(s.points.len(), unbudgeted.points.len());
        // Converged by epoch 3, and stays converged to the end (re-probe
        // is on its default cadence; epoch 6 is before the first revisit
        // of the steady state's last deactivation can exceed two spikes).
        let (_, last) = *s.points.last().unwrap();
        assert!(
            last <= budget,
            "budget {budget}%: final epoch at {last:.2}%"
        );
        assert!(
            s.points[..4].iter().any(|&(_, pct)| pct <= budget),
            "budget {budget}%: no epoch within budget in the first 4: {:?}",
            s.points
        );
    }
    // The observer plateau sits well above the tightest budget.
    let (_, plateau) = *unbudgeted.points.last().unwrap();
    assert!(plateau > 10.0, "observer plateau at {plateau:.2}%");
}
