//! Seeded fault-matrix ("chaos") suite for the fault-injection tentpole.
//!
//! For a grid of (seed × profile) the suite drives the DPCL client/daemon
//! protocol and `VT_confsync` under injected message drop/duplication/
//! delay, node slowdown, daemon crash windows, and missed config epochs,
//! asserting the *liveness* contract: every request eventually acks or
//! returns a typed error, confsync never deadlocks, and the run completes.
//! The companion safety contract — a plan with every fault disabled is
//! byte-identical to running with no plan at all — is
//! `zero_fault_plan_matches_no_plan` here and `no_faults_is_identity` in
//! `tests/observability.rs` (it compares metrics, too).
//!
//! Seeds come from `CHAOS_SEEDS` (comma-separated) or default to four
//! fixed values; all fault decisions derive deterministically from them,
//! so failures reproduce exactly.

use std::sync::{Arc, Mutex};

use dynprof::core::{run_session, Command, SessionConfig, SessionReport, TxnSettings};
use dynprof::dpcl::{
    AckResult, DegradedPolicy, DpclClient, DpclError, DpclSystem, HeartbeatConfig,
    HeartbeatMonitor, InstrumentationTxn, NodeHealth, TxnOptions, TxnOutcome,
};
use dynprof::image::{FunctionInfo, ImageBuilder, ProbePoint, Snippet};
use dynprof::mpi::{launch, JobSpec};
use dynprof::sim::fault::{FaultPlan, FaultProfile, FaultSpec};
use dynprof::sim::{hb, Machine, ProbeCosts, Sim, SimTime};
use dynprof::vt::{confsync, ConfigDelta, MonitorLink, Policy, VtConfig, VtLib};

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => {
            let v: Vec<u64> = s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
            assert!(!v.is_empty(), "CHAOS_SEEDS set but empty: {s:?}");
            v
        }
        Err(_) => vec![11, 23, 37, 41],
    }
}

fn plan_for(sim: &Sim, seed: u64, profile: &str) -> Arc<FaultPlan> {
    let spec = FaultSpec::parse(&format!("{seed}:{profile}")).expect("profile name");
    FaultPlan::new(&spec, sim.machine())
}

/// Every chaos cell arms the checker, so each doubles as a
/// happens-before regression: faults may leave *warnings* (dropped or
/// duplicated control messages surface as unmatched sends, and the
/// workout patches without suspending), but error-severity findings —
/// collective mismatches, epochs applied out of causal order — mean the
/// recovery machinery broke an invariant.
fn assert_no_hb_errors(handle: &hb::CheckHandle, ctx: &str) {
    let report = handle.report();
    assert!(
        report.errors().is_empty(),
        "happens-before errors in {ctx}:\n{}",
        report.render()
    );
}

/// One DPCL workout: attach three nodes, install probes, remove a
/// function's instrumentation, wait for every ack, shut down. Returns
/// (virtual end time, acks observed, typed failures observed).
fn dpcl_workout(seed: u64, profile: Option<&str>) -> (SimTime, usize, usize) {
    let sim = Sim::virtual_time(Machine::test_machine(), seed);
    sim.enable_check();
    let check = sim.check_handle();
    if let Some(name) = profile {
        assert!(
            sim.set_fault_plan(plan_for(&sim, seed, name)),
            "plan already installed"
        );
    }
    let system = DpclSystem::new(["u"]);
    let mut b = ImageBuilder::new("t");
    let f = b.add(FunctionInfo::new("hot"));
    let image = Arc::new(b.build());
    let outcome = Arc::new(Mutex::new((0usize, 0usize)));
    let out2 = Arc::clone(&outcome);
    sim.spawn("instrumenter", 0, move |p| {
        let client = DpclClient::new(system, "u");
        let mut handles = Vec::new();
        // test_machine has 4 nodes; the instrumenter runs on node 0.
        for node in 1..=3usize {
            match client.attach(p, node, Arc::clone(&image), format!("t:{node}")) {
                Ok(h) => handles.push(h),
                // A typed attach failure (retry budget exhausted) is an
                // acceptable outcome; liveness only demands we get here.
                Err(e) => assert!(matches!(e, DpclError::TimedOut { .. }), "{e}"),
            }
        }
        let mut reqs = Vec::new();
        for h in &handles {
            for _ in 0..4 {
                reqs.push(client.install_probe(p, h, ProbePoint::entry(f), Snippet::noop("n")));
            }
            reqs.push(client.remove_function(p, h, f));
        }
        let (mut acked, mut failed) = (0usize, 0usize);
        for r in reqs {
            match client.wait_ack(p, r) {
                AckResult::Ok { .. } => acked += 1,
                AckResult::Error { .. } | AckResult::TimedOut { .. } => failed += 1,
            }
        }
        client.shutdown(p);
        *out2.lock().unwrap() = (acked, failed);
    });
    let end = sim.run();
    assert_no_hb_errors(
        &check,
        &format!("dpcl workout (seed {seed}, profile {profile:?})"),
    );
    let (acked, failed) = *outcome.lock().unwrap();
    (end, acked, failed)
}

/// Liveness over the full (seed × profile) grid: the workout terminates
/// (no deadlock, no panic) under every profile, and every request is
/// resolved one way or the other.
#[test]
fn fault_matrix_dpcl_workout_terminates() {
    for seed in seeds() {
        for profile in FaultProfile::all_names() {
            let (end, acked, failed) = dpcl_workout(seed, Some(profile));
            assert!(
                end > SimTime::ZERO,
                "empty run for seed {seed} profile {profile}"
            );
            assert!(
                acked + failed > 0,
                "no request resolved for seed {seed} profile {profile}"
            );
            if *profile == "none" {
                assert_eq!(
                    failed, 0,
                    "zero-fault plan must not fail requests (seed {seed})"
                );
            }
        }
    }
}

/// The zero-fault plan is inert: a workout with the `none` profile ends
/// at exactly the virtual time of a workout with no plan installed, with
/// identical outcomes.
#[test]
fn zero_fault_plan_matches_no_plan() {
    for seed in seeds() {
        assert_eq!(
            dpcl_workout(seed, None),
            dpcl_workout(seed, Some("none")),
            "seed {seed}"
        );
    }
}

/// Repeating a (seed, profile) cell reproduces it exactly — the whole
/// point of seed-driven fault plans.
#[test]
fn fault_runs_are_deterministic_per_seed() {
    for profile in ["lossy", "crash", "drop"] {
        assert_eq!(
            dpcl_workout(23, Some(profile)),
            dpcl_workout(23, Some(profile))
        );
    }
    assert_ne!(
        dpcl_workout(11, Some("lossy")).0,
        dpcl_workout(41, Some("lossy")).0,
        "different seeds should perturb differently"
    );
}

/// One confsync chaos run: `rounds` safe points each carrying a config
/// change, then one trailing no-change round for catch-up. Returns the
/// number of partial-epoch markers recorded.
fn confsync_run(seed: u64, profile: &str, ranks: usize, rounds: usize) -> usize {
    let sim = Sim::virtual_time(Machine::test_machine(), seed);
    sim.enable_check();
    let check = sim.check_handle();
    assert!(sim.set_fault_plan(plan_for(&sim, seed, profile)));
    let vt = VtLib::new("app", ranks, VtConfig::all_on(), ProbeCosts::power3());
    let monitor = MonitorLink::new();
    let (v2, m2) = (Arc::clone(&vt), Arc::clone(&monitor));
    launch(&sim, JobSpec::new("app", ranks), vec![], move |p, c| {
        c.init(p);
        v2.init(p, c.rank());
        for r in 0..rounds {
            v2.funcdef(p, &format!("f{r}"));
        }
        c.barrier(p);
        for r in 0..rounds {
            if c.rank() == 0 {
                m2.post_change(
                    ConfigDelta::Set(vec![(format!("f{r}"), false)]),
                    SimTime::from_millis(1),
                );
            }
            let out = confsync(&v2, &m2, p, c, false);
            if out.partial {
                assert!(
                    c.rank() != 0,
                    "rank 0 decides the epoch and must never miss it"
                );
            }
        }
        // Trailing no-change round: every rank applies whatever it
        // deferred, so the job converges.
        let out = confsync(&v2, &m2, p, c, false);
        assert!(!out.changed && !out.partial);
        c.finalize(p);
    });
    sim.run();
    assert_no_hb_errors(
        &check,
        &format!("confsync run (seed {seed}, profile {profile})"),
    );
    // Convergence: every round's delta reached every rank (possibly via
    // catch-up), nothing is left deferred.
    for rank in 0..ranks {
        assert_eq!(vt.deferred_count(rank), 0, "rank {rank} still behind");
        for r in 0..rounds {
            let f = vt.func_id(&format!("f{r}")).unwrap();
            assert!(
                !vt.is_active(rank, f),
                "rank {rank} missed f{r} permanently (seed {seed}, {profile})"
            );
        }
    }
    vt.partial_epochs().len()
}

/// Confsync liveness and convergence under missed config epochs: no
/// deadlock, every rank converges at the next safe point, and partial
/// epochs are recorded rather than silently lost.
#[test]
fn confsync_converges_under_missed_epochs() {
    let mut partials = 0;
    for seed in seeds() {
        for profile in ["epochs", "lossy"] {
            partials += confsync_run(seed, profile, 4, 3);
        }
    }
    assert!(
        partials > 0,
        "the epochs/lossy profiles should miss at least one epoch \
         somewhere in the matrix"
    );
}

/// A zero-fault confsync run records no partial epochs.
#[test]
fn confsync_zero_faults_records_no_partials() {
    assert_eq!(confsync_run(11, "none", 4, 3), 0);
}

// ---------------------------------------------------------------------------
// Transactional instrumentation epochs (2PC) under chaos
// ---------------------------------------------------------------------------

/// Run one transactional workout over a (seed, profile, policy) cell and
/// assert the headline invariant of the txn tentpole: after the run every
/// quiesce point observes fully-committed or fully-rolled-back epochs —
/// no daemon journal ends with an open transaction, a node's image holds
/// the probe pair iff its journal committed the transaction's epoch, and
/// entry/exit land atomically.
fn txn_cell(seed: u64, profile: &str, policy: DegradedPolicy) {
    let ctx = format!("txn cell (seed {seed}, {profile}, {})", policy.label());
    let sim = Sim::virtual_time(Machine::test_machine(), seed);
    sim.enable_check();
    let check = sim.check_handle();
    assert!(sim.set_fault_plan(plan_for(&sim, seed, profile)));
    let system = DpclSystem::new(["u"]);
    let images: Vec<_> = (0..3)
        .map(|_| {
            let mut b = ImageBuilder::new("t");
            b.add(FunctionInfo::new("hot"));
            Arc::new(b.build())
        })
        .collect();
    let f = images[0].func("hot").unwrap();

    let report_slot = Arc::new(Mutex::new(None));
    let attached_slot = Arc::new(Mutex::new(Vec::new()));
    let (sys2, imgs) = (Arc::clone(&system), images.clone());
    let (rep2, att2) = (Arc::clone(&report_slot), Arc::clone(&attached_slot));
    sim.spawn("instrumenter", 0, move |p| {
        let client = DpclClient::new(sys2, "u");
        let mut handles = Vec::new();
        for (i, img) in imgs.iter().enumerate() {
            match client.attach(p, 1 + i, Arc::clone(img), format!("t:{i}")) {
                Ok(h) => handles.push((1 + i, h)),
                // A typed attach failure excludes the node from the txn.
                Err(e) => assert!(matches!(e, DpclError::TimedOut { .. }), "{e}"),
            }
        }
        let mut txn = InstrumentationTxn::new(TxnOptions { policy });
        for (_, h) in &handles {
            txn.stage_install(h, ProbePoint::entry(f), Snippet::noop("b"));
            txn.stage_install(h, ProbePoint::exit(f), Snippet::noop("e"));
        }
        *att2.lock().unwrap() = handles.iter().map(|&(n, _)| n).collect::<Vec<_>>();
        let report = txn.execute(p, &client, None, None);
        client.shutdown(p);
        *rep2.lock().unwrap() = Some(report);
    });
    sim.run();
    assert_no_hb_errors(&check, &ctx);
    let report = report_slot.lock().unwrap().take().expect("txn executed");
    let attached: Vec<usize> = attached_slot.lock().unwrap().clone();

    // Invariant 1: no journal ends with an open (staged/prepared but
    // undecided) transaction — the retry budget outlasts every standard
    // crash window, so decisions always land.
    for j in system.journals() {
        assert!(
            j.open_txns().is_empty(),
            "node {} journal left txn open in {ctx}: {:?}",
            j.node(),
            j.entries()
        );
    }

    // Invariant 2: the set of nodes whose journal committed the epoch is
    // exactly what the coordinator's outcome says it should be.
    let committed: Vec<usize> = attached
        .iter()
        .copied()
        .filter(|&n| {
            system
                .journal(n, "u")
                .is_some_and(|j| j.committed_epochs().contains(&report.epoch))
        })
        .collect();
    let expect: Vec<usize> = match &report.outcome {
        TxnOutcome::Committed => attached.clone(),
        TxnOutcome::CommittedDegraded { excluded } => attached
            .iter()
            .copied()
            .filter(|n| !excluded.contains(n))
            .collect(),
        TxnOutcome::Aborted { .. } | TxnOutcome::ValidationFailed { .. } => Vec::new(),
    };
    assert_eq!(committed, expect, "journal/outcome mismatch in {ctx}");

    // Invariant 3: a node's image holds the probe pair iff its journal
    // committed the epoch, and entry/exit are atomic — no quiesce point
    // can observe half an epoch.
    for (i, img) in images.iter().enumerate() {
        let node = 1 + i;
        if !attached.contains(&node) {
            continue;
        }
        let expect_occupied = committed.contains(&node);
        assert_eq!(
            img.occupied(ProbePoint::entry(f)),
            expect_occupied,
            "node {node} entry probe in {ctx}"
        );
        assert_eq!(
            img.occupied(ProbePoint::exit(f)),
            expect_occupied,
            "node {node} exit probe must match entry (atomic pair) in {ctx}"
        );
    }
}

/// The crash × txn matrix (every profile, both degraded policies, every
/// seed): no cell may ever exhibit partial instrumentation.
#[test]
fn txn_matrix_no_partial_instrumentation() {
    for seed in seeds() {
        for profile in FaultProfile::all_names() {
            for policy in [DegradedPolicy::AbortTxn, DegradedPolicy::ExcludeNode] {
                txn_cell(seed, profile, policy);
            }
        }
    }
}

/// A profile whose crashed daemons never come back within the run: the
/// outage opens somewhere in `[0, 1.5s]` and the downtime exceeds every
/// retry budget. Used to force the degraded/abort decision paths, which
/// the standard `crash` profile (400 ms downtime, outlasted by client
/// retries) deliberately cannot reach.
fn crash_forever_spec(seed: u64) -> FaultSpec {
    let mut profile = FaultProfile::none();
    profile.crash_node_ppm = 500_000;
    profile.crash_start_max = SimTime::from_millis(1500);
    profile.crash_downtime = SimTime::from_secs(3600);
    FaultSpec {
        seed,
        profile_name: "crash-forever".into(),
        profile,
    }
}

/// Find a seed whose crash-forever plan downs exactly one of `nodes`,
/// with the outage opening between `after_ms` and `before_ms` (after
/// attach completes, and before the work under test). Scanning the plan
/// (not the run) keeps the test deterministic and robust to RNG-stream
/// changes.
fn outage_scenario(nodes: &[usize], after_ms: u64, before_ms: u64) -> (u64, usize, SimTime) {
    let after = SimTime::from_millis(after_ms);
    let before = SimTime::from_millis(before_ms);
    for seed in 0..512 {
        let plan = FaultPlan::new(&crash_forever_spec(seed), &Machine::test_machine());
        let down: Vec<(usize, SimTime)> = nodes
            .iter()
            .filter_map(|&n| plan.daemon_outage(n).map(|(s, _)| (n, s)))
            .collect();
        if let [(victim, start)] = down[..] {
            if start > after && start < before {
                return (seed, victim, start);
            }
        }
    }
    panic!("no crash-forever seed downs exactly one of {nodes:?} in {after_ms}..{before_ms} ms");
}

/// Degraded-mode decision paths, deterministically: one node dies after
/// attach and stays dead. Under `exclude-node` the epoch commits on the
/// survivors and the victim is reported excluded; under `abort-txn` the
/// whole epoch rolls back everywhere. Either way no journal is left open
/// and no image holds half an epoch.
#[test]
fn degraded_mode_excludes_or_aborts_cleanly() {
    let (seed, victim, start) = outage_scenario(&[1, 2, 3], 400, 1200);
    for policy in [DegradedPolicy::ExcludeNode, DegradedPolicy::AbortTxn] {
        let sim = Sim::virtual_time(Machine::test_machine(), seed);
        sim.enable_check();
        let check = sim.check_handle();
        assert!(sim.set_fault_plan(FaultPlan::new(&crash_forever_spec(seed), sim.machine())));
        let system = DpclSystem::new(["u"]);
        let images: Vec<_> = (0..3)
            .map(|_| {
                let mut b = ImageBuilder::new("t");
                b.add(FunctionInfo::new("hot"));
                Arc::new(b.build())
            })
            .collect();
        let f = images[0].func("hot").unwrap();
        let report_slot = Arc::new(Mutex::new(None));
        let (sys2, imgs, rep2) = (
            Arc::clone(&system),
            images.clone(),
            Arc::clone(&report_slot),
        );
        sim.spawn("instrumenter", 0, move |p| {
            let client = DpclClient::new(sys2, "u");
            let handles: Vec<_> = imgs
                .iter()
                .enumerate()
                .map(|(i, img)| {
                    client
                        .attach(p, 1 + i, Arc::clone(img), format!("t:{i}"))
                        .expect("attach completes before the outage opens")
                })
                .collect();
            // Step past the victim's outage start so the 2PC rounds hit a
            // daemon that is down for good.
            p.sleep_until(start + SimTime::from_millis(1));
            let mut txn = InstrumentationTxn::new(TxnOptions { policy });
            for h in &handles {
                txn.stage_install(h, ProbePoint::entry(f), Snippet::noop("b"));
                txn.stage_install(h, ProbePoint::exit(f), Snippet::noop("e"));
            }
            let report = txn.execute(p, &client, None, None);
            client.shutdown(p);
            *rep2.lock().unwrap() = Some(report);
        });
        sim.run();
        let ctx = format!("degraded scenario (seed {seed}, {})", policy.label());
        assert_no_hb_errors(&check, &ctx);
        let report = report_slot.lock().unwrap().take().expect("txn executed");
        for j in system.journals() {
            assert!(
                j.open_txns().is_empty(),
                "node {} journal left open in {ctx}",
                j.node()
            );
        }
        match policy {
            DegradedPolicy::ExcludeNode => {
                assert_eq!(
                    report.excluded(),
                    &[victim],
                    "{ctx}: outcome {:?}",
                    report.outcome
                );
                for (i, img) in images.iter().enumerate() {
                    let node = 1 + i;
                    let survivor = node != victim;
                    assert_eq!(
                        img.occupied(ProbePoint::entry(f)),
                        survivor,
                        "{ctx} node {node}"
                    );
                    assert_eq!(
                        img.occupied(ProbePoint::exit(f)),
                        survivor,
                        "{ctx} node {node}"
                    );
                    let j = system.journal(node, "u").expect("journal");
                    assert_eq!(
                        j.committed_epochs().contains(&report.epoch),
                        survivor,
                        "{ctx} node {node} journal"
                    );
                }
            }
            DegradedPolicy::AbortTxn => {
                assert!(
                    matches!(report.outcome, TxnOutcome::Aborted { .. }),
                    "{ctx}: outcome {:?}",
                    report.outcome
                );
                for img in &images {
                    assert!(!img.occupied(ProbePoint::entry(f)), "{ctx}");
                    assert!(!img.occupied(ProbePoint::exit(f)), "{ctx}");
                }
                for j in system.journals() {
                    assert!(j.committed_epochs().is_empty(), "{ctx} node {}", j.node());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Heartbeat failure-detector properties
// ---------------------------------------------------------------------------

/// Zero false positives: under a `none` fault plan the monitor never
/// records a health transition on any seed, across many probe rounds.
#[test]
fn heartbeat_no_false_positives_without_faults() {
    for seed in seeds() {
        let sim = Sim::virtual_time(Machine::test_machine(), seed);
        assert!(sim.set_fault_plan(plan_for(&sim, seed, "none")));
        let system = DpclSystem::new(["u"]);
        let monitor =
            HeartbeatMonitor::new(Arc::clone(&system), 1..=3usize, HeartbeatConfig::default());
        let m2 = Arc::clone(&monitor);
        sim.spawn("hb", 0, move |p| m2.run(p));
        let (sys2, m3) = (Arc::clone(&system), Arc::clone(&monitor));
        sim.spawn("driver", 0, move |p| {
            let client = DpclClient::new(sys2, "u");
            for n in 1..=3usize {
                client.connect(p, n).unwrap();
            }
            p.sleep(SimTime::from_secs(3));
            m3.stop();
            // Let the monitor's in-flight round drain before tearing the
            // daemons down, so no miss is an artifact of shutdown.
            p.sleep(SimTime::from_millis(500));
            client.shutdown(p);
        });
        sim.run();
        assert!(
            monitor.transitions().is_empty(),
            "seed {seed}: false positives {:?}",
            monitor.transitions()
        );
        assert!(monitor.unhealthy().is_empty(), "seed {seed}");
        assert!(
            monitor.rounds() >= 15,
            "seed {seed}: only {} rounds observed",
            monitor.rounds()
        );
        for n in 1..=3usize {
            assert_eq!(monitor.health(n), Some(NodeHealth::Alive), "seed {seed}");
        }
    }
}

/// Detection within the configured bound: a node whose daemons die for
/// good is marked Suspect no later than `suspect_bound()` after the
/// outage opens, reaches Dead, and healthy nodes never transition.
#[test]
fn heartbeat_detects_dead_node_within_bound() {
    let (seed, victim, start) = outage_scenario(&[1, 2, 3], 400, 1200);
    let sim = Sim::virtual_time(Machine::test_machine(), seed);
    assert!(sim.set_fault_plan(FaultPlan::new(&crash_forever_spec(seed), sim.machine())));
    let system = DpclSystem::new(["u"]);
    let monitor =
        HeartbeatMonitor::new(Arc::clone(&system), 1..=3usize, HeartbeatConfig::default());
    let m2 = Arc::clone(&monitor);
    sim.spawn("hb", 0, move |p| m2.run(p));
    let (sys2, m3) = (Arc::clone(&system), Arc::clone(&monitor));
    let run_until = start + SimTime::from_millis(1500);
    sim.spawn("driver", 0, move |p| {
        let client = DpclClient::new(sys2, "u");
        for n in 1..=3usize {
            client.connect(p, n).unwrap();
        }
        p.sleep_until(run_until);
        m3.stop();
        p.sleep(SimTime::from_millis(500));
        client.shutdown(p);
    });
    sim.run();
    let bound = monitor.config().suspect_bound();
    let transitions = monitor.transitions();
    let suspect_at = transitions
        .iter()
        .find(|&&(_, n, h)| n == victim && h == NodeHealth::Suspect)
        .map(|&(t, _, _)| t)
        .unwrap_or_else(|| panic!("victim {victim} never suspected: {transitions:?}"));
    assert!(
        suspect_at <= start + bound,
        "suspect at {suspect_at:?}, outage opened {start:?}, bound {bound:?}"
    );
    assert_eq!(
        monitor.health(victim),
        Some(NodeHealth::Dead),
        "victim should progress to Dead: {transitions:?}"
    );
    for &(_, n, _) in &transitions {
        assert_eq!(n, victim, "healthy node transitioned: {transitions:?}");
    }
}

/// A verdict follows the consecutive miss count exactly: a node that has
/// gone silent turns Suspect at its `suspect_after`-th missed round and
/// Dead at its `dead_after`-th, not a round later.
#[test]
fn heartbeat_verdicts_follow_the_consecutive_miss_count() {
    let (seed, victim, start) = outage_scenario(&[1, 2, 3], 400, 1200);
    let sim = Sim::virtual_time(Machine::test_machine(), seed);
    assert!(sim.set_fault_plan(FaultPlan::new(&crash_forever_spec(seed), sim.machine())));
    let system = DpclSystem::new(["u"]);
    let cfg = HeartbeatConfig::default();
    assert_eq!((cfg.suspect_after, cfg.dead_after), (2, 4));
    let monitor = HeartbeatMonitor::new(Arc::clone(&system), 1..=3usize, cfg);
    let verdicts = Arc::new(Mutex::new(Vec::new()));
    let (sys2, m2, v2) = (
        Arc::clone(&system),
        Arc::clone(&monitor),
        Arc::clone(&verdicts),
    );
    sim.spawn("driver", 0, move |p| {
        let client = DpclClient::new(sys2, "u");
        for n in 1..=3usize {
            client.connect(p, n).unwrap();
        }
        p.sleep_until(start + SimTime::from_millis(1));
        for _ in 0..5 {
            m2.probe_round(p);
            v2.lock()
                .unwrap()
                .push(m2.health(victim).expect("monitored"));
        }
        client.shutdown(p);
    });
    sim.run();
    use NodeHealth::{Alive, Dead, Suspect};
    assert_eq!(
        *verdicts.lock().unwrap(),
        [Alive, Suspect, Suspect, Dead, Dead],
        "the victim's verdict after each missed round"
    );
}

// ---------------------------------------------------------------------------
// Sessions under faults: one install protocol
// ---------------------------------------------------------------------------

/// Whether `report`'s attached images hold the entry and exit probes of
/// every function in `subset`: `Some(true)` if all do, `Some(false)` if
/// none holds any, `None` for anything in between.
fn instrumented(report: &SessionReport, subset: &[String]) -> Option<bool> {
    let mut seen = Vec::new();
    for (i, img) in report.images.iter().enumerate() {
        let failed = format!("attach failed for process {i}:");
        if report.warnings.iter().any(|w| w.starts_with(&failed)) {
            continue;
        }
        for name in subset {
            let f = img.func(name).expect("subset function in the manifest");
            seen.push(img.occupied(ProbePoint::entry(f)));
            seen.push(img.occupied(ProbePoint::exit(f)));
        }
    }
    let all = seen.iter().all(|&held| held);
    (all || seen.iter().all(|&held| !held)).then_some(all)
}

/// Run `script` on smg98 at 4 CPUs under every live profile and seed, and
/// assert each run ends all or nothing: every attached image holds each
/// subset function's entry and exit probe, or none holds any, and a run
/// that does not end `holding` says it is degraded.
fn assert_faulted_epochs_all_or_nothing(script: &str, holding: bool) {
    let app = dynprof::apps::test_app("smg98", 4).expect("app");
    let script = Command::parse_script(script).expect("script");
    for seed in seeds() {
        for profile in FaultProfile::all_names().iter().filter(|&&p| p != "none") {
            let cfg = SessionConfig {
                faults: Some(FaultSpec::parse(&format!("{seed}:{profile}")).expect("spec")),
                ..SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
                    .with_script(script.clone())
            };
            let report = run_session(&app, cfg);
            let ctx = format!(
                "smg98 session (seed {seed}, {profile}): {:?}",
                report.warnings
            );
            match instrumented(&report, &app.subset) {
                Some(held) if held == holding => {}
                Some(_) => assert!(report.vt.is_degraded(), "silent abort in {ctx}"),
                None => panic!("partial epoch in {ctx}"),
            }
        }
    }
}

/// Under every live profile a session's install is one 2PC epoch.
#[test]
fn faulted_sessions_instrument_all_or_nothing() {
    assert_faulted_epochs_all_or_nothing("insert-file subset\nstart\nquit\n", true);
}

/// Under every live profile a mid-run removal is one 2PC epoch too; and
/// a node that dies for good between the install and the removal aborts
/// the removal, so every image keeps every probe.
#[test]
fn faulted_removals_are_all_or_nothing() {
    assert_faulted_epochs_all_or_nothing(
        "start\nwait 0.0002\ninsert-file subset\nwait 0.0002\nremove-file subset\nquit\n",
        false,
    );
    // 8 ranks on the test machine: the install ends before 1 s, the
    // removal starts after 2 s.
    let (seed, victim, start) = outage_scenario(&[0, 1], 1000, 1500);
    let script = "insert-file subset\nstart\nwait 2\nremove-file subset\nquit\n";
    let cfg = SessionConfig {
        faults: Some(crash_forever_spec(seed)),
        ..SessionConfig::new(Machine::test_machine(), Policy::Dynamic)
            .with_seed(seed)
            .with_script(Command::parse_script(script).expect("script"))
    };
    let app = dynprof::apps::test_app("smg98", 8).expect("app");
    let report = run_session(&app, cfg);
    let ctx = format!(
        "node {victim} down at {start:?} (seed {seed}): {:?}",
        report.warnings
    );
    assert_eq!(instrumented(&report, &app.subset), Some(true), "{ctx}");
    assert!(report.vt.is_degraded(), "{ctx}");
}

/// A faulted install whose validator rejects the plan sends nothing, and
/// the session counts nothing installed.
#[test]
fn rejected_epoch_installs_nothing() {
    let reject = |_: &[String]| {
        vec![hb::Finding {
            severity: hb::Severity::Error,
            detector: "test",
            message: "plan rejected".into(),
        }]
    };
    let cfg = SessionConfig {
        faults: Some(FaultSpec::parse("3:delay").expect("spec")),
        txn: TxnSettings {
            validator: Some(Arc::new(reject)),
            ..TxnSettings::default()
        },
        ..SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
    };
    let app = dynprof::apps::test_app("smg98", 4).expect("app");
    let report = run_session(&app, cfg);
    let warnings = &report.warnings;
    assert_eq!(report.probe_pairs_installed, 0, "{warnings:?}");
    let rejected = |w: &String| w.starts_with("txn validation: ") && w.ends_with("plan rejected");
    assert!(warnings.iter().any(rejected), "{warnings:?}");
    assert_eq!(instrumented(&report, &app.subset), Some(false));
}

/// A node that dies for good after attach: the mid-run insert aborts (the
/// default `abort-txn`), so the run is marked degraded and counts no
/// pairs; the removal aborts as a second epoch; and what the dead node
/// never answered — its suspends and resumes — is reported once per
/// command instead of dropped.
#[test]
fn faulted_session_reports_what_did_not_land() {
    // 8 ranks on the test machine: nodes 0 and 1; dynprof runs on node 3.
    let (seed, victim, start) = outage_scenario(&[0, 1], 1000, 1500);
    let script = Command::parse_script(
        "start\nwait 2\ninsert-file subset\nwait 0.01\nremove-file subset\nquit\n",
    )
    .expect("script");
    let cfg = SessionConfig {
        faults: Some(crash_forever_spec(seed)),
        ..SessionConfig::new(Machine::test_machine(), Policy::Dynamic)
            .with_seed(seed)
            .with_script(script)
    };
    let app = dynprof::apps::test_app("smg98", 8).expect("app");
    let report = run_session(&app, cfg);
    let ctx = format!(
        "node {victim} down at {start:?} (seed {seed}): {:?}",
        report.warnings
    );
    assert!(report.vt.is_degraded(), "{ctx}");
    assert_eq!(report.probe_pairs_installed, 0, "{ctx}");
    let count = |what: &str| report.warnings.iter().filter(|w| w.contains(what)).count();
    assert_eq!(count("aborted"), 2, "{ctx}");
    // One per command that suspends: the insert and the remove. (Both
    // epochs end within the hour-long outage, so neither command's
    // resumes reach the dead node.)
    assert_eq!(count("suspends failed"), 2, "{ctx}");
    assert_eq!(count("resumes failed"), 2, "{ctx}");
    assert_eq!(instrumented(&report, &app.subset), Some(false), "{ctx}");
}

// ---------------------------------------------------------------------------
// Overhead-budget controller under chaos
// ---------------------------------------------------------------------------

/// One adaptive (budget-controlled) sweep3d session under the fault spec
/// `seed:profile`: probe-dense scaling, 4 ranks, one confsync epoch per
/// iteration, 5% budget.
fn adaptive_chaos_run(seed: u64, profile: &str) -> SessionReport {
    let params = dynprof::apps::Sweep3dParams {
        global_n: 16,
        k_block: 1,
        angle_groups: 4,
        iterations: 4,
        omp_threads: 1,
        scale: 0.001,
        outputs: dynprof::apps::workload::Outputs::new(),
    };
    let cfg = SessionConfig {
        faults: Some(FaultSpec::parse(&format!("{seed}:{profile}")).expect("spec")),
        ..SessionConfig::new(Machine::test_machine(), Policy::Full)
            .with_seed(seed)
            .with_adaptive(dynprof::vt::ControllerConfig::budget(5.0))
    };
    run_session(&dynprof::apps::sweep3d(4, params), cfg)
}

/// The controller leg of the fault matrix: adaptive sessions complete
/// under message delay/duplication, missed epochs, and the combined lossy
/// profile; every decision's activation delta is well-formed (no
/// contradictions, no unknown symbols); and the activation tables of all
/// caught-up ranks agree with rank 0's — a rank may run behind while an
/// epoch is deferred, but it may never hold a *different* table.
#[test]
fn adaptive_controller_survives_fault_matrix() {
    for seed in seeds() {
        for profile in ["delay", "dup", "epochs", "lossy"] {
            let report = adaptive_chaos_run(seed, profile);
            let ctx = format!("adaptive cell (seed {seed}, {profile})");
            let ctrl = report.controller.as_ref().expect("controller attached");
            assert!(!ctrl.decisions().is_empty(), "no decisions in {ctx}");

            let functions = report.vt.build_trace().functions;
            for d in ctrl.decisions() {
                let delta: Vec<(String, bool)> = d
                    .deactivated
                    .iter()
                    .map(|n| (n.clone(), false))
                    .chain(d.reactivated.iter().map(|n| (n.clone(), true)))
                    .collect();
                let findings =
                    dynprof_check::analyzer::check_activation_delta(&delta, Some(&functions));
                assert!(
                    findings.iter().all(|f| f.severity != hb::Severity::Error),
                    "malformed activation delta at round {} in {ctx}: {findings:?}",
                    d.round
                );
            }

            for rank in 0..4usize {
                if report.vt.deferred_count(rank) > 0 {
                    continue; // legitimately behind; will catch up next epoch
                }
                for name in &functions {
                    let f = report.vt.func_id(name).expect("traced function");
                    assert_eq!(
                        report.vt.is_active(rank, f),
                        report.vt.is_active(0, f),
                        "rank {rank} holds a divergent table for {name} in {ctx}"
                    );
                }
            }
        }
    }
    // Determinism: a chaotic cell replays to the identical decision log.
    let a = adaptive_chaos_run(23, "lossy");
    let b = adaptive_chaos_run(23, "lossy");
    assert_eq!(
        a.controller.unwrap().decision_log(),
        b.controller.unwrap().decision_log(),
        "same (seed, profile) must reproduce the same decisions"
    );
}

// ---------------------------------------------------------------------------
// Chunk-indexed trace store under chaos
// ---------------------------------------------------------------------------

/// The store path under faults: a fault-perturbed session's VT buffers,
/// flushed through the bounded `StoreWriter`, must round-trip losslessly
/// — the streaming store is a transport, not an interpretation, so a
/// chaotic trace comes back event-for-event and the streaming profile
/// agrees with the in-memory reference.
#[test]
fn store_round_trip_survives_fault_runs() {
    use dynprof::analysis::store::{write_store_from_vt, StoreOptions, StoreReader};
    use dynprof::analysis::{Profile, ProfileBuilder, ProfileOptions};

    let dir = std::env::temp_dir().join("dynprof-chaos-store");
    std::fs::create_dir_all(&dir).unwrap();
    for seed in seeds() {
        let spec = dynprof::apps::test_app("sweep3d", 4).expect("app");
        let cfg = SessionConfig {
            faults: Some(FaultSpec::parse(&format!("{seed}:lossy")).expect("spec")),
            ..SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(seed)
        };
        let report = run_session(&spec, cfg.clone());

        let trace = report.vt.build_trace();
        let path = dir.join(format!("chaos-{seed}-{}.vgvs", std::process::id()));
        let stats =
            write_store_from_vt(&report.vt, &path, StoreOptions { chunk_events: 64 }).unwrap();
        assert_eq!(stats.events as usize, trace.events.len(), "seed {seed}");

        let mut r = StoreReader::open(&path).unwrap();
        let mut back = r.read_all().unwrap();
        let mut reference = trace.clone();
        let key = |e: &dynprof::vt::Event| (e.time(), e.rank(), format!("{e:?}"));
        back.events.sort_by_key(key);
        reference.events.sort_by_key(key);
        assert_eq!(
            back, reference,
            "store round trip under faults, seed {seed}"
        );

        let from_store = Profile::from_store(&mut r, ProfileOptions::default()).unwrap();
        let from_trace = Profile::from_trace(&trace);
        assert_eq!(
            from_store.per_rank, from_trace.per_rank,
            "streaming profile under faults, seed {seed}"
        );
        // So does the session summary's feeder: a `ProfileBuilder`
        // installed as the capture of the same session.
        let builder = ProfileBuilder::new(Vec::new(), ProfileOptions::default());
        let slot = Arc::new(Mutex::new(Some(builder)));
        run_session(&spec, cfg.with_capture(Arc::clone(&slot) as _));
        let from_live = slot.lock().unwrap().take().unwrap().finish();
        assert_eq!(from_live.per_rank, from_trace.per_rank, "seed {seed}");
        assert_eq!(from_live.ranks, from_trace.ranks, "seed {seed}");
        assert_eq!(from_live.render_top(15), from_trace.render_top(15));
        std::fs::remove_file(&path).ok();
    }
}
