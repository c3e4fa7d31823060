//! Differential oracle for the process backends: everything observable —
//! dispatch order, figure JSON, fault-injected (and so transactional) runs,
//! happens-before verdicts, and (in `tests/observability.rs`, which owns
//! the obs registry) deterministic metrics — must be byte-identical
//! whether simulated processes are OS threads (`ProcBackend::Threads`,
//! the original engine) or stack-swapped coroutines
//! (`ProcBackend::Coroutine`, the default since the threadless rewrite).
//!
//! The threads backend is kept alive precisely to serve as this oracle:
//! any scheduling divergence the coroutine fast paths introduce shows up
//! here as a first-divergence diff rather than as a silent golden drift.

mod common;

use std::sync::Arc;

use common::base;
use dynprof::core::{run_session, SessionConfig, SessionReport};
use dynprof::sim::{FaultSpec, Machine, ProcBackend, Sim, SimTime};
use dynprof::vt::Policy;
use dynprof_bench::fig9;

const BOTH: [ProcBackend; 2] = [ProcBackend::Threads, ProcBackend::Coroutine];

/// The same mixed scheduler workload as `tests/properties.rs` (channels
/// with jittered latencies, barrier storms, a gate broadcast, deadline
/// receives, self-wakes), parameterized by backend. Returns the rendered
/// golden-format trace.
fn scheduler_trace(seed: u64, backend: ProcBackend) -> String {
    use dynprof::sim::sync::{SimBarrier, SimChannel, SimGate};
    use std::fmt::Write as _;
    const N: usize = 8;
    const ROUNDS: usize = 12;
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), seed, backend);
    let log = sim.record_dispatches();
    let stats = sim.stats();
    let chans: Vec<Arc<SimChannel<u32>>> = (0..N).map(|_| Arc::new(SimChannel::new())).collect();
    let bar = Arc::new(SimBarrier::new(N, SimTime::from_nanos(300)));
    let gate = Arc::new(SimGate::new());
    for i in 0..N {
        let chans = chans.clone();
        let bar = Arc::clone(&bar);
        let gate = Arc::clone(&gate);
        sim.spawn(format!("mix{i}"), i % 4, move |p| {
            if i == 0 {
                p.advance(SimTime::from_micros(3));
                gate.open(p, SimTime::from_nanos(500));
            } else {
                gate.wait_open(p);
            }
            for r in 0..ROUNDS {
                p.advance(p.jitter(SimTime::from_micros(1)) + SimTime::from_nanos(10));
                let lat = SimTime::from_nanos(200 + p.jitter(SimTime::from_micros(2)).as_nanos());
                chans[(i + 1) % N].send(p, (i * ROUNDS + r) as u32, lat);
                if r % 3 == 2 {
                    bar.wait(p);
                }
                if r % 4 == 1 {
                    let deadline = p.now() + p.jitter(SimTime::from_micros(3));
                    let _ = chans[i].recv_match_deadline(p, |_| true, deadline);
                } else {
                    let _ = chans[i].recv(p);
                }
                if r % 5 == 0 {
                    p.sleep(p.jitter(SimTime::from_micros(2)) + SimTime::from_nanos(1));
                }
            }
        });
    }
    let horizon = sim.run();
    let mut out = String::new();
    let _ = writeln!(out, "events {}", stats.events_dispatched());
    let _ = writeln!(out, "horizon_ns {}", horizon.as_nanos());
    for &(pid, t) in log.entries().iter() {
        let _ = writeln!(out, "{pid} {}", t.as_nanos());
    }
    out
}

/// Both backends replay the recorded dispatch goldens exactly: same
/// `(pid, time)` sequence, same event count, same horizon. The goldens
/// predate the coroutine backend (they were recorded under the threaded
/// hub-and-spoke scheduler), so this is the strongest statement that the
/// rewrite changed the cost of a handoff and nothing else.
#[test]
fn dispatch_goldens_replay_on_both_backends() {
    for seed in [1u64, 7, 42] {
        let expected = std::fs::read_to_string(format!(
            "{}/tests/golden/dispatch_seed{seed}.txt",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("recorded dispatch golden");
        for backend in BOTH {
            let actual = scheduler_trace(seed, backend);
            assert_eq!(
                actual, expected,
                "dispatch trace diverged from golden (seed {seed}, {backend:?})"
            );
        }
    }
}

fn session(app: &str, policy: Policy, seed: u64, backend: ProcBackend) -> SessionReport {
    let spec = dynprof::apps::test_app(app, 4).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(seed);
    run_session(&spec, SessionConfig { backend, ..cfg })
}

/// Seeded session matrix: every deterministic field of a full dynprof
/// session — timings, trace volume, the built VT trace bytes — is
/// identical across backends, for MPI and OpenMP apps, static and
/// dynamic policies, over several seeds.
#[test]
fn seeded_sessions_identical_across_backends() {
    for (app, policy) in [
        ("smg98", Policy::Full),
        ("sweep3d", Policy::Dynamic),
        ("umt98", Policy::Dynamic),
    ] {
        for seed in [3u64, 11, 42] {
            let t = session(app, policy, seed, ProcBackend::Threads);
            let c = session(app, policy, seed, ProcBackend::Coroutine);
            let ctx = format!("{app}/{policy}/seed {seed}");
            assert_eq!(t.app_time, c.app_time, "app_time ({ctx})");
            assert_eq!(t.total_time, c.total_time, "total_time ({ctx})");
            assert_eq!(t.create_time, c.create_time, "create_time ({ctx})");
            assert_eq!(
                t.instrument_time, c.instrument_time,
                "instrument_time ({ctx})"
            );
            assert_eq!(t.trace_bytes, c.trace_bytes, "trace_bytes ({ctx})");
            assert_eq!(
                t.vt.build_trace(),
                c.vt.build_trace(),
                "VT trace bytes ({ctx})"
            );
        }
    }
}

/// Fig 9 JSON on `backend` from `base`.
fn fig9_on(base: &SessionConfig, backend: ProcBackend) -> String {
    let base = SessionConfig {
        backend,
        ..base.clone()
    };
    fig9(&base, 1).to_json()
}

/// `--faults` byte-identity: with an *active* fault plan (the default
/// `lossy` profile: drops, duplicates, delays), every install runs
/// through 2PC with the heartbeat monitor armed, and every fault decision
/// derives from the seed, so the two backends must still produce
/// byte-identical figures.
#[test]
fn faulted_runs_identical_across_backends() {
    let lossy = SessionConfig {
        faults: Some(FaultSpec::parse("7:lossy").expect("spec")),
        ..base()
    };
    let fig_t = fig9_on(&lossy, ProcBackend::Threads);
    let fig_c = fig9_on(&lossy, ProcBackend::Coroutine);
    assert_eq!(fig_t, fig_c, "faulted figure JSON must be byte-identical");
}

/// Two sessions in one process: a lossy-faulted sweep on the threads
/// carrier and a plain one on coroutines, run at once on two threads,
/// each write exactly what they write alone. Nothing about a run — its
/// fault plan, its carrier — lives outside its own configuration.
#[test]
fn concurrent_sweeps_keep_their_own_faults_and_carrier() {
    let lossy = SessionConfig {
        faults: Some(FaultSpec::parse("7:lossy").expect("spec")),
        ..base()
    };
    let plain = base();
    let (lossy_t, plain_c) = std::thread::scope(|s| {
        let a = s.spawn(|| fig9_on(&lossy, ProcBackend::Threads));
        let b = s.spawn(|| fig9_on(&plain, ProcBackend::Coroutine));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(lossy_t, fig9_on(&lossy, ProcBackend::Threads));
    assert_eq!(plain_c, fig9_on(&plain, ProcBackend::Coroutine));
    assert_ne!(
        lossy_t, plain_c,
        "the fault plan reached only its own sweep"
    );
}

/// Happens-before clean on both backends: the detector sees the same event graph through the coroutine
/// suspension points as through the threaded ones, and both runs are
/// race-free with identical rendered reports.
#[test]
fn hb_check_clean_and_identical_across_backends() {
    let run = |backend| {
        use dynprof::sim::sync::{SimBarrier, SimChannel};
        let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 5, backend);
        sim.enable_check();
        let check = sim.check_handle();
        let chan = Arc::new(SimChannel::new());
        let bar = Arc::new(SimBarrier::new(4, SimTime::from_nanos(250)));
        for i in 0..4u64 {
            let chan = Arc::clone(&chan);
            let bar = Arc::clone(&bar);
            sim.spawn(format!("p{i}"), (i % 2) as usize, move |p| {
                for r in 0..6u64 {
                    p.advance(SimTime::from_nanos(100 * (i + 1)));
                    chan.send(p, i * 10 + r, SimTime::from_nanos(300));
                    let _ = chan.recv(p);
                    bar.wait(p);
                }
            });
        }
        let horizon = sim.run();
        let report = check.report();
        (horizon, report.is_clean(), report.render())
    };
    let (h_t, clean_t, rep_t) = run(ProcBackend::Threads);
    let (h_c, clean_c, rep_c) = run(ProcBackend::Coroutine);
    assert_eq!(h_t, h_c, "horizon must match");
    assert_eq!(rep_t, rep_c, "HB reports must be byte-identical");
    assert!(clean_t && clean_c, "HB run should be clean: {rep_t}");
}
