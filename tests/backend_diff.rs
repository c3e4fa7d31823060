//! Differential oracle for the process backends: everything observable —
//! dispatch order, the engine's work on five scheduler shapes, figure
//! JSON, fault-injected (and so transactional) runs, happens-before
//! verdicts, and (in `tests/observability.rs`, which owns
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

use common::{base, check_golden};
use dynprof::core::{run_session, SessionConfig, SessionReport};
use dynprof::sim::sync::{Mailboxes, SimBarrier, SimChannel};
use dynprof::sim::{FaultSpec, Machine, ProcBackend, Sim, SimTime};
use dynprof::vt::Policy;
use dynprof_bench::fig9;

const BOTH: [ProcBackend; 2] = [ProcBackend::Threads, ProcBackend::Coroutine];

/// The same mixed scheduler workload as `tests/properties.rs` (channels
/// with jittered latencies, barrier storms, a gate broadcast, deadline
/// receives, self-wakes), parameterized by backend. Returns the rendered
/// golden-format trace.
fn scheduler_trace(seed: u64, backend: ProcBackend) -> String {
    use dynprof::sim::sync::SimGate;
    use std::fmt::Write as _;
    const N: usize = 8;
    const ROUNDS: usize = 12;
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), seed, backend);
    let log = sim.record_dispatches();
    let stats = sim.stats();
    let chans: Arc<Mailboxes<u32>> = Arc::new(Mailboxes::new(N, |_| None));
    let bar = Arc::new(SimBarrier::new(N, SimTime::from_nanos(300)));
    let gate = Arc::new(SimGate::new());
    for i in 0..N {
        let chans = Arc::clone(&chans);
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
                chans.send(p, (i + 1) % N, (i * ROUNDS + r) as u32, lat);
                if r % 3 == 2 {
                    bar.wait(p);
                }
                if r % 4 == 1 {
                    let deadline = p.now() + p.jitter(SimTime::from_micros(3));
                    let _ = chans.recv_match_deadline(p, i, |_| true, deadline);
                } else {
                    let _ = chans.recv_match(p, i, |_| true);
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

/// Run `sim` and count its work: events dispatched, and handoffs paid —
/// a direct handoff (one switch) counts one, a scheduler fallback (two
/// switches) counts two.
fn work(sim: Sim) -> (u64, u64) {
    let stats = sim.stats();
    sim.run();
    (
        stats.events_dispatched(),
        stats.direct_handoffs() + 2 * stats.sched_fallbacks(),
    )
}

/// Two processes ping-ponging `rounds` messages through two channels:
/// the pure handoff, one blocking receive per event.
fn pingpong(rounds: u32, backend: ProcBackend) -> Sim {
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 1, backend);
    let ch_a: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
    let ch_b: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
    let (a1, b1) = (Arc::clone(&ch_a), Arc::clone(&ch_b));
    sim.spawn("ping", 0, move |p| {
        for i in 0..rounds {
            a1.send(p, i, SimTime::from_micros(1));
            let _ = b1.recv(p);
        }
    });
    let (a2, b2) = (ch_a, ch_b);
    sim.spawn("pong", 1, move |p| {
        for _ in 0..rounds {
            let v = a2.recv(p);
            b2.send(p, v, SimTime::from_micros(1));
        }
    });
    sim
}

/// `n` processes; every round each sends one jittered message to every
/// other process's mailbox, then drains `n - 1` receipts: a deep event
/// queue and cross-process wakes.
fn alltoall(n: usize, rounds: usize, backend: ProcBackend) -> Sim {
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 2, backend);
    let chans: Arc<Mailboxes<u32>> = Arc::new(Mailboxes::new(n, |_| None));
    for i in 0..n {
        let chans = Arc::clone(&chans);
        sim.spawn(format!("a2a{i}"), i % 4, move |p| {
            for _ in 0..rounds {
                for j in (0..n).filter(|&j| j != i) {
                    let lat =
                        SimTime::from_nanos(500 + p.jitter(SimTime::from_micros(2)).as_nanos());
                    chans.send(p, j, i as u32, lat);
                }
                for _ in 0..n - 1 {
                    let _ = chans.recv_match(p, i, |_| true);
                }
            }
        });
    }
    sim
}

/// `n` processes hammering one cyclic barrier for `rounds` episodes with
/// jittered arrival skew: bursts of simultaneous wakes at one instant.
fn barrier_storm(n: usize, rounds: usize, backend: ProcBackend) -> Sim {
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 3, backend);
    let bar = Arc::new(SimBarrier::new(n, SimTime::from_nanos(200)));
    for i in 0..n {
        let bar = Arc::clone(&bar);
        sim.spawn(format!("storm{i}"), i % 4, move |p| {
            for _ in 0..rounds {
                let skew = p.jitter(SimTime::from_micros(1));
                p.advance(skew + SimTime::from_nanos(1));
                bar.wait(p);
            }
        });
    }
    sim
}

/// `n` processes sweeping `rounds` confsync-style reconfiguration waves:
/// rank 0 broadcasts through per-rank channels, drains one ack per peer,
/// and a barrier releases everyone into the next epoch — the shape the
/// adaptive controller's activation broadcasts travel on.
fn reconfig_wave(n: usize, rounds: usize, backend: ProcBackend) -> Sim {
    let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 4, backend);
    let down: Arc<Mailboxes<u32>> = Arc::new(Mailboxes::new(n, |_| None));
    let up: Arc<Mailboxes<u32>> = Arc::new(Mailboxes::new(1, |_| None));
    let bar = Arc::new(SimBarrier::new(n, SimTime::from_nanos(200)));
    for i in 0..n {
        let down = Arc::clone(&down);
        let up = Arc::clone(&up);
        let bar = Arc::clone(&bar);
        sim.spawn(format!("wave{i}"), i % 4, move |p| {
            for round in 0..rounds {
                if i == 0 {
                    for to in 1..n {
                        down.send(p, to, round as u32, SimTime::from_micros(1));
                    }
                    for _ in 1..n {
                        let _ = up.recv_match(p, 0, |_| true);
                    }
                } else {
                    let v = down.recv_match(p, i, |_| true);
                    up.send(p, 0, v, SimTime::from_micros(1));
                }
                bar.wait(p);
            }
        });
    }
    sim
}

/// The paper-scale shape (§6, Fig 7c): 1152 ranks (144 nodes × 8 CPUs)
/// on a 36×32 KBA process grid, sweeping `iters` wavefront pairs. Each
/// rank blocks on its west and north inflows, "computes" a plane,
/// forwards east and south, then the grid reverses direction, and a
/// barrier closes the iteration.
fn fig7_sweep3d_144x8(iters: usize, backend: ProcBackend) -> Sim {
    const PX: usize = 36;
    const PY: usize = 32;
    let machine = Machine::ibm_power3_colony();
    let nodes = machine.nodes;
    let sim = Sim::virtual_time_with_backend(machine, 5, backend);
    // chans[dir][rank]: dir 0 = eastward flow (recv from west), dir 1 =
    // southward, dir 2/3 the reversed sweep.
    let chans: Arc<Vec<Mailboxes<u8>>> =
        Arc::new((0..4).map(|_| Mailboxes::new(PX * PY, |_| None)).collect());
    let bar = Arc::new(SimBarrier::new(PX * PY, SimTime::from_nanos(400)));
    for py in 0..PY {
        for px in 0..PX {
            let rank = py * PX + px;
            // (dir, mailbox) of each inflow and outflow.
            let in_w = (px > 0).then_some((0, rank));
            let in_n = (py > 0).then_some((1, rank));
            let out_e = (px + 1 < PX).then(|| (0, rank + 1));
            let out_s = (py + 1 < PY).then(|| (1, rank + PX));
            let rin_e = (px + 1 < PX).then_some((2, rank));
            let rin_s = (py + 1 < PY).then_some((3, rank));
            let rout_w = (px > 0).then(|| (2, rank - 1));
            let rout_n = (py > 0).then(|| (3, rank - PX));
            let (chans, bar) = (Arc::clone(&chans), Arc::clone(&bar));
            sim.spawn(format!("sweep{rank}"), rank / 8 % nodes, move |p| {
                let lat = SimTime::from_nanos(1_500); // one KBA block face
                let compute = SimTime::from_nanos(800 + (rank as u64 % 7) * 50);
                for _ in 0..iters {
                    for (dir, at) in [in_w, in_n].into_iter().flatten() {
                        let _ = chans[dir].recv_match(p, at, |_| true);
                    }
                    p.advance(compute);
                    for (dir, to) in [out_e, out_s].into_iter().flatten() {
                        chans[dir].send(p, to, 0, lat);
                    }
                    for (dir, at) in [rin_e, rin_s].into_iter().flatten() {
                        let _ = chans[dir].recv_match(p, at, |_| true);
                    }
                    p.advance(compute);
                    for (dir, to) in [rout_w, rout_n].into_iter().flatten() {
                        chans[dir].send(p, to, 0, lat);
                    }
                    bar.wait(p);
                }
            });
        }
    }
    sim
}

/// The engine's work, counted instead of timed: each scheduler shape's
/// events and handoffs are exact, equal on both carriers, and pinned in
/// `tests/golden/engine_work.txt`. Host-time rows for the engine live in
/// the micro bench (`des/pingpong_1k`) and the session benchmark.
#[test]
fn engine_work_is_pinned_on_both_carriers() {
    type Workload = (&'static str, fn(ProcBackend) -> Sim);
    let workloads: [Workload; 5] = [
        ("pingpong", |b| pingpong(20_000, b)),
        ("alltoall", |b| alltoall(16, 60, b)),
        ("barrier_storm", |b| barrier_storm(32, 1_500, b)),
        ("reconfig_wave", |b| reconfig_wave(16, 600, b)),
        ("fig7_sweep3d_144x8", |b| fig7_sweep3d_144x8(3, b)),
    ];
    let mut out = String::from("# workload events handoffs\n");
    for (name, build) in workloads {
        let [threads, coroutine] = BOTH.map(|b| work(build(b)));
        assert_eq!(threads, coroutine, "{name}: work diverged across carriers");
        out += &format!("{name} {} {}\n", threads.0, threads.1);
    }
    check_golden("engine_work.txt", &out);
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
        let sim = Sim::virtual_time_with_backend(Machine::test_machine(), 5, backend);
        sim.enable_check();
        let check = sim.check_handle();
        let chan = Arc::new(Mailboxes::new(1, |_| None));
        let bar = Arc::new(SimBarrier::new(4, SimTime::from_nanos(250)));
        for i in 0..4u64 {
            let chan = Arc::clone(&chan);
            let bar = Arc::clone(&bar);
            sim.spawn(format!("p{i}"), (i % 2) as usize, move |p| {
                for r in 0..6u64 {
                    p.advance(SimTime::from_nanos(100 * (i + 1)));
                    chan.send(p, 0, i * 10 + r, SimTime::from_nanos(300));
                    let _ = chan.recv_match(p, 0, |_| true);
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
