//! The self-observability layer: counter determinism, the
//! cheap-when-off guarantee, the metrics goldens, the counters of the
//! store and of the figure harnesses, and the parallel figure runner.
//!
//! The obs registry is process-global, so every test that resets, reads
//! or (by running a simulation) could write it lives in this binary and
//! holds [`registry`] throughout. Rust integration-test files are separate
//! processes, so tests in other files cannot pollute the registry while
//! these run.
//!
//! An instrument stays registered once created and a snapshot lists every
//! registered one, so what a snapshot contains depends on what ran before
//! it in the process. The metrics goldens are therefore captured by the
//! first test to take the lock, on the registry as a fresh process has it.

mod common;

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use common::{base, check_golden, fig7_reduced, synth_trace, tmp, CHUNK_HDR};
use dynprof::analysis::store::{
    write_store_from_trace, RetentionPolicy, RotatingWriter, RotationPolicy, StoreOptions,
    StoreReader,
};
use dynprof::apps::test_app;
use dynprof::core::{run_session, SessionConfig};
use dynprof::obs;
use dynprof::sim::{FaultSpec, Machine, ProcBackend};
use dynprof::vt::Policy;
use dynprof_bench::{fig8c, fig9};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// The golden `--metrics` captures, in [`GOLDEN_METRICS`] order.
static GOLDEN_CAPTURES: OnceLock<Vec<String>> = OnceLock::new();

/// Each metrics golden and the workload it captures.
const GOLDEN_METRICS: [&str; 3] = [
    "fig7_smg98_8_metrics.json",
    "fig8c_r4_metrics.json",
    "fig9_metrics.json",
];

/// Exclusive use of the obs registry (a test that panicked while holding
/// it leaves nothing another test depends on). The first holder also
/// takes the golden captures.
fn registry() -> MutexGuard<'static, ()> {
    let guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    GOLDEN_CAPTURES.get_or_init(|| {
        vec![
            golden_capture(|| drop(fig7_reduced(&base()))),
            golden_capture(|| drop(fig8c(&base(), 4, 1))),
            golden_capture(|| drop(fig9(&base(), 1))),
        ]
    });
    guard
}

/// Run `run` observed from a zeroed registry; return its result and the
/// deterministic slice of the registry (wall-clock metrics, whose names
/// contain `real`, excluded).
fn observe<T>(run: impl FnOnce() -> T) -> (T, obs::Snapshot) {
    obs::reset();
    obs::set_enabled(true);
    let out = run();
    obs::set_enabled(false);
    (out, obs::snapshot().deterministic())
}

/// One observed session's deterministic metrics.
fn observed_session(app: &str, policy: Policy, seed: u64) -> obs::Snapshot {
    let spec = test_app(app, 4).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(seed);
    observe(|| run_session(&spec, cfg)).1
}

#[test]
fn counters_are_bit_reproducible_per_seed() {
    let _g = registry();
    let a = observed_session("sweep3d", Policy::Dynamic, 7);
    let b = observed_session("sweep3d", Policy::Dynamic, 7);
    assert!(!a.metrics.is_empty(), "an observed session records metrics");
    assert_eq!(a, b, "same seed must reproduce every deterministic metric");
    // JSON rendering is deterministic too (the figure harness relies on
    // this for byte-identical parallel output).
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}

#[test]
fn counters_cover_every_layer() {
    let _g = registry();
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
    let _g = registry();
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

#[test]
fn disabled_observation_is_invisible() {
    let _g = registry();
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
    let _g = registry();
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

/// One golden capture: the deterministic `--metrics` subset of `run`.
/// The scheduler-transport counters postdate the recorded goldens: they
/// describe which thread performed each dispatch (and how timer heap
/// entries were reclaimed), not anything the simulation model computed,
/// so they are excluded to keep the goldens pinned across scheduler
/// rewrites. Everything the model produces — events, context switches,
/// queue depth, horizons — stays checked.
fn golden_capture(run: impl FnOnce()) -> String {
    let (_, mut snap) = observe(run);
    snap.metrics.retain(|m| {
        !matches!(
            m.name.as_str(),
            "sim.direct_handoffs" | "sim.sched_fallbacks" | "sim.timers_cancelled_eagerly"
        )
    });
    snap.to_json().pretty()
}

/// Golden regression: the deterministic subset of the `--metrics` JSON
/// for each reference workload. (Wall-clock gauges are excluded — they
/// differ between any two runs; see `Snapshot::deterministic`.)
#[test]
fn golden_metrics_json() {
    let _g = registry();
    let captures = GOLDEN_CAPTURES.get().expect("taken with the lock");
    for (name, capture) in GOLDEN_METRICS.iter().zip(captures) {
        check_golden(name, capture);
    }
}

/// The headline invariant of fault injection: a fault plan with every
/// fault disabled produces byte-identical figure JSON *and* byte-identical
/// deterministic metrics to a run with no plan installed at all.
#[test]
fn no_faults_is_identity() {
    let _g = registry();
    let (fig_base, snap_base) = observe(|| fig9(&base(), 1).to_json());
    let inert = SessionConfig {
        faults: Some(FaultSpec::parse("7:none").expect("spec")),
        ..base()
    };
    let (fig_none, snap_none) = observe(|| fig9(&inert, 1).to_json());
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
    let _g = registry();
    let run = |backend| {
        let base = SessionConfig { backend, ..base() };
        let (fig, snap) = observe(|| fig9(&base, 1).to_json());
        (fig, snap.to_json().pretty())
    };
    let (fig_t, met_t) = run(ProcBackend::Threads);
    let (fig_c, met_c) = run(ProcBackend::Coroutine);
    assert_eq!(fig_t, fig_c, "figure JSON must be byte-identical");
    assert_eq!(met_t, met_c, "deterministic metrics must be byte-identical");
}

#[test]
fn obs_counters_track_store_traffic() {
    let _g = registry();
    obs::reset();
    obs::set_enabled(true);
    let trace = synth_trace(11, 6, 100);
    let path = tmp("obs");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 16 }).unwrap();
    let written = obs::counter("analysis.chunks_written").get();
    let bytes = obs::counter("analysis.store_bytes").get();
    assert!(written > 0, "chunks_written not recorded");
    assert_eq!(
        bytes,
        std::fs::metadata(&path).unwrap().len(),
        "store_bytes must equal the file size"
    );

    let mut r = StoreReader::open(&path).unwrap();
    let info = r.info();
    let mid = info.t_min + info.t_end.saturating_sub(info.t_min) / 2;
    r.for_each_query(Some((info.t_min, mid)), None, |_| {})
        .unwrap();
    assert!(obs::counter("analysis.chunks_read").get() > 0);
    assert!(
        obs::counter("analysis.chunks_skipped").get() > 0,
        "half-trace window must skip chunks via the index"
    );
    obs::set_enabled(false);
    obs::reset();
    std::fs::remove_file(&path).ok();
}

/// The crash-consistency counters fire: `chunks_salvaged` on salvage,
/// `chunks_bad_crc` + `events_lost` on degraded reads, and
/// `segments_rotated` on rotation.
#[test]
fn obs_counters_cover_salvage_corruption_and_rotation() {
    let _g = registry();
    obs::reset();
    obs::set_enabled(true);

    let trace = synth_trace(39, 2, 40);
    let path = tmp("obs-salvage");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 8 }).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let reference = StoreReader::open(&path).unwrap();
    let last_end = reference
        .chunks()
        .iter()
        .map(|m| m.offset + CHUNK_HDR + m.enc_len as u64)
        .max()
        .unwrap() as usize;
    let chunk0 = reference.chunks()[0];
    drop(reference);

    // Salvage a footer-less copy.
    std::fs::write(&path, &bytes[..last_end]).unwrap();
    let r = StoreReader::open_salvage(&path).unwrap();
    assert!(obs::counter("analysis.chunks_salvaged").get() > 0);
    drop(r);

    // Degraded read over a corrupt chunk.
    let mut bad = bytes.clone();
    bad[chunk0.offset as usize + CHUNK_HDR as usize] ^= 0xff;
    std::fs::write(&path, &bad).unwrap();
    let mut r = StoreReader::open(&path).unwrap();
    r.set_degraded(true);
    r.read_all().unwrap();
    assert_eq!(obs::counter("analysis.chunks_bad_crc").get(), 1);
    assert_eq!(
        obs::counter("analysis.events_lost").get(),
        chunk0.count as u64
    );
    drop(r);
    std::fs::remove_file(&path).ok();

    // Rotation.
    let base = tmp("obs-rot");
    let mut w = RotatingWriter::create(
        &base,
        "obs",
        StoreOptions { chunk_events: 8 },
        RotationPolicy::by_events(30),
        RetentionPolicy::default(),
    )
    .unwrap();
    w.set_functions(trace.functions.clone());
    for ev in &trace.events {
        w.append(ev);
    }
    let stats = w.finish().unwrap();
    assert_eq!(
        obs::counter("analysis.segments_rotated").get(),
        stats.rotated as u64
    );
    for p in stats.segments.iter() {
        std::fs::remove_file(p).ok();
    }

    obs::set_enabled(false);
    obs::reset();
}

#[test]
fn parallel_figure_runner_matches_serial_bytes() {
    // The fig7 sweep fans out across a worker pool; its JSON must be
    // byte-identical to the serial runner's. Exercised through the same
    // entry point the `fig7` binary uses.
    let _g = registry();
    let serial = dynprof_bench::fig7(&base(), "smg98", 1).to_json();
    let par = dynprof_bench::fig7(&base(), "smg98", 4).to_json();
    assert_eq!(serial, par);
}

#[test]
fn parallel_fig8_matches_serial_bytes() {
    // Same byte-identity contract for the fig8 confsync sweeps (the
    // entry point the `fig8 --parallel` binary uses). Two seeds per
    // point keep the averaging path honest without the full 16-run cost.
    let _g = registry();
    let serial = fig8c(&base(), 2, 1).to_json();
    let par = fig8c(&base(), 2, 4).to_json();
    assert_eq!(serial, par);
}

#[test]
fn parallel_fig9_matches_serial_bytes() {
    // And for the fig9 create-and-instrument sweep (`fig9 --parallel`):
    // per-app point order and degraded-label folding must survive the
    // fan-out.
    let _g = registry();
    let serial = fig9(&base(), 1).to_json();
    let par = fig9(&base(), 4).to_json();
    assert_eq!(serial, par);
}
