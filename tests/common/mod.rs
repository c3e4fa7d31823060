//! Helpers shared by the integration-test binaries: each includes this
//! module with `mod common;` and uses what it needs.

#![allow(dead_code)]

use dynprof::core::SessionConfig;
use dynprof::sim::rng::SimRng;
use dynprof::sim::{Machine, SimTime};
use dynprof::vt::{Event, Policy, Trace, VtFuncId};
use dynprof_bench::{fig7_policies, fig7_run, Figure, Series};

/// v2 on-disk chunk header size (rank, count, enc_len, crc, min_t,
/// max_t, max_end) — the bound `offset + CHUNK_HDR + enc_len` is a
/// chunk's end-of-payload position.
pub const CHUNK_HDR: u64 = 40;

/// The figure harnesses' base run configuration: no faults (so plain
/// installs), no overhead budget, the default carrier.
pub fn base() -> SessionConfig {
    SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
}

/// The reduced Fig 7 reference workload: smg98 at 8 CPUs under every
/// policy (the full sweep is a release-binary job, not a debug test).
pub fn fig7_reduced(base: &SessionConfig) -> Figure {
    let series = fig7_policies("smg98")
        .into_iter()
        .map(|p| Series {
            label: p.label().to_string(),
            points: vec![(8, fig7_run(base, "smg98", 8, p).0)],
        })
        .collect();
    Figure {
        title: "Fig 7(a) smg98 at 8 CPUs (golden reference)".into(),
        unit: "seconds",
        xaxis: "CPUs",
        series,
    }
}

/// A store path private to this test process.
pub fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dynprof-store-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.vgvs", std::process::id()))
}

/// Compare `actual` byte-for-byte against `tests/golden/<name>`, or
/// rewrite the file when `UPDATE_GOLDENS` is set.
pub fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path}: {e} (regenerate with UPDATE_GOLDENS=1)")
    });
    assert_eq!(
        actual, expected,
        "golden {name} drifted; regenerate with UPDATE_GOLDENS=1 if intended"
    );
}

/// A seeded synthetic trace: per-rank causal event streams mixing every
/// span-carrying event kind, concatenated rank-major (the order a store
/// writer receives them from per-rank buffers).
pub fn synth_trace(seed: u64, ranks: u32, steps: u64) -> Trace {
    let mut events = Vec::new();
    for rank in 0..ranks {
        let mut rng = SimRng::new(seed, rank as u64);
        let mut t = rng.gen_range_u64(0..=5_000);
        for _ in 0..steps {
            t += 1_000 + rng.gen_range_u64(0..=2_000);
            let t0 = SimTime::from_nanos(t);
            match rng.gen_range_u64(0..=4) {
                0 => {
                    let dur = 500 + rng.gen_range_u64(0..=1_500);
                    let func = VtFuncId(rng.gen_range_u64(0..=2) as u32);
                    events.push(Event::FuncEnter {
                        t: t0,
                        rank,
                        thread: 0,
                        func,
                    });
                    t += dur;
                    events.push(Event::FuncExit {
                        t: SimTime::from_nanos(t),
                        rank,
                        thread: 0,
                        func,
                    });
                }
                1 => {
                    let dur = rng.gen_range_u64(100..=3_000);
                    events.push(Event::MpiCall {
                        t: t0,
                        t_end: SimTime::from_nanos(t + dur),
                        rank,
                        op: 2,
                        peer: ((rank + 1) % ranks.max(2)) as i32,
                        bytes: rng.gen_range_u64(8..=4_096),
                    });
                    t += dur;
                }
                2 => {
                    let span = rng.gen_range_u64(200..=2_000);
                    events.push(Event::FuncBatch {
                        t: t0,
                        rank,
                        thread: 0,
                        func: VtFuncId(rng.gen_range_u64(0..=2) as u32),
                        count: rng.gen_range_u64(1..=50),
                        span: SimTime::from_nanos(span),
                    });
                    t += span;
                }
                3 => {
                    let dur = rng.gen_range_u64(100..=1_000);
                    events.push(Event::OmpThread {
                        t: t0,
                        t_end: SimTime::from_nanos(t + dur),
                        rank,
                        thread: rng.gen_range_u64(0..=3) as u16,
                        region: 0,
                    });
                    t += dur;
                }
                _ => {
                    let dur = rng.gen_range_u64(100..=800);
                    events.push(Event::Suspended {
                        t: t0,
                        t_end: SimTime::from_nanos(t + dur),
                        rank,
                    });
                    t += dur;
                }
            }
        }
    }
    Trace {
        program: "synth".into(),
        functions: vec!["alpha".into(), "beta".into(), "gamma".into()],
        events,
    }
}
