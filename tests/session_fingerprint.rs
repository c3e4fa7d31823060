//! Session fingerprints: one line per session over every way a session can
//! run — the four kernels under every policy, a set of `dynprof` script
//! shapes, a session on an inert fault plan, an attach to a running job
//! and the Dynamic install under live fault plans — byte-compared against
//! `tests/golden/session_fingerprints.txt`.
//!
//! A line holds the report's times and counts, the warnings, the rendered
//! timefile and an FNV-1a digest of each rank's buffered event stream, so
//! a change to how sessions are driven that moves any measured byte shows
//! up here as the line it moved. Regenerate (only when a change is meant)
//! with `UPDATE_GOLDENS=1 cargo test --test session_fingerprint`.

use dynprof::apps::{sppm, test_app, SppmParams};
use dynprof::core::{run_attach_session, run_session, Command, SessionConfig, SessionReport};
use dynprof::sim::{FaultSpec, Machine, SimTime};
use dynprof::vt::{ControllerConfig, Policy};

const GOLDEN: &str = "tests/golden/session_fingerprints.txt";
const APPS: [&str; 4] = ["smg98", "sppm", "sweep3d", "umt98"];
const SEEDS: [u64; 3] = [1, 7, 42];
const POLICIES: [Policy; 5] = [
    Policy::Full,
    Policy::FullOff,
    Policy::Subset,
    Policy::None,
    Policy::Dynamic,
];

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One line describing everything `report` measured.
fn fingerprint(label: &str, report: &SessionReport) -> String {
    let digests: Vec<String> = (0..report.vt.ranks())
        .map(|rank| {
            report.vt.with_rank_events(rank, |events| {
                let h = events.iter().fold(0xcbf2_9ce4_8422_2325, |h, ev| {
                    fnv(h, format!("{ev:?}").as_bytes())
                });
                format!("{h:016x}")
            })
        })
        .collect();
    format!(
        "{label} app={} total={} create={} instrument={} pairs={} trace_bytes={} recv={:?} \
         warnings={:?} timefile={:?} events=[{}]",
        report.app_time.as_nanos(),
        report.total_time.as_nanos(),
        report.create_time.as_nanos(),
        report.instrument_time.as_nanos(),
        report.probe_pairs_installed,
        report.trace_bytes,
        report.recv_cost,
        report.warnings,
        report.timefile.render(),
        digests.join(" "),
    )
}

fn cfg(policy: Policy, seed: u64) -> SessionConfig {
    SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(seed)
}

fn script(text: &str) -> Vec<Command> {
    Command::parse_script(text).expect("valid script")
}

/// Every fingerprinted session, in golden order.
fn fingerprints() -> Vec<String> {
    let mut lines = Vec::new();
    for name in APPS {
        let app = test_app(name, 4).expect("known app");
        let first = &app.subset[0];
        let scripts = [
            (
                "mid-run",
                script("start\nwait 0.0002\ninsert-file subset\nwait 0.0002\nremove-file subset\nquit\n"),
            ),
            (
                "remove-before-start",
                script(&format!("insert-file subset\nremove {first}\nstart\nquit\n")),
            ),
            (
                "unknown-function",
                script(&format!("insert {first} no_such_function\nstart\nquit\n")),
            ),
            ("no-start", script("insert-file subset\n")),
        ];
        for seed in SEEDS {
            for policy in POLICIES {
                let report = run_session(&app, cfg(policy, seed));
                lines.push(fingerprint(
                    &format!("{name} {policy} seed={seed}"),
                    &report,
                ));
            }
            for (label, commands) in &scripts {
                let report = run_session(
                    &app,
                    cfg(Policy::Dynamic, seed).with_script(commands.clone()),
                );
                lines.push(fingerprint(&format!("{name} {label} seed={seed}"), &report));
            }
            let adaptive = cfg(Policy::Dynamic, seed)
                .with_adaptive(ControllerConfig::budget(5.0))
                .with_suppress_floor(SimTime::from_micros(10));
            let report = run_session(&app, adaptive);
            lines.push(fingerprint(
                &format!("{name} budget=5 floor=10 seed={seed}"),
                &report,
            ));

            let inert = SessionConfig {
                faults: Some(FaultSpec::parse("7:none").expect("spec")),
                ..cfg(Policy::Dynamic, seed)
            };
            let report = run_session(&app, inert);
            lines.push(fingerprint(
                &format!("{name} inert-plan seed={seed}"),
                &report,
            ));
        }
    }
    let mut params = SppmParams::test();
    params.scale = 1.0;
    params.base_steps = 10;
    let app = sppm(2, params);
    for seed in SEEDS {
        let report = run_attach_session(
            &app,
            cfg(Policy::Dynamic, seed),
            SimTime::from_millis(100),
            SimTime::from_millis(400),
        );
        lines.push(fingerprint(&format!("sppm attach seed={seed}"), &report));
    }
    for name in ["smg98", "sweep3d"] {
        let app = test_app(name, 4).expect("known app");
        for profile in ["drop", "crash", "lossy"] {
            let faulted = SessionConfig {
                faults: Some(FaultSpec::parse(&format!("7:{profile}")).expect("spec")),
                ..cfg(Policy::Dynamic, 7)
            };
            let report = run_session(&app, faulted);
            lines.push(fingerprint(&format!("{name} faults=7:{profile}"), &report));
        }
    }
    lines
}

#[test]
fn session_fingerprints_match_golden() {
    let got = fingerprints().join("\n") + "\n";
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("missing golden {GOLDEN}: {e} (regenerate with UPDATE_GOLDENS=1)")
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {GOLDEN} drifted", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN}: session count changed"
    );
}
