//! End-to-end dynprof sessions across all four kernels.

use dynprof::apps::test_app;
use dynprof::core::{run_session, Command, SessionConfig};
use dynprof::sim::{FaultSpec, Machine, SimTime};
use dynprof::vt::{Event, Policy};

fn dynamic_session(app_name: &str, cpus: usize) -> dynprof::core::SessionReport {
    let app = test_app(app_name, cpus).expect("known app");
    run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(3),
    )
}

#[test]
fn dynamic_sessions_run_on_every_kernel() {
    for (name, cpus, procs, subset) in [
        ("smg98", 4, 4, 62),
        ("sppm", 4, 4, 7),
        ("sweep3d", 4, 4, 21),
        ("umt98", 4, 1, 6),
    ] {
        let report = dynamic_session(name, cpus);
        assert_eq!(
            report.probe_pairs_installed,
            subset * procs,
            "{name}: subset x processes"
        );
        assert!(report.create_time > SimTime::ZERO, "{name} create");
        assert!(report.instrument_time > SimTime::ZERO, "{name} instrument");
        assert!(report.app_time > SimTime::ZERO, "{name} app time");
        assert!(report.warnings.is_empty(), "{name}: {:?}", report.warnings);
        // The instrumented subset produced trace events.
        let trace = report.vt.build_trace();
        let func_events = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::FuncEnter { .. } | Event::FuncExit { .. } | Event::FuncBatch { .. }
                )
            })
            .count();
        assert!(func_events > 0, "{name}: no function events");
    }
}

/// `SessionConfig::processes` is what the coroutine carrier's preflight
/// charges a run, so it must count every process a session spawns: it is
/// exact when the ranks fill every node and a fault plan arms the
/// heartbeat monitor, and an upper bound otherwise.
#[test]
fn sessions_spawn_the_processes_their_config_counts() {
    let app = test_app("sweep3d", 16).expect("known app");
    for (faults, monitor) in [(None, 0), (Some("3:delay"), 1)] {
        let cfg = SessionConfig {
            faults: faults.map(|f| FaultSpec::parse(f).expect("spec")),
            ..SessionConfig::new(Machine::test_machine(), Policy::Dynamic).with_seed(3)
        };
        let report = run_session(&app, cfg.clone());
        assert_eq!(
            report.processes + 1 - monitor,
            cfg.processes(16),
            "faults {faults:?}"
        );
    }
}

#[test]
fn insert_queued_before_start_is_deferred_until_init() {
    // The Fig-6 protocol: instrumentation requested before `start` must
    // not touch VT before VT_init; success == no panic, and the probes
    // fire after init.
    let app = test_app("sppm", 2).unwrap();
    let script = vec![
        Command::Insert(vec!["sppm1d".into(), "riemann".into()]),
        Command::Start,
        Command::Quit,
    ];
    let report = run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
            .with_script(script)
            .with_seed(8),
    );
    assert_eq!(report.probe_pairs_installed, 2 * 2);
    let vt = &report.vt;
    for f in ["sppm1d", "riemann"] {
        let id = vt.func_id(f).expect("registered by dynprof");
        assert!(vt.stat_of(0, id).count > 0, "{f} never fired");
    }
    // Functions never inserted are absent from the registry.
    assert!(vt.func_id("difuze").is_none());
}

#[test]
fn unknown_functions_produce_warnings_not_failures() {
    let app = test_app("sweep3d", 2).unwrap();
    let script = vec![
        Command::Insert(vec!["sweep".into(), "no_such_function".into()]),
        Command::Start,
        Command::Quit,
    ];
    let report = run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
            .with_script(script)
            .with_seed(8),
    );
    assert_eq!(report.probe_pairs_installed, 2, "only the real function");
    assert!(
        report
            .warnings
            .iter()
            .any(|w| w.contains("no_such_function")),
        "{:?}",
        report.warnings
    );
}

#[test]
fn unknown_function_lists_are_named_by_the_command_that_asked() {
    // Queued before `start` and acted on after it: both paths resolve the
    // list, and each warning names its own command.
    let app = test_app("sweep3d", 2).unwrap();
    let script = vec![
        Command::InsertFile(vec!["subset".into(), "nosuch".into()]),
        Command::RemoveFile(vec!["gone".into()]),
        Command::Start,
        Command::RemoveFile(vec!["missing".into()]),
        Command::Quit,
    ];
    let report = run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
            .with_script(script)
            .with_seed(8),
    );
    assert_eq!(
        report.warnings,
        [
            "insert-file: unknown function list \"nosuch\"",
            "remove-file: unknown function list \"gone\"",
            "remove-file: unknown function list \"missing\"",
        ],
    );
    assert_eq!(
        report.probe_pairs_installed,
        21 * 2,
        "the known list still lands"
    );
}

#[test]
fn script_without_start_still_releases_target() {
    // A script that forgets `start` must not deadlock the held target.
    let app = test_app("sweep3d", 2).unwrap();
    let script = vec![Command::InsertFile(vec!["subset".into()])];
    let report = run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
            .with_script(script)
            .with_seed(8),
    );
    assert!(report.app_time > SimTime::ZERO);
    assert!(report.warnings.iter().any(|w| w.contains("no `start`")));
}

#[test]
fn mid_run_removal_is_tolerated() {
    // Ephemeral instrumentation: remove probes mid-run; stray VT_end
    // calls (entry removed before exit fired) must be absorbed.
    let mut params = dynprof::apps::SppmParams::test();
    params.scale = 0.25;
    params.base_steps = 6;
    let app = dynprof::apps::sppm(2, params);
    let script = vec![
        Command::InsertFile(vec!["subset".into()]),
        Command::Start,
        Command::Wait(SimTime::from_millis(40)),
        Command::RemoveFile(vec!["subset".into()]),
        Command::Quit,
    ];
    let report = run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
            .with_script(script)
            .with_seed(8),
    );
    assert!(report.app_time > SimTime::ZERO);
    // The trace assembles without panicking even if frames were orphaned.
    let trace = report.vt.build_trace();
    assert!(!trace.events.is_empty());
    // The timefile shows the removal.
    assert!(report.timefile.total("remove") > SimTime::ZERO);
    // §5.1: the suspension used for the removal is in the trace as an
    // inactivity period on every rank, and the analysis can discount it.
    let windows = dynprof::analysis::suspension_windows(&trace);
    assert_eq!(windows.len(), 2, "one suspension window per rank");
    for (rank, ws) in &windows {
        assert!(!ws.is_empty(), "rank {rank} has no window");
        for (a, b) in ws {
            assert!(b > a, "empty window on rank {rank}");
        }
    }
    let plain = dynprof::analysis::Profile::from_trace(&trace);
    let fair = dynprof::analysis::Profile::from_trace_opts(
        &trace,
        dynprof::analysis::ProfileOptions {
            exclude_suspensions: true,
        },
    );
    let sum = |p: &dynprof::analysis::Profile| -> u64 {
        p.per_rank.values().map(|f| f.incl.as_nanos()).sum()
    };
    assert!(
        sum(&fair) <= sum(&plain),
        "excluding suspensions cannot increase time"
    );
}

#[test]
fn static_policies_need_no_dpcl() {
    // Static runs report zero create/instrument time (no dynprof at all).
    for policy in [Policy::Full, Policy::FullOff, Policy::Subset, Policy::None] {
        let app = test_app("smg98", 2).unwrap();
        let report = run_session(
            &app,
            SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(4),
        );
        assert_eq!(report.create_time, SimTime::ZERO, "{policy}");
        assert_eq!(report.instrument_time, SimTime::ZERO, "{policy}");
        assert_eq!(report.probe_pairs_installed, 0, "{policy}");
    }
}

#[test]
fn trace_volume_ranks_policies() {
    // Full records every call; Subset a fraction; None only MPI events.
    let volume = |policy| {
        let app = test_app("smg98", 2).unwrap();
        run_session(
            &app,
            SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(4),
        )
        .trace_bytes
    };
    let full = volume(Policy::Full);
    let subset = volume(Policy::Subset);
    let none = volume(Policy::None);
    let dynamic = volume(Policy::Dynamic);
    assert!(full > subset, "Full {full} > Subset {subset}");
    assert!(subset > none, "Subset {subset} > None {none}");
    // Dynamic records the same subset of functions as Subset.
    let rel = (dynamic as f64 - subset as f64).abs() / subset as f64;
    assert!(rel < 0.2, "Dynamic {dynamic} vs Subset {subset}");
}

#[test]
fn a_held_session_installs_and_removes_mid_run() {
    // After `start` the target runs; `insert-file` then patches every
    // rank under suspend/resume (§3.4), `remove-file` takes it out again.
    let mut params = dynprof::apps::SppmParams::test();
    params.scale = 1.0;
    params.base_steps = 10;
    let app = dynprof::apps::sppm(2, params);
    let script = Command::parse_script(
        "start\nwait 0.1\ninsert-file subset\nwait 0.4\nremove-file subset\nquit\n",
    )
    .expect("valid script");
    let report = run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
            .with_seed(17)
            .with_script(script),
    );
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert_eq!(report.probe_pairs_installed, 7 * 2, "subset x ranks");
    let trace = report.vt.build_trace();
    // Two suspension windows per rank: the install and the removal.
    let windows = dynprof::analysis::suspension_windows(&trace);
    assert_eq!(windows.len(), 2, "{windows:?}");
    for (rank, ws) in &windows {
        assert_eq!(ws.len(), 2, "rank {rank}: {ws:?}");
    }
    // Function events exist, and none precedes its rank's install window.
    let mut funcs = 0;
    for ev in &trace.events {
        if let Event::FuncEnter { t, rank, .. } | Event::FuncBatch { t, rank, .. } = *ev {
            funcs += 1;
            let install = windows[&rank][0].0;
            assert!(
                t >= install,
                "rank {rank}: event at {t} before the install at {install}"
            );
        }
    }
    assert!(funcs > 0, "the window captured nothing");
}

// ---- `rotate=` / `keep=` through the product surface ---------------------

const SCRIPT: &str = "insert-file subset\nstart\nquit\n";

/// `dynprof <script> - - <app args…> trace=<base>` in-process, as `main`
/// runs it; returns what it produced and the family's base path.
fn dynprof_cli(
    tag: &str,
    app_args: &[&str],
) -> (dynprof::apps::cli::CliOutput, std::path::PathBuf) {
    use dynprof::apps::cli::{run_cli, CliArgs};
    let dir = std::env::temp_dir().join(format!("dynprof-session-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("script.dp");
    std::fs::write(&script, SCRIPT).unwrap();
    let base = dir.join("r.vgvs");
    let mut argv = vec![script.to_str().unwrap().to_string(), "-".into(), "-".into()];
    argv.extend(app_args.iter().map(|s| s.to_string()));
    argv.push(format!("trace={}", base.display()));
    let out = run_cli(&CliArgs::parse(&argv).unwrap()).unwrap();
    assert!(out.trace_error.is_none(), "{:?}", out.trace_error);
    (out, base)
}

/// Each rank's events in the family at `base`, and the family as `vgv info`
/// sees it.
fn family(base: &std::path::Path) -> (Vec<Vec<Event>>, dynprof::analysis::store::StoreInfo) {
    use dynprof::analysis::store::{EventSource, SegmentSet};
    let mut set = SegmentSet::open(base).unwrap();
    let info = set.source_info();
    let per_rank = set
        .source_ranks()
        .into_iter()
        .map(|rank| {
            let mut got = Vec::new();
            set.query(None, Some(rank), &mut |ev| got.push(ev.clone()))
                .unwrap();
            got
        })
        .collect();
    (per_rank, info)
}

/// The flight recorder on the paper's wide shape: no rank ever fills a
/// chunk, so every roll is a sub-buffer switch. The line pins the
/// family's shape and bytes; the family reads as one store of 64
/// ranks, each holding the tail of what it recorded; and the same
/// session captured by the library on the threads carrier writes the
/// same files.
#[test]
fn rotating_session_keeps_the_tail_of_every_rank() {
    use dynprof::analysis::store::{RetentionPolicy, RotatingWriter, RotationPolicy, StoreOptions};
    use dynprof::sim::ProcBackend;
    use std::sync::{Arc, Mutex};
    let app_args = [
        "sweep3d",
        "cpus=64",
        "policy=dynamic",
        "seed=42",
        "rotate=65536",
        "keep=2",
    ];
    let (out, base) = dynprof_cli("rot", &app_args);
    let stats = out.segments.expect("a rotating capture reports its family");
    assert_eq!(
        (
            stats.segments.len(),
            stats.rotated,
            stats.deleted,
            stats.bytes
        ),
        (2, 2, 1, 88_160),
        "2 segments on disk (2 rotated, 1 retired), 88160 bytes"
    );

    let (retained, info) = family(&base);
    assert_eq!((info.ranks, info.segments), (64, 2), "{info:?}");
    assert_eq!(info.file_bytes, 88_160);
    let app = test_app("sweep3d", 64).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic)
        .with_seed(42)
        .with_script(Command::parse_script(SCRIPT).unwrap());
    let buffered = run_session(&app, cfg.clone());
    for (rank, got) in retained.iter().enumerate() {
        assert!(!got.is_empty(), "rank {rank} retained nothing");
        buffered.vt.with_rank_events(rank, |all| {
            assert!(all.len() > got.len(), "rank {rank}: nothing was retired");
            assert!(
                all.ends_with(got),
                "rank {rank}: not the tail of its stream"
            );
        });
    }

    let rotation = RotationPolicy {
        max_bytes: Some(65_536),
        max_events: None,
    };
    let th = base.with_file_name("th.vgvs");
    let w = RotatingWriter::create(
        &th,
        &app.name,
        StoreOptions::default(),
        rotation,
        RetentionPolicy::keep_last(2),
    )
    .unwrap();
    let slot = Arc::new(Mutex::new(Some(w)));
    let threads = SessionConfig {
        backend: ProcBackend::Threads,
        ..cfg
    };
    run_session(&app, threads.with_capture(Arc::clone(&slot) as _));
    let th = slot.lock().unwrap().take().unwrap().finish().unwrap();
    assert_eq!(th.segments.len(), stats.segments.len());
    for (seg, th) in stats.segments.iter().zip(&th.segments) {
        assert!(
            std::fs::read(seg).unwrap() == std::fs::read(th).unwrap(),
            "{seg:?} differs between the CLI and the threads carrier"
        );
    }
    std::fs::remove_dir_all(base.parent().unwrap()).ok();
}

/// The deep shape: one rank that fills chunk after chunk, so rolls and
/// ordinary seals interleave. Nothing is retired, so the family is the
/// whole buffered stream.
#[test]
fn rotating_session_interleaves_rolls_and_seals() {
    use dynprof::analysis::store::StoreReader;
    let app_args = ["umt98", "cpus=8", "policy=full", "scale=1", "rotate=200000"];
    let (out, base) = dynprof_cli("rot-deep", &app_args);
    let stats = out.segments.expect("a rotating capture reports its family");
    assert_eq!(
        (
            stats.segments.len(),
            stats.rotated,
            stats.deleted,
            stats.bytes
        ),
        ROLLED,
        "segments on disk, rotated, retired, bytes"
    );
    for seg in &stats.segments[..stats.segments.len() - 1] {
        let r = StoreReader::open(seg).unwrap();
        assert!(
            r.chunks().len() > 2,
            "{}: full chunks and a switch",
            seg.display()
        );
        let full = r.chunks().iter().filter(|m| m.count == 2048).count();
        assert_eq!(full + 1, r.chunks().len(), "{}", seg.display());
    }
    let (retained, info) = family(&base);
    assert_eq!((info.ranks, info.segments), (1, stats.segments.len()));

    let mut params = dynprof::apps::Umt98Params::paper();
    params.scale = 1.0;
    let buffered = run_session(
        &dynprof::apps::umt98(8, params),
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(42),
    );
    buffered.vt.with_rank_events(0, |all| {
        assert!(all == retained[0], "the whole stream, in order")
    });
    std::fs::remove_dir_all(base.parent().unwrap()).ok();
}

/// `(segments on disk, rotated, retired, bytes)` of `umt98 cpus=8
/// policy=full scale=1 rotate=200000`.
const ROLLED: (usize, usize, usize, u64) = (4, 3, 0, 756_300);
