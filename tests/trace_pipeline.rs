//! The full data path: instrumented run → trace → file → analysis.

use dynprof::analysis::store::{write_store_from_vt, StoreOptions, StoreReader};
use dynprof::analysis::{
    read_trace, render, trace_volume, write_trace, Profile, ProfileOptions, TimelineOptions,
};
use dynprof::apps::test_app;
use dynprof::core::{run_session, Command, SessionConfig, SessionReport};
use dynprof::sim::{Machine, SimTime};
use dynprof::vt::{Event, Policy, Trace};

fn traced_run(app: &str, cpus: usize, policy: Policy) -> (Trace, SessionReport) {
    let spec = test_app(app, cpus).unwrap();
    let report = run_session(
        &spec,
        SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(12),
    );
    (report.vt.build_trace(), report)
}

#[test]
fn profile_agrees_with_vt_statistics() {
    let (trace, report) = traced_run("sweep3d", 4, Policy::Full);
    let profile = Profile::from_trace(&trace);
    let vt = &report.vt;
    for name in ["sweep", "source", "flux_err"] {
        let id = vt.func_id(name).unwrap();
        let from_trace = profile.aggregate(id);
        let from_vt: u64 = (0..4).map(|r| vt.stat_of(r, id).count).sum();
        assert_eq!(from_trace.count, from_vt, "{name} counts disagree");
    }
}

/// The three feeders of `ProfileBuilder` — the live buffers, the merged
/// time-sorted trace, the store streamed rank by rank — must agree on
/// everything a `Profile` exposes, rendered bytes included.
fn assert_feeders_agree(report: &SessionReport, opts: ProfileOptions, ctx: &str) {
    let vt = &report.vt;
    let from_vt = Profile::from_vt(vt, opts);
    let from_trace = Profile::from_trace_opts(&vt.build_trace(), opts);
    let dir = std::env::temp_dir().join("dynprof-pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let tag: String = ctx.chars().filter(char::is_ascii_alphanumeric).collect();
    let path = dir.join(format!("feeders-{tag}-{}.vgvs", std::process::id()));
    write_store_from_vt(vt, &path, StoreOptions { chunk_events: 64 }).unwrap();
    let from_store = Profile::from_store(&mut StoreReader::open(&path).unwrap(), opts).unwrap();
    std::fs::remove_file(&path).ok();

    assert!(!from_vt.per_rank.is_empty(), "{ctx}: empty profile");
    for (other, name) in [(&from_trace, "from_trace"), (&from_store, "from_store")] {
        assert_eq!(
            from_vt.per_rank, other.per_rank,
            "{ctx}: per_rank vs {name}"
        );
        assert_eq!(from_vt.ranks, other.ranks, "{ctx}: ranks vs {name}");
        assert_eq!(
            from_vt.render_top(15),
            other.render_top(15),
            "{ctx}: render_top vs {name}"
        );
    }
}

#[test]
fn profile_feeders_agree_on_every_app_and_policy() {
    let cfg = |policy| SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(12);
    for app in ["smg98", "sppm", "sweep3d", "umt98"] {
        for policy in [Policy::Dynamic, Policy::Full, Policy::Subset] {
            let report = run_session(&test_app(app, 4).unwrap(), cfg(policy));
            let ctx = format!("{app} {policy}");
            assert_feeders_agree(&report, ProfileOptions::default(), &ctx);
        }
    }

    // Suppressed-count records (`floor=10`) are accounted like batches.
    let report = run_session(
        &test_app("sweep3d", 4).unwrap(),
        cfg(Policy::Full).with_suppress_floor(SimTime::from_micros(10)),
    );
    assert!((0..4).any(|r| report.vt.suppressed_pairs(r) > 0));
    assert_feeders_agree(&report, ProfileOptions::default(), "sweep3d floor");

    // A mid-run removal suspends every rank; discounting those windows
    // needs the pre-pass each feeder does its own way.
    let mut params = dynprof::apps::SppmParams::test();
    params.scale = 0.25;
    params.base_steps = 6;
    let report = run_session(
        &dynprof::apps::sppm(2, params),
        cfg(Policy::Dynamic).with_script(vec![
            Command::InsertFile(vec!["subset".into()]),
            Command::Start,
            Command::Wait(SimTime::from_millis(40)),
            Command::RemoveFile(vec!["subset".into()]),
            Command::Quit,
        ]),
    );
    let fair = ProfileOptions {
        exclude_suspensions: true,
    };
    assert_ne!(
        Profile::from_vt(&report.vt, fair).per_rank,
        Profile::from_vt(&report.vt, ProfileOptions::default()).per_rank,
        "the suspension must overlap some call"
    );
    assert_feeders_agree(&report, fair, "sppm suspended");
}

#[test]
fn trace_survives_disk_round_trip() {
    let (trace, _) = traced_run("sppm", 2, Policy::Subset);
    let dir = std::env::temp_dir().join("dynprof-pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("sppm-{}.vgvt", std::process::id()));
    write_trace(&trace, &path).unwrap();
    let back = read_trace(&path).unwrap();
    assert_eq!(back, trace);
    std::fs::remove_file(&path).ok();
}

#[test]
fn events_are_time_ordered() {
    let (trace, _) = traced_run("smg98", 2, Policy::Subset);
    for w in trace.events.windows(2) {
        assert!(w[0].time() <= w[1].time(), "events out of order");
    }
}

#[test]
fn timeline_renders_all_ranks_and_mpi_activity() {
    let (trace, _) = traced_run("sweep3d", 4, Policy::Full);
    let art = render(
        &trace,
        TimelineOptions {
            width: 60,
            per_thread: false,
        },
    );
    for r in 0..4 {
        assert!(
            art.contains(&format!("rank   {r}")),
            "missing rank {r}:\n{art}"
        );
    }
    assert!(art.contains('M'), "no MPI activity painted");
    assert!(art.contains('#'), "no function activity painted");
}

#[test]
fn hybrid_timeline_shows_wiggles() {
    let params = dynprof::apps::Sweep3dParams::test().with_threads(3);
    let app = dynprof::apps::sweep3d(2, params);
    let report = run_session(
        &app,
        SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(12),
    );
    let trace = report.vt.build_trace();
    let art = render(
        &trace,
        TimelineOptions {
            width: 60,
            per_thread: true,
        },
    );
    assert!(art.contains('~'), "no OpenMP wiggle painted:\n{art}");
    assert!(art.contains("thread  2"), "per-thread rows missing");
}

#[test]
fn volume_reflects_batching() {
    let (trace, report) = traced_run("smg98", 2, Policy::Full);
    let v = trace_volume(&trace, 24);
    // The modelled volume equals what VT accounted during the run.
    assert_eq!(v.bytes, report.trace_bytes);
    // Batched events represent far more volume than their in-memory count.
    assert!(
        v.bytes > 24 * trace.events.len() as u64 * 10,
        "batching should compress memory: {} bytes for {} events",
        v.bytes,
        trace.events.len()
    );
    assert!(v.bytes_per_second > 0.0);
}

#[test]
fn mpi_events_carry_decodable_ops() {
    let (trace, _) = traced_run("sppm", 2, Policy::None);
    let mut saw_send = false;
    for e in &trace.events {
        if let Event::MpiCall { op, .. } = e {
            let decoded = dynprof::vt::op_from_code(*op).expect("valid op code");
            if decoded == dynprof::mpi::MpiOp::Send {
                saw_send = true;
            }
        }
    }
    assert!(saw_send, "expected MPI_Send events in the sppm trace");
}
