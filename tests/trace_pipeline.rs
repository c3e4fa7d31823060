//! The full data path: instrumented run → trace → file → analysis.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynprof::analysis::store::{
    write_store_from_trace, write_store_from_vt, EventSource, StoreOptions, StoreReader,
    StoreStats, StoreWriter,
};
use dynprof::analysis::{
    render, suspension_windows, top_report, trace_volume, Profile, ProfileBuilder, ProfileOptions,
    TimelineOptions,
};
use dynprof::apps::test_app;
use dynprof::core::{run_session, AppSpec, Command, SessionConfig, SessionReport};
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

/// Run `app` under `cfg` with a `ProfileBuilder` installed as the capture
/// sink — how `dynprof` computes its summary — discounting the per-rank
/// suspension `windows` when `opts` asks for it.
fn live_profile(
    app: &AppSpec,
    cfg: SessionConfig,
    opts: ProfileOptions,
    windows: BTreeMap<u32, Vec<(SimTime, SimTime)>>,
) -> Profile {
    let mut builder = ProfileBuilder::new(Vec::new(), opts);
    builder.set_suspensions(windows);
    let slot = Arc::new(Mutex::new(Some(builder)));
    run_session(app, cfg.with_capture(Arc::clone(&slot) as _));
    let builder = slot.lock().unwrap().take().expect("the sink comes back");
    builder.finish()
}

/// The three feeders of `ProfileBuilder` — the running library, the
/// merged time-sorted trace, the store streamed rank by rank — must agree
/// on everything a `Profile` exposes, rendered bytes included.
fn assert_feeders_agree(app: &AppSpec, cfg: SessionConfig, opts: ProfileOptions, ctx: &str) {
    let report = run_session(app, cfg.clone());
    let trace = report.vt.build_trace();
    let from_trace = Profile::from_trace_opts(&trace, opts);
    let from_live = live_profile(app, cfg, opts, suspension_windows(&trace));
    let path = tmp_store(&format!("feeders {ctx}"));
    write_store_from_vt(&report.vt, &path, StoreOptions { chunk_events: 64 }).unwrap();
    let from_store = Profile::from_store(&mut StoreReader::open(&path).unwrap(), opts).unwrap();
    std::fs::remove_file(&path).ok();

    assert!(!from_live.per_rank.is_empty(), "{ctx}: empty profile");
    for (other, name) in [(&from_trace, "from_trace"), (&from_store, "from_store")] {
        assert_eq!(
            from_live.per_rank, other.per_rank,
            "{ctx}: per_rank vs {name}"
        );
        assert_eq!(from_live.ranks, other.ranks, "{ctx}: ranks vs {name}");
        assert_eq!(
            from_live.render_top(15),
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
            let ctx = format!("{app} {policy}");
            let app = test_app(app, 4).unwrap();
            assert_feeders_agree(&app, cfg(policy), ProfileOptions::default(), &ctx);
        }
    }

    // Suppressed-count records (`floor=10`) are accounted like batches.
    let app = test_app("sweep3d", 4).unwrap();
    let floor = cfg(Policy::Full).with_suppress_floor(SimTime::from_micros(10));
    let report = run_session(&app, floor.clone());
    assert!((0..4).any(|r| report.vt.suppressed_pairs(r) > 0));
    assert_feeders_agree(&app, floor, ProfileOptions::default(), "sweep3d floor");

    // A mid-run removal suspends every rank; discounting those windows
    // needs the pre-pass each feeder does its own way (the live one is
    // handed the windows of an identical earlier run).
    let mut params = dynprof::apps::SppmParams::test();
    params.scale = 0.25;
    params.base_steps = 6;
    let app = dynprof::apps::sppm(2, params);
    let suspended = cfg(Policy::Dynamic).with_script(vec![
        Command::InsertFile(vec!["subset".into()]),
        Command::Start,
        Command::Wait(SimTime::from_millis(40)),
        Command::RemoveFile(vec!["subset".into()]),
        Command::Quit,
    ]);
    let fair = ProfileOptions {
        exclude_suspensions: true,
    };
    let trace = run_session(&app, suspended.clone()).vt.build_trace();
    assert_ne!(
        Profile::from_trace_opts(&trace, fair).per_rank,
        Profile::from_trace_opts(&trace, ProfileOptions::default()).per_rank,
        "the suspension must overlap some call"
    );
    assert_feeders_agree(&app, suspended, fair, "sppm suspended");
}

fn tmp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dynprof-pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let tag: String = tag.chars().filter(char::is_ascii_alphanumeric).collect();
    dir.join(format!("{tag}-{}.vgvs", std::process::id()))
}

/// Run `app` under `cfg` with a store writer installed as the capture
/// sink: the store at `path` is written while the session runs.
fn live_capture(
    app: &AppSpec,
    cfg: SessionConfig,
    path: &std::path::Path,
    opts: StoreOptions,
) -> (SessionReport, StoreStats) {
    let writer = StoreWriter::create(path, &app.name, opts).unwrap();
    let slot = Arc::new(Mutex::new(Some(writer)));
    let report = run_session(app, cfg.with_capture(Arc::clone(&slot) as _));
    let writer = slot.lock().unwrap().take().expect("the sink comes back");
    (report, writer.finish().unwrap())
}

/// One session, twice: buffered in the library and flushed afterwards
/// (`write_store_from_vt`, the reference), and captured through the live
/// sink. Both stores must decode to the same per-rank event sequences, the
/// same `Profile` and the same `vgv top`; the live session's library must
/// have buffered nothing.
fn assert_live_capture_matches_buffered(
    app: &AppSpec,
    cfg: SessionConfig,
    opts: ProfileOptions,
    ctx: &str,
) {
    // Small chunks, so the live store's chunks interleave across ranks.
    let chunks = StoreOptions { chunk_events: 64 };
    let buffered = run_session(app, cfg.clone());
    let ref_path = tmp_store(&format!("ref {ctx}"));
    let ref_stats = write_store_from_vt(&buffered.vt, &ref_path, chunks).unwrap();
    let live_path = tmp_store(&format!("live {ctx}"));
    let (live, live_stats) = live_capture(app, cfg.clone(), &live_path, chunks);

    assert!(ref_stats.events > 0, "{ctx}: empty trace");
    assert_eq!(live_stats.events, ref_stats.events, "{ctx}: event count");
    assert_eq!(live_stats.chunks, ref_stats.chunks, "{ctx}: chunk count");
    // Never larger: the same chunks and footer, and a salvage preamble that
    // lists only the names registered before the first chunk was flushed.
    assert!(live_stats.bytes <= ref_stats.bytes, "{ctx}: store size");
    for rank in 0..live.vt.ranks() {
        live.vt.with_rank_events(rank, |evs| {
            assert!(evs.is_empty(), "{ctx}: rank {rank} buffered {}", evs.len())
        });
    }
    // Where the events went changes nothing the session measures.
    assert_eq!(live.app_time, buffered.app_time, "{ctx}");
    assert_eq!(live.total_time, buffered.total_time, "{ctx}");
    assert_eq!(live.trace_bytes, buffered.trace_bytes, "{ctx}");

    let mut from_live = StoreReader::open(&live_path).unwrap();
    let mut from_ref = StoreReader::open(&ref_path).unwrap();
    assert_eq!(from_live.functions(), from_ref.functions(), "{ctx}");
    assert_eq!(from_live.source_ranks(), from_ref.source_ranks(), "{ctx}");
    for rank in from_ref.source_ranks() {
        let mut streamed = Vec::new();
        from_live
            .query(None, Some(rank), &mut |ev| streamed.push(ev.clone()))
            .unwrap();
        buffered.vt.with_rank_events(rank as usize, |evs| {
            assert_eq!(streamed, evs, "{ctx}: rank {rank} event sequence")
        });
    }
    let (p_live, p_ref) = (
        Profile::from_store(&mut from_live, opts).unwrap(),
        Profile::from_store(&mut from_ref, opts).unwrap(),
    );
    assert_eq!(p_live.per_rank, p_ref.per_rank, "{ctx}: profile");
    assert_eq!(p_live.ranks, p_ref.ranks, "{ctx}: ranks");
    assert_eq!(
        top_report(&mut from_live, 15, opts).unwrap(),
        top_report(&mut from_ref, 15, opts).unwrap(),
        "{ctx}: vgv top"
    );

    // The summary's feeder: a `ProfileBuilder` fed by the running library
    // (no pre-pass, so default options only).
    let fed_live = live_profile(app, cfg, ProfileOptions::default(), BTreeMap::new());
    let replayed = Profile::from_store(&mut from_ref, ProfileOptions::default()).unwrap();
    assert_eq!(fed_live.per_rank, replayed.per_rank, "{ctx}: live builder");
    assert_eq!(fed_live.functions, replayed.functions, "{ctx}: dictionary");
    assert_eq!(
        fed_live.render_top(15),
        replayed.render_top(15),
        "{ctx}: table"
    );
    for p in [ref_path, live_path] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn live_capture_matches_buffered_flush_on_every_app_and_policy() {
    let cfg = |policy| SessionConfig::new(Machine::ibm_power3_colony(), policy).with_seed(12);
    for app in ["smg98", "sppm", "sweep3d", "umt98"] {
        for policy in [Policy::Dynamic, Policy::Full, Policy::Subset] {
            assert_live_capture_matches_buffered(
                &test_app(app, 4).unwrap(),
                cfg(policy),
                ProfileOptions::default(),
                &format!("{app} {policy}"),
            );
        }
    }

    // `floor=10`: the sink sees only settled events, so the held-back
    // entries and the sealed suppressed-count records must come out the
    // same through either path.
    assert_live_capture_matches_buffered(
        &test_app("sweep3d", 4).unwrap(),
        cfg(Policy::Full).with_suppress_floor(SimTime::from_micros(10)),
        ProfileOptions::default(),
        "sweep3d floor",
    );

    // A mid-run removal: suspension records, frames left open.
    let mut params = dynprof::apps::SppmParams::test();
    params.scale = 0.25;
    params.base_steps = 6;
    assert_live_capture_matches_buffered(
        &dynprof::apps::sppm(2, params),
        cfg(Policy::Dynamic).with_script(vec![
            Command::InsertFile(vec!["subset".into()]),
            Command::Start,
            Command::Wait(SimTime::from_millis(40)),
            Command::RemoveFile(vec!["subset".into()]),
            Command::Quit,
        ]),
        ProfileOptions {
            exclude_suspensions: true,
        },
        "sppm suspended",
    );
}

/// The capture's memory does not grow with the run: umt98 (one process)
/// run three times as long records over twice the events through a writer
/// whose buffered high-water mark stays within one chunk.
#[test]
fn live_capture_memory_is_independent_of_run_length() {
    let opts = StoreOptions { chunk_events: 64 };
    let capture = |length: usize| {
        let mut params = dynprof::apps::Umt98Params::test();
        params.iterations *= length;
        let app = dynprof::apps::umt98(4, params);
        let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(12);
        let path = tmp_store(&format!("runlength {length}"));
        let (_, stats) = live_capture(&app, cfg, &path, opts);
        std::fs::remove_file(&path).ok();
        stats
    };
    let (short, long) = (capture(1), capture(3));
    assert!(
        long.events >= 2 * short.events,
        "events should more than double: {} vs {}",
        short.events,
        long.events
    );
    assert!(short.chunks > 4, "several chunks even in the short run");
    // One encoded event is at most a few dozen bytes; a chunk of them
    // bounds what one rank ever holds.
    let one_chunk = opts.chunk_events * 40;
    assert!(long.peak_buffered_bytes <= one_chunk, "{long:?}");
    assert!(
        long.peak_buffered_bytes.abs_diff(short.peak_buffered_bytes) <= one_chunk,
        "{short:?} vs {long:?}"
    );
}

#[test]
fn trace_survives_disk_round_trip() {
    let (trace, _) = traced_run("sppm", 2, Policy::Subset);
    let path = tmp_store("sppm round trip");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 64 }).unwrap();
    let back = StoreReader::open(&path).unwrap().read_all().unwrap();
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
