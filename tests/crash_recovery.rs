//! Crash-consistency suite for the `VGVS` store: truncation fuzzing,
//! deferred writer I/O errors, a seeded kill-point chaos matrix against
//! the fault-injectable I/O layer — over a finished trace and over a
//! *running simulation* whose capture sink dies under it —, `fsck
//! --repair` round trips over the four canonical corruption fixtures, and
//! rotation/retention, post-run and live.
//!
//! The invariant under test (DESIGN §17): for every seed × fault script
//! × kill point, `open_salvage` recovers exactly the fully-flushed
//! chunks, reports the torn tail (never silently absorbing it), and
//! `repair` produces a file that plain `open` accepts whose queries
//! match the salvaged view byte-for-byte.

mod common;

use std::io::Write as _;
use std::sync::{Arc, Mutex};

use common::{synth_trace, tmp, CHUNK_HDR};
use dynprof::analysis::store::{
    fsck, repair, write_store_from_trace, EventSource, FaultScript, FaultyFile, FooterState,
    RetentionPolicy, RotatingWriter, RotationPolicy, SegmentSet, StoreOptions, StoreReader,
    StoreWriter,
};
use dynprof::analysis::{top_report, ProfileOptions, TraceError};
use dynprof::apps::test_app;
use dynprof::core::{run_session, SessionConfig, SessionReport};
use dynprof::sim::rng::SimRng;
use dynprof::sim::{Machine, SimTime};
use dynprof::vt::{Event, Policy, Trace, VtFuncId};

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 23, 37, 41],
    }
}

/// Write `trace` through a [`FaultyFile`] with `script`. Returns the
/// path, whether `finish()` succeeded, and the bytes that reached disk.
fn faulty_capture(
    trace: &Trace,
    path: &std::path::Path,
    opts: StoreOptions,
    script: FaultScript,
) -> (bool, u64) {
    let file = std::fs::File::create(path).unwrap();
    let mut w = StoreWriter::new(FaultyFile::new(file, script), &trace.program, opts).unwrap();
    w.set_functions(trace.functions.clone());
    for ev in &trace.events {
        w.append(ev);
    }
    match w.finish() {
        Ok(_) => (true, std::fs::metadata(path).unwrap().len()),
        Err(_) => (false, std::fs::metadata(path).unwrap().len()),
    }
}

/// Ground truth for a kill point: with the reference (fault-free) store
/// bytes and its chunk index, which chunks fit entirely inside a
/// `file_len`-byte prefix, and how many events they hold.
fn expected_recovery(reference: &mut StoreReader, file_len: u64) -> (usize, u64, u64) {
    let mut chunks = 0usize;
    let mut events = 0u64;
    let mut data_end = 0u64;
    for m in reference.chunks() {
        let end = m.offset + CHUNK_HDR + m.enc_len as u64;
        if end <= file_len {
            chunks += 1;
            events += m.count as u64;
            data_end = data_end.max(end);
        }
    }
    (chunks, events, data_end)
}

// ---- satellite 1: truncation fuzzing --------------------------------

/// Every byte-length prefix of a valid store either opens cleanly (full
/// length only) or fails with a *typed* error — no panic, no garbage
/// data. And salvage, on every prefix, returns only events that the
/// fully-flushed chunks actually contain; `fsck` counts exactly what
/// salvage recovers, and `repair` writes a store that opens plainly and
/// reads back exactly those events.
#[test]
fn every_prefix_fails_typed_and_salvage_never_fabricates() {
    let trace = synth_trace(7, 2, 30);
    let path = tmp("prefix-ref");
    let repaired = tmp("prefix-repaired");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 8 }).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut reference = StoreReader::open(&path).unwrap();

    // Per-chunk reference contents, for exact-recovery comparison.
    let chunk_events: Vec<Vec<Event>> = (0..reference.chunks().len())
        .map(|i| reference.read_chunk(i).unwrap())
        .collect();

    let prefix = tmp("prefix-cut");
    for len in 0..=bytes.len() {
        std::fs::write(&prefix, &bytes[..len]).unwrap();
        match StoreReader::open(&prefix) {
            Ok(_) => assert_eq!(len, bytes.len(), "short prefix must not open"),
            Err(e) => {
                assert_ne!(len, bytes.len(), "full file must open: {e}");
                // Typed, displayable, and cheap to match on.
                let _ = format!("{e}");
            }
        }
        // Salvage must never invent data: whatever it recovers is
        // exactly the set of chunks whose bytes are all present.
        let (exp_chunks, exp_events, _) = expected_recovery(&mut reference, len as u64);
        match StoreReader::open_salvage(&prefix) {
            Ok(mut r) => {
                let s = r.salvage().expect("salvage summary");
                assert_eq!(s.chunks_recovered, exp_chunks, "prefix {len}");
                assert_eq!(s.events_recovered, exp_events, "prefix {len}");
                let mut expect: Vec<Event> = reference
                    .chunks()
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.offset + CHUNK_HDR + m.enc_len as u64 <= len as u64)
                    .flat_map(|(i, _)| chunk_events[i].iter().cloned())
                    .collect();
                expect.sort_by_key(|e| (e.time(), e.rank()));
                let salvaged = r.read_all().unwrap().events;
                assert_eq!(salvaged, expect, "prefix {len}");

                let report = fsck(&prefix).unwrap();
                assert_eq!(
                    (report.chunks_ok, report.events_ok),
                    (s.chunks_recovered, s.events_recovered),
                    "prefix {len}: fsck vs salvage"
                );
                let report = repair(&prefix, &repaired).unwrap();
                assert_eq!(report.chunks_ok, s.chunks_recovered, "prefix {len}");
                let mut plain = StoreReader::open(&repaired)
                    .unwrap_or_else(|e| panic!("prefix {len}: repaired copy: {e}"));
                assert_eq!(
                    plain.read_all().unwrap().events,
                    salvaged,
                    "prefix {len}: repaired vs salvaged"
                );
            }
            Err(e) => {
                // Only header-less prefixes are beyond salvage, and fsck
                // and repair refuse them with a typed error too.
                assert_eq!(exp_chunks, 0, "prefix {len} salvageable but errored: {e}");
                let _ = format!("{}", fsck(&prefix).unwrap_err());
                let _ = format!("{}", repair(&prefix, &repaired).unwrap_err());
            }
        }
    }
    for p in [path, prefix, repaired] {
        std::fs::remove_file(&p).ok();
    }
}

// ---- satellite 2: deferred writer I/O errors ------------------------

/// A sink that starts failing mid-run must surface through `finish()`
/// (appends are infallible by design), must not leave a valid footer
/// behind, and the partial file must salvage.
#[test]
fn writer_surfaces_deferred_io_error_and_partial_file_salvages() {
    let trace = synth_trace(13, 2, 60);
    let path = tmp("deferred-io");
    let (finished, _) = faulty_capture(
        &trace,
        &path,
        StoreOptions { chunk_events: 16 },
        FaultScript::fail_after(4),
    );
    assert!(!finished, "finish() must report the sink failure");
    assert!(
        StoreReader::open(&path).is_err(),
        "no footer may be committed after a write failure"
    );
    let r = StoreReader::open_salvage(&path).unwrap();
    let s = r.salvage().unwrap();
    assert!(s.chunks_recovered > 0, "flushed chunks must survive");
    assert!(
        (s.events_recovered as usize) < trace.events.len(),
        "the un-flushed tail was lost and must be reported as such"
    );
    std::fs::remove_file(&path).ok();
}

/// A short write (interrupted syscall) loses nothing: the writer's
/// `write_all` retries, `finish()` succeeds, and the store is complete.
#[test]
fn short_writes_are_retried_losslessly() {
    let trace = synth_trace(17, 2, 40);
    let path = tmp("short-write");
    let (finished, _) = faulty_capture(
        &trace,
        &path,
        StoreOptions { chunk_events: 16 },
        FaultScript::short_once(),
    );
    assert!(finished);
    let mut r = StoreReader::open(&path).unwrap();
    assert_eq!(r.read_all().unwrap().events.len(), trace.events.len());
    std::fs::remove_file(&path).ok();
}

// ---- tentpole (d): seeded kill-point chaos matrix -------------------

/// For every seed × fault script × kill point: salvage recovers exactly
/// the fully-flushed chunks (no more, no fewer), accounts every missing
/// byte as dropped tail, and `repair` produces a store that plain
/// `open` accepts whose queries match the salvaged view byte-for-byte.
#[test]
fn chaos_matrix_salvage_recovers_every_flushed_chunk() {
    for seed in seeds() {
        let trace = synth_trace(seed, 3, 50);
        let opts = StoreOptions { chunk_events: 16 };

        // Fault-free reference run: the faulty file's bytes are always
        // an exact prefix of these (torn writes deliver a prefix, then
        // the sink is dead).
        let ref_path = tmp(&format!("chaos-ref-{seed}"));
        write_store_from_trace(&trace, &ref_path, opts).unwrap();
        let ref_len = std::fs::metadata(&ref_path).unwrap().len();
        let mut reference = StoreReader::open(&ref_path).unwrap();

        // Kill points: structural boundaries (±1 around chunk ends) plus
        // seeded draws from the fault-script RNG stream.
        let mut scripts: Vec<FaultScript> = Vec::new();
        for m in reference.chunks() {
            let end = m.offset + CHUNK_HDR + m.enc_len as u64;
            scripts.push(FaultScript::torn_at(end - 1));
            scripts.push(FaultScript::torn_at(end));
            scripts.push(FaultScript::torn_at(end + 1));
        }
        let mut rng = SimRng::new(seed, 99);
        for _ in 0..6 {
            scripts.push(FaultScript::from_rng(&mut rng, ref_len));
        }

        for (k, script) in scripts.into_iter().enumerate() {
            let path = tmp(&format!("chaos-{seed}-{k}"));
            let lossy = script.is_lossy();
            let (finished, _) = faulty_capture(&trace, &path, opts, script);
            let ctx = format!("seed {seed} cell {k}");
            check_kill_cell(&ctx, &path, &ref_path, &mut reference, finished, lossy);
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&ref_path).ok();
    }
}

/// The kill-point invariant for one cell: `path` holds what a capture
/// under a fault script left on disk, `ref_path`/`reference` the same
/// capture fault-free. A capture that finished must be bit-exact; a
/// killed one must salvage to exactly the chunks fully on disk, account
/// the torn tail, and repair into a store whose queries match the
/// salvaged view.
fn check_kill_cell(
    ctx: &str,
    path: &std::path::Path,
    ref_path: &std::path::Path,
    reference: &mut StoreReader,
    finished: bool,
    lossy: bool,
) {
    let file_len = std::fs::metadata(path).unwrap().len();
    if finished {
        // The script never tripped (or was lossless): the store must be
        // complete and bit-exact with the reference.
        let ref_len = std::fs::metadata(ref_path).unwrap().len();
        assert!(!lossy || file_len == ref_len, "{ctx}");
        assert_eq!(
            std::fs::read(path).unwrap(),
            std::fs::read(ref_path).unwrap(),
            "{ctx}: clean runs are byte-identical"
        );
        return;
    }

    let (exp_chunks, exp_events, data_end) = expected_recovery(reference, file_len);
    let mut r = StoreReader::open_salvage(path).unwrap();
    let s = r.salvage().expect("salvage summary");
    assert_eq!(s.chunks_recovered, exp_chunks, "{ctx}");
    assert_eq!(s.events_recovered, exp_events, "{ctx}");
    if exp_chunks > 0 {
        // Every byte past the last provable chunk is accounted for as
        // dropped tail — nothing vanishes silently.
        assert_eq!(s.tail_bytes_dropped, file_len - data_end, "{ctx}");
    }
    assert_eq!(r.read_all().unwrap().events.len(), exp_events as usize);

    // fsck agrees, and repair round-trips: the repaired file opens
    // plainly and reports exactly what salvage saw.
    let report = fsck(path).unwrap();
    assert!(!report.is_clean(), "{ctx}");
    assert_eq!(report.events_ok, exp_events, "{ctx}");
    if exp_chunks > 0 {
        let fixed = path.with_extension("fixed.vgvs");
        repair(path, &fixed).unwrap();
        let mut rep = StoreReader::open(&fixed).unwrap();
        assert_eq!(
            rep.read_all().unwrap(),
            r.read_all().unwrap(),
            "{ctx}: repaired contents"
        );
        let opts = ProfileOptions::default();
        assert_eq!(
            top_report(&mut rep, 10, opts).unwrap(),
            top_report(&mut r, 10, opts).unwrap(),
            "{ctx}: repaired queries must match the salvaged view"
        );
        std::fs::remove_file(&fixed).ok();
    }
}

// ---- mid-run kills: the capture sink dies under a running simulation --

/// A 4-rank dynamic sweep3d session whose capture sink is a store writer
/// over a [`FaultyFile`] running `script`. Returns the session's report
/// (it must always come back) and what `finish()` said afterwards.
fn faulty_session(
    seed: u64,
    path: &std::path::Path,
    opts: StoreOptions,
    script: FaultScript,
) -> (SessionReport, Result<(), TraceError>) {
    let app = test_app("sweep3d", 4).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Dynamic).with_seed(seed);
    let file = FaultyFile::new(std::fs::File::create(path).unwrap(), script);
    let slot = Arc::new(Mutex::new(Some(
        StoreWriter::new(file, &app.name, opts).unwrap(),
    )));
    let report = run_session(&app, cfg.with_capture(Arc::clone(&slot) as _));
    let writer = slot.lock().unwrap().take().expect("the sink comes back");
    (report, writer.finish().map(drop))
}

/// Kill the *simulation's* disk mid-run, for every seed × {chunk boundary
/// ±1, scripted kills}: the session itself runs to completion with the
/// measurements of an undisturbed run (the dead sink swallows events, the
/// error waits for `finish()` and is typed), every chunk sealed before
/// the kill salvages, and `fsck --repair` → re-query equals the salvaged
/// view. Streaming means the chunks of different ranks interleave on
/// disk, so a kill point leaves a *time* prefix of the run, not a rank
/// prefix.
#[test]
fn simulation_killed_mid_run_salvages_every_sealed_chunk() {
    let opts = StoreOptions { chunk_events: 16 };
    for seed in seeds() {
        let ref_path = tmp(&format!("midrun-ref-{seed}"));
        let (undisturbed, finished) = faulty_session(seed, &ref_path, opts, FaultScript::default());
        finished.expect("fault-free capture");
        let ref_len = std::fs::metadata(&ref_path).unwrap().len();
        let mut reference = StoreReader::open(&ref_path).unwrap();
        let chunks = reference.chunks().to_vec();
        assert!(
            chunks.len() > 8,
            "seed {seed}: too few chunks to be a matrix"
        );
        assert!(
            chunks.windows(2).any(|w| w[0].rank > w[1].rank),
            "seed {seed}: a live capture interleaves ranks"
        );

        // Kill points: ±1 around a spread of chunk ends (always the first
        // and the last), plus seeded draws from the fault-script stream.
        let stride = (chunks.len() / 10).max(1);
        let mut scripts: Vec<FaultScript> = Vec::new();
        for (i, m) in chunks.iter().enumerate() {
            if i % stride == 0 || i + 1 == chunks.len() {
                let end = m.offset + CHUNK_HDR + m.enc_len as u64;
                scripts.extend([end - 1, end, end + 1].map(FaultScript::torn_at));
            }
        }
        let mut rng = SimRng::new(seed, 101);
        for _ in 0..6 {
            scripts.push(FaultScript::from_rng(&mut rng, ref_len));
        }

        for (k, script) in scripts.into_iter().enumerate() {
            let ctx = format!("seed {seed} cell {k} ({script:?})");
            let path = tmp(&format!("midrun-{seed}-{k}"));
            let (report, finished) = faulty_session(seed, &path, opts, script);
            // The run neither noticed nor paid for its sink dying.
            assert_eq!(report.app_time, undisturbed.app_time, "{ctx}");
            assert_eq!(report.total_time, undisturbed.total_time, "{ctx}");
            assert_eq!(report.trace_bytes, undisturbed.trace_bytes, "{ctx}");
            if let Err(e) = &finished {
                assert!(matches!(e, TraceError::Io(_)), "{ctx}: untyped {e}");
                assert!(script.is_lossy(), "{ctx}: {e}");
            }
            check_kill_cell(
                &ctx,
                &path,
                &ref_path,
                &mut reference,
                finished.is_ok(),
                script.is_lossy(),
            );
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&ref_path).ok();
    }
}

/// A capture torn before a late `VT_funcdef` reached the footer names the
/// function `<unknown>`: the salvage preamble is the dictionary as of the
/// first chunk flush, and ids beyond it render as unknown, never panic.
#[test]
fn salvaged_capture_names_late_functions_unknown() {
    let path = tmp("late-names");
    let mut w = StoreWriter::create(&path, "late", StoreOptions { chunk_events: 4 }).unwrap();
    let pair = |w: &mut StoreWriter<_>, i: u64, func: u32| {
        for (k, enter) in [(0, true), (1, false)] {
            let (t, rank, thread) = (SimTime::from_micros(10 * i + 5 * k), 0, 0);
            let func = VtFuncId(func);
            w.append(&if enter {
                Event::FuncEnter {
                    t,
                    rank,
                    thread,
                    func,
                }
            } else {
                Event::FuncExit {
                    t,
                    rank,
                    thread,
                    func,
                }
            });
        }
    };
    dynprof::vt::EventSink::funcdef(&mut w, VtFuncId(0), "early");
    (0..4).for_each(|i| pair(&mut w, i, 0)); // two chunks flushed: preamble is out
    dynprof::vt::EventSink::funcdef(&mut w, VtFuncId(1), "late");
    (4..8).for_each(|i| pair(&mut w, i, 1));
    let complete = w.finish().unwrap();
    assert_eq!(complete.events, 16);

    // The finished store knows both names…
    let mut whole = StoreReader::open(&path).unwrap();
    assert_eq!(whole.functions(), ["early", "late"]);
    let last_chunk_end = whole
        .chunks()
        .iter()
        .map(|m| m.offset + CHUNK_HDR + m.enc_len as u64)
        .max()
        .unwrap();
    let named = top_report(&mut whole, 5, ProfileOptions::default()).unwrap();
    assert!(
        named.contains("late") && !named.contains("<unknown>"),
        "{named}"
    );
    drop(whole);

    // …the same capture without its footer only the preamble's.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(last_chunk_end).unwrap();
    drop(f);
    let mut torn = StoreReader::open_salvage(&path).unwrap();
    assert_eq!(torn.functions(), ["early"]);
    assert_eq!(torn.salvage().unwrap().events_recovered, 16);
    let salvaged = top_report(&mut torn, 5, ProfileOptions::default()).unwrap();
    assert!(salvaged.contains("early"), "{salvaged}");
    assert!(salvaged.contains("<unknown>"), "{salvaged}");
    assert!(!salvaged.contains("late"), "{salvaged}");
    // Apart from the name, the rows are the complete store's.
    assert_eq!(salvaged.replace("<unknown>", "late     "), named);
    std::fs::remove_file(&path).ok();
}

// ---- tentpole (b): fsck fixtures ------------------------------------

/// The four canonical corruptions — footer gone, torn mid-chunk, bad
/// chunk CRC, truncated trailer — are each detected by `fsck`, repaired,
/// and the repaired store re-opens and re-queries.
#[test]
fn fsck_repairs_all_four_corruption_fixtures() {
    let trace = synth_trace(29, 3, 40);
    let src = tmp("fsck-src");
    write_store_from_trace(&trace, &src, StoreOptions { chunk_events: 16 }).unwrap();
    let bytes = std::fs::read(&src).unwrap();
    let reference = StoreReader::open(&src).unwrap();
    let last_end = reference
        .chunks()
        .iter()
        .map(|m| m.offset + CHUNK_HDR + m.enc_len as u64)
        .max()
        .unwrap() as usize;
    let chunk0 = reference.chunks()[0];

    // (name, corrupted bytes, expected footer verdict)
    let no_footer = bytes[..last_end].to_vec();
    let torn_mid_chunk = bytes[..last_end - chunk0.enc_len as usize / 2].to_vec();
    let mut bad_crc = bytes.clone();
    bad_crc[chunk0.offset as usize + CHUNK_HDR as usize] ^= 0xff;
    let truncated_trailer = bytes[..bytes.len() - 10].to_vec();
    let fixtures: [(&str, Vec<u8>, FooterState); 4] = [
        ("no-footer", no_footer, FooterState::Missing),
        ("torn-mid-chunk", torn_mid_chunk, FooterState::Missing),
        ("bad-crc", bad_crc, FooterState::Valid),
        ("truncated-trailer", truncated_trailer, FooterState::Missing),
    ];

    for (name, data, footer) in fixtures {
        let path = tmp(&format!("fsck-{name}"));
        std::fs::write(&path, &data).unwrap();
        let report = fsck(&path).unwrap();
        assert!(!report.is_clean(), "{name} must not pass fsck");
        assert!(report.is_salvageable(), "{name} keeps its good chunks");
        assert_eq!(report.footer, footer, "{name}");
        let rendered = report.render();
        assert!(rendered.contains("fsck"), "{name}: {rendered}");

        let fixed = tmp(&format!("fsck-{name}-fixed"));
        let rep_report = repair(&path, &fixed).unwrap();
        assert_eq!(rep_report.chunks_ok, report.chunks_ok, "{name}");
        let mut rep = StoreReader::open(&fixed).unwrap();
        assert_eq!(
            rep.read_all().unwrap().events.len() as u64,
            report.events_ok,
            "{name}: repaired store holds exactly the verified events"
        );
        // And the repaired file itself is now clean.
        assert!(fsck(&fixed).unwrap().is_clean(), "{name}");
        for p in [path, fixed] {
            std::fs::remove_file(&p).ok();
        }
    }

    // The bad-CRC repair view equals the degraded read of the original.
    let bad = tmp("fsck-bad-degraded");
    let mut data = bytes.clone();
    data[chunk0.offset as usize + CHUNK_HDR as usize] ^= 0xff;
    std::fs::write(&bad, &data).unwrap();
    let fixed = tmp("fsck-bad-degraded-fixed");
    repair(&bad, &fixed).unwrap();
    let mut degraded = StoreReader::open(&bad).unwrap();
    degraded.set_degraded(true);
    let mut rep = StoreReader::open(&fixed).unwrap();
    assert_eq!(rep.read_all().unwrap(), degraded.read_all().unwrap());
    for p in [src, bad, fixed] {
        std::fs::remove_file(&p).ok();
    }
}

// ---- tentpole (c): rotation and retention ---------------------------

/// Rotation by event count produces the `name.NNNN.vgvs` family, each
/// segment independently valid, and a [`SegmentSet`] over the family
/// returns exactly what one monolithic store would.
#[test]
fn rotation_produces_segments_that_query_as_one_store() {
    let trace = synth_trace(31, 3, 60);
    let base = tmp("rot");
    let mut w = RotatingWriter::create(
        &base,
        &trace.program,
        StoreOptions { chunk_events: 16 },
        RotationPolicy::by_events(64),
        RetentionPolicy::default(),
    )
    .unwrap();
    w.set_functions(trace.functions.clone());
    for ev in &trace.events {
        w.append(ev);
    }
    let stats = w.finish().unwrap();
    assert!(stats.segments.len() > 1, "rotation must have happened");
    assert_eq!(stats.rotated + 1, stats.segments.len());
    assert_eq!(stats.events as usize, trace.events.len());
    for (i, p) in stats.segments.iter().enumerate() {
        let name = p.file_name().unwrap().to_str().unwrap();
        assert!(name.contains(&format!(".{i:04}.")), "segment name {name}");
        StoreReader::open(p).unwrap_or_else(|e| panic!("segment {name}: {e}"));
    }

    // Monolithic reference with the same inputs.
    let mono = tmp("rot-mono");
    write_store_from_trace(&trace, &mono, StoreOptions { chunk_events: 16 }).unwrap();
    let mut mono_r = StoreReader::open(&mono).unwrap();
    let mut set = SegmentSet::open(&base).unwrap();
    assert_eq!(set.len(), stats.segments.len());
    let opts = ProfileOptions::default();
    assert_eq!(
        top_report(&mut set, 10, opts).unwrap(),
        top_report(&mut mono_r, 10, opts).unwrap(),
        "segment family must be query-equivalent to one store"
    );
    for p in stats.segments.iter() {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&mono).ok();
}

/// Keep-last-N retention deletes the oldest segments as rotation
/// proceeds, and discovery tolerates the resulting leading gap.
#[test]
fn retention_prunes_oldest_segments() {
    let trace = synth_trace(33, 2, 80);
    let base = tmp("keep");
    let mut w = RotatingWriter::create(
        &base,
        &trace.program,
        StoreOptions { chunk_events: 8 },
        RotationPolicy::by_events(40),
        RetentionPolicy::keep_last(2),
    )
    .unwrap();
    w.set_functions(trace.functions.clone());
    for ev in &trace.events {
        w.append(ev);
    }
    let stats = w.finish().unwrap();
    assert!(stats.deleted > 0, "retention must have retired segments");
    assert!(stats.segments.len() <= 2, "keep-last-2 on disk");
    let discovered = SegmentSet::discover(&base);
    assert_eq!(discovered, stats.segments);
    let mut set = SegmentSet::open(&base).unwrap();
    // Only the retained tail of the run is queryable; every retained
    // event exists in the source trace.
    let mut kept = 0usize;
    set.query(None, None, &mut |ev| {
        assert!(trace.events.contains(ev));
        kept += 1;
    })
    .unwrap();
    assert!(kept > 0 && kept < trace.events.len());
    for p in stats.segments.iter() {
        std::fs::remove_file(p).ok();
    }
}

/// A crash risks only the newest segment: sealed segments carry full
/// footers, so tearing the open one loses nothing that was rotated out.
/// A roll that cannot open the next segment ends the capture: appends
/// stay infallible, `finish()` reports the failure, and the segment
/// sealed before it stays a valid store.
#[test]
fn a_failed_roll_surfaces_from_finish() {
    let trace = synth_trace(34, 2, 40);
    let base = tmp("failed-roll");
    let stem = base.file_stem().unwrap().to_str().unwrap();
    let seg = |n: usize| base.with_file_name(format!("{stem}.{n:04}.vgvs"));
    std::fs::create_dir_all(seg(1)).unwrap();
    let opts = StoreOptions { chunk_events: 8 };
    let rotation = RotationPolicy::by_events(40);
    let keep_all = RetentionPolicy::default();
    let mut w = RotatingWriter::create(&base, "roll", opts, rotation, keep_all).unwrap();
    trace.events.iter().for_each(|ev| w.append(ev));
    assert!(matches!(w.finish(), Err(TraceError::Io(_))));
    assert_eq!(StoreReader::open(seg(0)).unwrap().info().events, 40);
    std::fs::remove_dir(seg(1)).ok();
    std::fs::remove_file(seg(0)).ok();
}

#[test]
fn crash_loses_only_the_newest_segments_tail() {
    let trace = synth_trace(35, 2, 80);
    let base = tmp("crash-seg");
    let mut w = RotatingWriter::create(
        &base,
        &trace.program,
        StoreOptions { chunk_events: 8 },
        RotationPolicy::by_events(50),
        RetentionPolicy::default(),
    )
    .unwrap();
    w.set_functions(trace.functions.clone());
    for ev in &trace.events {
        w.append(ev);
    }
    let stats = w.finish().unwrap();
    assert!(stats.segments.len() >= 2);

    // Tear the newest segment inside its last chunk's payload (as if
    // the process died mid-flush): that chunk and the footer are lost.
    let newest = stats.segments.last().unwrap();
    let last_chunk_end = {
        let r = StoreReader::open(newest).unwrap();
        r.chunks()
            .iter()
            .map(|m| m.offset + CHUNK_HDR + m.enc_len as u64)
            .max()
            .unwrap()
    };
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(newest)
        .unwrap();
    f.set_len(last_chunk_end - 5).unwrap();
    f.flush().unwrap();
    drop(f);

    // Sealed segments open plainly; the family salvages as a whole.
    for p in &stats.segments[..stats.segments.len() - 1] {
        StoreReader::open(p).unwrap();
    }
    assert!(StoreReader::open(newest).is_err());
    let mut newest_r = StoreReader::open_salvage(newest).unwrap();
    let newest_events = newest_r.read_all().unwrap().events.len();

    let mut set = SegmentSet::open_salvage(&base).unwrap();
    let mut total = 0usize;
    set.query(None, None, &mut |_| total += 1).unwrap();
    let sealed_events: usize = stats.segments[..stats.segments.len() - 1]
        .iter()
        .map(|p| StoreReader::open(p).unwrap().info().events as usize)
        .sum();
    assert_eq!(total, sealed_events + newest_events);
    assert!(total < trace.events.len(), "the torn tail was dropped");
    assert!(
        set.salvage().is_some(),
        "the family reports the newest member's salvage"
    );
    for p in stats.segments.iter() {
        std::fs::remove_file(p).ok();
    }
}

/// A 4-rank sweep3d session captured live through a rotating writer.
fn live_rotating_capture(
    base: &std::path::Path,
    rotation: RotationPolicy,
    retention: RetentionPolicy,
) -> dynprof::analysis::store::SegmentStats {
    let app = test_app("sweep3d", 4).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(35);
    let opts = StoreOptions { chunk_events: 16 };
    let w = RotatingWriter::create(base, &app.name, opts, rotation, retention).unwrap();
    let slot = Arc::new(Mutex::new(Some(w)));
    run_session(&app, cfg.with_capture(Arc::clone(&slot) as _));
    let w = slot.lock().unwrap().take().expect("the sink comes back");
    w.finish().unwrap()
}

/// Fed live, a rotating capture's segments are slices of the run's *time*
/// across all ranks (a post-run flush, rank by rank, made them slices of
/// the rank list): the `[min_t, max_end]` envelopes never step backwards
/// from one member to the next, and `keep=2` retains the end of the run
/// for every rank.
#[test]
fn live_rotation_slices_time_and_retention_keeps_the_end_of_the_run() {
    // The buffered reference: what each rank recorded, first to last.
    let app = test_app("sweep3d", 4).unwrap();
    let cfg = SessionConfig::new(Machine::ibm_power3_colony(), Policy::Full).with_seed(35);
    let buffered = run_session(&app, cfg);
    let per_rank: Vec<Vec<Event>> = (0..4)
        .map(|r| buffered.vt.with_rank_events(r, <[Event]>::to_vec))
        .collect();
    let total: usize = per_rank.iter().map(Vec::len).sum();
    let rotation = RotationPolicy::by_events(total as u64 / 6);

    // Keep everything: the family is the whole run, in time order.
    let base = tmp("live-rot");
    let stats = live_rotating_capture(&base, rotation, RetentionPolicy::default());
    assert!(stats.segments.len() >= 5, "{stats:?}");
    assert_eq!(stats.events as usize, total);
    let envelopes: Vec<(SimTime, SimTime)> = stats
        .segments
        .iter()
        .map(|p| {
            let r = StoreReader::open(p).unwrap();
            assert_eq!(r.ranks(), [0, 1, 2, 3], "every segment spans every rank");
            let info = r.info();
            (info.t_min, info.t_end)
        })
        .collect();
    for w in envelopes.windows(2) {
        assert!(
            w[0].0 <= w[1].0 && w[0].1 <= w[1].1,
            "segment envelopes must not step backwards: {envelopes:?}"
        );
    }
    let mut set = SegmentSet::open(&base).unwrap();
    for (rank, expect) in per_rank.iter().enumerate() {
        let mut got = Vec::new();
        set.query(None, Some(rank as u32), &mut |ev| got.push(ev.clone()))
            .unwrap();
        assert_eq!(&got, expect, "rank {rank}: the family replays the run");
    }
    for p in &stats.segments {
        std::fs::remove_file(p).ok();
    }

    // keep=2: the flight recorder holds the *end* of the run, every rank's.
    let base = tmp("live-keep");
    let stats = live_rotating_capture(&base, rotation, RetentionPolicy::keep_last(2));
    assert!(stats.deleted >= 3, "{stats:?}");
    assert_eq!(stats.segments.len(), 2);
    let mut set = SegmentSet::open(&base).unwrap();
    assert_eq!(set.source_ranks(), [0, 1, 2, 3]);
    for (rank, expect) in per_rank.iter().enumerate() {
        let mut got = Vec::new();
        set.query(None, Some(rank as u32), &mut |ev| got.push(ev.clone()))
            .unwrap();
        assert!(!got.is_empty() && got.len() < expect.len(), "rank {rank}");
        assert_eq!(
            got,
            expect[expect.len() - got.len()..],
            "rank {rank}: retained events are the tail of its run"
        );
    }
    for p in &stats.segments {
        std::fs::remove_file(p).ok();
    }
}
