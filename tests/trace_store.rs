//! Integration tests of the chunk-indexed `VGVS` trace store: seeded
//! round-trip properties, byte-identical determinism, index-driven chunk
//! skipping at 1k-rank scale with bounded-memory witnesses, corruption
//! boundaries, and golden `vgv` report outputs. (The store's
//! obs counters are tested in `tests/observability.rs`.)
//!
//! Goldens live in `tests/golden/`; regenerate intentional changes with
//! `UPDATE_GOLDENS=1 cargo test --test trace_store golden_`.

mod common;

use common::{check_golden, synth_trace, tmp};
use dynprof::analysis::store::{
    crc32, event_overlaps, fsck, repair, write_store_from_trace, Crc32, SegmentSet, StoreOptions,
    StoreReader, StoreWriter, UNKNOWN_FUNC,
};
use dynprof::analysis::{
    comm_report, info_report, ranks_report, slice_report, top_report, CommStats, Profile,
    ProfileOptions, TraceError,
};
use dynprof::sim::SimTime;
use dynprof::vt::{Event, Trace, VtFuncId};

/// The reference ordering [`StoreReader::read_all`] promises: stable
/// `(time, rank)` sort over the writer's input order.
fn reference_sorted(trace: &Trace) -> Trace {
    let mut t = trace.clone();
    t.events.sort_by_key(|e| (e.time(), e.rank()));
    t
}

#[test]
fn seeded_round_trip_matches_reference() {
    for seed in [1u64, 7, 42] {
        let trace = synth_trace(seed, 8, 200);
        let path = tmp(&format!("rt-{seed}"));
        let stats =
            write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 64 }).unwrap();
        assert_eq!(stats.events as usize, trace.events.len());
        assert!(stats.chunks > 8, "chunking actually happened (seed {seed})");

        let mut r = StoreReader::open(&path).unwrap();
        assert_eq!(
            r.read_all().unwrap(),
            reference_sorted(&trace),
            "seed {seed}"
        );

        // Streaming analyses agree with the in-memory reference.
        let from_store = Profile::from_store(&mut r, ProfileOptions::default()).unwrap();
        let from_trace = Profile::from_trace(&trace);
        assert_eq!(from_store.per_rank, from_trace.per_rank, "seed {seed}");
        let comm_store = CommStats::from_store(&mut r).unwrap();
        let comm_trace = CommStats::from_trace(&trace);
        assert_eq!(comm_store, comm_trace, "seed {seed}");
        assert!(comm_store.has_traffic(), "seed {seed}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn suspension_exclusion_agrees_between_paths() {
    let trace = synth_trace(5, 6, 150);
    let path = tmp("suspend");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 32 }).unwrap();
    let opts = ProfileOptions {
        exclude_suspensions: true,
    };
    let mut r = StoreReader::open(&path).unwrap();
    let from_store = Profile::from_store(&mut r, opts).unwrap();
    let from_trace = Profile::from_trace_opts(&trace, opts);
    assert_eq!(from_store.per_rank, from_trace.per_rank);
    std::fs::remove_file(&path).ok();
}

#[test]
fn store_files_are_byte_identical_for_same_seed() {
    let opts = StoreOptions { chunk_events: 48 };
    let (a, b, c) = (tmp("det-a"), tmp("det-b"), tmp("det-c"));
    write_store_from_trace(&synth_trace(9, 10, 120), &a, opts).unwrap();
    write_store_from_trace(&synth_trace(9, 10, 120), &b, opts).unwrap();
    write_store_from_trace(&synth_trace(10, 10, 120), &c, opts).unwrap();
    let (ba, bb, bc) = (
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        std::fs::read(&c).unwrap(),
    );
    assert_eq!(ba, bb, "same seed must produce byte-identical stores");
    assert_ne!(ba, bc, "different seed must differ");
    for p in [a, b, c] {
        std::fs::remove_file(&p).ok();
    }
}

/// The acceptance-criteria test: on a 1k-rank synthetic trace, a narrow
/// `slice` decodes only the chunks overlapping the window — witnessed by
/// `chunks_skipped`, by the reader's peak chunk allocation, and by the
/// writer's peak buffer — and returns exactly what the in-memory
/// reference computes.
#[test]
fn thousand_rank_slice_decodes_only_overlapping_chunks() {
    let ranks = 1_000u32;
    let trace = synth_trace(42, ranks, 40);
    let path = tmp("kilo");
    let opts = StoreOptions { chunk_events: 16 };
    let stats = write_store_from_trace(&trace, &path, opts).unwrap();

    // Writer memory: one open chunk per rank, not the whole trace.
    // 16 events at ≤ ~40 encoded bytes each per rank.
    assert!(
        stats.peak_buffered_bytes <= ranks as usize * opts.chunk_events * 40,
        "writer buffer must be O(ranks x chunk): {}",
        stats.peak_buffered_bytes
    );
    assert!(
        (stats.peak_buffered_bytes as u64) < stats.bytes / 2,
        "writer never held anything close to the whole file: {} of {}",
        stats.peak_buffered_bytes,
        stats.bytes
    );

    let mut r = StoreReader::open(&path).unwrap();
    let info = r.info();
    assert_eq!(info.ranks as u32, ranks);

    // A window around the middle fifth of the trace.
    let span = info.t_end.saturating_sub(info.t_min);
    let t0 = info.t_min + span * 2 / 5;
    let t1 = info.t_min + span * 3 / 5;
    let mut streamed: Vec<Event> = Vec::new();
    let q = r
        .for_each_query(Some((t0, t1)), None, |ev| streamed.push(ev.clone()))
        .unwrap();
    assert!(
        q.chunks_skipped > 0,
        "index must prune non-overlapping chunks: {q:?}"
    );
    assert_eq!(q.chunks_considered, info.chunks);
    assert_eq!(
        q.chunks_decoded + q.chunks_skipped,
        q.chunks_considered,
        "{q:?}"
    );
    assert!(q.chunks_decoded < info.chunks, "{q:?}");

    // Reader memory: one chunk at a time, never the trace.
    assert!(
        r.peak_chunk_bytes() <= opts.chunk_events * 64,
        "reader decode buffer must be O(chunk): {}",
        r.peak_chunk_bytes()
    );
    assert!(
        (r.peak_chunk_bytes() as u64) < info.file_bytes / 100,
        "peak chunk {} vs file {}",
        r.peak_chunk_bytes(),
        info.file_bytes
    );

    // Identical results to the in-memory reference.
    let mut reference: Vec<Event> = trace
        .events
        .iter()
        .filter(|ev| event_overlaps(ev, t0, t1))
        .cloned()
        .collect();
    let key = |e: &Event| (e.time(), e.rank(), format!("{e:?}"));
    reference.sort_by_key(key);
    streamed.sort_by_key(key);
    assert_eq!(streamed, reference, "windowed query differs from reference");

    // Rank filter composes with the window.
    let mut only_7 = 0u64;
    let q7 = r
        .for_each_query(Some((t0, t1)), Some(7), |ev| {
            assert_eq!(ev.rank(), 7);
            only_7 += 1;
        })
        .unwrap();
    assert_eq!(q7.events, only_7);
    let expected_7 = reference.iter().filter(|e| e.rank() == 7).count() as u64;
    assert_eq!(only_7, expected_7);

    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_stores_fail_with_typed_errors() {
    let trace = synth_trace(3, 2, 40);
    let path = tmp("corrupt");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 16 }).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Shorter than the 8-byte header.
    std::fs::write(&path, &good[..4]).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(TraceError::TruncatedHeader)
    ));

    // Wrong magic.
    let mut bad = good.clone();
    bad[..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(TraceError::BadMagic)
    ));

    // Unsupported versions: the retired v2 and v3, and one never written.
    for version in [2u16, 3, 0xffff] {
        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(
            matches!(
                StoreReader::open(&path),
                Err(TraceError::UnsupportedVersion(v)) if v == version
            ),
            "v{version}"
        );
    }

    // Footer cut off (e.g. the writer died before finish()).
    std::fs::write(&path, &good[..good.len() - 10]).unwrap();
    assert!(matches!(
        StoreReader::open(&path),
        Err(TraceError::TruncatedFooter)
    ));

    // Chunk disk header disagrees with the footer index: open succeeds
    // (the index parses), but reading the chunk is a typed ShortChunk.
    std::fs::write(&path, &good).unwrap();
    let chunk0 = StoreReader::open(&path).unwrap().chunks()[0].offset as usize;
    let mut bad = good.clone();
    // Corrupt the first chunk's count field (header bytes 4..8).
    bad[chunk0 + 4] ^= 0xff;
    std::fs::write(&path, &bad).unwrap();
    let mut r = StoreReader::open(&path).unwrap();
    assert!(matches!(
        r.for_each_query(None, None, |_| {}),
        Err(TraceError::ShortChunk { index: 0 })
    ));

    // Payload corruption leaves header and index agreeing — only the
    // CRC-32 can catch it, as a typed ChecksumMismatch.
    let mut bad = good.clone();
    bad[chunk0 + 40] ^= 0xff; // first payload byte (v2 header is 40B)
    std::fs::write(&path, &bad).unwrap();
    let mut r = StoreReader::open(&path).unwrap();
    assert!(matches!(
        r.for_each_query(None, None, |_| {}),
        Err(TraceError::ChecksumMismatch { index: 0 })
    ));

    // Degraded mode turns that hard error into an accounted skip.
    let mut r = StoreReader::open(&path).unwrap();
    r.set_degraded(true);
    let lost = r.chunks()[0].count as u64;
    let stats = r.for_each_query(None, None, |_| {}).unwrap();
    assert_eq!(stats.chunks_bad, 1, "{stats:?}");
    assert_eq!(stats.events_lost, lost, "{stats:?}");
    assert_eq!(r.dropped_chunks(), 1);
    assert_eq!(r.dropped_events(), lost);

    // Either copy of a chunk's CRC disagreeing with its bytes condemns the
    // chunk: the chunk header's (bytes 12..16), or its footer index
    // entry's (bytes 20..24 of the 48-byte entries that end the footer).
    // The footer CRC is re-sealed over the changed entry, so `open` reads
    // the index instead of failing over to the forward scan.
    let chunks = r.chunks().len();
    let end = good.len() - 18;
    let footer = end - u64::from_le_bytes(good[end..end + 8].try_into().unwrap()) as usize;
    let entry0 = end - chunks * 48;
    let mut header_crc = good.clone();
    header_crc[chunk0 + 12] ^= 0xff;
    let mut entry_crc = good.clone();
    entry_crc[entry0 + 20] ^= 0xff;
    let footer_crc = crc32(&entry_crc[footer..end]);
    entry_crc[end + 8..end + 12].copy_from_slice(&footer_crc.to_le_bytes());
    for (case, bad) in [("chunk header", header_crc), ("index entry", entry_crc)] {
        std::fs::write(&path, &bad).unwrap();
        let mut r = StoreReader::open(&path).unwrap();
        assert!(
            matches!(
                r.read_chunk(0),
                Err(TraceError::ChecksumMismatch { index: 0 })
            ),
            "{case}"
        );
        let report = fsck(&path).unwrap();
        assert_eq!(report.chunks_ok, chunks - 1, "{case}");
        assert_eq!(report.faults.len(), 1, "{case}");
        assert_eq!(report.faults[0].index, 0, "{case}");
        let mut salvaged = StoreReader::open_salvage(&path).unwrap();
        salvaged.set_degraded(true);
        let mut seen = 0;
        let stats = salvaged.for_each_query(None, None, |_| seen += 1).unwrap();
        assert_eq!((stats.chunks_bad, stats.events_lost), (1, lost), "{case}");
        assert_eq!(seen, trace.events.len() as u64 - lost, "{case}");
    }

    std::fs::remove_file(&path).ok();
}

// ---- golden `vgv` report outputs ------------------------------------

/// `name` keeps the two golden tests, which run concurrently, off one file.
fn golden_store(name: &str) -> std::path::PathBuf {
    let path = tmp(name);
    write_store_from_trace(
        &synth_trace(42, 4, 60),
        &path,
        StoreOptions { chunk_events: 32 },
    )
    .unwrap();
    path
}

#[test]
fn golden_vgv_top() {
    let path = golden_store("golden-top");
    let mut r = StoreReader::open(&path).unwrap();
    let report = top_report(&mut r, 10, ProfileOptions::default()).unwrap();
    check_golden("vgv_top.txt", &report);
    std::fs::remove_file(&path).ok();
}

#[test]
fn golden_vgv_slice() {
    let path = golden_store("golden-slice");
    let mut r = StoreReader::open(&path).unwrap();
    let info = r.info();
    let span = info.t_end.saturating_sub(info.t_min);
    let t0 = info.t_min + span / 4;
    let t1 = info.t_min + span / 2;
    let (report, stats) = slice_report(&mut r, t0, t1, None, 64).unwrap();
    assert!(stats.chunks_skipped > 0, "{stats:?}");
    check_golden("vgv_slice.txt", &report);
    std::fs::remove_file(&path).ok();
}

/// `vgv comm` pinned on the shapes the matrix renderer has to get right:
/// non-contiguous rank ids (one beyond the dense bound), a receive-only
/// rank (7), a receiver that recorded nothing (5), a collective-only rank
/// (9, absent from the matrix), a send to `MPI_PROC_NULL`, and a cell wider
/// than its 12-column field. The golden was written by the renderer this
/// one replaced.
#[test]
fn golden_vgv_comm() {
    let us = SimTime::from_micros;
    let mpi = |rank: u32, at: u64, op: u8, peer: i32, bytes: u64| Event::MpiCall {
        t: us(at),
        t_end: us(at + 7 + u64::from(op)),
        rank,
        op,
        peer,
        bytes,
    };
    let trace = Trace {
        program: "comm".into(),
        functions: vec![],
        events: vec![
            mpi(0, 10, 2, 3, 4_096),
            mpi(0, 30, 2, 7, 1_234_567_890_123),
            mpi(0, 50, 2, 3, 904),
            mpi(0, 70, 2, -1, 64),
            mpi(0, 90, 7, -1, 8),
            mpi(3, 10, 3, 0, 4_096),
            mpi(3, 40, 2, 0, 17),
            mpi(3, 60, 2, 200, 999_999_999_999),
            mpi(3, 80, 2, 5, 1),
            mpi(7, 30, 3, 0, 1_234_567_890_123),
            mpi(9, 20, 4, -1, 0),
            mpi(9, 90, 7, -1, 8),
            mpi(200, 60, 3, 3, 999_999_999_999),
            mpi(200, 95, 2, 70_000, 65_536),
            mpi(70_000, 99, 2, 0, 12),
            mpi(70_000, 120, 11, -1, 0),
        ],
    };
    let path = tmp("golden-comm");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 2 }).unwrap();
    let mut r = StoreReader::open(&path).unwrap();
    check_golden("vgv_comm.txt", &comm_report(&mut r).unwrap());
    std::fs::remove_file(&path).ok();
}

/// A chunk is delivered whole or not at all: one malformed event in the
/// middle of a chunk means no callback for the intact events before it
/// either, strict or degraded. The damage is re-sealed under fresh CRCs —
/// the chunk header's, its index entry's and the footer's — so that the
/// decoder, not the checksum, is what rejects the chunk.
#[test]
fn corrupt_event_mid_chunk_yields_nothing_from_that_chunk() {
    // Three bytes an event (kind, 1-byte delta, 1-byte epoch), five events
    // a chunk, three chunks a rank.
    let event = |rank: u32, i: u64| Event::ConfSync {
        t: SimTime::from_nanos(i),
        rank,
        epoch: i as u32,
    };
    let trace = Trace {
        program: "mid".into(),
        functions: vec![],
        events: (0..3)
            .flat_map(|rank| (0..15).map(move |i| event(rank, i)))
            .collect(),
    };
    let path = tmp("mid-chunk");
    write_store_from_trace(&trace, &path, StoreOptions { chunk_events: 5 }).unwrap();
    let clean = StoreReader::open(&path).unwrap();
    let bad_chunk = 4; // rank 1's middle chunk
    let meta = clean.chunks()[bad_chunk];
    assert_eq!((meta.rank, meta.count, meta.enc_len), (1, 5, 15));
    drop(clean);
    let mut bytes = std::fs::read(&path).unwrap();
    let chunk = meta.offset as usize;
    bytes[chunk + 40 + 2 * 3] = 99; // third event's kind, past the 40-byte header
                                    // The chunk CRC covers the header's other 36 bytes, then the payload.
    let crc = Crc32::new()
        .update(&bytes[chunk..chunk + 12])
        .update(&bytes[chunk + 16..chunk + 40 + 15])
        .finish();
    bytes[chunk + 12..chunk + 16].copy_from_slice(&crc.to_le_bytes());
    // Trailer: footer_len u64 | footer crc u32 | magic | version. The
    // footer: program, empty dictionary, chunk count, then 48-byte entries
    // with the crc after rank, offset, enc_len and count.
    let end = bytes.len() - 18;
    let footer_len = u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap()) as usize;
    let footer = end - footer_len;
    let entry = footer + 4 + "mid".len() + 4 + 4 + bad_chunk * 48;
    assert_eq!(bytes[entry + 20..entry + 24], meta.crc.to_le_bytes());
    bytes[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
    let footer_crc = crc32(&bytes[footer..end]);
    bytes[end + 8..end + 12].copy_from_slice(&footer_crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let from_bad_chunk = |ev: &Event| ev.rank() == 1 && (5..10).contains(&ev.time().as_nanos());

    let mut strict = StoreReader::open(&path).unwrap();
    let mut seen = Vec::new();
    let err = strict.for_each_query(None, None, |ev| seen.push(ev.clone()));
    assert!(
        matches!(err, Err(TraceError::BadEvent { index: 2 })),
        "{err:?}"
    );
    assert_eq!(seen.len(), 4 * 5, "the four chunks before it, whole");
    assert!(!seen.iter().any(from_bad_chunk));
    assert!(matches!(
        strict.read_chunk(bad_chunk),
        Err(TraceError::BadEvent { index: 2 })
    ));

    let mut degraded = StoreReader::open(&path).unwrap();
    degraded.set_degraded(true);
    let mut seen = Vec::new();
    let stats = degraded
        .for_each_query(None, None, |ev| seen.push(ev.clone()))
        .unwrap();
    let want: Vec<Event> = trace
        .events
        .iter()
        .filter(|ev| !from_bad_chunk(ev))
        .cloned()
        .collect();
    assert_eq!(seen, want, "every other chunk, whole and in file order");
    assert_eq!(
        (
            stats.chunks_considered,
            stats.chunks_decoded,
            stats.chunks_skipped
        ),
        (9, 8, 0),
        "{stats:?}"
    );
    assert_eq!((stats.chunks_bad, stats.events_lost), (1, 5), "{stats:?}");
    assert_eq!(stats.events, 40, "{stats:?}");
    assert_eq!(
        (degraded.dropped_chunks(), degraded.dropped_events()),
        (1, 5)
    );
    assert_eq!(degraded.peak_chunk_bytes(), 15, "the largest payload read");
    std::fs::remove_file(&path).ok();
}

/// A function id its own store never defined must not borrow another
/// member's name when dictionaries are unioned: a segment family reads it
/// as `<unknown>` (and so does the store `vgv convert` writes from the
/// family, in `crates/analysis/tests/vgv_cli.rs`).
#[test]
fn undefined_function_ids_stay_unknown_across_a_union() {
    // The family `base` names: base.0000.vgvs defines two names, and
    // base.0001.vgvs one — but calls id 1 as well, which it never defined
    // and which is "beta" in the union.
    let base = tmp("undefined-id");
    let stem = base.file_stem().unwrap().to_str().unwrap();
    let seg = |n: usize| base.with_file_name(format!("{stem}.{n:04}.vgvs"));
    let write = |path: &std::path::Path, names: &[&str], rank: u32, calls: &[u32]| {
        let mut w = StoreWriter::create(path, "union", StoreOptions::default()).unwrap();
        w.set_functions(names.iter().map(|s| s.to_string()).collect());
        for (i, &func) in calls.iter().enumerate() {
            let t = SimTime::from_micros(10 * i as u64);
            w.append(&Event::FuncBatch {
                t,
                rank,
                thread: 0,
                func: VtFuncId(func),
                count: 1,
                span: SimTime::from_micros(5),
            });
        }
        w.finish().unwrap();
    };
    write(&seg(0), &["alpha", "beta"], 0, &[0, 1, 1]);
    write(&seg(1), &["gamma"], 1, &[0, 1, 1, 1, 1]);

    let mut set = SegmentSet::open(&base).unwrap();
    assert_eq!(set.len(), 2);
    let profile = Profile::from_store(&mut set, ProfileOptions::default()).unwrap();
    assert_eq!(profile.functions, ["alpha", "beta", "gamma"]);
    let calls = |id: VtFuncId| profile.aggregate(id).count;
    assert_eq!(calls(VtFuncId(0)), 1, "alpha");
    assert_eq!(calls(VtFuncId(1)), 2, "beta keeps only its own calls");
    assert_eq!(calls(VtFuncId(2)), 1, "gamma");
    assert_eq!(calls(UNKNOWN_FUNC), 4, "the undefined id");
    assert_eq!(profile.name(UNKNOWN_FUNC), "<unknown>");
    for p in [seg(0), seg(1)] {
        std::fs::remove_file(&p).ok();
    }
}

// ---- the format golden ------------------------------------------------

/// What `tests/golden/store_v4.vgvs` was written from, with
/// `chunk_events: 26`: three ranks of 38 events, two chunks a rank. The
/// first chunk holds every kind, exact repeats (the sends, the call
/// triples), Δt and duration residuals, and batches that step back in
/// time. The second is twelve ConfSyncs 5 s apart, a Δt wider than an
/// `i32`, over nine epochs that share one eight-way set: epoch 51 evicts
/// epoch 1, whose next occurrence is a literal again, while epoch 44
/// stays a tag.
fn store_v4_trace() -> Trace {
    let us = SimTime::from_micros;
    let mut events = Vec::new();
    for rank in 0..3u32 {
        let b = 100 * u64::from(rank);
        let right = ((rank + 1) % 3) as i32;
        let left = ((rank + 2) % 3) as i32;
        let send = |t: u64, dur: u64, op: u8, peer: i32| Event::MpiCall {
            t: us(b + t),
            t_end: us(b + t + dur),
            rank,
            op,
            peer,
            bytes: 4096,
        };
        let (thread, solve, leaf) = (0, VtFuncId(0), VtFuncId(1));
        let enter = |t: u64| Event::FuncEnter {
            t: us(b + t),
            rank,
            thread,
            func: solve,
        };
        let exit = |t: u64| Event::FuncExit {
            t: us(b + t),
            rank,
            thread,
            func: solve,
        };
        // `count` calls of `leaf` that ended at `t`: the batch carries its
        // start time.
        let batch = |t: u64, count: u64, span: u64| Event::FuncBatch {
            t: us(b + t - span),
            rank,
            thread,
            func: leaf,
            count,
            span: us(span),
        };
        let conf = |t: SimTime, epoch: u32| Event::ConfSync { t, rank, epoch };
        events.extend([
            conf(us(b + 1), 1),
            enter(2),
            send(3, 2, 2, right),
            send(6, 3, 3, left),
            Event::OmpFork {
                t: us(b + 10),
                rank,
                region: 1,
                team: 4,
            },
            Event::OmpThread {
                t: us(b + 10),
                t_end: us(b + 14),
                rank,
                thread: 1,
                region: 1,
            },
            Event::OmpJoin {
                t: us(b + 15),
                rank,
                region: 1,
                team: 4,
            },
            batch(15, 40, 3),
            Event::FuncSuppressed {
                t: us(b + 16),
                rank,
                thread,
                func: leaf,
                count: 7,
                span: us(1),
            },
            Event::Suspended {
                t: us(b + 17),
                t_end: us(b + 20),
                rank,
            },
            send(21, 2, 2, right),
            exit(24),
            conf(us(b + 25), 2),
        ]);
        for (t, dur) in [(1010, 2), (1020, 2), (1030, 2), (1045, 3)] {
            events.push(send(t, dur, 2, right));
        }
        for t in [1050, 1070, 1090] {
            events.extend([enter(t), batch(t, 5, 8), exit(t + 10)]);
        }
        let epochs = [1, 8, 12, 19, 26, 33, 37, 44, 1, 51, 1, 44];
        for (s, epoch) in epochs.into_iter().enumerate() {
            events.push(conf(SimTime::from_secs(5 * (s as u64 + 1)), epoch));
        }
    }
    Trace {
        program: "v4-golden".into(),
        functions: vec!["solve".into(), "leaf".into()],
        events,
    }
}

fn store_golden() -> std::path::PathBuf {
    format!("{}/tests/golden/store_v4.vgvs", env!("CARGO_MANIFEST_DIR")).into()
}

/// The format golden reads event for event and is `fsck`-clean, and
/// today's writer writes it byte for byte from the same events.
#[test]
fn store_golden_reads_as_written() {
    let path = tmp("v4-rewritten");
    write_store_from_trace(&store_v4_trace(), &path, StoreOptions { chunk_events: 26 }).unwrap();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::copy(&path, store_golden()).unwrap();
    }
    let golden = std::fs::read(store_golden()).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == golden,
        "the writer no longer writes the format golden"
    );
    std::fs::remove_file(&path).ok();

    let mut r = StoreReader::open(store_golden()).unwrap();
    assert_eq!((r.chunks().len(), r.info().events), (6, 114));
    assert_eq!(r.read_all().unwrap(), reference_sorted(&store_v4_trace()));
    assert!(info_report(&r).contains("  format:    v4 (crc32 per chunk)\n"));
    let report = fsck(store_golden()).unwrap();
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.render().starts_with(&format!(
        "fsck {}: format v4, {} bytes",
        store_golden().display(),
        golden.len()
    )));
}

/// `fsck --repair` of the undamaged format golden copies its chunks byte
/// for byte, and the copy answers every `vgv` report as the original does.
#[test]
fn repairing_a_store_keeps_every_report() {
    let (golden, out) = (store_golden(), tmp("golden-repaired"));
    let report = repair(&golden, &out).unwrap();
    assert_eq!(report.chunks_ok, 6);
    let (mut old, mut new) = (
        StoreReader::open(&golden).unwrap(),
        StoreReader::open(&out).unwrap(),
    );
    let fsck_body = |path: &std::path::Path| {
        let render = fsck(path).unwrap().render();
        render.split_once(':').unwrap().1.to_string()
    };
    assert_eq!(fsck_body(&out), fsck_body(&golden));
    assert_eq!(new.read_all().unwrap(), old.read_all().unwrap());
    assert_eq!(info_report(&new), info_report(&old));
    assert_eq!(ranks_report(&new), ranks_report(&old));
    let opts = ProfileOptions::default();
    assert_eq!(
        top_report(&mut new, 10, opts).unwrap(),
        top_report(&mut old, 10, opts).unwrap()
    );
    assert_eq!(
        comm_report(&mut new).unwrap(),
        comm_report(&mut old).unwrap()
    );
    let (t0, t1) = (old.info().t_min, old.info().t_end);
    let window = (t0, t0 + SimTime((t1.as_nanos() - t0.as_nanos()) / 2));
    for rank in [None, Some(1)] {
        assert_eq!(
            slice_report(&mut new, window.0, window.1, rank, 40).unwrap(),
            slice_report(&mut old, window.0, window.1, rank, 40).unwrap()
        );
    }
    std::fs::remove_file(&out).ok();
}
