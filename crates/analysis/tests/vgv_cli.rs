//! The `vgv` binary at its process boundary: what it does when its
//! standard output goes away or fills up, how it opens what it is given,
//! what `convert` writes, and how it exits on input it cannot use.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use dynprof_analysis::store::{
    EventSource, RetentionPolicy, RotatingWriter, RotationPolicy, SegmentSet, StoreOptions,
    StoreReader, StoreWriter, UNKNOWN_FUNC,
};
use dynprof_analysis::{Profile, ProfileOptions, TraceError};
use dynprof_sim::SimTime;
use dynprof_vt::{Event, VtFuncId};

const RANKS: u32 = 160;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dynprof-vgv-cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.vgvs", std::process::id()))
}

/// Rank `rank`'s one event: a send to its neighbour.
fn send(rank: u32) -> Event {
    Event::MpiCall {
        t: SimTime::from_micros(10),
        t_end: SimTime::from_micros(90),
        rank,
        op: 2,
        peer: ((rank + 1) % RANKS) as i32,
        bytes: 4_096,
    }
}

/// A store whose `comm` and `slice` reports are both far larger than a
/// pipe's buffer (64 KB): 160 ranks, each sending to its neighbour.
fn store(name: &str) -> PathBuf {
    let path = tmp(name);
    let mut w = StoreWriter::create(&path, "cli", StoreOptions::default()).unwrap();
    for rank in 0..RANKS {
        w.append(&send(rank));
    }
    w.finish().unwrap();
    path
}

/// Run `vgv` to completion, capturing both output streams.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vgv"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("vgv runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn vgv(args: &[&str], stdout: Stdio) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vgv"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("vgv starts");
    // Close our end of a piped stdout without reading a byte: the report
    // outgrows the pipe, so the child must meet the closed pipe.
    drop(child.stdout.take());
    child.wait_with_output().expect("vgv exits")
}

fn slice_args(path: &str) -> [&str; 8] {
    // 160 rows of 1000 columns.
    [
        "slice", path, "--t0", "0", "--t1", "100us", "--width", "1000",
    ]
}

#[test]
fn a_closed_pipe_ends_the_report_quietly() {
    let path = store("pipe");
    let path_str = path.to_str().unwrap();
    for args in [&["comm", path_str][..], &slice_args(path_str)[..]] {
        let out = vgv(args, Stdio::piped());
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(out.stderr.is_empty(), "{args:?}: no message, no backtrace");
    }
    std::fs::remove_file(&path).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_device_is_a_typed_error() {
    let path = store("full");
    let path_str = path.to_str().unwrap();
    for args in [&["comm", path_str][..], &slice_args(path_str)[..]] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let out = vgv(args, Stdio::from(full));
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("vgv: {path_str}: trace i/o error")),
            "{args:?}: {stderr}"
        );
        assert_eq!(
            stderr.lines().count(),
            1,
            "one line, no backtrace: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// `view` and `convert` open a footer-less capture with `--salvage`, as
/// every other store command does, and refuse it without.
#[test]
fn view_and_convert_salvage_a_footerless_store() {
    let path = store("footerless");
    let data_end = StoreReader::open(&path)
        .unwrap()
        .chunks()
        .iter()
        .map(|c| c.offset + 40 + c.enc_len as u64)
        .max()
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..data_end as usize]).unwrap();
    let (cut, copy) = (path.to_str().unwrap(), tmp("footerless-copy"));
    let copy = copy.to_str().unwrap();

    for args in [&["view", cut][..], &["convert", cut, copy][..]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(stderr(&out).contains("truncated store footer"), "{out:?}");
    }
    let view = run(&["view", cut, "--salvage"]);
    assert_eq!(view.status.code(), Some(0), "{view:?}");
    let text = String::from_utf8_lossy(&view.stdout);
    assert!(text.contains(&format!("\n{RANKS} events, ")), "{text}");
    let convert = run(&["convert", cut, copy, "--salvage"]);
    assert_eq!(convert.status.code(), Some(0), "{convert:?}");
    assert_eq!(StoreReader::open(copy).unwrap().info().events, RANKS as u64);
    for p in [cut, copy] {
        std::fs::remove_file(p).ok();
    }
}

/// `view` reads a rotated `run.NNNN.vgvs` family as the one store it was
/// cut from: the same bytes out.
#[test]
fn view_reads_a_rotated_family_as_one_store() {
    let whole = store("whole");
    let base = tmp("family");
    let mut w = RotatingWriter::create(
        &base,
        "cli",
        StoreOptions::default(),
        RotationPolicy::by_events(RANKS as u64 / 2),
        RetentionPolicy::default(),
    )
    .unwrap();
    for rank in 0..RANKS {
        w.append(&send(rank));
    }
    let segments = w.finish().unwrap().segments;
    assert_eq!(segments.len(), 2);

    let family = run(&["view", base.to_str().unwrap()]);
    assert_eq!(family.status.code(), Some(0), "{family:?}");
    let one = run(&["view", whole.to_str().unwrap()]);
    assert_eq!(one.status.code(), Some(0), "{one:?}");
    assert_eq!(family.stdout, one.stdout);
    for p in segments.iter().chain([&whole]) {
        std::fs::remove_file(p).ok();
    }
}

/// A flat trace file, in the format the store replaced, is not a store:
/// one line naming the file, exit 1.
#[test]
fn a_flat_trace_is_bad_magic() {
    let path = tmp("flat");
    std::fs::write(&path, b"VGVT\x01\x00\x03\x00\x00\x00cli\x00\x00\x00\x00").unwrap();
    let (name, out_path) = (path.to_str().unwrap(), tmp("flat-out"));
    let copy = out_path.to_str().unwrap();
    for args in [
        &["view", name][..],
        &["info", name],
        &["convert", name, copy],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(
            stderr(&out),
            format!("vgv: {name}: bad magic (not a VGVS store)\n"),
            "{args:?}"
        );
    }
    assert!(
        !out_path.exists(),
        "nothing is written from a file that is not a store"
    );
    std::fs::remove_file(&path).ok();
}

/// A flag value that does not parse — a count that is not a number, a
/// time that is not finite — is a usage error: one line, exit 2.
#[test]
fn malformed_flag_values_are_usage_errors() {
    let path = store("flags");
    let name = path.to_str().unwrap();
    let slice = |t0: &str| run(&["slice", name, "--t0", t0, "--t1", "1ms"]);
    for (out, flag) in [
        (run(&["top", name, "--top", "x"]), "--top"),
        (run(&["view", name, "--width", "-1"]), "--width"),
        (
            run(&["slice", name, "--t0", "0", "--t1", "1ms", "--rank", "r"]),
            "--rank",
        ),
        (slice("bad"), "--t0"),
        (slice("nan"), "--t0"),
        (slice("inf"), "--t0"),
        (slice("1e400"), "--t0"),
        (slice("1e300s"), "--t0"),
        (slice("-1us"), "--t0"),
    ] {
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let err = stderr(&out);
        assert!(err.starts_with(&format!("vgv: {flag}: ")), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
    }
    assert_eq!(slice("2.5ms").status.code(), Some(0));
    std::fs::remove_file(&path).ok();
}

/// Write `events` as member `n` of the family `base`, with dictionary
/// `names`. Returns the member's path.
fn write_member(base: &Path, n: usize, names: &[&str], events: &[Event], chunks: usize) -> PathBuf {
    let stem = base.file_stem().unwrap().to_str().unwrap();
    let path = base.with_file_name(format!("{stem}.{n:04}.vgvs"));
    let chunk_events = chunks;
    let mut w = StoreWriter::create(&path, "segmented", StoreOptions { chunk_events }).unwrap();
    w.set_functions(names.iter().map(|s| s.to_string()).collect());
    events.iter().for_each(|ev| w.append(ev));
    w.finish().unwrap();
    path
}

/// `vgv convert` the family `base` into a new store.
fn convert(base: &Path, chunk_events: &str) -> (Output, PathBuf) {
    let out = base.with_extension("converted.vgvs");
    let (from, to) = (base.to_str().unwrap(), out.to_str().unwrap());
    (
        run(&["convert", from, to, "--chunk-events", chunk_events]),
        out,
    )
}

/// A segment family and the one store `vgv convert` writes from it both
/// union the members' dictionaries by name: every call keeps its name,
/// and an id no member defined stays unknown instead of borrowing
/// another's name (the family half of that is in `tests/trace_store.rs`).
#[test]
fn convert_merges_a_family_and_remaps_dictionaries() {
    // Three per-rank-group members with different dictionary orders.
    let base = tmp("segmented");
    let mut paths = Vec::new();
    for (i, names) in [["alpha", "beta"], ["beta", "gamma"], ["gamma", "alpha"]]
        .into_iter()
        .enumerate()
    {
        let (rank, us) = (i as u32, SimTime::from_micros);
        let pair = |k: u64| {
            let (t, func) = (100 * k + i as u64, VtFuncId(k as u32 % 2));
            [
                Event::FuncEnter {
                    t: us(t),
                    rank,
                    thread: 0,
                    func,
                },
                Event::FuncExit {
                    t: us(t + 30),
                    rank,
                    thread: 0,
                    func,
                },
            ]
        };
        let events: Vec<Event> = (0..20).flat_map(pair).collect();
        paths.push(write_member(&base, i, &names, &events, 8));
    }
    let (done, out) = convert(&base, "32");
    assert_eq!(done.status.code(), Some(0), "{done:?}");
    let mut set = SegmentSet::open(&base).unwrap();
    let mut copy = StoreReader::open(&out).unwrap();
    for (source, how) in [
        (&mut set as &mut dyn EventSource, "family"),
        (&mut copy, "converted"),
    ] {
        assert_eq!(source.source_info().events, 3 * 40, "{how}");
        assert_eq!(source.source_ranks(), [0, 1, 2], "{how}");
        // Every member called its dictionary's functions 10 times each;
        // after remapping, per-name call counts must survive.
        let profile = Profile::from_store(source, ProfileOptions::default()).unwrap();
        for name in ["alpha", "beta", "gamma"] {
            let id = profile.functions.iter().position(|n| n == name);
            let id = VtFuncId(id.unwrap_or_else(|| panic!("{how}: no {name}")) as u32);
            assert_eq!(profile.aggregate(id).count, 20, "{how}: {name}");
        }
    }

    // The first member defines two names, the second one — but calls id 1
    // as well, which it never defined and which is "beta" in the union.
    let base = tmp("undefined-id");
    let batches = |rank: u32, calls: &[u32]| -> Vec<Event> {
        let batch = |(i, &func): (usize, &u32)| Event::FuncBatch {
            t: SimTime::from_micros(10 * i as u64),
            rank,
            thread: 0,
            func: VtFuncId(func),
            count: 1,
            span: SimTime::from_micros(5),
        };
        calls.iter().enumerate().map(batch).collect()
    };
    paths.push(write_member(
        &base,
        0,
        &["alpha", "beta"],
        &batches(0, &[0, 1, 1]),
        64,
    ));
    paths.push(write_member(
        &base,
        1,
        &["gamma"],
        &batches(1, &[0, 1, 1, 1, 1]),
        64,
    ));
    let (done, union) = convert(&base, "64");
    assert_eq!(done.status.code(), Some(0), "{done:?}");
    let mut r = StoreReader::open(&union).unwrap();
    let profile = Profile::from_store(&mut r, ProfileOptions::default()).unwrap();
    assert_eq!(profile.functions, ["alpha", "beta", "gamma"]);
    let calls = |id: VtFuncId| profile.aggregate(id).count;
    assert_eq!(calls(VtFuncId(0)), 1, "alpha");
    assert_eq!(calls(VtFuncId(1)), 2, "beta keeps only its own calls");
    assert_eq!(calls(VtFuncId(2)), 1, "gamma");
    assert_eq!(calls(UNKNOWN_FUNC), 4, "the undefined id");
    assert_eq!(profile.name(UNKNOWN_FUNC), "<unknown>");
    for p in paths.iter().chain([&out, &union]) {
        std::fs::remove_file(p).ok();
    }
}

/// A family re-verifies every member chunk's CRC-32 as it is read, and
/// `vgv convert` checksums what it writes afresh: a corrupt member fails
/// a family query with the typed error, and the conversion with its
/// message, exit 1.
#[test]
fn convert_reverifies_and_rewrites_crcs() {
    let base = tmp("crc-family");
    let sends = |from: u32| -> Vec<Event> {
        let rank = |r| (0..40).map(move |_| send(r));
        (from..from + 2).flat_map(rank).collect()
    };
    let p1 = write_member(&base, 0, &[], &sends(0), 16);
    let p2 = write_member(&base, 1, &[], &sends(2), 16);
    let all = SegmentSet::open(&base).unwrap();
    let events = all.source_info().events;
    assert_eq!(events, 4 * 40);
    let (done, out) = convert(&base, "64");
    assert_eq!(done.status.code(), Some(0), "{done:?}");
    let mut r = StoreReader::open(&out).unwrap();
    assert!(r.chunks().iter().all(|m| m.crc != 0));
    // Every output chunk re-verifies against its fresh CRC.
    for i in 0..r.chunks().len() {
        r.read_chunk(i).unwrap();
    }
    assert_eq!(r.info().events, events);

    // A corrupt member payload fails with the typed error — corruption
    // cannot flow silently out of a family or into a converted store.
    let chunk0 = StoreReader::open(&p1).unwrap().chunks()[0];
    let mut bad = std::fs::read(&p1).unwrap();
    bad[chunk0.offset as usize + 40] ^= 0xff;
    std::fs::write(&p1, &bad).unwrap();
    let query = SegmentSet::open(&base)
        .unwrap()
        .query(None, None, &mut |_| {});
    assert!(matches!(
        query,
        Err(TraceError::ChecksumMismatch { index: 0 })
    ));
    let (failed, _) = convert(&base, "64");
    assert_eq!(failed.status.code(), Some(1), "{failed:?}");
    assert_eq!(
        stderr(&failed),
        format!("vgv: {}: {}\n", base.display(), query.unwrap_err())
    );
    for p in [p1, p2, out] {
        std::fs::remove_file(&p).ok();
    }
}
