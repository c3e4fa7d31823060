//! A text-mode stand-in for the VGV GUI (paper §3.1, Fig 4).
//!
//! ```console
//! $ vgv info run.vgvs                 # store summary (footer index only)
//! $ vgv ranks run.vgvs                # per-rank event counts and bounds
//! $ vgv top run.vgvs [--top N] [--exclude-suspensions]
//! $ vgv slice run.vgvs --t0 2ms --t1 5ms [--rank N] [--width N]
//! $ vgv comm run.vgvs                 # rank x rank byte matrix
//! $ vgv fsck run.vgvs [--repair [--out fixed.vgvs]]
//! $ vgv convert run.vgvs out.vgvs [--chunk-events N]
//! $ vgv view run.vgvs [--width N] [--per-thread] [--top N]
//! $ vgv run.vgvs                      # same as `vgv view`
//! ```
//!
//! Every subcommand reads chunk-indexed `VGVS` stores. All but `view`
//! and `convert` decode only what the query needs; `view` (whole
//! time-line, matrix and statistics) and `convert` (re-chunking) are the
//! load-everything paths. A store argument
//! names either one file or a rotated segment family (`run.vgvs` finds
//! `run.0000.vgvs`, `run.0001.vgvs`, …); `--salvage` opens crashed
//! captures without a footer, `--degraded` skips (and reports) corrupt
//! chunks instead of failing.
//!
//! Every report goes through one buffered, locked stdout. Exit status: 0
//! on success — and when the reader of a pipe closes it early
//! (`vgv comm run.vgvs | head`), which ends the report quietly; 1 on a
//! trace or write error (`vgv: <file>: <error>` on stderr) and for an
//! unclean `fsck`; 2 on a usage error, a malformed flag value included.

use std::io::{BufWriter, ErrorKind, Write};

use dynprof_analysis::store::{
    fsck, repair, write_store_from_trace, EventSource, SegmentSet, StoreOptions,
};
use dynprof_analysis::{
    info_report, ranks_report, render, slice_report, top_report, trace_volume, write_comm_report,
    CommStats, Profile, ProfileOptions, TimelineOptions, TraceError,
};
use dynprof_sim::SimTime;
use dynprof_vt::Trace;

fn usage() -> ! {
    eprintln!(
        "usage: vgv <command> <file> [options]\n\
         commands:\n\
         \x20 info <store.vgvs>                    store summary from the footer index\n\
         \x20 ranks <store.vgvs>                   per-rank event counts and time bounds\n\
         \x20 top <store.vgvs> [--top N] [--exclude-suspensions]\n\
         \x20 slice <store.vgvs> --t0 T --t1 T [--rank N] [--width N]\n\
         \x20 comm <store.vgvs>                    communication matrix\n\
         \x20 fsck <store.vgvs> [--repair] [--out F]  verify chunks, footer; rebuild if asked\n\
         \x20 convert <in.vgvs> <out.vgvs> [--chunk-events N]   re-chunk into one store\n\
         \x20 view <store.vgvs> [--width N] [--per-thread] [--top N] [--exclude-suspensions]\n\
         store commands also take --salvage (open footer-less captures) and\n\
         --degraded (skip corrupt chunks, reporting the loss); a store path\n\
         may name a rotated segment family (run.vgvs -> run.0000.vgvs, ...)\n\
         times accept ns (plain number), us, ms or s suffixes, e.g. --t0 2.5ms"
    );
    std::process::exit(2);
}

fn fail(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("vgv: {context}: {err}");
    std::process::exit(1);
}

/// A malformed flag value is a usage error: name the flag, exit 2.
fn bad_value(flag: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("vgv: {flag}: {err}");
    std::process::exit(2);
}

/// Parse `12`, `12us`, `2.5ms`, `1s` into a [`SimTime`].
fn parse_time(s: &str) -> Option<SimTime> {
    let (num, scale) = if let Some(v) = s.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1e9)
    } else {
        (s, 1.0)
    };
    let ns = num.parse::<f64>().ok()? * scale;
    // `nan`, `inf` and `1e400` parse as floats too; none is a time.
    (ns.is_finite() && ns >= 0.0).then(|| SimTime::from_nanos(ns.round() as u64))
}

struct Flags {
    positional: Vec<String>,
    top: usize,
    width: usize,
    per_thread: bool,
    exclude: bool,
    rank: Option<u32>,
    t0: Option<SimTime>,
    t1: Option<SimTime>,
    chunk_events: usize,
    salvage: bool,
    degraded: bool,
    repair: bool,
    out: Option<String>,
}

fn need<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => usage(),
    }
}

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags {
        positional: Vec::new(),
        top: 20,
        width: 96,
        per_thread: false,
        exclude: false,
        rank: None,
        t0: None,
        t1: None,
        chunk_events: StoreOptions::default().chunk_events,
        salvage: false,
        degraded: false,
        repair: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                f.top = need(args, &mut i)
                    .parse()
                    .unwrap_or_else(|e| bad_value("--top", e))
            }
            "--width" => {
                f.width = need(args, &mut i)
                    .parse()
                    .unwrap_or_else(|e| bad_value("--width", e))
            }
            "--per-thread" => f.per_thread = true,
            "--exclude-suspensions" => f.exclude = true,
            "--rank" => {
                f.rank = Some(
                    need(args, &mut i)
                        .parse()
                        .unwrap_or_else(|e| bad_value("--rank", e)),
                )
            }
            "--t0" => {
                f.t0 = Some(
                    parse_time(need(args, &mut i)).unwrap_or_else(|| bad_value("--t0", "bad time")),
                )
            }
            "--t1" => {
                f.t1 = Some(
                    parse_time(need(args, &mut i)).unwrap_or_else(|| bad_value("--t1", "bad time")),
                )
            }
            "--chunk-events" => {
                f.chunk_events = need(args, &mut i)
                    .parse()
                    .unwrap_or_else(|e| bad_value("--chunk-events", e))
            }
            "--salvage" => f.salvage = true,
            "--degraded" => f.degraded = true,
            "--repair" => f.repair = true,
            "--out" => f.out = Some(need(args, &mut i).to_string()),
            flag if flag.starts_with("--") => {
                eprintln!("vgv: unexpected flag {flag:?}");
                usage();
            }
            other => f.positional.push(other.to_string()),
        }
        i += 1;
    }
    f
}

/// Open `path` as an event source: a single store or a rotated segment
/// family, optionally salvaging footer-less members and/or degrading
/// (skip + report) around corrupt chunks.
fn open_source(path: &str, f: &Flags) -> Result<SegmentSet, TraceError> {
    let mut set = if f.salvage {
        SegmentSet::open_salvage(path)
    } else {
        SegmentSet::open(path)
    }?;
    if f.degraded {
        set.set_degraded(true);
    }
    Ok(set)
}

/// Every event of a source as one `(time, rank)`-ordered [`Trace`]: what
/// `view` renders and `convert` re-chunks.
fn whole_trace(set: &mut SegmentSet) -> Result<Trace, TraceError> {
    let mut events = Vec::with_capacity(set.source_info().events as usize);
    set.query(None, None, &mut |ev| events.push(ev.clone()))?;
    events.sort_by_key(|e| (e.time(), e.rank()));
    Ok(Trace {
        program: set.program().to_string(),
        functions: set.functions().to_vec(),
        events,
    })
}

/// After a degraded query, say what was dropped (on stderr, so report
/// bytes stay golden-comparable).
fn report_drops(set: &SegmentSet) {
    if let Some(s) = set.salvage() {
        if s.tail_bytes_dropped > 0 {
            eprintln!(
                "vgv: salvage dropped {} tail bytes (torn final write)",
                s.tail_bytes_dropped
            );
        }
    }
}

/// Run `command` on the file `path`, writing its report to `out`. Returns
/// the exit status of a run that completed.
fn run(command: &str, path: &str, f: &Flags, out: &mut impl Write) -> Result<i32, TraceError> {
    match command {
        "info" => out.write_all(info_report(&open_source(path, f)?).as_bytes())?,
        "ranks" => out.write_all(ranks_report(&open_source(path, f)?).as_bytes())?,
        "top" => {
            let mut r = open_source(path, f)?;
            let opts = ProfileOptions {
                exclude_suspensions: f.exclude,
            };
            out.write_all(top_report(&mut r, f.top, opts)?.as_bytes())?;
            report_drops(&r);
        }
        "slice" => {
            let (Some(t0), Some(t1)) = (f.t0, f.t1) else {
                eprintln!("vgv slice: --t0 and --t1 are required");
                usage();
            };
            let mut r = open_source(path, f)?;
            let (report, _) = slice_report(&mut r, t0, t1, f.rank, f.width)?;
            out.write_all(report.as_bytes())?;
            report_drops(&r);
        }
        "comm" => {
            let mut r = open_source(path, f)?;
            write_comm_report(&mut r, out)?;
            report_drops(&r);
        }
        "fsck" => {
            if f.repair {
                let to = f.out.clone().unwrap_or_else(|| format!("{path}.repaired"));
                let report = repair(path, &to)?;
                out.write_all(report.render().as_bytes())?;
                writeln!(out, "repaired -> {to}")?;
            } else {
                let report = fsck(path)?;
                out.write_all(report.render().as_bytes())?;
                if !report.is_clean() {
                    return Ok(1);
                }
            }
        }
        "convert" => {
            let (from, to) = (path, &f.positional[1]);
            let opts = StoreOptions {
                chunk_events: f.chunk_events,
            };
            let mut r = open_source(from, f)?;
            let stats = write_store_from_trace(&whole_trace(&mut r)?, to, opts)?;
            report_drops(&r);
            writeln!(
                out,
                "converted {from} -> {to}: {} events in {} chunks, {} bytes",
                stats.events, stats.chunks, stats.bytes
            )?;
        }
        "view" => {
            let mut r = open_source(path, f)?;
            let trace = whole_trace(&mut r)?;
            report_drops(&r);
            let opts = TimelineOptions {
                width: f.width,
                per_thread: f.per_thread,
            };
            out.write_all(render(&trace, opts).as_bytes())?;
            let v = trace_volume(&trace, 24);
            writeln!(
                out,
                "\n{} events, {} modelled bytes, {:.1} KB/s aggregate",
                trace.events.len(),
                v.bytes,
                v.bytes_per_second / 1024.0
            )?;
            let comm = CommStats::from_trace(&trace);
            if comm.has_traffic() {
                writeln!(out, "\n-- communication --")?;
                comm.write_matrix(out)?;
            }
            writeln!(out, "\n-- statistics (top {}) --", f.top)?;
            let profile = Profile::from_trace_opts(
                &trace,
                ProfileOptions {
                    exclude_suspensions: f.exclude,
                },
            );
            out.write_all(profile.render_top(f.top).as_bytes())?;
        }
        other => {
            eprintln!("vgv: unknown command {other:?}");
            usage();
        }
    }
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        usage();
    };
    // `vgv <file>` (no subcommand) keeps working as the whole-trace view.
    let (command, rest): (&str, &[String]) = if command.starts_with('-') || command.contains('.') {
        ("view", &args)
    } else {
        (command.as_str(), &args[1..])
    };
    let f = parse_flags(rest);
    let files = if command == "convert" { 2 } else { 1 };
    if f.positional.len() != files {
        usage();
    }
    let path = &f.positional[0];
    let mut out = BufWriter::with_capacity(1 << 16, std::io::stdout().lock());
    let status = run(command, path, &f, &mut out)
        .and_then(|status| out.flush().map(|()| status).map_err(TraceError::Io));
    match status {
        Ok(status) => std::process::exit(status),
        // The reader went away (`| head`): it has what it wanted.
        Err(TraceError::Io(e)) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail(path, e),
    }
}
