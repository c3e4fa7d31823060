//! A text-mode stand-in for the VGV GUI (paper §3.1, Fig 4).
//!
//! ```console
//! $ vgv info run.vgvs                 # store summary (footer index only)
//! $ vgv ranks run.vgvs                # per-rank event counts and bounds
//! $ vgv top run.vgvs [--top N] [--exclude-suspensions]
//! $ vgv slice run.vgvs --t0 2ms --t1 5ms [--rank N] [--width N]
//! $ vgv comm run.vgvs                 # rank x rank byte matrix
//! $ vgv fsck run.vgvs [--repair [--out fixed.vgvs]]
//! $ vgv convert run.vgvt|run.vgvs out.vgvs [--chunk-events N]
//! $ vgv view run.vgvs [--width N] [--per-thread] [--top N]
//! $ vgv run.vgvs                      # same as `vgv view`
//! ```
//!
//! Subcommands other than `view`/`convert` operate on chunk-indexed
//! `VGVS` stores and decode only what the query needs; `view` (whole
//! time-line, matrix and statistics) and `convert` are the
//! load-everything paths and take a store file or a legacy flat `VGVT`
//! trace, told apart by their magic. A store argument
//! names either one file or a rotated segment family (`run.vgvs` finds
//! `run.0000.vgvs`, `run.0001.vgvs`, …); `--salvage` opens crashed
//! captures without a footer, `--degraded` skips (and reports) corrupt
//! chunks instead of failing.

use dynprof_analysis::store::{fsck, repair, SegmentSet, StoreOptions};
use dynprof_analysis::{
    comm_report, convert, info_report, load_trace, ranks_report, render, slice_report, top_report,
    trace_volume, Profile, ProfileOptions, TimelineOptions,
};
use dynprof_sim::SimTime;

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
         \x20 convert <in.vgvt|in.vgvs> <out.vgvs> [--chunk-events N]   re-encode / re-chunk\n\
         \x20 view <store.vgvs|trace.vgvt> [--width N] [--per-thread] [--top N] [--exclude-suspensions]\n\
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
    let v: f64 = num.parse().ok()?;
    if v < 0.0 {
        return None;
    }
    Some(SimTime::from_nanos((v * scale).round() as u64))
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
                    .unwrap_or_else(|e| fail("--top", e))
            }
            "--width" => {
                f.width = need(args, &mut i)
                    .parse()
                    .unwrap_or_else(|e| fail("--width", e))
            }
            "--per-thread" => f.per_thread = true,
            "--exclude-suspensions" => f.exclude = true,
            "--rank" => {
                f.rank = Some(
                    need(args, &mut i)
                        .parse()
                        .unwrap_or_else(|e| fail("--rank", e)),
                )
            }
            "--t0" => {
                f.t0 =
                    Some(parse_time(need(args, &mut i)).unwrap_or_else(|| fail("--t0", "bad time")))
            }
            "--t1" => {
                f.t1 =
                    Some(parse_time(need(args, &mut i)).unwrap_or_else(|| fail("--t1", "bad time")))
            }
            "--chunk-events" => {
                f.chunk_events = need(args, &mut i)
                    .parse()
                    .unwrap_or_else(|e| fail("--chunk-events", e))
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
fn open_source(path: &str, f: &Flags) -> SegmentSet {
    let mut set = if f.salvage {
        SegmentSet::open_salvage(path)
    } else {
        SegmentSet::open(path)
    }
    .unwrap_or_else(|e| fail(path, e));
    if f.degraded {
        set.set_degraded(true);
    }
    set
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
    match command {
        "info" => {
            let [path] = &f.positional[..] else { usage() };
            let set = open_source(path, &f);
            print!("{}", info_report(&set));
        }
        "ranks" => {
            let [path] = &f.positional[..] else { usage() };
            print!("{}", ranks_report(&open_source(path, &f)));
        }
        "top" => {
            let [path] = &f.positional[..] else { usage() };
            let mut r = open_source(path, &f);
            let opts = ProfileOptions {
                exclude_suspensions: f.exclude,
            };
            let report = top_report(&mut r, f.top, opts).unwrap_or_else(|e| fail(path, e));
            print!("{report}");
            report_drops(&r);
        }
        "slice" => {
            let [path] = &f.positional[..] else { usage() };
            let (Some(t0), Some(t1)) = (f.t0, f.t1) else {
                eprintln!("vgv slice: --t0 and --t1 are required");
                usage();
            };
            let mut r = open_source(path, &f);
            let (report, _) =
                slice_report(&mut r, t0, t1, f.rank, f.width).unwrap_or_else(|e| fail(path, e));
            print!("{report}");
            report_drops(&r);
        }
        "comm" => {
            let [path] = &f.positional[..] else { usage() };
            let mut r = open_source(path, &f);
            print!("{}", comm_report(&mut r).unwrap_or_else(|e| fail(path, e)));
            report_drops(&r);
        }
        "fsck" => {
            let [path] = &f.positional[..] else { usage() };
            if f.repair {
                let out = f.out.clone().unwrap_or_else(|| format!("{path}.repaired"));
                let report = repair(path, &out).unwrap_or_else(|e| fail(path, e));
                print!("{}", report.render());
                println!("repaired -> {out}");
            } else {
                let report = fsck(path).unwrap_or_else(|e| fail(path, e));
                print!("{}", report.render());
                if !report.is_clean() {
                    std::process::exit(1);
                }
            }
        }
        "convert" => {
            let [from, to] = &f.positional[..] else {
                usage()
            };
            let opts = StoreOptions {
                chunk_events: f.chunk_events,
            };
            let stats = convert(from, to, opts).unwrap_or_else(|e| fail(from, e));
            println!(
                "converted {from} -> {to}: {} events in {} chunks, {} bytes",
                stats.events, stats.chunks, stats.bytes
            );
        }
        "view" => {
            let [path] = &f.positional[..] else { usage() };
            let trace = load_trace(path).unwrap_or_else(|e| fail(path, e));
            print!(
                "{}",
                render(
                    &trace,
                    TimelineOptions {
                        width: f.width,
                        per_thread: f.per_thread,
                    }
                )
            );
            let v = trace_volume(&trace, 24);
            println!(
                "\n{} events, {} modelled bytes, {:.1} KB/s aggregate",
                trace.events.len(),
                v.bytes,
                v.bytes_per_second / 1024.0
            );
            let comm = dynprof_analysis::CommStats::from_trace(&trace);
            let matrix = comm.render_matrix();
            if !matrix.is_empty() {
                println!("\n-- communication --");
                print!("{matrix}");
            }
            println!("\n-- statistics (top {}) --", f.top);
            let profile = Profile::from_trace_opts(
                &trace,
                ProfileOptions {
                    exclude_suspensions: f.exclude,
                },
            );
            print!("{}", profile.render_top(f.top));
        }
        other => {
            eprintln!("vgv: unknown command {other:?}");
            usage();
        }
    }
}
