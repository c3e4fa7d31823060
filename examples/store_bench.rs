//! Measure the chunk-indexed trace store: peak RSS and query latency for
//! `top` (full-trace profile), `slice` (short window) and `comm`, on a
//! synthetic store. Feeds the EXPERIMENTS.md "Trace store" table; run
//! each mode in a fresh process so `VmHWM` isolates one path. The
//! `stream` mode goes through the entry points `vgv top`, `vgv slice` and
//! `vgv comm` call, the last written to a sink as `vgv` streams it.
//!
//! ```console
//! $ cargo run --release --example store_bench -- gen 1000 40 42 /tmp/synth
//! $ cargo run --release --example store_bench -- stream /tmp/synth.vgvs <t0ns> <t1ns>
//! $ cargo run --release --example store_bench -- salvage /tmp/synth.vgvs
//! ```
//!
//! `salvage` strips the footer from a copy of the store (simulating a
//! crash after the last chunk flush) and times the forward-scan
//! recovery — the "salvage time vs store size" rows in EXPERIMENTS.md.

use std::time::Instant;

use dynprof::analysis::store::{write_store_from_trace, StoreOptions, StoreReader};
use dynprof::analysis::{slice_report, top_report, write_comm_report, ProfileOptions};
use dynprof::sim::rng::SimRng;
use dynprof::sim::SimTime;
use dynprof::vt::{Event, Trace, VtFuncId};

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix(" kB").and_then(|n| n.parse().ok()))
        .unwrap_or(0)
}

/// Per-rank causal synthetic streams (same generator family as
/// `tests/trace_store.rs`), concatenated rank-major.
fn synth_trace(seed: u64, ranks: u32, steps: u64) -> Trace {
    let mut events = Vec::new();
    for rank in 0..ranks {
        let mut rng = SimRng::new(seed, rank as u64);
        let mut t = rng.gen_range_u64(0..=5_000);
        for _ in 0..steps {
            t += 1_000 + rng.gen_range_u64(0..=2_000);
            let t0 = SimTime::from_nanos(t);
            match rng.gen_range_u64(0..=2) {
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
                _ => {
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
            }
        }
    }
    Trace {
        program: "synth".into(),
        functions: vec!["alpha".into(), "beta".into(), "gamma".into()],
        events,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: store_bench gen <ranks> <steps> <seed> <base-path>\n\
         \x20      store_bench stream <store.vgvs> <t0ns> <t1ns>\n\
         \x20      store_bench salvage <store.vgvs>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            let [_, ranks, steps, seed, base] = &args[..] else {
                usage()
            };
            let trace = synth_trace(
                seed.parse().unwrap(),
                ranks.parse().unwrap(),
                steps.parse().unwrap(),
            );
            let vgvs = format!("{base}.vgvs");
            let stats =
                write_store_from_trace(&trace, &vgvs, StoreOptions { chunk_events: 256 }).unwrap();
            let (lo, hi) = trace.events.iter().fold((u64::MAX, 0), |(lo, hi), e| {
                (lo.min(e.time().as_nanos()), hi.max(e.time().as_nanos()))
            });
            println!(
                "gen: {} events, {} ranks | {vgvs}: {} bytes in {} chunks | span {lo}..{hi} ns",
                trace.events.len(),
                ranks,
                stats.bytes,
                stats.chunks,
            );
        }
        Some("stream") => {
            let [_, path, t0, t1] = &args[..] else {
                usage()
            };
            let (t0, t1): (u64, u64) = (t0.parse().unwrap(), t1.parse().unwrap());
            let start = Instant::now();
            let mut reader = StoreReader::open(path).unwrap();
            let open = start.elapsed();

            let start = Instant::now();
            let report = top_report(&mut reader, 20, ProfileOptions::default()).unwrap();
            let top = start.elapsed();

            let start = Instant::now();
            let (_, stats) = slice_report(
                &mut reader,
                SimTime::from_nanos(t0),
                SimTime::from_nanos(t1),
                None,
                64,
            )
            .unwrap();
            let slice_t = start.elapsed();

            let start = Instant::now();
            write_comm_report(&mut reader, &mut std::io::sink()).unwrap();
            let comm = start.elapsed();

            println!(
                "stream: open {:.2} ms | top {:.1} ms ({} lines) | slice {:.1} ms ({} of {} chunks decoded, {} skipped) | comm {:.1} ms | peak chunk {} kB | peak RSS {} kB",
                open.as_secs_f64() * 1e3,
                top.as_secs_f64() * 1e3,
                report.lines().count(),
                slice_t.as_secs_f64() * 1e3,
                stats.chunks_decoded,
                stats.chunks_considered,
                stats.chunks_skipped,
                comm.as_secs_f64() * 1e3,
                reader.peak_chunk_bytes() / 1024,
                peak_rss_kb(),
            );
        }
        Some("salvage") => {
            let [_, path] = &args[..] else { usage() };
            // Crash facsimile: the whole data region survived but the
            // footer never made it to disk.
            let bytes = std::fs::read(path).unwrap();
            let reader = StoreReader::open(path).unwrap();
            let data_end = reader
                .chunks()
                .iter()
                .map(|c| c.offset + 40 + c.enc_len as u64)
                .max()
                .unwrap_or(0);
            let torn = format!("{path}.torn");
            std::fs::write(&torn, &bytes[..data_end as usize]).unwrap();

            let start = Instant::now();
            let mut salvaged = StoreReader::open_salvage(&torn).unwrap();
            let scan = start.elapsed();
            let summary = salvaged.salvage().unwrap();

            let start = Instant::now();
            let report = top_report(&mut salvaged, 20, ProfileOptions::default()).unwrap();
            let query = start.elapsed();

            std::fs::remove_file(&torn).ok();
            println!(
                "salvage: {} bytes footer-less | scan {:.2} ms ({} chunks, {} events, {} tail bytes) | top-after-salvage {:.1} ms ({} lines)",
                data_end,
                scan.as_secs_f64() * 1e3,
                summary.chunks_recovered,
                summary.events_recovered,
                summary.tail_bytes_dropped,
                query.as_secs_f64() * 1e3,
                report.lines().count(),
            );
        }
        _ => usage(),
    }
}
