//! Incremental queries over a chunk-indexed store, rendered as text.
//!
//! These are the library entry points behind the `vgv` subcommands
//! (`info`, `ranks`, `top`, `slice`), so the golden tests pin the same
//! bytes the CLI prints. Each report states — via [`QueryStats`] where a
//! query ran — how much of the store it actually decoded.

use std::io::Write;

use dynprof_sim::SimTime;

use crate::error::TraceError;
use crate::store::{EventSource, QueryStats, STORE_VERSION};
use crate::{CommStats, Profile, ProfileOptions, TimelineBuilder, TimelineOptions};

/// `vgv info`: the store summary, computed from the footer index alone —
/// no chunk payload is decoded. Works on a single store or a rotated
/// segment family; salvaged sources additionally report what the
/// recovery scan kept and dropped.
pub fn info_report<S: EventSource + ?Sized>(reader: &S) -> String {
    let info = reader.source_info();
    let mut out = String::new();
    out.push_str(&format!("store of {:?}\n", info.program));
    out.push_str(&format!("  events:    {}\n", info.events));
    out.push_str(&format!("  ranks:     {}\n", info.ranks));
    out.push_str(&format!("  functions: {}\n", info.functions));
    out.push_str(&format!("  chunks:    {}\n", info.chunks));
    out.push_str(&format!("  bytes:     {}\n", info.file_bytes));
    out.push_str(&format!(
        "  time:      {} .. {} (spans end {})\n",
        info.t_min, info.t_max, info.t_end
    ));
    out.push_str(&format!(
        "  format:    v{STORE_VERSION} (crc32 per chunk)\n"
    ));
    if info.segments > 1 {
        out.push_str(&format!("  segments:  {}\n", info.segments));
    }
    if let Some(s) = info.salvage {
        out.push_str(&format!(
            "  salvage:   {} chunks ({} events) recovered, {} tail bytes dropped\n",
            s.chunks_recovered, s.events_recovered, s.tail_bytes_dropped
        ));
    }
    out
}

/// `vgv ranks`: per-rank event counts and time bounds, from the footer
/// index alone.
pub fn ranks_report<S: EventSource + ?Sized>(reader: &S) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>12} {:>14} {:>14}\n",
        "rank", "events", "first", "last"
    ));
    for (rank, (events, t0, t1)) in reader.source_rank_summary() {
        out.push_str(&format!(
            "{:<10} {:>12} {:>14} {:>14}\n",
            format!("rank {rank}"),
            events,
            t0.to_string(),
            t1.to_string()
        ));
    }
    out
}

/// `vgv top`: the hot-function table, streamed through a
/// [`crate::ProfileBuilder`] one chunk at a time.
pub fn top_report<S: EventSource + ?Sized>(
    reader: &mut S,
    top: usize,
    opts: ProfileOptions,
) -> Result<String, TraceError> {
    let profile = Profile::from_store(reader, opts)?;
    Ok(profile.render_top(top))
}

/// `vgv slice`: render the time-line of a window, decoding only the
/// chunks that overlap it. Returns the picture and what the query cost
/// (`chunks_skipped` > 0 on any store larger than the window).
pub fn slice_report<S: EventSource + ?Sized>(
    reader: &mut S,
    t0: SimTime,
    t1: SimTime,
    rank: Option<u32>,
    width: usize,
) -> Result<(String, QueryStats), TraceError> {
    let mut b = TimelineBuilder::new(
        reader.program().to_string(),
        t0,
        t1,
        TimelineOptions {
            width,
            per_thread: false,
        },
    );
    // Enter/exit pairs split by the window edge stay unpainted; span
    // events (MpiCall/OmpThread/FuncBatch/Suspended) carry their own
    // extent and clamp to the window in the builder.
    let stats = reader.query(Some((t0, t1)), rank, &mut |ev| b.push(ev))?;
    let mut out = b.finish();
    out.push_str(&format!(
        "query: {} of {} chunks decoded, {} skipped via index, {} events\n",
        stats.chunks_decoded, stats.chunks_considered, stats.chunks_skipped, stats.events
    ));
    // Degraded reads must say what they dropped; clean reads keep the
    // PR 8 golden bytes untouched.
    if stats.chunks_bad > 0 {
        out.push_str(&format!(
            "degraded: {} corrupt chunks skipped, {} events lost\n",
            stats.chunks_bad, stats.events_lost
        ));
    }
    Ok((out, stats))
}

/// `vgv comm` on a store: the rank×rank byte matrix plus per-rank MPI
/// time, read one chunk at a time and written one row at a time — the
/// report is ranks² cells, so nothing here holds more than a line of it.
pub fn write_comm_report<S: EventSource + ?Sized>(
    reader: &mut S,
    out: &mut impl Write,
) -> Result<(), TraceError> {
    let stats = CommStats::from_store(reader)?;
    if stats.has_traffic() {
        stats.write_matrix(out)?;
    } else {
        out.write_all(b"(no point-to-point traffic)\n")?;
    }
    for (rank, t) in stats.mpi_times() {
        writeln!(out, "rank {rank:>3} mpi time {t}")?;
    }
    Ok(())
}

/// [`write_comm_report`] as a string.
pub fn comm_report<S: EventSource + ?Sized>(reader: &mut S) -> Result<String, TraceError> {
    let mut out = Vec::new();
    write_comm_report(reader, &mut out)?;
    Ok(String::from_utf8(out).expect("the report is ASCII"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{write_store_from_trace, StoreOptions, StoreReader};
    use dynprof_vt::{Event, Trace, VtFuncId};

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn store_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dynprof-test-query");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.vgvs", std::process::id()))
    }

    fn sample_store(name: &str, chunk_events: usize) -> StoreReader {
        let mut events = Vec::new();
        for rank in 0..4u32 {
            for i in 0..50u64 {
                let t0 = us(100 * i);
                events.push(Event::FuncEnter {
                    t: t0,
                    rank,
                    thread: 0,
                    func: VtFuncId(0),
                });
                events.push(Event::MpiCall {
                    t: t0 + us(10),
                    t_end: t0 + us(30),
                    rank,
                    op: 2,
                    peer: ((rank + 1) % 4) as i32,
                    bytes: 64,
                });
                events.push(Event::FuncExit {
                    t: t0 + us(90),
                    rank,
                    thread: 0,
                    func: VtFuncId(0),
                });
            }
        }
        let trace = Trace {
            program: "qtest".into(),
            functions: vec!["step".into()],
            events,
        };
        let path = store_path(name);
        write_store_from_trace(&trace, &path, StoreOptions { chunk_events }).unwrap();
        StoreReader::open(&path).unwrap()
    }

    #[test]
    fn info_report_summarizes_from_index() {
        let r = sample_store("info", 32);
        let s = info_report(&r);
        assert!(s.contains("store of \"qtest\""), "{s}");
        assert!(s.contains("events:    600"), "{s}");
        assert!(s.contains("ranks:     4"), "{s}");
    }

    #[test]
    fn ranks_report_lists_each_rank() {
        let r = sample_store("ranks", 32);
        let s = ranks_report(&r);
        for rank in 0..4 {
            assert!(s.contains(&format!("rank {rank}")), "{s}");
        }
        assert!(s.contains("150"), "per-rank event count: {s}");
    }

    #[test]
    fn top_report_names_hot_function() {
        let mut r = sample_store("top", 32);
        let s = top_report(&mut r, 5, ProfileOptions::default()).unwrap();
        assert!(s.contains("step"), "{s}");
    }

    #[test]
    fn slice_report_skips_chunks_and_says_so() {
        let mut r = sample_store("slice", 16);
        let (s, stats) = slice_report(&mut r, us(200), us(400), None, 40).unwrap();
        assert!(stats.chunks_skipped > 0, "index must prune: {stats:?}");
        assert!(s.contains("skipped via index"), "{s}");
        assert!(s.contains('M'), "MPI activity inside window: {s}");
    }

    #[test]
    fn slice_rank_filter_narrows_rows() {
        let mut r = sample_store("slice-rank", 16);
        let (s, _) = slice_report(&mut r, us(0), us(1000), Some(2), 40).unwrap();
        assert!(s.contains("rank   2"), "{s}");
        assert!(!s.contains("rank   1"), "{s}");
    }

    #[test]
    fn comm_report_has_matrix_and_mpi_time() {
        let mut r = sample_store("comm", 32);
        let s = comm_report(&mut r).unwrap();
        assert!(s.contains("bytes sent"), "{s}");
        assert!(s.contains("mpi time"), "{s}");
    }
}
