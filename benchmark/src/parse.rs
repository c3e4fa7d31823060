//! Readers for what `dynprof` and `vgv` print.
//!
//! They pull out the fields the invariants and metrics need and nothing
//! else: a check against pinned output bytes would fail the first time a
//! report gains a column, and that is not an incorrect program.

/// A simulated time as the product prints it (`0ns`, `404.820us`,
/// `26.666ms`, `190.453s`), in seconds.
pub fn sim_time(text: &str) -> Option<f64> {
    let text = text.trim();
    let (num, per_second) = if let Some(v) = text.strip_suffix("ns") {
        (v, 1e9)
    } else if let Some(v) = text.strip_suffix("us") {
        (v, 1e6)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e3)
    } else {
        (text.strip_suffix('s')?, 1.0)
    };
    let v: f64 = num.parse().ok()?;
    (v.is_finite() && v >= 0.0).then_some(v / per_second)
}

/// The value of the line `<key> : <value>` (keys are padded with spaces).
fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    text.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then_some(v.trim())
        })
        .ok_or_else(|| format!("no {key:?} line"))
}

fn number<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("bad {what} {text:?}"))
}

fn time_field(text: &str, key: &str) -> Result<f64, String> {
    let v = field(text, key)?;
    sim_time(v).ok_or_else(|| format!("bad {key} {v:?}"))
}

/// The session summary `dynprof` writes to its stdout file.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// `application time`, simulated seconds.
    pub app_time_s: f64,
    /// `probe pairs` installed.
    pub probe_pairs: u64,
    /// Number of `warning` lines.
    pub warnings: usize,
    /// Rows of the hot-function table under the header.
    pub top_rows: usize,
}

/// Parse a session summary.
pub fn summary(text: &str) -> Result<Summary, String> {
    Ok(Summary {
        app_time_s: time_field(text, "application time")?,
        probe_pairs: number(field(text, "probe pairs")?, "probe pairs")?,
        warnings: text
            .lines()
            .filter(|l| {
                l.split_once(':')
                    .is_some_and(|(k, _)| k.trim() == "warning")
            })
            .count(),
        top_rows: top_rows(text),
    })
}

/// Rows of a hot-function table (`vgv top`, or the tail of a summary): the
/// non-empty lines after the `function ... calls` header.
pub fn top_rows(text: &str) -> usize {
    text.lines()
        .skip_while(|l| !(l.starts_with("function") && l.contains("calls")))
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .count()
}

/// One row of the timefile (`label start end duration`, simulated
/// seconds): what the metrics use of it.
#[derive(Clone, Debug, PartialEq)]
pub struct TimefileRow {
    /// Operation label (`create`, `instrument`, ...).
    pub label: String,
    /// Duration.
    pub duration_s: f64,
}

/// Parse a timefile; `#` lines are comments. A static-policy session has
/// no rows.
pub fn timefile(text: &str) -> Result<Vec<TimefileRow>, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [label, _start, _end, duration] = f[..] else {
                return Err(format!(
                    "timefile row {l:?} is not `label start end duration`"
                ));
            };
            Ok(TimefileRow {
                label: label.to_string(),
                duration_s: number(duration, "duration")?,
            })
        })
        .collect()
}

/// What `vgv info` says about a store.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreInfo {
    /// Event count.
    pub events: u64,
    /// Ranks (processes) with events.
    pub ranks: u64,
    /// Functions in the dictionary.
    pub functions: u64,
    /// Chunks.
    pub chunks: u64,
    /// File size the footer records.
    pub bytes: u64,
    /// Earliest event time, simulated seconds.
    pub t_min_s: f64,
    /// End of the last span, simulated seconds.
    pub t_end_s: f64,
}

/// Parse `vgv info`.
pub fn info(text: &str) -> Result<StoreInfo, String> {
    // `time: 190.454s .. 191.505s (spans end 191.506s)`
    let time = field(text, "time")?;
    let bad = || format!("bad time line {time:?}");
    let (t_min, rest) = time.split_once("..").ok_or_else(bad)?;
    let t_end = rest
        .split_once("(spans end")
        .and_then(|(_, e)| e.trim().strip_suffix(')'))
        .ok_or_else(bad)?;
    Ok(StoreInfo {
        events: number(field(text, "events")?, "events")?,
        ranks: number(field(text, "ranks")?, "ranks")?,
        functions: number(field(text, "functions")?, "functions")?,
        chunks: number(field(text, "chunks")?, "chunks")?,
        bytes: number(field(text, "bytes")?, "bytes")?,
        t_min_s: sim_time(t_min).ok_or_else(bad)?,
        t_end_s: sim_time(t_end).ok_or_else(bad)?,
    })
}

/// What a `vgv slice` drew and what it cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Slice {
    /// `rank N |...|` rows drawn.
    pub rows: usize,
    /// Chunks decoded.
    pub chunks_decoded: u64,
    /// Chunks the index let the query skip.
    pub chunks_skipped: u64,
    /// Events delivered to the time-line.
    pub events: u64,
}

/// Parse `vgv slice`: the rows and the `query:` footer.
pub fn slice(text: &str) -> Result<Slice, String> {
    // `query: 8 of 266 chunks decoded, 258 skipped via index, 15156 events`
    let q = field(text, "query")?;
    let words: Vec<&str> = q.split_whitespace().collect();
    let [decoded, "of", _, "chunks", "decoded,", skipped, "skipped", "via", "index,", events, "events"] =
        words[..]
    else {
        return Err(format!("bad query line {q:?}"));
    };
    Ok(Slice {
        rows: text
            .lines()
            .filter(|l| l.starts_with("rank") && l.contains('|'))
            .count(),
        chunks_decoded: number(decoded, "chunks decoded")?,
        chunks_skipped: number(skipped, "chunks skipped")?,
        events: number(events, "slice events")?,
    })
}

/// Events `vgv fsck` verified, or an error unless its verdict is `clean`.
pub fn fsck_clean(text: &str) -> Result<u64, String> {
    let verdict = field(text, "verdict")?;
    if verdict != "clean" {
        return Err(format!("fsck verdict {verdict:?}"));
    }
    // `chunks: 8 ok (10144 events), 0 bad`
    let chunks = field(text, "chunks")?;
    let events = chunks
        .split_once('(')
        .and_then(|(_, r)| r.split_once(" events)"))
        .map(|(n, _)| n)
        .ok_or_else(|| format!("bad chunks line {chunks:?}"))?;
    number(events, "fsck events")
}

/// `(ranks, events)` of `vgv ranks`: the row count and the sum of the
/// per-rank event counts.
pub fn ranks(text: &str) -> Result<(u64, u64), String> {
    let mut rows = 0;
    let mut events = 0u64;
    for l in text.lines().skip(1).filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = l.split_whitespace().collect();
        let ["rank", _, n, ..] = f[..] else {
            return Err(format!("bad ranks row {l:?}"));
        };
        rows += 1;
        events += number::<u64>(n, "rank events")?;
    }
    Ok((rows, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    macro_rules! fixture {
        ($name:literal) => {
            include_str!(concat!("../tests/fixtures/", $name))
        };
    }

    #[test]
    fn sim_times_in_every_unit() {
        assert_eq!(sim_time("0ns"), Some(0.0));
        assert_eq!(sim_time("404.820us"), Some(404.820e-6));
        assert_eq!(sim_time(" 26.666ms "), Some(26.666e-3));
        assert_eq!(sim_time("190.453s"), Some(190.453));
        for bad in ["", "12", "abcms", "-1s", "nans"] {
            assert_eq!(sim_time(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn dynamic_summary_and_timefile() {
        let s = summary(fixture!("summary_dynamic.txt")).unwrap();
        assert_eq!(s.app_time_s, 23.669e-3);
        assert_eq!(s.probe_pairs, 168, "21 subset functions x 8 ranks");
        assert_eq!((s.warnings, s.top_rows), (0, 8));
        let t = timefile(fixture!("timefile_dynamic.txt")).unwrap();
        let labels: Vec<&str> = t.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            ["create", "start-to-callback", "instrument", "release"]
        );
        assert_eq!(t[2].duration_s, 0.12985847);
        assert_eq!(t[3].duration_s, 0.00016);
    }

    #[test]
    fn static_summary_has_no_timefile_rows() {
        let s = summary(fixture!("summary_static.txt")).unwrap();
        assert_eq!(s.probe_pairs, 0);
        assert!(s.app_time_s > 0.0 && s.top_rows > 8);
        assert_eq!(timefile(fixture!("timefile_static.txt")).unwrap(), vec![]);
    }

    #[test]
    fn warnings_are_counted_and_missing_fields_are_errors() {
        let text = format!(
            "{}warning          : attach failed\n",
            fixture!("summary_dynamic.txt")
        );
        assert_eq!(summary(&text).unwrap().warnings, 1);
        assert!(summary("dynprof: nothing else\n").is_err());
        assert!(timefile("create 0 1\n").is_err());
    }

    #[test]
    fn store_reports() {
        let i = info(fixture!("vgv_info.txt")).unwrap();
        assert_eq!(
            (i.events, i.ranks, i.functions, i.chunks),
            (10144, 8, 21, 8)
        );
        assert_eq!((i.bytes, i.t_min_s, i.t_end_s), (61191, 1.734, 1.902));
        assert_eq!(ranks(fixture!("vgv_ranks.txt")).unwrap(), (8, 10144));
        assert_eq!(fsck_clean(fixture!("vgv_fsck.txt")).unwrap(), 10144);
        assert_eq!(top_rows(fixture!("vgv_top.txt")), 8);
        assert!(info("store of \"x\"\n  events: 1\n").is_err());
    }

    #[test]
    fn slice_rows_and_footer() {
        let s = slice(fixture!("vgv_slice.txt")).unwrap();
        assert_eq!(
            (s.rows, s.chunks_decoded, s.chunks_skipped, s.events),
            (8, 8, 0, 9338)
        );
        let empty = "(empty trace)\nquery: 0 of 1 chunks decoded, 1 skipped via index, 0 events\n";
        let s = slice(empty).unwrap();
        assert_eq!((s.rows, s.chunks_skipped, s.events), (0, 1, 0));
        assert!(slice("time-line of x\n").is_err());
    }

    #[test]
    fn fsck_must_be_clean() {
        let dirty = fixture!("vgv_fsck.txt").replace("verdict: clean", "verdict: 2 bad chunks");
        assert!(fsck_clean(&dirty).is_err());
    }
}
