//! `benchmark compare A B`: the A/A tool for the benchmark itself and the
//! parent/change tool for later issues.
//!
//! `A` and `B` are result files, or directories of them (one set each).
//! Several results of one workload in a set — runs at different seeds —
//! are reduced to the median per metric, as the driver does.

use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{self, Kind};
use crate::stats::{self, Verdict};

/// The schema tag of a result file.
pub const SCHEMA: &str = "dynprof-session-bench/v1";

/// Two sets whose sentinels differ by more than this ran on hosts of
/// different speed: their host times cannot be compared.
pub const SENTINEL_TOLERANCE: f64 = 0.05;

/// The results of one workload in one set.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer) or untraced (end-to-end) results.
    pub traced: bool,
    /// More than half of the runs were flagged noisy.
    pub noisy: bool,
    /// Median of the runs' sentinel lower quartiles.
    pub sentinel_p25_ms: f64,
    /// Median per metric, in first-seen order.
    pub metrics: Vec<(String, f64)>,
}

/// What the comparison needs of one result document.
struct Run {
    workload: String,
    traced: bool,
    noisy: bool,
    sentinel_p25_ms: f64,
    metrics: Vec<(String, f64)>,
}

fn read_result(doc: &Json) -> Result<Run, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result"));
    }
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("no {k:?} member"));
    Ok(Run {
        workload: field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        traced: field("trace")?.as_bool().ok_or("trace is not a boolean")?,
        noisy: field("noisy")?.as_bool().ok_or("noisy is not a boolean")?,
        sentinel_p25_ms: field("sentinel_p25_ms")?
            .as_f64()
            .ok_or("sentinel_p25_ms is not a number")?,
        metrics: field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Merge result documents into one group per (workload, traced).
pub fn group(docs: &[Json]) -> Result<Vec<Group>, String> {
    // Per group: its runs' noisy flags, sentinels, and values per metric.
    struct Acc {
        workload: String,
        traced: bool,
        noisy: Vec<bool>,
        sentinel: Vec<f64>,
        metrics: Vec<(String, Vec<f64>)>,
    }
    let mut accs: Vec<Acc> = Vec::new();
    for doc in docs {
        let run = read_result(doc)?;
        let at = accs
            .iter()
            .position(|a| a.workload == run.workload && a.traced == run.traced)
            .unwrap_or_else(|| {
                accs.push(Acc {
                    workload: run.workload,
                    traced: run.traced,
                    noisy: Vec::new(),
                    sentinel: Vec::new(),
                    metrics: Vec::new(),
                });
                accs.len() - 1
            });
        let acc = &mut accs[at];
        acc.noisy.push(run.noisy);
        acc.sentinel.push(run.sentinel_p25_ms);
        for (name, value) in run.metrics {
            match acc.metrics.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(value),
                None => acc.metrics.push((name, vec![value])),
            }
        }
    }
    Ok(accs
        .into_iter()
        .map(|a| Group {
            workload: a.workload,
            traced: a.traced,
            noisy: a.noisy.iter().filter(|n| **n).count() * 2 > a.noisy.len(),
            sentinel_p25_ms: stats::median(&a.sentinel),
            metrics: a
                .metrics
                .into_iter()
                .map(|(n, vs)| (n, stats::median(&vs)))
                .collect(),
        })
        .collect())
}

/// Load the result file `path`, or every `*.json` result in the directory
/// `path`, into groups.
pub fn load(path: &Path) -> Result<Vec<Group>, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let mut docs = Vec::new();
    if path.is_dir() {
        let mut files: Vec<_> = fs::read_dir(path)
            .map_err(|e| format!("listing {}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for f in files {
            docs.push(read(&f)?);
        }
    } else {
        docs.push(read(path)?);
    }
    if docs.is_empty() {
        return Err(format!("no result files in {}", path.display()));
    }
    group(&docs).map_err(|e| format!("{}: {e}", path.display()))
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: &'static str,
    /// Value in set A (the base).
    pub a: f64,
    /// Value in set B.
    pub b: f64,
    /// The bound; `None` for per-layer metrics, which have none.
    pub bound: Option<f64>,
    /// The verdict; `None` for a per-layer row that varies run to run,
    /// which is shown for reading only.
    pub verdict: Option<Verdict>,
}

/// Compare set `b` against the base set `a`, row by row.
pub fn compare(a: &[Group], b: &[Group]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ga in a {
        let Some(gb) = b
            .iter()
            .find(|g| g.workload == ga.workload && g.traced == ga.traced)
        else {
            continue;
        };
        let comparable = !ga.noisy
            && !gb.noisy
            && ((gb.sentinel_p25_ms - ga.sentinel_p25_ms) / ga.sentinel_p25_ms).abs()
                <= SENTINEL_TOLERANCE;
        for (name, va) in &ga.metrics {
            let (Some(def), Some((_, vb))) = (
                metrics::find(name),
                gb.metrics.iter().find(|(n, _)| n == name),
            ) else {
                continue;
            };
            let host_time = def.kind == Kind::Host;
            // A per-layer metric has no bound: one that is a pure function
            // of program and seed is judged at zero, one that varies run
            // to run is listed without a verdict.
            let repeats = matches!(def.kind, Kind::Exact | Kind::Simulated);
            let verdict = (def.bound.is_some() || repeats).then(|| {
                let bound = def.bound.unwrap_or(0.0);
                stats::verdict(*va, *vb, def.better, bound, host_time, comparable)
            });
            rows.push(Row {
                workload: ga.workload.clone(),
                metric: name.clone(),
                unit: def.unit,
                a: *va,
                b: *vb,
                bound: def.bound,
                verdict,
            });
        }
    }
    rows
}

/// Rows that fail the comparison: an end-to-end metric worse than its bound.
pub fn regressions(rows: &[Row]) -> usize {
    rows.iter()
        .filter(|r| r.bound.is_some() && r.verdict == Some(Verdict::Worse))
        .count()
}

/// The comparison as a table. Every delta is printed with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<32} {:>16} {:>16} {:>26} {:>6}  {}\n",
        "workload", "metric [unit]", "A", "B", "delta (of base A)", "bound", "verdict"
    );
    for r in rows {
        let delta = if r.a == r.b {
            "0".to_string()
        } else {
            format!(
                "{:+.3}% of {}",
                100.0 * (r.b - r.a) / r.a.abs(),
                fmt_value(r.a)
            )
        };
        out.push_str(&format!(
            "{:<20} {:<32} {:>16} {:>16} {:>26} {:>6}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            fmt_value(r.a),
            fmt_value(r.b),
            delta,
            r.bound
                .map_or("-".to_string(), |b| format!("{}%", 100.0 * b)),
            r.verdict.map_or("-", Verdict::label),
        ));
    }
    out
}

/// Six significant digits, whole numbers in full.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, noisy: bool, sentinel: f64, metrics: &[(&str, f64)]) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("workload", Json::str(workload)),
            (
                "trace",
                Json::Bool(metrics.iter().any(|(n, _)| n.contains('.'))),
            ),
            ("noisy", Json::Bool(noisy)),
            ("sentinel_p25_ms", Json::from(sentinel)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|(n, v)| {
                    (
                        *n,
                        Json::obj([("value", Json::from(*v)), ("unit", Json::str("x"))]),
                    )
                })),
            ),
        ])
    }

    fn verdict_of<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn a_set_is_the_median_of_its_runs() {
        let docs = [
            result(
                "w",
                false,
                20.0,
                &[("session_wall_s", 1.0), ("store_bytes", 10.0)],
            ),
            result(
                "w",
                true,
                22.0,
                &[("session_wall_s", 3.0), ("store_bytes", 10.0)],
            ),
            result(
                "w",
                false,
                21.0,
                &[("session_wall_s", 2.0), ("store_bytes", 10.0)],
            ),
            result("v", false, 21.0, &[("session_wall_s", 9.0)]),
        ];
        let g = group(&docs).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!((g[0].noisy, g[0].sentinel_p25_ms), (false, 21.0));
        assert_eq!(
            g[0].metrics,
            [
                ("session_wall_s".to_string(), 2.0),
                ("store_bytes".to_string(), 10.0)
            ]
        );
        assert!(group(&[Json::obj([("schema", Json::str("other"))])]).is_err());
    }

    #[test]
    fn verdicts_bounds_and_exit_status() {
        let bound = |name: &str| metrics::find(name).unwrap().bound.unwrap();
        let (wall, rate, bytes) = (
            bound("session_wall_s"),
            bound("trace_events_per_s"),
            bound("store_bytes"),
        );
        let a = group(&[result(
            "w",
            false,
            20.0,
            &[
                ("session_wall_s", 1.0),
                ("trace_events_per_s", 100.0),
                ("store_bytes", 1000.0),
                ("sim_session_time", 5.0),
            ],
        )])
        .unwrap();
        let same = compare(&a, &a);
        assert!(same.iter().all(|r| r.verdict == Some(Verdict::Same)));
        assert_eq!(regressions(&same), 0);

        // Wall time past its bound, rate better than its bound, bytes
        // worse but within theirs, simulated time far past its own.
        let b = group(&[result(
            "w",
            false,
            20.5,
            &[
                ("session_wall_s", 1.0 + wall + 0.05),
                ("trace_events_per_s", 100.0 * (1.0 + rate + 0.05)),
                ("store_bytes", 1000.0 * (1.0 + bytes / 2.0)),
                ("sim_session_time", 6.0),
            ],
        )])
        .unwrap();
        let rows = compare(&a, &b);
        assert_eq!(
            verdict_of(&rows, "session_wall_s").verdict,
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict_of(&rows, "trace_events_per_s").verdict,
            Some(Verdict::Better)
        );
        assert_eq!(
            verdict_of(&rows, "store_bytes").verdict,
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict_of(&rows, "sim_session_time").verdict,
            Some(Verdict::Worse)
        );
        assert_eq!(regressions(&rows), 2);
        let table = render(&rows);
        assert!(
            table.contains("+20.000% of 5"),
            "every delta names its base: {table}"
        );
        assert!(
            table.contains(&format!("{}%", 100.0 * wall)) && table.contains("worse"),
            "{table}"
        );
    }

    #[test]
    fn a_changed_host_leaves_host_time_unresolved_only() {
        let base = [
            ("session_wall_s", 1.0),
            ("session_peak_rss_mb", 100.0),
            ("sim_session_time", 5.0),
        ];
        let a = group(&[result("w", false, 20.0, &base)]).unwrap();
        let slow_host = group(&[result(
            "w",
            false,
            22.0,
            &[
                ("session_wall_s", 1.5),
                ("session_peak_rss_mb", 120.0),
                ("sim_session_time", 5.0),
            ],
        )])
        .unwrap();
        let rows = compare(&a, &slow_host);
        assert_eq!(
            verdict_of(&rows, "session_wall_s").verdict,
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            verdict_of(&rows, "session_peak_rss_mb").verdict,
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict_of(&rows, "sim_session_time").verdict,
            Some(Verdict::Same)
        );
        let noisy = group(&[result("w", true, 20.0, &base)]).unwrap();
        assert_eq!(
            verdict_of(&compare(&a, &noisy), "session_wall_s").verdict,
            Some(Verdict::Unresolved)
        );
    }

    #[test]
    fn per_layer_rows_are_judged_only_when_they_repeat_exactly() {
        let a = group(&[result(
            "w",
            false,
            20.0,
            &[
                ("sim.events_dispatched", 100.0),
                ("sim.est_busy_s", 1.0),
                ("session.minor_faults", 7.0),
            ],
        )])
        .unwrap();
        let b = group(&[result(
            "w",
            false,
            20.0,
            &[
                ("sim.events_dispatched", 101.0),
                ("sim.est_busy_s", 2.0),
                ("session.minor_faults", 8.0),
            ],
        )])
        .unwrap();
        let rows = compare(&a, &b);
        assert_eq!(
            verdict_of(&rows, "sim.events_dispatched").verdict,
            Some(Verdict::Worse)
        );
        assert_eq!(verdict_of(&rows, "sim.est_busy_s").verdict, None);
        assert_eq!(verdict_of(&rows, "session.minor_faults").verdict, None);
        assert_eq!(regressions(&rows), 0, "only bounded (end-to-end) rows gate");
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(fmt_value(12241184.0), "12241184");
        assert_eq!(fmt_value(1.2034567), "1.20346");
        assert_eq!(fmt_value(0.00123456789), "0.00123457");
        assert_eq!(fmt_value(140.7703), "140.770");
    }
}
