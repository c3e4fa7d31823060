//! `BENCHMARK.json` against the tables in the source, and against the
//! limits the driver's contract puts on it.

use benchmark::json::Json;
use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::stats::Better;
use benchmark::workloads::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {v}"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_lists_exactly_the_metrics_the_source_defines() {
    let doc = manifest();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    for (key, table, bounded) in [
        ("end_to_end", &END_TO_END[..], true),
        ("per_layer", PER_LAYER, false),
    ] {
        let rows = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), table.len(), "{key}");
        for (row, def) in rows.iter().zip(table) {
            assert_eq!(text(row, "name"), def.name);
            assert_eq!(text(row, "unit"), def.unit, "{}", def.name);
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text(row, "better"), better, "{}", def.name);
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
            assert_eq!(
                row.as_obj().unwrap().len(),
                if bounded { 4 } else { 3 },
                "{}",
                def.name
            );
        }
    }
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (row, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!((text(row, "name"), text(row, "why")), (w.name, w.why));
    }
}

#[test]
fn manifest_is_within_the_contracts_limits() {
    let doc = manifest();
    let mut names: Vec<&str> = Vec::new();
    for w in &WORKLOADS {
        assert!(
            is_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
        names.push(w.name);
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            is_name(m.name) && is_unit(m.unit),
            "{} [{}]",
            m.name,
            m.unit
        );
        assert!(
            m.bound.is_none_or(|b| (0.0..=0.25).contains(&b)),
            "{}",
            m.name
        );
        names.push(m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(distinct.len(), names.len(), "a name is used once");

    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}
