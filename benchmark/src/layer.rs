//! What every layer driver shares: the workload shape it is handed, and
//! the one JSON line it answers with. The drivers themselves live in the
//! `layers/` package, one binary per crate, so that a change to one
//! crate's API costs that crate's rows and nothing else.

use std::path::PathBuf;

use crate::json::Json;
use crate::span::Recorder;

/// The session shape a driver sizes its scenarios by, from its arguments.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Target application.
    pub app: String,
    /// `cpus=`.
    pub cpus: usize,
    /// `policy=`.
    pub policy: String,
    /// `scale=`, when the workload sets it.
    pub scale: Option<f64>,
    /// `seed=`.
    pub seed: u64,
    /// Processes the session runs (MPI ranks, or 1).
    pub processes: usize,
    /// A directory the driver may write into.
    pub dir: PathBuf,
    /// The store an untraced child captured at this shape.
    pub store: PathBuf,
}

impl Shape {
    /// Parse `--app A --cpus N --policy P [--scale X] --seed N --processes N
    /// --dir D --store F`; exits with status 2 on anything else.
    pub fn from_args() -> Shape {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Shape::parse(&argv).unwrap_or_else(|e| {
            eprintln!("layer driver: {e}");
            std::process::exit(2);
        })
    }

    /// See [`Shape::from_args`].
    pub fn parse(argv: &[String]) -> Result<Shape, String> {
        let value = |flag: &str| {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let need = |flag: &str| value(flag).ok_or_else(|| format!("{flag} is required"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {flag} {v:?}"))
        }
        Ok(Shape {
            app: need("--app")?.to_string(),
            cpus: num("--cpus", need("--cpus")?)?,
            policy: need("--policy")?.to_string(),
            scale: value("--scale").map(|v| num("--scale", v)).transpose()?,
            seed: num("--seed", need("--seed")?)?,
            processes: num("--processes", need("--processes")?)?,
            dir: PathBuf::from(need("--dir")?),
            store: PathBuf::from(need("--store")?),
        })
    }

    /// The same shape as arguments, for the runner to start a driver with.
    pub fn to_args(&self) -> Vec<String> {
        let mut v = vec![
            "--app".to_string(),
            self.app.clone(),
            "--cpus".to_string(),
            self.cpus.to_string(),
            "--policy".to_string(),
            self.policy.clone(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--processes".to_string(),
            self.processes.to_string(),
            "--dir".to_string(),
            self.dir.display().to_string(),
            "--store".to_string(),
            self.store.display().to_string(),
        ];
        if let Some(s) = self.scale {
            v.extend(["--scale".to_string(), s.to_string()]);
        }
        v
    }
}

/// An isolated scenario timed from outside: `ops` operations of one kind
/// took `wall_ns`, during which the engine dispatched `engine_events`
/// events. The runner turns it into a self cost per operation by taking
/// the engine's share (`engine_events` x `sim.dispatch_ns_per_event`) out.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitCost {
    /// Scenario name (`p2p`, `allreduce`, ...).
    pub name: String,
    /// Wall time of the timed part.
    pub wall_ns: f64,
    /// Operations performed in it.
    pub ops: f64,
    /// Engine events dispatched in it.
    pub engine_events: f64,
}

/// What one run of a scenario did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations of the kind being costed.
    pub ops: u64,
    /// Engine events dispatched meanwhile.
    pub engine_events: u64,
}

/// Times each side of a differential measurement is run.
pub const REPEATS: usize = 3;

/// What a driver reports.
pub struct Report {
    layer: &'static str,
    /// Measured values by name (not yet metrics: the runner maps them).
    values: Vec<(String, f64)>,
    costs: Vec<UnitCost>,
    notes: Vec<(String, String)>,
    /// Spans around the calls the driver made into the product.
    pub spans: Recorder,
}

impl Report {
    /// An empty report for `layer`.
    pub fn new(layer: &'static str) -> Report {
        Report {
            layer,
            values: Vec::new(),
            costs: Vec::new(),
            notes: Vec::new(),
            spans: Recorder::new(),
        }
    }

    /// Record a directly measured value.
    pub fn value(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
    }

    /// Record a fact that is not a number.
    pub fn note(&mut self, name: &str, v: impl Into<String>) {
        self.notes.push((name.to_string(), v.into()));
    }

    /// Measure the unit cost `name` differentially: `scenario(n)` sets up,
    /// performs `n` rounds of the operation and tears down, returning what
    /// it did. It is run with 0 rounds and with `rounds`, [`REPEATS`] times
    /// each in alternation, and the cost is the difference between the two
    /// best times — so set-up and tear-down, which both sides pay, cancel.
    /// Best, not median: interference only ever adds time.
    pub fn unit_cost(&mut self, name: &str, rounds: u64, mut scenario: impl FnMut(u64) -> Counts) {
        let layer = self.layer;
        let mut best = [f64::INFINITY; 2];
        let mut counts = [Counts::default(); 2];
        for _ in 0..REPEATS {
            for (side, n) in [0, rounds].into_iter().enumerate() {
                let label = if n == 0 {
                    format!("{name}/baseline")
                } else {
                    name.to_string()
                };
                let (c, secs) = self.spans.span(layer, &label, |_| scenario(n));
                best[side] = best[side].min(secs);
                counts[side] = c;
            }
        }
        self.costs.push(UnitCost {
            name: name.to_string(),
            wall_ns: (best[1] - best[0]).max(0.0) * 1e9,
            ops: counts[1].ops.saturating_sub(counts[0].ops) as f64,
            engine_events: counts[1]
                .engine_events
                .saturating_sub(counts[0].engine_events) as f64,
        });
    }

    /// The report as one JSON object.
    pub fn to_json(&self) -> Json {
        let cost = |c: &UnitCost| {
            Json::obj([
                ("name", Json::str(&c.name)),
                ("wall_ns", Json::from(c.wall_ns)),
                ("ops", Json::from(c.ops)),
                ("engine_events", Json::from(c.engine_events)),
            ])
        };
        Json::obj([
            ("layer", Json::str(self.layer)),
            (
                "values",
                Json::obj(self.values.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
            ("costs", Json::Arr(self.costs.iter().map(cost).collect())),
            (
                "notes",
                Json::obj(self.notes.iter().map(|(k, v)| (k.clone(), Json::str(v)))),
            ),
            ("spans", self.spans.to_json()),
        ])
    }

    /// Print the report as the driver's one line of output.
    pub fn emit(self) {
        println!("{}", self.to_json());
    }
}

/// A driver's parsed answer, on the runner's side.
#[derive(Clone, Debug, Default)]
pub struct Answer {
    /// Directly measured values.
    pub values: Vec<(String, f64)>,
    /// Unit-cost scenarios.
    pub costs: Vec<UnitCost>,
    /// Notes.
    pub notes: Vec<(String, String)>,
    /// Spans, as the driver wrote them.
    pub spans: Vec<Json>,
}

impl Answer {
    /// Parse the line a driver printed.
    pub fn parse(line: &str) -> Result<Answer, String> {
        let doc = Json::parse(line)?;
        let obj = |k: &str| {
            doc.get(k)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("no {k:?} object"))
        };
        let arr = |k: &str| {
            doc.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("no {k:?} array"))
        };
        let num = |c: &Json, k: &str| {
            c.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cost without {k:?}"))
        };
        Ok(Answer {
            values: obj("values")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            costs: arr("costs")?
                .iter()
                .map(|c| {
                    Ok(UnitCost {
                        name: c
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("cost without a name")?
                            .to_string(),
                        wall_ns: num(c, "wall_ns")?,
                        ops: num(c, "ops")?,
                        engine_events: num(c, "engine_events")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            notes: obj("notes")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
            spans: arr("spans")?.to_vec(),
        })
    }

    /// A directly measured value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A unit-cost scenario.
    pub fn cost(&self, name: &str) -> Option<&UnitCost> {
        self.costs.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_survives_the_argument_vector() {
        let s = Shape {
            app: "umt98".into(),
            cpus: 8,
            policy: "full".into(),
            scale: Some(1.0),
            seed: 7,
            processes: 1,
            dir: "/tmp/x".into(),
            store: "/tmp/x/run.vgvs".into(),
        };
        let back = Shape::parse(&s.to_args()).unwrap();
        assert_eq!(format!("{s:?}"), format!("{back:?}"));
        assert!(Shape::parse(&["--app".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn a_report_reads_back_as_an_answer() {
        let mut r = Report::new("mpi");
        r.value("messages", 300.0);
        r.note("backend", "coroutine");
        let mut calls = 0;
        r.unit_cost("p2p", 50, |rounds| {
            calls += 1;
            Counts {
                ops: 2 * rounds,
                engine_events: 10 + 8 * rounds,
            }
        });
        assert_eq!(calls, 2 * REPEATS);
        let line = r.to_json().to_string();
        let a = Answer::parse(&line).unwrap();
        assert_eq!(a.value("messages"), Some(300.0));
        let c = a.cost("p2p").unwrap();
        assert_eq!(
            (c.ops, c.engine_events),
            (100.0, 400.0),
            "baseline counts subtracted"
        );
        assert_eq!(a.notes, [("backend".to_string(), "coroutine".to_string())]);
        assert_eq!(
            a.spans.len(),
            2 * REPEATS,
            "one span per run of either side"
        );
        assert!(Answer::parse("{}").is_err());
    }
}
