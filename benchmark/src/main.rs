//! `benchmark`: run one workload (or all four) and print its metrics, or
//! compare two result sets. `benchmark/run.sh` builds everything and then
//! calls this.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use benchmark::compare;
use benchmark::host;
use benchmark::json::Json;
use benchmark::metrics::{Kind, Values};
use benchmark::run::{Measured, Runner, Sentinel};
use benchmark::stats::Summary;
use benchmark::trace;
use benchmark::workloads::{self, Workload, WORKLOADS};

const USAGE: &str = "\
usage: benchmark --bin-dir DIR [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--quick] [--out DIR] [--rustc VERSION] [--git-sha SHA]
       benchmark compare A B

  --bin-dir DIR    directory holding the built dynprof, vgv and layer_* binaries
  --workload NAME  one of the four workloads (default: all four in turn)
  --seed N         passed to every session as seed=N; picks the ranked slice (default 42)
  --seconds S      length of the timed loop (default 20)
  --trace 0|1      0: end-to-end metrics from untraced children (default)
                   1: per-layer metrics from the traced run
  --quick          smoke test: 64/8/64/64 ranks, one set-up, two samples, same checks
  --out DIR        where result files go (default benchmark/results)
  compare A B      compare result files or directories of them; exit 1 on a regression
";

struct Args {
    bin_dir: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    rustc: String,
    git_sha: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        bin_dir: PathBuf::new(),
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/results"),
        rustc: "unknown".to_string(),
        git_sha: "unknown".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--bin-dir" => a.bin_dir = PathBuf::from(value),
            "--workload" => {
                a.workload = Some(workloads::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {names:?})")
                })?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            "--rustc" => a.rustc = value.clone(),
            "--git-sha" => a.git_sha = value.clone(),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if a.bin_dir.as_os_str().is_empty() {
        return Err("--bin-dir is required".to_string());
    }
    Ok(a)
}

/// A fresh directory removed when dropped, also on the error paths.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create(path: PathBuf) -> Result<TmpDir, String> {
        // A leftover of a killed run with a recycled pid is not ours to keep.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TmpDir(path))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_metrics(values: &Values) {
    for (def, value) in values.rows() {
        let kind = match def.kind {
            Kind::Host => "host time",
            Kind::Memory => "host memory",
            Kind::Simulated => "simulated",
            Kind::Exact => "exact",
        };
        println!(
            "  {:<34} {:>16} {:<9} ({kind})",
            def.name,
            compare::fmt_value(value),
            def.unit
        );
    }
}

fn diagnostics(m: &Measured, sentinel: &Sentinel) -> Json {
    let summary = |v: &[f64]| Summary::of(v).map_or(Json::Null, |s| s.to_json());
    Json::obj([
        ("session_wall_s", summary(&m.session_walls())),
        ("query_wall_s", summary(&m.query_walls())),
        (
            "setup_s",
            Json::Arr(m.setup_s.iter().map(|v| Json::from(*v)).collect()),
        ),
        ("sentinel_ms", summary(&sentinel.samples_ms)),
    ])
}

/// Run one workload and print its result. A run whose outputs were wrong
/// still ends normally: the failure is in its result line.
fn run_workload(a: &Args, w: &'static Workload) -> Result<(), String> {
    let cpus = if a.quick { w.quick_cpus } else { w.cpus };
    let bin_dir = std::fs::canonicalize(&a.bin_dir)
        .map_err(|e| format!("--bin-dir {}: {e}", a.bin_dir.display()))?;
    // Inside the build directory, so inside the checkout, on the same
    // filesystem as everything else the run touches.
    let tmp =
        TmpDir::create(bin_dir.join(format!("../bench_tmp/{}-{}", w.name, std::process::id())))?;
    let fingerprint = host::fingerprint(&tmp.0, &a.rustc, &a.git_sha);

    let mut runner = Runner::new(w, cpus, a.seed, bin_dir, tmp.0.clone())?;
    // The traced run spends half its time on the untraced children (the
    // `session.*` rows) and the rest on the layer drivers.
    let seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let (reps, samples) = if a.quick {
        (1, Some(2))
    } else {
        (w.setup_reps, None)
    };
    let measured = runner.measure(reps, seconds, samples)?;

    let end_to_end = measured.end_to_end();
    let mut doc = vec![
        ("schema", Json::str(compare::SCHEMA)),
        ("workload", Json::str(w.name)),
        ("cpus", Json::from(u64::from(cpus))),
        ("seed", Json::from(a.seed)),
        ("seconds", Json::from(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("quick", Json::Bool(a.quick)),
    ];
    let mut unavailable = Vec::new();
    let values = if a.trace {
        let traced = trace::run(&mut runner, &measured, &end_to_end)?;
        doc.push(("layers", traced.layers));
        doc.push(("spans", traced.spans));
        doc.push(("end_to_end", end_to_end.to_json()));
        unavailable = traced.unavailable;
        traced.values
    } else {
        end_to_end
    };
    let (ops, sentinel) = (&runner.ops, &runner.sentinel);
    let correct = ops.failed == 0;
    let noisy = sentinel.noisy();
    let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
    doc.extend([
        ("correct", Json::Bool(correct)),
        ("ops_attempted", Json::from(ops.attempted)),
        ("ops_failed", Json::from(ops.failed)),
        ("violations", strings(&ops.violations)),
        ("unavailable", strings(&unavailable)),
        ("noisy", Json::Bool(noisy)),
        ("sentinel_p25_ms", Json::from(sentinel.p25_ms())),
        ("sentinel_spread_pct", Json::from(100.0 * sentinel.spread())),
        ("fingerprint", fingerprint),
        ("diagnostics", diagnostics(&measured, sentinel)),
        ("metrics", values.to_json()),
    ]);

    let kind = if a.trace { "trace" } else { "e2e" };
    let file = a.out.join(format!("{}.seed{}.{kind}.json", w.name, a.seed));
    std::fs::create_dir_all(&a.out).map_err(|e| format!("creating {}: {e}", a.out.display()))?;
    std::fs::write(&file, Json::obj(doc).pretty())
        .map_err(|e| format!("writing {}: {e}", file.display()))?;

    println!(
        "{} (cpus={cpus} seed={} {}): {} session and {} query-set samples, {} set-ups",
        w.name,
        a.seed,
        if a.trace {
            "traced run, per-layer metrics"
        } else {
            "untraced children, end-to-end metrics"
        },
        measured.sessions.len(),
        measured.queries.len(),
        measured.setup_s.len(),
    );
    print_metrics(&values);
    for u in &unavailable {
        println!("  {u}");
    }
    println!(
        "  ops: {} attempted, {} failed; sentinel p25 {:.3} ms, spread {:.1} %{}",
        ops.attempted,
        ops.failed,
        sentinel.p25_ms(),
        100.0 * sentinel.spread(),
        if noisy {
            " -- NOISY: retake this run"
        } else {
            ""
        },
    );
    for v in &ops.violations {
        println!("  violation: {v}");
    }
    println!("  result file: {}", file.display());
    // The contract's result line: exactly these four keys, last on stdout.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(ops.attempted)),
            ("failed", Json::from(ops.failed)),
            ("metrics", values.to_json()),
        ])
    );
    Ok(())
}

fn compare_sets(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let rows = compare::compare(&compare::load(a)?, &compare::load(b)?);
    if rows.is_empty() {
        return Err("the two sets share no workload".to_string());
    }
    print!("{}", compare::render(&rows));
    let worse = compare::regressions(&rows);
    println!("{} rows, {worse} end-to-end regression(s)", rows.len());
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare_sets(Path::new(a), Path::new(b)),
            _ => Err("compare takes two paths".to_string()),
        },
        // The host-speed witness runs as a child of this binary.
        Some("sentinel") => {
            println!("{:016x}", benchmark::run::sentinel_work());
            return ExitCode::SUCCESS;
        }
        _ if argv.iter().any(|a| a == "--help" || a == "-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(|a| {
            let chosen: Vec<&'static Workload> =
                a.workload.map_or(WORKLOADS.iter().collect(), |w| vec![w]);
            for w in chosen {
                run_workload(&a, w)?;
            }
            Ok(ExitCode::SUCCESS)
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
