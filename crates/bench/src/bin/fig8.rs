//! Regenerate paper Fig 8 (a–c): the cost of dynamic control of
//! instrumentation (`VT_confsync`).
//!
//! Usage: `fig8 [--part a|b|c] [--runs N] [--json] [--parallel [N]]
//!              [--metrics out.json] [--faults seed[:profile]]`
//! (default: all parts, 16 runs per point — the paper's averaging).
//!
//! The flags after `--runs` are `dynprof_bench::FigureArgs`'. The
//! confsync experiments install no probes, so `--degraded-policy` and
//! `--overhead-budget` are not arguments here.

use dynprof_bench::{fig8a, fig8b, fig8c, usage_error, FigureArgs};

fn main() {
    let args = FigureArgs::from_env(&["--part", "--runs"], false);
    let mut parts = vec!['a', 'b', 'c'];
    let mut runs = 16usize;
    for (flag, value) in &args.own {
        if flag == "--part" {
            parts = value.chars().take(1).collect();
        } else {
            runs = value
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("bad --runs value {value:?}")));
        }
    }
    let (base, workers) = (&args.base, args.workers);
    args.emit(parts.into_iter().map(|part| match part {
        'a' => fig8a(base, runs, workers),
        'b' => fig8b(base, runs, workers),
        'c' => fig8c(base, runs, workers),
        other => usage_error(&format!("unknown part {other:?}")),
    }));
}
