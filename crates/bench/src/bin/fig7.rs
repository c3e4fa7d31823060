//! Regenerate paper Fig 7 (a–d): execution time of the instrumented ASCI
//! kernels under the five Table-3 policies.
//!
//! Usage: `fig7 [--app smg98|sppm|sweep3d|umt98] [--json] [--parallel [N]]
//!              [--metrics out.json] [--faults seed[:profile]]
//!              [--degraded-policy abort-txn|exclude-node]
//!              [--overhead-budget pct]`
//!
//! `--app` regenerates one panel; the other flags are
//! `dynprof_bench::FigureArgs`'. Under a live `--faults` plan every
//! install is a 2PC transaction, and `--degraded-policy` picks how one
//! reacts to a failed participant.

use dynprof_bench::{fig7, usage_error, FigureArgs};

const APPS: [&str; 4] = ["smg98", "sppm", "sweep3d", "umt98"];

fn main() {
    let args = FigureArgs::from_env(&["--app"], true);
    let mut apps = APPS.to_vec();
    for (_, app) in &args.own {
        if !APPS.contains(&app.as_str()) {
            usage_error(&format!("unknown app {app:?} (smg98|sppm|sweep3d|umt98)"));
        }
        apps = vec![app.as_str()];
    }
    args.emit(
        apps.into_iter()
            .map(|app| fig7(&args.base, app, args.workers)),
    );
}
