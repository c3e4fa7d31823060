//! Regenerate paper Fig 9: dynprof's time to create and instrument each
//! ASCI kernel across processor counts (note Umt98's flat line — OpenMP
//! threads share a single process image).
//!
//! Usage: `fig9 [--json] [--parallel [N]] [--metrics out.json]
//!              [--faults seed[:profile]]
//!              [--degraded-policy abort-txn|exclude-node]
//!              [--overhead-budget pct]`
//!
//! The flags are `dynprof_bench::FigureArgs`'. Under a live `--faults`
//! plan every install is a 2PC transaction, and `--degraded-policy` picks
//! how one reacts to a failed participant.

use dynprof_bench::{fig9, FigureArgs};

fn main() {
    let args = FigureArgs::from_env(&[], true);
    args.emit([fig9(&args.base, args.workers)]);
}
