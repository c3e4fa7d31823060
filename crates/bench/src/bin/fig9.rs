//! Regenerate paper Fig 9: dynprof's time to create and instrument each
//! ASCI kernel across processor counts (note Umt98's flat line — OpenMP
//! threads share a single process image).
//!
//! Usage: `fig9 [--json] [--parallel [N]] [--metrics out.json]
//!              [--faults seed[:profile]] [--txn]
//!              [--degraded-policy abort-txn|exclude-node]
//!              [--overhead-budget pct]`
//!
//! The flags are `dynprof_bench::FigureArgs`'.

use dynprof_bench::{fig9, FigureArgs};

fn main() {
    let args = FigureArgs::from_env(&[], true);
    args.emit([fig9(&args.base, args.workers)]);
}
