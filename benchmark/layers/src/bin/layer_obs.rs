//! The program's own observation layer: what a metric site costs while
//! observation is off, which is how the untraced children run.

use std::hint::black_box;

use benchmark::layer::{Counts, Report, Shape};
use dynprof_obs as obs;

/// Sites visited per scenario.
const SITES: u64 = 100_000_000;

fn main() {
    let shape = Shape::from_args();
    let _ = shape;
    let mut report = Report::new("obs");
    obs::set_enabled(false);
    report.unit_cost("disabled_site", SITES, |n| {
        for _ in 0..n {
            if black_box(obs::enabled()) {
                obs::counter("benchmark.never").inc();
            }
        }
        Counts {
            ops: n,
            engine_events: 0,
        }
    });
    report.emit();
}
