//! The OpenMP runtime on its own: what one fork-join of the workload's
//! team costs, with no hooks installed.

use benchmark::layer::{Counts, Report, Shape};
use dynprof_omp::OmpRuntime;
use dynprof_sim::{Machine, Sim, SimTime};

/// Parallel regions the scenario runs.
const REGIONS: u64 = 4_000;

fn team(threads: usize, regions: u64, seed: u64) -> Counts {
    let sim = Sim::virtual_time(Machine::ibm_power3_colony(), seed);
    let stats = sim.stats();
    sim.spawn("app", 0, move |p| {
        let rt = OmpRuntime::new(p, "app", threads, vec![]);
        for _ in 0..regions {
            rt.parallel(p, "region", |ctx| ctx.proc.advance(SimTime::from_micros(5)));
        }
        rt.shutdown(p);
    });
    sim.run();
    Counts {
        ops: regions,
        engine_events: stats.events_dispatched(),
    }
}

fn main() {
    let shape = Shape::from_args();
    let mut report = Report::new("omp");
    // The OpenMP workload's team; an MPI workload runs no region, and gets
    // the unit cost at the paper's 8-way node.
    let threads = if shape.processes == 1 { shape.cpus } else { 8 };
    report.unit_cost("forkjoin", REGIONS, |n| team(threads, n, shape.seed));
    report.value("threads", threads as f64);
    report.emit();
}
