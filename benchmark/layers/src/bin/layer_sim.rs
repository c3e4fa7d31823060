//! The engine on its own, at the workload's process count: what one
//! dispatched event costs and what one process costs to create, finish
//! and unmap. Every other driver's self cost is its wall time minus the
//! events it dispatched at the price measured here.

use benchmark::layer::{Counts, Report, Shape};
use dynprof_sim::{Machine, ProcBackend, Sim, SimTime};

/// Events the scenario aims to dispatch.
const TARGET_EVENTS: u64 = 400_000;

/// `procs` processes, each sleeping `rounds` times: one timer event per
/// sleep and nothing else, so what is timed is the engine's own work to
/// queue an event, block a process, dispatch and resume it. With 0 rounds
/// only the processes' lifecycle is left.
fn sleepers(procs: usize, rounds: u64, seed: u64) -> Counts {
    let machine = Machine::ibm_power3_colony();
    let nodes = machine.nodes;
    let sim = Sim::virtual_time(machine, seed);
    let stats = sim.stats();
    for i in 0..procs {
        sim.spawn(format!("sleeper{i}"), (i / 8) % nodes, move |p| {
            for _ in 0..rounds {
                p.sleep(SimTime::from_micros(1 + (i % 7) as u64));
            }
        });
    }
    sim.run();
    // The operation costed here is the dispatch itself.
    Counts {
        ops: stats.events_dispatched(),
        engine_events: stats.events_dispatched(),
    }
}

fn main() {
    let shape = Shape::from_args();
    let mut report = Report::new("sim");
    // The session's own processes: ranks, or the OpenMP team and its master.
    let procs = if shape.processes > 1 {
        shape.processes
    } else {
        shape.cpus + 1
    };
    let rounds = (TARGET_EVENTS / procs as u64).max(1);
    report.unit_cost("dispatch", rounds, |n| sleepers(procs, n, shape.seed));

    // The two sides of the differential are this layer's two unit costs:
    // the baseline is pure lifecycle, the difference is pure dispatch.
    let baseline = report
        .spans
        .spans()
        .iter()
        .filter(|s| s.name == "dispatch/baseline")
        .map(|s| s.end_ns - s.start_ns)
        .min()
        .expect("unit_cost ran the baseline");
    report.value(
        "sim.proc_lifecycle_us",
        baseline as f64 * 1e-3 / procs as f64,
    );
    report.value("procs", procs as f64);
    report.note(
        "proc_backend",
        format!("{:?}", ProcBackend::default_backend()),
    );
    report.emit();
}
