//! The MPI layer on its own, with no hooks installed, at the workload's
//! rank count: a nearest-neighbour exchange (the shape of sweep3d's
//! wavefront and smg98's halo traffic) and an allreduce.

use benchmark::layer::{Counts, Report, Shape};
use dynprof_mpi::{launch, JobSpec, Sized, Source, Tag, TagSel};
use dynprof_sim::{Machine, Sim};

/// Messages (and, separately, allreduce calls) a scenario aims for.
const TARGET_OPS: u64 = 100_000;

/// Which operation a job repeats.
#[derive(Clone, Copy)]
enum Op {
    /// Send to the next rank, receive from the previous: one message each.
    Exchange,
    /// One allreduce: one collective call per rank.
    Allreduce,
}

fn job(ranks: usize, rounds: u64, op: Op, seed: u64) -> Counts {
    let sim = Sim::virtual_time(Machine::ibm_power3_colony(), seed);
    let stats = sim.stats();
    launch(&sim, JobSpec::new("bench", ranks), vec![], move |p, c| {
        c.init(p);
        let (next, prev) = ((c.rank() + 1) % ranks, (c.rank() + ranks - 1) % ranks);
        for r in 0..rounds {
            match op {
                Op::Exchange => {
                    c.send(p, next, Tag::user(1), Sized::new(r, 2048));
                    std::hint::black_box(c.recv::<Sized<u64>>(
                        p,
                        Source::Rank(prev),
                        TagSel::Is(Tag::user(1)),
                    ));
                }
                Op::Allreduce => {
                    std::hint::black_box(c.allreduce(p, c.rank() as u64, |a, b| a + b));
                }
            }
        }
        c.finalize(p);
    });
    sim.run();
    Counts {
        ops: ranks as u64 * rounds,
        engine_events: stats.events_dispatched(),
    }
}

fn main() {
    let shape = Shape::from_args();
    let mut report = Report::new("mpi");
    // A workload without MPI still gets the unit costs, at a small job;
    // its exact counts are 0, so its busy estimate is too.
    let ranks = shape.processes.max(8);
    let rounds = (TARGET_OPS / ranks as u64).max(1);
    report.unit_cost("p2p", rounds, |n| job(ranks, n, Op::Exchange, shape.seed));
    report.unit_cost("allreduce", rounds, |n| {
        job(ranks, n, Op::Allreduce, shape.seed)
    });
    report.value("ranks", ranks as f64);
    report.emit();
}
