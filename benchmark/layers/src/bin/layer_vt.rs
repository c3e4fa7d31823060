//! The trace library on its own: recording an event, the lookup a
//! deactivated probe pays, and a `VT_confsync` safe point at the
//! workload's rank count.

use benchmark::layer::{Counts, Report, Shape};
use dynprof_mpi::{launch, JobSpec};
use dynprof_sim::{Machine, ProbeCosts, Sim};
use dynprof_vt::{confsync, MonitorLink, VtConfig, VtLib};

/// Begin/end pairs per record or lookup scenario.
const PAIRS: u64 = 500_000;
/// Safe points (summed over ranks) the confsync scenario aims for.
const TARGET_SYNCS: u64 = 20_000;

/// One process calling `VT_begin`/`VT_end` `pairs` times under `config`.
fn begin_end(config: VtConfig, pairs: u64, seed: u64) -> Counts {
    let sim = Sim::virtual_time(Machine::ibm_power3_colony(), seed);
    let stats = sim.stats();
    sim.spawn("app", 0, move |p| {
        let vt = VtLib::new("bench", 1, config, ProbeCosts::power3());
        vt.init(p, 0);
        let f = vt.funcdef(p, "hot");
        for _ in 0..pairs {
            vt.begin(p, 0, 0, f, 1);
            vt.end(p, 0, 0, f);
        }
        std::hint::black_box(vt.trace_bytes(0));
    });
    sim.run();
    Counts {
        ops: 2 * pairs,
        engine_events: stats.events_dispatched(),
    }
}

/// `ranks` ranks passing `rounds` safe points with nothing pending.
fn safe_points(ranks: usize, rounds: u64, seed: u64) -> Counts {
    let sim = Sim::virtual_time(Machine::ibm_power3_colony(), seed);
    let stats = sim.stats();
    let vt = VtLib::new("bench", ranks, VtConfig::all_on(), ProbeCosts::power3());
    let monitor = MonitorLink::new();
    launch(&sim, JobSpec::new("bench", ranks), vec![], move |p, c| {
        c.init(p);
        vt.init(p, c.rank());
        for _ in 0..rounds {
            confsync(&vt, &monitor, p, c, false);
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
    let mut report = Report::new("vt");
    report.unit_cost("record", PAIRS, |n| {
        begin_end(VtConfig::all_on(), n, shape.seed)
    });
    report.unit_cost("lookup", PAIRS, |n| {
        begin_end(VtConfig::all_off(), n, shape.seed)
    });
    let ranks = shape.processes.max(8);
    let rounds = (TARGET_SYNCS / ranks as u64).max(1);
    report.unit_cost("confsync", rounds, |n| safe_points(ranks, n, shape.seed));
    report.value("ranks", ranks as f64);
    report.emit();
}
