//! The DPCL control plane on its own: attach to one image per process of
//! the workload, then install an entry and an exit probe in each of the
//! subset's functions everywhere and wait for every acknowledgement —
//! once request by request, as the session's multicast path does, and
//! once through an `InstrumentationTxn`. There is no application running
//! and the snippets are no-ops: what is left is the control plane.

#[path = "../app.rs"]
mod app;

use std::sync::Arc;

use benchmark::layer::{Counts, Report, Shape};
use dynprof_core::AppSpec;
use dynprof_dpcl::{DpclClient, DpclSystem, InstrumentationTxn, TxnOptions};
use dynprof_image::{Image, ProbePoint, Snippet};
use dynprof_sim::{Machine, Sim};

/// Attach everywhere, then install probes in the first `funcs` subset
/// functions of every process. With 0 functions only the attach is left.
fn install(app: &AppSpec, processes: usize, funcs: u64, txn: bool, seed: u64) -> Counts {
    let machine = Machine::ibm_power3_colony();
    let instrumenter_node = machine.nodes - 1;
    let images: Vec<Arc<Image>> = (0..processes).map(|_| app.build_image(false)).collect();
    let targets: Vec<_> = app
        .subset
        .iter()
        .filter_map(|n| images[0].func(n))
        .take(funcs as usize)
        .collect();
    let installs = (2 * targets.len() * processes) as u64;
    let nodes: Vec<usize> = (0..processes).map(|r| machine.node_of_rank(r)).collect();
    let sim = Sim::virtual_time(machine, seed);
    let stats = sim.stats();
    let system = DpclSystem::new(["dynprof"]);
    sim.spawn("dynprof", instrumenter_node, move |p| {
        let client = DpclClient::new(system, "dynprof");
        let handles: Vec<_> = images
            .iter()
            .enumerate()
            .map(|(i, image)| {
                client
                    .attach(p, nodes[i], Arc::clone(image), format!("bench:{i}"))
                    .expect("attach without a fault plan")
            })
            .collect();
        let points = targets
            .iter()
            .flat_map(|&f| [ProbePoint::entry(f), ProbePoint::exit(f)]);
        if txn {
            let mut t = InstrumentationTxn::new(TxnOptions::default());
            for point in points {
                for h in &handles {
                    t.stage_install(h, point, Snippet::noop("probe"));
                }
            }
            let outcome = t.execute(p, &client, None, None);
            assert!(
                outcome.is_committed() && outcome.op_failures.is_empty(),
                "txn install failed"
            );
        } else {
            let mut reqs = Vec::new();
            for point in points {
                for h in &handles {
                    reqs.push(client.install_probe(p, h, point, Snippet::noop("probe")));
                }
            }
            let acks = client.wait_all(p, &reqs);
            assert!(acks.iter().all(|(_, a)| a.is_ok()), "install failed");
        }
        client.shutdown(p);
    });
    sim.run();
    Counts {
        ops: installs,
        engine_events: stats.events_dispatched(),
    }
}

fn main() {
    let shape = Shape::from_args();
    let mut report = Report::new("dpcl");
    let app = app::build(&shape, shape.cpus);
    let funcs = app.subset.len() as u64;
    report.unit_cost("install", funcs, |n| {
        install(&app, shape.processes, n, false, shape.seed)
    });
    report.unit_cost("txn_install", funcs, |n| {
        install(&app, shape.processes, n, true, shape.seed)
    });
    report.value("processes", shape.processes as f64);
    report.value("subset_functions", funcs as f64);
    report.emit();
}
