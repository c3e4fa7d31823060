//! Dynamic control of instrumentation (paper §2, §5, Fig 2).
//!
//! A statically instrumented application starts with all probes disabled
//! by its configuration file (the `Full-Off` state), computes in phases,
//! and calls `VT_confsync` at the safe point between phases. Mid-run, the
//! monitoring tool posts a configuration change that activates only the
//! solver symbols — so phase 2 is traced while phase 1 was not — and a
//! second safe point writes runtime statistics (Experiment 3).
//!
//! Run with: `cargo run --example dynamic_control`

use std::sync::Arc;

use dynprof::mpi::{launch, JobSpec};
use dynprof::sim::{Machine, Sim, SimTime};
use dynprof::vt::{confsync, ConfigDelta, MonitorLink, VtConfig, VtLib};

fn main() {
    let ranks = 4;
    let machine = Machine::ibm_power3_colony();
    // Compile-time state: everything instrumented, everything off.
    let vt = VtLib::new("phased-solver", ranks, VtConfig::all_off(), machine.probe);
    let monitor = MonitorLink::new();

    // The user, through the monitoring tool's GUI, queues a change: turn
    // the solver symbols on at the next safe point. The 1.5 s response
    // delay models the human at the breakpoint (paper §5: "the user's
    // monitoring interface will be the critical path component").
    monitor.post_change(
        ConfigDelta::Set(vec![("solve_".to_string() + "*", true)]),
        SimTime::from_millis(1500),
    );

    let sim = Sim::virtual_time(machine, 7);
    let (vt2, mon2) = (Arc::clone(&vt), Arc::clone(&monitor));
    launch(
        &sim,
        JobSpec::new("phased-solver", ranks),
        vec![Arc::clone(&vt) as _],
        move |p, comm| {
            comm.init(p);
            let solve = vt2.funcdef(p, "solve_pressure");
            let io = vt2.funcdef(p, "write_checkpoint");
            let phase = |label: &str| {
                // One computation phase: 50 solver calls + one I/O call.
                for _ in 0..50 {
                    vt2.begin(p, comm.rank(), 0, solve, 1);
                    p.advance(SimTime::from_millis(2));
                    vt2.end(p, comm.rank(), 0, solve);
                }
                vt2.begin(p, comm.rank(), 0, io, 1);
                p.advance(SimTime::from_millis(5));
                vt2.end(p, comm.rank(), 0, io);
                let _ = label;
            };

            phase("one"); // probes off: only table lookups
            let out = confsync(&vt2, &mon2, p, comm, false);
            if comm.rank() == 0 {
                println!(
                    "safe point 1: epoch {} ({} symbols flipped)",
                    out.epoch, out.functions_changed
                );
            }
            phase("two"); // solver probes now live
            let out = confsync(&vt2, &mon2, p, comm, true); // + statistics
            if comm.rank() == 0 {
                println!("safe point 2: epoch {} (stats written)", out.epoch);
            }
            comm.finalize(p);
        },
    );
    let makespan = sim.run();

    println!("\nrun finished at {makespan}");
    let trace = vt.build_trace();
    let solve_events = trace
        .events
        .iter()
        .filter(|e| {
            matches!(e,
                dynprof::vt::Event::FuncEnter { func, .. }
                if trace.func_name(*func) == "solve_pressure")
        })
        .count();
    println!(
        "solve_pressure enter-events in the trace: {solve_events} \
         (phase 2 only: 50 calls x {ranks} ranks)"
    );
    assert_eq!(solve_events, 50 * ranks);

    for snap in monitor.snapshots() {
        println!(
            "statistics snapshot at {}: {} ranks, {} rows",
            snap.t,
            snap.per_rank.len(),
            snap.total_rows()
        );
    }
}
