//! The MPI_Init / VT_init deferral protocol (paper §3.4, Fig 6).
//!
//! Instrumentation cannot be inserted before `MPI_Init` completes on every
//! rank (the Vampirtrace library initializes inside `MPI_Init`, so calling
//! `VT` functions earlier is unsafe). dynprof therefore inserts, at load
//! time, a callback snippet at the end of `MPI_Init`:
//!
//! ```c
//! MPI_Barrier(MPI_COMM_WORLD);   // synchronize after everyone's MPI_Init
//! DPCL_callback();               // tell the instrumenter it is safe
//! DYNVT_spin();                  // wait for the instrumenter's release
//! MPI_Barrier(MPI_COMM_WORLD);   // re-synchronize (releases are skewed)
//! ```
//!
//! For OpenMP applications the snippet is inserted at the end of
//! `VT_init` (statically placed at the start of `main` by the Guide
//! compiler); since that point is single-threaded, no barriers are needed.

use std::sync::Arc;

use dynprof_dpcl::{CallbackSender, DpclClient};
use dynprof_mpi::{Comm, MpiHooks};
use dynprof_sim::sync::SimGate;
use dynprof_sim::{Proc, SimTime};

/// Callback tag used by the init snippet.
pub const INIT_CALLBACK_TAG: u64 = 0xD1;

/// Shared state of the init-deferral protocol: the callback path to the
/// instrumenter and the per-process spin-release gates.
pub struct InitSync {
    sender: CallbackSender,
    gates: Vec<Arc<SimGate>>,
}

impl InitSync {
    /// Protocol state for `processes` target processes, calling back to
    /// `client`.
    pub fn new(client: &DpclClient, processes: usize) -> Arc<InitSync> {
        Arc::new(InitSync {
            sender: client.callback_sender(),
            gates: (0..processes).map(|_| Arc::new(SimGate::new())).collect(),
        })
    }

    /// The MPI hook realizing Fig 6 (install at job launch, *after* the
    /// Vampirtrace hook so VT is initialized when the snippet runs).
    pub fn mpi_hook(self: &Arc<Self>) -> Arc<InitSyncHook> {
        Arc::new(InitSyncHook {
            sync: Arc::clone(self),
        })
    }

    /// The OpenMP-application variant: run at the end of `VT_init`
    /// (paper: callback + spin wait, no barriers — single-threaded point).
    pub fn omp_init(&self, p: &Proc) {
        self.sender.send(p, INIT_CALLBACK_TAG, 0);
        self.gates[0].wait_open(p);
    }

    /// Instrumenter side: block until every process has reached the
    /// callback; returns the reporting ranks.
    pub fn await_ready(&self, client: &DpclClient, p: &Proc) -> Vec<u64> {
        client.recv_callbacks(p, INIT_CALLBACK_TAG, self.gates.len())
    }

    /// Instrumenter side: reset the spin variable in every process. Each
    /// release is a separate daemon write and "may incur differing delays
    /// for each target process" — hence the second barrier in the snippet.
    pub fn release_all(&self, p: &Proc) {
        let d = p.machine().daemon;
        for gate in &self.gates {
            p.advance(dynprof_dpcl::CLIENT_SEND_COST);
            gate.open(p, d.base_delay + p.jitter(d.jitter));
        }
    }
}

/// [`MpiHooks`] implementation carrying the Fig-6 snippet.
pub struct InitSyncHook {
    sync: Arc<InitSync>,
}

impl MpiHooks for InitSyncHook {
    fn on_init(&self, p: &Proc, comm: &Comm) {
        // begin dynamically inserted code (Fig 6):
        comm.barrier(p);
        self.sync
            .sender
            .send(p, INIT_CALLBACK_TAG, comm.rank() as u64);
        // DYNVT_spin(): poll the spin variable. The gate wait models the
        // blocking; a small charge models the polling loop's wake-up.
        self.sync.gates[comm.rank()].wait_open(p);
        p.advance(SimTime::from_micros(1));
        comm.barrier(p);
        // end dynamically inserted code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_dpcl::DpclSystem;
    use dynprof_mpi::{launch, JobSpec};
    use dynprof_sim::{Machine, Sim};
    use parking_lot::Mutex;

    /// The full Fig-6 dance: ranks block in MPI_Init until the
    /// instrumenter has heard from everyone and released the spins; the
    /// second barrier re-aligns the skewed releases.
    #[test]
    fn ranks_leave_init_together_after_release() {
        let sim = Sim::virtual_time(Machine::test_machine(), 21);
        let system = DpclSystem::new(["u"]);
        let exits = Arc::new(Mutex::new(Vec::new()));

        // The client lives on the instrumenter; publish InitSync for the job.
        let client = Arc::new(DpclClient::new(system, "u"));
        let sync = InitSync::new(&client, 4);

        let (s2, e2) = (Arc::clone(&sync), Arc::clone(&exits));
        launch(
            &sim,
            JobSpec::new("app", 4),
            vec![s2.mpi_hook()],
            move |p, c| {
                c.init(p);
                e2.lock().push((c.rank(), p.now()));
                c.finalize(p);
            },
        );

        let (c2, s3) = (Arc::clone(&client), Arc::clone(&sync));
        sim.spawn("instrumenter", 3, move |p| {
            let ranks = s3.await_ready(&c2, p);
            assert_eq!(ranks.len(), 4);
            // "Instrument" for a while, then release.
            p.advance(SimTime::from_millis(40));
            s3.release_all(p);
        });
        sim.run();

        let exits = exits.lock();
        assert_eq!(exits.len(), 4);
        let min = exits.iter().map(|&(_, t)| t).min().unwrap();
        let max = exits.iter().map(|&(_, t)| t).max().unwrap();
        // All ranks leave MPI_Init nearly together (barrier re-sync), and
        // only after the instrumenter's 40 ms of work.
        assert!(
            min >= SimTime::from_millis(40),
            "left before release: {min}"
        );
        assert!(
            max.saturating_sub(min) < SimTime::from_millis(1),
            "resync failed: spread {min}..{max}"
        );
    }

    #[test]
    fn omp_variant_needs_single_release() {
        let sim = Sim::virtual_time(Machine::test_machine(), 22);
        let system = DpclSystem::new(["u"]);
        let client = Arc::new(DpclClient::new(system, "u"));
        let sync = InitSync::new(&client, 1);
        let done = Arc::new(Mutex::new(SimTime::ZERO));

        let (s2, d2) = (Arc::clone(&sync), Arc::clone(&done));
        sim.spawn("umt98", 1, move |p| {
            s2.omp_init(p); // callback + spin, no barriers
            *d2.lock() = p.now();
        });
        let (c2, s3) = (client, sync);
        sim.spawn("instrumenter", 0, move |p| {
            s3.await_ready(&c2, p);
            p.advance(SimTime::from_millis(10));
            s3.release_all(p);
        });
        sim.run();
        assert!(*done.lock() >= SimTime::from_millis(10));
    }
}
