//! # dynprof-mpi — a simulated MPI runtime
//!
//! Message passing for simulated processes: communicators, typed
//! point-to-point messaging with eager/rendezvous protocols, binomial-tree
//! collectives, and a PMPI-style wrapper interface ([`MpiHooks`]) through
//! which the Vampirtrace layer observes every call — exactly the
//! interposition point the paper's VGV toolset uses (§3.1).
//!
//! Jobs are launched with [`launch`] (or [`launch_from`] inside a running
//! process, as the dynprof tool does via `poe`), optionally *held* at
//! their first instruction behind a gate so an instrumenter can patch
//! their images before `start`.
//!
//! ```
//! use dynprof_mpi::{launch, JobSpec, Tag, Source, TagSel};
//! use dynprof_sim::{Machine, Sim};
//!
//! let sim = Sim::virtual_time(Machine::test_machine(), 1);
//! launch(&sim, JobSpec::new("hello", 2), vec![], |p, comm| {
//!     comm.init(p);
//!     if comm.rank() == 0 {
//!         comm.send(p, 1, Tag::user(0), 123u64);
//!     } else {
//!         let (v, _) = comm.recv::<u64>(p, Source::Rank(0), TagSel::Any);
//!         assert_eq!(v, 123);
//!     }
//!     comm.finalize(p);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

mod collectives;
mod comm;
mod data;
mod hooks;
mod job;
mod nonblocking;
mod types;

pub use comm::Comm;
pub use data::{MpiData, Sized};
pub use hooks::{HookChain, MpiHooks};
pub use job::{launch, launch_from, Job, JobSpec};
pub use nonblocking::SendRequest;
pub use types::{MpiOp, Source, Status, Tag, TagSel};
