//! # dynprof-sim — simulation kernel
//!
//! The substrate every other `dynprof-rs` crate runs on: a deterministic
//! discrete-event simulator of a clustered SMP machine, on one virtual
//! clock.
//!
//! The paper this workspace reproduces (Thiffault, Voss, Healey, Kim,
//! *Dynamic Instrumentation of Large-Scale MPI and OpenMP Applications*,
//! IPDPS 2003) ran on an IBM Power3 SMP cluster and an IA32 Linux cluster.
//! Both machines are modelled in [`topology`]; the instrumentation cost
//! hierarchy that produces the paper's results is in [`costs`].
//!
//! ## Architecture
//!
//! * [`engine`] — process scheduler and per-process virtual clocks
//!   ([`Sim`], [`Proc`]).
//! * [`fault`] — deterministic seed-driven fault-injection plans.
//! * [`hb`] — happens-before recording and correctness detectors
//!   (armed per run; one branch per site when not).
//! * [`sync`] — latency-aware channels, barriers, gates, work queues.
//! * [`topology`] — machine models (nodes, CPUs, links, daemon delays).
//! * [`costs`] — probe/trace cost models.
//! * [`rng`] — deterministic per-process randomness.
//! * [`stats`] — online statistics for the measurement harnesses.
//!
//! ## Example
//!
//! ```
//! use dynprof_sim::{Machine, Sim, SimTime};
//! use dynprof_sim::sync::SimBarrier;
//! use std::sync::Arc;
//!
//! let sim = Sim::virtual_time(Machine::test_machine(), 42);
//! let bar = Arc::new(SimBarrier::new(4, SimTime::from_micros(3)));
//! for rank in 0..4u64 {
//!     let bar = Arc::clone(&bar);
//!     sim.spawn(format!("rank{rank}"), 0, move |p| {
//!         p.advance(SimTime::from_micros(10 * (rank + 1)));
//!         bar.wait(p);
//!     });
//! }
//! // Everyone leaves at max arrival (40us) + barrier cost (3us).
//! assert_eq!(sim.run(), SimTime::from_micros(43));
//! ```

#![warn(missing_docs)]

pub(crate) mod co;
pub mod costs;
pub mod engine;
pub mod fault;
pub mod hb;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod topology;

pub use co::CarrierError;
pub use costs::ProbeCosts;
pub use engine::{Pid, Proc, ProcBackend, Sim};
pub use fault::{FaultPlan, FaultProfile, FaultSpec};
pub use stats::OnlineStats;
pub use time::SimTime;
pub use topology::{CpuModel, DaemonModel, LinkModel, Machine};
