//! # dynprof — dynamic instrumentation of large-scale MPI and OpenMP applications
//!
//! A complete, simulator-backed reproduction of Thiffault, Voss, Healey &
//! Kim, *Dynamic Instrumentation of Large-Scale MPI and OpenMP
//! Applications* (IPDPS 2003): the `dynprof` tool, the DPCL daemon
//! infrastructure, Dyninst-style image patching, a Vampirtrace-analogue
//! trace library with dynamic control of instrumentation
//! (`VT_confsync`), simulated MPI and OpenMP runtimes, the four ASCI
//! kernel benchmarks, and harnesses regenerating every figure and table
//! in the paper's evaluation.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`sim`] — deterministic discrete-event cluster simulator.
//! * [`mpi`] — simulated MPI with a PMPI-style wrapper interface.
//! * [`omp`] — simulated OpenMP with Guidetrace-style region hooks.
//! * [`image`] — program images, probe points, trampolines.
//! * [`dpcl`] — asynchronous instrumentation daemons.
//! * [`vt`] — the trace library, configuration files, `VT_confsync`.
//! * [`core`] — the dynprof tool: commands, sessions, the Fig-6 protocol.
//! * [`apps`] — the ASCI kernels (Smg98, Sppm, Sweep3d, Umt98).
//! * [`analysis`] — postmortem profiles and ASCII time-lines.
//! * [`obs`] — self-observability: cheap-when-off metrics and spans.
//!
//! The crates layer strictly (arrows read "is depended on by"):
//!
//! ```text
//! obs  <- sim, mpi, dpcl, vt, bench      (leaf; everything may observe)
//! sim  <- mpi, omp, image
//! mpi  <- vt, core, apps, bench
//! omp  <- vt, core, apps, bench
//! image<- dpcl, vt, core, apps
//! dpcl <- core
//! vt   <- core, apps, analysis, bench
//! core <- apps (bench only), bench, examples
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use dynprof::apps::{smg98, Smg98Params};
//! use dynprof::core::{run_session, SessionConfig};
//! use dynprof::sim::Machine;
//! use dynprof::vt::Policy;
//!
//! // Dynamically instrument the multigrid solver subset of a 4-rank
//! // Smg98 run, exactly as the paper's `Dynamic` policy does.
//! let app = smg98(4, Smg98Params::test());
//! let report = run_session(&app, SessionConfig::new(Machine::test_machine(), Policy::Dynamic));
//! assert_eq!(report.probe_pairs_installed, 62 * 4);
//! println!("application time: {}", report.app_time);
//! ```
//!
//! ## Observing the tool itself
//!
//! The instrumentation layers carry their own instrumentation: give a
//! session an [`obs::Registry`] and it reports scheduler, MPI, daemon,
//! and trace-library metrics into it. Observation never advances virtual
//! time, so the simulated results are bit-identical with it or without.
//!
//! ```
//! use std::sync::Arc;
//! use dynprof::apps::{smg98, Smg98Params};
//! use dynprof::core::{run_session, SessionConfig};
//! use dynprof::obs::Registry;
//! use dynprof::sim::Machine;
//! use dynprof::vt::Policy;
//!
//! let metrics = Arc::new(Registry::new());
//! let cfg = SessionConfig {
//!     metrics: Some(Arc::clone(&metrics)),
//!     ..SessionConfig::new(Machine::test_machine(), Policy::Dynamic)
//! };
//! run_session(&smg98(4, Smg98Params::test()), cfg);
//! assert!(metrics.read("sim.events_dispatched").is_some());
//! println!("{}", metrics.dump_json());
//! ```

#![warn(missing_docs)]

pub use dynprof_analysis as analysis;
pub use dynprof_apps as apps;
pub use dynprof_core as core;
pub use dynprof_dpcl as dpcl;
pub use dynprof_image as image;
pub use dynprof_mpi as mpi;
pub use dynprof_obs as obs;
pub use dynprof_omp as omp;
pub use dynprof_sim as sim;
pub use dynprof_vt as vt;
