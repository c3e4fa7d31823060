//! # dynprof-core — the dynprof tool
//!
//! The paper's primary contribution (§3): a DPCL-based dynamic
//! instrumenter for mixed MPI/OpenMP applications, for use with the
//! Vampirtrace/GuideView toolset.
//!
//! * [`Command`] — the scriptable command language of Table 1
//!   (`insert`, `remove`, `insert-file`, `remove-file`, `start`, `quit`,
//!   `wait`, `help`).
//! * [`InitSync`] — the `MPI_Init` deferral protocol of Fig 6 (barrier,
//!   `DPCL_callback`, `DYNVT_spin`, barrier) and its barrier-free
//!   `VT_init` variant for OpenMP programs.
//! * [`AppSpec`] — what dynprof sees of a target application; the four
//!   ASCI kernels in `dynprof-apps` are provided in this form.
//! * [`run_session`] — execute one instrumented run under any Table 3
//!   policy, returning the paper's measurements (application time,
//!   create/instrument times, trace volume).
//! * [`Timefile`] — dynprof's internal-operation timing log (§3.3).

#![warn(missing_docs)]

mod app;
mod command;
mod initsync;
mod session;
mod timefile;

pub use app::{AppBody, AppCtx, AppMode, AppSpec};
pub use command::{Command, ParseError, HELP_TEXT};
pub use initsync::{InitSync, InitSyncHook, INIT_CALLBACK_TAG};
pub use session::{
    run_attach_session, run_session, RecvCost, SessionConfig, SessionReport, TxnSettings, POE_BASE,
    POE_PER_PROC,
};
pub use timefile::{Timefile, TimefileEntry};
