//! # dynprof-vt — the Vampirtrace-analogue instrumentation library
//!
//! The data-collection layer of the VGV toolset (paper §3.1, Fig 3):
//!
//! * [`VtLib`] — function registration (`VT_funcdef`), the
//!   `VT_begin`/`VT_end` fast paths with the activation-table lookup that
//!   makes deactivated probes cheap (but not free), per-rank trace
//!   buffers, statistics, and trace assembly.
//! * [`EventSink`] / [`Lane`] — where events go as they happen when the
//!   run is captured live (a store writer, a profile accumulator) instead
//!   of buffered per rank: a shared half, and one private lane per rank
//!   that an event reaches under no shared lock.
//! * [`VtConfig`] — the configuration file controlling which symbols are
//!   active, with exact and prefix rules.
//! * [`confsync`] — `VT_confsync`, the safe-point protocol for *dynamic
//!   control of instrumentation* (paper §5): breakpoint check, delta
//!   broadcast, optional runtime-statistics dump, re-synchronizing barrier.
//! * [`OverheadController`] — closed-loop adaptive instrumentation: keeps
//!   measured probe overhead inside a user budget by deactivating
//!   overhead-dense probes at safe points and re-probing periodically.
//! * [`VtStaticHooks`] / [`VtMpiHooks`] / [`VtOmpHooks`] — the attachment
//!   points into Guide static instrumentation, the MPI wrapper interface,
//!   and the Guidetrace OpenMP runtime.
//! * [`vt_begin_snippet`] / [`vt_end_snippet`] — the dynamically
//!   insertable probes dynprof places through DPCL.
//! * [`Policy`] — the five instrumentation policies of Table 3.
//! * [`Trace`] / [`Event`] — the time-stamped event model consumed by
//!   `dynprof-analysis`, whose `VGVS` store is the one on-disk format.

#![warn(missing_docs)]

mod config;
mod confsync;
mod controller;
mod event;
mod hooks;
mod policy;
mod sampling;
mod sink;
mod vtlib;

pub use config::{ConfigDelta, ConfigError, VtConfig};
pub use confsync::{confsync, ConfsyncOutcome, MonitorLink, PendingChange, StatsSnapshot};
pub use controller::{ControllerConfig, DecisionRecord, OverheadController};
pub use event::{Event, Trace, VtFuncId};
pub use hooks::{
    configuration_break_snippet, op_from_code, vt_begin_snippet, vt_count_snippet, vt_end_snippet,
    VtImageObserver, VtMpiHooks, VtOmpHooks, VtStaticHooks,
};
pub use policy::{Policy, ALL_POLICIES};
pub use sampling::{sample_image, SampleProfile, SAMPLE_INTERRUPT_COST};
pub use sink::{locked, EventSink, Lane, SharedSink};
pub use vtlib::{FuncStat, FuncStatRow, VtLib};
