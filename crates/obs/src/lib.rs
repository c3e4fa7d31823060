//! # dynprof-obs — self-observability for the dynprof-rs runtime
//!
//! The paper's thesis is that instrumentation should cost nothing where it
//! is absent and a table lookup where it is disabled. This crate applies
//! that same discipline to dynprof-rs itself: a lock-light metrics
//! registry (monotonic [`Counter`]s, high-water [`Gauge`]s, fixed
//! log₂-bucket [`Histogram`]s) plus scoped [`Span`]s, all gated behind one
//! global enable flag.
//!
//! ## The cost hierarchy, applied to ourselves
//!
//! | State | Cost at an instrumented site |
//! |---|---|
//! | flag off (default) | one relaxed atomic load + branch |
//! | flag on | the relaxed-atomic instrument update |
//!
//! Hot layers (`sim::engine`, `mpi`, `dpcl`, `vt`) guard every metric site
//! with `if obs::enabled()` and **never** charge virtual time for it, so
//! turning observation on or off cannot change any simulated result — the
//! determinism tests assert exactly that.
//!
//! ## Naming convention
//!
//! Metric names are dot-separated, lower-case, and owned by the layer that
//! records them (`sim.events_dispatched`, `mpi.bytes`,
//! `dpcl.install_latency_ns`, `vt.events`). Names containing `real` carry
//! **wall-clock** (nondeterministic) values; everything else is derived
//! from the virtual clock or event counts and is bit-reproducible for a
//! fixed seed. [`Snapshot::deterministic`] filters on that convention.
//!
//! ## Usage
//!
//! ```
//! use std::sync::OnceLock;
//! use dynprof_obs as obs;
//!
//! static EVENTS: OnceLock<&'static obs::Counter> = OnceLock::new();
//!
//! fn hot_path() {
//!     if obs::enabled() {
//!         EVENTS.get_or_init(|| obs::counter("demo.events")).inc();
//!     }
//! }
//!
//! obs::reset();
//! hot_path(); // flag off: no metric recorded
//! obs::set_enabled(true);
//! hot_path();
//! assert_eq!(obs::counter("demo.events").get(), 1);
//! obs::set_enabled(false);
//! ```
//!
//! The registry is process-global: a metrics dump ([`dump_json`])
//! aggregates everything recorded since the last [`reset`], across all
//! threads — including the parallel figure runner's workers.

#![warn(missing_docs)]

pub mod json;
mod registry;

pub use json::Json;
pub use registry::{
    counter, dump_json, gauge, histogram, read, reset, snapshot, span, Counter, Gauge, Histogram,
    HistogramSnapshot, Metric, MetricValue, Snapshot, Span,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric sites should record. The hot-path check: a relaxed
/// atomic load and branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn runtime observation on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
