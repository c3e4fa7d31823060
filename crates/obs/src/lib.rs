//! # dynprof-obs — self-observability for the dynprof-rs runtime
//!
//! The paper's thesis is that instrumentation should cost nothing where it
//! is absent and a table lookup where it is disabled. This crate applies
//! that same discipline to dynprof-rs itself: a lock-light metrics
//! [`Registry`] (monotonic [`Counter`]s, high-water [`Gauge`]s, fixed
//! log₂-bucket [`Histogram`]s) plus scoped [`Span`]s.
//!
//! ## A run owns its registry
//!
//! A session is given a registry or none (`SessionConfig::metrics`); its
//! engine holds it, and each layer reaches it through its simulated
//! process (`Proc::metrics`) or through the per-run object that owns the
//! site. Hot sites (`vt.events`, `mpi.messages`) resolve their handles
//! once per run and keep them.
//!
//! | State | Cost at an instrumented site |
//! |---|---|
//! | no registry (default) | one load + branch on `None` |
//! | a registry | the relaxed-atomic instrument update |
//!
//! No site charges virtual time, so observing a run or not cannot change
//! any simulated result — the determinism tests assert exactly that. Two
//! runs with two registries share nothing and may run at once.
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
//! use std::sync::Arc;
//! use dynprof_obs as obs;
//!
//! // A site reached through a run that may or may not be observed.
//! fn hot_path(metrics: Option<&obs::Registry>) {
//!     if let Some(m) = metrics {
//!         m.counter("demo.events").inc();
//!     }
//! }
//!
//! let run = Arc::new(obs::Registry::new());
//! hot_path(None); // unobserved: nothing recorded anywhere
//! hot_path(Some(&run));
//! assert_eq!(run.read("demo.events"), Some(obs::MetricValue::Counter(1)));
//! ```
//!
//! ## The process default
//!
//! One registry is process-wide: [`set_enabled`] arms it, and a session
//! given no registry of its own records into it while it is armed
//! ([`process_default`]). [`reset`], [`read`] and [`counter`] act on it.
//! It exists for drivers that observe a whole process from outside the
//! session API; nothing in the workspace's own runs or tests arms it.

#![warn(missing_docs)]

pub mod json;
mod registry;

pub use json::Json;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Metric, MetricValue, Registry, Snapshot, Span,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process default registry (see the crate docs).
fn default_registry() -> &'static Arc<Registry> {
    static DEFAULT: OnceLock<Arc<Registry>> = OnceLock::new();
    DEFAULT.get_or_init(Default::default)
}

/// Whether the process default is armed: a relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm or disarm the process default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process default, if [`set_enabled`] armed it: what a run given no
/// registry of its own records into.
pub fn process_default() -> Option<&'static Arc<Registry>> {
    enabled().then(default_registry)
}

/// Zero every instrument of the process default.
pub fn reset() {
    default_registry().reset();
}

/// Read one metric of the process default by name, without creating it.
pub fn read(name: &str) -> Option<MetricValue> {
    default_registry().read(name)
}

/// The counter `name` of the process default, created on first use.
pub fn counter(name: &'static str) -> Arc<Counter> {
    default_registry().counter(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_is_adopted_only_while_armed() {
        assert!(process_default().is_none(), "disarmed at start");
        set_enabled(true);
        let armed = process_default().expect("armed");
        armed.counter("test.default.runs").inc();
        set_enabled(false);
        assert!(process_default().is_none());
        assert_eq!(read("test.default.runs"), Some(MetricValue::Counter(1)));
        counter("test.default.runs").add(2);
        assert_eq!(read("test.default.runs"), Some(MetricValue::Counter(3)));
        reset();
        assert_eq!(read("test.default.runs"), Some(MetricValue::Counter(0)));
    }
}
