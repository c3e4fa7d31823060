//! The dynprof-rs session benchmark.
//!
//! End-to-end numbers come from driving the built product binaries as
//! child processes ([`run`]); per-layer numbers come from a separate
//! traced run ([`trace`]) that starts the layer drivers of the `layers/`
//! package. This crate links none of the product's crates. See
//! `benchmark/README.md` for the metric glossary and how to read a result.

#![warn(missing_docs)]

pub mod child;
pub mod compare;
pub mod host;
pub mod json;
pub mod layer;
pub mod metrics;
pub mod parse;
pub mod run;
pub mod span;
pub mod stats;
pub mod trace;
pub mod workloads;
