//! # dynprof-check — correctness analysis for the dynprof workspace
//!
//! Four layers of defence around the instrumentation machinery the paper
//! (Thiffault et al., IPDPS 2003) describes:
//!
//! * **Happens-before checking** (`dynprof_sim::hb`, re-exported as
//!   [`hb`]): vector clocks threaded through every simulator
//!   synchronization primitive detect collective mismatches, unmatched
//!   sends, barrier-participation divergence, and confsync epochs applied
//!   out of order (paper §5's safe-point invariant). A run records only
//!   when [`dynprof_sim::Sim::enable_check`] arms it.
//! * **Probe-safety static analysis** ([`analyzer`]): a pass over a
//!   program's function manifest *before* any instrumentation is
//!   installed, flagging probe points that cannot legally hold a patch,
//!   double instrumentation, duplicate symbols, and snippet chains that
//!   blow a cost budget.
//! * **Snippet-program verification** ([`verify`]): a finding-typed
//!   facade over the abstract interpreter in `dynprof_image::ir`,
//!   rejecting instrumentation programs with unbounded loops,
//!   out-of-region accesses, or unbalanced timers before they reach a
//!   daemon.
//! * **Determinism source lint** ([`lint`]): a token-level scan of the
//!   workspace sources for constructs that would break the simulator's
//!   bit-for-bit reproducibility (wall clocks, unordered hash iteration
//!   feeding output, ambient randomness).
//!
//! All three surface through the `dynlint` binary, which exits nonzero
//! when any detector reports an error.

#![warn(missing_docs)]

pub mod analyzer;
pub mod lint;
pub mod verify;

/// The happens-before layer (lives in `dynprof-sim` so the primitives can
/// record into it); re-exported here as the natural home of its report
/// types.
pub use dynprof_sim::hb;
