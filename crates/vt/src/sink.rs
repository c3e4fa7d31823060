//! The capture sink: where trace events go as they happen.
//!
//! The paper's trace library writes its time-stamped events to a trace
//! *file* (§3.1). [`VtLib`](crate::VtLib) keeps them in per-rank memory
//! buffers by default — the reference sink every test and figure harness
//! reads back through `build_trace`/`with_rank_events` — and hands them to
//! an [`EventSink`] instead once one is installed with
//! [`VtLib::set_sink`](crate::VtLib::set_sink): a store writer, a profile
//! accumulator, or both. A sink-attached library buffers nothing.

use std::sync::{Arc, Mutex};

use crate::event::{Event, VtFuncId};

/// A consumer of the trace library's output, fed while the run executes.
///
/// The sink sees only *settled* events — records the library will never
/// take back (redundancy suppression holds an entry back until it knows
/// whether its pair is elided) — in each rank's causal order; ranks
/// interleave in execution order. Both calls are infallible by design: a
/// sink that can fail (a disk) remembers its first error and reports it
/// when it is finished, so a wedged device never panics the simulation.
/// Feeding a sink costs no virtual time.
pub trait EventSink: Send {
    /// `VT_funcdef` registered `name` as `id`. Ids arrive in ascending
    /// order, each once, and always before the first event naming them.
    fn funcdef(&mut self, id: VtFuncId, name: &str);

    /// One settled event.
    fn push(&mut self, ev: &Event);
}

/// A slot that may hold a sink: `None` discards. This is how an owner
/// gets its sink back while the library still holds the shared handle —
/// share an `Arc<Mutex<Option<S>>>`, `take()` the sink after the run and
/// finish it.
impl<S: EventSink> EventSink for Option<S> {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        if let Some(sink) = self {
            sink.funcdef(id, name);
        }
    }

    fn push(&mut self, ev: &Event) {
        if let Some(sink) = self {
            sink.push(ev);
        }
    }
}

/// A sink shared between the library that feeds it and the owner that
/// finishes it after the run.
pub type SharedSink = Arc<Mutex<dyn EventSink>>;
