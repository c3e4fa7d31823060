//! The capture sink: where trace events go as they happen.
//!
//! The paper's trace library writes its time-stamped events to a trace
//! *file* per process (§3.1). [`VtLib`](crate::VtLib) keeps them in
//! per-rank memory buffers by default — the reference sink every test and
//! figure harness reads back through `build_trace`/`with_rank_events` —
//! and hands them to a capture instead once an [`EventSink`] is installed
//! with [`VtLib::set_sink`](crate::VtLib::set_sink): a store writer, a
//! profile accumulator, or both. A sink-attached library buffers nothing.
//!
//! A capture has two halves. The **shared half** is the [`EventSink`]
//! behind the [`SharedSink`] mutex: the dictionary, the file. The
//! **private half** is one [`Lane`] per rank, which the rank opens at its
//! first settled event and keeps beside its call stacks, under the guard
//! `VT_begin`/`VT_end` and the MPI/OpenMP hooks already hold: an event
//! takes no shared lock. The shared half is entered per `VT_funcdef`, per
//! lane opened, and then only by the lanes, a whole sub-buffer at a time.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{Event, VtFuncId};

/// The shared half of a capture, fed while the run executes.
///
/// Both calls are infallible by design: a sink that can fail (a disk)
/// remembers its first error and reports it when it is finished, so a
/// wedged device never panics the simulation. Feeding a capture costs no
/// virtual time.
pub trait EventSink: Send {
    /// `VT_funcdef` registered `name` as `id`. Ids arrive in ascending
    /// order, each once, and always before the first event naming them.
    fn funcdef(&mut self, id: VtFuncId, name: &str);

    /// Open `rank`'s lane. Asked once per recording rank, at its first
    /// settled event — so the dictionary the sink holds at that instant is
    /// the one the rank has seen.
    fn lane(&mut self, rank: u32) -> Box<dyn Lane>;
}

/// One rank's private half of a capture.
///
/// A lane sees only *settled* events — records the library will never
/// take back (redundancy suppression holds an entry back until it knows
/// whether its pair is elided) — of its own rank, in the rank's causal
/// order. The library calls it under the rank's own guard and never from
/// two threads at once.
pub trait Lane: Send {
    /// One settled event. `false`: not taken — the capture has reached a
    /// cap that closes a sub-buffer generation (a store segment) while
    /// lanes still hold events that belong in it. The library then calls
    /// [`Lane::switch`] on every open lane in ascending rank order and
    /// pushes the event again; with nothing left staged anywhere, that
    /// push is taken.
    #[must_use]
    fn push(&mut self, ev: &Event) -> bool;

    /// Sub-buffer switch: hand whatever the lane holds over to the shared
    /// half now, full or not.
    fn switch(&mut self);

    /// The rank records nothing more: hand over what is left and give the
    /// lane's state back to the shared half. The library closes lanes in
    /// ascending rank order once the run has ended; a run that dies never
    /// gets here, and a lane that is dropped unclosed hands over nothing.
    fn close(self: Box<Self>);
}

/// The lane of a sink that is not there: takes everything, keeps nothing.
struct Discard;

impl Lane for Discard {
    fn push(&mut self, _: &Event) -> bool {
        true
    }

    fn switch(&mut self) {}

    fn close(self: Box<Self>) {}
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

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        match self {
            Some(sink) => sink.lane(rank),
            None => Box::new(Discard),
        }
    }
}

/// A boxed sink: an owner keeps a large, often absent sink (a store writer)
/// behind a box, so a slot without one costs a pointer.
impl<S: EventSink + ?Sized> EventSink for Box<S> {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        (**self).funcdef(id, name);
    }

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        (**self).lane(rank)
    }
}

/// The shared half of a capture, held by the library that feeds it and by
/// the owner that finishes it after the run.
pub type SharedSink = Arc<Mutex<dyn EventSink>>;

/// Lock a capture's shared half, poisoned or not: every update under it
/// leaves it valid (a failed write is a deferred error), and a sink that
/// panicked has already failed the run — refusing the lock afterwards only
/// turns teardown into panics inside an unwind.
pub fn locked<T: ?Sized>(half: &Mutex<T>) -> MutexGuard<'_, T> {
    half.lock().unwrap_or_else(PoisonError::into_inner)
}
