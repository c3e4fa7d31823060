//! Trace events and the in-memory trace.
//!
//! The trace file "contains time-stamped events describing function
//! entries and exits, MPI library calls, and OpenMP parallel region
//! invocations" (paper §3.1). We add one compact record type,
//! [`Event::FuncBatch`], which represents `count` aggregated begin/end
//! pairs of a very hot leaf function: its *accounted* trace volume is that
//! of `2 × count` plain events (see `trace_bytes_of`), keeping the paper's
//! data-volume arithmetic intact while the in-memory trace stays tractable.

use dynprof_sim::SimTime;

/// Identifier assigned by the trace library when a subroutine is first
/// registered with `VT_funcdef` (paper §3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VtFuncId(pub u32);

/// One time-stamped trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Function entry (`VT_begin`).
    FuncEnter {
        /// Timestamp.
        t: SimTime,
        /// MPI rank.
        rank: u32,
        /// OpenMP thread id.
        thread: u16,
        /// Registered function.
        func: VtFuncId,
    },
    /// Function exit (`VT_end`).
    FuncExit {
        /// Timestamp.
        t: SimTime,
        /// MPI rank.
        rank: u32,
        /// OpenMP thread id.
        thread: u16,
        /// Registered function.
        func: VtFuncId,
    },
    /// `count` aggregated begin/end pairs spanning `[t, t + span]`.
    FuncBatch {
        /// Start of the aggregated span.
        t: SimTime,
        /// MPI rank.
        rank: u32,
        /// OpenMP thread id.
        thread: u16,
        /// Registered function.
        func: VtFuncId,
        /// Number of begin/end pairs represented.
        count: u64,
        /// Wall span covered by the pairs.
        span: SimTime,
    },
    /// One MPI call observed through the wrapper interface.
    MpiCall {
        /// Call entry timestamp.
        t: SimTime,
        /// Call return timestamp.
        t_end: SimTime,
        /// MPI rank.
        rank: u32,
        /// Operation code (see `dynprof_mpi::MpiOp`).
        op: u8,
        /// Peer rank, or `-1` for collectives / none.
        peer: i32,
        /// Message bytes.
        bytes: u64,
    },
    /// A parallel region fork on the master thread.
    OmpFork {
        /// Timestamp.
        t: SimTime,
        /// MPI rank.
        rank: u32,
        /// Region id.
        region: u32,
        /// Team size.
        team: u16,
    },
    /// A parallel region join on the master thread.
    OmpJoin {
        /// Timestamp.
        t: SimTime,
        /// MPI rank.
        rank: u32,
        /// Region id.
        region: u32,
        /// Team size.
        team: u16,
    },
    /// One thread's occupancy of a parallel region.
    OmpThread {
        /// Thread began its share.
        t: SimTime,
        /// Thread finished its share.
        t_end: SimTime,
        /// MPI rank.
        rank: u32,
        /// Thread id.
        thread: u16,
        /// Region id.
        region: u32,
    },
    /// A `VT_confsync` safe point passed (with the new config epoch).
    ConfSync {
        /// Timestamp.
        t: SimTime,
        /// MPI rank.
        rank: u32,
        /// Configuration epoch after the sync.
        epoch: u32,
    },
    /// The process was suspended by the instrumenter for `[t, t_end]`
    /// (paper §5.1: a period of inactivity the analysis should discount).
    Suspended {
        /// Suspension start.
        t: SimTime,
        /// Resumption time.
        t_end: SimTime,
        /// MPI rank.
        rank: u32,
    },
    /// `count` entry/exit pairs of `func` shorter than the redundancy
    /// floor were elided from the trace. The pairs' cumulative wall time
    /// is `span`, so profiles reconstructed from a suppressed trace carry
    /// exactly the same inclusive/exclusive time as the unsuppressed one;
    /// only the per-pair event records are gone.
    FuncSuppressed {
        /// Timestamp of the first elided pair.
        t: SimTime,
        /// MPI rank.
        rank: u32,
        /// OpenMP thread id.
        thread: u16,
        /// Registered function.
        func: VtFuncId,
        /// Number of elided entry/exit pairs.
        count: u64,
        /// Cumulative wall time of the elided pairs.
        span: SimTime,
    },
}

impl Event {
    /// Timestamp used for ordering.
    pub fn time(&self) -> SimTime {
        match *self {
            Event::FuncEnter { t, .. }
            | Event::FuncExit { t, .. }
            | Event::FuncBatch { t, .. }
            | Event::MpiCall { t, .. }
            | Event::OmpFork { t, .. }
            | Event::OmpJoin { t, .. }
            | Event::OmpThread { t, .. }
            | Event::ConfSync { t, .. }
            | Event::Suspended { t, .. }
            | Event::FuncSuppressed { t, .. } => t,
        }
    }

    /// Rank that produced the event.
    pub fn rank(&self) -> u32 {
        match *self {
            Event::FuncEnter { rank, .. }
            | Event::FuncExit { rank, .. }
            | Event::FuncBatch { rank, .. }
            | Event::MpiCall { rank, .. }
            | Event::OmpFork { rank, .. }
            | Event::OmpJoin { rank, .. }
            | Event::OmpThread { rank, .. }
            | Event::ConfSync { rank, .. }
            | Event::Suspended { rank, .. }
            | Event::FuncSuppressed { rank, .. } => rank,
        }
    }

    /// The trace-volume this event accounts for, given the per-event byte
    /// cost of the machine's trace format.
    pub fn trace_bytes_of(&self, event_bytes: usize) -> u64 {
        match *self {
            Event::FuncBatch { count, .. } => 2 * count * event_bytes as u64,
            _ => event_bytes as u64,
        }
    }
}

/// A complete postmortem trace: the function dictionary plus all events,
/// merged across ranks and sorted by time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Program name.
    pub program: String,
    /// Function names indexed by [`VtFuncId`].
    pub functions: Vec<String>,
    /// Events sorted by (time, rank).
    pub events: Vec<Event>,
}

impl Trace {
    /// Name of a registered function.
    pub fn func_name(&self, f: VtFuncId) -> &str {
        self.functions
            .get(f.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Total modelled trace volume in bytes (per-event cost `event_bytes`).
    pub fn modelled_bytes(&self, event_bytes: usize) -> u64 {
        self.events
            .iter()
            .map(|e| e.trace_bytes_of(event_bytes))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accounts_for_full_volume() {
        let e = Event::FuncBatch {
            t: SimTime::ZERO,
            rank: 0,
            thread: 0,
            func: VtFuncId(0),
            count: 500,
            span: SimTime::ZERO,
        };
        assert_eq!(e.trace_bytes_of(24), 24_000);
        let plain = Event::FuncEnter {
            t: SimTime::ZERO,
            rank: 0,
            thread: 0,
            func: VtFuncId(0),
        };
        assert_eq!(plain.trace_bytes_of(24), 24);
    }

    #[test]
    fn func_name_lookup_handles_unknown() {
        let t = Trace {
            program: "x".into(),
            functions: vec!["f".into()],
            events: vec![],
        };
        assert_eq!(t.func_name(VtFuncId(0)), "f");
        assert_eq!(t.func_name(VtFuncId(9)), "<unknown>");
    }
}
