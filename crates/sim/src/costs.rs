//! Instrumentation cost models.
//!
//! These constants encode the *relative* costs that drive every result in
//! the paper (§2, §4.3): an **active** probe pays a timestamp plus an event
//! append; a **deactivated** static probe still pays the call into the
//! trace library and a table lookup before bailing out; a **dynamically
//! inserted** probe additionally pays trampoline dispatch (jump, register
//! save/restore); and an **absent** probe pays nothing at all. The paper's
//! entire argument — `Dynamic` ≈ `None` ≪ `Full-Off` ≈ `Subset` ≪ `Full` —
//! follows from this hierarchy multiplied by per-function call rates.
//!
//! These costs are charged to the virtual clock; what the actual Rust
//! implementations cost the host is measured separately (`micro.rs` in
//! `dynprof-bench`).

use crate::time::SimTime;

/// Per-event costs of the Vampirtrace-analogue instrumentation layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeCosts {
    /// Cost of an *active* `VT_begin`: read clock, append entry event.
    pub vt_begin_active: SimTime,
    /// Cost of an *active* `VT_end`: read clock, append exit event.
    pub vt_end_active: SimTime,
    /// Cost of a `VT_begin`/`VT_end` whose symbol is deactivated in the
    /// configuration table: function call + hash lookup + early return.
    pub vt_deactivated: SimTime,
    /// Extra cost of reaching instrumentation through a dynamically
    /// inserted probe: jump to base trampoline, save registers, jump to
    /// mini-trampoline, restore registers, relocated instruction, jump back.
    pub trampoline_dispatch: SimTime,
    /// One-time cost of registering a function with `VT_funcdef`.
    pub vt_funcdef: SimTime,
    /// Cost of logging one MPI call through the wrapper interface.
    pub mpi_wrapper_event: SimTime,
    /// Cost of logging one OpenMP region event through Guidetrace.
    pub omp_region_event: SimTime,
    /// Bytes appended to the trace buffer per begin/end event
    /// (timestamp + ids); the paper's motivating 2 MB/s data rate.
    pub event_bytes: usize,
    /// Cost of flushing one trace-buffer byte to the trace file.
    pub flush_per_byte: SimTime,
    /// Rank-0 cost of one `VT_confsync` check against the monitoring
    /// tool's side channel (socket poll through the OS tool stack); the
    /// dominant term of paper Fig 8(a).
    pub confsync_poll: SimTime,
    /// Rank-0 cost of formatting one rank's statistics block when
    /// `VT_confsync` writes runtime statistics (Fig 8(b), Experiment 3).
    pub stats_format_per_rank: SimTime,
    /// Base cost of opening/committing the statistics file.
    pub stats_write_base: SimTime,
}

impl ProbeCosts {
    /// Cost model for the 375 MHz Power3 nodes. An active begin/end pair
    /// costs ~1.6 us; a deactivated pair ~0.36 us; trampoline dispatch
    /// ~0.25 us per probe point.
    pub const fn power3() -> ProbeCosts {
        ProbeCosts {
            vt_begin_active: SimTime::from_nanos(820),
            vt_end_active: SimTime::from_nanos(780),
            vt_deactivated: SimTime::from_nanos(180),
            trampoline_dispatch: SimTime::from_nanos(250),
            vt_funcdef: SimTime::from_micros(4),
            mpi_wrapper_event: SimTime::from_nanos(900),
            omp_region_event: SimTime::from_nanos(600),
            event_bytes: 24,
            flush_per_byte: SimTime::from_nanos(2),
            confsync_poll: SimTime::from_millis(16),
            stats_format_per_rank: SimTime::from_micros(300),
            stats_write_base: SimTime::from_millis(5),
        }
    }

    /// Cost model for the ~800 MHz Pentium III nodes of Fig 8(c).
    pub const fn pentium3() -> ProbeCosts {
        ProbeCosts {
            vt_begin_active: SimTime::from_nanos(600),
            vt_end_active: SimTime::from_nanos(560),
            vt_deactivated: SimTime::from_nanos(130),
            trampoline_dispatch: SimTime::from_nanos(190),
            vt_funcdef: SimTime::from_micros(3),
            mpi_wrapper_event: SimTime::from_nanos(650),
            omp_region_event: SimTime::from_nanos(450),
            event_bytes: 24,
            flush_per_byte: SimTime::from_nanos(1),
            confsync_poll: SimTime::from_micros(2_200),
            stats_format_per_rank: SimTime::from_micros(150),
            stats_write_base: SimTime::from_millis(3),
        }
    }

    /// Cost of a full active `VT_begin` + `VT_end` pair.
    pub fn active_pair(&self) -> SimTime {
        self.vt_begin_active + self.vt_end_active
    }

    /// Cost of a deactivated begin + end pair (two lookups).
    pub fn deactivated_pair(&self) -> SimTime {
        self.vt_deactivated * 2
    }

    /// Cost of an active begin/end pair reached via dynamic probes
    /// (two trampoline dispatches, one per probe point).
    pub fn dynamic_pair(&self) -> SimTime {
        self.active_pair() + self.trampoline_dispatch * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost hierarchy that produces the paper's Figure 7 ordering.
    #[test]
    fn cost_hierarchy_matches_paper() {
        for c in [ProbeCosts::power3(), ProbeCosts::pentium3()] {
            // absent (0) < deactivated < active < dynamic-active
            assert!(SimTime::ZERO < c.deactivated_pair());
            assert!(c.deactivated_pair() < c.active_pair());
            assert!(c.active_pair() < c.dynamic_pair());
            // Deactivated probes must be *much* cheaper than active ones
            // (>= 4x) for Full-Off to beat Full the way Fig 7a shows.
            assert!(c.active_pair().as_nanos() >= 4 * c.deactivated_pair().as_nanos());
            // ...but the trampoline surcharge must be small relative to the
            // active pair, so Dynamic ~ None for uninstrumented functions
            // and Dynamic ~ Subset-active for instrumented ones.
            assert!(c.trampoline_dispatch.as_nanos() * 2 < c.active_pair().as_nanos());
        }
    }

    #[test]
    fn pair_helpers_add_up() {
        let c = ProbeCosts::power3();
        assert_eq!(c.active_pair(), c.vt_begin_active + c.vt_end_active);
        assert_eq!(c.deactivated_pair(), c.vt_deactivated * 2);
        assert_eq!(
            c.dynamic_pair(),
            c.active_pair() + c.trampoline_dispatch * 2
        );
    }
}
