//! `VT_confsync` — dynamic control of instrumentation (paper §2, §5).
//!
//! Statically instrumented applications call `VT_confsync` at *safe
//! points* (no messages in flight). Rank 0 checks whether the monitoring
//! tool has posted a configuration change; if so it passes through the
//! `configuration_break` breakpoint (where the simulated user/tool edits
//! the configuration), then broadcasts the delta, every rank applies it,
//! optionally all ranks contribute runtime statistics to a file written by
//! rank 0 (Experiment 3 of Fig 8), and everyone re-synchronizes with a
//! barrier.

use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_mpi::{Comm, MpiData};
use dynprof_sim::{hb, Proc, SimTime};

use crate::config::ConfigDelta;
use crate::controller::OverheadController;
use crate::event::Event;
use crate::vtlib::{FuncStatRow, VtLib};

/// A configuration change waiting at the next safe point.
#[derive(Clone, Debug)]
pub struct PendingChange {
    /// The change to apply.
    pub delta: ConfigDelta,
    /// Time the tool/user takes to release the breakpoint (the paper notes
    /// the user's monitoring interface is the critical-path component).
    pub respond_delay: SimTime,
}

/// A statistics file written at a safe point (rank-major rows).
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Safe-point time on rank 0.
    pub t: SimTime,
    /// Per-rank statistics rows.
    pub per_rank: Vec<Vec<FuncStatRow>>,
}

impl StatsSnapshot {
    /// Total number of function rows across ranks.
    pub fn total_rows(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }
}

/// The monitoring tool's side of dynamic control: where pending changes
/// are posted and written statistics accumulate.
#[derive(Default)]
pub struct MonitorLink {
    pending: Mutex<Option<PendingChange>>,
    snapshots: Mutex<Vec<StatsSnapshot>>,
    controller: Mutex<Option<Arc<OverheadController>>>,
}

impl MonitorLink {
    /// A link with nothing pending.
    pub fn new() -> Arc<MonitorLink> {
        Arc::new(MonitorLink::default())
    }

    /// Post a change to be applied at the next safe point.
    pub fn post_change(&self, delta: ConfigDelta, respond_delay: SimTime) {
        *self.pending.lock() = Some(PendingChange {
            delta,
            respond_delay,
        });
    }

    /// Is a change waiting?
    pub fn has_pending(&self) -> bool {
        self.pending.lock().is_some()
    }

    fn take(&self) -> Option<PendingChange> {
        self.pending.lock().take()
    }

    /// Statistics snapshots written so far.
    pub fn snapshots(&self) -> Vec<StatsSnapshot> {
        self.snapshots.lock().clone()
    }

    /// Attach a closed-loop overhead controller. From now on rank 0
    /// consults it at every safe point where no manual change is pending;
    /// its emitted deltas flow through the identical decision → broadcast
    /// → apply path. A link without a controller behaves byte-for-byte as
    /// before the feature existed.
    pub fn attach_controller(&self, ctrl: Arc<OverheadController>) {
        *self.controller.lock() = Some(ctrl);
    }

    /// The attached controller, if any.
    pub fn controller(&self) -> Option<Arc<OverheadController>> {
        self.controller.lock().clone()
    }
}

/// Wire form of the broadcast delta (sized by the rendered config bytes).
struct DeltaMsg(Option<ConfigDelta>, usize);

impl Clone for DeltaMsg {
    fn clone(&self) -> Self {
        DeltaMsg(self.0.clone(), self.1)
    }
}

impl MpiData for DeltaMsg {
    fn byte_len(&self) -> usize {
        self.1
    }
}

/// Outcome of one `VT_confsync` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfsyncOutcome {
    /// Epoch after the safe point.
    pub epoch: u32,
    /// Whether a configuration change was applied.
    pub changed: bool,
    /// How many registered functions flipped activation.
    pub functions_changed: usize,
    /// True when this rank missed the epoch's delta (fault injection) and
    /// deferred it to the next safe point instead of applying it here.
    pub partial: bool,
    /// True when the library carries degraded-mode instrumentation epochs
    /// (a transactional commit excluded nodes — see
    /// [`crate::VtLib::note_degraded`]). Pure bookkeeping: safe points
    /// report reduced coverage without any timing change.
    pub degraded: bool,
}

/// Execute one `VT_confsync` safe point on the calling rank.
///
/// Collective: every rank of `comm` must call it. `write_stats` enables
/// the runtime statistics dump (Experiment 3).
pub fn confsync(
    vt: &Arc<VtLib>,
    monitor: &MonitorLink,
    p: &Proc,
    comm: &Comm,
    write_stats: bool,
) -> ConfsyncOutcome {
    let rank = comm.rank();
    let round = vt.next_sync_round(rank);
    // Entry bookkeeping on every rank.
    p.advance(SimTime::from_micros(2));

    // Catch up on deltas this rank missed at earlier safe points (fault
    // injection): apply them now, before this round's delta, so the rank
    // converges to the collective configuration.
    let deferred = vt.take_deferred(rank);
    if !deferred.is_empty() {
        for (decided_round, d) in &deferred {
            p.advance(SimTime::from_micros(3));
            vt.with_config(rank, |c| c.apply(d));
            hb::epoch_apply(p, vt.check_id, *decided_round);
        }
        vt.reresolve(rank);
        if let Some(m) = p.metrics() {
            m.counter("vt.confsync.catchups").add(deferred.len() as u64);
        }
    }

    // Rank 0 polls the monitoring tool's side channel; this is the
    // dominant constant of Fig 8(a).
    let delta = if rank == 0 {
        p.advance(p.machine().probe.confsync_poll);
        // A manually posted change wins; otherwise the attached overhead
        // controller (if any) may decide one from this epoch's statistics.
        let pending = monitor.take().or_else(|| {
            monitor
                .controller()
                .and_then(|ctrl| ctrl.decide(vt, p.now(), round, p.metrics()))
        });
        match pending {
            Some(pc) => {
                // configuration_break(): the monitoring tool has trapped
                // the no-op breakpoint and edits the configuration.
                p.advance(pc.respond_delay);
                hb::epoch_decision(p, vt.check_id, round);
                let bytes = pc.delta.wire_bytes();
                Some(DeltaMsg(Some(pc.delta), bytes))
            }
            None => Some(DeltaMsg(None, 1)),
        }
    } else {
        None
    };
    // Distribute the (possibly empty) change.
    let msg = comm.bcast_unlogged(p, 0, delta);
    let (changed, functions_changed, missed) = match msg.0 {
        Some(d) => {
            // Fault injection may declare this rank unreachable for the
            // epoch (rank 0, the decider, is exempt). The collective
            // structure is untouched — the rank still took part in the
            // broadcast and will reach the barrier — but the delta is
            // deferred to the next safe point instead of applied, so the
            // job degrades to a partial epoch rather than deadlocking.
            if p.fault_plan()
                .is_some_and(|plan| plan.missed_epoch(rank, round))
            {
                vt.defer_delta(rank, round, d);
                if let Some(m) = p.metrics() {
                    m.counter("vt.confsync.missed_epochs").inc();
                }
                (false, 0, true)
            } else {
                // Every rank applies the delta to its *own* activation
                // table and pays the local re-resolution cost — the
                // tables are per process, as in the real library.
                p.advance(SimTime::from_micros(3));
                vt.with_config(rank, |c| c.apply(&d));
                hb::epoch_apply(p, vt.check_id, round);
                let flipped = vt.reresolve(rank);
                (true, flipped, false)
            }
        }
        None => (false, 0, false),
    };
    // Agree on the epoch and change count (rank 0 decided them).
    let packed = if rank == 0 {
        let epoch = if changed { vt.bump_epoch() } else { vt.epoch() };
        Some(((epoch as u64) << 32) | functions_changed as u64)
    } else {
        None
    };
    let packed = comm.bcast_unlogged(p, 0, packed);
    let epoch = (packed >> 32) as u32;
    let functions_changed = (packed & 0xFFFF_FFFF) as usize;
    if missed {
        vt.note_partial(rank, epoch);
    }

    // Experiment 3: runtime statistics generation.
    if write_stats {
        let rows = vt.stats_rows(rank);
        let gathered = comm.gather_unlogged(p, 0, rows);
        if let Some(per_rank) = gathered {
            // Rank 0 formats and writes the statistics file.
            let costs = &p.machine().probe;
            let total_rows: usize = per_rank.iter().map(Vec::len).sum();
            p.advance(costs.stats_format_per_rank * per_rank.len() as u64);
            p.advance(costs.stats_write_base);
            p.advance(costs.flush_per_byte * (total_rows as u64 * 32));
            monitor.snapshots.lock().push(StatsSnapshot {
                t: p.now(),
                per_rank,
            });
        }
    }

    // Re-synchronize: no rank proceeds until the new configuration is in
    // force everywhere.
    comm.barrier_unlogged(p);
    vt.record(
        p,
        rank,
        Event::ConfSync {
            t: p.now(),
            rank: rank as u32,
            epoch,
        },
    );
    ConfsyncOutcome {
        epoch,
        changed,
        functions_changed,
        partial: missed,
        degraded: vt.is_degraded(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VtConfig;
    use dynprof_mpi::{launch, JobSpec};
    use dynprof_sim::{Machine, ProbeCosts, Sim};

    fn setup(ranks: usize, config: VtConfig) -> (Arc<VtLib>, Arc<MonitorLink>, Sim) {
        let vt = VtLib::new("app", ranks, config, ProbeCosts::power3());
        let monitor = MonitorLink::new();
        let sim = Sim::virtual_time(Machine::test_machine(), 11);
        (vt, monitor, sim)
    }

    #[test]
    fn confsync_without_change_keeps_epoch() {
        let (vt, monitor, sim) = setup(4, VtConfig::all_on());
        let (v2, m2) = (Arc::clone(&vt), Arc::clone(&monitor));
        launch(&sim, JobSpec::new("app", 4), vec![], move |p, c| {
            c.init(p);
            v2.init(p, c.rank());
            let out = confsync(&v2, &m2, p, c, false);
            assert_eq!(out.epoch, 0);
            assert!(!out.changed);
            c.finalize(p);
        });
        sim.run();
        assert_eq!(vt.epoch(), 0);
    }

    #[test]
    fn confsync_applies_posted_change_everywhere() {
        let (vt, monitor, sim) = setup(4, VtConfig::all_on());
        monitor.post_change(
            ConfigDelta::Set(vec![("default".into(), false), ("keep".into(), true)]),
            SimTime::from_millis(5),
        );
        let (v2, m2) = (Arc::clone(&vt), Arc::clone(&monitor));
        launch(&sim, JobSpec::new("app", 4), vec![], move |p, c| {
            c.init(p);
            v2.init(p, c.rank());
            let keep = v2.funcdef(p, "keep");
            let drop_ = v2.funcdef(p, "drop");
            c.barrier(p);
            let out = confsync(&v2, &m2, p, c, false);
            assert!(out.changed);
            assert_eq!(out.epoch, 1);
            assert!(v2.is_active(c.rank(), keep));
            assert!(!v2.is_active(c.rank(), drop_));
            c.finalize(p);
        });
        sim.run();
        assert!(!monitor.has_pending(), "change consumed");
    }

    #[test]
    fn confsync_change_costs_more_than_no_change() {
        fn elapsed(with_change: bool) -> SimTime {
            let (vt, monitor, sim) = setup(2, VtConfig::all_on());
            if with_change {
                monitor.post_change(
                    ConfigDelta::Set(vec![("f".into(), false)]),
                    SimTime::from_millis(2),
                );
            }
            let done = Arc::new(Mutex::new(SimTime::ZERO));
            let d2 = Arc::clone(&done);
            launch(&sim, JobSpec::new("app", 2), vec![], move |p, c| {
                c.init(p);
                vt.init(p, c.rank());
                c.barrier(p);
                let t0 = p.now();
                confsync(&vt, &monitor, p, c, false);
                if c.rank() == 0 {
                    *d2.lock() = p.now() - t0;
                }
                c.finalize(p);
            });
            sim.run();
            let t = *done.lock();
            t
        }
        let plain = elapsed(false);
        let with_change = elapsed(true);
        assert!(with_change > plain);
        // Both stay well under the paper's 0.04 s bound for this machine
        // class (test machine has tiny latencies; the IBM harness checks
        // the real bound).
        assert!(plain > SimTime::ZERO);
    }

    #[test]
    fn stats_write_collects_all_ranks() {
        let (vt, monitor, sim) = setup(3, VtConfig::all_on());
        let (v2, m2) = (Arc::clone(&vt), Arc::clone(&monitor));
        launch(&sim, JobSpec::new("app", 3), vec![], move |p, c| {
            c.init(p);
            v2.init(p, c.rank());
            let f = v2.funcdef(p, "work");
            for _ in 0..=c.rank() {
                v2.begin(p, c.rank(), 0, f, 1);
                p.advance(SimTime::from_micros(10));
                v2.end(p, c.rank(), 0, f);
            }
            c.barrier(p);
            confsync(&v2, &m2, p, c, true);
            c.finalize(p);
        });
        sim.run();
        let snaps = monitor.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].per_rank.len(), 3);
        for (r, rows) in snaps[0].per_rank.iter().enumerate() {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].1, r as u64 + 1, "rank {r} call count");
        }
    }

    #[test]
    fn confsync_emits_trace_events() {
        let (vt, monitor, sim) = setup(2, VtConfig::all_on());
        let (v2, m2) = (Arc::clone(&vt), Arc::clone(&monitor));
        launch(&sim, JobSpec::new("app", 2), vec![], move |p, c| {
            c.init(p);
            v2.init(p, c.rank());
            confsync(&v2, &m2, p, c, false);
            c.finalize(p);
        });
        sim.run();
        let trace = vt.build_trace();
        let syncs = trace
            .events
            .iter()
            .filter(|e| matches!(e, Event::ConfSync { .. }))
            .count();
        assert_eq!(syncs, 2);
    }
}
