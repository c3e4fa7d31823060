//! Happens-before correctness analysis, armed per run.
//!
//! The paper's premise is that instrumentation must be *safe to insert
//! while the program runs* (trampoline patching §3, `VT_confsync` safe
//! points §5). This module provides the machinery to prove a simulated
//! run honoured those invariants: every process carries a vector clock,
//! the primitives in [`crate::sync`] record the happens-before edges they
//! create (message send→receive, barrier arrive→release, gate open→pass,
//! queue push→pop), and higher layers add semantic events on top — MPI
//! collective entries, confsync epoch decisions/applications, probe
//! patches. After the run, [`CheckHandle::report`] replays the recorded
//! history through the detectors:
//!
//! * **collective mismatch** — ranks of one job disagree on the operation
//!   or root of their k-th collective, or not all ranks entered it
//!   (error);
//! * **epoch safety** — a confsync delta was applied by a rank without
//!   the epoch's decision happening-before the application — the paper's
//!   §5 invariant (error);
//! * **unmatched sends** — messages still undelivered at shutdown /
//!   never-drained channels (warning);
//! * **barrier divergence** — the participant set of a barrier changed
//!   between generations (warning);
//! * **unsafe patch** — a probe was installed or removed while the
//!   target image was not suspended (warning; the DPCL daemons accept
//!   this, but the managed session layer always suspends first).
//!
//! # Cost model
//!
//! A run is checked only if [`crate::Sim::enable_check`] armed it, which
//! installs the run's one recorder; each process holds a copy of the
//! handle. Every recording site is one branch on it and builds its event
//! only when that branch is taken: an unarmed run pays a load and a
//! not-taken branch per site and keeps no checker state, and — because
//! the recorder is reached only through a trait object that
//! `enable_check` alone creates — a binary that never arms a run links
//! none of the recorder's code.
//! Recording never charges virtual time and never touches the metrics
//! registry, so arming the checker cannot change simulated results —
//! figure JSON is byte-identical either way.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{Pid, Proc};

/// Is this process's run armed for happens-before recording? A site that
/// must do work to build its record (format a message, read a sequence
/// number) tests this first; the recording functions test it themselves.
#[inline(always)]
pub fn on(p: &Proc) -> bool {
    p.recorder().is_some()
}

/// A fresh process-global identifier for a trackable object (channel,
/// barrier, gate, queue, MPI job, VT library instance). The ids are only
/// ever used as recording keys.
pub fn unique_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock over the simulation's (dense) pid space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    fn tick(&mut self, pid: Pid) {
        if self.0.len() <= pid {
            self.0.resize(pid + 1, 0);
        }
        self.0[pid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Componentwise `self <= other` — i.e. every event `self` has seen,
    /// `other` has seen too: `self` happens-before-or-equals `other`.
    pub fn leq(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &c)| c <= other.0.get(i).copied().unwrap_or(0))
    }
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but tolerated (e.g. undelivered control messages under
    /// a fault plan that duplicates traffic).
    Warning,
    /// A broken invariant: the run cannot be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One detector hit.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Which detector fired (stable kebab-case name).
    pub detector: &'static str,
    /// Human-readable description, with process names where available.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.detector, self.message)
    }
}

/// The outcome of a happens-before analysis over one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All detector hits, errors first.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect()
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .collect()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One line per finding.
    pub fn render(&self) -> String {
        self.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

// ---------------------------------------------------------------------------
// Recorded history
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CollSite {
    job_name: String,
    size: usize,
    /// (rank, op, root) per entering rank.
    entries: Vec<(usize, &'static str, Option<usize>)>,
}

/// The events a run's recorder records. Built by the functions below only
/// when the run is armed.
pub(crate) enum Event<'a> {
    /// (channel, envelope sequence)
    ChanSend(u64, u64),
    ChanRecv(u64, u64),
    /// (barrier, generation)
    BarrierArrive(u64, u64),
    BarrierDepart(u64, u64),
    GateOpen(u64),
    GatePass(u64),
    QueuePush(u64),
    QueuePop(u64),
    Collective {
        job: u64,
        job_name: &'a str,
        size: usize,
        rank: usize,
        seq: u64,
        op: &'static str,
        root: Option<usize>,
    },
    /// (VT library or transaction id, epoch)
    EpochDecision(u64, u64),
    EpochApply(u64, u64),
    EpochAbort(u64, u64),
    UnsafePatch(&'a str),
}

/// A run's happens-before recorder: the handle [`crate::Sim::enable_check`]
/// installs. A trait object, so that only a binary that arms a run links
/// the implementation.
pub(crate) trait Recorder: Send + Sync {
    /// Remember `pid`'s display name (called at spawn).
    fn register(&self, pid: Pid, name: &str);
    /// Record `ev`, performed by `pid`.
    fn record(&self, pid: Pid, ev: Event<'_>);
    /// Run every detector over the history recorded so far.
    fn report(&self) -> Report;
}

/// A fresh recorder, for [`crate::Sim::enable_check`].
pub(crate) fn recorder() -> Arc<dyn Recorder> {
    Arc::new(Mutex::new(History::default()))
}

#[derive(Default)]
struct History {
    /// Per-pid vector clocks and names (dense, grown on registration).
    clocks: Vec<VClock>,
    names: Vec<String>,
    /// In-flight sends: (channel, seq) → (sender pid, clock at send).
    /// Entries are removed when received; leftovers are unmatched sends.
    chan_sends: BTreeMap<(u64, u64), (Pid, VClock)>,
    /// Accumulated clock of everyone who arrived at (barrier, generation).
    barrier_accum: BTreeMap<(u64, u64), VClock>,
    /// Participant sets per (barrier, generation).
    barrier_parts: BTreeMap<u64, BTreeMap<u64, BTreeSet<Pid>>>,
    /// Cumulative clock of every opener of a gate.
    gates: BTreeMap<u64, VClock>,
    /// Cumulative clock of every pusher into a queue (conservative).
    queues: BTreeMap<u64, VClock>,
    /// Collective entries keyed by (job id, per-rank collective seq).
    colls: BTreeMap<(u64, u64), CollSite>,
    /// Confsync epoch decisions: (lib id, round) → (decider, clock).
    epoch_decisions: BTreeMap<(u64, u64), (Pid, VClock)>,
    /// Confsync epoch applications: (lib id, round, applier, clock).
    epoch_applies: Vec<(u64, u64, Pid, VClock)>,
    /// Aborted (rolled-back) epochs: (lib id, round) → aborting pid. An
    /// instrumentation transaction that fails its vote records its epoch
    /// here; any apply of such an epoch is a partial-state bug.
    epoch_aborts: BTreeMap<(u64, u64), Pid>,
    /// Patches performed on a non-suspended image: (pid, description).
    unsafe_patches: Vec<(Pid, String)>,
}

impl History {
    fn name(&self, pid: Pid) -> String {
        match self.names.get(pid) {
            Some(n) if !n.is_empty() => n.clone(),
            _ => format!("proc#{pid}"),
        }
    }

    fn clock_mut(&mut self, pid: Pid) -> &mut VClock {
        if self.clocks.len() <= pid {
            self.clocks.resize(pid + 1, VClock::default());
        }
        &mut self.clocks[pid]
    }

    /// Tick `pid`'s own component and return a snapshot of its clock.
    fn tick(&mut self, pid: Pid) -> VClock {
        let c = self.clock_mut(pid);
        c.tick(pid);
        c.clone()
    }

    fn record(&mut self, pid: Pid, ev: Event<'_>) {
        match ev {
            Event::ChanSend(chan, seq) => {
                let clock = self.tick(pid);
                self.chan_sends.insert((chan, seq), (pid, clock));
            }
            Event::ChanRecv(chan, seq) => {
                let sender = self.chan_sends.remove(&(chan, seq)).map(|(_, clock)| clock);
                self.acquire(pid, sender);
            }
            Event::BarrierArrive(bar, gen) => {
                let clock = self.tick(pid);
                self.barrier_accum
                    .entry((bar, gen))
                    .or_default()
                    .join(&clock);
                self.barrier_parts
                    .entry(bar)
                    .or_default()
                    .entry(gen)
                    .or_default()
                    .insert(pid);
            }
            Event::BarrierDepart(bar, gen) => {
                let merged = self.barrier_accum.get(&(bar, gen)).cloned();
                self.acquire(pid, merged);
            }
            Event::GateOpen(gate) => {
                let clock = self.tick(pid);
                self.gates.entry(gate).or_default().join(&clock);
            }
            Event::GatePass(gate) => {
                let openers = self.gates.get(&gate).cloned();
                self.acquire(pid, openers);
            }
            Event::QueuePush(q) => {
                let clock = self.tick(pid);
                self.queues.entry(q).or_default().join(&clock);
            }
            Event::QueuePop(q) => {
                let pushers = self.queues.get(&q).cloned();
                self.acquire(pid, pushers);
            }
            Event::Collective {
                job,
                job_name,
                size,
                rank,
                seq,
                op,
                root,
            } => {
                self.tick(pid);
                let site = self.colls.entry((job, seq)).or_default();
                if site.entries.is_empty() {
                    site.job_name = job_name.to_string();
                    site.size = size;
                }
                site.entries.push((rank, op, root));
            }
            Event::EpochDecision(lib, round) => {
                let clock = self.tick(pid);
                self.epoch_decisions
                    .entry((lib, round))
                    .or_insert((pid, clock));
            }
            Event::EpochApply(lib, round) => {
                let clock = self.tick(pid);
                self.epoch_applies.push((lib, round, pid, clock));
            }
            Event::EpochAbort(lib, round) => {
                self.tick(pid);
                self.epoch_aborts.insert((lib, round), pid);
            }
            Event::UnsafePatch(detail) => {
                self.tick(pid);
                self.unsafe_patches.push((pid, detail.to_string()));
            }
        }
    }

    /// Tick `pid`, then join `from` (the clock it synchronizes with, if
    /// any was recorded) into its clock.
    fn acquire(&mut self, pid: Pid, from: Option<VClock>) {
        self.tick(pid);
        if let Some(from) = from {
            self.clock_mut(pid).join(&from);
        }
    }

    /// Run every detector over the recorded history.
    fn report(&self) -> Report {
        let mut errors = Vec::new();
        let mut warnings = Vec::new();

        // Collective mismatch: within one job, the k-th collective of
        // every rank must agree on op and root, and all ranks must enter.
        for (&(_job, seq), site) in &self.colls {
            let ops: BTreeSet<&str> = site.entries.iter().map(|e| e.1).collect();
            if ops.len() > 1 {
                let detail: Vec<String> = site
                    .entries
                    .iter()
                    .map(|(r, op, _)| format!("rank {r}: {op}"))
                    .collect();
                errors.push(Finding {
                    severity: Severity::Error,
                    detector: "collective-mismatch",
                    message: format!(
                        "job {:?}: collective #{seq}: ranks entered different \
                         operations ({})",
                        site.job_name,
                        detail.join(", ")
                    ),
                });
                continue;
            }
            let op = site.entries.first().map(|e| e.1).unwrap_or("?");
            let roots: BTreeSet<Option<usize>> = site.entries.iter().map(|e| e.2).collect();
            if roots.len() > 1 {
                let detail: Vec<String> = site
                    .entries
                    .iter()
                    .map(|(r, _, root)| format!("rank {r}: root {root:?}"))
                    .collect();
                errors.push(Finding {
                    severity: Severity::Error,
                    detector: "collective-mismatch",
                    message: format!(
                        "job {:?}: collective #{seq} ({op}): ranks disagree on \
                         the root ({})",
                        site.job_name,
                        detail.join(", ")
                    ),
                });
            }
            let mut ranks: Vec<usize> = site.entries.iter().map(|e| e.0).collect();
            ranks.sort_unstable();
            ranks.dedup();
            if ranks.len() != site.entries.len() {
                errors.push(Finding {
                    severity: Severity::Error,
                    detector: "collective-mismatch",
                    message: format!(
                        "job {:?}: collective #{seq} ({op}): a rank entered twice \
                         (collective streams desynchronized)",
                        site.job_name
                    ),
                });
            } else if site.entries.len() != site.size {
                errors.push(Finding {
                    severity: Severity::Error,
                    detector: "collective-mismatch",
                    message: format!(
                        "job {:?}: collective #{seq} ({op}): only {} of {} ranks \
                         entered",
                        site.job_name,
                        site.entries.len(),
                        site.size
                    ),
                });
            }
        }

        // Epoch safety (paper §5): every application of a config delta
        // must be ordered after the epoch's decision, and an aborted
        // epoch must never be applied at all.
        for (lib, round, pid, clock) in &self.epoch_applies {
            if let Some(aborter) = self.epoch_aborts.get(&(*lib, *round)) {
                errors.push(Finding {
                    severity: Severity::Error,
                    detector: "epoch-safety",
                    message: format!(
                        "epoch {round}: {} applied changes of an epoch that {} \
                         aborted — partially-instrumented state",
                        self.name(*pid),
                        self.name(*aborter)
                    ),
                });
                continue;
            }
            match self.epoch_decisions.get(&(*lib, *round)) {
                None => errors.push(Finding {
                    severity: Severity::Error,
                    detector: "epoch-safety",
                    message: format!(
                        "confsync epoch {round}: {} applied a config delta but \
                         no safe-point decision was recorded for that epoch",
                        self.name(*pid)
                    ),
                }),
                Some((decider, decision_clock)) => {
                    if !decision_clock.leq(clock) {
                        errors.push(Finding {
                            severity: Severity::Error,
                            detector: "epoch-safety",
                            message: format!(
                                "confsync epoch {round}: {} applied the config \
                                 delta without the decision by {} \
                                 happening-before it",
                                self.name(*pid),
                                self.name(*decider)
                            ),
                        });
                    }
                }
            }
        }

        // Unmatched sends / never-drained channels at shutdown.
        let mut per_chan: BTreeMap<u64, (usize, Pid)> = BTreeMap::new();
        for (&(chan, _), &(sender, _)) in &self.chan_sends {
            per_chan.entry(chan).or_insert((0, sender)).0 += 1;
        }
        for (chan, (count, first_sender)) in per_chan {
            warnings.push(Finding {
                severity: Severity::Warning,
                detector: "unmatched-send",
                message: format!(
                    "channel #{chan}: {count} message(s) sent but never received \
                     (first sender: {})",
                    self.name(first_sender)
                ),
            });
        }

        // Barrier participation divergence across generations.
        for (bar, gens) in &self.barrier_parts {
            let sets: BTreeSet<&BTreeSet<Pid>> = gens.values().collect();
            if sets.len() > 1 {
                let render = |s: &BTreeSet<Pid>| {
                    s.iter()
                        .map(|&pid| self.name(pid))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let mut it = sets.iter();
                let (a, b) = (it.next().unwrap(), it.next().unwrap());
                warnings.push(Finding {
                    severity: Severity::Warning,
                    detector: "barrier-divergence",
                    message: format!(
                        "barrier #{bar}: participant set changed between \
                         generations ({{{}}} vs {{{}}})",
                        render(a),
                        render(b)
                    ),
                });
            }
        }

        // Patches on a live (non-suspended) image.
        for (pid, detail) in &self.unsafe_patches {
            warnings.push(Finding {
                severity: Severity::Warning,
                detector: "unsafe-patch",
                message: format!("{}: {detail}", self.name(*pid)),
            });
        }

        errors.extend(warnings);
        Report { findings: errors }
    }
}

impl Recorder for Mutex<History> {
    fn register(&self, pid: Pid, name: &str) {
        let mut g = self.lock();
        if g.names.len() <= pid {
            g.names.resize(pid + 1, String::new());
        }
        g.names[pid] = name.to_string();
    }

    fn record(&self, pid: Pid, ev: Event<'_>) {
        self.lock().record(pid, ev);
    }

    fn report(&self) -> Report {
        self.lock().report()
    }
}

// ---------------------------------------------------------------------------
// Recording API (called by sync primitives and higher layers)
// ---------------------------------------------------------------------------

/// Record the event `ev` builds on `p`'s run, if the run is armed (the
/// event is built only then).
#[inline(always)]
fn record<'a>(p: &Proc, ev: impl FnOnce() -> Event<'a>) {
    if let Some(r) = p.recorder() {
        r.record(p.pid(), ev());
    }
}

/// Record a message send on channel `chan` with envelope sequence `seq`.
#[inline]
pub fn chan_send(p: &Proc, chan: u64, seq: u64) {
    record(p, || Event::ChanSend(chan, seq));
}

/// Record the receipt of the envelope `(chan, seq)`: joins the sender's
/// clock at send into the receiver's clock.
#[inline]
pub fn chan_recv(p: &Proc, chan: u64, seq: u64) {
    record(p, || Event::ChanRecv(chan, seq));
}

/// Record arrival at generation `gen` of barrier `bar`.
#[inline]
pub fn barrier_arrive(p: &Proc, bar: u64, gen: u64) {
    record(p, || Event::BarrierArrive(bar, gen));
}

/// Record departure from generation `gen` of barrier `bar`: joins the
/// merged clock of every arriver into the departing process.
#[inline]
pub fn barrier_depart(p: &Proc, bar: u64, gen: u64) {
    record(p, || Event::BarrierDepart(bar, gen));
}

/// Record the opening of gate `gate`.
#[inline]
pub fn gate_open(p: &Proc, gate: u64) {
    record(p, || Event::GateOpen(gate));
}

/// Record a process passing through open gate `gate`.
#[inline]
pub fn gate_pass(p: &Proc, gate: u64) {
    record(p, || Event::GatePass(gate));
}

/// Record a push into (or closing of) work queue `q`. Conservative: pops
/// join the cumulative clock of *all* pushers, which can only over- (never
/// under-) approximate the ordering.
#[inline]
pub fn queue_push(p: &Proc, q: u64) {
    record(p, || Event::QueuePush(q));
}

/// Record a successful pop from work queue `q`.
#[inline]
pub fn queue_pop(p: &Proc, q: u64) {
    record(p, || Event::QueuePop(q));
}

/// Record that `rank` of job `job` (display name `job_name`, `size`
/// ranks) entered its `seq`-th collective `op` (rooted at `root`, if
/// rooted). Called by every MPI collective before any traffic moves.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn collective(
    p: &Proc,
    job: u64,
    job_name: &str,
    size: usize,
    rank: usize,
    seq: u64,
    op: &'static str,
    root: Option<usize>,
) {
    record(p, || Event::Collective {
        job,
        job_name,
        size,
        rank,
        seq,
        op,
        root,
    });
}

/// Record that the monitor rank decided configuration epoch `round` of
/// VT library instance `lib` (the safe-point decision, paper §5).
#[inline]
pub fn epoch_decision(p: &Proc, lib: u64, round: u64) {
    record(p, || Event::EpochDecision(lib, round));
}

/// Record that the calling rank applied the delta of epoch `round`
/// (immediately at the safe point, or later via deferred catch-up).
#[inline]
pub fn epoch_apply(p: &Proc, lib: u64, round: u64) {
    record(p, || Event::EpochApply(lib, round));
}

/// Record that epoch `round` of `lib` was aborted (rolled back) rather
/// than committed. The epoch-safety detector reports any application of
/// an aborted epoch as an error: an abort means every staged change was
/// discarded, so an apply anywhere is exactly the partially-instrumented
/// state the 2PC control plane exists to prevent.
#[inline]
pub fn epoch_abort(p: &Proc, lib: u64, round: u64) {
    record(p, || Event::EpochAbort(lib, round));
}

/// Record a probe install/remove performed while the target image was
/// not suspended.
#[inline]
pub fn unsafe_patch(p: &Proc, detail: &str) {
    record(p, || Event::UnsafePatch(detail));
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// A read handle onto a run's recorded happens-before history. Obtain
/// with [`crate::Sim::check_handle`] after [`crate::Sim::enable_check`]
/// and *before* `run` consumes the `Sim`; call [`CheckHandle::report`]
/// after the run.
#[derive(Clone)]
pub struct CheckHandle {
    pub(crate) recorder: Option<Arc<dyn Recorder>>,
}

impl CheckHandle {
    /// Was this run armed for recording?
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Run every detector over the recorded history (an unarmed run's
    /// report is clean).
    pub fn report(&self) -> Report {
        self.recorder
            .as_ref()
            .map_or_else(Report::default, |r| r.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::sync::{SimBarrier, SimChannel};
    use crate::time::SimTime;
    use crate::topology::Machine;

    fn checked_sim(seed: u64) -> (Sim, CheckHandle) {
        let sim = Sim::virtual_time(Machine::test_machine(), seed);
        sim.enable_check();
        let h = sim.check_handle();
        (sim, h)
    }

    #[test]
    fn clean_message_exchange_has_no_findings() {
        let (sim, h) = checked_sim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("tx", 0, move |p| tx.send(p, 1, SimTime::from_micros(5)));
        let rx = Arc::clone(&ch);
        sim.spawn("rx", 1, move |p| {
            rx.recv(p);
        });
        sim.run();
        let report = h.report();
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render()
        );
    }

    #[test]
    fn undelivered_message_is_an_unmatched_send() {
        let (sim, h) = checked_sim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("tx", 0, move |p| tx.send(p, 1, SimTime::from_micros(5)));
        sim.run();
        let report = h.report();
        assert!(report.errors().is_empty());
        assert_eq!(report.warnings().len(), 1);
        assert_eq!(report.warnings()[0].detector, "unmatched-send");
        assert!(report.warnings()[0].message.contains("tx"));
    }

    #[test]
    fn barrier_joins_clocks_of_all_participants() {
        let (sim, h) = checked_sim(1);
        let bar = Arc::new(SimBarrier::new(3, SimTime::ZERO));
        for i in 0..3u64 {
            let b = Arc::clone(&bar);
            sim.spawn(format!("p{i}"), 0, move |p| {
                p.advance(SimTime::from_micros(i));
                b.wait(p);
            });
        }
        sim.run();
        assert!(h.report().is_clean());
    }

    #[test]
    fn collective_root_mismatch_is_an_error() {
        let (sim, h) = checked_sim(1);
        for rank in 0..2usize {
            sim.spawn(format!("r{rank}"), 0, move |p| {
                // Both ranks enter collective #0, but claim different roots.
                collective(p, 7, "job", 2, rank, 0, "bcast", Some(rank));
            });
        }
        sim.run();
        let report = h.report();
        let errs = report.errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].detector, "collective-mismatch");
        assert!(errs[0].message.contains("root"));
    }

    #[test]
    fn collective_missing_rank_is_an_error() {
        let (sim, h) = checked_sim(1);
        sim.spawn("r0", 0, move |p| {
            collective(p, 9, "job", 2, 0, 0, "barrier", None);
        });
        sim.run();
        let errs_report = h.report();
        let errs = errs_report.errors();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("only 1 of 2"));
    }

    #[test]
    fn epoch_apply_without_order_is_an_error() {
        let (sim, h) = checked_sim(1);
        sim.spawn("decider", 0, |p| epoch_decision(p, 3, 1));
        // No message from decider to applier: the apply is unordered.
        sim.spawn("applier", 1, |p| epoch_apply(p, 3, 1));
        sim.run();
        let report = h.report();
        let errs = report.errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].detector, "epoch-safety");
    }

    #[test]
    fn applying_an_aborted_epoch_is_an_error() {
        let (sim, h) = checked_sim(1);
        let ch: Arc<SimChannel<u8>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("coordinator", 0, move |p| {
            epoch_decision(p, 5, 2);
            epoch_abort(p, 5, 2);
            tx.send(p, 0, SimTime::from_micros(1));
        });
        let rx = Arc::clone(&ch);
        sim.spawn("daemon", 1, move |p| {
            rx.recv(p);
            // Applies despite the abort — ordered, but still a bug.
            epoch_apply(p, 5, 2);
        });
        sim.run();
        let report = h.report();
        let errs = report.errors();
        assert_eq!(errs.len(), 1, "{}", report.render());
        assert_eq!(errs[0].detector, "epoch-safety");
        assert!(errs[0].message.contains("aborted"));
    }

    #[test]
    fn epoch_apply_ordered_through_channel_is_clean() {
        let (sim, h) = checked_sim(1);
        let ch: Arc<SimChannel<u8>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("decider", 0, move |p| {
            epoch_decision(p, 4, 1);
            tx.send(p, 0, SimTime::from_micros(1));
        });
        let rx = Arc::clone(&ch);
        sim.spawn("applier", 1, move |p| {
            rx.recv(p);
            epoch_apply(p, 4, 1);
        });
        sim.run();
        let report = h.report();
        assert!(report.errors().is_empty(), "{}", report.render());
    }

    #[test]
    fn disabled_recording_is_inert() {
        let sim = Sim::virtual_time(Machine::test_machine(), 1);
        let h = sim.check_handle();
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("tx", 0, move |p| tx.send(p, 1, SimTime::from_micros(5)));
        assert!(
            sim.check_handle().recorder.is_none(),
            "an unarmed run keeps no recorder, so no process was registered"
        );
        sim.run();
        assert!(!h.enabled());
        assert!(h.report().is_clean(), "nothing may be recorded when off");
    }
}
