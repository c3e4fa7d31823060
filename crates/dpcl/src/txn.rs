//! Transactional instrumentation epochs: a two-phase-commit control plane.
//!
//! The paper's instrumentation protocol (§3.4) suspends every process,
//! patches, and resumes — but under daemon crashes and lossy control
//! links a naive multicast of install requests can leave the job
//! *partially instrumented*: some ranks counting, some not, and every
//! subsequent figure silently wrong. [`InstrumentationTxn`] rules that
//! state out:
//!
//! 1. **Validate** — an optional caller-supplied validator (normally
//!    `dynprof-check`'s static analyzer, injected as a closure to keep
//!    the crate graph acyclic) inspects the probe plan; any
//!    [`Severity::Error`] finding aborts client-side before a single
//!    message is sent.
//! 2. **Stage** — every participating daemon journals the batch durably
//!    ([`crate::ProbeJournal`]); images are untouched, so a quiesce point
//!    can never observe a staged-but-undecided op.
//! 3. **Prepare** — each daemon votes under a shared absolute deadline on
//!    the virtual clock. Silence is a vote: a daemon inside a fault-plan
//!    crash window simply fails to answer.
//! 4. **Commit / abort** — unanimous yes commits everywhere (the commit
//!    send outlives any crash window via the client's retry budget);
//!    anything else rolls back per the [`DegradedPolicy`].

use std::collections::{BTreeMap, VecDeque};

use dynprof_image::{FuncId, ProbePoint, Snippet};
use dynprof_sim::hb::{self, Finding, Severity};
use dynprof_sim::{Proc, SimTime};

use crate::client::{DpclClient, ProcessHandle};
use crate::heartbeat::{HeartbeatMonitor, NodeHealth};
use crate::messages::{AckResult, ReqId, StagedOp};

/// What a coordinator does when a participant fails to vote yes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// Roll the whole transaction back: the job stays uninstrumented
    /// rather than partially observed. The conservative default.
    #[default]
    AbortTxn,
    /// Commit on the surviving nodes and exclude the failed ones; the
    /// run is marked degraded so figure output can label it.
    ExcludeNode,
}

impl DegradedPolicy {
    /// Parse a CLI spelling (`abort-txn` / `exclude-node`).
    pub fn parse(s: &str) -> Option<DegradedPolicy> {
        match s {
            "abort-txn" | "abort" => Some(DegradedPolicy::AbortTxn),
            "exclude-node" | "exclude" => Some(DegradedPolicy::ExcludeNode),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn label(&self) -> &'static str {
        match self {
            DegradedPolicy::AbortTxn => "abort-txn",
            DegradedPolicy::ExcludeNode => "exclude-node",
        }
    }
}

/// PREPARE vote deadline, shared (absolute) across all participants.
/// Must exceed one daemon round trip; 500ms also spans the fault
/// profiles' 400ms daemon downtime, so a node that crashes *and
/// recovers* mid-vote can still answer.
const VOTE_TIMEOUT: SimTime = SimTime::from_millis(500);

/// Coordinator tuning.
#[derive(Clone, Copy, Debug, Default)]
pub struct TxnOptions {
    /// Reaction to a failed participant.
    pub policy: DegradedPolicy,
}

/// One participant's PREPARE vote.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Vote {
    /// Staged ops validated; ready to apply.
    Yes,
    /// Daemon refused (reason attached).
    No(String),
    /// No answer before the vote deadline.
    Timeout,
}

/// How a transaction ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Every participant applied the epoch.
    Committed,
    /// Committed on the surviving nodes only ([`DegradedPolicy::ExcludeNode`]).
    CommittedDegraded {
        /// Nodes rolled back and left uninstrumented.
        excluded: Vec<usize>,
    },
    /// Rolled back everywhere; no image was touched.
    Aborted {
        /// Why the coordinator aborted.
        reason: String,
    },
    /// The pre-flight validator found errors; nothing was sent.
    ValidationFailed {
        /// Rendered error findings.
        errors: Vec<String>,
    },
}

/// The coordinator's account of one transaction.
#[derive(Debug)]
pub struct TxnReport {
    /// Epoch number carried by commit/abort messages (zero when the
    /// validator stopped the transaction before one was minted).
    pub epoch: u64,
    /// Terminal state.
    pub outcome: TxnOutcome,
    /// Nodes whose commit/abort ack never arrived even after the full
    /// retry budget. The decision was *sent* (and resent); the journals
    /// on those nodes decide what actually happened.
    pub unconfirmed: Vec<usize>,
    /// Per-op apply failures (messages from daemons).
    pub op_failures: Vec<String>,
    /// Ops successfully applied across all nodes.
    pub applied: u64,
}

impl TxnReport {
    /// A transaction that ended as `outcome` before applying anything.
    fn ended(epoch: u64, outcome: TxnOutcome) -> TxnReport {
        TxnReport {
            epoch,
            outcome,
            unconfirmed: Vec::new(),
            op_failures: Vec::new(),
            applied: 0,
        }
    }

    /// Did the epoch land (fully or degraded)?
    pub fn is_committed(&self) -> bool {
        matches!(
            self.outcome,
            TxnOutcome::Committed | TxnOutcome::CommittedDegraded { .. }
        )
    }

    /// Nodes excluded by degraded-mode recovery (empty unless degraded).
    pub fn excluded(&self) -> &[usize] {
        match &self.outcome {
            TxnOutcome::CommittedDegraded { excluded } => excluded,
            _ => &[],
        }
    }
}

/// A transactional batch of probe changes across many nodes.
///
/// Build with [`InstrumentationTxn::stage_install`] and
/// [`InstrumentationTxn::stage_remove`] (staging order is preserved), then
/// run it through 2PC with [`InstrumentationTxn::execute`], or send it
/// plain with [`InstrumentationTxn::send_plain`].
pub struct InstrumentationTxn {
    opts: TxnOptions,
    /// `(node, op)` in staging order.
    staged: Vec<(usize, StagedOp)>,
    /// Ops sent plain and not yet acknowledged, in staging order:
    /// `(node, pending request)`.
    sent: VecDeque<(usize, ReqId)>,
    /// Ops sent plain and acknowledged `Ok`.
    applied: u64,
    /// Ops sent plain whose ack was a failure: `(node, ack)`, in staging
    /// order.
    failed: Vec<(usize, AckResult)>,
}

impl InstrumentationTxn {
    /// An empty transaction with the given options.
    pub fn new(opts: TxnOptions) -> InstrumentationTxn {
        InstrumentationTxn {
            opts,
            staged: Vec::new(),
            sent: VecDeque::new(),
            applied: 0,
            failed: Vec::new(),
        }
    }

    /// Queue an install of `snippet` at `point` of `h`. Nothing is sent
    /// until [`InstrumentationTxn::execute`] or
    /// [`InstrumentationTxn::send_plain`].
    pub fn stage_install(&mut self, h: &ProcessHandle, point: ProbePoint, snippet: Snippet) {
        self.staged.push((
            h.node,
            StagedOp::Install {
                target: h.target,
                point,
                snippet,
            },
        ));
    }

    /// Queue the removal of all instrumentation from `func` of `h`, sent
    /// like an install.
    pub fn stage_remove(&mut self, h: &ProcessHandle, func: FuncId) {
        let target = h.target;
        self.staged
            .push((h.node, StagedOp::RemoveFunction { target, func }));
    }

    /// Participating nodes, ascending and deduplicated.
    pub fn nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.staged.iter().map(|(n, _)| *n).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Send the ops staged so far without the protocol, for a batch 2PC
    /// has nothing to protect: they go out in staging order, as
    /// [`DpclClient::install_probe`] and [`DpclClient::remove_function`]
    /// send them. Stage and send may alternate (the caller's work in
    /// between keeps its place in virtual time);
    /// [`InstrumentationTxn::wait_plain`] then collects every ack.
    pub fn send_plain(&mut self, p: &Proc, client: &DpclClient) {
        for (node, op) in self.staged.drain(..) {
            let req = match op {
                StagedOp::Install {
                    target,
                    point,
                    snippet,
                } => client.install_at(p, node, target, point, snippet),
                StagedOp::RemoveFunction { target, func } => {
                    client.remove_at(p, node, target, func)
                }
            };
            self.sent.push_back((node, req));
        }
    }

    /// Between sends, take what has already come back: let every daemon
    /// catch up with the client's clock ([`Proc::yield_now`]), then collect
    /// the acks of the oldest ops still out, in staging order up to
    /// the first that has not arrived. Nothing waits and no clock moves;
    /// the gain is that a batch's requests and acks stop queueing in the
    /// daemons' and the client's inboxes all at once.
    pub fn collect_acks(&mut self, p: &Proc, client: &DpclClient) {
        p.yield_now();
        while let Some(&(node, req)) = self.sent.front() {
            let Some(ack) = client.try_ack(p, req) else {
                break;
            };
            self.sent.pop_front();
            self.settle(node, ack);
        }
    }

    /// Ops sent plain whose ack has not been taken yet.
    pub fn unacked(&self) -> usize {
        self.sent.len()
    }

    /// Wait for the ack of every op [`InstrumentationTxn::send_plain`]
    /// sent that [`InstrumentationTxn::collect_acks`] has not taken.
    /// Returns the ops acknowledged `Ok` and each failed op's
    /// `(node, ack)`, in staging order.
    pub fn wait_plain(mut self, p: &Proc, client: &DpclClient) -> (u64, Vec<(usize, AckResult)>) {
        while let Some((node, req)) = self.sent.pop_front() {
            let ack = client.wait_ack(p, req);
            self.settle(node, ack);
        }
        (self.applied, self.failed)
    }

    /// Account one op's ack.
    fn settle(&mut self, node: usize, ack: AckResult) {
        match ack {
            AckResult::Ok { .. } => self.applied += 1,
            ack => self.failed.push((node, ack)),
        }
    }

    /// Run the transaction to completion on the coordinator process `p`.
    ///
    /// `validator` (normally `dynprof-check`'s analyzer, closed over the
    /// caller's probe plan) gates the whole protocol; `monitor` lets the
    /// coordinator act on heartbeat verdicts *before* wasting a vote
    /// round on a node already declared dead.
    pub fn execute(
        self,
        p: &Proc,
        client: &DpclClient,
        validator: Option<&dyn Fn() -> Vec<Finding>>,
        monitor: Option<&HeartbeatMonitor>,
    ) -> TxnReport {
        let start = p.now();

        // Phase 0: client-side pre-validation. Errors abort before any
        // message leaves the coordinator.
        let errors: Vec<String> = validator
            .map(|v| v())
            .unwrap_or_default()
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .map(|f| f.to_string())
            .collect();
        if !errors.is_empty() {
            if let Some(m) = p.metrics() {
                m.counter("dpcl.txn.validation_failures").inc();
            }
            return TxnReport::ended(0, TxnOutcome::ValidationFailed { errors });
        }

        let (txn, epoch) = client.next_txn_epoch();
        let hb_lib = hb::unique_id();
        if let Some(m) = p.metrics() {
            m.counter("dpcl.txn.started").inc();
            m.counter("dpcl.txn.staged_ops")
                .add(self.staged.len() as u64);
        }

        let mut by_node: BTreeMap<usize, Vec<StagedOp>> = BTreeMap::new();
        for (node, op) in self.staged {
            by_node.entry(node).or_default().push(op);
        }

        let mut votes: Vec<(usize, Vote)> = Vec::new();
        let mut unconfirmed: Vec<usize> = Vec::new();
        let mut op_failures: Vec<String> = Vec::new();
        let mut excluded: Vec<usize> = Vec::new();

        // Heartbeat pre-check: don't waste a vote round on a node the
        // failure detector already declared dead.
        if let Some(m) = monitor {
            for &node in by_node.keys() {
                if m.health(node) == Some(NodeHealth::Dead) {
                    match self.opts.policy {
                        DegradedPolicy::AbortTxn => {
                            if let Some(m) = p.metrics() {
                                m.counter("dpcl.txn.aborts").inc();
                            }
                            let reason = format!("node {node} declared dead by heartbeat");
                            return TxnReport::ended(epoch, TxnOutcome::Aborted { reason });
                        }
                        DegradedPolicy::ExcludeNode => excluded.push(node),
                    }
                }
            }
            for node in &excluded {
                by_node.remove(node);
            }
        }

        // Phase 1a: STAGE. Durable journal writes on every participant;
        // the client's retry budget makes delivery effectively reliable
        // (idempotent resends under the same ReqId).
        let stage_reqs: Vec<(usize, ReqId)> = by_node
            .iter()
            .map(|(&node, ops)| (node, client.txn_stage(p, node, txn, ops.clone())))
            .collect();
        let mut stage_failed: Vec<(usize, String)> = Vec::new();
        for (node, req) in stage_reqs {
            match client.wait_ack(p, req) {
                AckResult::Ok { .. } => {}
                AckResult::Error { message } => stage_failed.push((node, message)),
                AckResult::TimedOut { attempts } => stage_failed.push((
                    node,
                    format!("stage unacknowledged after {attempts} attempts"),
                )),
            }
        }
        for (node, reason) in &stage_failed {
            votes.push((*node, Vote::No(format!("stage failed: {reason}"))));
        }

        // Phase 1b: PREPARE. One shared absolute deadline; no resends —
        // silence is the vote.
        let voters: Vec<usize> = by_node
            .keys()
            .copied()
            .filter(|n| !stage_failed.iter().any(|(f, _)| f == n))
            .collect();
        let prepare_reqs: Vec<(usize, ReqId)> = voters
            .iter()
            .map(|&node| (node, client.txn_prepare(p, node, txn, epoch)))
            .collect();
        let deadline = p.now() + VOTE_TIMEOUT;
        for (node, req) in prepare_reqs {
            let vote = match client.wait_ack_until(p, req, deadline) {
                Some(AckResult::Ok { .. }) => Vote::Yes,
                Some(AckResult::Error { message }) => Vote::No(message),
                Some(AckResult::TimedOut { .. }) | None => {
                    if let Some(m) = p.metrics() {
                        m.counter("dpcl.txn.vote_timeouts").inc();
                    }
                    Vote::Timeout
                }
            };
            votes.push((node, vote));
        }
        votes.sort_by_key(|(n, _)| *n);

        let yes_nodes: Vec<usize> = votes
            .iter()
            .filter(|(_, v)| *v == Vote::Yes)
            .map(|(n, _)| *n)
            .collect();
        let failed_nodes: Vec<usize> = votes
            .iter()
            .filter(|(_, v)| *v != Vote::Yes)
            .map(|(n, _)| *n)
            .collect();
        let unanimous = failed_nodes.is_empty() && excluded.is_empty();

        // Decision. Commit requires unanimity (or ExcludeNode survivors);
        // the hb record is made *before* the first commit send so the
        // checker can prove decision-happens-before-every-apply.
        let commit_to: Vec<usize>;
        let abort_to: Vec<usize>;
        let outcome: TxnOutcome;
        if unanimous {
            commit_to = yes_nodes;
            abort_to = Vec::new();
            outcome = TxnOutcome::Committed;
        } else {
            match self.opts.policy {
                DegradedPolicy::AbortTxn => {
                    let reason = votes
                        .iter()
                        .find(|(_, v)| *v != Vote::Yes)
                        .map(|(n, v)| format!("node {n} voted {v:?}"))
                        .unwrap_or_else(|| "excluded node".to_string());
                    commit_to = Vec::new();
                    // Roll back everyone we staged on — including yes
                    // voters and silent nodes (their journals may hold
                    // staged ops even though the ack was lost).
                    abort_to = by_node.keys().copied().collect();
                    outcome = TxnOutcome::Aborted { reason };
                }
                DegradedPolicy::ExcludeNode => {
                    excluded.extend(failed_nodes.iter().copied());
                    excluded.sort_unstable();
                    excluded.dedup();
                    if yes_nodes.is_empty() {
                        commit_to = Vec::new();
                        abort_to = by_node.keys().copied().collect();
                        outcome = TxnOutcome::Aborted {
                            reason: "no node voted yes".to_string(),
                        };
                    } else {
                        commit_to = yes_nodes;
                        abort_to = failed_nodes;
                        outcome = TxnOutcome::CommittedDegraded {
                            excluded: excluded.clone(),
                        };
                    }
                }
            }
        }

        let mut applied = 0u64;
        if commit_to.is_empty() {
            // Global abort: record it so any later apply of this epoch is
            // a checker error, then roll back every staged participant.
            hb::epoch_abort(p, hb_lib, epoch);
        } else {
            hb::epoch_decision(p, hb_lib, epoch);
            let reqs: Vec<(usize, ReqId)> = commit_to
                .iter()
                .map(|&node| (node, client.txn_commit(p, node, txn, epoch, hb_lib)))
                .collect();
            for (node, req) in reqs {
                match client.wait_ack(p, req) {
                    AckResult::Ok { detail } => applied += detail,
                    AckResult::Error { message } => op_failures.push(message),
                    AckResult::TimedOut { .. } => unconfirmed.push(node),
                }
            }
        }
        if !abort_to.is_empty() {
            let reqs: Vec<(usize, ReqId)> = abort_to
                .iter()
                .map(|&node| (node, client.txn_abort(p, node, txn, epoch)))
                .collect();
            // Full-budget waits: the rollback must clear the journals so
            // no transaction is left open (the chaos suite asserts this),
            // and the retry budget outlives every crash window.
            for (node, req) in reqs {
                match client.wait_ack(p, req) {
                    AckResult::Ok { .. } | AckResult::Error { .. } => {}
                    AckResult::TimedOut { .. } => unconfirmed.push(node),
                }
            }
        }

        if let Some(m) = p.metrics() {
            match &outcome {
                TxnOutcome::Committed => m.counter("dpcl.txn.commits").inc(),
                TxnOutcome::CommittedDegraded { excluded } => {
                    m.counter("dpcl.txn.commits").inc();
                    m.counter("dpcl.txn.degraded").inc();
                    m.counter("dpcl.txn.excluded_nodes")
                        .add(excluded.len() as u64);
                }
                TxnOutcome::Aborted { .. } => m.counter("dpcl.txn.aborts").inc(),
                TxnOutcome::ValidationFailed { .. } => {}
            }
            let latency = p.now().saturating_sub(start);
            m.histogram("dpcl.txn.latency_ns")
                .record(latency.as_nanos());
        }

        TxnReport {
            epoch,
            outcome,
            unconfirmed,
            op_failures,
            applied,
        }
    }
}
