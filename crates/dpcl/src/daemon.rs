//! The DPCL daemons (paper §3.2, Fig 5).
//!
//! "There are two types of DPCL daemons: super daemons and communication
//! daemons. There is exactly one super daemon on each node of the system.
//! The super daemon creates one communication daemon for each user that
//! connects to an application on the node, and also performs user
//! authentication. The communication daemons [...] are attached to the
//! applications and actually perform the dynamic instrumentation."
//!
//! Daemons are simulated processes; every message between an instrumenter
//! and a daemon experiences the machine's daemon delay plus jitter, which
//! is what makes DPCL *asynchronous* — "it is therefore unlikely that
//! inserted code snippets become active in all processes at the same
//! time".

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_image::{verify_snippet, Image, Snippet, VerifyError};
use dynprof_sim::sync::SimChannel;
use dynprof_sim::{hb, Proc, SimTime};

use crate::journal::ProbeJournal;
use crate::messages::{
    AckResult, DownMsg, DownMsgEnvelope, ReqId, StagedOp, SuperMsg, TargetId, UpMsg,
};

/// Cost of one super-daemon authentication check.
pub const AUTH_COST: SimTime = SimTime::from_millis(4);
/// Cost of spawning a communication daemon.
pub const SPAWN_DAEMON_COST: SimTime = SimTime::from_millis(25);
/// Cost of restarting a crashed daemon process (exec + reinit).
pub const DAEMON_RESTART_COST: SimTime = SimTime::from_millis(40);
/// Per-target cost of replaying attached state after a daemon restart.
pub const RESTART_REPLAY_COST: SimTime = SimTime::from_millis(2);
/// Cost of durably appending one record to the probe journal.
pub const JOURNAL_WRITE_COST: SimTime = SimTime::from_micros(500);
/// Per-record cost of replaying the probe journal after a restart.
pub const JOURNAL_REPLAY_COST: SimTime = SimTime::from_micros(100);

/// Inline model of a fault-plan daemon crash window: while the virtual
/// clock is inside the window the daemon is down and the message is lost;
/// the first message after the window pays the restart (plus `replay`)
/// before being served. Returns `true` if the message was lost.
fn outage_check(
    p: &Proc,
    outage: Option<(SimTime, SimTime)>,
    restarted: &mut bool,
    replay: SimTime,
) -> bool {
    let Some((start, end)) = outage else {
        return false;
    };
    let now = p.now();
    if now >= start && now < end {
        if let Some(m) = p.metrics() {
            m.counter("dpcl.daemon_msgs_lost").inc();
        }
        return true;
    }
    if now >= end && !*restarted {
        *restarted = true;
        p.advance(DAEMON_RESTART_COST + replay);
        if let Some(m) = p.metrics() {
            m.counter("dpcl.daemon_restarts").inc();
        }
    }
    false
}

/// The per-machine daemon infrastructure: lazily-started super daemons
/// and the set of users allowed to connect.
pub struct DpclSystem {
    allowed_users: Vec<String>,
    supers: Mutex<BTreeMap<usize, Arc<SimChannel<SuperMsg>>>>,
    /// Durable probe journals, one per `(node, user)` communication
    /// daemon. Owned by the system (not the daemon process) because the
    /// journal survives daemon crashes — it is the model of a
    /// write-ahead log on the node's local disk.
    journals: Mutex<BTreeMap<(usize, String), Arc<ProbeJournal>>>,
    /// One `(examined, received)` probe per control-plane channel: every
    /// daemon, client and heartbeat inbox made against this system.
    channels: Mutex<Vec<ChannelProbe>>,
}

type ChannelProbe = Box<dyn Fn() -> (u64, u64) + Send + Sync>;

impl DpclSystem {
    /// A system that authenticates exactly `allowed_users`.
    pub fn new<S: Into<String>>(allowed_users: impl IntoIterator<Item = S>) -> Arc<DpclSystem> {
        Arc::new(DpclSystem {
            allowed_users: allowed_users.into_iter().map(Into::into).collect(),
            supers: Mutex::new(BTreeMap::new()),
            journals: Mutex::new(BTreeMap::new()),
            channels: Mutex::new(Vec::new()),
        })
    }

    /// Count `ch` in [`DpclSystem::recv_cost`] from now on.
    pub(crate) fn watch<T: Send + 'static>(&self, ch: &Arc<SimChannel<T>>) {
        let ch = Arc::clone(ch);
        let probe = move || (ch.examined(), ch.received());
        self.channels.lock().push(Box::new(probe));
    }

    /// What receiving has cost on the control plane's FIFO channels so
    /// far: `(examined, received)` — queued messages that receives looked
    /// at, and messages they delivered ([`SimChannel::examined`],
    /// [`SimChannel::received`]), summed over every inbox.
    pub fn recv_cost(&self) -> (u64, u64) {
        let probes = self.channels.lock();
        probes
            .iter()
            .map(|probe| probe())
            .fold((0, 0), |sum, c| (sum.0 + c.0, sum.1 + c.1))
    }

    /// Number of super daemons currently running.
    pub fn super_daemon_count(&self) -> usize {
        self.supers.lock().len()
    }

    /// The durable journal of `user`'s communication daemon on `node`,
    /// creating it on first use (it outlives daemon restarts).
    pub(crate) fn journal_for(&self, node: usize, user: &str) -> Arc<ProbeJournal> {
        Arc::clone(
            self.journals
                .lock()
                .entry((node, user.to_string()))
                .or_insert_with(|| Arc::new(ProbeJournal::new(node))),
        )
    }

    /// The probe journal of `user`'s communication daemon on `node`, if
    /// one was ever created (inspection: tests, post-run audits).
    pub fn journal(&self, node: usize, user: &str) -> Option<Arc<ProbeJournal>> {
        self.journals.lock().get(&(node, user.to_string())).cloned()
    }

    /// Every journal in the system, sorted by `(node, user)`.
    pub fn journals(&self) -> Vec<Arc<ProbeJournal>> {
        self.journals.lock().values().cloned().collect()
    }

    /// The super daemon inbox for `node`, starting the daemon if needed
    /// (the paper's system starts them at boot; we start on first use).
    pub(crate) fn super_on(self: &Arc<Self>, p: &Proc, node: usize) -> Arc<SimChannel<SuperMsg>> {
        let mut supers = self.supers.lock();
        if let Some(ch) = supers.get(&node) {
            return Arc::clone(ch);
        }
        let inbox: Arc<SimChannel<SuperMsg>> = Arc::new(SimChannel::new_fifo());
        self.watch(&inbox);
        let inbox2 = Arc::clone(&inbox);
        let system = Arc::clone(self);
        p.spawn_child(format!("dpcl-super@{node}"), node, move |dp| {
            super_daemon_loop(dp, &inbox2, &system);
        });
        supers.insert(node, Arc::clone(&inbox));
        inbox
    }

    /// Shut down every super daemon (communication daemons are shut down
    /// by their owning client).
    pub fn shutdown_supers(&self, p: &Proc) {
        let machine = p.machine();
        for ch in self.supers.lock().values() {
            ch.send(
                p,
                SuperMsg::Shutdown,
                machine.daemon.base_delay + p.jitter(machine.daemon.jitter),
            );
        }
    }
}

/// The message an ack carries for a snippet [`verify_snippet`] rejected.
fn rejected(snippet: &Snippet, e: VerifyError) -> String {
    format!("snippet {:?} rejected: {e}", snippet.name())
}

/// Per-channel message accounting, in an observed run.
fn note_msg(p: &Proc, channel: &'static str) {
    if let Some(m) = p.metrics() {
        m.counter(channel).inc();
    }
}

fn super_daemon_loop(dp: &Proc, inbox: &SimChannel<SuperMsg>, system: &Arc<DpclSystem>) {
    let outage = dp
        .fault_plan()
        .and_then(|plan| plan.daemon_outage(dp.node()));
    let mut restarted = outage.is_none();
    // Replies already issued, keyed by request: a retried Connect (the
    // first reply was lost, or slow) re-sends the original outcome instead
    // of authenticating again and spawning a second communication daemon.
    // Fault-free no Connect is retried, so nothing is kept.
    let dedup = dp.live_faults();
    let mut done: BTreeMap<ReqId, UpMsg> = BTreeMap::new();
    loop {
        match inbox.recv(dp) {
            SuperMsg::Connect { req, user, reply } => {
                if outage_check(dp, outage, &mut restarted, SimTime::ZERO) {
                    continue;
                }
                note_msg(dp, "dpcl.msgs.connect");
                let machine = dp.machine().clone();
                if let Some(prev) = done.get(&req) {
                    if let Some(m) = dp.metrics() {
                        m.counter("dpcl.dedup_hits").inc();
                    }
                    let delay = machine.daemon.base_delay + dp.jitter(machine.daemon.jitter);
                    reply.send_ctl(dp, prev.clone(), delay);
                    continue;
                }
                dp.advance(AUTH_COST);
                let delay = machine.daemon.base_delay + dp.jitter(machine.daemon.jitter);
                if !system.allowed_users.iter().any(|u| u == &user) {
                    let msg = UpMsg::AuthFailed {
                        req,
                        message: format!("user {user:?} not authorized on node {}", dp.node()),
                    };
                    if dedup {
                        done.insert(req, msg.clone());
                    }
                    reply.send_ctl(dp, msg, delay);
                    continue;
                }
                // Spawn the per-user communication daemon.
                dp.advance(SPAWN_DAEMON_COST);
                let daemon_inbox: Arc<SimChannel<DownMsgEnvelope>> =
                    Arc::new(SimChannel::new_fifo());
                system.watch(&daemon_inbox);
                let di2 = Arc::clone(&daemon_inbox);
                let reply2 = Arc::clone(&reply);
                let user2 = user.clone();
                let journal = system.journal_for(dp.node(), &user);
                dp.spawn_child(
                    format!("dpcl-comm@{}:{user}", dp.node()),
                    dp.node(),
                    move |cp| {
                        comm_daemon_loop(cp, &di2, &reply2, &user2, &journal);
                    },
                );
                let msg = UpMsg::Connected {
                    req,
                    node: dp.node(),
                    daemon: daemon_inbox,
                };
                if dedup {
                    done.insert(req, msg.clone());
                }
                reply.send_ctl(dp, msg, delay);
            }
            SuperMsg::Ping { seq, reply } => {
                // A super daemon inside its crash window never answers —
                // the failure detector interprets the silence.
                if outage_check(dp, outage, &mut restarted, SimTime::ZERO) {
                    continue;
                }
                note_msg(dp, "dpcl.msgs.ping");
                let machine = dp.machine().clone();
                let delay = machine.daemon.base_delay + dp.jitter(machine.daemon.jitter);
                reply.send_ctl(
                    dp,
                    UpMsg::Pong {
                        node: dp.node(),
                        seq,
                    },
                    delay,
                );
            }
            SuperMsg::Shutdown => break,
        }
    }
}

fn comm_daemon_loop(
    cp: &Proc,
    inbox: &SimChannel<DownMsgEnvelope>,
    reply: &SimChannel<UpMsg>,
    _user: &str,
    journal: &ProbeJournal,
) {
    let machine = cp.machine().clone();
    let outage = cp
        .fault_plan()
        .and_then(|plan| plan.daemon_outage(cp.node()));
    let mut restarted = outage.is_none();
    // Target registry: image plus the process name (for diagnostics).
    let mut targets: BTreeMap<TargetId, (Arc<Image>, String)> = BTreeMap::new();
    // Results of completed requests: a retried request (its first ack was
    // lost, or slow) is re-acknowledged with the stored result instead of
    // being applied a second time — this is what makes client resends
    // under the same `ReqId` idempotent. Kept only under a live fault
    // plan: without one no request arrives twice, and the table would
    // hold every result of the session.
    let dedup = cp.live_faults();
    let mut done: BTreeMap<ReqId, AckResult> = BTreeMap::new();
    let ack = |cp: &Proc, req: ReqId, result: AckResult| {
        let delay = machine.daemon.base_delay + cp.jitter(machine.daemon.jitter);
        reply.send_ctl(
            cp,
            UpMsg::Ack {
                req,
                result,
                completed_at: cp.now(),
            },
            delay,
        );
    };
    let missing = |t: TargetId| AckResult::Error {
        message: format!("no attached target {t:?}"),
    };
    // Patching a running (unsuspended) process is the race the paper's
    // stop/patch/continue protocol exists to avoid; flag it for the
    // happens-before report.
    let note_unsafe = |cp: &Proc, img: &Image, op: &str| {
        if hb::on(cp) && !img.is_suspended() {
            hb::unsafe_patch(cp, &format!("{op} on running image {:?}", img.program()));
        }
    };
    loop {
        let msg = inbox.recv(cp).0;
        // Job teardown reaps the daemon process whether or not it is
        // inside a crash window — a crashed daemon just can't acknowledge.
        // Without this, a Shutdown swallowed by the outage would leave the
        // loop blocked forever and deadlock the simulation.
        if matches!(msg, DownMsg::Shutdown { .. }) {
            if let Some((start, end)) = outage {
                if cp.now() >= start && cp.now() < end {
                    break;
                }
            }
        }
        let was_restarted = restarted;
        if outage_check(
            cp,
            outage,
            &mut restarted,
            SimTime::from_nanos(RESTART_REPLAY_COST.as_nanos() * targets.len() as u64),
        ) {
            continue;
        }
        if restarted && !was_restarted {
            // Back from the crash window: replay the probe journal to
            // re-synchronize with the last committed epoch before serving
            // the first post-restart request.
            let records = journal.replay();
            cp.advance(SimTime::from_nanos(
                JOURNAL_REPLAY_COST.as_nanos() * records as u64,
            ));
            if let Some(m) = cp.metrics() {
                m.counter("dpcl.journal.replays").inc();
                m.counter("dpcl.journal.replayed_records")
                    .add(records as u64);
            }
        }
        if let Some(req) = msg.req_id() {
            if let Some(prev) = done.get(&req) {
                if let Some(m) = cp.metrics() {
                    m.counter("dpcl.dedup_hits").inc();
                }
                ack(cp, req, prev.clone());
                continue;
            }
        }
        note_msg(
            cp,
            match &msg {
                DownMsg::Attach { .. } => "dpcl.msgs.attach",
                DownMsg::Install { .. } => "dpcl.msgs.install",
                DownMsg::RemoveFunction { .. } => "dpcl.msgs.remove_function",
                DownMsg::Suspend { .. } => "dpcl.msgs.suspend",
                DownMsg::Resume { .. } => "dpcl.msgs.resume",
                DownMsg::TxnStage { .. } => "dpcl.msgs.txn_stage",
                DownMsg::TxnPrepare { .. } => "dpcl.msgs.txn_prepare",
                DownMsg::TxnCommit { .. } => "dpcl.msgs.txn_commit",
                DownMsg::TxnAbort { .. } => "dpcl.msgs.txn_abort",
                DownMsg::Shutdown { .. } => "dpcl.msgs.shutdown",
            },
        );
        let (req, result) = match msg {
            DownMsg::Attach {
                req,
                target,
                image,
                name,
            } => {
                cp.advance(machine.daemon.attach_cost);
                targets.insert(target, (image, name));
                (req, AckResult::Ok { detail: 0 })
            }
            DownMsg::Install {
                req,
                target,
                point,
                snippet,
            } => match targets.get(&target) {
                Some((img, _name)) => {
                    cp.advance(machine.daemon.patch_cost);
                    note_unsafe(cp, img, "install");
                    // The snippet's program must verify before the patch
                    // is attempted (paper §5's "know what the snippet can
                    // do before it runs" safety story).
                    match verify_snippet(&snippet) {
                        Err(e) => {
                            if let Some(m) = cp.metrics() {
                                m.counter("dpcl.installs_rejected").inc();
                            }
                            let message = rejected(&snippet, e);
                            (req, AckResult::Error { message })
                        }
                        Ok(()) => match img.try_insert(point, snippet) {
                            Ok(id) => (req, AckResult::Ok { detail: id.0 }),
                            Err(e) => (
                                req,
                                AckResult::Error {
                                    message: e.to_string(),
                                },
                            ),
                        },
                    }
                }
                None => (req, missing(target)),
            },
            DownMsg::RemoveFunction { req, target, func } => match targets.get(&target) {
                Some((img, _name)) => {
                    cp.advance(machine.daemon.patch_cost);
                    note_unsafe(cp, img, "remove_function");
                    let n = img.remove_function_instr(func);
                    (req, AckResult::Ok { detail: n as u64 })
                }
                None => (req, missing(target)),
            },
            DownMsg::Suspend { req, target } => match targets.get(&target) {
                Some((img, _name)) => {
                    img.suspend(cp);
                    (req, AckResult::Ok { detail: 0 })
                }
                None => (req, missing(target)),
            },
            DownMsg::Resume { req, target } => match targets.get(&target) {
                Some((img, _name)) => {
                    img.resume(cp, SimTime::ZERO);
                    (req, AckResult::Ok { detail: 0 })
                }
                None => (req, missing(target)),
            },
            DownMsg::TxnStage { req, txn, ops } => {
                // Journal only — the image is untouched until COMMIT, so a
                // quiesce point can never observe a staged-but-undecided op.
                cp.advance(JOURNAL_WRITE_COST);
                let n = journal.stage(cp.now(), txn, ops);
                (req, AckResult::Ok { detail: n as u64 })
            }
            DownMsg::TxnPrepare { req, txn, epoch } => {
                cp.advance(JOURNAL_WRITE_COST);
                let vote = match journal.staged_ops(txn) {
                    None => Some(format!(
                        "vote abort: nothing staged for {txn:?} on node {}",
                        cp.node()
                    )),
                    // Validate every staged op before voting yes: its
                    // target must be attached (all a removal needs), and a
                    // staged install must both verify and be
                    // a safe patch (size, branch-into-patch CFG hazard).
                    Some(ops) => ops.iter().find_map(|op| {
                        let target = op.target();
                        let Some((img, _name)) = targets.get(&target) else {
                            return Some(format!("vote abort: no attached target {target:?}"));
                        };
                        if let StagedOp::Install { point, snippet, .. } = op {
                            if let Err(e) = verify_snippet(snippet) {
                                return Some(format!("vote abort: {}", rejected(snippet, e)));
                            }
                            if let Err(e) = img.validate_patch(*point) {
                                return Some(format!("vote abort: {e}"));
                            }
                        }
                        None
                    }),
                };
                match vote {
                    None => {
                        journal.prepare(cp.now(), txn, epoch);
                        (req, AckResult::Ok { detail: epoch })
                    }
                    Some(message) => (req, AckResult::Error { message }),
                }
            }
            DownMsg::TxnCommit {
                req,
                txn,
                epoch,
                hb_lib,
            } => {
                cp.advance(JOURNAL_WRITE_COST);
                match journal.commit(cp.now(), txn, epoch) {
                    Some(ops) => {
                        let mut applied: u64 = 0;
                        let mut first_err: Option<String> = None;
                        for op in ops {
                            let target = op.target();
                            match (targets.get(&target), op) {
                                (Some((img, _name)), StagedOp::Install { point, snippet, .. }) => {
                                    cp.advance(machine.daemon.patch_cost);
                                    note_unsafe(cp, img, "txn_commit");
                                    match img.try_insert(point, snippet) {
                                        Ok(_) => applied += 1,
                                        Err(e) => {
                                            first_err.get_or_insert_with(|| e.to_string());
                                        }
                                    }
                                }
                                (Some((img, _name)), StagedOp::RemoveFunction { func, .. }) => {
                                    cp.advance(machine.daemon.patch_cost);
                                    note_unsafe(cp, img, "txn_commit");
                                    img.remove_function_instr(func);
                                    applied += 1;
                                }
                                (None, _) => {
                                    first_err.get_or_insert_with(|| {
                                        format!("no attached target {target:?}")
                                    });
                                }
                            }
                        }
                        hb::epoch_apply(cp, hb_lib, epoch);
                        match first_err {
                            // PREPARE validated every op, so a commit-time
                            // failure means the world changed between the
                            // vote and the decision — surface it loudly.
                            Some(message) => (
                                req,
                                AckResult::Error {
                                    message: format!(
                                        "commit of epoch {epoch} applied {applied} ops then failed: {message}"
                                    ),
                                },
                            ),
                            None => (req, AckResult::Ok { detail: applied }),
                        }
                    }
                    None => (
                        req,
                        AckResult::Error {
                            message: format!(
                                "commit for unknown {txn:?} on node {} (nothing staged)",
                                cp.node()
                            ),
                        },
                    ),
                }
            }
            DownMsg::TxnAbort { req, txn, epoch } => {
                cp.advance(JOURNAL_WRITE_COST);
                let discarded = journal.abort(cp.now(), txn, epoch);
                (
                    req,
                    AckResult::Ok {
                        detail: discarded as u64,
                    },
                )
            }
            DownMsg::Shutdown { req } => {
                ack(cp, req, AckResult::Ok { detail: 0 });
                break;
            }
        };
        if dedup {
            done.insert(req, result.clone());
        }
        ack(cp, req, result);
    }
}
