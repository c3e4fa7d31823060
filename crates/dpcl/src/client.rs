//! The instrumenter-side DPCL client API.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_image::{FuncId, Image, ProbePoint, Snippet};
use dynprof_sim::rng::SimRng;
use dynprof_sim::sync::SimChannel;
use dynprof_sim::{Proc, SimTime};

use crate::daemon::DpclSystem;
use crate::messages::{
    AckResult, DownMsg, DownMsgEnvelope, ReqId, StagedOp, SuperMsg, TargetId, TxnId, UpMsg,
};

/// Client-side cost of marshalling and writing one request message.
pub const CLIENT_SEND_COST: SimTime = SimTime::from_micros(20);

/// RNG stream tag for backoff jitter (disjoint from the fault-plan and
/// per-process streams).
const BACKOFF_STREAM: u64 = 0xBAC0_FF5D;

// How the client waits for acknowledgements: a request is (re)sent up to
// `MAX_ATTEMPTS` times, each attempt waiting `ACK_TIMEOUT`, then sleeping a
// `BackoffSchedule` delay before resending the same `ReqId` (daemon dedup
// makes that idempotent). Resends happen only under a live fault plan;
// without one a message cannot be lost, so a missed deadline waits again.
// The timeout sits far above any fault-free ack latency (~350ms worst
// bursts), and timeout + backoffs outlive the longest profile's daemon
// downtime.

/// Per-attempt ack deadline.
const ACK_TIMEOUT: SimTime = SimTime::from_secs(2);
/// Total send attempts (first send included) before giving up.
const MAX_ATTEMPTS: u32 = 6;
/// First backoff delay; doubles each retry.
const BACKOFF_BASE: SimTime = SimTime::from_millis(100);
/// Ceiling on the exponential backoff term.
const BACKOFF_CAP: SimTime = SimTime::from_millis(1600);

/// Deterministic bounded-exponential backoff with per-request jitter.
///
/// `delay(k) = max(delay(k-1), min(base·2ᵏ, cap) + jitter)` with
/// `jitter ≤ exp/4` drawn from a [`SimRng`] seeded by the request id —
/// monotone non-decreasing, bounded by `cap + cap/4`, and identical for
/// identical `(base, cap, seed)`.
pub struct BackoffSchedule {
    base: SimTime,
    cap: SimTime,
    rng: SimRng,
    attempt: u32,
    prev: SimTime,
}

impl BackoffSchedule {
    /// A schedule starting at `base`, exponentially rising to `cap`,
    /// jittered deterministically from `seed`.
    pub fn new(base: SimTime, cap: SimTime, seed: u64) -> BackoffSchedule {
        BackoffSchedule {
            base,
            cap,
            rng: SimRng::new(seed, BACKOFF_STREAM),
            attempt: 0,
            prev: SimTime::ZERO,
        }
    }

    /// The next delay in the schedule.
    pub fn next_delay(&mut self) -> SimTime {
        let exp_ns = self
            .base
            .as_nanos()
            .saturating_mul(1u64 << self.attempt.min(32))
            .min(self.cap.as_nanos());
        self.attempt = self.attempt.saturating_add(1);
        let jitter_ns = self.rng.gen_range_u64(0..=exp_ns / 4);
        let delay = SimTime::from_nanos(exp_ns + jitter_ns).max(self.prev);
        self.prev = delay;
        delay
    }
}

/// The one retry loop: wait up to [`ACK_TIMEOUT`] per attempt for
/// `recv` to take the reply to `req` (the request itself already sent),
/// at most [`MAX_ATTEMPTS`] times. Under a live fault plan a miss sleeps
/// the next [`BackoffSchedule`] delay and calls `resend`, which sends
/// the request again under the same [`ReqId`]; fault-free a message
/// cannot be lost, so a miss just waits again. `None` once the budget
/// is spent.
fn await_reply<T>(
    p: &Proc,
    req: ReqId,
    mut recv: impl FnMut(SimTime) -> Option<T>,
    mut resend: impl FnMut(),
) -> Option<T> {
    let live = p.live_faults();
    let mut backoff = BackoffSchedule::new(BACKOFF_BASE, BACKOFF_CAP, req.0);
    for attempt in 1..=MAX_ATTEMPTS {
        if let Some(reply) = recv(p.now() + ACK_TIMEOUT) {
            return Some(reply);
        }
        if let Some(m) = p.metrics() {
            m.counter("dpcl.retries").inc();
        }
        if live && attempt < MAX_ATTEMPTS {
            p.sleep(backoff.next_delay());
            resend();
        }
    }
    if let Some(m) = p.metrics() {
        m.counter("dpcl.timeouts").inc();
    }
    None
}

/// Why [`DpclClient::connect`] or [`DpclClient::attach`] failed. Its
/// text is the one line a user sees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DpclError {
    /// A daemon refused the request (an unknown user, a failed attach);
    /// the daemon's message.
    Rejected(String),
    /// No reply within the retry budget. `op` names the request as the
    /// message words it (`connect to node 3`, `attach to "t" on node 3`).
    TimedOut {
        /// The request, as the message words it.
        op: String,
        /// The node it was sent to.
        node: usize,
        /// Sends made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for DpclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpclError::Rejected(message) => f.write_str(message),
            DpclError::TimedOut { op, attempts, .. } => {
                write!(f, "{op} timed out after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for DpclError {}

/// A process the client has attached to.
#[derive(Clone)]
pub struct ProcessHandle {
    /// Node hosting the process.
    pub node: usize,
    /// Daemon-local target id.
    pub target: TargetId,
    /// The process image (shared with the daemon).
    pub image: Arc<Image>,
    /// Process name (diagnostics).
    pub name: String,
}

impl std::fmt::Debug for ProcessHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessHandle")
            .field("node", &self.node)
            .field("target", &self.target)
            .field("name", &self.name)
            .finish()
    }
}

/// Sender half used by in-application snippets to signal the instrumenter
/// (`DPCL_callback()` in paper Fig 6).
#[derive(Clone)]
pub struct CallbackSender {
    inbox: Arc<SimChannel<UpMsg>>,
}

impl CallbackSender {
    /// Send a callback with a tag and payload; delivery experiences the
    /// daemon-forwarding delay.
    pub fn send(&self, p: &Proc, tag: u64, payload: u64) {
        let d = p.machine().daemon;
        self.inbox.send(
            p,
            UpMsg::Callback { tag, payload },
            d.base_delay + p.jitter(d.jitter),
        );
    }
}

/// An asynchronous DPCL instrumenter connection.
///
/// All mutation requests are *asynchronous*: they return a [`ReqId`]
/// immediately; [`DpclClient::wait_ack`] blocks for the daemon's
/// acknowledgement.
pub struct DpclClient {
    system: Arc<DpclSystem>,
    user: String,
    inbox: Arc<SimChannel<UpMsg>>,
    daemons: Mutex<BTreeMap<usize, Arc<SimChannel<DownMsgEnvelope>>>>,
    next_req: AtomicU64,
    next_target: AtomicU32,
    next_txn: AtomicU64,
    /// Unacknowledged requests, kept so a timed-out wait can resend the
    /// identical message (same [`ReqId`]) to the same node — only under a
    /// live fault plan, the one case where a message can be lost.
    pending: Mutex<BTreeMap<ReqId, (usize, DownMsg)>>,
    /// Requests that failed client-side before reaching any daemon (e.g.
    /// sent to a node with no connection); the wait surfaces these as
    /// typed [`AckResult::Error`]s instead of panicking at send time.
    failed: Mutex<BTreeMap<ReqId, String>>,
    /// Issue times of in-flight requests, kept only while observation is
    /// enabled, so [`DpclClient::wait_ack`] can report virtual-time
    /// request latencies.
    issued: Mutex<BTreeMap<ReqId, (&'static str, SimTime)>>,
}

impl DpclClient {
    /// A client for `user` against `system`.
    pub fn new(system: Arc<DpclSystem>, user: impl Into<String>) -> DpclClient {
        // FIFO: acks and callbacks arrive stream-ordered, as over the
        // client's socket to each daemon. Keyed: an ack is found by its
        // request, however many others are queued around it.
        let inbox = Arc::new(SimChannel::new_fifo_keyed(|m| match m {
            UpMsg::Ack { req, .. } => Some(req.0),
            _ => None,
        }));
        system.watch(&inbox);
        DpclClient {
            system,
            user: user.into(),
            inbox,
            daemons: Mutex::new(BTreeMap::new()),
            next_req: AtomicU64::new(1),
            next_target: AtomicU32::new(1),
            next_txn: AtomicU64::new(1),
            pending: Mutex::new(BTreeMap::new()),
            failed: Mutex::new(BTreeMap::new()),
            issued: Mutex::new(BTreeMap::new()),
        }
    }

    /// Stamp `req`'s issue time under `metric` (no-op unless observing).
    fn note_issue(&self, p: &Proc, req: ReqId, metric: &'static str) {
        if p.metrics().is_some() {
            self.issued.lock().insert(req, (metric, p.now()));
        }
    }

    /// The connecting user name.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Nodes with an established communication daemon.
    pub fn connected_nodes(&self) -> Vec<usize> {
        self.daemons.lock().keys().copied().collect()
    }

    fn req(&self) -> ReqId {
        ReqId(self.next_req.fetch_add(1, Ordering::Relaxed))
    }

    fn daemon_delay(&self, p: &Proc) -> SimTime {
        let d = p.machine().daemon;
        d.base_delay + p.jitter(d.jitter)
    }

    /// Establish a communication daemon on `node` (authenticating through
    /// the node's super daemon). Idempotent. Under faults the Connect
    /// request (or its reply) may be lost; the client retries under the
    /// same [`ReqId`] — the super daemon dedups, so at most one
    /// communication daemon is ever spawned per request. Fault-free it
    /// sends once.
    pub fn connect(&self, p: &Proc, node: usize) -> Result<(), DpclError> {
        if self.daemons.lock().contains_key(&node) {
            return Ok(());
        }
        let req = self.req();
        let sup = self.system.super_on(p, node);
        let connect = SuperMsg::Connect {
            req,
            user: self.user.clone(),
            reply: Arc::clone(&self.inbox),
        };
        let send = || {
            p.advance(CLIENT_SEND_COST);
            sup.send_ctl(p, connect.clone(), self.daemon_delay(p));
        };
        send();
        let reply = await_reply(
            p,
            req,
            |deadline| {
                let is_reply = |m: &UpMsg| match m {
                    UpMsg::Connected { req: r, .. } | UpMsg::AuthFailed { req: r, .. } => *r == req,
                    _ => false,
                };
                self.inbox.recv_match_deadline(p, is_reply, deadline)
            },
            || {
                if let Some(m) = p.metrics() {
                    m.counter("dpcl.resends").inc();
                }
                send();
            },
        );
        match reply {
            Some(UpMsg::Connected { daemon, node, .. }) => {
                self.daemons.lock().insert(node, daemon);
                Ok(())
            }
            Some(UpMsg::AuthFailed { message, .. }) => Err(DpclError::Rejected(message)),
            // The matcher admits only the two arms above.
            _ => Err(DpclError::TimedOut {
                op: format!("connect to node {node}"),
                node,
                attempts: MAX_ATTEMPTS,
            }),
        }
    }

    fn send_down(&self, p: &Proc, node: usize, msg: DownMsg) {
        if let Some(m) = p.metrics() {
            m.counter("dpcl.requests").inc();
        }
        let req = msg.req_id();
        if let Some(req) = req.filter(|_| p.live_faults()) {
            self.pending.lock().insert(req, (node, msg.clone()));
        }
        p.advance(CLIENT_SEND_COST);
        let daemon = self.daemons.lock().get(&node).cloned();
        match daemon {
            Some(daemon) => daemon.send_ctl(p, DownMsgEnvelope(msg), self.daemon_delay(p)),
            None => {
                // No connection to that node: fail the request locally so
                // the wait surfaces a typed error instead of the control
                // plane panicking mid-session.
                if let Some(req) = req {
                    self.pending.lock().remove(&req);
                    self.failed
                        .lock()
                        .insert(req, format!("not connected to node {node}"));
                }
            }
        }
    }

    /// Resend the still-unacknowledged request `req` byte-for-byte to its
    /// original node (same [`ReqId`]; daemon-side dedup keeps this
    /// idempotent). Returns false if `req` is unknown, already
    /// acknowledged, or was sent without a fault plan that could lose it
    /// (no copy is kept then, and no daemon keeps a dedup entry). Called
    /// by the retry loop in [`DpclClient::wait_ack`]; public as a
    /// fault-drill hook for tests.
    pub fn resend_pending(&self, p: &Proc, req: ReqId) -> bool {
        let entry = self.pending.lock().get(&req).cloned();
        let Some((node, msg)) = entry else {
            return false;
        };
        if let Some(m) = p.metrics() {
            m.counter("dpcl.resends").inc();
        }
        p.advance(CLIENT_SEND_COST);
        let daemon = {
            let daemons = self.daemons.lock();
            match daemons.get(&node) {
                Some(d) => Arc::clone(d),
                None => return false,
            }
        };
        daemon.send_ctl(p, DownMsgEnvelope(msg), self.daemon_delay(p));
        true
    }

    /// Attach to a process image on `node` (blocking).
    pub fn attach(
        &self,
        p: &Proc,
        node: usize,
        image: Arc<Image>,
        name: impl Into<String>,
    ) -> Result<ProcessHandle, DpclError> {
        self.connect(p, node)?;
        let name = name.into();
        let target = TargetId(self.next_target.fetch_add(1, Ordering::Relaxed));
        let req = self.req();
        self.send_down(
            p,
            node,
            DownMsg::Attach {
                req,
                target,
                image: Arc::clone(&image),
                name: name.clone(),
            },
        );
        match self.wait_ack(p, req) {
            AckResult::Ok { .. } => Ok(ProcessHandle {
                node,
                target,
                image,
                name,
            }),
            AckResult::Error { message } => Err(DpclError::Rejected(message)),
            AckResult::TimedOut { attempts } => Err(DpclError::TimedOut {
                op: format!("attach to {name:?} on node {node}"),
                node,
                attempts,
            }),
        }
    }

    /// Asynchronously install `snippet` at `point` of `h`.
    pub fn install_probe(
        &self,
        p: &Proc,
        h: &ProcessHandle,
        point: ProbePoint,
        snippet: Snippet,
    ) -> ReqId {
        self.install_at(p, h.node, h.target, point, snippet)
    }

    /// [`DpclClient::install_probe`] addressed by `(node, target)`: a
    /// staged batch sent plain goes over the wire through here, so it is
    /// exactly the message sequence of untransacted installs.
    pub(crate) fn install_at(
        &self,
        p: &Proc,
        node: usize,
        target: TargetId,
        point: ProbePoint,
        snippet: Snippet,
    ) -> ReqId {
        let req = self.req();
        self.note_issue(p, req, "dpcl.install_latency_ns");
        let msg = DownMsg::Install {
            req,
            target,
            point,
            snippet,
        };
        self.send_down(p, node, msg);
        req
    }

    /// Asynchronously remove all instrumentation from `func` of `h`.
    pub fn remove_function(&self, p: &Proc, h: &ProcessHandle, func: FuncId) -> ReqId {
        self.remove_at(p, h.node, h.target, func)
    }

    /// [`DpclClient::remove_function`] addressed by `(node, target)`, as
    /// [`DpclClient::install_at`] is for installs.
    pub(crate) fn remove_at(&self, p: &Proc, node: usize, target: TargetId, func: FuncId) -> ReqId {
        let req = self.req();
        self.note_issue(p, req, "dpcl.remove_latency_ns");
        self.send_down(p, node, DownMsg::RemoveFunction { req, target, func });
        req
    }

    /// Asynchronously suspend the target process.
    pub fn suspend(&self, p: &Proc, h: &ProcessHandle) -> ReqId {
        let req = self.req();
        self.send_down(
            p,
            h.node,
            DownMsg::Suspend {
                req,
                target: h.target,
            },
        );
        req
    }

    /// Blocking suspend (the paper's "blocking version of the DPCL
    /// suspend function", §3.4): returns once the daemon confirms.
    pub fn bsuspend(&self, p: &Proc, h: &ProcessHandle) -> AckResult {
        let req = self.suspend(p, h);
        self.wait_ack(p, req)
    }

    /// Asynchronously resume the target process.
    pub fn resume(&self, p: &Proc, h: &ProcessHandle) -> ReqId {
        let req = self.req();
        self.send_down(
            p,
            h.node,
            DownMsg::Resume {
                req,
                target: h.target,
            },
        );
        req
    }

    /// Block until the acknowledgement of `req` arrives, or the retry
    /// budget is exhausted.
    ///
    /// Each attempt waits 2 s; under a live fault plan a miss sleeps the
    /// next [`BackoffSchedule`] delay and resends the request under the
    /// same [`ReqId`] (idempotent — the daemon dedups), and fault-free it
    /// just waits again. After 6 misses this returns the typed
    /// [`AckResult::TimedOut`] instead of blocking forever.
    pub fn wait_ack(&self, p: &Proc, req: ReqId) -> AckResult {
        if let Some(message) = self.failed.lock().remove(&req) {
            return AckResult::Error { message };
        }
        let acked = await_reply(
            p,
            req,
            |deadline| match self.inbox.recv_key_deadline(p, req.0, deadline)? {
                UpMsg::Ack {
                    result,
                    completed_at,
                    ..
                } => Some((result, completed_at)),
                // Only an ack carries a key.
                _ => None,
            },
            || {
                self.resend_pending(p, req);
            },
        );
        if let Some((result, completed_at)) = acked {
            return self.acked(p, req, result, completed_at);
        }
        self.pending.lock().remove(&req);
        self.issued.lock().remove(&req);
        AckResult::TimedOut {
            attempts: MAX_ATTEMPTS,
        }
    }

    /// The acknowledgement of `req` if it has already arrived, as
    /// [`DpclClient::wait_ack`] would return it; `None` without waiting
    /// otherwise.
    pub(crate) fn try_ack(&self, p: &Proc, req: ReqId) -> Option<AckResult> {
        if let Some(message) = self.failed.lock().remove(&req) {
            return Some(AckResult::Error { message });
        }
        match self.inbox.try_recv_key(p, req.0)? {
            UpMsg::Ack {
                result,
                completed_at,
                ..
            } => Some(self.acked(p, req, result, completed_at)),
            // Only an ack carries a key.
            _ => None,
        }
    }

    /// `req` is acknowledged with `result`, completed by the daemon at
    /// `completed_at`: forget its resend copy and note its latency.
    fn acked(&self, p: &Proc, req: ReqId, result: AckResult, completed_at: SimTime) -> AckResult {
        self.pending.lock().remove(&req);
        if let Some(m) = p.metrics() {
            // Virtual time from request issue to daemon completion (the
            // ack's transit back is the client's wait, not the daemon's
            // work, so it is excluded).
            if let Some((metric, sent)) = self.issued.lock().remove(&req) {
                m.histogram(metric)
                    .record(completed_at.saturating_sub(sent).as_nanos());
            }
        }
        result
    }

    /// Wait once for the acknowledgement of `req`, up to the absolute
    /// `deadline` — **no resends, no backoff**. `None` means silence:
    /// exactly the signal a 2PC coordinator treats as a vote timeout (a
    /// resend would only blur who failed to answer in time). The pending
    /// entry is dropped either way; a late ack is ignored by matcher.
    pub(crate) fn wait_ack_until(
        &self,
        p: &Proc,
        req: ReqId,
        deadline: SimTime,
    ) -> Option<AckResult> {
        if let Some(message) = self.failed.lock().remove(&req) {
            self.pending.lock().remove(&req);
            return Some(AckResult::Error { message });
        }
        match self.inbox.recv_key_deadline(p, req.0, deadline) {
            Some(UpMsg::Ack {
                result,
                completed_at,
                ..
            }) => Some(self.acked(p, req, result, completed_at)),
            _ => {
                self.pending.lock().remove(&req);
                self.issued.lock().remove(&req);
                None
            }
        }
    }

    /// Wait for every acknowledgement in `reqs` (order-insensitive);
    /// returns each request's typed outcome, in the order given.
    pub fn wait_all(&self, p: &Proc, reqs: &[ReqId]) -> Vec<(ReqId, AckResult)> {
        reqs.iter().map(|&r| (r, self.wait_ack(p, r))).collect()
    }

    // --- Transaction plumbing (used by `crate::txn::InstrumentationTxn`) ---

    /// Mint a fresh transaction id and its epoch number.
    pub(crate) fn next_txn_epoch(&self) -> (TxnId, u64) {
        let n = self.next_txn.fetch_add(1, Ordering::Relaxed);
        (TxnId(n), n)
    }

    /// Stage a batch of probe changes on `node` under `txn` (2PC phase 0).
    pub(crate) fn txn_stage(&self, p: &Proc, node: usize, txn: TxnId, ops: Vec<StagedOp>) -> ReqId {
        let req = self.req();
        self.send_down(p, node, DownMsg::TxnStage { req, txn, ops });
        req
    }

    /// Ask `node` to vote on `txn` (2PC phase 1, PREPARE).
    pub(crate) fn txn_prepare(&self, p: &Proc, node: usize, txn: TxnId, epoch: u64) -> ReqId {
        let req = self.req();
        self.send_down(p, node, DownMsg::TxnPrepare { req, txn, epoch });
        req
    }

    /// Tell `node` to apply `txn`'s staged ops (2PC phase 2, COMMIT).
    pub(crate) fn txn_commit(
        &self,
        p: &Proc,
        node: usize,
        txn: TxnId,
        epoch: u64,
        hb_lib: u64,
    ) -> ReqId {
        let req = self.req();
        self.note_issue(p, req, "dpcl.txn_commit_latency_ns");
        self.send_down(
            p,
            node,
            DownMsg::TxnCommit {
                req,
                txn,
                epoch,
                hb_lib,
            },
        );
        req
    }

    /// Tell `node` to discard `txn`'s staged ops (rollback).
    pub(crate) fn txn_abort(&self, p: &Proc, node: usize, txn: TxnId, epoch: u64) -> ReqId {
        let req = self.req();
        self.send_down(p, node, DownMsg::TxnAbort { req, txn, epoch });
        req
    }

    /// The daemon system this client talks to.
    pub fn system(&self) -> &Arc<DpclSystem> {
        &self.system
    }

    /// A sender that in-application snippets can use to call back to this
    /// instrumenter.
    pub fn callback_sender(&self) -> CallbackSender {
        CallbackSender {
            inbox: Arc::clone(&self.inbox),
        }
    }

    /// Block until an application callback with `tag` arrives; returns its
    /// payload.
    pub fn recv_callback(&self, p: &Proc, tag: u64) -> u64 {
        loop {
            let msg = self.inbox.recv_match(
                p,
                |m| matches!(m, UpMsg::Callback { tag: t, .. } if *t == tag),
            );
            // The matcher admits only Callback; keep waiting otherwise.
            if let UpMsg::Callback { payload, .. } = msg {
                return payload;
            }
        }
    }

    /// Collect `n` callbacks with `tag` (e.g. one per MPI rank reaching
    /// the MPI_Init snippet).
    pub fn recv_callbacks(&self, p: &Proc, tag: u64, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.recv_callback(p, tag)).collect()
    }

    /// Shut down this client's communication daemons (blocking) and the
    /// system's super daemons.
    pub fn shutdown(&self, p: &Proc) {
        let nodes: Vec<usize> = self.daemons.lock().keys().copied().collect();
        let mut reqs = Vec::new();
        for node in nodes {
            let req = self.req();
            self.send_down(p, node, DownMsg::Shutdown { req });
            reqs.push(req);
        }
        self.wait_all(p, &reqs);
        self.daemons.lock().clear();
        self.pending.lock().clear();
        self.failed.lock().clear();
        self.system.shutdown_supers(p);
    }
}
