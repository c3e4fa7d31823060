//! The DPCL wire protocol between instrumenters and daemons.

use std::sync::Arc;

use dynprof_image::{FuncId, Image, ProbePoint, Snippet};
use dynprof_sim::sync::SimChannel;
use dynprof_sim::SimTime;

/// Request identifier for matching asynchronous acknowledgements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Target process identifier within one communication daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TargetId(pub u32);

/// Transaction identifier: one per [`crate::InstrumentationTxn`] attempt.
/// Daemons key their staged-probe sets and journal records by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

/// One operation staged by a transaction, applied only when the COMMIT
/// arrives.
#[derive(Clone)]
pub(crate) enum StagedOp {
    /// Apply `snippet` at `point` of `target`.
    Install {
        target: TargetId,
        point: ProbePoint,
        snippet: Snippet,
    },
    /// Remove all instrumentation from `func` of `target` (both points).
    RemoveFunction { target: TargetId, func: FuncId },
}

impl StagedOp {
    /// The target process this op applies to.
    pub(crate) fn target(&self) -> TargetId {
        match self {
            StagedOp::Install { target, .. } | StagedOp::RemoveFunction { target, .. } => *target,
        }
    }
}

/// Instrumenter → daemon messages.
///
/// `Clone` so the client can keep an idempotent-resend buffer: a request
/// that times out is re-sent byte-for-byte under the **same** [`ReqId`],
/// and the daemon's dedup table makes re-application a no-op. Both are
/// kept only under a live fault plan; fault-free, a request is sent once
/// and leaves nothing behind on either side once it is acknowledged.
#[derive(Clone)]
pub(crate) enum DownMsg {
    /// Register a target process image with the daemon.
    Attach {
        req: ReqId,
        target: TargetId,
        image: Arc<Image>,
        name: String,
    },
    /// Insert a snippet at a probe point of a target.
    Install {
        req: ReqId,
        target: TargetId,
        point: ProbePoint,
        snippet: Snippet,
    },
    /// Remove all instrumentation from a function (both points).
    RemoveFunction {
        req: ReqId,
        target: TargetId,
        func: FuncId,
    },
    /// Suspend the target process.
    Suspend { req: ReqId, target: TargetId },
    /// Resume the target process.
    Resume { req: ReqId, target: TargetId },
    /// Stage a batch of probe changes under a transaction (2PC phase 0). The
    /// daemon journals the ops durably but does not touch the image.
    TxnStage {
        req: ReqId,
        txn: TxnId,
        ops: Vec<StagedOp>,
    },
    /// PREPARE (2PC phase 1): vote on whether the staged ops of `txn`
    /// can be applied. `Ok` acks vote commit; `Error` acks vote abort.
    TxnPrepare { req: ReqId, txn: TxnId, epoch: u64 },
    /// COMMIT (2PC phase 2): apply every staged op of `txn` atomically
    /// with respect to quiesce points, journal the commit, and record
    /// the happens-before apply event under `hb_lib`.
    TxnCommit {
        req: ReqId,
        txn: TxnId,
        epoch: u64,
        hb_lib: u64,
    },
    /// ABORT: discard the staged ops of `txn` and journal the rollback.
    TxnAbort { req: ReqId, txn: TxnId, epoch: u64 },
    /// Tear the daemon down.
    Shutdown { req: ReqId },
}

impl DownMsg {
    /// The request id this message will be acknowledged under.
    pub(crate) fn req_id(&self) -> Option<ReqId> {
        match self {
            DownMsg::Attach { req, .. }
            | DownMsg::Install { req, .. }
            | DownMsg::RemoveFunction { req, .. }
            | DownMsg::Suspend { req, .. }
            | DownMsg::Resume { req, .. }
            | DownMsg::TxnStage { req, .. }
            | DownMsg::TxnPrepare { req, .. }
            | DownMsg::TxnCommit { req, .. }
            | DownMsg::TxnAbort { req, .. }
            | DownMsg::Shutdown { req } => Some(*req),
        }
    }
}

/// Super-daemon requests.
#[derive(Clone)]
pub(crate) enum SuperMsg {
    /// Authenticate `user` and spawn a communication daemon for them.
    Connect {
        req: ReqId,
        user: String,
        reply: Arc<SimChannel<UpMsg>>,
    },
    /// Heartbeat probe from a failure detector: answer with
    /// [`UpMsg::Pong`] carrying the same sequence number. A super daemon
    /// inside a fault-plan crash window never sees the ping — that is
    /// exactly the silence the detector is listening for.
    Ping {
        seq: u64,
        reply: Arc<SimChannel<UpMsg>>,
    },
    /// Tear the super daemon down.
    Shutdown,
}

/// Result payload of an acknowledged request.
#[derive(Clone, Debug, PartialEq)]
pub enum AckResult {
    /// Operation succeeded; `detail` is operation-specific (e.g. the
    /// snippet id of an install, or 1/0 for a removal).
    Ok {
        /// Operation-specific detail value.
        detail: u64,
    },
    /// Operation failed.
    Error {
        /// Failure description.
        message: String,
    },
    /// No acknowledgement arrived within the client's retry budget (the
    /// daemon may be crashed or the link lossy). The request may still
    /// take effect later; re-issuing it under the same [`ReqId`] is safe
    /// (daemon-side dedup).
    TimedOut {
        /// Send attempts made before giving up.
        attempts: u32,
    },
}

impl AckResult {
    /// True for `Ok`.
    pub fn is_ok(&self) -> bool {
        matches!(self, AckResult::Ok { .. })
    }
}

/// Daemon → instrumenter messages.
///
/// `Clone` so daemons can remember and re-send the reply to a
/// deduplicated request, and so faulted links can duplicate deliveries.
#[derive(Clone)]
pub enum UpMsg {
    /// Acknowledgement of a request.
    Ack {
        /// The request being acknowledged.
        req: ReqId,
        /// Outcome.
        result: AckResult,
        /// Daemon-local completion time.
        completed_at: SimTime,
    },
    /// Connection established: the per-user communication daemon's inbox.
    Connected {
        /// The connect request.
        req: ReqId,
        /// Node of the daemon.
        node: usize,
        /// Channel for subsequent requests.
        daemon: Arc<SimChannel<DownMsgEnvelope>>,
    },
    /// Authentication failed.
    AuthFailed {
        /// The connect request.
        req: ReqId,
        /// Reason.
        message: String,
    },
    /// An application-initiated callback (e.g. `DPCL_callback()` from an
    /// inserted snippet — the MPI_Init protocol of paper Fig 6).
    Callback {
        /// User-chosen callback tag.
        tag: u64,
        /// User payload (e.g. the rank that reached the callback).
        payload: u64,
    },
    /// Heartbeat answer from a node's super daemon.
    Pong {
        /// The answering node.
        node: usize,
        /// Sequence number echoed from the heartbeat `Ping`.
        seq: u64,
    },
}

/// Envelope hiding the private `DownMsg` from the public channel type.
#[derive(Clone)]
pub struct DownMsgEnvelope(pub(crate) DownMsg);
