//! Communicators and point-to-point messaging.
//!
//! Messages travel through per-rank mailboxes (one [`Mailboxes`] set per
//! job) with arrival times computed from the machine's link models, so
//! intra-node and inter-node transfers cost what the topology says they
//! cost. A message may overtake an earlier one from another rank, never
//! an earlier match from its own sender (MPI's non-overtaking rule).
//!
//! Two transfer protocols are modelled, as in real MPI implementations:
//! **eager** (payload pushed immediately; messages up to [`EAGER_LIMIT`],
//! and every `isend`) and **rendezvous** (RTS → CTS handshake before the
//! data moves; used above the limit, making large sends synchronizing).

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use dynprof_obs as obs;
use dynprof_sim::hb;
use dynprof_sim::sync::Mailboxes;
use dynprof_sim::{LinkModel, Proc, SimTime};

use crate::data::MpiData;
use crate::hooks::HookChain;
use crate::types::{MpiOp, Source, Status, Tag, TagSel};

/// A job's handles into its run's registry `m`, each resolved at its
/// site's first use, so a message costs two atomic adds and no lookup.
#[derive(Default)]
pub(crate) struct JobMetrics {
    sends: OnceLock<(Arc<obs::Counter>, Arc<obs::Counter>)>,
    barriers: OnceLock<(Arc<obs::Counter>, Arc<obs::Histogram>)>,
    collectives: OnceLock<Arc<obs::Counter>>,
}

impl JobMetrics {
    /// Count one outgoing message of `bytes`.
    pub fn note_send(&self, m: &obs::Registry, bytes: usize) {
        let (messages, total) = self
            .sends
            .get_or_init(|| (m.counter("mpi.messages"), m.counter("mpi.bytes")));
        messages.inc();
        total.add(bytes as u64);
    }

    /// Count one barrier that kept this rank `wait_ns` of virtual time.
    pub fn note_barrier(&self, m: &obs::Registry, wait_ns: u64) {
        let (barriers, wait) = self.barriers.get_or_init(|| {
            (
                m.counter("mpi.barriers"),
                m.histogram("mpi.barrier_wait_ns"),
            )
        });
        barriers.inc();
        wait.record(wait_ns);
    }

    /// Count one top-level collective call.
    pub fn note_collective(&self, m: &obs::Registry) {
        self.collectives
            .get_or_init(|| m.counter("mpi.collectives"))
            .inc();
    }
}

/// Messages up to this size use the eager protocol, larger ones rendezvous.
pub(crate) const EAGER_LIMIT: usize = 64 * 1024;

/// Per-call MPI software overhead charged on each side of an op.
pub(crate) const CALL_OVERHEAD: SimTime = SimTime::from_micros(1);

pub(crate) enum Kind {
    Eager(Box<dyn Any + Send>),
    Rts { id: u32, data_bytes: usize },
    Cts,
    Data(Box<dyn Any + Send>),
}

pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub bytes: usize,
    pub kind: Kind,
}

pub(crate) struct JobState {
    pub name: String,
    pub size: usize,
    pub base_node: usize,
    pub mailboxes: Mailboxes<Envelope>,
    pub hooks: HookChain,
    pub rndv_ids: AtomicU32,
    /// Identity for happens-before recording: a process-global id
    /// ([`dynprof_sim::hb::unique_id`]) taken whether or not the run is
    /// armed.
    pub check_id: u64,
    /// The job's instruments, if its run is observed.
    pub metrics: JobMetrics,
}

impl JobState {
    /// The machine node hosting `rank` (block placement from `base_node`).
    pub fn node_of(&self, rank: usize, machine: &dynprof_sim::Machine) -> usize {
        (self.base_node + rank / machine.cpus_per_node) % machine.nodes
    }
}

/// A communicator handle for one rank of a job (the `MPI_COMM_WORLD` view).
pub struct Comm {
    pub(crate) job: Arc<JobState>,
    rank: usize,
    initialized: AtomicBool,
    finalized: AtomicBool,
    /// Local collective sequence number; identical across ranks because
    /// MPI requires collectives to be called in the same order everywhere.
    pub(crate) coll_seq: AtomicU32,
}

impl Comm {
    pub(crate) fn new(job: Arc<JobState>, rank: usize) -> Comm {
        Comm {
            job,
            rank,
            initialized: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            coll_seq: AtomicU32::new(0),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.job.size
    }

    /// The job name (the target application's name).
    pub fn job_name(&self) -> &str {
        &self.job.name
    }

    /// Has `init` completed on this rank?
    pub fn is_initialized(&self) -> bool {
        self.initialized.load(Ordering::Acquire)
    }

    /// Record this rank entering its next collective with the
    /// happens-before checker (if the run is armed). Must run before the
    /// collective consumes its sequence number.
    pub(crate) fn hb_coll(&self, p: &Proc, op: &'static str, root: Option<usize>) {
        if hb::on(p) {
            hb::collective(
                p,
                self.job.check_id,
                &self.job.name,
                self.job.size,
                self.rank,
                u64::from(self.coll_seq.load(Ordering::Relaxed)),
                op,
                root,
            );
        }
    }

    fn assert_ready(&self) {
        assert!(
            self.is_initialized(),
            "MPI operation before MPI_Init on rank {}",
            self.rank
        );
        assert!(
            !self.finalized.load(Ordering::Acquire),
            "MPI operation after MPI_Finalize on rank {}",
            self.rank
        );
    }

    /// `MPI_Init`: brings up the runtime on this rank, fires the wrapper
    /// interface's init hooks (where Vampirtrace initializes itself and
    /// dynprof's Fig-6 callback snippet runs), and loosely synchronizes
    /// the job.
    pub fn init(&self, p: &Proc) {
        assert!(
            !self.initialized.swap(true, Ordering::AcqRel),
            "MPI_Init called twice on rank {}",
            self.rank
        );
        self.hb_coll(p, "init", None);
        self.job.hooks.begin(p, self, MpiOp::Init, None, 0);
        // Runtime bring-up cost (connection establishment etc.).
        p.advance(SimTime::from_micros(200));
        // MPI_Init loosely synchronizes all ranks.
        self.barrier_internal(p);
        // Wrapper-level init: VT first, then dynprof's inserted callback.
        self.job.hooks.init(p, self);
        self.job.hooks.end(p, self, MpiOp::Init, None, 0);
    }

    /// `MPI_Finalize`.
    pub fn finalize(&self, p: &Proc) {
        self.assert_ready();
        self.hb_coll(p, "finalize", None);
        self.job.hooks.begin(p, self, MpiOp::Finalize, None, 0);
        self.barrier_internal(p);
        self.job.hooks.finalize(p, self);
        self.finalized.store(true, Ordering::Release);
        self.job.hooks.end(p, self, MpiOp::Finalize, None, 0);
    }

    // -- raw (hook-free) point-to-point: used by collectives & protocols ----

    /// The link between this rank's node and `peer`'s.
    fn link_to(&self, p: &Proc, peer: usize) -> LinkModel {
        let machine = p.machine();
        machine.link_between(
            self.job.node_of(self.rank, machine) * machine.cpus_per_node,
            self.job.node_of(peer, machine) * machine.cpus_per_node,
        )
    }

    /// Count one message of `bytes` to `dst`; returns the link it takes.
    fn depart(&self, p: &Proc, dst: usize, bytes: usize) -> LinkModel {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        if let Some(m) = p.metrics() {
            self.job.metrics.note_send(m, bytes);
        }
        self.link_to(p, dst)
    }

    /// The eager protocol at any size: the payload is posted at once and
    /// the sender moves on. `MPI_Isend` and `alltoall`'s pairwise exchange
    /// call it directly, which keeps them deadlock-free.
    pub(crate) fn send_eager<T: MpiData>(&self, p: &Proc, dst: usize, tag: Tag, data: T) {
        let bytes = data.byte_len();
        let link = self.depart(p, dst, bytes);
        self.job.mailboxes.send(
            p,
            dst,
            Envelope {
                src: self.rank,
                tag,
                bytes,
                kind: Kind::Eager(Box::new(data)),
            },
            link.transfer(bytes),
        );
    }

    /// A send by size: eager up to [`EAGER_LIMIT`], rendezvous above it.
    pub(crate) fn send_raw<T: MpiData>(&self, p: &Proc, dst: usize, tag: Tag, data: T) {
        let bytes = data.byte_len();
        if bytes <= EAGER_LIMIT {
            return self.send_eager(p, dst, tag, data);
        }
        // Rendezvous: RTS, wait for CTS, then stream the data. The sender
        // is occupied for the bandwidth term (buffer in use).
        let link = self.depart(p, dst, bytes);
        let id = self.job.rndv_ids.fetch_add(1, Ordering::Relaxed);
        self.job.mailboxes.send(
            p,
            dst,
            Envelope {
                src: self.rank,
                tag,
                bytes,
                kind: Kind::Rts {
                    id,
                    data_bytes: bytes,
                },
            },
            link.transfer(32),
        );
        let rtag = Tag::rendezvous(id);
        let _cts = self.job.mailboxes.recv_match(p, self.rank, |e| {
            e.tag == rtag && matches!(e.kind, Kind::Cts)
        });
        let bw_term = link.transfer(bytes) - link.latency;
        p.advance(bw_term);
        self.job.mailboxes.send(
            p,
            dst,
            Envelope {
                src: self.rank,
                tag: rtag,
                bytes,
                kind: Kind::Data(Box::new(data)),
            },
            link.latency,
        );
    }

    pub(crate) fn recv_raw<T: MpiData>(&self, p: &Proc, src: Source, tag: TagSel) -> (T, Status) {
        let env = self.job.mailboxes.recv_match(p, self.rank, |e| {
            src.matches(e.src)
                && tag.matches(e.tag)
                && matches!(e.kind, Kind::Eager(_) | Kind::Rts { .. })
        });
        let (payload, src_rank, otag, bytes): (Box<dyn Any + Send>, usize, Tag, usize) =
            match env.kind {
                Kind::Eager(b) => (b, env.src, env.tag, env.bytes),
                Kind::Rts { id, data_bytes } => {
                    // Clear-to-send, then wait for the streamed data.
                    let link = self.link_to(p, env.src);
                    let rtag = Tag::rendezvous(id);
                    self.job.mailboxes.send(
                        p,
                        env.src,
                        Envelope {
                            src: self.rank,
                            tag: rtag,
                            bytes: 0,
                            kind: Kind::Cts,
                        },
                        link.transfer(16),
                    );
                    let data = self.job.mailboxes.recv_match(p, self.rank, |e| {
                        e.tag == rtag && matches!(e.kind, Kind::Data(_))
                    });
                    match data.kind {
                        Kind::Data(b) => (b, env.src, env.tag, data_bytes),
                        _ => unreachable!("matched Data"),
                    }
                }
                _ => unreachable!("matcher excludes Cts/Data"),
            };
        let value = *payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "MPI recv type mismatch on rank {}: message from {} tag {:?} is not a {}",
                self.rank,
                src_rank,
                otag,
                std::any::type_name::<T>()
            )
        });
        (
            value,
            Status {
                source: src_rank,
                tag: otag,
                bytes,
                completed_at: p.now(),
            },
        )
    }

    // -- public (hooked) point-to-point --------------------------------------

    /// `MPI_Send`.
    pub fn send<T: MpiData>(&self, p: &Proc, dst: usize, tag: Tag, data: T) {
        let bytes = data.byte_len();
        self.hooked(p, MpiOp::Send, Some(dst), bytes, |p| {
            self.send_raw(p, dst, tag, data)
        });
    }

    /// `MPI_Recv`.
    pub fn recv<T: MpiData>(&self, p: &Proc, src: Source, tag: TagSel) -> (T, Status) {
        self.assert_ready();
        let peer = match src {
            Source::Rank(r) => Some(r),
            Source::Any => None,
        };
        self.job.hooks.begin(p, self, MpiOp::Recv, peer, 0);
        let (v, st) = self.recv_raw::<T>(p, src, tag);
        p.advance(CALL_OVERHEAD);
        self.job
            .hooks
            .end(p, self, MpiOp::Recv, Some(st.source), st.bytes);
        (v, st)
    }

    /// One wrapped call: the hooks and the per-call overhead around `f`.
    pub(crate) fn hooked<R>(
        &self,
        p: &Proc,
        op: MpiOp,
        peer: Option<usize>,
        bytes: usize,
        f: impl FnOnce(&Proc) -> R,
    ) -> R {
        self.assert_ready();
        self.job.hooks.begin(p, self, op, peer, bytes);
        p.advance(CALL_OVERHEAD);
        let r = f(p);
        self.job.hooks.end(p, self, op, peer, bytes);
        r
    }
}
