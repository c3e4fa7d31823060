//! Collective operations.
//!
//! All collectives are built from the raw point-to-point layer with
//! binomial-tree algorithms, so their cost scales as `O(log P)` network
//! hops — the scaling the paper's Fig 8 depends on. Internal traffic does
//! not fire the wrapper hooks (as with real PMPI, only the top-level call
//! is observed).

use std::sync::atomic::Ordering;

use dynprof_sim::Proc;

use crate::comm::{Comm, CALL_OVERHEAD};
use crate::data::{MpiData, Sized};
use crate::types::{MpiOp, Source, Tag, TagSel};

impl Comm {
    fn next_coll_tag(&self) -> Tag {
        Tag::collective(self.coll_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Virtual rank relative to `root` (so trees can be rooted anywhere).
    fn vrank(&self, rank: usize, root: usize) -> usize {
        (rank + self.size() - root) % self.size()
    }

    fn unvrank(&self, v: usize, root: usize) -> usize {
        (v + root) % self.size()
    }

    // -- internal building blocks (no hooks) --------------------------------

    /// Binomial-tree broadcast of `data` from `root`; returns each rank's
    /// copy.
    pub(crate) fn bcast_internal<T: MpiData + Clone>(
        &self,
        p: &Proc,
        root: usize,
        data: Option<T>,
        tag: Tag,
    ) -> T {
        let n = self.size();
        let me = self.vrank(self.rank(), root);
        // Receive from the parent (the rank that differs in our lowest set
        // bit); the root has no parent and must carry the value.
        let mut mask = 1usize;
        let value;
        loop {
            if mask >= n {
                // me == 0 (the root).
                value = data.expect("root must supply the broadcast value");
                break;
            }
            if me & mask != 0 {
                let parent = self.unvrank(me - mask, root);
                let (v, _) = self.recv_raw::<T>(p, Source::Rank(parent), TagSel::Is(tag));
                value = v;
                break;
            }
            mask <<= 1;
        }
        // Forward to children me + m for m below our lowest set bit
        // (below n for the root), largest subtree first.
        let mut m = mask >> 1;
        while m > 0 {
            let child = me + m;
            if child < n {
                self.send_raw(p, self.unvrank(child, root), tag, value.clone());
            }
            m >>= 1;
        }
        value
    }

    /// Binomial-tree reduction toward `root`. Returns `Some(result)` on
    /// the root, `None` elsewhere. `op` must be associative; combination
    /// order is the deterministic tree order.
    pub(crate) fn reduce_internal<T: MpiData>(
        &self,
        p: &Proc,
        root: usize,
        mut value: T,
        op: &(dyn Fn(T, T) -> T + Sync),
        tag: Tag,
    ) -> Option<T> {
        let n = self.size();
        let me = self.vrank(self.rank(), root);
        let mut mask = 1usize;
        while mask < n {
            if me & mask != 0 {
                // Send partial to parent and leave.
                let parent = self.unvrank(me - mask, root);
                self.send_raw(p, parent, tag, value);
                return None;
            }
            let child = me | mask;
            if child < n {
                let (other, _) =
                    self.recv_raw::<T>(p, Source::Rank(self.unvrank(child, root)), TagSel::Is(tag));
                value = op(value, other);
            }
            mask <<= 1;
        }
        Some(value)
    }

    /// Barrier built from a zero-byte reduce + broadcast (2 log P hops).
    pub(crate) fn barrier_internal(&self, p: &Proc) {
        let entered = p.now();
        let tag = self.next_coll_tag();
        let up = self.reduce_internal::<u8>(p, 0, 0, &|a, b| a | b, tag);
        self.bcast_internal::<u8>(p, 0, up, tag);
        if let Some(m) = p.metrics() {
            // Virtual time this rank spent inside the barrier — recorded
            // after the fact, never advancing the clock itself.
            let wait = p.now().saturating_sub(entered).as_nanos();
            self.job.metrics.note_barrier(m, wait);
        }
    }

    fn gather_internal<T: MpiData>(
        &self,
        p: &Proc,
        root: usize,
        value: T,
        tag: Tag,
    ) -> Option<Vec<T>> {
        let wire = value.byte_len() + 8;
        let seed = Sized::new(vec![(self.rank() as u64, value)], wire);
        let merged = self.reduce_internal(
            p,
            root,
            seed,
            &|mut a: Sized<Vec<(u64, T)>>, b| {
                a.value.extend(b.value);
                a.wire_bytes += b.wire_bytes;
                a
            },
            tag,
        );
        merged.map(|mut s| {
            s.value.sort_by_key(|(r, _)| *r);
            s.value.into_iter().map(|(_, v)| v).collect()
        })
    }

    // -- public collectives ---------------------------------------------------

    /// `MPI_Barrier`.
    pub fn barrier(&self, p: &Proc) {
        self.hb_coll(p, "barrier", None);
        self.collective(p, MpiOp::Barrier, 0, |p| {
            self.barrier_internal(p);
        });
    }

    /// `MPI_Bcast`: `root` supplies `Some(data)`, everyone returns the value.
    pub fn bcast<T: MpiData + Clone>(&self, p: &Proc, root: usize, data: Option<T>) -> T {
        let bytes = data.as_ref().map_or(0, |d| d.byte_len());
        self.hb_coll(p, "bcast", Some(root));
        self.collective(p, MpiOp::Bcast, bytes, |p| {
            let tag = self.next_coll_tag();
            self.bcast_internal(p, root, data, tag)
        })
    }

    /// `MPI_Allreduce`: reduce to rank 0, then broadcast.
    pub fn allreduce<T: MpiData + Clone>(
        &self,
        p: &Proc,
        value: T,
        op: impl Fn(T, T) -> T + Sync,
    ) -> T {
        let bytes = value.byte_len();
        self.hb_coll(p, "allreduce", None);
        self.collective(p, MpiOp::Allreduce, bytes, |p| {
            let tag = self.next_coll_tag();
            let partial = self.reduce_internal(p, 0, value, &op, tag);
            self.bcast_internal(p, 0, partial, tag)
        })
    }

    /// `MPI_Alltoall`: `send[i]` goes to rank `i`; returns the vector of
    /// values received (indexed by source rank). Pairwise exchange; every
    /// step sends eagerly, so no size can deadlock it.
    pub fn alltoall<T: MpiData + Clone>(&self, p: &Proc, send: Vec<T>) -> Vec<T> {
        let n = self.size();
        assert_eq!(
            send.len(),
            n,
            "alltoall send vector must have one entry per rank"
        );
        let bytes: usize = send.iter().map(|v| v.byte_len()).sum();
        self.hb_coll(p, "alltoall", None);
        self.collective(p, MpiOp::Alltoall, bytes, |p| {
            let tag = self.next_coll_tag();
            let me = self.rank();
            let mut recv: Vec<Option<T>> = (0..n).map(|_| None).collect();
            recv[me] = Some(send[me].clone());
            for step in 1..n {
                let dst = (me + step) % n;
                let src = (me + n - step) % n;
                self.send_eager(p, dst, tag, send[dst].clone());
                let (v, _) = self.recv_raw::<T>(p, Source::Rank(src), TagSel::Is(tag));
                recv[src] = Some(v);
            }
            recv.into_iter()
                .map(|v| v.expect("all slots filled"))
                .collect()
        })
    }

    // -- unlogged collectives (tool traffic) ---------------------------------
    //
    // The instrumentation library synchronizes itself over MPI (VT_confsync
    // broadcasts configuration epochs and gathers statistics). That traffic
    // must not re-enter the wrapper interface, or the tool would trace its
    // own tracing. These variants skip the hook chain but are otherwise
    // identical to the public collectives.

    /// Barrier without firing the wrapper hooks (tool-internal traffic).
    pub fn barrier_unlogged(&self, p: &Proc) {
        self.hb_coll(p, "barrier_unlogged", None);
        p.advance(CALL_OVERHEAD);
        self.barrier_internal(p);
    }

    /// Broadcast without firing the wrapper hooks (tool-internal traffic).
    pub fn bcast_unlogged<T: MpiData + Clone>(&self, p: &Proc, root: usize, data: Option<T>) -> T {
        self.hb_coll(p, "bcast_unlogged", Some(root));
        p.advance(CALL_OVERHEAD);
        let tag = self.next_coll_tag();
        self.bcast_internal(p, root, data, tag)
    }

    /// Gather without firing the wrapper hooks (tool-internal traffic).
    pub fn gather_unlogged<T: MpiData>(&self, p: &Proc, root: usize, value: T) -> Option<Vec<T>> {
        self.hb_coll(p, "gather_unlogged", Some(root));
        p.advance(CALL_OVERHEAD);
        let tag = self.next_coll_tag();
        self.gather_internal(p, root, value, tag)
    }

    /// A top-level collective: counted, then wrapped like any call.
    fn collective<R>(&self, p: &Proc, op: MpiOp, bytes: usize, f: impl FnOnce(&Proc) -> R) -> R {
        if let Some(m) = p.metrics() {
            self.job.metrics.note_collective(m);
        }
        self.hooked(p, op, None, bytes, f)
    }
}
