//! Common MPI-layer types.

use dynprof_sim::SimTime;

/// Message tag. User tags must be below [`Tag::USER_LIMIT`]; the runtime
/// reserves the space above it for collective and rendezvous protocol
/// traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// Exclusive upper bound for user tags.
    pub const USER_LIMIT: u32 = 1 << 28;
    /// Base of the internal tag space used by collectives.
    pub(crate) const COLL_BASE: u32 = Tag::USER_LIMIT;
    /// Base of the internal tag space used by the rendezvous protocol.
    pub(crate) const RNDV_BASE: u32 = Tag::USER_LIMIT + (1 << 27);

    /// A user tag. Panics if out of range.
    pub fn user(t: u32) -> Tag {
        assert!(t < Tag::USER_LIMIT, "user tag {t} out of range");
        Tag(t)
    }

    pub(crate) fn collective(op_seq: u32) -> Tag {
        Tag(Tag::COLL_BASE + (op_seq % (1 << 27)))
    }

    pub(crate) fn rendezvous(id: u32) -> Tag {
        Tag(Tag::RNDV_BASE + (id % (1 << 27)))
    }
}

/// Source selector for a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Match a specific rank.
    Rank(usize),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl Source {
    pub(crate) fn matches(self, src: usize) -> bool {
        match self {
            Source::Rank(r) => r == src,
            Source::Any => true,
        }
    }
}

/// Tag selector for a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagSel {
    /// Match a specific tag.
    Is(Tag),
    /// `MPI_ANY_TAG` (matches only user tags, never protocol traffic).
    Any,
}

impl TagSel {
    pub(crate) fn matches(self, tag: Tag) -> bool {
        match self {
            TagSel::Is(t) => t == tag,
            TagSel::Any => tag.0 < Tag::USER_LIMIT,
        }
    }
}

/// Completion information of a receive.
#[derive(Clone, Copy, Debug)]
pub struct Status {
    /// Sending rank.
    pub source: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes (as modelled).
    pub bytes: usize,
    /// Local completion time.
    pub completed_at: SimTime,
}

/// The MPI operations observable through the wrapper (profiling) interface.
/// `op as u8` is the operation's code in a trace, and on disk: append new
/// operations at the end, never in between. `Reduce`, `Gather`,
/// `Allgather` and `Scan` keep their codes although the runtime no longer
/// offers those calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MpiOp {
    /// `MPI_Init`
    Init,
    /// `MPI_Finalize`
    Finalize,
    /// `MPI_Send` (and `MPI_Isend`)
    Send,
    /// `MPI_Recv`
    Recv,
    /// `MPI_Barrier`
    Barrier,
    /// `MPI_Bcast`
    Bcast,
    /// `MPI_Reduce`
    Reduce,
    /// `MPI_Allreduce`
    Allreduce,
    /// `MPI_Gather`
    Gather,
    /// `MPI_Allgather`
    Allgather,
    /// `MPI_Alltoall`
    Alltoall,
    /// `MPI_Scan`
    Scan,
}

impl MpiOp {
    /// Every operation, indexed by its code (`MpiOp::ALL[op as usize] == op`).
    pub const ALL: [MpiOp; 12] = [
        MpiOp::Init,
        MpiOp::Finalize,
        MpiOp::Send,
        MpiOp::Recv,
        MpiOp::Barrier,
        MpiOp::Bcast,
        MpiOp::Reduce,
        MpiOp::Allreduce,
        MpiOp::Gather,
        MpiOp::Allgather,
        MpiOp::Alltoall,
        MpiOp::Scan,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_spaces_are_disjoint() {
        let u = Tag::user(5);
        let c = Tag::collective(5);
        let r = Tag::rendezvous(5);
        assert!(u.0 < Tag::USER_LIMIT);
        assert!(c.0 >= Tag::USER_LIMIT && c.0 < Tag::RNDV_BASE);
        assert!(r.0 >= Tag::RNDV_BASE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_user_tag_panics() {
        Tag::user(Tag::USER_LIMIT);
    }

    #[test]
    fn any_tag_never_matches_protocol_traffic() {
        assert!(TagSel::Any.matches(Tag::user(7)));
        assert!(!TagSel::Any.matches(Tag::collective(7)));
        assert!(!TagSel::Any.matches(Tag::rendezvous(7)));
        assert!(TagSel::Is(Tag::collective(7)).matches(Tag::collective(7)));
    }

    #[test]
    fn source_matching() {
        assert!(Source::Any.matches(3));
        assert!(Source::Rank(3).matches(3));
        assert!(!Source::Rank(3).matches(4));
    }

    #[test]
    fn op_names() {
        assert!(MpiOp::ALL
            .iter()
            .enumerate()
            .all(|(i, &op)| op as usize == i));
    }
}
