//! Communication statistics from MPI trace events — the VGV GUI's
//! message-statistics views.

use std::io;

use dynprof_mpi::MpiOp;
use dynprof_sim::SimTime;
use dynprof_vt::{op_from_code, Event, Trace};

use crate::dense::{DenseMap, DENSE_RANKS};

/// Columns a matrix cell is right-aligned in (a wider value takes what it
/// needs and pushes its row out, as `{:>12}` does).
const CELL: usize = 12;

/// What one sender sent one receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Peer {
    rank: u32,
    bytes: u64,
    messages: u64,
}

/// Everything kept for one rank that made an MPI call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RankComm {
    mpi_time: SimTime,
    collectives: u64,
    /// Whom this rank sent to, ascending by receiver: a stencil code has a
    /// handful, so a send finds its peer in a probe or two.
    peers: Vec<Peer>,
}

impl RankComm {
    /// Where `receiver` is in the peer list, or where it would go.
    fn slot(&self, receiver: u32) -> Result<usize, usize> {
        self.peers.binary_search_by_key(&receiver, |p| p.rank)
    }
}

/// Point-to-point traffic between rank pairs (from the send side's
/// events), plus per-rank MPI time and collective counts.
#[derive(Clone, Debug, PartialEq)]
pub struct CommStats {
    /// Present for every rank that made an MPI call.
    ranks: DenseMap<RankComm>,
}

impl Default for CommStats {
    fn default() -> CommStats {
        CommStats {
            ranks: DenseMap::new(DENSE_RANKS),
        }
    }
}

impl CommStats {
    /// Account one event. Only `MpiCall` contributes; order is
    /// irrelevant, so chunks can be streamed in any order.
    pub fn push(&mut self, ev: &Event) {
        if let Event::MpiCall {
            t,
            t_end,
            rank,
            op,
            peer,
            bytes,
        } = *ev
        {
            let state = self.ranks.entry(rank, RankComm::default);
            state.mpi_time += t_end.saturating_sub(t);
            match op_from_code(op) {
                Some(MpiOp::Send) if peer >= 0 => {
                    let receiver = peer as u32;
                    let at = state.slot(receiver).unwrap_or_else(|at| {
                        let new = Peer {
                            rank: receiver,
                            bytes: 0,
                            messages: 0,
                        };
                        state.peers.insert(at, new);
                        at
                    });
                    state.peers[at].bytes += bytes;
                    state.peers[at].messages += 1;
                }
                Some(
                    MpiOp::Barrier
                    | MpiOp::Bcast
                    | MpiOp::Reduce
                    | MpiOp::Allreduce
                    | MpiOp::Gather
                    | MpiOp::Allgather
                    | MpiOp::Alltoall
                    | MpiOp::Scan,
                ) => state.collectives += 1,
                _ => {}
            }
        }
    }

    /// Compute the statistics from a trace's `MpiCall` events.
    pub fn from_trace(trace: &Trace) -> CommStats {
        let mut out = CommStats::default();
        for ev in &trace.events {
            out.push(ev);
        }
        out
    }

    /// Compute the statistics from a chunk-indexed store, decoding one
    /// chunk at a time.
    pub fn from_store<S: crate::store::EventSource + ?Sized>(
        reader: &mut S,
    ) -> Result<CommStats, crate::TraceError> {
        let mut out = CommStats::default();
        reader.query(None, None, &mut |ev| out.push(ev))?;
        Ok(out)
    }

    fn peer(&self, sender: u32, receiver: u32) -> Option<&Peer> {
        let state = self.ranks.get(sender)?;
        state.slot(receiver).ok().map(|at| &state.peers[at])
    }

    /// Total bytes `sender` sent `receiver`.
    pub fn bytes(&self, sender: u32, receiver: u32) -> u64 {
        self.peer(sender, receiver).map_or(0, |p| p.bytes)
    }

    /// Messages `sender` sent `receiver`.
    pub fn messages(&self, sender: u32, receiver: u32) -> u64 {
        self.peer(sender, receiver).map_or(0, |p| p.messages)
    }

    /// Collective operations `rank` took part in.
    pub fn collectives(&self, rank: u32) -> u64 {
        self.ranks.get(rank).map_or(0, |s| s.collectives)
    }

    /// Total time inside MPI calls of every rank that made one, in
    /// ascending rank order.
    pub fn mpi_times(&self) -> impl Iterator<Item = (u32, SimTime)> + '_ {
        self.ranks.iter().map(|(rank, s)| (rank, s.mpi_time))
    }

    /// Was any point-to-point traffic traced? (Without it there is no
    /// matrix.)
    pub fn has_traffic(&self) -> bool {
        self.ranks.iter().any(|(_, s)| !s.peers.is_empty())
    }

    /// Write the rank×rank byte matrix (nothing if no point-to-point
    /// traffic was traced), one row at a time through one reused line
    /// buffer: memory is a row, not the ranks² of the whole picture.
    pub fn write_matrix(&self, out: &mut impl io::Write) -> io::Result<()> {
        // Rows and columns alike: every sender and every receiver.
        let mut ranks: Vec<u32> = Vec::new();
        for (sender, state) in self.ranks.iter().filter(|(_, s)| !s.peers.is_empty()) {
            ranks.push(sender);
            ranks.extend(state.peers.iter().map(|p| p.rank));
        }
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.is_empty() {
            return Ok(());
        }
        let mut line = Vec::with_capacity(8 + CELL * ranks.len() + 1);
        line.extend_from_slice(b"bytes sent (row = sender, col = receiver)\n        ");
        for &column in &ranks {
            push_right_aligned(&mut line, column.into(), CELL);
        }
        line.push(b'\n');
        out.write_all(&line)?;
        for &sender in &ranks {
            line.clear();
            line.extend_from_slice(b"rank ");
            push_right_aligned(&mut line, sender.into(), 3);
            // The sender's peers are a subsequence of the columns: walk
            // the two in step.
            let peers = self.ranks.get(sender).map_or(&[][..], |s| &s.peers);
            let mut peers = peers.iter().peekable();
            for &column in &ranks {
                let sent = peers.next_if(|p| p.rank == column);
                push_right_aligned(&mut line, sent.map_or(0, |p| p.bytes), CELL);
            }
            line.push(b'\n');
            out.write_all(&line)?;
        }
        Ok(())
    }

    /// [`CommStats::write_matrix`] as a string (empty if no point-to-point
    /// traffic was traced).
    pub fn render_matrix(&self) -> String {
        let mut out = Vec::new();
        self.write_matrix(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the matrix is ASCII")
    }
}

/// Append `v` in decimal, right-aligned in `width` (at most 20) columns:
/// what `{v:>width$}` formats, without the `String` per cell.
fn push_right_aligned(line: &mut Vec<u8>, mut v: u64, width: usize) {
    // The digits go in from the right of a blank cell as wide as the
    // longest `u64`; the cell's last `width` bytes, or all its digits if
    // they are more, are the text.
    let mut cell = [b' '; 20];
    let mut at = cell.len();
    loop {
        at -= 1;
        cell[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    line.extend_from_slice(&cell[at.min(cell.len() - width)..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn trace_with_traffic() -> Trace {
        Trace {
            program: "t".into(),
            functions: vec![],
            events: vec![
                Event::MpiCall {
                    t: us(0),
                    t_end: us(5),
                    rank: 0,
                    op: 2,
                    peer: 1,
                    bytes: 100,
                },
                Event::MpiCall {
                    t: us(5),
                    t_end: us(9),
                    rank: 0,
                    op: 2,
                    peer: 1,
                    bytes: 50,
                },
                Event::MpiCall {
                    t: us(0),
                    t_end: us(9),
                    rank: 1,
                    op: 3,
                    peer: 0,
                    bytes: 150,
                },
                Event::MpiCall {
                    t: us(10),
                    t_end: us(20),
                    rank: 0,
                    op: 4,
                    peer: -1,
                    bytes: 0,
                },
                Event::MpiCall {
                    t: us(10),
                    t_end: us(20),
                    rank: 1,
                    op: 4,
                    peer: -1,
                    bytes: 0,
                },
            ],
        }
    }

    #[test]
    fn sends_accumulate_by_pair() {
        let s = CommStats::from_trace(&trace_with_traffic());
        assert_eq!(s.bytes(0, 1), 150);
        assert_eq!(s.messages(0, 1), 2);
        assert_eq!(s.bytes(1, 0), 0, "recv side not double-counted");
        assert_eq!(s.messages(1, 0), 0);
    }

    #[test]
    fn mpi_time_and_collectives_counted() {
        let s = CommStats::from_trace(&trace_with_traffic());
        let times: Vec<_> = s.mpi_times().collect();
        assert_eq!(times, [(0, us(19)), (1, us(19))]);
        assert_eq!(s.collectives(0), 1);
        assert_eq!(s.collectives(1), 1);
        assert_eq!(s.collectives(2), 0);
    }

    #[test]
    fn matrix_renders_senders_and_receivers() {
        let s = CommStats::from_trace(&trace_with_traffic());
        let m = s.render_matrix();
        assert!(m.contains("rank   0"));
        assert!(m.contains("150"));
        assert_eq!(CommStats::default().render_matrix(), "");
        assert!(!CommStats::default().has_traffic());
    }

    #[test]
    fn cells_align_like_the_format_macro() {
        for v in [0, 7, 999, 123_456_789_012, 1_234_567_890_123, u64::MAX] {
            for width in [3, 12] {
                let mut line = Vec::new();
                push_right_aligned(&mut line, v, width);
                assert_eq!(line, format!("{v:>width$}").into_bytes());
            }
        }
    }
}
