//! Job launch — the simulator's `poe` (Parallel Operating Environment).
//!
//! A job spawns one simulated process per MPI rank, block-placed across
//! the machine's nodes. A job may be launched *held*: every rank blocks on
//! a gate before executing its first instruction, which is how `dynprof`
//! spawns a target, instruments it, and only then `start`s it (paper §3.3).

use std::sync::atomic::AtomicU32;
use std::sync::Arc;

use dynprof_sim::sync::{Mailboxes, SimGate};
use dynprof_sim::{Machine, Pid, Proc, Sim};

use crate::comm::{Comm, JobMetrics, JobState};
use crate::hooks::{HookChain, MpiHooks};

/// Description of an MPI job to launch.
pub struct JobSpec {
    /// Application name (process names become `name:rank`).
    pub name: String,
    /// Number of MPI ranks.
    pub ranks: usize,
    /// First node of the block placement.
    pub base_node: usize,
    /// If set, ranks block on this gate before running the application
    /// body (spawn-suspended, as under a debugger/instrumenter).
    pub hold: Option<Arc<SimGate>>,
}

impl JobSpec {
    /// A job of `ranks` ranks, placed from node 0 and not held.
    pub fn new(name: impl Into<String>, ranks: usize) -> JobSpec {
        assert!(ranks > 0, "job needs at least one rank");
        JobSpec {
            name: name.into(),
            ranks,
            base_node: 0,
            hold: None,
        }
    }

    /// Place the job starting at `node`.
    pub fn on_node(mut self, node: usize) -> JobSpec {
        self.base_node = node;
        self
    }

    /// Launch held: ranks wait on `gate` before running.
    pub fn held_by(mut self, gate: Arc<SimGate>) -> JobSpec {
        self.hold = Some(gate);
        self
    }
}

/// A launched MPI job.
pub struct Job {
    state: Arc<JobState>,
}

impl Job {
    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.state.size
    }

    /// The job name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// What receiving has cost on the job's mailboxes so far: `(examined,
    /// received)`, [`Mailboxes::examined`] and [`Mailboxes::received`]
    /// summed over the ranks.
    pub fn recv_cost(&self) -> (u64, u64) {
        let boxes = &self.state.mailboxes;
        (0..self.size()).fold((0, 0), |sum, rank| {
            (sum.0 + boxes.examined(rank), sum.1 + boxes.received(rank))
        })
    }

    /// The machine node hosting `rank`.
    pub fn node_of(&self, rank: usize, machine: &Machine) -> usize {
        self.state.node_of(rank, machine)
    }
}

/// A rank's process: wait on the hold gate, if any, then run the body.
type RankMain = Box<dyn FnOnce(&Proc) + Send>;

/// Build the job on `machine` and spawn its ranks, in rank order, through
/// `spawn(name, node, main)` — the one loop behind [`launch`] and
/// [`launch_from`].
fn spawn_ranks<F>(
    machine: &Machine,
    spec: JobSpec,
    hooks: Vec<Arc<dyn MpiHooks>>,
    body: F,
    mut spawn: impl FnMut(String, usize, RankMain) -> Pid,
) -> Job
where
    F: Fn(&Proc, &Comm) + Send + Sync + 'static,
{
    let mut chain = HookChain::new();
    for h in hooks {
        chain.push(h);
    }
    let state = Arc::new(JobState {
        name: spec.name.clone(),
        size: spec.ranks,
        base_node: spec.base_node,
        mailboxes: Mailboxes::new(spec.ranks, |e| Some(e.src)),
        hooks: chain,
        rndv_ids: AtomicU32::new(0),
        check_id: dynprof_sim::hb::unique_id(),
        metrics: JobMetrics::default(),
    });
    let body = Arc::new(body);
    for rank in 0..spec.ranks {
        let comm = Comm::new(Arc::clone(&state), rank);
        let (body, hold) = (Arc::clone(&body), spec.hold.clone());
        let main: RankMain = Box::new(move |p| {
            if let Some(gate) = hold {
                gate.wait_open(p);
            }
            body(p, &comm);
        });
        let node = state.node_of(rank, machine);
        spawn(format!("{}:{rank}", spec.name), node, main);
    }
    Job { state }
}

/// Launch a job from outside the simulation (before `run`).
///
/// `body` runs once per rank with that rank's [`Comm`].
pub fn launch<F>(sim: &Sim, spec: JobSpec, hooks: Vec<Arc<dyn MpiHooks>>, body: F) -> Job
where
    F: Fn(&Proc, &Comm) + Send + Sync + 'static,
{
    spawn_ranks(sim.machine(), spec, hooks, body, |n, node, main| {
        sim.spawn(n, node, main)
    })
}

/// Launch a job from within a running simulated process (e.g. the dynprof
/// instrumenter spawning its target via `poe`). Ranks start at the
/// spawner's current time plus a per-rank process-creation cost.
pub fn launch_from<F>(p: &Proc, spec: JobSpec, hooks: Vec<Arc<dyn MpiHooks>>, body: F) -> Job
where
    F: Fn(&Proc, &Comm) + Send + Sync + 'static,
{
    spawn_ranks(p.machine(), spec, hooks, body, |n, node, main| {
        p.spawn_child(n, node, main)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::EAGER_LIMIT;
    use crate::types::{Source, Tag, TagSel};
    use dynprof_sim::SimTime;
    use parking_lot::Mutex;

    fn run_job<F>(ranks: usize, body: F) -> SimTime
    where
        F: Fn(&Proc, &Comm) + Send + Sync + 'static,
    {
        let sim = Sim::virtual_time(Machine::test_machine(), 7);
        launch(&sim, JobSpec::new("t", ranks), vec![], body);
        sim.run()
    }

    #[test]
    fn ring_pass_sums_ranks() {
        let total = Arc::new(Mutex::new(0u64));
        let t2 = Arc::clone(&total);
        run_job(5, move |p, c| {
            c.init(p);
            let n = c.size();
            if c.rank() == 0 {
                c.send(p, 1, Tag::user(1), 0u64);
                let (acc, _) = c.recv::<u64>(p, Source::Rank(n - 1), TagSel::Is(Tag::user(1)));
                *t2.lock() = acc;
            } else {
                let (acc, _) =
                    c.recv::<u64>(p, Source::Rank(c.rank() - 1), TagSel::Is(Tag::user(1)));
                c.send(p, (c.rank() + 1) % n, Tag::user(1), acc + c.rank() as u64);
            }
            c.finalize(p);
        });
        assert_eq!(*total.lock(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn bcast_reaches_all_ranks() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        run_job(7, move |p, c| {
            c.init(p);
            let v = c.bcast::<u64>(p, 3, (c.rank() == 3).then_some(99));
            s2.lock().push(v);
            c.finalize(p);
        });
        assert_eq!(*seen.lock(), vec![99u64; 7]);
    }

    #[test]
    fn allreduce_is_the_same_everywhere() {
        let results = Arc::new(Mutex::new(Vec::new()));
        let r2 = Arc::clone(&results);
        run_job(6, move |p, c| {
            c.init(p);
            let me = c.rank() as u64 + 1;
            let sum = c.allreduce(p, me, |a, b| a + b);
            let max = c.allreduce(p, me, |a: u64, b| a.max(b));
            r2.lock().push((sum, max));
            c.finalize(p);
        });
        assert_eq!(*results.lock(), vec![(21u64, 6u64); 6]); // 1+..+6
    }

    #[test]
    fn gather_orders_by_rank() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&out);
        run_job(5, move |p, c| {
            c.init(p);
            if let Some(v) = c.gather_unlogged(p, 0, c.rank() as u64 * 10) {
                *o2.lock() = v;
            }
            c.finalize(p);
        });
        assert_eq!(*out.lock(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn alltoall_transposes() {
        let ok = Arc::new(Mutex::new(0));
        let ok2 = Arc::clone(&ok);
        run_job(4, move |p, c| {
            c.init(p);
            let me = c.rank() as u64;
            // send[i] = me*100 + i; so recv[j] (from rank j) = j*100 + me
            let send: Vec<u64> = (0..4).map(|i| me * 100 + i).collect();
            let recv = c.alltoall(p, send);
            for (j, v) in recv.iter().enumerate() {
                assert_eq!(*v, j as u64 * 100 + me);
            }
            *ok2.lock() += 1;
            c.finalize(p);
        });
        assert_eq!(*ok.lock(), 4);
    }

    #[test]
    fn rendezvous_large_message_round_trips() {
        run_job(2, move |p, c| {
            c.init(p);
            if c.rank() == 0 {
                let big = vec![0.5f64; 100_000]; // 800 KB > eager limit
                c.send(p, 1, Tag::user(9), big);
            } else {
                let (v, st) = c.recv::<Vec<f64>>(p, Source::Any, TagSel::Any);
                assert_eq!(v.len(), 100_000);
                assert_eq!(st.bytes, 800_000);
                assert_eq!(st.source, 0);
            }
            c.finalize(p);
        });
    }

    #[test]
    fn a_receive_from_one_rank_passes_over_earlier_messages_from_others() {
        run_job(3, |p, c| {
            c.init(p);
            match c.rank() {
                0 => {
                    p.advance(SimTime::from_millis(5)); // both have arrived
                    let tag = TagSel::Is(Tag::user(1));
                    let (v, st) = c.recv::<u64>(p, Source::Rank(2), tag);
                    assert_eq!((v, st.source), (200, 2));
                    let (v, st) = c.recv::<u64>(p, Source::Rank(1), tag);
                    assert_eq!((v, st.source), (100, 1));
                }
                r => {
                    p.advance(SimTime::from_millis(r as u64 - 1));
                    c.send(p, 0, Tag::user(1), r as u64 * 100);
                }
            }
            c.finalize(p);
        });
    }

    #[test]
    fn sends_above_64_kib_wait_for_the_receiver() {
        run_job(2, |p, c| {
            c.init(p);
            if c.rank() == 0 {
                let t0 = p.now();
                c.send(p, 1, Tag::user(1), vec![0u8; EAGER_LIMIT]);
                assert!(p.now() - t0 < SimTime::from_millis(1), "eager");
                c.send(p, 1, Tag::user(1), vec![0u8; EAGER_LIMIT + 1]);
                assert!(p.now() - t0 > SimTime::from_millis(9), "rendezvous");
            } else {
                p.advance(SimTime::from_millis(10));
                let tag = TagSel::Is(Tag::user(1));
                for bytes in [EAGER_LIMIT, EAGER_LIMIT + 1] {
                    let (_, st) = c.recv::<Vec<u8>>(p, Source::Rank(0), tag);
                    assert_eq!(st.bytes, bytes);
                }
            }
            c.finalize(p);
        });
    }

    #[test]
    fn a_rendezvous_request_does_not_overtake_an_earlier_eager_send() {
        // The request to send 64 KiB + 1 is 32 bytes on the wire, so it
        // arrives before the 64 KiB eager message sent ahead of it; MPI
        // still delivers the two in the order they were sent.
        run_job(2, |p, c| {
            c.init(p);
            if c.rank() == 0 {
                c.send(p, 1, Tag::user(1), vec![0u8; EAGER_LIMIT]);
                c.send(p, 1, Tag::user(2), vec![0u8; EAGER_LIMIT + 1]);
            } else {
                p.advance(SimTime::from_millis(10)); // both have arrived
                let (_, st) = c.recv::<Vec<u8>>(p, Source::Rank(0), TagSel::Any);
                assert_eq!((st.bytes, st.tag), (EAGER_LIMIT, Tag::user(1)));
                let (_, st) = c.recv::<Vec<u8>>(p, Source::Rank(0), TagSel::Any);
                assert_eq!((st.bytes, st.tag), (EAGER_LIMIT + 1, Tag::user(2)));
            }
            c.finalize(p);
        });
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let times = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&times);
        run_job(4, move |p, c| {
            c.init(p);
            p.advance(SimTime::from_millis(c.rank() as u64));
            c.barrier(p);
            t2.lock().push(p.now());
            c.finalize(p);
        });
        let ts = times.lock();
        let min = ts.iter().min().unwrap();
        let max = ts.iter().max().unwrap();
        // Everyone leaves after the slowest arrival; small skew from the
        // tree release is allowed.
        assert!(*min >= SimTime::from_millis(3));
        assert!(max.saturating_sub(*min) < SimTime::from_millis(1));
    }

    #[test]
    fn intra_node_messages_are_faster() {
        // Ranks 0,1 share node 0; ranks 0,8.. would cross nodes. Use a
        // 2-rank same-node job vs a 2-rank cross-node placement.
        fn elapsed(base_a: usize, ranks_apart: bool) -> SimTime {
            let sim = Sim::virtual_time(Machine::test_machine(), 7);
            let done = Arc::new(Mutex::new(SimTime::ZERO));
            let d2 = Arc::clone(&done);
            // test machine: 4 cpus/node. Place rank1 on another node by
            // spreading ranks with a large job if requested.
            let ranks = if ranks_apart { 5 } else { 2 };
            launch(
                &sim,
                JobSpec::new("t", ranks).on_node(base_a),
                vec![],
                move |p, c| {
                    c.init(p);
                    let last = c.size() - 1;
                    if c.rank() == 0 {
                        c.send(p, last, Tag::user(1), vec![1.0f64; 1000]);
                    } else if c.rank() == last {
                        let t0 = p.now();
                        let _ = c.recv::<Vec<f64>>(p, Source::Rank(0), TagSel::Any);
                        *d2.lock() = p.now() - t0;
                    }
                    c.finalize(p);
                },
            );
            sim.run();
            let t = *done.lock();
            t
        }
        // Not a strict latency comparison (init skews overlap), but the
        // cross-node receive must not be cheaper than the same-node one.
        assert!(elapsed(0, true) >= elapsed(0, false));
    }

    #[test]
    #[should_panic(expected = "before MPI_Init")]
    fn send_before_init_panics() {
        run_job(2, |p, c| {
            if c.rank() == 0 {
                c.send(p, 1, Tag::user(0), 1u8);
            } else {
                c.init(p);
                let _ = c.recv::<u8>(p, Source::Any, TagSel::Any);
            }
        });
    }

    #[test]
    #[should_panic(expected = "after MPI_Finalize")]
    fn collective_after_finalize_panics() {
        run_job(2, |p, c| {
            c.init(p);
            c.finalize(p);
            let _ = c.allreduce(p, 1u64, |a, b| a + b);
        });
    }

    #[test]
    fn held_job_waits_for_gate() {
        let sim = Sim::virtual_time(Machine::test_machine(), 7);
        let gate = Arc::new(SimGate::new());
        let starts = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&starts);
        launch(
            &sim,
            JobSpec::new("t", 3).held_by(Arc::clone(&gate)),
            vec![],
            move |p, c| {
                s2.lock().push(p.now());
                c.init(p);
                c.finalize(p);
            },
        );
        sim.spawn("instrumenter", 3, move |p| {
            p.advance(SimTime::from_millis(50));
            gate.open(p, SimTime::ZERO);
        });
        sim.run();
        for t in starts.lock().iter() {
            assert_eq!(*t, SimTime::from_millis(50));
        }
    }
}
