//! Heartbeat failure detection over super daemons.
//!
//! The 2PC control plane ([`crate::InstrumentationTxn`]) decides liveness
//! from vote deadlines alone, but a coordinator that *also* runs a
//! [`HeartbeatMonitor`] learns which nodes are unresponsive before — and
//! independently of — any transaction touching them: the monitor pings
//! every node's super daemon on a seeded interval and classifies nodes
//! `Alive → Suspect → Dead` from consecutive missed pongs.
//!
//! A super daemon inside a fault-plan crash window (see
//! `dynprof_sim::fault`) never observes the ping, so the silence the
//! detector listens for is produced by the same outage windows that make
//! communication daemons drop requests — one fault model, two observers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dynprof_sim::sync::SimChannel;
use dynprof_sim::{Proc, SimTime};

use crate::daemon::DpclSystem;
use crate::messages::{SuperMsg, UpMsg};

/// Failure-detector verdict for one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeHealth {
    /// Answering pings.
    Alive,
    /// Missed at least `suspect_after` consecutive pings.
    Suspect,
    /// Missed at least `dead_after` consecutive pings.
    Dead,
}

/// Tuning knobs of the [`HeartbeatMonitor`].
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// Base delay between probe rounds.
    pub interval: SimTime,
    /// Seeded jitter added to each inter-round sleep (desynchronizes the
    /// monitor from other periodic control-plane activity).
    pub jitter: SimTime,
    /// Per-round pong deadline, measured from the round's first ping.
    pub timeout: SimTime,
    /// Consecutive misses before a node turns [`NodeHealth::Suspect`].
    pub suspect_after: u32,
    /// Consecutive misses before a node turns [`NodeHealth::Dead`].
    pub dead_after: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> HeartbeatConfig {
        // interval ≫ timeout so rounds never overlap; timeout comfortably
        // above the slowest machine's round trip (IA32: 2·(3ms+8ms)=22ms);
        // suspect at 2 misses tolerates a single lost link-level ping
        // without a false positive, dead at 4 is unambiguous.
        HeartbeatConfig {
            interval: SimTime::from_millis(100),
            jitter: SimTime::from_millis(10),
            timeout: SimTime::from_millis(50),
            suspect_after: 2,
            dead_after: 4,
        }
    }
}

impl HeartbeatConfig {
    /// Upper bound on virtual time from a node going silent to its
    /// [`NodeHealth::Suspect`] transition: `suspect_after` full rounds
    /// plus one round of phase offset (the node may die right after
    /// answering a ping).
    pub fn suspect_bound(&self) -> SimTime {
        let round = self.interval + self.jitter + self.timeout;
        SimTime::from_nanos(round.as_nanos() * (self.suspect_after as u64 + 1))
    }
}

struct NodeState {
    misses: u32,
    health: NodeHealth,
}

/// A client-side failure detector: spawn with [`HeartbeatMonitor::run`]
/// on its own simulated process, stop it with [`HeartbeatMonitor::stop`].
pub struct HeartbeatMonitor {
    system: Arc<DpclSystem>,
    nodes: Vec<usize>,
    cfg: HeartbeatConfig,
    inbox: Arc<SimChannel<UpMsg>>,
    state: Mutex<BTreeMap<usize, NodeState>>,
    /// Health transitions in detection order: `(when, node, became)`.
    transitions: Mutex<Vec<(SimTime, usize, NodeHealth)>>,
    stop: AtomicBool,
    seq: AtomicU64,
    rounds: AtomicU64,
}

impl HeartbeatMonitor {
    /// A monitor probing `nodes` through `system`'s super daemons.
    pub fn new(
        system: Arc<DpclSystem>,
        nodes: impl IntoIterator<Item = usize>,
        cfg: HeartbeatConfig,
    ) -> Arc<HeartbeatMonitor> {
        let nodes: Vec<usize> = nodes.into_iter().collect();
        let state = nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    NodeState {
                        misses: 0,
                        health: NodeHealth::Alive,
                    },
                )
            })
            .collect();
        let inbox = Arc::new(SimChannel::new_fifo());
        system.watch(&inbox);
        Arc::new(HeartbeatMonitor {
            system,
            nodes,
            cfg,
            inbox,
            state: Mutex::new(state),
            transitions: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(1),
            rounds: AtomicU64::new(0),
        })
    }

    /// The monitor's configuration.
    pub fn config(&self) -> HeartbeatConfig {
        self.cfg
    }

    /// Current verdict for `node` (`None` if the node is not monitored).
    pub fn health(&self, node: usize) -> Option<NodeHealth> {
        self.state.lock().get(&node).map(|s| s.health)
    }

    /// Nodes currently not [`NodeHealth::Alive`], ascending.
    pub fn unhealthy(&self) -> Vec<usize> {
        self.state
            .lock()
            .iter()
            .filter(|(_, s)| s.health != NodeHealth::Alive)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Every health transition observed so far, in detection order.
    pub fn transitions(&self) -> Vec<(SimTime, usize, NodeHealth)> {
        self.transitions.lock().clone()
    }

    /// Probe rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Ask the monitor loop to exit after its current round.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// The monitor loop: run this on a dedicated simulated process
    /// (`p.spawn_child`). Exits when [`HeartbeatMonitor::stop`] is set.
    pub fn run(&self, p: &Proc) {
        while !self.stop.load(Ordering::Relaxed) {
            self.probe_round(p);
            self.rounds.fetch_add(1, Ordering::Relaxed);
            p.sleep(self.cfg.interval + p.jitter(self.cfg.jitter));
        }
    }

    /// One probe round: ping every node, then collect pongs against one
    /// shared absolute deadline. No resends — a missed pong IS the datum.
    pub fn probe_round(&self, p: &Proc) {
        let d = p.machine().daemon;
        let mut seqs: Vec<(usize, u64)> = Vec::with_capacity(self.nodes.len());
        for &node in &self.nodes {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let sup = self.system.super_on(p, node);
            sup.send_ctl(
                p,
                SuperMsg::Ping {
                    seq,
                    reply: Arc::clone(&self.inbox),
                },
                d.base_delay + p.jitter(d.jitter),
            );
            if let Some(m) = p.metrics() {
                m.counter("dpcl.heartbeat.pings").inc();
            }
            seqs.push((node, seq));
        }
        let deadline = p.now() + self.cfg.timeout;
        for (node, seq) in seqs {
            let pong = self.inbox.recv_match_deadline(
                p,
                |m| matches!(m, UpMsg::Pong { seq: s, .. } if *s == seq),
                deadline,
            );
            let answered = pong.is_some();
            if let Some(m) = p.metrics() {
                m.counter(if answered {
                    "dpcl.heartbeat.pongs"
                } else {
                    "dpcl.heartbeat.misses"
                })
                .inc();
            }
            self.note_round(p, node, answered);
        }
    }

    fn note_round(&self, p: &Proc, node: usize, answered: bool) {
        let mut g = self.state.lock();
        let Some(s) = g.get_mut(&node) else { return };
        let next = if answered {
            s.misses = 0;
            NodeHealth::Alive
        } else {
            s.misses = s.misses.saturating_add(1);
            if s.misses >= self.cfg.dead_after {
                NodeHealth::Dead
            } else if s.misses >= self.cfg.suspect_after {
                NodeHealth::Suspect
            } else {
                s.health // a single miss does not change the verdict
            }
        };
        if next != s.health {
            s.health = next;
            if let Some(m) = p.metrics() {
                m.counter(match next {
                    NodeHealth::Alive => "dpcl.heartbeat.recoveries",
                    NodeHealth::Suspect => "dpcl.heartbeat.suspects",
                    NodeHealth::Dead => "dpcl.heartbeat.deaths",
                })
                .inc();
            }
            self.transitions.lock().push((p.now(), node, next));
        }
    }
}
