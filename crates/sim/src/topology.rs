//! Cluster topology models.
//!
//! The paper evaluates on two machines:
//!
//! * an IBM Power3 clustered SMP: 144 nodes × 8 CPUs (375 MHz Power3),
//!   4 GB/node, AIX 5.1, connected by the proprietary Colony switch, and
//! * a 16-node Intel Pentium III IA32 Linux cluster (Fig 8c).
//!
//! [`Machine`] captures the pieces of those systems that determine the
//! paper's measurements: node/CPU counts, the point-to-point communication
//! model of the interconnect and of intra-node shared memory, CPU speed,
//! and the asynchronous message-delivery delays of the DPCL daemon layer.

use crate::costs::ProbeCosts;
use crate::time::SimTime;

/// A linear (latency + size/bandwidth) communication cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// One-way zero-byte message latency.
    pub latency: SimTime,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl LinkModel {
    /// Time for a one-way message of `bytes` payload.
    pub fn transfer(&self, bytes: usize) -> SimTime {
        self.latency + SimTime::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// CPU speed model used to convert abstract work into time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Nanoseconds per (scalar, cache-resident) floating-point operation.
    pub ns_per_flop: f64,
    /// Nanoseconds per byte streamed from main memory.
    pub ns_per_mem_byte: f64,
}

impl CpuModel {
    /// Time to execute `flops` floating point operations touching
    /// `mem_bytes` of main memory.
    pub fn work(&self, flops: u64, mem_bytes: u64) -> SimTime {
        SimTime::from_nanos(crate::time::round_to_u64(
            flops as f64 * self.ns_per_flop + mem_bytes as f64 * self.ns_per_mem_byte,
        ))
    }
}

/// Delay model for the asynchronous DPCL daemon message delivery.
///
/// DPCL is asynchronous: "there may be differing delays incurred when
/// contacting the daemons on different nodes in the system" (paper §3.2).
/// Each daemon message experiences `base + U[0, jitter]` delay; the jitter
/// is what forces dynprof's barrier/spin-wait startup protocol (Fig 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DaemonModel {
    /// Minimum instrumenter→daemon (or reverse) message delay.
    pub base_delay: SimTime,
    /// Maximum additional uniformly-distributed delay.
    pub jitter: SimTime,
    /// Time for a daemon to patch one probe point in a process image
    /// (allocate trampoline space, write jump, relocate instruction).
    pub patch_cost: SimTime,
    /// Time for a daemon to attach to / create one target process.
    pub attach_cost: SimTime,
}

/// A simulated cluster of SMP nodes.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Human-readable machine name (appears in reports).
    pub name: &'static str,
    /// Number of SMP nodes.
    pub nodes: usize,
    /// CPUs per node.
    pub cpus_per_node: usize,
    /// Inter-node interconnect model.
    pub interconnect: LinkModel,
    /// Intra-node (shared memory) communication model.
    pub intra_node: LinkModel,
    /// CPU model.
    pub cpu: CpuModel,
    /// DPCL daemon delay model.
    pub daemon: DaemonModel,
    /// Instrumentation probe cost model.
    pub probe: ProbeCosts,
}

impl Machine {
    /// Total CPU count of the machine.
    pub fn total_cpus(&self) -> usize {
        self.nodes * self.cpus_per_node
    }

    /// The node that hosts global MPI rank `rank` under block placement
    /// (ranks fill a node before spilling to the next, as POE does).
    pub fn node_of_rank(&self, rank: usize) -> usize {
        (rank / self.cpus_per_node) % self.nodes.max(1)
    }

    /// Communication model between two ranks (intra-node vs interconnect).
    pub fn link_between(&self, rank_a: usize, rank_b: usize) -> LinkModel {
        if self.node_of_rank(rank_a) == self.node_of_rank(rank_b) {
            self.intra_node
        } else {
            self.interconnect
        }
    }

    /// Time for a one-way message of `bytes` between two ranks.
    pub fn transfer_between(&self, rank_a: usize, rank_b: usize, bytes: usize) -> SimTime {
        self.link_between(rank_a, rank_b).transfer(bytes)
    }

    /// The IBM Power3 clustered SMP used in paper §4.1: 144 nodes, eight
    /// 375 MHz Power3 CPUs per node, Colony switch interconnect.
    pub fn ibm_power3_colony() -> Machine {
        Machine {
            name: "IBM Power3 SMP cluster (Colony)",
            nodes: 144,
            cpus_per_node: 8,
            // Colony switch: ~20 us MPI latency, ~350 MB/s per link.
            interconnect: LinkModel {
                latency: SimTime::from_micros(20),
                bandwidth: 350e6,
            },
            // Shared-memory MPI within a node: ~3 us, ~1 GB/s.
            intra_node: LinkModel {
                latency: SimTime::from_micros(3),
                bandwidth: 1.0e9,
            },
            // 375 MHz Power3: ~2 flops/cycle peak; we model a sustained
            // scalar rate of ~1 flop / 2.67 ns and ~0.8 GB/s memory streams.
            cpu: CpuModel {
                ns_per_flop: 2.67,
                ns_per_mem_byte: 1.25,
            },
            daemon: DaemonModel {
                base_delay: SimTime::from_millis(2),
                jitter: SimTime::from_millis(6),
                patch_cost: SimTime::from_micros(350),
                attach_cost: SimTime::from_millis(120),
            },
            probe: ProbeCosts::power3(),
        }
    }

    /// The 16-node Intel Pentium III IA32 Linux cluster of Fig 8(c).
    pub fn ia32_pentium3_cluster() -> Machine {
        Machine {
            name: "IA32 Pentium III Linux cluster",
            nodes: 16,
            cpus_per_node: 1,
            // 100 Mb Ethernet-class interconnect: ~60 us, ~11 MB/s... the
            // paper's sub-6 ms confsync at 16 procs implies a fast LAN; we
            // model switched fast Ethernet with TCP: 55 us, 11.5 MB/s.
            interconnect: LinkModel {
                latency: SimTime::from_micros(55),
                bandwidth: 11.5e6,
            },
            intra_node: LinkModel {
                latency: SimTime::from_micros(2),
                bandwidth: 800e6,
            },
            // ~800 MHz PIII.
            cpu: CpuModel {
                ns_per_flop: 1.8,
                ns_per_mem_byte: 1.6,
            },
            daemon: DaemonModel {
                base_delay: SimTime::from_millis(3),
                jitter: SimTime::from_millis(8),
                patch_cost: SimTime::from_micros(500),
                attach_cost: SimTime::from_millis(150),
            },
            probe: ProbeCosts::pentium3(),
        }
    }

    /// A small, fast machine for unit tests: 4 nodes × 4 CPUs with tiny
    /// latencies so tests run instantly while still exercising inter- vs
    /// intra-node paths.
    pub fn test_machine() -> Machine {
        Machine {
            name: "test machine",
            nodes: 4,
            cpus_per_node: 4,
            interconnect: LinkModel {
                latency: SimTime::from_micros(10),
                bandwidth: 1e9,
            },
            intra_node: LinkModel {
                latency: SimTime::from_micros(1),
                bandwidth: 4e9,
            },
            cpu: CpuModel {
                ns_per_flop: 1.0,
                ns_per_mem_byte: 1.0,
            },
            daemon: DaemonModel {
                base_delay: SimTime::from_micros(100),
                jitter: SimTime::from_micros(300),
                patch_cost: SimTime::from_micros(10),
                attach_cost: SimTime::from_micros(500),
            },
            probe: ProbeCosts::power3(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_is_latency_plus_bandwidth_term() {
        let l = LinkModel {
            latency: SimTime::from_micros(10),
            bandwidth: 1e9, // 1 byte per ns
        };
        assert_eq!(l.transfer(0), SimTime::from_micros(10));
        assert_eq!(l.transfer(1000), SimTime::from_micros(11));
    }

    #[test]
    fn cpu_work_combines_flops_and_memory() {
        let c = CpuModel {
            ns_per_flop: 2.0,
            ns_per_mem_byte: 1.0,
        };
        assert_eq!(c.work(100, 50), SimTime::from_nanos(250));
        assert_eq!(c.work(0, 0), SimTime::ZERO);
    }

    #[test]
    fn block_placement_fills_nodes() {
        let m = Machine::ibm_power3_colony();
        assert_eq!(m.node_of_rank(0), 0);
        assert_eq!(m.node_of_rank(7), 0);
        assert_eq!(m.node_of_rank(8), 1);
        assert_eq!(m.node_of_rank(63), 7);
    }

    #[test]
    fn intra_node_link_is_faster() {
        let m = Machine::ibm_power3_colony();
        let same = m.transfer_between(0, 1, 1024);
        let cross = m.transfer_between(0, 8, 1024);
        assert!(same < cross);
    }

    #[test]
    fn paper_machines_match_stated_sizes() {
        let ibm = Machine::ibm_power3_colony();
        assert_eq!(ibm.nodes, 144);
        assert_eq!(ibm.cpus_per_node, 8);
        assert_eq!(ibm.total_cpus(), 1152);
        let ia32 = Machine::ia32_pentium3_cluster();
        assert_eq!(ia32.nodes, 16);
        assert_eq!(ia32.total_cpus(), 16);
    }
}
