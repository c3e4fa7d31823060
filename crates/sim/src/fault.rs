//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] is derived from a `(seed, profile)` pair and the
//! machine model, and is consulted by the engine and the synchronization
//! layer to inject:
//!
//! * **interconnect message faults** on control-plane channels — drop,
//!   duplication, extra delay ([`SimChannel::send_ctl`] in
//!   [`crate::sync`]);
//! * **per-node slowdown** — a subset of nodes executes all charged work
//!   slower (applied inside the engine's `charge`);
//! * **daemon outage windows** — per-node virtual-time intervals during
//!   which that node's DPCL daemons are crashed (consumed by the daemon
//!   loops in `dynprof-dpcl`);
//! * **missed configuration epochs** — ranks that fail to apply a
//!   `VT_confsync` delta at the safe point (consumed by `dynprof-vt`).
//!
//! Everything is a pure function of the fault seed: two runs with the
//! same simulation seed and the same fault spec are bit-identical. The
//! headline invariant is the reverse direction: a plan whose profile
//! enables **nothing** (probabilities zero, no slow nodes, no outages)
//! draws no random numbers, schedules no events, and charges no time —
//! the run is byte-identical to one with no plan installed at all.
//!
//! A plan reaches a simulation one way: [`FaultPlan::new`] instantiates a
//! [`FaultSpec`] for the machine, and [`crate::Sim::set_fault_plan`]
//! installs it before the run. A session does both from its
//! configuration's `faults` field (`dynprof_core::SessionConfig::sim`);
//! no simulation picks a plan up from anywhere else.
//!
//! [`SimChannel::send_ctl`]: crate::sync::SimChannel::send_ctl

use parking_lot::Mutex;

use crate::rng::SimRng;
use crate::time::SimTime;
use crate::topology::Machine;

/// RNG stream id for plan construction (node selection, outage windows).
const SETUP_STREAM: u64 = 0xFA17_5E10;
/// RNG stream id for per-message link decisions.
const LINK_STREAM: u64 = 0xFA17_11FE;

/// What faults a plan injects; all probabilities are in parts-per-million
/// so the plan never touches floating point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultProfile {
    /// Probability (ppm) that a control message is dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that a control message is duplicated.
    pub dup_ppm: u32,
    /// Probability (ppm) that a control message is delayed by an extra
    /// uniform `[0, extra_delay_max]`.
    pub delay_ppm: u32,
    /// Upper bound of the extra delivery delay.
    pub extra_delay_max: SimTime,
    /// Probability (ppm) that a given node is slowed.
    pub slow_node_ppm: u32,
    /// Work multiplier for slowed nodes, in permille (1500 = 1.5x).
    pub slowdown_permille: u32,
    /// Probability (ppm) that a given node's daemons crash once.
    pub crash_node_ppm: u32,
    /// Crash start time is uniform in `[0, crash_start_max]`.
    pub crash_start_max: SimTime,
    /// How long a crashed node's daemons stay down before restarting.
    pub crash_downtime: SimTime,
    /// Probability (ppm) that a nonzero rank misses a confsync epoch.
    pub missed_epoch_ppm: u32,
}

impl FaultProfile {
    /// The profile that injects nothing.
    pub fn none() -> FaultProfile {
        FaultProfile {
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            extra_delay_max: SimTime::ZERO,
            slow_node_ppm: 0,
            slowdown_permille: 1000,
            crash_node_ppm: 0,
            crash_start_max: SimTime::ZERO,
            crash_downtime: SimTime::ZERO,
            missed_epoch_ppm: 0,
        }
    }

    /// Look a named profile up (`none`, `drop`, `dup`, `delay`, `slow`,
    /// `crash`, `epochs`, `lossy`).
    pub fn named(name: &str) -> Option<FaultProfile> {
        let mut p = FaultProfile::none();
        match name {
            "none" => {}
            "drop" => p.drop_ppm = 50_000,
            "dup" => p.dup_ppm = 100_000,
            "delay" => {
                p.delay_ppm = 200_000;
                p.extra_delay_max = SimTime::from_millis(20);
            }
            "slow" => {
                p.slow_node_ppm = 250_000;
                p.slowdown_permille = 2000;
            }
            "crash" => {
                p.crash_node_ppm = 500_000;
                p.crash_start_max = SimTime::from_millis(1500);
                p.crash_downtime = SimTime::from_millis(400);
            }
            "epochs" => p.missed_epoch_ppm = 300_000,
            "lossy" => {
                p.drop_ppm = 30_000;
                p.dup_ppm = 50_000;
                p.delay_ppm = 100_000;
                p.extra_delay_max = SimTime::from_millis(10);
                p.slow_node_ppm = 125_000;
                p.slowdown_permille = 1500;
                p.crash_node_ppm = 250_000;
                p.crash_start_max = SimTime::from_millis(1500);
                p.crash_downtime = SimTime::from_millis(300);
                p.missed_epoch_ppm = 100_000;
            }
            _ => return None,
        }
        Some(p)
    }

    /// Every named profile, for matrix tests.
    pub fn all_names() -> &'static [&'static str] {
        &[
            "none", "drop", "dup", "delay", "slow", "crash", "epochs", "lossy",
        ]
    }

    fn links_enabled(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.delay_ppm > 0
    }

    /// True if this profile can never inject anything: no link faults, no
    /// slowdowns, no crash windows, no missed epochs. An inert profile is
    /// the `none` profile in every observable respect.
    pub fn is_inert(&self) -> bool {
        !self.links_enabled()
            && self.slow_node_ppm == 0
            && self.crash_node_ppm == 0
            && self.missed_epoch_ppm == 0
    }
}

/// A parsed `--faults` argument: fault seed plus profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed every fault decision derives from (independent of the
    /// simulation seed).
    pub seed: u64,
    /// Name the profile was looked up under (diagnostics).
    pub profile_name: String,
    /// The profile in force.
    pub profile: FaultProfile,
}

impl FaultSpec {
    /// Parse `seed[:profile]` (profile defaults to `lossy`).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let (seed_s, name) = match s.split_once(':') {
            Some((a, b)) => (a, b),
            None => (s, "lossy"),
        };
        let seed: u64 = seed_s
            .parse()
            .map_err(|_| format!("bad fault seed {seed_s:?} (want seed[:profile])"))?;
        let profile = FaultProfile::named(name).ok_or_else(|| {
            format!(
                "unknown fault profile {name:?} (one of {})",
                FaultProfile::all_names().join("|")
            )
        })?;
        Ok(FaultSpec {
            seed,
            profile_name: name.to_string(),
            profile,
        })
    }
}

/// Per-message link fault decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDecision {
    /// The message never arrives.
    pub drop: bool,
    /// A second copy is delivered (after the first).
    pub duplicate: bool,
    /// Extra delivery latency on every delivered copy.
    pub extra_delay: SimTime,
}

impl LinkDecision {
    /// An undisturbed delivery.
    pub const DELIVER: LinkDecision = LinkDecision {
        drop: false,
        duplicate: false,
        extra_delay: SimTime::ZERO,
    };
}

/// A fault plan instantiated for one simulation: the profile plus the
/// precomputed per-node decisions (slowdowns, outage windows) and the
/// per-message decision stream.
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per-message decisions (virtual mode runs one process at a time,
    /// so the draw order — and thus the run — is deterministic).
    link_rng: Mutex<SimRng>,
    /// Work multiplier per node, permille. 1000 = unaffected.
    node_slow: Vec<u32>,
    /// Daemon outage window per node.
    outages: Vec<Option<(SimTime, SimTime)>>,
}

impl FaultPlan {
    /// Instantiate `spec` for `machine`.
    pub fn new(spec: &FaultSpec, machine: &Machine) -> std::sync::Arc<FaultPlan> {
        let pr = &spec.profile;
        let mut setup = SimRng::new(spec.seed, SETUP_STREAM);
        let mut node_slow = Vec::with_capacity(machine.nodes);
        let mut outages = Vec::with_capacity(machine.nodes);
        for _ in 0..machine.nodes {
            // Fixed draw count per node keeps the stream aligned across
            // profiles with the same seed.
            let slow_roll = setup.gen_range_u64(0..=999_999);
            let crash_roll = setup.gen_range_u64(0..=999_999);
            let start_roll = setup.gen_range_u64(0..=pr.crash_start_max.as_nanos().max(1));
            node_slow.push(if slow_roll < pr.slow_node_ppm as u64 {
                pr.slowdown_permille.max(1)
            } else {
                1000
            });
            outages.push(
                if pr.crash_node_ppm > 0
                    && pr.crash_downtime > SimTime::ZERO
                    && crash_roll < pr.crash_node_ppm as u64
                {
                    let start = SimTime::from_nanos(start_roll.min(pr.crash_start_max.as_nanos()));
                    Some((start, start + pr.crash_downtime))
                } else {
                    None
                },
            );
        }
        std::sync::Arc::new(FaultPlan {
            spec: spec.clone(),
            link_rng: Mutex::new(SimRng::new(spec.seed, LINK_STREAM)),
            node_slow,
            outages,
        })
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Does this plan inject per-message link faults at all? (Fast path:
    /// lets senders skip the RNG entirely under a zero profile.)
    pub fn links_enabled(&self) -> bool {
        self.spec.profile.links_enabled()
    }

    /// True if this plan can never disturb the run (its profile is the
    /// `none` profile in every observable respect). Consumers that add
    /// machinery *in response to* faults — the transactional 2PC control
    /// plane in `dynprof-dpcl` is the main one — use this to take the
    /// undisturbed fast path, preserving the byte-identity guarantee of
    /// zero-fault runs.
    pub fn is_inert(&self) -> bool {
        self.spec.profile.is_inert()
    }

    /// Decide the fate of one control-plane message. Draws a fixed number
    /// of randoms per call so outcomes of earlier messages never shift
    /// the stream alignment of later ones.
    pub fn decide_link(&self) -> LinkDecision {
        let pr = &self.spec.profile;
        if !pr.links_enabled() {
            return LinkDecision::DELIVER;
        }
        let mut rng = self.link_rng.lock();
        let drop_roll = rng.gen_range_u64(0..=999_999);
        let dup_roll = rng.gen_range_u64(0..=999_999);
        let delay_roll = rng.gen_range_u64(0..=999_999);
        let delay_amount = rng.gen_range_u64(0..=pr.extra_delay_max.as_nanos().max(1));
        LinkDecision {
            drop: drop_roll < pr.drop_ppm as u64,
            duplicate: dup_roll < pr.dup_ppm as u64,
            extra_delay: if delay_roll < pr.delay_ppm as u64 {
                SimTime::from_nanos(delay_amount.min(pr.extra_delay_max.as_nanos()))
            } else {
                SimTime::ZERO
            },
        }
    }

    /// Scale a work charge for `node` (per-node slowdown).
    pub fn scale_work(&self, node: usize, dt: SimTime) -> SimTime {
        match self.node_slow.get(node) {
            Some(&1000) | None => dt,
            Some(&m) => SimTime::from_nanos((dt.as_nanos().saturating_mul(m as u64)) / 1000),
        }
    }

    /// The daemon outage window for `node`, if its daemons crash.
    pub fn daemon_outage(&self, node: usize) -> Option<(SimTime, SimTime)> {
        self.outages.get(node).copied().flatten()
    }

    /// Does nonzero rank `rank` miss the confsync delta of collective
    /// round `round`? (Hash-based, so the answer is independent of the
    /// order in which ranks ask.)
    pub fn missed_epoch(&self, rank: usize, round: u64) -> bool {
        let ppm = self.spec.profile.missed_epoch_ppm;
        if ppm == 0 || rank == 0 {
            return false;
        }
        let mut x = self
            .spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((rank as u64) << 32)
            .wrapping_add(round);
        // SplitMix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x % 1_000_000 < ppm as u64
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.spec.seed)
            .field("profile", &self.spec.profile_name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_seed_and_profile() {
        let s = FaultSpec::parse("42:drop").unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.profile_name, "drop");
        assert!(s.profile.drop_ppm > 0);
        // Default profile.
        assert_eq!(FaultSpec::parse("7").unwrap().profile_name, "lossy");
        assert!(FaultSpec::parse("x:drop").is_err());
        assert!(FaultSpec::parse("1:bogus").is_err());
    }

    #[test]
    fn every_named_profile_resolves() {
        for name in FaultProfile::all_names() {
            assert!(FaultProfile::named(name).is_some(), "{name}");
        }
    }

    #[test]
    fn inertness_matches_the_none_profile_exactly() {
        assert!(FaultProfile::none().is_inert());
        for name in FaultProfile::all_names() {
            let p = FaultProfile::named(name).unwrap();
            assert_eq!(p.is_inert(), *name == "none", "{name}");
        }
        let plan = FaultPlan::new(
            &FaultSpec::parse("3:none").unwrap(),
            &Machine::test_machine(),
        );
        assert!(plan.is_inert());
        let plan = FaultPlan::new(
            &FaultSpec::parse("3:crash").unwrap(),
            &Machine::test_machine(),
        );
        assert!(!plan.is_inert());
    }

    #[test]
    fn zero_profile_draws_nothing_and_disturbs_nothing() {
        let spec = FaultSpec::parse("9:none").unwrap();
        let plan = FaultPlan::new(&spec, &Machine::test_machine());
        assert!(!plan.links_enabled());
        assert_eq!(plan.decide_link(), LinkDecision::DELIVER);
        for node in 0..4 {
            assert_eq!(
                plan.scale_work(node, SimTime::from_micros(10)),
                SimTime::from_micros(10)
            );
            assert_eq!(plan.daemon_outage(node), None);
        }
        assert!(!plan.missed_epoch(1, 3));
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        fn fingerprint(seed: u64) -> Vec<LinkDecision> {
            let spec = FaultSpec::parse(&format!("{seed}:lossy")).unwrap();
            let plan = FaultPlan::new(&spec, &Machine::test_machine());
            (0..256).map(|_| plan.decide_link()).collect()
        }
        assert_eq!(fingerprint(5), fingerprint(5));
        assert_ne!(fingerprint(5), fingerprint(6));
    }

    #[test]
    fn slowdown_scales_only_slowed_nodes() {
        let spec = FaultSpec {
            seed: 1,
            profile_name: "slow-all".into(),
            profile: FaultProfile {
                slow_node_ppm: 1_000_000,
                slowdown_permille: 2000,
                ..FaultProfile::none()
            },
        };
        let plan = FaultPlan::new(&spec, &Machine::test_machine());
        assert_eq!(
            plan.scale_work(0, SimTime::from_micros(5)),
            SimTime::from_micros(10)
        );
    }

    #[test]
    fn crash_windows_lie_in_the_configured_span() {
        let spec = FaultSpec {
            seed: 3,
            profile_name: "crash-all".into(),
            profile: FaultProfile {
                crash_node_ppm: 1_000_000,
                crash_start_max: SimTime::from_millis(100),
                crash_downtime: SimTime::from_millis(40),
                ..FaultProfile::none()
            },
        };
        let plan = FaultPlan::new(&spec, &Machine::test_machine());
        for node in 0..4 {
            let (start, end) = plan.daemon_outage(node).expect("all nodes crash");
            assert!(start <= SimTime::from_millis(100));
            assert_eq!(end, start + SimTime::from_millis(40));
        }
    }

    #[test]
    fn missed_epochs_never_hit_rank_zero() {
        let spec = FaultSpec::parse("11:epochs").unwrap();
        let plan = FaultPlan::new(&spec, &Machine::test_machine());
        let mut any = false;
        for round in 0..64u64 {
            assert!(!plan.missed_epoch(0, round));
            for rank in 1..8 {
                any |= plan.missed_epoch(rank, round);
            }
        }
        assert!(any, "30% miss rate must fire somewhere in 448 trials");
    }
}
