//! Closed-loop adaptive instrumentation: the overhead-budget controller.
//!
//! The paper's §5 dynamic control toggles probes by hand at `VT_confsync`
//! safe points. The [`OverheadController`] closes that loop: at each safe
//! point it reads the per-function fire counts accumulated by the trace
//! library since the previous safe point, converts them into measured
//! instrumentation overhead using the machine's probe cost model, and —
//! when the overhead exceeds a user-set budget — emits a configuration
//! delta that deactivates the most overhead-dense probes first.
//!
//! # Decision function
//!
//! Let `Δcount(f)` be the active invocations of function `f` across all
//! ranks since the last decision, `pair` the machine's active
//! begin/end pair cost, `deact` the deactivated-lookup cost, and `W` the
//! wall-clock window times the rank count. Measured overhead is
//!
//! ```text
//! measured = (Σ_f Δcount(f)·pair + Δlookups·deact) / W
//! ```
//!
//! When `measured` exceeds the budget the controller sorts active
//! functions by *score* `Δcount(f) × pair` — cost × rate — descending,
//! breaking ties by ascending function id, and greedily deactivates from
//! the top until the projected overhead (each deactivated function still
//! pays `Δcount(f)·deact` in lookups) is at or below the budget. Hot but
//! cheap probes go first; rare expensive ones are kept.
//!
//! # Re-probe schedule
//!
//! Every `reprobe_every` decisions made while under budget, one
//! deactivated function is reactivated, chosen by deterministic rotation
//! over the sorted deactivated set. A phase change that makes a probe
//! cheap again is therefore discovered within `K × |off|` safe points;
//! a probe that is still hot is re-deactivated at the next decision.
//!
//! # Determinism
//!
//! Every input is deterministic: fire counts come from the simulated
//! library's per-rank statistics (not wall-clock sampling), the cost
//! model is a constant of the machine, the sort is total (score then
//! function id), and the rotation index is a pure function of the
//! decision count. Two runs with the same seed produce bit-identical
//! decision sequences — which is what the golden tests pin.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynprof_obs as obs;
use parking_lot::Mutex;

use dynprof_sim::SimTime;

use crate::config::ConfigDelta;
use crate::confsync::PendingChange;
use crate::vtlib::VtLib;

/// Tuning knobs of the [`OverheadController`].
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Overhead budget as a percentage of total CPU time (e.g. `5.0`).
    /// `f64::INFINITY` makes the controller a pure observer: it measures
    /// per-epoch overhead but never changes the activation table.
    pub budget_pct: f64,
    /// Reactivate one deactivated function every this many under-budget
    /// decisions (`0` disables re-probing).
    pub reprobe_every: u64,
}

/// Monitoring-tool response time charged when a reconfiguration is
/// emitted (the paper's `configuration_break` release latency).
const RESPOND_DELAY: SimTime = SimTime::from_micros(50);

impl ControllerConfig {
    /// Enforce `budget_pct`, with the default re-probe schedule.
    pub fn budget(budget_pct: f64) -> ControllerConfig {
        ControllerConfig {
            budget_pct,
            ..ControllerConfig::default()
        }
    }
}

/// The default is a pure observer: it measures per-epoch overhead and
/// never reconfigures.
impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            budget_pct: f64::INFINITY,
            reprobe_every: 4,
        }
    }
}

/// One epoch's controller decision, recorded for goldens and figures.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Safe-point round the decision was made at.
    pub round: u64,
    /// Overhead measured over the window ending at this safe point (%).
    pub measured_pct: f64,
    /// Projected overhead after the emitted changes (%); equals
    /// `measured_pct` when nothing changed.
    pub projected_pct: f64,
    /// Functions deactivated by this decision.
    pub deactivated: Vec<String>,
    /// Functions reactivated (re-probe) by this decision.
    pub reactivated: Vec<String>,
    /// Controller-deactivated functions after this decision.
    pub off_count: usize,
}

#[derive(Default)]
struct CtrlState {
    /// Cumulative per-function fire counts at the last decision.
    prev_counts: BTreeMap<u32, u64>,
    /// Cumulative deactivated lookups at the last decision.
    prev_lookups: u64,
    /// Time of the last decision.
    prev_t: SimTime,
    /// Function ids currently deactivated by the controller.
    off: BTreeMap<u32, String>,
    decisions: Vec<DecisionRecord>,
    decision_count: u64,
}

/// The closed-loop overhead-budget controller (see module docs).
///
/// Attach one to a [`crate::MonitorLink`] with
/// [`crate::MonitorLink::attach_controller`]; `VT_confsync` consults it
/// on rank 0 whenever no manual change is pending, and its emitted deltas
/// flow through the exact same decision/broadcast/apply path (including
/// the happens-before decision and apply edges) as manual changes.
pub struct OverheadController {
    cfg: ControllerConfig,
    state: Mutex<CtrlState>,
}

impl OverheadController {
    /// A controller with explicit configuration.
    pub fn new(cfg: ControllerConfig) -> Arc<OverheadController> {
        Arc::new(OverheadController {
            cfg,
            state: Mutex::new(CtrlState::default()),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> ControllerConfig {
        self.cfg
    }

    /// Make one decision at safe-point `round`, time `now`. Returns the
    /// pending change to broadcast, or `None` when the activation table
    /// should stay as it is. Called by `VT_confsync` on rank 0; pure
    /// bookkeeping (no simulated time passes here — the safe-point
    /// protocol charges the emitted change the monitoring tool's response
    /// time, exactly like a manual change).
    pub fn decide(&self, vt: &VtLib, now: SimTime, round: u64) -> Option<PendingChange> {
        let ranks = vt.ranks();
        let costs = vt.costs();
        // Prefer the verifier-derived worst-case pair bound (checked, not
        // trusted) over the declared cost model; fall back to the declared
        // pair when the snippet programs have not been built from the IR.
        let pair = vt.derived_pair().unwrap_or_else(|| costs.active_pair());
        let pair_ns = pair.as_nanos() as u128;
        let deact_ns = costs.vt_deactivated.as_nanos() as u128;

        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        let mut lookups = 0u64;
        for r in 0..ranks {
            for (f, count, _, _) in vt.stats_rows(r) {
                *counts.entry(f).or_default() += count;
            }
            lookups += vt.deactivated_lookups(r);
        }

        let mut st = self.state.lock();
        let window = now.saturating_sub(st.prev_t).as_nanos() as u128 * ranks as u128;
        let deltas: Vec<(u32, u64)> = counts
            .iter()
            .map(|(&f, &c)| (f, c - st.prev_counts.get(&f).copied().unwrap_or(0)))
            .filter(|&(_, d)| d > 0)
            .collect();
        let dlookups = lookups - st.prev_lookups;
        st.prev_counts = counts;
        st.prev_lookups = lookups;
        st.prev_t = now;
        if window == 0 {
            return None;
        }

        let probe_ns: u128 = deltas
            .iter()
            .map(|&(_, d)| d as u128 * pair_ns)
            .sum::<u128>()
            + dlookups as u128 * deact_ns;
        let measured_pct = 100.0 * probe_ns as f64 / window as f64;
        st.decision_count += 1;
        let decision_count = st.decision_count;

        let names = vt.function_names();
        let name_of = |f: u32| {
            names
                .get(f as usize)
                .cloned()
                .unwrap_or_else(|| format!("<func {f}>"))
        };

        let mut deactivated = Vec::new();
        let mut reactivated = Vec::new();
        let mut projected_ns = probe_ns;
        if measured_pct > self.cfg.budget_pct {
            // Over budget: deactivate by descending score = Δcount × pair
            // cost, ties by ascending function id, until the projection
            // (deactivated probes still pay the lookup) fits the budget.
            let target_ns = (self.cfg.budget_pct / 100.0 * window as f64) as u128;
            let mut candidates: Vec<(u32, u64)> = deltas
                .iter()
                .filter(|(f, _)| !st.off.contains_key(f))
                .copied()
                .collect();
            candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (f, d) in candidates {
                if projected_ns <= target_ns {
                    break;
                }
                projected_ns -= d as u128 * (pair_ns - deact_ns);
                let name = name_of(f);
                deactivated.push(name.clone());
                st.off.insert(f, name);
            }
        } else if self.cfg.reprobe_every > 0
            && decision_count.is_multiple_of(self.cfg.reprobe_every)
            && !st.off.is_empty()
        {
            // Under budget: re-probe one deactivated function, rotating
            // deterministically over the sorted deactivated set.
            let idx = (decision_count / self.cfg.reprobe_every) as usize % st.off.len();
            let f = *st.off.keys().nth(idx).expect("idx < len");
            let name = st.off.remove(&f).expect("key present");
            reactivated.push(name);
        }

        let projected_pct = 100.0 * projected_ns as f64 / window as f64;
        let off_count = st.off.len();
        let changed = !deactivated.is_empty() || !reactivated.is_empty();
        if obs::enabled() {
            obs::counter("vt.controller.decisions").inc();
            obs::counter("vt.controller.deactivations").add(deactivated.len() as u64);
            obs::counter("vt.controller.reactivations").add(reactivated.len() as u64);
        }
        let mut set: Vec<(String, bool)> = deactivated.iter().map(|n| (n.clone(), false)).collect();
        set.extend(reactivated.iter().map(|n| (n.clone(), true)));
        st.decisions.push(DecisionRecord {
            round,
            measured_pct,
            projected_pct,
            deactivated,
            reactivated,
            off_count,
        });
        if changed {
            Some(PendingChange {
                delta: ConfigDelta::Set(set),
                respond_delay: RESPOND_DELAY,
            })
        } else {
            None
        }
    }

    /// Decisions made so far, in order.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        self.state.lock().decisions.clone()
    }

    /// Measured overhead (%) per decision epoch, in order.
    pub fn measured_series(&self) -> Vec<f64> {
        self.state
            .lock()
            .decisions
            .iter()
            .map(|d| d.measured_pct)
            .collect()
    }

    /// Names currently deactivated by the controller, sorted by id.
    pub fn deactivated_now(&self) -> Vec<String> {
        self.state.lock().off.values().cloned().collect()
    }

    /// Render the decision history as a stable text log (one line per
    /// decision, fixed two-decimal percentages) — the golden-test format.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for d in self.state.lock().decisions.iter() {
            out.push_str(&format!(
                "round={} measured={:.2}% projected={:.2}% deact=[{}] react=[{}] off={}\n",
                d.round,
                d.measured_pct,
                d.projected_pct,
                d.deactivated.join(","),
                d.reactivated.join(","),
                d.off_count,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VtConfig;
    use dynprof_sim::{Machine, ProbeCosts, Proc, Sim};

    fn run_workload(
        vt: Arc<VtLib>,
        hot_calls: u64,
        f: impl FnOnce(&Proc, &VtLib) + Send + 'static,
    ) {
        let sim = Sim::virtual_time(Machine::test_machine(), 3);
        sim.spawn("p", 0, move |p| {
            vt.init(p, 0);
            let hot = vt.funcdef(p, "hot");
            let rare = vt.funcdef(p, "rare");
            for _ in 0..hot_calls {
                vt.begin(p, 0, 0, hot, 1);
                p.advance(SimTime::from_nanos(200));
                vt.end(p, 0, 0, hot);
            }
            vt.begin(p, 0, 0, rare, 1);
            p.advance(SimTime::from_millis(2));
            vt.end(p, 0, 0, rare);
            f(p, &vt);
        });
        sim.run();
    }

    #[test]
    fn over_budget_deactivates_hot_first() {
        let vt = VtLib::new("app", 1, VtConfig::all_on(), ProbeCosts::power3());
        let ctrl = OverheadController::new(ControllerConfig::budget(10.0));
        let c2 = Arc::clone(&ctrl);
        run_workload(Arc::clone(&vt), 2000, move |p, vt| {
            let pc = c2
                .decide(vt, p.now(), 0)
                .expect("over budget: must reconfigure");
            match pc.delta {
                ConfigDelta::Set(set) => {
                    assert_eq!(set[0], ("hot".to_string(), false), "hot-cheap goes first");
                    assert!(
                        !set.iter().any(|(n, on)| n == "rare" && !on),
                        "rare-expensive probe kept: {set:?}"
                    );
                }
                other => panic!("unexpected delta {other:?}"),
            }
        });
        let d = ctrl.decisions();
        assert_eq!(d.len(), 1);
        assert!(d[0].measured_pct > 10.0);
        assert!(d[0].projected_pct <= d[0].measured_pct);
        assert_eq!(ctrl.deactivated_now(), vec!["hot".to_string()]);
    }

    #[test]
    fn observer_never_reconfigures() {
        let vt = VtLib::new("app", 1, VtConfig::all_on(), ProbeCosts::power3());
        let ctrl = OverheadController::new(ControllerConfig::default());
        let c2 = Arc::clone(&ctrl);
        run_workload(Arc::clone(&vt), 2000, move |p, vt| {
            assert!(c2.decide(vt, p.now(), 0).is_none());
        });
        let d = ctrl.decisions();
        assert_eq!(d.len(), 1);
        assert!(d[0].measured_pct > 0.0);
        assert!(d[0].deactivated.is_empty());
    }

    #[test]
    fn reprobe_rotates_deterministically() {
        let vt = VtLib::new("app", 1, VtConfig::all_on(), ProbeCosts::power3());
        let ctrl = OverheadController::new(ControllerConfig {
            budget_pct: 10.0,
            reprobe_every: 2,
        });
        let c2 = Arc::clone(&ctrl);
        run_workload(Arc::clone(&vt), 2000, move |p, vt| {
            // Round 0: over budget → deactivate `hot`.
            assert!(c2.decide(vt, p.now(), 0).is_some());
            // Quiet window, decision 2: under budget and divisible by
            // reprobe_every → reactivate the rotation pick.
            p.advance(SimTime::from_millis(50));
            let pc = c2.decide(vt, p.now(), 1).expect("re-probe fires");
            match pc.delta {
                ConfigDelta::Set(set) => assert_eq!(set, vec![("hot".to_string(), true)]),
                other => panic!("unexpected delta {other:?}"),
            }
        });
        assert!(ctrl.deactivated_now().is_empty());
        let log = ctrl.decision_log();
        assert!(log.contains("react=[hot]"), "log: {log}");
    }
}
