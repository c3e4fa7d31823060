//! Every metric the benchmark reports, by name, with its unit, direction
//! and what kind of quantity it is. `BENCHMARK.json` lists the same
//! metrics (a test keeps the two in step).

use crate::json::Json;
use crate::stats::Better;

/// What a value is made of, which decides how two runs may be compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host wall or CPU time: varies run to run and with the host's speed.
    Host,
    /// Host memory: varies a little run to run, not with the host's speed.
    Memory,
    /// Simulated time: a pure function of the program and the seed.
    Simulated,
    /// A count or size the program produces: a pure function of the
    /// program and the seed.
    Exact,
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name (`<layer>.<metric>` for per-layer metrics).
    pub name: &'static str,
    /// Unit; simulated quantities carry a `sim_` prefix so no reader takes
    /// them for host time.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// How far it may worsen before a change counts as a regression, as a
    /// share of the base value. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Kind of quantity.
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    kind: Kind,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        kind,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Host, Memory, Simulated};

/// The end-to-end metrics. Every workload reports every one. The bounds
/// are justified by the A/A sets in the README: on the shared 2-vCPU host
/// ten runs of one commit spread 5-8 % in host time when it is quiet and
/// 13-17 % when it is not, memory 0.1-0.3 %, and simulated values move
/// with the seed by 0.1 % at most.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Lower, 0.25, Host),
    e2e("session_wall_s", "s", Lower, 0.25, Host),
    e2e("trace_events_per_s", "events/s", Higher, 0.25, Host),
    e2e("session_peak_rss_mb", "MB", Lower, 0.02, Memory),
    e2e("store_bytes", "bytes", Lower, 0.01, Exact),
    e2e("sim_app_time_pct", "sim_%", Lower, 0.01, Simulated),
    e2e("sim_session_time", "sim_s", Lower, 0.01, Simulated),
    e2e("query_wall_s", "s", Lower, 0.25, Host),
    e2e("query_peak_rss_mb", "MB", Lower, 0.10, Memory),
];

/// The per-layer metrics of the traced run.
pub const PER_LAYER: &[Metric] = &[
    // apps: the CLI as the product's own `main` calls it (level 1).
    layer("apps.run_cli_s", "s", Lower, Host),
    layer("apps.write_outputs_s", "s", Lower, Host),
    layer("apps.build_app_s", "s", Lower, Host),
    layer("apps.cli_unattributed_s", "s", Lower, Host),
    // core: the same public calls replayed one by one (level 2).
    layer("core.run_session_s", "s", Lower, Host),
    layer("core.teardown_s", "s", Lower, Host),
    layer("core.unattributed_s", "s", Lower, Host),
    // sim
    layer("sim.events_dispatched", "count", Lower, Exact),
    layer("sim.context_switches", "count", Lower, Exact),
    layer("sim.queue_depth_high_water", "count", Lower, Exact),
    layer("sim.dispatch_ns_per_event", "ns", Lower, Host),
    layer("sim.proc_lifecycle_us", "us", Lower, Host),
    layer("sim.est_busy_s", "s", Lower, Host),
    // mpi
    layer("mpi.messages", "count", Lower, Exact),
    layer("mpi.bytes", "bytes", Lower, Exact),
    layer("mpi.collectives", "count", Lower, Exact),
    layer("mpi.p2p_ns_per_message", "ns", Lower, Host),
    layer("mpi.allreduce_us", "us", Lower, Host),
    layer("mpi.est_busy_s", "s", Lower, Host),
    // omp
    layer("omp.forkjoin_us", "us", Lower, Host),
    layer("omp.est_busy_s", "s", Lower, Host),
    // image
    layer("image.probe_pairs", "count", Lower, Exact),
    layer("image.build_us_per_image", "us", Lower, Host),
    layer("image.patch_ns_per_probe", "ns", Lower, Host),
    layer("image.fire_ns", "ns", Lower, Host),
    layer("image.call_unprobed_ns", "ns", Lower, Host),
    layer("image.est_busy_s", "s", Lower, Host),
    // dpcl
    layer("dpcl.requests", "count", Lower, Exact),
    layer("dpcl.msgs_install", "count", Lower, Exact),
    layer("dpcl.retries", "count", Lower, Exact),
    layer("dpcl.timeouts", "count", Lower, Exact),
    layer("dpcl.install_us_per_probe", "us", Lower, Host),
    layer("dpcl.txn_install_us_per_probe", "us", Lower, Host),
    layer("dpcl.est_busy_s", "s", Lower, Host),
    // vt
    layer("vt.events", "count", Lower, Exact),
    layer("vt.deactivated_lookups", "count", Lower, Exact),
    layer("vt.record_ns_per_event", "ns", Lower, Host),
    layer("vt.lookup_ns", "ns", Lower, Host),
    layer("vt.build_trace_s", "s", Lower, Host),
    layer("vt.confsync_us_per_rank", "us", Lower, Host),
    layer("vt.est_busy_s", "s", Lower, Host),
    // analysis: write side (inside the session), then read side.
    layer("analysis.profile_s", "s", Lower, Host),
    layer("analysis.store_write_s", "s", Lower, Host),
    layer("analysis.encode_ns_per_event", "ns", Lower, Host),
    layer("analysis.decode_ns_per_event", "ns", Lower, Host),
    layer("analysis.chunks_written", "count", Lower, Exact),
    layer("analysis.chunks_read", "count", Lower, Exact),
    layer("analysis.chunks_skipped", "count", Higher, Exact),
    layer("analysis.store_bytes_per_event", "bytes", Lower, Exact),
    layer("analysis.vgv_info_s", "s", Lower, Host),
    layer("analysis.vgv_ranks_s", "s", Lower, Host),
    layer("analysis.vgv_top_s", "s", Lower, Host),
    layer("analysis.vgv_comm_s", "s", Lower, Host),
    layer("analysis.vgv_slice_s", "s", Lower, Host),
    layer("analysis.vgv_slice_rank_s", "s", Lower, Host),
    layer("analysis.vgv_fsck_s", "s", Lower, Host),
    // obs and the benchmark's own witnesses: they bound the measurement.
    layer("obs.disabled_site_ns", "ns", Lower, Host),
    layer("harness.trace_overhead_pct", "%", Lower, Host),
    layer("harness.sentinel_p25_ms", "ms", Lower, Host),
    layer("harness.sentinel_spread_pct", "%", Lower, Host),
    layer("harness.runner_peak_rss_mb", "MB", Lower, Memory),
    // session: the untraced children, seen from outside.
    layer("session.wall_median_s", "s", Lower, Host),
    layer("session.wall_min_s", "s", Lower, Host),
    layer("session.wall_p75_s", "s", Lower, Host),
    layer("session.wall_tail_s", "s", Lower, Host),
    layer("session.tail_pct", "%", Higher, Host),
    layer("session.samples", "count", Higher, Host),
    layer("session.cpu_user_s", "s", Lower, Host),
    layer("session.cpu_sys_s", "s", Lower, Host),
    layer("session.minor_faults", "count", Lower, Memory),
    layer("session.process_overhead_s", "s", Lower, Host),
    layer("session.scaling_exponent", "ratio", Lower, Host),
];

/// Look a metric definition up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static Metric, f64)>);

impl Values {
    /// Record `value` for the metric `name`, which must be defined.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name:?} is not in the tables"));
        match self.0.iter_mut().find(|(d, _)| d.name == def.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((def, value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(d, _)| d.name == name).map(|(_, v)| *v)
    }

    /// The recorded values with their definitions, in the tables' order
    /// whatever order they were recorded in.
    pub fn rows(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|def| Some((def, self.get(def.name)?)))
    }

    /// `{"name": {"value": v, "unit": u}, ...}` as the contract's result
    /// line carries it.
    pub fn to_json(&self) -> Json {
        Json::obj(self.rows().map(|(def, value)| {
            (
                def.name,
                Json::obj([("value", Json::from(value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }
}
