//! The metric registry and its instruments.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json::Json;

const RELAXED: Ordering = Ordering::Relaxed;

/// A monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add `n` to the count.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, RELAXED);
    }

    /// Add one to the count.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.v.load(RELAXED)
    }

    fn reset(&self) {
        self.v.store(0, RELAXED);
    }
}

/// A last-value instrument that also tracks its high-water mark.
#[derive(Default)]
pub struct Gauge {
    v: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    /// Record the current value (and raise the high-water mark if passed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.v.store(v, RELAXED);
        self.high.fetch_max(v, RELAXED);
    }

    /// The last recorded value.
    pub fn get(&self) -> u64 {
        self.v.load(RELAXED)
    }

    /// The largest value ever recorded.
    pub fn high_water(&self) -> u64 {
        self.high.load(RELAXED)
    }

    fn reset(&self) {
        self.v.store(0, RELAXED);
        self.high.store(0, RELAXED);
    }
}

/// Number of log₂ buckets: bucket 0 holds zeros, bucket *k* holds values
/// in `[2^(k-1), 2^k)`, up to the full `u64` range.
pub const BUCKETS: usize = 65;

/// A histogram over fixed log₂ buckets, with count/sum/min/max.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, RELAXED);
        self.sum.fetch_add(v, RELAXED);
        self.min.fetch_min(v, RELAXED);
        self.max.fetch_max(v, RELAXED);
        self.buckets[bucket_of(v)].fetch_add(1, RELAXED);
    }

    /// A coherent copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(RELAXED);
        HistogramSnapshot {
            count,
            sum: self.sum.load(RELAXED),
            min: if count == 0 {
                0
            } else {
                self.min.load(RELAXED)
            },
            max: self.max.load(RELAXED),
            buckets: std::array::from_fn(|i| self.buckets[i].load(RELAXED)),
        }
    }

    fn reset(&self) {
        self.count.store(0, RELAXED);
        self.sum.store(0, RELAXED);
        self.min.store(u64::MAX, RELAXED);
        self.max.store(0, RELAXED);
        for b in &self.buckets {
            b.store(0, RELAXED);
        }
    }
}

/// The log₂ bucket index for `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket observation counts (65 log₂ buckets).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                Json::Arr(vec![Json::UInt(lower), Json::UInt(n)])
            })
            .collect();
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(self.min)),
            ("max", Json::UInt(self.max)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[derive(Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Slot {
    fn value(&self) -> MetricValue {
        match self {
            Slot::Counter(c) => MetricValue::Counter(c.get()),
            Slot::Gauge(g) => MetricValue::Gauge(g.get(), g.high_water()),
            Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        }
    }
}

/// One run's instruments, by name.
///
/// A run owns its registry: a session is given one
/// (`SessionConfig::metrics`), its engine holds it, and every layer of
/// the run records into it through its process handle or its owner.
/// Two runs with two registries share nothing, so they may run at once.
/// Instruments are created on first use and stay registered until the
/// registry is dropped; [`Registry::reset`] zeroes them.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<&'static str, Slot>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The instruments (a panic elsewhere while holding them leaves
    /// nothing half-written: every update is one atomic).
    fn slots(&self) -> MutexGuard<'_, BTreeMap<&'static str, Slot>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The instrument registered under `name`, made by `make` on first
    /// use.
    fn slot(&self, name: &'static str, make: fn() -> Slot) -> Slot {
        self.slots().entry(name).or_insert_with(make).clone()
    }

    /// The counter registered under `name`, created on first use. A hot
    /// path resolves it once per run and keeps the handle.
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        match self.slot(name, || Slot::Counter(Arc::default())) {
            Slot::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge registered under `name`, created on first use.
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        match self.slot(name, || Slot::Gauge(Arc::default())) {
            Slot::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram registered under `name`, created on first use.
    ///
    /// Panics if `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        match self.slot(name, || Slot::Histogram(Arc::default())) {
            Slot::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Read one metric by name without creating it. Returns `None` for
    /// unknown names.
    pub fn read(&self, name: &str) -> Option<MetricValue> {
        self.slots().get(name).map(Slot::value)
    }

    /// Zero every registered instrument (instruments stay registered —
    /// handles held by hot paths remain valid).
    pub fn reset(&self) {
        for slot in self.slots().values() {
            match slot {
                Slot::Counter(c) => c.reset(),
                Slot::Gauge(g) => g.reset(),
                Slot::Histogram(h) => h.reset(),
            }
        }
    }

    /// Capture every registered instrument.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self
            .slots()
            .iter()
            .map(|(name, slot)| Metric {
                name: (*name).to_string(),
                value: slot.value(),
            })
            .collect();
        Snapshot { metrics }
    }

    /// The whole registry as pretty-printed JSON (a [`Registry::snapshot`]
    /// rendered with [`Json::pretty`]).
    pub fn dump_json(&self) -> String {
        self.snapshot().to_json().pretty()
    }

    /// Start a [`Span`] feeding the histogram `name` (which must contain
    /// `real`: spans read the host clock).
    pub fn span(&self, name: &'static str) -> Span {
        debug_assert!(name.contains("real"), "span names must contain \"real\"");
        Span {
            hist: self.histogram(name),
            start: Instant::now(),
        }
    }
}

/// The value of one metric in a [`Snapshot`].
///
/// The size skew between variants is deliberate: snapshots are taken
/// once per run, never on the hot path, so boxing the histogram state
/// would only complicate callers.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A [`Counter`]'s count.
    Counter(u64),
    /// A [`Gauge`]'s `(last, high_water)` pair.
    Gauge(u64, u64),
    /// A [`Histogram`]'s state.
    Histogram(HistogramSnapshot),
}

/// One named metric in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The registered name.
    pub name: String,
    /// The captured value.
    pub value: MetricValue,
}

/// A point-in-time copy of the whole registry, sorted by name.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Snapshot {
    /// All captured metrics, in name order.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// The metrics whose values are bit-reproducible for a fixed seed:
    /// everything except wall-clock instruments, whose names contain
    /// `real` by convention (see the crate docs).
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|m| !m.name.contains("real"))
                .cloned()
                .collect(),
        }
    }

    /// The snapshot as a JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Json {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => counters.push((m.name.clone(), Json::UInt(*v))),
                MetricValue::Gauge(v, hw) => gauges.push((
                    m.name.clone(),
                    Json::obj([("value", Json::UInt(*v)), ("high_water", Json::UInt(*hw))]),
                )),
                MetricValue::Histogram(h) => hists.push((m.name.clone(), h.to_json())),
            }
        }
        Json::obj([
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(hists)),
        ])
    }
}

/// A scoped wall-clock timer: on drop, the elapsed nanoseconds are
/// recorded into its histogram. Made by [`Registry::span`], so a run
/// without a registry reads no clock at all.
///
/// Spans measure *host* time — by the naming convention, span names must
/// contain `real` (e.g. `bench.sweep.real_ns`).
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[10], 1); // 1000 ∈ [512, 1024)
        assert!((s.mean() - 201.2).abs() < 1e-9);
    }

    #[test]
    fn registry_is_typed_and_resettable() {
        let r = Registry::new();
        let c = r.counter("test.registry.counter");
        c.add(3);
        assert_eq!(r.counter("test.registry.counter").get(), 3);
        let g = r.gauge("test.registry.gauge");
        g.set(9);
        g.set(4);
        assert_eq!(g.get(), 4);
        assert_eq!(g.high_water(), 9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.high_water(), 0);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("test.registry.mismatch");
        r.gauge("test.registry.mismatch");
    }

    #[test]
    fn read_back_by_name_without_creating() {
        let r = Registry::new();
        assert_eq!(r.read("test.read.missing"), None);
        r.counter("test.read.counter").add(7);
        assert_eq!(r.read("test.read.counter"), Some(MetricValue::Counter(7)));
        assert_eq!(r.read("test.read.missing"), None, "read never registers");
    }

    #[test]
    fn snapshot_is_sorted_and_filterable() {
        let r = Registry::new();
        r.counter("test.snap.b_real_ns").add(1);
        r.counter("test.snap.a").add(1);
        drop(r.span("test.snap.c_real_ns"));
        let s = r.snapshot();
        let names: Vec<&str> = s.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["test.snap.a", "test.snap.b_real_ns", "test.snap.c_real_ns"]
        );
        let det = s.deterministic();
        assert_eq!(det.metrics.len(), 1);
        assert_eq!(det.metrics[0].name, "test.snap.a");
    }
}
