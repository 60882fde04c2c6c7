//! The metrics registry: counters, gauges, and fixed-bucket histograms,
//! each tagged with a determinism [`Class`].
//!
//! The registry is the one place every pipeline layer reports numbers to.
//! Its contract mirrors the pipeline's own: everything derived from the
//! simulated world (probe counts, sim-time stage durations, classification
//! funnels) is **bit-identical across worker counts, batch sizes, and
//! executor strategies**, while wall-clock performance measurements (worker
//! idle time, queue depths, hidden classify time) are clearly segregated
//! under [`Class::Wall`] and excluded from the deterministic snapshot.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! over atomics, so hot paths pay one uncontended atomic RMW per update and
//! registration cost is paid once at wiring time. Worker threads that want
//! to stay allocation-light batch their updates in a [`MetricShard`] and
//! merge it into the registry in a deterministic sequence order (the
//! streamed scan's fold merges shards in shard-major order); since counter
//! merges are sums, the totals are independent of the merge order anyway —
//! the ordering guarantee is what makes the bit-identical argument a
//! one-liner instead of a scheduling proof.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Determinism class of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Derived from the simulated world only: bit-identical across worker
    /// counts, batch sizes, and executor strategies for the same
    /// world/seed. Included in [`MetricsRegistry::sim_hash`].
    Sim,
    /// Wall-clock performance measurement: depends on the host machine and
    /// thread scheduling. Never part of the deterministic snapshot.
    Wall,
}

impl Class {
    /// Lower-case label used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Sim => "sim",
            Class::Wall => "wall",
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCell {
    /// Inclusive upper bounds of the finite buckets; one implicit
    /// `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts;
    /// `len == bounds.len() + 1`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram handle.
///
/// Bounds are fixed at registration so that merging and hashing never
/// depend on observation order — the layout is part of the metric's
/// identity.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let cell = &self.0;
        let idx = cell
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(cell.bounds.len());
        cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub(crate) fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub(crate) fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observed value (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    class: Class,
    cell: Cell,
}

/// The registry: a named set of metrics with idempotent registration.
///
/// Registering the same name twice returns a handle to the same cell;
/// registering it with a different kind or class panics (a wiring bug, not
/// a runtime condition). Interior mutability makes one registry shareable
/// across the whole pipeline, including worker threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: RwLock<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, class: Class, make: impl FnOnce() -> Cell) -> Cell {
        if let Some(entry) = self.slots.read().expect("metrics lock").get(name) {
            assert_eq!(
                entry.class, class,
                "metric {name} re-registered with a different class"
            );
            return entry.cell.clone();
        }
        let mut slots = self.slots.write().expect("metrics lock");
        let entry = slots.entry(name.to_string()).or_insert_with(|| Entry {
            class,
            cell: make(),
        });
        assert_eq!(
            entry.class, class,
            "metric {name} re-registered with a different class"
        );
        entry.cell.clone()
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str, class: Class) -> Counter {
        match self.register(name, class, || Cell::Counter(Counter::default())) {
            Cell::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        match self.register(name, class, || Cell::Gauge(Gauge::default())) {
            Cell::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Register (or look up) a histogram with the given finite bucket
    /// bounds (an implicit `+Inf` bucket is appended). Bounds must be
    /// strictly increasing.
    pub fn histogram(&self, name: &str, class: Class, bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name}: bounds must be strictly increasing"
        );
        let made = self.register(name, class, || {
            let mut buckets = Vec::with_capacity(bounds.len() + 1);
            buckets.resize_with(bounds.len() + 1, AtomicU64::default);
            Cell::Histogram(Histogram(Arc::new(HistCell {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })))
        });
        match made {
            Cell::Histogram(h) => {
                assert_eq!(
                    h.0.bounds, bounds,
                    "histogram {name} re-registered with different bounds"
                );
                h
            }
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Current value of a counter, if one is registered under `name`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match &self.slots.read().expect("metrics lock").get(name)?.cell {
            Cell::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Merge a worker-local shard: every shard counter is added to the
    /// registry counter of the same name under `class`. Callers that need
    /// the determinism guarantee to be *structural* (not just "sums
    /// commute") merge shards in a fixed sequence order — the streamed
    /// scan's fold merges in shard-major order.
    pub fn merge_shard(&self, class: Class, shard: &MetricShard) {
        for (name, n) in &shard.counters {
            self.counter(name, class).add(*n);
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.read().expect("metrics lock");
        let entries = slots
            .iter()
            .map(|(name, entry)| MetricValue {
                name: name.clone(),
                class: entry.class,
                data: match &entry.cell {
                    Cell::Counter(c) => MetricData::Counter(c.get()),
                    Cell::Gauge(g) => MetricData::Gauge(g.get()),
                    Cell::Histogram(h) => MetricData::Histogram(HistogramData {
                        bounds: h.0.bounds.clone(),
                        buckets: h
                            .0
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                    }),
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Hash of the [`Class::Sim`] portion of the current snapshot — the
    /// deterministic fingerprint of a run's metrics.
    pub fn sim_hash(&self) -> u64 {
        self.snapshot().sim_hash()
    }
}

/// A worker-local, lock-free buffer of counter increments, merged into the
/// registry with [`MetricsRegistry::merge_shard`].
#[derive(Debug, Clone, Default)]
pub struct MetricShard {
    counters: BTreeMap<&'static str, u64>,
}

impl MetricShard {
    /// An empty shard.
    pub fn new() -> Self {
        MetricShard::default()
    }

    /// Add `n` to the shard counter `name`.
    pub(crate) fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increment the shard counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }
}

/// Exported value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    /// Finite bucket upper bounds (the `+Inf` bucket is implicit).
    pub(crate) bounds: Vec<u64>,
    /// Non-cumulative per-bucket counts; `len == bounds.len() + 1`.
    pub(crate) buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

/// Exported value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricData {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram contents.
    Histogram(HistogramData),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Determinism class.
    pub class: Class,
    /// The value at snapshot time.
    pub data: MetricData,
}

/// A point-in-time copy of a registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All metrics, in name order.
    pub entries: Vec<MetricValue>,
}

impl MetricsSnapshot {
    /// Only the [`Class::Sim`] metrics, in name order.
    pub fn sim_only(&self) -> Vec<&MetricValue> {
        self.entries
            .iter()
            .filter(|m| m.class == Class::Sim)
            .collect()
    }

    /// Deterministic fingerprint of the sim-class metrics: identical for
    /// two runs iff they produced the same sim metrics, values, and
    /// histogram layouts. Wall-clock metrics never contribute.
    pub(crate) fn sim_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for m in self.sim_only() {
            m.name.hash(&mut h);
            match &m.data {
                MetricData::Counter(v) => {
                    0u8.hash(&mut h);
                    v.hash(&mut h);
                }
                MetricData::Gauge(v) => {
                    1u8.hash(&mut h);
                    v.hash(&mut h);
                }
                MetricData::Histogram(d) => {
                    2u8.hash(&mut h);
                    d.bounds.hash(&mut h);
                    d.buckets.hash(&mut h);
                    d.count.hash(&mut h);
                    d.sum.hash(&mut h);
                    d.max.hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// Look up a metric by name.
    pub(crate) fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Counter value by name, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.data {
            MetricData::Counter(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c", Class::Sim);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration returns the same cell.
        assert_eq!(reg.counter("c", Class::Sim).get(), 5);
        assert_eq!(reg.counter_value("c"), Some(5));
        let g = reg.gauge("g", Class::Wall);
        g.set(7);
        assert_eq!(g.get(), 7);
        assert_eq!(reg.counter_value("g"), None);
    }

    #[test]
    fn histogram_buckets_count_and_max() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", Class::Sim, &[10, 100]);
        for v in [1, 10, 11, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1022);
        assert_eq!(h.max(), 1000);
        let snap = reg.snapshot();
        let Some(MetricData::Histogram(d)) = snap.get("h").map(|m| &m.data) else {
            panic!("h is a histogram");
        };
        assert_eq!(d.buckets, vec![2, 1, 1]); // <=10, <=100, +Inf
    }

    #[test]
    #[should_panic(expected = "different class")]
    fn class_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", Class::Sim);
        reg.counter("x", Class::Wall);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("x", Class::Sim);
        reg.counter("x", Class::Sim);
    }

    #[test]
    fn sim_hash_excludes_wall_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter("sim_c", Class::Sim).add(3);
        let h1 = reg.sim_hash();
        // Wall-class churn must not move the deterministic fingerprint.
        reg.counter("wall_c", Class::Wall).add(999);
        reg.gauge("wall_g", Class::Wall).set(-5);
        assert_eq!(reg.sim_hash(), h1);
        // Sim-class churn must.
        reg.counter("sim_c", Class::Sim).inc();
        assert_ne!(reg.sim_hash(), h1);
    }

    #[test]
    fn shard_merge_is_order_independent() {
        let mut a = MetricShard::new();
        a.inc("x");
        a.add("y", 2);
        let mut b = MetricShard::new();
        b.add("x", 10);
        let r1 = MetricsRegistry::new();
        r1.merge_shard(Class::Sim, &a);
        r1.merge_shard(Class::Sim, &b);
        let r2 = MetricsRegistry::new();
        r2.merge_shard(Class::Sim, &b);
        r2.merge_shard(Class::Sim, &a);
        assert_eq!(r1.sim_hash(), r2.sim_hash());
        assert_eq!(r1.counter_value("x"), Some(11));
        assert_eq!(r1.counter_value("y"), Some(2));
    }

    #[test]
    fn snapshot_lookup_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("b", Class::Sim).add(2);
        reg.counter("a", Class::Sim).add(1);
        let snap = reg.snapshot();
        assert_eq!(snap.entries[0].name, "a");
        assert_eq!(snap.counter("b"), Some(2));
        assert_eq!(snap.counter("missing"), None);
    }
}
