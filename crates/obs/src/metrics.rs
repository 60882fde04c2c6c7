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
//! The registry is a reader of totals, not a per-event counter. Each layer
//! counts its own facts in plain integers (the fabric in
//! `simnet::NetStats`, the probe engine in its coverage report and tally,
//! a histogram in a [`HistogramData`]) and publishes them when a stage or
//! a shard ends, with [`MetricsRegistry::add`], [`MetricsRegistry::set`]
//! and [`MetricsRegistry::merge_histogram`]. So the registry keeps plain
//! values under one lock, taken a handful of times per shard. Every update
//! is a sum (or a max, or a gauge set once), so the totals do not depend
//! on the order shards publish in; the streamed scan's fold publishes in
//! shard-major order anyway, which makes the bit-identical argument a
//! one-liner instead of a scheduling proof.

use fxhash::Digest;
use std::collections::BTreeMap;
use std::sync::Mutex;

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

#[derive(Debug)]
struct Entry {
    class: Class,
    data: MetricData,
}

/// The registry: a named set of metrics with idempotent registration.
///
/// The first publish under a name registers it, a zero included, so a
/// metric exists (and joins [`MetricsRegistry::sim_hash`]) whether or not
/// its count ever moved. Publishing under a registered name with a
/// different kind, class or histogram layout panics (a wiring bug, not a
/// runtime condition). One registry is shared across the whole pipeline,
/// worker threads included.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register `name` (with `fresh` as its empty value) if it is new,
    /// check its class, and hand its value to `apply`.
    fn update(
        &self,
        name: &str,
        class: Class,
        fresh: impl FnOnce() -> MetricData,
        apply: impl FnOnce(&mut MetricData),
    ) {
        let mut slots = self.slots.lock().expect("metrics lock");
        let entry = match slots.get_mut(name) {
            Some(entry) => entry,
            None => slots.entry(name.to_string()).or_insert(Entry {
                class,
                data: fresh(),
            }),
        };
        assert_eq!(
            entry.class, class,
            "metric {name} re-registered with a different class"
        );
        apply(&mut entry.data);
    }

    /// Add `n` to the counter `name`, registering it if it is new.
    pub fn add(&self, name: &str, class: Class, n: u64) {
        self.update(
            name,
            class,
            || MetricData::Counter(0),
            |data| match data {
                MetricData::Counter(v) => *v += n,
                other => panic!("metric {name} is a {}, not a counter", other.kind()),
            },
        );
    }

    /// Set the gauge `name` to `v`, registering it if it is new.
    pub fn set(&self, name: &str, class: Class, v: i64) {
        self.update(
            name,
            class,
            || MetricData::Gauge(0),
            |data| match data {
                MetricData::Gauge(g) => *g = v,
                other => panic!("metric {name} is a {}, not a gauge", other.kind()),
            },
        );
    }

    /// Merge `hist` into the histogram `name`, registering it with `hist`'s
    /// bounds if it is new: buckets, count and sum add, max takes the
    /// larger. Bounds are part of a histogram's identity, so a merge with
    /// other bounds panics.
    pub fn merge_histogram(&self, name: &str, class: Class, hist: &HistogramData) {
        let fresh = || MetricData::Histogram(HistogramData::new(&hist.bounds));
        self.update(name, class, fresh, |data| match data {
            MetricData::Histogram(d) => {
                assert_eq!(
                    d.bounds, hist.bounds,
                    "histogram {name} re-registered with different bounds"
                );
                for (b, n) in d.buckets.iter_mut().zip(&hist.buckets) {
                    *b += n;
                }
                d.count += hist.count;
                d.sum += hist.sum;
                d.max = d.max.max(hist.max);
            }
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        });
    }

    /// Current value of a counter, if one is registered under `name`.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.slots.lock().expect("metrics lock").get(name)?.data {
            MetricData::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().expect("metrics lock");
        let entries = slots
            .iter()
            .map(|(name, entry)| MetricValue {
                name: name.clone(),
                class: entry.class,
                data: entry.data.clone(),
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

/// One fixed-bucket histogram's contents: what a layer observes into and
/// what the registry merges and exports.
///
/// Bounds are fixed when it is made, so merging and hashing never depend
/// on observation order — the layout is part of the metric's identity.
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

impl HistogramData {
    /// An empty histogram over the given finite bucket bounds (inclusive
    /// upper bounds, strictly increasing; an implicit `+Inf` bucket
    /// follows).
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        HistogramData {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation in the first bucket whose bound is at least
    /// `v` — the one bucket rule.
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }
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

impl MetricData {
    fn kind(&self) -> &'static str {
        match self {
            MetricData::Counter(_) => "counter",
            MetricData::Gauge(_) => "gauge",
            MetricData::Histogram(_) => "histogram",
        }
    }
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
        let mut d = Digest::new();
        for m in self.sim_only() {
            d.str(&m.name);
            match &m.data {
                MetricData::Counter(v) => {
                    d.u8(0);
                    d.u64(*v);
                }
                MetricData::Gauge(v) => {
                    d.u8(1);
                    d.u64(*v as u64);
                }
                MetricData::Histogram(h) => {
                    d.u8(2);
                    for words in [&h.bounds, &h.buckets] {
                        d.len(words.len());
                        words.iter().for_each(|&x| d.u64(x));
                    }
                    [h.count, h.sum, h.max].iter().for_each(|&x| d.u64(x));
                }
            }
        }
        d.finish()
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
        reg.add("c", Class::Sim, 1);
        reg.add("c", Class::Sim, 4);
        assert_eq!(reg.counter_value("c"), Some(5));
        // A zero publish registers the name and moves nothing.
        reg.add("c", Class::Sim, 0);
        assert_eq!(reg.counter_value("c"), Some(5));
        reg.add("z", Class::Sim, 0);
        assert_eq!(reg.counter_value("z"), Some(0));
        reg.set("g", Class::Wall, 7);
        reg.set("g", Class::Wall, -2);
        assert_eq!(
            reg.snapshot().get("g").map(|m| &m.data),
            Some(&MetricData::Gauge(-2))
        );
        assert_eq!(reg.counter_value("g"), None);
    }

    #[test]
    fn histogram_buckets_count_and_max() {
        let mut h = HistogramData::new(&[10, 100]);
        for v in [1, 10, 11, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1022);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets, vec![2, 1, 1]); // <=10, <=100, +Inf
        let reg = MetricsRegistry::new();
        reg.merge_histogram("h", Class::Sim, &h);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get("h").map(|m| &m.data),
            Some(&MetricData::Histogram(h))
        );
    }

    #[test]
    fn histogram_merges_equal_observing_in_one_piece() {
        let bounds = [1, 2, 4, 8, 100];
        let values = [0, 1, 1, 2, 3, 5, 8, 9, 64, 100, 101, 7_000, 2, 4];
        let observed = |vs: &[u64]| {
            let mut h = HistogramData::new(&bounds);
            vs.iter().for_each(|&v| h.observe(v));
            h
        };
        let whole = observed(&values);
        let merged = |parts: &[&[u64]]| {
            let reg = MetricsRegistry::new();
            for part in parts {
                reg.merge_histogram("h", Class::Sim, &observed(part));
            }
            reg.snapshot()
        };
        let one = merged(&[&values]);
        assert_eq!(
            one.get("h").map(|m| &m.data),
            Some(&MetricData::Histogram(whole.clone()))
        );
        for split in [3, 9] {
            let (a, b) = values.split_at(split);
            assert_eq!(merged(&[a, b]), one, "split at {split}");
            assert_eq!(merged(&[b, a]), one, "split at {split}, reversed");
        }
        // An empty merge registers the layout and changes nothing.
        let reg = MetricsRegistry::new();
        reg.merge_histogram("h", Class::Sim, &HistogramData::new(&bounds));
        reg.merge_histogram("h", Class::Sim, &whole);
        assert_eq!(reg.snapshot(), one);
        assert_eq!((whole.count, whole.sum, whole.max), (14, 7_300, 7_000));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.merge_histogram("h", Class::Sim, &HistogramData::new(&[1, 2]));
        reg.merge_histogram("h", Class::Sim, &HistogramData::new(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "different class")]
    fn class_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.add("x", Class::Sim, 0);
        reg.add("x", Class::Wall, 0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.set("x", Class::Sim, 0);
        reg.add("x", Class::Sim, 0);
    }

    #[test]
    fn sim_hash_excludes_wall_metrics() {
        let reg = MetricsRegistry::new();
        reg.add("sim_c", Class::Sim, 3);
        let h1 = reg.sim_hash();
        // Wall-class churn must not move the deterministic fingerprint.
        reg.add("wall_c", Class::Wall, 999);
        reg.set("wall_g", Class::Wall, -5);
        assert_eq!(reg.sim_hash(), h1);
        // Sim-class churn must.
        reg.add("sim_c", Class::Sim, 1);
        assert_ne!(reg.sim_hash(), h1);
        // So must a sim-class name that registers at zero.
        let h2 = reg.sim_hash();
        reg.add("sim_zero", Class::Sim, 0);
        assert_ne!(reg.sim_hash(), h2);
    }

    #[test]
    fn snapshot_lookup_by_name() {
        let reg = MetricsRegistry::new();
        reg.add("b", Class::Sim, 2);
        reg.add("a", Class::Sim, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.entries[0].name, "a");
        assert_eq!(snap.counter("b"), Some(2));
        assert_eq!(snap.counter("missing"), None);
    }
}
