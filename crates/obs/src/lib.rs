//! Deterministic observability for the URHunter pipeline.
//!
//! The crate bundles three pieces behind one [`Obs`] handle:
//!
//! - a [`MetricsRegistry`] of counters, gauges, and fixed-bucket
//!   histograms, each tagged [`Class::Sim`] (derived from the simulated
//!   world, bit-identical across worker counts, batch sizes, and executor
//!   strategies) or [`Class::Wall`] (host-time performance data, never
//!   part of the deterministic fingerprint);
//! - dual-clock [`StageSpan`]s that record a stage's simulated and
//!   wall-clock durations into segregated metrics;
//! - a bounded [`EventSink`] ring buffer for discrete events, exported as
//!   JSONL ([`Obs::to_jsonl`]) or Prometheus text ([`render_prometheus`]).
//!
//! Observability is strictly opt-in: pipeline layers carry an
//! `Option<Arc<Obs>>`. No layer writes to the hub per datagram or per
//! probe: each counts its facts once, in plain integers of its own, and
//! publishes the totals when a stage or a shard ends. So the registry
//! keeps plain values under a lock, and the disabled path skips those
//! publishes and nothing else.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod sink;
mod span;

use export::render_jsonl;
pub use export::render_prometheus;
pub use metrics::{
    Class, HistogramData, MetricData, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use sink::{EventSink, ObsEvent, DEFAULT_SINK_CAPACITY};
pub use span::StageSpan;

use std::sync::Arc;

/// One observability hub: a registry plus an event sink, shared across the
/// whole pipeline as an `Arc<Obs>`.
#[derive(Default)]
pub struct Obs {
    registry: MetricsRegistry,
    sink: EventSink,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.registry.snapshot().entries.len())
            .field("events", &self.sink.total_pushed())
            .finish()
    }
}

impl Obs {
    /// A fresh hub with a default-capacity sink.
    pub(crate) fn new() -> Self {
        Obs::default()
    }

    /// A fresh hub wrapped in an [`Arc`], ready to hand to the pipeline.
    pub fn shared() -> Arc<Self> {
        Arc::new(Obs::new())
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The event sink.
    pub fn sink(&self) -> &EventSink {
        &self.sink
    }

    /// Open a stage span at the given simulated timestamp (microseconds).
    pub fn span(&self, name: &'static str, sim_now_us: u64) -> StageSpan {
        StageSpan::new(name, sim_now_us)
    }

    /// Render the current state as JSONL (metrics then events).
    pub fn to_jsonl(&self) -> String {
        render_jsonl(&self.registry.snapshot(), &self.sink.events())
    }

    /// Render the current metrics in Prometheus text format.
    ///
    /// This is the one Prometheus exporter in the system: the daemon's
    /// `/metrics` endpoint and the CLI's `--metrics-out file.prom` both
    /// land here, so scrape output is byte-identical no matter which
    /// front door served it.
    pub fn to_prometheus(&self) -> String {
        render_prometheus(&self.registry.snapshot())
    }

    /// Render for an output file path, choosing the format from the
    /// extension: `.prom` and `.txt` get Prometheus text, everything
    /// else gets JSONL (metrics then events).
    pub fn render_for_path(&self, path: &str) -> String {
        let ext = std::path::Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or("");
        if ext.eq_ignore_ascii_case("prom") || ext.eq_ignore_ascii_case("txt") {
            self.to_prometheus()
        } else {
            self.to_jsonl()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_end_to_end() {
        let obs = Obs::shared();
        obs.registry().add("probe_scheduled", Class::Sim, 3);
        obs.span("analyze", 10).finish(&obs, 25);
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"name\":\"probe_scheduled\""));
        assert!(jsonl.contains("\"record\":\"event\""));
        let prom = obs.to_prometheus();
        assert!(prom.contains("probe_scheduled{class=\"sim\"} 3"));
        // Debug must not dump the whole registry (HunterConfig derives
        // Debug and carries an Option<Arc<Obs>>).
        let dbg = format!("{:?}", obs);
        assert!(dbg.contains("Obs"));
        assert!(dbg.len() < 200);
    }

    #[test]
    fn path_extension_selects_the_export_format() {
        let obs = Obs::shared();
        obs.registry().add("probe_scheduled", Class::Sim, 7);
        for prom_path in ["m.prom", "out/scrape.TXT"] {
            assert_eq!(obs.render_for_path(prom_path), obs.to_prometheus());
        }
        for jsonl_path in ["m.jsonl", "metrics", "m.prom.gz"] {
            assert_eq!(obs.render_for_path(jsonl_path), obs.to_jsonl());
        }
    }
}
