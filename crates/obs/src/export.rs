//! Exporters: JSONL (one metric or event per line) and Prometheus text.
//!
//! Both renderers are pure functions of a [`MetricsSnapshot`] (plus the
//! event list for JSONL), so exports never race live updates: take a
//! snapshot once, render it however many ways you need. JSON is
//! hand-rolled — the workspace is dependency-free by design — and emits a
//! stable key order so exports diff cleanly between runs.

use crate::metrics::{MetricData, MetricsSnapshot};
use crate::sink::ObsEvent;

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_u64_list(vals: &[u64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Render a snapshot (and optionally the event buffer) as JSONL: one JSON
/// object per line, metrics first (name order), then events (sequence
/// order). Every line is a complete JSON object with a `"record"`
/// discriminator of `"metric"` or `"event"`.
pub(crate) fn render_jsonl(snapshot: &MetricsSnapshot, events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for m in &snapshot.entries {
        let head = format!(
            "{{\"record\":\"metric\",\"name\":\"{}\",\"class\":\"{}\"",
            json_escape(&m.name),
            m.class.as_str()
        );
        match &m.data {
            MetricData::Counter(v) => {
                out.push_str(&format!("{head},\"kind\":\"counter\",\"value\":{v}}}\n"));
            }
            MetricData::Gauge(v) => {
                out.push_str(&format!("{head},\"kind\":\"gauge\",\"value\":{v}}}\n"));
            }
            MetricData::Histogram(d) => {
                out.push_str(&format!(
                    "{head},\"kind\":\"histogram\",\"bounds\":{},\"buckets\":{},\
                     \"count\":{},\"sum\":{},\"max\":{}}}\n",
                    json_u64_list(&d.bounds),
                    json_u64_list(&d.buckets),
                    d.count,
                    d.sum,
                    d.max
                ));
            }
        }
    }
    for e in events {
        let sim = match e.sim_us {
            Some(us) => us.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"record\":\"event\",\"seq\":{},\"sim_us\":{sim},\"kind\":\"{}\",\
             \"name\":\"{}\",\"detail\":\"{}\"}}\n",
            e.seq,
            json_escape(e.kind),
            json_escape(&e.name),
            json_escape(&e.detail)
        ));
    }
    out
}

/// Sanitise a metric name into the Prometheus charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format. Histograms
/// emit cumulative `_bucket{le=...}` series plus `_sum` and `_count`;
/// every metric carries a `class` label marking its determinism class.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for m in &snapshot.entries {
        let name = prom_name(&m.name);
        let class = m.class.as_str();
        match &m.data {
            MetricData::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n"));
                out.push_str(&format!("{name}{{class=\"{class}\"}} {v}\n"));
            }
            MetricData::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{name}{{class=\"{class}\"}} {v}\n"));
            }
            MetricData::Histogram(d) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cum = 0u64;
                for (bound, n) in d.bounds.iter().zip(d.buckets.iter()) {
                    cum += n;
                    out.push_str(&format!(
                        "{name}_bucket{{class=\"{class}\",le=\"{bound}\"}} {cum}\n"
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{{class=\"{class}\",le=\"+Inf\"}} {}\n",
                    d.count
                ));
                out.push_str(&format!("{name}_sum{{class=\"{class}\"}} {}\n", d.sum));
                out.push_str(&format!("{name}_count{{class=\"{class}\"}} {}\n", d.count));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Class, MetricsRegistry};
    use crate::sink::EventSink;

    fn sample() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("probe_scheduled", Class::Sim).add(12);
        reg.gauge("world_nameservers", Class::Sim).set(4);
        let h = reg.histogram("probe_attempts", Class::Sim, &[1, 2, 3]);
        h.observe(1);
        h.observe(1);
        h.observe(3);
        reg.counter("worker_idle_us", Class::Wall).add(999);
        reg
    }

    #[test]
    fn jsonl_one_valid_object_per_line() {
        let reg = sample();
        let sink = EventSink::default();
        sink.push(Some(5), "span", "collect", "line1\nline2 \"q\"".into());
        let text = render_jsonl(&reg.snapshot(), &sink.events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // 4 metrics + 1 event
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            // Hand-rolled escaping: no raw control characters survive.
            assert!(!line.chars().any(|c| (c as u32) < 0x20));
        }
        assert!(text.contains("\"name\":\"probe_scheduled\",\"class\":\"sim\""));
        assert!(text.contains("\"kind\":\"counter\",\"value\":12"));
        assert!(text.contains("\"bounds\":[1,2,3],\"buckets\":[2,0,1,0]"));
        assert!(text.contains("\\nline2 \\\"q\\\""));
    }

    #[test]
    fn prometheus_cumulative_buckets() {
        let text = render_prometheus(&sample().snapshot());
        assert!(text.contains("# TYPE probe_attempts histogram"));
        assert!(text.contains("probe_attempts_bucket{class=\"sim\",le=\"1\"} 2"));
        assert!(text.contains("probe_attempts_bucket{class=\"sim\",le=\"2\"} 2"));
        assert!(text.contains("probe_attempts_bucket{class=\"sim\",le=\"3\"} 3"));
        assert!(text.contains("probe_attempts_bucket{class=\"sim\",le=\"+Inf\"} 3"));
        assert!(text.contains("probe_attempts_sum{class=\"sim\"} 5"));
        assert!(text.contains("probe_attempts_count{class=\"sim\"} 3"));
        assert!(text.contains("worker_idle_us{class=\"wall\"} 999"));
    }
}
