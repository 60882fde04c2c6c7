//! What the benchmark runs and what it reports: the one table of
//! workloads, the one table of end-to-end metrics with their bounds, and
//! the one table of per-layer metrics. `BENCHMARK.json` at the root of the
//! repository must say the same (a unit test compares them).

use crate::stats::Better::{self, Higher, Lower};

/// Version of the shape of everything this binary prints.
pub const SCHEMA_VERSION: u32 = 1;

/// Seconds one run measures for unless told otherwise; `BENCHMARK.json`
/// carries the same figure as `run_seconds`.
pub const RUN_SECONDS: f64 = 25.0;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line.
    pub why: &'static str,
    /// Wall seconds one repetition took when the benchmark was defined
    /// (child start to exit). Only turns `--seconds` into a repetition
    /// count; no result depends on it.
    pub nominal_rep_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan_eager",
        why: "full paper pipeline on default-scale worlds (the table binaries' scale), \
              reliable network: every stage and every crate does work",
        nominal_rep_s: 3.0,
    },
    Workload {
        name: "scan_lossy",
        why: "same pipeline under 20 % datagram loss with adaptive retries: \
              timeouts, backoff, quarantine; a hot-path change that taxes retries shows here",
        nominal_rep_s: 3.7,
    },
    Workload {
        name: "scan_stream",
        why: "streamed 360-nameserver worlds, collection only, nothing retained: \
              bypasses support, sandbox and report stages; the only one worker threads can move",
        nominal_rep_s: 2.9,
    },
    Workload {
        name: "daemon_serve",
        why: "the resident daemon over a real loopback socket, reads beside epoch publishes: \
              the operator's view; scan-only changes must leave it alone",
        nominal_rep_s: 6.6,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Repetitions of `workload` that fit a run of `seconds`; at least two, so
/// that one world is always scanned twice and compared.
pub fn reps_for(workload: &Workload, seconds: f64) -> usize {
    ((seconds / workload.nominal_rep_s).round() as usize).clamp(2, 64)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// What the metric is on each workload.
    pub meaning: &'static str,
}

/// Every workload reports every one of these, so each is defined for both
/// kinds of user: the one who runs a scan and the one who queries the
/// daemon.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "scan_*: world generation; daemon_serve: start() until the first epoch is sealed",
    },
    EndToEnd {
        name: "turnaround_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        meaning: "time from asking to having the answer. scan_*: wall time of the one \
                  run/run_streamed call; daemon_serve: median HTTP GET, connect to last byte, \
                  against the static store",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        meaning: "scan_*: scheduled probes completed per second of scan wall time; \
                  daemon_serve: requests completed per second, closed loop, one client",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.2,
        meaning: "the measured process's own VmHWM at exit, one fresh process per repetition",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workloads whose traced run measures it. Elsewhere it is printed
    /// as absent, and as `0` in the result line the driver reads, which has
    /// to carry every name on every workload.
    pub on: &'static [&'static str],
    /// The end-to-end metric and workload the number should move.
    pub moves: &'static str,
}

impl PerLayer {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
        moves,
    }
}

const SCANS: &[&str] = &["scan_eager", "scan_lossy", "scan_stream"];
const STAGED: &[&str] = &["scan_eager", "scan_lossy"];
const EAGER: &[&str] = &["scan_eager"];
const STREAM: &[&str] = &["scan_stream"];
const DAEMON: &[&str] = &["daemon_serve"];
const EAGER_WORLDS: &[&str] = &["scan_eager", "scan_lossy", "daemon_serve"];

const STAGE: &str = "turnaround_ms, ops_per_s on scan_eager/scan_lossy by its share; \
                     absent from scan_stream, so no movement there";
const PROBE: &str = "turnaround_ms, ops_per_s: most on scan_stream, about two thirds as much on \
                     scan_eager, weighted by retransmissions on scan_lossy";
const QUERY: &str = "turnaround_ms, ops_per_s on daemon_serve";
const EPOCH: &str = "daemon.epoch_wall_ms (staleness); tracks turnaround_ms of a medium scan";

/// A traced run reports every one of these that applies to its workload,
/// or fails. `par.stream_scaling` alone may also be absent where it
/// applies: on a one-thread host.
pub const PER_LAYER: &[PerLayer] = &[
    layer("worldgen.generate_ms", "ms", Lower, EAGER_WORLDS, "setup_s on scan_eager, scan_lossy, daemon_serve"),
    layer("worldgen.stream_generate_ms", "ms", Lower, STREAM, "setup_s on scan_stream"),
    layer("core.select_ns_ms", "ms", Lower, STAGED, STAGE),
    layer("core.collect_protective_ms", "ms", Lower, STAGED, STAGE),
    layer("core.collect_correct_ms", "ms", Lower, STAGED, STAGE),
    layer("core.blueprint_ms", "ms", Lower, STAGED, STAGE),
    layer("core.collect_ms", "ms", Lower, STAGED, "turnaround_ms, ops_per_s on scan_eager/scan_lossy: the largest stage"),
    layer("core.classify_ms", "ms", Lower, STAGED, "turnaround_ms on scan_eager (about 4 %)"),
    layer("core.sandbox_ms", "ms", Lower, STAGED, STAGE),
    layer("core.analyze_ms", "ms", Lower, STAGED, STAGE),
    layer("core.report_ms", "ms", Lower, STAGED, STAGE),
    layer("trace.unattributed_share", "ratio", Lower, STAGED, "none: root span self time over its duration; how much of turnaround_ms the stages leave unexplained"),
    layer("trace.overhead_ratio", "ratio", Lower, STAGED, "none: traced wall over untraced wall"),
    layer("core.probes_scheduled", "count", Lower, SCANS, "ops_per_s numerator; repeats exactly"),
    layer("core.probes_answered_first", "count", Higher, SCANS, "core.useful_probe_ratio"),
    layer("core.retransmissions", "count", Lower, SCANS, "turnaround_ms, core.scan_sim_s on scan_lossy"),
    layer("core.gave_up", "count", Lower, SCANS, "core.failed_share on scan_lossy; must be 0 elsewhere"),
    layer("core.quarantined_servers", "count", Lower, SCANS, "core.failed_share on scan_lossy"),
    layer("core.urs_collected", "count", Higher, SCANS, "core.urs_per_s; peak_rss_mib on scan_eager"),
    layer("core.useful_probe_ratio", "ratio", Higher, SCANS, "ops_per_s on scan_lossy: answered over transmissions"),
    layer("core.failed_share", "ratio", Lower, SCANS, "gave-up probes over scheduled; 0 on scan_eager and scan_stream"),
    layer("core.scan_sim_s", "s", Lower, SCANS, "none on wall time: simulated seconds the bulk scan took; repeats exactly"),
    layer("core.urs_per_s", "1/s", Higher, SCANS, "the paper's throughput figure; follows turnaround_ms"),
    layer("simnet.datagrams_sent", "count", Lower, STAGED, "turnaround_ms on scan_lossy (1.5 datagrams per probe there)"),
    layer("simnet.datagrams_dropped", "count", Lower, STAGED, "core.retransmissions"),
    layer("dnswire.encode_query_ns", "ns", Lower, SCANS, PROBE),
    layer("dnswire.decode_query_ns", "ns", Lower, SCANS, PROBE),
    layer("dnswire.encode_response_ns", "ns", Lower, SCANS, PROBE),
    layer("dnswire.decode_response_ns", "ns", Lower, SCANS, PROBE),
    layer("dnswire.response_bytes_mean", "bytes", Lower, SCANS, "dnswire.*_response_ns"),
    layer("simnet.rpc_echo_ns", "ns", Lower, SCANS, PROBE),
    layer("simnet.rpc_echo_lossy_ns", "ns", Lower, SCANS, "turnaround_ms on scan_lossy: the loss lottery and the timeout timer"),
    layer("authdns.serve_ns", "ns", Lower, STAGED, PROBE),
    layer("authdns.probe_roundtrip_ns", "ns", Lower, SCANS, PROBE),
    layer("authdns.answer_share", "ratio", Higher, SCANS, "core.urs_collected per probe"),
    layer("core.collect_ns_per_probe", "ns", Lower, SCANS, PROBE),
    layer("core.engine_overhead_ns", "ns", Lower, SCANS, "collect_ns_per_probe minus probe_roundtrip_ns: scheduler, qid, UR build, store append"),
    layer("core.classify_ns_per_ur", "ns", Lower, STAGED, "core.classify_ms"),
    layer("core.store_append_ns", "ns", Lower, STAGED, "core.collect_ms, peak_rss_mib on scan_eager only"),
    layer("netdb.lookup_ns", "ns", Lower, STAGED, "core.classify_ms on scan_eager"),
    layer("pdns.contains_ns", "ns", Lower, STAGED, "core.classify_ms on scan_eager"),
    layer("recursor.resolve_cold_ns", "ns", Lower, STAGED, "core.collect_correct_ms on scan_eager/scan_lossy; zero calls on scan_stream"),
    layer("recursor.resolve_warm_ns", "ns", Lower, STAGED, "core.collect_correct_ms on scan_eager/scan_lossy; zero calls on scan_stream"),
    layer("intel.ids_inspect_ns_per_flow", "ns", Lower, STAGED, "core.sandbox_ms on scan_eager only"),
    layer("intel.vendor_lookup_ns", "ns", Lower, STAGED, "core.analyze_ms on scan_eager only"),
    layer("par.stream_wall_s_1w", "s", Lower, STREAM, "turnaround_ms on scan_stream on a one-thread host"),
    layer("par.stream_scaling", "ratio", Higher, STREAM, "ops_per_s on scan_stream; nothing on scan_eager (one shard); absent on a one-thread host"),
    layer("par.workers", "count", Higher, STREAM, "par.stream_scaling"),
    layer("par.host_threads", "count", Higher, STREAM, "par.stream_scaling"),
    layer("par.rss_ratio", "ratio", Lower, STREAM, "peak_rss_mib on scan_stream: auto workers over one worker"),
    layer("obs.overhead_ratio", "ratio", Lower, EAGER, "turnaround_ms on scan_eager with a hub attached; the gate is 1.03"),
    layer("core.collect_allocs_per_probe", "count", Lower, STAGED, "core.collect_ms; repeats to a part in ten thousand"),
    layer("core.collect_alloc_bytes_per_probe", "bytes", Lower, STAGED, "core.collect_ms; repeats to a part in ten thousand"),
    layer("core.classify_allocs_per_ur", "count", Lower, STAGED, "core.classify_ms; repeats to a part in ten thousand"),
    layer("core.collect_peak_live_mib", "MiB", Lower, STAGED, "peak_rss_mib on scan_eager"),
    layer("core.peak_live_mib", "MiB", Lower, STAGED, "peak_rss_mib on scan_eager/scan_lossy"),
    layer("daemon.scan_epoch_ms", "ms", Lower, DAEMON, EPOCH),
    layer("daemon.publish_ms_p50", "ms", Lower, DAEMON, EPOCH),
    layer("daemon.publish_ms_max", "ms", Lower, DAEMON, "daemon.busy_query_max_ms: the lock hold readers wait out"),
    layer("daemon.events_per_epoch", "count", Lower, DAEMON, "daemon.publish_ms_p50"),
    layer("daemon.replay_ms", "ms", Lower, DAEMON, "none: cost of the replay check"),
    layer("daemon.store_lookup_ns", "ns", Lower, DAEMON, QUERY),
    layer("daemon.connect_us", "us", Lower, DAEMON, QUERY),
    layer("daemon.http_overhead_us", "us", Lower, DAEMON, "daemon.query_p50_ms minus the store lookup: accept loop, parse, render, socket"),
    layer("daemon.response_bytes_mean", "bytes", Lower, DAEMON, QUERY),
    layer("daemon.query_p50_ms", "ms", Lower, DAEMON, "is turnaround_ms on daemon_serve"),
    layer("daemon.query_p99_ms", "ms", Lower, DAEMON, "tail of turnaround_ms on daemon_serve"),
    layer("daemon.epoch_wall_ms", "ms", Lower, DAEMON, "how stale a verdict can be: (epoch N first seen - epoch 1 first seen) / (N - 1)"),
    layer("daemon.busy_query_p50_ms", "ms", Lower, DAEMON, "queries beside epoch publishes; too noisy to be end-to-end"),
    layer("daemon.busy_query_p90_ms", "ms", Lower, DAEMON, "queries beside epoch publishes; too noisy to be end-to-end"),
    layer("daemon.busy_query_max_ms", "ms", Lower, DAEMON, "the publish lock hold and CPU contention surface here"),
    layer("daemon.requests_total", "count", Higher, DAEMON, "ops_per_s on daemon_serve"),
    layer("daemon.requests_failed", "count", Lower, DAEMON, "failed in the result line; must be 0"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A name starts with a letter or a digit and is made of at most 64
    /// letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_validation() {
        for ok in ["setup_s", "core.collect_ms", "p99-ms", "9lives", "A.b_c-1"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/y",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("MiB") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn tables_are_well_formed() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            // World sizes are fixed; only repetitions give way to the clock,
            // and on a scan never below five.
            let least = if w.name.starts_with("scan_") { 5 } else { 2 };
            assert!(reps_for(w, RUN_SECONDS) >= least, "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit) && names.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for m in PER_LAYER {
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
            assert!(m.on.iter().all(|w| workload(w).is_some()), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// Every `"key": "value"` pair of string type in `json`, in order.
    fn string_pairs(json: &str) -> Vec<(String, String)> {
        let mut strings = Vec::new();
        let mut rest = json;
        while let Some(open) = rest.find('"') {
            let tail = &rest[open + 1..];
            let close = tail.find('"').expect("balanced quotes");
            let after = tail[close + 1..].trim_start();
            strings.push((tail[..close].to_string(), after.starts_with(':')));
            rest = &tail[close + 1..];
        }
        strings
            .windows(2)
            .filter(|w| w[0].1 && !w[1].1)
            .map(|w| (w[0].0.clone(), w[1].0.clone()))
            .collect()
    }

    fn section<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        &json[open..=close]
    }

    #[test]
    fn benchmark_json_names_what_the_binary_emits() {
        let json = include_str!("../../BENCHMARK.json");
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        let names = |key: &str| -> Vec<String> {
            string_pairs(section(json, key))
                .into_iter()
                .filter(|(k, _)| k == "name")
                .map(|(_, v)| v)
                .collect()
        };
        let field = |key: &str, field: &str| -> Vec<String> {
            string_pairs(section(json, key))
                .into_iter()
                .filter(|(k, _)| k == field)
                .map(|(_, v)| v)
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(field("workloads", "why"), WORKLOADS.map(|w| w.why));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(field("end_to_end", "unit"), END_TO_END.map(|m| m.unit));
        assert_eq!(
            field("end_to_end", "better"),
            END_TO_END.map(|m| m.better.as_str())
        );
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), per_layer);
        let units: Vec<&str> = PER_LAYER.iter().map(|m| m.unit).collect();
        assert_eq!(field("per_layer", "unit"), units);
        let better: Vec<&str> = PER_LAYER.iter().map(|m| m.better.as_str()).collect();
        assert_eq!(field("per_layer", "better"), better);
        for m in &END_TO_END {
            let entry = format!("\"name\": \"{}\"", m.name);
            let at = json.find(&entry).expect(m.name);
            let line = &json[at..at + json[at..].find('}').unwrap()];
            assert!(
                line.contains(&format!("\"bound\": {}", m.bound)),
                "{}: bound differs in {line}",
                m.name
            );
        }
    }
}
