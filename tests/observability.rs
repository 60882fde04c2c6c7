//! Integration contract for the observability subsystem (`crates/obs`):
//! every sim-class metric is a pure function of the simulated world, so
//! the deterministic snapshot hash must be bit-identical across worker
//! and shard counts — with and without injected loss — while wall-class
//! metrics (host timing, scheduling) stay out of the hash entirely. The
//! exporters must round-trip the same registry.

use simnet::FaultPlan;
use std::sync::Arc;
use urhunter::{classified_sequence_hash, run, HunterConfig, QueryPlan, RunOutput};
use worldgen::{World, WorldConfig};

/// Run the pipeline on a fresh small world with a fresh hub attached.
fn observed_run(cfg: HunterConfig) -> (RunOutput, Arc<obs::Obs>) {
    let mut world = World::generate(WorldConfig::small());
    let hub = obs::Obs::shared();
    let out = run(&mut world, &cfg.with_obs(hub.clone()));
    (out, hub)
}

/// The execution matrix the determinism contract covers: one worker and
/// four, on one shard and on four (with as many workers, and with fewer).
fn matrix() -> Vec<(&'static str, HunterConfig)> {
    vec![
        ("workers=1", HunterConfig::fast().with_workers(1)),
        ("workers=4", HunterConfig::fast().with_workers(4)),
        (
            "shards=4 workers=4",
            HunterConfig::fast().with_shards(4).with_workers(4),
        ),
        (
            "shards=4 workers=2",
            HunterConfig::fast().with_shards(4).with_workers(2),
        ),
    ]
}

#[test]
fn sim_metrics_hash_is_identical_across_executors_and_parallelism() {
    let mut reference: Option<(u64, u64)> = None;
    for (label, cfg) in matrix() {
        let (out, hub) = observed_run(cfg);
        let sig = (
            hub.registry().sim_hash(),
            classified_sequence_hash(&out.classified),
        );
        match &reference {
            None => reference = Some(sig),
            Some(want) => assert_eq!(
                &sig, want,
                "{label}: sim metrics or output diverged from the first config"
            ),
        }
    }
}

#[test]
fn sim_metrics_hash_is_identical_under_loss() {
    // 1% drop with the default 3 attempts: retries fire, backoff waits
    // accumulate, and all of it must still be a pure function of the
    // simulated world — identical across every worker and shard count.
    let mut reference: Option<u64> = None;
    let mut snapshots = Vec::new();
    for (label, cfg) in matrix() {
        let lossy = cfg
            .with_retry_plan(QueryPlan::with_attempts(3))
            .with_scan_faults(FaultPlan::lossy(0.01).scheduled_per_flow());
        let (_, hub) = observed_run(lossy);
        let hash = hub.registry().sim_hash();
        match reference {
            None => reference = Some(hash),
            Some(want) => assert_eq!(hash, want, "{label}: lossy sim metrics diverged"),
        }
        snapshots.push(hub.registry().snapshot());
    }
    // The loss must actually exercise the retry instrumentation, or this
    // test proves nothing.
    let retrans = snapshots[0].counter("probe_retransmissions").unwrap_or(0);
    assert!(retrans > 0, "1% drop never retransmitted");
}

#[test]
fn wall_metrics_exist_but_stay_out_of_the_sim_hash() {
    let (_, hub) = observed_run(HunterConfig::fast().with_workers(2));
    let snap = hub.registry().snapshot();
    // The run registers cache, stage-span and buffer-pool instrumentation
    // (the scan publishes its pool traffic whatever the world kind)…
    assert!(snap.counter("attr_cache_resolved").unwrap_or(0) > 0);
    assert!(snap.counter("stage_collect_wall_us").is_some());
    assert!(snap.counter("bufpool_recycled").unwrap_or(0) > 0);
    assert!(snap.counter("bufpool_allocated").is_some());
    // …none of which appears in the deterministic subset.
    for m in snap.sim_only() {
        assert_eq!(
            m.class,
            obs::Class::Sim,
            "{} leaked into sim subset",
            m.name
        );
        assert!(!m.name.starts_with("bufpool_"), "{} is wall-class", m.name);
    }
    let before = hub.registry().sim_hash();
    hub.registry()
        .counter("bufpool_recycled", obs::Class::Wall)
        .inc();
    assert_eq!(
        before,
        hub.registry().sim_hash(),
        "bumping a wall counter changed the sim hash"
    );
    hub.registry()
        .counter("probe_scheduled", obs::Class::Sim)
        .inc();
    assert_ne!(
        before,
        hub.registry().sim_hash(),
        "bumping a sim counter must change the sim hash"
    );
}

#[test]
fn registry_funnels_match_the_run_output() {
    let (out, hub) = observed_run(HunterConfig::fast());
    let snap = hub.registry().snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    // Probe funnel vs the engine's coverage report.
    assert_eq!(c("probe_scheduled"), out.coverage.scheduled);
    assert_eq!(c("probe_answered_first"), out.coverage.answered);
    // Verdict funnel vs the report totals.
    let t = out.report.totals;
    assert_eq!(c("classify_total"), t.total as u64);
    assert_eq!(c("classify_correct"), t.correct as u64);
    assert_eq!(c("classify_protective"), t.protective as u64);
    assert_eq!(c("classify_suspicious"), (t.unknown + t.malicious) as u64);
    // Stage spans ran exactly once each.
    for stage in [
        "collect_support",
        "collect",
        "classify",
        "analyze",
        "report",
    ] {
        assert_eq!(
            snap.counter(&format!("stage_{stage}_runs")),
            Some(1),
            "stage {stage} did not record exactly one span"
        );
    }
    // Classification never touches the simulated network.
    assert_eq!(snap.counter("stage_classify_sim_us"), Some(0));
    // The fabric accounting balances.
    assert_eq!(
        c("net_sent") + c("net_duplicated"),
        c("net_delivered") + c("net_dropped") + c("net_no_route"),
        "fabric datagram accounting does not balance"
    );
}

#[test]
fn exporters_render_the_whole_registry() {
    let (_, hub) = observed_run(HunterConfig::fast());
    let jsonl = hub.to_jsonl();
    assert!(!jsonl.is_empty());
    let mut metric_lines = 0;
    let mut event_lines = 0;
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL line is not an object: {line}"
        );
        if line.contains("\"record\":\"metric\"") {
            metric_lines += 1;
        } else if line.contains("\"record\":\"event\"") {
            event_lines += 1;
        } else {
            panic!("unknown record type in line: {line}");
        }
    }
    let snap = hub.registry().snapshot();
    assert_eq!(metric_lines, snap.entries.len(), "one line per metric");
    // Stage spans always trace into the sink, so the export carries events.
    assert!(event_lines > 0, "no events exported");
    assert!(jsonl.contains("\"name\":\"probe_scheduled\""));

    let prom = hub.to_prometheus();
    assert!(prom.contains("# TYPE probe_scheduled counter"));
    assert!(prom.contains("probe_attempts_bucket"));
    assert!(prom.contains("class=\"sim\""));
    assert!(prom.contains("class=\"wall\""));
}

#[test]
fn runs_without_a_hub_match_an_instrumented_run() {
    // No hub: the output still matches an instrumented run bit for bit,
    // down to the simulated scan clock.
    let cfg = HunterConfig::fast().with_workers(2);
    let mut world = World::generate(WorldConfig::small());
    let plain = run(&mut world, &cfg.clone());
    let (observed, _) = observed_run(cfg);
    assert_eq!(
        classified_sequence_hash(&plain.classified),
        classified_sequence_hash(&observed.classified),
        "attaching the hub changed the output"
    );
    assert_eq!(plain.coverage, observed.coverage);
    assert_eq!(plain.scan_elapsed, observed.scan_elapsed);
}
