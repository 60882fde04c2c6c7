//! The sharded collection fabric must be invisible in the results: for
//! every shard count and every worker count, with and without injected
//! loss, the pipeline produces bit-identical per-UR classifications,
//! coverage accounting, and deterministic (sim-class) metrics. Sharding
//! may only change wall-clock time, never the measurement.

use simnet::FaultPlan;
use urhunter::{classified_sequence_hash, run, CoverageReport, HunterConfig, QueryPlan, RunOutput};
use worldgen::{World, WorldConfig};

fn run_with(cfg: HunterConfig) -> RunOutput {
    let mut world = World::generate(WorldConfig::small());
    run(&mut world, &cfg)
}

/// Everything the shard-invariance contract covers.
fn signature(out: &RunOutput) -> (u64, urhunter::Totals, usize, CoverageReport, String) {
    (
        classified_sequence_hash(&out.classified),
        out.report.totals,
        out.analysis.evidence.len(),
        out.coverage.clone(),
        out.report.render_table1(),
    )
}

#[test]
fn batch_path_is_bit_identical_across_shard_counts() {
    let baseline = run_with(HunterConfig::fast().with_shards(1));
    let base_sig = signature(&baseline);
    assert!(
        baseline.report.totals.total > 0,
        "baseline collected nothing"
    );
    assert!(baseline.coverage.is_complete(), "coverage must balance");

    for shards in [2usize, 4, 8] {
        let out = run_with(HunterConfig::fast().with_shards(shards));
        assert_eq!(
            signature(&out),
            base_sig,
            "batch path diverges at shards={shards}"
        );
    }
}

#[test]
fn fewer_workers_than_shards_is_bit_identical_to_one_shard() {
    // Workers claim shards, so with fewer workers than shards a worker
    // scans several in turn (and one worker scans them all on the calling
    // thread). Reliable, and per-flow lossy with the adaptive feed: the
    // sequence, the accounting and both simulated clocks must be the
    // one-shard run's.
    let base = |lossy: bool| {
        if lossy {
            HunterConfig::fast()
                .with_scan_faults(FaultPlan::lossy(0.05).scheduled_per_flow())
                .with_adaptive()
        } else {
            HunterConfig::fast()
        }
    };
    for lossy in [false, true] {
        let label = if lossy { "lossy adaptive" } else { "reliable" };
        let base = || base(lossy);
        let baseline = run_with(base().with_shards(1));
        assert!(
            baseline.report.totals.total > 0,
            "{label}: nothing collected"
        );
        assert_eq!(baseline.coverage.retransmissions > 0, lossy, "{label}");
        for workers in [1usize, 2, 4] {
            let out = run_with(base().with_shards(4).with_workers(workers));
            assert_eq!(
                signature(&out),
                signature(&baseline),
                "{label}: diverges at shards=4 workers={workers}"
            );
            assert_eq!(out.scan_elapsed, baseline.scan_elapsed, "{label}");
            assert_eq!(out.bucket_wait, baseline.bucket_wait, "{label}");
        }
    }
}

#[test]
fn sharding_is_invariant_under_injected_loss() {
    // 1% per-flow drop with the default 3 attempts: retries, backoff waits
    // and quarantine streaks all fire, and every per-flow fate must stay
    // where it was — a flow's loss lottery may not move to a different
    // outcome just because its nameserver landed in a different shard.
    let lossy = |cfg: HunterConfig| {
        cfg.with_retry_plan(QueryPlan::with_attempts(3))
            .with_scan_faults(FaultPlan::lossy(0.01).scheduled_per_flow())
    };
    let baseline = run_with(lossy(HunterConfig::fast().with_shards(1)));
    let base_sig = signature(&baseline);
    assert!(
        baseline.coverage.retransmissions > 0,
        "1% drop never retransmitted — the test exercises nothing"
    );

    for shards in [2usize, 4, 8] {
        let batch = run_with(lossy(HunterConfig::fast().with_shards(shards)));
        assert_eq!(
            signature(&batch),
            base_sig,
            "lossy batch path diverges at shards={shards}"
        );
    }
}

#[test]
fn sim_metrics_hash_is_identical_across_shard_counts() {
    // The obs registry's deterministic subset (probe funnel, fabric
    // counters, verdict funnel, stage sim deltas) must not see the shard
    // count either: shard engines and fabrics mirror into the same
    // counter cells, and counter sums commute.
    let observed = |shards: usize| {
        let mut world = World::generate(WorldConfig::small());
        let hub = obs::Obs::shared();
        let cfg = HunterConfig::fast()
            .with_shards(shards)
            .with_obs(hub.clone());
        let out = run(&mut world, &cfg);
        (
            hub.registry().sim_hash(),
            classified_sequence_hash(&out.classified),
        )
    };
    let reference = observed(1);
    for shards in [2usize, 4, 8] {
        assert_eq!(
            observed(shards),
            reference,
            "sim metrics diverge at shards={shards}"
        );
    }
}

#[test]
fn ethics_pacing_runs_unsharded() {
    // Under per-server pacing the shard knob is clamped to 1 (the paper's
    // single scanner interleaves probes across servers on one clock), so
    // a sharded paced run is the paced run, down to the world clock.
    let mut w1 = World::generate(WorldConfig::small());
    let paced = run(&mut w1, &HunterConfig::paper_faithful());
    let mut w2 = World::generate(WorldConfig::small());
    let paced_sharded = run(&mut w2, &HunterConfig::paper_faithful().with_shards(8));
    assert_eq!(signature(&paced), signature(&paced_sharded));
    assert_eq!(w1.net.now(), w2.net.now(), "pacing clock must not shard");
}
