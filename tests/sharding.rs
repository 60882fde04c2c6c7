//! The sharded collection fabric must be invisible in the results: for
//! every worker count (one scan shard per worker), with and without
//! injected loss, the pipeline produces bit-identical per-UR
//! classifications, coverage accounting, and deterministic (sim-class)
//! metrics. Workers may only change wall-clock time, never the
//! measurement.

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

/// A reliable network, and its label.
fn reliable() -> (&'static str, HunterConfig) {
    ("reliable", HunterConfig::fast())
}

/// 1 % per-flow drop with 3 attempts, where retries, backoff waits and
/// quarantine streaks all fire, and its label.
fn lossy_1pct() -> (&'static str, HunterConfig) {
    (
        "1% lossy",
        HunterConfig::fast()
            .with_retry_plan(QueryPlan::with_attempts(3))
            .with_scan_faults(FaultPlan::lossy(0.01).scheduled_per_flow()),
    )
}

/// 5 % per-flow drop with the adaptive feed, and its label.
fn lossy_5pct_adaptive() -> (&'static str, HunterConfig) {
    (
        "5% lossy adaptive",
        HunterConfig::fast()
            .with_scan_faults(FaultPlan::lossy(0.05).scheduled_per_flow())
            .with_adaptive(),
    )
}

/// The networks every worker count is checked on.
fn networks() -> [(&'static str, HunterConfig); 3] {
    [reliable(), lossy_1pct(), lossy_5pct_adaptive()]
}

/// The scan runs on one shard per worker, each worker classifying the
/// shard it scanned. At every worker count the sequence, the accounting
/// and both simulated clocks must be the one-worker run's: a flow's loss
/// lottery may not move because its nameserver landed in another shard.
fn assert_workers_invisible(label: &str, cfg: HunterConfig) {
    let baseline = run_with(cfg.clone().with_workers(1));
    assert!(
        baseline.report.totals.total > 0,
        "{label}: nothing collected"
    );
    assert!(
        baseline.coverage.is_complete(),
        "{label}: coverage must balance"
    );
    let lossy = cfg.scan_faults.is_some();
    assert_eq!(baseline.coverage.retransmissions > 0, lossy, "{label}");
    for workers in [2usize, 4, 8] {
        let out = run_with(cfg.clone().with_workers(workers));
        assert_eq!(
            signature(&out),
            signature(&baseline),
            "{label}: diverges at workers={workers}"
        );
        assert_eq!(out.scan_elapsed, baseline.scan_elapsed, "{label}");
        assert_eq!(out.bucket_wait, baseline.bucket_wait, "{label}");
    }
}

#[test]
fn batch_path_is_bit_identical_across_shard_counts() {
    let (label, cfg) = reliable();
    assert_workers_invisible(label, cfg);
}

#[test]
fn sharding_is_invariant_under_injected_loss() {
    let (label, cfg) = lossy_1pct();
    assert_workers_invisible(label, cfg);
}

#[test]
fn one_shard_per_worker_by_default_is_bit_identical_to_one_worker() {
    let (label, cfg) = lossy_5pct_adaptive();
    assert_workers_invisible(label, cfg);
}

#[test]
fn sim_metrics_hash_is_identical_across_shard_counts() {
    // The obs registry's deterministic subset (probe funnel, fabric
    // counters, verdict funnel, stage sim deltas) must not see the worker
    // count either, on any network: each shard engine and fabric publishes
    // its counts once, in the scan's fold, and the sums commute.
    let sim_hash = |cfg: HunterConfig| {
        let hub = obs::Obs::shared();
        run_with(cfg.with_obs(hub.clone()));
        let hash = hub.registry().sim_hash();
        hash
    };
    for (label, cfg) in networks() {
        let reference = sim_hash(cfg.clone().with_workers(1));
        for workers in [2usize, 4, 8] {
            assert_eq!(
                sim_hash(cfg.clone().with_workers(workers)),
                reference,
                "{label}: sim metrics diverge at workers={workers}"
            );
        }
    }
}

#[test]
fn the_support_sweep_cannot_see_the_scan_beside_it() {
    // With more than one worker the calling thread sweeps the resolvers and
    // the protective canaries while the workers scan; with one it sweeps
    // first. Both support databases and the world clock after the run must
    // be the one-worker run's, reliable and under loss.
    let run_on = |cfg: HunterConfig| {
        let mut world = World::generate(WorldConfig::small());
        let out = run(&mut world, &cfg);
        (out, world.net.now())
    };
    for (label, cfg) in networks() {
        let (baseline, base_clock) = run_on(cfg.clone().with_workers(1));
        for workers in [2usize, 4] {
            let (out, clock) = run_on(cfg.clone().with_workers(workers));
            assert_eq!(
                out.correct_db, baseline.correct_db,
                "{label}: correct records diverge at workers={workers}"
            );
            assert_eq!(
                out.protective_db, baseline.protective_db,
                "{label}: protective records diverge at workers={workers}"
            );
            assert_eq!(
                clock, base_clock,
                "{label}: world clock diverges at workers={workers}"
            );
        }
    }
}

#[test]
fn ethics_pacing_runs_unsharded() {
    // Under per-server pacing the scan runs on one shard whatever the
    // worker count (the paper's single scanner interleaves probes across
    // servers on one clock), so a paced run on four workers is the paced
    // run on one, down to the world clock.
    let mut w1 = World::generate(WorldConfig::small());
    let paced = run(&mut w1, &HunterConfig::paper_faithful().with_workers(1));
    let mut w2 = World::generate(WorldConfig::small());
    let paced_four = run(&mut w2, &HunterConfig::paper_faithful().with_workers(4));
    assert_eq!(signature(&paced), signature(&paced_four));
    assert_eq!(paced.scan_elapsed, paced_four.scan_elapsed);
    assert_eq!(paced.bucket_wait, paced_four.bucket_wait);
    assert_eq!(w1.net.now(), w2.net.now(), "pacing clock must not shard");
}
