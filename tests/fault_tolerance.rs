//! Fault-matrix suite for the resilient query engine: under injected loss
//! the pipeline either recovers the reliable run bit-for-bit (enough
//! retries) or accounts for every missed probe in its [`CoverageReport`]
//! (loss is measured, never silent). On a reliable network the engine is
//! invisible: retries never fire and the output is identical to the
//! single-shot collector.

use simnet::FaultPlan;
use urhunter::{classified_sequence_hash, run, HunterConfig, QueryPlan, RunOutput};
use worldgen::{World, WorldConfig};

fn run_with(cfg: HunterConfig) -> RunOutput {
    let mut world = World::generate(WorldConfig::small());
    // Every run in this suite carries an observability hub, and the hub's
    // probe funnel must agree with the engine's own CoverageReport — two
    // independent accounting paths over the same probes.
    let hub = obs::Obs::shared();
    let out = run(&mut world, &cfg.with_obs(hub.clone()));
    let c = |name: &str| hub.registry().counter_value(name).unwrap_or(0);
    let cov = &out.coverage;
    assert_eq!(c("probe_scheduled"), cov.scheduled, "scheduled mismatch");
    assert_eq!(c("probe_answered_first"), cov.answered, "answered mismatch");
    assert_eq!(
        c("probe_answered_retried"),
        cov.retried_answered,
        "retried mismatch"
    );
    assert_eq!(c("probe_gave_up"), cov.gave_up, "gave-up mismatch");
    assert_eq!(
        c("probe_skipped_quarantined"),
        cov.skipped_quarantined,
        "skipped mismatch"
    );
    assert_eq!(
        c("probe_retransmissions"),
        cov.retransmissions,
        "retransmission mismatch"
    );
    // The funnel identity, stated on the registry's own numbers: every
    // scheduled probe lands in exactly one terminal bucket.
    assert_eq!(
        c("probe_scheduled")
            - c("probe_answered_first")
            - c("probe_answered_retried")
            - c("probe_gave_up")
            - c("probe_skipped_quarantined"),
        0,
        "registry probe funnel does not balance"
    );
    out
}

/// Everything the equivalence contract covers, in one comparable bundle.
fn signature(out: &RunOutput) -> (u64, urhunter::Totals, usize, String) {
    (
        classified_sequence_hash(&out.classified),
        out.report.totals,
        out.analysis.evidence.len(),
        out.report.render_table1(),
    )
}

fn lossy(drop: f64) -> FaultPlan {
    FaultPlan::lossy(drop).scheduled_per_flow()
}

fn lossy_cfg(drop: f64, attempts: u32, workers: usize) -> HunterConfig {
    HunterConfig::fast()
        .with_workers(workers)
        .with_retry_plan(QueryPlan::with_attempts(attempts))
        .with_scan_faults(lossy(drop))
}

/// The accounting invariant every run must satisfy, lossy or not.
fn assert_accounted(out: &RunOutput, label: &str) {
    let c = &out.coverage;
    assert!(c.scheduled > 0, "{label}: nothing scheduled");
    assert!(
        c.is_complete(),
        "{label}: {} scheduled != {} answered + {} retried + {} gave up + {} skipped",
        c.scheduled,
        c.answered,
        c.retried_answered,
        c.gave_up,
        c.skipped_quarantined
    );
    // The report embeds the same accounting.
    assert_eq!(&out.report.coverage, c, "{label}: report coverage diverges");
}

#[test]
fn reliable_run_is_bit_identical_to_single_shot() {
    // Pre-PR behavior is one attempt with a 5 s timeout and no breaker; on
    // a reliable fabric the default retrying engine must not change a bit,
    // at any worker count.
    let single = run_with(HunterConfig::fast().with_retry_plan(QueryPlan::single_shot()));
    let sig = signature(&single);
    assert!(single.report.totals.total > 0);

    for cfg in [
        HunterConfig::fast(), // default: 3 attempts
        HunterConfig::fast().with_retries(5),
        HunterConfig::fast().with_retries(5).with_workers(4),
        // An explicitly reliable fault plan is the same as no plan.
        HunterConfig::fast().with_scan_faults(FaultPlan::reliable()),
    ] {
        let out = run_with(cfg);
        assert_eq!(signature(&out), sig, "reliable run diverged");
        assert_accounted(&out, "reliable");
        assert_eq!(out.coverage.retried_answered, 0);
        assert_eq!(out.coverage.gave_up, 0);
        assert_eq!(out.coverage.retransmissions, 0);
        assert!(out.coverage.quarantined_servers.is_empty());
    }
}

#[test]
fn single_attempt_under_loss_accounts_every_miss() {
    // attempts=1 under 5% drop: silent false negatives become measured
    // give-ups — answered + gave_up == scheduled, nothing vanishes.
    for (label, cfg) in [
        ("workers=1", lossy_cfg(0.05, 1, 1)),
        ("workers=4", lossy_cfg(0.05, 1, 4)),
    ] {
        let out = run_with(cfg);
        assert_accounted(&out, label);
        assert!(
            out.coverage.gave_up > 0,
            "{label}: 5% drop with one attempt must lose probes"
        );
        assert_eq!(
            out.coverage.retransmissions, 0,
            "{label}: one attempt must never retransmit"
        );
        assert!(out.report.totals.total > 0, "{label}: collected nothing");
    }
}

#[test]
fn retries_recover_reliable_hash_at_five_percent_drop() {
    // The acceptance config: drop=0.05, attempts=5 answers every probe
    // (per-probe give-up odds are ~1e-5) and the classified sequence is
    // bit-identical to the reliable run, at either worker count.
    let reliable = run_with(HunterConfig::fast());
    let sig = signature(&reliable);
    for (label, cfg) in [
        ("workers=1", lossy_cfg(0.05, 5, 1)),
        ("workers=4", lossy_cfg(0.05, 5, 4)),
    ] {
        let out = run_with(cfg);
        assert_accounted(&out, label);
        assert_eq!(
            out.coverage.total_gave_up(),
            0,
            "{label}: 5 attempts must outlast 5% drop on this world"
        );
        assert!(
            out.coverage.retried_answered > 0,
            "{label}: loss must actually exercise the retry path"
        );
        assert_eq!(
            signature(&out),
            sig,
            "{label}: recovered run must match the reliable hash"
        );
    }
}

#[test]
fn batch_and_stream_see_identical_coverage_under_loss() {
    // Same seed, same fault lottery (per-flow scheduling), same retry
    // policy: one worker on one shard and four workers on four shards must
    // agree probe for probe.
    let one = run_with(lossy_cfg(0.05, 3, 1));
    let four = run_with(lossy_cfg(0.05, 3, 4).with_shards(4));
    assert_eq!(one.coverage, four.coverage);
    assert_eq!(signature(&one), signature(&four));
}

#[test]
fn adaptive_timeouts_never_trade_recall_for_speed_under_loss() {
    // RTT-derived timeouts change how long a lost attempt costs, not
    // whether it is retried: at every drop rate the adaptive run must
    // reproduce the fixed run probe for probe (same classified hash, same
    // coverage buckets, so recall and give-ups are exactly equal) while
    // spending strictly less simulated time whenever loss makes the fixed
    // policy wait out its full timeout.
    for drop in [0.0, 0.01, 0.05] {
        let fixed = run_with(lossy_cfg(drop, 3, 1));
        let adaptive = run_with(lossy_cfg(drop, 3, 1).with_adaptive());
        let label = format!("drop={drop}");
        assert_accounted(&adaptive, &label);
        assert_eq!(
            signature(&adaptive),
            signature(&fixed),
            "{label}: adaptive diverged from fixed"
        );
        assert_eq!(
            adaptive.coverage, fixed.coverage,
            "{label}: adaptive moved the probe accounting"
        );
        assert!(
            adaptive.coverage.total_gave_up() <= fixed.coverage.total_gave_up(),
            "{label}: adaptive gave up more probes"
        );
        if drop > 0.0 {
            assert!(
                adaptive.scan_elapsed < fixed.scan_elapsed,
                "{label}: adaptive lost to fixed in simulated time ({:?} vs {:?})",
                adaptive.scan_elapsed,
                fixed.scan_elapsed
            );
        }
    }
}

#[test]
fn heavy_loss_quarantines_nothing_on_healthy_servers() {
    // 20% drop with one attempt fails ~36% of probes, but failures are
    // spread across servers; the consecutive-failure breaker must not
    // quarantine servers that do answer.
    let out = run_with(lossy_cfg(0.2, 1, 1));
    assert_accounted(&out, "heavy loss");
    assert!(out.coverage.gave_up > 0);
    // Any quarantine must be visible in the report, not silent.
    assert_eq!(
        out.coverage.skipped_quarantined > 0,
        !out.coverage.quarantined_servers.is_empty()
    );
}

/// The full matrix from the issue: drop {0, 0.01, 0.05, 0.2} × attempts
/// {1, 3, 5} × workers {1, 4}, plus an adaptive twin of every
/// default-budget cell. Expensive (32 full pipeline runs), so ignored by
/// default; ci.sh runs it in release.
#[test]
#[ignore = "32 full pipeline runs; ci.sh executes this in release"]
fn full_fault_matrix() {
    let reliable = run_with(HunterConfig::fast());
    let sig = signature(&reliable);
    for drop in [0.0, 0.01, 0.05, 0.2] {
        for attempts in [1u32, 3, 5] {
            for workers in [1usize, 4] {
                let label = format!("drop={drop} attempts={attempts} workers={workers}");
                let out = run_with(lossy_cfg(drop, attempts, workers));
                assert_accounted(&out, &label);
                if drop == 0.0 {
                    assert_eq!(signature(&out), sig, "{label}: reliable must match");
                    assert_eq!(out.coverage.total_gave_up(), 0, "{label}");
                } else if out.coverage.total_gave_up() == 0 {
                    // (a) when retries sufficed, the reliable hash is
                    // recovered exactly;
                    assert_eq!(signature(&out), sig, "{label}: full recovery must match");
                } else {
                    // (b) when they didn't, every give-up is accounted for
                    // (already asserted) and the run still classifies what
                    // it did collect.
                    assert!(out.report.totals.total > 0, "{label}: collected nothing");
                }
                // Adaptive rows at the default retry budget: the derived
                // timeouts must reproduce the fixed cell exactly.
                if attempts == 3 {
                    let adaptive = run_with(lossy_cfg(drop, attempts, workers).with_adaptive());
                    assert_accounted(&adaptive, &format!("{label} adaptive"));
                    assert_eq!(
                        signature(&adaptive),
                        signature(&out),
                        "{label}: adaptive cell diverged from fixed"
                    );
                    assert_eq!(
                        adaptive.coverage, out.coverage,
                        "{label}: adaptive cell moved the accounting"
                    );
                }
            }
        }
    }
}
