//! The parallel streamed scan must be invisible in the results: for every
//! `workers` count the folded output — sequence digest, full probe
//! coverage, category counters, summed sim time, and the deterministic
//! (sim-class) metrics hash — is bit-identical to the sequential fold at
//! the same `world_shards`, with and without injected loss, and with the
//! global rate cap engaged. Workers may only change wall-clock time and
//! peak memory, never the measurement.

use simnet::{FaultPlan, SimDuration};
use std::sync::Arc;
use urhunter::{run_streamed, CoverageReport, HunterConfig, QueryPlan, StreamRunOutput};
use worldgen::WorldConfig;

/// The smallest world that still exercises the streamed path end to end:
/// plan-backed shard fabrics, every UR category populated.
fn tiny() -> WorldConfig {
    let mut cfg = WorldConfig::xl();
    cfg.top_domains = 50;
    cfg.synthetic_providers = 8;
    cfg.attack_campaigns = 200;
    cfg.total_nameservers = Some(32);
    cfg
}

fn observed_run(cfg: HunterConfig, shards: usize) -> (StreamRunOutput, Arc<obs::Obs>) {
    let hub = obs::Obs::shared();
    let world = worldgen::StreamWorld::generate(tiny());
    let out = run_streamed(&world, &cfg.with_obs(hub.clone()), shards);
    (out, hub)
}

/// Everything the worker-invariance contract covers.
fn signature(out: &StreamRunOutput, hub: &obs::Obs) -> (u64, CoverageReport, [u64; 4], u64, u64) {
    (
        out.sequence_hash,
        out.coverage.clone(),
        [out.correct, out.protective, out.unknown, out.malicious],
        out.elapsed.as_micros(),
        hub.registry().sim_hash(),
    )
}

#[test]
fn parallel_fold_is_bit_identical_to_sequential() {
    for shards in [2usize, 4, 8] {
        for lossy in [false, true] {
            let cfg = || {
                let base = HunterConfig::fast();
                if lossy {
                    base.with_retry_plan(QueryPlan::with_attempts(3))
                        .with_scan_faults(FaultPlan::lossy(0.01).scheduled_per_flow())
                } else {
                    base
                }
            };
            let (seq, seq_hub) = observed_run(cfg().with_workers(1), shards);
            assert!(seq.total_urs > 0, "sequential scan found no URs");
            assert_eq!(seq.workers, 1);
            let want = signature(&seq, &seq_hub);
            for workers in [2usize, 4] {
                let (par, par_hub) = observed_run(cfg().with_workers(workers), shards);
                assert_eq!(par.workers, workers.min(shards));
                assert_eq!(
                    signature(&par, &par_hub),
                    want,
                    "shards={shards} lossy={lossy} workers={workers} diverged from sequential"
                );
            }
        }
    }
}

#[test]
fn rate_limited_scan_composes_with_shards_and_workers() {
    const PER_SEC: u64 = 50;
    let interval = SimDuration::from_micros(1_000_000 / PER_SEC);
    let shards = 4;
    let cfg = |workers: usize| {
        HunterConfig::fast()
            .with_rate_limit_per_sec(PER_SEC)
            .with_workers(workers)
    };
    let (seq, seq_hub) = observed_run(cfg(1), shards);
    assert!(seq.total_urs > 0, "rate-limited scan found no URs");
    assert!(
        seq.bucket_wait > SimDuration::ZERO,
        "a 2k/s cap never blocked the schedulers"
    );
    // Global spacing: every admission lands ≥ interval after the previous
    // one on the concatenated shard timeline, so the summed sim time grows
    // at least linearly in the probe count even across shard boundaries.
    let floor = (seq.coverage.scheduled - 1) * interval.as_micros();
    assert!(
        seq.elapsed.as_micros() >= floor,
        "elapsed {}us under the global-spacing floor {}us",
        seq.elapsed.as_micros(),
        floor
    );
    let want = signature(&seq, &seq_hub);
    for workers in [2usize, 4] {
        let (par, par_hub) = observed_run(cfg(workers), shards);
        assert_eq!(
            signature(&par, &par_hub),
            want,
            "rate-limited workers={workers} diverged from sequential"
        );
        assert_eq!(par.bucket_wait, seq.bucket_wait);
    }
}

#[test]
fn bufpool_recycling_is_visible_per_run() {
    let (_, hub) = observed_run(HunterConfig::fast().with_workers(2), 4);
    let recycled = hub.registry().counter_value("bufpool_recycled");
    let allocated = hub.registry().counter_value("bufpool_allocated");
    assert!(
        allocated.unwrap_or(0) > 0,
        "a scan never allocated a wire buffer (allocated={allocated:?})"
    );
    assert!(
        recycled.unwrap_or(0) > 0,
        "payload recycling never hit the pool (recycled={recycled:?})"
    );
}
