//! The adaptive scheduling layer must be invisible in the measurement:
//! RTT-derived timeouts, RTT-ordered selection, and token-bucket pacing may
//! only change *when* the simulated scanner transmits — never what it
//! collects, how the probes are accounted, or any sim-class metric. This
//! suite pins that contract from three sides:
//!
//! * adaptive runs are bit-identical to each other across worker counts,
//!   shard counts, and repeats (classified hash, coverage, obs `sim_hash`);
//! * an adaptive run is bit-identical to the fixed-timeout run on the same
//!   world — with and without injected loss — while simulated elapsed time
//!   only shrinks;
//! * under a global rate cap, the fabric's own flow log never shows two
//!   scanner transmissions closer together than the configured interval.

use simnet::{FaultPlan, SimDuration};
use urhunter::{
    classified_sequence_hash, run, select_nameservers, CollectConfig, CoverageReport, HunterConfig,
    ProbeEngine, QueryPlan, QueryScheduler, RunOutput,
};
use worldgen::{World, WorldConfig};

/// Everything the equivalence contract covers, plus the obs registry's
/// deterministic metrics hash and the run's simulated scan time.
struct Observed {
    hash: u64,
    totals: urhunter::Totals,
    evidence: usize,
    table1: String,
    coverage: CoverageReport,
    sim_hash: u64,
    scan_elapsed: SimDuration,
    bucket_wait: SimDuration,
}

fn observe(cfg: HunterConfig) -> Observed {
    let mut world = World::generate(WorldConfig::small());
    let hub = obs::Obs::shared();
    let out: RunOutput = run(&mut world, &cfg.with_obs(hub.clone()));
    assert!(out.coverage.is_complete(), "coverage must balance");
    Observed {
        hash: classified_sequence_hash(&out.classified),
        totals: out.report.totals,
        evidence: out.analysis.evidence.len(),
        table1: out.report.render_table1(),
        coverage: out.coverage.clone(),
        sim_hash: hub.registry().sim_hash(),
        scan_elapsed: out.scan_elapsed,
        bucket_wait: out.bucket_wait,
    }
}

/// The comparable bundle: everything that must not move between two
/// equivalent runs (simulated elapsed time is deliberately excluded —
/// changing it is the adaptive layer's whole point).
fn signature(o: &Observed) -> (u64, urhunter::Totals, usize, &str, &CoverageReport, u64) {
    (
        o.hash,
        o.totals,
        o.evidence,
        o.table1.as_str(),
        &o.coverage,
        o.sim_hash,
    )
}

#[test]
fn adaptive_runs_are_bit_identical_across_executors_shards_and_repeats() {
    let adaptive = || HunterConfig::fast().with_adaptive();
    let reference = observe(adaptive());
    assert!(reference.totals.total > 0, "adaptive run collected nothing");

    // Repeat with an identical config: no hidden wall-clock or allocator
    // state may leak into the results.
    let repeat = observe(adaptive());
    assert_eq!(
        signature(&repeat),
        signature(&reference),
        "adaptive run is not reproducible"
    );
    assert_eq!(repeat.scan_elapsed, reference.scan_elapsed);

    // On one shard per worker: the reference ran at automatic workers.
    for workers in [1usize, 2, 4] {
        let out = observe(adaptive().with_workers(workers));
        assert_eq!(
            signature(&out),
            signature(&reference),
            "adaptive run diverges at workers={workers}"
        );
        assert_eq!(out.scan_elapsed, reference.scan_elapsed);
    }
}

#[test]
fn adaptive_matches_fixed_bit_for_bit_on_a_reliable_network() {
    let fixed = observe(HunterConfig::fast());
    let adaptive = observe(HunterConfig::fast().with_adaptive());

    // Same answers, same accounting. The obs sim_hash legitimately differs
    // (the timeout-derivation counters record which branch fired), so the
    // comparison here is everything *measured*, not the meta-metrics.
    assert_eq!(adaptive.hash, fixed.hash, "adaptive changed the output");
    assert_eq!(adaptive.totals, fixed.totals);
    assert_eq!(adaptive.evidence, fixed.evidence);
    assert_eq!(adaptive.table1, fixed.table1);
    assert_eq!(adaptive.coverage, fixed.coverage);
    // On a reliable fabric nothing times out, so derived timeouts can only
    // leave the elapsed time alone or shrink health-probe waits.
    assert!(adaptive.scan_elapsed <= fixed.scan_elapsed);
}

#[test]
fn adaptive_matches_fixed_under_loss_and_wins_simulated_time() {
    for drop in [0.01, 0.05] {
        let lossy =
            || HunterConfig::fast().with_scan_faults(FaultPlan::lossy(drop).scheduled_per_flow());
        let fixed = observe(lossy());
        let adaptive = observe(lossy().with_adaptive());
        assert_eq!(
            adaptive.hash, fixed.hash,
            "adaptive diverged from fixed at drop {drop}"
        );
        assert_eq!(
            adaptive.coverage, fixed.coverage,
            "accounting moved at drop {drop}"
        );
        assert_eq!(adaptive.table1, fixed.table1);
        // Every lost first attempt now costs `srtt + k·rttvar` instead of
        // the full fixed timeout, so the win must be real.
        assert!(
            adaptive.scan_elapsed < fixed.scan_elapsed,
            "adaptive lost to fixed at drop {drop}: {:?} vs {:?}",
            adaptive.scan_elapsed,
            fixed.scan_elapsed
        );
    }
}

#[test]
fn adaptive_knobs_are_inert_without_the_adaptive_flag() {
    // `rtt_k` tunes the derived timeout, which only exists under
    // `--adaptive`; setting it alone must change nothing, sim metrics
    // included.
    let default = observe(HunterConfig::fast());
    let tuned = observe(HunterConfig::fast().with_rtt_k(8));
    assert_eq!(signature(&tuned), signature(&default));
    assert_eq!(tuned.scan_elapsed, default.scan_elapsed);
}

#[test]
fn rate_limited_run_is_bit_identical_and_reports_its_waits() {
    let default = observe(HunterConfig::fast());
    // 20 probes/s: the 50 ms interval exceeds most per-pair round trips on
    // the small world, so the scheduler genuinely blocks on the bucket.
    let paced = observe(HunterConfig::fast().with_rate_limit_per_sec(20));
    assert_eq!(paced.hash, default.hash, "pacing changed the output");
    assert_eq!(paced.totals, default.totals);
    assert_eq!(paced.table1, default.table1);
    assert_eq!(paced.coverage, default.coverage);
    assert!(
        paced.bucket_wait > SimDuration::ZERO,
        "a 50 ms global interval never waited — the cap is not wired in"
    );
    assert!(paced.scan_elapsed > default.scan_elapsed);
    assert_eq!(default.bucket_wait, SimDuration::ZERO);
}

/// The pacing contract on the wire itself: with a global token bucket, the
/// fabric's flow log must never show two scanner UDP transmissions admitted
/// closer together than the interval — globally (by reconstructed send
/// time) and per server (delivery spacing, since per-pair latency is
/// constant). Drives the two primitives the contract is about — the
/// scheduler's `admit` and the engine's `query` — over every nameserver ×
/// target pair on the world's own trace-enabled fabric.
#[test]
fn flow_log_never_shows_transmissions_inside_the_interval() {
    for adaptive in [false, true] {
        let interval = SimDuration::from_millis(250);
        let mut world = World::generate(WorldConfig::small());
        let collect_cfg = CollectConfig::default();
        let nameservers = select_nameservers(&world, collect_cfg.min_tail_sites);
        let targets = world.scan_targets();
        let mut plan = QueryPlan::default();
        if adaptive {
            plan = plan.adaptive();
        }
        let mut engine = ProbeEngine::new(plan);
        let mut scheduler =
            QueryScheduler::new(0x5545, SimDuration::ZERO).with_global_interval(interval);
        world.net.trace.set_enabled(true);
        let mut answered = 0usize;
        for (ni, ns) in nameservers.iter().enumerate() {
            for (di, domain) in targets.iter().enumerate() {
                scheduler.admit(&mut world.net, ns.ip);
                let qid =
                    urhunter::QidGen::nth(urhunter::scan_stream(ni, di), dnswire::RecordType::A, 0);
                let reply = engine.query(
                    &mut world.net,
                    collect_cfg.scanner_ip,
                    ns.ip,
                    domain,
                    dnswire::RecordType::A,
                    qid,
                );
                answered += usize::from(reply.is_some());
            }
        }
        assert!(answered > 0, "paced scan got no reply");

        let latency = world.net.latency();
        // Scanner→server UDP datagrams only: TCP fallback legs belong to an
        // already-admitted probe, and replies are the servers' business.
        let probes: Vec<_> = world
            .net
            .trace
            .records()
            .iter()
            .filter(|r| {
                r.src.ip == collect_cfg.scanner_ip
                    && r.dst.port == 53
                    && r.proto == simnet::Proto::Udp
            })
            .collect();
        assert!(probes.len() > 100, "too few probes to exercise the cap");

        // Globally: each record's capture time is its delivery; subtracting
        // the (constant per-pair) one-way delay recovers the send instant.
        let mut sends: Vec<u64> = probes
            .iter()
            .map(|r| r.at.as_micros() - latency.delay(r.src.ip, r.dst.ip).as_micros())
            .collect();
        sends.sort_unstable();
        for pair in sends.windows(2) {
            assert!(
                pair[1] - pair[0] >= interval.as_micros(),
                "two probes admitted {}us apart under a {}us global interval (adaptive={adaptive})",
                pair[1] - pair[0],
                interval.as_micros()
            );
        }

        // Per server: constant latency means delivery spacing equals send
        // spacing, so consecutive deliveries to one server obey the cap too.
        let mut by_server: std::collections::HashMap<std::net::Ipv4Addr, Vec<u64>> =
            std::collections::HashMap::new();
        for r in &probes {
            by_server
                .entry(r.dst.ip)
                .or_default()
                .push(r.at.as_micros());
        }
        for (server, times) in by_server {
            for pair in times.windows(2) {
                assert!(
                    pair[1] - pair[0] >= interval.as_micros(),
                    "server {server} probed {}us apart (adaptive={adaptive})",
                    pair[1] - pair[0]
                );
            }
        }
    }
}
