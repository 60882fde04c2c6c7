//! The exact invariants of the pipeline — the whole of
//! `BENCH_pipeline.json`.
//!
//! Everything here repeats bit for bit on any host and at any thread
//! count: sequence hashes, the registry's `sim_hash`, UR counts and
//! splits, probe accounting, datagram counts, simulated microseconds
//! (every duration is suffixed `_sim_us`), daemon event counts and seals.
//! No clock and no procfs file is read; wall time and RSS are `urbench`'s
//! to report. `ci.sh` regenerates the file with the `invariants` binary and
//! `diff`s it against the committed copy, and `tests/golden.rs` holds the
//! `small` block to it under `cargo test`.
//!
//! Each block is rendered once, after every configuration axis that must
//! not move it has been run and compared.

use simnet::{FaultPlan, NetStats, SimDuration};
use urhunter::{classified_sequence_hash, run, run_streamed, CoverageReport, HunterConfig, Totals};
use urhunterd::{DriverConfig, EpochDriver, LiveState, WorldScale};
use worldgen::{StreamWorld, World, WorldConfig};

/// What no execution axis may move on one materialized world.
#[derive(Debug, PartialEq)]
struct Pinned {
    sequence_hash: u64,
    totals: Totals,
    coverage: CoverageReport,
    scan_elapsed: SimDuration,
    bucket_wait: SimDuration,
    net: NetStats,
}

fn pinned(config: &WorldConfig, cfg: &HunterConfig) -> Pinned {
    let mut world = World::generate(config.clone());
    let out = run(&mut world, cfg);
    Pinned {
        sequence_hash: classified_sequence_hash(&out.classified),
        totals: out.report.totals,
        coverage: out.coverage,
        scan_elapsed: out.scan_elapsed,
        bucket_wait: out.bucket_wait,
        net: world.net.stats(),
    }
}

fn coverage_json(c: &CoverageReport) -> String {
    let quarantined: Vec<String> = c
        .quarantined_servers
        .iter()
        .map(|ip| format!("\"{ip}\""))
        .collect();
    format!(
        "{{ \"scheduled\": {}, \"answered\": {}, \"retried_answered\": {}, \"gave_up\": {}, \
         \"skipped_quarantined\": {}, \"retransmissions\": {}, \"quarantined_servers\": [{}] }}",
        c.scheduled,
        c.answered,
        c.retried_answered,
        c.gave_up,
        c.skipped_quarantined,
        c.retransmissions,
        quarantined.join(", "),
    )
}

fn split_json<T: std::fmt::Display>(correct: T, protective: T, unknown: T, malicious: T) -> String {
    format!(
        "{{ \"correct\": {correct}, \"protective\": {protective}, \"unknown\": {unknown}, \
         \"malicious\": {malicious} }}"
    )
}

/// Run `config` through `run` at shards {1, 4} × workers {1, 2} × hub
/// {off, on}, hold every run to the first one and every hub run to one
/// `sim_hash`, and render the fields they share. A reliable network
/// answers every probe at the first attempt.
fn eager_fields(config: &WorldConfig) -> (Pinned, String) {
    let mut reference: Option<Pinned> = None;
    let mut sim_hash: Option<u64> = None;
    for shards in [1, 4] {
        for workers in [1, 2] {
            for with_hub in [false, true] {
                let axis = format!("shards {shards} workers {workers} hub {with_hub}");
                let hub = with_hub.then(obs::Obs::shared);
                let mut cfg = HunterConfig::fast()
                    .with_shards(shards)
                    .with_workers(workers);
                if let Some(hub) = &hub {
                    cfg = cfg.with_obs(hub.clone());
                }
                let got = pinned(config, &cfg);
                if let Some(hub) = &hub {
                    let h = hub.registry().sim_hash();
                    assert_eq!(*sim_hash.get_or_insert(h), h, "sim_hash moved at {axis}");
                }
                match &reference {
                    None => reference = Some(got),
                    Some(first) => assert_eq!(first, &got, "the run moved at {axis}"),
                }
            }
        }
    }
    let p = reference.expect("eight runs");
    assert!(
        p.coverage.is_complete(),
        "buckets do not sum to scheduled probes"
    );
    assert_eq!(p.coverage.total_gave_up(), 0, "reliable run gave up probes");
    assert_eq!(p.coverage.retransmissions, 0, "reliable run retransmitted");
    let t = p.totals;
    let fields = format!(
        "    \"world_seed\": {},\n    \"urs\": {},\n    \"split\": {},\n    \
         \"sequence_hash\": {},\n    \"sim_hash\": {},\n    \"coverage\": {},\n    \
         \"scan_sim_us\": {},\n    \"datagrams_sent\": {}",
        config.seed,
        t.total,
        split_json(t.correct, t.protective, t.unknown, t.malicious),
        p.sequence_hash,
        sim_hash.expect("four hub runs"),
        coverage_json(&p.coverage),
        p.scan_elapsed.as_micros(),
        p.net.delivered + p.net.dropped + p.net.no_route,
    );
    (p, fields)
}

/// The `small` block: the test-sized world across every execution axis.
pub fn small() -> String {
    let (_, fields) = eager_fields(&WorldConfig::small());
    format!("  \"small\": {{\n{fields}\n  }}")
}

/// The `medium` block: the same axes on the benchmark world, then the two
/// scheduling policies that may move the simulated clock and nothing else —
/// adaptive timeouts under 5 % per-flow loss, and a global rate cap.
pub fn medium() -> String {
    let config = WorldConfig::medium();
    let (reference, fields) = eager_fields(&config);
    let base = HunterConfig::fast().with_workers(1);

    // Under loss the fixed policy burns the whole plan timeout for every
    // lost first attempt; the adaptive one times out at `srtt + k·rttvar`,
    // floored above the fabric's worst round trip, so the answers are the
    // same and only the simulated clock differs.
    let lossy = base
        .clone()
        .with_scan_faults(FaultPlan::lossy(0.05).scheduled_per_flow());
    let fixed = pinned(&config, &lossy);
    let adaptive = pinned(&config, &lossy.with_adaptive());
    assert_eq!(
        (adaptive.sequence_hash, &adaptive.coverage),
        (fixed.sequence_hash, &fixed.coverage),
        "adaptive scheduling changed the output or the probe accounting under loss"
    );
    assert!(
        adaptive.scan_elapsed < fixed.scan_elapsed,
        "adaptive scheduling did not beat the fixed timeout in simulated time"
    );

    // A cap whose interval exceeds the fabric's worst round trip makes
    // every probe wait: pacing moves the simulated clock, never the answers.
    let paced = pinned(&config, &base.with_rate_limit_per_sec(2));
    assert_eq!(
        paced.sequence_hash, reference.sequence_hash,
        "the rate cap changed the output"
    );
    assert!(
        paced.bucket_wait > SimDuration::ZERO,
        "a cap below the probe rate waited for nothing"
    );

    format!(
        "  \"medium\": {{\n{fields},\n    \"lossy_5pct\": {{ \"gave_up\": {}, \
         \"fixed_scan_sim_us\": {}, \"adaptive_scan_sim_us\": {} }},\n    \
         \"rate_limit_2_per_s\": {{ \"bucket_wait_sim_us\": {} }}\n  }}",
        fixed.coverage.total_gave_up(),
        fixed.scan_elapsed.as_micros(),
        adaptive.scan_elapsed.as_micros(),
        paced.bucket_wait.as_micros(),
    )
}

/// The `xl` block: the streamed paper-scale preset (≥ 1 M URs) folded by
/// one scan worker and by four.
pub fn xl() -> String {
    const WORLD_SHARDS: usize = 8;
    let config = WorldConfig::xl();
    let seed = config.seed;
    let world = StreamWorld::generate(config);
    let cfg = HunterConfig::fast();
    let seq = run_streamed(&world, &cfg.clone().with_workers(1), WORLD_SHARDS);
    let par = run_streamed(&world, &cfg.with_workers(4), WORLD_SHARDS);
    assert_eq!(
        (
            seq.sequence_hash,
            &seq.coverage,
            seq.elapsed,
            [seq.correct, seq.protective, seq.unknown, seq.malicious]
        ),
        (
            par.sequence_hash,
            &par.coverage,
            par.elapsed,
            [par.correct, par.protective, par.unknown, par.malicious]
        ),
        "the four-worker fold diverged from the one-worker fold"
    );
    assert!(
        seq.total_urs >= 1_000_000,
        "xl must produce at least 1M URs, got {}",
        seq.total_urs
    );
    assert_eq!(seq.coverage.scheduled, seq.coverage.answered);
    assert!(seq.correct > 0 && seq.protective > 0 && seq.unknown > 0);
    format!(
        "  \"xl\": {{\n    \"world_seed\": {seed},\n    \"world_shards\": {WORLD_SHARDS},\n    \
         \"nameservers\": {},\n    \"targets\": {},\n    \"urs\": {},\n    \"split\": {},\n    \
         \"sequence_hash\": {},\n    \"coverage\": {},\n    \"scan_sim_us\": {}\n  }}",
        seq.nameserver_count,
        seq.target_count,
        seq.total_urs,
        split_json(seq.correct, seq.protective, seq.unknown, seq.malicious),
        seq.sequence_hash,
        coverage_json(&seq.coverage),
        seq.elapsed.as_micros(),
    )
}

/// The `daemon` block: three drifting epochs over the medium world through
/// the real [`EpochDriver`], then a full replay of the log, which must
/// rebuild the live store.
pub fn daemon() -> String {
    let mut cfg = DriverConfig::small();
    cfg.scale = WorldScale::Medium;
    cfg.drift_days = 120;
    cfg.new_campaigns = 50;
    cfg.expire_fraction = 0.3;
    let mut driver = EpochDriver::new(cfg);
    let mut state = LiveState::default();
    let epochs: Vec<String> = (0..3)
        .map(|_| {
            let s = driver.step(&mut state);
            format!(
                "      {{ \"epoch\": {}, \"observed\": {}, \"changed\": {}, \"gone\": {}, \
                 \"classified_hash\": {}, \"verdict_hash\": {}, \"sim_hash\": {}, \
                 \"present\": {} }}",
                s.epoch,
                s.observed,
                s.changed,
                s.gone,
                s.seal.classified_hash,
                s.seal.verdict_hash,
                s.seal.sim_hash,
                s.seal.present,
            )
        })
        .collect();
    let replayed = state
        .log
        .verify_replay()
        .expect("the log replays to its sealed hashes");
    assert_eq!(replayed.verdict_hash(), state.store.verdict_hash());
    format!(
        "  \"daemon\": {{\n    \"world_seed\": {},\n    \"epochs\": [\n{}\n    ],\n    \
         \"events_total\": {},\n    \"store_total\": {},\n    \"store_present\": {},\n    \
         \"verdict_hash\": {},\n    \"replay_ok\": true\n  }}",
        WorldScale::Medium.config().seed,
        epochs.join(",\n"),
        state.log.event_count(),
        state.store.len(),
        state.store.present_len(),
        state.store.verdict_hash(),
    )
}

/// The whole file from its blocks, in the order given.
pub fn document(blocks: &[String]) -> String {
    format!(
        "{{\n  \"schema\": 2,\n  \"scheduler_seed\": {},\n{}\n}}\n",
        HunterConfig::fast().scheduler_seed,
        blocks.join(",\n")
    )
}
