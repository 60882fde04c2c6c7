//! `pipeline_hash` — print the pinned determinism digests for one preset.
//!
//! Runs the pipeline at shards {1, 4} and prints one JSON line per shard
//! count with the three pinned invariants: `classified_sequence_hash`
//! (order-sensitive per-UR digest), the [`CoverageReport`] fields, and the
//! observability registry's `sim_hash`. Both lines must agree on every
//! field but `shards` — and the whole output must be byte-stable across
//! refactors (the `"executor": "batch"` label dates from when there was a
//! second executor; it stays so a line can be compared byte for byte with
//! one printed by any earlier commit).
//!
//! ```text
//! pipeline_hash [small|medium]
//! ```
//!
//! [`CoverageReport`]: urhunter::CoverageReport

use urhunter::{classified_sequence_hash, run, CoverageReport, HunterConfig};
use worldgen::{World, WorldConfig};

fn coverage_json(c: &CoverageReport) -> String {
    format!(
        "{{\"scheduled\": {}, \"answered\": {}, \"retried_answered\": {}, \
         \"gave_up\": {}, \"skipped_quarantined\": {}, \"retransmissions\": {}, \
         \"quarantined\": {}}}",
        c.scheduled,
        c.answered,
        c.retried_answered,
        c.gave_up,
        c.skipped_quarantined,
        c.retransmissions,
        c.quarantined_servers.len()
    )
}

fn main() {
    let preset = std::env::args().nth(1).unwrap_or_else(|| "medium".into());
    let config = match preset.as_str() {
        "small" => WorldConfig::small(),
        "medium" => WorldConfig::medium(),
        other => {
            eprintln!("pipeline_hash: unknown preset {other:?} (small|medium)");
            std::process::exit(2);
        }
    };
    for shards in [1usize, 4] {
        let hub = obs::Obs::shared();
        let cfg = HunterConfig::fast()
            .with_shards(shards)
            .with_obs(hub.clone());
        let mut world = World::generate(config.clone());
        let out = run(&mut world, &cfg);
        println!(
            "{{\"preset\": \"{preset}\", \"executor\": \"batch\", \"shards\": {shards}, \
             \"classified_sequence_hash\": {}, \"urs\": {}, \"coverage\": {}, \
             \"sim_hash\": {}}}",
            classified_sequence_hash(&out.classified),
            out.classified.len(),
            coverage_json(&out.coverage),
            hub.registry().sim_hash(),
        );
    }
}
