//! `xl_stream` — drive the streamed paper-scale pipeline and report its
//! memory/throughput envelope.
//!
//! Runs [`run_streamed`] against a plan-backed [`StreamWorld`] twice —
//! once sequentially (`workers = 1`), once with the parallel shard
//! fold — and prints one JSON line: UR population, category split, probe
//! coverage, the order-sensitive sequence digest, sequential and parallel
//! wall-clock throughput (`urs_per_sec`, `urs_per_sec_parallel`), the
//! `scaling` ratio between them, and the process peak RSS (`peak_rss_mb`,
//! from `/proc/self/status` `VmHWM` where available). The two runs must
//! agree bit-for-bit on the sequence digest — the parallel fold is a
//! wall-clock optimization, never a measurement change.
//!
//! ```text
//! xl_stream [xl|paper|smoke] [world_shards] [workers]
//! ```
//!
//! `workers` defaults to `0` = auto (`min(world_shards, cores)`).
//!
//! `smoke` is the CI-sized variant: a scaled-down `xl` config that keeps
//! the whole lazy path honest — plan-backed generation, scoped shard
//! fabrics, fold-style classification — in a couple of seconds, with a
//! hard peak-RSS gate. The full `xl` preset (≥ 1M URs) is gated in
//! `perf_snapshot` instead, where its numbers land in `BENCH_pipeline.json`.

use bench::peak_rss_mb;
use urhunter::{run_streamed, HunterConfig};
use worldgen::{StreamWorld, WorldConfig};

fn smoke_config() -> WorldConfig {
    let mut cfg = WorldConfig::xl();
    cfg.top_domains = 300;
    cfg.synthetic_providers = 24;
    cfg.attack_campaigns = 4_000;
    cfg.total_nameservers = Some(120);
    cfg
}

fn main() {
    let preset = std::env::args().nth(1).unwrap_or_else(|| "smoke".into());
    let shards: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("world_shards must be a number"))
        .unwrap_or(8);
    let workers_knob: usize = std::env::args()
        .nth(3)
        .map(|s| s.parse().expect("workers must be a number (0 = auto)"))
        .unwrap_or(0);
    let config = match preset.as_str() {
        "xl" => WorldConfig::xl(),
        "paper" => WorldConfig::paper(),
        "smoke" => smoke_config(),
        other => {
            eprintln!("xl_stream: unknown preset {other:?} (xl|paper|smoke)");
            std::process::exit(2);
        }
    };
    let gen_start = std::time::Instant::now();
    let world = StreamWorld::generate(config);
    let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
    let base = || HunterConfig::fast().with_keep_raw_collected(false);

    let start = std::time::Instant::now();
    let seq = run_streamed(&world, &base().with_workers(1), shards);
    let seq_secs = start.elapsed().as_secs_f64();
    let urs_per_sec = seq.total_urs as f64 / seq_secs.max(1e-9);

    let start = std::time::Instant::now();
    let par = run_streamed(&world, &base().with_workers(workers_knob), shards);
    let par_secs = start.elapsed().as_secs_f64();
    let urs_per_sec_parallel = par.total_urs as f64 / par_secs.max(1e-9);
    let scaling = urs_per_sec_parallel / urs_per_sec.max(1e-9);

    let rss = peak_rss_mb();
    println!(
        "{{\"preset\": \"{preset}\", \"world_shards\": {}, \"workers\": {}, \
         \"nameservers\": {}, \
         \"targets\": {}, \"urs\": {}, \"correct\": {}, \"protective\": {}, \
         \"unknown\": {}, \"scheduled\": {}, \"answered\": {}, \
         \"sequence_hash\": {}, \"gen_ms\": {gen_ms:.1}, \"scan_secs\": {seq_secs:.2}, \
         \"scan_secs_parallel\": {par_secs:.2}, \"urs_per_sec\": {urs_per_sec:.0}, \
         \"urs_per_sec_parallel\": {urs_per_sec_parallel:.0}, \"scaling\": {scaling:.2}, \
         \"peak_rss_mb\": {rss}}}",
        seq.shards,
        par.workers,
        seq.nameserver_count,
        seq.target_count,
        seq.total_urs,
        seq.correct,
        seq.protective,
        seq.unknown,
        seq.coverage.scheduled,
        seq.coverage.answered,
        seq.sequence_hash,
    );
    // The parallel fold must be invisible in the output: same digest, same
    // coverage, same category split as the sequential scan.
    assert_eq!(
        seq.sequence_hash, par.sequence_hash,
        "parallel fold diverged from sequential (workers={})",
        par.workers
    );
    assert_eq!(seq.coverage, par.coverage);
    assert_eq!(
        (seq.correct, seq.protective, seq.unknown),
        (par.correct, par.protective, par.unknown)
    );
    // Sanity gates shared by every preset: the scan must produce URs in
    // every classification bucket and answer everything it scheduled.
    assert!(seq.total_urs > 0, "streamed scan produced no URs");
    assert!(seq.correct > 0 && seq.protective > 0 && seq.unknown > 0);
    assert_eq!(seq.coverage.scheduled, seq.coverage.answered);
    // Memory gates: the whole point of the lazy path. The smoke world must
    // stay within a CI-friendly budget; the big presets within a
    // workstation one (tuned from measured peaks with ~40% headroom).
    let budget_mb = match preset.as_str() {
        "smoke" => 700,
        _ => 4096,
    };
    assert!(
        rss <= budget_mb,
        "peak RSS {rss} MiB exceeds {budget_mb} MiB budget for {preset}"
    );
    if preset == "xl" {
        assert!(
            seq.total_urs >= 1_000_000,
            "xl preset must produce at least 1M URs, got {}",
            seq.total_urs
        );
    }
}
