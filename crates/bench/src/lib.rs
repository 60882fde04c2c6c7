//! Shared helpers for the table/figure regeneration binaries, and the
//! exact invariants behind `BENCH_pipeline.json` ([`invariants`]).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod invariants;

use urhunter::{run, HunterConfig, RunOutput};
use worldgen::{World, WorldConfig};

/// Paper reference values, quoted in each regeneration binary next to the
/// measured numbers so the shape comparison is explicit.
pub mod paper {
    /// Fraction of suspicious URs confirmed malicious (Table 1 Total row).
    pub const MALICIOUS_SHARE: f64 = 0.2541;
    /// Fraction of top-2K domains with malicious URs.
    pub const DOMAIN_SHARE: f64 = 0.6848;
    /// Fig. 3a: vendor-label only / IDS only / both (percent).
    pub const FIG3A: [(&str, f64); 3] =
        [("vendor-only", 34.20), ("ids-only", 36.62), ("both", 29.18)];
    /// Fig. 3b buckets (percent).
    pub const FIG3B: [(&str, f64); 4] =
        [("1-2", 77.90), ("3-4", 16.31), ("5-6", 2.01), ("7+", 3.78)];
    /// Fig. 3c alert categories (percent).
    pub const FIG3C: [(&str, f64); 5] = [
        ("Trojan Activity", 41.67),
        ("Other", 23.86),
        ("Privacy Violation", 21.19),
        ("C&C Activity", 10.82),
        ("Bad Traffic", 2.46),
    ];
    /// Fig. 3d tag prevalences (percent; multi-tag, sums past 100).
    pub const FIG3D: [(&str, f64); 6] = [
        ("Trojan", 89.01),
        ("Scanner", 41.01),
        ("Other", 33.33),
        ("Malware", 19.11),
        ("C&C", 16.25),
        ("Botnet", 10.23),
    ];
    /// Email-related share of malicious TXT URs.
    pub const TXT_EMAIL_SHARE: f64 = 0.9095;
}

/// Generate the default experiment world and run the full pipeline.
pub fn experiment_run() -> (World, RunOutput) {
    let mut world = World::generate(WorldConfig::default_scale());
    let out = run(&mut world, &HunterConfig::fast());
    (world, out)
}

/// Print a `measured vs paper` comparison line.
pub fn compare(label: &str, measured: f64, paper: f64) {
    println!("  {label:<18} measured {measured:>7.2}%   paper {paper:>7.2}%");
}
