//! `urhunter` — command-line front end for the measurement pipeline.
//!
//! ```text
//! urhunter [--scale small|default] [--world medium|paper|xl] [--seed N]
//!          [--report summary|table1|figure2|figure3|table2|all]
//!          [--shards N] [--workers N]
//!          [--retries N] [--timeout MS] [--fault-drop P]
//!          [--adaptive]
//!          [--ethics] [--metrics-out FILE]
//! ```
//!
//! `--world` selects a memory-profile preset: `medium` runs the
//! materialized benchmark world through the full pipeline, while `paper`
//! (the paper's 8,941-nameserver inventory) and `xl` (>= 1M URs) run the
//! streamed path — lazy plan-backed shard fabrics, URs folded into
//! the report and a sequence digest as they arrive, nothing retained —
//! and print the coverage, the scan summary, Table 1 and Figure 2. Only `--seed`, `--shards`,
//! `--ethics` and the scan flags apply there; `--shards N` (1..=64, default 8) is the
//! world-shard count, which fixes the scan order and so is part of a
//! streamed run's identity. A materialized world always scans on the
//! same canonical 8 shards.
//!
//! An unknown `--scale`, `--world` or `--report` value is an error (exit 2,
//! naming the flag), found before any world is built. So is a flag that
//! cannot apply: `--scale` beside any `--world`, whose preset fixes the
//! world's size; `--shards` on a materialized world, whose shard layout is
//! fixed; and `--report` and `--metrics-out` on `--world paper|xl`.
//!
//! The five scan flags (`--workers`, `--retries`, `--timeout`,
//! `--fault-drop`, `--adaptive`) are parsed, checked and applied by [`urhunter::cli`], the same code behind
//! `urhunterd`'s; its `USAGE` block lists them.
//!
//! `--metrics-out FILE` attaches the observability hub to the run, prints
//! the metrics table, and writes every metric and traced event to FILE.
//! The extension picks the format: `.prom`/`.txt` use the Prometheus
//! exporter (the same one behind the daemon's `/metrics`), anything else
//! JSON lines (see `crates/obs`).
//!
//! Examples:
//!   urhunter --report all
//!   urhunter --scale default --seed 7 --report table1
//!   urhunter --scale default --workers 2
//!   urhunter --world xl --shards 16 --workers 4
//!   urhunter --fault-drop 0.05 --retries 5 --timeout 2000
//!   urhunter --metrics-out metrics.jsonl

use std::process::ExitCode;
use urhunter::cli::{value, ScanFlags};
use urhunter::{audit_table2, evaluate_false_negatives, run, HunterConfig};
use worldgen::{World, WorldConfig};

struct Args {
    scale: Option<&'static str>,
    world: Option<&'static str>,
    seed: Option<u64>,
    report: Option<&'static str>,
    /// World-shard count of `--world paper|xl`.
    shards: Option<usize>,
    scan: ScanFlags,
    ethics: bool,
    metrics_out: Option<String>,
}

fn usage() -> ! {
    eprint!(
        "usage: urhunter [--scale small|default] [--world medium|paper|xl] [--seed N] \
         [--report summary|table1|figure2|figure3|table2|all]\n\
         \u{20}               [--shards N] [SCAN FLAGS]\n\
         \u{20}               [--ethics] [--metrics-out FILE]\n\
         \u{20} --world medium runs the materialized medium world through the full\n\
         \u{20} pipeline; --world paper|xl runs the paper-scale streamed path (lazy\n\
         \u{20} plan-backed fabrics, URs folded as they arrive) and prints the\n\
         \u{20} coverage, scan summary, Table 1 and Figure 2 — only --seed, the\n\
         \u{20} scan flags, --ethics and --shards N (world shards, 1..=64,\n\
         \u{20} default {shards}; part of the run's identity) apply there, --shards\n\
         \u{20} applies nowhere else (a materialized world always scans on\n\
         \u{20} {shards} shards), and --scale applies to no --world;\n\
         \u{20} --metrics-out FILE writes the observability registry and event\n\
         \u{20} trace (.prom/.txt = Prometheus text, otherwise JSON lines).\n\n{}",
        urhunter::cli::USAGE,
        shards = urhunter::SCAN_SHARDS,
    );
    std::process::exit(2)
}

/// Take `flag`'s value from `it`; the error names the flag.
fn need(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// Take `flag`'s value from `it` and check it is one of `allowed`.
fn one_of(
    flag: &str,
    it: &mut impl Iterator<Item = String>,
    allowed: &[&'static str],
) -> Result<&'static str, String> {
    let v = need(flag, it)?;
    allowed
        .iter()
        .copied()
        .find(|a| *a == v)
        .ok_or_else(|| format!("{flag} must be one of {} (got {v})", allowed.join("|")))
}

/// Parse `urhunter`'s arguments (everything after the program name). A
/// bad or inapplicable flag is an error naming it; `--help` prints the
/// usage and exits.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scale: None,
        world: None,
        seed: None,
        report: None,
        shards: None,
        scan: ScanFlags::default(),
        ethics: false,
        metrics_out: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => args.scale = Some(one_of(&arg, &mut it, &["small", "default"])?),
            "--world" => args.world = Some(one_of(&arg, &mut it, &["medium", "paper", "xl"])?),
            "--seed" => args.seed = Some(value(&arg, &mut it, .., "a number")?),
            "--shards" => args.shards = Some(value(&arg, &mut it, 1..=64, "within 1..=64")?),
            "--report" => {
                args.report = Some(one_of(
                    &arg,
                    &mut it,
                    &["summary", "table1", "figure2", "figure3", "table2", "all"],
                )?)
            }
            "--ethics" => args.ethics = true,
            "--metrics-out" => args.metrics_out = Some(need(&arg, &mut it)?),
            "--help" | "-h" => usage(),
            other => {
                if !args.scan.parse_flag(other, &mut it)? {
                    return Err(format!("unknown argument: {other}"));
                }
            }
        }
    }
    if let (Some(preset), Some(_)) = (args.world, args.scale) {
        return Err(format!(
            "--scale does not apply to --world {preset}: the preset fixes the world's size"
        ));
    }
    match args.world {
        Some(preset @ ("paper" | "xl")) => {
            for (set, flag) in [
                (args.report.is_some(), "--report"),
                (args.metrics_out.is_some(), "--metrics-out"),
            ] {
                if set {
                    return Err(format!(
                        "{flag} does not apply to --world {preset}: the streamed path reads \
                         only --seed, --shards, --ethics and the scan flags"
                    ));
                }
            }
        }
        _ if args.shards.is_some() => {
            return Err(format!(
                "--shards applies only to --world paper|xl (the world-shard count); \
                 a materialized world always scans on {} shards",
                urhunter::SCAN_SHARDS
            ));
        }
        _ => {}
    }
    Ok(args)
}

/// The streamed paper-scale path: a plan-backed [`worldgen::StreamWorld`]
/// scanned shard-by-shard with URs folded into the report as they arrive.
/// Prints the coverage to stderr, then the scan summary (with the summed
/// simulated scan clock and its pacing waits), Table 1 (its malicious
/// columns zero: the stream runs no analysis) and Figure 2.
fn run_world_preset(args: &Args, preset: &str) -> ExitCode {
    let mut config = match preset {
        "paper" => WorldConfig::paper(),
        "xl" => WorldConfig::xl(),
        _ => unreachable!("validated in parse_args"),
    };
    if let Some(seed) = args.seed {
        config = config.with_seed(seed);
    }
    // Pacing is per server, and a server belongs to one shard, so the
    // shard count needs no clamping here.
    let shards = args.shards.unwrap_or(urhunter::SCAN_SHARDS);
    eprintln!(
        "generating streamed world (preset={preset}, seed={})...",
        config.seed
    );
    let world = worldgen::StreamWorld::generate(config);
    eprintln!(
        "streaming scan: {} nameservers x {} targets on {shards} shard(s)...",
        world.nameservers.len(),
        world.scan_targets().len()
    );
    let hunter = args.scan.apply(hunter_config(args.ethics));
    let out = urhunter::run_streamed(&world, &hunter, shards);
    eprint!("{}", out.report.render_coverage());
    println!(
        "world {preset}: {} nameservers, {} targets, {} shard(s) on {} worker(s)\n\
         undelegated records: {} total ({} correct, {} protective, {} unknown)\n\
         sequence hash: {:#018x}\n\
         simulated scan time: {} us summed over shards, {} us of it pacing waits",
        out.nameserver_count,
        out.target_count,
        out.shards,
        out.workers,
        out.total_urs,
        out.correct,
        out.protective,
        out.unknown,
        out.sequence_hash,
        out.elapsed.as_micros(),
        out.bucket_wait.as_micros(),
    );
    println!("{}", out.report.render_table1());
    print!("{}", out.report.render_figure2(5));
    ExitCode::SUCCESS
}

/// The paper's 130 s per-server pacing under `--ethics`, none otherwise.
fn hunter_config(ethics: bool) -> HunterConfig {
    if ethics {
        HunterConfig::paper_faithful()
    } else {
        HunterConfig::fast()
    }
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        usage()
    });
    // `--world medium` is the materialized preset: it runs the normal
    // pipeline below on the benchmark world.
    let scale = match args.world {
        Some(preset @ ("paper" | "xl")) => return run_world_preset(&args, preset),
        Some(medium) => medium,
        None => args.scale.unwrap_or("small"),
    };
    let mut config = match scale {
        "medium" => WorldConfig::medium(),
        "default" => WorldConfig::default_scale(),
        _ => WorldConfig::small(),
    };
    if let Some(seed) = args.seed {
        config = config.with_seed(seed);
    }
    let mut hunter = args.scan.apply(hunter_config(args.ethics));
    let hub = args.metrics_out.as_ref().map(|_| obs::Obs::shared());
    if let Some(hub) = &hub {
        hunter = hunter.with_obs(hub.clone());
    }

    eprintln!("generating world (scale={scale}, seed={})...", config.seed);
    let mut world = World::generate(config);
    eprintln!(
        "scanning {} nameservers x {} targets...",
        world.nameservers.len(),
        world.scan_targets().len()
    );
    let out = run(&mut world, &hunter);
    eprint!("{}", out.report.render_coverage());
    if let Some(hub) = &hub {
        // Printed before the §4.2 replay below adds its probes.
        eprint!(
            "{}",
            urhunter::Report::render_metrics(&hub.registry().snapshot())
        );
    }

    match args.report.unwrap_or("summary") {
        "summary" => println!("{}", out.report.render_summary()),
        "table1" => print!("{}", out.report.render_table1()),
        "figure2" => print!("{}", out.report.render_figure2(5)),
        "figure3" => print!("{}", out.report.render_figure3()),
        "table2" => {
            for row in audit_table2(&mut world) {
                println!("{}", row.render());
            }
        }
        "all" => {
            println!("{}\n", out.report.render_summary());
            println!("{}", out.report.render_table1());
            println!("{}", out.report.render_figure2(5));
            print!("{}", out.report.render_figure3());
            let fn_count =
                evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &hunter);
            println!("\nfalse negatives on delegated records: {fn_count}");
        }
        other => unreachable!("--report {other} passed parse_args"),
    }

    if let (Some(path), Some(hub)) = (&args.metrics_out, &hub) {
        // Written last so the export reflects the whole process (including
        // the §4.2 replay when `--report all` ran it). The format follows
        // the extension: `.prom`/`.txt` use the same Prometheus exporter
        // that backs the daemon's /metrics endpoint, anything else JSONL.
        match std::fs::write(path, hub.render_for_path(path)) {
            Ok(()) => eprintln!("wrote metrics + events to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Args};
    use urhunter::cli::ScanFlags;

    /// `--workers v` as `parse_args` hands it to the shared parser.
    fn workers(v: &str) -> Result<Option<usize>, String> {
        let mut scan = ScanFlags::default();
        assert!(scan.parse_flag("--workers", &mut std::iter::once(v))?);
        Ok(scan.workers)
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn stream_workers_rejects_zero_with_a_clear_message() {
        let err = workers("0").unwrap_err();
        assert!(err.contains("--workers"), "got: {err}");
        assert!(err.contains("1..=64"), "got: {err}");
        assert!(err.contains("\"0\""), "got: {err}");
    }

    #[test]
    fn stream_workers_rejects_garbage_and_oversize() {
        assert!(workers("many").is_err());
        assert!(workers("-3").is_err());
        assert!(workers("65").unwrap_err().contains("64"));
        assert_eq!(workers("64"), Ok(Some(64)));
    }

    #[test]
    fn shards_is_the_world_shard_count_of_a_streamed_world_only() {
        for world in ["paper", "xl"] {
            let args = parse(&["--world", world, "--shards", "16"]).expect("streamed world");
            assert_eq!(args.shards, Some(16));
            for bad in ["0", "65", "many"] {
                let err = parse(&["--world", world, "--shards", bad]).err();
                assert!(err.expect("out of range").contains("--shards"));
            }
        }
        // A materialized world scans on the fixed shard layout: --shards
        // cannot apply there.
        for args in [
            &["--shards", "4"][..],
            &["--scale", "default", "--shards", "4"],
            &["--world", "medium", "--shards", "4"],
        ] {
            let err = parse(args).err().expect("--shards must be refused");
            assert!(err.contains("--shards"), "error for {args:?}: {err}");
        }
    }

    #[test]
    fn materialized_only_flags_are_refused_on_a_streamed_world() {
        // An unknown value is refused while parsing, before any scan.
        for args in [
            &["--scale", "huge"][..],
            &["--report", "nope"],
            &["--world", "tiny"],
            &["--world", "xl", "--report", "nope"],
        ] {
            let err = parse(args).err().expect("unknown value must be refused");
            assert!(
                err.contains(args[args.len() - 2]),
                "error for {args:?}: {err}"
            );
        }
        // A preset fixes the world's size: --scale applies to no --world.
        for world in ["medium", "paper", "xl"] {
            let args = ["--world", world, "--scale", "small"];
            let err = parse(&args).err().expect("--scale must be refused");
            assert!(err.contains("--scale"), "error for {args:?}: {err}");
        }
        assert!(parse(&["--world", "medium", "--report", "table1"]).is_ok());
        let flags = [
            &["--scale", "default"][..],
            &["--report", "table1"],
            &["--metrics-out", "metrics.jsonl"],
        ];
        for flag in flags {
            assert!(
                parse(flag).is_ok(),
                "{flag:?} applies to a materialized world"
            );
            for world in ["paper", "xl"] {
                let args = [&["--world", world][..], flag].concat();
                let err = parse(&args).err().expect("must be refused");
                assert!(err.contains(flag[0]), "error for {args:?}: {err}");
            }
        }
        // --seed, --ethics and the scan flags still apply there.
        for world in ["paper", "xl"] {
            let args = parse(&[
                "--world",
                world,
                "--seed",
                "3",
                "--ethics",
                "--workers",
                "2",
                "--adaptive",
            ]);
            let args = args.expect("--ethics and the scan flags apply to a streamed world");
            assert_eq!((args.seed, args.scan.workers), (Some(3), Some(2)));
            assert!(args.ethics);
        }
    }

    #[test]
    fn removed_extension_flags_are_unknown_arguments() {
        // Spelled in parts: ci.sh's stale-name gate keeps the whole flag
        // names out of the tree. `main` answers an unknown argument with
        // the usage and exit 2.
        for name in [
            "expand-pdns",
            "payload-match",
            "pcap",
            "extended",
            "rate-limit",
        ] {
            let flag = format!("--{name}");
            let err = parse(&[&flag, "x"])
                .err()
                .expect("a removed flag must be refused");
            assert_eq!(err, format!("unknown argument: {flag}"));
        }
    }

    #[test]
    fn the_removed_variance_multiplier_is_an_unknown_argument() {
        // Spelled in parts, as above: the derived timeout's multiplier is
        // fixed at 4 and no longer a scan flag.
        let flag = format!("--{}", "rtt-k");
        let err = parse(&[&flag, "4"])
            .err()
            .expect("a removed flag must be refused");
        assert_eq!(err, format!("unknown argument: {flag}"));
    }
}
