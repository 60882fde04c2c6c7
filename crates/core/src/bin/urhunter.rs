//! `urhunter` — command-line front end for the measurement pipeline.
//!
//! ```text
//! urhunter [--scale small|default] [--world medium|paper|xl] [--seed N]
//!          [--report summary|table1|figure2|figure3|table2|all]
//!          [--shards N] [--workers N]
//!          [--retries N] [--timeout MS] [--fault-drop P]
//!          [--adaptive] [--rtt-k N] [--rate-limit N]
//!          [--extended] [--expand-pdns] [--payload-match] [--ethics] [--pcap FILE]
//! ```
//!
//! `--world` selects a memory-profile preset: `medium` runs the
//! materialized benchmark world through the full pipeline, while `paper`
//! (the paper's 8,941-nameserver inventory) and `xl` (>= 1M URs) run the
//! streamed path — lazy plan-backed shard fabrics, URs folded into
//! category counters and a sequence digest as they arrive, nothing
//! retained — and print the scan summary (only `--seed`, `--shards`,
//! `--workers` and the probe/rate knobs apply there).
//!
//! Two knobs size the execution, and neither changes a byte of output.
//! `--shards N` splits the bulk scan across N replica fabrics partitioned
//! by nameserver (default 1, or 8 world shards on the streamed path;
//! ignored under `--ethics` and `--rate-limit` on the materialized
//! pipeline, which pace a single scanner clock). `--workers N` is the
//! number of scan workers claiming shards (at most `min(shards, N)` run at
//! once; one worker scans on the calling thread, as does everything
//! downstream of the scan; default: sized from the machine,
//! `URHUNTER_PARALLELISM` override).
//!
//! `--retries N` gives every collection probe N attempts (default 3;
//! 1 = single-shot), `--timeout MS` bounds each attempt, and
//! `--fault-drop P` injects a drop probability P onto the fabric for the
//! collection stages only (per-flow scheduled, so the loss pattern is
//! independent of the retry policy). Probe accounting is printed after
//! every run.
//!
//! `--adaptive` turns on RTT-aware probe scheduling: per-nameserver
//! smoothed RTT estimates derive per-attempt timeouts (`srtt + k * rttvar`,
//! clamped to the plan's fixed timeout) and order each scan round by
//! estimated latency. `--rtt-k N` sets the variance multiplier k
//! (default 4, minimum 1). `--rate-limit N` caps the whole scan at N
//! probes per second through a global token bucket (the materialized
//! pipeline clamps shards to 1 so one clock paces the fleet; the
//! streamed path shares one bucket across all shards instead). All
//! three change simulated elapsed time only — the classified output is
//! bit-identical.
//!
//! `--metrics-out FILE` attaches the observability hub to the run, prints
//! the metrics table, and writes every metric and traced event to FILE.
//! The extension picks the format: `.prom`/`.txt` use the Prometheus
//! exporter (the same one behind the daemon's `/metrics`), anything else
//! JSON lines (see `crates/obs`).
//!
//! `urhunter daemon [FLAGS]` hands off to the resident scanning daemon
//! `urhunterd` (see `crates/daemon`): re-scan epochs over a drifting
//! world, an event-sourced verdict log, and an HTTP query API.
//!
//! Examples:
//!   urhunter --report all
//!   urhunter --scale default --seed 7 --report table1
//!   urhunter --scale default --shards 4 --workers 2
//!   urhunter --fault-drop 0.05 --retries 5 --timeout 2000
//!   urhunter --metrics-out metrics.jsonl
//!   urhunter --extended --payload-match --pcap sandbox.pcap
//!   urhunter daemon --listen 127.0.0.1:7353 --max-epochs 10

use std::process::ExitCode;
use urhunter::{audit_table2, evaluate_false_negatives, run, HunterConfig};
use worldgen::{World, WorldConfig};

struct Args {
    scale: String,
    world: Option<String>,
    seed: Option<u64>,
    report: String,
    shards: Option<usize>,
    workers: Option<usize>,
    retries: Option<u32>,
    timeout_ms: Option<u64>,
    fault_drop: Option<f64>,
    adaptive: bool,
    rtt_k: Option<u32>,
    rate_limit: Option<u64>,
    extended: bool,
    expand_pdns: bool,
    payload_match: bool,
    ethics: bool,
    pcap: Option<String>,
    metrics_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: urhunter [--scale small|default] [--world medium|paper|xl] [--seed N] \
         [--report summary|table1|figure2|figure3|table2|all]\n\
         \u{20}               [--shards N] [--workers N]\n\
         \u{20}               [--retries N] [--timeout MS] [--fault-drop P]\n\
         \u{20}               [--adaptive] [--rtt-k N] [--rate-limit N]\n\
         \u{20}               [--extended] [--expand-pdns] [--payload-match] [--ethics] [--pcap FILE]\n\
         \u{20}               [--metrics-out FILE]\n\
         \u{20} --world medium runs the materialized medium world through the full\n\
         \u{20} pipeline; --world paper|xl runs the paper-scale streamed path (lazy\n\
         \u{20} plan-backed fabrics, URs folded into counters as they arrive) and\n\
         \u{20} prints the scan summary — only --seed, --shards, --workers and the\n\
         \u{20} probe/rate knobs apply there;\n\
         \u{20} --shards N runs the bulk scan on N replica fabrics partitioned by\n\
         \u{20} nameserver (default 1, maximum 64; bit-identical output, clamped to 1\n\
         \u{20} under --ethics);\n\
         \u{20} --workers N is the number of scan workers claiming shards, so\n\
         \u{20} min(shards, N) scan at once (minimum 1, maximum 64; default auto-sizes\n\
         \u{20} from the machine; output is bit-identical for every worker count);\n\
         \u{20} --retries N attempts per probe (default 3, minimum 1), --timeout MS per\n\
         \u{20} attempt (positive), --fault-drop P injects drop probability P in [0,1]\n\
         \u{20} for the collection stages; --adaptive derives per-attempt timeouts\n\
         \u{20} from smoothed per-nameserver RTT and orders scan rounds by estimated\n\
         \u{20} latency (output stays bit-identical), --rtt-k N sets the variance\n\
         \u{20} multiplier (default 4, minimum 1), --rate-limit N caps the scan at N\n\
         \u{20} probes per second globally (positive; the streamed path shares one\n\
         \u{20} bucket across shards, the materialized pipeline clamps shards to 1);\n\
         \u{20} --metrics-out FILE writes the observability registry and event\n\
         \u{20} trace (.prom/.txt = Prometheus text, otherwise JSON lines);\n\
         \u{20} `urhunter daemon [FLAGS]` runs the resident scanning daemon\n\
         \u{20} (urhunterd --help lists its flags)."
    );
    std::process::exit(2)
}

/// Validate a `--workers` value. Zero is rejected (a scan needs at least
/// one worker; omit the flag to auto-size from the machine) and the cap
/// mirrors `--shards`: more scan workers than shards would idle anyway.
fn validate_workers(v: &str) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|_| format!("--workers must be a number (got {v})"))?;
    if n == 0 {
        return Err("--workers must be at least 1 (got 0): omit the flag to auto-size".to_string());
    }
    if n > 64 {
        return Err(format!(
            "--workers is capped at 64 (got {v}): each scan worker drives a whole shard fabric"
        ));
    }
    Ok(n)
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: "small".to_string(),
        world: None,
        seed: None,
        report: "summary".to_string(),
        shards: None,
        workers: None,
        retries: None,
        timeout_ms: None,
        fault_drop: None,
        adaptive: false,
        rtt_k: None,
        rate_limit: None,
        extended: false,
        expand_pdns: false,
        payload_match: false,
        ethics: false,
        pcap: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => args.scale = it.next().unwrap_or_else(|| usage()),
            "--world" => {
                let v = it.next().unwrap_or_else(|| usage());
                if !matches!(v.as_str(), "medium" | "paper" | "xl") {
                    eprintln!("--world must be one of medium|paper|xl (got {v})");
                    usage()
                }
                args.world = Some(v);
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.seed = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--report" => args.report = it.next().unwrap_or_else(|| usage()),
            "--shards" => {
                let v = it.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!("--shards must be at least 1 (got 0): the scan needs one fabric");
                    usage()
                }
                if n > 64 {
                    eprintln!(
                        "--shards is capped at 64 (got {v}): each shard is a full replica fabric"
                    );
                    usage()
                }
                args.shards = Some(n);
            }
            "--workers" => {
                let v = it.next().unwrap_or_else(|| usage());
                match validate_workers(&v) {
                    Ok(n) => args.workers = Some(n),
                    Err(msg) => {
                        eprintln!("{msg}");
                        usage()
                    }
                }
            }
            "--retries" => {
                let v = it.next().unwrap_or_else(|| usage());
                let n: u32 = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!(
                        "--retries must be at least 1 (got 0): every probe needs one attempt"
                    );
                    usage()
                }
                args.retries = Some(n);
            }
            "--timeout" => {
                let v = it.next().unwrap_or_else(|| usage());
                let ms: u64 = v.parse().unwrap_or_else(|_| usage());
                if ms == 0 {
                    eprintln!("--timeout must be a positive number of milliseconds (got {v})");
                    usage()
                }
                args.timeout_ms = Some(ms);
            }
            "--fault-drop" => {
                let v = it.next().unwrap_or_else(|| usage());
                let p: f64 = v.parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&p) {
                    eprintln!("--fault-drop must be a probability in [0, 1] (got {v})");
                    usage()
                }
                args.fault_drop = Some(p);
            }
            "--adaptive" => args.adaptive = true,
            "--rtt-k" => {
                let v = it.next().unwrap_or_else(|| usage());
                let k: u32 = v.parse().unwrap_or_else(|_| usage());
                if k == 0 {
                    eprintln!("--rtt-k must be at least 1 (got 0): the variance term needs weight");
                    usage()
                }
                args.rtt_k = Some(k);
            }
            "--rate-limit" => {
                let v = it.next().unwrap_or_else(|| usage());
                let n: u64 = v.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!("--rate-limit must be a positive number of probes per second");
                    usage()
                }
                args.rate_limit = Some(n);
            }
            "--extended" => args.extended = true,
            "--expand-pdns" => args.expand_pdns = true,
            "--payload-match" => args.payload_match = true,
            "--ethics" => args.ethics = true,
            "--pcap" => args.pcap = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics-out" => args.metrics_out = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    args
}

/// The streamed paper-scale path: a plan-backed [`worldgen::StreamWorld`]
/// scanned shard-by-shard with URs folded into counters as they arrive.
/// None of the report renderers apply (the stream never materializes the
/// classified set), so this prints the scan summary and returns.
fn run_world_preset(args: &Args, preset: &str) -> ExitCode {
    let mut config = match preset {
        "paper" => WorldConfig::paper(),
        "xl" => WorldConfig::xl(),
        _ => unreachable!("validated in parse_args"),
    };
    if let Some(seed) = args.seed {
        config = config.with_seed(seed);
    }
    // Under --rate-limit the streamed path shares one token bucket across
    // all shard scans (a concatenated global timeline), so the shard count
    // no longer needs clamping here.
    let shards = args.shards.unwrap_or(8);
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
    let mut hunter = HunterConfig::fast();
    if let Some(workers) = args.workers {
        hunter = hunter.with_workers(workers);
    }
    if args.adaptive {
        hunter = hunter.with_adaptive();
    }
    if let Some(k) = args.rtt_k {
        hunter = hunter.with_rtt_k(k);
    }
    if let Some(per_sec) = args.rate_limit {
        hunter = hunter.with_rate_limit_per_sec(per_sec);
    }
    let out = urhunter::run_streamed(&world, &hunter, shards);
    println!(
        "world {preset}: {} nameservers, {} targets, {} shard(s) on {} worker(s)\n\
         probes: {} scheduled, {} answered\n\
         undelegated records: {} total ({} correct, {} protective, {} unknown)\n\
         sequence hash: {:#018x}",
        out.nameserver_count,
        out.target_count,
        out.shards,
        out.workers,
        out.coverage.scheduled,
        out.coverage.answered,
        out.total_urs,
        out.correct,
        out.protective,
        out.unknown,
        out.sequence_hash,
    );
    ExitCode::SUCCESS
}

/// `urhunter daemon ...`: hand off to the sibling `urhunterd` binary.
/// The daemon crate depends on this one, so it cannot be linked in
/// directly; cargo installs both binaries side by side, so look next to
/// the running executable first and fall back to `$PATH`.
fn run_daemon(daemon_args: Vec<String>) -> ExitCode {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("urhunterd")))
        .filter(|p| p.is_file());
    let program = sibling.unwrap_or_else(|| std::path::PathBuf::from("urhunterd"));
    match std::process::Command::new(&program)
        .args(&daemon_args)
        .status()
    {
        Ok(status) => match status.code() {
            Some(code) => ExitCode::from(code.clamp(0, 255) as u8),
            None => ExitCode::FAILURE,
        },
        Err(e) => {
            eprintln!(
                "urhunter: cannot launch {} (build it with `cargo build -p urhunterd`): {e}",
                program.display()
            );
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("daemon") {
        return run_daemon(std::env::args().skip(2).collect());
    }
    let args = parse_args();
    if let Some(world) = args.world.as_deref() {
        match world {
            // `--world medium` is the materialized preset: it runs the
            // normal pipeline below on the benchmark world.
            "medium" => {}
            preset => return run_world_preset(&args, preset),
        }
    }
    let mut config = if args.world.as_deref() == Some("medium") {
        WorldConfig::medium()
    } else {
        match args.scale.as_str() {
            "small" => WorldConfig::small(),
            "default" => WorldConfig::default_scale(),
            other => {
                eprintln!("unknown scale: {other}");
                return ExitCode::from(2);
            }
        }
    };
    if let Some(seed) = args.seed {
        config = config.with_seed(seed);
    }
    let mut hunter = if args.ethics {
        HunterConfig::paper_faithful()
    } else {
        HunterConfig::fast()
    };
    if args.extended {
        hunter.collect.query_types = HunterConfig::extended().collect.query_types;
    }
    if args.expand_pdns {
        hunter = hunter.with_pdns_expansion();
    }
    if args.payload_match {
        hunter = hunter.with_payload_matching();
    }
    if let Some(workers) = args.workers {
        hunter = hunter.with_workers(workers);
    }
    if let Some(shards) = args.shards {
        hunter = hunter.with_shards(shards);
    }
    if let Some(retries) = args.retries {
        hunter = hunter.with_retries(retries);
    }
    if let Some(ms) = args.timeout_ms {
        hunter = hunter.with_timeout(simnet::SimDuration::from_millis(ms));
    }
    if let Some(p) = args.fault_drop {
        hunter = hunter.with_scan_faults(simnet::FaultPlan::lossy(p).scheduled_per_flow());
    }
    if args.adaptive {
        hunter = hunter.with_adaptive();
    }
    if let Some(k) = args.rtt_k {
        hunter = hunter.with_rtt_k(k);
    }
    if let Some(per_sec) = args.rate_limit {
        hunter = hunter.with_rate_limit_per_sec(per_sec);
    }
    let hub = args.metrics_out.as_ref().map(|_| obs::Obs::shared());
    if let Some(hub) = &hub {
        hunter = hunter.with_obs(hub.clone());
    }

    eprintln!(
        "generating world (scale={}, seed={})...",
        args.scale, config.seed
    );
    let mut world = World::generate(config);
    eprintln!(
        "scanning {} nameservers x {} targets...",
        world.nameservers.len(),
        world.scan_targets().len()
    );
    let out = run(&mut world, &hunter);
    eprint!("{}", out.report.render_coverage());
    if let Some(hub) = &hub {
        // Cross-check the two independent accounting paths before anything
        // else (the §4.2 replay below adds probes to the registry): every
        // probe the engine scheduled must appear in the registry funnel.
        let scheduled = hub.registry().counter_value("probe_scheduled").unwrap_or(0);
        if scheduled != out.coverage.scheduled {
            eprintln!(
                "metrics/coverage mismatch: probe_scheduled={scheduled} but coverage says {}",
                out.coverage.scheduled
            );
            return ExitCode::FAILURE;
        }
        eprint!(
            "{}",
            urhunter::Report::render_metrics(&hub.registry().snapshot())
        );
    }

    match args.report.as_str() {
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
        other => {
            eprintln!("unknown report: {other}");
            return ExitCode::from(2);
        }
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

    if let Some(path) = args.pcap {
        // The capture holds the sandbox phase (scan traffic is untraced).
        let bytes = simnet::pcap::to_pcap(world.net.trace.records(), false);
        match std::fs::write(&path, &bytes) {
            Ok(()) => eprintln!("wrote {} bytes of sandbox capture to {path}", bytes.len()),
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
    use super::validate_workers;

    #[test]
    fn stream_workers_accepts_the_valid_range() {
        assert_eq!(validate_workers("1"), Ok(1));
        assert_eq!(validate_workers("4"), Ok(4));
        assert_eq!(validate_workers("64"), Ok(64));
    }

    #[test]
    fn stream_workers_rejects_zero_with_a_clear_message() {
        let err = validate_workers("0").unwrap_err();
        assert!(err.contains("at least 1"), "got: {err}");
        assert!(err.contains("auto-size"), "got: {err}");
    }

    #[test]
    fn stream_workers_rejects_garbage_and_oversize() {
        assert!(validate_workers("many").is_err());
        assert!(validate_workers("-3").is_err());
        assert!(validate_workers("65").unwrap_err().contains("64"));
    }
}
