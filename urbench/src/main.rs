//! `urbench`: one benchmark for the scanner and the daemon.
//!
//! ```text
//! urbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result as a JSON line
//! urbench run    [--seed n] [--seconds s] [--quick]   every workload, tracing off, checks on
//! urbench trace  [--seed n] [--seconds s] [--quick]   every workload's per-layer numbers and spans
//! urbench repeat [--seed n] [--seconds s]             the untraced set twice, compared
//! ```
//!
//! See the README beside `Cargo.toml` for why each workload is here, what
//! each metric means and which parts of the program the benchmark calls.

mod adapter;
mod alloc;
mod child;
mod load;
mod runner;
mod spec;
mod stats;
mod trace;

use runner::{Outcome, RunOpts};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 2023;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("urbench: {arg} requires a value"))
        };
        let bad = |v: &str, what: &str| format!("urbench: {arg} must be {what}, got {v:?}");
        match arg.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                f.seed = v.parse().map_err(|_| bad(v, "a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                f.seconds = v.parse().map_err(|_| bad(v, "a number of seconds"))?;
                if !(f.seconds > 0.0 && f.seconds <= 3600.0) {
                    return Err(bad(v, "within (0, 3600]"));
                }
            }
            "--trace" => {
                let v = value()?;
                f.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v, "0 or 1")),
                };
            }
            "--quick" => f.quick = true,
            other => return Err(format!("urbench: unknown argument {other:?}")),
        }
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_all(&f, false)),
        Some("trace") => parse_flags(&args[1..]).and_then(|f| run_all(&f, true)),
        Some("repeat") => parse_flags(&args[1..]).and_then(|f| repeat(&f)),
        Some(flag) if flag.starts_with("--") => parse_flags(&args).and_then(|f| contract_run(&f)),
        _ => Err(
            "usage: urbench run|trace|repeat [--seed n] [--seconds s] [--quick]\n       \
                  urbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// `urbench child <workload> <seed> <mode> <world> <idle requests>`: one
/// repetition, started by `runner::spawn` only.
fn child_main(args: &[String]) -> Result<bool, String> {
    let [workload, seed, mode, world, idle_requests] = args else {
        return Err(
            "usage: urbench child <workload> <seed> <mode> full|quick <idle requests>".into(),
        );
    };
    let bad = |what: &str, v: &str| format!("urbench child: bad {what} {v:?}");
    child::run(&child::ChildArgs {
        workload: workload.clone(),
        seed: seed.parse().map_err(|_| bad("seed", seed))?,
        mode: child::Mode::parse(mode).ok_or_else(|| bad("mode", mode))?,
        quick: match world.as_str() {
            "full" => false,
            "quick" => true,
            _ => return Err(bad("world", world)),
        },
        idle_requests: idle_requests
            .parse()
            .map_err(|_| bad("idle request count", idle_requests))?,
    })?;
    Ok(true)
}

fn opts(f: &Flags, verbose: bool) -> RunOpts {
    RunOpts {
        seed: f.seed,
        seconds: f.seconds,
        quick: f.quick,
        verbose,
    }
}

fn run_workload(w: &'static spec::Workload, o: &RunOpts, traced: bool) -> Result<Outcome, String> {
    if traced {
        runner::run_traced(w, o)
    } else {
        runner::run_untraced(w, o)
    }
}

fn print_failed_checks(out: &Outcome) {
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!(
            "urbench: {}: check failed: {}: {}",
            out.workload, c.name, c.detail
        );
    }
}

/// The driver's contract: one workload, one JSON object as the last line
/// of standard output.
fn contract_run(f: &Flags) -> Result<bool, String> {
    let name = f
        .workload
        .as_deref()
        .ok_or("urbench: --workload is required")?;
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "urbench: unknown workload {name:?} (known: {})",
            known.join(", ")
        )
    })?;
    let out = run_workload(w, &opts(f, true), f.trace)?;
    print_failed_checks(&out);
    let metrics: Vec<(&str, f64, &str)> = if f.trace {
        // The line has to carry every name on every workload: a metric the
        // workload's traced run does not measure reads 0 there on every
        // run. One it does measure is a number, or the run has failed.
        PER_LAYER
            .iter()
            .map(|m| (m.name, out.per_layer[m.name].unwrap_or(0.0), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, out.end_to_end[m.name].value, m.unit))
            .collect()
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("urbench: {name} is not a number: {v}"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    Ok(true)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The run manifest printed before and after every set of results.
fn manifest(command: &str, f: &Flags, reps: &[(&str, usize)], wall_s: Option<f64>) -> String {
    let absent = || "absent".to_string();
    let reps: Vec<String> = reps.iter().map(|(w, n)| format!("\"{w}\": {n}")).collect();
    format!(
        "{{\"urbench\": \"{command}\", \"schema_version\": {}, \"seed\": {}, \"seconds\": {}, \
         \"quick\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \"host_threads\": {}, \
         \"reps\": {{{}}}, \"total_wall_s\": {}}}",
        spec::SCHEMA_VERSION,
        f.seed,
        f.seconds,
        f.quick,
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(absent),
        command_line("rustc", &["--version"]).unwrap_or_else(absent),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        reps.join(", "),
        wall_s.map_or("null".to_string(), |s| format!("{s:.1}")),
    )
}

fn print_end_to_end(out: &Outcome) {
    for m in &END_TO_END {
        let metric = &out.end_to_end[m.name];
        let mut quartiles = match stats::quartiles(&metric.over) {
            Some((q1, q3)) => format!("q1 {q1:.4} q3 {q3:.4}"),
            None => "quartiles absent".to_string(),
        };
        // Pooled samples carry a tail worth reading: the highest percentile
        // with ten samples beyond it.
        if let Some((p, v)) = stats::highest_percentile(&metric.over).filter(|(p, _)| *p > 50.0) {
            quartiles += &format!(" p{p} {v:.4}");
        }
        println!(
            "{:<13} {:<14} {:>14.4} {:<4} ({quartiles}, n {}; {} is better, bound {})",
            out.workload,
            m.name,
            metric.value,
            m.unit,
            metric.over.len(),
            m.better.as_str(),
            m.bound
        );
    }
}

fn print_per_layer(out: &Outcome) {
    for m in PER_LAYER {
        let value = match out.per_layer[m.name] {
            Some(v) => format!("{v:.4}"),
            None => "absent".to_string(),
        };
        println!(
            "{:<13} {:<36} {value:>16} {:<6} ({} is better) moves: {}",
            out.workload,
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn print_checks(out: &Outcome) {
    for c in &out.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        let detail = if c.ok { "" } else { c.detail.as_str() };
        println!(
            "{:<13} check {verdict:<6} {} {detail}",
            out.workload, c.name
        );
    }
    println!(
        "{:<13} {} operations attempted, {} failed, {} repetitions, {:.1} s",
        out.workload, out.attempted, out.failed, out.reps, out.wall_s
    );
}

/// `run` and `trace`: every workload, every metric by name with its unit.
fn run_all(f: &Flags, traced: bool) -> Result<bool, String> {
    let command = if traced { "trace" } else { "run" };
    let start = Instant::now();
    println!("{}", manifest(command, f, &[], None));
    if f.quick {
        println!("quick run: small worlds, one repetition; numbers are not for comparison");
    }
    if !traced {
        for m in &END_TO_END {
            println!("# {} [{}]: {}", m.name, m.unit, m.meaning);
        }
    }
    let mut all_ok = true;
    let mut reps = Vec::new();
    for w in &WORKLOADS {
        println!("# {}: {}", w.name, w.why);
        eprintln!("urbench: {} ...", w.name);
        let out = run_workload(w, &opts(f, true), traced)?;
        if traced {
            print_per_layer(&out);
            println!(
                "{:<13} spans: {}",
                w.name,
                if trace::file_for(w.name).exists() {
                    trace::file_for(w.name).display().to_string()
                } else {
                    "none (one call into the program; nothing to decompose from outside)".into()
                }
            );
        } else {
            print_end_to_end(&out);
        }
        print_checks(&out);
        all_ok &= out.correct();
        reps.push((w.name, out.reps));
    }
    println!(
        "{}",
        manifest(command, f, &reps, Some(start.elapsed().as_secs_f64()))
    );
    println!(
        "{}",
        if all_ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_ok)
}

/// `repeat`: the untraced set twice back to back; fails when an
/// end-to-end pair differs by more than its bound, or when anything that
/// must repeat exactly does not.
fn repeat(f: &Flags) -> Result<bool, String> {
    let start = Instant::now();
    println!("{}", manifest("repeat", f, &[], None));
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for set in 0..2 {
        let mut outcomes = Vec::new();
        for w in &WORKLOADS {
            eprintln!("urbench: set {} of 2: {} ...", set + 1, w.name);
            outcomes.push(runner::run_untraced(w, &opts(f, false))?);
        }
        sets.push(outcomes);
    }
    let mut all_ok = true;
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for m in &END_TO_END {
            let (ma, mb) = (&a.end_to_end[m.name], &b.end_to_end[m.name]);
            let worse = stats::worsening(ma.value, mb.value, m.better);
            let within = worse.abs() <= m.bound;
            let verdict = stats::compare(&ma.over, &mb.over, m.better, m.bound);
            println!(
                "{:<13} {:<14} first {:>14.4} second {:>14.4} {:<4} differs {:>+7.2} % \
                 (bound {:.0} %) {} [{verdict:?}]",
                a.workload,
                m.name,
                ma.value,
                mb.value,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "BEYOND BOUND" },
            );
            all_ok &= within;
        }
        let exact = a.exact == b.exact;
        println!(
            "{:<13} hashes, splits, coverage, simulated seconds and stores repeat exactly: {}",
            a.workload,
            if exact { "ok" } else { "NO" }
        );
        all_ok &= exact;
        for out in [a, b] {
            print_failed_checks(out);
            all_ok &= out.correct();
        }
    }
    let reps: Vec<(&str, usize)> = sets[0].iter().map(|o| (o.workload, o.reps)).collect();
    println!(
        "{}",
        manifest("repeat", f, &reps, Some(start.elapsed().as_secs_f64()))
    );
    println!(
        "{}",
        if all_ok {
            "the two sets agree within the bounds"
        } else {
            "THE TWO SETS DISAGREE"
        }
    );
    Ok(all_ok)
}
