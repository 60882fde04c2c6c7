//! The parent side: spawns one fresh child process per repetition, turns
//! what the children measured into metrics, and runs the checks.

use crate::adapter::SplitMix64;
use crate::child::Mode;
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one child printed.
#[derive(Debug, Default)]
pub struct Rep {
    pub nums: BTreeMap<String, f64>,
    pub tags: BTreeMap<String, String>,
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Rep {
    fn parse(stdout: &str) -> Result<Rep, String> {
        let mut rep = Rep::default();
        for line in stdout.lines() {
            let mut parts = line.splitn(3, ' ');
            let (kind, name) = (parts.next(), parts.next());
            let rest = parts.next().unwrap_or("");
            let bad = || format!("child printed a line the parent cannot read: {line:?}");
            match (kind, name) {
                (Some("N"), Some(name)) => {
                    rep.nums
                        .insert(name.to_string(), rest.parse().map_err(|_| bad())?);
                }
                (Some("T"), Some(name)) => {
                    rep.tags.insert(name.to_string(), rest.to_string());
                }
                (Some("S"), Some(name)) => {
                    let values: Result<Vec<f64>, _> =
                        rest.split_whitespace().map(str::parse).collect();
                    rep.samples
                        .insert(name.to_string(), values.map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(rep)
    }

    /// A number the child must have printed.
    fn num(&self, name: &str) -> Result<f64, String> {
        self.nums
            .get(name)
            .copied()
            .ok_or_else(|| format!("child did not report {name}"))
    }

    fn num_or_zero(&self, name: &str) -> f64 {
        self.nums.get(name).copied().unwrap_or(0.0)
    }

    fn tag(&self, name: &str) -> &str {
        self.tags.get(name).map_or("", String::as_str)
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// One child to run.
pub struct ChildSpec<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub mode: Mode,
    pub quick: bool,
    /// Requests to send against the static store (`daemon_serve`).
    pub idle_requests: usize,
}

impl<'a> ChildSpec<'a> {
    fn plain(workload: &'a str, seed: u64, opts: &RunOpts) -> Self {
        ChildSpec {
            workload,
            seed,
            mode: Mode::Plain,
            quick: opts.quick,
            idle_requests: 0,
        }
    }

    fn mode(self, mode: Mode) -> Self {
        ChildSpec { mode, ..self }
    }
}

/// Run one child to its end and read what it printed. The child's stderr
/// (the daemon logs each epoch there) is shown only when it fails.
pub fn spawn(spec: &ChildSpec) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(spec.workload)
        .arg(spec.seed.to_string())
        .arg(spec.mode.as_str())
        .arg(if spec.quick { "quick" } else { "full" })
        .arg(spec.idle_requests.to_string());
    let what = format!(
        "child {} {} {}",
        spec.workload,
        spec.seed,
        spec.mode.as_str()
    );
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{what}: cannot start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{what}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Rep::parse(&String::from_utf8_lossy(&out.stdout)).map_err(|e| format!("{what}: {e}"))
}

/// The world seed of repetition `i` of a run with `--seed seed`: the seed
/// itself first, then seeds derived from it. One run scans several
/// worlds, so that its medians are of the program and not of one world.
pub fn world_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        // Kept below 2^32 so the seeds stay readable in logs.
        SplitMix64(seed.wrapping_mul(0x1_0000).wrapping_add(i as u64)).next() >> 32
    }
}

#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Small worlds, one repetition: a smoke run whose numbers are not for
    /// comparison.
    pub quick: bool,
    pub verbose: bool,
}

/// One end-to-end metric of one run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    /// The values the figure was taken over (one per world, or the pooled
    /// samples), for quartiles and the comparison between two runs.
    pub over: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// `None` where a metric does not apply to the workload or the host.
    pub per_layer: BTreeMap<&'static str, Option<f64>>,
    pub checks: Vec<Check>,
    /// Operations attempted and failed: scans for the scan workloads,
    /// HTTP requests for the daemon.
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// Facts that must repeat exactly between two runs of one seed.
    pub exact: BTreeMap<String, String>,
    pub wall_s: f64,
}

impl Outcome {
    fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            reps: 0,
            exact: BTreeMap::new(),
            wall_s: 0.0,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        // One line per check: a check that fails on any repetition fails.
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) => {
                if !ok {
                    c.ok = false;
                    c.detail = detail;
                }
            }
            None => self.checks.push(Check {
                name: name.to_string(),
                ok,
                detail,
            }),
        }
    }
}

/// The checks every scan repetition must pass. Returns whether all held.
fn check_scan(out: &mut Outcome, rep: &Rep, label: &str) -> Result<bool, String> {
    let n = |name: &str| rep.num(name);
    let (scheduled, answered) = (n("cov_scheduled")?, n("cov_answered")?);
    let (retried, gave_up) = (n("cov_retried_answered")?, n("cov_gave_up")?);
    let (skipped, retx) = (n("cov_skipped_quarantined")?, n("cov_retransmissions")?);
    let split = [
        n("split_correct")?,
        n("split_protective")?,
        n("split_unknown")?,
        n("split_malicious")?,
    ];
    let urs = n("urs")?;
    let lossy = out.workload == "scan_lossy";
    // The streamed path runs no analysis stage, so nothing there can be
    // confirmed malicious.
    let expected = if out.workload == "scan_stream" { 3 } else { 4 };
    let mut all = true;
    let mut check = |name: &str, ok: bool, detail: String| {
        all &= ok;
        out.check(name, ok, format!("{label}: {detail}"));
    };
    check(
        "coverage buckets sum to scheduled",
        scheduled > 0.0 && scheduled == answered + retried + gave_up + skipped,
        format!("{scheduled} != {answered} + {retried} + {gave_up} + {skipped}"),
    );
    check(
        "categories sum to classified URs",
        urs > 0.0 && urs == split.iter().sum::<f64>(),
        format!("{urs} URs, split {split:?}"),
    );
    check(
        "every category is filled",
        split[..expected].iter().all(|c| *c > 0.0),
        format!("split {split:?}"),
    );
    if lossy {
        check(
            "loss is injected and retried",
            retx > 0.0 && retried > 0.0,
            format!("{retx} retransmissions, {retried} answered after one"),
        );
    } else {
        check(
            "every probe answered first time",
            answered == scheduled && gave_up + skipped + retx == 0.0,
            format!("{answered} of {scheduled}, {gave_up} gave up, {retx} retransmissions"),
        );
    }
    Ok(all)
}

/// Hash, category split and probe accounting: what two scans of one world
/// must agree on bit for bit.
fn scan_identity(rep: &Rep) -> String {
    format!(
        "hash {} split {}/{}/{}/{} sim_s {} {}",
        rep.tag("sequence_hash"),
        rep.num_or_zero("split_correct"),
        rep.num_or_zero("split_protective"),
        rep.num_or_zero("split_unknown"),
        rep.num_or_zero("split_malicious"),
        rep.num_or_zero("scan_sim_s"),
        rep.tag("coverage"),
    )
}

fn progress(opts: &RunOpts, line: &str) {
    if opts.verbose {
        eprintln!("  {line}");
    }
}

fn metric_over_worlds(per_world: &[Vec<f64>], pick: fn(&[f64]) -> Option<f64>) -> Metric {
    // A world scanned twice counts once, at the median of its repetitions.
    let over: Vec<f64> = per_world
        .iter()
        .filter_map(|reps| stats::median(reps))
        .collect();
    Metric {
        value: pick(&over).unwrap_or(0.0),
        over,
    }
}

/// The untraced run of a scan workload: one fresh process per repetition,
/// each of `reps - 1` worlds scanned once and the first a second time.
fn run_scan(w: &'static Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::new(w.name);
    let reps = if opts.quick {
        1
    } else {
        spec::reps_for(w, opts.seconds)
    };
    let worlds = reps.saturating_sub(1).max(1);
    let mut per_world: BTreeMap<&str, Vec<Vec<f64>>> = BTreeMap::new();
    let mut identities: Vec<Option<String>> = vec![None; worlds];
    for rep_no in 0..reps {
        let world = rep_no % worlds;
        let seed = world_seed(opts.seed, world);
        let rep = spawn(&ChildSpec::plain(w.name, seed, opts))?;
        let wall = rep.num("scan_wall_s")?;
        let label = format!("rep {rep_no} (world seed {seed})");
        let ok = check_scan(&mut out, &rep, &label)?;
        out.attempted += 1;
        out.failed += !ok as u64;
        let identity = scan_identity(&rep);
        if let Some(first) = &identities[world] {
            out.check(
                "a world scanned twice gives the same hash, split and coverage",
                *first == identity,
                format!("{label}: {identity} != {first}"),
            );
        } else {
            out.exact.insert(format!("world {world}"), identity.clone());
            identities[world] = Some(identity);
        }
        let values = [
            ("setup_s", rep.num("setup_s")?),
            ("turnaround_ms", wall * 1e3),
            ("ops_per_s", rep.num("cov_scheduled")? / wall),
            ("peak_rss_mib", rep.num("peak_rss_mib")?),
        ];
        progress(
            opts,
            &format!(
                "{label}: setup {:.4} s, scan {wall:.3} s, {} probes, {} URs, {:.1} MiB",
                values[0].1,
                rep.num_or_zero("cov_scheduled"),
                rep.num_or_zero("urs"),
                values[3].1
            ),
        );
        for (name, v) in values {
            let slot = per_world
                .entry(name)
                .or_insert_with(|| vec![Vec::new(); worlds]);
            slot[world].push(v);
        }
    }
    out.reps = reps;
    for m in &END_TO_END {
        // Set-up is reported as a median, as the contract asks; the others
        // as the mean over worlds, which averages world-to-world variation
        // out faster than a median does.
        let pick = if m.name == "setup_s" {
            stats::median
        } else {
            stats::mean
        };
        out.end_to_end
            .insert(m.name, metric_over_worlds(&per_world[m.name], pick));
    }
    Ok(out)
}

/// Requests a second the closed-loop client completed against the static
/// store when the benchmark was defined. Only turns seconds into a request
/// count, so that a run's load depends on its arguments and not on how
/// fast the machine is.
const NOMINAL_IDLE_RPS: f64 = 185.0;

/// Requests against the static store in the traced run: a 99th percentile
/// with ten samples beyond it needs a thousand.
const TRACED_IDLE_REQUESTS: usize = 1_500;

/// Static-store requests per daemon repetition: half of the repetition's
/// share of the run.
fn idle_requests(opts: &RunOpts, reps: usize) -> usize {
    let seconds = if opts.quick {
        1.0
    } else {
        (opts.seconds / reps as f64 / 2.0).max(1.0)
    };
    (seconds * NOMINAL_IDLE_RPS).round() as usize
}

/// Count one daemon child's requests and run its checks.
fn absorb_daemon(out: &mut Outcome, rep: &Rep, label: &str) -> Result<(), String> {
    let total = rep.num("requests_total")?;
    let failed = rep.num("requests_failed")?;
    out.attempted += total as u64;
    out.failed += failed as u64;
    out.check(
        "every request answered, and answered right",
        failed == 0.0,
        format!(
            "{label}: {failed} of {total} failed ({} wrong bodies)",
            rep.num_or_zero("wrong_bodies")
        ),
    );
    out.check(
        "the event log replays to the live store",
        rep.num("replay_ok")? == 1.0,
        format!("{label}: {}", rep.tag("replay_error")),
    );
    out.check(
        "verdict bodies were compared with the final store",
        rep.num("bodies_checked")? > 0.0,
        format!("{label}: no idle-phase verdict body to check"),
    );
    Ok(())
}

/// The untraced run of `daemon_serve`: one daemon per repetition, each on
/// its own world.
fn run_daemon(w: &'static Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::new(w.name);
    let reps = if opts.quick {
        1
    } else {
        spec::reps_for(w, opts.seconds)
    };
    let idle_requests = idle_requests(opts, reps);
    let (mut setup, mut rss, mut idle_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut idle_done, mut idle_elapsed, mut rps) = (0.0, 0.0, Vec::new());
    for rep_no in 0..reps {
        let seed = world_seed(opts.seed, rep_no);
        let rep = spawn(&ChildSpec {
            idle_requests,
            ..ChildSpec::plain(w.name, seed, opts)
        })?;
        let label = format!("rep {rep_no} (world seed {seed})");
        absorb_daemon(&mut out, &rep, &label)?;
        out.exact
            .insert(format!("world {rep_no}"), rep.tag("store").to_string());
        let samples = rep.samples("idle_ms");
        progress(
            opts,
            &format!(
                "{label}: setup {:.3} s, {} busy + {} idle requests, idle p50 {:.3} ms, {:.1} MiB",
                rep.num("setup_s")?,
                rep.samples("busy_ms").len(),
                samples.len(),
                stats::median(samples).unwrap_or(0.0),
                rep.num("peak_rss_mib")?
            ),
        );
        setup.push(rep.num("setup_s")?);
        rss.push(rep.num("peak_rss_mib")?);
        idle_done += samples.len() as f64;
        idle_elapsed += rep.num("idle_elapsed_s")?;
        rps.push(ratio(samples.len() as f64, rep.num("idle_elapsed_s")?));
        idle_ms.extend_from_slice(samples);
    }
    out.reps = reps;
    let metric = |value: Option<f64>, over: Vec<f64>| Metric {
        value: value.unwrap_or(0.0),
        over,
    };
    out.end_to_end
        .insert("setup_s", metric(stats::median(&setup), setup));
    out.end_to_end
        .insert("peak_rss_mib", metric(stats::mean(&rss), rss));
    out.end_to_end.insert(
        "ops_per_s",
        metric(Some(ratio(idle_done, idle_elapsed)), rps),
    );
    out.end_to_end
        .insert("turnaround_ms", metric(stats::median(&idle_ms), idle_ms));
    Ok(out)
}

/// The untraced run: end-to-end metrics and checks of one workload.
pub fn run_untraced(w: &'static Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut out = if w.name.starts_with("scan_") {
        run_scan(w, opts)?
    } else {
        run_daemon(w, opts)?
    };
    out.wall_s = t.elapsed().as_secs_f64();
    Ok(out)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Fresh processes per timing in the traced run: each figure is a median
/// of this many.
const TRACE_REPS: usize = 3;

/// Median over `reps` of a number each printed (0 where a child did not).
fn med(reps: &[Rep], name: &str) -> f64 {
    let values: Vec<f64> = reps.iter().map(|r| r.num_or_zero(name)).collect();
    stats::median(&values).unwrap_or(0.0)
}

/// Copy every number a micro child printed under a per-layer metric's name.
fn insert_named(layers: &mut Layers, rep: &Rep) {
    for (name, v) in &rep.nums {
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            layers.insert(m.name, *v);
        }
    }
}

/// Median over the interleaved rounds of `name` in a round's variant child
/// over the scan wall time of the same round's untraced child: pairing
/// neighbours in time cancels the drift of the machine's speed.
fn paired_ratio(variants: &[Rep], name: &str, plains: &[Rep]) -> f64 {
    let ratios: Vec<f64> = variants
        .iter()
        .zip(plains)
        .map(|(v, p)| ratio(v.num_or_zero(name), p.num_or_zero("scan_wall_s")))
        .collect();
    stats::median(&ratios).unwrap_or(0.0)
}

type Layers = BTreeMap<&'static str, f64>;

/// Check an untraced repetition of the traced run and count it.
fn absorb_scan(out: &mut Outcome, rep: &Rep, first: &Rep, label: &str) -> Result<(), String> {
    let ok = check_scan(out, rep, label)?;
    out.attempted += 1;
    out.failed += !ok as u64;
    out.check(
        "a world scanned twice gives the same hash, split and coverage",
        scan_identity(rep) == scan_identity(first),
        format!(
            "{label}: {} != {}",
            scan_identity(rep),
            scan_identity(first)
        ),
    );
    Ok(())
}

/// `scan_eager` / `scan_lossy`: stage spans and counts from the staged
/// run, the untraced run beside it, per-probe layers from the corpus.
fn trace_staged_scan(
    w: &Workload,
    opts: &RunOpts,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<(), String> {
    let plain_spec = || ChildSpec::plain(w.name, opts.seed, opts);
    // Untraced, staged and (scan_eager) with a hub attached, interleaved.
    let (mut plains, mut stageds, mut observeds) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_REPS {
        plains.push(spawn(&plain_spec())?);
        stageds.push(spawn(&plain_spec().mode(Mode::Staged))?);
        if w.name == "scan_eager" {
            observeds.push(spawn(&plain_spec().mode(Mode::Observed))?);
        }
    }
    let micro = spawn(&plain_spec().mode(Mode::Micro))?;
    let counted = [
        spawn(&plain_spec().mode(Mode::Counted))?,
        spawn(&plain_spec().mode(Mode::Counted))?,
    ];
    let (plain, staged) = (&plains[0], &stageds[0]);
    for (i, rep) in plains.iter().enumerate() {
        absorb_scan(out, rep, plain, &format!("untraced rep {i}"))?;
    }
    for rep in stageds.iter().chain(&counted) {
        out.check(
            "the staged run equals run(): hash, totals, coverage",
            scan_identity(rep) == scan_identity(plain),
            format!("{} != {}", scan_identity(rep), scan_identity(plain)),
        );
    }
    // The program's hash maps draw a random hash seed per process, which
    // moves a few dozen table growths among millions of allocations: the
    // counts repeat to a part in ten thousand, not to the last digit.
    for name in [
        "span_allocs.core.collect",
        "span_alloc_bytes.core.collect",
        "span_allocs.core.classify",
    ] {
        let (a, b) = (counted[0].num(name)?, counted[1].num(name)?);
        out.check(
            "allocation counts repeat between two counted runs",
            a > 0.0 && ((a - b) / a).abs() <= 1e-4,
            format!("{name}: {a} then {b}"),
        );
    }
    out.exact
        .insert("world 0".to_string(), scan_identity(staged));

    let span = |name: &str| med(&stageds, &format!("span_ms.{name}"));
    for m in PER_LAYER {
        let stage = m
            .name
            .strip_prefix("core.")
            .and_then(|n| n.strip_suffix("_ms"));
        if let Some(stage) = stage {
            layers.insert(m.name, span(&format!("core.{stage}")));
        }
    }
    let plain_wall = med(&plains, "scan_wall_s");
    layers.insert(
        "trace.unattributed_share",
        ratio(med(&stageds, "scan_self_ms"), span("scan")),
    );
    layers.insert(
        "trace.overhead_ratio",
        paired_ratio(&stageds, "span_ms.scan", &plains) / 1e3,
    );

    let bulk = staged.num("bulk_scheduled")?;
    let urs = staged.num("urs")?;
    let retx = staged.num("cov_retransmissions")?;
    let scheduled = staged.num("cov_scheduled")?;
    let answered = staged.num("cov_answered")? + staged.num("cov_retried_answered")?;
    let gave_up = staged.num("cov_gave_up")? + staged.num("cov_skipped_quarantined")?;
    layers.insert("core.probes_scheduled", scheduled);
    layers.insert("core.probes_answered_first", staged.num("cov_answered")?);
    layers.insert("core.retransmissions", retx);
    layers.insert("core.gave_up", gave_up);
    layers.insert(
        "core.quarantined_servers",
        staged.num("cov_quarantined_servers")?,
    );
    layers.insert("core.urs_collected", urs);
    layers.insert("core.useful_probe_ratio", ratio(answered, scheduled + retx));
    layers.insert("core.failed_share", ratio(gave_up, scheduled));
    layers.insert("core.scan_sim_s", staged.num("scan_sim_s")?);
    layers.insert("core.urs_per_s", ratio(urs, plain_wall));
    layers.insert("simnet.datagrams_sent", staged.num("datagrams_sent")?);
    layers.insert("simnet.datagrams_dropped", staged.num("datagrams_dropped")?);

    insert_named(layers, &micro);
    let per_probe = ratio(span("core.collect") * 1e6, bulk);
    layers.insert("core.collect_ns_per_probe", per_probe);
    layers.insert(
        "core.engine_overhead_ns",
        per_probe - micro.num("authdns.probe_roundtrip_ns")?,
    );
    layers.insert(
        "core.classify_ns_per_ur",
        ratio(span("core.classify") * 1e6, urs),
    );
    layers.insert(
        "core.store_append_ns",
        ratio(span("core.store_append") * 1e6, urs),
    );
    let count = |what: &str, name: &str| counted[0].num_or_zero(&format!("{what}.{name}"));
    layers.insert(
        "core.collect_allocs_per_probe",
        ratio(count("span_allocs", "core.collect"), bulk),
    );
    layers.insert(
        "core.collect_alloc_bytes_per_probe",
        ratio(count("span_alloc_bytes", "core.collect"), bulk),
    );
    layers.insert(
        "core.classify_allocs_per_ur",
        ratio(count("span_allocs", "core.classify"), urs),
    );
    layers.insert(
        "core.collect_peak_live_mib",
        count("span_peak_live", "core.collect") / MIB,
    );
    layers.insert("core.peak_live_mib", count("span_peak_live", "scan") / MIB);

    for rep in &observeds {
        out.check(
            "a hub changes no result",
            scan_identity(rep) == scan_identity(plain),
            format!("{} != {}", scan_identity(rep), scan_identity(plain)),
        );
    }
    if !observeds.is_empty() {
        layers.insert(
            "obs.overhead_ratio",
            paired_ratio(&observeds, "scan_wall_s", &plains),
        );
    }
    let generate: Vec<f64> = plains
        .iter()
        .chain(&observeds)
        .map(|r| r.num_or_zero("setup_s"))
        .collect();
    layers.insert(
        "worldgen.generate_ms",
        stats::median(&generate).unwrap_or(0.0) * 1e3,
    );
    Ok(())
}

/// `scan_stream`: the run is one call into the program, so there are no
/// stage spans; counts, the one-worker run beside the automatic one, and
/// per-probe layers from the corpus.
fn trace_stream_scan(
    w: &Workload,
    opts: &RunOpts,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<(), String> {
    let plain_spec = || ChildSpec::plain(w.name, opts.seed, opts);
    let (mut plains, mut ones) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_REPS {
        plains.push(spawn(&plain_spec())?);
        ones.push(spawn(&plain_spec().mode(Mode::OneWorker))?);
    }
    let micro = spawn(&plain_spec().mode(Mode::Micro))?;
    let plain = &plains[0];
    for (i, rep) in plains.iter().enumerate() {
        absorb_scan(out, rep, plain, &format!("untraced rep {i}"))?;
    }
    for rep in &ones {
        out.check(
            "one worker and many give the same hash, split and coverage",
            scan_identity(rep) == scan_identity(plain),
            format!("{} != {}", scan_identity(rep), scan_identity(plain)),
        );
    }
    out.exact
        .insert("world 0".to_string(), scan_identity(plain));

    let scheduled = plain.num("cov_scheduled")?;
    let urs = plain.num("urs")?;
    let (wall, wall_1w) = (med(&plains, "scan_wall_s"), med(&ones, "scan_wall_s"));
    let workers = plain.num("workers")?;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let generate: Vec<f64> = plains
        .iter()
        .chain(&ones)
        .map(|r| r.num_or_zero("setup_s"))
        .collect();
    layers.insert(
        "worldgen.stream_generate_ms",
        stats::median(&generate).unwrap_or(0.0) * 1e3,
    );
    layers.insert("core.probes_scheduled", scheduled);
    layers.insert("core.probes_answered_first", plain.num("cov_answered")?);
    layers.insert("core.urs_collected", urs);
    let retx = plain.num("cov_retransmissions")?;
    let answered = plain.num("cov_answered")? + plain.num("cov_retried_answered")?;
    let gave_up = plain.num("cov_gave_up")? + plain.num("cov_skipped_quarantined")?;
    layers.insert("core.retransmissions", retx);
    layers.insert("core.gave_up", gave_up);
    layers.insert(
        "core.quarantined_servers",
        plain.num("cov_quarantined_servers")?,
    );
    layers.insert("core.useful_probe_ratio", ratio(answered, scheduled + retx));
    layers.insert("core.failed_share", ratio(gave_up, scheduled));
    layers.insert("core.scan_sim_s", plain.num("scan_sim_s")?);
    layers.insert("core.urs_per_s", ratio(urs, wall));
    insert_named(layers, &micro);
    // The streamed scan is one call, so its per-probe cost is the
    // one-worker wall time over its probes: classification and the fold
    // are in it.
    let per_probe = ratio(wall_1w * 1e9, scheduled);
    layers.insert("core.collect_ns_per_probe", per_probe);
    layers.insert(
        "core.engine_overhead_ns",
        per_probe - micro.num("authdns.probe_roundtrip_ns")?,
    );
    layers.insert("par.stream_wall_s_1w", wall_1w);
    layers.insert("par.workers", workers);
    layers.insert("par.host_threads", host_threads as f64);
    layers.insert(
        "par.rss_ratio",
        ratio(med(&plains, "peak_rss_mib"), med(&ones, "peak_rss_mib")),
    );
    // On one hardware thread a scaling figure says nothing: left absent.
    if host_threads > 1 && workers > 1.0 {
        layers.insert("par.stream_scaling", ratio(wall_1w, wall));
    }
    Ok(())
}

/// `daemon_serve`: one repetition under load for the query layers, and the
/// epoch driver in-process for the scan and publish layers.
fn trace_daemon(
    w: &Workload,
    opts: &RunOpts,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<(), String> {
    let plain_spec = || ChildSpec::plain(w.name, opts.seed, opts);
    let rep = spawn(&ChildSpec {
        idle_requests: if opts.quick {
            idle_requests(opts, 1)
        } else {
            TRACED_IDLE_REQUESTS
        },
        ..plain_spec()
    })?;
    absorb_daemon(out, &rep, "traced rep")?;
    out.exact
        .insert("world 0".to_string(), rep.tag("store").to_string());
    let driver = spawn(&plain_spec().mode(Mode::Driver))?;
    let (idle, busy) = (rep.samples("idle_ms"), rep.samples("busy_ms"));
    let p50 = stats::median(idle).unwrap_or(0.0);
    let publish = driver.samples("publish_ms");
    let lookup_ns = driver.num("store_lookup_ns")?;
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    layers.insert("worldgen.generate_ms", driver.num("worldgen_ms")?);
    layers.insert(
        "daemon.scan_epoch_ms",
        stats::median(driver.samples("scan_epoch_ms")).unwrap_or(0.0),
    );
    layers.insert(
        "daemon.publish_ms_p50",
        stats::median(publish).unwrap_or(0.0),
    );
    layers.insert("daemon.publish_ms_max", max(publish));
    layers.insert("daemon.events_per_epoch", driver.num("events_per_epoch")?);
    layers.insert("daemon.replay_ms", driver.num("replay_ms")?);
    layers.insert("daemon.store_lookup_ns", lookup_ns);
    layers.insert(
        "daemon.connect_us",
        stats::median(rep.samples("connect_us")).unwrap_or(0.0),
    );
    layers.insert("daemon.http_overhead_us", p50 * 1e3 - lookup_ns / 1e3);
    layers.insert(
        "daemon.response_bytes_mean",
        rep.num("response_bytes_mean")?,
    );
    layers.insert("daemon.query_p50_ms", p50);
    if let Some(p99) = stats::percentile(idle, 99.0) {
        layers.insert("daemon.query_p99_ms", p99);
    }
    layers.insert("daemon.epoch_wall_ms", rep.num_or_zero("epoch_wall_ms"));
    layers.insert(
        "daemon.busy_query_p50_ms",
        stats::median(busy).unwrap_or(0.0),
    );
    if let Some(p90) = stats::percentile(busy, 90.0) {
        layers.insert("daemon.busy_query_p90_ms", p90);
    }
    layers.insert("daemon.busy_query_max_ms", max(busy));
    layers.insert("daemon.requests_total", rep.num("requests_total")?);
    layers.insert("daemon.requests_failed", rep.num("requests_failed")?);
    Ok(())
}

/// The traced run: per-layer metrics of one workload on the run's first
/// world. Every check of the untraced run applies to its repetitions too.
pub fn run_traced(w: &'static Workload, opts: &RunOpts) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut out = Outcome::new(w.name);
    let mut layers = Layers::new();
    match w.name {
        "scan_eager" | "scan_lossy" => trace_staged_scan(w, opts, &mut out, &mut layers)?,
        "scan_stream" => trace_stream_scan(w, opts, &mut out, &mut layers)?,
        "daemon_serve" => trace_daemon(w, opts, &mut out, &mut layers)?,
        other => return Err(format!("no traced run for workload {other}")),
    }
    out.per_layer = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).copied()))
        .collect();
    // A quick run is too short for the tails; on one hardware thread a
    // scaling figure says nothing.
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .filter(|m| m.applies_to(w.name) && !layers.contains_key(m.name))
        .map(|m| m.name)
        .filter(|name| !opts.quick && *name != "par.stream_scaling")
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{}: the traced run did not measure {}",
            w.name,
            missing.join(", ")
        ));
    }
    // Untraced repetitions behind the checks: the scans count each as one
    // operation, the daemon runs one.
    out.reps = if w.name == "daemon_serve" {
        1
    } else {
        out.attempted as usize
    };
    out.wall_s = t.elapsed().as_secs_f64();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_parse() {
        let rep = Rep::parse("N a 1.5\nT h dead beef\nS s 1 2 3\n").unwrap();
        assert_eq!(rep.num("a"), Ok(1.5));
        assert_eq!(rep.tag("h"), "dead beef");
        assert_eq!(rep.samples("s"), [1.0, 2.0, 3.0]);
        assert!(rep.num("absent").is_err());
        assert!(Rep::parse("garbage\n").is_err());
        assert!(Rep::parse("N a not-a-number\n").is_err());
    }

    #[test]
    fn world_seeds_start_at_the_seed_and_differ() {
        let seeds: Vec<u64> = (0..8).map(|i| world_seed(2023, i)).collect();
        assert_eq!(seeds[0], 2023);
        let distinct: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_ne!(world_seed(2023, 1), world_seed(2024, 1));
    }

    #[test]
    fn a_world_scanned_twice_counts_once() {
        let m = metric_over_worlds(&[vec![1.0, 3.0], vec![4.0], vec![]], stats::mean);
        assert_eq!(m.over, [2.0, 4.0]);
        assert_eq!(m.value, 3.0);
    }
}
