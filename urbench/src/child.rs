//! One repetition, in a process of its own.
//!
//! `crates/intern` is a process-wide leaked arena and `VmHWM` only ever
//! rises, so a repetition measures what a `urhunter` user gets only if it
//! runs in a fresh process. The child prints what it measured as lines of
//! `N <name> <number>`, `T <name> <text>` and `S <name> <numbers…>`; the
//! parent does the arithmetic and the checks.

use crate::adapter::{self, ScanFacts};
use crate::load::{self, Ask, Mix};
use crate::trace::{self, Recorder};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What the child is asked to do with its workload's world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The workload as a user runs it, tracing off.
    Plain,
    /// `scan_eager` / `scan_lossy` stage by stage, one span per stage.
    Staged,
    /// The staged run with the counting allocator armed: its counts are
    /// read, its timings are not (counting costs about two fifths more).
    Counted,
    /// `scan_eager` with an observability hub attached.
    Observed,
    /// `scan_stream` on one worker.
    OneWorker,
    /// Per-probe and support layers over a seeded corpus.
    Micro,
    /// The daemon's epoch driver in-process, without socket or threads.
    Driver,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Staged => "staged",
            Mode::Counted => "counted",
            Mode::Observed => "observed",
            Mode::OneWorker => "one-worker",
            Mode::Micro => "micro",
            Mode::Driver => "driver",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [
            Mode::Plain,
            Mode::Staged,
            Mode::Counted,
            Mode::Observed,
            Mode::OneWorker,
            Mode::Micro,
            Mode::Driver,
        ]
        .into_iter()
        .find(|m| m.as_str() == s)
    }
}

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub mode: Mode,
    pub quick: bool,
    /// Requests sent against the static store (`daemon_serve`).
    pub idle_requests: usize,
}

fn num(name: &str, value: f64) {
    println!("N {name} {value}");
}

fn text(name: &str, value: &str) {
    println!("T {name} {value}");
}

fn samples(name: &str, values: &[f64]) {
    let joined: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    println!("S {name} {}", joined.join(" "));
}

/// This process's own peak resident set, MiB; `None` without procfs.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn emit_rss() {
    if let Some(rss) = peak_rss_mib() {
        num("peak_rss_mib", rss);
    }
}

fn emit_facts(f: &ScanFacts) {
    num("urs", f.urs as f64);
    text("sequence_hash", &format!("{:016x}", f.sequence_hash));
    for (name, n) in ["correct", "protective", "unknown", "malicious"]
        .iter()
        .zip(f.split)
    {
        num(&format!("split_{name}"), n as f64);
    }
    let c = &f.coverage;
    num("cov_scheduled", c.scheduled as f64);
    num("cov_answered", c.answered as f64);
    num("cov_retried_answered", c.retried_answered as f64);
    num("cov_gave_up", c.gave_up as f64);
    num("cov_skipped_quarantined", c.skipped_quarantined as f64);
    num("cov_retransmissions", c.retransmissions as f64);
    num(
        "cov_quarantined_servers",
        c.quarantined_servers.len() as f64,
    );
    text("coverage", &format!("{c:?}"));
    num("scan_sim_s", f.scan_sim_s);
    num("workers", f.workers as f64);
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn run(args: &ChildArgs) -> Result<(), String> {
    let lossy = args.workload == "scan_lossy";
    match (args.workload.as_str(), args.mode) {
        ("scan_eager" | "scan_lossy", Mode::Plain | Mode::Observed) => {
            let t = Instant::now();
            let mut world = adapter::eager_world(args.seed, args.quick);
            num("setup_s", secs(t));
            let t = Instant::now();
            let facts = if args.mode == Mode::Observed {
                adapter::scan_eager_observed(&mut world)
            } else {
                adapter::scan_eager(&mut world, &adapter::scan_config(lossy))
            };
            num("scan_wall_s", secs(t));
            emit_facts(&facts);
            emit_rss();
        }
        ("scan_stream", Mode::Plain | Mode::OneWorker) => {
            let t = Instant::now();
            let world = adapter::stream_world(args.seed, args.quick);
            num("setup_s", secs(t));
            let workers = (args.mode == Mode::OneWorker).then_some(1);
            let t = Instant::now();
            let facts = adapter::scan_stream(&world, workers);
            num("scan_wall_s", secs(t));
            emit_facts(&facts);
            emit_rss();
        }
        ("scan_eager" | "scan_lossy", Mode::Staged | Mode::Counted) => staged(args, lossy)?,
        ("scan_eager" | "scan_lossy", Mode::Micro) => {
            let t = Instant::now();
            let mut world = adapter::eager_world(args.seed, args.quick);
            num("setup_s", secs(t));
            let (probe, support) = adapter::eager_layers(&mut world, args.seed);
            emit_probe_layers(&probe);
            num("netdb.lookup_ns", support.netdb_lookup_ns);
            num("pdns.contains_ns", support.pdns_contains_ns);
            num("recursor.resolve_cold_ns", support.resolve_cold_ns);
            num("recursor.resolve_warm_ns", support.resolve_warm_ns);
            num(
                "intel.ids_inspect_ns_per_flow",
                support.ids_inspect_ns_per_flow,
            );
            num("intel.vendor_lookup_ns", support.vendor_lookup_ns);
        }
        ("scan_stream", Mode::Micro) => {
            let t = Instant::now();
            let world = adapter::stream_world(args.seed, args.quick);
            num("setup_s", secs(t));
            emit_probe_layers(&adapter::stream_layers(&world, args.seed));
        }
        ("daemon_serve", Mode::Plain) => daemon(args)?,
        ("daemon_serve", Mode::Driver) => {
            let d = adapter::driver_layers(args.seed, args.quick)?;
            num("worldgen_ms", d.worldgen_ms);
            samples("scan_epoch_ms", &d.scan_epoch_ms);
            samples("publish_ms", &d.publish_ms);
            num("events_per_epoch", d.events_per_epoch);
            num("replay_ms", d.replay_ms);
            num("store_lookup_ns", d.store_lookup_ns);
        }
        (w, m) => return Err(format!("workload {w} has no mode {}", m.as_str())),
    }
    Ok(())
}

fn emit_probe_layers(p: &adapter::ProbeLayers) {
    num("dnswire.encode_query_ns", p.encode_query_ns);
    num("dnswire.decode_query_ns", p.decode_query_ns);
    num("dnswire.encode_response_ns", p.encode_response_ns);
    num("dnswire.decode_response_ns", p.decode_response_ns);
    num("dnswire.response_bytes_mean", p.response_bytes_mean);
    num("simnet.rpc_echo_ns", p.rpc_echo_ns);
    num("simnet.rpc_echo_lossy_ns", p.rpc_echo_lossy_ns);
    if let Some(serve) = p.serve_ns {
        num("authdns.serve_ns", serve);
    }
    num("authdns.probe_roundtrip_ns", p.probe_roundtrip_ns);
    num("authdns.answer_share", p.answer_share);
}

/// The traced run: `urhunter::run` reassembled stage by stage.
fn staged(args: &ChildArgs, lossy: bool) -> Result<(), String> {
    if args.mode == Mode::Counted {
        crate::alloc::arm();
    }
    let run_id = format!("{}-{}", args.workload, args.seed);
    let mut rec = Recorder::new(run_id);
    let mut world = rec.span("worldgen.generate", |_| {
        adapter::eager_world(args.seed, args.quick)
    });
    let (facts, bulk) = adapter::scan_staged(&mut world, &adapter::scan_config(lossy), &mut rec);
    emit_facts(&facts);
    num("bulk_scheduled", bulk.scheduled as f64);
    num("datagrams_sent", bulk.sent as f64);
    num("datagrams_dropped", bulk.dropped as f64);
    for (id, span) in rec.spans().iter().enumerate() {
        num(&format!("span_ms.{}", span.name), span.duration_ms());
        num(&format!("span_allocs.{}", span.name), span.allocs as f64);
        num(
            &format!("span_alloc_bytes.{}", span.name),
            span.alloc_bytes as f64,
        );
        num(
            &format!("span_peak_live.{}", span.name),
            span.peak_live as f64,
        );
        if span.name == "scan" {
            num(
                "scan_self_ms",
                trace::self_time_ns(rec.spans(), id) as f64 / 1e6,
            );
        }
    }
    // The counted run's timings are not read, so neither are its spans.
    if args.mode == Mode::Staged {
        let path = trace::file_for(&args.workload);
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// A daemon that has not finished its epochs by now never will.
const GIVE_UP_AFTER: Duration = Duration::from_secs(150);

/// `daemon_serve`: closed-loop load against a live daemon, first beside
/// its epoch publishes, then against the static store.
fn daemon(args: &ChildArgs) -> Result<(), String> {
    let io = |e: std::io::Error| format!("daemon_serve: {e}");
    let last_epoch = adapter::daemon_epochs(args.quick);
    let t0 = Instant::now();
    let handle = adapter::start_daemon(args.seed, args.quick).map_err(io)?;
    let addr = handle.addr();
    while handle.epochs_done() < 1 {
        if t0.elapsed() > GIVE_UP_AFTER {
            return Err(format!(
                "daemon_serve: no epoch sealed after {GIVE_UP_AFTER:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    num("setup_s", secs(t0));
    let mut epoch_seen_at = vec![None; last_epoch as usize + 1];
    epoch_seen_at[1] = Some(Instant::now());

    // The client learns which domains are tracked the way an operator
    // would: from the first epoch's deltas.
    let first = load::get(addr, "/deltas?since=0").map_err(io)?;
    let mut mix = Mix::new(args.seed, load::domains_in(&first.body));
    if mix.tracked().is_empty() {
        return Err("daemon_serve: the first epoch tracked no domain".into());
    }

    let mut epoch = 1u64;
    let (mut total, mut failed) = (0u64, 0u64);
    let mut busy_ms = Vec::new();
    let mut idle_ms = Vec::new();
    let mut connect_us = Vec::new();
    let mut bytes = 0usize;
    // The last idle-phase body per tracked domain; the store is static
    // then, so a domain's body must not change between two reads.
    let mut bodies: HashMap<usize, String> = HashMap::new();
    let mut unstable_bodies = 0u64;
    // Set when a response first reports the last epoch: the store is
    // static from then on.
    let mut idle_started: Option<Instant> = None;
    while idle_ms.len() < args.idle_requests {
        let idle = idle_started.is_some();
        if t0.elapsed() > GIVE_UP_AFTER {
            return Err(format!(
                "daemon_serve: epoch {epoch} of {last_epoch} after {GIVE_UP_AFTER:?}"
            ));
        }
        std::thread::sleep(load::THINK_TIME);
        let (ask, path) = mix.next(epoch);
        total += 1;
        let reply = match load::get(addr, &path) {
            Ok(r) => r,
            Err(_) => {
                failed += 1;
                continue;
            }
        };
        let ok = match &ask {
            Ask::Tracked(i) => {
                reply.status == 200
                    && reply
                        .body
                        .contains(&format!("\"domain\":\"{}\"", mix.tracked()[*i]))
            }
            Ask::NeverSeen => reply.status == 404,
            Ask::Deltas | Ask::Coverage | Ask::Healthz => reply.status == 200,
        };
        failed += !ok as u64;
        if idle {
            idle_ms.push(reply.total_ms);
            connect_us.push(reply.connect_us);
            bytes += reply.bytes;
            if let (Ask::Tracked(i), true) = (&ask, ok) {
                if let Some(earlier) = bodies.insert(*i, reply.body.clone()) {
                    unstable_bodies += (earlier != reply.body) as u64;
                }
            }
        } else {
            busy_ms.push(reply.total_ms);
        }
        let reported = load::json_u64(&reply.body, "epoch")
            .or_else(|| load::json_u64(&reply.body, "epochs_done"));
        if let Some(e) = reported.filter(|e| *e > epoch) {
            let now = Instant::now();
            for slot in &mut epoch_seen_at[epoch as usize + 1..=e.min(last_epoch) as usize] {
                *slot = Some(now);
            }
            epoch = e;
            if epoch >= last_epoch {
                idle_started.get_or_insert(now);
            }
        }
    }
    let idle_elapsed = idle_started.map_or(0.0, secs);
    handle.request_shutdown();
    let state = handle.join();

    // Every body read off the static store says what the store holds.
    let mut wrong_bodies = unstable_bodies;
    for (i, body) in &bodies {
        let domain = &mix.tracked()[*i];
        let sound = adapter::expected_verdict_records(&state, domain).is_some_and(|records| {
            let mut rest = body.as_str();
            let in_order = records.iter().all(|r| match rest.find(r.as_str()) {
                Some(at) => {
                    rest = &rest[at + r.len()..];
                    true
                }
                None => false,
            });
            in_order
                && body.matches("\"ns\":").count() == records.len()
                && load::json_u64(body, "epoch") == Some(last_epoch)
        });
        wrong_bodies += !sound as u64;
    }
    match adapter::verify_replay(&state) {
        Ok(()) => num("replay_ok", 1.0),
        Err(e) => {
            num("replay_ok", 0.0);
            text("replay_error", &e);
        }
    }
    text("store", &adapter::store_identity(&state));
    num("epochs_done", state.epochs_done as f64);
    num("requests_total", total as f64);
    num("requests_failed", (failed + wrong_bodies) as f64);
    num("bodies_checked", bodies.len() as f64);
    num("wrong_bodies", wrong_bodies as f64);
    num("tracked_domains", mix.tracked().len() as f64);
    num("idle_elapsed_s", idle_elapsed);
    num(
        "response_bytes_mean",
        bytes as f64 / idle_ms.len().max(1) as f64,
    );
    if let (Some(first), Some(last)) = (epoch_seen_at[1], epoch_seen_at[last_epoch as usize]) {
        let span_ms = last.duration_since(first).as_secs_f64() * 1e3;
        num("epoch_wall_ms", span_ms / (last_epoch - 1) as f64);
    }
    samples("idle_ms", &idle_ms);
    samples("busy_ms", &busy_ms);
    samples("connect_us", &connect_us);
    emit_rss();
    Ok(())
}
