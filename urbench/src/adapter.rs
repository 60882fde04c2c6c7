//! Every call the benchmark makes into the program under test.
//!
//! Files under the benchmark's directory are frozen once merged, so the
//! program's surface the benchmark depends on is kept in this one file
//! (and listed in the README): a later change that renames one of these
//! items has one place to look at when the benchmark stops compiling.
//!
//! Nothing here calls what ROADMAP item 1 intends to delete
//! (`collect_urs`, `collect_urs_stream`, `collect_urs_streamed`,
//! `par::ordered_pipeline*`, `OverlapStats`) or sets the `HunterConfig`
//! fields `parallelism`, `stream_batch_size` or `shards`.

use crate::trace::Recorder;
use simnet::{Actions, Datagram, Endpoint, FaultPlan, Network, Node, Proto, SimDuration, SimTime};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;
use urhunter::{
    analyze, build_report, classified_sequence_hash, collect_correct, collect_protective,
    collect_urs_sharded, run, run_sandboxes, run_streamed, select_nameservers, CoverageReport,
    HunterConfig, ProbeEngine, QueryScheduler, StreamClassifier, UrStore,
};
use urhunterd::{DaemonConfig, DaemonHandle, DriverConfig, EpochDriver, LiveState, WorldScale};
use worldgen::{StreamWorld, World, WorldConfig};

/// Batch-view size `urhunter::run` drains its store with; the output is
/// the same for any value, the staged run copies it to copy the work.
const STORE_CLASSIFY_BATCH: usize = 4096;

/// World-partition argument of the streamed scan: part of a streamed
/// run's identity, not a tuning knob.
pub const STREAM_WORLD_SHARDS: usize = 8;

/// Pairs in the per-probe corpus.
pub const CORPUS: usize = 4096;

// ------------------------------------------------------------------ worlds

fn eager_world_config(seed: u64, quick: bool) -> WorldConfig {
    if quick {
        WorldConfig::small().with_seed(seed)
    } else {
        WorldConfig::default_scale().with_seed(seed)
    }
}

fn stream_world_config(seed: u64, quick: bool) -> WorldConfig {
    let mut cfg = WorldConfig::xl().with_seed(seed);
    if quick {
        cfg.total_nameservers = Some(48);
        cfg.top_domains = 100;
        cfg.synthetic_providers = 12;
        cfg.attack_campaigns = 600;
    } else {
        cfg.total_nameservers = Some(360);
        cfg.top_domains = 1_200;
        cfg.synthetic_providers = 60;
        cfg.attack_campaigns = 20_000;
    }
    cfg
}

pub fn eager_world(seed: u64, quick: bool) -> World {
    World::generate(eager_world_config(seed, quick))
}

pub fn stream_world(seed: u64, quick: bool) -> StreamWorld {
    StreamWorld::generate(stream_world_config(seed, quick))
}

/// The scan configuration of `scan_eager` (`lossy = false`) and
/// `scan_lossy` (`lossy = true`).
pub fn scan_config(lossy: bool) -> HunterConfig {
    let cfg = HunterConfig::fast().with_keep_raw_collected(false);
    if lossy {
        cfg.with_scan_faults(FaultPlan::lossy(0.2).scheduled_per_flow())
            .with_adaptive()
    } else {
        cfg
    }
}

// ------------------------------------------------------------------- scans

/// What one scan produced, reduced to what the checks and metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanFacts {
    pub urs: u64,
    pub sequence_hash: u64,
    /// correct, protective, unknown, malicious.
    pub split: [u64; 4],
    pub coverage: CoverageReport,
    /// Simulated time the bulk scan took.
    pub scan_sim_s: f64,
    /// Scan worker threads (1 for the materialized pipeline).
    pub workers: usize,
}

fn sim_secs(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1e6
}

/// `scan_eager` / `scan_lossy`: the one `run` call.
pub fn scan_eager(world: &mut World, cfg: &HunterConfig) -> ScanFacts {
    let out = run(world, cfg);
    let t = out.report.totals;
    debug_assert_eq!(t.total, out.classified.len());
    ScanFacts {
        urs: out.classified.len() as u64,
        sequence_hash: classified_sequence_hash(&out.classified),
        split: [t.correct, t.protective, t.unknown, t.malicious].map(|n| n as u64),
        coverage: out.coverage,
        scan_sim_s: sim_secs(out.scan_elapsed),
        workers: 1,
    }
}

/// `scan_stream`: the one `run_streamed` call. `workers = None` leaves the
/// program's automatic choice in place.
pub fn scan_stream(world: &StreamWorld, workers: Option<usize>) -> ScanFacts {
    let mut cfg = scan_config(false);
    if let Some(w) = workers {
        cfg = cfg.with_stream_workers(w);
    }
    let out = run_streamed(world, &cfg, STREAM_WORLD_SHARDS);
    ScanFacts {
        urs: out.total_urs,
        sequence_hash: out.sequence_hash,
        split: [out.correct, out.protective, out.unknown, out.malicious],
        coverage: out.coverage,
        scan_sim_s: sim_secs(out.elapsed),
        workers: out.workers,
    }
}

/// `scan_eager` with an observability hub attached, for `obs.overhead_ratio`.
pub fn scan_eager_observed(world: &mut World) -> ScanFacts {
    scan_eager(world, &scan_config(false).with_obs(obs::Obs::shared()))
}

/// The staged bulk scan alone (support-stage probes excluded): probes
/// handed to its engine and its fabric's datagram counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkScan {
    pub scheduled: u64,
    pub sent: u64,
    pub dropped: u64,
}

/// The traced run of `scan_eager` / `scan_lossy`: what `urhunter::run`
/// does on its default path (one shard, strict batch, no hub), one
/// benchmark-side span per call into the program. The caller checks that
/// the result equals `run()`'s on the same seed.
pub fn scan_staged(
    world: &mut World,
    cfg: &HunterConfig,
    rec: &mut Recorder,
) -> (ScanFacts, BulkScan) {
    rec.span("scan", |rec| {
        let (nameservers, targets) = rec.span("core.select_ns", |_| {
            (
                select_nameservers(world, cfg.collect.min_tail_sites),
                world.scan_targets(),
            )
        });
        world.net.trace.set_enabled(false);
        let pre_scan_faults = world.net.faults();
        if let Some(faults) = cfg.scan_faults {
            world.net.set_faults(faults);
        }
        world.net.set_obs(None);
        let mut engine = ProbeEngine::new(cfg.retry);
        let protective_db = rec.span("core.collect_protective", |_| {
            collect_protective(&mut world.net, &mut engine, &nameservers, &cfg.collect)
        });
        let correct_db = rec.span("core.collect_correct", |_| {
            collect_correct(
                &mut world.net,
                &mut engine,
                &world.resolvers,
                &world.db,
                &targets,
                &cfg.collect,
            )
        });
        let mut scheduler = QueryScheduler::new(cfg.scheduler_seed, cfg.per_server_interval)
            .with_global_interval(cfg.rate_limit_interval);
        let mut classify_cfg = cfg.classify.clone();
        classify_cfg.today = world.config.today;
        let blueprint = rec.span("core.blueprint", |_| world.scan_blueprint());
        let scan_faults = world.net.faults();
        let mut store = UrStore::new();
        let scan = rec.span("core.collect", |rec| {
            let scan = collect_urs_sharded(
                &blueprint,
                cfg.retry,
                scan_faults,
                None,
                &world.registry,
                &nameservers,
                &targets,
                &cfg.collect,
                &mut scheduler,
                1,
                usize::MAX,
                &mut |batch| rec.span("core.store_append", |_| store.extend(batch)),
            );
            world.net.run_until(world.net.now() + scan.elapsed);
            world.net.absorb_stats(scan.stats);
            scan
        });
        let mut classified = rec.span("core.classify", |_| {
            let streamer = StreamClassifier::new(
                &correct_db,
                &protective_db,
                &world.db,
                &world.pdns,
                &classify_cfg,
            );
            let mut classified = Vec::with_capacity(store.len());
            for batch in store.into_batches(STORE_CLASSIFY_BATCH) {
                classified.extend(streamer.classify_batch_owned(batch));
            }
            classified
        });
        world.net.set_faults(pre_scan_faults);
        let mut coverage = engine.take_coverage();
        coverage.absorb(&scan.coverage);
        world.net.trace.set_enabled(true);
        let samples = world.samples.clone();
        let (reports, ids_malicious) = rec.span("core.sandbox", |_| {
            run_sandboxes(
                &mut world.net,
                &world.sandbox,
                &world.ids,
                &samples,
                &cfg.analyze,
            )
        });
        let analysis = rec.span("core.analyze", |_| {
            analyze(
                &mut classified,
                &world.intel,
                reports,
                ids_malicious,
                &world.payload_sigs,
                &cfg.analyze,
            )
        });
        let report = rec.span("core.report", |_| {
            let mut report = build_report(&classified, &analysis, &world.intel);
            report.coverage = coverage.clone();
            report
        });
        let t = report.totals;
        let facts = ScanFacts {
            urs: classified.len() as u64,
            sequence_hash: classified_sequence_hash(&classified),
            split: [t.correct, t.protective, t.unknown, t.malicious].map(|n| n as u64),
            coverage,
            scan_sim_s: sim_secs(scan.elapsed),
            workers: 1,
        };
        let bulk = BulkScan {
            scheduled: scan.coverage.scheduled,
            sent: scan.stats.delivered + scan.stats.dropped + scan.stats.no_route,
            dropped: scan.stats.dropped,
        };
        (facts, bulk)
    })
}

// ------------------------------------------------------ per-probe layers

/// Deterministic generator for corpus sampling and the request mix.
#[derive(Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Nanoseconds per item of `f` run over `items` once.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_nanos() as f64 / items.len() as f64
}

/// [`ns_per`] for work that can be repeated: the median of five passes, so
/// the figure is of the call and not of the first touch of its data.
fn ns_per_warm<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..5).map(|_| ns_per(items, &mut f)).collect();
    crate::stats::median(&passes).unwrap_or(0.0)
}

/// Replies with the payload it received: the fabric's cost with no
/// application behind it.
struct Echo;

impl Node for Echo {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        out.send(dgram.reply(dgram.payload.clone()));
    }
}

/// One `Network::rpc` to an echo node at the smallest DNS payload (a bare
/// header), reliable or under `faults`.
fn rpc_echo_ns(seed: u64, faults: Option<FaultPlan>) -> f64 {
    let server = Endpoint::new(Ipv4Addr::new(192, 0, 2, 53), 53);
    let client = Endpoint::new(Ipv4Addr::new(192, 0, 2, 1), 40_000);
    let mut net = Network::new(seed);
    net.trace.set_enabled(false);
    net.add_node(server.ip, Box::new(Echo));
    if let Some(faults) = faults {
        net.set_faults(faults);
    }
    let calls: Vec<u32> = (0..CORPUS as u32).collect();
    ns_per_warm(&calls, |_| {
        black_box(net.rpc(
            client,
            server,
            Proto::Udp,
            vec![0u8; 12],
            SimDuration::from_secs(5),
        ));
    })
}

/// The per-probe decomposition over a seeded corpus of the scan plan.
#[derive(Debug, Default)]
pub struct ProbeLayers {
    pub encode_query_ns: f64,
    pub decode_query_ns: f64,
    pub encode_response_ns: f64,
    pub decode_response_ns: f64,
    pub response_bytes_mean: f64,
    pub rpc_echo_ns: f64,
    pub rpc_echo_lossy_ns: f64,
    /// `None` where the world exposes no provider node to call.
    pub serve_ns: Option<f64>,
    pub probe_roundtrip_ns: f64,
    pub answer_share: f64,
}

type Pair = (Ipv4Addr, dnswire::Name, dnswire::RecordType);

fn sample_corpus(
    seed: u64,
    servers: &[Ipv4Addr],
    targets: &[dnswire::Name],
    rtypes: &[dnswire::RecordType],
) -> Vec<Pair> {
    let mut rng = SplitMix64(seed ^ 0x00C0_4B05);
    (0..CORPUS)
        .map(|_| {
            (
                servers[rng.below(servers.len())],
                targets[rng.below(targets.len())].clone(),
                rtypes[rng.below(rtypes.len())],
            )
        })
        .collect()
}

/// Wire and fabric layers over `corpus`, probing through `net`. `node_for`
/// yields the provider node behind a nameserver address, where the world
/// has one to give.
fn probe_layers(
    seed: u64,
    net: &mut Network,
    scanner: Ipv4Addr,
    corpus: &[Pair],
    mut node_for: impl FnMut(Ipv4Addr) -> Option<Box<dyn Node>>,
) -> ProbeLayers {
    net.set_payload_recycler(Some(dnswire::bufpool::release));
    let queries: Vec<dnswire::Message> = corpus
        .iter()
        .enumerate()
        .map(|(i, (_, name, rtype))| {
            dnswire::Message::query(i as u16 | 1, dnswire::Question::new(name.clone(), *rtype))
        })
        .collect();
    let mut responses = Vec::with_capacity(corpus.len());
    let mut answered = 0usize;
    let t = Instant::now();
    for (i, (ns, name, rtype)) in corpus.iter().enumerate() {
        let resp = authdns::dns_query(net, scanner, *ns, name, *rtype, i as u16 | 1);
        if let Some(resp) = resp {
            let is_ur = resp.rcode() == dnswire::Rcode::NoError
                && resp
                    .answers
                    .iter()
                    .any(|r| r.rtype() == *rtype && r.name == *name);
            answered += is_ur as usize;
            responses.push(resp);
        }
    }
    let probe_roundtrip_ns = t.elapsed().as_nanos() as f64 / corpus.len() as f64;

    let query_bytes: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| q.encode().expect("query encodes"))
        .collect();
    let response_bytes: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| r.encode().expect("response encodes"))
        .collect();
    let encode = |m: &dnswire::Message| {
        dnswire::bufpool::release(black_box(m.encode().expect("message encodes")));
    };
    let decode = |b: &Vec<u8>| {
        black_box(dnswire::Message::decode(b).expect("own encoding decodes"));
    };

    // Serve: the provider node alone, handed a prebuilt datagram.
    let mut serve_total = 0u128;
    let mut served = 0usize;
    let mut nodes: std::collections::HashMap<Ipv4Addr, Option<Box<dyn Node>>> =
        std::collections::HashMap::new();
    for ((ns, _, _), bytes) in corpus.iter().zip(&query_bytes) {
        let Some(node) = nodes.entry(*ns).or_insert_with(|| node_for(*ns)) else {
            continue;
        };
        let dgram = Datagram::udp(
            Endpoint::new(scanner, 40_000),
            Endpoint::new(*ns, authdns::DNS_PORT),
            bytes.clone(),
        );
        let mut out = Actions::default();
        let t = Instant::now();
        node.handle(SimTime::ZERO, &dgram, &mut out);
        serve_total += t.elapsed().as_nanos();
        black_box(out);
        served += 1;
    }

    ProbeLayers {
        encode_query_ns: ns_per_warm(&queries, encode),
        decode_query_ns: ns_per_warm(&query_bytes, decode),
        encode_response_ns: ns_per_warm(&responses, encode),
        decode_response_ns: ns_per_warm(&response_bytes, decode),
        response_bytes_mean: response_bytes.iter().map(Vec::len).sum::<usize>() as f64
            / response_bytes.len().max(1) as f64,
        rpc_echo_ns: rpc_echo_ns(seed, None),
        rpc_echo_lossy_ns: rpc_echo_ns(seed, Some(FaultPlan::lossy(0.2).scheduled_per_flow())),
        serve_ns: (served > 0).then(|| serve_total as f64 / served as f64),
        probe_roundtrip_ns,
        answer_share: answered as f64 / corpus.len() as f64,
    }
}

/// Layers below and beside the scan that only the eager pipeline touches.
#[derive(Debug, Default)]
pub struct SupportLayers {
    pub netdb_lookup_ns: f64,
    pub pdns_contains_ns: f64,
    pub resolve_cold_ns: f64,
    pub resolve_warm_ns: f64,
    pub ids_inspect_ns_per_flow: f64,
    pub vendor_lookup_ns: f64,
}

/// Per-probe and support layers of the eager world (`scan_eager`,
/// `scan_lossy`, and the daemon's world).
pub fn eager_layers(world: &mut World, seed: u64) -> (ProbeLayers, SupportLayers) {
    let cfg = scan_config(false);
    let scanner = cfg.collect.scanner_ip;
    let nameservers = select_nameservers(world, cfg.collect.min_tail_sites);
    let servers: Vec<Ipv4Addr> = nameservers.iter().map(|ns| ns.ip).collect();
    let targets = world.scan_targets();
    let corpus = sample_corpus(seed, &servers, &targets, &cfg.collect.query_types);
    let mut net = world.scan_blueprint().build_network(0);
    let providers = &world.providers;
    let probe = probe_layers(seed, &mut net, scanner, &corpus, |ip| {
        let ns = nameservers.iter().find(|ns| ns.ip == ip)?;
        let provider = providers[ns.provider_idx?].clone();
        Some(Box::new(authdns::ProviderNsNode::new(provider, ip)))
    });

    // Addresses and records the classifier would look up: what the corpus
    // probes answered.
    let mut ips = Vec::new();
    let mut records = Vec::new();
    for (ns, name, rtype) in &corpus {
        if let Some(resp) = authdns::dns_query(&mut net, scanner, *ns, name, *rtype, 1) {
            for r in resp.answers {
                ips.extend(r.rdata.as_a());
                records.push((intern::InternedName::intern(name), r));
            }
        }
    }
    let today = world.config.today;
    let window = cfg.classify.pdns_window;
    let mut support = SupportLayers {
        netdb_lookup_ns: ns_per_warm(&ips, |ip| {
            black_box(world.db.lookup(*ip));
        }),
        pdns_contains_ns: ns_per_warm(&records, |(domain, r)| {
            black_box(
                world
                    .pdns
                    .contains(domain, r.rtype(), &r.rdata, today, window),
            );
        }),
        vendor_lookup_ns: ns_per_warm(&ips, |ip| {
            black_box(world.intel.flag_count(*ip));
        }),
        ..SupportLayers::default()
    };

    // Recursor: the same question twice through one stable open resolver
    // over the world fabric; the second finds the cache warm.
    world.net.trace.set_enabled(false);
    if let Some(resolver) = world.resolvers.iter().find(|r| r.stable).map(|r| r.ip) {
        let names: Vec<&dnswire::Name> = targets.iter().take(256).collect();
        let net = &mut world.net;
        let mut resolve = |name: &&dnswire::Name| {
            black_box(authdns::dns_query(
                net,
                scanner,
                resolver,
                name,
                dnswire::RecordType::A,
                0x2001,
            ));
        };
        support.resolve_cold_ns = ns_per(&names, &mut resolve);
        support.resolve_warm_ns = ns_per_warm(&names, &mut resolve);
    }
    world.net.trace.set_enabled(true);

    // IDS: re-inspect the flows of sandbox runs.
    let samples: Vec<_> = world.samples.iter().take(64).cloned().collect();
    let (reports, _) = run_sandboxes(
        &mut world.net,
        &world.sandbox,
        &world.ids,
        &samples,
        &cfg.analyze,
    );
    let flows: usize = reports.iter().map(|r| r.flows.len()).sum();
    if flows > 0 {
        let t = Instant::now();
        for r in &reports {
            black_box(world.ids.scan(&r.flows));
        }
        support.ids_inspect_ns_per_flow = t.elapsed().as_nanos() as f64 / flows as f64;
    }
    (probe, support)
}

/// Per-probe layers of the streamed world, over the first world shard's
/// nameservers (what one scan worker's scoped fabric holds). The lazy
/// blueprint materializes provider nodes inside the fabric only, so there
/// is no node to call and `serve_ns` is absent.
pub fn stream_layers(world: &StreamWorld, seed: u64) -> ProbeLayers {
    let cfg = scan_config(false);
    let servers: Vec<Ipv4Addr> = world
        .nameservers
        .iter()
        .filter(|ns| ns.tail_hosted_sites >= cfg.collect.min_tail_sites)
        .map(|ns| ns.ip)
        .collect();
    let shard = &servers[..servers.len().div_ceil(STREAM_WORLD_SHARDS)];
    let corpus = sample_corpus(seed, shard, &world.scan_targets(), &cfg.collect.query_types);
    let mut net = world.scan_blueprint().build_network_scoped(0, shard);
    probe_layers(seed, &mut net, cfg.collect.scanner_ip, &corpus, |_| None)
}

// ------------------------------------------------------------------ daemon

/// Epochs the daemon workload runs before the store goes static.
pub fn daemon_epochs(quick: bool) -> u64 {
    if quick {
        3
    } else {
        6
    }
}

fn driver_config(seed: u64, quick: bool) -> DriverConfig {
    let mut cfg = DriverConfig::small();
    cfg.scale = if quick {
        WorldScale::Small
    } else {
        WorldScale::Medium
    };
    cfg.seed = Some(seed);
    cfg.drift_days = 120;
    cfg.new_campaigns = 50;
    cfg.expire_fraction = 0.3;
    cfg
}

/// `daemon_serve`: start the daemon on a loopback port of the kernel's
/// choosing.
pub fn start_daemon(seed: u64, quick: bool) -> std::io::Result<DaemonHandle> {
    urhunterd::start(DaemonConfig {
        listen: "127.0.0.1:0".parse().expect("static address"),
        max_epochs: Some(daemon_epochs(quick)),
        wall_interval: std::time::Duration::ZERO,
        driver: driver_config(seed, quick),
    })
}

/// What the final in-process store holds for `domain`, as the fragments a
/// `/verdict` body must contain, in the order the daemon renders them;
/// `None` for a domain the store never saw.
pub fn expected_verdict_records(state: &LiveState, domain: &str) -> Option<Vec<String>> {
    let mut keys = state.store.domain_keys(domain)?.to_vec();
    keys.sort_by_key(|k| (k.ns_ip, k.rtype.code()));
    Some(
        keys.iter()
            .map(|key| {
                let s = state.store.get(key).expect("indexed key has state");
                format!(
                    "\"ns\":\"{}\",\"rtype\":\"{}\",\"category\":\"{}\",\"present\":{}",
                    key.ns_ip,
                    key.rtype,
                    urhunterd::events::category_str(s.category),
                    s.present
                )
            })
            .collect(),
    )
}

/// What two daemons on one seed must agree on: the final store's verdict
/// hash and the number of events that led to it.
pub fn store_identity(state: &LiveState) -> String {
    format!(
        "verdict hash {:016x} after {} events",
        state.store.verdict_hash(),
        state.log.event_count()
    )
}

/// The daemon's log replays to its live store.
pub fn verify_replay(state: &LiveState) -> Result<(), String> {
    let replayed = state.log.verify_replay()?;
    if replayed.verdict_hash() == state.store.verdict_hash() {
        Ok(())
    } else {
        Err("replayed store differs from the live store".into())
    }
}

/// The daemon's own layers, from an in-process `EpochDriver` loop (no
/// socket, no second thread), as `daemon_bench` drives it.
#[derive(Debug, Default)]
pub struct DriverLayers {
    pub worldgen_ms: f64,
    pub scan_epoch_ms: Vec<f64>,
    pub publish_ms: Vec<f64>,
    pub events_per_epoch: f64,
    pub replay_ms: f64,
    pub store_lookup_ns: f64,
}

pub fn driver_layers(seed: u64, quick: bool) -> Result<DriverLayers, String> {
    let mut out = DriverLayers::default();
    let t = Instant::now();
    let mut driver = EpochDriver::new(driver_config(seed, quick));
    out.worldgen_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut state = LiveState::default();
    let epochs = daemon_epochs(quick);
    for _ in 0..epochs {
        let t = Instant::now();
        let scan = driver.scan_epoch();
        out.scan_epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        driver.publish(scan, &mut state);
        out.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.events_per_epoch = state.log.event_count() as f64 / epochs as f64;

    let mut domains: Vec<String> = state
        .store
        .iter()
        .map(|(k, _)| k.domain.to_string())
        .collect();
    domains.sort();
    domains.dedup();
    out.store_lookup_ns = ns_per_warm(&domains, |domain| {
        let keys = state.store.domain_keys(domain).expect("indexed domain");
        for key in keys {
            black_box(state.store.get(key));
        }
    });

    let t = Instant::now();
    verify_replay(&state)?;
    out.replay_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}
