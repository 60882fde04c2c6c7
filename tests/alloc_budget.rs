//! The probe path's allocation budget, counted.
//!
//! Wall-clock on a shared box drifts by 10–20 % in phases; the number of
//! heap allocations a probe makes does not drift at all. This file counts
//! them with a global allocator of its own (`support/counting.rs`), armed
//! only around the measured region and only on the measuring thread, and
//! holds the probe path —
//! query write → fabric → authoritative serve → fabric → reply parse — to
//! nothing: after one warm-up pass (pools filled, tables grown, names
//! interned) a probe reads its answers where the reply lies and allocates
//! nothing, with the observability hub attached or without it, which
//! makes this the exact tripwire on instrumentation cost too. What a run
//! keeps (`run`'s verdicts) and what a streamed run makes are counted
//! apart, and so are the daemon's publish and its `/verdict` body.

use std::net::Ipv4Addr;

use dnswire::{Name, Rcode, RecordType};
use urhunter::{
    collect_correct, collect_protective, collect_urs_sharded, select_nameservers, ClassifyConfig,
    CollectConfig, HunterConfig, ProbeEngine, QueryPlan, QueryScheduler, StreamClassifier,
};
use worldgen::{World, WorldConfig};

#[path = "support/counting.rs"]
mod counting;
use counting::{counted, Tally};

/// One UR probe through the engine, reading what `query_one_ur` reads:
/// the answers of exactly the asked name and type, where the reply lies.
/// The rcode, and the first answer's address (or `None` when it has none,
/// or `Some(None)` when it is no address).
fn probe(
    engine: &mut ProbeEngine,
    net: &mut simnet::Network,
    scanner: Ipv4Addr,
    ns: Ipv4Addr,
    domain: &Name,
    rtype: RecordType,
    qid: u16,
) -> Option<(Rcode, Option<Option<Ipv4Addr>>)> {
    let keep =
        |r: &dnswire::RecordView<'_>| r.rtype() == rtype && r.name.matches(domain.borrowed());
    engine.probe(
        net,
        scanner,
        (ns, None),
        domain,
        rtype,
        qid,
        keep,
        |flags, kept| (flags.rcode, kept.iter().next().map(|r| r.as_a())),
    )
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Refused,
    ProtectiveA,
    HostedA,
    Txt,
    /// NOERROR with no answer and the zone's SOA in authority: the one
    /// answer that reads the SOA.
    NoData,
}

/// Whether `ns` answers `domain`/`rtype` with NODATA, asked once more
/// through the owned-message client, which shows the authority section.
fn is_nodata(
    net: &mut simnet::Network,
    scanner: Ipv4Addr,
    ns: Ipv4Addr,
    domain: &Name,
    rtype: RecordType,
) -> bool {
    authdns::dns_query(net, scanner, ns, domain, rtype, 0xD47A).is_some_and(|resp| {
        resp.rcode() == Rcode::NoError
            && resp.answers.is_empty()
            && resp
                .authorities
                .iter()
                .any(|r| r.rtype() == RecordType::Soa)
    })
}

/// Warm the probe path up, then hold one probe of each kind to its budget
/// — on a bare engine, or with `hub` attached to it the way `run` attaches
/// it (the fabric holds no hub: counts reach one when a stage ends).
fn hold_probes_to_their_budgets(hub: Option<std::sync::Arc<obs::Obs>>) {
    let world = World::generate(WorldConfig::small());
    let cfg = CollectConfig::default();
    let nameservers = select_nameservers(&world, cfg.min_tail_sites);
    let targets = world.scan_targets();
    let protective: std::collections::HashSet<Ipv4Addr> = world
        .provider_meta
        .iter()
        .map(|m| m.protective_ip)
        .collect();
    let mut net = world.scan_blueprint().build_network(0);
    net.set_payload_recycler(Some(dnswire::bufpool::release));
    let mut engine = ProbeEngine::new(QueryPlan::default());
    if let Some(hub) = &hub {
        engine = engine.with_obs(hub.clone());
    }

    // Warm-up: the whole scan plan once, remembering one pair of each kind.
    let mut examples: std::collections::HashMap<Kind, (Ipv4Addr, &Name, RecordType)> =
        Default::default();
    let mut qid = 0u16;
    for ns in &nameservers {
        for domain in &targets {
            for &rtype in &cfg.query_types {
                qid = qid.wrapping_add(1).max(1);
                let reply = probe(
                    &mut engine,
                    &mut net,
                    cfg.scanner_ip,
                    ns.ip,
                    domain,
                    rtype,
                    qid,
                )
                .expect("a reliable fabric answers every probe");
                let kind = match (reply.0, reply.1, rtype) {
                    (Rcode::Refused, ..) => Kind::Refused,
                    (Rcode::NoError, Some(first), RecordType::A) => match first {
                        Some(ip) if protective.contains(&ip) => Kind::ProtectiveA,
                        _ => Kind::HostedA,
                    },
                    (Rcode::NoError, Some(_), RecordType::Txt) => Kind::Txt,
                    (Rcode::NoError, None, _)
                        if !examples.contains_key(&Kind::NoData)
                            && is_nodata(&mut net, cfg.scanner_ip, ns.ip, domain, rtype) =>
                    {
                        Kind::NoData
                    }
                    _ => continue,
                };
                examples.entry(kind).or_insert((ns.ip, domain, rtype));
            }
        }
    }

    // The answers are read where the reply lies: no kind allocates. (Each
    // that kept its answers in a buffer of their own took one allocation.)
    for kind in [
        Kind::Refused,
        Kind::ProtectiveA,
        Kind::HostedA,
        Kind::Txt,
        Kind::NoData,
    ] {
        let &(ns, domain, rtype) = examples
            .get(&kind)
            .unwrap_or_else(|| panic!("the small world has no {kind:?} probe"));
        for round in 0..3 {
            qid = qid.wrapping_add(1).max(1);
            let (reply, tally) = counted(|| {
                probe(
                    &mut engine,
                    &mut net,
                    cfg.scanner_ip,
                    ns,
                    domain,
                    rtype,
                    qid,
                )
            });
            let reply = reply.expect("answered in the warm-up, answered now");
            assert_eq!(
                reply.1.is_none(),
                matches!(kind, Kind::Refused | Kind::NoData)
            );
            assert_eq!(
                tally.allocations, 0,
                "{kind:?} probe of {domain} {rtype} at {ns}, round {round}"
            );
        }
    }
}

#[test]
fn a_probe_allocates_only_what_the_scan_keeps() {
    hold_probes_to_their_budgets(None);
}

#[test]
fn the_hub_adds_no_allocation_to_a_probe() {
    hold_probes_to_their_budgets(Some(obs::Obs::shared()));
}

/// A truncated UDP answer is retried over TCP, and the retry's answers are
/// the ones kept: the exchange keeps one set of record data, not the
/// truncated reply's as well.
#[test]
fn a_truncated_reply_keeps_nothing_the_retry_replaces() {
    let fat: Name = "fat.example".parse().unwrap();
    let mut zone = authdns::Zone::new(fat.clone());
    for o in 0..40 {
        zone.add(dnswire::Record::new(
            fat.clone(),
            60,
            dnswire::RData::A(Ipv4Addr::new(203, 0, 113, o)),
        ));
    }
    let server = Ipv4Addr::new(192, 0, 2, 60);
    let mut net = simnet::Network::new(2);
    net.trace.set_enabled(false);
    net.set_payload_recycler(Some(dnswire::bufpool::release));
    net.add_node(server, Box::new(authdns::StaticZoneNode::single(zone)));
    let mut exchange = |id| {
        authdns::exchange(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 4),
            server,
            &fat,
            RecordType::A,
            id,
            simnet::SimDuration::from_secs(2),
            |r| r.rtype() == RecordType::A,
            |resp, kept| (resp.flags.truncated, kept.to_set()),
        )
        .expect("answered")
    };
    // Warm-up: pools filled, the fabric's tables grown.
    for id in 1..=3 {
        exchange(id);
    }
    for id in 4..=6 {
        let ((truncated, kept), tally) = counted(|| exchange(id));
        assert!(!truncated, "the TCP retry's answer is the one read");
        assert_eq!(kept.iter().count(), 40);
        // One allocation: the kept set of the TCP answer. Keeping the
        // truncated answer's first took two.
        assert_eq!(tally.allocations, 1, "{tally:?}");
    }
}

/// One warm and one counted bulk scan of a freshly generated small world:
/// `(probes, URs, tally)` of the counted one. Seed 7 puts three of the
/// targets under `co.uk`, a zone registered beside its parent `uk`.
fn counted_bulk_scan() -> (u64, usize, Tally) {
    let world = World::generate(WorldConfig::small().with_seed(7));
    let cfg = CollectConfig::default();
    let nameservers = select_nameservers(&world, cfg.min_tail_sites);
    let targets = world.scan_targets();
    assert!(
        targets.iter().any(|t| world
            .registry
            .enclosing_tld(t)
            .is_some_and(|tld| tld.label_count() == 2)),
        "no target under a two-label TLD zone"
    );
    let blueprint = world.scan_blueprint();
    let scan = || {
        let mut urs = 0usize;
        let outcome = collect_urs_sharded(
            &blueprint,
            QueryPlan::default(),
            simnet::FaultPlan::reliable(),
            None,
            &world.registry,
            &nameservers,
            &targets,
            &cfg,
            &mut QueryScheduler::new(7, simnet::SimDuration::ZERO),
            1,
            usize::MAX,
            &mut |batch| urs += batch.len(),
        );
        (outcome.coverage.scheduled, urs)
    };
    let warm = scan();
    let (measured, tally) = counted(scan);
    assert_eq!(measured, warm, "the scan is deterministic");
    (measured.0, measured.1, tally)
}

#[test]
fn the_bulk_scan_allocates_one_count_on_every_copy_of_a_world() {
    // Every copy has maps of its own, each with its own iteration order;
    // nothing the scan allocates may follow one.
    let runs: Vec<(u64, usize, Tally)> = (0..8).map(|_| counted_bulk_scan()).collect();
    let (probes, urs, tally) = runs[0];
    let allocations = tally.allocations;
    assert!(probes > 10_000 && urs > 1_000, "{probes} probes, {urs} URs");
    assert!(
        runs.iter().all(|run| *run == runs[0]),
        "eight copies of one world, more than one count: {runs:?}"
    );
    // Everything is in the count: the replica fabric, the shard's order,
    // every UR's record data and the one vector of a shard's URs handed to
    // the sink. Measured 0.14 a probe (2,179 over 15,470; 2,195 with a
    // vector of batches a shard); the budget is an older count's.
    let per_probe = allocations as f64 / probes as f64;
    assert!(
        per_probe <= 0.24,
        "{allocations} allocations over {probes} probes ({urs} URs): {per_probe:.2} a probe"
    );
}

/// `run` keeps every verdict until it returns, so what one keeps is
/// counted exactly: what dropping the output's verdicts frees, a UR.
#[test]
fn a_verdict_retains_only_what_is_read() {
    let mut world = World::generate(WorldConfig::small().with_seed(7));
    let out = urhunter::run(&mut world, &HunterConfig::fast().with_workers(1));
    let urs = out.classified.len();
    assert!(urs > 1_000, "{urs} URs");
    // The fold grows the vector by exactly each shard's batch.
    assert_eq!(out.classified.capacity(), urs, "spare slots in the output");
    let ((), dropped) = counted(|| drop(out.classified));
    // Measured 104.0 B and 1.31 blocks a UR (174,386 B in 2,193 blocks
    // over 1,676 URs: the vector, each UR's one buffer of record data, and
    // the corresponding addresses, at their length, where it has any;
    // grown by pushes they took 206,594 B); the budget is that plus a
    // tenth.
    let bytes = dropped.freed_bytes as f64 / urs as f64;
    let blocks = dropped.frees as f64 / urs as f64;
    assert!(
        bytes <= 114.5 && blocks <= 1.44,
        "{dropped:?} over {urs} URs: {bytes:.1} B and {blocks:.2} blocks a UR"
    );
}

/// A small world's (seed 7) URs classified in one batch, as a worker
/// classifies its shard's: `(URs, tally)` of the classification alone,
/// the support sweep and the scan not counted.
fn counted_classification() -> (usize, Tally) {
    let mut world = World::generate(WorldConfig::small().with_seed(7));
    world.net.trace.set_enabled(false);
    let cfg = CollectConfig::default();
    let nameservers = select_nameservers(&world, cfg.min_tail_sites);
    let targets = world.scan_targets();
    let mut engine = ProbeEngine::new(QueryPlan::default());
    let protective = collect_protective(&mut world.net, &mut engine, &nameservers, &cfg);
    let correct = collect_correct(
        &mut world.net,
        &mut engine,
        &world.resolvers,
        &world.db,
        &targets,
        &cfg,
    );
    let mut urs = Vec::new();
    collect_urs_sharded(
        &world.scan_blueprint(),
        QueryPlan::default(),
        simnet::FaultPlan::reliable(),
        None,
        &world.registry,
        &nameservers,
        &targets,
        &cfg,
        &mut QueryScheduler::new(7, simnet::SimDuration::ZERO),
        1,
        usize::MAX,
        &mut |batch| urs.extend(batch),
    );
    let classify = ClassifyConfig {
        today: world.config.today,
        ..ClassifyConfig::default()
    };
    let classifier =
        StreamClassifier::new(&correct, &protective, &world.db, &world.pdns, &classify);
    let count = urs.len();
    let (verdicts, tally) = counted(|| classifier.classify_batch_owned(urs));
    assert_eq!(verdicts.len(), count);
    (count, tally)
}

#[test]
fn the_classifier_allocates_only_what_a_verdict_keeps() {
    let _ = counted_classification();
    let (urs, tally) = counted_classification();
    assert_eq!(counted_classification(), (urs, tally), "one count");
    assert!(urs > 1_000, "{urs} URs");
    // Measured 602 blocks and 130,280 B over 1,736 URs, 0.35 and 75.0 B a
    // UR: the batch's output vector, one scratch buffer of addresses and
    // an exact copy of it for each verdict that has any (600 of them). The
    // world before the one plan had fewer verdicts with addresses, 516 of
    // 1,676 URs: 0.31 and 73.7 B a UR. A vector or set built per
    // condition, a lowercased copy per TXT category and a vector per TXT
    // body's addresses took 2.16 blocks and 165.9 B a UR on that world.
    // The budget is the measurement plus a tenth.
    let allocations = tally.allocations as f64 / urs as f64;
    let bytes = tally.allocated_bytes as f64 / urs as f64;
    assert!(
        allocations <= 0.38 && bytes <= 82.5,
        "{tally:?} over {urs} URs: {allocations:.2} allocations and {bytes:.1} B a UR"
    );
}

/// The blueprint `run` scans from shares the world's zone tables and its
/// answer table: taking it allocates each provider's fixed parts (name,
/// policy, nameserver fleet) and the node list, nothing a zone holds.
#[test]
fn the_blueprint_copies_no_zone() {
    let world = World::generate(WorldConfig::small().with_seed(7));
    let (blueprint, taken) = counted(|| world.scan_blueprint());
    drop(blueprint);
    // Measured 21,896 B in 245 blocks (a deep copy of the zones was
    // 208,401 B in 3,456); the budget is that plus a tenth.
    assert!(
        taken.allocated_bytes <= 24_086 && taken.allocations <= 269,
        "the blueprint allocated {taken:?}"
    );
}

/// The support sweep as `run` makes it on a fresh small world: protective
/// records at the selected nameservers, then correct records through the
/// open-resolver fleet, on the world's own fabric with capture off.
/// `(probes, tally)` of the sweep, the world's generation not counted.
fn counted_support_sweep() -> (u64, Tally) {
    let mut world = World::generate(WorldConfig::small());
    world.net.trace.set_enabled(false);
    let cfg = CollectConfig::default();
    let nameservers = select_nameservers(&world, cfg.min_tail_sites);
    let targets = world.scan_targets();
    let mut engine = ProbeEngine::new(QueryPlan::default());
    let world = &mut world;
    let (dbs, tally) = counted(|| {
        let protective = collect_protective(&mut world.net, &mut engine, &nameservers, &cfg);
        let correct = collect_correct(
            &mut world.net,
            &mut engine,
            &world.resolvers,
            &world.db,
            &targets,
            &cfg,
        );
        (protective, correct)
    });
    drop(dbs);
    (engine.take_coverage().scheduled, tally)
}

#[test]
fn the_support_sweep_allocates_within_its_budget() {
    // The first sweep interns every name and string the second meets, so
    // the count does not depend on which test of this binary ran first.
    let _ = counted_support_sweep();
    let (probes, tally) = counted_support_sweep();
    assert_eq!(counted_support_sweep(), (probes, tally), "one count");
    assert!(probes > 800, "{probes} probes");
    // Measured 10.9 allocations and 1,331 B a probe (9,636 blocks and
    // 1,170,856 B over 880 A and TXT probes: the datagrams each
    // resolver's walk sends, its cached answers and zone cuts, and the two
    // databases), with the world's fabric returning spent payloads to the
    // codec's pool and each answer read where it lies; copying every
    // answer out first took 11.5 and 1,344 B, and before the pool 16.0
    // and 1,735 B. Resolvers that walked from the root for every question
    // and built an owned message per datagram took 55.9 and 4,692 B. The
    // budget is an earlier measurement (12.2 and 1,241 B) plus a tenth.
    let allocations = tally.allocations as f64 / probes as f64;
    let bytes = tally.allocated_bytes as f64 / probes as f64;
    assert!(
        allocations <= 13.4 && bytes <= 1_366.0,
        "{tally:?} over {probes} probes: {allocations:.1} allocations and {bytes:.0} B a probe"
    );
}

/// A medium world's generation: what it allocates, counted on a
/// generator that already ran once in this process, so every name and
/// string it interns is interned before the count.
fn counted_generation() -> Tally {
    counted(|| World::generate(WorldConfig::medium())).1
}

#[test]
fn the_world_generator_allocates_within_its_budget() {
    let _ = counted_generation();
    let tally = counted_generation();
    assert_eq!(counted_generation(), tally, "one count");
    // Measured 55,009 blocks and 4,730,237 B, in a debug build and in
    // release: one plan, each provider materialized from it once. The
    // sequential planters it replaced took 73,325 blocks and 6,949,618 B
    // in a debug build, and the budget is that measurement plus a tenth.
    // Sorting every provider by its key for each campaign, hosting through
    // per-call candidate and zone lists, and building prefixes and SOA
    // names through strings took 91,098 blocks and 8,436,084 B.
    assert!(
        tally.allocations <= 80_657 && tally.allocated_bytes <= 7_644_580,
        "the generator allocated {tally:?}"
    );
}

/// The quick stream world (48 nameservers, 100 targets, 12 providers,
/// 600 campaigns, seed 7), streamed on one worker: `(probes, URs, tally)`
/// of a second run, the first having interned every name it meets.
fn counted_streamed_run() -> (u64, u64, Tally) {
    let mut cfg = WorldConfig::xl().with_seed(7);
    cfg.total_nameservers = Some(48);
    cfg.top_domains = 100;
    cfg.synthetic_providers = 12;
    cfg.attack_campaigns = 600;
    let world = worldgen::StreamWorld::generate(cfg);
    let hunter = HunterConfig::fast().with_workers(1);
    let _ = urhunter::run_streamed(&world, &hunter, 8);
    let (out, tally) = counted(|| urhunter::run_streamed(&world, &hunter, 8));
    (out.coverage.scheduled, out.total_urs, tally)
}

#[test]
fn a_streamed_verdict_is_folded_off_its_reply() {
    let (probes, urs, tally) = counted_streamed_run();
    assert_eq!((probes, urs), (7_858, 2_517));
    // Measured 11,276 allocations: the shard fabrics, orders and folds.
    // The fabrics build each provider from the world plan, its
    // campaign zones in the eager world's record mix; the streamed world
    // before the one plan held one record a zone on global-fixed fleets,
    // and measured 5,571 here (budget 6,128). Copying each UR's records
    // out of its reply, collecting its addresses and batching its verdict
    // took 12,764 on that world, 7,193 more for its 4,276 URs: on this
    // one's 2,517 that is some 4,200 over the measurement. The budget is
    // the measurement plus a tenth.
    assert!(
        tally.allocations <= 12_374,
        "{tally:?} over {probes} probes and {urs} URs"
    );
}

/// A daemon on the drifting small world, its first epoch scanned but not
/// yet published.
fn unpublished_daemon() -> (urhunterd::EpochDriver, urhunterd::EpochScan) {
    let mut cfg = urhunterd::DriverConfig::small();
    cfg.drift_days = 240;
    cfg.new_campaigns = 25;
    cfg.expire_fraction = 0.5;
    let mut driver = urhunterd::EpochDriver::new(cfg);
    let scan = driver.scan_epoch();
    (driver, scan)
}

#[test]
fn publish_allocates_no_string_per_observed_key() {
    let (driver, scan) = unpublished_daemon();
    let mut state = urhunterd::LiveState::default();
    let (summary, tally) = counted(|| driver.publish(scan, &mut state));
    assert_eq!(summary.observed, 2_042);
    // Measured 792 allocations for 1,645 new URs of 63 domains: the
    // events, the seen set, the indexes, and each new domain's text and
    // run. A store keyed by `UrKey`, with a domain index that built each
    // key's text, took 3,602. The budget is the measurement plus a tenth.
    assert!(tally.allocations <= 871, "{tally:?}");
}

#[test]
fn a_verdict_body_is_one_block_for_any_number_of_records() {
    let (driver, scan) = unpublished_daemon();
    let mut state = urhunterd::LiveState::default();
    driver.publish(scan, &mut state);
    let mut domains: Vec<String> = state
        .store
        .iter()
        .map(|(k, _)| k.domain.to_string())
        .collect();
    domains.sort();
    domains.dedup();
    let mut most = 0;
    for domain in &domains {
        let records = state.store.domain_keys(domain).expect("tracked").len();
        most = most.max(records);
        let (status, tally) = counted(|| state.write_verdict(domain, &mut Vec::new()));
        assert_eq!(status, 200);
        assert_eq!(
            tally.allocations, 1,
            "/verdict/{domain}, {records} records: {tally:?}"
        );
    }
    // Up to 62 records a domain; the `format!` renderer this replaced
    // allocated at least one block a record and joined them into another.
    assert_eq!(most, 62);
}
