//! The probe path's allocation budget, counted.
//!
//! Wall-clock on a shared box drifts by 10–20 % in phases; the number of
//! heap allocations a probe makes does not drift at all. This file counts
//! them with a global allocator of its own (`support/counting.rs`), armed
//! only around the measured region and only on the measuring thread, and
//! holds the probe path —
//! query write → fabric → authoritative serve → fabric → reply parse — to
//! what the scan keeps: the records of a UR. After one warm-up pass (pools
//! filled, tables grown, names interned) a probe that yields nothing must
//! allocate nothing — with the observability hub attached or without it,
//! which makes this the exact tripwire on instrumentation cost too.

use std::net::Ipv4Addr;

use dnswire::{Name, Rcode, RecordType};
use urhunter::{
    collect_urs_sharded, select_nameservers, CollectConfig, ProbeEngine, ProbeReply, QueryPlan,
    QueryScheduler,
};
use worldgen::{World, WorldConfig};

#[path = "support/counting.rs"]
mod counting;
use counting::counted;

/// One UR probe through the engine, keeping what `query_one_ur` keeps: the
/// answers of exactly the asked name and type.
fn probe(
    engine: &mut ProbeEngine,
    net: &mut simnet::Network,
    scanner: Ipv4Addr,
    ns: Ipv4Addr,
    domain: &Name,
    rtype: RecordType,
    qid: u16,
) -> Option<ProbeReply> {
    engine.query_keeping(net, scanner, ns, domain, rtype, qid, |r| {
        r.rtype() == rtype && r.name.matches(domain.borrowed())
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    Refused,
    ProtectiveA,
    HostedA,
    Txt,
}

/// Warm the probe path up, then hold one probe of each kind to its budget
/// — on a bare engine and fabric, or with `hub` wired into both the way
/// `run` wires it.
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
    if let Some(hub) = hub {
        net.set_obs(Some(simnet::FabricMetrics::register(hub.registry())));
        engine = engine.with_obs(hub);
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
                let kind = match (reply.rcode(), reply.answers.first(), rtype) {
                    (Rcode::Refused, ..) => Kind::Refused,
                    (Rcode::NoError, Some(r), RecordType::A) => match r.rdata.as_a() {
                        Some(ip) if protective.contains(&ip) => Kind::ProtectiveA,
                        _ => Kind::HostedA,
                    },
                    (Rcode::NoError, Some(_), RecordType::Txt) => Kind::Txt,
                    _ => continue,
                };
                examples.entry(kind).or_insert((ns.ip, domain, rtype));
            }
        }
    }

    for (kind, budget) in [
        (Kind::Refused, 0),
        (Kind::ProtectiveA, 4),
        (Kind::HostedA, 4),
        (Kind::Txt, 6),
    ] {
        let &(ns, domain, rtype) = examples
            .get(&kind)
            .unwrap_or_else(|| panic!("the small world has no {kind:?} probe"));
        for round in 0..3 {
            qid = qid.wrapping_add(1).max(1);
            let (reply, allocations) = counted(|| {
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
            assert_eq!(reply.answers.is_empty(), kind == Kind::Refused);
            assert!(
                allocations <= budget,
                "{kind:?} probe of {domain} {rtype} at {ns}, round {round}: \
                 {allocations} allocations, budget {budget}"
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

/// One warm and one counted bulk scan of a freshly generated small world:
/// `(probes, URs, allocations)` of the counted one. Seed 7 puts three of
/// the targets under `co.uk`, a zone registered beside its parent `uk`.
fn counted_bulk_scan() -> (u64, usize, u64) {
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
    let (measured, allocations) = counted(scan);
    assert_eq!(measured, warm, "the scan is deterministic");
    (measured.0, measured.1, allocations)
}

#[test]
fn the_bulk_scan_allocates_one_count_on_every_copy_of_a_world() {
    // Every copy has maps of its own, each with its own iteration order;
    // nothing the scan allocates may follow one.
    let runs: Vec<(u64, usize, u64)> = (0..8).map(|_| counted_bulk_scan()).collect();
    let (probes, urs, allocations) = runs[0];
    assert!(probes > 10_000 && urs > 1_000, "{probes} probes, {urs} URs");
    assert!(
        runs.iter().all(|run| *run == runs[0]),
        "eight copies of one world, more than one count: {runs:?}"
    );
    // Everything is in the count: the replica fabric, the task list, every
    // UR's records and the batch handed to the sink. Measured 0.37 a probe
    // (5,358 over 14,462); the budget is that plus a tenth.
    let per_probe = allocations as f64 / probes as f64;
    assert!(
        per_probe <= 0.47,
        "{allocations} allocations over {probes} probes ({urs} URs): {per_probe:.2} a probe"
    );
}
