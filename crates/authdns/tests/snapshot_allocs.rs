//! What a snapshot and a hosted zone cost, counted.
//!
//! `World::scan_blueprint` clones every provider and the oracle answer
//! table. Their growing tables — the zones, their dense serving table,
//! the by-domain index — are shared copy-on-write, so a clone costs the
//! provider's fixed parts (name, policy, nameserver fleet) and nothing a
//! hosted zone adds. This file holds the clone to that with the counting
//! allocator of `tests/alloc_budget.rs`: a provider with 1,000 zones
//! clones for exactly what one with 10 does. It also holds what hosting
//! a zone keeps alive, which is most of what a scan's fabric is.

use authdns::{AnswerMap, DomainClass, HostingPolicy, HostingProvider};
use dnswire::{Name, RData, Record};
use std::net::Ipv4Addr;

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::{counted, Tally};

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// A provider of four nameservers under `policy`, with no zone yet.
fn empty_provider(policy: HostingPolicy) -> HostingProvider {
    let fleet = (0..4)
        .map(|i| {
            (
                n(&format!("ns{i}.prov.example")),
                Ipv4Addr::new(198, 18, 0, i + 1),
            )
        })
        .collect();
    HostingProvider::new(
        "TestProv",
        policy,
        fleet,
        Ipv4Addr::new(198, 18, 200, 200),
        7,
    )
}

/// A provider with `zones` hosted zones of one A record each, on two
/// accounts.
fn provider_with(zones: usize) -> HostingProvider {
    let mut p = empty_provider(HostingPolicy::cloudflare());
    let accounts = [p.create_account(), p.create_account()];
    for i in 0..zones {
        let domain = n(&format!("site{i}.example"));
        let id = p
            .host_domain(accounts[i % 2], &domain, DomainClass::RegisteredSld)
            .unwrap();
        p.add_record(
            id,
            Record::new(domain, 60, RData::A(Ipv4Addr::new(6, 6, 6, 6))),
        );
    }
    p
}

/// An answer table of `names` owner names with one A record each.
fn answers_with(names: usize) -> AnswerMap {
    let mut truth = AnswerMap::new();
    for i in 0..names {
        let owner = n(&format!("site{i}.example"));
        truth.add(Record::new(
            owner,
            60,
            RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        ));
    }
    truth
}

/// What cloning `value` allocates and frees (the clone drops outside the
/// count).
fn clone_tally<T: Clone>(value: &T) -> Tally {
    let (copy, tally) = counted(|| value.clone());
    drop(copy);
    tally
}

#[test]
fn a_provider_clone_costs_the_same_at_ten_zones_and_at_a_thousand() {
    let (small, large) = (provider_with(10), provider_with(1_000));
    assert_eq!((small.zones().len(), large.zones().len()), (10, 1_000));
    let (small, large) = (clone_tally(&small), clone_tally(&large));
    assert_eq!(small, large, "a clone copies what the zones hold");
}

#[test]
fn an_answer_map_clone_allocates_nothing() {
    assert_eq!(clone_tally(&answers_with(10)), Tally::default());
    assert_eq!(clone_tally(&answers_with(1_000)), Tally::default());
}

/// What hosting costs: the heap bytes and blocks that stay allocated,
/// over `zones`, one zone per entry of `records`, each given its records.
/// The records are built before the count: a zone's cost is what hosting
/// them keeps beside them (apex, index key, RRset lists, table slots).
fn hosting_cost(p: &mut HostingProvider, mut records: Vec<Vec<Record>>) -> (f64, f64) {
    let account = p.create_account();
    let zones = records.len() as f64;
    // Drained, so the lists the records came in are freed after the count.
    let ((), tally) = counted(|| {
        for set in &mut records {
            let id = p
                .host_domain(account, &set[0].name, DomainClass::RegisteredSld)
                .unwrap();
            for r in set.drain(..) {
                p.add_record(id, r);
            }
        }
    });
    let bytes = (tally.allocated_bytes - tally.freed_bytes) as f64;
    let blocks = (tally.allocations - tally.frees) as f64;
    (bytes / zones, blocks / zones)
}

/// One record of `rdata` at `site{i}.example`.
fn one_record_zones(rdata: impl Fn(usize) -> RData) -> Vec<Vec<Record>> {
    (0..1_000)
        .map(|i| vec![Record::new(n(&format!("site{i}.example")), 60, rdata(i))])
        .collect()
}

#[test]
fn a_hosted_zone_keeps_its_records_and_a_few_hundred_bytes() {
    let records = std::mem::size_of::<Record>() as f64;
    for (kind, zones) in [
        (
            "A",
            one_record_zones(|i| RData::A(Ipv4Addr::from(0xC000_0200 + i as u32))),
        ),
        (
            "TXT",
            one_record_zones(|i| RData::txt_from_str(&format!("v=spf1 ip4:192.0.2.{i} -all"))),
        ),
    ] {
        let mut p = empty_provider(HostingPolicy::godaddy());
        let (bytes, blocks) = hosting_cost(&mut p, zones);
        // Measured 309.6 B in 3.0 blocks a zone, either kind: the apex,
        // the apex's RRset list and the record's RRset, at their lengths,
        // and the zone's slots in the zone table, the serving table and
        // the index, which hold the index key and the zone's nameservers
        // in place. With the key boxed and an empty map for names below
        // the apex a zone kept 341.9 B in 4.0 blocks; one that stored its
        // SOA and grew its vectors by doubling, 981.7 B in 9.0. The budget
        // is the measurement plus a tenth.
        assert!(
            bytes <= 340.5 && blocks <= 3.3,
            "a one-{kind}-record zone keeps {bytes:.1} B in {blocks:.2} blocks"
        );
        // A fast-flux zone of 36 addresses, hosted beside them, keeps its
        // records and no more than one zone's overhead: measured 3,789 B
        // (6,984 B when its RRset grew by doubling).
        let flux = (0..36)
            .map(|o| {
                Record::new(
                    n("flux.example"),
                    60,
                    RData::A(Ipv4Addr::new(203, 0, 113, o)),
                )
            })
            .collect();
        let (flux_bytes, _) = hosting_cost(&mut p, vec![flux]);
        assert!(
            flux_bytes <= 36.0 * records + (bytes - records),
            "a 36-record zone keeps {flux_bytes:.0} B beside {kind} zones of {bytes:.1} B"
        );
    }
}
