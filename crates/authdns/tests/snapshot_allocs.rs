//! What a snapshot costs, counted.
//!
//! `World::scan_blueprint` clones every provider and the oracle answer
//! table. Their growing tables are shared copy-on-write, so a clone costs
//! the provider's fixed parts — name, policy, nameserver fleet — and
//! nothing a hosted zone adds. This file holds the clone to that with the
//! counting allocator of `tests/alloc_budget.rs`: a provider with 1,000
//! zones clones for exactly what one with 10 does.

use authdns::{AnswerMap, DomainClass, HostingPolicy, HostingProvider};
use dnswire::{Name, RData, Record};
use std::net::Ipv4Addr;

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::{counted, Tally};

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// A provider with `zones` hosted zones of one A record each, on two
/// accounts.
fn provider_with(zones: usize) -> HostingProvider {
    let fleet = (0..4)
        .map(|i| {
            (
                n(&format!("ns{i}.prov.example")),
                Ipv4Addr::new(198, 18, 0, i + 1),
            )
        })
        .collect();
    let mut p = HostingProvider::new(
        "TestProv",
        HostingPolicy::cloudflare(),
        fleet,
        Ipv4Addr::new(198, 18, 200, 200),
        7,
    );
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
