//! The registry's lookups, counted.
//!
//! `enclosing_tld`, `delegation_of` and `registered_suffix` run once per
//! scan target inside the bulk scan's allocation count. They used to find
//! a name's TLD zone by iterating the zone map and cloning every improving
//! candidate, so for a name under a two-label zone (`co.uk` beside `uk`)
//! the clone count followed the map's per-process iteration order and the
//! scan's allocation count with it. A lookup walks the queried name's own
//! suffixes and allocates nothing; this file holds it to that with the
//! counting allocator of `tests/alloc_budget.rs`, over enough fresh maps to
//! meet both orders.

use authdns::DelegationRegistry;
use dnswire::Name;
use std::net::Ipv4Addr;

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::counted;

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

#[test]
fn lookups_under_a_two_label_tld_allocate_nothing() {
    let (uk, co_uk, target) = (n("uk"), n("co.uk"), n("a.co.uk"));
    for round in 0..32 {
        // A fresh registry is a fresh `RandomState`: its own iteration order.
        let mut registry = DelegationRegistry::new();
        registry.add_tld(uk.clone(), Ipv4Addr::new(192, 5, 6, 33));
        registry.add_tld(co_uk.clone(), Ipv4Addr::new(192, 5, 6, 32));
        let lookups = || {
            (
                registry.enclosing_tld(&target) == Some(&co_uk),
                registry.delegation_of(&target).is_some(),
                registry.registered_suffix(&target).is_some(),
            )
        };
        // The process's first lookup creates the (empty) name table.
        lookups();
        let ((tld, delegated, registered), allocations) = counted(lookups);
        assert!(tld, "round {round}: co.uk is the most specific zone");
        assert!(!delegated && !registered, "round {round}: never delegated");
        assert_eq!(allocations, 0, "round {round}");
    }
}
