//! Property tests: zone answering never panics and maintains the RFC 1034
//! case distinctions for arbitrary zone contents and queries.

use authdns::{DomainClass, HostingPolicy, HostingProvider, Zone, ZoneAnswer};
use dnswire::{Name, RData, Record, RecordType};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z]{1,8}").unwrap()
}

fn arb_name_under(apex: &'static str) -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..3).prop_map(move |labels| {
        let mut name: Name = apex.parse().unwrap();
        for l in labels {
            name = name.child(l.as_bytes()).unwrap();
        }
        name
    })
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        proptest::string::string_regex("[ -~]{0,40}")
            .unwrap()
            .prop_map(|s| RData::txt_from_str(&s)),
        arb_name_under("zone.test").prop_map(RData::Ns),
        arb_name_under("zone.test").prop_map(RData::Cname),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn zone_answers_never_panic_and_are_consistent(
        records in proptest::collection::vec((arb_name_under("zone.test"), arb_rdata()), 0..20),
        qname in arb_name_under("zone.test"),
        qtype_code in prop_oneof![Just(1u16), Just(2), Just(5), Just(15), Just(16), Just(255)],
    ) {
        let apex: Name = "zone.test".parse().unwrap();
        let mut zone = Zone::new(apex.clone());
        for (name, rdata) in records {
            zone.add(Record::new(name, 60, rdata));
        }
        let qtype = RecordType::from_code(qtype_code);
        match zone.answer(qname.borrowed(), qtype) {
            ZoneAnswer::Records(rs) => {
                prop_assert!(!rs.is_empty());
                // every answer's owner is inside the zone
                for r in rs.iter() {
                    prop_assert!(r.name.is_subdomain_of(&apex));
                }
            }
            ZoneAnswer::NxDomain => {
                // no record may exist at that exact name
                for rt in [RecordType::A, RecordType::Txt, RecordType::Cname] {
                    prop_assert!(zone.get(&qname, rt).is_empty());
                }
            }
            ZoneAnswer::NoData | ZoneAnswer::Delegation { .. } => {}
            ZoneAnswer::NotInZone => prop_assert!(!qname.is_subdomain_of(&apex)),
        }
    }

    #[test]
    fn provider_hosting_and_answering_never_panics(
        domains in proptest::collection::vec(
            proptest::string::string_regex("[a-z]{3,10}\\.(com|net|org)").unwrap(), 1..8),
        query in proptest::string::string_regex("[a-z]{3,10}\\.(com|net|org)").unwrap(),
    ) {
        let fleet: Vec<(Name, Ipv4Addr)> = (0..4u8)
            .map(|i| {
                (format!("ns{i}.p.test").parse().unwrap(), Ipv4Addr::new(198, 18, 5, i + 1))
            })
            .collect();
        let mut p = HostingProvider::new(
            "PropProv",
            HostingPolicy::cloudns(),
            fleet.clone(),
            Ipv4Addr::new(198, 18, 5, 250),
            1,
        );
        let acct = p.create_account();
        for d in &domains {
            let name: Name = d.parse().unwrap();
            if let Ok(zid) = p.host_domain(acct, &name, DomainClass::RegisteredSld) {
                p.add_record(zid, Record::new(name, 60, RData::A(Ipv4Addr::new(9, 9, 9, 9))));
            }
        }
        let qname: Name = query.parse().unwrap();
        for (_, ip) in &fleet {
            // must never panic, whatever the query
            let _ = p.answer(*ip, qname.borrowed(), RecordType::A);
            let _ = p.answer(*ip, qname.borrowed(), RecordType::Txt);
        }
    }
}
