//! Property tests: zone answering never panics and maintains the RFC 1034
//! case distinctions for arbitrary zone contents and queries.

use authdns::{DomainClass, HostingPolicy, HostingProvider, Zone, ZoneAnswer};
use dnswire::{Name, RData, Record, RecordType};
use proptest::prelude::*;
use std::borrow::Cow;
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
        match zone.answer(qname.borrowed().fold(&mut Vec::new()), qtype) {
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
            let mut scratch = Vec::new();
            let qname = qname.borrowed().fold(&mut scratch);
            let _ = p.answer(*ip, qname, RecordType::A);
            let _ = p.answer(*ip, qname, RecordType::Txt);
        }
    }

    #[test]
    fn zone_answers_equal_a_scan_of_the_records(
        records in proptest::collection::vec((arb_mixed_name(), arb_zone_rdata()), 0..24),
        qname in prop_oneof![
            arb_mixed_name(),
            arb_mixed_name(),
            arb_mixed_name(),
            Just("elsewhere.test".parse::<Name>().unwrap()),
        ],
        qtype_code in prop_oneof![Just(1u16), Just(2), Just(5), Just(15), Just(16), Just(255)],
    ) {
        let apex: Name = "Zone.test".parse().unwrap();
        let mut zone = Zone::new(apex.clone());
        let mut scan = ScanZone::new(&zone);
        for (name, rdata) in records {
            let record = Record::new(name, 60, rdata);
            zone.add(record.clone());
            scan.add(record);
        }
        let qtype = RecordType::from_code(qtype_code);
        let mut scratch = Vec::new();
        let got = match zone.answer(qname.borrowed().fold(&mut scratch), qtype) {
            ZoneAnswer::Records(rs) => Scanned::Records(rs.iter().map(Cow::into_owned).collect()),
            ZoneAnswer::Delegation { ns, glue } => {
                Scanned::Delegation(ns.to_vec(), glue.iter().cloned().collect())
            }
            ZoneAnswer::NoData => Scanned::NoData,
            ZoneAnswer::NxDomain => Scanned::NxDomain,
            ZoneAnswer::NotInZone => Scanned::NotInZone,
        };
        prop_assert_eq!(got, scan.answer(&apex, &qname, qtype));
    }
}

/// Labels from a small pool in both cases, so generated owners share
/// ancestors (and empty non-terminals) and differ in case where they meet.
fn arb_mixed_name() -> impl Strategy<Value = Name> {
    let label = prop_oneof![
        Just("a"),
        Just("A"),
        Just("b"),
        Just("www"),
        Just("WWW"),
        Just("mail"),
        Just("x"),
    ];
    proptest::collection::vec(label, 0..5).prop_map(|labels| {
        let mut name: Name = "zone.TEST".parse().unwrap();
        for l in labels {
            name = name.child(l.as_bytes()).unwrap();
        }
        name
    })
}

/// Addresses, text, NS cuts and CNAMEs that stay in the zone (chains,
/// loops) or leave it.
fn arb_zone_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        (0u8..4).prop_map(|o| RData::A(Ipv4Addr::new(192, 0, 2, o))),
        Just(RData::txt_from_str("v=spf1 -all")),
        arb_mixed_name().prop_map(RData::Ns),
        arb_mixed_name().prop_map(RData::Cname),
        Just(RData::Cname("cdn.elsewhere.test".parse().unwrap())),
    ]
}

/// A zone's answer, as comparable values.
#[derive(Debug, PartialEq)]
enum Scanned {
    Records(Vec<Record>),
    Delegation(Vec<Record>, Vec<Record>),
    NoData,
    NxDomain,
    NotInZone,
}

/// The RFC 1034 §4.3.2 answer computed by scanning a list of records: the
/// reference `Zone::answer` is held to.
struct ScanZone(Vec<Record>);

impl ScanZone {
    /// Start from the record a new zone holds: its SOA, derived from the
    /// apex.
    fn new(zone: &Zone) -> Self {
        ScanZone(vec![zone.soa()])
    }

    fn add(&mut self, record: Record) {
        if !self.0.contains(&record) {
            self.0.push(record);
        }
    }

    fn at(&self, owner: &Name, rtype: RecordType) -> Vec<Record> {
        self.0
            .iter()
            .filter(|r| &r.name == owner && r.rtype() == rtype)
            .cloned()
            .collect()
    }

    fn answer(&self, apex: &Name, qname: &Name, qtype: RecordType) -> Scanned {
        if !qname.is_subdomain_of(apex) {
            return Scanned::NotInZone;
        }
        for take in apex.label_count() + 1..=qname.label_count() {
            if take == qname.label_count() && qtype == RecordType::Ns {
                continue;
            }
            let ns = self.at(&qname.suffix(take).unwrap(), RecordType::Ns);
            if !ns.is_empty() {
                let glue = ns
                    .iter()
                    .filter_map(|r| match &r.rdata {
                        RData::Ns(target) => Some(self.at(target, RecordType::A)),
                        _ => None,
                    })
                    .flatten()
                    .collect();
                return Scanned::Delegation(ns, glue);
            }
        }
        let mut chain = Vec::new();
        let mut owner = qname.clone();
        for _ in 0..8 {
            let mut found: Vec<Record> = match qtype {
                RecordType::Any => self.0.iter().filter(|r| r.name == owner).cloned().collect(),
                _ => self.at(&owner, qtype),
            };
            if !found.is_empty() {
                // Stable: RRsets in type order, each in insertion order.
                found.sort_by_key(|r| r.rtype());
                chain.extend(found);
                return Scanned::Records(chain);
            }
            let Some(cname) = self.at(&owner, RecordType::Cname).into_iter().next() else {
                break;
            };
            let target = match &cname.rdata {
                RData::Cname(target) => target.clone(),
                _ => unreachable!(),
            };
            chain.push(cname);
            if !target.is_subdomain_of(apex) {
                break;
            }
            owner = target;
        }
        if !chain.is_empty() {
            return Scanned::Records(chain);
        }
        let exists = self.0.iter().any(|r| r.name.is_subdomain_of(qname));
        if exists {
            Scanned::NoData
        } else {
            Scanned::NxDomain
        }
    }
}
