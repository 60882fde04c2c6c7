//! Differential test: the compact zone, which derives its SOA from the
//! apex, against the zone it replaced (`reference/`), which stored it.
//! Random zones are asked random questions over the simulated fabric,
//! and the reference server, `StaticZoneNode` and a provider's
//! nameserver must answer with the same bytes.

mod reference;

use authdns::{DomainClass, HostingPolicy, HostingProvider, ProviderNsNode, StaticZoneNode, Zone};
use dnswire::{Message, Name, Question, RData, Record, RecordType};
use proptest::prelude::*;
use reference::{RefZone, RefZoneNode};
use simnet::{Endpoint, Network, Proto, SimDuration};
use std::cell::RefCell;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::rc::Rc;

/// Cases a run: more in release, where `ci.sh` runs it.
const CASES: u32 = if cfg!(debug_assertions) { 128 } else { 16_384 };

/// The apexes a zone is built at, in either case, the root included (on
/// the static server only).
fn arb_apex() -> impl Strategy<Value = Name> {
    prop_oneof![
        Just("zone.test"),
        Just("Zone.TEST"),
        Just("deep.zone.test"),
        Just("."),
    ]
    .prop_map(|apex| apex.parse().unwrap())
}

/// Labels from a small pool in both cases, so owners share ancestors
/// (and empty non-terminals), meet the SOA's `ns1` and `hostmaster`
/// names, and differ in case where they meet.
fn arb_label() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("a"),
        Just("A"),
        Just("b"),
        Just("www"),
        Just("WWW"),
        Just("ns1"),
        Just("hostmaster"),
        Just("x"),
    ]
}

/// A name `0..4` labels below `base`.
fn below(base: &Name, labels: &[&str]) -> Name {
    labels
        .iter()
        .fold(base.clone(), |name, l| name.child(l.as_bytes()).unwrap())
}

/// Relative names: an owner or target is these labels in front of the
/// apex.
fn arb_relative() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::collection::vec(arb_label(), 0..4)
}

/// What a record holds, names relative to the apex where the zone's are:
/// addresses (few, so duplicates), text, NS cuts with in-zone targets
/// (glue when they have addresses) or outside ones, CNAMEs that stay in
/// the zone (chains, loops) or leave it, and explicit SOAs, one of them
/// the derived one.
#[derive(Debug, Clone)]
enum Data {
    A(u8),
    Aaaa(u8),
    Txt(u8),
    Ns(Vec<&'static str>),
    NsOut,
    Cname(Vec<&'static str>),
    CnameOut,
    Mx(Vec<&'static str>),
    Soa,
    DerivedSoa,
}

fn arb_data() -> impl Strategy<Value = Data> {
    prop_oneof![
        (0u8..4).prop_map(Data::A),
        (0u8..4).prop_map(Data::A),
        (0u8..4).prop_map(Data::A),
        (0u8..2).prop_map(Data::Aaaa),
        (0u8..3).prop_map(Data::Txt),
        arb_relative().prop_map(Data::Ns),
        arb_relative().prop_map(Data::Ns),
        Just(Data::NsOut),
        arb_relative().prop_map(Data::Cname),
        arb_relative().prop_map(Data::Cname),
        Just(Data::CnameOut),
        arb_relative().prop_map(Data::Mx),
        Just(Data::Soa),
        Just(Data::DerivedSoa),
    ]
}

/// A record of `data` at `owner` in the zone at `apex`; SOAs are placed
/// at the apex.
fn record(apex: &Name, owner: &[&str], data: &Data) -> Record {
    let owner = below(apex, owner);
    let out: Name = "cdn.elsewhere.example".parse().unwrap();
    let rdata = match data {
        Data::A(o) => RData::A(Ipv4Addr::new(192, 0, 2, *o)),
        Data::Aaaa(o) => RData::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, *o as u16)),
        Data::Txt(t) => RData::txt_from_str(&format!("v=spf1 ip4:192.0.2.{t} -all")),
        Data::Ns(target) => RData::Ns(below(apex, target)),
        Data::NsOut => RData::Ns(out),
        Data::Cname(target) => RData::Cname(below(apex, target)),
        Data::CnameOut => RData::Cname(out),
        Data::Mx(target) => RData::Mx {
            preference: 10,
            exchange: below(apex, target),
        },
        Data::Soa => RData::Soa {
            mname: "primary.elsewhere.example".parse().unwrap(),
            rname: below(apex, &["admin"]),
            serial: 7,
            refresh: 60,
            retry: 30,
            expire: 600,
            minimum: 5,
        },
        Data::DerivedSoa => return Zone::new(apex.clone()).soa(),
    };
    match data {
        Data::Soa => Record::new(apex.clone(), 120, rdata),
        _ => Record::new(owner, 300, rdata),
    }
}

/// Questions: names above, at, below and outside the zone, in any case,
/// of every type and `ANY`, sometimes beside a second question, over
/// UDP (so large answers truncate) or TCP.
#[derive(Debug, Clone)]
struct Ask {
    name: Where,
    upper: bool,
    qtype: u16,
    second: Option<Vec<&'static str>>,
    tcp: bool,
}

#[derive(Debug, Clone)]
enum Where {
    Below(Vec<&'static str>),
    Above,
    Outside,
}

fn arb_ask() -> impl Strategy<Value = Ask> {
    (
        prop_oneof![
            arb_relative().prop_map(Where::Below),
            arb_relative().prop_map(Where::Below),
            arb_relative().prop_map(Where::Below),
            arb_relative().prop_map(Where::Below),
            Just(Where::Above),
            Just(Where::Outside),
        ],
        any::<bool>(),
        prop_oneof![
            Just(1u16),
            Just(2),
            Just(5),
            Just(6),
            Just(12),
            Just(15),
            Just(16),
            Just(28),
            Just(255),
            Just(99),
        ],
        (any::<bool>(), arb_relative()),
        any::<bool>(),
    )
        .prop_map(|(name, upper, qtype, (two, second), tcp)| Ask {
            name,
            upper,
            qtype,
            second: two.then_some(second),
            tcp,
        })
}

/// `name` with every letter upper case.
fn upper(name: &Name) -> Name {
    Name::from_labels(name.labels().map(|l| l.to_ascii_uppercase())).unwrap()
}

/// The query `ask` sends to the zone at `apex`.
fn query(apex: &Name, ask: &Ask, id: u16) -> Vec<u8> {
    let name = match &ask.name {
        Where::Below(labels) => below(apex, labels),
        Where::Above => apex.parent().unwrap_or_else(Name::root),
        Where::Outside => "zone.elsewhere.example".parse().unwrap(),
    };
    let name = if ask.upper { upper(&name) } else { name };
    let mut q = Message::query(id, Question::new(name, RecordType::from_code(ask.qtype)));
    if let Some(second) = &ask.second {
        q.questions
            .push(Question::new(below(apex, second), RecordType::A));
    }
    q.encode().unwrap()
}

const REFERENCE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const STATIC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 2);
const PROVIDER: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);

/// A fabric with the three servers of one zone's records.
fn servers(apex: &Name, records: &[Record]) -> Network {
    let mut reference = RefZone::new(apex.clone());
    let mut zone = Zone::new(apex.clone());
    let fleet = vec![
        ("ns1.host.example".parse().unwrap(), PROVIDER),
        (
            "ns2.host.example".parse().unwrap(),
            Ipv4Addr::new(198, 18, 0, 2),
        ),
    ];
    let mut provider = HostingProvider::new(
        "DiffProv",
        HostingPolicy::godaddy(),
        fleet,
        Ipv4Addr::new(198, 18, 0, 250),
        3,
    );
    let account = provider.create_account();
    let hosted = provider
        .host_domain(account, apex, DomainClass::RegisteredSld)
        .expect("an empty provider hosts any apex");
    for r in records {
        reference.add(r.clone());
        zone.add(r.clone());
        provider.add_record(hosted, r.clone());
    }
    let mut net = Network::new(1);
    net.add_node(REFERENCE, Box::new(RefZoneNode(reference)));
    net.add_node(STATIC, Box::new(StaticZoneNode::single(zone)));
    let provider = Rc::new(RefCell::new(provider));
    net.add_node(PROVIDER, Box::new(ProviderNsNode::new(provider, PROVIDER)));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn a_compact_zone_answers_as_the_stored_one_did(
        apex in arb_apex(),
        records in proptest::collection::vec((arb_relative(), arb_data()), 0..16),
        fat in (any::<bool>(), arb_relative(), 20u8..60),
        asks in proptest::collection::vec(arb_ask(), 1..8),
    ) {
        let mut records: Vec<Record> = records
            .iter()
            .map(|(owner, data)| record(&apex, owner, data))
            .collect();
        // An RRset too large for 512 bytes.
        if let (true, owner, count) = fat {
            records.extend((0..count).map(|o| record(&apex, &owner, &Data::A(o))));
        }
        let mut net = servers(&apex, &records);
        let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40_000);
        for (id, ask) in asks.iter().enumerate() {
            let proto = if ask.tcp { Proto::Tcp } else { Proto::Udp };
            let mut ask_at = |server| {
                net.rpc(
                    client,
                    Endpoint::new(server, 53),
                    proto,
                    query(&apex, ask, id as u16),
                    SimDuration::from_secs(2),
                )
            };
            let want = ask_at(REFERENCE);
            prop_assert!(want.is_some(), "the reference answers {ask:?}");
            prop_assert!(ask_at(STATIC) == want, "StaticZoneNode, {ask:?}");
            // A provider hosts domains, never the root: its suffix walk
            // starts one label down.
            if apex.label_count() > 0 {
                prop_assert!(ask_at(PROVIDER) == want, "provider node, {ask:?}");
            }
        }
    }
}
