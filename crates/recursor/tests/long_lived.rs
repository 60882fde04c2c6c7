//! A resolver that has cached answers and zone cuts answers exactly as
//! one that starts cold: on honest worlds, caching may only save traffic.

use authdns::{DelegationRegistry, StaticZoneNode, Zone};
use dnswire::{Name, RData, Record, RecordType};
use proptest::prelude::*;
use recursor::RecursorNode;
use simnet::{Endpoint, Network, Proto, SimDuration};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

/// splitmix64: the world's shape from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLDS: [&str; 3] = ["com", "org", "net"];
/// The hosting provider's one nameserver, named under `net`.
const PROVIDER: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);

/// An honest delegated world: three TLDs, and `domains` zones, each on a
/// server of its own (in-bailiwick glue) or at a provider whose
/// nameserver has no glue in the zone's TLD. Apexes carry A records,
/// sometimes TXT and MX; `www` is a CNAME to the own apex or to another
/// zone's, so chains cross zones. Returns the world and every name a
/// question may ask, nonexistent ones included.
fn world(seed: u64) -> (Network, Vec<Name>) {
    let mut mix = Mix(seed);
    let domains = 3 + mix.below(6);
    let apexes: Vec<Name> = (0..domains)
        .map(|i| n(&format!("d{i}.{}", TLDS[mix.below(TLDS.len())])))
        .collect();
    let mut reg = DelegationRegistry::new();
    reg.set_root(ROOT);
    for (i, tld) in TLDS.iter().enumerate() {
        reg.add_tld(n(tld), Ipv4Addr::new(192, 5, 6, 30 + i as u8));
    }
    reg.delegate(&n("provider.net"), vec![(n("ns1.provider.net"), PROVIDER)]);
    let mut provider_zone = Zone::new(n("provider.net"));
    provider_zone.add(Record::new(n("ns1.provider.net"), 300, RData::A(PROVIDER)));
    let mut hosted = vec![provider_zone];
    let mut net = Network::new(seed);
    let mut names = Vec::new();
    for (i, apex) in apexes.iter().enumerate() {
        let mut zone = Zone::new(apex.clone());
        for a in 0..1 + mix.below(3) {
            let ip = Ipv4Addr::new(203, 0, i as u8, a as u8 + 1);
            zone.add(Record::new(apex.clone(), 60 + a as u32, RData::A(ip)));
        }
        if mix.below(2) == 0 {
            zone.add(Record::new(
                apex.clone(),
                300,
                RData::txt_from_str(&format!("v=spf1 ip4:203.0.{i}.1 -all")),
            ));
        }
        if mix.below(2) == 0 {
            let mx = RData::Mx {
                preference: 10,
                exchange: apex.child("mail").unwrap(),
            };
            zone.add(Record::new(apex.clone(), 300, mx));
            let mail = Ipv4Addr::new(203, 0, i as u8, 25);
            zone.add(Record::new(
                apex.child("mail").unwrap(),
                300,
                RData::A(mail),
            ));
        }
        let target = apexes[mix.below(domains)].clone();
        zone.add(Record::new(
            apex.child("www").unwrap(),
            300,
            RData::Cname(target),
        ));
        names.extend([
            apex.clone(),
            apex.child("www").unwrap(),
            apex.child("mail").unwrap(),
            apex.child("nothing").unwrap(),
        ]);
        if mix.below(2) == 0 {
            let ns_name = apex.child("ns").unwrap();
            let ip = Ipv4Addr::new(203, 0, 113, 10 + i as u8);
            zone.add(Record::new(ns_name.clone(), 300, RData::A(ip)));
            reg.delegate(apex, vec![(ns_name, ip)]);
            net.add_node(ip, Box::new(StaticZoneNode::single(zone)));
        } else {
            reg.delegate(apex, vec![(n("ns1.provider.net"), PROVIDER)]);
            hosted.push(zone);
        }
    }
    names.push(n("unregistered.org"));
    net.add_node(
        ROOT,
        Box::new(StaticZoneNode::single(reg.build_root_zone())),
    );
    for (i, tld) in TLDS.iter().enumerate() {
        let zone = reg.build_tld_zone(&n(tld));
        let ip = Ipv4Addr::new(192, 5, 6, 30 + i as u8);
        net.add_node(ip, Box::new(StaticZoneNode::single(zone)));
    }
    let provider = StaticZoneNode::new(Rc::new(RefCell::new(hosted)));
    net.add_node(PROVIDER, Box::new(provider));
    (net, names)
}

/// The raw reply `resolver` sends to a UDP query for `name`/`qtype`.
fn ask(net: &mut Network, resolver: Ipv4Addr, name: &Name, qtype: RecordType, id: u16) -> Vec<u8> {
    let query = dnswire::encode_query(id, name.borrowed(), qtype);
    let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 4000);
    let server = Endpoint::new(resolver, 53);
    net.rpc(
        client,
        server,
        Proto::Udp,
        query,
        SimDuration::from_secs(30),
    )
    .unwrap_or_else(|| panic!("no reply to {name} {qtype}"))
}

const TYPES: [RecordType; 4] = [
    RecordType::A,
    RecordType::Txt,
    RecordType::Mx,
    RecordType::Cname,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_long_lived_resolver_answers_as_a_fresh_one(
        seed in any::<u64>(),
        questions in proptest::collection::vec((any::<u16>(), 0..TYPES.len()), 1..40),
    ) {
        let (mut net, names) = world(seed);
        let long_lived = Ipv4Addr::new(9, 9, 9, 9);
        net.add_node(long_lived, Box::new(RecursorNode::new(long_lived, ROOT, seed)));
        for (i, &(pick, t)) in questions.iter().enumerate() {
            let name = &names[pick as usize % names.len()];
            let qtype = TYPES[t];
            let id = i as u16 + 1;
            let fresh = Ipv4Addr::new(10, 9, (i >> 8) as u8, i as u8);
            net.add_node(fresh, Box::new(RecursorNode::new(fresh, ROOT, seed)));
            let cold = ask(&mut net, fresh, name, qtype, id);
            let warm = ask(&mut net, long_lived, name, qtype, id);
            prop_assert!(warm == cold, "question {} ({} {}): the cached answer differs", i, name, qtype);
        }
    }
}
