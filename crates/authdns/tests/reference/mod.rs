//! The zone that the compact one replaced, kept as the reference the
//! differential test compares against: every owner's RRsets in vectors
//! grown by push, the synthesized SOA stored at the apex as a record of
//! its own, and the writer that pushed that stored record into every
//! negative answer. Bodies are the replaced ones, re-pointed at the
//! crate's public types; only what the test drives is kept.

use dnswire::{
    Folded, FoldedName, MessageView, MessageWriter, Name, RData, Rcode, Record, RecordType, Section,
};
use fxhash::FxHashMap;
use simnet::{Actions, Datagram, Node, SimTime};

/// The RRsets at one owner name, in `RecordType` order.
#[derive(Debug, Clone, Default)]
struct RrSets(Vec<(RecordType, Vec<Record>)>);

impl RrSets {
    fn entry(&mut self, rtype: RecordType) -> &mut Vec<Record> {
        let i = match self.0.binary_search_by_key(&rtype, |(t, _)| *t) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (rtype, Vec::new()));
                i
            }
        };
        &mut self.0[i].1
    }
}

/// A DNS zone whose apex holds its synthesized SOA as a stored record.
#[derive(Debug, Clone)]
pub struct RefZone {
    apex: Name,
    at_apex: RrSets,
    records: FxHashMap<FoldedName, RrSets>,
}

const MAX_CNAME_CHAIN: usize = 8;

/// Authoritative data for a question: the CNAMEs followed, then the
/// RRsets that answer it.
#[derive(Debug, Clone, Copy)]
pub struct RefAnswerRecords<'z> {
    cnames: [Option<&'z Record>; MAX_CNAME_CHAIN],
    sets: &'z [(RecordType, Vec<Record>)],
}

impl<'z> RefAnswerRecords<'z> {
    fn at_question(&self) -> bool {
        self.cnames[0].is_none()
    }

    fn iter(&self) -> impl Iterator<Item = &'z Record> {
        let sets = self.sets;
        self.cnames
            .into_iter()
            .flatten()
            .chain(sets.iter().flat_map(|(_, set)| set))
    }
}

/// The outcome of resolving a question against the zone.
#[derive(Debug, Clone, Copy)]
pub enum RefZoneAnswer<'z> {
    Records(RefAnswerRecords<'z>),
    Delegation { ns: &'z [Record], zone: &'z RefZone },
    NoData,
    NxDomain,
    NotInZone,
}

impl RefZone {
    pub fn new(apex: Name) -> Self {
        let soa = Record::new(
            apex.clone(),
            3600,
            RData::Soa {
                mname: apex.child(b"ns1").unwrap_or_else(|_| apex.clone()),
                rname: apex.child(b"hostmaster").unwrap_or_else(|_| apex.clone()),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        );
        RefZone {
            apex,
            at_apex: RrSets(vec![(RecordType::Soa, vec![soa])]),
            records: FxHashMap::default(),
        }
    }

    pub fn apex(&self) -> &Name {
        &self.apex
    }

    fn rrset_mut(&mut self, owner: &Name, rtype: RecordType) -> &mut Vec<Record> {
        if owner.label_count() == self.apex.label_count() {
            return self.at_apex.entry(rtype);
        }
        let mut scratch = Vec::new();
        let owner = owner.borrowed().fold(&mut scratch);
        for labels in (self.apex.label_count() + 1..=owner.label_count()).rev() {
            let name = owner.suffix(labels).expect("within the label count");
            if self.records.contains_key(name.key()) {
                break;
            }
            self.records
                .insert(FoldedName::new(name.name()), RrSets::default());
        }
        self.records
            .get_mut(owner.key())
            .expect("present or just inserted")
            .entry(rtype)
    }

    pub fn add(&mut self, record: Record) {
        assert!(record.name.is_subdomain_of(&self.apex));
        let set = self.rrset_mut(&record.name, record.rtype());
        if !set.contains(&record) {
            set.push(record);
        }
    }

    fn sets_at(&self, owner: Folded<'_>) -> &[(RecordType, Vec<Record>)] {
        let sets = if owner.label_count() == self.apex.label_count() {
            Some(&self.at_apex)
        } else {
            self.records.get(owner.key())
        };
        sets.map_or(&[], |sets| &sets.0)
    }

    fn rrset(&self, owner: Folded<'_>, rtype: RecordType) -> &[(RecordType, Vec<Record>)] {
        let sets = self.sets_at(owner);
        match sets.binary_search_by_key(&rtype, |(t, _)| *t) {
            Ok(i) => &sets[i..=i],
            Err(_) => &[],
        }
    }

    fn get(&self, owner: &Name, rtype: RecordType) -> &[Record] {
        if !owner.is_subdomain_of(&self.apex) {
            return &[];
        }
        let mut scratch = Vec::new();
        match self.rrset(owner.borrowed().fold(&mut scratch), rtype) {
            [(_, set)] => set,
            _ => &[],
        }
    }

    fn exists(&self, owner: Folded<'_>) -> bool {
        self.records.contains_key(owner.key()) || self.apex.borrowed().is_subdomain_of(owner.name())
    }

    fn soa(&self) -> &Record {
        &self.at_apex.0[self
            .at_apex
            .0
            .binary_search_by_key(&RecordType::Soa, |(t, _)| *t)
            .expect("the apex holds the SOA")]
        .1[0]
    }

    pub fn answer(&self, qname: Folded<'_>, qtype: RecordType) -> RefZoneAnswer<'_> {
        let apex = self.apex.borrowed();
        if !qname.name().is_subdomain_of(apex) {
            return RefZoneAnswer::NotInZone;
        }
        for take in apex.label_count() + 1..=qname.label_count() {
            if take == qname.label_count() && qtype == RecordType::Ns {
                continue;
            }
            let cut = qname.suffix(take).expect("take within the label count");
            if let [(_, ns)] = self.rrset(cut, RecordType::Ns) {
                return RefZoneAnswer::Delegation { ns, zone: self };
            }
        }
        let mut cnames = [None; MAX_CNAME_CHAIN];
        let mut scratch = Vec::new();
        let mut owner = qname;
        for hop in 0..MAX_CNAME_CHAIN {
            let sets = match qtype {
                RecordType::Any => self.sets_at(owner),
                _ => self.rrset(owner, qtype),
            };
            if !sets.is_empty() {
                return RefZoneAnswer::Records(RefAnswerRecords { cnames, sets });
            }
            let [(_, cname)] = self.rrset(owner, RecordType::Cname) else {
                break;
            };
            let c = &cname[0];
            cnames[hop] = Some(c);
            match &c.rdata {
                RData::Cname(target) if target.is_subdomain_of(&self.apex) => {
                    owner = target.borrowed().fold(&mut scratch);
                }
                _ => break,
            }
        }
        if cnames[0].is_some() {
            return RefZoneAnswer::Records(RefAnswerRecords { cnames, sets: &[] });
        }
        if self.exists(qname) {
            RefZoneAnswer::NoData
        } else {
            RefZoneAnswer::NxDomain
        }
    }
}

fn size_limit(proto: simnet::Proto, query: &MessageView<'_>) -> usize {
    match proto {
        simnet::Proto::Udp => {
            let advertised = query
                .edns_payload_size()
                .map(|s| s as usize)
                .unwrap_or(dnswire::MAX_UDP_PAYLOAD);
            advertised.clamp(dnswire::MAX_UDP_PAYLOAD, dnswire::MAX_MESSAGE_LEN)
        }
        simnet::Proto::Tcp => dnswire::MAX_MESSAGE_LEN,
    }
}

fn push_all<'r>(
    w: &mut MessageWriter,
    section: Section,
    records: impl IntoIterator<Item = &'r Record>,
) {
    for r in records {
        if !w.push(section, r) {
            return;
        }
    }
}

/// The replaced writer: negative answers push the stored SOA.
fn write_zone_answer(w: &mut MessageWriter, zone: &RefZone, ans: RefZoneAnswer<'_>) {
    let flags = w.flags_mut();
    match ans {
        RefZoneAnswer::Records(rs) => {
            flags.authoritative = true;
            if !rs.at_question() {
                push_all(w, Section::Answer, rs.iter());
                return;
            }
            for r in rs.iter() {
                if !w.record_at_question(Section::Answer, r.class, r.ttl, &r.rdata) {
                    return;
                }
            }
        }
        RefZoneAnswer::Delegation { ns, zone } => {
            push_all(w, Section::Authority, ns);
            let glue = ns
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Ns(target) => Some(target),
                    _ => None,
                })
                .flat_map(|target| zone.get(target, RecordType::A));
            push_all(w, Section::Additional, glue);
        }
        RefZoneAnswer::NoData => {
            flags.authoritative = true;
            w.push(Section::Authority, zone.soa());
        }
        RefZoneAnswer::NxDomain => {
            flags.authoritative = true;
            flags.rcode = Rcode::NxDomain;
            w.push(Section::Authority, zone.soa());
        }
        RefZoneAnswer::NotInZone => flags.rcode = Rcode::Refused,
    }
}

/// The replaced static server over one reference zone.
pub struct RefZoneNode(pub RefZone);

impl Node for RefZoneNode {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        let Ok(query) = MessageView::parse(&dgram.payload) else {
            return;
        };
        if query.flags.response {
            return;
        }
        let reply = match query.question() {
            Some(q) => {
                let limit = size_limit(dgram.proto, &query);
                let mut w = MessageWriter::response_to(&query, Rcode::NoError, limit);
                let mut scratch = Vec::new();
                let qname = q.qname.fold(&mut scratch);
                if qname.name().is_subdomain_of(self.0.apex().borrowed()) {
                    write_zone_answer(&mut w, &self.0, self.0.answer(qname, q.qtype));
                } else {
                    w.flags_mut().rcode = Rcode::Refused;
                }
                w.finish()
            }
            None => MessageWriter::response_to(&query, Rcode::FormErr, dnswire::MAX_MESSAGE_LEN)
                .finish(),
        };
        if let Ok(bytes) = reply {
            out.send(dgram.reply(bytes));
        }
    }
}
