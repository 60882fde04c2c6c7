//! DNS zones: record storage and authoritative answer logic.

use dnswire::{Folded, FoldedName, Name, RData, Record, RecordType};
use fxhash::FxHashMap;

/// The RRsets at one owner name, in `RecordType` order. A handful of types
/// at most, so a sorted vector beats a map per name.
#[derive(Debug, Clone, Default)]
pub(crate) struct RrSets(Vec<(RecordType, Vec<Record>)>);

impl RrSets {
    /// The RRset of `rtype`, empty if there is none.
    pub(crate) fn get(&self, rtype: RecordType) -> &[Record] {
        match self.0.binary_search_by_key(&rtype, |(t, _)| *t) {
            Ok(i) => &self.0[i].1,
            Err(_) => &[],
        }
    }

    /// The RRset of `rtype`, created empty if there is none.
    pub(crate) fn entry(&mut self, rtype: RecordType) -> &mut Vec<Record> {
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

/// A DNS zone: an apex name and the records at or below it.
///
/// Records are stored per owner name, one RRset per type under each: the
/// apex's beside the map, every name below it keyed by the folded name,
/// so a lookup is one hash probe with the bytes of a name folded once,
/// and none at the apex, the name a zone is asked about most. Every empty
/// non-terminal between an owner and the apex has an entry too, with no
/// RRsets, so whether a name exists is that same probe. The zone also
/// carries its SOA so negative answers can include it in the authority
/// section.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    /// The RRsets at the apex.
    at_apex: RrSets,
    /// The RRsets of every name strictly below the apex.
    records: FxHashMap<FoldedName, RrSets>,
}

/// Longest CNAME chain a zone follows before answering with what it has.
const MAX_CNAME_CHAIN: usize = 8;

/// Authoritative data for a question, borrowed from the zone: the CNAME
/// records followed on the way (possibly none), then the RRsets that
/// answer it (possibly none, when the chain leaves the zone or dead-ends).
#[derive(Debug, Clone, Copy)]
pub struct AnswerRecords<'z> {
    cnames: [Option<&'z Record>; MAX_CNAME_CHAIN],
    /// One RRset for a typed question, every RRset at the name for `ANY`.
    sets: &'z [(RecordType, Vec<Record>)],
}

impl<'z> AnswerRecords<'z> {
    /// True when every record is owned by the question's name: no CNAME
    /// was followed.
    pub fn at_question(&self) -> bool {
        self.cnames[0].is_none()
    }

    /// The records in answer-section order.
    pub fn iter(&self) -> impl Iterator<Item = &'z Record> {
        let sets = self.sets;
        self.cnames
            .into_iter()
            .flatten()
            .chain(sets.iter().flat_map(|(_, set)| set))
    }

    /// True when there are none (never the case inside a [`ZoneAnswer`]).
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl PartialEq for AnswerRecords<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for AnswerRecords<'_> {}

/// Glue of a referral, borrowed from the zone: the A records the zone holds
/// for each NS target, in NS order.
#[derive(Debug, Clone, Copy)]
pub struct Glue<'z> {
    zone: &'z Zone,
    ns: &'z [Record],
}

impl<'z> Glue<'z> {
    /// The glue records.
    pub fn iter(&self) -> impl Iterator<Item = &'z Record> {
        let zone = self.zone;
        self.ns
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Ns(target) => Some(target),
                _ => None,
            })
            .flat_map(move |target| zone.get(target, RecordType::A))
    }
}

impl PartialEq for Glue<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Glue<'_> {}

/// The outcome of resolving a question against a single zone. Every record
/// in it is borrowed from the zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneAnswer<'z> {
    /// Authoritative data for the question (may be a CNAME chain).
    Records(AnswerRecords<'z>),
    /// The name is delegated below this zone: referral data.
    Delegation {
        /// NS records at the delegation cut.
        ns: &'z [Record],
        /// Glue A records for in-zone nameservers.
        glue: Glue<'z>,
    },
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in this zone.
    NxDomain,
    /// The question is outside this zone's authority.
    NotInZone,
}

impl Zone {
    /// Create an empty zone with a synthesized SOA.
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
        Zone {
            apex,
            at_apex: RrSets(vec![(RecordType::Soa, vec![soa])]),
            records: FxHashMap::default(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// The RRset of `rtype` at `owner`, at or below the apex, created empty
    /// if there is none; `owner` and every name between it and the apex
    /// get an entry.
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

    /// Add a record. The owner must be at or below the apex.
    ///
    /// # Panics
    /// Panics if the owner is outside the zone — that is a construction bug.
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "record owner {} outside zone {}",
            record.name,
            self.apex
        );
        let set = self.rrset_mut(&record.name, record.rtype());
        if !set.contains(&record) {
            set.push(record);
        }
    }

    /// Every RRset at `owner`, a name at or below the apex: at the apex
    /// itself, read without hashing the name.
    fn sets_at(&self, owner: Folded<'_>) -> &[(RecordType, Vec<Record>)] {
        let sets = if owner.label_count() == self.apex.label_count() {
            Some(&self.at_apex)
        } else {
            self.records.get(owner.key())
        };
        sets.map_or(&[], |sets| &sets.0)
    }

    /// [`Zone::get`] for a folded owner at or below the apex.
    fn rrset(&self, owner: Folded<'_>, rtype: RecordType) -> &[(RecordType, Vec<Record>)] {
        let sets = self.sets_at(owner);
        match sets.binary_search_by_key(&rtype, |(t, _)| *t) {
            Ok(i) => &sets[i..=i],
            Err(_) => &[],
        }
    }

    /// The RRset of `rtype` at `owner`, if any.
    pub fn get(&self, owner: &Name, rtype: RecordType) -> &[Record] {
        if !owner.is_subdomain_of(&self.apex) {
            return &[];
        }
        let mut scratch = Vec::new();
        match self.rrset(owner.borrowed().fold(&mut scratch), rtype) {
            [(_, set)] => set,
            _ => &[],
        }
    }

    /// Whether any record exists at `owner` (of any type) or below it: an
    /// owner or an empty non-terminal of this zone, or an ancestor of the
    /// apex (which always holds the SOA).
    fn exists(&self, owner: Folded<'_>) -> bool {
        self.records.contains_key(owner.key()) || self.apex.borrowed().is_subdomain_of(owner.name())
    }

    /// The zone's SOA record.
    pub(crate) fn soa(&self) -> &Record {
        &self.at_apex.get(RecordType::Soa)[0]
    }

    /// Answer a question authoritatively from this zone.
    ///
    /// Implements the RFC 1034 §4.3.2 essentials: exact-match answers,
    /// CNAME chasing within the zone, delegation referrals at NS cuts below
    /// the apex, NODATA and NXDOMAIN distinctions. Nothing is copied: the
    /// answer borrows the zone's records, and every lookup probes with the
    /// folded question name or one of its suffixes.
    pub fn answer(&self, qname: Folded<'_>, qtype: RecordType) -> ZoneAnswer<'_> {
        let apex = self.apex.borrowed();
        if !qname.name().is_subdomain_of(apex) {
            return ZoneAnswer::NotInZone;
        }
        // Check for a delegation cut strictly between apex and qname.
        // Walk from just below the apex toward the qname so the delegation
        // cut closest to the apex wins (RFC 1034 top-down matching).
        for take in apex.label_count() + 1..=qname.label_count() {
            // The apex itself holding NS is not a delegation; and NS at the
            // qname for an NS query is an answer, not a referral.
            if take == qname.label_count() && qtype == RecordType::Ns {
                continue;
            }
            let cut = qname.suffix(take).expect("take within the label count");
            if let [(_, ns)] = self.rrset(cut, RecordType::Ns) {
                return ZoneAnswer::Delegation {
                    ns,
                    glue: Glue { zone: self, ns },
                };
            }
        }
        // Exact match, following CNAMEs while they stay in the zone.
        let mut cnames = [None; MAX_CNAME_CHAIN];
        let mut scratch = Vec::new();
        let mut owner = qname;
        for hop in 0..MAX_CNAME_CHAIN {
            let sets = match qtype {
                RecordType::Any => self.sets_at(owner),
                _ => self.rrset(owner, qtype),
            };
            if !sets.is_empty() {
                return ZoneAnswer::Records(AnswerRecords { cnames, sets });
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
                // CNAME points outside the zone: return what we have.
                _ => break,
            }
        }
        if cnames[0].is_some() {
            return ZoneAnswer::Records(AnswerRecords { cnames, sets: &[] });
        }
        if self.exists(qname) {
            ZoneAnswer::NoData
        } else {
            ZoneAnswer::NxDomain
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ask<'z>(z: &'z Zone, qname: &str, qtype: RecordType) -> ZoneAnswer<'z> {
        z.answer(n(qname).borrowed().fold(&mut Vec::new()), qtype)
    }

    fn records<'z>(answer: ZoneAnswer<'z>) -> Vec<&'z Record> {
        match answer {
            ZoneAnswer::Records(rs) => rs.iter().collect(),
            other => panic!("unexpected: {other:?}"),
        }
    }

    fn a(owner: &str, ip: [u8; 4]) -> Record {
        Record::new(n(owner), 300, RData::A(Ipv4Addr::from(ip)))
    }

    fn zone() -> Zone {
        let mut z = Zone::new(n("example.com"));
        z.add(a("example.com", [203, 0, 113, 1]));
        z.add(a("www.example.com", [203, 0, 113, 2]));
        z.add(Record::new(
            n("alias.example.com"),
            300,
            RData::Cname(n("www.example.com")),
        ));
        z.add(Record::new(
            n("ext.example.com"),
            300,
            RData::Cname(n("cdn.other.net")),
        ));
        z.add(Record::new(
            n("sub.example.com"),
            3600,
            RData::Ns(n("ns1.sub.example.com")),
        ));
        z.add(a("ns1.sub.example.com", [198, 51, 100, 9]));
        z.add(Record::new(
            n("example.com"),
            300,
            RData::txt_from_str("v=spf1 -all"),
        ));
        z
    }

    #[test]
    fn exact_answer() {
        let z = zone();
        let rs = records(ask(&z, "www.example.com", RecordType::A));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].rdata.as_a().unwrap(), Ipv4Addr::new(203, 0, 113, 2));
    }

    #[test]
    fn apex_txt_answer() {
        let z = zone();
        let rs = records(ask(&z, "example.com", RecordType::Txt));
        assert_eq!(rs[0].rdata.txt_joined().unwrap(), "v=spf1 -all");
    }

    #[test]
    fn cname_is_chased_within_zone() {
        let z = zone();
        let rs = records(ask(&z, "alias.example.com", RecordType::A));
        assert_eq!(rs.len(), 2);
        assert!(matches!(rs[0].rdata, RData::Cname(_)));
        assert!(matches!(rs[1].rdata, RData::A(_)));
    }

    #[test]
    fn external_cname_returned_alone() {
        let z = zone();
        let rs = records(ask(&z, "ext.example.com", RecordType::A));
        assert_eq!(rs.len(), 1);
        assert!(matches!(rs[0].rdata, RData::Cname(_)));
    }

    #[test]
    fn delegation_referral_with_glue() {
        let z = zone();
        match ask(&z, "deep.sub.example.com", RecordType::A) {
            ZoneAnswer::Delegation { ns, glue } => {
                assert_eq!(ns.len(), 1);
                let glue: Vec<&Record> = glue.iter().collect();
                assert_eq!(glue.len(), 1);
                assert_eq!(
                    glue[0].rdata.as_a().unwrap(),
                    Ipv4Addr::new(198, 51, 100, 9)
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn ns_query_at_cut_is_referral_for_children_answer_for_cut() {
        let z = zone();
        // Query for NS at the cut itself: answered from the zone (it is the
        // delegation data, but served as the answer to an explicit NS query).
        assert_eq!(records(ask(&z, "sub.example.com", RecordType::Ns)).len(), 1);
        // A query below the cut refers.
        assert!(matches!(
            ask(&z, "x.sub.example.com", RecordType::A),
            ZoneAnswer::Delegation { .. }
        ));
    }

    #[test]
    fn nodata_vs_nxdomain() {
        let z = zone();
        assert_eq!(
            ask(&z, "www.example.com", RecordType::Mx),
            ZoneAnswer::NoData
        );
        assert_eq!(
            ask(&z, "nope.example.com", RecordType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("a.b.example.com", [203, 0, 113, 9]));
        assert_eq!(ask(&z, "b.example.com", RecordType::A), ZoneAnswer::NoData);
    }

    #[test]
    fn name_exists_is_one_step_in_canonical_order() {
        // The definition the one probe replaced: some record is owned by
        // the name itself or by a name strictly below it. The map's keys
        // include empty non-terminals, so the oracle reads the records.
        fn by_scan(z: &Zone, owner: &Name) -> bool {
            z.records
                .values()
                .chain([&z.at_apex])
                .flat_map(|sets| sets.0.iter().flat_map(|(_, set)| set))
                .any(|r| &r.name == owner || r.name.is_strict_subdomain_of(owner))
        }
        let mut ent = Zone::new(n("example.com"));
        ent.add(a("a.b.example.com", [203, 0, 113, 9]));
        ent.add(a("bb.example.com", [203, 0, 113, 10]));
        let mut scratch = Vec::new();
        for z in [zone(), ent, Zone::new(n("example.com"))] {
            for probe in [
                "example.com",
                "www.example.com",
                "b.example.com",
                "a.b.example.com",
                "x.a.b.example.com",
                "sub.example.com",
                "ns1.sub.example.com",
                "alias.example.com",
                "aa.example.com",
                "zz.example.com",
                "c.example.com",
                "com",
                "other.net",
                "example.org",
            ] {
                let owner = n(probe);
                let folded = owner.borrowed().fold(&mut scratch);
                assert_eq!(z.exists(folded), by_scan(&z, &owner), "{probe}");
            }
            assert!(z.exists(Name::root().borrowed().fold(&mut scratch)));
        }
    }

    #[test]
    fn out_of_zone() {
        let z = zone();
        assert_eq!(ask(&z, "other.net", RecordType::A), ZoneAnswer::NotInZone);
    }

    #[test]
    fn any_query_returns_all_types() {
        let z = zone();
        // SOA + A + TXT
        assert!(records(ask(&z, "example.com", RecordType::Any)).len() >= 3);
    }

    #[test]
    fn add_dedupes() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("example.com", [1, 2, 3, 4]));
        z.add(a("example.com", [1, 2, 3, 4]));
        assert_eq!(z.get(&n("example.com"), RecordType::A).len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn out_of_bailiwick_add_panics() {
        let mut z = Zone::new(n("example.com"));
        z.add(a("other.net", [1, 2, 3, 4]));
    }

    #[test]
    fn soa_accessible() {
        let z = zone();
        assert!(matches!(z.soa().rdata, RData::Soa { .. }));
    }
}
