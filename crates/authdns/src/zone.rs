//! DNS zones: record storage and authoritative answer logic.

use dnswire::{Name, NameKey, NameRef, RData, Record, RecordType};
use std::collections::BTreeMap;
use std::ops::Bound;

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
/// Records are stored per owner name in canonical order, one RRset per
/// type under each, so a lookup borrows the name it is given. The zone
/// also carries its SOA so negative answers can include it in the
/// authority section.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    records: BTreeMap<Name, RrSets>,
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
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'z Record> {
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
        let mut zone = Zone {
            apex,
            records: BTreeMap::new(),
        };
        zone.rrset_mut(&soa.name, RecordType::Soa).push(soa);
        zone
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    fn rrset_mut(&mut self, owner: &Name, rtype: RecordType) -> &mut Vec<Record> {
        if !self.records.contains_key(owner) {
            self.records.insert(owner.clone(), RrSets::default());
        }
        self.records
            .get_mut(owner)
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

    /// Every RRset at `owner`.
    fn sets_at(&self, owner: NameRef<'_>) -> &[(RecordType, Vec<Record>)] {
        self.records
            .get(&owner as &dyn NameKey)
            .map_or(&[], |sets| &sets.0)
    }

    /// [`Zone::get`] for a borrowed owner.
    fn rrset(&self, owner: NameRef<'_>, rtype: RecordType) -> &[(RecordType, Vec<Record>)] {
        let sets = self.sets_at(owner);
        match sets.binary_search_by_key(&rtype, |(t, _)| *t) {
            Ok(i) => &sets[i..=i],
            Err(_) => &[],
        }
    }

    /// The RRset of `rtype` at `owner`, if any.
    pub fn get(&self, owner: &Name, rtype: RecordType) -> &[Record] {
        self.records.get(owner).map_or(&[], |sets| sets.get(rtype))
    }

    /// Whether any record exists at `owner` (of any type) or below it.
    ///
    /// Descendants of a name sort directly after it in canonical order, so
    /// the first key at or after `owner` settles it.
    fn exists(&self, owner: NameRef<'_>) -> bool {
        let from: &dyn NameKey = &owner;
        self.records
            .range::<dyn NameKey, _>((Bound::Included(from), Bound::Unbounded))
            .next()
            .is_some_and(|(name, _)| name.borrowed().is_subdomain_of(owner))
    }

    /// The zone's SOA record.
    pub(crate) fn soa(&self) -> &Record {
        &self.get(&self.apex, RecordType::Soa)[0]
    }

    /// Answer a question authoritatively from this zone.
    ///
    /// Implements the RFC 1034 §4.3.2 essentials: exact-match answers,
    /// CNAME chasing within the zone, delegation referrals at NS cuts below
    /// the apex, NODATA and NXDOMAIN distinctions. Nothing is copied: the
    /// answer borrows the zone's records and the question's name.
    pub fn answer(&self, qname: NameRef<'_>, qtype: RecordType) -> ZoneAnswer<'_> {
        let apex = self.apex.borrowed();
        if !qname.is_subdomain_of(apex) {
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
                    owner = target.borrowed();
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
        z.answer(n(qname).borrowed(), qtype)
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
        // The definition the range probe replaced: some record is owned by
        // the name itself or by a name strictly below it.
        fn by_scan(z: &Zone, owner: &Name) -> bool {
            z.records
                .keys()
                .any(|name| name == owner || name.is_strict_subdomain_of(owner))
        }
        let mut ent = Zone::new(n("example.com"));
        ent.add(a("a.b.example.com", [203, 0, 113, 9]));
        ent.add(a("bb.example.com", [203, 0, 113, 10]));
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
                assert_eq!(z.exists(owner.borrowed()), by_scan(&z, &owner), "{probe}");
            }
            assert!(z.exists(Name::root().borrowed()));
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
