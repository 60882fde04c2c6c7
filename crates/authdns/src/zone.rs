//! DNS zones: record storage and authoritative answer logic.

use dnswire::{
    Folded, FoldedName, MessageWriter, Name, NameBuf, NameRef, RData, Record, RecordType, Section,
};
use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::hash::BuildHasher;

/// The RRsets at one owner name, in `RecordType` order. A handful of types
/// at most, so a sorted vector beats a map per name. The list and every
/// RRset in it are kept at their length: a zone holds many owners of one
/// record each, and a first push would reserve four slots.
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

    /// Append `record` to the RRset of its type, created if there is none.
    /// With `dedupe`, a record the set holds already is dropped.
    pub(crate) fn add(&mut self, record: Record, dedupe: bool) {
        let rtype = record.rtype();
        self.extend(rtype, [record], 1, dedupe);
    }

    /// Append `records`, `count` records of type `rtype`, to the RRset of
    /// that type, created if there is none, growing it once. With
    /// `dedupe`, a record the set holds already or one earlier in the
    /// batch is dropped (the first seen stays): a few records are compared
    /// with the set, more are found by hash in one pass.
    fn extend(
        &mut self,
        rtype: RecordType,
        records: impl IntoIterator<Item = Record>,
        count: usize,
        dedupe: bool,
    ) {
        let i = match self.0.binary_search_by_key(&rtype, |(t, _)| *t) {
            Ok(i) => i,
            Err(i) => {
                self.0.reserve_exact(1);
                self.0.insert(i, (rtype, Vec::new()));
                i
            }
        };
        let set = &mut self.0[i].1;
        set.reserve_exact(count);
        let hash = |r: &Record| FxBuildHasher::default().hash_one(r);
        let mut seen = FxHashSet::default();
        let hashed = dedupe && count > 4;
        if hashed {
            seen.extend(set.iter().map(hash));
        }
        for record in records {
            // A new hash is a new record; a seen one is compared.
            if !dedupe || (hashed && seen.insert(hash(&record))) || !set.contains(&record) {
                set.push(record);
            }
        }
        set.shrink_to_fit();
    }
}

/// TTL of the SOA every zone derives from its apex.
const SOA_TTL: u32 = 3600;

/// Serial, refresh, retry, expire and minimum of the derived SOA.
const SOA_WORDS: [u32; 5] = [1, 7200, 3600, 1_209_600, 300];

/// The SOA a zone at `apex` answers with: primary `ns1.<apex>`, mailbox
/// `hostmaster.<apex>` (the apex itself where either name would be too
/// long), owned.
fn soa_record(apex: &Name) -> Record {
    let [serial, refresh, retry, expire, minimum] = SOA_WORDS;
    Record::new(
        apex.clone(),
        SOA_TTL,
        RData::Soa {
            mname: apex.child(b"ns1").unwrap_or_else(|_| apex.clone()),
            rname: apex.child(b"hostmaster").unwrap_or_else(|_| apex.clone()),
            serial,
            refresh,
            retry,
            expire,
            minimum,
        },
    )
}

/// Write the SOA of the zone at `apex` to `section`: the bytes of
/// [`soa_record`]'s record, its two names built on the stack, so a
/// negative answer allocates nothing.
pub(crate) fn write_soa(w: &mut MessageWriter, section: Section, apex: NameRef<'_>) -> bool {
    let mname = NameBuf::child(b"ns1", apex);
    let rname = NameBuf::child(b"hostmaster", apex);
    w.soa(
        section,
        apex,
        SOA_TTL,
        mname.as_ref().map_or(apex, NameBuf::borrowed),
        rname.as_ref().map_or(apex, NameBuf::borrowed),
        SOA_WORDS,
    )
}

/// A DNS zone: an apex name and the records at or below it.
///
/// Records are stored per owner name, one RRset per type under each: the
/// apex's beside the map, every name below it keyed by the folded name,
/// so a lookup is one hash probe with the bytes of a name folded once,
/// and none at the apex, the name a zone is asked about most. Every empty
/// non-terminal between an owner and the apex has an entry too, with no
/// RRsets, so whether a name exists is that same probe.
///
/// The zone's SOA is not stored: it is derived from the apex wherever it
/// is answered ([`Zone::soa`]), ahead of any SOA record added at the
/// apex, which the zone keeps as it keeps any record.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    /// The RRsets at the apex.
    at_apex: RrSets,
    /// The RRsets of every name strictly below the apex; most zones have
    /// none, and hold one pointer instead of an empty map.
    records: Option<Box<FxHashMap<FoldedName, RrSets>>>,
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
    /// The apex, when the answer holds the zone's derived SOA (an SOA or
    /// `ANY` question at the apex): it goes in the SOA type's position.
    soa: Option<&'z Name>,
}

/// One record of an answer, as the zone holds it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnswerRecord<'z> {
    /// A record stored in the zone.
    Stored(&'z Record),
    /// The SOA derived from this apex.
    Soa(&'z Name),
}

impl<'z> AnswerRecords<'z> {
    /// True when every record is owned by the question's name: no CNAME
    /// was followed.
    pub fn at_question(&self) -> bool {
        self.cnames[0].is_none()
    }

    /// The records in answer-section order, the derived SOA as its apex.
    pub(crate) fn parts(&self) -> impl Iterator<Item = AnswerRecord<'z>> {
        let sets = self.sets;
        let split = match self.soa {
            Some(_) => sets.partition_point(|(t, _)| *t < RecordType::Soa),
            None => sets.len(),
        };
        let stored = |sets: &'z [(RecordType, Vec<Record>)]| {
            sets.iter()
                .flat_map(|(_, set)| set)
                .map(AnswerRecord::Stored)
        };
        self.cnames
            .into_iter()
            .flatten()
            .map(AnswerRecord::Stored)
            .chain(stored(&sets[..split]))
            .chain(self.soa.map(AnswerRecord::Soa))
            .chain(stored(&sets[split..]))
    }

    /// The records in answer-section order: borrowed from the zone, the
    /// derived SOA built owned.
    pub fn iter(&self) -> impl Iterator<Item = Cow<'z, Record>> {
        self.parts().map(|part| match part {
            AnswerRecord::Stored(r) => Cow::Borrowed(r),
            AnswerRecord::Soa(apex) => Cow::Owned(soa_record(apex)),
        })
    }

    /// True when there are none (never the case inside a [`ZoneAnswer`]).
    pub fn is_empty(&self) -> bool {
        self.parts().next().is_none()
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
/// in it is borrowed from the zone, or derived from its apex.
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
    /// Create an empty zone: it holds only the SOA derived from its apex.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            at_apex: RrSets::default(),
            records: None,
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// The zone's SOA, derived from its apex: what its negative answers
    /// carry, built owned. SOA records added at the apex come after it in
    /// an answer, and are what [`Zone::get`] returns for the type.
    pub fn soa(&self) -> Record {
        soa_record(&self.apex)
    }

    /// The RRsets at `owner`, at or below the apex, created empty if there
    /// are none; `owner` and every name between it and the apex get an
    /// entry.
    fn sets_mut(&mut self, owner: &Name) -> &mut RrSets {
        if owner.label_count() == self.apex.label_count() {
            return &mut self.at_apex;
        }
        let mut scratch = Vec::new();
        let owner = owner.borrowed().fold(&mut scratch);
        let records = self.records.get_or_insert_with(Box::default);
        for labels in (self.apex.label_count() + 1..=owner.label_count()).rev() {
            let name = owner.suffix(labels).expect("within the label count");
            if records.contains_key(name.key()) {
                break;
            }
            records.insert(FoldedName::new(name.name()), RrSets::default());
        }
        records
            .get_mut(owner.key())
            .expect("present or just inserted")
    }

    /// Add a record. The owner must be at or below the apex. A record the
    /// zone holds already, the derived SOA included, is dropped.
    ///
    /// # Panics
    /// Panics if the owner is outside the zone — that is a construction bug.
    pub fn add(&mut self, record: Record) {
        if self.keeps(&record) {
            self.sets_mut(&record.name).add(record, true);
        }
    }

    /// Add records as [`Zone::add`] adds each, a run of records with one
    /// owner and type at a time: its RRset grows once, by the run's
    /// length, and its duplicates are found in one pass.
    ///
    /// # Panics
    /// Panics if an owner is outside the zone.
    pub fn add_all(&mut self, mut records: Vec<Record>) {
        records.retain(|r| self.keeps(r));
        let mut rest = records.into_iter();
        while let Some(first) = rest.as_slice().first() {
            let rtype = first.rtype();
            let run = rest
                .as_slice()
                .iter()
                .take_while(|r| r.rtype() == rtype && r.name == first.name)
                .count();
            let sets = self.sets_mut(&first.name);
            sets.extend(rtype, rest.by_ref().take(run), run, true);
        }
    }

    /// Whether `record` is stored by [`Zone::add`]: not when it is the
    /// derived SOA.
    ///
    /// # Panics
    /// Panics if the owner is outside the zone.
    fn keeps(&self, record: &Record) -> bool {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "record owner {} outside zone {}",
            record.name,
            self.apex
        );
        !(record.rtype() == RecordType::Soa
            && record.name.label_count() == self.apex.label_count()
            && *record == self.soa())
    }

    /// Every RRset at `owner`, a name at or below the apex: at the apex
    /// itself, read without hashing the name.
    fn sets_at(&self, owner: Folded<'_>) -> &[(RecordType, Vec<Record>)] {
        let sets = if owner.label_count() == self.apex.label_count() {
            Some(&self.at_apex)
        } else {
            self.records.as_ref().and_then(|r| r.get(owner.key()))
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

    /// The stored RRset of `rtype` at `owner`, if any (the derived SOA is
    /// [`Zone::soa`]).
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

    /// Whether `owner`, a name at or below the apex, exists: the apex
    /// (which always holds the SOA), an owner, or an empty non-terminal.
    fn exists(&self, owner: Folded<'_>) -> bool {
        owner.label_count() == self.apex.label_count()
            || self
                .records
                .as_ref()
                .is_some_and(|r| r.contains_key(owner.key()))
    }

    /// Answer a question authoritatively from this zone.
    ///
    /// Implements the RFC 1034 §4.3.2 essentials: exact-match answers,
    /// CNAME chasing within the zone, delegation referrals at NS cuts below
    /// the apex, NODATA and NXDOMAIN distinctions. Nothing is copied: the
    /// answer borrows the zone's records, and every lookup probes with the
    /// folded question name or one of its suffixes.
    pub fn answer(&self, qname: Folded<'_>, qtype: RecordType) -> ZoneAnswer<'_> {
        if !qname.name().is_subdomain_of(self.apex.borrowed()) {
            return ZoneAnswer::NotInZone;
        }
        self.answer_within(qname, qtype)
    }

    /// [`Zone::answer`] for a question the caller already found at or
    /// below the apex (a provider's suffix walk matched the apex's key),
    /// so the apex's own bytes are not read.
    pub(crate) fn answer_within(&self, qname: Folded<'_>, qtype: RecordType) -> ZoneAnswer<'_> {
        let apex_labels = self.apex.label_count();
        // Check for a delegation cut strictly between apex and qname.
        // Walk from just below the apex toward the qname so the delegation
        // cut closest to the apex wins (RFC 1034 top-down matching).
        for take in apex_labels + 1..=qname.label_count() {
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
            let soa = (owner.label_count() == apex_labels
                && matches!(qtype, RecordType::Soa | RecordType::Any))
            .then_some(&self.apex);
            if !sets.is_empty() || soa.is_some() {
                return ZoneAnswer::Records(AnswerRecords { cnames, sets, soa });
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
            return ZoneAnswer::Records(AnswerRecords {
                cnames,
                sets: &[],
                soa: None,
            });
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

    fn records(answer: ZoneAnswer<'_>) -> Vec<Record> {
        match answer {
            ZoneAnswer::Records(rs) => rs.iter().map(Cow::into_owned).collect(),
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
        // the name itself or by a name strictly below it, the apex's SOA
        // included. The map's keys include empty non-terminals, so the
        // oracle reads the records.
        fn by_scan(z: &Zone, owner: &Name) -> bool {
            z.records
                .iter()
                .flat_map(|r| r.values())
                .chain([&z.at_apex])
                .flat_map(|sets| sets.0.iter().flat_map(|(_, set)| set))
                .any(|r| &r.name == owner || r.name.is_strict_subdomain_of(owner))
                || z.apex() == owner
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
                if !owner.is_subdomain_of(z.apex()) {
                    // Asked only of names at or below the apex.
                    continue;
                }
                let folded = owner.borrowed().fold(&mut scratch);
                assert_eq!(z.exists(folded), by_scan(&z, &owner), "{probe}");
            }
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
        // A, then the derived SOA in its type's position, then TXT.
        let types: Vec<RecordType> = records(ask(&z, "example.com", RecordType::Any))
            .iter()
            .map(Record::rtype)
            .collect();
        assert_eq!(types, [RecordType::A, RecordType::Soa, RecordType::Txt]);
    }

    #[test]
    fn the_derived_soa_leads_the_soa_records_added_at_the_apex() {
        let mut z = zone();
        let explicit = Record::new(
            n("example.com"),
            60,
            RData::Soa {
                mname: n("primary.example.net"),
                rname: n("admin.example.net"),
                serial: 9,
                refresh: 1,
                retry: 2,
                expire: 3,
                minimum: 4,
            },
        );
        z.add(explicit.clone());
        // The derived SOA, added again in another case, is not a record
        // of its own.
        let mut again = z.soa();
        again.name = n("EXAMPLE.com");
        z.add(again);
        assert_eq!(
            z.get(&n("example.com"), RecordType::Soa),
            std::slice::from_ref(&explicit)
        );
        assert_eq!(
            records(ask(&z, "example.com", RecordType::Soa)),
            [z.soa(), explicit]
        );
        // Negative answers carry the derived SOA alone.
        assert_eq!(
            ask(&z, "www.example.com", RecordType::Txt),
            ZoneAnswer::NoData
        );
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
        assert_eq!(z.soa().name, n("example.com"));
        match z.soa().rdata {
            RData::Soa { mname, rname, .. } => {
                assert_eq!(mname, n("ns1.example.com"));
                assert_eq!(rname, n("hostmaster.example.com"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn sets_are_kept_at_their_length() {
        let mut z = Zone::new(n("example.com"));
        for i in 0..36 {
            z.add(a("example.com", [198, 51, 100, i]));
        }
        z.add(a("www.example.com", [203, 0, 113, 2]));
        assert_eq!(z.at_apex.0.capacity(), 1);
        let set = &z.at_apex.0[0].1;
        assert_eq!((set.len(), set.capacity()), (36, 36));
        let www = &z
            .records
            .as_ref()
            .and_then(|r| r.values().next())
            .expect("www")
            .0;
        assert_eq!((www.capacity(), www[0].1.capacity()), (1, 1));
    }
}
