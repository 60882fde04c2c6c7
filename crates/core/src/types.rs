//! Shared data model of the measurement pipeline.
//!
//! Paper-scale worlds carry millions of URs, so the hot structs hold
//! compact interned handles instead of owned allocations: domains are
//! [`InternedName`]s (4-byte ids into the global name table) and provider
//! names / profile strings are [`Sym`]s. Both hash, order, and display by
//! their text — never by id — so every pinned output digest is unchanged
//! from the owned-representation era.

use dnswire::{RDataSet, RDataSetRef, RecordType};
use fxhash::{FxHashMap, FxHashSet};
use intern::{InternedName, Sym};
use std::borrow::Cow;
use std::net::Ipv4Addr;
use std::sync::LazyLock;

/// The paper's definition of a *unique UR*: "a DNS record provided by a
/// nameserver (IP address) for an undelegated domain" — identity is the
/// `(nameserver, domain, type)` triple, because blocking one server does
/// not stop resolution of the same data at another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UrKey {
    /// The nameserver that served the record.
    pub ns_ip: Ipv4Addr,
    /// The undelegated domain queried.
    pub domain: InternedName,
    /// The record type.
    pub rtype: RecordType,
}

/// One collected undelegated record (an RRset, per the unique-UR identity).
///
/// A scan keeps every UR it collects until the run returns, so only what
/// a verdict reads is kept of the answer: the data of each record, in one
/// [`RDataSet`] buffer. Owner names, classes and TTLs are dropped (the
/// probe kept only records of the asked name and type). On the streamed
/// path nothing is kept: the UR is classified while its reply is read,
/// its records borrowed (`R` = [`RDataSetRef`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectedUr<R = RDataSet> {
    /// Identity triple.
    pub key: UrKey,
    /// The data of the answer's records, in answer order.
    pub records: R,
    /// Provider operating the nameserver (from the NS inventory).
    pub provider: Sym,
    /// AA flag of the response (authoritative data).
    pub authoritative: bool,
    /// RA flag of the response (the server offered recursion — the
    /// misconfigured-recursive signature).
    pub recursion_available: bool,
    /// The scan shard that probed it.
    pub shard: u16,
    /// Its task's position in that shard's order: the `r`-th task of slot
    /// `k` in a provider run of `S` servers sits at `O + r·S + k`, where `O`
    /// is `targets × types` for each server before the run. With `shard`,
    /// where the UR sits in its run: the sequence digest hashes both into
    /// the UR's row, so no two URs of a run share a row's position.
    pub index: u32,
}

// The position fills what was padding: a UR stays 40 B on a 64-bit target.
const _: () = assert!(std::mem::size_of::<CollectedUr>() <= 40);

impl<R> CollectedUr<R> {
    /// The same UR over other records.
    fn with<S>(&self, records: S) -> CollectedUr<S> {
        CollectedUr {
            key: self.key,
            records,
            provider: self.provider,
            authoritative: self.authoritative,
            recursion_available: self.recursion_available,
            shard: self.shard,
            index: self.index,
        }
    }
}

impl CollectedUr {
    /// The IPv4 addresses contained in A records of this UR.
    pub fn a_ips(&self) -> Vec<Ipv4Addr> {
        self.records.iter().filter_map(|r| r.as_a()).collect()
    }

    /// The text of each TXT record, borrowing from the record data where
    /// possible (single-chunk UTF-8 TXT — the common case — copies
    /// nothing).
    pub fn txt_strs(&self) -> Vec<Cow<'_, str>> {
        self.records.iter().filter_map(|r| r.txt_str()).collect()
    }

    /// This UR, its records borrowed.
    pub(crate) fn borrowed(&self) -> CollectedUr<RDataSetRef<'_>> {
        self.with(self.records.borrowed())
    }
}

impl CollectedUr<RDataSetRef<'_>> {
    /// This UR with its records copied out: what a run that keeps its
    /// URs keeps.
    pub(crate) fn to_kept(&self) -> CollectedUr {
        self.with(self.records.to_set())
    }
}

/// The per-domain "correct record" profile assembled from open resolvers,
/// enriched with metadata — the `database(d)` of Appendix B.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomainProfile {
    /// Correct A addresses.
    pub(crate) ips: FxHashSet<Ipv4Addr>,
    /// ASNs of correct addresses.
    pub(crate) asns: FxHashSet<u32>,
    /// Geolocations of correct addresses (country + city).
    pub(crate) geos: FxHashSet<([u8; 2], u16)>,
    /// Certificate fingerprints served at correct addresses.
    pub(crate) certs: FxHashSet<u64>,
    /// Correct TXT strings (exact-match exclusion for TXT URs).
    pub(crate) txts: FxHashSet<Sym>,
}

/// Correct-record database over all target domains.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CorrectDb {
    /// Per-domain profiles.
    pub(crate) domains: FxHashMap<NameId, DomainProfile>,
}

impl CorrectDb {
    /// Profile for one domain (a shared empty profile if never collected).
    pub(crate) fn profile(&self, domain: &InternedName) -> &DomainProfile {
        static EMPTY: LazyLock<DomainProfile> = LazyLock::new(DomainProfile::default);
        self.domains.get(&NameId(*domain)).unwrap_or(&EMPTY)
    }
}

/// An interned name as the key of a map that is only probed or counted,
/// never iterated in order: it hashes the name's id
/// ([`InternedName::id`]), one word, where the name's own hash reads
/// every byte of it. Ids follow interning order, so nothing keyed by one
/// may reach ordered output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameId(pub(crate) InternedName);

impl std::hash::Hash for NameId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u32(self.0.id());
    }
}

impl DomainProfile {
    /// Whether `text` is one of the domain's correct TXT records: compared
    /// with the profile's own few strings, so scan data is never looked up
    /// in the global interner.
    pub(crate) fn has_txt(&self, text: &str) -> bool {
        self.txts.iter().any(|known| known.as_str() == text)
    }
}

/// Protective-record profile of one nameserver, learned by querying a
/// canary domain nobody hosts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtectiveProfile {
    /// Addresses protective A records point at.
    pub(crate) a_ips: FxHashSet<Ipv4Addr>,
    /// Protective TXT payloads.
    pub(crate) txts: FxHashSet<Sym>,
}

impl ProtectiveProfile {
    /// Whether `text` is the server's protective TXT. Protective bodies
    /// embed the queried name or provider, so a text matches a known one
    /// exactly or on a stable prefix of at least 12 bytes.
    pub(crate) fn has_txt(&self, text: &str) -> bool {
        self.txts.iter().any(|known| {
            let known = known.as_str();
            known == text || common_prefix_len(known, text) >= 12
        })
    }
}

/// Protective-record database keyed by nameserver address: a UR is
/// protective when it is non-empty and every record of it is the
/// server's protective A address or TXT ([`ProtectiveProfile`]).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ProtectiveDb {
    /// Per-nameserver protective profiles.
    pub(crate) servers: FxHashMap<Ipv4Addr, ProtectiveProfile>,
}

/// Whether `items` yields at least one item and `holds` for every one,
/// stopping at the first it fails: a non-empty subset test read in place,
/// with nothing collected.
pub(crate) fn nonempty_all<T>(
    items: impl IntoIterator<Item = T>,
    mut holds: impl FnMut(T) -> bool,
) -> bool {
    let mut any = false;
    items.into_iter().all(|item| {
        any = true;
        holds(item)
    }) && any
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

/// TXT record categories, following the TXTing-101 taxonomy the paper
/// reuses (§4.2): email-related records dominate the malicious TXT URs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TxtCategory {
    /// SPF policies (`v=spf1 …`).
    Spf,
    /// DMARC policies (`v=DMARC1 …`).
    Dmarc,
    /// DKIM keys (`v=DKIM1` / `k=rsa`).
    Dkim,
    /// Ownership-verification tokens.
    Verification,
    /// Anything else.
    Other,
}

impl TxtCategory {
    /// Classify one TXT payload, matching ASCII letters in either case.
    pub(crate) fn classify(text: &str) -> TxtCategory {
        let t = text.trim_start().as_bytes();
        let starts = |prefix: &str| {
            t.get(..prefix.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
        };
        let contains = |needle: &str| {
            t.windows(needle.len())
                .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
        };
        if starts("v=spf1") {
            TxtCategory::Spf
        } else if starts("v=dmarc1") {
            TxtCategory::Dmarc
        } else if starts("v=dkim1") || starts("k=rsa") {
            TxtCategory::Dkim
        } else if contains("site-verification") || contains("verification=") {
            TxtCategory::Verification
        } else {
            TxtCategory::Other
        }
    }

    /// Is this an email-related category (SPF/DMARC/DKIM)?
    pub(crate) fn is_email_related(self) -> bool {
        matches!(
            self,
            TxtCategory::Spf | TxtCategory::Dmarc | TxtCategory::Dkim
        )
    }
}

/// Final category of a UR (§4.3: malicious, correct, protective, unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UrCategory {
    /// Associated with confirmed-malicious addresses.
    Malicious,
    /// Explained by correct records (recursive resolution, past delegation,
    /// CDN spread, parking/redirect pages).
    Correct,
    /// The provider's own protective answer.
    Protective,
    /// Suspicious but unconfirmed.
    Unknown,
}

/// Which Appendix-B condition (or auxiliary exclusion) explained a correct
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrectReason {
    /// Condition 1: IPs ⊆ correct IPs.
    IpSubset,
    /// Condition 2: ASNs ⊆ correct ASNs.
    AsSubset,
    /// Condition 3: geos ⊆ correct geos.
    GeoSubset,
    /// Condition 4: certificates ⊆ correct certificates.
    CertSubset,
    /// Condition 5: record present in passive-DNS history.
    PassiveDns,
    /// HTTP-keyword exclusion: parked page.
    Parked,
    /// HTTP-keyword exclusion: redirect page.
    Redirect,
    /// TXT exact match against correct TXT records.
    TxtExact,
}

/// Why an address was deemed malicious (drives Fig. 3a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaliciousEvidence {
    /// Threat-intelligence label only.
    VendorOnly,
    /// IDS alert only.
    IdsOnly,
    /// Both signals.
    Both,
}

/// A classified UR after the full pipeline.
///
/// `run` returns one a UR, so the struct stays small: the collected
/// record's data is one buffer.
#[derive(Debug, Clone)]
pub struct ClassifiedUr {
    /// The collected record.
    pub ur: CollectedUr,
    /// Final category.
    pub category: UrCategory,
    /// Why it was excluded as correct, if it was.
    pub correct_reason: Option<CorrectReason>,
    /// TXT category, for TXT URs.
    pub txt_category: Option<TxtCategory>,
    /// Corresponding IP addresses (§4.3: A-record IPs, or TXT-embedded
    /// IPs, or the sibling A UR's IPs).
    pub corresponding_ips: Vec<Ipv4Addr>,
}

// What a verdict costs inline (72 B on a 64-bit target); `run` keeps one
// for every UR.
const _: () = assert!(std::mem::size_of::<ClassifiedUr>() <= 72);

impl ClassifiedUr {
    /// What was decided about the UR, its addresses aside.
    pub(crate) fn verdict(&self) -> Verdict {
        Verdict {
            category: self.category,
            correct_reason: self.correct_reason,
            txt_category: self.txt_category,
        }
    }
}

/// What the classifier decides about one UR besides its corresponding
/// addresses: what a [`ClassifiedUr`] holds of it, or what the streamed
/// scan folds while the UR's reply is still being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// Category.
    pub(crate) category: UrCategory,
    /// Why it was excluded as correct, if it was.
    pub(crate) correct_reason: Option<CorrectReason>,
    /// TXT category, for TXT URs.
    pub(crate) txt_category: Option<TxtCategory>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{Name, RData};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ur(rtype: RecordType, records: Vec<RData>) -> CollectedUr {
        CollectedUr {
            key: UrKey {
                ns_ip: Ipv4Addr::new(20, 0, 0, 1),
                domain: InternedName::intern(&n("x.com")),
                rtype,
            },
            records: records.into_iter().collect(),
            provider: "P".into(),
            authoritative: true,
            recursion_available: false,
            shard: 0,
            index: 0,
        }
    }

    #[test]
    fn txt_classification() {
        assert_eq!(
            TxtCategory::classify("v=spf1 ip4:1.2.3.4 -all"),
            TxtCategory::Spf
        );
        assert_eq!(TxtCategory::classify("V=SPF1 -all"), TxtCategory::Spf);
        assert_eq!(
            TxtCategory::classify("v=DMARC1; p=none"),
            TxtCategory::Dmarc
        );
        assert_eq!(
            TxtCategory::classify("v=DKIM1; k=rsa; p=MIG"),
            TxtCategory::Dkim
        );
        assert_eq!(
            TxtCategory::classify("google-site-verification=abc"),
            TxtCategory::Verification
        );
        assert_eq!(TxtCategory::classify("hello world"), TxtCategory::Other);
        assert!(TxtCategory::Spf.is_email_related());
        assert!(!TxtCategory::Other.is_email_related());
    }

    #[test]
    fn ur_accessors() {
        let u = ur(
            RecordType::A,
            vec![
                RData::A(Ipv4Addr::new(1, 2, 3, 4)),
                RData::txt_from_str("v=spf1 -all"),
            ],
        );
        assert_eq!(u.a_ips(), vec![Ipv4Addr::new(1, 2, 3, 4)]);
        assert_eq!(u.txt_strs(), ["v=spf1 -all"]);
    }

    /// Whether the classifier finds `ur` protective under `db` alone.
    fn is_protective(db: &ProtectiveDb, ur: &CollectedUr) -> bool {
        let (correct, metadata, history) = (
            CorrectDb::default(),
            netdb::NetDb::new(),
            pdns::PassiveDns::new(),
        );
        let cfg = crate::ClassifyConfig::default();
        let classifier = crate::StreamClassifier::new(&correct, db, &metadata, &history, &cfg);
        let verdict = classifier.decide(&ur.borrowed(), &mut Vec::new());
        verdict.category == UrCategory::Protective
    }

    #[test]
    fn protective_matching_a() {
        let mut db = ProtectiveDb::default();
        let mut profile = ProtectiveProfile::default();
        profile.a_ips.insert(Ipv4Addr::new(20, 0, 255, 1));
        db.servers.insert(Ipv4Addr::new(20, 0, 0, 1), profile);
        let hit = ur(RecordType::A, vec![RData::A(Ipv4Addr::new(20, 0, 255, 1))]);
        assert!(is_protective(&db, &hit));
        let miss = ur(RecordType::A, vec![RData::A(Ipv4Addr::new(6, 6, 6, 6))]);
        assert!(!is_protective(&db, &miss));
    }

    #[test]
    fn protective_matching_txt_prefix() {
        let mut db = ProtectiveDb::default();
        let mut profile = ProtectiveProfile::default();
        profile
            .txts
            .insert("v=warning; domain not hosted on P; see status page".into());
        db.servers.insert(Ipv4Addr::new(20, 0, 0, 1), profile);
        let hit = ur(
            RecordType::Txt,
            vec![RData::txt_from_str(
                "v=warning; domain not hosted on P; see status page",
            )],
        );
        assert!(is_protective(&db, &hit));
        // The body names the provider: a shared 12-byte prefix is enough.
        let named = ur(
            RecordType::Txt,
            vec![RData::txt_from_str("v=warning; domain not hosted on Q")],
        );
        assert!(is_protective(&db, &named));
        let miss = ur(
            RecordType::Txt,
            vec![RData::txt_from_str("v=spf1 ip4:6.6.6.6 -all")],
        );
        assert!(!is_protective(&db, &miss));
    }

    #[test]
    fn unknown_server_never_protective() {
        let db = ProtectiveDb::default();
        let u = ur(RecordType::A, vec![RData::A(Ipv4Addr::new(1, 1, 1, 1))]);
        assert!(!is_protective(&db, &u));
    }

    #[test]
    fn correct_db_default_profile_is_empty() {
        let db = CorrectDb::default();
        let p = db.profile(&InternedName::intern(&n("nothing.com")));
        assert!(p.ips.is_empty() && p.txts.is_empty());
    }
}
