//! Shared data model of the measurement pipeline.
//!
//! Paper-scale worlds carry millions of URs, so the hot structs hold
//! compact interned handles instead of owned allocations: domains are
//! [`InternedName`]s (4-byte ids into the global name table) and provider
//! names / profile strings are [`Sym`]s. Both hash, order, and display by
//! their text — never by id — so every pinned output digest is unchanged
//! from the owned-representation era.

use dnswire::{Record, RecordType};
use intern::{InternedName, Sym};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectedUr {
    /// Identity triple.
    pub key: UrKey,
    /// The records in the answer.
    pub records: Vec<Record>,
    /// Auxiliary records gathered by follow-up probes at the same
    /// nameserver — e.g. A records of the exchange hosts named by MX URs
    /// (the MX extension of §6's future work).
    pub aux_records: Vec<Record>,
    /// Provider operating the nameserver (from the NS inventory).
    pub provider: Sym,
    /// AA flag of the response (authoritative data).
    pub authoritative: bool,
    /// RA flag of the response (the server offered recursion — the
    /// misconfigured-recursive signature).
    pub recursion_available: bool,
}

impl CollectedUr {
    /// The IPv4 addresses contained in A records of this UR.
    pub fn a_ips(&self) -> Vec<Ipv4Addr> {
        self.records.iter().filter_map(|r| r.rdata.as_a()).collect()
    }

    /// The text of each TXT record, borrowing from the record data where
    /// possible (single-chunk UTF-8 TXT — the common case — copies
    /// nothing).
    pub fn txt_strs(&self) -> Vec<Cow<'_, str>> {
        self.records
            .iter()
            .filter_map(|r| r.rdata.txt_str())
            .collect()
    }

    /// The joined text of TXT records, one owned string per record.
    /// Prefer [`CollectedUr::txt_strs`] on hot paths.
    pub fn txt_strings(&self) -> Vec<String> {
        self.txt_strs().into_iter().map(Cow::into_owned).collect()
    }
}

/// The per-domain "correct record" profile assembled from open resolvers,
/// enriched with metadata — the `database(d)` of Appendix B.
#[derive(Debug, Clone, Default)]
pub struct DomainProfile {
    /// Correct A addresses.
    pub ips: HashSet<Ipv4Addr>,
    /// ASNs of correct addresses.
    pub asns: HashSet<u32>,
    /// Geolocations of correct addresses (country + city).
    pub geos: HashSet<([u8; 2], u16)>,
    /// Certificate fingerprints served at correct addresses.
    pub certs: HashSet<u64>,
    /// Correct TXT strings (exact-match exclusion for TXT URs).
    pub txts: HashSet<Sym>,
    /// Correct MX data, rendered (`"pref exchange"`), for exact-match
    /// exclusion of MX URs.
    pub mxs: HashSet<Sym>,
}

/// Correct-record database over all target domains.
#[derive(Debug, Default)]
pub struct CorrectDb {
    /// Per-domain profiles.
    pub domains: HashMap<InternedName, DomainProfile>,
}

impl CorrectDb {
    /// Profile for one domain (a shared empty profile if never collected).
    pub fn profile(&self, domain: &InternedName) -> &DomainProfile {
        static EMPTY: LazyLock<DomainProfile> = LazyLock::new(DomainProfile::default);
        self.domains.get(domain).unwrap_or(&EMPTY)
    }
}

/// Protective-record profile of one nameserver, learned by querying a
/// canary domain nobody hosts.
#[derive(Debug, Clone, Default)]
pub struct ProtectiveProfile {
    /// Addresses protective A records point at.
    pub a_ips: HashSet<Ipv4Addr>,
    /// Protective TXT payloads.
    pub txts: HashSet<Sym>,
}

/// Protective-record database keyed by nameserver address.
#[derive(Debug, Default)]
pub struct ProtectiveDb {
    /// Per-nameserver protective profiles.
    pub servers: HashMap<Ipv4Addr, ProtectiveProfile>,
}

impl ProtectiveDb {
    /// Does `ur` exactly match the nameserver's protective behaviour?
    pub fn matches(&self, ur: &CollectedUr) -> bool {
        let Some(p) = self.servers.get(&ur.key.ns_ip) else {
            return false;
        };
        match ur.key.rtype {
            RecordType::A => {
                let ips = ur.a_ips();
                !ips.is_empty() && ips.iter().all(|ip| p.a_ips.contains(ip))
            }
            RecordType::Txt => {
                let txts = ur.txt_strs();
                // Protective TXT bodies embed the queried name/provider, so
                // match on the stable prefix rather than full equality.
                // `Sym::lookup` probes the set without interning scan data.
                !txts.is_empty()
                    && txts.iter().all(|t| {
                        Sym::lookup(t).is_some_and(|s| p.txts.contains(&s))
                            || p.txts
                                .iter()
                                .any(|known| common_prefix_len(known.as_str(), t) >= 12)
                    })
            }
            _ => false,
        }
    }
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
    /// Classify one TXT payload.
    pub fn classify(text: &str) -> TxtCategory {
        let t = text.trim_start();
        let lower = t.to_ascii_lowercase();
        if lower.starts_with("v=spf1") {
            TxtCategory::Spf
        } else if lower.starts_with("v=dmarc1") {
            TxtCategory::Dmarc
        } else if lower.starts_with("v=dkim1") || lower.starts_with("k=rsa") {
            TxtCategory::Dkim
        } else if lower.contains("site-verification") || lower.contains("verification=") {
            TxtCategory::Verification
        } else {
            TxtCategory::Other
        }
    }

    /// Is this an email-related category (SPF/DMARC/DKIM)?
    pub fn is_email_related(self) -> bool {
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
    /// MX exact match against correct MX records.
    MxExact,
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
    /// Malware family whose payload signature matched this UR's TXT data
    /// (the payload-matching extension; `None` in the paper-faithful mode).
    pub payload_matched: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{Name, RData};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ur(rtype: RecordType, records: Vec<Record>) -> CollectedUr {
        CollectedUr {
            key: UrKey {
                ns_ip: Ipv4Addr::new(20, 0, 0, 1),
                domain: InternedName::intern(&n("x.com")),
                rtype,
            },
            records,
            aux_records: Vec::new(),
            provider: "P".into(),
            authoritative: true,
            recursion_available: false,
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
                Record::new(n("x.com"), 60, RData::A(Ipv4Addr::new(1, 2, 3, 4))),
                Record::new(n("x.com"), 60, RData::txt_from_str("v=spf1 -all")),
            ],
        );
        assert_eq!(u.a_ips(), vec![Ipv4Addr::new(1, 2, 3, 4)]);
        assert_eq!(u.txt_strings(), vec!["v=spf1 -all".to_string()]);
    }

    #[test]
    fn protective_matching_a() {
        let mut db = ProtectiveDb::default();
        let mut profile = ProtectiveProfile::default();
        profile.a_ips.insert(Ipv4Addr::new(20, 0, 255, 1));
        db.servers.insert(Ipv4Addr::new(20, 0, 0, 1), profile);
        let hit = ur(
            RecordType::A,
            vec![Record::new(
                n("x.com"),
                60,
                RData::A(Ipv4Addr::new(20, 0, 255, 1)),
            )],
        );
        assert!(db.matches(&hit));
        let miss = ur(
            RecordType::A,
            vec![Record::new(
                n("x.com"),
                60,
                RData::A(Ipv4Addr::new(6, 6, 6, 6)),
            )],
        );
        assert!(!db.matches(&miss));
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
            vec![Record::new(
                n("x.com"),
                60,
                RData::txt_from_str("v=warning; domain not hosted on P; see status page"),
            )],
        );
        assert!(db.matches(&hit));
        let miss = ur(
            RecordType::Txt,
            vec![Record::new(
                n("x.com"),
                60,
                RData::txt_from_str("v=spf1 ip4:6.6.6.6 -all"),
            )],
        );
        assert!(!db.matches(&miss));
    }

    #[test]
    fn unknown_server_never_protective() {
        let db = ProtectiveDb::default();
        let u = ur(
            RecordType::A,
            vec![Record::new(
                n("x.com"),
                60,
                RData::A(Ipv4Addr::new(1, 1, 1, 1)),
            )],
        );
        assert!(!db.matches(&u));
    }

    #[test]
    fn correct_db_default_profile_is_empty() {
        let db = CorrectDb::default();
        let p = db.profile(&InternedName::intern(&n("nothing.com")));
        assert!(p.ips.is_empty() && p.txts.is_empty());
    }
}
