//! Suspicious-record determination (paper §4.2 + Appendix B).
//!
//! A UR is excluded as *correct* when any of five uniformity conditions
//! holds (each attribute set must be non-empty — an attacker IP with no
//! certificate must not vacuously "subset-match" the correct certificate
//! set), or when its HTTP profile reveals a parked/redirect page.
//! Protective records are excluded by exact match against the canary
//! probe results. Everything left is *suspicious*.

use crate::types::{
    nonempty_all, ClassifiedUr, CollectedUr, CorrectDb, CorrectReason, DomainProfile, ProtectiveDb,
    ProtectiveProfile, TxtCategory, UrCategory, Verdict,
};
use dnswire::{RDataSetRef, RecordType};
use fxhash::FxHashSet;
use netdb::{NetDb, PageKind};
use pdns::{Day, PassiveDns, SIX_YEARS_DAYS};
use std::net::Ipv4Addr;

/// Which exclusion conditions are active — ablations toggle these.
#[derive(Debug, Clone)]
pub struct ClassifyConfig {
    /// Appendix-B condition 1: IP subset.
    pub use_ip_subset: bool,
    /// Appendix-B condition 2: AS subset.
    pub use_as_subset: bool,
    /// Appendix-B condition 3: geo subset.
    pub use_geo_subset: bool,
    /// Appendix-B condition 4: certificate subset.
    pub use_cert_subset: bool,
    /// Appendix-B condition 5: passive-DNS membership.
    pub use_pdns: bool,
    /// HTTP-keyword parking/redirect exclusion.
    pub use_http_exclusion: bool,
    /// Day considered "today" for the passive-DNS window.
    pub today: Day,
    /// Lookback window for passive DNS.
    pub pdns_window: u32,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig {
            use_ip_subset: true,
            use_as_subset: true,
            use_geo_subset: true,
            use_cert_subset: true,
            use_pdns: true,
            use_http_exclusion: true,
            today: 2_500,
            pdns_window: SIX_YEARS_DAYS,
        }
    }
}

/// Appendix B's subset test, read in place: the values `attr` finds for
/// `ips` are a non-empty subset of `known`.
fn attrs_within<T: Eq + std::hash::Hash>(
    ips: &[Ipv4Addr],
    attr: impl Fn(Ipv4Addr) -> Option<T>,
    known: &FxHashSet<T>,
) -> bool {
    nonempty_all(ips.iter().filter_map(|&ip| attr(ip)), |a| {
        known.contains(&a)
    })
}

/// The first Appendix-B subset condition (IP, AS, geo, then certificate)
/// under which `ips` falls inside the correct profile. Each condition
/// looks its attribute up only once the condition before it has failed,
/// and stops at the first address outside the profile: the IP subset
/// decides most exclusions, and an AS, geo or certificate value costs one
/// `NetDb` lookup per address.
fn subset_reason(
    ips: &[Ipv4Addr],
    profile: &DomainProfile,
    metadata: &NetDb,
    cfg: &ClassifyConfig,
) -> Option<CorrectReason> {
    if cfg.use_ip_subset && attrs_within(ips, Some, &profile.ips) {
        Some(CorrectReason::IpSubset)
    } else if cfg.use_as_subset
        && attrs_within(ips, |ip| metadata.asn_of(ip).map(|a| a.asn), &profile.asns)
    {
        Some(CorrectReason::AsSubset)
    } else if cfg.use_geo_subset
        && attrs_within(
            ips,
            |ip| metadata.geo_of(ip).map(|g| (g.country, g.city)),
            &profile.geos,
        )
    {
        Some(CorrectReason::GeoSubset)
    } else if cfg.use_cert_subset
        && attrs_within(
            ips,
            |ip| metadata.cert_of(ip).map(|c| c.fingerprint),
            &profile.certs,
        )
    {
        Some(CorrectReason::CertSubset)
    } else {
        None
    }
}

/// Appendix-B condition 5: every record of the UR was seen at its domain
/// in passive DNS within the window.
fn in_history(
    ur: &CollectedUr<RDataSetRef<'_>>,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> bool {
    cfg.use_pdns
        && nonempty_all(ur.records.iter(), |r| {
            history.contains(&ur.key.domain, ur.key.rtype, &r, cfg.today, cfg.pdns_window)
        })
}

/// Why an A UR whose addresses are `ips` is correct, if it is.
fn classify_a(
    ur: &CollectedUr<RDataSetRef<'_>>,
    ips: &[Ipv4Addr],
    correct: &CorrectDb,
    metadata: &NetDb,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> Option<CorrectReason> {
    let profile = correct.profile(&ur.key.domain);
    subset_reason(ips, profile, metadata, cfg)
        .or_else(|| in_history(ur, history, cfg).then_some(CorrectReason::PassiveDns))
        .or_else(|| {
            // Parking/redirect keyword exclusion: every address with an
            // HTTP profile serves a parking page, or every one a redirect.
            if !cfg.use_http_exclusion {
                return None;
            }
            let mut kinds = ips.iter().filter_map(|&ip| metadata.page_kind_of(ip));
            let first = kinds.next()?;
            if !kinds.all(|k| k == first) {
                return None;
            }
            match first {
                PageKind::Parking => Some(CorrectReason::Parked),
                PageKind::Redirect => Some(CorrectReason::Redirect),
                _ => None,
            }
        })
}

/// A TXT UR, each record's text decoded once: whether it is the server's
/// protective answer (`server`'s profile), why it is correct if it is,
/// and the category of its first text. Its corresponding addresses, those
/// embedded in its texts, go to `ips` unless it is protective (the
/// sibling-A fallback is resolved at analysis time, when all URs are
/// visible). A text is matched against the domain's correct ones and
/// searched for addresses only once the UR cannot be protective; the
/// texts before that point are decoded again for it, the one case where a
/// record is read twice.
fn classify_txt(
    ur: &CollectedUr<RDataSetRef<'_>>,
    server: Option<&ProtectiveProfile>,
    correct: &CorrectDb,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
    ips: &mut Vec<Ipv4Addr>,
) -> (bool, Option<CorrectReason>, Option<TxtCategory>) {
    let texts = || ur.records.iter().filter_map(|r| r.txt_str());
    let (mut protective, mut exact, mut category) = (server.is_some(), true, None);
    let mut profile = None;
    let mut read = |t: &str, profile: &DomainProfile, ips: &mut Vec<Ipv4Addr>| {
        exact = exact && profile.has_txt(t);
        ips.extend(intel::extract_ipv4s(t));
    };
    for (i, t) in texts().enumerate() {
        category.get_or_insert_with(|| TxtCategory::classify(&t));
        if protective && server.is_some_and(|p| p.has_txt(&t)) {
            continue;
        }
        let profile = *profile.get_or_insert_with(|| correct.profile(&ur.key.domain));
        if protective {
            protective = false;
            for earlier in texts().take(i) {
                read(&earlier, profile, ips);
            }
        }
        read(&t, profile, ips);
    }
    // With no text, neither protective nor an exact match.
    let any = category.is_some();
    if protective && any {
        return (true, None, category);
    }
    ips.sort_unstable();
    ips.dedup();
    let reason = if exact && any {
        Some(CorrectReason::TxtExact)
    } else if in_history(ur, history, cfg) {
        Some(CorrectReason::PassiveDns)
    } else {
        None
    };
    (false, reason, category)
}

/// Every Appendix-B exclusion condition (and auxiliary exclusion) in
/// declaration order, with the name of the verdict-funnel counter of the
/// correct verdicts it decided.
pub(crate) const REASON_METRICS: [(CorrectReason, &str); 8] = [
    (CorrectReason::IpSubset, "classify_correct_ip_subset"),
    (CorrectReason::AsSubset, "classify_correct_as_subset"),
    (CorrectReason::GeoSubset, "classify_correct_geo_subset"),
    (CorrectReason::CertSubset, "classify_correct_cert_subset"),
    (CorrectReason::PassiveDns, "classify_correct_pdns"),
    (CorrectReason::Parked, "classify_correct_parked"),
    (CorrectReason::Redirect, "classify_correct_redirect"),
    (CorrectReason::TxtExact, "classify_correct_txt_exact"),
];

// A fold counts a reason at `reason as usize`, so the table is in
// declaration order.
const _: () = {
    let mut i = 0;
    while i < REASON_METRICS.len() {
        assert!(REASON_METRICS[i].0 as usize == i);
        i += 1;
    }
};

/// The one entry point to suspicious-record determination.
///
/// It decides one UR at a time, on whichever worker calls it, while other
/// shards are still being scanned: the streamed scan while the UR's reply
/// is read, `run` as each kept UR is probed (or at the merge, for a UR
/// probed before the classifier was published). It is safe to call from
/// several worker threads at once and **bit-identical** for every thread
/// count and call order, because each verdict reads one UR and the
/// read-only stage databases, nothing else.
pub struct StreamClassifier<'a> {
    correct: &'a CorrectDb,
    protective: &'a ProtectiveDb,
    metadata: &'a NetDb,
    history: &'a PassiveDns,
    cfg: &'a ClassifyConfig,
}

impl<'a> StreamClassifier<'a> {
    /// A classifier over the stage databases (the caller owns the threads).
    pub fn new(
        correct: &'a CorrectDb,
        protective: &'a ProtectiveDb,
        metadata: &'a NetDb,
        history: &'a PassiveDns,
        cfg: &'a ClassifyConfig,
    ) -> Self {
        StreamClassifier {
            correct,
            protective,
            metadata,
            history,
            cfg,
        }
    }

    /// Classify the batch in order, moving each UR into its
    /// [`ClassifiedUr`] without a clone of its record data.
    pub fn classify_batch_owned(&self, batch: Vec<CollectedUr>) -> Vec<ClassifiedUr> {
        let mut ips = Vec::new();
        batch
            .into_iter()
            .map(|ur| self.classify(ur, &mut ips))
            .collect()
    }

    /// [`StreamClassifier::decide`] for a UR that is kept: the verdict
    /// owns the UR and an exact copy of its corresponding addresses
    /// (`ips` is scratch).
    pub(crate) fn classify(&self, ur: CollectedUr, ips: &mut Vec<Ipv4Addr>) -> ClassifiedUr {
        let verdict = self.decide(&ur.borrowed(), ips);
        ClassifiedUr {
            ur,
            category: verdict.category,
            correct_reason: verdict.correct_reason,
            txt_category: verdict.txt_category,
            corresponding_ips: ips.clone(),
        }
    }

    /// Decide one UR, its records read in place: Correct, Protective or
    /// (pre-analysis) Unknown — the malicious promotion happens later in
    /// [`mod@crate::analyze`]. `ips` is cleared and left holding the UR's
    /// corresponding addresses: its A records' addresses in answer order,
    /// or the addresses its TXT records embed, sorted, none when it is
    /// protective.
    pub(crate) fn decide(
        &self,
        ur: &CollectedUr<RDataSetRef<'_>>,
        ips: &mut Vec<Ipv4Addr>,
    ) -> Verdict {
        let (correct, metadata, history, cfg) =
            (self.correct, self.metadata, self.history, self.cfg);
        ips.clear();
        // Protective records first: they are the provider's own answers
        // and must not be confused with customer data. A UR is protective
        // when every one of its records is, and it has one.
        let server = self.protective.servers.get(&ur.key.ns_ip);
        let (protective, correct_reason, txt_category) = match ur.key.rtype {
            RecordType::A => {
                let mut protective = server.is_some();
                for ip in ur.records.iter().filter_map(|r| r.as_a()) {
                    protective = protective && server.is_some_and(|p| p.a_ips.contains(&ip));
                    ips.push(ip);
                }
                if protective && !ips.is_empty() {
                    ips.clear();
                    (true, None, None)
                } else {
                    let reason = classify_a(ur, ips, correct, metadata, history, cfg);
                    (false, reason, None)
                }
            }
            RecordType::Txt => classify_txt(ur, server, correct, history, cfg, ips),
            _ => (false, None, None),
        };
        let category = match correct_reason {
            _ if protective => UrCategory::Protective,
            Some(_) => UrCategory::Correct,
            None => UrCategory::Unknown,
        };
        Verdict {
            category,
            correct_reason,
            txt_category,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunFold;
    use crate::types::UrKey;
    use dnswire::{Name, RData};
    use netdb::{CertInfo, GeoInfo, HttpProfile};
    use proptest::prelude::*;

    use intern::InternedName;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn a_ur(domain: &str, ns: &str, addrs: &[&str]) -> CollectedUr {
        CollectedUr {
            key: UrKey {
                ns_ip: ip(ns),
                domain: InternedName::intern(&n(domain)),
                rtype: RecordType::A,
            },
            records: addrs.iter().map(|a| RData::A(ip(a))).collect(),
            provider: "P".into(),
            authoritative: true,
            recursion_available: false,
            shard: 0,
            index: 0,
        }
    }

    fn txt_ur(domain: &str, ns: &str, text: &str) -> CollectedUr {
        CollectedUr {
            key: UrKey {
                ns_ip: ip(ns),
                domain: InternedName::intern(&n(domain)),
                rtype: RecordType::Txt,
            },
            records: [RData::txt_from_str(text)].into_iter().collect(),
            provider: "P".into(),
            authoritative: true,
            recursion_available: false,
            shard: 0,
            index: 0,
        }
    }

    /// An MX UR for `domain` naming `exchange`: a type the paper does
    /// not scan, so no condition reads it.
    fn mx_ur(domain: &str, ns: &str, exchange: &str) -> CollectedUr {
        let mut ur = a_ur(domain, ns, &[]);
        ur.key.rtype = RecordType::Mx;
        ur.records = [RData::Mx {
            preference: 10,
            exchange: n(exchange),
        }]
        .into_iter()
        .collect();
        ur
    }

    struct Fixture {
        correct: CorrectDb,
        protective: ProtectiveDb,
        metadata: NetDb,
        history: PassiveDns,
        cfg: ClassifyConfig,
    }

    fn fixture() -> Fixture {
        let mut correct = CorrectDb::default();
        let mut profile = crate::types::DomainProfile::default();
        profile.ips.insert(ip("30.0.0.10"));
        profile.ips.insert(ip("30.0.0.11"));
        profile.asns.insert(65_000);
        profile.geos.insert((*b"US", 1));
        profile
            .certs
            .insert(CertInfo::for_domain("site.com", "SimCA").fingerprint);
        profile.txts.insert("v=spf1 ip4:30.0.0.10 -all".into());
        correct.domains.insert(
            crate::types::NameId(InternedName::intern(&n("site.com"))),
            profile,
        );

        let mut metadata = NetDb::new();
        metadata.add_prefix("30.0.0.0/24".parse().unwrap(), 65_000, "Hosting");
        metadata.add_prefix("40.0.0.0/24".parse().unwrap(), 64_900, "BulletProof");
        for a in ["30.0.0.10", "30.0.0.11", "30.0.0.12"] {
            metadata.set_geo(ip(a), GeoInfo::new("US", 1));
            metadata.set_cert(ip(a), CertInfo::for_domain("site.com", "SimCA"));
        }
        metadata.set_geo(ip("40.0.0.10"), GeoInfo::new("RU", 7));
        // The correct certificate, served from a foreign AS and place.
        metadata.set_cert(ip("40.0.0.20"), CertInfo::for_domain("site.com", "SimCA"));
        // Unrouted, but in the correct geo.
        metadata.set_geo(ip("50.0.0.10"), GeoInfo::new("US", 1));
        metadata.set_http(ip("60.0.0.10"), HttpProfile::parking());
        metadata.set_http(ip("60.0.0.11"), HttpProfile::redirect("https://elsewhere"));

        let mut protective = ProtectiveDb::default();
        let mut pp = ProtectiveProfile::default();
        pp.a_ips.insert(ip("20.0.255.1"));
        protective.servers.insert(ip("20.0.0.1"), pp);

        let mut history = PassiveDns::new();
        history.observe(
            n("site.com"),
            RecordType::A,
            RData::A(ip("31.0.0.10")),
            500,
            2_000,
        );

        Fixture {
            correct,
            protective,
            metadata,
            history,
            cfg: ClassifyConfig::default(),
        }
    }

    fn run_batch(f: &Fixture, urs: Vec<CollectedUr>) -> Vec<ClassifiedUr> {
        StreamClassifier::new(&f.correct, &f.protective, &f.metadata, &f.history, &f.cfg)
            .classify_batch_owned(urs)
    }

    fn run(f: &Fixture, ur: &CollectedUr) -> ClassifiedUr {
        run_batch(f, vec![ur.clone()]).remove(0)
    }

    #[test]
    fn exact_ip_match_is_correct() {
        let f = fixture();
        let c = run(&f, &a_ur("site.com", "20.0.0.1", &["30.0.0.10"]));
        assert_eq!(c.category, UrCategory::Correct);
        assert_eq!(c.correct_reason, Some(CorrectReason::IpSubset));
    }

    #[test]
    fn same_as_different_ip_is_correct_via_as() {
        let f = fixture();
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["30.0.0.12"]));
        assert_eq!(c.category, UrCategory::Correct);
        assert_eq!(c.correct_reason, Some(CorrectReason::AsSubset));
    }

    #[test]
    fn past_delegation_is_correct_via_pdns() {
        let f = fixture();
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["31.0.0.10"]));
        assert_eq!(c.category, UrCategory::Correct);
        assert_eq!(c.correct_reason, Some(CorrectReason::PassiveDns));
    }

    #[test]
    fn parked_page_is_excluded() {
        let f = fixture();
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["60.0.0.10"]));
        assert_eq!(c.correct_reason, Some(CorrectReason::Parked));
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["60.0.0.11"]));
        assert_eq!(c.correct_reason, Some(CorrectReason::Redirect));
    }

    #[test]
    fn attacker_ur_stays_suspicious() {
        let f = fixture();
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["40.0.0.10"]));
        assert_eq!(c.category, UrCategory::Unknown);
        assert!(c.correct_reason.is_none());
        assert_eq!(c.corresponding_ips, vec![ip("40.0.0.10")]);
    }

    #[test]
    fn empty_attribute_sets_never_vacuously_match() {
        let f = fixture();
        // 40.0.0.99 has AS (BulletProof) but no geo/cert; its AS is not in
        // the correct set, and the empty cert set must not subset-match.
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["40.0.0.99"]));
        assert_eq!(c.category, UrCategory::Unknown);
    }

    #[test]
    fn classify_a_reaches_every_outcome() {
        // One address per outcome, under the default configuration: each
        // condition decides only once every condition before it failed.
        let f = fixture();
        for (addr, want) in [
            ("30.0.0.10", Some(CorrectReason::IpSubset)),
            ("30.0.0.12", Some(CorrectReason::AsSubset)),
            ("50.0.0.10", Some(CorrectReason::GeoSubset)),
            ("40.0.0.20", Some(CorrectReason::CertSubset)),
            ("31.0.0.10", Some(CorrectReason::PassiveDns)),
            ("60.0.0.10", Some(CorrectReason::Parked)),
            ("60.0.0.11", Some(CorrectReason::Redirect)),
            ("40.0.0.10", None),
        ] {
            let c = run(&f, &a_ur("site.com", "20.0.0.5", &[addr]));
            assert_eq!(c.correct_reason, want, "{addr}");
            let category = match want {
                Some(_) => UrCategory::Correct,
                None => UrCategory::Unknown,
            };
            assert_eq!(c.category, category, "{addr}");
            assert_eq!(c.corresponding_ips, vec![ip(addr)], "{addr}");
        }
    }

    #[test]
    fn protective_record_detected() {
        let f = fixture();
        let c = run(&f, &a_ur("anything.org", "20.0.0.1", &["20.0.255.1"]));
        assert_eq!(c.category, UrCategory::Protective);
    }

    #[test]
    fn txt_exact_match_correct() {
        let f = fixture();
        let c = run(
            &f,
            &txt_ur("site.com", "20.0.0.5", "v=spf1 ip4:30.0.0.10 -all"),
        );
        assert_eq!(c.category, UrCategory::Correct);
        assert_eq!(c.correct_reason, Some(CorrectReason::TxtExact));
        assert_eq!(c.txt_category, Some(TxtCategory::Spf));
    }

    #[test]
    fn txt_spoofed_spf_is_suspicious_with_embedded_ips() {
        let f = fixture();
        let c = run(
            &f,
            &txt_ur("site.com", "20.0.0.5", "v=spf1 ip4:40.0.0.10 -all"),
        );
        assert_eq!(c.category, UrCategory::Unknown);
        assert_eq!(c.corresponding_ips, vec![ip("40.0.0.10")]);
        assert_eq!(c.txt_category, Some(TxtCategory::Spf));
    }

    #[test]
    fn mx_without_exchange_addresses_or_match_stays_suspicious() {
        let f = fixture();
        let c = run(&f, &mx_ur("site.com", "20.0.0.5", "mx.evil.net"));
        assert_eq!(c.category, UrCategory::Unknown);
        assert!(c.correct_reason.is_none() && c.corresponding_ips.is_empty());
    }

    #[test]
    fn disabling_conditions_changes_outcome() {
        let mut f = fixture();
        f.cfg.use_as_subset = false;
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["30.0.0.12"]));
        // without the AS condition, geo (US ⊆ {US}) still catches it
        assert_eq!(c.correct_reason, Some(CorrectReason::GeoSubset));
        f.cfg.use_geo_subset = false;
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["30.0.0.12"]));
        // cert condition still catches it
        assert_eq!(c.correct_reason, Some(CorrectReason::CertSubset));
        f.cfg.use_cert_subset = false;
        let c = run(&f, &a_ur("site.com", "20.0.0.5", &["30.0.0.12"]));
        assert_eq!(c.category, UrCategory::Unknown);
    }

    #[test]
    fn funnel_shard_counts_verdicts_and_reasons() {
        let f = fixture();
        let urs = vec![
            a_ur("site.com", "20.0.0.1", &["30.0.0.10"]), // correct: ip subset
            a_ur("site.com", "20.0.0.5", &["40.0.0.10"]), // suspicious
            a_ur("anything.org", "20.0.0.1", &["20.0.255.1"]), // protective
        ];
        let out = run_batch(&f, urs);
        let reg = obs::MetricsRegistry::new();
        crate::report::RunFold::of(&out).publish(&reg);
        assert_eq!(reg.counter_value("classify_total"), Some(3));
        assert_eq!(reg.counter_value("classify_correct"), Some(1));
        assert_eq!(reg.counter_value("classify_correct_ip_subset"), Some(1));
        assert_eq!(reg.counter_value("classify_suspicious"), Some(1));
        assert_eq!(reg.counter_value("classify_protective"), Some(1));
    }

    /// Addresses a UR may answer with: correct, same-AS, protective,
    /// foreign, parked, seen in passive DNS.
    const ADDRS: [&str; 6] = [
        "30.0.0.10",
        "30.0.0.12",
        "20.0.255.1",
        "40.0.0.10",
        "60.0.0.10",
        "31.0.0.10",
    ];

    /// Texts a UR may answer with: the correct SPF, the protective text
    /// exactly and by its prefix, a spoofed SPF, addresses in free text,
    /// and neither.
    const TEXTS: [&str; 6] = [
        "v=spf1 ip4:30.0.0.10 -all",
        "v=warning; domain not hosted on P; see status page",
        "v=warning; domain not hosted on Q",
        "v=spf1 ip4:40.0.0.10 ip4:6.6.6.6 -all",
        "google-site-verification=abc 1.2.3.4",
        "hello",
    ];

    /// URs drawn from the pools above, at the servers and domains the
    /// fixture knows and one it does not, each at its index.
    fn arb_urs() -> impl Strategy<Value = Vec<CollectedUr>> {
        let ur = (
            any::<bool>(),
            0usize..3,
            0usize..2,
            proptest::collection::vec(0usize..6, 0..4),
        );
        proptest::collection::vec(ur, 0..24).prop_map(|urs| {
            urs.into_iter()
                .enumerate()
                .map(|(i, (txt, ns, domain, picks))| {
                    let ns = ["20.0.0.1", "20.0.0.5", "20.0.0.9"][ns];
                    let domain = ["site.com", "other.org"][domain];
                    let mut ur = if txt {
                        let mut ur = txt_ur(domain, ns, "");
                        ur.records = picks
                            .iter()
                            .map(|&k| RData::txt_from_str(TEXTS[k]))
                            .collect();
                        ur
                    } else {
                        let addrs: Vec<&str> = picks.iter().map(|&k| ADDRS[k]).collect();
                        a_ur(domain, ns, &addrs)
                    };
                    ur.index = i as u32;
                    ur
                })
                .collect()
        })
    }

    proptest! {
        /// The streamed path decides and folds each UR while its records
        /// are borrowed, with one address buffer; `run` keeps the verdicts
        /// and folds them after. Both reach one fold: totals, Table 1,
        /// Figure 2, the reasons' funnel and the digest.
        #[test]
        fn folding_borrowed_verdicts_is_folding_kept_ones(urs in arb_urs()) {
            let mut f = fixture();
            f.protective
                .servers
                .get_mut(&ip("20.0.0.1"))
                .expect("the fixture's protective server")
                .txts
                .insert(TEXTS[1].into());
            let classifier =
                StreamClassifier::new(&f.correct, &f.protective, &f.metadata, &f.history, &f.cfg);
            let mut streamed = RunFold::default();
            let mut ips = vec![ip("9.9.9.9")];
            for ur in &urs {
                let ur = ur.borrowed();
                let verdict = classifier.decide(&ur, &mut ips);
                streamed.absorb(&ur, verdict, &ips);
            }
            let kept = RunFold::of(&classifier.classify_batch_owned(urs));
            let funnel = |fold: &RunFold| {
                let reg = obs::MetricsRegistry::new();
                fold.publish(&reg);
                format!("{:?}", reg.snapshot().entries)
            };
            prop_assert_eq!(funnel(&streamed), funnel(&kept));
            prop_assert_eq!(streamed.finish(), kept.finish());
        }
    }

    #[test]
    fn batch_classification_preserves_order() {
        let f = fixture();
        let urs = vec![
            a_ur("site.com", "20.0.0.1", &["30.0.0.10"]),
            a_ur("site.com", "20.0.0.1", &["40.0.0.10"]),
        ];
        let out = run_batch(&f, urs);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].category, UrCategory::Correct);
        assert_eq!(out[1].category, UrCategory::Unknown);
    }
}
