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
    TxtCategory, UrCategory,
};
use dnswire::RecordType;
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

/// What the exclusion conditions decide about one UR: the reason it is
/// correct, if one is, its TXT category and its corresponding addresses.
/// Separate from UR ownership, so the decision borrows the UR and
/// [`StreamClassifier::classify`] then moves it into its [`ClassifiedUr`]
/// without a clone.
type Decision = (Option<CorrectReason>, Option<TxtCategory>, Vec<Ipv4Addr>);

fn txt_category_of(ur: &CollectedUr) -> Option<TxtCategory> {
    if ur.key.rtype != RecordType::Txt {
        return None;
    }
    ur.records
        .iter()
        .find_map(|r| r.txt_str())
        .map(|t| TxtCategory::classify(&t))
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
fn in_history(ur: &CollectedUr, history: &PassiveDns, cfg: &ClassifyConfig) -> bool {
    cfg.use_pdns
        && nonempty_all(ur.records.iter(), |r| {
            history.contains(&ur.key.domain, ur.key.rtype, &r, cfg.today, cfg.pdns_window)
        })
}

fn classify_a(
    ur: &CollectedUr,
    correct: &CorrectDb,
    metadata: &NetDb,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> Decision {
    // The verdict keeps these.
    let ips = ur.a_ips();
    let profile = correct.profile(&ur.key.domain);

    let reason = subset_reason(&ips, profile, metadata, cfg)
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
        });
    (reason, None, ips)
}

fn classify_txt(
    ur: &CollectedUr,
    correct: &CorrectDb,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> Decision {
    let profile = correct.profile(&ur.key.domain);
    // One pass over the texts: the category of the first, whether each so
    // far matches a correct TXT record exactly (`Sym::lookup` probes the
    // profile set without interning attacker-controlled scan data), and
    // the addresses embedded in each body, which the verdict keeps as its
    // corresponding IPs (the sibling-A fallback is resolved at analysis
    // time, when all URs are visible).
    let mut txt_category = None;
    let mut exact = None;
    let mut embedded: Vec<Ipv4Addr> = Vec::new();
    for t in ur.records.iter().filter_map(|r| r.txt_str()) {
        txt_category.get_or_insert_with(|| TxtCategory::classify(&t));
        if exact != Some(false) {
            exact = Some(intern::Sym::lookup(&t).is_some_and(|s| profile.txts.contains(&s)));
        }
        embedded.extend(intel::extract_ipv4s(&t));
    }
    embedded.sort_unstable();
    embedded.dedup();
    let reason = if exact == Some(true) {
        Some(CorrectReason::TxtExact)
    } else if in_history(ur, history, cfg) {
        Some(CorrectReason::PassiveDns)
    } else {
        None
    };
    (reason, txt_category, embedded)
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
/// The classifier receives batches — on the streamed path while other
/// shards are still being scanned — and is safe to call from several worker
/// threads at once. It is **bit-identical** for every batch partition and
/// thread count because each verdict reads one UR and the read-only stage
/// databases, nothing else.
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
    /// [`ClassifiedUr`] without a clone of its record vectors.
    pub fn classify_batch_owned(&self, batch: Vec<CollectedUr>) -> Vec<ClassifiedUr> {
        batch.into_iter().map(|ur| self.classify(ur)).collect()
    }

    /// Classify one UR into Correct / Protective / (pre-analysis) Unknown
    /// — the malicious promotion happens later in [`mod@crate::analyze`].
    fn classify(&self, ur: CollectedUr) -> ClassifiedUr {
        let (correct, metadata, history, cfg) =
            (self.correct, self.metadata, self.history, self.cfg);
        // Protective records first: they are the provider's own answers
        // and must not be confused with customer data.
        let protective = self.protective.matches(&ur);
        let (correct_reason, txt_category, corresponding_ips) = match ur.key.rtype {
            _ if protective => (None, txt_category_of(&ur), Vec::new()),
            RecordType::A => classify_a(&ur, correct, metadata, history, cfg),
            RecordType::Txt => classify_txt(&ur, correct, history, cfg),
            _ => (None, None, Vec::new()),
        };
        let category = match correct_reason {
            _ if protective => UrCategory::Protective,
            Some(_) => UrCategory::Correct,
            None => UrCategory::Unknown,
        };
        ClassifiedUr {
            ur,
            category,
            correct_reason,
            txt_category,
            corresponding_ips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtectiveProfile, UrKey};
    use dnswire::{Name, RData};
    use netdb::{CertInfo, GeoInfo, HttpProfile};

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
        correct
            .domains
            .insert(InternedName::intern(&n("site.com")), profile);

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
