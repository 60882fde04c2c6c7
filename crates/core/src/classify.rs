//! Suspicious-record determination (paper §4.2 + Appendix B).
//!
//! A UR is excluded as *correct* when any of five uniformity conditions
//! holds (each attribute set must be non-empty — an attacker IP with no
//! certificate must not vacuously "subset-match" the correct certificate
//! set), or when its HTTP profile reveals a parked/redirect page.
//! Protective records are excluded by exact match against the canary
//! probe results. Everything left is *suspicious*.

use crate::types::{
    ClassifiedUr, CollectedUr, CorrectDb, CorrectReason, ProtectiveDb, TxtCategory, UrCategory,
};
use dnswire::RecordType;
use netdb::{AttrIndex, NetDb, PageKind};
use pdns::{Day, PassiveDns, SIX_YEARS_DAYS};
use std::collections::HashSet;
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

/// The decision part of a classification into Correct / Protective /
/// (pre-analysis) Unknown — the malicious promotion happens later in
/// [`mod@crate::analyze`]. Separate from UR ownership so the decision borrows
/// the UR and [`Verdict::into_classified`] then moves it in without a clone.
struct Verdict {
    category: UrCategory,
    correct_reason: Option<CorrectReason>,
    txt_category: Option<TxtCategory>,
    corresponding_ips: Vec<Ipv4Addr>,
}

impl Verdict {
    fn into_classified(self, ur: CollectedUr) -> ClassifiedUr {
        ClassifiedUr {
            ur,
            category: self.category,
            correct_reason: self.correct_reason,
            txt_category: self.txt_category,
            corresponding_ips: self.corresponding_ips,
            payload_matched: None,
        }
    }
}

/// Every address a UR's classification consults metadata for: its own A
/// records plus MX follow-up (auxiliary) addresses.
fn ur_ips(ur: &CollectedUr) -> impl Iterator<Item = Ipv4Addr> + '_ {
    ur.records
        .iter()
        .chain(ur.aux_records.iter())
        .filter_map(|r| r.rdata.as_a())
}

fn verdict_for(
    ur: &CollectedUr,
    correct: &CorrectDb,
    protective: &ProtectiveDb,
    metadata: &NetDb,
    attrs: &AttrIndex,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> Verdict {
    // Protective records first: they are the provider's own answers and
    // must not be confused with customer data.
    if protective.matches(ur) {
        return Verdict {
            category: UrCategory::Protective,
            correct_reason: None,
            txt_category: txt_category_of(ur),
            corresponding_ips: Vec::new(),
        };
    }
    match ur.key.rtype {
        RecordType::A => classify_a(ur, correct, metadata, attrs, history, cfg),
        RecordType::Txt => classify_txt(ur, correct, history, cfg),
        RecordType::Mx => classify_mx(ur, correct, metadata, attrs, history, cfg),
        _ => Verdict {
            category: UrCategory::Unknown,
            correct_reason: None,
            txt_category: None,
            corresponding_ips: Vec::new(),
        },
    }
}

fn txt_category_of(ur: &CollectedUr) -> Option<TxtCategory> {
    if ur.key.rtype != RecordType::Txt {
        return None;
    }
    ur.txt_strings().first().map(|t| TxtCategory::classify(t))
}

/// Non-empty-subset test.
fn nonempty_subset<T: Eq + std::hash::Hash>(sub: &HashSet<T>, sup: &HashSet<T>) -> bool {
    !sub.is_empty() && sub.is_subset(sup)
}

fn classify_a(
    ur: &CollectedUr,
    correct: &CorrectDb,
    metadata: &NetDb,
    attrs: &AttrIndex,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> Verdict {
    let ips = ur.a_ips();
    let profile = correct.profile(&ur.key.domain);

    let ip_set: HashSet<Ipv4Addr> = ips.iter().copied().collect();
    let mut asns = HashSet::new();
    let mut geos = HashSet::new();
    let mut certs = HashSet::new();
    for ip in &ips {
        let a = attrs.get_or_resolve(metadata, *ip);
        if let Some(asn) = a.asn {
            asns.insert(asn);
        }
        if let Some(g) = a.geo {
            geos.insert((g.country, g.city));
        }
        if let Some(fp) = a.cert_fp {
            certs.insert(fp);
        }
    }

    let mut reason = None;
    if cfg.use_ip_subset && nonempty_subset(&ip_set, &profile.ips) {
        reason = Some(CorrectReason::IpSubset);
    } else if cfg.use_as_subset && nonempty_subset(&asns, &profile.asns) {
        reason = Some(CorrectReason::AsSubset);
    } else if cfg.use_geo_subset && nonempty_subset(&geos, &profile.geos) {
        reason = Some(CorrectReason::GeoSubset);
    } else if cfg.use_cert_subset && nonempty_subset(&certs, &profile.certs) {
        reason = Some(CorrectReason::CertSubset);
    } else if cfg.use_pdns
        && !ur.records.is_empty()
        && ur.records.iter().all(|r| {
            history.contains(
                &ur.key.domain,
                RecordType::A,
                &r.rdata,
                cfg.today,
                cfg.pdns_window,
            )
        })
    {
        reason = Some(CorrectReason::PassiveDns);
    } else if cfg.use_http_exclusion {
        // Parking/redirect keyword exclusion over the HTTP profiles of the
        // UR's addresses.
        let kinds: Vec<PageKind> = ips
            .iter()
            .filter_map(|ip| attrs.get_or_resolve(metadata, *ip).http_kind)
            .collect();
        if !kinds.is_empty() && kinds.iter().all(|k| *k == PageKind::Parking) {
            reason = Some(CorrectReason::Parked);
        } else if !kinds.is_empty() && kinds.iter().all(|k| *k == PageKind::Redirect) {
            reason = Some(CorrectReason::Redirect);
        }
    }

    let category = if reason.is_some() {
        UrCategory::Correct
    } else {
        UrCategory::Unknown
    };
    Verdict {
        category,
        correct_reason: reason,
        txt_category: None,
        corresponding_ips: ips,
    }
}

fn classify_txt(
    ur: &CollectedUr,
    correct: &CorrectDb,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> Verdict {
    let texts = ur.txt_strs();
    let profile = correct.profile(&ur.key.domain);
    // Exact match against correct TXT records. `Sym::lookup` probes the
    // profile set without interning (attacker-controlled) scan data.
    let mut reason = None;
    if !texts.is_empty()
        && texts
            .iter()
            .all(|t| intern::Sym::lookup(t).is_some_and(|s| profile.txts.contains(&s)))
    {
        reason = Some(CorrectReason::TxtExact);
    } else if cfg.use_pdns
        && !ur.records.is_empty()
        && ur.records.iter().all(|r| {
            history.contains(
                &ur.key.domain,
                RecordType::Txt,
                &r.rdata,
                cfg.today,
                cfg.pdns_window,
            )
        })
    {
        reason = Some(CorrectReason::PassiveDns);
    }
    let category = if reason.is_some() {
        UrCategory::Correct
    } else {
        UrCategory::Unknown
    };
    // Corresponding IPs: addresses embedded in the TXT body (the sibling-A
    // fallback is resolved at analysis time, when all URs are visible).
    let mut embedded: Vec<Ipv4Addr> = Vec::new();
    for t in &texts {
        embedded.extend(intel::extract_ipv4s(t));
    }
    embedded.sort_unstable();
    embedded.dedup();
    Verdict {
        category,
        correct_reason: reason,
        txt_category: texts.first().map(|t| TxtCategory::classify(t)),
        corresponding_ips: embedded,
    }
}

fn classify_mx(
    ur: &CollectedUr,
    correct: &CorrectDb,
    metadata: &NetDb,
    attrs: &AttrIndex,
    history: &PassiveDns,
    cfg: &ClassifyConfig,
) -> Verdict {
    let profile = correct.profile(&ur.key.domain);
    // Exchange addresses gathered by the collection follow-up.
    let ips: Vec<Ipv4Addr> = ur
        .aux_records
        .iter()
        .filter_map(|r| r.rdata.as_a())
        .collect();
    let rendered: Vec<String> = ur.records.iter().map(|r| r.rdata.to_string()).collect();

    let mut reason = None;
    if !rendered.is_empty()
        && rendered
            .iter()
            .all(|m| intern::Sym::lookup(m).is_some_and(|s| profile.mxs.contains(&s)))
    {
        reason = Some(CorrectReason::MxExact);
    } else if cfg.use_pdns
        && !ur.records.is_empty()
        && ur.records.iter().all(|r| {
            history.contains(
                &ur.key.domain,
                RecordType::Mx,
                &r.rdata,
                cfg.today,
                cfg.pdns_window,
            )
        })
    {
        reason = Some(CorrectReason::PassiveDns);
    } else if !ips.is_empty() {
        // Apply the A-style uniformity conditions to the exchange hosts'
        // addresses.
        let ip_set: HashSet<Ipv4Addr> = ips.iter().copied().collect();
        let mut asns = HashSet::new();
        let mut geos = HashSet::new();
        for ip in &ips {
            let a = attrs.get_or_resolve(metadata, *ip);
            if let Some(asn) = a.asn {
                asns.insert(asn);
            }
            if let Some(g) = a.geo {
                geos.insert((g.country, g.city));
            }
        }
        if cfg.use_ip_subset && nonempty_subset(&ip_set, &profile.ips) {
            reason = Some(CorrectReason::IpSubset);
        } else if cfg.use_as_subset && nonempty_subset(&asns, &profile.asns) {
            reason = Some(CorrectReason::AsSubset);
        } else if cfg.use_geo_subset && nonempty_subset(&geos, &profile.geos) {
            reason = Some(CorrectReason::GeoSubset);
        }
    }
    let category = if reason.is_some() {
        UrCategory::Correct
    } else {
        UrCategory::Unknown
    };
    Verdict {
        category,
        correct_reason: reason,
        txt_category: None,
        corresponding_ips: ips,
    }
}

/// Metric name of the Appendix-B exclusion condition behind a correct
/// verdict.
fn reason_metric(reason: CorrectReason) -> &'static str {
    match reason {
        CorrectReason::IpSubset => "classify_correct_ip_subset",
        CorrectReason::AsSubset => "classify_correct_as_subset",
        CorrectReason::GeoSubset => "classify_correct_geo_subset",
        CorrectReason::CertSubset => "classify_correct_cert_subset",
        CorrectReason::PassiveDns => "classify_correct_pdns",
        CorrectReason::Parked => "classify_correct_parked",
        CorrectReason::Redirect => "classify_correct_redirect",
        CorrectReason::TxtExact => "classify_correct_txt_exact",
        CorrectReason::MxExact => "classify_correct_mx_exact",
    }
}

/// Build the exclusion-rule funnel for one classified batch as a
/// counters-only shard: verdict totals plus, for every correct verdict,
/// the Appendix-B condition that excluded it.
///
/// A pure function of the batch, so both entry points feed the same
/// registry the same way: `run` shards its whole output once, the streamed
/// path shards per batch on the scan worker and merges in fold order.
/// Every counter is sim-class — verdicts are bit-identical across worker
/// counts by the pipeline's core invariant.
pub(crate) fn classify_shard(batch: &[ClassifiedUr]) -> obs::MetricShard {
    let mut shard = obs::MetricShard::new();
    for c in batch {
        shard.inc("classify_total");
        match c.category {
            UrCategory::Correct => {
                shard.inc("classify_correct");
                if let Some(reason) = c.correct_reason {
                    shard.inc(reason_metric(reason));
                }
            }
            UrCategory::Protective => shard.inc("classify_protective"),
            // At this stage "suspicious" covers both: malicious promotion
            // happens in analysis, after the funnel is recorded.
            UrCategory::Unknown | UrCategory::Malicious => shard.inc("classify_suspicious"),
        }
    }
    shard
}

/// Wall-class instrumentation for the attribute index.
///
/// Wall, not sim: on the streamed path two scan workers can race to
/// resolve the same address (both compute the same pure result; `absorb`
/// keeps the first), so hit/resolve counts depend on thread timing even
/// though classifications never do.
#[derive(Debug, Clone)]
pub(crate) struct AttrCacheMetrics {
    hits: obs::Counter,
    resolved: obs::Counter,
}

impl AttrCacheMetrics {
    /// Register the `attr_cache_*` counters in `reg`. Idempotent.
    pub(crate) fn register(reg: &obs::MetricsRegistry) -> Self {
        use obs::Class::Wall;
        AttrCacheMetrics {
            hits: reg.counter("attr_cache_hits", Wall),
            resolved: reg.counter("attr_cache_resolved", Wall),
        }
    }

    fn record(&self, hits: u64, resolved: u64) {
        self.hits.add(hits);
        self.resolved.add(resolved);
    }
}

/// The one entry point to suspicious-record determination.
///
/// The classifier receives batches — on the streamed path while other
/// shards are still being scanned. Its [`AttrIndex`] grows incrementally:
/// each batch's distinct new addresses are resolved once and absorbed into
/// the shared index under a [`std::sync::RwLock`], so addresses recurring
/// across batches (shared C2s, CDN nodes, protective sinks) are still
/// resolved exactly once per run.
///
/// Safe to call from several worker threads at once, and **bit-identical**
/// for every batch partition and thread count: the index is a pure cache
/// (resolution is a pure function of the read-only [`NetDb`]), so its fill
/// level never changes a classification — only how much work the fallback
/// [`AttrIndex::get_or_resolve`] has to redo.
pub struct StreamClassifier<'a> {
    correct: &'a CorrectDb,
    protective: &'a ProtectiveDb,
    metadata: &'a NetDb,
    history: &'a PassiveDns,
    cfg: &'a ClassifyConfig,
    attrs: std::sync::RwLock<AttrIndex>,
    cache_metrics: Option<AttrCacheMetrics>,
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
            attrs: std::sync::RwLock::new(AttrIndex::default()),
            cache_metrics: None,
        }
    }

    /// Record index hit/resolve counts into `metrics` as batches flow
    /// through.
    pub(crate) fn with_metrics(mut self, metrics: AttrCacheMetrics) -> Self {
        self.cache_metrics = Some(metrics);
        self
    }

    /// Resolve the batch's distinct new addresses outside any lock — two
    /// workers racing on the same address compute the same pure result, and
    /// `absorb` keeps the first — then fold them into the shared index.
    fn absorb_missing(&self, batch: &[CollectedUr]) {
        let (missing, present): (Vec<Ipv4Addr>, u64) = {
            let attrs = self.attrs.read().expect("attr index lock");
            let mut seen = HashSet::new();
            let mut present = 0u64;
            let missing = batch
                .iter()
                .flat_map(ur_ips)
                .filter(|ip| {
                    if attrs.contains(*ip) {
                        present += 1;
                        return false;
                    }
                    seen.insert(*ip)
                })
                .collect();
            (missing, present)
        };
        if let Some(m) = &self.cache_metrics {
            m.record(present, missing.len() as u64);
        }
        if !missing.is_empty() {
            let resolved: Vec<(Ipv4Addr, netdb::IpAttrs)> = missing
                .into_iter()
                .map(|ip| (ip, AttrIndex::resolve(self.metadata, ip)))
                .collect();
            self.attrs
                .write()
                .expect("attr index lock")
                .absorb(resolved);
        }
    }

    /// Absorb the batch's distinct new addresses into the shared index,
    /// then classify the batch in order, moving each UR into its
    /// [`ClassifiedUr`] without a clone of its record vectors.
    pub fn classify_batch_owned(&self, batch: Vec<CollectedUr>) -> Vec<ClassifiedUr> {
        self.absorb_missing(&batch);
        let attrs = self.attrs.read().expect("attr index lock");
        batch
            .into_iter()
            .map(|ur| {
                verdict_for(
                    &ur,
                    self.correct,
                    self.protective,
                    self.metadata,
                    &attrs,
                    self.history,
                    self.cfg,
                )
                .into_classified(ur)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtectiveProfile, UrKey};
    use dnswire::{Name, RData, Record};
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
            records: addrs
                .iter()
                .map(|a| Record::new(n(domain), 60, RData::A(ip(a))))
                .collect(),
            aux_records: Vec::new(),
            provider: "P".into(),
            authoritative: true,
            recursion_available: false,
        }
    }

    fn txt_ur(domain: &str, ns: &str, text: &str) -> CollectedUr {
        CollectedUr {
            key: UrKey {
                ns_ip: ip(ns),
                domain: InternedName::intern(&n(domain)),
                rtype: RecordType::Txt,
            },
            records: vec![Record::new(n(domain), 60, RData::txt_from_str(text))],
            aux_records: Vec::new(),
            provider: "P".into(),
            authoritative: true,
            recursion_available: false,
        }
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
        reg.merge_shard(obs::Class::Sim, &classify_shard(&out));
        assert_eq!(reg.counter_value("classify_total"), Some(3));
        assert_eq!(reg.counter_value("classify_correct"), Some(1));
        assert_eq!(reg.counter_value("classify_correct_ip_subset"), Some(1));
        assert_eq!(reg.counter_value("classify_suspicious"), Some(1));
        assert_eq!(reg.counter_value("classify_protective"), Some(1));
    }

    #[test]
    fn stream_cache_metrics_count_hits_and_resolves() {
        let f = fixture();
        let reg = obs::MetricsRegistry::new();
        let metrics = AttrCacheMetrics::register(&reg);
        let sc = StreamClassifier::new(&f.correct, &f.protective, &f.metadata, &f.history, &f.cfg)
            .with_metrics(metrics);
        let batch = vec![a_ur("site.com", "20.0.0.1", &["30.0.0.10", "30.0.0.11"])];
        sc.classify_batch_owned(batch.clone());
        assert_eq!(reg.counter_value("attr_cache_resolved"), Some(2));
        assert_eq!(reg.counter_value("attr_cache_hits"), Some(0));
        // Same addresses again: all served from the index.
        sc.classify_batch_owned(batch);
        assert_eq!(reg.counter_value("attr_cache_resolved"), Some(2));
        assert_eq!(reg.counter_value("attr_cache_hits"), Some(2));
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
