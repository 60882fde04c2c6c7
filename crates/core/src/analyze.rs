//! Malicious-behaviour analysis (paper §4.3): combine threat-intelligence
//! labels with IDS alerts from sandbox runs, resolve each UR's
//! corresponding IP addresses, and promote suspicious URs to malicious.

use crate::types::{ClassifiedUr, MaliciousEvidence, UrCategory};
use dnswire::RecordType;
use intel::{Alert, IdsEngine, IntelAggregator, MalwareSample, Sandbox, SandboxReport, Severity};
use simnet::Network;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;

/// Analysis configuration.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Minimum alert severity that counts as malicious traffic (paper:
    /// at least medium, excluding connectivity checks).
    pub severity_threshold: Severity,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            severity_threshold: Severity::Medium,
        }
    }
}

/// Everything the analysis stage produces.
#[derive(Debug)]
pub struct Analysis {
    /// Addresses with IDS-confirmed malicious traffic (severity filtered).
    pub(crate) ids_malicious: HashSet<Ipv4Addr>,
    /// Addresses flagged by at least one vendor (among UR-relevant IPs).
    pub(crate) vendor_malicious: HashSet<Ipv4Addr>,
    /// Evidence class per malicious address (Fig. 3a).
    pub evidence: HashMap<Ipv4Addr, MaliciousEvidence>,
    /// All alerts (severity-filtered) toward malicious UR addresses —
    /// the Fig. 3c input.
    pub(crate) alerts_toward_malicious: Vec<Alert>,
}

impl Analysis {
    /// Is this address malicious by either signal?
    pub fn is_malicious(&self, ip: Ipv4Addr) -> bool {
        self.ids_malicious.contains(&ip) || self.vendor_malicious.contains(&ip)
    }
}

/// Run the whole sandbox corpus and collect the IDS's view.
pub fn run_sandboxes(
    net: &mut Network,
    sandbox: &Sandbox,
    ids: &IdsEngine,
    samples: &[MalwareSample],
    cfg: &AnalyzeConfig,
) -> (Vec<SandboxReport>, HashSet<Ipv4Addr>) {
    let mut reports = Vec::with_capacity(samples.len());
    let mut ids_malicious = HashSet::new();
    for sample in samples {
        let report = sandbox.run(net, ids, sample);
        ids_malicious.extend(report.alert_dst_ips(cfg.severity_threshold));
        reports.push(report);
    }
    (reports, ids_malicious)
}

/// Complete the analysis over the classified URs:
///
/// 1. resolve TXT URs without embedded addresses to the IPs of a sibling
///    A UR on the same nameserver+domain (paper §4.3), dropping the rest,
/// 2. mark an address malicious if a vendor flags it or IDS-confirmed
///    traffic targets it,
/// 3. promote suspicious URs whose corresponding addresses are malicious.
///
/// A TXT UR with no corresponding address stays unknown, as in the paper.
/// Nothing reads `_payload_sigs`; the parameter keeps existing callers
/// compiling.
pub fn analyze(
    classified: &mut [ClassifiedUr],
    intel: &IntelAggregator,
    reports: Vec<SandboxReport>,
    ids_malicious: HashSet<Ipv4Addr>,
    _payload_sigs: &intel::PayloadSignatureDb,
    cfg: &AnalyzeConfig,
) -> Analysis {
    // Sibling-A index over suspicious URs.
    let mut sibling_a: HashMap<(Ipv4Addr, intern::InternedName), Vec<Ipv4Addr>> = HashMap::new();
    for c in classified.iter() {
        if c.ur.key.rtype == RecordType::A && c.category == UrCategory::Unknown {
            sibling_a
                .entry((c.ur.key.ns_ip, c.ur.key.domain))
                .or_default()
                .extend(c.ur.a_ips());
        }
    }
    for c in classified.iter_mut() {
        if c.ur.key.rtype == RecordType::Txt
            && c.category == UrCategory::Unknown
            && c.corresponding_ips.is_empty()
        {
            if let Some(ips) = sibling_a.get(&(c.ur.key.ns_ip, c.ur.key.domain)) {
                c.corresponding_ips = ips.clone();
            }
        }
    }

    // The UR-relevant address universe.
    let ur_ips: HashSet<Ipv4Addr> = classified
        .iter()
        .filter(|c| c.category == UrCategory::Unknown)
        .flat_map(|c| c.corresponding_ips.iter().copied())
        .collect();

    // Vendor join: each distinct address is checked against every vendor
    // feed, the dominant per-IP cost of this stage.
    let vendor_malicious: HashSet<Ipv4Addr> = ur_ips
        .iter()
        .copied()
        .filter(|ip| intel.is_malicious(*ip))
        .collect();
    let ids_relevant: HashSet<Ipv4Addr> = ids_malicious.intersection(&ur_ips).copied().collect();

    let mut evidence = HashMap::new();
    for ip in vendor_malicious.union(&ids_relevant) {
        let ev = match (vendor_malicious.contains(ip), ids_relevant.contains(ip)) {
            (true, true) => MaliciousEvidence::Both,
            (true, false) => MaliciousEvidence::VendorOnly,
            (false, true) => MaliciousEvidence::IdsOnly,
            (false, false) => unreachable!("union member has at least one signal"),
        };
        evidence.insert(*ip, ev);
    }

    // Promote malicious URs.
    for c in classified.iter_mut() {
        if c.category == UrCategory::Unknown
            && c.corresponding_ips
                .iter()
                .any(|ip| evidence.contains_key(ip))
        {
            c.category = UrCategory::Malicious;
        }
    }

    // Alerts toward malicious addresses (severity filtered) for Fig. 3c.
    let alerts_toward_malicious: Vec<Alert> = reports
        .iter()
        .flat_map(|r| r.alerts.iter())
        .filter(|a| a.severity >= cfg.severity_threshold && evidence.contains_key(&a.dst.ip))
        .cloned()
        .collect();

    Analysis {
        ids_malicious: ids_relevant,
        vendor_malicious,
        evidence,
        alerts_toward_malicious,
    }
}

/// Distribution of evidence classes (Fig. 3a numerators).
pub fn evidence_histogram(analysis: &Analysis) -> BTreeMap<&'static str, usize> {
    let mut hist = BTreeMap::new();
    for ev in analysis.evidence.values() {
        let key = match ev {
            MaliciousEvidence::VendorOnly => "vendor-only",
            MaliciousEvidence::IdsOnly => "ids-only",
            MaliciousEvidence::Both => "both",
        };
        *hist.entry(key).or_insert(0) += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CollectedUr, UrKey};
    use dnswire::{Name, RData};
    use intel::{ThreatTag, VendorFeed};

    use intern::InternedName;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn unknown_ur(
        domain: &str,
        ns: &str,
        rtype: RecordType,
        corresponding: Vec<Ipv4Addr>,
    ) -> ClassifiedUr {
        let records = match rtype {
            RecordType::A => corresponding.iter().map(|a| RData::A(*a)).collect(),
            _ => [RData::txt_from_str("opaque-command-blob")]
                .into_iter()
                .collect(),
        };
        ClassifiedUr {
            ur: CollectedUr {
                key: UrKey {
                    ns_ip: ip(ns),
                    domain: InternedName::intern(&n(domain)),
                    rtype,
                },
                records,
                provider: "P".into(),
                authoritative: true,
                recursion_available: false,
                shard: 0,
                index: 0,
            },
            category: UrCategory::Unknown,
            correct_reason: None,
            txt_category: None,
            corresponding_ips: if rtype == RecordType::A {
                corresponding
            } else {
                Vec::new()
            },
        }
    }

    fn intel_with(ips: &[Ipv4Addr]) -> IntelAggregator {
        let mut agg = IntelAggregator::new();
        let mut feed = VendorFeed::new("V");
        for i in ips {
            feed.flag(*i, ThreatTag::Trojan);
        }
        agg.add_vendor(feed);
        agg
    }

    #[test]
    fn vendor_flag_promotes_ur() {
        let bad = ip("40.0.0.10");
        let mut classified = vec![unknown_ur("a.com", "20.0.0.1", RecordType::A, vec![bad])];
        let analysis = analyze(
            &mut classified,
            &intel_with(&[bad]),
            Vec::new(),
            HashSet::new(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        assert_eq!(classified[0].category, UrCategory::Malicious);
        assert_eq!(
            analysis.evidence.get(&bad),
            Some(&MaliciousEvidence::VendorOnly)
        );
    }

    #[test]
    fn ids_signal_promotes_ur() {
        let bad = ip("40.0.0.11");
        let mut classified = vec![unknown_ur("a.com", "20.0.0.1", RecordType::A, vec![bad])];
        let analysis = analyze(
            &mut classified,
            &intel_with(&[]),
            Vec::new(),
            [bad].into_iter().collect(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        assert_eq!(classified[0].category, UrCategory::Malicious);
        assert_eq!(
            analysis.evidence.get(&bad),
            Some(&MaliciousEvidence::IdsOnly)
        );
    }

    #[test]
    fn both_signals_recorded() {
        let bad = ip("40.0.0.12");
        let mut classified = vec![unknown_ur("a.com", "20.0.0.1", RecordType::A, vec![bad])];
        let analysis = analyze(
            &mut classified,
            &intel_with(&[bad]),
            Vec::new(),
            [bad].into_iter().collect(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        assert_eq!(analysis.evidence.get(&bad), Some(&MaliciousEvidence::Both));
        let hist = evidence_histogram(&analysis);
        assert_eq!(hist.get("both"), Some(&1));
    }

    #[test]
    fn unflagged_ur_stays_unknown() {
        let mut classified = vec![unknown_ur(
            "a.com",
            "20.0.0.1",
            RecordType::A,
            vec![ip("45.0.0.10")],
        )];
        let _ = analyze(
            &mut classified,
            &intel_with(&[ip("40.0.0.10")]),
            Vec::new(),
            HashSet::new(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        assert_eq!(classified[0].category, UrCategory::Unknown);
    }

    #[test]
    fn txt_without_ips_borrows_sibling_a() {
        let bad = ip("40.0.0.13");
        let mut classified = vec![
            unknown_ur("a.com", "20.0.0.1", RecordType::A, vec![bad]),
            unknown_ur("a.com", "20.0.0.1", RecordType::Txt, Vec::new()),
        ];
        let _ = analyze(
            &mut classified,
            &intel_with(&[bad]),
            Vec::new(),
            HashSet::new(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        assert_eq!(classified[1].corresponding_ips, vec![bad]);
        assert_eq!(classified[1].category, UrCategory::Malicious);
    }

    #[test]
    fn txt_without_ips_and_no_sibling_stays_unknown() {
        let bad = ip("40.0.0.14");
        let mut classified = vec![unknown_ur("a.com", "20.0.0.1", RecordType::Txt, Vec::new())];
        let _ = analyze(
            &mut classified,
            &intel_with(&[bad]),
            Vec::new(),
            HashSet::new(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        assert_eq!(classified[0].category, UrCategory::Unknown);
        assert!(classified[0].corresponding_ips.is_empty());
    }

    #[test]
    fn ids_ips_outside_ur_universe_ignored() {
        let stray = ip("40.9.9.9");
        let mut classified = vec![unknown_ur(
            "a.com",
            "20.0.0.1",
            RecordType::A,
            vec![ip("45.0.0.10")],
        )];
        let analysis = analyze(
            &mut classified,
            &intel_with(&[]),
            Vec::new(),
            [stray].into_iter().collect(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        assert!(analysis.evidence.is_empty());
        assert_eq!(classified[0].category, UrCategory::Unknown);
    }
}
