//! Aggregation of classified URs into the paper's tables and figures.

use crate::analyze::Analysis;
use crate::types::{ClassifiedUr, MaliciousEvidence, UrCategory};
use dnswire::RecordType;
use intel::{AlertCategory, IntelAggregator, ThreatTag};
use intern::{InternedName, Sym};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// One row of Table 1 (A / TXT / Total).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Row label.
    pub label: &'static str,
    /// Distinct suspicious domains.
    pub domains: usize,
    /// …of which associated with malicious URs.
    pub domains_malicious: usize,
    /// Distinct nameservers serving suspicious URs.
    pub nameservers: usize,
    /// …of which serving malicious URs.
    pub nameservers_malicious: usize,
    /// Distinct providers.
    pub providers: usize,
    /// …with malicious URs.
    pub providers_malicious: usize,
    /// Suspicious unique URs.
    pub urs: usize,
    /// …malicious.
    pub urs_malicious: usize,
    /// Distinct corresponding IPs.
    pub ips: usize,
    /// …malicious.
    pub ips_malicious: usize,
}

/// One provider's category mix (Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderRow {
    /// Provider name.
    pub provider: Sym,
    /// Total URs collected from its nameservers.
    pub total: usize,
    /// Correct URs.
    pub correct: usize,
    /// Protective URs.
    pub protective: usize,
    /// Unknown URs.
    pub unknown: usize,
    /// Malicious URs.
    pub malicious: usize,
}

/// Overall category totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// All collected unique URs.
    pub total: usize,
    /// Correct.
    pub correct: usize,
    /// Protective.
    pub protective: usize,
    /// Unknown.
    pub unknown: usize,
    /// Malicious.
    pub malicious: usize,
}

impl Totals {
    /// Suspicious = unknown + malicious.
    pub fn suspicious(&self) -> usize {
        self.unknown + self.malicious
    }

    /// Malicious share of suspicious (the paper's 25.41%).
    pub fn malicious_share(&self) -> f64 {
        if self.suspicious() == 0 {
            0.0
        } else {
            self.malicious as f64 / self.suspicious() as f64
        }
    }
}

/// The full result bundle.
#[derive(Debug)]
pub struct Report {
    /// Category totals.
    pub totals: Totals,
    /// Table 1 rows (A, TXT, Total).
    pub table1: Vec<Table1Row>,
    /// Per-provider mixes, sorted by descending UR count (Fig. 2).
    pub providers: Vec<ProviderRow>,
    /// Fig. 3a: evidence-class histogram over malicious IPs.
    pub fig3a: BTreeMap<&'static str, usize>,
    /// Fig. 3b: vendor flag-count histogram over malicious IPs.
    pub fig3b: BTreeMap<&'static str, usize>,
    /// Fig. 3c: IDS alert categories toward malicious IPs.
    pub fig3c: BTreeMap<AlertCategory, usize>,
    /// Fig. 3d: vendor tag prevalence over malicious IPs.
    pub fig3d: BTreeMap<ThreatTag, usize>,
    /// Malicious TXT URs that are email-related vs all malicious TXT URs
    /// (the paper's 90.95%).
    pub txt_email_related: (usize, usize),
    /// Probe-level coverage accounting from the collection stage: how many
    /// probes were scheduled, answered (first try or after retries), given
    /// up, or skipped against quarantined servers. Defaults to an empty
    /// report for callers that aggregate classified URs without a
    /// collection run (e.g. unit fixtures).
    pub coverage: crate::query::CoverageReport,
}

/// Build the report from classified URs and the analysis.
///
/// Thin wrapper over [`ReportBuilder`]: one absorb of the whole slice,
/// then finish.
pub fn build_report(
    classified: &[ClassifiedUr],
    analysis: &Analysis,
    intel: &IntelAggregator,
) -> Report {
    let mut builder = ReportBuilder::new();
    builder.absorb(classified);
    builder.finish(analysis, intel)
}

/// Distinct-entity accumulator behind one Table 1 row.
#[derive(Debug, Default)]
struct Table1Acc {
    domains: HashSet<InternedName>,
    domains_mal: HashSet<InternedName>,
    nameservers: HashSet<Ipv4Addr>,
    nameservers_mal: HashSet<Ipv4Addr>,
    providers: HashSet<Sym>,
    providers_mal: HashSet<Sym>,
    urs: usize,
    urs_mal: usize,
    ips: HashSet<Ipv4Addr>,
    ips_mal: HashSet<Ipv4Addr>,
}

impl Table1Acc {
    /// Absorb one suspicious (unknown or malicious) UR.
    fn absorb(&mut self, c: &ClassifiedUr) {
        let malicious = c.category == UrCategory::Malicious;
        self.urs += 1;
        self.domains.insert(c.ur.key.domain);
        self.nameservers.insert(c.ur.key.ns_ip);
        self.providers.insert(c.ur.provider);
        self.ips.extend(c.corresponding_ips.iter().copied());
        if malicious {
            self.urs_mal += 1;
            self.domains_mal.insert(c.ur.key.domain);
            self.nameservers_mal.insert(c.ur.key.ns_ip);
            self.providers_mal.insert(c.ur.provider);
            self.ips_mal.extend(c.corresponding_ips.iter().copied());
        }
    }

    fn row(&self, label: &'static str) -> Table1Row {
        Table1Row {
            label,
            domains: self.domains.len(),
            domains_malicious: self.domains_mal.len(),
            nameservers: self.nameservers.len(),
            nameservers_malicious: self.nameservers_mal.len(),
            providers: self.providers.len(),
            providers_malicious: self.providers_mal.len(),
            urs: self.urs,
            urs_malicious: self.urs_mal,
            ips: self.ips.len(),
            ips_malicious: self.ips_mal.len(),
        }
    }
}

/// Incremental report aggregation: absorb classified URs batch by batch,
/// then [`finish`](ReportBuilder::finish) against the analysis.
///
/// Per-UR state is reduced into counters and distinct-entity sets as each
/// batch arrives, so the aggregation never needs the whole classified set
/// resident at once and the result is identical to a one-shot
/// [`build_report`] over the concatenated batches (absorption is
/// order-insensitive up to the input order itself).
#[derive(Debug, Default)]
pub struct ReportBuilder {
    totals: Totals,
    by_provider: BTreeMap<Sym, ProviderRow>,
    acc_a: Table1Acc,
    acc_txt: Table1Acc,
    acc_mx: Table1Acc,
    acc_total: Table1Acc,
    saw_mx: bool,
    txt_email: usize,
    txt_malicious: usize,
}

impl ReportBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ReportBuilder::default()
    }

    /// Absorb one batch of classified URs.
    pub fn absorb(&mut self, batch: &[ClassifiedUr]) {
        for c in batch {
            self.absorb_one(c);
        }
    }

    /// Absorb a single classified UR.
    pub fn absorb_one(&mut self, c: &ClassifiedUr) {
        self.totals.total += 1;
        match c.category {
            UrCategory::Correct => self.totals.correct += 1,
            UrCategory::Protective => self.totals.protective += 1,
            UrCategory::Unknown => self.totals.unknown += 1,
            UrCategory::Malicious => self.totals.malicious += 1,
        }

        let row = self
            .by_provider
            .entry(c.ur.provider)
            .or_insert_with(|| ProviderRow {
                provider: c.ur.provider,
                total: 0,
                correct: 0,
                protective: 0,
                unknown: 0,
                malicious: 0,
            });
        row.total += 1;
        match c.category {
            UrCategory::Correct => row.correct += 1,
            UrCategory::Protective => row.protective += 1,
            UrCategory::Unknown => row.unknown += 1,
            UrCategory::Malicious => row.malicious += 1,
        }

        self.saw_mx |= c.ur.key.rtype == RecordType::Mx;
        if matches!(c.category, UrCategory::Unknown | UrCategory::Malicious) {
            match c.ur.key.rtype {
                RecordType::A => self.acc_a.absorb(c),
                RecordType::Txt => self.acc_txt.absorb(c),
                RecordType::Mx => self.acc_mx.absorb(c),
                _ => {}
            }
            self.acc_total.absorb(c);
        }
        if c.category == UrCategory::Malicious && c.ur.key.rtype == RecordType::Txt {
            self.txt_malicious += 1;
            if c.txt_category
                .map(|t| t.is_email_related())
                .unwrap_or(false)
            {
                self.txt_email += 1;
            }
        }

        // Note for the memory budget: the categories this fold sees must
        // be final, i.e. absorption happens after the malicious-promotion
        // pass of `analyze` (which needs the classified set anyway).
    }

    /// Number of URs absorbed so far.
    pub fn absorbed(&self) -> usize {
        self.totals.total
    }

    /// Close the fold against the analysis outputs and produce the report.
    pub fn finish(self, analysis: &Analysis, intel: &IntelAggregator) -> Report {
        let mut table1 = vec![self.acc_a.row("A"), self.acc_txt.row("TXT")];
        if self.saw_mx {
            table1.push(self.acc_mx.row("MX"));
        }
        table1.push(self.acc_total.row("Total"));

        let mut providers: Vec<ProviderRow> = self.by_provider.into_values().collect();
        providers.sort_by(|a, b| b.total.cmp(&a.total).then(a.provider.cmp(&b.provider)));

        // Fig. 3 series.
        let fig3a = crate::analyze::evidence_histogram(analysis);
        let malicious_ips: Vec<Ipv4Addr> = analysis.evidence.keys().copied().collect();
        let vendor_flagged: Vec<Ipv4Addr> = malicious_ips
            .iter()
            .copied()
            .filter(|ip| {
                matches!(
                    analysis.evidence.get(ip),
                    Some(MaliciousEvidence::VendorOnly | MaliciousEvidence::Both)
                )
            })
            .collect();
        let fig3b = intel.flag_count_histogram(vendor_flagged.iter());
        let mut fig3c: BTreeMap<AlertCategory, usize> = BTreeMap::new();
        for a in &analysis.alerts_toward_malicious {
            *fig3c.entry(a.category).or_insert(0) += 1;
        }
        let fig3d = intel.tag_prevalence(vendor_flagged.iter());

        Report {
            totals: self.totals,
            table1,
            providers,
            fig3a,
            fig3b,
            fig3c,
            fig3d,
            txt_email_related: (self.txt_email, self.txt_malicious),
            coverage: crate::query::CoverageReport::default(),
        }
    }
}

fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

impl Report {
    /// Render Table 1 in the paper's layout.
    pub fn render_table1(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 1: Overview of suspicious undelegated records (excluding correct and protective)"
        );
        let _ = writeln!(
            s,
            "{:<6} {:>22} {:>22} {:>22} {:>26} {:>22}",
            "Cat.",
            "#Domain (mal)",
            "#Nameserver (mal)",
            "#Provider (mal)",
            "#UR (mal)",
            "#IP (mal)"
        );
        for r in &self.table1 {
            let _ = writeln!(
                s,
                "{:<6} {:>12} {:>4} ({:>5.2}%) {:>7} {:>5} ({:>5.2}%) {:>7} {:>4} ({:>5.2}%) {:>9} {:>6} ({:>5.2}%) {:>7} {:>4} ({:>5.2}%)",
                r.label,
                r.domains,
                r.domains_malicious,
                pct(r.domains_malicious, r.domains),
                r.nameservers,
                r.nameservers_malicious,
                pct(r.nameservers_malicious, r.nameservers),
                r.providers,
                r.providers_malicious,
                pct(r.providers_malicious, r.providers),
                r.urs,
                r.urs_malicious,
                pct(r.urs_malicious, r.urs),
                r.ips,
                r.ips_malicious,
                pct(r.ips_malicious, r.ips),
            );
        }
        s
    }

    /// Render the Fig. 2 series: category proportions for the top `k`
    /// providers by UR volume.
    pub fn render_figure2(&self, k: usize) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 2: UR categories among the top {k} providers by UR count"
        );
        let _ = writeln!(
            s,
            "{:<16} {:>9} {:>9} {:>11} {:>9} {:>10}",
            "Provider", "#URs", "correct%", "protective%", "unknown%", "malicious%"
        );
        for row in self.providers.iter().take(k) {
            let _ = writeln!(
                s,
                "{:<16} {:>9} {:>8.1}% {:>10.1}% {:>8.1}% {:>9.1}%",
                row.provider,
                row.total,
                pct(row.correct, row.total),
                pct(row.protective, row.total),
                pct(row.unknown, row.total),
                pct(row.malicious, row.total),
            );
        }
        s
    }

    /// Render the four Fig. 3 panels.
    pub fn render_figure3(&self) -> String {
        let mut s = String::new();
        let total_mal_ips: usize = self.fig3a.values().sum();
        let _ = writeln!(s, "Figure 3(a): why IP addresses were labeled malicious");
        for (k, v) in &self.fig3a {
            let _ = writeln!(s, "  {:<12} {:>6} ({:>5.2}%)", k, v, pct(*v, total_mal_ips));
        }
        let flagged: usize = self.fig3b.values().sum();
        let _ = writeln!(
            s,
            "Figure 3(b): #vendors flagging each (vendor-flagged) malicious IP"
        );
        for (k, v) in &self.fig3b {
            let _ = writeln!(s, "  {:<12} {:>6} ({:>5.2}%)", k, v, pct(*v, flagged));
        }
        let alerts: usize = self.fig3c.values().sum();
        let _ = writeln!(s, "Figure 3(c): IDS alert categories toward malicious IPs");
        for (k, v) in &self.fig3c {
            let _ = writeln!(
                s,
                "  {:<18} {:>6} ({:>5.2}%)",
                k.to_string(),
                v,
                pct(*v, alerts)
            );
        }
        let _ = writeln!(
            s,
            "Figure 3(d): vendor tags over (vendor-flagged) malicious IPs"
        );
        for (k, v) in self.fig3d.iter().rev() {
            let _ = writeln!(
                s,
                "  {:<12} {:>6} ({:>5.2}%)",
                k.to_string(),
                v,
                pct(*v, flagged)
            );
        }
        s
    }

    /// Render the collection-stage coverage accounting: every scheduled
    /// probe in exactly one bucket, so measured loss is visible next to the
    /// measurement results it may have biased.
    pub fn render_coverage(&self) -> String {
        let c = &self.coverage;
        let mut s = String::new();
        let _ = writeln!(s, "Collection coverage ({} probes scheduled)", c.scheduled);
        let _ = writeln!(
            s,
            "  answered first try   {:>9} ({:>6.2}%)",
            c.answered,
            pct(c.answered as usize, c.scheduled as usize)
        );
        let _ = writeln!(
            s,
            "  answered after retry {:>9} ({:>6.2}%)  [{} retransmissions]",
            c.retried_answered,
            pct(c.retried_answered as usize, c.scheduled as usize),
            c.retransmissions
        );
        let _ = writeln!(
            s,
            "  gave up              {:>9} ({:>6.2}%)",
            c.gave_up,
            pct(c.gave_up as usize, c.scheduled as usize)
        );
        let _ = writeln!(
            s,
            "  skipped (quarantine) {:>9} ({:>6.2}%)  [{} servers quarantined]",
            c.skipped_quarantined,
            pct(c.skipped_quarantined as usize, c.scheduled as usize),
            c.quarantined_servers.len()
        );
        if !c.is_complete() {
            let _ = writeln!(s, "  WARNING: buckets do not sum to scheduled probes");
        }
        s
    }

    /// Render an observability snapshot as an aligned text table: one row
    /// per metric with its class (`sim` is deterministic, `wall` is
    /// host-timing), kind, and value — histograms show their count, sum,
    /// mean, and max.
    pub fn render_metrics(snapshot: &obs::MetricsSnapshot) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Metrics ({} registered)", snapshot.entries.len());
        let width = snapshot
            .entries
            .iter()
            .map(|m| m.name.len())
            .max()
            .unwrap_or(0);
        for m in &snapshot.entries {
            let value = match &m.data {
                obs::MetricData::Counter(v) => format!("{v}"),
                obs::MetricData::Gauge(v) => format!("{v}"),
                obs::MetricData::Histogram(h) => {
                    let mean = if h.count == 0 {
                        0.0
                    } else {
                        h.sum as f64 / h.count as f64
                    };
                    format!(
                        "count={} sum={} mean={:.2} max={}",
                        h.count, h.sum, mean, h.max
                    )
                }
            };
            let _ = writeln!(
                s,
                "  {:<width$}  [{:<4}]  {}",
                m.name,
                m.class.as_str(),
                value,
                width = width
            );
        }
        s
    }

    /// One-paragraph summary (totals + headline shares).
    pub fn render_summary(&self) -> String {
        let t = &self.totals;
        let (email, all_txt) = self.txt_email_related;
        format!(
            "URs: {} total = {} correct + {} protective + {} unknown + {} malicious; \
             suspicious {} of which malicious {} ({:.2}%); \
             email-related share of malicious TXT: {}/{} ({:.2}%)",
            t.total,
            t.correct,
            t.protective,
            t.unknown,
            t.malicious,
            t.suspicious(),
            t.malicious,
            100.0 * t.malicious_share(),
            email,
            all_txt,
            pct(email, all_txt),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeConfig};
    use crate::types::{CollectedUr, UrKey};
    use dnswire::{Name, RData, Record};
    use intel::{ThreatTag, VendorFeed};
    use std::collections::HashSet as StdHashSet;

    use intern::InternedName;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn mk(
        domain: &str,
        ns: &str,
        provider: &str,
        rtype: RecordType,
        category: UrCategory,
        ips: Vec<Ipv4Addr>,
    ) -> ClassifiedUr {
        ClassifiedUr {
            ur: CollectedUr {
                key: UrKey {
                    ns_ip: ns.parse().unwrap(),
                    domain: InternedName::intern(&n(domain)),
                    rtype,
                },
                records: vec![Record::new(n(domain), 60, RData::A(ip("1.1.1.1")))],
                aux_records: Vec::new(),
                provider: provider.into(),
                authoritative: true,
                recursion_available: false,
            },
            category,
            correct_reason: None,
            txt_category: if rtype == RecordType::Txt {
                Some(crate::types::TxtCategory::Spf)
            } else {
                None
            },
            corresponding_ips: ips,
            payload_matched: None,
        }
    }

    fn sample_report() -> Report {
        let bad = ip("40.0.0.1");
        let mut classified = vec![
            mk(
                "a.com",
                "20.0.0.1",
                "P1",
                RecordType::A,
                UrCategory::Unknown,
                vec![bad],
            ),
            mk(
                "a.com",
                "20.0.0.2",
                "P1",
                RecordType::A,
                UrCategory::Unknown,
                vec![bad],
            ),
            mk(
                "b.com",
                "20.1.0.1",
                "P2",
                RecordType::Txt,
                UrCategory::Unknown,
                vec![bad],
            ),
            mk(
                "c.com",
                "20.1.0.1",
                "P2",
                RecordType::A,
                UrCategory::Correct,
                vec![],
            ),
            mk(
                "d.com",
                "20.2.0.1",
                "P3",
                RecordType::A,
                UrCategory::Protective,
                vec![],
            ),
            mk(
                "e.com",
                "20.2.0.1",
                "P3",
                RecordType::A,
                UrCategory::Unknown,
                vec![ip("45.0.0.1")],
            ),
        ];
        let mut agg = IntelAggregator::new();
        let mut feed = VendorFeed::new("V");
        feed.flag(bad, ThreatTag::Trojan);
        agg.add_vendor(feed);
        let analysis = analyze(
            &mut classified,
            &agg,
            Vec::new(),
            StdHashSet::new(),
            &intel::PayloadSignatureDb::new(),
            &AnalyzeConfig::default(),
        );
        build_report(&classified, &analysis, &agg)
    }

    #[test]
    fn totals_partition_the_input() {
        let r = sample_report();
        let t = r.totals;
        assert_eq!(t.total, 6);
        assert_eq!(t.correct + t.protective + t.unknown + t.malicious, 6);
        assert_eq!(t.malicious, 3);
        assert_eq!(t.suspicious(), 4);
        assert!((t.malicious_share() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn table1_rows_count_distinct_entities() {
        let r = sample_report();
        let total = &r.table1[2];
        assert_eq!(total.label, "Total");
        assert_eq!(total.domains, 3); // a, b, e
        assert_eq!(total.domains_malicious, 2); // a, b
        assert_eq!(total.urs, 4);
        assert_eq!(total.urs_malicious, 3);
        assert_eq!(total.ips, 2);
        assert_eq!(total.ips_malicious, 1);
        let a_row = &r.table1[0];
        assert_eq!(a_row.urs, 3);
        let txt_row = &r.table1[1];
        assert_eq!(txt_row.urs, 1);
        assert_eq!(txt_row.urs_malicious, 1);
    }

    #[test]
    fn provider_rows_sorted_by_volume() {
        let r = sample_report();
        assert!(r.providers.len() >= 3);
        for w in r.providers.windows(2) {
            assert!(w[0].total >= w[1].total);
        }
        let p1 = r.providers.iter().find(|p| p.provider == "P1").unwrap();
        assert_eq!(p1.total, 2);
        assert_eq!(p1.malicious, 2);
    }

    #[test]
    fn email_share_counts_spf_txt() {
        let r = sample_report();
        assert_eq!(r.txt_email_related, (1, 1));
    }

    #[test]
    fn renderers_produce_output() {
        let r = sample_report();
        let t1 = r.render_table1();
        assert!(t1.contains("Total"));
        let f2 = r.render_figure2(5);
        assert!(f2.contains("P1"));
        let f3 = r.render_figure3();
        assert!(f3.contains("3(a)"));
        let s = r.render_summary();
        assert!(s.contains("malicious"));
    }
}
