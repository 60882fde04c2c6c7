//! Aggregation of classified URs into the paper's tables and figures.

use crate::analyze::Analysis;
use crate::classify::REASON_METRICS;
use crate::query::CoverageReport;
use crate::types::{ClassifiedUr, CollectedUr, MaliciousEvidence, NameId, UrCategory, Verdict};
use dnswire::RecordType;
use fxhash::{Digest, FxHashMap, FxHashSet, SeqDigest};
use intel::{AlertCategory, IntelAggregator, ThreatTag};
use intern::Sym;
use std::collections::BTreeMap;
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
    pub(crate) ips: usize,
    /// …malicious.
    pub(crate) ips_malicious: usize,
}

/// One provider's category mix (Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderRow {
    /// Provider name.
    pub provider: Sym,
    /// Total URs collected from its nameservers.
    pub total: usize,
    /// Correct URs.
    pub(crate) correct: usize,
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
    /// Count one UR of `category`.
    fn count(&mut self, category: UrCategory) {
        self.total += 1;
        *match category {
            UrCategory::Correct => &mut self.correct,
            UrCategory::Protective => &mut self.protective,
            UrCategory::Unknown => &mut self.unknown,
            UrCategory::Malicious => &mut self.malicious,
        } += 1;
    }

    /// Add `other`'s counts to these.
    fn add(&mut self, other: Totals) {
        self.total += other.total;
        self.correct += other.correct;
        self.protective += other.protective;
        self.unknown += other.unknown;
        self.malicious += other.malicious;
    }

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
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub coverage: CoverageReport,
}

/// Build the report from classified URs and the analysis: one `RunFold`
/// over the slice, then Figure 3 from the analysis.
pub fn build_report(
    classified: &[ClassifiedUr],
    analysis: &Analysis,
    intel: &IntelAggregator,
) -> Report {
    let (mut report, _) = RunFold::of(classified).finish();
    report.set_figure3(analysis, intel);
    report
}

/// Digest of a classified sequence: two runs agree iff they produced the
/// same URs, each at the same position (its shard and its index in the
/// shard's order), with the same categories. Each UR is a row of its
/// own (`row_digest`), its position first, and the rows add as an
/// [`fxhash::SeqDigest`], which reads no order: so
/// [`run`](crate::run) and [`run_streamed`](crate::run_streamed), whose
/// folds digest each shard apart and add the shards as they end, reach
/// this value. The order of `classified` is not digested.
pub fn classified_sequence_hash(classified: &[ClassifiedUr]) -> u64 {
    let mut d = SeqDigest::default();
    for c in classified {
        d.push(row_digest(&c.ur, c.verdict(), &c.corresponding_ips));
    }
    d.value()
}

/// One UR's row of the sequence digest: its position, identity triple,
/// category, correct reason and corresponding addresses `ips` (the layout
/// is in DESIGN.md §6, "Digests"), finished. The provider, the TXT
/// category and the records are not digested.
fn row_digest<R>(ur: &CollectedUr<R>, verdict: Verdict, ips: &[Ipv4Addr]) -> u64 {
    let mut d = Digest::new();
    d.u16(ur.shard);
    d.u32(ur.index);
    d.bytes(&ur.key.ns_ip.octets());
    ur.key.domain.digest_into(&mut d);
    d.u16(ur.key.rtype.code());
    d.u8(verdict.category as u8);
    d.len(usize::from(verdict.correct_reason.is_some()));
    if let Some(r) = verdict.correct_reason {
        d.u8(r as u8);
    }
    d.len(ips.len());
    for ip in ips {
        d.bytes(&ip.octets());
    }
    d.finish()
}

/// Distinct-entity accumulator behind one Table 1 row: each column's
/// values (`[0]`) and those of malicious URs (`[1]`). Only the sets'
/// lengths are read, never their order.
#[derive(Debug, Default)]
struct Table1Acc {
    urs: [usize; 2],
    domains: [FxHashSet<NameId>; 2],
    nameservers: [FxHashSet<Ipv4Addr>; 2],
    providers: [FxHashSet<Sym>; 2],
    ips: [FxHashSet<Ipv4Addr>; 2],
}

impl Table1Acc {
    /// Absorb one suspicious (unknown or malicious) UR, its corresponding
    /// addresses `ips`.
    fn absorb<R>(&mut self, ur: &CollectedUr<R>, malicious: bool, ips: &[Ipv4Addr]) {
        for k in 0..=usize::from(malicious) {
            self.urs[k] += 1;
            self.domains[k].insert(NameId(ur.key.domain));
            self.nameservers[k].insert(ur.key.ns_ip);
            self.providers[k].insert(ur.provider);
            self.ips[k].extend(ips);
        }
    }

    /// Add `later`'s URs and union its sets into these.
    fn merge(&mut self, later: Table1Acc) {
        let Table1Acc {
            urs,
            domains,
            nameservers,
            providers,
            ips,
        } = later;
        for (mine, theirs) in self.urs.iter_mut().zip(urs) {
            *mine += theirs;
        }
        union_into(&mut self.domains, domains);
        union_into(&mut self.nameservers, nameservers);
        union_into(&mut self.providers, providers);
        union_into(&mut self.ips, ips);
    }

    /// The row of the union of `parts`: URs summed, each column's values
    /// counted once however many parts hold them.
    fn row(label: &'static str, parts: &[&Table1Acc]) -> Table1Row {
        let urs = |k: usize| parts.iter().map(|p| p.urs[k]).sum();
        let domains = |k: usize| union_len(parts, |p| &p.domains[k]);
        let nameservers = |k: usize| union_len(parts, |p| &p.nameservers[k]);
        let providers = |k: usize| union_len(parts, |p| &p.providers[k]);
        let ips = |k: usize| union_len(parts, |p| &p.ips[k]);
        Table1Row {
            label,
            domains: domains(0),
            domains_malicious: domains(1),
            nameservers: nameservers(0),
            nameservers_malicious: nameservers(1),
            providers: providers(0),
            providers_malicious: providers(1),
            urs: urs(0),
            urs_malicious: urs(1),
            ips: ips(0),
            ips_malicious: ips(1),
        }
    }
}

/// Union each of `from`'s sets into `into`'s, inserting the smaller set's
/// values into the larger.
fn union_into<T: std::hash::Hash + Eq>(into: &mut [FxHashSet<T>; 2], from: [FxHashSet<T>; 2]) {
    for (into, mut from) in into.iter_mut().zip(from) {
        if from.len() > into.len() {
            std::mem::swap(into, &mut from);
        }
        into.extend(from);
    }
}

/// How many distinct values the parts' `set`s hold together: each part
/// counts what no part before it holds, so nothing is copied and no order
/// is read.
fn union_len<T: std::hash::Hash + Eq>(
    parts: &[&Table1Acc],
    set: impl Fn(&Table1Acc) -> &FxHashSet<T>,
) -> usize {
    parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            set(part)
                .iter()
                .filter(|v| !parts[..i].iter().any(|earlier| set(earlier).contains(*v)))
                .count()
        })
        .sum()
}

/// The one reduction of classified URs. It absorbs classified URs in any
/// order and keeps the sequence digest, the category totals, the
/// Appendix-B reason of every correct verdict, Table 1's suspicious
/// accumulators per record type (the Total row is their union, counted at
/// [`RunFold::finish`]), each provider's category tally (Fig. 2)
/// and the malicious-TXT email share: memory grows with the distinct
/// suspicious entities and the providers, never with the URs. Two folds
/// of any two sets of URs [`merge`](RunFold::merge), in either order, into
/// the fold of both, so each shard can be folded where it was scanned.
///
/// The categories it reads must be final: `run` folds after `analyze`
/// promotes Unknown to Malicious and fills TXT addresses from sibling A
/// records.
#[derive(Debug, Default)]
pub(crate) struct RunFold {
    digest: SeqDigest,
    totals: Totals,
    reasons: [usize; REASON_METRICS.len()],
    providers: FxHashMap<Sym, Totals>,
    /// Table 1's accumulators: A, TXT, and any other type (no row of its
    /// own, but in the Total row).
    by_type: [Table1Acc; 3],
    txt_email: usize,
    txt_malicious: usize,
}

impl RunFold {
    /// The fold over a classified slice.
    pub(crate) fn of(classified: &[ClassifiedUr]) -> Self {
        let mut fold = RunFold::default();
        for c in classified {
            fold.absorb(&c.ur, c.verdict(), &c.corresponding_ips);
        }
        fold
    }

    /// Absorb one more UR, decided as `verdict`, its corresponding
    /// addresses `ips`: kept in a [`ClassifiedUr`], or read off its reply
    /// on the streamed path (its records are not read).
    pub(crate) fn absorb<R>(&mut self, ur: &CollectedUr<R>, verdict: Verdict, ips: &[Ipv4Addr]) {
        let category = verdict.category;
        self.digest.push(row_digest(ur, verdict, ips));
        self.totals.count(category);
        self.providers
            .entry(ur.provider)
            .or_default()
            .count(category);
        if let Some(reason) = verdict.correct_reason {
            self.reasons[reason as usize] += 1;
        }
        let rtype = ur.key.rtype;
        let malicious = category == UrCategory::Malicious;
        if malicious || category == UrCategory::Unknown {
            let slot = match rtype {
                RecordType::A => 0,
                RecordType::Txt => 1,
                _ => 2,
            };
            self.by_type[slot].absorb(ur, malicious, ips);
        }
        if malicious && rtype == RecordType::Txt {
            self.txt_malicious += 1;
            self.txt_email +=
                usize::from(verdict.txt_category.is_some_and(|t| t.is_email_related()));
        }
    }

    /// The fold of `self`'s URs and `other`'s: the digests and the counts
    /// add and Table 1's sets union, so the merge commutes.
    pub(crate) fn merge(mut self, other: RunFold) -> RunFold {
        self.digest += other.digest;
        self.totals.add(other.totals);
        for (mine, theirs) in self.reasons.iter_mut().zip(other.reasons) {
            *mine += theirs;
        }
        for (provider, totals) in other.providers {
            self.providers.entry(provider).or_default().add(totals);
        }
        for (mine, theirs) in self.by_type.iter_mut().zip(other.by_type) {
            mine.merge(theirs);
        }
        self.txt_email += other.txt_email;
        self.txt_malicious += other.txt_malicious;
        self
    }

    /// Publish the verdict funnel into `registry`, every counter sim-class
    /// and only the non-zero ones: the verdict totals (suspicious is
    /// unknown + malicious) and, per Appendix-B condition, the correct
    /// verdicts it decided.
    pub(crate) fn publish(&self, registry: &obs::MetricsRegistry) {
        let t = &self.totals;
        let verdicts = [
            ("classify_total", t.total),
            ("classify_correct", t.correct),
            ("classify_protective", t.protective),
            ("classify_suspicious", t.suspicious()),
        ];
        let reasons = REASON_METRICS.map(|(r, name)| (name, self.reasons[r as usize]));
        for (name, n) in verdicts.into_iter().chain(reasons).filter(|&(_, n)| n > 0) {
            registry.add(name, obs::Class::Sim, n as u64);
        }
    }

    /// Close the fold: the report, with empty Figure 3 panels and an empty
    /// coverage, and the sequence digest.
    pub(crate) fn finish(self) -> (Report, u64) {
        let [a, txt, other] = &self.by_type;
        let table1 = vec![
            Table1Acc::row("A", &[a]),
            Table1Acc::row("TXT", &[txt]),
            Table1Acc::row("Total", &[a, txt, other]),
        ];
        let mut providers: Vec<ProviderRow> = self
            .providers
            .into_iter()
            .map(|(provider, t)| ProviderRow {
                provider,
                total: t.total,
                correct: t.correct,
                protective: t.protective,
                unknown: t.unknown,
                malicious: t.malicious,
            })
            .collect();
        providers.sort_by(|a, b| b.total.cmp(&a.total).then(a.provider.cmp(&b.provider)));
        let report = Report {
            totals: self.totals,
            table1,
            providers,
            txt_email_related: (self.txt_email, self.txt_malicious),
            ..Report::default()
        };
        (report, self.digest.value())
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
    /// Fill the four Figure 3 panels from the analysis: they are per
    /// malicious address, not per UR, so no fold makes them.
    pub(crate) fn set_figure3(&mut self, analysis: &Analysis, intel: &IntelAggregator) {
        let vendor_flagged: Vec<Ipv4Addr> = analysis
            .evidence
            .iter()
            .filter(|(_, e)| matches!(e, MaliciousEvidence::VendorOnly | MaliciousEvidence::Both))
            .map(|(&ip, _)| ip)
            .collect();
        self.fig3a = crate::analyze::evidence_histogram(analysis);
        self.fig3b = intel.flag_count_histogram(vendor_flagged.iter());
        for a in &analysis.alerts_toward_malicious {
            *self.fig3c.entry(a.category).or_insert(0) += 1;
        }
        self.fig3d = intel.tag_prevalence(vendor_flagged.iter());
    }

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
    use crate::types::{CollectedUr, CorrectReason, UrKey};
    use dnswire::{Name, RData, RDataSet};
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
                records: [RData::A(ip("1.1.1.1"))].into_iter().collect(),
                provider: provider.into(),
                authoritative: true,
                recursion_available: false,
                shard: 0,
                index: 0,
            },
            category,
            correct_reason: None,
            txt_category: if rtype == RecordType::Txt {
                Some(crate::types::TxtCategory::Spf)
            } else {
                None
            },
            corresponding_ips: ips,
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

    /// Every category, a correct reason present and absent, 0, 1 and many
    /// addresses, mixed-case multi-label names, two providers, and
    /// suspicious rows of A, of TXT (one of them an email-related malicious
    /// record) and of two types with no row of their own: each accumulator
    /// of the fold is reached.
    fn classified_sequence() -> Vec<ClassifiedUr> {
        use crate::types::TxtCategory::{Spf, Verification};
        use CorrectReason::*;
        use RecordType::{Aaaa, Mx, Txt, A};
        use UrCategory::*;
        type Row = (
            &'static str,
            u8,
            &'static str,
            RecordType,
            UrCategory,
            Option<CorrectReason>,
            Option<crate::types::TxtCategory>,
            &'static [[u8; 4]],
        );
        let rows: [Row; 10] = [
            (
                "Www.Example.COM",
                1,
                "P",
                A,
                Malicious,
                None,
                None,
                &[[6, 6, 6, 6]],
            ),
            (
                "a.b.Shop.example.org",
                2,
                "Q",
                Txt,
                Unknown,
                None,
                Some(Verification),
                &[],
            ),
            (
                "CDN.Example.com",
                1,
                "P",
                A,
                Correct,
                Some(IpSubset),
                None,
                &[[1, 2, 3, 4], [1, 2, 3, 5], [9, 9, 9, 9], [1, 2, 3, 4]],
            ),
            // Types with no Table 1 row of their own, MX among them: only
            // the Total row counts them.
            ("mail.EXAMPLE.net", 3, "Q", Mx, Unknown, None, None, &[]),
            (
                "parked.Test",
                2,
                "Q",
                A,
                Protective,
                None,
                None,
                &[[10, 0, 0, 1]],
            ),
            (
                "x.y.z.W.example",
                4,
                "P",
                Txt,
                Correct,
                Some(PassiveDns),
                Some(Spf),
                &[[8, 8, 8, 8], [8, 8, 4, 4]],
            ),
            (
                "Www.Example.COM",
                2,
                "Q",
                A,
                Unknown,
                None,
                None,
                &[[6, 6, 6, 7], [6, 6, 6, 8]],
            ),
            (
                "spf.example.org",
                3,
                "P",
                Txt,
                Malicious,
                None,
                Some(Spf),
                &[[6, 6, 6, 6]],
            ),
            (
                "v6.example.org",
                4,
                "Q",
                Aaaa,
                Unknown,
                None,
                None,
                &[[7, 7, 7, 7]],
            ),
            // The domain's A UR above holds this address too: the Total
            // row counts both once, the sum of its parts twice.
            (
                "www.example.com",
                2,
                "Q",
                Txt,
                Unknown,
                None,
                Some(Verification),
                &[[6, 6, 6, 7]],
            ),
        ];
        rows.into_iter()
            .enumerate()
            .map(
                |(
                    i,
                    (domain, ns, provider, rtype, category, correct_reason, txt_category, ips),
                )| {
                    ClassifiedUr {
                        ur: CollectedUr {
                            key: UrKey {
                                ns_ip: Ipv4Addr::new(20, 0, 0, ns),
                                domain: InternedName::intern(&n(domain)),
                                rtype,
                            },
                            records: RDataSet::default(),
                            provider: Sym::intern(provider),
                            authoritative: true,
                            recursion_available: false,
                            shard: 0,
                            index: i as u32,
                        },
                        category,
                        correct_reason,
                        txt_category,
                        corresponding_ips: ips.iter().map(|&o| Ipv4Addr::from(o)).collect(),
                    }
                },
            )
            .collect()
    }

    /// The verdict funnel `fold` publishes into a fresh registry.
    fn funnel(fold: &RunFold) -> Vec<(String, u64)> {
        let reg = obs::MetricsRegistry::new();
        fold.publish(&reg);
        let counter = |m: obs::MetricValue| match (m.class, m.data) {
            (obs::Class::Sim, obs::MetricData::Counter(v)) => (m.name, v),
            other => panic!("{} is not a sim counter: {other:?}", m.name),
        };
        reg.snapshot().entries.into_iter().map(counter).collect()
    }

    #[test]
    fn rows_and_classified_urs_fold_alike() {
        let seq = classified_sequence();
        let reference = RunFold::of(&seq);
        let want_funnel = funnel(&reference);
        let (want, want_hash) = reference.finish();
        assert_eq!(want_hash, classified_sequence_hash(&seq));
        // Each chunk folded apart, as a shard is on its worker, then the
        // partials merged in order.
        for cut in [1, 3, seq.len()] {
            let fold = seq
                .chunks(cut)
                .map(RunFold::of)
                .fold(RunFold::default(), RunFold::merge);
            assert_eq!(funnel(&fold), want_funnel, "cut={cut}");
            assert_eq!(fold.finish(), (want.clone(), want_hash), "cut={cut}");
        }

        let pinned: Vec<(String, u64)> = [
            ("classify_correct", 2),
            ("classify_correct_ip_subset", 1),
            ("classify_correct_pdns", 1),
            ("classify_protective", 1),
            ("classify_suspicious", 7),
            ("classify_total", 10),
        ]
        .map(|(name, n)| (name.to_string(), n))
        .to_vec();
        assert_eq!(want_funnel, pinned, "only the non-zero counters");
        let totals = Totals {
            total: 10,
            correct: 2,
            protective: 1,
            unknown: 5,
            malicious: 2,
        };
        assert_eq!(want.totals, totals);
        // Distinct domains, nameservers, providers and addresses, each
        // (all, malicious), then URs (all, malicious).
        let t1 = |label, [d, dm, ns, nsm, p, pm, u, um, i, im]: [usize; 10]| Table1Row {
            label,
            domains: d,
            domains_malicious: dm,
            nameservers: ns,
            nameservers_malicious: nsm,
            providers: p,
            providers_malicious: pm,
            urs: u,
            urs_malicious: um,
            ips: i,
            ips_malicious: im,
        };
        assert_eq!(
            want.table1,
            [
                t1("A", [1, 1, 2, 1, 2, 1, 2, 1, 3, 1]),
                t1("TXT", [3, 1, 2, 1, 2, 1, 3, 1, 2, 1]),
                // Domains 1 + 3 and addresses 3 + 2 in the parts, and the
                // MX and AAAA rows' two domains and one address beside them.
                t1("Total", [5, 2, 4, 2, 2, 1, 7, 2, 4, 1]),
            ]
        );
        let mix =
            |name, [total, correct, protective, unknown, malicious]: [usize; 5]| ProviderRow {
                provider: Sym::intern(name),
                total,
                correct,
                protective,
                unknown,
                malicious,
            };
        assert_eq!(
            want.providers,
            [mix("Q", [6, 0, 1, 5, 0]), mix("P", [4, 2, 0, 0, 2])]
        );
        assert_eq!(want.txt_email_related, (1, 1));
    }
}
