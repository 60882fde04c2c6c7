//! The paper's evaluation, regenerated as one Markdown document: the
//! committed `RESULTS.md` that the `paper` binary prints.
//!
//! Each section compares what the paper reports with what the pipeline
//! measures, one row per quantity: `quantity | paper | measured | band`.
//! A band is the range a measured value must fall in for the reproduction
//! to hold; [`Document::out_of_band`] lists the rows outside theirs, and the
//! binary exits non-zero when there is one. Sweeps the paper has no number
//! for (ablations, loss, churn, mitigations) print their own tables. Every
//! value repeats exactly: fixed seeds, simulated time, no wall clock.
//!
//! The paper's values live here once, as the constants below.

use authdns::VerificationPolicy;
use intel::Severity;
use simnet::FaultPlan;
use std::collections::{BTreeMap, HashSet};
use std::fmt::{self, Display, Write as _};
use urhunter::{
    audit_table2, evaluate_false_negatives, run, ClassifiedUr, ClassifyConfig, HunterConfig,
    QueryPlan, RunOutput, UrCategory,
};
use worldgen::{World, WorldConfig};

/// A band: how `RESULTS.md` prints it, and the inclusive range a measured
/// value must fall in.
type Band = (&'static str, f64, f64);
/// A count that must be zero.
const ZERO: Band = ("= 0", 0.0, 0.0);
/// A row of cells that must equal the paper's.
const SAME: Band = ("cell for cell", 0.0, 0.0);

/// Table 1's counts and the paper's scale.
#[rustfmt::skip]
const COUNTS: [(&str, &str); 5] = [
    ("unique URs collected", "5,011,483"),
    ("suspicious URs (unknown + malicious)", "1,580,925"),
    ("target domains", "2,000"),
    ("selected nameservers", "8,941"),
    ("providers", "400+"),
];
/// Table 1 (its Total row unless named) and §5.2: the paper's percentages,
/// and the band the reproduction is held to.
#[rustfmt::skip]
const TABLE1: [(&str, f64, Option<Band>); 8] = [
    ("malicious share of suspicious URs", 25.41, Some(("[20 %, 30 %]", 20.0, 30.0))),
    ("target domains with suspicious URs", 99.95, Some(("≥ 98 %", 98.0, f64::INFINITY))),
    ("target domains with malicious URs", 68.48, None),
    ("nameservers with malicious URs, of suspicious", 79.48, None),
    ("providers with malicious URs, of suspicious", 71.47, None),
    ("malicious share, A records", 28.92, None),
    ("malicious share, TXT records", 3.08, None),
    ("email-related share of malicious TXT (§5.2)", 90.95, None),
];
/// Fig. 2: the top five providers by UR count.
#[rustfmt::skip]
const FIG2: [&str; 5] = [
    "Cloudflare (3,039,369)", "ClouDNS (90,783)", "Amazon (84,256)", "Akamai (53,100)",
    "NHN Cloud (23,783)",
];
/// Fig. 3 (a–d), in percent: why IPs were labeled malicious; vendors
/// flagging each; IDS alert categories; vendor tags (multi-tag, so panel
/// (d) sums past 100).
#[rustfmt::skip]
const FIG3: [(&str, &[(&str, f64)]); 4] = [
    ("a", &[("vendor-only", 34.20), ("ids-only", 36.62), ("both", 29.18)]),
    ("b", &[("1-2", 77.90), ("3-4", 16.31), ("5-6", 2.01), ("7+", 3.78)]),
    ("c", &[("Trojan Activity", 41.67), ("Other", 23.86), ("Privacy Violation", 21.19),
            ("C&C Activity", 10.82), ("Bad Traffic", 2.46)]),
    ("d", &[("Trojan", 89.01), ("Scanner", 41.01), ("Other", 33.33), ("Malware", 19.11),
            ("C&C", 16.25), ("Botnet", 10.23)]),
];
/// Table 2: NS allocation, then ✔ / ✘ in [`urhunter::AuditRow::cells`]
/// order.
#[rustfmt::skip]
const TABLE2: [(&str, &str); 7] = [
    ("Alibaba Cloud", "global-fixed ✔ ✘ ✔ ✔ ✔ ✘ ✘ ✘"),
    ("Amazon",        "random ✔ ✔ ✔ ✔ ✔ ✔ ✔ ✔"),
    ("Baidu Cloud",   "global-fixed ✔ ✘ ✘ ✔ ✔ ✘ ✘ ✘"),
    ("ClouDNS",       "global-fixed ✔ ✔ ✔ ✔ ✔ ✘ ✘ ✔"),
    ("Cloudflare",    "account-fixed ✔ ✘ ✔ ✔ ✔ ✘ ✔ ✘"),
    ("Godaddy",       "global-fixed ✔ ✘ ✔ ✔ ✔ ✘ ✘ ✔"),
    ("Tencent Cloud", "account-fixed ✔ ✘ ✘ ✔ ✔ ✘ ✔ ✘"),
];

/// The Appendix-B exclusion conditions, each as the switch that turns it off.
type Toggle = fn(&mut ClassifyConfig);
const CONDITIONS: [(&str, Toggle); 6] = [
    ("no IP subset", |c| c.use_ip_subset = false),
    ("no AS subset", |c| c.use_as_subset = false),
    ("no geo subset", |c| c.use_geo_subset = false),
    ("no cert subset", |c| c.use_cert_subset = false),
    ("no passive DNS", |c| c.use_pdns = false),
    ("no HTTP keywords", |c| c.use_http_exclusion = false),
];

/// One comparison as its Markdown cells, `quantity | paper | measured |
/// band`, and whether the measured value is inside the band (a row with
/// none always is).
#[derive(Debug)]
struct Row {
    cells: String,
    holds: bool,
}

fn row(quantity: &str, paper: impl Display, measured: impl Display) -> Row {
    let cells = format!("{quantity} | {paper} | {measured} | —");
    Row { cells, holds: true }
}

/// A row whose `value` must fall in `band`.
fn banded(quantity: &str, paper: impl Display, measured: &str, band: Band, value: f64) -> Row {
    let (label, lo, hi) = band;
    let cells = format!("{quantity} | {paper} | {measured} | {label}");
    let holds = lo <= value && value <= hi;
    Row { cells, holds }
}

/// One table or figure: free Markdown from its heading on (rendered
/// output, sweep tables, notes), then its comparison rows.
#[derive(Debug)]
pub struct Section {
    body: String,
    rows: Vec<Row>,
}

impl Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.body)?;
        if self.rows.is_empty() {
            return Ok(());
        }
        let rows = self.rows.iter().map(|r| &r.cells);
        f.write_str(&table("quantity | paper | measured | band", rows))
    }
}

/// The whole document, in the order `RESULTS.md` prints it.
#[derive(Debug)]
pub struct Document(Vec<Section>);

impl Document {
    /// The cells of every row whose measured value is outside its band.
    pub fn out_of_band(&self) -> Vec<&str> {
        let rows = self.0.iter().flat_map(|s| &s.rows);
        rows.filter(|r| !r.holds)
            .map(|r| r.cells.as_str())
            .collect()
    }
}

impl Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|section| write!(f, "{section}"))
    }
}

/// Run every section. The default-scale baseline (generate, then [`run`]
/// with [`HunterConfig::fast`]) is scanned once and read by Table 1,
/// Figures 2 and 3, §4.2, the first longitudinal epoch and the mitigation
/// baseline; Table 2, the small-world sweeps and the mitigated worlds
/// build their own.
pub fn document() -> Document {
    let cfg = HunterConfig::fast();
    let mut world = World::generate(WorldConfig::default_scale());
    let out = run(&mut world, &cfg);
    Document(vec![
        preamble(&world),
        table1(&world, &out),
        figure2(&out),
        figure3(&out),
        table2(),
        zero_fn(&mut world, &out, &cfg),
        ablation(),
        lossy_scan(),
        longitudinal(&mut world, &out, &cfg),
        mitigation(&out, &cfg),
    ])
}

/// The title, how to refresh the file, and the worlds it was measured on.
fn preamble(world: &World) -> Section {
    let c = &world.config;
    let body = format!(
        "# RESULTS — the paper's tables and figures, regenerated\n\n\
         Printed by `./target/release/paper`; do not edit by hand. `ci.sh` diffs this \
         file against the binary byte for byte. Refresh it with \
         `./target/release/paper > RESULTS.md` and give the reason in CHANGES.md.\n\n\
         Unless a section says otherwise, the world is `WorldConfig::default_scale()` \
         (seed {}: {} target domains, {} open resolvers, {} attack campaigns) scanned \
         with `HunterConfig::fast()`; the small world has seed {}. The paper scanned \
         the live Internet, so counts differ by construction: compare shares and \
         orderings. A row's band is the range its measured value must fall in, and \
         `paper` exits non-zero when one is outside it; `—` means no band.\n\n",
        c.seed,
        c.top_domains,
        c.open_resolvers,
        c.attack_campaigns,
        WorldConfig::small().seed,
    );
    Section { body, rows: vec![] }
}

/// Table 1 and the §5.2 TXT share.
fn table1(world: &World, out: &RunOutput) -> Section {
    let (r, t) = (&out.report, out.report.totals);
    let kind = |label| r.table1.iter().find(|x| x.label == label);
    let [a, txt, total] = ["A", "TXT", "Total"].map(|k| kind(k).expect("a Table 1 row"));
    let targets = world.tranco.len();
    let fractions = [
        (t.malicious, t.suspicious()),
        (total.domains, targets),
        (total.domains_malicious, targets),
        (total.nameservers_malicious, total.nameservers),
        (total.providers_malicious, total.providers),
        (a.urs_malicious, a.urs),
        (txt.urs_malicious, txt.urs),
        r.txt_email_related,
    ];
    let counts = [
        t.total,
        t.suspicious(),
        targets,
        out.nameservers.len(),
        world.provider_meta.len(),
    ];
    let mut rows: Vec<_> = COUNTS
        .into_iter()
        .zip(counts)
        .map(|((q, p), m)| row(q, p, m))
        .collect();
    for ((quantity, paper, band), (part, whole)) in TABLE1.into_iter().zip(fractions) {
        let (paper, value) = (percent(paper), pct(part, whole));
        let measured = format!("{} ({part} / {whole})", percent(value));
        rows.push(match band {
            Some(band) => banded(quantity, paper, &measured, band, value),
            None => row(quantity, paper, measured),
        });
    }
    let rendered = format!("{}\n{}", r.render_table1(), r.render_summary());
    let body = "## Table 1 — suspicious undelegated records\n\n".to_string() + &code(&rendered);
    Section { body, rows }
}

/// Figure 2: the category mix of the top five providers by UR count.
fn figure2(out: &RunOutput) -> Section {
    let providers = out.report.providers.iter();
    let top = providers.map(|p| format!("{} ({})", p.provider, p.total));
    let ranked = FIG2.into_iter().zip(top).enumerate();
    let rank = |i: usize| format!("provider #{} by URs", i + 1);
    let rows = ranked
        .map(|(i, (paper, m))| row(&rank(i), paper, m))
        .collect();
    let body = "## Figure 2 — UR categories of the top five providers\n\n".to_string()
        + &code(&out.report.render_figure2(FIG2.len()));
    Section { body, rows }
}

/// Figure 3 (a–d): the malicious-IP panels, each entry within ±5 points.
fn figure3(out: &RunOutput) -> Section {
    let r = &out.report;
    // Panels (b) and (d) are both shares of the vendor-flagged IPs.
    let flagged = r.fig3b.values().sum();
    let panels = [
        (named(&r.fig3a), r.fig3a.values().sum()),
        (named(&r.fig3b), flagged),
        (named(&r.fig3c), r.fig3c.values().sum()),
        (named(&r.fig3d), flagged),
    ];
    let mut rows = Vec::new();
    for ((panel, paper), (counts, whole)) in FIG3.into_iter().zip(panels) {
        for &(name, p) in paper {
            let count = counts.iter().find(|(k, _)| k == name).map_or(0, |x| x.1);
            let (quantity, v) = (format!("({panel}) {name}"), pct(count, whole));
            let band = ("± 5 points", p - 5.0, p + 5.0);
            rows.push(banded(&quantity, percent(p), &percent(v), band, v));
        }
    }
    let body = "## Figure 3 — malicious-IP analysis\n\n".to_string() + &code(&r.render_figure3());
    Section { body, rows }
}

/// Table 2: every provider's hosting strategy, reconstructed by active
/// probing (Appendix C) on a default-scale world of its own, since the
/// audit plants and removes probe zones.
pub fn table2() -> Section {
    let mut world = World::generate(WorldConfig::default_scale());
    let rows = audit_table2(&mut world).into_iter().map(|row| {
        let cells = row.cells().map(|c| if c { "✔" } else { "✘" }).join(" ");
        let measured = format!("{} {cells}", row.allocation);
        let paper = TABLE2.iter().find(|p| p.0 == row.provider);
        let paper = paper.map_or("—", |p| p.1);
        let differing = f64::from(u8::from(paper != measured));
        banded(&row.provider, paper, &measured, SAME, differing)
    });
    let body = String::from(
        "## Table 2 — provider hosting strategies (Appendix C probe)\n\n\
         Each cell is probed with two test accounts per provider and harmless 127.0.0.1 \
         records, and every test zone is deactivated afterwards. Columns: NS allocation, \
         then ✔ or ✘ for hosting without verification, unregistered domains, subdomains, \
         SLDs, eTLDs, duplicates by a single user, duplicates across users, and no \
         retrieval.\n\n",
    );
    let rows = rows.collect();
    Section { body, rows }
}

/// §4.2: the exclusion logic labels no delegated record suspicious, and
/// the per-condition ablation of the same check.
fn zero_fn(world: &mut World, out: &RunOutput, cfg: &HunterConfig) -> Section {
    let (correct, protective) = (&out.correct_db, &out.protective_db);
    let mut suspicious = |c: &HunterConfig| evaluate_false_negatives(world, correct, protective, c);
    let (all, label) = (suspicious(cfg), "all conditions enabled");
    let mut rows = vec![banded(label, 0, &all.to_string(), ZERO, all as f64)];
    for (label, off) in CONDITIONS {
        let mut ablated = cfg.clone();
        off(&mut ablated.classify);
        rows.push(row(label, "—", suspicious(&ablated)));
    }
    // Only one subset condition on: the other four and the HTTP keyword
    // exclusion off.
    for (keep, (label, _)) in CONDITIONS[..5].iter().enumerate() {
        let mut ablated = cfg.clone();
        let others = CONDITIONS.iter().enumerate().filter(|(i, _)| *i != keep);
        others.for_each(|(_, (_, off))| off(&mut ablated.classify));
        let only = format!("{} only", label.trim_start_matches("no "));
        rows.push(row(&only, "—", suspicious(&ablated)));
    }
    let body = String::from(
        "## §4.2 — zero false negatives on delegated records\n\n\
         Each row counts the delegated records labeled suspicious.\n\n",
    );
    Section { body, rows }
}

/// Design-choice ablations on the small world, one pipeline run a row:
/// each exclusion condition off, the IDS severity threshold, the resolver
/// sample size, and the seed.
fn ablation() -> Section {
    let seed = WorldConfig::small().seed;
    let fast = |tweak: &dyn Fn(&mut HunterConfig)| {
        let mut cfg = HunterConfig::fast();
        tweak(&mut cfg);
        cfg
    };
    let mut runs = vec![("baseline".to_string(), seed, HunterConfig::fast())];
    for (label, off) in CONDITIONS {
        runs.push((label.to_string(), seed, fast(&|c| off(&mut c.classify))));
    }
    let severities = [Severity::Low, Severity::Medium, Severity::High];
    let labels = ["low (connectivity counts!)", "medium (paper)", "high"];
    for (label, threshold) in labels.into_iter().zip(severities) {
        let cfg = fast(&|c| c.analyze.severity_threshold = threshold);
        runs.push((format!("IDS severity {label}"), seed, cfg));
    }
    for k in [1usize, 2, 5, 10] {
        let cfg = fast(&|c| c.collect.resolvers_per_domain = k);
        runs.push((format!("{k} resolvers per domain"), seed, cfg));
    }
    for seed in [1u64, 7, 42, 1337, 9001] {
        runs.push((format!("seed {seed}"), seed, HunterConfig::fast()));
    }
    let rows = runs.into_iter().map(|(label, seed, cfg)| {
        let mut world = World::generate(WorldConfig::small().with_seed(seed));
        let out = run(&mut world, &cfg);
        let (t, ips) = (out.report.totals, out.analysis.evidence.len());
        let (total, correct, suspicious, malicious) =
            (t.total, t.correct, t.suspicious(), t.malicious);
        let share = 100.0 * t.malicious_share();
        format!("{label} | {total} | {correct} | {suspicious} | {malicious} | {ips} | {share:.1} %")
    });
    let head = "setting | URs | correct | suspicious | malicious | malicious IPs | malicious share";
    let body = "## Ablations (small world)\n\n".to_string() + &table(head, rows);
    Section { body, rows: vec![] }
}

/// Collection under loss on the small world: UR recall against drop rate
/// and retry budget, with fixed and adaptive timeouts. Every cell is a full
/// pipeline run under a fault plan, whose per-flow schedule gives every
/// retry policy the same loss lottery.
fn lossy_scan() -> Section {
    let small = |cfg: &HunterConfig| run(&mut World::generate(WorldConfig::small()), cfg);
    let reliable = small(&HunterConfig::fast());
    let reliable_urs = reliable.report.totals.total;
    let reliable_hash = reliable.sequence_hash;
    let mut rows = Vec::new();
    for drop in [0.0, 0.01, 0.05, 0.2] {
        // Hash, gave up and simulated time of the fixed default budget.
        let mut fixed = (0, 0, 0.0);
        for (attempts, adaptive) in [(1, false), (3, false), (5, false), (3, true)] {
            let mut plan = QueryPlan::with_attempts(attempts);
            plan.adaptive = adaptive;
            let cfg = HunterConfig::fast().with_retry_plan(plan);
            let out = small(&cfg.with_scan_faults(FaultPlan::lossy(drop)));
            let c = &out.coverage;
            assert!(c.is_complete(), "coverage must account for every probe");
            let (hash, gave_up) = (out.sequence_hash, c.total_gave_up());
            let ms = out.scan_elapsed.as_micros() as f64 / 1e3;
            if adaptive {
                // Same loss lottery: never trade recall for speed, and be
                // faster once drops make the fixed timeout run out.
                let (f_hash, f_gave_up, f_ms) = fixed;
                let faster = drop <= 0.0 || ms < f_ms;
                let kept = hash == f_hash && gave_up <= f_gave_up;
                assert!(kept && faster, "adaptive lost to fixed at drop {drop}");
            } else if attempts == 3 {
                fixed = (hash, gave_up, ms);
            }
            let timeout = if adaptive { "adaptive" } else { "fixed" };
            let urs = out.report.totals.total;
            let recall = 100.0 * urs as f64 / reliable_urs as f64;
            let (retried, resent) = (c.retried_answered, c.retransmissions);
            let same = if hash == reliable_hash { "=" } else { "≠" };
            rows.push(format!(
                "{drop:.2} | {attempts} | {timeout} | {urs} | {recall:.2} % | {gave_up} | \
                 {retried} | {resent} | {ms:.1} | {same}"
            ));
        }
    }
    let head = "drop | attempts | timeout | URs | recall | gave up | retried ok | \
                retransmissions | sim elapsed (ms) | hash";
    let body = format!(
        "## Collection under loss — UR recall against drop rate and retry budget\n\n\
         Small world, {reliable_urs} URs on a reliable network. `recall` is URs collected \
         relative to the reliable run; `hash` is `=` where the classified sequence equals \
         the reliable run's bit for bit. Three attempts is the default budget, and the \
         adaptive timeout is checked against its fixed row.\n\n{}",
        table(head, rows),
    );
    Section { body, rows: vec![] }
}

/// Two epochs about eight months apart: 35 % of campaigns abandoned and a
/// fresh wave planted, then UR churn by category.
fn longitudinal(world: &mut World, e1: &RunOutput, cfg: &HunterConfig) -> Section {
    let day1 = world.config.today;
    world.evolve(240, world.config.attack_campaigns / 3, 0.35, 0xD15C);
    let e2 = run(world, cfg);
    let set = |out: &RunOutput, cat: UrCategory| -> HashSet<_> {
        let key = |u: &ClassifiedUr| (u.ur.key.ns_ip, u.ur.key.domain, u.ur.key.rtype);
        let urs = out.classified.iter().filter(|u| u.category == cat);
        urs.map(key).collect()
    };
    let churn = [UrCategory::Malicious, UrCategory::Unknown].map(|cat| {
        let (a, b) = (set(e1, cat), set(&e2, cat));
        let (persisted, gone) = (a.intersection(&b).count(), a.difference(&b).count());
        let new = b.difference(&a).count();
        let (before, after) = (a.len(), b.len());
        format!("{cat:?} | {before} | {after} | {persisted} | {gone} | {new}")
    });
    let (s1, s2) = (e1.report.render_summary(), e2.report.render_summary());
    let day2 = world.config.today;
    let epochs = format!("epoch 1 (day {day1})\n{s1}\n\nepoch 2 (day {day2})\n{s2}");
    let head = "category | epoch 1 | epoch 2 | persisted | disappeared | new";
    let body =
        "## Longitudinal churn — two epochs\n\n".to_string() + &code(&epochs) + &table(head, churn);
    Section { body, rows: vec![] }
}

/// §6 mitigations: the baseline against the as-disclosed fixes (Tencent's
/// NS-delegation check, Alibaba's TXT challenge, Cloudflare's reserved
/// list) and against every provider verifying delegation.
fn mitigation(base: &RunOutput, cfg: &HunterConfig) -> Section {
    let mitigated = |fix: &dyn Fn(&mut World)| {
        let mut world = World::generate(WorldConfig::default_scale());
        fix(&mut world);
        run(&mut world, cfg)
    };
    let disclosed = mitigated(&|world| {
        let provider = |name| {
            world.providers[world.provider_index(name).expect("a studied provider")].borrow_mut()
        };
        provider("Tencent Cloud").policy_mut().verification = VerificationPolicy::NsDelegation;
        provider("Alibaba Cloud").policy_mut().verification = VerificationPolicy::TxtChallenge;
        provider("Cloudflare").policy_mut().reserved = world.tranco.top(50).to_vec();
    });
    let universal = mitigated(&|world| {
        for p in &world.providers {
            p.borrow_mut().policy_mut().verification = VerificationPolicy::NsDelegation;
        }
    });

    // Every scenario's totals, then the four providers the fixes concern.
    let line = |label, name, urs, malicious: usize, unknown: usize| {
        let (suspicious, share) = (malicious + unknown, pct(malicious, malicious + unknown));
        format!("{label} | {name} | {urs} | {suspicious} | {unknown} | {malicious} | {share:.1} %")
    };
    let mut rows = Vec::new();
    let scenarios = [
        ("baseline", base),
        ("as-disclosed", &disclosed),
        ("universal verification", &universal),
    ];
    for (label, out) in scenarios {
        let t = out.report.totals;
        rows.push(line(label, "all", t.total, t.malicious, t.unknown));
        for name in ["Cloudflare", "Tencent Cloud", "Alibaba Cloud", "ClouDNS"] {
            if let Some(p) = out.report.providers.iter().find(|p| p.provider == name) {
                rows.push(line(label, name, p.total, p.malicious, p.unknown));
            }
        }
    }
    let before = base.report.totals.malicious;
    let reduction = |out: &RunOutput| {
        let gone = before - out.report.totals.malicious.min(before);
        format!("{:.1} %", pct(gone, before))
    };
    let head = "scenario | provider | URs | suspicious | unknown | malicious | malicious share";
    let body = "## §6 — mitigations\n\n".to_string() + &table(head, rows);
    let (partial, all) = (reduction(&disclosed), reduction(&universal));
    let rows = vec![
        row("malicious-UR reduction, as-disclosed", "partial", partial),
        row("malicious-UR reduction, universal verification", "—", all),
    ];
    Section { body, rows }
}

/// A Markdown table and a blank line: `head` and each row are their cells
/// joined by ` | `.
fn table(head: &str, rows: impl IntoIterator<Item = impl Display>) -> String {
    let columns = head.split(" | ").count();
    let mut s = format!("| {head} |\n|{}\n", "---|".repeat(columns));
    for row in rows {
        let _ = writeln!(s, "| {row} |");
    }
    s + "\n"
}

/// A figure panel's counts by display name.
fn named<K: Display>(counts: &BTreeMap<K, usize>) -> Vec<(String, usize)> {
    counts.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Preformatted text: a renderer's output exactly as it prints it.
fn code(text: &str) -> String {
    format!("```text\n{}\n```\n\n", text.trim_end())
}

fn pct(part: usize, whole: usize) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

fn percent(v: f64) -> String {
    format!("{v:.2} %")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn document(rows: Vec<Row>) -> Document {
        let body = "## test\n\n".to_string();
        Document(vec![Section { body, rows }])
    }

    #[test]
    fn an_out_of_band_row_fails_the_check() {
        let band = ("[20 %, 30 %]", 20.0, 30.0);
        let doc = document(vec![
            banded("inside", "25.41 %", "25.00 %", band, 25.0),
            banded("outside", "25.41 %", "31.00 %", band, 31.0),
            row("unbanded", "—", 1),
        ]);
        let failed = doc.out_of_band();
        assert_eq!(failed, ["outside | 25.41 % | 31.00 % | [20 %, 30 %]"]);
    }

    #[test]
    fn a_band_includes_its_ends() {
        assert!(banded("q", 0, "0", ZERO, 0.0).holds);
        assert!(!banded("q", 0, "1", ZERO, 1.0).holds);
        let at_least = ("≥ 98 %", 98.0, f64::INFINITY);
        assert!(banded("q", 99.95, "98.00 %", at_least, 98.0).holds);
        assert!(!banded("q", 99.95, "97.99 %", at_least, 97.99).holds);
    }

    #[test]
    fn rows_render_as_a_markdown_table() {
        let doc = document(vec![row("q", "p", "m")]);
        assert_eq!(
            doc.to_string(),
            "## test\n\n| quantity | paper | measured | band |\n|---|---|---|---|\n| q | p | m | — |\n\n"
        );
    }
}
