//! The MX extension (§6 future work: "our methodology is also adaptive
//! for measuring more nameservers and other types of records (e.g., MX
//! records)"): MX URs are collected with exchange-address follow-ups,
//! legitimate MX records are excluded, and malicious mail-exchange URs
//! surface.

use dnswire::{RDataView, RecordType};
use urhunter::{evaluate_false_negatives, run, HunterConfig, UrCategory};
use worldgen::{DetectionClass, World, WorldConfig};

fn extended_run() -> (World, urhunter::RunOutput) {
    let mut world = World::generate(WorldConfig::small());
    let out = run(&mut world, &HunterConfig::extended());
    (world, out)
}

#[test]
fn mx_urs_are_collected_with_exchange_followups() {
    let (_world, out) = extended_run();
    let mx_urs: Vec<_> = out
        .classified
        .iter()
        .map(|c| &c.ur)
        .filter(|u| u.key.rtype == RecordType::Mx)
        .collect();
    assert!(!mx_urs.is_empty(), "no MX URs collected");
    // Every attacker-planted MX UR carries exchange A follow-ups.
    let with_aux = mx_urs.iter().filter(|u| !u.aux_records.is_empty()).count();
    assert!(with_aux > 0, "no MX UR has exchange follow-up records");
    for u in &mx_urs {
        for r in u.records.iter() {
            assert!(matches!(r, RDataView::Mx { .. }));
        }
        for r in u.aux_records.iter() {
            assert_eq!(r.record_type(), RecordType::A);
        }
    }
}

#[test]
fn malicious_mx_campaigns_are_detected() {
    let (world, out) = extended_run();
    let mut mx_campaigns_checked = 0;
    let targets: std::collections::HashSet<_> = world.scan_targets().into_iter().collect();
    for c in &world.truth.campaigns {
        if !c.rtypes.contains(&RecordType::Mx)
            || c.detection == DetectionClass::Undetected
            || !targets.contains(&c.domain)
        {
            continue;
        }
        mx_campaigns_checked += 1;
        let found = out.classified.iter().any(|u| {
            u.ur.key.domain == c.domain
                && u.ur.key.rtype == RecordType::Mx
                && u.category == UrCategory::Malicious
                && u.corresponding_ips.iter().any(|ip| c.c2_ips.contains(ip))
        });
        assert!(found, "MX campaign on {} not detected", c.domain);
    }
    // The small world plants few MX campaigns; larger seeds cover more.
    // If none were planted/visible the test is vacuous — detect that.
    if mx_campaigns_checked == 0 {
        let any_mx_campaign = world
            .truth
            .campaigns
            .iter()
            .any(|c| c.rtypes.contains(&RecordType::Mx));
        assert!(any_mx_campaign, "world planted no MX campaigns at all");
    }
}

#[test]
fn legitimate_mx_records_are_excluded_as_correct() {
    let (_world, out) = extended_run();
    // Global-fixed providers serve legit zones from all their NS; the
    // non-delegated ones produce MX "URs" that must be excluded.
    let correct_mx = out
        .classified
        .iter()
        .filter(|u| u.ur.key.rtype == RecordType::Mx && u.category == UrCategory::Correct)
        .count();
    assert!(
        correct_mx > 0,
        "no legit MX UR was excluded (none observed?)"
    );
}

#[test]
fn zero_false_negatives_holds_with_mx() {
    let mut world = World::generate(WorldConfig::small());
    let cfg = HunterConfig::extended();
    let out = run(&mut world, &cfg);
    let fn_count = evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    assert_eq!(
        fn_count, 0,
        "delegated A/TXT/MX records must never be suspicious"
    );
}

#[test]
fn report_gains_mx_row_only_when_scanned() {
    let (_world, extended) = extended_run();
    assert!(extended.report.table1.iter().any(|r| r.label == "MX"));

    let mut world = World::generate(WorldConfig::small());
    let basic = run(&mut world, &HunterConfig::fast());
    assert!(!basic.report.table1.iter().any(|r| r.label == "MX"));
}

#[test]
fn default_scan_unchanged_by_mx_support() {
    // A/TXT results with the extended config match the default config's
    // (MX probing is additive, not disruptive).
    let mut w1 = World::generate(WorldConfig::small());
    let basic = run(&mut w1, &HunterConfig::fast());
    let (_w2, extended) = extended_run();
    let basic_at = basic
        .classified
        .iter()
        .filter(|u| u.ur.key.rtype != RecordType::Mx)
        .count();
    let ext_at = extended
        .classified
        .iter()
        .filter(|u| u.ur.key.rtype != RecordType::Mx)
        .count();
    assert_eq!(basic_at, ext_at);
}
