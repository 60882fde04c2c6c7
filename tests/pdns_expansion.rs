//! Passive-DNS target expansion (§6 future work: "we can recover
//! legitimate subdomains from PDNS data and measure whether they appear
//! in URs"): the expanded scan observes subdomain URs the apex-only scan
//! misses.

use dnswire::RecordType;
use urhunter::{run, HunterConfig, UrCategory};
use worldgen::{World, WorldConfig};

#[test]
fn expansion_adds_subdomain_targets_and_urs() {
    let mut w1 = World::generate(WorldConfig::small());
    let base = run(&mut w1, &HunterConfig::fast());
    let mut w2 = World::generate(WorldConfig::small());
    let expanded = run(&mut w2, &HunterConfig::fast().with_pdns_expansion());

    // The expanded scan collects strictly more URs.
    assert!(
        expanded.classified.len() > base.classified.len(),
        "expansion found nothing extra ({} vs {})",
        expanded.classified.len(),
        base.classified.len()
    );
    // Some collected URs are for third-level names now.
    let sub_urs = expanded
        .classified
        .iter()
        .filter(|u| u.ur.key.domain.name().label_count() >= 3)
        .count();
    let base_sub_urs = base
        .classified
        .iter()
        .filter(|u| u.ur.key.domain.name().label_count() >= 3)
        .count();
    assert!(sub_urs > base_sub_urs);
}

#[test]
fn expansion_catches_subdomain_campaigns_on_known_labels() {
    // An attacker hosting `mail.<apex>` where a real `mail.<apex>` exists
    // in passive DNS is invisible to the apex-only scan but caught by the
    // expanded one.
    let mut world = World::generate(WorldConfig::small());
    // Find an apex whose mail subdomain is in passive DNS.
    let apex = world
        .tranco
        .domains()
        .iter()
        .find(|d| {
            !world
                .pdns
                .subdomains_of(d, world.config.today, pdns::SIX_YEARS_DAYS)
                .is_empty()
        })
        .cloned()
        .expect("some apex has pdns subdomains");
    let target = world
        .pdns
        .subdomains_of(&apex, world.config.today, pdns::SIX_YEARS_DAYS)
        .into_iter()
        .find(|s| s.labels().next() == Some(b"mail".as_slice()))
        .unwrap_or_else(|| {
            world
                .pdns
                .subdomains_of(&apex, world.config.today, pdns::SIX_YEARS_DAYS)[0]
                .clone()
        });
    // Plant the campaign at ClouDNS with a vendor-flagged C2.
    let c2: std::net::Ipv4Addr = "40.250.0.10".parse().unwrap();
    let cloudns = world.provider_index("ClouDNS").unwrap();
    {
        let mut p = world.providers[cloudns].borrow_mut();
        let attacker = p.create_account();
        let zid = p
            .host_domain(attacker, &target, authdns::DomainClass::Subdomain)
            .expect("ClouDNS hosts subdomains");
        p.add_record(
            zid,
            dnswire::Record::new(target.clone(), 60, dnswire::RData::A(c2)),
        );
    }
    world
        .intel
        .vendor_mut("SimVT")
        .unwrap()
        .flag(c2, intel::ThreatTag::Trojan);

    // Apex-only scan misses it; expanded scan finds it malicious.
    let apex_targets: std::collections::HashSet<_> = world.scan_targets().into_iter().collect();
    assert!(!apex_targets.contains(&target));
    let out = run(&mut world, &HunterConfig::fast().with_pdns_expansion());
    let found = out.classified.iter().any(|u| {
        u.ur.key.domain == target
            && u.category == UrCategory::Malicious
            && u.corresponding_ips.contains(&c2)
    });
    assert!(found, "expanded scan must catch the {target} UR");
}

#[test]
fn legitimate_subdomain_urs_stay_correct() {
    let mut world = World::generate(WorldConfig::small());
    let out = run(&mut world, &HunterConfig::fast().with_pdns_expansion());
    // www/mail URs served by global-fixed providers hosting the legit zone
    // must be excluded, not suspicious.
    for u in &out.classified {
        if u.ur.key.domain.name().label_count() < 3 || u.ur.key.rtype != RecordType::A {
            continue;
        }
        let labels: Vec<&[u8]> = u.ur.key.domain.name().labels().collect();
        if (labels[0] == b"www" || labels[0] == b"mail")
            && matches!(u.category, UrCategory::Unknown | UrCategory::Malicious)
        {
            // Only attacker-planted ones may be suspicious; verify it
            // really is attacker infrastructure.
            let is_planted = world
                .truth
                .campaigns
                .iter()
                .any(|c| u.ur.key.domain == c.domain);
            assert!(
                is_planted,
                "legit subdomain {} wrongly suspicious",
                u.ur.key.domain
            );
        }
    }
}

#[test]
fn zero_false_negatives_with_expansion() {
    let mut world = World::generate(WorldConfig::small());
    let cfg = HunterConfig::fast().with_pdns_expansion();
    let out = run(&mut world, &cfg);
    let fn_count =
        urhunter::evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    assert_eq!(fn_count, 0);
}
