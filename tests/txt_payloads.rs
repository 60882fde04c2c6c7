//! TXT payload-signature matching (§6 future work: "matching the TXT URs
//! without IP addresses with existing malware payloads is a valuable
//! direction for future work"): command-blob TXT URs are invisible to the
//! paper-faithful pipeline and surfaced by the extension.

use dnswire::RecordType;
use urhunter::{run, HunterConfig, UrCategory};
use worldgen::{World, WorldConfig};

/// A config/seed pair guaranteed to contain command-blob campaigns.
fn blob_world() -> World {
    let mut cfg = WorldConfig::small();
    cfg.attack_campaigns = 80; // more campaigns -> blob campaigns certain
    World::generate(cfg)
}

fn is_blob_text(u: &urhunter::ClassifiedUr) -> bool {
    u.ur.txt_strings()
        .iter()
        .any(|t| t.starts_with("dkt;") || t.starts_with("sp3c;") || t.starts_with("cmd64="))
}

fn blob_campaign_domains(world: &World) -> Vec<dnswire::Name> {
    let targets: std::collections::HashSet<_> = world.scan_targets().into_iter().collect();
    world
        .truth
        .campaigns
        .iter()
        .filter(|c| c.command_blob && targets.contains(&c.domain))
        .map(|c| c.domain.clone())
        .collect()
}

#[test]
fn world_plants_command_blob_campaigns() {
    let world = blob_world();
    assert!(
        world.truth.campaigns.iter().any(|c| c.command_blob),
        "no command-blob campaigns planted"
    );
}

#[test]
fn paper_faithful_mode_leaves_blobs_unknown() {
    let mut world = blob_world();
    let domains = blob_campaign_domains(&world);
    if domains.is_empty() {
        panic!("no observable blob campaigns in this seed");
    }
    let out = run(&mut world, &HunterConfig::fast());
    for d in &domains {
        for u in out
            .classified
            .iter()
            .filter(|u| u.ur.key.domain == *d && u.ur.key.rtype == RecordType::Txt)
            .filter(|u| is_blob_text(u))
        {
            // The blob carries no address: the paper-faithful pipeline
            // cannot judge it (the acknowledged under-reporting).
            if u.corresponding_ips.is_empty() {
                assert_eq!(u.category, UrCategory::Unknown, "blob UR on {d} misjudged");
                assert!(u.payload_matched.is_none());
            }
        }
    }
}

#[test]
fn payload_matching_surfaces_blob_urs() {
    let mut world = blob_world();
    let domains = blob_campaign_domains(&world);
    assert!(!domains.is_empty());
    let out = run(&mut world, &HunterConfig::fast().with_payload_matching());
    let mut matched = 0;
    for d in &domains {
        for u in out
            .classified
            .iter()
            .filter(|u| u.ur.key.domain == *d && u.ur.key.rtype == RecordType::Txt)
            .filter(|u| is_blob_text(u))
        {
            if u.corresponding_ips.is_empty() && u.payload_matched.is_some() {
                assert_eq!(u.category, UrCategory::Malicious);
                matched += 1;
            }
        }
    }
    assert!(matched > 0, "no blob UR was payload-matched");
}

#[test]
fn payload_matching_never_touches_benign_txt() {
    let mut world = blob_world();
    let out = run(&mut world, &HunterConfig::fast().with_payload_matching());
    for u in &out.classified {
        if let Some(family) = &u.payload_matched {
            // Every payload-matched UR must belong to a planted blob
            // campaign of a modeled family.
            let planted = world
                .truth
                .campaigns
                .iter()
                .any(|c| c.command_blob && u.ur.key.domain == c.domain);
            assert!(
                planted,
                "{} matched family {family} but is not a planted blob",
                u.ur.key.domain
            );
        }
    }
    // The legit SPF/DMARC TXT population must be unaffected.
    let fn_count = urhunter::evaluate_false_negatives(
        &mut world,
        &out.correct_db,
        &out.protective_db,
        &HunterConfig::fast().with_payload_matching(),
    );
    assert_eq!(fn_count, 0);
}

#[test]
fn extension_strictly_increases_malicious_count() {
    let mut w1 = blob_world();
    let base = run(&mut w1, &HunterConfig::fast());
    let mut w2 = blob_world();
    let ext = run(&mut w2, &HunterConfig::fast().with_payload_matching());
    assert!(ext.report.totals.malicious >= base.report.totals.malicious);
    if !blob_campaign_domains(&w2).is_empty() {
        assert!(
            ext.report.totals.malicious > base.report.totals.malicious,
            "payload matching should add malicious URs when blobs are observable"
        );
    }
}
