//! Case study (§5.3): Dark.IoT and Specter obtain their C2 servers
//! through undelegated records on a ClouDNS-like provider.
//!
//! The walkthrough shows why the channel is covert: the normal resolution
//! path (root → TLD → authoritative) never sees the attacker's records —
//! only a direct query to the hosting provider's nameserver does, and that
//! query looks like ordinary DNS traffic to a reputable provider.
//!
//! ```sh
//! cargo run --release --example dark_iot
//! ```

use dnswire::{Name, Rcode, RecordType};
use intel::{IdsEngine, Severity};
use worldgen::{World, WorldConfig};

fn main() {
    let mut world = World::generate(WorldConfig::small());
    let gitlab_ur: Name = "api.gitlab.com".parse().unwrap();
    let client = "10.50.0.1".parse().unwrap();

    // 1. The normal path: ask an honest open resolver. The gitlab.com zone
    //    is delegated to its real operator, which has no `api` record here.
    let resolver = world
        .resolvers
        .iter()
        .find(|r| r.stable && !r.manipulated)
        .unwrap()
        .ip;
    let normal = authdns::dns_query(
        &mut world.net,
        client,
        resolver,
        &gitlab_ur,
        RecordType::A,
        1,
    )
    .expect("resolver answers");
    println!(
        "normal resolution of {gitlab_ur} via {resolver}: {}",
        normal.rcode()
    );
    assert_ne!(
        normal.rcode(),
        Rcode::NoError,
        "the UR must be invisible on the normal path"
    );

    // 2. The covert path: the malware asks ClouDNS's nameserver directly.
    let dark = &world.truth.campaigns[world.truth.case_studies["dark_iot_gitlab"]];
    let ns_ip = world.providers[dark.provider].borrow().nameservers()[0].1;
    let covert = authdns::dns_query(&mut world.net, client, ns_ip, &gitlab_ur, RecordType::A, 2)
        .expect("provider answers");
    println!(
        "direct query to ClouDNS NS {ns_ip}: {} -> {:?}",
        covert.rcode(),
        covert
            .answers
            .iter()
            .map(|r| r.rdata.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(covert.rcode(), Rcode::NoError);

    // 3. Replay the actual malware corpus in the sandbox.
    let ids = IdsEngine::standard_ruleset();
    let sandbox = world.sandbox;
    println!("\n== sandbox reports ==");
    let samples: Vec<_> = world
        .samples
        .iter()
        .filter(|s| s.family == "Dark.IoT" || s.family == "Specter")
        .cloned()
        .collect();
    for sample in &samples {
        let report = sandbox.run(&mut world.net, &ids, sample);
        println!(
            "{:<24} family={:<8} queried={:?} contacted={:?}",
            report.sample,
            report.family,
            report
                .queried_domains
                .iter()
                .map(|(d, t, _)| format!("{d}/{t}"))
                .collect::<Vec<_>>(),
            report.contacted_ips
        );
        for alert in &report.alerts {
            if alert.severity >= Severity::Medium {
                println!(
                    "    IDS: [{:?}] {} -> {}",
                    alert.severity, alert.msg, alert.dst
                );
            }
        }
    }

    // 4. The Specter twist: zero vendor flags, IDS-only detection.
    let specter = &world.truth.campaigns[world.truth.case_studies["specter_ibm"]];
    for ip in &specter.c2_ips {
        println!(
            "\nSpecter C2 {ip}: flagged by {}/{} vendors (the paper found 0/74) — only the sandbox traffic exposes it",
            world.intel.flag_count(*ip),
            world.intel.vendor_count()
        );
    }
}
