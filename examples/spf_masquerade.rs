//! Case study (§5.3): a masquerading SPF record for a popular domain
//! hides SMTP-based covert communication.
//!
//! The attacker hosts a fake `v=spf1` TXT record for `speedtest.net` on
//! two providers (11 nameservers total). Malware reads the record, parses
//! the `ip4:` mechanisms, and talks SMTP to those addresses — traffic that
//! looks like ordinary mail-infrastructure lookups.
//!
//! ```sh
//! cargo run --release --example spf_masquerade
//! ```

use dnswire::{Name, RecordType};
use intel::{extract_ipv4s, IdsEngine, Severity};
use simnet::Proto;
use worldgen::{World, WorldConfig};

fn main() {
    let mut world = World::generate(WorldConfig::small());
    let speedtest: Name = "speedtest.net".parse().unwrap();
    let client = "10.50.0.2".parse().unwrap();

    // Enumerate every nameserver that serves the masquerading record.
    println!("== nameservers serving the masquerading SPF record ==");
    let mut serving = Vec::new();
    for label in ["spf_namecheap", "spf_csc"] {
        let c = &world.truth.campaigns[world.truth.case_studies[label]];
        let p = world.providers[c.provider].borrow();
        for (ns_name, ns_ip) in p.serving_nameservers(c.zone) {
            serving.push((p.name().to_string(), ns_name, ns_ip));
        }
    }
    for (provider, ns_name, ns_ip) in &serving {
        println!("  {provider:<10} {ns_name} ({ns_ip})");
    }
    println!(
        "  total: {} nameservers across 2 providers (paper: 11)\n",
        serving.len()
    );

    // Query one of them for the TXT record and parse the SPF mechanisms.
    let (_, _, ns_ip) = serving[0].clone();
    let resp = authdns::dns_query(
        &mut world.net,
        client,
        ns_ip,
        &speedtest,
        RecordType::Txt,
        7,
    )
    .expect("provider answers");
    let text = resp.answers[0].rdata.txt_joined().unwrap();
    let ips: Vec<_> = extract_ipv4s(&text).collect();
    println!("TXT UR: \"{text}\"");
    println!("embedded SMTP C2 addresses: {ips:?}");
    assert_eq!(ips.len(), 3, "three addresses in the same /24");

    // Threat-intel view: all three are flagged.
    for ip in &ips {
        println!(
            "  {ip}: flagged by {} vendors, tags {:?}",
            world.intel.flag_count(*ip),
            world.intel.tags(*ip)
        );
    }

    // Replay the six malware samples (4 Tesla + 2 Micropsia).
    println!("\n== sandbox: SMTP covert channel ==");
    let ids = IdsEngine::standard_ruleset();
    let sandbox = world.sandbox;
    let samples: Vec<_> = world
        .samples
        .iter()
        .filter(|s| s.family == "Tesla" || s.family == "Micropsia")
        .cloned()
        .collect();
    let mut total_alerts = 0;
    for sample in &samples {
        let report = sandbox.run(&mut world.net, &ids, sample);
        let smtp_flows = report
            .flows
            .iter()
            .filter(|f| f.proto == Proto::Tcp && f.dst.port == 25)
            .count();
        let high = report
            .alerts
            .iter()
            .filter(|a| a.severity == Severity::High)
            .count();
        total_alerts += report.alerts.len();
        println!(
            "  {:<24} smtp-flows={} high-risk-alerts={}",
            report.sample, smtp_flows, high
        );
    }
    println!(
        "  {} samples, {} alerts total (paper: 6 samples, 16 alerts)",
        samples.len(),
        total_alerts
    );
}
