//! Network-operator defense (paper §6): "operators should give extra
//! consideration to the DNS traffic that does not follow the recursive
//! process and avoid overreliance on reputation-based detection."
//!
//! [`EgressMonitor`] implements that recommendation over a traffic
//! capture: port-53 flows from internal clients to servers that are not
//! the network's sanctioned resolvers are exactly the UR retrieval path —
//! reputation-blind, so the trusted provider's good name does not help the
//! attacker.

use dnswire::Message;
use simnet::{Disposition, FlowRecord, SimTime};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// One flagged direct-to-authoritative DNS exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BypassAlert {
    /// When the query was seen.
    pub(crate) at: SimTime,
    /// The internal client.
    pub client: Ipv4Addr,
    /// The contacted DNS server (not a sanctioned resolver).
    pub server: Ipv4Addr,
    /// The queried name, when the payload parsed as DNS.
    pub qname: Option<dnswire::Name>,
    /// The queried type.
    pub(crate) qtype: Option<dnswire::RecordType>,
}

/// Egress monitor configuration: the network's sanctioned resolvers and
/// the internal address predicate.
#[derive(Debug, Clone)]
pub struct EgressMonitor {
    /// Resolvers clients are expected to use.
    pub(crate) sanctioned_resolvers: HashSet<Ipv4Addr>,
    /// First octets considered "internal" (clients we protect).
    pub(crate) internal_prefixes: Vec<u8>,
}

impl EgressMonitor {
    /// Monitor for a network whose clients live in `internal_prefixes`
    /// (first-octet granularity, enough for the simulation's address plan)
    /// and should only use `sanctioned_resolvers`.
    pub fn new(sanctioned_resolvers: HashSet<Ipv4Addr>, internal_prefixes: Vec<u8>) -> Self {
        EgressMonitor {
            sanctioned_resolvers,
            internal_prefixes,
        }
    }

    fn is_internal(&self, ip: Ipv4Addr) -> bool {
        self.internal_prefixes.contains(&ip.octets()[0])
    }

    /// Scan a capture for DNS traffic that bypasses the recursive process.
    pub fn scan(&self, flows: &[FlowRecord]) -> Vec<BypassAlert> {
        let mut alerts = Vec::new();
        for f in flows {
            if f.disposition == Disposition::Dropped {
                continue;
            }
            if f.dst.port != 53 || !self.is_internal(f.src.ip) {
                continue;
            }
            if self.sanctioned_resolvers.contains(&f.dst.ip) {
                continue;
            }
            let (qname, qtype) = match Message::decode(&f.payload) {
                Ok(m) if !m.flags.response => (
                    m.question().map(|q| q.qname.clone()),
                    m.question().map(|q| q.qtype),
                ),
                // Response or non-DNS payload on port 53: still suspicious
                // enough to flag the exchange, without parsed context.
                _ => (None, None),
            };
            alerts.push(BypassAlert {
                at: f.at,
                client: f.src.ip,
                server: f.dst.ip,
                qname,
                qtype,
            });
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intel::IdsEngine;
    use worldgen::{World, WorldConfig};

    /// The sandbox victim's direct UR lookups get flagged; its queries to
    /// the sanctioned resolver do not.
    #[test]
    fn flags_direct_ns_queries_not_resolver_queries() {
        let mut world = World::generate(WorldConfig::small());
        let sandbox = world.sandbox;
        let ids = IdsEngine::standard_ruleset();
        // Run the Dark.IoT corpus (direct NS query) and a benign sample
        // (default-resolver query).
        let samples: Vec<_> = world
            .samples
            .iter()
            .filter(|s| s.family == "Dark.IoT")
            .cloned()
            .collect();
        assert!(!samples.is_empty());
        let benign = intel::malware::benign_app(1, &world.tranco.domains()[0].clone());

        world.net.trace.clear();
        let mut reports = Vec::new();
        for s in samples.iter().chain(std::iter::once(&benign)) {
            reports.push(sandbox.run(&mut world.net, &ids, s));
        }
        let monitor = EgressMonitor::new(
            [sandbox.resolver_ip].into_iter().collect(),
            vec![10], // victims live in 10.0.0.0/8
        );
        let all_flows: Vec<_> = world.net.trace.records().to_vec();
        let alerts = monitor.scan(&all_flows);
        assert!(!alerts.is_empty(), "direct NS queries must be flagged");
        // every alert points at a provider nameserver, never the resolver
        for a in &alerts {
            assert_ne!(a.server, sandbox.resolver_ip);
            assert_eq!(a.client, sandbox.victim_ip);
        }
        // the UR domain is visible in the flagged queries
        let dark = &world.truth.campaigns[world.truth.case_studies["dark_iot_gitlab"]];
        assert!(
            alerts
                .iter()
                .any(|a| a.qname.as_ref() == Some(&dark.domain)),
            "the UR lookup itself must appear in the alerts"
        );
        // benign resolution through the sanctioned resolver stays silent:
        // no alert for the benign sample's domain
        let benign_domain = &world.tranco.domains()[0];
        assert!(alerts
            .iter()
            .all(|a| a.qname.as_ref() != Some(benign_domain)));
    }

    #[test]
    fn external_clients_and_other_ports_ignored() {
        let monitor =
            EgressMonitor::new([Ipv4Addr::new(9, 9, 9, 9)].into_iter().collect(), vec![10]);
        let mk = |src: [u8; 4], dst: [u8; 4], port: u16| simnet::FlowRecord {
            at: SimTime(1),
            src: simnet::Endpoint::new(Ipv4Addr::from(src), 4000),
            dst: simnet::Endpoint::new(Ipv4Addr::from(dst), port),
            proto: simnet::Proto::Udp,
            len: 4,
            payload: vec![0, 1, 2, 3],
            disposition: Disposition::Delivered,
        };
        let flows = vec![
            mk([20, 0, 0, 1], [20, 1, 0, 1], 53), // external src: ignored
            mk([10, 0, 0, 1], [20, 1, 0, 1], 80), // not DNS: ignored
            mk([10, 0, 0, 1], [9, 9, 9, 9], 53),  // sanctioned resolver: ok
            mk([10, 0, 0, 1], [20, 1, 0, 1], 53), // bypass: flagged
        ];
        let alerts = monitor.scan(&flows);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].server, Ipv4Addr::new(20, 1, 0, 1));
        assert!(
            alerts[0].qname.is_none(),
            "garbage payload still flagged, unparsed"
        );
    }
}
