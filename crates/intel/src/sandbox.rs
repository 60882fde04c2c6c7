//! The malware sandbox: executes behaviour scripts against the simulated
//! network, captures all traffic, and runs the IDS over the capture.
//!
//! Mirrors §4.3 of the paper: "VirusTotal and QAX provide sandbox
//! evaluation reports for millions of malware. All network traffic
//! generated by each malware was collected and analyzed."

use crate::ids::{Alert, IdsEngine};
use dnswire::{Message, Name, Question, Rcode, RecordType};
use simnet::{Actions, Datagram, Endpoint, FlowRecord, Network, Node, Proto, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Where a connection op gets its destination address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum C2Target {
    /// Hard-coded address baked into the sample.
    Fixed(Ipv4Addr),
    /// The first A record from the most recent resolution — the UR-driven
    /// C2 discovery path.
    FromLastResolution,
    /// An address embedded in the most recent TXT answer (SPF-masquerade).
    FromTxt,
}

/// One step of a malware behaviour script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MalwareOp {
    /// Query a specific nameserver directly — bypassing the default
    /// resolver. This is the undelegated-record retrieval path.
    ResolveDirect {
        /// The nameserver to ask.
        ns: Ipv4Addr,
        /// Domain to query.
        domain: Name,
        /// Record type to query.
        rtype: RecordType,
    },
    /// Query through the sandbox's default recursive resolver.
    ResolveDefault {
        /// Domain to query.
        domain: Name,
        /// Record type to query.
        rtype: RecordType,
    },
    /// Open a connection and send a payload.
    Connect {
        /// Destination selection.
        target: C2Target,
        /// Destination port.
        port: u16,
        /// Payload bytes (IDS rules match on these).
        payload: Vec<u8>,
    },
}

/// A malware sample: an identity plus its behaviour script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalwareSample {
    /// Sample name (e.g. `dark_iot.v2021-12-12.a`).
    pub name: String,
    /// Family name (e.g. `Dark.IoT`).
    pub family: String,
    /// Behaviour script, executed in order.
    pub ops: Vec<MalwareOp>,
}

/// Result of one sandbox evaluation.
#[derive(Debug, Clone)]
pub struct SandboxReport {
    /// Sample name.
    pub sample: String,
    /// Family name.
    pub family: String,
    /// Every flow the sample generated (both directions).
    pub flows: Vec<FlowRecord>,
    /// IDS alerts over those flows.
    pub alerts: Vec<Alert>,
    /// Addresses the sample attempted to contact.
    pub contacted_ips: Vec<Ipv4Addr>,
    /// Domains the sample queried (directly or via resolver).
    pub queried_domains: Vec<(Name, RecordType, Ipv4Addr)>,
}

impl SandboxReport {
    /// Destinations of alerts at or above `min` severity — the paper's
    /// "malicious traffic toward the IP address" signal.
    pub fn alert_dst_ips(&self, min: crate::ids::Severity) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self
            .alerts
            .iter()
            .filter(|a| a.severity >= min)
            .map(|a| a.dst.ip)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Extract IPv4 addresses embedded in free text — SPF mechanisms
/// (`ip4:203.0.113.5`, `ip4:203.0.113.0/24`) and bare dotted quads.
pub fn extract_ipv4s(text: &str) -> impl Iterator<Item = Ipv4Addr> + '_ {
    text.split(|c: char| c.is_whitespace() || c == ';' || c == ',' || c == '"')
        .filter_map(|token| {
            let token = token.strip_prefix("ip4:").unwrap_or(token);
            let token = token.split('/').next().unwrap_or(token);
            token.parse::<Ipv4Addr>().ok()
        })
}

/// The sandbox: a victim vantage point plus a default resolver.
#[derive(Debug, Clone, Copy)]
pub struct Sandbox {
    /// Address of the instrumented victim host.
    pub victim_ip: Ipv4Addr,
    /// The sandbox network's default recursive resolver.
    pub resolver_ip: Ipv4Addr,
}

impl Sandbox {
    /// Create a sandbox.
    pub fn new(victim_ip: Ipv4Addr, resolver_ip: Ipv4Addr) -> Self {
        Sandbox {
            victim_ip,
            resolver_ip,
        }
    }

    /// Execute `sample` on `net`, capture its traffic, and run `ids` over
    /// the capture.
    pub fn run(&self, net: &mut Network, ids: &IdsEngine, sample: &MalwareSample) -> SandboxReport {
        let trace_start = net.trace.len();
        let mut last_ips: Vec<Ipv4Addr> = Vec::new();
        let mut last_txt_ips: Vec<Ipv4Addr> = Vec::new();
        let mut contacted_ips = Vec::new();
        let mut queried = Vec::new();
        let mut qid: u16 = 0x4000;

        for op in &sample.ops {
            match op {
                MalwareOp::ResolveDirect { ns, domain, rtype } => {
                    qid = qid.wrapping_add(1);
                    queried.push((domain.clone(), *rtype, *ns));
                    if let Some(resp) =
                        authdns::dns_query(net, self.victim_ip, *ns, domain, *rtype, qid)
                    {
                        self.absorb(&resp, &mut last_ips, &mut last_txt_ips);
                    }
                }
                MalwareOp::ResolveDefault { domain, rtype } => {
                    qid = qid.wrapping_add(1);
                    queried.push((domain.clone(), *rtype, self.resolver_ip));
                    if let Some(resp) = authdns::dns_query(
                        net,
                        self.victim_ip,
                        self.resolver_ip,
                        domain,
                        *rtype,
                        qid,
                    ) {
                        self.absorb(&resp, &mut last_ips, &mut last_txt_ips);
                    }
                }
                MalwareOp::Connect {
                    target,
                    port,
                    payload,
                } => {
                    let dst_ip = match target {
                        C2Target::Fixed(ip) => Some(*ip),
                        C2Target::FromLastResolution => last_ips.first().copied(),
                        C2Target::FromTxt => last_txt_ips.first().copied(),
                    };
                    let Some(dst_ip) = dst_ip else { continue };
                    contacted_ips.push(dst_ip);
                    // Fire the connection; a response is not required for the
                    // capture (and many C2s in the wild are already dead).
                    let _ = net.rpc(
                        Endpoint::new(self.victim_ip, 50000 + (qid % 10000)),
                        Endpoint::new(dst_ip, *port),
                        Proto::Tcp,
                        payload.clone(),
                        SimDuration::from_millis(500),
                    );
                    qid = qid.wrapping_add(1);
                }
            }
        }

        let flows: Vec<FlowRecord> = net.trace.records()[trace_start..]
            .iter()
            .filter(|f| f.src.ip == self.victim_ip || f.dst.ip == self.victim_ip)
            .cloned()
            .collect();
        let alerts = ids.scan(&flows);
        SandboxReport {
            sample: sample.name.clone(),
            family: sample.family.clone(),
            flows,
            alerts,
            contacted_ips,
            queried_domains: queried,
        }
    }

    fn absorb(
        &self,
        resp: &Message,
        last_ips: &mut Vec<Ipv4Addr>,
        last_txt_ips: &mut Vec<Ipv4Addr>,
    ) {
        if resp.rcode() != Rcode::NoError {
            return;
        }
        let ips: Vec<Ipv4Addr> = resp.answers.iter().filter_map(|r| r.rdata.as_a()).collect();
        if !ips.is_empty() {
            *last_ips = ips;
        }
        let mut txt_ips = Vec::new();
        for r in &resp.answers {
            if let Some(text) = r.rdata.txt_joined() {
                txt_ips.extend(extract_ipv4s(&text));
            }
        }
        if !txt_ips.is_empty() {
            *last_txt_ips = txt_ips;
        }
    }
}

/// A live C2 server node: answers any TCP payload with a short banner
/// (attacker infrastructure the world generator can stand up so C2
/// conversations complete).
pub struct C2ServerNode {
    banner: Vec<u8>,
}

impl C2ServerNode {
    /// A C2 responding with `banner`.
    pub fn new(banner: &[u8]) -> Self {
        C2ServerNode {
            banner: banner.to_vec(),
        }
    }
}

impl Node for C2ServerNode {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        if dgram.proto == Proto::Tcp {
            out.send(dgram.reply(self.banner.clone()));
        }
    }

    fn role(&self) -> &'static str {
        "c2-server"
    }
}

/// Convenience: build a question (used by tests).
pub fn question(domain: &Name, rtype: RecordType) -> Question {
    Question::new(domain.clone(), rtype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Severity;
    use authdns::{DomainClass, HostingPolicy, HostingProvider, ProviderNsNode, DNS_PORT};
    use dnswire::{RData, Record};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn extract_ipv4s_variants() {
        let ips: Vec<Ipv4Addr> =
            extract_ipv4s("v=spf1 ip4:203.0.113.5 ip4:198.51.100.0/24 include:x.com -all")
                .collect();
        assert_eq!(
            ips,
            vec![
                Ipv4Addr::new(203, 0, 113, 5),
                Ipv4Addr::new(198, 51, 100, 0)
            ]
        );
        assert_eq!(extract_ipv4s("no ips here 300.1.2.3").next(), None);
        assert_eq!(
            extract_ipv4s("cmd;9.9.9.9,8.8.8.8").collect::<Vec<_>>(),
            vec![Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(8, 8, 8, 8)]
        );
    }

    /// Full UR-driven C2 path: provider hosts UR for trusted.com pointing at
    /// a C2; malware queries the provider NS directly, connects, and the IDS
    /// flags the C2 traffic.
    #[test]
    fn ur_c2_end_to_end() {
        let ns_ip = Ipv4Addr::new(198, 18, 0, 1);
        let c2_ip = Ipv4Addr::new(66, 66, 66, 66);
        let provider = Rc::new(RefCell::new(HostingProvider::new(
            "CloudX",
            HostingPolicy::cloudns(),
            vec![(n("ns1.cloudx.example"), ns_ip)],
            Ipv4Addr::new(198, 18, 0, 250),
            3,
        )));
        {
            let mut p = provider.borrow_mut();
            let attacker = p.create_account();
            let zid = p
                .host_domain(attacker, &n("trusted.com"), DomainClass::RegisteredSld)
                .unwrap();
            p.add_record(zid, Record::new(n("trusted.com"), 60, RData::A(c2_ip)));
        }
        let mut net = Network::new(8);
        net.add_node(ns_ip, Box::new(ProviderNsNode::new(provider, ns_ip)));
        net.add_node(c2_ip, Box::new(C2ServerNode::new(b"ACK")));

        let sample = MalwareSample {
            name: "test.bot.1".into(),
            family: "Dark.IoT".into(),
            ops: vec![
                MalwareOp::ResolveDirect {
                    ns: ns_ip,
                    domain: n("trusted.com"),
                    rtype: RecordType::A,
                },
                MalwareOp::Connect {
                    target: C2Target::FromLastResolution,
                    port: 48101,
                    payload: b"DARKIOT-BOT checkin".to_vec(),
                },
            ],
        };
        let sandbox = Sandbox::new(Ipv4Addr::new(10, 99, 0, 1), Ipv4Addr::new(9, 9, 9, 9));
        let ids = IdsEngine::standard_ruleset();
        let report = sandbox.run(&mut net, &ids, &sample);

        assert_eq!(report.contacted_ips, vec![c2_ip]);
        assert!(!report.alerts.is_empty());
        assert_eq!(report.alert_dst_ips(Severity::Medium), vec![c2_ip]);
        // DNS flow to the provider NS must be present in the capture
        assert!(report
            .flows
            .iter()
            .any(|f| f.dst.ip == ns_ip && f.dst.port == DNS_PORT));
    }

    #[test]
    fn spf_txt_target_extraction() {
        let ns_ip = Ipv4Addr::new(198, 18, 0, 5);
        let smtp_ip = Ipv4Addr::new(66, 66, 67, 10);
        let provider = Rc::new(RefCell::new(HostingProvider::new(
            "NameCh",
            HostingPolicy::godaddy(),
            vec![(n("dns1.namech.example"), ns_ip)],
            Ipv4Addr::new(0, 0, 0, 0),
            4,
        )));
        {
            let mut p = provider.borrow_mut();
            let attacker = p.create_account();
            let zid = p
                .host_domain(attacker, &n("speedtest.net"), DomainClass::RegisteredSld)
                .unwrap();
            p.add_record(
                zid,
                Record::new(
                    n("speedtest.net"),
                    60,
                    RData::txt_from_str(&format!("v=spf1 ip4:{smtp_ip} -all")),
                ),
            );
        }
        let mut net = Network::new(9);
        net.add_node(ns_ip, Box::new(ProviderNsNode::new(provider, ns_ip)));

        let sample = MalwareSample {
            name: "tesla.1".into(),
            family: "Tesla".into(),
            ops: vec![
                MalwareOp::ResolveDirect {
                    ns: ns_ip,
                    domain: n("speedtest.net"),
                    rtype: RecordType::Txt,
                },
                MalwareOp::Connect {
                    target: C2Target::FromTxt,
                    port: 25,
                    payload: b"EHLO exfil <base64-blob>".to_vec(),
                },
            ],
        };
        let sandbox = Sandbox::new(Ipv4Addr::new(10, 99, 0, 2), Ipv4Addr::new(9, 9, 9, 9));
        let ids = IdsEngine::standard_ruleset();
        let report = sandbox.run(&mut net, &ids, &sample);
        assert_eq!(report.contacted_ips, vec![smtp_ip]);
        assert_eq!(report.alert_dst_ips(Severity::Medium), vec![smtp_ip]);
    }

    #[test]
    fn benign_sample_yields_only_low_severity() {
        let mut net = Network::new(10);
        let target = Ipv4Addr::new(203, 0, 113, 1);
        net.add_node(target, Box::new(C2ServerNode::new(b"pong")));
        let sample = MalwareSample {
            name: "benign.1".into(),
            family: "harmless".into(),
            ops: vec![MalwareOp::Connect {
                target: C2Target::Fixed(target),
                port: 80,
                payload: b"PING-CHECK".to_vec(),
            }],
        };
        let sandbox = Sandbox::new(Ipv4Addr::new(10, 99, 0, 3), Ipv4Addr::new(9, 9, 9, 9));
        let ids = IdsEngine::standard_ruleset();
        let report = sandbox.run(&mut net, &ids, &sample);
        assert!(report.alert_dst_ips(Severity::Medium).is_empty());
        assert!(!report.alerts.is_empty());
    }

    #[test]
    fn missing_resolution_skips_connect() {
        let mut net = Network::new(11);
        let sample = MalwareSample {
            name: "lost.1".into(),
            family: "x".into(),
            ops: vec![
                // NS does not exist: resolution fails
                MalwareOp::ResolveDirect {
                    ns: Ipv4Addr::new(1, 2, 3, 4),
                    domain: n("a.com"),
                    rtype: RecordType::A,
                },
                MalwareOp::Connect {
                    target: C2Target::FromLastResolution,
                    port: 80,
                    payload: b"TRJ-BEACON".to_vec(),
                },
            ],
        };
        let sandbox = Sandbox::new(Ipv4Addr::new(10, 99, 0, 4), Ipv4Addr::new(9, 9, 9, 9));
        let ids = IdsEngine::standard_ruleset();
        let report = sandbox.run(&mut net, &ids, &sample);
        assert!(report.contacted_ips.is_empty());
        assert!(report.alerts.is_empty());
    }
}
