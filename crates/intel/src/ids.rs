//! A Snort/Suricata-style rule-matching IDS over captured flows.
//!
//! The paper marks an IP malicious when "IDS (Snort or Suricata) detects
//! malicious traffic toward the IP address in a malware sandbox evaluation",
//! keeping only alerts "with a severity level of at least medium, excluding
//! cases where malware only checks network connectivity" (§4.3). This
//! engine reproduces that contract: rules match flow metadata and payload
//! content, produce categorized alerts with severities, and the analysis
//! layer filters on severity.

use simnet::{Disposition, Endpoint, FlowRecord, Proto, SimTime};
use std::collections::HashSet;
use std::fmt;
use std::net::Ipv4Addr;

/// Alert classification, mirroring Fig. 3(c)'s vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertCategory {
    /// "A Network Trojan was detected"-style rules.
    TrojanActivity,
    /// Command-and-control channel traffic.
    CncActivity,
    /// Information leaks / spyware beacons.
    PrivacyViolation,
    /// Known-bad traffic patterns.
    BadTraffic,
    /// Everything else (policy, scan probes, misc).
    Other,
}

impl fmt::Display for AlertCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertCategory::TrojanActivity => write!(f, "Trojan Activity"),
            AlertCategory::CncActivity => write!(f, "C&C Activity"),
            AlertCategory::PrivacyViolation => write!(f, "Privacy Violation"),
            AlertCategory::BadTraffic => write!(f, "Bad Traffic"),
            AlertCategory::Other => write!(f, "Other"),
        }
    }
}

/// Alert severity. The paper's analysis keeps `>= Medium`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (connectivity checks land here).
    Low,
    /// Default actionable severity.
    Medium,
    /// Confirmed-hostile traffic.
    High,
}

/// A detection rule.
#[derive(Debug, Clone)]
pub(crate) struct Rule {
    /// Snort-style rule id.
    pub(crate) sid: u32,
    /// Human-readable message.
    pub(crate) msg: String,
    /// Category assigned to alerts from this rule.
    pub(crate) category: AlertCategory,
    /// Severity assigned to alerts from this rule.
    pub(crate) severity: Severity,
    /// Restrict to one transport protocol.
    pub(crate) proto: Option<Proto>,
    /// Restrict to one destination port.
    pub(crate) dst_port: Option<u16>,
    /// Payload content that must appear (byte substring).
    pub(crate) content: Option<Vec<u8>>,
    /// Restrict to specific destination addresses (threat-feed-driven rules).
    pub(crate) dst_ips: Option<HashSet<Ipv4Addr>>,
}

impl Rule {
    /// A content-match rule.
    pub(crate) fn content_rule(
        sid: u32,
        msg: &str,
        category: AlertCategory,
        severity: Severity,
        content: &[u8],
    ) -> Self {
        Rule {
            sid,
            msg: msg.to_string(),
            category,
            severity,
            proto: None,
            dst_port: None,
            content: Some(content.to_vec()),
            dst_ips: None,
        }
    }

    /// Restrict the rule to a destination port.
    pub(crate) fn on_port(mut self, port: u16) -> Self {
        self.dst_port = Some(port);
        self
    }

    /// Does this rule fire on `flow`?
    pub(crate) fn matches(&self, flow: &FlowRecord) -> bool {
        if flow.disposition == Disposition::Dropped {
            return false; // dropped packets never reached a sensor
        }
        if let Some(p) = self.proto {
            if flow.proto != p {
                return false;
            }
        }
        if let Some(port) = self.dst_port {
            if flow.dst.port != port {
                return false;
            }
        }
        if let Some(ips) = &self.dst_ips {
            if !ips.contains(&flow.dst.ip) {
                return false;
            }
        }
        if let Some(content) = &self.content {
            if !contains_subslice(&flow.payload, content) {
                return false;
            }
        }
        true
    }
}

fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Rule id that fired.
    pub(crate) sid: u32,
    /// Rule message.
    pub msg: String,
    /// Category.
    pub category: AlertCategory,
    /// Severity.
    pub severity: Severity,
    /// Flow source.
    pub(crate) src: Endpoint,
    /// Flow destination (the "malicious traffic toward" address).
    pub dst: Endpoint,
    /// When the matching flow was captured.
    pub(crate) at: SimTime,
}

/// A stateful threshold rule: fires when one source contacts one
/// destination host on at least `min_distinct_ports` different ports
/// within `window` — the classic port-scan signature that no single-packet
/// content rule can express.
#[derive(Debug, Clone)]
pub(crate) struct ThresholdRule {
    /// Rule id.
    pub(crate) sid: u32,
    /// Alert message.
    pub(crate) msg: String,
    /// Category assigned (scans land in `Other`, like Snort's sid 1:2000545).
    pub(crate) category: AlertCategory,
    /// Severity assigned.
    pub(crate) severity: Severity,
    /// Distinct destination ports required.
    pub(crate) min_distinct_ports: usize,
    /// Time window in microseconds.
    pub(crate) window_us: u64,
}

/// The rule engine.
#[derive(Debug, Default)]
pub struct IdsEngine {
    rules: Vec<Rule>,
    threshold_rules: Vec<ThresholdRule>,
}

impl IdsEngine {
    /// An engine with no rules.
    pub(crate) fn new() -> Self {
        IdsEngine::default()
    }

    /// Add a rule.
    pub(crate) fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Add a stateful threshold rule.
    pub(crate) fn add_threshold_rule(&mut self, rule: ThresholdRule) {
        self.threshold_rules.push(rule);
    }

    /// Scan flows; every (rule, flow) match yields one alert, and each
    /// threshold rule fires at most once per (src-host, dst-host) pair.
    pub fn scan(&self, flows: &[FlowRecord]) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for flow in flows {
            for rule in &self.rules {
                if rule.matches(flow) {
                    alerts.push(Alert {
                        sid: rule.sid,
                        msg: rule.msg.clone(),
                        category: rule.category,
                        severity: rule.severity,
                        src: flow.src,
                        dst: flow.dst,
                        at: flow.at,
                    });
                }
            }
        }
        // Stateful pass: per (src ip, dst ip), collect (timestamp, port)
        // sequences and slide the window.
        type PairEvents = Vec<(u64, u16, Endpoint, Endpoint)>;
        for rule in &self.threshold_rules {
            let mut by_pair: std::collections::HashMap<(Ipv4Addr, Ipv4Addr), PairEvents> =
                std::collections::HashMap::new();
            for flow in flows {
                if flow.disposition == Disposition::Dropped {
                    continue;
                }
                by_pair
                    .entry((flow.src.ip, flow.dst.ip))
                    .or_default()
                    .push((flow.at.as_micros(), flow.dst.port, flow.src, flow.dst));
            }
            for events in by_pair.values_mut() {
                events.sort_unstable_by_key(|e| e.0);
                'window: for start in 0..events.len() {
                    let mut ports = std::collections::HashSet::new();
                    for e in &events[start..] {
                        if e.0 - events[start].0 > rule.window_us {
                            break;
                        }
                        ports.insert(e.1);
                        if ports.len() >= rule.min_distinct_ports {
                            alerts.push(Alert {
                                sid: rule.sid,
                                msg: rule.msg.clone(),
                                category: rule.category,
                                severity: rule.severity,
                                src: e.2,
                                dst: e.3,
                                at: simnet::SimTime(e.0),
                            });
                            break 'window; // once per pair
                        }
                    }
                }
            }
        }
        alerts
    }

    /// The default ruleset covering the malware-family behaviours modeled in
    /// this workspace (markers the [`crate::malware`] builders emit).
    pub fn standard_ruleset() -> Self {
        let mut ids = IdsEngine::new();
        ids.add_rule(Rule::content_rule(
            2_000_001,
            "ET TROJAN Dark.IoT bot check-in",
            AlertCategory::TrojanActivity,
            Severity::High,
            b"DARKIOT-BOT",
        ));
        ids.add_rule(Rule::content_rule(
            2_000_002,
            "ET TROJAN Specter RAT hello",
            AlertCategory::TrojanActivity,
            Severity::High,
            b"SPECTER-RAT",
        ));
        ids.add_rule(Rule::content_rule(
            2_000_003,
            "ET MALWARE generic trojan beacon",
            AlertCategory::TrojanActivity,
            Severity::Medium,
            b"TRJ-BEACON",
        ));
        ids.add_rule(Rule::content_rule(
            2_000_004,
            "ET CNC command poll",
            AlertCategory::CncActivity,
            Severity::High,
            b"C2-POLL",
        ));
        ids.add_rule(
            Rule::content_rule(
                2_000_005,
                "ET POLICY SMTP covert-channel exfiltration",
                AlertCategory::CncActivity,
                Severity::High,
                b"EHLO exfil",
            )
            .on_port(25),
        );
        ids.add_rule(Rule::content_rule(
            2_000_006,
            "ET SPYWARE credential post",
            AlertCategory::PrivacyViolation,
            Severity::Medium,
            b"CRED-POST",
        ));
        ids.add_rule(Rule::content_rule(
            2_000_007,
            "ET SCAN reconnaissance probe",
            AlertCategory::Other,
            Severity::Medium,
            b"SCAN-PROBE",
        ));
        ids.add_rule(Rule::content_rule(
            2_000_008,
            "ET BAD-TRAFFIC malformed session",
            AlertCategory::BadTraffic,
            Severity::Medium,
            b"BAD-SESSION",
        ));
        ids.add_rule(Rule::content_rule(
            2_000_009,
            "ET POLICY connectivity check",
            AlertCategory::Other,
            Severity::Low,
            b"PING-CHECK",
        ));
        ids.add_rule(Rule::content_rule(
            2_000_010,
            "ET MALWARE dropper fetch",
            AlertCategory::Other,
            Severity::Medium,
            b"GET /drop.bin",
        ));
        ids.add_threshold_rule(ThresholdRule {
            sid: 2_000_545,
            msg: "ET SCAN port sweep (threshold)".to_string(),
            category: AlertCategory::Other,
            severity: Severity::Medium,
            min_distinct_ports: 3,
            window_us: 60_000_000,
        });
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Datagram;

    fn flow(payload: &[u8], port: u16, proto: Proto) -> FlowRecord {
        let d = Datagram {
            src: Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40000),
            dst: Endpoint::new(Ipv4Addr::new(66, 66, 66, 1), port),
            proto,
            payload: payload.to_vec(),
        };
        FlowRecord {
            at: SimTime(1),
            src: d.src,
            dst: d.dst,
            proto: d.proto,
            len: d.payload.len(),
            payload: d.payload,
            disposition: Disposition::Delivered,
        }
    }

    #[test]
    fn content_rule_fires_on_substring() {
        let ids = IdsEngine::standard_ruleset();
        let alerts = ids.scan(&[flow(b"xxDARKIOT-BOTyy", 48101, Proto::Tcp)]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].category, AlertCategory::TrojanActivity);
        assert_eq!(alerts[0].severity, Severity::High);
    }

    #[test]
    fn port_scoped_rule() {
        let ids = IdsEngine::standard_ruleset();
        // SMTP covert marker on the wrong port: no alert
        assert!(ids
            .scan(&[flow(b"EHLO exfil AAAA", 80, Proto::Tcp)])
            .is_empty());
        let alerts = ids.scan(&[flow(b"EHLO exfil AAAA", 25, Proto::Tcp)]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].category, AlertCategory::CncActivity);
    }

    #[test]
    fn dropped_flows_never_alert() {
        let ids = IdsEngine::standard_ruleset();
        let mut f = flow(b"DARKIOT-BOT", 1, Proto::Tcp);
        f.disposition = Disposition::Dropped;
        assert!(ids.scan(&[f]).is_empty());
    }

    #[test]
    fn connectivity_check_is_low_severity() {
        let ids = IdsEngine::standard_ruleset();
        let alerts = ids.scan(&[flow(b"PING-CHECK", 80, Proto::Tcp)]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].severity, Severity::Low);
        assert!(alerts[0].severity < Severity::Medium);
    }

    #[test]
    fn dst_ip_scoped_rule() {
        let mut ids = IdsEngine::new();
        let mut rule = Rule::content_rule(
            1,
            "feed hit",
            AlertCategory::BadTraffic,
            Severity::Medium,
            b"",
        );
        rule.content = None;
        rule.dst_ips = Some([Ipv4Addr::new(66, 66, 66, 1)].into_iter().collect());
        ids.add_rule(rule);
        assert_eq!(ids.scan(&[flow(b"anything", 443, Proto::Tcp)]).len(), 1);
        let mut other = flow(b"anything", 443, Proto::Tcp);
        other.dst.ip = Ipv4Addr::new(9, 9, 9, 9);
        assert!(ids.scan(&[other]).is_empty());
    }

    #[test]
    fn multiple_rules_can_fire_per_flow() {
        let ids = IdsEngine::standard_ruleset();
        let alerts = ids.scan(&[flow(b"TRJ-BEACON C2-POLL", 443, Proto::Tcp)]);
        assert_eq!(alerts.len(), 2);
    }

    #[test]
    fn proto_scoped_rule() {
        let mut ids = IdsEngine::new();
        let mut rule =
            Rule::content_rule(5, "udp only", AlertCategory::Other, Severity::Medium, b"X");
        rule.proto = Some(Proto::Udp);
        ids.add_rule(rule);
        assert!(ids.scan(&[flow(b"X", 1, Proto::Tcp)]).is_empty());
        assert_eq!(ids.scan(&[flow(b"X", 1, Proto::Udp)]).len(), 1);
    }

    #[test]
    fn threshold_rule_detects_port_sweep() {
        let ids = IdsEngine::standard_ruleset();
        // three benign-looking payloads to three ports within a minute
        let flows: Vec<FlowRecord> = (0..3u16)
            .map(|i| {
                let mut f = flow(b"hello", 1000 + i, Proto::Tcp);
                f.at = SimTime(i as u64 * 1_000_000);
                f
            })
            .collect();
        let alerts = ids.scan(&flows);
        assert_eq!(alerts.iter().filter(|a| a.sid == 2_000_545).count(), 1);
    }

    #[test]
    fn threshold_rule_ignores_slow_or_narrow_traffic() {
        let ids = IdsEngine::standard_ruleset();
        // same port repeatedly: no sweep
        let same_port: Vec<FlowRecord> = (0..5)
            .map(|i| {
                let mut f = flow(b"x", 80, Proto::Tcp);
                f.at = SimTime(i as u64);
                f
            })
            .collect();
        assert!(ids.scan(&same_port).iter().all(|a| a.sid != 2_000_545));
        // three ports but spread over ten minutes: no sweep
        let slow: Vec<FlowRecord> = (0..3u16)
            .map(|i| {
                let mut f = flow(b"x", 1000 + i, Proto::Tcp);
                f.at = SimTime(i as u64 * 300_000_000);
                f
            })
            .collect();
        assert!(ids.scan(&slow).iter().all(|a| a.sid != 2_000_545));
    }

    #[test]
    fn severity_ordering_supports_threshold_filter() {
        assert!(Severity::High >= Severity::Medium);
        assert!(Severity::Low < Severity::Medium);
    }
}
