//! Threat-intelligence feeds: per-vendor IP blacklists with tags, and a
//! VirusTotal-style aggregator.
//!
//! The paper consumes VirusTotal, QAX ALPHA and 360 TI feeds (§4.3) and
//! reports how many of up to 11 vendors flag each IP (Fig. 3b) and which
//! tags they attach (Fig. 3d). Those feeds are proprietary; here the world
//! generator plants flags derived from the ground-truth attacker
//! infrastructure, with realistic coverage gaps per vendor.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

/// Tags a vendor may attach to a malicious IP (Fig. 3d vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreatTag {
    /// Trojan infrastructure.
    Trojan,
    /// Scanning / reconnaissance source.
    Scanner,
    /// Generic malware distribution.
    Malware,
    /// Command-and-control endpoint.
    CnC,
    /// Botnet membership.
    Botnet,
    /// Anything else.
    Other,
}

impl fmt::Display for ThreatTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreatTag::Trojan => write!(f, "Trojan"),
            ThreatTag::Scanner => write!(f, "Scanner"),
            ThreatTag::Malware => write!(f, "Malware"),
            ThreatTag::CnC => write!(f, "C&C"),
            ThreatTag::Botnet => write!(f, "Botnet"),
            ThreatTag::Other => write!(f, "Other"),
        }
    }
}

/// One security vendor's real-time blacklist.
#[derive(Debug, Clone, Default)]
pub struct VendorFeed {
    /// Vendor display name.
    pub(crate) name: String,
    flagged: HashMap<Ipv4Addr, BTreeSet<ThreatTag>>,
}

impl VendorFeed {
    /// An empty feed for a named vendor.
    pub fn new(name: &str) -> Self {
        VendorFeed {
            name: name.to_string(),
            flagged: HashMap::new(),
        }
    }

    /// Flag an IP with a tag (idempotent; tags accumulate).
    pub fn flag(&mut self, ip: Ipv4Addr, tag: ThreatTag) {
        self.flagged.entry(ip).or_default().insert(tag);
    }

    /// Does this vendor flag the IP?
    pub(crate) fn is_flagged(&self, ip: Ipv4Addr) -> bool {
        self.flagged.contains_key(&ip)
    }

    /// Tags this vendor attached to the IP.
    pub(crate) fn tags(&self, ip: Ipv4Addr) -> BTreeSet<ThreatTag> {
        self.flagged.get(&ip).cloned().unwrap_or_default()
    }
}

/// Multi-vendor aggregation — the "flagged by N of 74 vendors" view.
#[derive(Debug, Default)]
pub struct IntelAggregator {
    vendors: Vec<VendorFeed>,
}

impl IntelAggregator {
    /// An aggregator over no vendors.
    pub fn new() -> Self {
        IntelAggregator::default()
    }

    /// Add a vendor feed.
    pub fn add_vendor(&mut self, feed: VendorFeed) {
        self.vendors.push(feed);
    }

    /// Number of vendors aggregated.
    pub fn vendor_count(&self) -> usize {
        self.vendors.len()
    }

    /// Mutable access to a vendor feed by name (world-generation helper).
    pub fn vendor_mut(&mut self, name: &str) -> Option<&mut VendorFeed> {
        self.vendors.iter_mut().find(|v| v.name == name)
    }

    /// Mutable access to every feed (world-evolution helper).
    pub fn vendors_mut(&mut self) -> &mut [VendorFeed] {
        &mut self.vendors
    }

    /// How many vendors flag this IP.
    pub fn flag_count(&self, ip: Ipv4Addr) -> usize {
        self.vendors.iter().filter(|v| v.is_flagged(ip)).count()
    }

    /// Is the IP flagged by at least one vendor?
    pub fn is_malicious(&self, ip: Ipv4Addr) -> bool {
        self.flag_count(ip) > 0
    }

    /// Union of tags across vendors.
    pub fn tags(&self, ip: Ipv4Addr) -> BTreeSet<ThreatTag> {
        let mut out = BTreeSet::new();
        for v in &self.vendors {
            out.extend(v.tags(ip));
        }
        out
    }

    /// Histogram of flag counts over a set of IPs, bucketed like Fig. 3(b):
    /// `1-2`, `3-4`, `5-6`, `7+`. IPs flagged by zero vendors are skipped.
    pub fn flag_count_histogram<'a>(
        &self,
        ips: impl Iterator<Item = &'a Ipv4Addr>,
    ) -> BTreeMap<&'static str, usize> {
        let mut hist: BTreeMap<&'static str, usize> = BTreeMap::new();
        for &ip in ips {
            let c = self.flag_count(ip);
            let bucket = match c {
                0 => continue,
                1..=2 => "1-2",
                3..=4 => "3-4",
                5..=6 => "5-6",
                _ => "7+",
            };
            *hist.entry(bucket).or_insert(0) += 1;
        }
        hist
    }

    /// Tag prevalence over a set of IPs: for each tag, how many of the IPs
    /// carry it (an IP may carry several — Fig. 3d sums past 100%).
    pub fn tag_prevalence<'a>(
        &self,
        ips: impl Iterator<Item = &'a Ipv4Addr>,
    ) -> BTreeMap<ThreatTag, usize> {
        let mut out = BTreeMap::new();
        for &ip in ips {
            for t in self.tags(ip) {
                *out.entry(t).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(6, 6, 6, last)
    }

    fn aggregator() -> IntelAggregator {
        let mut agg = IntelAggregator::new();
        for name in ["VT-A", "VT-B", "VT-C", "VT-D"] {
            agg.add_vendor(VendorFeed::new(name));
        }
        agg.vendor_mut("VT-A")
            .unwrap()
            .flag(ip(1), ThreatTag::Trojan);
        agg.vendor_mut("VT-B").unwrap().flag(ip(1), ThreatTag::CnC);
        agg.vendor_mut("VT-C")
            .unwrap()
            .flag(ip(1), ThreatTag::Trojan);
        agg.vendor_mut("VT-A")
            .unwrap()
            .flag(ip(2), ThreatTag::Scanner);
        agg
    }

    #[test]
    fn flag_counts() {
        let agg = aggregator();
        assert_eq!(agg.vendor_count(), 4);
        assert_eq!(agg.flag_count(ip(1)), 3);
        assert_eq!(agg.flag_count(ip(2)), 1);
        assert_eq!(agg.flag_count(ip(3)), 0);
        assert!(agg.is_malicious(ip(1)));
        assert!(!agg.is_malicious(ip(3)));
    }

    #[test]
    fn tags_union() {
        let agg = aggregator();
        let tags = agg.tags(ip(1));
        assert!(tags.contains(&ThreatTag::Trojan));
        assert!(tags.contains(&ThreatTag::CnC));
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn histogram_buckets() {
        let agg = aggregator();
        let ips = [ip(1), ip(2), ip(3)];
        let hist = agg.flag_count_histogram(ips.iter());
        assert_eq!(hist.get("1-2"), Some(&1)); // ip2
        assert_eq!(hist.get("3-4"), Some(&1)); // ip1
        assert_eq!(hist.get("5-6"), None);
        // ip3 unflagged: skipped entirely
        assert_eq!(hist.values().sum::<usize>(), 2);
    }

    #[test]
    fn tag_prevalence_counts_multi_tags() {
        let agg = aggregator();
        let ips = [ip(1), ip(2)];
        let prev = agg.tag_prevalence(ips.iter());
        assert_eq!(prev.get(&ThreatTag::Trojan), Some(&1));
        assert_eq!(prev.get(&ThreatTag::CnC), Some(&1));
        assert_eq!(prev.get(&ThreatTag::Scanner), Some(&1));
    }

    #[test]
    fn vendor_flag_idempotent() {
        let mut v = VendorFeed::new("X");
        v.flag(ip(9), ThreatTag::Botnet);
        v.flag(ip(9), ThreatTag::Botnet);
        assert_eq!(v.flagged.len(), 1);
        assert_eq!(v.tags(ip(9)).len(), 1);
    }

    #[test]
    fn display_tags() {
        assert_eq!(ThreatTag::CnC.to_string(), "C&C");
        assert_eq!(ThreatTag::Trojan.to_string(), "Trojan");
    }
}
