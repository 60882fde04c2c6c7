//! The metadata database: AS routing table, geolocation, TLS certificates
//! and HTTP profiles, keyed by IPv4 address.
//!
//! This is the simulation's stand-in for MaxMind GeoIP, certificate scans
//! and HTTP crawls — the auxiliary data URHunter's Appendix-B uniformity
//! conditions consume.

use crate::cidr::Cidr;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Autonomous-system information for a routed prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsInfo {
    /// AS number.
    pub asn: u32,
    /// Organization operating the AS.
    pub(crate) org: String,
}

/// Geolocation of an address (country granularity plus a city id, which is
/// all the uniformity conditions need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeoInfo {
    /// ISO-3166-style country code packed as two ASCII bytes.
    pub country: [u8; 2],
    /// Opaque city identifier within the country.
    pub city: u16,
}

impl GeoInfo {
    /// Build from a 2-letter country code.
    ///
    /// # Panics
    /// Panics if `country` is not exactly two ASCII characters.
    pub fn new(country: &str, city: u16) -> Self {
        let b = country.as_bytes();
        assert!(b.len() == 2, "country code must be two chars: {country:?}");
        GeoInfo {
            country: [b[0], b[1]],
            city,
        }
    }

    /// The country code as a `&str`.
    pub fn country_str(&self) -> &str {
        std::str::from_utf8(&self.country).unwrap_or("??")
    }
}

impl fmt::Display for GeoInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.country_str(), self.city)
    }
}

/// TLS certificate summary served by a host.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CertInfo {
    /// Subject common name.
    pub(crate) subject: String,
    /// Issuing CA, interned: the world has a handful of CAs shared by
    /// every certificate, so each cert carries a 4-byte symbol instead of
    /// its own heap copy of the CA name.
    pub(crate) issuer: intern::Sym,
    /// Subject alternative names.
    pub(crate) sans: Vec<String>,
    /// Stable fingerprint for equality grouping.
    pub fingerprint: u64,
}

impl CertInfo {
    /// A certificate for `domain` issued by `issuer`, fingerprinted
    /// deterministically from both.
    pub fn for_domain(domain: &str, issuer: &str) -> Self {
        let mut fp: u64 = 0xcbf29ce484222325;
        for b in domain.bytes().chain(issuer.bytes()) {
            fp ^= b as u64;
            fp = fp.wrapping_mul(0x100000001b3);
        }
        CertInfo {
            subject: domain.to_string(),
            issuer: intern::Sym::intern(issuer),
            sans: vec![domain.to_string(), format!("*.{domain}")],
            fingerprint: fp,
        }
    }
}

/// What kind of page a host serves — the signal URHunter's HTTP-keyword
/// exclusion uses to discard parked and redirect pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// An ordinary content page.
    Normal,
    /// A domain-parking page ("this domain is parked").
    Parking,
    /// A redirect to elsewhere.
    Redirect,
    /// A hosting provider's warning page for unconfigured domains.
    ProviderWarning,
    /// No HTTP service at all.
    Closed,
}

/// HTTP response profile of a host.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HttpProfile {
    /// Response status code.
    pub(crate) status: u16,
    /// Page title.
    pub(crate) title: String,
    /// Salient body keywords (the crawler's distillation).
    pub(crate) keywords: Vec<String>,
    /// Classified page kind.
    pub(crate) kind: PageKind,
}

impl HttpProfile {
    /// A normal content page.
    pub fn normal(title: &str) -> Self {
        HttpProfile {
            status: 200,
            title: title.to_string(),
            keywords: vec!["content".into()],
            kind: PageKind::Normal,
        }
    }

    /// A parking page with the canonical keywords.
    pub fn parking() -> Self {
        HttpProfile {
            status: 200,
            title: "Domain parked".to_string(),
            keywords: vec!["parking".into(), "parked".into(), "domain for sale".into()],
            kind: PageKind::Parking,
        }
    }

    /// A redirect page.
    pub fn redirect(to: &str) -> Self {
        HttpProfile {
            status: 302,
            title: format!("Redirecting to {to}"),
            keywords: vec!["redirecting".into()],
            kind: PageKind::Redirect,
        }
    }

    /// A provider warning page for unconfigured/undelegated domains.
    pub fn provider_warning(provider: &str) -> Self {
        HttpProfile {
            status: 200,
            title: format!("{provider}: domain not configured"),
            keywords: vec![
                "warning".into(),
                "not configured".into(),
                provider.to_lowercase(),
            ],
            kind: PageKind::ProviderWarning,
        }
    }
}

/// Everything known about one address.
#[derive(Debug, Clone, PartialEq)]
pub struct IpInfo {
    /// AS info from longest-prefix match, if routed.
    pub asn: Option<AsInfo>,
    /// Geolocation, if known.
    pub geo: Option<GeoInfo>,
    /// TLS certificate served, if any.
    pub cert: Option<CertInfo>,
    /// HTTP profile, if any.
    pub http: Option<HttpProfile>,
}

/// The combined metadata database.
///
/// Prefix-to-AS mappings use longest-prefix match; per-IP attributes are
/// exact. All mutation happens at world-generation time; the measurement
/// pipeline only reads.
#[derive(Debug, Default)]
pub struct NetDb {
    // prefixes bucketed by length for longest-prefix match
    prefixes: HashMap<u8, HashMap<Cidr, AsInfo>>,
    // the bucket lengths that actually exist, sorted descending, so lookups
    // probe only populated lengths instead of all 33
    present_lens: Vec<u8>,
    geo: HashMap<Ipv4Addr, GeoInfo>,
    certs: HashMap<Ipv4Addr, CertInfo>,
    http: HashMap<Ipv4Addr, HttpProfile>,
}

impl NetDb {
    /// An empty database.
    pub fn new() -> Self {
        NetDb::default()
    }

    /// Route `prefix` to an AS. Later insertions overwrite.
    pub fn add_prefix(&mut self, prefix: Cidr, asn: u32, org: &str) {
        let len = prefix.len();
        self.prefixes.entry(len).or_default().insert(
            prefix,
            AsInfo {
                asn,
                org: org.to_string(),
            },
        );
        if let Err(pos) = self.present_lens.binary_search_by(|l| len.cmp(l)) {
            self.present_lens.insert(pos, len);
        }
    }

    /// Longest-prefix-match AS lookup, probing only the prefix lengths
    /// present in the table (a handful in practice) from longest to
    /// shortest.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<&AsInfo> {
        let host = Cidr::new(ip, 32);
        for &len in &self.present_lens {
            let bucket = self
                .prefixes
                .get(&len)
                .expect("present length has a bucket");
            if let Some(info) = bucket.get(&host.truncate(len)) {
                return Some(info);
            }
        }
        None
    }

    /// Set geolocation for one address.
    pub fn set_geo(&mut self, ip: Ipv4Addr, geo: GeoInfo) {
        self.geo.insert(ip, geo);
    }

    /// Geolocation lookup.
    pub fn geo_of(&self, ip: Ipv4Addr) -> Option<GeoInfo> {
        self.geo.get(&ip).copied()
    }

    /// Set the TLS certificate served by an address.
    pub fn set_cert(&mut self, ip: Ipv4Addr, cert: CertInfo) {
        self.certs.insert(ip, cert);
    }

    /// Certificate lookup.
    pub fn cert_of(&self, ip: Ipv4Addr) -> Option<&CertInfo> {
        self.certs.get(&ip)
    }

    /// Set the HTTP profile served by an address.
    pub fn set_http(&mut self, ip: Ipv4Addr, profile: HttpProfile) {
        self.http.insert(ip, profile);
    }

    /// HTTP profile lookup.
    pub(crate) fn http_of(&self, ip: Ipv4Addr) -> Option<&HttpProfile> {
        self.http.get(&ip)
    }

    /// Combined lookup of all attributes.
    pub fn lookup(&self, ip: Ipv4Addr) -> IpInfo {
        IpInfo {
            asn: self.asn_of(ip).cloned(),
            geo: self.geo_of(ip),
            cert: self.cert_of(ip).cloned(),
            http: self.http_of(ip).cloned(),
        }
    }
}

/// The classification-relevant attributes of one address, resolved once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpAttrs {
    /// AS number from longest-prefix match, if routed.
    pub asn: Option<u32>,
    /// Geolocation, if known.
    pub geo: Option<GeoInfo>,
    /// Served-certificate fingerprint, if any.
    pub cert_fp: Option<u64>,
    /// HTTP page kind, if the host serves HTTP.
    pub http_kind: Option<PageKind>,
}

/// A per-distinct-IP attribute table filled as classification proceeds.
///
/// The Appendix-B uniformity conditions consult ASN, geo, certificate and
/// HTTP data for every address of every UR. The same addresses recur across
/// thousands of URs (shared C2s, CDN nodes, protective sinks), so the
/// pipeline resolves each distinct address exactly once instead of
/// re-running longest-prefix matches and map probes per UR.
#[derive(Debug, Default, Clone)]
pub struct AttrIndex {
    map: HashMap<Ipv4Addr, IpAttrs>,
}

impl AttrIndex {
    /// Resolve one address directly (the slow path the index amortizes).
    pub fn resolve(db: &NetDb, ip: Ipv4Addr) -> IpAttrs {
        IpAttrs {
            asn: db.asn_of(ip).map(|a| a.asn),
            geo: db.geo_of(ip),
            cert_fp: db.cert_of(ip).map(|c| c.fingerprint),
            http_kind: db.http_of(ip).map(|h| h.kind),
        }
    }

    /// Absorb already-resolved pairs into the index (each arriving batch
    /// contributes its distinct new addresses). First resolution wins;
    /// duplicates are ignored, which is sound because resolution is a pure
    /// function of the database.
    pub fn absorb(&mut self, pairs: impl IntoIterator<Item = (Ipv4Addr, IpAttrs)>) {
        for (ip, attrs) in pairs {
            self.map.entry(ip).or_insert(attrs);
        }
    }

    /// Whether `ip` is already resolved in this index.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        self.map.contains_key(&ip)
    }

    /// Attributes of `ip`, falling back to a direct resolve when the index
    /// has not absorbed it.
    pub fn get_or_resolve(&self, db: &NetDb, ip: Ipv4Addr) -> IpAttrs {
        self.map
            .get(&ip)
            .copied()
            .unwrap_or_else(|| Self::resolve(db, ip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_match_wins() {
        let mut db = NetDb::new();
        db.add_prefix("10.0.0.0/8".parse().unwrap(), 100, "Big");
        db.add_prefix("10.1.0.0/16".parse().unwrap(), 200, "Mid");
        db.add_prefix("10.1.2.0/24".parse().unwrap(), 300, "Small");
        assert_eq!(db.asn_of(ip("10.1.2.3")).unwrap().asn, 300);
        assert_eq!(db.asn_of(ip("10.1.9.9")).unwrap().asn, 200);
        assert_eq!(db.asn_of(ip("10.9.9.9")).unwrap().asn, 100);
        assert!(db.asn_of(ip("11.0.0.1")).is_none());
        assert_eq!(db.prefixes.values().map(HashMap::len).sum::<usize>(), 3);
    }

    #[test]
    fn geo_roundtrip() {
        let mut db = NetDb::new();
        db.set_geo(ip("192.0.2.1"), GeoInfo::new("US", 7));
        assert_eq!(db.geo_of(ip("192.0.2.1")).unwrap().country_str(), "US");
        assert!(db.geo_of(ip("192.0.2.2")).is_none());
    }

    #[test]
    fn cert_fingerprint_is_deterministic() {
        let a = CertInfo::for_domain("example.com", "SimCA");
        let b = CertInfo::for_domain("example.com", "SimCA");
        let c = CertInfo::for_domain("example.org", "SimCA");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn attr_index_matches_direct_lookups() {
        let mut db = NetDb::new();
        let a = ip("203.0.113.5");
        let b = ip("203.0.113.6");
        db.add_prefix("203.0.113.0/24".parse().unwrap(), 64500, "TestNet");
        db.set_geo(a, GeoInfo::new("DE", 1));
        db.set_cert(a, CertInfo::for_domain("example.de", "SimCA"));
        db.set_http(b, HttpProfile::parking());
        let mut idx = AttrIndex::default();
        idx.absorb([a, b, a, ip("8.8.8.8")].map(|ip| (ip, AttrIndex::resolve(&db, ip))));
        assert_eq!(idx.map.len(), 3, "duplicates collapse");
        assert!(idx.contains(a) && idx.contains(b) && idx.contains(ip("8.8.8.8")));
        let got = idx.get_or_resolve(&db, a);
        assert_eq!(got.asn, Some(64500));
        assert_eq!(got.geo, db.geo_of(a));
        assert_eq!(got.cert_fp, db.cert_of(a).map(|c| c.fingerprint));
        assert_eq!(got.http_kind, None);
        assert_eq!(
            idx.get_or_resolve(&db, b).http_kind,
            Some(PageKind::Parking)
        );
        let missing = idx.get_or_resolve(&db, ip("8.8.8.8"));
        assert_eq!(
            missing,
            IpAttrs {
                asn: None,
                geo: None,
                cert_fp: None,
                http_kind: None
            }
        );
        // fall-back resolve for an address the index never absorbed
        let c = ip("203.0.113.7");
        assert!(!idx.contains(c));
        assert_eq!(idx.get_or_resolve(&db, c).asn, Some(64500));
    }

    #[test]
    fn http_profiles_have_expected_keywords() {
        assert!(HttpProfile::parking()
            .keywords
            .iter()
            .any(|k| k == "parked"));
        assert_eq!(HttpProfile::redirect("https://x").status, 302);
        let w = HttpProfile::provider_warning("CloudEx");
        assert_eq!(w.kind, PageKind::ProviderWarning);
        assert!(w.keywords.iter().any(|k| k == "cloudex"));
    }

    #[test]
    fn combined_lookup() {
        let mut db = NetDb::new();
        let a = ip("203.0.113.5");
        db.add_prefix("203.0.113.0/24".parse().unwrap(), 64500, "TestNet");
        db.set_geo(a, GeoInfo::new("DE", 1));
        db.set_cert(a, CertInfo::for_domain("example.de", "SimCA"));
        db.set_http(a, HttpProfile::normal("Startseite"));
        let info = db.lookup(a);
        assert_eq!(info.asn.unwrap().asn, 64500);
        assert_eq!(info.geo.unwrap().country_str(), "DE");
        assert_eq!(info.cert, Some(CertInfo::for_domain("example.de", "SimCA")));
        assert_eq!(info.http.unwrap().kind, PageKind::Normal);
        let empty = db.lookup(ip("8.8.8.8"));
        assert!(empty.asn.is_none() && empty.geo.is_none());
    }

    #[test]
    #[should_panic(expected = "country code")]
    fn bad_country_code_panics() {
        GeoInfo::new("USA", 1);
    }
}
