//! The metadata database: AS routing table, geolocation, TLS certificates
//! and HTTP profiles, keyed by IPv4 address.
//!
//! This is the simulation's stand-in for MaxMind GeoIP, certificate scans
//! and HTTP crawls — the auxiliary data URHunter's Appendix-B uniformity
//! conditions consume.

use crate::cidr::Cidr;
use fxhash::FxHashMap;
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
    prefixes: FxHashMap<u8, FxHashMap<Cidr, AsInfo>>,
    // the bucket lengths that actually exist, sorted descending, so lookups
    // probe only populated lengths instead of all 33
    present_lens: Vec<u8>,
    geo: FxHashMap<Ipv4Addr, GeoInfo>,
    certs: FxHashMap<Ipv4Addr, CertInfo>,
    http: FxHashMap<Ipv4Addr, HttpProfile>,
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

    /// Kind of page the address serves, if it serves HTTP at all (the
    /// parking/redirect exclusion's input).
    pub fn page_kind_of(&self, ip: Ipv4Addr) -> Option<PageKind> {
        self.http.get(&ip).map(|h| h.kind)
    }

    /// Combined lookup of all attributes.
    pub fn lookup(&self, ip: Ipv4Addr) -> IpInfo {
        IpInfo {
            asn: self.asn_of(ip).cloned(),
            geo: self.geo_of(ip),
            cert: self.cert_of(ip).cloned(),
            http: self.http.get(&ip).cloned(),
        }
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
        assert_eq!(db.prefixes.values().map(FxHashMap::len).sum::<usize>(), 3);
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
        assert_eq!(db.page_kind_of(a), Some(PageKind::Normal));
        let b = ip("203.0.113.6");
        db.set_http(b, HttpProfile::parking());
        assert_eq!(db.page_kind_of(b), Some(PageKind::Parking));
        assert_eq!(
            db.asn_of(b).unwrap().asn,
            64500,
            "routed without geo or cert"
        );
        assert!(db.geo_of(b).is_none() && db.cert_of(b).is_none());
        let unknown = ip("8.8.8.8");
        assert_eq!(
            db.lookup(unknown),
            IpInfo {
                asn: None,
                geo: None,
                cert: None,
                http: None
            }
        );
        assert_eq!(db.page_kind_of(unknown), None);
    }

    #[test]
    #[should_panic(expected = "country code")]
    fn bad_country_code_panics() {
        GeoInfo::new("USA", 1);
    }
}
