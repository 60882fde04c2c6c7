//! # netdb — synthetic internet metadata
//!
//! The URHunter paper enriches every undelegated A record with the IP's
//! autonomous system, geolocation, TLS certificate and HTTP response
//! (MaxMind + active scans). This crate is the deterministic, in-memory
//! equivalent: a routing table with longest-prefix match, per-address
//! geolocation, a certificate store and an HTTP-profile store.
//!
//! The world generator populates a [`NetDb`] when it lays out the synthetic
//! internet; the measurement pipeline then reads it exactly where the paper
//! consulted MaxMind and its crawlers (Appendix-B conditions 2–4 and the
//! parking/redirect keyword exclusion).
//!
//! ```
//! use netdb::{NetDb, GeoInfo, CertInfo, HttpProfile};
//!
//! let mut db = NetDb::new();
//! db.add_prefix("198.51.100.0/24".parse().unwrap(), 64501, "ExampleNet");
//! let ip = "198.51.100.10".parse().unwrap();
//! db.set_geo(ip, GeoInfo::new("NL", 3));
//! db.set_cert(ip, CertInfo::for_domain("shop.example", "SimCA"));
//! db.set_http(ip, HttpProfile::normal("Shop"));
//!
//! let info = db.lookup(ip);
//! assert_eq!(info.asn.unwrap().asn, 64501);
//! assert_eq!(info.geo.unwrap().country_str(), "NL");
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod cidr;
mod db;

pub use cidr::{Cidr, CidrParseError};
pub use db::{AsInfo, CertInfo, GeoInfo, HttpProfile, IpInfo, NetDb, PageKind};
