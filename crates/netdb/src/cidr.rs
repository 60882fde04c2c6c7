//! IPv4 CIDR prefixes with longest-prefix-match support.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix in CIDR notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cidr {
    masked: u32,
    len: u8,
}

/// Error parsing a CIDR string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CidrParseError(pub String);

impl fmt::Display for CidrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR: {}", self.0)
    }
}

impl std::error::Error for CidrParseError {}

impl Cidr {
    /// Build a prefix from an address and length; host bits are masked off.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Cidr {
            masked: u32::from(addr) & Self::mask(len),
            len,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.masked)
    }

    /// The prefix length.
    #[allow(clippy::len_without_is_empty)] // prefix length, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered (saturates for /0).
    pub(crate) fn size(&self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask(self.len) == self.masked
    }

    /// The `i`-th address in the prefix (wraps within the prefix).
    pub fn nth(&self, i: u64) -> Ipv4Addr {
        let offset = (i % self.size()) as u32;
        Ipv4Addr::from(self.masked | offset)
    }

    /// Supernet key used for longest-prefix tables: this prefix re-masked
    /// to `len` bits.
    pub fn truncate(&self, len: u8) -> Cidr {
        Cidr {
            masked: self.masked & Self::mask(len.min(self.len)),
            len: len.min(self.len),
        }
    }
}

impl FromStr for Cidr {
    type Err = CidrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| CidrParseError(s.into()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| CidrParseError(s.into()))?;
        let len: u8 = len.parse().map_err(|_| CidrParseError(s.into()))?;
        if len > 32 {
            return Err(CidrParseError(s.into()));
        }
        Ok(Cidr::new(addr, len))
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let c: Cidr = "192.0.2.0/24".parse().unwrap();
        assert_eq!(c.to_string(), "192.0.2.0/24");
        assert_eq!(c.len(), 24);
        assert_eq!(c.size(), 256);
    }

    #[test]
    fn host_bits_are_masked() {
        let c: Cidr = "192.0.2.77/24".parse().unwrap();
        assert_eq!(c.network(), Ipv4Addr::new(192, 0, 2, 0));
    }

    #[test]
    fn contains() {
        let c: Cidr = "10.1.0.0/16".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(10, 1, 200, 3)));
        assert!(!c.contains(Ipv4Addr::new(10, 2, 0, 1)));
    }

    #[test]
    fn zero_len_contains_everything() {
        let c = Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(c.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(c.size(), 1 << 32);
    }

    #[test]
    fn slash_32_is_single_host() {
        let c: Cidr = "198.51.100.7/32".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(198, 51, 100, 7)));
        assert!(!c.contains(Ipv4Addr::new(198, 51, 100, 8)));
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn nth_wraps() {
        let c: Cidr = "203.0.113.0/30".parse().unwrap();
        assert_eq!(c.nth(0), Ipv4Addr::new(203, 0, 113, 0));
        assert_eq!(c.nth(3), Ipv4Addr::new(203, 0, 113, 3));
        assert_eq!(c.nth(4), Ipv4Addr::new(203, 0, 113, 0));
    }

    #[test]
    fn rejects_garbage() {
        assert!("1.2.3.4".parse::<Cidr>().is_err());
        assert!("1.2.3.4/33".parse::<Cidr>().is_err());
        assert!("x/24".parse::<Cidr>().is_err());
        assert!("1.2.3.4/y".parse::<Cidr>().is_err());
    }

    #[test]
    fn truncate_to_supernet() {
        let c: Cidr = "10.1.2.0/24".parse().unwrap();
        assert_eq!(c.truncate(16).to_string(), "10.1.0.0/16");
        assert_eq!(c.truncate(30), c); // cannot extend
    }
}
