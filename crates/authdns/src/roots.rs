//! The delegation hierarchy: root and TLD registry zones.
//!
//! The world generator registers every legitimate domain here; the recursor
//! walks root → TLD → authoritative exactly as a real iterative resolver
//! does. A domain hosted at a provider but *not* registered here is, by
//! definition, undelegated — its records at the provider are URs.

use crate::zone::Zone;
use dnswire::{Name, NameKey, NameRef, RData, Record};
use intern::InternedName;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// TTL used for delegation NS records.
const DELEGATION_TTL: u32 = 86_400;

/// The registry of true delegations: builds the root zone and one zone per
/// TLD, and records which nameservers each delegated domain points at.
#[derive(Debug, Default)]
pub struct DelegationRegistry {
    root: Option<RootData>,
    tlds: HashMap<Name, TldData>,
}

#[derive(Debug)]
struct RootData {
    ip: Ipv4Addr,
}

#[derive(Debug)]
struct TldData {
    ip: Ipv4Addr,
    /// domain -> (ns name, ns ip) delegation set, keyed by interned name.
    /// Inserts intern; probes go through [`InternedName::lookup`].
    delegations: HashMap<InternedName, Vec<(Name, Ipv4Addr)>>,
}

impl DelegationRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        DelegationRegistry::default()
    }

    /// Place the root server at `ip`.
    pub fn set_root(&mut self, ip: Ipv4Addr) {
        self.root = Some(RootData { ip });
    }

    /// The root server address.
    ///
    /// # Panics
    /// Panics if the root was never set — a world-construction bug.
    pub fn root_ip(&self) -> Ipv4Addr {
        self.root.as_ref().expect("root not configured").ip
    }

    /// Register a TLD served at `ip`.
    pub fn add_tld(&mut self, tld: Name, ip: Ipv4Addr) {
        self.tlds.insert(
            tld,
            TldData {
                ip,
                delegations: HashMap::new(),
            },
        );
    }

    /// All registered TLDs.
    pub fn tlds(&self) -> impl Iterator<Item = (&Name, Ipv4Addr)> {
        self.tlds.iter().map(|(n, d)| (n, d.ip))
    }

    /// Delegate `domain` (which must end in a registered TLD) to the given
    /// nameservers. Replaces any previous delegation.
    ///
    /// # Panics
    /// Panics when the TLD is unknown — register TLDs first.
    pub fn delegate(&mut self, domain: &Name, nameservers: Vec<(Name, Ipv4Addr)>) {
        self.tld_of_mut(domain)
            .unwrap_or_else(|| panic!("no TLD registered for {domain}"))
            .delegations
            .insert(InternedName::intern(domain), nameservers);
    }

    /// Remove a delegation (domain expiry / provider switch).
    pub fn undelegate(&mut self, domain: &Name) {
        if let (Some(tld), Some(id)) = (
            self.tld_of_mut(domain),
            InternedName::lookup(domain.borrowed()),
        ) {
            tld.delegations.remove(&id);
        }
    }

    /// The most specific registered TLD zone strictly enclosing `domain`,
    /// key and data: the domain's own suffixes, longest first, each probed
    /// as a borrowed key. Which zone wins is decided by the name, never by
    /// the map's iteration order.
    fn tld_of(&self, domain: NameRef<'_>) -> Option<(&Name, &TldData)> {
        (0..domain.label_count()).rev().find_map(|labels| {
            let suffix = domain.suffix(labels)?;
            self.tlds.get_key_value(&suffix as &dyn NameKey)
        })
    }

    fn tld_of_mut(&mut self, domain: &Name) -> Option<&mut TldData> {
        let labels = self.enclosing_tld(domain)?.label_count();
        let suffix = domain.borrowed().suffix(labels)?;
        self.tlds.get_mut(&suffix as &dyn NameKey)
    }

    /// The most specific registered TLD enclosing `domain` (handles both
    /// `com` and multi-label public-suffix TLD zones like `co.uk` when they
    /// are registered as TLD zones).
    pub fn enclosing_tld(&self, domain: &Name) -> Option<&Name> {
        self.tld_of(domain.borrowed()).map(|(tld, _)| tld)
    }

    /// Is `domain` currently delegated (exactly)?
    pub fn is_delegated(&self, domain: &Name) -> bool {
        self.delegation_of(domain).is_some()
    }

    /// The delegation set of `domain`, if any. A name that was never
    /// interned was never delegated, so a miss leaves the name table alone.
    pub fn delegation_of(&self, domain: &Name) -> Option<&[(Name, Ipv4Addr)]> {
        Self::delegation_in(self.tld_of(domain.borrowed())?.1, domain.borrowed())
    }

    fn delegation_in<'a>(tld: &'a TldData, domain: NameRef<'_>) -> Option<&'a [(Name, Ipv4Addr)]> {
        tld.delegations
            .get(&InternedName::lookup(domain)?)
            .map(Vec::as_slice)
    }

    /// The registered domain (delegation point) enclosing `name`, if any:
    /// walks from `name` toward its TLD looking for a delegated suffix.
    pub fn registered_suffix(&self, name: &Name) -> Option<Name> {
        let (tld, data) = self.tld_of(name.borrowed())?;
        (tld.label_count() + 1..=name.label_count())
            .rev()
            .filter_map(|labels| name.borrowed().suffix(labels))
            .find(|suffix| Self::delegation_in(data, *suffix).is_some())
            .map(NameRef::to_name)
    }

    /// Build the root zone (NS + glue for every TLD).
    pub fn build_root_zone(&self) -> Zone {
        let mut zone = Zone::new(Name::root());
        for (tld, data) in &self.tlds {
            let ns_name = tld.child(b"a-ns").expect("valid tld child");
            zone.add(Record::new(
                tld.clone(),
                DELEGATION_TTL,
                RData::Ns(ns_name.clone()),
            ));
            zone.add(Record::new(ns_name, DELEGATION_TTL, RData::A(data.ip)));
        }
        zone
    }

    /// Build the zone for one TLD (delegation NS records, glue only for
    /// in-bailiwick nameservers).
    ///
    /// # Panics
    /// Panics on an unregistered TLD.
    pub fn build_tld_zone(&self, tld: &Name) -> Zone {
        let data = self
            .tlds
            .get(tld)
            .unwrap_or_else(|| panic!("unknown TLD {tld}"));
        let mut zone = Zone::new(tld.clone());
        for (domain, nameservers) in &data.delegations {
            for (ns_name, ns_ip) in nameservers {
                zone.add(Record::new(
                    domain.to_name(),
                    DELEGATION_TTL,
                    RData::Ns(ns_name.clone()),
                ));
                if ns_name.is_subdomain_of(tld) {
                    zone.add(Record::new(
                        ns_name.clone(),
                        DELEGATION_TTL,
                        RData::A(*ns_ip),
                    ));
                }
            }
        }
        zone
    }

    /// Glue lookup across the whole registry: the address of a nameserver
    /// by its name, wherever it was declared.
    pub fn ns_addr(&self, ns_name: &Name) -> Option<Ipv4Addr> {
        for data in self.tlds.values() {
            for servers in data.delegations.values() {
                for (n, ip) in servers {
                    if n == ns_name {
                        return Some(*ip);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneAnswer;
    use dnswire::RecordType;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn registry() -> DelegationRegistry {
        let mut r = DelegationRegistry::new();
        r.set_root(Ipv4Addr::new(198, 41, 0, 4));
        r.add_tld(n("com"), Ipv4Addr::new(192, 5, 6, 30));
        r.add_tld(n("org"), Ipv4Addr::new(192, 5, 6, 31));
        r.add_tld(n("co.uk"), Ipv4Addr::new(192, 5, 6, 32));
        r.delegate(
            &n("example.com"),
            vec![(n("ns1.example.com"), Ipv4Addr::new(203, 0, 113, 53))],
        );
        r.delegate(
            &n("hosted.org"),
            vec![(n("ns1.provider.net"), Ipv4Addr::new(198, 18, 0, 1))],
        );
        r
    }

    #[test]
    fn delegation_bookkeeping() {
        let r = registry();
        assert!(r.is_delegated(&n("example.com")));
        assert!(!r.is_delegated(&n("other.com")));
        assert_eq!(r.delegation_of(&n("example.com")).unwrap().len(), 1);
        assert_eq!(r.root_ip(), Ipv4Addr::new(198, 41, 0, 4));
    }

    #[test]
    fn enclosing_tld_prefers_most_specific() {
        let mut r = registry();
        r.add_tld(n("uk"), Ipv4Addr::new(192, 5, 6, 33));
        assert_eq!(r.enclosing_tld(&n("shop.co.uk")), Some(&n("co.uk")));
        assert_eq!(r.enclosing_tld(&n("plain.uk")), Some(&n("uk")));
        assert!(r.enclosing_tld(&n("x.dev")).is_none());
    }

    #[test]
    fn registered_suffix_walks_up() {
        let r = registry();
        assert_eq!(
            r.registered_suffix(&n("www.example.com")).unwrap(),
            n("example.com")
        );
        assert_eq!(
            r.registered_suffix(&n("example.com")).unwrap(),
            n("example.com")
        );
        assert!(r.registered_suffix(&n("unregistered.com")).is_none());
    }

    #[test]
    fn root_zone_refers_to_tlds() {
        let r = registry();
        let root = r.build_root_zone();
        match root.answer(n("www.example.com").borrowed(), RecordType::A) {
            ZoneAnswer::Delegation { ns, glue } => {
                assert!(!ns.is_empty());
                assert!(!glue.is_empty());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn tld_zone_refers_to_sld() {
        let r = registry();
        let com = r.build_tld_zone(&n("com"));
        match com.answer(n("www.example.com").borrowed(), RecordType::A) {
            ZoneAnswer::Delegation { ns, glue } => {
                assert_eq!(ns.len(), 1);
                // ns1.example.com is in-bailiwick: glue present
                assert_eq!(glue.len(), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Unregistered name: NXDOMAIN from the TLD
        assert_eq!(
            com.answer(n("ghost.com").borrowed(), RecordType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn out_of_bailiwick_ns_has_no_glue() {
        let r = registry();
        let org = r.build_tld_zone(&n("org"));
        match org.answer(n("hosted.org").borrowed(), RecordType::A) {
            ZoneAnswer::Delegation { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert!(glue.is_empty(), "provider NS is out of bailiwick");
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(
            r.ns_addr(&n("ns1.provider.net")).unwrap(),
            Ipv4Addr::new(198, 18, 0, 1)
        );
    }

    #[test]
    fn undelegate_removes() {
        let mut r = registry();
        r.undelegate(&n("example.com"));
        assert!(!r.is_delegated(&n("example.com")));
    }

    #[test]
    #[should_panic(expected = "no TLD registered")]
    fn delegate_unknown_tld_panics() {
        let mut r = registry();
        r.delegate(
            &n("x.dev"),
            vec![(n("ns.x.dev"), Ipv4Addr::new(1, 1, 1, 1))],
        );
    }
}
