//! Hosting-provider policy model — the Table 2 axes of the paper.
//!
//! Appendix C of the paper probes seven mainstream providers along four
//! dimensions: nameserver allocation, ownership verification, supported
//! domain classes, and duplicate-hosting behaviour. Every axis is a field
//! here, and the seven studied providers are provided as presets.

use dnswire::Name;

/// How a provider assigns nameservers to a hosted zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsAllocation {
    /// Every customer shares the same nameserver set (GoDaddy, Alibaba,
    /// Baidu, ClouDNS).
    GlobalFixed,
    /// Each account gets a fixed set; different accounts hosting the same
    /// domain get different sets (Cloudflare, Tencent).
    AccountFixed {
        /// Nameservers assigned per account.
        per_account: usize,
    },
    /// Each zone draws a random subset from a large pool (Amazon Route 53).
    RandomPool {
        /// Nameservers assigned per zone.
        per_zone: usize,
    },
}

/// Whether and how the provider verifies domain ownership before serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerificationPolicy {
    /// No verification: zones are served immediately (all seven studied
    /// providers at measurement time).
    None,
    /// Serve only after the TLD's NS records point at the assigned
    /// nameservers (the paper's mitigation option 1; adopted by Tencent
    /// after disclosure).
    NsDelegation,
    /// Serve only after a challenge TXT record is visible in the domain's
    /// delegated zone (mitigation option 2; partially adopted by Alibaba).
    TxtChallenge,
}

/// Classes of domain a customer may try to host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainClass {
    /// A second-level domain that exists in some TLD registry.
    RegisteredSld,
    /// A second-level domain with no registration anywhere.
    Unregistered,
    /// A subdomain of a registered SLD (e.g. `api.github.com`).
    Subdomain,
    /// An effective TLD / public suffix (e.g. `gov.cn`).
    Etld,
}

/// Duplicate-hosting behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicatePolicy {
    /// May one account create several zones for the same name (Amazon)?
    pub same_user: bool,
    /// May different accounts each host the same name (Cloudflare, Amazon,
    /// Tencent)?
    pub cross_user: bool,
    /// Is there NO retrieval mechanism for the legitimate owner to evict a
    /// squatter (Amazon, ClouDNS, GoDaddy)?
    pub no_retrieval: bool,
}

/// Full hosting policy for one provider.
#[derive(Debug, Clone)]
pub struct HostingPolicy {
    /// Nameserver allocation scheme.
    pub allocation: NsAllocation,
    /// Ownership verification gate.
    pub verification: VerificationPolicy,
    /// Whether unregistered domains may be hosted.
    pub allow_unregistered: bool,
    /// Whether subdomains of SLDs may be hosted.
    pub allow_subdomain: bool,
    /// Whether registered SLDs may be hosted.
    pub(crate) allow_sld: bool,
    /// Whether eTLDs / public suffixes may be hosted.
    pub(crate) allow_etld: bool,
    /// Duplicate-hosting behaviour.
    pub duplicates: DuplicatePolicy,
    /// Names (and everything below them) the provider refuses to host —
    /// the "reserved list" that blocks extremely popular domains.
    pub reserved: Vec<Name>,
    /// Whether the provider serves protective records (warning-page A / TXT)
    /// for queries about domains nobody hosts there (e.g. ClouDNS).
    pub protective_records: bool,
    /// Whether a (paid) customer can sync a zone to every nameserver in the
    /// provider's fleet (Cloudflare paid tier).
    pub sync_to_all_ns: bool,
}

impl HostingPolicy {
    /// Is this domain class accepted?
    pub fn allows_class(&self, class: DomainClass) -> bool {
        match class {
            DomainClass::RegisteredSld => self.allow_sld,
            DomainClass::Unregistered => self.allow_unregistered,
            DomainClass::Subdomain => self.allow_subdomain,
            DomainClass::Etld => self.allow_etld,
        }
    }

    /// Is `domain` on (or under) the reserved list?
    pub fn is_reserved(&self, domain: &Name) -> bool {
        self.reserved.iter().any(|r| domain.is_subdomain_of(r))
    }

    /// A permissive baseline all presets start from.
    fn permissive(allocation: NsAllocation) -> Self {
        HostingPolicy {
            allocation,
            verification: VerificationPolicy::None,
            allow_unregistered: false,
            allow_subdomain: false,
            allow_sld: true,
            allow_etld: true,
            duplicates: DuplicatePolicy {
                same_user: false,
                cross_user: false,
                no_retrieval: false,
            },
            reserved: Vec::new(),
            protective_records: false,
            sync_to_all_ns: false,
        }
    }

    /// Alibaba Cloud per Table 2: global-fixed NS, subdomain+SLD+eTLD,
    /// no duplicates, retrieval supported.
    pub fn alibaba() -> Self {
        HostingPolicy {
            allow_subdomain: true,
            ..Self::permissive(NsAllocation::GlobalFixed)
        }
    }

    /// Amazon Route 53 per Table 2: random pool, everything allowed,
    /// duplicates in every form, no retrieval.
    pub fn amazon() -> Self {
        HostingPolicy {
            allow_unregistered: true,
            allow_subdomain: true,
            duplicates: DuplicatePolicy {
                same_user: true,
                cross_user: true,
                no_retrieval: true,
            },
            ..Self::permissive(NsAllocation::RandomPool { per_zone: 4 })
        }
    }

    /// Baidu Cloud per Table 2: global-fixed, SLD+eTLD only.
    pub fn baidu() -> Self {
        Self::permissive(NsAllocation::GlobalFixed)
    }

    /// ClouDNS per Table 2: global-fixed, everything allowed, no retrieval,
    /// and serves protective records for unknown domains.
    pub fn cloudns() -> Self {
        HostingPolicy {
            allow_unregistered: true,
            allow_subdomain: true,
            duplicates: DuplicatePolicy {
                same_user: false,
                cross_user: false,
                no_retrieval: true,
            },
            protective_records: true,
            ..Self::permissive(NsAllocation::GlobalFixed)
        }
    }

    /// Cloudflare per Table 2: account-fixed, subdomain (paid) + SLD + eTLD,
    /// cross-user duplicates, retrieval exists, paid sync-to-all.
    pub fn cloudflare() -> Self {
        HostingPolicy {
            allow_subdomain: true,
            duplicates: DuplicatePolicy {
                same_user: false,
                cross_user: true,
                no_retrieval: false,
            },
            sync_to_all_ns: true,
            ..Self::permissive(NsAllocation::AccountFixed { per_account: 2 })
        }
    }

    /// GoDaddy per Table 2: global-fixed, subdomain+SLD+eTLD, no retrieval.
    pub fn godaddy() -> Self {
        HostingPolicy {
            allow_subdomain: true,
            duplicates: DuplicatePolicy {
                same_user: false,
                cross_user: false,
                no_retrieval: true,
            },
            ..Self::permissive(NsAllocation::GlobalFixed)
        }
    }

    /// Tencent Cloud (DNSPod) per Table 2: account-fixed, SLD+eTLD,
    /// cross-user duplicates, retrieval supported.
    pub fn tencent() -> Self {
        HostingPolicy {
            duplicates: DuplicatePolicy {
                same_user: false,
                cross_user: true,
                no_retrieval: false,
            },
            ..Self::permissive(NsAllocation::AccountFixed { per_account: 2 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// The seven studied providers with their Table 2 names.
    fn studied_providers() -> Vec<(&'static str, HostingPolicy)> {
        vec![
            ("Alibaba Cloud", HostingPolicy::alibaba()),
            ("Amazon", HostingPolicy::amazon()),
            ("Baidu Cloud", HostingPolicy::baidu()),
            ("ClouDNS", HostingPolicy::cloudns()),
            ("Cloudflare", HostingPolicy::cloudflare()),
            ("Godaddy", HostingPolicy::godaddy()),
            ("Tencent Cloud", HostingPolicy::tencent()),
        ]
    }

    #[test]
    fn all_studied_providers_host_without_verification() {
        for (name, p) in studied_providers() {
            assert_eq!(p.verification, VerificationPolicy::None, "{name}");
            assert!(p.allow_sld, "{name}");
            assert!(p.allow_etld, "{name}");
        }
    }

    #[test]
    fn table2_unregistered_column() {
        // Only Amazon and ClouDNS support unregistered domains.
        let support: Vec<&str> = studied_providers()
            .into_iter()
            .filter(|(_, p)| p.allow_unregistered)
            .map(|(n, _)| n)
            .collect();
        assert_eq!(support, vec!["Amazon", "ClouDNS"]);
    }

    #[test]
    fn table2_subdomain_column() {
        let support: Vec<&str> = studied_providers()
            .into_iter()
            .filter(|(_, p)| p.allow_subdomain)
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            support,
            vec![
                "Alibaba Cloud",
                "Amazon",
                "ClouDNS",
                "Cloudflare",
                "Godaddy"
            ]
        );
    }

    #[test]
    fn table2_duplicate_columns() {
        let providers = studied_providers();
        let by = |f: fn(&DuplicatePolicy) -> bool| -> Vec<&str> {
            providers
                .iter()
                .filter(|(_, p)| f(&p.duplicates))
                .map(|(n, _)| *n)
                .collect()
        };
        assert_eq!(by(|d| d.same_user), vec!["Amazon"]);
        assert_eq!(
            by(|d| d.cross_user),
            vec!["Amazon", "Cloudflare", "Tencent Cloud"]
        );
        assert_eq!(by(|d| d.no_retrieval), vec!["Amazon", "ClouDNS", "Godaddy"]);
    }

    #[test]
    fn reserved_list_blocks_subtree() {
        let mut p = HostingPolicy::cloudflare();
        p.reserved.push(n("google.com"));
        assert!(p.is_reserved(&n("google.com")));
        assert!(p.is_reserved(&n("mail.google.com")));
        assert!(!p.is_reserved(&n("notgoogle.com")));
    }

    #[test]
    fn class_gating() {
        let p = HostingPolicy::baidu();
        assert!(p.allows_class(DomainClass::RegisteredSld));
        assert!(p.allows_class(DomainClass::Etld));
        assert!(!p.allows_class(DomainClass::Subdomain));
        assert!(!p.allows_class(DomainClass::Unregistered));
    }

    #[test]
    fn only_cloudns_serves_protective_records() {
        let with: Vec<&str> = studied_providers()
            .into_iter()
            .filter(|(_, p)| p.protective_records)
            .map(|(n, _)| n)
            .collect();
        assert_eq!(with, vec!["ClouDNS"]);
    }
}
