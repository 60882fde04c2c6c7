//! Provider population: the named providers the paper studies plus a
//! synthetic long tail.

use authdns::{DuplicatePolicy, HostingPolicy, NsAllocation};
use rand::rngs::StdRng;
use rand::RngExt;

/// Blueprint for one provider before it is instantiated into the world.
#[derive(Debug, Clone)]
pub struct ProviderSpec {
    /// Display name.
    pub(crate) name: String,
    /// Hosting policy (Table 2 axes).
    pub(crate) policy: HostingPolicy,
    /// Nameserver fleet size.
    pub(crate) ns_count: usize,
    /// How many top-1M sites (outside the target list) this provider hosts —
    /// drives URHunter's "nameservers hosting ≥ 50 domains" selection.
    pub(crate) tail_hosted_sites: u32,
}

/// Akamai-like policy: account-fixed nameservers, enterprise-only feature
/// set (no subdomain hosting, no duplicates, retrieval exists).
fn akamai_policy() -> HostingPolicy {
    let mut p = HostingPolicy::tencent();
    p.duplicates = DuplicatePolicy {
        same_user: false,
        cross_user: false,
        no_retrieval: false,
    };
    p
}

/// NHN-Cloud-like policy: global-fixed nameservers, SLD/eTLD only.
fn nhn_policy() -> HostingPolicy {
    HostingPolicy::baidu()
}

/// Namecheap-like policy (hosts the masquerading SPF records in §5.3):
/// global-fixed, permissive, no retrieval.
fn namecheap_policy() -> HostingPolicy {
    HostingPolicy::godaddy()
}

/// CSC-like policy: enterprise DNS, global-fixed, SLD/eTLD, no duplicates.
fn csc_policy() -> HostingPolicy {
    let mut p = HostingPolicy::baidu();
    p.duplicates.no_retrieval = true;
    p
}

/// The named provider population: the seven Table 2 providers, the two
/// Fig. 2 vendors not in Table 2 (Akamai, NHN Cloud), and the two §5.3
/// SPF-case providers (Namecheap, CSC).
pub(crate) fn named_providers() -> Vec<ProviderSpec> {
    let spec = |name: &str, policy: HostingPolicy, ns_count: usize, tail: u32| ProviderSpec {
        name: name.to_string(),
        policy,
        ns_count,
        tail_hosted_sites: tail,
    };
    vec![
        spec("Cloudflare", HostingPolicy::cloudflare(), 24, 60_000),
        spec("Amazon", HostingPolicy::amazon(), 20, 30_000),
        spec("ClouDNS", HostingPolicy::cloudns(), 10, 3_000),
        spec("Akamai", akamai_policy(), 12, 8_000),
        spec("NHN Cloud", nhn_policy(), 6, 1_500),
        spec("Godaddy", HostingPolicy::godaddy(), 8, 20_000),
        spec("Alibaba Cloud", HostingPolicy::alibaba(), 8, 10_000),
        spec("Baidu Cloud", HostingPolicy::baidu(), 4, 2_000),
        spec("Tencent Cloud", HostingPolicy::tencent(), 8, 9_000),
        spec("Namecheap", namecheap_policy(), 6, 7_000),
        spec("CSC", csc_policy(), 5, 1_000),
    ]
}

/// Generate `count` synthetic tail providers with varied policies. Roughly
/// a quarter fall below URHunter's 50-hosted-sites selection threshold,
/// exercising the selection filter.
pub fn synthetic_providers(
    rng: &mut StdRng,
    count: usize,
    ns_range: (usize, usize),
) -> Vec<ProviderSpec> {
    (0..count)
        .map(|i| {
            let allocation = match rng.random_range(0..3u8) {
                0 => NsAllocation::GlobalFixed,
                1 => NsAllocation::AccountFixed { per_account: 2 },
                _ => NsAllocation::RandomPool { per_zone: 2 },
            };
            let mut policy = HostingPolicy::godaddy();
            policy.allocation = allocation;
            policy.allow_subdomain = rng.random_bool(0.4);
            policy.allow_unregistered = rng.random_bool(0.2);
            policy.protective_records = rng.random_bool(0.15);
            policy.duplicates = DuplicatePolicy {
                same_user: rng.random_bool(0.1),
                cross_user: rng.random_bool(0.25),
                no_retrieval: rng.random_bool(0.5),
            };
            let ns_count = if ns_range.0 == ns_range.1 {
                ns_range.0
            } else {
                rng.random_range(ns_range.0..=ns_range.1)
            };
            // The first synthetic provider always falls below the
            // 50-hosted-sites selection threshold so every generated world
            // exercises the selection filter; the rest roll for it.
            let tail = if i == 0 || rng.random_bool(0.25) {
                rng.random_range(5..50) // below the selection threshold
            } else {
                rng.random_range(60..2_000)
            };
            ProviderSpec {
                name: format!("TailDNS-{i:03}"),
                policy,
                ns_count: ns_count.max(1),
                tail_hosted_sites: tail,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn named_population_covers_fig2_vendors() {
        let names: Vec<String> = named_providers().into_iter().map(|p| p.name).collect();
        for expected in ["Cloudflare", "ClouDNS", "Amazon", "Akamai", "NHN Cloud"] {
            assert!(names.contains(&expected.to_string()), "{expected} missing");
        }
        assert!(names.contains(&"Namecheap".to_string()));
        assert!(names.contains(&"CSC".to_string()));
    }

    #[test]
    fn cloudflare_is_largest_named_fleet() {
        let providers = named_providers();
        let cf = providers.iter().find(|p| p.name == "Cloudflare").unwrap();
        assert!(providers.iter().all(|p| p.ns_count <= cf.ns_count));
    }

    #[test]
    fn synthetic_spread_is_deterministic() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let a = synthetic_providers(&mut r1, 20, (2, 4));
        let b = synthetic_providers(&mut r2, 20, (2, 4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ns_count, y.ns_count);
            assert_eq!(x.tail_hosted_sites, y.tail_hosted_sites);
        }
    }

    #[test]
    fn some_synthetics_fall_below_selection_threshold() {
        let mut rng = StdRng::seed_from_u64(9);
        let specs = synthetic_providers(&mut rng, 40, (2, 4));
        assert!(specs.iter().any(|s| s.tail_hosted_sites < 50));
        assert!(specs.iter().any(|s| s.tail_hosted_sites >= 50));
    }
}
