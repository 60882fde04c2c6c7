//! Provider population: the named providers the paper studies plus a
//! synthetic long tail, each a pure function of the config.

use crate::config::WorldConfig;
use crate::plan::{chance, draws, mix2};
use authdns::{DuplicatePolicy, HostingPolicy, NsAllocation};

/// Blueprint for one provider before its fleet is addressed.
#[derive(Debug, Clone)]
pub(crate) struct ProviderSpec {
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

/// The named provider population: the seven Table 2 providers, the two
/// Fig. 2 vendors not in Table 2 (Akamai, account-fixed like Tencent but
/// enterprise-only: no duplicates; NHN Cloud, global-fixed like Baidu), and
/// the two §5.3 SPF-case providers (Namecheap, permissive like GoDaddy; CSC,
/// enterprise DNS like Baidu without retrieval).
fn named_providers() -> Vec<ProviderSpec> {
    let mut akamai = HostingPolicy::tencent();
    akamai.duplicates.cross_user = false;
    let mut csc = HostingPolicy::baidu();
    csc.duplicates.no_retrieval = true;
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
        spec("Akamai", akamai, 12, 8_000),
        spec("NHN Cloud", HostingPolicy::baidu(), 6, 1_500),
        spec("Godaddy", HostingPolicy::godaddy(), 8, 20_000),
        spec("Alibaba Cloud", HostingPolicy::alibaba(), 8, 10_000),
        spec("Baidu Cloud", HostingPolicy::baidu(), 4, 2_000),
        spec("Tencent Cloud", HostingPolicy::tencent(), 8, 9_000),
        spec("Namecheap", HostingPolicy::godaddy(), 6, 7_000),
        spec("CSC", csc, 5, 1_000),
    ]
}

/// The smallest fleet that can host a zone under `policy`: a random-pool
/// zone takes `per_zone` servers of its own.
fn min_fleet(policy: &HostingPolicy) -> usize {
    match policy.allocation {
        NsAllocation::RandomPool { per_zone } => per_zone,
        _ => 1,
    }
}

/// Synthetic tail provider `i` with varied policies. Roughly a quarter
/// fall below URHunter's 50-hosted-sites selection threshold, and the
/// first always does, so every world exercises the selection filter.
fn synthetic(seed: u64, i: usize) -> ProviderSpec {
    let h = draws(seed ^ 0x5359_4E54, i as u64);
    let mut policy = HostingPolicy::godaddy();
    policy.allocation = match h(0) % 3 {
        0 => NsAllocation::GlobalFixed,
        1 => NsAllocation::AccountFixed { per_account: 2 },
        _ => NsAllocation::RandomPool { per_zone: 2 },
    };
    policy.allow_subdomain = chance(h(1), 0.4);
    policy.allow_unregistered = chance(h(2), 0.2);
    policy.protective_records = chance(h(3), 0.15);
    policy.duplicates = DuplicatePolicy {
        same_user: chance(h(4), 0.1),
        cross_user: chance(h(5), 0.25),
        no_retrieval: chance(h(6), 0.5),
    };
    let tail = if i == 0 || chance(h(7), 0.25) {
        5 + h(8) % 45 // below the selection threshold
    } else {
        60 + h(8) % 1_940
    };
    ProviderSpec {
        name: format!("TailDNS-{i:03}"),
        policy,
        ns_count: 0,
        tail_hosted_sites: tail as u32,
    }
}

/// Every provider of a world: the named ones, then
/// `config.synthetic_providers` tail providers. A tail fleet's size is
/// drawn from `ns_per_synthetic`, or, when `total_nameservers` is set,
/// the tail fleets share what the named ones leave of the inventory, so
/// that named + synthetic add up to it (the named fleets scaled down, in
/// proportion, when they alone would not leave each tail provider one
/// server). No fleet is smaller than its policy can host a zone with.
pub(crate) fn provider_specs(config: &WorldConfig) -> Vec<ProviderSpec> {
    let mut specs = named_providers();
    let tail = config.synthetic_providers;
    let mut synthetic: Vec<ProviderSpec> = (0..tail).map(|i| synthetic(config.seed, i)).collect();
    let least: usize = synthetic.iter().map(|s| min_fleet(&s.policy)).sum();
    let named: usize = specs.iter().map(|s| s.ns_count).sum();
    let room = config.total_nameservers.map(|total| {
        let total = total.saturating_sub(config.misconfigured_recursive_ns);
        let budget = total.saturating_sub(least);
        if budget < named {
            for s in &mut specs {
                s.ns_count = (s.ns_count * budget / named).max(min_fleet(&s.policy));
            }
        }
        let named: usize = specs.iter().map(|s| s.ns_count).sum();
        total.saturating_sub(named + least)
    });
    for (i, spec) in synthetic.iter_mut().enumerate() {
        spec.ns_count = min_fleet(&spec.policy)
            + match room {
                Some(room) => room / tail + usize::from(i < room % tail),
                None => {
                    let (lo, hi) = config.ns_per_synthetic;
                    let h = mix2(config.seed ^ 0x4E53_4354, i as u64, 0);
                    (lo + (h % (hi - lo + 1) as u64) as usize)
                        .saturating_sub(min_fleet(&spec.policy))
                }
            };
    }
    specs.append(&mut synthetic);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = provider_specs(&WorldConfig::medium());
        let b = provider_specs(&WorldConfig::medium());
        assert_eq!(a.len(), 11 + WorldConfig::medium().synthetic_providers);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ns_count, y.ns_count);
            assert_eq!(x.tail_hosted_sites, y.tail_hosted_sites);
        }
    }

    #[test]
    fn some_synthetics_fall_below_selection_threshold() {
        let specs = provider_specs(&WorldConfig::default_scale());
        assert!(specs.iter().any(|s| s.tail_hosted_sites < 50));
        assert!(specs.iter().skip(11).any(|s| s.tail_hosted_sites >= 50));
    }

    #[test]
    fn a_set_inventory_is_met_exactly() {
        for config in [WorldConfig::paper(), WorldConfig::xl()] {
            let total = config.total_nameservers.unwrap() - config.misconfigured_recursive_ns;
            let specs = provider_specs(&config);
            assert_eq!(specs.iter().map(|s| s.ns_count).sum::<usize>(), total);
            assert_eq!(specs[0].ns_count, 24, "the named fleets fit unscaled");
        }
        // Too small for the named fleets: they shrink, each still able to
        // host a zone.
        let mut tiny = WorldConfig::xl();
        tiny.synthetic_providers = 12;
        tiny.total_nameservers = Some(48);
        let specs = provider_specs(&tiny);
        assert_eq!(specs.iter().map(|s| s.ns_count).sum::<usize>(), 46);
        assert!(specs.iter().all(|s| s.ns_count >= min_fleet(&s.policy)));
    }
}
