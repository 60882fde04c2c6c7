//! World-generation configuration: every scale knob of the synthetic
//! internet, with presets for tests (small) and experiments (default).

use pdns::Day;

/// Configuration for [`crate::World::generate`].
///
/// Every experiment is a pure function of this struct; two generations with
/// equal configs are identical down to the wire bytes.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; all other randomness derives from it.
    pub seed: u64,
    /// Size of the Tranco-style target list (paper: top 2K).
    pub top_domains: usize,
    /// Synthetic providers generated beyond the named ones (paper: 400+
    /// providers overall).
    pub synthetic_providers: usize,
    /// Nameservers per synthetic provider (inclusive range).
    pub(crate) ns_per_synthetic: (usize, usize),
    /// Open resolvers world-wide (paper: 3K selected).
    pub open_resolvers: usize,
    /// Fraction of open resolvers that are unstable (sometimes silent).
    pub(crate) unstable_resolver_fraction: f64,
    /// Fraction of open resolvers that manipulate A answers.
    pub(crate) manipulated_resolver_fraction: f64,
    /// Attacker campaigns planting URs.
    pub attack_campaigns: usize,
    /// Fraction of campaigns whose C2s are detectable as malicious (the
    /// paper finds 25.41% of suspicious URs malicious).
    pub(crate) malicious_campaign_fraction: f64,
    /// Among detectable campaigns: fraction labeled by vendors only
    /// (Fig. 3a: 34.20%).
    pub(crate) label_only_fraction: f64,
    /// Among detectable campaigns: fraction caught by IDS only
    /// (Fig. 3a: 36.62%); the remainder is "both".
    pub(crate) ids_only_fraction: f64,
    /// Benign misconfiguration URs (classified "unknown").
    pub(crate) benign_misconfig_urs: usize,
    /// Stale zones left from past delegations (excluded via passive DNS).
    pub(crate) past_delegation_urs: usize,
    /// URs pointing at parking pages (excluded via HTTP keywords).
    pub(crate) parked_urs: usize,
    /// Misconfigured nameservers that answer any query by recursion.
    pub(crate) misconfigured_recursive_ns: usize,
    /// Fraction of top domains hosted at providers (vs. self-hosted).
    pub(crate) provider_hosted_fraction: f64,
    /// "Today" on the passive-DNS day axis.
    pub today: Day,
    /// Exact nameserver-inventory size for stream-generated worlds
    /// ([`crate::StreamWorld`]): the synthetic fleets are sized so the
    /// named + synthetic total lands exactly here. `None` (every eager
    /// preset) derives fleet sizes from `ns_per_synthetic` instead.
    pub total_nameservers: Option<usize>,
}

impl WorldConfig {
    /// A small world for unit/integration tests: builds in well under a
    /// second and runs the full pipeline in a few seconds.
    pub fn small() -> Self {
        WorldConfig {
            seed: 42,
            top_domains: 60,
            synthetic_providers: 6,
            ns_per_synthetic: (2, 4),
            open_resolvers: 18,
            unstable_resolver_fraction: 0.15,
            manipulated_resolver_fraction: 0.05,
            attack_campaigns: 24,
            malicious_campaign_fraction: 0.45,
            label_only_fraction: 0.342,
            ids_only_fraction: 0.366,
            benign_misconfig_urs: 14,
            past_delegation_urs: 6,
            parked_urs: 6,
            misconfigured_recursive_ns: 2,
            provider_hosted_fraction: 0.7,
            today: 2_500,
            total_nameservers: None,
        }
    }

    /// The experiment scale used by the table/figure regeneration binaries:
    /// large enough for stable proportions, small enough to run in seconds.
    pub fn default_scale() -> Self {
        WorldConfig {
            seed: 2023,
            top_domains: 1_000,
            synthetic_providers: 60,
            ns_per_synthetic: (2, 6),
            open_resolvers: 300,
            unstable_resolver_fraction: 0.12,
            manipulated_resolver_fraction: 0.03,
            attack_campaigns: 5_500,
            malicious_campaign_fraction: 0.24,
            label_only_fraction: 0.342,
            ids_only_fraction: 0.366,
            benign_misconfig_urs: 400,
            past_delegation_urs: 120,
            parked_urs: 120,
            misconfigured_recursive_ns: 6,
            provider_hosted_fraction: 0.72,
            today: 2_500,
            total_nameservers: None,
        }
    }

    /// A benchmark-sized world between [`WorldConfig::small`] and
    /// [`WorldConfig::default_scale`]: enough URs (~20 K) for every stage
    /// to do measurable work while a whole run stays a fraction of a
    /// second.
    pub fn medium() -> Self {
        WorldConfig {
            seed: 777,
            top_domains: 300,
            synthetic_providers: 24,
            ns_per_synthetic: (2, 5),
            open_resolvers: 90,
            unstable_resolver_fraction: 0.12,
            manipulated_resolver_fraction: 0.04,
            attack_campaigns: 900,
            malicious_campaign_fraction: 0.30,
            label_only_fraction: 0.342,
            ids_only_fraction: 0.366,
            benign_misconfig_urs: 90,
            past_delegation_urs: 30,
            parked_urs: 30,
            misconfigured_recursive_ns: 3,
            provider_hosted_fraction: 0.71,
            today: 2_500,
            total_nameservers: None,
        }
    }

    /// The paper's measurement scale, for the streaming generator
    /// ([`crate::StreamWorld`]): 8,941 selected nameservers across 400+
    /// providers, scanning the top-2K domains of a top-1M ranking (tail
    /// hosted-site counts are drawn against that depth). Zones and
    /// accounts are generated lazily per scan shard — [`crate::World`]
    /// never materializes this preset.
    pub fn paper() -> Self {
        WorldConfig {
            seed: 0x1A2C_2023,
            top_domains: 2_000,
            synthetic_providers: 390,
            ns_per_synthetic: (2, 44),
            open_resolvers: 0,
            unstable_resolver_fraction: 0.0,
            manipulated_resolver_fraction: 0.0,
            attack_campaigns: 40_000,
            malicious_campaign_fraction: 0.2541,
            label_only_fraction: 0.342,
            ids_only_fraction: 0.366,
            benign_misconfig_urs: 0,
            past_delegation_urs: 0,
            parked_urs: 0,
            misconfigured_recursive_ns: 0,
            provider_hosted_fraction: 0.72,
            today: 2_500,
            total_nameservers: Some(8_941),
        }
    }

    /// The memory-stress scale: a nameserver fleet and campaign density
    /// tuned so a full collect + classify pass crosses one million URs.
    /// Only runnable through the streaming generator / fold pipeline,
    /// where peak RSS stays bounded by one world shard plus one batch.
    pub fn xl() -> Self {
        WorldConfig {
            seed: 0x5852_2023,
            top_domains: 1_500,
            synthetic_providers: 120,
            ns_per_synthetic: (2, 16),
            open_resolvers: 0,
            unstable_resolver_fraction: 0.0,
            manipulated_resolver_fraction: 0.0,
            attack_campaigns: 60_000,
            malicious_campaign_fraction: 0.2541,
            label_only_fraction: 0.342,
            ids_only_fraction: 0.366,
            benign_misconfig_urs: 0,
            past_delegation_urs: 0,
            parked_urs: 0,
            misconfigured_recursive_ns: 0,
            provider_hosted_fraction: 0.72,
            today: 2_500,
            total_nameservers: Some(1_100),
        }
    }

    /// Replace the seed (for seed-sweep ablations).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for cfg in [
            WorldConfig::small(),
            WorldConfig::medium(),
            WorldConfig::default_scale(),
            WorldConfig::paper(),
            WorldConfig::xl(),
        ] {
            assert!(cfg.top_domains >= 10);
            assert!(cfg.ns_per_synthetic.0 <= cfg.ns_per_synthetic.1);
            assert!(cfg.label_only_fraction + cfg.ids_only_fraction < 1.0);
            assert!(cfg.malicious_campaign_fraction <= 1.0);
            assert!(cfg.provider_hosted_fraction <= 1.0);
        }
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = WorldConfig::small();
        let b = WorldConfig::small().with_seed(7);
        assert_eq!(a.top_domains, b.top_domains);
        assert_ne!(a.seed, b.seed);
    }
}
