//! # worldgen — the synthetic internet scenario generator
//!
//! Builds the complete measurement environment the URHunter reproduction
//! runs against, as a pure function of a [`WorldConfig`]: one plan of the
//! world, materialized whole ([`World`]) or provider by provider as a scan
//! shard needs it ([`StreamWorld`]). It holds
//!
//! * a delegation hierarchy (root, TLD zones, public-suffix children),
//! * a [`TrancoList`] popularity ranking with the paper's case-study
//!   domains pinned at scaled ranks,
//! * the named providers of Table 2 / Fig. 2 plus a synthetic long tail,
//!   each serving real wire-format DNS from its nameserver fleet,
//! * legitimately hosted and delegated zones for every ranked domain
//!   (provider-hosted or self-hosted, with CDN-style multi-IP spreads),
//! * the confusables URHunter must exclude — past-delegation stale zones,
//!   parking-page URs, misconfigured recursive nameservers,
//! * attacker campaigns planting undelegated A/TXT records that expose C2
//!   infrastructure, with per-campaign threat-intel and sandbox visibility
//!   (driving the Fig. 3 mixes), including the §5.3 case studies
//!   (Dark.IoT, Specter, the masquerading SPF record),
//! * an open-resolver fleet (stable / unstable / manipulating), and
//! * vendor feeds, the IDS ruleset and the sandbox configuration.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod attacker;
mod config;
mod plan;
mod providers;
mod stream;
mod tranco;
mod world;

pub use attacker::{shuffle, DetectionClass, PlantedUr};
pub use config::WorldConfig;
pub use stream::{LegitSite, StreamWorld};

pub use tranco::TrancoList;
pub use world::{GroundTruth, NsInfo, OpenResolverInfo, ProviderMeta, ScanBlueprint, World};
