//! The lazy materialization of a world, for paper-scale scans: a
//! [`StreamWorld`] keeps only the plan, and a provider is materialized when
//! a scan shard attaches its servers ([`ScanBlueprint::attach`]) and
//! dropped after. Materializing is a pure function of the plan, so a shard
//! serves exactly what [`crate::World`]'s nameservers serve.

use crate::config::WorldConfig;
use crate::plan::StreamPlan;
use crate::tranco::TrancoList;
use crate::world::{NsInfo, ScanBlueprint};
use authdns::DelegationRegistry;
use dnswire::Name;
use netdb::NetDb;
use pdns::PassiveDns;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One legitimately hosted scan target: the ground truth the correct-record
/// database is synthesized from (stream worlds have no resolver fleet to
/// probe — the plan *is* the ground truth).
#[derive(Debug, Clone)]
pub struct LegitSite {
    /// The target apex.
    pub domain: Name,
    /// Its legitimate addresses.
    pub ips: Vec<Ipv4Addr>,
    /// Its TXT bodies (SPF, DMARC).
    pub txts: Vec<String>,
}

/// A world held as its generation plan instead of materialized state.
/// Exposes the same scan-facing surface as [`crate::World`] — a nameserver
/// inventory, a delegation registry, metadata, scan targets and a
/// [`ScanBlueprint`] — but its authoritative zones exist only while a scan
/// shard holds them.
pub struct StreamWorld {
    /// Generation parameters.
    pub config: WorldConfig,
    /// True delegations: root, TLDs, and every target's delegation (used
    /// by the scan for exactly-delegated-pair exclusion).
    pub registry: DelegationRegistry,
    /// Internet metadata (AS / geo / cert) for the addresses the scan and
    /// classifier touch.
    pub db: NetDb,
    /// Passive-DNS history (stream worlds start with an empty view; the
    /// classifier's pdns checks simply never fire).
    pub pdns: PassiveDns,
    /// Full nameserver inventory.
    pub nameservers: Vec<NsInfo>,
    pub(crate) plan: Arc<StreamPlan>,
}

impl StreamWorld {
    /// Plan the world `config` describes, materializing none of its
    /// providers. Deterministic in the config; every preset is accepted.
    pub fn generate(config: WorldConfig) -> StreamWorld {
        let tranco = TrancoList::generate(config.seed ^ 0x5452, config.top_domains);
        let plan = Arc::new(StreamPlan::new(&config, &tranco));
        let mut db = plan.base_db();
        // The hosting and C2 blocks, coarsely: the eager world registers
        // each.
        db.add_prefix("30.0.0.0/8".parse().expect("cidr"), 65_000, "HostingNet");
        for prefix in ["40.0.0.0/8", "41.0.0.0/8"] {
            db.add_prefix(prefix.parse().expect("cidr"), 64_666, "BulletProofNet");
        }
        StreamWorld {
            registry: plan.registry(),
            db,
            pdns: PassiveDns::new(),
            nameservers: plan.nameservers(),
            config,
            plan,
        }
    }

    /// All scan targets: the ranked apexes plus the case-study FQDNs, as
    /// [`crate::World::scan_targets`] lists them.
    pub fn scan_targets(&self) -> Vec<Name> {
        let mut v = self.plan.targets.clone();
        v.extend(self.plan.extra_targets.iter().cloned());
        v
    }

    /// Ground truth of legitimate hosting, in target order: what the
    /// correct-record database is synthesized from.
    pub fn legit_sites(&self) -> impl Iterator<Item = LegitSite> + '_ {
        (0..self.plan.targets.len()).map(|i| self.plan.legit_site(i))
    }

    /// The lazy scan blueprint: shard fabrics materialize only their
    /// scoped providers (see [`ScanBlueprint::build_network_scoped`]).
    pub fn scan_blueprint(&self) -> ScanBlueprint {
        ScanBlueprint::lazy(self.config.seed ^ 0x4E45, self.plan.clone())
    }

    /// Every protective nameserver as `(ns_ip, warning_ip, warning_txt)` —
    /// exactly what probing each server with an unhosted canary would
    /// record, synthesized from the plan instead of probed.
    pub fn protective_servers(&self) -> Vec<(Ipv4Addr, Ipv4Addr, String)> {
        let mut out = Vec::new();
        let providers = self.plan.providers.iter();
        for prov in providers.filter(|p| p.policy.protective_records) {
            let name = &prov.name;
            let txt = format!("v=warning; domain not hosted on {name}; see status page");
            out.extend(
                prov.fleet
                    .iter()
                    .map(|f| (f.1, prov.protective_ip, txt.clone())),
            );
        }
        out
    }
}
