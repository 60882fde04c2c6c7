//! Streaming world generation for paper-scale scans.
//!
//! [`World::generate`](crate::World::generate) materializes every account,
//! zone and fabric node eagerly — fine up to the `medium` preset, but a
//! paper-scale inventory (8,941 nameservers × top-2K targets) or the `xl`
//! stress preset would hold millions of zone records resident for the whole
//! run. [`StreamWorld`] keeps only the *plan*: a compact, seed-derived
//! description of providers, fleets, legitimate hosting and attack
//! campaigns. Zones are materialized per provider, on demand, when a scan
//! shard asks the lazy [`ScanBlueprint`] for its slice of the fabric
//! ([`ScanBlueprint::build_network_scoped`]), and dropped with the shard.
//!
//! Everything is a pure function of the config seed: building the same
//! provider twice — in any shard context, in any order — yields the same
//! zones with the same creation sequence, so the sequential streamed scan
//! is deterministic end to end.

use crate::config::WorldConfig;
use crate::psl::PublicSuffixList;
use crate::tranco::TrancoList;
use crate::world::{NsInfo, ProviderMeta, ScanBlueprint};
use authdns::{DelegationRegistry, DomainClass, HostingPolicy, HostingProvider, NsAllocation};
use dnswire::{Name, RData, Record};
use intern::InternedName;
use netdb::{CertInfo, GeoInfo, NetDb};
use pdns::PassiveDns;
use simnet::{LatencyModel, Network, SimDuration};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// splitmix64 finalizer: the deterministic hash behind every plan-derived
/// choice (provider policies, campaign placement, delegation subsets).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Two-input convenience over [`mix`].
fn mix2(seed: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(a.wrapping_mul(0x9E37).wrapping_add(b)))
}

/// One legitimately hosted scan target: the ground truth the correct-record
/// database is synthesized from (stream worlds have no resolver fleet to
/// probe — the plan *is* the ground truth).
#[derive(Debug, Clone)]
pub struct LegitSite {
    /// The target apex.
    pub domain: Name,
    /// Its legitimate addresses.
    pub ips: Vec<Ipv4Addr>,
    /// Its SPF TXT record, when the site publishes one.
    pub spf: Option<String>,
}

/// One provider in the streaming plan — everything needed to rebuild its
/// control plane from scratch.
#[derive(Debug)]
struct StreamProviderSpec {
    name: String,
    policy: HostingPolicy,
    fleet: Vec<(Name, Ipv4Addr)>,
    protective_ip: Ipv4Addr,
}

/// One attack campaign: an undelegated zone for `target` planted at
/// `provider`, answering `A → c2` (or an SPF-style TXT naming the C2).
#[derive(Debug, Clone, Copy)]
struct StreamCampaign {
    target: u32,
    txt: bool,
    c2: Ipv4Addr,
}

/// The compact generation plan behind a [`StreamWorld`] and its lazy
/// [`ScanBlueprint`]. Shared via [`Arc`]; building a provider from it is a
/// pure function, so shard workers can materialize disjoint slices
/// concurrently or sequentially with identical results.
#[derive(Debug)]
pub(crate) struct StreamPlan {
    seed: u64,
    specs: Vec<StreamProviderSpec>,
    targets: Vec<Name>,
    /// Provider hosting each target's legitimate zone.
    legit_host: Vec<u32>,
    legit_ips: Vec<Ipv4Addr>,
    spf: Vec<bool>,
    /// Campaigns grouped by provider: `by_provider[p]` indexes `campaigns`.
    campaigns: Vec<StreamCampaign>,
    by_provider: Vec<(u32, u32)>,
    /// Nameserver address → owning provider.
    node_provider: HashMap<Ipv4Addr, u32>,
}

impl StreamPlan {
    /// Total nameserver nodes across every provider fleet.
    pub(crate) fn nameserver_count(&self) -> usize {
        self.node_provider.len()
    }

    /// Materialize provider `p`'s full control plane: legitimate zones for
    /// the targets it hosts, then campaign zones, in fixed plan order.
    /// Pure in `p` — every call yields byte-identical zone tables.
    fn build_provider(&self, p: usize) -> HostingProvider {
        let spec = &self.specs[p];
        let mut prov = HostingProvider::new(
            &spec.name,
            spec.policy.clone(),
            spec.fleet.clone(),
            spec.protective_ip,
            self.seed ^ (p as u64).wrapping_mul(0x9E37),
        );
        let acct = prov.create_account();
        for (i, target) in self.targets.iter().enumerate() {
            if self.legit_host[i] != p as u32 {
                continue;
            }
            let zid = prov
                .host_domain(acct, target, DomainClass::RegisteredSld)
                .expect("stream legit zone hosts");
            prov.set_verified(zid);
            prov.add_record(
                zid,
                Record::new(target.clone(), 300, RData::A(self.legit_ips[i])),
            );
            if self.spf[i] {
                prov.add_record(
                    zid,
                    Record::new(
                        target.clone(),
                        300,
                        RData::txt_from_str(&spf_txt(self.legit_ips[i])),
                    ),
                );
            }
        }
        let (start, end) = self.by_provider[p];
        for c in &self.campaigns[start as usize..end as usize] {
            let target = &self.targets[c.target as usize];
            // Duplicate-policy rejections (two campaigns landing on the
            // same pair) are part of the plan: the rejected zone simply
            // never exists, deterministically.
            let Ok(zid) = prov.host_domain(acct, target, DomainClass::RegisteredSld) else {
                continue;
            };
            prov.set_verified(zid);
            let rdata = if c.txt {
                RData::txt_from_str(&spf_txt(c.c2))
            } else {
                RData::A(c.c2)
            };
            prov.add_record(zid, Record::new(target.clone(), 300, rdata));
        }
        prov
    }

    /// Attach nameserver nodes to a replica fabric: all of them
    /// (`scope = None`), or exactly the scoped addresses. Each provider
    /// with at least one attached node is materialized once and shared
    /// across its nodes.
    pub(crate) fn attach_nodes(&self, net: &mut Network, scope: Option<&[Ipv4Addr]>) {
        let mut built: HashMap<u32, Arc<HostingProvider>> = HashMap::new();
        let attach = |net: &mut Network,
                      built: &mut HashMap<u32, Arc<HostingProvider>>,
                      plan: &StreamPlan,
                      ip: Ipv4Addr,
                      p: u32| {
            let prov = built
                .entry(p)
                .or_insert_with(|| Arc::new(plan.build_provider(p as usize)))
                .clone();
            net.add_node(ip, Box::new(authdns::SharedProviderNs::new(prov, ip)));
        };
        match scope {
            Some(ips) => {
                for &ip in ips {
                    let p = *self
                        .node_provider
                        .get(&ip)
                        .expect("scoped address is a plan nameserver");
                    attach(net, &mut built, self, ip, p);
                }
            }
            None => {
                for spec in &self.specs {
                    for &(_, ip) in &spec.fleet {
                        let p = self.node_provider[&ip];
                        attach(net, &mut built, self, ip, p);
                    }
                }
            }
        }
    }
}

/// The SPF-style TXT body both legitimate sites and TXT campaigns publish.
fn spf_txt(ip: Ipv4Addr) -> String {
    format!("v=spf1 ip4:{ip} -all")
}

/// A paper-scale world held as a generation plan instead of materialized
/// state. Exposes the same scan-facing surface as [`crate::World`] — a
/// nameserver inventory, a delegation registry, metadata, scan targets and
/// a [`ScanBlueprint`] — but its authoritative zones exist only while a
/// scan shard holds them (the plan is the single source of truth).
pub struct StreamWorld {
    /// Generation parameters (`total_nameservers` must be set).
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
    /// Per-provider metadata, index-aligned with the plan's providers.
    pub provider_meta: Vec<ProviderMeta>,
    /// Ground truth of legitimate hosting, index-aligned with the targets
    /// — what the correct-record database is synthesized from.
    pub legit: Vec<LegitSite>,
    /// Interned target apexes (pre-interned at generation so the scan's
    /// per-UR interning always hits).
    pub target_ids: Vec<InternedName>,
    latency: LatencyModel,
    plan: Arc<StreamPlan>,
}

impl StreamWorld {
    /// Generate the plan-backed world. Deterministic in the config.
    ///
    /// # Panics
    /// Panics when `config.total_nameservers` is `None` — eager presets
    /// belong to [`crate::World::generate`].
    pub fn generate(config: WorldConfig) -> StreamWorld {
        let total_ns = config
            .total_nameservers
            .expect("StreamWorld needs config.total_nameservers (paper/xl presets)");
        let providers = config.synthetic_providers.max(1);
        let seed = config.seed;
        let tranco = TrancoList::generate(seed ^ 0x5452, config.top_domains);
        let targets: Vec<Name> = tranco.domains().to_vec();
        let psl = PublicSuffixList::standard();

        let mut registry = DelegationRegistry::new();
        registry.set_root(Ipv4Addr::new(198, 41, 0, 4));
        let mut db = NetDb::new();
        let mut tlds: Vec<Name> = psl.suffixes().cloned().collect();
        tlds.sort();
        for (i, tld) in tlds.iter().enumerate() {
            let ip = Ipv4Addr::new(192, 5, (6 + i / 200) as u8, (i % 200 + 1) as u8);
            registry.add_tld(tld.clone(), ip);
        }
        db.add_prefix("192.5.0.0/16".parse().expect("cidr"), 64_496, "RegistryNet");
        db.add_prefix(
            "22.0.0.0/8".parse().expect("cidr"),
            64_600,
            "StreamFleetNet",
        );
        db.add_prefix("23.0.0.0/8".parse().expect("cidr"), 64_601, "StreamWarnNet");
        db.add_prefix("30.0.0.0/8".parse().expect("cidr"), 65_000, "HostingNet");
        db.add_prefix(
            "41.0.0.0/8".parse().expect("cidr"),
            64_666,
            "BulletProofNet",
        );

        // Provider fleets: `total_ns` addresses split as evenly as the
        // count divides, every provider above the selection threshold so
        // the selected inventory is exactly the paper's server count.
        let mut specs: Vec<StreamProviderSpec> = Vec::with_capacity(providers);
        let mut node_provider: HashMap<Ipv4Addr, u32> = HashMap::with_capacity(total_ns);
        let mut nameservers: Vec<NsInfo> = Vec::with_capacity(total_ns);
        let mut provider_meta: Vec<ProviderMeta> = Vec::with_capacity(providers);
        let mut g = 0usize;
        for p in 0..providers {
            let fleet_len = total_ns / providers + usize::from(p < total_ns % providers);
            let fleet_len = fleet_len.max(1);
            let mut fleet = Vec::with_capacity(fleet_len);
            for k in 0..fleet_len {
                let ip = Ipv4Addr::new(
                    22,
                    (g / 62_500) as u8,
                    (g / 250 % 250) as u8,
                    (g % 250 + 1) as u8,
                );
                let name: Name = format!("ns{}.stream{p}-dns.net", k + 1)
                    .parse()
                    .expect("stream ns name parses");
                fleet.push((name, ip));
                node_provider.insert(ip, p as u32);
                g += 1;
            }
            let mut policy = HostingPolicy::godaddy();
            policy.allocation = NsAllocation::GlobalFixed;
            policy.protective_records = mix2(seed ^ 0x5052, p as u64, 0) % 100 < 30;
            let protective_ip = Ipv4Addr::new(23, (p / 250) as u8, (p % 250) as u8, 1);
            let tail = 60 + (mix2(seed ^ 0x5441, p as u64, 1) % 2_000) as u32;
            let pname = format!("StreamDNS-{p:03}");
            for (ns_name, ip) in &fleet {
                nameservers.push(NsInfo {
                    ip: *ip,
                    name: ns_name.clone(),
                    provider: pname.clone(),
                    provider_idx: Some(p),
                    tail_hosted_sites: tail,
                });
            }
            provider_meta.push(ProviderMeta {
                name: pname.clone(),
                tail_hosted_sites: tail,
                protective_ip,
            });
            specs.push(StreamProviderSpec {
                name: pname,
                policy,
                fleet,
                protective_ip,
            });
        }

        // Legitimate hosting: every target lives at a plan provider, with
        // a deterministic delegation to two of its fleet addresses.
        let mut legit_host = Vec::with_capacity(targets.len());
        let mut legit_ips = Vec::with_capacity(targets.len());
        let mut spf = Vec::with_capacity(targets.len());
        let mut legit = Vec::with_capacity(targets.len());
        let mut target_ids = Vec::with_capacity(targets.len());
        for (i, domain) in targets.iter().enumerate() {
            let host = (mix2(seed ^ 0x4C48, i as u64, 2) % providers as u64) as u32;
            let ip = Ipv4Addr::new(
                30,
                (i / 250 / 250) as u8,
                (i / 250 % 250) as u8,
                (i % 250) as u8,
            );
            let with_spf = mix2(seed ^ 0x5350, i as u64, 3) % 10 < 6;
            db.set_geo(ip, GeoInfo::new("US", (i % 500) as u16));
            db.set_cert(ip, CertInfo::for_domain(&domain.to_string(), "SimCA"));
            let fleet = &specs[host as usize].fleet;
            let start = (mix2(seed ^ 0x4445, i as u64, 4) % fleet.len() as u64) as usize;
            let delegation: Vec<(Name, Ipv4Addr)> = (0..2.min(fleet.len()))
                .map(|k| fleet[(start + k) % fleet.len()].clone())
                .collect();
            registry.delegate(domain, delegation);
            legit_host.push(host);
            legit_ips.push(ip);
            spf.push(with_spf);
            legit.push(LegitSite {
                domain: domain.clone(),
                ips: vec![ip],
                spf: with_spf.then(|| spf_txt(ip)),
            });
            target_ids.push(InternedName::intern(domain));
        }

        // Campaigns, grouped by provider so a provider build touches one
        // contiguous slice. A campaign never lands at its target's
        // legitimate host — the legit zone (older) would shadow it.
        let mut per_provider: Vec<Vec<StreamCampaign>> = vec![Vec::new(); providers];
        for j in 0..config.attack_campaigns {
            let target = (mix2(seed ^ 0x4341, j as u64, 5) % targets.len() as u64) as u32;
            let mut p = (mix2(seed ^ 0x4350, j as u64, 6) % providers as u64) as usize;
            if p as u32 == legit_host[target as usize] {
                p = (p + 1) % providers;
            }
            let c2 = Ipv4Addr::new(
                41,
                (j / 62_500) as u8,
                (j / 250 % 250) as u8,
                (j % 250 + 2) as u8,
            );
            let txt = mix2(seed ^ 0x5458, j as u64, 7) % 100
                < (config.label_only_fraction * 100.0) as u64;
            per_provider[p].push(StreamCampaign { target, txt, c2 });
        }
        let mut campaigns = Vec::with_capacity(config.attack_campaigns);
        let mut by_provider = Vec::with_capacity(providers);
        for list in per_provider {
            let start = campaigns.len() as u32;
            campaigns.extend(list);
            by_provider.push((start, campaigns.len() as u32));
        }

        let plan = Arc::new(StreamPlan {
            seed,
            specs,
            targets,
            legit_host,
            legit_ips,
            spf,
            campaigns,
            by_provider,
            node_provider,
        });
        StreamWorld {
            config,
            registry,
            db,
            pdns: PassiveDns::new(),
            nameservers,
            provider_meta,
            legit,
            target_ids,
            latency: LatencyModel {
                base: SimDuration::from_millis(5),
                per_pair_spread_us: 45_000,
            },
            plan,
        }
    }

    /// All scan targets (the ranked apexes; stream worlds carry no
    /// case-study extras).
    pub fn scan_targets(&self) -> Vec<Name> {
        self.plan.targets.clone()
    }

    /// The lazy scan blueprint: shard fabrics materialize only their
    /// scoped providers (see [`ScanBlueprint::build_network_scoped`]).
    pub fn scan_blueprint(&self) -> ScanBlueprint {
        ScanBlueprint::lazy(self.config.seed ^ 0x4E45, self.latency, self.plan.clone())
    }

    /// Every protective nameserver as `(ns_ip, warning_ip, warning_txt)` —
    /// exactly what probing each server with an unhosted canary would
    /// record, synthesized from the plan instead of probed.
    pub fn protective_servers(&self) -> Vec<(Ipv4Addr, Ipv4Addr, String)> {
        let mut out = Vec::new();
        for spec in &self.plan.specs {
            if !spec.policy.protective_records {
                continue;
            }
            let txt = format!(
                "v=warning; domain not hosted on {}; see status page",
                spec.name
            );
            for &(_, ip) in &spec.fleet {
                out.push((ip, spec.protective_ip, txt.clone()));
            }
        }
        out
    }

    /// How many distinct campaign zones the plan will materialize (pairs
    /// rejected by duplicate policy excluded) — ground truth for coverage
    /// assertions.
    pub fn planned_campaigns(&self) -> usize {
        self.plan.campaigns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> WorldConfig {
        let mut cfg = WorldConfig::xl();
        cfg.top_domains = 40;
        cfg.synthetic_providers = 6;
        cfg.attack_campaigns = 120;
        cfg.total_nameservers = Some(30);
        cfg
    }

    #[test]
    fn generation_is_deterministic() {
        let a = StreamWorld::generate(tiny_config());
        let b = StreamWorld::generate(tiny_config());
        assert_eq!(a.nameservers.len(), b.nameservers.len());
        assert_eq!(a.legit.len(), b.legit.len());
        for (x, y) in a.nameservers.iter().zip(&b.nameservers) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.provider, y.provider);
        }
        for (x, y) in a.legit.iter().zip(&b.legit) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.ips, y.ips);
            assert_eq!(x.spf, y.spf);
        }
    }

    #[test]
    fn fleet_covers_requested_inventory() {
        let w = StreamWorld::generate(tiny_config());
        assert_eq!(w.nameservers.len(), 30);
        let distinct: std::collections::HashSet<Ipv4Addr> =
            w.nameservers.iter().map(|ns| ns.ip).collect();
        assert_eq!(distinct.len(), 30, "fleet addresses must be unique");
        assert_eq!(w.scan_blueprint().node_count(), 30);
    }

    #[test]
    fn provider_builds_are_pure() {
        let w = StreamWorld::generate(tiny_config());
        let a = w.plan.build_provider(0);
        let b = w.plan.build_provider(0);
        assert_eq!(a.zones().len(), b.zones().len());
        for (x, y) in a.zones().iter().zip(b.zones().iter()) {
            assert_eq!(x.zone.apex(), y.zone.apex());
        }
        assert!(!a.zones().is_empty(), "provider 0 should host something");
    }

    #[test]
    fn every_target_is_delegated_to_its_host() {
        let w = StreamWorld::generate(tiny_config());
        for (i, site) in w.legit.iter().enumerate() {
            let delegation = w
                .registry
                .delegation_of(&site.domain)
                .expect("stream target delegated");
            let host = w.plan.legit_host[i] as usize;
            let fleet: std::collections::HashSet<Ipv4Addr> =
                w.plan.specs[host].fleet.iter().map(|(_, ip)| *ip).collect();
            assert!(delegation.iter().all(|(_, ip)| fleet.contains(ip)));
        }
    }

    #[test]
    fn scoped_fabric_answers_like_full_fabric() {
        use dnswire::RecordType;
        let w = StreamWorld::generate(tiny_config());
        let bp = w.scan_blueprint();
        let full = bp.build_network(0);
        let scope: Vec<Ipv4Addr> = w.nameservers.iter().take(5).map(|ns| ns.ip).collect();
        let scoped = bp.build_network_scoped(0, &scope);
        // Probe one scoped server in both fabrics with a hosted target.
        let target = &w.legit[0].domain;
        let p = w.plan.node_provider[&scope[0]] as usize;
        let (prov_full, prov_again) = (w.plan.build_provider(p), w.plan.build_provider(p));
        let answer = prov_full.answer(scope[0], target.borrowed(), RecordType::A);
        let again = prov_again.answer(scope[0], target.borrowed(), RecordType::A);
        assert_eq!(
            format!("{answer:?}"),
            format!("{again:?}"),
            "plan-built providers answer identically"
        );
        // Both fabrics must have the scoped node attached.
        assert!(full.has_node(scope[0]));
        assert!(scoped.has_node(scope[0]));
    }
}
