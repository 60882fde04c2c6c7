//! Assembly of the full synthetic internet: delegation hierarchy,
//! providers, legitimate hosting, misconfigurations, attackers, threat
//! intel, resolvers and the sandbox.

use crate::attacker::{plant_campaigns, shuffle, AttackerPlan, DetectionClass, PlantedUr};
use crate::config::WorldConfig;
use crate::providers::{named_providers, synthetic_providers, ProviderSpec};
use crate::psl::PublicSuffixList;
use crate::tranco::TrancoList;
use authdns::{
    AnswerMap, DelegationRegistry, DomainClass, HostingProvider, OracleRecursiveNs, ProviderNsNode,
    SharedOracleNs, SharedProviderNs, StaticZoneNode, Zone, ZoneId,
};
use dnswire::{Name, RData, Record, RecordType};
use fxhash::FxHashSet;
use intel::{
    malware, IdsEngine, IntelAggregator, MalwareSample, PayloadSignatureDb, Sandbox, ThreatTag,
    VendorFeed,
};
use netdb::{CertInfo, GeoInfo, HttpProfile, NetDb};
use pdns::PassiveDns;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use recursor::{Manipulation, RecursorNode};
use simnet::{LatencyModel, Network};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// Countries used for geo spread.
const COUNTRIES: [&str; 8] = ["US", "DE", "JP", "CN", "NL", "BR", "IN", "GB"];

/// Metadata about one provider in the world.
#[derive(Debug, Clone)]
pub struct ProviderMeta {
    /// Display name.
    pub name: String,
    /// Long-tail hosted-site count (drives nameserver selection).
    pub(crate) tail_hosted_sites: u32,
    /// Protective-record target address.
    pub protective_ip: Ipv4Addr,
}

/// One nameserver in the world inventory.
#[derive(Debug, Clone)]
pub struct NsInfo {
    /// The server's address.
    pub ip: Ipv4Addr,
    /// Provider display name.
    pub provider: String,
    /// Index into `World::providers`, or `None` for standalone servers
    /// (misconfigured recursive NS).
    pub provider_idx: Option<usize>,
    /// Top-1M sites hosted through this server's provider.
    pub tail_hosted_sites: u32,
}

/// Information about one open resolver.
#[derive(Debug, Clone, Copy)]
pub struct OpenResolverInfo {
    /// The resolver's address.
    pub ip: Ipv4Addr,
    /// Stable for two years (URHunter only uses stable ones).
    pub stable: bool,
    /// Whether the resolver manipulates answers.
    pub manipulated: bool,
}

/// Ground truth retained for verification in tests and experiments.
#[derive(Debug, Default)]
pub struct GroundTruth {
    /// Attacker campaigns (including the case studies).
    pub campaigns: Vec<PlantedUr>,
    /// Domains with benign-misconfiguration URs: `(domain, provider_idx)`.
    pub(crate) benign_unknown: Vec<(Name, usize)>,
    /// Stale past-delegation zones: `(domain, provider_idx, old_ip)`.
    pub past_delegations: Vec<(Name, usize, Ipv4Addr)>,
    /// Parked-page URs: `(domain, provider_idx)`.
    pub parked: Vec<(Name, usize)>,
    /// Misconfigured recursive nameserver addresses.
    pub oracle_ns_ips: Vec<Ipv4Addr>,
    /// Case-study campaign indices into `campaigns` by label.
    pub case_studies: HashMap<&'static str, usize>,
    /// Indices into `campaigns` expired by [`World::evolve`].
    pub expired_campaigns: Vec<usize>,
}

impl GroundTruth {
    /// All C2 addresses of campaigns in a detection class.
    pub fn c2_ips_of(&self, class: DetectionClass) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self
            .campaigns
            .iter()
            .filter(|c| c.detection == class)
            .flat_map(|c| c.c2_ips.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// The assembled world.
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// The event fabric with every node attached.
    pub net: Network,
    /// Internet metadata (AS / geo / cert / HTTP).
    pub db: NetDb,
    /// True delegations (root/TLD contents).
    pub registry: DelegationRegistry,
    /// Public-suffix list.
    pub psl: PublicSuffixList,
    /// Popularity ranking.
    pub tranco: TrancoList,
    /// Passive-DNS history.
    pub pdns: PassiveDns,
    /// Aggregated vendor feeds.
    pub intel: IntelAggregator,
    /// IDS engine.
    pub ids: IdsEngine,
    /// Known malware payload signatures; no pipeline stage reads them.
    pub payload_sigs: PayloadSignatureDb,
    /// The sandbox's malware corpus.
    pub samples: Vec<MalwareSample>,
    /// Hosting providers (shared with their NS nodes).
    pub providers: Vec<Rc<RefCell<HostingProvider>>>,
    /// Per-provider metadata, index-aligned with `providers`.
    pub provider_meta: Vec<ProviderMeta>,
    /// Full nameserver inventory (provider NS + standalone).
    pub nameservers: Vec<NsInfo>,
    /// Open resolver fleet.
    pub resolvers: Vec<OpenResolverInfo>,
    /// Sandbox configuration (victim + default resolver).
    pub sandbox: Sandbox,
    /// Ground truth for verification.
    pub truth: GroundTruth,
    /// Extra FQDNs (case-study subdomains) the scanner should probe in
    /// addition to the ranked apexes.
    pub extra_targets: Vec<Name>,
    /// Ground-truth answer table backing the oracle nodes, retained so
    /// scan shards can snapshot it.
    pub answer_map: Rc<RefCell<AnswerMap>>,
}

impl World {
    /// Generate a world from a config. Deterministic in the config.
    pub fn generate(config: WorldConfig) -> World {
        Builder::new(config).build()
    }

    /// All scan targets: ranked apexes plus case-study FQDNs.
    pub fn scan_targets(&self) -> Vec<Name> {
        let mut v: Vec<Name> = self.tranco.domains().to_vec();
        v.extend(self.extra_targets.iter().cloned());
        v
    }

    /// The provider index by display name.
    pub fn provider_index(&self, name: &str) -> Option<usize> {
        self.provider_meta.iter().position(|m| m.name == name)
    }

    /// Advance the world by `days`: a fraction of existing campaigns
    /// expire (attackers abandon their zones), new campaigns appear, and
    /// the passive-DNS clock moves forward, saturating. Deterministic in `seed`.
    ///
    /// Models the longitudinal reality the paper observed between its
    /// April and December 2022 measurements and in the Dark.IoT
    /// variants' infrastructure churn.
    pub fn evolve(&mut self, days: u32, new_campaigns: usize, expire_fraction: f64, seed: u64) {
        self.config.today = self.config.today.saturating_add(days);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x45564F);
        // Expire campaigns (case studies stay, matching §5.3's "the
        // masquerading records can still be resolved at the time of
        // writing").
        let case_study_indices: std::collections::HashSet<usize> =
            self.truth.case_studies.values().copied().collect();
        for (idx, c) in self.truth.campaigns.iter().enumerate() {
            if case_study_indices.contains(&idx) || self.truth.expired_campaigns.contains(&idx) {
                continue;
            }
            if rng.random_bool(expire_fraction.clamp(0.0, 1.0)) {
                self.providers[c.provider]
                    .borrow_mut()
                    .deactivate_zone(c.zone);
                self.truth.expired_campaigns.push(idx);
            }
        }
        // Plant the next wave, with C2 blocks offset past every campaign
        // planted so far.
        let weights: Vec<u64> = self
            .provider_meta
            .iter()
            .map(|m| m.tail_hosted_sites as u64 + 1)
            .collect();
        let offset = self.truth.campaigns.len();
        let mut plan = AttackerPlan {
            rng: &mut rng,
            tranco: &self.tranco,
            providers: &self.providers,
            provider_weights: &weights,
            db: &mut self.db,
            vendors: self.intel.vendors_mut(),
            samples: &mut self.samples,
            campaigns: new_campaigns,
            campaign_offset: offset,
            malicious_fraction: self.config.malicious_campaign_fraction,
            label_only_fraction: self.config.label_only_fraction,
            ids_only_fraction: self.config.ids_only_fraction,
        };
        let planted = plant_campaigns(&mut plan);
        self.truth.campaigns.extend(planted);
    }

    /// Snapshot the authoritative scan surface into a thread-shareable
    /// blueprint from which shard workers build replica fabrics.
    ///
    /// Each provider's control plane is cloned once into an [`Arc`] (the
    /// scan only reads it — [`HostingProvider::answer`] takes `&self`), as
    /// is the oracle ground-truth table. Both clones are copy-on-write, so
    /// the snapshot shares the world's accounts, zones and answer table
    /// rather than copying them: it costs each provider's nameserver fleet
    /// and a few reference counts. The world's next write to a shared
    /// table copies that table while the blueprint lives, so drop it once
    /// the scan is done. Per-shard fabrics share the snapshots in turn.
    pub fn scan_blueprint(&self) -> ScanBlueprint {
        let providers: Vec<Arc<HostingProvider>> = self
            .providers
            .iter()
            .map(|p| Arc::new(p.borrow().clone()))
            .collect();
        let answers = Arc::new(self.answer_map.borrow().clone());
        let nodes = self
            .nameservers
            .iter()
            .map(|ns| {
                let spec = match ns.provider_idx {
                    Some(p) => ScanNodeSpec::Provider(p),
                    None => ScanNodeSpec::Oracle,
                };
                (ns.ip, spec)
            })
            .collect();
        ScanBlueprint {
            fabric_seed: self.config.seed ^ 0x4E45,
            latency: self.net.latency(),
            backing: BlueprintBacking::Eager {
                providers,
                answers,
                nodes,
            },
        }
    }
}

/// A thread-shareable snapshot of the world's authoritative nameservers:
/// everything a scan shard needs to rebuild the server side of the fabric.
///
/// The blueprint is `Send + Sync`; shard workers borrow it and call
/// [`ScanBlueprint::build_network`] to get their own single-threaded
/// replica. Replicas answer bit-identically to the live world because the
/// node snapshots are immutable — an eager blueprint reads the world's own
/// zone tables, shared copy-on-write — and the fabric seed, latency model
/// and per-flow fault seed are copied from the world fabric.
pub struct ScanBlueprint {
    fabric_seed: u64,
    latency: LatencyModel,
    backing: BlueprintBacking,
}

// The parallel streamed scan shares one blueprint across its shard
// workers, each calling `build_network_scoped` concurrently; the lazy
// backing is an `Arc<StreamPlan>` of pure generation functions, so this
// holds by construction. The assertion keeps it a compile error to ever
// put interior-mutable state in here.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<ScanBlueprint>();
};

/// Where a blueprint's node state comes from: an eager snapshot of a built
/// [`World`], or the compact generation plan of a [`crate::StreamWorld`]
/// from which zones are materialized on demand.
enum BlueprintBacking {
    Eager {
        providers: Vec<Arc<HostingProvider>>,
        answers: Arc<AnswerMap>,
        nodes: Vec<(Ipv4Addr, ScanNodeSpec)>,
    },
    Lazy(Arc<crate::stream::StreamPlan>),
}

enum ScanNodeSpec {
    Provider(usize),
    Oracle,
}

impl ScanBlueprint {
    /// A blueprint backed by a streaming generation plan: nodes and zones
    /// are built on demand in [`ScanBlueprint::build_network_scoped`].
    pub(crate) fn lazy(
        fabric_seed: u64,
        latency: LatencyModel,
        plan: Arc<crate::stream::StreamPlan>,
    ) -> Self {
        ScanBlueprint {
            fabric_seed,
            latency,
            backing: BlueprintBacking::Lazy(plan),
        }
    }

    /// An empty replica fabric with the blueprint's seed and latency model.
    fn empty_replica(&self, shard: u64) -> Network {
        let rng_seed = self.fabric_seed ^ shard.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut net = Network::new(self.fabric_seed)
            .with_latency(self.latency)
            .with_rng_seed(rng_seed);
        net.trace.set_enabled(false);
        net
    }

    /// Build shard `shard`'s replica fabric with every nameserver node.
    ///
    /// The replica keeps the world's fabric seed — and therefore its
    /// per-flow fault seed, so a flow's loss lottery is the same no matter
    /// which shard carries it — while the general RNG (non-per-flow fault
    /// draws, corruption bit picks) gets a per-shard derived stream, the
    /// way per-flow fates are derived from `(seed, src, dst, counter)`.
    /// Traffic capture is off: shard probes are accounted via stats and
    /// metrics, not the packet log.
    pub fn build_network(&self, shard: u64) -> Network {
        self.build(shard, None)
    }

    /// Build shard `shard`'s replica with only the nameserver nodes in
    /// `scope`, the addresses the shard probes. An eager blueprint attaches
    /// their snapshots; a lazy one generates accounts and zones for exactly
    /// the providers that own a scoped address, so peak memory is one
    /// shard's slice of the zone tables.
    pub fn build_network_scoped(&self, shard: u64, scope: &[Ipv4Addr]) -> Network {
        self.build(shard, Some(scope))
    }

    fn build(&self, shard: u64, scope: Option<&[Ipv4Addr]>) -> Network {
        let mut net = self.empty_replica(shard);
        match &self.backing {
            BlueprintBacking::Eager {
                providers,
                answers,
                nodes,
            } => {
                let scope: Option<FxHashSet<Ipv4Addr>> =
                    scope.map(|ips| ips.iter().copied().collect());
                for (ip, spec) in nodes {
                    if scope.as_ref().is_some_and(|scope| !scope.contains(ip)) {
                        continue;
                    }
                    let node: Box<dyn simnet::Node> = match spec {
                        ScanNodeSpec::Provider(p) => {
                            Box::new(SharedProviderNs::new(providers[*p].clone(), *ip))
                        }
                        ScanNodeSpec::Oracle => Box::new(SharedOracleNs::new(answers.clone())),
                    };
                    net.add_node(*ip, node);
                }
            }
            BlueprintBacking::Lazy(plan) => plan.attach_nodes(&mut net, scope),
        }
        net
    }
}

struct Builder {
    config: WorldConfig,
    rng: StdRng,
    net: Network,
    db: NetDb,
    registry: DelegationRegistry,
    psl: PublicSuffixList,
    tranco: TrancoList,
    pdns: PassiveDns,
    vendors: Vec<VendorFeed>,
    samples: Vec<MalwareSample>,
    providers: Vec<Rc<RefCell<HostingProvider>>>,
    provider_meta: Vec<ProviderMeta>,
    nameservers: Vec<NsInfo>,
    resolvers: Vec<OpenResolverInfo>,
    truth: GroundTruth,
    answer_map: Rc<RefCell<AnswerMap>>,
    /// Which provider hosts each top domain's legitimate zone (if any).
    legit_host: HashMap<Name, usize>,
    extra_targets: Vec<Name>,
}

impl Builder {
    fn new(config: WorldConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let tranco = TrancoList::generate(config.seed ^ 0x5452, config.top_domains);
        let mut net = Network::new(config.seed ^ 0x4E45).with_latency(LatencyModel {
            base: simnet::SimDuration::from_millis(5),
            per_pair_spread_us: 45_000,
        });
        // Spent payloads go back to the codec's pool, so the support sweep
        // and the sandboxes write their next datagram into a used buffer.
        net.set_payload_recycler(Some(dnswire::bufpool::release));
        Builder {
            rng,
            net,
            db: NetDb::new(),
            registry: DelegationRegistry::new(),
            psl: PublicSuffixList::standard(),
            tranco,
            pdns: PassiveDns::new(),
            vendors: Vec::new(),
            samples: Vec::new(),
            providers: Vec::new(),
            provider_meta: Vec::new(),
            nameservers: Vec::new(),
            resolvers: Vec::new(),
            truth: GroundTruth::default(),
            answer_map: Rc::new(RefCell::new(AnswerMap::new())),
            legit_host: HashMap::new(),
            extra_targets: Vec::new(),
            config,
        }
    }

    fn build(mut self) -> World {
        self.build_hierarchy();
        self.build_vendors();
        self.build_providers();
        self.host_legit_domains();
        self.plant_past_delegations();
        self.plant_parked_and_misconfig();
        self.install_reserved_lists();
        self.build_oracle_ns();
        self.plant_case_studies();
        self.plant_generic_campaigns();
        self.build_resolvers();
        self.attach_tld_nodes();

        let sandbox_resolver = Ipv4Addr::new(9, 9, 9, 9);
        self.net.add_node(
            sandbox_resolver,
            Box::new(RecursorNode::new(
                sandbox_resolver,
                self.registry.root_ip(),
                self.config.seed ^ 0x5342,
            )),
        );
        let sandbox = Sandbox::new(Ipv4Addr::new(10, 99, 0, 1), sandbox_resolver);

        let mut intel = IntelAggregator::new();
        for feed in self.vendors {
            intel.add_vendor(feed);
        }

        World {
            config: self.config,
            net: self.net,
            db: self.db,
            registry: self.registry,
            psl: self.psl,
            tranco: self.tranco,
            pdns: self.pdns,
            intel,
            ids: IdsEngine::standard_ruleset(),
            payload_sigs: PayloadSignatureDb::new(),
            samples: self.samples,
            providers: self.providers,
            provider_meta: self.provider_meta,
            nameservers: self.nameservers,
            resolvers: self.resolvers,
            sandbox,
            truth: self.truth,
            extra_targets: self.extra_targets,
            answer_map: self.answer_map,
        }
    }

    /// Root + TLD zones for every public suffix plus any TLD the ranked
    /// list uses.
    fn build_hierarchy(&mut self) {
        self.registry.set_root(Ipv4Addr::new(198, 41, 0, 4));
        let mut tlds: Vec<Name> = self.psl.suffixes().cloned().collect();
        tlds.sort();
        for (i, tld) in tlds.iter().enumerate() {
            let ip = Ipv4Addr::new(192, 5, (6 + i / 200) as u8, (i % 200 + 1) as u8);
            self.registry.add_tld(tld.clone(), ip);
            self.db.set_geo(ip, GeoInfo::new("US", 1));
        }
        self.db
            .add_prefix("192.5.0.0/16".parse().expect("cidr"), 64_496, "RegistryNet");
        self.db.add_prefix(
            "198.41.0.0/24".parse().expect("cidr"),
            64_496,
            "RegistryNet",
        );
    }

    fn build_vendors(&mut self) {
        for name in [
            "SimVT",
            "QAX-Alpha",
            "360-TI",
            "FalconEye",
            "NetGuard",
            "Sentry1",
            "DeepTrace",
            "IronWall",
            "KitShield",
            "ArborX",
            "ClearSky",
            "OwlSec",
        ] {
            self.vendors.push(VendorFeed::new(name));
        }
    }

    /// Instantiate providers, attach their NS nodes, and host each
    /// provider's own infrastructure zone (delegated, so the recursor can
    /// resolve out-of-bailiwick NS names).
    fn build_providers(&mut self) {
        let mut specs: Vec<ProviderSpec> = named_providers();
        specs.extend(synthetic_providers(
            &mut self.rng,
            self.config.synthetic_providers,
            self.config.ns_per_synthetic,
        ));
        for (p_idx, spec) in specs.into_iter().enumerate() {
            assert!(p_idx < 250, "provider index overflows the 20.x/16 plan");
            let slug: String = spec
                .name
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            let infra_domain: Name = format!("{slug}-dns.net")
                .parse()
                .expect("provider infra domain parses");
            let fleet: Vec<(Name, Ipv4Addr)> = (0..spec.ns_count)
                .map(|i| {
                    let name: Name = format!("ns{}.{slug}-dns.net", i + 1)
                        .parse()
                        .expect("ns name parses");
                    (
                        name,
                        Ipv4Addr::new(20, p_idx as u8, (i / 200) as u8, (i % 200 + 1) as u8),
                    )
                })
                .collect();
            let protective_ip = Ipv4Addr::new(20, p_idx as u8, 255, 1);
            let provider = Rc::new(RefCell::new(HostingProvider::new(
                &spec.name,
                spec.policy.clone(),
                fleet.clone(),
                protective_ip,
                self.config.seed ^ (p_idx as u64).wrapping_mul(0x9E37),
            )));
            // Fabric nodes + metadata.
            self.db.add_prefix(
                netdb::Cidr::new(Ipv4Addr::new(20, p_idx as u8, 0, 0), 16),
                64_600 + p_idx as u32,
                &spec.name,
            );
            for (i, (_, ip)) in fleet.iter().enumerate() {
                self.net
                    .add_node(*ip, Box::new(ProviderNsNode::new(provider.clone(), *ip)));
                self.db
                    .set_geo(*ip, GeoInfo::new(COUNTRIES[i % COUNTRIES.len()], i as u16));
                self.nameservers.push(NsInfo {
                    ip: *ip,
                    provider: spec.name.clone(),
                    provider_idx: Some(p_idx),
                    tail_hosted_sites: spec.tail_hosted_sites,
                });
            }
            if spec.policy.protective_records {
                self.db
                    .set_http(protective_ip, HttpProfile::provider_warning(&spec.name));
                self.db.set_geo(protective_ip, GeoInfo::new("US", 250));
            }
            // Infrastructure zone with A records for every NS name.
            {
                let mut p = provider.borrow_mut();
                let infra_acct = p.create_account();
                let zid = p
                    .host_domain(infra_acct, &infra_domain, DomainClass::RegisteredSld)
                    .expect("infra zone hosts");
                p.set_verified(zid);
                for (ns_name, ip) in &fleet {
                    p.add_record(zid, Record::new(ns_name.clone(), 3600, RData::A(*ip)));
                }
                let serving = p.serving_nameservers(zid);
                let delegation: Vec<(Name, Ipv4Addr)> = serving.into_iter().take(4).collect();
                drop(p);
                self.registry.delegate(&infra_domain, delegation);
            }
            self.provider_meta.push(ProviderMeta {
                name: spec.name.clone(),
                tail_hosted_sites: spec.tail_hosted_sites,
                protective_ip,
            });
            self.providers.push(provider);
        }
    }

    /// Host every ranked domain legitimately (provider or self-hosted),
    /// fill metadata and passive DNS, and record ground-truth answers.
    fn host_legit_domains(&mut self) {
        // Case-study domains must not live at the providers their attackers
        // will later abuse.
        let forbidden: HashMap<Name, Vec<&str>> = [
            ("github.com", vec!["ClouDNS"]),
            ("ibm.com", vec!["ClouDNS"]),
            ("gitlab.com", vec!["ClouDNS"]),
            ("pastebin.com", vec!["ClouDNS"]),
            ("speedtest.net", vec!["Namecheap", "CSC"]),
        ]
        .into_iter()
        .map(|(d, v)| (d.parse::<Name>().expect("static"), v))
        .collect();

        let weights: Vec<u64> = self
            .provider_meta
            .iter()
            .map(|m| m.tail_hosted_sites as u64 + 1)
            .collect();
        let total_weight: u64 = weights.iter().sum();

        let domains: Vec<Name> = self.tranco.domains().to_vec();
        for (i, domain) in domains.iter().enumerate() {
            let block = ((i / 250) as u8, (i % 250) as u8);
            let prefix = netdb::Cidr::new(Ipv4Addr::new(30, block.0, block.1, 0), 24);
            let asn = 65_000 + (i as u32 % 17);
            self.db
                .add_prefix(prefix, asn, &format!("Hosting-AS{}", i % 17));
            let ip_count = if i < domains.len() / 5 {
                2 + (i % 3)
            } else {
                1
            };
            let ips: Vec<Ipv4Addr> = (0..ip_count)
                .map(|k| Ipv4Addr::new(30, block.0, block.1, 10 + k as u8))
                .collect();
            let text = domain.to_string();
            let home = format!("{text} home");
            for (k, ip) in ips.iter().enumerate() {
                self.db.set_geo(
                    *ip,
                    GeoInfo::new(COUNTRIES[(i + k) % COUNTRIES.len()], k as u16),
                );
                self.db.set_cert(*ip, CertInfo::for_domain(&text, "SimCA"));
                self.db.set_http(*ip, HttpProfile::normal(&home));
            }
            // Zone records.
            let mut records: Vec<Record> = ips
                .iter()
                .map(|ip| Record::new(domain.clone(), 300, RData::A(*ip)))
                .collect();
            let with_spf = i % 10 < 6;
            if with_spf {
                records.push(Record::new(
                    domain.clone(),
                    300,
                    RData::txt_from_str(&format!("v=spf1 ip4:{} -all", ips[0])),
                ));
            }
            // A third of the sites expose a www subdomain (visible in
            // passive DNS — the target-expansion extension recovers it).
            if i % 3 == 0 {
                let www = domain.child(b"www").expect("www child fits");
                records.push(Record::new(www, 300, RData::A(ips[0])));
            }
            // Half the sites run mail: an MX record plus the exchange
            // host's address in the same /24.
            if i % 10 < 5 {
                let mail_name = domain.child(b"mail").expect("mail child fits");
                let mail_ip = Ipv4Addr::new(30, block.0, block.1, 25);
                self.db
                    .set_geo(mail_ip, GeoInfo::new(COUNTRIES[i % COUNTRIES.len()], 0));
                records.push(Record::new(
                    domain.clone(),
                    300,
                    RData::Mx {
                        preference: 10,
                        exchange: mail_name.clone(),
                    },
                ));
                records.push(Record::new(mail_name, 300, RData::A(mail_ip)));
            }
            if i % 10 < 3 {
                records.push(Record::new(
                    domain.clone(),
                    300,
                    RData::txt_from_str("v=DMARC1; p=reject"),
                ));
            }
            // Choose hosting.
            let provider_hosted = self.rng.random_bool(self.config.provider_hosted_fraction);
            if provider_hosted {
                let deny = forbidden.get(domain).cloned().unwrap_or_default();
                let p_idx = loop {
                    let mut pick = self.rng.random_range(0..total_weight);
                    let mut chosen = 0;
                    for (idx, w) in weights.iter().enumerate() {
                        if pick < *w {
                            chosen = idx;
                            break;
                        }
                        pick -= w;
                    }
                    if !deny.contains(&self.provider_meta[chosen].name.as_str()) {
                        break chosen;
                    }
                };
                let mut p = self.providers[p_idx].borrow_mut();
                let acct = p.create_account();
                let zid = p
                    .host_domain(acct, domain, DomainClass::RegisteredSld)
                    .expect("legit hosting accepted");
                // The real owner passes any ownership check the provider
                // may later adopt (the delegation will point here).
                p.set_verified(zid);
                for r in &records {
                    p.add_record(zid, r.clone());
                }
                let serving: Vec<(Name, Ipv4Addr)> =
                    p.serving_nameservers(zid).into_iter().take(4).collect();
                drop(p);
                assert!(!serving.is_empty(), "legit zone must be served");
                self.registry.delegate(domain, serving);
                self.legit_host.insert(domain.clone(), p_idx);
            } else {
                // Self-hosted authoritative server in the site's own /24.
                let ns_ip = Ipv4Addr::new(30, block.0, block.1, 53);
                let ns_name = domain.child(b"ns1").expect("ns1 child fits");
                let mut zone = Zone::new(domain.clone());
                for r in &records {
                    zone.add(r.clone());
                }
                zone.add(Record::new(ns_name.clone(), 3600, RData::A(ns_ip)));
                self.net
                    .add_node(ns_ip, Box::new(StaticZoneNode::single(zone)));
                self.registry.delegate(domain, vec![(ns_name, ns_ip)]);
            }
            // Passive DNS + oracle ground truth, keyed by each record's
            // actual owner (apex records and subdomain records alike).
            let mut truth = self.answer_map.borrow_mut();
            for r in &records {
                self.pdns.observe(
                    r.name.clone(),
                    r.rtype(),
                    r.rdata.clone(),
                    self.config.today.saturating_sub(700),
                    self.config.today,
                );
                truth.add(r.clone());
            }
        }
    }

    /// The pinned case-study domains. Those are left to the dedicated
    /// case-study planting so their provider placement matches §5.3
    /// exactly.
    fn case_study_names() -> Vec<Name> {
        crate::tranco::CASE_STUDY_DOMAINS
            .iter()
            .map(|(d, _)| d.parse().expect("static"))
            .collect()
    }

    /// Stale zones at previously-used providers; excluded via passive DNS.
    fn plant_past_delegations(&mut self) {
        let count = self.config.past_delegation_urs.min(self.tranco.len());
        let case_studies = Self::case_study_names();
        for j in 0..count {
            let idx = (j * 7 + 3) % self.tranco.len();
            let domain = self.tranco.domains()[idx].clone();
            if case_studies.contains(&domain) {
                continue;
            }
            let current = self.legit_host.get(&domain).copied();
            let old_provider = (0..self.providers.len()).find(|p| {
                Some(*p) != current && self.providers[*p].borrow().zones_for(&domain).is_empty()
            });
            let Some(p_idx) = old_provider else { continue };
            let old_ip = Ipv4Addr::new(31, (j / 250) as u8, (j % 250) as u8, 10);
            self.db
                .add_prefix(netdb::Cidr::new(old_ip, 24), 65_300, "LegacyHost");
            self.db.set_geo(old_ip, GeoInfo::new("US", 9));
            let mut p = self.providers[p_idx].borrow_mut();
            let acct = p.create_account();
            let Ok(zid) = p.host_domain(acct, &domain, DomainClass::RegisteredSld) else {
                continue;
            };
            p.add_record(zid, Record::new(domain.clone(), 300, RData::A(old_ip)));
            drop(p);
            self.pdns.observe(
                domain.clone(),
                RecordType::A,
                RData::A(old_ip),
                self.config.today.saturating_sub(2_000),
                self.config.today.saturating_sub(500),
            );
            self.truth.past_delegations.push((domain, p_idx, old_ip));
        }
    }

    /// Parked-page URs and benign-misconfiguration URs.
    fn plant_parked_and_misconfig(&mut self) {
        let parking_ip = Ipv4Addr::new(60, 0, 0, 10);
        self.db
            .add_prefix("60.0.0.0/24".parse().expect("cidr"), 65_310, "ParkCo");
        self.db.set_geo(parking_ip, GeoInfo::new("US", 30));
        self.db.set_http(parking_ip, HttpProfile::parking());

        let top = self.tranco.len();
        let case_studies = Self::case_study_names();
        for j in 0..self.config.parked_urs {
            let domain = self.tranco.domains()[(j * 11 + 5) % top].clone();
            if case_studies.contains(&domain) {
                continue;
            }
            if let Some((p_idx, _zid)) = self.host_anywhere(&domain, |p, zid| {
                p.add_record(zid, Record::new(domain.clone(), 600, RData::A(parking_ip)));
            }) {
                self.truth.parked.push((domain, p_idx));
            }
        }

        for j in 0..self.config.benign_misconfig_urs {
            let domain = self.tranco.domains()[(j * 13 + 1) % top].clone();
            if case_studies.contains(&domain) {
                continue;
            }
            let ip = Ipv4Addr::new(45, (j / 250) as u8, (j % 250) as u8, 10);
            self.db.add_prefix(
                netdb::Cidr::new(ip, 24),
                65_320 + (j as u32 % 5),
                &format!("SmallBiz-{}", j % 5),
            );
            self.db
                .set_geo(ip, GeoInfo::new(COUNTRIES[j % COUNTRIES.len()], 40));
            self.db.set_http(ip, HttpProfile::normal("staging"));
            if let Some((p_idx, _zid)) = self.host_anywhere(&domain, |p, zid| {
                p.add_record(zid, Record::new(domain.clone(), 600, RData::A(ip)));
            }) {
                self.truth.benign_unknown.push((domain, p_idx));
            }
        }
    }

    /// Host `domain` at the first provider (in seeded random order) that
    /// accepts it, then run `fill` on the new zone.
    fn host_anywhere(
        &mut self,
        domain: &Name,
        fill: impl FnOnce(&mut HostingProvider, ZoneId),
    ) -> Option<(usize, ZoneId)> {
        let mut order: Vec<usize> = (0..self.providers.len()).collect();
        shuffle(&mut self.rng, &mut order);
        for p_idx in order {
            let mut p = self.providers[p_idx].borrow_mut();
            let acct = p.create_account();
            if let Ok(zid) = p.host_domain(acct, domain, DomainClass::RegisteredSld) {
                fill(&mut p, zid);
                return Some((p_idx, zid));
            }
        }
        None
    }

    /// Post-legit-hosting reserved lists: several named providers refuse to
    /// host the most popular domains.
    fn install_reserved_lists(&mut self) {
        let reserved: Vec<Name> = self.tranco.top(3).to_vec();
        for name in ["Cloudflare", "Tencent Cloud", "Alibaba Cloud", "Amazon"] {
            if let Some(idx) = self.provider_meta.iter().position(|m| m.name == name) {
                self.providers[idx].borrow_mut().policy_mut().reserved = reserved.clone();
            }
        }
    }

    /// Standalone misconfigured nameservers that answer anything through
    /// recursion; their "URs" are correct records.
    fn build_oracle_ns(&mut self) {
        for j in 0..self.config.misconfigured_recursive_ns {
            let ip = Ipv4Addr::new(21, 0, 0, (j + 1) as u8);
            self.net.add_node(
                ip,
                Box::new(OracleRecursiveNs::new(self.answer_map.clone())),
            );
            self.db
                .add_prefix("21.0.0.0/24".parse().expect("cidr"), 64_550, "MisconfDNS");
            self.db.set_geo(ip, GeoInfo::new("FR", 3));
            self.nameservers.push(NsInfo {
                ip,
                provider: "MisconfDNS".to_string(),
                provider_idx: None,
                tail_hosted_sites: 150,
            });
            self.truth.oracle_ns_ips.push(ip);
        }
    }

    /// The §5.3 case studies: Dark.IoT and Specter on ClouDNS, the
    /// masquerading SPF record on Namecheap + CSC.
    fn plant_case_studies(&mut self) {
        let cloudns = self
            .provider_meta
            .iter()
            .position(|m| m.name == "ClouDNS")
            .expect("ClouDNS present");
        let namecheap = self
            .provider_meta
            .iter()
            .position(|m| m.name == "Namecheap")
            .expect("Namecheap present");
        let csc = self
            .provider_meta
            .iter()
            .position(|m| m.name == "CSC")
            .expect("CSC present");

        // C2 infrastructure: 41.0.0.0/24 Dark.IoT, 41.0.1.0/24 Specter,
        // 41.0.2.0/24 SPF-SMTP (three addresses in one /24, as observed).
        self.db.add_prefix(
            "41.0.0.0/24".parse().expect("cidr"),
            64_910,
            "BulletProof-DK",
        );
        self.db.add_prefix(
            "41.0.1.0/24".parse().expect("cidr"),
            64_911,
            "BulletProof-SP",
        );
        self.db.add_prefix(
            "41.0.2.0/24".parse().expect("cidr"),
            64_912,
            "BulletProof-Mail",
        );
        let dark_c2 = Ipv4Addr::new(41, 0, 0, 10);
        let specter_c2 = Ipv4Addr::new(41, 0, 1, 10);
        let smtp_c2: Vec<Ipv4Addr> = (0..3).map(|k| Ipv4Addr::new(41, 0, 2, 10 + k)).collect();
        for ip in [dark_c2, specter_c2].iter().chain(smtp_c2.iter()) {
            self.db.set_geo(*ip, GeoInfo::new("RU", 77));
        }
        // Live C2 endpoints so conversations complete.
        self.net
            .add_node(dark_c2, Box::new(intel::C2ServerNode::new(b"darkiot-ack")));
        self.net.add_node(
            specter_c2,
            Box::new(intel::C2ServerNode::new(b"specter-ack")),
        );
        for ip in &smtp_c2 {
            self.net
                .add_node(*ip, Box::new(intel::C2ServerNode::new(b"250 OK")));
        }

        // Dark.IoT on ClouDNS: api.gitlab.com (2021 variants) and
        // raw.pastebin.com (2023 variant). Vendor-flagged AND IDS-visible.
        let gitlab_ur: Name = "api.gitlab.com".parse().expect("parses");
        let pastebin_ur: Name = "raw.pastebin.com".parse().expect("parses");
        for (domain, variants) in [
            (&gitlab_ur, vec!["v2021-12-12.a", "v2021-12-12.b"]),
            (&pastebin_ur, vec!["v2023-03-04"]),
        ] {
            let mut p = self.providers[cloudns].borrow_mut();
            let acct = p.create_account();
            let zid = p
                .host_domain(acct, domain, DomainClass::Subdomain)
                .expect("ClouDNS hosts subdomains");
            p.add_record(zid, Record::new(domain.clone(), 120, RData::A(dark_c2)));
            let ns_ip = p.serving_nameservers(zid)[0].1;
            drop(p);
            for v in variants {
                self.samples.push(malware::dark_iot(v, ns_ip, domain));
            }
            self.truth.case_studies.insert(
                if domain == &gitlab_ur {
                    "dark_iot_gitlab"
                } else {
                    "dark_iot_pastebin"
                },
                self.truth.campaigns.len(),
            );
            self.truth.campaigns.push(PlantedUr {
                domain: domain.clone(),
                provider: cloudns,
                zone: zid,
                rtypes: vec![RecordType::A],
                c2_ips: vec![dark_c2],
                detection: DetectionClass::Both,
                command_blob: false,
            });
            self.extra_targets.push(domain.clone());
        }
        for ip in [dark_c2] {
            for v in 0..3 {
                self.vendors[v].flag(ip, ThreatTag::Trojan);
                self.vendors[v].flag(ip, ThreatTag::Botnet);
            }
        }

        // Specter on ClouDNS: ibm.com (apex) + api.github.com (subdomain).
        // NOT flagged by any vendor ("not been flagged yet as malicious by
        // 74 mainstream security vendors") — IDS-only.
        let ibm: Name = "ibm.com".parse().expect("parses");
        let github_api: Name = "api.github.com".parse().expect("parses");
        for (domain, class, label) in [
            (&ibm, DomainClass::RegisteredSld, "specter_ibm"),
            (&github_api, DomainClass::Subdomain, "specter_github"),
        ] {
            let mut p = self.providers[cloudns].borrow_mut();
            let acct = p.create_account();
            let zid = p
                .host_domain(acct, domain, class)
                .expect("ClouDNS hosts case-study UR");
            p.add_record(zid, Record::new(domain.clone(), 120, RData::A(specter_c2)));
            let ns_ip = p.serving_nameservers(zid)[0].1;
            drop(p);
            for v in ["v1", "v2", "v3"]
                .iter()
                .take(if label == "specter_ibm" { 2 } else { 1 })
            {
                self.samples.push(malware::specter(v, ns_ip, domain));
            }
            self.truth
                .case_studies
                .insert(label, self.truth.campaigns.len());
            self.truth.campaigns.push(PlantedUr {
                domain: domain.clone(),
                provider: cloudns,
                zone: zid,
                rtypes: vec![RecordType::A],
                c2_ips: vec![specter_c2],
                detection: DetectionClass::IdsOnly,
                command_blob: false,
            });
            if domain != &ibm {
                self.extra_targets.push(domain.clone());
            }
        }

        // Masquerading SPF for speedtest.net on Namecheap (6 NS) + CSC
        // (5 NS): 11 nameservers, 3 IPs in one /24, all vendor-flagged.
        let speedtest: Name = "speedtest.net".parse().expect("parses");
        let spf_text = format!(
            "v=spf1 ip4:{} ip4:{} ip4:{} -all",
            smtp_c2[0], smtp_c2[1], smtp_c2[2]
        );
        for (p_idx, label) in [(namecheap, "spf_namecheap"), (csc, "spf_csc")] {
            let mut p = self.providers[p_idx].borrow_mut();
            let acct = p.create_account();
            let zid = p
                .host_domain(acct, &speedtest, DomainClass::RegisteredSld)
                .expect("SPF case-study hosting accepted");
            p.add_record(
                zid,
                Record::new(speedtest.clone(), 300, RData::txt_from_str(&spf_text)),
            );
            let ns_ip = p.serving_nameservers(zid)[0].1;
            drop(p);
            if p_idx == namecheap {
                for i in 0..4 {
                    self.samples.push(malware::tesla_smtp(i, ns_ip, &speedtest));
                }
                for i in 0..2 {
                    self.samples.push(malware::micropsia(i, ns_ip, &speedtest));
                }
            }
            self.truth
                .case_studies
                .insert(label, self.truth.campaigns.len());
            self.truth.campaigns.push(PlantedUr {
                domain: speedtest.clone(),
                provider: p_idx,
                zone: zid,
                rtypes: vec![RecordType::Txt],
                c2_ips: smtp_c2.clone(),
                detection: DetectionClass::Both,
                command_blob: false,
            });
        }
        for ip in &smtp_c2 {
            for v in 0..2 {
                self.vendors[v].flag(*ip, ThreatTag::Trojan);
                self.vendors[v].flag(*ip, ThreatTag::CnC);
            }
        }
    }

    fn plant_generic_campaigns(&mut self) {
        let weights: Vec<u64> = self
            .provider_meta
            .iter()
            .map(|m| m.tail_hosted_sites as u64 + 1)
            .collect();
        let mut plan = AttackerPlan {
            rng: &mut self.rng,
            tranco: &self.tranco,
            providers: &self.providers,
            provider_weights: &weights,
            db: &mut self.db,
            vendors: &mut self.vendors,
            samples: &mut self.samples,
            campaigns: self.config.attack_campaigns,
            campaign_offset: 0,
            malicious_fraction: self.config.malicious_campaign_fraction,
            label_only_fraction: self.config.label_only_fraction,
            ids_only_fraction: self.config.ids_only_fraction,
        };
        let planted = plant_campaigns(&mut plan);
        self.truth.campaigns.extend(planted);
    }

    fn build_resolvers(&mut self) {
        self.db
            .add_prefix("50.0.0.0/8".parse().expect("cidr"), 64_700, "ResolverNets");
        let root = self.registry.root_ip();
        for i in 0..self.config.open_resolvers {
            let ip = Ipv4Addr::new(50, (i / 200) as u8, (i % 200) as u8, 53);
            let unstable = self.rng.random_bool(self.config.unstable_resolver_fraction);
            let manipulated = self
                .rng
                .random_bool(self.config.manipulated_resolver_fraction);
            let mut node = RecursorNode::new(ip, root, self.config.seed ^ (i as u64) << 3);
            if unstable {
                node = node.with_response_rate(0.55);
            }
            if manipulated {
                node =
                    node.with_manipulation(Manipulation::InjectA(Ipv4Addr::new(198, 51, 100, 66)));
            }
            self.net.add_node(ip, Box::new(node));
            self.db.set_geo(
                ip,
                GeoInfo::new(COUNTRIES[i % COUNTRIES.len()], (i % 300) as u16),
            );
            self.resolvers.push(OpenResolverInfo {
                ip,
                stable: !unstable,
                manipulated,
            });
        }
    }

    /// Root and TLD zones get their nodes last, when every delegation has
    /// been registered.
    fn attach_tld_nodes(&mut self) {
        let root_zone = self.registry.build_root_zone();
        self.net.add_node(
            self.registry.root_ip(),
            Box::new(StaticZoneNode::single(root_zone)),
        );
        let tlds: Vec<(Name, Ipv4Addr)> = self
            .registry
            .tlds()
            .map(|(n, ip)| (n.clone(), ip))
            .collect();
        for (tld, ip) in &tlds {
            let mut zone = self.registry.build_tld_zone(tld);
            // Parent suffix zones delegate their child suffixes (e.g. `cn`
            // delegates `gov.cn`) so iteration descends correctly.
            for (child, child_ip) in &tlds {
                if child.is_strict_subdomain_of(tld) {
                    let ns_name = child.child(b"a-ns").expect("child fits");
                    zone.add(Record::new(
                        child.clone(),
                        86_400,
                        RData::Ns(ns_name.clone()),
                    ));
                    zone.add(Record::new(ns_name, 86_400, RData::A(*child_ip)));
                }
            }
            self.net
                .add_node(*ip, Box::new(StaticZoneNode::single(zone)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_builds() {
        let w = World::generate(WorldConfig::small());
        assert_eq!(w.tranco.len(), w.config.top_domains);
        assert!(w.providers.len() >= 11);
        assert_eq!(w.providers.len(), w.provider_meta.len());
        assert!(!w.nameservers.is_empty());
        assert!(!w.samples.is_empty());
        assert!(w.intel.vendor_count() >= 10);
        assert!(!w.truth.campaigns.is_empty());
        assert!(w.resolvers.len() == w.config.open_resolvers);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig::small());
        let b = World::generate(WorldConfig::small());
        assert_eq!(a.tranco.domains(), b.tranco.domains());
        assert_eq!(a.truth.campaigns.len(), b.truth.campaigns.len());
        for (x, y) in a.truth.campaigns.iter().zip(b.truth.campaigns.iter()) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.c2_ips, y.c2_ips);
            assert_eq!(x.detection, y.detection);
        }
        assert_eq!(a.samples.len(), b.samples.len());
    }

    #[test]
    fn the_calendar_stops_at_its_last_day() {
        let mut w = World::generate(WorldConfig::small());
        w.evolve(u32::MAX, 0, 0.0, 1);
        w.evolve(u32::MAX, 0, 0.0, 2);
        assert_eq!(w.config.today, u32::MAX);
    }

    #[test]
    fn every_top_domain_is_delegated() {
        let w = World::generate(WorldConfig::small());
        for d in w.tranco.domains() {
            assert!(w.registry.is_delegated(d), "{d} not delegated");
        }
    }

    #[test]
    fn case_studies_are_planted() {
        let w = World::generate(WorldConfig::small());
        for key in [
            "dark_iot_gitlab",
            "dark_iot_pastebin",
            "specter_ibm",
            "specter_github",
            "spf_namecheap",
            "spf_csc",
        ] {
            let idx = *w
                .truth
                .case_studies
                .get(key)
                .unwrap_or_else(|| panic!("{key} missing"));
            let c = &w.truth.campaigns[idx];
            assert!(!c.c2_ips.is_empty());
        }
        // Specter must be invisible to vendors.
        let specter = &w.truth.campaigns[w.truth.case_studies["specter_ibm"]];
        for ip in &specter.c2_ips {
            assert_eq!(w.intel.flag_count(*ip), 0, "Specter C2 must be unflagged");
        }
        // Dark.IoT must be flagged.
        let dark = &w.truth.campaigns[w.truth.case_studies["dark_iot_gitlab"]];
        assert!(w.intel.is_malicious(dark.c2_ips[0]));
    }

    #[test]
    fn resolution_works_end_to_end_in_world() {
        let mut w = World::generate(WorldConfig::small());
        let resolver = w
            .resolvers
            .iter()
            .find(|r| r.stable && !r.manipulated)
            .unwrap()
            .ip;
        let domain = w.tranco.domains()[0].clone();
        let resp = authdns::dns_query(
            &mut w.net,
            Ipv4Addr::new(10, 0, 0, 7),
            resolver,
            &domain,
            RecordType::A,
            77,
        )
        .expect("resolution completes");
        assert_eq!(resp.rcode(), dnswire::Rcode::NoError);
        assert!(
            !resp.answers.is_empty(),
            "top domain must resolve: {domain}"
        );
    }

    #[test]
    fn ur_visible_at_provider_ns_but_not_delegated() {
        let mut w = World::generate(WorldConfig::small());
        let dark = &w.truth.campaigns[w.truth.case_studies["dark_iot_gitlab"]];
        let domain = dark.domain.clone();
        let c2 = dark.c2_ips[0];
        assert!(!w.registry.is_delegated(&domain));
        let ns_ip = w.providers[dark.provider].borrow().nameservers()[0].1;
        let resp = authdns::dns_query(
            &mut w.net,
            Ipv4Addr::new(10, 0, 0, 8),
            ns_ip,
            &domain,
            RecordType::A,
            78,
        )
        .expect("provider answers");
        assert_eq!(resp.rcode(), dnswire::Rcode::NoError);
        assert_eq!(resp.answers[0].rdata.as_a().unwrap(), c2);
    }
}
