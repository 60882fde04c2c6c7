//! Assembly of the full synthetic internet: delegation hierarchy,
//! providers, legitimate hosting, misconfigurations, attackers, threat
//! intel, resolvers and the sandbox.

use crate::attacker::{support_campaign, DetectionClass, PlantedUr, Support};
use crate::config::WorldConfig;
use crate::plan::{
    Planted, StreamPlan, CASE_STUDIES, COUNTRIES, DARK_C2, PARKING_IP, SMTP_C2, SPECTER_C2,
};
use crate::tranco::TrancoList;
use authdns::{
    AnswerMap, DelegationRegistry, HostingProvider, ProviderNsNode, SharedOracleNs, StaticZoneNode,
    Zone, ZoneId,
};
use dnswire::{Name, RData, Record, RecordType};
use intel::{
    malware, IdsEngine, IntelAggregator, MalwareSample, PayloadSignatureDb, Sandbox, ThreatTag,
    VendorFeed,
};
use netdb::{GeoInfo, HttpProfile, NetDb};
use pdns::PassiveDns;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use recursor::{Manipulation, RecursorNode};
use simnet::{LatencyModel, Network, SimDuration};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// Metadata about one provider in the world.
#[derive(Debug, Clone)]
pub struct ProviderMeta {
    /// Display name.
    pub name: String,
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
    /// Ground-truth answer table every oracle node shares, on this
    /// fabric and on the scan shards'.
    pub answer_map: Arc<AnswerMap>,
    /// The plan the world materializes; [`World::evolve`] plants through it.
    plan: Arc<StreamPlan>,
    /// The index the next planted campaign takes.
    next_campaign: u32,
}

impl World {
    /// Generate a world from a config. Deterministic in the config.
    pub fn generate(config: WorldConfig) -> World {
        materialize(config)
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
        // Plant the next wave through the plan, each campaign's C2 block
        // past every campaign planted so far.
        let wave = seed ^ 0x45564F;
        let first = self.next_campaign;
        self.next_campaign += new_campaigns as u32;
        let (plan, mut support) = (
            &self.plan,
            Support {
                db: &mut self.db,
                vendors: self.intel.vendors_mut(),
                samples: &mut self.samples,
                config: &self.config,
            },
        );
        for c in first..self.next_campaign {
            let Some(p) = plan.place_campaign(wave, c) else {
                continue;
            };
            let prov = &self.providers[p];
            let Some(zid) = plan.plant_campaign(&mut prov.borrow_mut(), wave, c, None) else {
                continue;
            };
            let (first_ns, domain) = hosted(prov, zid);
            let ur = support_campaign(&mut support, (wave, c), domain, (p, zid), first_ns);
            self.truth.campaigns.push(ur);
        }
    }

    /// Snapshot the authoritative scan surface into a thread-shareable
    /// blueprint from which shard workers build replica fabrics.
    ///
    /// Each provider's control plane is cloned once into an [`Arc`] (the
    /// scan only reads it — [`HostingProvider::answer`] takes `&self`). The
    /// clone is copy-on-write, so the snapshot shares the world's accounts
    /// and zones rather than copying them: it costs each provider's
    /// nameserver fleet and a few reference counts. The world's next write
    /// to a shared table copies that table while the blueprint lives, so
    /// drop it once the scan is done. Per-shard fabrics share the
    /// snapshots in turn.
    pub fn scan_blueprint(&self) -> ScanBlueprint {
        let snapshots = self.providers.iter().map(|p| Arc::new(p.borrow().clone()));
        ScanBlueprint {
            fabric_seed: self.config.seed ^ 0x4E45,
            plan: self.plan.clone(),
            snapshots: Some(snapshots.collect()),
        }
    }
}

/// A thread-shareable description of a world's authoritative nameservers:
/// everything a scan shard needs to rebuild the server side of the fabric.
///
/// The blueprint is `Send + Sync`; shard workers borrow it and call
/// [`ScanBlueprint::build_network`] to get their own single-threaded
/// replica. Replicas answer bit-identically to the live world because the
/// node state is immutable — the eager world's own zone tables, shared
/// copy-on-write, or providers materialized from the plan, which is pure —
/// and the fabric seed (every flow's fault schedule) and latency model are
/// the world fabric's.
pub struct ScanBlueprint {
    fabric_seed: u64,
    plan: Arc<StreamPlan>,
    /// The eager world's providers as the scan found them; `None`
    /// materializes each from the plan, for the shard that scans it.
    snapshots: Option<Vec<Arc<HostingProvider>>>,
}

// The shard workers of a scan share one blueprint; the plan is pure and
// the snapshots immutable, and this keeps interior-mutable state out.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<ScanBlueprint>();
};

impl ScanBlueprint {
    /// A blueprint that materializes each provider from `plan` in the
    /// shard that scans it.
    pub(crate) fn lazy(fabric_seed: u64, plan: Arc<StreamPlan>) -> Self {
        ScanBlueprint {
            fabric_seed,
            plan,
            snapshots: None,
        }
    }

    /// Build a replica fabric with every nameserver node.
    ///
    /// Every replica is the same whatever `shard` it is built for: it
    /// keeps the world's fabric seed, from which each flow's fault schedule
    /// is derived, so a flow's fates are the same no matter which shard
    /// carries it. Traffic capture is off: shard probes are accounted via
    /// stats and metrics, not the packet log.
    pub fn build_network(&self, _shard: u64) -> Network {
        self.build(None)
    }

    /// Build a replica with only the nameserver nodes in `scope` (see
    /// [`ScanBlueprint::attach`]); `shard` changes nothing.
    pub fn build_network_scoped(&self, _shard: u64, scope: &[Ipv4Addr]) -> Network {
        self.build(Some(scope))
    }

    /// Attach the nameserver nodes of `scope` (every node: `None`),
    /// addresses a scan probes, to a replica: the snapshots of the
    /// providers that own one, or, without snapshots, exactly those
    /// providers materialized, each filled as far as the scope can be
    /// answered from it. Peak memory is the slice of the zone tables
    /// `scope` reaches.
    pub fn attach(&self, net: &mut Network, scope: Option<&[Ipv4Addr]>) {
        self.plan
            .attach_nodes(net, scope, |p, reach| match &self.snapshots {
                Some(built) => built[p].clone(),
                None => Arc::new(self.plan.materialize(p, reach, |_, _, _| {})),
            });
    }

    fn build(&self, scope: Option<&[Ipv4Addr]>) -> Network {
        let mut net = Network::new(self.fabric_seed).with_latency(latency());
        net.trace.set_enabled(false);
        self.attach(&mut net, scope);
        net
    }
}

/// The first nameserver serving a hosted zone (to ask only when needed),
/// and the zone's apex.
fn hosted(prov: &RefCell<HostingProvider>, zid: ZoneId) -> (impl Fn() -> Ipv4Addr + '_, Name) {
    let apex = prov.borrow().zone(zid).expect("hosted").zone.apex().clone();
    (move || prov.borrow().serving_nameservers(zid)[0].1, apex)
}

/// The fabric's latency model, shared by both materializations.
pub(crate) fn latency() -> LatencyModel {
    LatencyModel {
        base: SimDuration::from_millis(5),
        per_pair_spread_us: 45_000,
    }
}

/// The vendor feeds threat intelligence aggregates.
const VENDORS: &str =
    "SimVT QAX-Alpha 360-TI FalconEye NetGuard Sentry1 DeepTrace IronWall KitShield ArborX ClearSky OwlSec";

/// The eager materialization: the plan with every provider built on one
/// fabric, plus what only the eager pipeline reads.
fn materialize(config: WorldConfig) -> World {
    let tranco = TrancoList::generate(config.seed ^ 0x5452, config.top_domains);
    let plan = Arc::new(StreamPlan::new(&config, &tranco));
    let mut net = Network::new(config.seed ^ 0x4E45).with_latency(latency());
    // Spent payloads go back to the codec's pool, so the support sweep and
    // the sandboxes write their next datagram into a used buffer.
    net.set_payload_recycler(Some(dnswire::bufpool::release));
    let registry = plan.registry();
    let mut db = plan.base_db();
    let mut pdns = PassiveDns::new();
    let mut vendors: Vec<VendorFeed> = VENDORS.split(' ').map(VendorFeed::new).collect();
    let mut samples = Vec::new();
    let mut truth = GroundTruth::default();
    let today = config.today;

    let mut placed = Vec::new();
    let mut providers = Vec::with_capacity(plan.providers.len());
    for (p, spec) in plan.providers.iter().enumerate() {
        let prov = plan.materialize(p, None, |item, _, zid| placed.push((item, p, zid)));
        let prov = Rc::new(RefCell::new(prov));
        for (i, &(_, ip)) in spec.fleet.iter().enumerate() {
            net.add_node(ip, Box::new(ProviderNsNode::new(prov.clone(), ip)));
            db.set_geo(ip, GeoInfo::new(COUNTRIES[i % COUNTRIES.len()], i as u16));
        }
        if spec.policy.protective_records {
            let warning = HttpProfile::provider_warning(&spec.name);
            db.set_http(spec.protective_ip, warning);
            db.set_geo(spec.protective_ip, GeoInfo::new("US", 250));
        }
        providers.push(prov);
    }
    // Misconfigured nameservers answer anything by recursion; their "URs"
    // are the correct records.
    db.add_prefix("21.0.0.0/24".parse().expect("cidr"), 64_550, "MisconfDNS");
    for &ip in &plan.oracle_ips {
        net.add_node(ip, Box::new(SharedOracleNs::new(plan.answers())));
        db.set_geo(ip, GeoInfo::new("FR", 3));
    }
    truth.oracle_ns_ips = plan.oracle_ips.clone();

    // Legitimate hosting: each site's /24 and AS, web pages, passive DNS,
    // self-hosted servers.
    let hosting: Vec<String> = (0..17).map(|k| format!("Hosting-AS{k}")).collect();
    for (i, domain) in plan.targets.iter().enumerate() {
        let block = Ipv4Addr::new(30, (i / 250) as u8, (i % 250) as u8, 0);
        let asn = 65_000 + (i % 17) as u32;
        db.add_prefix(netdb::Cidr::new(block, 24), asn, &hosting[i % 17]);
        let home = format!("{domain} home");
        for ip in plan.legit_site(i).ips {
            db.set_http(ip, HttpProfile::normal(&home));
        }
        let records = plan.legit_records(i);
        for r in &records {
            let (name, rdata) = (r.name.clone(), r.rdata.clone());
            pdns.observe(name, r.rtype(), rdata, today.saturating_sub(700), today);
        }
        if let Some((ns_name, ns_ip)) = plan.self_hosted_ns(i) {
            let mut zone = Zone::new(domain.clone());
            zone.add_all(records);
            zone.add(Record::new(ns_name, 3600, RData::A(ns_ip)));
            net.add_node(ns_ip, Box::new(StaticZoneNode::single(zone)));
        }
    }

    // What only the eager pipeline reads of the planted zones, in planting
    // order: their metadata, threat intelligence and samples.
    db.add_prefix("60.0.0.0/24".parse().expect("cidr"), 65_310, "ParkCo");
    db.set_geo(PARKING_IP, GeoInfo::new("US", 30));
    db.set_http(PARKING_IP, HttpProfile::parking());
    add_case_study_infrastructure(&mut net, &mut db);
    placed.sort_unstable_by_key(|&(item, ..)| item);
    let mut out = Support {
        db: &mut db,
        vendors: &mut vendors,
        samples: &mut samples,
        config: &config,
    };
    for (item, p, zid) in placed {
        let (first_ns, domain) = hosted(&providers[p], zid);
        let db = &mut *out.db;
        match item {
            Planted::Past(_) => {
                let old_ip = plan.confusable(item).2;
                db.add_prefix(netdb::Cidr::new(old_ip, 24), 65_300, "LegacyHost");
                db.set_geo(old_ip, GeoInfo::new("US", 9));
                let (first, last) = (today.saturating_sub(2_000), today.saturating_sub(500));
                pdns.observe(domain.clone(), RecordType::A, RData::A(old_ip), first, last);
                truth.past_delegations.push((domain, p, old_ip));
            }
            Planted::Parked(_) => truth.parked.push((domain, p)),
            Planted::Misconfig(j) => {
                let (ip, name) = (plan.confusable(item).2, format!("SmallBiz-{}", j % 5));
                db.add_prefix(netdb::Cidr::new(ip, 24), 65_320 + j % 5, &name);
                db.set_geo(ip, GeoInfo::new(COUNTRIES[j as usize % 8], 40));
                db.set_http(ip, HttpProfile::normal("staging"));
            }
            Planted::CaseStudy(k) => {
                let (label, ns) = (CASE_STUDIES[k as usize].0, first_ns());
                // Specter is not flagged by any vendor ("not been flagged
                // yet as malicious by 74 mainstream security vendors"):
                // IDS only.
                let (c2_ips, detection, rtype) = match k / 2 {
                    0 => (vec![DARK_C2], DetectionClass::Both, RecordType::A),
                    1 => (vec![SPECTER_C2], DetectionClass::IdsOnly, RecordType::A),
                    _ => (SMTP_C2.to_vec(), DetectionClass::Both, RecordType::Txt),
                };
                let samples = &mut out.samples;
                match k {
                    0 => samples.extend(
                        ["v2021-12-12.a", "v2021-12-12.b"]
                            .map(|v| malware::dark_iot(v, ns, &domain)),
                    ),
                    1 => samples.push(malware::dark_iot("v2023-03-04", ns, &domain)),
                    2 => samples.extend(["v1", "v2"].map(|v| malware::specter(v, ns, &domain))),
                    3 => samples.push(malware::specter("v1", ns, &domain)),
                    4 => {
                        samples.extend((0..4).map(|i| malware::tesla_smtp(i, ns, &domain)));
                        samples.extend((0..2).map(|i| malware::micropsia(i, ns, &domain)));
                    }
                    _ => {}
                }
                truth.case_studies.insert(label, truth.campaigns.len());
                truth.campaigns.push(PlantedUr {
                    domain,
                    provider: p,
                    zone: zid,
                    rtypes: vec![rtype],
                    c2_ips,
                    detection,
                    command_blob: false,
                });
            }
            Planted::Campaign(c) => {
                let ur = support_campaign(&mut out, (config.seed, c), domain, (p, zid), first_ns);
                truth.campaigns.push(ur);
            }
        }
    }
    // Dark.IoT's C2 is vendor-flagged, and so are the SPF case's SMTP C2s.
    for v in &mut vendors[..3] {
        v.flag(DARK_C2, ThreatTag::Trojan);
        v.flag(DARK_C2, ThreatTag::Botnet);
    }
    for v in &mut vendors[..2] {
        for ip in SMTP_C2 {
            v.flag(ip, ThreatTag::Trojan);
            v.flag(ip, ThreatTag::CnC);
        }
    }

    let resolvers = add_resolvers(&mut net, &mut db, &config, registry.root_ip());
    let sandbox_resolver = Ipv4Addr::new(9, 9, 9, 9);
    net.add_node(
        sandbox_resolver,
        Box::new(RecursorNode::new(
            sandbox_resolver,
            registry.root_ip(),
            config.seed ^ 0x5342,
        )),
    );
    add_hierarchy_nodes(&mut net, &mut db, &registry);
    let mut intel = IntelAggregator::new();
    for feed in vendors {
        intel.add_vendor(feed);
    }
    World {
        net,
        db,
        tranco,
        pdns,
        intel,
        ids: IdsEngine::standard_ruleset(),
        payload_sigs: PayloadSignatureDb::new(),
        samples,
        provider_meta: plan
            .providers
            .iter()
            .map(|p| ProviderMeta {
                name: p.name.clone(),
                protective_ip: p.protective_ip,
            })
            .collect(),
        providers,
        nameservers: plan.nameservers(),
        resolvers,
        sandbox: Sandbox::new(Ipv4Addr::new(10, 99, 0, 1), sandbox_resolver),
        truth,
        extra_targets: plan.extra_targets.clone(),
        answer_map: plan.answers(),
        registry,
        next_campaign: config.attack_campaigns as u32,
        config,
        plan,
    }
}

/// The case studies' live C2 endpoints, so conversations complete, and
/// their metadata: 41.0.0.0/24 Dark.IoT, 41.0.1.0/24 Specter, 41.0.2.0/24
/// the SPF case's SMTP servers.
fn add_case_study_infrastructure(net: &mut Network, db: &mut NetDb) {
    for (prefix, asn, name) in [
        ("41.0.0.0/24", 64_910, "BulletProof-DK"),
        ("41.0.1.0/24", 64_911, "BulletProof-SP"),
        ("41.0.2.0/24", 64_912, "BulletProof-Mail"),
    ] {
        db.add_prefix(prefix.parse().expect("cidr"), asn, name);
    }
    let banners = [(DARK_C2, &b"darkiot-ack"[..]), (SPECTER_C2, b"specter-ack")];
    for (ip, banner) in banners
        .into_iter()
        .chain(SMTP_C2.map(|ip| (ip, &b"250 OK"[..])))
    {
        db.set_geo(ip, GeoInfo::new("RU", 77));
        net.add_node(ip, Box::new(intel::C2ServerNode::new(banner)));
    }
}

/// The open-resolver fleet: stable, unstable (sometimes silent) and
/// manipulating resolvers, each drawn from the world seed.
fn add_resolvers(
    net: &mut Network,
    db: &mut NetDb,
    config: &WorldConfig,
    root: Ipv4Addr,
) -> Vec<OpenResolverInfo> {
    db.add_prefix("50.0.0.0/8".parse().expect("cidr"), 64_700, "ResolverNets");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5245_534F);
    (0..config.open_resolvers)
        .map(|i| {
            let ip = Ipv4Addr::new(50, (i / 200) as u8, (i % 200) as u8, 53);
            let unstable = rng.random_bool(config.unstable_resolver_fraction);
            let manipulated = rng.random_bool(config.manipulated_resolver_fraction);
            let mut node = RecursorNode::new(ip, root, config.seed ^ (i as u64) << 3);
            if unstable {
                node = node.with_response_rate(0.55);
            }
            if manipulated {
                node =
                    node.with_manipulation(Manipulation::InjectA(Ipv4Addr::new(198, 51, 100, 66)));
            }
            net.add_node(ip, Box::new(node));
            let country = COUNTRIES[i % COUNTRIES.len()];
            db.set_geo(ip, GeoInfo::new(country, (i % 300) as u16));
            OpenResolverInfo {
                ip,
                stable: !unstable,
                manipulated,
            }
        })
        .collect()
}

/// Root and TLD nodes, from the finished registry. A parent suffix zone
/// delegates its child suffixes (`cn` delegates `gov.cn`) so iteration
/// descends correctly.
fn add_hierarchy_nodes(net: &mut Network, db: &mut NetDb, registry: &DelegationRegistry) {
    let root = StaticZoneNode::single(registry.build_root_zone());
    net.add_node(registry.root_ip(), Box::new(root));
    let tlds: Vec<(Name, Ipv4Addr)> = registry.tlds().map(|(n, ip)| (n.clone(), ip)).collect();
    for (tld, ip) in &tlds {
        let mut zone = registry.build_tld_zone(tld);
        for (child, child_ip) in &tlds {
            if child.is_strict_subdomain_of(tld) {
                let ns = child.child(b"a-ns").expect("child fits");
                zone.add(Record::new(child.clone(), 86_400, RData::Ns(ns.clone())));
                zone.add(Record::new(ns, 86_400, RData::A(*child_ip)));
            }
        }
        net.add_node(*ip, Box::new(StaticZoneNode::single(zone)));
        db.set_geo(*ip, GeoInfo::new("US", 1));
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
