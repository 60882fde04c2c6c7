//! The one description of a world: a [`StreamPlan`] holds its providers
//! and fleets, every target's legitimate hosting, and every zone planted
//! at a provider (stale past delegations, parked and misconfigured URs,
//! the §5.3 case studies, the generic campaigns) as decisions, each a pure
//! function of `(seed, index)`. A zone's records are drawn from its own
//! seeded generator when its provider is materialized, so a provider built
//! in any shard, in any order, is the same provider, and [`crate::World`]
//! and [`crate::StreamWorld`] serve the same answers.

use crate::attacker::CampaignDraw;
use crate::config::WorldConfig;
use crate::providers::provider_specs;
use crate::tranco::TrancoList;
use crate::world::NsInfo;
use crate::LegitSite;
use authdns::{
    draw_nameservers, zone_draw, AnswerMap, DelegationRegistry, DomainClass, HostingPolicy,
    HostingProvider, NsAllocation, ProviderAnswer, SharedOracleNs, SharedProviderNs, ZoneId,
};
use dnswire::{Name, RData, Record, RecordType};
use fxhash::FxHashMap;
use netdb::{CertInfo, GeoInfo, NetDb};
use simnet::Network;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

/// Countries used for geo spread.
pub(crate) const COUNTRIES: [&str; 8] = ["US", "DE", "JP", "CN", "NL", "BR", "IN", "GB"];

/// splitmix64 finalizer: the deterministic hash behind every plan
/// decision.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Two-input convenience over [`mix`].
pub(crate) fn mix2(seed: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(a.wrapping_mul(0x9E37).wrapping_add(b)))
}

/// The hash stream of item `i` under `seed`: one [`mix2`], then one [`mix`]
/// a draw.
pub(crate) fn draws(seed: u64, i: u64) -> impl Fn(u64) -> u64 {
    let base = mix2(seed, i, 0);
    move |k| mix(base.wrapping_add(k))
}

/// A hash as a uniform draw in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether a hash falls in the first `p` of its range.
pub(crate) fn chance(h: u64, p: f64) -> bool {
    unit(h) < p
}

/// The public suffixes a world registers as TLD zones: generic TLDs plus
/// the government and education suffixes Appendix C hosts as eTLDs
/// (`gov.cn`, `edu.cn`, `gov.kp`, …).
const SUFFIXES: [&str; 36] = [
    "com", "net", "org", "io", "info", "biz", "xyz", "dev", "app", "de", "fr", "nl", "jp", "kr",
    "br", "in", "ru", "na", "gd", "fm", "kp", "cn", "uk", "us", "co.uk", "org.uk", "gov.uk",
    "com.cn", "gov.cn", "edu.cn", "co.jp", "gov.kp", "edu.kp", "gov.gd", "edu.fm", "info.na",
];

/// Weighted picks that find no taker give up after this many draws.
const TRIES: u64 = 64;

/// `legit_host` of a self-hosted target.
const SELF_HOSTED: u32 = u32::MAX;

/// The labels a subdomain campaign puts in front of its target.
const SUB_LABELS: [&[u8]; 4] = [b"api", b"cdn", b"raw", b"mail"];

/// The §5.3 case studies in planting order, two of each: Dark.IoT and
/// Specter on ClouDNS, the masquerading SPF record on Namecheap and CSC.
/// The label, the abused FQDN, and the provider.
pub(crate) const CASE_STUDIES: [(&str, &str, &str); 6] = [
    ("dark_iot_gitlab", "api.gitlab.com", "ClouDNS"),
    ("dark_iot_pastebin", "raw.pastebin.com", "ClouDNS"),
    ("specter_ibm", "ibm.com", "ClouDNS"),
    ("specter_github", "api.github.com", "ClouDNS"),
    ("spf_namecheap", "speedtest.net", "Namecheap"),
    ("spf_csc", "speedtest.net", "CSC"),
];

/// The Dark.IoT C2, 41.0.0.0/24.
pub(crate) const DARK_C2: Ipv4Addr = Ipv4Addr::new(41, 0, 0, 10);
/// The Specter C2, 41.0.1.0/24.
pub(crate) const SPECTER_C2: Ipv4Addr = Ipv4Addr::new(41, 0, 1, 10);
/// The SPF case's SMTP C2s: three addresses in one /24, as observed.
pub(crate) const SMTP_C2: [Ipv4Addr; 3] = [
    Ipv4Addr::new(41, 0, 2, 10),
    Ipv4Addr::new(41, 0, 2, 11),
    Ipv4Addr::new(41, 0, 2, 12),
];

/// Where parked URs point.
pub(crate) const PARKING_IP: Ipv4Addr = Ipv4Addr::new(60, 0, 0, 10);

/// Providers whose reserved list refuses the top three targets once the
/// legitimate zones and the confusables are in.
const RESERVING: [&str; 4] = ["Cloudflare", "Tencent Cloud", "Alibaba Cloud", "Amazon"];

/// A zone planted at a provider besides its infrastructure and
/// legitimate zones. The derived order is the planting order: kind, then
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Planted {
    /// A stale zone from past delegation `j` (excluded through passive DNS).
    Past(u32),
    /// Parked-page UR `j`.
    Parked(u32),
    /// Benign misconfiguration `j` (classified unknown).
    Misconfig(u32),
    /// Case study `k` of [`CASE_STUDIES`].
    CaseStudy(u8),
    /// Generic campaign `j`.
    Campaign(u32),
}

/// One provider of the plan, everything needed to build it from scratch.
#[derive(Debug)]
pub(crate) struct ProviderPlan {
    pub(crate) name: String,
    pub(crate) policy: HostingPolicy,
    pub(crate) fleet: Vec<(Name, Ipv4Addr)>,
    pub(crate) protective_ip: Ipv4Addr,
    pub(crate) tail_hosted_sites: u32,
    /// The zone naming the fleet, `<slug>-dns.net`.
    infra: Name,
    /// Installs the reserved list before the case studies and campaigns.
    reserves: bool,
}

/// The compact generation plan behind [`crate::World`] and
/// [`crate::StreamWorld`]. Shared via [`Arc`]; building a provider from it
/// is a pure function, so shard workers can materialize disjoint slices
/// concurrently or sequentially with identical results.
#[derive(Debug)]
pub(crate) struct StreamPlan {
    seed: u64,
    pub(crate) providers: Vec<ProviderPlan>,
    /// The ranked targets.
    pub(crate) targets: Vec<Name>,
    /// The case-study FQDNs scanned beside the ranked apexes.
    pub(crate) extra_targets: Vec<Name>,
    /// The provider hosting each target's legitimate zone, or
    /// [`SELF_HOSTED`].
    legit_host: Vec<u32>,
    /// Every planted zone, grouped by provider: `planted[by_provider[p]..
    /// by_provider[p + 1]]` are provider `p`'s, in planting order.
    planted: Vec<Planted>,
    by_provider: Vec<u32>,
    /// Walker's alias table over the providers' popularity weights
    /// (hosted-site counts + 1; attackers and site owners prefer the big
    /// providers): a provider's chance to keep its column, and the column's
    /// other provider.
    weights: Vec<(f64, u32)>,
    /// Misconfigured recursive nameservers.
    pub(crate) oracle_ips: Vec<Ipv4Addr>,
    /// The legitimate records of every target, which the oracle
    /// nameservers answer from: built the first time one is attached.
    answers: OnceLock<Arc<AnswerMap>>,
    /// The reserved list: the top three targets.
    reserved: Vec<Name>,
    /// Each case study's SLD among the targets, beside the provider its
    /// attack abuses: no legitimate zone of it lives there, and no
    /// confusable takes the domain.
    case_studies_at: Vec<(usize, &'static str)>,
}

impl StreamPlan {
    /// Plan the world `config` describes over its ranked `tranco` list.
    pub(crate) fn new(config: &WorldConfig, tranco: &TrancoList) -> StreamPlan {
        let providers: Vec<ProviderPlan> = provider_specs(config)
            .into_iter()
            .enumerate()
            .map(|(p, spec)| {
                let slug = spec.name.to_lowercase().replace([' ', '-'], "");
                let infra: Name = format!("{slug}-dns.net")
                    .parse()
                    .expect("infra domain parses");
                let fleet = (0..spec.ns_count)
                    .map(|k| {
                        let name: Name = format!("ns{}.{slug}-dns.net", k + 1)
                            .parse()
                            .expect("ns name parses");
                        (name, fleet_ip(p, k))
                    })
                    .collect();
                ProviderPlan {
                    reserves: RESERVING.contains(&spec.name.as_str()),
                    protective_ip: fleet_ip(p, 255 * 200),
                    name: spec.name,
                    policy: spec.policy,
                    fleet,
                    tail_hosted_sites: spec.tail_hosted_sites,
                    infra,
                }
            })
            .collect();
        let weights = alias_table(providers.iter().map(|p| p.tail_hosted_sites as f64 + 1.0));
        let targets = tranco.domains().to_vec();
        let sld = |fqdn: &'static str| fqdn.split_once('.').filter(|(_, sld)| sld.contains('.'));
        let case_studies_at = CASE_STUDIES.iter().map(|&(_, fqdn, provider)| {
            let sld = sld(fqdn).map_or(fqdn, |(_, sld)| sld);
            let rank = tranco.rank(&sld.parse().expect("static")).expect("pinned");
            (rank - 1, provider)
        });
        let mut plan = StreamPlan {
            seed: config.seed,
            extra_targets: CASE_STUDIES
                .iter()
                .filter(|(_, fqdn, _)| sld(fqdn).is_some())
                .map(|(_, fqdn, _)| fqdn.parse().expect("static"))
                .collect(),
            legit_host: Vec::new(),
            planted: Vec::new(),
            by_provider: Vec::new(),
            oracle_ips: (0..config.misconfigured_recursive_ns)
                .map(|j| Ipv4Addr::new(21, 0, 0, (j + 1) as u8))
                .collect(),
            answers: OnceLock::new(),
            reserved: tranco.top(3).to_vec(),
            providers,
            weights,
            targets,
            case_studies_at: case_studies_at.collect(),
        };
        plan.legit_host = (0..plan.targets.len())
            .map(|i| plan.place_legit(i, config.provider_hosted_fraction))
            .collect();
        plan.plant(config);
        plan
    }

    /// The table the oracle nameservers answer from: every target's
    /// legitimate records.
    pub(crate) fn answers(&self) -> Arc<AnswerMap> {
        let build = || {
            let mut answers = AnswerMap::new();
            let records = (0..self.targets.len()).flat_map(|i| self.legit_records(i));
            records.for_each(|r| answers.add(r));
            Arc::new(answers)
        };
        self.answers.get_or_init(build).clone()
    }

    /// A weighted provider pick: a column from the hash's low half, the
    /// column's provider or its alias by the high half.
    fn weighted(&self, h: u64) -> usize {
        let column = (((h & 0xFFFF_FFFF) * self.weights.len() as u64) >> 32) as usize;
        let (keep, alias) = self.weights[column];
        if ((h >> 32) as f64) < keep * 4_294_967_296.0 {
            column
        } else {
            alias as usize
        }
    }

    /// Target `i`'s legitimate host: a popularity-weighted provider (never
    /// one its case study abuses), or itself.
    fn place_legit(&self, i: usize, provider_hosted: f64) -> u32 {
        let h = draws(self.seed ^ 0x4C45_4749, i as u64);
        if !chance(h(0), provider_hosted) {
            return SELF_HOSTED;
        }
        let allowed = |p: &usize| {
            !self
                .case_studies_at
                .contains(&(i, &self.providers[*p].name))
        };
        let mut picks = (1..=TRIES).map(|k| self.weighted(h(k)));
        picks
            .find(allowed)
            .expect("a provider the target may live at") as u32
    }

    /// Whether provider `p`, past its reserved list, would host target
    /// `t` (or a subdomain of it) for a new account: its policy takes the
    /// class, and the legitimate zone there, if any, admits another owner.
    fn accepts(&self, p: usize, t: usize, class: DomainClass, reserved: bool) -> bool {
        let prov = &self.providers[p];
        prov.policy.allows_class(class)
            && !(reserved && prov.reserves && t < self.reserved.len())
            && (class == DomainClass::Subdomain
                || self.legit_host[t] != p as u32
                || prov.policy.duplicates.cross_user)
    }

    /// Campaign `j`'s target in wave `wave`: a head-biased minority
    /// (popular domains are more valuable to abuse) over a uniform
    /// majority (the paper finds URs for 99.95 % of the top 2K), and a
    /// subdomain of it for 15 %.
    pub(crate) fn campaign_target(&self, wave: u64, j: u32) -> (usize, Option<&'static [u8]>) {
        let h = draws(wave ^ 0x4341_4D50, j as u64);
        let n = self.targets.len();
        let t = if chance(h(0), 0.3) {
            ((unit(h(1)) * unit(h(2)) * n as f64) as usize).min(n - 1)
        } else {
            (h(3) % n as u64) as usize
        };
        let label = chance(h(4), 0.15).then(|| SUB_LABELS[(h(5) % 4) as usize]);
        (t, label)
    }

    /// Campaign `j`'s provider in wave `wave`: popularity-weighted picks
    /// until one would take the zone; `None` when none in [`TRIES`] would.
    pub(crate) fn place_campaign(&self, wave: u64, j: u32) -> Option<usize> {
        let (t, label) = self.campaign_target(wave, j);
        let class = label.map_or(DomainClass::RegisteredSld, |_| DomainClass::Subdomain);
        (0..TRIES)
            .map(draws(wave ^ 0x4350_4943, j as u64))
            .map(|h| self.weighted(h))
            .find(|&p| self.accepts(p, t, class, true))
    }

    /// A confusable's target, and the TTL and address its zone answers: a
    /// stale past delegation's old host, a parking page, a staging server.
    pub(crate) fn confusable(&self, item: Planted) -> (usize, u32, Ipv4Addr) {
        let n = self.targets.len();
        let host = |first, j: u32| Ipv4Addr::new(first, (j / 250) as u8, (j % 250) as u8, 10);
        match item {
            Planted::Past(j) => ((j as usize * 7 + 3) % n, 300, host(31, j)),
            Planted::Parked(j) => ((j as usize * 11 + 5) % n, 600, PARKING_IP),
            Planted::Misconfig(j) => ((j as usize * 13 + 1) % n, 600, host(45, j)),
            _ => unreachable!("{item:?} is no confusable"),
        }
    }

    /// Decide where every planted zone lives, and group them by provider.
    fn plant(&mut self, config: &WorldConfig) {
        let confusables =
            config.past_delegation_urs + config.parked_urs + config.benign_misconfig_urs;
        let count = confusables + CASE_STUDIES.len() + config.attack_campaigns;
        let mut placed: Vec<(usize, Planted)> = Vec::with_capacity(count);
        let past = 0..config.past_delegation_urs.min(self.targets.len()) as u32;
        let parked = (0..config.parked_urs as u32).map(Planted::Parked);
        let misconfig = (0..config.benign_misconfig_urs as u32).map(Planted::Misconfig);
        for item in past.map(Planted::Past).chain(parked).chain(misconfig) {
            let t = self.confusable(item).0;
            if self.case_studies_at.iter().any(|c| c.0 == t) {
                continue;
            }
            let p = match item {
                // The first provider the domain does not live at now.
                Planted::Past(_) => Some(usize::from(self.legit_host[t] == 0)),
                // A uniformly drawn provider that takes the domain.
                Planted::Parked(j) | Planted::Misconfig(j) => {
                    let parked = matches!(item, Planted::Parked(_));
                    let salt = if parked { 0x5041_524B } else { 0x4D49_5343 };
                    (0..TRIES)
                        .map(draws(self.seed ^ salt, j as u64))
                        .map(|h| h as usize % self.providers.len())
                        .find(|&p| self.accepts(p, t, DomainClass::RegisteredSld, false))
                }
                _ => unreachable!("confusables only"),
            };
            placed.extend(p.map(|p| (p, item)));
        }
        for (k, (.., provider)) in CASE_STUDIES.iter().enumerate() {
            let p = self.providers.iter().position(|p| p.name == *provider);
            placed.push((p.expect("case-study provider"), Planted::CaseStudy(k as u8)));
        }
        for j in 0..config.attack_campaigns as u32 {
            if let Some(p) = self.place_campaign(self.seed, j) {
                placed.push((p, Planted::Campaign(j)));
            }
        }
        // Group by provider, keeping the planting order within each.
        let mut offsets = vec![0u32; self.providers.len() + 1];
        for &(p, _) in &placed {
            offsets[p + 1] += 1;
        }
        for p in 0..self.providers.len() {
            offsets[p + 1] += offsets[p];
        }
        let mut next = offsets.clone();
        self.planted = vec![Planted::Past(0); placed.len()];
        for (p, item) in placed {
            self.planted[next[p] as usize] = item;
            next[p] += 1;
        }
        self.by_provider = offsets;
    }

    /// The seed provider `p`'s nameserver draws are keyed from.
    fn provider_seed(&self, p: usize) -> u64 {
        self.seed ^ (p as u64).wrapping_mul(0x9E37)
    }

    /// Target `i`'s legitimate addresses: a CDN-style spread of two to
    /// four for the top fifth, one below.
    fn legit_ips(&self, i: usize) -> impl Iterator<Item = Ipv4Addr> {
        let count = 1 + usize::from(i < self.targets.len() / 5) * (1 + i % 3);
        let block = ((i / 250) as u8, (i % 250) as u8);
        (0..count).map(move |k| Ipv4Addr::new(30, block.0, block.1, 10 + k as u8))
    }

    /// Target `i`'s legitimate TXT bodies: SPF for six in ten, DMARC for
    /// three in ten.
    fn legit_txts(&self, i: usize) -> impl Iterator<Item = String> {
        let spf = (i % 10 < 6).then(|| format!("v=spf1 ip4:30.{}.{}.10 -all", i / 250, i % 250));
        spf.into_iter()
            .chain((i % 10 < 3).then(|| "v=DMARC1; p=reject".to_string()))
    }

    /// Target `i`'s legitimate records: its addresses, its TXT bodies and,
    /// for a third of the sites, a `www` address (visible in passive DNS).
    pub(crate) fn legit_records(&self, i: usize) -> Vec<Record> {
        let domain = &self.targets[i];
        let mut records: Vec<Record> = self
            .legit_ips(i)
            .map(|ip| Record::new(domain.clone(), 300, RData::A(ip)))
            .collect();
        records.extend(
            self.legit_txts(i)
                .map(|t| Record::new(domain.clone(), 300, RData::txt_from_str(&t))),
        );
        if i.is_multiple_of(3) {
            let www = domain.child(b"www").expect("www child fits");
            records.push(Record::new(www, 300, records[0].rdata.clone()));
        }
        records
    }

    /// Target `i`'s legitimate hosting, as the correct-record database
    /// reads it.
    pub(crate) fn legit_site(&self, i: usize) -> LegitSite {
        LegitSite {
            domain: self.targets[i].clone(),
            ips: self.legit_ips(i).collect(),
            txts: self.legit_txts(i).collect(),
        }
    }

    /// The self-hosted server of target `i`, when it has one.
    pub(crate) fn self_hosted_ns(&self, i: usize) -> Option<(Name, Ipv4Addr)> {
        (self.legit_host[i] == SELF_HOSTED).then(|| {
            let ns = self.targets[i].child(b"ns1").expect("ns1 child fits");
            (ns, Ipv4Addr::new(30, (i / 250) as u8, (i % 250) as u8, 53))
        })
    }

    /// The first four nameservers serving the zone provider `p` hosts
    /// `nth` (its `nth` account's, the first for its domain), as its
    /// delegation names them.
    fn serving(&self, p: usize, nth: usize) -> Vec<(Name, Ipv4Addr)> {
        let prov = &self.providers[p];
        let len = prov.fleet.len();
        let (key, count) = match prov.policy.allocation {
            NsAllocation::GlobalFixed => return prov.fleet[..len.min(4)].to_vec(),
            NsAllocation::AccountFixed { per_account } => (nth as u64, per_account),
            NsAllocation::RandomPool { per_zone } => (zone_draw(nth), per_zone),
        };
        draw_nameservers(self.provider_seed(p), key, len, count, &[])
            .iter()
            .take(4)
            .map(|&k| prov.fleet[k as usize].clone())
            .collect()
    }

    /// The true delegations: root, TLDs, every provider's infrastructure
    /// zone and every target.
    pub(crate) fn registry(&self) -> DelegationRegistry {
        let mut registry = DelegationRegistry::new();
        registry.set_root(Ipv4Addr::new(198, 41, 0, 4));
        let mut tlds: Vec<Name> = SUFFIXES.iter().flat_map(|s| s.parse()).collect();
        tlds.sort();
        for (i, tld) in tlds.into_iter().enumerate() {
            let ip = Ipv4Addr::new(192, 5, (6 + i / 200) as u8, (i % 200 + 1) as u8);
            registry.add_tld(tld, ip);
        }
        for (p, prov) in self.providers.iter().enumerate() {
            registry.delegate(&prov.infra, self.serving(p, 0));
        }
        // A provider's legitimate zones follow its infrastructure zone,
        // one account each, in target order.
        let mut hosted = vec![0usize; self.providers.len()];
        for (i, domain) in self.targets.iter().enumerate() {
            let delegation = match self.self_hosted_ns(i) {
                Some(ns) => vec![ns],
                None => {
                    let p = self.legit_host[i] as usize;
                    hosted[p] += 1;
                    self.serving(p, hosted[p])
                }
            };
            registry.delegate(domain, delegation);
        }
        registry
    }

    /// The metadata both materializations share: the registry's and the
    /// providers' prefixes, and every legitimate address's location and
    /// certificate.
    pub(crate) fn base_db(&self) -> NetDb {
        let mut db = NetDb::new();
        for prefix in ["192.5.0.0/16", "198.41.0.0/24"] {
            db.add_prefix(prefix.parse().expect("cidr"), 64_496, "RegistryNet");
        }
        for (p, prov) in self.providers.iter().enumerate() {
            db.add_prefix(
                netdb::Cidr::new(fleet_ip(p, 0), 16),
                64_600 + p as u32,
                &prov.name,
            );
        }
        for (i, domain) in self.targets.iter().enumerate() {
            let text = domain.to_string();
            for (k, ip) in self.legit_ips(i).enumerate() {
                db.set_geo(ip, GeoInfo::new(COUNTRIES[(i + k) % 8], k as u16));
                db.set_cert(ip, CertInfo::for_domain(&text, "SimCA"));
            }
        }
        db
    }

    /// The nameserver inventory: every provider's fleet, then the
    /// misconfigured recursive servers.
    pub(crate) fn nameservers(&self) -> Vec<NsInfo> {
        let mut out = Vec::new();
        for (p, prov) in self.providers.iter().enumerate() {
            out.extend(prov.fleet.iter().map(|&(_, ip)| NsInfo {
                ip,
                provider: prov.name.clone(),
                provider_idx: Some(p),
                tail_hosted_sites: prov.tail_hosted_sites,
            }));
        }
        out.extend(self.oracle_ips.iter().map(|&ip| NsInfo {
            ip,
            provider: "MisconfDNS".to_string(),
            provider_idx: None,
            tail_hosted_sites: 150,
        }));
        out
    }

    /// Materialize provider `p`: its infrastructure zone, the legitimate
    /// zones it hosts, then its planted zones in planting order, `placed`
    /// told of each that was hosted; pure in `p` and `reach`. `reach`, a
    /// shard's addresses of this provider (`None`: the whole provider),
    /// hosts every zone but fills only those it can be answered from
    /// ([`fills`]), so it answers the shard's probes as the whole does.
    pub(crate) fn materialize(
        &self,
        p: usize,
        reach: Option<&[Ipv4Addr]>,
        mut placed: impl FnMut(Planted, &HostingProvider, ZoneId),
    ) -> HostingProvider {
        let plan = &self.providers[p];
        let mut prov = HostingProvider::new(
            &plan.name,
            plan.policy.clone(),
            plan.fleet.clone(),
            plan.protective_ip,
            self.provider_seed(p),
        );
        let acct = prov.create_account();
        let zid = prov
            .host_domain(acct, &plan.infra, DomainClass::RegisteredSld)
            .expect("infra zone hosts");
        prov.set_verified(zid);
        if reach.is_none() {
            let infra = plan.fleet.iter();
            let records = infra.map(|(n, ip)| Record::new(n.clone(), 3600, RData::A(*ip)));
            prov.add_records(zid, records.collect());
        }
        for (i, target) in self.targets.iter().enumerate() {
            if self.legit_host[i] == p as u32 {
                let acct = prov.create_account();
                let zid = prov
                    .host_domain(acct, target, DomainClass::RegisteredSld)
                    .expect("legit hosting accepted");
                // The real owner passes any ownership check the provider
                // may later adopt (the delegation points here).
                prov.set_verified(zid);
                if fills(&prov, zid, true, reach) {
                    prov.add_records(zid, self.legit_records(i));
                }
            }
        }
        let mine = &self.planted[self.by_provider[p] as usize..self.by_provider[p + 1] as usize];
        let (confusables, attacks) =
            mine.split_at(mine.partition_point(|i| *i < Planted::CaseStudy(0)));
        let mut plant = |prov: &mut HostingProvider, items: &[Planted]| {
            for &item in items {
                if let Some(zid) = self.plant_zone(prov, item, reach) {
                    placed(item, prov, zid);
                }
            }
        };
        plant(&mut prov, confusables);
        if plan.reserves {
            prov.policy_mut().reserved = self.reserved.clone();
        }
        plant(&mut prov, attacks);
        prov
    }

    /// Host one planted zone at `prov` for a new account and fill it as
    /// `reach` needs; a refusal (a duplicate the policy forbids) leaves no
    /// zone.
    fn plant_zone(
        &self,
        prov: &mut HostingProvider,
        item: Planted,
        reach: Option<&[Ipv4Addr]>,
    ) -> Option<ZoneId> {
        let (domain, class, ttl, rdata) = match item {
            Planted::CaseStudy(k) => {
                let fqdn = CASE_STUDIES[k as usize].1;
                let class = match fqdn.matches('.').count() {
                    1 => DomainClass::RegisteredSld,
                    _ => DomainClass::Subdomain,
                };
                let (ttl, rdata) = match k / 2 {
                    0 => (120, RData::A(DARK_C2)),
                    1 => (120, RData::A(SPECTER_C2)),
                    _ => {
                        let [a, b, c] = SMTP_C2;
                        let spf = format!("v=spf1 ip4:{a} ip4:{b} ip4:{c} -all");
                        (300, RData::txt_from_str(&spf))
                    }
                };
                (fqdn.parse().expect("static"), class, ttl, rdata)
            }
            Planted::Campaign(j) => return self.plant_campaign(prov, self.seed, j, reach),
            _ => {
                let (t, ttl, ip) = self.confusable(item);
                let domain = self.targets[t].clone();
                (domain, DomainClass::RegisteredSld, ttl, RData::A(ip))
            }
        };
        let acct = prov.create_account();
        let zid = prov.host_domain(acct, &domain, class).ok()?;
        if fills(prov, zid, true, reach) {
            prov.add_record(zid, Record::new(domain, ttl, rdata));
        }
        Some(zid)
    }

    /// Host campaign `j` of wave `wave` at `prov` for a new account and
    /// fill it from the campaign's draw as `reach` needs. A subdomain
    /// campaign is asked about only when its FQDN is a case-study target.
    pub(crate) fn plant_campaign(
        &self,
        prov: &mut HostingProvider,
        wave: u64,
        j: u32,
        reach: Option<&[Ipv4Addr]>,
    ) -> Option<ZoneId> {
        let (domain, class) = match self.campaign_target(wave, j) {
            (t, None) => (self.targets[t].clone(), DomainClass::RegisteredSld),
            (t, Some(sub)) => (
                self.targets[t].child(sub).expect("fits"),
                DomainClass::Subdomain,
            ),
        };
        let draw = CampaignDraw::of(wave, j);
        let acct = prov.create_account();
        let zid = prov.host_domain(acct, &domain, class).ok()?;
        if draw.sync {
            prov.sync_all(zid);
        }
        let asked = class == DomainClass::RegisteredSld || self.extra_targets.contains(&domain);
        if fills(prov, zid, asked, reach) {
            prov.add_records(zid, draw.records(&domain, j));
        }
        Some(zid)
    }

    /// Attach nameserver nodes to a replica fabric: all of them
    /// (`scope = None`), or exactly the scoped addresses. Each provider
    /// with an attached node is taken from `provider` once, told the
    /// scoped addresses it owns, and shared across its nodes.
    pub(crate) fn attach_nodes(
        &self,
        net: &mut Network,
        scope: Option<&[Ipv4Addr]>,
        provider: impl Fn(usize, Option<&[Ipv4Addr]>) -> Arc<HostingProvider>,
    ) {
        let mut taken: FxHashMap<usize, Arc<HostingProvider>> = FxHashMap::default();
        let mut attach = |ip: Ipv4Addr| {
            let node: Box<dyn simnet::Node> = match owner(ip) {
                Some(p) => {
                    let prov = taken.entry(p).or_insert_with(|| {
                        let mine = scope.map(|ips| ips.iter().filter(|ip| owner(**ip) == Some(p)));
                        provider(
                            p,
                            mine.map(|ips| ips.copied().collect::<Vec<_>>()).as_deref(),
                        )
                    });
                    Box::new(SharedProviderNs::new(prov.clone(), ip))
                }
                None => Box::new(SharedOracleNs::new(self.answers())),
            };
            net.add_node(ip, node);
        };
        match scope {
            Some(ips) => ips.iter().for_each(|&ip| attach(ip)),
            None => {
                let fleets = self.providers.iter().flat_map(|p| &p.fleet);
                let ips = fleets.map(|f| f.1).chain(self.oracle_ips.iter().copied());
                ips.for_each(attach);
            }
        }
    }
}

/// Whether the zone just hosted as `zid` needs its records: always in a
/// whole provider; in a shard's build (`reach`), only when the scan asks
/// about its apex (`asked`) and some reached nameserver answers from it. A
/// zone that an older zone for its domain shadows at every reached server
/// answers no probe of the shard.
fn fills(prov: &HostingProvider, zid: ZoneId, asked: bool, reach: Option<&[Ipv4Addr]>) -> bool {
    let Some(reach) = reach else {
        return true;
    };
    let mut scratch = Vec::new();
    let apex = prov.zone(zid).expect("hosted").zone.apex();
    let apex = apex.borrowed().fold(&mut scratch);
    let answers_from = |ip: &Ipv4Addr| match prov.answer(*ip, apex, RecordType::A) {
        ProviderAnswer::FromZone(id, _) => id == zid,
        _ => false,
    };
    asked && reach.iter().any(answers_from)
}

/// Walker's alias table for `weights` (Vose's construction): column `i`
/// keeps provider `i` with its chance, and hands the rest to its alias.
fn alias_table(weights: impl ExactSizeIterator<Item = f64>) -> Vec<(f64, u32)> {
    let n = weights.len();
    let mut scaled: Vec<f64> = weights.collect();
    let total: f64 = scaled.iter().sum();
    scaled.iter_mut().for_each(|w| *w *= n as f64 / total);
    let mut table = vec![(1.0, 0u32); n];
    let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| scaled[i] < 1.0);
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        table[s] = (scaled[s], l as u32);
        scaled[l] -= 1.0 - scaled[s];
        if scaled[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // What is left keeps its column whole (rounding leaves it at about 1).
    for i in small.into_iter().chain(large) {
        table[i] = (1.0, i as u32);
    }
    table
}

/// Nameserver `k` of provider `p`: 20.p.x.y for the first 250 providers,
/// 24.(p − 250).x.y for the next 250.
fn fleet_ip(p: usize, k: usize) -> Ipv4Addr {
    assert!(p < 500, "provider index overflows the address plan");
    let first = if p < 250 { 20 } else { 24 };
    Ipv4Addr::new(first, (p % 250) as u8, (k / 200) as u8, (k % 200 + 1) as u8)
}

/// The provider owning a plan address (the inverse of [`fleet_ip`]), or
/// `None` for a misconfigured recursive nameserver.
fn owner(ip: Ipv4Addr) -> Option<usize> {
    match ip.octets() {
        [20, p, ..] => Some(p as usize),
        [24, p, ..] => Some(250 + p as usize),
        [21, 0, 0, _] => None,
        _ => panic!("{ip} is no plan nameserver"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamWorld, World};
    use dnswire::RecordType;
    use std::collections::HashSet;

    /// A paper-style world at toy scale: a set inventory smaller than the
    /// named fleets, no confusables.
    fn tiny_config() -> WorldConfig {
        let mut cfg = WorldConfig::xl();
        cfg.top_domains = 40;
        cfg.synthetic_providers = 6;
        cfg.attack_campaigns = 120;
        cfg.total_nameservers = Some(30);
        cfg
    }

    fn configs() -> [WorldConfig; 2] {
        [WorldConfig::small(), tiny_config()]
    }

    fn plan_of(config: &WorldConfig) -> StreamPlan {
        let tranco = TrancoList::generate(config.seed ^ 0x5452, config.top_domains);
        StreamPlan::new(config, &tranco)
    }

    /// What a provider serves: every zone's apex, its records at the
    /// names a plan zone holds records at, and how it is served.
    fn served(prov: &HostingProvider) -> Vec<String> {
        prov.zones()
            .iter()
            .map(|z| {
                let apex = z.zone.apex();
                let mut owners = vec![apex.clone(), apex.child(b"www").expect("fits")];
                owners.extend(prov.nameservers().iter().map(|(n, _)| n.clone()));
                let records: Vec<_> = owners
                    .iter()
                    .flat_map(|o| [RecordType::A, RecordType::Txt].map(|t| z.zone.get(o, t)))
                    .collect();
                format!(
                    "{apex} {records:?} {} {:?} {:?}",
                    prov.is_active(z.id),
                    prov.assigned_ns(z.id),
                    prov.serving_nameservers(z.id)
                )
            })
            .collect()
    }

    #[test]
    fn generation_is_deterministic() {
        for config in configs() {
            let a = StreamWorld::generate(config.clone());
            let b = StreamWorld::generate(config);
            assert_eq!(a.nameservers.len(), b.nameservers.len());
            for (x, y) in a.nameservers.iter().zip(&b.nameservers) {
                assert_eq!((x.ip, &x.provider), (y.ip, &y.provider));
            }
            for (x, y) in a.legit_sites().zip(b.legit_sites()) {
                assert_eq!((&x.domain, &x.ips, &x.txts), (&y.domain, &y.ips, &y.txts));
            }
            assert_eq!(a.plan.planted, b.plan.planted);
        }
    }

    #[test]
    fn fleet_covers_requested_inventory() {
        let w = StreamWorld::generate(tiny_config());
        assert_eq!(w.nameservers.len(), 30);
        for config in configs() {
            let w = StreamWorld::generate(config);
            let distinct: HashSet<Ipv4Addr> = w.nameservers.iter().map(|ns| ns.ip).collect();
            assert_eq!(distinct.len(), w.nameservers.len(), "addresses are unique");
            for ns in &w.nameservers {
                assert_eq!(owner(ns.ip), ns.provider_idx, "{}", ns.ip);
            }
        }
    }

    #[test]
    fn provider_builds_are_pure() {
        for config in configs() {
            let plan = plan_of(&config);
            for p in 0..plan.providers.len() {
                let a = plan.materialize(p, None, |_, _, _| {});
                let b = plan.materialize(p, None, |_, _, _| {});
                assert_eq!(served(&a), served(&b));
            }
            let cloudns = plan
                .providers
                .iter()
                .position(|p| p.name == "ClouDNS")
                .unwrap();
            assert!(plan.materialize(cloudns, None, |_, _, _| {}).zones().len() > 1);
        }
    }

    #[test]
    fn every_target_is_delegated_to_its_host() {
        for config in configs() {
            let w = StreamWorld::generate(config);
            let plan = &w.plan;
            let built: Vec<HostingProvider> = (0..plan.providers.len())
                .map(|p| plan.materialize(p, None, |_, _, _| {}))
                .collect();
            for (i, target) in plan.targets.iter().enumerate() {
                let delegation = w.registry.delegation_of(target).expect("delegated");
                match plan.self_hosted_ns(i) {
                    Some(ns) => assert_eq!(delegation, &[ns][..]),
                    None => {
                        let prov = &built[plan.legit_host[i] as usize];
                        let zone = prov.zones_for(target)[0].id;
                        let serving = prov.serving_nameservers(zone);
                        assert_eq!(delegation, &serving[..serving.len().min(4)], "{target}");
                    }
                }
            }
        }
    }

    #[test]
    fn scoped_fabric_answers_like_full_fabric() {
        for config in configs() {
            let w = StreamWorld::generate(config);
            let bp = w.scan_blueprint();
            let full = bp.build_network(0);
            let scope: Vec<Ipv4Addr> = w.nameservers.iter().take(5).map(|ns| ns.ip).collect();
            let scoped = bp.build_network_scoped(0, &scope);
            assert!(scope
                .iter()
                .all(|ip| full.has_node(*ip) && scoped.has_node(*ip)));
            assert!(w.nameservers.iter().all(|ns| full.has_node(ns.ip)));
            assert!(!scoped.has_node(w.nameservers[5].ip));
        }
    }

    #[test]
    fn the_eager_world_materializes_every_provider_of_the_plan() {
        let config = WorldConfig::small();
        let world = World::generate(config.clone());
        let plan = plan_of(&config);
        assert_eq!(world.providers.len(), plan.providers.len());
        for (p, prov) in world.providers.iter().enumerate() {
            let built = plan.materialize(p, None, |_, _, _| {});
            assert_eq!(served(&prov.borrow()), served(&built), "provider {p}");
            assert_eq!(prov.borrow().policy().reserved, built.policy().reserved);
        }
    }

    #[test]
    fn a_small_stream_world_plants_every_kind() {
        let plan = plan_of(&WorldConfig::small());
        for kind in [Planted::Past(0), Planted::Parked(0), Planted::Misconfig(0)] {
            let same = |i: &&Planted| std::mem::discriminant(*i) == std::mem::discriminant(&kind);
            assert!(plan.planted.iter().any(|i| same(&i)), "{kind:?}");
        }
        let case_studies = plan
            .planted
            .iter()
            .filter(|i| matches!(i, Planted::CaseStudy(_)));
        assert_eq!(case_studies.count(), CASE_STUDIES.len());
    }
}
