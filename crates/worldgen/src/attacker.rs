//! Attacker population: campaigns that plant undelegated records, their C2
//! infrastructure, threat-intel visibility and sandbox malware samples.

use crate::tranco::TrancoList;
use authdns::{DomainClass, HostError, HostingProvider, ZoneId};
use dnswire::{Name, RData, Record, RecordType};
use intel::{malware, C2Target, MalwareOp, MalwareSample, ThreatTag, VendorFeed};
use netdb::{GeoInfo, HttpProfile, NetDb};
use rand::rngs::StdRng;
use rand::RngExt;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// How a campaign's C2 infrastructure is visible to the analysis pipeline
/// (drives Fig. 3a's three-way split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionClass {
    /// Flagged by threat-intelligence vendors; no sandbox sample exists.
    LabelOnly,
    /// Sandbox malware triggers IDS alerts; no vendor flags it.
    IdsOnly,
    /// Both signals present.
    Both,
    /// Nothing detects it (the UR stays "unknown").
    Undetected,
}

/// One planted undelegated record set (a campaign may plant A, TXT or both).
#[derive(Debug, Clone)]
pub struct PlantedUr {
    /// The abused domain.
    pub domain: Name,
    /// Provider index in the world's provider list.
    pub provider: usize,
    /// The hosted zone at that provider.
    pub zone: ZoneId,
    /// Record types planted.
    pub rtypes: Vec<RecordType>,
    /// C2 addresses the records expose.
    pub c2_ips: Vec<Ipv4Addr>,
    /// Visibility class.
    pub detection: DetectionClass,
    /// The TXT record is an opaque command blob with no embedded address,
    /// so the pipeline leaves it unknown.
    pub command_blob: bool,
}

/// Parameters for one campaign-planting run.
pub(crate) struct AttackerPlan<'a> {
    /// Seeded RNG (owned by the caller for global determinism).
    pub(crate) rng: &'a mut StdRng,
    /// The ranked target list.
    pub(crate) tranco: &'a TrancoList,
    /// Provider handles.
    pub(crate) providers: &'a [Rc<RefCell<HostingProvider>>],
    /// Popularity weight per provider (hosted-site counts): attackers
    /// prefer reputable, widely-used providers.
    pub(crate) provider_weights: &'a [u64],
    /// Metadata database to register C2 infrastructure in.
    pub(crate) db: &'a mut NetDb,
    /// Vendor feeds to flag C2s in.
    pub(crate) vendors: &'a mut [VendorFeed],
    /// Sample sink.
    pub(crate) samples: &'a mut Vec<MalwareSample>,
    /// Campaign count.
    pub(crate) campaigns: usize,
    /// Offset added to campaign indices (keeps C2 address blocks and
    /// sample names unique across evolution epochs).
    pub(crate) campaign_offset: usize,
    /// Fraction of campaigns detectable at all.
    pub(crate) malicious_fraction: f64,
    /// Of detectable: label-only fraction.
    pub(crate) label_only_fraction: f64,
    /// Of detectable: IDS-only fraction.
    pub(crate) ids_only_fraction: f64,
}

/// Sample a per-IP vendor flag count following Fig. 3(b)'s shape
/// (1-2: 77.9%, 3-4: 16.3%, 5-6: 2.0%, 7-11: 3.8%).
pub(crate) fn sample_vendor_count(rng: &mut StdRng, max: usize) -> usize {
    let roll: f64 = rng.random_range(0.0..1.0);
    let count: usize = if roll < 0.779 {
        rng.random_range(1..=2)
    } else if roll < 0.942 {
        rng.random_range(3..=4)
    } else if roll < 0.962 {
        rng.random_range(5..=6)
    } else {
        rng.random_range(7..=11)
    };
    count.min(max.max(1))
}

/// Sample vendor tags following Fig. 3(d)'s marginal prevalences
/// (Trojan 89%, Scanner 41%, Other 33%, Malware 19%, C&C 16%, Botnet 10%).
pub(crate) fn sample_tags(rng: &mut StdRng) -> Vec<ThreatTag> {
    let mut tags = Vec::new();
    for (tag, p) in [
        (ThreatTag::Trojan, 0.89),
        (ThreatTag::Scanner, 0.41),
        (ThreatTag::Other, 0.33),
        (ThreatTag::Malware, 0.19),
        (ThreatTag::CnC, 0.16),
        (ThreatTag::Botnet, 0.10),
    ] {
        if rng.random_bool(p) {
            tags.push(tag);
        }
    }
    if tags.is_empty() {
        tags.push(ThreatTag::Trojan);
    }
    tags
}

/// IDS-visible payload markers with target Fig. 3(c)-ish weights.
const MARKERS: &[(&[u8], u32)] = &[
    (b"TRJ-BEACON", 42),
    (b"CRED-POST", 21),
    (b"GET /drop.bin", 12),
    (b"SCAN-PROBE", 10),
    (b"C2-POLL", 11),
    (b"BAD-SESSION", 2),
];

fn pick_marker(rng: &mut StdRng) -> &'static [u8] {
    let total: u32 = MARKERS.iter().map(|(_, w)| w).sum();
    let mut pick = rng.random_range(0..total);
    for (m, w) in MARKERS {
        if pick < *w {
            return m;
        }
        pick -= w;
    }
    MARKERS[0].0
}

/// The provider with the highest key not yet taken, the lower index first
/// among equal keys; `None` once all are taken. Keys lie in (0, 1), so a
/// taken one is marked -1. Repeated calls yield the order of a stable
/// descending sort of the keys.
fn take_highest(keys: &mut [f64]) -> Option<usize> {
    let (i, _) = keys
        .iter()
        .enumerate()
        .filter(|(_, k)| **k >= 0.0)
        .min_by(|a, b| b.1.partial_cmp(a.1).expect("keys are finite"))?;
    keys[i] = -1.0;
    Some(i)
}

/// Plant all campaigns. Returns the ground-truth list of planted URs.
pub(crate) fn plant_campaigns(plan: &mut AttackerPlan<'_>) -> Vec<PlantedUr> {
    let mut planted = Vec::new();
    let top = plan.tranco.len();
    // The key exponent `1 / w` of each provider, and one key buffer for
    // every campaign.
    let exponents: Vec<f64> = (0..plan.providers.len())
        .map(|i| 1.0 / plan.provider_weights.get(i).copied().unwrap_or(1).max(1) as f64)
        .collect();
    let mut keys: Vec<f64> = Vec::with_capacity(exponents.len());
    for c in 0..plan.campaigns {
        let c = plan.campaign_offset + c;
        // Target pick: a head-biased minority (popular domains are more
        // valuable to abuse) over a uniform majority (the paper finds URs
        // for 99.95% of the top 2K, so coverage is broad).
        let idx = if plan.rng.random_bool(0.3) {
            let r1: f64 = plan.rng.random_range(0.0..1.0);
            let r2: f64 = plan.rng.random_range(0.0..1.0);
            ((r1 * r2 * top as f64) as usize).min(top - 1)
        } else {
            plan.rng.random_range(0..top)
        };
        let apex = plan.tranco.domains()[idx].clone();
        // 15% target a subdomain of the apex instead.
        let (domain, class) = if plan.rng.random_bool(0.15) {
            let label: &[u8] =
                [&b"api"[..], b"cdn", b"raw", b"mail"][plan.rng.random_range(0..4usize)];
            (
                apex.child(label).expect("child fits"),
                DomainClass::Subdomain,
            )
        } else {
            (apex, DomainClass::RegisteredSld)
        };
        // Record mix: mostly A, a fifth TXT (SPF masquerade), some both,
        // and a small MX slice (the §6 future-work record type).
        let mix: f64 = plan.rng.random_range(0.0..1.0);
        let rtypes: Vec<RecordType> = if mix < 0.62 {
            vec![RecordType::A]
        } else if mix < 0.82 {
            vec![RecordType::Txt]
        } else if mix < 0.92 {
            vec![RecordType::A, RecordType::Txt]
        } else {
            vec![RecordType::Mx]
        };
        // A fifth of TXT-only campaigns carry opaque command blobs
        // instead of SPF text (the paper's acknowledged blind spot).
        let command_blob = rtypes == vec![RecordType::Txt] && plan.rng.random_bool(0.2);
        // C2 block 40.x.y.0/24 for campaign c.
        let block = (40u8, (c / 250) as u8, (c % 250) as u8);
        let n_c2 = plan.rng.random_range(1..=3usize);
        let c2_ips: Vec<Ipv4Addr> = (0..n_c2)
            .map(|k| Ipv4Addr::new(block.0, block.1, block.2, 10 + k as u8))
            .collect();
        // Detection class.
        let detection = if plan.rng.random_bool(plan.malicious_fraction) {
            let roll: f64 = plan.rng.random_range(0.0..1.0);
            if roll < plan.label_only_fraction {
                DetectionClass::LabelOnly
            } else if roll < plan.label_only_fraction + plan.ids_only_fraction {
                DetectionClass::IdsOnly
            } else {
                DetectionClass::Both
            }
        } else {
            DetectionClass::Undetected
        };
        // Try providers in popularity-weighted random order until one
        // accepts (Efraimidis-Spirakis weighted sampling: attackers abuse
        // the reputation of major providers first). One key per provider
        // in index order; providers are taken lazily, highest key first.
        keys.clear();
        for &e in &exponents {
            let u: f64 = plan.rng.random_range(f64::EPSILON..1.0);
            keys.push(u.powf(e));
        }
        let mut hosted = None;
        while let Some(p_idx) = take_highest(&mut keys) {
            let mut p = plan.providers[p_idx].borrow_mut();
            let acct = p.create_account();
            match p.host_domain(acct, &domain, class) {
                Ok(zid) => {
                    hosted = Some((p_idx, zid));
                    break;
                }
                Err(
                    HostError::Reserved
                    | HostError::ClassNotSupported(_)
                    | HostError::Duplicate
                    | HostError::NameserversExhausted,
                ) => continue,
                Err(e) => panic!("unexpected hosting error: {e}"),
            }
        }
        let Some((p_idx, zid)) = hosted else { continue };
        // Paid attackers on sync-capable providers (Cloudflare tier) push
        // the UR to the entire nameserver fleet.
        if plan.rng.random_bool(0.5) {
            let mut p = plan.providers[p_idx].borrow_mut();
            if p.policy().sync_to_all_ns {
                p.sync_all(zid);
            }
        }
        // Plant the records: the campaign's records go in at once, so a
        // fast-flux RRset is sized once.
        let mut records = Vec::new();
        for rt in &rtypes {
            match rt {
                RecordType::A => {
                    for ip in &c2_ips {
                        records.push(Record::new(domain.clone(), 120, RData::A(*ip)));
                    }
                    // A few campaigns pad the RRset far past the UDP
                    // limit (fast-flux style), exercising the TC bit
                    // and the scanner's TCP fallback.
                    if plan.rng.random_bool(0.04) {
                        for k in 0..35u8 {
                            records.push(Record::new(
                                domain.clone(),
                                120,
                                RData::A(Ipv4Addr::new(block.0, block.1, block.2, 100 + k)),
                            ));
                        }
                    }
                }
                RecordType::Txt if command_blob => {
                    // Opaque command blob: the C2 address is inside the
                    // encoded payload, invisible to IP extraction.
                    let marker = ["dkt;", "sp3c;", "cmd64="][c % 3];
                    records.push(Record::new(
                        domain.clone(),
                        120,
                        RData::txt_from_str(&format!(
                            "{marker}Q0M9e3tjMn19O3Rhc2s9cnVuO2lkPX: c{c}"
                        )),
                    ));
                }
                RecordType::Txt => {
                    let mechanisms: Vec<String> =
                        c2_ips.iter().map(|ip| format!("ip4:{ip}")).collect();
                    records.push(Record::new(
                        domain.clone(),
                        120,
                        RData::txt_from_str(&format!("v=spf1 {} -all", mechanisms.join(" "))),
                    ));
                }
                RecordType::Mx => {
                    // The exchange host lives inside the attacker zone
                    // and resolves to the C2 fleet.
                    let exchange = domain.child(b"mx").expect("mx child fits");
                    records.push(Record::new(
                        domain.clone(),
                        120,
                        RData::Mx {
                            preference: 10,
                            exchange: exchange.clone(),
                        },
                    ));
                    for ip in &c2_ips {
                        records.push(Record::new(exchange.clone(), 120, RData::A(*ip)));
                    }
                }
                _ => unreachable!("campaigns plant only A/TXT/MX"),
            }
        }
        plan.providers[p_idx].borrow_mut().add_records(zid, records);
        // Register C2 infrastructure in the metadata DB.
        plan.db.add_prefix(
            netdb::Cidr::new(Ipv4Addr::new(block.0, block.1, block.2, 0), 24),
            64_900 + (c as u32 % 9),
            &format!("BulletProof-{}", c % 9),
        );
        for (k, ip) in c2_ips.iter().enumerate() {
            let country = ["RU", "CN", "MD", "US", "VN"][(c + k) % 5];
            plan.db.set_geo(*ip, GeoInfo::new(country, (c % 90) as u16));
            if plan.rng.random_bool(0.5) {
                plan.db.set_http(*ip, HttpProfile::normal("login"));
            }
        }
        // Vendor flags.
        if matches!(detection, DetectionClass::LabelOnly | DetectionClass::Both) {
            for ip in &c2_ips {
                let count = sample_vendor_count(plan.rng, plan.vendors.len());
                let tags = sample_tags(plan.rng);
                let mut vendor_order: Vec<usize> = (0..plan.vendors.len()).collect();
                shuffle(plan.rng, &mut vendor_order);
                for &v in vendor_order.iter().take(count) {
                    for t in &tags {
                        plan.vendors[v].flag(*ip, *t);
                    }
                }
            }
        }
        // Sandbox samples.
        if matches!(detection, DetectionClass::IdsOnly | DetectionClass::Both) {
            let serving = plan.providers[p_idx].borrow().serving_nameservers(zid);
            if let Some((_, ns_ip)) = serving.first() {
                let n_samples = plan.rng.random_range(1..=2usize);
                for s in 0..n_samples {
                    let rtype = if rtypes.contains(&RecordType::A) {
                        RecordType::A
                    } else if rtypes.contains(&RecordType::Txt) {
                        RecordType::Txt
                    } else {
                        RecordType::Mx
                    };
                    let target = if command_blob {
                        // The sample decodes the blob offline; on the wire
                        // it connects straight to the embedded address.
                        C2Target::Fixed(c2_ips[0])
                    } else if rtype == RecordType::Txt {
                        C2Target::FromTxt
                    } else {
                        C2Target::FromLastResolution
                    };
                    let mut ops = vec![MalwareOp::ResolveDirect {
                        ns: *ns_ip,
                        domain: domain.clone(),
                        rtype,
                    }];
                    if rtype == RecordType::Mx {
                        // The MX answer names the exchange; resolve its
                        // address at the same server before connecting.
                        ops.push(MalwareOp::ResolveDirect {
                            ns: *ns_ip,
                            domain: domain.child(b"mx").expect("mx child fits"),
                            rtype: RecordType::A,
                        });
                    }
                    let n_connects = plan.rng.random_range(1..=2usize);
                    for _ in 0..n_connects {
                        let marker = pick_marker(plan.rng);
                        let mut payload = marker.to_vec();
                        payload.extend_from_slice(format!(" c={c} s={s}").as_bytes());
                        ops.push(MalwareOp::Connect {
                            target: target.clone(),
                            port: 4000 + (c % 1000) as u16,
                            payload,
                        });
                    }
                    // Fallback C2s baked into the sample: the remaining
                    // addresses get contacted (and IDS-flagged) too.
                    for ip in c2_ips.iter().skip(1) {
                        let marker = pick_marker(plan.rng);
                        let mut payload = marker.to_vec();
                        payload.extend_from_slice(format!(" c={c} s={s} fb").as_bytes());
                        ops.push(MalwareOp::Connect {
                            target: C2Target::Fixed(*ip),
                            port: 4000 + (c % 1000) as u16,
                            payload,
                        });
                    }
                    plan.samples.push(MalwareSample {
                        name: format!("campaign{c}.sample{s}"),
                        family: "GenericTrojan".to_string(),
                        ops,
                    });
                }
            }
        }
        // Some undetected campaigns still run connectivity-only samples —
        // the severity filter must not promote them to malicious.
        if detection == DetectionClass::Undetected && plan.rng.random_bool(0.2) {
            let serving = plan.providers[p_idx].borrow().serving_nameservers(zid);
            if let Some((_, ns_ip)) = serving.first() {
                if rtypes.contains(&RecordType::A) {
                    plan.samples
                        .push(malware::connectivity_checker(c as u32, *ns_ip, &domain));
                }
            }
        }
        planted.push(PlantedUr {
            domain,
            provider: p_idx,
            zone: zid,
            rtypes,
            c2_ips,
            detection,
            command_blob,
        });
    }
    planted
}

/// Fisher-Yates shuffle driven by the world RNG (keeps rand's `shuffle`
/// out of the dependency surface we need to pin for determinism).
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    if v.is_empty() {
        return;
    }
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vendor_count_distribution_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut low = 0;
        let n = 10_000;
        for _ in 0..n {
            let c = sample_vendor_count(&mut rng, 12);
            assert!((1..=12).contains(&c));
            if c <= 2 {
                low += 1;
            }
        }
        let frac = low as f64 / n as f64;
        assert!((0.74..0.82).contains(&frac), "1-2 bucket fraction {frac}");
    }

    #[test]
    fn tags_always_nonempty_and_trojan_dominant() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 5_000;
        let mut trojan = 0;
        for _ in 0..n {
            let tags = sample_tags(&mut rng);
            assert!(!tags.is_empty());
            if tags.contains(&ThreatTag::Trojan) {
                trojan += 1;
            }
        }
        let frac = trojan as f64 / n as f64;
        assert!(frac > 0.85, "trojan fraction {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    proptest::proptest! {
        /// Taking providers one at a time yields the stable descending
        /// sort's order of the whole key list, so a provider that refuses
        /// falls through to the one the sort put next. Keys come from a
        /// handful of values, so ties are common.
        #[test]
        fn lazy_pick_order_is_the_stable_descending_sort(
            picks in proptest::collection::vec(0..6usize, 1..=80)
        ) {
            const VALUES: [f64; 6] = [1e-9, 0.25, 0.5, 0.5 + f64::EPSILON, 0.75, 0.999];
            let mut keyed: Vec<(f64, usize)> =
                picks.iter().enumerate().map(|(i, &v)| (VALUES[v], i)).collect();
            let mut keys: Vec<f64> = keyed.iter().map(|&(k, _)| k).collect();
            keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let sorted: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
            let lazy: Vec<usize> = std::iter::from_fn(|| take_highest(&mut keys)).collect();
            proptest::prop_assert_eq!(lazy, sorted);
        }
    }

    #[test]
    fn marker_weights_cover_all() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            seen.insert(pick_marker(&mut rng));
        }
        assert_eq!(seen.len(), MARKERS.len());
    }
}
