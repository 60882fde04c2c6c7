//! Attacker population: campaigns that plant undelegated records, their C2
//! infrastructure, threat-intel visibility and sandbox malware samples.

use crate::config::WorldConfig;
use crate::plan::mix2;
use authdns::ZoneId;
use dnswire::{Name, RData, Record, RecordType};
use intel::{malware, C2Target, MalwareOp, MalwareSample, ThreatTag, VendorFeed};
use netdb::{GeoInfo, HttpProfile, NetDb};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

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

/// What campaign `c`'s zone holds, drawn from the campaign's own seeded
/// generator: its record mix (mostly A, a fifth TXT masquerading as SPF,
/// some both), whether a TXT-only campaign's body is an opaque command
/// blob, how many C2 addresses it exposes, whether it pads its A RRset
/// past the UDP limit, and whether a paid attacker syncs it to the whole
/// fleet where the provider sells that.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CampaignDraw {
    a: bool,
    txt: bool,
    command_blob: bool,
    c2: u8,
    fast_flux: bool,
    pub(crate) sync: bool,
}

impl CampaignDraw {
    /// Campaign `c` of wave `wave`.
    pub(crate) fn of(wave: u64, c: u32) -> CampaignDraw {
        let mut rng = StdRng::seed_from_u64(mix2(wave ^ 0x5245_4353, c as u64, 0));
        let mix: f64 = rng.random_range(0.0..0.92);
        let (a, txt) = (!(0.62..0.82).contains(&mix), mix >= 0.62);
        CampaignDraw {
            a,
            txt,
            // A fifth of TXT-only campaigns carry opaque command blobs
            // instead of SPF text (the paper's acknowledged blind spot).
            command_blob: !a && rng.random_bool(0.2),
            c2: rng.random_range(1..=3u8),
            fast_flux: a && rng.random_bool(0.04),
            sync: rng.random_bool(0.5),
        }
    }

    /// The campaign's C2 addresses, in its own 40.x.y.0/24.
    pub(crate) fn c2_ips(&self, c: u32) -> Vec<Ipv4Addr> {
        (0..self.c2).map(|k| c2_block(c, 10 + k)).collect()
    }

    /// The record types it plants.
    fn rtypes(&self) -> Vec<RecordType> {
        let types = [(self.a, RecordType::A), (self.txt, RecordType::Txt)];
        types
            .into_iter()
            .filter(|(on, _)| *on)
            .map(|(_, t)| t)
            .collect()
    }

    /// The zone's records at `domain`, added to the zone at once, so a
    /// fast-flux RRset is sized once.
    pub(crate) fn records(&self, domain: &Name, c: u32) -> Vec<Record> {
        let record = |rdata| Record::new(domain.clone(), 120, rdata);
        let c2 = (0..self.c2).map(|k| c2_block(c, 10 + k));
        let mut records = Vec::with_capacity(
            usize::from(self.a) * (self.c2 as usize + 35 * usize::from(self.fast_flux))
                + usize::from(self.txt),
        );
        if self.a {
            records.extend(c2.clone().map(|ip| record(RData::A(ip))));
            // Fast-flux padding exercises the TC bit and the scanner's TCP
            // fallback.
            if self.fast_flux {
                records.extend((0..35).map(|k| record(RData::A(c2_block(c, 100 + k)))));
            }
        }
        if self.command_blob {
            // The C2 address is inside the encoded payload, invisible to
            // IP extraction.
            let marker = ["dkt;", "sp3c;", "cmd64="][c as usize % 3];
            let blob = format!("{marker}Q0M9e3tjMn19O3Rhc2s9cnVuO2lkPX: c{c}");
            records.push(record(RData::txt_from_str(&blob)));
        } else if self.txt {
            let mut spf = String::from("v=spf1");
            for ip in c2 {
                let _ = write!(spf, " ip4:{ip}");
            }
            spf.push_str(" -all");
            records.push(record(RData::txt_from_str(&spf)));
        }
        records
    }
}

/// Address `last` of campaign `c`'s C2 block.
fn c2_block(c: u32, last: u8) -> Ipv4Addr {
    Ipv4Addr::new(40, (c / 250) as u8, (c % 250) as u8, last)
}

/// Where the eager world's support data goes.
pub(crate) struct Support<'a> {
    pub(crate) db: &'a mut NetDb,
    pub(crate) vendors: &'a mut [VendorFeed],
    pub(crate) samples: &'a mut Vec<MalwareSample>,
    pub(crate) config: &'a WorldConfig,
}

/// Campaign `c` of wave `wave`, hosted at provider `provider` as `zone`
/// and served first by `first_ns()`: register its C2 infrastructure, flag it
/// at the vendors and write its sandbox samples as its detection class
/// says, all drawn from the campaign's own generator, and return its
/// ground truth.
pub(crate) fn support_campaign(
    out: &mut Support<'_>,
    (wave, c): (u64, u32),
    domain: Name,
    (provider, zone): (usize, ZoneId),
    first_ns: impl Fn() -> Ipv4Addr,
) -> PlantedUr {
    let draw = CampaignDraw::of(wave, c);
    let c2_ips = draw.c2_ips(c);
    let rtypes = draw.rtypes();
    let rng = &mut StdRng::seed_from_u64(mix2(wave ^ 0x5355_5050, c as u64, 0));
    let cfg = out.config;
    let detection = if rng.random_bool(cfg.malicious_campaign_fraction) {
        let roll: f64 = rng.random_range(0.0..1.0);
        if roll < cfg.label_only_fraction {
            DetectionClass::LabelOnly
        } else if roll < cfg.label_only_fraction + cfg.ids_only_fraction {
            DetectionClass::IdsOnly
        } else {
            DetectionClass::Both
        }
    } else {
        DetectionClass::Undetected
    };
    out.db.add_prefix(
        netdb::Cidr::new(c2_block(c, 0), 24),
        64_900 + (c % 9),
        &format!("BulletProof-{}", c % 9),
    );
    for (k, ip) in c2_ips.iter().enumerate() {
        let country = ["RU", "CN", "MD", "US", "VN"][(c as usize + k) % 5];
        out.db.set_geo(*ip, GeoInfo::new(country, (c % 90) as u16));
        if rng.random_bool(0.5) {
            out.db.set_http(*ip, HttpProfile::normal("login"));
        }
    }
    if matches!(detection, DetectionClass::LabelOnly | DetectionClass::Both) {
        for ip in &c2_ips {
            let count = sample_vendor_count(rng, out.vendors.len());
            let tags = sample_tags(rng);
            let mut vendor_order: Vec<usize> = (0..out.vendors.len()).collect();
            shuffle(rng, &mut vendor_order);
            for &v in vendor_order.iter().take(count) {
                for t in &tags {
                    out.vendors[v].flag(*ip, *t);
                }
            }
        }
    }
    if matches!(detection, DetectionClass::IdsOnly | DetectionClass::Both) {
        let rtype = rtypes[0];
        let target = if draw.command_blob {
            // The sample decodes the blob offline; on the wire it
            // connects straight to the embedded address.
            C2Target::Fixed(c2_ips[0])
        } else if rtype == RecordType::Txt {
            C2Target::FromTxt
        } else {
            C2Target::FromLastResolution
        };
        let ns_ip = first_ns();
        for s in 0..rng.random_range(1..=2usize) {
            let mut ops = vec![MalwareOp::ResolveDirect {
                ns: ns_ip,
                domain: domain.clone(),
                rtype,
            }];
            let mut connect = |target: C2Target, tag: &str, rng: &mut StdRng| {
                let mut payload = pick_marker(rng).to_vec();
                payload.extend_from_slice(format!(" c={c} s={s}{tag}").as_bytes());
                ops.push(MalwareOp::Connect {
                    target,
                    port: 4000 + (c % 1000) as u16,
                    payload,
                });
            };
            for _ in 0..rng.random_range(1..=2usize) {
                connect(target.clone(), "", rng);
            }
            // Fallback C2s baked into the sample: the remaining addresses
            // get contacted (and IDS-flagged) too.
            for ip in c2_ips.iter().skip(1) {
                connect(C2Target::Fixed(*ip), " fb", rng);
            }
            out.samples.push(MalwareSample {
                name: format!("campaign{c}.sample{s}"),
                family: "GenericTrojan".to_string(),
                ops,
            });
        }
    }
    // Some undetected campaigns still run connectivity-only samples — the
    // severity filter must not promote them to malicious.
    if detection == DetectionClass::Undetected && rng.random_bool(0.2) && draw.a {
        out.samples
            .push(malware::connectivity_checker(c, first_ns(), &domain));
    }
    PlantedUr {
        domain,
        provider,
        zone,
        rtypes,
        c2_ips,
        detection,
        command_blob: draw.command_blob,
    }
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
