//! The DNS hosting provider: accounts, zone hosting, nameserver
//! allocation, duplicate handling and query answering.
//!
//! This is the substrate the paper's attack abuses. A provider will host a
//! zone for any domain a customer claims (subject to its [`HostingPolicy`]),
//! serve it from the assigned nameservers immediately, and — crucially —
//! serve it whether or not the TLD ever delegates the domain there. Records
//! in such never-delegated zones are the paper's *undelegated records*.

use crate::policy::{DomainClass, HostingPolicy, NsAllocation, VerificationPolicy};
use crate::zone::{Zone, ZoneAnswer};
use dnswire::{Name, NameKey, NameRef, RData, Record, RecordType};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom as _;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Handle to a customer account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccountId(pub u32);

/// Handle to a hosted zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZoneId(pub u32);

/// Why a hosting request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The domain is on the provider's reserved list.
    Reserved,
    /// The provider does not accept this class of domain.
    ClassNotSupported(DomainClass),
    /// A zone for this domain already exists and duplicates are not allowed.
    Duplicate,
    /// No nameserver capacity remains for this domain (Route 53 exhaustion).
    NameserversExhausted,
    /// Unknown account.
    NoSuchAccount,
    /// The provider has no retrieval mechanism.
    RetrievalUnsupported,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Reserved => write!(f, "domain is reserved"),
            HostError::ClassNotSupported(c) => write!(f, "domain class {c:?} not supported"),
            HostError::Duplicate => write!(f, "duplicate hosted domain not allowed"),
            HostError::NameserversExhausted => write!(f, "nameserver pool exhausted for domain"),
            HostError::NoSuchAccount => write!(f, "no such account"),
            HostError::RetrievalUnsupported => write!(f, "provider has no domain retrieval"),
        }
    }
}

impl std::error::Error for HostError {}

/// A customer's zone as hosted by the provider.
#[derive(Debug, Clone)]
pub struct HostedZone {
    /// Zone handle.
    pub id: ZoneId,
    /// Owning account.
    pub(crate) owner: AccountId,
    /// The zone contents.
    pub zone: Zone,
    /// Indices into the provider's nameserver list serving this zone
    /// (ignored when the allocation is global-fixed or the zone is synced).
    pub assigned_ns: Vec<usize>,
    /// Paid sync-to-every-nameserver flag.
    pub(crate) synced_all: bool,
    /// False once disabled by domain retrieval.
    pub active: bool,
    /// Monotone creation order (oldest zone wins answer selection ties).
    pub(crate) created_seq: u64,
    /// Whether ownership verification has passed (only relevant when the
    /// policy demands verification).
    pub(crate) verified: bool,
}

#[derive(Debug, Clone, Default)]
struct Account {
    fixed_ns: Vec<usize>,
}

/// TTL of protective records.
pub(crate) const PROTECTIVE_TTL: u32 = 300;

/// How a provider's nameserver answers a question. Everything in it is
/// borrowed from the provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProviderAnswer<'p> {
    /// Answered from a hosted zone.
    FromZone(ZoneId, ZoneAnswer<'p>),
    /// For a domain nobody hosts here: the protective data to answer with
    /// under the query's own name and a fixed TTL, or `None` when
    /// the provider has none for the queried type (an empty NOERROR).
    Protective(Option<&'p RData>),
    /// Policy refusal (nameserver not serving that domain).
    Refused,
}

/// A DNS hosting provider.
///
/// `Clone` snapshots the full control plane (accounts, zones, RNG state);
/// sharded scans use such snapshots as immutable read-only replicas.
#[derive(Clone)]
pub struct HostingProvider {
    name: String,
    policy: HostingPolicy,
    nameservers: Vec<(Name, Ipv4Addr)>,
    ns_by_ip: HashMap<Ipv4Addr, usize>,
    accounts: Vec<Account>,
    zones: Vec<HostedZone>,
    by_domain: HashMap<Name, Vec<ZoneId>>,
    /// What an unhosted name's A and TXT queries are answered with.
    protective_a: RData,
    protective_txt: RData,
    rng: StdRng,
    seq: u64,
}

impl HostingProvider {
    /// Create a provider with its nameserver fleet.
    ///
    /// `protective_ip` is where protective records point (the provider's
    /// warning page), used only when the policy enables them.
    ///
    /// # Panics
    /// Panics if `nameservers` is empty or contains duplicate addresses.
    pub fn new(
        name: &str,
        policy: HostingPolicy,
        nameservers: Vec<(Name, Ipv4Addr)>,
        protective_ip: Ipv4Addr,
        seed: u64,
    ) -> Self {
        assert!(!nameservers.is_empty(), "provider {name} needs nameservers");
        let mut ns_by_ip = HashMap::new();
        for (i, (_, ip)) in nameservers.iter().enumerate() {
            let prev = ns_by_ip.insert(*ip, i);
            assert!(prev.is_none(), "duplicate nameserver ip {ip}");
        }
        HostingProvider {
            name: name.to_string(),
            policy,
            nameservers,
            ns_by_ip,
            accounts: Vec::new(),
            zones: Vec::new(),
            by_domain: HashMap::new(),
            protective_a: RData::A(protective_ip),
            protective_txt: RData::txt_from_str(&format!(
                "v=warning; domain not hosted on {name}; see status page"
            )),
            rng: StdRng::seed_from_u64(seed),
            seq: 0,
        }
    }

    /// Provider display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The active policy.
    pub fn policy(&self) -> &HostingPolicy {
        &self.policy
    }

    /// Mutable policy access (used to model post-disclosure mitigations).
    pub fn policy_mut(&mut self) -> &mut HostingPolicy {
        &mut self.policy
    }

    /// The nameserver fleet as `(name, ip)` pairs.
    pub fn nameservers(&self) -> &[(Name, Ipv4Addr)] {
        &self.nameservers
    }

    /// All hosted zones (including inactive ones).
    pub fn zones(&self) -> &[HostedZone] {
        &self.zones
    }

    /// A zone by handle.
    pub fn zone(&self, id: ZoneId) -> Option<&HostedZone> {
        self.zones.get(id.0 as usize)
    }

    /// Open a new customer account, assigning fixed nameservers when the
    /// allocation policy is account-fixed.
    pub fn create_account(&mut self) -> AccountId {
        let fixed_ns = match self.policy.allocation {
            NsAllocation::AccountFixed { per_account } => self.pick_ns(per_account, &[]),
            _ => Vec::new(),
        };
        self.accounts.push(Account { fixed_ns });
        AccountId(self.accounts.len() as u32 - 1)
    }

    fn pick_ns(&mut self, count: usize, exclude: &[usize]) -> Vec<usize> {
        let candidates: Vec<usize> = (0..self.nameservers.len())
            .filter(|i| !exclude.contains(i))
            .collect();
        let mut picked: Vec<usize> = candidates
            .sample(&mut self.rng, count.min(candidates.len()))
            .copied()
            .collect();
        picked.sort_unstable();
        picked
    }

    /// Request to host `domain`. `class` describes what kind of name it is
    /// (the provider checks it against policy; the caller — the world or the
    /// auditing probe — knows the registry facts).
    ///
    /// On success the zone is created empty (plus SOA) and served
    /// immediately unless the policy requires verification.
    pub fn host_domain(
        &mut self,
        account: AccountId,
        domain: &Name,
        class: DomainClass,
    ) -> Result<ZoneId, HostError> {
        if account.0 as usize >= self.accounts.len() {
            return Err(HostError::NoSuchAccount);
        }
        if self.policy.is_reserved(domain) {
            return Err(HostError::Reserved);
        }
        if !self.policy.allows_class(class) {
            return Err(HostError::ClassNotSupported(class));
        }
        let existing: Vec<ZoneId> = self
            .by_domain
            .get(domain)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|id| self.zones[id.0 as usize].active)
                    .collect()
            })
            .unwrap_or_default();
        if !existing.is_empty() {
            let same_user = existing
                .iter()
                .any(|id| self.zones[id.0 as usize].owner == account);
            let cross_user = existing
                .iter()
                .any(|id| self.zones[id.0 as usize].owner != account);
            if same_user && !self.policy.duplicates.same_user {
                return Err(HostError::Duplicate);
            }
            if cross_user && !self.policy.duplicates.cross_user {
                return Err(HostError::Duplicate);
            }
        }
        let assigned_ns = match self.policy.allocation {
            NsAllocation::GlobalFixed => Vec::new(), // all nameservers serve
            NsAllocation::AccountFixed { per_account } => {
                // Ensure distinct sets across accounts hosting the same
                // domain (observed Cloudflare behaviour).
                let account_set = self.accounts[account.0 as usize].fixed_ns.clone();
                let collides = existing
                    .iter()
                    .any(|id| self.zones[id.0 as usize].assigned_ns == account_set);
                if collides {
                    let taken: Vec<usize> = existing
                        .iter()
                        .flat_map(|id| self.zones[id.0 as usize].assigned_ns.clone())
                        .collect();
                    let fresh = self.pick_ns(per_account, &taken);
                    if fresh.len() < per_account {
                        return Err(HostError::NameserversExhausted);
                    }
                    fresh
                } else {
                    account_set
                }
            }
            NsAllocation::RandomPool { per_zone } => {
                // Route 53: each zone for the same domain consumes a disjoint
                // nameserver set; when the pool runs dry, hosting fails.
                let taken: Vec<usize> = existing
                    .iter()
                    .flat_map(|id| self.zones[id.0 as usize].assigned_ns.clone())
                    .collect();
                let fresh = self.pick_ns(per_zone, &taken);
                if fresh.len() < per_zone {
                    return Err(HostError::NameserversExhausted);
                }
                fresh
            }
        };
        let id = ZoneId(self.zones.len() as u32);
        self.seq += 1;
        self.zones.push(HostedZone {
            id,
            owner: account,
            zone: Zone::new(domain.clone()),
            assigned_ns,
            synced_all: false,
            active: true,
            created_seq: self.seq,
            verified: false,
        });
        self.by_domain.entry(domain.clone()).or_default().push(id);
        Ok(id)
    }

    /// Add a record to a hosted zone (the customer portal's "add record").
    ///
    /// # Panics
    /// Panics on a dangling handle — that is a caller bug.
    pub fn add_record(&mut self, id: ZoneId, record: Record) {
        self.zones[id.0 as usize].zone.add(record);
    }

    /// Enable paid sync-to-all-nameservers for a zone (Cloudflare paid).
    /// Returns false when the policy does not offer it.
    pub fn sync_all(&mut self, id: ZoneId) -> bool {
        if !self.policy.sync_to_all_ns {
            return false;
        }
        self.zones[id.0 as usize].synced_all = true;
        true
    }

    /// Mark a zone's ownership verification as passed.
    pub fn set_verified(&mut self, id: ZoneId) {
        self.zones[id.0 as usize].verified = true;
    }

    /// Deactivate a zone (customer deletes it — e.g. an audit probe
    /// removing its test records after the experiment, per the paper's
    /// ethics appendix).
    pub fn deactivate_zone(&mut self, id: ZoneId) {
        self.zones[id.0 as usize].active = false;
    }

    /// The legitimate owner reclaims `domain` after proving control:
    /// squatter zones are deactivated and a fresh zone is hosted for
    /// `new_owner`. Fails where Table 2 records "no retrieval".
    pub fn retrieve_domain(
        &mut self,
        new_owner: AccountId,
        domain: &Name,
        class: DomainClass,
    ) -> Result<ZoneId, HostError> {
        if self.policy.duplicates.no_retrieval {
            return Err(HostError::RetrievalUnsupported);
        }
        if let Some(ids) = self.by_domain.get(domain).cloned() {
            for id in ids {
                self.zones[id.0 as usize].active = false;
            }
        }
        self.host_domain(new_owner, domain, class)
    }

    /// Whether nameserver index `ns` serves zone `z`.
    fn serves(&self, z: &HostedZone, ns: usize) -> bool {
        if !z.active {
            return false;
        }
        if let (VerificationPolicy::NsDelegation | VerificationPolicy::TxtChallenge, false) =
            (self.policy.verification, z.verified)
        {
            return false;
        }
        match self.policy.allocation {
            NsAllocation::GlobalFixed => true,
            _ => z.synced_all || z.assigned_ns.contains(&ns),
        }
    }

    /// The nameservers currently serving a zone, as `(name, ip)` pairs —
    /// what the customer portal displays after hosting.
    pub fn serving_nameservers(&self, id: ZoneId) -> Vec<(Name, Ipv4Addr)> {
        let z = &self.zones[id.0 as usize];
        (0..self.nameservers.len())
            .filter(|&i| self.serves(z, i))
            .map(|i| self.nameservers[i].clone())
            .collect()
    }

    /// Answer a question as the nameserver at `ns_ip` would.
    pub fn answer(
        &self,
        ns_ip: Ipv4Addr,
        qname: NameRef<'_>,
        qtype: RecordType,
    ) -> ProviderAnswer<'_> {
        let Some(&ns_idx) = self.ns_by_ip.get(&ns_ip) else {
            return ProviderAnswer::Refused;
        };
        // Candidate zones: served by this NS, apex encloses qname. Walk the
        // qname's suffixes from most specific to least so the most specific
        // apex wins; among duplicates the oldest zone answers.
        for take in (1..=qname.label_count()).rev() {
            let suffix = qname.suffix(take).expect("take within the label count");
            let Some(ids) = self.by_domain.get(&suffix as &dyn NameKey) else {
                continue;
            };
            let best = ids
                .iter()
                .map(|id| &self.zones[id.0 as usize])
                .filter(|z| self.serves(z, ns_idx))
                .min_by_key(|z| z.created_seq);
            if let Some(z) = best {
                return ProviderAnswer::FromZone(z.id, z.zone.answer(qname, qtype));
            }
        }
        if self.policy.protective_records {
            return ProviderAnswer::Protective(match qtype {
                RecordType::A | RecordType::Any => Some(&self.protective_a),
                RecordType::Txt => Some(&self.protective_txt),
                _ => None,
            });
        }
        ProviderAnswer::Refused
    }

    /// Active zones hosting exactly `domain`.
    pub fn zones_for(&self, domain: &Name) -> Vec<&HostedZone> {
        self.by_domain
            .get(domain)
            .map(|v| {
                v.iter()
                    .map(|id| &self.zones[id.0 as usize])
                    .filter(|z| z.active)
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl fmt::Debug for HostingProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostingProvider")
            .field("name", &self.name)
            .field("nameservers", &self.nameservers.len())
            .field("accounts", &self.accounts.len())
            .field("zones", &self.zones.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ns_fleet(count: usize) -> Vec<(Name, Ipv4Addr)> {
        (0..count)
            .map(|i| {
                (
                    n(&format!("ns{i}.prov.example")),
                    Ipv4Addr::new(198, 18, (i / 250) as u8, (i % 250) as u8 + 1),
                )
            })
            .collect()
    }

    fn provider(policy: HostingPolicy, ns: usize) -> HostingProvider {
        HostingProvider::new(
            "TestProv",
            policy,
            ns_fleet(ns),
            Ipv4Addr::new(198, 18, 200, 200),
            7,
        )
    }

    #[test]
    fn host_and_answer_undelegated_record() {
        let mut p = provider(HostingPolicy::cloudns(), 4);
        let acct = p.create_account();
        let zid = p
            .host_domain(acct, &n("trusted.com"), DomainClass::RegisteredSld)
            .unwrap();
        p.add_record(
            zid,
            Record::new(n("trusted.com"), 60, RData::A(Ipv4Addr::new(6, 6, 6, 6))),
        );
        // global-fixed: every NS answers
        for (_, ip) in p.nameservers().to_vec() {
            match p.answer(ip, n("trusted.com").borrowed(), RecordType::A) {
                ProviderAnswer::FromZone(id, ZoneAnswer::Records(rs)) => {
                    assert_eq!(id, zid);
                    let first = rs.iter().next().unwrap();
                    assert_eq!(first.rdata.as_a().unwrap(), Ipv4Addr::new(6, 6, 6, 6));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn reserved_domain_rejected() {
        let mut p = provider(HostingPolicy::cloudflare(), 8);
        p.policy_mut().reserved.push(n("google.com"));
        let acct = p.create_account();
        assert_eq!(
            p.host_domain(acct, &n("google.com"), DomainClass::RegisteredSld),
            Err(HostError::Reserved)
        );
        assert_eq!(
            p.host_domain(acct, &n("www.google.com"), DomainClass::Subdomain),
            Err(HostError::Reserved)
        );
    }

    #[test]
    fn class_rejection_follows_policy() {
        let mut p = provider(HostingPolicy::baidu(), 4);
        let acct = p.create_account();
        assert!(matches!(
            p.host_domain(acct, &n("sub.host.com"), DomainClass::Subdomain),
            Err(HostError::ClassNotSupported(DomainClass::Subdomain))
        ));
        assert!(p.host_domain(acct, &n("gov.cn"), DomainClass::Etld).is_ok());
    }

    #[test]
    fn account_fixed_assigns_distinct_sets_for_same_domain() {
        let mut p = provider(HostingPolicy::cloudflare(), 12);
        let a1 = p.create_account();
        let a2 = p.create_account();
        let z1 = p
            .host_domain(a1, &n("popular.com"), DomainClass::RegisteredSld)
            .unwrap();
        let z2 = p
            .host_domain(a2, &n("popular.com"), DomainClass::RegisteredSld)
            .unwrap();
        let s1 = p.zone(z1).unwrap().assigned_ns.clone();
        let s2 = p.zone(z2).unwrap().assigned_ns.clone();
        assert_ne!(s1, s2, "same-domain zones must not share NS sets");
    }

    #[test]
    fn cross_user_duplicate_denied_without_policy() {
        let mut p = provider(HostingPolicy::godaddy(), 4);
        let a1 = p.create_account();
        let a2 = p.create_account();
        p.host_domain(a1, &n("victim.org"), DomainClass::RegisteredSld)
            .unwrap();
        assert_eq!(
            p.host_domain(a2, &n("victim.org"), DomainClass::RegisteredSld),
            Err(HostError::Duplicate)
        );
    }

    #[test]
    fn route53_pool_exhaustion() {
        let mut p = provider(HostingPolicy::amazon(), 12);
        let a = p.create_account();
        // 12 nameservers / 4 per zone = 3 zones, the 4th must fail
        for _ in 0..3 {
            p.host_domain(a, &n("target.com"), DomainClass::RegisteredSld)
                .unwrap();
        }
        assert_eq!(
            p.host_domain(a, &n("target.com"), DomainClass::RegisteredSld),
            Err(HostError::NameserversExhausted)
        );
        // other domains still fine
        assert!(p
            .host_domain(a, &n("other.com"), DomainClass::RegisteredSld)
            .is_ok());
    }

    #[test]
    fn random_pool_only_assigned_ns_answer() {
        let mut p = provider(HostingPolicy::amazon(), 12);
        let a = p.create_account();
        let zid = p
            .host_domain(a, &n("t.com"), DomainClass::RegisteredSld)
            .unwrap();
        p.add_record(
            zid,
            Record::new(n("t.com"), 60, RData::A(Ipv4Addr::new(9, 9, 9, 9))),
        );
        let serving = p.serving_nameservers(zid);
        assert_eq!(serving.len(), 4);
        let q = n("t.com");
        let mut answered = 0;
        let mut refused = 0;
        for (_, ip) in p.nameservers().to_vec() {
            match p.answer(ip, q.borrowed(), RecordType::A) {
                ProviderAnswer::FromZone(..) => answered += 1,
                ProviderAnswer::Refused => refused += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(answered, 4);
        assert_eq!(refused, 8);
    }

    #[test]
    fn protective_records_for_unhosted_domains() {
        let p = {
            let mut p = provider(HostingPolicy::cloudns(), 2);
            let a = p.create_account();
            p.host_domain(a, &n("mine.org"), DomainClass::RegisteredSld)
                .unwrap();
            p
        };
        let ip = p.nameservers()[0].1;
        match p.answer(ip, n("unhosted.net").borrowed(), RecordType::A) {
            ProviderAnswer::Protective(Some(rdata)) => {
                assert_eq!(rdata.as_a().unwrap(), Ipv4Addr::new(198, 18, 200, 200));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match p.answer(ip, n("unhosted.net").borrowed(), RecordType::Txt) {
            ProviderAnswer::Protective(Some(rdata)) => {
                assert!(rdata.txt_joined().unwrap().contains("warning"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn refused_without_protective_policy() {
        let mut p = provider(HostingPolicy::cloudflare(), 4);
        let _ = p.create_account();
        let ip = p.nameservers()[0].1;
        assert_eq!(
            p.answer(ip, n("nobody.com").borrowed(), RecordType::A),
            ProviderAnswer::Refused
        );
    }

    #[test]
    fn retrieval_evicts_squatter() {
        let mut p = provider(HostingPolicy::tencent(), 8);
        let attacker = p.create_account();
        let owner = p.create_account();
        let squat = p
            .host_domain(attacker, &n("brand.com"), DomainClass::RegisteredSld)
            .unwrap();
        p.add_record(
            squat,
            Record::new(n("brand.com"), 60, RData::A(Ipv4Addr::new(6, 6, 6, 6))),
        );
        let reclaimed = p
            .retrieve_domain(owner, &n("brand.com"), DomainClass::RegisteredSld)
            .unwrap();
        assert!(!p.zone(squat).unwrap().active);
        assert!(p.zone(reclaimed).unwrap().active);
        // squatter's NS no longer serve the UR
        let q = n("brand.com");
        for (_, ip) in p.nameservers().to_vec() {
            if let ProviderAnswer::FromZone(id, ZoneAnswer::Records(_)) =
                p.answer(ip, q.borrowed(), RecordType::A)
            {
                panic!("squatter zone {id:?} still answering");
            }
        }
    }

    #[test]
    fn no_retrieval_providers_refuse() {
        let mut p = provider(HostingPolicy::godaddy(), 4);
        let attacker = p.create_account();
        let owner = p.create_account();
        p.host_domain(attacker, &n("brand.com"), DomainClass::RegisteredSld)
            .unwrap();
        assert_eq!(
            p.retrieve_domain(owner, &n("brand.com"), DomainClass::RegisteredSld),
            Err(HostError::RetrievalUnsupported)
        );
    }

    #[test]
    fn sync_all_spreads_zone_to_every_ns() {
        let mut p = provider(HostingPolicy::cloudflare(), 10);
        let a = p.create_account();
        let zid = p
            .host_domain(a, &n("wide.com"), DomainClass::RegisteredSld)
            .unwrap();
        assert!(p.sync_all(zid));
        assert_eq!(p.serving_nameservers(zid).len(), 10);
    }

    #[test]
    fn sync_all_denied_without_policy() {
        let mut p = provider(HostingPolicy::godaddy(), 4);
        let a = p.create_account();
        let zid = p
            .host_domain(a, &n("wide.com"), DomainClass::RegisteredSld)
            .unwrap();
        assert!(!p.sync_all(zid));
    }

    #[test]
    fn verification_gate_blocks_serving_until_verified() {
        let mut pol = HostingPolicy::tencent();
        pol.verification = VerificationPolicy::NsDelegation;
        let mut p = provider(pol, 8);
        let a = p.create_account();
        let zid = p
            .host_domain(a, &n("legit.com"), DomainClass::RegisteredSld)
            .unwrap();
        p.add_record(
            zid,
            Record::new(n("legit.com"), 60, RData::A(Ipv4Addr::new(1, 1, 1, 1))),
        );
        assert!(p.serving_nameservers(zid).is_empty());
        p.set_verified(zid);
        assert!(!p.serving_nameservers(zid).is_empty());
    }

    #[test]
    fn oldest_zone_wins_duplicate_answers() {
        let mut p = provider(HostingPolicy::amazon(), 12);
        let a1 = p.create_account();
        let a2 = p.create_account();
        let z1 = p
            .host_domain(a1, &n("dup.com"), DomainClass::RegisteredSld)
            .unwrap();
        let z2 = p
            .host_domain(a2, &n("dup.com"), DomainClass::RegisteredSld)
            .unwrap();
        p.add_record(
            z1,
            Record::new(n("dup.com"), 60, RData::A(Ipv4Addr::new(1, 1, 1, 1))),
        );
        p.add_record(
            z2,
            Record::new(n("dup.com"), 60, RData::A(Ipv4Addr::new(2, 2, 2, 2))),
        );
        // On any NS serving both (none here: disjoint sets) — instead check
        // the per-NS answer maps to the zone assigned to it.
        let q = n("dup.com");
        for (_, ip) in p.nameservers().to_vec() {
            if let ProviderAnswer::FromZone(id, _) = p.answer(ip, q.borrowed(), RecordType::A) {
                let z = p.zone(id).unwrap();
                let idx = p
                    .nameservers()
                    .iter()
                    .position(|(_, nip)| *nip == ip)
                    .unwrap();
                assert!(z.assigned_ns.contains(&idx));
            }
        }
    }

    #[test]
    fn unregistered_domain_support() {
        let mut amazon = provider(HostingPolicy::amazon(), 8);
        let a = amazon.create_account();
        assert!(amazon
            .host_domain(a, &n("never-registered.xyz"), DomainClass::Unregistered)
            .is_ok());

        let mut cf = provider(HostingPolicy::cloudflare(), 8);
        let a = cf.create_account();
        assert!(matches!(
            cf.host_domain(a, &n("never-registered.xyz"), DomainClass::Unregistered),
            Err(HostError::ClassNotSupported(_))
        ));
    }
}
