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
use dnswire::{Folded, FoldedName, Name, RData, Record, RecordType};
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::hash_map::Entry;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

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

/// A customer's zone as hosted by the provider. How it is served is the
/// provider's: see [`HostingProvider::is_active`] and
/// [`HostingProvider::assigned_ns`].
#[derive(Debug, Clone)]
pub struct HostedZone {
    /// Zone handle. Handles rise in creation order.
    pub id: ZoneId,
    /// Owning account.
    pub(crate) owner: AccountId,
    /// The zone contents.
    pub zone: Zone,
}

/// How one hosted zone is served: every fact an answer reads of a zone
/// before its records. One entry a zone, in a dense table indexed by
/// [`ZoneId`], so a probe that passes over a zone it does not serve reads
/// 24 bytes, not the zone.
#[derive(Debug, Clone)]
struct Serving {
    /// Indices into the provider's nameserver list serving this zone
    /// (empty when the allocation is global-fixed; ignored when the zone
    /// is synced).
    assigned_ns: NsList,
    /// The next zone hosted for the same domain, or this zone's own
    /// handle when it is the last; `by_domain` holds the first. Handles
    /// rise along the chain, so its order is the creation order, and the
    /// oldest zone wins answer selection ties.
    next: ZoneId,
    /// False once disabled by domain retrieval.
    active: bool,
    /// Whether ownership verification has passed (only relevant when the
    /// policy demands verification).
    verified: bool,
    /// Paid sync-to-every-nameserver flag.
    synced_all: bool,
}

/// A zone's assigned nameservers as fleet indices: up to seven in place,
/// read from the zone's serving entry itself, more behind a thin box.
#[derive(Debug, Clone)]
enum NsList {
    Short(u8, [u16; 7]),
    #[allow(clippy::box_collection)]
    Long(Box<Vec<u16>>),
}

impl NsList {
    fn new(ids: &[u16]) -> Self {
        let mut short = [0; 7];
        match short.get_mut(..ids.len()) {
            Some(slots) => {
                slots.copy_from_slice(ids);
                NsList::Short(ids.len() as u8, short)
            }
            None => NsList::Long(Box::new(ids.to_vec())),
        }
    }

    fn as_slice(&self) -> &[u16] {
        match self {
            NsList::Short(len, ids) => &ids[..*len as usize],
            NsList::Long(ids) => ids,
        }
    }
}

/// An account: the nameservers an account-fixed policy assigns it, in
/// place (empty under any other policy).
#[derive(Debug, Clone)]
struct Account {
    fixed_ns: NsList,
}

// A serving entry stays 24 bytes: the table is read for every zone of a
// queried domain.
const _: () = assert!(std::mem::size_of::<Serving>() == 24);

/// The key of the nameserver draw of the zone hosted as the `index`th.
pub fn zone_draw(index: usize) -> u64 {
    1 << 32 | index as u64
}

/// `count` indices of a fleet of `len` nameservers (fewer when fewer are
/// left), none of them in `exclude`, sorted. A pure function: a provider
/// seeded `seed` draws by `key` (an account's index for its fixed set,
/// [`zone_draw`] for a zone's own), so what a zone is served by is known
/// without building the provider.
pub fn draw_nameservers(
    seed: u64,
    key: u64,
    len: usize,
    count: usize,
    exclude: &[u16],
) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // The candidates, on the stack for any fleet the worlds build.
    let (mut stack, mut heap) = ([0u16; 64], Vec::new());
    let pool: &mut [u16] = match stack.get_mut(..len) {
        Some(pool) => pool,
        None => {
            heap.resize(len, 0);
            &mut heap
        }
    };
    let mut n = 0;
    for i in (0..len as u16).filter(|i| !exclude.contains(i)) {
        pool[n] = i;
        n += 1;
    }
    // A partial Fisher-Yates shuffle picks the first `count`.
    let count = count.min(n);
    for i in 0..count {
        pool.swap(i, rng.random_range(i..n));
    }
    let mut picked = pool[..count].to_vec();
    picked.sort_unstable();
    picked
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
/// `Clone` is a copy-on-write snapshot of the control plane: the tables
/// that grow with the customers (accounts, hosted zones, their serving
/// facts, the by-domain index) sit behind [`Arc`]s the clone shares, so it
/// costs a few
/// reference counts plus the nameserver fleet, policy and RNG state. A
/// write to either side copies the one table it touches, once, so the
/// clone keeps answering exactly as the original did when it was taken.
/// Sharded scans use such snapshots as immutable read-only replicas.
#[derive(Clone)]
pub struct HostingProvider {
    name: String,
    policy: HostingPolicy,
    nameservers: Vec<(Name, Ipv4Addr)>,
    ns_by_ip: FxHashMap<Ipv4Addr, usize>,
    accounts: Arc<Vec<Account>>,
    zones: Arc<Vec<HostedZone>>,
    /// What serves each zone, indexed as `zones`.
    serving: Arc<Vec<Serving>>,
    /// The first zone ever hosted for each domain; the rest follow it in
    /// `serving`'s chain.
    by_domain: Arc<FxHashMap<FoldedName, ZoneId>>,
    /// Fewest and most labels of any apex ever hosted (`u8::MAX` and 0
    /// while none is): the only suffix depths an answer probes.
    apex_labels: (u8, u8),
    /// What an unhosted name's A and TXT queries are answered with.
    protective_a: RData,
    protective_txt: RData,
    /// What every nameserver draw is keyed from (see [`draw_nameservers`]).
    seed: u64,
}

impl HostingProvider {
    /// Create a provider with its nameserver fleet.
    ///
    /// `protective_ip` is where protective records point (the provider's
    /// warning page), used only when the policy enables them.
    ///
    /// # Panics
    /// Panics if `nameservers` is empty, longer than 65,536 or contains
    /// duplicate addresses.
    pub fn new(
        name: &str,
        policy: HostingPolicy,
        nameservers: Vec<(Name, Ipv4Addr)>,
        protective_ip: Ipv4Addr,
        seed: u64,
    ) -> Self {
        assert!(!nameservers.is_empty(), "provider {name} needs nameservers");
        assert!(
            nameservers.len() <= 1 << 16,
            "provider {name}: fleet past u16"
        );
        let mut ns_by_ip = FxHashMap::default();
        for (i, (_, ip)) in nameservers.iter().enumerate() {
            let prev = ns_by_ip.insert(*ip, i);
            assert!(prev.is_none(), "duplicate nameserver ip {ip}");
        }
        HostingProvider {
            name: name.to_string(),
            policy,
            nameservers,
            ns_by_ip,
            accounts: Arc::default(),
            zones: Arc::default(),
            serving: Arc::default(),
            by_domain: Arc::default(),
            apex_labels: (u8::MAX, 0),
            protective_a: RData::A(protective_ip),
            protective_txt: RData::txt_from_str(&format!(
                "v=warning; domain not hosted on {name}; see status page"
            )),
            seed,
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

    /// Whether a zone is still hosted (retrieval and deletion disable it).
    ///
    /// # Panics
    /// Panics on a dangling handle.
    pub fn is_active(&self, id: ZoneId) -> bool {
        self.facts(id).active
    }

    /// Indices into [`HostingProvider::nameservers`] assigned to a zone:
    /// empty when the allocation is global-fixed.
    ///
    /// # Panics
    /// Panics on a dangling handle.
    pub fn assigned_ns(&self, id: ZoneId) -> &[u16] {
        self.facts(id).assigned_ns.as_slice()
    }

    /// The fleet index of the nameserver at `ip`, if it is one of this
    /// provider's.
    pub(crate) fn ns_index(&self, ip: Ipv4Addr) -> Option<usize> {
        self.ns_by_ip.get(&ip).copied()
    }

    /// Open a new customer account, assigning fixed nameservers when the
    /// allocation policy is account-fixed.
    pub fn create_account(&mut self) -> AccountId {
        let id = self.accounts.len() as u64;
        let fixed_ns = match self.policy.allocation {
            NsAllocation::AccountFixed { per_account } => {
                NsList::new(&self.draw(id, per_account, &[]))
            }
            _ => NsList::new(&[]),
        };
        Arc::make_mut(&mut self.accounts).push(Account { fixed_ns });
        AccountId(id as u32)
    }

    fn draw(&self, key: u64, count: usize, exclude: &[u16]) -> Vec<u16> {
        draw_nameservers(self.seed, key, self.nameservers.len(), count, exclude)
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
        // What the active zones already hosting `domain` decide: whether
        // the same or another account holds one, the nameservers they
        // take (empty, and so never allocated, unless the domain is hosted
        // here), and whether one has the account's fixed set.
        let (same_user, cross_user, taken, account_set_taken) = {
            let existing = self.ids_for(domain).filter(|&id| self.facts(id).active);
            let account_set = self.accounts[account.0 as usize].fixed_ns.as_slice();
            (
                existing
                    .clone()
                    .any(|id| self.zones[id.0 as usize].owner == account),
                existing
                    .clone()
                    .any(|id| self.zones[id.0 as usize].owner != account),
                existing
                    .clone()
                    .flat_map(|id| self.assigned_ns(id).iter().copied())
                    .collect::<Vec<u16>>(),
                existing
                    .clone()
                    .any(|id| self.assigned_ns(id) == account_set),
            )
        };
        if (same_user && !self.policy.duplicates.same_user)
            || (cross_user && !self.policy.duplicates.cross_user)
        {
            return Err(HostError::Duplicate);
        }
        let fresh = |count: usize| {
            let fresh = self.draw(zone_draw(self.zones.len()), count, &taken);
            (fresh.len() == count)
                .then(|| NsList::new(&fresh))
                .ok_or(HostError::NameserversExhausted)
        };
        let assigned_ns = match self.policy.allocation {
            NsAllocation::GlobalFixed => NsList::new(&[]), // all nameservers serve
            // Distinct sets across accounts hosting the same domain
            // (observed Cloudflare behaviour).
            NsAllocation::AccountFixed { per_account } if account_set_taken => fresh(per_account)?,
            NsAllocation::AccountFixed { .. } => self.accounts[account.0 as usize].fixed_ns.clone(),
            // Route 53: each zone for the same domain consumes a disjoint
            // nameserver set; when the pool runs dry, hosting fails.
            NsAllocation::RandomPool { per_zone } => fresh(per_zone)?,
        };
        let id = ZoneId(self.zones.len() as u32);
        Arc::make_mut(&mut self.zones).push(HostedZone {
            id,
            owner: account,
            zone: Zone::new(domain.clone()),
        });
        let serving = Arc::make_mut(&mut self.serving);
        serving.push(Serving {
            assigned_ns,
            next: id,
            active: true,
            verified: false,
            synced_all: false,
        });
        match Arc::make_mut(&mut self.by_domain).entry(FoldedName::new(domain.borrowed())) {
            Entry::Vacant(first) => {
                first.insert(id);
            }
            Entry::Occupied(first) => {
                let mut last = *first.get();
                while serving[last.0 as usize].next != last {
                    last = serving[last.0 as usize].next;
                }
                serving[last.0 as usize].next = id;
            }
        }
        let labels = domain.label_count() as u8;
        self.apex_labels = (
            self.apex_labels.0.min(labels),
            self.apex_labels.1.max(labels),
        );
        Ok(id)
    }

    /// Add a record to a hosted zone (the customer portal's "add record").
    ///
    /// # Panics
    /// Panics on a dangling handle — that is a caller bug.
    pub fn add_record(&mut self, id: ZoneId, record: Record) {
        Arc::make_mut(&mut self.zones)[id.0 as usize]
            .zone
            .add(record);
    }

    /// Add records to a hosted zone at once (see [`Zone::add_all`]).
    ///
    /// # Panics
    /// Panics on a dangling handle.
    pub fn add_records(&mut self, id: ZoneId, records: Vec<Record>) {
        Arc::make_mut(&mut self.zones)[id.0 as usize]
            .zone
            .add_all(records);
    }

    /// Enable paid sync-to-all-nameservers for a zone (Cloudflare paid).
    /// Returns false when the policy does not offer it.
    pub fn sync_all(&mut self, id: ZoneId) -> bool {
        if !self.policy.sync_to_all_ns {
            return false;
        }
        self.facts_mut(id).synced_all = true;
        true
    }

    /// Mark a zone's ownership verification as passed.
    pub fn set_verified(&mut self, id: ZoneId) {
        self.facts_mut(id).verified = true;
    }

    /// Deactivate a zone (customer deletes it — e.g. an audit probe
    /// removing its test records after the experiment, per the paper's
    /// ethics appendix).
    pub fn deactivate_zone(&mut self, id: ZoneId) {
        self.facts_mut(id).active = false;
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
        let ids: Vec<ZoneId> = self.ids_for(domain).collect();
        for id in ids {
            self.deactivate_zone(id);
        }
        self.host_domain(new_owner, domain, class)
    }

    /// What serves a zone.
    fn facts(&self, id: ZoneId) -> &Serving {
        &self.serving[id.0 as usize]
    }

    /// What serves a zone, to write, copying the serving table first if a
    /// snapshot still shares it.
    fn facts_mut(&mut self, id: ZoneId) -> &mut Serving {
        &mut Arc::make_mut(&mut self.serving)[id.0 as usize]
    }

    /// The zones hosted for one domain from `first` on, oldest first.
    fn chain(&self, first: Option<ZoneId>) -> impl Iterator<Item = ZoneId> + Clone + '_ {
        std::iter::successors(first, |&id| {
            let next = self.facts(id).next;
            (next != id).then_some(next)
        })
    }

    /// Every zone ever hosted for exactly `domain`, active or not, oldest
    /// first.
    fn ids_for(&self, domain: &Name) -> impl Iterator<Item = ZoneId> + Clone + '_ {
        let mut scratch = Vec::new();
        let first = self
            .by_domain
            .get(domain.borrowed().fold(&mut scratch).key())
            .copied();
        self.chain(first)
    }

    /// Whether nameserver index `ns` serves the zone `z` describes.
    fn serves(&self, z: &Serving, ns: usize) -> bool {
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
            _ => z.synced_all || z.assigned_ns.as_slice().contains(&(ns as u16)),
        }
    }

    /// The nameservers currently serving a zone, as `(name, ip)` pairs —
    /// what the customer portal displays after hosting.
    pub fn serving_nameservers(&self, id: ZoneId) -> Vec<(Name, Ipv4Addr)> {
        let z = self.facts(id);
        (0..self.nameservers.len())
            .filter(|&i| self.serves(z, i))
            .map(|i| self.nameservers[i].clone())
            .collect()
    }

    /// Answer a question as the nameserver at `ns_ip` would.
    pub fn answer(
        &self,
        ns_ip: Ipv4Addr,
        qname: Folded<'_>,
        qtype: RecordType,
    ) -> ProviderAnswer<'_> {
        match self.ns_index(ns_ip) {
            Some(ns) => self.answer_at(ns, qname, qtype),
            None => ProviderAnswer::Refused,
        }
    }

    /// Answer a question as the nameserver at fleet index `ns` would.
    pub(crate) fn answer_at(
        &self,
        ns: usize,
        qname: Folded<'_>,
        qtype: RecordType,
    ) -> ProviderAnswer<'_> {
        // Candidate zones: served by this NS, apex encloses qname. Walk the
        // qname's suffixes from most specific to least so the most specific
        // apex wins — only at depths some apex has; among duplicates the
        // oldest zone answers.
        let (fewest, most) = self.apex_labels;
        let deepest = qname.label_count().min(most as usize);
        for take in (fewest.max(1) as usize..=deepest).rev() {
            let suffix = qname.suffix(take).expect("take within the label count");
            let Some(&first) = self.by_domain.get(suffix.key()) else {
                continue;
            };
            let best = self
                .chain(Some(first))
                .find(|&id| self.serves(self.facts(id), ns));
            if let Some(id) = best {
                // The walk matched the apex: the zone need not check it.
                let zone = &self.zones[id.0 as usize].zone;
                return ProviderAnswer::FromZone(id, zone.answer_within(qname, qtype));
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
        self.ids_for(domain)
            .filter(|&id| self.facts(id).active)
            .map(|id| &self.zones[id.0 as usize])
            .collect()
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
            match p.answer(
                ip,
                n("trusted.com").borrowed().fold(&mut Vec::new()),
                RecordType::A,
            ) {
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
        let s1 = p.assigned_ns(z1).to_vec();
        let s2 = p.assigned_ns(z2).to_vec();
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
            match p.answer(ip, q.borrowed().fold(&mut Vec::new()), RecordType::A) {
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
        match p.answer(
            ip,
            n("unhosted.net").borrowed().fold(&mut Vec::new()),
            RecordType::A,
        ) {
            ProviderAnswer::Protective(Some(rdata)) => {
                assert_eq!(rdata.as_a().unwrap(), Ipv4Addr::new(198, 18, 200, 200));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match p.answer(
            ip,
            n("unhosted.net").borrowed().fold(&mut Vec::new()),
            RecordType::Txt,
        ) {
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
            p.answer(
                ip,
                n("nobody.com").borrowed().fold(&mut Vec::new()),
                RecordType::A
            ),
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
        assert!(!p.is_active(squat));
        assert!(p.is_active(reclaimed));
        // squatter's NS no longer serve the UR
        let q = n("brand.com");
        for (_, ip) in p.nameservers().to_vec() {
            if let ProviderAnswer::FromZone(id, ZoneAnswer::Records(_)) =
                p.answer(ip, q.borrowed().fold(&mut Vec::new()), RecordType::A)
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
            if let ProviderAnswer::FromZone(id, _) =
                p.answer(ip, q.borrowed().fold(&mut Vec::new()), RecordType::A)
            {
                let idx = p
                    .nameservers()
                    .iter()
                    .position(|(_, nip)| *nip == ip)
                    .unwrap();
                assert!(p.assigned_ns(id).contains(&(idx as u16)));
            }
        }
    }

    #[test]
    fn answers_walk_only_the_depths_an_apex_has() {
        let mut p = provider(HostingPolicy::alibaba(), 2);
        let ip = p.nameservers()[0].1;
        let (squatter, owner) = (p.create_account(), p.create_account());
        let ask = |p: &HostingProvider, q: &str| match p.answer(
            ip,
            n(q).borrowed().fold(&mut Vec::new()),
            RecordType::A,
        ) {
            ProviderAnswer::FromZone(id, _) => Some(id),
            ProviderAnswer::Refused => None,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(ask(&p, "www.example.com"), None, "nothing hosted yet");
        let shallow = p
            .host_domain(squatter, &n("Example.COM"), DomainClass::RegisteredSld)
            .unwrap();
        let deep = p
            .host_domain(squatter, &n("shop.example.co.uk"), DomainClass::Subdomain)
            .unwrap();
        assert_eq!(p.apex_labels, (2, 4));
        assert_eq!(ask(&p, "example.com"), Some(shallow));
        assert_eq!(ask(&p, "a.b.WWW.example.com"), Some(shallow));
        assert_eq!(ask(&p, "shop.Example.co.uk"), Some(deep));
        assert_eq!(ask(&p, "x.y.z.shop.example.co.uk"), Some(deep));
        // Between, above and beside the two depths: nothing encloses.
        for q in ["example.co.uk", "co.uk", "com", "other.shop.co.uk"] {
            assert_eq!(ask(&p, q), None, "{q}");
        }
        // Retrieval hosts the domain again: the bound still covers it.
        let reclaimed = p
            .retrieve_domain(owner, &n("SHOP.example.co.uk"), DomainClass::Subdomain)
            .unwrap();
        assert_eq!(p.apex_labels, (2, 4));
        assert_eq!(ask(&p, "www.shop.example.co.uk"), Some(reclaimed));
        assert_eq!(ask(&p, "www.example.com"), Some(shallow));
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

    /// Everything a provider shows: its summary and policy, every zone as
    /// hosted and the nameservers serving it, and how each nameserver
    /// answers the A and TXT questions for `probes`.
    fn observe(p: &HostingProvider, probes: &[Name]) -> String {
        let mut out = format!("{p:?}\n{:?}\n{:?}\n", p.policy(), p.zones());
        for z in p.zones() {
            out += &format!(
                "{} {:?} {:?}\n",
                p.is_active(z.id),
                p.assigned_ns(z.id),
                p.serving_nameservers(z.id)
            );
        }
        for (_, ip) in p.nameservers() {
            for name in probes {
                let mut scratch = Vec::new();
                let qname = name.borrowed().fold(&mut scratch);
                for qtype in [RecordType::A, RecordType::Txt] {
                    out += &format!("{:?}\n", p.answer(*ip, qname, qtype));
                }
            }
        }
        out
    }

    #[test]
    fn a_snapshot_keeps_answering_as_the_provider_did_when_taken() {
        type Step = Box<dyn Fn(&mut HostingProvider)>;
        let probes = [n("victim.com"), n("www.victim.com"), n("other.org")];
        let mut p = provider(HostingPolicy::cloudflare(), 8);
        let first = p.create_account();
        p.host_domain(first, &n("other.org"), DomainClass::RegisteredSld)
            .unwrap();
        // The handle `host_domain` will give victim.com.
        let victim = ZoneId(p.zones().len() as u32);
        let a = |ip| Record::new(n("victim.com"), 60, RData::A(ip));
        // Each step writes one table or the policy, and changes what the
        // provider shows; a snapshot taken before it must not see it.
        let steps: Vec<(&str, Step)> = vec![
            (
                "create_account",
                Box::new(|p| {
                    p.create_account();
                }),
            ),
            (
                "host_domain",
                Box::new(move |p| {
                    let id = p.host_domain(first, &n("victim.com"), DomainClass::RegisteredSld);
                    assert_eq!(id, Ok(victim));
                }),
            ),
            (
                "add_record",
                Box::new(move |p| p.add_record(victim, a(Ipv4Addr::new(6, 6, 6, 6)))),
            ),
            ("sync_all", Box::new(move |p| assert!(p.sync_all(victim)))),
            (
                "policy_mut",
                Box::new(|p| p.policy_mut().verification = VerificationPolicy::NsDelegation),
            ),
            ("set_verified", Box::new(move |p| p.set_verified(victim))),
            (
                "deactivate_zone",
                Box::new(move |p| p.deactivate_zone(victim)),
            ),
            (
                "retrieve_domain",
                Box::new(|p| {
                    let owner = p.create_account();
                    p.retrieve_domain(owner, &n("victim.com"), DomainClass::RegisteredSld)
                        .unwrap();
                    p.set_verified(ZoneId(p.zones().len() as u32 - 1));
                }),
            ),
        ];
        for (name, step) in &steps {
            let mut snapshot = p.clone();
            let before = observe(&snapshot, &probes);
            assert_eq!(observe(&p, &probes), before, "{name}: the clone is a copy");
            step(&mut p);
            assert_eq!(
                observe(&snapshot, &probes),
                before,
                "{name} reached the snapshot"
            );
            assert_ne!(observe(&p, &probes), before, "{name} changed nothing");
            // Writing the snapshot in turn leaves the provider alone.
            let after = observe(&p, &probes);
            step(&mut snapshot);
            assert_eq!(observe(&p, &probes), after, "{name} on the snapshot leaked");
        }
    }
}
