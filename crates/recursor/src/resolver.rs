//! The iterative resolver node: walks root → TLD → authoritative over the
//! simulated fabric, with caching, retry, CNAME chasing and out-of-bailiwick
//! nameserver resolution.
//!
//! The node caches zone cuts as well as answers: a job starts at the
//! closest fresh cut that encloses its question (a CNAME restart too), not
//! at the root. A referral becomes a cut only in bailiwick — its zone
//! strictly below the zone of the server that sent it and enclosing the
//! name being chased, on a chain of referrals that never left bailiwick —
//! and it lasts its NS TTL, clamped like an answer's. Any other referral is
//! followed but not kept.
//!
//! Every datagram is read in place ([`MessageView`]); upstream queries are
//! written by [`dnswire::encode_query`] and client responses by a
//! [`MessageWriter`], so the node builds no owned message. What it keeps —
//! cached answers, a CNAME chain, referral targets — it copies out of the
//! view as records.

use crate::cache::{expiry, Cache};
use dnswire::{
    FoldedName, MessageView, MessageWriter, Name, Question, RData, Rcode, Record, RecordType,
    RecordView, Section,
};
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simnet::{Actions, Datagram, Endpoint, Node, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Upstream query timeout before retry.
const UPSTREAM_TIMEOUT: SimDuration = SimDuration(1_500_000);
/// Retries per job before giving up.
const MAX_ATTEMPTS: u8 = 3;
/// Maximum iteration steps (referrals + CNAME hops) per job.
const MAX_STEPS: u8 = 16;

/// Answer manipulation, modeling the small fraction of open resolvers that
/// tamper with results (cf. the paper's §4.1 note that most vantage points
/// do not manipulate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Manipulation {
    /// Honest resolver.
    None,
    /// Replace every A answer with this address (censorship/ad injection).
    InjectA(Ipv4Addr),
}

#[derive(Debug)]
struct Job {
    /// External client (endpoint, message id, transport), or `None` for
    /// internal NS-address lookups.
    client: Option<(Endpoint, u16, simnet::Proto)>,
    /// Parent job waiting on this internal lookup.
    parent: Option<u64>,
    /// The question currently being chased (CNAME may rewrite the name).
    question: Question,
    /// The question as originally asked.
    original: Question,
    /// Accumulated CNAME chain.
    chain: Vec<Record>,
    /// Server the in-flight query went to.
    server: Ipv4Addr,
    /// In-flight upstream message id.
    awaiting: Option<u16>,
    /// Send generation, to invalidate stale retry timers.
    generation: u16,
    /// Attempts used.
    attempts: u8,
    /// Steps used.
    steps: u8,
    /// Retry the current server over TCP (set when a UDP answer came back
    /// truncated).
    use_tcp: bool,
    /// Label count of the zone the current server was reached as the
    /// delegate of (0: the root), or `None` once the job followed a
    /// referral out of bailiwick: nothing it learns then is cached as a cut.
    zone: Option<u8>,
    /// An in-bailiwick cut (zone, NS TTL) whose server address an internal
    /// lookup is still resolving: cached when this job resumes.
    pending_cut: Option<(Name, u32)>,
}

/// A cached zone cut: the server a job for a name in the zone starts at.
#[derive(Debug, Clone, Copy)]
struct Cut {
    server: Ipv4Addr,
    expires: SimTime,
}

/// The size a client response is cut to on `proto`.
fn client_limit(proto: simnet::Proto) -> usize {
    match proto {
        simnet::Proto::Udp => dnswire::MAX_UDP_PAYLOAD,
        simnet::Proto::Tcp => dnswire::MAX_MESSAGE_LEN,
    }
}

/// A caching iterative resolver attached to the fabric.
///
/// One node serves both roles in the paper's methodology: the *open
/// resolvers* URHunter queries for correct records, and the default
/// resolution path victims' networks normally use.
pub struct RecursorNode {
    ip: Ipv4Addr,
    root_ip: Ipv4Addr,
    cache: Cache,
    ns_hints: FxHashMap<FoldedName, Ipv4Addr>,
    /// Zone cuts by folded zone name.
    cuts: FxHashMap<FoldedName, Cut>,
    jobs: FxHashMap<u64, Job>,
    pending: FxHashMap<u16, u64>,
    next_job: u64,
    next_id: u16,
    manipulation: Manipulation,
    /// Probability of ignoring a client query (unstable resolvers < 1.0).
    response_rate: f64,
    rng: StdRng,
    /// Count of answered client queries (stats for tests/reports).
    pub(crate) answered: u64,
    /// Where a name with an upper-case letter is folded for a lookup.
    scratch: Vec<u8>,
}

impl RecursorNode {
    /// Create a resolver that iterates from `root_ip`.
    pub fn new(ip: Ipv4Addr, root_ip: Ipv4Addr, seed: u64) -> Self {
        RecursorNode {
            ip,
            root_ip,
            cache: Cache::new(),
            ns_hints: FxHashMap::default(),
            cuts: FxHashMap::default(),
            jobs: FxHashMap::default(),
            pending: FxHashMap::default(),
            next_job: 1,
            next_id: 1,
            manipulation: Manipulation::None,
            response_rate: 1.0,
            rng: StdRng::seed_from_u64(seed),
            answered: 0,
            scratch: Vec::new(),
        }
    }

    /// Configure answer manipulation.
    pub fn with_manipulation(mut self, m: Manipulation) -> Self {
        self.manipulation = m;
        self
    }

    /// Configure stability (probability of answering at all).
    pub fn with_response_rate(mut self, rate: f64) -> Self {
        self.response_rate = rate.clamp(0.0, 1.0);
        self
    }

    fn alloc_id(&mut self) -> u16 {
        loop {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            if !self.pending.contains_key(&id) {
                return id;
            }
        }
    }

    fn send_upstream(&mut self, job_id: u64, out: &mut Actions) {
        let id = self.alloc_id();
        let job = self.jobs.get_mut(&job_id).expect("job exists");
        job.awaiting = Some(id);
        job.generation = job.generation.wrapping_add(1);
        job.attempts += 1;
        let generation = job.generation;
        let bytes = dnswire::encode_query(id, job.question.qname.borrowed(), job.question.qtype);
        let src = Endpoint::new(self.ip, 5353);
        let dst = Endpoint::new(job.server, 53);
        out.send(if job.use_tcp {
            Datagram::tcp(src, dst, bytes)
        } else {
            Datagram::udp(src, dst, bytes)
        });
        self.pending.insert(id, job_id);
        out.set_timer(UPSTREAM_TIMEOUT, (job_id << 16) | generation as u64);
    }

    /// The server and zone label count a job for `qname` starts at: the
    /// closest fresh cut that encloses it, else the root.
    fn closest_cut(&mut self, now: SimTime, qname: &Name) -> (Ipv4Addr, u8) {
        let folded = qname.borrowed().fold(&mut self.scratch);
        for labels in (1..=folded.label_count()).rev() {
            let zone = folded.suffix(labels).expect("a suffix of the name");
            if let Some(cut) = self.cuts.get(zone.key()).filter(|c| c.expires > now) {
                return (cut.server, labels as u8);
            }
        }
        (self.root_ip, 0)
    }

    /// Cache `zone`'s cut at `server` for its NS `ttl`, clamped.
    fn learn_cut(&mut self, now: SimTime, (zone, ttl): &(Name, u32), server: Ipv4Addr) {
        let cut = Cut {
            server,
            expires: expiry(now, u64::from(*ttl)),
        };
        self.cuts.insert(FoldedName::new(zone.borrowed()), cut);
    }

    fn start_job(
        &mut self,
        now: SimTime,
        client: Option<(Endpoint, u16, simnet::Proto)>,
        parent: Option<u64>,
        question: Question,
        out: &mut Actions,
    ) -> u64 {
        let job_id = self.next_job;
        self.next_job += 1;
        let (server, zone) = self.closest_cut(now, &question.qname);
        self.jobs.insert(
            job_id,
            Job {
                client,
                parent,
                question: question.clone(),
                original: question,
                chain: Vec::new(),
                server,
                awaiting: None,
                generation: 0,
                attempts: 0,
                steps: 0,
                use_tcp: false,
                zone: Some(zone),
                pending_cut: None,
            },
        );
        self.send_upstream(job_id, out);
        job_id
    }

    /// Move a job's CNAME chain out, for the [`RecursorNode::finish`] that
    /// removes the job next.
    fn take_chain(&mut self, job_id: u64) -> Vec<Record> {
        self.jobs
            .get_mut(&job_id)
            .map(|j| std::mem::take(&mut j.chain))
            .unwrap_or_default()
    }

    /// Set RA and write `records` as the answer section of a client
    /// response to a `qtype` question, each A record's address replaced
    /// when this resolver injects one.
    fn write_answers(&self, w: &mut MessageWriter, qtype: RecordType, records: &[Record]) {
        w.flags_mut().recursion_available = true;
        let injected = match self.manipulation {
            Manipulation::InjectA(ip) if qtype == RecordType::A => Some(RData::A(ip)),
            _ => None,
        };
        for r in records {
            let rdata = match &injected {
                Some(a) if matches!(r.rdata, RData::A(_)) => a,
                _ => &r.rdata,
            };
            if !w.record(Section::Answer, r.name.borrowed(), r.class, r.ttl, rdata) {
                return;
            }
        }
    }

    fn finish(
        &mut self,
        job_id: u64,
        now: SimTime,
        rcode: Rcode,
        records: Vec<Record>,
        out: &mut Actions,
    ) {
        let Some(job) = self.jobs.remove(&job_id) else {
            return;
        };
        if let Some(id) = job.awaiting {
            self.pending.remove(&id);
        }
        let original = &job.original;
        if let Some((client, client_id, client_proto)) = job.client {
            self.answered += 1;
            let mut w =
                MessageWriter::response(client_id, original, rcode, client_limit(client_proto));
            self.write_answers(&mut w, original.qtype, &records);
            if let Ok(bytes) = w.finish() {
                let src = Endpoint::new(self.ip, 53);
                out.send(match client_proto {
                    simnet::Proto::Udp => Datagram::udp(src, client, bytes),
                    simnet::Proto::Tcp => Datagram::tcp(src, client, bytes),
                });
            }
        }
        let addr = records.iter().find_map(|r| r.rdata.as_a());
        // Cache under the original question: the records move in.
        let qname = original.qname.borrowed();
        if rcode == Rcode::NoError && !records.is_empty() {
            self.cache.put_positive(now, qname, original.qtype, records);
        } else if rcode == Rcode::NxDomain || (rcode == Rcode::NoError && records.is_empty()) {
            self.cache
                .put_negative(now, qname, original.qtype, rcode, None);
        }
        if let Some(parent_id) = job.parent {
            // Internal NS lookup complete: resume or fail the parent.
            match addr {
                Some(ip) if rcode == Rcode::NoError => {
                    self.ns_hints.insert(FoldedName::new(qname), ip);
                    if let Some(parent) = self.jobs.get_mut(&parent_id) {
                        parent.server = ip;
                        if let Some(cut) = parent.pending_cut.take() {
                            self.learn_cut(now, &cut, ip);
                        }
                        self.send_upstream(parent_id, out);
                    }
                }
                _ => {
                    self.finish(parent_id, now, Rcode::ServFail, Vec::new(), out);
                }
            }
        }
    }

    fn handle_client_query(
        &mut self,
        now: SimTime,
        dgram: &Datagram,
        query: &MessageView<'_>,
        out: &mut Actions,
    ) {
        if self.response_rate < 1.0 && !self.rng.random_bool(self.response_rate) {
            return; // unstable resolver: silence
        }
        let Some(q) = query.question() else {
            return;
        };
        if !query.flags.recursion_desired {
            let resp = MessageWriter::response_to(query, Rcode::Refused, usize::MAX);
            if let Ok(bytes) = resp.finish() {
                out.send(dgram.reply(bytes));
            }
            return;
        }
        let folded = q.qname.fold(&mut self.scratch);
        if let Some(hit) = self.cache.get(now, folded, q.qtype) {
            self.answered += 1;
            let mut w = MessageWriter::response_to(query, hit.rcode, client_limit(dgram.proto));
            self.write_answers(&mut w, q.qtype, &hit.records);
            if let Ok(bytes) = w.finish() {
                out.send(dgram.reply(bytes));
            }
            return;
        }
        let client = (dgram.src, query.id, dgram.proto);
        self.start_job(now, Some(client), None, q.to_question(), out);
    }

    fn handle_upstream_response(
        &mut self,
        now: SimTime,
        resp: &MessageView<'_>,
        out: &mut Actions,
    ) {
        let Some(&job_id) = self.pending.get(&resp.id) else {
            return;
        };
        // Validate the response matches the in-flight question.
        let matches = self
            .jobs
            .get(&job_id)
            .zip(resp.question())
            .is_some_and(|(j, q)| {
                j.awaiting == Some(resp.id)
                    && q.qname.matches(j.question.qname.borrowed())
                    && q.qtype == j.question.qtype
            });
        if !matches {
            return;
        }
        self.pending.remove(&resp.id);
        if let Some(j) = self.jobs.get_mut(&job_id) {
            j.awaiting = None;
            j.steps += 1;
            if j.steps > MAX_STEPS {
                self.finish(job_id, now, Rcode::ServFail, Vec::new(), out);
                return;
            }
            // Truncated UDP answer: ask again over TCP (once).
            if resp.flags.truncated && !j.use_tcp {
                j.use_tcp = true;
                self.send_upstream(job_id, out);
                return;
            }
            j.use_tcp = false;
        }
        match resp.flags.rcode {
            Rcode::NoError => {}
            Rcode::NxDomain => {
                let chain = self.take_chain(job_id);
                let rcode = if chain.is_empty() {
                    Rcode::NxDomain
                } else {
                    Rcode::NoError
                };
                // A broken CNAME target still returns the chain gathered.
                self.finish(job_id, now, rcode, chain, out);
                return;
            }
            _ => {
                self.finish(job_id, now, Rcode::ServFail, Vec::new(), out);
                return;
            }
        }
        let asked = &self.jobs.get(&job_id).expect("validated above").question;
        let qtype = asked.qtype;
        let at_qname = |r: &RecordView<'_>| r.name.matches(asked.qname.borrowed());
        // 1. Terminal answers at the current name?
        let direct: Vec<Record> = resp
            .answers()
            .filter(|r| at_qname(r) && (r.rtype() == qtype || qtype == RecordType::Any))
            .map(RecordView::to_record)
            .collect();
        if !direct.is_empty() {
            let mut full = self.take_chain(job_id);
            full.extend(direct);
            self.finish(job_id, now, Rcode::NoError, full, out);
            return;
        }
        // 2. CNAME at the current name?
        let cname = resp
            .answers()
            .find(|r| at_qname(r) && r.rtype() == RecordType::Cname)
            .map(RecordView::to_record);
        if let Some(c) = cname {
            if let RData::Cname(target) = &c.rdata {
                // Absorb any in-response records for the target as well.
                let tail: Vec<Record> = resp
                    .answers()
                    .filter(|r| r.name.matches(target.borrowed()) && r.rtype() == qtype)
                    .map(RecordView::to_record)
                    .collect();
                let target = target.clone();
                let job = self.jobs.get_mut(&job_id).expect("job");
                job.chain.push(c);
                if !tail.is_empty() {
                    let mut full = std::mem::take(&mut job.chain);
                    full.extend(tail);
                    self.finish(job_id, now, Rcode::NoError, full, out);
                    return;
                }
                let (server, zone) = self.closest_cut(now, &target);
                let job = self.jobs.get_mut(&job_id).expect("job");
                job.question.qname = target;
                job.attempts = 0;
                job.server = server;
                job.zone = Some(zone);
                self.send_upstream(job_id, out);
                return;
            }
        }
        // 3. Delegation referral?
        let mut referrals: Vec<(Name, Option<Ipv4Addr>)> = Vec::new();
        // The zone the NS records delegate, while they all name one, and
        // their least TTL.
        let mut delegated: Option<(Name, u32)> = None;
        let mut one_zone = true;
        for r in resp.authorities().filter(|r| r.rtype() == RecordType::Ns) {
            let Record {
                name: owner,
                ttl,
                rdata,
                ..
            } = r.to_record();
            if let RData::Ns(ns_name) = rdata {
                match &mut delegated {
                    None => delegated = Some((owner, ttl)),
                    Some((zone, least)) => {
                        one_zone &= *zone == owner;
                        *least = (*least).min(ttl);
                    }
                }
                let glue = resp
                    .additionals()
                    .find(|g| g.name.matches(ns_name.borrowed()))
                    .and_then(|g| g.to_record().rdata.as_a());
                referrals.push((ns_name, glue));
            }
        }
        if !referrals.is_empty() {
            let job = self.jobs.get_mut(&job_id).expect("job");
            let cut = delegated.filter(|(zone, _)| {
                one_zone
                    && job
                        .zone
                        .is_some_and(|labels| zone.label_count() > usize::from(labels))
                    && job.question.qname.is_subdomain_of(zone)
            });
            job.zone = cut.as_ref().map(|(zone, _)| zone.label_count() as u8);
            referrals.sort_by(|a, b| a.0.cmp(&b.0));
            for (ns_name, glue) in &referrals {
                if let Some(ip) = glue {
                    self.ns_hints
                        .insert(FoldedName::new(ns_name.borrowed()), *ip);
                }
            }
            // Prefer a referral with a known address.
            let known = referrals.iter().find_map(|(_, g)| *g).or_else(|| {
                referrals.iter().find_map(|(n, _)| {
                    let key = n.borrowed().fold(&mut self.scratch);
                    self.ns_hints.get(key.key()).copied()
                })
            });
            if let Some(ip) = known {
                if let Some(cut) = &cut {
                    self.learn_cut(now, cut, ip);
                }
                let job = self.jobs.get_mut(&job_id).expect("job");
                job.server = ip;
                job.attempts = 0;
                self.send_upstream(job_id, out);
                return;
            }
            // No glue anywhere: resolve the first NS name, unless we are
            // already an internal lookup (avoid unbounded recursion).
            let is_internal = self
                .jobs
                .get(&job_id)
                .map(|j| j.parent.is_some())
                .unwrap_or(true);
            if is_internal {
                self.finish(job_id, now, Rcode::ServFail, Vec::new(), out);
                return;
            }
            if let Some(job) = self.jobs.get_mut(&job_id) {
                job.pending_cut = cut;
            }
            let ns_name = referrals.swap_remove(0).0;
            self.start_job(
                now,
                None,
                Some(job_id),
                Question::new(ns_name, RecordType::A),
                out,
            );
            return;
        }
        // 4. NODATA.
        let chain = self.take_chain(job_id);
        self.finish(job_id, now, Rcode::NoError, chain, out);
    }
}

impl Node for RecursorNode {
    fn handle(&mut self, now: SimTime, dgram: &Datagram, out: &mut Actions) {
        let Ok(msg) = MessageView::parse(&dgram.payload) else {
            return;
        };
        if msg.flags.response {
            self.handle_upstream_response(now, &msg, out);
        } else {
            self.handle_client_query(now, dgram, &msg, out);
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, out: &mut Actions) {
        let job_id = token >> 16;
        let generation = (token & 0xFFFF) as u16;
        let Some(job) = self.jobs.get(&job_id) else {
            return;
        };
        if job.generation != generation || job.awaiting.is_none() {
            return; // stale timer
        }
        if job.attempts >= MAX_ATTEMPTS {
            self.finish(job_id, now, Rcode::ServFail, Vec::new(), out);
            return;
        }
        // Retry the same server (the fabric may have dropped the packet).
        if let Some(id) = job.awaiting {
            self.pending.remove(&id);
        }
        self.send_upstream(job_id, out);
    }

    fn role(&self) -> &'static str {
        "recursor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use authdns::{DelegationRegistry, StaticZoneNode, Zone, DNS_PORT};
    use dnswire::Message;
    use simnet::{FaultPlan, Network};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// Build a tiny delegated world:
    /// root -> com -> example.com @ ns1.example.com (in-bailiwick glue)
    ///      -> org -> hosted.org  @ ns.provider.com (out-of-bailiwick)
    /// provider.com itself delegated with glue.
    fn build_world() -> (Network, Ipv4Addr) {
        let (net, resolver, _) = counted_world();
        (net, resolver)
    }

    /// Queries a wrapped server was sent.
    #[derive(Clone, Default)]
    struct Hits(Rc<Cell<u32>>);

    impl Hits {
        fn get(&self) -> u32 {
            self.0.get()
        }
    }

    /// A server node that counts the datagrams it is sent.
    struct Counted(Box<dyn Node>, Hits);

    impl Node for Counted {
        fn handle(&mut self, now: SimTime, dgram: &Datagram, out: &mut Actions) {
            self.1 .0.set(self.1 .0.get() + 1);
            self.0.handle(now, dgram, out);
        }

        fn role(&self) -> &'static str {
            self.0.role()
        }
    }

    fn counted(node: impl Node + 'static) -> (Box<dyn Node>, Hits) {
        let hits = Hits::default();
        (Box::new(Counted(Box::new(node), hits.clone())), hits)
    }

    /// What the root, the `com` and the `org` servers of
    /// [`counted_world`] were sent.
    struct WorldHits {
        root: Hits,
        com: Hits,
        org: Hits,
    }

    /// [`build_world`], with the root and both TLD servers counted.
    fn counted_world() -> (Network, Ipv4Addr, WorldHits) {
        let root_ip = Ipv4Addr::new(198, 41, 0, 4);
        let com_ip = Ipv4Addr::new(192, 5, 6, 30);
        let org_ip = Ipv4Addr::new(192, 5, 6, 31);
        let example_ns = Ipv4Addr::new(203, 0, 113, 53);
        let provider_ns = Ipv4Addr::new(198, 18, 0, 1);

        let mut reg = DelegationRegistry::new();
        reg.set_root(root_ip);
        reg.add_tld(n("com"), com_ip);
        reg.add_tld(n("org"), org_ip);
        reg.delegate(&n("example.com"), vec![(n("ns1.example.com"), example_ns)]);
        reg.delegate(
            &n("provider.com"),
            vec![(n("ns1.provider.com"), provider_ns)],
        );
        reg.delegate(&n("hosted.org"), vec![(n("ns.provider.com"), provider_ns)]);

        let mut net = Network::new(99);
        let (root, root_hits) = counted(StaticZoneNode::single(reg.build_root_zone()));
        net.add_node(root_ip, root);
        let (com, com_hits) = counted(StaticZoneNode::single(reg.build_tld_zone(&n("com"))));
        net.add_node(com_ip, com);
        let (org, org_hits) = counted(StaticZoneNode::single(reg.build_tld_zone(&n("org"))));
        net.add_node(org_ip, org);

        let mut example_zone = Zone::new(n("example.com"));
        example_zone.add(Record::new(
            n("example.com"),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 80)),
        ));
        example_zone.add(Record::new(
            n("www.example.com"),
            300,
            RData::Cname(n("example.com")),
        ));
        example_zone.add(Record::new(
            n("away.example.com"),
            300,
            RData::Cname(n("hosted.org")),
        ));
        net.add_node(example_ns, Box::new(StaticZoneNode::single(example_zone)));

        // provider NS serves provider.com (incl. its own A) and hosted.org
        let mut provider_zones = Vec::new();
        let mut pz = Zone::new(n("provider.com"));
        pz.add(Record::new(
            n("ns.provider.com"),
            300,
            RData::A(provider_ns),
        ));
        pz.add(Record::new(
            n("ns1.provider.com"),
            300,
            RData::A(provider_ns),
        ));
        provider_zones.push(pz);
        let mut hz = Zone::new(n("hosted.org"));
        hz.add(Record::new(
            n("hosted.org"),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 90)),
        ));
        provider_zones.push(hz);
        net.add_node(
            provider_ns,
            Box::new(StaticZoneNode::new(Rc::new(RefCell::new(provider_zones)))),
        );

        let resolver_ip = Ipv4Addr::new(9, 9, 9, 9);
        net.add_node(
            resolver_ip,
            Box::new(RecursorNode::new(resolver_ip, root_ip, 1)),
        );
        let hits = WorldHits {
            root: root_hits,
            com: com_hits,
            org: org_hits,
        };
        (net, resolver_ip, hits)
    }

    fn resolve(
        net: &mut Network,
        resolver: Ipv4Addr,
        name: &str,
        qtype: RecordType,
        id: u16,
    ) -> Option<Message> {
        authdns::dns_query(
            net,
            Ipv4Addr::new(10, 0, 0, 1),
            resolver,
            &n(name),
            qtype,
            id,
        )
    }

    #[test]
    fn resolves_through_delegation() {
        let (mut net, resolver) = build_world();
        let resp = resolve(&mut net, resolver, "example.com", RecordType::A, 1).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.flags.recursion_available);
        assert_eq!(
            resp.answers[0].rdata.as_a().unwrap(),
            Ipv4Addr::new(203, 0, 113, 80)
        );
    }

    #[test]
    fn chases_cname() {
        let (mut net, resolver) = build_world();
        let resp = resolve(&mut net, resolver, "www.example.com", RecordType::A, 2).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(resp.answers.len(), 2);
        assert!(matches!(resp.answers[0].rdata, RData::Cname(_)));
        assert_eq!(
            resp.answers[1].rdata.as_a().unwrap(),
            Ipv4Addr::new(203, 0, 113, 80)
        );
    }

    #[test]
    fn resolves_out_of_bailiwick_ns() {
        let (mut net, resolver) = build_world();
        // hosted.org's NS has no glue in the org TLD zone; the resolver must
        // first resolve ns.provider.com via com.
        let resp = resolve(&mut net, resolver, "hosted.org", RecordType::A, 3).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(
            resp.answers[0].rdata.as_a().unwrap(),
            Ipv4Addr::new(203, 0, 113, 90)
        );
    }

    #[test]
    fn nxdomain_for_unregistered() {
        let (mut net, resolver) = build_world();
        let resp = resolve(&mut net, resolver, "ghost.com", RecordType::A, 4).unwrap();
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn nodata_for_missing_type() {
        let (mut net, resolver) = build_world();
        let resp = resolve(&mut net, resolver, "example.com", RecordType::Mx, 5).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn cache_answers_second_query_locally() {
        let (mut net, resolver) = build_world();
        let _ = resolve(&mut net, resolver, "example.com", RecordType::A, 6).unwrap();
        let events_before = net.stats().events;
        let resp = resolve(&mut net, resolver, "example.com", RecordType::A, 7).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        let events_used = net.stats().events - events_before;
        // cache hit: only client query + reply cross the fabric
        assert!(
            events_used <= 2,
            "expected cached answer, used {events_used} events"
        );
    }

    #[test]
    fn survives_packet_loss_with_retries() {
        let (mut net, resolver) = {
            let (net, r) = build_world();
            (net.with_faults(FaultPlan::lossy(0.25)), r)
        };
        // The client itself retries (as real stub resolvers do): the
        // recursor's upstream retries handle loss on the iteration path,
        // the client retry handles loss on the stub<->resolver path.
        let mut ok = 0;
        for i in 0..10u16 {
            for attempt in 0..3u16 {
                if let Some(resp) = resolve(
                    &mut net,
                    resolver,
                    "example.com",
                    RecordType::A,
                    100 + i * 4 + attempt,
                ) {
                    if resp.rcode() == Rcode::NoError && !resp.answers.is_empty() {
                        ok += 1;
                        break;
                    }
                }
            }
        }
        assert!(ok >= 8, "only {ok}/10 under 25% loss");
    }

    #[test]
    fn manipulated_resolver_injects() {
        let (mut net, _) = build_world();
        let bad_ip = Ipv4Addr::new(8, 8, 8, 8);
        let inject = Ipv4Addr::new(66, 66, 66, 66);
        let root = Ipv4Addr::new(198, 41, 0, 4);
        net.add_node(
            bad_ip,
            Box::new(
                RecursorNode::new(bad_ip, root, 2).with_manipulation(Manipulation::InjectA(inject)),
            ),
        );
        let resp = resolve(&mut net, bad_ip, "example.com", RecordType::A, 8).unwrap();
        assert_eq!(resp.answers[0].rdata.as_a().unwrap(), inject);
    }

    #[test]
    fn unstable_resolver_sometimes_silent() {
        let (mut net, _) = build_world();
        let flaky = Ipv4Addr::new(8, 8, 4, 4);
        let root = Ipv4Addr::new(198, 41, 0, 4);
        net.add_node(
            flaky,
            Box::new(RecursorNode::new(flaky, root, 3).with_response_rate(0.0)),
        );
        assert!(resolve(&mut net, flaky, "example.com", RecordType::A, 9).is_none());
    }

    #[test]
    fn refuses_iterative_clients() {
        let (mut net, resolver) = build_world();
        let mut q = Message::query(77, Question::new(n("example.com"), RecordType::A));
        q.flags.recursion_desired = false;
        let bytes = q.encode().unwrap();
        let reply = net
            .rpc(
                Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 4444),
                Endpoint::new(resolver, DNS_PORT),
                simnet::Proto::Udp,
                bytes,
                SimDuration::from_secs(5),
            )
            .unwrap();
        let resp = Message::decode(&reply).unwrap();
        assert_eq!(resp.rcode(), Rcode::Refused);
    }

    #[test]
    fn txt_resolution_works() {
        let (mut net, resolver) = build_world();
        // add TXT at example.com's auth server — rebuild is easier: query MX
        // for NODATA already covered; here just confirm TXT NODATA path.
        let resp = resolve(&mut net, resolver, "example.com", RecordType::Txt, 11).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
    }

    #[test]
    fn a_second_name_under_a_cached_tld_sends_nothing_to_the_root() {
        let (mut net, resolver, hits) = counted_world();
        resolve(&mut net, resolver, "example.com", RecordType::A, 1).unwrap();
        assert_eq!((hits.root.get(), hits.com.get()), (1, 1));
        // provider.com is another zone under com: the walk starts at com.
        let resp = resolve(&mut net, resolver, "ns1.provider.com", RecordType::A, 2).unwrap();
        assert_eq!(
            resp.answers[0].rdata.as_a(),
            Some(Ipv4Addr::new(198, 18, 0, 1))
        );
        assert_eq!((hits.root.get(), hits.com.get()), (1, 2));
        // A new name in a cached zone goes straight to the zone's server.
        let resp = resolve(&mut net, resolver, "www.example.com", RecordType::A, 3).unwrap();
        assert_eq!(resp.answers.len(), 2);
        assert_eq!((hits.root.get(), hits.com.get()), (1, 2));
    }

    #[test]
    fn a_cname_into_another_zone_restarts_at_the_closest_cut() {
        let (mut net, resolver, hits) = counted_world();
        // Learn the cuts of com, example.com, org and hosted.org (the last
        // through the internal lookup of its glueless nameserver), and no
        // answer the CNAME's target could be served from.
        resolve(&mut net, resolver, "example.com", RecordType::A, 1).unwrap();
        let resp = resolve(&mut net, resolver, "hosted.org", RecordType::Txt, 2).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        let before = (hits.root.get(), hits.com.get(), hits.org.get());
        let resp = resolve(&mut net, resolver, "away.example.com", RecordType::A, 3).unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(matches!(resp.answers[0].rdata, RData::Cname(_)));
        assert_eq!(
            resp.answers[1].rdata.as_a(),
            Some(Ipv4Addr::new(203, 0, 113, 90))
        );
        let after = (hits.root.get(), hits.com.get(), hits.org.get());
        assert_eq!(after, before, "the restart walked from above hosted.org");
    }

    #[test]
    fn a_cut_expires_at_its_clamped_ttl() {
        let root_ip = Ipv4Addr::new(198, 41, 0, 4);
        let com_ip = Ipv4Addr::new(192, 5, 6, 30);
        // A root that hands com out for far longer than a resolver keeps
        // anything; com itself is empty, so every name under it is
        // NXDOMAIN and no answer is cached twice.
        let mut root = Zone::new(Name::root());
        root.add(Record::new(n("com"), 10_000_000, RData::Ns(n("a-ns.com"))));
        root.add(Record::new(n("a-ns.com"), 10_000_000, RData::A(com_ip)));
        let mut net = Network::new(7);
        let (root, root_hits) = counted(StaticZoneNode::single(root));
        net.add_node(root_ip, root);
        net.add_node(
            com_ip,
            Box::new(StaticZoneNode::single(Zone::new(n("com")))),
        );
        let resolver = Ipv4Addr::new(9, 9, 9, 9);
        net.add_node(resolver, Box::new(RecursorNode::new(resolver, root_ip, 1)));

        let resp = resolve(&mut net, resolver, "a.com", RecordType::A, 1).unwrap();
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        assert_eq!(root_hits.get(), 1);
        // The cut was learned less than a second before this.
        let learned = net.now();
        net.run_until(learned + SimDuration::from_secs(86_399));
        resolve(&mut net, resolver, "b.com", RecordType::A, 2).unwrap();
        assert_eq!(root_hits.get(), 1, "the cut expired early");
        net.run_until(learned + SimDuration::from_secs(86_401));
        resolve(&mut net, resolver, "c.com", RecordType::A, 3).unwrap();
        assert_eq!(root_hits.get(), 2, "the cut outlived the one-day clamp");
    }

    /// A server that answers every query with a referral of `zone` to
    /// `ns.target.org` at `target`, whatever it was asked.
    struct Liar {
        zone: Name,
        target: Ipv4Addr,
    }

    impl Node for Liar {
        fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
            let Ok(query) = Message::decode(&dgram.payload) else {
                return;
            };
            let ns = n("ns.target.org");
            let mut resp = Message::response_to(&query, Rcode::NoError);
            resp.authorities
                .push(Record::new(self.zone.clone(), 3600, RData::Ns(ns.clone())));
            resp.additionals
                .push(Record::new(ns, 3600, RData::A(self.target)));
            out.send(dgram.reply(resp.encode().unwrap()));
        }
    }

    #[test]
    fn an_out_of_bailiwick_referral_is_followed_but_not_cached() {
        // victim.com's server refers its own names to `zone`: org, which
        // does not enclose them, or com, which is not below victim.com.
        for (zone, later) in [("org", "x.org"), ("com", "other.com")] {
            let root_ip = Ipv4Addr::new(198, 41, 0, 4);
            let com_ip = Ipv4Addr::new(192, 5, 6, 30);
            let org_ip = Ipv4Addr::new(192, 5, 6, 31);
            let liar_ip = Ipv4Addr::new(203, 0, 113, 66);
            let target_ip = Ipv4Addr::new(203, 0, 113, 77);
            let mut reg = DelegationRegistry::new();
            reg.set_root(root_ip);
            reg.add_tld(n("com"), com_ip);
            reg.add_tld(n("org"), org_ip);
            reg.delegate(&n("victim.com"), vec![(n("ns.victim.com"), liar_ip)]);
            let mut net = Network::new(3);
            let (root, root_hits) = counted(StaticZoneNode::single(reg.build_root_zone()));
            net.add_node(root_ip, root);
            let (com, com_hits) = counted(StaticZoneNode::single(reg.build_tld_zone(&n("com"))));
            net.add_node(com_ip, com);
            let org = StaticZoneNode::single(reg.build_tld_zone(&n("org")));
            net.add_node(org_ip, Box::new(org));
            let zone_name = n(zone);
            let liar = Liar {
                zone: zone_name,
                target: target_ip,
            };
            net.add_node(liar_ip, Box::new(liar));
            let mut victim = Zone::new(n("victim.com"));
            let www = Ipv4Addr::new(203, 0, 113, 7);
            victim.add(Record::new(n("www.victim.com"), 300, RData::A(www)));
            net.add_node(target_ip, Box::new(StaticZoneNode::single(victim)));
            let resolver = Ipv4Addr::new(9, 9, 9, 9);
            net.add_node(resolver, Box::new(RecursorNode::new(resolver, root_ip, 1)));

            let resp = resolve(&mut net, resolver, "www.victim.com", RecordType::A, 1).unwrap();
            assert_eq!(
                resp.answers[0].rdata.as_a(),
                Some(www),
                "{zone}: not followed"
            );
            let before = (root_hits.get(), com_hits.get());
            // Had the referral been cached, this would go to the target,
            // which refuses it.
            let resp = resolve(&mut net, resolver, later, RecordType::A, 2).unwrap();
            assert_eq!(resp.rcode(), Rcode::NxDomain, "{zone}: the lie was cached");
            let after = (root_hits.get(), com_hits.get());
            let want = match zone {
                "org" => (before.0 + 1, before.1),
                _ => (before.0, before.1 + 1),
            };
            assert_eq!(after, want, "{zone}");
        }
    }
}

#[cfg(test)]
mod tcp_fallback_tests {
    use super::*;
    use authdns::{DelegationRegistry, StaticZoneNode, Zone};
    use simnet::Network;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A delegated zone with 40 A records, and a resolver in front of it.
    fn fat_world() -> (Network, Ipv4Addr) {
        let root_ip = Ipv4Addr::new(198, 41, 0, 4);
        let com_ip = Ipv4Addr::new(192, 5, 6, 30);
        let auth_ip = Ipv4Addr::new(203, 0, 113, 53);
        let mut reg = DelegationRegistry::new();
        reg.set_root(root_ip);
        reg.add_tld(n("com"), com_ip);
        reg.delegate(&n("fat.com"), vec![(n("ns1.fat.com"), auth_ip)]);

        let mut zone = Zone::new(n("fat.com"));
        for i in 0..40u8 {
            zone.add(dnswire::Record::new(
                n("fat.com"),
                60,
                RData::A(Ipv4Addr::new(10, 1, 1, i)),
            ));
        }
        let mut net = Network::new(4);
        net.add_node(
            root_ip,
            Box::new(StaticZoneNode::single(reg.build_root_zone())),
        );
        net.add_node(
            com_ip,
            Box::new(StaticZoneNode::single(reg.build_tld_zone(&n("com")))),
        );
        net.add_node(auth_ip, Box::new(StaticZoneNode::single(zone)));
        let resolver_ip = Ipv4Addr::new(9, 9, 9, 10);
        net.add_node(
            resolver_ip,
            Box::new(RecursorNode::new(resolver_ip, root_ip, 5)),
        );
        (net, resolver_ip)
    }

    /// The UDP leg truncates, the recursor retries over TCP and returns
    /// the complete RRset.
    #[test]
    fn recursor_fetches_fat_rrset_over_tcp() {
        let (mut net, resolver_ip) = fat_world();
        let resp = authdns::dns_query(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 6),
            resolver_ip,
            &n("fat.com"),
            RecordType::A,
            31,
        )
        .expect("resolution completes");
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(
            resp.answers.len(),
            40,
            "full RRset must arrive via TCP fallback"
        );
    }

    /// A client asking over UDP gets the bytes the owned encoder cuts at
    /// 512, whether the job answers it or the cache does.
    #[test]
    fn a_fat_rrset_over_udp_is_the_owned_truncation() {
        let (mut net, resolver_ip) = fat_world();
        let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 6), 4444);
        let server = Endpoint::new(resolver_ip, 53);
        let mut ask = |proto, id| {
            let query = dnswire::encode_query(id, n("fat.com").borrowed(), RecordType::A);
            let timeout = SimDuration::from_secs(10);
            net.rpc(client, server, proto, query, timeout)
                .expect("answered")
        };
        let by_job = ask(simnet::Proto::Udp, 41);
        let full = dnswire::Message::decode(&ask(simnet::Proto::Tcp, 42)).unwrap();
        assert_eq!(full.answers.len(), 40);
        let from_cache = ask(simnet::Proto::Udp, 43);
        for (id, got) in [(41, by_job), (43, from_cache)] {
            let asked = Question::new(n("fat.com"), RecordType::A);
            let mut want =
                dnswire::Message::response_to(&dnswire::Message::query(id, asked), Rcode::NoError);
            want.flags.recursion_available = true;
            want.answers = full.answers.clone();
            let want = want.encode_truncated(dnswire::MAX_UDP_PAYLOAD).unwrap();
            assert_eq!(got, want, "reply {id}");
            assert!(dnswire::Message::decode(&got).unwrap().flags.truncated);
        }
    }
}
