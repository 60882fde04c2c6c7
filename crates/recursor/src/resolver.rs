//! The iterative resolver node: walks root → TLD → authoritative over the
//! simulated fabric, with caching, retry, CNAME chasing and out-of-bailiwick
//! nameserver resolution.

use crate::cache::Cache;
use dnswire::{Message, Name, Question, RData, Rcode, Record, RecordType};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simnet::{Actions, Datagram, Endpoint, Node, SimDuration, SimTime};
use std::collections::HashMap;
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
    ns_hints: HashMap<Name, Ipv4Addr>,
    jobs: HashMap<u64, Job>,
    pending: HashMap<u16, u64>,
    next_job: u64,
    next_id: u16,
    manipulation: Manipulation,
    /// Probability of ignoring a client query (unstable resolvers < 1.0).
    response_rate: f64,
    rng: StdRng,
    /// Count of answered client queries (stats for tests/reports).
    pub(crate) answered: u64,
}

impl RecursorNode {
    /// Create a resolver that iterates from `root_ip`.
    pub fn new(ip: Ipv4Addr, root_ip: Ipv4Addr, seed: u64) -> Self {
        RecursorNode {
            ip,
            root_ip,
            cache: Cache::new(),
            ns_hints: HashMap::new(),
            jobs: HashMap::new(),
            pending: HashMap::new(),
            next_job: 1,
            next_id: 1,
            manipulation: Manipulation::None,
            response_rate: 1.0,
            rng: StdRng::seed_from_u64(seed),
            answered: 0,
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
        let query = Message::query(id, job.question.clone());
        let server = job.server;
        let use_tcp = job.use_tcp;
        self.pending.insert(id, job_id);
        if let Ok(bytes) = query.encode() {
            let src = Endpoint::new(self.ip, 5353);
            let dst = Endpoint::new(server, 53);
            out.send(if use_tcp {
                Datagram::tcp(src, dst, bytes)
            } else {
                Datagram::udp(src, dst, bytes)
            });
        }
        out.set_timer(UPSTREAM_TIMEOUT, (job_id << 16) | generation as u64);
    }

    fn start_job(
        &mut self,
        client: Option<(Endpoint, u16, simnet::Proto)>,
        parent: Option<u64>,
        question: Question,
        out: &mut Actions,
    ) -> u64 {
        let job_id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            job_id,
            Job {
                client,
                parent,
                question: question.clone(),
                original: question,
                chain: Vec::new(),
                server: self.root_ip,
                awaiting: None,
                generation: 0,
                attempts: 0,
                steps: 0,
                use_tcp: false,
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
        // Cache under the original question.
        if rcode == Rcode::NoError && !records.is_empty() {
            self.cache.put_positive(
                now,
                job.original.qname.clone(),
                job.original.qtype,
                records.clone(),
            );
        } else if rcode == Rcode::NxDomain || (rcode == Rcode::NoError && records.is_empty()) {
            self.cache.put_negative(
                now,
                job.original.qname.clone(),
                job.original.qtype,
                rcode,
                None,
            );
        }
        if let Some(parent_id) = job.parent {
            // Internal NS lookup complete: resume or fail the parent.
            let addr = records.iter().find_map(|r| r.rdata.as_a());
            match addr {
                Some(ip) if rcode == Rcode::NoError => {
                    self.ns_hints.insert(job.original.qname.clone(), ip);
                    if let Some(parent) = self.jobs.get_mut(&parent_id) {
                        parent.server = ip;
                        self.send_upstream(parent_id, out);
                    }
                }
                _ => {
                    self.finish(parent_id, now, Rcode::ServFail, Vec::new(), out);
                }
            }
            return;
        }
        if let Some((client, client_id, client_proto)) = job.client {
            self.answered += 1;
            let mut answers = records;
            if let Manipulation::InjectA(ip) = self.manipulation {
                if job.original.qtype == RecordType::A {
                    for r in answers.iter_mut() {
                        if matches!(r.rdata, RData::A(_)) {
                            r.rdata = RData::A(ip);
                        }
                    }
                }
            }
            let query = Message::query(client_id, job.original.clone());
            let mut resp = Message::response_to(&query, rcode);
            resp.flags.recursion_available = true;
            resp.answers = answers;
            let limit = match client_proto {
                simnet::Proto::Udp => dnswire::MAX_UDP_PAYLOAD,
                simnet::Proto::Tcp => dnswire::MAX_MESSAGE_LEN,
            };
            if let Ok(bytes) = resp.encode_truncated(limit) {
                let src = Endpoint::new(self.ip, 53);
                out.send(match client_proto {
                    simnet::Proto::Udp => Datagram::udp(src, client, bytes),
                    simnet::Proto::Tcp => Datagram::tcp(src, client, bytes),
                });
            }
        }
    }

    fn handle_client_query(
        &mut self,
        now: SimTime,
        dgram: &Datagram,
        query: Message,
        out: &mut Actions,
    ) {
        if self.response_rate < 1.0 && !self.rng.random_bool(self.response_rate) {
            return; // unstable resolver: silence
        }
        let Some(q) = query.question().cloned() else {
            return;
        };
        if !query.flags.recursion_desired {
            let resp = Message::response_to(&query, Rcode::Refused);
            if let Ok(bytes) = resp.encode() {
                out.send(dgram.reply(bytes));
            }
            return;
        }
        if let Some(hit) = self.cache.get(now, &q.qname, q.qtype) {
            self.answered += 1;
            let mut answers = hit.records;
            if let Manipulation::InjectA(ip) = self.manipulation {
                if q.qtype == RecordType::A {
                    for r in answers.iter_mut() {
                        if matches!(r.rdata, RData::A(_)) {
                            r.rdata = RData::A(ip);
                        }
                    }
                }
            }
            let mut resp = Message::response_to(&query, hit.rcode);
            resp.flags.recursion_available = true;
            resp.answers = answers;
            let limit = match dgram.proto {
                simnet::Proto::Udp => dnswire::MAX_UDP_PAYLOAD,
                simnet::Proto::Tcp => dnswire::MAX_MESSAGE_LEN,
            };
            if let Ok(bytes) = resp.encode_truncated(limit) {
                out.send(dgram.reply(bytes));
            }
            return;
        }
        self.start_job(Some((dgram.src, query.id, dgram.proto)), None, q, out);
    }

    fn handle_upstream_response(&mut self, now: SimTime, resp: Message, out: &mut Actions) {
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
                    && q.qname == j.question.qname
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
        match resp.rcode() {
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
        let job = self.jobs.get(&job_id).expect("validated above");
        let qname = job.question.qname.clone();
        let qtype = job.question.qtype;
        // 1. Terminal answers at the current name?
        let direct: Vec<Record> = resp
            .answers
            .iter()
            .filter(|r| r.name == qname && (r.rtype() == qtype || qtype == RecordType::Any))
            .cloned()
            .collect();
        if !direct.is_empty() {
            let mut full = self.take_chain(job_id);
            full.extend(direct);
            self.finish(job_id, now, Rcode::NoError, full, out);
            return;
        }
        // 2. CNAME at the current name?
        let cname = resp
            .answers
            .iter()
            .find(|r| r.name == qname && r.rtype() == RecordType::Cname)
            .cloned();
        if let Some(c) = cname {
            if let RData::Cname(target) = c.rdata.clone() {
                // Absorb any in-response records for the target as well.
                let tail: Vec<Record> = resp
                    .answers
                    .iter()
                    .filter(|r| r.name == target && r.rtype() == qtype)
                    .cloned()
                    .collect();
                let job = self.jobs.get_mut(&job_id).expect("job");
                job.chain.push(c);
                if !tail.is_empty() {
                    let mut full = std::mem::take(&mut job.chain);
                    full.extend(tail);
                    self.finish(job_id, now, Rcode::NoError, full, out);
                    return;
                }
                job.question.qname = target;
                job.server = self.root_ip;
                job.attempts = 0;
                self.send_upstream(job_id, out);
                return;
            }
        }
        // 3. Delegation referral?
        let mut referrals: Vec<(Name, Option<Ipv4Addr>)> = Vec::new();
        for r in &resp.authorities {
            if let RData::Ns(ns_name) = &r.rdata {
                let glue = resp
                    .additionals
                    .iter()
                    .find(|g| g.name == *ns_name)
                    .and_then(|g| g.rdata.as_a());
                referrals.push((ns_name.clone(), glue));
            }
        }
        if !referrals.is_empty() {
            referrals.sort_by(|a, b| a.0.cmp(&b.0));
            for (ns_name, glue) in &referrals {
                if let Some(ip) = glue {
                    self.ns_hints.insert(ns_name.clone(), *ip);
                }
            }
            // Prefer a referral with a known address.
            if let Some((_, ip)) = referrals
                .iter()
                .find_map(|(n, g)| g.map(|ip| (n.clone(), ip)))
                .or_else(|| {
                    referrals
                        .iter()
                        .find_map(|(n, _)| self.ns_hints.get(n).map(|ip| (n.clone(), *ip)))
                })
            {
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
            let ns_name = referrals[0].0.clone();
            self.start_job(
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
        let Ok(msg) = Message::decode(&dgram.payload) else {
            return;
        };
        if msg.flags.response {
            self.handle_upstream_response(now, msg, out);
        } else {
            self.handle_client_query(now, dgram, msg, out);
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
    use simnet::{FaultPlan, Network};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// Build a tiny delegated world:
    /// root -> com -> example.com @ ns1.example.com (in-bailiwick glue)
    ///      -> org -> hosted.org  @ ns.provider.com (out-of-bailiwick)
    /// provider.com itself delegated with glue.
    fn build_world() -> (Network, Ipv4Addr) {
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
        net.add_node(
            root_ip,
            Box::new(StaticZoneNode::single(reg.build_root_zone())),
        );
        net.add_node(
            com_ip,
            Box::new(StaticZoneNode::single(reg.build_tld_zone(&n("com")))),
        );
        net.add_node(
            org_ip,
            Box::new(StaticZoneNode::single(reg.build_tld_zone(&n("org")))),
        );

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
        (net, resolver_ip)
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
}

#[cfg(test)]
mod tcp_fallback_tests {
    use super::*;
    use authdns::{DelegationRegistry, StaticZoneNode, Zone};
    use simnet::Network;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    /// A delegated zone with 40 A records: the UDP leg truncates, the
    /// recursor retries over TCP and returns the complete RRset.
    #[test]
    fn recursor_fetches_fat_rrset_over_tcp() {
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
}
