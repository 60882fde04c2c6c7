//! simnet node adapters: authoritative nameservers speaking real wire-format
//! DNS over the simulated fabric.

use crate::provider::{HostingProvider, ProviderAnswer, PROTECTIVE_TTL};
use crate::zone::{RrSets, Zone, ZoneAnswer};
use dnswire::{
    Class, Message, MessageView, MessageWriter, Name, NameKey, NameRef, Rcode, Record, RecordType,
    Section,
};
use simnet::{Actions, Datagram, Node, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// The DNS service port.
pub const DNS_PORT: u16 = 53;

/// Response size limit for a transport: UDP truncates at 512 bytes
/// (classic DNS) unless the query advertised a larger EDNS(0) buffer; TCP
/// carries the full message.
fn size_limit(proto: simnet::Proto, query: &MessageView<'_>) -> usize {
    match proto {
        simnet::Proto::Udp => {
            let advertised = query
                .edns_payload_size()
                .map(|s| s as usize)
                .unwrap_or(dnswire::MAX_UDP_PAYLOAD);
            advertised.clamp(dnswire::MAX_UDP_PAYLOAD, dnswire::MAX_MESSAGE_LEN)
        }
        simnet::Proto::Tcp => dnswire::MAX_MESSAGE_LEN,
    }
}

/// What every server node does with a datagram: parse it in place, let
/// `answer` write the response to its first question, send that back.
///
/// `answer` gets the question and a writer already holding the response
/// header (NOERROR, question section echoed) and the transport's size
/// limit; it sets flags and appends records, all of them borrowed from
/// wherever the node keeps its data. Records that do not fit are cut and
/// TC set by the writer.
fn serve(
    dgram: &Datagram,
    out: &mut Actions,
    answer: impl FnOnce(NameRef<'_>, RecordType, &mut MessageWriter),
) {
    // Garbage, or a response delivered to a server: silently dropped,
    // exactly like a defensive real-world server.
    let Ok(query) = MessageView::parse(&dgram.payload) else {
        return;
    };
    if query.flags.response {
        return;
    }
    let reply = match query.question() {
        Some(q) => {
            let limit = size_limit(dgram.proto, &query);
            let mut w = MessageWriter::response_to(&query, Rcode::NoError, limit);
            answer(q.qname.to_buf().borrowed(), q.qtype, &mut w);
            w.finish()
        }
        // Parseable but question-less: answer FORMERR.
        None => {
            MessageWriter::response_to(&query, Rcode::FormErr, dnswire::MAX_MESSAGE_LEN).finish()
        }
    };
    if let Ok(bytes) = reply {
        out.send(dgram.reply(bytes));
    }
}

fn push_all<'r>(
    w: &mut MessageWriter,
    section: Section,
    records: impl IntoIterator<Item = &'r Record>,
) {
    for r in records {
        if !w.push(section, r) {
            return;
        }
    }
}

/// Write the authoritative response for a [`ZoneAnswer`].
fn write_zone_answer(w: &mut MessageWriter, soa: Option<&Record>, ans: ZoneAnswer<'_>) {
    let flags = w.flags_mut();
    match ans {
        ZoneAnswer::Records(rs) => {
            flags.authoritative = true;
            push_all(w, Section::Answer, rs.iter());
        }
        ZoneAnswer::Delegation { ns, glue } => {
            push_all(w, Section::Authority, ns);
            push_all(w, Section::Additional, glue.iter());
        }
        ZoneAnswer::NoData => {
            flags.authoritative = true;
            push_all(w, Section::Authority, soa);
        }
        ZoneAnswer::NxDomain => {
            flags.authoritative = true;
            flags.rcode = Rcode::NxDomain;
            push_all(w, Section::Authority, soa);
        }
        ZoneAnswer::NotInZone => flags.rcode = Rcode::Refused,
    }
}

/// Write the response a provider nameserver at `ns_ip` gives.
///
/// Shared by the `Rc`-backed single-fabric node and the `Arc`-backed shard
/// replica so both answer bit-identically.
fn write_provider_answer(
    provider: &HostingProvider,
    ns_ip: Ipv4Addr,
    qname: NameRef<'_>,
    qtype: RecordType,
    w: &mut MessageWriter,
) {
    match provider.answer(ns_ip, qname, qtype) {
        ProviderAnswer::FromZone(zid, ans) => {
            let soa = provider.zone(zid).map(|z| z.zone.soa());
            write_zone_answer(w, soa, ans);
        }
        ProviderAnswer::Protective(rdata) => {
            w.flags_mut().authoritative = true;
            if let Some(rdata) = rdata {
                w.record(Section::Answer, qname, Class::In, PROTECTIVE_TTL, rdata);
            }
        }
        ProviderAnswer::Refused => w.flags_mut().rcode = Rcode::Refused,
    }
}

/// Write the response a misconfigured-recursive oracle gives.
fn write_oracle_answer(
    truth: &AnswerMap,
    qname: NameRef<'_>,
    qtype: RecordType,
    w: &mut MessageWriter,
) {
    w.flags_mut().recursion_available = true;
    match truth.get(qname, qtype) {
        [] => w.flags_mut().rcode = Rcode::NxDomain,
        rs => push_all(w, Section::Answer, rs),
    }
}

/// A nameserver belonging to a hosting provider.
///
/// Many `ProviderNsNode`s share one [`HostingProvider`] (its zone table is
/// the provider's control plane); each node answers as its own IP, which is
/// what makes per-nameserver allocation policies observable on the wire.
pub struct ProviderNsNode {
    provider: Rc<RefCell<HostingProvider>>,
    ip: Ipv4Addr,
}

impl ProviderNsNode {
    /// Attach a node for the provider nameserver at `ip`.
    pub fn new(provider: Rc<RefCell<HostingProvider>>, ip: Ipv4Addr) -> Self {
        ProviderNsNode { provider, ip }
    }
}

impl Node for ProviderNsNode {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        serve(dgram, out, |qname, qtype, w| {
            write_provider_answer(&self.provider.borrow(), self.ip, qname, qtype, w)
        });
    }

    fn role(&self) -> &'static str {
        "provider-ns"
    }
}

/// A provider nameserver backed by an immutable [`Arc`] snapshot of the
/// provider's control plane.
///
/// Unlike [`ProviderNsNode`], this node is `Send`: shard worker threads can
/// each build their own fabric over shared snapshots without cloning the
/// zone tables per shard. Answers are bit-identical to the `Rc` node because
/// both write through the same helper and [`HostingProvider::answer`] is a
/// read-only query.
pub struct SharedProviderNs {
    provider: Arc<HostingProvider>,
    ip: Ipv4Addr,
}

impl SharedProviderNs {
    /// Attach a snapshot-backed node for the provider nameserver at `ip`.
    pub fn new(provider: Arc<HostingProvider>, ip: Ipv4Addr) -> Self {
        SharedProviderNs { provider, ip }
    }
}

impl Node for SharedProviderNs {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        serve(dgram, out, |qname, qtype, w| {
            write_provider_answer(&self.provider, self.ip, qname, qtype, w)
        });
    }

    fn role(&self) -> &'static str {
        "provider-ns"
    }
}

/// A standalone authoritative server for a fixed set of zones — used for
/// the root, TLD registries and self-hosted (non-provider) domains.
pub struct StaticZoneNode {
    zones: Rc<RefCell<Vec<Zone>>>,
}

impl StaticZoneNode {
    /// Serve the given shared zones.
    pub fn new(zones: Rc<RefCell<Vec<Zone>>>) -> Self {
        StaticZoneNode { zones }
    }

    /// Serve one owned zone.
    pub fn single(zone: Zone) -> Self {
        StaticZoneNode {
            zones: Rc::new(RefCell::new(vec![zone])),
        }
    }
}

impl Node for StaticZoneNode {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        serve(dgram, out, |qname, qtype, w| {
            let zones = self.zones.borrow();
            // Most specific enclosing zone wins.
            let best = zones
                .iter()
                .filter(|z| qname.is_subdomain_of(z.apex().borrowed()))
                .max_by_key(|z| z.apex().label_count());
            match best {
                Some(zone) => write_zone_answer(w, Some(zone.soa()), zone.answer(qname, qtype)),
                None => w.flags_mut().rcode = Rcode::Refused,
            }
        });
    }

    fn role(&self) -> &'static str {
        "static-auth"
    }
}

/// Ground-truth answer table shared by oracle nodes: the canonical records
/// of the delegated web by owner name and type.
#[derive(Debug, Clone, Default)]
pub struct AnswerMap {
    by_name: HashMap<Name, RrSets>,
}

impl AnswerMap {
    /// An empty table.
    pub fn new() -> Self {
        AnswerMap::default()
    }

    /// Append `record` to the RRset of its owner and type.
    pub fn add(&mut self, record: Record) {
        self.by_name
            .entry(record.name.clone())
            .or_default()
            .entry(record.rtype())
            .push(record);
    }

    /// The canonical records of `rtype` at `name`, empty if unknown.
    pub(crate) fn get(&self, name: NameRef<'_>, rtype: RecordType) -> &[Record] {
        self.by_name
            .get(&name as &dyn NameKey)
            .map_or(&[], |sets| sets.get(rtype))
    }
}

/// A *misconfigured* nameserver that performs recursion for names it does
/// not host and returns the correct global answer (RA set, AA clear).
///
/// The paper (§4) calls out such servers as a source of URs that must be
/// excluded: their "undelegated" answers are simply the correct records.
pub struct OracleRecursiveNs {
    truth: Rc<RefCell<AnswerMap>>,
}

impl OracleRecursiveNs {
    /// Create an oracle node over the shared ground-truth table.
    pub fn new(truth: Rc<RefCell<AnswerMap>>) -> Self {
        OracleRecursiveNs { truth }
    }
}

impl Node for OracleRecursiveNs {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        serve(dgram, out, |qname, qtype, w| {
            write_oracle_answer(&self.truth.borrow(), qname, qtype, w)
        });
    }

    fn role(&self) -> &'static str {
        "misconfigured-recursive-ns"
    }
}

/// A misconfigured-recursive oracle backed by an immutable [`Arc`] snapshot
/// of the ground-truth table — the `Send` counterpart of
/// [`OracleRecursiveNs`] for shard worker fabrics.
pub struct SharedOracleNs {
    truth: Arc<AnswerMap>,
}

impl SharedOracleNs {
    /// Create a snapshot-backed oracle node.
    pub fn new(truth: Arc<AnswerMap>) -> Self {
        SharedOracleNs { truth }
    }
}

impl Node for SharedOracleNs {
    fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
        serve(dgram, out, |qname, qtype, w| {
            write_oracle_answer(&self.truth, qname, qtype, w)
        });
    }

    fn role(&self) -> &'static str {
        "misconfigured-recursive-ns"
    }
}

/// One DNS exchange over the fabric, read in place: `read` is handed the
/// validated response and its result returned; `None` on timeout, garbage
/// or a mismatched id. A truncated UDP answer (TC bit) is transparently
/// retried over TCP, as real stub resolvers and scanners do. The timeout
/// applies to the UDP exchange and again to the TCP fallback.
///
/// Nothing is built on the way: the query is written into a pooled buffer
/// the fabric consumes, the reply is parsed where it lies and its buffer
/// returned to the pool, so the exchange allocates only what `read` does.
#[allow(clippy::too_many_arguments)]
pub fn exchange<T>(
    net: &mut simnet::Network,
    client_ip: Ipv4Addr,
    server_ip: Ipv4Addr,
    qname: &Name,
    qtype: RecordType,
    id: u16,
    timeout: simnet::SimDuration,
    read: impl FnOnce(&MessageView<'_>) -> T,
) -> Option<T> {
    let src = simnet::Endpoint::new(client_ip, 30000 + (id % 30000));
    let dst = simnet::Endpoint::new(server_ip, DNS_PORT);
    // No defensive clone of the wire bytes: the fabric consumes the buffer
    // and recycles it through the pool. The rare TC fallback re-encodes,
    // which is cheaper than cloning every query on the hot path.
    let query = || dnswire::encode_query(id, qname.borrowed(), qtype);
    let udp = net.rpc(src, dst, simnet::Proto::Udp, query(), timeout)?;
    let out = match MessageView::parse(&udp) {
        Ok(resp) if resp.id == id && resp.flags.truncated => {
            // TCP fallback for the complete answer. TCP blocked, lost or
            // mangled: the truncated answer is all we have.
            let tcp = net.rpc(src, dst, simnet::Proto::Tcp, query(), timeout);
            let full = tcp
                .as_deref()
                .and_then(|raw| MessageView::parse(raw).ok())
                .filter(|full| full.id == id);
            let out = read(full.as_ref().unwrap_or(&resp));
            if let Some(raw) = tcp {
                dnswire::bufpool::release(raw);
            }
            Some(out)
        }
        Ok(resp) if resp.id == id => Some(read(&resp)),
        _ => None,
    };
    dnswire::bufpool::release(udp);
    out
}

/// Convenience for tests and probes: one blocking DNS query over the fabric.
/// Returns the decoded response, or `None` on timeout/garbage (see
/// [`exchange`]).
pub fn dns_query(
    net: &mut simnet::Network,
    client_ip: Ipv4Addr,
    server_ip: Ipv4Addr,
    qname: &Name,
    qtype: RecordType,
    id: u16,
) -> Option<Message> {
    dns_query_with_timeout(
        net,
        client_ip,
        server_ip,
        qname,
        qtype,
        id,
        simnet::SimDuration::from_secs(5),
    )
}

/// [`dns_query`] with an explicit per-attempt timeout, used by retrying
/// callers that want to wait less than the stub default before giving the
/// attempt up.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dns_query_with_timeout(
    net: &mut simnet::Network,
    client_ip: Ipv4Addr,
    server_ip: Ipv4Addr,
    qname: &Name,
    qtype: RecordType,
    id: u16,
    timeout: simnet::SimDuration,
) -> Option<Message> {
    exchange(
        net,
        client_ip,
        server_ip,
        qname,
        qtype,
        id,
        timeout,
        |resp| resp.to_message(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DomainClass, HostingPolicy};
    use dnswire::RData;
    use simnet::Network;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn build_provider_net() -> (Network, Rc<RefCell<HostingProvider>>) {
        let fleet: Vec<(Name, Ipv4Addr)> = (0..4)
            .map(|i| {
                (
                    n(&format!("ns{i}.cloudx.example")),
                    Ipv4Addr::new(198, 18, 0, i + 1),
                )
            })
            .collect();
        let provider = Rc::new(RefCell::new(HostingProvider::new(
            "CloudX",
            HostingPolicy::cloudns(),
            fleet.clone(),
            Ipv4Addr::new(198, 18, 0, 250),
            11,
        )));
        let mut net = Network::new(5);
        for (_, ip) in &fleet {
            net.add_node(*ip, Box::new(ProviderNsNode::new(provider.clone(), *ip)));
        }
        (net, provider)
    }

    #[test]
    fn wire_query_returns_hosted_ur() {
        let (mut net, provider) = build_provider_net();
        {
            let mut p = provider.borrow_mut();
            let acct = p.create_account();
            let zid = p
                .host_domain(acct, &n("trusted.com"), DomainClass::RegisteredSld)
                .unwrap();
            p.add_record(
                zid,
                Record::new(
                    n("trusted.com"),
                    60,
                    RData::A(Ipv4Addr::new(66, 66, 66, 66)),
                ),
            );
        }
        let resp = dns_query(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 18, 0, 1),
            &n("trusted.com"),
            RecordType::A,
            0x55,
        )
        .unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.flags.authoritative);
        assert_eq!(
            resp.answers[0].rdata.as_a().unwrap(),
            Ipv4Addr::new(66, 66, 66, 66)
        );
    }

    #[test]
    fn wire_query_unknown_domain_gets_protective() {
        let (mut net, _provider) = build_provider_net();
        let resp = dns_query(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 18, 0, 2),
            &n("nothosted.net"),
            RecordType::A,
            0x56,
        )
        .unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(
            resp.answers[0].rdata.as_a().unwrap(),
            Ipv4Addr::new(198, 18, 0, 250)
        );
    }

    #[test]
    fn static_zone_node_answers_and_refuses() {
        let mut zone = Zone::new(n("corp.example"));
        zone.add(Record::new(
            n("www.corp.example"),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        let mut net = Network::new(1);
        let ns_ip = Ipv4Addr::new(192, 0, 2, 53);
        net.add_node(ns_ip, Box::new(StaticZoneNode::single(zone)));
        let client = Ipv4Addr::new(10, 0, 0, 2);
        let ok = dns_query(
            &mut net,
            client,
            ns_ip,
            &n("www.corp.example"),
            RecordType::A,
            1,
        )
        .unwrap();
        assert_eq!(ok.rcode(), Rcode::NoError);
        let refused =
            dns_query(&mut net, client, ns_ip, &n("other.org"), RecordType::A, 2).unwrap();
        assert_eq!(refused.rcode(), Rcode::Refused);
        let nx = dns_query(
            &mut net,
            client,
            ns_ip,
            &n("gone.corp.example"),
            RecordType::A,
            3,
        )
        .unwrap();
        assert_eq!(nx.rcode(), Rcode::NxDomain);
        assert!(!nx.authorities.is_empty(), "negative answer carries SOA");
    }

    #[test]
    fn oracle_recursive_ns_returns_correct_records() {
        let mut truth = AnswerMap::new();
        truth.add(Record::new(
            n("popular.com"),
            60,
            RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        ));
        let mut net = Network::new(1);
        let ns_ip = Ipv4Addr::new(192, 0, 2, 99);
        net.add_node(
            ns_ip,
            Box::new(OracleRecursiveNs::new(Rc::new(RefCell::new(truth)))),
        );
        let resp = dns_query(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 3),
            ns_ip,
            &n("popular.com"),
            RecordType::A,
            9,
        )
        .unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.flags.recursion_available);
        assert!(!resp.flags.authoritative);
        assert_eq!(
            resp.answers[0].rdata.as_a().unwrap(),
            Ipv4Addr::new(203, 0, 113, 7)
        );
    }

    #[test]
    fn garbage_payload_is_ignored() {
        let (mut net, _) = build_provider_net();
        let reply = net.rpc(
            simnet::Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 4000),
            simnet::Endpoint::new(Ipv4Addr::new(198, 18, 0, 1), DNS_PORT),
            simnet::Proto::Udp,
            vec![0xFF; 30],
            simnet::SimDuration::from_secs(2),
        );
        assert!(reply.is_none());
    }

    #[test]
    fn truncated_udp_falls_back_to_tcp() {
        // A fat RRset (40 A records) cannot fit a 512-byte UDP payload.
        let mut zone = Zone::new(n("fat.example"));
        for i in 0..40u8 {
            zone.add(Record::new(
                n("fat.example"),
                60,
                RData::A(Ipv4Addr::new(203, 0, 113, i)),
            ));
        }
        let mut net = Network::new(2);
        let ns_ip = Ipv4Addr::new(192, 0, 2, 60);
        net.add_node(ns_ip, Box::new(StaticZoneNode::single(zone)));
        let resp = dns_query(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 4),
            ns_ip,
            &n("fat.example"),
            RecordType::A,
            21,
        )
        .unwrap();
        // dns_query retried over TCP: the full set arrives, untruncated.
        assert!(!resp.flags.truncated);
        assert_eq!(resp.answers.len(), 40);

        // And the raw UDP exchange really does truncate.
        let q = Message::query(22, dnswire::Question::new(n("fat.example"), RecordType::A));
        let reply = net
            .rpc(
                simnet::Endpoint::new(Ipv4Addr::new(10, 0, 0, 5), 4001),
                simnet::Endpoint::new(ns_ip, DNS_PORT),
                simnet::Proto::Udp,
                q.encode().unwrap(),
                simnet::SimDuration::from_secs(2),
            )
            .unwrap();
        assert!(reply.len() <= dnswire::MAX_UDP_PAYLOAD);
        let udp_resp = Message::decode(&reply).unwrap();
        assert!(udp_resp.flags.truncated);
        assert!(udp_resp.answers.len() < 40);
    }

    #[test]
    fn oversized_rrset_is_truncated_on_both_transports() {
        // 300 A records come to ~4.8 KB untruncated, past MAX_MESSAGE_LEN.
        // The server used to encode the whole answer before truncating it,
        // fail on the length, and send nothing: the scanner timed out,
        // retried, gave up and quarantined a healthy nameserver.
        let mut zone = Zone::new(n("huge.example"));
        for i in 0..300u16 {
            let ip = Ipv4Addr::new(203, 0, (i >> 8) as u8, i as u8);
            zone.add(Record::new(n("huge.example"), 60, RData::A(ip)));
        }
        let mut net = Network::new(4);
        let ns_ip = Ipv4Addr::new(192, 0, 2, 62);
        net.add_node(ns_ip, Box::new(StaticZoneNode::single(zone)));
        for (proto, limit) in [
            (simnet::Proto::Udp, dnswire::MAX_UDP_PAYLOAD),
            (simnet::Proto::Tcp, dnswire::MAX_MESSAGE_LEN),
        ] {
            let reply = net
                .rpc(
                    simnet::Endpoint::new(Ipv4Addr::new(10, 0, 0, 8), 4003),
                    simnet::Endpoint::new(ns_ip, DNS_PORT),
                    proto,
                    dnswire::encode_query(51, n("huge.example").borrowed(), RecordType::A),
                    simnet::SimDuration::from_secs(2),
                )
                .unwrap_or_else(|| panic!("{proto} reply"));
            assert!(reply.len() <= limit, "{proto}: {} bytes", reply.len());
            // Every record the limit has room for, and only whole ones.
            assert!(reply.len() + 16 > limit);
            let resp = Message::decode(&reply).expect("whole records only");
            assert!(resp.flags.truncated && resp.flags.authoritative);
            assert_eq!(resp.answers.len(), (reply.len() - 12 - 18) / 16);
        }
        // The scanner's view: an answer, not a timeout.
        let resp = dns_query(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 8),
            ns_ip,
            &n("huge.example"),
            RecordType::A,
            52,
        )
        .expect("answered");
        assert!(resp.flags.truncated);
        assert!(resp.answers.len() > 200);
    }

    #[test]
    fn questionless_query_gets_formerr_and_responses_are_dropped() {
        let (mut net, _) = build_provider_net();
        let mut bare = Message::query(77, dnswire::Question::new(n("x.y"), RecordType::A));
        bare.questions.clear();
        let mut send = |m: &Message| {
            net.rpc(
                simnet::Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 4004),
                simnet::Endpoint::new(Ipv4Addr::new(198, 18, 0, 1), DNS_PORT),
                simnet::Proto::Udp,
                m.encode().unwrap(),
                simnet::SimDuration::from_secs(2),
            )
        };
        let reply = send(&bare).expect("FORMERR is an answer");
        let want = Message::response_to(&bare, Rcode::FormErr);
        assert_eq!(Message::decode(&reply).unwrap(), want);
        assert_eq!(reply, want.encode().unwrap());
        bare.flags.response = true;
        assert!(send(&bare).is_none());
    }

    #[test]
    fn every_question_is_echoed_and_the_first_answered() {
        // The response is what building the owned message gives, byte for
        // byte: both questions echoed (the second compressed against the
        // first), the answer's owner a pointer at the first.
        let (mut net, _) = build_provider_net();
        let mut q = Message::query(
            78,
            dnswire::Question::new(n("Unhosted.Example.NET"), RecordType::A),
        );
        q.questions.push(dnswire::Question::new(
            n("other.example.net"),
            RecordType::Txt,
        ));
        let reply = net
            .rpc(
                simnet::Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 4005),
                simnet::Endpoint::new(Ipv4Addr::new(198, 18, 0, 2), DNS_PORT),
                simnet::Proto::Udp,
                q.encode().unwrap(),
                simnet::SimDuration::from_secs(2),
            )
            .unwrap();
        let mut want = Message::response_to(&q, Rcode::NoError);
        want.flags.authoritative = true;
        want.answers.push(Record::new(
            n("Unhosted.Example.NET"),
            PROTECTIVE_TTL,
            RData::A(Ipv4Addr::new(198, 18, 0, 250)),
        ));
        assert_eq!(reply, want.encode().unwrap());
    }

    #[test]
    fn edns_buffer_avoids_truncation_on_udp() {
        let mut zone = Zone::new(n("fat2.example"));
        for i in 0..40u8 {
            zone.add(Record::new(
                n("fat2.example"),
                60,
                RData::A(Ipv4Addr::new(203, 0, 113, i)),
            ));
        }
        let mut net = Network::new(3);
        let ns_ip = Ipv4Addr::new(192, 0, 2, 61);
        net.add_node(ns_ip, Box::new(StaticZoneNode::single(zone)));
        let mut q = Message::query(41, dnswire::Question::new(n("fat2.example"), RecordType::A));
        q.add_edns(4096);
        let reply = net
            .rpc(
                simnet::Endpoint::new(Ipv4Addr::new(10, 0, 0, 7), 4002),
                simnet::Endpoint::new(ns_ip, DNS_PORT),
                simnet::Proto::Udp,
                q.encode().unwrap(),
                simnet::SimDuration::from_secs(2),
            )
            .unwrap();
        let resp = Message::decode(&reply).unwrap();
        assert!(!resp.flags.truncated, "EDNS buffer must prevent truncation");
        assert_eq!(resp.answers.len(), 40);
        assert!(reply.len() > dnswire::MAX_UDP_PAYLOAD);
    }

    #[test]
    fn txt_protective_record_over_wire() {
        let (mut net, _) = build_provider_net();
        let resp = dns_query(
            &mut net,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(198, 18, 0, 3),
            &n("unhosted.org"),
            RecordType::Txt,
            0x77,
        )
        .unwrap();
        assert!(resp.answers[0]
            .rdata
            .txt_joined()
            .unwrap()
            .contains("not hosted"));
    }
}
