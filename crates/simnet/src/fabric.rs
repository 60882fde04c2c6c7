//! The event-driven network fabric: owns nodes, the event queue, the
//! latency model, fault injection and the traffic capture.

use crate::fault::{FaultDecision, FaultPlan, FlowDraws};
use crate::node::{Actions, Datagram, Endpoint, Node};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Disposition, FlowLog};
use fxhash::FxHashMap;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use std::ops::ControlFlow;

/// Deterministic propagation-delay model.
///
/// Latency between a pair of addresses is `base` plus a per-pair offset
/// derived by hashing the pair (stable across a run, so a given path always
/// has the same RTT — like real geography).
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Floor latency applied to every hop.
    pub base: SimDuration,
    /// Maximum additional per-pair latency in microseconds.
    pub per_pair_spread_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base: SimDuration::from_millis(10),
            per_pair_spread_us: 90_000,
        }
    }
}

impl LatencyModel {
    /// One-way delay for a (src, dst) pair.
    pub fn delay(&self, src: Ipv4Addr, dst: Ipv4Addr) -> SimDuration {
        if self.per_pair_spread_us == 0 {
            return self.base;
        }
        let mut h = u64::from(u32::from(src)).wrapping_mul(0x9E3779B97F4A7C15);
        h ^= u64::from(u32::from(dst)).wrapping_mul(0xC2B2AE3D27D4EB4F);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        h ^= h >> 32;
        self.base + SimDuration::from_micros(h % self.per_pair_spread_us)
    }
}

/// Aggregate fabric counters: the one count of every datagram's fate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the fabric, one fault decision each.
    pub sent: u64,
    /// Extra copies injected by fault duplication (delivered without a
    /// send of their own).
    pub duplicated: u64,
    /// Datagrams delivered to a node or external inbox.
    pub delivered: u64,
    /// Datagrams dropped by fault injection or size limit.
    pub dropped: u64,
    /// Datagrams delivered with an injected corruption.
    pub corrupted: u64,
    /// Datagrams addressed to an IP with no node or external registration.
    pub no_route: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Events processed by the run loop.
    pub events: u64,
}

impl NetStats {
    /// Every counter beside its `net_*` metric name. `self` is destructured
    /// exhaustively, so a field added to [`NetStats`] fails to compile here
    /// until it is named — and the sum, the difference and the publish
    /// below all go through this list.
    fn fields(self) -> [(&'static str, u64); 8] {
        let NetStats {
            sent,
            duplicated,
            delivered,
            dropped,
            corrupted,
            no_route,
            bytes_delivered,
            events,
        } = self;
        [
            ("net_sent", sent),
            ("net_duplicated", duplicated),
            ("net_delivered", delivered),
            ("net_dropped", dropped),
            ("net_corrupted", corrupted),
            ("net_no_route", no_route),
            ("net_bytes_delivered", bytes_delivered),
            ("net_events", events),
        ]
    }

    /// Field-by-field combination of two stats.
    fn zip_with(self, rhs: NetStats, f: impl Fn(u64, u64) -> u64) -> NetStats {
        let (a, b) = (self.fields(), rhs.fields());
        let [sent, duplicated, delivered, dropped, corrupted, no_route, bytes_delivered, events] =
            std::array::from_fn(|i| f(a[i].1, b[i].1));
        NetStats {
            sent,
            duplicated,
            delivered,
            dropped,
            corrupted,
            no_route,
            bytes_delivered,
            events,
        }
    }
}

impl std::ops::AddAssign for NetStats {
    /// Field-by-field sum.
    fn add_assign(&mut self, rhs: NetStats) {
        *self = self.zip_with(rhs, |a, b| a + b);
    }
}

impl std::ops::Sub for NetStats {
    type Output = NetStats;

    /// Field-by-field difference: the traffic between two readings of one
    /// fabric's [`Network::stats`].
    fn sub(self, rhs: NetStats) -> NetStats {
        self.zip_with(rhs, |a, b| a - b)
    }
}

/// The `net_*` metric family: where a fabric's [`NetStats`] meet an
/// [`obs`] registry. Every counter is [`obs::Class::Sim`]: the fabric is
/// single-threaded and seeded, so datagram fates are part of the
/// deterministic fingerprint of a run.
///
/// The type has no values. It names the family, and
/// [`Network::set_obs`] still takes an `Option` of it, which can only be
/// `None`.
#[derive(Debug)]
pub enum FabricMetrics {}

impl FabricMetrics {
    /// Add `stats` to the eight `net_*` counters of `reg`, registering
    /// each (a zero included) on first use. Callers publish each fabric's
    /// traffic exactly once: a shard replica's when its shard ends, the
    /// world fabric's as the difference across a run.
    pub fn publish(reg: &obs::MetricsRegistry, stats: NetStats) {
        for (name, n) in stats.fields() {
            reg.add(name, obs::Class::Sim, n);
        }
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver { dgram: Datagram, corrupt: bool },
    Timer { node: Ipv4Addr, token: u64 },
}

struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The fate of a datagram that arrives as it was sent, once.
const CLEAN: FaultDecision = FaultDecision::Deliver {
    corrupt: None,
    duplicate: false,
};

/// What sits at an address: a node that handles what reaches it, or an
/// external endpoint's inbox that queues it.
enum Attached {
    Node(Box<dyn Node>),
    Inbox(Vec<Datagram>),
}

/// The simulated network.
///
/// Single-threaded and fully deterministic: given the same seed, node set
/// and injected traffic, every run produces identical event orderings,
/// traces and statistics.
pub struct Network {
    /// Every address's node or external inbox.
    attached: FxHashMap<Ipv4Addr, Attached>,
    queue: BinaryHeap<Reverse<Event>>,
    now: SimTime,
    latency: LatencyModel,
    faults: FaultPlan,
    /// Seed of every flow's fault schedule (see [`FaultPlan`]).
    fault_seed: u64,
    /// Per-`(src, dst)` datagram counters driving per-flow fault decisions.
    flow_counters: FxHashMap<(Ipv4Addr, Ipv4Addr), u64>,
    /// Traffic capture; enabled by default.
    pub trace: FlowLog,
    stats: NetStats,
    seq: u64,
    /// Hook returning consumed datagram payloads to the caller's buffer
    /// pool (see [`Network::set_payload_recycler`]).
    payload_recycler: Option<fn(Vec<u8>)>,
    /// The `Actions` handed to every handler: drained after each call, so
    /// its vectors are allocated once per fabric, not once per delivery.
    scratch: Actions,
}

impl Network {
    /// Create a fabric with the given fault seed, default latency model, no
    /// faults, and capture enabled.
    pub fn new(seed: u64) -> Self {
        Network {
            attached: FxHashMap::default(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            latency: LatencyModel::default(),
            faults: FaultPlan::reliable(),
            fault_seed: seed,
            flow_counters: FxHashMap::default(),
            trace: FlowLog::new().with_payload_cap(2048),
            stats: NetStats::default(),
            seq: 0,
            payload_recycler: None,
            scratch: Actions::default(),
        }
    }

    /// Install (or remove, with `None`) a payload recycler: a plain
    /// function the fabric calls with every payload buffer it has finished
    /// with — dropped datagrams, payloads already handed to a node, stale
    /// inbox entries. Callers pass their buffer pool's release function
    /// (e.g. `dnswire::bufpool::release`); a `fn` pointer keeps simnet free
    /// of any dependency on the pool's crate. Recycling only changes where
    /// freed buffers go, never the bytes in flight, so it is invisible to
    /// traces, stats and the deterministic fingerprint.
    pub fn set_payload_recycler(&mut self, recycler: Option<fn(Vec<u8>)>) {
        self.payload_recycler = recycler;
    }

    fn recycle(&self, payload: Vec<u8>) {
        if let Some(f) = self.payload_recycler {
            f(payload);
        }
    }

    /// Does nothing. The fabric counts every datagram once, in
    /// [`NetStats`], and holds no hub; callers publish those counts with
    /// [`FabricMetrics::publish`]. Kept so existing callers compile; the
    /// only argument it can take is `None`.
    pub fn set_obs(&mut self, _obs: Option<FabricMetrics>) {}

    /// Replace the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plan currently in force.
    pub fn faults(&self) -> FaultPlan {
        self.faults
    }

    /// Swap the fault plan mid-run. The measurement pipeline uses this to
    /// confine loss to the scan phase: the scanner crosses the hostile
    /// simulated Internet while the sandbox phase observes malware on a
    /// local, reliable segment.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Replace the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Fold another fabric's counters into this one's, field by field.
    /// Used to account shard-replica traffic against the parent fabric.
    pub fn absorb_stats(&mut self, other: NetStats) {
        self.stats += other;
    }

    /// The latency model in force.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Fabric counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Attach a node at `ip`.
    ///
    /// # Panics
    /// Panics if a node or external registration already occupies `ip` —
    /// address collisions are a world-construction bug.
    pub fn add_node(&mut self, ip: Ipv4Addr, node: Box<dyn Node>) {
        match self.attached.entry(ip) {
            Entry::Vacant(slot) => {
                slot.insert(Attached::Node(node));
            }
            Entry::Occupied(slot) => match slot.get() {
                Attached::Node(_) => panic!("duplicate node at {ip}"),
                Attached::Inbox(_) => panic!("ip {ip} already registered as external"),
            },
        }
    }

    /// Detach the node at `ip`, if one is attached. Datagrams still in
    /// flight to it find no route: settle first.
    pub fn remove_node(&mut self, ip: Ipv4Addr) {
        if let Some(Attached::Node(_)) = self.attached.get(&ip) {
            self.attached.remove(&ip);
        }
    }

    /// True if some node is attached at `ip`.
    pub fn has_node(&self, ip: Ipv4Addr) -> bool {
        matches!(self.attached.get(&ip), Some(Attached::Node(_)))
    }

    /// Register an external endpoint: datagrams addressed to `ip` are
    /// queued in an inbox instead of requiring a node. Idempotent.
    pub fn register_external(&mut self, ip: Ipv4Addr) {
        self.inbox(ip);
    }

    /// The inbox of `ip`, registered on first use.
    fn inbox(&mut self, ip: Ipv4Addr) -> &mut Vec<Datagram> {
        match self
            .attached
            .entry(ip)
            .or_insert_with(|| Attached::Inbox(Vec::new()))
        {
            Attached::Inbox(inbox) => inbox,
            Attached::Node(_) => panic!("ip {ip} already has a node"),
        }
    }

    /// Empty the inbox of `ip` in place (it keeps its capacity for the next
    /// delivery), returning the payload of the first datagram `wanted`
    /// accepts and recycling every other one.
    fn drain_inbox(&mut self, ip: Ipv4Addr, wanted: impl Fn(&Datagram) -> bool) -> Option<Vec<u8>> {
        let recycler = self.payload_recycler;
        let mut found = None;
        let Some(Attached::Inbox(inbox)) = self.attached.get_mut(&ip) else {
            return None;
        };
        for d in inbox.drain(..) {
            if found.is_none() && wanted(&d) {
                found = Some(d.payload);
            } else if let Some(recycle) = recycler {
                recycle(d.payload);
            }
        }
        found
    }

    /// One fault decision, derived from the fabric seed, the `(src, dst)`
    /// pair, and that flow's own datagram counter — independent of every
    /// other flow's traffic volume. A plan that cannot fault decides a
    /// clean delivery and counts no flow.
    fn decide_fate(&mut self, dgram: &Datagram) -> FaultDecision {
        if self.faults == FaultPlan::reliable() {
            return CLEAN;
        }
        let ctr = self
            .flow_counters
            .entry((dgram.src.ip, dgram.dst.ip))
            .or_insert(0);
        let nth = *ctr;
        *ctr += 1;
        let mut h = self.fault_seed ^ 0x9E37_79B9_7F4A_7C15;
        h = h
            .wrapping_add(u64::from(u32::from(dgram.src.ip)))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h
            .wrapping_add(u64::from(u32::from(dgram.dst.ip)))
            .wrapping_mul(0x94D0_49BB_1331_11EB);
        h = h.wrapping_add(nth).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        let mut draws = FlowDraws {
            seed: h,
            drawn: false,
            rng: None,
        };
        self.faults.decide(&mut draws, dgram.payload.len())
    }

    /// Hand a datagram to the fabric: decide its fate and queue it.
    fn send(&mut self, dgram: Datagram) {
        let (fate, at) = self.launch(&dgram);
        self.enqueue_decided(dgram, fate, at);
    }

    /// Count `dgram` as sent and decide its fate: the fate, and when it
    /// arrives if it is delivered.
    fn launch(&mut self, dgram: &Datagram) -> (FaultDecision, SimTime) {
        self.stats.sent += 1;
        let fate = self.decide_fate(dgram);
        (
            fate,
            self.now + self.latency.delay(dgram.src.ip, dgram.dst.ip),
        )
    }

    /// Queue (or drop) a datagram whose fate is decided, arriving `at`. A
    /// corrupted datagram's bit is flipped here, after its duplicate (which
    /// arrives intact) is copied.
    fn enqueue_decided(&mut self, mut dgram: Datagram, fate: FaultDecision, at: SimTime) {
        match fate {
            FaultDecision::Drop => {
                self.trace.record(self.now, &dgram, Disposition::Dropped);
                self.stats.dropped += 1;
                self.recycle(dgram.payload);
            }
            FaultDecision::Deliver { corrupt, duplicate } => {
                if duplicate {
                    self.stats.duplicated += 1;
                    let copy = dgram.clone();
                    self.push_event(
                        at + SimDuration::from_micros(50),
                        EventKind::Deliver {
                            dgram: copy,
                            corrupt: false,
                        },
                    );
                }
                if let Some(bit) = corrupt {
                    dgram.payload[bit / 8] ^= 1 << (bit % 8);
                }
                self.push_event(
                    at,
                    EventKind::Deliver {
                        dgram,
                        corrupt: corrupt.is_some(),
                    },
                );
            }
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            kind,
        }));
    }

    /// Process events with timestamps `<= deadline`. Returns events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Process a single event. Returns false when the queue is empty.
    pub(crate) fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.stats.events += 1;
        match ev.kind {
            EventKind::Deliver { dgram, corrupt } => {
                if corrupt {
                    self.stats.corrupted += 1;
                }
                let attached = self.attached.get_mut(&dgram.dst.ip);
                let disposition = match &attached {
                    Some(Attached::Node(_)) if corrupt => Disposition::Corrupted,
                    Some(_) => Disposition::Delivered,
                    None => Disposition::NoRoute,
                };
                self.trace.record(self.now, &dgram, disposition);
                match disposition {
                    Disposition::NoRoute => self.stats.no_route += 1,
                    _ => {
                        self.stats.delivered += 1;
                        self.stats.bytes_delivered += dgram.payload.len() as u64;
                    }
                }
                match attached {
                    Some(Attached::Node(node)) => {
                        let mut out = std::mem::take(&mut self.scratch);
                        node.handle(self.now, &dgram, &mut out);
                        self.apply_actions(&mut out, dgram.dst.ip);
                        self.scratch = out;
                        self.recycle(dgram.payload);
                    }
                    Some(Attached::Inbox(inbox)) => inbox.push(dgram),
                    None => self.recycle(dgram.payload),
                }
            }
            EventKind::Timer { node, token } => {
                if let Some(Attached::Node(n)) = self.attached.get_mut(&node) {
                    let mut out = std::mem::take(&mut self.scratch);
                    n.on_timer(self.now, token, &mut out);
                    self.apply_actions(&mut out, node);
                    self.scratch = out;
                }
            }
        }
        true
    }

    /// Perform what a handler asked for, leaving `out` empty.
    fn apply_actions(&mut self, out: &mut Actions, origin: Ipv4Addr) {
        for dgram in out.sends.drain(..) {
            self.send(dgram);
        }
        for (delay, token) in out.timers.drain(..) {
            let at = self.now + delay;
            self.push_event(
                at,
                EventKind::Timer {
                    node: origin,
                    token,
                },
            );
        }
    }

    /// Request/response helper: send `payload` from external endpoint `src`
    /// to `dst` and run the simulation until a reply reaches `src` or the
    /// timeout elapses. Returns the reply payload.
    ///
    /// This is the path the measurement scanner uses for every probe: real
    /// wire bytes, real latency, real fault injection.
    ///
    /// On a fabric with nothing queued the exchange runs in place, without
    /// the event heap; either way its outcome, clock, counts and capture
    /// are those of the event loop.
    pub fn rpc(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        proto: crate::node::Proto,
        payload: Vec<u8>,
        timeout: SimDuration,
    ) -> Option<Vec<u8>> {
        // Drain any stale datagrams from previous exchanges.
        let recycler = self.payload_recycler;
        for stale in self.inbox(src.ip).drain(..) {
            if let Some(recycle) = recycler {
                recycle(stale.payload);
            }
        }
        let deadline = self.now + timeout;
        let query = Datagram {
            src,
            dst,
            proto,
            payload,
        };
        if self.queue.is_empty() {
            if let ControlFlow::Break(reply) = self.exchange_direct(query, deadline) {
                return reply;
            }
        } else {
            self.send(query);
        }
        loop {
            if !matches!(self.queue.peek(), Some(Reverse(ev)) if ev.at <= deadline) {
                self.now = deadline;
                return None;
            }
            self.step();
            let reply = self.drain_inbox(src.ip, |d| d.dst == src);
            if reply.is_some() {
                return reply;
            }
        }
    }

    /// An exchange on a fabric with nothing queued, without the event
    /// heap: the query's delivery, the node's `handle` and the reply's
    /// delivery into the asker run in place, with the event loop's fault
    /// decisions, sequence numbers, counts, capture and clock.
    ///
    /// `Break` carries the reply. `Continue` hands the rest to the event
    /// loop, with everything queued (or dropped) that the loop would have
    /// queued by then: a query to an address with no node, a fate other
    /// than a clean delivery, an arrival past `deadline` (which stays
    /// queued as a stale reply), or a handler that arms a timer or sends
    /// anything but one datagram back to the asker.
    fn exchange_direct(
        &mut self,
        query: Datagram,
        deadline: SimTime,
    ) -> ControlFlow<Option<Vec<u8>>> {
        let asker = query.src;
        let (fate, at) = self.launch(&query);
        let node = match self.attached.get_mut(&query.dst.ip) {
            Some(Attached::Node(node)) if fate == CLEAN && at <= deadline => node,
            _ => {
                self.enqueue_decided(query, fate, at);
                return ControlFlow::Continue(());
            }
        };
        // A node reads nothing of the fabric, so its arrival is counted
        // once it has handled the query.
        let mut out = std::mem::take(&mut self.scratch);
        node.handle(at, &query, &mut out);
        self.arrive(at, &query);
        let flow = match (out.sends.as_slice(), out.timers.as_slice()) {
            ([only], []) if only.dst == asker => {
                let reply = out.sends.pop().expect("one reply");
                let (fate, at) = self.launch(&reply);
                if fate == CLEAN && at <= deadline {
                    // The asker's address holds its inbox.
                    self.arrive(at, &reply);
                    ControlFlow::Break(Some(reply.payload))
                } else {
                    self.enqueue_decided(reply, fate, at);
                    ControlFlow::Continue(())
                }
            }
            _ => {
                self.apply_actions(&mut out, query.dst.ip);
                ControlFlow::Continue(())
            }
        };
        self.scratch = out;
        self.recycle(query.payload);
        flow
    }

    /// The delivery of `dgram` at `at`, counted and captured as
    /// [`Network::step`] counts and captures the event it would have been.
    fn arrive(&mut self, at: SimTime, dgram: &Datagram) {
        self.seq += 1;
        self.now = at;
        self.stats.events += 1;
        self.trace.record(at, dgram, Disposition::Delivered);
        self.stats.delivered += 1;
        self.stats.bytes_delivered += dgram.payload.len() as u64;
    }

    /// Run every queued event. Useful in tests that must observe a settled
    /// world.
    pub fn settle(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Proto;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Drain the inbox of an external endpoint.
    fn take_inbox(net: &mut Network, ip: Ipv4Addr) -> Vec<Datagram> {
        match net.attached.get_mut(&ip) {
            Some(Attached::Inbox(inbox)) => std::mem::take(inbox),
            _ => Vec::new(),
        }
    }

    #[test]
    fn net_stats_sum_covers_every_field() {
        let one = NetStats {
            sent: 1,
            duplicated: 2,
            delivered: 3,
            dropped: 4,
            corrupted: 5,
            no_route: 6,
            bytes_delivered: 7,
            events: 8,
        };
        let mut sum = one;
        sum += one;
        // Exhaustive on purpose: a new field stops this compiling until the
        // sum and this check both know it.
        let NetStats {
            sent,
            duplicated,
            delivered,
            dropped,
            corrupted,
            no_route,
            bytes_delivered,
            events,
        } = sum;
        assert_eq!(
            [
                sent,
                duplicated,
                delivered,
                dropped,
                corrupted,
                no_route,
                bytes_delivered,
                events
            ],
            [2, 4, 6, 8, 10, 12, 14, 16]
        );
        assert_eq!(sum - one, one);
        let mut net = Network::new(1);
        net.absorb_stats(one);
        assert_eq!(net.stats(), one);
        let reg = obs::MetricsRegistry::new();
        FabricMetrics::publish(&reg, one);
        FabricMetrics::publish(&reg, one);
        for (name, n) in sum.fields() {
            assert_eq!(reg.counter_value(name), Some(n), "{name}");
        }
    }

    /// Echoes every datagram back to its sender with payload reversed.
    struct Echo;
    impl Node for Echo {
        fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
            let mut p = dgram.payload.clone();
            p.reverse();
            out.send(dgram.reply(p));
        }
        fn role(&self) -> &'static str {
            "echo"
        }
    }

    /// Forwards payloads to a fixed next hop, tagging each hop.
    struct Hop {
        next: Endpoint,
    }
    impl Node for Hop {
        fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
            let mut p = dgram.payload.clone();
            p.push(b'h');
            out.send(Datagram::udp(
                Endpoint::new(dgram.dst.ip, dgram.dst.port),
                self.next,
                p,
            ));
        }
    }

    /// Counts timer firings.
    struct Ticker {
        fired: u64,
    }
    impl Node for Ticker {
        fn handle(&mut self, _now: SimTime, _dgram: &Datagram, out: &mut Actions) {
            out.set_timer(SimDuration::from_secs(1), 7);
        }
        fn on_timer(&mut self, _now: SimTime, token: u64, out: &mut Actions) {
            assert_eq!(token, 7);
            self.fired += 1;
            if self.fired < 3 {
                out.set_timer(SimDuration::from_secs(1), 7);
            }
        }
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn rpc_roundtrip() {
        let mut net = Network::new(1);
        net.add_node(ip(2), Box::new(Echo));
        let reply = net
            .rpc(
                Endpoint::new(ip(1), 40000),
                Endpoint::new(ip(2), 53),
                Proto::Udp,
                vec![1, 2, 3],
                SimDuration::from_secs(5),
            )
            .unwrap();
        assert_eq!(reply, vec![3, 2, 1]);
        assert!(net.now() > SimTime::ZERO);
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn rpc_times_out_without_listener() {
        let mut net = Network::new(1);
        let reply = net.rpc(
            Endpoint::new(ip(1), 40000),
            Endpoint::new(ip(9), 53),
            Proto::Udp,
            vec![0],
            SimDuration::from_secs(2),
        );
        assert!(reply.is_none());
        assert_eq!(net.stats().no_route, 1);
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_secs(2));
    }

    #[test]
    fn rpc_times_out_under_full_loss() {
        let mut net = Network::new(1).with_faults(FaultPlan::lossy(1.0));
        net.add_node(ip(2), Box::new(Echo));
        let reply = net.rpc(
            Endpoint::new(ip(1), 40000),
            Endpoint::new(ip(2), 53),
            Proto::Udp,
            vec![0],
            SimDuration::from_secs(2),
        );
        assert!(reply.is_none());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn multi_hop_forwarding() {
        let mut net = Network::new(1);
        net.add_node(
            ip(2),
            Box::new(Hop {
                next: Endpoint::new(ip(3), 53),
            }),
        );
        net.add_node(
            ip(3),
            Box::new(Hop {
                next: Endpoint::new(ip(4), 99),
            }),
        );
        net.register_external(ip(4));
        net.send(Datagram::udp(
            Endpoint::new(ip(1), 1),
            Endpoint::new(ip(2), 53),
            vec![b'x'],
        ));
        net.settle();
        let got = take_inbox(&mut net, ip(4));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"xhh");
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net = Network::new(1);
        net.add_node(ip(2), Box::new(Ticker { fired: 0 }));
        net.send(Datagram::udp(
            Endpoint::new(ip(1), 1),
            Endpoint::new(ip(2), 1),
            vec![],
        ));
        net.settle();
        assert!(net.now() >= SimTime::ZERO + SimDuration::from_secs(3));
        // 1 delivery + 3 timer events
        assert_eq!(net.stats().events, 4);
    }

    #[test]
    fn latency_is_stable_per_pair() {
        let m = LatencyModel::default();
        let d1 = m.delay(ip(1), ip(2));
        let d2 = m.delay(ip(1), ip(2));
        assert_eq!(d1, d2);
        assert!(d1 >= m.base);
        // different pairs usually differ
        assert_ne!(m.delay(ip(1), ip(2)), m.delay(ip(1), ip(3)));
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut net = Network::new(seed).with_faults(FaultPlan {
                drop_chance: 0.2,
                corrupt_chance: 0.2,
                duplicate_chance: 0.1,
                ..FaultPlan::default()
            });
            net.add_node(ip(2), Box::new(Echo));
            for i in 0..20u8 {
                net.send(Datagram::udp(
                    Endpoint::new(ip(1), 1000 + i as u16),
                    Endpoint::new(ip(2), 53),
                    vec![i; 16],
                ));
            }
            net.register_external(ip(1));
            net.settle();
            (net.stats(), net.trace.len())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0.events, 0);
    }

    #[test]
    fn corruption_mutates_payload() {
        let mut net = Network::new(3).with_faults(FaultPlan {
            corrupt_chance: 1.0,
            ..FaultPlan::default()
        });
        net.register_external(ip(4));
        net.send(Datagram::udp(
            Endpoint::new(ip(1), 1),
            Endpoint::new(ip(4), 1),
            vec![0u8; 8],
        ));
        net.settle();
        let got = take_inbox(&mut net, ip(4));
        assert_eq!(got.len(), 1);
        assert_ne!(got[0].payload, vec![0u8; 8]);
        assert_eq!(net.stats().corrupted, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn duplicate_node_panics() {
        let mut net = Network::new(1);
        net.add_node(ip(2), Box::new(Echo));
        net.add_node(ip(2), Box::new(Echo));
    }

    #[test]
    fn set_faults_switches_mid_run() {
        let mut net = Network::new(1);
        net.register_external(ip(4));
        assert_eq!(net.faults(), FaultPlan::reliable());
        net.set_faults(FaultPlan::lossy(1.0));
        net.send(Datagram::udp(
            Endpoint::new(ip(1), 1),
            Endpoint::new(ip(4), 1),
            vec![1],
        ));
        net.settle();
        assert_eq!(net.stats().dropped, 1);
        net.set_faults(FaultPlan::reliable());
        net.send(Datagram::udp(
            Endpoint::new(ip(1), 1),
            Endpoint::new(ip(4), 1),
            vec![2],
        ));
        net.settle();
        assert_eq!(take_inbox(&mut net, ip(4)).len(), 1);
    }

    /// One flow's fate sequence must not depend on how much traffic other
    /// flows push in between.
    fn per_flow_fates(seed: u64, interleave: usize) -> Vec<bool> {
        let mut net = Network::new(seed).with_faults(FaultPlan::lossy(0.5));
        net.register_external(ip(4));
        net.register_external(ip(5));
        let mut delivered_before = 0;
        let mut fates = Vec::new();
        for i in 0..30u8 {
            for _ in 0..interleave {
                net.send(Datagram::udp(
                    Endpoint::new(ip(2), 9),
                    Endpoint::new(ip(5), 9),
                    vec![0xEE],
                ));
            }
            net.send(Datagram::udp(
                Endpoint::new(ip(1), 1),
                Endpoint::new(ip(4), 1),
                vec![i],
            ));
            net.settle();
            let now = take_inbox(&mut net, ip(4)).len();
            fates.push(now > delivered_before || now > 0);
            delivered_before = now;
            take_inbox(&mut net, ip(4));
            take_inbox(&mut net, ip(5));
        }
        fates
    }

    #[test]
    fn per_flow_fates_ignore_cross_traffic() {
        assert_eq!(per_flow_fates(11, 0), per_flow_fates(11, 3));
        // ...but still depend on the fabric seed.
        assert_ne!(per_flow_fates(11, 0), per_flow_fates(12, 0));
    }

    /// The bytes one flow receives when every datagram is corrupted, with
    /// `interleave` corrupted datagrams of another flow before each of its
    /// own.
    fn corrupted_flow(interleave: usize) -> Vec<Vec<u8>> {
        let mut net = Network::new(11).with_faults(FaultPlan {
            corrupt_chance: 1.0,
            ..FaultPlan::default()
        });
        net.register_external(ip(4));
        net.register_external(ip(5));
        let mut received = Vec::new();
        for i in 0..30u8 {
            for _ in 0..interleave {
                net.send(Datagram::udp(
                    Endpoint::new(ip(2), 9),
                    Endpoint::new(ip(5), 9),
                    vec![0xEE; 16],
                ));
            }
            net.send(Datagram::udp(
                Endpoint::new(ip(1), 1),
                Endpoint::new(ip(4), 1),
                vec![i; 16],
            ));
            net.settle();
            received.extend(take_inbox(&mut net, ip(4)).into_iter().map(|d| d.payload));
            take_inbox(&mut net, ip(5));
        }
        assert_eq!(net.stats().corrupted, 30 * (1 + interleave as u64));
        received
    }

    #[test]
    fn a_flows_corruption_ignores_cross_traffic() {
        let alone = corrupted_flow(0);
        assert_eq!(alone.len(), 30);
        assert!(alone.iter().zip(0..).all(|(p, i)| p != &[i; 16]));
        assert_eq!(alone, corrupted_flow(3));
    }

    #[test]
    fn per_flow_retransmission_draws_fresh_fate() {
        // drop_chance 0.5: across 64 datagrams of one flow both fates must
        // occur, i.e. the per-flow counter really advances the decision.
        let mut net = Network::new(7).with_faults(FaultPlan::lossy(0.5));
        net.register_external(ip(4));
        for i in 0..64u8 {
            net.send(Datagram::udp(
                Endpoint::new(ip(1), 1),
                Endpoint::new(ip(4), 1),
                vec![i],
            ));
        }
        net.settle();
        let got = take_inbox(&mut net, ip(4)).len();
        assert!(got > 0 && got < 64, "delivered {got}/64");
        assert_eq!(net.stats().dropped as usize, 64 - got);
    }

    #[test]
    fn net_stats_balance_every_fate() {
        // Every datagram handed to the fabric, plus every injected copy,
        // ends in exactly one of delivered, dropped or unroutable.
        let mut net = Network::new(42).with_faults(FaultPlan {
            drop_chance: 0.3,
            corrupt_chance: 0.2,
            duplicate_chance: 0.1,
            ..FaultPlan::default()
        });
        net.add_node(ip(2), Box::new(Echo));
        net.register_external(ip(1));
        for i in 0..40u8 {
            net.send(Datagram::udp(
                Endpoint::new(ip(1), 1000 + i as u16),
                Endpoint::new(ip(i % 4 + 2), 53),
                vec![i; 16],
            ));
        }
        net.settle();
        let s = net.stats();
        assert!(
            s.dropped > 0 && s.duplicated > 0 && s.corrupted > 0 && s.no_route > 0,
            "{s:?}"
        );
        assert_eq!(s.sent + s.duplicated, s.delivered + s.dropped + s.no_route);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net = Network::new(1);
        net.add_node(ip(2), Box::new(Ticker { fired: 0 }));
        net.send(Datagram::udp(
            Endpoint::new(ip(1), 1),
            Endpoint::new(ip(2), 1),
            vec![],
        ));
        // Only the delivery plus the first timer (at ~1s) fit in 1.2s.
        net.run_until(SimTime::ZERO + SimDuration::from_millis(1200));
        assert!(net.stats().events <= 2);
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(1200));
    }

    /// Answers each datagram with the next step of its script: reply,
    /// stay silent, reply twice, reply to another port of the asker, or
    /// reply and arm a timer that sends the reply once more when it fires.
    struct Scripted {
        script: Vec<u8>,
        next: usize,
        last: Option<Datagram>,
    }

    impl Scripted {
        fn new(script: &[u8]) -> Box<Self> {
            Box::new(Scripted {
                script: script.to_vec(),
                next: 0,
                last: None,
            })
        }
    }

    impl Node for Scripted {
        fn handle(&mut self, _now: SimTime, dgram: &Datagram, out: &mut Actions) {
            let step = self.script[self.next % self.script.len()];
            self.next += 1;
            let mut payload = dgram.payload.clone();
            payload.reverse();
            let reply = dgram.reply(payload);
            match step % 5 {
                0 => out.send(reply),
                1 => {}
                2 => {
                    out.send(reply.clone());
                    out.send(reply);
                }
                3 => out.send(Datagram {
                    dst: Endpoint::new(reply.dst.ip, reply.dst.port ^ 1),
                    ..reply
                }),
                _ => {
                    out.set_timer(SimDuration::from_millis(u64::from(step)), 0);
                    out.send(reply.clone());
                    self.last = Some(reply);
                }
            }
        }

        fn on_timer(&mut self, _now: SimTime, _token: u64, out: &mut Actions) {
            out.send(self.last.clone().expect("armed beside a reply"));
        }
    }

    /// Cases of the exchange property: more in release, where `ci.sh`
    /// runs it beside the invariance fault matrix.
    const DIRECT_CASES: u32 = if cfg!(debug_assertions) { 96 } else { 16_384 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(DIRECT_CASES))]

        /// An exchange on an idle fabric runs in place, and the same
        /// exchange on a fabric holding one far-future event runs through
        /// the heap: the two give the same reply, clock, counts and
        /// capture, exchange after exchange, stale replies included.
        #[test]
        fn a_direct_exchange_is_the_event_loops(
            seed in any::<u64>(),
            fates in (0usize..4, 0usize..3, 0usize..3, 0usize..3),
            scripts in (
                vec(any::<u8>(), 1..6),
                vec(any::<u8>(), 1..6),
            ),
            exchanges in vec(
                (0u8..4, 1u64..400, vec(any::<u8>(), 0..48)),
                1..16,
            ),
        ) {
            let (drop, corrupt, duplicate, size) = fates;
            let plan = FaultPlan {
                drop_chance: [0.0, 0.1, 0.3, 1.0][drop],
                corrupt_chance: [0.0, 0.2, 1.0][corrupt],
                duplicate_chance: [0.0, 0.2, 1.0][duplicate],
                size_limit: [0, 0, 32][size],
            };
            let fabric = || {
                let mut net = Network::new(seed).with_faults(plan);
                net.add_node(ip(2), Scripted::new(&scripts.0));
                net.add_node(ip(3), Scripted::new(&scripts.1));
                net.register_external(ip(4));
                net
            };
            let (mut direct, mut queued) = (fabric(), fabric());
            // Never due within the exchanges below: every one of them
            // runs through the heap.
            queued.push_event(
                SimTime::ZERO + SimDuration::from_secs(1 << 32),
                EventKind::Timer { node: ip(9), token: 0 },
            );
            for (k, (to, timeout_ms, payload)) in exchanges.into_iter().enumerate() {
                // Two nodes, an external inbox, an address with nothing.
                let dst = Endpoint::new(ip(2 + to), 53);
                let asker = Endpoint::new(ip(1), 40_000 + (k % 2) as u16);
                let timeout = SimDuration::from_millis(timeout_ms);
                let a = direct.rpc(asker, dst, Proto::Udp, payload.clone(), timeout);
                let b = queued.rpc(asker, dst, Proto::Udp, payload, timeout);
                prop_assert!(a == b, "exchange {k}: {a:?} != {b:?}");
                prop_assert_eq!(direct.now(), queued.now());
                prop_assert_eq!(direct.stats(), queued.stats());
                prop_assert!(direct.trace.records() == queued.trace.records(), "exchange {k}: capture");
            }
        }
    }
}
