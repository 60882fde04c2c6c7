//! The event-driven network fabric: owns nodes, the event queue, the
//! latency model, fault injection and the traffic capture.

use crate::fault::{FaultDecision, FaultPlan};
use crate::node::{Actions, Datagram, Endpoint, Node};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Disposition, FlowLog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;

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
    /// Zero-latency model (events still order deterministically by seq).
    pub fn instant() -> Self {
        LatencyModel {
            base: SimDuration::ZERO,
            per_pair_spread_us: 0,
        }
    }

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

/// Aggregate fabric counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
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

impl std::ops::AddAssign for NetStats {
    /// Field-by-field sum. `rhs` is destructured exhaustively, so a field
    /// added to [`NetStats`] fails to compile here until it is summed.
    fn add_assign(&mut self, rhs: NetStats) {
        let NetStats {
            delivered,
            dropped,
            corrupted,
            no_route,
            bytes_delivered,
            events,
        } = rhs;
        self.delivered += delivered;
        self.dropped += dropped;
        self.corrupted += corrupted;
        self.no_route += no_route;
        self.bytes_delivered += bytes_delivered;
        self.events += events;
    }
}

/// Live fabric counters mirrored into an [`obs`] registry, updated on the
/// same code paths as [`NetStats`]. Every counter is [`obs::Class::Sim`]:
/// the fabric is single-threaded and seeded, so datagram fates are part of
/// the deterministic fingerprint of a run.
#[derive(Debug, Clone)]
pub struct FabricMetrics {
    sent: obs::Counter,
    delivered: obs::Counter,
    dropped: obs::Counter,
    corrupted: obs::Counter,
    duplicated: obs::Counter,
    no_route: obs::Counter,
    bytes_delivered: obs::Counter,
    events: obs::Counter,
}

impl FabricMetrics {
    /// Register the `net_*` counter family in `reg` and return the handle
    /// bundle to attach with [`Network::set_obs`]. Idempotent: a second
    /// registration returns handles to the same counters, so engines that
    /// are rebuilt mid-run keep accumulating into one family.
    pub fn register(reg: &obs::MetricsRegistry) -> Self {
        use obs::Class::Sim;
        FabricMetrics {
            sent: reg.counter("net_sent", Sim),
            delivered: reg.counter("net_delivered", Sim),
            dropped: reg.counter("net_dropped", Sim),
            corrupted: reg.counter("net_corrupted", Sim),
            duplicated: reg.counter("net_duplicated", Sim),
            no_route: reg.counter("net_no_route", Sim),
            bytes_delivered: reg.counter("net_bytes_delivered", Sim),
            events: reg.counter("net_events", Sim),
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

/// The simulated network.
///
/// Single-threaded and fully deterministic: given the same seed, node set
/// and injected traffic, every run produces identical event orderings,
/// traces and statistics.
pub struct Network {
    nodes: HashMap<Ipv4Addr, Box<dyn Node>>,
    external: HashMap<Ipv4Addr, Vec<Datagram>>,
    queue: BinaryHeap<Reverse<Event>>,
    now: SimTime,
    latency: LatencyModel,
    faults: FaultPlan,
    rng: StdRng,
    /// Seed for per-flow fault scheduling (see [`FaultPlan::per_flow`]).
    fault_seed: u64,
    /// Per-`(src, dst)` datagram counters driving per-flow fault decisions.
    flow_counters: HashMap<(Ipv4Addr, Ipv4Addr), u64>,
    /// Traffic capture; enabled by default.
    pub trace: FlowLog,
    stats: NetStats,
    obs: Option<FabricMetrics>,
    seq: u64,
    /// Hook returning consumed datagram payloads to the caller's buffer
    /// pool (see [`Network::set_payload_recycler`]).
    payload_recycler: Option<fn(Vec<u8>)>,
    /// The `Actions` handed to every handler: drained after each call, so
    /// its vectors are allocated once per fabric, not once per delivery.
    scratch: Actions,
}

impl Network {
    /// Create a fabric with the given RNG seed, default latency model, no
    /// faults, and capture enabled.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: HashMap::new(),
            external: HashMap::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            latency: LatencyModel::default(),
            faults: FaultPlan::reliable(),
            rng: StdRng::seed_from_u64(seed),
            fault_seed: seed,
            flow_counters: HashMap::new(),
            trace: FlowLog::new().with_payload_cap(2048),
            stats: NetStats::default(),
            obs: None,
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

    /// Attach (or detach, with `None`) a live metrics mirror. Disabled by
    /// default; the cost when detached is one branch per counter update.
    pub fn set_obs(&mut self, obs: Option<FabricMetrics>) {
        self.obs = obs;
    }

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

    /// Reseed only the fabric's general RNG, leaving the per-flow fault
    /// seed untouched.
    ///
    /// Shard replicas of one world use this: every shard keeps the world's
    /// `fault_seed` so per-flow fates stay identical regardless of which
    /// shard carries a flow, while each shard's general RNG (non-per-flow
    /// fault draws, corruption bit picks) gets its own derived stream.
    pub fn with_rng_seed(mut self, rng_seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(rng_seed);
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
        assert!(
            !self.external.contains_key(&ip),
            "ip {ip} already registered as external"
        );
        let prev = self.nodes.insert(ip, node);
        assert!(prev.is_none(), "duplicate node at {ip}");
    }

    /// True if some node is attached at `ip`.
    pub fn has_node(&self, ip: Ipv4Addr) -> bool {
        self.nodes.contains_key(&ip)
    }

    /// Register an external endpoint: datagrams addressed to `ip` are
    /// queued in an inbox instead of requiring a node. Idempotent.
    pub fn register_external(&mut self, ip: Ipv4Addr) {
        assert!(!self.nodes.contains_key(&ip), "ip {ip} already has a node");
        self.external.entry(ip).or_default();
    }

    /// Drain the inbox of an external endpoint.
    pub fn take_inbox(&mut self, ip: Ipv4Addr) -> Vec<Datagram> {
        self.external
            .get_mut(&ip)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Empty the inbox of `ip` in place (it keeps its capacity for the next
    /// delivery), returning the payload of the first datagram `wanted`
    /// accepts and recycling every other one.
    fn drain_inbox(&mut self, ip: Ipv4Addr, wanted: impl Fn(&Datagram) -> bool) -> Option<Vec<u8>> {
        let recycler = self.payload_recycler;
        let mut found = None;
        for d in self.external.get_mut(&ip)?.drain(..) {
            if found.is_none() && wanted(&d) {
                found = Some(d.payload);
            } else if let Some(recycle) = recycler {
                recycle(d.payload);
            }
        }
        found
    }

    /// Inject a datagram into the fabric (from an external sender).
    pub fn send(&mut self, dgram: Datagram) {
        self.enqueue_send(SimDuration::ZERO, dgram);
    }

    /// One fault decision. In per-flow mode the decision derives from the
    /// fabric seed, the `(src, dst)` pair, and that flow's own datagram
    /// counter — independent of every other flow's traffic volume.
    fn decide_fate(&mut self, dgram: &Datagram) -> FaultDecision {
        if !self.faults.per_flow {
            return self.faults.decide(&mut self.rng, dgram.payload.len());
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
        let mut rng = StdRng::seed_from_u64(h);
        self.faults.decide(&mut rng, dgram.payload.len())
    }

    fn enqueue_send(&mut self, extra_delay: SimDuration, dgram: Datagram) {
        if let Some(m) = &self.obs {
            m.sent.inc();
        }
        match self.decide_fate(&dgram) {
            FaultDecision::Drop => {
                self.trace.record(self.now, &dgram, Disposition::Dropped);
                self.stats.dropped += 1;
                if let Some(m) = &self.obs {
                    m.dropped.inc();
                }
                self.recycle(dgram.payload);
            }
            FaultDecision::Deliver { corrupt, duplicate } => {
                let delay = extra_delay + self.latency.delay(dgram.src.ip, dgram.dst.ip);
                if duplicate {
                    if let Some(m) = &self.obs {
                        m.duplicated.inc();
                    }
                    let copy = dgram.clone();
                    let at = self.now + delay + SimDuration::from_micros(50);
                    self.push_event(
                        at,
                        EventKind::Deliver {
                            dgram: copy,
                            corrupt: false,
                        },
                    );
                }
                let at = self.now + delay;
                self.push_event(at, EventKind::Deliver { dgram, corrupt });
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

    /// Process events until the queue is empty or `max_events` is reached.
    /// Returns the number of events processed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            if !self.step() {
                break;
            }
            n += 1;
        }
        n
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
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.stats.events += 1;
        if let Some(m) = &self.obs {
            m.events.inc();
        }
        match ev.kind {
            EventKind::Deliver { mut dgram, corrupt } => {
                if corrupt {
                    FaultPlan::corrupt(&mut self.rng, &mut dgram.payload);
                    self.stats.corrupted += 1;
                    if let Some(m) = &self.obs {
                        m.corrupted.inc();
                    }
                }
                let disposition = if self.nodes.contains_key(&dgram.dst.ip) {
                    if corrupt {
                        Disposition::Corrupted
                    } else {
                        Disposition::Delivered
                    }
                } else if self.external.contains_key(&dgram.dst.ip) {
                    Disposition::Delivered
                } else {
                    Disposition::NoRoute
                };
                self.trace.record(self.now, &dgram, disposition);
                match disposition {
                    Disposition::NoRoute => {
                        self.stats.no_route += 1;
                        if let Some(m) = &self.obs {
                            m.no_route.inc();
                        }
                    }
                    _ => {
                        self.stats.delivered += 1;
                        self.stats.bytes_delivered += dgram.payload.len() as u64;
                        if let Some(m) = &self.obs {
                            m.delivered.inc();
                            m.bytes_delivered.add(dgram.payload.len() as u64);
                        }
                    }
                }
                if let Some(node) = self.nodes.get_mut(&dgram.dst.ip) {
                    let mut out = std::mem::take(&mut self.scratch);
                    node.handle(self.now, &dgram, &mut out);
                    self.apply_actions(&mut out, dgram.dst.ip);
                    self.scratch = out;
                    self.recycle(dgram.payload);
                } else if let Some(inbox) = self.external.get_mut(&dgram.dst.ip) {
                    inbox.push(dgram);
                } else {
                    self.recycle(dgram.payload);
                }
            }
            EventKind::Timer { node, token } => {
                if let Some(n) = self.nodes.get_mut(&node) {
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
        for (delay, dgram) in out.sends.drain(..) {
            self.enqueue_send(delay, dgram);
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
    pub fn rpc(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        proto: crate::node::Proto,
        payload: Vec<u8>,
        timeout: SimDuration,
    ) -> Option<Vec<u8>> {
        if !self.external.contains_key(&src.ip) {
            self.register_external(src.ip);
        }
        // Drain any stale datagrams from previous exchanges.
        self.drain_inbox(src.ip, |_| false);
        let deadline = self.now + timeout;
        self.send(Datagram {
            src,
            dst,
            proto,
            payload,
        });
        loop {
            let next_at = match self.queue.peek() {
                Some(Reverse(ev)) if ev.at <= deadline => ev.at,
                _ => {
                    self.now = deadline;
                    return None;
                }
            };
            let _ = next_at;
            self.step();
            let reply = self.drain_inbox(src.ip, |d| d.dst == src);
            if reply.is_some() {
                return reply;
            }
        }
    }

    /// Run every queued event (bounded), then assert quiescence. Useful in
    /// tests that must observe a settled world.
    pub fn settle(&mut self) {
        self.run_until_idle(u64::MAX);
        debug_assert!(self.queue.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Proto;

    #[test]
    fn net_stats_sum_covers_every_field() {
        let one = NetStats {
            delivered: 1,
            dropped: 2,
            corrupted: 3,
            no_route: 4,
            bytes_delivered: 5,
            events: 6,
        };
        let mut sum = one;
        sum += one;
        // Exhaustive on purpose: a new field stops this compiling until the
        // sum and this check both know it.
        let NetStats {
            delivered,
            dropped,
            corrupted,
            no_route,
            bytes_delivered,
            events,
        } = sum;
        assert_eq!(
            [
                delivered,
                dropped,
                corrupted,
                no_route,
                bytes_delivered,
                events
            ],
            [2, 4, 6, 8, 10, 12]
        );
        let mut net = Network::new(1);
        net.absorb_stats(one);
        assert_eq!(net.stats(), one);
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
        let got = net.take_inbox(ip(4));
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
        let got = net.take_inbox(ip(4));
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
        assert_eq!(net.take_inbox(ip(4)).len(), 1);
    }

    /// In per-flow mode, one flow's fate sequence must not depend on how
    /// much traffic other flows push in between.
    fn per_flow_fates(seed: u64, interleave: usize) -> Vec<bool> {
        let mut net = Network::new(seed).with_faults(FaultPlan::lossy(0.5).scheduled_per_flow());
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
            let now = net.take_inbox(ip(4)).len();
            fates.push(now > delivered_before || now > 0);
            delivered_before = now;
            net.take_inbox(ip(4));
            net.take_inbox(ip(5));
        }
        fates
    }

    #[test]
    fn per_flow_fates_ignore_cross_traffic() {
        assert_eq!(per_flow_fates(11, 0), per_flow_fates(11, 3));
        // ...but still depend on the fabric seed.
        assert_ne!(per_flow_fates(11, 0), per_flow_fates(12, 0));
    }

    #[test]
    fn per_flow_retransmission_draws_fresh_fate() {
        // drop_chance 0.5: across 64 datagrams of one flow both fates must
        // occur, i.e. the per-flow counter really advances the decision.
        let mut net = Network::new(7).with_faults(FaultPlan::lossy(0.5).scheduled_per_flow());
        net.register_external(ip(4));
        for i in 0..64u8 {
            net.send(Datagram::udp(
                Endpoint::new(ip(1), 1),
                Endpoint::new(ip(4), 1),
                vec![i],
            ));
        }
        net.settle();
        let got = net.take_inbox(ip(4)).len();
        assert!(got > 0 && got < 64, "delivered {got}/64");
        assert_eq!(net.stats().dropped as usize, 64 - got);
    }

    #[test]
    fn obs_mirror_matches_netstats() {
        let reg = obs::MetricsRegistry::new();
        let mut net = Network::new(42).with_faults(FaultPlan {
            drop_chance: 0.3,
            corrupt_chance: 0.2,
            duplicate_chance: 0.1,
            ..FaultPlan::default()
        });
        net.set_obs(Some(FabricMetrics::register(&reg)));
        net.add_node(ip(2), Box::new(Echo));
        net.register_external(ip(1));
        for i in 0..40u8 {
            net.send(Datagram::udp(
                Endpoint::new(ip(1), 1000 + i as u16),
                Endpoint::new(ip(2), 53),
                vec![i; 16],
            ));
        }
        net.settle();
        let s = net.stats();
        assert_ne!(s.events, 0);
        assert_eq!(reg.counter_value("net_delivered"), Some(s.delivered));
        assert_eq!(reg.counter_value("net_dropped"), Some(s.dropped));
        assert_eq!(reg.counter_value("net_corrupted"), Some(s.corrupted));
        assert_eq!(reg.counter_value("net_no_route"), Some(s.no_route));
        assert_eq!(
            reg.counter_value("net_bytes_delivered"),
            Some(s.bytes_delivered)
        );
        assert_eq!(reg.counter_value("net_events"), Some(s.events));
        // sent counts every fate decision: delivered originals + drops,
        // while duplicates add extra deliveries without a send.
        let sent = reg.counter_value("net_sent").unwrap();
        let dup = reg.counter_value("net_duplicated").unwrap();
        assert_eq!(sent + dup, s.delivered + s.dropped + s.no_route);
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
}
