//! Resilient query engine for the collection stage (§4.1 robustness).
//!
//! The paper's scan of 8,941 live nameservers crosses the hostile Internet:
//! datagrams are lost, servers stall or die, responses arrive truncated or
//! with the wrong qid. A single-shot probe turns every such incident into a
//! silent false negative. This module makes loss *measured, never silent*:
//!
//! * [`QueryPlan`] — how hard to try: attempts, per-attempt timeout, and a
//!   deterministic seeded exponential backoff (virtual clock only — a run is
//!   bit-reproducible for a given seed, no wall time involved).
//! * [`NsHealth`] — a per-nameserver consecutive-failure circuit breaker
//!   that quarantines dead servers and records them instead of hammering
//!   them (the paper's ethics stance: §7 "minimize the impact on hosting
//!   services").
//! * [`CoverageReport`] — every scheduled probe is accounted for as
//!   answered on the first try, retried-then-answered, skipped because its
//!   server was quarantined, or given up after all attempts.
//! * [`ProbeEngine`] — glues the three together around
//!   [`authdns::exchange`]; a retransmission reuses the same qid (the
//!   original may still be in flight — a late reply must match). Replies
//!   are read in place: a probe keeps the data of the answer records its
//!   caller asks for, in one buffer, and builds nothing else.
//! * [`RttEstimate`] — per-nameserver smoothed RTT (Jacobson SRTT/RTTVAR,
//!   integer microseconds on the virtual clock). With
//!   [`QueryPlan::adaptive`] the engine derives each attempt's timeout as
//!   `srtt + k·rttvar` clamped to `[min_timeout, timeout]`, so a slow
//!   server gets patience and a fast one fails over quickly — without ever
//!   cutting below the fabric's worst-case round trip (see DESIGN.md §11
//!   for the determinism argument). Servers that answer with
//!   `recursion_available` set are resolving iteratively on their own
//!   clock; their service time is unbounded by network distance, so they
//!   are never sampled and keep the fixed plan timeout.

use fxhash::{Digest, FxHashMap};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use dnswire::{Flags, Name, RDataSetRef, RecordType, RecordView};
use simnet::{Network, SimDuration};

/// Retry/backoff policy for one collection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// Total attempts per probe (first transmission + retries). Minimum 1.
    pub attempts: u32,
    /// Per-attempt timeout before the attempt counts as failed.
    pub timeout: SimDuration,
    /// Base delay before the first retry; doubles each further retry.
    pub backoff_base: SimDuration,
    /// Upper bound on any single backoff delay.
    pub backoff_max: SimDuration,
    /// Seed for the deterministic jitter mixed into each delay.
    pub backoff_seed: u64,
    /// Consecutive failures after which a nameserver is quarantined and no
    /// further probes are sent to it for the rest of the run (0 disables
    /// the circuit breaker).
    pub quarantine_threshold: u32,
    /// Derive per-server timeouts from the smoothed RTT instead of using
    /// the fixed `timeout` for every attempt. Off by default: the fixed
    /// plan is the paper-faithful baseline.
    pub adaptive: bool,
    /// Floor for any derived timeout. Must exceed the fabric's worst-case
    /// round trip or adaptivity would convert slow answers into losses;
    /// the default (250 ms) clears [`simnet::LatencyModel`]'s ~200 ms
    /// ceiling with margin.
    pub min_timeout: SimDuration,
}

impl Default for QueryPlan {
    fn default() -> Self {
        QueryPlan {
            attempts: 3,
            timeout: SimDuration::from_secs(5),
            backoff_base: SimDuration::from_millis(500),
            backoff_max: SimDuration::from_secs(8),
            backoff_seed: DEFAULT_BACKOFF_SEED,
            quarantine_threshold: 8,
            adaptive: false,
            min_timeout: SimDuration::from_millis(250),
        }
    }
}

/// The derived timeout's RTTVAR multiplier (`srtt + RTT_K·rttvar`), as in TCP's RTO.
const RTT_K: u32 = 4;

/// Default jitter seed; any fixed value works, callers override per run.
pub(crate) const DEFAULT_BACKOFF_SEED: u64 = 0x5EED_BACC_0FF5_EED5;

impl QueryPlan {
    /// Single-shot plan: exactly today's pre-retry behavior (one attempt,
    /// 5-second timeout, no breaker).
    pub fn single_shot() -> Self {
        QueryPlan {
            attempts: 1,
            quarantine_threshold: 0,
            ..QueryPlan::default()
        }
    }

    /// Plan with `attempts` tries and everything else at defaults.
    pub fn with_attempts(attempts: u32) -> Self {
        QueryPlan {
            attempts: attempts.max(1),
            ..QueryPlan::default()
        }
    }

    /// Override the per-attempt timeout.
    pub fn timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Override the backoff jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.backoff_seed = seed;
        self
    }

    /// Override the quarantine threshold (0 = breaker off).
    pub fn quarantine_after(mut self, threshold: u32) -> Self {
        self.quarantine_threshold = threshold;
        self
    }

    /// Turn on RTT-derived per-server timeouts.
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Override the derived-timeout floor.
    pub fn min_timeout(mut self, floor: SimDuration) -> Self {
        self.min_timeout = floor;
        self
    }

    /// Per-server timeout derived from an RTT estimate:
    /// `srtt + RTT_K·rttvar` clamped to `[min_timeout, timeout]`. Monotone
    /// non-decreasing in both SRTT and RTTVAR; never exceeds the fixed
    /// timeout, never dips below the floor.
    pub fn derived_timeout(&self, est: &RttEstimate) -> SimDuration {
        let raw = est
            .srtt_us
            .saturating_add(u64::from(RTT_K).saturating_mul(est.rttvar_us));
        let floor = self.min_timeout.as_micros().min(self.timeout.as_micros());
        SimDuration::from_micros(raw.max(floor).min(self.timeout.as_micros()))
    }

    /// Deterministic backoff delay before retry number `attempt`
    /// (1-based: `attempt = 1` is the wait before the first retransmission).
    ///
    /// `min(base * 2^(attempt-1) + jitter, max)` where `jitter` is a hash of
    /// `(seed, probe_key, attempt)` bounded by `base / 2`. For a fixed seed
    /// and probe key the schedule is monotone non-decreasing in `attempt`,
    /// bounded by `backoff_max`, and identical across runs.
    pub fn backoff(&self, probe_key: u64, attempt: u32) -> SimDuration {
        let base = self.backoff_base.as_micros();
        let max = self.backoff_max.as_micros();
        if base == 0 || attempt == 0 {
            return SimDuration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let scaled = base.saturating_mul(1u64 << exp);
        let mut d = Digest::new();
        d.u64(self.backoff_seed);
        d.u64(probe_key);
        d.u32(attempt);
        // Jitter < base/2 ≤ the growth step, so the schedule stays monotone:
        // scaled doubles each attempt while jitter is bounded by a constant.
        let jitter = d.finish() % (base / 2 + 1);
        SimDuration::from_micros(scaled.saturating_add(jitter).min(max))
    }
}

/// Smoothed round-trip estimate for one nameserver (Jacobson/Karels, the
/// same filter TCP uses for its RTO), in integer microseconds of virtual
/// time. Integer arithmetic keeps the estimator bit-reproducible: the same
/// sample sequence always yields the same state, on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttEstimate {
    /// Smoothed RTT (`srtt ← 7/8·srtt + 1/8·sample`).
    pub srtt_us: u64,
    /// Smoothed mean deviation (`rttvar ← 3/4·rttvar + 1/4·|srtt − sample|`).
    pub rttvar_us: u64,
    /// Samples folded in so far.
    pub samples: u64,
}

impl RttEstimate {
    /// Estimate seeded from a first sample: `srtt = rtt`, `rttvar = rtt/2`.
    pub fn first(rtt: SimDuration) -> Self {
        let us = rtt.as_micros();
        RttEstimate {
            srtt_us: us,
            rttvar_us: us / 2,
            samples: 1,
        }
    }

    /// Fold one more sample into the smoothed state.
    pub fn update(&mut self, rtt: SimDuration) {
        let us = rtt.as_micros();
        let err = self.srtt_us.abs_diff(us);
        self.rttvar_us = (3 * self.rttvar_us + err) / 4;
        self.srtt_us = (7 * self.srtt_us + us) / 8;
        self.samples += 1;
    }
}

/// What the engine remembers about one server.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ServerHealth {
    /// Consecutive fully failed probes.
    streak: u32,
    /// No further probes are sent to it.
    quarantined: bool,
    /// Smoothed round trip, once a sample has landed.
    rtt: Option<RttEstimate>,
    recursive: bool,
}

impl ServerHealth {
    /// Record a successful exchange: resets the failure streak.
    fn record_success(&mut self) {
        self.streak = 0;
    }

    /// Record a fully failed probe (all attempts exhausted). Returns `true`
    /// if this failure pushed the server over `threshold` into quarantine.
    fn record_failure(&mut self, threshold: u32) -> bool {
        self.streak += 1;
        let newly = threshold > 0 && self.streak >= threshold && !self.quarantined;
        self.quarantined |= newly;
        newly
    }

    /// Fold one RTT sample (measured on the virtual clock) into the
    /// smoothed estimate. Callers follow Karn's rule: only first-attempt
    /// answers are sampled, so a late reply to an earlier transmission can
    /// never be mistaken for a fast response to the retry.
    fn observe_rtt(&mut self, rtt: SimDuration) {
        match &mut self.rtt {
            Some(est) => est.update(rtt),
            none => *none = Some(RttEstimate::first(rtt)),
        }
    }

    /// Mark the server as answering recursively (`ra` set on a response).
    ///
    /// An authoritative server's service time is one fabric round trip per
    /// transport leg, so a floored RTT-derived timeout can never cut off a
    /// delivered answer. A recursive responder resolves iteratively on its
    /// own clock — internal retry timers included — so its service time is
    /// unbounded and no smoothed estimate is safe to enforce against it.
    fn note_recursive(&mut self) {
        self.recursive = true;
        self.rtt = None;
    }
}

/// Per-nameserver consecutive-failure circuit breaker, plus the per-server
/// RTT estimates that drive adaptive timeouts: one record a server, in a
/// dense table. The shard scan finds a server by its slot, its index in
/// the shard's nameserver range; every other probe by its address,
/// through the one map that gives it a slot. An engine uses one or the
/// other.
#[derive(Debug, Clone, Default)]
pub(crate) struct NsHealth {
    servers: Vec<ServerHealth>,
    slots: FxHashMap<Ipv4Addr, usize>,
}

impl NsHealth {
    /// The record in `slot`, fresh on first sight.
    pub(crate) fn at(&mut self, slot: usize) -> &mut ServerHealth {
        if slot >= self.servers.len() {
            self.servers.resize_with(slot + 1, ServerHealth::default);
        }
        &mut self.servers[slot]
    }

    /// The record of `server`, fresh on first sight.
    pub(crate) fn server(&mut self, server: Ipv4Addr) -> &mut ServerHealth {
        let next = self.slots.len();
        let slot = *self.slots.entry(server).or_insert(next);
        self.at(slot)
    }
}

/// Exact accounting of every probe the engine was asked to send.
///
/// Invariant: `scheduled == answered + retried_answered + gave_up +
/// skipped_quarantined` — checked by [`CoverageReport::is_complete`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// Probes handed to the engine.
    pub scheduled: u64,
    /// Answered on the first transmission.
    pub answered: u64,
    /// Answered after at least one retransmission.
    pub retried_answered: u64,
    /// All attempts exhausted without a usable response.
    pub gave_up: u64,
    /// Not sent at all: the target server was quarantined.
    pub skipped_quarantined: u64,
    /// Total retransmissions sent (excludes first transmissions).
    pub retransmissions: u64,
    /// Servers quarantined during the run, in address order.
    pub quarantined_servers: Vec<Ipv4Addr>,
}

impl CoverageReport {
    /// Probes that produced a usable response, via any number of attempts.
    pub(crate) fn total_answered(&self) -> u64 {
        self.answered + self.retried_answered
    }

    /// Probes with no usable response (given up or never sent).
    pub fn total_gave_up(&self) -> u64 {
        self.gave_up + self.skipped_quarantined
    }

    /// Does every scheduled probe appear in exactly one outcome bucket?
    pub fn is_complete(&self) -> bool {
        self.scheduled == self.total_answered() + self.total_gave_up()
    }

    /// Fold another report into this one (used when a run has several
    /// collection stages, each with its own engine pass).
    pub fn absorb(&mut self, other: &CoverageReport) {
        self.scheduled += other.scheduled;
        self.answered += other.answered;
        self.retried_answered += other.retried_answered;
        self.gave_up += other.gave_up;
        self.skipped_quarantined += other.skipped_quarantined;
        self.retransmissions += other.retransmissions;
        let mut set: BTreeSet<Ipv4Addr> = self.quarantined_servers.iter().copied().collect();
        set.extend(other.quarantined_servers.iter().copied());
        self.quarantined_servers = set.into_iter().collect();
    }
}

/// What the engine counts beyond the [`CoverageReport`] funnel, in plain
/// integers, whether or not a hub is attached.
#[derive(Debug)]
pub(crate) struct ProbeTally {
    /// Simulated time spent in retransmission backoff.
    backoff_wait_us: u64,
    /// Quarantine events.
    ns_quarantined: u64,
    /// Probes whose timeout came from the server's RTT estimate.
    timeout_derived: u64,
    /// Probes on the fixed plan timeout.
    timeout_fixed: u64,
    /// Transmissions per answered or abandoned probe.
    attempts: obs::HistogramData,
    /// First-attempt round trips from authoritative servers.
    rtt_us: obs::HistogramData,
}

impl Default for ProbeTally {
    fn default() -> Self {
        ProbeTally {
            backoff_wait_us: 0,
            ns_quarantined: 0,
            timeout_derived: 0,
            timeout_fixed: 0,
            attempts: obs::HistogramData::new(&[1, 2, 3, 4, 6, 8]),
            rtt_us: obs::HistogramData::new(&[25_000, 50_000, 100_000, 150_000, 200_000, 400_000]),
        }
    }
}

/// Add one engine's counts to the 12 `probe_*` metrics of `reg`, each
/// registered (a zero included) on first use. Every metric is
/// [`obs::Class::Sim`]: collection drives the simulated network on one
/// thread per fabric in every executor, so the probe funnel is part of the
/// deterministic fingerprint. Callers publish each engine exactly once.
pub(crate) fn publish_probes(
    reg: &obs::MetricsRegistry,
    coverage: &CoverageReport,
    tally: &ProbeTally,
) {
    use obs::Class::Sim;
    for (name, n) in [
        ("probe_scheduled", coverage.scheduled),
        ("probe_answered_first", coverage.answered),
        ("probe_answered_retried", coverage.retried_answered),
        ("probe_gave_up", coverage.gave_up),
        ("probe_skipped_quarantined", coverage.skipped_quarantined),
        ("probe_retransmissions", coverage.retransmissions),
        ("probe_backoff_wait_us", tally.backoff_wait_us),
        ("probe_ns_quarantined", tally.ns_quarantined),
        ("probe_timeout_derived", tally.timeout_derived),
        ("probe_timeout_fixed", tally.timeout_fixed),
    ] {
        reg.add(name, Sim, n);
    }
    reg.merge_histogram("probe_attempts", Sim, &tally.attempts);
    reg.merge_histogram("probe_rtt_us", Sim, &tally.rtt_us);
}

/// The retrying query engine: one instance per collection run.
#[derive(Debug)]
pub struct ProbeEngine {
    /// Retry policy in force.
    pub(crate) plan: QueryPlan,
    /// Per-server breaker state.
    health: NsHealth,
    /// Accounting of everything scheduled so far.
    pub coverage: CoverageReport,
    /// Everything else the engine counts; never reset.
    pub(crate) tally: ProbeTally,
    /// Where quarantine events go, with their simulated time.
    hub: Option<std::sync::Arc<obs::Obs>>,
}

impl ProbeEngine {
    /// Engine with the given plan and fresh health/coverage state.
    pub fn new(plan: QueryPlan) -> Self {
        ProbeEngine {
            plan,
            health: NsHealth::default(),
            coverage: CoverageReport::default(),
            tally: ProbeTally::default(),
            hub: None,
        }
    }

    /// Push quarantine events into `hub`'s sink as they
    /// happen. The engine's counts reach the hub's registry only when its
    /// owner publishes them, when its stage ends.
    pub fn with_obs(mut self, hub: std::sync::Arc<obs::Obs>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Key identifying a probe for backoff jitter purposes.
    fn probe_key(server: Ipv4Addr, qname: &Name, qtype: RecordType, qid: u16) -> u64 {
        let mut d = Digest::new();
        d.u32(u32::from(server));
        // `d.str(&qname.to_string())` without the string: the digest does
        // not depend on how its input is split.
        qname.borrowed().render(|piece| d.bytes(piece));
        d.u8(0xff);
        d.u16(qtype.code());
        d.u16(qid);
        d.finish()
    }

    /// One resilient DNS probe: transmit, wait, retransmit with backoff up
    /// to `plan.attempts` times, reusing `qid` so a late reply to an earlier
    /// transmission still matches. Every call lands in exactly one
    /// [`CoverageReport`] bucket. `read` is handed the flags of the
    /// response that answers and the answer records `keep` accepted, read
    /// where the reply lies, and its result comes back; it runs once at
    /// most. `server` is the server's address and, when the caller
    /// addresses its servers by slot (the shard scan), its slot.
    ///
    /// A probe to a quarantined server is skipped without sending.
    #[allow(clippy::too_many_arguments)]
    pub fn probe<T>(
        &mut self,
        net: &mut Network,
        client_ip: Ipv4Addr,
        (server_ip, slot): (Ipv4Addr, Option<usize>),
        qname: &Name,
        qtype: RecordType,
        qid: u16,
        keep: impl Fn(&RecordView<'_>) -> bool,
        mut read: impl FnMut(Flags, RDataSetRef<'_>) -> T,
    ) -> Option<T> {
        self.coverage.scheduled += 1;
        let health = match slot {
            Some(slot) => self.health.at(slot),
            None => self.health.server(server_ip),
        };
        if health.quarantined {
            self.coverage.skipped_quarantined += 1;
            return None;
        }
        // Only a retransmission needs the jitter key.
        let mut key = None;
        let attempts = self.plan.attempts.max(1);
        // The estimate cannot change mid-probe (a success returns at once),
        // so one derivation covers every attempt of this probe: the
        // RTT-derived value when the plan is adaptive and a sample exists,
        // the fixed plan timeout otherwise.
        let timeout = match health.rtt {
            Some(est) if self.plan.adaptive => {
                self.tally.timeout_derived += 1;
                self.plan.derived_timeout(&est)
            }
            _ => {
                self.tally.timeout_fixed += 1;
                self.plan.timeout
            }
        };
        for attempt in 1..=attempts {
            if attempt > 1 {
                // Deterministic backoff on the virtual clock; a late reply
                // arriving during this wait is drained (and matched by qid)
                // at the start of the next attempt's rpc.
                let key = *key.get_or_insert_with(|| Self::probe_key(server_ip, qname, qtype, qid));
                let wait = self.plan.backoff(key, attempt - 1);
                let deadline = net.now() + wait;
                net.run_until(deadline);
                self.coverage.retransmissions += 1;
                self.tally.backoff_wait_us += wait.as_micros();
            }
            let sent_at = net.now();
            // One transmission and its wait: the reply is parsed where it
            // lies and read there.
            let answered = authdns::exchange(
                net,
                client_ip,
                server_ip,
                qname,
                qtype,
                qid,
                timeout,
                &keep,
                |resp, answers| (resp.flags, read(resp.flags, answers)),
            );
            if let Some((flags, out)) = answered {
                if flags.recursion_available {
                    // Recursive responders resolve on their own clock;
                    // their service times poison the estimator (and a
                    // derived timeout would cut off slow-but-coming
                    // answers), so they stay on the fixed plan timeout.
                    health.note_recursive();
                }
                if attempt == 1 {
                    if !flags.recursion_available {
                        // Karn's rule: only an answer to the first
                        // transmission is an unambiguous RTT sample.
                        let rtt = net.now().since(sent_at);
                        health.observe_rtt(rtt);
                        self.tally.rtt_us.observe(rtt.as_micros());
                    }
                    self.coverage.answered += 1;
                } else {
                    self.coverage.retried_answered += 1;
                }
                self.tally.attempts.observe(u64::from(attempt));
                health.record_success();
                return Some(out);
            }
        }
        self.coverage.gave_up += 1;
        self.tally.attempts.observe(u64::from(attempts));
        if health.record_failure(self.plan.quarantine_threshold) {
            self.coverage.quarantined_servers.push(server_ip);
            self.tally.ns_quarantined += 1;
            if let Some(hub) = &self.hub {
                hub.sink().push(
                    Some(net.now().as_micros()),
                    "quarantine",
                    &server_ip.to_string(),
                    format!("streak={}", health.streak),
                );
            }
        }
        None
    }

    /// Take the accumulated coverage, leaving a fresh report behind (health
    /// state is kept so quarantine persists across stages).
    pub fn take_coverage(&mut self) -> CoverageReport {
        std::mem::take(&mut self.coverage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn probe_key_hashes_the_rendered_name() {
        let escaped = Name::from_labels([
            &b"a.b"[..],
            b"sp ace\\",
            b"\x07",
            b"\xc8",
            b"Example",
            b"org",
        ])
        .unwrap();
        assert!(
            escaped.to_string().contains('\\'),
            "{escaped} renders escapes"
        );
        for qname in [
            "www.Example.COM".parse().unwrap(),
            "a.b.c.d.e.f.g.h.i.j.k.l.m.n.o.p".parse().unwrap(),
            Name::root(),
            escaped,
        ] {
            let mut d = Digest::new();
            d.u32(u32::from(ip(9)));
            d.str(&qname.to_string());
            d.u16(RecordType::Txt.code());
            d.u16(0x1234);
            assert_eq!(
                ProbeEngine::probe_key(ip(9), &qname, RecordType::Txt, 0x1234),
                d.finish(),
                "{qname}"
            );
        }
    }

    #[test]
    fn default_plan_is_sane() {
        let p = QueryPlan::default();
        assert_eq!(p.attempts, 3);
        assert_eq!(p.timeout, SimDuration::from_secs(5));
        assert_eq!(p.quarantine_threshold, 8);
        assert_eq!(p.backoff_seed, DEFAULT_BACKOFF_SEED);
    }

    #[test]
    fn backoff_is_monotone_bounded_deterministic() {
        let plan = QueryPlan::default();
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=20 {
            let d = plan.backoff(42, attempt);
            assert!(d >= prev, "attempt {attempt}: {d:?} < {prev:?}");
            assert!(d <= plan.backoff_max);
            assert_eq!(d, plan.backoff(42, attempt), "not deterministic");
            prev = d;
        }
        // Different probe keys jitter differently somewhere in the schedule.
        let a: Vec<_> = (1..=6).map(|n| plan.backoff(1, n)).collect();
        let b: Vec<_> = (1..=6).map(|n| plan.backoff(2, n)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn backoff_zero_base_is_zero() {
        let plan = QueryPlan {
            backoff_base: SimDuration::ZERO,
            ..QueryPlan::default()
        };
        assert_eq!(plan.backoff(9, 3), SimDuration::ZERO);
    }

    #[test]
    fn health_breaker_quarantines_after_threshold() {
        let mut h = NsHealth::default();
        let s = ip(1);
        for i in 1..3 {
            assert!(!h.server(s).record_failure(3), "tripped early at {i}");
        }
        assert!(!h.server(s).quarantined);
        assert!(h.server(s).record_failure(3));
        assert!(h.server(s).quarantined);
        // Re-recording doesn't report "newly quarantined" again.
        assert!(!h.server(s).record_failure(3));
        let quarantined: Vec<Ipv4Addr> = h
            .slots
            .iter()
            .filter(|&(_, &slot)| h.servers[slot].quarantined)
            .map(|(ip, _)| *ip)
            .collect();
        assert_eq!(quarantined, vec![s]);
    }

    #[test]
    fn health_success_resets_streak() {
        let mut h = NsHealth::default();
        let s = ip(2);
        h.server(s).record_failure(5);
        h.server(s).record_failure(5);
        assert_eq!(h.server(s).streak, 2);
        h.server(s).record_success();
        assert_eq!(h.server(s).streak, 0);
    }

    #[test]
    fn health_threshold_zero_never_quarantines() {
        let mut h = NsHealth::default();
        let s = ip(3);
        for _ in 0..100 {
            assert!(!h.server(s).record_failure(0));
        }
        assert!(!h.server(s).quarantined);
    }

    #[test]
    fn health_quarantine_lasts_for_the_run() {
        let mut h = NsHealth::default();
        let s = ip(4);
        // Quarantine after 2 consecutive failures.
        assert!(!h.server(s).record_failure(2));
        assert!(h.server(s).record_failure(2));
        assert!(h.server(s).quarantined);
        // A success resets the streak but releases nothing, and further
        // failures are never reported as a new quarantine.
        h.server(s).record_success();
        assert_eq!(h.server(s).streak, 0);
        assert!(h.server(s).quarantined);
        assert!(!h.server(s).record_failure(2));
        assert!(!h.server(s).record_failure(2));
        assert!(h.server(s).quarantined);
    }

    #[test]
    fn coverage_accounting_invariant() {
        let mut c = CoverageReport {
            scheduled: 10,
            answered: 5,
            retried_answered: 2,
            gave_up: 2,
            skipped_quarantined: 1,
            retransmissions: 4,
            quarantined_servers: vec![ip(1)],
        };
        assert!(c.is_complete());
        assert_eq!(c.total_answered(), 7);
        assert_eq!(c.total_gave_up(), 3);
        c.scheduled += 1;
        assert!(!c.is_complete());
    }

    #[test]
    fn coverage_absorb_merges_and_dedups() {
        let mut a = CoverageReport {
            scheduled: 3,
            answered: 2,
            gave_up: 1,
            quarantined_servers: vec![ip(1), ip(2)],
            ..CoverageReport::default()
        };
        let b = CoverageReport {
            scheduled: 2,
            retried_answered: 1,
            gave_up: 1,
            retransmissions: 2,
            quarantined_servers: vec![ip(2), ip(3)],
            ..CoverageReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.scheduled, 5);
        assert!(a.is_complete());
        assert_eq!(a.quarantined_servers, vec![ip(1), ip(2), ip(3)]);
    }

    #[test]
    fn coverage_absorb_into_empty_is_identity() {
        let src = CoverageReport {
            scheduled: 7,
            answered: 4,
            retried_answered: 1,
            gave_up: 1,
            skipped_quarantined: 1,
            retransmissions: 3,
            quarantined_servers: vec![ip(2), ip(5)],
        };
        let mut empty = CoverageReport::default();
        empty.absorb(&src);
        assert_eq!(empty, src);
        assert!(empty.is_complete());
    }

    #[test]
    fn coverage_absorb_two_disjoint_reports_sums_exactly() {
        let a = CoverageReport {
            scheduled: 4,
            answered: 3,
            gave_up: 1,
            retransmissions: 1,
            quarantined_servers: vec![ip(1)],
            ..CoverageReport::default()
        };
        let b = CoverageReport {
            scheduled: 6,
            answered: 2,
            retried_answered: 2,
            skipped_quarantined: 2,
            retransmissions: 5,
            quarantined_servers: vec![ip(6)],
            ..CoverageReport::default()
        };
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        // Absorb of disjoint reports commutes field by field.
        assert_eq!(ab, ba);
        assert_eq!(ab.scheduled, 10);
        assert_eq!(ab.total_answered(), 7);
        assert_eq!(ab.total_gave_up(), 3);
        assert_eq!(ab.retransmissions, 6);
        assert_eq!(ab.quarantined_servers, vec![ip(1), ip(6)]);
        assert!(ab.is_complete());
    }

    #[test]
    fn coverage_complete_and_incomplete_absorb_to_incomplete() {
        let complete = CoverageReport {
            scheduled: 3,
            answered: 3,
            ..CoverageReport::default()
        };
        let incomplete = CoverageReport {
            scheduled: 5,
            answered: 2,
            ..CoverageReport::default()
        };
        assert!(complete.is_complete());
        assert!(!incomplete.is_complete());
        let mut merged = complete.clone();
        merged.absorb(&incomplete);
        assert!(
            !merged.is_complete(),
            "absorbing an incomplete report cannot restore completeness"
        );
    }

    /// One A probe from `ip(8)` to `server`, addressed by its address.
    fn probe(
        engine: &mut ProbeEngine,
        net: &mut Network,
        server: Ipv4Addr,
        qname: &Name,
        qid: u16,
    ) -> Option<()> {
        let server = (server, None);
        engine.probe(
            net,
            ip(8),
            server,
            qname,
            RecordType::A,
            qid,
            |_| true,
            |_, _| (),
        )
    }

    #[test]
    fn engine_quarantine_skips_without_sending() {
        let mut engine = ProbeEngine::new(QueryPlan::with_attempts(1).quarantine_after(1));
        let mut net = Network::new(1);
        let server = ip(9); // unregistered: every probe times out
        net.register_external(ip(8));
        let qname: Name = "probe.example".parse().unwrap();
        // First probe exhausts attempts and trips the breaker.
        assert!(probe(&mut engine, &mut net, server, &qname, 77).is_none());
        assert!(engine.health.server(server).quarantined);
        let sent_after_first = net.stats().delivered + net.stats().dropped;
        // Second probe is skipped entirely — no new traffic.
        assert!(probe(&mut engine, &mut net, server, &qname, 78).is_none());
        assert_eq!(
            net.stats().delivered + net.stats().dropped,
            sent_after_first
        );
        assert_eq!(engine.coverage.scheduled, 2);
        assert_eq!(engine.coverage.gave_up, 1);
        assert_eq!(engine.coverage.skipped_quarantined, 1);
        assert!(engine.coverage.is_complete());
        assert_eq!(engine.coverage.quarantined_servers, vec![server]);
    }

    /// Minimal authoritative responder: answers every well-formed query
    /// with an empty NOERROR response (enough for the engine to count an
    /// answer and reset the breaker).
    use dnswire::Message;

    struct Responder;
    impl simnet::Node for Responder {
        fn handle(
            &mut self,
            _now: simnet::SimTime,
            dgram: &simnet::Datagram,
            out: &mut simnet::Actions,
        ) {
            let Ok(q) = Message::decode(&dgram.payload) else {
                return;
            };
            if q.flags.response {
                return;
            }
            let resp = Message::response_to(&q, dnswire::Rcode::NoError);
            if let Ok(bytes) = resp.encode() {
                out.send(dgram.reply(bytes));
            }
        }
    }

    #[test]
    fn rtt_estimator_follows_jacobson() {
        let mut e = RttEstimate::first(SimDuration::from_micros(100_000));
        assert_eq!(e.srtt_us, 100_000);
        assert_eq!(e.rttvar_us, 50_000);
        assert_eq!(e.samples, 1);
        e.update(SimDuration::from_micros(100_000));
        // Zero error: rttvar decays by 3/4, srtt holds.
        assert_eq!(e.srtt_us, 100_000);
        assert_eq!(e.rttvar_us, 37_500);
        assert_eq!(e.samples, 2);
        e.update(SimDuration::from_micros(180_000));
        // err = 80_000: rttvar = (3·37_500 + 80_000)/4, srtt = (7·100_000 + 180_000)/8.
        assert_eq!(e.rttvar_us, 48_125);
        assert_eq!(e.srtt_us, 110_000);
    }

    #[test]
    fn derived_timeout_clamps_to_floor_and_ceiling() {
        let plan = QueryPlan::default().adaptive();
        let fast = RttEstimate {
            srtt_us: 1_000,
            rttvar_us: 100,
            samples: 9,
        };
        assert_eq!(plan.derived_timeout(&fast), plan.min_timeout);
        let slow = RttEstimate {
            srtt_us: 90_000_000,
            rttvar_us: 0,
            samples: 9,
        };
        assert_eq!(plan.derived_timeout(&slow), plan.timeout);
        let mid = RttEstimate {
            srtt_us: 400_000,
            rttvar_us: 50_000,
            samples: 9,
        };
        // 400_000 + 4·50_000 sits between the floor and the ceiling.
        assert_eq!(
            plan.derived_timeout(&mid),
            SimDuration::from_micros(600_000)
        );
    }

    #[test]
    fn engine_samples_rtt_on_first_attempt_success() {
        let mut engine = ProbeEngine::new(QueryPlan::default());
        let mut net = Network::new(11);
        let server = ip(9);
        net.add_node(server, Box::new(Responder));
        let qname: Name = "probe.example".parse().unwrap();
        assert!(engine.health.server(server).rtt.is_none());
        assert!(probe(&mut engine, &mut net, server, &qname, 1).is_some());
        let est = engine.health.server(server).rtt.expect("one sample");
        assert_eq!(est.samples, 1);
        assert!(est.srtt_us > 0, "virtual clock advanced during the rpc");
    }

    #[test]
    fn take_coverage_resets_but_keeps_health() {
        let mut engine = ProbeEngine::new(QueryPlan::with_attempts(1).quarantine_after(1));
        let mut net = Network::new(2);
        net.register_external(ip(8));
        let qname: Name = "probe.example".parse().unwrap();
        probe(&mut engine, &mut net, ip(9), &qname, 1);
        let cov = engine.take_coverage();
        assert_eq!(cov.scheduled, 1);
        assert_eq!(engine.coverage, CoverageReport::default());
        assert!(engine.health.server(ip(9)).quarantined);
    }
}
