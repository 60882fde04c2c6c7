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
//!   are read in place: a probe keeps the answer records its caller asks
//!   for and builds nothing else.
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

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

use dnswire::{Flags, Name, Rcode, Record, RecordType, RecordView};
use simnet::{Network, SimDuration};

/// What a probe brings back: the response's header flags and the answer
/// records the caller chose to keep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReply {
    /// Header flags of the response.
    pub(crate) flags: Flags,
    /// Answer-section records that passed the caller's filter, owned.
    pub answers: Vec<Record>,
}

impl ProbeReply {
    /// The response code (shorthand for `flags.rcode`).
    pub fn rcode(&self) -> Rcode {
        self.flags.rcode
    }
}

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
    /// further probes are sent to it (0 disables the circuit breaker).
    pub quarantine_threshold: u32,
    /// Recovery knob: after this many probes have been skipped for a
    /// quarantined server, the next probe is sent as a single-attempt
    /// health probe — if it is answered the server re-enters rotation.
    /// 0 (the default) keeps quarantine permanent
    /// for the run, the pre-recovery behavior.
    pub quarantine_cooldown: u32,
    /// Derive per-server timeouts from the smoothed RTT instead of using
    /// the fixed `timeout` for every attempt. Off by default: the fixed
    /// plan is the paper-faithful baseline.
    pub adaptive: bool,
    /// RTTVAR multiplier in the derived timeout `srtt + rtt_k·rttvar`
    /// (TCP's RTO uses 4; larger is more conservative).
    pub rtt_k: u32,
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
            quarantine_cooldown: 0,
            adaptive: false,
            rtt_k: DEFAULT_RTT_K,
            min_timeout: SimDuration::from_millis(250),
        }
    }
}

/// Default RTTVAR multiplier for derived timeouts.
pub(crate) const DEFAULT_RTT_K: u32 = 4;

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

    /// Turn on RTT-derived per-server timeouts and RTT-ordered selection.
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Override the RTTVAR multiplier used by [`QueryPlan::derived_timeout`].
    pub fn rtt_k(mut self, k: u32) -> Self {
        self.rtt_k = k.max(1);
        self
    }

    /// Override the derived-timeout floor.
    pub fn min_timeout(mut self, floor: SimDuration) -> Self {
        self.min_timeout = floor;
        self
    }

    /// Per-server timeout derived from an RTT estimate:
    /// `srtt + rtt_k·rttvar` clamped to `[min_timeout, timeout]`. Monotone
    /// non-decreasing in both SRTT and RTTVAR; never exceeds the fixed
    /// timeout, never dips below the floor.
    pub fn derived_timeout(&self, est: &RttEstimate) -> SimDuration {
        let raw = est
            .srtt_us
            .saturating_add(u64::from(self.rtt_k).saturating_mul(est.rttvar_us));
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
        let mut h = DefaultHasher::new();
        self.backoff_seed.hash(&mut h);
        probe_key.hash(&mut h);
        attempt.hash(&mut h);
        // Jitter < base/2 ≤ the growth step, so the schedule stays monotone:
        // scaled doubles each attempt while jitter is bounded by a constant.
        let jitter = h.finish() % (base / 2 + 1);
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
struct ServerHealth {
    /// Consecutive fully failed probes.
    streak: u32,
    quarantined: bool,
    /// Probes skipped since the quarantine began (or the last health probe).
    skipped: u32,
    rtt: Option<RttEstimate>,
    recursive: bool,
}

/// Per-nameserver consecutive-failure circuit breaker, plus the per-server
/// RTT estimates that drive adaptive timeouts and RTT-ordered selection:
/// one record a server.
#[derive(Debug, Clone, Default)]
pub struct NsHealth {
    servers: HashMap<Ipv4Addr, ServerHealth>,
}

impl NsHealth {
    /// A tracker with no history.
    pub fn new() -> Self {
        NsHealth::default()
    }

    fn get(&self, server: Ipv4Addr) -> ServerHealth {
        self.servers.get(&server).copied().unwrap_or_default()
    }

    /// Is this server quarantined (no further probes allowed)?
    pub(crate) fn is_quarantined(&self, server: Ipv4Addr) -> bool {
        self.get(server).quarantined
    }

    /// Record a successful exchange: resets the failure streak.
    pub(crate) fn record_success(&mut self, server: Ipv4Addr) {
        if let Some(s) = self.servers.get_mut(&server) {
            s.streak = 0;
        }
    }

    /// Record a fully failed probe (all attempts exhausted). Returns `true`
    /// if this failure pushed the server over `threshold` into quarantine.
    pub(crate) fn record_failure(&mut self, server: Ipv4Addr, threshold: u32) -> bool {
        let s = self.servers.entry(server).or_default();
        s.streak += 1;
        let newly = threshold > 0 && s.streak >= threshold && !s.quarantined;
        if newly {
            s.quarantined = true;
            s.skipped = 0;
        }
        newly
    }

    /// Count one probe skipped because `server` is quarantined; returns the
    /// skip streak including this one. Drives the cooldown window.
    pub(crate) fn note_skipped(&mut self, server: Ipv4Addr) -> u32 {
        let s = self.servers.entry(server).or_default();
        s.skipped += 1;
        s.skipped
    }

    /// Restart the cooldown window for a still-quarantined server (a
    /// health probe just failed; wait a full cooldown before the next one).
    pub(crate) fn reset_skip_window(&mut self, server: Ipv4Addr) {
        if let Some(s) = self.servers.get_mut(&server) {
            s.skipped = 0;
        }
    }

    /// Release a server from quarantine: it re-enters rotation with a clean
    /// failure streak. Returns `true` if the server was quarantined.
    pub(crate) fn release(&mut self, server: Ipv4Addr) -> bool {
        let Some(s) = self.servers.get_mut(&server) else {
            return false;
        };
        s.streak = 0;
        s.skipped = 0;
        std::mem::take(&mut s.quarantined)
    }

    /// Current failure streak for a server (0 if healthy).
    pub(crate) fn failure_streak(&self, server: Ipv4Addr) -> u32 {
        self.get(server).streak
    }

    /// Fold one RTT sample (measured on the virtual clock) into `server`'s
    /// smoothed estimate. Callers follow Karn's rule: only first-attempt
    /// answers are sampled, so a late reply to an earlier transmission can
    /// never be mistaken for a fast response to the retry.
    pub fn observe_rtt(&mut self, server: Ipv4Addr, rtt: SimDuration) {
        match &mut self.servers.entry(server).or_default().rtt {
            Some(est) => est.update(rtt),
            none => *none = Some(RttEstimate::first(rtt)),
        }
    }

    /// Current smoothed estimate for a server, if any sample has landed.
    pub(crate) fn rtt_estimate(&self, server: Ipv4Addr) -> Option<RttEstimate> {
        self.get(server).rtt
    }

    /// Mark a server as answering recursively (`ra` set on a response).
    ///
    /// An authoritative server's service time is one fabric round trip per
    /// transport leg, so a floored RTT-derived timeout can never cut off a
    /// delivered answer. A recursive responder resolves iteratively on its
    /// own clock — internal retry timers included — so its service time is
    /// unbounded and no smoothed estimate is safe to enforce against it.
    pub(crate) fn note_recursive(&mut self, server: Ipv4Addr) {
        let s = self.servers.entry(server).or_default();
        s.recursive = true;
        s.rtt = None;
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

/// Handles into an [`obs`] registry mirroring every coverage bucket, plus
/// the hub itself for quarantine/release sink events. All counters are
/// [`obs::Class::Sim`]: collection drives the simulated network on one
/// thread in every executor, so the probe funnel is part of the
/// deterministic fingerprint.
#[derive(Debug, Clone)]
struct EngineObs {
    hub: std::sync::Arc<obs::Obs>,
    scheduled: obs::Counter,
    answered_first: obs::Counter,
    answered_retried: obs::Counter,
    gave_up: obs::Counter,
    skipped_quarantined: obs::Counter,
    retransmissions: obs::Counter,
    backoff_wait_us: obs::Counter,
    ns_quarantined: obs::Counter,
    ns_released: obs::Counter,
    attempts: obs::Histogram,
    rtt_us: obs::Histogram,
    timeout_derived: obs::Counter,
    timeout_fixed: obs::Counter,
}

impl EngineObs {
    fn register(hub: std::sync::Arc<obs::Obs>) -> Self {
        use obs::Class::Sim;
        let reg = hub.registry();
        EngineObs {
            scheduled: reg.counter("probe_scheduled", Sim),
            answered_first: reg.counter("probe_answered_first", Sim),
            answered_retried: reg.counter("probe_answered_retried", Sim),
            gave_up: reg.counter("probe_gave_up", Sim),
            skipped_quarantined: reg.counter("probe_skipped_quarantined", Sim),
            retransmissions: reg.counter("probe_retransmissions", Sim),
            backoff_wait_us: reg.counter("probe_backoff_wait_us", Sim),
            ns_quarantined: reg.counter("probe_ns_quarantined", Sim),
            ns_released: reg.counter("probe_ns_released", Sim),
            attempts: reg.histogram("probe_attempts", Sim, &[1, 2, 3, 4, 6, 8]),
            rtt_us: reg.histogram(
                "probe_rtt_us",
                Sim,
                &[25_000, 50_000, 100_000, 150_000, 200_000, 400_000],
            ),
            timeout_derived: reg.counter("probe_timeout_derived", Sim),
            timeout_fixed: reg.counter("probe_timeout_fixed", Sim),
            hub,
        }
    }
}

/// The retrying query engine: one instance per collection run.
#[derive(Debug)]
pub struct ProbeEngine {
    /// Retry policy in force.
    pub(crate) plan: QueryPlan,
    /// Per-server breaker state.
    pub(crate) health: NsHealth,
    /// Accounting of everything scheduled so far.
    pub coverage: CoverageReport,
    obs: Option<EngineObs>,
}

impl ProbeEngine {
    /// Engine with the given plan and fresh health/coverage state.
    pub fn new(plan: QueryPlan) -> Self {
        ProbeEngine {
            plan,
            health: NsHealth::new(),
            coverage: CoverageReport::default(),
            obs: None,
        }
    }

    /// Mirror every coverage bucket into `hub`'s registry (`probe_*`
    /// family) and emit quarantine/release events into its sink. Without
    /// this, observability costs one branch per bucket update.
    pub fn with_obs(mut self, hub: std::sync::Arc<obs::Obs>) -> Self {
        self.obs = Some(EngineObs::register(hub));
        self
    }

    /// Timeout for the next attempt against `server`: the RTT-derived value
    /// when the plan is adaptive and a sample exists, the fixed plan
    /// timeout otherwise. Counts which branch fired into the obs registry.
    fn attempt_timeout(&self, server: Ipv4Addr) -> SimDuration {
        if self.plan.adaptive {
            if let Some(est) = self.health.rtt_estimate(server) {
                if let Some(o) = &self.obs {
                    o.timeout_derived.inc();
                }
                return self.plan.derived_timeout(&est);
            }
        }
        if let Some(o) = &self.obs {
            o.timeout_fixed.inc();
        }
        self.plan.timeout
    }

    /// Key identifying a probe for backoff jitter purposes.
    fn probe_key(server: Ipv4Addr, qname: &Name, qtype: RecordType, qid: u16) -> u64 {
        let mut h = DefaultHasher::new();
        u32::from(server).hash(&mut h);
        qname.to_string().hash(&mut h);
        qtype.code().hash(&mut h);
        qid.hash(&mut h);
        h.finish()
    }

    /// One transmission and its wait, over [`authdns::exchange`]: the reply
    /// is parsed where it lies and only the answers `keep` accepts are
    /// copied out of it.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        net: &mut Network,
        client_ip: Ipv4Addr,
        server_ip: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        qid: u16,
        timeout: SimDuration,
        keep: &impl Fn(&RecordView<'_>) -> bool,
    ) -> Option<ProbeReply> {
        authdns::exchange(
            net,
            client_ip,
            server_ip,
            qname,
            qtype,
            qid,
            timeout,
            |resp| {
                // Sized by what is left of the section at the first record
                // kept: one exact allocation for the usual one-RRset answer,
                // none for a reply nothing is kept of.
                let mut answers = Vec::new();
                for (i, r) in resp.answers().enumerate() {
                    if keep(&r) {
                        if answers.is_empty() {
                            answers.reserve_exact(resp.answer_count() - i);
                        }
                        answers.push(r.to_record());
                    }
                }
                ProbeReply {
                    flags: resp.flags,
                    answers,
                }
            },
        )
    }

    /// [`ProbeEngine::query_keeping`] every answer record.
    pub fn query(
        &mut self,
        net: &mut Network,
        client_ip: Ipv4Addr,
        server_ip: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        qid: u16,
    ) -> Option<ProbeReply> {
        self.query_keeping(net, client_ip, server_ip, qname, qtype, qid, |_| true)
    }

    /// One resilient DNS probe: transmit, wait, retransmit with backoff up
    /// to `plan.attempts` times, reusing `qid` so a late reply to an earlier
    /// transmission still matches. Every call lands in exactly one
    /// [`CoverageReport`] bucket. Of the response, the flags and the answer
    /// records `keep` accepts come back.
    ///
    /// For a quarantined server the probe is normally skipped; with a
    /// non-zero [`QueryPlan::quarantine_cooldown`], every `cooldown`-th
    /// skipped probe is instead sent as a single-attempt health probe. An
    /// answer releases the server back into rotation; a timeout restarts
    /// the cooldown window.
    #[allow(clippy::too_many_arguments)]
    pub fn query_keeping(
        &mut self,
        net: &mut Network,
        client_ip: Ipv4Addr,
        server_ip: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        qid: u16,
        keep: impl Fn(&RecordView<'_>) -> bool,
    ) -> Option<ProbeReply> {
        self.coverage.scheduled += 1;
        if let Some(o) = &self.obs {
            o.scheduled.inc();
        }
        if self.health.is_quarantined(server_ip) {
            let cooldown = self.plan.quarantine_cooldown;
            let probe_due = cooldown > 0 && self.health.note_skipped(server_ip) >= cooldown;
            if !probe_due {
                self.coverage.skipped_quarantined += 1;
                if let Some(o) = &self.obs {
                    o.skipped_quarantined.inc();
                }
                return None;
            }
            return self.health_probe(net, client_ip, server_ip, qname, qtype, qid, &keep);
        }
        // Only a retransmission needs the jitter key.
        let mut key = None;
        let attempts = self.plan.attempts.max(1);
        // The estimate cannot change mid-probe (a success returns at once),
        // so one derivation covers every attempt of this probe.
        let timeout = self.attempt_timeout(server_ip);
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
                if let Some(o) = &self.obs {
                    o.retransmissions.inc();
                    o.backoff_wait_us.add(wait.as_micros());
                }
            }
            let sent_at = net.now();
            if let Some(resp) =
                Self::attempt(net, client_ip, server_ip, qname, qtype, qid, timeout, &keep)
            {
                if resp.flags.recursion_available {
                    // Recursive responders resolve on their own clock;
                    // their service times poison the estimator (and a
                    // derived timeout would cut off slow-but-coming
                    // answers), so they stay on the fixed plan timeout.
                    self.health.note_recursive(server_ip);
                }
                if attempt == 1 {
                    if !resp.flags.recursion_available {
                        // Karn's rule: only an answer to the first
                        // transmission is an unambiguous RTT sample.
                        let rtt = net.now().since(sent_at);
                        self.health.observe_rtt(server_ip, rtt);
                        if let Some(o) = &self.obs {
                            o.rtt_us.observe(rtt.as_micros());
                        }
                    }
                    self.coverage.answered += 1;
                } else {
                    self.coverage.retried_answered += 1;
                }
                if let Some(o) = &self.obs {
                    if attempt == 1 {
                        o.answered_first.inc();
                    } else {
                        o.answered_retried.inc();
                    }
                    o.attempts.observe(u64::from(attempt));
                }
                self.health.record_success(server_ip);
                return Some(resp);
            }
        }
        self.coverage.gave_up += 1;
        if let Some(o) = &self.obs {
            o.gave_up.inc();
            o.attempts.observe(u64::from(attempts));
        }
        if self
            .health
            .record_failure(server_ip, self.plan.quarantine_threshold)
        {
            // A released-then-requarantined server must not appear twice in
            // the historical list.
            if !self.coverage.quarantined_servers.contains(&server_ip) {
                self.coverage.quarantined_servers.push(server_ip);
            }
            if let Some(o) = &self.obs {
                o.ns_quarantined.inc();
                o.hub.sink().push(
                    Some(net.now().as_micros()),
                    "quarantine",
                    &server_ip.to_string(),
                    format!("streak={}", self.health.failure_streak(server_ip)),
                );
            }
        }
        None
    }

    /// Single-attempt health probe against a quarantined server: an answer
    /// releases it, a timeout restarts the cooldown window. Lands in the
    /// `answered` or `gave_up` bucket like any other probe.
    ///
    /// Uses the per-server derived timeout, not the fixed plan timeout: a
    /// quarantined-but-recovered fast server should be released after one
    /// short wait, and a dead one should cost the scan milliseconds, not
    /// the full 5 s, per cooldown window.
    #[allow(clippy::too_many_arguments)]
    fn health_probe(
        &mut self,
        net: &mut Network,
        client_ip: Ipv4Addr,
        server_ip: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        qid: u16,
        keep: &impl Fn(&RecordView<'_>) -> bool,
    ) -> Option<ProbeReply> {
        let timeout = self.attempt_timeout(server_ip);
        let sent_at = net.now();
        if let Some(resp) =
            Self::attempt(net, client_ip, server_ip, qname, qtype, qid, timeout, keep)
        {
            if resp.flags.recursion_available {
                self.health.note_recursive(server_ip);
            } else {
                let rtt = net.now().since(sent_at);
                self.health.observe_rtt(server_ip, rtt);
                if let Some(o) = &self.obs {
                    o.rtt_us.observe(rtt.as_micros());
                }
            }
            self.coverage.answered += 1;
            self.health.release(server_ip);
            if let Some(o) = &self.obs {
                o.answered_first.inc();
                o.attempts.observe(1);
                o.ns_released.inc();
                o.hub.sink().push(
                    Some(net.now().as_micros()),
                    "release",
                    &server_ip.to_string(),
                    "health probe answered".to_string(),
                );
            }
            return Some(resp);
        }
        self.coverage.gave_up += 1;
        self.health.reset_skip_window(server_ip);
        if let Some(o) = &self.obs {
            o.gave_up.inc();
            o.attempts.observe(1);
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
        let mut h = NsHealth::new();
        let s = ip(1);
        for i in 1..3 {
            assert!(!h.record_failure(s, 3), "tripped early at {i}");
        }
        assert!(!h.is_quarantined(s));
        assert!(h.record_failure(s, 3));
        assert!(h.is_quarantined(s));
        // Re-recording doesn't report "newly quarantined" again.
        assert!(!h.record_failure(s, 3));
        let quarantined: Vec<Ipv4Addr> = h
            .servers
            .iter()
            .filter(|(_, state)| state.quarantined)
            .map(|(ip, _)| *ip)
            .collect();
        assert_eq!(quarantined, vec![s]);
    }

    #[test]
    fn health_success_resets_streak() {
        let mut h = NsHealth::new();
        let s = ip(2);
        h.record_failure(s, 5);
        h.record_failure(s, 5);
        assert_eq!(h.failure_streak(s), 2);
        h.record_success(s);
        assert_eq!(h.failure_streak(s), 0);
    }

    #[test]
    fn health_threshold_zero_never_quarantines() {
        let mut h = NsHealth::new();
        let s = ip(3);
        for _ in 0..100 {
            assert!(!h.record_failure(s, 0));
        }
        assert!(!h.is_quarantined(s));
    }

    #[test]
    fn health_quarantine_release_requarantine() {
        let mut h = NsHealth::new();
        let s = ip(4);
        // Quarantine after 2 consecutive failures.
        assert!(!h.record_failure(s, 2));
        assert!(h.record_failure(s, 2));
        assert!(h.is_quarantined(s));
        assert_eq!(h.note_skipped(s), 1);
        assert_eq!(h.note_skipped(s), 2);
        // Release: back in rotation, streaks clean.
        assert!(h.release(s));
        assert!(!h.is_quarantined(s));
        assert_eq!(h.failure_streak(s), 0);
        assert!(!h.release(s), "double release reports not-quarantined");
        // Skip window restarted: the counter begins at 1 again.
        // Re-quarantine requires a full fresh streak and is reported as new.
        assert!(!h.record_failure(s, 2));
        assert!(h.record_failure(s, 2));
        assert!(h.is_quarantined(s));
        assert_eq!(h.note_skipped(s), 1, "skip window reset by release");
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

    #[test]
    fn engine_quarantine_skips_without_sending() {
        let mut engine = ProbeEngine::new(QueryPlan::with_attempts(1).quarantine_after(1));
        let mut net = Network::new(1);
        let server = ip(9); // unregistered: every probe times out
        net.register_external(ip(8));
        let qname: Name = "probe.example".parse().unwrap();
        // First probe exhausts attempts and trips the breaker.
        assert!(engine
            .query(&mut net, ip(8), server, &qname, RecordType::A, 77)
            .is_none());
        assert!(engine.health.is_quarantined(server));
        let sent_after_first = net.stats().delivered + net.stats().dropped;
        // Second probe is skipped entirely — no new traffic.
        assert!(engine
            .query(&mut net, ip(8), server, &qname, RecordType::A, 78)
            .is_none());
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
    fn engine_cooldown_releases_recovered_server() {
        use simnet::FaultPlan;
        // Quarantine on the first failure; health-probe after 2 skips.
        let mut engine = ProbeEngine::new(QueryPlan {
            quarantine_cooldown: 2,
            ..QueryPlan::with_attempts(1).quarantine_after(1)
        });
        let mut net = Network::new(5);
        let server = ip(9);
        net.add_node(server, Box::new(Responder));
        let qname: Name = "probe.example".parse().unwrap();
        let probe = |engine: &mut ProbeEngine, net: &mut Network, qid| {
            engine.query(net, ip(8), server, &qname, RecordType::A, qid)
        };

        // Outage: full loss -> the probe times out and trips the breaker.
        net.set_faults(FaultPlan::lossy(1.0));
        assert!(probe(&mut engine, &mut net, 1).is_none());
        assert!(engine.health.is_quarantined(server));

        // Server recovers, but the engine must sit out the cooldown first.
        net.set_faults(FaultPlan::reliable());
        assert!(probe(&mut engine, &mut net, 2).is_none(), "skip 1");
        assert_eq!(engine.coverage.skipped_quarantined, 1);
        // Second quarantined probe reaches the cooldown: sent as a health
        // probe, answered, and the server re-enters rotation.
        assert!(probe(&mut engine, &mut net, 3).is_some());
        assert!(!engine.health.is_quarantined(server));
        // Normal service resumes.
        assert!(probe(&mut engine, &mut net, 4).is_some());

        // Re-quarantine on a fresh outage; the server appears only once in
        // the historical quarantine list.
        net.set_faults(FaultPlan::lossy(1.0));
        assert!(probe(&mut engine, &mut net, 5).is_none());
        assert!(engine.health.is_quarantined(server));
        assert_eq!(engine.coverage.quarantined_servers, vec![server]);

        let cov = &engine.coverage;
        assert_eq!(cov.scheduled, 5);
        assert_eq!(cov.answered, 2);
        assert_eq!(cov.gave_up, 2);
        assert_eq!(cov.skipped_quarantined, 1);
        assert!(cov.is_complete());
    }

    #[test]
    fn engine_cooldown_failure_restarts_window() {
        let mut engine = ProbeEngine::new(QueryPlan {
            quarantine_cooldown: 2,
            ..QueryPlan::with_attempts(1).quarantine_after(1)
        });
        let mut net = Network::new(6);
        let server = ip(9); // unregistered: every transmission times out
        net.register_external(ip(8));
        let qname: Name = "probe.example".parse().unwrap();
        let probe = |engine: &mut ProbeEngine, net: &mut Network, qid| {
            engine.query(net, ip(8), server, &qname, RecordType::A, qid)
        };
        assert!(probe(&mut engine, &mut net, 1).is_none()); // quarantined
        let traffic =
            |net: &Network| net.stats().delivered + net.stats().dropped + net.stats().no_route;
        assert!(probe(&mut engine, &mut net, 2).is_none()); // skip 1
        let before = traffic(&net);
        assert!(probe(&mut engine, &mut net, 3).is_none()); // health probe, fails
        assert!(traffic(&net) > before, "health probe must hit the wire");
        assert!(
            engine.health.is_quarantined(server),
            "failed health probe keeps quarantine"
        );
        // Window restarted: the very next probe is a silent skip again.
        let before = traffic(&net);
        assert!(probe(&mut engine, &mut net, 4).is_none());
        assert_eq!(traffic(&net), before, "skip sends nothing");
        assert_eq!(engine.coverage.skipped_quarantined, 2);
        assert_eq!(engine.coverage.gave_up, 2);
        assert!(engine.coverage.is_complete());
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
        assert!(engine.health.rtt_estimate(server).is_none());
        assert!(engine
            .query(&mut net, ip(8), server, &qname, RecordType::A, 1)
            .is_some());
        let est = engine.health.rtt_estimate(server).expect("one sample");
        assert_eq!(est.samples, 1);
        assert!(est.srtt_us > 0, "virtual clock advanced during the rpc");
    }

    #[test]
    fn adaptive_health_probe_uses_derived_timeout() {
        use simnet::FaultPlan;
        // Regression for the quarantine-release probe inheriting the fixed
        // 5 s timeout: under heterogeneous latency a recovered server's
        // health probe must wait only the per-server derived timeout.
        let mut engine = ProbeEngine::new(
            QueryPlan {
                quarantine_cooldown: 1,
                ..QueryPlan::with_attempts(1).quarantine_after(1)
            }
            .adaptive(),
        );
        let mut net = Network::new(7);
        let server = ip(9);
        net.add_node(server, Box::new(Responder));
        let qname: Name = "probe.example".parse().unwrap();
        // Warm-up success seeds the estimate for this (heterogeneous,
        // per-pair) latency.
        assert!(engine
            .query(&mut net, ip(8), server, &qname, RecordType::A, 1)
            .is_some());
        let est = engine.health.rtt_estimate(server).expect("sampled");
        let derived = engine.plan.derived_timeout(&est);
        assert!(derived < engine.plan.timeout);
        // Outage trips the breaker (a failure adds no RTT sample, so the
        // derived timeout is unchanged).
        net.set_faults(FaultPlan::lossy(1.0));
        assert!(engine
            .query(&mut net, ip(8), server, &qname, RecordType::A, 2)
            .is_none());
        assert!(engine.health.is_quarantined(server));
        // A cooldown of 1 skip: the next probe is already the health probe.
        // It fails, and the virtual time it burns is exactly the derived
        // timeout — not the fixed 5 s.
        let before = net.now();
        assert!(engine
            .query(&mut net, ip(8), server, &qname, RecordType::A, 3)
            .is_none());
        assert_eq!(net.now().since(before), derived);
        // Server recovers; the next health probe releases it.
        net.set_faults(FaultPlan::reliable());
        assert!(engine
            .query(&mut net, ip(8), server, &qname, RecordType::A, 4)
            .is_some());
        assert!(!engine.health.is_quarantined(server));
        assert!(engine.coverage.is_complete());
    }

    #[test]
    fn take_coverage_resets_but_keeps_health() {
        let mut engine = ProbeEngine::new(QueryPlan::with_attempts(1).quarantine_after(1));
        let mut net = Network::new(2);
        net.register_external(ip(8));
        let qname: Name = "probe.example".parse().unwrap();
        engine.query(&mut net, ip(8), ip(9), &qname, RecordType::A, 1);
        let cov = engine.take_coverage();
        assert_eq!(cov.scheduled, 1);
        assert_eq!(engine.coverage, CoverageReport::default());
        assert!(engine.health.is_quarantined(ip(9)));
    }
}
