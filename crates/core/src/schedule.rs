//! Ethics-mode query scheduling (paper Appendix A): randomized query
//! order and a per-server minimum interval, so no nameserver sees more
//! than one probe per spacing window on average.
//!
//! Pacing is one [`TokenBucket`] per server on the virtual clock:
//! admissions to a server are never closer than the interval. The scan
//! paces per server only, as the paper does.

use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Network, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Per-server pacing: the paper queried each server on average once every
/// 130 seconds while interleaving across servers.
pub(crate) const PAPER_PER_SERVER_INTERVAL: SimDuration = SimDuration(130_000_000);

/// Deterministic pacing on the virtual clock: a token bucket of burst 1.
///
/// An admission at `t` makes the next one ready at `t + interval`, and an
/// idle period banks no credit. All arithmetic is integer microseconds.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    interval: SimDuration,
    next: SimTime,
}

impl TokenBucket {
    /// A bucket that admits immediately.
    pub fn new(interval: SimDuration) -> Self {
        TokenBucket {
            interval,
            next: SimTime::ZERO,
        }
    }

    /// Earliest time at or after `now` when an admission is allowed.
    pub fn next_ready(&self, now: SimTime) -> SimTime {
        now.max(self.next)
    }

    /// Admit at `now`, a time returned by [`TokenBucket::next_ready`].
    pub fn take(&mut self, now: SimTime) {
        debug_assert!(now >= self.next, "take() before next_ready()");
        self.next = now + self.interval;
    }
}

/// Randomizes task order and enforces per-server spacing in simulated time.
#[derive(Debug)]
pub struct QueryScheduler {
    seed: u64,
    interval: SimDuration,
    buckets: FxHashMap<Ipv4Addr, TokenBucket>,
    rng: StdRng,
    wait_us: u64,
}

impl QueryScheduler {
    /// A scheduler with the given per-server interval (`ZERO` = unpaced).
    pub fn new(seed: u64, interval: SimDuration) -> Self {
        QueryScheduler {
            seed,
            interval,
            buckets: FxHashMap::default(),
            rng: StdRng::seed_from_u64(seed),
            wait_us: 0,
        }
    }

    /// The scan paces per server only. This stays for callers that still
    /// thread [`HunterConfig::rate_limit_interval`](crate::HunterConfig)
    /// through it: that interval is always `ZERO`, and any other value
    /// panics rather than being ignored.
    pub fn with_global_interval(self, interval: SimDuration) -> Self {
        assert_eq!(
            interval,
            SimDuration::ZERO,
            "the scan paces per server only: no global interval is supported"
        );
        self
    }

    /// Shuffle `tasks` into the randomized probe order.
    pub fn randomize<T>(&mut self, tasks: &mut [T]) {
        worldgen::shuffle(&mut self.rng, tasks);
    }

    /// Scan shard `shard`'s scheduler: the same per-server interval with
    /// pacing state of its own, and an order seed derived from this one's
    /// and the shard index.
    pub(crate) fn for_shard(&self, shard: usize) -> QueryScheduler {
        let seed = self.seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        QueryScheduler::new(seed, self.interval)
    }

    /// Block (in simulated time) until `server` may be queried again, then
    /// spend its token. An unpaced scheduler admits at once and keeps no
    /// bucket.
    pub fn admit(&mut self, net: &mut Network, server: Ipv4Addr) {
        let interval = self.interval;
        if interval == SimDuration::ZERO {
            return;
        }
        let bucket = self
            .buckets
            .entry(server)
            .or_insert_with(|| TokenBucket::new(interval));
        let now = net.now();
        let ready = bucket.next_ready(now);
        if ready > now {
            net.run_until(ready);
            self.wait_us += ready.since(now).as_micros();
        }
        bucket.take(net.now());
    }

    /// The per-server interval (`ZERO` = unpaced).
    pub(crate) fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Total simulated time spent waiting for the buckets, in µs.
    pub(crate) fn wait_us(&self) -> u64 {
        self.wait_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacing_enforced_per_server() {
        let mut net = Network::new(1);
        let mut sched = QueryScheduler::new(1, SimDuration::from_secs(130));
        let a = Ipv4Addr::new(1, 1, 1, 1);
        let b = Ipv4Addr::new(2, 2, 2, 2);
        sched.admit(&mut net, a);
        let t0 = net.now();
        // different server: no wait
        sched.admit(&mut net, b);
        assert_eq!(net.now(), t0);
        // same server again: must advance at least 130s
        sched.admit(&mut net, a);
        assert!(net.now() >= t0 + SimDuration::from_secs(130));
        assert!(sched.wait_us() >= SimDuration::from_secs(130).as_micros());
    }

    #[test]
    fn randomize_permutes_deterministically() {
        let mut s1 = QueryScheduler::new(9, SimDuration::ZERO);
        let mut s2 = QueryScheduler::new(9, SimDuration::ZERO);
        let mut v1: Vec<u32> = (0..100).collect();
        let mut v2: Vec<u32> = (0..100).collect();
        s1.randomize(&mut v1);
        s2.randomize(&mut v2);
        assert_eq!(v1, v2);
        assert_ne!(v1, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zero_interval_never_waits() {
        // An unpaced scheduler admits at once: no clock advance, no
        // recorded wait, and no bucket kept.
        let mut net = Network::new(1);
        let mut sched = QueryScheduler::new(1, SimDuration::ZERO);
        let a = Ipv4Addr::new(1, 1, 1, 1);
        let t0 = net.now();
        for _ in 0..1_000 {
            sched.admit(&mut net, a);
        }
        assert_eq!(net.now(), t0);
        assert_eq!(sched.wait_us(), 0);
        assert!(
            sched.buckets.is_empty(),
            "an unpaced scheduler kept a bucket"
        );
    }

    #[test]
    fn bucket_burst_one_matches_next_allowed_semantics() {
        // The three cases the old `next_allowed` map handled: first admit
        // (free), early arrival (wait to last + interval), late arrival
        // (free, next slot anchored at arrival).
        let i = SimDuration::from_micros(1_000);
        let mut b = TokenBucket::new(i);
        let t0 = SimTime(5);
        assert_eq!(b.next_ready(t0), t0);
        b.take(t0);
        // Early: ready exactly at t0 + interval.
        let t1 = SimTime(200);
        assert_eq!(b.next_ready(t1), t0 + i);
        b.take(t0 + i);
        // Late: immediately ready, no banked credit.
        let t2 = SimTime(50_000);
        assert_eq!(b.next_ready(t2), t2);
        b.take(t2);
        assert_eq!(b.next_ready(t2), t2 + i);
    }

    #[test]
    #[should_panic(expected = "paces per server only")]
    fn a_nonzero_global_interval_panics() {
        let _ = QueryScheduler::new(1, SimDuration::ZERO)
            .with_global_interval(SimDuration::from_millis(500));
    }
}
