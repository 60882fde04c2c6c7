//! Ethics-mode query scheduling (paper Appendix A): randomized query
//! order and a per-server minimum interval, so no nameserver sees more
//! than one probe per spacing window on average.
//!
//! Pacing is built on [`TokenBucket`]s running on the virtual clock: one
//! bucket per server (burst 1, so admissions to a server are never closer
//! than the interval) plus an optional global [`SharedTokenBucket`]
//! capping the whole scanner's aggregate probe rate (`--rate-limit`),
//! shared by every shard of a scan.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Network, SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Condvar, Mutex};

/// Per-server pacing: the paper queried each server on average once every
/// 130 seconds while interleaving across servers.
pub(crate) const PAPER_PER_SERVER_INTERVAL: SimDuration = SimDuration(130_000_000);

/// Deterministic token bucket on the virtual clock.
///
/// Tokens accrue one per `interval`; an admission spends one. `burst`
/// bounds how many may be banked, so an idle period can never be repaid
/// with a flood larger than the burst. All arithmetic is integer
/// microseconds: the refill schedule is exact, not drifting.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    interval: SimDuration,
    burst: u64,
    tokens: u64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A full bucket: `burst` tokens available immediately (minimum 1).
    pub fn new(interval: SimDuration, burst: u64) -> Self {
        let burst = burst.max(1);
        TokenBucket {
            interval,
            burst,
            tokens: burst,
            last_refill: SimTime::ZERO,
        }
    }

    /// Accrue whole tokens earned up to `now`. `last_refill` only advances
    /// by whole intervals (or snaps to `now` when the bucket tops out), so
    /// fractional credit is never lost or double-counted.
    fn refill(&mut self, now: SimTime) {
        if self.interval == SimDuration::ZERO {
            self.tokens = self.burst;
            self.last_refill = now;
            return;
        }
        if now < self.last_refill {
            return;
        }
        let earned = now.since(self.last_refill).as_micros() / self.interval.as_micros();
        if self.tokens.saturating_add(earned) >= self.burst {
            self.tokens = self.burst;
            self.last_refill = now;
        } else {
            self.tokens += earned;
            self.last_refill += SimDuration::from_micros(earned * self.interval.as_micros());
        }
    }

    /// Earliest time at or after `now` when one token is available.
    pub fn next_ready(&mut self, now: SimTime) -> SimTime {
        self.refill(now);
        if self.tokens > 0 {
            now
        } else {
            self.last_refill + self.interval
        }
    }

    /// Spend one token. Callers admit at a time returned by
    /// [`TokenBucket::next_ready`], so a token is always available.
    pub fn take(&mut self, now: SimTime) {
        self.refill(now);
        debug_assert!(self.tokens > 0, "take() before next_ready()");
        self.tokens = self.tokens.saturating_sub(1);
    }
}

/// One global admission point shared by every shard of a scan, so
/// `--rate-limit` composes with more than one shard. With one shard it is
/// a plain [`TokenBucket`] behind a lock.
///
/// Each shard runs its own fabric with its own virtual clock starting at
/// zero, but a *global* rate cap is a statement about the whole scan. The
/// shared bucket therefore meters admissions on the **concatenated
/// timeline** — the same clock a 1-shard run would have used: shard `s`
/// admits at `offset + local_now`, where `offset` is the summed elapsed
/// sim-time of shards `0..s`. To keep that timeline well-defined, shard
/// `s` may not admit until every earlier shard has called
/// [`SharedTokenBucket::finish_shard`]; rate-limited shard *scans* thus
/// serialize (they are throttle-bound anyway — workers still overlap
/// fabric construction), and the admission schedule, wait totals, and
/// digests are bit-identical for every worker count.
#[derive(Debug)]
pub(crate) struct SharedTokenBucket {
    interval: SimDuration,
    state: Mutex<SharedBucketState>,
    turn: Condvar,
}

#[derive(Debug)]
struct SharedBucketState {
    /// The shard currently allowed to admit (all earlier shards finished).
    cursor: usize,
    /// Sum of finished shards' elapsed sim-time: the concatenated-clock
    /// origin of the shard at `cursor`.
    offset: SimDuration,
    bucket: TokenBucket,
}

impl SharedTokenBucket {
    /// A shareable burst-1 global bucket with the given refill interval.
    pub(crate) fn new(interval: SimDuration) -> Arc<Self> {
        Arc::new(SharedTokenBucket {
            interval,
            state: Mutex::new(SharedBucketState {
                cursor: 0,
                offset: SimDuration::ZERO,
                bucket: TokenBucket::new(interval, 1),
            }),
            turn: Condvar::new(),
        })
    }

    /// The global refill interval.
    pub(crate) fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Block the calling OS thread until it is `shard`'s turn to admit.
    fn wait_turn(&self, shard: usize) -> std::sync::MutexGuard<'_, SharedBucketState> {
        let mut st = self.state.lock().expect("shared bucket lock");
        while st.cursor != shard {
            st = self.turn.wait(st).expect("shared bucket lock");
        }
        st
    }

    /// Earliest **local** time at or after `now` when `shard` may admit.
    /// Blocks until it is `shard`'s turn.
    pub(crate) fn next_ready(&self, shard: usize, now: SimTime) -> SimTime {
        let mut st = self.wait_turn(shard);
        let offset = st.offset;
        let ready = st.bucket.next_ready(now + offset);
        SimTime(ready.as_micros() - offset.as_micros())
    }

    /// Spend one token at local time `now` on `shard`'s clock.
    pub(crate) fn take(&self, shard: usize, now: SimTime) {
        let mut st = self.wait_turn(shard);
        let offset = st.offset;
        st.bucket.take(now + offset);
    }

    /// Shard `shard` finished scanning after `elapsed` of local sim-time:
    /// append it to the concatenated timeline and hand the bucket to the
    /// next shard. Must be called exactly once per shard, even for shards
    /// that never admitted anything.
    pub(crate) fn finish_shard(&self, shard: usize, elapsed: SimDuration) {
        let mut st = self.wait_turn(shard);
        st.offset = st.offset + elapsed;
        st.cursor += 1;
        drop(st);
        self.turn.notify_all();
    }
}

/// Randomizes task order and enforces per-server spacing in simulated time.
#[derive(Debug)]
pub struct QueryScheduler {
    interval: SimDuration,
    buckets: HashMap<Ipv4Addr, TokenBucket>,
    /// The global cap and the shard this scheduler admits for.
    global: Option<(Arc<SharedTokenBucket>, usize)>,
    rng: StdRng,
    wait_us: u64,
}

impl QueryScheduler {
    /// A scheduler with the given per-server interval and no global cap.
    pub fn new(seed: u64, interval: SimDuration) -> Self {
        QueryScheduler {
            interval,
            buckets: HashMap::new(),
            global: None,
            rng: StdRng::seed_from_u64(seed),
            wait_us: 0,
        }
    }

    /// Add a global rate cap: at most one probe (to any server) per
    /// `interval` of simulated time. `ZERO` removes the cap. The bucket is
    /// private to this scheduler: a one-shard shared bucket.
    pub fn with_global_interval(mut self, interval: SimDuration) -> Self {
        self.global =
            (interval != SimDuration::ZERO).then(|| (SharedTokenBucket::new(interval), 0));
        self
    }

    /// Use a [`SharedTokenBucket`] as the global cap: this scheduler admits
    /// shard `shard`'s probes against the scan-wide concatenated timeline.
    ///
    /// The first [`QueryScheduler::admit`] blocks the calling OS thread
    /// until every earlier shard has called
    /// [`SharedTokenBucket::finish_shard`] — that hand-off is what makes a
    /// rate-limited multi-shard scan bit-identical for any worker count.
    pub(crate) fn with_shared_global(
        mut self,
        bucket: Arc<SharedTokenBucket>,
        shard: usize,
    ) -> Self {
        self.global = Some((bucket, shard));
        self
    }

    /// Shuffle the task list into the randomized probe order.
    pub fn randomize<T>(&mut self, tasks: &mut [T]) {
        worldgen::shuffle(&mut self.rng, tasks);
    }

    /// The per-server interval this scheduler enforces. Shard workers use
    /// it to build their own pacing state over the same policy.
    pub(crate) fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The global rate-cap interval (`ZERO` when uncapped).
    pub(crate) fn global_interval(&self) -> SimDuration {
        self.global
            .as_ref()
            .map_or(SimDuration::ZERO, |(g, _)| g.interval())
    }

    /// Block (in simulated time) until `server` may be queried again —
    /// respecting both the per-server bucket and the global cap — then
    /// spend a token from each.
    pub fn admit(&mut self, net: &mut Network, server: Ipv4Addr) {
        let now = net.now();
        let mut ready = self
            .buckets
            .entry(server)
            .or_insert_with(|| TokenBucket::new(self.interval, 1))
            .next_ready(now);
        if let Some((g, shard)) = &self.global {
            ready = ready.max(g.next_ready(*shard, now));
        }
        if ready > now {
            net.run_until(ready);
            self.wait_us += ready.since(now).as_micros();
        }
        let t = net.now();
        if let Some(b) = self.buckets.get_mut(&server) {
            b.take(t);
        }
        if let Some((g, shard)) = &self.global {
            g.take(*shard, t);
        }
    }

    /// Total simulated time spent waiting on bucket refills, in µs.
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
        let mut net = Network::new(1);
        let mut sched = QueryScheduler::new(1, SimDuration::ZERO);
        let a = Ipv4Addr::new(1, 1, 1, 1);
        for _ in 0..10 {
            sched.admit(&mut net, a);
        }
        assert_eq!(sched.wait_us(), 0);
    }

    #[test]
    fn bucket_burst_one_matches_next_allowed_semantics() {
        // The three cases the old `next_allowed` map handled: first admit
        // (free), early arrival (wait to last + interval), late arrival
        // (free, next slot anchored at arrival).
        let i = SimDuration::from_micros(1_000);
        let mut b = TokenBucket::new(i, 1);
        let t0 = SimTime(5);
        assert_eq!(b.next_ready(t0), t0);
        b.take(t0);
        // Early: ready exactly at t0 + interval.
        let t1 = SimTime(200);
        assert_eq!(b.next_ready(t1), t0 + i);
        b.take(t0 + i);
        // Late: immediately ready, no banked credit beyond burst.
        let t2 = SimTime(50_000);
        assert_eq!(b.next_ready(t2), t2);
        b.take(t2);
        assert_eq!(b.next_ready(t2), t2 + i);
    }

    #[test]
    fn bucket_burst_caps_banked_tokens() {
        let i = SimDuration::from_micros(100);
        let mut b = TokenBucket::new(i, 3);
        let t = SimTime(1_000_000); // long idle: still only 3 tokens
        for _ in 0..3 {
            assert_eq!(b.next_ready(t), t);
            b.take(t);
        }
        assert_eq!(b.next_ready(t), t + i);
    }

    #[test]
    fn shared_bucket_meters_the_concatenated_timeline() {
        // Two shards sharing one bucket must see exactly the admissions a
        // single bucket would grant on the spliced clock: shard 1's first
        // probe is only free if shard 0's elapsed time already covers the
        // interval.
        let i = SimDuration::from_millis(50);
        let shared = SharedTokenBucket::new(i);
        // Shard 0: admit at local 0, then hand off after 20 ms elapsed.
        assert_eq!(shared.next_ready(0, SimTime::ZERO), SimTime::ZERO);
        shared.take(0, SimTime::ZERO);
        shared.finish_shard(0, SimDuration::from_millis(20));
        // Shard 1 starts at concatenated t=20ms; the bucket refills at
        // t=50ms, i.e. local 30ms on shard 1's clock.
        assert_eq!(
            shared.next_ready(1, SimTime::ZERO),
            SimTime(SimDuration::from_millis(30).as_micros())
        );
        let local = SimTime(SimDuration::from_millis(30).as_micros());
        shared.take(1, local);
        assert_eq!(shared.next_ready(1, local), local + i);
        shared.finish_shard(1, SimDuration::from_millis(60));
    }

    #[test]
    fn shared_bucket_serializes_shard_turns() {
        // Shard 1's first admission must block until shard 0 finishes,
        // even when shard 1's thread gets there first.
        let shared = SharedTokenBucket::new(SimDuration::from_millis(10));
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let s1 = &shared;
            let order1 = &order;
            scope.spawn(move || {
                let ready = s1.next_ready(1, SimTime::ZERO);
                s1.take(1, ready);
                order1.lock().unwrap().push("shard1-admitted");
                s1.finish_shard(1, SimDuration::from_millis(5));
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            order.lock().unwrap().push("shard0-finishing");
            shared.take(0, shared.next_ready(0, SimTime::ZERO));
            shared.finish_shard(0, SimDuration::from_millis(5));
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec!["shard0-finishing", "shard1-admitted"]
        );
    }

    #[test]
    fn scheduler_with_shared_global_matches_owned_global_for_one_shard() {
        // With a single shard the shared bucket must reproduce the
        // schedule of a plain bucket owned by the caller exactly.
        let g = SimDuration::from_millis(50);
        let owned = {
            let mut net = Network::new(1);
            let mut bucket = TokenBucket::new(g, 1);
            let (mut stamps, mut wait_us) = (Vec::new(), 0u64);
            for _ in 0..6 {
                let now = net.now();
                let ready = bucket.next_ready(now);
                if ready > now {
                    net.run_until(ready);
                    wait_us += ready.since(now).as_micros();
                }
                bucket.take(net.now());
                stamps.push(net.now());
            }
            (stamps, wait_us)
        };
        let run = |mut sched: QueryScheduler| {
            let mut net = Network::new(1);
            let mut stamps = Vec::new();
            for k in 0..6u8 {
                sched.admit(&mut net, Ipv4Addr::new(9, 9, 9, k));
                stamps.push(net.now());
            }
            (stamps, sched.wait_us())
        };
        let private = run(QueryScheduler::new(1, SimDuration::ZERO).with_global_interval(g));
        let shared = run(QueryScheduler::new(1, SimDuration::ZERO)
            .with_shared_global(SharedTokenBucket::new(g), 0));
        assert_eq!(private, owned);
        assert_eq!(shared, owned);
    }

    #[test]
    fn global_cap_spaces_probes_across_servers() {
        let mut net = Network::new(1);
        let g = SimDuration::from_millis(50);
        let mut sched = QueryScheduler::new(1, SimDuration::ZERO).with_global_interval(g);
        assert_eq!(sched.global_interval(), g);
        let mut last: Option<SimTime> = None;
        for k in 0..6u8 {
            // Distinct servers: only the global bucket can force a wait.
            sched.admit(&mut net, Ipv4Addr::new(9, 9, 9, k));
            if let Some(prev) = last {
                assert!(net.now().since(prev) >= g, "global spacing violated");
            }
            last = Some(net.now());
        }
        assert_eq!(sched.wait_us(), 5 * g.as_micros());
    }
}
