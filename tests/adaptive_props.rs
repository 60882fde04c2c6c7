//! Property tests for the adaptive scheduling layer's three contracts:
//!
//! * the RTT estimator is a pure function of its sample sequence — two
//!   estimators fed the same samples agree bit for bit, and the update is
//!   exactly the Jacobson/Karels integer recurrence;
//! * the derived timeout is monotone in the variance estimate and always
//!   clamped into `[min(min_timeout, timeout), timeout]`;
//! * a token bucket never admits two probes to one server
//!   closer together than its interval, no matter how arrivals cluster;
//!
//! and, on the wire, that the scheduler's per-server pacing never lets the
//! fabric's flow log show two transmissions to one server inside its
//! interval.

use proptest::prelude::*;
use simnet::{SimDuration, SimTime};
use urhunter::{
    select_nameservers, CollectConfig, ProbeEngine, QueryPlan, QueryScheduler, RttEstimate,
    TokenBucket,
};
use worldgen::{World, WorldConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn estimator_is_deterministic_and_jacobson(
        samples in proptest::collection::vec(1u64..10_000_000, 1..64),
    ) {
        // Two estimators fed the same sequence agree exactly.
        let feed = |samples: &[u64]| -> RttEstimate {
            let mut est = RttEstimate::first(SimDuration::from_micros(samples[0]));
            for &us in &samples[1..] {
                est.update(SimDuration::from_micros(us));
            }
            est
        };
        let a = feed(&samples);
        let b = feed(&samples);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.samples, samples.len() as u64);

        // And the state is exactly the integer recurrence, replayed here
        // independently: srtt = (7*srtt + rtt) / 8, rttvar =
        // (3*rttvar + |srtt - rtt|) / 4, seeded srtt = s0, rttvar = s0/2.
        let mut srtt = samples[0];
        let mut rttvar = samples[0] / 2;
        for &us in &samples[1..] {
            rttvar = (3 * rttvar + srtt.abs_diff(us)) / 4;
            srtt = (7 * srtt + us) / 8;
        }
        prop_assert_eq!(a.srtt_us, srtt);
        prop_assert_eq!(a.rttvar_us, rttvar);
    }

    #[test]
    fn derived_timeout_is_clamped_and_monotone_in_variance(
        srtt_us in 0u64..20_000_000,
        rttvar_lo in 0u64..10_000_000,
        var_step in 0u64..10_000_000,
        timeout_ms in 1u64..30_000,
        min_timeout_ms in 0u64..40_000,
    ) {
        let plan = QueryPlan::default()
            .adaptive()
            .timeout(SimDuration::from_millis(timeout_ms))
            .min_timeout(SimDuration::from_millis(min_timeout_ms));
        let floor = plan.min_timeout.min(plan.timeout);
        let derived = |rttvar_us: u64| {
            plan.derived_timeout(&RttEstimate { srtt_us, rttvar_us, samples: 1 })
        };
        let lo = derived(rttvar_lo);
        let hi = derived(rttvar_lo.saturating_add(var_step));
        for d in [lo, hi] {
            prop_assert!(d >= floor, "derived {:?} under floor {:?}", d, floor);
            prop_assert!(d <= plan.timeout, "derived {:?} over plan timeout", d);
        }
        // More variance can only lengthen (or saturate) the timeout.
        prop_assert!(hi >= lo, "rttvar +{} shrank the timeout", var_step);
    }

    #[test]
    fn token_bucket_spaces_admissions_by_at_least_the_interval(
        interval_us in 1u64..5_000_000,
        gaps in proptest::collection::vec(0u64..10_000_000, 1..128),
    ) {
        // Arrivals at arbitrary (monotone) times; each waits for the
        // bucket like `QueryScheduler::admit` does. No two admissions may
        // land closer together than the interval, and waiting never
        // reorders: each admission is at or after its arrival.
        let mut bucket = TokenBucket::new(SimDuration::from_micros(interval_us));
        let mut now = SimTime::ZERO;
        let mut admitted: Vec<SimTime> = Vec::with_capacity(gaps.len());
        for gap in gaps {
            now += SimDuration::from_micros(gap);
            let at = bucket.next_ready(now).max(now);
            bucket.take(at);
            prop_assert!(at >= now, "admission before arrival");
            admitted.push(at);
        }
        for pair in admitted.windows(2) {
            let spacing = pair[1].since(pair[0]);
            prop_assert!(
                spacing >= SimDuration::from_micros(interval_us),
                "admissions {:?} apart, interval {}us",
                spacing,
                interval_us
            );
        }
    }
}

/// The pacing contract on the wire itself: with a per-server interval, the
/// fabric's flow log must never show two scanner UDP transmissions to one
/// server closer together than the interval (delivery spacing, since
/// per-pair latency is constant). Drives the two primitives the contract
/// is about — the scheduler's `admit` and the engine's `query` — over every
/// nameserver × target pair on the world's own trace-enabled fabric, one
/// server's targets after another, so every admission but a server's first
/// must wait.
#[test]
fn flow_log_never_shows_transmissions_inside_the_interval() {
    for adaptive in [false, true] {
        let interval = SimDuration::from_millis(250);
        let mut world = World::generate(WorldConfig::small());
        let collect_cfg = CollectConfig::default();
        let nameservers = select_nameservers(&world, collect_cfg.min_tail_sites);
        let targets = world.scan_targets();
        let mut plan = QueryPlan::default();
        if adaptive {
            plan = plan.adaptive();
        }
        let mut engine = ProbeEngine::new(plan);
        let mut scheduler = QueryScheduler::new(0x5545, interval);
        world.net.trace.set_enabled(true);
        let mut answered = 0usize;
        for (ni, ns) in nameservers.iter().enumerate() {
            for (di, domain) in targets.iter().enumerate() {
                scheduler.admit(&mut world.net, ns.ip);
                let qid =
                    urhunter::QidGen::of(urhunter::scan_stream(ni, di), dnswire::RecordType::A);
                let reply = engine.probe(
                    &mut world.net,
                    collect_cfg.scanner_ip,
                    (ns.ip, None),
                    domain,
                    dnswire::RecordType::A,
                    qid,
                    |_| true,
                    |_, _| (),
                );
                answered += usize::from(reply.is_some());
            }
        }
        assert!(answered > 0, "paced scan got no reply");

        // Scanner→server UDP datagrams only: TCP fallback legs belong to an
        // already-admitted probe, and replies are the servers' business.
        let probes: Vec<_> = world
            .net
            .trace
            .records()
            .iter()
            .filter(|r| {
                r.src.ip == collect_cfg.scanner_ip
                    && r.dst.port == 53
                    && r.proto == simnet::Proto::Udp
            })
            .collect();
        assert!(probes.len() > 100, "too few probes to exercise the pacing");

        // Constant per-pair latency means delivery spacing equals send
        // spacing, so consecutive deliveries to one server obey the interval.
        let mut by_server: std::collections::HashMap<std::net::Ipv4Addr, Vec<u64>> =
            std::collections::HashMap::new();
        for r in &probes {
            by_server
                .entry(r.dst.ip)
                .or_default()
                .push(r.at.as_micros());
        }
        for (server, times) in by_server {
            for pair in times.windows(2) {
                assert!(
                    pair[1] - pair[0] >= interval.as_micros(),
                    "server {server} probed {}us apart (adaptive={adaptive})",
                    pair[1] - pair[0]
                );
            }
        }
    }
}
