//! Property tests for the retry engine's two determinism contracts:
//!
//! * the backoff schedule is monotone non-decreasing, bounded by its
//!   configured maximum, and a pure function of (seed, probe key, attempt);
//! * query ids under retries behave like a real scanner's: a retransmitted
//!   probe reuses its qid (so a late reply to any transmission matches),
//!   while fresh probes never collide within a `(target, rtype)` stream.

use dnswire::RecordType;
use proptest::prelude::*;
use simnet::SimDuration;
use urhunter::{ProbeEngine, QidGen, QueryPlan};

fn arb_rtype() -> impl Strategy<Value = RecordType> {
    prop_oneof![
        Just(RecordType::A),
        Just(RecordType::Txt),
        Just(RecordType::Mx),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn backoff_is_monotone_and_bounded(
        base_ms in 1u64..5_000,
        max_ms in 1u64..60_000,
        seed in any::<u64>(),
        key in any::<u64>(),
    ) {
        let plan = QueryPlan {
            backoff_base: SimDuration::from_millis(base_ms),
            backoff_max: SimDuration::from_millis(max_ms),
            backoff_seed: seed,
            ..QueryPlan::default()
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=12u32 {
            let d = plan.backoff(key, attempt);
            prop_assert!(d >= prev, "attempt {}: {:?} < {:?}", attempt, d, prev);
            prop_assert!(d <= plan.backoff_max, "attempt {}: {:?} over cap", attempt, d);
            prop_assert!(d > SimDuration::ZERO, "attempt {}: zero delay", attempt);
            prev = d;
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed(
        seed in any::<u64>(),
        key in any::<u64>(),
        attempt in 1u32..16,
    ) {
        let plan = QueryPlan::default().seed(seed);
        prop_assert_eq!(plan.backoff(key, attempt), plan.backoff(key, attempt));
        // A rebuilt plan with the same seed agrees: no hidden state.
        let rebuilt = QueryPlan::default().seed(seed);
        prop_assert_eq!(plan.backoff(key, attempt), rebuilt.backoff(key, attempt));
    }

    #[test]
    fn backoff_varies_with_seed_somewhere(seed in any::<u64>()) {
        let a = QueryPlan::default().seed(seed);
        let b = QueryPlan::default().seed(seed.wrapping_add(1));
        // Jitter must actually depend on the seed: across a handful of
        // probe keys and attempts the two schedules cannot be identical.
        let schedule = |p: &QueryPlan| -> Vec<SimDuration> {
            (0u64..8)
                .flat_map(|k| (1..=4u32).map(move |n| (k, n)))
                .map(|(k, n)| p.backoff(k, n))
                .collect()
        };
        prop_assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn qidgen_never_collides_within_a_stream(
        stream in any::<u64>(),
        rtype in arb_rtype(),
        n in 1u32..4_096,
    ) {
        let mut seen = std::collections::HashSet::with_capacity(n as usize);
        for i in 0..n {
            let qid = QidGen::nth(stream, rtype, i);
            prop_assert!(qid != 0, "qid 0 is reserved");
            prop_assert!(seen.insert(qid), "qid {} repeated within stream", qid);
        }
    }

    #[test]
    fn qidgen_streams_are_independent(
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        rtype in arb_rtype(),
    ) {
        // A stream's sequence is a function of its own key and draw count
        // alone: drawing from another stream in between (retransmissions
        // elsewhere) never shifts local qids, in whatever order the draws
        // are made.
        let own: Vec<u16> = (0..64).map(|i| QidGen::nth(s1, rtype, i)).collect();
        let mut interleaved: Vec<u16> = (0..64)
            .rev()
            .map(|i| {
                let _ = QidGen::nth(s2, rtype, i);
                QidGen::nth(s1, rtype, i)
            })
            .collect();
        interleaved.reverse();
        prop_assert_eq!(own, interleaved);
    }

    #[test]
    fn sharded_qid_streams_never_collide_within_a_shard(
        ni in 0usize..512,
        di_base in 0usize..1_000_000,
        rtype in arb_rtype(),
        n in 1u32..2_048,
    ) {
        // A shard worker keys qid streams by (nameserver, target) via
        // `scan_stream`. Within one stream — one flow, where collisions
        // could actually mismatch a late reply — ids must stay unique,
        // and a sibling pair on the same shard is a different stream.
        let stream = urhunter::scan_stream(ni, di_base);
        let sibling = urhunter::scan_stream(ni, di_base.wrapping_add(1));
        prop_assert_ne!(stream, sibling);
        let mut seen = std::collections::HashSet::with_capacity(n as usize);
        for i in 0..n {
            let qid = QidGen::nth(stream, rtype, i);
            prop_assert!(qid != 0, "qid 0 is reserved");
            prop_assert!(seen.insert(qid), "qid {} repeated within stream", qid);
        }
    }

    #[test]
    fn shard_partitioning_is_a_permutation(
        ns_count in 1usize..48,
        domains in 1usize..48,
        shards in 1usize..12,
        seed in any::<u64>(),
    ) {
        // Build a randomized pseudo task list like the collector does:
        // the full (nameserver, domain) cross product, shuffled.
        let mut tasks: Vec<(usize, usize, RecordType)> = (0..ns_count)
            .flat_map(|ni| (0..domains).map(move |di| (ni, di, RecordType::A)))
            .collect();
        let mut sched = urhunter::QueryScheduler::new(seed, SimDuration::ZERO);
        sched.randomize(&mut tasks);

        let parts = urhunter::partition_scan_tasks(&tasks, ns_count, shards);
        prop_assert!(parts.len() <= shards.min(ns_count).max(1));

        // Every global index appears exactly once, mapped to its own task:
        // splicing by index reconstructs the unsharded order losslessly.
        let mut seen = vec![false; tasks.len()];
        for part in &parts {
            let mut prev = None;
            let mut shard_ns = std::collections::HashSet::new();
            for &(gidx, task) in part {
                prop_assert!(!seen[gidx], "global index {} assigned twice", gidx);
                seen[gidx] = true;
                prop_assert_eq!(task, tasks[gidx]);
                // Within a shard the global randomized order is preserved.
                prop_assert!(prev.is_none_or(|p| p < gidx));
                prev = Some(gidx);
                shard_ns.insert(task.0);
            }
            // A nameserver never straddles shards.
            for other in &parts {
                if std::ptr::eq(part, other) {
                    continue;
                }
                for &(_, task) in other {
                    prop_assert!(!shard_ns.contains(&task.0));
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some task was dropped");
    }
}

/// A retransmitted probe must reuse its qid on the wire: every datagram the
/// engine sends for one probe carries the same DNS message id, so a late
/// reply to an earlier transmission still matches. Verified against the
/// fabric's flow log under total loss (every attempt retransmits).
#[test]
fn retransmissions_reuse_the_same_qid_on_the_wire() {
    let scanner: std::net::Ipv4Addr = "10.0.0.2".parse().unwrap();
    let server: std::net::Ipv4Addr = "10.9.9.9".parse().unwrap();
    let mut net = simnet::Network::new(42).with_faults(simnet::FaultPlan::lossy(1.0));
    net.register_external(scanner);
    let qname: dnswire::Name = "probe.example".parse().unwrap();

    let mut engine = ProbeEngine::new(QueryPlan::with_attempts(4).quarantine_after(0));
    let qid = 0x4242;
    assert!(engine
        .query(&mut net, scanner, server, &qname, RecordType::A, qid)
        .is_none());
    assert_eq!(engine.coverage.gave_up, 1);
    assert_eq!(engine.coverage.retransmissions, 3);

    let sent: Vec<&simnet::FlowRecord> = net
        .trace
        .records()
        .iter()
        .filter(|r| r.dst.ip == server)
        .collect();
    assert_eq!(sent.len(), 4, "4 attempts must put 4 datagrams on the wire");
    for r in &sent {
        let wire_qid = u16::from_be_bytes([r.payload[0], r.payload[1]]);
        assert_eq!(wire_qid, qid, "retransmission changed the qid");
        // Same source port too — the reply path must stay identical.
        assert_eq!(r.src.port, sent[0].src.port);
    }
}
