//! Property tests for the retry engine's two determinism contracts:
//!
//! * the backoff schedule is monotone non-decreasing, bounded by its
//!   configured maximum, and a pure function of (seed, probe key, attempt);
//! * query ids under retries behave like a real scanner's: a retransmitted
//!   probe reuses its qid (so a late reply to any transmission matches),
//!   and a probe's id is a fixed, nonzero function of its stream and type.

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
    fn qidgen_streams_are_independent(stream in any::<u64>(), rtype in arb_rtype()) {
        // A qid is a function of its own stream and type alone, and 0 is
        // reserved.
        prop_assert_ne!(QidGen::of(stream, rtype), 0);
    }
}

/// Every product path sends one probe a `(stream, type)`, so `QidGen::of`
/// is the stream's only id. These are the ids the scan has always sent; on
/// a reliable network no committed hash reads a qid, so only this pin
/// would notice a changed one.
#[test]
fn qidgen_of_keeps_the_committed_ids() {
    use urhunter::scan_stream;
    for (stream, rtype, qid) in [
        (scan_stream(0, 0), RecordType::A, 671),
        (scan_stream(0, 0), RecordType::Txt, 10_720),
        (scan_stream(3, 17), RecordType::A, 46_070),
        (scan_stream(8_940, 1_999), RecordType::Txt, 2_170),
        (12, RecordType::Txt, 62_041),
        (u64::MAX, RecordType::A, 1_856),
    ] {
        assert_eq!(QidGen::of(stream, rtype), qid, "stream {stream:#x} {rtype}");
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
        .probe(
            &mut net,
            scanner,
            (server, None),
            &qname,
            RecordType::A,
            qid,
            |_| true,
            |_, _| ()
        )
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
