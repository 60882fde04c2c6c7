//! Property-based tests for the DNS wire format: arbitrary messages
//! round-trip, and arbitrary bytes never panic the decoder.

use dnswire::{
    Flags, Message, MessageView, Name, Opcode, Question, RData, RDataSet, Rcode, Record, RecordType,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| Name::from_labels(labels).expect("generated labels are valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..4)
            .prop_map(RData::Txt),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                }
            }),
        (64u16..=2000, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(rtype, data)| RData::Unknown { rtype, data }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(n, ttl, rd)| Record::new(n, ttl, rd))
}

fn arb_rtype() -> impl Strategy<Value = RecordType> {
    prop_oneof![
        Just(RecordType::A),
        Just(RecordType::Ns),
        Just(RecordType::Cname),
        Just(RecordType::Soa),
        Just(RecordType::Mx),
        Just(RecordType::Txt),
        Just(RecordType::Aaaa),
        Just(RecordType::Any),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        proptest::collection::vec((arb_name(), arb_rtype()), 1..3),
        proptest::collection::vec(arb_record(), 0..6),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(
            |(id, response, qs, answers, authorities, additionals)| Message {
                id,
                flags: Flags {
                    response,
                    opcode: Opcode::Query,
                    authoritative: response,
                    recursion_desired: true,
                    rcode: Rcode::NoError,
                    ..Flags::default()
                },
                questions: qs.into_iter().map(|(n, t)| Question::new(n, t)).collect(),
                answers,
                authorities,
                additionals,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_roundtrips(m in arb_message()) {
        let wire = m.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn a_data_set_keeps_every_answer_as_decoded(m in arb_message()) {
        // Compressed on the wire, written out in full in the set: read
        // back, each record equals, renders as and owns what the owned
        // decoder makes of it.
        let wire = m.encode().unwrap();
        let (id, set) =
            MessageView::parse_keeping(&wire, |_| true, |view, set| (view.id, set.to_set())).unwrap();
        prop_assert_eq!(id, m.id);
        prop_assert_eq!(set.is_empty(), m.answers.is_empty());
        let decoded = Message::decode(&wire).unwrap().answers;
        let kept: Vec<_> = set.iter().collect();
        prop_assert_eq!(kept.len(), decoded.len());
        for (kept, r) in kept.into_iter().zip(&decoded) {
            prop_assert!(kept == r.rdata, "{} vs {}", kept, r.rdata);
            prop_assert_eq!(kept.to_string(), r.rdata.to_string());
            prop_assert_eq!(kept.record_type(), r.rtype());
            prop_assert_eq!(kept.as_a(), r.rdata.as_a());
            prop_assert_eq!(kept.txt_str(), r.rdata.txt_str());
        }
        // A filter keeps exactly the answers it accepts, in order.
        let a_only = MessageView::parse_keeping(
            &wire,
            |r| r.rtype() == RecordType::A,
            |_, kept| kept.to_set(),
        )
        .unwrap();
        let owned_a: RDataSet = decoded
            .iter()
            .filter(|r| r.rtype() == RecordType::A)
            .map(|r| r.rdata.clone())
            .collect();
        prop_assert_eq!(a_only, owned_a);
        let owned: RDataSet = decoded.into_iter().map(|r| r.rdata).collect();
        prop_assert_eq!(owned, set);
    }

    #[test]
    fn decoder_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid(m in arb_message(), idx in any::<usize>(), bit in 0u8..8) {
        let mut wire = m.encode().unwrap();
        if !wire.is_empty() {
            let i = idx % wire.len();
            wire[i] ^= 1 << bit;
            let _ = Message::decode(&wire);
        }
    }

    #[test]
    fn name_text_roundtrip(n in arb_name()) {
        let text = n.to_string();
        let back: Name = text.parse().unwrap();
        prop_assert_eq!(back, n);
    }

    #[test]
    fn name_wire_roundtrip(n in arb_name()) {
        let mut buf = Vec::new();
        n.encode_uncompressed(&mut buf);
        prop_assert_eq!(buf.len(), n.wire_len());
        let mut pos = 0;
        let back = Name::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(back, n);
    }

    #[test]
    fn truncated_encode_always_fits(m in arb_message(), limit in 64usize..512) {
        let wire = m.encode_truncated(limit).unwrap();
        // either it fits, or every record was dropped and only header+questions remain
        let decoded = Message::decode(&wire).unwrap();
        if wire.len() > limit {
            prop_assert!(decoded.answers.is_empty());
            prop_assert!(decoded.authorities.is_empty());
            prop_assert!(decoded.additionals.is_empty());
        }
        if decoded.flags.truncated {
            prop_assert!(decoded.answers.len() + decoded.authorities.len() + decoded.additionals.len()
                <= m.answers.len() + m.authorities.len() + m.additionals.len());
        }
    }

    #[test]
    fn subdomain_is_reflexive_and_transitive(a in arb_name(), suffix in arb_label()) {
        prop_assert!(a.is_subdomain_of(&a));
        let child = a.child(suffix.as_bytes());
        if let Ok(c) = child {
            prop_assert!(c.is_subdomain_of(&a));
            if let Some(p) = a.parent() {
                prop_assert!(c.is_subdomain_of(&p));
            }
        }
    }
}
