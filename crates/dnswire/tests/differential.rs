//! Differential tests: the flat `Name`, the streaming `MessageWriter` and
//! the borrowing `MessageView` against the implementation they replaced
//! (`reference/`), on generated and on hostile input.

mod reference;

use dnswire::{
    Flags, Message, MessageView, Name, NameKey, Opcode, Question, RData, Rcode, Record, RecordType,
    WireError, MAX_MESSAGE_LEN,
};
use proptest::prelude::*;
use reference::RefName;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::ops::Bound;

/// Labels drawn from a small mixed-case pool, so generated names share
/// suffixes (and differ in case where they do) far more often than chance.
fn arb_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("com".to_string()),
        Just("COM".to_string()),
        Just("example".to_string()),
        Just("Example".to_string()),
        Just("www".to_string()),
        Just("mail".to_string()),
        Just("ns1".to_string()),
        Just("a".to_string()),
        proptest::string::string_regex("[a-zA-Z0-9]([a-zA-Z0-9-]{0,14}[a-zA-Z0-9])?").unwrap(),
    ]
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..6)
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
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..4)
            .prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<[u8; 20]>()).prop_map(|(mname, rname, w)| {
            let word = |i: usize| u32::from_be_bytes([w[i], w[i + 1], w[i + 2], w[i + 3]]);
            RData::Soa {
                mname,
                rname,
                serial: word(0),
                refresh: word(4),
                retry: word(8),
                expire: word(12),
                minimum: word(16),
            }
        }),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(RData::Opt),
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

/// A message with up to `max` records in each section.
fn arb_message(max: usize) -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<u16>(),
        proptest::collection::vec((arb_name(), arb_rtype()), 0..3),
        proptest::collection::vec(arb_record(), 0..max),
        proptest::collection::vec(arb_record(), 0..max / 2 + 1),
        proptest::collection::vec(arb_record(), 0..max / 2 + 1),
    )
        .prop_map(
            |(id, flags, qs, answers, authorities, additionals)| Message {
                id,
                // Every flag bit the crate models, the Z bit left clear.
                flags: Flags::from_u16(flags & !0x0040),
                questions: qs.into_iter().map(|(n, t)| Question::new(n, t)).collect(),
                answers,
                authorities,
                additionals,
            },
        )
}

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The full encoding whatever its length: `encode_into` leaves the bytes
/// in the buffer even when it reports `MessageTooLong`.
fn encode_unbounded(m: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = m.encode_into(&mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_equals_reference(m in arb_message(8)) {
        prop_assert_eq!(m.encode(), reference::encode(&m));
    }

    #[test]
    fn encode_equals_reference_past_the_pointable_range(m in arb_message(160)) {
        // Up to ~300 records of up to ~600 bytes: most of these run past
        // 0x3FFF, where names are written but no longer become pointer
        // targets, and past MAX_MESSAGE_LEN, where `encode` refuses.
        let full = encode_unbounded(&m);
        prop_assert_eq!(&full, &reference::encode_unbounded(&m));
        prop_assert_eq!(m.encode(), reference::encode(&m));
        if full.len() > MAX_MESSAGE_LEN {
            prop_assert_eq!(m.encode(), Err(WireError::MessageTooLong(full.len())));
        }
    }

    #[test]
    fn truncation_equals_reference(m in arb_message(40), pick in 0usize..4) {
        let limit = [512, 1232, 4096, 64 + pick * 37][pick];
        let got = m.encode_truncated(limit);
        match reference::encode_truncated(&m, limit) {
            Ok(want) => prop_assert_eq!(got, Ok(want)),
            Err(WireError::MessageTooLong(n)) => {
                // The replaced encoder encoded the whole message before
                // looking at the limit and gave up above MAX_MESSAGE_LEN —
                // the silent-server bug. Rolling back gives what popping
                // and re-encoding would have, had it been allowed to start.
                prop_assert!(n > MAX_MESSAGE_LEN);
                let mut fitted = m.clone();
                fitted.flags.truncated = true;
                let mut want = reference::encode_unbounded(&fitted);
                while want.len() > limit {
                    let last = [&mut fitted.additionals, &mut fitted.authorities, &mut fitted.answers]
                        .into_iter()
                        .find(|s| !s.is_empty());
                    let Some(section) = last else { break };
                    section.pop();
                    want = reference::encode_unbounded(&fitted);
                }
                if want.len() > MAX_MESSAGE_LEN {
                    prop_assert_eq!(got, Err(WireError::MessageTooLong(want.len())));
                } else {
                    prop_assert_eq!(got, Ok(want));
                }
            }
            Err(e) => prop_assert!(false, "reference failed with {e}"),
        }
    }

    #[test]
    fn decode_equals_reference_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(Message::decode(&bytes), reference::decode(&bytes));
    }

    #[test]
    fn decode_equals_reference_on_structured_noise(
        counts in proptest::collection::vec(0u8..4, 4..5),
        body in proptest::collection::vec(
            prop_oneof![
                // Bytes that steer the parser: short labels, pointers at the
                // header and at the body, terminators, small lengths.
                Just(0u8), Just(1), Just(2), Just(3), Just(12), Just(0xC0), Just(0xC1), Just(0x40),
                any::<u8>(),
            ],
            0..120,
        ),
    ) {
        // A plausible header in front, so the parser gets past the counts
        // and into names and RDATA far more often than on uniform noise.
        let mut bytes = vec![0x12, 0x34, 0x81, 0x80];
        for c in counts {
            bytes.extend_from_slice(&[0, c]);
        }
        bytes.extend_from_slice(&body);
        prop_assert_eq!(Message::decode(&bytes), reference::decode(&bytes));
    }

    #[test]
    fn decode_equals_reference_on_mutated_encodings(
        m in arb_message(6),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        cut in any::<usize>(),
        grow in 0usize..3,
    ) {
        let mut wire = m.encode().unwrap();
        for (at, byte) in edits {
            let at = at % wire.len();
            wire[at] = byte;
        }
        prop_assert_eq!(Message::decode(&wire), reference::decode(&wire));
        // Trailing bytes, and every way of ending early.
        wire.extend(std::iter::repeat_n(0xAB, grow));
        prop_assert_eq!(Message::decode(&wire), reference::decode(&wire));
        wire.truncate(cut % (wire.len() + 1));
        prop_assert_eq!(Message::decode(&wire), reference::decode(&wire));
    }

    #[test]
    fn view_reads_what_decode_owns(m in arb_message(8)) {
        let wire = m.encode().unwrap();
        let view = MessageView::parse(&wire).unwrap();
        prop_assert_eq!(view.id, m.id);
        prop_assert_eq!(view.flags, m.flags);
        let lazily = Message {
            id: view.id,
            flags: view.flags,
            questions: view.questions().map(|q| q.to_question()).collect(),
            answers: view.answers().map(|r| r.to_record()).collect(),
            authorities: view.authorities().map(|r| r.to_record()).collect(),
            additionals: view.additionals().map(|r| r.to_record()).collect(),
        };
        prop_assert_eq!(&lazily, &reference::decode(&wire).unwrap());
        prop_assert_eq!(view.to_message(), lazily);
        for (v, r) in view.answers().zip(&m.answers) {
            prop_assert!(v.name.matches(r.name.borrowed()));
            prop_assert_eq!(v.rtype(), r.rtype());
            prop_assert_eq!(v.to_record(), r.clone());
        }
        prop_assert_eq!(view.answers().count(), m.answers.len());
        prop_assert_eq!(view.edns_payload_size(), m.edns_payload_size());
    }

    #[test]
    fn name_equals_reference(a in arb_name(), b in arb_name(), label in arb_label(), n in 0usize..8) {
        let (ra, rb) = (RefName::of(&a), RefName::of(&b));
        prop_assert_eq!(a.to_string(), ra.to_string());
        prop_assert_eq!(a.label_count(), ra.label_count());
        prop_assert_eq!(a.wire_len(), ra.wire_len());
        prop_assert_eq!(hash_of(&a), hash_of(&ra));
        prop_assert_eq!(a == b, ra == rb);
        prop_assert_eq!(a.cmp(&b), ra.cmp(&rb));
        prop_assert_eq!(a.is_subdomain_of(&b), ra.is_subdomain_of(&rb));
        prop_assert_eq!(a.suffix(n).map(|s| RefName::of(&s)), ra.suffix(n));
        prop_assert_eq!(a.parent().map(|p| RefName::of(&p)), ra.parent());
        prop_assert_eq!(
            a.child(&label).map(|c| RefName::of(&c)),
            ra.child(&label)
        );
        // A name and its own suffixes: the cases random pairs rarely hit.
        if let Some(s) = a.suffix(n) {
            let rs = RefName::of(&s);
            prop_assert!(a.is_subdomain_of(&s));
            prop_assert_eq!(s.is_subdomain_of(&a), rs.is_subdomain_of(&ra));
            prop_assert_eq!(a.cmp(&s), ra.cmp(&rs));
            // The borrowed suffix is the owned suffix in all but ownership.
            let borrowed = a.borrowed().suffix(n).unwrap();
            prop_assert_eq!(borrowed, s.borrowed());
            prop_assert_eq!(hash_of(&borrowed), hash_of(&rs));
            prop_assert_eq!(borrowed.to_string(), rs.to_string());
        }
    }

    #[test]
    fn borrowed_key_lookups_equal_owned_key_lookups(
        keys in proptest::collection::vec(arb_name(), 0..12),
        q in arb_name(),
    ) {
        let hashed: HashMap<Name, usize> = keys.iter().cloned().zip(0..).collect();
        let ordered: BTreeMap<Name, usize> = keys.iter().cloned().zip(0..).collect();
        for take in 0..=q.label_count() {
            let owned = q.suffix(take).unwrap();
            let borrowed = q.borrowed().suffix(take).unwrap();
            let key: &dyn NameKey = &borrowed;
            prop_assert_eq!(hashed.get(key), hashed.get(&owned));
            prop_assert_eq!(ordered.get(key), ordered.get(&owned));
            prop_assert_eq!(
                ordered
                    .range::<dyn NameKey, _>((Bound::Included(key), Bound::Unbounded))
                    .next(),
                ordered.range::<Name, _>(&owned..).next()
            );
        }
        // Iteration order of the ordered map is the reference's order.
        let mut want: Vec<RefName> = ordered.keys().map(RefName::of).collect();
        want.sort();
        let got: Vec<RefName> = ordered.keys().map(RefName::of).collect();
        prop_assert_eq!(got, want);
    }
}

/// A query for `name`, then hand-built bytes after it.
fn query_then(name: &str, counts: [u16; 3], tail: &[u8]) -> Vec<u8> {
    let q = Message::query(7, Question::new(name.parse().unwrap(), RecordType::A));
    let mut wire = q.encode().unwrap();
    for (i, c) in counts.iter().enumerate() {
        wire[6 + 2 * i..8 + 2 * i].copy_from_slice(&c.to_be_bytes());
    }
    wire.extend_from_slice(tail);
    wire
}

/// Fixed header of a record of `rtype` with `rdlength`, owner `example.com`
/// by pointer to the question.
fn record_head(rtype: u16, rdlength: u16) -> Vec<u8> {
    let mut r = vec![0xC0, 12];
    r.extend_from_slice(&rtype.to_be_bytes());
    r.extend_from_slice(&[0, 1, 0, 0, 0, 60]);
    r.extend_from_slice(&rdlength.to_be_bytes());
    r
}

#[test]
fn hostile_encodings_are_judged_as_before() {
    let with_rdata = |rtype: u16, rdlength: u16, rdata: &[u8]| {
        let mut tail = record_head(rtype, rdlength);
        tail.extend_from_slice(rdata);
        query_then("example.com", [1, 0, 0], &tail)
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("pointer to itself", with_rdata(5, 2, &[0xC0, 41])),
        ("pointer forwards", with_rdata(5, 2, &[0xC0, 200])),
        ("pointer into the header", with_rdata(5, 2, &[0xC0, 2])),
        (
            "pointer pair, the first forwards",
            with_rdata(5, 4, &[0xC0, 43, 0xC0, 41]),
        ),
        ("pointer cut in half", with_rdata(5, 1, &[0xC0])),
        ("reserved label type", with_rdata(5, 2, &[0x80, 0])),
        ("rdata shorter than declared", with_rdata(1, 4, &[1, 2])),
        ("A of five bytes", with_rdata(1, 5, &[1, 2, 3, 4, 5])),
        ("MX of two bytes", with_rdata(15, 2, &[0, 10])),
        (
            "name running past its rdata",
            with_rdata(2, 1, &[3, b'n', b's', b'1', 0]),
        ),
        (
            "TXT string past its rdata",
            with_rdata(16, 3, &[9, b'a', b'b']),
        ),
        (
            "SOA without its words",
            with_rdata(6, 4, &[0xC0, 12, 0xC0, 12]),
        ),
        ("trailing byte", query_then("example.com", [0, 0, 0], &[0])),
        (
            "answer promised, none sent",
            query_then("example.com", [1, 0, 0], &[]),
        ),
        (
            "second authority missing",
            query_then("example.com", [0, 2, 0], &{
                let mut one = record_head(1, 4);
                one.extend_from_slice(&[10, 0, 0, 1]);
                one
            }),
        ),
        ("two questions promised", {
            let mut w = query_then("example.com", [0, 0, 0], &[]);
            w[5] = 2;
            w
        }),
        ("a name of 256 bytes", {
            let label = [&[63u8][..], &[b'x'; 63]].concat();
            let mut tail = Vec::new();
            for _ in 0..4 {
                tail.extend_from_slice(&label);
            }
            tail.push(0);
            let mut w = vec![0, 7, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0];
            w.extend_from_slice(&tail);
            w.extend_from_slice(&[0, 1, 0, 1]);
            w
        }),
    ];
    for (what, wire) in cases {
        let want = reference::decode(&wire);
        assert_eq!(Message::decode(&wire), want, "{what}");
        assert_eq!(
            MessageView::parse(&wire).map(MessageView::to_message),
            want,
            "{what}"
        );
    }
}

#[test]
fn pointer_chain_of_129_hops_is_refused_128_accepted() {
    // Record 1 (an opaque type) carries `a.` and a ladder of pointers, the
    // first at the name, each next one at the rung below. Record 2's owner
    // points at the top rung: reading it takes one hop to get onto the
    // ladder and one per rung.
    for (rungs, ok) in [(127usize, true), (128, false)] {
        let name_at = 12 + 1 + 10;
        let ladder_at = name_at + 3;
        let mut msg = vec![0, 7, 0x80, 0, 0, 0, 0, 2, 0, 0, 0, 0];
        msg.push(0);
        msg.extend_from_slice(&[0x03, 0xE7, 0, 1, 0, 0, 0, 60]);
        msg.extend_from_slice(&((3 + 2 * rungs) as u16).to_be_bytes());
        msg.extend_from_slice(&[1, b'a', 0]);
        for i in 0..rungs {
            let target = if i == 0 {
                name_at
            } else {
                ladder_at + 2 * (i - 1)
            };
            msg.extend_from_slice(&[0xC0 | (target >> 8) as u8, target as u8]);
        }
        let top = ladder_at + 2 * (rungs - 1);
        msg.extend_from_slice(&[0xC0 | (top >> 8) as u8, top as u8]);
        msg.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1]);
        let want = reference::decode(&msg);
        assert_eq!(want.is_ok(), ok, "{rungs} rungs: {want:?}");
        assert_eq!(Message::decode(&msg), want);
        if let Ok(m) = &want {
            assert_eq!(m.answers[1].name, "a".parse::<Name>().unwrap());
        } else {
            assert_eq!(want, Err(WireError::PointerLimit));
        }
    }
}

#[test]
fn oversized_rrset_is_truncated_not_refused() {
    // ~260 A records encode to more than MAX_MESSAGE_LEN untruncated; the
    // replaced encoder failed on them before it ever looked at the limit.
    let owner: Name = "fat.example".parse().unwrap();
    let q = Message::query(9, Question::new(owner.clone(), RecordType::A));
    let mut m = Message::response_to(&q, Rcode::NoError);
    for i in 0..300u16 {
        let ip = Ipv4Addr::new(203, 0, (i >> 8) as u8, i as u8);
        m.answers.push(Record::new(owner.clone(), 60, RData::A(ip)));
    }
    assert!(matches!(
        reference::encode_truncated(&m, 512),
        Err(WireError::MessageTooLong(_))
    ));
    for limit in [512usize, 1232, 4096] {
        let wire = m.encode_truncated(limit).unwrap();
        assert!(wire.len() <= limit);
        // Not one more record would have fitted.
        assert!(wire.len() + 16 > limit);
        let back = Message::decode(&wire).expect("a whole number of records");
        assert!(back.flags.truncated);
        assert_eq!(back.answers[..], m.answers[..back.answers.len()]);
        assert_eq!(back.flags.opcode, Opcode::Query);
    }
}

#[test]
fn questions_alone_past_the_limit_carry_tc_as_before() {
    // Nothing to roll back: a REFUSED echoing two long questions goes out
    // whole and over the limit, with TC set, from both encoders.
    let long = |c: &str| -> Name { format!("{0}.{0}.example", c.repeat(30)).parse().unwrap() };
    let mut q = Message::query(11, Question::new(long("a"), RecordType::A));
    q.questions.push(Question::new(long("b"), RecordType::Txt));
    let m = Message::response_to(&q, Rcode::Refused);
    assert!(m.answers.is_empty() && m.authorities.is_empty() && m.additionals.is_empty());

    let wire = m.encode_truncated(64).unwrap();
    assert_eq!(wire, reference::encode_truncated(&m, 64).unwrap());
    assert!(wire.len() > 64);
    assert!(Message::decode(&wire).unwrap().flags.truncated);

    // Within the limit nothing is marked.
    let wire = m.encode_truncated(512).unwrap();
    assert_eq!(wire, reference::encode_truncated(&m, 512).unwrap());
    assert!(!Message::decode(&wire).unwrap().flags.truncated);
}

/// Bytes allocated, by a counting allocator armed around one call.
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static BYTES: Cell<Option<usize>> = const { Cell::new(None) };
    }

    pub struct Counting;

    // SAFETY: defers to `System` for every operation; the bookkeeping is a
    // thread-local counter that never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = BYTES.try_with(|b| b.set(b.get().map(|n| n + layout.size())));
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    pub fn bytes_allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        BYTES.with(|b| b.set(Some(0)));
        let out = f();
        let n = BYTES.with(|b| b.replace(None)).unwrap_or(0);
        (out, n)
    }
}

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

#[test]
fn lying_counts_cost_nothing_before_they_are_refused() {
    // A bare header claiming 65,535 entries in one section: refused with
    // the same CountMismatch as ever, but no longer after reserving room
    // for what it promised (~2 MiB for the question section).
    for (section, at) in [
        ("question", 4),
        ("answer", 6),
        ("authority", 8),
        ("additional", 10),
    ] {
        let mut wire = [0u8; 12];
        wire[at] = 0xFF;
        wire[at + 1] = 0xFF;
        let (got, bytes) = counting::bytes_allocated_by(|| Message::decode(&wire));
        assert_eq!(
            got,
            Err(WireError::CountMismatch {
                section,
                declared: 0xFFFF,
                parsed: 0
            })
        );
        assert_eq!(got, reference::decode(&wire));
        assert!(bytes < 1024, "{section}: {bytes} bytes allocated");
    }
}
