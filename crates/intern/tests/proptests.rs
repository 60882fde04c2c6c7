//! Property tests pinning the `InternedName` ↔ `dnswire::Name`
//! equivalence contract: every observable operation on an interned name —
//! ordering, hashing, display, structure walks, wire round-trips — must
//! agree with the owned representation it stands in for. The pipeline's
//! pinned sequence hashes depend on this (interned domains feed the same
//! hasher bytes the owned names used to).

use dnswire::Name;
use intern::{InternedName, Sym};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A lowercase DNS label, 1–12 octets.
fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9][a-z0-9-]{0,11}").expect("regex strategy")
}

/// A 1–4 label name like the worlds generate.
fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..=4)
        .prop_map(|labels| Name::from_labels(labels.iter().map(String::as_bytes)).expect("fits"))
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn round_trips_through_the_interner(name in arb_name()) {
        let id = InternedName::intern(&name);
        prop_assert_eq!(id.to_name(), name.clone());
        // Re-interning is stable and hits the same id.
        prop_assert_eq!(InternedName::intern(&name), id);
    }

    #[test]
    fn hash_is_byte_compatible_with_name(name in arb_name()) {
        let id = InternedName::intern(&name);
        prop_assert_eq!(hash_of(&id), hash_of(&name));
    }

    #[test]
    fn display_and_structure_agree(name in arb_name()) {
        let id = InternedName::intern(&name);
        prop_assert_eq!(id.to_string(), name.to_string());
        prop_assert_eq!(id.name().label_count(), name.label_count());
        prop_assert_eq!(id.to_name().wire_len(), name.wire_len());
        prop_assert_eq!(
            id.name().labels().collect::<Vec<_>>(),
            name.labels().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ordering_agrees_with_name(a in arb_name(), b in arb_name()) {
        let (ia, ib) = (InternedName::intern(&a), InternedName::intern(&b));
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
        prop_assert_eq!(ia == ib, a == b);
    }

    #[test]
    fn parent_walk_agrees(name in arb_name()) {
        let mut owned = Some(name.clone());
        let mut interned = Some(InternedName::intern(&name));
        // Walk both representations to the root in lockstep.
        loop {
            match (owned, interned) {
                (Some(o), Some(i)) => {
                    prop_assert_eq!(i.to_name(), o.clone());
                    owned = o.parent();
                    interned = i.parent();
                }
                (None, i) => {
                    // Name::parent ends at None after the last label;
                    // InternedName::parent ends at the explicit root id.
                    prop_assert!(i.is_none() || i == Some(InternedName::root()));
                    break;
                }
                (o, None) => {
                    prop_assert!(o.is_none());
                    break;
                }
            }
        }
    }

    #[test]
    fn subdomain_and_suffix_agree(name in arb_name(), take in 1usize..=4) {
        let id = InternedName::intern(&name);
        if let Some(sfx) = name.suffix(take.min(name.label_count())) {
            let isfx = id.suffix(take.min(name.label_count())).expect("same arity");
            prop_assert_eq!(isfx.to_name(), sfx.clone());
            prop_assert_eq!(
                id.is_subdomain_of(&isfx),
                name.is_subdomain_of(&sfx)
            );
            prop_assert_eq!(
                id.is_strict_subdomain_of(&isfx),
                name.is_strict_subdomain_of(&sfx)
            );
        }
    }

    #[test]
    fn child_agrees(name in arb_name(), label in arb_label()) {
        let id = InternedName::intern(&name);
        match (name.child(label.as_bytes()), id.child(label.as_bytes())) {
            (Ok(o), Ok(i)) => prop_assert_eq!(i.to_name(), o),
            (Err(_), Err(_)) => {}
            (o, i) => prop_assert!(false, "child disagreement: {o:?} vs {i:?}"),
        }
    }

    #[test]
    fn wire_encoding_round_trips_via_interned(name in arb_name()) {
        let id = InternedName::intern(&name);
        let mut buf = Vec::new();
        id.to_name().encode_uncompressed(&mut buf);
        let mut pos = 0;
        let decoded = Name::decode(&buf, &mut pos).expect("round trip");
        prop_assert_eq!(pos, name.wire_len());
        prop_assert_eq!(decoded, name);
    }

    #[test]
    fn sym_lookup_is_intern_inverse(s in "[ -~]{0,40}") {
        // lookup never creates entries; after intern it must hit.
        let sym = Sym::intern(&s);
        prop_assert_eq!(sym.as_str(), s.as_str());
        prop_assert_eq!(Sym::lookup(&s), Some(sym));
        prop_assert_eq!(Sym::intern(&s), sym);
    }
}
