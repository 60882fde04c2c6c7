//! Property tests for the passive-DNS store's window arithmetic.

use dnswire::{Name, RData, RecordType};
use intern::InternedName;
use pdns::PassiveDns;
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn contains_iff_interval_intersects_window(
        first in 0u32..5_000,
        span in 0u32..2_000,
        today in 0u32..8_000,
        window in 0u32..4_000,
    ) {
        let last = first + span;
        let mut p = PassiveDns::new();
        let d: Name = "w.example".parse().unwrap();
        let rdata = RData::A(Ipv4Addr::new(1, 2, 3, 4));
        p.observe(d.clone(), RecordType::A, rdata.clone(), first, last);
        let horizon = today.saturating_sub(window);
        let expected = last >= horizon && first <= today;
        let di = InternedName::intern(&d);
        prop_assert_eq!(p.contains(&di, RecordType::A, &rdata, today, window), expected);
    }
}
