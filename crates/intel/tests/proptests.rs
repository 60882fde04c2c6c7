//! Property tests: IP extraction never panics and obeys its contract on
//! arbitrary input.

use intel::extract_ipv4s;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn extract_ipv4s_never_panics_and_returns_valid_addrs(s in "\\PC{0,200}") {
        for ip in extract_ipv4s(&s) {
            // every returned address must literally appear in the text
            // (modulo the ip4:/cidr wrappers we strip)
            prop_assert!(s.contains(&ip.to_string()));
        }
    }

    #[test]
    fn spf_mechanisms_are_always_recovered(a in any::<[u8; 4]>(), b in any::<[u8; 4]>()) {
        let ia = std::net::Ipv4Addr::from(a);
        let ib = std::net::Ipv4Addr::from(b);
        let text = format!("v=spf1 ip4:{ia} ip4:{ib}/24 -all");
        let got: Vec<_> = extract_ipv4s(&text).collect();
        prop_assert!(got.contains(&ia));
        // the /24 form yields the network-side address as written
        prop_assert_eq!(got.len(), 2);
    }
}
