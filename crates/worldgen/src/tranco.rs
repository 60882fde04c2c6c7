//! A synthetic Tranco-style popularity ranking.
//!
//! The paper targets the Tranco top 2K as query domains and the top 1M to
//! select heavily-used nameservers. Real Tranco snapshots are external
//! data; this generator produces a deterministic ranked list with a
//! realistic TLD mix and pins the case-study domains (§5.3 names like
//! `api.gitlab.com` rank 527, `raw.pastebin.com` rank 2033, `ibm.com` rank
//! 125, `api.github.com` rank 30, `speedtest.net` rank 415) at scaled
//! positions so the case-study experiments have their exact targets.

use dnswire::Name;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A ranked list of domains (rank 1 = most popular).
#[derive(Debug, Clone, Default)]
pub struct TrancoList {
    domains: Vec<Name>,
}

/// Case-study SLDs and the Tranco ranks the paper reports for them.
/// Positions are scaled into the generated list's size.
pub(crate) const CASE_STUDY_DOMAINS: [(&str, usize); 5] = [
    ("github.com", 30),     // api.github.com SLD rank 30 (Specter)
    ("ibm.com", 125),       // Specter
    ("speedtest.net", 415), // masquerading SPF
    ("gitlab.com", 527),    // api.gitlab.com (Dark.IoT 2021)
    ("pastebin.com", 2000), // raw.pastebin.com SLD rank 2033 (Dark.IoT 2023)
];

impl TrancoList {
    /// Generate a ranked list of `count` registrable domains, seeded.
    ///
    /// The case-study domains are pinned at their (scaled) paper ranks; the
    /// rest are synthetic `<word><i>.<tld>` names over a weighted TLD mix.
    pub(crate) fn generate(seed: u64, count: usize) -> Self {
        assert!(count >= 10, "list too small to be meaningful");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_6e6b);
        let tlds: &[(&str, u32)] = &[
            ("com", 50),
            ("net", 10),
            ("org", 10),
            ("io", 5),
            ("de", 4),
            ("cn", 4),
            ("co.uk", 3),
            ("jp", 3),
            ("info", 2),
            ("fr", 2),
            ("ru", 2),
            ("xyz", 1),
            ("dev", 1),
        ];
        let total_weight: u32 = tlds.iter().map(|(_, w)| w).sum();
        let words = [
            "search", "video", "shop", "news", "cloud", "mail", "play", "bank", "social", "stream",
            "wiki", "travel", "photo", "game", "music", "code", "data", "chat", "store", "blog",
        ];
        let mut domains: Vec<Option<Name>> = vec![None; count];
        // Pin case-study domains at scaled ranks.
        let paper_span = 2048.0;
        for (name, paper_rank) in CASE_STUDY_DOMAINS {
            let scaled = (((paper_rank as f64) / paper_span) * count as f64).round() as usize;
            let idx = scaled.clamp(1, count) - 1;
            let parsed: Name = name.parse().expect("static name parses");
            // find the nearest free slot
            let mut slot = idx;
            while domains[slot].is_some() {
                slot = (slot + 1) % count;
            }
            domains[slot] = Some(parsed);
        }
        let mut serial = 0usize;
        for slot in domains.iter_mut() {
            if slot.is_some() {
                continue;
            }
            let word = words[rng.random_range(0..words.len())];
            let mut pick = rng.random_range(0..total_weight);
            let mut tld = tlds[0].0;
            for (t, w) in tlds {
                if pick < *w {
                    tld = t;
                    break;
                }
                pick -= w;
            }
            serial += 1;
            let name: Name = format!("{word}{serial:04}.{tld}")
                .parse()
                .expect("generated name parses");
            *slot = Some(name);
        }
        let domains = domains.into_iter().map(|d| d.expect("all slots filled"));
        TrancoList {
            domains: domains.collect(),
        }
    }

    /// The list in rank order.
    pub fn domains(&self) -> &[Name] {
        &self.domains
    }

    /// Number of ranked domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// 1-based rank of a domain.
    pub fn rank(&self, domain: &Name) -> Option<usize> {
        self.domains.iter().position(|d| d == domain).map(|i| i + 1)
    }

    /// The top `k` domains.
    pub fn top(&self, k: usize) -> &[Name] {
        &self.domains[..k.min(self.domains.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_unique() {
        let a = TrancoList::generate(1, 300);
        let b = TrancoList::generate(1, 300);
        assert_eq!(a.domains(), b.domains());
        let mut sorted = a.domains().to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 300, "domains must be unique");
    }

    #[test]
    fn different_seeds_differ() {
        let a = TrancoList::generate(1, 100);
        let b = TrancoList::generate(2, 100);
        assert_ne!(a.domains(), b.domains());
    }

    #[test]
    fn case_study_domains_present_and_ordered() {
        let list = TrancoList::generate(7, 500);
        for (name, _) in CASE_STUDY_DOMAINS {
            let parsed: Name = name.parse().unwrap();
            assert!(list.rank(&parsed).is_some(), "{name} missing");
        }
        // github (paper rank 30) must outrank pastebin (paper rank ~2033)
        let github = list.rank(&"github.com".parse().unwrap()).unwrap();
        let pastebin = list.rank(&"pastebin.com".parse().unwrap()).unwrap();
        assert!(github < pastebin);
    }

    #[test]
    fn rank_lookup_matches_position() {
        let list = TrancoList::generate(3, 100);
        for (i, d) in list.domains().iter().enumerate() {
            assert_eq!(list.rank(d), Some(i + 1));
        }
        assert_eq!(list.top(10).len(), 10);
        assert_eq!(list.top(1000).len(), 100);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_list_rejected() {
        TrancoList::generate(1, 5);
    }
}
