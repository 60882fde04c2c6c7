//! Public-suffix list: the effective TLDs a world registers.
//!
//! The paper's Appendix C distinguishes unregistered domains, subdomains,
//! SLDs and eTLDs (public suffixes such as `gov.cn`) as hosting targets.
//! Both world generators read this table and register every suffix in it
//! as a TLD zone.

use dnswire::Name;
use std::collections::HashSet;

/// The public-suffix list: a set of effective TLDs.
#[derive(Debug, Clone, Default)]
pub struct PublicSuffixList {
    suffixes: HashSet<Name>,
}

impl PublicSuffixList {
    /// The standard list used across the workspace: generic TLDs plus the
    /// government/education public suffixes the paper calls out (`gov.cn`,
    /// `edu.cn`, `gov.kp`, `edu.kp`, `gov.gd`, `edu.fm`, …).
    pub(crate) fn standard() -> Self {
        let suffixes = [
            "com", "net", "org", "io", "info", "biz", "xyz", "dev", "app", "de", "fr", "nl", "jp",
            "kr", "br", "in", "ru", "na", "gd", "fm", "kp", "cn", "uk", "us",
            // multi-label public suffixes
            "co.uk", "org.uk", "gov.uk", "com.cn", "gov.cn", "edu.cn", "co.jp", "gov.kp", "edu.kp",
            "gov.gd", "edu.fm", "info.na",
        ]
        .into_iter()
        .map(|s| s.parse().expect("static suffix parses"))
        .collect();
        PublicSuffixList { suffixes }
    }

    /// Every known suffix.
    pub(crate) fn suffixes(&self) -> impl Iterator<Item = &Name> {
        self.suffixes.iter()
    }
}
