//! Malware payload signatures for TXT-record command blobs.
//!
//! The paper's limitation (§6): "We also excluded the TXT URs lacking IP
//! addresses since we cannot identify whether they were malicious (e.g.,
//! encrypted TXT URs) … matching the TXT URs without IP addresses with
//! existing malware payloads is a valuable direction for future work."
//! This module is that direction: a corpus of byte patterns extracted from
//! known malware command channels, matched against TXT payloads.

use std::fmt;

/// One known malware payload pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadSignature {
    /// Family the pattern was extracted from.
    pub family: String,
    /// Byte pattern that must appear in the payload.
    pub(crate) pattern: Vec<u8>,
}

impl fmt::Display for PayloadSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}",
            self.family,
            String::from_utf8_lossy(&self.pattern)
        )
    }
}

/// A corpus of payload signatures.
#[derive(Debug, Clone, Default)]
pub struct PayloadSignatureDb {
    sigs: Vec<PayloadSignature>,
}

impl PayloadSignatureDb {
    /// An empty corpus.
    pub fn new() -> Self {
        PayloadSignatureDb::default()
    }

    /// Add a signature.
    pub(crate) fn add(&mut self, family: &str, pattern: &[u8]) {
        self.sigs.push(PayloadSignature {
            family: family.to_string(),
            pattern: pattern.to_vec(),
        });
    }

    /// First signature matching `payload`, if any.
    pub(crate) fn match_payload(&self, payload: &[u8]) -> Option<&PayloadSignature> {
        self.sigs.iter().find(|s| {
            !s.pattern.is_empty()
                && payload
                    .windows(s.pattern.len())
                    .any(|w| w == s.pattern.as_slice())
        })
    }

    /// Convenience for TXT strings.
    pub fn match_text(&self, text: &str) -> Option<&PayloadSignature> {
        self.match_payload(text.as_bytes())
    }

    /// The signatures matching the command-blob formats the modeled
    /// families embed in TXT records.
    pub fn standard() -> Self {
        let mut db = PayloadSignatureDb::new();
        // Dark.IoT TXT tasking: "dkt;<b64>" blobs.
        db.add("Dark.IoT", b"dkt;");
        // Specter encrypted channel marker.
        db.add("Specter", b"sp3c;");
        // Generic stage-2 loaders observed using "cmd64=" TXT blobs.
        db.add("GenericTrojan", b"cmd64=");
        // Cobalt-style beacon config in TXT.
        db.add("BeaconKit", b"bk-cfg:");
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_embedded_patterns() {
        let db = PayloadSignatureDb::standard();
        assert_eq!(
            db.match_text("v=1 cmd64=ZXhlYyBscw== t=9").unwrap().family,
            "GenericTrojan"
        );
        assert_eq!(db.match_text("dkt;AAAA////").unwrap().family, "Dark.IoT");
        assert!(db.match_text("v=spf1 ip4:1.2.3.4 -all").is_none());
        assert!(db.match_text("google-site-verification=xyz").is_none());
    }

    #[test]
    fn empty_db_matches_nothing() {
        let db = PayloadSignatureDb::new();
        assert!(db.sigs.is_empty());
        assert!(db.match_text("cmd64=AAAA").is_none());
    }

    #[test]
    fn custom_signatures() {
        let mut db = PayloadSignatureDb::new();
        db.add("X", b"xyzzy");
        assert_eq!(db.sigs.len(), 1);
        assert!(db.match_payload(b"prefix xyzzy suffix").is_some());
        assert!(db.match_payload(b"xyzz y").is_none());
    }

    #[test]
    fn display() {
        let mut db = PayloadSignatureDb::new();
        db.add("Fam", b"pat");
        assert_eq!(db.match_payload(b"pat").unwrap().to_string(), "Fam:pat");
    }
}
