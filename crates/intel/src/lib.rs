//! # intel — threat intelligence, IDS and the malware sandbox
//!
//! The malicious-behaviour-analysis substrate (paper §4.3):
//!
//! * [`VendorFeed`] / [`IntelAggregator`] — multi-vendor IP blacklists with
//!   tags, aggregated VirusTotal-style ("flagged by N vendors").
//! * [`IdsEngine`] — a Snort/Suricata-like rule engine over captured flows,
//!   producing categorized, severity-graded [`Alert`]s.
//! * [`Sandbox`] — executes [`MalwareSample`] behaviour scripts against the
//!   simulated network, captures every flow, and runs the IDS over the
//!   capture, yielding [`SandboxReport`]s.
//! * [`malware`] — behaviour models for the families in the paper's case
//!   studies (Dark.IoT, Specter, Tesla, Micropsia) and the generic corpus.
//!
//! URHunter consumes both signals exactly as the paper does: an IP is
//! malicious if threat intelligence flags it, or if sandbox traffic toward
//! it triggers alerts of at least medium severity.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod ids;
pub mod malware;
mod payloads;
mod sandbox;
mod vendors;

pub use ids::{Alert, AlertCategory, IdsEngine, Severity};
pub use payloads::{PayloadSignature, PayloadSignatureDb};
pub use sandbox::{
    extract_ipv4s, question, C2ServerNode, C2Target, MalwareOp, MalwareSample, Sandbox,
    SandboxReport,
};
pub use vendors::{IntelAggregator, ThreatTag, VendorFeed};
