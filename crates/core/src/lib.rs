//! # urhunter — the paper's measurement framework, reproduced
//!
//! An implementation of **URHunter** from *"Wolf in Sheep's Clothing:
//! Evaluating Security Risks of the Undelegated Record on DNS Hosting
//! Services"* (IMC 2023), running against the synthetic internet built by
//! [`worldgen`].
//!
//! The pipeline has the paper's three components:
//!
//! 1. **Response collection** ([`select_nameservers`],
//!    [`collect_urs_sharded`]) — select nameservers hosting
//!    ≥ 50 top-1M sites, probe them for every target domain (A + TXT) with
//!    randomized, rate-limited scheduling ([`QueryScheduler`]); gather
//!    *correct records* from stable open resolvers with AS/geo/cert
//!    enrichment, and *protective records* via canary probes.
//! 2. **Suspicious-record determination** ([`StreamClassifier`]) — Appendix B's
//!    five uniformity conditions (with non-empty-subset semantics), HTTP
//!    parking/redirect keyword exclusion, exact protective matching, and
//!    TXT categorization.
//! 3. **Malicious-behaviour analysis** ([`fn@analyze`]) — threat-intel labels
//!    plus IDS alerts (severity ≥ medium) from malware-sandbox runs;
//!    corresponding-IP resolution for TXT URs (embedded or sibling-A).
//!
//! [`build_report`] aggregates the outcome into the paper's Table 1, Figure 2
//! and Figure 3 series; [`audit_table2`] reconstructs Table 2 by actively probing
//! each provider with two test accounts.
//!
//! ```
//! use urhunter::{run, HunterConfig};
//! use worldgen::{World, WorldConfig};
//!
//! let mut world = World::generate(WorldConfig::small());
//! let out = run(&mut world, &HunterConfig::fast());
//! assert!(out.report.totals.malicious > 0);
//! println!("{}", out.report.render_summary());
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod analyze;
mod audit;
mod classify;
pub mod cli;
mod collect;
mod defense;
mod pipeline;
mod query;
mod report;
mod schedule;
mod store;
mod types;

pub use analyze::{analyze, evidence_histogram, run_sandboxes, Analysis, AnalyzeConfig};
pub use audit::{audit_table2, AuditRow};
pub use classify::{ClassifyConfig, StreamClassifier};
pub use collect::{
    collect_correct, collect_protective, collect_urs_sharded, collect_urs_streamed,
    partition_scan_tasks, scan_stream, select_nameservers, CollectConfig, QidGen, RttSelector,
    ShardedScanOutcome,
};
pub use defense::{BypassAlert, EgressMonitor};
pub use pipeline::{
    classified_sequence_hash, evaluate_false_negatives, run, run_streamed, HunterConfig, RunOutput,
    StreamRunOutput,
};
pub use query::{CoverageReport, NsHealth, ProbeEngine, ProbeReply, QueryPlan, RttEstimate};
pub use report::{build_report, ProviderRow, Report, Table1Row, Totals};
pub use schedule::{QueryScheduler, TokenBucket};
pub use store::UrStore;
pub use types::{
    ClassifiedUr, CollectedUr, CorrectDb, CorrectReason, DomainProfile, MaliciousEvidence,
    ProtectiveDb, ProtectiveProfile, TxtCategory, UrCategory, UrKey,
};
