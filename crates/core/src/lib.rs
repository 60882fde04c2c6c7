//! # urhunter — the paper's measurement framework, reproduced
//!
//! An implementation of **URHunter** from *"Wolf in Sheep's Clothing:
//! Evaluating Security Risks of the Undelegated Record on DNS Hosting
//! Services"* (IMC 2023), running against the synthetic internet built by
//! [`worldgen`].
//!
//! The pipeline has the paper's three components:
//!
//! 1. **Response collection** ([`collect`]) — select nameservers hosting
//!    ≥ 50 top-1M sites, probe them for every target domain (A + TXT) with
//!    randomized, rate-limited scheduling ([`QueryScheduler`]); gather
//!    *correct records* from stable open resolvers with AS/geo/cert
//!    enrichment, and *protective records* via canary probes.
//! 2. **Suspicious-record determination** ([`classify`]) — Appendix B's
//!    five uniformity conditions (with non-empty-subset semantics), HTTP
//!    parking/redirect keyword exclusion, exact protective matching, and
//!    TXT categorization.
//! 3. **Malicious-behaviour analysis** ([`mod@analyze`]) — threat-intel labels
//!    plus IDS alerts (severity ≥ medium) from malware-sandbox runs;
//!    corresponding-IP resolution for TXT URs (embedded or sibling-A).
//!
//! [`report`] aggregates the outcome into the paper's Table 1, Figure 2
//! and Figure 3 series; [`audit`] reconstructs Table 2 by actively probing
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
#![warn(missing_docs)]

pub mod analyze;
pub mod audit;
pub mod classify;
pub mod collect;
pub mod defense;
pub mod pipeline;
pub mod query;
pub mod report;
pub mod schedule;
pub mod store;
pub mod types;

pub use analyze::{analyze, evidence_histogram, run_sandboxes, Analysis, AnalyzeConfig};
pub use audit::{audit_provider, audit_table2, AuditRow};
pub use classify::{classify_shard, AttrCacheMetrics, ClassifyConfig, StreamClassifier};
pub use collect::{
    collect_correct, collect_protective, collect_urs_sharded, collect_urs_streamed,
    correct_db_from_stream, partition_scan_tasks, protective_db_from_stream, scan_stream,
    select_nameservers, CollectConfig, QidGen, RttSelector, ScanTask, ShardTasks,
    ShardedScanOutcome, NS_SELECTION_THRESHOLD,
};
pub use defense::{BypassAlert, EgressMonitor};
pub use pipeline::{
    classified_sequence_hash, evaluate_false_negatives, run, run_streamed, HunterConfig, RunOutput,
    SequenceHasher, StreamRunOutput,
};
pub use query::{
    CoverageReport, NsHealth, ProbeEngine, ProbeReply, QueryPlan, RttEstimate, DEFAULT_RTT_K,
};
pub use report::{build_report, ProviderRow, Report, ReportBuilder, Table1Row, Totals};
pub use schedule::{QueryScheduler, SharedTokenBucket, TokenBucket, PAPER_PER_SERVER_INTERVAL};
pub use store::UrStore;
pub use types::{
    ClassifiedUr, CollectedUr, CorrectDb, CorrectReason, DomainProfile, MaliciousEvidence,
    ProtectiveDb, ProtectiveProfile, TxtCategory, UrCategory, UrKey,
};
