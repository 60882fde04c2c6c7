//! The two committed documents: the pipeline's exact invariants behind
//! `BENCH_pipeline.json` ([`invariants`]) and the paper's tables and
//! figures behind `RESULTS.md` ([`paper`]).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod invariants;
pub mod paper;
