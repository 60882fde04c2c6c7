//! `urhunterd`: the resident UR scanning daemon.
//!
//! The one-shot `urhunter` pipeline answers "what undelegated records
//! exist right now?" and exits. The paper's threat, though, is a moving
//! target: hosting accounts lapse, attackers claim dangling names,
//! verdicts flip from benign to hijacked between looks. This crate turns
//! the scanner into a *service* that watches the world drift:
//!
//! * [`events`] — an event-sourced results store. Each re-scan is diffed
//!   against the materialized [`events::VerdictStore`] and committed to
//!   an append-only [`events::EventLog`] as `Observed` / `VerdictChanged`
//!   / `Gone` deltas, sealed with deterministic hashes so replaying the
//!   log provably reconstructs the live state. Snapshot + compaction
//!   bound the log without losing replayability.
//! * [`EpochDriver`] — the re-scan scheduler. Epoch admission is paced on
//!   the simulated clock by the same token-bucket machinery that paces
//!   per-server probes, the world evolves deterministically between
//!   epochs, and every scan runs the full existing pipeline.
//! * [`start`] — a zero-dependency HTTP control plane serving
//!   `/verdict/<domain>`, `/deltas?since=<epoch>`, `/coverage`,
//!   `/healthz`, and `/metrics` (the same Prometheus exporter the CLI
//!   uses) from a shared [`LiveState`].
//!
//! Because the classified sequence is bit-identical across worker counts,
//! so are the event stream and every epoch seal — which is
//! what lets `tests/daemon_http.rs` check a live daemon's HTTP answers
//! against an independent in-process run of the same configuration.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod client;
mod config;
mod driver;
pub mod events;
mod http;
mod service;

pub use client::{http_get, json_str_field, json_u64_field};
pub use config::{parse_flags, usage};
pub use driver::{DriverConfig, EpochDriver, EpochScan, EpochSummary, LiveState, WorldScale};
pub use events::{
    Epoch, EpochRecord, EpochSeal, EventLog, Snapshot, UrEvent, UrState, VerdictStore,
};
pub use service::{start, DaemonConfig, DaemonHandle};
