//! # authdns — authoritative serving and the DNS-hosting-provider model
//!
//! Three layers:
//!
//! 1. [`Zone`] — record storage with RFC 1034 answer semantics (exact
//!    match, CNAME chasing, delegation referrals, NODATA vs NXDOMAIN).
//! 2. [`HostingProvider`] — the paper's study object: accounts, hosting
//!    requests, the full Table 2 policy matrix ([`HostingPolicy`]),
//!    nameserver allocation, duplicate domains, retrieval and protective
//!    records. A provider serves zones for domains nobody verified
//!    ownership of — which is exactly what makes undelegated records
//!    possible.
//! 3. simnet nodes ([`ProviderNsNode`], [`StaticZoneNode`],
//!    [`SharedOracleNs`]) speaking wire-format DNS over the fabric, plus
//!    [`DelegationRegistry`] building the root/TLD hierarchy that defines
//!    which domains are *actually* delegated.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod policy;
mod provider;
mod roots;
mod server;
mod zone;

pub use policy::{DomainClass, DuplicatePolicy, HostingPolicy, NsAllocation, VerificationPolicy};
pub use provider::{
    draw_nameservers, zone_draw, AccountId, HostError, HostedZone, HostingProvider, ProviderAnswer,
    ZoneId,
};
pub use roots::DelegationRegistry;
pub use server::{
    dns_query, exchange, AnswerMap, ProviderNsNode, SharedOracleNs, SharedProviderNs,
    StaticZoneNode, DNS_PORT,
};
pub use zone::{AnswerRecords, Glue, Zone, ZoneAnswer};
