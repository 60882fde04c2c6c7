//! # recursor — iterative resolution and the open-resolver fleet
//!
//! Implements the resolution side of the simulated internet:
//!
//! * [`RecursorNode`] — a caching iterative resolver that walks the
//!   delegation hierarchy (root → TLD → authoritative) over the simnet
//!   fabric, chases CNAMEs, resolves out-of-bailiwick nameservers, retries
//!   lost packets and honors TTLs.
//! * [`Manipulation`] — models the minority of open resolvers that tamper
//!   with answers, which URHunter's correct-record collection must tolerate
//!   (the paper selects stable resolvers and notes most vantage points are
//!   honest).
//!
//! URHunter queries a fleet of these nodes (placed world-wide by the world
//! generator) to learn each target domain's *correct records* — the
//! exclusion baseline for deciding which undelegated records are suspicious.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod cache;
mod resolver;

pub use resolver::{Manipulation, RecursorNode};
