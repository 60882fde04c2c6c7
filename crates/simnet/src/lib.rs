//! # simnet — deterministic discrete-event network simulator
//!
//! The transport substrate for the URHunter reproduction. Real measurement
//! scanned the live Internet; here, every host (authoritative nameserver,
//! open resolver, C2 server, sandboxed malware victim) is a [`Node`] attached
//! to a single-threaded, seeded, discrete-event fabric ([`Network`]).
//!
//! Following the event-driven design of smoltcp and the determinism
//! requirements of a measurement reproduction:
//!
//! * **No wall clock, no threads** — time is virtual ([`SimTime`]) and all
//!   ordering comes from the event queue, so identical seeds give identical
//!   runs down to the byte.
//! * **Fault injection is first-class** — drop / corrupt / duplicate / size
//!   limits ([`FaultPlan`]), mirroring smoltcp's `--drop-chance` and
//!   `--corrupt-chance` example options.
//! * **Every datagram is captured** — [`FlowLog`] doubles as the malware
//!   sandbox's packet capture, which the IDS substrate replays.
//!
//! ```
//! use simnet::{Network, Node, Actions, Datagram, Endpoint, Proto, SimTime, SimDuration};
//!
//! struct Upper;
//! impl Node for Upper {
//!     fn handle(&mut self, _now: SimTime, d: &Datagram, out: &mut Actions) {
//!         out.send(d.reply(d.payload.to_ascii_uppercase()));
//!     }
//! }
//!
//! let mut net = Network::new(7);
//! net.add_node("10.0.0.2".parse().unwrap(), Box::new(Upper));
//! let reply = net.rpc(
//!     Endpoint::new("10.0.0.1".parse().unwrap(), 9999),
//!     Endpoint::new("10.0.0.2".parse().unwrap(), 53),
//!     Proto::Udp,
//!     b"hello".to_vec(),
//!     SimDuration::from_secs(5),
//! ).unwrap();
//! assert_eq!(reply, b"HELLO");
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod fabric;
mod fault;
mod node;
pub mod pcap;
mod time;
mod trace;

pub use fabric::{FabricMetrics, LatencyModel, NetStats, Network};
pub use fault::FaultPlan;
pub use node::{Actions, Datagram, Endpoint, Node, Proto};
pub use time::{SimDuration, SimTime};
pub use trace::{Disposition, FlowLog, FlowRecord};
