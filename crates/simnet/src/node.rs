//! Node abstractions: endpoints, datagrams and the event-handler trait.

use crate::time::{SimDuration, SimTime};
use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol tag carried on every simulated datagram.
///
/// The simulator is message-oriented; `Tcp` flows are modeled as datagram
/// exchanges carrying the application payload, which is sufficient for the
/// IDS and sandbox substrates that inspect flow metadata and payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// Connectionless datagram (DNS queries use this).
    Udp,
    /// Stream segment (C2 channels, HTTP, SMTP use this).
    Tcp,
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Udp => write!(f, "UDP"),
            Proto::Tcp => write!(f, "TCP"),
        }
    }
}

/// A network endpoint: IPv4 address and port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Transport port.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub fn new(ip: Ipv4Addr, port: u16) -> Self {
        Endpoint { ip, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// A message in flight between two endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Transport protocol tag.
    pub proto: Proto,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

impl Datagram {
    /// Construct a UDP datagram.
    pub fn udp(src: Endpoint, dst: Endpoint, payload: Vec<u8>) -> Self {
        Datagram {
            src,
            dst,
            proto: Proto::Udp,
            payload,
        }
    }

    /// Construct a TCP-tagged segment.
    pub fn tcp(src: Endpoint, dst: Endpoint, payload: Vec<u8>) -> Self {
        Datagram {
            src,
            dst,
            proto: Proto::Tcp,
            payload,
        }
    }

    /// A reply datagram with src/dst swapped.
    pub fn reply(&self, payload: Vec<u8>) -> Datagram {
        Datagram {
            src: self.dst,
            dst: self.src,
            proto: self.proto,
            payload,
        }
    }
}

/// Side effects a node wants performed, collected while it handles an event.
///
/// The fabric hands an empty `Actions` to every handler invocation and applies
/// the collected sends and timers afterwards, which keeps handlers free of
/// references into the fabric (no re-entrancy, no borrow gymnastics).
#[derive(Debug, Default)]
pub struct Actions {
    pub(crate) sends: Vec<(SimDuration, Datagram)>,
    pub(crate) timers: Vec<(SimDuration, u64)>,
}

impl Actions {
    /// Send a datagram now (it still incurs network latency in transit).
    pub fn send(&mut self, dgram: Datagram) {
        self.sends.push((SimDuration::ZERO, dgram));
    }

    /// Send a datagram after an additional local delay (e.g. think time).
    pub fn send_after(&mut self, delay: SimDuration, dgram: Datagram) {
        self.sends.push((delay, dgram));
    }

    /// Arm a timer that fires back into this node after `delay` with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }
}

/// A simulated host attached to the fabric at one IPv4 address.
///
/// Implementations are plain state machines: they receive datagrams and timer
/// ticks, mutate internal state, and emit actions. All I/O is explicit, which
/// makes every protocol implementation in the workspace unit-testable without
/// a network.
pub trait Node {
    /// Handle a datagram addressed to this node.
    fn handle(&mut self, now: SimTime, dgram: &Datagram, out: &mut Actions);

    /// Handle a timer previously armed via [`Actions::set_timer`].
    fn on_timer(&mut self, _now: SimTime, _token: u64, _out: &mut Actions) {}

    /// Human-readable role, used in traces and debugging.
    fn role(&self) -> &'static str {
        "node"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(Ipv4Addr::new(192, 0, 2, 1), 53);
        assert_eq!(e.to_string(), "192.0.2.1:53");
    }

    #[test]
    fn reply_swaps_endpoints() {
        let a = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1234);
        let b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 53);
        let d = Datagram::udp(a, b, vec![1]);
        let r = d.reply(vec![2]);
        assert_eq!(r.src, b);
        assert_eq!(r.dst, a);
        assert_eq!(r.proto, Proto::Udp);
        assert_eq!(r.payload, vec![2]);
    }

    #[test]
    fn actions_collect() {
        let a = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1);
        let b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 2);
        let mut acts = Actions::default();
        acts.send(Datagram::udp(a, b, vec![]));
        acts.send_after(SimDuration::from_millis(5), Datagram::tcp(a, b, vec![]));
        acts.set_timer(SimDuration::from_secs(1), 42);
        assert_eq!(acts.sends.len(), 2);
        assert_eq!(acts.sends[1].0, SimDuration::from_millis(5));
        assert_eq!(acts.timers, vec![(SimDuration::from_secs(1), 42)]);
    }

    #[test]
    fn proto_display() {
        assert_eq!(Proto::Udp.to_string(), "UDP");
        assert_eq!(Proto::Tcp.to_string(), "TCP");
    }
}
