//! Traffic capture: an append-only log of every datagram the fabric
//! delivers (and every one it drops).
//!
//! This is the simulation's equivalent of the malware sandbox's packet
//! capture: the IDS substrate replays flow records from here, and tests can
//! assert on exactly what crossed the wire.

use crate::node::{Datagram, Endpoint, Proto};
use crate::time::SimTime;
use std::fmt;

/// Disposition of a captured datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Delivered to the destination node (or external inbox).
    Delivered,
    /// Dropped by fault injection.
    Dropped,
    /// Delivered with an injected payload corruption.
    Corrupted,
    /// Destination address had no attached node.
    NoRoute,
}

/// One captured flow record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Capture timestamp.
    pub at: SimTime,
    /// Sender.
    pub src: Endpoint,
    /// Destination.
    pub dst: Endpoint,
    /// Transport protocol.
    pub proto: Proto,
    /// Payload size in bytes.
    pub len: usize,
    /// The payload itself (the IDS matches on content).
    pub payload: Vec<u8>,
    /// What happened to the datagram.
    pub disposition: Disposition,
}

impl fmt::Display for FlowRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} -> {} {}B {:?}",
            self.at, self.proto, self.src, self.dst, self.len, self.disposition
        )
    }
}

/// Append-only capture of fabric traffic.
#[derive(Debug, Default)]
pub struct FlowLog {
    records: Vec<FlowRecord>,
    enabled: bool,
    /// Payload bytes retained per record; longer payloads are truncated in
    /// the capture (the live datagram is unaffected). 0 keeps everything.
    payload_cap: usize,
}

impl FlowLog {
    /// A capture that retains full payloads.
    pub(crate) fn new() -> Self {
        FlowLog {
            records: Vec::new(),
            enabled: true,
            payload_cap: 0,
        }
    }

    /// Limit retained payload bytes per record.
    pub(crate) fn with_payload_cap(mut self, cap: usize) -> Self {
        self.payload_cap = cap;
        self
    }

    /// Toggle capture. Large scans disable capture (nothing inspects their
    /// traffic) and re-enable it for sandbox phases the IDS must see.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record one datagram.
    pub(crate) fn record(&mut self, at: SimTime, dgram: &Datagram, disposition: Disposition) {
        if !self.enabled {
            return;
        }
        let mut payload = dgram.payload.clone();
        if self.payload_cap != 0 && payload.len() > self.payload_cap {
            payload.truncate(self.payload_cap);
        }
        self.records.push(FlowRecord {
            at,
            src: dgram.src,
            dst: dgram.dst,
            proto: dgram.proto,
            len: dgram.payload.len(),
            payload,
            disposition,
        });
    }

    /// All captured records in arrival order.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all captured records (e.g. between sandbox runs).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn dgram(len: usize) -> Datagram {
        Datagram::udp(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1000),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 53),
            vec![0xAB; len],
        )
    }

    #[test]
    fn records_and_filters() {
        let mut log = FlowLog::new();
        log.record(SimTime(1), &dgram(10), Disposition::Delivered);
        log.record(SimTime(2), &dgram(20), Disposition::Dropped);
        assert_eq!(log.len(), 2);
        let to = |ip: Ipv4Addr| log.records().iter().filter(|r| r.dst.ip == ip).count();
        assert_eq!(to(Ipv4Addr::new(10, 0, 0, 2)), 2);
        assert_eq!(to(Ipv4Addr::new(10, 0, 0, 9)), 0);
        assert_eq!(log.records()[0].len, 10);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = FlowLog::new();
        log.set_enabled(false);
        log.record(SimTime(1), &dgram(10), Disposition::Delivered);
        assert!(log.is_empty());
    }

    #[test]
    fn payload_cap_truncates_capture_only() {
        let mut log = FlowLog::new().with_payload_cap(4);
        log.record(SimTime(1), &dgram(10), Disposition::Delivered);
        assert_eq!(log.records()[0].payload.len(), 4);
        assert_eq!(log.records()[0].len, 10);
    }

    #[test]
    fn clear_empties() {
        let mut log = FlowLog::new();
        log.record(SimTime(1), &dgram(1), Disposition::Delivered);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn display_format() {
        let mut log = FlowLog::new();
        log.record(SimTime(1_000_000), &dgram(3), Disposition::NoRoute);
        let s = log.records()[0].to_string();
        assert!(s.contains("10.0.0.1:1000"));
        assert!(s.contains("NoRoute"));
    }
}
