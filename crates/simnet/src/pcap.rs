//! libpcap export of captured traffic.
//!
//! Mirrors the smoltcp examples' `--pcap` option: every captured flow can
//! be written as a standard little-endian pcap file (LINKTYPE_RAW, 101)
//! with synthesized IPv4 + UDP/TCP headers around the application payload,
//! so Wireshark/tcpdump open simulation traces directly.

use crate::node::Proto;
use crate::trace::{Disposition, FlowRecord};

/// pcap little-endian magic.
const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_RAW: packets start with the IPv4 header.
const LINKTYPE_RAW: u32 = 101;

fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn push_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Build the 24-byte pcap global header.
pub(crate) fn global_header() -> Vec<u8> {
    let mut h = Vec::with_capacity(24);
    push_u32_le(&mut h, PCAP_MAGIC);
    h.extend_from_slice(&2u16.to_le_bytes()); // major
    h.extend_from_slice(&4u16.to_le_bytes()); // minor
    push_u32_le(&mut h, 0); // thiszone
    push_u32_le(&mut h, 0); // sigfigs
    push_u32_le(&mut h, 65_535); // snaplen
    push_u32_le(&mut h, LINKTYPE_RAW);
    h
}

/// Synthesize an IPv4 packet (header + transport header + payload) for a
/// captured flow. Checksums are zero (valid for offline inspection).
pub(crate) fn synthesize_packet(flow: &FlowRecord) -> Vec<u8> {
    let transport_len = match flow.proto {
        Proto::Udp => 8,
        Proto::Tcp => 20,
    };
    let total_len = 20 + transport_len + flow.payload.len();
    let mut pkt = Vec::with_capacity(total_len);
    // IPv4 header
    pkt.push(0x45); // version 4, IHL 5
    pkt.push(0); // DSCP/ECN
    push_u16(&mut pkt, total_len as u16);
    push_u16(&mut pkt, 0); // identification
    push_u16(&mut pkt, 0x4000); // don't fragment
    pkt.push(64); // TTL
    pkt.push(match flow.proto {
        Proto::Udp => 17,
        Proto::Tcp => 6,
    });
    push_u16(&mut pkt, 0); // header checksum (unset)
    pkt.extend_from_slice(&flow.src.ip.octets());
    pkt.extend_from_slice(&flow.dst.ip.octets());
    match flow.proto {
        Proto::Udp => {
            push_u16(&mut pkt, flow.src.port);
            push_u16(&mut pkt, flow.dst.port);
            push_u16(&mut pkt, (8 + flow.payload.len()) as u16);
            push_u16(&mut pkt, 0); // checksum
        }
        Proto::Tcp => {
            push_u16(&mut pkt, flow.src.port);
            push_u16(&mut pkt, flow.dst.port);
            pkt.extend_from_slice(&1u32.to_be_bytes()); // seq
            pkt.extend_from_slice(&0u32.to_be_bytes()); // ack
            pkt.push(0x50); // data offset 5
            pkt.push(0x18); // PSH|ACK
            push_u16(&mut pkt, 0xFFFF); // window
            push_u16(&mut pkt, 0); // checksum
            push_u16(&mut pkt, 0); // urgent
        }
    }
    pkt.extend_from_slice(&flow.payload);
    pkt
}

/// Serialize flows into a complete pcap byte stream. Dropped datagrams are
/// skipped (they never appeared on any wire); pass
/// `include_dropped = true` to keep them (useful when debugging the fault
/// injector itself).
pub fn to_pcap(flows: &[FlowRecord], include_dropped: bool) -> Vec<u8> {
    let mut out = global_header();
    for flow in flows {
        if flow.disposition == Disposition::Dropped && !include_dropped {
            continue;
        }
        let pkt = synthesize_packet(flow);
        let micros = flow.at.as_micros();
        push_u32_le(&mut out, (micros / 1_000_000) as u32);
        push_u32_le(&mut out, (micros % 1_000_000) as u32);
        push_u32_le(&mut out, pkt.len() as u32);
        push_u32_le(&mut out, pkt.len() as u32);
        out.extend_from_slice(&pkt);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Datagram, Endpoint};
    use crate::time::SimTime;
    use crate::trace::FlowLog;
    use std::net::Ipv4Addr;

    fn flow(proto: Proto, payload: &[u8], disposition: Disposition) -> FlowRecord {
        let d = Datagram {
            src: Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40_000),
            dst: Endpoint::new(Ipv4Addr::new(198, 18, 0, 1), 53),
            proto,
            payload: payload.to_vec(),
        };
        let mut log = FlowLog::new();
        log.record(SimTime(1_500_000), &d, disposition);
        log.records()[0].clone()
    }

    #[test]
    fn global_header_layout() {
        let h = global_header();
        assert_eq!(h.len(), 24);
        assert_eq!(u32::from_le_bytes(h[0..4].try_into().unwrap()), PCAP_MAGIC);
        assert_eq!(
            u32::from_le_bytes(h[20..24].try_into().unwrap()),
            LINKTYPE_RAW
        );
    }

    #[test]
    fn udp_packet_structure() {
        let f = flow(Proto::Udp, b"payload!", Disposition::Delivered);
        let pkt = synthesize_packet(&f);
        assert_eq!(pkt.len(), 20 + 8 + 8);
        assert_eq!(pkt[0], 0x45);
        assert_eq!(pkt[9], 17); // UDP
        assert_eq!(u16::from_be_bytes([pkt[2], pkt[3]]) as usize, pkt.len());
        // src/dst addresses in place
        assert_eq!(&pkt[12..16], &[10, 0, 0, 1]);
        assert_eq!(&pkt[16..20], &[198, 18, 0, 1]);
        // ports
        assert_eq!(u16::from_be_bytes([pkt[20], pkt[21]]), 40_000);
        assert_eq!(u16::from_be_bytes([pkt[22], pkt[23]]), 53);
        assert_eq!(&pkt[28..], b"payload!");
    }

    #[test]
    fn tcp_packet_structure() {
        let f = flow(Proto::Tcp, b"xyz", Disposition::Delivered);
        let pkt = synthesize_packet(&f);
        assert_eq!(pkt.len(), 20 + 20 + 3);
        assert_eq!(pkt[9], 6); // TCP
        assert_eq!(&pkt[40..], b"xyz");
    }

    #[test]
    fn pcap_stream_counts_and_timestamps() {
        let flows = vec![
            flow(Proto::Udp, b"a", Disposition::Delivered),
            flow(Proto::Tcp, b"bb", Disposition::Dropped),
            flow(Proto::Udp, b"ccc", Disposition::Delivered),
        ];
        let bytes = to_pcap(&flows, false);
        // global header + 2 records (dropped one skipped)
        let rec1_len = 20 + 8 + 1;
        let rec2_len = 20 + 8 + 3;
        assert_eq!(bytes.len(), 24 + 16 + rec1_len + 16 + rec2_len);
        // timestamp of the first record: 1.5s
        let sec = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        let usec = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
        assert_eq!((sec, usec), (1, 500_000));

        let with_dropped = to_pcap(&flows, true);
        assert!(with_dropped.len() > bytes.len());
    }

    #[test]
    fn empty_capture_is_just_the_header() {
        assert_eq!(to_pcap(&[], false).len(), 24);
    }
}
