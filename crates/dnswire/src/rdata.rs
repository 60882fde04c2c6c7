//! Typed RDATA representations with wire encode/decode.

use crate::error::{WireError, WireResult};
use crate::name::{CompressionMap, Name, WireName};
use crate::types::RecordType;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Typed resource-record data.
///
/// Record data for types the simulation interprets is fully structured;
/// anything else is carried as opaque bytes so it survives a
/// decode/encode roundtrip unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Delegation to an authoritative server.
    Ns(Name),
    /// Alias target.
    Cname(Name),
    /// Reverse-mapping pointer.
    Ptr(Name),
    /// Mail exchange: preference and exchange host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// The mail server name.
        exchange: Name,
    },
    /// One or more character strings (each at most 255 octets).
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa {
        /// Primary master server name.
        mname: Name,
        /// Responsible mailbox, encoded as a name.
        rname: Name,
        /// Zone serial number.
        serial: u32,
        /// Secondary refresh interval (seconds).
        refresh: u32,
        /// Retry interval (seconds).
        retry: u32,
        /// Expiry upper bound (seconds).
        expire: u32,
        /// Negative-caching TTL (seconds).
        minimum: u32,
    },
    /// EDNS(0) pseudo-record payload, kept opaque.
    Opt(Vec<u8>),
    /// RDATA for a type this crate does not interpret.
    Unknown {
        /// The original type code.
        rtype: u16,
        /// Raw RDATA bytes.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type matching this data.
    pub(crate) fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa { .. } => RecordType::Soa,
            RData::Opt(_) => RecordType::Opt,
            RData::Unknown { rtype, .. } => RecordType::from_code(*rtype),
        }
    }

    /// Build a TXT record from one string, splitting into 255-octet chunks
    /// as the wire format requires.
    pub fn txt_from_str(s: &str) -> RData {
        let bytes = s.as_bytes();
        if bytes.is_empty() {
            return RData::Txt(vec![Vec::new()]);
        }
        RData::Txt(bytes.chunks(255).map(|c| c.to_vec()).collect())
    }

    /// Reassemble a TXT record's character strings into one `String`,
    /// replacing non-UTF8 bytes. Returns `None` for non-TXT data.
    pub fn txt_joined(&self) -> Option<String> {
        self.txt_str().map(|s| s.into_owned())
    }

    /// Borrowing variant of [`RData::txt_joined`]: a single-chunk UTF-8
    /// TXT (the overwhelmingly common shape — one character string per
    /// record, ≤ 255 octets) borrows straight from the record data. Only
    /// multi-chunk or non-UTF8 payloads allocate.
    pub fn txt_str(&self) -> Option<std::borrow::Cow<'_, str>> {
        match self {
            RData::Txt(chunks) => match chunks.as_slice() {
                [one] => Some(String::from_utf8_lossy(one)),
                many => {
                    let all: Vec<u8> = many.iter().flatten().copied().collect();
                    Some(std::borrow::Cow::Owned(
                        String::from_utf8_lossy(&all).into_owned(),
                    ))
                }
            },
            _ => None,
        }
    }

    /// The IPv4 address if this is an A record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RData::A(ip) => Some(*ip),
            _ => None,
        }
    }

    /// Encode RDATA (without the leading RDLENGTH, which the caller writes).
    ///
    /// Names inside RDATA that RFC 1035 allows to be compressed (NS, CNAME,
    /// PTR, MX, SOA) participate in message compression via `offsets`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>, offsets: &mut CompressionMap) {
        match self {
            RData::A(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Aaaa(ip) => buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode_compressed(buf, offsets),
            RData::Mx {
                preference,
                exchange,
            } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode_compressed(buf, offsets);
            }
            RData::Txt(chunks) => {
                for c in chunks {
                    debug_assert!(c.len() <= 255);
                    buf.push(c.len() as u8);
                    buf.extend_from_slice(c);
                }
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                mname.encode_compressed(buf, offsets);
                rname.encode_compressed(buf, offsets);
                for v in [serial, refresh, retry, expire, minimum] {
                    buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            RData::Opt(raw) | RData::Unknown { data: raw, .. } => buf.extend_from_slice(raw),
        }
    }
}

/// Validated RDATA still inside its message: [`RData`] with every name a
/// [`WireName`] and every byte string a slice. Parsing one allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub enum RDataView<'a> {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Delegation to an authoritative server.
    Ns(WireName<'a>),
    /// Alias target.
    Cname(WireName<'a>),
    /// Reverse-mapping pointer.
    Ptr(WireName<'a>),
    /// Mail exchange: preference and exchange host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// The mail server name.
        exchange: WireName<'a>,
    },
    /// The character strings, each still behind its length byte.
    Txt(&'a [u8]),
    /// Start of authority.
    Soa {
        /// Primary master server name.
        mname: WireName<'a>,
        /// Responsible mailbox, encoded as a name.
        rname: WireName<'a>,
        /// Serial, refresh, retry, expire, minimum.
        words: [u32; 5],
    },
    /// EDNS(0) pseudo-record payload, kept opaque.
    Opt(&'a [u8]),
    /// RDATA for a type this crate does not interpret.
    Unknown {
        /// The original type code.
        rtype: u16,
        /// Raw RDATA bytes.
        data: &'a [u8],
    },
}

impl<'a> RDataView<'a> {
    /// Validate RDATA of `rtype` occupying `rdlength` bytes at `*pos` in
    /// `msg`, advancing the cursor past it.
    pub(crate) fn parse(
        msg: &'a [u8],
        pos: &mut usize,
        rtype: RecordType,
        rdlength: usize,
    ) -> WireResult<RDataView<'a>> {
        let start = *pos;
        let end = start
            .checked_add(rdlength)
            .filter(|&e| e <= msg.len())
            .ok_or(WireError::Truncated {
                offset: start,
                what: "rdata",
            })?;
        let out = match rtype {
            RecordType::A => {
                if rdlength != 4 {
                    return Err(WireError::RdataLength {
                        declared: rdlength,
                        consumed: 4,
                    });
                }
                let o: [u8; 4] = msg[start..end].try_into().expect("checked length");
                *pos = end;
                RDataView::A(Ipv4Addr::from(o))
            }
            RecordType::Aaaa => {
                if rdlength != 16 {
                    return Err(WireError::RdataLength {
                        declared: rdlength,
                        consumed: 16,
                    });
                }
                let o: [u8; 16] = msg[start..end].try_into().expect("checked length");
                *pos = end;
                RDataView::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
                let n = WireName::parse(msg, pos)?;
                check_consumed(start, *pos, rdlength)?;
                match rtype {
                    RecordType::Ns => RDataView::Ns(n),
                    RecordType::Cname => RDataView::Cname(n),
                    _ => RDataView::Ptr(n),
                }
            }
            RecordType::Mx => {
                if rdlength < 3 {
                    return Err(WireError::RdataLength {
                        declared: rdlength,
                        consumed: 3,
                    });
                }
                let preference = u16::from_be_bytes([msg[start], msg[start + 1]]);
                *pos = start + 2;
                let exchange = WireName::parse(msg, pos)?;
                check_consumed(start, *pos, rdlength)?;
                RDataView::Mx {
                    preference,
                    exchange,
                }
            }
            RecordType::Txt => {
                let mut cur = start;
                while cur < end {
                    let l = msg[cur] as usize;
                    cur += 1;
                    if cur + l > end {
                        return Err(WireError::Truncated {
                            offset: cur,
                            what: "txt string",
                        });
                    }
                    cur += l;
                }
                *pos = end;
                RDataView::Txt(&msg[start..end])
            }
            RecordType::Soa => {
                let mname = WireName::parse(msg, pos)?;
                let rname = WireName::parse(msg, pos)?;
                if *pos + 20 > msg.len() {
                    return Err(WireError::Truncated {
                        offset: *pos,
                        what: "soa fields",
                    });
                }
                let mut words = [0u32; 5];
                for w in words.iter_mut() {
                    *w = u32::from_be_bytes([
                        msg[*pos],
                        msg[*pos + 1],
                        msg[*pos + 2],
                        msg[*pos + 3],
                    ]);
                    *pos += 4;
                }
                check_consumed(start, *pos, rdlength)?;
                RDataView::Soa {
                    mname,
                    rname,
                    words,
                }
            }
            RecordType::Opt => {
                *pos = end;
                RDataView::Opt(&msg[start..end])
            }
            other => {
                *pos = end;
                RDataView::Unknown {
                    rtype: other.code(),
                    data: &msg[start..end],
                }
            }
        };
        Ok(out)
    }

    /// An owned copy.
    pub(crate) fn to_rdata(self) -> RData {
        match self {
            RDataView::A(ip) => RData::A(ip),
            RDataView::Aaaa(ip) => RData::Aaaa(ip),
            RDataView::Ns(n) => RData::Ns(n.to_name()),
            RDataView::Cname(n) => RData::Cname(n.to_name()),
            RDataView::Ptr(n) => RData::Ptr(n.to_name()),
            RDataView::Mx {
                preference,
                exchange,
            } => RData::Mx {
                preference,
                exchange: exchange.to_name(),
            },
            RDataView::Txt(mut raw) => {
                let mut chunks = Vec::new();
                while let Some((&l, tail)) = raw.split_first() {
                    let (chunk, rest) = tail.split_at(l as usize);
                    chunks.push(chunk.to_vec());
                    raw = rest;
                }
                if chunks.is_empty() {
                    // RFC 1035 requires at least one (possibly empty) string.
                    chunks.push(Vec::new());
                }
                RData::Txt(chunks)
            }
            RDataView::Soa {
                mname,
                rname,
                words,
            } => RData::Soa {
                mname: mname.to_name(),
                rname: rname.to_name(),
                serial: words[0],
                refresh: words[1],
                retry: words[2],
                expire: words[3],
                minimum: words[4],
            },
            RDataView::Opt(raw) => RData::Opt(raw.to_vec()),
            RDataView::Unknown { rtype, data } => RData::Unknown {
                rtype,
                data: data.to_vec(),
            },
        }
    }
}

fn check_consumed(start: usize, pos: usize, rdlength: usize) -> WireResult<()> {
    if pos - start != rdlength {
        Err(WireError::RdataLength {
            declared: rdlength,
            consumed: pos - start,
        })
    } else {
        Ok(())
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(ip) => write!(f, "{ip}"),
            RData::Aaaa(ip) => write!(f, "{ip}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(chunks) => {
                for (i, c) in chunks.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "\"{}\"", String::from_utf8_lossy(c))?;
                }
                Ok(())
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                write!(
                    f,
                    "{mname} {rname} {serial} {refresh} {retry} {expire} {minimum}"
                )
            }
            RData::Opt(raw) => write!(f, "OPT({} bytes)", raw.len()),
            RData::Unknown { rtype, data } => write!(f, "TYPE{rtype}({} bytes)", data.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(msg: &[u8], pos: &mut usize, rtype: RecordType, len: usize) -> WireResult<RData> {
        RDataView::parse(msg, pos, rtype, len).map(RDataView::to_rdata)
    }

    fn roundtrip(rd: &RData) -> RData {
        let mut buf = Vec::new();
        let mut offsets = CompressionMap::default();
        rd.encode(&mut buf, &mut offsets);
        let mut pos = 0;
        let back = decode(&buf, &mut pos, rd.record_type(), buf.len()).unwrap();
        assert_eq!(pos, buf.len());
        back
    }

    #[test]
    fn a_roundtrip() {
        let rd = RData::A("192.0.2.33".parse().unwrap());
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn aaaa_roundtrip() {
        let rd = RData::Aaaa("2001:db8::1".parse().unwrap());
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn ns_cname_ptr_roundtrip() {
        for rd in [
            RData::Ns("ns1.hosting.example".parse().unwrap()),
            RData::Cname("target.example.com".parse().unwrap()),
            RData::Ptr("33.2.0.192.in-addr.arpa".parse().unwrap()),
        ] {
            assert_eq!(roundtrip(&rd), rd);
        }
    }

    #[test]
    fn mx_roundtrip() {
        let rd = RData::Mx {
            preference: 10,
            exchange: "mx.example.com".parse().unwrap(),
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn txt_roundtrip_multichunk() {
        let rd = RData::Txt(vec![b"v=spf1 ip4:192.0.2.0/24".to_vec(), b"-all".to_vec()]);
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn txt_from_long_string_chunks() {
        let long = "x".repeat(600);
        let rd = RData::txt_from_str(&long);
        if let RData::Txt(chunks) = &rd {
            assert_eq!(chunks.len(), 3);
            assert_eq!(chunks[0].len(), 255);
            assert_eq!(chunks[2].len(), 90);
        } else {
            panic!("not txt");
        }
        assert_eq!(rd.txt_joined().unwrap(), long);
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn txt_empty_string() {
        let rd = RData::txt_from_str("");
        assert_eq!(rd, RData::Txt(vec![Vec::new()]));
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn soa_roundtrip() {
        let rd = RData::Soa {
            mname: "ns1.example.com".parse().unwrap(),
            rname: "hostmaster.example.com".parse().unwrap(),
            serial: 2023102401,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        };
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn unknown_type_preserved() {
        let rd = RData::Unknown {
            rtype: 99,
            data: vec![1, 2, 3, 4],
        };
        assert_eq!(roundtrip(&rd), rd);
        assert_eq!(rd.record_type().code(), 99);
    }

    #[test]
    fn a_with_wrong_length_rejected() {
        let buf = [1, 2, 3];
        let mut pos = 0;
        assert!(decode(&buf, &mut pos, RecordType::A, 3).is_err());
    }

    #[test]
    fn truncated_txt_rejected() {
        let buf = [5, b'a', b'b'];
        let mut pos = 0;
        assert!(decode(&buf, &mut pos, RecordType::Txt, 3).is_err());
    }

    #[test]
    fn rdlength_mismatch_on_name_rejected() {
        // CNAME "a." is 3 bytes but declare 5
        let buf = [1, b'a', 0, 0, 0];
        let mut pos = 0;
        assert!(matches!(
            decode(&buf, &mut pos, RecordType::Cname, 5),
            Err(WireError::RdataLength { .. })
        ));
    }

    #[test]
    fn as_a_accessor() {
        let ip: Ipv4Addr = "198.51.100.7".parse().unwrap();
        assert_eq!(RData::A(ip).as_a(), Some(ip));
        assert_eq!(RData::txt_from_str("x").as_a(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RData::A("1.2.3.4".parse().unwrap()).to_string(), "1.2.3.4");
        assert_eq!(RData::txt_from_str("hi").to_string(), "\"hi\"");
        let mx = RData::Mx {
            preference: 5,
            exchange: "m.x".parse().unwrap(),
        };
        assert_eq!(mx.to_string(), "5 m.x");
    }
}
