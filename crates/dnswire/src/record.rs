//! Resource records and questions.

use crate::error::{WireError, WireResult};
use crate::name::{CompressionMap, Name, NameRef, WireName};
use crate::rdata::{RData, RDataView};
use crate::types::{Class, RecordType};
use std::fmt;

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// The name being queried.
    pub qname: Name,
    /// The requested record type.
    pub qtype: RecordType,
    /// The requested class (virtually always `IN`).
    pub qclass: Class,
}

impl Question {
    /// Convenience constructor for an `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: Class::In,
        }
    }

    /// Encode into `buf` using the shared compression map.
    pub fn encode(&self, buf: &mut Vec<u8>, offsets: &mut CompressionMap) {
        encode_question(self.qname.borrowed(), self.qtype, self.qclass, buf, offsets);
    }

    /// Decode from `msg` at `*pos`, advancing the cursor.
    pub fn decode(msg: &[u8], pos: &mut usize) -> WireResult<Question> {
        QuestionView::parse(msg, pos).map(QuestionView::to_question)
    }
}

/// [`Question::encode`] for a question that exists only as its parts.
pub(crate) fn encode_question(
    qname: NameRef<'_>,
    qtype: RecordType,
    qclass: Class,
    buf: &mut Vec<u8>,
    offsets: &mut CompressionMap,
) {
    qname.encode_compressed(buf, offsets);
    buf.extend_from_slice(&qtype.code().to_be_bytes());
    buf.extend_from_slice(&qclass.code().to_be_bytes());
}

/// A validated question still inside its message.
#[derive(Debug, Clone, Copy)]
pub struct QuestionView<'a> {
    /// The name being queried.
    pub qname: WireName<'a>,
    /// The requested record type.
    pub qtype: RecordType,
    /// The requested class.
    pub qclass: Class,
}

impl<'a> QuestionView<'a> {
    /// Validate a question in `msg` at `*pos`, advancing the cursor.
    pub fn parse(msg: &'a [u8], pos: &mut usize) -> WireResult<QuestionView<'a>> {
        let qname = WireName::parse(msg, pos)?;
        if *pos + 4 > msg.len() {
            return Err(WireError::Truncated {
                offset: *pos,
                what: "question type/class",
            });
        }
        let qtype = RecordType::from_code(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
        let qclass = Class::from_code(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
        *pos += 4;
        Ok(QuestionView {
            qname,
            qtype,
            qclass,
        })
    }

    /// An owned copy.
    pub fn to_question(self) -> Question {
        Question {
            qname: self.qname.to_name(),
            qtype: self.qtype,
            qclass: self.qclass,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

/// A resource record: owner name, class, TTL and typed data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name the data is attached to.
    pub name: Name,
    /// Record class (virtually always `IN`).
    pub class: Class,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// The typed record data.
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor for an `IN`-class record.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: Class::In,
            ttl,
            rdata,
        }
    }

    /// The record's type, derived from its data.
    pub fn rtype(&self) -> RecordType {
        self.rdata.record_type()
    }

    /// Encode into `buf` using the shared compression map. The RDLENGTH
    /// field is computed from the bytes actually written (which may be
    /// shortened by compression of embedded names).
    pub fn encode(&self, buf: &mut Vec<u8>, offsets: &mut CompressionMap) {
        encode_record(
            self.name.borrowed(),
            self.class,
            self.ttl,
            &self.rdata,
            buf,
            offsets,
        );
    }

    /// Decode from `msg` at `*pos`, advancing the cursor.
    pub fn decode(msg: &[u8], pos: &mut usize) -> WireResult<Record> {
        RecordView::parse(msg, pos).map(RecordView::to_record)
    }
}

/// [`Record::encode`] for a record that exists only as its parts (a stored
/// RDATA answered under the query's own name).
pub(crate) fn encode_record(
    owner: NameRef<'_>,
    class: Class,
    ttl: u32,
    rdata: &RData,
    buf: &mut Vec<u8>,
    offsets: &mut CompressionMap,
) {
    owner.encode_compressed(buf, offsets);
    buf.extend_from_slice(&rdata.record_type().code().to_be_bytes());
    buf.extend_from_slice(&class.code().to_be_bytes());
    buf.extend_from_slice(&ttl.to_be_bytes());
    let len_at = buf.len();
    buf.extend_from_slice(&[0, 0]);
    let data_start = buf.len();
    rdata.encode(buf, offsets);
    let rdlen = (buf.len() - data_start) as u16;
    buf[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
}

/// A validated resource record still inside its message.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Owner name the data is attached to.
    pub name: WireName<'a>,
    /// Record class.
    pub class: Class,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// The typed record data.
    pub rdata: RDataView<'a>,
    rtype: RecordType,
}

impl<'a> RecordView<'a> {
    /// Validate a record in `msg` at `*pos`, advancing the cursor.
    pub fn parse(msg: &'a [u8], pos: &mut usize) -> WireResult<RecordView<'a>> {
        let name = WireName::parse(msg, pos)?;
        if *pos + 10 > msg.len() {
            return Err(WireError::Truncated {
                offset: *pos,
                what: "record fixed header",
            });
        }
        let rtype = RecordType::from_code(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
        let class = Class::from_code(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
        let ttl = u32::from_be_bytes([msg[*pos + 4], msg[*pos + 5], msg[*pos + 6], msg[*pos + 7]]);
        let rdlength = u16::from_be_bytes([msg[*pos + 8], msg[*pos + 9]]) as usize;
        *pos += 10;
        let rdata = RDataView::parse(msg, pos, rtype, rdlength)?;
        Ok(RecordView {
            name,
            class,
            ttl,
            rdata,
            rtype,
        })
    }

    /// The record's type.
    pub fn rtype(&self) -> RecordType {
        self.rtype
    }

    /// An owned copy.
    pub fn to_record(self) -> Record {
        Record {
            name: self.name.to_name(),
            class: self.class,
            ttl: self.ttl,
            rdata: self.rdata.to_rdata(),
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl,
            self.class,
            self.rtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn question_roundtrip() {
        let q = Question::new(name("example.com"), RecordType::Txt);
        let mut buf = Vec::new();
        q.encode(&mut buf, &mut CompressionMap::new());
        let mut pos = 0;
        assert_eq!(Question::decode(&buf, &mut pos).unwrap(), q);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn record_roundtrip_with_rdlength_patch() {
        let r = Record::new(
            name("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 9)),
        );
        let mut buf = Vec::new();
        r.encode(&mut buf, &mut CompressionMap::new());
        let mut pos = 0;
        assert_eq!(Record::decode(&buf, &mut pos).unwrap(), r);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn record_with_compressed_rdata_name() {
        // Owner and NS target share a suffix; rdlength must reflect the
        // compressed (2-byte pointer) encoding.
        let r = Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        );
        let mut buf = Vec::new();
        let mut offsets = CompressionMap::new();
        r.encode(&mut buf, &mut offsets);
        let mut pos = 0;
        let back = Record::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, r);
        // compressed: rdata is "ns1" label (4 bytes) + pointer (2 bytes)
        let rdlen = u16::from_be_bytes([buf[buf.len() - 8], buf[buf.len() - 7]]);
        assert_eq!(rdlen, 6);
    }

    #[test]
    fn truncated_record_rejected() {
        let r = Record::new(name("x.y"), 60, RData::txt_from_str("hello"));
        let mut buf = Vec::new();
        r.encode(&mut buf, &mut CompressionMap::new());
        for cut in 1..buf.len() {
            let mut pos = 0;
            assert!(
                Record::decode(&buf[..cut], &mut pos).is_err(),
                "decode should fail at cut {cut}"
            );
        }
    }

    #[test]
    fn display_record() {
        let r = Record::new(name("a.b"), 60, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(r.to_string(), "a.b 60 IN A 1.2.3.4");
    }
}
