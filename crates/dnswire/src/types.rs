//! Core enumerations shared across the wire format: record types, classes,
//! opcodes and response codes.

use std::fmt;

/// DNS resource-record types understood by this implementation.
///
/// Unknown type codes are preserved losslessly via [`RecordType::Unknown`],
/// so a resolver can forward records it does not interpret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address (RFC 1035).
    A,
    /// Authoritative name server (RFC 1035).
    Ns,
    /// Canonical name alias (RFC 1035).
    Cname,
    /// Start of a zone of authority (RFC 1035).
    Soa,
    /// Domain name pointer (RFC 1035).
    Ptr,
    /// Mail exchange (RFC 1035).
    Mx,
    /// Descriptive text (RFC 1035); carrier for SPF/DMARC/verification data.
    Txt,
    /// IPv6 host address (RFC 3596).
    Aaaa,
    /// EDNS(0) pseudo-record (RFC 6891).
    Opt,
    /// Query-only: all records (`*`, RFC 1035).
    Any,
    /// Any type code we do not model explicitly.
    Unknown(u16),
}

impl RecordType {
    /// The 16-bit wire value.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Any => 255,
            RecordType::Unknown(c) => c,
        }
    }

    /// Map a wire value back to a record type.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            255 => RecordType::Any,
            c => RecordType::Unknown(c),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Mx => write!(f, "MX"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Any => write!(f, "ANY"),
            RecordType::Unknown(c) => write!(f, "TYPE{c}"),
        }
    }
}

/// DNS class. Only `IN` is used by the simulation but the field is carried
/// faithfully on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// The Internet class.
    In,
    /// Chaos class (used by some diagnostics).
    Ch,
    /// Query-only: any class.
    Any,
    /// Unmodeled class code.
    Unknown(u16),
}

impl Class {
    /// The 16-bit wire value.
    pub fn code(self) -> u16 {
        match self {
            Class::In => 1,
            Class::Ch => 3,
            Class::Any => 255,
            Class::Unknown(c) => c,
        }
    }

    /// Map a wire value back to a class.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => Class::In,
            3 => Class::Ch,
            255 => Class::Any,
            c => Class::Unknown(c),
        }
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::In => write!(f, "IN"),
            Class::Ch => write!(f, "CH"),
            Class::Any => write!(f, "ANY"),
            Class::Unknown(c) => write!(f, "CLASS{c}"),
        }
    }
}

/// Operation code in the message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete, carried for fidelity).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Unassigned opcode value.
    Unknown(u8),
}

impl Opcode {
    /// The 4-bit wire value.
    pub(crate) fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(c) => c & 0x0F,
        }
    }

    /// Map a wire value back to an opcode.
    pub(crate) fn from_code(code: u8) -> Self {
        match code & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            c => Opcode::Unknown(c),
        }
    }
}

/// Response code in the message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error condition.
    NoError,
    /// The server could not interpret the query.
    FormErr,
    /// Internal server failure.
    ServFail,
    /// The queried name does not exist (authoritative only).
    NxDomain,
    /// The server does not support the request kind.
    NotImp,
    /// The server refuses to answer for policy reasons.
    Refused,
    /// Unassigned rcode value.
    Unknown(u8),
}

impl Rcode {
    /// The 4-bit wire value.
    pub(crate) fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(c) => c & 0x0F,
        }
    }

    /// Map a wire value back to an rcode.
    pub(crate) fn from_code(code: u8) -> Self {
        match code & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            c => Rcode::Unknown(c),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Unknown(c) => write!(f, "RCODE{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_codes_roundtrip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Cname,
            RecordType::Soa,
            RecordType::Ptr,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Aaaa,
            RecordType::Opt,
            RecordType::Any,
            RecordType::Unknown(999),
        ] {
            assert_eq!(RecordType::from_code(t.code()), t);
        }
    }

    #[test]
    fn all_u16_codes_roundtrip() {
        for c in 0..=u16::MAX {
            assert_eq!(RecordType::from_code(c).code(), c);
            assert_eq!(Class::from_code(c).code(), c);
        }
    }

    #[test]
    fn opcode_rcode_roundtrip() {
        for c in 0..16u8 {
            assert_eq!(Opcode::from_code(c).code(), c);
            assert_eq!(Rcode::from_code(c).code(), c);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(RecordType::Txt.to_string(), "TXT");
        assert_eq!(RecordType::Unknown(300).to_string(), "TYPE300");
        assert_eq!(Class::In.to_string(), "IN");
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
        assert_eq!(Rcode::Refused.to_string(), "REFUSED");
    }
}
