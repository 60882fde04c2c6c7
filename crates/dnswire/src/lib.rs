//! # dnswire — DNS wire-format protocol, from scratch
//!
//! A self-contained implementation of the DNS message format (RFC 1035
//! subset plus the EDNS(0) OPT pseudo-record) used as the protocol substrate
//! for the URHunter reproduction. All simulated DNS traffic in the workspace
//! travels as real wire-format bytes produced and parsed by this crate, so
//! the measurement pipeline exercises the same encode/decode paths a live
//! scanner would.
//!
//! Design goals (mirroring the event-driven networking guides):
//! * **Robust parsing** — every offset, length and compression pointer is
//!   validated; malformed input returns [`WireError`], never panics.
//! * **Lossless carriage** — unknown record types and classes round-trip as
//!   opaque bytes.
//! * **Faithful compression** — encoders emit RFC 1035 name compression and
//!   decoders chase (strictly backward) pointers with a hop bound.
//! * **One encoder, one parser** — [`MessageWriter`] streams a message out
//!   front to back and [`MessageView`] validates one in place; the owned
//!   [`Message`] is a loop over the first and one walk of the second,
//!   so code that only reads or only relays never builds one.
//!
//! ```
//! use dnswire::{Message, Question, Record, RData, RecordType, Rcode};
//!
//! let q = Message::query(0x2b1a, Question::new("trusted.example".parse().unwrap(), RecordType::A));
//! let mut resp = Message::response_to(&q, Rcode::NoError);
//! resp.flags.authoritative = true;
//! resp.answers.push(Record::new(
//!     "trusted.example".parse().unwrap(),
//!     300,
//!     RData::A("203.0.113.99".parse().unwrap()),
//! ));
//! let wire = resp.encode().unwrap();
//! assert_eq!(Message::decode(&wire).unwrap(), resp);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod bufpool;
mod error;
mod message;
mod name;
mod rdata;
mod record;
mod types;

pub use error::{WireError, WireResult};
pub use message::{
    encode_query, Flags, Message, MessageView, MessageWriter, Section, MAX_MESSAGE_LEN,
    MAX_UDP_PAYLOAD,
};
pub use name::{Name, NameBuf, NameKey, NameRef, WireName, MAX_LABEL_LEN, MAX_NAME_LEN};
pub use rdata::{RData, RDataView};
pub use record::{Question, QuestionView, Record, RecordView};
pub use types::{Class, Opcode, Rcode, RecordType};
