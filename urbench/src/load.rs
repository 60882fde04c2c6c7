//! The daemon workload's load generator: one closed-loop client, one
//! `Connection: close` GET at a time over the host's loopback interface,
//! [`THINK_TIME`] between a reply and the next request.

use crate::adapter::SplitMix64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the client waits after a reply before it asks again. Without
/// a pause, whether the next connection is already queued when the daemon
/// returns to `accept` is a race the kernel's scheduler decides (the
/// client wins when both threads share a processor, and then skips the
/// accept loop's sleep): the same code read 0.08 ms or 5.2 ms a request
/// from one boot of the box to the next. With the pause the daemon always
/// gets there first, so every request sees the accept loop as a client
/// that arrives at a time of its own does.
pub const THINK_TIME: Duration = Duration::from_millis(1);

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Bytes read off the socket, headers included.
    pub bytes: usize,
    pub connect_us: f64,
    /// Connect until the last byte.
    pub total_ms: f64,
}

pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connect_us = start.elapsed().as_secs_f64() * 1e6;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: urhunterd\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let malformed = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(malformed)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    Ok(Reply {
        status,
        body: body.to_string(),
        bytes: raw.len(),
        connect_us,
        total_ms,
    })
}

/// The value of an unsigned-integer field of a flat JSON object.
pub fn json_u64(body: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every distinct `"domain":"…"` value in a `/deltas` body, sorted.
pub fn domains_in(body: &str) -> Vec<String> {
    let needle = "\"domain\":\"";
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(needle) {
        rest = &rest[at + needle.len()..];
        let Some(end) = rest.find('"') else { break };
        out.push(rest[..end].to_string());
        rest = &rest[end..];
    }
    out.sort();
    out.dedup();
    out
}

/// What a request asks, so its answer can be checked.
pub enum Ask {
    /// A tracked domain, by index into the tracked list: 200.
    Tracked(usize),
    /// A domain no scan ever saw: 404 is the correct answer.
    NeverSeen,
    Deltas,
    Coverage,
    Healthz,
}

/// The seeded request mix: 80 % verdicts of tracked domains, 5 % verdicts
/// of never-seen domains, 5 % each of `/deltas`, `/coverage`, `/healthz`.
pub struct Mix {
    rng: SplitMix64,
    tracked: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64, tracked: Vec<String>) -> Self {
        Mix {
            rng: SplitMix64(seed ^ 0x004D_4958),
            tracked,
        }
    }

    pub fn tracked(&self) -> &[String] {
        &self.tracked
    }

    /// The next request; `epoch` is the newest epoch seen in a response.
    pub fn next(&mut self, epoch: u64) -> (Ask, String) {
        match self.rng.below(100) {
            0..=79 => {
                let i = self.rng.below(self.tracked.len());
                (Ask::Tracked(i), format!("/verdict/{}", self.tracked[i]))
            }
            80..=84 => (
                Ask::NeverSeen,
                format!("/verdict/never-seen-{}.example", self.rng.below(1 << 20)),
            ),
            85..=89 => (
                Ask::Deltas,
                format!("/deltas?since={}", epoch.saturating_sub(1)),
            ),
            90..=94 => (Ask::Coverage, "/coverage".to_string()),
            _ => (Ask::Healthz, "/healthz".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_domain_extraction() {
        let body = "{\"epoch\":6,\"epochs\":[{\"events\":[{\"domain\":\"b.com\"},\
                    {\"domain\":\"a.com\"},{\"domain\":\"b.com\"}]}]}";
        assert_eq!(json_u64(body, "epoch"), Some(6));
        assert_eq!(json_u64(body, "absent"), None);
        assert_eq!(domains_in(body), ["a.com", "b.com"]);
    }

    #[test]
    fn mix_is_seeded_and_has_the_stated_shares() {
        let tracked: Vec<String> = (0..10).map(|i| format!("d{i}.com")).collect();
        let mut a = Mix::new(7, tracked.clone());
        let mut b = Mix::new(7, tracked);
        let mut verdicts = 0;
        for _ in 0..10_000 {
            let (ask, path) = a.next(3);
            assert_eq!(path, b.next(3).1);
            verdicts += matches!(ask, Ask::Tracked(_)) as usize;
        }
        assert!((7_800..=8_200).contains(&verdicts), "{verdicts}");
    }
}
