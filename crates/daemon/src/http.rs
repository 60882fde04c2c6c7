//! A minimal HTTP/1.1 server layer over [`std::net::TcpListener`].
//!
//! The workspace is dependency-free by design, so this implements exactly
//! the slice of HTTP the control plane needs: parse a request line and
//! headers, dispatch on method + path, write a response with
//! `Content-Length` and close the connection. No keep-alive, no chunked
//! encoding, no TLS — clients are monitoring scrapes and short-lived
//! queries. A request is parsed where it was read; a response is sent from
//! the one buffer it was written into.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest request head (request line + headers) accepted, in bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Per-connection socket timeout: a stalled client can never wedge the
/// accept loop for longer than this.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Room in front of every body for its head (the longest is 146 bytes).
const HEAD_ROOM: usize = 160;

/// One parsed request, its path and query borrowed from the head's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request<'h> {
    /// The HTTP method, uppercased (`GET`, `POST`, ...).
    pub(crate) method: String,
    /// The path component, without the query string.
    pub(crate) path: &'h str,
    /// The query string after `?`, if any (undecoded).
    pub(crate) query: Option<&'h str>,
}

impl Request<'_> {
    /// The value of `name` in the query string (`a=1&b=2`), if present.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// A response written into the buffer it is sent from: room for the head,
/// then the body. The head carries the body's length, so it is written
/// last, into the tail of its room, and head and body leave in one write.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    /// [`HEAD_ROOM`] bytes, then the body: handlers append to it.
    pub(crate) body: Vec<u8>,
}

impl Response {
    /// A 200 response with an empty JSON body.
    pub(crate) fn json() -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: vec![0; HEAD_ROOM],
        }
    }

    /// Replace the body with a JSON `{"error": ...}` one.
    pub(crate) fn error(&mut self, status: u16, message: impl fmt::Display) {
        self.status = status;
        self.body.truncate(HEAD_ROOM);
        write_error(&mut self.body, message);
    }

    /// Write the head in front of the body and send both.
    pub(crate) fn send(mut self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = io::Cursor::new([0u8; HEAD_ROOM]);
        write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len() - HEAD_ROOM
        )?;
        let start = HEAD_ROOM - head.position() as usize;
        self.body[start..HEAD_ROOM].copy_from_slice(&head.get_ref()[..HEAD_ROOM - start]);
        stream.write_all(&self.body[start..])
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// Read one request head into `buf` and parse it there. The body, if any,
/// is ignored — every control-plane endpoint is parameterized by path and
/// query string alone.
pub(crate) fn read_request<'h>(
    stream: &mut TcpStream,
    buf: &'h mut [u8],
) -> io::Result<Request<'h>> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Read through the blank line that ends the headers, so the client
    // sees the response after a full write; or to the end of the stream,
    // or of the buffer.
    let mut len = 0;
    let end = loop {
        let n = stream.read(&mut buf[len..])?;
        let from = len.saturating_sub(2);
        len += n;
        if let Some(end) = head_end(&buf[from..len]) {
            break from + end;
        }
        if n == 0 {
            break len;
        }
    };
    let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| invalid("head is not UTF-8"))?;
    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(invalid("no method and target"));
    };
    let (path, query) = target
        .split_once('?')
        .map_or((target, None), |(p, q)| (p, Some(q)));
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
    })
}

/// The length of the head in `buf` through the blank line after its first
/// line break, if that line is in `buf`.
fn head_end(buf: &[u8]) -> Option<usize> {
    (0..buf.len()).find_map(|i| match buf[i..] {
        [b'\n', b'\n', ..] => Some(i + 2),
        [b'\n', b'\r', b'\n', ..] => Some(i + 3),
        _ => None,
    })
}

/// Write a JSON `{"error": ...}` body onto `out`.
pub(crate) fn write_error(out: &mut Vec<u8>, message: impl fmt::Display) {
    let _ = writeln!(out, "{{\"error\":\"{}\"}}", Json(message));
}

/// Displays its value as the inside of a JSON string literal.
pub(crate) struct Json<T>(pub(crate) T);

impl<T: fmt::Display> fmt::Display for Json<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Escape<'a, 'b>(&'a mut fmt::Formatter<'b>);
        impl fmt::Write for Escape<'_, '_> {
            fn write_str(&mut self, mut s: &str) -> fmt::Result {
                while let Some(at) = s.find(|c| matches!(c, '"' | '\\' | '\0'..='\x1f')) {
                    self.0.write_str(&s[..at])?;
                    match s.as_bytes()[at] {
                        b'"' => self.0.write_str("\\\"")?,
                        b'\\' => self.0.write_str("\\\\")?,
                        b'\n' => self.0.write_str("\\n")?,
                        b'\r' => self.0.write_str("\\r")?,
                        b'\t' => self.0.write_str("\\t")?,
                        c => write!(self.0, "\\u{c:04x}")?,
                    }
                    s = &s[at + 1..];
                }
                self.0.write_str(s)
            }
        }
        fmt::Write::write_fmt(&mut Escape(f), format_args!("{}", self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_params_parse() {
        let r = Request {
            method: "GET".into(),
            path: "/deltas",
            query: Some("since=3&cap=10"),
        };
        assert_eq!(r.query_param("since"), Some("3"));
        assert_eq!(r.query_param("cap"), Some("10"));
        assert_eq!(r.query_param("absent"), None);
        let none = Request {
            query: None,
            ..r.clone()
        };
        assert_eq!(none.query_param("since"), None);
    }

    #[test]
    fn request_round_trip_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The head in two pieces, the blank line split across them.
            s.write_all(b"get /verdict/x.com?pretty=1 HTTP/1.1\r\nHost: t\r\n\r")
                .unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b"\n").unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            buf
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut head = [0u8; MAX_HEAD_BYTES];
        let req = read_request(&mut stream, &mut head).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/verdict/x.com");
        assert_eq!(req.query_param("pretty"), Some("1"));
        let mut response = Response::json();
        response.body.extend_from_slice(b"{\"ok\":true}");
        response.send(&mut stream).unwrap();
        drop(stream);
        let got = client.join().unwrap();
        assert_eq!(
            got,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: close\r\n\r\n{\"ok\":true}"
        );
    }

    #[test]
    fn heads_end_at_the_first_blank_line() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\nHost: t\r\n\r\nbody"), Some(27));
        assert_eq!(head_end(b"GET / HTTP/1.1\n\nbody"), Some(16));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\nHost: t\r\n"), None);
    }

    #[test]
    fn error_bodies_are_json() {
        let mut e = Response::json();
        e.error(404, "domain \"x\" not found\t\u{1}");
        assert_eq!(e.status, 404);
        assert_eq!(
            &e.body[HEAD_ROOM..],
            b"{\"error\":\"domain \\\"x\\\" not found\\t\\u0001\"}\n"
        );
    }
}
