//! A minimal HTTP/1.1 server layer over [`std::net::TcpListener`].
//!
//! The workspace is dependency-free by design, so this implements exactly
//! the slice of HTTP the control plane needs: parse a request line and
//! headers, dispatch on method + path, write a response with
//! `Content-Length` and close the connection. No keep-alive, no chunked
//! encoding, no TLS — clients are monitoring scrapes and short-lived
//! queries.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest request head (request line + headers) accepted, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Per-connection socket timeout: a stalled client can never wedge the
/// accept loop for longer than this.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed request: method, decoded path, and the raw query string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// The HTTP method, uppercased (`GET`, `POST`, ...).
    pub(crate) method: String,
    /// The path component, without the query string.
    pub(crate) path: String,
    /// The query string after `?`, if any (undecoded).
    pub(crate) query: Option<String>,
}

impl Request {
    /// The value of `name` in the query string (`a=1&b=2`), if present.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        let q = self.query.as_deref()?;
        q.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    /// HTTP status code.
    pub(crate) status: u16,
    /// `Content-Type` header value.
    pub(crate) content_type: &'static str,
    /// The body.
    pub(crate) body: String,
}

impl Response {
    /// A 200 response with a JSON body.
    pub(crate) fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// A 200 response with a plain-text body (Prometheus exposition).
    pub(crate) fn text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub(crate) fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: format!("{{\"error\":\"{}\"}}\n", json_escape(message)),
        }
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

/// Read and parse one request head from the stream. The body, if any, is
/// ignored — every control-plane endpoint is parameterized by path and
/// query string alone.
pub(crate) fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?).take(MAX_HEAD_BYTES as u64);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request target"))?;
    // Drain headers so the client sees the response after a full write.
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    Ok(Request {
        method,
        path,
        query,
    })
}

/// Serialize a response and close the connection.
pub(crate) fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_params_parse() {
        let r = Request {
            method: "GET".into(),
            path: "/deltas".into(),
            query: Some("since=3&cap=10".into()),
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
            s.write_all(b"GET /verdict/x.com?pretty=1 HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            buf
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/verdict/x.com");
        assert_eq!(req.query_param("pretty"), Some("1"));
        write_response(&mut stream, &Response::json("{\"ok\":true}".into())).unwrap();
        drop(stream);
        let got = client.join().unwrap();
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");
        assert!(got.contains("Content-Length: 11"));
        assert!(got.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn error_bodies_are_json() {
        let e = Response::error(404, "domain \"x\" not found");
        assert_eq!(e.status, 404);
        assert!(e.body.contains("\\\"x\\\""));
    }
}
