//! The resident daemon: a scan thread driving [`EpochDriver`] epochs and
//! an HTTP control plane serving the shared [`LiveState`].
//!
//! The simulated world is thread-bound (`!Send`), so the scan thread owns
//! it outright and only ever locks the shared state for the brief
//! [`EpochDriver::publish`] commit; HTTP handlers take the same lock to
//! answer queries, so clients always see a whole epoch — never a scan in
//! progress. Neither thread polls: the HTTP thread blocks in `accept`, the
//! scan thread waits out the wall interval on the stop signal and returns
//! after its last epoch, and a shutdown request wakes both.
//!
//! Endpoints:
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /healthz` | liveness + epoch progress |
//! | `GET /verdict/<domain>` | every UR ever observed for the domain |
//! | `GET /deltas?since=N` | per-epoch event deltas after epoch `N` |
//! | `GET /coverage` | newest epoch's probe accounting |
//! | `GET /metrics` | newest epoch's registry, Prometheus text |
//! | `POST /shutdown` | SIGTERM-equivalent: finish and exit cleanly |

use crate::driver::{DriverConfig, EpochDriver, LiveState};
use crate::events::{category_str, event_counts, Epoch, UrEvent};
use crate::http::{read_request, write_error, Json, Request, Response, MAX_HEAD_BYTES};
use std::fmt;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything a daemon instance needs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind the control plane on (port 0 picks a free port).
    pub listen: SocketAddr,
    /// Stop scanning after this many epochs (`None` = scan forever); the
    /// control plane keeps serving the final state until `/shutdown`.
    pub max_epochs: Option<u64>,
    /// Wall-clock pause between epochs. Epoch pacing itself runs on the
    /// simulated clock (free in wall time); this knob keeps a resident
    /// unlimited-epoch daemon from spinning a core.
    pub wall_interval: Duration,
    /// The measurement configuration.
    pub driver: DriverConfig,
}

impl DaemonConfig {
    /// Default posture: loopback listener, small world, unlimited epochs.
    pub(crate) fn default_listen() -> SocketAddr {
        "127.0.0.1:7353".parse().expect("static address")
    }
}

/// State shared between the scan thread and the HTTP handlers.
struct Shared {
    state: Mutex<LiveState>,
    /// The one stop signal: set by `/shutdown` and
    /// [`DaemonHandle::request_shutdown`], waited on between epochs.
    stopping: Mutex<bool>,
    stop_set: Condvar,
    max_epochs: Option<u64>,
}

impl Shared {
    fn stop(&self) {
        *self.stopping.lock().expect("stop lock") = true;
        self.stop_set.notify_all();
    }

    fn is_stopping(&self) -> bool {
        *self.stopping.lock().expect("stop lock")
    }

    /// Wait up to `timeout` for the stop signal; true once it is set.
    fn wait_for_stop(&self, timeout: Duration) -> bool {
        let stopping = self.stopping.lock().expect("stop lock");
        let (stopping, _) = self
            .stop_set
            .wait_timeout_while(stopping, timeout, |stopping| !*stopping)
            .expect("stop lock");
        *stopping
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`DaemonHandle::request_shutdown`] (or hit `/shutdown`) then
/// [`DaemonHandle::join`].
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    scan: JoinHandle<()>,
    http: JoinHandle<()>,
}

impl DaemonHandle {
    /// The bound control-plane address (resolved port included).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Completed epochs so far.
    pub fn epochs_done(&self) -> u64 {
        self.shared.state.lock().expect("state lock").epochs_done
    }

    /// Ask both threads to exit (the SIGTERM-equivalent `/shutdown`
    /// endpoint sets the same signal). The HTTP thread blocks in `accept`,
    /// so this also opens one connection to wake it.
    pub fn request_shutdown(&self) {
        self.shared.stop();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Refused once the HTTP thread has already exited: nothing to wake.
        let _ = TcpStream::connect(wake);
    }

    /// Wait for both threads to exit and return the final state.
    pub fn join(self) -> LiveState {
        self.scan.join().expect("scan thread");
        self.http.join().expect("http thread");
        let state = self.shared.state.lock().expect("state lock");
        state.clone()
    }
}

/// Bind the listener, start the scan and control-plane threads, and
/// return a handle. The world is generated inside the scan thread (it is
/// thread-bound); epoch 1 completes shortly after this returns.
pub fn start(cfg: DaemonConfig) -> io::Result<DaemonHandle> {
    let listener = TcpListener::bind(cfg.listen)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        state: Mutex::new(LiveState::default()),
        stopping: Mutex::new(false),
        stop_set: Condvar::new(),
        max_epochs: cfg.max_epochs,
    });

    let scan_shared = shared.clone();
    let driver_cfg = cfg.driver.clone();
    let max_epochs = cfg.max_epochs;
    let wall_interval = cfg.wall_interval;
    let scan = std::thread::Builder::new()
        .name("urhunterd-scan".into())
        .spawn(move || {
            let mut driver = EpochDriver::new(driver_cfg);
            let mut done = 0u64;
            let mut pause = Duration::ZERO; // the first epoch starts at once
            while max_epochs.is_none_or(|m| done < m) && !scan_shared.wait_for_stop(pause) {
                let scan = driver.scan_epoch();
                let mut state = scan_shared.state.lock().expect("state lock");
                let summary = driver.publish(scan, &mut state);
                drop(state);
                done = summary.epoch;
                eprintln!(
                    "urhunterd: epoch {} (day {}): +{} observed, {} verdict changes, -{} gone, {} present",
                    summary.epoch,
                    summary.sim_day,
                    summary.observed,
                    summary.changed,
                    summary.gone,
                    summary.seal.present
                );
                pause = wall_interval;
            }
        })?;

    let http_shared = shared.clone();
    let http = std::thread::Builder::new()
        .name("urhunterd-http".into())
        .spawn(move || {
            let mut head = [0u8; MAX_HEAD_BYTES];
            for stream in listener.incoming() {
                if let Ok(mut stream) = stream {
                    handle_connection(&mut stream, &http_shared, &mut head);
                }
                if http_shared.is_stopping() {
                    break;
                }
            }
        })?;

    Ok(DaemonHandle {
        addr,
        shared,
        scan,
        http,
    })
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared, head: &mut [u8]) {
    let mut response = Response::json();
    match read_request(stream, head) {
        Ok(request) => route(&request, shared, &mut response),
        Err(_) => response.error(400, "malformed request"),
    }
    let _ = response.send(stream);
}

// Every answer is written onto its response's one buffer; a write onto a
// `Vec` cannot fail, so its result is dropped.
fn route(request: &Request, shared: &Shared, res: &mut Response) {
    let state = || shared.state.lock().expect("state lock");
    match (request.method.as_str(), request.path) {
        ("GET", "/healthz") => healthz(shared, &mut res.body),
        ("GET", "/coverage") => coverage(&state(), &mut res.body),
        ("GET", "/metrics") => {
            // One exporter for the whole system: `Obs::to_prometheus` also
            // backs the CLI's file export.
            if let Some(hub) = &state().hub {
                res.body.extend_from_slice(hub.to_prometheus().as_bytes());
            }
            res.content_type = "text/plain; version=0.0.4";
        }
        ("GET", "/deltas") => match request.query_param("since").unwrap_or("0").parse() {
            // `events=0` trims the payload to per-epoch counts and seals.
            Ok(since) => {
                let with_events = request.query_param("events") != Some("0");
                state().write_deltas(since, with_events, &mut res.body);
            }
            Err(_) => res.error(400, "since must be a non-negative epoch number"),
        },
        ("GET", "/") => res.body.extend_from_slice(
            b"{\"service\":\"urhunterd\",\"endpoints\":[\"/healthz\",\"/verdict/<domain>\",\
              \"/deltas?since=<epoch>\",\"/coverage\",\"/metrics\",\"/shutdown\"]}\n",
        ),
        ("GET" | "POST", "/shutdown") => {
            shared.stop();
            res.body
                .extend_from_slice(b"{\"status\":\"shutting down\"}\n");
        }
        ("GET", path) => match path.strip_prefix("/verdict/") {
            Some(raw) => match normalize_domain(raw) {
                Some(domain) => res.status = state().write_verdict(&domain, &mut res.body),
                None => res.error(400, format_args!("not a valid domain name: {raw}")),
            },
            None => res.error(404, "no such endpoint"),
        },
        _ => res.error(405, "method not allowed"),
    }
}

fn healthz(shared: &Shared, out: &mut Vec<u8>) {
    let state = shared.state.lock().expect("state lock");
    let null: &dyn fmt::Display = &"null";
    let max = shared.max_epochs.as_ref().map_or(null, |m| m);
    let _ = writeln!(
        out,
        "{{\"status\":\"ok\",\"epochs_done\":{},\"max_epochs\":{max},\"sim_day\":{},\
         \"store_present\":{},\"store_total\":{},\"shutting_down\":{}}}",
        state.epochs_done,
        state.sim_day,
        state.store.present_len(),
        state.store.len(),
        shared.is_stopping()
    );
}

fn coverage(state: &LiveState, out: &mut Vec<u8>) {
    let cov = &state.coverage;
    let _ = write!(
        out,
        "{{\"epoch\":{},\"sim_day\":{},\"scheduled\":{},\"answered\":{},\
         \"retried_answered\":{},\"gave_up\":{},\"skipped_quarantined\":{},\
         \"retransmissions\":{},\"quarantined_servers\":[",
        state.epochs_done,
        state.sim_day,
        cov.scheduled,
        cov.answered,
        cov.retried_answered,
        cov.gave_up,
        cov.skipped_quarantined,
        cov.retransmissions,
    );
    for (i, ip) in cov.quarantined_servers.iter().enumerate() {
        let _ = write!(out, "{}\"{ip}\"", comma(i));
    }
    let _ = writeln!(
        out,
        "],\"store\":{{\"present\":{},\"total\":{}}},\"events_retained\":{}}}",
        state.store.present_len(),
        state.store.len(),
        state.log.event_count(),
    );
}

/// The separator in front of the `i`th item of a JSON array.
fn comma(i: usize) -> &'static str {
    [",", ""][usize::from(i == 0)]
}

/// Normalize a domain path segment for store lookup: lowercase, no
/// trailing dot. Returns `None` if it is not a well-formed name.
fn normalize_domain(raw: &str) -> Option<String> {
    let lowered = raw.trim().to_ascii_lowercase();
    let trimmed = lowered.strip_suffix('.').unwrap_or(&lowered);
    if trimmed.is_empty() {
        return None;
    }
    // Validation only — parsing never interns the queried name, so junk
    // queries cannot grow the global name arena.
    let name: dnswire::Name = trimmed.parse().ok()?;
    Some(name.to_string())
}

impl LiveState {
    /// Write the body of `GET /verdict/<domain>` onto `out` (reserved in
    /// one piece: one block at most, whatever the record count) and return
    /// its status: 200 with every UR ever observed for `domain`, a store
    /// display text, sorted by (nameserver, type); 404 for one never seen.
    pub fn write_verdict(&self, domain: &str, out: &mut Vec<u8>) -> u16 {
        let Some((keys, states)) = self.store.domain(domain) else {
            write_error(out, format_args!("no UR ever observed for {domain}"));
            return 404;
        };
        // 176 bytes: a record with the longest fields and 20-digit epochs.
        out.reserve(64 + 2 * domain.len() + 176 * keys.len());
        let _ = write!(
            out,
            "{{\"domain\":\"{}\",\"epoch\":{},\"records\":[",
            Json(&domain),
            self.epochs_done
        );
        // By hand: `write!` a record took three times as long.
        for (i, (key, s)) in keys.iter().zip(states).enumerate() {
            out.extend_from_slice(&b",{\"ns\":\""[usize::from(i == 0)..]);
            for (j, octet) in key.ns_ip.octets().into_iter().enumerate() {
                out.extend_from_slice(&b"."[usize::from(j == 0)..]);
                push_decimal(out, octet.into());
            }
            let _ = write!(out, "\",\"rtype\":\"{}\",\"category\":\"", key.rtype);
            out.extend_from_slice(category_str(s.category).as_bytes());
            out.extend_from_slice(b"\",\"present\":");
            out.extend_from_slice(if s.present { b"true" } else { b"false" });
            out.extend_from_slice(b",\"first_seen\":");
            push_decimal(out, s.first_seen);
            out.extend_from_slice(b",\"last_event\":");
            push_decimal(out, s.last_event);
            out.extend_from_slice(b",\"changes\":");
            push_decimal(out, s.changes.into());
            out.push(b'}');
        }
        out.extend_from_slice(b"]}\n");
        200
    }

    /// Write the body of `GET /deltas?since=<since>` onto `out`: each epoch
    /// after `since`, its seal, and its events unless `events=0` asks not.
    pub fn write_deltas(&self, since: Epoch, with_events: bool, out: &mut Vec<u8>) {
        let (records, compacted) = self.log.records_since(since);
        let _ = write!(
            out,
            "{{\"since\":{since},\"epochs_done\":{},\"compacted_before\":{compacted},\"epochs\":[",
            self.epochs_done
        );
        for (i, record) in records.iter().enumerate() {
            let seal = &record.seal;
            let (observed, changed, gone) = event_counts(&record.events);
            let _ = write!(
                out,
                "{}{{\"epoch\":{},\"sim_day\":{},\"observed\":{observed},\"verdict_changed\":{changed},\
                 \"gone\":{gone},\
                 \"seal\":{{\"classified_hash\":\"{:#018x}\",\"verdict_hash\":\"{:#018x}\",\
                 \"sim_hash\":\"{:#018x}\",\"total_urs\":{},\"present\":{}}}",
                comma(i),
                record.epoch,
                record.sim_day,
                seal.classified_hash,
                seal.verdict_hash,
                seal.sim_hash,
                seal.total_urs,
                seal.present,
            );
            if with_events {
                out.extend_from_slice(b",\"events\":[");
                for (j, event) in record.events.iter().enumerate() {
                    write_event(out, comma(j), event);
                }
                out.push(b']');
            }
            out.push(b'}');
        }
        out.extend_from_slice(b"]}\n");
    }
}

/// Append `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, n: u64) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(b'0' + (n % 10) as u8);
}

fn write_event(out: &mut Vec<u8>, comma: &str, event: &UrEvent) {
    let (kind, key) = match event {
        UrEvent::Observed { key, .. } => ("observed", key),
        UrEvent::VerdictChanged { key, .. } => ("verdict_changed", key),
        UrEvent::Gone { key, .. } => ("gone", key),
    };
    let _ = write!(
        out,
        "{comma}{{\"kind\":\"{kind}\",\"ns\":\"{}\",\"domain\":\"{}\",\"rtype\":\"{}\"",
        key.ns_ip,
        Json(key.domain),
        key.rtype
    );
    let _ = match *event {
        UrEvent::Observed { verdict, .. } => {
            write!(out, ",\"category\":\"{}\"}}", category_str(verdict))
        }
        UrEvent::VerdictChanged { from, to, .. } => write!(
            out,
            ",\"from\":\"{}\",\"to\":\"{}\"}}",
            category_str(from),
            category_str(to)
        ),
        UrEvent::Gone { last, .. } => write!(out, ",\"last\":\"{}\"}}", category_str(last)),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_normalization() {
        assert_eq!(normalize_domain("X.CoM."), Some("x.com".to_string()));
        assert_eq!(normalize_domain("a.b.c"), Some("a.b.c".to_string()));
        assert_eq!(normalize_domain(""), None);
        assert_eq!(normalize_domain("bad..name"), None);
        assert_eq!(normalize_domain("sp ace.com"), None);
    }
}
