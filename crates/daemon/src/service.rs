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
use crate::events::{category_str, EpochRecord, UrEvent};
use crate::http::{json_escape, read_request, write_response, Request, Response};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use urhunter::UrKey;

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
    pub fn default_listen() -> SocketAddr {
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
            for stream in listener.incoming() {
                if let Ok(mut stream) = stream {
                    handle_connection(&mut stream, &http_shared);
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

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let response = match read_request(stream) {
        Ok(request) => route(&request, shared),
        Err(_) => Response::error(400, "malformed request"),
    };
    let _ = write_response(stream, &response);
}

fn route(request: &Request, shared: &Shared) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/coverage") => coverage(shared),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/deltas") => deltas(request, shared),
        ("GET", "/") => index(),
        ("GET" | "POST", "/shutdown") => {
            shared.stop();
            Response::json("{\"status\":\"shutting down\"}\n".to_string())
        }
        ("GET", path) if path.starts_with("/verdict/") => {
            verdict(shared, &path["/verdict/".len()..])
        }
        ("GET", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "method not allowed"),
    }
}

fn index() -> Response {
    Response::json(
        "{\"service\":\"urhunterd\",\"endpoints\":[\"/healthz\",\"/verdict/<domain>\",\
         \"/deltas?since=<epoch>\",\"/coverage\",\"/metrics\",\"/shutdown\"]}\n"
            .to_string(),
    )
}

fn healthz(shared: &Shared) -> Response {
    let state = shared.state.lock().expect("state lock");
    let max = match shared.max_epochs {
        Some(m) => m.to_string(),
        None => "null".to_string(),
    };
    Response::json(format!(
        "{{\"status\":\"ok\",\"epochs_done\":{},\"max_epochs\":{max},\"sim_day\":{},\
         \"store_present\":{},\"store_total\":{},\"shutting_down\":{}}}\n",
        state.epochs_done,
        state.sim_day,
        state.store.present_len(),
        state.store.len(),
        shared.is_stopping()
    ))
}

fn coverage(shared: &Shared) -> Response {
    let state = shared.state.lock().expect("state lock");
    let cov = &state.coverage;
    let servers: Vec<String> = cov
        .quarantined_servers
        .iter()
        .map(|ip| format!("\"{ip}\""))
        .collect();
    Response::json(format!(
        "{{\"epoch\":{},\"sim_day\":{},\"scheduled\":{},\"answered\":{},\
         \"retried_answered\":{},\"gave_up\":{},\"skipped_quarantined\":{},\
         \"retransmissions\":{},\"quarantined_servers\":[{}],\
         \"store\":{{\"present\":{},\"total\":{}}},\"events_retained\":{}}}\n",
        state.epochs_done,
        state.sim_day,
        cov.scheduled,
        cov.answered,
        cov.retried_answered,
        cov.gave_up,
        cov.skipped_quarantined,
        cov.retransmissions,
        servers.join(","),
        state.store.present_len(),
        state.store.len(),
        state.log.event_count(),
    ))
}

fn metrics(shared: &Shared) -> Response {
    let state = shared.state.lock().expect("state lock");
    // One exporter for the whole system: the same `render_prometheus`
    // behind `Obs::to_prometheus` also backs the CLI's file export.
    let body = state
        .hub
        .as_ref()
        .map(|hub| hub.to_prometheus())
        .unwrap_or_default();
    Response::text(body)
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

fn verdict(shared: &Shared, raw_domain: &str) -> Response {
    let Some(domain) = normalize_domain(raw_domain) else {
        return Response::error(400, &format!("not a valid domain name: {raw_domain}"));
    };
    let state = shared.state.lock().expect("state lock");
    let Some(keys) = state.store.domain_keys(&domain) else {
        return Response::error(404, &format!("no UR ever observed for {domain}"));
    };
    let mut keys: Vec<UrKey> = keys.to_vec();
    keys.sort_by_key(|k| (k.ns_ip, k.rtype.code()));
    let mut records = Vec::with_capacity(keys.len());
    for key in &keys {
        let s = state.store.get(key).expect("indexed key has state");
        records.push(format!(
            "{{\"ns\":\"{}\",\"rtype\":\"{}\",\"category\":\"{}\",\"present\":{},\
             \"first_seen\":{},\"last_event\":{},\"changes\":{}}}",
            key.ns_ip,
            key.rtype,
            category_str(s.category),
            s.present,
            s.first_seen,
            s.last_event,
            s.changes
        ));
    }
    Response::json(format!(
        "{{\"domain\":\"{}\",\"epoch\":{},\"records\":[{}]}}\n",
        json_escape(&domain),
        state.epochs_done,
        records.join(",")
    ))
}

fn render_event(event: &UrEvent) -> String {
    let (kind, key, extra) = match event {
        UrEvent::Observed { key, verdict } => (
            "observed",
            key,
            format!(",\"category\":\"{}\"", category_str(*verdict)),
        ),
        UrEvent::VerdictChanged { key, from, to } => (
            "verdict_changed",
            key,
            format!(
                ",\"from\":\"{}\",\"to\":\"{}\"",
                category_str(*from),
                category_str(*to)
            ),
        ),
        UrEvent::Gone { key, last } => (
            "gone",
            key,
            format!(",\"last\":\"{}\"", category_str(*last)),
        ),
    };
    format!(
        "{{\"kind\":\"{kind}\",\"ns\":\"{}\",\"domain\":\"{}\",\"rtype\":\"{}\"{extra}}}",
        key.ns_ip,
        json_escape(&key.domain.to_string()),
        key.rtype
    )
}

fn render_epoch_record(record: &EpochRecord, with_events: bool) -> String {
    let events = if with_events {
        let items: Vec<String> = record.events.iter().map(render_event).collect();
        format!(",\"events\":[{}]", items.join(","))
    } else {
        String::new()
    };
    format!(
        "{{\"epoch\":{},\"sim_day\":{},\"observed\":{},\"verdict_changed\":{},\"gone\":{},\
         \"seal\":{{\"classified_hash\":\"{:#018x}\",\"verdict_hash\":\"{:#018x}\",\
         \"sim_hash\":\"{:#018x}\",\"total_urs\":{},\"present\":{}}}{events}}}",
        record.epoch,
        record.sim_day,
        record.observed(),
        record.changed(),
        record.gone(),
        record.seal.classified_hash,
        record.seal.verdict_hash,
        record.seal.sim_hash,
        record.seal.total_urs,
        record.seal.present,
    )
}

fn deltas(request: &Request, shared: &Shared) -> Response {
    let since: u64 = match request.query_param("since").unwrap_or("0").parse() {
        Ok(n) => n,
        Err(_) => return Response::error(400, "since must be a non-negative epoch number"),
    };
    // `events=0` trims the payload to per-epoch counts and seals.
    let with_events = request.query_param("events") != Some("0");
    let state = shared.state.lock().expect("state lock");
    let (records, compacted) = state.log.records_since(since);
    let epochs: Vec<String> = records
        .iter()
        .map(|r| render_epoch_record(r, with_events))
        .collect();
    Response::json(format!(
        "{{\"since\":{since},\"epochs_done\":{},\"compacted_before\":{compacted},\"epochs\":[{}]}}\n",
        state.epochs_done,
        epochs.join(",")
    ))
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
