//! Zero-dependency HTTP pull endpoint for live run observation.
//!
//! [`LiveServer`] binds a `TcpListener`, polls it non-blocking from a
//! background thread, and answers `GET` requests through a caller-
//! supplied provider closure. The intended wiring:
//!
//! * `GET /metrics` — Prometheus text exposition of a shared
//!   [`Registry`](ooc_metrics::Registry) snapshot, captured fresh per
//!   request, so scrapes see the counters a running parallel job is
//!   incrementing *right now* (see [`registry_provider`]).
//! * `GET /analyze` — the latest rendered forensics report, refreshed
//!   by the job at iteration boundaries from a session snapshot.
//!
//! The server speaks just enough HTTP/1.0 for `curl` and Prometheus:
//! it reads the request line, ignores headers, answers with
//! `Content-Length`, and closes the connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A response to one request path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    #[must_use]
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4".into(),
            body: body.into(),
        }
    }
}

/// The running pull endpoint. Dropping it stops the poll thread.
pub struct LiveServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and serves `provider` from
    /// a background thread until [`stop`](LiveServer::stop) or drop.
    /// `provider` maps a request path (e.g. `"/metrics"`) to a
    /// response; `None` becomes `404`.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn start<P>(bind: &str, provider: P) -> std::io::Result<LiveServer>
    where
        P: Fn(&str) -> Option<Response> + Send + 'static,
    {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ooc-live".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &provider),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            })
            .expect("spawn live server thread");
        Ok(LiveServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the poll thread and waits for it to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(mut stream: TcpStream, provider: &dyn Fn(&str) -> Option<Response>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // A request may arrive in several segments: read until the
    // request line is complete (or the buffer / timeout runs out).
    let mut buf = [0u8; 2048];
    let mut n = 0;
    while n < buf.len() && !buf[..n].contains(&b'\n') {
        match stream.read(&mut buf[n..]) {
            Ok(more) if more > 0 => n += more,
            _ => break,
        }
    }
    if n == 0 {
        return;
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let response = provider(path).unwrap_or(Response {
        status: 404,
        content_type: "text/plain".into(),
        body: format!("no such endpoint: {path}\n"),
    });
    let reason = match response.status {
        200 => "OK",
        404 => "Not Found",
        _ => "Status",
    };
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}

/// The standard wiring: `/metrics` serves a fresh Prometheus snapshot
/// of `registry`; `/analyze` serves the latest report text in
/// `report`; `/ledger` serves the latest provenance-ledger render in
/// `ledger`; `/` lists all three.
pub fn registry_provider(
    producer: &'static str,
    registry: Arc<ooc_metrics::Registry>,
    report: Arc<Mutex<String>>,
    ledger: Arc<Mutex<String>>,
) -> impl Fn(&str) -> Option<Response> + Send + 'static {
    move |path: &str| match path {
        "/metrics" => {
            let snap = ooc_metrics::Snapshot::capture(producer, &registry);
            Some(Response::text(ooc_metrics::prometheus_text(&snap)))
        }
        "/analyze" => {
            let body = report.lock().map(|r| r.clone()).unwrap_or_default();
            Some(Response::text(if body.is_empty() {
                "analysis pending (no iteration completed yet)\n".to_string()
            } else {
                body
            }))
        }
        "/ledger" => {
            let body = ledger.lock().map(|r| r.clone()).unwrap_or_default();
            Some(Response::text(if body.is_empty() {
                "ledger pending (no run completed yet)\n".to_string()
            } else {
                body
            }))
        }
        "/" => Some(Response::text("endpoints: /metrics /analyze /ledger\n")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fetches `path` from a running [`LiveServer`] over plain TCP.
    fn fetch(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        // One write: `write!` straight to the socket sends the request
        // in fragments, and a server answering (and closing) after the
        // first one breaks the pipe under the rest.
        stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: live\r\n\r\n").as_bytes())?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status = raw
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, b)| b.to_string());
        Ok((status, body))
    }

    #[test]
    fn serves_metrics_and_analysis_live() {
        let registry = Arc::new(ooc_metrics::Registry::new());
        let report = Arc::new(Mutex::new(String::new()));
        let ledger = Arc::new(Mutex::new(String::new()));
        let provider = registry_provider(
            "live-test",
            Arc::clone(&registry),
            Arc::clone(&report),
            Arc::clone(&ledger),
        );
        let mut server = LiveServer::start("127.0.0.1:0", provider).expect("bind");
        let addr = server.local_addr();

        registry.counter_add("live_ticks", &[("phase", "a")], 3);
        let (status, body) = fetch(addr, "/metrics").expect("fetch metrics");
        assert_eq!(status, 200);
        assert!(body.contains("live_ticks"), "{body}");

        // The registry is shared, not copied: later increments show up.
        registry.counter_add("live_ticks", &[("phase", "a")], 4);
        let (_, body) = fetch(addr, "/metrics").expect("refetch");
        assert!(body.contains('7'), "{body}");

        let (status, body) = fetch(addr, "/analyze").expect("fetch analyze");
        assert_eq!(status, 200);
        assert!(body.contains("pending"), "{body}");
        *report.lock().expect("report") = "critical path: 12 us\n".into();
        let (_, body) = fetch(addr, "/analyze").expect("refetch analyze");
        assert!(body.contains("critical path"), "{body}");

        let (status, body) = fetch(addr, "/ledger").expect("fetch ledger");
        assert_eq!(status, 200);
        assert!(body.contains("pending"), "{body}");
        *ledger.lock().expect("ledger") = "== I/O provenance: trans c-opt\n".into();
        let (_, body) = fetch(addr, "/ledger").expect("refetch ledger");
        assert!(body.contains("I/O provenance"), "{body}");

        let (_, body) = fetch(addr, "/").expect("fetch index");
        assert!(body.contains("/ledger"), "{body}");

        let (status, _) = fetch(addr, "/nope").expect("fetch 404");
        assert_eq!(status, 404);

        server.stop();
    }
}
