//! Minimal zero-dependency HTTP/1.1 observability listener
//! ([`HttpExpo`]): the layer that makes a node debuggable from the
//! *outside* — a real Prometheus server scrapes `/metrics`, an
//! orchestrator probes `/healthz` and `/readyz`, an operator curls
//! `/traces` and `/logs` to join request spans across the fleet.
//!
//! Both tiers can mount one (`--http-addr` on `vrdag-cli serve` and
//! `route`); the endpoints are closures over whatever the tier exposes,
//! so the listener itself knows nothing about serving:
//!
//! | path        | reply                                                |
//! |-------------|------------------------------------------------------|
//! | `/metrics`  | Prometheus text, byte-identical to the wire `METRICS` payload |
//! | `/healthz`  | `200 ok` while the process is alive (liveness)       |
//! | `/readyz`   | `200 ready` / `503 unavailable` from the readiness predicate |
//! | `/traces`   | recent [`Span`](vrdag_obs::Span)s as JSON (`?limit=N`) |
//! | `/logs`     | the obs [`Logger`] ring as JSON                      |
//!
//! Deliberately *not* a web framework: GET/HEAD only, `Connection:
//! close` on every reply, one short-lived handler thread per
//! connection with read/write timeouts, and an 8 KiB header cap. The
//! observability plane sees a handful of scrapes per minute — the
//! simple thing is the robust thing. The request-line parser never
//! panics on arbitrary bytes (property-tested), because this port is
//! exactly where monitoring infrastructure pokes blindly.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vrdag_obs::{Logger, SpanRecorder};

/// Per-connection read/write timeout: a stalled scraper is cut off
/// instead of pinning its handler thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Header-section cap (request line + headers). Observability requests
/// are tiny; anything larger is noise or abuse.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Accept-loop poll interval for the stop flag.
const ACCEPT_TICK: Duration = Duration::from_millis(50);

/// Default (and maximum) span count of a `/traces` reply; `?limit=N`
/// lowers it.
const DEFAULT_TRACE_LIMIT: usize = 256;

/// What the listener serves, as closures over the owning tier. Both
/// `Fn`s must be cheap enough to call per scrape (the router's metrics
/// closure blocks on backend round trips — still fine at scrape rates).
pub struct HttpEndpoints {
    /// The `/metrics` payload — must be byte-identical to the tier's
    /// wire `METRICS` reply ([`ServeHandle::metrics_text`] or
    /// [`Router::metrics_text`]).
    ///
    /// [`ServeHandle::metrics_text`]: crate::ServeHandle::metrics_text
    /// [`Router::metrics_text`]: crate::Router::metrics_text
    pub metrics: Box<dyn Fn() -> String + Send + Sync>,
    /// The `/readyz` predicate: is the tier accepting work right now?
    /// ([`ServeHandle::is_accepting`](crate::ServeHandle::is_accepting)
    /// for serve; ≥ 1 backend up for the router.)
    pub ready: Box<dyn Fn() -> bool + Send + Sync>,
    /// The span ring behind `/traces`.
    pub spans: SpanRecorder,
    /// The logger whose event ring backs `/logs`.
    pub logger: Logger,
}

/// The observability listener: an accept thread plus one short-lived
/// thread per connection. Dropping (or [`shutdown`](HttpExpo::shutdown))
/// stops accepting and joins the accept thread; in-flight handlers
/// finish within their I/O timeouts.
pub struct HttpExpo {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl HttpExpo {
    /// Bind `addr` and start serving the endpoints. Use port 0 for an
    /// ephemeral port (see [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, endpoints: HttpEndpoints) -> io::Result<HttpExpo> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let endpoints = Arc::new(endpoints);
        let accept = std::thread::Builder::new()
            .name("vrdag-http-expo".to_string())
            .spawn(move || accept_loop(listener, accept_stop, endpoints))
            .expect("spawn http-expo accept thread");
        Ok(HttpExpo { local_addr, stop, accept: Some(accept) })
    }

    /// The address the listener is actually bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the accept thread. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for HttpExpo {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>, endpoints: Arc<HttpEndpoints>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let endpoints = Arc::clone(&endpoints);
                // One thread per request-response exchange: the
                // connection closes when the handler returns, so the
                // thread is as short-lived as the scrape.
                let _ = std::thread::Builder::new()
                    .name("vrdag-http-conn".to_string())
                    .spawn(move || handle_connection(stream, &endpoints));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

fn handle_connection(stream: TcpStream, endpoints: &HttpEndpoints) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let Some(head) = read_head(&mut reader) else {
        let _ =
            write_response(&mut writer, 400, "text/plain; charset=utf-8", b"bad request\n", false);
        return;
    };
    let request_line = head.lines().next().unwrap_or("");
    let (status, content_type, body, head_only) = match parse_request_line(request_line) {
        None => (400, "text/plain; charset=utf-8", b"bad request\n".to_vec(), false),
        Some((method, target)) => {
            let head_only = method == "HEAD";
            let (status, content_type, body) = respond(endpoints, target);
            (status, content_type, body, head_only)
        }
    };
    let _ = write_response(&mut writer, status, content_type, &body, head_only);
}

/// Read the request head (request line + headers) up to the blank line,
/// bounded by [`MAX_HEAD_BYTES`] and the socket timeout. `None` on
/// overflow, timeout, or transport error — the caller answers 400.
fn read_head(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return None,
            Ok(_) => {
                if head.len() + line.len() > MAX_HEAD_BYTES {
                    return None;
                }
                let done = line == "\r\n" || line == "\n";
                head.push_str(&line);
                if done {
                    return Some(head);
                }
            }
            Err(_) => return None,
        }
    }
}

/// Parse `METHOD SP TARGET SP VERSION`: returns `(method, target)` for
/// a GET/HEAD HTTP/1.x request line, `None` otherwise. Total function —
/// arbitrary bytes (the input is already UTF-8 by construction here,
/// but targets can be any junk) must never panic.
pub fn parse_request_line(line: &str) -> Option<(&str, &str)> {
    let line = line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    if !matches!(method, "GET" | "HEAD") {
        return None;
    }
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    if !target.starts_with('/') {
        return None;
    }
    Some((method, target))
}

/// Route one target to its `(status, content type, body)`.
fn respond(endpoints: &HttpEndpoints, target: &str) -> (u16, &'static str, Vec<u8>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        // The Prometheus text exposition content type (text format 0.0.4).
        "/metrics" => {
            (200, "text/plain; version=0.0.4; charset=utf-8", (endpoints.metrics)().into_bytes())
        }
        "/healthz" => (200, "text/plain; charset=utf-8", b"ok\n".to_vec()),
        "/readyz" => {
            if (endpoints.ready)() {
                (200, "text/plain; charset=utf-8", b"ready\n".to_vec())
            } else {
                (503, "text/plain; charset=utf-8", b"unavailable\n".to_vec())
            }
        }
        "/traces" => {
            let limit = parse_limit(query).unwrap_or(DEFAULT_TRACE_LIMIT).min(DEFAULT_TRACE_LIMIT);
            let mut body = endpoints.spans.to_json(limit);
            body.push('\n');
            (200, "application/json", body.into_bytes())
        }
        "/logs" => {
            let events = endpoints.logger.recent();
            let mut body = String::with_capacity(2 + events.len() * 128);
            body.push('[');
            for (i, event) in events.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&event.to_json());
            }
            body.push_str("]\n");
            (200, "application/json", body.into_bytes())
        }
        _ => (404, "text/plain; charset=utf-8", b"not found\n".to_vec()),
    }
}

/// The `limit=N` query parameter, if present and numeric.
fn parse_limit(query: &str) -> Option<usize> {
    query.split('&').find_map(|pair| pair.strip_prefix("limit=")).and_then(|v| v.parse().ok())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn write_response(
    writer: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    head_only: bool,
) -> io::Result<()> {
    let mut reply = Vec::with_capacity(128 + if head_only { 0 } else { body.len() });
    reply.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            status_text(status),
            body.len(),
        )
        .as_bytes(),
    );
    if !head_only {
        reply.extend_from_slice(body);
    }
    writer.write_all(&reply)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_get_and_head_only() {
        assert_eq!(parse_request_line("GET /metrics HTTP/1.1"), Some(("GET", "/metrics")));
        assert_eq!(parse_request_line("HEAD /healthz HTTP/1.0\r"), Some(("HEAD", "/healthz")));
        assert_eq!(parse_request_line("POST /metrics HTTP/1.1"), None);
        assert_eq!(parse_request_line("GET /metrics"), None);
        assert_eq!(parse_request_line("GET /a b HTTP/1.1"), None);
        assert_eq!(parse_request_line("GET metrics HTTP/1.1"), None);
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("GET /x HTTP/2"), None);
    }

    #[test]
    fn limit_query_parses() {
        assert_eq!(parse_limit("limit=5"), Some(5));
        assert_eq!(parse_limit("a=1&limit=12&b=2"), Some(12));
        assert_eq!(parse_limit(""), None);
        assert_eq!(parse_limit("limit=x"), None);
    }

    #[test]
    fn endpoints_route_and_close() {
        use std::io::Read;
        let endpoints = HttpEndpoints {
            metrics: Box::new(|| "# HELP x x\n# TYPE x counter\nx 1\n".to_string()),
            ready: Box::new(|| false),
            spans: SpanRecorder::default(),
            logger: Logger::disabled(),
        };
        let mut expo = HttpExpo::bind("127.0.0.1:0", endpoints).unwrap();
        let fetch = |path: &str| -> String {
            let mut conn = TcpStream::connect(expo.local_addr()).unwrap();
            conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).unwrap();
            let mut reply = String::new();
            conn.read_to_string(&mut reply).unwrap();
            reply
        };
        let metrics = fetch("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(metrics.ends_with("x 1\n"), "{metrics}");
        assert!(fetch("/healthz").ends_with("ok\n"));
        assert!(fetch("/readyz").starts_with("HTTP/1.1 503 "), "readiness predicate is false");
        let traces = fetch("/traces?limit=10");
        assert!(traces.contains("application/json"), "{traces}");
        assert!(traces.ends_with("[]\n"), "{traces}");
        assert!(fetch("/logs").ends_with("[]\n"));
        assert!(fetch("/nope").starts_with("HTTP/1.1 404 "));
        // Garbage never kills the listener.
        let mut conn = TcpStream::connect(expo.local_addr()).unwrap();
        conn.write_all(b"\x00\xffnot http at all\r\n\r\n").unwrap();
        let mut reply = String::new();
        let _ = conn.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
        assert!(fetch("/healthz").starts_with("HTTP/1.1 200 "), "still serving");
        expo.shutdown();
    }
}
