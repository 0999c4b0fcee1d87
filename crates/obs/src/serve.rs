//! `--serve ADDR`: a tiny blocking HTTP/1.1 server over
//! `std::net::TcpListener` — zero dependencies, hand-rolled request
//! parsing, one thread.
//!
//! Built-in endpoints (always served):
//!
//! * `GET /metrics` — every registered obs metric in the Prometheus
//!   text exposition format ([`crate::metrics::prometheus_text`]),
//! * `GET /status` — the live run status as JSON
//!   ([`crate::scope`]): current job/phase/iteration, loss, overflow,
//!   temperature, batch width, queue depth, RSS, plus one row per
//!   published run scope on multi-job daemons,
//! * `GET /report` — the standard HTML post-mortem rendered from the
//!   live telemetry ring and span registry *mid-run*,
//! * `GET /health` — the sentinel convergence-health verdicts as JSON:
//!   overall verdict plus one row per watched scope with its ranked
//!   findings,
//! * `GET /` — a plain-text index of the above.
//!
//! The server is deliberately minimal: `Connection: close` on every
//! response, one request per connection, 2-second socket timeouts. That
//! is exactly enough for `curl`, Prometheus scrapers and the `dgrd`
//! daemon frontend, with nothing to keep alive or pool. Requests are
//! served from the accept loop thread — a slow client cannot stall the
//! training loop, only other scrapers.
//!
//! # Extension point
//!
//! [`ObsServer::start_with_handler`] installs an application handler
//! consulted *before* the built-in routes: the `dgrd` job server mounts
//! its `POST /jobs` / `GET /jobs/:id` / `DELETE /jobs/:id` endpoints
//! this way instead of forking the listener. With a handler installed,
//! non-GET methods are parsed (including a `Content-Length` body,
//! bounded by the configured cap → `413`); without one the server stays
//! GET-only exactly as before. Server-level failures (malformed head,
//! oversized body, unrouted method) always answer with a structured
//! JSON error body, so protocol clients never have to scrape prose.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default cap on request bodies accepted by [`ObsServer::start_with_handler`].
pub const DEFAULT_MAX_BODY_BYTES: usize = 256 * 1024;

/// Cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request, handed to the application handler.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, `DELETE`, ...), uppercase as sent.
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// A response produced by the application handler or the built-in routes.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "application/json".into(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into(),
        }
    }

    /// An HTML response.
    pub fn html(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into(),
        }
    }

    /// The standard structured error body: `{"error":...,"status":N}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut o = crate::json::JsonObject::new();
        o.field_str("error", message);
        o.field_u64("status", u64::from(status));
        let mut body = o.finish();
        body.push('\n');
        HttpResponse::json(status, body)
    }
}

/// An application handler consulted before the built-in routes. Return
/// `None` to fall through to `/metrics`, `/status`, `/report`, `/`.
pub type HttpHandler = Arc<dyn Fn(&HttpRequest) -> Option<HttpResponse> + Send + Sync>;

/// A running server. Keep the handle alive for the duration of the
/// run; [`ObsServer::stop`] (or drop) shuts the listener down.
pub struct ObsServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, or port 0 for an
    /// OS-assigned port) and spawns the accept loop serving only the
    /// built-in GET endpoints.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn start(addr: &str) -> std::io::Result<ObsServer> {
        Self::start_inner(addr, None, DEFAULT_MAX_BODY_BYTES)
    }

    /// [`ObsServer::start`] with an application handler mounted in front
    /// of the built-in routes. Non-GET requests are accepted and their
    /// bodies read (bounded by `max_body_bytes` → `413 Payload Too
    /// Large`); a non-GET request the handler declines answers `405`.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn start_with_handler(
        addr: &str,
        handler: HttpHandler,
        max_body_bytes: usize,
    ) -> std::io::Result<ObsServer> {
        Self::start_inner(addr, Some(handler), max_body_bytes)
    }

    fn start_inner(
        addr: &str,
        handler: Option<HttpHandler>,
        max_body_bytes: usize,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dgr-serve".into())
            .spawn(move || accept_loop(&listener, &stop2, handler.as_ref(), max_body_bytes))?;
        Ok(ObsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // unblock accept() with a throwaway connection
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    handler: Option<&HttpHandler>,
    max_body_bytes: usize,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // per-connection errors (timeouts, resets) only drop that client
        let _ = serve_connection(stream, handler, max_body_bytes);
    }
}

fn serve_connection(
    mut stream: TcpStream,
    handler: Option<&HttpHandler>,
    max_body_bytes: usize,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // without a handler the server is GET-only, bodies are never read
    let allow_body = handler.is_some();
    let request = match read_request(&mut stream, allow_body, max_body_bytes) {
        Ok(r) => r,
        Err(resp) => return write_response(&mut stream, &resp),
    };
    if let Some(handler) = handler {
        if let Some(resp) = handler(&request) {
            return write_response(&mut stream, &resp);
        }
        if request.method != "GET" {
            return write_response(
                &mut stream,
                &HttpResponse::error(
                    405,
                    &format!("method {} not allowed on {}", request.method, request.path),
                ),
            );
        }
    }
    let resp = route(&request.path);
    write_response(&mut stream, &resp)
}

/// Reads one request (head + optional `Content-Length` body). Errors are
/// returned as ready-to-send structured responses.
fn read_request(
    stream: &mut TcpStream,
    allow_body: bool,
    max_body_bytes: usize,
) -> Result<HttpRequest, HttpResponse> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 2048];
    // read until the blank line ending the head (or a sane cap)
    let head_end = loop {
        if let Some(end) = head_end(&buf) {
            break end;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpResponse::error(400, "request head too large"));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| HttpResponse::error(400, &format!("bad request: {e}")))?;
        if n == 0 {
            match head_end(&buf) {
                Some(end) => break end,
                None => return Err(HttpResponse::error(400, "truncated request head")),
            }
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpResponse::error(400, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpResponse::error(400, "no request target"))?;
    if !parts
        .next()
        .is_some_and(|version| version.starts_with("HTTP/"))
    {
        return Err(HttpResponse::error(400, "not an HTTP request line"));
    }
    if !allow_body && method != "GET" {
        return Err(HttpResponse::error(
            400,
            &format!("method {method} not supported"),
        ));
    }
    let content_length = content_length(&head)
        .map_err(|()| HttpResponse::error(400, "bad Content-Length header"))?;
    let mut body = Vec::new();
    if let Some(len) = content_length {
        if len > max_body_bytes {
            return Err(HttpResponse::error(
                413,
                &format!("request body of {len} bytes exceeds the {max_body_bytes} byte cap"),
            ));
        }
        // bytes past the head already read into `buf` are body prefix
        body.extend_from_slice(&buf[head_end.min(buf.len())..]);
        while body.len() < len {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| HttpResponse::error(400, &format!("bad request body: {e}")))?;
            if n == 0 {
                return Err(HttpResponse::error(400, "truncated request body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
    }
    // strip any query string; no endpoint takes parameters
    let path = target.split('?').next().unwrap_or("/").to_string();
    Ok(HttpRequest { method, path, body })
}

/// Byte offset one past the blank line ending the head, if complete.
fn head_end(buf: &[u8]) -> Option<usize> {
    if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(i + 4);
    }
    buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2)
}

/// The `Content-Length` value, if any header carries one.
fn content_length(head: &str) -> Result<Option<usize>, ()> {
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                return value.trim().parse::<usize>().map(Some).map_err(|_| ());
            }
        }
    }
    Ok(None)
}

/// Maps a GET path to the built-in endpoints.
fn route(path: &str) -> HttpResponse {
    match path {
        "/metrics" => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
            body: crate::metrics::prometheus_text(),
        },
        "/status" => {
            let mut body = crate::scope::status_json();
            body.push('\n');
            HttpResponse::json(200, body)
        }
        "/report" => HttpResponse::html(200, live_report()),
        "/health" => {
            let mut body = crate::scope::health_json();
            body.push('\n');
            HttpResponse::json(200, body)
        }
        "/" => HttpResponse::text(
            200,
            "dgr observatory\n\n/metrics  Prometheus text exposition\n/status   live run status (JSON)\n/report   HTML post-mortem of the run so far\n/health   sentinel convergence-health verdicts (JSON)\n",
        ),
        _ => HttpResponse::error(404, &format!("no such endpoint: {path}")),
    }
}

/// Renders the standard report from whatever the serving thread's scope
/// has produced so far: its telemetry ring and the span registry.
fn live_report() -> String {
    let id = crate::status_scope_id();
    let job = crate::scope::status_snapshot().job;
    let title = if job.is_empty() {
        "live".to_string()
    } else {
        format!("{job} (live)")
    };
    let trace = Some(crate::chrome_trace()).filter(|t| t != "[]");
    crate::report_of(id, title, crate::status_ring_jsonl_of(id), trace).unwrap_or_else(|e| {
        format!("<!DOCTYPE html>\n<html><body><p>report error: {e}</p></body></html>\n")
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Error",
    }
}

fn write_response(stream: &mut TcpStream, resp: &HttpResponse) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn raw(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_status_report_and_404() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::counter("serve.test.counter").add(2);
        crate::status_begin("train", 10, 1);
        crate::status_phase("forward");
        let server = ObsServer::start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("dgr_serve_test_counter 2\n"), "{body}");

        let (status, body) = get(addr, "/status");
        assert_eq!(status, 200);
        assert!(body.contains("\"phase\":\"forward\""), "{body}");

        let (status, body) = get(addr, "/report");
        assert_eq!(status, 200);
        assert!(body.contains("<html"), "{body}");

        let (status, body) = get(addr, "/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"verdict\""), "{body}");

        let (status, body) = get(addr, "/nope");
        assert_eq!(status, 404);
        assert!(body.contains("\"error\""), "{body}");

        let (status, _) = get(addr, "/");
        assert_eq!(status, 200);

        server.stop();
        crate::set_enabled(false);
    }

    #[test]
    fn rejects_non_get() {
        let _guard = crate::test_lock();
        let server = ObsServer::start("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.stop();
    }

    #[test]
    fn handler_gets_posted_bodies_and_falls_through() {
        let _guard = crate::test_lock();
        let handler: HttpHandler = Arc::new(|req: &HttpRequest| {
            (req.method == "POST" && req.path == "/echo")
                .then(|| HttpResponse::text(202, String::from_utf8_lossy(&req.body).into_owned()))
        });
        let server = ObsServer::start_with_handler("127.0.0.1:0", handler, 64).unwrap();
        let addr = server.local_addr();

        let (status, body) = raw(
            addr,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert_eq!(status, 202);
        assert_eq!(body, "hello");

        // built-in routes still answer behind the handler
        let (status, _) = get(addr, "/");
        assert_eq!(status, 200);

        // a non-GET the handler declines is 405, not a hang or a 400
        let (status, body) = raw(
            addr,
            "PATCH /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 405);
        assert!(body.contains("\"error\""), "{body}");

        // an oversized body is refused with 413 before the handler runs
        let (status, body) = raw(
            addr,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 9999\r\n\r\n",
        );
        assert_eq!(status, 413);
        assert!(body.contains("\"error\""), "{body}");

        server.stop();
    }

    #[test]
    fn malformed_heads_get_structured_400() {
        let _guard = crate::test_lock();
        let handler: HttpHandler = Arc::new(|_| None);
        let server = ObsServer::start_with_handler("127.0.0.1:0", handler, 64).unwrap();
        let addr = server.local_addr();
        let (status, body) = raw(addr, "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
        assert_eq!(status, 400);
        assert!(body.contains("\"error\""), "{body}");
        // listener survives the malformed request
        let (status, _) = get(addr, "/");
        assert_eq!(status, 200);
        server.stop();
    }
}
