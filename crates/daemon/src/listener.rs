//! `dgrd`'s HTTP/1.1 listener over `std::net::TcpListener`: zero
//! dependencies, hand-rolled request parsing, one accept thread — the
//! only socket the workspace opens.
//!
//! The listener is deliberately minimal: `Connection: close` on every
//! response, one request per connection, 2-second socket timeouts. That
//! is exactly enough for `curl`, Prometheus scrapers and job clients,
//! with nothing to keep alive or pool. Requests are served on the accept
//! thread, one at a time: a slow client stalls other clients, never a
//! job. Failures before the handler runs (malformed head, bad or
//! oversized body) answer with the same structured JSON error body the
//! routes use, so protocol clients never have to scrape prose.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dgr_obs::json::JsonObject;

/// Cap on a request body (`413 Payload Too Large` beyond it).
const MAX_BODY_BYTES: usize = 256 * 1024;

/// Cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub(crate) struct HttpRequest {
    /// Request method (`GET`, `POST`, `DELETE`, ...), uppercase as sent.
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// One response.
#[derive(Debug)]
pub(crate) struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    /// An HTML response.
    pub fn html(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "text/html; charset=utf-8",
            body,
        }
    }

    /// The standard structured error body: `{"error":...,"status":N}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut o = JsonObject::new();
        o.field_str("error", message);
        o.field_u64("status", u64::from(status));
        HttpResponse::json(status, o.finish() + "\n")
    }
}

/// A bound listener and its accept thread; [`Listener::stop`] (or drop)
/// shuts it down.
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (port 0 for an OS-assigned port) and spawns the
    /// accept loop, which answers every request with `handler`.
    ///
    /// # Errors
    ///
    /// The bind error, or the OS's refusal to spawn the thread.
    #[allow(clippy::disallowed_methods)] // dgrd's accept loop
    pub fn start(
        addr: &str,
        handler: impl Fn(&HttpRequest) -> HttpResponse + Send + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = std::thread::Builder::new()
            .name("dgrd-http".into())
            .spawn({
                let stop = Arc::clone(&stop);
                move || accept_loop(&listener, &stop, &handler)
            })?;
        Ok(Listener {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // unblock accept() with a throwaway connection
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        let _ = handle.join();
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    handler: &impl Fn(&HttpRequest) -> HttpResponse,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Relaxed) {
            return;
        }
        if let Ok((stream, _)) = accepted {
            // per-connection errors (timeouts, resets) only drop that client
            let _ = serve_connection(stream, handler);
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    handler: &impl Fn(&HttpRequest) -> HttpResponse,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let response = match read_request(&mut stream) {
        Ok(request) => handler(&request),
        Err(refused) => refused,
    };
    write_response(&mut stream, &response)
}

/// Reads one request (head + optional `Content-Length` body). Errors are
/// returned as ready-to-send structured responses.
fn read_request(stream: &mut impl Read) -> Result<HttpRequest, HttpResponse> {
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
            return Err(HttpResponse::error(400, "truncated request head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts
        .next()
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
    let content_length = content_length(&head)
        .map_err(|()| HttpResponse::error(400, "bad Content-Length header"))?;
    let mut body = Vec::new();
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Err(HttpResponse::error(
                413,
                &format!("request body of {len} bytes exceeds the {MAX_BODY_BYTES} byte cap"),
            ));
        }
        // bytes past the head already read into `buf` are body prefix
        body.extend_from_slice(&buf[head_end..]);
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

fn write_response(stream: &mut impl Write, resp: &HttpResponse) -> std::io::Result<()> {
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

    fn parse(bytes: &[u8]) -> Result<HttpRequest, HttpResponse> {
        read_request(&mut &bytes[..])
    }

    #[test]
    fn a_body_arrives_whole_and_the_query_string_goes() {
        let req = parse(b"POST /jobs?x=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn malformed_heads_and_bodies_get_structured_errors() {
        for (bytes, status) in [
            (&b"THIS IS NOT HTTP\r\n\r\n"[..], 400),
            (b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nHost: x\r\n", 400),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort",
                400,
            ),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 262145\r\n\r\n",
                413,
            ),
        ] {
            let resp = parse(bytes).unwrap_err();
            assert_eq!(resp.status, status, "{}", String::from_utf8_lossy(bytes));
            assert!(resp.body.contains("\"error\""), "{}", resp.body);
        }
    }
}
