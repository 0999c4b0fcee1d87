//! Shared HTTP client helpers for the `dgrd` integration suites
//! (`tests/daemon.rs`, `tests/daemon_protocol.rs`), and the ledger check
//! `tests/golden.rs` and `tests/baselines.rs` run on their designs.
//!
//! Everything is std-only and deliberately low-level: the fault-injection
//! entry point [`raw_request`] writes arbitrary bytes so conformance
//! tests can send malformed heads, while [`request`] builds well-formed
//! `Connection: close` requests like a real client.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dgr::grid::{edge_excess, DemandMap, Design, OverflowStats, OVERFLOW_EPS};
use dgr::obs::parse::{parse_json, JsonValue};

/// Every reader of the ledger names the same edges of `demand` overflowed:
/// the mask the victim scans use, the count `OverflowStats` reports (which
/// decides when routing is done) and `edge_excess`. So does the spelling of
/// the test that was dropped, `d > cap + ε`: keeping `d − cap > ε` moved no
/// edge of this design. Returns the overflowed-edge count.
pub fn assert_overflow_readers_agree(design: &Design, demand: &DemandMap, what: &str) -> usize {
    let (grid, cap) = (&design.grid, &design.capacity);
    let mask = demand.overflow_mask(cap);
    let excess = edge_excess(grid, cap, demand);
    for e in grid.edge_ids() {
        assert_eq!(mask[e.index()], demand.is_over(cap, e), "{what}: {e}");
        assert_eq!(mask[e.index()], excess[e.index()] > 0.0, "{what}: {e}");
        let dropped = demand.total(cap, e) > cap.capacity(e) + OVERFLOW_EPS;
        assert_eq!(
            mask[e.index()],
            dropped,
            "{what}: {e} flips between the spellings"
        );
    }
    let overflowed = mask.iter().filter(|&&over| over).count();
    let stats = OverflowStats::measure(grid, cap, demand);
    assert_eq!(overflowed, stats.overflowed_edges, "{what}");
    overflowed
}

/// A parsed HTTP response: status line code plus body text.
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    /// Parses the body as JSON (panics with context on failure).
    pub fn json(&self) -> JsonValue {
        parse_json(&self.body).unwrap_or_else(|e| panic!("body is not JSON ({e}): {:?}", self.body))
    }
}

/// Sends raw bytes and returns whatever comes back — the fault-injection
/// client. An empty response (peer reset) maps to status 0.
pub fn raw_request(addr: SocketAddr, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect to dgrd");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("write request");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Response { status, body }
}

/// A well-formed one-shot request.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let body = body.unwrap_or("");
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: dgrd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, msg.as_bytes())
}

pub fn get(addr: SocketAddr, path: &str) -> Response {
    request(addr, "GET", path, None)
}

pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> Response {
    request(addr, "POST", path, Some(body))
}

pub fn delete(addr: SocketAddr, path: &str) -> Response {
    request(addr, "DELETE", path, None)
}

/// Submits a job spec and returns the new job id (panics on non-202).
pub fn submit_job(addr: SocketAddr, spec: &str) -> u64 {
    let resp = post_json(addr, "/jobs", spec);
    assert_eq!(resp.status, 202, "submit failed: {}", resp.body);
    resp.json().get("id").and_then(JsonValue::as_u64).unwrap()
}

/// Polls `GET /jobs/{id}` until `pred(job)` holds; panics on timeout.
pub fn poll_job(
    addr: SocketAddr,
    id: u64,
    timeout: Duration,
    pred: impl Fn(&JsonValue) -> bool,
) -> JsonValue {
    let deadline = Instant::now() + timeout;
    loop {
        let resp = get(addr, &format!("/jobs/{id}"));
        assert_eq!(resp.status, 200, "job {id} poll failed: {}", resp.body);
        let job = resp.json();
        if pred(&job) {
            return job;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting on job {id}; last state: {}",
            resp.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls until the job's `state` matches.
pub fn wait_state(addr: SocketAddr, id: u64, state: &str, timeout: Duration) -> JsonValue {
    poll_job(addr, id, timeout, |j| {
        j.get("state").and_then(JsonValue::as_str) == Some(state)
    })
}

/// Polls until the job is in any terminal state and returns it.
pub fn wait_terminal(addr: SocketAddr, id: u64, timeout: Duration) -> JsonValue {
    poll_job(addr, id, timeout, |j| {
        matches!(
            j.get("state").and_then(JsonValue::as_str),
            Some("done" | "failed" | "cancelled")
        )
    })
}

/// The job's `state` field.
pub fn state_of(job: &JsonValue) -> String {
    job.get("state")
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
        .to_string()
}

/// The job's `run_seq` field (panics when absent).
pub fn run_seq_of(job: &JsonValue) -> u64 {
    job.get("run_seq")
        .and_then(JsonValue::as_u64)
        .expect("job has run_seq")
}
