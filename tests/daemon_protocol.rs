//! Protocol conformance and queue semantics for `dgrd`.
//!
//! Hostile and malformed traffic must map to structured HTTP errors
//! (4xx + `{"error": ...}` JSON) without killing the listener, and the
//! bounded queue must expose backpressure (429), FIFO order under a
//! single worker, and priority-class scheduling.

mod common;

use std::time::Duration;

use common::*;
use dgr::daemon::{Daemon, DaemonConfig};
use dgr::grid::Design;
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::obs::parse::JsonValue;

fn tiny_design_text(seed: u64) -> String {
    let design: Design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 20,
        height: 20,
        num_nets: 40,
        num_layers: 5,
        seed,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    dgr::io::write_design(&design)
}

fn spec(text: &str, label: &str, iterations: u32, priority: i64) -> String {
    let escaped = text
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!(
        r#"{{"design_text":"{escaped}","label":"{label}","iterations":{iterations},"priority":{priority}}}"#
    )
}

fn assert_structured_error(resp: &Response, status: u16) {
    assert_eq!(resp.status, status, "body: {}", resp.body);
    let v = resp.json();
    assert!(
        v.get("error").and_then(JsonValue::as_str).is_some(),
        "error body must carry a message: {}",
        resp.body
    );
    assert_eq!(
        v.get("status").and_then(JsonValue::as_u64),
        Some(u64::from(status))
    );
}

/// Every class of malformed input maps to a structured 4xx, and the
/// listener answers normally afterwards.
#[test]
fn malformed_requests_get_structured_errors_and_the_listener_survives() {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 1,
            max_body_bytes: 16 * 1024,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();

    // body is not JSON
    assert_structured_error(&post_json(addr, "/jobs", "{nope"), 400);
    // JSON but not an object
    assert_structured_error(&post_json(addr, "/jobs", "[1,2,3]"), 400);
    // unknown spec key
    assert_structured_error(
        &post_json(addr, "/jobs", r#"{"design_text":"x","turbo":true}"#),
        400,
    );
    // no design source
    assert_structured_error(&post_json(addr, "/jobs", r#"{"label":"x"}"#), 400);
    // invalid UTF-8 body
    let mut bad =
        b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nConnection: close\r\n\r\n"
            .to_vec();
    bad.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
    assert_structured_error(&raw_request(addr, &bad), 400);
    // oversized body (cap is 16 KiB here)
    let huge = format!(r#"{{"design_text":"{}"}}"#, "x".repeat(32 * 1024));
    assert_structured_error(&post_json(addr, "/jobs", &huge), 413);
    // malformed request head
    assert_structured_error(&raw_request(addr, b"THIS IS NOT HTTP\r\n\r\n"), 400);
    // bad Content-Length
    assert_structured_error(
        &raw_request(
            addr,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
        ),
        400,
    );
    // unknown job id, non-integer id, unknown subresource
    assert_structured_error(&get(addr, "/jobs/999999999"), 404);
    assert_structured_error(&delete(addr, "/jobs/999999999"), 404);
    assert_structured_error(&get(addr, "/jobs/banana"), 404);
    assert_structured_error(&get(addr, "/jobs/1/confetti"), 404);
    // wrong method on a job route
    assert_structured_error(&request(addr, "PATCH", "/jobs/1", Some("{}")), 405);
    assert_structured_error(&request(addr, "PUT", "/jobs", Some("{}")), 405);

    // after all that abuse the daemon still serves
    let resp = get(addr, "/jobs");
    assert_eq!(resp.status, 200);
    let resp = get(addr, "/metrics");
    assert_eq!(resp.status, 200);
    let id = submit_job(addr, &spec(&tiny_design_text(31), "alive", 5, 0));
    wait_terminal(addr, id, Duration::from_secs(120));

    daemon.stop();
}

/// Double-cancel and cancel-after-terminal are structured 409s.
#[test]
fn cancel_conflicts_are_409() {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let text = tiny_design_text(32);

    let blocker = submit_job(addr, &spec(&text, "blocker", 500_000, 0));
    wait_state(addr, blocker, "running", Duration::from_secs(60));
    assert_eq!(delete(addr, &format!("/jobs/{blocker}")).status, 202);
    // second cancel while the first is still propagating
    let second = delete(addr, &format!("/jobs/{blocker}"));
    assert!(
        second.status == 409,
        "double-cancel must be 409, got {}: {}",
        second.status,
        second.body
    );
    wait_state(addr, blocker, "cancelled", Duration::from_secs(60));
    // cancel of a terminal job
    assert_structured_error(&delete(addr, &format!("/jobs/{blocker}")), 409);

    let quick = submit_job(addr, &spec(&text, "quick", 3, 0));
    wait_state(addr, quick, "done", Duration::from_secs(120));
    assert_structured_error(&delete(addr, &format!("/jobs/{quick}")), 409);

    daemon.stop();
}

/// A full queue rejects submissions with 429 until a slot frees up.
#[test]
fn bounded_queue_backpressure() {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 1,
            queue_capacity: 1,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let text = tiny_design_text(33);

    let blocker = submit_job(addr, &spec(&text, "blocker", 500_000, 0));
    wait_state(addr, blocker, "running", Duration::from_secs(60));
    let queued = submit_job(addr, &spec(&text, "queued", 5, 0));

    // queue (capacity 1) is now full
    let rejected = post_json(addr, "/jobs", &spec(&text, "rejected", 5, 0));
    assert_structured_error(&rejected, 429);
    assert!(rejected.body.contains("queue full"), "{}", rejected.body);

    // cancelling the queued job frees the slot
    assert_eq!(delete(addr, &format!("/jobs/{queued}")).status, 200);
    let id = submit_job(addr, &spec(&text, "admitted", 5, 0));

    assert_eq!(delete(addr, &format!("/jobs/{blocker}")).status, 202);
    wait_state(addr, blocker, "cancelled", Duration::from_secs(60));
    wait_state(addr, id, "done", Duration::from_secs(120));

    daemon.stop();
}

/// Under a single worker, equal-priority jobs run in submission order
/// and a higher-priority job jumps the whole class.
#[test]
fn fifo_and_priority_scheduling() {
    let daemon = Daemon::start(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let addr = daemon.local_addr();
    let text = tiny_design_text(34);

    // hold the single worker so the queue actually orders the rest
    let blocker = submit_job(addr, &spec(&text, "blocker", 500_000, 0));
    wait_state(addr, blocker, "running", Duration::from_secs(60));

    let a = submit_job(addr, &spec(&text, "a", 3, 0));
    let b = submit_job(addr, &spec(&text, "b", 3, 0));
    let c = submit_job(addr, &spec(&text, "c", 3, 0));
    let urgent = submit_job(addr, &spec(&text, "urgent", 3, 7));

    assert_eq!(delete(addr, &format!("/jobs/{blocker}")).status, 202);
    for id in [a, b, c, urgent] {
        wait_state(addr, id, "done", Duration::from_secs(180));
    }

    let seq = |id| run_seq_of(&wait_terminal(addr, id, Duration::from_secs(5)));
    let (sa, sb, sc, su) = (seq(a), seq(b), seq(c), seq(urgent));
    assert!(su < sa, "priority 7 must run before the FIFO class");
    assert!(sa < sb && sb < sc, "FIFO order violated: {sa} {sb} {sc}");

    daemon.stop();
}

/// A panic inside a task of a helper thread — the upper half of a
/// front-end fan-out, a lane of a training iteration — resumes on the
/// worker that joined it, the worker's `catch_unwind` fails the job with
/// the panic's message, and the daemon is none the worse: the same job
/// submitted again produces the guide a clean daemon produces.
#[test]
fn a_panic_in_a_training_helper_task_fails_the_job_and_spares_the_daemon() {
    use dgr::autodiff::parallel::{self, NET_PAR_MIN};

    // 800 nets: enough paths for training to engage a helper, too few
    // nets for the front end to; the catalog case has 1 800, and its
    // front end fans out. Either happens even on a one-CPU host with the
    // override at 2 (every other job in this file is far below both
    // sizes, so the fault cannot land in another test)
    const _: () = assert!(800 < NET_PAR_MIN && NET_PAR_MIN <= 1800);
    parallel::set_num_threads(2);
    let design: Design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 56,
        height: 56,
        num_nets: 800,
        num_layers: 5,
        seed: 35,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    for (task, job) in [
        (
            "fan_out",
            r#"{"design_catalog":"ispd18_5m","label":"faulted","iterations":10}"#.to_string(),
        ),
        (
            "lane_fwd",
            spec(&dgr::io::write_design(&design), "faulted", 60, 0),
        ),
    ] {
        let guide_of = |daemon: &Daemon, id: u64| {
            let addr = daemon.local_addr();
            wait_state(addr, id, "done", Duration::from_secs(180));
            let guide = get(addr, &format!("/jobs/{id}/guide"));
            assert_eq!(guide.status, 200);
            guide.body
        };
        let boot = || {
            let cfg = DaemonConfig {
                workers: 1,
                ..DaemonConfig::default()
            };
            Daemon::start("127.0.0.1:0", cfg).unwrap()
        };

        let clean = boot();
        let want = guide_of(&clean, submit_job(clean.local_addr(), &job));
        clean.stop();

        let daemon = boot();
        let addr = daemon.local_addr();
        parallel::fail_next_helper_task(task);
        let failed = submit_job(addr, &job);
        let record = wait_state(addr, failed, "failed", Duration::from_secs(180));
        let error = record.get("error").and_then(JsonValue::as_str);
        assert_eq!(
            error,
            Some("worker panicked: injected helper-task fault"),
            "{task}: {record:?}"
        );
        let got = guide_of(&daemon, submit_job(addr, &job));
        assert!(
            got == want,
            "{task}: the job after the fault differs from a clean daemon's"
        );
        daemon.stop();
    }
    parallel::set_num_threads(0);
}
