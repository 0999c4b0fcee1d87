//! End-to-end `dgrd` tests: boot the daemon on an ephemeral port, drive
//! it with real HTTP clients from multiple threads, and hold it to the
//! CLI's determinism contract — a daemon-routed job must produce a route
//! guide byte-identical to a one-shot `dgr route` of the same
//! design/config, even with concurrent jobs in flight.

mod common;

use std::process::Command;
use std::time::Duration;

use common::*;
use dgr::daemon::{Daemon, DaemonConfig};
use dgr::grid::Design;
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::obs::parse::JsonValue;

fn small_design(seed: u64) -> Design {
    IspdLikeGenerator::new(IspdLikeConfig {
        width: 24,
        height: 24,
        num_nets: 80,
        num_layers: 5,
        seed,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config")
}

fn boot(cfg: DaemonConfig) -> Daemon {
    Daemon::start("127.0.0.1:0", cfg).expect("daemon binds an ephemeral port")
}

fn inline_spec(design_text: &str, label: &str, iterations: u32, seed: u64) -> String {
    let escaped = design_text
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!(
        r#"{{"design_text":"{escaped}","label":"{label}","tenant":"e2e","iterations":{iterations},"seed":{seed}}}"#
    )
}

/// One-shot CLI route of the same design/config; returns the bytes of the
/// file it writes for `flag` (`--guide` or `--telemetry`).
fn cli_file(flag: &str, design_text: &str, iterations: u32, seed: u64, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("dgr_daemon_cli_{tag}_{seed}"));
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("design.txt");
    let out_path = dir.join("out");
    std::fs::write(&design_path, design_text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args([
            "route",
            design_path.to_str().unwrap(),
            "--iterations",
            &iterations.to_string(),
            "--seed",
            &seed.to_string(),
            flag,
            out_path.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run dgr route");
    assert!(
        out.status.success(),
        "cli route failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&out_path).expect("cli file written")
}

/// Three concurrent jobs from client threads run to `done` with full
/// lifecycle records, and two of their guides byte-match one-shot CLI
/// runs of the same config.
#[test]
#[allow(clippy::disallowed_methods)] // concurrent clients
fn concurrent_jobs_match_the_cli_byte_for_byte() {
    let daemon = boot(DaemonConfig {
        workers: 3,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();

    const ITERS: u32 = 30;
    let designs: Vec<(u64, String)> = [11u64, 12, 13]
        .iter()
        .map(|&seed| (seed, dgr::io::write_design(&small_design(seed))))
        .collect();

    // submit from three real client threads
    let ids: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = designs
            .iter()
            .map(|(seed, text)| {
                s.spawn(move || {
                    submit_job(
                        addr,
                        &inline_spec(text, &format!("e2e-{seed}"), ITERS, *seed),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (&id, (seed, _)) in ids.iter().zip(&designs) {
        let job = wait_state(addr, id, "done", Duration::from_secs(120));
        assert_eq!(job.get("tenant").and_then(JsonValue::as_str), Some("e2e"));
        assert_eq!(job.get("seed").and_then(JsonValue::as_u64), Some(*seed));
        assert!(job
            .get("submitted_unix_ms")
            .and_then(JsonValue::as_u64)
            .is_some());
        assert!(job
            .get("started_unix_ms")
            .and_then(JsonValue::as_u64)
            .is_some());
        assert!(job
            .get("finished_unix_ms")
            .and_then(JsonValue::as_u64)
            .is_some());
        let _ = run_seq_of(&job);
        let result = job.get("result").expect("done job has a result");
        assert!(
            result
                .get("wirelength")
                .and_then(JsonValue::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            result
                .get("guide_boxes")
                .and_then(JsonValue::as_u64)
                .unwrap()
                > 0
        );
        for count in [
            "refine_searches",
            "refine_escalations",
            "refine_escalations_avoided",
            "refine_states_expanded",
        ] {
            let n = result.get(count).and_then(JsonValue::as_u64);
            assert!(n.is_some(), "missing {count}");
        }
        let phases = result.get("phases_ms").expect("per-phase totals");
        for phase in ["train", "forward", "backward", "refine", "assign"] {
            assert!(phases.get(phase).is_some(), "missing phase {phase}");
        }

        // per-job artifacts
        let telemetry = get(addr, &format!("/jobs/{id}/telemetry"));
        assert_eq!(telemetry.status, 200);
        assert!(
            telemetry.body.lines().count() >= 1,
            "telemetry rows for job {id}"
        );
        let report = get(addr, &format!("/jobs/{id}/report"));
        assert_eq!(report.status, 200);
        assert!(report.body.contains("<html"), "report is HTML");
    }

    // byte-compare two of the daemon guides against one-shot CLI runs
    for (&id, (seed, text)) in ids.iter().zip(&designs).take(2) {
        let daemon_guide = get(addr, &format!("/jobs/{id}/guide"));
        assert_eq!(daemon_guide.status, 200);
        let cli = cli_file("--guide", text, ITERS, *seed, "bytecmp");
        assert_eq!(
            daemon_guide.body.as_bytes(),
            cli.as_slice(),
            "daemon guide for seed {seed} differs from the one-shot CLI guide"
        );
    }

    // the job-scoped status registry reports every job
    let status = get(addr, "/status");
    assert_eq!(status.status, 200);
    let jobs = status
        .json()
        .get("jobs")
        .and_then(JsonValue::as_arr)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default();
    for &id in &ids {
        assert!(
            jobs.iter()
                .any(|j| j.get("id").and_then(JsonValue::as_u64) == Some(id)),
            "/status is missing a row for job {id}"
        );
    }

    daemon.stop();
}

/// A job of more nets than `NET_PAR_MIN`: its forest is two half-forests
/// appended, its extraction plans two arenas, its guide one buffer — and
/// the artifact is the CLI's guide byte for byte.
#[test]
fn a_job_whose_front_end_fans_out_serves_the_clis_guide() {
    const ITERS: u32 = 12;
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 40,
        height: 40,
        num_nets: dgr::autodiff::parallel::NET_PAR_MIN + 75,
        num_layers: 9,
        seed: 31,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let text = dgr::io::write_design(&design);

    let daemon = boot(DaemonConfig::default());
    let addr = daemon.local_addr();
    let id = submit_job(addr, &inline_spec(&text, "fan-out", ITERS, 5));
    wait_state(addr, id, "done", Duration::from_secs(120));
    let guide = get(addr, &format!("/jobs/{id}/guide"));
    assert_eq!(guide.status, 200);
    assert!(
        guide.body.as_bytes() == cli_file("--guide", &text, ITERS, 5, "fanout").as_slice(),
        "daemon guide differs from the one-shot CLI guide"
    );
    daemon.stop();
}

/// Cancelling a running job mid-train leaves the queue healthy: the
/// waiting job still runs to completion and new submissions land.
#[test]
fn cancellation_mid_run_leaves_the_queue_healthy() {
    let daemon = boot(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    let text = dgr::io::write_design(&small_design(21));

    // a job long enough to be cancelled mid-run, plus one waiting behind it
    let blocker = submit_job(addr, &inline_spec(&text, "blocker", 500_000, 1));
    let waiting = submit_job(addr, &inline_spec(&text, "waiting", 10, 2));
    wait_state(addr, blocker, "running", Duration::from_secs(60));

    let resp = delete(addr, &format!("/jobs/{blocker}"));
    assert_eq!(resp.status, 202, "cancel of a running job: {}", resp.body);
    let job = wait_state(addr, blocker, "cancelled", Duration::from_secs(60));
    assert_eq!(
        job.get("cancel_requested")
            .map(|v| matches!(v, JsonValue::Bool(true))),
        Some(true)
    );
    assert!(job.get("result").is_none(), "cancelled job has no result");

    // the queue drains normally afterwards
    let job = wait_state(addr, waiting, "done", Duration::from_secs(120));
    assert!(job.get("result").is_some());

    let after = submit_job(addr, &inline_spec(&text, "after", 10, 3));
    wait_state(addr, after, "done", Duration::from_secs(120));

    // cancelling a *queued* job removes it without running it
    let blocker2 = submit_job(addr, &inline_spec(&text, "blocker2", 500_000, 4));
    let queued = submit_job(addr, &inline_spec(&text, "queued", 10, 5));
    wait_state(addr, blocker2, "running", Duration::from_secs(60));
    let resp = delete(addr, &format!("/jobs/{queued}"));
    assert_eq!(
        resp.status, 200,
        "queued-job cancel is immediate: {}",
        resp.body
    );
    let job = wait_state(addr, queued, "cancelled", Duration::from_secs(10));
    assert!(job
        .get("started_unix_ms")
        .and_then(JsonValue::as_u64)
        .is_none());
    let resp = delete(addr, &format!("/jobs/{blocker2}"));
    assert_eq!(resp.status, 202);
    wait_state(addr, blocker2, "cancelled", Duration::from_secs(60));

    daemon.stop();
}

/// A long-lived daemon keeps no span events: its jobs record no span at
/// all, neither an event nor a per-name total, since the log is a span's
/// one record and only the CLI's `--trace` and `--profile` open it. An
/// eviction's one
/// `scope_remove` still takes the job's `/status` row and its verdict.
/// (Job ids are process-global, so the other daemons in this test binary
/// cannot disturb the rows.)
#[test]
#[allow(clippy::disallowed_methods)] // counts the events a trace would hold
fn a_daemon_keeps_no_span_events() {
    let daemon = boot(DaemonConfig {
        workers: 1,
        retain_jobs: 2,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    let spec = inline_spec(&dgr::io::write_design(&small_design(31)), "spans", 10, 1);

    let mut ids = Vec::new();
    for _ in 0..8 {
        let id = submit_job(addr, &spec);
        wait_state(addr, id, "done", Duration::from_secs(120));
        ids.push(id);
    }
    // of this test's jobs, the ids a body's `key` array lists
    let listed = |path: &str, key: &str| -> Vec<u64> {
        let body = get(addr, path).json();
        let Some(JsonValue::Arr(rows)) = body.get(key) else {
            panic!("{path} has no `{key}` array");
        };
        let id = |row: &JsonValue| row.get("id").and_then(JsonValue::as_u64).unwrap();
        rows.iter().map(id).filter(|id| ids.contains(id)).collect()
    };
    // a job's eviction, and its scope's, lands just after the next job is
    // done: the last one is polled for
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while listed("/status", "jobs") != ids[6..] {
        assert!(
            std::time::Instant::now() < deadline,
            "/status jobs: {:?}",
            listed("/status", "jobs")
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(listed("/health", "rows"), ids[6..], "/health rows");
    daemon.stop(); // joins the worker, so every eviction has run
    for (i, id) in ids.iter().enumerate() {
        let verdict = dgr::obs::health_of(*id);
        assert_eq!(verdict.is_some(), i >= 6, "verdict of job {id}");
    }
    let events = dgr::obs::chrome_trace().matches("\"ph\":\"X\"").count();
    assert_eq!(events, 0, "the daemon kept span events");
    let totals = dgr::obs::span_totals();
    assert!(totals.is_empty(), "the jobs recorded spans: {totals:?}");
}

/// A finished job's `/status` row names the last pass it ran, layer
/// assignment, not the extraction the router's own phases end with.
#[test]
fn a_finished_jobs_status_row_names_its_last_post_pass() {
    let daemon = boot(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    let id = submit_job(
        addr,
        r#"{"design_catalog":"ispd18_test1","fast":true,"iterations":40,"seed":1}"#,
    );
    wait_state(addr, id, "done", Duration::from_secs(120));
    let status = get(addr, "/status").json();
    daemon.stop();
    let Some(JsonValue::Arr(rows)) = status.get("jobs") else {
        panic!("/status has no `jobs` array");
    };
    let row = rows
        .iter()
        .find(|r| r.get("id").and_then(JsonValue::as_u64) == Some(id))
        .expect("the job has a /status row");
    assert_eq!(row.str("phase"), Some("assign_layers"), "{status:?}");
}

/// A route outside any job — a CLI run, in-process here beside a daemon
/// that has recording on — opens no scope: it leaves no `/status` row and
/// no verdict, under id 0 or any other.
#[test]
fn an_unscoped_route_leaves_no_run_state() {
    let daemon = boot(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    assert!(dgr::obs::enabled(), "the daemon turns recording on");
    let cfg = dgr::core::DgrConfig {
        iterations: 20,
        ..dgr::core::DgrConfig::default()
    };
    let hooks = &mut dgr::core::RouteHooks::default();
    dgr::post::pipeline::run(&small_design(37), &cfg, hooks, false).expect("routes");
    let status = get(addr, "/status").json();
    daemon.stop();
    let Some(JsonValue::Arr(rows)) = status.get("jobs") else {
        panic!("/status has no `jobs` array");
    };
    let zero = rows
        .iter()
        .any(|r| r.get("id").and_then(JsonValue::as_u64) == Some(0));
    assert!(!zero, "an unscoped route made a /status row: {status:?}");
    assert!(dgr::obs::health_of(0).is_none());
}

/// A `deadline_ms=1` job is killed by the sentinel watchdog and reported
/// as a structured *failure* (not a cancellation — no client asked for
/// one), `/health` surfaces it as a critical row next to the healthy
/// job's ok row, and the queue keeps serving afterwards.
#[test]
fn watchdog_kills_slo_breaching_jobs_and_health_reports_them() {
    let daemon = boot(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    let text = dgr::io::write_design(&small_design(31));
    let escaped = text
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");

    let breaching = submit_job(
        addr,
        &format!(
            r#"{{"design_text":"{escaped}","label":"breach","tenant":"e2e","iterations":500000,"seed":1,"deadline_ms":1}}"#
        ),
    );
    let job = wait_state(addr, breaching, "failed", Duration::from_secs(120));
    let error = job
        .str("error")
        .expect("failed job has an error")
        .to_string();
    assert!(
        error.starts_with("watchdog: ") && error.contains("deadline_ms=1"),
        "error: {error}"
    );
    assert_eq!(
        job.get("cancel_requested")
            .map(|v| matches!(v, JsonValue::Bool(false))),
        Some(true),
        "the watchdog, not a client, stopped the run"
    );
    assert!(job.get("result").is_none());

    // the breach left the queue healthy: the next job runs to done
    let healthy = submit_job(addr, &inline_spec(&text, "healthy", 10, 2));
    wait_state(addr, healthy, "done", Duration::from_secs(120));

    // /health joins both outcomes: overall critical, one critical row
    // (watchdog-failed) and one ok row
    let resp = get(addr, "/health");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let health = resp.json();
    assert_eq!(health.str("verdict"), Some("critical"), "{}", resp.body);
    let rows = match health.get("rows") {
        Some(JsonValue::Arr(rows)) => rows,
        other => panic!("rows: {other:?}"),
    };
    let row_of = |id: u64| {
        rows.iter()
            .find(|r| r.get("id").and_then(JsonValue::as_u64) == Some(id))
            .unwrap_or_else(|| panic!("no /health row for job {id}: {}", resp.body))
    };
    let breach_row = row_of(breaching);
    assert_eq!(breach_row.str("verdict"), Some("critical"), "{}", resp.body);
    assert!(breach_row
        .str("error")
        .is_some_and(|e| e.starts_with("watchdog: ")));
    let healthy_row = row_of(healthy);
    assert_eq!(healthy_row.str("verdict"), Some("ok"), "{}", resp.body);
    assert_eq!(healthy_row.str("state"), Some("done"));

    daemon.stop();
}

/// The `dgr serve-jobs` binary boots, prints its address banner, serves
/// a catalog job end to end, and dies cleanly.
#[test]
fn serve_jobs_cli_smoke() {
    let (mut child, addr) = spawn_serve_jobs();

    let id = submit_job(
        addr,
        r#"{"design_catalog":"ispd18_test1","fast":true,"iterations":8,"seed":1,"tenant":"smoke"}"#,
    );
    let job = wait_state(addr, id, "done", Duration::from_secs(120));
    assert!(job.get("result").is_some());
    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);

    child.kill().expect("kill serve-jobs");
    let _ = child.wait();
}

/// A job's result describes that job alone — two identical jobs run back
/// to back report the same vias in `GET /jobs/:id` — and equals what
/// `dgr route` prints for the same design and configuration.
#[test]
fn twin_jobs_report_equal_vias_and_match_the_cli() {
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 24,
        height: 24,
        num_nets: 48,
        num_layers: 5,
        seed: 41,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let text = dgr::io::write_design(&design);

    let (mut child, addr) = spawn_serve_jobs();
    let vias: Vec<u64> = (0..2)
        .map(|_| {
            let id = submit_job(addr, &inline_spec(&text, "twin", 12, 5));
            let job = wait_state(addr, id, "done", Duration::from_secs(120));
            let result = job.get("result").expect("a done job has a result");
            result.get("vias").and_then(JsonValue::as_u64).unwrap()
        })
        .collect();
    child.kill().expect("kill serve-jobs");
    let _ = child.wait();
    assert_eq!(vias[0], vias[1], "twin jobs, different vias");

    let dir = std::env::temp_dir().join("dgr_daemon_twin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("twin.txt");
    std::fs::write(&design_path, &text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .args([
            "route",
            design_path.to_str().unwrap(),
            "--iterations",
            "12",
            "--seed",
            "5",
            "--quiet",
        ])
        .output()
        .expect("run dgr route");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = format!("  vias (3D)        : {}", vias[0]);
    assert!(
        stdout.lines().any(|l| l == line),
        "`{line}` not in:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 12-net design on a 12×12 grid: small enough that thousands of
/// iterations take a second.
fn tiny_design() -> Design {
    IspdLikeGenerator::new(IspdLikeConfig {
        width: 12,
        height: 12,
        num_nets: 12,
        num_layers: 3,
        clusters: 3,
        seed: 7,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config")
}

/// A finished job's `/jobs/:id/telemetry` and `/jobs/:id/report` bodies,
/// byte for byte, against `tests/golden/daemon_job_bodies.txt` (recorded
/// when a finished job still served a second, JSONL copy of its rows).
/// The report's title names the process-global job id, which is masked.
/// `DGR_UPDATE_GOLDEN=1` rewrites the file.
#[test]
fn a_finished_jobs_bodies_match_the_golden() {
    let daemon = boot(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    let text = dgr::io::write_design(&tiny_design());
    let id = submit_job(addr, &inline_spec(&text, "golden", 60, 3));
    wait_state(addr, id, "done", Duration::from_secs(120));
    let telemetry = get(addr, &format!("/jobs/{id}/telemetry"));
    let report = get(addr, &format!("/jobs/{id}/report"));
    daemon.stop();
    assert_eq!((telemetry.status, report.status), (200, 200));
    let report = report.body.replace(&format!("job {id} — "), "job <id> — ");
    let got = format!("== telemetry\n{}== report\n{report}", telemetry.body);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/daemon_job_bodies.txt"
    );
    if std::env::var_os("DGR_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e}\n(run with DGR_UPDATE_GOLDEN=1 to create)"));
    assert!(got == want, "a finished job's bodies changed their bytes");
}

/// A finished job of more iterations than the 2 048 rows a scope once
/// thinned at serves every row: exactly `iterations` of them, the bytes
/// `dgr route --telemetry` writes for the same design, iterations and
/// seed.
#[test]
fn a_long_finished_job_serves_every_row_like_the_cli() {
    const ITERS: u32 = 2_500;
    let daemon = boot(DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    });
    let addr = daemon.local_addr();
    let text = dgr::io::write_design(&tiny_design());
    let id = submit_job(addr, &inline_spec(&text, "long", ITERS, 9));
    wait_state(addr, id, "done", Duration::from_secs(300));
    let telemetry = get(addr, &format!("/jobs/{id}/telemetry"));
    daemon.stop();
    assert_eq!(telemetry.status, 200);
    assert_eq!(telemetry.body.lines().count(), ITERS as usize);
    assert!(
        telemetry.body.as_bytes() == cli_file("--telemetry", &text, ITERS, 9, "long").as_slice(),
        "the job's telemetry differs from the one-shot CLI's file"
    );
}
