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

/// One-shot CLI route of the same design/config; returns the guide bytes.
fn cli_guide(design_text: &str, iterations: u32, seed: u64, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("dgr_daemon_cli_{tag}_{seed}"));
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("design.txt");
    let guide_path = dir.join("out.guide");
    std::fs::write(&design_path, design_text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .env("DGR_LEDGER", "off")
        .args([
            "route",
            design_path.to_str().unwrap(),
            "--iterations",
            &iterations.to_string(),
            "--seed",
            &seed.to_string(),
            "--guide",
            guide_path.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run dgr route");
    assert!(
        out.status.success(),
        "cli route failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(&guide_path).expect("cli guide written")
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
        let cli = cli_guide(text, ITERS, *seed, "bytecmp");
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
        guide.body.as_bytes() == cli_guide(&text, ITERS, 5, "fanout").as_slice(),
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

/// A long-lived daemon keeps no span events: its jobs fold their spans
/// into the per-name totals and log no detailed event, since only the
/// CLI's `--trace` and `--profile` ask for the log. An eviction's one
/// `scope_remove` still takes the job's `/status` and `/health` rows.
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
    daemon.stop(); // joins the worker, so every eviction has run

    // a plain obs listener serves the same scope registry: the evicted
    // ids are gone from `/status` and from the obs `/health`, the two
    // retained ones are still there
    let obs = dgr::obs::ObsServer::start("127.0.0.1:0").expect("obs listener binds");
    let listed = |path: &str, key: &str| -> Vec<u64> {
        let body = get(obs.local_addr(), path).json();
        let Some(JsonValue::Arr(rows)) = body.get(key) else {
            panic!("{path} has no `{key}` array");
        };
        let id = |row: &JsonValue| row.get("id").and_then(JsonValue::as_u64).unwrap();
        rows.iter().map(id).collect()
    };
    let (on_status, on_health) = (listed("/status", "jobs"), listed("/health", "rows"));
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(on_status.contains(id), i >= 6, "/status jobs, job {id}");
        assert_eq!(on_health.contains(id), i >= 6, "/health rows, job {id}");
    }
    let events = dgr::obs::chrome_trace().matches("\"ph\":\"X\"").count();
    assert_eq!(events, 0, "the daemon kept span events");
    let train = dgr::obs::span_totals()
        .into_iter()
        .find(|t| t.name == "train");
    assert!(train.is_some_and(|t| t.count >= 8), "the jobs' spans fold");
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

/// Spawns `dgr serve-jobs` with one worker on an ephemeral port, its
/// ledger at `ledger` (`"off"` for none), and returns it with the address
/// its banner names.
fn spawn_serve_jobs(ledger: &std::ffi::OsStr) -> (std::process::Child, std::net::SocketAddr) {
    use std::io::BufRead;

    let mut child = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .env("DGR_LEDGER", ledger)
        .args(["serve-jobs", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dgr serve-jobs");

    let stderr = child.stderr.take().unwrap();
    let mut lines = std::io::BufReader::new(stderr).lines();
    let banner = lines.next().expect("banner line").expect("banner readable");
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|s| s.split('/').next())
        .expect("banner has an address")
        .parse()
        .expect("banner address parses");
    (child, addr)
}

/// The `dgr serve-jobs` binary boots, prints its address banner, serves
/// a catalog job end to end, and dies cleanly.
#[test]
fn serve_jobs_cli_smoke() {
    let (mut child, addr) = spawn_serve_jobs("off".as_ref());

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

/// The ledger record of a job describes that job alone — two identical
/// jobs run back to back log the same vias — and it is comparable with
/// the record `dgr route` writes for the same label, design and
/// configuration.
#[test]
fn job_ledger_records_are_per_job_and_comparable_with_the_cli() {
    let dir = std::env::temp_dir().join("dgr_daemon_ledger_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("twin.txt");
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
    std::fs::write(&design_path, &text).unwrap();

    let daemon_ledger = dir.join("dgrd.jsonl");
    let (mut child, addr) = spawn_serve_jobs(daemon_ledger.as_os_str());
    for _ in 0..2 {
        let id = submit_job(addr, &inline_spec(&text, "twin", 12, 5));
        wait_state(addr, id, "done", Duration::from_secs(120));
    }
    child.kill().expect("kill serve-jobs");
    let _ = child.wait();

    let jobs = dgr::obs::ledger::load(&daemon_ledger);
    assert_eq!(jobs.len(), 2, "one record per job");
    assert!(jobs.iter().all(|r| r.cmd == "dgrd" && r.design == "twin"));
    assert_eq!(jobs[0].vias, jobs[1].vias, "twin jobs, different records");
    assert!(jobs.iter().all(|r| r.phases.contains_key("train")));

    let cli_ledger = dir.join("cli.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .env("DGR_LEDGER", &cli_ledger)
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
    let cli = dgr::obs::ledger::load(&cli_ledger);
    assert_eq!(cli.len(), 1);
    assert_eq!(cli[0].design, "twin");
    assert_eq!(cli[0].config_fp, jobs[0].config_fp);
    assert_eq!(cli[0].vias, jobs[0].vias);
    let _ = std::fs::remove_dir_all(&dir);
}
