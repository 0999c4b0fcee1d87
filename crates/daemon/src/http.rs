//! The HTTP face of `dgrd`: every route, in one `match`.
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /jobs` | submit a job spec (202, or 400/413/429) |
//! | `GET /jobs` | queue + job listing |
//! | `GET /jobs/{id}` | full lifecycle state of one job |
//! | `DELETE /jobs/{id}` | cancel (200 queued-cancel, 202 running) |
//! | `GET /jobs/{id}/report` | per-job HTML post-mortem |
//! | `GET /jobs/{id}/telemetry` | per-job training telemetry (JSONL) |
//! | `GET /jobs/{id}/guide` | route-guide text of a finished job |
//! | `GET /health` | overall + per-job sentinel convergence verdicts |
//! | `GET /metrics` | every obs metric, Prometheus text exposition |
//! | `GET /status` | process RSS + one row per job's obs scope (JSON) |
//!
//! `/health` joins job metadata (label, tenant, state, watchdog errors)
//! onto the verdicts of the jobs' obs scopes. All errors are structured:
//! a 4xx status plus `{"error": ..., "status": N}` JSON.

use std::sync::Arc;

use dgr_obs::json::JsonObject;

use crate::listener::{HttpRequest, HttpResponse, Listener};
use crate::queue::{CancelError, CancelOutcome, Job};
use crate::server::{DaemonConfig, JobServer};
use crate::spec::JobSpec;

/// A running daemon: scheduler plus HTTP listener.
pub struct Daemon {
    jobs: Arc<JobServer>,
    http: Listener,
}

impl Daemon {
    /// Boots the scheduler and binds the listener (use port 0 for an
    /// ephemeral port; read it back with [`Daemon::local_addr`]).
    pub fn start(addr: &str, cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let jobs = Arc::new(JobServer::start(cfg)?);
        let http = Listener::start(addr, {
            let jobs = Arc::clone(&jobs);
            move |req| handle(&jobs, req)
        })?;
        Ok(Daemon { jobs, http })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// The job scheduler (for in-process submission and assertions).
    pub fn jobs(&self) -> &Arc<JobServer> {
        &self.jobs
    }

    /// Stops the listener, cancels running jobs, and joins the workers.
    pub fn stop(self) {
        self.http.stop();
        self.jobs.stop();
    }
}

/// Routes one request.
fn handle(jobs: &JobServer, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(jobs, &req.body),
        ("GET", "/jobs") => list_jobs(jobs),
        ("GET", "/health") => health(jobs),
        ("GET", "/metrics") => metrics(),
        ("GET", "/status") => HttpResponse::json(200, dgr_obs::status_json() + "\n"),
        (method, path @ ("/jobs" | "/health" | "/metrics" | "/status")) => {
            HttpResponse::error(405, &format!("method {method} not allowed on {path}"))
        }
        (method, path) => match path.strip_prefix("/jobs/") {
            Some(rest) => job_route(jobs, method, rest),
            None => HttpResponse::error(404, &format!("no such endpoint: {path}")),
        },
    }
}

/// `/jobs/{id}` and its subresources; `rest` is the path after `/jobs/`.
fn job_route(jobs: &JobServer, method: &str, rest: &str) -> HttpResponse {
    let (id_text, sub) = match rest.split_once('/') {
        Some((id, sub)) => (id, Some(sub)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return HttpResponse::error(404, "job ids are integers");
    };
    match (method, sub) {
        ("GET", None) => job_json(jobs, id),
        ("DELETE", None) => cancel_job(jobs, id),
        ("GET", Some("report")) => job_report(jobs, id),
        ("GET", Some("telemetry")) => job_telemetry(jobs, id),
        ("GET", Some("guide")) => job_guide(jobs, id),
        ("GET", Some(_)) => HttpResponse::error(404, "unknown job subresource"),
        _ => HttpResponse::error(405, "method not allowed on this route"),
    }
}

/// `GET /metrics`: the Prometheus text exposition, with the RSS gauge
/// re-read for each scrape.
fn metrics() -> HttpResponse {
    if let Some(rss) = dgr_obs::process_memory().rss {
        dgr_obs::gauge("process.rss_bytes").set(rss as f64);
    }
    HttpResponse {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: dgr_obs::prometheus_text(),
    }
}

fn post_job(jobs: &JobServer, body: &[u8]) -> HttpResponse {
    let Ok(text) = std::str::from_utf8(body) else {
        return HttpResponse::error(400, "request body is not UTF-8");
    };
    let spec = match JobSpec::from_json(text) {
        Ok(s) => s,
        Err(e) => return HttpResponse::error(400, &e.0),
    };
    match jobs.submit(spec) {
        Ok(id) => {
            let mut o = JsonObject::new();
            o.field_u64("id", id);
            o.field_str("state", "queued");
            HttpResponse::json(202, o.finish() + "\n")
        }
        Err(e) => HttpResponse::error(429, &e.to_string()),
    }
}

fn list_jobs(jobs: &JobServer) -> HttpResponse {
    let body = jobs.with_table(|t| {
        let rows: Vec<String> = t
            .jobs()
            .map(|j| {
                let mut o = JsonObject::new();
                o.field_u64("id", j.id);
                o.field_str("label", &j.spec.label);
                o.field_str("tenant", &j.spec.tenant);
                o.field_str("state", j.state.as_str());
                o.field_raw("priority", &j.spec.priority.to_string());
                o.field_opt_u64("run_seq", j.run_seq);
                o.finish()
            })
            .collect();
        let mut o = JsonObject::new();
        o.field_raw("jobs", &format!("[{}]", rows.join(",")));
        o.field_u64("queued", t.queue_len() as u64);
        o.field_u64("capacity", t.capacity() as u64);
        o.finish()
    });
    HttpResponse::json(200, body + "\n")
}

/// `GET /health`: sentinel verdicts joined onto job metadata. One row
/// per table-resident job; the overall verdict is the worst row's
/// (watchdog-failed jobs report `critical` even if no analytic rule
/// tripped before the cancel landed).
fn health(jobs: &JobServer) -> HttpResponse {
    let body = jobs.with_table(|t| {
        let mut overall = dgr_obs::Verdict::Ok;
        let rows: Vec<String> = t
            .jobs()
            .map(|j| {
                let watchdog_failed = j
                    .error
                    .as_deref()
                    .is_some_and(|e| e.starts_with("watchdog: "));
                let mut verdict = dgr_obs::health_of(j.id).map_or(dgr_obs::Verdict::Ok, |h| h.0);
                if watchdog_failed {
                    verdict = dgr_obs::Verdict::Critical;
                }
                overall = overall.max(verdict);
                let findings = dgr_obs::health_summary_of(j.id);
                let mut o = JsonObject::new();
                o.field_u64("id", j.id);
                o.field_str("label", &j.spec.label);
                o.field_str("tenant", &j.spec.tenant);
                o.field_str("state", j.state.as_str());
                o.field_str("verdict", verdict.as_str());
                o.field_str("findings", &findings);
                if let Some(e) = &j.error {
                    o.field_str("error", e);
                }
                o.finish()
            })
            .collect();
        let mut o = JsonObject::new();
        o.field_str("verdict", overall.as_str());
        o.field_u64("jobs", rows.len() as u64);
        o.field_raw("rows", &format!("[{}]", rows.join(",")));
        o.finish()
    });
    HttpResponse::json(200, body + "\n")
}

fn job_json(jobs: &JobServer, id: u64) -> HttpResponse {
    match jobs.with_job(id, render_job) {
        Some(body) => HttpResponse::json(200, body + "\n"),
        None => HttpResponse::error(404, "unknown job"),
    }
}

fn render_job(j: &Job) -> String {
    let mut o = JsonObject::new();
    o.field_u64("id", j.id);
    o.field_str("label", &j.spec.label);
    o.field_str("tenant", &j.spec.tenant);
    o.field_str("state", j.state.as_str());
    o.field_raw("priority", &j.spec.priority.to_string());
    o.field_opt_u64("iterations", j.spec.iterations.map(|i| i as u64));
    o.field_opt_u64("seed", j.spec.seed);
    o.field_opt_u64("deadline_ms", j.spec.deadline_ms);
    o.field_opt_u64("max_stall_iters", j.spec.max_stall_iters);
    o.field_str("health", &dgr_obs::health_summary_of(j.id));
    o.field_u64("submitted_unix_ms", j.submitted_unix_ms);
    o.field_opt_u64("started_unix_ms", j.started_unix_ms);
    o.field_opt_u64("finished_unix_ms", j.finished_unix_ms);
    o.field_opt_u64("run_seq", j.run_seq);
    o.field_raw(
        "cancel_requested",
        if j.cancel_requested { "true" } else { "false" },
    );
    if let Some(e) = &j.error {
        o.field_str("error", e);
    }
    if let Some(r) = &j.result {
        let mut res = JsonObject::new();
        res.field_f64("final_loss", r.final_loss);
        res.field_u64("wirelength", r.metrics.total_wirelength);
        res.field_u64("turns", r.metrics.total_turns);
        res.field_f64("overflow", r.metrics.overflow.total_overflow);
        res.field_u64(
            "overflowed_edges",
            r.metrics.overflow.overflowed_edges as u64,
        );
        res.field_u64("vias", r.vias);
        res.field_u64("nets", r.nets);
        res.field_u64("guide_boxes", r.guide_boxes);
        let s = r.refine.stats;
        res.field_u64("refine_searches", s.searches() as u64);
        res.field_u64("refine_escalations", s.escalations() as u64);
        res.field_u64("refine_escalations_avoided", s.escalations_avoided() as u64);
        res.field_u64("refine_states_expanded", s.states_expanded() as u64);
        res.field_u64("wall_ms", r.wall_ms);
        let mut ph = JsonObject::new();
        for (name, ms) in &r.phases {
            ph.field_f64(name, *ms);
        }
        res.field_raw("phases_ms", &ph.finish());
        o.field_raw("result", &res.finish());
    }
    o.finish()
}

fn cancel_job(jobs: &JobServer, id: u64) -> HttpResponse {
    match jobs.cancel(id) {
        Ok(CancelOutcome::CancelledQueued) => {
            let mut o = JsonObject::new();
            o.field_u64("id", id);
            o.field_str("state", "cancelled");
            HttpResponse::json(200, o.finish() + "\n")
        }
        Ok(CancelOutcome::CancelRequested) => {
            let mut o = JsonObject::new();
            o.field_u64("id", id);
            o.field_str("state", "running");
            o.field_str("cancel", "requested");
            HttpResponse::json(202, o.finish() + "\n")
        }
        Err(CancelError::UnknownJob) => HttpResponse::error(404, "unknown job"),
        Err(e @ (CancelError::AlreadyRequested | CancelError::NotCancellable(_))) => {
            HttpResponse::error(409, &e.to_string())
        }
    }
}

/// The job's telemetry JSONL: every row its obs scope holds, whatever
/// the job's state (none before it runs).
fn job_telemetry(jobs: &JobServer, id: u64) -> HttpResponse {
    if jobs.with_job(id, |_| ()).is_none() {
        return HttpResponse::error(404, "unknown job");
    }
    HttpResponse {
        status: 200,
        content_type: "application/x-ndjson",
        body: dgr_obs::status_ring_jsonl_of(id),
    }
}

/// The job's HTML report: curves from its obs scope's rows, whatever the
/// job's state (none before it runs).
fn job_report(jobs: &JobServer, id: u64) -> HttpResponse {
    let Some(label) = jobs.with_job(id, |j| j.spec.label.clone()) else {
        return HttpResponse::error(404, "unknown job");
    };
    let title = format!("job {id} — {label}");
    HttpResponse::html(200, dgr_obs::report_of(id, title))
}

fn job_guide(jobs: &JobServer, id: u64) -> HttpResponse {
    match jobs.with_job(id, |j| {
        (j.state, j.result.as_ref().and_then(|r| r.guide.clone()))
    }) {
        None => HttpResponse::error(404, "unknown job"),
        Some((state, Some(guide))) => {
            debug_assert!(state.is_terminal());
            HttpResponse::text(200, guide)
        }
        Some((state, None)) if state.is_terminal() => {
            HttpResponse::error(404, "job finished without a guide")
        }
        Some((_, None)) => HttpResponse::error(409, "job not finished yet"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DesignSource;
    use std::io::{Read, Write};

    fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let msg = format!(
            "{head} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(msg.as_bytes()).unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let status: u16 = resp
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let payload = resp
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    #[test]
    fn every_route_answers_on_the_one_listener() {
        let daemon = Daemon::start(
            "127.0.0.1:0",
            DaemonConfig {
                workers: 1,
                ..DaemonConfig::default()
            },
        )
        .unwrap();
        let addr = daemon.local_addr();

        // an unroutable-but-parsable spec error is a structured 400
        let (status, body) = request(addr, "POST /jobs", r#"{"bogus":1}"#);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"error\""));

        // every scrape re-reads the RSS gauge
        let (status, body) = request(addr, "GET /metrics", "");
        assert_eq!(status, 200, "{body}");
        if dgr_obs::process_memory().rss.is_some() {
            let rss = body
                .lines()
                .find_map(|l| l.strip_prefix("dgr_process_rss_bytes "));
            assert!(rss.is_some_and(|v| v != "0"), "{body}");
        }

        let (status, body) = request(addr, "GET /status", "");
        assert_eq!(status, 200, "{body}");
        assert!(
            body.starts_with("{\"rss\":") && body.contains(",\"jobs\":["),
            "{body}"
        );

        // /health rows are the jobs'
        let (status, body) = request(addr, "GET /health", "");
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains("\"verdict\"") && body.contains("\"rows\""),
            "{body}"
        );

        // unknown paths, ids and methods are structured errors
        for (head, want) in [
            ("GET /jobs/424242", 404),
            ("GET /jobs/nope", 404),
            ("GET /nope", 404),
            ("GET /report", 404),
            ("GET /", 404),
            ("PATCH /metrics", 405),
            ("POST /status", 405),
        ] {
            let (status, body) = request(addr, head, "");
            assert_eq!(status, want, "{head}: {body}");
            assert!(body.contains("\"error\""), "{head}: {body}");
        }

        daemon.stop();
    }

    #[test]
    fn guide_endpoint_states() {
        let server = JobServer::start(DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        })
        .unwrap();
        let id = server
            .submit(JobSpec {
                label: "g".into(),
                tenant: "t".into(),
                priority: 0,
                iterations: Some(1),
                seed: None,
                design: DesignSource::Text("garbage".into()),
                want_guide: true,
                deadline_ms: None,
                max_stall_iters: None,
            })
            .unwrap();
        assert!(server.wait_terminal(id, std::time::Duration::from_secs(30)));
        let resp = job_guide(&server, id);
        assert_eq!(resp.status, 404); // failed job → no guide
        let resp = job_guide(&server, 999_999_998);
        assert_eq!(resp.status, 404);
        server.stop();
    }
}
