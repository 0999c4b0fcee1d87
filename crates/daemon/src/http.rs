//! The HTTP face of `dgrd`: `/jobs` routes mounted on the `dgr-obs`
//! blocking server.
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
//!
//! Every other path falls through to the built-in observability routes
//! (`/metrics`, `/status`, `/report`, `/`). The daemon's `/health`
//! shadows the obs built-in so its rows can join job metadata (label,
//! tenant, state, watchdog errors) onto the verdicts of the jobs' obs
//! scopes. All errors are structured: a 4xx status plus `{"error": ...,
//! "status": N}` JSON.

use std::sync::Arc;

use dgr_obs::json::JsonObject;
use dgr_obs::{HttpHandler, HttpRequest, HttpResponse, ObsServer};

use crate::queue::{CancelError, CancelOutcome, Job, JobState};
use crate::server::{DaemonConfig, JobServer};
use crate::spec::JobSpec;

/// A running daemon: scheduler plus HTTP listener.
pub struct Daemon {
    jobs: Arc<JobServer>,
    http: ObsServer,
}

impl Daemon {
    /// Boots the scheduler and binds the listener (use port 0 for an
    /// ephemeral port; read it back with [`Daemon::local_addr`]).
    pub fn start(addr: &str, cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let max_body = cfg.max_body_bytes;
        let jobs = Arc::new(JobServer::start(cfg)?);
        let handler_jobs = Arc::clone(&jobs);
        let handler: HttpHandler = Arc::new(move |req| handle(&handler_jobs, req));
        let http = ObsServer::start_with_handler(addr, handler, max_body)?;
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

/// Routes one request; `None` falls through to the obs built-ins.
fn handle(jobs: &JobServer, req: &HttpRequest) -> Option<HttpResponse> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => Some(post_job(jobs, &req.body)),
        ("GET", "/jobs") => Some(list_jobs(jobs)),
        ("GET", "/health") => Some(health(jobs)),
        (method, path) => {
            let rest = path.strip_prefix("/jobs/")?;
            let (id_text, sub) = match rest.split_once('/') {
                Some((id, sub)) => (id, Some(sub)),
                None => (rest, None),
            };
            let Ok(id) = id_text.parse::<u64>() else {
                return Some(HttpResponse::error(404, "job ids are integers"));
            };
            Some(match (method, sub) {
                ("GET", None) => job_json(jobs, id),
                ("DELETE", None) => cancel_job(jobs, id),
                ("GET", Some("report")) => job_report(jobs, id),
                ("GET", Some("telemetry")) => job_telemetry(jobs, id),
                ("GET", Some("guide")) => job_guide(jobs, id),
                ("GET", Some(_)) => HttpResponse::error(404, "unknown job subresource"),
                _ => HttpResponse::error(405, "method not allowed on this route"),
            })
        }
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

/// The job's telemetry JSONL: the stored full stream once terminal, the
/// ring of the job's obs scope while running (the in-memory sink is
/// exclusively owned by the run until it finishes).
fn job_telemetry(jobs: &JobServer, id: u64) -> HttpResponse {
    let Some((stored, state)) = jobs.with_job(id, |j| (j.telemetry.clone(), j.state)) else {
        return HttpResponse::error(404, "unknown job");
    };
    let text = match stored {
        Some(t) => t,
        None if state == JobState::Running => dgr_obs::status_ring_jsonl_of(id),
        None => String::new(),
    };
    HttpResponse {
        status: 200,
        content_type: "application/x-ndjson".into(),
        body: text,
    }
}

/// The job's HTML report: curves from its stored full telemetry once
/// terminal (never the ring, which thins a long run), from its scope's
/// ring while it runs, and none before.
fn job_report(jobs: &JobServer, id: u64) -> HttpResponse {
    let Some((stored, state, label)) =
        jobs.with_job(id, |j| (j.telemetry.clone(), j.state, j.spec.label.clone()))
    else {
        return HttpResponse::error(404, "unknown job");
    };
    let rows = match stored.as_deref().map(dgr_obs::rows_from_jsonl) {
        Some(Ok(rows)) => Some(rows),
        Some(Err((line, e))) => {
            return HttpResponse::error(500, &format!("telemetry: line {line}: {e}"))
        }
        None if state == JobState::Running => None,
        None => Some(Vec::new()),
    };
    let title = format!("job {id} — {label}");
    HttpResponse::html(200, dgr_obs::report_of(id, title, rows, None))
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
    fn submit_poll_and_builtin_fallthrough() {
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

        // obs built-ins still answer
        let (status, body) = request(addr, "GET /metrics", "");
        assert_eq!(status, 200, "{body}");

        // unknown id and non-integer id
        let (status, _) = request(addr, "GET /jobs/424242", "");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET /jobs/nope", "");
        assert_eq!(status, 404);

        // the daemon /health shadows the obs built-in with job rows
        let (status, body) = request(addr, "GET /health", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"verdict\""), "{body}");
        assert!(body.contains("\"rows\""), "{body}");

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
