//! `dgrd` measured from outside: a `dgr serve-jobs` child process, a
//! std-only HTTP client, and the closed-loop clients that drive it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::cli::{cost_score, OP_TIMEOUT};
use crate::gen::GeneratedDesign;
use crate::stats::ms;
use crate::trace::Recorder;
use crate::validate::validate_guide;
use crate::workloads::DAEMON_WORKERS;

/// Sleep between two polls of a job's state.
const POLL_SLEEP: Duration = Duration::from_millis(2);

/// A running `dgr serve-jobs` child; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `dgr serve-jobs 127.0.0.1:0`, reads the address from the
    /// banner on its stderr (kept in `dir/dgrd.stderr`), and waits until
    /// `GET /status` answers 200.
    pub fn spawn(dgr: &Path, dir: &Path) -> Result<Daemon, String> {
        let stderr_path = dir.join("dgrd.stderr");
        let stderr = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
        let child = Command::new(dgr)
            .args(["serve-jobs", "127.0.0.1:0", "--workers"])
            .arg(DAEMON_WORKERS.to_string())
            .env("DGR_LEDGER", dir.join("dgrd-ledger.jsonl"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dgr.display()))?;
        // from here on a failure drops `daemon`, which reaps the child
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let banner = std::fs::read_to_string(&stderr_path).unwrap_or_default();
            if let Some(addr) = banner
                .split("dgrd: http://")
                .nth(1)
                .and_then(|rest| rest.split('/').next())
                .and_then(|a| a.parse().ok())
            {
                daemon.addr = addr;
                break;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "dgrd exited at start ({status}): {}",
                    banner.trim()
                ));
            }
            if Instant::now() > deadline {
                return Err("dgrd printed no banner within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        while request(daemon.addr, "GET", "/status", "").map(|r| r.status) != Ok(200) {
            if Instant::now() > deadline {
                return Err("dgrd /status not 200 within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // dgrd has no shutdown route; it parks forever
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An HTTP response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Splits a raw `Connection: close` response into status and body.
pub fn parse_response(raw: &str) -> Option<Response> {
    let status = raw.split_whitespace().nth(1)?.parse().ok()?;
    let body = raw.split_once("\r\n\r\n")?.1.to_string();
    Some(Response { status, body })
}

/// One request on a fresh socket, read to the end.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: dgrd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(msg.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw).ok_or_else(|| format!("malformed response to {method} {path}"))
}

/// The raw value of `"key":` in a JSON object rendered by `dgrd` —
/// enough for the flat, known fields of `GET /jobs/:id`; a string value
/// comes back without its quotes. Keys are matched whole, so `overflow`
/// does not find `overflowed_edges`.
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = body[body.find(&needle)? + needle.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_num(body: &str, key: &str) -> Option<f64> {
    json_field(body, key)?.parse().ok()
}

/// The `POST /jobs` body for `design`: inline text, escaped for JSON.
pub fn job_spec(design: &GeneratedDesign, iterations: usize, label: &str) -> String {
    let mut text = String::with_capacity(design.text.len() + 64);
    for c in design.text.chars() {
        match c {
            '\n' => text.push_str("\\n"),
            '"' => text.push_str("\\\""),
            '\\' => text.push_str("\\\\"),
            c => text.push(c),
        }
    }
    format!(
        "{{\"label\":\"{label}\",\"iterations\":{iterations},\"guide\":true,\"design_text\":\"{text}\"}}"
    )
}

/// What the server reports about a finished job, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerTimes {
    pub submitted_unix_ms: f64,
    pub queue_wait_ms: f64,
    pub run_ms: f64,
    pub pipeline_ms: f64,
    pub train_ms: f64,
    pub refine_ms: f64,
    pub assign_ms: f64,
    pub cost: f64,
}

/// Reads the fields of a `done` job's `GET /jobs/:id` body.
pub fn parse_done_job(body: &str) -> Option<ServerTimes> {
    let submitted = json_num(body, "submitted_unix_ms")?;
    let started = json_num(body, "started_unix_ms")?;
    let finished = json_num(body, "finished_unix_ms")?;
    Some(ServerTimes {
        submitted_unix_ms: submitted,
        queue_wait_ms: started - submitted,
        run_ms: finished - started,
        pipeline_ms: json_num(body, "wall_ms")?,
        train_ms: json_num(body, "train")?,
        refine_ms: json_num(body, "refine")?,
        assign_ms: json_num(body, "assign")?,
        cost: cost_score(
            json_num(body, "wirelength")?,
            json_num(body, "vias")?,
            json_num(body, "overflow")?,
        ),
    })
}

/// One job as its client saw it. Times are client clocks in ms.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    pub design: usize,
    pub latency_ms: f64,
    pub submit_ms: f64,
    pub guide_fetch_ms: f64,
    pub poll_rtts_ms: Vec<f64>,
    pub rejected_429: usize,
    pub server: ServerTimes,
    /// Why the job counts as failed, if it does.
    pub error: Option<String>,
}

impl JobRecord {
    /// Latency not explained by the request round trips or by the
    /// server's own queue-wait and run intervals: the time between the
    /// server finishing and the client's next poll noticing.
    pub fn client_gap_ms(&self) -> f64 {
        self.latency_ms
            - self.submit_ms
            - self.server.queue_wait_ms
            - self.server.run_ms
            - self.guide_fetch_ms
    }
}

/// Milliseconds since the Unix epoch, the clock `dgrd` stamps jobs with.
pub fn unix_ms_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// A daemon, the jobs to send it, and the clock its spans are placed on.
pub struct JobSet<'a> {
    pub addr: SocketAddr,
    pub designs: &'a [GeneratedDesign],
    /// `specs[i]` is the `POST /jobs` body of `designs[i]`.
    pub specs: &'a [String],
    pub epoch: Instant,
    /// `unix_ms_now()` at `epoch`.
    pub epoch_unix_ms: f64,
}

impl JobSet<'_> {
    /// Submits job number `n` (design `n % designs`), polls it to `done`,
    /// fetches and checks its guide. Latency runs from the `POST` being
    /// sent to the guide being fully read. Records the request intervals
    /// — and, once known, the server's own — as spans of `rec`.
    pub fn run_job(&self, n: usize, rec: &mut Recorder) -> JobRecord {
        let addr = self.addr;
        let d = n % self.designs.len();
        let mut job = JobRecord {
            design: d,
            ..JobRecord::default()
        };
        let root = rec.enter("job");
        let start = Instant::now();
        let result = (|| -> Result<(), String> {
            let s = rec.enter("daemon.submit");
            let resp = request(addr, "POST", "/jobs", &self.specs[d]);
            rec.exit(s);
            job.submit_ms = ms(start.elapsed());
            let resp = resp?;
            if resp.status == 429 {
                job.rejected_429 += 1;
            }
            if resp.status != 202 {
                return Err(format!(
                    "POST /jobs → {}: {}",
                    resp.status,
                    resp.body.trim()
                ));
            }
            let id = json_field(&resp.body, "id")
                .ok_or("202 without an id")?
                .to_string();

            let wait = rec.enter("daemon.wait_done");
            let done_body = loop {
                std::thread::sleep(POLL_SLEEP);
                let t = Instant::now();
                let resp = request(addr, "GET", &format!("/jobs/{id}"), "")?;
                job.poll_rtts_ms.push(ms(t.elapsed()));
                match json_field(&resp.body, "state") {
                    Some("done") => break resp.body,
                    Some("queued" | "running") if start.elapsed() < OP_TIMEOUT => {}
                    Some("queued" | "running") => {
                        return Err(format!(
                            "job {id} not done after {} s",
                            OP_TIMEOUT.as_secs()
                        ))
                    }
                    other => {
                        return Err(format!(
                            "job {id} ended {other:?}: {}",
                            json_field(&resp.body, "error").unwrap_or("no error field")
                        ))
                    }
                }
            };
            let wait = rec.exit(wait);

            let g = rec.enter("daemon.guide_fetch");
            let t = Instant::now();
            let guide = request(addr, "GET", &format!("/jobs/{id}/guide"), "");
            job.guide_fetch_ms = ms(t.elapsed());
            rec.exit(g);
            job.latency_ms = ms(start.elapsed());
            let guide = guide?;
            if guide.status != 200 {
                return Err(format!("GET /jobs/{id}/guide → {}", guide.status));
            }
            validate_guide(&self.designs[d], &guide.body)?;

            job.server =
                parse_done_job(&done_body).ok_or("done job lacks a timing or result field")?;
            // the server's intervals, placed by its own wall-clock stamps
            let at = |unix_ms: f64| ((unix_ms - self.epoch_unix_ms).max(0.0) * 1e6) as u64;
            let sv = job.server;
            let started = sv.submitted_unix_ms + sv.queue_wait_ms;
            rec.interval(
                "daemon.queue_wait",
                at(sv.submitted_unix_ms),
                at(started),
                Some(wait),
            );
            let run = rec.interval(
                "daemon.run",
                at(started),
                at(started + sv.run_ms),
                Some(wait),
            );
            let pipeline_at = started + (sv.run_ms - sv.pipeline_ms).max(0.0);
            rec.interval(
                "daemon.materialize",
                at(started),
                at(pipeline_at),
                Some(run),
            );
            rec.interval(
                "daemon.pipeline",
                at(pipeline_at),
                at(pipeline_at + sv.pipeline_ms),
                Some(run),
            );
            Ok(())
        })();
        if job.latency_ms == 0.0 {
            job.latency_ms = ms(start.elapsed());
        }
        job.error = result.err();
        rec.exit(root);
        job
    }

    /// Closed loop: `clients` threads, one job outstanding each, taking
    /// job numbers in turn until `stop(n)` holds for the next number
    /// (asked before each submit). Job `n` is trace `first_trace + n`.
    /// Returns every job and the merged span recorder.
    pub fn closed_loop(
        &self,
        clients: usize,
        first_trace: u32,
        stop: &(dyn Fn(usize) -> bool + Sync),
    ) -> (Vec<JobRecord>, Recorder) {
        let next = AtomicUsize::new(0);
        let halted = AtomicBool::new(false);
        let per_client: Vec<(Vec<JobRecord>, Recorder)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut rec = Recorder::new(self.epoch);
                        let mut jobs = Vec::new();
                        loop {
                            let n = next.fetch_add(1, Ordering::Relaxed);
                            if halted.load(Ordering::Relaxed) || stop(n) {
                                halted.store(true, Ordering::Relaxed);
                                break;
                            }
                            rec.set_trace(first_trace + n as u32);
                            jobs.push(self.run_job(n, &mut rec));
                        }
                        (jobs, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .collect()
        });
        let mut all = Vec::new();
        let mut merged = Recorder::new(self.epoch);
        for (jobs, rec) in per_client {
            all.extend(jobs);
            merged.merge(rec);
        }
        (all, merged)
    }

    /// The burst segment: one client posts `count` jobs back to back,
    /// then waits for all of them. Gives the queue the work the closed
    /// loop never does. Returns each job's server-side queue wait and
    /// the makespan, in ms.
    pub fn burst(&self, count: usize) -> Result<(Vec<f64>, f64), String> {
        let start = Instant::now();
        let mut ids = Vec::with_capacity(count);
        for n in 0..count {
            let resp = request(
                self.addr,
                "POST",
                "/jobs",
                &self.specs[n % self.specs.len()],
            )?;
            if resp.status != 202 {
                return Err(format!("burst POST → {}", resp.status));
            }
            ids.push(
                json_field(&resp.body, "id")
                    .ok_or("202 without an id")?
                    .to_string(),
            );
        }
        let mut waits = Vec::with_capacity(count);
        for id in &ids {
            loop {
                let resp = request(self.addr, "GET", &format!("/jobs/{id}"), "")?;
                match json_field(&resp.body, "state") {
                    Some("done") => {
                        let sv =
                            parse_done_job(&resp.body).ok_or("burst job lacks timing fields")?;
                        waits.push(sv.queue_wait_ms);
                        break;
                    }
                    Some("queued" | "running") if start.elapsed() < OP_TIMEOUT => {
                        std::thread::sleep(POLL_SLEEP)
                    }
                    other => return Err(format!("burst job {id} ended {other:?}")),
                }
            }
        }
        Ok((waits, ms(start.elapsed())))
    }
}

/// A counter or gauge sample from Prometheus text (`name value`).
pub fn prometheus_sample(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DONE: &str = r#"{"id":41,"label":"w4-3","tenant":"anon","state":"done","priority":0,"iterations":200,"seed":null,"deadline_ms":null,"max_stall_iters":null,"health":"ok","submitted_unix_ms":1700000000100,"started_unix_ms":1700000000103,"finished_unix_ms":1700000000166,"run_seq":41,"cancel_requested":false,"result":{"final_loss":6914.11,"wirelength":3057,"turns":272,"overflow":1.5,"overflowed_edges":2,"vias":2579,"nets":300,"guide_boxes":901,"wall_ms":61,"phases_ms":{"assign":4.25,"backward":20.5,"forward":14.0,"refine":0.75,"train":48.5}}}
"#;

    #[test]
    fn response_is_split_into_status_and_body() {
        let raw = "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 27\r\nConnection: close\r\n\r\n{\"id\":7,\"state\":\"queued\"}\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(json_field(&r.body, "id"), Some("7"));
        assert_eq!(json_field(&r.body, "state"), Some("queued"));
        assert_eq!(parse_response("garbage"), None);
    }

    #[test]
    fn job_fields_are_read_by_whole_key() {
        assert_eq!(json_field(DONE, "state"), Some("done"));
        assert_eq!(json_field(DONE, "overflow"), Some("1.5"));
        assert_eq!(json_field(DONE, "overflowed_edges"), Some("2"));
        assert_eq!(json_field(DONE, "train"), Some("48.5"));
        assert_eq!(json_field(DONE, "seed"), Some("null"));
        assert_eq!(json_field(DONE, "missing"), None);
    }

    #[test]
    fn done_job_gives_server_intervals_and_cost() {
        let sv = parse_done_job(DONE).unwrap();
        assert_eq!(sv.queue_wait_ms, 3.0);
        assert_eq!(sv.run_ms, 63.0);
        assert_eq!(sv.pipeline_ms, 61.0);
        assert_eq!(
            (sv.train_ms, sv.refine_ms, sv.assign_ms),
            (48.5, 0.75, 4.25)
        );
        assert_eq!(sv.cost, 0.5 * 3057.0 + 4.0 * 2579.0 + 500.0 * 1.5);
        // a job still running has no finished stamp
        let running = DONE.replace(
            "\"finished_unix_ms\":1700000000166",
            "\"finished_unix_ms\":null",
        );
        assert_eq!(parse_done_job(&running), None);
    }

    #[test]
    fn client_gap_is_the_unexplained_remainder() {
        let job = JobRecord {
            latency_ms: 80.0,
            submit_ms: 2.0,
            guide_fetch_ms: 3.0,
            server: parse_done_job(DONE).unwrap(),
            ..JobRecord::default()
        };
        assert_eq!(job.client_gap_ms(), 80.0 - 2.0 - 3.0 - 63.0 - 3.0);
    }

    #[test]
    fn job_spec_escapes_the_design_text() {
        let d = GeneratedDesign {
            width: 2,
            height: 2,
            layers: 2,
            nets: vec![],
            text: "DGR-DESIGN v1\ngrid 2 2 2\n".into(),
            fnv64: 0,
        };
        assert_eq!(
            job_spec(&d, 200, "w4-0"),
            r#"{"label":"w4-0","iterations":200,"guide":true,"design_text":"DGR-DESIGN v1\ngrid 2 2 2\n"}"#
        );
    }

    #[test]
    fn prometheus_samples_match_whole_names() {
        let text = "# TYPE dgr_pool_seq_fallbacks counter\ndgr_pool_seq_fallbacks 120\ndgr_pool_seq_fallbacks_total 9\ndgr_pool_jobs_dispatched 40\n";
        assert_eq!(
            prometheus_sample(text, "dgr_pool_seq_fallbacks"),
            Some(120.0)
        );
        assert_eq!(
            prometheus_sample(text, "dgr_pool_jobs_dispatched"),
            Some(40.0)
        );
        assert_eq!(prometheus_sample(text, "dgr_pool"), None);
    }
}
