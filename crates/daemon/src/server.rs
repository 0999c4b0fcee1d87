//! The job scheduler: a fixed worker set draining the [`JobTable`].
//!
//! Each worker thread claims the highest-priority queued job, opens a
//! job-scoped `dgr-obs` status scope (so `/status` reports every live
//! job independently), and makes the call a one-shot `dgr route` makes:
//! [`dgr_post::pipeline::run`]. Per-job state is fully isolated — each
//! run gets its own design, its own in-memory telemetry sink, and its
//! own cooperative cancel flag — so concurrent jobs produce
//! byte-identical artifacts to one-shot CLI runs of the same config.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use dgr_core::{DgrConfig, RouteHooks};
use dgr_grid::Design;
use dgr_io::{catalog_case, parse_design, IspdLikeGenerator};
use dgr_obs::TelemetrySink;
use dgr_post::pipeline::{self, PipelineError};

use crate::queue::{CancelError, CancelOutcome, Job, JobId, JobResult, JobTable, SubmitError};
use crate::spec::{DesignSource, JobSpec};

/// Tuning knobs of a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads draining the queue (≥ 1).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get HTTP 429.
    pub queue_capacity: usize,
    /// Request-body cap for `POST /jobs` (HTTP 413 beyond it).
    pub max_body_bytes: usize,
    /// Terminal jobs retained for inspection before eviction.
    pub retain_jobs: usize,
    /// Append one persistent-ledger record per finished job (off by
    /// default so embedded/test daemons do not write `~/.dgr`; the
    /// `dgr serve-jobs` CLI turns it on unless `--no-ledger`).
    pub ledger: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            queue_capacity: 16,
            max_body_bytes: dgr_obs::DEFAULT_MAX_BODY_BYTES,
            retain_jobs: 64,
            ledger: false,
        }
    }
}

struct Inner {
    cfg: DaemonConfig,
    table: Mutex<JobTable>,
    work: Condvar,
    shutdown: AtomicBool,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, JobTable> {
        // A panicking worker must not brick the whole daemon; the table
        // is transition-consistent at every await point.
        self.table.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The scheduler: owns the job table and the worker threads.
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobServer {
    /// Boots `cfg.workers` worker threads over an empty job table.
    ///
    /// Also flips the global `dgr-obs` recording switch on: the daemon
    /// is an observability surface by nature — job-scoped `/status`
    /// rows, `/metrics`, and per-job ledger records all depend on it.
    ///
    /// # Errors
    ///
    /// The OS's refusal to spawn a worker; the workers already spawned
    /// are shut down first.
    #[allow(clippy::disallowed_methods)] // dgrd's workers are made here
    pub fn start(cfg: DaemonConfig) -> std::io::Result<JobServer> {
        dgr_obs::set_enabled(true);
        let mut server = JobServer {
            inner: Arc::new(Inner {
                table: Mutex::new(JobTable::new(cfg.queue_capacity, cfg.retain_jobs)),
                work: Condvar::new(),
                shutdown: AtomicBool::new(false),
                cfg,
            }),
            workers: Mutex::new(Vec::new()),
        };
        publish_queue_gauges(&server.inner.lock());
        for i in 0..server.inner.cfg.workers.max(1) {
            let inner = Arc::clone(&server.inner);
            // on failure `server` drops here, which stops and joins the
            // workers spawned so far
            let handle = std::thread::Builder::new()
                .name(format!("dgrd-worker-{i}"))
                .spawn(move || worker_loop(&inner))?;
            let workers = server.workers.get_mut();
            workers.expect("the server is not shared yet").push(handle);
        }
        Ok(server)
    }

    /// The daemon configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.inner.cfg
    }

    /// Admits a job and wakes a worker; `Err` is queue backpressure.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let id = {
            let mut table = self.inner.lock();
            let id = table.submit(spec)?;
            publish_queue_gauges(&table);
            id
        };
        self.inner.work.notify_one();
        Ok(id)
    }

    /// Requests cancellation (see [`JobTable::cancel`] for semantics).
    pub fn cancel(&self, id: JobId) -> Result<CancelOutcome, CancelError> {
        let mut table = self.inner.lock();
        let out = table.cancel(id)?;
        publish_queue_gauges(&table);
        Ok(out)
    }

    /// Runs `f` against the job record under the table lock; `None` for
    /// unknown (or already evicted) ids. Keep `f` cheap.
    pub fn with_job<R>(&self, id: JobId, f: impl FnOnce(&Job) -> R) -> Option<R> {
        self.inner.lock().get(id).map(f)
    }

    /// Runs `f` against the whole table under the lock (listings,
    /// queue-depth probes, test assertions).
    pub fn with_table<R>(&self, f: impl FnOnce(&JobTable) -> R) -> R {
        f(&self.inner.lock())
    }

    /// Blocks until the job reaches a terminal state or the timeout
    /// elapses; returns whether it finished. Test/CLI convenience.
    pub fn wait_terminal(&self, id: JobId, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.with_job(id, |j| j.state.is_terminal()) {
                Some(true) | None => return true,
                Some(false) if Instant::now() >= deadline => return false,
                Some(false) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
    }

    /// Stops accepting work, raises every running job's cancel flag, and
    /// joins the workers. Queued jobs are left queued (they report as
    /// such; the daemon is shutting down).
    pub fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let table = self.inner.lock();
            for job in table.jobs() {
                if job.state == crate::queue::JobState::Running {
                    job.cancel.store(true, Ordering::Relaxed);
                }
            }
        }
        self.inner.work.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // claim the next job, or park on the condvar
        let (id, spec, cancel) = {
            let mut table = inner.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = table.claim() {
                    let job = table.get(id).expect("claimed job exists");
                    publish_queue_gauges(&table);
                    break (id, job.spec.clone(), Arc::clone(&job.cancel));
                }
                table = inner.work.wait(table).unwrap_or_else(|p| p.into_inner());
            }
        };

        // Arm the scope's SLO watchdog before the run so the deadline
        // clock covers design materialization too; a breach raises the
        // same cooperative-cancel flag a client cancel would.
        dgr_obs::watchdog_arm(
            id,
            Arc::clone(&cancel),
            spec.deadline_ms,
            spec.max_stall_iters,
        );

        // run it under its own obs scope, keyed by the job id; a panic in
        // the pipeline (on this thread, or in a training helper's task,
        // which resumes it here) fails the job, not the worker
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = dgr_obs::status_scope(id);
            run_job(&spec, &cancel, inner.cfg.ledger)
        }))
        .unwrap_or_else(|payload| {
            let why = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "no message".into());
            RunOutput {
                result: Err(format!("worker panicked: {why}")),
                telemetry: None,
                cancelled: false,
            }
        });

        // A cooperative stop triggered by the watchdog (not a client
        // cancel) is a structured failure, not a cancellation: the job
        // broke its SLO and the reason says which rule and by how much.
        let watchdog_reason = if run.cancelled {
            dgr_obs::watchdog_breach(id)
        } else {
            None
        };

        let mut table = inner.lock();
        match watchdog_reason {
            Some(reason) => table.finish(id, Err(reason), run.telemetry, false),
            None => table.finish(id, run.result, run.telemetry, run.cancelled),
        }
        let evicted = table.evict();
        publish_queue_gauges(&table);
        drop(table);
        for old in evicted {
            dgr_obs::scope_remove(old);
        }
        inner.work.notify_all();
    }
}

/// Mirrors the table's lifecycle counts onto `/metrics` gauges
/// (`dgrd_jobs_queued`, `dgrd_jobs_running`, … and `dgrd_queue_capacity`).
/// Called under the table lock at every state transition.
fn publish_queue_gauges(table: &JobTable) {
    if !dgr_obs::enabled() {
        return;
    }
    let [queued, running, done, failed, cancelled] = table.state_counts();
    dgr_obs::gauge("dgrd.jobs.queued").set(queued as f64);
    dgr_obs::gauge("dgrd.jobs.running").set(running as f64);
    dgr_obs::gauge("dgrd.jobs.done").set(done as f64);
    dgr_obs::gauge("dgrd.jobs.failed").set(failed as f64);
    dgr_obs::gauge("dgrd.jobs.cancelled").set(cancelled as f64);
    dgr_obs::gauge("dgrd.queue.capacity").set(table.capacity() as f64);
}

struct RunOutput {
    result: Result<JobResult, String>,
    telemetry: Option<String>,
    cancelled: bool,
}

/// Executes one job: the one-shot `dgr route` pipeline call.
fn run_job(spec: &JobSpec, cancel: &Arc<AtomicBool>, to_ledger: bool) -> RunOutput {
    let mut cfg = DgrConfig::default();
    if let Some(it) = spec.iterations {
        cfg.iterations = it;
    }
    if let Some(s) = spec.seed {
        cfg.seed = s;
    }
    dgr_obs::status_begin(&spec.label, cfg.iterations as u64, 1);

    let design = match load_design(&spec.design) {
        Ok(d) => d,
        Err(e) => {
            return RunOutput {
                result: Err(e),
                telemetry: None,
                cancelled: false,
            }
        }
    };

    let mut hooks = RouteHooks {
        telemetry: Some(TelemetrySink::in_memory()),
        cancel: Some(Arc::clone(cancel)),
        ..RouteHooks::default()
    };
    let run = pipeline::run(&design, &cfg, &mut hooks, spec.want_guide);
    let telemetry = hooks
        .telemetry
        .as_ref()
        .and_then(|s| s.memory_contents())
        .map(str::to_string);
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            return RunOutput {
                result: Err(e.to_string()),
                telemetry,
                cancelled: matches!(e, PipelineError::Cancelled),
            }
        }
    };

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut phases = std::collections::BTreeMap::new();
    if let Some(report) = &out.solution.train_report {
        phases.insert("train".into(), ms(report.duration));
        // wall time on this thread, waits for the helper's lane included
        phases.insert("forward".into(), ms(report.forward_time));
        phases.insert("backward".into(), ms(report.backward_time));
    }
    phases.insert("refine".into(), ms(out.post.refine_time));
    phases.insert("assign".into(), ms(out.post.assign_time));
    if to_ledger {
        // best effort, like the CLI's
        let _ = dgr_obs::ledger::append(&pipeline::ledger_record(
            "dgrd",
            &spec.label,
            &design,
            &cfg,
            &out,
            phases.clone(),
        ));
    }

    let guide = out.post.guide.take();
    let result = JobResult {
        final_loss: out.final_loss,
        metrics: out.solution.metrics,
        vias: out.vias(),
        nets: design.num_nets() as u64,
        guide_boxes: guide.as_ref().map_or(0, |g| g.num_boxes() as u64),
        guide: guide.map(|g| g.to_text()),
        refine: out.post.refine,
        phases,
        wall_ms: ms(out.wall) as u64,
    };
    RunOutput {
        result: Ok(result),
        telemetry,
        cancelled: false,
    }
}

/// Materializes the job's design (parse inline text, or generate a
/// catalog case with the `dgr generate [--fast]` rules).
fn load_design(src: &DesignSource) -> Result<Design, String> {
    match src {
        DesignSource::Text(t) => parse_design(t).map_err(|e| format!("design_text: {e}")),
        DesignSource::Catalog { name, fast } => {
            let case =
                catalog_case(name).ok_or_else(|| format!("unknown catalog case `{name}`"))?;
            let config = if *fast {
                case.config.fast()
            } else {
                case.config
            };
            IspdLikeGenerator::new(config)
                .generate()
                .map_err(|e| format!("catalog `{name}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::JobState;
    use std::time::Duration;

    fn tiny_design_text() -> String {
        let case = catalog_case("ispd18_test1").expect("catalog has ispd18_test1");
        let mut config = case.config.clone();
        config.num_nets = 12;
        config.width = 12;
        config.height = 12;
        config.clusters = 3;
        let d = IspdLikeGenerator::new(config).generate().unwrap();
        dgr_io::write_design(&d)
    }

    fn quick_spec(iters: usize) -> JobSpec {
        JobSpec {
            label: "unit".into(),
            tenant: "test".into(),
            priority: 0,
            iterations: Some(iters),
            seed: Some(1),
            design: DesignSource::Text(tiny_design_text()),
            want_guide: true,
            deadline_ms: None,
            max_stall_iters: None,
        }
    }

    #[test]
    fn runs_a_job_to_done_with_artifacts() {
        let server = JobServer::start(DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        })
        .unwrap();
        let id = server.submit(quick_spec(4)).unwrap();
        assert!(server.wait_terminal(id, Duration::from_secs(60)));
        server
            .with_job(id, |j| {
                assert_eq!(j.state, JobState::Done, "error: {:?}", j.error);
                let r = j.result.as_ref().unwrap();
                assert!(r.nets > 0);
                assert!(r.guide.as_deref().is_some_and(|g| !g.is_empty()));
                assert!(r.phases.contains_key("train"));
                assert!(j
                    .telemetry
                    .as_deref()
                    .is_some_and(|t| t.contains("\"iter\"")));
                assert!(j.run_seq.is_some());
            })
            .unwrap();
        server.stop();
    }

    #[test]
    fn watchdog_breach_fails_the_job_with_a_structured_reason() {
        let server = JobServer::start(DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut spec = quick_spec(600);
        spec.deadline_ms = Some(1);
        let id = server.submit(spec).unwrap();
        assert!(server.wait_terminal(id, Duration::from_secs(60)));
        server
            .with_job(id, |j| {
                assert_eq!(j.state, JobState::Failed, "error: {:?}", j.error);
                let err = j.error.as_deref().unwrap();
                assert!(err.starts_with("watchdog: "), "error was {err:?}");
                assert!(err.contains("deadline_ms=1"), "error was {err:?}");
                // the watchdog, not a client, raised the cancel flag
                assert!(!j.cancel_requested);
            })
            .unwrap();
        // the breach left the queue healthy: a follow-up job still runs
        let next = server.submit(quick_spec(2)).unwrap();
        assert!(server.wait_terminal(next, Duration::from_secs(60)));
        server
            .with_job(next, |j| assert_eq!(j.state, JobState::Done))
            .unwrap();
        server.stop();
    }

    #[test]
    fn bad_design_text_fails_cleanly() {
        let server = JobServer::start(DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut spec = quick_spec(2);
        spec.design = DesignSource::Text("this is not a design".into());
        let id = server.submit(spec).unwrap();
        assert!(server.wait_terminal(id, Duration::from_secs(30)));
        server
            .with_job(id, |j| {
                assert_eq!(j.state, JobState::Failed);
                assert!(j.error.as_deref().unwrap().contains("design_text"));
            })
            .unwrap();
        server.stop();
    }
}
