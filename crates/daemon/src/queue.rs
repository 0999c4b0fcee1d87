//! The daemon's job table: a pure, single-threaded state machine.
//!
//! Everything concurrency-sensitive about `dgrd` — admission control,
//! priority/FIFO ordering, lifecycle transitions, cancellation rules,
//! terminal-job retention — lives here behind plain method calls with no
//! locks, threads, or clocks of its own. [`crate::server::JobServer`]
//! wraps one [`JobTable`] in a mutex; tests (including the proptest
//! interleaving suite) drive the table directly and check
//! [`JobTable::check_invariants`] after every step.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::spec::JobSpec;

/// Daemon-wide job identifier.
///
/// Allocated from a process-global counter (not per-table) so job ids —
/// which double as `dgr-obs` status-scope ids — never collide even when
/// several daemons run inside one test process.
pub type JobId = u64;

static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

fn next_job_id() -> JobId {
    NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed)
}

/// Lifecycle state of a job.
///
/// ```text
/// queued ──claim──▶ running ──finish──▶ done | failed | cancelled
///    │                                            ▲
///    └────────────────cancel──────────────────────┘
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the queue.
    Queued,
    /// Claimed by a worker; the route pipeline is executing.
    Running,
    /// Finished successfully; [`Job::result`] is populated.
    Done,
    /// Finished with an error; [`Job::error`] is populated.
    Failed,
    /// Cancelled before (from the queue) or during (cooperatively) a run.
    Cancelled,
}

impl JobState {
    /// Lower-case wire name used in JSON payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// What a successfully finished job produced — the numbers the one-shot
/// `dgr route` prints, in the structs the pipeline measured them in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobResult {
    /// Final training loss.
    pub final_loss: f64,
    /// Wirelength, turning points and overflow of the refined 2D solution.
    pub metrics: dgr_core::SolutionMetrics,
    /// 3D vias when layer assignment ran, otherwise the 2D turn count.
    pub vias: u64,
    /// Nets routed.
    pub nets: u64,
    /// Route-guide text, when the spec asked for one and the design has
    /// enough layers for assignment.
    pub guide: Option<String>,
    /// Boxes in the guide (0 when no guide was produced).
    pub guide_boxes: u64,
    /// What refinement did: maze searches, full-grid escalations run and
    /// avoided, states popped.
    pub refine: dgr_post::RefineReport,
    /// Wall-clock per phase, milliseconds (`train`, `forward`,
    /// `backward`, `refine`, `assign`).
    pub phases: BTreeMap<String, f64>,
    /// Wall-clock of the whole pipeline, milliseconds.
    pub wall_ms: u64,
}

/// One job: spec, lifecycle, timestamps, and artifacts.
#[derive(Debug)]
pub struct Job {
    /// Daemon-wide id, also the id of the `dgr-obs` scope that holds the
    /// job's status and telemetry rows until the job is evicted.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Unix milliseconds at submission.
    pub submitted_unix_ms: u64,
    /// Unix milliseconds when a worker claimed the job.
    pub started_unix_ms: Option<u64>,
    /// Unix milliseconds when the job reached a terminal state.
    pub finished_unix_ms: Option<u64>,
    /// Execution order among claimed jobs (0-based): the FIFO witness.
    pub run_seq: Option<u64>,
    /// Cooperative cancellation flag shared with the training loop.
    pub cancel: Arc<AtomicBool>,
    /// Whether a cancel request has been recorded (queued-job cancels
    /// transition immediately; running-job cancels set this and wait for
    /// the training loop to notice).
    pub cancel_requested: bool,
    /// Result metrics, present iff `state == Done`.
    pub result: Option<JobResult>,
    /// Error message, present iff `state == Failed`.
    pub error: Option<String>,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; the client should back off.
    QueueFull {
        /// Configured queue bound.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
        }
    }
}

/// What a successful cancel request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: removed and terminally cancelled.
    CancelledQueued,
    /// The job was running: the cooperative flag is now set and the
    /// training loop will stop between iterations.
    CancelRequested,
}

/// Why a cancel request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelError {
    /// No such job id (never existed, or already evicted).
    UnknownJob,
    /// A cancel was already requested for this running job.
    AlreadyRequested,
    /// The job is already terminal.
    NotCancellable(JobState),
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelError::UnknownJob => write!(f, "unknown job"),
            CancelError::AlreadyRequested => write!(f, "cancel already requested"),
            CancelError::NotCancellable(s) => write!(f, "job already {}", s.as_str()),
        }
    }
}

/// The job table: bounded priority/FIFO queue plus the full lifecycle
/// record of every live and recently finished job.
#[derive(Debug)]
pub struct JobTable {
    capacity: usize,
    retain: usize,
    /// Queued ids, highest priority first, FIFO within a priority.
    queue: VecDeque<JobId>,
    jobs: BTreeMap<JobId, Job>,
    next_run_seq: u64,
    /// Terminal ids in completion order (oldest first) — the eviction
    /// order once more than `retain` terminal jobs accumulate.
    finished_order: VecDeque<JobId>,
}

impl JobTable {
    /// Creates a table admitting at most `capacity` queued jobs and
    /// retaining at most `retain` terminal jobs.
    pub fn new(capacity: usize, retain: usize) -> Self {
        JobTable {
            capacity: capacity.max(1),
            retain: retain.max(1),
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            next_run_seq: 0,
            finished_order: VecDeque::new(),
        }
    }

    /// Queued-job count.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Configured queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// All jobs currently in the table, ascending id.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Looks up one job.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Admits a job, or rejects it when the queue is at capacity.
    ///
    /// Queue position: after every queued job of `>=` priority, before
    /// the first of lower priority — i.e. priority classes are strict,
    /// FIFO within a class.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        if self.queue.len() >= self.capacity {
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = next_job_id();
        let priority = spec.priority;
        let pos = self
            .queue
            .iter()
            .position(|qid| self.jobs[qid].spec.priority < priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, id);
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                state: JobState::Queued,
                submitted_unix_ms: now_unix_ms(),
                started_unix_ms: None,
                finished_unix_ms: None,
                run_seq: None,
                cancel: Arc::new(AtomicBool::new(false)),
                cancel_requested: false,
                result: None,
                error: None,
            },
        );
        Ok(id)
    }

    /// Pops the head of the queue and marks it running; `None` when the
    /// queue is empty.
    pub fn claim(&mut self) -> Option<JobId> {
        let id = self.queue.pop_front()?;
        let job = self.jobs.get_mut(&id).expect("queued id has a job record");
        job.state = JobState::Running;
        job.started_unix_ms = Some(now_unix_ms());
        job.run_seq = Some(self.next_run_seq);
        self.next_run_seq += 1;
        Some(id)
    }

    /// Records the outcome of a claimed job's run. `cancelled` wins over
    /// `result` (a cooperatively stopped run reports `Cancelled` even
    /// though it produced an error value internally).
    pub fn finish(&mut self, id: JobId, result: Result<JobResult, String>, cancelled: bool) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        debug_assert_eq!(job.state, JobState::Running, "finish on a non-running job");
        if cancelled {
            // the partial run's result/error is meaningless — drop it
            job.state = JobState::Cancelled;
        } else {
            match result {
                Ok(r) => {
                    job.state = JobState::Done;
                    job.result = Some(r);
                }
                Err(e) => {
                    job.state = JobState::Failed;
                    job.error = Some(e);
                }
            }
        }
        job.finished_unix_ms = Some(now_unix_ms());
        self.finished_order.push_back(id);
    }

    /// Requests cancellation.
    ///
    /// * Queued → removed from the queue, terminally [`JobState::Cancelled`].
    /// * Running → the shared flag is raised; the run stops between
    ///   iterations. A second request is [`CancelError::AlreadyRequested`].
    /// * Terminal → [`CancelError::NotCancellable`].
    pub fn cancel(&mut self, id: JobId) -> Result<CancelOutcome, CancelError> {
        let Some(job) = self.jobs.get_mut(&id) else {
            return Err(CancelError::UnknownJob);
        };
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.cancel_requested = true;
                job.cancel.store(true, Ordering::Relaxed);
                job.finished_unix_ms = Some(now_unix_ms());
                self.queue.retain(|qid| *qid != id);
                self.finished_order.push_back(id);
                Ok(CancelOutcome::CancelledQueued)
            }
            JobState::Running => {
                if job.cancel_requested {
                    return Err(CancelError::AlreadyRequested);
                }
                job.cancel_requested = true;
                job.cancel.store(true, Ordering::Relaxed);
                Ok(CancelOutcome::CancelRequested)
            }
            s => Err(CancelError::NotCancellable(s)),
        }
    }

    /// Drops the oldest terminal jobs beyond the retention bound and
    /// returns their ids (the server detaches their status scopes).
    pub fn evict(&mut self) -> Vec<JobId> {
        let mut evicted = Vec::new();
        while self.finished_order.len() > self.retain {
            let id = self.finished_order.pop_front().expect("len checked");
            self.jobs.remove(&id);
            evicted.push(id);
        }
        evicted
    }

    /// Jobs per lifecycle state, in `(queued, running, done, failed,
    /// cancelled)` order — the source for the `dgrd_jobs_*` gauges.
    pub fn state_counts(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for job in self.jobs.values() {
            let slot = match job.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
            };
            counts[slot] += 1;
        }
        counts
    }

    /// Structural invariants; the proptest suite calls this after every
    /// operation. Panics with a description on violation.
    pub fn check_invariants(&self) {
        assert!(
            self.queue.len() <= self.capacity,
            "queue over capacity: {} > {}",
            self.queue.len(),
            self.capacity
        );
        for pair in self.queue.iter().zip(self.queue.iter().skip(1)) {
            let (a, b) = (&self.jobs[pair.0], &self.jobs[pair.1]);
            assert!(
                a.spec.priority > b.spec.priority
                    || (a.spec.priority == b.spec.priority && a.id < b.id),
                "queue order violated: job {} (prio {}) before job {} (prio {})",
                a.id,
                a.spec.priority,
                b.id,
                b.spec.priority
            );
        }
        let mut queued_seen = std::collections::BTreeSet::new();
        for qid in &self.queue {
            let job = self.jobs.get(qid).expect("queued id has a job record");
            assert_eq!(job.state, JobState::Queued, "queued id not in Queued state");
            assert!(queued_seen.insert(*qid), "duplicate id {qid} in queue");
        }
        let mut run_seqs = std::collections::BTreeSet::new();
        for job in self.jobs.values() {
            match job.state {
                JobState::Queued => {
                    assert!(
                        queued_seen.contains(&job.id),
                        "Queued job {} missing from queue",
                        job.id
                    );
                    assert!(job.run_seq.is_none() && job.started_unix_ms.is_none());
                }
                JobState::Running => {
                    assert!(job.run_seq.is_some() && job.started_unix_ms.is_some());
                    assert!(job.finished_unix_ms.is_none());
                }
                s => {
                    assert!(s.is_terminal());
                    assert!(job.finished_unix_ms.is_some());
                    assert!(
                        self.finished_order.contains(&job.id),
                        "terminal job {} missing from finished_order",
                        job.id
                    );
                }
            }
            if let Some(seq) = job.run_seq {
                assert!(run_seqs.insert(seq), "duplicate run_seq {seq}");
            }
            assert_eq!(job.state == JobState::Done, job.result.is_some());
            assert_eq!(job.state == JobState::Failed, job.error.is_some());
        }
        // NOTE: `finished_order.len() <= retain` is deliberately NOT
        // asserted here — eviction is an explicit step, so terminal jobs
        // may transiently exceed the bound between a finish/cancel and
        // the next `evict` call.
        for fid in &self.finished_order {
            assert!(
                self.jobs.get(fid).is_some_and(|j| j.state.is_terminal()),
                "finished_order id {fid} not a retained terminal job"
            );
        }
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DesignSource;

    fn spec(priority: i64) -> JobSpec {
        JobSpec {
            label: "t".into(),
            tenant: "anon".into(),
            priority,
            iterations: Some(1),
            seed: None,
            design: DesignSource::Text(String::new()),
            want_guide: false,
            deadline_ms: None,
            max_stall_iters: None,
        }
    }

    #[test]
    fn state_counts_track_transitions() {
        let mut t = JobTable::new(8, 8);
        let a = t.submit(spec(0)).unwrap();
        let b = t.submit(spec(0)).unwrap();
        assert_eq!(t.state_counts(), [2, 0, 0, 0, 0]);
        t.claim().unwrap();
        assert_eq!(t.state_counts(), [1, 1, 0, 0, 0]);
        t.finish(a, Ok(JobResult::default()), false);
        t.cancel(b).unwrap();
        assert_eq!(t.state_counts(), [0, 0, 1, 0, 1]);
    }

    #[test]
    fn fifo_within_priority_class() {
        let mut t = JobTable::new(8, 8);
        let a = t.submit(spec(0)).unwrap();
        let b = t.submit(spec(0)).unwrap();
        let c = t.submit(spec(0)).unwrap();
        t.check_invariants();
        assert_eq!(t.claim(), Some(a));
        assert_eq!(t.claim(), Some(b));
        assert_eq!(t.claim(), Some(c));
        assert_eq!(t.claim(), None);
        assert_eq!(t.get(a).unwrap().run_seq, Some(0));
        assert_eq!(t.get(c).unwrap().run_seq, Some(2));
    }

    #[test]
    fn higher_priority_jumps_the_queue() {
        let mut t = JobTable::new(8, 8);
        let low = t.submit(spec(0)).unwrap();
        let high = t.submit(spec(5)).unwrap();
        let mid = t.submit(spec(2)).unwrap();
        t.check_invariants();
        assert_eq!(t.claim(), Some(high));
        assert_eq!(t.claim(), Some(mid));
        assert_eq!(t.claim(), Some(low));
    }

    #[test]
    fn backpressure_at_capacity() {
        let mut t = JobTable::new(2, 8);
        t.submit(spec(0)).unwrap();
        t.submit(spec(0)).unwrap();
        assert_eq!(
            t.submit(spec(0)),
            Err(SubmitError::QueueFull { capacity: 2 })
        );
        // a claim frees a slot
        t.claim().unwrap();
        t.submit(spec(0)).unwrap();
        t.check_invariants();
    }

    #[test]
    fn cancel_semantics() {
        let mut t = JobTable::new(8, 8);
        let q = t.submit(spec(0)).unwrap();
        assert_eq!(t.cancel(q), Ok(CancelOutcome::CancelledQueued));
        assert_eq!(t.get(q).unwrap().state, JobState::Cancelled);
        assert_eq!(
            t.cancel(q),
            Err(CancelError::NotCancellable(JobState::Cancelled))
        );

        let r = t.submit(spec(0)).unwrap();
        assert_eq!(t.claim(), Some(r));
        assert_eq!(t.cancel(r), Ok(CancelOutcome::CancelRequested));
        assert!(t.get(r).unwrap().cancel.load(Ordering::Relaxed));
        assert_eq!(t.cancel(r), Err(CancelError::AlreadyRequested));
        t.finish(r, Err("cancelled".into()), true);
        assert_eq!(t.get(r).unwrap().state, JobState::Cancelled);
        assert_eq!(t.cancel(999_999_999), Err(CancelError::UnknownJob));
        t.check_invariants();
    }

    #[test]
    fn eviction_drops_oldest_terminal_jobs() {
        let mut t = JobTable::new(8, 2);
        let mut ids = Vec::new();
        for _ in 0..4 {
            let id = t.submit(spec(0)).unwrap();
            t.claim().unwrap();
            t.finish(id, Ok(JobResult::default()), false);
            ids.push(id);
        }
        let evicted = t.evict();
        assert_eq!(evicted, ids[..2].to_vec());
        assert!(t.get(ids[0]).is_none());
        assert!(t.get(ids[3]).is_some());
        t.check_invariants();
    }
}
