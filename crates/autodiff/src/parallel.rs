//! The two ways work leaves the calling thread: the persistent worker
//! pool behind the route pipeline's index-pure fan-outs (per-net candidate
//! generation, the forest build, the extraction rasters), and the
//! [`Helper`] a training run engages as its second lane.
//!
//! Threads are spawned once (on first parallel dispatch), then park on a
//! condvar between jobs. A job is an index range of chunks; workers race
//! to claim chunk indices, so a dispatch costs two mutex/condvar
//! handshakes instead of a round of `thread::spawn`/`join`.
//!
//! # Determinism contract
//!
//! Work is partitioned into chunks **by index**, not by worker, and every
//! result lands in a slot owned by its index: which OS thread executes a
//! chunk, and how many threads there are, never affects the output. No
//! primitive here reduces across chunks — [`par_map_mut`] and
//! [`par_indexed`] are bit-reproducible at *any* thread count.
//!
//! # The training run's helper
//!
//! The pool parks on a condvar between dispatches, which costs more than
//! half a training iteration's phase saves (measured: the kernel's two
//! lanes through [`par_indexed`] ran *slower* than one thread). A training
//! run therefore engages one [`Helper`] thread of its own for as long as
//! it runs. The calling thread offers it tasks — [`join`]'s second closure,
//! an [`ahead`] closure — and never depends on it:
//!
//! * **claim or inline** — whoever takes a task's closure out of it
//!   runs it. A task the helper has not started when the calling
//!   thread needs its result is run inline, in place, so a helper that is
//!   descheduled, busy or absent ([`num_threads`] ` == 1`) costs nothing;
//! * **spin, then park** — the helper waits for its next task by spinning
//!   for 1 ms (longer than any gap inside an iteration) before it parks,
//!   and the calling thread waits for a *started* task by spinning for
//!   50 µs before it parks: no futex round trip inside an iteration unless
//!   the host is oversubscribed. A spin step ends in a `sched_yield`, so
//!   two threads the scheduler has put on one CPU do not take turns
//!   burning it;
//! * **one script** — the helper runs a lane task, then the pending
//!   ahead task if there is one, then waits for the next lane task.
//!
//! Which thread runs a task never shows in a result: a task writes only
//! buffers that the closures of one [`join`] split between them.
//!
//! # Observability
//!
//! When `dgr_obs::enabled()` is on, the pool records `pool.jobs_dispatched`,
//! `pool.chunks_claimed` (counted at the claim site, so worker and
//! dispatcher claims both show), `pool.busy_ns`, `pool.seq_fallbacks` and
//! a `pool.dispatch_ns` histogram. When off, every recording site reduces
//! to one relaxed atomic load and a predictable branch, keeping the
//! uninstrumented dispatch path bench-neutral.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Cached handles to the pool's observability metrics. Registration takes
/// the `dgr-obs` registry mutex once; after that every recording is a
/// relaxed atomic op gated on `dgr_obs::enabled()` (one load + a
/// predictable branch when observability is off, so the uninstrumented
/// dispatch path stays bench-neutral).
struct PoolMetrics {
    /// Jobs fanned out through the pool (one per `run_chunks` dispatch).
    jobs_dispatched: &'static dgr_obs::Counter,
    /// Chunks claimed by workers and the dispatcher, counted at the claim
    /// site.
    chunks_claimed: &'static dgr_obs::Counter,
    /// Summed wall-clock nanoseconds between job publication and the last
    /// chunk completing (the pool's busy time).
    busy_ns: &'static dgr_obs::Counter,
    /// Calls that took the sequential fallback (below the caller's size
    /// threshold or single-threaded).
    seq_fallbacks: &'static dgr_obs::Counter,
    /// Distribution of per-dispatch wall times, in nanoseconds.
    dispatch_ns: &'static dgr_obs::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        jobs_dispatched: dgr_obs::counter("pool.jobs_dispatched"),
        chunks_claimed: dgr_obs::counter("pool.chunks_claimed"),
        busy_ns: dgr_obs::counter("pool.busy_ns"),
        seq_fallbacks: dgr_obs::counter("pool.seq_fallbacks"),
        dispatch_ns: dgr_obs::histogram("pool.dispatch_ns"),
    })
}

/// Minimum number of elements before [`par_map_mut`] fans out to worker
/// threads.
pub const PAR_THRESHOLD: usize = 1 << 15;

/// Minimum number of candidate paths before a training run engages a
/// [`Helper`]: below it an iteration is too short for the handoffs to pay.
/// Measured on random designs, serial → helped ms per iteration: 0.038 →
/// 0.052 / 0.042 → 0.035 / 0.052 → 0.051 at 0.7 k paths (no gain), 0.099 →
/// 0.087 / 0.095 → 0.075 / 0.091 → 0.093 at 1.4 k (inside the spread),
/// 0.210 → 0.149 / 0.164 → 0.149 / 0.148 → 0.112 at 2.6 k, 0.402 → 0.279 /
/// 0.342 → 0.301 / 0.503 → 0.291 at 5.6 k.
pub const LANE_THRESHOLD: usize = 1 << 12;

/// How long the helper spins for its next task before it parks — longer
/// than any gap the calling thread leaves inside a training iteration.
const HELPER_SPIN: Duration = Duration::from_micros(1000);

/// How long the calling thread spins for a task the helper has started
/// before it parks.
const JOIN_SPIN: Duration = Duration::from_micros(50);

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The machine's parallelism, probed once. `available_parallelism()` is a
/// syscall (`sched_getaffinity`) costing microseconds on some kernels —
/// uncached it dominated small sequential-fallback kernels, which call
/// [`num_threads`] on every dispatch.
fn host_parallelism() -> usize {
    static HOST: AtomicUsize = AtomicUsize::new(0);
    match HOST.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            HOST.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Number of chunks a fan-out partitions its work into.
///
/// Defaults to the machine's available parallelism; override (e.g. in
/// determinism tests) with [`set_num_threads`]. The override controls the
/// *partitioning* even when fewer physical workers execute the chunks.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    host_parallelism()
}

/// Overrides the worker-thread count (0 restores the default).
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

// --- the persistent pool ---------------------------------------------------

/// Lifetime-erased handle to the in-flight job closure. The `'static` is
/// a fiction established by `transmute` in [`run_chunks`]; it is sound
/// because the dispatcher keeps the closure alive until every chunk has
/// completed, so workers never dereference a dangling job.
#[derive(Clone, Copy)]
struct JobPtr(&'static (dyn Fn(usize) + Sync));

struct PoolState {
    job: Option<JobPtr>,
    epoch: u64,
    next_chunk: usize,
    total_chunks: usize,
    completed: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Wakes workers when a new job (epoch) is published.
    work_cv: Condvar,
    /// Wakes the dispatcher when the last chunk of the job completes.
    done_cv: Condvar,
    /// Serializes dispatches (ops are issued one at a time, but tests may
    /// drive several graphs from different threads).
    dispatch_lock: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            epoch: 0,
            next_chunk: 0,
            total_chunks: 0,
            completed: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        dispatch_lock: Mutex::new(()),
    })
}

/// Lazily spawns the parked worker threads (once per process). The
/// dispatcher itself also executes chunks, so `available_parallelism - 1`
/// workers saturate the machine.
fn ensure_workers() {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        let workers = host_parallelism().saturating_sub(1).min(63);
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("dgr-pool-{w}"))
                .spawn(|| worker_loop(pool()))
                .expect("spawn pool worker");
        }
    });
}

fn worker_loop(pool: &'static Pool) {
    let mut seen_epoch = 0u64;
    loop {
        // Park until a job with an unseen epoch is published.
        let (job, epoch) = {
            let mut st = pool.state.lock().expect("pool poisoned");
            loop {
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        break (job, st.epoch);
                    }
                }
                st = pool.work_cv.wait(st).expect("pool poisoned");
            }
        };
        seen_epoch = epoch;
        run_job_chunks(pool, job, epoch);
    }
}

/// Claims and executes chunks of the job published at `epoch` until none
/// remain (or a newer epoch supersedes it).
fn run_job_chunks(pool: &Pool, job: JobPtr, epoch: u64) {
    loop {
        let chunk = {
            let mut st = pool.state.lock().expect("pool poisoned");
            if st.epoch != epoch || st.next_chunk >= st.total_chunks {
                return;
            }
            let c = st.next_chunk;
            st.next_chunk += 1;
            c
        };
        pool_metrics().chunks_claimed.add(1);
        // The dispatcher keeps the closure alive until every claimed
        // chunk reports completion (`completed == total_chunks`).
        (job.0)(chunk);
        let mut st = pool.state.lock().expect("pool poisoned");
        st.completed += 1;
        if st.completed == st.total_chunks {
            pool.done_cv.notify_all();
        }
    }
}

/// Executes `job(chunk)` for every chunk in `0..chunks` on the pool,
/// participating from the calling thread. Returns after all chunks
/// complete. Chunk assignment is work-stealing; result placement must
/// depend only on the chunk index (see the module docs).
pub(crate) fn run_chunks(chunks: usize, job: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    if chunks == 1 {
        job(0);
        return;
    }
    ensure_workers();
    // `then` with a closure defers the `Instant::now()` syscall to the
    // instrumented path only.
    let dispatch_start = dgr_obs::enabled().then(Instant::now);
    let pool = pool();
    let _guard = pool.dispatch_lock.lock().expect("pool poisoned");
    // SAFETY: erases the job's lifetime. Sound because this function does
    // not return until `completed == total_chunks` and then clears
    // `st.job`, so no worker touches the closure after it dies.
    let job_ptr = JobPtr(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
    });
    let epoch = {
        let mut st = pool.state.lock().expect("pool poisoned");
        st.epoch = st.epoch.wrapping_add(1);
        st.job = Some(job_ptr);
        st.next_chunk = 0;
        st.total_chunks = chunks;
        st.completed = 0;
        pool.work_cv.notify_all();
        st.epoch
    };
    if dispatch_start.is_some() {
        dgr_obs::status_queue_depth(chunks as u64);
    }
    run_job_chunks(pool, job_ptr, epoch);
    let mut st = pool.state.lock().expect("pool poisoned");
    while st.completed < st.total_chunks {
        st = pool.done_cv.wait(st).expect("pool poisoned");
    }
    st.job = None;
    drop(st);
    if let Some(start) = dispatch_start {
        let ns = start.elapsed().as_nanos() as u64;
        let m = pool_metrics();
        m.jobs_dispatched.add(1);
        m.busy_ns.add(ns);
        m.dispatch_ns.record(ns);
        dgr_obs::status_queue_depth(0);
    }
}

/// A raw pointer that may cross thread boundaries. Used to hand each
/// chunk a disjoint mutable window of a shared buffer.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// Manual impls: the derive would require `T: Copy`, but copying the
// *pointer* never copies the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: every use partitions the pointee into per-chunk disjoint ranges.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send` — chunks that share the wrapper never share an element.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Kernels must go through this method rather
    /// than the field: edition-2021 closures capture used fields
    /// individually, and a captured bare `*mut T` strips the wrapper's
    /// `Send`/`Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// Applies `f(global_index, &mut out[i])` over `out` in parallel chunks.
///
/// `f` must be pure per element — the index-to-value mapping cannot depend
/// on other output elements. Bit-reproducible across all thread counts
/// (no reduction is involved).
pub fn par_map_mut<F>(out: &mut [f32], f: F)
where
    F: Fn(usize, &mut f32) + Sync,
{
    let threads = num_threads();
    if out.len() < PAR_THRESHOLD || threads <= 1 {
        pool_metrics().seq_fallbacks.add(1);
        for (i, v) in out.iter_mut().enumerate() {
            f(i, v);
        }
        return;
    }
    let len = out.len();
    let chunk = len.div_ceil(threads);
    let chunks = len.div_ceil(chunk);
    let base = SendPtr(out.as_mut_ptr());
    run_chunks(chunks, &move |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        // SAFETY: chunks index disjoint ranges of `out`, which outlives
        // the dispatch.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        for (i, v) in slice.iter_mut().enumerate() {
            f(lo + i, v);
        }
    });
}

/// Runs `f(i)` for every `i in 0..n` on the pool and collects the results
/// **in index order** — the task fan-out primitive behind the route
/// pipeline's front end (candidate generation, forest build, extraction
/// scans).
///
/// Unlike the dense kernels, items here are heterogeneous tasks (a 2-pin
/// net next to a 9-pin Steiner problem), so the index space is split into
/// roughly four chunks per thread and claimed by work stealing. Every
/// result lands in its own output slot, so — like the pure maps — the
/// returned vector is **bit-identical for any thread count**; no
/// reduction is involved. Falls back to a sequential map below `min_par`
/// items or when one thread is configured.
pub fn par_indexed<T, F>(n: usize, min_par: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = num_threads();
    if n < min_par || threads <= 1 {
        pool_metrics().seq_fallbacks.add(1);
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads * 4).max(1);
    let chunks = n.div_ceil(chunk);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let base = SendPtr(out.as_mut_ptr());
    run_chunks(chunks, &move |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        for i in lo..hi {
            // SAFETY: chunks cover disjoint index ranges of `out`, which
            // outlives the dispatch; slot i is written exactly once.
            unsafe { *base.get().add(i) = Some(f(i)) };
        }
    });
    out.into_iter()
        .map(|v| v.expect("every chunk completed"))
        .collect()
}

// --- the training run's helper ---------------------------------------------

/// Counters of the claim-or-inline rule, registered with the first helper.
struct HelperMetrics {
    /// Offered tasks the helper ran.
    by_helper: &'static dgr_obs::Counter,
    /// Offered tasks the calling thread claimed back and ran inline.
    inline: &'static dgr_obs::Counter,
}

fn helper_metrics() -> &'static HelperMetrics {
    static METRICS: OnceLock<HelperMetrics> = OnceLock::new();
    METRICS.get_or_init(|| HelperMetrics {
        by_helper: dgr_obs::counter("train.lane_tasks_helper"),
        inline: dgr_obs::counter("train.lane_tasks_inline"),
    })
}

/// Locks a mutex whose every update is one assignment, so a panic while
/// it was held (there is none) could not have left it half-written.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

static FAULT: AtomicBool = AtomicBool::new(false);

/// Test hook: the next task a helper runs panics before its body.
#[doc(hidden)]
pub fn fail_next_helper_task() {
    FAULT.store(true, Ordering::Relaxed);
}

/// One step of a spin-wait: a few microseconds of `PAUSE`, which leaves
/// a hyperthread sibling its execution units, then a `sched_yield`, so
/// that when the scheduler has put the helper and the calling thread on
/// one CPU the one that waits hands it to the one that works.
fn spin_politely() {
    for _ in 0..32 {
        std::hint::spin_loop();
    }
    std::thread::yield_now();
}

type Body<T> = Box<dyn FnOnce() -> T + Send>;

/// One closure offered to the helper. Whichever thread takes `body` out
/// — the claim — runs it; when that is the helper, it then stores the
/// outcome and raises `done`.
struct Task<T> {
    body: Mutex<Option<Body<T>>>,
    /// What the helper's run returned, or the payload it panicked with.
    outcome: Mutex<Option<std::thread::Result<T>>>,
    /// What the calling thread spins on before it waits on `finished`.
    done: AtomicBool,
    finished: Condvar,
}

/// A [`Task`] of any result type, as the helper sees it.
trait Offered: Send + Sync {
    /// Runs the task unless it has been claimed.
    fn run_on_helper(&self);
}

impl<T: Send> Task<T> {
    fn new(body: Body<T>) -> Self {
        Task {
            body: Mutex::new(Some(body)),
            outcome: Mutex::new(None),
            done: AtomicBool::new(false),
            finished: Condvar::new(),
        }
    }

    /// The body, for the one caller that gets here first.
    fn claim(&self) -> Option<Body<T>> {
        lock(&self.body).take()
    }

    /// Blocks until the helper has stored the outcome of a task it
    /// claimed: a bounded spin on `done`, then the condvar.
    fn wait(&self) -> std::thread::Result<T> {
        let start = Instant::now();
        // Acquire pairs with the helper's Release store
        while !self.done.load(Ordering::Acquire) && start.elapsed() < JOIN_SPIN {
            spin_politely();
        }
        let mut outcome = lock(&self.outcome);
        loop {
            match outcome.take() {
                Some(result) => return result,
                None => {
                    outcome = self
                        .finished
                        .wait(outcome)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// The task's result: runs it here if the helper has not started it,
    /// else waits for the helper. A panic of the body resumes here.
    fn finish(&self) -> T {
        if let Some(body) = self.claim() {
            helper_metrics().inline.add(1);
            return body();
        }
        helper_metrics().by_helper.add(1);
        self.wait().unwrap_or_else(|payload| resume_unwind(payload))
    }
}

impl<T: Send> Offered for Task<T> {
    fn run_on_helper(&self) {
        let Some(body) = self.claim() else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if FAULT.load(Ordering::Relaxed) && FAULT.swap(false, Ordering::Relaxed) {
                panic!("injected helper-task fault");
            }
            body()
        }));
        *lock(&self.outcome) = Some(outcome);
        self.done.store(true, Ordering::Release);
        self.finished.notify_one();
    }
}

/// The two mailboxes the calling thread fills, one task each.
#[derive(Default)]
struct Offers {
    /// [`join`]'s second closure: the calling thread is about to need it.
    lane: Option<Arc<dyn Offered>>,
    /// An [`ahead`] closure, needed an iteration from now; the helper
    /// takes it up after a lane task, never instead of one.
    ahead: Option<Arc<dyn Offered>>,
}

struct Shared {
    offers: Mutex<Offers>,
    /// Bumped after every lane offer; the helper spins on it.
    posted: AtomicU32,
    /// Set by the helper around `thread::park`.
    parked: AtomicBool,
    shutdown: AtomicBool,
    /// The helper's handle, for `unpark`; set before `engage` returns.
    thread: OnceLock<Thread>,
}

impl Shared {
    fn offer_lane(&self, task: Arc<dyn Offered>) {
        lock(&self.offers).lane = Some(task);
        // SeqCst on `posted` and `parked`, here and in `next_lane`: either
        // the helper's re-check sees this offer or this load sees it parked
        self.posted.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }

    /// Waits for a lane offer newer than `seen`; `None` at shutdown.
    fn next_lane(&self, seen: u32) -> Option<u32> {
        let mut idle_since = Instant::now();
        loop {
            let posted = self.posted.load(Ordering::SeqCst);
            if posted != seen {
                return Some(posted);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if idle_since.elapsed() < HELPER_SPIN {
                spin_politely();
                continue;
            }
            self.parked.store(true, Ordering::SeqCst);
            if self.posted.load(Ordering::SeqCst) == seen && !self.shutdown.load(Ordering::SeqCst) {
                std::thread::park();
            }
            self.parked.store(false, Ordering::SeqCst);
            idle_since = Instant::now();
        }
    }

    /// The helper's script: a lane task, then the pending ahead task.
    fn run(&self) {
        let mut seen = 0;
        while let Some(posted) = self.next_lane(seen) {
            seen = posted;
            // each mailbox is emptied in a statement of its own: the lock
            // is not held while the task runs
            let lane = lock(&self.offers).lane.take();
            if let Some(task) = lane {
                task.run_on_helper();
            }
            let ahead = lock(&self.offers).ahead.take();
            if let Some(task) = ahead {
                task.run_on_helper();
            }
        }
    }
}

thread_local! {
    /// The helper engaged on this thread, which [`join`] and [`ahead`]
    /// offer their tasks to.
    static ENGAGED: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// A second lane of execution for the thread that engages it: one
/// thread, spawned by [`Helper::engage`] and joined when the guard drops,
/// that [`join`] and [`ahead`] on the engaging thread offer tasks to.
/// See the module docs for the handoff.
#[must_use = "the helper is released when the guard drops"]
pub struct Helper {
    engaged: Option<(Arc<Shared>, JoinHandle<()>)>,
    /// The helper this one replaced on the thread, restored on drop.
    previous: Option<Arc<Shared>>,
    /// Dropped on the thread it was engaged on (it restores a
    /// thread-local there).
    _not_send: PhantomData<*const ()>,
}

impl Helper {
    /// Engages a helper for the calling thread until the guard drops.
    /// With [`num_threads`] ` == 1` (one CPU, or the override) or when the
    /// thread cannot be spawned, no thread is engaged and every task
    /// runs inline. The helper records under the calling thread's
    /// `dgr_obs` scope.
    pub fn engage() -> Helper {
        if num_threads() < 2 {
            return Helper::inert();
        }
        Helper::spawn()
    }

    fn inert() -> Helper {
        Helper {
            engaged: None,
            previous: None,
            _not_send: PhantomData,
        }
    }

    /// Spawns the thread and makes it the calling thread's helper; inert
    /// if the OS refuses the thread.
    fn spawn() -> Helper {
        let mut helper = Helper::inert();
        let shared = Arc::new(Shared {
            offers: Mutex::new(Offers::default()),
            posted: AtomicU32::new(0),
            parked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            thread: OnceLock::new(),
        });
        let scope = dgr_obs::status_scope_id();
        let spawned = std::thread::Builder::new()
            .name("dgr-helper".into())
            .spawn({
                let shared = Arc::clone(&shared);
                move || {
                    let _scope = dgr_obs::status_scope(scope);
                    shared.run();
                }
            });
        if let Ok(handle) = spawned {
            let _ = shared.thread.set(handle.thread().clone());
            helper.previous = ENGAGED.with(|e| e.replace(Some(Arc::clone(&shared))));
            helper.engaged = Some((shared, handle));
        }
        helper
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        let Some((shared, handle)) = self.engaged.take() else {
            return;
        };
        ENGAGED.with(|e| *e.borrow_mut() = self.previous.take());
        shared.shutdown.store(true, Ordering::SeqCst);
        handle.thread().unpark();
        // the helper catches every task's panic: it has none of its own
        // to report, and a drop must not raise one
        let _ = handle.join();
    }
}

fn engaged() -> Option<Arc<Shared>> {
    ENGAGED.with(|e| e.borrow().clone())
}

/// Runs `a` here and `b` on the engaged [`Helper`], or here after `a` if
/// the helper has not started `b` by then (or none is engaged). Returns
/// when both have run; a panic of either resumes on the calling thread,
/// after the other has finished. With a helper engaged, `b` is recorded
/// as a `train`/`name` span on the thread that runs it.
pub fn join<A, B>(name: &'static str, a: A, b: B)
where
    A: FnOnce(),
    B: FnOnce() + Send,
{
    let Some(helper) = engaged() else {
        a();
        b();
        return;
    };
    let body: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
        let _span = dgr_obs::span("train", name);
        b()
    });
    // SAFETY: erases the lifetime of what `b` borrows. The box is either
    // taken by `claim` on this thread — in `finish`, or in `Settle::drop`
    // when `a` unwinds — and called or dropped there, or taken by the
    // helper, which calls it (consuming it) *before* it stores the
    // outcome that `finish` and `Settle::drop` block on. Either way
    // nothing of `b` is alive when this function returns or unwinds; the
    // `Task` that outlives it holds `None` and a `'static` outcome.
    let body: Body<()> = unsafe {
        std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
            body,
        )
    };
    let task = Arc::new(Task::new(body));
    helper.offer_lane(Arc::clone(&task) as Arc<dyn Offered>);
    let settle = Settle(&task);
    a();
    std::mem::forget(settle);
    task.finish();
}

/// Settles [`join`]'s task when its first closure unwinds: takes the
/// second back unrun, or waits for the helper to be done with it.
struct Settle<'t>(&'t Task<()>);

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        match self.0.claim() {
            Some(unrun) => drop(unrun),
            // a second panic, from the helper's run, is dropped: the
            // first is already on its way up
            None => drop(self.0.wait()),
        }
    }
}

/// A result wanted later, started now: see [`ahead`].
#[must_use = "the closure runs, at the latest, in `finish`"]
pub struct Ahead<T>(AheadState<T>);

enum AheadState<T> {
    /// No helper was engaged: the closure waits here for `finish`.
    Inline(Body<T>),
    Offered(Arc<Task<T>>),
}

/// Offers `f` to the engaged [`Helper`], which runs it after its next
/// [`join`] task; [`Ahead::finish`] returns the result, running `f` on
/// the spot if the helper has not started it (or none is engaged). `f`
/// owns what it works on, so an `Ahead` that is dropped instead is simply
/// never collected. With a helper engaged, `f` is recorded as a
/// `train`/`name` span on the thread that runs it.
pub fn ahead<T, F>(name: &'static str, f: F) -> Ahead<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let Some(helper) = engaged() else {
        return Ahead(AheadState::Inline(Box::new(f)));
    };
    let body: Body<T> = Box::new(move || {
        let _span = dgr_obs::span("train", name);
        f()
    });
    let task = Arc::new(Task::new(body));
    lock(&helper.offers).ahead = Some(Arc::clone(&task) as Arc<dyn Offered>);
    Ahead(AheadState::Offered(task))
}

impl<T: Send> Ahead<T> {
    /// The closure's result. A panic of the closure resumes here.
    pub fn finish(self) -> T {
        match self.0 {
            AheadState::Inline(body) => body(),
            AheadState::Offered(task) => task.finish(),
        }
    }
}

/// Reusable f32 scratch buffers, kept across calls so repeated
/// extractions (adaptive rounds, daemon jobs) stop paying a heap
/// allocation each.
static SCRATCH_CACHE: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

/// Borrows a zeroed `len`-element f32 scratch buffer from the cache.
/// Return it with [`return_scratch`] when done.
pub fn take_scratch(len: usize) -> Vec<f32> {
    let mut b = SCRATCH_CACHE
        .lock()
        .expect("scratch poisoned")
        .pop()
        .unwrap_or_default();
    b.clear();
    b.resize(len, 0.0);
    b
}

/// Returns a buffer borrowed via [`take_scratch`] to the cache.
pub fn return_scratch(buf: Vec<f32>) {
    const LIMIT: usize = 256;
    let mut cache = SCRATCH_CACHE.lock().expect("scratch poisoned");
    if cache.len() < LIMIT {
        cache.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let want: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
        for threads in [1, 3, 8] {
            set_num_threads(threads);
            let mut got = vec![0.0f32; want.len()];
            par_map_mut(&mut got, |i, v| *v = (i as f32).sin());
            assert_eq!(got, want, "threads={threads}");
        }
        set_num_threads(0);
    }

    #[test]
    fn thread_override_roundtrip() {
        set_num_threads(2);
        assert_eq!(num_threads(), 2);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn pool_survives_many_small_dispatches() {
        // thousands of dispatches through the persistent pool: it must
        // not leak or deadlock.
        set_num_threads(4);
        let mut out = vec![0.0f32; PAR_THRESHOLD + 1];
        for round in 0..2000 {
            let k = round as f32;
            par_map_mut(&mut out, |i, v| *v = k + i as f32);
            assert_eq!(out[0], k);
            assert_eq!(out[PAR_THRESHOLD], k + PAR_THRESHOLD as f32);
        }
        set_num_threads(0);
    }

    #[test]
    fn par_indexed_is_index_ordered_and_thread_count_invariant() {
        let n = 10_000;
        let expect: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64, (i * i) as u64]).collect();
        for threads in [1, 2, 8] {
            set_num_threads(threads);
            let got = par_indexed(n, 1, |i| vec![i as u64, (i * i) as u64]);
            assert_eq!(got, expect, "threads={threads}");
        }
        set_num_threads(0);
    }

    /// A helper whatever the host's CPU count.
    fn engaged_helper() -> Helper {
        let helper = Helper::spawn();
        assert!(helper.engaged.is_some(), "a thread was spawned");
        helper
    }

    /// `a` for [`join`] that returns once `flag` is up: `b`, which raises
    /// it, has then been started — by the helper, since this thread is
    /// still in `a`.
    fn until(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> &'static str {
        payload.downcast_ref::<&str>().copied().unwrap_or("?")
    }

    #[test]
    fn join_runs_both_closures_on_borrowed_halves() {
        let mut buf = vec![0u32; 1000];
        for helped in [false, true] {
            let _helper = helped.then(engaged_helper);
            for round in 1..=200 {
                let (lower, upper) = buf.split_at_mut(500);
                join(
                    "test",
                    || lower.iter_mut().for_each(|v| *v += round),
                    || upper.iter_mut().for_each(|v| *v += 2 * round),
                );
            }
        }
        let sum: u32 = (1..=200).sum();
        assert!(buf[..500].iter().all(|&v| v == 2 * sum));
        assert!(buf[500..].iter().all(|&v| v == 4 * sum));
    }

    #[test]
    fn a_task_the_helper_started_is_waited_for() {
        let _helper = engaged_helper();
        let started = AtomicBool::new(false);
        let mut by = None;
        join(
            "test",
            || until(&started),
            || {
                started.store(true, Ordering::Release);
                // long enough for the calling thread to spin out and park
                std::thread::sleep(4 * JOIN_SPIN);
                by = std::thread::current().name().map(str::to_string);
            },
        );
        assert_eq!(by.as_deref(), Some("dgr-helper"));
    }

    #[test]
    fn a_panic_on_the_helper_resumes_on_the_caller_and_the_helper_lives_on() {
        let _helper = engaged_helper();
        let started = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(
                "test",
                || until(&started),
                || {
                    started.store(true, Ordering::Release);
                    panic!("lane task failed");
                },
            )
        }));
        assert_eq!(panic_message(caught.unwrap_err()), "lane task failed");

        // the same helper takes the next task
        let started = AtomicBool::new(false);
        let mut by = None;
        join(
            "test",
            || until(&started),
            || {
                by = std::thread::current().name().map(str::to_string);
                started.store(true, Ordering::Release);
            },
        );
        assert_eq!(by.as_deref(), Some("dgr-helper"));
    }

    #[test]
    fn a_panic_of_the_caller_waits_for_the_helper_to_let_go_of_the_borrow() {
        let _helper = engaged_helper();
        let started = AtomicBool::new(false);
        let mut written = [0u8; 64];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(
                "test",
                || {
                    until(&started);
                    panic!("caller failed");
                },
                || {
                    started.store(true, Ordering::Release);
                    std::thread::sleep(4 * JOIN_SPIN);
                    written.fill(7);
                },
            )
        }));
        assert_eq!(panic_message(caught.unwrap_err()), "caller failed");
        // `join` unwound only after the helper's task had finished
        assert_eq!(written, [7; 64]);
    }

    #[test]
    fn ahead_runs_after_a_lane_task_or_inline_at_finish() {
        let name = || std::thread::current().name().map(str::to_string);
        let here = name();

        // nothing engaged: deferred to `finish`
        assert_eq!(ahead("test", name).finish(), here);

        let _helper = engaged_helper();
        // no lane task comes, so the helper never takes it up
        assert_eq!(ahead("test", name).finish(), here);

        // behind a lane task the helper does
        let taken = Arc::new(AtomicBool::new(false));
        let pending = ahead("test", {
            let taken = Arc::clone(&taken);
            move || {
                taken.store(true, Ordering::Release);
                name()
            }
        });
        let started = AtomicBool::new(false);
        join(
            "test",
            || until(&started),
            || started.store(true, Ordering::Release),
        );
        until(&taken);
        assert_eq!(pending.finish().as_deref(), Some("dgr-helper"));

        // a panic comes out of `finish`
        let pending = ahead("test", || -> u32 { panic!("draw failed") });
        let caught = catch_unwind(AssertUnwindSafe(|| pending.finish()));
        assert_eq!(panic_message(caught.unwrap_err()), "draw failed");
    }

    #[test]
    fn par_indexed_respects_min_par_and_empty() {
        assert!(par_indexed(0, 1, |i| i).is_empty());
        assert_eq!(par_indexed(5, 100, |i| i * 3), vec![0, 3, 6, 9, 12]);
    }
}
