//! The persistent worker pool behind the route pipeline's index-pure
//! fan-outs: per-net candidate generation, the forest build and the
//! extraction rasters.
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
//! [`par_indexed`] are bit-reproducible at *any* thread count. (The
//! training kernel, [`crate::cost`], does not use the pool at all.)
//!
//! # Observability
//!
//! When `dgr_obs::enabled()` is on, the pool records `pool.jobs_dispatched`,
//! `pool.chunks_claimed` (counted at the claim site, so worker and
//! dispatcher claims both show), `pool.busy_ns`, `pool.seq_fallbacks` and
//! a `pool.dispatch_ns` histogram. When off, every recording site reduces
//! to one relaxed atomic load and a predictable branch, keeping the
//! uninstrumented dispatch path bench-neutral.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

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

    #[test]
    fn par_indexed_respects_min_par_and_empty() {
        assert!(par_indexed(0, 1, |i| i).is_empty());
        assert_eq!(par_indexed(5, 100, |i| i * 3), vec![0, 3, 6, 9, 12]);
    }
}
