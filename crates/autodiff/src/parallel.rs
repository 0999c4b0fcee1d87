//! The one way work leaves the calling thread: a [`Helper`], one thread
//! engaged as the calling thread's second lane and joined before the code
//! that engaged it returns. A training run engages one for as long as it
//! runs; the route pipeline's index-pure fan-outs (per-net candidate
//! generation, the forest build, extraction's plans and victim scans) go
//! through [`par_halves`] — or [`par_indexed`], the element-wise map over
//! it — which splits its index range in two over [`join`] and engages a
//! helper for the dispatch when the thread has none.
//!
//! # The handoff
//!
//! The calling thread offers the helper tasks — [`join`]'s second closure,
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
//! # Determinism contract
//!
//! Which thread runs a task never shows in a result: a task writes only
//! buffers that the closures of one [`join`] split between them, and no
//! primitive here reduces across tasks. [`par_halves`] cuts `0..n` at
//! `n / 2` — a function of `n` alone — and [`par_indexed`] appends the
//! upper half's results to the lower half's, so its output is the
//! sequential map's at any thread count, helper or none.
//!
//! # Observability
//!
//! When `dgr_obs::enabled()` is on, [`par_halves`] counts its two
//! branches (`pool.jobs_dispatched`, `pool.seq_fallbacks` — the names the
//! benchmark scrapes) and the claim-or-inline rule counts who ran each
//! offered task (`train.lane_tasks_helper`, `train.lane_tasks_inline`).
//! When off, every recording site reduces to one relaxed atomic load and a
//! predictable branch.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Minimum number of candidate paths before a training run engages a
/// [`Helper`]: below it an iteration is too short for the handoffs to pay.
/// Measured on random designs, serial → helped ms per iteration: 0.038 →
/// 0.052 / 0.042 → 0.035 / 0.052 → 0.051 at 0.7 k paths (no gain), 0.099 →
/// 0.087 / 0.095 → 0.075 / 0.091 → 0.093 at 1.4 k (inside the spread),
/// 0.210 → 0.149 / 0.164 → 0.149 / 0.148 → 0.112 at 2.6 k, 0.402 → 0.279 /
/// 0.342 → 0.301 / 0.503 → 0.291 at 5.6 k.
pub const LANE_THRESHOLD: usize = 1 << 12;

/// Minimum number of nets before a per-net phase of the front end
/// (candidate generation, the forest build, extraction's plans) goes over
/// [`par_halves`]' two halves. One dispatch costs a thread spawn and a
/// join, 20–30 µs, and the build host's two CPUs read by the quarter-hour
/// as two cores or as hyperthreads of one (two arithmetic-bound threads
/// take 1.0× or 2.0× the time of one). Serial → helped ms, three
/// alternations, candidates · forest (extraction's plans are level
/// throughout; EXPERIMENTS.md, "One mechanism", has every size of the
/// candidates column, measured at PR 21, and "The per-net passes stop
/// paying malloc" the forest column, re-measured at PR 23 on random
/// designs once the build had stopped allocating per net):
///
/// | nets | as two cores | as hyperthreads |
/// |---|---|---|
/// | 300 | 1.62 → 1.25 / 1.68 → 1.30 / 1.58 → 1.26 · 0.22 → 0.25 / 0.15 → 0.26 / 0.23 → 0.24 | 1.07 → 1.13 / 1.04 → 1.08 / 1.06 → 1.13 · 0.11 → 0.15 / 0.11 → 0.14 / 0.11 → 0.16 |
/// | 800 – 1 k | 4.67 → 2.37 / 2.89 → 3.26 / 4.65 → 3.09 · 0.91 → 1.11 / 0.61 → 1.30 / 0.79 → 1.16 | 3.98 → 4.02 / 3.97 → 4.14 / 3.99 → 4.15 · 0.56 → 0.71 / 0.54 → 0.74 / 0.57 → 0.76 |
/// | 1.6 k – 2 k | 9.64 → 5.51 / 5.90 → 5.18 / 5.94 → 5.43 · 2.00 → 1.79 / 1.88 → 1.68 / 1.73 → 1.68 | 9.59 → 9.97 / 11.09 → 10.78 / 10.66 → 10.13 · 1.61 → 1.96 / 1.48 → 1.90 / 1.55 → 1.93 |
/// | 2.4 k | 9.33 → 6.26 / 9.33 → 6.26 / 9.50 → 6.31 · 2.26 → 2.13 / 2.15 → 2.06 / 2.69 → 2.00 | — · 1.73 → 1.93 / 1.84 → 1.88 / 1.80 → 1.91 |
/// | 4 k | — · 4.81 → 3.31 / 4.82 → 3.58 / 4.30 → 3.13 | 16.78 → 17.68 / 16.67 → 17.28 / 17.18 → 17.44 · 3.49 → 3.91 / 3.42 → 3.81 / 3.28 → 3.46 |
///
/// From 800 nets a second core takes a millisecond or more off candidate
/// generation and its absence costs a tenth of that; at 300 — a `dgrd`
/// small job, whose two workers already fill both CPUs — the two are of
/// one size, half a millisecond. Candidates set the constant. The forest
/// build, a fifth of what it was, no longer argues for it: its two
/// half-forests are appended, a copy the one-range build does not make,
/// so at 1 k nets the fan-out costs 0.2–0.5 ms in either kind of period,
/// breaks even near 2 k nets with a second core (−10 % there, −30 % at
/// 4 k, 21 → 14 ms on `high_degree_sparse`'s 6 000 nets) and costs
/// 10–25 % without one. That is a few tenths of a millisecond either way
/// between 1 k and 2 k nets, and one constant for the three phases is
/// worth more than that: `1 << 10` stays.
pub const NET_PAR_MIN: usize = 1 << 10;

/// How long the helper spins for its next task before it parks — longer
/// than any gap the calling thread leaves inside a training iteration.
const HELPER_SPIN: Duration = Duration::from_micros(1000);

/// How long the calling thread spins for a task the helper has started
/// before it parks.
const JOIN_SPIN: Duration = Duration::from_micros(50);

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The machine's parallelism, probed once. `available_parallelism()` is a
/// syscall (`sched_getaffinity`) costing microseconds on some kernels —
/// uncached it dominated small sequential fan-outs, which call
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

/// Whether there is a second lane to use: below 2, [`Helper::engage`]
/// spawns nothing and [`par_halves`] runs one range. No partition
/// depends on the value.
///
/// Defaults to the machine's available parallelism; override (e.g. in
/// determinism tests) with [`set_num_threads`].
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    host_parallelism()
}

/// Overrides the thread count (0 restores the default).
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

// --- the helper --------------------------------------------------------------

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

static FAULT: Mutex<Option<&'static str>> = Mutex::new(None);

/// Whether [`FAULT`] holds a name: all a task the helper runs reads of
/// the hook when none is armed.
static FAULT_ARMED: AtomicBool = AtomicBool::new(false);

/// Test hook: the next task of this name that a helper runs panics
/// before its body.
#[doc(hidden)]
pub fn fail_next_helper_task(name: &'static str) {
    *lock(&FAULT) = Some(name);
    FAULT_ARMED.store(true, Ordering::Release);
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
    /// What [`fail_next_helper_task`] knows the task by.
    name: &'static str,
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
    fn new(name: &'static str, body: Body<T>) -> Self {
        Task {
            name,
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
            if FAULT_ARMED.load(Ordering::Acquire) {
                let armed = lock(&FAULT).take_if(|name| *name == self.name);
                if armed.is_some() {
                    FAULT_ARMED.store(false, Ordering::Relaxed);
                    panic!("injected helper-task fault");
                }
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
/// as a `cat`/`name` span on the thread that runs it.
pub fn join<A, B>(cat: &'static str, name: &'static str, a: A, b: B)
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
        let _span = dgr_obs::span(cat, name);
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
    let task = Arc::new(Task::new(name, body));
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
    let task = Arc::new(Task::new(name, body));
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

// --- the front end's fan-out -------------------------------------------------

/// The two branches of [`par_halves`], under the names the benchmark
/// reads from `/metrics`.
struct FanOutMetrics {
    /// Calls that went over [`join`].
    dispatched: &'static dgr_obs::Counter,
    /// Calls mapped on the calling thread (below the caller's size
    /// threshold, or no second lane).
    sequential: &'static dgr_obs::Counter,
}

fn fan_out_metrics() -> &'static FanOutMetrics {
    static METRICS: OnceLock<FanOutMetrics> = OnceLock::new();
    METRICS.get_or_init(|| FanOutMetrics {
        dispatched: dgr_obs::counter("pool.jobs_dispatched"),
        sequential: dgr_obs::counter("pool.seq_fallbacks"),
    })
}

/// Runs `f` over `0..n` as one range, or over `0..n / 2` and `n / 2..n`
/// at once — the fan-out behind the route pipeline's front end, for a
/// pass that fills an arena per range (the forest build, extraction's
/// plans) where [`par_indexed`] would make it allocate per index.
///
/// Below `min_par` items, or without a second lane ([`num_threads`]
/// ` < 2`), `(f(0..n), None)`. Otherwise [`join`] over the two halves,
/// `(f(0..n / 2), Some(f(n / 2..n)))`: the cut depends on `n` alone, so
/// what the caller makes of the halves in order is what it would make of
/// the one range, whichever thread ran which. Uses the [`Helper`] engaged
/// on the thread, or engages one for the call — a caller that fans out
/// several times in a row engages one itself.
pub fn par_halves<T, F>(n: usize, min_par: usize, f: F) -> (T, Option<T>)
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    if n < min_par || num_threads() < 2 {
        fan_out_metrics().sequential.add(1);
        return (f(0..n), None);
    }
    fan_out_metrics().dispatched.add(1);
    let _helper = engaged().is_none().then(Helper::engage);
    let (mut lower, mut upper) = (None, None);
    join(
        "route",
        "fan_out",
        || lower = Some(f(0..n / 2)),
        || upper = Some(f(n / 2..n)),
    );
    (lower.expect("join ran the lower half"), upper)
}

/// Runs `f(i)` for every `i in 0..n` and collects the results **in index
/// order**: [`par_halves`] with each half collected into its own vector
/// and the upper appended to the lower, so the returned vector is the
/// sequential map's at any thread count.
pub fn par_indexed<T, F>(n: usize, min_par: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (mut lower, upper) = par_halves(n, min_par, |range| {
        // the lower half makes room for the upper's append
        let mut half = Vec::with_capacity(if range.start == 0 { n } else { range.len() });
        half.extend(range.map(&f));
        half
    });
    if let Some(mut upper) = upper {
        lower.append(&mut upper);
    }
    lower
}

/// Sets the thread override for one of this crate's unit tests at a time:
/// it is process-global, and some of them depend on which branch of
/// [`par_indexed`] or of [`Helper::engage`] it selects.
#[cfg(test)]
pub(crate) fn with_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
    static OVERRIDE: Mutex<()> = Mutex::new(());
    let _guard = lock(&OVERRIDE);
    set_num_threads(threads);
    let result = body();
    set_num_threads(0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_roundtrip() {
        assert_eq!(with_threads(2, num_threads), 2);
        assert!(num_threads() >= 1);
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
    fn par_indexed_is_the_sequential_map_at_any_thread_count_helped_or_not() {
        let item = |i: usize| vec![i as u64, (i * i) as u64];
        for helped in [false, true] {
            let _helper = helped.then(engaged_helper);
            for threads in [1, 2, 8] {
                for n in [0, 1, 2, 5, 1000, 1001] {
                    let want: Vec<Vec<u64>> = (0..n).map(item).collect();
                    // below `min_par`, at it, and always dispatched
                    for min_par in [n + 1, n, 0] {
                        let got = with_threads(threads, || par_indexed(n, min_par, item));
                        assert_eq!(got, want, "helped={helped} threads={threads} n={n}");
                    }
                }
            }
        }
    }

    /// An item that counts itself in and out.
    struct Counted<'c>(&'c AtomicUsize);

    impl<'c> Counted<'c> {
        fn new(made: &AtomicUsize, live: &'c AtomicUsize) -> Self {
            made.fetch_add(1, Ordering::SeqCst);
            live.fetch_add(1, Ordering::SeqCst);
            Counted(live)
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_panic_in_either_half_resumes_on_the_caller_once_the_other_is_done_and_leaks_nothing() {
        const N: usize = 1000;
        let _helper = engaged_helper();
        // the lower half fails once the helper is inside the upper half,
        // which then runs to its end; the upper half fails at its sixth
        // item, and the lower half always runs to its end
        for (bad, made_by_then) in [(10, 10 + N / 2), (N / 2 + 5, N / 2 + 5)] {
            let (made, live) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let upper_started = AtomicBool::new(false);
            let caught = with_threads(2, || {
                catch_unwind(AssertUnwindSafe(|| {
                    par_indexed(N, 1, |i| {
                        if i == N / 2 {
                            upper_started.store(true, Ordering::Release);
                        }
                        if i == bad {
                            until(&upper_started);
                            panic!("item failed");
                        }
                        Counted::new(&made, &live)
                    })
                }))
            });
            assert_eq!(
                panic_message(caught.err().expect("panicked")),
                "item failed"
            );
            assert_eq!(made.load(Ordering::SeqCst), made_by_then, "bad={bad}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "bad={bad}");
        }
    }

    #[test]
    fn a_fan_out_nested_in_either_half_of_another_returns_every_element_in_order() {
        // in the lower half the helper's one lane mailbox holds the outer
        // upper half; in the upper half, run by the helper, nothing is
        // engaged and the inner call engages a helper of its own
        let _helper = engaged_helper();
        let inner = |i: usize| move |j: usize| vec![i, j];
        let want: Vec<Vec<Vec<usize>>> = (0..8).map(|i| (0..100).map(inner(i)).collect()).collect();
        for _ in 0..50 {
            let got = with_threads(2, || par_indexed(8, 1, |i| par_indexed(100, 1, inner(i))));
            assert_eq!(got, want);
        }
    }
}
