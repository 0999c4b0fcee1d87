//! Hierarchical span timers with a thread-safe global registry and
//! Chrome trace-event export.
//!
//! A span is opened with [`span`] and closed when its [`SpanGuard`]
//! drops. Completed spans land in a process-global log as
//! `(category, name, thread, depth, start, duration)` tuples, and are
//! simultaneously folded into per-name aggregate totals, so the registry
//! serves both uses:
//!
//! * [`chrome_trace`] — the full event log as a Chrome trace-event JSON
//!   array (`chrome://tracing` / Perfetto "X" complete events, one track
//!   per thread; nesting is reconstructed from time containment),
//! * [`span_totals`] — per-name `(count, total)` aggregates for summary
//!   tables and benchmark phase breakdowns.
//!
//! Recording is gated on [`crate::enabled`]: a disabled span costs one
//! relaxed atomic load. An enabled span costs two `Instant::now()` calls
//! plus one mutex push — suitable for per-phase and per-iteration scopes,
//! not for per-element inner loops (use [`crate::counter`] there).
//!
//! The event log is capped at [`MAX_EVENTS`]; beyond it, events still
//! fold into the aggregates but the detailed log drops them (the drop
//! count is reported by [`dropped_events`]).
//!
//! Every event carries the scope id of the thread that recorded it
//! ([`crate::status_scope_id`]: 0 in a one-shot CLI run, the job id in a
//! `dgrd` worker), and [`crate::scope_remove`] drops one scope's events
//! with the rest of its state — the daemon calls it when it evicts a job,
//! so the log of a long-lived server holds the events of the jobs it
//! still retains rather than of every job it ever ran.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::JsonObject;

/// Hard cap on detailed span events held in memory (64 bytes each).
pub const MAX_EVENTS: usize = 1 << 20;

/// One completed span.
#[derive(Debug, Clone, Copy)]
struct SpanEvent {
    cat: &'static str,
    name: &'static str,
    /// Status scope of the recording thread (0 = one-shot CLI run).
    scope: u64,
    tid: u32,
    depth: u32,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Default)]
struct SpanLog {
    events: Vec<SpanEvent>,
    totals: HashMap<&'static str, (u64, u128)>,
    dropped: usize,
}

fn log() -> std::sync::MutexGuard<'static, SpanLog> {
    static LOG: OnceLock<Mutex<SpanLog>> = OnceLock::new();
    // poison-tolerant: spans record from worker threads; one panicking
    // scope must not wedge the registry for the rest of the process
    match LOG.get_or_init(|| Mutex::new(SpanLog::default())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The registry epoch: all timestamps are offsets from the first span.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense per-thread ids for trace tracks (OS thread ids are sparse).
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

// ---------------------------------------------------------------------------
// active-span stacks (the sampling profiler's view)
// ---------------------------------------------------------------------------

/// Whether the sampling profiler is attached. When off (the default),
/// span open/close never touches the active-stack registry, preserving
/// the lock-free open path.
static PROFILING: AtomicBool = AtomicBool::new(false);

#[inline]
pub(crate) fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

pub(crate) fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
    if !on {
        active().clear();
    }
}

/// Per-thread stacks of currently-open span names. Only maintained while
/// [`profiling`] — a mutex push/pop per span open/close, acceptable for
/// phase- and iteration-granularity spans.
fn active() -> std::sync::MutexGuard<'static, HashMap<u32, Vec<&'static str>>> {
    static ACTIVE: OnceLock<Mutex<HashMap<u32, Vec<&'static str>>>> = OnceLock::new();
    match ACTIVE.get_or_init(|| Mutex::new(HashMap::new())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A point-in-time copy of every thread's open-span stack, outermost
/// frame first, sorted by thread id (deterministic iteration for the
/// profiler's aggregation). Empty stacks are skipped.
pub(crate) fn active_stacks() -> Vec<(u32, Vec<&'static str>)> {
    let map = active();
    let mut out: Vec<(u32, Vec<&'static str>)> = map
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(&tid, s)| (tid, s.clone()))
        .collect();
    out.sort_by_key(|(tid, _)| *tid);
    out
}

/// Opens a span named `name` under category `cat`; the span closes (and
/// is recorded) when the returned guard drops. Both strings must be
/// static so hot recording never allocates.
///
/// When observability is disabled ([`crate::enabled`] is false) the
/// returned guard is inert.
#[must_use = "a span measures the scope of its guard"]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    // materialize the epoch before `start` so offsets are never negative
    let _ = epoch();
    let tracked = profiling();
    if tracked {
        active().entry(thread_id()).or_default().push(name);
    }
    SpanGuard {
        live: Some(LiveSpan {
            cat,
            name,
            depth,
            tracked,
            start: Instant::now(),
        }),
    }
}

struct LiveSpan {
    cat: &'static str,
    name: &'static str,
    depth: u32,
    /// Whether this span pushed onto the active-stack registry at open
    /// time (profiling may toggle while the span is live; pop iff pushed).
    tracked: bool,
    start: Instant,
}

/// Guard returned by [`span`]; records the span on drop.
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur = live.start.elapsed();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if live.tracked {
            // tracked spans close in LIFO order among themselves, so the
            // top of this thread's stack is this span (untracked spans
            // never pushed)
            if let Some(stack) = active().get_mut(&thread_id()) {
                stack.pop();
            }
        }
        let event = SpanEvent {
            cat: live.cat,
            name: live.name,
            scope: crate::status_scope_id(),
            tid: thread_id(),
            depth: live.depth,
            start_ns: live.start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        let mut log = log();
        let t = log.totals.entry(live.name).or_insert((0, 0));
        t.0 += 1;
        t.1 += dur.as_nanos();
        if log.events.len() < MAX_EVENTS {
            log.events.push(event);
        } else {
            log.dropped += 1;
        }
    }
}

/// Per-name aggregate over all recorded spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotal {
    /// The span name.
    pub name: &'static str,
    /// How many spans completed under this name.
    pub count: u64,
    /// Summed wall-clock duration.
    pub total: Duration,
}

impl SpanTotal {
    /// Mean duration per span.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// All per-name aggregates, longest total first.
pub fn span_totals() -> Vec<SpanTotal> {
    let log = log();
    let mut out: Vec<SpanTotal> = log
        .totals
        .iter()
        .map(|(&name, &(count, ns))| SpanTotal {
            name,
            count,
            total: Duration::from_nanos(ns.min(u64::MAX as u128) as u64),
        })
        .collect();
    out.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(b.name)));
    out
}

/// Number of detailed events discarded after [`MAX_EVENTS`] was reached
/// (aggregates are never dropped).
pub fn dropped_events() -> usize {
    log().dropped
}

/// Drops the detailed events recorded under scope `id` — the span half
/// of [`crate::scope_remove`]. Aggregates keep the job's contribution;
/// unknown scopes are a no-op.
pub(crate) fn remove_scope(id: u64) {
    log().events.retain(|e| e.scope != id);
}

/// Number of detailed events currently held for status scope `id`.
pub fn span_events_of(id: u64) -> usize {
    log().events.iter().filter(|e| e.scope == id).count()
}

/// Clears the event log and the aggregates.
pub fn reset_spans() {
    let mut log = log();
    log.events.clear();
    log.totals.clear();
    log.dropped = 0;
}

/// Serializes every recorded span as a Chrome trace-event JSON array.
///
/// Load the result in `chrome://tracing` or <https://ui.perfetto.dev>.
/// Timestamps are microseconds since the first span; each pipeline thread
/// gets its own track.
pub fn chrome_trace() -> String {
    let log = log();
    let mut out = String::with_capacity(64 + log.events.len() * 96);
    out.push_str("[\n");
    let mut threads: Vec<u32> = log.events.iter().map(|e| e.tid).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut first = true;
    for tid in threads {
        let mut o = JsonObject::new();
        o.field_str("name", "thread_name");
        o.field_str("ph", "M");
        o.field_u64("pid", 1);
        o.field_u64("tid", tid as u64);
        o.field_raw(
            "args",
            &format!(
                "{{\"name\":\"dgr-{}\"}}",
                if tid == 0 { "main" } else { "helper" }
            ),
        );
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&o.finish());
    }
    for e in &log.events {
        let mut o = JsonObject::new();
        o.field_str("name", e.name);
        o.field_str("cat", e.cat);
        o.field_str("ph", "X");
        o.field_u64("pid", 1);
        o.field_u64("tid", e.tid as u64);
        o.field_f64("ts", e.start_ns as f64 / 1e3);
        o.field_f64("dur", e.dur_ns as f64 / 1e3);
        o.field_raw("args", &format!("{{\"depth\":{}}}", e.depth));
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&o.finish());
    }
    out.push_str("\n]\n");
    out
}

/// Writes [`chrome_trace`] to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        {
            let _outer = span("test", "outer");
            for _ in 0..3 {
                let _inner = span("test", "inner");
                std::hint::black_box(0u64);
            }
        }
        crate::set_enabled(false);
        let totals = span_totals();
        let outer = totals.iter().find(|t| t.name == "outer").unwrap();
        let inner = totals.iter().find(|t| t.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(outer.total >= inner.total, "outer contains the inners");
        assert!(inner.mean() <= inner.total);
        reset_spans();
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        {
            let _s = span("test", "traced");
        }
        crate::set_enabled(false);
        let json = chrome_trace();
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"traced\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""), "thread metadata present");
        // crude structural check: balanced brackets/braces
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        reset_spans();
    }

    #[test]
    fn disabled_spans_cost_nothing_visible() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        reset_spans();
        {
            let _s = span("test", "ghost");
        }
        assert!(span_totals().is_empty());
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn removing_a_scope_drops_its_events_and_only_those() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        for id in [0u64, 901, 902, 901] {
            let _scope = crate::status_scope(id);
            let _s = span("test", "scoped");
        }
        crate::set_enabled(false);
        assert_eq!(span_events_of(901), 2);
        crate::scope_remove(901);
        assert_eq!(span_events_of(901), 0);
        assert_eq!((span_events_of(0), span_events_of(902)), (1, 1));
        let scoped = span_totals().into_iter().find(|t| t.name == "scoped");
        assert_eq!(scoped.unwrap().count, 4, "aggregates keep evicted jobs");
        reset_spans();
    }

    #[test]
    fn cross_thread_spans_get_distinct_tracks() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        let h = std::thread::spawn(|| {
            let _s = span("test", "worker-span");
        });
        {
            let _s = span("test", "main-span");
        }
        h.join().unwrap();
        crate::set_enabled(false);
        let log = log();
        let tids: std::collections::HashSet<u32> = log.events.iter().map(|e| e.tid).collect();
        assert_eq!(log.events.len(), 2);
        assert_eq!(tids.len(), 2, "each thread has its own track");
        drop(log);
        reset_spans();
    }
}
