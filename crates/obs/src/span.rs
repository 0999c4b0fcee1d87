//! Hierarchical span timers with a thread-safe global registry and
//! Chrome trace-event export.
//!
//! A span is opened with [`span`] and closed when its [`SpanGuard`]
//! drops. Completed spans fold into per-name aggregate totals and, while
//! the log is asked for, land in a process-global log as
//! `(category, name, thread, depth, start, duration)` tuples, so the
//! registry serves both uses:
//!
//! * [`chrome_trace`] — the full event log as a Chrome trace-event JSON
//!   array (`chrome://tracing` / Perfetto "X" complete events, one track
//!   per thread; nesting is reconstructed from time containment),
//! * [`span_totals`] — per-name `(count, total)` aggregates for summary
//!   tables, benchmark phase breakdowns and the live `/report`,
//! * [`folded_profile`] — the log's self time per stack of span names
//!   (`--profile`, see [`crate::profile`]).
//!
//! [`parse_trace`] reads a trace file back as the report's phase table
//! ([`PhaseTotal`] rows, which the live `/report` takes from
//! [`span_totals`] instead).
//!
//! Recording is gated on [`crate::enabled`]: a disabled span costs one
//! relaxed atomic load. An enabled span costs two `Instant::now()` calls
//! plus one mutex-held fold — suitable for per-phase and per-iteration
//! scopes, not for per-element inner loops (use [`crate::counter`] there).
//!
//! Only the aggregates are kept by default: the detailed event log, which
//! [`chrome_trace`] and [`folded_profile`] read, is kept from
//! [`log_span_events`] (the CLI's `--trace` and `--profile`) until the next
//! [`reset_spans`]. A daemon, the experiment tables and a plain `dgr route`
//! keep none. The log is capped at [`MAX_EVENTS`]; beyond it, events still
//! fold into the aggregates but the log drops them (the drop count is
//! reported by [`dropped_events`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::JsonObject;
use crate::parse::parse_json;
use crate::profile::FoldedProfile;

/// Hard cap on detailed span events held in memory (56 bytes each).
pub const MAX_EVENTS: usize = 1 << 20;

/// One completed span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanEvent {
    pub(crate) cat: &'static str,
    pub(crate) name: &'static str,
    /// Track: the recording thread, numbered in the order threads first
    /// opened a span.
    pub(crate) tid: u32,
    /// Spans open on the thread when this one opened.
    pub(crate) depth: u32,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
}

#[derive(Default)]
struct SpanLog {
    /// The detailed log; `None` until [`log_span_events`] asks for it.
    events: Option<Vec<SpanEvent>>,
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

/// Track `tid`'s name in a trace and at the root of a folded stack.
pub(crate) fn track_name(tid: u32) -> &'static str {
    if tid == 0 {
        "dgr-main"
    } else {
        "dgr-helper"
    }
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
    SpanGuard {
        live: Some(LiveSpan {
            cat,
            name,
            // taken at open: the first thread to open a span is track 0
            tid: thread_id(),
            depth,
            start: Instant::now(),
        }),
    }
}

struct LiveSpan {
    cat: &'static str,
    name: &'static str,
    tid: u32,
    depth: u32,
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
        let mut guard = log();
        let log = &mut *guard;
        let t = log.totals.entry(live.name).or_insert((0, 0));
        t.0 += 1;
        t.1 += dur.as_nanos();
        let Some(events) = log.events.as_mut() else {
            return;
        };
        if events.len() < MAX_EVENTS {
            events.push(SpanEvent {
                cat: live.cat,
                name: live.name,
                tid: live.tid,
                depth: live.depth,
                start_ns: live.start.duration_since(epoch()).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
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

/// Keeps the detailed event of every span that closes from now on, until
/// the next [`reset_spans`] (or [`crate::reset`]): what [`chrome_trace`],
/// [`write_chrome_trace`] and [`folded_profile`] read. Without it they
/// see an empty log. Asking twice keeps the events already logged.
pub fn log_span_events() {
    log().events.get_or_insert_with(Vec::new);
}

/// Clears the aggregates and drops the event log, which stays off until
/// [`log_span_events`] asks for it again.
pub fn reset_spans() {
    let mut log = log();
    log.events = None;
    log.totals.clear();
    log.dropped = 0;
}

/// The fold of the event log ([`log_span_events`]): self time per stack
/// of span names, per track (`FoldedProfile::fold`).
pub fn folded_profile() -> FoldedProfile {
    FoldedProfile::fold(log().events.as_deref().unwrap_or_default())
}

/// Serializes the event log ([`log_span_events`]) as a Chrome trace-event
/// JSON array.
///
/// Load the result in `chrome://tracing` or <https://ui.perfetto.dev>.
/// Timestamps are microseconds since the first span; each pipeline thread
/// gets its own track.
pub fn chrome_trace() -> String {
    let log = log();
    let events = log.events.as_deref().unwrap_or_default();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("[\n");
    let mut threads: Vec<u32> = events.iter().map(|e| e.tid).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut first = true;
    for tid in threads {
        let mut o = JsonObject::new();
        o.field_str("name", "thread_name");
        o.field_str("ph", "M");
        o.field_u64("pid", 1);
        o.field_u64("tid", tid as u64);
        o.field_raw("args", &format!("{{\"name\":\"{}\"}}", track_name(tid)));
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&o.finish());
    }
    for e in events {
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
#[allow(clippy::disallowed_methods)] // the trace's one writer
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace())
}

/// One row of a report's phase table: a span name, how many spans
/// completed under it and their summed duration in µs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// The span name.
    pub name: String,
    /// How many spans completed under this name.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: f64,
}

impl From<&SpanTotal> for PhaseTotal {
    fn from(t: &SpanTotal) -> Self {
        PhaseTotal {
            name: t.name.to_string(),
            count: t.count,
            total_us: t.total.as_nanos() as f64 / 1e3,
        }
    }
}

/// Reads a [`chrome_trace`] file back as per-name totals of its complete
/// (`"X"`) events, longest total first (name ties alphabetical).
///
/// # Errors
///
/// Returns a description when the text is not a JSON array.
pub fn parse_trace(text: &str) -> Result<Vec<PhaseTotal>, String> {
    let v = parse_json(text).map_err(|e| e.to_string())?;
    let events = v.as_arr().ok_or("expected a JSON array")?;
    let mut totals: BTreeMap<&str, PhaseTotal> = BTreeMap::new();
    for e in events.iter().filter(|e| e.str("ph") == Some("X")) {
        let name = e.str("name").unwrap_or("?");
        let t = totals.entry(name).or_insert_with(|| PhaseTotal {
            name: name.to_string(),
            count: 0,
            total_us: 0.0,
        });
        t.count += 1;
        t.total_us += e.num("dur").unwrap_or(0.0);
    }
    let mut out: Vec<PhaseTotal> = totals.into_values().collect();
    // stable: equal totals keep the map's name order
    out.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the tests read the trace and record from a second thread
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
        log_span_events();
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
    fn trace_totals_sum_and_rank() {
        let phases = parse_trace(
            "[{\"name\":\"b\",\"ph\":\"X\",\"dur\":5},\
              {\"name\":\"a\",\"ph\":\"X\",\"dur\":10},\
              {\"name\":\"b\",\"ph\":\"X\",\"dur\":6},\
              {\"name\":\"meta\",\"ph\":\"M\"}]",
        )
        .unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!((phases[0].name.as_str(), phases[0].count), ("b", 2));
        assert!((phases[0].total_us - 11.0).abs() < 1e-9);
        assert_eq!(phases[1].name, "a");
        assert_eq!(parse_trace("{}").unwrap_err(), "expected a JSON array");
        assert!(parse_trace("[").is_err());
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
    fn events_are_logged_only_while_asked_for() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        let logged = || chrome_trace().matches("\"ph\":\"X\"").count();
        {
            let _s = span("test", "unlogged");
        }
        assert_eq!(logged(), 0, "no log until asked for");
        log_span_events();
        for _ in 0..2 {
            let _s = span("test", "logged");
        }
        log_span_events();
        assert_eq!(logged(), 2, "asking again keeps the log");
        let total = |name| span_totals().into_iter().find(|t| t.name == name);
        assert_eq!(total("unlogged").unwrap().count, 1, "totals fold anyway");
        reset_spans();
        {
            let _s = span("test", "after-reset");
        }
        crate::set_enabled(false);
        assert_eq!(logged(), 0, "a reset stops the log");
        assert_eq!(total("after-reset").unwrap().count, 1);
        reset_spans();
    }

    #[test]
    fn cross_thread_spans_get_distinct_tracks() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset_spans();
        log_span_events();
        let h = std::thread::spawn(|| {
            let _s = span("test", "worker-span");
        });
        {
            let _s = span("test", "main-span");
        }
        h.join().unwrap();
        crate::set_enabled(false);
        let log = log();
        let events = log.events.as_deref().unwrap();
        let tids: std::collections::HashSet<u32> = events.iter().map(|e| e.tid).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(tids.len(), 2, "each thread has its own track");
        drop(log);
        reset_spans();
    }
}
