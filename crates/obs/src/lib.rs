#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `dgr-obs` — the observability substrate of the DGR reproduction.
//!
//! Training-loop dynamics (loss decomposition, temperature annealing,
//! executor behaviour) are what the paper's quality/runtime story hinges
//! on, so every layer of the pipeline reports into this crate:
//!
//! * [`span()`] / [`SpanGuard`] — hierarchical wall-clock span timers with a
//!   thread-safe global registry, Chrome-trace-event JSON export
//!   (loadable in `chrome://tracing` or Perfetto) and its fold into
//!   collapsed stacks of self time ([`folded_profile`], `--profile`),
//! * [`counter`] / [`gauge`] — a metrics registry whose hot-path
//!   recording is a single relaxed atomic op,
//! * [`process_memory`] — the process's RSS and peak RSS,
//! * [`TelemetrySink`] — a per-iteration training telemetry sink emitting
//!   JSONL rows (`{iter, loss, wl, vias, overflow, temperature,
//!   grad_norm}`), one per iteration of one run,
//! * [`scope`] — the per-job registry behind `dgrd`'s `/status`,
//!   `/health` and per-job telemetry and report: one entry per job id
//!   (headline status, every telemetry row, sentinel findings, SLO
//!   watchdog), written by one [`tick`] per iteration and forgotten by
//!   one [`scope_remove`]; [`sentinel`] holds the pure convergence rules
//!   it and `dgr doctor` evaluate,
//! * [`render_report`] — the deterministic self-contained HTML
//!   post-mortem renderer behind `dgr report` and a `dgrd` job's
//!   `/report`: a pure function of the records above. Each file format
//!   is read back in the module that writes it ([`rows_from_jsonl`], [`parse_trace`],
//!   [`FoldedProfile::parse`]), the two JSON ones through [`parse`], a
//!   minimal JSON reader.
//!
//! # Overhead contract
//!
//! Observability is **off by default**, and each record is gated by the
//! one reader that exists for it — one relaxed atomic load or
//! thread-local read and a predictable branch — so uninstrumented hot
//! paths (the front end's fan-outs, the training inner loop) stay
//! branch-predictable and bench-neutral:
//!
//! * spans, by the event log ([`log_span_events`]): `dgr`'s `--trace` and
//!   `--profile` open it, nothing else does, so a `dgrd` job records none;
//! * run state ([`status_begin`], [`status_phase`], [`tick`]), by an open
//!   [`status_scope`]: `dgrd` opens one per job, a CLI run none;
//! * metrics ([`counter`], [`gauge`]), by the switch [`enabled`] /
//!   [`set_enabled`]: `dgr` sets it for `--trace` or `--profile`, `dgrd`
//!   for its lifetime.
//!
//! Telemetry sinks are explicit objects and work regardless of any gate.
//!
//! The crate has zero external dependencies, matching the offline
//! `compat/` policy of the workspace.
//!
//! # Examples
//!
//! ```
//! dgr_obs::set_enabled(true); // metrics
//! dgr_obs::log_span_events(); // spans, as `--trace` does
//! {
//!     let _s = dgr_obs::span("demo", "work");
//!     dgr_obs::counter("demo.widgets").add(3);
//! }
//! let totals = dgr_obs::span_totals();
//! assert!(totals.iter().any(|t| t.name == "work" && t.count == 1));
//! let trace = dgr_obs::chrome_trace();
//! assert!(trace.contains("\"ph\":\"X\""));
//! dgr_obs::set_enabled(false);
//! dgr_obs::reset();
//! ```

pub mod json;
pub mod metrics;
pub mod parse;
pub mod profile;
pub mod report;
pub mod scope;
pub mod sentinel;
pub mod span;
pub mod telemetry;

pub use metrics::{
    counter, gauge, metrics_snapshot, prometheus_text, reset_metrics, Counter, Gauge,
    MetricSnapshot, MetricValue,
};
pub use profile::{process_memory, FoldedProfile, ProcessMemory};
pub use report::{render_report, ReportInputs};
pub use scope::{
    health_of, health_summary_of, report_of, scope_remove, status_begin, status_json, status_phase,
    status_ring_jsonl_of, status_scope, status_scope_id, tick, watchdog_arm, watchdog_breach,
    StatusScope,
};
pub use sentinel::{
    analyze_rows, rank_findings, verdict_of, Finding, RuleEngine, Severity, Verdict,
};
pub use span::{
    chrome_trace, folded_profile, log_span_events, parse_trace, reset_spans, span, span_totals,
    write_chrome_trace, PhaseTotal, SpanGuard,
};
pub use telemetry::{rows_from_jsonl, IterationRow, TelemetrySink};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the metrics registry records. One relaxed load — safe to call
/// on any hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the metrics switch: [`counter`] and [`gauge`] updates are
/// dropped while off. Spans have their own gate ([`log_span_events`]) and
/// run state its own ([`status_scope`]); [`TelemetrySink`]s are explicit
/// objects, not ambient state.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears all recorded spans and stops the span event log
/// ([`log_span_events`]), zeroes all metrics (registrations survive), and
/// forgets every run scope — status rows, rings, sentinel findings and
/// watchdogs. Tests and repeated CLI commands use this between runs.
pub fn reset() {
    reset_spans();
    reset_metrics();
    scope::reset_scopes();
}

/// FNV-1a 64-bit hash — the workspace's standard content fingerprint
/// (tiny, deterministic, dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes tests that toggle the global [`enabled`] flag or the span
/// log (they would race under the default parallel test runner).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_switch_gates_recording() {
        let _guard = crate::test_lock();
        set_enabled(false);
        reset();
        counter("t.off").add(5);
        gauge("t.off-gauge").set(2.0);
        assert_eq!(counter("t.off").get(), 0);
        assert_eq!(gauge("t.off-gauge").get(), 0.0);

        set_enabled(true);
        counter("t.on").add(5);
        gauge("t.on-gauge").set(2.0);
        set_enabled(false);
        assert_eq!(counter("t.on").get(), 5);
        assert_eq!(gauge("t.on-gauge").get(), 2.0);
        reset();
    }

    /// The switch does not gate spans: only the log does, from
    /// `log_span_events` to the next `reset`.
    #[test]
    fn a_span_records_only_while_the_log_is_open() {
        let _guard = crate::test_lock();
        reset();
        set_enabled(true);
        let logged = || -> Vec<(String, u64)> {
            span_totals()
                .into_iter()
                .map(|t| (t.name, t.count))
                .collect()
        };
        {
            let _s = span("t", "unlogged");
            counter("t.unlogged").add(1);
        }
        assert_eq!(logged(), [], "a span recorded with no log open");
        assert!(folded_profile().counts.is_empty());
        assert_eq!(counter("t.unlogged").get(), 1, "the counter counts anyway");

        log_span_events();
        for _ in 0..2 {
            let _s = span("t", "logged");
        }
        log_span_events();
        assert_eq!(
            logged(),
            [("logged".into(), 2)],
            "asking again keeps the log"
        );

        reset();
        {
            let _s = span("t", "after-reset");
        }
        set_enabled(false);
        assert_eq!(logged(), [], "a reset stops the log");
        assert!(folded_profile().counts.is_empty());
        assert_eq!(span::dropped_events(), 0);
    }
}
