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
//! * [`scope`] — the per-run registry behind `/status`, `/health` and the
//!   live `/report`: one entry per run id (headline status, telemetry
//!   ring, sentinel findings, SLO watchdog), written by one [`tick`] per
//!   iteration and forgotten by one [`scope_remove`]; [`sentinel`] holds
//!   the pure convergence rules it and `dgr doctor` evaluate,
//! * [`SnapshotSink`] — a spatial congestion-snapshot stream (per-edge
//!   demand/overflow grids plus per-net attribution records) captured at
//!   iteration strides,
//! * [`render_report`] — the deterministic self-contained HTML
//!   post-mortem renderer behind `dgr report` and the live `/report`: a
//!   pure function of the records above. Each file format is read back
//!   in the module that writes it ([`rows_from_jsonl`],
//!   [`SnapshotStream::parse`], [`parse_trace`], [`FoldedProfile::parse`]),
//!   the three JSON ones through [`parse`], a minimal JSON reader.
//!
//! # Overhead contract
//!
//! Observability is **off by default**. Every recording site first checks
//! [`enabled`] — one relaxed atomic load and a predictable branch — so
//! uninstrumented hot paths (the front end's fan-outs, the training
//! inner loop) stay branch-predictable and bench-neutral. Flip the master
//! switch with [`set_enabled`]; telemetry sinks are explicit objects and
//! work regardless of the switch.
//!
//! The crate has zero external dependencies, matching the offline
//! `compat/` policy of the workspace.
//!
//! # Examples
//!
//! ```
//! dgr_obs::set_enabled(true);
//! dgr_obs::log_span_events(); // as `--trace` does: keep the event log
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
pub mod ledger;
pub mod metrics;
pub mod parse;
pub mod profile;
pub mod report;
pub mod scope;
pub mod sentinel;
pub mod serve;
pub mod snapshot;
pub mod span;
pub mod telemetry;

mod sink;

pub use ledger::LedgerRecord;
pub use metrics::{
    counter, gauge, metrics_snapshot, prometheus_text, reset_metrics, Counter, Gauge,
    MetricSnapshot, MetricValue,
};
pub use profile::{process_memory, FoldedProfile, ProcessMemory};
pub use report::{render_report, ReportInputs};
pub use scope::{
    health_of, health_summary_of, report_of, scope_remove, status_begin, status_phase,
    status_ring_jsonl_of, status_scope, status_scope_id, tick, watchdog_arm, watchdog_breach,
    StatusScope,
};
pub use sentinel::{
    analyze_rows, rank_findings, rate_collapse_finding, verdict_of, Finding, RuleEngine, Severity,
    Verdict,
};
pub use serve::{HttpHandler, HttpRequest, HttpResponse, ObsServer, DEFAULT_MAX_BODY_BYTES};
pub use snapshot::{
    AttributionRecord, NetShare, SnapshotHeader, SnapshotRecord, SnapshotSink, SnapshotStream,
};
pub use span::{
    chrome_trace, folded_profile, log_span_events, parse_trace, reset_spans, span, span_totals,
    write_chrome_trace, PhaseTotal, SpanGuard, SpanTotal,
};
pub use telemetry::{rows_from_jsonl, IterationRow, TelemetrySink};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability recording is on. One relaxed load — safe to call
/// on any hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the master recording switch. Spans and metric recordings are
/// dropped while off; [`TelemetrySink`]s are unaffected (they are
/// explicit objects, not ambient state).
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

/// Serializes tests that toggle the global [`enabled`] flag (they would
/// race under the default parallel test runner).
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
        {
            let _s = span("t", "off-span");
            counter("t.off").add(5);
        }
        assert!(span_totals().iter().all(|t| t.name != "off-span"));
        assert_eq!(counter("t.off").get(), 0);

        set_enabled(true);
        {
            let _s = span("t", "on-span");
            counter("t.on").add(5);
        }
        set_enabled(false);
        let totals = span_totals();
        let on = totals.iter().find(|t| t.name == "on-span").unwrap();
        assert_eq!(on.count, 1);
        assert_eq!(counter("t.on").get(), 5);
        reset();
    }
}
