//! Run scopes: everything `dgrd` knows about "the state of job *id*",
//! in one registry.
//!
//! A scope holds a job's headline status (label, phase, iteration, loss
//! — its `/status` row), every telemetry row it has ticked (the job's one
//! store of them: its telemetry and report while it runs and once it is
//! finished), its sentinel [`RuleEngine`] with the findings raised so
//! far (its `/health` verdict) and, when armed, its SLO watchdog. One
//! mutex guards the one map; [`tick`] is the single write a training
//! iteration makes and [`scope_remove`] the single call that forgets a
//! job.
//!
//! A thread has no scope until [`status_scope`] opens one for the
//! lifetime of its guard; a `dgrd` worker wraps each job in one, keyed by
//! the job id, so concurrent jobs never overwrite each other.
//! `status_begin` / `status_phase` / [`tick`] land in the thread's open
//! scope and nowhere else: a CLI run opens none, so it records no run
//! state. A scope is listed on `/status` once a
//! status call has touched it and has a verdict once it has ticked or
//! been armed: a job that failed before training has a status row and
//! no verdict.
//!
//! Every write is gated on the open scope, its one reader, and nothing
//! else — a run outside a job pays one thread-local read per call site
//! and never touches the mutex — and the tick path waits on nothing but
//! that mutex (`dgrd`'s `/health` reads scopes while holding its job
//! table).
//!
//! # The rows
//!
//! A scope keeps every row, 32 bytes each, until [`status_begin`] starts
//! a new run in it or [`scope_remove`] forgets it: 640 KB for a
//! 20 000-iteration run, plus the `Vec`'s growth slack. What bounds a
//! daemon's rows is its job retention, which evicts a finished job's
//! scope with the job.
//!
//! # The watchdog
//!
//! [`watchdog_arm`] gives a scope a wall-clock deadline and/or a stall
//! budget; every tick checks both, and on breach raises the job's
//! cooperative-cancel flag and records a structured `watchdog: …` reason
//! the worker turns into a `failed` terminal state. The watchdog only
//! ever *cancels* — it never perturbs the optimization — so guide output
//! stays byte-identical with observability on or off.

use crate::json::JsonObject;
use crate::sentinel::{rank_findings, verdict_of, Finding, RuleEngine, Verdict};
use crate::telemetry::IterationRow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The headline state of one job: a `/status` row.
#[derive(Debug, Clone, Default)]
struct RunStatus {
    /// The job's label.
    job: String,
    /// Current pipeline phase (`"forest"`, `"relax"`, `"train"`,
    /// `"extract"`, `"refine"`, `"assign_layers"`).
    phase: String,
    /// Last completed training iteration (monotone across rounds).
    iter: u64,
    /// Planned total iterations (0 when unknown).
    total_iters: u64,
    /// Latest training loss.
    loss: f32,
    /// Latest unweighted overflow term.
    overflow: f32,
    /// Current Gumbel-softmax temperature.
    temperature: f32,
    /// `/status`'s `batch`: whatever [`status_begin`] was handed, at
    /// least 1. A run is one seed; every caller in the workspace passes 1.
    batch: u64,
}

/// Watchdog configuration and breach record of one scope.
struct Watchdog {
    cancel: Arc<AtomicBool>,
    armed_at: Instant,
    deadline_ms: Option<u64>,
    max_stall_iters: Option<u64>,
    breach: Option<String>,
}

#[derive(Default)]
struct Scope {
    status: RunStatus,
    rows: Vec<IterationRow>,
    engine: RuleEngine,
    findings: Vec<Finding>,
    watchdog: Option<Watchdog>,
    /// A status call has touched the scope: `/status` lists it.
    published: bool,
    /// The scope has ticked or been armed: it has a verdict.
    watched: bool,
}

impl Scope {
    /// Verdict and findings, worst first.
    fn health(&self) -> (Verdict, Vec<Finding>) {
        let mut findings = self.findings.clone();
        rank_findings(&mut findings);
        (verdict_of(&findings), findings)
    }
}

thread_local! {
    /// The scope id this thread's updates land in, if one is open.
    static SCOPE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The registry: every live scope by id.
type Scopes = BTreeMap<u64, Scope>;

fn scopes() -> MutexGuard<'static, Scopes> {
    static SCOPES: Mutex<Scopes> = Mutex::new(BTreeMap::new());
    SCOPES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's open scope id (`None` outside a job).
pub fn status_scope_id() -> Option<u64> {
    SCOPE.with(Cell::get)
}

/// RAII guard restoring the previous scope id on drop.
#[derive(Debug)]
pub struct StatusScope {
    prev: Option<u64>,
}

/// Switches the calling thread's scope to `id` until the guard drops.
/// Daemon workers wrap each job's pipeline run in one of these so the
/// job's status and ticks land under its own id.
#[must_use = "the scope reverts when the guard drops"]
pub fn status_scope(id: u64) -> StatusScope {
    StatusScope {
        prev: SCOPE.with(|s| s.replace(Some(id))),
    }
}

impl Drop for StatusScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Applies `f` to the open scope's status row, if a scope is open.
fn publish(f: impl FnOnce(&mut Scope)) {
    let Some(id) = status_scope_id() else {
        return;
    };
    let mut scopes = scopes();
    let s = scopes.entry(id).or_default();
    s.published = true;
    f(s);
}

/// Sets the job name and planned iteration total for the open scope,
/// clearing its status row and telemetry rows — and nothing else: a
/// watchdog armed before the run begins stays armed.
pub fn status_begin(job: &str, total_iters: u64, batch: u64) {
    publish(|s| {
        s.status = RunStatus {
            job: job.to_string(),
            total_iters,
            batch: batch.max(1),
            ..RunStatus::default()
        };
        s.rows.clear();
    });
}

/// Sets the current pipeline phase of the open scope.
pub fn status_phase(phase: &str) {
    publish(|s| {
        if s.status.phase != phase {
            s.status.phase.clear();
            s.status.phase.push_str(phase);
        }
    });
}

/// Sentinel rules with a live alert gauge on `/metrics`, by name.
const ALERT_GAUGES: [(&str, &str); 5] = [
    ("divergence", "sentinel.alert.divergence"),
    ("grad_spike", "sentinel.alert.grad_spike"),
    ("oscillation", "sentinel.alert.oscillation"),
    ("overflow_stall", "sentinel.alert.overflow_stall"),
    ("poisoning", "sentinel.alert.poisoning"),
];

fn publish_alerts(scopes: &Scopes) {
    let unhealthy = scopes.values().filter(|s| !s.findings.is_empty()).count();
    crate::gauge("sentinel.unhealthy_jobs").set(unhealthy as f64);
    for (rule, gauge) in ALERT_GAUGES {
        let raised = scopes
            .values()
            .flat_map(|s| &s.findings)
            .filter(|f| f.rule == rule);
        crate::gauge(gauge).set(raised.count() as f64);
    }
}

/// Feeds one iteration's row to the open scope: headline numbers,
/// kept rows, sentinel rules and watchdog. The one call the
/// training loop makes per row; it never touches the optimization state.
pub fn tick(row: &IterationRow) {
    let Some(id) = status_scope_id() else {
        return;
    };
    let iter = row.iter as u64;
    let mut scopes = scopes();
    let s = scopes.entry(id).or_default();
    s.published = true;
    s.watched = true;
    s.status.iter = iter;
    s.status.loss = row.loss;
    s.status.overflow = row.overflow;
    s.status.temperature = row.temperature;
    s.rows.push(*row);

    let raised = s.engine.observe(row);
    let news = !raised.is_empty();
    if news {
        crate::counter("sentinel.findings.total").add(raised.len() as u64);
    }
    s.findings.extend(raised);

    if let Some(w) = s.watchdog.as_mut().filter(|w| w.breach.is_none()) {
        let elapsed_ms = w.armed_at.elapsed().as_millis() as u64;
        let stalled = iter.saturating_sub(s.engine.last_loss_improve());
        w.breach = match (w.deadline_ms, w.max_stall_iters) {
            (Some(deadline), _) if elapsed_ms >= deadline => Some(format!(
                "watchdog: deadline_ms={deadline} exceeded ({elapsed_ms}ms elapsed at iteration {})",
                row.iter
            )),
            (_, Some(budget)) if stalled >= budget => Some(format!(
                "watchdog: no loss improvement in {stalled} iterations (max_stall_iters={budget})"
            )),
            _ => None,
        };
        if w.breach.is_some() {
            w.cancel.store(true, Ordering::Relaxed);
            crate::counter("sentinel.watchdog.breaches").add(1);
        }
    }
    if news {
        publish_alerts(&scopes);
    }
}

/// Arms the SLO watchdog of scope `id`: on breach a tick raises `cancel`
/// (the run's cooperative-cancel flag) and records a structured reason
/// retrievable via [`watchdog_breach`]. Arming with neither limit is a
/// no-op.
pub fn watchdog_arm(
    id: u64,
    cancel: Arc<AtomicBool>,
    deadline_ms: Option<u64>,
    max_stall_iters: Option<u64>,
) {
    if deadline_ms.is_none() && max_stall_iters.is_none() {
        return;
    }
    let mut scopes = scopes();
    let s = scopes.entry(id).or_default();
    s.watched = true;
    s.watchdog = Some(Watchdog {
        cancel,
        armed_at: Instant::now(),
        deadline_ms,
        max_stall_iters,
        breach: None,
    });
}

/// The structured breach reason for scope `id`, if its watchdog fired.
pub fn watchdog_breach(id: u64) -> Option<String> {
    scopes().get(&id)?.watchdog.as_ref()?.breach.clone()
}

/// Forgets scope `id` — status row, rows, sentinel state and watchdog
/// (job evicted from a daemon's table). Removing a missing scope is a
/// no-op.
pub fn scope_remove(id: u64) {
    let mut scopes = scopes();
    scopes.remove(&id);
    publish_alerts(&scopes);
}

/// Forgets every scope. Part of [`crate::reset`].
pub(crate) fn reset_scopes() {
    scopes().clear();
}

/// Scope `id`'s telemetry rows as JSONL text, each [`IterationRow::to_json`]
/// plus a newline, as a `--telemetry` file holds them (empty for an
/// unknown scope) — a `dgrd` job's telemetry, running or finished.
pub fn status_ring_jsonl_of(id: u64) -> String {
    // copied out under the lock, written outside it: every training
    // thread's tick waits on this lock
    let rows = scopes().get(&id).map_or_else(Vec::new, |s| s.rows.clone());
    rows.iter().map(|r| r.to_json() + "\n").collect()
}

/// `dgrd`'s `/status` payload: the process RSS in bytes (`null` when
/// unmeasurable) and one row per published scope under `"jobs"`, so a
/// multi-job daemon reports every job instead of last-writer-wins.
pub fn status_json() -> String {
    // rows are copied out first: the RSS read below is a /proc read, and
    // every training thread's tick waits on the lock held here
    let rows: Vec<(u64, RunStatus, usize)> = scopes()
        .iter()
        .filter(|(_, s)| s.published)
        .map(|(&id, s)| (id, s.status.clone(), s.rows.len()))
        .collect();
    let jobs: Vec<String> = rows
        .iter()
        .map(|(id, s, ring_rows)| {
            let mut row = JsonObject::new();
            row.field_u64("id", *id);
            row.field_str("job", &s.job);
            row.field_str("phase", &s.phase);
            row.field_u64("iter", s.iter);
            row.field_u64("total_iters", s.total_iters);
            row.field_f32("loss", s.loss);
            row.field_f32("overflow", s.overflow);
            row.field_f32("temperature", s.temperature);
            row.field_u64("batch", s.batch);
            row.field_u64("ring_rows", *ring_rows as u64);
            row.finish()
        })
        .collect();
    let mut o = JsonObject::new();
    o.field_opt_u64("rss", crate::process_memory().rss);
    o.field_raw("jobs", &format!("[{}]", jobs.join(",")));
    o.finish()
}

/// The current verdict and ranked findings for scope `id` (`None` when
/// the scope has neither ticked nor been armed).
pub fn health_of(id: u64) -> Option<(Verdict, Vec<Finding>)> {
    let scopes = scopes();
    scopes.get(&id).filter(|s| s.watched).map(Scope::health)
}

/// Compact health summary of a `dgrd` job: `"ok"` or a
/// comma-joined `rule@iter` list, worst first.
pub fn health_summary_of(id: u64) -> String {
    match health_of(id) {
        Some((_, findings)) if !findings.is_empty() => findings
            .iter()
            .map(|f| format!("{}@{}", f.rule, f.iter))
            .collect::<Vec<_>>()
            .join(","),
        _ => "ok".to_string(),
    }
}

/// The standard HTML report of scope `id` as the job stands: training
/// curves from the scope's rows and the health band when the scope is
/// watched. No rows at all render the "no telemetry" placeholder.
pub fn report_of(id: u64, title: String) -> String {
    // copied out under the lock, rendered outside it: every training
    // thread's tick waits on this lock
    let (rows, health) = {
        let scopes = scopes();
        let scope = scopes.get(&id);
        let rows = scope.map_or_else(Vec::new, |s| s.rows.clone());
        (rows, scope.filter(|s| s.watched).map(|s| s.health().1))
    };
    crate::render_report(&crate::ReportInputs {
        title,
        telemetry: (!rows.is_empty()).then_some(rows),
        health,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(iter: usize) -> IterationRow {
        IterationRow {
            iter,
            loss: iter as f32,
            wl: 1.0,
            vias: 1.0,
            overflow: 0.5,
            temperature: 1.0,
            grad_norm: 0.1,
        }
    }

    fn loss_row(iter: usize, loss: f32) -> IterationRow {
        IterationRow {
            loss,
            overflow: 0.0,
            ..row(iter)
        }
    }

    /// Scope `id`'s status row, if a status call has touched it.
    fn status_of(id: u64) -> Option<RunStatus> {
        scopes()
            .get(&id)
            .filter(|s| s.published)
            .map(|s| s.status.clone())
    }

    #[test]
    fn ticks_update_headline_and_ring() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _scope = status_scope(1);
            status_begin("train", 100, 1);
            status_phase("train");
            for i in 0..10 {
                tick(&row(i));
            }
        }
        crate::set_enabled(false);
        let s = status_of(1).unwrap();
        assert_eq!((s.job.as_str(), s.phase.as_str()), ("train", "train"));
        assert_eq!((s.iter, s.loss), (9, 9.0));
        assert_eq!(status_ring_jsonl_of(1).lines().count(), 10);
        let json = status_json();
        assert!(json.starts_with("{\"rss\":"), "{json}");
        assert!(
            json.contains(",\"jobs\":[{\"id\":1,\"job\":\"train\""),
            "{json}"
        );
        assert!(json.contains("\"iter\":9"), "{json}");
    }

    /// Past the 2 048 rows the scope once thinned at, every row stays,
    /// in order, and a new run begun in the scope starts empty.
    #[test]
    fn a_scope_keeps_every_row_in_order() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        let _scope = status_scope(2);
        status_begin("train", 0, 1);
        let rows: Vec<IterationRow> = (0..5_000).map(row).collect();
        rows.iter().for_each(tick);
        let want: String = rows.iter().map(|r| r.to_json() + "\n").collect();
        assert!(
            status_ring_jsonl_of(2) == want,
            "the scope lost or moved a row"
        );
        status_begin("train", 0, 1);
        crate::set_enabled(false);
        assert_eq!(status_ring_jsonl_of(2), "");
    }

    /// A thread with no open scope — a CLI run — records no run state,
    /// with the metrics switch on: no `/status` row, rows or verdict anywhere.
    #[test]
    fn an_unscoped_thread_records_no_run_state() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        assert_eq!(status_scope_id(), None);
        status_begin("route", 10, 1);
        status_phase("train");
        tick(&loss_row(0, f32::NAN));
        crate::set_enabled(false);
        assert!(scopes().is_empty(), "an unscoped call made a scope");
        assert!(status_json().ends_with(",\"jobs\":[]}"));
        assert!(health_of(0).is_none());
    }

    #[test]
    fn scopes_isolate_concurrent_jobs() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _scope = status_scope(71);
            status_begin("job-71", 500, 1);
            status_phase("train");
            tick(&row(4));
        }
        {
            let _scope = status_scope(72);
            status_begin("job-72", 200, 1);
            status_phase("extract");
        }
        crate::set_enabled(false);

        let s71 = status_of(71).unwrap();
        assert_eq!((s71.job.as_str(), s71.iter), ("job-71", 4));
        assert_eq!(status_of(72).unwrap().phase, "extract");
        assert_eq!(status_ring_jsonl_of(71).lines().count(), 1);
        assert_eq!(status_ring_jsonl_of(72), "");
        let json = status_json();
        assert!(json.contains("\"job-71\""), "{json}");
        assert!(json.contains("\"job-72\""), "{json}");

        scope_remove(71);
        assert!(!status_json().contains("\"job-71\""));
    }

    #[test]
    fn scope_guard_restores_previous_scope() {
        let _guard = crate::test_lock();
        assert_eq!(status_scope_id(), None);
        {
            let _a = status_scope(5);
            assert_eq!(status_scope_id(), Some(5));
            {
                let _b = status_scope(9);
                assert_eq!(status_scope_id(), Some(9));
            }
            assert_eq!(status_scope_id(), Some(5));
        }
        assert_eq!(status_scope_id(), None);
    }

    #[test]
    fn live_scopes_tick_and_report_health() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _scope = status_scope(301);
            for i in 0..120 {
                tick(&loss_row(i, 50.0 * (1.0 + 0.08 * i as f32)));
            }
        }
        {
            let _scope = status_scope(302);
            for i in 0..60 {
                tick(&loss_row(i, 100.0 - i as f32));
            }
        }
        crate::set_enabled(false);
        let (v301, f301) = health_of(301).unwrap();
        assert_eq!(v301, Verdict::Critical);
        assert!(f301.iter().any(|f| f.rule == "divergence"));
        assert_eq!(health_of(302).unwrap().0, Verdict::Ok);
        assert!(health_summary_of(301).contains("divergence@"));
        assert_eq!(health_summary_of(302), "ok");
        let report = report_of(301, "t".into());
        assert!(report.contains("class=\"healthband\""));
        scope_remove(301);
        assert!(health_of(301).is_none());
    }

    #[test]
    fn watchdog_deadline_raises_cancel_with_reason() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let _scope = status_scope(401);
            watchdog_arm(401, Arc::clone(&cancel), Some(0), None);
            tick(&loss_row(0, 10.0));
        }
        crate::set_enabled(false);
        assert!(cancel.load(Ordering::Relaxed), "cancel flag raised");
        let reason = watchdog_breach(401).unwrap();
        assert!(reason.starts_with("watchdog: deadline_ms=0"), "{reason}");
    }

    #[test]
    fn watchdog_stall_budget_counts_from_last_improvement() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let _scope = status_scope(402);
            watchdog_arm(402, Arc::clone(&cancel), None, Some(50));
            // loss improves for 30 iters, then flatlines
            for i in 0..30 {
                tick(&loss_row(i, 100.0 - i as f32));
            }
            for i in 30..85 {
                tick(&loss_row(i, 71.0));
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        crate::set_enabled(false);
        assert!(cancel.load(Ordering::Relaxed));
        let reason = watchdog_breach(402).unwrap();
        assert!(reason.contains("max_stall_iters=50"), "{reason}");
    }

    #[test]
    fn reset_clears_status_rows_and_rings() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let _scope = status_scope(4);
            status_begin("train", 10, 1);
            tick(&row(0));
        }
        crate::set_enabled(false);
        crate::reset();
        assert!(status_of(4).is_none());
        assert_eq!(status_ring_jsonl_of(4), "");
        assert!(health_of(4).is_none());
        assert!(status_json().ends_with(",\"jobs\":[]}"));
    }

    fn golden_row(iter: usize, loss: f32) -> IterationRow {
        IterationRow {
            iter,
            loss,
            wl: loss * 0.6,
            vias: loss * 0.1,
            overflow: 0.25,
            temperature: 1.0 - iter as f32 / 128.0,
            grad_norm: loss * 0.01,
        }
    }

    /// `"rss":<bytes>` is the one nondeterministic field of `/status`.
    fn mask_rss(json: &str) -> String {
        let start = json.find("\"rss\":").expect("status has rss") + "\"rss\":".len();
        let end = start + json[start..].find(',').expect("rss is not last");
        format!("{}<masked>{}", &json[..start], &json[end..])
    }

    /// Sorted: the exposition lists metrics in registration order, which
    /// the other tests of this binary would otherwise decide.
    fn sentinel_metric_lines() -> String {
        let text = crate::prometheus_text();
        let mut lines: Vec<&str> = text.lines().filter(|l| l.contains("sentinel_")).collect();
        lines.sort_unstable();
        lines.join("\n")
    }

    /// Every scope-keyed surface, byte for byte, over a scripted run of
    /// a CLI run's calls (begun outside any scope: they land nowhere), a
    /// diverging job whose stall watchdog — armed *before* `status_begin`,
    /// as `dgrd` arms it — breaches, and a job with a NaN row and a
    /// deadline that stays armed; then the eviction of the first job.
    /// Recorded at the commit before the registries were merged,
    /// re-recorded when rows lost the process RSS and the batch tag and
    /// the third job its second run, and when `/status` lost the serving
    /// thread's fields and scope 0 (`DGR_UPDATE_GOLDEN=1` rewrites it).
    #[test]
    fn scope_surfaces_match_the_golden_recorded_before_the_merge() {
        use std::fmt::Write as _;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        status_begin("cli", 40, 1);
        status_phase("candidates");

        let cancel_11 = Arc::new(AtomicBool::new(false));
        watchdog_arm(11, Arc::clone(&cancel_11), None, Some(20));
        {
            let _scope = status_scope(11);
            status_begin("job-11", 300, 1);
            status_phase("train");
            let _span = crate::span("test", "golden-scope-11");
            for i in 0..48 {
                tick(&golden_row(i, 50.0 * (1.0 + 0.08 * i as f32)));
            }
        }
        let cancel_12 = Arc::new(AtomicBool::new(false));
        watchdog_arm(12, Arc::clone(&cancel_12), Some(1 << 40), None);
        {
            let _scope = status_scope(12);
            // the third argument is only echoed, as `/status`'s `batch`
            status_begin("job-12", 24, 2);
            status_phase("train");
            for i in 0..24 {
                let mut r = golden_row(i, 90.0 - i as f32);
                if i == 7 {
                    r.grad_norm = f32::NAN;
                }
                tick(&r);
            }
            status_phase("extract");
        }
        assert!(cancel_11.load(Ordering::Relaxed) && !cancel_12.load(Ordering::Relaxed));

        let mut got = String::new();
        let mut section = |name: &str, body: &str| {
            writeln!(got, "== {name}\n{}", body.trim_end_matches('\n')).unwrap();
        };
        section("status_json", &mask_rss(&status_json()));
        for id in [0, 11, 12, 99] {
            section(&format!("health_summary_of({id})"), &health_summary_of(id));
            section(
                &format!("watchdog_breach({id})"),
                &format!("{:?}", watchdog_breach(id)),
            );
            section(
                &format!("health_of({id}) verdict"),
                &format!("{:?}", health_of(id).map(|h| h.0)),
            );
        }
        // the findings the report's health band draws, one JSON line each
        for id in [11, 12] {
            let findings = health_of(id).map(|h| h.1).unwrap_or_default();
            let lines: String = findings.iter().map(|f| f.to_json() + "\n").collect();
            section(&format!("health_timeline_jsonl_of({id})"), &lines);
        }
        section("status_ring_jsonl_of(11)", &status_ring_jsonl_of(11));
        section("status_ring_jsonl_of(12)", &status_ring_jsonl_of(12));
        section("metrics sentinel_*", &sentinel_metric_lines());

        // the job's span recorded nothing: no one opened the log
        assert!(crate::span_totals()
            .iter()
            .all(|t| t.name != "golden-scope-11"));
        assert!(crate::folded_profile().counts.is_empty());
        scope_remove(11);
        section("status_json after evicting 11", &mask_rss(&status_json()));
        section(
            "health_summary_of(11) after evicting 11",
            &health_summary_of(11),
        );
        section(
            "status_ring_jsonl_of(11) after evicting 11",
            &status_ring_jsonl_of(11),
        );
        section(
            "metrics sentinel_* after evicting 11",
            &sentinel_metric_lines(),
        );
        scope_remove(12);
        scope_remove(0);
        section(
            "metrics sentinel_* after evicting all",
            &sentinel_metric_lines(),
        );
        crate::set_enabled(false);
        crate::reset();

        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/obs_scope_surfaces.txt"
        );
        if std::env::var_os("DGR_UPDATE_GOLDEN").is_some() {
            std::fs::write(path, &got).unwrap();
            return;
        }
        let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
            panic!("read {path}: {e}\n(run with DGR_UPDATE_GOLDEN=1 to create)")
        });
        assert_eq!(got, want, "a scope-keyed surface changed its bytes");
    }
}
