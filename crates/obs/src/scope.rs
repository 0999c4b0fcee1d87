//! Run scopes: everything the process knows about "the state of run
//! *id*", in one registry.
//!
//! A scope holds a run's headline status (job, phase, iteration, loss —
//! the `/status` row), a bounded ring of its recent telemetry rows (the
//! mid-run `/report` curves), its sentinel [`RuleEngine`] with the
//! findings raised so far (the `/health` row) and, when a daemon armed
//! one, its SLO watchdog. One mutex guards the one map; [`tick`] is the
//! single write a training iteration makes and [`scope_remove`] the
//! single call that forgets a run, span events included.
//!
//! Each thread carries a current scope id — `0`, the one-shot CLI run,
//! until [`status_scope`] switches it for the lifetime of its guard; a
//! `dgrd` worker wraps each job in one, keyed by the job id, so
//! concurrent jobs never overwrite each other. `status_begin` /
//! `status_phase` / [`tick`] then land in that scope. A scope is listed
//! on `/status` once a status call has touched it and on `/health` once
//! it has ticked or been armed: a job that failed before training has a
//! status row and no verdict.
//!
//! Every write is gated on [`crate::enabled`] — an uninstrumented run
//! pays one relaxed load per call site and never touches the mutex — and
//! the tick path waits on nothing but that mutex (`dgrd`'s `/health`
//! reads scopes while holding its job table).
//!
//! # The ring
//!
//! Bounded at [`RING_CAPACITY`] rows by stride doubling: when full, the
//! keep-stride doubles and only rows whose iteration is a multiple of it
//! stay, so arbitrarily long runs keep an evenly thinned history in
//! every lane (newest rows always land; resolution degrades gracefully).
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

/// Maximum telemetry rows retained per scope for live report rendering.
pub const RING_CAPACITY: usize = 2048;

/// The headline state of one run: a `/status` row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStatus {
    /// What the process is doing: `"route"`, `"train"`, `"idle"`...
    pub job: String,
    /// Current pipeline phase (`"candidates"`, `"forest"`, `"relax"`,
    /// `"extract"`, `"train"`...).
    pub phase: String,
    /// Last completed training iteration (monotone across rounds).
    pub iter: u64,
    /// Planned total iterations (0 when unknown).
    pub total_iters: u64,
    /// Latest training loss (lane 0 for batched runs).
    pub loss: f32,
    /// Latest unweighted overflow term.
    pub overflow: f32,
    /// Current Gumbel-softmax temperature.
    pub temperature: f32,
    /// Batch lane count (1 for single-instance runs).
    pub batch: u64,
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
    ring: Vec<IterationRow>,
    /// The ring keeps rows whose iteration is a multiple of `1 << thinnings`.
    thinnings: u32,
    engine: RuleEngine,
    findings: Vec<Finding>,
    watchdog: Option<Watchdog>,
    /// A status call has touched the scope: `/status` lists it.
    published: bool,
    /// The scope has ticked or been armed: `/health` lists it.
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
    /// The scope id this thread's updates land in.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// The registry: every live scope by id.
type Scopes = BTreeMap<u64, Scope>;

fn scopes() -> MutexGuard<'static, Scopes> {
    static SCOPES: Mutex<Scopes> = Mutex::new(BTreeMap::new());
    SCOPES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's current scope id.
pub fn status_scope_id() -> u64 {
    SCOPE.with(Cell::get)
}

/// RAII guard restoring the previous scope id on drop.
#[derive(Debug)]
pub struct StatusScope {
    prev: u64,
}

/// Switches the calling thread's scope to `id` until the guard drops.
/// Daemon workers wrap each job's pipeline run in one of these so the
/// job's status, ticks and span events land under its own id.
#[must_use = "the scope reverts when the guard drops"]
pub fn status_scope(id: u64) -> StatusScope {
    StatusScope {
        prev: SCOPE.with(|s| s.replace(id)),
    }
}

impl Drop for StatusScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev));
    }
}

/// Applies `f` to the current scope's status row when recording is on.
fn publish(f: impl FnOnce(&mut Scope)) {
    if !crate::enabled() {
        return;
    }
    let mut scopes = scopes();
    let s = scopes.entry(status_scope_id()).or_default();
    s.published = true;
    f(s);
}

/// Sets the job name and planned iteration total for the current scope,
/// clearing its status row and ring — and nothing else: a watchdog armed
/// before the run begins stays armed.
pub fn status_begin(job: &str, total_iters: u64, batch: u64) {
    publish(|s| {
        s.status = RunStatus {
            job: job.to_string(),
            total_iters,
            batch: batch.max(1),
            ..RunStatus::default()
        };
        s.ring.clear();
        s.thinnings = 0;
    });
}

/// Sets the current pipeline phase of the current scope.
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

/// Feeds one iteration's row to the current scope: headline numbers
/// (lane 0 or untagged rows), telemetry ring (every lane), sentinel
/// rules and watchdog. The one call the training loop makes per row;
/// it never touches the optimization state.
pub fn tick(row: &IterationRow) {
    if !crate::enabled() {
        return;
    }
    let iter = row.iter as u64;
    let mut scopes = scopes();
    let s = scopes.entry(status_scope_id()).or_default();
    s.published = true;
    s.watched = true;
    if row.lane.unwrap_or(0) == 0 {
        s.status.iter = iter;
        s.status.loss = row.loss;
        s.status.overflow = row.overflow;
        s.status.temperature = row.temperature;
    }
    if iter.is_multiple_of(1 << s.thinnings) {
        s.ring.push(*row);
        if s.ring.len() >= RING_CAPACITY && s.thinnings < 63 {
            s.thinnings += 1;
            let stride = 1u64 << s.thinnings;
            s.ring.retain(|r| (r.iter as u64).is_multiple_of(stride));
        }
    }

    let raised = s.engine.observe(row);
    let news = !raised.is_empty();
    for f in &raised {
        crate::counter("sentinel.findings.total").add(1);
        crate::histogram("sentinel.finding_iter").record(f.iter);
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

/// Forgets scope `id` — status row, ring, sentinel state, watchdog and
/// the detailed span events recorded under it (job evicted from a
/// daemon's table). Removing a missing scope is a no-op.
pub fn scope_remove(id: u64) {
    {
        let mut scopes = scopes();
        scopes.remove(&id);
        publish_alerts(&scopes);
    }
    crate::span::remove_scope(id);
}

/// Forgets every scope. Part of [`crate::reset`].
pub(crate) fn reset_scopes() {
    scopes().clear();
}

/// A copy of the current scope's status row (the default row when the
/// scope does not exist).
pub(crate) fn status_snapshot() -> RunStatus {
    scopes()
        .get(&status_scope_id())
        .map(|s| s.status.clone())
        .unwrap_or_default()
}

/// Scope `id`'s retained telemetry rows as JSONL text (empty for an
/// unknown scope) — the telemetry of a job that is still running.
pub fn status_ring_jsonl_of(id: u64) -> String {
    let scopes = scopes();
    let rows = scopes.get(&id).map_or(&[][..], |s| &s.ring);
    rows.iter().map(|r| r.to_json() + "\n").collect()
}

fn push_status_fields(o: &mut JsonObject, s: &RunStatus) {
    o.field_str("job", &s.job);
    o.field_str("phase", &s.phase);
    o.field_u64("iter", s.iter);
    o.field_u64("total_iters", s.total_iters);
    o.field_f32("loss", s.loss);
    o.field_f32("overflow", s.overflow);
    o.field_f32("temperature", s.temperature);
    o.field_u64("batch", s.batch);
}

/// The `/status` JSON payload: the serving thread's scope fields at the
/// top level (plus the current process RSS in bytes; `rss` is `null`
/// when unmeasurable), and one row per published scope under `"jobs"` so
/// a multi-job daemon reports every run instead of last-writer-wins.
pub(crate) fn status_json() -> String {
    // rows are copied out first: the RSS read below is a /proc read, and
    // every training thread's tick waits on the lock held here
    let (own, rows) = {
        let scopes = scopes();
        let own = scopes.get(&status_scope_id()).map(|s| s.status.clone());
        let rows: Vec<(u64, RunStatus, usize)> = scopes
            .iter()
            .filter(|(_, s)| s.published)
            .map(|(&id, s)| (id, s.status.clone(), s.ring.len()))
            .collect();
        (own.unwrap_or_default(), rows)
    };
    let mut o = JsonObject::new();
    push_status_fields(&mut o, &own);
    o.field_opt_u64("rss", crate::profile::read_rss_bytes());
    let jobs: Vec<String> = rows
        .iter()
        .map(|(id, status, ring_rows)| {
            let mut row = JsonObject::new();
            row.field_u64("id", *id);
            push_status_fields(&mut row, status);
            row.field_u64("ring_rows", *ring_rows as u64);
            row.finish()
        })
        .collect();
    o.field_raw("jobs", &format!("[{}]", jobs.join(",")));
    o.finish()
}

/// The current verdict and ranked findings for scope `id` (`None` when
/// the scope has neither ticked nor been armed).
pub fn health_of(id: u64) -> Option<(Verdict, Vec<Finding>)> {
    let scopes = scopes();
    scopes.get(&id).filter(|s| s.watched).map(Scope::health)
}

/// Compact health summary for the ledger record: `"ok"` or a
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

/// Scope `id`'s findings as JSONL, worst first — the health-band input
/// of the HTML report (`None` for an unwatched scope, which has no band).
fn health_timeline_of(id: u64) -> Option<String> {
    let (_, findings) = health_of(id)?;
    Some(findings.iter().map(|f| f.to_json() + "\n").collect())
}

/// The `/health` JSON payload: overall verdict (worst across watched
/// scopes) plus one row per scope with its ranked findings.
pub(crate) fn health_json() -> String {
    let scopes = scopes();
    let mut overall = Verdict::Ok;
    let mut rows = Vec::new();
    for (&id, s) in scopes.iter().filter(|(_, s)| s.watched) {
        let (verdict, findings) = s.health();
        overall = overall.max(verdict);
        let mut row = JsonObject::new();
        row.field_u64("id", id);
        row.field_str("verdict", verdict.as_str());
        if let Some(w) = &s.watchdog {
            row.field_str("watchdog", w.breach.as_deref().unwrap_or("armed"));
        }
        let findings: Vec<String> = findings.iter().map(Finding::to_json).collect();
        row.field_raw("findings", &format!("[{}]", findings.join(",")));
        rows.push(row.finish());
    }
    let mut o = JsonObject::new();
    o.field_str("verdict", overall.as_str());
    o.field_u64("jobs", rows.len() as u64);
    o.field_raw("rows", &format!("[{}]", rows.join(",")));
    o.finish()
}

/// The standard HTML report of scope `id` as the run stands: training
/// curves from `telemetry` (JSONL — the scope's ring mid-run, the full
/// stream once a daemon has stored it), the health band when the scope
/// is watched, the span timeline when a `trace` is given. Snapshot grids
/// are file-bound, so the congestion section renders its placeholder.
///
/// # Errors
///
/// The renderer's message when an input does not parse.
pub fn report_of(
    id: u64,
    title: String,
    telemetry: String,
    trace: Option<String>,
) -> Result<String, String> {
    crate::report::render_report(&crate::report::ReportInputs {
        title,
        telemetry: (!telemetry.is_empty()).then_some(telemetry),
        snapshots: None,
        trace,
        profile: None,
        health: health_timeline_of(id),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(iter: usize, lane: Option<u64>) -> IterationRow {
        IterationRow {
            iter,
            loss: iter as f32,
            wl: 1.0,
            vias: 1.0,
            overflow: 0.5,
            temperature: 1.0,
            grad_norm: 0.1,
            mem_rss: None,
            lane,
        }
    }

    fn loss_row(iter: usize, loss: f32) -> IterationRow {
        IterationRow {
            loss,
            overflow: 0.0,
            ..row(iter, None)
        }
    }

    /// The iterations scope `id`'s ring holds for `lane`.
    fn ring_iters(id: u64, lane: Option<u64>) -> Vec<usize> {
        let rows = crate::rows_from_jsonl(&status_ring_jsonl_of(id)).unwrap();
        let of_lane = rows.iter().filter(|r| r.lane == lane);
        of_lane.map(|r| r.iter).collect()
    }

    #[test]
    fn ticks_update_headline_and_ring() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        status_begin("train", 100, 1);
        status_phase("train");
        for i in 0..10 {
            tick(&row(i, None));
        }
        crate::set_enabled(false);
        let s = status_snapshot();
        assert_eq!(s.job, "train");
        assert_eq!(s.phase, "train");
        assert_eq!(s.iter, 9);
        assert_eq!(s.loss, 9.0);
        assert_eq!(status_ring_jsonl_of(0).lines().count(), 10);
        let json = status_json();
        assert!(json.contains("\"job\":\"train\""));
        assert!(json.contains("\"iter\":9"));
        assert!(json.contains("\"jobs\":["));
    }

    #[test]
    fn headline_tracks_lane_zero_only() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        status_begin("train", 10, 2);
        tick(&row(3, Some(0)));
        tick(&row(3, Some(1)));
        crate::set_enabled(false);
        let s = status_snapshot();
        assert_eq!(s.loss, 3.0);
        assert_eq!(s.batch, 2);
        assert_eq!(status_ring_jsonl_of(0).lines().count(), 2);
    }

    #[test]
    fn ring_thins_by_stride_doubling() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        status_begin("train", 0, 1);
        for i in 0..(RING_CAPACITY * 4) {
            tick(&row(i, None));
        }
        crate::set_enabled(false);
        let lines = status_ring_jsonl_of(0).lines().count();
        assert!(lines < RING_CAPACITY, "ring unbounded: {lines}");
        assert!(lines > RING_CAPACITY / 8, "ring over-thinned: {lines}");
    }

    /// `dgr train --batch 2` writes its lanes one after another, an odd
    /// number of rows each: thinning by position would leave the second
    /// lane on the odd iterations, where no later row lands.
    #[test]
    fn ring_thins_every_lane_onto_the_same_iterations() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        status_begin("train", 1025, 2);
        for lane in 0..2 {
            for i in 0..1025 {
                tick(&row(i, Some(lane)));
            }
        }
        crate::set_enabled(false);
        let even: Vec<usize> = (0..1025).step_by(2).collect();
        assert_eq!(ring_iters(0, Some(0)), even);
        assert_eq!(ring_iters(0, Some(1)), even);
    }

    #[test]
    fn disabled_updates_are_dropped() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        status_begin("idle", 0, 1);
        crate::set_enabled(false);
        status_begin("train", 5, 1);
        tick(&loss_row(1, f32::NAN));
        assert_eq!(status_snapshot().job, "idle");
        assert_eq!(status_ring_jsonl_of(0), "");
        assert!(health_of(0).is_none());
    }

    #[test]
    fn scopes_isolate_concurrent_jobs() {
        let _guard = crate::test_lock();
        crate::reset();
        crate::set_enabled(true);
        status_begin("cli", 10, 1);
        {
            let _scope = status_scope(71);
            status_begin("job-71", 500, 1);
            status_phase("train");
            tick(&row(4, None));
            let s71 = status_snapshot();
            assert_eq!((s71.job.as_str(), s71.iter), ("job-71", 4));
        }
        {
            let _scope = status_scope(72);
            status_begin("job-72", 200, 1);
            status_phase("extract");
            assert_eq!(status_snapshot().phase, "extract");
        }
        crate::set_enabled(false);

        // the default scope row was not clobbered by either job
        assert_eq!(status_snapshot().job, "cli");
        assert_eq!(status_ring_jsonl_of(71).lines().count(), 1);
        assert_eq!(status_ring_jsonl_of(72), "");
        let json = status_json();
        assert!(json.contains("\"job\":\"cli\""), "{json}");
        assert!(json.contains("\"job-71\""), "{json}");
        assert!(json.contains("\"job-72\""), "{json}");

        scope_remove(71);
        assert!(!status_json().contains("\"job-71\""));
    }

    #[test]
    fn scope_guard_restores_previous_scope() {
        let _guard = crate::test_lock();
        assert_eq!(status_scope_id(), 0);
        {
            let _a = status_scope(5);
            assert_eq!(status_scope_id(), 5);
            {
                let _b = status_scope(9);
                assert_eq!(status_scope_id(), 9);
            }
            assert_eq!(status_scope_id(), 5);
        }
        assert_eq!(status_scope_id(), 0);
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
        let json = health_json();
        assert!(json.contains("\"verdict\":\"critical\""), "{json}");
        assert!(json.contains("\"id\":301"));
        assert!(json.contains("\"id\":302"));
        assert!(health_summary_of(301).contains("divergence@"));
        assert_eq!(health_summary_of(302), "ok");
        let report = report_of(301, "t".into(), status_ring_jsonl_of(301), None).unwrap();
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
        status_begin("train", 10, 1);
        tick(&row(0, None));
        crate::set_enabled(false);
        crate::reset();
        assert_eq!(status_snapshot(), RunStatus::default());
        assert_eq!(status_ring_jsonl_of(0), "");
        assert!(health_of(0).is_none());
        assert!(status_json().ends_with("\"jobs\":[]}"));
    }

    fn golden_row(iter: usize, loss: f32, lane: Option<u64>) -> IterationRow {
        IterationRow {
            iter,
            loss,
            wl: loss * 0.6,
            vias: loss * 0.1,
            overflow: 0.25,
            temperature: 1.0 - iter as f32 / 128.0,
            grad_norm: loss * 0.01,
            mem_rss: None,
            lane,
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
    /// three scopes: the CLI scope (begun, never ticked), a diverging job
    /// whose stall watchdog — armed *before* `status_begin`, as `dgrd`
    /// arms it — breaches, and a two-lane job with a NaN row and a
    /// deadline that stays armed; then the eviction of the first job.
    /// Recorded at the commit before the registries were merged
    /// (`DGR_UPDATE_GOLDEN=1` rewrites it).
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
                tick(&golden_row(i, 50.0 * (1.0 + 0.08 * i as f32), None));
            }
        }
        let cancel_12 = Arc::new(AtomicBool::new(false));
        watchdog_arm(12, Arc::clone(&cancel_12), Some(1 << 40), None);
        {
            let _scope = status_scope(12);
            status_begin("job-12", 24, 2);
            status_phase("train");
            for lane in 0..2u64 {
                for i in 0..24 {
                    let mut r = golden_row(i, 90.0 - i as f32 - lane as f32, Some(lane));
                    if (lane, i) == (1, 7) {
                        r.grad_norm = f32::NAN;
                    }
                    tick(&r);
                }
            }
            status_phase("extract");
        }
        assert!(cancel_11.load(Ordering::Relaxed) && !cancel_12.load(Ordering::Relaxed));

        let mut got = String::new();
        let mut section = |name: &str, body: &str| {
            writeln!(got, "== {name}\n{}", body.trim_end_matches('\n')).unwrap();
        };
        section("status_json", &mask_rss(&status_json()));
        section("health_json", &health_json());
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
        section(
            "health_timeline_jsonl_of(11)",
            &health_timeline_of(11).unwrap_or_default(),
        );
        section(
            "health_timeline_jsonl_of(12)",
            &health_timeline_of(12).unwrap_or_default(),
        );
        section("status_ring_jsonl_of(11)", &status_ring_jsonl_of(11));
        section("status_ring_jsonl_of(12)", &status_ring_jsonl_of(12));
        section("metrics sentinel_*", &sentinel_metric_lines());

        assert_eq!(crate::span_events_of(11), 1);
        scope_remove(11);
        assert_eq!(crate::span_events_of(11), 0);
        section("status_json after evicting 11", &mask_rss(&status_json()));
        section("health_json after evicting 11", &health_json());
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
