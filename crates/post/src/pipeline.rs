//! The one pipeline: differentiable 2D routing → maze refinement → DP
//! layer assignment → route guide (Section 4.6 of the paper), and the
//! ledger record of a finished run.
//!
//! `dgr route`, every `dgrd` job and the table binaries call [`run`] or
//! [`finish`]; none of them sequences the stages itself, so they cannot
//! drift apart, and [`ledger_record`] is the only place a run is turned
//! into a [`LedgerRecord`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dgr_core::{DgrConfig, DgrError, DgrRouter, RouteHooks, RoutingSolution};
use dgr_grid::Design;
use dgr_obs::ledger::{self, LedgerRecord, LEDGER_VERSION};

use crate::{
    assign_layers, refine, AssignConfig, Assigned3d, PostError, RefineConfig, RefineReport,
    RouteGuide,
};

/// Why a pipeline run produced no outcome, by stage.
#[derive(Debug)]
pub enum PipelineError {
    /// [`RouteHooks::cancel`] was raised; nothing partial escapes.
    Cancelled,
    /// The 2D router failed (bad configuration, tree or forest
    /// construction, extraction).
    Route(DgrError),
    /// Maze refinement failed.
    Refine(PostError),
    /// Layer assignment failed.
    Assign(PostError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Cancelled => write!(f, "run cancelled"),
            PipelineError::Route(e) => write!(f, "{e}"),
            PipelineError::Refine(e) => write!(f, "refine: {e}"),
            PipelineError::Assign(e) => write!(f, "assign: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// What the post passes made of a 2D solution.
#[derive(Debug, Default)]
pub struct Finished {
    /// What refinement did.
    pub refine: RefineReport,
    /// The layer assignment; `None` on a one-layer design.
    pub assigned: Option<Assigned3d>,
    /// The route guide, when asked for and there is an assignment.
    pub guide: Option<RouteGuide>,
    /// Wall-clock of [`refine()`].
    pub refine_time: Duration,
    /// Wall-clock of [`assign_layers`] (zero when it did not run).
    pub assign_time: Duration,
}

/// Refines `solution` in place, assigns layers when the design has at
/// least two, and builds the guide when `want_guide`.
///
/// # Errors
///
/// [`PipelineError::Refine`] or [`PipelineError::Assign`].
pub fn finish(
    design: &Design,
    solution: &mut RoutingSolution,
    want_guide: bool,
) -> Result<Finished, PipelineError> {
    let t = Instant::now();
    let refine =
        refine(design, solution, RefineConfig::default()).map_err(PipelineError::Refine)?;
    let mut finished = Finished {
        refine,
        refine_time: t.elapsed(),
        ..Finished::default()
    };
    if design.num_layers >= 2 {
        let t = Instant::now();
        let assigned = assign_layers(design, solution, AssignConfig::default())
            .map_err(PipelineError::Assign)?;
        finished.assign_time = t.elapsed();
        if want_guide {
            finished.guide = Some(RouteGuide::from_assignment(design, &assigned));
        }
        finished.assigned = Some(assigned);
    }
    Ok(finished)
}

/// One routed design: the refined 2D solution and everything the run
/// measured about itself.
#[derive(Debug)]
pub struct Outcome {
    /// The refined 2D solution.
    pub solution: RoutingSolution,
    /// Refinement, layer assignment and guide.
    pub post: Finished,
    /// Loss of the last training iteration (NaN when nothing trained).
    pub final_loss: f64,
    /// Routing plus refinement — the runtime `dgr route` prints and the
    /// paper's tables report.
    pub route_time: Duration,
    /// The whole run, layer assignment and guide included.
    pub wall: Duration,
    /// Steiner-template cache hits of this run alone.
    pub cache_hits: u64,
    /// Steiner-template cache misses of this run alone.
    pub cache_misses: u64,
}

impl Outcome {
    /// Vias of the layer assignment; the 2D turn count when there is
    /// none.
    pub fn vias(&self) -> u64 {
        self.post
            .assigned
            .as_ref()
            .map_or(self.solution.metrics.total_turns, |a| a.total_vias)
    }
}

/// Routes `design` with DGR under `cfg` and [`finish`]es the result.
///
/// # Errors
///
/// A [`PipelineError`] naming the stage that failed.
pub fn run(
    design: &Design,
    cfg: &DgrConfig,
    hooks: &mut RouteHooks,
    want_guide: bool,
) -> Result<Outcome, PipelineError> {
    let t0 = Instant::now();
    let mut solution = DgrRouter::new(cfg.clone())
        .route_with_hooks(design, hooks)
        .map_err(|e| match e {
            DgrError::Cancelled => PipelineError::Cancelled,
            e => PipelineError::Route(e),
        })?;
    let routed = t0.elapsed();
    let post = finish(design, &mut solution, want_guide)?;
    let (cache_hits, cache_misses) = hooks.cache_counts;
    Ok(Outcome {
        final_loss: solution
            .train_report
            .as_ref()
            .map_or(f64::NAN, |r| f64::from(r.final_loss)),
        solution,
        route_time: routed + post.refine_time,
        post,
        wall: t0.elapsed(),
        cache_hits,
        cache_misses,
    })
}

/// The persistent-ledger record of a finished run (batch 1; the content
/// hash is computed when the record is serialized).
///
/// `label` names the design (`dgr route`: the file stem; `dgrd`: the
/// job label) and `phases` is the per-phase wall-clock in milliseconds
/// the caller measured. Training throughput is `cfg.iterations` over
/// `phases["train"]`, over the whole run when that is missing. Two
/// records are comparable (`config_fp`) when label, design shape and the
/// whole configuration but the seed agree.
pub fn ledger_record(
    cmd: &str,
    label: &str,
    design: &Design,
    cfg: &DgrConfig,
    outcome: &Outcome,
    phases: BTreeMap<String, f64>,
) -> LedgerRecord {
    let wall_ms = outcome.wall.as_secs_f64() * 1e3;
    let train_secs = match phases.get("train") {
        Some(&ms) if ms > 0.0 => ms,
        _ => wall_ms,
    } / 1e3;
    let iterations = cfg.iterations as u64;
    let mut fp_cfg = cfg.clone();
    fp_cfg.seed = 0;
    let key = format!(
        "{label}|{}|{}x{}|{}|{fp_cfg:?}",
        design.num_nets(),
        design.grid.width(),
        design.grid.height(),
        design.num_layers,
    );
    let m = &outcome.solution.metrics;
    LedgerRecord {
        version: LEDGER_VERSION,
        hash: String::new(),
        ts: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        cmd: cmd.to_string(),
        design: label.to_string(),
        nets: design.num_nets() as u64,
        config_fp: format!("{:016x}", ledger::fnv1a64(key.as_bytes())),
        iterations,
        seed: cfg.seed,
        batch: 1,
        wall_ms: wall_ms as u64,
        it_per_s: if train_secs > 0.0 {
            iterations as f64 / train_secs
        } else {
            0.0
        },
        loss: outcome.final_loss,
        wirelength: m.total_wirelength,
        overflow: m.overflow.total_overflow,
        overflowed_edges: m.overflow.overflowed_edges as u64,
        vias: outcome.vias(),
        cache_hits: outcome.cache_hits,
        cache_misses: outcome.cache_misses,
        phases,
        health: dgr_obs::enabled().then(|| dgr_obs::health_summary_of(dgr_obs::status_scope_id())),
    }
}
