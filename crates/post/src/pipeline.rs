//! The one pipeline: differentiable 2D routing → maze refinement → DP
//! layer assignment → route guide (Section 4.6 of the paper).
//!
//! `dgr route`, every `dgrd` job, `dgr compare` and the experiment tables
//! call [`run`] (DGR) or [`run_with`] (any other router); none of them
//! sequences or times the stages itself, so they cannot drift apart.

use std::time::{Duration, Instant};

use dgr_core::{DgrConfig, DgrError, DgrRouter, RouteHooks, RoutingSolution, SolutionMetrics};
use dgr_grid::Design;

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
/// least two, and builds the guide when `want_guide`. Each pass first
/// publishes its span name as the run's phase (a `dgrd` job's `/status`).
///
/// # Errors
///
/// [`PipelineError::Refine`] or [`PipelineError::Assign`].
#[allow(clippy::disallowed_methods)] // the one sequencing of the post passes
fn finish(
    design: &Design,
    solution: &mut RoutingSolution,
    want_guide: bool,
) -> Result<Finished, PipelineError> {
    dgr_obs::status_phase("refine");
    let t = Instant::now();
    let refine =
        refine(design, solution, RefineConfig::default()).map_err(PipelineError::Refine)?;
    let mut finished = Finished {
        refine,
        refine_time: t.elapsed(),
        ..Finished::default()
    };
    if design.num_layers >= 2 {
        dgr_obs::status_phase("assign_layers");
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
    /// The 2D solution's metrics as the router returned it, before
    /// refinement.
    pub routed: SolutionMetrics,
    /// Refinement, layer assignment and guide.
    pub post: Finished,
    /// Loss of the last training iteration (NaN when nothing trained).
    pub final_loss: f64,
    /// Routing plus refinement — the runtime `dgr route` prints and the
    /// paper's tables report.
    pub route_time: Duration,
    /// The whole run, layer assignment and guide included.
    pub wall: Duration,
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

/// Routes `design` with DGR under `cfg` and finishes the result (see
/// [`run_with`]).
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
    run_with(design, want_guide, |d| {
        DgrRouter::new(cfg.clone())
            .route_with_hooks(d, hooks)
            .map_err(|e| match e {
                DgrError::Cancelled => PipelineError::Cancelled,
                e => PipelineError::Route(e),
            })
    })
}

/// Routes `design` with `route` (DGR, or any baseline), refines the
/// solution, assigns layers when the design has at least two and builds
/// the guide when `want_guide`, timing it all: the one way every router
/// is measured.
///
/// # Errors
///
/// `route`'s error, or the [`PipelineError`] of a post pass.
pub fn run_with<E, F>(design: &Design, want_guide: bool, route: F) -> Result<Outcome, E>
where
    E: From<PipelineError>,
    F: FnOnce(&Design) -> Result<RoutingSolution, E>,
{
    let t0 = Instant::now();
    let mut solution = route(design)?;
    let route_time = t0.elapsed();
    let routed = solution.metrics;
    let post = finish(design, &mut solution, want_guide)?;
    Ok(Outcome {
        final_loss: solution
            .train_report
            .as_ref()
            .map_or(f64::NAN, |r| f64::from(r.final_loss)),
        solution,
        routed,
        route_time: route_time + post.refine_time,
        post,
        wall: t0.elapsed(),
    })
}
