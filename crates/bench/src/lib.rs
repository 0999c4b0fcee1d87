//! Shared experiment-harness utilities for the table/figure binaries.
//!
//! Each paper table or figure has a dedicated binary in `src/bin/`:
//!
//! | binary    | reproduces | contents |
//! |-----------|-----------|----------|
//! | `table1`  | Table 1   | DGR vs exact ILP on the synthetic protocol |
//! | `table2`  | Table 2   | DGR vs the CUGR2-style router on congested 5-layer cases |
//! | `table3`  | Table 3   | DGR vs SPRoute-style and Lagrangian routers on ispd18 cases |
//! | `fig5`    | Fig. 5a/b | runtime and memory vs net count |
//! | `fig6`    | Fig. 6    | overflow-activation study |
//! | `ablation`| (extra)   | Gumbel / annealing / top-p / candidate-count ablations |
//!
//! Every binary accepts `--fast` (shrunk workloads for smoke runs) and
//! prints the paper-style rows to stdout.

use std::time::{Duration, Instant};

use dgr_core::{DgrConfig, RouteHooks, RoutingSolution};
use dgr_grid::Design;
use dgr_io::{IspdLikeConfig, IspdLikeGenerator};
use dgr_post::{pipeline, Assigned3d};

/// A routed case with post-processing applied: the quantities every table
/// reports.
#[derive(Debug)]
pub struct PipelineResult {
    /// The refined 2D solution.
    pub solution: RoutingSolution,
    /// The layer assignment (vias, 3D overflow, n₁).
    pub assigned: Assigned3d,
    /// Wall-clock routing time (excl. generation, incl. training and
    /// refinement).
    pub runtime: Duration,
}

impl PipelineResult {
    fn new(
        solution: RoutingSolution,
        post: pipeline::Finished,
        runtime: Duration,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(PipelineResult {
            solution,
            assigned: post
                .assigned
                .ok_or("the tables need a layer assignment: design has one layer")?,
            runtime,
        })
    }

    /// Overflowed g-cell edges of the 2D solution (the paper's
    /// "# G-cell edges w/ overflow" column, CUGR2 metric).
    pub fn overflow_edges(&self) -> usize {
        self.solution.metrics.overflow.overflowed_edges
    }

    /// Total wirelength (edge units).
    pub fn wirelength(&self) -> u64 {
        self.solution.metrics.total_wirelength
    }

    /// Via count after layer assignment.
    pub fn vias(&self) -> u64 {
        self.assigned.total_vias
    }

    /// The Fig. 6 weighted overflow
    /// `10·n₁ + 1000·n₂ + 10000·peak`.
    pub fn weighted_overflow(&self) -> f64 {
        10.0 * self.assigned.overflowed_nets as f64
            + 1000.0 * self.overflow_edges() as f64
            + 10_000.0 * self.solution.metrics.overflow.peak_overflow as f64
    }
}

/// Runs the full DGR pipeline ([`pipeline::run`]).
///
/// # Errors
///
/// Returns a boxed error if any stage fails.
pub fn run_dgr(
    design: &Design,
    config: DgrConfig,
) -> Result<PipelineResult, Box<dyn std::error::Error>> {
    let out = pipeline::run(design, &config, &mut RouteHooks::default(), false)?;
    PipelineResult::new(out.solution, out.post, out.route_time)
}

/// Runs a baseline router closure through the same refinement and layer
/// assignment as DGR ([`pipeline::finish`]), so every column is measured
/// identically.
///
/// # Errors
///
/// Returns a boxed error if any stage fails.
pub fn run_baseline<F>(
    design: &Design,
    route: F,
) -> Result<PipelineResult, Box<dyn std::error::Error>>
where
    F: FnOnce(&Design) -> Result<RoutingSolution, dgr_baseline::BaselineError>,
{
    let start = Instant::now();
    let mut solution = route(design)?;
    let routed = start.elapsed();
    let post = pipeline::finish(design, &mut solution, false)?;
    let runtime = routed + post.refine_time;
    PipelineResult::new(solution, post, runtime)
}

/// Generates a catalog case, optionally shrunk by `--fast`
/// ([`IspdLikeConfig::fast`]).
pub fn generate_case(
    config: IspdLikeConfig,
    fast: bool,
) -> Result<Design, Box<dyn std::error::Error>> {
    let config = if fast { config.fast() } else { config };
    Ok(IspdLikeGenerator::new(config).generate()?)
}

/// Whether `--fast` was passed on the command line.
pub fn fast_flag() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// A DGR config sized for the experiment scale: the paper's 1000
/// iterations for full runs, 200 for `--fast`.
pub fn dgr_config(fast: bool, seed: u64) -> DgrConfig {
    DgrConfig {
        iterations: if fast { 200 } else { 1000 },
        seed,
        ..DgrConfig::default()
    }
}

/// Formats a ratio row: `other / base` guarded against zero.
pub fn ratio(other: f64, base: f64) -> f64 {
    if base == 0.0 {
        if other == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        other / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_baseline::SequentialRouter;

    #[test]
    fn pipeline_runs_end_to_end_on_a_small_case() {
        let design = generate_case(
            IspdLikeConfig {
                num_nets: 60,
                width: 32,
                height: 32,
                ..IspdLikeConfig::default()
            },
            false,
        )
        .unwrap();
        let mut cfg = dgr_config(true, 0);
        cfg.iterations = 60;
        let dgr = run_dgr(&design, cfg).unwrap();
        let seq = run_baseline(&design, |d| SequentialRouter::default().route(d)).unwrap();
        assert!(dgr.wirelength() > 0);
        assert!(seq.wirelength() > 0);
        assert!(dgr.vias() > 0);
        assert!(dgr.runtime > Duration::ZERO);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(5.0, 0.0), f64::INFINITY);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
