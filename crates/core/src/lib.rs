#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! DGR — the differentiable global router (the paper's contribution).
//!
//! The router turns 2D pattern routing into a continuous optimization
//! problem (Section 4 of the paper):
//!
//! 1. build a [DAG forest](dgr_dag::DagForest) of routing-tree and
//!    2-pin-path candidates for every net,
//! 2. relax the discrete tree/path selections to probabilities produced by
//!    per-group Gumbel-softmax over trainable logits ([`relax`]),
//! 3. minimize the expected cost
//!    `a₁·WL + a₂·via + a₃·overflow` (ICCAD'19 weights 0.5 / 4 / 500) with
//!    Adam, annealing the softmax temperature ([`train()`]),
//! 4. extract a discrete solution by tree-argmax + top-p path selection
//!    ([`extract`]).
//!
//! A [`Session`] holds one run between those stages, so the forest and
//! the model can be read after any of them; [`DgrRouter::route`] runs
//! one from start to finish.
//!
//! # Examples
//!
//! ```
//! use dgr_core::{DgrConfig, DgrRouter};
//! use dgr_grid::{CapacityBuilder, Design, GcellGrid, Net, Point};
//!
//! let grid = GcellGrid::new(16, 16)?;
//! let cap = CapacityBuilder::uniform(&grid, 4.0).build(&grid)?;
//! let design = Design::new(
//!     grid,
//!     cap,
//!     vec![
//!         Net::new("a", vec![Point::new(1, 1), Point::new(12, 9)]),
//!         Net::new("b", vec![Point::new(2, 10), Point::new(11, 3)]),
//!     ],
//!     5,
//! )?;
//! let mut config = DgrConfig::default();
//! config.iterations = 50; // keep the doc-test fast
//! let routed = DgrRouter::new(config).route(&design)?;
//! assert_eq!(routed.routes.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod extract;
pub mod relax;
pub mod session;
pub mod solution;
pub mod train;

pub use config::{CostWeights, DgrConfig, ExtractionMode};
pub use extract::extract_solution;
pub use relax::{build_cost_model, CostModel};
pub use session::Session;
pub use solution::{NetRoute, RoutePath, RoutingSolution, SolutionMetrics};
pub use train::{train, CurvePoint, LiveRow, TrainReport, CURVE_POINTS};

use dgr_grid::Design;
use dgr_obs::TelemetrySink;

/// Errors produced by the DGR pipeline.
#[derive(Debug)]
pub enum DgrError {
    /// Steiner-tree construction failed.
    Rsmt(dgr_rsmt::RsmtError),
    /// DAG-forest construction failed.
    Dag(dgr_dag::DagError),
    /// Grid-level failure while realizing the solution.
    Grid(dgr_grid::GridError),
    /// The configuration is unusable (e.g. zero iterations).
    BadConfig(String),
    /// The run was cancelled cooperatively (see [`RouteHooks::cancel`]):
    /// the cancel flag was observed between training iterations or
    /// pipeline phases and the run stopped without producing a solution.
    Cancelled,
}

impl std::fmt::Display for DgrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DgrError::Rsmt(e) => write!(f, "tree construction failed: {e}"),
            DgrError::Dag(e) => write!(f, "forest construction failed: {e}"),
            DgrError::Grid(e) => write!(f, "grid operation failed: {e}"),
            DgrError::BadConfig(why) => write!(f, "bad configuration: {why}"),
            DgrError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for DgrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DgrError::Rsmt(e) => Some(e),
            DgrError::Dag(e) => Some(e),
            DgrError::Grid(e) => Some(e),
            DgrError::BadConfig(_) | DgrError::Cancelled => None,
        }
    }
}

impl From<dgr_rsmt::RsmtError> for DgrError {
    fn from(e: dgr_rsmt::RsmtError) -> Self {
        DgrError::Rsmt(e)
    }
}

impl From<dgr_dag::DagError> for DgrError {
    fn from(e: dgr_dag::DagError) -> Self {
        DgrError::Dag(e)
    }
}

impl From<dgr_grid::GridError> for DgrError {
    fn from(e: dgr_grid::GridError) -> Self {
        DgrError::Grid(e)
    }
}

/// Observability hooks threaded through [`DgrRouter::route_with_hooks`].
///
/// The default hooks are inert — [`DgrRouter::route`] uses them — so the
/// instrumented pipeline costs nothing at uninstrumented call sites.
#[derive(Debug, Default)]
pub struct RouteHooks {
    /// Per-iteration JSONL telemetry destination (owned; flushed when the
    /// run completes or the hooks drop).
    pub telemetry: Option<TelemetrySink>,
    /// A stderr progress line every 100 training iterations, the last
    /// one always, at most one per 200 ms but the last (`dgr route`
    /// without `--quiet`).
    pub progress: bool,
    /// Cooperative cancellation flag. When another thread sets it, the
    /// training loop stops between iterations and
    /// [`DgrRouter::route_with_hooks`] returns [`DgrError::Cancelled`]
    /// instead of extracting a solution. `None` (the default) never
    /// cancels.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl RouteHooks {
    /// Whether the attached cancel flag (if any) has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }
}

/// The end-to-end differentiable global router.
///
/// Owns a [`DgrConfig`] and runs the full pipeline in [`DgrRouter::route`].
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct DgrRouter {
    config: DgrConfig,
}

impl DgrRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: DgrConfig) -> Self {
        DgrRouter { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DgrConfig {
        &self.config
    }

    /// Opens a [`Session`] on `design`: the DAG forest over the per-net
    /// tree candidates, and its relaxation, ready to train. The forest
    /// build (span `forest`) makes each net's candidate pool (span
    /// `candidates`, one per net) when it reaches the net and drops it
    /// once the net's trees are in; the relaxation is span `relax`.
    ///
    /// # Errors
    ///
    /// [`DgrError::BadConfig`] for an invalid configuration,
    /// [`DgrError::Rsmt`] if a net has no pins, [`DgrError::Dag`] if a
    /// candidate leaves the grid: the first error in net order.
    pub fn session<'d>(&self, design: &'d Design) -> Result<Session<'d>, DgrError> {
        self.config.validate()?;
        Session::open(self.config.clone(), design)
    }

    /// Routes `design`: candidates → forest → training → extraction,
    /// plus optional adaptive forest-expansion rounds
    /// ([`DgrConfig::adaptive_rounds`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DgrError`] if tree construction, forest construction,
    /// or solution realization fails, or if the configuration is invalid.
    pub fn route(&self, design: &Design) -> Result<RoutingSolution, DgrError> {
        self.route_with_hooks(design, &mut RouteHooks::default())
    }

    /// [`DgrRouter::route`] with observability hooks: pipeline-phase spans
    /// (`forest`, with a `candidates` span per net inside it, `relax` /
    /// `extract` under the `route` category), per-iteration telemetry, and
    /// a progress line.
    ///
    /// It runs a [`Session`]: train, then, while the solution overflows,
    /// up to [`DgrConfig::adaptive_rounds`] times extract, expand and train
    /// for [`config::ADAPTIVE_ITERATIONS`]. The last read-out is
    /// [`Session::finish`], which keeps only the model's probabilities
    /// and frees its buffers before extraction allocates; a round that
    /// stops early returns the solution it extracted. The session is not
    /// held past routing.
    ///
    /// Iteration numbering in telemetry rows and the retained
    /// [`TrainReport::curve`] is monotone across adaptive rounds, and the
    /// solution's [`TrainReport`] covers them all.
    ///
    /// # Errors
    ///
    /// Same as [`DgrRouter::route`].
    pub fn route_with_hooks(
        &self,
        design: &Design,
        hooks: &mut RouteHooks,
    ) -> Result<RoutingSolution, DgrError> {
        let _route_span = dgr_obs::span("route", "route");
        self.config.validate()?;
        if hooks.is_cancelled() {
            return Err(DgrError::Cancelled);
        }
        let mut session = Session::open(self.config.clone(), design)?;
        session.train(self.config.iterations, hooks)?;
        for _ in 0..self.config.adaptive_rounds {
            let solution = session.extract()?;
            if solution.metrics.overflow.overflowed_edges == 0 {
                return Ok(solution);
            }
            if hooks.is_cancelled() {
                return Err(DgrError::Cancelled);
            }
            if !session.expand(&solution) {
                return Ok(solution);
            }
            session.train(config::ADAPTIVE_ITERATIONS, hooks)?;
        }
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, GcellId, Net, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Over random congested designs, grown by one round of maze-derived
    /// extras: the edges a path's runs derive are, in order, those of the
    /// corners extraction realizes it as — also for the extras, which are
    /// not monotone — and a one-candidate group is a constant of training.
    #[test]
    fn path_edges_are_the_realized_corners_and_one_candidate_groups_never_move() {
        let (mut extras_seen, mut detours_seen, mut constants_seen) = (0, 0, 0);
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let side = rng.gen_range(6..12);
            let grid = GcellGrid::new(side, side).unwrap();
            let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
            let nets = (0..rng.gen_range(8..20))
                .map(|n| {
                    let pins = (0..rng.gen_range(2..5))
                        .map(|_| {
                            Point::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32))
                        })
                        .collect();
                    Net::new(format!("n{n}"), pins)
                })
                .collect();
            let design = Design::new(grid, cap, nets, 5).unwrap();
            let cfg = DgrConfig {
                seed,
                ..DgrConfig::default()
            };
            let mut session = DgrRouter::new(cfg).session(&design).unwrap();

            // round 0 routes on the patterns alone; its overflow decides
            // which sub-nets get a maze-derived candidate for round 1
            let mut paths = Vec::new();
            for round in 0..2 {
                let forest = session.forest();
                paths.push(forest.num_paths());
                for i in 0..forest.num_paths() {
                    let (a, b) = forest.subnet_endpoints(forest.subnet_of_path(i));
                    let turns = forest.path_vias(i).iter();
                    let mut corners: Vec<Point> = std::iter::once(a)
                        .chain(turns.map(|&v| design.grid.cell_point(GcellId(v))))
                        .collect();
                    if b != a {
                        corners.push(b);
                    }
                    let realized: Vec<u32> = design
                        .grid
                        .polyline_edges(&corners)
                        .unwrap()
                        .map(|e| e.0)
                        .collect();
                    let edges: Vec<u32> = forest.path_edges(i).collect();
                    assert_eq!(edges, realized, "seed {seed} round {round} path {i}");
                    detours_seen += usize::from(edges.len() as u32 > a.manhattan_distance(b));
                }

                let before: Vec<u32> = session
                    .model()
                    .path_logits()
                    .iter()
                    .map(|w| w.to_bits())
                    .collect();
                session.train(50, &mut RouteHooks::default()).unwrap();
                let (forest, model) = (session.forest(), session.model());
                for s in 0..forest.num_subnets() {
                    let group = forest.paths_of_subnet(s);
                    if group.len() == 1 {
                        let i = group.start;
                        assert_eq!(model.p()[i], 1.0, "seed {seed} path {i}");
                        assert_eq!(model.path_grad()[i], 0.0, "seed {seed} path {i}");
                        assert_eq!(model.path_logits()[i].to_bits(), before[i]);
                        constants_seen += 1;
                    }
                }
                for n in 0..forest.num_nets() {
                    let group = forest.trees_of_net(n);
                    if group.len() == 1 {
                        assert_eq!(model.q()[group.start], 1.0, "seed {seed} net {n}");
                        assert_eq!(model.tree_grad()[group.start], 0.0, "seed {seed} net {n}");
                    }
                }

                let solution = session.extract().unwrap();
                if round == 0 && !session.expand(&solution) {
                    break;
                }
            }
            extras_seen += paths.last().unwrap() - paths[0];
        }
        assert!(extras_seen > 0, "no design overflowed: nothing grew");
        assert!(detours_seen > 0, "every candidate was monotone");
        assert!(constants_seen > 0, "no one-candidate group was checked");
    }
}
