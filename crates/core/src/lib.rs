#![warn(missing_docs)]

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

pub mod attribution;
pub mod config;
pub mod extract;
pub mod relax;
pub mod snapshot;
pub mod solution;
pub mod train;

pub use attribution::{attribute_solution, write_attribution, MAX_ATTRIBUTION_NETS};
pub use config::{CostWeights, DgrConfig, ExtractionMode};
pub use extract::extract_solution;
pub use relax::{build_cost_model, CostModel};
pub use snapshot::{ensure_header, write_demand_snapshot, write_dense_snapshot};
pub use solution::{NetRoute, RoutePath, RoutingSolution, SolutionMetrics};
pub use train::{train, CurvePoint, LiveRow, TrainReport, CURVE_POINTS};

use dgr_autodiff::parallel::{par_indexed, NET_PAR_MIN};
use dgr_grid::Design;
use dgr_obs::{SnapshotSink, TelemetrySink};

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

/// Spatial-congestion snapshot capture attached to a routing run.
#[derive(Debug)]
pub struct SnapshotConfig {
    /// Destination snapshot stream (owned; flushed when the run
    /// completes or the hooks drop).
    pub sink: SnapshotSink,
    /// Training-loop capture stride in iterations; `0` captures only the
    /// extracted solution.
    pub every: usize,
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
    /// Per-g-cell congestion snapshot stream: periodic captures of the
    /// relaxed expected demand during training, plus one capture of every
    /// extracted solution (phase `"extract"`).
    pub snap: Option<SnapshotConfig>,
    /// A stderr progress line every this many training iterations, the
    /// last one always, at most one per 200 ms but the last (`dgr route
    /// --progress`; `None` prints none).
    pub progress: Option<usize>,
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

/// The router's front-end product: what [`DgrRouter::candidates`] built
/// for a design and [`DgrRouter::forest`] turns into the DAG forest.
#[derive(Debug)]
pub struct Candidates {
    /// Routing-tree candidates per net, in input-net order.
    pub pools: Vec<Vec<dgr_rsmt::RoutingTree>>,
    /// Maze-derived path candidates per sub-net, grown by the adaptive
    /// expansion rounds (empty until a round has overflowed).
    extras: std::collections::HashMap<usize, Vec<dgr_dag::PatternPath>>,
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

    /// Step 1 of [`DgrRouter::route`]: the per-net tree candidate pools
    /// (span `candidates`). Trees are clamped to the die, every net draws
    /// from its own seed derived from `(candidates.seed, net index)` — so
    /// the fan-out is deterministic at any thread count — and Steiner
    /// templates are shared through one canonical cache per call.
    ///
    /// # Errors
    ///
    /// Returns [`DgrError::Rsmt`] if a net has no pins.
    pub fn candidates(&self, design: &Design) -> Result<Candidates, DgrError> {
        let _s = dgr_obs::span("route", "candidates");
        dgr_obs::status_phase("candidates");
        let mut base_cfg = self.config.candidates.clone();
        base_cfg.clamp = Some(design.grid.bounds());
        let cache = dgr_rsmt::RsmtCache::new();
        let nets = &design.nets;
        let pools = par_indexed(nets.len(), NET_PAR_MIN, |i| {
            let cfg_i = dgr_rsmt::CandidateConfig {
                seed: per_net_seed(base_cfg.seed, i),
                ..base_cfg.clone()
            };
            dgr_rsmt::tree_candidates_cached(&nets[i].pins, &cfg_i, &cache)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        Ok(Candidates {
            pools,
            extras: Default::default(),
        })
    }

    /// Step 2 of [`DgrRouter::route`]: the DAG forest over `candidates`
    /// (span `forest`).
    ///
    /// # Errors
    ///
    /// Returns [`DgrError::Dag`] if a candidate leaves the grid.
    pub fn forest(
        &self,
        design: &Design,
        candidates: &Candidates,
    ) -> Result<dgr_dag::DagForest, DgrError> {
        let _s = dgr_obs::span("route", "forest");
        dgr_obs::status_phase("forest");
        Ok(dgr_dag::build_forest_with_extras(
            &design.grid,
            &candidates.pools,
            self.config.patterns,
            &candidates.extras,
        )?)
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
    /// (`candidates` / `forest` / `relax` / `extract` under the `route`
    /// category), per-iteration telemetry, and a progress line.
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
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        if let Some(s) = hooks.snap.as_mut() {
            snapshot::ensure_header(&mut s.sink, design);
        }

        // 1. per-net tree candidate pools
        let mut candidates = self.candidates(design)?;

        let mut warm_start: Option<expand::WarmStart> = None;
        let mut iter_offset = 0usize;
        // the rounds trained so far, as one report
        let mut earlier: Option<TrainReport> = None;

        for round in 0..=self.config.adaptive_rounds {
            if hooks.is_cancelled() {
                return Err(DgrError::Cancelled);
            }
            // 2. DAG forest (with any adaptive extras)
            let forest = self.forest(design, &candidates)?;

            // 3. continuous relaxation + training (warm-started after the
            // first round)
            let mut model = {
                let _s = dgr_obs::span("route", "relax");
                dgr_obs::status_phase("relax");
                build_cost_model(design, &forest, &self.config, &mut rng)
            };
            if let Some(warm) = &warm_start {
                warm.apply(&forest, &mut model);
            }
            let mut round_cfg = self.config.clone();
            if round > 0 {
                round_cfg.iterations = self.config.adaptive_iterations.max(1);
            }
            let report = train::train_with_hooks(
                &mut model,
                &round_cfg,
                &mut rng,
                design,
                hooks,
                iter_offset,
            );
            // a cancel raised mid-training stops the job here: no
            // extraction, no partial solution escapes
            if hooks.is_cancelled() {
                return Err(DgrError::Cancelled);
            }
            iter_offset += round_cfg.iterations;
            let report = match earlier.take() {
                Some(earlier) => earlier.followed_by(report),
                None => report,
            };

            // 4. discrete extraction
            dgr_obs::status_phase("extract");
            let solution = extract_solution(design, &forest, &mut model, &round_cfg)?;

            let done = round == self.config.adaptive_rounds
                || solution.metrics.overflow.overflowed_edges == 0;
            let mut finish = |report: TrainReport, mut solution: RoutingSolution| {
                solution.train_report = Some(report);
                if let Some(sink) = hooks.telemetry.as_mut() {
                    sink.flush();
                }
                if let Some(s) = hooks.snap.as_mut() {
                    snapshot::write_demand_snapshot(
                        &mut s.sink,
                        design,
                        &solution.demand,
                        iter_offset as u64,
                        "extract",
                    );
                    s.sink.flush();
                }
                solution
            };
            if done {
                return Ok(finish(report, solution));
            }

            // 5. adaptive expansion: congested sub-nets get maze-derived
            // candidates; logits carry over
            let grew = expand::grow_extras(design, &forest, &solution, &mut candidates.extras);
            warm_start = Some(expand::WarmStart::capture(&forest, &model));
            if !grew {
                return Ok(finish(report, solution));
            }
            earlier = Some(report);
        }
        unreachable!("loop returns on its final round");
    }
}

/// A distinct, well-mixed RNG seed for net `i` derived from the base
/// candidate seed (splitmix64 finalizer). Depending only on `(base, i)`
/// — never on generation order — keeps parallel candidate generation
/// deterministic at any thread count.
fn per_net_seed(base: u64, i: usize) -> u64 {
    let mut z = base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

mod expand {
    //! Adaptive forest expansion (Section 3.1's future-work direction):
    //! grow the DAG forest where the last round's solution overflowed.

    use dgr_dag::{DagForest, PatternPath};
    use dgr_grid::demand::rides;
    use dgr_grid::maze::{maze_route, MazeConfig};
    use dgr_grid::{Design, Rect};

    use crate::relax::CostModel;
    use crate::solution::RoutingSolution;

    /// Trained logits keyed by stable identities (tree order is unchanged
    /// across rounds; paths are matched per subnet by position, extras
    /// appended at the end start from the subnet's best logit).
    pub(crate) struct WarmStart {
        tree_logits: Vec<f32>,
        /// per subnet: the trained path logits, in construction order
        path_logits: Vec<Vec<f32>>,
    }

    impl WarmStart {
        pub(crate) fn capture(forest: &DagForest, model: &CostModel) -> Self {
            let w_path = model.path_logits();
            let path_logits = (0..forest.num_subnets())
                .map(|s| forest.paths_of_subnet(s).map(|i| w_path[i]).collect())
                .collect();
            WarmStart {
                tree_logits: model.tree_logits().to_vec(),
                path_logits,
            }
        }

        pub(crate) fn apply(&self, forest: &DagForest, model: &mut CostModel) {
            let mut w_path = vec![0.0f32; forest.num_paths()];
            for s in 0..forest.num_subnets() {
                let old = &self.path_logits[s];
                let best = old.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                for (k, i) in forest.paths_of_subnet(s).enumerate() {
                    // original candidates keep their logits; appended
                    // extras start competitive with the incumbent
                    w_path[i] = old.get(k).copied().unwrap_or(best);
                }
            }
            model.set_logits(&self.tree_logits, &w_path);
        }
    }

    /// Adds a congestion-avoiding maze candidate for every sub-net whose
    /// realized path crosses an overflowed edge. Returns whether anything
    /// new was added.
    pub(crate) fn grow_extras(
        design: &Design,
        forest: &DagForest,
        solution: &RoutingSolution,
        extras: &mut std::collections::HashMap<usize, Vec<PatternPath>>,
    ) -> bool {
        let grid = &design.grid;
        let cap = &design.capacity;
        let demand = &solution.demand;
        let over = demand.overflow_mask(cap);
        let mut grew = false;
        for route in &solution.routes {
            for (s, path) in forest.subnets_of_tree(route.tree).zip(&route.paths) {
                if !rides(grid, &over, &path.corners) {
                    continue;
                }
                let (a, b) = forest.subnet_endpoints(s);
                if a == b {
                    continue;
                }
                let cfg = MazeConfig {
                    bounds: Some(Rect::bounding(&[a, b]).inflate_clamped(8, grid.bounds())),
                    turn_cost: 1.0,
                };
                let Some(corners) = maze_route(
                    grid,
                    a,
                    b,
                    |e| 1.0 + 1000.0 * demand.marginal(cap, e, 1.0),
                    &cfg,
                ) else {
                    continue;
                };
                let candidate = PatternPath::new(corners);
                let slot = extras.entry(s).or_default();
                if !slot.contains(&candidate) {
                    slot.push(candidate);
                    grew = true;
                }
            }
        }
        grew
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, GcellId, Net, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Over random congested designs, grown by one round of maze-derived
    /// extras: the runs the forest records for a path cover exactly the
    /// multiset of edges it lists — also for the extras, which are not
    /// monotone — and a one-candidate group is a constant of training.
    #[test]
    fn runs_cover_path_edges_and_one_candidate_groups_never_move() {
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
                iterations: 50,
                seed,
                ..DgrConfig::default()
            };
            let pools: Vec<_> = design
                .nets
                .iter()
                .map(|n| dgr_rsmt::tree_candidates(&n.pins, &cfg.candidates).unwrap())
                .collect();

            // round 0 routes on the patterns alone; its overflow decides
            // which sub-nets get a maze-derived candidate for round 1
            let mut extras = Default::default();
            for round in 0..2 {
                let forest =
                    dgr_dag::build_forest_with_extras(&design.grid, &pools, cfg.patterns, &extras)
                        .unwrap();
                for i in 0..forest.num_paths() {
                    let mut from_runs: Vec<u32> = Vec::new();
                    for &(low, high) in forest.path_runs(i) {
                        let (a, b) = (
                            design.grid.cell_point(GcellId(low)),
                            design.grid.cell_point(GcellId(high)),
                        );
                        from_runs.extend(design.grid.segment_edges(a, b).unwrap().map(|e| e.0));
                    }
                    let mut edges = forest.path_edges(i).to_vec();
                    from_runs.sort_unstable();
                    edges.sort_unstable();
                    assert_eq!(from_runs, edges, "seed {seed} round {round} path {i}");
                    let (a, b) = forest.subnet_endpoints(forest.subnet_of_path(i));
                    detours_seen += usize::from(edges.len() as u32 > a.manhattan_distance(b));
                }

                let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
                let before: Vec<u32> = model.path_logits().iter().map(|w| w.to_bits()).collect();
                train(&mut model, &cfg, &mut rng);
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

                let solution = extract_solution(&design, &forest, &mut model, &cfg).unwrap();
                expand::grow_extras(&design, &forest, &solution, &mut extras);
            }
            extras_seen += extras.values().map(Vec::len).sum::<usize>();
        }
        assert!(extras_seen > 0, "no design overflowed: nothing grew");
        assert!(detours_seen > 0, "every candidate was monotone");
        assert!(constants_seen > 0, "no one-candidate group was checked");
    }
}
