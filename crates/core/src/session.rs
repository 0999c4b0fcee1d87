//! One routing run as a value.
//!
//! A [`Session`] holds what the stages of [`DgrRouter::route`] hand each
//! other: the DAG forest over the per-net tree candidates, the relaxed
//! [`CostModel`] and the training report so far. Opening one runs
//! candidates → forest → relax, and drops the candidate pools once the
//! forest is built; [`Session::train`], [`Session::extract`] and
//! [`Session::expand`] run the rest, and the forest, model and report can
//! be read between any two of them. [`DgrRouter::route_with_hooks`] runs
//! one, stage by stage.

use std::collections::HashMap;

use dgr_autodiff::parallel::{par_indexed, NET_PAR_MIN};
use dgr_dag::{DagForest, PatternPath};
use dgr_grid::demand::rides;
use dgr_grid::maze::{MazeConfig, MazeScratch};
use dgr_grid::{Design, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[cfg(doc)]
use crate::DgrRouter;
use crate::{
    build_cost_model, extract_solution, train, CostModel, DgrConfig, DgrError, RouteHooks,
    RoutingSolution, TrainReport,
};

/// A routing run on one design, between its stages.
///
/// Opened by [`DgrRouter::session`]. The session owns the run's random
/// number generator, so the draws of every stage come in the order
/// [`DgrRouter::route`] makes them.
#[derive(Debug)]
pub struct Session<'d> {
    design: &'d Design,
    /// The router's configuration, `iterations` set to the round trained
    /// last (extraction reads its final temperature).
    cfg: DgrConfig,
    rng: StdRng,
    /// Maze-derived path candidates per sub-net, grown by
    /// [`Session::expand`].
    extras: HashMap<usize, Vec<PatternPath>>,
    /// The forest and the model relaxed over it: `None` only inside
    /// [`Session::expand`], which drops the old pair before it builds the
    /// grown one, so a round never holds two.
    relaxed: Option<(DagForest, CostModel)>,
    report: Option<TrainReport>,
}

const HELD: &str = "a session holds its forest and model between calls";

impl<'d> Session<'d> {
    /// Candidates → forest → relax under `cfg`, which the caller has
    /// validated.
    pub(crate) fn open(cfg: DgrConfig, design: &'d Design) -> Result<Self, DgrError> {
        let extras = HashMap::new();
        // the pools go once the forest is built: `expand` derives them again
        let forest = build_forest(&cfg, design, &candidates(&cfg, design)?, &extras)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let model = relax(&cfg, design, &forest, &mut rng);
        Ok(Session {
            design,
            cfg,
            rng,
            extras,
            relaxed: Some((forest, model)),
            report: None,
        })
    }

    /// The DAG forest the model is built over.
    pub fn forest(&self) -> &DagForest {
        &self.relaxed.as_ref().expect(HELD).0
    }

    /// The relaxed model: its logits as the last training round left
    /// them.
    pub fn model(&self) -> &CostModel {
        &self.relaxed.as_ref().expect(HELD).1
    }

    /// Every training round so far, as one report (`None` before the
    /// first).
    pub fn report(&self) -> Option<&TrainReport> {
        self.report.as_ref()
    }

    /// Iterations trained so far, in every round.
    pub(crate) fn iterations(&self) -> usize {
        self.report.as_ref().map_or(0, |r| r.iterations)
    }

    /// Trains the model for `iterations` more, with `hooks` attached.
    /// Iteration numbers in telemetry and the curve go on from the rounds
    /// before, and the session's report covers them all.
    ///
    /// # Errors
    ///
    /// [`DgrError::Cancelled`] when the hooks' cancel flag is raised by
    /// the end of the round.
    pub fn train(&mut self, iterations: usize, hooks: &mut RouteHooks) -> Result<(), DgrError> {
        self.cfg.iterations = iterations;
        let offset = self.iterations();
        let (_, model) = self.relaxed.as_mut().expect(HELD);
        let round = train::train_loop(model, &self.cfg, &mut self.rng, hooks, offset);
        self.report = Some(match self.report.take() {
            Some(earlier) => earlier.followed_by(round),
            None => round,
        });
        if hooks.is_cancelled() {
            return Err(DgrError::Cancelled);
        }
        Ok(())
    }

    /// The discrete solution the model selects now, carrying the report
    /// so far.
    ///
    /// # Errors
    ///
    /// [`DgrError::Grid`] if a selected path leaves the grid.
    pub fn extract(&mut self) -> Result<RoutingSolution, DgrError> {
        dgr_obs::status_phase("extract");
        let (forest, model) = self.relaxed.as_mut().expect(HELD);
        let mut solution = extract_solution(self.design, forest, model, &self.cfg)?;
        solution.train_report = self.report.clone();
        Ok(solution)
    }

    /// Adaptive forest expansion (Section 3.1's future-work direction):
    /// every sub-net whose path in `solution` crosses an overflowed edge
    /// gets a congestion-avoiding maze candidate; the forest is rebuilt —
    /// over the candidate pools derived again, a pure function of the
    /// configuration and the design — and relaxed again, and the trained
    /// logits carry over. Returns whether anything new was added; when
    /// nothing was, the session is unchanged.
    pub fn expand(&mut self, solution: &RoutingSolution) -> bool {
        let (forest, model) = self.relaxed.as_ref().expect(HELD);
        if !grow_extras(self.design, forest, solution, &mut self.extras) {
            return false;
        }
        // the trained logits: trees in their order, which does not change,
        // and each sub-net's paths in construction order
        let tree_logits = model.tree_logits().to_vec();
        let path_logits = model.path_logits().to_vec();
        let subnet_paths: Vec<_> = (0..forest.num_subnets())
            .map(|s| forest.paths_of_subnet(s))
            .collect();
        self.relaxed = None;
        let pools = candidates(&self.cfg, self.design).expect("these pools were derived before");
        let forest = build_forest(&self.cfg, self.design, &pools, &self.extras)
            .expect("these pools built a forest before, and maze extras stay on the grid");
        drop(pools);
        let mut model = relax(&self.cfg, self.design, &forest, &mut self.rng);
        // a sub-net's paths keep their logits by position; the extras
        // appended after them start competitive with the incumbent
        let mut w_path = vec![0.0f32; forest.num_paths()];
        for (s, paths) in subnet_paths.into_iter().enumerate() {
            let old = &path_logits[paths];
            let best = old.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for (k, i) in forest.paths_of_subnet(s).enumerate() {
                w_path[i] = old.get(k).copied().unwrap_or(best);
            }
        }
        model.set_logits(&tree_logits, &w_path);
        self.relaxed = Some((forest, model));
        true
    }
}

/// The per-net tree candidate pools (span `candidates`). Trees are clamped
/// to the die, and every net draws from its own seed derived from
/// `(candidates.seed, net index)` — so the fan-out is deterministic at any
/// thread count, and the pools are a pure function of the configuration
/// and the design. No Steiner template is cached: a cache per call never
/// hit on the benchmark's designs, and cost more than it saved.
fn candidates(
    cfg: &DgrConfig,
    design: &Design,
) -> Result<Vec<Vec<dgr_rsmt::RoutingTree>>, DgrError> {
    let _s = dgr_obs::span("route", "candidates");
    dgr_obs::status_phase("candidates");
    let mut base_cfg = cfg.candidates.clone();
    base_cfg.clamp = Some(design.grid.bounds());
    let nets = &design.nets;
    let pools = par_indexed(nets.len(), NET_PAR_MIN, |i| {
        let cfg_i = dgr_rsmt::CandidateConfig {
            seed: per_net_seed(base_cfg.seed, i),
            ..base_cfg.clone()
        };
        dgr_rsmt::tree_candidates(&nets[i].pins, &cfg_i)
    });
    Ok(pools.into_iter().collect::<Result<_, _>>()?)
}

/// The DAG forest over the pools and extras (span `forest`).
fn build_forest(
    cfg: &DgrConfig,
    design: &Design,
    pools: &[Vec<dgr_rsmt::RoutingTree>],
    extras: &HashMap<usize, Vec<PatternPath>>,
) -> Result<DagForest, DgrError> {
    let _s = dgr_obs::span("route", "forest");
    dgr_obs::status_phase("forest");
    Ok(dgr_dag::build_forest_with_extras(
        &design.grid,
        pools,
        cfg.patterns,
        extras,
    )?)
}

/// The continuous relaxation over `forest` (span `relax`).
fn relax(cfg: &DgrConfig, design: &Design, forest: &DagForest, rng: &mut StdRng) -> CostModel {
    let _s = dgr_obs::span("route", "relax");
    dgr_obs::status_phase("relax");
    build_cost_model(design, forest, cfg, rng)
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

/// Adds a congestion-avoiding maze candidate for every sub-net whose
/// realized path crosses an overflowed edge. Returns whether anything
/// new was added.
fn grow_extras(
    design: &Design,
    forest: &DagForest,
    solution: &RoutingSolution,
    extras: &mut HashMap<usize, Vec<PatternPath>>,
) -> bool {
    let grid = &design.grid;
    let cap = &design.capacity;
    let demand = &solution.demand;
    let over = demand.overflow_mask(cap);
    let mut scratch = MazeScratch::new();
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
            let Some(corners) = scratch.route(
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
