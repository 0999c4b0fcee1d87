//! One routing run as a value.
//!
//! A [`Session`] holds what the stages of [`DgrRouter::route`] hand each
//! other: the DAG forest over the per-net tree candidates, the relaxed
//! [`CostModel`] and the training report so far. Opening one runs the
//! forest build → relax. The build makes each net's candidate pool when it
//! reaches the net and drops it once the net's trees are in, so no pool
//! outlives its net and a run never holds every net's pools at once.
//! [`Session::train`], [`Session::extract`] and [`Session::expand`] run
//! the rest, and the forest, model and report can be read between any two
//! of them. [`Session::finish`] is the last read-out: it keeps only the
//! model's probabilities and drops the model before extraction allocates.
//! [`DgrRouter::route_with_hooks`] runs one, stage by stage.

use dgr_dag::{DagForest, PatternPath, SubnetExtras};
use dgr_grid::demand::rides;
use dgr_grid::maze::{MazeConfig, MazeScratch};
use dgr_grid::{Design, Rect};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[cfg(doc)]
use crate::DgrRouter;
use crate::{
    build_cost_model, extract, extract_solution, train, CostModel, DgrConfig, DgrError, RouteHooks,
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
    /// Maze-derived path candidates per sub-net, by net and sub-net
    /// within the net, grown by [`Session::expand`].
    extras: SubnetExtras,
    /// The forest and the model relaxed over it: `None` only inside
    /// [`Session::expand`], which drops the old pair before it builds the
    /// grown one, so a round never holds two.
    relaxed: Option<(DagForest, CostModel)>,
    report: Option<TrainReport>,
}

const HELD: &str = "a session holds its forest and model between calls";

impl<'d> Session<'d> {
    /// Forest → relax under `cfg`, which the caller has validated.
    pub(crate) fn open(cfg: DgrConfig, design: &'d Design) -> Result<Self, DgrError> {
        let extras = SubnetExtras::new();
        let forest = build_forest(&cfg, design, &extras)?;
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
    /// so far. The session stays as it was but for the model's
    /// temperature and probabilities.
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

    /// The last read-out: what [`Session::extract`] returns, from a
    /// session that ends here. Only the probabilities the read-out needs
    /// (4 B per tree and per path) are taken out of the model, and the
    /// model's buffers are freed before extraction allocates.
    ///
    /// # Errors
    ///
    /// As [`Session::extract`].
    pub fn finish(mut self) -> Result<RoutingSolution, DgrError> {
        dgr_obs::status_phase("extract");
        let _span = dgr_obs::span("route", "extract");
        let (forest, mut model) = self.relaxed.take().expect(HELD);
        extract::read_out(&mut model, &self.cfg);
        let trees = model.num_trees();
        let probabilities = model.into_probabilities();
        let (q, p) = probabilities.split_at(trees);
        let mut solution = extract::from_probabilities(self.design, &forest, q, p, &self.cfg)?;
        solution.train_report = self.report;
        Ok(solution)
    }

    /// Adaptive forest expansion (Section 3.1's future-work direction):
    /// every sub-net whose path in `solution` crosses an overflowed edge
    /// gets a congestion-avoiding maze candidate; the forest is rebuilt —
    /// over the candidate pools made again, net by net, a pure function of
    /// the configuration and the design — and relaxed again, and the
    /// trained logits carry over. Returns whether anything new was added; when
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
        let forest = build_forest(&self.cfg, self.design, &self.extras)
            .expect("these pools built a forest before, and maze extras stay on the grid");
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

/// The DAG forest over the per-net tree candidates and `extras` (span
/// `forest`). Each net's pool is made when the build reaches the net
/// (span `candidates`, one per net) and dropped once its trees are in.
/// Trees are clamped to the die, and every net draws from its own seed
/// derived from `(candidates.seed, net index)` — so the pools, and the
/// forest, are a pure function of the configuration and the design at
/// any thread count. No Steiner template is cached: a cache per call
/// never hit on the benchmark's designs, and cost more than it saved.
fn build_forest(
    cfg: &DgrConfig,
    design: &Design,
    extras: &SubnetExtras,
) -> Result<DagForest, DgrError> {
    let _s = dgr_obs::span("route", "forest");
    dgr_obs::status_phase("forest");
    let mut base_cfg = cfg.candidates.clone();
    base_cfg.clamp = Some(design.grid.bounds());
    let nets = &design.nets;
    let pool_of = |n: usize| {
        let _s = dgr_obs::span("route", "candidates");
        let cfg_n = dgr_rsmt::CandidateConfig {
            seed: per_net_seed(base_cfg.seed, n),
            ..base_cfg.clone()
        };
        dgr_rsmt::tree_candidates(&nets[n].pins, &cfg_n).map_err(DgrError::from)
    };
    dgr_dag::build_forest_from(&design.grid, nets.len(), pool_of, cfg.patterns, extras)
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
    extras: &mut SubnetExtras,
) -> bool {
    let grid = &design.grid;
    let cap = &design.capacity;
    let demand = &solution.demand;
    let over = demand.overflow_mask(cap);
    let mut scratch = MazeScratch::new();
    let mut grew = false;
    for route in &solution.routes {
        let first = forest
            .subnets_of_tree(forest.trees_of_net(route.net).start)
            .start;
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
            let slot = extras.entry((route.net, s - first)).or_default();
            if !slot.contains(&candidate) {
                slot.push(candidate);
                grew = true;
            }
        }
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DgrRouter;
    use dgr_autodiff::parallel::{set_num_threads, NET_PAR_MIN};
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};
    use rand::Rng;

    /// A random design of `nets` nets of 2–4 pins on a small grid of
    /// capacity 1, so that it overflows.
    fn congested(seed: u64, nets: usize) -> Design {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = rng.gen_range(6..12);
        let grid = GcellGrid::new(side, side).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let nets = (0..nets)
            .map(|n| {
                let pins = (0..rng.gen_range(2..5))
                    .map(|_| {
                        Point::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32))
                    })
                    .collect();
                Net::new(format!("n{n}"), pins)
            })
            .collect();
        Design::new(grid, cap, nets, 5).unwrap()
    }

    /// Whether two read-outs are the same solution, bit for bit.
    fn assert_same(got: &RoutingSolution, want: &RoutingSolution, case: &str) {
        assert_eq!(got.routes, want.routes, "{case}");
        assert!(got.demand == want.demand, "{case}: demand");
        // `{:?}` prints each float's shortest round trip: equal text is
        // equal bits
        let bits = |s: &RoutingSolution| format!("{:?}", s.metrics);
        assert_eq!(bits(got), bits(want), "{case}: metrics");
        let report = |s: &RoutingSolution| {
            let r = s.train_report.as_ref()?;
            Some((r.iterations, r.final_loss.to_bits(), r.live.clone()))
        };
        assert_eq!(report(got), report(want), "{case}: report");
    }

    /// Twin sessions read out alike, whether the read-out keeps the
    /// session ([`Session::extract`]) or ends it ([`Session::finish`]):
    /// untrained, where the model is at its initial temperature and
    /// not at the final one; after short training, where the noise-free
    /// probabilities are far from the noisy ones of the last pass; after
    /// training past three temperature steps, so that the model was pruned
    /// and put back in the forest's layout; and right after an expansion.
    #[test]
    fn finish_reads_out_what_extract_reads_out() {
        let (mut pruned, mut expanded) = (0, 0);
        for seed in 0..12u64 {
            let design = congested(seed, 12 + seed as usize);
            let iterations = [20, 60, 310][seed as usize % 3];
            // without rip-up rounds a top-p set's members show in the picks
            let cfg = DgrConfig {
                seed,
                extraction_rounds: [0, 2][seed as usize % 2],
                ..DgrConfig::default()
            };
            let router = DgrRouter::new(cfg);
            let opened = || router.session(&design).unwrap();
            let want = opened().extract().unwrap();
            assert_same(
                &opened().finish().unwrap(),
                &want,
                &format!("seed {seed}, untrained"),
            );

            let trained = || {
                let mut session = opened();
                session
                    .train(iterations, &mut RouteHooks::default())
                    .unwrap();
                session
            };
            let (mut kept, ended) = (trained(), trained());
            let want = kept.extract().unwrap();
            pruned += usize::from(kept.report().unwrap().live.len() > 1);
            assert_same(&ended.finish().unwrap(), &want, &format!("seed {seed}"));

            let (mut kept, mut ended) = (trained(), trained());
            let first = kept.extract().unwrap();
            if kept.expand(&first) {
                let first = ended.extract().unwrap();
                assert!(ended.expand(&first));
                let want = kept.extract().unwrap();
                assert_same(
                    &ended.finish().unwrap(),
                    &want,
                    &format!("seed {seed}, grown"),
                );
                expanded += 1;
            }
        }
        assert!(pruned > 0, "no case was pruned before its read-out");
        assert!(expanded > 0, "no case grew");
    }

    /// A pin-less net fails the run with the tree builder's error, from
    /// either half of the nets and at any thread count: the first error in
    /// net order, as when every pool was made before the forest.
    #[test]
    fn a_pin_less_net_in_either_half_fails_with_no_pins() {
        let nets = NET_PAR_MIN + 7;
        let mut design = congested(5, nets);
        let router = DgrRouter::new(DgrConfig::default());
        for empty in [[nets - 2, nets - 2], [3, nets - 2]] {
            for n in empty {
                design.nets[n].pins.clear();
            }
            for threads in [1, 2] {
                set_num_threads(threads);
                let opened = router.session(&design);
                set_num_threads(0);
                let error = opened.expect_err("a net has no pins");
                assert!(
                    matches!(error, DgrError::Rsmt(dgr_rsmt::RsmtError::NoPins)),
                    "nets {empty:?} empty, {threads} threads: {error}"
                );
            }
        }
    }
}
