//! Discrete read-out of the optimized probabilities (Section 4.5).
//!
//! * **Trees**: the highest-probability candidate per net — after
//!   temperature annealing these probabilities are close to one-hot.
//! * **Paths**: top-p candidate sets (rank by probability, take until the
//!   cumulative mass passes [`TOP_P`]), then a greedy congestion-aware
//!   pick inside each set against the demand committed so far. With
//!   [`ExtractionMode::Argmax`] the set degenerates to the single most
//!   probable path (the Table-1 read-out).
//!
//! The greedy/rip-up phases commit to the one [`DemandMap`] ledger by
//! edge and turn-cell ids — the edges a path's runs derive
//! ([`DagForest::path_edges`], collected nowhere), the turn cells the
//! forest stores — instead of re-deriving edges from corner polylines,
//! and price a candidate with the ledger's own `marginal` — for a wire on
//! each of its edges, for a turn's `½β` on each edge around the turn cell.

use dgr_autodiff::parallel::{par_halves, par_indexed, Helper, NET_PAR_MIN};
use dgr_dag::DagForest;
use dgr_grid::{CapacityModel, DemandMap, Design, EdgeId, GcellId};

use crate::config::{DgrConfig, ExtractionMode};
use crate::relax::CostModel;
use crate::solution::{NetRoute, RoutePath, RoutingSolution};
use crate::DgrError;

/// The cumulative probability a top-p candidate set passes
/// ([`ExtractionMode::TopP`]).
pub const TOP_P: f32 = 0.9;

/// The extraction plans of a run of consecutive nets — everything about
/// their read-out that does not depend on the demand committed by earlier
/// nets, computed in parallel: per net the argmax tree and, per subnet of
/// that tree, the ranked candidate set the serial greedy pass chooses
/// from. The sets of all the nets share one arena.
struct Plans {
    /// The argmax tree of each net.
    trees: Vec<usize>,
    /// Set `k` — the subnets of each net's tree in order, net after net —
    /// is `members[set_starts[k]..set_starts[k + 1]]`.
    set_starts: Vec<usize>,
    members: Vec<usize>,
}

impl Plans {
    fn of_nets(
        forest: &DagForest,
        cfg: &DgrConfig,
        (q, p): (&[f32], &[f32]),
        nets: std::ops::Range<usize>,
    ) -> Plans {
        let mut plans = Plans {
            trees: Vec::with_capacity(nets.len()),
            set_starts: vec![0],
            members: Vec::new(),
        };
        for n in nets {
            let tree = forest
                .trees_of_net(n)
                .max_by(|&a, &b| q[a].total_cmp(&q[b]))
                .expect("net has at least one tree");
            plans.trees.push(tree);
            for s in forest.subnets_of_tree(tree) {
                match cfg.extraction {
                    ExtractionMode::Argmax => plans.members.push(
                        forest
                            .paths_of_subnet(s)
                            .max_by(|&a, &b| p[a].total_cmp(&p[b]))
                            .expect("subnet has at least one path"),
                    ),
                    ExtractionMode::TopP => push_top_p_set(forest, s, p, TOP_P, &mut plans.members),
                }
                plans.set_starts.push(plans.members.len());
            }
        }
        plans
    }

    /// The candidate sets, in the order they were planned.
    fn sets(&self) -> impl Iterator<Item = &[usize]> {
        self.set_starts
            .windows(2)
            .map(|w| &self.members[w[0]..w[1]])
    }
}

/// Extracts a discrete 2D solution from a trained model.
///
/// Takes the noise-free probabilities at the final annealed temperature,
/// then realizes the selections net by net, committing demand as it goes
/// (so later greedy picks see earlier commitments).
///
/// # Errors
///
/// Propagates grid errors if a realized path leaves the grid (cannot
/// happen for forests built against the same grid).
pub fn extract_solution(
    design: &Design,
    forest: &DagForest,
    model: &mut CostModel,
    cfg: &DgrConfig,
) -> Result<RoutingSolution, DgrError> {
    let _span = dgr_obs::span("route", "extract");
    read_out(model, cfg);
    from_probabilities(design, forest, model.q(), model.p(), cfg)
}

/// Sets `model`'s `q` and `p` to what the read-out takes: no noise, the
/// final temperature of a run of `cfg.iterations`.
pub(crate) fn read_out(model: &mut CostModel, cfg: &DgrConfig) {
    model.set_temperature(cfg.temperature_at(cfg.iterations.saturating_sub(1)));
    model.probabilities();
}

/// The solution the tree probabilities `q` and the path probabilities `p`
/// over `forest` select ([`extract_solution`]'s body, which needs nothing
/// else of the model).
pub(crate) fn from_probabilities(
    design: &Design,
    forest: &DagForest,
    q: &[f32],
    p: &[f32],
    cfg: &DgrConfig,
) -> Result<RoutingSolution, DgrError> {
    // one helper for the plans and each round's victim scan
    let _helper = (forest.num_nets() >= NET_PAR_MIN).then(Helper::engage);
    let grid = &design.grid;

    // Demand-independent per-path cost (wirelength + via terms of the
    // greedy objective), computed once instead of per greedy evaluation.
    let sqrt_l = (design.num_layers as f32).sqrt();
    let static_cost: Vec<f32> = (0..forest.num_paths())
        .map(|i| {
            cfg.weights.wirelength * forest.path_wirelength(i)
                + cfg.weights.via * sqrt_l * forest.path_turn_count(i)
        })
        .collect();

    // Phase 1 (parallel, pure): per-net plans — argmax tree plus ranked
    // candidate sets — of the lower and the upper half of the nets. The
    // cut is by net index, so the plans read in order are identical at
    // any thread count.
    let (lower, upper) = par_halves(forest.num_nets(), NET_PAR_MIN, |nets| {
        Plans::of_nets(forest, cfg, (q, p), nets)
    });

    // Phase 2 (serial): greedy picks against the demand committed so far —
    // inherently order-dependent, kept in net order. `picks` remembers each
    // route's forest path indices (net `n`'s are `picks[pick_starts[n]..
    // pick_starts[n + 1]]`) so the rip-up scans below can walk `path_edges`
    // instead of re-deriving edges from corner polylines.
    let cap = &design.capacity;
    let mut demand = DemandMap::new(grid);
    let mut routes = Vec::with_capacity(forest.num_nets());
    let mut picks: Vec<usize> = Vec::new();
    let mut pick_starts = Vec::with_capacity(forest.num_nets() + 1);
    pick_starts.push(0);
    for plans in [Some(lower), upper].into_iter().flatten() {
        let mut sets = plans.sets();
        for &tree in &plans.trees {
            let subnets = forest.subnets_of_tree(tree);
            let mut paths = Vec::with_capacity(subnets.len());
            for s in subnets {
                let set = sets.next().expect("one set per subnet of the tree");
                let pick = if set.len() == 1 {
                    set[0]
                } else {
                    let set = set.iter().copied();
                    greedy_pick(forest, cfg, cap, &demand, &static_cost, set)
                };
                demand.commit_ids(forest.path_edges(pick), forest.path_vias(pick));
                paths.push(realize_path(grid, forest, s, pick));
                picks.push(pick);
            }
            routes.push(NetRoute {
                net: routes.len(),
                tree,
                paths,
            });
            pick_starts.push(picks.len());
        }
    }
    let picks_of = |n: usize| pick_starts[n]..pick_starts[n + 1];

    // rip-up/re-pick rounds: nets over congested edges re-choose their
    // paths greedily over the full candidate set of their selected tree.
    // The victim scan is a pure read of the committed demand — parallel;
    // the re-pick loop commits — serial.
    for _ in 0..cfg.extraction_rounds {
        let over = demand.overflow_mask(cap);
        let victim_mask = par_indexed(routes.len(), NET_PAR_MIN, |n| {
            picks[picks_of(n)]
                .iter()
                .any(|&i| forest.path_edges(i).any(|e| over[e as usize]))
        });
        let victims: Vec<usize> = (0..routes.len()).filter(|&n| victim_mask[n]).collect();
        if victims.is_empty() {
            break;
        }
        for &n in &victims {
            // rip up
            for &i in &picks[picks_of(n)] {
                demand.rip_up_ids(forest.path_edges(i), forest.path_vias(i));
            }
            // re-pick over all candidates of the selected tree
            let subnets = forest.subnets_of_tree(routes[n].tree);
            for ((s, pick), path) in subnets
                .zip(&mut picks[picks_of(n)])
                .zip(&mut routes[n].paths)
            {
                let set = forest.paths_of_subnet(s);
                *pick = greedy_pick(forest, cfg, cap, &demand, &static_cost, set);
                demand.commit_ids(forest.path_edges(*pick), forest.path_vias(*pick));
                *path = realize_path(grid, forest, s, *pick);
            }
        }
    }

    let solution = RoutingSolution::from_routes(design, routes)?;
    debug_assert!(
        solution.demand == demand,
        "demand committed by forest ids differs from a recount of the polylines"
    );
    Ok(solution)
}

/// Appends the top-p candidate set of subnet `s` to `members`: paths in
/// descending probability until the cumulative mass passes `threshold`
/// (always ≥ 1 path).
fn push_top_p_set(
    forest: &DagForest,
    s: usize,
    p: &[f32],
    threshold: f32,
    members: &mut Vec<usize>,
) {
    let start = members.len();
    members.extend(forest.paths_of_subnet(s));
    members[start..].sort_by(|&a, &b| p[b].total_cmp(&p[a]));
    let mut cum = 0.0f32;
    let mut kept = 0;
    for &i in &members[start..] {
        kept += 1;
        cum += p[i];
        if cum >= threshold {
            break;
        }
    }
    members.truncate(start + kept);
}

/// Greedy pick inside a candidate set: minimize the marginal discrete
/// cost against the demand committed so far (the first candidate, if none
/// prices below infinity). `static_cost[i]` carries the
/// demand-independent wirelength + via terms.
fn greedy_pick(
    forest: &DagForest,
    cfg: &DgrConfig,
    cap: &CapacityModel,
    demand: &DemandMap,
    static_cost: &[f32],
    set: impl Iterator<Item = usize> + Clone,
) -> usize {
    let mut best = set.clone().next().expect("a candidate set is never empty");
    let mut best_cost = f32::INFINITY;
    for i in set {
        // marginal wire overflow along the path's edges (a fold: the
        // derived edges iterate fastest from the inside)
        let mut cost = forest.path_edges(i).fold(static_cost[i], |cost, e| {
            cost + cfg.weights.overflow * demand.marginal(cap, EdgeId(e), 1.0)
        });
        // marginal via-pressure overflow around the turn cells
        for &v in forest.path_vias(i) {
            let share = cap.half_beta(GcellId(v));
            for &e in cap.incident_edges(GcellId(v)) {
                cost += cfg.weights.overflow * demand.marginal(cap, e, share);
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    best
}

/// Materializes path `i` of subnet `s` as a corner polyline.
fn realize_path(grid: &dgr_grid::GcellGrid, forest: &DagForest, s: usize, i: usize) -> RoutePath {
    let (a, b) = forest.subnet_endpoints(s);
    let mut corners = Vec::with_capacity(forest.path_vias(i).len() + 2);
    corners.push(a);
    for &v in forest.path_vias(i) {
        corners.push(grid.cell_point(GcellId(v)));
    }
    if b != a {
        corners.push(b);
    }
    RoutePath { corners }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::build_cost_model;
    use crate::train::train;
    use dgr_dag::{build_forest, PatternConfig};
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};
    use dgr_rsmt::{tree_candidates, CandidateConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn routed(tracks: f32, mode: ExtractionMode, seed: u64) -> (Design, RoutingSolution) {
        let grid = GcellGrid::new(8, 8).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(6, 6)]),
                Net::new("b", vec![Point::new(0, 0), Point::new(6, 6)]),
                Net::new("c", vec![Point::new(0, 6), Point::new(6, 0)]),
            ],
            5,
        )
        .unwrap();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig {
            iterations: 150,
            extraction: mode,
            seed,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        train(&mut model, &cfg, &mut rng);
        let sol = extract_solution(&design, &forest, &mut model, &cfg).unwrap();
        (design, sol)
    }

    #[test]
    fn solution_connects_all_subnets_with_minimal_wirelength() {
        let (_, sol) = routed(4.0, ExtractionMode::Argmax, 1);
        assert_eq!(sol.routes.len(), 3);
        for route in &sol.routes {
            assert_eq!(route.paths.len(), 1);
            let p = &route.paths[0];
            assert_eq!(p.wirelength(), 12); // monotone pattern = manhattan
            assert!(p.num_turns() <= 1);
        }
        assert_eq!(sol.metrics.total_wirelength, 36);
    }

    #[test]
    fn top_p_greedy_matches_or_beats_argmax_on_overflow() {
        let (_, am) = routed(1.0, ExtractionMode::Argmax, 3);
        let (_, tp) = routed(1.0, ExtractionMode::TopP, 3);
        assert!(
            tp.metrics.overflow.total_overflow <= am.metrics.overflow.total_overflow + 1e-6,
            "top-p {} vs argmax {}",
            tp.metrics.overflow.total_overflow,
            am.metrics.overflow.total_overflow
        );
    }

    #[test]
    fn demand_is_consistent_with_remeasure() {
        let (design, sol) = routed(2.0, ExtractionMode::TopP, 5);
        // remeasure from scratch and compare
        let mut copy = sol.clone();
        copy.remeasure(&design).unwrap();
        assert_eq!(copy.metrics.total_wirelength, sol.metrics.total_wirelength);
        assert_eq!(copy.demand.wire_slice(), sol.demand.wire_slice());
    }

    #[test]
    fn top_p_set_respects_threshold() {
        let grid = GcellGrid::new(8, 8).unwrap();
        let pool = tree_candidates(
            &[Point::new(0, 0), Point::new(4, 4)],
            &CandidateConfig::single(),
        )
        .unwrap();
        let forest = build_forest(&grid, &[pool], PatternConfig::l_only()).unwrap();
        // two paths with p = [0.2, 0.8]; a set lands behind what is there
        let p = vec![0.2f32, 0.8];
        let top_p_set = |threshold: f32| {
            let mut members = vec![7];
            push_top_p_set(&forest, 0, &p, threshold, &mut members);
            members
        };
        assert_eq!(top_p_set(0.7), vec![7, 1]);
        assert_eq!(top_p_set(0.9), vec![7, 1, 0]);
        assert_eq!(top_p_set(1.0), vec![7, 1, 0]);
    }
}
