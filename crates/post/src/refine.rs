//! Maze-routing refinement of congested nets (Section 4.6).
//!
//! After the pattern-routing solution is extracted, nets that cross
//! overflowed g-cell edges are ripped up and rerouted with the maze
//! engine under an overflow-penalized cost. This is the same refinement
//! CUGR2 applies to DGR's 2D output before layer assignment.

use dgr_core::solution::overflowed_nets;
use dgr_core::{RoutePath, RoutingSolution};
use dgr_grid::demand::touched_edges;
use dgr_grid::maze::MazeScratch;
use dgr_grid::{DemandMap, Design, EdgeId, Point};

use crate::PostError;

/// Configuration of the refinement pass.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Maximum rip-up/reroute rounds.
    pub rounds: usize,
    /// Overflow penalty added to the unit wire cost in the maze search.
    pub overflow_penalty: f32,
    /// Turn cost in the maze search (via proxy).
    pub turn_cost: f32,
    /// Search-window inflation around each sub-net's bounding box.
    pub margin: i32,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            rounds: 2,
            overflow_penalty: 1000.0,
            turn_cost: 1.0,
            margin: 8,
        }
    }
}

/// What the refinement accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineReport {
    /// Rounds actually executed.
    pub rounds: usize,
    /// Nets rerouted in total (with multiplicity across rounds).
    pub nets_rerouted: usize,
    /// Overflowed edges before refinement.
    pub overflowed_before: usize,
    /// Overflowed edges after refinement.
    pub overflowed_after: usize,
    /// Maze searches run (windowed, certificate and full-grid).
    pub searches: usize,
    /// Searches repeated on the full grid because the windowed result
    /// still rode overflow and its window could not certify it.
    pub escalations: usize,
    /// Windowed results that still rode overflow and were certified as
    /// the full grid's answer, so that it was not searched.
    pub escalations_avoided: usize,
    /// States popped from the search heap over all searches.
    pub states_expanded: usize,
}

/// The search's view of congestion, dense per edge and kept current for
/// the whole pass: `marginal[e]` is [`DemandMap::marginal`] of one more
/// wire on the demand as it stands and `cost[e] = 1 + penalty ·
/// marginal[e]`. Demand changes only where a polyline is ripped up or
/// committed, so [`EdgeCosts::refresh`] recomputes exactly the
/// [`touched_edges`] of it, by the same expression that filled them.
#[derive(Debug, PartialEq)]
struct EdgeCosts {
    penalty: f32,
    marginal: Vec<f32>,
    cost: Vec<f32>,
}

impl EdgeCosts {
    fn new(design: &Design, demand: &DemandMap, penalty: f32) -> Self {
        let mut costs = EdgeCosts {
            penalty,
            marginal: vec![0.0; design.grid.num_edges()],
            cost: vec![0.0; design.grid.num_edges()],
        };
        for e in design.grid.edge_ids() {
            costs.set(design, demand, e);
        }
        costs
    }

    fn set(&mut self, design: &Design, demand: &DemandMap, e: EdgeId) {
        let m = demand.marginal(&design.capacity, e, 1.0);
        self.marginal[e.index()] = m;
        self.cost[e.index()] = 1.0 + self.penalty * m;
    }

    /// Brings the costs up to date with a commit or rip-up of `corners`.
    fn refresh(
        &mut self,
        design: &Design,
        demand: &DemandMap,
        corners: &[Point],
    ) -> Result<(), PostError> {
        for e in touched_edges(&design.grid, &design.capacity, corners)? {
            self.set(design, demand, e);
        }
        Ok(())
    }
}

/// Reroutes every net that crosses an overflowed edge, in place: each
/// victim is ripped up whole and its sub-nets are maze-routed one by one
/// under the overflow-penalized cost, every result committed as found.
/// Nothing is compared afterwards — a reroute is kept even where it does
/// not lower the overflow. Where overflow is avoidable it goes; on a design
/// that cannot be routed without it, the overflowed-edge count can rise
/// while the total overflow falls. A solution none of whose nets rides an
/// overflowed edge comes back as it went in, demand and metrics included.
///
/// # Errors
///
/// Propagates grid errors (impossible for solutions produced against the
/// same design). [`PostError::Unroutable`] means the search found no path
/// at all, which takes a non-finite `overflow_penalty` or demand; the
/// solution is then returned with the failing net and all later ones as
/// they were, and its demand consistent with its routes.
pub fn refine(
    design: &Design,
    solution: &mut RoutingSolution,
    cfg: RefineConfig,
) -> Result<RefineReport, PostError> {
    let _span = dgr_obs::span("post", "refine");
    let overflowed_before = solution.metrics.overflow.overflowed_edges;
    let mut scratch = MazeScratch::new();
    let pass = reroute(design, solution, cfg, certified(&mut scratch, design, cfg));
    let kept = cfg!(debug_assertions).then(|| solution.demand.clone());
    // a pass that found no victim ripped nothing up: a recount would
    // reproduce the demand and metrics the solution came with
    if !matches!(pass, Ok((0, ..))) {
        solution.remeasure(design)?;
    }
    let (rounds, nets_rerouted, costs) = pass?;
    debug_assert!(
        kept.is_some_and(|kept| kept == solution.demand),
        "incrementally kept demand differs from a recount of the routes"
    );
    debug_assert!(
        costs.is_none_or(
            |costs| costs == EdgeCosts::new(design, &solution.demand, cfg.overflow_penalty)
        ),
        "incrementally kept edge costs differ from a recompute"
    );
    Ok(RefineReport {
        rounds,
        nets_rerouted,
        overflowed_before,
        overflowed_after: solution.metrics.overflow.overflowed_edges,
        searches: scratch.searches,
        escalations: scratch.escalations,
        escalations_avoided: scratch.escalations_avoided,
        states_expanded: scratch.states_expanded,
    })
}

/// The search [`refine`] reroutes with: [`MazeScratch::route_escalating`]
/// under the costs kept through the pass, an edge being clean when one
/// more wire would not overflow it.
fn certified<'a>(
    scratch: &'a mut MazeScratch,
    design: &'a Design,
    cfg: RefineConfig,
) -> impl FnMut((Point, Point), &EdgeCosts) -> Option<Vec<Point>> + 'a {
    move |ends, costs| {
        scratch.route_escalating(
            &design.grid,
            ends,
            cfg.margin,
            cfg.turn_cost,
            |e| costs.cost[e.index()],
            |e| costs.marginal[e.index()] <= 0.0,
        )
    }
}

/// The rip-up-and-reroute rounds of [`refine`], up to but not including
/// the final re-measure: returns rounds run, nets rerouted and the edge
/// costs as kept through the pass (`None` when nothing overflowed).
/// `search` finds each sub-net's new polyline under the costs as they
/// stand; it is a parameter so that a test can reroute by a reference rule.
fn reroute(
    design: &Design,
    solution: &mut RoutingSolution,
    cfg: RefineConfig,
    mut search: impl FnMut((Point, Point), &EdgeCosts) -> Option<Vec<Point>>,
) -> Result<(usize, usize, Option<EdgeCosts>), PostError> {
    let grid = &design.grid;
    let RoutingSolution { routes, demand, .. } = solution;
    let mut costs = None;
    let mut nets_rerouted = 0usize;
    let mut rounds = 0usize;

    for _ in 0..cfg.rounds {
        let victims = overflowed_nets(design, demand, routes);
        if victims.is_empty() {
            break;
        }
        rounds += 1;
        let costs =
            costs.get_or_insert_with(|| EdgeCosts::new(design, demand, cfg.overflow_penalty));
        for &n in &victims {
            for path in &routes[n].paths {
                demand.rip_up(grid, &path.corners)?;
                costs.refresh(design, demand, &path.corners)?;
            }
            // reroute each sub-net by maze under overflow penalty
            let mut new_paths = Vec::with_capacity(routes[n].paths.len());
            for path in &routes[n].paths {
                let (a, b) = (
                    *path.corners.first().expect("non-empty"),
                    *path.corners.last().expect("non-empty"),
                );
                if a == b {
                    new_paths.push(path.clone());
                    continue;
                }
                let corners = search((a, b), costs).ok_or(PostError::Unroutable { net: n })?;
                demand.commit(grid, &corners)?;
                costs.refresh(design, demand, &corners)?;
                new_paths.push(RoutePath { corners });
            }
            routes[n].paths = new_paths;
            nets_rerouted += 1;
        }
    }
    Ok((rounds, nets_rerouted, costs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_core::NetRoute;
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};

    fn overflowing_solution() -> (Design, RoutingSolution) {
        // two nets stacked on the same row although a free row exists
        let grid = GcellGrid::new(10, 10).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.5).build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 5), Point::new(9, 5)]),
                Net::new("b", vec![Point::new(1, 5), Point::new(8, 5)]),
            ],
            5,
        )
        .unwrap();
        let routes = vec![
            NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 5), Point::new(9, 5)],
                }],
            },
            NetRoute {
                net: 1,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(1, 5), Point::new(8, 5)],
                }],
            },
        ];
        let sol = RoutingSolution::from_routes(&design, routes).unwrap();
        (design, sol)
    }

    #[test]
    fn refinement_removes_avoidable_overflow() {
        let (design, mut sol) = overflowing_solution();
        assert!(sol.metrics.overflow.overflowed_edges > 0);
        let report = refine(&design, &mut sol, RefineConfig::default()).unwrap();
        assert_eq!(report.overflowed_after, 0, "refinement failed: {report:?}");
        assert!(report.nets_rerouted >= 1);
        assert!(report.overflowed_before > report.overflowed_after);
        // the solution metrics were re-measured
        assert_eq!(
            sol.metrics.overflow.overflowed_edges,
            report.overflowed_after
        );
    }

    #[test]
    fn refinement_is_a_noop_on_clean_solutions() {
        let grid = GcellGrid::new(10, 10).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 4.0).build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![Net::new("a", vec![Point::new(0, 0), Point::new(9, 0)])],
            5,
        )
        .unwrap();
        let mut sol = RoutingSolution::from_routes(
            &design,
            vec![NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 0), Point::new(9, 0)],
                }],
            }],
        )
        .unwrap();
        let before = sol.clone();
        let report = refine(&design, &mut sol, RefineConfig::default()).unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(report.nets_rerouted, 0);
        assert_eq!(
            sol.metrics.total_wirelength,
            before.metrics.total_wirelength
        );
    }

    #[test]
    fn wirelength_may_grow_but_overflow_shrinks() {
        let (design, mut sol) = overflowing_solution();
        let wl_before = sol.metrics.total_wirelength;
        let ov_before = sol.metrics.overflow.total_overflow;
        refine(&design, &mut sol, RefineConfig::default()).unwrap();
        assert!(sol.metrics.overflow.total_overflow < ov_before);
        assert!(sol.metrics.total_wirelength >= wl_before);
    }

    /// A 32×32 generated design routed by patterns alone at a capacity
    /// that leaves hundreds of edges overflowed.
    fn congested_solution() -> (Design, RoutingSolution) {
        pattern_routed(8.0)
    }

    fn pattern_routed(base_capacity: f32) -> (Design, RoutingSolution) {
        use dgr_baseline::sequential::{SequentialConfig, SequentialRouter};
        use dgr_io::{IspdLikeConfig, IspdLikeGenerator};
        let design = IspdLikeGenerator::new(IspdLikeConfig {
            width: 32,
            height: 32,
            num_nets: 700,
            base_capacity,
            seed: 7,
            ..IspdLikeConfig::default()
        })
        .generate()
        .unwrap();
        let patterns_only = SequentialConfig {
            rrr_rounds: 0,
            ..SequentialConfig::default()
        };
        let sol = SequentialRouter::new(patterns_only).route(&design).unwrap();
        (design, sol)
    }

    #[test]
    fn refine_returns_what_a_pass_followed_by_a_recount_does() {
        let cfg = RefineConfig::default();
        for (base_capacity, overflows) in [(200.0, false), (8.0, true)] {
            let (design, start) = pattern_routed(base_capacity);
            assert_eq!(start.metrics.overflow.overflowed_edges > 0, overflows);

            // the pass, then the recount whether or not a net was ripped up
            let mut want = start.clone();
            let mut scratch = MazeScratch::new();
            let search = certified(&mut scratch, &design, cfg);
            let (rounds, nets_rerouted, _) = reroute(&design, &mut want, cfg, search).unwrap();
            want.remeasure(&design).unwrap();
            assert_eq!(rounds > 0, overflows);

            let mut got = start.clone();
            let report = refine(&design, &mut got, cfg).unwrap();
            assert_eq!(got.routes, want.routes);
            assert_eq!(got.demand, want.demand);
            assert_eq!(got.metrics, want.metrics);
            let want_report = RefineReport {
                rounds,
                nets_rerouted,
                overflowed_before: start.metrics.overflow.overflowed_edges,
                overflowed_after: want.metrics.overflow.overflowed_edges,
                searches: scratch.searches,
                escalations: scratch.escalations,
                escalations_avoided: scratch.escalations_avoided,
                states_expanded: scratch.states_expanded,
            };
            assert_eq!(report, want_report);
        }
    }

    #[test]
    fn a_pass_without_victims_does_not_recount() {
        let (design, mut sol) = pattern_routed(200.0);
        // a recount would put the wirelength back
        sol.metrics.total_wirelength += 1;
        let marked = sol.metrics;
        let report = refine(&design, &mut sol, RefineConfig::default()).unwrap();
        assert_eq!((report.rounds, report.searches), (0, 0));
        assert_eq!(sol.metrics, marked);
    }

    #[test]
    fn kept_costs_and_demand_equal_a_recompute() {
        let (design, mut sol) = congested_solution();
        assert!(sol.metrics.overflow.overflowed_edges > 100);
        let cfg = RefineConfig::default();
        let mut scratch = MazeScratch::new();
        let search = certified(&mut scratch, &design, cfg);
        let (rounds, rerouted, costs) = reroute(&design, &mut sol, cfg, search).unwrap();
        assert_eq!(rounds, cfg.rounds);
        assert!(rerouted > 100 && scratch.escalations > 0, "{rerouted} nets");

        let mut recount = sol.clone();
        recount.remeasure(&design).unwrap();
        assert_eq!(sol.demand, recount.demand);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (kept, fresh) = (
            costs.unwrap(),
            EdgeCosts::new(&design, &sol.demand, cfg.overflow_penalty),
        );
        assert_eq!(bits(&kept.marginal), bits(&fresh.marginal));
        assert_eq!(bits(&kept.cost), bits(&fresh.cost));
    }

    #[test]
    fn certified_reroutes_equal_always_escalating_ones() {
        use dgr_grid::maze::MazeConfig;
        let (design, start) = congested_solution();
        let cfg = RefineConfig::default();

        let mut sol = start.clone();
        let mut scratch = MazeScratch::new();
        let search = certified(&mut scratch, &design, cfg);
        let (_, rerouted, costs) = reroute(&design, &mut sol, cfg, search).unwrap();
        // both outcomes of the certificate occur
        assert!(
            scratch.escalations_avoided > 0 && scratch.escalations > 0,
            "{} certified, {} escalated",
            scratch.escalations_avoided,
            scratch.escalations
        );

        // the rule the certificate stands in for: window first, whole grid
        // whenever the result is missing or rides an edge that is not clean
        let grid = &design.grid;
        let mut reference = MazeScratch::new();
        let always_escalating = |(a, b): (Point, Point), costs: &EdgeCosts| {
            let mut window = MazeConfig {
                bounds: Some(
                    dgr_grid::Rect::bounding(&[a, b]).inflate_clamped(cfg.margin, grid.bounds()),
                ),
                turn_cost: cfg.turn_cost,
            };
            let cost = |e: EdgeId| costs.cost[e.index()];
            let windowed = reference.route(grid, a, b, cost, &window);
            let clean = |corners: &Vec<Point>| {
                let mut edges = grid.polyline_edges(corners).unwrap();
                edges.all(|e| costs.marginal[e.index()] <= 0.0)
            };
            if windowed.as_ref().is_some_and(clean) {
                return windowed;
            }
            window.bounds = None;
            reference.route(grid, a, b, cost, &window)
        };
        let mut want = start;
        let (_, want_rerouted, want_costs) =
            reroute(&design, &mut want, cfg, always_escalating).unwrap();

        assert_eq!(rerouted, want_rerouted);
        assert_eq!(sol.routes, want.routes);
        assert_eq!(sol.demand, want.demand);
        assert_eq!(costs, want_costs);
        // even here, where a window is most of the grid and the grid search
        // stops early, certifying costs less than what it replaces
        assert!(
            scratch.states_expanded < reference.states_expanded,
            "{} pops certified, {} always escalating",
            scratch.states_expanded,
            reference.states_expanded
        );
    }

    #[test]
    fn report_counts_the_searches() {
        let (design, mut sol) = congested_solution();
        let overflow_before = sol.metrics.overflow.total_overflow;
        let report = refine(&design, &mut sol, RefineConfig::default()).unwrap();
        // more edges end up overflowed here, each by less
        assert!(
            sol.metrics.overflow.total_overflow < overflow_before,
            "{report:?}"
        );
        assert!(report.searches >= report.nets_rerouted + report.escalations);
        // a search pops its source at the least
        assert!(report.states_expanded >= report.searches);
    }

    #[test]
    fn unroutable_is_an_error_that_leaves_the_solution_consistent() {
        // an infinite penalty makes every edge cost ∞ or NaN: no path
        let (design, mut sol) = overflowing_solution();
        let before = sol.clone();
        let cfg = RefineConfig {
            overflow_penalty: f32::INFINITY,
            ..RefineConfig::default()
        };
        let err = refine(&design, &mut sol, cfg).unwrap_err();
        assert!(matches!(err, PostError::Unroutable { net: 0 }), "{err}");
        assert_eq!(sol.routes, before.routes);
        assert_eq!(sol.demand, before.demand);
        assert_eq!(sol.metrics, before.metrics);
    }
}
