//! A CUGR2-style sequential pattern router with rip-up-and-reroute.
//!
//! This is the reproduction's stand-in for CUGR2's pattern stage (Liu &
//! Young, DAC'23) in Table 2 and Fig. 5a — the stage DGR replaces:
//!
//! 1. **Pattern routing** — nets are routed one at a time (smallest
//!    bounding box first); each 2-pin sub-net picks the L-/Z-pattern with
//!    the lowest logistic congestion cost against the demand committed so
//!    far.
//! 2. **Rip-up and reroute (RRR)** — nets crossing overflowed edges are
//!    ripped up and rerouted, pattern paths again, against the demand the
//!    other nets leave.
//!
//! CUGR2's maze stage is not here: like DGR's solution, this one is
//! finished by `dgr_post::pipeline::run_with`'s shared maze refine, so
//! the two routers differ only in the stage the paper compares.
//!
//! Like the original, solution quality depends on net ordering and it can
//! stagnate in local minima — exactly the weakness DGR's concurrent
//! optimization targets (and what Table 2 measures).

use dgr_core::solution::overflowed_nets;
use dgr_core::{RoutePath, RoutingSolution};
use dgr_dag::enumerate_paths;
use dgr_grid::{CapacityModel, DemandMap, Design, EdgeId, Point};
use dgr_rsmt::RoutingTree;

use crate::{unrouted, BaselineError};

/// Rip-up-and-reroute rounds after the initial pass.
const RRR_ROUNDS: usize = 3;
/// Logistic congestion cost magnitude.
const LOGISTIC_SLOPE: f32 = 8.0;
/// Logistic congestion cost sharpness.
const LOGISTIC_ALPHA: f32 = 1.5;
/// Cost charged per turning point (via proxy).
const VIA_COST: f32 = 2.0;
/// Z-pattern stride of the pattern stage.
const Z_STRIDE: Option<u32> = Some(4);

/// The sequential baseline router. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct SequentialRouter;

impl SequentialRouter {
    /// Routes `design` sequentially and returns the 2D solution, every
    /// path a pattern path of its sub-net.
    ///
    /// # Errors
    ///
    /// Propagates tree-construction and grid errors.
    pub fn route(&self, design: &Design) -> Result<RoutingSolution, BaselineError> {
        let grid = &design.grid;
        let mut demand = DemandMap::new(grid);

        // trees once per net
        let mut trees: Vec<RoutingTree> = Vec::with_capacity(design.nets.len());
        for net in &design.nets {
            trees.push(dgr_rsmt::rsmt(&net.pins)?);
        }

        let mut routes = unrouted(design);
        for n in design.nets_by_half_perimeter() {
            routes[n].paths = route_net(design, &trees[n], &mut demand)?;
        }

        // rip-up and reroute rounds
        for _ in 0..RRR_ROUNDS {
            let victims = overflowed_nets(design, &demand, &routes);
            if victims.is_empty() {
                break;
            }
            for &n in &victims {
                for path in &routes[n].paths {
                    demand.rip_up(grid, &path.corners)?;
                }
                routes[n].paths = route_net(design, &trees[n], &mut demand)?;
            }
        }
        Ok(RoutingSolution::from_routes(design, routes)?)
    }
}

/// Routes each sub-net of `tree` on its cheapest pattern path under the
/// demand committed so far, committing it before the next.
fn route_net(
    design: &Design,
    tree: &RoutingTree,
    demand: &mut DemandMap,
) -> Result<Vec<RoutePath>, BaselineError> {
    let grid = &design.grid;
    let mut out = Vec::new();
    for (a, b) in tree.subnets() {
        let mut best: Option<(f32, RoutePath)> = None;
        for path in enumerate_paths(a, b, Z_STRIDE) {
            let mut cost = VIA_COST * path.num_turns() as f32;
            for e in path.edges(grid)? {
                cost += logistic_cost(&design.capacity, demand, e);
            }
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                let corners = corners_of(&path);
                best = Some((cost, RoutePath { corners }));
            }
        }
        let (_, chosen) = best.expect("patterns are never empty");
        demand.commit(grid, &chosen.corners)?;
        out.push(chosen);
    }
    Ok(out)
}

/// CUGR2's logistic wire cost of using edge `e` given the current
/// demand: `1 + slope / (1 + e^{α(cap − d − 1)})`, with
/// [`LOGISTIC_SLOPE`] and [`LOGISTIC_ALPHA`].
///
/// The cost rises smoothly from ~1 (plenty of capacity) to `1 + slope`
/// (already full); `α` controls the sharpness. The `− 1` accounts for the
/// wire about to be added.
fn logistic_cost(cap: &CapacityModel, demand: &DemandMap, e: EdgeId) -> f32 {
    let d = demand.total(cap, e);
    let c = cap.capacity(e);
    1.0 + LOGISTIC_SLOPE / (1.0 + (LOGISTIC_ALPHA * (c - d - 1.0)).exp())
}

fn corners_of(path: &dgr_dag::PatternPath) -> Vec<Point> {
    let mut corners = vec![path.source()];
    corners.extend(path.turning_points());
    if path.sink() != path.source() {
        corners.push(path.sink());
    }
    corners
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, Net};

    fn design(tracks: f32, nets: Vec<Net>) -> Design {
        let grid = GcellGrid::new(12, 12).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        Design::new(grid, cap, nets, 5).unwrap()
    }

    #[test]
    fn routes_simple_design_without_overflow() {
        let d = design(
            4.0,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(8, 6)]),
                Net::new(
                    "b",
                    vec![Point::new(2, 9), Point::new(9, 2), Point::new(5, 5)],
                ),
            ],
        );
        let sol = SequentialRouter.route(&d).unwrap();
        assert_eq!(sol.routes.len(), 2);
        assert_eq!(sol.metrics.overflow.overflowed_edges, 0);
        assert!(sol.metrics.total_wirelength >= 14);
    }

    #[test]
    fn separates_conflicting_nets() {
        // capacity 1.6: overlapped Ls give 2.0 wire > 1.6, separated Ls
        // give 1.0 wire + 0.5 corner via pressure = 1.5 ≤ 1.6
        let d = design(
            1.6,
            vec![
                Net::new("a", vec![Point::new(1, 1), Point::new(8, 8)]),
                Net::new("b", vec![Point::new(1, 1), Point::new(8, 8)]),
            ],
        );
        let sol = SequentialRouter.route(&d).unwrap();
        assert_eq!(
            sol.metrics.overflow.overflowed_edges, 0,
            "RRR should separate the two nets"
        );
    }

    #[test]
    fn single_pin_and_empty_paths() {
        let d = design(2.0, vec![Net::new("p", vec![Point::new(3, 3)])]);
        let sol = SequentialRouter.route(&d).unwrap();
        assert_eq!(sol.routes[0].paths.len(), 0);
        assert_eq!(sol.metrics.total_wirelength, 0);
    }

    #[test]
    fn multi_pin_net_spans_all_pins() {
        let pins = vec![
            Point::new(0, 0),
            Point::new(10, 2),
            Point::new(4, 9),
            Point::new(7, 5),
        ];
        let d = design(3.0, vec![Net::new("m", pins.clone())]);
        let sol = SequentialRouter.route(&d).unwrap();
        // every pin must appear as an endpoint of some path
        for pin in &pins {
            let covered = sol.routes[0]
                .paths
                .iter()
                .any(|p| p.corners.first() == Some(pin) || p.corners.last() == Some(pin));
            assert!(covered, "pin {pin} is not connected");
        }
    }

    #[test]
    fn logistic_cost_rises_with_demand() {
        let g = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&g, 2.0).build(&g).unwrap();
        let mut d = DemandMap::new(&g);
        let e = g.h_edge(0, 0).unwrap();
        let c0 = logistic_cost(&cap, &d, e);
        d.add_wire(e, 2.0);
        let c2 = logistic_cost(&cap, &d, e);
        d.add_wire(e, 2.0);
        let c4 = logistic_cost(&cap, &d, e);
        assert!(c0 < c2 && c2 < c4);
        assert!(c4 <= 1.0 + LOGISTIC_SLOPE);
    }
}
