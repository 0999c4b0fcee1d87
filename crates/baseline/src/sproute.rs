//! An SPRoute 2.0-style soft-capacity maze router (Table 3 baseline).
//!
//! SPRoute 2.0 (He et al., ASP-DAC'22) routes nets with maze search under
//! a *soft capacity* model: edges may exceed a fraction of their nominal
//! capacity only at steeply growing cost, which reserves slack for
//! detailed routing. This reproduction keeps the algorithmic core —
//! sequential maze routing with a utilization-driven soft cost and a few
//! reroute rounds — single-threaded (the original's determinism-preserving
//! parallelism is an engineering layer, not a quality lever).

use dgr_core::solution::overflowed_nets;
use dgr_core::{RoutePath, RoutingSolution};
use dgr_grid::maze::MazeScratch;
use dgr_grid::{DemandMap, Design};

use crate::{unrouted, BaselineError};

/// Tuning knobs of the soft-capacity router.
#[derive(Debug, Clone)]
pub struct SprouteConfig {
    /// Fraction of nominal capacity treated as "soft" headroom.
    pub soft_fraction: f32,
    /// Cost multiplier applied beyond the soft boundary.
    pub penalty: f32,
    /// Reroute rounds after the initial pass.
    pub rounds: usize,
    /// Turn cost in the maze search.
    pub turn_cost: f32,
    /// Maze window inflation around each sub-net's bounding box.
    pub margin: i32,
}

impl Default for SprouteConfig {
    fn default() -> Self {
        SprouteConfig {
            soft_fraction: 0.9,
            penalty: 50.0,
            rounds: 2,
            turn_cost: 1.0,
            margin: 8,
        }
    }
}

/// The SPRoute-style baseline. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct SprouteRouter {
    config: SprouteConfig,
}

impl SprouteRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: SprouteConfig) -> Self {
        SprouteRouter { config }
    }

    /// Routes `design` and returns the 2D solution.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Unroutable`] when a sub-net cannot be
    /// connected (zero-capacity cut across its window), or propagates
    /// construction errors.
    pub fn route(&self, design: &Design) -> Result<RoutingSolution, BaselineError> {
        let grid = &design.grid;
        let mut demand = DemandMap::new(grid);
        let mut trees = Vec::with_capacity(design.nets.len());
        for net in &design.nets {
            trees.push(dgr_rsmt::rsmt(&net.pins)?);
        }
        let mut scratch = MazeScratch::new();
        let mut routes = unrouted(design);
        for n in design.nets_by_half_perimeter() {
            routes[n].paths = self.route_net(design, &trees[n], &mut demand, n, &mut scratch)?;
        }
        for _ in 0..self.config.rounds {
            let victims = overflowed_nets(design, &demand, &routes);
            if victims.is_empty() {
                break;
            }
            for &n in &victims {
                for path in &routes[n].paths {
                    demand.rip_up(grid, &path.corners)?;
                }
                routes[n].paths =
                    self.route_net(design, &trees[n], &mut demand, n, &mut scratch)?;
            }
        }
        Ok(RoutingSolution::from_routes(design, routes)?)
    }

    fn soft_cost(&self, design: &Design, demand: &DemandMap, e: dgr_grid::EdgeId) -> f32 {
        let d = demand.total(&design.capacity, e);
        let c = design.capacity.capacity(e).max(1e-3);
        let u = (d + 1.0) / c;
        if u <= self.config.soft_fraction {
            1.0
        } else {
            1.0 + self.config.penalty * (u - self.config.soft_fraction).powi(2) / 0.01
        }
    }

    fn route_net(
        &self,
        design: &Design,
        tree: &dgr_rsmt::RoutingTree,
        demand: &mut DemandMap,
        net: usize,
        scratch: &mut MazeScratch,
    ) -> Result<Vec<RoutePath>, BaselineError> {
        let grid = &design.grid;
        let mut out = Vec::new();
        for (a, b) in tree.subnets() {
            let corners = scratch
                .route_escalating(
                    grid,
                    (a, b),
                    self.config.margin,
                    self.config.turn_cost,
                    |e| self.soft_cost(design, demand, e),
                    |e| demand.marginal(&design.capacity, e, 1.0) <= 0.0,
                )
                .ok_or(BaselineError::Unroutable { net })?;
            demand.commit(grid, &corners)?;
            out.push(RoutePath { corners });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};

    fn design(tracks: f32, nets: Vec<Net>) -> Design {
        let grid = GcellGrid::new(12, 12).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        Design::new(grid, cap, nets, 5).unwrap()
    }

    #[test]
    fn routes_and_respects_capacity() {
        let d = design(
            2.0,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(9, 9)]),
                Net::new("b", vec![Point::new(0, 9), Point::new(9, 0)]),
                Net::new("c", vec![Point::new(3, 0), Point::new(3, 9)]),
            ],
        );
        let sol = SprouteRouter::default().route(&d).unwrap();
        assert_eq!(sol.routes.len(), 3);
        assert_eq!(sol.metrics.overflow.overflowed_edges, 0);
    }

    #[test]
    fn soft_cost_grows_superlinearly_near_capacity() {
        let d = design(2.0, vec![]);
        let router = SprouteRouter::default();
        let mut demand = DemandMap::new(&d.grid);
        let e = d.grid.h_edge(0, 0).unwrap();
        let empty = router.soft_cost(&d, &demand, e);
        demand.add_wire(e, 1.0);
        let half = router.soft_cost(&d, &demand, e);
        demand.add_wire(e, 1.0);
        let full = router.soft_cost(&d, &demand, e);
        assert_eq!(empty, 1.0);
        assert!(half >= empty);
        assert!(full > half + 1.0);
    }

    #[test]
    fn detours_instead_of_overflowing() {
        // capacity 1.5: two nets sharing row 5 would give 2.0 wire; the
        // soft cost pushes one to a neighbouring row, where 1 wire + 0.5
        // corner via pressure = 1.5 fits exactly
        let grid = GcellGrid::new(12, 12).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.5).build(&grid).unwrap();
        let d = Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 5), Point::new(11, 5)]),
                Net::new("b", vec![Point::new(1, 5), Point::new(10, 5)]),
            ],
            5,
        )
        .unwrap();
        let sol = SprouteRouter::default().route(&d).unwrap();
        assert_eq!(sol.metrics.overflow.overflowed_edges, 0);
        // one of the two detoured: more than the 11 + 9 direct wirelength
        assert!(sol.metrics.total_wirelength > 20);
    }

    #[test]
    fn zero_capacity_is_soft_not_hard() {
        let grid = GcellGrid::new(8, 8).unwrap();
        // zero nominal capacity everywhere: soft cost is huge but finite,
        // so the net still connects and the overflow is reported honestly
        let cap = CapacityBuilder::uniform(&grid, 0.0).build(&grid).unwrap();
        let d = Design::new(
            grid,
            cap,
            vec![Net::new("a", vec![Point::new(0, 0), Point::new(7, 7)])],
            5,
        )
        .unwrap();
        let sol = SprouteRouter::default().route(&d).unwrap();
        assert!(sol.metrics.overflow.overflowed_edges > 0);
    }
}
