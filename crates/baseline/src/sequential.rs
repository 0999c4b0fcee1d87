//! A CUGR2-style sequential pattern router with rip-up-and-reroute.
//!
//! This is the reproduction's stand-in for CUGR2 (Liu & Young, DAC'23) in
//! Table 2 and Fig. 5a:
//!
//! 1. **Pattern routing** — nets are routed one at a time (smallest
//!    bounding box first); each 2-pin sub-net picks the L-/Z-pattern with
//!    the lowest logistic congestion cost against the demand committed so
//!    far.
//! 2. **Rip-up and reroute (RRR)** — nets crossing overflowed edges are
//!    ripped up and rerouted with progressively sharper congestion costs;
//!    sub-nets that still overflow fall back to maze routing inside an
//!    inflated bounding box.
//!
//! Like the original, solution quality depends on net ordering and it can
//! stagnate in local minima — exactly the weakness DGR's concurrent
//! optimization targets (and what Table 2 measures).

use dgr_core::solution::overflowed_nets;
use dgr_core::{RoutePath, RoutingSolution};
use dgr_dag::enumerate_paths;
use dgr_grid::maze::MazeScratch;
use dgr_grid::{DemandMap, Design, Point};
use dgr_rsmt::RoutingTree;

use crate::cost::logistic_cost;
use crate::{unrouted, BaselineError};

/// Tuning knobs of the sequential router.
#[derive(Debug, Clone)]
pub struct SequentialConfig {
    /// Maximum rip-up-and-reroute rounds after the initial pass.
    pub rrr_rounds: usize,
    /// Logistic congestion cost magnitude.
    pub logistic_slope: f32,
    /// Logistic congestion cost sharpness.
    pub logistic_alpha: f32,
    /// Cost charged per turning point (via proxy).
    pub via_cost: f32,
    /// Z-pattern stride for the pattern stage (`None` = L only).
    pub z_stride: Option<u32>,
    /// Enable maze fallback for sub-nets that still overflow after
    /// pattern rerouting.
    pub maze_fallback: bool,
    /// Bounding-box inflation (g-cells) for the maze search window.
    pub maze_margin: i32,
}

impl Default for SequentialConfig {
    fn default() -> Self {
        SequentialConfig {
            rrr_rounds: 3,
            logistic_slope: 8.0,
            logistic_alpha: 1.5,
            via_cost: 2.0,
            z_stride: Some(4),
            maze_fallback: true,
            maze_margin: 6,
        }
    }
}

/// The sequential baseline router. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct SequentialRouter {
    config: SequentialConfig,
}

impl SequentialRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: SequentialConfig) -> Self {
        SequentialRouter { config }
    }

    /// Routes `design` sequentially and returns the 2D solution.
    ///
    /// # Errors
    ///
    /// Propagates tree-construction and grid errors; returns
    /// [`BaselineError::Unroutable`] if maze fallback cannot connect a
    /// sub-net (only possible with zero-capacity cuts).
    pub fn route(&self, design: &Design) -> Result<RoutingSolution, BaselineError> {
        let grid = &design.grid;
        let mut demand = DemandMap::new(grid);

        // trees once per net
        let mut trees: Vec<RoutingTree> = Vec::with_capacity(design.nets.len());
        for net in &design.nets {
            trees.push(dgr_rsmt::rsmt(&net.pins)?);
        }

        let mut scratch = MazeScratch::new();
        let mut routes = unrouted(design);
        for n in design.nets_by_half_perimeter() {
            routes[n].paths = self.route_net(design, &trees[n], &mut demand, None)?;
        }

        // rip-up and reroute rounds
        for round in 0..self.config.rrr_rounds {
            let victims = overflowed_nets(design, &demand, &routes);
            if victims.is_empty() {
                break;
            }
            let maze = round > 0
                || (self.config.maze_fallback && round + 1 == self.config.rrr_rounds.max(1));
            for &n in &victims {
                for path in &routes[n].paths {
                    demand.rip_up(grid, &path.corners)?;
                }
                let scratch = maze.then_some(&mut scratch);
                routes[n].paths = self.route_net(design, &trees[n], &mut demand, scratch)?;
            }
        }
        Ok(RoutingSolution::from_routes(design, routes)?)
    }

    fn route_net(
        &self,
        design: &Design,
        tree: &RoutingTree,
        demand: &mut DemandMap,
        mut maze: Option<&mut MazeScratch>,
    ) -> Result<Vec<RoutePath>, BaselineError> {
        let grid = &design.grid;
        let cap = &design.capacity;
        let mut out = Vec::new();
        for (a, b) in tree.subnets() {
            // pattern candidates under the current congestion
            let mut best: Option<(f32, RoutePath)> = None;
            for path in enumerate_paths(a, b, self.config.z_stride) {
                let mut cost = self.config.via_cost * path.num_turns() as f32;
                let edges = path.edges(grid)?;
                for e in &edges {
                    cost += logistic_cost(
                        cap,
                        demand,
                        *e,
                        self.config.logistic_slope,
                        self.config.logistic_alpha,
                    );
                }
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((
                        cost,
                        RoutePath {
                            corners: corners_of(&path),
                        },
                    ));
                }
            }
            let (pattern_cost, mut chosen) = best.expect("patterns are never empty");

            if let Some(scratch) = maze.as_deref_mut() {
                // maze fallback when the best pattern still overflows
                let ov = |e| demand.marginal(cap, e, 1.0);
                if grid.polyline_edges(&chosen.corners)?.any(|e| ov(e) > 0.0) {
                    let slope = self.config.logistic_slope;
                    let alpha = self.config.logistic_alpha;
                    let cost_fn = |e| logistic_cost(cap, demand, e, slope, alpha) + 1000.0 * ov(e);
                    let candidate = scratch.route_escalating(
                        grid,
                        (a, b),
                        self.config.maze_margin,
                        self.config.via_cost,
                        cost_fn,
                        |e| ov(e) <= 0.0,
                    );
                    if let Some(corners) = candidate {
                        let maze_path = RoutePath { corners };
                        // only adopt the maze route when it avoids overflow
                        // better than the pattern (cost comparison)
                        let mut maze_cost = self.config.via_cost * maze_path.num_turns() as f32;
                        for e in grid.polyline_edges(&maze_path.corners)? {
                            maze_cost += cost_fn(e);
                        }
                        let mut pattern_cost_ov = pattern_cost;
                        for e in grid.polyline_edges(&chosen.corners)? {
                            pattern_cost_ov += 1000.0 * ov(e);
                        }
                        if maze_cost < pattern_cost_ov {
                            chosen = maze_path;
                        }
                    }
                }
            }

            demand.commit(grid, &chosen.corners)?;
            out.push(chosen);
        }
        Ok(out)
    }
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
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Rect};

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
        let sol = SequentialRouter::default().route(&d).unwrap();
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
        let sol = SequentialRouter::default().route(&d).unwrap();
        assert_eq!(
            sol.metrics.overflow.overflowed_edges, 0,
            "RRR should separate the two nets"
        );
    }

    #[test]
    fn maze_fallback_escapes_pattern_deadlock() {
        // a capacity wall across the middle forces non-pattern detours
        let grid = GcellGrid::new(12, 12).unwrap();
        let mut b = CapacityBuilder::uniform(&grid, 2.0);
        // the wall spans rows 0..=6, leaving row 7 inside the default
        // maze window (bbox inflated by 6) as the detour corridor
        b.scale_region(&grid, Rect::new(Point::new(4, 0), Point::new(6, 6)), 0.0);
        let cap = b.build(&grid).unwrap();
        let d = Design::new(
            grid,
            cap,
            vec![Net::new("a", vec![Point::new(1, 1), Point::new(10, 1)])],
            5,
        )
        .unwrap();
        let sol = SequentialRouter::default().route(&d).unwrap();
        // the wall leaves rows 10-11 open: the route must detour
        assert_eq!(sol.metrics.overflow.overflowed_edges, 0);
        assert!(sol.metrics.total_wirelength > 9);
    }

    #[test]
    fn single_pin_and_empty_paths() {
        let d = design(2.0, vec![Net::new("p", vec![Point::new(3, 3)])]);
        let sol = SequentialRouter::default().route(&d).unwrap();
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
        let sol = SequentialRouter::default().route(&d).unwrap();
        // every pin must appear as an endpoint of some path
        for pin in &pins {
            let covered = sol.routes[0]
                .paths
                .iter()
                .any(|p| p.corners.first() == Some(pin) || p.corners.last() == Some(pin));
            assert!(covered, "pin {pin} is not connected");
        }
    }
}
