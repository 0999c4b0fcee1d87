//! A Lagrangian-relaxation pathfinding router (Table 3 baseline).
//!
//! Stand-in for the pathfinding model of Yao et al. (DAC'23): capacity
//! constraints are dualized with per-edge multipliers `λ_e ≥ 0`. Each
//! round routes every net independently by shortest path under the cost
//! `1 + λ_e`, then updates the multipliers by projected subgradient
//! ascent, `λ_e ← max(0, λ_e + η·(d_e − cap_e))`. The final pass routes
//! nets *sequentially* against the converged multipliers plus a hard
//! overflow marginal, which turns the dual solution into a feasible-ish
//! primal one.

use dgr_core::{RoutePath, RoutingSolution};
use dgr_grid::maze::{MazeConfig, MazeScratch};
use dgr_grid::{DemandMap, Design, Rect};

use crate::{unrouted, BaselineError};

/// Tuning knobs of the Lagrangian router.
#[derive(Debug, Clone)]
pub struct LagrangianConfig {
    /// Dual (multiplier-update) rounds.
    pub rounds: usize,
    /// Initial subgradient step size; decays as `η / √round`.
    pub step: f32,
    /// Turn cost in the maze search.
    pub turn_cost: f32,
    /// Maze window inflation around each sub-net's bounding box.
    pub margin: i32,
}

impl Default for LagrangianConfig {
    fn default() -> Self {
        LagrangianConfig {
            rounds: 8,
            step: 0.5,
            turn_cost: 1.0,
            margin: 8,
        }
    }
}

/// The Lagrangian-relaxation baseline. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct LagrangianRouter {
    config: LagrangianConfig,
}

impl LagrangianRouter {
    /// Creates a router with the given configuration.
    pub fn new(config: LagrangianConfig) -> Self {
        LagrangianRouter { config }
    }

    /// Routes `design` and returns the 2D solution.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Unroutable`] when a sub-net cannot be
    /// connected, or propagates construction errors.
    pub fn route(&self, design: &Design) -> Result<RoutingSolution, BaselineError> {
        let grid = &design.grid;
        let mut trees = Vec::with_capacity(design.nets.len());
        for net in &design.nets {
            trees.push(dgr_rsmt::rsmt(&net.pins)?);
        }

        let mut scratch = MazeScratch::new();
        let mut lambda = vec![0.0f32; grid.num_edges()];
        for round in 0..self.config.rounds {
            // independent routing under dual costs
            let mut demand = DemandMap::new(grid);
            for (n, tree) in trees.iter().enumerate() {
                for (a, b) in tree.subnets() {
                    let cfg = MazeConfig {
                        bounds: Some(
                            Rect::bounding(&[a, b])
                                .inflate_clamped(self.config.margin, grid.bounds()),
                        ),
                        turn_cost: self.config.turn_cost,
                    };
                    let corners = scratch
                        .route(grid, a, b, |e| 1.0 + lambda[e.index()], &cfg)
                        .ok_or(BaselineError::Unroutable { net: n })?;
                    demand.commit(grid, &corners)?;
                }
            }
            // projected subgradient step (the dual prices wire only)
            let eta = self.config.step / ((round + 1) as f32).sqrt();
            for e in grid.edge_ids() {
                let violation = demand.wire(e) - design.capacity.capacity(e);
                lambda[e.index()] = (lambda[e.index()] + eta * violation).max(0.0);
            }
        }

        // primal pass: sequential with hard overflow marginal on top of λ
        let cap = &design.capacity;
        let mut demand = DemandMap::new(grid);
        let mut routes = unrouted(design);
        for n in design.nets_by_half_perimeter() {
            for (a, b) in trees[n].subnets() {
                let ov = |e| demand.marginal(cap, e, 1.0);
                let corners = scratch
                    .route_escalating(
                        grid,
                        (a, b),
                        self.config.margin,
                        self.config.turn_cost,
                        |e| 1.0 + lambda[e.index()] + 1000.0 * ov(e),
                        |e| ov(e) <= 0.0,
                    )
                    .ok_or(BaselineError::Unroutable { net: n })?;
                demand.commit(grid, &corners)?;
                routes[n].paths.push(RoutePath { corners });
            }
        }
        Ok(RoutingSolution::from_routes(design, routes)?)
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
    fn routes_without_overflow_when_capacity_allows() {
        let d = design(
            2.0,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(9, 9)]),
                Net::new("b", vec![Point::new(9, 0), Point::new(0, 9)]),
            ],
        );
        let sol = LagrangianRouter::default().route(&d).unwrap();
        assert_eq!(sol.routes.len(), 2);
        assert_eq!(sol.metrics.overflow.overflowed_edges, 0);
    }

    #[test]
    fn multipliers_spread_congested_nets() {
        // four identical nets, capacity 2: two fit straight on row 5, the
        // other two must fan out to neighbouring rows (1 wire + 0.5 corner
        // via pressure = 1.5 ≤ 2 on the detour rows)
        let nets: Vec<Net> = (0..4)
            .map(|i| Net::new(format!("n{i}"), vec![Point::new(1, 5), Point::new(10, 5)]))
            .collect();
        let d = design(2.0, nets);
        let sol = LagrangianRouter::default().route(&d).unwrap();
        assert_eq!(
            sol.metrics.overflow.overflowed_edges, 0,
            "parallel tracks exist within the window"
        );
        // fanning out costs wirelength: strictly more than 4 × 9
        assert!(sol.metrics.total_wirelength > 36);
    }

    #[test]
    fn multi_pin_nets_are_fully_connected() {
        let pins = vec![Point::new(0, 0), Point::new(11, 0), Point::new(5, 11)];
        let d = design(2.0, vec![Net::new("m", pins.clone())]);
        let sol = LagrangianRouter::default().route(&d).unwrap();
        for pin in &pins {
            let covered = sol.routes[0]
                .paths
                .iter()
                .any(|p| p.corners.first() == Some(pin) || p.corners.last() == Some(pin));
            assert!(covered, "pin {pin} is not connected");
        }
    }
}
