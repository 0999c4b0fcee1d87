//! The discrete 2D routing solution and its quality metrics.

use dgr_grid::demand::rides;
use dgr_grid::{DemandMap, Design, GridError, OverflowStats, Point};

use crate::train::TrainReport;

/// One realized pattern path: the corner polyline of a routed 2-pin
/// sub-net (endpoints inclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePath {
    /// Waypoints from source to sink; consecutive points are aligned.
    pub corners: Vec<Point>,
}

impl RoutePath {
    /// Wirelength in g-cell edge units.
    pub fn wirelength(&self) -> u64 {
        self.corners
            .windows(2)
            .map(|w| w[0].manhattan_distance(w[1]) as u64)
            .sum()
    }

    /// Number of interior turning points.
    pub fn num_turns(&self) -> u64 {
        self.corners.len().saturating_sub(2) as u64
    }
}

/// The routed form of one net: its chosen tree candidate and one realized
/// path per 2-pin sub-net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetRoute {
    /// Net index in the input design.
    pub net: usize,
    /// Global tree index (into the DAG forest) that was selected.
    pub tree: usize,
    /// Realized paths, one per sub-net of the selected tree.
    pub paths: Vec<RoutePath>,
}

impl NetRoute {
    /// Total wirelength of this net's routes.
    pub fn wirelength(&self) -> u64 {
        self.paths.iter().map(RoutePath::wirelength).sum()
    }

    /// Total turning points of this net's routes.
    pub fn num_turns(&self) -> u64 {
        self.paths.iter().map(RoutePath::num_turns).sum()
    }
}

/// Aggregate quality metrics of a 2D solution, in the paper's reporting
/// vocabulary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolutionMetrics {
    /// Total wirelength in g-cell edge units.
    pub total_wirelength: u64,
    /// Total 2D turning points (each becomes ≥ 1 via after layer
    /// assignment).
    pub total_turns: u64,
    /// Overflow statistics against the design capacities (Eq. 2 demand).
    pub overflow: OverflowStats,
}

impl SolutionMetrics {
    /// The ICCAD'19 weighted cost `500·overflow + 4·turns + 0.5·WL`
    /// evaluated on the *discrete* solution (total overflow mass).
    pub fn weighted_cost(&self) -> f64 {
        500.0 * self.overflow.total_overflow
            + 4.0 * self.total_turns as f64
            + 0.5 * self.total_wirelength as f64
    }
}

/// A complete discrete 2D routing solution.
#[derive(Debug, Clone)]
pub struct RoutingSolution {
    /// Per-net routes, in input-net order.
    pub routes: Vec<NetRoute>,
    /// Committed demand of the whole solution.
    pub demand: DemandMap,
    /// Quality metrics.
    pub metrics: SolutionMetrics,
    /// Training diagnostics (present when produced by the full pipeline).
    pub train_report: Option<TrainReport>,
}

impl RoutingSolution {
    /// The solution that `routes` are, with their demand and metrics
    /// measured against `design`.
    ///
    /// # Errors
    ///
    /// Propagates grid errors if a route leaves the grid.
    pub fn from_routes(design: &Design, routes: Vec<NetRoute>) -> Result<Self, GridError> {
        let mut solution = RoutingSolution {
            routes,
            demand: DemandMap::new(&design.grid),
            metrics: SolutionMetrics::default(),
            train_report: None,
        };
        solution.remeasure(design)?;
        Ok(solution)
    }

    /// Recomputes demand and metrics from routes against `design` (used
    /// after post-processing mutates routes).
    ///
    /// # Errors
    ///
    /// Propagates grid errors if a route leaves the grid.
    pub fn remeasure(&mut self, design: &Design) -> Result<(), GridError> {
        let mut demand = DemandMap::new(&design.grid);
        let mut wl = 0u64;
        let mut turns = 0u64;
        for path in self.routes.iter().flat_map(|route| &route.paths) {
            wl += path.wirelength();
            turns += path.num_turns();
            demand.commit(&design.grid, &path.corners)?;
        }
        let overflow = OverflowStats::measure(&design.grid, &design.capacity, &demand);
        self.demand = demand;
        self.metrics = SolutionMetrics {
            total_wirelength: wl,
            total_turns: turns,
            overflow,
        };
        Ok(())
    }

    /// Serializes the routes to a plain-text checkpoint:
    ///
    /// ```text
    /// DGR-ROUTES v1
    /// net <index> tree <tree>
    /// path <x> <y> <x> <y> ...
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("DGR-ROUTES v1\n");
        for route in &self.routes {
            out.push_str(&format!("net {} tree {}\n", route.net, route.tree));
            for path in &route.paths {
                out.push_str("path");
                for c in &path.corners {
                    out.push_str(&format!(" {} {}", c.x, c.y));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Restores a solution from [`RoutingSolution::to_text`] output and
    /// re-measures it against `design`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DgrError::BadConfig`] on malformed text (the
    /// checkpoint is configuration-like input) or a grid error if a route
    /// does not fit `design`.
    pub fn from_text(design: &Design, text: &str) -> Result<Self, crate::DgrError> {
        let bad = |why: &str| crate::DgrError::BadConfig(format!("routes checkpoint: {why}"));
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("DGR-ROUTES v1") {
            return Err(bad("missing DGR-ROUTES v1 header"));
        }
        let mut routes: Vec<NetRoute> = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            match it.next() {
                Some("net") => {
                    let net: usize = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("bad net index"))?;
                    let tree: usize = match (it.next(), it.next()) {
                        (Some("tree"), Some(t)) => t.parse().map_err(|_| bad("bad tree index"))?,
                        _ => return Err(bad("expected `net <i> tree <t>`")),
                    };
                    routes.push(NetRoute {
                        net,
                        tree,
                        paths: Vec::new(),
                    });
                }
                Some("path") => {
                    let coords: Result<Vec<i32>, _> = it.map(|s| s.parse::<i32>()).collect();
                    let coords = coords.map_err(|_| bad("bad path coordinate"))?;
                    if coords.is_empty() || coords.len() % 2 != 0 {
                        return Err(bad("path needs x/y pairs"));
                    }
                    let corners = coords.chunks(2).map(|c| Point::new(c[0], c[1])).collect();
                    routes
                        .last_mut()
                        .ok_or_else(|| bad("path before any net"))?
                        .paths
                        .push(RoutePath { corners });
                }
                _ => return Err(bad("unknown line")),
            }
        }
        if routes.len() != design.num_nets() {
            return Err(bad(&format!(
                "checkpoint has {} nets, design has {}",
                routes.len(),
                design.num_nets()
            )));
        }
        RoutingSolution::from_routes(design, routes).map_err(crate::DgrError::Grid)
    }

    /// Number of nets whose routes traverse at least one overflowed edge —
    /// `n₁` of the Fig. 6 weighted-overflow score.
    pub fn overflowed_nets(&self, design: &Design) -> usize {
        overflowed_nets(design, &self.demand, &self.routes).len()
    }
}

/// The nets of `routes`, by position, with a path on an edge that `demand`
/// overflows — the victims of a rip-up round.
pub fn overflowed_nets(design: &Design, demand: &DemandMap, routes: &[NetRoute]) -> Vec<usize> {
    let over = demand.overflow_mask(&design.capacity);
    let hit = |p: &RoutePath| rides(&design.grid, &over, &p.corners);
    (0..routes.len())
        .filter(|&n| routes[n].paths.iter().any(hit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, Net};

    fn design(tracks: f32) -> Design {
        let grid = GcellGrid::new(8, 8).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        Design::new(
            grid,
            cap,
            vec![Net::new("n", vec![Point::new(0, 0), Point::new(4, 4)])],
            5,
        )
        .unwrap()
    }

    fn l_route() -> NetRoute {
        NetRoute {
            net: 0,
            tree: 0,
            paths: vec![RoutePath {
                corners: vec![Point::new(0, 0), Point::new(4, 0), Point::new(4, 4)],
            }],
        }
    }

    #[test]
    fn route_path_stats() {
        let p = RoutePath {
            corners: vec![Point::new(0, 0), Point::new(4, 0), Point::new(4, 4)],
        };
        assert_eq!(p.wirelength(), 8);
        assert_eq!(p.num_turns(), 1);
        let straight = RoutePath {
            corners: vec![Point::new(0, 0), Point::new(4, 0)],
        };
        assert_eq!(straight.num_turns(), 0);
    }

    #[test]
    fn remeasure_counts_everything() {
        let d = design(2.0);
        let sol = RoutingSolution::from_routes(&d, vec![l_route()]).unwrap();
        assert_eq!(sol.metrics.total_wirelength, 8);
        assert_eq!(sol.metrics.total_turns, 1);
        assert_eq!(sol.metrics.overflow.overflowed_edges, 0);
        assert_eq!(sol.overflowed_nets(&d), 0);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let d = design(2.0);
        let sol = RoutingSolution::from_routes(&d, vec![l_route()]).unwrap();
        let text = sol.to_text();
        let restored = RoutingSolution::from_text(&d, &text).unwrap();
        assert_eq!(restored.routes, sol.routes);
        assert_eq!(
            restored.metrics.total_wirelength,
            sol.metrics.total_wirelength
        );
        assert_eq!(restored.demand.wire_slice(), sol.demand.wire_slice());
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        let d = design(2.0);
        assert!(RoutingSolution::from_text(&d, "not a checkpoint").is_err());
        assert!(RoutingSolution::from_text(&d, "DGR-ROUTES v1\npath 1 2\n").is_err());
        assert!(RoutingSolution::from_text(&d, "DGR-ROUTES v1\nnet 0 tree 0\npath 1\n").is_err());
        // wrong net count
        assert!(RoutingSolution::from_text(&d, "DGR-ROUTES v1\n").is_err());
    }

    #[test]
    fn overflowed_nets_detects_congestion() {
        // capacity 0.2 < 1 wire + via pressure → every used edge overflows
        let d = design(0.2);
        let sol = RoutingSolution::from_routes(&d, vec![l_route()]).unwrap();
        assert!(sol.metrics.overflow.overflowed_edges > 0);
        assert_eq!(sol.overflowed_nets(&d), 1);
        assert!(sol.metrics.weighted_cost() > 0.0);
    }
}
