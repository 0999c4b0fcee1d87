//! Accumulated routing demand — Eq. (2) of the DGR paper.
//!
//! Demand on a g-cell edge has two components:
//!
//! * **wire demand**: one unit for every selected 2-pin path that routes
//!   through the edge, and
//! * **via demand**: `β_v` for every selected path with a turning point at a
//!   g-cell `v` adjacent to the edge, split evenly between the two endpoint
//!   cells of the edge (the same symmetric convention as
//!   [`crate::capacity`]).

use serde::{Deserialize, Serialize};

use crate::capacity::CapacityModel;
use crate::geom::Point;
use crate::grid::GcellGrid;
use crate::ids::EdgeId;

/// Mutable per-edge demand accumulator plus per-cell via pressure.
///
/// # Examples
///
/// ```
/// use dgr_grid::{DemandMap, GcellGrid, Point};
///
/// let grid = GcellGrid::new(5, 5)?;
/// let mut demand = DemandMap::new(&grid);
/// // an L-path from (0,0) to (2,2) turning at (2,0)
/// demand.add_segment(&grid, Point::new(0, 0), Point::new(2, 0))?;
/// demand.add_segment(&grid, Point::new(2, 0), Point::new(2, 2))?;
/// demand.add_turn(&grid, Point::new(2, 0))?;
/// assert_eq!(demand.wire(grid.h_edge(0, 0)?), 1.0);
/// # Ok::<(), dgr_grid::GridError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandMap {
    wire: Vec<f32>,
    via_pressure: Vec<f32>,
}

impl DemandMap {
    /// Creates an empty demand map for `grid`.
    pub fn new(grid: &GcellGrid) -> Self {
        DemandMap {
            wire: vec![0.0; grid.num_edges()],
            via_pressure: vec![0.0; grid.num_cells()],
        }
    }

    /// Creates a demand map from precomputed dense buffers.
    ///
    /// Used by the differentiable solver to interpret its scatter output.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GridError::LengthMismatch`] on wrong buffer sizes.
    pub fn from_parts(
        grid: &GcellGrid,
        wire: Vec<f32>,
        via_pressure: Vec<f32>,
    ) -> Result<Self, crate::GridError> {
        if wire.len() != grid.num_edges() {
            return Err(crate::GridError::LengthMismatch {
                expected: grid.num_edges(),
                got: wire.len(),
            });
        }
        if via_pressure.len() != grid.num_cells() {
            return Err(crate::GridError::LengthMismatch {
                expected: grid.num_cells(),
                got: via_pressure.len(),
            });
        }
        Ok(DemandMap { wire, via_pressure })
    }

    /// Wire demand of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn wire(&self, e: EdgeId) -> f32 {
        self.wire[e.index()]
    }

    /// Adds `amount` wire demand on a single edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn add_wire(&mut self, e: EdgeId, amount: f32) {
        self.wire[e.index()] += amount;
    }

    /// Adds one unit of wire demand along the straight segment `a`..`b`.
    ///
    /// # Errors
    ///
    /// Propagates alignment/bounds errors from the grid.
    pub fn add_segment(
        &mut self,
        grid: &GcellGrid,
        a: Point,
        b: Point,
    ) -> Result<(), crate::GridError> {
        for e in grid.segment_edges(a, b)? {
            self.wire[e.index()] += 1.0;
        }
        Ok(())
    }

    /// Removes one unit of wire demand along the straight segment `a`..`b`
    /// (rip-up).
    ///
    /// # Errors
    ///
    /// Propagates alignment/bounds errors from the grid.
    pub fn remove_segment(
        &mut self,
        grid: &GcellGrid,
        a: Point,
        b: Point,
    ) -> Result<(), crate::GridError> {
        for e in grid.segment_edges(a, b)? {
            self.wire[e.index()] -= 1.0;
        }
        Ok(())
    }

    /// Registers one turning point (via pressure) at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GridError::CellOutOfBounds`] if `p` is outside.
    pub fn add_turn(&mut self, grid: &GcellGrid, p: Point) -> Result<(), crate::GridError> {
        let id = grid.cell_id(p)?;
        self.via_pressure[id.index()] += 1.0;
        Ok(())
    }

    /// Removes one turning point at `p` (rip-up).
    ///
    /// # Errors
    ///
    /// Returns [`crate::GridError::CellOutOfBounds`] if `p` is outside.
    pub fn remove_turn(&mut self, grid: &GcellGrid, p: Point) -> Result<(), crate::GridError> {
        let id = grid.cell_id(p)?;
        self.via_pressure[id.index()] -= 1.0;
        Ok(())
    }

    /// Total demand of edge `e` per Eq. (2): wire demand plus the
    /// β-weighted via pressure of the two endpoint cells (half each).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn total(&self, grid: &GcellGrid, cap: &CapacityModel, e: EdgeId) -> f32 {
        let (a, b) = grid.edge_endpoints(e);
        let ia = grid.cell_id(a).expect("endpoint in bounds");
        let ib = grid.cell_id(b).expect("endpoint in bounds");
        self.wire[e.index()]
            + 0.5 * cap.beta(ia) * self.via_pressure[ia.index()]
            + 0.5 * cap.beta(ib) * self.via_pressure[ib.index()]
    }

    /// Dense wire-demand slice indexed by [`EdgeId`].
    pub fn wire_slice(&self) -> &[f32] {
        &self.wire
    }

    /// Dense via-pressure slice indexed by [`crate::GcellId`].
    pub fn via_pressure_slice(&self) -> &[f32] {
        &self.via_pressure
    }

    /// Resets all demand to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.wire.fill(0.0);
        self.via_pressure.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityBuilder;

    fn setup() -> (GcellGrid, CapacityModel) {
        let g = GcellGrid::new(5, 5).unwrap();
        let cap = CapacityBuilder::uniform(&g, 10.0).build(&g).unwrap();
        (g, cap)
    }

    #[test]
    fn add_and_remove_segment_roundtrip() {
        let (g, _) = setup();
        let mut d = DemandMap::new(&g);
        d.add_segment(&g, Point::new(0, 2), Point::new(4, 2))
            .unwrap();
        assert_eq!(d.wire(g.h_edge(1, 2).unwrap()), 1.0);
        d.remove_segment(&g, Point::new(0, 2), Point::new(4, 2))
            .unwrap();
        for e in g.edge_ids() {
            assert_eq!(d.wire(e), 0.0);
        }
    }

    #[test]
    fn total_includes_via_pressure_of_both_endpoints() {
        let (g, cap) = setup();
        let mut d = DemandMap::new(&g);
        let e = g.h_edge(1, 1).unwrap(); // endpoints (1,1) and (2,1)
        d.add_turn(&g, Point::new(1, 1)).unwrap();
        d.add_turn(&g, Point::new(2, 1)).unwrap();
        // no wire, via pressure 1 at each endpoint, β = 1: 0.5 + 0.5
        assert_eq!(d.total(&g, &cap, e), 1.0);
        // a distant edge is unaffected
        assert_eq!(d.total(&g, &cap, g.h_edge(0, 4).unwrap()), 0.0);
    }

    #[test]
    fn via_pressure_respects_beta() {
        let g = GcellGrid::new(5, 5).unwrap();
        let cap = CapacityBuilder::uniform(&g, 10.0)
            .set_beta(&g, Point::new(1, 1), 2.0)
            .unwrap()
            .build(&g)
            .unwrap();
        let mut d = DemandMap::new(&g);
        d.add_turn(&g, Point::new(1, 1)).unwrap();
        let e = g.h_edge(1, 1).unwrap();
        assert_eq!(d.total(&g, &cap, e), 0.5 * 2.0);
    }

    #[test]
    fn from_parts_validates_lengths() {
        let (g, _) = setup();
        assert!(DemandMap::from_parts(&g, vec![0.0; 2], vec![0.0; g.num_cells()]).is_err());
        assert!(DemandMap::from_parts(&g, vec![0.0; g.num_edges()], vec![0.0; 1]).is_err());
        assert!(
            DemandMap::from_parts(&g, vec![0.0; g.num_edges()], vec![0.0; g.num_cells()]).is_ok()
        );
    }

    #[test]
    fn clear_resets_everything() {
        let (g, _) = setup();
        let mut d = DemandMap::new(&g);
        d.add_segment(&g, Point::new(0, 0), Point::new(0, 4))
            .unwrap();
        d.add_turn(&g, Point::new(0, 4)).unwrap();
        d.clear();
        assert!(d.wire_slice().iter().all(|&w| w == 0.0));
        assert!(d.via_pressure_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn turn_out_of_bounds_errors() {
        let (g, _) = setup();
        let mut d = DemandMap::new(&g);
        assert!(d.add_turn(&g, Point::new(9, 9)).is_err());
    }
}
