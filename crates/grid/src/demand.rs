//! Committed routing demand — Eq. (2) of the DGR paper — and every
//! question a router asks of it.
//!
//! Demand on a g-cell edge has two components:
//!
//! * **wire demand**: one unit for every selected 2-pin path that routes
//!   through the edge, and
//! * **via demand**: `β_v` for every selected path with a turning point at a
//!   g-cell `v` adjacent to the edge, split evenly between the two endpoint
//!   cells of the edge (the same symmetric convention as
//!   [`crate::capacity`]).
//!
//! [`DemandMap`] is the one ledger of it: the read-out, refinement and the
//! sequential baselines all commit and rip up through it, and ask it the
//! same three things — the Eq. (2) [`total`](DemandMap::total) of an edge,
//! whether that [`is_over`](DemandMap::is_over) the Eq. (1) capacity, and
//! what more demand would add to the overflow
//! ([`marginal`](DemandMap::marginal)).

use crate::capacity::CapacityModel;
use crate::geom::Point;
use crate::grid::GcellGrid;
use crate::ids::EdgeId;
use crate::GridError;

/// An edge is overflowed when its demand exceeds its capacity by more than
/// this many tracks, so that float round-off in the differentiable solver
/// does not flip edge counts. Private: every overflow test, 2-D or per
/// layer, is [`excess`].
const OVERFLOW_EPS: f32 = 1e-4;

/// `max(0, demand − capacity)`, zero up to an epsilon of 10⁻⁴ tracks — the
/// overflow test, spelt once. The difference of two nearby floats is
/// exact, which `capacity + ε` is not: at 100 tracks it moves `ε` by up
/// to 4 %.
#[inline]
pub fn excess(demand: f32, capacity: f32) -> f32 {
    let over = demand - capacity;
    if over > OVERFLOW_EPS {
        over
    } else {
        0.0
    }
}

/// Mutable per-edge demand accumulator plus per-cell via pressure.
///
/// # Examples
///
/// ```
/// use dgr_grid::{CapacityBuilder, DemandMap, GcellGrid, Point};
///
/// let grid = GcellGrid::new(5, 5)?;
/// let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid)?;
/// let mut demand = DemandMap::new(&grid);
/// // an L-path from (0,0) to (2,2) turning at (2,0): β = 1 there
/// demand.commit(&grid, &[Point::new(0, 0), Point::new(2, 0), Point::new(2, 2)])?;
/// assert_eq!(demand.wire(grid.h_edge(0, 0)?), 1.0);
/// assert_eq!(demand.total(&cap, grid.h_edge(1, 0)?), 1.5);
/// assert!(demand.is_over(&cap, grid.h_edge(1, 0)?));
/// # Ok::<(), dgr_grid::GridError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
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
    ) -> Result<Self, GridError> {
        if wire.len() != grid.num_edges() {
            return Err(GridError::LengthMismatch {
                expected: grid.num_edges(),
                got: wire.len(),
            });
        }
        if via_pressure.len() != grid.num_cells() {
            return Err(GridError::LengthMismatch {
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

    /// Commits a corner polyline: one unit of wire demand on every edge
    /// under it and one turning point at every corner but its two ends.
    /// `± 1.0` on an integer-valued `f32` is exact, so the order of commits
    /// and rip-ups cannot perturb a later read.
    ///
    /// # Errors
    ///
    /// Propagates alignment/bounds errors from the grid, before anything
    /// is changed.
    pub fn commit(&mut self, grid: &GcellGrid, corners: &[Point]) -> Result<(), GridError> {
        self.apply(grid, corners, 1.0)
    }

    /// Rips up a polyline that was [`commit`](Self::commit)ted.
    ///
    /// # Errors
    ///
    /// As [`commit`](Self::commit).
    pub fn rip_up(&mut self, grid: &GcellGrid, corners: &[Point]) -> Result<(), GridError> {
        self.apply(grid, corners, -1.0)
    }

    fn apply(&mut self, grid: &GcellGrid, corners: &[Point], unit: f32) -> Result<(), GridError> {
        for e in grid.polyline_edges(corners)? {
            self.wire[e.index()] += unit;
        }
        for &turn in turns(corners) {
            self.via_pressure[grid.cell_id(turn)?.index()] += unit;
        }
        Ok(())
    }

    /// [`commit`](Self::commit) for a path already resolved to dense edge
    /// and turn-cell ids (what a DAG forest gives per candidate).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn commit_ids(&mut self, edges: impl IntoIterator<Item = u32>, turn_cells: &[u32]) {
        self.apply_ids(edges, turn_cells, 1.0);
    }

    /// [`rip_up`](Self::rip_up) for a path given as ids.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn rip_up_ids(&mut self, edges: impl IntoIterator<Item = u32>, turn_cells: &[u32]) {
        self.apply_ids(edges, turn_cells, -1.0);
    }

    fn apply_ids(&mut self, edges: impl IntoIterator<Item = u32>, turn_cells: &[u32], unit: f32) {
        edges
            .into_iter()
            .for_each(|e| self.wire[e as usize] += unit);
        for &v in turn_cells {
            self.via_pressure[v as usize] += unit;
        }
    }

    /// Adds one unit of wire demand along the straight segment `a`..`b`.
    ///
    /// # Errors
    ///
    /// Propagates alignment/bounds errors from the grid.
    pub fn add_segment(&mut self, grid: &GcellGrid, a: Point, b: Point) -> Result<(), GridError> {
        self.commit(grid, &[a, b])
    }

    /// Removes one unit of wire demand along the straight segment `a`..`b`.
    ///
    /// # Errors
    ///
    /// Propagates alignment/bounds errors from the grid.
    pub fn remove_segment(
        &mut self,
        grid: &GcellGrid,
        a: Point,
        b: Point,
    ) -> Result<(), GridError> {
        self.rip_up(grid, &[a, b])
    }

    /// Registers one turning point (via pressure) at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GridError::CellOutOfBounds`] if `p` is outside.
    pub fn add_turn(&mut self, grid: &GcellGrid, p: Point) -> Result<(), GridError> {
        self.via_pressure[grid.cell_id(p)?.index()] += 1.0;
        Ok(())
    }

    /// Removes one turning point at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GridError::CellOutOfBounds`] if `p` is outside.
    pub fn remove_turn(&mut self, grid: &GcellGrid, p: Point) -> Result<(), GridError> {
        self.via_pressure[grid.cell_id(p)?.index()] -= 1.0;
        Ok(())
    }

    /// Total demand of edge `e` per Eq. (2): wire demand plus the
    /// β-weighted via pressure of the two endpoint cells (half each), read
    /// off the endpoints `cap` resolved when it was built.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn total(&self, cap: &CapacityModel, e: EdgeId) -> f32 {
        let ends = cap.ends[e.index()];
        self.wire[e.index()]
            + ends.half_beta_a * self.via_pressure[ends.a as usize]
            + ends.half_beta_b * self.via_pressure[ends.b as usize]
    }

    /// [`excess`] of edge `e`: how far its total demand is over capacity.
    #[inline]
    pub fn excess(&self, cap: &CapacityModel, e: EdgeId) -> f32 {
        excess(self.total(cap, e), cap.capacity(e))
    }

    /// Whether edge `e` is overflowed.
    #[inline]
    pub fn is_over(&self, cap: &CapacityModel, e: EdgeId) -> bool {
        self.excess(cap, e) > 0.0
    }

    /// What `add` more demand on edge `e` adds to its hard overflow:
    /// `max(0, d + add − cap) − max(0, d − cap)`. `add` is 1 for a wire and
    /// [`CapacityModel::half_beta`] of the cell for a turning point beside
    /// the edge.
    #[inline]
    pub fn marginal(&self, cap: &CapacityModel, e: EdgeId, add: f32) -> f32 {
        let d = self.total(cap, e);
        let c = cap.capacity(e);
        (d + add - c).max(0.0) - (d - c).max(0.0)
    }

    /// [`is_over`](Self::is_over) of every edge, indexed by [`EdgeId`].
    pub fn overflow_mask(&self, cap: &CapacityModel) -> Vec<bool> {
        (0..self.wire.len() as u32)
            .map(|e| self.is_over(cap, EdgeId::new(e)))
            .collect()
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

/// The turning points of a corner polyline: everything but its endpoints.
fn turns(corners: &[Point]) -> &[Point] {
    corners
        .get(1..corners.len().saturating_sub(1))
        .unwrap_or(&[])
}

/// Every edge whose Eq. (2) total a commit or rip-up of `corners` changes:
/// the edges under the polyline (wire demand), then the up to four edges
/// around each turning point (via pressure).
///
/// # Errors
///
/// Propagates alignment/bounds errors from the grid.
pub fn touched_edges<'a>(
    grid: &'a GcellGrid,
    cap: &'a CapacityModel,
    corners: &'a [Point],
) -> Result<impl Iterator<Item = EdgeId> + 'a, GridError> {
    let wire = grid.polyline_edges(corners)?;
    let via = turns(corners).iter().flat_map(move |&turn| {
        let cell = grid.cell_id(turn).expect("a corner of a checked polyline");
        cap.incident_edges(cell).iter().copied()
    });
    Ok(wire.chain(via))
}

/// Dense per-edge overflow excess ([`DemandMap::excess`] of every edge),
/// indexed by [`EdgeId`] — the input of the per-net attribution pass.
pub fn edge_excess(grid: &GcellGrid, cap: &CapacityModel, demand: &DemandMap) -> Vec<f32> {
    grid.edge_ids().map(|e| demand.excess(cap, e)).collect()
}

/// Whether the polyline `corners` rides an edge set in `mask` (an
/// [`DemandMap::overflow_mask`]). A polyline that leaves the grid rides
/// nothing.
pub fn rides(grid: &GcellGrid, mask: &[bool], corners: &[Point]) -> bool {
    grid.polyline_edges(corners)
        .is_ok_and(|mut edges| edges.any(|e| mask[e.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityBuilder;
    use crate::ids::GcellId;

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
        assert_eq!(d.total(&cap, e), 1.0);
        // a distant edge is unaffected
        assert_eq!(d.total(&cap, g.h_edge(0, 4).unwrap()), 0.0);
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
        assert_eq!(d.total(&cap, e), 0.5 * 2.0);
    }

    #[test]
    fn commit_and_rip_up_roundtrip_and_reject_before_changing_anything() {
        let (g, cap) = setup();
        let mut d = DemandMap::new(&g);
        let z = [
            Point::new(0, 0),
            Point::new(2, 0),
            Point::new(2, 3),
            Point::new(4, 3),
        ];
        d.commit(&g, &z).unwrap();
        assert_eq!(d.wire_slice().iter().sum::<f32>(), 7.0);
        assert_eq!(d.via_pressure_slice().iter().sum::<f32>(), 2.0);
        let touched: Vec<EdgeId> = touched_edges(&g, &cap, &z).unwrap().collect();
        assert_eq!(touched.len(), 7 + 3 + 4);
        for e in g.edge_ids() {
            assert_eq!(d.total(&cap, e) != 0.0, touched.contains(&e), "{e}");
        }
        // the second segment of this one is diagonal: nothing is applied
        let bad = [Point::new(0, 0), Point::new(3, 0), Point::new(4, 4)];
        let before = d.clone();
        assert!(d.commit(&g, &bad).is_err());
        assert_eq!(d, before);
        d.rip_up(&g, &z).unwrap();
        assert_eq!(d, DemandMap::new(&g));
    }

    #[test]
    fn overflow_questions_share_one_threshold() {
        let g = GcellGrid::new(5, 5).unwrap();
        let cap = CapacityBuilder::uniform(&g, 2.0).build(&g).unwrap();
        let mut d = DemandMap::new(&g);
        let e = g.h_edge(1, 1).unwrap();
        assert_eq!(d.marginal(&cap, e, 1.0), 0.0);
        d.add_wire(e, 1.5);
        // d + 1 = 2.5 > 2 → half a track of new overflow; a turn's ½β none
        assert_eq!(d.marginal(&cap, e, 1.0), 0.5);
        assert_eq!(d.marginal(&cap, e, cap.half_beta(GcellId::new(6))), 0.0);
        d.add_wire(e, 0.5); // at capacity
        assert_eq!(d.marginal(&cap, e, 1.0), 1.0);
        assert!(!d.is_over(&cap, e));
        d.add_wire(e, 0.5 * OVERFLOW_EPS); // round-off is not overflow
        assert!(!d.is_over(&cap, e) && d.excess(&cap, e) == 0.0);
        d.add_wire(e, 1.0);
        assert!(d.is_over(&cap, e) && d.excess(&cap, e) > 1.0);
        let mask = d.overflow_mask(&cap);
        assert_eq!(mask.iter().filter(|&&over| over).count(), 1);
        assert!(rides(&g, &mask, &[Point::new(0, 1), Point::new(4, 1)]));
        assert!(!rides(&g, &mask, &[Point::new(0, 2), Point::new(4, 2)]));
        assert!(!rides(&g, &mask, &[Point::new(0, 1), Point::new(9, 1)]));
    }

    #[test]
    fn edge_excess_is_dense_and_thresholded() {
        let g = GcellGrid::new(4, 3).unwrap();
        let cap = CapacityBuilder::uniform(&g, 1.0).build(&g).unwrap();
        let mut d = DemandMap::new(&g);
        for _ in 0..2 {
            d.add_segment(&g, Point::new(0, 1), Point::new(1, 1))
                .unwrap();
        }
        let excess = edge_excess(&g, &cap, &d);
        assert_eq!(excess.len(), g.num_edges());
        let e = g.h_edge(0, 1).unwrap();
        assert_eq!(excess[e.index()], 1.0);
        assert_eq!(excess.iter().filter(|&&x| x > 0.0).count(), 1);
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
