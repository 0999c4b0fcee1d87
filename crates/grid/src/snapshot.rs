//! Dense spatial congestion captures for the observability pipeline.
//!
//! [`CongestionSnapshot`] freezes the per-edge total demand (Eq. 2) and
//! the derived overflow (`max(0, demand − capacity)`) into separate
//! horizontal/vertical grids, row-major, matching the dense edge
//! numbering of [`GcellGrid`] (H edges first, V edges offset by
//! `num_h_edges()`). The split-by-direction layout is what heatmap
//! renderers and snapshot streams want: each grid is a rectangular
//! raster.
//!
//! Two capture paths exist because the pipeline has two demand
//! representations: [`CongestionSnapshot::capture`] reads a discrete
//! [`DemandMap`] (extracted solutions), while
//! [`CongestionSnapshot::from_dense`] reads the dense per-edge expected
//! demand vector (Eq. 10) that the relaxed model maintains during
//! training.

use crate::capacity::CapacityModel;
use crate::demand::{excess, DemandMap};
use crate::grid::GcellGrid;

/// A frozen per-edge demand/overflow capture, split by edge direction.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionSnapshot {
    /// Horizontal-edge total demand, row-major (`(width−1)·height`).
    pub h_demand: Vec<f32>,
    /// Vertical-edge total demand, row-major (`width·(height−1)`).
    pub v_demand: Vec<f32>,
    /// Horizontal-edge overflow `max(0, demand − capacity)`.
    pub h_overflow: Vec<f32>,
    /// Vertical-edge overflow.
    pub v_overflow: Vec<f32>,
    /// Edges over capacity by more than the solver epsilon.
    pub overflowed_edges: usize,
    /// Sum of per-edge overflow.
    pub total_overflow: f32,
    /// Largest per-edge overflow.
    pub peak_overflow: f32,
}

impl CongestionSnapshot {
    /// Captures the current state of a discrete [`DemandMap`] (Eq. 2
    /// total demand: wire plus β-weighted endpoint via pressure).
    pub fn capture(grid: &GcellGrid, cap: &CapacityModel, demand: &DemandMap) -> Self {
        let dense: Vec<f32> = grid.edge_ids().map(|e| demand.total(cap, e)).collect();
        Self::from_dense(grid, cap, &dense).expect("dense vector has num_edges() entries")
    }

    /// Captures from a dense per-edge total-demand slice indexed by
    /// [`crate::EdgeId`] — the representation the differentiable solver
    /// maintains during training (Eq. 10 expected demand).
    ///
    /// # Errors
    ///
    /// Returns [`crate::GridError::LengthMismatch`] if `total_demand`
    /// does not have `grid.num_edges()` entries.
    pub fn from_dense(
        grid: &GcellGrid,
        cap: &CapacityModel,
        total_demand: &[f32],
    ) -> Result<Self, crate::GridError> {
        if total_demand.len() != grid.num_edges() {
            return Err(crate::GridError::LengthMismatch {
                expected: grid.num_edges(),
                got: total_demand.len(),
            });
        }
        let num_h = grid.num_h_edges();
        let mut snap = CongestionSnapshot {
            h_demand: total_demand[..num_h].to_vec(),
            v_demand: total_demand[num_h..].to_vec(),
            h_overflow: Vec::with_capacity(num_h),
            v_overflow: Vec::with_capacity(total_demand.len() - num_h),
            overflowed_edges: 0,
            total_overflow: 0.0,
            peak_overflow: 0.0,
        };
        for e in grid.edge_ids() {
            let over = excess(total_demand[e.index()], cap.capacity(e));
            if over > 0.0 {
                snap.overflowed_edges += 1;
                snap.total_overflow += over;
                snap.peak_overflow = snap.peak_overflow.max(over);
            }
            if e.index() < num_h {
                snap.h_overflow.push(over);
            } else {
                snap.v_overflow.push(over);
            }
        }
        Ok(snap)
    }
}

/// The run-invariant capacity rasters, split by direction
/// (`(h_capacity, v_capacity)`, row-major) — the snapshot-stream header
/// payload.
pub fn capacity_grids(grid: &GcellGrid, cap: &CapacityModel) -> (Vec<f32>, Vec<f32>) {
    let num_h = grid.num_h_edges();
    let mut h = Vec::with_capacity(num_h);
    let mut v = Vec::with_capacity(grid.num_v_edges());
    for e in grid.edge_ids() {
        if e.index() < num_h {
            h.push(cap.capacity(e));
        } else {
            v.push(cap.capacity(e));
        }
    }
    (h, v)
}

/// Dense per-edge overflow excess (`max(0, demand − capacity)`, zeroed
/// below the solver epsilon), indexed by [`crate::EdgeId`] — the input
/// of the per-net attribution pass.
pub fn edge_excess(grid: &GcellGrid, cap: &CapacityModel, demand: &DemandMap) -> Vec<f32> {
    grid.edge_ids().map(|e| demand.excess(cap, e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityBuilder;
    use crate::metrics::OverflowStats;
    use crate::Point;

    fn setup(tracks: f32) -> (GcellGrid, CapacityModel, DemandMap) {
        let g = GcellGrid::new(4, 3).unwrap();
        let cap = CapacityBuilder::uniform(&g, tracks).build(&g).unwrap();
        let d = DemandMap::new(&g);
        (g, cap, d)
    }

    #[test]
    fn capture_splits_directions_row_major() {
        let (g, cap, mut d) = setup(1.0);
        // 2 wires across the h-edge (1,2)-(2,2); one wire on v-edge (0,0)-(0,1)
        for _ in 0..2 {
            d.add_segment(&g, Point::new(1, 2), Point::new(2, 2))
                .unwrap();
        }
        d.add_segment(&g, Point::new(0, 0), Point::new(0, 1))
            .unwrap();
        let snap = CongestionSnapshot::capture(&g, &cap, &d);
        assert_eq!(snap.h_demand.len(), g.num_h_edges());
        assert_eq!(snap.v_demand.len(), g.num_v_edges());
        // h-edge (1,2): row-major index y*(w−1)+x = 2*3+1 = 7
        assert_eq!(snap.h_demand[7], 2.0);
        assert_eq!(snap.h_overflow[7], 1.0);
        // v-edge (0,0): index y*w+x = 0
        assert_eq!(snap.v_demand[0], 1.0);
        assert_eq!(snap.v_overflow[0], 0.0);
        assert_eq!(snap.overflowed_edges, 1);
        assert_eq!(snap.total_overflow, 1.0);
        assert_eq!(snap.peak_overflow, 1.0);
    }

    #[test]
    fn capture_agrees_with_overflow_stats() {
        let (g, cap, mut d) = setup(1.0);
        for _ in 0..3 {
            d.add_segment(&g, Point::new(0, 0), Point::new(3, 0))
                .unwrap();
        }
        d.add_turn(&g, Point::new(3, 0)).unwrap();
        let snap = CongestionSnapshot::capture(&g, &cap, &d);
        let stats = OverflowStats::measure(&g, &cap, &d);
        assert_eq!(snap.overflowed_edges, stats.overflowed_edges);
        assert!((snap.total_overflow as f64 - stats.total_overflow).abs() < 1e-5);
        assert_eq!(snap.peak_overflow, stats.peak_overflow);
    }

    #[test]
    fn from_dense_validates_length() {
        let (g, cap, _) = setup(1.0);
        assert!(CongestionSnapshot::from_dense(&g, &cap, &[0.0; 3]).is_err());
        let ok = CongestionSnapshot::from_dense(&g, &cap, &vec![0.5; g.num_edges()]).unwrap();
        assert_eq!(ok.overflowed_edges, 0);
    }

    #[test]
    fn round_off_below_epsilon_is_not_overflow() {
        let (g, cap, _) = setup(1.0);
        let dense = vec![1.0 + 5e-5; g.num_edges()];
        let snap = CongestionSnapshot::from_dense(&g, &cap, &dense).unwrap();
        assert_eq!(snap.overflowed_edges, 0);
        assert!(snap.h_overflow.iter().all(|&o| o == 0.0));
    }

    #[test]
    fn capacity_grids_match_model() {
        let g = GcellGrid::new(3, 3).unwrap();
        let mut b = CapacityBuilder::uniform(&g, 2.0);
        b.set_tracks(g.h_edge(1, 0).unwrap(), 0.5);
        let cap = b.build(&g).unwrap();
        let (h, v) = capacity_grids(&g, &cap);
        assert_eq!(h.len(), g.num_h_edges());
        assert_eq!(v.len(), g.num_v_edges());
        assert_eq!(h[1], 0.5); // h-edge (1,0) is index 1
        assert!(v.iter().all(|&c| c == 2.0));
    }

    #[test]
    fn edge_excess_is_dense_and_thresholded() {
        let (g, cap, mut d) = setup(1.0);
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
}
