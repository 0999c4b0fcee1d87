//! Overflow and congestion statistics used by every experiment.
//!
//! The DGR paper reports, per testcase:
//!
//! * the number of g-cell edges with overflow (`demand > capacity`),
//! * total overflow mass,
//! * peak per-edge overflow, and
//! * (Fig. 6) a *weighted overflow* score
//!   `10·n₁ + 1000·n₂ + 10000·peak`, where `n₁` counts overflowed nets
//!   after layer assignment and `n₂` counts overflowed g-cell edges.

use crate::capacity::CapacityModel;
use crate::demand::{excess, DemandMap};
use crate::grid::GcellGrid;

/// Aggregate overflow statistics of a routing state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverflowStats {
    /// Number of g-cell edges whose demand exceeds capacity.
    pub overflowed_edges: usize,
    /// Sum of `max(0, demand − capacity)` over all edges.
    pub total_overflow: f64,
    /// Largest per-edge overflow.
    pub peak_overflow: f32,
}

impl OverflowStats {
    /// Computes statistics from a demand map against a capacity model.
    ///
    /// Overflow is the [`crate::demand::excess`] of the Eq. (2) total demand
    /// (wire + β-weighted via pressure) over capacity.
    pub fn measure(grid: &GcellGrid, cap: &CapacityModel, demand: &DemandMap) -> Self {
        let mut stats = OverflowStats::default();
        for e in grid.edge_ids() {
            let over = excess(demand.total(cap, e), cap.capacity(e));
            if over > 0.0 {
                stats.overflowed_edges += 1;
                stats.total_overflow += over as f64;
                stats.peak_overflow = stats.peak_overflow.max(over);
            }
        }
        stats
    }

    /// The Fig. 6 *weighted overflow* score:
    /// `10·overflowed_nets + 1000·overflowed_edges + 10000·peak`.
    pub fn weighted(&self, overflowed_nets: usize) -> f64 {
        10.0 * overflowed_nets as f64
            + 1000.0 * self.overflowed_edges as f64
            + 10_000.0 * self.peak_overflow as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityBuilder;
    use crate::Point;

    fn setup(cap_tracks: f32) -> (GcellGrid, CapacityModel, DemandMap) {
        let g = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&g, cap_tracks).build(&g).unwrap();
        let d = DemandMap::new(&g);
        (g, cap, d)
    }

    #[test]
    fn empty_demand_has_no_overflow() {
        let (g, cap, d) = setup(1.0);
        let s = OverflowStats::measure(&g, &cap, &d);
        assert_eq!(s.overflowed_edges, 0);
        assert_eq!(s.total_overflow, 0.0);
        assert_eq!(s.peak_overflow, 0.0);
    }

    #[test]
    fn overflow_counts_single_edge() {
        let (g, cap, mut d) = setup(1.0);
        // push 3 wires over one edge of capacity 1 → overflow 2
        for _ in 0..3 {
            d.add_segment(&g, Point::new(0, 0), Point::new(1, 0))
                .unwrap();
        }
        let s = OverflowStats::measure(&g, &cap, &d);
        assert_eq!(s.overflowed_edges, 1);
        assert!((s.total_overflow - 2.0).abs() < 1e-6);
        assert!((s.peak_overflow - 2.0).abs() < 1e-6);
    }

    #[test]
    fn demand_at_capacity_is_not_overflow() {
        let (g, cap, mut d) = setup(2.0);
        d.add_segment(&g, Point::new(0, 0), Point::new(1, 0))
            .unwrap();
        d.add_segment(&g, Point::new(0, 0), Point::new(1, 0))
            .unwrap();
        let s = OverflowStats::measure(&g, &cap, &d);
        assert_eq!(s.overflowed_edges, 0);
    }

    #[test]
    fn weighted_overflow_formula() {
        let s = OverflowStats {
            overflowed_edges: 3,
            total_overflow: 5.0,
            peak_overflow: 2.0,
        };
        assert_eq!(s.weighted(7), 10.0 * 7.0 + 1000.0 * 3.0 + 10_000.0 * 2.0);
    }

    #[test]
    fn blocked_edge_with_demand_overflows() {
        let g = GcellGrid::new(3, 3).unwrap();
        let mut b = CapacityBuilder::uniform(&g, 1.0);
        b.set_tracks(g.h_edge(0, 0).unwrap(), 0.0);
        let cap = b.build(&g).unwrap();
        let mut d = DemandMap::new(&g);
        d.add_segment(&g, Point::new(0, 0), Point::new(1, 0))
            .unwrap();
        assert_eq!(OverflowStats::measure(&g, &cap, &d).overflowed_edges, 1);
    }
}
