//! CUGR2's logistic congestion cost.

use dgr_grid::{CapacityModel, DemandMap, EdgeId};

/// CUGR2-style logistic wire cost of using edge `e` given the current
/// demand: `1 + slope / (1 + e^{α(cap − d − 1)})`.
///
/// The cost rises smoothly from ~1 (plenty of capacity) to `1 + slope`
/// (already full); `α` controls the sharpness. The `− 1` accounts for the
/// wire about to be added.
///
/// # Examples
///
/// ```
/// use dgr_grid::{CapacityBuilder, DemandMap, GcellGrid};
/// use dgr_baseline::cost::logistic_cost;
///
/// let grid = GcellGrid::new(4, 4)?;
/// let cap = CapacityBuilder::uniform(&grid, 4.0).build(&grid)?;
/// let demand = DemandMap::new(&grid);
/// let e = grid.h_edge(0, 0)?;
/// let free = logistic_cost(&cap, &demand, e, 8.0, 1.0);
/// assert!(free < 2.0); // nearly unit cost when empty
/// # Ok::<(), dgr_grid::GridError>(())
/// ```
pub fn logistic_cost(
    cap: &CapacityModel,
    demand: &DemandMap,
    e: EdgeId,
    slope: f32,
    alpha: f32,
) -> f32 {
    let d = demand.total(cap, e);
    let c = cap.capacity(e);
    1.0 + slope / (1.0 + (alpha * (c - d - 1.0)).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid};

    fn setup() -> (GcellGrid, CapacityModel, DemandMap) {
        let g = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&g, 2.0).build(&g).unwrap();
        (g.clone(), cap, DemandMap::new(&g))
    }

    #[test]
    fn logistic_cost_rises_with_demand() {
        let (g, cap, mut d) = setup();
        let e = g.h_edge(0, 0).unwrap();
        let c0 = logistic_cost(&cap, &d, e, 8.0, 1.0);
        d.add_wire(e, 2.0);
        let c2 = logistic_cost(&cap, &d, e, 8.0, 1.0);
        d.add_wire(e, 2.0);
        let c4 = logistic_cost(&cap, &d, e, 8.0, 1.0);
        assert!(c0 < c2 && c2 < c4);
        assert!(c4 <= 9.0);
    }
}
