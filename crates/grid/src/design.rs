//! The routing problem input: grid + capacities + nets.
//!
//! A [`Design`] is the common input type shared by the differentiable
//! router, every baseline router, and the benchmark generators — the
//! in-memory equivalent of the LEF/DEF + net list the paper's flows parse.

use serde::{Deserialize, Serialize};

use crate::capacity::CapacityModel;
use crate::geom::{Point, Rect};
use crate::grid::GcellGrid;
use crate::GridError;

/// A single net: a name and its pin positions (g-cell coordinates).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Human-readable net name.
    pub name: String,
    /// Pin positions; duplicates allowed (merged during tree construction).
    pub pins: Vec<Point>,
}

impl Net {
    /// Creates a net.
    pub fn new(name: impl Into<String>, pins: Vec<Point>) -> Self {
        Net {
            name: name.into(),
            pins,
        }
    }
}

/// A complete global-routing problem instance.
///
/// # Examples
///
/// ```
/// use dgr_grid::{CapacityBuilder, Design, GcellGrid, Net, Point};
///
/// let grid = GcellGrid::new(8, 8)?;
/// let cap = CapacityBuilder::uniform(&grid, 4.0).build(&grid)?;
/// let design = Design::new(
///     grid,
///     cap,
///     vec![Net::new("n0", vec![Point::new(0, 0), Point::new(5, 6)])],
///     3,
/// )?;
/// assert_eq!(design.num_nets(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Design {
    /// The g-cell grid.
    pub grid: GcellGrid,
    /// Per-edge routing capacities.
    pub capacity: CapacityModel,
    /// The nets to route.
    pub nets: Vec<Net>,
    /// Number of routable layers (`L` in Eq. 5's `√L` via weight).
    pub num_layers: u32,
}

impl Design {
    /// Assembles a design, validating that every pin is on the grid and
    /// the capacity model matches the grid.
    ///
    /// # Errors
    ///
    /// * [`GridError::CellOutOfBounds`] for a pin outside the grid,
    /// * [`GridError::LengthMismatch`] if `capacity` was built for a
    ///   different grid,
    /// * [`GridError::BadDimensions`] if `num_layers` is zero.
    pub fn new(
        grid: GcellGrid,
        capacity: CapacityModel,
        nets: Vec<Net>,
        num_layers: u32,
    ) -> Result<Self, GridError> {
        if capacity.num_edges() != grid.num_edges() {
            return Err(GridError::LengthMismatch {
                expected: grid.num_edges(),
                got: capacity.num_edges(),
            });
        }
        if num_layers == 0 {
            return Err(GridError::BadDimensions {
                width: grid.width(),
                height: 0,
            });
        }
        for net in &nets {
            for &p in &net.pins {
                if !grid.contains(p) {
                    return Err(GridError::CellOutOfBounds { x: p.x, y: p.y });
                }
            }
        }
        Ok(Design {
            grid,
            capacity,
            nets,
            num_layers,
        })
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Net indices by the half-perimeter of their pins' bounding box,
    /// smallest first (they have the least freedom), ties in input order:
    /// the order the sequential routers commit nets in.
    pub fn nets_by_half_perimeter(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.nets.len()).collect();
        order.sort_by_key(|&n| {
            let pins = &self.nets[n].pins;
            if pins.is_empty() {
                0
            } else {
                Rect::bounding(pins).half_perimeter()
            }
        });
        order
    }

    /// Total pin count across nets.
    pub fn num_pins(&self) -> usize {
        self.nets.iter().map(|n| n.pins.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityBuilder;

    #[test]
    fn rejects_out_of_grid_pin() {
        let grid = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let err = Design::new(grid, cap, vec![Net::new("bad", vec![Point::new(9, 9)])], 1);
        assert!(matches!(err, Err(GridError::CellOutOfBounds { .. })));
    }

    #[test]
    fn rejects_zero_layers() {
        let grid = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        assert!(Design::new(grid, cap, vec![], 0).is_err());
    }

    #[test]
    fn rejects_capacity_from_other_grid() {
        let g1 = GcellGrid::new(4, 4).unwrap();
        let g2 = GcellGrid::new(5, 5).unwrap();
        let cap = CapacityBuilder::uniform(&g2, 1.0).build(&g2).unwrap();
        assert!(matches!(
            Design::new(g1, cap, vec![], 1),
            Err(GridError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn counts_pins() {
        let grid = GcellGrid::new(6, 6).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let d = Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(1, 1)]),
                Net::new(
                    "b",
                    vec![Point::new(2, 2), Point::new(3, 3), Point::new(4, 4)],
                ),
            ],
            5,
        )
        .unwrap();
        assert_eq!(d.num_nets(), 2);
        assert_eq!(d.num_pins(), 5);
    }
}
