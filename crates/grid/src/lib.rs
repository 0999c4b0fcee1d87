#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! G-cell grid substrate for the DGR global router.
//!
//! Global routing abstracts the chip into a coarse grid of *g-cells*.
//! Adjacent g-cells are connected by *g-cell edges* that carry a routing
//! [`CapacityModel`] (how many wires fit) and a [`DemandMap`] (how many wires
//! the current solution pushes through). This crate provides:
//!
//! * [`Point`], [`Rect`] — integer g-cell geometry,
//! * [`GcellGrid`] — the grid graph with dense edge/cell indexing,
//! * [`CapacityModel`] — Eq. (1) of the DGR paper:
//!   `cap_e = tracks_e − β_v·pin_density_v − local_nets`,
//! * [`DemandMap`] — the ledger of committed wire/via demand (Eq. (2)):
//!   totals, the overflow test, marginals, commit and rip-up,
//! * [`metrics`] — overflow statistics used by every experiment.
//!
//! # Examples
//!
//! ```
//! use dgr_grid::{GcellGrid, Point};
//!
//! let grid = GcellGrid::new(8, 6)?;
//! let e = grid.h_edge(3, 2)?;
//! let (a, b) = grid.edge_endpoints(e);
//! assert_eq!((a, b), (Point::new(3, 2), Point::new(4, 2)));
//! # Ok::<(), dgr_grid::GridError>(())
//! ```

pub mod capacity;
pub mod demand;
pub mod design;
pub mod geom;
pub mod grid;
pub mod ids;
pub mod maze;
pub mod metrics;

pub use capacity::{CapacityBuilder, CapacityModel};
pub use demand::DemandMap;
pub use design::{Design, Net};
pub use geom::{Point, PointIndex, Rect};
pub use grid::{EdgeDir, GcellGrid};
pub use ids::{EdgeId, GcellId, NetId};
pub use maze::MazeConfig;
pub use metrics::OverflowStats;

/// Errors produced by grid construction and indexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A grid dimension was zero or exceeded the supported maximum.
    BadDimensions {
        /// Requested width in g-cells.
        width: u32,
        /// Requested height in g-cells.
        height: u32,
    },
    /// A cell coordinate fell outside the grid.
    CellOutOfBounds {
        /// Offending x coordinate.
        x: i32,
        /// Offending y coordinate.
        y: i32,
    },
    /// An edge coordinate fell outside the grid.
    EdgeOutOfBounds {
        /// Offending x coordinate.
        x: i32,
        /// Offending y coordinate.
        y: i32,
        /// Direction of the requested edge.
        dir: EdgeDir,
    },
    /// Two points expected to be rectilinearly aligned were not.
    NotAligned {
        /// First endpoint.
        a: Point,
        /// Second endpoint.
        b: Point,
    },
    /// A per-cell or per-edge data vector had the wrong length.
    LengthMismatch {
        /// Expected number of entries.
        expected: usize,
        /// Provided number of entries.
        got: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::BadDimensions { width, height } => {
                write!(f, "grid dimensions {width}x{height} are invalid")
            }
            GridError::CellOutOfBounds { x, y } => {
                write!(f, "g-cell ({x}, {y}) is outside the grid")
            }
            GridError::EdgeOutOfBounds { x, y, dir } => {
                write!(f, "{dir:?} edge at ({x}, {y}) is outside the grid")
            }
            GridError::NotAligned { a, b } => {
                write!(f, "points {a} and {b} are not rectilinearly aligned")
            }
            GridError::LengthMismatch { expected, got } => {
                write!(f, "expected {expected} entries, got {got}")
            }
        }
    }
}

impl std::error::Error for GridError {}
