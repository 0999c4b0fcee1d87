#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # DGR — Differentiable Global Router
//!
//! Facade crate re-exporting every subsystem of the DGR reproduction
//! (DAC 2024): a global router that relaxes discrete routing-tree and
//! pattern-path selection to probabilities and optimizes millions of nets
//! concurrently with gradient descent.
//!
//! * [`grid`] — g-cell grid, capacity/demand model, overflow metrics
//! * [`rsmt`] — rectilinear Steiner trees and tree-candidate pools
//! * [`dag`] — the routing DAG forest (the search-space representation)
//! * [`autodiff`] — the expected-cost kernel (Eqs. 9–12, forward and
//!   hand-derived backward), Adam and the helper thread training and the
//!   front end's fan-outs share
//! * [`core`] — the differentiable router itself
//! * [`baseline`] — ILP, sequential, soft-capacity and Lagrangian routers
//! * [`post`] — layer assignment, maze refinement, routing guides, and
//!   [`post::pipeline`]: the one route → refine → assign → guide sequence
//!   behind `dgr route`, `dgrd`, `dgr compare` and the experiment tables
//! * [`io`] — benchmark generation and design serialization
//! * [`obs`] — tracing spans, metrics, and training telemetry
//! * [`daemon`] — `dgrd`, the long-lived multi-tenant routing job server
//!
//! # Examples
//!
//! ```
//! use dgr::core::{DgrConfig, DgrRouter};
//! use dgr::grid::{CapacityBuilder, Design, GcellGrid, Net, Point};
//!
//! let grid = GcellGrid::new(12, 12)?;
//! let capacity = CapacityBuilder::uniform(&grid, 4.0).build(&grid)?;
//! let design = Design::new(
//!     grid,
//!     capacity,
//!     vec![Net::new("n0", vec![Point::new(1, 1), Point::new(9, 7)])],
//!     5,
//! )?;
//! let mut config = DgrConfig::default();
//! config.iterations = 50;
//! let solution = DgrRouter::new(config).route(&design)?;
//! assert_eq!(solution.metrics.total_wirelength, 14);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use dgr_autodiff as autodiff;
pub use dgr_baseline as baseline;
pub use dgr_core as core;
pub use dgr_daemon as daemon;
pub use dgr_dag as dag;
pub use dgr_grid as grid;
pub use dgr_io as io;
pub use dgr_obs as obs;
pub use dgr_post as post;
pub use dgr_rsmt as rsmt;
