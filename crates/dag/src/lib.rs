#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The routing DAG forest — DGR's core data structure.
//!
//! A *DAG forest* (Section 3.1 of the paper) represents the complete 2D
//! pattern-routing search space of a design:
//!
//! ```text
//! net ──► routing-tree candidates ──► 2-pin sub-nets ──► path candidates
//! ```
//!
//! Each net owns one or more [routing trees](dgr_rsmt::RoutingTree); each
//! tree induces 2-pin sub-nets; each sub-net owns one or more pattern-path
//! candidates (straight / L-shape / optional Z-shapes). Selecting one tree
//! per net (Eq. 8) and one path per sub-net of that tree (Eq. 7) yields a
//! 2D routing solution.
//!
//! The whole forest is stored as flat CSR arenas ([`DagForest`]) so the
//! differentiable solver can stream it with gather/scatter kernels — the
//! layout mirrors what DGR keeps in GPU tensors.

pub mod builder;
pub mod forest;
pub mod paths;

pub use builder::{build_forest, build_forest_with_extras, PatternConfig};
pub use forest::DagForest;
pub use paths::{enumerate_paths, enumerate_patterns, PatternPath};

/// Errors produced while building or validating a DAG forest.
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// A path candidate left the routing grid.
    PathOutOfGrid(String),
    /// A net had no tree candidates.
    EmptyNet {
        /// Index of the offending net.
        net: usize,
    },
    /// Internal consistency violation (indicates a bug, not bad input).
    Inconsistent(String),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::PathOutOfGrid(why) => write!(f, "path candidate left the grid: {why}"),
            DagError::EmptyNet { net } => write!(f, "net {net} has no tree candidates"),
            DagError::Inconsistent(why) => write!(f, "forest inconsistency: {why}"),
        }
    }
}

impl std::error::Error for DagError {}

impl From<dgr_grid::GridError> for DagError {
    fn from(e: dgr_grid::GridError) -> Self {
        DagError::PathOutOfGrid(e.to_string())
    }
}
