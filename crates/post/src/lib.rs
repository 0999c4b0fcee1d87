#![warn(missing_docs)]

//! Post-processing: 2D pattern routes → 3D routing guides.
//!
//! DGR (like CUGR2) routes in 2D and lifts the result to 3D afterwards
//! (Section 4.6 of the paper):
//!
//! 1. [`assign_layers`] — dynamic-programming layer assignment: every
//!    wire segment picks a routing layer of matching preferred direction,
//!    trading per-layer congestion against via count (layer changes at
//!    segment junctions),
//! 2. [`refine()`] — maze rerouting of nets that cross overflowed edges,
//!    followed by re-assignment,
//! 3. [`RouteGuide`] — the final guide boxes handed to a detailed router.
//!
//! [`pipeline`] runs the router and these passes in that order; it is the
//! one sequencing of them that `dgr route`, `dgrd` and the table binaries
//! share.
//!
//! The layer model alternates preferred directions (metal1 horizontal by
//! default) and splits each 2D edge capacity evenly across the layers of
//! its direction.

pub mod assign;
pub mod guide;
pub mod layers;
pub mod pipeline;
pub mod refine;

pub use assign::{
    assign_layers, assign_net_dp, AssignConfig, Assigned3d, Net3d, NetAssignment, NetTopology,
    Segment3d,
};
pub use guide::RouteGuide;
pub use layers::LayerModel;
pub use refine::{refine, RefineConfig, RefineReport};

/// Errors produced by post-processing.
#[derive(Debug)]
pub enum PostError {
    /// Grid-level failure (a route leaving the grid).
    Grid(dgr_grid::GridError),
    /// The design has fewer than two routable layers.
    TooFewLayers {
        /// Layers available.
        got: u32,
    },
    /// Refinement's maze search found no path for a sub-net of this net.
    Unroutable {
        /// Index of the net in the design.
        net: usize,
    },
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PostError::Grid(e) => write!(f, "grid operation failed: {e}"),
            PostError::TooFewLayers { got } => {
                write!(f, "layer assignment needs ≥ 2 layers, got {got}")
            }
            PostError::Unroutable { net } => {
                write!(f, "refinement found no path for a sub-net of net {net}")
            }
        }
    }
}

impl std::error::Error for PostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PostError::Grid(e) => Some(e),
            PostError::TooFewLayers { .. } | PostError::Unroutable { .. } => None,
        }
    }
}

impl From<dgr_grid::GridError> for PostError {
    fn from(e: dgr_grid::GridError) -> Self {
        PostError::Grid(e)
    }
}
