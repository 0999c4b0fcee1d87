#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Baseline global routers the paper compares DGR against.
//!
//! Each baseline reimplements the *algorithmic core* of a published router
//! so the comparison tables can be regenerated on the same substrate:
//!
//! * [`ilp`] — an **exact branch-and-bound** solver over L-shape choices
//!   (the paper's CVXPY ILP reference, Table 1), with a wall-clock limit
//!   and an admissible convexity-based lower bound,
//! * [`sequential`] — a **CUGR2-style sequential pattern router**: greedy
//!   net-by-net pattern selection under CUGR2's logistic congestion cost,
//!   followed by pattern-only rip-up-and-reroute rounds (Table 2, Fig. 5a);
//!   its maze stage is the shared refine that finishes DGR too,
//! * [`sproute`] — an **SPRoute 2.0-style soft-capacity maze router**
//!   (Table 3),
//! * [`lagrangian`] — a **Lagrangian-relaxation pathfinding router** in
//!   the spirit of Yao et al. DAC'23 (Table 3).
//!
//! The maze engine ([`dgr_grid::maze`]) the last two search with and the
//! demand ledger ([`dgr_grid::DemandMap`]) all of them commit to are the
//! product's.
//!
//! All routers consume a [`dgr_grid::Design`] and produce a
//! [`dgr_core::RoutingSolution`], so every metric in the experiment
//! harness is computed by exactly the same code for DGR and baselines.

pub mod ilp;
pub mod lagrangian;
pub mod sequential;
pub mod sproute;

pub use ilp::{IlpResult, IlpSolver, IlpStatus};
pub use lagrangian::LagrangianRouter;
pub use sequential::SequentialRouter;
pub use sproute::SprouteRouter;

/// One route per net of `design`, in net order, with no paths yet (the
/// baselines pick no tree candidate: `tree` is 0).
fn unrouted(design: &dgr_grid::Design) -> Vec<dgr_core::NetRoute> {
    let route = |net| dgr_core::NetRoute {
        net,
        tree: 0,
        paths: Vec::new(),
    };
    (0..design.nets.len()).map(route).collect()
}

/// Errors produced by baseline routers.
#[derive(Debug)]
pub enum BaselineError {
    /// Steiner-tree construction failed.
    Rsmt(dgr_rsmt::RsmtError),
    /// DAG/pattern enumeration failed.
    Dag(dgr_dag::DagError),
    /// Grid-level failure.
    Grid(dgr_grid::GridError),
    /// Maze routing could not connect two pins (disconnected grid region).
    Unroutable {
        /// Index of the offending net.
        net: usize,
    },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Rsmt(e) => write!(f, "tree construction failed: {e}"),
            BaselineError::Dag(e) => write!(f, "pattern enumeration failed: {e}"),
            BaselineError::Grid(e) => write!(f, "grid operation failed: {e}"),
            BaselineError::Unroutable { net } => write!(f, "net {net} is unroutable"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Rsmt(e) => Some(e),
            BaselineError::Dag(e) => Some(e),
            BaselineError::Grid(e) => Some(e),
            BaselineError::Unroutable { .. } => None,
        }
    }
}

impl From<dgr_rsmt::RsmtError> for BaselineError {
    fn from(e: dgr_rsmt::RsmtError) -> Self {
        BaselineError::Rsmt(e)
    }
}

impl From<dgr_dag::DagError> for BaselineError {
    fn from(e: dgr_dag::DagError) -> Self {
        BaselineError::Dag(e)
    }
}

impl From<dgr_grid::GridError> for BaselineError {
    fn from(e: dgr_grid::GridError) -> Self {
        BaselineError::Grid(e)
    }
}
