#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! The differentiable substrate of the router: the expected cost of
//! Eqs. 9–12 and its gradient.
//!
//! The DGR paper implements its differentiable solver in PyTorch and runs
//! it on a GPU. Mature GPU autodiff does not exist in the offline Rust
//! ecosystem, and the expected cost is one fixed chain — group softmax →
//! joint mass → demand → activation — so instead of a general op tape
//! this crate provides that chain as **one fused kernel with a
//! hand-derived backward pass**:
//!
//! * [`CostModel`] — the kernel: [`CostModel::forward`],
//!   [`CostModel::backward`], and the noise-free
//!   [`CostModel::probabilities`] the discrete read-out needs (see
//!   [`cost`] for the phases and the determinism contract),
//! * [`Activation`] — ReLU / sigmoid / LeakyReLU / exp / CELU, the Fig. 6
//!   overflow-cost family,
//! * [`Adam`] — the optimizer used by the paper,
//! * [`gumbel::fill_gumbel`] — Gumbel(0, 1) noise for the stochastic
//!   softmax,
//! * [`parallel`] — the [`parallel::Helper`] a training run engages to
//!   take the next iteration's noise draw and one of the kernel's two
//!   lanes off the calling thread, and the route pipeline's index-pure
//!   fan-outs hand their upper half to.

pub mod activation;
pub mod adam;
pub mod cost;
pub mod gumbel;
pub mod kernels;
pub mod parallel;
pub mod segments;

pub use activation::Activation;
pub use adam::Adam;
pub use cost::{CostModel, CostShape, CostTerms};
pub use segments::Segments;

/// Errors produced while assembling a [`CostModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutodiffError {
    /// CSR segment offsets were empty, non-monotone, or did not start at 0.
    BadSegments(String),
    /// Two operands had incompatible lengths.
    ShapeMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// An index table referenced an element outside its target.
    IndexOutOfRange {
        /// The offending index value.
        index: u32,
        /// Length of the indexed buffer.
        len: usize,
    },
    /// A run's end cells were not the two ends of a non-empty straight
    /// segment.
    BadRun {
        /// The lower end cell.
        low: u32,
        /// The higher end cell.
        high: u32,
    },
}

impl std::fmt::Display for AutodiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutodiffError::BadSegments(why) => write!(f, "invalid segment offsets: {why}"),
            AutodiffError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left} vs {right}")
            }
            AutodiffError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            AutodiffError::BadRun { low, high } => {
                write!(f, "cells {low} and {high} do not bound a straight run")
            }
        }
    }
}

impl std::error::Error for AutodiffError {}
