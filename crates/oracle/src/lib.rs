#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Differential-testing oracle for the DGR solver stack.
//!
//! Every algorithmically-interesting layer of the router has a second,
//! independently-implemented reference here, and a seeded fuzz loop that
//! cross-checks the two on small random instances:
//!
//! | check          | production code                       | reference                               |
//! |----------------|---------------------------------------|-----------------------------------------|
//! | `rsmt`         | `dgr_rsmt::exact_steiner` (DP)        | MSTs over bounded Hanan subsets         |
//! | `path_cost`    | the `dgr-autodiff` cost kernel        | f64 discrete replay of every selection  |
//! | `grad_check`   | the kernel's hand-derived backward    | f64 reverse pass of the f64 forward     |
//! | `demand_replay`| incremental `dgr_grid::DemandMap`     | from-scratch unit-step recount          |
//! | `layer_assign` | the `dgr-post` per-net DP             | exhaustive (root × segment-layer) scan  |
//!
//! Instances come from one seeded generator ([`gen`]) so every check —
//! and every `#[test]` elsewhere in the workspace that wants a random
//! design — draws from the same distribution. A failing case is shrunk
//! to a minimal reproducer and dumped as a JSON file that
//! `tests/oracle_replay.rs` replays as a regular test; see `DESIGN.md`
//! §7 for the workflow.
//!
//! Run the fuzz driver with `cargo run --bin oracle_fuzz -- --cases 200
//! --seed 42`.

pub mod brute;
pub mod checks;
pub mod fuzz;
pub mod gen;
pub mod json;
pub mod reference;

pub use checks::{run_case, Mismatch, EXEC_LOCK};
pub use fuzz::{case_seed, dump_case, load_case, run_fuzz, shrink_case, FuzzConfig, FuzzReport};
pub use gen::{case_rng, gen_design, CaseSpec, CheckKind};
pub use reference::{RefModel, Selection, ONE_HOT};

/// Tolerance policy, in one place (documented in DESIGN.md §7).
///
/// The production solver computes in f32; every reference here computes
/// in f64. Agreement bounds are therefore set by f32 round-off through
/// the kernel's phases, not by the references.
pub mod tol {
    /// Relative tolerance for scalar costs and demands: kernel f32 vs.
    /// reference f64, `|a − b| ≤ tol · max(1, |a|, |b|)`.
    pub const COST_REL: f64 = 1e-4;

    /// Relative tolerance for kernel gradients vs. the f64 reverse pass,
    /// on every coordinate.
    pub const GRAD_REL: f64 = 1e-4;

    /// Pure-f64 one-hot identity: relaxed cost at one-hot logits vs.
    /// discrete replay. Both sides are f64, so this is tight.
    pub const ONE_HOT_F64: f64 = 1e-9;

    /// `DemandMap::total` (f32 Eq. 2) vs. its f64 recomputation.
    pub const DEMAND_TOTAL_REL: f64 = 1e-5;

    /// Layer-assignment DP (f32 accumulation) vs. f64 exhaustive scan.
    pub const DP_REL: f64 = 1e-3;
}
