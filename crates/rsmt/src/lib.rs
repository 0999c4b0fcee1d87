#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Rectilinear Steiner tree construction for the DGR global router.
//!
//! The DGR paper feeds FLUTE trees (plus CUGR2's congestion-refined
//! variants) into its DAG forest. FLUTE's lookup tables are not
//! redistributable, so this crate provides an equivalent tree source built
//! from first principles:
//!
//! * [`rmst`] — rectilinear minimum *spanning* tree (Prim, O(n²)),
//! * [`rsmt`] — rectilinear Steiner minimum tree: **exact** for small nets
//!   (Dreyfus–Wagner dynamic programming over the Hanan grid, optimal by
//!   Hanan's theorem) and a Steinerized-RMST heuristic for large nets,
//! * [`tree_candidates`] — a pool of topologically distinct tree candidates
//!   per net (base RSMT, spanning-tree topology, randomized and
//!   congestion-shifted variants), the raw material of the DAG forest.
//!
//! # Examples
//!
//! ```
//! use dgr_grid::Point;
//! use dgr_rsmt::rsmt;
//!
//! // The classic 4-pin cross: a Steiner point saves wirelength.
//! let pins = [
//!     Point::new(0, 1),
//!     Point::new(2, 0),
//!     Point::new(2, 2),
//!     Point::new(4, 1),
//! ];
//! let tree = rsmt(&pins)?;
//! assert!(tree.length() <= 6);
//! # Ok::<(), dgr_rsmt::RsmtError>(())
//! ```

pub mod candidates;
pub mod canon;
pub mod dreyfus_wagner;
pub mod hanan;
pub mod mst;
pub mod salt;
pub mod steinerize;
pub mod tree;

pub use candidates::{tree_candidates, tree_candidates_cached, CandidateConfig};
pub use canon::{canonical_key, RsmtCache};
pub use dreyfus_wagner::exact_steiner;
pub use mst::rmst;
pub use salt::shallow_light_tree;
pub use tree::RoutingTree;

/// Number of pins up to which [`rsmt`] computes an exact optimum.
///
/// Dreyfus–Wagner is exponential in the pin count — `O(3^k · n)` over the
/// `n ≤ k²` Hanan points, see [`dreyfus_wagner`]. Measured per net, k
/// distinct random pins on a 64×64 die (release build, one core of a
/// 2-core x86_64 host with AVX2, best of 25 alternated passes over 2 000
/// nets; `dreyfus_wagner`'s ignored `per_net_time_by_pin_count` test
/// times the two bodies; the last row is the variable-size planes this
/// replaced, alternated with both in one process on the same nets):
///
/// | k | 4 | 5 | 6 | 7 | 8 |
/// |---|---|---|---|---|---|
/// | µs per net, plain body | 2.1 | 4.2 | 7.8 | 15.8 | 35.8 |
/// | µs per net, AVX2 body | 1.6 | 2.8 | 4.1 | 7.0 | 12.3 |
/// | µs per net, variable-size planes (before) | 1.9 | 4.1 | 8.2 | 19.7 | 50.2 |
///
/// (The all-pairs grow step the variable-size planes replaced: 4.8 / 20 /
/// 75 / 264 / 858 µs, measured against their 1.8 / 3.5 / 7.0 / 17 / 43 µs
/// then.) Each further pin costs about 3×; raising the limit changes
/// which trees nets of 9+ pins get, so it is a quality decision, not a
/// speed one. It is also the padded plane's side:
/// the per-thread tables hold `2 · 2^(limit − 1)` planes of `limit²`
/// cells (64 KB at 8), so each pin added more than doubles them.
pub const EXACT_PIN_LIMIT: usize = 8;

/// Errors produced by Steiner tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmtError {
    /// A net with no pins has no tree.
    NoPins,
    /// The produced structure failed its internal validity check
    /// (diagnostic; indicates a bug rather than bad input).
    InvalidTree(String),
}

impl std::fmt::Display for RsmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsmtError::NoPins => write!(f, "net has no pins"),
            RsmtError::InvalidTree(why) => write!(f, "constructed tree is invalid: {why}"),
        }
    }
}

impl std::error::Error for RsmtError {}

/// Builds a rectilinear Steiner minimum tree over `pins`.
///
/// Duplicate pins are merged. 1-, 2-, and 3-pin nets take closed-form
/// fast paths (singleton, direct edge, median star) that skip the Hanan
/// grid entirely. Larger nets are reduced to their canonical pin
/// configuration ([`canon::canonical_key`]) and solved there — exactly
/// via [`exact_steiner`] up to [`EXACT_PIN_LIMIT`] distinct pins,
/// heuristically via [`steinerize::steinerized_rmst`] above — then mapped
/// back to real coordinates. Routing through canonical space keeps this
/// function bit-identical to the memoized
/// [`tree_candidates_cached`] path.
///
/// # Errors
///
/// Returns [`RsmtError::NoPins`] for an empty pin list.
///
/// # Examples
///
/// ```
/// use dgr_grid::Point;
/// let tree = dgr_rsmt::rsmt(&[Point::new(0, 0), Point::new(3, 4)])?;
/// assert_eq!(tree.length(), 7);
/// # Ok::<(), dgr_rsmt::RsmtError>(())
/// ```
pub fn rsmt(pins: &[dgr_grid::Point]) -> Result<RoutingTree, RsmtError> {
    let unique = tree::dedup_pins(pins);
    rsmt_unique(&unique, None)
}

/// [`rsmt`] over an already-deduplicated pin list, optionally memoized.
///
/// The single entry point both the cached and uncached candidate paths
/// share: any topology the cache returns is the topology the uncached
/// solve would have produced.
pub(crate) fn rsmt_unique(
    unique: &[dgr_grid::Point],
    cache: Option<&RsmtCache>,
) -> Result<RoutingTree, RsmtError> {
    match unique.len() {
        0 => Err(RsmtError::NoPins),
        1 => Ok(RoutingTree::singleton(unique[0])),
        2 => Ok(RoutingTree::from_parts(unique.to_vec(), 2, vec![(0, 1)])),
        3 => Ok(canon::median_star(unique)),
        _ => {
            let (key, map) = canon::canonical_key(unique);
            let template = match cache {
                Some(c) => c.template(&key, canon::solve_canonical),
                None => canon::solve_canonical(&key),
            };
            Ok(canon::instantiate(&template, &map, unique))
        }
    }
}
