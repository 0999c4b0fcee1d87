//! Routing-tree candidate pools.
//!
//! A net's entry in the DAG forest is a *set* of topologically distinct
//! routing trees (Fig. 2 of the paper). The paper seeds the pool with the
//! FLUTE tree and CUGR2's congestion-refined variant and notes any tree
//! source can contribute. Our pool is:
//!
//! 1. the (exact or Steinerized) RSMT — the wirelength-optimal topology,
//! 2. the plain rectilinear MST — a Steiner-free alternative whose
//!    sub-nets take different corridors,
//! 3. Steiner-shift variants — every Steiner point jittered within the
//!    net's bounding box (the CUGR2 "move Steiner points" refinement,
//!    randomized instead of congestion-driven because candidates are built
//!    *before* congestion is known; the differentiable solver then picks
//!    per congestion).
//!
//! Candidates are deduplicated by topology fingerprint, so the pool size
//! is an upper bound, not a guarantee.

use dgr_grid::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::canon::RsmtCache;
use crate::tree::{dedup_pins, RoutingTree};
use crate::RsmtError;

/// Maximum Steiner-point jitter distance per axis of a Steiner-shift
/// variant, in g-cells.
pub const SHIFT_RADIUS: i32 = 2;

/// Configuration for [`tree_candidates`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateConfig {
    /// Upper bound on the number of candidates per net.
    pub max_candidates: usize,
    /// RNG seed for the Steiner-shift variants.
    pub seed: u64,
    /// Optional clamp rectangle (normally the grid bounds) for shifted
    /// Steiner points.
    pub clamp: Option<Rect>,
    /// When `Some(ε)`, a [SALT-style shallow-light
    /// tree](crate::salt::shallow_light_tree) with that bound joins the
    /// pool — the alternative tree source the paper names.
    pub shallow_light: Option<f64>,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_candidates: 3,
            seed: 0xD6_E5_A1,
            clamp: None,
            shallow_light: None,
        }
    }
}

impl CandidateConfig {
    /// A config producing exactly one candidate (the plain RSMT) — used by
    /// experiments that isolate path selection from topology selection.
    pub fn single() -> Self {
        CandidateConfig {
            max_candidates: 1,
            ..CandidateConfig::default()
        }
    }
}

/// Builds a deduplicated pool of routing-tree candidates for one net.
///
/// The first candidate is always the RSMT. Every returned tree spans the
/// same deduplicated pin set and passes [`RoutingTree::validate`].
///
/// # Errors
///
/// Returns [`RsmtError::NoPins`] for an empty pin list.
///
/// # Examples
///
/// ```
/// use dgr_grid::Point;
/// use dgr_rsmt::{tree_candidates, CandidateConfig};
///
/// let pins = [
///     Point::new(0, 0),
///     Point::new(6, 1),
///     Point::new(3, 5),
///     Point::new(1, 4),
/// ];
/// let pool = tree_candidates(&pins, &CandidateConfig::default())?;
/// assert!(!pool.is_empty() && pool.len() <= 3);
/// # Ok::<(), dgr_rsmt::RsmtError>(())
/// ```
pub fn tree_candidates(
    pins: &[Point],
    cfg: &CandidateConfig,
) -> Result<Vec<RoutingTree>, RsmtError> {
    tree_candidates_impl(pins, cfg, None)
}

/// [`tree_candidates`] with a shared Steiner-template cache.
///
/// The base RSMT — the expensive Dreyfus–Wagner solve — is memoized per
/// canonical pin configuration in `cache` (see [`crate::canon`]); the
/// spanning-tree, shallow-light, and Steiner-shift variants are cheap and
/// built per net as usual. The returned pool is **identical** to the
/// uncached [`tree_candidates`] pool for the same inputs, because both
/// paths solve in canonical space; the cache only skips repeated work.
/// Hit/miss totals accumulate on `cache` and in the `dgr-obs` counters
/// `rsmt.cache.hits` / `rsmt.cache.misses`.
///
/// # Errors
///
/// Returns [`RsmtError::NoPins`] for an empty pin list.
pub fn tree_candidates_cached(
    pins: &[Point],
    cfg: &CandidateConfig,
    cache: &RsmtCache,
) -> Result<Vec<RoutingTree>, RsmtError> {
    tree_candidates_impl(pins, cfg, Some(cache))
}

fn tree_candidates_impl(
    pins: &[Point],
    cfg: &CandidateConfig,
    cache: Option<&RsmtCache>,
) -> Result<Vec<RoutingTree>, RsmtError> {
    let unique = dedup_pins(pins);
    if unique.is_empty() {
        return Err(RsmtError::NoPins);
    }
    let base = crate::rsmt_unique(&unique, cache)?;
    let mut pool = vec![base.clone()];
    let mut fingerprints = vec![base.fingerprint()];
    let mut push = |tree: RoutingTree, pool: &mut Vec<RoutingTree>| {
        if pool.len() >= cfg.max_candidates {
            return;
        }
        if tree.validate().is_err() {
            return;
        }
        let fp = tree.fingerprint();
        if !fingerprints.contains(&fp) {
            fingerprints.push(fp);
            pool.push(tree);
        }
    };

    if unique.len() >= 3 {
        push(crate::mst::rmst(&unique), &mut pool);
    }

    if let Some(epsilon) = cfg.shallow_light {
        if unique.len() >= 3 {
            if let Ok(tree) = crate::salt::shallow_light_tree(&unique, epsilon) {
                push(tree, &mut pool);
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ hash_pins(&unique));
    // Try a few jitters; stop when the pool is full or attempts run out.
    for _ in 0..cfg.max_candidates.saturating_mul(4) {
        if pool.len() >= cfg.max_candidates || base.steiner_points().is_empty() {
            break;
        }
        if let Some(shifted) = shift_variant(&base, &mut rng, cfg) {
            push(shifted, &mut pool);
        }
    }
    Ok(pool)
}

/// Jitters every Steiner point of `tree` by up to [`SHIFT_RADIUS`] per axis,
/// clamped to `cfg.clamp` and the net bounding box. Returns `None` when
/// the jitter is a no-op.
fn shift_variant(
    tree: &RoutingTree,
    rng: &mut StdRng,
    cfg: &CandidateConfig,
) -> Option<RoutingTree> {
    let pins: Vec<Point> = tree.nodes()[..tree.num_pins()].to_vec();
    let bbox = Rect::bounding(&pins);
    let clamp = match cfg.clamp {
        Some(c) => Rect::new(
            Point::new(c.lo.x.max(bbox.lo.x), c.lo.y.max(bbox.lo.y)),
            Point::new(c.hi.x.min(bbox.hi.x), c.hi.y.min(bbox.hi.y)),
        ),
        None => bbox,
    };
    let mut nodes = tree.nodes().to_vec();
    let mut changed = false;
    for node in nodes.iter_mut().skip(tree.num_pins()) {
        let dx = rng.gen_range(-SHIFT_RADIUS..=SHIFT_RADIUS);
        let dy = rng.gen_range(-SHIFT_RADIUS..=SHIFT_RADIUS);
        let shifted = Point::new(
            (node.x + dx).clamp(clamp.lo.x, clamp.hi.x),
            (node.y + dy).clamp(clamp.lo.y, clamp.hi.y),
        );
        if shifted != *node {
            *node = shifted;
            changed = true;
        }
    }
    if !changed {
        return None;
    }
    Some(RoutingTree::from_parts(
        nodes,
        tree.num_pins(),
        tree.edges().to_vec(),
    ))
}

/// The seed a pin set adds to its Steiner-shift variants' RNG.
fn hash_pins(pins: &[Point]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = SipHasher13::new();
    pins.hash(&mut h);
    h.finish()
}

/// SipHash-1-3 with both keys zero: what `DefaultHasher::new()` computes
/// today, kept here because the standard library leaves that hasher's
/// algorithm unspecified across releases, and a toolchain bump must not
/// move a seed, and so every candidate pool and guide.
struct SipHasher13 {
    v: [u64; 4],
    /// The bytes of the word being filled, little-endian.
    tail: u64,
    /// Bytes written so far.
    len: usize,
}

impl SipHasher13 {
    fn new() -> Self {
        SipHasher13 {
            // "somepseudorandomlygeneratedbytes" xor the zero keys
            v: [
                0x736f6d6570736575,
                0x646f72616e646f6d,
                0x6c7967656e657261,
                0x7465646279746573,
            ],
            tail: 0,
            len: 0,
        }
    }

    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }

    /// One compression of the word `m`.
    fn compress(v: &mut [u64; 4], m: u64) {
        v[3] ^= m;
        Self::round(v);
        v[0] ^= m;
    }
}

impl std::hash::Hasher for SipHasher13 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.tail |= u64::from(b) << (8 * (self.len % 8));
            self.len += 1;
            if self.len.is_multiple_of(8) {
                Self::compress(&mut self.v, self.tail);
                self.tail = 0;
            }
        }
    }

    fn finish(&self) -> u64 {
        let mut v = self.v;
        Self::compress(&mut v, (self.len as u64) << 56 | self.tail);
        v[2] ^= 0xff;
        for _ in 0..3 {
            Self::round(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `hash_pins` as `DefaultHasher::new()` computed it when it was
    /// replaced: the shift seeds of every committed guide.
    #[test]
    fn hash_pins_keeps_its_values() {
        let golden: [(&[(i32, i32)], u64); 5] = [
            (&[], 0xbd60acb658c79e45),
            (&[(0, 0)], 0x8934f5f0a51fbffa),
            (
                &[(0, 0), (8, 1), (4, 7), (1, 5), (6, 4)],
                0x51a8edb6e7d5e30b,
            ),
            (&[(-3, 7), (12, -40), (29_999, 0)], 0xd78c35d1dbde4ae2),
            (
                &[
                    (0, 0),
                    (7, 1),
                    (14, 4),
                    (21, 9),
                    (5, 16),
                    (12, 25),
                    (19, 5),
                    (3, 18),
                    (10, 2),
                    (17, 19),
                    (1, 7),
                    (8, 28),
                ],
                0x400023ad3e204178,
            ),
        ];
        for (pins, hash) in golden {
            let pins: Vec<Point> = pins.iter().map(|&(x, y)| Point::new(x, y)).collect();
            assert_eq!(hash_pins(&pins), hash, "{pins:?}");
        }
    }

    fn pins() -> Vec<Point> {
        vec![
            Point::new(0, 0),
            Point::new(8, 1),
            Point::new(4, 7),
            Point::new(1, 5),
            Point::new(6, 4),
        ]
    }

    #[test]
    fn first_candidate_is_the_rsmt() {
        let pool = tree_candidates(&pins(), &CandidateConfig::default()).unwrap();
        let base = crate::rsmt(&pins()).unwrap();
        assert_eq!(pool[0].fingerprint(), base.fingerprint());
    }

    #[test]
    fn pool_respects_max_candidates() {
        let cfg = CandidateConfig {
            max_candidates: 2,
            ..CandidateConfig::default()
        };
        let pool = tree_candidates(&pins(), &cfg).unwrap();
        assert!(pool.len() <= 2);
    }

    #[test]
    fn single_config_yields_one_tree() {
        let pool = tree_candidates(&pins(), &CandidateConfig::single()).unwrap();
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn all_candidates_are_valid_and_span_pins() {
        let pool = tree_candidates(&pins(), &CandidateConfig::default()).unwrap();
        let unique = dedup_pins(&pins());
        for tree in &pool {
            tree.validate().unwrap();
            for p in &unique {
                assert!(tree.nodes().contains(p));
            }
        }
    }

    #[test]
    fn candidates_are_topologically_distinct() {
        let pool = tree_candidates(&pins(), &CandidateConfig::default()).unwrap();
        for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                assert_ne!(pool[i].fingerprint(), pool[j].fingerprint());
            }
        }
    }

    #[test]
    fn two_pin_net_has_exactly_one_candidate() {
        let pool = tree_candidates(
            &[Point::new(0, 0), Point::new(5, 5)],
            &CandidateConfig::default(),
        )
        .unwrap();
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn empty_net_errors() {
        assert!(matches!(
            tree_candidates(&[], &CandidateConfig::default()),
            Err(RsmtError::NoPins)
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = tree_candidates(&pins(), &CandidateConfig::default()).unwrap();
        let b = tree_candidates(&pins(), &CandidateConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn clamp_keeps_steiner_points_inside() {
        let clamp = Rect::new(Point::new(0, 0), Point::new(8, 7));
        let cfg = CandidateConfig {
            clamp: Some(clamp),
            max_candidates: 4,
            ..CandidateConfig::default()
        };
        let pool = tree_candidates(&pins(), &cfg).unwrap();
        for tree in &pool {
            for s in tree.steiner_points() {
                assert!(clamp.contains(*s), "steiner {s} escaped clamp");
            }
        }
    }
}
