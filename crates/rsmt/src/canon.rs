//! Canonical pin configurations and the Steiner-template cache.
//!
//! The DGR paper leans on FLUTE, whose speed comes from memoization: real
//! netlists repeat a small number of pin *configurations* up to
//! translation and the 8 rectilinear symmetries, so each Steiner problem
//! is solved once per equivalence class and re-instantiated per net. Our
//! Dreyfus–Wagner DP is exponential in the pin count, which makes the
//! same trick proportionally more valuable.
//!
//! [`canonical_key`] reduces a distinct-pin set to its canonical
//! representative: for each of the 8 symmetries (axis swap × x-negation ×
//! y-negation) the pins are transformed, translated so the minima land on
//! the origin, and sorted (the sort erases pin permutation); the
//! lexicographically smallest of the 8 sorted lists is the key, and the
//! winning transform is remembered as a [`CanonMap`]. Two nets share a key
//! iff they are the same configuration up to translation, reflection,
//! rotation, and pin order.
//!
//! [`RsmtCache`] memoizes the canonical-space solve keyed by that list.
//! Crucially, the *uncached* [`crate::rsmt`] path routes through the same
//! canonicalize → solve → [`instantiate`] sequence, so cached and
//! uncached trees are identical down to tie-breaking — a cache hit can
//! never change a topology, only skip a DP run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dgr_grid::{Point, PointIndex};

use crate::tree::RoutingTree;
use crate::EXACT_PIN_LIMIT;

/// The symmetry + translation that maps a real pin set onto its canonical
/// form (and back).
///
/// Forward: swap axes (optional), negate axes (optional), then translate
/// by `(-tx, -ty)`. [`CanonMap::inverse`] undoes the three steps in
/// reverse order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonMap {
    swap: bool,
    negx: bool,
    negy: bool,
    tx: i32,
    ty: i32,
}

impl CanonMap {
    #[inline]
    fn transform(&self, p: Point) -> (i32, i32) {
        let (mut a, mut b) = if self.swap { (p.y, p.x) } else { (p.x, p.y) };
        if self.negx {
            a = -a;
        }
        if self.negy {
            b = -b;
        }
        (a, b)
    }

    /// Maps a real-coordinate point into canonical space.
    #[inline]
    pub fn forward(&self, p: Point) -> Point {
        let (a, b) = self.transform(p);
        Point::new(a - self.tx, b - self.ty)
    }

    /// Maps a canonical-space point back to real coordinates.
    #[inline]
    pub fn inverse(&self, p: Point) -> Point {
        let (mut a, mut b) = (p.x + self.tx, p.y + self.ty);
        if self.negx {
            a = -a;
        }
        if self.negy {
            b = -b;
        }
        if self.swap {
            Point::new(b, a)
        } else {
            Point::new(a, b)
        }
    }
}

/// Reduces a set of *distinct* pins to its canonical representative.
///
/// Returns the canonical pin list (sorted, translated to the origin,
/// lexicographically smallest over the 8 rectilinear symmetries) and the
/// [`CanonMap`] that realizes it. Ties between symmetries are broken by a
/// fixed symmetry order, so the result is deterministic.
pub fn canonical_key(unique: &[Point]) -> (Vec<Point>, CanonMap) {
    debug_assert!(!unique.is_empty());
    let mut best: Option<(Vec<Point>, CanonMap)> = None;
    let mut scratch: Vec<Point> = Vec::with_capacity(unique.len());
    for sym in 0..8u8 {
        let mut map = CanonMap {
            swap: sym & 1 != 0,
            negx: sym & 2 != 0,
            negy: sym & 4 != 0,
            tx: 0,
            ty: 0,
        };
        scratch.clear();
        scratch.extend(unique.iter().map(|&p| {
            let (a, b) = map.transform(p);
            Point::new(a, b)
        }));
        map.tx = scratch.iter().map(|p| p.x).min().unwrap();
        map.ty = scratch.iter().map(|p| p.y).min().unwrap();
        for p in &mut scratch {
            *p = Point::new(p.x - map.tx, p.y - map.ty);
        }
        scratch.sort_unstable();
        if best.as_ref().is_none_or(|(key, _)| scratch < *key) {
            best = Some((scratch.clone(), map));
        }
    }
    best.unwrap()
}

/// Solves the Steiner problem on a canonical pin list: exact
/// Dreyfus–Wagner up to [`EXACT_PIN_LIMIT`] pins, Steinerized RMST above.
///
/// Every tree [`crate::rsmt`] returns for ≥ 4 pins is this solve on the
/// canonical key, mapped back through [`instantiate`] — which is what
/// makes memoizing it sound.
pub fn solve_canonical(key: &[Point]) -> RoutingTree {
    if key.len() <= EXACT_PIN_LIMIT {
        crate::dreyfus_wagner::exact_steiner(key)
    } else {
        crate::steinerize::steinerized_rmst(key)
    }
}

/// Re-instantiates a canonical-space template over the real pins.
///
/// `pins` must be the distinct pin set whose [`canonical_key`] produced
/// `map` and (via [`solve_canonical`]) `template`. Pin nodes are emitted
/// in the caller's pin order; Steiner points follow.
pub fn instantiate(template: &RoutingTree, map: &CanonMap, pins: &[Point]) -> RoutingTree {
    let pin_index = PointIndex::from_distinct(pins.to_vec());
    let (template_pins, template_steiner) = template.nodes().split_at(template.num_pins());
    let mut remap: Vec<u32> = Vec::with_capacity(template.nodes().len());
    remap.extend(template_pins.iter().map(|&cp| {
        pin_index
            .get(map.inverse(cp))
            .expect("template pin maps onto a real pin")
    }));
    let mut nodes = pin_index.into_points();
    for &cp in template_steiner {
        remap.push(nodes.len() as u32);
        nodes.push(map.inverse(cp));
    }
    let edges = template
        .edges()
        .iter()
        .map(|&(a, b)| (remap[a as usize], remap[b as usize]))
        .collect();
    RoutingTree::from_parts(nodes, pins.len(), edges)
}

/// The optimal 3-terminal tree: a star through the component-wise median.
///
/// Classic result — for three terminals the L1 Steiner minimum is the
/// median point, and the length is `span_x + span_y`. Skips the Hanan
/// grid and the DP entirely.
pub(crate) fn median_star(pins: &[Point]) -> RoutingTree {
    debug_assert_eq!(pins.len(), 3);
    let s = crate::steinerize::median3(pins[0], pins[1], pins[2]);
    let mut nodes = pins.to_vec();
    nodes.push(s);
    // from_parts merges s into a pin when the median coincides with one.
    RoutingTree::from_parts(nodes, 3, vec![(0, 3), (1, 3), (2, 3)])
}

/// Number of independently locked cache shards (a power of two).
const SHARDS: usize = 16;

/// A sharded, thread-safe memo table for canonical Steiner templates.
///
/// Keys are canonical pin lists from [`canonical_key`]; values are the
/// [`solve_canonical`] trees. Shared by reference across the candidate
/// fan-out threads; hit/miss totals are kept locally (always) and
/// mirrored into the `dgr-obs` counters `rsmt.cache.hits` /
/// `rsmt.cache.misses` (when observability is enabled).
///
/// Under a race two threads may both miss the same fresh key; the solve
/// is deterministic so both compute the identical template and the first
/// insert wins — correctness is unaffected, the miss counter may simply
/// over-count by the number of racing threads.
pub struct RsmtCache {
    shards: Vec<Mutex<HashMap<Vec<Point>, RoutingTree>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for RsmtCache {
    fn default() -> Self {
        RsmtCache::new()
    }
}

impl RsmtCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RsmtCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(key: &[Point]) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }

    /// Returns the template for `key`, solving and inserting on a miss.
    ///
    /// The solve runs outside the shard lock so concurrent lookups of
    /// other keys are never blocked on a DP run.
    pub fn template(
        &self,
        key: &[Point],
        solve: impl FnOnce(&[Point]) -> RoutingTree,
    ) -> RoutingTree {
        let shard = &self.shards[Self::shard_of(key)];
        if let Some(t) = shard.lock().unwrap().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            dgr_obs::counter("rsmt.cache.hits").add(1);
            return t.clone();
        }
        let t = solve(key);
        self.misses.fetch_add(1, Ordering::Relaxed);
        dgr_obs::counter("rsmt.cache.misses").add(1);
        shard
            .lock()
            .unwrap()
            .entry(key.to_vec())
            .or_insert(t)
            .clone()
    }

    /// Total cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total cache misses (= canonical classes solved, modulo races).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct canonical classes currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache holds no templates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(i32, i32)]) -> Vec<Point> {
        raw.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn forward_inverse_round_trip() {
        let pins = pts(&[(3, -7), (12, 5), (-4, 9), (0, 0)]);
        let (key, map) = canonical_key(&pins);
        let mut mapped: Vec<Point> = pins.iter().map(|&p| map.forward(p)).collect();
        mapped.sort_unstable();
        assert_eq!(mapped, key);
        for &p in &pins {
            assert_eq!(map.inverse(map.forward(p)), p);
        }
    }

    #[test]
    fn key_starts_at_origin() {
        let pins = pts(&[(100, 40), (103, 47), (108, 41)]);
        let (key, _) = canonical_key(&pins);
        assert_eq!(key.iter().map(|p| p.x).min(), Some(0));
        assert_eq!(key.iter().map(|p| p.y).min(), Some(0));
    }

    #[test]
    fn symmetric_configurations_share_a_key() {
        let base = pts(&[(0, 0), (5, 1), (2, 4), (7, 3)]);
        // translation
        let shifted: Vec<Point> = base.iter().map(|p| Point::new(p.x + 40, p.y - 9)).collect();
        // x mirror
        let mirrored: Vec<Point> = base.iter().map(|p| Point::new(-p.x, p.y)).collect();
        // axis swap (transpose)
        let swapped: Vec<Point> = base.iter().map(|p| Point::new(p.y, p.x)).collect();
        // pin permutation
        let mut permuted = base.clone();
        permuted.rotate_left(2);
        let (key, _) = canonical_key(&base);
        for variant in [&shifted, &mirrored, &swapped, &permuted] {
            assert_eq!(canonical_key(variant).0, key);
        }
    }

    #[test]
    fn distinct_configurations_get_distinct_keys() {
        let a = pts(&[(0, 0), (4, 0), (0, 4), (4, 4)]);
        let b = pts(&[(0, 0), (4, 0), (0, 4), (5, 5)]);
        assert_ne!(canonical_key(&a).0, canonical_key(&b).0);
    }

    #[test]
    fn instantiated_template_matches_direct_solve_length() {
        let pins = pts(&[(7, 2), (1, 9), (4, 4), (9, 8), (2, 1)]);
        let (key, map) = canonical_key(&pins);
        let tree = instantiate(&solve_canonical(&key), &map, &pins);
        tree.validate().unwrap();
        // Lengths are invariant under the symmetry group.
        assert_eq!(tree.length(), crate::exact_steiner(&pins).length());
        for p in &pins {
            assert!(tree.nodes().contains(p));
        }
    }

    /// [`instantiate`] as it was, finding pins through a hash map.
    fn hashed_instantiate(template: &RoutingTree, map: &CanonMap, pins: &[Point]) -> RoutingTree {
        let pin_index: HashMap<Point, u32> = pins
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u32))
            .collect();
        let num_pins = template.num_pins();
        let mut nodes: Vec<Point> = pins.to_vec();
        let mut remap: Vec<u32> = Vec::with_capacity(template.nodes().len());
        for (i, &cp) in template.nodes().iter().enumerate() {
            let rp = map.inverse(cp);
            if i < num_pins {
                remap.push(
                    *pin_index
                        .get(&rp)
                        .expect("template pin maps onto a real pin"),
                );
            } else {
                remap.push(nodes.len() as u32);
                nodes.push(rp);
            }
        }
        let edges = template
            .edges()
            .iter()
            .map(|&(a, b)| (remap[a as usize], remap[b as usize]))
            .collect();
        RoutingTree::from_parts(nodes, pins.len(), edges)
    }

    /// The 5 000-net corpus of the Dreyfus–Wagner sweep test through the
    /// canonical solve: `instantiate` numbers nodes as its hash-map
    /// spelling did.
    #[test]
    fn instantiate_equals_its_hashed_spelling_on_random_nets() {
        for (case, pins) in crate::dreyfus_wagner::tests::random_nets().enumerate() {
            let unique = crate::tree::dedup_pins(&pins);
            let (key, map) = canonical_key(&unique);
            let template = solve_canonical(&key);
            assert_eq!(
                instantiate(&template, &map, &unique),
                hashed_instantiate(&template, &map, &unique),
                "case {case}: {pins:?}"
            );
        }
    }

    #[test]
    fn instantiate_finds_pins_on_both_sides_of_the_scan_bound() {
        for n in [
            PointIndex::SCAN_MAX as i32,
            PointIndex::SCAN_MAX as i32 + 1,
            150,
        ] {
            let pins: Vec<Point> = (0..n)
                .map(|i| Point::new((i * 37) % 151, (i * 11) % 149))
                .collect();
            let (key, map) = canonical_key(&pins);
            let template = solve_canonical(&key);
            let tree = instantiate(&template, &map, &pins);
            tree.validate().unwrap();
            assert_eq!(tree, hashed_instantiate(&template, &map, &pins), "{n} pins");
        }
    }

    #[test]
    fn median_star_is_optimal_for_three_pins() {
        let pins = pts(&[(0, 0), (6, 2), (3, 8)]);
        let t = median_star(&pins);
        t.validate().unwrap();
        assert_eq!(t.length(), 6 + 8); // span_x + span_y
        assert_eq!(t.length(), crate::exact_steiner(&pins).length());
    }

    #[test]
    fn median_star_collapses_onto_a_pin() {
        // median == middle pin: no Steiner point survives normalization
        let pins = pts(&[(0, 0), (2, 2), (5, 5)]);
        let t = median_star(&pins);
        t.validate().unwrap();
        assert!(t.steiner_points().is_empty());
        assert_eq!(t.length(), 10);
    }

    #[test]
    fn cache_hits_symmetric_variants() {
        let cache = RsmtCache::new();
        let a = pts(&[(0, 0), (5, 1), (2, 4), (7, 3)]);
        let b: Vec<Point> = a.iter().map(|p| Point::new(p.y + 11, p.x - 3)).collect();
        let (ka, _) = canonical_key(&a);
        let (kb, _) = canonical_key(&b);
        assert_eq!(ka, kb);
        cache.template(&ka, solve_canonical);
        cache.template(&kb, solve_canonical);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }
}
