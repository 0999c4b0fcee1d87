//! Property: the canonical Steiner-template cache never changes a
//! candidate pool.
//!
//! [`tree_candidates_cached`] must return pools identical — same trees,
//! same order, hence same topology fingerprints — to the uncached
//! [`tree_candidates`], both against a fresh cache (all misses) and a
//! warm one (template reinstantiated from a hit). This is the contract
//! that makes the cache a pure memoization: both paths solve in
//! canonical space, so a hit can only skip work, never alter topology.

// the cached path has no product caller; this is its contract
#![allow(clippy::disallowed_methods)]

use dgr_grid::Point;
use dgr_rsmt::{tree_candidates, tree_candidates_cached, CandidateConfig, RsmtCache};
use proptest::prelude::*;

fn arb_pins() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0..24i32, 0..24i32).prop_map(|(x, y)| Point::new(x, y)),
        1..=9,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_pools_match_uncached_generation(pins in arb_pins(), seed in 0u64..1 << 48) {
        let cfg = CandidateConfig { seed, ..CandidateConfig::default() };
        let uncached = tree_candidates(&pins, &cfg).unwrap();

        // Fresh cache: every template solve is a miss.
        let cache = RsmtCache::new();
        let cold = tree_candidates_cached(&pins, &cfg, &cache).unwrap();
        prop_assert_eq!(&cold, &uncached, "cold cache changed the pool");

        // Warm cache: the base RSMT now reinstantiates from a hit.
        let misses_after_cold = cache.misses();
        let warm = tree_candidates_cached(&pins, &cfg, &cache).unwrap();
        prop_assert_eq!(&warm, &uncached, "warm cache changed the pool");
        prop_assert_eq!(cache.misses(), misses_after_cold,
            "warm pass should not solve again");
        if pins.iter().collect::<std::collections::HashSet<_>>().len() >= 4 {
            prop_assert!(cache.hits() > 0, "warm 4+-pin pass must hit");
        }

        let fp_cached: Vec<_> = cold.iter().map(|t| t.fingerprint()).collect();
        let fp_plain: Vec<_> = uncached.iter().map(|t| t.fingerprint()).collect();
        prop_assert_eq!(fp_cached, fp_plain);
    }

    #[test]
    fn cache_shared_across_translated_nets_stays_exact(
        pins in arb_pins(), dx in 0..40i32, dy in 0..40i32,
    ) {
        // A translated copy of the net shares the canonical template; its
        // pool must equal independent generation from scratch.
        let cfg = CandidateConfig::default();
        let shifted: Vec<Point> = pins.iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect();
        let cache = RsmtCache::new();
        let _ = tree_candidates_cached(&pins, &cfg, &cache).unwrap();
        let via_cache = tree_candidates_cached(&shifted, &cfg, &cache).unwrap();
        let from_scratch = tree_candidates(&shifted, &cfg).unwrap();
        prop_assert_eq!(via_cache, from_scratch);
    }
}
