//! The forest build allocates for its arenas and for nothing per net:
//! counted by a `#[global_allocator]`, which is why this test has a
//! process to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dgr_dag::{build_forest, PatternConfig};
use dgr_grid::{GcellGrid, Point};
use dgr_rsmt::{tree_candidates, CandidateConfig, RoutingTree};

/// Counts every allocation and reallocation, on any thread.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, whose contract is
// the one asked of this impl; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn pools(n: i32) -> Vec<Vec<RoutingTree>> {
    (0..n)
        .map(|i| {
            let pins = [
                Point::new(i % 37, (i * 3) % 41),
                Point::new((i * 7 + 2) % 43, (i * 5 + 1) % 47),
                Point::new((i * 11 + 4) % 31, (i * 13 + 6) % 29),
                Point::new((i * 17 + 8) % 47, (i * 19 + 9) % 43),
            ];
            tree_candidates(&pins, &CandidateConfig::default()).unwrap()
        })
        .collect()
}

#[test]
fn forest_build_allocations_do_not_grow_with_the_net_count() {
    let grid = GcellGrid::new(48, 48).unwrap();
    let (small, large) = (pools(2_000), pools(4_000));
    let count = |pools: &[Vec<RoutingTree>], threads: usize| {
        dgr_autodiff::parallel::set_num_threads(threads);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let forest = build_forest(&grid, pools, PatternConfig::with_z(4)).unwrap();
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        dgr_autodiff::parallel::set_num_threads(0);
        assert!(forest.num_paths() > 10 * pools.len());
        made
    };
    // one range, and two halves appended (both sizes are above
    // `NET_PAR_MIN`)
    for threads in [1, 2] {
        let (of_small, of_large) = (count(&small, threads), count(&large, threads));
        // sixteen arenas per range, each doubling some twenty times, and
        // what a helper thread costs: far below one allocation per net
        assert!(
            of_small < 700,
            "{of_small} allocations for 2 000 nets on {threads} threads"
        );
        // twice the nets is one more doubling of each arena
        assert!(
            of_large <= of_small + 64,
            "{of_small} allocations for 2 000 nets, {of_large} for 4 000, on {threads} threads"
        );
    }
}
