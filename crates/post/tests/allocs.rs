//! Layer assignment allocates, per net, the segment list it returns and
//! nothing else: counted by a `#[global_allocator]`, which is why this
//! test has a process to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dgr_core::{DgrConfig, DgrRouter};
use dgr_io::{IspdLikeConfig, IspdLikeGenerator};
use dgr_post::{assign_layers, AssignConfig};

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

/// Allocations of one `assign_layers` over a design of `num_nets` nets on
/// nine layers, routed by one training iteration, and how many of the nets
/// have a segment.
#[allow(clippy::disallowed_methods)] // assignment measured on its own
fn assignment_allocations(num_nets: usize) -> (usize, usize) {
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 40,
        height: 40,
        num_nets,
        num_layers: 9,
        seed: 11,
        ..IspdLikeConfig::default()
    })
    .generate()
    .unwrap();
    let one_iteration = DgrConfig {
        iterations: 1,
        ..DgrConfig::default()
    };
    let solution = DgrRouter::new(one_iteration).route(&design).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let wired = assigned.nets.iter().filter(|n| !n.segments.is_empty());
    (made, wired.count())
}

#[test]
fn assignment_allocates_per_net_only_the_segments_it_returns() {
    let (of_small, wired_small) = assignment_allocations(1_000);
    let (of_large, wired_large) = assignment_allocations(2_000);
    assert!(wired_small > 900 && wired_large > 1_800);
    // beside one segment list per net: the per-layer demand and overflow
    // rasters, the net order, and the workspace's twenty-odd buffers
    // growing to the largest net — which comes first
    for (made, wired) in [(of_small, wired_small), (of_large, wired_large)] {
        assert!(
            (wired..wired + 150).contains(&made),
            "{made} allocations for {wired} nets with segments"
        );
    }
    let (more, nets) = (of_large - of_small, wired_large - wired_small);
    assert!(
        more <= nets + 30,
        "{more} more allocations for {nets} more nets"
    );
}
