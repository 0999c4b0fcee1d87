//! Determinism properties of the cost kernel and the worker pool.
//!
//! Contract under test (see the `cost` and `parallel` module docs):
//! * the kernel's loss and gradients are **bit-identical at any thread
//!   count** — it fixes every reduction order by its index structure;
//! * the pool's pure maps are bit-identical at any thread count and on
//!   both sides of the `PAR_THRESHOLD` sequential/parallel boundary;
//! * its counters lose no increment under concurrency.

use std::sync::Mutex;

use dgr_autodiff::parallel::{self, par_map_mut, PAR_THRESHOLD};
use dgr_autodiff::{Activation, CostModel, CostShape, CostTerms};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `set_num_threads` is process-global; tests that touch it serialize.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// A random DGR-shaped problem — `subnets` two-pin sub-nets with both
/// L-shapes each, three sub-nets to a tree, two trees to a net, on a
/// `side × side` grid — run for one noisy forward + backward pass at the
/// given thread count. Returns the loss and the gradient bits.
fn run_once(subnets: usize, side: usize, seed: u64, threads: usize) -> (u32, Vec<u32>) {
    parallel::set_num_threads(threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let cell = |x: usize, y: usize| (y * side + x) as u32;
    let trees = subnets.div_ceil(3);
    let mut runs = Vec::new();
    let mut vias = Vec::new();
    for _ in 0..subnets {
        let (ax, bx) = (rng.gen_range(0..side / 2), rng.gen_range(side / 2..side));
        let (ay, by) = (rng.gen_range(0..side / 2), rng.gen_range(side / 2..side));
        // along a's row then up b's column; up a's column then along b's row
        runs.extend([(cell(ax, ay), cell(bx, ay)), (cell(bx, ay), cell(bx, by))]);
        runs.extend([(cell(ax, ay), cell(ax, by)), (cell(ax, by), cell(bx, by))]);
        vias.extend([cell(bx, ay), cell(ax, by)]);
    }
    let paths = 2 * subnets;
    let shape = CostShape {
        width: side,
        height: side,
        net_tree_offsets: &(0..=trees.div_ceil(2))
            .map(|n| (2 * n).min(trees) as u32)
            .collect::<Vec<_>>(),
        subnet_tree: &(0..subnets).map(|s| (s / 3) as u32).collect::<Vec<_>>(),
        subnet_path_offsets: &(0..=subnets).map(|s| 2 * s as u32).collect::<Vec<_>>(),
        path_wl: &vec![side as f32; paths],
        path_turns: &vec![1.0; paths],
        path_run_offsets: &(0..=paths).map(|i| 2 * i as u32).collect::<Vec<_>>(),
        path_runs: &runs,
        path_via_offsets: &(0..=paths as u32).collect::<Vec<_>>(),
        path_via_cells: &vias,
        capacity: &vec![subnets as f32 / side as f32; 2 * side * (side - 1)],
        beta: &vec![0.5; side * side],
    };
    let terms = CostTerms {
        wirelength: 0.5,
        via: 4.0,
        overflow: 500.0,
        sqrt_layers: 3.0,
        activation: Activation::Sigmoid,
        overflow_scale: 1.0,
    };
    let logits = (0..trees + paths)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    let mut model = CostModel::new(&shape, terms, logits).expect("a well-formed problem");
    model.sample_noise(&mut rng);
    model.forward();
    model.backward();
    let grads = model.tree_grad().iter().chain(model.path_grad());
    let out = (model.loss().to_bits(), grads.map(|g| g.to_bits()).collect());
    parallel::set_num_threads(0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sizes straddle `PAR_THRESHOLD` path entries, the size at which a
    /// pooled reduction would start to chunk by thread count.
    #[test]
    fn kernel_is_bit_identical_at_any_thread_count(
        subnets in 2_000usize..40_000,
        side in 8usize..64,
        seed in 0u64..10_000,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let one = run_once(subnets, side, seed, 1);
        prop_assert!(f32::from_bits(one.0).is_finite());
        for threads in [2, 8] {
            prop_assert_eq!(&run_once(subnets, side, seed, threads), &one);
        }
    }
}

/// Counters incremented concurrently from pool worker threads must sum
/// exactly (relaxed `fetch_add` loses nothing), and the pool's own
/// dispatch metrics must stay consistent: every dispatched job is claimed
/// as at least one chunk.
#[test]
fn pool_counter_increments_sum_exactly() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let len = PAR_THRESHOLD * 4;
    let touched = dgr_obs::counter("test.pool_touched");
    parallel::set_num_threads(4);
    dgr_obs::set_enabled(true);
    let before_jobs = dgr_obs::counter("pool.jobs_dispatched").get();
    let before_chunks = dgr_obs::counter("pool.chunks_claimed").get();
    let base = touched.get();
    let rounds = 8usize;
    let mut buf = vec![0.0f32; len];
    for _ in 0..rounds {
        par_map_mut(&mut buf, |i, v| {
            touched.add(1);
            *v = i as f32;
        });
    }
    dgr_obs::set_enabled(false);
    parallel::set_num_threads(0);
    assert_eq!(
        touched.get() - base,
        (rounds * len) as u64,
        "lost counter increments under concurrency"
    );
    let jobs = dgr_obs::counter("pool.jobs_dispatched").get() - before_jobs;
    let chunks = dgr_obs::counter("pool.chunks_claimed").get() - before_chunks;
    assert_eq!(jobs, rounds as u64, "one dispatched job per par_map_mut");
    assert!(
        chunks >= jobs,
        "every job is claimed as at least one chunk ({chunks} < {jobs})"
    );
}

/// The sequential/parallel switch sits at exactly `PAR_THRESHOLD`
/// elements: pure maps must be bit-identical on both sides of it (and to
/// the plain sequential loop).
#[test]
fn par_threshold_boundary_is_seamless() {
    let _guard = THREADS_LOCK.lock().unwrap();
    for len in [PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 1] {
        let src: Vec<f32> = (0..len)
            .map(|i| ((i % 251) as f32) * 0.321 - 40.0)
            .collect();
        parallel::set_num_threads(4);
        let mut mapped = vec![0.0f32; len];
        par_map_mut(&mut mapped, |i, v| *v = src[i] * 1.5 + 2.0);
        parallel::set_num_threads(0);
        for (i, v) in mapped.iter().enumerate() {
            assert_eq!(*v, src[i] * 1.5 + 2.0, "map diverged at len {len}, i {i}");
        }
    }
}
