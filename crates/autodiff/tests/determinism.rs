//! Determinism properties of the cost kernel and the training run's
//! helper.
//!
//! Contract under test (see the `cost` and `parallel` module docs):
//! * a training loop's losses, gradients, final logits and RNG state are
//!   **bit-identical at any thread count** and to the loop run inline —
//!   the kernel fixes every reduction order by its index structure, its
//!   two lanes share no element, and the noise drawn an iteration ahead
//!   is the same stream in the same order — across prunes, each of which
//!   equals sending the dropped logits to −∞;
//! * the lanes are cut at a net boundary.

use std::sync::Mutex;

use dgr_autodiff::cost::NoiseRuns;
use dgr_autodiff::parallel::{self, LANE_THRESHOLD};
use dgr_autodiff::{Activation, Adam, CostModel, CostShape, CostTerms};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// `set_num_threads` is process-global; tests that touch it serialize.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

const TERMS: CostTerms = CostTerms {
    wirelength: 0.5,
    via: 4.0,
    overflow: 500.0,
    sqrt_layers: 3.0,
    activation: Activation::Sigmoid,
    overflow_scale: 1.0,
};

/// A random DGR-shaped problem: `subnets` two-pin sub-nets with both
/// L-shapes each, three sub-nets to a tree, two trees to a net, on a
/// `side × side` grid, with random logits.
fn model(subnets: usize, side: usize, rng: &mut StdRng) -> CostModel {
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
    let logits = (0..trees + paths)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    CostModel::new(&shape, TERMS, logits).expect("a well-formed problem")
}

/// Everything a training loop leaves behind, as bits: each iteration's
/// loss, the last gradient, the final logits, and the RNG's next draw —
/// and the logits each prune left alive.
type Trace = (Vec<u32>, Vec<u32>, Vec<u32>, u64, Vec<usize>);

fn trace(model: &mut CostModel, losses: Vec<u32>, live: Vec<usize>, rng: &mut StdRng) -> Trace {
    model.restore_layout();
    let bits = |a: &[f32], b: &[f32]| a.iter().chain(b).map(|v| v.to_bits()).collect();
    (
        losses,
        bits(model.tree_grad(), model.path_grad()),
        bits(model.tree_logits(), model.path_logits()),
        rng.next_u64(),
        live,
    )
}

const ITERATIONS: usize = 8;

/// The iterations that begin with a prune, as `dgr_core::train`'s
/// temperature steps do.
const STEPS: [usize; 2] = [2, 5];

/// Far above the router's threshold: these logits start two apart at
/// most and get eight iterations.
const BELOW: f32 = 0.25;

/// The loop as it was before there were lanes: the prune of a step,
/// noise, forward, backward and the update, one after another on this
/// thread.
fn inline_loop(subnets: usize, side: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = model(subnets, side, &mut rng);
    let mut adam = Adam::new(model.num_trees() + model.num_paths(), 0.3);
    let (mut losses, mut live) = (Vec::new(), Vec::new());
    for it in 0..ITERATIONS {
        if STEPS.contains(&it) {
            if let Some(keep) = model.prune(BELOW) {
                adam.retain(&keep);
                live.push(model.num_trees() + model.num_paths());
            }
        }
        model.sample_noise(&mut rng);
        model.forward();
        model.backward();
        losses.push(model.loss().to_bits());
        let (w, g) = model.logits_and_grads();
        adam.step(w, g);
    }
    trace(&mut model, losses, live, &mut rng)
}

/// The loop of `dgr_core::train`: a helper engaged at `threads`, each
/// iteration's noise drawn during the one before on a copy of the RNG —
/// but for a step's, whose layout the step decides.
fn helped_loop(subnets: usize, side: usize, seed: u64, threads: usize) -> Trace {
    parallel::set_num_threads(threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = model(subnets, side, &mut rng);
    let mut adam = Adam::new(model.num_trees() + model.num_paths(), 0.3);
    let (mut losses, mut live) = (Vec::new(), Vec::new());
    {
        let _helper = parallel::Helper::engage();
        let draw = |runs: NoiseRuns, mut rng: StdRng, mut noise: Vec<f32>| {
            parallel::ahead("noise_ahead", move || {
                runs.fill(&mut rng, &mut noise);
                (rng, noise)
            })
        };
        let mut spare = vec![0.0; model.num_trees() + model.num_paths()];
        let mut ahead = None;
        for it in 0..ITERATIONS {
            if STEPS.contains(&it) {
                if let Some(keep) = model.prune(BELOW) {
                    adam.retain(&keep);
                    live.push(model.num_trees() + model.num_paths());
                    spare.truncate(model.num_trees() + model.num_paths());
                    spare.fill(0.0);
                }
            }
            let drawn = ahead.take().unwrap_or_else(|| {
                draw(model.noise_runs(), rng.clone(), std::mem::take(&mut spare))
            });
            let (after, mut noise) = drawn.finish();
            rng = after;
            model.swap_noise(&mut noise);
            if it + 1 < ITERATIONS && !STEPS.contains(&(it + 1)) {
                ahead = Some(draw(model.noise_runs(), rng.clone(), noise));
            } else {
                spare = noise;
            }
            model.forward();
            model.backward();
            losses.push(model.loss().to_bits());
            let (w, g) = model.logits_and_grads();
            adam.step(w, g);
        }
    }
    parallel::set_num_threads(0);
    trace(&mut model, losses, live, &mut rng)
}

/// One pass of a pruned model and of the unpruned one with the dropped
/// logits at −∞, both under a helper at `threads`: the costs, every
/// demand, and the gradient of each surviving logit, as bits.
fn pruned_and_full_pass(subnets: usize, side: usize, seed: u64, threads: usize) -> [Vec<u32>; 2] {
    parallel::set_num_threads(threads);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut full = model(subnets, side, &mut rng);
    let mut pruned = full.clone();
    let keep = pruned.prune(BELOW).expect("logits two apart");
    let kept: Vec<u32> = (0..)
        .zip(&keep)
        .filter_map(|(i, &k)| k.then_some(i))
        .collect();
    let trees = full.num_trees();
    // the survivors hear the same noise in both; a dropped tree's `q = 0`
    // silences its paths, whose own logits stay
    let mut noise = vec![0.0; trees + full.num_paths()];
    full.noise_runs().fill(&mut rng, &mut noise);
    let mut noise_kept: Vec<f32> = kept.iter().map(|&k| noise[k as usize]).collect();
    let mut logits = vec![f32::NEG_INFINITY; noise.len()];
    logits[trees..].copy_from_slice(full.path_logits());
    for s in (0..subnets).filter(|s| keep[s / 3]) {
        logits[trees + 2 * s..trees + 2 * s + 2].fill(f32::NEG_INFINITY);
    }
    let live = pruned.tree_logits().iter().chain(pruned.path_logits());
    for (&k, &w) in kept.iter().zip(live) {
        logits[k as usize] = w;
    }
    full.set_logits(&logits[..trees], &logits[trees..]);
    full.swap_noise(&mut noise);
    pruned.swap_noise(&mut noise_kept);

    let _helper = parallel::Helper::engage();
    let pass = |model: &mut CostModel, kept: &mut dyn Iterator<Item = usize>| -> Vec<u32> {
        model.forward();
        model.backward();
        let costs = [
            model.loss(),
            model.wl_cost(),
            model.via_cost(),
            model.overflow_cost(),
        ];
        let grad: Vec<f32> = [model.tree_grad(), model.path_grad()].concat();
        let values = costs.into_iter().chain(model.demand().iter().copied());
        let all = values.chain(kept.map(|k| grad[k]));
        all.map(f32::to_bits).collect()
    };
    let passes = [
        pass(&mut pruned, &mut (0..kept.len())),
        pass(&mut full, &mut kept.iter().map(|&k| k as usize)),
    ];
    parallel::set_num_threads(0);
    passes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sizes straddle `LANE_THRESHOLD` paths, from which a training run
    /// engages its helper (two paths to a sub-net).
    #[test]
    fn a_training_loop_is_bit_identical_at_any_thread_count_and_to_the_inline_loop(
        subnets in LANE_THRESHOLD / 8..2 * LANE_THRESHOLD,
        side in 8usize..64,
        seed in 0u64..10_000,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let inline = inline_loop(subnets, side, seed);
        prop_assert!(inline.0.iter().all(|&l| f32::from_bits(l).is_finite()));
        prop_assert!(!inline.4.is_empty(), "no step dropped anything");
        for threads in [1, 2, 8] {
            prop_assert_eq!(&helped_loop(subnets, side, seed, threads), &inline);
            let [pruned, full] = pruned_and_full_pass(subnets, side, seed, threads);
            prop_assert_eq!(pruned, full, "{} threads", threads);
        }
    }

}

proptest! {
    /// The lanes split the sub-nets at a net boundary — no net, so no
    /// tree, has sub-nets on both sides — that leaves each lane a fair
    /// share of the undecided paths (all but a lone path under the lone
    /// tree of its net: the ones a lane visits), or not at all.
    #[test]
    fn lanes_are_cut_at_a_net_boundary(
        // per net: trees, sub-nets per tree, paths per sub-net
        nets in proptest::collection::vec((1usize..4, 0usize..4, 1usize..5), 1..40),
        // one net in four cases is inflated to hold most of the paths
        big in (0usize..4, 0usize..40),
    ) {
        let mut nets = nets;
        if big.0 == 0 {
            let others: usize = nets.iter().map(|&(t, s, p)| t * s * p).sum();
            let n = big.1 % nets.len();
            nets[n] = (1, 1, 2 * others + 2);
        }
        let (mut net_tree_offsets, mut subnet_tree, mut subnet_path_offsets) =
            (vec![0u32], vec![], vec![0u32]);
        // the net of each sub-net, and the undecided paths of each net
        let (mut subnet_net, mut net_paths) = (vec![], vec![]);
        let (mut trees, mut paths) = (0u32, 0u32);
        for (n, &(t, s, p)) in nets.iter().enumerate() {
            for _ in 0..t {
                for _ in 0..s {
                    subnet_tree.push(trees);
                    subnet_net.push(n);
                    paths += p as u32;
                    subnet_path_offsets.push(paths);
                }
                trees += 1;
            }
            net_tree_offsets.push(trees);
            net_paths.push(if (t, p) == (1, 1) { 0 } else { t * s * p });
        }
        let paths = paths as usize;
        let undecided: usize = net_paths.iter().sum();
        // every path is the one edge of a 2 × 1 grid
        let shape = CostShape {
            width: 2,
            height: 1,
            net_tree_offsets: &net_tree_offsets,
            subnet_tree: &subnet_tree,
            subnet_path_offsets: &subnet_path_offsets,
            path_wl: &vec![1.0; paths],
            path_turns: &vec![0.0; paths],
            path_run_offsets: &(0..=paths as u32).collect::<Vec<_>>(),
            path_runs: &vec![(0, 1); paths],
            path_via_offsets: &vec![0; paths + 1],
            path_via_cells: &[],
            capacity: &[1.0],
            beta: &[0.0; 2],
        };
        let logits = vec![0.0; trees as usize + paths];
        let model = CostModel::new(&shape, TERMS, logits).expect("a well-formed forest");
        prop_assert_eq!(model.undecided().1, undecided);
        let [lower, upper] = model.lanes();
        prop_assert_eq!(lower.start, 0);
        prop_assert_eq!(lower.end, upper.start);
        prop_assert_eq!(upper.end, subnet_tree.len());
        let under = |nets: usize| net_paths[..nets].iter().sum::<usize>();
        if upper.is_empty() {
            // only when no boundary is worth cutting at: the net of the
            // middle undecided path holds more than half of them, or all
            // of one side — or nothing is undecided
            if let Some(mid) = (0..nets.len()).find(|&n| under(n + 1) > undecided / 2) {
                let (held, before) = (net_paths[mid], under(mid));
                prop_assert!(
                    2 * held > undecided || before == 0 || before + held == undecided,
                    "one lane, though net {mid} holds {held} of {undecided} undecided paths"
                );
            }
        } else {
            prop_assert!(subnet_net[lower.end - 1] < subnet_net[upper.start]);
            let below = under(subnet_net[upper.start]);
            prop_assert!(
                below.min(undecided - below) * 4 + 4 >= undecided,
                "{below} of {undecided}"
            );
        }
        if net_paths.iter().any(|&held| 2 * held > undecided) {
            prop_assert!(upper.is_empty(), "a net holds more than half of the undecided paths");
        }
    }
}
