//! Finite-difference spot-checks of the Gumbel-softmax path at extreme
//! temperatures.
//!
//! The relaxation computes `softmax((w + gumbel_noise) / τ)` per group.
//! As τ → 0 the softmax saturates to a hard argmax (gradients collapse
//! toward 0 almost everywhere); as τ grows it flattens toward uniform.
//! Both regimes are numerically delicate — saturation divides by a tiny
//! τ before exponentiating, flattening loses signal to round-off — so
//! the kernel is checked against f64 central differences of a
//! self-contained reference at τ = 1e-3 and τ = 1e3.

use dgr_autodiff::{Activation, CostModel, CostShape, CostTerms};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GROUPS: usize = 4;
const GROUP: usize = 3;
const N: usize = GROUPS * GROUP;
/// Cells of the one-row grid; path `i` runs from cell 0 over the first
/// `1 + i % GROUP` edges.
const CELLS: usize = GROUP + 1;
const CAPACITY: f32 = 0.5;
const OVERFLOW_WEIGHT: f32 = 3.0;

/// One net, one tree, `GROUPS` sub-nets of `GROUP` paths each:
/// loss = Σ weights·p + 3 · Σ_e sigmoid(d_e − ½).
fn build_model(w0: &[f32], weights: &[f32], tau: f32) -> CostModel {
    let runs: Vec<(u32, u32)> = (0..N).map(|i| (0, (1 + i % GROUP) as u32)).collect();
    let shape = CostShape {
        width: CELLS,
        height: 1,
        net_tree_offsets: &[0, 1],
        subnet_tree: &[0; GROUPS],
        subnet_path_offsets: &(0..=GROUPS).map(|g| (g * GROUP) as u32).collect::<Vec<_>>(),
        path_wl: weights,
        path_turns: &[0.0; N],
        path_run_offsets: &(0..=N as u32).collect::<Vec<_>>(),
        path_runs: &runs,
        path_via_offsets: &[0; N + 1],
        path_via_cells: &[],
        capacity: &[CAPACITY; CELLS - 1],
        beta: &[0.0; CELLS],
    };
    let terms = CostTerms {
        wirelength: 1.0,
        via: 0.0,
        overflow: OVERFLOW_WEIGHT,
        sqrt_layers: 1.0,
        activation: Activation::Sigmoid,
        overflow_scale: 1.0,
    };
    let mut logits = vec![0.0]; // the tree's
    logits.extend_from_slice(w0);
    let mut model = CostModel::new(&shape, terms, logits).expect("a well-formed row");
    model.set_temperature(tau);
    model
}

/// Self-contained f64 reference of the same function.
fn reference_loss(w: &[f32], noise: &[f32], weights: &[f32], tau: f64) -> f64 {
    let mut demand = [0.0f64; CELLS - 1];
    let mut loss = 0.0f64;
    for grp in 0..GROUPS {
        let lo = grp * GROUP;
        let z: Vec<f64> = (lo..lo + GROUP)
            .map(|i| (w[i] as f64 + noise[i] as f64) / tau)
            .collect();
        let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let e: Vec<f64> = z.iter().map(|&v| (v - m).exp()).collect();
        let sum: f64 = e.iter().sum();
        for (k, &ek) in e.iter().enumerate() {
            loss += ek / sum * weights[lo + k] as f64;
            for d in &mut demand[..=k] {
                *d += ek / sum;
            }
        }
    }
    for d in demand {
        loss += OVERFLOW_WEIGHT as f64 / (1.0 + (-(d - CAPACITY as f64)).exp());
    }
    loss
}

fn run_extreme(tau: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w0: Vec<f32> = (0..N).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let weights: Vec<f32> = (0..N).map(|_| rng.gen_range(0.5f32..2.0)).collect();

    let mut model = build_model(&w0, &weights, tau);
    model.sample_noise(&mut rng);
    let noise = model.path_noise().to_vec();
    model.forward();
    model.backward();
    let kernel_loss = model.loss() as f64;
    let grad = model.path_grad();

    let ref_loss = reference_loss(&w0, &noise, &weights, tau as f64);
    assert!(
        (kernel_loss - ref_loss).abs() <= 1e-4 * ref_loss.abs().max(1.0),
        "τ={tau}: kernel loss {kernel_loss} ≠ reference {ref_loss}"
    );

    // τ-scaled FD step: the function varies on a scale proportional to τ,
    // so a fixed step would straddle the argmax switch at tiny τ.
    let h = (1e-3 * tau) as f64;
    for j in 0..N {
        assert!(grad[j].is_finite(), "τ={tau}: grad[{j}] not finite");
        let mut plus = w0.clone();
        let mut minus = w0.clone();
        plus[j] += h as f32;
        minus[j] -= h as f32;
        let fd = (reference_loss(&plus, &noise, &weights, tau as f64)
            - reference_loss(&minus, &noise, &weights, tau as f64))
            / (plus[j] as f64 - minus[j] as f64);
        // relative bound with an absolute floor: at τ→0 both sides
        // saturate to ~0 and the relative error is meaningless
        let tol = 1e-3 * fd.abs().max(grad[j].abs() as f64).max(1e-6);
        assert!(
            (grad[j] as f64 - fd).abs() <= tol,
            "τ={tau}: ∂loss/∂w[{j}] kernel {} ≠ central diff {fd}",
            grad[j]
        );
    }
}

/// τ → 0: hard argmax regime. Gradients must stay finite (no NaN from
/// the exp of huge logits) and match FD up to the saturation floor.
#[test]
fn gradients_survive_near_zero_temperature() {
    for seed in [1, 2, 3] {
        run_extreme(1e-3, seed);
    }
}

/// τ large: near-uniform regime. The softmax input is ~0 and the signal
/// is tiny; gradients must still track the reference.
#[test]
fn gradients_survive_large_temperature() {
    for seed in [1, 2, 3] {
        run_extreme(1e3, seed);
    }
}

/// At τ=1e-3 each group's probability concentrates on its argmax.
#[test]
fn near_zero_temperature_saturates_to_argmax() {
    let mut rng = StdRng::seed_from_u64(7);
    let w0: Vec<f32> = (0..N).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut model = build_model(&w0, &[1.0; N], 1e-3);
    model.probabilities();
    for grp in 0..GROUPS {
        let lo = grp * GROUP;
        let zmax = (lo..lo + GROUP)
            .max_by(|&a, &b| w0[a].partial_cmp(&w0[b]).unwrap())
            .unwrap();
        assert!(model.p()[zmax] >= 0.999, "group {grp}: {:?}", model.p());
    }
}
