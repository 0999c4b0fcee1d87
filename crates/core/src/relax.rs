//! Continuous relaxation: the expected cost of Eqs. 9–12, assembled from
//! the forest as one [`CostModel`] kernel.
//!
//! The discrete selections `x_i` (paths) and `y_j` (trees) become
//! probabilities `p` and `q` produced by per-group Gumbel-softmax over
//! trainable logits `w`. The expected costs are then:
//!
//! ```text
//! qp_i        = q_tree(i) · p_i                      (joint selection mass)
//! WL_cost     = Σ_i qp_i · WL_i                      (Eq. 11)
//! via_cost    = √L · Σ_i qp_i · TP_i                 (Eq. 12)
//! d_e         = Σ_{i∋e} qp_i + ½(β_u·vp_u + β_v·vp_v)  (Eq. 10)
//! overflow    = Σ_e f(d_e − cap_e)                   (Eq. 9)
//! loss        = a₃·overflow + a₂·via + a₁·WL          (Eq. 3)
//! ```
//!
//! where `vp` is the per-cell via pressure scattered from path turning
//! points, and the `½β` endpoint split matches
//! [`dgr_grid::DemandMap::total`] exactly — the continuous cost is the
//! expectation of the discrete metric.
//!
//! The paper applies `f` to the *resource* `cap − d` with a logistic
//! function; equivalently we apply the activation to `d − cap` (rising in
//! congestion), which is the orientation its ReLU/ILP experiment uses.

use dgr_autodiff::{CostShape, CostTerms};
use dgr_dag::DagForest;
use dgr_grid::Design;
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::DgrConfig;

pub use dgr_autodiff::CostModel;

/// Builds the expected-cost kernel for `forest` over `design`'s grid.
///
/// Logits are initialized `Uniform(−0.5, 0.5)` from `rng` (the paper
/// initializes `w` randomly), trees first. The kernel is built once;
/// training mutates only its leaves.
pub fn build_cost_model(
    design: &Design,
    forest: &DagForest,
    cfg: &DgrConfig,
    rng: &mut StdRng,
) -> CostModel {
    let logits = (0..forest.num_trees() + forest.num_paths())
        .map(|_| rng.gen_range(-0.5..0.5))
        .collect();
    let (path_run_offsets, path_runs) = forest.path_run_csr();
    let (path_via_offsets, path_via_cells) = forest.path_via_csr();
    let shape = CostShape {
        width: design.grid.width() as usize,
        height: design.grid.height() as usize,
        net_tree_offsets: forest.net_tree_offsets_slice(),
        subnet_tree: forest.subnet_tree_slice(),
        subnet_path_offsets: forest.subnet_path_offsets_slice(),
        path_wl: forest.path_wl_slice(),
        path_turns: forest.path_turns_slice(),
        path_run_offsets,
        path_runs,
        path_via_offsets,
        path_via_cells,
        capacity: design.capacity.as_slice(),
        beta: design.capacity.beta_slice(),
    };
    let terms = CostTerms {
        wirelength: cfg.weights.wirelength,
        via: cfg.weights.via,
        overflow: cfg.weights.overflow,
        sqrt_layers: (design.num_layers as f32).sqrt(),
        activation: cfg.activation,
        overflow_scale: cfg.overflow_scale,
    };
    let mut model =
        CostModel::new(&shape, terms, logits).expect("the forest was built against this grid");
    model.set_temperature(cfg.initial_temperature);
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_dag::{build_forest, PatternConfig};
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};
    use dgr_rsmt::{tree_candidates, CandidateConfig};
    use rand::SeedableRng;

    fn small_design() -> (Design, DagForest) {
        let grid = GcellGrid::new(8, 8).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
        let nets = vec![
            Net::new("a", vec![Point::new(0, 0), Point::new(5, 4)]),
            Net::new("b", vec![Point::new(1, 5), Point::new(6, 1)]),
        ];
        let design = Design::new(grid, cap, nets, 5).unwrap();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::default()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        (design, forest)
    }

    #[test]
    fn probabilities_are_normalized_per_group() {
        let (design, forest) = small_design();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        m.forward();
        for n in 0..forest.num_nets() {
            let sum: f32 = m.q()[forest.trees_of_net(n)].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        for s in 0..forest.num_subnets() {
            let sum: f32 = m.p()[forest.paths_of_subnet(s)].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn expected_demand_matches_hand_computation() {
        // single 2-pin diagonal net with uniform probabilities: each L
        // carries mass 0.5, so each edge on either L sees demand 0.5.
        let grid = GcellGrid::new(6, 6).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![Net::new("n", vec![Point::new(0, 0), Point::new(3, 3)])],
            5,
        )
        .unwrap();
        let pools =
            vec![tree_candidates(&design.nets[0].pins, &CandidateConfig::single()).unwrap()];
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        // force equal logits → p = [0.5, 0.5]
        m.set_logits(&[0.0], &[0.0, 0.0]);
        m.forward();
        // on the lower L only; the corners (3,0) and (0,3) carry via
        // pressure 0.5 each but are far from this edge → just 0.5
        let e = design.grid.h_edge(0, 0).unwrap();
        assert!((m.demand()[e.index()] - 0.5).abs() < 1e-5);
        // expected wirelength is the exact manhattan distance
        assert!((m.wl_cost() - 6.0).abs() < 1e-4);
        // one turn at mass 1.0 total, × √5
        assert!((m.via_cost() - 5f32.sqrt()).abs() < 1e-4);
    }

    #[test]
    fn overflow_scale_rescales_the_activation_input() {
        let (design, forest) = small_design();
        let mut rng = StdRng::seed_from_u64(4);
        let base_cfg = DgrConfig {
            activation: dgr_autodiff::Activation::Relu,
            ..DgrConfig::default()
        };
        let mut m1 = build_cost_model(&design, &forest, &base_cfg, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let mut scaled_cfg = base_cfg.clone();
        scaled_cfg.overflow_scale = 2.0;
        let mut m2 = build_cost_model(&design, &forest, &scaled_cfg, &mut rng);
        let (_, ov1, ..) = m1.evaluate();
        let (_, ov2, ..) = m2.evaluate();
        // ReLU is positively homogeneous: relu(x/2) = relu(x)/2
        assert!(
            (ov1 / 2.0 - ov2).abs() < 1e-3 * ov1.abs().max(1.0),
            "ov1 {ov1} ov2 {ov2}"
        );
    }

    #[test]
    fn loss_decreases_under_training_pressure() {
        let (design, forest) = small_design();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        let (l0, ..) = m.evaluate();
        let mut adam = dgr_autodiff::Adam::new(m.num_trees() + m.num_paths(), 0.2);
        for _ in 0..60 {
            m.forward();
            m.backward();
            let (w, g) = m.logits_and_grads();
            adam.step(w, g);
        }
        let (l1, ..) = m.evaluate();
        assert!(l1 <= l0, "loss went up: {l0} → {l1}");
    }

    #[test]
    fn empty_design_produces_trivial_model() {
        let grid = GcellGrid::new(4, 4).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let design = Design::new(grid, cap, vec![], 3).unwrap();
        let forest = build_forest(&design.grid, &[], PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = build_cost_model(&design, &forest, &cfg, &mut rng);
        let (loss, ov, wl, via) = m.evaluate();
        assert_eq!(wl, 0.0);
        assert_eq!(via, 0.0);
        // overflow of an empty design is Σ f(−cap) — a constant baseline
        assert!(loss.is_finite());
        assert!(ov >= 0.0);
    }
}
