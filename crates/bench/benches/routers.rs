//! End-to-end benchmarks: one DGR training iteration and the full routing
//! pipelines on a small catalog case.

use dgr_autodiff::Adam;
use dgr_baseline::{LagrangianRouter, SequentialRouter, SprouteRouter};
use dgr_bench::harness::Harness;
use dgr_core::{build_cost_model, DgrConfig, DgrRouter};
use dgr_io::{IspdLikeConfig, IspdLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_design() -> dgr_grid::Design {
    IspdLikeGenerator::new(IspdLikeConfig {
        width: 48,
        height: 48,
        num_nets: 500,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config")
}

fn bench_train_iteration(h: &mut Harness) {
    let design = small_design();
    let cfg = DgrConfig::default();
    let mut rng = StdRng::seed_from_u64(0);
    let pools: Vec<_> = design
        .nets
        .iter()
        .map(|n| dgr_rsmt::tree_candidates(&n.pins, &cfg.candidates).expect("pins"))
        .collect();
    let forest = dgr_dag::build_forest(&design.grid, &pools, cfg.patterns).expect("in grid");
    let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
    let mut adam = Adam::new(model.num_trees() + model.num_paths(), cfg.learning_rate);
    h.bench("dgr_train_iteration_500_nets", || {
        model.forward();
        model.backward();
        let (logits, grads) = model.logits_and_grads();
        adam.step(logits, grads);
    });
}

fn bench_full_routers(h: &mut Harness) {
    let design = small_design();
    h.bench("full_route_500_nets/dgr_100_iters", || {
        let cfg = DgrConfig {
            iterations: 100,
            ..DgrConfig::default()
        };
        DgrRouter::new(cfg).route(&design).expect("routable");
    });
    h.bench("full_route_500_nets/sequential", || {
        SequentialRouter::default()
            .route(&design)
            .expect("routable");
    });
    h.bench("full_route_500_nets/sproute", || {
        SprouteRouter::default().route(&design).expect("routable");
    });
    h.bench("full_route_500_nets/lagrangian", || {
        LagrangianRouter::default()
            .route(&design)
            .expect("routable");
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_train_iteration(&mut h);
    bench_full_routers(&mut h);
}
