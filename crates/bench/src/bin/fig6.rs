//! Fig. 6 — the overflow-activation study.
//!
//! For each activation f ∈ {ReLU, sigmoid, LeakyReLU, exp, CELU} and a
//! small hyper-parameter grid, routes the two study cases and prints one
//! scatter point per run: x = 0.5·WL + 4·via, y = weighted overflow
//! (10·n₁ + 1000·n₂ + 10000·peak). The CUGR2-style router's point is the
//! reference mark. Paper finding: sigmoid dominates and beats CUGR2 on
//! most runs.
//!
//! ```text
//! cargo run -p dgr-bench --release --bin fig6 [--fast]
//! ```

use dgr_autodiff::Activation;
use dgr_baseline::SequentialRouter;
use dgr_bench::{dgr_config, fast_flag, generate_case, run_baseline, run_dgr};
use dgr_io::catalog_case;

fn main() {
    let fast = fast_flag();
    let cases = ["ispd18_5m", "ispd19_7m"];
    let lrs: Vec<f32> = if fast { vec![0.3] } else { vec![0.1, 0.3] };
    let seeds: Vec<u64> = if fast { vec![1] } else { vec![1, 2] };

    for name in cases {
        let case = catalog_case(name).expect("known case");
        let design = generate_case(case.config.clone(), fast).expect("generate");
        println!("Fig. 6 ({name}): weighted overflow vs 0.5*WL + 4*via");
        println!(
            "{:<10} {:>5} {:>5} | {:>14} {:>16}",
            "f", "lr", "seed", "0.5*WL+4*via", "weighted ovf"
        );

        let seq = run_baseline(&design, |d| SequentialRouter.route(d)).expect("sequential");
        println!(
            "{:<10} {:>5} {:>5} | {:>14.0} {:>16.0}   <- CUGR2-style reference",
            "cugr2",
            "-",
            "-",
            0.5 * seq.wirelength() as f64 + 4.0 * seq.vias() as f64,
            seq.weighted_overflow(),
        );

        for activation in Activation::ALL {
            for &lr in &lrs {
                for &seed in &seeds {
                    let mut cfg = dgr_config(fast, seed);
                    cfg.activation = activation;
                    cfg.learning_rate = lr;
                    let dgr = run_dgr(&design, cfg).expect("dgr route");
                    println!(
                        "{:<10} {:>5} {:>5} | {:>14.0} {:>16.0}",
                        activation.name(),
                        lr,
                        seed,
                        0.5 * dgr.wirelength() as f64 + 4.0 * dgr.vias() as f64,
                        dgr.weighted_overflow(),
                    );
                }
            }
        }
        println!();
    }
    println!("Expected shape: sigmoid points dominate (lowest weighted overflow at");
    println!("comparable WL/via); exp/ReLU runs scatter to higher overflow.");
}
