//! Proof-of-concept: the differentiable relaxation recovers the exact
//! ILP optimum on a Table-1-style synthetic instance.
//!
//! ```text
//! cargo run --release --example ilp_vs_dgr
//! ```

use dgr::baseline::{IlpSolver, IlpStatus};
use dgr::core::{DgrConfig, DgrRouter};
use dgr::io::{table1_design, Table1Params};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Table1Params {
        grid: 30,
        cap: 1.0,
        nets: 40,
        box_size: 6,
        seed: 42,
    };
    let design = table1_design(&params)?;
    println!(
        "synthetic instance: {}x{} grid, {} nets, cap {}",
        params.grid, params.grid, params.nets, params.cap
    );

    // exact branch-and-bound reference
    let ilp = IlpSolver::default().solve(&design)?;
    println!(
        "ILP : overflow {:.0} ({:?}, {} nodes, {:.2?})",
        ilp.overflow, ilp.status, ilp.nodes, ilp.runtime
    );
    assert_eq!(ilp.status, IlpStatus::Optimal);

    // DGR in the ILP-comparison profile (ReLU overflow, argmax read-out)
    let mut best = f64::INFINITY;
    for seed in 0..5 {
        let mut cfg = DgrConfig::ilp_comparison();
        cfg.seed = seed;
        let solution = DgrRouter::new(cfg).route(&design)?;
        // overflow over wire demand only, matching the ILP objective
        let mut wire = vec![0.0f32; design.grid.num_edges()];
        for route in &solution.routes {
            for path in &route.paths {
                for w in path.corners.windows(2) {
                    for e in design.grid.segment_edges(w[0], w[1])? {
                        wire[e.index()] += 1.0;
                    }
                }
            }
        }
        let overflow: f64 = wire
            .iter()
            .zip(design.capacity.as_slice())
            .map(|(&d, &c)| ((d - c).max(0.0)) as f64)
            .sum();
        println!("DGR : overflow {overflow:.0} (seed {seed})");
        best = best.min(overflow);
    }

    println!(
        "\nbest DGR seed vs ILP optimum: {best:.0} vs {:.0} ({})",
        ilp.overflow,
        if (best - ilp.overflow).abs() < 1e-6 {
            "matched — the relaxation found the optimum"
        } else {
            "gap remains — try the hyper-parameter search of the table1 binary"
        }
    );
    Ok(())
}
