//! Congestion study: route the same ISPD-like design with the
//! differentiable router and the CUGR2-style sequential baseline, then
//! compare congestion maps and metrics side by side — the Table-2
//! experiment in miniature.
//!
//! ```text
//! cargo run --release --example congestion_study
//! ```

use std::error::Error;

use dgr::baseline::SequentialRouter;
use dgr::core::{DgrConfig, DgrRouter};
use dgr::grid::CongestionReport;
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::post::pipeline;

fn main() -> Result<(), Box<dyn Error>> {
    // a congested 5-layer design with clustered pins and two macros
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 40,
        height: 40,
        num_nets: 600,
        num_layers: 5,
        base_capacity: 8.0,
        clusters: 10,
        macros: 2,
        ..IspdLikeConfig::default()
    })
    .generate()?;
    println!(
        "design: {} nets, {} pins, {}x{} grid",
        design.num_nets(),
        design.num_pins(),
        design.grid.width(),
        design.grid.height()
    );

    // both routers go through the one pipeline (refinement and layer
    // assignment, Section 4.6), so the comparison matches the Table-2
    // pipeline
    let seq =
        pipeline::run_with::<Box<dyn Error>, _>(
            &design,
            false,
            |d| Ok(SequentialRouter.route(d)?),
        )?
        .solution;
    let cfg = DgrConfig {
        iterations: 300,
        ..DgrConfig::default()
    };
    let dgr = pipeline::run_with::<Box<dyn Error>, _>(&design, false, |d| {
        Ok(DgrRouter::new(cfg).route(d)?)
    })?
    .solution;

    for (name, sol) in [("sequential (CUGR2-style)", &seq), ("DGR", &dgr)] {
        let m = &sol.metrics;
        println!(
            "\n{name}: wirelength {}, turns {}, overflowed edges {}, total overflow {:.1}",
            m.total_wirelength,
            m.total_turns,
            m.overflow.overflowed_edges,
            m.overflow.total_overflow
        );
        let report = CongestionReport::measure(&design.grid, &design.capacity, &sol.demand);
        println!("{}", report.ascii_heatmap(&design.grid));
    }

    println!(
        "ICCAD'19 weighted cost (500·ovf + 4·turns + 0.5·WL): sequential {:.0}, DGR {:.0}",
        seq.metrics.weighted_cost(),
        dgr.metrics.weighted_cost()
    );
    println!("(single-seed snapshot — the table2 binary averages the full catalog)");
    Ok(())
}
