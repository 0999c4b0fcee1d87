//! Full flow: 2D differentiable routing → maze refinement → DP layer
//! assignment → detailed-routing guides, written to `routing.guide`.
//!
//! ```text
//! cargo run --release --example route_guide
//! ```

use dgr::core::{DgrConfig, DgrRouter};
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::post::{assign_layers, refine, AssignConfig, RefineConfig, RouteGuide};

// The stages one by one, as `dgr::post::pipeline::run` sequences them, to
// show each; a program that only wants the guide calls `pipeline::run`.
#[allow(clippy::disallowed_methods)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 32,
        height: 32,
        num_nets: 250,
        num_layers: 9,
        ..IspdLikeConfig::default()
    })
    .generate()?;

    // 2D pattern routing
    let cfg = DgrConfig {
        iterations: 250,
        ..DgrConfig::default()
    };
    let mut solution = DgrRouter::new(cfg).route(&design)?;
    println!(
        "2D solution: WL {}, turns {}, overflowed edges {}",
        solution.metrics.total_wirelength,
        solution.metrics.total_turns,
        solution.metrics.overflow.overflowed_edges
    );

    // maze refinement of congested nets
    let report = refine(&design, &mut solution, RefineConfig::default())?;
    println!(
        "refinement: {} nets rerouted, overflow {} → {}",
        report.nets_rerouted, report.overflowed_before, report.overflowed_after
    );

    // DP layer assignment
    let assigned = assign_layers(&design, &solution, AssignConfig::default())?;
    println!(
        "3D solution: {} vias, {} overflowed (layer, edge) pairs, {} congested nets",
        assigned.total_vias, assigned.overflowed_edges3d, assigned.overflowed_nets
    );

    // guide output
    let guide = RouteGuide::from_assignment(&design, &assigned);
    let path = std::env::temp_dir().join("routing.guide");
    std::fs::write(&path, guide.to_text())?;
    println!(
        "wrote {} guide boxes for {} nets to {}",
        guide.num_boxes(),
        guide.nets.len(),
        path.display()
    );

    // show one net's guide
    let (name, boxes) = &guide.nets[0];
    println!("\nguide for {name}:");
    for b in boxes {
        println!(
            "  ({}, {}) .. ({}, {}) on layer {}",
            b.lo.x, b.lo.y, b.hi.x, b.hi.y, b.layer
        );
    }
    Ok(())
}
