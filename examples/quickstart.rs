//! Quickstart: route a handful of nets with the differentiable global
//! router and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dgr::core::{DgrConfig, DgrRouter};
use dgr::grid::{CapacityBuilder, Design, GcellGrid, Net, Point};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. a 16×16 g-cell grid with 4 tracks per edge
    let grid = GcellGrid::new(16, 16)?;
    let capacity = CapacityBuilder::uniform(&grid, 4.0).build(&grid)?;

    // 2. three nets, one of them multi-pin
    let design = Design::new(
        grid,
        capacity,
        vec![
            Net::new("alpha", vec![Point::new(1, 1), Point::new(13, 11)]),
            Net::new("beta", vec![Point::new(2, 12), Point::new(12, 2)]),
            Net::new(
                "gamma",
                vec![Point::new(4, 4), Point::new(11, 6), Point::new(7, 13)],
            ),
        ],
        5, // routable layers
    )?;

    // 3. route with a short training schedule (tiny design)
    let config = DgrConfig {
        iterations: 200,
        ..DgrConfig::default()
    };
    let solution = DgrRouter::new(config).route(&design)?;

    // 4. inspect
    println!("routed {} nets", solution.routes.len());
    println!("total wirelength : {}", solution.metrics.total_wirelength);
    println!("turning points   : {}", solution.metrics.total_turns);
    println!(
        "overflowed edges : {}",
        solution.metrics.overflow.overflowed_edges
    );
    for route in &solution.routes {
        let name = &design.nets[route.net].name;
        println!("\nnet {name}:");
        for path in &route.paths {
            let corners: Vec<String> = path.corners.iter().map(|p| p.to_string()).collect();
            println!("  {}", corners.join(" → "));
        }
    }

    if let Some(train) = &solution.train_report {
        println!(
            "training: {} iterations in {:.2?}, final loss {:.1}",
            train.iterations, train.duration, train.final_loss
        );
    }
    Ok(())
}
