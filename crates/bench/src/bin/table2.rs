//! Table 2 — DGR vs the CUGR2-style sequential router on the most
//! congested 5-layer cases.
//!
//! Reports, per case and router: overflowed g-cell edges, total
//! wirelength, via count — the paper's three columns — plus runtimes and
//! the cross-case ratios (paper: 1.2391 / 1.0095 / 1.0128 in CUGR2's
//! favor of DGR).
//!
//! ```text
//! cargo run -p dgr-bench --release --bin table2 [--fast]
//! ```

use dgr_baseline::SequentialRouter;
use dgr_bench::{dgr_config, fast_flag, generate_case, ratio, run_baseline, run_dgr};
use dgr_io::congested_cases;

fn main() {
    let fast = fast_flag();
    println!("Table 2: comparison with the CUGR2-style router on congested 5-layer cases");
    println!(
        "{:<12} {:>7} | {:>9} {:>9} | {:>12} {:>12} | {:>10} {:>10} | {:>8} {:>8}",
        "case",
        "nets",
        "ovf CUGR2",
        "ovf DGR",
        "WL CUGR2",
        "WL DGR",
        "via CUGR2",
        "via DGR",
        "t CUGR2",
        "t DGR"
    );

    let mut sums = [0.0f64; 6]; // ovf, wl, via for each router
    for case in congested_cases() {
        let design = generate_case(case.config.clone(), fast).expect("generate case");
        let seq = run_baseline(&design, |d| SequentialRouter.route(d)).expect("sequential route");
        let dgr = run_dgr(&design, dgr_config(fast, 7)).expect("dgr route");

        println!(
            "{:<12} {:>7} | {:>9} {:>9} | {:>12} {:>12} | {:>10} {:>10} | {:>8.1} {:>8.1}",
            case.name,
            design.num_nets(),
            seq.overflow_edges(),
            dgr.overflow_edges(),
            seq.wirelength(),
            dgr.wirelength(),
            seq.vias(),
            dgr.vias(),
            seq.runtime.as_secs_f64(),
            dgr.runtime.as_secs_f64(),
        );
        sums[0] += seq.overflow_edges() as f64;
        sums[1] += dgr.overflow_edges() as f64;
        sums[2] += seq.wirelength() as f64;
        sums[3] += dgr.wirelength() as f64;
        sums[4] += seq.vias() as f64;
        sums[5] += dgr.vias() as f64;
    }

    println!(
        "\nRatios (CUGR2-style / DGR): overflow {:.4}, wirelength {:.4}, vias {:.4}",
        ratio(sums[0], sums[1]),
        ratio(sums[2], sums[3]),
        ratio(sums[4], sums[5]),
    );
    println!(
        "Paper reference ratios: 1.2391 / 1.0095 / 1.0128 — expect DGR ≤ baseline on overflow."
    );
}
