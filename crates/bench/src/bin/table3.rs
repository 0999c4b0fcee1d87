//! Table 3 — DGR vs SPRoute-style and Lagrangian routers on the
//! ispd18-like suite.
//!
//! Reports overflowed edges (all zero in the paper), wirelength (paper:
//! DGR −4.08 % vs SPRoute 2.0, −2.2 % vs Yao) and vias (paper: DGR worse
//! on the small cases, better from test5 up, −2.54 % / −1.76 % overall).
//!
//! ```text
//! cargo run -p dgr-bench --release --bin table3 [--fast]
//! ```

use dgr_baseline::{LagrangianRouter, SprouteRouter};
use dgr_bench::{dgr_config, fast_flag, generate_case, ratio, run_baseline, run_dgr};
use dgr_io::ispd18_cases;

fn main() {
    let fast = fast_flag();
    println!("Table 3: comparison with SPRoute-style and Lagrangian routers (ispd18-like)");
    println!(
        "{:<14} | {:>4} {:>4} {:>4} | {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9}",
        "case",
        "ovfS",
        "ovfY",
        "ovfD",
        "WL sproute",
        "WL lagr",
        "WL DGR",
        "via spr",
        "via lagr",
        "via DGR"
    );

    let mut sums = [0.0f64; 9];
    for case in ispd18_cases() {
        let design = generate_case(case.config.clone(), fast).expect("generate case");
        let spr = run_baseline(&design, |d| SprouteRouter.route(d)).expect("sproute route");
        let lag = run_baseline(&design, |d| LagrangianRouter.route(d)).expect("lagrangian route");
        let dgr = run_dgr(&design, dgr_config(fast, 11)).expect("dgr route");

        println!(
            "{:<14} | {:>4} {:>4} {:>4} | {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9}",
            case.name,
            spr.overflow_edges(),
            lag.overflow_edges(),
            dgr.overflow_edges(),
            spr.wirelength(),
            lag.wirelength(),
            dgr.wirelength(),
            spr.vias(),
            lag.vias(),
            dgr.vias(),
        );
        sums[0] += spr.overflow_edges() as f64;
        sums[1] += lag.overflow_edges() as f64;
        sums[2] += dgr.overflow_edges() as f64;
        sums[3] += spr.wirelength() as f64;
        sums[4] += lag.wirelength() as f64;
        sums[5] += dgr.wirelength() as f64;
        sums[6] += spr.vias() as f64;
        sums[7] += lag.vias() as f64;
        sums[8] += dgr.vias() as f64;
    }

    println!(
        "\nRatios vs DGR: wirelength sproute {:.4}, lagrangian {:.4}; vias sproute {:.4}, lagrangian {:.4}",
        ratio(sums[3], sums[5]),
        ratio(sums[4], sums[5]),
        ratio(sums[6], sums[8]),
        ratio(sums[7], sums[8]),
    );
    println!("Paper reference: WL ratios 1.0408 / 1.0220, via ratios 1.0254 / 1.0176 (DGR best).");
}
