//! Fig. 5 — runtime (a) and memory (b) scalability vs net count.
//!
//! Sweeps the ISPD-like generator over a range of net counts and prints
//! one series row per size: DGR runtime, CUGR2-style runtime, peak RSS,
//! and the kernel + forest byte accounting (the reproduction's "GPU
//! memory" analogue). The paper's qualitative claims: DGR runtime grows
//! near-linearly and crosses below the sequential router at scale;
//! memory is linear in net count.
//!
//! ```text
//! cargo run -p dgr-bench --release --bin fig5 [--fast]
//! ```

use dgr_baseline::SequentialRouter;
use dgr_bench::{dgr_config, fast_flag, run_baseline};
use dgr_core::DgrRouter;
use dgr_io::{IspdLikeConfig, IspdLikeGenerator};

fn main() {
    let fast = fast_flag();
    let sizes: Vec<usize> = if fast {
        vec![250, 500, 1000, 2000]
    } else {
        vec![1000, 2000, 4000, 8000, 16_000, 32_000, 64_000]
    };

    println!("Fig. 5: runtime and memory vs number of nets");
    println!(
        "{:>8} {:>8} | {:>10} {:>10} | {:>12} {:>16} {:>22}",
        "nets",
        "grid",
        "DGR t(s)",
        "seq t(s)",
        "peak RSS MB",
        "kernel+forest MB",
        "loss(first→final)"
    );

    for &nets in &sizes {
        // grid area scales with net count to keep density comparable
        let side = ((nets as f64).sqrt() * 1.6).ceil() as u32;
        let config = IspdLikeConfig {
            width: side.max(24),
            height: side.max(24),
            num_nets: nets,
            num_layers: 9,
            base_capacity: 9.0,
            clusters: (nets / 120).max(4),
            ..IspdLikeConfig::default()
        };
        let design = IspdLikeGenerator::new(config).generate().expect("generate");

        let mut cfg = dgr_config(fast, 5);
        // the scalability study fixes a smaller iteration count so the
        // x-axis sweep dominates runtime (documented in EXPERIMENTS.md)
        cfg.iterations = if fast { 100 } else { 300 };
        let t0 = std::time::Instant::now();
        let solution = DgrRouter::new(cfg).route(&design).expect("dgr route");
        let dgr_time = t0.elapsed();
        let report = solution.train_report.as_ref().expect("train report");
        let graph_mb = report.graph_bytes as f64 / (1024.0 * 1024.0);
        let peak_rss = dgr_obs::process_memory().peak_rss.unwrap_or(0);
        // the retained curve replaces the old ad-hoc final-loss readout
        let loss0 = report.curve.first().map_or(f32::NAN, |p| p.loss);

        let seq = run_baseline(&design, |d| SequentialRouter.route(d)).expect("sequential route");

        println!(
            "{:>8} {:>8} | {:>10.2} {:>10.2} | {:>12.1} {:>16.1} {:>10.1} → {:<9.1}",
            nets,
            format!("{side}x{side}"),
            dgr_time.as_secs_f64(),
            seq.runtime.as_secs_f64(),
            peak_rss as f64 / (1024.0 * 1024.0),
            graph_mb,
            loss0,
            report.final_loss,
        );
    }
    println!();
    println!("Expected shapes: both runtimes near-linear; DGR's slope flatter at scale");
    println!("(concurrent optimization avoids rip-up rounds); memory linear in nets.");
}
