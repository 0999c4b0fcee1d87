//! Byte-exact golden snapshot of the `dgr report` HTML output.
//!
//! A fixed oracle-generated design is routed with in-memory telemetry
//! and congestion snapshots (RSS sampling off — the one nondeterministic
//! telemetry field), the attribution pass is run, and the rendered HTML
//! must match `tests/golden/report_seed11.html` byte for byte. No trace
//! input: span timings are wall-clock and would never reproduce. Nothing
//! pins the thread count: the pipeline's output does not depend on it.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! DGR_UPDATE_GOLDEN=1 cargo test --test report_golden
//! ```

use std::path::PathBuf;

use dgr::core::{write_attribution, CostWeights, DgrConfig, DgrRouter, RouteHooks, SnapshotConfig};
use dgr::obs::{render_report, ReportInputs, SnapshotSink, TelemetrySink};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind};

const GOLDEN_SEED: u64 = 11;

fn report_html() -> String {
    let spec = CaseSpec {
        num_layers: 3,
        ..CaseSpec::sample(CheckKind::PathCost, GOLDEN_SEED)
    };
    let design = gen_design(&spec, &mut case_rng(&spec));
    let cfg = DgrConfig {
        iterations: 60,
        seed: GOLDEN_SEED,
        ..DgrConfig::default()
    };
    let mut hooks = RouteHooks {
        telemetry: Some(TelemetrySink::in_memory()),
        snap: Some(SnapshotConfig {
            sink: SnapshotSink::in_memory(),
            every: 15,
        }),
        skip_rss: true,
        ..RouteHooks::default()
    };
    let solution = DgrRouter::new(cfg)
        .route_with_hooks(&design, &mut hooks)
        .expect("routes");
    let mut snap = hooks.snap.expect("sink retained");
    write_attribution(
        &mut snap.sink,
        &design,
        &solution,
        &CostWeights::default(),
        "final",
    );
    let inputs = ReportInputs {
        title: format!("oracle seed {GOLDEN_SEED}"),
        telemetry: Some(
            hooks
                .telemetry
                .expect("sink retained")
                .memory_contents()
                .expect("in-memory")
                .to_string(),
        ),
        snapshots: Some(snap.sink.memory_contents().expect("in-memory").to_string()),
        trace: None,
        profile: None,
        health: None,
    };
    render_report(&inputs).expect("report renders")
}

#[test]
fn report_html_matches_golden_file() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(format!("report_seed{GOLDEN_SEED}.html"));
    let update = std::env::var_os("DGR_UPDATE_GOLDEN").is_some();

    let html = report_html();
    let again = report_html();

    assert_eq!(html, again, "report diverged between identical runs");

    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, &html).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}\n(run with DGR_UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    assert!(
        html == want,
        "report HTML diverged from {} ({} vs {} bytes).\n\
         If the change is intentional, regenerate with DGR_UPDATE_GOLDEN=1.",
        path.display(),
        html.len(),
        want.len()
    );
}
