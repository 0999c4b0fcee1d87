//! Byte-exact golden snapshots of `dgr_post::guide` output.
//!
//! Two fixed oracle-generated designs are routed end to end, assigned to
//! layers, and rendered as route-guide text; the result must match the
//! committed files under `tests/golden/` byte for byte. Nothing pins the
//! thread count: the route pipeline's output does not depend on it (see
//! `tests/thread_determinism.rs`).
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! DGR_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::path::PathBuf;

use dgr::core::{DgrConfig, DgrRouter};
use dgr::post::{assign_layers, AssignConfig, RouteGuide};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind};

const GOLDEN_SEEDS: [u64; 2] = [11, 23];

fn guide_text(seed: u64) -> String {
    let spec = CaseSpec {
        // PathCost specs keep instances small but still multi-net
        num_layers: 3,
        ..CaseSpec::sample(CheckKind::PathCost, seed)
    };
    let design = gen_design(&spec, &mut case_rng(&spec));
    let cfg = DgrConfig {
        iterations: 60,
        seed,
        ..DgrConfig::default()
    };
    let solution = DgrRouter::new(cfg).route(&design).expect("routes");
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).expect("≥ 2 layers");
    RouteGuide::from_assignment(&design, &assigned).to_text()
}

#[test]
fn guide_output_matches_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("DGR_UPDATE_GOLDEN").is_some();

    for seed in GOLDEN_SEEDS {
        let text = guide_text(seed);
        let path = dir.join(format!("guide_seed{seed}.txt"));
        if update {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, &text).expect("write golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e}\n(run with DGR_UPDATE_GOLDEN=1 to create)",
                path.display()
            )
        });
        assert!(
            text == want,
            "guide output for seed {seed} diverged from {}\n\
             --- got ---\n{text}\n--- want ---\n{want}\n\
             If the change is intentional, regenerate with DGR_UPDATE_GOLDEN=1.",
            path.display()
        );
    }
}
