//! Byte-exact golden snapshots of `dgr_post::guide` output.
//!
//! Two fixed oracle-generated designs and one high-degree design (every
//! net through Dreyfus–Wagner, 9-layer assignment under congestion) are
//! routed end to end, assigned to layers, and rendered as route-guide
//! text; the result must match the committed files under `tests/golden/`
//! byte for byte. Nothing pins the thread count: the route pipeline's
//! output does not depend on it (see `tests/thread_determinism.rs`).
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! DGR_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::path::PathBuf;

use dgr::core::{DgrConfig, DgrRouter};
use dgr::grid::{CapacityBuilder, Design, GcellGrid, Net, Point};
use dgr::post::{assign_layers, AssignConfig, RouteGuide};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN_SEEDS: [u64; 2] = [11, 23];

/// Seed of the high-degree golden (`guide_high_degree.txt`), whose guide
/// was recorded at the commit *before* the O(n) Dreyfus–Wagner grow step
/// and the per-net assignment cost table: it pins their byte-identity.
const HIGH_DEGREE_SEED: u64 = 16;

fn oracle_design(seed: u64) -> Design {
    let spec = CaseSpec {
        // PathCost specs keep instances small but still multi-net
        num_layers: 3,
        ..CaseSpec::sample(CheckKind::PathCost, seed)
    };
    gen_design(&spec, &mut case_rng(&spec))
}

/// 24×24×9, 60 nets of 5–8 pins on 3 tracks per edge: every net takes the
/// exact Steiner solve and the 9-layer DP prices real per-layer overflow.
fn high_degree_design(seed: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = GcellGrid::new(24, 24).expect("valid grid");
    let capacity = CapacityBuilder::uniform(&grid, 3.0)
        .build(&grid)
        .expect("valid capacity");
    let nets = (0..60)
        .map(|i| {
            let pins = (0..rng.gen_range(5..=8))
                .map(|_| Point::new(rng.gen_range(0..24), rng.gen_range(0..24)))
                .collect();
            Net::new(format!("hd{i}"), pins)
        })
        .collect();
    Design::new(grid, capacity, nets, 9).expect("valid design")
}

fn guide_text(design: &Design, seed: u64) -> String {
    let cfg = DgrConfig {
        iterations: 60,
        seed,
        ..DgrConfig::default()
    };
    let solution = DgrRouter::new(cfg).route(design).expect("routes");
    let assigned = assign_layers(design, &solution, AssignConfig::default()).expect("≥ 2 layers");
    RouteGuide::from_assignment(design, &assigned).to_text()
}

#[test]
fn guide_output_matches_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("DGR_UPDATE_GOLDEN").is_some();

    let cases = GOLDEN_SEEDS
        .map(|seed| (format!("guide_seed{seed}.txt"), oracle_design(seed), seed))
        .into_iter()
        .chain([(
            "guide_high_degree.txt".to_string(),
            high_degree_design(HIGH_DEGREE_SEED),
            HIGH_DEGREE_SEED,
        )]);
    for (file, design, seed) in cases {
        let text = guide_text(&design, seed);
        let path = dir.join(file);
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
