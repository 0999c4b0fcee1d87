//! Thread-count invariance of the full route pipeline.
//!
//! The parallel front end (candidate fan-out, forest build, extraction
//! rasters) writes results into index-ordered slots, and the training
//! kernel fixes every reduction order by its index structure and runs on
//! the calling thread, so `route` must produce byte-identical output at
//! any worker count. This routes the golden-guide cases and one design
//! large enough to cross `PAR_THRESHOLD` path-edges — the size at which
//! the op tape this kernel replaced chunked its reductions by thread
//! count, so that its losses differed in their last bits from the first
//! iteration on and its guides on larger designs — at 1, 2, and 8
//! threads, and asserts the renderings (and, for the large design, every
//! retained loss) match each other and, for the golden cases, the
//! committed golden files.

use std::path::PathBuf;

use dgr::autodiff::parallel;
use dgr::core::{DgrConfig, DgrRouter};
use dgr::grid::Design;
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::post::{assign_layers, AssignConfig, RouteGuide};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind, EXEC_LOCK};

const GOLDEN_SEEDS: [u64; 2] = [11, 23];

/// The guide text and the bits of every loss the training report kept.
fn guide_and_losses(design: &Design, iterations: usize, seed: u64) -> (String, Vec<u32>) {
    let cfg = DgrConfig {
        iterations,
        seed,
        ..DgrConfig::default()
    };
    let solution = DgrRouter::new(cfg).route(design).expect("routes");
    let assigned = assign_layers(design, &solution, AssignConfig::default()).expect("≥ 2 layers");
    let report = solution.train_report.as_ref().expect("route trains");
    (
        RouteGuide::from_assignment(design, &assigned).to_text(),
        report.curve.iter().map(|p| p.loss.to_bits()).collect(),
    )
}

fn golden_guide(seed: u64) -> String {
    let spec = CaseSpec {
        num_layers: 3,
        ..CaseSpec::sample(CheckKind::PathCost, seed)
    };
    guide_and_losses(&gen_design(&spec, &mut case_rng(&spec)), 60, seed).0
}

/// One rendering per thread count in `[1, 2, 8]`.
fn at_each_thread_count<T>(render: impl Fn() -> T) -> Vec<(usize, T)> {
    let _guard = EXEC_LOCK.lock().unwrap();
    let out = [1, 2, 8]
        .into_iter()
        .map(|threads| {
            parallel::set_num_threads(threads);
            (threads, render())
        })
        .collect();
    parallel::set_num_threads(0);
    out
}

#[test]
fn route_output_is_byte_identical_across_thread_counts() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let per_thread = at_each_thread_count(|| {
        GOLDEN_SEEDS
            .iter()
            .map(|&s| golden_guide(s))
            .collect::<Vec<_>>()
    });

    let (_, baseline) = &per_thread[0];
    for (threads, texts) in &per_thread[1..] {
        for (i, seed) in GOLDEN_SEEDS.iter().enumerate() {
            assert!(
                texts[i] == baseline[i],
                "seed {seed}: {threads}-thread guide diverged from 1-thread guide"
            );
        }
    }

    for (i, seed) in GOLDEN_SEEDS.iter().enumerate() {
        let path = dir.join(format!("guide_seed{seed}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            baseline[i] == want,
            "seed {seed}: guide diverged from committed golden {}",
            path.display()
        );
    }
}

#[test]
fn a_design_above_the_parallel_threshold_routes_identically_at_any_thread_count() {
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 48,
        height: 48,
        num_nets: 600,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let per_thread = at_each_thread_count(|| guide_and_losses(&design, 30, 0));
    let (_, (guide, losses)) = &per_thread[0];
    assert!(guide.len() > 10_000, "a guide for 600 nets");
    assert_eq!(losses.len(), 30);
    for (threads, (text, curve)) in &per_thread[1..] {
        assert!(
            text == guide,
            "{threads}-thread guide diverged from the 1-thread guide"
        );
        assert_eq!(curve, losses, "{threads}-thread losses diverged");
    }
}
