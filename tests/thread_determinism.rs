//! Thread-count invariance of the full route pipeline.
//!
//! The front end's fan-outs (candidates, forest build, extraction plans
//! and rasters) cut their index range in two at a point that depends on
//! its length alone and append the halves in order; the training kernel
//! fixes every reduction order by its index structure, whichever thread
//! runs which of its two lanes, and the noise a training run's helper
//! draws an iteration ahead is the same stream in the same order. So
//! `route` must produce byte-identical output at any worker count. This
//! routes the golden-guide cases and one design large enough to engage
//! the helper (`LANE_THRESHOLD` paths) — and to cross 2¹⁵ path-edges,
//! the size at which the op tape this kernel replaced chunked its
//! reductions by thread count, so that its losses differed in their last
//! bits from the first iteration on and its guides on larger designs —
//! at 1, 2, and 8 threads, and asserts the renderings (and, for
//! the large design, every retained loss) match each other and, for the
//! golden cases, the committed golden files. The large design trains
//! across two temperature steps, each of which compacts the kernel to
//! the candidates still alive and re-cuts its lanes. A design of
//! `NET_PAR_MIN` nets, from which the front end fans out, is routed the
//! same way for a few iterations. A run cancelled in the middle of
//! training must leave its thread as it found it.

use std::path::PathBuf;

use dgr::autodiff::parallel::{self, LANE_THRESHOLD, NET_PAR_MIN};
use dgr::core::{DgrConfig, DgrError, DgrRouter, RouteHooks};
use dgr::grid::Design;
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::post::{assign_layers, AssignConfig, RouteGuide};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind, EXEC_LOCK};

const GOLDEN_SEEDS: [u64; 2] = [11, 23];

/// The guide text, the bits of every loss the training report kept, and
/// the candidates each temperature step left alive.
#[allow(clippy::disallowed_methods)] // the golden guide skips refinement
fn guide_and_losses(
    design: &Design,
    iterations: usize,
    seed: u64,
) -> (String, Vec<u32>, Vec<usize>) {
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
        report.live.iter().map(|row| row.candidates()).collect(),
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

/// 800 nets on 56 × 56 cells: enough paths for training to engage its
/// helper.
fn large_design() -> Design {
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 56,
        height: 56,
        num_nets: 800,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let paths = DgrRouter::new(DgrConfig::default())
        .session(&design)
        .expect("session")
        .forest()
        .num_paths();
    assert!(paths >= LANE_THRESHOLD, "{paths} paths engage no helper");
    design
}

#[test]
fn a_design_above_the_parallel_threshold_routes_identically_at_any_thread_count() {
    let design = large_design();
    let per_thread = at_each_thread_count(|| guide_and_losses(&design, 260, 0));
    let (_, (guide, losses, live)) = &per_thread[0];
    assert!(guide.len() > 10_000, "a guide for 800 nets");
    assert_eq!(losses.len(), 131, "every other loss, and the last");
    assert!(
        live.len() == 3 && live[2] < live[1] && live[1] < live[0],
        "the steps at 100 and 200 both dropped candidates: {live:?}"
    );
    for (threads, (text, curve, alive)) in &per_thread[1..] {
        assert!(
            text == guide,
            "{threads}-thread guide diverged from the 1-thread guide"
        );
        assert_eq!(curve, losses, "{threads}-thread losses diverged");
        assert_eq!(alive, live, "{threads}-thread steps diverged");
    }
}

#[test]
fn a_design_whose_front_end_fans_out_routes_identically_at_any_thread_count() {
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 120,
        height: 120,
        num_nets: NET_PAR_MIN + 100,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let per_thread = at_each_thread_count(|| guide_and_losses(&design, 10, 0));
    let (_, one_thread) = &per_thread[0];
    for (threads, rendering) in &per_thread[1..] {
        assert!(
            rendering == one_thread,
            "{threads} threads diverged from one"
        );
    }
}

/// A cancel raised in the middle of a training run that has its helper
/// engaged ends the run as `Cancelled`, with the helper joined, and the
/// next route on the same thread is what it would have been without it.
#[test]
#[allow(clippy::disallowed_methods)] // a watcher thread raises the cancel
fn a_route_cancelled_mid_training_leaves_its_thread_clean() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let design = large_design();
    let _guard = EXEC_LOCK.lock().unwrap();
    parallel::set_num_threads(2);
    let before = guide_and_losses(&design, 30, 0);

    // the run writes a telemetry row per iteration to a file: a file
    // that has grown is a training run under way
    let path = std::env::temp_dir().join(format!("dgr_cancel_{}.jsonl", std::process::id()));
    let cancel = Arc::new(AtomicBool::new(false));
    let sink = dgr::obs::TelemetrySink::to_path(path.to_str().unwrap()).unwrap();
    let mut hooks = RouteHooks {
        telemetry: Some(sink),
        cancel: Some(Arc::clone(&cancel)),
        ..RouteHooks::default()
    };
    let watcher = std::thread::spawn({
        let (cancel, path) = (Arc::clone(&cancel), path.clone());
        move || {
            while std::fs::metadata(&path).map_or(0, |m| m.len()) == 0 {
                std::thread::yield_now();
            }
            cancel.store(true, Ordering::Relaxed);
        }
    });
    let cfg = DgrConfig {
        iterations: 1_000_000,
        ..DgrConfig::default()
    };
    let cancelled = DgrRouter::new(cfg).route_with_hooks(&design, &mut hooks);
    watcher.join().unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(matches!(cancelled, Err(DgrError::Cancelled)));
    // (the other tests that train something this large hold EXEC_LOCK)
    assert_eq!(helper_threads(), 0, "the helper outlived its run");

    let after = guide_and_losses(&design, 30, 0);
    parallel::set_num_threads(0);
    assert!(after == before, "the route after the cancelled one differs");
}

/// Live `dgr-helper` threads of this process.
fn helper_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0; // not Linux: nothing to count
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim() == "dgr-helper")
        .count()
}
