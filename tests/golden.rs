//! Byte-exact golden snapshots of `dgr_post::guide` output.
//!
//! Two fixed oracle-generated designs and one high-degree design (every
//! net through Dreyfus–Wagner, 9-layer assignment under congestion) are
//! routed end to end, assigned to layers, and rendered as route-guide
//! text; a fourth, refine-heavy design goes through the whole pipeline,
//! maze refinement included. The result must match the committed files
//! under `tests/golden/` byte for byte. A fifth file pins a whole
//! 1 000-iteration training run — losses, final logits, guide — and a
//! sixth the order of every forest path's edges. Nothing pins the thread count: the
//! route pipeline's output does not depend on it (see
//! `tests/thread_determinism.rs`).
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! DGR_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

mod common;

use std::path::PathBuf;

use dgr::core::{DgrConfig, DgrRouter, RouteHooks};
use dgr::grid::{CapacityBuilder, Design, GcellGrid, Net, Point, Rect};
use dgr::post::{assign_layers, pipeline, AssignConfig, RouteGuide};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN_SEEDS: [u64; 2] = [11, 23];

/// Seed of the high-degree golden (`guide_high_degree.txt`), whose guide
/// was recorded at the commit *before* the O(n) Dreyfus–Wagner grow step
/// and the per-net assignment cost table: it pins their byte-identity.
const HIGH_DEGREE_SEED: u64 = 16;

/// Seed of the refine-heavy golden (`guide_refine_heavy.txt`), whose guide
/// was recorded at the commit *before* refinement's window certificate,
/// when every windowed result that still rode overflow was searched again
/// on the whole grid: it pins that the certificate changes no route.
const REFINE_HEAVY_SEED: u64 = 20;

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

/// 40×40×5, 420 two- to four-pin nets on 9 tracks per edge with three
/// macros cut to a quarter of that: after 60 iterations some 230 edges
/// overflow, and of the 1 400 windowed searches that reroute the nets
/// across them 300 cannot come back clean.
fn refine_heavy_design(seed: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = GcellGrid::new(40, 40).expect("valid grid");
    let mut capacity = CapacityBuilder::uniform(&grid, 9.0);
    for (lo, hi) in [
        ((6, 8), (13, 17)),
        ((22, 5), (31, 11)),
        ((18, 24), (27, 33)),
    ] {
        let area = Rect::new(Point::new(lo.0, lo.1), Point::new(hi.0, hi.1));
        capacity.scale_region(&grid, area, 0.25);
    }
    let capacity = capacity.build(&grid).expect("valid capacity");
    let nets = (0..420)
        .map(|i| {
            // three nets in four stay within a dozen cells of their first pin
            let reach: i32 = if i % 4 == 0 { 40 } else { 12 };
            let first = Point::new(rng.gen_range(0..40), rng.gen_range(0..40));
            let mut pins = vec![first];
            for _ in 1..rng.gen_range(2..=4) {
                let x = (first.x + rng.gen_range(-reach..=reach)).clamp(0, 39);
                let y = (first.y + rng.gen_range(-reach..=reach)).clamp(0, 39);
                pins.push(Point::new(x, y));
            }
            Net::new(format!("rh{i}"), pins)
        })
        .collect();
    Design::new(grid, capacity, nets, 5).expect("valid design")
}

/// The guide of the whole pipeline — route, refine, assign — and how many
/// windowed searches refinement saw come back still riding overflow.
fn refined_guide_text(design: &Design, seed: u64) -> (String, usize) {
    let cfg = DgrConfig {
        iterations: 60,
        seed,
        ..DgrConfig::default()
    };
    let out = pipeline::run(design, &cfg, &mut RouteHooks::default(), true).expect("routes");
    let stats = out.post.refine.stats;
    (
        out.post.guide.expect("≥ 2 layers").to_text(),
        stats.escalations() + stats.escalations_avoided(),
    )
}

#[allow(clippy::disallowed_methods)] // the golden guides skip refinement
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
    let (refined, unclean) =
        refined_guide_text(&refine_heavy_design(REFINE_HEAVY_SEED), REFINE_HEAVY_SEED);
    assert!(
        unclean >= 20,
        "only {unclean} windowed results rode overflow"
    );

    let cases = GOLDEN_SEEDS
        .map(|seed| {
            let text = guide_text(&oracle_design(seed), seed);
            (format!("guide_seed{seed}.txt"), text, seed)
        })
        .into_iter()
        .chain([
            (
                "guide_high_degree.txt".to_string(),
                guide_text(&high_degree_design(HIGH_DEGREE_SEED), HIGH_DEGREE_SEED),
                HIGH_DEGREE_SEED,
            ),
            (
                "guide_refine_heavy.txt".to_string(),
                refined,
                REFINE_HEAVY_SEED,
            ),
            (
                "train_annealed.txt".to_string(),
                annealed_training_text(),
                ANNEALED_SEED,
            ),
        ]);
    for (file, text, seed) in cases {
        check_golden(&file, &text, seed);
    }
}

/// Compares `text` with `tests/golden/<file>` byte for byte, or writes it
/// there under `DGR_UPDATE_GOLDEN`.
fn check_golden(file: &str, text: &str, seed: u64) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("DGR_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}\n(run with DGR_UPDATE_GOLDEN=1 to create)",
            path.display()
        )
    });
    assert!(
        text == want,
        "output for seed {seed} diverged from {}\n\
         --- got ---\n{text}\n--- want ---\n{want}\n\
         If the change is intentional, regenerate with DGR_UPDATE_GOLDEN=1.",
        path.display()
    );
}

/// Seed of the adaptive golden (`route_adaptive.txt`): the router seed of
/// `tests/pipeline.rs`'s 220-net, seed-31 design.
const ADAPTIVE_SEED: u64 = 2;

/// That design routed with two adaptive rounds of
/// `dgr_core::config::ADAPTIVE_ITERATIONS` each: every
/// retained curve point's loss bits, the telemetry rows and the routes.
/// First recorded, with 80-iteration rounds, at the commit *before* the
/// rounds moved into `dgr_core::Session`, to pin that `expand` draws,
/// warm-starts and numbers the rounds as the loop it replaced did; then
/// re-recorded with 200-iteration rounds at the commit before the round
/// length became a constant.
#[test]
fn adaptive_route_matches_its_golden_file() {
    use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
    use dgr::obs::TelemetrySink;

    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 24,
        height: 24,
        num_nets: 220,
        num_layers: 5,
        base_capacity: 5.0,
        seed: 31,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let cfg = DgrConfig {
        iterations: 120,
        seed: ADAPTIVE_SEED,
        adaptive_rounds: 2,
        ..DgrConfig::default()
    };
    let mut hooks = RouteHooks {
        telemetry: Some(TelemetrySink::in_memory()),
        ..RouteHooks::default()
    };
    let solution = DgrRouter::new(cfg)
        .route_with_hooks(&design, &mut hooks)
        .expect("routes");
    let report = solution.train_report.as_ref().expect("trained");
    assert_eq!(report.iterations, 520, "both adaptive rounds ran");

    let mut text = String::new();
    for point in &report.curve {
        text += &format!("curve {} {:08x}\n", point.iter, point.loss.to_bits());
    }
    let telemetry = hooks
        .telemetry
        .as_ref()
        .and_then(TelemetrySink::memory_contents);
    text += telemetry.expect("in-memory sink");
    check_golden(
        "route_adaptive.txt",
        &(text + &solution.to_text()),
        ADAPTIVE_SEED,
    );
}

/// Seed of the annealed golden (`train_annealed.txt`), recorded at the
/// commit *before* the kernel's passes followed the undecided set, when
/// every iteration walked every sub-net and every net: it pins that the
/// passes over what is still undecided compute the same bits.
const ANNEALED_SEED: u64 = 24;

/// 700 clustered nets on 48 × 48 cells, enough paths for training to
/// engage its helper, trained for 1 000 iterations — nine temperature
/// steps, by the last of which all but a few dozen sub-nets are frozen.
/// The loss bits at every 100th iteration, two FNV-1a of the final
/// logits' bits, and the guide.
///
/// The logits are hashed in two lines by their group — a net's trees, a
/// sub-net's paths — as the run leaves it. `moving` holds the groups that
/// end with two or more finite logits, and was recorded at the commit
/// *before* Adam stopped stepping groups of one: those logits train as
/// they did. `decided` holds the rest, and was re-recorded then: a group
/// that a prune leaves with one candidate now keeps its logit from that
/// prune on, where it used to drift on Adam's momentum, read by nothing.
#[allow(clippy::disallowed_methods)] // the golden guide skips refinement
fn annealed_training_text() -> String {
    use dgr::io::{IspdLikeConfig, IspdLikeGenerator};

    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 48,
        height: 48,
        num_nets: 700,
        seed: ANNEALED_SEED,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let cfg = DgrConfig {
        iterations: 1000,
        seed: ANNEALED_SEED,
        ..DgrConfig::default()
    };
    let mut session = DgrRouter::new(cfg.clone())
        .session(&design)
        .expect("session");
    let forest = session.forest();
    assert!(
        forest.num_paths() >= dgr::autodiff::parallel::LANE_THRESHOLD,
        "{} paths engage no helper",
        forest.num_paths()
    );
    session
        .train(cfg.iterations, &mut RouteHooks::default())
        .expect("not cancelled");
    let report = session.report().expect("trained");
    assert!(report.live.len() > 5, "most steps dropped candidates");
    let (first, last) = (report.live[0], report.live[report.live.len() - 1]);
    assert!(
        last.undecided_subnets * 10 < first.undecided_subnets,
        "{first:?} → {last:?}: the run has to end mostly frozen to pin anything"
    );

    let mut text = String::new();
    for point in report.curve.iter().filter(|p| p.iter % 100 == 0) {
        text += &format!("loss {} {:08x}\n", point.iter, point.loss.to_bits());
    }
    let (forest, model) = (session.forest(), session.model());
    let w = [model.tree_logits(), model.path_logits()].concat();
    let trees = forest.num_trees();
    let tree_groups = (0..forest.num_nets()).map(|n| forest.trees_of_net(n));
    let path_groups = (0..forest.num_subnets()).map(|s| {
        let paths = forest.paths_of_subnet(s);
        trees + paths.start..trees + paths.end
    });
    let (mut moving, mut decided) = (Vec::new(), Vec::new());
    for group in tree_groups.chain(path_groups) {
        let finite = group.clone().filter(|&i| w[i].is_finite()).count();
        let side = if finite >= 2 {
            &mut moving
        } else {
            &mut decided
        };
        side.extend(group.flat_map(|i| w[i].to_bits().to_le_bytes()));
    }
    for (name, bytes) in [("moving", moving), ("decided", decided)] {
        text += &format!("logits {name} {:016x}\n", dgr::obs::fnv1a64(&bytes));
    }
    let solution = session.extract().expect("extracts");
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).expect("≥ 2 layers");
    text + &RouteGuide::from_assignment(&design, &assigned).to_text()
}

/// On every golden design, routed as its golden routes it: the overflow
/// mask, `OverflowStats` and `DemandMap::excess` agree edge by edge,
/// before and after refinement.
#[test]
fn overflow_readers_agree_on_every_golden_design() {
    let designs = [
        ("seed11", oracle_design(11), 11),
        ("seed23", oracle_design(23), 23),
        (
            "high_degree",
            high_degree_design(HIGH_DEGREE_SEED),
            HIGH_DEGREE_SEED,
        ),
        (
            "refine_heavy",
            refine_heavy_design(REFINE_HEAVY_SEED),
            REFINE_HEAVY_SEED,
        ),
    ];
    let mut overflowed = 0;
    for (name, design, seed) in &designs {
        let cfg = DgrConfig {
            iterations: 60,
            seed: *seed,
            ..DgrConfig::default()
        };
        let extracted = DgrRouter::new(cfg.clone()).route(design).expect("routes");
        overflowed += common::assert_overflow_readers_agree(design, &extracted.demand, name);
        let out = pipeline::run(design, &cfg, &mut RouteHooks::default(), true).expect("routes");
        overflowed += common::assert_overflow_readers_agree(design, &out.solution.demand, name);
    }
    assert!(
        overflowed > 100,
        "only {overflowed} overflowed edges checked"
    );
}

/// One line per forest: its path and edge counts and an FNV-1a of every
/// path's edge list, in path order, each list led by its length.
fn edge_lists_line(name: &str, forest: &dgr::dag::DagForest) -> String {
    let mut bytes = Vec::new();
    let mut edges = 0;
    for i in 0..forest.num_paths() {
        let list: Vec<u32> = forest.path_edges(i).collect();
        edges += list.len();
        bytes.extend((list.len() as u32).to_le_bytes());
        bytes.extend(list.iter().flat_map(|e| e.to_le_bytes()));
    }
    let fnv = dgr::obs::fnv1a64(&bytes);
    format!(
        "{name} paths {} edges {edges} fnv {fnv:016x}\n",
        forest.num_paths()
    )
}

/// The edge lists of two forests, in order: `ispd18_test1 --fast` on the
/// default configuration, and 1 100 congested nets on Z- and C-shapes
/// grown by a round of maze-derived extras (enough nets for two threads to
/// build the forest in two halves). Recorded when each path stored its
/// edges, one by one as its corners walk them: it pins that the edges
/// derived from the runs come in that order.
#[test]
fn forest_edge_lists_match_their_golden_file() {
    use dgr::autodiff::parallel;
    use dgr::dag::PatternConfig;
    use dgr::io::{catalog_case, IspdLikeConfig, IspdLikeGenerator};

    let small = catalog_case("ispd18_test1")
        .expect("catalog case")
        .config
        .fast();
    let small = IspdLikeGenerator::new(small)
        .generate()
        .expect("valid config");
    let grown = IspdLikeGenerator::new(IspdLikeConfig {
        width: 48,
        height: 48,
        num_nets: 1100,
        num_layers: 5,
        base_capacity: 4.0,
        seed: 31,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    let text_at = |threads: usize| {
        parallel::set_num_threads(threads);
        let cfg = DgrConfig {
            seed: ADAPTIVE_SEED,
            ..DgrConfig::default()
        };
        let session = DgrRouter::new(cfg).session(&small).expect("session");
        let mut text = edge_lists_line("ispd18_test1_fast", session.forest());
        let cfg = DgrConfig {
            seed: ADAPTIVE_SEED,
            patterns: PatternConfig::with_z_and_c(3, 2),
            ..DgrConfig::default()
        };
        let mut session = DgrRouter::new(cfg).session(&grown).expect("session");
        session
            .train(30, &mut RouteHooks::default())
            .expect("not cancelled");
        let solution = session.extract().expect("extracts");
        assert!(session.expand(&solution), "no sub-net grew an extra");
        text += &edge_lists_line("grown_z_c_maze", session.forest());
        parallel::set_num_threads(0);
        text
    };
    let text = text_at(1);
    assert_eq!(text_at(2), text, "the two-half build lists other edges");
    check_golden("forest_edges.txt", &text, ADAPTIVE_SEED);
}
