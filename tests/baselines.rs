//! Cross-router integration tests: every router must produce a valid,
//! fully connected solution on the same designs, and the exact solver
//! must agree with brute force.

mod common;

use dgr::baseline::{IlpSolver, LagrangianRouter, SequentialRouter, SprouteRouter};
use dgr::core::{DgrConfig, DgrRouter, RoutingSolution};
use dgr::grid::{Design, Point, Rect};
use dgr::io::{table1_design, IspdLikeConfig, IspdLikeGenerator, Table1Params};
use dgr::post::pipeline;

fn shared_design(seed: u64) -> Design {
    design_with_tracks(seed, IspdLikeConfig::default().base_capacity)
}

fn design_with_tracks(seed: u64, base_capacity: f32) -> Design {
    IspdLikeGenerator::new(IspdLikeConfig {
        width: 24,
        height: 24,
        num_nets: 80,
        num_layers: 5,
        base_capacity,
        seed,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config")
}

/// A one-net design on a `side`² grid of `tracks` whose net from `a` to
/// `b` must cross `wall`, a band of zero capacity open at one end: no
/// pattern path of the net gets around it.
fn walled_design(side: u32, tracks: f32, wall: Rect, a: Point, b: Point) -> Design {
    let grid = dgr::grid::GcellGrid::new(side, side).unwrap();
    let mut builder = dgr::grid::CapacityBuilder::uniform(&grid, tracks);
    builder.scale_region(&grid, wall, 0.0);
    let cap = builder.build(&grid).unwrap();
    let net = dgr::grid::Net::new("crossing", vec![a, b]);
    Design::new(grid, cap, vec![net], 5).unwrap()
}

/// The two walls: rows 0–6 of a 12² grid, rows 0–12 of a 16² one.
fn walls() -> [Design; 2] {
    [
        walled_design(
            12,
            2.0,
            Rect::new(Point::new(4, 0), Point::new(6, 6)),
            Point::new(1, 1),
            Point::new(10, 1),
        ),
        walled_design(
            16,
            3.0,
            Rect::new(Point::new(6, 0), Point::new(8, 12)),
            Point::new(1, 3),
            Point::new(14, 3),
        ),
    ]
}

/// The sequential router's solution as `pipeline::run_with` finishes it:
/// routed, then refined by the maze pass DGR gets too.
fn sequential_finished(design: &Design) -> RoutingSolution {
    let route = |d: &Design| Ok(SequentialRouter.route(d)?);
    let outcome = pipeline::run_with::<Box<dyn std::error::Error>, _>(design, false, route);
    outcome.unwrap().solution
}

fn assert_valid(design: &Design, solution: &RoutingSolution, router: &str) {
    assert_eq!(
        solution.routes.len(),
        design.num_nets(),
        "{router}: net count"
    );
    for (net, route) in design.nets.iter().zip(&solution.routes) {
        let distinct: std::collections::HashSet<_> = net.pins.iter().collect();
        if distinct.len() < 2 {
            continue;
        }
        for pin in distinct {
            let covered = route
                .paths
                .iter()
                .any(|p| p.corners.first() == Some(pin) || p.corners.last() == Some(pin));
            assert!(covered, "{router}: pin {pin} of {} unconnected", net.name);
        }
        // rectilinear, in-grid corner chains
        for path in &route.paths {
            for w in path.corners.windows(2) {
                assert!(w[0].is_aligned_with(w[1]), "{router}: diagonal hop");
                assert!(design.grid.contains(w[0]) && design.grid.contains(w[1]));
            }
        }
    }
    // demand must match a from-scratch remeasure
    let mut copy = solution.clone();
    copy.remeasure(design).unwrap();
    assert_eq!(
        copy.demand.wire_slice(),
        solution.demand.wire_slice(),
        "{router}: stale demand"
    );
}

#[test]
fn all_routers_produce_valid_solutions() {
    let design = shared_design(21);
    let cfg = DgrConfig {
        iterations: 100,
        ..DgrConfig::default()
    };
    let dgr = DgrRouter::new(cfg).route(&design).unwrap();
    assert_valid(&design, &dgr, "dgr");
    let seq = SequentialRouter.route(&design).unwrap();
    assert_valid(&design, &seq, "sequential");
    let spr = SprouteRouter.route(&design).unwrap();
    assert_valid(&design, &spr, "sproute");
    let lag = LagrangianRouter.route(&design).unwrap();
    assert_valid(&design, &lag, "lagrangian");
}

#[test]
fn all_routers_meet_the_steiner_lower_bound() {
    let design = shared_design(23);
    let bound: u64 = design
        .nets
        .iter()
        .map(|n| dgr::rsmt::rsmt(&n.pins).map(|t| t.length()).unwrap_or(0))
        .sum();
    let cfg = DgrConfig {
        iterations: 100,
        ..DgrConfig::default()
    };
    for (name, wl) in [
        (
            "dgr",
            DgrRouter::new(cfg)
                .route(&design)
                .unwrap()
                .metrics
                .total_wirelength,
        ),
        (
            "sequential",
            SequentialRouter
                .route(&design)
                .unwrap()
                .metrics
                .total_wirelength,
        ),
        (
            "sproute",
            SprouteRouter
                .route(&design)
                .unwrap()
                .metrics
                .total_wirelength,
        ),
        (
            "lagrangian",
            LagrangianRouter
                .route(&design)
                .unwrap()
                .metrics
                .total_wirelength,
        ),
    ] {
        assert!(
            wl >= bound,
            "{name}: wirelength {wl} below Steiner bound {bound}"
        );
    }
}

#[test]
fn ilp_agrees_with_brute_force_on_table1_miniatures() {
    for seed in [1u64, 2, 3] {
        let design = table1_design(&Table1Params {
            grid: 12,
            cap: 1.0,
            nets: 6,
            box_size: 5,
            seed,
        })
        .unwrap();
        let solver = IlpSolver::default();
        let bnb = solver.solve(&design).unwrap();
        let bf = solver.brute_force(&design).unwrap();
        assert!(
            (bnb.overflow - bf).abs() < 1e-6,
            "seed {seed}: bnb {} vs brute force {bf}",
            bnb.overflow
        );
    }
}

#[test]
fn dgr_matches_ilp_on_a_separable_instance() {
    // disjoint net boxes → every component is tiny and both solvers must
    // reach zero overflow
    let design = table1_design(&Table1Params {
        grid: 40,
        cap: 2.0,
        nets: 10,
        box_size: 4,
        seed: 77,
    })
    .unwrap();
    let ilp = IlpSolver::default().solve(&design).unwrap();
    let mut cfg = DgrConfig::ilp_comparison();
    cfg.iterations = 300;
    let dgr = DgrRouter::new(cfg).route(&design).unwrap();
    // cap 2 with 3-pin nets in small boxes: both should be overflow-free
    // on wire demand
    let mut wire = vec![0.0f32; design.grid.num_edges()];
    for route in &dgr.routes {
        for path in &route.paths {
            for w in path.corners.windows(2) {
                for e in design.grid.segment_edges(w[0], w[1]).unwrap() {
                    wire[e.index()] += 1.0;
                }
            }
        }
    }
    let dgr_overflow: f64 = wire
        .iter()
        .zip(design.capacity.as_slice())
        .map(|(&d, &c)| ((d - c).max(0.0)) as f64)
        .sum();
    assert_eq!(ilp.overflow, 0.0);
    assert_eq!(dgr_overflow, 0.0);
}

#[test]
fn congestion_hotspot_is_respected_by_all_routers() {
    // a blocked band forces every router around it; the sequential
    // router's detour is the shared refine's
    let [_, design] = walls();
    for (name, sol) in [
        ("sequential", sequential_finished(&design)),
        ("sproute", SprouteRouter.route(&design).unwrap()),
        ("lagrangian", LagrangianRouter.route(&design).unwrap()),
    ] {
        assert_eq!(
            sol.metrics.overflow.overflowed_edges, 0,
            "{name} crossed the blocked band"
        );
        assert!(
            sol.metrics.total_wirelength > 13,
            "{name} did not detour: wl {}",
            sol.metrics.total_wirelength
        );
    }
}

/// A wall no pattern path gets around deadlocks the sequential router's
/// pattern stage; the refine `pipeline::run_with` finishes it with
/// detours.
#[test]
fn the_shared_refine_escapes_the_sequential_routers_pattern_deadlock() {
    let [design, _] = walls();
    let routed = SequentialRouter.route(&design).unwrap();
    assert!(routed.metrics.overflow.overflowed_edges > 0);
    let sol = sequential_finished(&design);
    // the wall leaves rows 7-11 open: the route must detour
    assert_eq!(sol.metrics.overflow.overflowed_edges, 0);
    assert!(sol.metrics.total_wirelength > 9);
}

/// The sequential router is CUGR2's pattern stage and nothing more: each
/// of its paths is a pattern path of its sub-net — monotone, inside the
/// sub-net's bounding box, at most two turns — on a design where it rips
/// up and on both walls, where only a detour avoids overflow.
#[test]
fn the_sequential_router_routes_pattern_paths_only() {
    let [wall, band] = walls();
    for (name, design) in [
        ("tracks 2.5", design_with_tracks(34, 2.5)),
        ("wall", wall),
        ("band", band),
    ] {
        let sol = SequentialRouter.route(&design).unwrap();
        for path in sol.routes.iter().flat_map(|r| &r.paths) {
            let corners = &path.corners;
            let (a, b) = (corners[0], corners[corners.len() - 1]);
            let bbox = Rect::bounding(&[a, b]);
            let length: u32 = corners
                .windows(2)
                .map(|w| w[0].manhattan_distance(w[1]))
                .sum();
            assert!(
                corners.iter().all(|&c| bbox.contains(c)),
                "{name}: {corners:?} leaves its bounding box"
            );
            assert_eq!(
                length,
                a.manhattan_distance(b),
                "{name}: {corners:?} is not monotone"
            );
            assert!(path.num_turns() <= 2, "{name}: {corners:?} turns thrice");
        }
    }
}

/// `to_text()` of the three sequential baselines on [`shared_design`], two
/// seeds, and on the second at a quarter of the tracks, where all three
/// rip up and reroute — against `tests/golden/baseline_<router>.txt`.
#[test]
fn baseline_routes_match_the_goldens() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("DGR_UPDATE_GOLDEN").is_some();
    type Route = fn(&Design) -> RoutingSolution;
    let routers: [(&str, Route); 3] = [
        ("sequential", |d| SequentialRouter.route(d).unwrap()),
        ("sproute", |d| SprouteRouter.route(d).unwrap()),
        ("lagrangian", |d| LagrangianRouter.route(d).unwrap()),
    ];
    for (name, route) in routers {
        let mut text = String::new();
        for (seed, tracks) in [(21, 10.0), (34, 10.0), (34, 2.5)] {
            let solution = route(&design_with_tracks(seed, tracks));
            text.push_str(&format!(
                "# {name} seed {seed} tracks {tracks}\n{}",
                solution.to_text()
            ));
        }
        let path = dir.join(format!("baseline_{name}.txt"));
        if update {
            std::fs::write(&path, &text).unwrap();
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (DGR_UPDATE_GOLDEN=1 records it)", path.display()));
        assert!(
            text == want,
            "{name}: routes differ from {}",
            path.display()
        );
    }
}

/// On every design of this file, as each router leaves it: the overflow
/// mask, `OverflowStats` and `edge_excess` agree edge by edge.
#[test]
fn overflow_readers_agree_on_every_baselines_design() {
    let cfg = DgrConfig {
        iterations: 100,
        ..DgrConfig::default()
    };
    let mut overflowed = 0;
    for design in [
        shared_design(21),
        shared_design(23),
        shared_design(34),
        design_with_tracks(34, 2.5),
        design_with_tracks(21, 1.5),
    ] {
        let solutions = [
            ("dgr", DgrRouter::new(cfg.clone()).route(&design).unwrap()),
            ("sequential", SequentialRouter.route(&design).unwrap()),
            ("sproute", SprouteRouter.route(&design).unwrap()),
            ("lagrangian", LagrangianRouter.route(&design).unwrap()),
        ];
        for (router, solution) in &solutions {
            overflowed += common::assert_overflow_readers_agree(&design, &solution.demand, router);
        }
    }
    assert!(
        overflowed > 100,
        "only {overflowed} overflowed edges checked"
    );
}
