//! End-to-end integration tests spanning every crate: design generation →
//! differentiable routing → refinement → layer assignment → guides.

use dgr::baseline::SequentialRouter;
use dgr::core::{DgrConfig, DgrRouter, RouteHooks};
use dgr::grid::{CapacityBuilder, Design, GcellGrid, Net, Point};
use dgr::io::{IspdLikeConfig, IspdLikeGenerator};
use dgr::post::pipeline::{self, PipelineError};
use dgr::post::{assign_layers, refine, AssignConfig, RefineConfig, RouteGuide};

fn small_catalog_design(seed: u64) -> Design {
    IspdLikeGenerator::new(IspdLikeConfig {
        width: 28,
        height: 28,
        num_nets: 120,
        num_layers: 5,
        seed,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config")
}

fn quick_config(seed: u64) -> DgrConfig {
    DgrConfig {
        iterations: 120,
        seed,
        ..DgrConfig::default()
    }
}

#[test]
#[allow(clippy::disallowed_methods)] // the stages one by one
fn full_pipeline_produces_consistent_artifacts() {
    let design = small_catalog_design(5);
    let mut solution = DgrRouter::new(quick_config(1)).route(&design).unwrap();

    // every net present, in order
    assert_eq!(solution.routes.len(), design.num_nets());
    for (n, route) in solution.routes.iter().enumerate() {
        assert_eq!(route.net, n);
    }

    // every pin of every net is an endpoint of some path (or the net is
    // single-g-cell)
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
            assert!(covered, "pin {pin} of net {} unconnected", net.name);
        }
    }

    // metrics agree with a from-scratch remeasure
    let metrics_before = solution.metrics;
    solution.remeasure(&design).unwrap();
    assert_eq!(
        metrics_before.total_wirelength,
        solution.metrics.total_wirelength
    );
    assert_eq!(metrics_before.total_turns, solution.metrics.total_turns);

    // refinement never increases overflowed edge count
    let before = solution.metrics.overflow.overflowed_edges;
    let report = refine(&design, &mut solution, RefineConfig::default()).unwrap();
    assert!(report.overflowed_after <= before);

    // layer assignment covers every segment and the guide mirrors it
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).unwrap();
    assert_eq!(assigned.nets.len(), solution.routes.len());
    for (net3d, route) in assigned.nets.iter().zip(&solution.routes) {
        let segments_2d: usize = route
            .paths
            .iter()
            .map(|p| p.corners.windows(2).filter(|w| w[0] != w[1]).count())
            .sum();
        assert_eq!(net3d.segments.len(), segments_2d);
        for s in &net3d.segments {
            assert!(s.layer < design.num_layers);
        }
    }
    let guide = RouteGuide::from_assignment(&design, &assigned);
    assert_eq!(
        guide.num_boxes(),
        assigned
            .nets
            .iter()
            .map(|n| n.segments.len())
            .sum::<usize>()
    );
    let text = guide.to_text();
    assert!(text.contains("net0"));
}

#[test]
fn routing_is_deterministic_for_a_fixed_seed() {
    let design = small_catalog_design(9);
    let a = DgrRouter::new(quick_config(3)).route(&design).unwrap();
    let b = DgrRouter::new(quick_config(3)).route(&design).unwrap();
    assert_eq!(a.metrics.total_wirelength, b.metrics.total_wirelength);
    assert_eq!(a.metrics.total_turns, b.metrics.total_turns);
    assert_eq!(
        a.metrics.overflow.overflowed_edges,
        b.metrics.overflow.overflowed_edges
    );
    for (ra, rb) in a.routes.iter().zip(&b.routes) {
        assert_eq!(ra.tree, rb.tree);
        assert_eq!(ra.paths, rb.paths);
    }
}

#[test]
fn different_seeds_explore_different_solutions() {
    let design = small_catalog_design(11);
    let a = DgrRouter::new(quick_config(1)).route(&design).unwrap();
    let b = DgrRouter::new(quick_config(2)).route(&design).unwrap();
    let same = a
        .routes
        .iter()
        .zip(&b.routes)
        .all(|(ra, rb)| ra.paths == rb.paths);
    assert!(!same, "two seeds produced byte-identical routings");
}

#[test]
fn wirelength_is_lower_bounded_by_steiner_lengths() {
    let design = small_catalog_design(13);
    let solution = DgrRouter::new(quick_config(1)).route(&design).unwrap();
    let steiner_total: u64 = design
        .nets
        .iter()
        .map(|n| dgr::rsmt::rsmt(&n.pins).map(|t| t.length()).unwrap_or(0))
        .sum();
    assert!(
        solution.metrics.total_wirelength >= steiner_total,
        "{} < steiner bound {}",
        solution.metrics.total_wirelength,
        steiner_total
    );
    // pattern routes are monotone: without refinement detours the total
    // should stay within a small factor of the bound
    assert!(solution.metrics.total_wirelength as f64 <= steiner_total as f64 * 1.5);
}

#[test]
fn adaptive_expansion_never_hurts_overflow() {
    // an over-packed design where the plain L-shape space cannot avoid
    // all overflow: adaptive rounds add maze candidates
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
    let base = DgrRouter::new(quick_config(2)).route(&design).unwrap();
    let mut adaptive_cfg = quick_config(2);
    adaptive_cfg.adaptive_rounds = 2;
    let adaptive = DgrRouter::new(adaptive_cfg.clone()).route(&design).unwrap();
    // the report covers every round the run trained, not the last one
    let report = adaptive.train_report.as_ref().unwrap();
    assert_eq!(report.iterations, report.curve.last().unwrap().iter + 1);
    assert!(
        report.iterations > adaptive_cfg.iterations,
        "no round was added"
    );
    assert!(
        adaptive.metrics.overflow.total_overflow <= base.metrics.overflow.total_overflow + 1e-6,
        "adaptive {} vs base {}",
        adaptive.metrics.overflow.total_overflow,
        base.metrics.overflow.total_overflow
    );
}

#[test]
#[allow(clippy::disallowed_methods)] // assignment of an empty solution
fn empty_and_degenerate_designs_route_cleanly() {
    let grid = GcellGrid::new(6, 6).unwrap();
    let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
    let design = Design::new(
        grid,
        cap,
        vec![
            Net::new("lonely", vec![Point::new(3, 3)]),
            Net::new("dup", vec![Point::new(1, 1), Point::new(1, 1)]),
        ],
        3,
    )
    .unwrap();
    let solution = DgrRouter::new(quick_config(0)).route(&design).unwrap();
    assert_eq!(solution.metrics.total_wirelength, 0);
    assert_eq!(solution.metrics.overflow.overflowed_edges, 0);
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).unwrap();
    assert_eq!(assigned.total_vias, 0);
}

#[test]
fn design_io_roundtrip_preserves_routing_results() {
    let design = small_catalog_design(17);
    let text = dgr::io::write_design(&design);
    let parsed = dgr::io::parse_design(&text).unwrap();
    let a = DgrRouter::new(quick_config(4)).route(&design).unwrap();
    let b = DgrRouter::new(quick_config(4)).route(&parsed).unwrap();
    assert_eq!(a.metrics.total_wirelength, b.metrics.total_wirelength);
    assert_eq!(
        a.metrics.overflow.overflowed_edges,
        b.metrics.overflow.overflowed_edges
    );
}

/// `pipeline::run` is the four stages called by hand, on a design packed
/// tightly enough that refinement has nets to reroute.
#[test]
#[allow(clippy::disallowed_methods)] // the reference: the stages by hand
fn pipeline_run_equals_the_stages_called_by_hand() {
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
    let cfg = quick_config(2);

    let mut by_hand = DgrRouter::new(cfg.clone()).route(&design).unwrap();
    let report = refine(&design, &mut by_hand, RefineConfig::default()).unwrap();
    assert!(report.nets_rerouted > 0, "refinement had nothing to do");
    let assigned = assign_layers(&design, &by_hand, AssignConfig::default()).unwrap();
    let guide = RouteGuide::from_assignment(&design, &assigned);

    let out = pipeline::run(&design, &cfg, &mut RouteHooks::default(), true).unwrap();
    assert_eq!(out.solution.to_text(), by_hand.to_text());
    assert_eq!(out.post.refine, report);
    assert_eq!(out.post.assigned.as_ref(), Some(&assigned));
    assert_eq!(out.vias(), assigned.total_vias);
    assert_eq!(out.post.guide.map(|g| g.to_text()), Some(guide.to_text()));
    assert_eq!(
        out.final_loss,
        f64::from(by_hand.train_report.unwrap().final_loss)
    );
    assert!(out.route_time <= out.wall);

    // no guide is built unless asked for
    let quiet = pipeline::run(&design, &cfg, &mut RouteHooks::default(), false).unwrap();
    assert!(quiet.post.guide.is_none());
    assert_eq!(quiet.post.assigned, Some(assigned));
}

/// One layer: nothing to assign, no guide even when asked for, and the
/// via count falls back to the 2D turns.
#[test]
fn pipeline_on_a_one_layer_design_skips_assignment() {
    let grid = GcellGrid::new(12, 12).unwrap();
    let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
    let nets = (0..10)
        .map(|i| {
            Net::new(
                format!("n{i}"),
                vec![
                    Point::new(i, (3 * i) % 12),
                    Point::new(11 - i, (5 * i + 4) % 12),
                ],
            )
        })
        .collect();
    let design = Design::new(grid, cap, nets, 1).unwrap();

    let router = DgrRouter::new(quick_config(3));
    let with = pipeline::run_with(&design, true, |d| {
        router.route(d).map_err(PipelineError::Route)
    })
    .unwrap();
    assert!(with.post.assigned.is_none() && with.post.guide.is_none());
    assert_eq!(with.post.assign_time, std::time::Duration::ZERO);

    let out = pipeline::run(&design, &quick_config(3), &mut RouteHooks::default(), true).unwrap();
    assert!(out.post.assigned.is_none() && out.post.guide.is_none());
    assert!(out.solution.metrics.total_turns > 0);
    assert_eq!(out.vias(), out.solution.metrics.total_turns);
    assert_eq!(out.solution.to_text(), with.solution.to_text());
}

/// A baseline goes through the same pipeline: nothing trained, so no
/// final loss, and its runtime is routing plus refinement.
#[test]
fn a_baseline_through_run_with_is_timed_and_finished_like_dgr() {
    let design = small_catalog_design(7);
    let out = pipeline::run_with::<Box<dyn std::error::Error>, _>(&design, true, |d| {
        Ok(SequentialRouter.route(d)?)
    })
    .unwrap();
    assert!(out.final_loss.is_nan());
    assert!(out.route_time >= out.post.refine_time);
    assert!(out.route_time <= out.wall);
    assert!(out.post.assigned.is_some() && out.post.guide.is_some());
}
