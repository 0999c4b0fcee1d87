//! Acceptance test for the spatial-introspection layer: on a seeded
//! hotspot design the per-net attribution table must rank the nets that
//! cross the hotspot first (they are the only offenders), and the
//! rendered `dgr report` HTML must surface exactly those nets.

use dgr::core::{
    attribute_solution, CostWeights, DgrConfig, DgrRouter, RouteHooks, SnapshotConfig,
};
use dgr::grid::{CapacityBuilder, Design, GcellGrid, Net, Point, Rect};
use dgr::obs::{render_report, ReportInputs, SnapshotSink, SnapshotStream};

/// A 10×10 design with a capacity hotspot spanning columns x = 4..=5 at
/// full height: three horizontal nets must cross it, two vertical nets
/// at x = 0 / x = 9 never go near it.
fn hotspot_design() -> Design {
    let grid = GcellGrid::new(10, 10).unwrap();
    let mut b = CapacityBuilder::uniform(&grid, 2.0);
    // 2.0 × 0.25 = 0.5 tracks: every single wire through the hotspot
    // overflows its edge
    b.scale_region(&grid, Rect::new(Point::new(4, 0), Point::new(5, 9)), 0.25);
    let cap = b.build(&grid).unwrap();
    let nets = vec![
        Net::new("cross_a", vec![Point::new(1, 2), Point::new(8, 2)]),
        Net::new("cross_b", vec![Point::new(1, 4), Point::new(8, 4)]),
        Net::new("cross_c", vec![Point::new(1, 6), Point::new(8, 6)]),
        Net::new("far_left", vec![Point::new(0, 1), Point::new(0, 8)]),
        Net::new("far_right", vec![Point::new(9, 1), Point::new(9, 8)]),
    ];
    Design::new(grid, cap, nets, 3).unwrap()
}

fn route_with_snapshots(design: &Design) -> (dgr::core::RoutingSolution, String) {
    let cfg = DgrConfig {
        iterations: 80,
        seed: 17,
        ..DgrConfig::default()
    };
    let mut hooks = RouteHooks {
        snap: Some(SnapshotConfig {
            sink: SnapshotSink::in_memory(),
            every: 20,
        }),
        ..RouteHooks::default()
    };
    let solution = DgrRouter::new(cfg)
        .route_with_hooks(design, &mut hooks)
        .expect("route");
    let mut snap = hooks.snap.expect("sink retained");
    dgr::core::write_attribution(
        &mut snap.sink,
        design,
        &solution,
        &CostWeights::default(),
        "final",
    );
    let text = snap.sink.memory_contents().expect("in-memory").to_string();
    (solution, text)
}

/// The hotspot-crossing nets are the only offenders and occupy the top
/// of the ranking; the far nets never appear.
#[test]
fn hotspot_crossing_nets_rank_first() {
    let design = hotspot_design();
    let (solution, _) = route_with_snapshots(&design);
    let record = attribute_solution(&design, &solution, &CostWeights::default(), "final");

    assert!(
        record.ranked_nets >= 3,
        "the three crossing nets must all be offenders, got {:?}",
        record.nets
    );
    let crossing = ["cross_a", "cross_b", "cross_c"];
    for name in crossing {
        assert!(
            record.nets.iter().any(|n| n.name == name),
            "{name} missing from the offender table: {:?}",
            record.nets
        );
    }
    // the first three ranks are all hotspot crossers...
    for n in record.nets.iter().take(3) {
        assert!(
            crossing.contains(&n.name.as_str()),
            "rank led by non-crossing net {:?}",
            n
        );
    }
    // ...and the far nets are never charged at all
    for n in &record.nets {
        assert!(!n.name.starts_with("far_"), "clean far net charged: {n:?}");
        assert!(n.overflow_share > 0.0);
    }
    // shares are ranked worst-first
    assert!(record
        .nets
        .windows(2)
        .all(|w| w[0].overflow_share >= w[1].overflow_share));
}

/// The snapshot stream written during the run parses back, carries the
/// training + extract phases, and the rendered report's attribution
/// table shows the crossing nets and only them.
#[test]
fn report_html_surfaces_hotspot_offenders() {
    let design = hotspot_design();
    let (_, snaps) = route_with_snapshots(&design);

    let stream = SnapshotStream::parse(&snaps).expect("stream parses");
    let header = stream.header.expect("header present");
    assert_eq!((header.width, header.height), (10, 10));
    assert!(
        stream.snapshots.iter().any(|s| s.phase == "train"),
        "no training captures"
    );
    assert!(
        stream.snapshots.iter().any(|s| s.phase == "extract"),
        "no extraction capture"
    );
    // the hotspot columns carry capacity 0.5; elsewhere 2.0
    assert!(header.h_capacity.iter().any(|&c| (c - 0.5).abs() < 1e-6));
    let attribution = stream.attributions.last().expect("attribution written");
    assert!(attribution.ranked_nets >= 3);

    let html = render_report(&ReportInputs {
        title: "hotspot".to_string(),
        snapshots: Some(snaps),
        ..ReportInputs::default()
    })
    .expect("report renders");
    for name in ["cross_a", "cross_b", "cross_c"] {
        assert!(html.contains(name), "report missing offender {name}");
    }
    assert!(!html.contains("far_left"), "clean net listed in report");
    assert!(!html.contains("far_right"), "clean net listed in report");
    assert!(html.contains("<svg"), "no heatmap SVG in report");
    assert!(!html.contains("<script"), "report must stay script-free");
}
