//! Per-net attribution of the overflow term — "which nets put the
//! congestion there".
//!
//! For an extracted solution, every overflowed edge's excess
//! (`max(0, demand − capacity)`) is charged in equal parts to the nets
//! *responsible* for demand on that edge: nets whose wire crosses it,
//! plus nets with a turning point at one of its endpoint g-cells (via
//! pressure reaches the edge through the ½β endpoint split of Eq. 2).
//! Summed over edges this yields each net's overflow share; together
//! with the net's own wirelength and turn counts that gives a per-net
//! ICCAD'19 weighted cost, and ranking by share produces the "top
//! offender" table of the post-mortem report.
//!
//! Excess on edges no net touches (possible when via pressure from an
//! untraversed neighbouring cell pushes an edge over) stays uncharged;
//! the record reports `charged_excess` next to `total_excess` so the
//! gap is visible rather than silently re-normalized away.

use dgr_grid::demand::touched_edges;
use dgr_grid::{edge_excess, Design};
use dgr_obs::{AttributionRecord, NetShare, SnapshotSink};

use crate::config::CostWeights;
use crate::solution::RoutingSolution;

/// Maximum [`NetShare`] entries written per attribution record; the
/// ranking is complete before truncation and `ranked_nets` preserves the
/// true offender count.
pub const MAX_ATTRIBUTION_NETS: usize = 64;

/// Runs the attribution pass over an extracted solution.
///
/// The returned record's `nets` are the offending nets (nonzero
/// overflow share) ranked worst first — by share, then weighted cost,
/// then net index — truncated to [`MAX_ATTRIBUTION_NETS`] entries.
pub fn attribute_solution(
    design: &Design,
    solution: &RoutingSolution,
    weights: &CostWeights,
    phase: &str,
) -> AttributionRecord {
    let grid = &design.grid;
    let excess = edge_excess(grid, &design.capacity, &solution.demand);
    let total_excess: f32 = excess.iter().sum();

    // contributing nets per overflowed edge (tiny per-edge lists; dedup
    // by linear scan)
    let mut contributors: Vec<Vec<usize>> = vec![Vec::new(); grid.num_edges()];
    let mut add = |edge: usize, net: usize| {
        if excess[edge] > 0.0 && !contributors[edge].contains(&net) {
            contributors[edge].push(net);
        }
    };
    // a net loads the edges its wire crosses and, through the Eq. 2
    // endpoint split, every edge around each of its turns
    for route in &solution.routes {
        for path in &route.paths {
            if let Ok(edges) = touched_edges(grid, &design.capacity, &path.corners) {
                edges.for_each(|e| add(e.index(), route.net));
            }
        }
    }

    let num_nets = design.num_nets();
    let mut share = vec![0.0f64; num_nets];
    let mut edges_hit = vec![0u64; num_nets];
    let mut charged_excess = 0.0f64;
    for (e, nets) in contributors.iter().enumerate() {
        if nets.is_empty() || excess[e] <= 0.0 {
            continue;
        }
        charged_excess += excess[e] as f64;
        let part = excess[e] as f64 / nets.len() as f64;
        for &n in nets {
            share[n] += part;
            edges_hit[n] += 1;
        }
    }

    let mut nets: Vec<NetShare> = solution
        .routes
        .iter()
        .filter(|route| share[route.net] > 0.0)
        .map(|route| {
            let wl = route.wirelength();
            let turns = route.num_turns();
            NetShare {
                net: route.net as u64,
                name: design.nets[route.net].name.clone(),
                wirelength: wl,
                turns,
                overflow_share: share[route.net] as f32,
                overflowed_edges: edges_hit[route.net],
                cost: weights.overflow as f64 * share[route.net]
                    + weights.via as f64 * turns as f64
                    + weights.wirelength as f64 * wl as f64,
            }
        })
        .collect();
    nets.sort_by(|a, b| {
        b.overflow_share
            .total_cmp(&a.overflow_share)
            .then_with(|| b.cost.total_cmp(&a.cost))
            .then_with(|| a.net.cmp(&b.net))
    });
    let ranked_nets = nets.len() as u64;
    nets.truncate(MAX_ATTRIBUTION_NETS);

    AttributionRecord {
        phase: phase.to_string(),
        total_nets: num_nets as u64,
        ranked_nets,
        total_excess,
        charged_excess: charged_excess as f32,
        nets,
    }
}

/// Runs [`attribute_solution`] and appends the record to a snapshot
/// stream (writing the header first if the stream is fresh).
pub fn write_attribution(
    sink: &mut SnapshotSink,
    design: &Design,
    solution: &RoutingSolution,
    weights: &CostWeights,
    phase: &str,
) {
    crate::snapshot::ensure_header(sink, design);
    sink.write_attribution(&attribute_solution(design, solution, weights, phase));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{NetRoute, RoutePath};
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};

    /// Two nets down the same 1-track column, one net far away.
    fn contended() -> (Design, RoutingSolution) {
        let grid = GcellGrid::new(5, 5).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let nets = vec![
            Net::new("a", vec![Point::new(2, 0), Point::new(2, 4)]),
            Net::new("b", vec![Point::new(2, 0), Point::new(2, 4)]),
            Net::new("far", vec![Point::new(0, 0), Point::new(0, 4)]),
        ];
        let design = Design::new(grid, cap, nets, 3).unwrap();
        let straight = |x: i32| RoutePath {
            corners: vec![Point::new(x, 0), Point::new(x, 4)],
        };
        let solution = RoutingSolution::from_routes(
            &design,
            vec![
                NetRoute {
                    net: 0,
                    tree: 0,
                    paths: vec![straight(2)],
                },
                NetRoute {
                    net: 1,
                    tree: 1,
                    paths: vec![straight(2)],
                },
                NetRoute {
                    net: 2,
                    tree: 2,
                    paths: vec![straight(0)],
                },
            ],
        )
        .unwrap();
        (design, solution)
    }

    #[test]
    fn excess_splits_evenly_between_co_offenders() {
        let (design, solution) = contended();
        let record = attribute_solution(&design, &solution, &CostWeights::default(), "final");
        assert_eq!(record.total_nets, 3);
        // nets a and b overflow 4 column edges by 1 each; far is clean
        assert_eq!(record.ranked_nets, 2);
        assert_eq!(record.nets.len(), 2);
        for n in &record.nets {
            assert!(n.net <= 1, "clean net must not appear: {n:?}");
            assert!((n.overflow_share - 2.0).abs() < 1e-5, "4 edges × ½ each");
            assert_eq!(n.overflowed_edges, 4);
            assert_eq!(n.wirelength, 4);
            assert_eq!(n.turns, 0);
            // 500·2 + 0.5·4
            assert!((n.cost - 1002.0).abs() < 1e-6);
        }
        assert!((record.total_excess - 4.0).abs() < 1e-5);
        assert_eq!(record.charged_excess, record.total_excess);
    }

    #[test]
    fn clean_solution_has_empty_table() {
        let grid = GcellGrid::new(5, 5).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 4.0).build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![Net::new("n", vec![Point::new(0, 0), Point::new(4, 4)])],
            3,
        )
        .unwrap();
        let solution = RoutingSolution::from_routes(
            &design,
            vec![NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 0), Point::new(4, 0), Point::new(4, 4)],
                }],
            }],
        )
        .unwrap();
        let record = attribute_solution(&design, &solution, &CostWeights::default(), "final");
        assert_eq!(record.ranked_nets, 0);
        assert!(record.nets.is_empty());
        assert_eq!(record.total_excess, 0.0);
    }

    #[test]
    fn turn_via_pressure_charges_incident_edges() {
        // one net with a turn next to an edge it never crosses, second
        // net whose wire overfills that edge: both must be charged
        let grid = GcellGrid::new(4, 4).unwrap();
        let mut b = CapacityBuilder::uniform(&grid, 1.0);
        // the edge (1,1)-(2,1) gets capacity 0.4: one wire (net w) plus
        // ½ via pressure (net t's turn at (1,1)) both overflow it
        b.set_tracks(grid.h_edge(1, 1).unwrap(), 0.4);
        let cap = b.build(&grid).unwrap();
        let design = Design::new(
            grid,
            cap,
            vec![
                Net::new("t", vec![Point::new(1, 0), Point::new(0, 1)]),
                Net::new("w", vec![Point::new(0, 1), Point::new(3, 1)]),
            ],
            3,
        )
        .unwrap();
        let solution = RoutingSolution::from_routes(
            &design,
            vec![
                NetRoute {
                    net: 0,
                    tree: 0,
                    // turn at (1,1): via pressure reaches edge (1,1)-(2,1)
                    paths: vec![RoutePath {
                        corners: vec![Point::new(1, 0), Point::new(1, 1), Point::new(0, 1)],
                    }],
                },
                NetRoute {
                    net: 1,
                    tree: 1,
                    paths: vec![RoutePath {
                        corners: vec![Point::new(0, 1), Point::new(3, 1)],
                    }],
                },
            ],
        )
        .unwrap();
        let record = attribute_solution(&design, &solution, &CostWeights::default(), "final");
        let charged: Vec<u64> = record.nets.iter().map(|n| n.net).collect();
        assert!(charged.contains(&0), "turning net charged via pressure");
        assert!(charged.contains(&1), "crossing net charged");
        assert_eq!(record.charged_excess, record.total_excess);
    }
}
