//! Property tests for the demand ledger ([`DemandMap`]) against
//! references written the slow way.
//!
//! Random designs with non-uniform `β`, pins (capacities that are not
//! dyadic) and blocked edges take random sequences of polyline and id-list
//! commits and rip-ups. After every one of 1 000 ledger states: the wire and
//! via arrays equal a unit-step recount of what is still committed;
//! `total(e)` is *bitwise* the endpoint walk it replaced; `marginal` equals
//! its defining expression; an overflow mask refreshed only at
//! `touched_edges` equals a fresh one; and the mask, `OverflowStats` and
//! `edge_excess` agree edge by edge on what is overflowed.

use dgr_grid::demand::{excess, touched_edges};
use dgr_grid::{
    edge_excess, CapacityBuilder, CapacityModel, DemandMap, EdgeId, GcellGrid, GcellId,
    OverflowStats, Point, OVERFLOW_EPS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Eq. (2) by the walk `DemandMap::total` made on every call before the
/// endpoints were resolved once per design: edge → endpoint points → cell
/// ids → `β`, in this float order.
fn total_by_walk(grid: &GcellGrid, cap: &CapacityModel, demand: &DemandMap, e: EdgeId) -> f32 {
    let (a, b) = grid.edge_endpoints(e);
    let ia = grid.cell_id(a).expect("endpoint in bounds");
    let ib = grid.cell_id(b).expect("endpoint in bounds");
    demand.wire(e)
        + 0.5 * cap.beta(ia) * demand.via_pressure_slice()[ia.index()]
        + 0.5 * cap.beta(ib) * demand.via_pressure_slice()[ib.index()]
}

/// Something committed: a corner polyline, or a path as edge and
/// turn-cell ids.
enum Committed {
    Line(Vec<Point>),
    Ids(Vec<u32>, Vec<u32>),
}

fn random_design(rng: &mut StdRng) -> (GcellGrid, CapacityModel) {
    let grid = GcellGrid::new(rng.gen_range(3..12), rng.gen_range(3..12)).unwrap();
    let mut b = CapacityBuilder::uniform(&grid, rng.gen_range(1..4) as f32);
    for _ in 0..rng.gen_range(0..6) {
        b.set_tracks(EdgeId::new(rng.gen_range(0..grid.num_edges() as u32)), 0.0);
    }
    for _ in 0..rng.gen_range(2..10) {
        let p = grid.cell_point(GcellId::new(rng.gen_range(0..grid.num_cells() as u32)));
        let beta = [0.25f32, 0.5, 1.0 / 3.0, 0.7, 2.0][rng.gen_range(0..5usize)];
        b = b.set_beta(&grid, p, beta).unwrap();
        b = b.add_pins(&grid, p, rng.gen_range(0..3)).unwrap();
    }
    let cap = b.build(&grid).unwrap();
    (grid, cap)
}

fn random_line(rng: &mut StdRng, grid: &GcellGrid) -> Vec<Point> {
    let (w, h) = (grid.width() as i32, grid.height() as i32);
    let mut corners = vec![Point::new(rng.gen_range(0..w), rng.gen_range(0..h))];
    let mut horizontal = rng.gen_range(0..2) == 0;
    for _ in 0..rng.gen_range(1..5) {
        let last = corners[corners.len() - 1];
        corners.push(if horizontal {
            Point::new(rng.gen_range(0..w), last.y)
        } else {
            Point::new(last.x, rng.gen_range(0..h))
        });
        horizontal = !horizontal;
    }
    corners
}

#[test]
fn the_ledger_equals_its_references_over_1000_random_states() {
    let mut states = 0;
    let (mut overflowed, mut fractional_marginals) = (0usize, 0usize);
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (grid, cap) = random_design(&mut rng);
        let mut demand = DemandMap::new(&grid);
        let mut kept_mask = demand.overflow_mask(&cap);
        let mut active: Vec<Committed> = Vec::new();
        for _ in 0..25 {
            // one commit or rip-up, then the mask refreshed where it says
            let rip = !active.is_empty() && rng.gen_range(0..10) < 3;
            let op = if rip {
                active.swap_remove(rng.gen_range(0..active.len()))
            } else if rng.gen_range(0..3) == 0 {
                let edges = (0..rng.gen_range(0..8))
                    .map(|_| rng.gen_range(0..grid.num_edges() as u32))
                    .collect();
                let cells = (0..rng.gen_range(0..3))
                    .map(|_| rng.gen_range(0..grid.num_cells() as u32))
                    .collect();
                Committed::Ids(edges, cells)
            } else {
                Committed::Line(random_line(&mut rng, &grid))
            };
            let touched: Vec<EdgeId> = match &op {
                Committed::Line(corners) => {
                    if rip {
                        demand.rip_up(&grid, corners).unwrap();
                    } else {
                        demand.commit(&grid, corners).unwrap();
                    }
                    touched_edges(&grid, &cap, corners).unwrap().collect()
                }
                Committed::Ids(edges, cells) => {
                    if rip {
                        demand.rip_up_ids(edges, cells);
                    } else {
                        demand.commit_ids(edges, cells);
                    }
                    let around = cells
                        .iter()
                        .flat_map(|&v| cap.incident_edges(GcellId::new(v)).iter().copied());
                    edges
                        .iter()
                        .map(|&e| EdgeId::new(e))
                        .chain(around)
                        .collect()
                }
            };
            for e in touched {
                kept_mask[e.index()] = demand.is_over(&cap, e);
            }
            if !rip {
                active.push(op);
            }
            states += 1;

            // arrays against a unit-step recount of what is committed
            let mut wire = vec![0.0f32; grid.num_edges()];
            let mut vp = vec![0.0f32; grid.num_cells()];
            for op in &active {
                match op {
                    Committed::Line(corners) => {
                        for w in corners.windows(2) {
                            let mut p = w[0];
                            while p != w[1] {
                                let step = Point::new(
                                    p.x + (w[1].x - p.x).signum(),
                                    p.y + (w[1].y - p.y).signum(),
                                );
                                wire[grid.edge_between(p, step).unwrap().index()] += 1.0;
                                p = step;
                            }
                        }
                        for &turn in &corners[1..corners.len() - 1] {
                            vp[grid.cell_id(turn).unwrap().index()] += 1.0;
                        }
                    }
                    Committed::Ids(edges, cells) => {
                        edges.iter().for_each(|&e| wire[e as usize] += 1.0);
                        cells.iter().for_each(|&v| vp[v as usize] += 1.0);
                    }
                }
            }
            assert_eq!(demand.wire_slice(), wire, "seed {seed}");
            assert_eq!(demand.via_pressure_slice(), vp, "seed {seed}");

            // every question, edge by edge
            let stats = OverflowStats::measure(&grid, &cap, &demand);
            let excesses = edge_excess(&grid, &cap, &demand);
            let fresh_mask = demand.overflow_mask(&cap);
            assert_eq!(kept_mask, fresh_mask, "seed {seed}");
            assert_eq!(
                fresh_mask.iter().filter(|&&over| over).count(),
                stats.overflowed_edges,
                "seed {seed}"
            );
            let half_beta = cap.half_beta(GcellId::new(rng.gen_range(0..grid.num_cells() as u32)));
            for e in grid.edge_ids() {
                let d = total_by_walk(&grid, &cap, &demand, e);
                assert_eq!(demand.total(&cap, e).to_bits(), d.to_bits(), "{e}");
                let c = cap.capacity(e);
                for add in [1.0, half_beta] {
                    let want = (d + add - c).max(0.0) - (d - c).max(0.0);
                    assert_eq!(demand.marginal(&cap, e, add).to_bits(), want.to_bits());
                    fractional_marginals += usize::from(want > 0.0 && want < add);
                }
                assert_eq!(demand.is_over(&cap, e), d - c > OVERFLOW_EPS, "{e}");
                assert_eq!(demand.is_over(&cap, e), excesses[e.index()] > 0.0, "{e}");
                assert_eq!(excesses[e.index()], excess(d, c), "{e}");
                assert_eq!(fresh_mask[e.index()], demand.is_over(&cap, e), "{e}");
            }
            overflowed += stats.overflowed_edges;
        }
        // ripping everything up lands on exact zeros
        for op in active {
            match op {
                Committed::Line(corners) => demand.rip_up(&grid, &corners).unwrap(),
                Committed::Ids(edges, cells) => demand.rip_up_ids(&edges, &cells),
            }
        }
        assert_eq!(demand, DemandMap::new(&grid), "seed {seed}");
    }
    assert_eq!(states, 1000);
    assert!(overflowed > 1000, "only {overflowed} overflowed edges seen");
    assert!(fractional_marginals > 100, "{fractional_marginals}");
}
