//! Property tests for the A\* maze kernel against an independent
//! reference.
//!
//! The reference is label-correcting relaxation to a fixpoint over the
//! same (cell, incoming axis) state space — no heap, no heuristic, no
//! shared code with the kernel. Edge costs are integers and turn costs
//! multiples of ¼, so every path cost is exact in `f32` and the optimum
//! can be compared with `==`.

use dgr_grid::maze::{maze_route, MazeConfig, MazeScratch};
use dgr_grid::{EdgeId, GcellGrid, Point, Rect};
use proptest::prelude::*;

const MAX_SIDE: u32 = 24;

/// The window the kernel documents: `bounds` clamped to the grid, then
/// grown to contain both terminals.
fn window(grid: &GcellGrid, cfg: &MazeConfig, from: Point, to: Point) -> Rect {
    let b = cfg
        .bounds
        .unwrap_or_else(|| grid.bounds())
        .inflate_clamped(0, grid.bounds());
    let mut pts = vec![from, to];
    pts.extend([b.lo, b.hi]);
    Rect::bounding(&pts)
}

/// Cheapest cost from `from` to `to` inside the window, or `None` when
/// unreachable.
fn reference_optimum(
    grid: &GcellGrid,
    from: Point,
    to: Point,
    cost: &dyn Fn(EdgeId) -> f32,
    cfg: &MazeConfig,
) -> Option<f32> {
    let win = window(grid, cfg, from, to);
    let state = |p: Point, axis: usize| grid.cell_id(p).unwrap().index() * 2 + axis;
    let mut dist = vec![f32::INFINITY; grid.num_cells() * 2];
    dist[state(from, 0)] = 0.0;
    dist[state(from, 1)] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for p in win.cells() {
            for q in grid.neighbors(p).filter(|&q| win.contains(q)) {
                let step = cost(grid.edge_between(p, q).unwrap());
                let new_axis = usize::from(p.x == q.x);
                for axis in 0..2 {
                    let turn = if axis != new_axis && p != from {
                        cfg.turn_cost
                    } else {
                        0.0
                    };
                    let nd = dist[state(p, axis)] + step + turn;
                    if nd < dist[state(q, new_axis)] {
                        dist[state(q, new_axis)] = nd;
                        changed = true;
                    }
                }
            }
        }
    }
    let best = dist[state(to, 0)].min(dist[state(to, 1)]);
    best.is_finite().then_some(best)
}

/// Cost of a corner polyline: its edges plus one turn per interior corner.
fn polyline_cost(
    grid: &GcellGrid,
    corners: &[Point],
    cost: &dyn Fn(EdgeId) -> f32,
    turn_cost: f32,
) -> f32 {
    let wire: f32 = grid.polyline_edges(corners).unwrap().map(cost).sum();
    wire + turn_cost * corners.len().saturating_sub(2) as f32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn astar_matches_reference_optimum(
        w in 1u32..=MAX_SIDE,
        h in 1u32..=MAX_SIDE,
        raw_costs in proptest::collection::vec(0u32..58, (2 * MAX_SIDE * MAX_SIDE) as usize),
        ends in (0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000),
        raw_window in proptest::option::of((0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000)),
        quarter_turns in 0u32..13,
        warm_up in proptest::collection::vec((0u32..1000, 0u32..1000), 0..3),
    ) {
        let grid = GcellGrid::new(w, h).unwrap();
        let at = |x: u32, y: u32| Point::new((x % w) as i32, (y % h) as i32);
        let (from, to) = (at(ends.0, ends.1), at(ends.2, ends.3));
        // [1, 50] with a third of the edges at exactly 1, where the
        // heuristic is tight; about one edge in seven blocked
        let cost = |e: EdgeId| match raw_costs[e.index()] {
            c if c < 50 && c % 3 == 0 => 1.0,
            c if c < 50 => (c + 1) as f32,
            _ => f32::INFINITY,
        };
        let cfg = MazeConfig {
            bounds: raw_window.map(|(x0, y0, x1, y1)| Rect::bounding(&[at(x0, y0), at(x1, y1)])),
            turn_cost: quarter_turns as f32 * 0.25,
        };

        let path = maze_route(&grid, from, to, cost, &cfg);
        let optimum = reference_optimum(&grid, from, to, &cost, &cfg);
        prop_assert_eq!(path.is_some(), optimum.is_some(), "reachability differs");

        // a scratch that has already served other searches, on other
        // windows, answers exactly like a fresh one
        let mut used = MazeScratch::new();
        for &(x, y) in &warm_up {
            used.route(&grid, at(x, y), from, cost, &MazeConfig { bounds: None, ..cfg });
        }
        prop_assert_eq!(&used.route(&grid, from, to, cost, &cfg), &path);

        if let Some(path) = path {
            prop_assert_eq!(path[0], from);
            prop_assert_eq!(*path.last().unwrap(), to);
            let win = window(&grid, &cfg, from, to);
            for s in path.windows(2) {
                prop_assert!(s[0].is_aligned_with(s[1]) && s[0] != s[1], "segment {s:?}");
                prop_assert!(win.contains(s[0]) && win.contains(s[1]), "{s:?} leaves {win:?}");
            }
            prop_assert_eq!(polyline_cost(&grid, &path, &cost, cfg.turn_cost), optimum.unwrap());
        }
    }
}
