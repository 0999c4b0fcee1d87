//! A\* maze routing on the g-cell grid.
//!
//! The one search engine in the tree, used by every sequential baseline,
//! by the core router's adaptive forest expansion and by the congestion
//! refinement pass: single-pair shortest path under an arbitrary per-edge
//! cost, with an optional turn penalty (states are (cell, incoming axis)
//! pairs so turns are charged exactly).
//!
//! **Cost contract.** Every edge cost must be `≥ 1.0` (or non-finite,
//! which blocks the edge). All callers charge `1.0 + penalty`, which is
//! what makes the Manhattan distance to the target an admissible and
//! consistent heuristic: the search pops states in order of
//! `g + manhattan(cell, to)` and stops at the first pop of the target,
//! which is optimal. Ties in that key are broken by state index —
//! `(y, x, axis)` lexicographic, lowest first — so the result is
//! deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::geom::{Point, Rect};
use crate::grid::{GcellGrid, MAX_SIDE};
use crate::ids::EdgeId;

/// Search options for [`maze_route`].
#[derive(Debug, Clone, Copy)]
pub struct MazeConfig {
    /// Restrict the search to this rectangle (default: whole grid).
    /// The rectangle is automatically inflated to contain both endpoints.
    pub bounds: Option<Rect>,
    /// Extra cost charged every time the path changes axis.
    pub turn_cost: f32,
}

impl Default for MazeConfig {
    fn default() -> Self {
        MazeConfig {
            bounds: None,
            turn_cost: 0.5,
        }
    }
}

// A state packs into 31 bits as `y << 16 | x << 1 | axis`, so that integer
// order is (y, x, axis) order and no division is needed to decode it.
const _: () = assert!(MAX_SIDE <= 1 << 15);
const NO_PREV: u32 = u32::MAX;

fn pack(x: i32, y: i32, axis: u32) -> u32 {
    (y as u32) << 16 | (x as u32) << 1 | axis
}

fn unpack(state: u32) -> (i32, i32, u32) {
    (
        (state >> 1 & 0x7fff) as i32,
        (state >> 16) as i32,
        state & 1,
    )
}

/// Label of one search state; valid only while `stamp` equals the
/// scratch's current epoch.
#[derive(Clone, Copy)]
struct Node {
    dist: f32,
    prev: u32,
    stamp: u32,
}

/// Reusable state of the search kernel, plus counts of the work done
/// through it.
///
/// Labels are epoch-stamped and indexed inside the search window, so a
/// search pays only for the states it touches — not for clearing the
/// window, let alone the grid. One scratch serves any sequence of
/// searches on any grids; a reused scratch returns exactly what a fresh
/// one would.
#[derive(Default)]
pub struct MazeScratch {
    nodes: Vec<Node>,
    epoch: u32,
    /// Min-heap of `f.to_bits() << 32 | state`: non-negative floats order
    /// like their bit patterns, so one integer compare orders by `f`, then
    /// by state.
    heap: BinaryHeap<Reverse<u64>>,
    cells: Vec<Point>,
    /// Searches run (a windowed search and its escalation count as two).
    pub searches: usize,
    /// Full-grid searches run by [`MazeScratch::route_escalating`] after
    /// the windowed result was rejected.
    pub escalations: usize,
    /// Heap pops over all searches: every state expanded plus every stale
    /// entry skipped — the unit of search work.
    pub states_expanded: usize,
}

impl MazeScratch {
    /// An empty scratch; buffers grow to the largest window searched.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds the cheapest rectilinear path from `from` to `to` under
    /// `edge_cost` (see the [module docs](self) for the cost contract),
    /// returning the corner polyline (both endpoints included), or `None`
    /// when no path exists inside the search bounds (e.g. all edges are
    /// `f32::INFINITY`).
    pub fn route<F>(
        &mut self,
        grid: &GcellGrid,
        from: Point,
        to: Point,
        edge_cost: F,
        cfg: &MazeConfig,
    ) -> Option<Vec<Point>>
    where
        F: Fn(EdgeId) -> f32,
    {
        if !grid.contains(from) || !grid.contains(to) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        self.searches += 1;
        let (lo, hi) = {
            let b = cfg
                .bounds
                .unwrap_or_else(|| grid.bounds())
                .inflate_clamped(0, grid.bounds());
            // make sure both terminals are inside
            (
                Point::new(b.lo.x.min(from.x).min(to.x), b.lo.y.min(from.y).min(to.y)),
                Point::new(b.hi.x.max(from.x).max(to.x), b.hi.y.max(from.y).max(to.y)),
            )
        };
        let w = hi.x - lo.x + 1;
        let states = (w * (hi.y - lo.y + 1)) as usize * 2;
        if self.nodes.len() < states {
            let blank = Node {
                dist: 0.0,
                prev: NO_PREV,
                stamp: 0,
            };
            self.nodes.resize(states, blank);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // the counter wrapped: labels of 2³² searches ago would look current
            self.nodes.iter_mut().for_each(|n| n.stamp = 0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let nodes = &mut self.nodes[..states];
        let heap = &mut self.heap;
        heap.clear();

        // the grid's documented id layout: horizontal edge (x, y)→(x+1, y)
        // is y·(W−1) + x, vertical edge (x, y)→(x, y+1) is H + y·W + x
        let gw = grid.width() as i32;
        let v_base = grid.num_h_edges() as i32;
        let index =
            |x: i32, y: i32, axis: u32| ((y - lo.y) * w + (x - lo.x)) as usize * 2 + axis as usize;
        let key = |g: f32, x: i32, y: i32, axis: u32| {
            let f = g + ((x - to.x).abs() + (y - to.y).abs()) as f32;
            (f.to_bits() as u64) << 32 | pack(x, y, axis) as u64
        };

        for axis in 0..2 {
            nodes[index(from.x, from.y, axis)] = Node {
                dist: 0.0,
                prev: NO_PREV,
                stamp: epoch,
            };
            heap.push(Reverse(key(0.0, from.x, from.y, axis)));
        }

        let mut goal = None;
        while let Some(Reverse(popped)) = heap.pop() {
            let state = popped as u32;
            let (x, y, axis) = unpack(state);
            let d = nodes[index(x, y, axis)].dist;
            self.states_expanded += 1;
            if popped > key(d, x, y, axis) {
                continue; // stale: the state was relabelled after this push
            }
            if x == to.x && y == to.y {
                goal = Some(state);
                break;
            }
            // (neighbour, edge to it, axis of the move), bounds permitting
            let moves = [
                (x < hi.x, x + 1, y, y * (gw - 1) + x, 0),
                (x > lo.x, x - 1, y, y * (gw - 1) + x - 1, 0),
                (y < hi.y, x, y + 1, v_base + y * gw + x, 1),
                (y > lo.y, x, y - 1, v_base + (y - 1) * gw + x, 1),
            ];
            for (inside, qx, qy, e, new_axis) in moves {
                if !inside {
                    continue;
                }
                let step = edge_cost(EdgeId::new(e as u32));
                debug_assert!(step >= 1.0 || step.is_nan(), "edge cost {step} < 1");
                if !step.is_finite() {
                    continue;
                }
                let turn = if axis != new_axis && d > 0.0 {
                    cfg.turn_cost
                } else {
                    0.0
                };
                let nd = d + step + turn;
                let node = &mut nodes[index(qx, qy, new_axis)];
                if node.stamp != epoch || nd < node.dist {
                    *node = Node {
                        dist: nd,
                        prev: state,
                        stamp: epoch,
                    };
                    heap.push(Reverse(key(nd, qx, qy, new_axis)));
                }
            }
        }

        let mut state = goal?;
        self.cells.clear();
        while state != NO_PREV {
            let (x, y, axis) = unpack(state);
            self.cells.push(Point::new(x, y));
            state = nodes[index(x, y, axis)].prev;
        }
        self.cells.reverse();
        debug_assert_eq!(self.cells[0], from);
        Some(compress_corners(&self.cells))
    }

    /// The rip-up-and-reroute search every sequential router here uses:
    /// search the bounding box of the endpoints inflated by `margin`, and
    /// when that finds nothing, or a path with an edge that is not
    /// `clean` (it still rides overflow), search the whole grid instead.
    pub fn route_escalating<F, C>(
        &mut self,
        grid: &GcellGrid,
        (from, to): (Point, Point),
        margin: i32,
        turn_cost: f32,
        edge_cost: F,
        clean: C,
    ) -> Option<Vec<Point>>
    where
        F: Fn(EdgeId) -> f32,
        C: Fn(EdgeId) -> bool,
    {
        let window = Rect::bounding(&[from, to]).inflate_clamped(margin, grid.bounds());
        let mut cfg = MazeConfig {
            bounds: Some(window),
            turn_cost,
        };
        let windowed = self.route(grid, from, to, &edge_cost, &cfg);
        let is_clean = |corners: &Vec<Point>| {
            grid.polyline_edges(corners)
                .expect("searched paths stay on the grid")
                .all(&clean)
        };
        if windowed.as_ref().is_some_and(is_clean) {
            return windowed;
        }
        self.escalations += 1;
        cfg.bounds = None;
        self.route(grid, from, to, &edge_cost, &cfg)
    }
}

/// [`MazeScratch::route`] on a fresh scratch, for callers that search
/// once.
///
/// # Examples
///
/// ```
/// use dgr_grid::maze::{maze_route, MazeConfig};
/// use dgr_grid::{GcellGrid, Point};
///
/// let grid = GcellGrid::new(8, 8)?;
/// let path = maze_route(
///     &grid,
///     Point::new(0, 0),
///     Point::new(5, 3),
///     |_| 1.0,
///     &MazeConfig::default(),
/// )
/// .expect("uniform grid is connected");
/// assert_eq!(path.first(), Some(&Point::new(0, 0)));
/// assert_eq!(path.last(), Some(&Point::new(5, 3)));
/// # Ok::<(), dgr_grid::GridError>(())
/// ```
pub fn maze_route<F>(
    grid: &GcellGrid,
    from: Point,
    to: Point,
    edge_cost: F,
    cfg: &MazeConfig,
) -> Option<Vec<Point>>
where
    F: Fn(EdgeId) -> f32,
{
    MazeScratch::new().route(grid, from, to, edge_cost, cfg)
}

/// Collapses a unit-step cell sequence into its corner polyline.
pub fn compress_corners(cells: &[Point]) -> Vec<Point> {
    if cells.len() <= 2 {
        return cells.to_vec();
    }
    let mut out = vec![cells[0]];
    for i in 1..cells.len() - 1 {
        let a = *out.last().expect("non-empty");
        let b = cells[i];
        let c = cells[i + 1];
        let collinear = (a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y);
        if !collinear {
            out.push(b);
        }
    }
    out.push(*cells.last().expect("non-empty"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GcellGrid {
        GcellGrid::new(10, 10).unwrap()
    }

    #[test]
    fn uniform_cost_gives_manhattan_length() {
        let g = grid();
        let path = maze_route(
            &g,
            Point::new(1, 1),
            Point::new(7, 5),
            |_| 1.0,
            &MazeConfig::default(),
        )
        .unwrap();
        let len: u32 = path.windows(2).map(|w| w[0].manhattan_distance(w[1])).sum();
        assert_eq!(len, 10);
        // with a turn penalty the path should be an L (one turn)
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn detours_around_blocked_wall() {
        let g = grid();
        // wall of infinite cost on column x=4 except y=9
        let cost = |e: EdgeId| {
            let (a, b) = g.edge_endpoints(e);
            let crosses = (a.x == 4 && b.x == 5) || (a.x == 3 && b.x == 4);
            if crosses && a.y < 9 {
                f32::INFINITY
            } else {
                1.0
            }
        };
        let path = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(9, 0),
            cost,
            &MazeConfig {
                bounds: None,
                turn_cost: 0.0,
            },
        )
        .unwrap();
        let len: u32 = path.windows(2).map(|w| w[0].manhattan_distance(w[1])).sum();
        assert!(len >= 9 + 18, "must detour through y=9, got {len}");
        // verify the polyline is rectilinear and connected
        for w in path.windows(2) {
            assert!(w[0].is_aligned_with(w[1]));
        }
    }

    #[test]
    fn fully_blocked_is_none() {
        let g = grid();
        let path = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(9, 9),
            |_| f32::INFINITY,
            &MazeConfig::default(),
        );
        assert!(path.is_none());
    }

    #[test]
    fn trivial_and_degenerate_cases() {
        let g = grid();
        let p = maze_route(
            &g,
            Point::new(3, 3),
            Point::new(3, 3),
            |_| 1.0,
            &MazeConfig::default(),
        )
        .unwrap();
        assert_eq!(p, vec![Point::new(3, 3)]);
        assert!(maze_route(
            &g,
            Point::new(0, 0),
            Point::new(50, 50),
            |_| 1.0,
            &MazeConfig::default()
        )
        .is_none());
    }

    #[test]
    fn bounds_inflate_to_contain_terminals() {
        let g = grid();
        let tight = Rect::new(Point::new(4, 4), Point::new(5, 5));
        let path = maze_route(
            &g,
            Point::new(2, 2),
            Point::new(7, 7),
            |_| 1.0,
            &MazeConfig {
                bounds: Some(tight),
                turn_cost: 0.0,
            },
        )
        .unwrap();
        assert_eq!(path.first(), Some(&Point::new(2, 2)));
        assert_eq!(path.last(), Some(&Point::new(7, 7)));
    }

    #[test]
    fn turn_penalty_prefers_fewer_corners() {
        let g = grid();
        // cheap zig-zag bait: make straight edges slightly pricier
        let cost = |_e: EdgeId| 1.0;
        let no_penalty = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(5, 5),
            cost,
            &MazeConfig {
                bounds: None,
                turn_cost: 0.0,
            },
        )
        .unwrap();
        let with_penalty = maze_route(
            &g,
            Point::new(0, 0),
            Point::new(5, 5),
            cost,
            &MazeConfig {
                bounds: None,
                turn_cost: 2.0,
            },
        )
        .unwrap();
        assert!(with_penalty.len() <= no_penalty.len());
        assert_eq!(with_penalty.len(), 3); // an L
    }

    #[test]
    fn escalates_only_when_the_window_cannot_stay_clean() {
        let g = GcellGrid::new(12, 12).unwrap();
        // a dirty (expensive) cut between x=5 and x=6, open from row 10 up
        let dirty = |e: EdgeId| {
            let (a, b) = g.edge_endpoints(e);
            a.x == 5 && b.x == 6 && a.y < 10
        };
        let cost = |e| if dirty(e) { 100.0 } else { 1.0 };
        let ends = (Point::new(2, 1), Point::new(9, 1));
        let length =
            |p: &[Point]| -> u32 { p.windows(2).map(|w| w[0].manhattan_distance(w[1])).sum() };

        // rows 0..=3 cannot dodge the cut: the full grid can, through row 10
        let mut scratch = MazeScratch::new();
        let path = scratch
            .route_escalating(&g, ends, 2, 0.0, cost, |e| !dirty(e))
            .unwrap();
        assert_eq!(length(&path), 7 + 2 * 9);
        assert_eq!((scratch.searches, scratch.escalations), (2, 1));

        // a window that reaches row 10 finds the same detour by itself
        let mut scratch = MazeScratch::new();
        let path = scratch
            .route_escalating(&g, ends, 9, 0.0, cost, |e| !dirty(e))
            .unwrap();
        assert_eq!(length(&path), 7 + 2 * 9);
        assert_eq!((scratch.searches, scratch.escalations), (1, 0));
        assert!(scratch.states_expanded > 0);
    }

    #[test]
    fn compress_corners_removes_collinear_points() {
        let cells = vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(2, 1),
            Point::new(2, 2),
        ];
        assert_eq!(
            compress_corners(&cells),
            vec![Point::new(0, 0), Point::new(2, 0), Point::new(2, 2)]
        );
    }
}
