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
//!
//! # The window certificate
//!
//! [`MazeScratch::route_escalating`] owes its caller the *whole grid's*
//! answer whenever the window's is not clean, and most of the time the
//! window can prove that its answer is that answer. A path that leaves the
//! window splits at the cell `b` it first leaves from and the cell `r` it
//! last comes back to; by the cost contract it costs at least
//!
//! ```text
//! LB = min over (b, r) of  d_from(b) + 1 + manhattan(b_out, r_out) + 1 + d_to(r)
//! ```
//!
//! where `b_out` and `r_out` are the outside cells across the window side
//! (only sides that are not grid borders have any), `d_from` is the
//! in-window distance from the source and `d_to` the one to the target
//! with no turn cost — dropping it can only lower `d_to`, so the bound
//! needs no argument about the axis a path comes back in on.
//!
//! `d_from` is read off the windowed search as it stopped, at the target's
//! pop with key `C_w`. A state it has not expanded by then has
//! `d + h ≥ C_w` for its true distance `d`, its label (if any) is `≥ d`,
//! and a walk that goes on from it, out of the window and back to the
//! target is not monotone, so it has at least `h + 2` edges: every term of
//! the minimum that a missing or loose label changes is `≥ C_w + 2` before
//! and after, and the comparison below reads the same as with exact
//! distances. One two-pass L1 distance transform of the window padded by
//! a cell then gives, for every `r_out`, the cheapest way to stand there
//! having left — the minimum over `b`, not a double loop — and the
//! minimum over `r` is one more windowed search: from every `r` at once,
//! each starting at what it costs to get there, to the target. It pops the
//! target at `LB`, or is stopped at the first key `≥ C_w + 0.5`, whichever
//! comes first; where a path that comes back in in line with the target
//! and carries straight on to it is already cheaper than that, so is `LB`,
//! and the search is skipped.
//!
//! When `LB ≥ C_w + 0.5` (half a unit is far above the `f32` rounding of
//! these sums and only makes the test more conservative), every optimal
//! path of the grid lies in the window and each of its states has the same
//! label in both searches. Pops are ordered by `(g + h, state)` and `prev`
//! is set by the first expansion to reach the final label (the relaxation
//! is a strict `<`), so the grid search would pop the same goal state and
//! walk the same `prev` chain: the same *polyline*, not only the same
//! cost. DESIGN.md §4 has the argument in full. Otherwise the grid is
//! searched.
//!
//! # The frontier
//!
//! A search pushes and pops keys `f.to_bits() << 32 | state`: `f = g + h`
//! first (non-negative floats order like their bits), then the state's
//! index in the search window, `(y − lo.y) << row_shift | (x − lo.x) << 1 |
//! axis` with each row padded to a power of two. Within one search that
//! index orders states exactly as `(y, x, axis)` does, so the tie-break
//! above, and the certificate's argument, read the same in every window.
//! The frontier pops the keys in ascending order, each as often as it was
//! pushed — exactly what one binary heap of every key pops, stale entries
//! included, so [`SearchStats`] counts the same pops either way.
//!
//! It holds the keys at the lowest cost in flight and at the three costs
//! exactly 1, 2 and 3 above it as bitsets over the window's states, with a
//! summary bit per word, and every other key on a binary heap; a pop takes
//! the lower of the lowest non-empty level's first state and the heap's
//! top, and decodes `(x, y, axis)` with shifts. Under the costs every
//! caller charges — `1` for an edge off the overflow, turns of `1` — a
//! step towards the target keeps `f` and a turn or a step away raises it
//! by 1 or 2, so nearly every push is a bit set: 96 % of them on the
//! benchmark's `large_quick_route`. Penalty-priced keys, fractional costs,
//! the certificate's starts and anything `f32` rounding puts below the
//! lowest level go to the heap. A bitset for every distinct cost would
//! scan a window's worth of summary words for each sparse level, and
//! searches over penalty-priced edges carry many: 109 distinct costs at
//! once in `large_quick_route`'s windows, 976 in the full-grid escalations
//! of Fig. 5's 2 000-net design.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

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

// A state is indexed inside its search's window as `(y − lo.y) << row_shift
// | (x − lo.x) << 1 | axis`, each row padded to a power of two: integer
// order is (y, x, axis) order, decoding is shifts and masks, and a window
// as large as the largest grid still indexes in 31 bits.
const _: () = assert!(MAX_SIDE <= 1 << 15);
const NO_PREV: u32 = u32::MAX;

/// Label of one search state; valid only while `stamp` equals the
/// scratch's current epoch.
#[derive(Clone, Copy)]
struct Node {
    dist: f32,
    prev: u32,
    stamp: u32,
}

/// What stays fixed through one search: the window (both corners
/// inclusive) its states are indexed in, the target its heuristic points
/// at, and the turn cost.
#[derive(Clone, Copy)]
struct Search {
    lo: Point,
    hi: Point,
    to: Point,
    turn_cost: f32,
    /// log₂ of a padded row's states: the window's width rounded up to a
    /// power of two, two states a cell.
    row_shift: u32,
}

impl Search {
    /// `bounds` clamped to the grid, then grown to contain both terminals.
    fn new(grid: &GcellGrid, from: Point, to: Point, cfg: &MazeConfig) -> Self {
        let b = cfg
            .bounds
            .unwrap_or_else(|| grid.bounds())
            .inflate_clamped(0, grid.bounds());
        let lo = Point::new(b.lo.x.min(from.x).min(to.x), b.lo.y.min(from.y).min(to.y));
        let hi = Point::new(b.hi.x.max(from.x).max(to.x), b.hi.y.max(from.y).max(to.y));
        let width = (hi.x - lo.x + 1) as u32;
        Search {
            lo,
            hi,
            to,
            turn_cost: cfg.turn_cost,
            row_shift: width.next_power_of_two().trailing_zeros() + 1,
        }
    }

    fn width(&self) -> i32 {
        self.hi.x - self.lo.x + 1
    }

    fn height(&self) -> i32 {
        self.hi.y - self.lo.y + 1
    }

    /// The number of state indices, padding included.
    fn states(&self) -> usize {
        (self.height() as usize) << self.row_shift
    }

    fn state(&self, x: i32, y: i32, axis: u32) -> u32 {
        ((y - self.lo.y) as u32) << self.row_shift | ((x - self.lo.x) as u32) << 1 | axis
    }

    /// The cell and axis of `state`.
    fn decode(&self, state: u32) -> (i32, i32, u32) {
        let column = state >> 1 & ((1 << (self.row_shift - 1)) - 1);
        (
            self.lo.x + column as i32,
            self.lo.y + (state >> self.row_shift) as i32,
            state & 1,
        )
    }

    /// `f.to_bits() << 32 | state` for `f = g + manhattan(cell, to)`.
    fn key(&self, g: f32, x: i32, y: i32, state: u32) -> u64 {
        let f = g + ((x - self.to.x).abs() + (y - self.to.y).abs()) as f32;
        (f.to_bits() as u64) << 32 | state as u64
    }

    /// Every way out of the window: a window cell on a side that is not a
    /// grid border, the index of the outside cell across that side in the
    /// window padded by one cell all round (row-major, `width() + 2` wide),
    /// and the axis of the step across. A corner cell has two ways out.
    fn exits(&self, grid: &GcellGrid) -> impl Iterator<Item = (Point, usize, u32)> {
        let (lo, hi) = (self.lo, self.hi);
        let padded_width = self.width() as usize + 2;
        let padded =
            move |x: i32, y: i32| (y - lo.y + 1) as usize * padded_width + (x - lo.x + 1) as usize;
        let columns = [
            (lo.x, lo.x - 1, lo.x > 0),
            (hi.x, hi.x + 1, hi.x + 1 < grid.width() as i32),
        ];
        let rows = [
            (lo.y, lo.y - 1, lo.y > 0),
            (hi.y, hi.y + 1, hi.y + 1 < grid.height() as i32),
        ];
        let across_columns =
            columns
                .into_iter()
                .filter(|&(_, _, open)| open)
                .flat_map(move |(x, out, _)| {
                    (lo.y..=hi.y).map(move |y| (Point::new(x, y), padded(out, y), 0))
                });
        let across_rows =
            rows.into_iter()
                .filter(|&(_, _, open)| open)
                .flat_map(move |(y, out, _)| {
                    (lo.x..=hi.x).map(move |x| (Point::new(x, y), padded(x, out), 1))
                });
        across_columns.chain(across_rows)
    }
}

/// Counts of the work done through one [`MazeScratch`], handed out by
/// copy ([`MazeScratch::stats`]): only the search kernel counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    searches: usize,
    escalations: usize,
    escalations_avoided: usize,
    states_expanded: usize,
}

impl SearchStats {
    /// Searches run: a windowed search, the certificate's search for a way
    /// back in and a full-grid escalation count as one each.
    pub fn searches(&self) -> usize {
        self.searches
    }

    /// Full-grid searches run by [`MazeScratch::route_escalating`] after
    /// the windowed result was rejected and could not be certified.
    pub fn escalations(&self) -> usize {
        self.escalations
    }

    /// Rejected windowed results that [`MazeScratch::route_escalating`]
    /// certified as the full grid's answer and returned without searching
    /// it.
    pub fn escalations_avoided(&self) -> usize {
        self.escalations_avoided
    }

    /// Heap pops over all searches, the certificate's included: every
    /// state expanded plus every stale entry skipped — the unit of search
    /// work.
    pub fn states_expanded(&self) -> usize {
        self.states_expanded
    }
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
pub struct MazeScratch(Engine<Buckets>);

impl MazeScratch {
    /// An empty scratch; buffers grow to the largest window searched.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work done through this scratch so far.
    pub fn stats(&self) -> SearchStats {
        self.0.stats
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
        self.0.search(grid, from, to, &edge_cost, cfg).1
    }

    /// The rip-up-and-reroute search every sequential router here uses:
    /// search the bounding box of the endpoints inflated by `margin`, and
    /// when that finds nothing, or a path with an edge that is not
    /// `clean` (it still rides overflow), return what a search of the whole
    /// grid returns — by running it, unless the window's own labels prove
    /// it would return the windowed result (see
    /// [the module docs](self#the-window-certificate)).
    pub fn route_escalating<F, C>(
        &mut self,
        grid: &GcellGrid,
        ends: (Point, Point),
        margin: i32,
        turn_cost: f32,
        edge_cost: F,
        clean: C,
    ) -> Option<Vec<Point>>
    where
        F: Fn(EdgeId) -> f32,
        C: Fn(EdgeId) -> bool,
    {
        self.0
            .route_escalating(grid, ends, margin, turn_cost, &edge_cost, &clean)
    }
}

/// The search kernel over a frontier `Q`: labels, the frontier, the
/// certificate's buffers and the counts. [`MazeScratch`] runs it on
/// [`Buckets`]; the tests run it on the plain heap as well.
#[derive(Default)]
struct Engine<Q> {
    nodes: Vec<Node>,
    epoch: u32,
    frontier: Q,
    cells: Vec<Point>,
    /// The certificate's view of the outside: per cell of the window
    /// padded by one, the cheapest way to be there having left the window.
    outside: Vec<f64>,
    stats: SearchStats,
}

impl<Q: Frontier> Engine<Q> {
    /// [`MazeScratch::route`], and the search it ran — none where there was
    /// nothing to search: an endpoint off the grid, or both the same cell.
    fn search<F>(
        &mut self,
        grid: &GcellGrid,
        from: Point,
        to: Point,
        edge_cost: &F,
        cfg: &MazeConfig,
    ) -> (Option<Search>, Option<Vec<Point>>)
    where
        F: Fn(EdgeId) -> f32,
    {
        if !grid.contains(from) || !grid.contains(to) {
            return (None, None);
        }
        if from == to {
            return (None, Some(vec![from]));
        }
        let search = Search::new(grid, from, to, cfg);
        self.begin(&search, [(from, 0.0)]);
        let path = self
            .advance(grid, &search, edge_cost, f32::INFINITY)
            .map(|goal| self.polyline(&search, goal));
        (Some(search), path)
    }

    /// Opens a search: a new epoch, an empty frontier, both states of every
    /// source labelled with its starting cost and pushed. (A source that
    /// starts at 0 takes its first step in either axis without a turn.)
    fn begin(&mut self, search: &Search, sources: impl IntoIterator<Item = (Point, f32)>) {
        self.stats.searches += 1;
        let states = search.states();
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
        self.frontier.open(search);
        for (p, start) in sources {
            for axis in 0..2 {
                let state = search.state(p.x, p.y, axis);
                let node = &mut self.nodes[state as usize];
                if node.stamp != self.epoch || start < node.dist {
                    *node = Node {
                        dist: start,
                        prev: NO_PREV,
                        stamp: self.epoch,
                    };
                    self.frontier.push(search.key(start, p.x, p.y, state));
                }
            }
        }
    }

    /// Pops and expands in `(g + h, state)` order up to the first pop of
    /// the target, whose state it returns; `None` if the frontier runs
    /// empty or reaches a key `g + h ≥ limit` first. Every state expanded
    /// carries its exact distance from the sources inside the window; a
    /// label not expanded yet is an upper bound on it, and every key left
    /// on the frontier is at least the last one popped.
    fn advance<F>(
        &mut self,
        grid: &GcellGrid,
        search: &Search,
        edge_cost: &F,
        limit: f32,
    ) -> Option<u32>
    where
        F: Fn(EdgeId) -> f32,
    {
        let &Search {
            lo,
            hi,
            to,
            turn_cost,
            row_shift,
        } = search;
        let epoch = self.epoch;
        let states = search.states();
        let nodes = &mut self.nodes[..states];
        let frontier = &mut self.frontier;

        // the grid's documented id layout: horizontal edge (x, y)→(x+1, y)
        // is y·(W−1) + x, vertical edge (x, y)→(x, y+1) is H + y·W + x
        let gw = grid.width() as i32;
        let v_base = grid.num_h_edges() as i32;

        while let Some(popped) = frontier.pop() {
            let state = popped as u32;
            let (x, y, axis) = search.decode(state);
            let d = nodes[state as usize].dist;
            self.stats.states_expanded += 1;
            if f32::from_bits((popped >> 32) as u32) >= limit {
                return None;
            }
            if popped > search.key(d, x, y, state) {
                continue; // stale: the state was relabelled after this push
            }
            if x == to.x && y == to.y {
                return Some(state);
            }
            // (neighbour, its state on the move's axis, edge to it, axis of
            // the move), bounds permitting
            let (cell, row) = (state & !1, 1 << row_shift);
            // the edges to the right of the cell and above it
            let (h, v) = (y * (gw - 1) + x, v_base + y * gw + x);
            let moves = [
                (x < hi.x, x + 1, y, cell + 2, h, 0),
                (x > lo.x, x - 1, y, cell.wrapping_sub(2), h - 1, 0),
                (y < hi.y, x, y + 1, cell + row + 1, v, 1),
                (y > lo.y, x, y - 1, cell.wrapping_sub(row) + 1, v - gw, 1),
            ];
            for (inside, qx, qy, next, e, new_axis) in moves {
                if !inside {
                    continue;
                }
                let step = edge_cost(EdgeId::new(e as u32));
                debug_assert!(step >= 1.0 || step.is_nan(), "edge cost {step} < 1");
                if !step.is_finite() {
                    continue;
                }
                let turn = if axis != new_axis && d > 0.0 {
                    turn_cost
                } else {
                    0.0
                };
                let nd = d + step + turn;
                let node = &mut nodes[next as usize];
                if node.stamp != epoch || nd < node.dist {
                    *node = Node {
                        dist: nd,
                        prev: state,
                        stamp: epoch,
                    };
                    frontier.push(search.key(nd, qx, qy, next));
                }
            }
        }
        None
    }

    /// The corner polyline from the source to `goal`, along `prev`.
    fn polyline(&mut self, search: &Search, goal: u32) -> Vec<Point> {
        self.cells.clear();
        let mut state = goal;
        while state != NO_PREV {
            let (x, y, _) = search.decode(state);
            self.cells.push(Point::new(x, y));
            state = self.nodes[state as usize].prev;
        }
        self.cells.reverse();
        compress_corners(&self.cells)
    }

    /// The current search's label of cell `p`, cheaper axis; `∞` where it
    /// has not reached.
    fn label(&self, search: &Search, p: Point) -> f64 {
        (0..2)
            .map(|axis| self.nodes[search.state(p.x, p.y, axis) as usize])
            .filter(|node| node.stamp == self.epoch)
            .fold(f64::INFINITY, |best, node| best.min(node.dist as f64))
    }

    /// [`MazeScratch::route_escalating`].
    fn route_escalating<F, C>(
        &mut self,
        grid: &GcellGrid,
        (from, to): (Point, Point),
        margin: i32,
        turn_cost: f32,
        edge_cost: &F,
        clean: &C,
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
        let (search, windowed) = self.search(grid, from, to, edge_cost, &cfg);
        let is_clean = |corners: &Vec<Point>| {
            grid.polyline_edges(corners)
                .expect("searched paths stay on the grid")
                .all(clean)
        };
        if windowed.as_ref().is_some_and(is_clean) {
            return windowed;
        }
        let search = search?; // nothing was searched: nothing to escalate
        if self.leaving_costs_more(grid, &search, edge_cost) {
            self.stats.escalations_avoided += 1;
            return windowed;
        }
        self.stats.escalations += 1;
        cfg.bounds = None;
        self.search(grid, from, to, edge_cost, &cfg).1
    }

    /// The window certificate: whether every path from the source of
    /// `search` — which has just stopped at its target, or run out — to its
    /// target that leaves the window costs at least half a unit more than
    /// the path the search found (`∞` if none). See
    /// [the module docs](self#the-window-certificate).
    fn leaving_costs_more<F>(&mut self, grid: &GcellGrid, search: &Search, edge_cost: &F) -> bool
    where
        F: Fn(EdgeId) -> f32,
    {
        if search.exits(grid).next().is_none() {
            return true; // the window is the grid
        }
        let found = self.label(search, search.to);

        // the cheapest way to stand on each cell just outside having left
        // the window: d_from(b) + 1 across every exit, spread by the
        // two-pass L1 distance transform of the padded window
        let (w, h) = (search.width() as usize + 2, search.height() as usize + 2);
        let mut outside = std::mem::take(&mut self.outside);
        outside.clear();
        outside.resize(w * h, f64::INFINITY);
        for (b, out, _) in search.exits(grid) {
            outside[out] = self.label(search, b) + 1.0;
        }
        spread_l1(&mut outside, w);

        // coming back in in line with the target and carrying straight on
        // to it is one way back: where even that undercuts the window, so
        // does the cheapest, and the search for it can be skipped
        let enough = found + 0.5;
        let to = search.to;
        let undercut = search
            .exits(grid)
            .filter(|&(r, _, axis)| if axis == 0 { r.y == to.y } else { r.x == to.x })
            .any(|(r, out, _)| {
                let straight_on = grid
                    .segment_edges(r, to)
                    .expect("in line, on the grid")
                    .map(|e| edge_cost(e) as f64);
                outside[out] + 1.0 + straight_on.sum::<f64>() < enough
            });

        // the way back in and on to the target: one search from every cell
        // a path can come back to, each starting at what it costs to get
        // there, without the turn cost; it pops the target at LB
        let cheaper = undercut || {
            let back_in = Search {
                turn_cost: 0.0,
                ..*search
            };
            let reentries = search
                .exits(grid)
                .map(|(r, out, _)| (r, (outside[out] + 1.0) as f32))
                .filter(|&(_, start)| start.is_finite());
            self.begin(&back_in, reentries);
            self.advance(grid, &back_in, edge_cost, enough as f32)
                .is_some()
        };
        self.outside = outside;
        !cheaper
    }
}

/// A min-queue of search keys, `f.to_bits() << 32 | state`. Whatever it
/// holds inside, it pops every key pushed since [`Frontier::open`], each
/// as often as it was pushed, in ascending order (see
/// [the module docs](self#the-frontier)).
trait Frontier {
    /// Empties the queue for a search of `search`'s window.
    fn open(&mut self, search: &Search);
    fn push(&mut self, key: u64);
    fn pop(&mut self) -> Option<u64>;
}

/// How many cost levels the frontier keeps as bitsets: the lowest one in
/// flight and the ones 1, 2, … above it.
const LEVELS: usize = 4;

/// The cost of an empty level: the bits of a negative NaN, which no key
/// carries.
const NO_LEVEL: u32 = u32::MAX;

/// The kernel's frontier: a bitset of states for each of [`LEVELS`]
/// exactly-integral cost levels, and a binary heap for every other key
/// (see [the module docs](self#the-frontier)).
#[derive(Default)]
struct Buckets {
    /// Ascending levels from the lowest in flight, each one above the
    /// last, or all [`NO_LEVEL`] until the first pop of a search.
    levels: [Level; LEVELS],
    heap: BinaryHeap<Reverse<u64>>,
}

impl Frontier for Buckets {
    fn open(&mut self, search: &Search) {
        let words = search.states().div_ceil(64);
        for level in &mut self.levels {
            level.clear(words);
        }
        self.heap.clear();
    }

    fn push(&mut self, key: u64) {
        let f = (key >> 32) as u32;
        if let Some(level) = self.levels.iter_mut().find(|level| level.f == f) {
            if level.insert(key as u32 as usize) {
                return;
            }
        }
        self.heap.push(Reverse(key));
    }

    fn pop(&mut self) -> Option<u64> {
        let top = self.heap.peek().map(|&Reverse(key)| key);
        if let Some(k) = self.levels.iter().position(|level| level.len > 0) {
            let level = &mut self.levels[k];
            let i = level.first();
            let key = (level.f as u64) << 32 | i as u64;
            if top.is_none_or(|top| key <= top) {
                level.remove(i);
                if k > 0 {
                    // the levels below are spent: the one popped is lowest
                    self.levels.rotate_left(k);
                    self.stack_from(LEVELS - k);
                }
                return Some(key);
            }
        }
        let Reverse(key) = self.heap.pop()?;
        if self.levels.iter().all(|level| level.len == 0) {
            // the levels start again from the cost being popped
            self.levels[0].f = (key >> 32) as u32;
            self.stack_from(1);
        }
        Some(key)
    }
}

impl Buckets {
    /// Prices each of the (empty) levels from `j` up at one above the
    /// level below it — at the same cost where `f32` cannot tell the two
    /// apart, so that level stays empty.
    fn stack_from(&mut self, j: usize) {
        for j in j..LEVELS {
            self.levels[j].f = (f32::from_bits(self.levels[j - 1].f) + 1.0).to_bits();
        }
    }
}

/// One cost level: a bitset over window-local states, and a summary bit
/// per word of it so that its lowest state is found in two scans.
#[derive(Default)]
struct Level {
    /// The bits of the cost every key in this level carries.
    f: u32,
    len: usize,
    words: Vec<u64>,
    /// Bit `w` is set iff `words[w]` is not zero.
    summary: Vec<u64>,
    /// No summary word below this one is non-zero.
    lowest: usize,
}

impl Level {
    /// Empties and unprices the level, and makes room for `words` words of
    /// states.
    fn clear(&mut self, words: usize) {
        self.f = NO_LEVEL;
        if self.len > 0 {
            for (s, summary) in self.summary.iter_mut().enumerate() {
                let mut bits = mem::take(summary);
                while bits != 0 {
                    self.words[s << 6 | bits.trailing_zeros() as usize] = 0;
                    bits &= bits - 1;
                }
            }
            self.len = 0;
        }
        if self.words.len() < words {
            self.words.resize(words, 0);
            self.summary.resize(words.div_ceil(64), 0);
        }
        self.lowest = 0;
    }

    /// Adds state `i`; `false` (and nothing changes) if it is there already.
    fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i >> 6, 1u64 << (i & 63));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w >> 6] |= 1 << (w & 63);
        self.lowest = self.lowest.min(w >> 6);
        self.len += 1;
        true
    }

    /// The lowest state of a level that is not empty.
    fn first(&mut self) -> usize {
        while self.summary[self.lowest] == 0 {
            self.lowest += 1;
        }
        let w = self.lowest << 6 | self.summary[self.lowest].trailing_zeros() as usize;
        w << 6 | self.words[w].trailing_zeros() as usize
    }

    fn remove(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] &= !(1 << (i & 63));
        if self.words[w] == 0 {
            self.summary[w >> 6] &= !(1 << (w & 63));
        }
        self.len -= 1;
    }
}

/// The L1 distance transform of a row-major field `width` wide, in place:
/// every entry becomes the minimum over all entries of that entry's value
/// plus its Manhattan distance — two raster passes, exact for this metric.
fn spread_l1(field: &mut [f64], width: usize) {
    for i in 0..field.len() {
        if i % width > 0 {
            field[i] = field[i].min(field[i - 1] + 1.0);
        }
        if i >= width {
            field[i] = field[i].min(field[i - width] + 1.0);
        }
    }
    for i in (0..field.len()).rev() {
        if i % width + 1 < width {
            field[i] = field[i].min(field[i + 1] + 1.0);
        }
        if i + width < field.len() {
            field[i] = field[i].min(field[i + width] + 1.0);
        }
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
fn compress_corners(cells: &[Point]) -> Vec<Point> {
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
    use proptest::prelude::*;

    /// The frontier [`Buckets`] replaced, kept as the reference it must
    /// pop exactly like: every key on one binary heap.
    impl Frontier for BinaryHeap<Reverse<u64>> {
        fn open(&mut self, _: &Search) {
            self.clear();
        }

        fn push(&mut self, key: u64) {
            BinaryHeap::push(self, Reverse(key));
        }

        fn pop(&mut self) -> Option<u64> {
            BinaryHeap::pop(self).map(|Reverse(key)| key)
        }
    }

    /// The kernel on the reference frontier.
    type Reference = Engine<BinaryHeap<Reverse<u64>>>;

    /// `(searches, escalated, certified)` so far.
    fn counts(scratch: &MazeScratch) -> (usize, usize, usize) {
        let s = scratch.stats();
        (s.searches(), s.escalations(), s.escalations_avoided())
    }

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
        // the window, then the grid: straight back in above the target
        // undercuts the window before any search for a way back is run
        assert_eq!(counts(&scratch), (2, 1, 0));

        // a window that reaches row 10 finds the same detour by itself
        let mut scratch = MazeScratch::new();
        let path = scratch
            .route_escalating(&g, ends, 9, 0.0, cost, |e| !dirty(e))
            .unwrap();
        assert_eq!(length(&path), 7 + 2 * 9);
        assert_eq!(counts(&scratch), (1, 0, 0));
        assert!(scratch.stats().states_expanded() > 0);
    }

    #[test]
    fn certifies_a_windowed_result_the_grid_cannot_beat() {
        let g = GcellGrid::new(30, 30).unwrap();
        // every way into the target is dirty: no search can come back clean
        let target = Point::new(20, 15);
        let dirty = |e: EdgeId| {
            let (a, b) = g.edge_endpoints(e);
            a == target || b == target
        };
        let cost = |e| if dirty(e) { 100.0 } else { 1.0 };
        let ends = (Point::new(10, 15), target);
        let always = {
            let full = MazeConfig {
                bounds: None,
                turn_cost: 1.0,
            };
            maze_route(&g, ends.0, ends.1, cost, &full)
        };

        let mut scratch = MazeScratch::new();
        let path = scratch.route_escalating(&g, ends, 2, 1.0, cost, |e| !dirty(e));
        assert_eq!(path, always);
        // the window and the certificate's search for a way back in; no
        // grid search
        assert_eq!(counts(&scratch), (2, 0, 1));
        // both searches settled a 15×5 window, not the 30×30 grid
        assert!(scratch.stats().states_expanded() < 4 * 15 * 5 * 2);

        // a window that is the whole grid has nowhere to escalate to
        let mut scratch = MazeScratch::new();
        let path = scratch.route_escalating(&g, ends, 30, 1.0, cost, |e| !dirty(e));
        assert_eq!(path, always);
        assert_eq!(counts(&scratch), (1, 0, 1));
    }

    #[test]
    fn spread_l1_is_the_min_plus_manhattan_transform() {
        let (w, h) = (7usize, 5usize);
        let mut field = vec![f64::INFINITY; w * h];
        for (i, v) in [(3, 4.0), (9, 0.5), (20, 7.0), (34, 1.0)] {
            field[i] = v;
        }
        let seeds = field.clone();
        spread_l1(&mut field, w);
        for (i, &spread) in field.iter().enumerate() {
            let brute = (0..w * h)
                .map(|j| seeds[j] + ((i % w).abs_diff(j % w) + (i / w).abs_diff(j / w)) as f64)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(spread, brute, "cell {i}");
        }
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

    /// A search window for the stream test: `corner` and `size` on a grid
    /// as large as any.
    fn window(corner: (i32, i32), size: (i32, i32)) -> Search {
        let grid = GcellGrid::new(MAX_SIDE, MAX_SIDE).unwrap();
        let lo = Point::new(corner.0, corner.1);
        let hi = Point::new(corner.0 + size.0 - 1, corner.1 + size.1 - 1);
        let cfg = MazeConfig {
            bounds: Some(Rect::new(lo, hi)),
            turn_cost: 0.0,
        };
        Search::new(&grid, lo, hi, &cfg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push/pop streams, several searches on one frontier:
        /// pushes at the level being popped and at each level above it,
        /// beyond the bitsets, at penalty and fractional costs, just below
        /// the last pop, and keys pushed again — the two frontiers pop the
        /// same keys in the same order.
        #[test]
        fn buckets_pop_what_the_heap_pops(
            searches in proptest::collection::vec(
                (
                    (0i32..300, 0i32..300),
                    (1i32..70, 1i32..40),
                    proptest::collection::vec((0u32..12, 0u32..100_000), 0..300),
                ),
                1..4,
            ),
        ) {
            let mut buckets = Buckets::default();
            let mut heap = BinaryHeap::new();
            for (corner, size, ops) in searches {
                let search = window(corner, size);
                Frontier::open(&mut buckets, &search);
                Frontier::open(&mut heap, &search);
                let mut pushed = Vec::new();
                let mut last = 17.0f32;
                for (op, v) in ops {
                    let f = match op {
                        0..=3 => {
                            let popped = Frontier::pop(&mut heap);
                            prop_assert_eq!(Frontier::pop(&mut buckets), popped);
                            if let Some(key) = popped {
                                last = f32::from_bits((key >> 32) as u32);
                            }
                            continue;
                        }
                        4 | 5 => last,
                        6 => last + (v % 7) as f32,
                        // just below the last pop, as f32 rounding can put it
                        7 => f32::from_bits(last.to_bits() - 1 - v % 3),
                        8 => last + 0.5 * (v % 9) as f32,
                        9 => 1.0 + 1000.0 * (v % 5) as f32 * 0.25 + last,
                        _ => {
                            // a key pushed again
                            if let Some(&key) = pushed.get(v as usize % pushed.len().max(1)) {
                                Frontier::push(&mut buckets, key);
                                Frontier::push(&mut heap, key);
                            }
                            continue;
                        }
                    };
                    let (w, h) = (search.width() as u32, search.height() as u32);
                    let cell = v % (w * h);
                    let (x, y) = (search.lo.x + (cell % w) as i32, search.lo.y + (cell / w) as i32);
                    let key = (f.to_bits() as u64) << 32 | search.state(x, y, v >> 16 & 1) as u64;
                    pushed.push(key);
                    Frontier::push(&mut buckets, key);
                    Frontier::push(&mut heap, key);
                }
                // the rest, in order, and then nothing
                loop {
                    let popped = Frontier::pop(&mut heap);
                    prop_assert_eq!(Frontier::pop(&mut buckets), popped);
                    if popped.is_none() {
                        break;
                    }
                }
            }
        }

        /// Searches on random cost fields — integer costs, `1 + 1000 · m`
        /// penalties, blocked edges, windows at the grid border, with and
        /// without turn costs — return the reference kernel's polylines and
        /// count exactly its searches, escalations, certificates and pops,
        /// on one scratch reused across the queries.
        #[test]
        fn buckets_search_like_the_heap(
            w in 1u32..=24,
            h in 1u32..=24,
            raw_costs in proptest::collection::vec(0u32..64, 2 * 24 * 24),
            // 0: integer costs, 1: penalties of fractional marginals,
            // 2: a mix with a fifth of the edges blocked
            shape in 0u32..3,
            queries in proptest::collection::vec(
                ((0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000), 0u32..4, 0u32..3),
                1..4,
            ),
        ) {
            let grid = GcellGrid::new(w, h).unwrap();
            let cost = |e: EdgeId| {
                let raw = raw_costs[e.index()];
                match shape {
                    0 if raw >= 60 => f32::INFINITY,
                    0 => 1.0 + (raw % 4) as f32,
                    1 => 1.0 + 1000.0 * (raw % 8 / 5) as f32 * (raw % 3 + 1) as f32 * 0.25,
                    _ if raw >= 51 => f32::INFINITY,
                    _ => 1.0 + if raw >= 40 { 1000.0 * (raw - 39) as f32 / 8.0 } else { 0.0 },
                }
            };
            let clean = |e: EdgeId| cost(e) < 2.0;
            let mut scratch = MazeScratch::new();
            let mut reference = Reference::default();
            for ((x0, y0, x1, y1), border, turns) in queries {
                // a fourth of the queries start on the grid's border
                let at = |x: u32, y: u32| Point::new((x % w) as i32, (y % h) as i32);
                let from = match border {
                    0 => Point::new(0, (y0 % h) as i32),
                    _ => at(x0, y0),
                };
                let to = at(x1, y1);
                let margin = [0, 1, 3, 8][(x0 / 7 % 4) as usize];
                let turn_cost = [0.0, 0.5, 1.0][turns as usize];
                let got = scratch.route_escalating(&grid, (from, to), margin, turn_cost, cost, clean);
                let want = reference.route_escalating(&grid, (from, to), margin, turn_cost, &cost, &clean);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(scratch.stats(), reference.stats);

                let cfg = MazeConfig {
                    bounds: Some(Rect::bounding(&[at(x1, y0), at(x0, y1)])),
                    turn_cost,
                };
                let got = scratch.route(&grid, from, to, cost, &cfg);
                prop_assert_eq!(got, reference.search(&grid, from, to, &cost, &cfg).1);
                prop_assert_eq!(scratch.stats(), reference.stats);
            }
        }
    }
}
