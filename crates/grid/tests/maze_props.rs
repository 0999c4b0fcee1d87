//! Property tests for the A\* maze kernel against independent
//! references.
//!
//! For a single search the reference is label-correcting relaxation to a
//! fixpoint over the same (cell, incoming axis) state space — no heap, no
//! heuristic, no shared code with the kernel. Edge costs are integers and
//! turn costs multiples of ¼, so every path cost is exact in `f32` and the
//! optimum can be compared with `==`.
//!
//! For `route_escalating` the reference is the rule its window
//! certificate stands in for: search the window, and whenever the result
//! is missing or not clean, search the whole grid. The two must agree on
//! the whole polyline.
//!
//! For the work counted, the reference is the search order the kernel
//! documents, written out on a plain binary heap: pops by `(g + h, y, x,
//! axis)`, stale entries popped and skipped, the window certificate's
//! bound taken by brute force over the exits. It must pop exactly as often
//! as the kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

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

/// `route_escalating` without the certificate: every windowed result that
/// is missing or not clean is replaced by a search of the whole grid.
fn always_escalating(
    grid: &GcellGrid,
    (from, to): (Point, Point),
    margin: i32,
    turn_cost: f32,
    cost: &dyn Fn(EdgeId) -> f32,
    clean: &dyn Fn(EdgeId) -> bool,
) -> Option<Vec<Point>> {
    let window = Rect::bounding(&[from, to]).inflate_clamped(margin, grid.bounds());
    let mut cfg = MazeConfig {
        bounds: Some(window),
        turn_cost,
    };
    let windowed = maze_route(grid, from, to, cost, &cfg);
    let is_clean = |corners: &Vec<Point>| grid.polyline_edges(corners).unwrap().all(clean);
    if windowed.as_ref().is_some_and(is_clean) {
        return windowed;
    }
    cfg.bounds = None;
    maze_route(grid, from, to, cost, &cfg)
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

/// Searches, escalations, certified windows and heap pops so far.
fn counts(scratch: &MazeScratch) -> [usize; 4] {
    let s = scratch.stats();
    [
        s.searches(),
        s.escalations(),
        s.escalations_avoided(),
        s.states_expanded(),
    ]
}

/// A search state: a cell and the axis of the step into it.
type State = (Point, u32);

/// The labels of one reference search as it stopped: distance and the
/// state it was reached from.
type Labels = HashMap<State, (f32, Option<State>)>;

/// The kernel's documented search on a plain binary heap, counting into
/// `stats` (searches, escalations, certified windows, pops).
struct ReferenceSearch<'a> {
    grid: &'a GcellGrid,
    cost: &'a dyn Fn(EdgeId) -> f32,
    stats: [usize; 4],
}

impl ReferenceSearch<'_> {
    /// A* inside `win` from every `(cell, start)` of `sources` to `to`,
    /// stopped at the first pop of `to` (returned) or of a key `≥ limit`.
    fn search(
        &mut self,
        win: Rect,
        sources: &[(Point, f32)],
        to: Point,
        turn_cost: f32,
        limit: f32,
    ) -> (Option<State>, Labels) {
        self.stats[0] += 1;
        let f = |g: f32, p: Point| (g + p.manhattan_distance(to) as f32).to_bits();
        let mut labels = Labels::new();
        let mut heap = BinaryHeap::new();
        for &(p, start) in sources {
            for axis in 0..2 {
                // a cell given twice is pushed again only if it got cheaper
                if labels.get(&(p, axis)).is_none_or(|&(d, _)| start < d) {
                    labels.insert((p, axis), (start, None));
                    heap.push(Reverse((f(start, p), p.y, p.x, axis)));
                }
            }
        }
        while let Some(Reverse((key, y, x, axis))) = heap.pop() {
            self.stats[3] += 1;
            if f32::from_bits(key) >= limit {
                return (None, labels);
            }
            let p = Point::new(x, y);
            let d = labels[&(p, axis)].0;
            if key > f(d, p) {
                continue;
            }
            if p == to {
                return (Some((p, axis)), labels);
            }
            for q in self.grid.neighbors(p).filter(|&q| win.contains(q)) {
                let step = (self.cost)(self.grid.edge_between(p, q).unwrap());
                if !step.is_finite() {
                    continue;
                }
                let new_axis = u32::from(p.x == q.x);
                let turn = if axis != new_axis && d > 0.0 {
                    turn_cost
                } else {
                    0.0
                };
                let nd = d + step + turn;
                if labels.get(&(q, new_axis)).is_none_or(|&(old, _)| nd < old) {
                    labels.insert((q, new_axis), (nd, Some((p, axis))));
                    heap.push(Reverse((f(nd, q), q.y, q.x, new_axis)));
                }
            }
        }
        (None, labels)
    }

    /// `route_escalating` as documented, with every search a reference one.
    fn route_escalating(
        &mut self,
        (from, to): (Point, Point),
        margin: i32,
        turn_cost: f32,
        clean: &dyn Fn(EdgeId) -> bool,
    ) -> Option<Vec<Point>> {
        let grid = self.grid;
        if !grid.contains(from) || !grid.contains(to) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let win = Rect::bounding(&[from, to]).inflate_clamped(margin, grid.bounds());
        let (goal, labels) = self.search(win, &[(from, 0.0)], to, turn_cost, f32::INFINITY);
        let windowed = goal.map(|goal| polyline(&labels, goal));
        let is_clean = |c: &Vec<Point>| grid.polyline_edges(c).unwrap().all(clean);
        if windowed.as_ref().is_some_and(is_clean) {
            return windowed;
        }
        let label = |p: Point| {
            (0..2)
                .filter_map(|axis| labels.get(&(p, axis)))
                .fold(f64::INFINITY, |best, &(d, _)| best.min(d as f64))
        };
        // every way out, in the kernel's order (a cell that is two exits
        // is a source twice, and the order decides which push goes stale):
        // the low then the high column, the low then the high row
        let (lo, hi) = (win.lo, win.hi);
        let (gw, gh) = (grid.width() as i32, grid.height() as i32);
        let mut exits = Vec::new();
        for (x, out) in [(lo.x, lo.x - 1), (hi.x, hi.x + 1)] {
            if (0..gw).contains(&out) {
                exits.extend((lo.y..=hi.y).map(|y| (Point::new(x, y), Point::new(out, y), 0)));
            }
        }
        for (y, out) in [(lo.y, lo.y - 1), (hi.y, hi.y + 1)] {
            if (0..gh).contains(&out) {
                exits.extend((lo.x..=hi.x).map(|x| (Point::new(x, y), Point::new(x, out), 1)));
            }
        }
        if exits.is_empty() {
            self.stats[2] += 1;
            return windowed;
        }
        // the cheapest way to stand on an outside cell having left
        let outside = |r_out: Point| {
            exits
                .iter()
                .map(|&(b, b_out, _)| label(b) + 1.0 + b_out.manhattan_distance(r_out) as f64)
                .fold(f64::INFINITY, f64::min)
        };
        let enough = label(to) + 0.5;
        let undercut = exits
            .iter()
            .filter(|&&(r, _, axis)| if axis == 0 { r.y == to.y } else { r.x == to.x })
            .any(|&(r, r_out, _)| {
                let on: f64 = grid
                    .segment_edges(r, to)
                    .unwrap()
                    .map(|e| (self.cost)(e) as f64)
                    .sum();
                outside(r_out) + 1.0 + on < enough
            });
        let cheaper = undercut || {
            let reentries: Vec<(Point, f32)> = exits
                .iter()
                .map(|&(r, r_out, _)| (r, (outside(r_out) + 1.0) as f32))
                .filter(|&(_, start)| start.is_finite())
                .collect();
            self.search(win, &reentries, to, 0.0, enough as f32)
                .0
                .is_some()
        };
        if !cheaper {
            self.stats[2] += 1;
            return windowed;
        }
        self.stats[1] += 1;
        let (goal, labels) =
            self.search(grid.bounds(), &[(from, 0.0)], to, turn_cost, f32::INFINITY);
        goal.map(|goal| polyline(&labels, goal))
    }
}

/// The corner polyline of the reference search's `prev` chain to `goal`.
fn polyline(labels: &Labels, goal: State) -> Vec<Point> {
    let mut cells = vec![goal.0];
    let mut state = goal;
    while let Some(prev) = labels[&state].1 {
        cells.push(prev.0);
        state = prev;
    }
    cells.reverse();
    let mut corners = vec![cells[0]];
    for w in cells.windows(3) {
        if !(w[0].x == w[2].x || w[0].y == w[2].y) {
            corners.push(w[1]);
        }
    }
    if cells.len() > 1 {
        corners.push(*cells.last().unwrap());
    }
    corners
}

/// `(escalated, certified)` so far.
fn escalated_and_certified(scratch: &MazeScratch) -> (usize, usize) {
    let s = scratch.stats();
    (s.escalations(), s.escalations_avoided())
}

/// The certificate's bound is tight and its test sharp: with unit costs
/// and a penalized cut exactly as tall as the window, the cheapest way
/// round runs along the row just outside, and the certificate fires when
/// that is one unit dearer than crossing the cut and not when it ties or
/// is one unit cheaper. With the target's column priced out the cheapest
/// way back in is no longer the straight one, so the search for it has to
/// find the bent one.
#[test]
fn certificate_turns_exactly_where_the_detour_ties() {
    let grid = GcellGrid::new(12, 20).unwrap();
    let (from, to) = (Point::new(3, 8), Point::new(8, 8));
    for (margin, shielded) in (0..=3).flat_map(|m| [(m, false), (m, true)]) {
        let window = Rect::bounding(&[from, to]).inflate_clamped(margin, grid.bounds());
        let detour = 5 + 2 * (margin + 1);
        for crossing in [detour - 1, detour, detour + 1] {
            let cut = |e: EdgeId| {
                let (a, b) = grid.edge_endpoints(e);
                a.x == 5 && b.x == 6 && window.contains(a)
            };
            let cost = |e: EdgeId| {
                let (a, b) = grid.edge_endpoints(e);
                if cut(e) {
                    (crossing - 4) as f32
                } else if shielded && a.x == to.x && b.x == to.x && window.contains(a) {
                    50.0
                } else {
                    1.0
                }
            };
            let clean = |e: EdgeId| !cut(e);
            let case = format!("margin {margin}, shielded {shielded}, crossing {crossing}");

            let mut scratch = MazeScratch::new();
            let got = scratch.route_escalating(&grid, (from, to), margin, 0.0, cost, clean);
            let want = always_escalating(&grid, (from, to), margin, 0.0, &cost, &clean);
            assert_eq!(got, want, "{case}");
            let expected = if crossing < detour { (0, 1) } else { (1, 0) };
            assert_eq!(
                escalated_and_certified(&scratch),
                expected,
                "{case}: (escalated, certified), detour {detour}"
            );
            let leaves = got.unwrap().iter().any(|&c| !window.contains(c));
            assert_eq!(leaves, crossing > detour, "{case}");
        }
    }
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

    #[test]
    fn escalating_returns_what_always_escalating_does(
        w in 1u32..=MAX_SIDE,
        h in 1u32..=MAX_SIDE,
        raw_costs in proptest::collection::vec(0u32..60, (2 * MAX_SIDE * MAX_SIDE) as usize),
        ends in (0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000),
        // 0: the endpoints coincide, 1: they are neighbours, else: anywhere
        apart in 0u32..8,
        // 0: integer costs, 1: fractional penalties, 2: a penalty ring
        // around one endpoint, 3: a penalty wall wider than the window
        shape in 0u32..4,
        ring_at_source in 0u32..2,
        margin in prop_oneof![Just(0i32), Just(1), Just(8)],
        turn_cost in prop_oneof![Just(0.0f32), Just(1.0f32)],
        warm_up in proptest::collection::vec((0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000), 0..3),
    ) {
        // the wall needs room for a gap the window cannot reach
        let (w, h) = if shape == 3 { (MAX_SIDE, MAX_SIDE) } else { (w, h) };
        let grid = GcellGrid::new(w, h).unwrap();
        let at = |x: u32, y: u32| Point::new((x % w) as i32, (y % h) as i32);
        let from = at(ends.0, ends.1);
        let to = match (shape, apart) {
            // opposite sides of the wall, on rows a margin of 8 keeps below the gap
            (3, _) => Point::new(14 + (ends.2 % 8) as i32, (ends.3 % 12) as i32),
            (_, 0) => from,
            (_, 1) => grid.neighbors(from).next().unwrap_or(from),
            _ => at(ends.2, ends.3),
        };
        let from = if shape == 3 { Point::new(from.x % 8, from.y % 12) } else { from };

        let ring = if ring_at_source == 1 { from } else { to };
        let penalty = |e: EdgeId| -> f32 {
            let raw = raw_costs[e.index()];
            let (a, b) = grid.edge_endpoints(e);
            match shape {
                // a fifth of the edges dirty, one in fifteen blocked
                0 if raw >= 56 => f32::INFINITY,
                0 if raw >= 44 => (raw - 30) as f32,
                1 if raw >= 57 => f32::NAN,
                1 if raw >= 45 => 130.0 + 0.37 * raw as f32,
                // every way into (or out of) one endpoint
                2 if a == ring || b == ring => 100.0 + 0.37 * raw_costs[0] as f32,
                // between x = 10 and 11, every row but the top one
                3 if a.x == 10 && b.x == 11 && a.y + 1 < MAX_SIDE as i32 => 1000.0,
                _ => 0.0,
            }
        };
        let cost = |e: EdgeId| {
            let base = match shape {
                // mostly 1, where the certificate's bound is tight
                0 => 1.0 + (raw_costs[e.index()] % 4 / 3) as f32,
                1 => 1.0 + 0.37 * (raw_costs[e.index()] % 5 / 4) as f32,
                _ => 1.0,
            };
            base + penalty(e)
        };
        let clean = |e: EdgeId| penalty(e) == 0.0;

        let want = always_escalating(&grid, (from, to), margin, turn_cost, &cost, &clean);
        let mut fresh = MazeScratch::new();
        let got = fresh.route_escalating(&grid, (from, to), margin, turn_cost, cost, clean);
        prop_assert_eq!(&got, &want);
        let (escalated, certified) = escalated_and_certified(&fresh);
        prop_assert!(escalated + certified <= 1);

        let window = Rect::bounding(&[from, to]).inflate_clamped(margin, grid.bounds());
        let bounds = grid.bounds();
        let on_an_open_side = |p: Point| {
            (p.x == window.lo.x && p.x > bounds.lo.x)
                || (p.x == window.hi.x && p.x < bounds.hi.x)
                || (p.y == window.lo.y && p.y > bounds.lo.y)
                || (p.y == window.hi.y && p.y < bounds.hi.y)
        };
        match shape {
            // no search comes back clean, and unless the ring itself can be
            // entered from outside the window none can do better out there
            2 if from != to && !on_an_open_side(ring) => prop_assert_eq!(
                escalated_and_certified(&fresh),
                (0, 1),
                "ring at {} of {:?} in {}", ring, (from, to), window
            ),
            // the detour through the gap beats the wall: it has to be found
            3 => {
                prop_assert_eq!(escalated_and_certified(&fresh), (1, 0));
                let path = got.as_ref().unwrap();
                prop_assert!(path.iter().any(|&c| !window.contains(c)), "{path:?} in {window}");
            }
            _ => {}
        }

        // a scratch that has already served other searches — its labels,
        // heap and outside buffer all used — answers and counts alike
        let mut used = MazeScratch::new();
        for &(x0, y0, x1, y1) in &warm_up {
            used.route_escalating(&grid, (at(x0, y0), at(x1, y1)), margin, turn_cost, cost, clean);
        }
        let before = counts(&used);
        prop_assert_eq!(&used.route_escalating(&grid, (from, to), margin, turn_cost, cost, clean), &want);
        let after = counts(&used);
        prop_assert_eq!(std::array::from_fn(|i| after[i] - before[i]), counts(&fresh));
    }

    /// The kernel's pops and polylines are the reference search's, on the
    /// costs refinement and the baselines charge — integer costs, `1 +
    /// 1000 · m` penalties, blocked edges — with endpoints and windows at
    /// the grid's border, on one scratch reused across the queries.
    #[test]
    fn escalating_pops_like_the_reference_search(
        w in 1u32..=MAX_SIDE,
        h in 1u32..=MAX_SIDE,
        raw_costs in proptest::collection::vec(0u32..64, (2 * MAX_SIDE * MAX_SIDE) as usize),
        // 0: integer costs, 1: penalties of quarter-step marginals, 2: both,
        // with a fifth of the edges blocked
        shape in 0u32..3,
        queries in proptest::collection::vec(
            ((0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000), 0u32..3, 0u32..4, 0u32..3),
            1..4,
        ),
    ) {
        let grid = GcellGrid::new(w, h).unwrap();
        let cost = |e: EdgeId| {
            let raw = raw_costs[e.index()];
            match shape {
                0 if raw >= 60 => f32::INFINITY,
                0 => 1.0 + (raw % 3) as f32,
                1 => 1.0 + 1000.0 * 0.25 * (raw % 16 / 10 * (raw % 7)) as f32,
                _ if raw >= 51 => f32::INFINITY,
                _ if raw >= 38 => 1.0 + 1000.0 * 0.25 * (raw - 37) as f32,
                _ => 1.0 + (raw % 5 / 4) as f32,
            }
        };
        let clean = |e: EdgeId| cost(e) < 100.0;
        let at = |x: u32, y: u32| Point::new((x % w) as i32, (y % h) as i32);
        let mut scratch = MazeScratch::new();
        let mut reference = ReferenceSearch { grid: &grid, cost: &cost, stats: [0; 4] };
        for ((x0, y0, x1, y1), border, margin, turns) in queries {
            let from = match border {
                // on the left or the top border of the grid
                0 => Point::new(0, (y0 % h) as i32),
                1 => Point::new((x0 % w) as i32, h as i32 - 1),
                _ => at(x0, y0),
            };
            let to = at(x1, y1);
            let margin = [0, 1, 3, 30][margin as usize];
            let turn_cost = [0.0, 0.5, 1.0][turns as usize];
            let got = scratch.route_escalating(&grid, (from, to), margin, turn_cost, cost, clean);
            let want = reference.route_escalating((from, to), margin, turn_cost, &clean);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(counts(&scratch), reference.stats, "{:?} margin {}", (from, to), margin);
        }
    }
}
