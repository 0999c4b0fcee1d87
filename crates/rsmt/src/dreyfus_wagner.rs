//! Exact rectilinear Steiner minimum trees via Dreyfus–Wagner.
//!
//! By Hanan's theorem an optimal RSMT exists whose Steiner points lie on
//! the [Hanan grid](crate::hanan::HananGrid). The Hanan grid graph is a
//! full mesh geometrically, so the shortest-path metric between Hanan
//! points is plain Manhattan distance and Dreyfus–Wagner runs directly on
//! the metric closure. For every subset `mask` of the first `k − 1`
//! terminals the DP keeps two planes over the `n` Hanan points:
//!
//! * `init[mask][v]` — the *combine* step: the cheapest way to join two
//!   sub-trees at `v`, `min cost[sub][v] + cost[mask ∖ sub][v]` over the
//!   unordered splits of `mask` (for a single terminal `t`: `‖t − v‖₁`);
//! * `cost[mask][v]` — the *grow* step: `min_u init[mask][u] + ‖u − v‖₁`,
//!   the best tree that reaches `v` by one more wire.
//!
//! **The grow step is an L1 distance transform, and L1 is separable.**
//! `min_u f(u) + |x_u − x_v| + |y_u − y_v|` is a 1D transform along every
//! grid row with the column gaps (`g(c, r) = min_c' f(c', r) + |x_c − x_c'|`)
//! followed by a 1D transform of `g` along every column with the row gaps,
//! and a 1D transform is exact in two sweeps — left to right carrying
//! `min(g[c], g[c − 1] + gap)`, then right to left — because the best
//! source of a point lies on one side of it and a sweep accumulates gaps
//! along exactly that side. Four sweeps touch every point a constant
//! number of times, so the grow step costs `O(n)` per subset where the
//! all-pairs pass it replaces cost `O(n²)` (k = 8, n = 64: 33 k
//! relaxations per net instead of 524 k), and the whole DP is
//! `O(3^k · n + 2^k · n)` — the `3^k` combine step is what remains.
//! Along a row the two sweeps run as doubling steps: every cell takes the
//! better of itself and the cell 1, then 2, then 4 columns away plus their
//! distance, on each side. A run of up to 7 columns is a sum of distinct
//! such hops in increasing order, so this is exact too, and each step is
//! one operation on a whole row instead of a chain along it.
//!
//! **Every plane is one padded 8 × 8 array.** A Hanan grid of at most
//! [`EXACT_PIN_LIMIT`] = 8 pins has at most 8 columns and 8 rows, so a
//! plane is a fixed `[u32; 64]` with column `c` of row `r` at `8r + c`,
//! and both tables live in one per-thread buffer (128 masks × 2 planes,
//! 64 KB) that no net allocates. The combine and grow loops then run over
//! all 64 cells of every plane, without a bound that depends on the net,
//! and vectorize. The padding cannot move a real entry:
//!
//! * a padded cell starts at `BIG` = 2²⁷, and a padded column or row lies
//!   `BIG` beyond the grid's last real one, so any value that reaches a
//!   real cell through padding is at least `BIG`;
//! * a real entry of `mask` is at most the star from its cell,
//!   `|mask| · (span_x + span_y) ≤ 7 · 2 · MAX_SIDE < 2¹⁹ < BIG`
//!   (`exact_steiner` asserts that the pins' box fits [`MAX_SIDE`]), so
//!   `min` never takes such a value, and the real cells hold exactly the
//!   tables of the unpadded grid;
//! * every entry of `mask` is at most `|mask| · BIG ≤ 7 · BIG`, and no two
//!   cells of a row or a column lie more than `BIG + MAX_SIDE` apart, so
//!   no sum the DP forms reaches 2³¹.
//!
//! The DP loops are one `#[inline(always)]` body compiled twice: plain,
//! and inside an AVX2 `#[target_feature]` wrapper that `x86_64` hosts pick
//! when the CPU has AVX2. Both are exact `u32` arithmetic, so both fill
//! the same tables bit for bit.
//!
//! **The backtrace re-derives each choice instead of reading a stored
//! one**, which keeps back-pointer writes out of both hot loops. It
//! reproduces the decisions of the textbook formulation — a strict-`<`
//! scan over splits, then a strict-`<` scan over `u` ascending, each
//! overwriting a back pointer — in that order of precedence:
//!
//! 1. `init[mask][v] == cost[mask][v]`: growing did not help, the stored
//!    choice would be the combine step's. A single-terminal mask is the
//!    leaf edge `t — v`; otherwise the split is the **first** submask, in
//!    the enumeration order `sub = (sub − 1) & mask` descending with
//!    `sub < mask ∖ sub`, whose two costs sum to `cost[mask][v]`.
//! 2. Otherwise the tree extends to `v` from the **lowest-index** `u` with
//!    `init[mask][u] + ‖u − v‖₁ == cost[mask][v]`. Such a `u` always has
//!    `init == cost` itself (were it reached from some `w`, the triangle
//!    inequality would make `w` strictly better for `v` too), so the next
//!    step from `u` is a split or a leaf. "Lowest" is in the real grid's
//!    row-major order, which is the padded plane's order with the padding
//!    skipped.
//!
//! Ties are therefore broken exactly as the all-pairs formulation breaks
//! them; the `#[cfg(test)]` reference at the bottom of this file *is* that
//! formulation, and `exact_steiner` must return a [`RoutingTree`] equal to
//! its tree — nodes, edge order and all — on every net of a seeded corpus.

use std::cell::RefCell;

use dgr_grid::grid::MAX_SIDE;
use dgr_grid::{Point, PointIndex};

use crate::hanan::HananGrid;
use crate::tree::{dedup_pins, RoutingTree};
use crate::EXACT_PIN_LIMIT;

/// Columns and rows of a padded plane.
const SIDE: usize = EXACT_PIN_LIMIT;
/// Cells of a padded plane.
const PLANE: usize = SIDE * SIDE;
/// Masks over the first `k − 1 < SIDE` terminals.
const MASKS: usize = 1 << (SIDE - 1);
/// A padded cell's start value, and the distance from the last real
/// column or row to a padded one (module docs).
const BIG: u32 = 1 << 27;
const _: () = assert!(7 * 2 * MAX_SIDE < BIG && 8 * (BIG as u64) + (MAX_SIDE as u64) < 1 << 31);

type Plane = [u32; PLANE];

/// The DP's two tables: plane `mask` of `init` and of `cost`.
struct Tables {
    init: [Plane; MASKS],
    cost: [Plane; MASKS],
}

thread_local! {
    static TABLES: RefCell<Box<Tables>> = RefCell::new(Box::new(Tables {
        init: [[0; PLANE]; MASKS],
        cost: [[0; PLANE]; MASKS],
    }));
}

/// Computes an exact rectilinear Steiner minimum tree over `pins`.
///
/// Duplicate pins are merged. The result's [`RoutingTree::length`] equals
/// the optimal RSMT length; ties are broken arbitrarily but
/// deterministically.
///
/// # Panics
///
/// Panics if `pins` is empty, if the distinct pin count exceeds
/// [`EXACT_PIN_LIMIT`] (the padded plane's side) — callers should dispatch
/// through [`crate::rsmt`], which routes big nets to the heuristic
/// instead — or if the pins' bounding box is wider or taller than
/// [`MAX_SIDE`] g-cells.
///
/// # Examples
///
/// ```
/// use dgr_grid::Point;
/// use dgr_rsmt::exact_steiner;
///
/// // 3 corners of a square: one Steiner point, length 4 instead of 6.
/// let t = exact_steiner(&[Point::new(0, 0), Point::new(2, 0), Point::new(0, 2)]);
/// assert_eq!(t.length(), 4);
/// ```
pub fn exact_steiner(pins: &[Point]) -> RoutingTree {
    let terminals = dedup_pins(pins);
    assert!(!terminals.is_empty(), "exact_steiner of zero pins");
    assert!(
        terminals.len() <= EXACT_PIN_LIMIT,
        "exact_steiner takes at most EXACT_PIN_LIMIT = {EXACT_PIN_LIMIT} distinct pins, got {}",
        terminals.len()
    );
    let k = terminals.len();
    if k == 1 {
        return RoutingTree::singleton(terminals[0]);
    }
    if k == 2 {
        return RoutingTree::from_parts(terminals, 2, vec![(0, 1)]);
    }

    steiner_with(terminals, fill)
}

/// The signature of [`fill`] and of the two bodies it picks between.
type Fill = fn(&mut Tables, usize, &[u32; SIDE], &[u32; SIDE]);

/// [`exact_steiner`] of `k ≥ 3` distinct terminals, its tables filled by
/// `fill`.
fn steiner_with(terminals: Vec<Point>, fill: Fill) -> RoutingTree {
    let grid = PaddedGrid::new(&terminals);
    TABLES.with(|tables| {
        let t = &mut **tables.borrow_mut();
        grid.seed(t);
        fill(t, terminals.len(), &grid.x, &grid.y);
        grid.backtrace(t, terminals)
    })
}

/// A net's Hanan grid in padded-plane coordinates.
struct PaddedGrid {
    hanan: HananGrid,
    /// Padded index of every terminal, in pin order.
    term_at: Vec<usize>,
    /// Every column's x from the grid's left edge, a padded column `BIG`
    /// beyond the last real one; `y` likewise for rows.
    x: [u32; SIDE],
    y: [u32; SIDE],
}

impl PaddedGrid {
    fn new(terminals: &[Point]) -> Self {
        let hanan = HananGrid::new(terminals);
        let padded = |coords: &[i32]| -> [u32; SIDE] {
            let span = coords[coords.len() - 1].abs_diff(coords[0]);
            assert!(
                span < MAX_SIDE,
                "exact_steiner: pins span {span} g-cells, more than MAX_SIDE = {MAX_SIDE} allows"
            );
            std::array::from_fn(|c| coords.get(c).map_or(span + BIG, |&v| v.abs_diff(coords[0])))
        };
        let (x, y) = (padded(hanan.xs()), padded(hanan.ys()));
        let cols = hanan.xs().len();
        let term_at = terminals
            .iter()
            .map(|&t| {
                let real = hanan.index_of(t).expect("pin on own hanan grid");
                real / cols * SIDE + real % cols
            })
            .collect();
        PaddedGrid {
            hanan,
            term_at,
            x,
            y,
        }
    }

    /// The Hanan point at padded index `v`, which is not padding.
    fn point(&self, v: usize) -> Point {
        Point::new(self.hanan.xs()[v % SIDE], self.hanan.ys()[v / SIDE])
    }

    /// Padded indices of the real cells, in the real grid's row-major order.
    fn real_cells(&self) -> impl Iterator<Item = usize> + '_ {
        let cols = self.hanan.xs().len();
        (0..self.hanan.ys().len()).flat_map(move |r| r * SIDE..r * SIDE + cols)
    }

    /// Writes the single-terminal planes of both tables: `‖t − v‖₁` on
    /// real cells, `BIG` on padding (growing cannot improve on a metric,
    /// so `cost` is `init`).
    fn seed(&self, t: &mut Tables) {
        let (x, y) = (&self.x, &self.y);
        for (bit, &at) in self.term_at[..self.term_at.len() - 1].iter().enumerate() {
            let (tx, ty) = (x[at % SIDE], y[at / SIDE]);
            let plane: Plane = std::array::from_fn(|v| {
                (x[v % SIDE].abs_diff(tx) + y[v / SIDE].abs_diff(ty)).min(BIG)
            });
            t.init[1 << bit] = plane;
            t.cost[1 << bit] = plane;
        }
    }

    /// Reconstructs the tree from filled tables, re-deriving each step's
    /// choice (module docs).
    fn backtrace(&self, t: &Tables, terminals: Vec<Point>) -> RoutingTree {
        let k = terminals.len();
        let pt = |v: usize| self.point(v);
        let full = (1 << (k - 1)) - 1;
        let mut edges_pts: Vec<(Point, Point)> = Vec::new();
        let mut stack = vec![(full, self.term_at[k - 1])];
        while let Some((mask, v)) = stack.pop() {
            let best = t.cost[mask][v];
            if t.init[mask][v] != best {
                let u = self
                    .real_cells()
                    .find(|&u| t.init[mask][u] + pt(u).manhattan_distance(pt(v)) == best)
                    .expect("a grown cost has a source");
                edges_pts.push((pt(u), pt(v)));
                stack.push((mask, u));
            } else if mask.is_power_of_two() {
                let at = self.term_at[mask.trailing_zeros() as usize];
                if at != v {
                    edges_pts.push((pt(at), pt(v)));
                }
            } else {
                let (sub, other) = splits(mask)
                    .find(|&(sub, other)| t.cost[sub][v] + t.cost[other][v] == best)
                    .expect("a combined cost has a split");
                stack.push((sub, v));
                stack.push((other, v));
            }
        }
        tree_from_edges(terminals, &edges_pts)
    }
}

/// Fills the planes of every mask over the first `k − 1` terminals that
/// has two or more bits, the single-terminal planes already seeded, on the
/// grid whose padded columns and rows lie at `x` and `y`.
fn fill(t: &mut Tables, k: usize, x: &[u32; SIDE], y: &[u32; SIDE]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fill_avx2` requires AVX2 and nothing else, and the CPU
        // was just found to have it.
        return unsafe { fill_avx2(t, k, x, y) };
    }
    fill_body(t, k, x, y);
}

/// [`fill_body`], compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_avx2(t: &mut Tables, k: usize, x: &[u32; SIDE], y: &[u32; SIDE]) {
    fill_body(t, k, x, y);
}

/// The combine step into a plane, then the grow step: the row sweeps as
/// doubling steps, then the two sweeps along every column, a row at a
/// time (module docs).
#[inline(always)]
fn fill_body(t: &mut Tables, k: usize, x: &[u32; SIDE], y: &[u32; SIDE]) {
    for mask in 1..1usize << (k - 1) {
        if mask.is_power_of_two() {
            continue;
        }
        let mut p: Plane = [u32::MAX; PLANE];
        for (sub, other) in splits(mask) {
            let (a, b) = (&t.cost[sub], &t.cost[other]);
            for v in 0..PLANE {
                p[v] = p[v].min(a[v] + b[v]);
            }
        }
        t.init[mask] = p;
        let (rows, _) = p.as_chunks_mut::<SIDE>();
        for row in rows.iter_mut() {
            relax::<1>(row, x);
            relax::<2>(row, x);
            relax::<4>(row, x);
        }
        for r in 1..SIDE {
            let (above, below) = rows.split_at_mut(r);
            for (to, &from) in below[0].iter_mut().zip(&above[r - 1]) {
                *to = (*to).min(from + (y[r] - y[r - 1]));
            }
        }
        for r in (1..SIDE).rev() {
            let (above, below) = rows.split_at_mut(r);
            for (to, &from) in above[r - 1].iter_mut().zip(&below[0]) {
                *to = (*to).min(from + (y[r] - y[r - 1]));
            }
        }
        t.cost[mask] = p;
    }
}

/// One doubling step of both row sweeps: every cell against the cell `S`
/// columns to its left plus their distance, then against the one `S` to
/// its right, each read before its half of the step. A cell whose partner
/// would lie off the row takes the row's end instead: a shorter hop, and
/// just as valid.
#[inline(always)]
fn relax<const S: usize>(row: &mut [u32; SIDE], x: &[u32; SIDE]) {
    let old = *row;
    for c in 0..SIDE {
        let from = c.saturating_sub(S);
        row[c] = row[c].min(old[from] + (x[c] - x[from]));
    }
    let old = *row;
    for c in 0..SIDE {
        let from = (c + S).min(SIDE - 1);
        row[c] = row[c].min(old[from] + (x[from] - x[c]));
    }
}

/// The unordered splits of `mask` into two non-empty complementary
/// submasks `(sub, mask ∖ sub)` with `sub < mask ∖ sub`, `sub` descending
/// — the one enumeration order both the combine step and the backtrace's
/// tie-break use.
fn splits(mask: usize) -> impl Iterator<Item = (usize, usize)> {
    let next = move |sub: usize| Some((sub - 1) & mask).filter(|&s| s > 0);
    std::iter::successors(next(mask), move |&sub| next(sub))
        .map(move |sub| (sub, mask ^ sub))
        .filter(|&(sub, other)| sub < other)
}

/// Materializes the tree: terminals first, then any Steiner endpoints in
/// first-appearance order.
fn tree_from_edges(terminals: Vec<Point>, edges_pts: &[(Point, Point)]) -> RoutingTree {
    let k = terminals.len();
    let mut nodes = PointIndex::from_distinct(terminals);
    let edges = edges_pts
        .iter()
        .map(|&(a, b)| (nodes.intern(a), nodes.intern(b)))
        .collect();
    RoutingTree::from_parts(nodes.into_points(), k, edges)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mst::rmst_length;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Choice {
        /// Base case: the tree is the direct edge `t_bit — v`.
        Leaf,
        /// The tree splits at `v` into sub-trees for `submask` and its
        /// complement.
        Split { submask: u32 },
        /// The tree is the best tree at `u` extended by the edge `u — v`.
        Extend { u: u32 },
    }

    /// The textbook formulation `exact_steiner` replaced, kept as it was:
    /// an all-pairs `O(n²)` grow step and a stored back pointer per
    /// `(mask, v)`, both scans strict-`<`. It defines the tie-breaks the
    /// sweep version must reproduce.
    fn reference_exact_steiner(pins: &[Point]) -> RoutingTree {
        let terminals = dedup_pins(pins);
        let k = terminals.len();
        if k == 1 {
            return RoutingTree::singleton(terminals[0]);
        }
        if k == 2 {
            return RoutingTree::from_parts(terminals, 2, vec![(0, 1)]);
        }

        let hanan = HananGrid::new(&terminals);
        let n = hanan.num_points();
        let points: Vec<Point> = hanan.points().collect();
        let term_idx: Vec<u32> = terminals
            .iter()
            .map(|&t| hanan.index_of(t).expect("pin on own hanan grid") as u32)
            .collect();

        let dist = |a: usize, b: usize| -> u32 { points[a].manhattan_distance(points[b]) };

        let num_masks = 1usize << (k - 1);
        let mut cost = vec![u32::MAX; num_masks * n];
        let mut back = vec![Choice::Leaf; num_masks * n];
        let at = |mask: usize, v: usize| mask * n + v;

        #[allow(clippy::needless_range_loop)] // `bit` is mask arithmetic, not just an index
        for bit in 0..k - 1 {
            let t = term_idx[bit] as usize;
            let mask = 1usize << bit;
            for v in 0..n {
                cost[at(mask, v)] = dist(t, v);
                back[at(mask, v)] = Choice::Leaf;
            }
        }

        for mask in 1..num_masks {
            if mask.count_ones() >= 2 {
                let mut submask = (mask - 1) & mask;
                while submask > 0 {
                    let other = mask ^ submask;
                    if submask < other {
                        for v in 0..n {
                            let a = cost[at(submask, v)];
                            let b = cost[at(other, v)];
                            if a != u32::MAX && b != u32::MAX {
                                let c = a + b;
                                if c < cost[at(mask, v)] {
                                    cost[at(mask, v)] = c;
                                    back[at(mask, v)] = Choice::Split {
                                        submask: submask as u32,
                                    };
                                }
                            }
                        }
                    }
                    submask = (submask - 1) & mask;
                }
            }
            let snapshot: Vec<u32> = (0..n).map(|u| cost[at(mask, u)]).collect();
            for v in 0..n {
                for (u, &cu) in snapshot.iter().enumerate() {
                    if cu == u32::MAX || u == v {
                        continue;
                    }
                    let c = cu + dist(u, v);
                    if c < cost[at(mask, v)] {
                        cost[at(mask, v)] = c;
                        back[at(mask, v)] = Choice::Extend { u: u as u32 };
                    }
                }
            }
        }

        let full = num_masks - 1;
        let root = term_idx[k - 1] as usize;
        let mut edges_pts: Vec<(Point, Point)> = Vec::new();
        let mut stack = vec![(full, root)];
        while let Some((mask, v)) = stack.pop() {
            match back[at(mask, v)] {
                Choice::Leaf => {
                    let bit = mask.trailing_zeros() as usize;
                    let t = term_idx[bit] as usize;
                    if t != v {
                        edges_pts.push((points[t], points[v]));
                    }
                }
                Choice::Split { submask } => {
                    stack.push((submask as usize, v));
                    stack.push((mask ^ submask as usize, v));
                }
                Choice::Extend { u } => {
                    edges_pts.push((points[u as usize], points[v]));
                    stack.push((mask, u as usize));
                }
            }
        }
        hashed_tree_from_edges(terminals, &edges_pts)
    }

    /// `tree_from_edges` as it was, numbering nodes through a hash map.
    fn hashed_tree_from_edges(terminals: Vec<Point>, edges_pts: &[(Point, Point)]) -> RoutingTree {
        let k = terminals.len();
        let mut nodes = terminals;
        let mut index_of = std::collections::HashMap::new();
        for (i, &t) in nodes.iter().enumerate() {
            index_of.insert(t, i as u32);
        }
        let mut edges = Vec::with_capacity(edges_pts.len());
        for &(a, b) in edges_pts {
            let ia = *index_of.entry(a).or_insert_with(|| {
                nodes.push(a);
                (nodes.len() - 1) as u32
            });
            let ib = *index_of.entry(b).or_insert_with(|| {
                nodes.push(b);
                (nodes.len() - 1) as u32
            });
            edges.push((ia, ib));
        }
        RoutingTree::from_parts(nodes, k, edges)
    }

    /// 5 000 seeded random nets of 3–8 pins in boxes of side 2…200. Small
    /// boxes make shared coordinates, collinear subsets, duplicate pins
    /// and cost ties dense.
    pub(crate) fn random_nets() -> impl Iterator<Item = Vec<Point>> {
        let mut rng = StdRng::seed_from_u64(0xD6E5);
        (0..5000).map(move |case| {
            let side = match case % 3 {
                0 => rng.gen_range(2..=6),
                1 => rng.gen_range(2..=24),
                _ => rng.gen_range(2..=200),
            };
            (0..rng.gen_range(3..=8))
                .map(|_| Point::new(rng.gen_range(0..side), rng.gen_range(0..side)))
                .collect()
        })
    }

    /// Whole-tree equality (nodes, edge order, pin count — not just
    /// length) against the reference, over [`random_nets`].
    #[test]
    fn sweep_dp_returns_the_reference_tree_on_random_nets() {
        let mut hist = [0usize; 9];
        for (case, pins) in random_nets().enumerate() {
            hist[dedup_pins(&pins).len()] += 1;
            assert_eq!(
                exact_steiner(&pins),
                reference_exact_steiner(&pins),
                "case {case}: {pins:?}"
            );
        }
        for (k, &count) in hist.iter().enumerate().skip(4) {
            assert!(count >= 200, "only {count} nets of {k} distinct pins");
        }
    }

    /// Collinear, two-column, two-row, duplicate-pin, lattice, diagonal
    /// and all-ties nets.
    fn degenerate_nets() -> Vec<Vec<Point>> {
        let pts =
            |v: &[(i32, i32)]| -> Vec<Point> { v.iter().map(|&(x, y)| Point::new(x, y)).collect() };
        vec![
            // all collinear, horizontally and vertically (1×n, n×1 grids)
            pts(&[(0, 3), (9, 3), (4, 3), (2, 3), (7, 3), (5, 3)]),
            pts(&[
                (6, 0),
                (6, 11),
                (6, 4),
                (6, 5),
                (6, 9),
                (6, 1),
                (6, 30),
                (6, 2),
            ]),
            // two columns, two rows
            pts(&[
                (0, 0),
                (5, 1),
                (0, 2),
                (5, 3),
                (0, 4),
                (5, 5),
                (0, 6),
                (5, 7),
            ]),
            pts(&[(0, 0), (1, 8), (2, 0), (3, 8), (4, 0), (5, 8), (6, 0)]),
            // duplicate pins around distinct ones
            pts(&[
                (1, 1),
                (1, 1),
                (4, 1),
                (4, 1),
                (2, 5),
                (2, 5),
                (9, 9),
                (1, 1),
            ]),
            // a full 3×3 lattice minus its centre, and a diagonal
            pts(&[
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (2, 1),
                (0, 2),
                (1, 2),
                (2, 2),
            ]),
            pts(&[
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (5, 5),
                (6, 6),
                (7, 7),
            ]),
            // equal gaps everywhere: every split ties
            pts(&[(0, 0), (4, 0), (0, 4), (4, 4), (2, 2)]),
        ]
    }

    #[test]
    fn sweep_dp_returns_the_reference_tree_on_degenerate_shapes() {
        for pins in degenerate_nets() {
            let tree = exact_steiner(&pins);
            tree.validate().unwrap();
            assert_eq!(tree, reference_exact_steiner(&pins), "{pins:?}");
        }
    }

    /// Both tables as `fill` leaves them for `pins`, on a fresh buffer.
    fn tables_of(pins: &[Point], fill: Fill) -> Box<Tables> {
        let terminals = dedup_pins(pins);
        let grid = PaddedGrid::new(&terminals);
        let mut t = Box::new(Tables {
            init: [[0; PLANE]; MASKS],
            cost: [[0; PLANE]; MASKS],
        });
        grid.seed(&mut t);
        fill(&mut t, terminals.len(), &grid.x, &grid.y);
        t
    }

    #[test]
    fn the_two_fill_bodies_agree() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected above.
            let wide: Fill = |t, k, x, y| unsafe { fill_avx2(t, k, x, y) };
            let nets = random_nets().chain(degenerate_nets());
            for pins in nets.filter(|pins| dedup_pins(pins).len() >= 3) {
                let (plain, wide) = (tables_of(&pins, fill_body), tables_of(&pins, wide));
                assert!(
                    plain.init == wide.init && plain.cost == wide.cost,
                    "{pins:?}"
                );
            }
        }
    }

    /// The widest box `exact_steiner` accepts: real entries come closest
    /// to `BIG` here.
    #[test]
    fn a_box_of_max_side_minus_one_matches_the_reference() {
        let far = MAX_SIDE as i32 - 1;
        let mut rng = StdRng::seed_from_u64(0xB16);
        let corners = [(0, 0), (far, 0), (0, far), (far, far)];
        for _ in 0..50 {
            let pins: Vec<Point> = corners
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .chain((0..4).map(|_| Point::new(rng.gen_range(0..=far), rng.gen_range(0..=far))))
                .collect();
            let tree = exact_steiner(&pins);
            tree.validate().unwrap();
            assert_eq!(tree, reference_exact_steiner(&pins), "{pins:?}");
        }
    }

    #[test]
    #[should_panic(expected = "EXACT_PIN_LIMIT")]
    fn nine_distinct_pins_panic_naming_the_limit() {
        exact_steiner(&(0..9).map(|i| Point::new(i, 2 * i)).collect::<Vec<_>>());
    }

    /// Per-net time by distinct pin count, both bodies, best of 25
    /// alternated passes:
    /// `cargo test --release -p dgr-rsmt --lib per_net_time -- --ignored --nocapture`
    #[test]
    #[ignore = "timing: run in release"]
    fn per_net_time_by_pin_count() {
        #[cfg(target_arch = "x86_64")]
        let wide: Fill = |t, k, x, y| {
            assert!(std::arch::is_x86_feature_detected!("avx2"));
            // SAFETY: AVX2 was asserted above.
            unsafe { fill_avx2(t, k, x, y) }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let wide: Fill = fill_body;
        let mut rng = StdRng::seed_from_u64(64);
        println!("| k | plain µs | AVX2 µs |");
        for k in 4..=EXACT_PIN_LIMIT {
            let nets: Vec<Vec<Point>> = (0..2000)
                .map(|_| loop {
                    let pins: Vec<Point> = (0..k)
                        .map(|_| Point::new(rng.gen_range(0..64), rng.gen_range(0..64)))
                        .collect();
                    if dedup_pins(&pins).len() == k {
                        break pins;
                    }
                })
                .collect();
            let mut best = [f64::INFINITY; 2];
            for _ in 0..25 {
                for (best, fill) in best.iter_mut().zip([fill_body, wide]) {
                    let start = std::time::Instant::now();
                    for pins in &nets {
                        std::hint::black_box(steiner_with(dedup_pins(pins), fill));
                    }
                    *best = best.min(start.elapsed().as_secs_f64() * 1e6 / nets.len() as f64);
                }
            }
            println!("| {k} | {:.1} | {:.1} |", best[0], best[1]);
        }
    }

    #[test]
    fn two_pins_direct_edge() {
        let t = exact_steiner(&[Point::new(0, 0), Point::new(5, 3)]);
        t.validate().unwrap();
        assert_eq!(t.length(), 8);
    }

    #[test]
    fn l_corner_three_pins_uses_steiner() {
        // (0,0), (4,0), (4,4): corner (4,0) is a pin — no steiner needed
        let t = exact_steiner(&[Point::new(0, 0), Point::new(4, 0), Point::new(4, 4)]);
        t.validate().unwrap();
        assert_eq!(t.length(), 8);
    }

    #[test]
    fn t_shape_three_pins() {
        // MST: 4+4=8 via two edges; Steiner point at (2,0) gives 2+2+2=6
        let t = exact_steiner(&[Point::new(0, 0), Point::new(4, 0), Point::new(2, 2)]);
        t.validate().unwrap();
        assert_eq!(t.length(), 6);
    }

    #[test]
    fn four_pin_cross_saves_over_mst() {
        let pins = [
            Point::new(0, 1),
            Point::new(2, 0),
            Point::new(2, 2),
            Point::new(4, 1),
        ];
        let t = exact_steiner(&pins);
        t.validate().unwrap();
        assert_eq!(t.length(), 6);
        assert!(t.length() < rmst_length(&pins));
    }

    #[test]
    fn square_corners_four_pins() {
        let pins = [
            Point::new(0, 0),
            Point::new(0, 2),
            Point::new(2, 0),
            Point::new(2, 2),
        ];
        let t = exact_steiner(&pins);
        t.validate().unwrap();
        assert_eq!(t.length(), 6); // equals the MST; no Steiner gain
    }

    #[test]
    fn steiner_never_beats_half_perimeter_lower_bound() {
        use dgr_grid::Rect;
        let pins = [
            Point::new(0, 0),
            Point::new(7, 1),
            Point::new(3, 6),
            Point::new(5, 4),
            Point::new(1, 3),
        ];
        let t = exact_steiner(&pins);
        t.validate().unwrap();
        let hpwl = Rect::bounding(&pins).half_perimeter() as u64;
        assert!(t.length() >= hpwl);
        assert!(t.length() <= rmst_length(&pins));
    }

    #[test]
    fn collinear_pins_cost_span() {
        let pins = [Point::new(0, 0), Point::new(3, 0), Point::new(7, 0)];
        let t = exact_steiner(&pins);
        assert_eq!(t.length(), 7);
    }

    #[test]
    fn duplicate_pins_merge() {
        let t = exact_steiner(&[Point::new(1, 1), Point::new(1, 1), Point::new(4, 1)]);
        t.validate().unwrap();
        assert_eq!(t.length(), 3);
    }

    /// Brute-force reference: enumerate every subset of Hanan points as
    /// Steiner candidates and take the best MST over pins ∪ subset.
    fn brute_force_rsmt_len(pins: &[Point]) -> u64 {
        let hanan = HananGrid::new(pins);
        let extra: Vec<Point> = hanan.points().filter(|p| !pins.contains(p)).collect();
        let mut best = rmst_length(pins);
        for mask in 1u32..(1 << extra.len()) {
            let mut pts = pins.to_vec();
            for (i, &e) in extra.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    pts.push(e);
                }
            }
            // MST over pins+steiner overestimates unless steiner nodes are
            // useful, but the minimum over all subsets is the RSMT length.
            best = best.min(crate::mst::rmst(&pts).length());
        }
        best
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let cases: Vec<Vec<Point>> = vec![
            vec![Point::new(0, 0), Point::new(3, 1), Point::new(1, 3)],
            vec![
                Point::new(0, 2),
                Point::new(2, 0),
                Point::new(4, 2),
                Point::new(2, 4),
            ],
            vec![
                Point::new(0, 0),
                Point::new(1, 2),
                Point::new(3, 1),
                Point::new(2, 3),
            ],
        ];
        for pins in cases {
            let dw = exact_steiner(&pins).length();
            let bf = brute_force_rsmt_len(&pins);
            assert_eq!(dw, bf, "mismatch on {pins:?}");
        }
    }
}
