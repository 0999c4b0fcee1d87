//! Pattern-path enumeration for 2-pin sub-nets.
//!
//! The paper enumerates L-shape patterns per sub-net (Section 4.2) and
//! notes the representation extends to Z-/C-shape, monotonic or maze
//! paths. This module enumerates:
//!
//! * the straight path for aligned endpoints (0 turns),
//! * both L-shapes for diagonal endpoints (1 turn each),
//! * optionally Z-shapes (2 turns) at a configurable stride — the first
//!   "extension" knob the paper's future-work section calls for.
//!
//! Every enumerated path is *monotone*, so its wirelength equals the
//! Manhattan distance of its endpoints; paths differ only in which g-cell
//! edges they consume and where their turning points (vias) fall.

use dgr_grid::{GcellGrid, Point};

use crate::DagError;

/// One concrete pattern path: a polyline of corner points from source to
/// sink (inclusive), with derived wirelength and turn count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternPath {
    /// Waypoints including both endpoints; consecutive waypoints are
    /// rectilinearly aligned.
    pub corners: Vec<Point>,
}

impl PatternPath {
    /// Builds a path from waypoints.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if consecutive waypoints are not aligned.
    pub fn new(corners: Vec<Point>) -> Self {
        debug_assert!(!corners.is_empty());
        debug_assert!(
            corners.windows(2).all(|w| w[0].is_aligned_with(w[1])),
            "pattern path has diagonal hop"
        );
        PatternPath { corners }
    }

    /// Source endpoint.
    pub fn source(&self) -> Point {
        self.corners[0]
    }

    /// Sink endpoint.
    pub fn sink(&self) -> Point {
        *self.corners.last().expect("non-empty corners")
    }

    /// Total wirelength in g-cell edge units.
    pub fn wirelength(&self) -> u32 {
        self.corners
            .windows(2)
            .map(|w| w[0].manhattan_distance(w[1]))
            .sum()
    }

    /// Interior turning points (where the path changes direction).
    ///
    /// Collinear interior waypoints do not count as turns.
    pub fn turning_points(&self) -> Vec<Point> {
        turning_points(&self.corners).collect()
    }

    /// Number of turning points.
    pub fn num_turns(&self) -> u32 {
        turning_points(&self.corners).count() as u32
    }

    /// The g-cell edges the path occupies, in order from source to sink.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::PathOutOfGrid`] if any segment leaves the grid.
    pub fn edges(&self, grid: &GcellGrid) -> Result<Vec<dgr_grid::EdgeId>, DagError> {
        let mut out = Vec::with_capacity(self.wirelength() as usize);
        for w in self.corners.windows(2) {
            grid.push_segment_edges(w[0], w[1], &mut out)?;
        }
        Ok(out)
    }
}

/// The interior points of `corners` where the polyline changes between
/// horizontal and vertical movement, in order. A zero-length segment (a
/// corner given twice) has no direction and is skipped, so the segments
/// on either side of it still meet in a turn.
pub(crate) fn turning_points(corners: &[Point]) -> impl Iterator<Item = Point> + '_ {
    let dir = |w: &[Point]| (w[0].x != w[1].x, w[0].y != w[1].y);
    let mut segments = corners.windows(2).filter(|w| w[0] != w[1]);
    let mut prev = segments.next();
    segments.filter_map(move |w| {
        let turns = prev.is_some_and(|p| dir(p) != dir(w));
        prev = Some(w);
        turns.then_some(w[0])
    })
}

impl std::fmt::Display for PatternPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for c in &self.corners {
            if !first {
                write!(f, " → ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

/// Enumerates L- and Z-shape candidates between `a` and `b` — shorthand
/// for [`enumerate_patterns`] without C-shape detours.
///
/// # Examples
///
/// ```
/// use dgr_grid::Point;
/// use dgr_dag::enumerate_paths;
///
/// let ls = enumerate_paths(Point::new(0, 0), Point::new(3, 2), None);
/// assert_eq!(ls.len(), 2); // two L-shapes
/// let zs = enumerate_paths(Point::new(0, 0), Point::new(3, 2), Some(1));
/// assert!(zs.len() > 2); // L-shapes plus Z-shapes
/// ```
pub fn enumerate_paths(a: Point, b: Point, z_stride: Option<u32>) -> Vec<PatternPath> {
    enumerate_patterns(a, b, z_stride, None, None)
}

/// Enumerates pattern-path candidates between `a` and `b`.
///
/// * Aligned endpoints yield the single straight path.
/// * Diagonal endpoints yield both L-shapes, plus — when `z_stride` is
///   `Some(s)` — Z-shapes whose middle leg sits at every `s`-th intermediate
///   coordinate (both HVH and VHV families).
/// * When `c_detour` is `Some(d)`, **C-shapes** (the paper's third pattern
///   family) escape the bounding box by `d` g-cells on each applicable
///   side: non-monotone detours with 2 turns and `+2·d`-ish wirelength.
///   Escapes leaving `bounds` are skipped.
///
/// Identical paths (e.g. for `a == b`) are deduplicated. The result is
/// never empty.
///
/// # Examples
///
/// ```
/// use dgr_grid::{Point, Rect};
/// use dgr_dag::enumerate_patterns;
///
/// // an aligned pair with C-detours: the straight path plus two U-bends
/// let bounds = Rect::new(Point::new(0, 0), Point::new(9, 9));
/// let paths = enumerate_patterns(
///     Point::new(1, 5),
///     Point::new(7, 5),
///     None,
///     Some(2),
///     Some(bounds),
/// );
/// assert_eq!(paths.len(), 3);
/// ```
pub fn enumerate_patterns(
    a: Point,
    b: Point,
    z_stride: Option<u32>,
    c_detour: Option<u32>,
    bounds: Option<dgr_grid::Rect>,
) -> Vec<PatternPath> {
    let mut out = Vec::new();
    let collected: Result<(), std::convert::Infallible> =
        for_each_pattern(a, b, z_stride, c_detour, bounds, |corners| {
            out.push(PatternPath::new(corners.to_vec()));
            Ok(())
        });
    let Ok(()) = collected;
    out
}

/// [`enumerate_patterns`] without the vectors: hands `visit` the corners
/// of each candidate, in the same order, and stops at its first error.
/// The forest builder writes them straight into its arenas.
pub(crate) fn for_each_pattern<E>(
    a: Point,
    b: Point,
    z_stride: Option<u32>,
    c_detour: Option<u32>,
    bounds: Option<dgr_grid::Rect>,
    mut visit: impl FnMut(&[Point]) -> Result<(), E>,
) -> Result<(), E> {
    if a == b {
        return visit(&[a]);
    }
    if a.is_aligned_with(b) {
        visit(&[a, b])?;
    } else {
        let (c1, c2) = a.l_corners(b);
        visit(&[a, c1, b])?;
        visit(&[a, c2, b])?;
        if let Some(stride) = z_stride {
            let stride = stride.max(1) as i32;
            // HVH: horizontal to xm, vertical, horizontal to b.
            let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
            let mut xm = x0 + stride;
            while xm < x1 {
                visit(&[a, Point::new(xm, a.y), Point::new(xm, b.y), b])?;
                xm += stride;
            }
            // VHV: vertical to ym, horizontal, vertical to b.
            let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
            let mut ym = y0 + stride;
            while ym < y1 {
                visit(&[a, Point::new(a.x, ym), Point::new(b.x, ym), b])?;
                ym += stride;
            }
        }
    }
    if let Some(d) = c_detour {
        let d = d.max(1) as i32;
        let inside = |p: Point| bounds.is_none_or(|r| r.contains(p));
        // horizontal escape lines (middle leg runs horizontally at Y):
        // invalid for vertical pairs — the legs would overlap themselves
        if a.x != b.x {
            for y in [a.y.max(b.y) + d, a.y.min(b.y) - d] {
                let (m1, m2) = (Point::new(a.x, y), Point::new(b.x, y));
                if inside(m1) && inside(m2) {
                    visit(&[a, m1, m2, b])?;
                }
            }
        }
        // vertical escape lines (middle leg runs vertically at X)
        if a.y != b.y {
            for x in [a.x.max(b.x) + d, a.x.min(b.x) - d] {
                let (m1, m2) = (Point::new(x, a.y), Point::new(x, b.y));
                if inside(m1) && inside(m2) {
                    visit(&[a, m1, m2, b])?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::GcellGrid;

    #[test]
    fn straight_path_has_no_turns() {
        let ps = enumerate_paths(Point::new(1, 1), Point::new(5, 1), Some(1));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].num_turns(), 0);
        assert_eq!(ps[0].wirelength(), 4);
    }

    #[test]
    fn l_shapes_have_one_turn_each() {
        let ps = enumerate_paths(Point::new(0, 0), Point::new(4, 3), None);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.num_turns(), 1);
            assert_eq!(p.wirelength(), 7);
            assert_eq!(p.source(), Point::new(0, 0));
            assert_eq!(p.sink(), Point::new(4, 3));
        }
        assert_ne!(ps[0], ps[1]);
    }

    #[test]
    fn z_shapes_have_two_turns() {
        let ps = enumerate_paths(Point::new(0, 0), Point::new(4, 3), Some(1));
        // 2 L + 3 HVH (xm = 1,2,3) + 2 VHV (ym = 1,2)
        assert_eq!(ps.len(), 7);
        for p in &ps[2..] {
            assert_eq!(p.num_turns(), 2);
            assert_eq!(p.wirelength(), 7);
        }
    }

    #[test]
    fn z_stride_thins_candidates() {
        let dense = enumerate_paths(Point::new(0, 0), Point::new(9, 9), Some(1)).len();
        let sparse = enumerate_paths(Point::new(0, 0), Point::new(9, 9), Some(4)).len();
        assert!(sparse < dense);
        assert!(sparse >= 2);
    }

    #[test]
    fn degenerate_pair_is_single_empty_path() {
        let ps = enumerate_paths(Point::new(2, 2), Point::new(2, 2), Some(1));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].wirelength(), 0);
        assert_eq!(ps[0].num_turns(), 0);
    }

    #[test]
    fn edges_cover_the_wirelength() {
        let grid = GcellGrid::new(10, 10).unwrap();
        for p in enumerate_paths(Point::new(1, 2), Point::new(6, 8), Some(2)) {
            let edges = p.edges(&grid).unwrap();
            assert_eq!(edges.len() as u32, p.wirelength());
            // no edge repeats on a monotone path
            let set: std::collections::HashSet<_> = edges.iter().collect();
            assert_eq!(set.len(), edges.len());
        }
    }

    #[test]
    fn out_of_grid_path_errors() {
        let grid = GcellGrid::new(3, 3).unwrap();
        let p = PatternPath::new(vec![Point::new(0, 0), Point::new(5, 0)]);
        assert!(matches!(p.edges(&grid), Err(DagError::PathOutOfGrid(_))));
    }

    #[test]
    fn collinear_interior_waypoint_is_not_a_turn() {
        let p = PatternPath::new(vec![Point::new(0, 0), Point::new(2, 0), Point::new(5, 0)]);
        assert_eq!(p.num_turns(), 0);
    }

    #[test]
    fn c_shapes_detour_outside_the_box() {
        use dgr_grid::Rect;
        let bounds = Rect::new(Point::new(0, 0), Point::new(20, 20));
        // aligned pair: straight + two U-bends (above and below)
        let ps = enumerate_patterns(
            Point::new(2, 5),
            Point::new(8, 5),
            None,
            Some(3),
            Some(bounds),
        );
        assert_eq!(ps.len(), 3);
        for p in &ps[1..] {
            assert_eq!(p.num_turns(), 2);
            assert_eq!(p.wirelength(), 6 + 2 * 3); // detour pays 2·d
        }
        // diagonal pair: 2 L + 4 C escapes
        let ps = enumerate_patterns(
            Point::new(5, 5),
            Point::new(9, 8),
            None,
            Some(2),
            Some(bounds),
        );
        assert_eq!(ps.len(), 6);
        // every path still connects the endpoints
        for p in &ps {
            assert_eq!(p.source(), Point::new(5, 5));
            assert_eq!(p.sink(), Point::new(9, 8));
        }
    }

    #[test]
    fn c_shapes_respect_bounds() {
        use dgr_grid::Rect;
        // near the border: escapes that would leave the grid are skipped
        let bounds = Rect::new(Point::new(0, 0), Point::new(10, 10));
        let ps = enumerate_patterns(
            Point::new(0, 0),
            Point::new(6, 0),
            None,
            Some(2),
            Some(bounds),
        );
        // straight + the upward U only (downward would go to y = −2)
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn vertical_pair_gets_only_sideways_detours() {
        use dgr_grid::Rect;
        let bounds = Rect::new(Point::new(0, 0), Point::new(20, 20));
        let ps = enumerate_patterns(
            Point::new(5, 2),
            Point::new(5, 9),
            None,
            Some(2),
            Some(bounds),
        );
        // straight + left/right C; no vertical escape (it would overlap
        // its own leg)
        assert_eq!(ps.len(), 3);
        for p in &ps[1..] {
            assert!(p.corners.iter().all(|c| c.y >= 2 && c.y <= 9));
        }
    }

    /// `enumerate_patterns` as it was: a vector per candidate.
    fn reference_enumerate_patterns(
        a: Point,
        b: Point,
        z_stride: Option<u32>,
        c_detour: Option<u32>,
        bounds: Option<dgr_grid::Rect>,
    ) -> Vec<PatternPath> {
        if a == b {
            return vec![PatternPath::new(vec![a])];
        }
        let mut out = Vec::new();
        if a.is_aligned_with(b) {
            out.push(PatternPath::new(vec![a, b]));
        } else {
            let (c1, c2) = a.l_corners(b);
            out.push(PatternPath::new(vec![a, c1, b]));
            out.push(PatternPath::new(vec![a, c2, b]));
            if let Some(stride) = z_stride {
                let stride = stride.max(1) as i32;
                // HVH: horizontal to xm, vertical, horizontal to b.
                let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
                let mut xm = x0 + stride;
                while xm < x1 {
                    out.push(PatternPath::new(vec![
                        a,
                        Point::new(xm, a.y),
                        Point::new(xm, b.y),
                        b,
                    ]));
                    xm += stride;
                }
                // VHV: vertical to ym, horizontal, vertical to b.
                let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
                let mut ym = y0 + stride;
                while ym < y1 {
                    out.push(PatternPath::new(vec![
                        a,
                        Point::new(a.x, ym),
                        Point::new(b.x, ym),
                        b,
                    ]));
                    ym += stride;
                }
            }
        }
        if let Some(d) = c_detour {
            let d = d.max(1) as i32;
            let inside = |p: Point| bounds.is_none_or(|r| r.contains(p));
            // horizontal escape lines (middle leg runs horizontally at Y):
            // invalid for vertical pairs — the legs would overlap themselves
            if a.x != b.x {
                for y in [a.y.max(b.y) + d, a.y.min(b.y) - d] {
                    let (m1, m2) = (Point::new(a.x, y), Point::new(b.x, y));
                    if inside(m1) && inside(m2) {
                        out.push(PatternPath::new(vec![a, m1, m2, b]));
                    }
                }
            }
            // vertical escape lines (middle leg runs vertically at X)
            if a.y != b.y {
                for x in [a.x.max(b.x) + d, a.x.min(b.x) - d] {
                    let (m1, m2) = (Point::new(x, a.y), Point::new(x, b.y));
                    if inside(m1) && inside(m2) {
                        out.push(PatternPath::new(vec![a, m1, m2, b]));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn enumeration_equals_the_vector_building_one_it_replaced() {
        use dgr_grid::Rect;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9A77);
        let bounds = Rect::new(Point::new(0, 0), Point::new(11, 11));
        for _ in 0..2000 {
            let mut point = || Point::new(rng.gen_range(0..12), rng.gen_range(0..12));
            let (a, b) = (point(), point());
            let z = [None, Some(1u32), Some(3)][rng.gen_range(0..3usize)];
            let c = [None, Some(1u32), Some(2)][rng.gen_range(0..3usize)];
            let bounds = rng.gen_bool(0.8).then_some(bounds);
            assert_eq!(
                enumerate_patterns(a, b, z, c, bounds),
                reference_enumerate_patterns(a, b, z, c, bounds),
                "{a} {b} {z:?} {c:?}"
            );
        }
    }

    #[test]
    fn turning_points_of_l_shape() {
        let p = PatternPath::new(vec![Point::new(0, 0), Point::new(3, 0), Point::new(3, 4)]);
        assert_eq!(p.turning_points(), vec![Point::new(3, 0)]);
    }

    /// A corner given twice is one corner; collinear and repeated
    /// endpoints turn nowhere.
    #[test]
    fn a_repeated_corner_still_turns() {
        let pt = |x, y| Point::new(x, y);
        let twice = PatternPath::new(vec![pt(0, 0), pt(3, 0), pt(3, 0), pt(3, 4)]);
        assert_eq!(twice.turning_points(), vec![pt(3, 0)]);
        let thrice = PatternPath::new(vec![
            pt(0, 0),
            pt(0, 0),
            pt(3, 0),
            pt(3, 0),
            pt(3, 0),
            pt(3, 4),
        ]);
        assert_eq!(thrice.num_turns(), 1);
        let straight = PatternPath::new(vec![pt(0, 0), pt(2, 0), pt(2, 0), pt(5, 0)]);
        assert_eq!(straight.num_turns(), 0);
        assert_eq!(PatternPath::new(vec![pt(1, 1), pt(1, 1)]).num_turns(), 0);
    }
}
