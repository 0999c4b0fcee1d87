//! Integer geometry on the g-cell grid.

use serde::{Deserialize, Serialize};

/// A g-cell coordinate.
///
/// Coordinates are signed so intermediate arithmetic (e.g. bounding-box
/// inflation near the grid border) cannot underflow; valid grid positions are
/// always non-negative.
///
/// # Examples
///
/// ```
/// use dgr_grid::Point;
///
/// let a = Point::new(2, 3);
/// let b = Point::new(5, 7);
/// assert_eq!(a.manhattan_distance(b), 7);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Point {
    /// Horizontal g-cell index.
    pub x: i32,
    /// Vertical g-cell index.
    pub y: i32,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Manhattan (rectilinear) distance to `other`, in g-cell units.
    pub fn manhattan_distance(self, other: Point) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// Returns `true` when the two points share an x or y coordinate, i.e.
    /// they can be connected by a single straight wire segment.
    pub fn is_aligned_with(self, other: Point) -> bool {
        self.x == other.x || self.y == other.y
    }

    /// The two L-shape corner points between `self` and `other`.
    ///
    /// For aligned points both corners coincide with one of the endpoints.
    pub fn l_corners(self, other: Point) -> (Point, Point) {
        (Point::new(self.x, other.y), Point::new(other.x, self.y))
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i32, i32)> for Point {
    fn from((x, y): (i32, i32)) -> Self {
        Point::new(x, y)
    }
}

/// Distinct points numbered in order of first appearance — the node table
/// of one net's tree or segment graph. A net has tens of points, so a
/// lookup scans them; a hash map takes over past [`PointIndex::SCAN_MAX`]
/// points, which keeps a net of thousands of pins linear.
///
/// # Examples
///
/// ```
/// use dgr_grid::{Point, PointIndex};
///
/// let mut nodes = PointIndex::default();
/// assert_eq!(nodes.intern(Point::new(4, 1)), 0);
/// assert_eq!(nodes.intern(Point::new(2, 2)), 1);
/// assert_eq!(nodes.intern(Point::new(4, 1)), 0);
/// assert_eq!(nodes.get(Point::new(9, 9)), None);
/// assert_eq!(nodes.points(), [Point::new(4, 1), Point::new(2, 2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PointIndex {
    points: Vec<Point>,
    /// Every point's number, kept only while `points` is past `SCAN_MAX`.
    by_point: std::collections::HashMap<Point, u32>,
}

impl PointIndex {
    /// The largest table that is searched by scanning it.
    pub const SCAN_MAX: usize = 64;

    /// The index over `points`, numbered by position.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a point repeats.
    pub fn from_distinct(points: Vec<Point>) -> Self {
        let mut index = PointIndex {
            points,
            by_point: Default::default(),
        };
        if index.points.len() > Self::SCAN_MAX {
            index.hash_all();
        }
        debug_assert!(
            (0..index.points.len()).all(|i| index.get(index.points[i]) == Some(i as u32)),
            "a point repeats"
        );
        index
    }

    fn hash_all(&mut self) {
        let numbered = self.points.iter().enumerate();
        self.by_point.extend(numbered.map(|(i, &p)| (p, i as u32)));
    }

    /// Forgets every point and keeps the allocations.
    pub fn clear(&mut self) {
        self.points.clear();
        self.by_point.clear();
    }

    /// The number of `p`, if it has appeared.
    pub fn get(&self, p: Point) -> Option<u32> {
        if self.points.len() <= Self::SCAN_MAX {
            self.points.iter().position(|&q| q == p).map(|i| i as u32)
        } else {
            self.by_point.get(&p).copied()
        }
    }

    /// The number of `p`, which is the next free one if `p` is new.
    pub fn intern(&mut self, p: Point) -> u32 {
        if let Some(i) = self.get(p) {
            return i;
        }
        let i = self.points.len() as u32;
        self.points.push(p);
        match self.points.len() {
            n if n <= Self::SCAN_MAX => {}
            n if n == Self::SCAN_MAX + 1 => self.hash_all(),
            _ => drop(self.by_point.insert(p, i)),
        }
        i
    }

    /// The points, by number.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The points, by number.
    pub fn into_points(self) -> Vec<Point> {
        self.points
    }
}

/// An axis-aligned, inclusive rectangle of g-cells.
///
/// # Examples
///
/// ```
/// use dgr_grid::{Point, Rect};
///
/// let r = Rect::bounding(&[Point::new(1, 5), Point::new(4, 2)]);
/// assert_eq!(r, Rect::new(Point::new(1, 2), Point::new(4, 5)));
/// assert!(r.contains(Point::new(2, 3)));
/// assert_eq!(r.half_perimeter(), 6);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Rect {
    /// Lower-left corner (inclusive).
    pub lo: Point,
    /// Upper-right corner (inclusive).
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo` is not component-wise `<= hi`.
    pub fn new(lo: Point, hi: Point) -> Self {
        debug_assert!(lo.x <= hi.x && lo.y <= hi.y, "rect corners out of order");
        Rect { lo, hi }
    }

    /// The smallest rectangle containing every point in `points`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn bounding(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "bounding box of zero points");
        let mut lo = points[0];
        let mut hi = points[0];
        for p in &points[1..] {
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
        }
        Rect { lo, hi }
    }

    /// Whether `p` lies inside the rectangle (borders included).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Width in g-cells (number of columns spanned).
    pub fn width(&self) -> u32 {
        self.hi.x.abs_diff(self.lo.x) + 1
    }

    /// Height in g-cells (number of rows spanned).
    pub fn height(&self) -> u32 {
        self.hi.y.abs_diff(self.lo.y) + 1
    }

    /// Half-perimeter wirelength (HPWL) of the rectangle in edge units.
    pub fn half_perimeter(&self) -> u32 {
        self.hi.x.abs_diff(self.lo.x) + self.hi.y.abs_diff(self.lo.y)
    }

    /// Grows the rectangle by `margin` on every side, clamped to `bounds`.
    pub fn inflate_clamped(&self, margin: i32, bounds: Rect) -> Rect {
        Rect {
            lo: Point::new(
                (self.lo.x - margin).max(bounds.lo.x),
                (self.lo.y - margin).max(bounds.lo.y),
            ),
            hi: Point::new(
                (self.hi.x + margin).min(bounds.hi.x),
                (self.hi.y + margin).min(bounds.hi.y),
            ),
        }
    }

    /// Iterates over every g-cell position inside the rectangle, row-major.
    pub fn cells(&self) -> impl Iterator<Item = Point> + '_ {
        let (lo, hi) = (self.lo, self.hi);
        (lo.y..=hi.y).flat_map(move |y| (lo.x..=hi.x).map(move |x| Point::new(x, y)))
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_index_numbers_by_first_appearance_on_both_sides_of_the_scan_bound() {
        // 3 × SCAN_MAX distinct points, each offered three times
        let stream: Vec<Point> = (0..9 * PointIndex::SCAN_MAX as i32)
            .map(|i| Point::new((i * 7) % 3, (i * 5) % (PointIndex::SCAN_MAX as i32)))
            .collect();
        let mut index = PointIndex::default();
        let mut first_seen: Vec<Point> = Vec::new();
        for round in 0..2 {
            for &p in &stream {
                let want = first_seen.iter().position(|&q| q == p).unwrap_or_else(|| {
                    first_seen.push(p);
                    first_seen.len() - 1
                });
                assert_eq!(index.intern(p), want as u32);
                assert_eq!(index.get(p), Some(want as u32));
            }
            assert_eq!(index.points(), first_seen);
            assert_eq!(first_seen.len(), 3 * PointIndex::SCAN_MAX);
            assert_eq!(index.get(Point::new(-1, 0)), None);
            for len in [3, PointIndex::SCAN_MAX, PointIndex::SCAN_MAX + 1] {
                let seeded = PointIndex::from_distinct(first_seen[..len].to_vec());
                assert_eq!(seeded.get(first_seen[len - 1]), Some(len as u32 - 1));
                assert_eq!(seeded.get(first_seen[len]), None);
            }
            if round == 0 {
                // a cleared index is an empty one
                index.clear();
                first_seen.clear();
            }
        }
    }

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(-3, 4);
        let b = Point::new(10, -2);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
        assert_eq!(a.manhattan_distance(b), 13 + 6);
    }

    #[test]
    fn manhattan_distance_to_self_is_zero() {
        let p = Point::new(7, 7);
        assert_eq!(p.manhattan_distance(p), 0);
    }

    #[test]
    fn alignment() {
        assert!(Point::new(1, 5).is_aligned_with(Point::new(1, 9)));
        assert!(Point::new(2, 3).is_aligned_with(Point::new(8, 3)));
        assert!(!Point::new(0, 0).is_aligned_with(Point::new(1, 1)));
    }

    #[test]
    fn l_corners_of_diagonal_pair() {
        let (c1, c2) = Point::new(0, 0).l_corners(Point::new(3, 4));
        assert_eq!(c1, Point::new(0, 4));
        assert_eq!(c2, Point::new(3, 0));
    }

    #[test]
    fn bounding_box_of_scattered_points() {
        let r = Rect::bounding(&[
            Point::new(5, 1),
            Point::new(2, 8),
            Point::new(9, 4),
            Point::new(3, 3),
        ]);
        assert_eq!(r.lo, Point::new(2, 1));
        assert_eq!(r.hi, Point::new(9, 8));
        assert_eq!(r.width(), 8);
        assert_eq!(r.height(), 8);
    }

    #[test]
    fn rect_contains_borders() {
        let r = Rect::new(Point::new(1, 1), Point::new(4, 4));
        assert!(r.contains(Point::new(1, 4)));
        assert!(r.contains(Point::new(4, 1)));
        assert!(!r.contains(Point::new(0, 2)));
        assert!(!r.contains(Point::new(2, 5)));
    }

    #[test]
    fn inflate_clamps_to_bounds() {
        let bounds = Rect::new(Point::new(0, 0), Point::new(9, 9));
        let r = Rect::new(Point::new(1, 8), Point::new(3, 9));
        let g = r.inflate_clamped(2, bounds);
        assert_eq!(g, Rect::new(Point::new(0, 6), Point::new(5, 9)));
    }

    #[test]
    fn cells_enumerates_row_major() {
        let r = Rect::new(Point::new(1, 1), Point::new(2, 2));
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(
            cells,
            vec![
                Point::new(1, 1),
                Point::new(2, 1),
                Point::new(1, 2),
                Point::new(2, 2)
            ]
        );
    }

    #[test]
    fn half_perimeter_single_cell_is_zero() {
        let r = Rect::new(Point::new(3, 3), Point::new(3, 3));
        assert_eq!(r.half_perimeter(), 0);
        assert_eq!(r.width(), 1);
    }
}
