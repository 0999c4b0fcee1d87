//! The Hanan grid of a pin set.
//!
//! Hanan's theorem: some rectilinear Steiner minimum tree uses only points
//! at intersections of horizontal and vertical lines through the pins. The
//! [`HananGrid`] enumerates those intersections, giving the exact solver in
//! [`crate::dreyfus_wagner`] a finite, optimal search space.

use dgr_grid::Point;

/// The Hanan grid induced by a pin set: the cross product of the distinct
/// x and y coordinates.
///
/// # Examples
///
/// ```
/// use dgr_grid::Point;
/// use dgr_rsmt::hanan::HananGrid;
///
/// let h = HananGrid::new(&[Point::new(0, 0), Point::new(2, 3)]);
/// assert_eq!(h.num_points(), 4);
/// assert!(h.index_of(Point::new(0, 3)).is_some());
/// assert!(h.index_of(Point::new(1, 1)).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HananGrid {
    xs: Vec<i32>,
    ys: Vec<i32>,
}

impl HananGrid {
    /// Builds the Hanan grid of `pins`.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty.
    pub fn new(pins: &[Point]) -> Self {
        assert!(!pins.is_empty(), "hanan grid of zero pins");
        let mut xs: Vec<i32> = pins.iter().map(|p| p.x).collect();
        let mut ys: Vec<i32> = pins.iter().map(|p| p.y).collect();
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        HananGrid { xs, ys }
    }

    /// The distinct x coordinates (grid columns), ascending.
    pub fn xs(&self) -> &[i32] {
        &self.xs
    }

    /// The distinct y coordinates (grid rows), ascending.
    pub fn ys(&self) -> &[i32] {
        &self.ys
    }

    /// Total number of Hanan points.
    pub fn num_points(&self) -> usize {
        self.xs.len() * self.ys.len()
    }

    /// The Hanan point with dense index `i` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_points()`.
    pub fn point(&self, i: usize) -> Point {
        let cols = self.xs.len();
        Point::new(self.xs[i % cols], self.ys[i / cols])
    }

    /// Dense index of a point, if it lies on the Hanan grid.
    pub fn index_of(&self, p: Point) -> Option<usize> {
        let col = self.xs.binary_search(&p.x).ok()?;
        let row = self.ys.binary_search(&p.y).ok()?;
        Some(row * self.xs.len() + col)
    }

    /// Iterates over all Hanan points, row-major.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.num_points()).map(move |i| self.point(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_of_one_pin_is_one_point() {
        let h = HananGrid::new(&[Point::new(7, 9)]);
        assert_eq!(h.num_points(), 1);
        assert_eq!(h.point(0), Point::new(7, 9));
    }

    #[test]
    fn duplicate_coordinates_collapse() {
        let h = HananGrid::new(&[
            Point::new(0, 0),
            Point::new(0, 5),
            Point::new(3, 0),
            Point::new(3, 5),
        ]);
        assert_eq!((h.xs(), h.ys()), (&[0, 3][..], &[0, 5][..]));
        assert_eq!(h.num_points(), 4);
    }

    #[test]
    fn index_roundtrip() {
        let h = HananGrid::new(&[Point::new(1, 2), Point::new(4, 8), Point::new(6, 3)]);
        for i in 0..h.num_points() {
            assert_eq!(h.index_of(h.point(i)), Some(i));
        }
    }

    #[test]
    fn every_pin_is_on_its_hanan_grid() {
        let pins = [Point::new(1, 2), Point::new(4, 8), Point::new(6, 3)];
        let h = HananGrid::new(&pins);
        for p in pins {
            assert!(h.index_of(p).is_some());
        }
    }

    #[test]
    fn off_grid_point_has_no_index() {
        let h = HananGrid::new(&[Point::new(0, 0), Point::new(2, 2)]);
        assert_eq!(h.index_of(Point::new(1, 0)), None);
    }
}
