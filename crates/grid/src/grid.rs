//! The g-cell grid graph and its dense edge indexing.

use crate::geom::{Point, Rect};
use crate::ids::{EdgeId, GcellId};
use crate::GridError;

/// Orientation of a g-cell edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeDir {
    /// Connects `(x, y)` to `(x + 1, y)`.
    Horizontal,
    /// Connects `(x, y)` to `(x, y + 1)`.
    Vertical,
}

/// A `width × height` grid of g-cells with dense cell and edge ids.
///
/// Horizontal edges are numbered first: the edge from `(x, y)` to
/// `(x+1, y)` has id `y * (width-1) + x`. Vertical edges follow with ids
/// offset by `num_h_edges()`: the edge from `(x, y)` to `(x, y+1)` has id
/// `num_h_edges() + y * width + x`.
///
/// # Examples
///
/// ```
/// use dgr_grid::{GcellGrid, Point};
///
/// let grid = GcellGrid::new(4, 3)?;
/// assert_eq!(grid.num_cells(), 12);
/// assert_eq!(grid.num_h_edges(), 9);
/// assert_eq!(grid.num_v_edges(), 8);
///
/// let e = grid.v_edge(2, 1)?;
/// assert_eq!(e.index(), grid.num_h_edges() + 1 * 4 + 2);
/// assert_eq!(grid.edge_endpoints(e).0, Point::new(2, 1));
/// # Ok::<(), dgr_grid::GridError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcellGrid {
    width: u32,
    height: u32,
}

/// Largest supported grid side length.
///
/// Keeps `num_edges()` comfortably inside `u32` edge ids.
pub const MAX_SIDE: u32 = 30_000;

impl GcellGrid {
    /// Creates a grid with the given dimensions in g-cells.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::BadDimensions`] if either side is zero or larger
    /// than [`MAX_SIDE`].
    pub fn new(width: u32, height: u32) -> Result<Self, GridError> {
        if width == 0 || height == 0 || width > MAX_SIDE || height > MAX_SIDE {
            return Err(GridError::BadDimensions { width, height });
        }
        Ok(GcellGrid { width, height })
    }

    /// Grid width in g-cells.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in g-cells.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of g-cells.
    pub fn num_cells(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Number of horizontal edges.
    pub fn num_h_edges(&self) -> usize {
        (self.width as usize - 1) * self.height as usize
    }

    /// Number of vertical edges.
    pub fn num_v_edges(&self) -> usize {
        self.width as usize * (self.height as usize - 1)
    }

    /// Total number of g-cell edges.
    pub fn num_edges(&self) -> usize {
        self.num_h_edges() + self.num_v_edges()
    }

    /// The rectangle covering the whole grid.
    pub fn bounds(&self) -> Rect {
        Rect::new(
            Point::new(0, 0),
            Point::new(self.width as i32 - 1, self.height as i32 - 1),
        )
    }

    /// Whether `p` is a valid g-cell position.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= 0 && p.y >= 0 && (p.x as u32) < self.width && (p.y as u32) < self.height
    }

    /// Dense id of the g-cell at `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::CellOutOfBounds`] if `p` is outside the grid.
    pub fn cell_id(&self, p: Point) -> Result<GcellId, GridError> {
        if !self.contains(p) {
            return Err(GridError::CellOutOfBounds { x: p.x, y: p.y });
        }
        Ok(GcellId::new(p.y as u32 * self.width + p.x as u32))
    }

    /// The position of a g-cell id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this grid.
    pub fn cell_point(&self, id: GcellId) -> Point {
        assert!(id.index() < self.num_cells(), "cell id out of range");
        Point::new((id.0 % self.width) as i32, (id.0 / self.width) as i32)
    }

    /// Id of the horizontal edge from `(x, y)` to `(x+1, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EdgeOutOfBounds`] if no such edge exists.
    pub fn h_edge(&self, x: i32, y: i32) -> Result<EdgeId, GridError> {
        if x < 0 || y < 0 || (x as u32) >= self.width - 1 || (y as u32) >= self.height {
            return Err(GridError::EdgeOutOfBounds {
                x,
                y,
                dir: EdgeDir::Horizontal,
            });
        }
        Ok(EdgeId::new(y as u32 * (self.width - 1) + x as u32))
    }

    /// Id of the vertical edge from `(x, y)` to `(x, y+1)`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EdgeOutOfBounds`] if no such edge exists.
    pub fn v_edge(&self, x: i32, y: i32) -> Result<EdgeId, GridError> {
        if x < 0 || y < 0 || (x as u32) >= self.width || (y as u32) >= self.height - 1 {
            return Err(GridError::EdgeOutOfBounds {
                x,
                y,
                dir: EdgeDir::Vertical,
            });
        }
        Ok(EdgeId::new(
            self.num_h_edges() as u32 + y as u32 * self.width + x as u32,
        ))
    }

    /// The two endpoint g-cells of an edge, in `(lower, upper)` order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for this grid.
    pub fn edge_endpoints(&self, e: EdgeId) -> (Point, Point) {
        let idx = e.index();
        if idx < self.num_h_edges() {
            let w1 = (self.width - 1) as usize;
            let y = (idx / w1) as i32;
            let x = (idx % w1) as i32;
            (Point::new(x, y), Point::new(x + 1, y))
        } else {
            assert!(idx < self.num_edges(), "edge id out of range");
            let idx = idx - self.num_h_edges();
            let w = self.width as usize;
            let y = (idx / w) as i32;
            let x = (idx % w) as i32;
            (Point::new(x, y), Point::new(x, y + 1))
        }
    }

    /// The edge between two **adjacent** g-cells.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::NotAligned`] if the points are not neighbours,
    /// or an out-of-bounds error if either point is outside the grid.
    pub fn edge_between(&self, a: Point, b: Point) -> Result<EdgeId, GridError> {
        if a.manhattan_distance(b) != 1 {
            return Err(GridError::NotAligned { a, b });
        }
        let (lo, hi) = if (a.x, a.y) <= (b.x, b.y) {
            (a, b)
        } else {
            (b, a)
        };
        if hi.x == lo.x + 1 {
            self.h_edge(lo.x, lo.y)
        } else {
            self.v_edge(lo.x, lo.y)
        }
    }

    /// The edges along the straight segment from `a` to `b` (inclusive),
    /// lowest coordinate first, without allocating: by the id layout above
    /// they are an arithmetic progression of ids (stride 1 along a row,
    /// `width` along a column).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::NotAligned`] if `a` and `b` do not share a row
    /// or column, or an out-of-bounds error if the segment leaves the grid.
    pub fn segment_edges(
        &self,
        a: Point,
        b: Point,
    ) -> Result<impl Iterator<Item = EdgeId> + Clone, GridError> {
        let (first, len, stride) = if a == b {
            (0, 0, 1)
        } else if a.y == b.y {
            let (x0, x1) = (a.x.min(b.x), a.x.max(b.x));
            self.h_edge(x1 - 1, a.y)?;
            (self.h_edge(x0, a.y)?.0, (x1 - x0) as u32, 1)
        } else if a.x == b.x {
            let (y0, y1) = (a.y.min(b.y), a.y.max(b.y));
            self.v_edge(a.x, y1 - 1)?;
            (self.v_edge(a.x, y0)?.0, (y1 - y0) as u32, self.width)
        } else {
            return Err(GridError::NotAligned { a, b });
        };
        Ok((0..len).map(move |i| EdgeId::new(first + i * stride)))
    }

    /// The edges under a corner polyline, segment by segment in order.
    ///
    /// # Errors
    ///
    /// See [`Self::segment_edges`]; every segment is checked before the
    /// first edge is yielded.
    pub fn polyline_edges<'a>(
        &'a self,
        corners: &'a [Point],
    ) -> Result<impl Iterator<Item = EdgeId> + 'a, GridError> {
        for w in corners.windows(2) {
            self.segment_edges(w[0], w[1]).map(drop)?;
        }
        Ok(corners.windows(2).flat_map(|w| {
            self.segment_edges(w[0], w[1])
                .expect("every segment was checked above")
        }))
    }

    /// Appends the edges of the straight segment `a`..`b` to `out`.
    ///
    /// Same contract as [`Self::segment_edges`] but reuses the caller's
    /// buffer — the hot path when flattening thousands of path candidates.
    ///
    /// # Errors
    ///
    /// See [`Self::segment_edges`].
    pub fn push_segment_edges(
        &self,
        a: Point,
        b: Point,
        out: &mut Vec<EdgeId>,
    ) -> Result<(), GridError> {
        out.extend(self.segment_edges(a, b)?);
        Ok(())
    }

    /// Up to four neighbouring g-cells of `p`, clipped to the grid.
    pub fn neighbors(&self, p: Point) -> impl Iterator<Item = Point> + '_ {
        const OFFSETS: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
        OFFSETS
            .iter()
            .map(move |&(dx, dy)| Point::new(p.x + dx, p.y + dy))
            .filter(move |&q| self.contains(q))
    }

    /// Up to four edges incident to the g-cell at `p`.
    pub fn incident_edges(&self, p: Point) -> impl Iterator<Item = EdgeId> + '_ {
        self.neighbors(p)
            .map(move |q| self.edge_between(p, q).expect("neighbor is adjacent"))
    }

    /// Iterates over every edge id.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges() as u32).map(EdgeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(GcellGrid::new(0, 5).is_err());
        assert!(GcellGrid::new(5, 0).is_err());
        assert!(GcellGrid::new(MAX_SIDE + 1, 2).is_err());
    }

    #[test]
    fn edge_counts() {
        let g = GcellGrid::new(4, 3).unwrap();
        assert_eq!(g.num_h_edges(), 3 * 3);
        assert_eq!(g.num_v_edges(), 4 * 2);
        assert_eq!(g.num_edges(), 17);
    }

    #[test]
    fn cell_id_roundtrip() {
        let g = GcellGrid::new(7, 5).unwrap();
        for y in 0..5 {
            for x in 0..7 {
                let p = Point::new(x, y);
                let id = g.cell_id(p).unwrap();
                assert_eq!(g.cell_point(id), p);
            }
        }
    }

    #[test]
    fn edge_id_roundtrip_via_endpoints() {
        let g = GcellGrid::new(6, 4).unwrap();
        for e in g.edge_ids() {
            let (a, b) = g.edge_endpoints(e);
            assert_eq!(g.edge_between(a, b).unwrap(), e);
            assert_eq!(a.manhattan_distance(b), 1);
        }
    }

    #[test]
    fn h_and_v_edges_do_not_collide() {
        let g = GcellGrid::new(5, 5).unwrap();
        let g = &g;
        let h: std::collections::HashSet<_> = (0..4)
            .flat_map(|x| (0..5).map(move |y| g.h_edge(x, y).unwrap()))
            .collect();
        let v: std::collections::HashSet<_> = (0..5)
            .flat_map(|x| (0..4).map(move |y| g.v_edge(x, y).unwrap()))
            .collect();
        assert_eq!(h.len(), 20);
        assert_eq!(v.len(), 20);
        assert!(h.is_disjoint(&v));
    }

    #[test]
    fn out_of_bounds_edges_error() {
        let g = GcellGrid::new(3, 3).unwrap();
        assert!(g.h_edge(2, 0).is_err()); // only x=0,1 valid for width 3
        assert!(g.v_edge(0, 2).is_err());
        assert!(g.h_edge(-1, 0).is_err());
    }

    #[test]
    fn segment_edges_horizontal() {
        let g = GcellGrid::new(8, 2).unwrap();
        let edges: Vec<EdgeId> = g
            .segment_edges(Point::new(5, 1), Point::new(2, 1))
            .unwrap()
            .collect();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(e.index() < g.num_h_edges(), "{e:?} is horizontal");
        }
    }

    #[test]
    fn segment_edges_vertical_and_degenerate() {
        let g = GcellGrid::new(3, 8).unwrap();
        let edges = g.segment_edges(Point::new(1, 2), Point::new(1, 6));
        assert_eq!(edges.unwrap().count(), 4);
        let empty = g.segment_edges(Point::new(1, 2), Point::new(1, 2));
        assert_eq!(empty.unwrap().count(), 0);
    }

    #[test]
    fn segment_rejects_diagonal() {
        let g = GcellGrid::new(4, 4).unwrap();
        assert!(matches!(
            g.segment_edges(Point::new(0, 0), Point::new(2, 2))
                .map(drop),
            Err(GridError::NotAligned { .. })
        ));
    }

    #[test]
    fn neighbors_clipped_at_corner() {
        let g = GcellGrid::new(4, 4).unwrap();
        let n: Vec<_> = g.neighbors(Point::new(0, 0)).collect();
        assert_eq!(n.len(), 2);
        let n: Vec<_> = g.neighbors(Point::new(2, 2)).collect();
        assert_eq!(n.len(), 4);
    }

    #[test]
    fn incident_edges_match_neighbors() {
        let g = GcellGrid::new(4, 4).unwrap();
        assert_eq!(g.incident_edges(Point::new(0, 0)).count(), 2);
        assert_eq!(g.incident_edges(Point::new(1, 2)).count(), 4);
    }

    #[test]
    fn single_row_grid_has_no_vertical_edges() {
        let g = GcellGrid::new(10, 1).unwrap();
        assert_eq!(g.num_v_edges(), 0);
        assert_eq!(g.num_edges(), 9);
    }
}
