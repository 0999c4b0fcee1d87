//! Construction of a [`DagForest`] from per-net tree candidate pools.

use std::collections::HashMap;

use dgr_autodiff::parallel::{par_halves, NET_PAR_MIN};
use dgr_autodiff::Geometry;
use dgr_grid::GcellGrid;
use dgr_rsmt::RoutingTree;

use crate::forest::{building, DagForest};
use crate::paths::{enumerate_patterns, for_each_pattern, turning_points, PatternPath};
use crate::DagError;

/// Pattern families enumerated per 2-pin sub-net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternConfig {
    /// When `Some(s)`, Z-shape candidates are generated with a middle-leg
    /// stride of `s` g-cells in addition to the L-shapes.
    pub z_stride: Option<u32>,
    /// When `Some(d)`, C-shape candidates escape the sub-net's bounding
    /// box by `d` g-cells on each applicable side (2-turn non-monotone
    /// detours) — the paper's third pattern family.
    pub c_detour: Option<u32>,
}

impl Default for PatternConfig {
    /// L-shapes only — the configuration used in all paper experiments.
    fn default() -> Self {
        PatternConfig {
            z_stride: None,
            c_detour: None,
        }
    }
}

impl PatternConfig {
    /// L-shapes only (the paper's default).
    pub fn l_only() -> Self {
        PatternConfig::default()
    }

    /// L-shapes plus Z-shapes at the given stride.
    pub fn with_z(stride: u32) -> Self {
        PatternConfig {
            z_stride: Some(stride),
            c_detour: None,
        }
    }

    /// L-, Z- and C-shapes: the widest static pattern space.
    pub fn with_z_and_c(stride: u32, detour: u32) -> Self {
        PatternConfig {
            z_stride: Some(stride),
            c_detour: Some(detour),
        }
    }
}

/// Builds the DAG forest from each net's routing-tree candidates.
///
/// `candidates[n]` is the tree pool of net `n` (from
/// [`dgr_rsmt::tree_candidates`]). Trees whose nodes leave the grid are
/// rejected.
///
/// Nets whose trees have no sub-nets (single-pin / local nets) still get a
/// tree entry so Eq. (8) stays well-formed; they simply own no sub-nets.
///
/// # Errors
///
/// * [`DagError::EmptyNet`] if a net has no tree candidates,
/// * [`DagError::PathOutOfGrid`] if a path candidate leaves `grid`.
///
/// # Examples
///
/// ```
/// use dgr_grid::{GcellGrid, Point};
/// use dgr_rsmt::{tree_candidates, CandidateConfig};
/// use dgr_dag::{build_forest, PatternConfig};
///
/// let grid = GcellGrid::new(16, 16)?;
/// let pins = vec![Point::new(1, 1), Point::new(9, 4), Point::new(4, 12)];
/// let pool = tree_candidates(&pins, &CandidateConfig::default())?;
/// let forest = build_forest(&grid, &[pool], PatternConfig::l_only())?;
/// assert_eq!(forest.num_nets(), 1);
/// assert!(forest.num_paths() >= forest.num_subnets());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_forest(
    grid: &GcellGrid,
    candidates: &[Vec<RoutingTree>],
    patterns: PatternConfig,
) -> Result<DagForest, DagError> {
    build_forest_with_extras(grid, candidates, patterns, &HashMap::new())
}

/// Extra path candidates for specific sub-nets, keyed by `(net, sub-net
/// within the net)`: the `k`-th sub-net of a net counts the sub-nets of
/// all its trees, in order. A net's pool alone resolves the key, so each
/// half of a [`build_forest_from`] finds its extras without the other
/// half's pools.
pub type SubnetExtras = HashMap<(usize, usize), Vec<PatternPath>>;

/// [`build_forest`] plus *extra* path candidates for specific sub-nets —
/// the paper's "adaptive expansion of the forest" future-work hook: after
/// a first routing round, congested sub-nets receive additional (e.g.
/// maze-derived) candidates keyed by their construction-order subnet
/// index.
///
/// An extra may run either way between the sub-net's endpoints; one given
/// sink to source is stored reversed, so that every path walks from the
/// sub-net's first endpoint to its second. Extras that duplicate an
/// already-enumerated pattern, or whose endpoints do not match the
/// sub-net, are skipped silently.
///
/// The pools are all at hand, so an empty one is reported before any other
/// error; then the build is [`build_forest_from`] over them.
///
/// # Errors
///
/// Same contract as [`build_forest`].
pub fn build_forest_with_extras(
    grid: &GcellGrid,
    candidates: &[Vec<RoutingTree>],
    patterns: PatternConfig,
    extras: &HashMap<usize, Vec<PatternPath>>,
) -> Result<DagForest, DagError> {
    if let Some(net) = candidates.iter().position(Vec::is_empty) {
        return Err(DagError::EmptyNet { net });
    }
    let extras = keyed_by_net(candidates, extras);
    build_forest_from(
        grid,
        candidates.len(),
        |n| Ok(&candidates[n]),
        patterns,
        &extras,
    )
}

/// `extras` re-keyed from a sub-net's global construction-order index to
/// `(net, sub-net within the net)`. A key past the last sub-net names
/// none, and goes.
fn keyed_by_net(
    candidates: &[Vec<RoutingTree>],
    extras: &HashMap<usize, Vec<PatternPath>>,
) -> SubnetExtras {
    if extras.is_empty() {
        return SubnetExtras::new();
    }
    // the first sub-net of each net: a tree's sub-nets are exactly its edges
    let mut firsts = Vec::with_capacity(candidates.len());
    let mut subnets = 0;
    for pool in candidates {
        firsts.push(subnets);
        subnets += pool.iter().map(|t| t.edges().len()).sum::<usize>();
    }
    extras
        .iter()
        .filter(|(&s, _)| s < subnets)
        .map(|(&s, paths)| {
            // a net of no sub-nets shares its first with the next net
            let net = firsts.partition_point(|&first| first <= s) - 1;
            ((net, s - firsts[net]), paths.clone())
        })
        .collect()
}

/// Builds the DAG forest of `nets` nets, taking net `n`'s tree pool from
/// `pool_of(n)`: the one builder of every forest. Each half of the nets
/// asks for its pools in net order and drops each pool once its trees are
/// pushed, so a build holds at most one pool per half, never every net's.
///
/// Each range of nets is pushed straight into a forest of its own, in that
/// forest's numbering; the upper half's is appended to the lower half's.
/// The cut depends on the net count alone and the first error in net order
/// surfaces, so the result is the one-range build's at any thread count.
/// Each range's forest gives its columns' doubling slack back before the
/// halves are joined, and the join grows each column by exactly what it
/// takes in: every column ends sized to its length.
///
/// # Errors
///
/// The first error in net order: the source's own, or, converted,
/// [`DagError::EmptyNet`] for an empty pool and
/// [`DagError::PathOutOfGrid`] for a path candidate that leaves `grid`.
pub fn build_forest_from<P, E>(
    grid: &GcellGrid,
    nets: usize,
    pool_of: impl Fn(usize) -> Result<P, E> + Sync,
    patterns: PatternConfig,
    extras: &SubnetExtras,
) -> Result<DagForest, E>
where
    P: AsRef<[RoutingTree]>,
    E: From<DagError> + Send,
{
    let (lower, upper) = par_halves(nets, NET_PAR_MIN, |range| {
        let mut forest = DagForest::empty(grid);
        for n in range {
            let pool = pool_of(n)?;
            push_net(&mut forest, grid, n, pool.as_ref(), patterns, extras)?;
        }
        forest.shrink_to_fit();
        Ok::<_, E>(forest)
    });
    let mut forest = lower?;
    if let Some(upper) = upper {
        forest.append(upper?);
    }
    debug_assert!(forest.validate().is_ok());
    Ok(forest)
}

/// Pushes the trees, sub-nets and path candidates of net `net`'s `pool`
/// onto the end of `forest`'s arenas.
fn push_net(
    forest: &mut DagForest,
    grid: &GcellGrid,
    net: usize,
    pool: &[RoutingTree],
    patterns: PatternConfig,
    extras: &SubnetExtras,
) -> Result<(), DagError> {
    if pool.is_empty() {
        return Err(DagError::EmptyNet { net });
    }
    let bounds = Some(grid.bounds());
    let (z, c) = (patterns.z_stride, patterns.c_detour);
    let mut subnet = 0;
    let columns = building(&mut forest.geometry);
    for tree in pool {
        let t = forest.tree_subnet_offsets.len() as u32 - 1;
        for (a, b) in tree.subnets() {
            columns.subnet_tree.push(t);
            forest.subnet_endpoints.push((a, b));
            match extras.get(&(net, subnet)) {
                None => for_each_pattern(a, b, z, c, bounds, |corners| {
                    push_path(columns, grid, corners)
                })?,
                Some(more) => {
                    let mut paths = enumerate_patterns(a, b, z, c, bounds);
                    for extra in more.iter().filter_map(|extra| oriented(extra, a, b)) {
                        if !paths.contains(&extra) {
                            paths.push(extra);
                        }
                    }
                    for path in &paths {
                        push_path(columns, grid, &path.corners)?;
                    }
                }
            }
            columns.subnet_path_offsets.push(columns.num_paths() as u32);
            subnet += 1;
        }
        forest
            .tree_subnet_offsets
            .push(columns.subnet_tree.len() as u32);
    }
    let trees = forest.tree_subnet_offsets.len() - 1;
    columns.net_tree_offsets.push(trees as u32);
    Ok(())
}

/// `extra` as a path from `a` to `b`: itself, reversed if it runs from
/// `b` to `a`, `None` if it joins other cells.
fn oriented(extra: &PatternPath, a: dgr_grid::Point, b: dgr_grid::Point) -> Option<PatternPath> {
    match (extra.source(), extra.sink()) {
        ends if ends == (a, b) => Some(extra.clone()),
        ends if ends == (b, a) => Some(PatternPath::new(
            extra.corners.iter().rev().copied().collect(),
        )),
        _ => None,
    }
}

/// Pushes one path candidate: its wirelength and the runs (in slot form)
/// and turn cells under `corners` — their count is its `TP`.
fn push_path(
    columns: &mut Geometry,
    grid: &GcellGrid,
    corners: &[dgr_grid::Point],
) -> Result<(), DagError> {
    let cells = grid.num_cells() as u32;
    let mut wl = 0u32;
    for w in corners.windows(2) {
        grid.segment_edges(w[0], w[1]).map(drop)?;
        if w[0] == w[1] {
            continue;
        }
        wl += w[0].manhattan_distance(w[1]);
        // the segment is on the grid, so its end cells are; a run down a
        // column takes the slots a cell count above them
        let (a, b) = (grid.cell_id(w[0])?.0, grid.cell_id(w[1])?.0);
        let base = if w[0].x == w[1].x { cells } else { 0 };
        columns.path_runs.push((a.min(b) + base, a.max(b) + base));
    }
    columns.path_wl.push(wl as f32);
    for v in turning_points(corners) {
        columns.path_via_cells.push(grid.cell_id(v)?.0);
    }
    columns
        .path_run_offsets
        .push(columns.path_runs.len() as u32);
    columns
        .path_via_offsets
        .push(columns.path_via_cells.len() as u32);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::Point;
    use dgr_rsmt::{tree_candidates, CandidateConfig};

    fn grid() -> GcellGrid {
        GcellGrid::new(20, 20).unwrap()
    }

    fn pool(pins: &[Point]) -> Vec<RoutingTree> {
        tree_candidates(pins, &CandidateConfig::default()).unwrap()
    }

    #[test]
    fn two_pin_diagonal_net_has_two_l_paths() {
        let g = grid();
        let f = build_forest(
            &g,
            &[pool(&[Point::new(2, 2), Point::new(7, 9)])],
            PatternConfig::l_only(),
        )
        .unwrap();
        f.validate().unwrap();
        assert_eq!(f.num_nets(), 1);
        assert_eq!(f.num_trees(), 1);
        assert_eq!(f.num_subnets(), 1);
        assert_eq!(f.num_paths(), 2);
        for i in 0..2 {
            assert_eq!(f.path_wirelength(i), 12.0);
            assert_eq!(f.path_turn_count(i), 1.0);
            assert_eq!(f.path_edges(i).count(), 12);
            assert_eq!(f.path_vias(i).len(), 1);
        }
        // the two L-shapes turn at different corners
        assert_ne!(f.path_vias(0), f.path_vias(1));
    }

    #[test]
    fn aligned_net_has_single_straight_path() {
        let g = grid();
        let f = build_forest(
            &g,
            &[pool(&[Point::new(2, 5), Point::new(11, 5)])],
            PatternConfig::l_only(),
        )
        .unwrap();
        assert_eq!(f.num_paths(), 1);
        assert_eq!(f.path_turn_count(0), 0.0);
        assert!(f.path_vias(0).is_empty());
    }

    #[test]
    fn multi_net_offsets_are_consistent() {
        let g = grid();
        let nets = vec![
            pool(&[Point::new(0, 0), Point::new(5, 5)]),
            pool(&[Point::new(3, 3), Point::new(9, 1), Point::new(6, 8)]),
            pool(&[Point::new(10, 10), Point::new(10, 15)]),
        ];
        let f = build_forest(&g, &nets, PatternConfig::l_only()).unwrap();
        f.validate().unwrap();
        assert_eq!(f.num_nets(), 3);
        // the owner lookups find the group each path is in
        for s in 0..f.num_subnets() {
            for i in f.paths_of_subnet(s) {
                assert_eq!(f.subnet_of_path(i), s);
                assert_eq!(f.tree_of_path(i), f.tree_of_subnet(s));
            }
        }
    }

    #[test]
    fn z_patterns_add_candidates() {
        let g = grid();
        let nets = vec![pool(&[Point::new(0, 0), Point::new(6, 6)])];
        let l = build_forest(&g, &nets, PatternConfig::l_only()).unwrap();
        let z = build_forest(&g, &nets, PatternConfig::with_z(2)).unwrap();
        assert!(z.num_paths() > l.num_paths());
        z.validate().unwrap();
    }

    #[test]
    fn single_pin_net_is_representable() {
        let g = grid();
        let nets = vec![pool(&[Point::new(4, 4)])];
        let f = build_forest(&g, &nets, PatternConfig::l_only()).unwrap();
        f.validate().unwrap();
        assert_eq!(f.num_trees(), 1);
        assert_eq!(f.num_subnets(), 0);
        assert_eq!(f.num_paths(), 0);
    }

    #[test]
    fn empty_candidate_pool_errors() {
        let g = grid();
        assert!(matches!(
            build_forest(&g, &[Vec::new()], PatternConfig::l_only()),
            Err(DagError::EmptyNet { net: 0 })
        ));
    }

    #[test]
    fn off_grid_tree_errors() {
        let g = GcellGrid::new(4, 4).unwrap();
        let nets = vec![pool(&[Point::new(0, 0), Point::new(10, 10)])];
        assert!(matches!(
            build_forest(&g, &nets, PatternConfig::l_only()),
            Err(DagError::PathOutOfGrid(_))
        ));
    }

    #[test]
    fn multiple_tree_candidates_multiply_subnets() {
        let g = grid();
        let pins = [
            Point::new(1, 1),
            Point::new(12, 2),
            Point::new(6, 14),
            Point::new(3, 9),
            Point::new(15, 8),
        ];
        let pool = tree_candidates(&pins, &CandidateConfig::default()).unwrap();
        assert!(pool.len() > 1, "expected several candidates");
        let f = build_forest(&g, std::slice::from_ref(&pool), PatternConfig::l_only()).unwrap();
        assert_eq!(f.num_trees(), pool.len());
        let total: usize = (0..f.num_trees()).map(|t| f.subnets_of_tree(t).len()).sum();
        assert_eq!(total, f.num_subnets());
    }

    #[test]
    fn extras_extend_the_right_subnet() {
        let g = grid();
        let nets = vec![pool(&[Point::new(0, 0), Point::new(5, 5)])];
        // a 2-turn detour for subnet 0, plus garbage for a non-existent
        // subnet and an endpoint-mismatched extra that must be dropped
        let detour = crate::paths::PatternPath::new(vec![
            Point::new(0, 0),
            Point::new(0, 7),
            Point::new(5, 7),
            Point::new(5, 5),
        ]);
        let mismatched = crate::paths::PatternPath::new(vec![Point::new(1, 1), Point::new(5, 1)]);
        let mut extras = std::collections::HashMap::new();
        extras.insert(0usize, vec![detour.clone(), mismatched]);
        extras.insert(99usize, vec![detour.clone()]);
        let base = build_forest(&g, &nets, PatternConfig::l_only()).unwrap();
        let grown = build_forest_with_extras(&g, &nets, PatternConfig::l_only(), &extras).unwrap();
        grown.validate().unwrap();
        assert_eq!(grown.num_paths(), base.num_paths() + 1);
        // the original candidates keep their order; the extra is appended
        for i in 0..base.num_paths() {
            assert!(grown.path_edges(i).eq(base.path_edges(i)));
        }
        let extra_idx = grown.num_paths() - 1;
        assert_eq!(grown.path_wirelength(extra_idx), 14.0); // detour length
        assert_eq!(grown.path_turn_count(extra_idx), 2.0);
    }

    /// The corners of path `i` as extraction realizes them: the sub-net's
    /// first endpoint, the turn cells, the second.
    fn realized(g: &GcellGrid, f: &DagForest, i: usize) -> Vec<Point> {
        let (a, b) = f.subnet_endpoints(f.subnet_of_path(i));
        let turns = f
            .path_vias(i)
            .iter()
            .map(|&v| g.cell_point(dgr_grid::GcellId(v)));
        let mut corners: Vec<Point> = std::iter::once(a).chain(turns).collect();
        if b != a {
            corners.push(b);
        }
        corners
    }

    #[test]
    fn path_edges_are_the_edges_of_the_corners_in_order() {
        let g = grid();
        let nets = vec![
            pool(&[Point::new(2, 3), Point::new(9, 8), Point::new(5, 14)]),
            pool(&[Point::new(4, 4), Point::new(4, 4)]),
            pool(&[Point::new(1, 6), Point::new(12, 6)]),
            pool(&[Point::new(15, 17), Point::new(6, 2)]),
        ];
        // an extra that doubles back over its own first leg: the edges
        // (3,3)–(5,3) are walked twice and must be listed twice
        let doubling = crate::paths::PatternPath::new(vec![
            Point::new(2, 3),
            Point::new(5, 3),
            Point::new(3, 3),
            Point::new(3, 8),
            Point::new(9, 8),
        ]);
        let mut extras = std::collections::HashMap::new();
        for s in 0..4 {
            extras.insert(s, vec![doubling.clone()]);
        }
        let patterns = PatternConfig::with_z_and_c(2, 1);
        let f = build_forest_with_extras(&g, &nets, patterns, &extras).unwrap();
        f.validate().unwrap();
        let mut doubled = 0;
        for s in 0..f.num_subnets() {
            // the candidates in the order the builder pushes them
            let (a, b) = f.subnet_endpoints(s);
            let (z, c) = (patterns.z_stride, patterns.c_detour);
            let mut built = enumerate_patterns(a, b, z, c, Some(g.bounds()));
            for extra in extras.get(&s).into_iter().flatten() {
                let extra = oriented(extra, a, b);
                if extra.as_ref().is_some_and(|e| !built.contains(e)) {
                    built.extend(extra);
                }
            }
            assert_eq!(built.len(), f.paths_of_subnet(s).len(), "sub-net {s}");
            for (i, path) in f.paths_of_subnet(s).zip(&built) {
                let edges: Vec<u32> = f.path_edges(i).collect();
                let want = g.polyline_edges(&path.corners).unwrap().map(|e| e.0);
                assert!(edges.iter().copied().eq(want), "path {i}");
                let mut sorted = edges.clone();
                sorted.sort_unstable();
                doubled += usize::from(sorted.windows(2).any(|w| w[0] == w[1]));
                // a pattern's turn cells merge nothing: they give the
                // same edges back
                if doubling != *path {
                    let corners = realized(&g, &f, i);
                    assert!(g.polyline_edges(&corners).unwrap().map(|e| e.0).eq(edges));
                }
            }
        }
        assert!(doubled > 0, "the doubling extra was not admitted");
    }

    #[test]
    fn an_extra_given_sink_to_source_walks_source_to_sink() {
        let g = grid();
        let nets = vec![pool(&[Point::new(2, 3), Point::new(9, 8)])];
        let base = build_forest(&g, &nets, PatternConfig::l_only()).unwrap();
        let (a, b) = base.subnet_endpoints(0);
        // two turns, given from `b`
        let detour = vec![b, Point::new(b.x, 19), Point::new(a.x, 19), a];
        let mut extras = std::collections::HashMap::new();
        extras.insert(0usize, vec![PatternPath::new(detour)]);
        let f = build_forest_with_extras(&g, &nets, PatternConfig::l_only(), &extras).unwrap();
        assert_eq!(f.num_paths(), base.num_paths() + 1);
        assert_eq!(f.path_turn_count(f.num_paths() - 1), 2.0);
        for i in 0..f.num_paths() {
            let corners = realized(&g, &f, i);
            let edges = g.polyline_edges(&corners).expect("a rectilinear polyline");
            assert!(edges.map(|e| e.0).eq(f.path_edges(i)), "path {i}");
        }
    }

    /// An extra that gives its corner twice differs from the enumerated
    /// L in its corners only: admitted, it records the L's turn cell and
    /// via count, not a straight path's none.
    #[test]
    fn an_extra_with_a_repeated_corner_records_its_turn() {
        let g = grid();
        let nets = vec![pool(&[Point::new(0, 0), Point::new(3, 4)])];
        let corners = [(0, 0), (3, 0), (3, 0), (3, 4)].map(|(x, y)| Point::new(x, y));
        let mut extras = std::collections::HashMap::new();
        extras.insert(0usize, vec![PatternPath::new(corners.to_vec())]);
        let base = build_forest(&g, &nets, PatternConfig::l_only()).unwrap();
        let f = build_forest_with_extras(&g, &nets, PatternConfig::l_only(), &extras).unwrap();
        f.validate().unwrap();
        let extra = f.num_paths() - 1;
        assert_eq!(extra, base.num_paths());
        assert_eq!(f.path_vias(extra), [g.cell_id(Point::new(3, 0)).unwrap().0]);
        assert_eq!(f.path_turn_count(extra), 1.0);
        assert_eq!(
            realized(&g, &f, extra),
            [Point::new(0, 0), Point::new(3, 0), Point::new(3, 4)]
        );
    }

    #[test]
    fn duplicate_extras_are_dropped() {
        let g = grid();
        let nets = vec![pool(&[Point::new(0, 0), Point::new(5, 5)])];
        // an extra identical to an enumerated L-shape
        let l_shape = crate::paths::PatternPath::new(vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(5, 5),
        ]);
        let mut extras = std::collections::HashMap::new();
        extras.insert(0usize, vec![l_shape]);
        let base = build_forest(&g, &nets, PatternConfig::l_only()).unwrap();
        let grown = build_forest_with_extras(&g, &nets, PatternConfig::l_only(), &extras).unwrap();
        assert_eq!(grown.num_paths(), base.num_paths());
    }

    /// The builder as it was before the forest was pushed range by range
    /// into its arenas: every net a `NetChunk` of nine vectors (and a
    /// `Vec<PatternPath>` per sub-net), spliced in element by element.
    /// Since the forest stores a path once, it keeps no edge column and no
    /// owner column but the sub-nets' trees, and an extra given sink to
    /// source is reversed.
    fn reference_build_forest_with_extras(
        grid: &GcellGrid,
        candidates: &[Vec<RoutingTree>],
        patterns: PatternConfig,
        extras: &std::collections::HashMap<usize, Vec<PatternPath>>,
    ) -> Result<DagForest, DagError> {
        // Stage 1 (serial, cheap): validate pools and prefix-sum each net's
        // subnet count, so stage 2 knows every net's *global* subnet base —
        // `extras` is keyed by global construction-order subnet index.
        let mut subnet_base = Vec::with_capacity(candidates.len());
        let mut next_subnet = 0usize;
        for (n, pool) in candidates.iter().enumerate() {
            if pool.is_empty() {
                return Err(DagError::EmptyNet { net: n });
            }
            subnet_base.push(next_subnet);
            // a tree's subnets are exactly its edges
            next_subnet += pool.iter().map(|t| t.edges().len()).sum::<usize>();
        }

        // Stage 2: enumerate every net's patterns independently. Chunks are
        // self-contained (counts + flat payloads).
        let chunks = (0..candidates.len())
            .map(|n| build_net_chunk(grid, &candidates[n], patterns, extras, subnet_base[n]));

        // Stage 3 (serial): splice the chunks into the global CSR arenas in
        // net order — pure copies plus offset bookkeeping. The first error in
        // net order surfaces, matching the serial builder.
        let mut net_tree_offsets = Vec::with_capacity(candidates.len() + 1);
        net_tree_offsets.push(0u32);
        let mut tree_subnet_offsets = vec![0u32];
        let mut subnet_tree = Vec::new();
        let mut subnet_endpoints = Vec::new();
        let mut subnet_path_offsets = vec![0u32];
        let mut path_wl = Vec::new();
        let mut path_run_offsets = vec![0u32];
        let mut path_runs: Vec<(u32, u32)> = Vec::new();
        let mut path_via_offsets = vec![0u32];
        let mut path_via_cells: Vec<u32> = Vec::new();

        for chunk in chunks {
            let chunk = chunk?;
            let mut subnet_cursor = 0usize;
            let mut path_cursor = 0usize;
            let mut run_cursor = 0usize;
            let mut via_cursor = 0usize;
            for &subnets_in_tree in &chunk.tree_subnet_counts {
                let t = tree_subnet_offsets.len() as u32 - 1;
                for _ in 0..subnets_in_tree {
                    subnet_tree.push(t);
                    subnet_endpoints.push(chunk.subnet_endpoints[subnet_cursor]);
                    for _ in 0..chunk.subnet_path_counts[subnet_cursor] {
                        path_wl.push(chunk.path_wl[path_cursor]);
                        let nr = chunk.path_run_counts[path_cursor] as usize;
                        path_runs.extend_from_slice(&chunk.path_runs[run_cursor..run_cursor + nr]);
                        run_cursor += nr;
                        path_run_offsets.push(path_runs.len() as u32);
                        let nv = chunk.path_via_counts[path_cursor] as usize;
                        path_via_cells
                            .extend_from_slice(&chunk.path_via_cells[via_cursor..via_cursor + nv]);
                        via_cursor += nv;
                        path_via_offsets.push(path_via_cells.len() as u32);
                        path_cursor += 1;
                    }
                    subnet_path_offsets.push(path_wl.len() as u32);
                    subnet_cursor += 1;
                }
                tree_subnet_offsets.push(subnet_tree.len() as u32);
            }
            net_tree_offsets.push(tree_subnet_offsets.len() as u32 - 1);
        }

        let geometry = Geometry {
            net_tree_offsets,
            subnet_tree,
            subnet_path_offsets,
            path_wl,
            path_run_offsets,
            path_runs,
            path_via_offsets,
            path_via_cells,
        };
        let forest = DagForest {
            geometry: std::sync::Arc::new(geometry),
            tree_subnet_offsets,
            subnet_endpoints,
            ..DagForest::empty(grid)
        };
        debug_assert!(forest.validate().is_ok());
        Ok(forest)
    }

    /// One net's share of the forest, built independently of every other net:
    /// per-tree/subnet/path counts plus the flat payloads, spliced into the
    /// global CSR arenas by the serial stitch pass.
    struct NetChunk {
        tree_subnet_counts: Vec<u32>,
        subnet_endpoints: Vec<(dgr_grid::Point, dgr_grid::Point)>,
        subnet_path_counts: Vec<u32>,
        path_wl: Vec<f32>,
        path_run_counts: Vec<u32>,
        path_runs: Vec<(u32, u32)>,
        path_via_counts: Vec<u32>,
        path_via_cells: Vec<u32>,
    }

    fn build_net_chunk(
        grid: &GcellGrid,
        pool: &[RoutingTree],
        patterns: PatternConfig,
        extras: &std::collections::HashMap<usize, Vec<PatternPath>>,
        subnet_base: usize,
    ) -> Result<NetChunk, DagError> {
        let mut chunk = NetChunk {
            tree_subnet_counts: Vec::with_capacity(pool.len()),
            subnet_endpoints: Vec::new(),
            subnet_path_counts: Vec::new(),
            path_wl: Vec::new(),
            path_run_counts: Vec::new(),
            path_runs: Vec::new(),
            path_via_counts: Vec::new(),
            path_via_cells: Vec::new(),
        };
        let mut s = subnet_base;
        for tree in pool {
            chunk.tree_subnet_counts.push(tree.edges().len() as u32);
            for (a, b) in tree.subnets() {
                chunk.subnet_endpoints.push((a, b));
                let mut paths = enumerate_patterns(
                    a,
                    b,
                    patterns.z_stride,
                    patterns.c_detour,
                    Some(grid.bounds()),
                );
                if let Some(more) = extras.get(&s) {
                    for extra in more {
                        let extra = if (extra.source(), extra.sink()) == (b, a) {
                            PatternPath::new(extra.corners.iter().rev().copied().collect())
                        } else {
                            extra.clone()
                        };
                        let endpoints_match = extra.source() == a && extra.sink() == b;
                        if endpoints_match && !paths.contains(&extra) {
                            paths.push(extra);
                        }
                    }
                }
                chunk.subnet_path_counts.push(paths.len() as u32);
                for path in paths {
                    chunk.path_wl.push(path.wirelength() as f32);
                    let runs_before = chunk.path_runs.len();
                    for w in path.corners.windows(2) {
                        grid.segment_edges(w[0], w[1]).map(drop)?;
                        if w[0] == w[1] {
                            continue;
                        }
                        // the segment is on the grid, so its end cells are
                        let (a, b) = (grid.cell_id(w[0])?.0, grid.cell_id(w[1])?.0);
                        let (low, high) = (a.min(b), a.max(b));
                        let cells = grid.num_cells() as u32;
                        // the kernel's slots: a cell count up for a column
                        let base = if w[0].x == w[1].x { cells } else { 0 };
                        chunk.path_runs.push((low + base, high + base));
                    }
                    chunk
                        .path_run_counts
                        .push((chunk.path_runs.len() - runs_before) as u32);
                    let vias_before = chunk.path_via_cells.len();
                    for v in path.turning_points() {
                        let id = grid.cell_id(v)?;
                        chunk.path_via_cells.push(id.0);
                    }
                    chunk
                        .path_via_counts
                        .push((chunk.path_via_cells.len() - vias_before) as u32);
                }
                s += 1;
            }
        }
        Ok(chunk)
    }

    /// `n` random nets of 2–6 pins on the 20×20 grid.
    fn random_pools(n: usize, seed: u64) -> Vec<Vec<RoutingTree>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let pins: Vec<Point> = (0..rng.gen_range(2..=6))
                    .map(|_| Point::new(rng.gen_range(0..20), rng.gen_range(0..20)))
                    .collect();
                pool(&pins)
            })
            .collect()
    }

    /// Extras for every 97th sub-net of `plain` (so both halves of a
    /// fanned-out build get some): a detour that is admitted — given sink
    /// to source on every other one — a copy of an enumerated candidate
    /// and one between the wrong endpoints, which are not.
    fn extras_for(plain: &DagForest) -> std::collections::HashMap<usize, Vec<PatternPath>> {
        let mut extras = std::collections::HashMap::new();
        for s in (0..plain.num_subnets()).step_by(97) {
            let (a, b) = plain.subnet_endpoints(s);
            let mut detour = vec![a, Point::new(a.x, 19), Point::new(b.x, 19), b];
            if s % 2 == 1 {
                detour.reverse();
            }
            let first = enumerate_patterns(a, b, None, None, None).remove(0);
            let elsewhere = PatternPath::new(vec![Point::new(0, 0), Point::new(0, 1)]);
            extras.insert(s, vec![PatternPath::new(detour), first, elsewhere]);
        }
        extras
    }

    /// `extras`, keyed by a sub-net's index in `plain`, keyed instead by
    /// its net and its position among the net's sub-nets.
    fn keyed_by_position(
        plain: &DagForest,
        extras: &std::collections::HashMap<usize, Vec<PatternPath>>,
    ) -> SubnetExtras {
        let mut keyed = SubnetExtras::new();
        for n in 0..plain.num_nets() {
            let trees = plain.trees_of_net(n);
            let first = plain.subnets_of_tree(trees.start).start;
            let last = plain.subnets_of_tree(trees.end - 1).end;
            for s in first..last {
                if let Some(paths) = extras.get(&s) {
                    keyed.insert((n, s - first), paths.clone());
                }
            }
        }
        keyed
    }

    #[test]
    fn forest_equals_the_per_net_chunk_builder_at_any_size_and_thread_count() {
        let g = grid();
        let configs = [
            PatternConfig::l_only(),
            PatternConfig::with_z(2),
            PatternConfig::with_z_and_c(3, 1),
            PatternConfig::with_z(1),
        ];
        // NET_PAR_MIN + 41 and + 1 are odd: the halves are of different
        // sizes
        let sizes = [
            NET_PAR_MIN - 1,
            NET_PAR_MIN,
            NET_PAR_MIN + 41,
            NET_PAR_MIN + 1,
        ];
        for (case, n) in sizes.into_iter().enumerate() {
            let pools = random_pools(n, 0xF0 + case as u64);
            let plain = build_forest(&g, &pools, PatternConfig::l_only()).unwrap();
            let extras = extras_for(&plain);
            let by_net = keyed_by_position(&plain, &extras);
            assert_eq!(by_net.len(), extras.len());
            // the upper half resolves its own extras: it never sees the
            // lower half's pools
            assert!(by_net.keys().any(|&(net, _)| net >= n / 2), "{n} nets");
            let patterns = configs[case];
            let want = reference_build_forest_with_extras(&g, &pools, patterns, &extras).unwrap();
            want.validate().unwrap();
            assert!(want.num_paths() > plain.num_paths());
            for threads in [1, 2, 8] {
                dgr_autodiff::parallel::set_num_threads(threads);
                let pooled = build_forest_with_extras(&g, &pools, patterns, &extras);
                // each net's pool a copy of its own, made when the build
                // asks for it and dropped once its trees are in
                let source = |i: usize| Ok::<_, DagError>(pools[i].clone());
                let streamed = build_forest_from(&g, n, source, patterns, &by_net);
                dgr_autodiff::parallel::set_num_threads(0);
                assert_eq!(pooled.unwrap(), want, "{n} nets, {threads} threads");
                assert_eq!(streamed.unwrap(), want, "{n} nets, {threads} threads");
            }
        }
    }

    #[test]
    fn appended_forests_are_the_forest_of_the_appended_pools() {
        let g = grid();
        let pools = random_pools(60, 0xA99);
        let whole = build_forest(&g, &pools, PatternConfig::with_z(2)).unwrap();
        for cut in [0, 1, 23, 59, 60] {
            let mut lower = build_forest(&g, &pools[..cut], PatternConfig::with_z(2)).unwrap();
            let upper = build_forest(&g, &pools[cut..], PatternConfig::with_z(2)).unwrap();
            lower.append(upper);
            assert_eq!(lower, whole, "cut at {cut}");
        }
    }

    #[test]
    fn the_first_error_in_net_order_surfaces_from_either_half() {
        let g = grid();
        let mut pools = random_pools(NET_PAR_MIN + 40, 0xE44);
        let off_grid = pool(&[Point::new(3, 3), Point::new(25, 3)]);
        let last = pools.len() - 1;
        pools[last] = off_grid.clone();
        let in_upper = build_forest(&g, &pools, PatternConfig::l_only()).unwrap_err();
        assert!(matches!(in_upper, DagError::PathOutOfGrid(_)));
        pools[7] = pool(&[Point::new(3, 3), Point::new(3, 31)]);
        let in_lower = build_forest(&g, &pools, PatternConfig::l_only()).unwrap_err();
        assert_ne!(in_lower, in_upper);
        assert_eq!(
            in_lower,
            reference_build_forest_with_extras(
                &g,
                &pools,
                PatternConfig::l_only(),
                &std::collections::HashMap::new()
            )
            .unwrap_err()
        );
        pools[last - 1] = Vec::new();
        assert_eq!(
            build_forest(&g, &pools, PatternConfig::l_only()),
            Err(DagError::EmptyNet { net: last - 1 })
        );
    }

    /// A source that fails fails the build with its first error in net
    /// order, whichever half meets it.
    #[test]
    fn a_streamed_build_surfaces_the_sources_first_error_in_net_order() {
        let g = grid();
        let pools = random_pools(NET_PAR_MIN + 9, 0x50);
        let (n, last) = (pools.len(), pools.len() - 1);
        // in both halves, in the upper half only, at the very last net
        for bad in [vec![5, n - 9], vec![n - 9], vec![last]] {
            for threads in [1, 2] {
                let source = |i: usize| match bad.contains(&i) {
                    true => Err(DagError::Inconsistent(format!("net {i}"))),
                    false => Ok(&pools[i]),
                };
                dgr_autodiff::parallel::set_num_threads(threads);
                let got =
                    build_forest_from(&g, n, source, PatternConfig::l_only(), &SubnetExtras::new());
                dgr_autodiff::parallel::set_num_threads(0);
                let want = DagError::Inconsistent(format!("net {}", bad[0]));
                assert_eq!(got.unwrap_err(), want, "{threads} threads");
            }
        }
    }

    #[test]
    fn bytes_grows_with_paths() {
        let g = grid();
        let small = build_forest(
            &g,
            &[pool(&[Point::new(0, 0), Point::new(2, 2)])],
            PatternConfig::l_only(),
        )
        .unwrap();
        let large = build_forest(
            &g,
            &[pool(&[Point::new(0, 0), Point::new(15, 15)])],
            PatternConfig::with_z(1),
        )
        .unwrap();
        assert!(large.bytes() > small.bytes());
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the view's own test
    fn the_edge_csr_lists_the_derived_edges_and_takes_no_part_in_equality() {
        let g = grid();
        let forest = build_forest(&g, &random_pools(40, 0xC5), PatternConfig::with_z(2)).unwrap();
        let untouched = forest.clone();
        let (offsets, ids) = forest.path_edge_csr();
        assert_eq!(offsets.len(), forest.num_paths() + 1);
        for i in 0..forest.num_paths() {
            let listed = &ids[offsets[i] as usize..offsets[i + 1] as usize];
            assert!(listed.iter().copied().eq(forest.path_edges(i)), "path {i}");
        }
        assert_eq!(forest, untouched);
    }

    #[test]
    fn every_column_is_sized_to_its_length() {
        let g = grid();
        let pools = random_pools(NET_PAR_MIN + 41, 0x512E);
        let extras = extras_for(&build_forest(&g, &pools, PatternConfig::l_only()).unwrap());
        // one range, and two halves appended
        for threads in [1, 2] {
            dgr_autodiff::parallel::set_num_threads(threads);
            let forest = build_forest_with_extras(&g, &pools, PatternConfig::with_z(2), &extras);
            dgr_autodiff::parallel::set_num_threads(0);
            let forest = forest.unwrap();
            fn column<T>(v: &Vec<T>) -> (usize, usize, usize) {
                (v.len(), v.capacity(), std::mem::size_of::<T>())
            }
            let shared = &*forest.geometry;
            let columns = [
                ("net_tree_offsets", column(&shared.net_tree_offsets)),
                ("tree_subnet_offsets", column(&forest.tree_subnet_offsets)),
                ("subnet_tree", column(&shared.subnet_tree)),
                ("subnet_endpoints", column(&forest.subnet_endpoints)),
                ("subnet_path_offsets", column(&shared.subnet_path_offsets)),
                ("path_wl", column(&shared.path_wl)),
                ("path_run_offsets", column(&shared.path_run_offsets)),
                ("path_runs", column(&shared.path_runs)),
                ("path_via_offsets", column(&shared.path_via_offsets)),
                ("path_via_cells", column(&shared.path_via_cells)),
            ];
            let mut held = 0;
            for (name, (len, capacity, size)) in columns {
                assert_eq!(capacity, len, "{name} on {threads} threads");
                held += len * size;
            }
            // a column `bytes` counts and this list misses shows here
            assert_eq!(forest.bytes(), held);
        }
    }
}
