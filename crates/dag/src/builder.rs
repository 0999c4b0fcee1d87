//! Construction of a [`DagForest`] from per-net tree candidate pools.

use dgr_autodiff::parallel::{par_halves, NET_PAR_MIN};
use dgr_grid::GcellGrid;
use dgr_rsmt::RoutingTree;

use crate::forest::DagForest;
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
    build_forest_with_extras(
        grid,
        candidates,
        patterns,
        &std::collections::HashMap::new(),
    )
}

/// [`build_forest`] plus *extra* path candidates for specific sub-nets —
/// the paper's "adaptive expansion of the forest" future-work hook: after
/// a first routing round, congested sub-nets receive additional (e.g.
/// maze-derived) candidates keyed by their construction-order subnet
/// index.
///
/// Extras that duplicate an already-enumerated pattern, or whose
/// endpoints do not match the sub-net, are skipped silently.
///
/// # Errors
///
/// Same contract as [`build_forest`].
pub fn build_forest_with_extras(
    grid: &GcellGrid,
    candidates: &[Vec<RoutingTree>],
    patterns: PatternConfig,
    extras: &std::collections::HashMap<usize, Vec<PatternPath>>,
) -> Result<DagForest, DagError> {
    if let Some(net) = candidates.iter().position(Vec::is_empty) {
        return Err(DagError::EmptyNet { net });
    }
    // `extras` is keyed by global construction-order subnet index, and a
    // tree's subnets are exactly its edges
    let subnets_before = |n: usize| -> usize {
        let trees = candidates[..n].iter().flatten();
        trees.map(|t| t.edges().len()).sum()
    };
    // Each range of nets is pushed straight into a forest of its own, in
    // that forest's numbering; the upper half's is appended to the lower
    // half's. The cut depends on the net count alone and the first error in
    // net order surfaces, so the result is the one-range build's at any
    // thread count.
    let (lower, upper) = par_halves(candidates.len(), NET_PAR_MIN, |nets| {
        let mut forest = DagForest::empty();
        let first_subnet = subnets_before(nets.start);
        push_nets(
            &mut forest,
            grid,
            &candidates[nets],
            patterns,
            extras,
            first_subnet,
        )?;
        Ok::<_, DagError>(forest)
    });
    let mut forest = lower?;
    if let Some(upper) = upper {
        forest.append(upper?);
    }
    debug_assert!(forest.validate().is_ok());
    Ok(forest)
}

/// Pushes the trees, sub-nets and path candidates of `pools`' nets onto
/// the end of `forest`'s arenas. `first_subnet` is the global
/// construction-order index of the first sub-net pushed, the key `extras`
/// knows it by.
fn push_nets(
    forest: &mut DagForest,
    grid: &GcellGrid,
    pools: &[Vec<RoutingTree>],
    patterns: PatternConfig,
    extras: &std::collections::HashMap<usize, Vec<PatternPath>>,
    first_subnet: usize,
) -> Result<(), DagError> {
    let bounds = Some(grid.bounds());
    let mut global_subnet = first_subnet;
    for pool in pools {
        let net = forest.num_nets() as u32;
        for tree in pool {
            let t = forest.tree_net.len() as u32;
            forest.tree_net.push(net);
            for (a, b) in tree.subnets() {
                let s = forest.subnet_tree.len() as u32;
                forest.subnet_tree.push(t);
                forest.subnet_endpoints.push((a, b));
                let (z, c) = (patterns.z_stride, patterns.c_detour);
                match extras.get(&global_subnet) {
                    None => for_each_pattern(a, b, z, c, bounds, |corners| {
                        push_path(forest, grid, s, t, corners)
                    })?,
                    Some(more) => {
                        let mut paths = enumerate_patterns(a, b, z, c, bounds);
                        for extra in more {
                            let endpoints_match = (extra.source() == a && extra.sink() == b)
                                || (extra.source() == b && extra.sink() == a);
                            if endpoints_match && !paths.contains(extra) {
                                paths.push(extra.clone());
                            }
                        }
                        for path in &paths {
                            push_path(forest, grid, s, t, &path.corners)?;
                        }
                    }
                }
                forest
                    .subnet_path_offsets
                    .push(forest.path_subnet.len() as u32);
                global_subnet += 1;
            }
            forest
                .tree_subnet_offsets
                .push(forest.subnet_tree.len() as u32);
        }
        forest.net_tree_offsets.push(forest.tree_net.len() as u32);
    }
    Ok(())
}

/// Pushes one path candidate of sub-net `s` of tree `t`: its weights and
/// the edges, runs and turn cells under `corners`.
fn push_path(
    forest: &mut DagForest,
    grid: &GcellGrid,
    s: u32,
    t: u32,
    corners: &[dgr_grid::Point],
) -> Result<(), DagError> {
    forest.path_subnet.push(s);
    forest.path_tree.push(t);
    let mut wl = 0u32;
    for w in corners.windows(2) {
        let edges = grid.segment_edges(w[0], w[1])?;
        if w[0] == w[1] {
            continue;
        }
        wl += w[0].manhattan_distance(w[1]);
        forest.path_edge_ids.extend(edges.map(|e| e.0));
        // the segment is on the grid, so its end cells are
        let (a, b) = (grid.cell_id(w[0])?.0, grid.cell_id(w[1])?.0);
        forest.path_runs.push((a.min(b), a.max(b)));
    }
    forest.path_wl.push(wl as f32);
    let vias_before = forest.path_via_cells.len();
    for v in turning_points(corners) {
        forest.path_via_cells.push(grid.cell_id(v)?.0);
    }
    let turns = forest.path_via_cells.len() - vias_before;
    forest.path_turns.push(turns as f32);
    forest
        .path_edge_offsets
        .push(forest.path_edge_ids.len() as u32);
    forest.path_run_offsets.push(forest.path_runs.len() as u32);
    forest
        .path_via_offsets
        .push(forest.path_via_cells.len() as u32);
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
            assert_eq!(f.path_edges(i).len(), 12);
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
        // every path's tree cache must match its subnet's tree
        for i in 0..f.num_paths() {
            assert_eq!(f.tree_of_path(i), f.tree_of_subnet(f.subnet_of_path(i)));
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
            assert_eq!(grown.path_edges(i), base.path_edges(i));
        }
        let extra_idx = grown.num_paths() - 1;
        assert_eq!(grown.path_wirelength(extra_idx), 14.0); // detour length
        assert_eq!(grown.path_turn_count(extra_idx), 2.0);
    }

    #[test]
    fn runs_cover_exactly_the_path_edges() {
        let g = grid();
        let nets = vec![
            pool(&[Point::new(2, 3), Point::new(9, 8), Point::new(5, 14)]),
            pool(&[Point::new(4, 4), Point::new(4, 4)]),
            pool(&[Point::new(1, 6), Point::new(12, 6)]),
        ];
        // an extra that doubles back over its own first leg: the edges
        // (3,3)–(5,3) are walked twice and must be counted twice
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
        let f = build_forest_with_extras(&g, &nets, PatternConfig::with_z_and_c(2, 1), &extras)
            .unwrap();
        f.validate().unwrap();
        let mut doubled = 0;
        for i in 0..f.num_paths() {
            let mut from_runs: Vec<u32> = Vec::new();
            for &(lo, hi) in f.path_runs(i) {
                assert!(lo < hi);
                let (a, b) = (
                    g.cell_point(dgr_grid::GcellId(lo)),
                    g.cell_point(dgr_grid::GcellId(hi)),
                );
                from_runs.extend(g.segment_edges(a, b).unwrap().map(|e| e.0));
            }
            let mut edges = f.path_edges(i).to_vec();
            from_runs.sort_unstable();
            edges.sort_unstable();
            assert_eq!(from_runs, edges, "path {i}");
            doubled += usize::from(edges.windows(2).any(|w| w[0] == w[1]));
        }
        assert!(doubled > 0, "the doubling extra was not admitted");
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
    /// into its arenas: every net a `NetChunk` of eleven vectors (and a
    /// `Vec<PatternPath>` per sub-net), spliced in element by element.
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
        let mut tree_net = Vec::new();
        let mut tree_subnet_offsets = vec![0u32];
        let mut subnet_tree = Vec::new();
        let mut subnet_endpoints = Vec::new();
        let mut subnet_path_offsets = vec![0u32];
        let mut path_subnet = Vec::new();
        let mut path_tree = Vec::new();
        let mut path_wl = Vec::new();
        let mut path_turns = Vec::new();
        let mut path_edge_offsets = vec![0u32];
        let mut path_edge_ids: Vec<u32> = Vec::new();
        let mut path_run_offsets = vec![0u32];
        let mut path_runs: Vec<(u32, u32)> = Vec::new();
        let mut path_via_offsets = vec![0u32];
        let mut path_via_cells: Vec<u32> = Vec::new();

        for (n, chunk) in chunks.enumerate() {
            let chunk = chunk?;
            let mut subnet_cursor = 0usize;
            let mut path_cursor = 0usize;
            let mut edge_cursor = 0usize;
            let mut run_cursor = 0usize;
            let mut via_cursor = 0usize;
            for &subnets_in_tree in &chunk.tree_subnet_counts {
                let t = tree_net.len() as u32;
                tree_net.push(n as u32);
                for _ in 0..subnets_in_tree {
                    let s = subnet_tree.len() as u32;
                    subnet_tree.push(t);
                    subnet_endpoints.push(chunk.subnet_endpoints[subnet_cursor]);
                    for _ in 0..chunk.subnet_path_counts[subnet_cursor] {
                        path_subnet.push(s);
                        path_tree.push(t);
                        path_wl.push(chunk.path_wl[path_cursor]);
                        path_turns.push(chunk.path_turns[path_cursor]);
                        let ne = chunk.path_edge_counts[path_cursor] as usize;
                        path_edge_ids
                            .extend_from_slice(&chunk.path_edge_ids[edge_cursor..edge_cursor + ne]);
                        edge_cursor += ne;
                        path_edge_offsets.push(path_edge_ids.len() as u32);
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
                    subnet_path_offsets.push(path_subnet.len() as u32);
                    subnet_cursor += 1;
                }
                tree_subnet_offsets.push(subnet_tree.len() as u32);
            }
            net_tree_offsets.push(tree_net.len() as u32);
        }

        let forest = DagForest {
            net_tree_offsets,
            tree_net,
            tree_subnet_offsets,
            subnet_tree,
            subnet_endpoints,
            subnet_path_offsets,
            path_subnet,
            path_tree,
            path_wl,
            path_turns,
            path_edge_offsets,
            path_edge_ids,
            path_run_offsets,
            path_runs,
            path_via_offsets,
            path_via_cells,
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
        path_turns: Vec<f32>,
        path_edge_counts: Vec<u32>,
        path_edge_ids: Vec<u32>,
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
            path_turns: Vec::new(),
            path_edge_counts: Vec::new(),
            path_edge_ids: Vec::new(),
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
                        let endpoints_match = (extra.source() == a && extra.sink() == b)
                            || (extra.source() == b && extra.sink() == a);
                        if endpoints_match && !paths.contains(extra) {
                            paths.push(extra.clone());
                        }
                    }
                }
                chunk.subnet_path_counts.push(paths.len() as u32);
                for path in paths {
                    chunk.path_wl.push(path.wirelength() as f32);
                    chunk.path_turns.push(path.num_turns() as f32);
                    let edges_before = chunk.path_edge_ids.len();
                    let runs_before = chunk.path_runs.len();
                    for w in path.corners.windows(2) {
                        let edges = grid.segment_edges(w[0], w[1])?;
                        if w[0] == w[1] {
                            continue;
                        }
                        chunk.path_edge_ids.extend(edges.map(|e| e.0));
                        // the segment is on the grid, so its end cells are
                        let (a, b) = (grid.cell_id(w[0])?.0, grid.cell_id(w[1])?.0);
                        chunk.path_runs.push((a.min(b), a.max(b)));
                    }
                    chunk
                        .path_edge_counts
                        .push((chunk.path_edge_ids.len() - edges_before) as u32);
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

    #[test]
    fn forest_equals_the_per_net_chunk_builder_at_any_size_and_thread_count() {
        let g = grid();
        let configs = [
            PatternConfig::l_only(),
            PatternConfig::with_z(2),
            PatternConfig::with_z_and_c(3, 1),
        ];
        // NET_PAR_MIN + 41 is odd: the halves are of different sizes
        for (case, n) in [NET_PAR_MIN - 1, NET_PAR_MIN, NET_PAR_MIN + 41]
            .into_iter()
            .enumerate()
        {
            let pools = random_pools(n, 0xF0 + case as u64);
            let plain = build_forest(&g, &pools, PatternConfig::l_only()).unwrap();
            let extras = extras_for(&plain);
            let patterns = configs[case];
            let want = reference_build_forest_with_extras(&g, &pools, patterns, &extras).unwrap();
            want.validate().unwrap();
            assert!(want.num_paths() > plain.num_paths());
            for threads in [1, 2, 8] {
                dgr_autodiff::parallel::set_num_threads(threads);
                let got = build_forest_with_extras(&g, &pools, patterns, &extras);
                dgr_autodiff::parallel::set_num_threads(0);
                assert_eq!(got.unwrap(), want, "{n} nets, {threads} threads");
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
}
