//! The flattened DAG-forest arenas.

use std::sync::OnceLock;

use dgr_grid::GcellGrid;

use crate::DagError;

/// The complete 2D pattern-routing search space of a design, stored as
/// flat CSR arenas (the layout DGR keeps in GPU tensors).
///
/// Index spaces:
///
/// * **net** `0..num_nets()` — input nets,
/// * **tree** `0..num_trees()` — routing-tree candidates, grouped by net
///   via `net_tree_offsets`,
/// * **subnet** `0..num_subnets()` — 2-pin sub-nets, grouped by tree via
///   `tree_subnet_offsets`,
/// * **path** `0..num_paths()` — pattern-path candidates, grouped by
///   subnet via `subnet_path_offsets`.
///
/// Per-path CSR side tables map paths to the straight *runs* they occupy
/// (one per corner-to-corner segment — what the expected-cost kernel
/// streams) and to the g-cells where they turn (via pressure). A path is
/// stored once: its g-cell edges are derived from its runs
/// ([`Self::path_edges`]), and its sub-net and tree from the offsets.
/// Every column is sized to its length.
///
/// Construct with [`crate::build_forest`]; all fields are read-only after
/// construction (exposed through accessors so the representation can
/// evolve without breaking users).
#[derive(Debug, Clone, PartialEq)]
pub struct DagForest {
    pub(crate) net_tree_offsets: Vec<u32>,
    pub(crate) tree_subnet_offsets: Vec<u32>,
    pub(crate) subnet_tree: Vec<u32>,
    pub(crate) subnet_endpoints: Vec<(dgr_grid::Point, dgr_grid::Point)>,
    pub(crate) subnet_path_offsets: Vec<u32>,
    pub(crate) path_wl: Vec<f32>,
    pub(crate) path_turns: Vec<f32>,
    pub(crate) path_run_offsets: Vec<u32>,
    pub(crate) path_runs: Vec<(u32, u32)>,
    pub(crate) path_via_offsets: Vec<u32>,
    pub(crate) path_via_cells: Vec<u32>,
    /// The grid's width in cells: a run whose ends lie that far apart or
    /// more is vertical.
    pub(crate) grid_width: u32,
    /// The grid's horizontal edge count, where vertical edge ids start.
    pub(crate) num_h_edges: u32,
    pub(crate) edge_csr: EdgeCsr,
}

/// The per-edge CSR [`DagForest::path_edge_csr`] builds from the runs on
/// its first call. A function of the runs, it takes no part in a forest's
/// equality.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeCsr(OnceLock<(Vec<u32>, Vec<u32>)>);

impl PartialEq for EdgeCsr {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl DagForest {
    /// The forest of no nets on `grid`: every offset column starts its CSR
    /// at 0.
    pub(crate) fn empty(grid: &GcellGrid) -> Self {
        DagForest {
            net_tree_offsets: vec![0],
            tree_subnet_offsets: vec![0],
            subnet_tree: Vec::new(),
            subnet_endpoints: Vec::new(),
            subnet_path_offsets: vec![0],
            path_wl: Vec::new(),
            path_turns: Vec::new(),
            path_run_offsets: vec![0],
            path_runs: Vec::new(),
            path_via_offsets: vec![0],
            path_via_cells: Vec::new(),
            grid_width: grid.width(),
            num_h_edges: u32::try_from(grid.num_h_edges()).expect("edge ids are u32"),
            edge_csr: EdgeCsr::default(),
        }
    }

    /// Appends the forest of the nets that follow this one's: `self`
    /// becomes the forest built over both pools in order. Payload columns
    /// are copied in bulk; offset and owner columns are rebased by this
    /// forest's counts as they are copied. Each column grows by exactly
    /// what it takes in.
    ///
    /// # Panics
    ///
    /// Panics if a combined arena outgrows its `u32` index.
    pub(crate) fn append(&mut self, upper: DagForest) {
        let base = |len: usize, more: usize| {
            let total = u32::try_from(len + more).expect("forest arenas are indexed by u32");
            total - more as u32
        };
        let trees = base(self.num_trees(), upper.num_trees());
        let subnets = base(self.num_subnets(), upper.num_subnets());
        let paths = base(self.num_paths(), upper.num_paths());
        let runs = base(self.path_runs.len(), upper.path_runs.len());
        let vias = base(self.path_via_cells.len(), upper.path_via_cells.len());
        // an offset column's leading 0 is this forest's last offset
        let offsets = |into: &mut Vec<u32>, from: Vec<u32>, base: u32| {
            into.reserve_exact(from.len() - 1);
            into.extend(from[1..].iter().map(|&o| o + base));
        };
        fn payload<T>(into: &mut Vec<T>, from: Vec<T>) {
            into.reserve_exact(from.len());
            into.extend(from);
        }
        offsets(&mut self.net_tree_offsets, upper.net_tree_offsets, trees);
        offsets(
            &mut self.tree_subnet_offsets,
            upper.tree_subnet_offsets,
            subnets,
        );
        self.subnet_tree.reserve_exact(upper.subnet_tree.len());
        self.subnet_tree
            .extend(upper.subnet_tree.iter().map(|&t| t + trees));
        payload(&mut self.subnet_endpoints, upper.subnet_endpoints);
        offsets(
            &mut self.subnet_path_offsets,
            upper.subnet_path_offsets,
            paths,
        );
        payload(&mut self.path_wl, upper.path_wl);
        payload(&mut self.path_turns, upper.path_turns);
        offsets(&mut self.path_run_offsets, upper.path_run_offsets, runs);
        payload(&mut self.path_runs, upper.path_runs);
        offsets(&mut self.path_via_offsets, upper.path_via_offsets, vias);
        payload(&mut self.path_via_cells, upper.path_via_cells);
        self.edge_csr = EdgeCsr::default();
    }

    /// Gives every column back the capacity its length does not use.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.net_tree_offsets.shrink_to_fit();
        self.tree_subnet_offsets.shrink_to_fit();
        self.subnet_tree.shrink_to_fit();
        self.subnet_endpoints.shrink_to_fit();
        self.subnet_path_offsets.shrink_to_fit();
        self.path_wl.shrink_to_fit();
        self.path_turns.shrink_to_fit();
        self.path_run_offsets.shrink_to_fit();
        self.path_runs.shrink_to_fit();
        self.path_via_offsets.shrink_to_fit();
        self.path_via_cells.shrink_to_fit();
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_tree_offsets.len() - 1
    }

    /// Number of routing-tree candidates across all nets.
    pub fn num_trees(&self) -> usize {
        self.tree_subnet_offsets.len() - 1
    }

    /// Number of 2-pin sub-nets across all trees.
    pub fn num_subnets(&self) -> usize {
        self.subnet_tree.len()
    }

    /// Number of pattern-path candidates across all sub-nets.
    pub fn num_paths(&self) -> usize {
        self.path_wl.len()
    }

    /// Tree candidates of net `n`, as a tree-index range.
    ///
    /// # Panics
    ///
    /// Panics if `n >= num_nets()`.
    pub fn trees_of_net(&self, n: usize) -> std::ops::Range<usize> {
        self.net_tree_offsets[n] as usize..self.net_tree_offsets[n + 1] as usize
    }

    /// Sub-nets of tree `t`, as a subnet-index range.
    pub fn subnets_of_tree(&self, t: usize) -> std::ops::Range<usize> {
        self.tree_subnet_offsets[t] as usize..self.tree_subnet_offsets[t + 1] as usize
    }

    /// The tree owning subnet `s`.
    pub fn tree_of_subnet(&self, s: usize) -> usize {
        self.subnet_tree[s] as usize
    }

    /// The two endpoint g-cells of subnet `s`.
    pub fn subnet_endpoints(&self, s: usize) -> (dgr_grid::Point, dgr_grid::Point) {
        self.subnet_endpoints[s]
    }

    /// Path candidates of subnet `s`, as a path-index range.
    pub fn paths_of_subnet(&self, s: usize) -> std::ops::Range<usize> {
        self.subnet_path_offsets[s] as usize..self.subnet_path_offsets[s + 1] as usize
    }

    /// The subnet owning path `i`, by a binary search of the subnet→path
    /// offsets.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_paths()`.
    pub fn subnet_of_path(&self, i: usize) -> usize {
        assert!(i < self.num_paths(), "path {i} of {}", self.num_paths());
        self.subnet_path_offsets
            .partition_point(|&o| o as usize <= i)
            - 1
    }

    /// The tree owning path `i`: its subnet's tree.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_paths()`.
    pub fn tree_of_path(&self, i: usize) -> usize {
        self.subnet_tree[self.subnet_of_path(i)] as usize
    }

    /// Wirelength of path `i` (`WL_i` in Eq. 4).
    pub fn path_wirelength(&self, i: usize) -> f32 {
        self.path_wl[i]
    }

    /// Turning-point count of path `i` (`TP_i` in Eq. 5).
    pub fn path_turn_count(&self, i: usize) -> f32 {
        self.path_turns[i]
    }

    /// G-cell edges occupied by path `i` (raw [`dgr_grid::EdgeId`] values),
    /// derived from its runs: run by run in source-to-sink order, each
    /// run's lowest id first — the order
    /// [`GcellGrid::segment_edges`] yields them over the path's corners,
    /// segment by segment. A run `(low, high)` with `high − low ≥ width`
    /// is vertical, the `(high − low) / width` edges from `num_h_edges +
    /// low` at stride `width`; any other is horizontal, the `high − low`
    /// edges from `low − low / width`.
    pub fn path_edges(&self, i: usize) -> impl Iterator<Item = u32> + Clone + '_ {
        let (width, h_edges) = (self.grid_width, self.num_h_edges);
        self.path_runs(i).iter().flat_map(move |&(low, high)| {
            let (first, stride, len) = if high - low >= width {
                (h_edges + low, width, (high - low) / width)
            } else {
                (low - low / width, 1, high - low)
            };
            (0..len).map(move |k| first + k * stride)
        })
    }

    /// Straight runs of path `i`, one per non-empty corner-to-corner
    /// segment in source-to-sink order: `(low, high)` raw
    /// [`dgr_grid::GcellId`] values of the segment's end cells, `low <
    /// high`. A run whose ends share a row covers the horizontal edges
    /// between them, otherwise the vertical ones: together, exactly the
    /// edges [`Self::path_edges`] lists.
    pub fn path_runs(&self, i: usize) -> &[(u32, u32)] {
        let lo = self.path_run_offsets[i] as usize;
        let hi = self.path_run_offsets[i + 1] as usize;
        &self.path_runs[lo..hi]
    }

    /// G-cells where path `i` turns (raw [`dgr_grid::GcellId`] values).
    pub fn path_vias(&self, i: usize) -> &[u32] {
        let lo = self.path_via_offsets[i] as usize;
        let hi = self.path_via_offsets[i + 1] as usize;
        &self.path_via_cells[lo..hi]
    }

    /// Dense per-path wirelength vector (Eq. 4's `WL` weights).
    pub fn path_wl_slice(&self) -> &[f32] {
        &self.path_wl
    }

    /// Dense per-path turn-count vector (Eq. 5's `TP` weights).
    pub fn path_turns_slice(&self) -> &[f32] {
        &self.path_turns
    }

    /// Per-subnet tree index (every path of a subnet shares its tree).
    pub fn subnet_tree_slice(&self) -> &[u32] {
        &self.subnet_tree
    }

    /// CSR offsets grouping paths by subnet (softmax groups for `p`).
    pub fn subnet_path_offsets_slice(&self) -> &[u32] {
        &self.subnet_path_offsets
    }

    /// CSR offsets grouping trees by net (softmax groups for `q`).
    pub fn net_tree_offsets_slice(&self) -> &[u32] {
        &self.net_tree_offsets
    }

    /// CSR (offsets, edge ids) mapping each path to its g-cell edges
    /// ([`Self::path_edges`], path after path). Built on the first call
    /// and kept with the forest: an arena as large as every path's edges,
    /// which the benchmark's kernel micro-timings read and nothing in the
    /// product does.
    pub fn path_edge_csr(&self) -> (&[u32], &[u32]) {
        let (offsets, ids) = self.edge_csr.0.get_or_init(|| {
            let mut offsets = Vec::with_capacity(self.num_paths() + 1);
            offsets.push(0);
            let mut ids = Vec::new();
            for i in 0..self.num_paths() {
                ids.extend(self.path_edges(i));
                offsets.push(u32::try_from(ids.len()).expect("edge ids are indexed by u32"));
            }
            (offsets, ids)
        });
        (offsets, ids)
    }

    /// CSR (offsets, end-cell pairs) mapping each path to its straight
    /// runs (see [`Self::path_runs`]).
    pub fn path_run_csr(&self) -> (&[u32], &[(u32, u32)]) {
        (&self.path_run_offsets, &self.path_runs)
    }

    /// CSR (offsets, cell ids) mapping each path to its turn cells.
    pub fn path_via_csr(&self) -> (&[u32], &[u32]) {
        (&self.path_via_offsets, &self.path_via_cells)
    }

    /// Heap bytes the arenas hold, capacity counted — the
    /// reproduction's analogue of the paper's GPU-memory axis (Fig. 5b).
    /// The view [`Self::path_edge_csr`] builds is not counted.
    pub fn bytes(&self) -> usize {
        fn held<T>(column: &Vec<T>) -> usize {
            column.capacity() * std::mem::size_of::<T>()
        }
        held(&self.net_tree_offsets)
            + held(&self.tree_subnet_offsets)
            + held(&self.subnet_tree)
            + held(&self.subnet_endpoints)
            + held(&self.subnet_path_offsets)
            + held(&self.path_wl)
            + held(&self.path_turns)
            + held(&self.path_run_offsets)
            + held(&self.path_runs)
            + held(&self.path_via_offsets)
            + held(&self.path_via_cells)
    }

    /// Verifies every cross-index invariant of the arenas.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Inconsistent`] naming the first violation.
    pub fn validate(&self) -> Result<(), DagError> {
        let check_csr = |name: &str, offsets: &[u32], n_items: usize| {
            if offsets.is_empty() {
                return Err(DagError::Inconsistent(format!("{name}: empty offsets")));
            }
            if offsets[0] != 0 || *offsets.last().expect("non-empty") as usize != n_items {
                return Err(DagError::Inconsistent(format!(
                    "{name}: offsets must span 0..{n_items}"
                )));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(DagError::Inconsistent(format!(
                    "{name}: offsets not monotone"
                )));
            }
            Ok(())
        };
        check_csr("net→tree", &self.net_tree_offsets, self.num_trees())?;
        check_csr("tree→subnet", &self.tree_subnet_offsets, self.num_subnets())?;
        check_csr("subnet→path", &self.subnet_path_offsets, self.num_paths())?;
        check_csr("path→run", &self.path_run_offsets, self.path_runs.len())?;
        check_csr(
            "path→via",
            &self.path_via_offsets,
            self.path_via_cells.len(),
        )?;
        if self.path_wl.len() != self.path_turns.len()
            || self.path_run_offsets.len() != self.num_paths() + 1
            || self.path_via_offsets.len() != self.num_paths() + 1
        {
            return Err(DagError::Inconsistent(
                "per-path arrays disagree on length".into(),
            ));
        }
        // a run is a row's cells or a column's: what `path_edges` reads
        let width = self.grid_width;
        let straight = |&(lo, hi): &(u32, u32)| {
            lo < hi && (hi - lo >= width && (hi - lo) % width == 0 || lo / width == hi / width)
        };
        if !self.path_runs.iter().all(straight) {
            return Err(DagError::Inconsistent(
                "a path run is not one row's or one column's cells, low < high".into(),
            ));
        }
        if self.subnet_endpoints.len() != self.subnet_tree.len() {
            return Err(DagError::Inconsistent(
                "subnet endpoint table disagrees with subnet count".into(),
            ));
        }
        // the owner column agrees with the CSR grouping
        for t in 0..self.num_trees() {
            for s in self.subnets_of_tree(t) {
                if self.tree_of_subnet(s) != t {
                    return Err(DagError::Inconsistent(format!(
                        "subnet {s} back-pointer disagrees with tree {t}"
                    )));
                }
            }
        }
        if let Some(s) = (0..self.num_subnets()).find(|&s| self.paths_of_subnet(s).is_empty()) {
            return Err(DagError::Inconsistent(format!("subnet {s} has no paths")));
        }
        for n in 0..self.num_nets() {
            if self.trees_of_net(n).is_empty() {
                return Err(DagError::EmptyNet { net: n });
            }
        }
        Ok(())
    }
}
