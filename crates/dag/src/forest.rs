//! The flattened DAG-forest arenas.

use std::sync::{Arc, OnceLock};

use dgr_autodiff::Geometry;
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
/// The groupings and per-path columns the expected-cost kernel reads are
/// one shared [`Geometry`] ([`Self::geometry`]): a model built over the
/// forest holds the same `Arc` and reads them in place, so they exist
/// once. The runs are stored in the kernel's difference-array slot form.
///
/// Construct with [`crate::build_forest`]; all fields are read-only after
/// construction (exposed through accessors so the representation can
/// evolve without breaking users).
#[derive(Debug, Clone, PartialEq)]
pub struct DagForest {
    pub(crate) geometry: Arc<Geometry>,
    pub(crate) tree_subnet_offsets: Vec<u32>,
    pub(crate) subnet_endpoints: Vec<(dgr_grid::Point, dgr_grid::Point)>,
    /// The grid's width and height in cells.
    pub(crate) grid: (u32, u32),
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

/// A forest's shared columns, to push onto while it is built.
///
/// # Panics
///
/// Panics once they are shared: a forest is built before anything reads
/// it.
pub(crate) fn building(geometry: &mut Arc<Geometry>) -> &mut Geometry {
    Arc::get_mut(geometry).expect("a forest is built before it is shared")
}

impl DagForest {
    /// The forest of no nets on `grid`: every offset column starts its CSR
    /// at 0.
    pub(crate) fn empty(grid: &GcellGrid) -> Self {
        DagForest {
            geometry: Arc::default(),
            tree_subnet_offsets: vec![0],
            subnet_endpoints: Vec::new(),
            grid: (grid.width(), grid.height()),
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
    pub(crate) fn append(&mut self, mut upper: DagForest) {
        let base = |len: usize, more: usize| {
            let total = u32::try_from(len + more).expect("forest arenas are indexed by u32");
            total - more as u32
        };
        let trees = base(self.num_trees(), upper.num_trees());
        let subnets = base(self.num_subnets(), upper.num_subnets());
        let paths = base(self.num_paths(), upper.num_paths());
        let (this, more) = (
            building(&mut self.geometry),
            std::mem::take(building(&mut upper.geometry)),
        );
        let runs = base(this.path_runs.len(), more.path_runs.len());
        let vias = base(this.path_via_cells.len(), more.path_via_cells.len());
        // an offset column's leading 0 is this forest's last offset
        let offsets = |into: &mut Vec<u32>, from: Vec<u32>, base: u32| {
            into.reserve_exact(from.len() - 1);
            into.extend(from[1..].iter().map(|&o| o + base));
        };
        fn payload<T>(into: &mut Vec<T>, from: Vec<T>) {
            into.reserve_exact(from.len());
            into.extend(from);
        }
        offsets(&mut this.net_tree_offsets, more.net_tree_offsets, trees);
        offsets(
            &mut self.tree_subnet_offsets,
            upper.tree_subnet_offsets,
            subnets,
        );
        this.subnet_tree.reserve_exact(more.subnet_tree.len());
        this.subnet_tree
            .extend(more.subnet_tree.iter().map(|&t| t + trees));
        payload(&mut self.subnet_endpoints, upper.subnet_endpoints);
        offsets(
            &mut this.subnet_path_offsets,
            more.subnet_path_offsets,
            paths,
        );
        payload(&mut this.path_wl, more.path_wl);
        offsets(&mut this.path_run_offsets, more.path_run_offsets, runs);
        payload(&mut this.path_runs, more.path_runs);
        offsets(&mut this.path_via_offsets, more.path_via_offsets, vias);
        payload(&mut this.path_via_cells, more.path_via_cells);
        self.edge_csr = EdgeCsr::default();
    }

    /// Gives every column back the capacity its length does not use.
    pub(crate) fn shrink_to_fit(&mut self) {
        let columns = building(&mut self.geometry);
        columns.net_tree_offsets.shrink_to_fit();
        self.tree_subnet_offsets.shrink_to_fit();
        columns.subnet_tree.shrink_to_fit();
        self.subnet_endpoints.shrink_to_fit();
        columns.subnet_path_offsets.shrink_to_fit();
        columns.path_wl.shrink_to_fit();
        columns.path_run_offsets.shrink_to_fit();
        columns.path_runs.shrink_to_fit();
        columns.path_via_offsets.shrink_to_fit();
        columns.path_via_cells.shrink_to_fit();
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.geometry.num_nets()
    }

    /// Number of routing-tree candidates across all nets.
    pub fn num_trees(&self) -> usize {
        self.geometry.num_trees()
    }

    /// Number of 2-pin sub-nets across all trees.
    pub fn num_subnets(&self) -> usize {
        self.geometry.subnet_tree.len()
    }

    /// Number of pattern-path candidates across all sub-nets.
    pub fn num_paths(&self) -> usize {
        self.geometry.num_paths()
    }

    /// Tree candidates of net `n`, as a tree-index range.
    ///
    /// # Panics
    ///
    /// Panics if `n >= num_nets()`.
    pub fn trees_of_net(&self, n: usize) -> std::ops::Range<usize> {
        self.geometry.trees_of_net(n)
    }

    /// Sub-nets of tree `t`, as a subnet-index range.
    pub fn subnets_of_tree(&self, t: usize) -> std::ops::Range<usize> {
        self.tree_subnet_offsets[t] as usize..self.tree_subnet_offsets[t + 1] as usize
    }

    /// The tree owning subnet `s`.
    pub fn tree_of_subnet(&self, s: usize) -> usize {
        self.geometry.subnet_tree[s] as usize
    }

    /// The two endpoint g-cells of subnet `s`.
    pub fn subnet_endpoints(&self, s: usize) -> (dgr_grid::Point, dgr_grid::Point) {
        self.subnet_endpoints[s]
    }

    /// Path candidates of subnet `s`, as a path-index range.
    pub fn paths_of_subnet(&self, s: usize) -> std::ops::Range<usize> {
        self.geometry.paths_of_subnet(s)
    }

    /// The subnet owning path `i`, by a binary search of the subnet→path
    /// offsets.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_paths()`.
    pub fn subnet_of_path(&self, i: usize) -> usize {
        assert!(i < self.num_paths(), "path {i} of {}", self.num_paths());
        let offsets = &self.geometry.subnet_path_offsets;
        offsets.partition_point(|&o| o as usize <= i) - 1
    }

    /// The tree owning path `i`: its subnet's tree.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_paths()`.
    pub fn tree_of_path(&self, i: usize) -> usize {
        self.tree_of_subnet(self.subnet_of_path(i))
    }

    /// Wirelength of path `i` (`WL_i` in Eq. 4).
    pub fn path_wirelength(&self, i: usize) -> f32 {
        self.geometry.path_wl[i]
    }

    /// Turning-point count of path `i` (`TP_i` in Eq. 5): its number of
    /// turn cells.
    pub fn path_turn_count(&self, i: usize) -> f32 {
        self.geometry.turns_of_path(i)
    }

    /// G-cell edges occupied by path `i` (raw [`dgr_grid::EdgeId`] values),
    /// derived from its runs: run by run in source-to-sink order, each
    /// run's lowest id first — the order
    /// [`GcellGrid::segment_edges`] yields them over the path's corners,
    /// segment by segment. A run `(low, high)` from slot `cells` up is
    /// vertical, the `(high − low) / width` edges from `h_edges + low −
    /// cells` at stride `width` — with `h_edges = cells − height`, from
    /// `low − height`; any other is horizontal, the `high − low` edges from
    /// `low − low / width`.
    pub fn path_edges(&self, i: usize) -> impl Iterator<Item = u32> + Clone + '_ {
        let (width, height) = self.grid;
        self.path_runs(i).iter().flat_map(move |&(low, high)| {
            let (first, stride, len) = if low >= width * height {
                (low - height, width, (high - low) / width)
            } else {
                (low - low / width, 1, high - low)
            };
            (0..len).map(move |k| first + k * stride)
        })
    }

    /// Straight runs of path `i`, one per non-empty corner-to-corner
    /// segment in source-to-sink order, in the kernel's slot form
    /// ([`Geometry::path_runs`]): `(low, high)` raw
    /// [`dgr_grid::GcellId`] values of the segment's end cells, `low <
    /// high`, for a run along a row, and the same plus the grid's cell
    /// count for a run down a column. Together they cover exactly the
    /// edges [`Self::path_edges`] lists.
    pub fn path_runs(&self, i: usize) -> &[(u32, u32)] {
        self.geometry.runs_of_path(i)
    }

    /// G-cells where path `i` turns (raw [`dgr_grid::GcellId`] values).
    pub fn path_vias(&self, i: usize) -> &[u32] {
        self.geometry.vias_of_path(i)
    }

    /// The groupings and per-path columns the expected-cost kernel reads,
    /// shared: a model built over the forest holds this `Arc`.
    pub fn geometry(&self) -> &Arc<Geometry> {
        &self.geometry
    }

    /// CSR offsets grouping paths by subnet (softmax groups for `p`).
    pub fn subnet_path_offsets_slice(&self) -> &[u32] {
        &self.geometry.subnet_path_offsets
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

    /// Heap bytes the arenas hold, capacity counted — the
    /// reproduction's analogue of the paper's GPU-memory axis (Fig. 5b).
    /// The view [`Self::path_edge_csr`] builds is not counted.
    pub fn bytes(&self) -> usize {
        fn held<T>(column: &Vec<T>) -> usize {
            column.capacity() * std::mem::size_of::<T>()
        }
        self.geometry.bytes() + held(&self.tree_subnet_offsets) + held(&self.subnet_endpoints)
    }

    /// Verifies every cross-index invariant of the arenas.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Inconsistent`] naming the first violation.
    pub fn validate(&self) -> Result<(), DagError> {
        // the kernel's columns, on this forest's grid
        let (width, height) = self.grid;
        let checked = self.geometry.check(width as usize, height as usize);
        checked.map_err(|e| DagError::Inconsistent(e.to_string()))?;
        let offsets = &self.tree_subnet_offsets;
        if offsets.len() != self.num_trees() + 1
            || offsets[0] != 0
            || offsets[self.num_trees()] as usize != self.num_subnets()
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(DagError::Inconsistent(
                "tree→subnet offsets do not partition the sub-nets".into(),
            ));
        }
        if self.subnet_endpoints.len() != self.num_subnets() {
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
