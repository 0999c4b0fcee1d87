//! The flattened DAG-forest arenas.

use serde::{Deserialize, Serialize};

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
/// Per-path CSR side tables map paths to the g-cell edges they occupy, the
/// straight *runs* those edges form (one per corner-to-corner segment —
/// what the expected-cost kernel streams instead of the edges), and the
/// g-cells where they turn (via pressure).
///
/// Construct with [`crate::build_forest`]; all fields are read-only after
/// construction (exposed through accessors so the representation can
/// evolve without breaking users).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagForest {
    pub(crate) net_tree_offsets: Vec<u32>,
    pub(crate) tree_net: Vec<u32>,
    pub(crate) tree_subnet_offsets: Vec<u32>,
    pub(crate) subnet_tree: Vec<u32>,
    pub(crate) subnet_endpoints: Vec<(dgr_grid::Point, dgr_grid::Point)>,
    pub(crate) subnet_path_offsets: Vec<u32>,
    pub(crate) path_subnet: Vec<u32>,
    pub(crate) path_tree: Vec<u32>,
    pub(crate) path_wl: Vec<f32>,
    pub(crate) path_turns: Vec<f32>,
    pub(crate) path_edge_offsets: Vec<u32>,
    pub(crate) path_edge_ids: Vec<u32>,
    pub(crate) path_run_offsets: Vec<u32>,
    pub(crate) path_runs: Vec<(u32, u32)>,
    pub(crate) path_via_offsets: Vec<u32>,
    pub(crate) path_via_cells: Vec<u32>,
}

impl DagForest {
    /// The forest of no nets: every offset column starts its CSR at 0.
    pub(crate) fn empty() -> Self {
        DagForest {
            net_tree_offsets: vec![0],
            tree_net: Vec::new(),
            tree_subnet_offsets: vec![0],
            subnet_tree: Vec::new(),
            subnet_endpoints: Vec::new(),
            subnet_path_offsets: vec![0],
            path_subnet: Vec::new(),
            path_tree: Vec::new(),
            path_wl: Vec::new(),
            path_turns: Vec::new(),
            path_edge_offsets: vec![0],
            path_edge_ids: Vec::new(),
            path_run_offsets: vec![0],
            path_runs: Vec::new(),
            path_via_offsets: vec![0],
            path_via_cells: Vec::new(),
        }
    }

    /// Appends the forest of the nets that follow this one's: `self`
    /// becomes the forest built over both pools in order. Payload columns
    /// are copied in bulk; offset and owner columns are rebased by this
    /// forest's counts as they are copied.
    ///
    /// # Panics
    ///
    /// Panics if a combined arena outgrows its `u32` index.
    pub(crate) fn append(&mut self, upper: DagForest) {
        let base = |len: usize, more: usize| {
            let total = u32::try_from(len + more).expect("forest arenas are indexed by u32");
            total - more as u32
        };
        let nets = base(self.num_nets(), upper.num_nets());
        let trees = base(self.num_trees(), upper.num_trees());
        let subnets = base(self.num_subnets(), upper.num_subnets());
        let paths = base(self.num_paths(), upper.num_paths());
        let edges = base(self.path_edge_ids.len(), upper.path_edge_ids.len());
        let runs = base(self.path_runs.len(), upper.path_runs.len());
        let vias = base(self.path_via_cells.len(), upper.path_via_cells.len());
        // an offset column's leading 0 is this forest's last offset
        let offsets = |into: &mut Vec<u32>, from: Vec<u32>, base: u32| {
            into.extend(from[1..].iter().map(|&o| o + base));
        };
        let owners = |into: &mut Vec<u32>, from: Vec<u32>, base: u32| {
            into.extend(from.iter().map(|&o| o + base));
        };
        offsets(&mut self.net_tree_offsets, upper.net_tree_offsets, trees);
        owners(&mut self.tree_net, upper.tree_net, nets);
        offsets(
            &mut self.tree_subnet_offsets,
            upper.tree_subnet_offsets,
            subnets,
        );
        owners(&mut self.subnet_tree, upper.subnet_tree, trees);
        self.subnet_endpoints.extend(upper.subnet_endpoints);
        offsets(
            &mut self.subnet_path_offsets,
            upper.subnet_path_offsets,
            paths,
        );
        owners(&mut self.path_subnet, upper.path_subnet, subnets);
        owners(&mut self.path_tree, upper.path_tree, trees);
        self.path_wl.extend(upper.path_wl);
        self.path_turns.extend(upper.path_turns);
        offsets(&mut self.path_edge_offsets, upper.path_edge_offsets, edges);
        self.path_edge_ids.extend(upper.path_edge_ids);
        offsets(&mut self.path_run_offsets, upper.path_run_offsets, runs);
        self.path_runs.extend(upper.path_runs);
        offsets(&mut self.path_via_offsets, upper.path_via_offsets, vias);
        self.path_via_cells.extend(upper.path_via_cells);
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_tree_offsets.len() - 1
    }

    /// Number of routing-tree candidates across all nets.
    pub fn num_trees(&self) -> usize {
        self.tree_net.len()
    }

    /// Number of 2-pin sub-nets across all trees.
    pub fn num_subnets(&self) -> usize {
        self.subnet_tree.len()
    }

    /// Number of pattern-path candidates across all sub-nets.
    pub fn num_paths(&self) -> usize {
        self.path_subnet.len()
    }

    /// Tree candidates of net `n`, as a tree-index range.
    ///
    /// # Panics
    ///
    /// Panics if `n >= num_nets()`.
    pub fn trees_of_net(&self, n: usize) -> std::ops::Range<usize> {
        self.net_tree_offsets[n] as usize..self.net_tree_offsets[n + 1] as usize
    }

    /// The net owning tree `t`.
    pub fn net_of_tree(&self, t: usize) -> usize {
        self.tree_net[t] as usize
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

    /// The subnet owning path `i`.
    pub fn subnet_of_path(&self, i: usize) -> usize {
        self.path_subnet[i] as usize
    }

    /// The tree owning path `i` (cached to avoid the double indirection in
    /// hot kernels).
    pub fn tree_of_path(&self, i: usize) -> usize {
        self.path_tree[i] as usize
    }

    /// Wirelength of path `i` (`WL_i` in Eq. 4).
    pub fn path_wirelength(&self, i: usize) -> f32 {
        self.path_wl[i]
    }

    /// Turning-point count of path `i` (`TP_i` in Eq. 5).
    pub fn path_turn_count(&self, i: usize) -> f32 {
        self.path_turns[i]
    }

    /// G-cell edges occupied by path `i` (raw [`dgr_grid::EdgeId`] values).
    pub fn path_edges(&self, i: usize) -> &[u32] {
        let lo = self.path_edge_offsets[i] as usize;
        let hi = self.path_edge_offsets[i + 1] as usize;
        &self.path_edge_ids[lo..hi]
    }

    /// Straight runs of path `i`, one per non-empty corner-to-corner
    /// segment in source-to-sink order: `(low, high)` raw
    /// [`dgr_grid::GcellId`] values of the segment's end cells, `low <
    /// high`. A run whose ends share a row covers the horizontal edges
    /// between them, otherwise the vertical ones; together the runs cover
    /// exactly the multiset [`Self::path_edges`] lists.
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

    /// Per-path tree index (the gather table for `q_tree(i)` in Eq. 9–12).
    pub fn path_tree_slice(&self) -> &[u32] {
        &self.path_tree
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

    /// CSR (offsets, edge ids) mapping each path to its g-cell edges.
    pub fn path_edge_csr(&self) -> (&[u32], &[u32]) {
        (&self.path_edge_offsets, &self.path_edge_ids)
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

    /// Approximate heap footprint of the arenas in bytes — the
    /// reproduction's analogue of the paper's GPU-memory axis (Fig. 5b).
    pub fn bytes(&self) -> usize {
        4 * (self.net_tree_offsets.len()
            + self.tree_net.len()
            + self.tree_subnet_offsets.len()
            + self.subnet_tree.len()
            + 4 * self.subnet_endpoints.len()
            + self.subnet_path_offsets.len()
            + self.path_subnet.len()
            + self.path_tree.len()
            + self.path_wl.len()
            + self.path_turns.len()
            + self.path_edge_offsets.len()
            + self.path_edge_ids.len()
            + self.path_run_offsets.len()
            + 2 * self.path_runs.len()
            + self.path_via_offsets.len()
            + self.path_via_cells.len())
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
        check_csr(
            "path→edge",
            &self.path_edge_offsets,
            self.path_edge_ids.len(),
        )?;
        check_csr("path→run", &self.path_run_offsets, self.path_runs.len())?;
        check_csr(
            "path→via",
            &self.path_via_offsets,
            self.path_via_cells.len(),
        )?;
        if self.path_subnet.len() != self.path_tree.len()
            || self.path_subnet.len() != self.path_wl.len()
            || self.path_subnet.len() != self.path_turns.len()
        {
            return Err(DagError::Inconsistent(
                "per-path arrays disagree on length".into(),
            ));
        }
        if self.path_run_offsets.len() != self.path_subnet.len() + 1
            || self.path_runs.iter().any(|&(lo, hi)| lo >= hi)
        {
            return Err(DagError::Inconsistent(
                "path runs must be grouped per path with low < high end cells".into(),
            ));
        }
        if self.subnet_endpoints.len() != self.subnet_tree.len() {
            return Err(DagError::Inconsistent(
                "subnet endpoint table disagrees with subnet count".into(),
            ));
        }
        // back-pointers agree with the CSR groupings
        for n in 0..self.num_nets() {
            for t in self.trees_of_net(n) {
                if self.net_of_tree(t) != n {
                    return Err(DagError::Inconsistent(format!(
                        "tree {t} back-pointer disagrees with net {n}"
                    )));
                }
            }
        }
        for t in 0..self.num_trees() {
            for s in self.subnets_of_tree(t) {
                if self.tree_of_subnet(s) != t {
                    return Err(DagError::Inconsistent(format!(
                        "subnet {s} back-pointer disagrees with tree {t}"
                    )));
                }
            }
        }
        for s in 0..self.num_subnets() {
            let range = self.paths_of_subnet(s);
            if range.is_empty() {
                return Err(DagError::Inconsistent(format!("subnet {s} has no paths")));
            }
            for i in range {
                if self.subnet_of_path(i) != s {
                    return Err(DagError::Inconsistent(format!(
                        "path {i} back-pointer disagrees with subnet {s}"
                    )));
                }
                if self.tree_of_path(i) != self.tree_of_subnet(s) {
                    return Err(DagError::Inconsistent(format!(
                        "path {i} tree cache disagrees with subnet {s}"
                    )));
                }
            }
        }
        for n in 0..self.num_nets() {
            if self.trees_of_net(n).is_empty() {
                return Err(DagError::EmptyNet { net: n });
            }
        }
        Ok(())
    }
}
