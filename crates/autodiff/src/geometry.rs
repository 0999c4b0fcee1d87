//! The index structure of one expected-cost problem as owned columns.

use std::ops::Range;

use crate::AutodiffError;

/// The groupings and per-path geometry of a routing forest, as columns:
/// the trees of each net, the sub-nets' trees and the paths of each
/// sub-net, and each path's weights, straight runs and turn cells.
///
/// The DAG forest stores these columns as one `Arc<Geometry>`, and a
/// [`crate::CostModel`] built over the forest holds the same `Arc`: the
/// geometry exists once. An offset column is a CSR partition — group
/// `g` covers `offsets[g]..offsets[g + 1]` — and starts at 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    /// CSR offsets grouping trees by net (softmax groups of `q`).
    pub net_tree_offsets: Vec<u32>,
    /// The tree owning each sub-net.
    pub subnet_tree: Vec<u32>,
    /// CSR offsets grouping paths by sub-net (softmax groups of `p`).
    pub subnet_path_offsets: Vec<u32>,
    /// Wirelength of each path (`WL_i`).
    pub path_wl: Vec<f32>,
    /// Turning-point count of each path (`TP_i`).
    pub path_turns: Vec<f32>,
    /// CSR offsets grouping runs by path.
    pub path_run_offsets: Vec<u32>,
    /// Each straight run as the difference-array slots of its two end
    /// cells, low first: the cell ids of a run along one row, `cells +`
    /// the cell ids of a run down one column (cells numbered row-major,
    /// `cells` of them).
    pub path_runs: Vec<(u32, u32)>,
    /// CSR offsets grouping turn cells by path.
    pub path_via_offsets: Vec<u32>,
    /// The cells where each path turns.
    pub path_via_cells: Vec<u32>,
}

impl Default for Geometry {
    /// The geometry of no nets: every offset column starts its CSR at 0.
    fn default() -> Self {
        Geometry {
            net_tree_offsets: vec![0],
            subnet_tree: Vec::new(),
            subnet_path_offsets: vec![0],
            path_wl: Vec::new(),
            path_turns: Vec::new(),
            path_run_offsets: vec![0],
            path_runs: Vec::new(),
            path_via_offsets: vec![0],
            path_via_cells: Vec::new(),
        }
    }
}

fn group(offsets: &[u32], g: usize) -> Range<usize> {
    offsets[g] as usize..offsets[g + 1] as usize
}

impl Geometry {
    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_tree_offsets.len() - 1
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        *self.net_tree_offsets.last().expect("offsets start at 0") as usize
    }

    /// Number of paths.
    pub fn num_paths(&self) -> usize {
        self.path_wl.len()
    }

    /// The trees of net `n`, as a tree-index range.
    pub fn trees_of_net(&self, n: usize) -> Range<usize> {
        group(&self.net_tree_offsets, n)
    }

    /// The paths of sub-net `s`, as a path-index range.
    pub fn paths_of_subnet(&self, s: usize) -> Range<usize> {
        group(&self.subnet_path_offsets, s)
    }

    /// The runs of path `i`, in slot form (see [`Self::path_runs`]).
    pub fn runs_of_path(&self, i: usize) -> &[(u32, u32)] {
        &self.path_runs[group(&self.path_run_offsets, i)]
    }

    /// The cells where path `i` turns.
    pub fn vias_of_path(&self, i: usize) -> &[u32] {
        &self.path_via_cells[group(&self.path_via_offsets, i)]
    }

    /// Heap bytes the columns hold, capacity counted.
    pub fn bytes(&self) -> usize {
        fn held<T>(column: &Vec<T>) -> usize {
            column.capacity() * std::mem::size_of::<T>()
        }
        held(&self.net_tree_offsets)
            + held(&self.subnet_tree)
            + held(&self.subnet_path_offsets)
            + held(&self.path_wl)
            + held(&self.path_turns)
            + held(&self.path_run_offsets)
            + held(&self.path_runs)
            + held(&self.path_via_offsets)
            + held(&self.path_via_cells)
    }

    /// Checks the columns against each other and against a `width ×
    /// height` grid.
    ///
    /// # Errors
    ///
    /// Returns an [`AutodiffError`] naming the first offset column that is
    /// not a CSR partition, column of the wrong length, index outside its
    /// target, or run that is not a non-empty stretch of one row or one
    /// column.
    pub fn check(&self, width: usize, height: usize) -> Result<(), AutodiffError> {
        let cells = width * height;
        let trees = csr(&self.net_tree_offsets)?;
        let paths = csr(&self.subnet_path_offsets)?;
        expect_len(self.subnet_tree.len(), self.subnet_path_offsets.len() - 1)?;
        check_indices(&self.subnet_tree, trees)?;
        expect_len(self.path_wl.len(), paths)?;
        expect_len(self.path_turns.len(), paths)?;
        expect_len(self.path_run_offsets.len(), paths + 1)?;
        expect_len(csr(&self.path_run_offsets)?, self.path_runs.len())?;
        expect_len(self.path_via_offsets.len(), paths + 1)?;
        expect_len(csr(&self.path_via_offsets)?, self.path_via_cells.len())?;
        check_indices(&self.path_via_cells, cells)?;
        for &(low, high) in &self.path_runs {
            let (a, b) = (low as usize, high as usize);
            let straight = low < high
                && if a >= cells {
                    b < 2 * cells && (b - a) % width == 0
                } else {
                    b < cells && a / width == b / width
                };
            if !straight {
                return Err(AutodiffError::BadRun { low, high });
            }
        }
        Ok(())
    }

    /// The rows `keep_tree` and `keep_path` flag, with the sub-nets of
    /// the trees kept: every column sized to its length, trees renumbered
    /// in order.
    pub(crate) fn live_rows(&self, keep_tree: &[bool], keep_path: &[bool]) -> Geometry {
        // how many trees are kept before each tree, and in all
        let mut before = Vec::with_capacity(keep_tree.len() + 1);
        before.push(0);
        for &k in keep_tree {
            before.push(before[before.len() - 1] + u32::from(k));
        }
        let subnets = || {
            let tree = |&(_, &t): &(usize, &u32)| keep_tree[t as usize];
            self.subnet_tree.iter().enumerate().filter(tree)
        };
        let live = |s: usize| {
            keep_path[self.paths_of_subnet(s)]
                .iter()
                .filter(|&&k| k)
                .count()
        };
        let (path_run_offsets, path_runs) =
            kept_groups(&self.path_run_offsets, &self.path_runs, keep_path);
        let (path_via_offsets, path_via_cells) =
            kept_groups(&self.path_via_offsets, &self.path_via_cells, keep_path);
        Geometry {
            net_tree_offsets: exact(self.net_tree_offsets.iter().map(|&o| before[o as usize])),
            subnet_tree: exact(subnets().map(|(_, &t)| before[t as usize])),
            subnet_path_offsets: exact(ends(subnets().map(|(s, _)| live(s)))),
            path_wl: exact(kept(&self.path_wl, keep_path)),
            path_turns: exact(kept(&self.path_turns, keep_path)),
            path_run_offsets,
            path_runs,
            path_via_offsets,
            path_via_cells,
        }
    }
}

/// The items, in a column of exactly their number.
fn exact<T>(items: impl Iterator<Item = T> + Clone) -> Vec<T> {
    let mut column = Vec::with_capacity(items.clone().count());
    column.extend(items);
    column
}

/// The elements of `v` whose flag is set, in order.
fn kept<'a, T: Copy>(v: &'a [T], keep: &'a [bool]) -> impl Iterator<Item = T> + Clone + 'a {
    v.iter().zip(keep).filter(|(_, &k)| k).map(|(x, _)| *x)
}

/// The CSR offsets of groups of these lengths.
fn ends(lens: impl Iterator<Item = usize> + Clone) -> impl Iterator<Item = u32> + Clone {
    let end = lens.scan(0, |end, len| {
        *end += len as u32;
        Some(*end)
    });
    std::iter::once(0).chain(end)
}

/// The groups of `offsets` whose flag is set, with their elements in
/// `data`: new offsets, new elements.
fn kept_groups<T: Copy>(offsets: &[u32], data: &[T], keep: &[bool]) -> (Vec<u32>, Vec<T>) {
    let groups = || {
        (0..keep.len())
            .filter(|&g| keep[g])
            .map(|g| group(offsets, g))
    };
    let elements = groups().flat_map(|r| &data[r]).copied();
    (exact(ends(groups().map(|r| r.len()))), exact(elements))
}

/// The last offset of a CSR column that starts at 0 and never falls.
fn csr(offsets: &[u32]) -> Result<usize, AutodiffError> {
    match offsets {
        [] => Err(AutodiffError::BadSegments("empty offsets".into())),
        [first, ..] if *first != 0 => {
            Err(AutodiffError::BadSegments("offsets must start at 0".into()))
        }
        _ if offsets.windows(2).any(|w| w[0] > w[1]) => {
            Err(AutodiffError::BadSegments("offsets not monotone".into()))
        }
        [.., last] => Ok(*last as usize),
    }
}

pub(crate) fn expect_len(left: usize, right: usize) -> Result<(), AutodiffError> {
    if left == right {
        Ok(())
    } else {
        Err(AutodiffError::ShapeMismatch { left, right })
    }
}

fn check_indices(idx: &[u32], len: usize) -> Result<(), AutodiffError> {
    match idx.iter().find(|&&i| i as usize >= len) {
        Some(&index) => Err(AutodiffError::IndexOutOfRange { index, len }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_that_are_not_csr_are_rejected() {
        assert_eq!(Geometry::default().check(2, 2), Ok(()));
        for offsets in [vec![], vec![1, 2], vec![0, 5, 3]] {
            let geometry = Geometry {
                net_tree_offsets: offsets.clone(),
                ..Geometry::default()
            };
            let checked = geometry.check(2, 2);
            assert!(
                matches!(checked, Err(AutodiffError::BadSegments(_))),
                "{offsets:?}: {checked:?}"
            );
        }
    }
}
