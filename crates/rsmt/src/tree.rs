//! The routing-tree data structure shared by every tree source.

use dgr_grid::Point;

use crate::RsmtError;

/// A topology over a net's pins: pins plus optional Steiner points,
/// connected by tree edges.
///
/// Tree edges are *virtual*: an edge `(u, v)` means "these two points form a
/// 2-pin sub-net" and is later realized by a pattern-routing path. The tree
/// [`length`](RoutingTree::length) is therefore the sum of Manhattan
/// distances over edges — the wirelength any monotone realization of the
/// edges achieves.
///
/// Invariants (checked by [`RoutingTree::validate`]):
/// * `edges.len() == nodes.len() − 1` and the edge set is connected
///   (i.e. the structure is a tree),
/// * the first [`num_pins`](RoutingTree::num_pins) nodes are exactly the
///   net's distinct pins,
/// * no two nodes share a position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RoutingTree {
    nodes: Vec<Point>,
    num_pins: usize,
    edges: Vec<(u32, u32)>,
}

impl RoutingTree {
    /// Creates a tree from raw parts, normalizing it on the way in:
    /// duplicate-position nodes are merged, non-pin nodes of degree ≤ 2 are
    /// spliced out, and edges are canonically ordered.
    ///
    /// The first `num_pins` entries of `nodes` must be the pins.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `num_pins > nodes.len()`.
    pub fn from_parts(nodes: Vec<Point>, num_pins: usize, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(num_pins <= nodes.len());
        let mut tree = RoutingTree {
            nodes,
            num_pins,
            edges,
        };
        tree.merge_duplicate_nodes();
        tree.splice_trivial_steiner();
        tree.canonicalize();
        tree
    }

    /// A tree over a single point (a local net): no edges.
    pub fn singleton(p: Point) -> Self {
        RoutingTree {
            nodes: vec![p],
            num_pins: 1,
            edges: Vec::new(),
        }
    }

    /// All node positions; pins first, then Steiner points.
    pub fn nodes(&self) -> &[Point] {
        &self.nodes
    }

    /// Number of pin nodes (a prefix of [`nodes`](RoutingTree::nodes)).
    pub fn num_pins(&self) -> usize {
        self.num_pins
    }

    /// Steiner (non-pin) node positions.
    pub fn steiner_points(&self) -> &[Point] {
        &self.nodes[self.num_pins..]
    }

    /// Tree edges as index pairs into [`nodes`](RoutingTree::nodes).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Total Manhattan length over all edges.
    pub fn length(&self) -> u64 {
        self.edges
            .iter()
            .map(|&(a, b)| self.nodes[a as usize].manhattan_distance(self.nodes[b as usize]) as u64)
            .sum()
    }

    /// The 2-pin sub-nets induced by the tree topology, as point pairs.
    pub fn subnets(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.edges
            .iter()
            .map(move |&(a, b)| (self.nodes[a as usize], self.nodes[b as usize]))
    }

    /// Degree of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (via the debug assert below).
    pub fn degree(&self, i: usize) -> usize {
        debug_assert!(i < self.nodes.len());
        self.edges
            .iter()
            .filter(|&&(a, b)| a as usize == i || b as usize == i)
            .count()
    }

    /// Checks the tree invariants.
    ///
    /// # Errors
    ///
    /// Returns [`RsmtError::InvalidTree`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), RsmtError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(RsmtError::InvalidTree("empty node set".into()));
        }
        if self.edges.len() != n - 1 {
            return Err(RsmtError::InvalidTree(format!(
                "{} nodes but {} edges",
                n,
                self.edges.len()
            )));
        }
        // connectivity via union-find
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(a, b) in &self.edges {
            let (a, b) = (a as usize, b as usize);
            if a >= n || b >= n {
                return Err(RsmtError::InvalidTree("edge index out of range".into()));
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                return Err(RsmtError::InvalidTree("cycle detected".into()));
            }
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        for i in 1..n {
            if find(&mut parent, i) != root {
                return Err(RsmtError::InvalidTree("disconnected".into()));
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(n);
        for p in &self.nodes {
            if !seen.insert(*p) {
                return Err(RsmtError::InvalidTree(format!("duplicate node at {p}")));
            }
        }
        Ok(())
    }

    /// A canonical fingerprint of the topology: the sorted multiset of
    /// subnet endpoint pairs. Trees with the same fingerprint induce the
    /// same 2-pin sub-nets and are interchangeable as DAG candidates.
    pub fn fingerprint(&self) -> Vec<(Point, Point)> {
        let mut subnets: Vec<(Point, Point)> = self
            .subnets()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        subnets.sort_unstable();
        subnets
    }

    fn merge_duplicate_nodes(&mut self) {
        use std::collections::HashMap;
        let mut first_at: HashMap<Point, u32> = HashMap::new();
        let mut remap: Vec<u32> = Vec::with_capacity(self.nodes.len());
        let mut kept: Vec<Point> = Vec::with_capacity(self.nodes.len());
        let mut kept_pins = 0usize;
        for (i, &p) in self.nodes.iter().enumerate() {
            match first_at.get(&p) {
                Some(&j) => remap.push(j),
                None => {
                    let j = kept.len() as u32;
                    first_at.insert(p, j);
                    kept.push(p);
                    remap.push(j);
                    if i < self.num_pins {
                        kept_pins += 1;
                    }
                }
            }
        }
        if kept.len() == self.nodes.len() {
            return;
        }
        // Remap edges, dropping self-loops and duplicate edges.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(self.edges.len());
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &self.edges {
            let (a, b) = (remap[a as usize], remap[b as usize]);
            if a == b {
                continue;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            if seen.insert(key) {
                edges.push(key);
            }
        }
        self.nodes = kept;
        self.num_pins = kept_pins;
        self.edges = edges;
        // Merging can create a multigraph that, deduplicated, leaves extra
        // edges forming cycles; strip them with a spanning pass.
        self.keep_spanning_subset();
    }

    fn keep_spanning_subset(&mut self) {
        let n = self.nodes.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        self.edges.retain(|&(a, b)| {
            let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
            if ra == rb {
                false
            } else {
                parent[ra] = rb;
                true
            }
        });
    }

    /// Removes non-pin nodes of degree ≤ 2. Degree-2 Steiner nodes are
    /// spliced (their two edges fused); degree-1 and degree-0 Steiner nodes
    /// are dropped.
    fn splice_trivial_steiner(&mut self) {
        loop {
            let n = self.nodes.len();
            let mut degree = vec![0usize; n];
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
            for &(a, b) in &self.edges {
                degree[a as usize] += 1;
                degree[b as usize] += 1;
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
            let victim = (self.num_pins..n).find(|&i| degree[i] <= 2);
            let Some(v) = victim else { break };
            let neighbors = adj[v].clone();
            self.edges
                .retain(|&(a, b)| a as usize != v && b as usize != v);
            if neighbors.len() == 2 && neighbors[0] != neighbors[1] {
                self.edges.push((neighbors[0], neighbors[1]));
            }
            // swap-remove node v, fixing indices of the moved node
            let last = (self.nodes.len() - 1) as u32;
            self.nodes.swap_remove(v);
            if v as u32 != last {
                for e in &mut self.edges {
                    if e.0 == last {
                        e.0 = v as u32;
                    }
                    if e.1 == last {
                        e.1 = v as u32;
                    }
                }
            }
        }
    }

    fn canonicalize(&mut self) {
        for e in &mut self.edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        self.edges.sort_unstable();
    }
}

impl std::fmt::Display for RoutingTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RoutingTree[{} pins, {} steiner, len {}]",
            self.num_pins,
            self.nodes.len() - self.num_pins,
            self.length()
        )
    }
}

/// Deduplicates a pin list, preserving first-seen order.
pub fn dedup_pins(pins: &[Point]) -> Vec<Point> {
    let mut seen = std::collections::HashSet::with_capacity(pins.len());
    pins.iter().copied().filter(|p| seen.insert(*p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_tree_is_valid() {
        let t = RoutingTree::singleton(Point::new(3, 3));
        t.validate().unwrap();
        assert_eq!(t.length(), 0);
        assert_eq!(t.subnets().count(), 0);
    }

    #[test]
    fn two_pin_tree() {
        let t = RoutingTree::from_parts(vec![Point::new(0, 0), Point::new(3, 4)], 2, vec![(0, 1)]);
        t.validate().unwrap();
        assert_eq!(t.length(), 7);
        assert_eq!(t.subnets().count(), 1);
    }

    #[test]
    fn splice_removes_degree_two_steiner() {
        // pin — steiner — pin collinear chain collapses to one edge
        let t = RoutingTree::from_parts(
            vec![Point::new(0, 0), Point::new(4, 0), Point::new(2, 0)],
            2,
            vec![(0, 2), (2, 1)],
        );
        t.validate().unwrap();
        assert_eq!(t.nodes().len(), 2);
        assert_eq!(t.edges(), &[(0, 1)]);
        assert_eq!(t.length(), 4);
    }

    #[test]
    fn degree_three_steiner_survives() {
        let t = RoutingTree::from_parts(
            vec![
                Point::new(0, 2),
                Point::new(4, 2),
                Point::new(2, 0),
                Point::new(2, 2), // steiner
            ],
            3,
            vec![(0, 3), (1, 3), (2, 3)],
        );
        t.validate().unwrap();
        assert_eq!(t.steiner_points(), &[Point::new(2, 2)]);
        assert_eq!(t.length(), 2 + 2 + 2);
    }

    #[test]
    fn duplicate_nodes_are_merged() {
        let t = RoutingTree::from_parts(
            vec![Point::new(0, 0), Point::new(1, 1), Point::new(0, 0)],
            2,
            vec![(0, 1), (2, 1)],
        );
        t.validate().unwrap();
        assert_eq!(t.nodes().len(), 2);
    }

    #[test]
    fn validate_rejects_cycle() {
        let t = RoutingTree {
            nodes: vec![Point::new(0, 0), Point::new(1, 0), Point::new(0, 1)],
            num_pins: 3,
            edges: vec![(0, 1), (1, 2), (0, 2)],
        };
        assert!(matches!(t.validate(), Err(RsmtError::InvalidTree(_))));
    }

    #[test]
    fn validate_rejects_disconnected() {
        let t = RoutingTree {
            nodes: vec![
                Point::new(0, 0),
                Point::new(1, 0),
                Point::new(5, 5),
                Point::new(6, 5),
            ],
            num_pins: 4,
            edges: vec![(0, 1), (2, 3), (0, 1)],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn fingerprint_ignores_edge_order_and_direction() {
        let a = RoutingTree::from_parts(
            vec![Point::new(0, 0), Point::new(2, 2), Point::new(4, 0)],
            3,
            vec![(0, 1), (1, 2)],
        );
        let b = RoutingTree::from_parts(
            vec![Point::new(4, 0), Point::new(2, 2), Point::new(0, 0)],
            3,
            vec![(1, 0), (2, 1)],
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn dedup_preserves_order() {
        let pins = [
            Point::new(1, 1),
            Point::new(2, 2),
            Point::new(1, 1),
            Point::new(3, 3),
        ];
        assert_eq!(
            dedup_pins(&pins),
            vec![Point::new(1, 1), Point::new(2, 2), Point::new(3, 3)]
        );
    }
}
