//! Dynamic-programming layer assignment (Section 4.6).
//!
//! Every 2D wire segment is assigned to a routing layer whose preferred
//! direction matches the segment. The assignment of one net is solved by
//! a tree DP over its segment graph: `dp[v][l]` is the optimal cost of
//! the subtree hanging off node `v` when the wire arriving at `v` sits on
//! layer `l`, combining
//!
//! * per-layer congestion (marginal overflow of the segment's edges on
//!   the candidate layer against the demand committed by earlier nets),
//! * via cost `|l_child − l_parent|` at every junction, and
//! * pin access cost `l` at pin nodes (pins live on the lowest metal).
//!
//! Nets are processed sequentially (largest first), committing per-layer
//! demand — the same greedy-sequential scheme CUGR2 uses. Via counts are
//! then measured exactly as the layer *span* at every node (a stack of
//! vias from the lowest to the highest layer touching the node).
//!
//! # The per-net cost table
//!
//! The congestion term of segment `s` on layer `ls` depends on the
//! segment's edges and on the demand earlier nets committed to `ls` —
//! not on the node the DP is at, nor on the parent layer `l` it is
//! trying. The DP asks for it once per `(node, l, child, ls)`, i.e.
//! `num_layers` times per (segment, layer), so `assign_net` walks each
//! segment's edges once into one flat list and prices every segment on
//! every layer running its way into one `segs × layers` table *before*
//! the DP, which then only looks prices up.
//!
//! Hoisting cannot change a bit of the result: a net's own demand is
//! committed in step 5, after its DP and its cycle closers have read
//! their last price, so every use within the net sees the same
//! `layer_demand`; and the table entry is computed by the same function
//! (`seg_price`: same edges in the same order, same `f32` operations)
//! the uses would have called. The DP's own sums — via term, then price,
//! then child subtree, added left to right — are untouched. The tests
//! keep a per-use pricing (`assign_net_per_use`) and demand an equal
//! [`Assigned3d`] on congested 2-, 5- and 9-layer designs.
//!
//! # The workspace
//!
//! Everything a net's assignment needs besides its result — the node
//! table, the segment list and its CSR adjacency, the edge list, the price
//! table, the DP's tables and stacks — lives in one [`Workspace`] that
//! [`assign_layers`] owns for the whole pass and every net overwrites, so
//! a net allocates only the [`Net3d::segments`] it returns. The oracle's
//! hooks, [`assign_net_dp`] and [`NetTopology::of_route`], run the same
//! code on a fresh workspace per call.

use dgr_core::RoutingSolution;
use dgr_grid::{Design, EdgeDir, EdgeId, Point, PointIndex, OVERFLOW_EPS};

use crate::layers::LayerModel;
use crate::PostError;

/// Configuration of the layer assignment DP.
#[derive(Debug, Clone, Copy)]
pub struct AssignConfig {
    /// Weight of marginal per-layer overflow in the DP cost.
    pub overflow_weight: f32,
    /// Weight of one via (one layer crossed) in the DP cost.
    pub via_weight: f32,
    /// Whether layer 0 routes horizontally.
    pub first_horizontal: bool,
}

impl Default for AssignConfig {
    fn default() -> Self {
        AssignConfig {
            overflow_weight: 500.0,
            via_weight: 4.0,
            first_horizontal: true,
        }
    }
}

/// The segment graph of one routed net, exposed so the differential
/// oracle (`dgr-oracle`) can re-derive the DP's search space
/// independently.
#[derive(Debug, Clone)]
pub struct NetTopology {
    /// Interned junction points, in first-appearance order.
    pub points: Vec<Point>,
    /// `(node_a, node_b, a, b)` per segment, in route order. Segment `i`
    /// here corresponds to `Net3d::segments[i]`.
    pub segs: Vec<(usize, usize, Point, Point)>,
    /// Whether the segment is part of the spanning tree the DP runs on
    /// (`false` = cycle closer, assigned greedily after the DP).
    pub in_tree: Vec<bool>,
}

impl NetTopology {
    /// Builds the segment graph of `route`: interns corner points as
    /// nodes, one segment per non-degenerate corner window, and marks a
    /// union-find spanning tree in segment order.
    pub fn of_route(route: &dgr_core::NetRoute) -> Self {
        let mut graph = SegGraph::default();
        graph.load(route, &[]);
        graph.into_topology()
    }
}

/// The segment graph of one net in buffers the next net reuses: what
/// [`NetTopology`] holds, plus which nodes are pins and the spanning
/// tree's adjacency.
#[derive(Default)]
struct SegGraph {
    nodes: PointIndex,
    segs: Vec<(usize, usize, Point, Point)>,
    in_tree: Vec<bool>,
    is_pin: Vec<bool>,
    /// CSR adjacency over the spanning tree: node `v` owns the `(segment,
    /// other node)` pairs `adj[adj_start[v]..adj_start[v + 1]]`, in
    /// segment order.
    adj_start: Vec<usize>,
    adj: Vec<(usize, usize)>,
    /// Per node: the union-find parent, then the adjacency fill cursor.
    scratch: Vec<usize>,
}

impl SegGraph {
    /// Builds the segment graph of `route`: interns corner points as
    /// nodes, one segment per non-degenerate corner window, and marks a
    /// union-find spanning tree in segment order.
    fn load(&mut self, route: &dgr_core::NetRoute, pins: &[Point]) {
        self.nodes.clear();
        self.segs.clear();
        for path in &route.paths {
            for w in path.corners.windows(2) {
                if w[0] == w[1] {
                    continue;
                }
                let na = self.nodes.intern(w[0]) as usize;
                let nb = self.nodes.intern(w[1]) as usize;
                self.segs.push((na, nb, w[0], w[1]));
            }
        }
        let n_nodes = self.nodes.points().len();
        self.in_tree.clear();
        self.in_tree.resize(self.segs.len(), false);
        let parent = &mut self.scratch;
        parent.clear();
        parent.extend(0..n_nodes);
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        self.adj_start.clear();
        self.adj_start.resize(n_nodes + 1, 0);
        for (si, &(na, nb, ..)) in self.segs.iter().enumerate() {
            let (ra, rb) = (find(parent, na), find(parent, nb));
            if ra != rb {
                parent[ra] = rb;
                self.in_tree[si] = true;
                self.adj_start[na + 1] += 1;
                self.adj_start[nb + 1] += 1;
            }
        }
        for v in 0..n_nodes {
            self.adj_start[v + 1] += self.adj_start[v];
        }
        let cursor = &mut self.scratch;
        cursor.copy_from_slice(&self.adj_start[..n_nodes]);
        self.adj.clear();
        self.adj.resize(self.adj_start[n_nodes], (0, 0));
        for (si, &(na, nb, ..)) in self.segs.iter().enumerate() {
            if self.in_tree[si] {
                self.adj[cursor[na]] = (si, nb);
                self.adj[cursor[nb]] = (si, na);
                cursor[na] += 1;
                cursor[nb] += 1;
            }
        }
        self.is_pin.clear();
        self.is_pin.resize(n_nodes, false);
        for &pin in pins {
            if let Some(v) = self.nodes.get(pin) {
                self.is_pin[v as usize] = true;
            }
        }
    }

    /// The spanning-tree segments at node `v`, as `(segment, other node)`.
    fn tree_segs_at(&self, v: usize) -> &[(usize, usize)] {
        &self.adj[self.adj_start[v]..self.adj_start[v + 1]]
    }

    fn into_topology(self) -> NetTopology {
        NetTopology {
            points: self.nodes.into_points(),
            segs: self.segs,
            in_tree: self.in_tree,
        }
    }
}

/// A wire segment placed on a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment3d {
    /// One endpoint.
    pub a: Point,
    /// The other endpoint.
    pub b: Point,
    /// Assigned layer.
    pub layer: u32,
}

/// One net's 3D realization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net3d {
    /// Net index in the input design.
    pub net: usize,
    /// Layer-assigned segments.
    pub segments: Vec<Segment3d>,
    /// Exact via count (sum of layer spans over the net's nodes).
    pub vias: u64,
}

/// The complete 3D assignment with its quality metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Assigned3d {
    /// Per-net results, in input order.
    pub nets: Vec<Net3d>,
    /// Total vias across nets (the paper's `# Vias` column).
    pub total_vias: u64,
    /// Number of (layer, edge) pairs whose demand exceeds the per-layer
    /// capacity share.
    pub overflowed_edges3d: usize,
    /// Total 3D overflow mass.
    pub total_overflow3d: f64,
    /// Peak per-(layer, edge) overflow.
    pub peak_overflow3d: f32,
    /// Nets touching at least one overflowed (layer, edge) — `n₁` in the
    /// Fig. 6 weighted-overflow score.
    pub overflowed_nets: usize,
}

/// Assigns layers to every net of `solution`.
///
/// 3D accounting covers wire demand; the 2D via-pressure term of Eq. (2)
/// has already shaped the 2D solution and is not double-counted here.
///
/// # Errors
///
/// * [`PostError::TooFewLayers`] if the design has < 2 layers,
/// * [`PostError::Grid`] if a route leaves the grid.
pub fn assign_layers(
    design: &Design,
    solution: &RoutingSolution,
    cfg: AssignConfig,
) -> Result<Assigned3d, PostError> {
    assign_layers_with(design, solution, cfg, assign_net)
}

/// The signature of [`assign_net`], which [`assign_layers_with`] takes as
/// a parameter so the tests can run the per-use pricing reference and a
/// fresh workspace per net through the same net order and 3D accounting.
type AssignNetFn = fn(
    &Design,
    &LayerModel,
    AssignConfig,
    &dgr_core::NetRoute,
    &[Point],
    &mut [Vec<f32>],
    &mut Workspace,
) -> Result<(Net3d, LayerPlan), PostError>;

fn assign_layers_with(
    design: &Design,
    solution: &RoutingSolution,
    cfg: AssignConfig,
    assign_net: AssignNetFn,
) -> Result<Assigned3d, PostError> {
    let _span = dgr_obs::span("post", "assign_layers");
    if design.num_layers < 2 {
        return Err(PostError::TooFewLayers {
            got: design.num_layers,
        });
    }
    let model = LayerModel::alternating(design.num_layers, cfg.first_horizontal);
    let grid = &design.grid;
    let num_edges = grid.num_edges();
    let num_layers = model.num_layers() as usize;
    let mut layer_demand = vec![vec![0.0f32; num_edges]; num_layers];

    // big nets first: they have the least flexibility per layer
    let mut order: Vec<usize> = (0..solution.routes.len()).collect();
    order.sort_by_cached_key(|&n| std::cmp::Reverse(solution.routes[n].wirelength()));

    let mut ws = Workspace::default();
    let mut nets: Vec<Option<Net3d>> = vec![None; solution.routes.len()];
    for &n in &order {
        let route = &solution.routes[n];
        let pins = &design.nets[route.net].pins;
        let (net3d, _) = assign_net(design, &model, cfg, route, pins, &mut layer_demand, &mut ws)?;
        nets[n] = Some(net3d);
    }
    let nets: Vec<Net3d> = nets.into_iter().map(|n| n.expect("assigned")).collect();

    // 3D overflow accounting: a layer carries only the edges running its
    // way, which are one run of ids
    let mut overflowed_edges3d = 0usize;
    let mut total_overflow3d = 0.0f64;
    let mut peak = 0.0f32;
    let mut over_flag = vec![vec![false; num_edges]; num_layers];
    for (l, dem) in layer_demand.iter().enumerate() {
        let dir = model.dir_of(l as u32);
        let along = match dir {
            EdgeDir::Horizontal => 0..grid.num_h_edges(),
            EdgeDir::Vertical => grid.num_h_edges()..num_edges,
        };
        for e in along {
            let cap = model.layer_capacity(design.capacity.capacity(EdgeId::new(e as u32)), dir);
            let over = dem[e] - cap;
            if over > OVERFLOW_EPS {
                overflowed_edges3d += 1;
                total_overflow3d += over as f64;
                peak = peak.max(over);
                over_flag[l][e] = true;
            }
        }
    }
    let total_vias = nets.iter().map(|n| n.vias).sum();
    let touches_overflow = |s: &Segment3d| {
        grid.segment_edges(s.a, s.b)
            .is_ok_and(|mut edges| edges.any(|e| over_flag[s.layer as usize][e.index()]))
    };
    let overflowed_nets = match overflowed_edges3d {
        0 => 0,
        _ => nets
            .iter()
            .filter(|net| net.segments.iter().any(touches_overflow))
            .count(),
    };

    Ok(Assigned3d {
        nets,
        total_vias,
        overflowed_edges3d,
        total_overflow3d,
        peak_overflow3d: peak,
        overflowed_nets,
    })
}

/// One net's layer assignment, with the DP internals the oracle checks.
#[derive(Debug, Clone)]
pub struct NetAssignment {
    /// The committed 3D realization (segment `i` = `topology.segs[i]`).
    pub net3d: Net3d,
    /// The segment graph the DP ran on.
    pub topology: NetTopology,
    /// `dp[root][root_layer]`: the optimum the DP claims over tree
    /// segments and pin-access vias. Cycle closers (assigned greedily
    /// after the DP) are *not* included.
    pub dp_cost: f32,
    /// The root layer chosen by the free minimization at the root node.
    pub root_layer: u32,
}

/// Runs the per-net layer-assignment DP against the demand committed in
/// `layer_demand` (one slice per layer, `grid.num_edges()` long each),
/// commits the chosen assignment into it, and returns the DP internals.
///
/// This is the oracle hook behind [`assign_layers`], which runs the same
/// steps per net in descending-wirelength order.
///
/// # Errors
///
/// * [`PostError::TooFewLayers`] if the design has < 2 layers,
/// * [`PostError::Grid`] if a route leaves the grid.
pub fn assign_net_dp(
    design: &Design,
    cfg: AssignConfig,
    route: &dgr_core::NetRoute,
    pins: &std::collections::HashSet<Point>,
    layer_demand: &mut [Vec<f32>],
) -> Result<NetAssignment, PostError> {
    if design.num_layers < 2 {
        return Err(PostError::TooFewLayers {
            got: design.num_layers,
        });
    }
    let model = LayerModel::alternating(design.num_layers, cfg.first_horizontal);
    let pins: Vec<Point> = pins.iter().copied().collect();
    let mut ws = Workspace::default();
    let (net3d, plan) = assign_net(design, &model, cfg, route, &pins, layer_demand, &mut ws)?;
    Ok(NetAssignment {
        net3d,
        topology: ws.graph.into_topology(),
        dp_cost: plan.dp_cost,
        root_layer: plan.root_layer,
    })
}

/// The scratch of one net's assignment, overwritten by the next net's.
#[derive(Default)]
struct Workspace {
    graph: SegGraph,
    seg_edges: SegEdges,
    /// `costs[si * num_layers + ls]`: the price of segment `si` on layer
    /// `ls` (module docs).
    costs: Vec<f32>,
    dp: DpTables,
    /// Per node: the lowest and highest layer of the segments ending there.
    touch: Vec<(u32, u32)>,
}

/// The grid edges and direction of every segment of one net, built once:
/// segment `si` owns `edges[start[si]..start[si + 1]]`.
#[derive(Default)]
struct SegEdges {
    edges: Vec<EdgeId>,
    start: Vec<usize>,
    dirs: Vec<EdgeDir>,
}

impl SegEdges {
    fn load(&mut self, grid: &dgr_grid::GcellGrid, graph: &SegGraph) -> Result<(), PostError> {
        self.edges.clear();
        self.start.clear();
        self.dirs.clear();
        for &(_, _, a, b) in &graph.segs {
            self.start.push(self.edges.len());
            grid.push_segment_edges(a, b, &mut self.edges)?;
            self.dirs.push(if a.y == b.y {
                EdgeDir::Horizontal
            } else {
                EdgeDir::Vertical
            });
        }
        self.start.push(self.edges.len());
        Ok(())
    }

    fn of_seg(&self, si: usize) -> &[EdgeId] {
        &self.edges[self.start[si]..self.start[si + 1]]
    }
}

/// Weighted marginal overflow of one more wire over `edges` (which run
/// along `dir`) on a layer whose committed demand is `demand`.
fn seg_price(
    design: &Design,
    model: &LayerModel,
    cfg: AssignConfig,
    edges: &[EdgeId],
    dir: EdgeDir,
    demand: &[f32],
) -> f32 {
    let mut cost = 0.0;
    for &e in edges {
        let cap = model.layer_capacity(design.capacity.capacity(e), dir);
        let d = demand[e.index()];
        cost += cfg.overflow_weight * ((d + 1.0 - cap).max(0.0) - (d - cap).max(0.0));
    }
    cost
}

fn assign_net(
    design: &Design,
    model: &LayerModel,
    cfg: AssignConfig,
    route: &dgr_core::NetRoute,
    pins: &[Point],
    layer_demand: &mut [Vec<f32>],
    ws: &mut Workspace,
) -> Result<(Net3d, LayerPlan), PostError> {
    // 1. segments, nodes and the spanning tree; every segment's edges
    ws.graph.load(route, pins);
    ws.seg_edges.load(&design.grid, &ws.graph)?;

    // Price every segment on every layer running its way, once. Steps
    // 2–4 only read `layer_demand` — it changes at the commit, step 5 —
    // so these are the values a per-use evaluation would produce.
    let num_layers = layer_demand.len();
    let costs = &mut ws.costs;
    costs.clear();
    costs.resize(ws.graph.segs.len() * num_layers, f32::INFINITY);
    for (si, &dir) in ws.seg_edges.dirs.iter().enumerate() {
        for ls in model.layers_of(dir) {
            costs[si * num_layers + ls as usize] = seg_price(
                design,
                model,
                cfg,
                ws.seg_edges.of_seg(si),
                dir,
                &layer_demand[ls as usize],
            );
        }
    }
    let seg_cost = |si: usize, ls: u32| costs[si * num_layers + ls as usize];

    let dirs = &ws.seg_edges.dirs;
    let plan = choose_layers(&ws.graph, dirs, model, cfg, &mut ws.dp, seg_cost);
    let net3d = commit_net(
        route.net,
        &ws.graph,
        &ws.seg_edges,
        &ws.dp.seg_layer,
        &mut ws.touch,
        layer_demand,
    );
    Ok((net3d, plan))
}

/// What the DP reports of one net beside the layers it chose.
struct LayerPlan {
    dp_cost: f32,
    root_layer: u32,
}

/// The tables and stacks of [`choose_layers`].
#[derive(Default)]
struct DpTables {
    /// `dp[v * num_layers + l]`
    dp: Vec<f32>,
    /// `choice[child_seg * num_layers + parent_layer]`: the chosen layer
    /// of that segment
    choice: Vec<u32>,
    visit_order: Vec<usize>,
    parent_seg: Vec<usize>,
    seen: Vec<bool>,
    stack: Vec<(usize, usize)>,
    /// Chosen layer per segment (tree segments by the DP, cycle closers
    /// greedily) — the result.
    seg_layer: Vec<u32>,
}

/// Steps 2–4: the tree DP over the segment graph, then the cycle closers,
/// into `tables.seg_layer`. `seg_cost(si, ls)` is the congestion price of
/// segment `si` on layer `ls` (asked only for layers running the segment's
/// way).
fn choose_layers(
    graph: &SegGraph,
    seg_dirs: &[EdgeDir],
    model: &LayerModel,
    cfg: AssignConfig,
    tables: &mut DpTables,
    seg_cost: impl Fn(usize, u32) -> f32,
) -> LayerPlan {
    let segs = &graph.segs;
    let in_tree = &graph.in_tree;
    let DpTables {
        dp,
        choice,
        visit_order,
        parent_seg,
        seen,
        stack,
        seg_layer,
    } = tables;
    seg_layer.clear();
    if segs.is_empty() {
        return LayerPlan {
            dp_cost: 0.0,
            root_layer: 0,
        };
    }
    // 2. the spanning tree's adjacency is the graph's (extras = cycle
    // closers)
    let n_nodes = graph.nodes.points().len();
    let num_layers = model.num_layers() as usize;

    // 3. tree DP from node 0 (post-order via explicit stack)
    const INF: f32 = f32::INFINITY;
    dp.clear();
    dp.resize(n_nodes * num_layers, 0.0);
    choice.clear();
    choice.resize(segs.len() * num_layers, 0);
    let root = 0usize;
    // iterative post-order
    visit_order.clear();
    parent_seg.clear();
    parent_seg.resize(n_nodes, usize::MAX);
    seen.clear();
    seen.resize(n_nodes, false);
    stack.clear();
    stack.push((root, usize::MAX));
    while let Some((v, pseg)) = stack.pop() {
        if seen[v] {
            continue;
        }
        seen[v] = true;
        parent_seg[v] = pseg;
        visit_order.push(v);
        for &(si, u) in graph.tree_segs_at(v) {
            if !seen[u] {
                stack.push((u, si));
            }
        }
    }
    for &v in visit_order.iter().rev() {
        let is_pin = graph.is_pin[v];
        for l in 0..num_layers {
            let mut cost = if is_pin {
                cfg.via_weight * l as f32
            } else {
                0.0
            };
            for &(si, u) in graph.tree_segs_at(v) {
                if parent_seg[u] != si {
                    continue; // u is v's parent through si
                }
                // segment si connects v down to child u
                let mut best = INF;
                let mut best_l = 0u32;
                for ls in model.layers_of(seg_dirs[si]) {
                    let c = cfg.via_weight * (ls as f32 - l as f32).abs()
                        + seg_cost(si, ls)
                        + dp[u * num_layers + ls as usize];
                    if c < best {
                        best = c;
                        best_l = ls;
                    }
                }
                choice[si * num_layers + l] = best_l;
                cost += best;
            }
            dp[v * num_layers + l] = cost;
        }
    }

    // 4. pick the root layer and backtrack
    let root_dp = &dp[root * num_layers..(root + 1) * num_layers];
    let root_l = (0..num_layers)
        .min_by(|&a, &b| root_dp[a].total_cmp(&root_dp[b]))
        .expect("≥2 layers") as u32;
    let dp_cost = root_dp[root_l as usize];
    seg_layer.resize(segs.len(), u32::MAX);
    stack.push((root, root_l as usize));
    while let Some((v, l)) = stack.pop() {
        for &(si, u) in graph.tree_segs_at(v) {
            if parent_seg[u] != si {
                continue;
            }
            let ls = choice[si * num_layers + l];
            seg_layer[si] = ls;
            stack.push((u, ls as usize));
        }
    }
    // cycle-closing extras: pick the cheapest layer against the incident
    // assigned layers
    let node_layer = |node: usize, seg_layer: &[u32]| -> u32 {
        graph
            .tree_segs_at(node)
            .iter()
            .map(|&(si, _)| seg_layer[si])
            .find(|&l| l != u32::MAX)
            .unwrap_or(0)
    };
    for si in 0..segs.len() {
        if in_tree[si] || seg_layer[si] != u32::MAX {
            continue;
        }
        let (na, nb, ..) = segs[si];
        let (la, lb) = (node_layer(na, seg_layer), node_layer(nb, seg_layer));
        let layers = model.layers_of(seg_dirs[si]);
        let mut best = INF;
        let mut best_l = layers.clone().next().expect("both directions have a layer");
        for ls in layers {
            let c = cfg.via_weight
                * ((ls as f32 - la as f32).abs() + (ls as f32 - lb as f32).abs())
                + seg_cost(si, ls);
            if c < best {
                best = c;
                best_l = ls;
            }
        }
        seg_layer[si] = best_l;
    }
    LayerPlan {
        dp_cost,
        root_layer: root_l,
    }
}

/// Step 5: commits the chosen layers' demand and counts vias exactly
/// (layer span per node, down to metal 0 at a pin).
fn commit_net(
    net: usize,
    graph: &SegGraph,
    seg_edges: &SegEdges,
    seg_layer: &[u32],
    touch: &mut Vec<(u32, u32)>,
    layer_demand: &mut [Vec<f32>],
) -> Net3d {
    touch.clear();
    touch.resize(graph.nodes.points().len(), (u32::MAX, 0));
    let mut segments = Vec::with_capacity(graph.segs.len());
    for (si, &(na, nb, a, b)) in graph.segs.iter().enumerate() {
        let layer = seg_layer[si];
        for e in seg_edges.of_seg(si) {
            layer_demand[layer as usize][e.index()] += 1.0;
        }
        segments.push(Segment3d { a, b, layer });
        for node in [na, nb] {
            let (lo, hi) = &mut touch[node];
            *lo = (*lo).min(layer);
            *hi = (*hi).max(layer);
        }
    }
    // every node ends a segment
    let mut vias = 0u64;
    for (&(lo, hi), &is_pin) in touch.iter().zip(&graph.is_pin) {
        let lo = if is_pin { 0 } else { lo };
        vias += (hi - lo) as u64;
    }
    Net3d {
        net,
        segments,
        vias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_core::{DgrConfig, DgrRouter, NetRoute, RoutePath};
    use dgr_grid::{CapacityBuilder, GcellGrid, Net};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pricing `assign_net`'s table replaced: every use of a
    /// segment's price recomputes it from the live demand.
    fn assign_net_per_use(
        design: &Design,
        model: &LayerModel,
        cfg: AssignConfig,
        route: &NetRoute,
        pins: &[Point],
        layer_demand: &mut [Vec<f32>],
        ws: &mut Workspace,
    ) -> Result<(Net3d, LayerPlan), PostError> {
        ws.graph.load(route, pins);
        ws.seg_edges.load(&design.grid, &ws.graph)?;
        let (seg_edges, demand): (&SegEdges, &[Vec<f32>]) = (&ws.seg_edges, layer_demand);
        let seg_cost = |si: usize, ls: u32| {
            let (edges, dir) = (seg_edges.of_seg(si), seg_edges.dirs[si]);
            seg_price(design, model, cfg, edges, dir, &demand[ls as usize])
        };
        let plan = choose_layers(&ws.graph, &seg_edges.dirs, model, cfg, &mut ws.dp, seg_cost);
        let net3d = commit_net(
            route.net,
            &ws.graph,
            &ws.seg_edges,
            &ws.dp.seg_layer,
            &mut ws.touch,
            layer_demand,
        );
        Ok((net3d, plan))
    }

    /// The oracle's hook — a fresh workspace, a hashed pin set — in the
    /// place of `assign_net`; the pass's own workspace goes unused.
    fn assign_net_fresh(
        design: &Design,
        _: &LayerModel,
        cfg: AssignConfig,
        route: &NetRoute,
        pins: &[Point],
        layer_demand: &mut [Vec<f32>],
        _: &mut Workspace,
    ) -> Result<(Net3d, LayerPlan), PostError> {
        let pins = pins.iter().copied().collect();
        let done = assign_net_dp(design, cfg, route, &pins, layer_demand)?;
        assert_eq!(
            done.topology.points,
            NetTopology::of_route(route).points,
            "net {}",
            route.net
        );
        let plan = LayerPlan {
            dp_cost: done.dp_cost,
            root_layer: done.root_layer,
        };
        Ok((done.net3d, plan))
    }

    /// A congested 12×12 design of 48 nets on `num_layers` layers, routed;
    /// net 0 carries both of its L-shapes, so its last segment closes a
    /// cycle.
    fn congested_case(case: usize, num_layers: u32) -> (Design, RoutingSolution) {
        let mut rng = StdRng::seed_from_u64(0xA551 + case as u64);
        // net 0 is routed by hand below; the rest by the router
        let mut nets = vec![Net::new("loop", vec![Point::new(1, 1), Point::new(6, 7)])];
        nets.extend((1..48).map(|i| {
            let pins = (0..rng.gen_range(2..=6))
                .map(|_| Point::new(rng.gen_range(0..12), rng.gen_range(0..12)))
                .collect();
            Net::new(format!("n{i}"), pins)
        }));
        let grid = GcellGrid::new(12, 12).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 2.0).build(&grid).unwrap();
        let d = Design::new(grid, cap, nets, num_layers).unwrap();
        let routed = DgrRouter::new(DgrConfig {
            iterations: 20,
            seed: case as u64,
            ..DgrConfig::default()
        })
        .route(&d)
        .unwrap();
        let mut routes = routed.routes;
        // both L-shapes at once: four segments, the last closes a cycle
        let corners = |via: Point| vec![Point::new(1, 1), via, Point::new(6, 7)];
        routes[0].paths = [Point::new(6, 1), Point::new(1, 7)]
            .map(|via| RoutePath {
                corners: corners(via),
            })
            .to_vec();
        assert_eq!(
            NetTopology::of_route(&routes[0]).in_tree,
            [true, true, true, false]
        );
        let sol = solution_for(&d, routes);
        (d, sol)
    }

    #[test]
    fn tabulated_prices_assign_exactly_like_per_use_prices() {
        for (case, num_layers) in [2u32, 5, 9, 2, 5, 9].into_iter().enumerate() {
            let (d, sol) = congested_case(case, num_layers);
            let cfg = AssignConfig::default();
            let tabulated = assign_layers_with(&d, &sol, cfg, assign_net).unwrap();
            let per_use = assign_layers_with(&d, &sol, cfg, assign_net_per_use).unwrap();
            assert_eq!(tabulated, per_use, "{num_layers} layers, case {case}");
            assert!(
                tabulated.overflowed_edges3d > 0,
                "{num_layers} layers, case {case}: not congested, prices never mattered"
            );
        }
    }

    #[test]
    fn one_reused_workspace_assigns_exactly_like_a_fresh_one_per_net() {
        for (case, num_layers) in [2u32, 5, 9, 2, 5, 9].into_iter().enumerate() {
            let (d, sol) = congested_case(case, num_layers);
            let cfg = AssignConfig::default();
            let reused = assign_layers(&d, &sol, cfg).unwrap();
            let fresh = assign_layers_with(&d, &sol, cfg, assign_net_fresh).unwrap();
            assert_eq!(reused, fresh, "{num_layers} layers, case {case}");
            assert!(reused.overflowed_nets > 0 && reused.total_vias > 0);
        }
    }

    #[test]
    fn a_net_past_the_scan_bound_is_assigned_like_its_hashed_topology() {
        // a comb: one spine and a tooth at every column, > SCAN_MAX nodes
        let teeth = PointIndex::SCAN_MAX as i32;
        let grid = GcellGrid::new(teeth as u32 + 2, 8).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let pins: Vec<Point> = (0..=teeth).map(|x| Point::new(x, 5)).collect();
        let d = Design::new(grid, cap, vec![Net::new("comb", pins)], 5).unwrap();
        let mut paths = vec![RoutePath {
            corners: (0..=teeth).map(|x| Point::new(x, 0)).collect(),
        }];
        paths.extend((0..=teeth).map(|x| RoutePath {
            corners: vec![Point::new(x, 0), Point::new(x, 5)],
        }));
        let route = NetRoute {
            net: 0,
            tree: 0,
            paths,
        };
        let topology = NetTopology::of_route(&route);
        assert!(topology.points.len() > 2 * PointIndex::SCAN_MAX);
        // first-appearance order: the spine left to right, then each tip
        assert_eq!(topology.points[teeth as usize], Point::new(teeth, 0));
        assert_eq!(topology.points[teeth as usize + 1], Point::new(0, 5));
        assert!(topology.in_tree.iter().all(|&t| t));
        let sol = solution_for(&d, vec![route]);
        let a = assign_layers(&d, &sol, AssignConfig::default()).unwrap();
        assert_eq!(a.nets[0].segments.len(), topology.segs.len());
        // every tip is a pin: each tooth pays its layer down to metal 0
        assert!(a.total_vias >= topology.segs.len() as u64 / 2);
    }

    fn design(tracks: f32, nets: Vec<Net>, layers: u32) -> Design {
        let grid = GcellGrid::new(10, 10).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        Design::new(grid, cap, nets, layers).unwrap()
    }

    fn solution_for(design: &Design, routes: Vec<NetRoute>) -> RoutingSolution {
        RoutingSolution::from_routes(design, routes).unwrap()
    }

    #[test]
    fn straight_horizontal_wire_lands_on_horizontal_layer() {
        let d = design(
            4.0,
            vec![Net::new("a", vec![Point::new(0, 0), Point::new(6, 0)])],
            5,
        );
        let sol = solution_for(
            &d,
            vec![NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 0), Point::new(6, 0)],
                }],
            }],
        );
        let a = assign_layers(&d, &sol, AssignConfig::default()).unwrap();
        assert_eq!(a.nets[0].segments.len(), 1);
        let s = a.nets[0].segments[0];
        assert_eq!(
            LayerModel::alternating(5, true).dir_of(s.layer),
            EdgeDir::Horizontal
        );
        // pins at both ends: vias = 2 × layer (down to metal 0)
        assert_eq!(a.nets[0].vias, 2 * s.layer as u64);
        assert_eq!(a.overflowed_edges3d, 0);
    }

    #[test]
    fn l_route_uses_two_layers_and_one_junction() {
        let d = design(
            4.0,
            vec![Net::new("a", vec![Point::new(0, 0), Point::new(5, 5)])],
            5,
        );
        let sol = solution_for(
            &d,
            vec![NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 0), Point::new(5, 0), Point::new(5, 5)],
                }],
            }],
        );
        let a = assign_layers(&d, &sol, AssignConfig::default()).unwrap();
        assert_eq!(a.nets[0].segments.len(), 2);
        let dirs: Vec<EdgeDir> = a.nets[0]
            .segments
            .iter()
            .map(|s| LayerModel::alternating(5, true).dir_of(s.layer))
            .collect();
        assert!(dirs.contains(&EdgeDir::Horizontal));
        assert!(dirs.contains(&EdgeDir::Vertical));
        // at least one via at the corner plus pin access
        assert!(a.nets[0].vias >= 1);
        assert_eq!(a.total_vias, a.nets[0].vias);
    }

    #[test]
    fn congestion_spreads_across_layers() {
        // 6 horizontal wires on the same row; 3 horizontal layers with
        // per-layer capacity 2 each → DP must use all three layers
        let nets: Vec<Net> = (0..6)
            .map(|i| Net::new(format!("n{i}"), vec![Point::new(0, 4), Point::new(9, 4)]))
            .collect();
        let d = design(6.0, nets, 5);
        let routes: Vec<NetRoute> = (0..6)
            .map(|net| NetRoute {
                net,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 4), Point::new(9, 4)],
                }],
            })
            .collect();
        let sol = solution_for(&d, routes);
        let a = assign_layers(&d, &sol, AssignConfig::default()).unwrap();
        let used: std::collections::HashSet<u32> =
            a.nets.iter().map(|n| n.segments[0].layer).collect();
        assert_eq!(used.len(), 3, "expected all horizontal layers used");
        assert_eq!(a.overflowed_edges3d, 0);
        assert_eq!(a.overflowed_nets, 0);
    }

    #[test]
    fn overflow_is_detected_when_unavoidable() {
        // 8 wires, 3 horizontal layers × capacity 2 = 6 → overflow
        let nets: Vec<Net> = (0..8)
            .map(|i| Net::new(format!("n{i}"), vec![Point::new(0, 4), Point::new(9, 4)]))
            .collect();
        let d = design(6.0, nets, 5);
        let routes: Vec<NetRoute> = (0..8)
            .map(|net| NetRoute {
                net,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 4), Point::new(9, 4)],
                }],
            })
            .collect();
        let sol = solution_for(&d, routes);
        let a = assign_layers(&d, &sol, AssignConfig::default()).unwrap();
        assert!(a.overflowed_edges3d > 0);
        assert!(a.overflowed_nets > 0);
        assert!(a.total_overflow3d > 0.0);
    }

    #[test]
    fn rejects_single_layer_design() {
        let d = design(1.0, vec![], 1);
        let sol = solution_for(&d, vec![]);
        assert!(matches!(
            assign_layers(&d, &sol, AssignConfig::default()),
            Err(PostError::TooFewLayers { got: 1 })
        ));
    }

    #[test]
    fn vertical_first_stack_flips_directions() {
        let d = design(
            4.0,
            vec![Net::new("a", vec![Point::new(0, 0), Point::new(6, 0)])],
            5,
        );
        let sol = solution_for(
            &d,
            vec![NetRoute {
                net: 0,
                tree: 0,
                paths: vec![RoutePath {
                    corners: vec![Point::new(0, 0), Point::new(6, 0)],
                }],
            }],
        );
        let cfg = AssignConfig {
            first_horizontal: false,
            ..AssignConfig::default()
        };
        let a = assign_layers(&d, &sol, cfg).unwrap();
        let s = a.nets[0].segments[0];
        // with a vertical-first stack, horizontal wires live on odd layers
        assert_eq!(
            LayerModel::alternating(5, false).dir_of(s.layer),
            EdgeDir::Horizontal
        );
        assert!(s.layer % 2 == 1);
    }

    #[test]
    fn single_pin_net_has_no_segments_or_vias() {
        let d = design(2.0, vec![Net::new("p", vec![Point::new(3, 3)])], 5);
        let sol = solution_for(
            &d,
            vec![NetRoute {
                net: 0,
                tree: 0,
                paths: vec![],
            }],
        );
        let a = assign_layers(&d, &sol, AssignConfig::default()).unwrap();
        assert!(a.nets[0].segments.is_empty());
        assert_eq!(a.total_vias, 0);
    }
}
