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

use std::collections::HashMap;

use dgr_core::RoutingSolution;
use dgr_grid::{Design, EdgeDir, Point, OVERFLOW_EPS};

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
        let mut node_of: HashMap<Point, usize> = HashMap::new();
        let mut points: Vec<Point> = Vec::new();
        let mut segs: Vec<(usize, usize, Point, Point)> = Vec::new();
        let intern = |p: Point, points: &mut Vec<Point>, node_of: &mut HashMap<Point, usize>| {
            *node_of.entry(p).or_insert_with(|| {
                points.push(p);
                points.len() - 1
            })
        };
        for path in &route.paths {
            for w in path.corners.windows(2) {
                if w[0] == w[1] {
                    continue;
                }
                let na = intern(w[0], &mut points, &mut node_of);
                let nb = intern(w[1], &mut points, &mut node_of);
                segs.push((na, nb, w[0], w[1]));
            }
        }
        let n_nodes = points.len();
        let mut in_tree = vec![false; segs.len()];
        let mut parent: Vec<usize> = (0..n_nodes).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for (si, &(na, nb, ..)) in segs.iter().enumerate() {
            let (ra, rb) = (find(&mut parent, na), find(&mut parent, nb));
            if ra != rb {
                parent[ra] = rb;
                in_tree[si] = true;
            }
        }
        NetTopology {
            points,
            segs,
            in_tree,
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
/// a parameter so the tests can run the per-use pricing reference through
/// the same net order and 3D accounting.
type AssignNetFn = fn(
    &Design,
    &LayerModel,
    AssignConfig,
    &dgr_core::NetRoute,
    &std::collections::HashSet<Point>,
    &mut [Vec<f32>],
) -> Result<NetAssignment, PostError>;

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
    order.sort_by_key(|&n| std::cmp::Reverse(solution.routes[n].wirelength()));

    let mut nets: Vec<Option<Net3d>> = vec![None; solution.routes.len()];
    for &n in &order {
        let route = &solution.routes[n];
        let pins: std::collections::HashSet<Point> =
            design.nets[route.net].pins.iter().copied().collect();
        let assignment = assign_net(design, &model, cfg, route, &pins, &mut layer_demand)?;
        nets[n] = Some(assignment.net3d);
    }
    let nets: Vec<Net3d> = nets.into_iter().map(|n| n.expect("assigned")).collect();

    // 3D overflow accounting
    let mut overflowed_edges3d = 0usize;
    let mut total_overflow3d = 0.0f64;
    let mut peak = 0.0f32;
    let mut over_flag = vec![vec![false; num_edges]; num_layers];
    for (l, dem) in layer_demand.iter().enumerate() {
        let dir = model.dir_of(l as u32);
        for e in grid.edge_ids() {
            if grid.edge_dir(e) != dir {
                continue;
            }
            let cap = model.layer_capacity(design.capacity.capacity(e), dir);
            let over = dem[e.index()] - cap;
            if over > OVERFLOW_EPS {
                overflowed_edges3d += 1;
                total_overflow3d += over as f64;
                peak = peak.max(over);
                over_flag[l][e.index()] = true;
            }
        }
    }
    let total_vias = nets.iter().map(|n| n.vias).sum();
    let touches_overflow = |s: &Segment3d| {
        grid.segment_edges(s.a, s.b)
            .is_ok_and(|mut edges| edges.any(|e| over_flag[s.layer as usize][e.index()]))
    };
    let overflowed_nets = nets
        .iter()
        .filter(|net| net.segments.iter().any(touches_overflow))
        .count();

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
/// This is the oracle hook behind [`assign_layers`], which calls it per
/// net in descending-wirelength order.
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
    assign_net(design, &model, cfg, route, pins, layer_demand)
}

/// The grid edges and direction of every segment of one net, built once:
/// segment `si` owns `edges[start[si]..start[si + 1]]`.
struct SegEdges {
    edges: Vec<dgr_grid::EdgeId>,
    start: Vec<usize>,
    dirs: Vec<EdgeDir>,
}

impl SegEdges {
    fn of(grid: &dgr_grid::GcellGrid, topology: &NetTopology) -> Result<Self, PostError> {
        let mut edges = Vec::new();
        let mut start = Vec::with_capacity(topology.segs.len() + 1);
        let mut dirs = Vec::with_capacity(topology.segs.len());
        for &(_, _, a, b) in &topology.segs {
            start.push(edges.len());
            grid.push_segment_edges(a, b, &mut edges)?;
            dirs.push(if a.y == b.y {
                EdgeDir::Horizontal
            } else {
                EdgeDir::Vertical
            });
        }
        start.push(edges.len());
        Ok(SegEdges { edges, start, dirs })
    }

    fn of_seg(&self, si: usize) -> &[dgr_grid::EdgeId] {
        &self.edges[self.start[si]..self.start[si + 1]]
    }
}

/// Weighted marginal overflow of one more wire over `edges` (which run
/// along `dir`) on a layer whose committed demand is `demand`.
fn seg_price(
    design: &Design,
    model: &LayerModel,
    cfg: AssignConfig,
    edges: &[dgr_grid::EdgeId],
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
    pins: &std::collections::HashSet<Point>,
    layer_demand: &mut [Vec<f32>],
) -> Result<NetAssignment, PostError> {
    // 1. segments, nodes and the spanning tree; every segment's edges
    let topology = NetTopology::of_route(route);
    let seg_edges = SegEdges::of(&design.grid, &topology)?;

    // Price every segment on every layer running its way, once. Steps
    // 2–4 only read `layer_demand` — it changes at the commit, step 5 —
    // so these are the values a per-use evaluation would produce.
    let num_layers = layer_demand.len();
    let mut costs = vec![f32::INFINITY; topology.segs.len() * num_layers];
    for (si, &dir) in seg_edges.dirs.iter().enumerate() {
        for ls in model.layers_of(dir) {
            costs[si * num_layers + ls as usize] = seg_price(
                design,
                model,
                cfg,
                seg_edges.of_seg(si),
                dir,
                &layer_demand[ls as usize],
            );
        }
    }
    let seg_cost = |si: usize, ls: u32| costs[si * num_layers + ls as usize];

    let plan = choose_layers(&topology, &seg_edges.dirs, model, cfg, pins, seg_cost);
    Ok(commit_net(
        route.net,
        topology,
        &seg_edges,
        plan,
        pins,
        layer_demand,
    ))
}

/// The DP's decision for one net.
struct LayerPlan {
    /// Chosen layer per segment (tree segments by the DP, cycle closers
    /// greedily).
    seg_layer: Vec<u32>,
    dp_cost: f32,
    root_layer: u32,
}

/// Steps 2–4: the tree DP over the segment graph, then the cycle closers.
/// `seg_cost(si, ls)` is the congestion price of segment `si` on layer
/// `ls` (asked only for layers running the segment's way).
fn choose_layers(
    topology: &NetTopology,
    seg_dirs: &[EdgeDir],
    model: &LayerModel,
    cfg: AssignConfig,
    pins: &std::collections::HashSet<Point>,
    seg_cost: impl Fn(usize, u32) -> f32,
) -> LayerPlan {
    let points = &topology.points;
    let segs = &topology.segs;
    let in_tree = &topology.in_tree;
    if segs.is_empty() {
        return LayerPlan {
            seg_layer: Vec::new(),
            dp_cost: 0.0,
            root_layer: 0,
        };
    }
    // 2. adjacency over the spanning tree (extras = cycle closers)
    let n_nodes = points.len();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_nodes]; // (seg, other)
    for (si, &(na, nb, ..)) in segs.iter().enumerate() {
        if in_tree[si] {
            adj[na].push((si, nb));
            adj[nb].push((si, na));
        }
    }
    let num_layers = model.num_layers() as usize;

    // 3. tree DP from node 0 (post-order via explicit stack)
    const INF: f32 = f32::INFINITY;
    // dp[v * num_layers + l]
    let mut dp = vec![0.0f32; n_nodes * num_layers];
    // choice[child_seg * num_layers + parent_layer] = chosen layer of that
    // segment
    let mut choice = vec![0u32; segs.len() * num_layers];
    let root = 0usize;
    // iterative post-order
    let mut visit_order = Vec::with_capacity(n_nodes);
    let mut parent_seg = vec![usize::MAX; n_nodes];
    {
        let mut stack = vec![(root, usize::MAX)];
        let mut seen = vec![false; n_nodes];
        while let Some((v, pseg)) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            parent_seg[v] = pseg;
            visit_order.push(v);
            for &(si, u) in &adj[v] {
                if !seen[u] {
                    stack.push((u, si));
                }
            }
        }
    }
    for &v in visit_order.iter().rev() {
        let is_pin = pins.contains(&points[v]);
        for l in 0..num_layers {
            let mut cost = if is_pin {
                cfg.via_weight * l as f32
            } else {
                0.0
            };
            for &(si, u) in &adj[v] {
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
    let mut seg_layer = vec![u32::MAX; segs.len()];
    let mut stack = vec![(root, root_l)];
    while let Some((v, l)) = stack.pop() {
        for &(si, u) in &adj[v] {
            if parent_seg[u] != si {
                continue;
            }
            let ls = choice[si * num_layers + l as usize];
            seg_layer[si] = ls;
            stack.push((u, ls));
        }
    }
    // cycle-closing extras: pick the cheapest layer against the incident
    // assigned layers
    let node_layer = |node: usize, seg_layer: &[u32]| -> u32 {
        adj[node]
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
        let (la, lb) = (node_layer(na, &seg_layer), node_layer(nb, &seg_layer));
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
        seg_layer,
        dp_cost,
        root_layer: root_l,
    }
}

/// Step 5: commits the plan's demand and counts vias exactly (layer span
/// per node).
fn commit_net(
    net: usize,
    topology: NetTopology,
    seg_edges: &SegEdges,
    plan: LayerPlan,
    pins: &std::collections::HashSet<Point>,
    layer_demand: &mut [Vec<f32>],
) -> NetAssignment {
    let mut segments = Vec::with_capacity(topology.segs.len());
    for (si, &(_, _, a, b)) in topology.segs.iter().enumerate() {
        let layer = plan.seg_layer[si];
        for e in seg_edges.of_seg(si) {
            layer_demand[layer as usize][e.index()] += 1.0;
        }
        segments.push(Segment3d { a, b, layer });
    }
    let mut touch: HashMap<Point, (u32, u32)> = HashMap::new();
    for s in &segments {
        for p in [s.a, s.b] {
            let e = touch.entry(p).or_insert((s.layer, s.layer));
            e.0 = e.0.min(s.layer);
            e.1 = e.1.max(s.layer);
        }
    }
    let mut vias = 0u64;
    for (p, (lo, hi)) in &touch {
        let lo = if pins.contains(p) { 0 } else { *lo };
        vias += (*hi - lo) as u64;
    }
    NetAssignment {
        net3d: Net3d {
            net,
            segments,
            vias,
        },
        topology,
        dp_cost: plan.dp_cost,
        root_layer: plan.root_layer,
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
        pins: &std::collections::HashSet<Point>,
        layer_demand: &mut [Vec<f32>],
    ) -> Result<NetAssignment, PostError> {
        let topology = NetTopology::of_route(route);
        let seg_edges = SegEdges::of(&design.grid, &topology)?;
        let demand: &[Vec<f32>] = layer_demand;
        let seg_cost = |si: usize, ls: u32| {
            let (edges, dir) = (seg_edges.of_seg(si), seg_edges.dirs[si]);
            seg_price(design, model, cfg, edges, dir, &demand[ls as usize])
        };
        let plan = choose_layers(&topology, &seg_edges.dirs, model, cfg, pins, seg_cost);
        Ok(commit_net(
            route.net,
            topology,
            &seg_edges,
            plan,
            pins,
            layer_demand,
        ))
    }

    #[test]
    fn tabulated_prices_assign_exactly_like_per_use_prices() {
        for (case, num_layers) in [2u32, 5, 9, 2, 5, 9].into_iter().enumerate() {
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
