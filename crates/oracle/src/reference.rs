//! Independent f64 re-implementations of the solver's cost semantics.
//!
//! Nothing here shares code with `dgr-autodiff` or `dgr-core`: the
//! expected cost is recomputed from the forest accessors in plain f64
//! loops, and the discrete replay walks path corners unit step by unit
//! step instead of reading the forest's path→edge CSR. Agreement between
//! the two implementations is the whole point — a shared helper would be
//! a shared bug.

use dgr_autodiff::Activation;
use dgr_core::DgrConfig;
use dgr_dag::DagForest;
use dgr_grid::{Design, Point};

/// Logit value marking the selected candidate in a one-hot comparison.
///
/// `softmax` subtracts the group max before exponentiating, so with the
/// selected logit at `ONE_HOT` and the rest at zero the f32 softmax is
/// *exactly* one-hot: `exp(-60)` underflows against `1.0` in both f32
/// and f64. That makes the relaxed cost at these logits the discrete
/// cost of the selection, not an approximation of it.
pub const ONE_HOT: f32 = 60.0;

/// Scalar outputs of one cost evaluation, in f64.
#[derive(Debug, Clone)]
pub struct RefCost {
    /// Expected (or discrete) total wirelength.
    pub wl: f64,
    /// Expected via cost, already scaled by √L.
    pub via: f64,
    /// Σ_e f((d_e − cap_e)/scale).
    pub overflow: f64,
    /// `a₃·overflow + a₂·via + a₁·wl`.
    pub loss: f64,
    /// Per-edge demand `d_e` (wire + ½β endpoint-split via pressure).
    pub demand: Vec<f64>,
}

/// Evaluates `activation` in f64, mirroring the f32 formulas in
/// `dgr_autodiff::activation` (including the exp clamp and the CELU /
/// leaky-ReLU constants).
pub fn activation_f64(a: Activation, x: f64) -> f64 {
    match a {
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        Activation::LeakyRelu => {
            if x > 0.0 {
                x
            } else {
                0.01 * x
            }
        }
        Activation::Exp => x.min(20.0).exp(),
        Activation::Celu => x.max(0.0) + ((x.min(0.0)).exp() - 1.0).min(0.0),
    }
}

/// The frozen per-design data an f64 evaluation needs.
pub struct RefModel<'a> {
    design: &'a Design,
    forest: &'a DagForest,
    weights: (f64, f64, f64), // (wirelength, via, overflow)
    activation: Activation,
    overflow_scale: f64,
    /// (cell_a, cell_b, β_a, β_b) per edge, for the endpoint split.
    edge_ends: Vec<(usize, usize, f64, f64)>,
}

impl<'a> RefModel<'a> {
    /// Captures the pieces of `cfg` the forward pass depends on.
    pub fn new(design: &'a Design, forest: &'a DagForest, cfg: &DgrConfig) -> Self {
        let grid = &design.grid;
        let mut edge_ends = Vec::with_capacity(grid.num_edges());
        for e in grid.edge_ids() {
            let (pa, pb) = grid.edge_endpoints(e);
            let ia = grid.cell_id(pa).expect("endpoint in grid");
            let ib = grid.cell_id(pb).expect("endpoint in grid");
            edge_ends.push((
                ia.index(),
                ib.index(),
                design.capacity.beta(ia) as f64,
                design.capacity.beta(ib) as f64,
            ));
        }
        RefModel {
            design,
            forest,
            weights: (
                cfg.weights.wirelength as f64,
                cfg.weights.via as f64,
                cfg.weights.overflow as f64,
            ),
            activation: cfg.activation,
            overflow_scale: cfg.overflow_scale as f64,
            edge_ends,
        }
    }

    /// Full f64 forward pass over the same leaves the kernel reads:
    /// `z = (w + noise)/τ`, per-group softmax, `qp = p·q`, expected
    /// wirelength/vias/demand, activated overflow, weighted loss.
    pub fn eval(
        &self,
        w_tree: &[f32],
        w_path: &[f32],
        noise_tree: &[f32],
        noise_path: &[f32],
        temperature: f32,
    ) -> RefCost {
        let forest = self.forest;
        let tau = temperature as f64;

        let q = softmax_groups(w_tree, noise_tree, tau, forest.num_nets(), |n| {
            forest.trees_of_net(n)
        });
        let p = softmax_groups(w_path, noise_path, tau, forest.num_subnets(), |s| {
            forest.paths_of_subnet(s)
        });

        let num_paths = forest.num_paths();
        let mut qp = vec![0.0f64; num_paths];
        for (i, qp_i) in qp.iter_mut().enumerate() {
            *qp_i = p[i] * q[forest.tree_of_path(i)];
        }

        let mut wl = 0.0f64;
        let mut turns = 0.0f64;
        for (i, &m) in qp.iter().enumerate() {
            wl += m * forest.path_wirelength(i) as f64;
            turns += m * forest.path_turn_count(i) as f64;
        }
        let via = turns * (self.design.num_layers as f64).sqrt();

        let grid = &self.design.grid;
        let mut wire = vec![0.0f64; grid.num_edges()];
        let mut vp = vec![0.0f64; grid.num_cells()];
        for (i, &m) in qp.iter().enumerate() {
            for &e in forest.path_edges(i) {
                wire[e as usize] += m;
            }
            for &c in forest.path_vias(i) {
                vp[c as usize] += m;
            }
        }
        self.finish(wl, via, wire, vp)
    }

    /// Discrete replay of a selection: walks each chosen path's corners
    /// unit step by unit step (independently of the forest's path→edge
    /// CSR) and computes the same Eq. (9)–(12) metrics on the result.
    pub fn discrete(&self, sel: &Selection) -> RefCost {
        let forest = self.forest;
        let grid = &self.design.grid;
        let mut wl = 0.0f64;
        let mut turns = 0.0f64;
        let mut wire = vec![0.0f64; grid.num_edges()];
        let mut vp = vec![0.0f64; grid.num_cells()];
        for &(subnet, path) in &sel.path_of_subnet {
            let corners = path_corners(forest, grid, subnet, path);
            for w in corners.windows(2) {
                wl += w[0].manhattan_distance(w[1]) as f64;
                let mut p = w[0];
                while p != w[1] {
                    let step =
                        Point::new(p.x + (w[1].x - p.x).signum(), p.y + (w[1].y - p.y).signum());
                    let e = grid.edge_between(p, step).expect("unit step in grid");
                    wire[e.index()] += 1.0;
                    p = step;
                }
            }
            for c in &corners[1..corners.len().saturating_sub(1)] {
                turns += 1.0;
                vp[grid.cell_id(*c).expect("corner in grid").index()] += 1.0;
            }
        }
        let via = turns * (self.design.num_layers as f64).sqrt();
        self.finish(wl, via, wire, vp)
    }

    fn finish(&self, wl: f64, via: f64, wire: Vec<f64>, vp: Vec<f64>) -> RefCost {
        let cap = self.design.capacity.as_slice();
        let mut demand = wire;
        let mut overflow = 0.0f64;
        for (e, d) in demand.iter_mut().enumerate() {
            let (ia, ib, ba, bb) = self.edge_ends[e];
            *d += 0.5 * ba * vp[ia] + 0.5 * bb * vp[ib];
            let slack = (*d - cap[e] as f64) / self.overflow_scale;
            overflow += activation_f64(self.activation, slack);
        }
        let (a1, a2, a3) = self.weights;
        RefCost {
            wl,
            via,
            overflow,
            loss: a3 * overflow + a2 * via + a1 * wl,
            demand,
        }
    }
}

/// Max-subtracting softmax per group, all in f64.
fn softmax_groups(
    w: &[f32],
    noise: &[f32],
    tau: f64,
    groups: usize,
    range_of: impl Fn(usize) -> std::ops::Range<usize>,
) -> Vec<f64> {
    let mut out = vec![0.0f64; w.len()];
    for g in 0..groups {
        let r = range_of(g);
        let z: Vec<f64> = r
            .clone()
            .map(|i| (w[i] as f64 + noise[i] as f64) / tau)
            .collect();
        let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = z.iter().map(|&v| (v - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        for (i, e) in r.zip(exps) {
            out[i] = e / sum;
        }
    }
    out
}

/// The corner list of one path: subnet endpoint, each turning cell in
/// stored order, the far endpoint. Mirrors the extractor's
/// `realize_path`.
pub fn path_corners(
    forest: &DagForest,
    grid: &dgr_grid::GcellGrid,
    subnet: usize,
    path: usize,
) -> Vec<Point> {
    let (a, b) = forest.subnet_endpoints(subnet);
    let mut corners = vec![a];
    for &c in forest.path_vias(path) {
        corners.push(grid.cell_point(dgr_grid::GcellId(c)));
    }
    if b != a {
        corners.push(b);
    }
    corners
}

/// One discrete choice: a tree per net and a path per subnet of the
/// chosen trees.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Global tree index chosen for each net, in net order.
    pub tree_of_net: Vec<usize>,
    /// `(subnet, path)` pairs, one per subnet of every chosen tree.
    pub path_of_subnet: Vec<(usize, usize)>,
}

/// Enumerates every selectable (tree, path…) combination of the forest,
/// stopping after `cap` selections. Returns the selections and whether
/// enumeration was truncated.
pub fn enumerate_selections(forest: &DagForest, cap: usize) -> (Vec<Selection>, bool) {
    let mut out = Vec::new();
    let mut current = Selection {
        tree_of_net: Vec::new(),
        path_of_subnet: Vec::new(),
    };
    let truncated = walk_nets(forest, 0, &mut current, &mut out, cap);
    (out, truncated)
}

fn walk_nets(
    forest: &DagForest,
    net: usize,
    current: &mut Selection,
    out: &mut Vec<Selection>,
    cap: usize,
) -> bool {
    if out.len() >= cap {
        return true;
    }
    if net == forest.num_nets() {
        out.push(current.clone());
        return false;
    }
    let mut truncated = false;
    for t in forest.trees_of_net(net) {
        current.tree_of_net.push(t);
        let before = current.path_of_subnet.len();
        truncated |= walk_subnets(forest, net, forest.subnets_of_tree(t), current, out, cap);
        current.path_of_subnet.truncate(before);
        current.tree_of_net.pop();
        if out.len() >= cap {
            return true;
        }
    }
    truncated
}

fn walk_subnets(
    forest: &DagForest,
    net: usize,
    mut subnets: std::ops::Range<usize>,
    current: &mut Selection,
    out: &mut Vec<Selection>,
    cap: usize,
) -> bool {
    match subnets.next() {
        None => walk_nets(forest, net + 1, current, out, cap),
        Some(s) => {
            let mut truncated = false;
            for path in forest.paths_of_subnet(s) {
                current.path_of_subnet.push((s, path));
                truncated |= walk_subnets(forest, net, subnets.clone(), current, out, cap);
                current.path_of_subnet.pop();
                if out.len() >= cap {
                    return true;
                }
            }
            truncated
        }
    }
}

/// Builds the one-hot logit buffers for a selection: `ONE_HOT` at every
/// chosen tree and path, zero elsewhere (subnets of unchosen trees keep
/// uniform logits — their joint mass underflows to exactly zero).
pub fn one_hot_logits(forest: &DagForest, sel: &Selection) -> (Vec<f32>, Vec<f32>) {
    let mut w_tree = vec![0.0f32; forest.num_trees()];
    for &t in &sel.tree_of_net {
        w_tree[t] = ONE_HOT;
    }
    let mut w_path = vec![0.0f32; forest.num_paths()];
    for &(_, p) in &sel.path_of_subnet {
        w_path[p] = ONE_HOT;
    }
    (w_tree, w_path)
}
