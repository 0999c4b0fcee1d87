//! The five differential cross-checks.
//!
//! Each check takes a [`CaseSpec`], regenerates the instance from its
//! seed, runs the production implementation and the independent
//! reference, and returns a [`Mismatch`] describing the first
//! disagreement beyond tolerance (see [`crate::tol`] for the policy).

use std::sync::Mutex;

use dgr_autodiff::Activation;
use dgr_core::{build_cost_model, CostModel, DgrConfig, NetRoute, RoutePath};
use dgr_dag::{build_forest, DagForest, PatternConfig};
use dgr_grid::{CapacityBuilder, DemandMap, Design, GcellGrid, Point};
use dgr_post::{assign_net_dp, AssignConfig};
use dgr_rsmt::{tree_candidates, CandidateConfig};
use rand::rngs::StdRng;
use rand::Rng;

use crate::brute::{brute_best_assignment, brute_rsmt_length, RootedTree, TreeAssignment};
use crate::gen::{case_rng, gen_design, CaseSpec, CheckKind};
use crate::reference::{enumerate_selections, one_hot_logits, RefModel};
use crate::tol;

/// A differential disagreement: which check failed and a human-readable
/// account of the two values that diverged.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The check that failed.
    pub check: CheckKind,
    /// What diverged, with both values and the tolerance.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// `set_num_threads` is process-global; tests that flip it serialize on
/// this lock (same pattern as the autodiff determinism tests).
pub static EXEC_LOCK: Mutex<()> = Mutex::new(());

/// Runs the check a spec names. `Ok(())` means the implementations
/// agree within tolerance on this case.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn run_case(spec: &CaseSpec) -> Result<(), Mismatch> {
    match spec.check {
        CheckKind::Rsmt => check_rsmt(spec),
        CheckKind::PathCost => check_path_cost(spec),
        CheckKind::GradCheck => check_gradients(spec),
        CheckKind::DemandReplay => check_demand_replay(spec),
        CheckKind::LayerAssign => check_layer_assign(spec),
    }
}

fn fail(spec: &CaseSpec, detail: String) -> Mismatch {
    Mismatch {
        check: spec.check,
        detail,
    }
}

/// `|a − b| ≤ tol · max(1, |a|, |b|)`.
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

// --- check 1: exact Steiner vs. Hanan brute force --------------------------

fn check_rsmt(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    for net in &design.nets {
        let exact = dgr_rsmt::exact_steiner(&net.pins);
        exact
            .validate()
            .map_err(|e| fail(spec, format!("exact_steiner({:?}) invalid: {e}", net.pins)))?;
        let brute = brute_rsmt_length(&net.pins);
        if exact.length() != brute {
            return Err(fail(
                spec,
                format!(
                    "exact_steiner({:?}) length {} ≠ brute-force optimum {brute}",
                    net.pins,
                    exact.length()
                ),
            ));
        }
        let mst = dgr_rsmt::mst::rmst_length(&net.pins);
        if exact.length() > mst {
            return Err(fail(
                spec,
                format!(
                    "exact_steiner({:?}) length {} beaten by plain MST {mst}",
                    net.pins,
                    exact.length()
                ),
            ));
        }
    }
    Ok(())
}

// --- check 2: relaxed cost at one-hot logits vs. discrete replay -----------

/// Upper bound on enumerated selections per case (the generator keeps
/// real counts far below this; the cap is a safety net).
const MAX_SELECTIONS: usize = 600;

fn check_path_cost(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    let cand = CandidateConfig {
        max_candidates: 2,
        clamp: Some(design.grid.bounds()),
        seed: spec.seed,
        ..CandidateConfig::default()
    };
    let pools: Vec<_> = design
        .nets
        .iter()
        .map(|n| tree_candidates(&n.pins, &cand).expect("non-empty pins"))
        .collect();
    let patterns = if rng.gen_range(0..2) == 0 {
        PatternConfig::l_only()
    } else {
        PatternConfig::with_z(2)
    };
    let forest = build_forest(&design.grid, &pools, patterns).expect("candidates clamped to grid");
    let cfg = DgrConfig {
        initial_temperature: 1.0,
        activation: Activation::ALL[rng.gen_range(0..Activation::ALL.len())],
        overflow_scale: if rng.gen_range(0..2) == 0 { 1.0 } else { 2.0 },
        ..DgrConfig::default()
    };
    let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
    let reference = RefModel::new(&design, &forest, &cfg);
    let zeros_t = vec![0.0f32; forest.num_trees()];
    let zeros_p = vec![0.0f32; forest.num_paths()];

    let (selections, _truncated) = enumerate_selections(&forest, MAX_SELECTIONS);
    for sel in &selections {
        let (w_tree, w_path) = one_hot_logits(&forest, sel);
        let discrete = reference.discrete(sel);

        // pure-f64 sanity: relaxed cost at one-hot logits IS the
        // discrete cost (softmax underflow makes the mass exactly 0/1)
        let relaxed = reference.eval(&w_tree, &w_path, &zeros_t, &zeros_p, 1.0);
        if !close(relaxed.loss, discrete.loss, tol::ONE_HOT_F64) {
            return Err(fail(
                spec,
                format!(
                    "f64 relaxed loss {} ≠ f64 discrete replay {} at one-hot logits \
                     (selection {:?})",
                    relaxed.loss, discrete.loss, sel.tree_of_net
                ),
            ));
        }

        // the production kernel against the independent discrete replay
        model.set_logits(&w_tree, &w_path);
        let (loss, overflow, wl, via) = model.evaluate();
        for (name, got, want) in [
            ("loss", loss as f64, discrete.loss),
            ("overflow", overflow as f64, discrete.overflow),
            ("wirelength", wl as f64, discrete.wl),
            ("via", via as f64, discrete.via),
        ] {
            if !close(got, want, tol::COST_REL) {
                return Err(fail(
                    spec,
                    format!(
                        "kernel {name} {got} ≠ discrete replay {want} \
                         (selection trees {:?}, paths {:?})",
                        sel.tree_of_net, sel.path_of_subnet
                    ),
                ));
            }
        }
        for (e, (&got, &want)) in model.demand().iter().zip(&discrete.demand).enumerate() {
            if !close(got as f64, want, tol::COST_REL) {
                return Err(fail(
                    spec,
                    format!("kernel demand[{e}] {got} ≠ replayed demand {want}"),
                ));
            }
        }
    }
    Ok(())
}

// --- check 3: kernel gradients vs. f64 central differences -----------------

/// Where `activation` is not differentiable, as a value of its input.
fn kink(activation: Activation) -> Option<f64> {
    match activation {
        Activation::Relu | Activation::LeakyRelu => Some(0.0),
        Activation::Exp => Some(20.0), // the clamp
        Activation::Sigmoid | Activation::Celu => None,
    }
}

fn check_gradients(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    let cand = CandidateConfig {
        max_candidates: 2,
        clamp: Some(design.grid.bounds()),
        seed: spec.seed,
        ..CandidateConfig::default()
    };
    let pools: Vec<_> = design
        .nets
        .iter()
        .map(|n| tree_candidates(&n.pins, &cand).expect("non-empty pins"))
        .collect();
    let forest = build_forest(&design.grid, &pools, PatternConfig::with_z(2))
        .expect("candidates clamped to grid");
    let cfg = DgrConfig {
        activation: Activation::ALL[rng.gen_range(0..Activation::ALL.len())],
        overflow_scale: 2.0,
        initial_temperature: [0.5f32, 1.0, 2.0][rng.gen_range(0..3usize)],
        ..DgrConfig::default()
    };
    let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
    if rng.gen_range(0..2) == 0 {
        model.sample_noise(&mut rng);
    }
    compare_gradients(spec, &design, &forest, &cfg, &mut model, &mut rng)?;

    // and on the kernel a temperature step leaves behind, at a threshold
    // these logits (|w| < ½, τ ≥ ½) reach: the reference, whose forest is
    // whole, sees the dropped candidates at −∞
    if model.prune(0.3).is_some() {
        model.restore_layout();
        compare_gradients(spec, &design, &forest, &cfg, &mut model, &mut rng)?;
    }
    Ok(())
}

/// The loss of `model` against the f64 reference, and its gradient
/// against central differences of the reference.
fn compare_gradients(
    spec: &CaseSpec,
    design: &Design,
    forest: &DagForest,
    cfg: &DgrConfig,
    model: &mut CostModel,
    rng: &mut StdRng,
) -> Result<(), Mismatch> {
    let w_tree = model.tree_logits().to_vec();
    let w_path = model.path_logits().to_vec();
    let noise_tree = model.tree_noise().to_vec();
    let noise_path = model.path_noise().to_vec();
    let tau = model.temperature();
    let reference = RefModel::new(design, forest, cfg);
    let eval = |wt: &[f32], wp: &[f32]| reference.eval(wt, wp, &noise_tree, &noise_path, tau);

    // forward consistency first: a wrong forward makes FD meaningless
    let (kernel_loss, ..) = model.evaluate();
    let ref_loss = eval(&w_tree, &w_path).loss;
    if !close(kernel_loss as f64, ref_loss, tol::COST_REL) {
        return Err(fail(
            spec,
            format!("kernel loss {kernel_loss} ≠ f64 reference {ref_loss}"),
        ));
    }

    // f64 central differences on a deterministic coordinate sample. A
    // coordinate whose ±h step carries an edge across the activation's
    // kink has no derivative to compare with (every demand is monotone in
    // every logit, so looking at the two ends is enough): `None`. An edge
    // that sits on the kink at both ends does not move and does not count.
    let h = tol::FD_STEP;
    let cap = design.capacity.as_slice();
    let fd_at = |buf: &[f32], is_tree: bool, j: usize| -> Option<f64> {
        let mut plus = buf.to_vec();
        let mut minus = buf.to_vec();
        plus[j] += h;
        minus[j] -= h;
        let (up, down) = if is_tree {
            (eval(&plus, &w_path), eval(&minus, &w_path))
        } else {
            (eval(&w_tree, &plus), eval(&w_tree, &minus))
        };
        if let Some(k) = kink(cfg.activation) {
            let side = |d: f64, e: usize| (d - cap[e] as f64) / cfg.overflow_scale as f64 - k;
            let crosses =
                (0..cap.len()).any(|e| side(up.demand[e], e) * side(down.demand[e], e) < 0.0);
            if crosses {
                return None;
            }
        }
        Some((up.loss - down.loss) / (2.0 * h as f64))
    };
    let sample = |len: usize, rng: &mut StdRng| -> Vec<usize> {
        if len <= tol::FD_COORDS {
            (0..len).collect()
        } else {
            (0..tol::FD_COORDS).map(|_| rng.gen_range(0..len)).collect()
        }
    };
    let tree_coords = sample(w_tree.len(), rng);
    let path_coords = sample(w_path.len(), rng);

    model.backward();
    for (name, coords, logits, grads, is_tree) in [
        ("w_tree", &tree_coords, &w_tree, model.tree_grad(), true),
        ("w_path", &path_coords, &w_path, model.path_grad(), false),
    ] {
        for &j in coords {
            let Some(want) = fd_at(logits, is_tree, j) else {
                continue;
            };
            let got = grads[j] as f64;
            if !close(got, want, tol::GRAD_REL) {
                return Err(fail(
                    spec,
                    format!("kernel ∂loss/∂{name}[{j}] {got} ≠ central diff {want}"),
                ));
            }
        }
    }
    Ok(())
}

// --- check 4: incremental demand updates vs. naive recount -----------------

#[derive(Debug, Clone)]
enum DemandOp {
    Seg(Point, Point),
    Turn(Point),
    /// A whole corner polyline, through the `commit` / `rip_up` entry the
    /// routers use.
    Line(Vec<Point>),
}

fn check_demand_replay(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let grid = GcellGrid::new(spec.width, spec.height).expect("dims ≥ 3");
    let mut cap_builder = CapacityBuilder::uniform(&grid, spec.tracks);
    for _ in 0..2 {
        let p = Point::new(
            rng.gen_range(0..spec.width as i32),
            rng.gen_range(0..spec.height as i32),
        );
        cap_builder = cap_builder
            .set_beta(&grid, p, [0.5f32, 2.0][rng.gen_range(0..2usize)])
            .expect("cell in grid");
    }
    let cap = cap_builder.build(&grid).expect("same grid");

    let mut demand = DemandMap::new(&grid);
    let mut active: Vec<DemandOp> = Vec::new();
    let rand_point = |rng: &mut StdRng| {
        Point::new(
            rng.gen_range(0..spec.width as i32),
            rng.gen_range(0..spec.height as i32),
        )
    };
    let apply = |demand: &mut DemandMap, op: &DemandOp, add: bool| {
        let r = match (op, add) {
            (&DemandOp::Seg(a, b), true) => demand.add_segment(&grid, a, b),
            (&DemandOp::Seg(a, b), false) => demand.remove_segment(&grid, a, b),
            (&DemandOp::Turn(p), true) => demand.add_turn(&grid, p),
            (&DemandOp::Turn(p), false) => demand.remove_turn(&grid, p),
            (DemandOp::Line(corners), true) => demand.commit(&grid, corners),
            (DemandOp::Line(corners), false) => demand.rip_up(&grid, corners),
        };
        r.expect("generated ops stay in grid");
    };
    for _ in 0..spec.ops {
        if !active.is_empty() && rng.gen_range(0..10) < 3 {
            let idx = rng.gen_range(0..active.len());
            let op = active.swap_remove(idx);
            apply(&mut demand, &op, false);
            continue;
        }
        let kind = rng.gen_range(0..4);
        let op = if kind == 0 {
            DemandOp::Turn(rand_point(&mut rng))
        } else if kind == 1 {
            // two to five corners, legs alternating in direction; a leg of
            // length zero still leaves its corner a turning point
            let mut corners = vec![rand_point(&mut rng)];
            let mut horizontal = rng.gen_range(0..2) == 0;
            for _ in 0..rng.gen_range(1..5) {
                let last = corners[corners.len() - 1];
                corners.push(if horizontal {
                    Point::new(rng.gen_range(0..spec.width as i32), last.y)
                } else {
                    Point::new(last.x, rng.gen_range(0..spec.height as i32))
                });
                horizontal = !horizontal;
            }
            DemandOp::Line(corners)
        } else {
            let a = rand_point(&mut rng);
            let horizontal = rng.gen_range(0..2) == 0;
            let b = if horizontal {
                Point::new(rng.gen_range(0..spec.width as i32), a.y)
            } else {
                Point::new(a.x, rng.gen_range(0..spec.height as i32))
            };
            if a == b {
                DemandOp::Turn(a)
            } else {
                DemandOp::Seg(a, b)
            }
        };
        apply(&mut demand, &op, true);
        active.push(op);
    }

    // naive recount from the surviving op list, unit step by unit step
    let mut wire = vec![0.0f32; grid.num_edges()];
    let mut vp = vec![0.0f32; grid.num_cells()];
    let mut walk = |a: Point, b: Point| {
        let mut p = a;
        while p != b {
            let step = Point::new(p.x + (b.x - p.x).signum(), p.y + (b.y - p.y).signum());
            let e = grid.edge_between(p, step).expect("in grid");
            wire[e.index()] += 1.0;
            p = step;
        }
    };
    let mut turn = |p: Point| vp[grid.cell_id(p).expect("in grid").index()] += 1.0;
    for op in &active {
        match op {
            &DemandOp::Seg(a, b) => walk(a, b),
            &DemandOp::Turn(p) => turn(p),
            DemandOp::Line(corners) => {
                corners.windows(2).for_each(|w| walk(w[0], w[1]));
                corners[1..corners.len() - 1].iter().for_each(|&p| turn(p));
            }
        }
    }
    if demand.wire_slice() != wire.as_slice() {
        return Err(fail(
            spec,
            format!(
                "incremental wire demand diverged from recount after {} ops \
                 (first diff at edge {:?})",
                spec.ops,
                demand
                    .wire_slice()
                    .iter()
                    .zip(&wire)
                    .position(|(a, b)| a != b)
            ),
        ));
    }
    if demand.via_pressure_slice() != vp.as_slice() {
        return Err(fail(
            spec,
            "incremental via pressure diverged from recount".to_string(),
        ));
    }
    for e in grid.edge_ids() {
        let got = demand.total(&cap, e) as f64;
        let (pa, pb) = grid.edge_endpoints(e);
        let ia = grid.cell_id(pa).expect("in grid");
        let ib = grid.cell_id(pb).expect("in grid");
        let want = wire[e.index()] as f64
            + 0.5 * cap.beta(ia) as f64 * vp[ia.index()] as f64
            + 0.5 * cap.beta(ib) as f64 * vp[ib.index()] as f64;
        if !close(got, want, tol::DEMAND_TOTAL_REL) {
            return Err(fail(
                spec,
                format!("total({e:?}) {got} ≠ Eq. (2) recomputation {want}"),
            ));
        }
    }

    // rip everything up: an exact round trip must land on exact zeros
    for op in active.drain(..) {
        apply(&mut demand, &op, false);
    }
    if demand.wire_slice().iter().any(|&w| w != 0.0)
        || demand.via_pressure_slice().iter().any(|&v| v != 0.0)
    {
        return Err(fail(
            spec,
            "demand not exactly zero after removing every committed op".to_string(),
        ));
    }
    Ok(())
}

// --- check 5: layer-assignment DP vs. exhaustive enumeration ---------------

/// Product-space cap for the layer brute force; larger cases are
/// vacuously skipped (the generator keeps real cases far below this).
const MAX_LAYER_COMBOS: usize = 65_536;

fn check_layer_assign(spec: &CaseSpec) -> Result<(), Mismatch> {
    let mut rng = case_rng(spec);
    let design = gen_design(spec, &mut rng);
    let net = &design.nets[0];
    let tree = dgr_rsmt::rsmt(&net.pins).expect("non-empty pins");
    let mut paths = Vec::new();
    for (a, b) in tree.subnets() {
        if a.is_aligned_with(b) {
            paths.push(RoutePath {
                corners: vec![a, b],
            });
        } else {
            let (c1, c2) = a.l_corners(b);
            let corner = if rng.gen_range(0..2) == 0 { c1 } else { c2 };
            paths.push(RoutePath {
                corners: vec![a, corner, b],
            });
        }
    }
    let route = NetRoute {
        net: 0,
        tree: 0,
        paths,
    };
    let cfg = AssignConfig {
        overflow_weight: [100.0f32, 500.0][rng.gen_range(0..2usize)],
        via_weight: [1.0f32, 4.0][rng.gen_range(0..2usize)],
        first_horizontal: rng.gen_range(0..2) == 0,
    };
    let num_edges = design.grid.num_edges();
    let mut layer_demand = vec![vec![0.0f32; num_edges]; design.num_layers as usize];
    // pre-commit a few wires so the DP sees non-trivial congestion
    for _ in 0..rng.gen_range(0..=2) {
        let y = rng.gen_range(0..spec.height as i32);
        let x1 = rng.gen_range(1..spec.width as i32);
        let l = rng.gen_range(0..design.num_layers) as usize;
        let mut p = Point::new(0, y);
        while p.x < x1 {
            let step = Point::new(p.x + 1, p.y);
            let e = design.grid.edge_between(p, step).expect("in grid");
            layer_demand[l][e.index()] += 1.0;
            p = step;
        }
    }
    let pre_demand = layer_demand.clone();

    let pins: std::collections::HashSet<Point> = net.pins.iter().copied().collect();
    let asg =
        assign_net_dp(&design, cfg, &route, &pins, &mut layer_demand).expect("route stays in grid");
    if asg.topology.in_tree.iter().any(|&t| !t) {
        // overlapping subnets produced a cycle closer: the DP optimum
        // no longer covers every segment, so the comparison is vacuous
        return Ok(());
    }
    let rooted = match RootedTree::root(&asg.topology) {
        Some(r) => r,
        None => return Ok(()),
    };
    let Some(brute) = brute_best_assignment(
        &design,
        cfg,
        &asg.topology,
        &rooted,
        &pins,
        &pre_demand,
        MAX_LAYER_COMBOS,
    ) else {
        return Ok(());
    };

    // (a) the DP's reported cost is achieved by its returned assignment
    let returned = TreeAssignment {
        root_layer: asg.root_layer,
        seg_layer: asg.net3d.segments.iter().map(|s| s.layer).collect(),
    };
    let achieved = crate::brute::eval_assignment(
        &design,
        cfg,
        &asg.topology,
        &rooted,
        &pins,
        &pre_demand,
        &returned,
    );
    if !close(asg.dp_cost as f64, achieved, tol::DP_REL) {
        return Err(fail(
            spec,
            format!(
                "DP reports cost {} but its returned assignment evaluates to {achieved}",
                asg.dp_cost
            ),
        ));
    }
    // (b) the DP's optimum matches the exhaustive optimum
    if !close(asg.dp_cost as f64, brute, tol::DP_REL) {
        return Err(fail(
            spec,
            format!(
                "DP optimum {} ≠ exhaustive optimum {brute} \
                 ({} tree segments, {} layers)",
                asg.dp_cost,
                asg.topology.segs.len(),
                design.num_layers
            ),
        ));
    }
    Ok(())
}
