//! The fused expected-cost kernel: Eqs. 9–12 and their hand-derived
//! gradient, over straight g-cell runs instead of single edges.
//!
//! ```text
//! q, p   = softmax((w + gumbel) / τ) per net / per sub-net
//! qp_i   = q_tree(i) · p_i
//! WL     = Σ_i qp_i · WL_i                      via = √L · Σ_i qp_i · TP_i
//! d_e    = Σ_{i∋e} qp_i + ½β_u·vp_u + ½β_v·vp_v   vp_c = Σ_{i turns at c} qp_i
//! loss   = a₃ · Σ_e f((d_e − cap_e)/s) + a₂ · via + a₁ · WL
//! ```
//!
//! `TP_i` is the number of cells where path `i` turns.
//!
//! # Phases
//!
//! **Forward** ([`CostModel::forward`]): tree softmax; then one loop over
//! the undecided sub-nets that takes the path softmax; then the *posts*,
//! one loop over the sub-nets and their paths in path order that forms
//! each path's mass `qp = q_tree · p` as it goes — no pass stores it —
//! adds the WL/turn dot products and posts the mass to a *difference
//! array* — `+qp` at the low end cell of every run, `−qp` at the high end
//! — and to the via pressure of its turn cells; then one scan per
//! orientation (along rows for horizontal edges, down columns for
//! vertical ones) turns the difference array into wire demand and, in
//! the same visit of the edge, adds the `½β` endpoint terms, applies the
//! activation and stores `a₃/s · f′` as the backward seed. A path costs
//! two updates per run instead of one per edge.
//!
//! **Backward** ([`CostModel::backward`]): prefix sums of the seed along
//! rows and columns, so the congestion gradient of a path is
//! `prefix[high] − prefix[low]` per run, plus the gradient of its turn
//! cells and its constant `a₁·WL + a₂·√L·TP`; then the softmax backward of
//! each sub-net and each net, and `1/τ`.
//!
//! The grid-sized buffers are two, each alive for one pass at a time.
//! The *slot array* (`f64`, two slots per cell) is the difference array
//! from the posts to the scan, then the prefix sums from the backward's
//! first step to its lanes; the *cell array* (`f32`) is the via pressure
//! from the posts to the scan, then `½β · ∂loss/∂vp` from that step to the
//! lanes. The posts zero both before they start and the prefix step
//! writes every slot and zeroes every cell before it sums, so no phase
//! reads what another left.
//!
//! # Lanes
//!
//! The two loops over sub-nets — the forward one and the backward one —
//! write one element per path (`p`; the path gradient) and sum into one
//! element per tree (`∂loss/∂q`), from sub-nets of that tree only. The
//! forest orders its tables net → tree → sub-net → path, so a cut at a
//! net boundary splits each loop into two *lanes* over contiguous
//! sub-nets, paths and trees that share no element; the cut is the
//! boundary that best halves the *undecided* paths (below), the only ones
//! a lane visits. The undecided sub-nets are kept as the runs of
//! consecutive ones, and the paths of consecutive sub-nets are
//! contiguous, so the paths under a cut are a sum of offset differences,
//! one per run; a lane walks the runs that reach into it, clipped at the
//! cut. Each phase is one function run over the lower lane and then the
//! upper one; when the calling thread has a [`parallel::Helper`] engaged,
//! [`parallel::join`] may run the upper lane there instead. The posts to
//! the difference array are *not* split: they are `f64` sums of masses
//! far apart in magnitude, whose result depends on their order, so they
//! stay one loop in path order.
//!
//! # Constant and pruned groups
//!
//! A net with one tree or a sub-net with one path has probability exactly
//! 1 whatever its logit: such groups are never exponentiated, draw no
//! noise, and have a gradient of exactly `+0.0` — every entry outside
//! [`NoiseRuns::runs`]. A group constant from the start never moves its
//! logit. One that [`CostModel::prune`] leaves with one candidate keeps
//! the logit it had at the prune: the training loop forgets its optimizer
//! moments there ([`crate::Adam::retain`]) and steps only the runs from
//! then on ([`crate::Adam::step_runs`]).
//!
//! A sub-net is *frozen* when both hold of it: one path, under the one
//! tree of its net. Its mass is `q · p = 1.0 · 1.0` in every pass — the
//! two factors are the constants above, 1 from wherever the groupings
//! are set (`new`, [`CostModel::prune`], [`CostModel::restore_layout`])
//! and never rewritten — so the posts form it like any other and no
//! other loop has anything to do for it. And nothing reads its gradient:
//! a lone path has no softmax backward, and its `∂loss/∂qp` would only be
//! summed into `∂loss/∂q` of a tree whose net, having no other, takes no
//! softmax backward either. So the sub-net loops of both passes run over
//! the *undecided* sub-nets — every one that has a path and is not
//! frozen; a lone path under a tree with a sibling is undecided, its mass
//! moves with `q` and its gradient feeds the choice between the trees —
//! and the tree softmax and its backward over the nets of two or more
//! trees. Both sets are found once per change of the groupings, not
//! tested for per pass.
//!
//! Annealing drives every group there. [`CostModel::prune`] takes the
//! candidates whose probability has fallen under a threshold out of
//! every table, so that the passes above run over what is left
//! — there is one kernel, over smaller tables, and no test for "alive"
//! inside it; a group left with one candidate is a constant group like
//! any other. What it guarantees: a pass of the pruned model is, bit for
//! bit, the pass of the unpruned one with the dropped logits at `−∞`
//! (the one approximation is the caller's decision to call a small
//! probability zero), and [`CostModel::restore_layout`] hands the model
//! back in the layout it was built with, over the geometry it was built
//! with, the dropped candidates at probability exactly 0, for the code
//! that reads it by the forest's indices.
//!
//! # The geometry
//!
//! The groupings and per-path columns are a [`Geometry`] behind an `Arc`.
//! A model built over a DAG forest ([`CostModel::from_geometry`]) holds
//! the forest's `Arc` and copies no column; the first [`CostModel::prune`]
//! that drops anything builds live rows the model owns, and
//! [`CostModel::restore_layout`] drops them and reads the shared columns
//! again.
//!
//! # Precision and determinism
//!
//! Both scans run in `f64`. A demand is a running sum of `±qp` along a
//! whole row, and a run gradient is the difference of two prefix sums
//! that may each be thousands of times larger than it: in `f32` the
//! first drifts and the second cancels to noise. Everything else is
//! `f32`, as the leaves are.
//!
//! Every buffer element has one writer per phase and every reduction
//! runs in an order fixed by the index structure, whichever thread runs
//! a lane: the result does not depend on [`parallel::num_threads`] or on
//! whether a helper is engaged.

use std::ops::Range;
use std::sync::Arc;

use rand::Rng;

use crate::activation::Activation;
use crate::geometry::{expect_len, held, Geometry};
use crate::{gumbel, kernels, parallel, AutodiffError};

/// The index structure of one expected-cost problem, borrowed: the
/// forest's groupings and per-path geometry over a `width × height`
/// g-cell grid. [`CostModel::new`] copies it into a [`Geometry`] of its
/// own; [`CostModel::from_geometry`] reads a shared one in place.
///
/// Cells are numbered row-major (`y · width + x`); horizontal edges come
/// first (`y · (width − 1) + x` joins `(x, y)` and `(x + 1, y)`), then
/// vertical ones (`y · width + x` joins `(x, y)` and `(x, y + 1)`).
#[derive(Debug, Clone, Copy)]
pub struct CostShape<'a> {
    /// Grid width in g-cells.
    pub width: usize,
    /// Grid height in g-cells.
    pub height: usize,
    /// CSR offsets grouping trees by net (softmax groups of `q`).
    pub net_tree_offsets: &'a [u32],
    /// The tree owning each sub-net.
    pub subnet_tree: &'a [u32],
    /// CSR offsets grouping paths by sub-net (softmax groups of `p`).
    pub subnet_path_offsets: &'a [u32],
    /// Wirelength of each path (`WL_i`).
    pub path_wl: &'a [f32],
    /// CSR offsets grouping runs by path.
    pub path_run_offsets: &'a [u32],
    /// `(low, high)` end cells of each straight run, `low < high`, in one
    /// row or one column.
    pub path_runs: &'a [(u32, u32)],
    /// CSR offsets grouping turn cells by path.
    pub path_via_offsets: &'a [u32],
    /// The cells where each path turns.
    pub path_via_cells: &'a [u32],
    /// Capacity of each edge.
    pub capacity: &'a [f32],
    /// Via-pressure coefficient `β` of each cell.
    pub beta: &'a [f32],
}

/// The weights and the overflow function of Eqs. 3 and 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTerms {
    /// `a₁`, the weight of the expected wirelength.
    pub wirelength: f32,
    /// `a₂`, the weight of the expected via cost.
    pub via: f32,
    /// `a₃`, the weight of the overflow term.
    pub overflow: f32,
    /// `√L`, the via cost of one expected turn.
    pub sqrt_layers: f32,
    /// The overflow function `f`.
    pub activation: Activation,
    /// `s` in `f((d − cap) / s)`.
    pub overflow_scale: f32,
}

/// The expected cost of a routing forest, its leaves and its gradient.
///
/// Built once per routing problem; every training iteration draws noise
/// ([`Self::sample_noise`], or [`NoiseRuns::fill`] into a second buffer
/// that [`Self::swap_noise`] trades in), calls [`Self::forward`] and
/// [`Self::backward`], and steps [`crate::Adam`] over
/// [`Self::logits_and_grads`]. Between [`Self::prune`] and
/// [`Self::restore_layout`] the counts and every slice are those of the
/// candidates still alive.
///
/// # Examples
///
/// ```
/// use dgr_autodiff::{Activation, Adam, CostModel, CostShape, CostTerms};
///
/// // one net, one tree, one sub-net from (0,0) to (1,1) on a 2×2 grid
/// // whose lower-left L crosses an edge with no capacity
/// let shape = CostShape {
///     width: 2,
///     height: 2,
///     net_tree_offsets: &[0, 1],
///     subnet_tree: &[0],
///     subnet_path_offsets: &[0, 2],
///     path_wl: &[2.0, 2.0],
///     path_run_offsets: &[0, 2, 4],
///     path_runs: &[(0, 1), (1, 3), (0, 2), (2, 3)],
///     path_via_offsets: &[0, 1, 2],
///     path_via_cells: &[1, 2],
///     capacity: &[0.0, 1.0, 1.0, 1.0],
///     beta: &[0.0; 4],
/// };
/// let terms = CostTerms {
///     wirelength: 0.5,
///     via: 4.0,
///     overflow: 500.0,
///     sqrt_layers: 2.0,
///     activation: Activation::Relu,
///     overflow_scale: 1.0,
/// };
/// let mut model = CostModel::new(&shape, terms, vec![0.0; 3])?;
/// let mut adam = Adam::new(3, 0.3);
/// for _ in 0..50 {
///     model.forward();
///     model.backward();
///     let (w, g) = model.logits_and_grads();
///     adam.step(w, g);
/// }
/// model.probabilities();
/// assert!(model.p()[1] > 0.95, "mass moved to the upper-left L");
/// assert_eq!(model.tree_logits(), &[0.0], "a one-tree net is a constant");
/// # Ok::<(), dgr_autodiff::AutodiffError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    width: usize,
    height: usize,
    /// The groupings and geometry the passes read: the ones the model was
    /// built over, shared with whoever built it, until a [`Self::prune`]
    /// gives the model live rows of its own.
    geometry: Arc<Geometry>,
    capacity: Vec<f32>,
    half_beta: Vec<f32>,
    terms: CostTerms,

    undecided: Undecided,
    cut: LaneCut,
    /// The geometry the model was built over, and where the live
    /// candidates sit in it, once [`Self::prune`] has dropped some.
    origin: Option<Origin>,

    // leaves, tree entries first, then path entries
    logits: Vec<f32>,
    noise: Vec<f32>,
    noise_runs: NoiseRuns,
    temperature: f32,

    // values
    /// `q` then `p`.
    prob: Vec<f32>,
    demand: Vec<f32>,
    wl_cost: f32,
    via_cost: f32,
    overflow_cost: f32,
    loss: f32,

    // one buffer per grid lifetime (see "Phases" in the module docs)
    /// Horizontal slots, then vertical ones: the difference array the
    /// posts write and the scan reads, then the exclusive prefix sums of
    /// `seed` that [`Self::prefix_seed`] writes and the backward lanes
    /// read.
    slots: Vec<f64>,
    /// One entry per cell: the via pressure `vp_c` the posts write and the
    /// scan reads, then the `∂loss/∂vp_c` that [`Self::prefix_seed`]
    /// writes and the backward lanes read.
    cells: Vec<f32>,

    // gradients
    /// `∂loss/∂d_e`, stored by the forward pass.
    seed: Vec<f32>,
    /// `∂loss/∂q_t`.
    tree_mass_grad: Vec<f64>,
    /// `∂loss/∂logits`, in the layout of `logits`.
    grad: Vec<f32>,
}

/// The groups a pass still has to compute, found whenever the groupings
/// change (see "Constant and pruned groups" in the module docs).
#[derive(Debug, Clone)]
struct Undecided {
    /// The sub-nets that have a path and are not frozen, as the maximal
    /// runs of consecutive ones, ascending.
    runs: Vec<Range<u32>>,
    /// How many sub-nets the runs hold.
    subnets: usize,
    /// How many paths those sub-nets hold.
    paths: usize,
    /// The nets of two or more trees, ascending.
    nets: Vec<u32>,
}

impl Undecided {
    /// Walks the groupings once.
    fn new(geometry: &Geometry) -> Undecided {
        let mut alone = vec![false; geometry.num_trees()];
        let mut nets = Vec::new();
        for n in 0..geometry.num_nets() {
            let trees = geometry.trees_of_net(n);
            match trees.len() {
                0 => {}
                1 => alone[trees.start] = true,
                _ => nets.push(n as u32),
            }
        }
        let (mut runs, mut subnets, mut paths) = (Vec::<Range<u32>>::new(), 0, 0);
        for (s, &tree) in (0..).zip(&geometry.subnet_tree) {
            let group = geometry.paths_of_subnet(s as usize);
            if group.is_empty() || group.len() == 1 && alone[tree as usize] {
                continue;
            }
            match runs.last_mut() {
                Some(run) if run.end == s => run.end += 1,
                _ => runs.push(s..s + 1),
            }
            subnets += 1;
            paths += group.len();
        }
        Undecided {
            runs,
            subnets,
            paths,
            nets,
        }
    }
}

/// Where the loops over sub-nets split into a lower and an upper lane:
/// the first sub-net, tree and path of the upper one. All three are the
/// table lengths when there is one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LaneCut {
    subnet: usize,
    tree: usize,
    path: usize,
}

impl LaneCut {
    /// The boundary, nearest the middle undecided path, of the net that
    /// holds it — so each lane has at least a quarter of the undecided
    /// paths, the only ones a lane visits — or one lane when that net
    /// holds more than half of them, when a boundary leaves a side
    /// nothing to do, or when the sub-nets are not in tree order (then
    /// no cut separates the trees).
    fn new(geometry: &Geometry, undecided: &Undecided) -> LaneCut {
        let subnet_tree = &geometry.subnet_tree[..];
        let offsets = &geometry.subnet_path_offsets[..];
        let (runs, paths) = (&undecided.runs, undecided.paths);
        let one_lane = LaneCut {
            subnet: subnet_tree.len(),
            tree: geometry.num_trees(),
            path: geometry.num_paths(),
        };
        if paths == 0 || subnet_tree.windows(2).any(|w| w[0] > w[1]) {
            return one_lane;
        }
        // the paths of consecutive sub-nets are contiguous: a run's paths
        // from `from` to `to` are a difference of two offsets
        let between = |from: u32, to: u32| (offsets[to as usize] - offsets[from as usize]) as usize;
        let mid = paths / 2;
        let mut seen = 0;
        let path_mid = runs.iter().find_map(|run| {
            let before = seen;
            seen += between(run.start, run.end);
            (seen > mid).then_some(offsets[run.start as usize] as usize + mid - before)
        });
        let path_mid = path_mid.expect("the middle path has a sub-net");
        let subnet_mid = offsets.partition_point(|&o| o as usize <= path_mid) - 1;
        let tree_mid = subnet_tree[subnet_mid];
        let net = geometry
            .net_tree_offsets
            .partition_point(|&o| o <= tree_mid)
            - 1;
        // the cut in front of `tree`, and the undecided paths under it
        let boundary = |tree: usize| {
            let subnet = subnet_tree.partition_point(|&t| (t as usize) < tree);
            let cut = LaneCut {
                subnet,
                tree,
                path: offsets[subnet] as usize,
            };
            let below = runs.iter().take_while(|run| run.start < subnet as u32);
            let under = below.map(|run| between(run.start, run.end.min(subnet as u32)));
            (cut, under.sum::<usize>())
        };
        let trees = geometry.trees_of_net(net);
        let ((below, under_below), (above, under_above)) =
            (boundary(trees.start), boundary(trees.end));
        if 2 * (under_above - under_below) > paths {
            return one_lane;
        }
        let (cut, under) = if mid - under_below <= under_above - mid {
            (below, under_below)
        } else {
            (above, under_above)
        };
        if under == 0 || under == paths {
            return one_lane;
        }
        cut
    }
}

/// One side of a [`LaneCut`]: the runs of undecided sub-nets that reach
/// into it and its sub-nets, which clip them, and where its trees and
/// paths — its parts of the buffers split at the cut — begin.
struct Lane<'a> {
    runs: &'a [Range<u32>],
    subnets: Range<u32>,
    first_tree: usize,
    first_path: usize,
}

impl Lane<'_> {
    /// The lane's undecided sub-nets, ascending.
    fn undecided(&self) -> impl Iterator<Item = usize> + '_ {
        let clip = &self.subnets;
        let runs = self.runs.iter();
        runs.flat_map(|run| run.start.max(clip.start)..run.end.min(clip.end))
            .map(|s| s as usize)
    }
}

/// What [`CostModel::restore_layout`] needs to undo every
/// [`CostModel::prune`] since the model was built: the geometry it was
/// built over, and which of its logits are live.
#[derive(Debug, Clone)]
struct Origin {
    /// Whether each logit of the built layout is still alive.
    alive: Vec<bool>,
    built: Arc<Geometry>,
}

/// Flags the candidates of one softmax group that [`CostModel::prune`]
/// keeps: the most probable one, and every one at `below` or more.
fn keep_group(group: Range<usize>, prob: &[f32], below: f32, keep: &mut [bool]) {
    let Some(top) = group.clone().max_by(|&a, &b| prob[a].total_cmp(&prob[b])) else {
        return;
    };
    for i in group {
        keep[i] = i == top || prob[i] >= below;
    }
}

/// Keeps the elements of `v` whose flag is set, in place and in order.
pub(crate) fn retain_flagged<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("a flag per element"));
}

/// Undoes [`retain_flagged`]: the elements of `v` move, in order, to the
/// places `alive` flags, and `fill` takes every other place.
fn spread<T: Copy>(v: &mut Vec<T>, alive: &[bool], fill: T) {
    let mut from = v.len();
    v.resize(alive.len(), fill);
    for to in (0..alive.len()).rev().filter(|&to| alive[to]) {
        from -= 1;
        if to != from {
            v[to] = v[from];
            v[from] = fill;
        }
    }
}

/// The entries of the logit layout that draw noise — the maximal runs of
/// entries in groups of two or more candidates — behind a handle that
/// can fill a noise buffer away from its [`CostModel`].
///
/// They are also the only entries whose gradient can be anything but
/// `+0.0`: `new` and [`CostModel::prune`] zero the gradient, the sub-net
/// backward never writes the path of a one-path group, and the tree
/// backward runs only over the nets of two or more trees.
#[derive(Debug, Clone)]
pub struct NoiseRuns(Arc<[Range<usize>]>);

impl NoiseRuns {
    fn new(geometry: &Geometry) -> NoiseRuns {
        let mut runs: Vec<Range<usize>> = Vec::new();
        let groupings = [
            (&geometry.net_tree_offsets, 0),
            (&geometry.subnet_path_offsets, geometry.num_trees()),
        ];
        for (offsets, base) in groupings {
            for w in offsets.windows(2) {
                let r = w[0] as usize..w[1] as usize;
                if r.len() < 2 {
                    continue;
                }
                match runs.last_mut() {
                    Some(last) if last.end == base + r.start => last.end = base + r.end,
                    _ => runs.push(base + r.start..base + r.end),
                }
            }
        }
        NoiseRuns(runs.into())
    }

    /// The runs, ascending and apart: outside them every gradient entry
    /// is exactly `+0.0`.
    pub fn runs(&self) -> &[Range<usize>] {
        &self.0
    }

    /// Draws fresh Gumbel(0, 1) noise into every such entry of `noise`
    /// (a buffer in the logit layout), in index order; the others keep
    /// what they hold.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is shorter than the layout.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, noise: &mut [f32]) {
        gumbel::fill_runs(rng, &self.0, noise);
    }
}

impl CostModel {
    /// Assembles the kernel for `shape` with `logits` (one per tree, then
    /// one per path) as its trainable leaves, noise at zero and
    /// temperature 1. The model copies the shape's columns into a
    /// [`Geometry`] of its own.
    ///
    /// # Errors
    ///
    /// Returns an [`AutodiffError`] naming the first offset table that is
    /// not a CSR partition, array of the wrong length, index outside its
    /// target, or run that is not a straight, non-empty segment.
    pub fn new(
        shape: &CostShape<'_>,
        terms: CostTerms,
        logits: Vec<f32>,
    ) -> Result<Self, AutodiffError> {
        let width = shape.width;
        let cells = u32::try_from(width * shape.height).unwrap_or(u32::MAX);
        // a run whose ends share a column takes the slots `cells` above them
        let slots = |&(low, high): &(u32, u32)| {
            let vertical = width > 0 && low as usize % width == high as usize % width;
            let base = if vertical { cells } else { 0 };
            (low.saturating_add(base), high.saturating_add(base))
        };
        let geometry = Geometry {
            net_tree_offsets: shape.net_tree_offsets.to_vec(),
            subnet_tree: shape.subnet_tree.to_vec(),
            subnet_path_offsets: shape.subnet_path_offsets.to_vec(),
            path_wl: shape.path_wl.to_vec(),
            path_run_offsets: shape.path_run_offsets.to_vec(),
            path_runs: shape.path_runs.iter().map(slots).collect(),
            path_via_offsets: shape.path_via_offsets.to_vec(),
            path_via_cells: shape.path_via_cells.to_vec(),
        };
        let grid = (shape.width, shape.height);
        Self::from_geometry(
            Arc::new(geometry),
            grid,
            shape.capacity,
            shape.beta,
            terms,
            logits,
        )
    }

    /// The kernel over a shared `geometry`, its runs in slot form, on a
    /// `width × height` grid: the model reads the columns through the
    /// `Arc` and copies none of them. Otherwise as [`Self::new`].
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn from_geometry(
        geometry: Arc<Geometry>,
        (width, height): (usize, usize),
        capacity: &[f32],
        beta: &[f32],
        terms: CostTerms,
        logits: Vec<f32>,
    ) -> Result<Self, AutodiffError> {
        if width == 0 || height == 0 {
            return Err(AutodiffError::ShapeMismatch {
                left: width,
                right: height,
            });
        }
        let cells = width * height;
        expect_len(beta.len(), cells)?;
        expect_len(capacity.len(), (width - 1) * height + width * (height - 1))?;
        geometry.check(width, height)?;
        let (trees, paths) = (geometry.num_trees(), geometry.num_paths());
        expect_len(logits.len(), trees + paths)?;

        let undecided = Undecided::new(&geometry);
        Ok(CostModel {
            width,
            height,
            cut: LaneCut::new(&geometry, &undecided),
            undecided,
            origin: None,
            noise_runs: NoiseRuns::new(&geometry),
            geometry,
            capacity: capacity.to_vec(),
            half_beta: beta.iter().map(|b| 0.5 * b).collect(),
            terms,
            noise: vec![0.0; logits.len()],
            temperature: 1.0,
            // the probability of a one-candidate group, never rewritten
            prob: vec![1.0; logits.len()],
            slots: vec![0.0; 2 * cells],
            cells: vec![0.0; cells],
            demand: vec![0.0; capacity.len()],
            wl_cost: 0.0,
            via_cost: 0.0,
            overflow_cost: 0.0,
            loss: 0.0,
            seed: vec![0.0; capacity.len()],
            tree_mass_grad: vec![0.0; trees],
            grad: vec![0.0; logits.len()],
            logits,
        })
    }

    /// Number of tree candidates (the length of `q`).
    pub fn num_trees(&self) -> usize {
        self.geometry.num_trees()
    }

    /// Number of path candidates (the length of `p`).
    pub fn num_paths(&self) -> usize {
        self.geometry.num_paths()
    }

    /// The groupings and geometry the passes read: the ones the model was
    /// built over until a [`Self::prune`] drops something, then the live
    /// rows the model holds of its own until [`Self::restore_layout`].
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Trainable tree logits.
    pub fn tree_logits(&self) -> &[f32] {
        &self.logits[..self.num_trees()]
    }

    /// Trainable path logits.
    pub fn path_logits(&self) -> &[f32] {
        &self.logits[self.num_trees()..]
    }

    /// Replaces every logit.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length is not the number of trees / paths.
    pub fn set_logits(&mut self, tree: &[f32], path: &[f32]) {
        let trees = self.num_trees();
        let (t, p) = self.logits.split_at_mut(trees);
        t.copy_from_slice(tree);
        p.copy_from_slice(path);
    }

    /// The noise added to the tree logits.
    pub fn tree_noise(&self) -> &[f32] {
        &self.noise[..self.num_trees()]
    }

    /// The noise added to the path logits.
    pub fn path_noise(&self) -> &[f32] {
        &self.noise[self.num_trees()..]
    }

    /// Draws fresh Gumbel(0, 1) noise for every logit of a group with two
    /// or more candidates, trees first, in index order.
    pub fn sample_noise<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.noise_runs.fill(rng, &mut self.noise);
    }

    /// The entries [`Self::sample_noise`] draws, for drawing the next
    /// iteration's noise into a second buffer while this one computes.
    pub fn noise_runs(&self) -> NoiseRuns {
        self.noise_runs.clone()
    }

    /// Trades the noise for `other`, a buffer [`NoiseRuns::fill`] drew
    /// into that holds zeros elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if `other` is not one entry per logit.
    pub fn swap_noise(&mut self, other: &mut Vec<f32>) {
        assert_eq!(
            other.len(),
            self.noise.len(),
            "a buffer in the logit layout"
        );
        std::mem::swap(&mut self.noise, other);
    }

    /// The sub-nets of the lower and of the upper lane (see the module
    /// docs); the upper range is empty when no net boundary splits the
    /// paths usefully.
    pub fn lanes(&self) -> [Range<usize>; 2] {
        [
            0..self.cut.subnet,
            self.cut.subnet..self.geometry.subnet_tree.len(),
        ]
    }

    fn lane_pair(&self) -> [Lane<'_>; 2] {
        let (runs, cut) = (&self.undecided.runs[..], self.cut.subnet as u32);
        let lower = Lane {
            runs: &runs[..runs.partition_point(|run| run.start < cut)],
            subnets: 0..cut,
            first_tree: 0,
            first_path: 0,
        };
        let upper = Lane {
            runs: &runs[runs.partition_point(|run| run.end <= cut)..],
            subnets: cut..u32::MAX,
            first_tree: self.cut.tree,
            first_path: self.cut.path,
        };
        [lower, upper]
    }

    /// How many sub-nets a pass still computes, and how many paths they
    /// hold: every sub-net but the empty ones and those with one path
    /// under the one tree of their net.
    pub fn undecided(&self) -> (usize, usize) {
        (self.undecided.subnets, self.undecided.paths)
    }

    /// The softmax temperature `τ` of the next pass.
    pub fn temperature(&self) -> f32 {
        self.temperature
    }

    /// Sets the softmax temperature `τ` of the next pass.
    pub fn set_temperature(&mut self, temperature: f32) {
        self.temperature = temperature;
    }

    /// Tree probabilities `q` of the last pass.
    pub fn q(&self) -> &[f32] {
        &self.prob[..self.num_trees()]
    }

    /// Path probabilities `p` of the last pass.
    pub fn p(&self) -> &[f32] {
        &self.prob[self.num_trees()..]
    }

    /// `q` then `p` of the last pass, as one vector of
    /// [`Self::num_trees`] + [`Self::num_paths`] entries; every other
    /// buffer of the model is freed.
    pub fn into_probabilities(self) -> Vec<f32> {
        self.prob
    }

    /// Expected demand `d_e` of each edge.
    pub fn demand(&self) -> &[f32] {
        &self.demand
    }

    /// Expected wirelength `Σ qp·WL`.
    pub fn wl_cost(&self) -> f32 {
        self.wl_cost
    }

    /// Expected via cost `√L · Σ qp·TP`.
    pub fn via_cost(&self) -> f32 {
        self.via_cost
    }

    /// Expected overflow `Σ_e f((d_e − cap_e)/s)`.
    pub fn overflow_cost(&self) -> f32 {
        self.overflow_cost
    }

    /// The weighted total of the three costs.
    pub fn loss(&self) -> f32 {
        self.loss
    }

    /// `∂loss/∂` tree logits of the last [`Self::backward`].
    pub fn tree_grad(&self) -> &[f32] {
        &self.grad[..self.num_trees()]
    }

    /// `∂loss/∂` path logits of the last [`Self::backward`].
    pub fn path_grad(&self) -> &[f32] {
        &self.grad[self.num_trees()..]
    }

    /// Every logit (trees, then paths) with its gradient — what one
    /// [`crate::Adam::step`] updates, or [`crate::Adam::step_runs`] over
    /// [`NoiseRuns::runs`].
    pub fn logits_and_grads(&mut self) -> (&mut [f32], &[f32]) {
        (&mut self.logits, &self.grad)
    }

    /// Heap bytes the model owns, capacity counted — the "device memory"
    /// figure of the scalability study (Fig. 5b analogue): every buffer,
    /// the second noise buffer a training loop draws ahead into, and after
    /// a [`Self::prune`] its live rows and what they were taken from. The
    /// geometry it was built over is its builder's, and not counted.
    pub fn bytes(&self) -> usize {
        let origin = self.origin.as_ref();
        held(&self.capacity)
            + held(&self.half_beta)
            + held(&self.undecided.runs)
            + held(&self.undecided.nets)
            + origin.map_or(0, |origin| held(&origin.alive) + self.geometry.bytes())
            + held(&self.logits)
            + 2 * held(&self.noise)
            + std::mem::size_of_val(self.noise_runs.runs())
            + held(&self.prob)
            + held(&self.demand)
            + held(&self.slots)
            + held(&self.cells)
            + held(&self.seed)
            + held(&self.tree_mass_grad)
            + held(&self.grad)
    }

    /// Drops the candidates annealing has decided against, and compacts
    /// every table to the ones still alive.
    ///
    /// Takes `q` and `p` without noise at the current temperature. A tree
    /// that is not the most probable of its net and has `q < below` goes,
    /// with all its sub-nets and their paths; a path that is not the most
    /// probable of its sub-net and has `p < below` goes. The leaves and
    /// the value and gradient buffers shrink in place and keep their
    /// order; the groupings and geometry the passes read become live rows
    /// the model holds of its own, built the first time from the shared
    /// geometry it was built over (which stays as it was) and rebuilt from
    /// its own rows by each later prune. So the model is simply a smaller
    /// model: [`Self::num_trees`], [`Self::num_paths`] and every slice
    /// accessor follow the live layout until [`Self::restore_layout`].
    /// The noise is zeroed — it was drawn for the old layout — and a group
    /// left with one candidate is a constant group from here on.
    ///
    /// Returns, per logit of the layout before the call, whether it stays
    /// (for [`crate::Adam::retain`]), or `None` — and then changes nothing
    /// but the values of `q` and `p` — when every candidate stays.
    ///
    /// Every pass after the call equals, bit for bit in loss, demand, seed
    /// and each surviving gradient entry, the pass of the unpruned model
    /// with the dropped logits at `−∞`: a probability of exactly 0 posts
    /// nothing, adds nothing to a sum it is part of, and multiplies its
    /// own gradient to 0. (One qualification: a group of eight or more
    /// candidates sums its exponentials in [`kernels::softmax_in_place`]'s
    /// eight stripes, which the survivors enter at other positions, so
    /// for such a group "equal" means to the last ulp. No group of the
    /// default L-shaped patterns and three-tree pools is that wide.)
    pub fn prune(&mut self, below: f32) -> Option<Vec<bool>> {
        self.probabilities();
        let geometry = &*self.geometry;
        let trees = geometry.num_trees();
        let mut keep = vec![false; self.prob.len()];
        let (q, p) = self.prob.split_at(trees);
        let (keep_tree, keep_path) = keep.split_at_mut(trees);
        for n in 0..geometry.num_nets() {
            keep_group(geometry.trees_of_net(n), q, below, keep_tree);
        }
        for (s, &tree) in geometry.subnet_tree.iter().enumerate() {
            if keep_tree[tree as usize] {
                keep_group(geometry.paths_of_subnet(s), p, below, keep_path);
            }
        }
        if keep.iter().all(|&k| k) {
            return None;
        }

        let (keep_tree, keep_path) = keep.split_at(trees);
        let live_rows = Arc::new(geometry.live_rows(keep_tree, keep_path));
        let was = std::mem::replace(&mut self.geometry, live_rows);
        match &mut self.origin {
            Some(origin) => {
                let was_alive = origin.alive.iter_mut().filter(|alive| **alive);
                was_alive.zip(&keep).for_each(|(alive, &k)| *alive = k);
            }
            None => {
                self.origin = Some(Origin {
                    alive: keep.clone(),
                    built: was,
                })
            }
        }
        retain_flagged(&mut self.logits, &keep);

        // what a pass computes is rewritten by the next one; what it leaves
        // alone — the noise, gradient and probability of a constant group —
        // is what `new` sets
        let (trees, paths) = (self.num_trees(), self.num_paths());
        for (buffer, fill) in [
            (&mut self.noise, 0.0),
            (&mut self.grad, 0.0),
            (&mut self.prob, 1.0),
        ] {
            buffer.truncate(trees + paths);
            buffer.fill(fill);
        }
        self.tree_mass_grad.truncate(trees);
        self.recut();
        Some(keep)
    }

    /// The undecided groups, the lane cut and the noise runs of the
    /// groupings as they now are.
    fn recut(&mut self) {
        self.undecided = Undecided::new(&self.geometry);
        self.cut = LaneCut::new(&self.geometry, &self.undecided);
        self.noise_runs = NoiseRuns::new(&self.geometry);
    }

    /// Puts a pruned model back in the layout it was built with, for the
    /// code that reads it by the forest's indices: the passes read the
    /// shared geometry the model was built over again — every dropped
    /// candidate with its own runs, turn cells and weights — and the
    /// model's live rows go. Every table and slice has its first length
    /// again, the survivors hold their logits, noise, probabilities and
    /// gradients, and a dropped candidate has a logit of `−∞` and a
    /// probability of exactly 0, which every later
    /// [`Self::probabilities`] or pass gives it again: a pass is, bit for
    /// bit, the pass of the model never pruned with the dropped logits at
    /// `−∞`. (The paths of a dropped tree come back level, at logit 0: the
    /// tree's `q = 0` is what silences them, and a group of nothing but
    /// `−∞` has no softmax.) Does nothing to a model that was never
    /// pruned.
    pub fn restore_layout(&mut self) {
        let Some(origin) = self.origin.take() else {
            return;
        };
        self.geometry = origin.built;
        let geometry = &*self.geometry;
        let trees = geometry.num_trees();
        spread(&mut self.logits, &origin.alive, f32::NEG_INFINITY);
        for zero_elsewhere in [&mut self.noise, &mut self.prob, &mut self.grad] {
            spread(zero_elsewhere, &origin.alive, 0.0);
        }
        // `q = 0` already weighs the sub-nets of a dropped tree at nothing;
        // their paths restart level, so that each is still a distribution
        // (and a lone path keeps the probability of a constant group)
        for (s, &tree) in geometry.subnet_tree.iter().enumerate() {
            if !origin.alive[tree as usize] {
                let group = geometry.paths_of_subnet(s);
                let level = 1.0 / group.len() as f32;
                self.logits[trees + group.start..trees + group.end].fill(0.0);
                self.prob[trees + group.start..trees + group.end].fill(level);
            }
        }
        self.tree_mass_grad.resize(trees, 0.0);
        self.recut();
    }

    /// A forward pass, returning `(loss, overflow, wirelength, via)`.
    pub fn evaluate(&mut self) -> (f32, f32, f32, f32) {
        self.forward();
        (self.loss, self.overflow_cost, self.wl_cost, self.via_cost)
    }

    /// `q` and `p` at the current temperature **without** noise — all the
    /// discrete read-out needs. Leaves every other value as it was.
    pub fn probabilities(&mut self) {
        let inv_tau = 1.0 / self.temperature;
        let geometry = &*self.geometry;
        let (w_tree, w_path) = self.logits.split_at(geometry.num_trees());
        let (q, p) = self.prob.split_at_mut(geometry.num_trees());
        softmax_groups(&geometry.net_tree_offsets, w_tree, inv_tau, q);
        softmax_groups(&geometry.subnet_path_offsets, w_path, inv_tau, p);
    }

    /// Computes every value from the current logits, noise and
    /// temperature, and the backward seed.
    pub fn forward(&mut self) {
        let inv_tau = 1.0 / self.temperature;
        let trees = self.num_trees();
        // the buffer the lanes write leaves `self`, which they share
        let mut prob = std::mem::take(&mut self.prob);
        let (q, p) = prob.split_at_mut(trees);
        for &n in &self.undecided.nets {
            let group = self.geometry.trees_of_net(n as usize);
            let noise = &self.noise[group.clone()];
            softmax_group(
                &self.logits[group.clone()],
                Some(noise),
                inv_tau,
                &mut q[group],
            );
        }

        let [lower, upper] = self.lane_pair();
        let (p_lower, p_upper) = p.split_at_mut(self.cut.path);
        let model = &*self;
        parallel::join(
            "train",
            "lane_fwd",
            || model.softmax_lane(lower, p_lower),
            || model.softmax_lane(upper, p_upper),
        );
        self.prob = prob;
        self.post_masses();
    }

    /// The rest of a forward pass once `q` and `p` are in place: the
    /// posts of every path's mass `q_tree · p`, formed as it is posted,
    /// the scans, the costs and the backward seed.
    fn post_masses(&mut self) {
        self.slots.fill(0.0);
        self.cells.fill(0.0);
        let geometry = &*self.geometry;
        let (q, p) = self.prob.split_at(geometry.num_trees());
        let (slots, cells) = (&mut self.slots[..], &mut self.cells[..]);
        let (runs, vias) = (&geometry.path_runs[..], &geometry.path_via_cells[..]);
        // each per-path column once, in path order: a path's runs and turn
        // cells end where the next path's begin
        let mut paths = p
            .iter()
            .zip(&geometry.path_wl)
            .zip(&geometry.path_run_offsets[1..])
            .zip(&geometry.path_via_offsets[1..]);
        let (mut run, mut via) = (0, 0);
        let (mut wl, mut turns) = (0.0f64, 0.0f64);
        let subnets = geometry.subnet_path_offsets.windows(2);
        for (group, &tree) in subnets.zip(&geometry.subnet_tree) {
            let q_tree = q[tree as usize];
            let group = paths.by_ref().take((group[1] - group[0]) as usize);
            for (((&p, &path_wl), &run_end), &via_end) in group {
                let mass = p * q_tree;
                let (run_end, via_end) = (run_end as usize, via_end as usize);
                let turn_cells = &vias[via..via_end];
                wl += f64::from(mass * path_wl);
                turns += f64::from(mass * turn_cells.len() as f32);
                for &(low, high) in &runs[run..run_end] {
                    slots[low as usize] += f64::from(mass);
                    slots[high as usize] -= f64::from(mass);
                }
                for &c in turn_cells {
                    cells[c as usize] += mass;
                }
                (run, via) = (run_end, via_end);
            }
        }
        self.finish_pass(wl, turns);
    }

    /// The end of a forward pass once the posts are in: the scans, the
    /// costs and the backward seed.
    fn finish_pass(&mut self, wl: f64, turns: f64) {
        let overflow = match self.terms.activation {
            Activation::Relu => self.scan_edges(|x| Activation::Relu.eval_grad(x)),
            Activation::Sigmoid => self.scan_edges(|x| Activation::Sigmoid.eval_grad(x)),
            Activation::LeakyRelu => self.scan_edges(|x| Activation::LeakyRelu.eval_grad(x)),
            Activation::Exp => self.scan_edges(|x| Activation::Exp.eval_grad(x)),
            Activation::Celu => self.scan_edges(|x| Activation::Celu.eval_grad(x)),
        };

        let via = f64::from(self.terms.sqrt_layers) * turns;
        self.wl_cost = wl as f32;
        self.via_cost = via as f32;
        self.overflow_cost = overflow as f32;
        self.loss = (f64::from(self.terms.overflow) * overflow
            + f64::from(self.terms.via) * via
            + f64::from(self.terms.wirelength) * wl) as f32;
    }

    /// The forward phase of one lane: the path softmax of each of its
    /// undecided sub-nets of two or more paths, into the lane's part of
    /// `p`.
    fn softmax_lane(&self, lane: Lane<'_>, p: &mut [f32]) {
        let inv_tau = 1.0 / self.temperature;
        let (geometry, trees) = (&*self.geometry, self.num_trees());
        let (w, noise) = (&self.logits[trees..], &self.noise[trees..]);
        for s in lane.undecided() {
            let group = geometry.paths_of_subnet(s);
            if group.len() >= 2 {
                let local = group.start - lane.first_path..group.end - lane.first_path;
                softmax_group(
                    &w[group.clone()],
                    Some(&noise[group]),
                    inv_tau,
                    &mut p[local],
                );
            }
        }
    }

    /// Scans the difference array into wire demand and visits every edge
    /// once: total demand, activation, backward seed. Returns `Σ f`.
    /// Generic over the activation so each variant gets a loop of its own.
    fn scan_edges(&mut self, activation: impl Fn(f32) -> (f32, f32)) -> f64 {
        let (width, height) = (self.width, self.height);
        let cells = width * height;
        let h_edges = (width - 1) * height;
        let inv_scale = 1.0 / self.terms.overflow_scale;
        let seed_scale = self.terms.overflow * inv_scale;
        let (half_beta, vp, capacity) = (&self.half_beta, &self.cells, &self.capacity);
        let (demand, seed) = (&mut self.demand, &mut self.seed);
        let mut overflow = 0.0f64;
        let mut visit = |e: usize, wire: f64, a: usize, b: usize| {
            let d = wire as f32 + half_beta[a] * vp[a] + half_beta[b] * vp[b];
            demand[e] = d;
            let (f, slope) = activation((d - capacity[e]) * inv_scale);
            seed[e] = seed_scale * slope;
            overflow += f64::from(f);
        };

        let (diff_h, diff_v) = self.slots.split_at_mut(cells);
        for y in 0..height {
            let mut wire = 0.0f64;
            for x in 0..width - 1 {
                let c = y * width + x;
                wire += diff_h[c];
                visit(y * (width - 1) + x, wire, c, c + 1);
            }
        }
        // down the columns, all columns of a row at a time: slot `c` holds
        // the running sum of its column once row `y − 1` has pushed it on
        for c in 0..width * (height - 1) {
            let wire = diff_v[c];
            diff_v[c + width] += wire;
            visit(h_edges + c, wire, c, c + width);
        }
        overflow
    }

    /// Computes `∂loss/∂logits` of the last [`Self::forward`].
    pub fn backward(&mut self) {
        self.prefix_seed();

        let inv_tau = 1.0 / self.temperature;
        let trees = self.num_trees();
        // the buffers the lanes write leave `self`, which they share
        let mut grad = std::mem::take(&mut self.grad);
        let mut tree_mass_grad = std::mem::take(&mut self.tree_mass_grad);
        tree_mass_grad.fill(0.0);
        let (grad_tree, grad_path) = grad.split_at_mut(trees);
        let [lower, upper] = self.lane_pair();
        let (grad_lower, grad_upper) = grad_path.split_at_mut(self.cut.path);
        let (tree_lower, tree_upper) = tree_mass_grad.split_at_mut(self.cut.tree);
        let model = &*self;
        parallel::join(
            "train",
            "lane_bwd",
            || model.grad_lane(lower, grad_lower, tree_lower),
            || model.grad_lane(upper, grad_upper, tree_upper),
        );

        let q = &self.prob[..trees];
        for &n in &self.undecided.nets {
            let group = self.geometry.trees_of_net(n as usize);
            let top = group.clone().max_by(|&a, &b| q[a].total_cmp(&q[b]));
            let top_grad = tree_mass_grad[top.expect("two or more trees")];
            let relative = |t: usize| tree_mass_grad[t] - top_grad;
            let mean: f64 = group.clone().map(|t| f64::from(q[t]) * relative(t)).sum();
            for t in group {
                grad_tree[t] = inv_tau * q[t] * (relative(t) - mean) as f32;
            }
        }
        self.grad = grad;
        self.tree_mass_grad = tree_mass_grad;
    }

    /// Prefix sums of the seed into every slot, and the seed mass around
    /// every cell, times `½β`, into every cell.
    fn prefix_seed(&mut self) {
        let (width, height) = (self.width, self.height);
        let cells = width * height;
        let h_edges = (width - 1) * height;
        let cell_grad = &mut self.cells;
        cell_grad.fill(0.0);
        let (prefix_h, prefix_v) = self.slots.split_at_mut(cells);
        for y in 0..height {
            let mut sum = 0.0f64;
            for x in 0..width - 1 {
                let c = y * width + x;
                let s = self.seed[y * (width - 1) + x];
                prefix_h[c] = sum;
                sum += f64::from(s);
                cell_grad[c] += s;
                cell_grad[c + 1] += s;
            }
            prefix_h[y * width + width - 1] = sum;
        }
        prefix_v[..width].fill(0.0);
        for c in 0..width * (height - 1) {
            let s = self.seed[h_edges + c];
            prefix_v[c + width] = prefix_v[c] + f64::from(s);
            cell_grad[c] += s;
            cell_grad[c + width] += s;
        }
        for (g, half_beta) in cell_grad.iter_mut().zip(&self.half_beta) {
            *g *= half_beta;
        }
    }

    /// `∂loss/∂qp_i` of path `i`, from the prefix sums and cell gradients
    /// of this backward pass.
    fn mass_grad(&self, i: usize) -> f64 {
        let (geometry, terms) = (&*self.geometry, &self.terms);
        let turn_weight = terms.via * terms.sqrt_layers;
        let vias = geometry.vias_of_path(i);
        let mut g =
            f64::from(terms.wirelength * geometry.path_wl[i] + turn_weight * vias.len() as f32);
        for &(low, high) in geometry.runs_of_path(i) {
            g += self.slots[high as usize] - self.slots[low as usize];
        }
        for &c in vias {
            g += f64::from(self.cells[c as usize]);
        }
        g
    }

    /// The backward phase of one lane: the softmax backward of each of
    /// its undecided sub-nets into the lane's part of the path gradient,
    /// and each group's `Σ p·g` into the lane's part of `tree_mass_grad`.
    ///
    /// The softmax backward of a group is `prob_i · (g_i − Σ_k prob_k·g_k)`.
    /// Late in training one candidate has nearly all the mass, the sum
    /// is nearly its `g`, and `Σ prob` is 1 only to rounding: taken
    /// literally the difference is rounding noise as large as the
    /// gradient. So every `g` is taken relative to that of the most
    /// probable candidate, in f64: the differences are exact, and the
    /// mean is a sum over the *small* probabilities only.
    fn grad_lane(&self, lane: Lane<'_>, grad_path: &mut [f32], tree_mass_grad: &mut [f64]) {
        let inv_tau = 1.0 / self.temperature;
        let (q, p) = self.prob.split_at(self.num_trees());
        for s in lane.undecided() {
            let group = self.geometry.paths_of_subnet(s);
            let tree = self.geometry.subnet_tree[s] as usize;
            let top = group.clone().max_by(|&a, &b| p[a].total_cmp(&p[b]));
            let top = top.expect("an undecided sub-net has a path");
            let grad_path =
                &mut grad_path[group.start - lane.first_path..group.end - lane.first_path];
            let top_grad = self.mass_grad(top);
            let mut mean = 0.0f64;
            for i in group.clone().filter(|&i| i != top) {
                let g = self.mass_grad(i) - top_grad;
                grad_path[i - group.start] = g as f32;
                mean += g * f64::from(p[i]);
            }
            // Σ_k p_k·g_k — all of `g` when the one path has p = 1
            tree_mass_grad[tree - lane.first_tree] += top_grad + mean;
            if group.len() >= 2 {
                grad_path[top - group.start] = 0.0;
                let scale = q[tree] * inv_tau;
                for (g, p) in grad_path.iter_mut().zip(&p[group]) {
                    *g = scale * p * (*g - mean as f32);
                }
            }
        }
    }
}

/// The noise-free [`softmax_group`] of every group of two or more
/// candidates; the probability of a lone candidate stays the 1 it was
/// initialised to.
fn softmax_groups(offsets: &[u32], w: &[f32], inv_tau: f32, out: &mut [f32]) {
    for g in offsets.windows(2) {
        let r = g[0] as usize..g[1] as usize;
        if r.len() >= 2 {
            softmax_group(&w[r.clone()], None, inv_tau, &mut out[r]);
        }
    }
}

/// `out = softmax((w + noise) / τ)` over one candidate group. The scaled
/// logits go through `out` itself: a lane touches no memory but its own.
fn softmax_group(w: &[f32], noise: Option<&[f32]>, inv_tau: f32, out: &mut [f32]) {
    match noise {
        Some(noise) => {
            for ((o, w), g) in out.iter_mut().zip(w).zip(noise) {
                *o = (w + g) * inv_tau;
            }
        }
        None => {
            for (o, w) in out.iter_mut().zip(w) {
                *o = w * inv_tau;
            }
        }
    }
    kernels::softmax_in_place(out);
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the reference loops prune and step every logit
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    type Cell = (usize, usize);

    /// A random forest-shaped problem on a small grid, with each path's
    /// edges listed one by one for the naive reference.
    struct Problem {
        width: usize,
        height: usize,
        net_tree_offsets: Vec<u32>,
        subnet_tree: Vec<u32>,
        subnet_path_offsets: Vec<u32>,
        path_wl: Vec<f32>,
        path_run_offsets: Vec<u32>,
        path_runs: Vec<(u32, u32)>,
        path_via_offsets: Vec<u32>,
        path_via_cells: Vec<u32>,
        capacity: Vec<f32>,
        beta: Vec<f32>,
        path_edges: Vec<Vec<usize>>,
    }

    impl Problem {
        /// 1–4 nets of 1–3 trees of 0–3 sub-nets; a sub-net between two
        /// random cells has its straight path or both L-shapes and, half
        /// the time, a detour that doubles back over its own first leg.
        fn random(seed: u64) -> Problem {
            let mut rng = StdRng::seed_from_u64(seed);
            let (width, height) = (rng.gen_range(1..7usize), rng.gen_range(1..7usize));
            let edges = (width - 1) * height + width * (height - 1);
            let mut p = Problem {
                width,
                height,
                net_tree_offsets: vec![0],
                subnet_tree: vec![],
                subnet_path_offsets: vec![0],
                path_wl: vec![],
                path_run_offsets: vec![0],
                path_runs: vec![],
                path_via_offsets: vec![0],
                path_via_cells: vec![],
                capacity: (0..edges).map(|_| rng.gen_range(0.0..2.0)).collect(),
                beta: (0..width * height)
                    .map(|_| rng.gen_range(0.0..2.0))
                    .collect(),
                path_edges: vec![],
            };
            let mut trees = 0u32;
            for _net in 0..rng.gen_range(1..5) {
                for _tree in 0..rng.gen_range(1..4) {
                    for _subnet in 0..rng.gen_range(0..4) {
                        p.subnet_tree.push(trees);
                        let a = (rng.gen_range(0..width), rng.gen_range(0..height));
                        let b = (rng.gen_range(0..width), rng.gen_range(0..height));
                        p.push_path(&[a, (b.0, a.1), b]);
                        if a.0 != b.0 && a.1 != b.1 {
                            p.push_path(&[a, (a.0, b.1), b]);
                            if rng.gen_range(0..2) == 0 {
                                p.push_path(&[a, (width - 1, a.1), (b.0, a.1), b]);
                            }
                        }
                        p.subnet_path_offsets.push(p.path_wl.len() as u32);
                    }
                    trees += 1;
                }
                p.net_tree_offsets.push(trees);
            }
            p
        }

        fn push_path(&mut self, corners: &[Cell]) {
            let cell = |(x, y): Cell| (y * self.width + x) as u32;
            let h_edges = (self.width - 1) * self.height;
            let mut edges = Vec::new();
            for w in corners.windows(2) {
                let (a, b) = (w[0], w[1]);
                if a == b {
                    continue;
                }
                self.path_runs
                    .push((cell(a).min(cell(b)), cell(a).max(cell(b))));
                if a.1 == b.1 {
                    edges.extend((a.0.min(b.0)..a.0.max(b.0)).map(|x| a.1 * (self.width - 1) + x));
                } else {
                    edges.extend(
                        (a.1.min(b.1)..a.1.max(b.1)).map(|y| h_edges + y * self.width + a.0),
                    );
                }
            }
            for w in corners.windows(3) {
                if w[0] != w[1] && w[1] != w[2] {
                    self.path_via_cells.push(cell(w[1]));
                }
            }
            self.path_wl.push(edges.len() as f32);
            self.path_run_offsets.push(self.path_runs.len() as u32);
            self.path_via_offsets.push(self.path_via_cells.len() as u32);
            self.path_edges.push(edges);
        }

        fn shape(&self) -> CostShape<'_> {
            CostShape {
                width: self.width,
                height: self.height,
                net_tree_offsets: &self.net_tree_offsets,
                subnet_tree: &self.subnet_tree,
                subnet_path_offsets: &self.subnet_path_offsets,
                path_wl: &self.path_wl,
                path_run_offsets: &self.path_run_offsets,
                path_runs: &self.path_runs,
                path_via_offsets: &self.path_via_offsets,
                path_via_cells: &self.path_via_cells,
                capacity: &self.capacity,
                beta: &self.beta,
            }
        }

        fn num_logits(&self) -> usize {
            *self.net_tree_offsets.last().unwrap() as usize + self.path_wl.len()
        }

        /// The kernel over this problem with random logits, fresh noise
        /// and a temperature of ½, 1 or 2.
        fn model(&self, terms: CostTerms, seed: u64) -> CostModel {
            let mut rng = StdRng::seed_from_u64(seed);
            let logits = (0..self.num_logits())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let mut model = CostModel::new(&self.shape(), terms, logits).unwrap();
            model.sample_noise(&mut rng);
            model.set_temperature([0.5, 1.0, 2.0][seed as usize % 3]);
            model
        }

        /// Eqs. 9–12 edge by edge in f64 at `logits` and `model`'s noise
        /// and temperature: `(loss, demand)`.
        fn reference(
            &self,
            terms: &CostTerms,
            logits: &[f32],
            model: &CostModel,
        ) -> (f64, Vec<f64>) {
            let tau = f64::from(model.temperature());
            let softmax = |offsets: &[u32], w: &[f32], noise: &[f32]| -> Vec<f64> {
                let mut out = vec![0.0; w.len()];
                for g in offsets.windows(2) {
                    let r = g[0] as usize..g[1] as usize;
                    let z: Vec<f64> = r
                        .clone()
                        .map(|i| (f64::from(w[i]) + f64::from(noise[i])) / tau)
                        .collect();
                    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let sum: f64 = z.iter().map(|v| (v - m).exp()).sum();
                    for (i, v) in r.zip(&z) {
                        out[i] = (v - m).exp() / sum;
                    }
                }
                out
            };
            let (w_tree, w_path) = logits.split_at(model.num_trees());
            let q = softmax(&self.net_tree_offsets, w_tree, model.tree_noise());
            let p = softmax(&self.subnet_path_offsets, w_path, model.path_noise());
            let mut demand = vec![0.0f64; self.capacity.len()];
            let mut vp = vec![0.0f64; self.beta.len()];
            let (mut wl, mut turns) = (0.0, 0.0);
            for (i, p_i) in p.iter().enumerate() {
                let s = self
                    .subnet_path_offsets
                    .partition_point(|&o| o as usize <= i)
                    - 1;
                let mass = p_i * q[self.subnet_tree[s] as usize];
                let vias = self.path_via_offsets[i] as usize..self.path_via_offsets[i + 1] as usize;
                wl += mass * f64::from(self.path_wl[i]);
                turns += mass * vias.len() as f64;
                for &e in &self.path_edges[i] {
                    demand[e] += mass;
                }
                for &c in &self.path_via_cells[vias] {
                    vp[c as usize] += mass;
                }
            }
            let h_edges = (self.width - 1) * self.height;
            let mut overflow = 0.0;
            for (e, d) in demand.iter_mut().enumerate() {
                let (a, b) = if e < h_edges {
                    let c = e / (self.width - 1) * self.width + e % (self.width - 1);
                    (c, c + 1)
                } else {
                    (e - h_edges, e - h_edges + self.width)
                };
                *d += 0.5 * (f64::from(self.beta[a]) * vp[a] + f64::from(self.beta[b]) * vp[b]);
                let x = (*d - f64::from(self.capacity[e])) / f64::from(terms.overflow_scale);
                overflow += match terms.activation {
                    Activation::Relu => x.max(0.0),
                    Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
                    Activation::LeakyRelu => x.max(0.01 * x),
                    Activation::Exp => x.min(20.0).exp(),
                    Activation::Celu => x.max(0.0) + (x.min(0.0).exp() - 1.0),
                };
            }
            let loss = f64::from(terms.overflow) * overflow
                + f64::from(terms.via * terms.sqrt_layers) * turns
                + f64::from(terms.wirelength) * wl;
            (loss, demand)
        }
    }

    fn terms(activation: Activation) -> CostTerms {
        CostTerms {
            wirelength: 0.5,
            via: 4.0,
            overflow: 500.0,
            sqrt_layers: 5f32.sqrt(),
            activation,
            overflow_scale: 2.0,
        }
    }

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn forward_matches_the_edge_by_edge_reference() {
        for seed in 0..60 {
            let problem = Problem::random(seed);
            let terms = terms(Activation::ALL[seed as usize % 5]);
            let mut model = problem.model(terms, seed);
            let (loss, ..) = model.evaluate();
            let (want, demand) = problem.reference(&terms, &model.logits, &model);
            assert!(
                close(f64::from(loss), want, 1e-5),
                "seed {seed}: {loss} vs {want}"
            );
            for (e, (&got, &want)) in model.demand().iter().zip(&demand).enumerate() {
                assert!(
                    close(f64::from(got), want, 1e-5),
                    "seed {seed} edge {e}: {got} vs {want}"
                );
            }
            // a second pass starts from a clean difference array
            assert_eq!(model.evaluate().0, loss, "seed {seed}");
        }
    }

    #[test]
    fn backward_matches_central_differences() {
        let smooth = [Activation::Sigmoid, Activation::Celu, Activation::Exp];
        for seed in 0..60 {
            let problem = Problem::random(seed);
            let terms = terms(smooth[seed as usize % 3]);
            let mut model = problem.model(terms, seed);
            model.forward();
            model.backward();
            let logits = model.logits.clone();
            for j in 0..logits.len() {
                let (mut up, mut down) = (logits.clone(), logits.clone());
                up[j] += 1e-3;
                down[j] -= 1e-3;
                let want = (problem.reference(&terms, &up, &model).0
                    - problem.reference(&terms, &down, &model).0)
                    / f64::from(up[j] - down[j]);
                assert!(
                    close(f64::from(model.grad[j]), want, 1e-3),
                    "seed {seed} logit {j}: {} vs {want}",
                    model.grad[j]
                );
            }
        }
    }

    #[test]
    fn one_candidate_groups_are_constants() {
        let mut checked = 0;
        for seed in 0..20 {
            let problem = Problem::random(seed);
            let mut model = problem.model(terms(Activation::Sigmoid), seed);
            model.noise.fill(0.0);
            let trees = model.num_trees();
            let single = |offsets: &[u32], base: usize| -> Vec<usize> {
                let lone = offsets.windows(2).filter(|g| g[1] - g[0] == 1);
                lone.map(|g| base + g[0] as usize).collect()
            };
            let mut constants = single(&problem.net_tree_offsets, 0);
            constants.extend(single(&problem.subnet_path_offsets, trees));
            let before: Vec<u32> = model.logits.iter().map(|w| w.to_bits()).collect();
            let mut adam = crate::Adam::new(before.len(), 0.3);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                model.sample_noise(&mut rng);
                model.forward();
                model.backward();
                let (w, g) = model.logits_and_grads();
                adam.step(w, g);
            }
            for &i in &constants {
                assert_eq!(model.prob[i], 1.0, "seed {seed} entry {i}");
                assert_eq!(model.noise[i], 0.0, "seed {seed} entry {i}");
                assert_eq!(model.grad[i], 0.0, "seed {seed} entry {i}");
                assert_eq!(
                    model.logits[i].to_bits(),
                    before[i],
                    "seed {seed} entry {i}"
                );
            }
            checked += constants.len();
        }
        assert!(checked > 50, "only {checked} one-candidate groups");
    }

    #[test]
    fn noise_runs_draw_what_the_reference_draws_run_by_run() {
        for seed in 0..200 {
            let model = Problem::random(seed).model(terms(Activation::Sigmoid), seed);
            let runs = model.noise_runs();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut got = vec![3.0f32; model.logits.len()];
            let mut want = got.clone();
            for _ in 0..50 {
                runs.fill(&mut a, &mut got);
                for run in runs.0.iter() {
                    gumbel::reference_fill(&mut b, &mut want[run.clone()]);
                }
            }
            let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn outside_the_noise_runs_every_gradient_is_plus_zero() {
        let mut outside = 0;
        for seed in 0..200 {
            let mut model = Problem::random(seed).model(terms(Activation::Sigmoid), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            // as built, then after a prune that leaves groups of one
            for below in [None, Some(0.3)] {
                if let Some(below) = below {
                    model.prune(below);
                }
                for _ in 0..3 {
                    model.sample_noise(&mut rng);
                    model.forward();
                    model.backward();
                    let runs = model.noise_runs();
                    let inside = |i: usize| runs.runs().iter().any(|r| r.contains(&i));
                    for i in (0..model.grad.len()).filter(|&i| !inside(i)) {
                        assert_eq!(model.grad[i].to_bits(), 0, "seed {seed} entry {i}");
                        outside += 1;
                    }
                }
            }
        }
        assert!(outside > 500, "only {outside} entries outside the runs");
    }

    /// The indices `keep` flags.
    fn flagged(keep: Vec<bool>) -> Vec<u32> {
        let indices = (0..).zip(keep).filter_map(|(i, k)| k.then_some(i));
        indices.collect()
    }

    /// Everything a pass computes, as bits: the costs, every demand and
    /// seed, and the gradient of the logits at `kept`.
    fn pass_bits(model: &mut CostModel, kept: &[u32]) -> Vec<u32> {
        model.forward();
        model.backward();
        let costs = [
            model.loss,
            model.wl_cost,
            model.via_cost,
            model.overflow_cost,
        ];
        let grad = kept.iter().map(|&k| model.grad[k as usize]);
        let values = costs.into_iter().chain(model.demand.iter().copied());
        let all = values.chain(model.seed.iter().copied()).chain(grad);
        all.map(f32::to_bits).collect()
    }

    #[test]
    fn pruned_kernel_equals_full_kernel_with_dead_logits_at_minus_infinity() {
        let (mut nothing_to_drop, mut lone_trees, mut lone_paths) = (0, 0, 0);
        for seed in 0..200 {
            let problem = Problem::random(seed);
            let mut full = problem.model(terms(Activation::ALL[seed as usize % 5]), seed);
            let mut pruned = full.clone();
            let everything: Vec<u32> = (0..full.logits.len() as u32).collect();
            // the first threshold of each pair is out of reach at these
            // logits, the second takes all but the winners
            let [first, second] = [[0.0, 0.3], [0.2, 0.4], [0.3, 1.0]][seed as usize % 3];

            let Some(kept) = pruned.prune(first).map(flagged) else {
                pruned.noise.copy_from_slice(&full.noise);
                assert_eq!(pruned.logits, full.logits, "seed {seed}");
                assert_eq!(
                    pass_bits(&mut pruned, &everything),
                    pass_bits(&mut full, &everything),
                    "seed {seed}: a prune that drops nothing changed a pass"
                );
                nothing_to_drop += 1;
                continue;
            };
            assert!(kept.len() < everything.len() && kept.windows(2).all(|w| w[0] < w[1]));
            let mut live = kept.clone();
            for round in 0..2 {
                // what was dropped is at −∞ in the full model, and the
                // survivors hear the same noise in both
                let mut logits = vec![f32::NEG_INFINITY; everything.len()];
                // (the paths of a dropped tree are silenced by its `q`)
                let trees = full.num_trees();
                for (s, &tree) in problem.subnet_tree.iter().enumerate() {
                    if !live.contains(&tree) {
                        let group = full.geometry.paths_of_subnet(s);
                        logits[trees + group.start..trees + group.end].fill(0.0);
                    }
                }
                for (j, &k) in live.iter().enumerate() {
                    logits[k as usize] = pruned.logits[j];
                    pruned.noise[j] = full.noise[k as usize];
                }
                full.logits = logits;
                let here: Vec<u32> = (0..live.len() as u32).collect();
                assert_eq!(
                    pass_bits(&mut pruned, &here),
                    pass_bits(&mut full, &live),
                    "seed {seed} round {round}"
                );
                let lone =
                    |offsets: &[u32]| offsets.windows(2).filter(|g| g[1] - g[0] == 1).count();
                lone_trees += lone(&pruned.geometry.net_tree_offsets);
                lone_paths += lone(&pruned.geometry.subnet_path_offsets);
                if round == 0 {
                    // a second prune composes with the first
                    match pruned.prune(second).map(flagged) {
                        Some(kept) => live = kept.iter().map(|&j| live[j as usize]).collect(),
                        None => break,
                    }
                }
            }

            // back in the first layout the pruned model *is* the full one
            // (a pass first: a prune that drops nothing still rewrites p)
            pruned.forward();
            pruned.restore_layout();
            assert_eq!(
                pruned.lanes(),
                problem.model(terms(Activation::Relu), 0).lanes()
            );
            let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pruned.logits), bits(&full.logits), "seed {seed}");
            // the survivors as the last pass left them, nothing for the
            // rest, and level odds under a dropped tree
            let mut noise = vec![0.0; everything.len()];
            let mut prob = vec![0.0; everything.len()];
            for &k in &live {
                noise[k as usize] = full.noise[k as usize];
                prob[k as usize] = full.prob[k as usize];
            }
            let trees = full.num_trees();
            for (s, &tree) in problem.subnet_tree.iter().enumerate() {
                if !live.contains(&tree) {
                    let group = full.geometry.paths_of_subnet(s);
                    let level = 1.0 / group.len() as f32;
                    prob[trees + group.start..trees + group.end].fill(level);
                }
            }
            assert_eq!(bits(&pruned.noise), bits(&noise), "seed {seed}");
            assert_eq!(bits(&pruned.prob), bits(&prob), "seed {seed}");
            assert_eq!(
                pass_bits(&mut pruned, &live),
                pass_bits(&mut full, &live),
                "seed {seed}: restored"
            );
            // the read-out gives every dropped candidate a weight of zero
            full.probabilities();
            pruned.probabilities();
            assert_eq!(bits(&pruned.prob), bits(&full.prob), "seed {seed}");
            let (q, p) = (pruned.q(), pruned.p());
            for (s, &tree) in problem.subnet_tree.iter().enumerate() {
                for i in pruned.geometry.paths_of_subnet(s) {
                    let lives = live.contains(&((q.len() + i) as u32));
                    assert_eq!(
                        q[tree as usize] * p[i] == 0.0,
                        !lives,
                        "seed {seed} path {i}"
                    );
                }
            }
            for i in (0..everything.len()).filter(|&i| !live.contains(&(i as u32))) {
                assert_eq!(pruned.grad[i], 0.0, "seed {seed} entry {i}");
                assert!(i >= q.len() || q[i] == 0.0, "seed {seed} tree {i}");
            }
        }
        assert!(
            nothing_to_drop > 10,
            "{nothing_to_drop} prunes dropped nothing"
        );
        assert!(
            lone_trees > 100 && lone_paths > 100,
            "{lone_trees} {lone_paths}"
        );
    }

    impl CostModel {
        /// [`CostModel::forward`] as it was before the passes followed the
        /// undecided set and before the posts formed the masses: every net
        /// in the tree softmax, every sub-net in the sub-net loop (one
        /// after another: the lanes share no element), every mass written
        /// to a buffer of its own, then posted in one flat loop over the
        /// paths. Returns the masses.
        fn reference_forward(&mut self) -> Vec<f32> {
            let inv_tau = 1.0 / self.temperature;
            let trees = self.num_trees();
            let mut mass = vec![f32::NAN; self.num_paths()];
            let (q, p) = self.prob.split_at_mut(trees);
            let (w, noise) = (&self.logits[trees..], &self.noise[trees..]);
            for n in 0..self.geometry.num_nets() {
                let group = self.geometry.trees_of_net(n);
                if group.len() >= 2 {
                    let noise = &self.noise[group.clone()];
                    softmax_group(
                        &self.logits[group.clone()],
                        Some(noise),
                        inv_tau,
                        &mut q[group],
                    );
                }
            }
            for s in 0..self.geometry.subnet_tree.len() {
                let group = self.geometry.paths_of_subnet(s);
                if group.len() >= 2 {
                    let noise = &noise[group.clone()];
                    softmax_group(
                        &w[group.clone()],
                        Some(noise),
                        inv_tau,
                        &mut p[group.clone()],
                    );
                }
                let q_tree = q[self.geometry.subnet_tree[s] as usize];
                for i in group {
                    mass[i] = p[i] * q_tree;
                }
            }
            self.slots.fill(0.0);
            self.cells.fill(0.0);
            let geometry = &*self.geometry;
            let (mut wl, mut turns) = (0.0f64, 0.0f64);
            for (i, &mass) in mass.iter().enumerate() {
                wl += f64::from(mass * geometry.path_wl[i]);
                turns += f64::from(mass * geometry.turns_of_path(i));
                for &(low, high) in geometry.runs_of_path(i) {
                    self.slots[low as usize] += f64::from(mass);
                    self.slots[high as usize] -= f64::from(mass);
                }
                for &c in geometry.vias_of_path(i) {
                    self.cells[c as usize] += mass;
                }
            }
            self.finish_pass(wl, turns);
            mass
        }

        /// [`CostModel::backward`] as it was then: every sub-net, a lone
        /// path of a lone tree included, and every net.
        fn reference_backward(&mut self) {
            self.prefix_seed();
            let inv_tau = 1.0 / self.temperature;
            let trees = self.num_trees();
            let mut grad = std::mem::take(&mut self.grad);
            let mut tree_mass_grad = vec![0.0f64; trees];
            let (grad_tree, grad_path) = grad.split_at_mut(trees);
            let (q, p) = self.prob.split_at(trees);
            for s in 0..self.geometry.subnet_tree.len() {
                let group = self.geometry.paths_of_subnet(s);
                let tree = self.geometry.subnet_tree[s] as usize;
                let Some(top) = group.clone().max_by(|&a, &b| p[a].total_cmp(&p[b])) else {
                    continue;
                };
                let grad_path = &mut grad_path[group.clone()];
                let top_grad = self.mass_grad(top);
                let mut mean = 0.0f64;
                for i in group.clone().filter(|&i| i != top) {
                    let g = self.mass_grad(i) - top_grad;
                    grad_path[i - group.start] = g as f32;
                    mean += g * f64::from(p[i]);
                }
                tree_mass_grad[tree] += top_grad + mean;
                if group.len() >= 2 {
                    grad_path[top - group.start] = 0.0;
                    let scale = q[tree] * inv_tau;
                    for (g, p) in grad_path.iter_mut().zip(&p[group]) {
                        *g = scale * p * (*g - mean as f32);
                    }
                }
            }
            for n in 0..self.geometry.num_nets() {
                let group = self.geometry.trees_of_net(n);
                if group.len() < 2 {
                    continue;
                }
                let top = group.clone().max_by(|&a, &b| q[a].total_cmp(&q[b]));
                let top_grad = tree_mass_grad[top.expect("two or more trees")];
                let relative = |t: usize| tree_mass_grad[t] - top_grad;
                let mean: f64 = group.clone().map(|t| f64::from(q[t]) * relative(t)).sum();
                for t in group {
                    grad_tree[t] = inv_tau * q[t] * (relative(t) - mean) as f32;
                }
            }
            self.grad = grad;
        }
    }

    /// The mass `q_tree · p_i` of every path, in path order, as the posts
    /// form it.
    fn masses(model: &CostModel) -> Vec<f32> {
        let geometry = &*model.geometry;
        let (q, p) = (model.q(), model.p());
        let of_subnet = |s: usize| {
            let q_tree = q[geometry.subnet_tree[s] as usize];
            geometry.paths_of_subnet(s).map(move |i| p[i] * q_tree)
        };
        (0..geometry.subnet_tree.len())
            .flat_map(of_subnet)
            .collect()
    }

    /// Everything a pass and the update after it leave behind, as bits:
    /// the costs, every demand, seed, mass, probability, gradient and
    /// logit.
    fn state_bits(model: &CostModel) -> Vec<u32> {
        let costs = [
            model.loss,
            model.wl_cost,
            model.via_cost,
            model.overflow_cost,
        ];
        let masses = masses(model);
        let buffers = [
            &model.demand,
            &model.seed,
            &masses,
            &model.prob,
            &model.grad,
            &model.logits,
        ];
        let all = costs.iter().chain(buffers.into_iter().flatten());
        all.map(|v| v.to_bits()).collect()
    }

    /// A pass of `model`, which must leave what the reference pass of a
    /// copy leaves, the masses the reference stored included.
    fn assert_a_pass_is_the_references(model: &mut CostModel, context: &str) {
        let mut reference = model.clone();
        let mass = reference.reference_forward();
        reference.reference_backward();
        model.forward();
        model.backward();
        assert!(state_bits(model) == state_bits(&reference), "{context}");
        assert!(bits(&masses(model)) == bits(&mass), "{context}");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn the_passes_over_the_undecided_set_equal_the_reference_over_every_group() {
        let (mut nothing_frozen, mut all_frozen, mut collapsed) = (0, 0, 0);
        let (mut runs, mut listed) = (0, 0);
        for seed in 0..150u64 {
            let problem = Problem::random(seed);
            let terms = terms(Activation::ALL[seed as usize % 5]);
            // the first threshold of each triple is out of reach at these
            // logits, the last takes all but the winners
            let thresholds = [[0.0, 0.3], [0.2, 0.4], [0.3, 2.0]][seed as usize % 3];
            for threads in [1, 2, 8] {
                parallel::with_threads(threads, || {
                    let _helper = parallel::Helper::engage();
                    let mut model = problem.model(terms, seed);
                    let mut reference = model.clone();
                    let mut rng = StdRng::seed_from_u64(!seed);
                    let new_adams = |n: usize| [crate::Adam::new(n, 0.3), crate::Adam::new(n, 0.3)];
                    let mut adams = new_adams(model.logits.len());
                    // as built, after each of two prunes, back in the
                    // first layout: three updates each
                    for stage in 0..4 {
                        let two_lanes = !model.lanes()[1].is_empty();
                        match stage {
                            0 => {}
                            3 => {
                                model.restore_layout();
                                reference.restore_layout();
                                adams = new_adams(model.logits.len());
                            }
                            _ => {
                                let keep = model.prune(thresholds[stage - 1]);
                                assert_eq!(reference.prune(thresholds[stage - 1]), keep);
                                let runs = model.noise_runs();
                                for adam in &mut adams {
                                    keep.iter().for_each(|keep| adam.retain(keep, runs.runs()));
                                }
                            }
                        }
                        if threads == 1 {
                            let context = format!("seed {seed}, stage {stage}");
                            runs += assert_the_runs_are_the_list(&model, &context);
                            let lens = (0..model.geometry.subnet_tree.len())
                                .map(|s| model.geometry.paths_of_subnet(s).len());
                            let with_a_path = lens.filter(|&len| len > 0).count();
                            let (undecided, _) = model.undecided();
                            listed += undecided;
                            nothing_frozen +=
                                usize::from(undecided == with_a_path && undecided > 0);
                            all_frozen += usize::from(undecided == 0 && with_a_path > 0);
                            collapsed += usize::from(two_lanes && model.lanes()[1].is_empty());
                        }
                        for step in 0..3 {
                            model.sample_noise(&mut rng);
                            reference.noise.copy_from_slice(&model.noise);
                            model.forward();
                            model.backward();
                            let mass = reference.reference_forward();
                            reference.reference_backward();
                            assert!(bits(&masses(&model)) == bits(&mass), "seed {seed}");
                            for (model, adam) in
                                [&mut model, &mut reference].into_iter().zip(&mut adams)
                            {
                                let (w, g) = model.logits_and_grads();
                                adam.step(w, g);
                            }
                            assert!(
                                state_bits(&model) == state_bits(&reference),
                                "seed {seed}, {threads} threads, stage {stage}, step {step}"
                            );
                        }
                    }
                });
            }
        }
        assert!(
            nothing_frozen > 20 && all_frozen > 20 && collapsed > 5 && runs < listed,
            "{nothing_frozen} layouts with nothing frozen, {all_frozen} with everything, \
             {collapsed} prunes that left one lane, {runs} runs of {listed} sub-nets"
        );
    }

    /// Checks the runs of `model` against the list they replaced: they
    /// flatten to it, never touch, cut where the list cut, and the two
    /// lanes visit it in order. Returns how many runs there are.
    fn assert_the_runs_are_the_list(model: &CostModel, context: &str) -> usize {
        let (list, paths) = reference_undecided(&model.geometry);
        let runs = &model.undecided.runs;
        let flat: Vec<u32> = runs.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, list, "{context}");
        assert!(runs.windows(2).all(|w| w[0].end < w[1].start), "{context}");
        assert_eq!(model.undecided(), (list.len(), paths), "{context}");
        assert_eq!(model.cut, reference_cut(&model.geometry), "{context}");
        let [lower, upper] = model.lane_pair();
        assert!(lower.undecided().all(|s| s < model.cut.subnet), "{context}");
        let visited = lower.undecided().chain(upper.undecided());
        assert!(visited.eq(list.iter().map(|&s| s as usize)), "{context}");
        runs.len()
    }

    /// The undecided sub-nets as the list they were before they were
    /// runs, and the paths they hold: every sub-net that has a path and
    /// is not one path under the one tree of its net.
    fn reference_undecided(geometry: &Geometry) -> (Vec<u32>, usize) {
        let (mut subnets, mut paths) = (Vec::new(), 0);
        for (s, &tree) in geometry.subnet_tree.iter().enumerate() {
            let group = geometry.paths_of_subnet(s);
            let net = geometry.net_tree_offsets.partition_point(|&o| o <= tree) - 1;
            let frozen = group.len() == 1 && geometry.trees_of_net(net).len() == 1;
            if !group.is_empty() && !frozen {
                subnets.push(s as u32);
                paths += group.len();
            }
        }
        (subnets, paths)
    }

    /// [`LaneCut::new`] as it was over the list of undecided sub-nets.
    fn reference_cut(geometry: &Geometry) -> LaneCut {
        let (live, paths) = reference_undecided(geometry);
        let subnet_tree = &geometry.subnet_tree[..];
        let one_lane = LaneCut {
            subnet: subnet_tree.len(),
            tree: geometry.num_trees(),
            path: geometry.num_paths(),
        };
        if paths == 0 || subnet_tree.windows(2).any(|w| w[0] > w[1]) {
            return one_lane;
        }
        let held = |s: &u32| geometry.paths_of_subnet(*s as usize).len();
        let mid = paths / 2;
        let mut seen = 0;
        let subnet_mid = live.iter().find(|&s| {
            seen += held(s);
            seen > mid
        });
        let tree_mid = subnet_tree[*subnet_mid.expect("the middle path has a sub-net") as usize];
        let net = geometry
            .net_tree_offsets
            .partition_point(|&o| o <= tree_mid)
            - 1;
        let boundary = |tree: usize| {
            let subnet = subnet_tree.partition_point(|&t| (t as usize) < tree);
            let undecided = live.partition_point(|&s| (s as usize) < subnet);
            let cut = LaneCut {
                subnet,
                tree,
                path: geometry.subnet_path_offsets[subnet] as usize,
            };
            (cut, live[..undecided].iter().map(held).sum::<usize>())
        };
        let trees = geometry.trees_of_net(net);
        let ((below, under_below), (above, under_above)) =
            (boundary(trees.start), boundary(trees.end));
        if 2 * (under_above - under_below) > paths {
            return one_lane;
        }
        let (cut, under) = if mid - under_below <= under_above - mid {
            (below, under_below)
        } else {
            (above, under_above)
        };
        if under == 0 || under == paths {
            return one_lane;
        }
        cut
    }

    /// A model as new over `model`'s current geometry, logits, noise and
    /// temperature: nothing in its buffers from an earlier pass.
    fn fresh(problem: &Problem, model: &CostModel, terms: CostTerms) -> CostModel {
        let geometry = Arc::new((*model.geometry).clone());
        let grid = (problem.width, problem.height);
        let (capacity, beta) = (&problem.capacity, &problem.beta);
        let logits = model.logits.clone();
        let mut fresh = CostModel::from_geometry(geometry, grid, capacity, beta, terms, logits)
            .expect("the geometry of a valid model");
        fresh.noise.copy_from_slice(&model.noise);
        fresh.set_temperature(model.temperature);
        fresh
    }

    /// The costs, demands and seeds of the last forward pass, as bits.
    fn value_bits(model: &CostModel) -> Vec<u32> {
        let costs = [
            model.loss,
            model.wl_cost,
            model.via_cost,
            model.overflow_cost,
        ];
        let values = costs.iter().chain(&model.demand).chain(&model.seed);
        values.map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_shared_slot_and_cell_arrays_carry_nothing_from_one_phase_to_the_next() {
        let mut pruned = 0;
        for seed in 0..100u64 {
            let problem = Problem::random(seed);
            let terms = terms(Activation::ALL[seed as usize % 5]);
            let model = problem.model(terms, seed);
            let mut want = fresh(&problem, &model, terms);
            want.forward();
            let values = value_bits(&want);
            want.backward();
            let grads = bits(&want.grad);

            // forward, forward
            let mut twice = model.clone();
            twice.forward();
            twice.forward();
            assert_eq!(value_bits(&twice), values, "seed {seed}: forward, forward");
            // forward, backward, evaluate
            let mut after_backward = model.clone();
            after_backward.forward();
            after_backward.backward();
            after_backward.evaluate();
            assert_eq!(value_bits(&after_backward), values, "seed {seed}: evaluate");
            // backward, backward
            after_backward.backward();
            after_backward.backward();
            assert_eq!(
                bits(&after_backward.grad),
                grads,
                "seed {seed}: backward twice"
            );

            // a pass right after a prune and right after a restore, each
            // after a pass of the layout before it
            let mut model = model;
            model.forward();
            model.backward();
            if model.prune(0.3).is_none() {
                continue;
            }
            pruned += 1;
            for stage in ["pruned", "restored"] {
                if stage == "restored" {
                    model.forward();
                    model.backward();
                    model.restore_layout();
                }
                let mut want = fresh(&problem, &model, terms);
                model.forward();
                want.forward();
                assert_eq!(
                    value_bits(&model),
                    value_bits(&want),
                    "seed {seed}: {stage}"
                );
                model.backward();
                want.backward();
                assert_eq!(bits(&model.grad), bits(&want.grad), "seed {seed}: {stage}");
            }
        }
        assert!(pruned > 30, "only {pruned} prunes dropped something");
    }

    #[test]
    fn bytes_are_the_capacity_of_every_buffer_the_model_owns() {
        fn held<T>(buffer: &Vec<T>) -> usize {
            buffer.capacity() * std::mem::size_of::<T>()
        }
        for seed in 0..50u64 {
            let problem = Problem::random(seed);
            let mut model = problem.model(terms(Activation::Sigmoid), seed);
            for stage in 0..3 {
                match stage {
                    0 => {}
                    1 => {
                        model.forward();
                        model.prune(0.3);
                    }
                    _ => model.restore_layout(),
                }
                // every field by name: a buffer added or taken away shows
                let CostModel {
                    width: _,
                    height: _,
                    geometry,
                    capacity,
                    half_beta,
                    terms: _,
                    undecided,
                    cut: _,
                    origin,
                    logits,
                    noise,
                    noise_runs,
                    temperature: _,
                    prob,
                    demand,
                    wl_cost: _,
                    via_cost: _,
                    overflow_cost: _,
                    loss: _,
                    slots,
                    cells,
                    seed: edge_seed,
                    tree_mass_grad,
                    grad,
                } = &model;
                let Undecided {
                    runs,
                    subnets: _,
                    paths: _,
                    nets,
                } = undecided;
                let owned = origin.as_ref().map_or(0, |Origin { alive, built: _ }| {
                    let rows = geometry.bytes();
                    held(alive) + rows
                });
                let want = held(capacity)
                    + held(half_beta)
                    + held(runs)
                    + held(nets)
                    + owned
                    + held(logits)
                    + 2 * held(noise)
                    + std::mem::size_of_val(noise_runs.runs())
                    + held(prob)
                    + held(demand)
                    + held(slots)
                    + held(cells)
                    + held(edge_seed)
                    + held(tree_mass_grad)
                    + held(grad);
                assert_eq!(model.bytes(), want, "seed {seed}, stage {stage}");
            }
        }
    }

    /// A 3 × 1 row. Net 0 has two trees: tree 0 with two one-path
    /// sub-nets, tree 1 with a two-path sub-net and one of no path. Net 1
    /// has one tree with one one-path sub-net.
    fn two_nets_on_a_row(tree_logits: [f32; 3]) -> CostModel {
        let shape = CostShape {
            width: 3,
            height: 1,
            net_tree_offsets: &[0, 2, 3],
            subnet_tree: &[0, 0, 1, 1, 2],
            subnet_path_offsets: &[0, 1, 2, 4, 4, 5],
            path_wl: &[1.0, 1.0, 3.0, 3.0, 1.0],
            path_run_offsets: &[0, 1, 2, 3, 4, 5],
            path_runs: &[(0, 1), (1, 2), (0, 2), (0, 2), (0, 1)],
            path_via_offsets: &[0; 6],
            path_via_cells: &[],
            capacity: &[1.0; 2],
            beta: &[0.0; 3],
        };
        let logits = tree_logits.into_iter().chain([0.0, 0.0, 6.0, -6.0, 0.0]);
        CostModel::new(&shape, terms(Activation::Sigmoid), logits.collect()).unwrap()
    }

    #[test]
    fn a_sub_net_is_frozen_only_with_one_path_under_the_one_tree_of_its_net() {
        // the lone paths of tree 0 are undecided — their mass is `q` and
        // their gradient decides between the trees — the sub-net of no
        // path has nothing to compute, and net 1's is frozen
        let mut model = two_nets_on_a_row([0.3, 0.0, 0.0]);
        assert_eq!(model.undecided(), (3, 4));
        assert_eq!(model.undecided.runs, vec![(0..3)]);
        assert_eq!(model.undecided.nets, [0]);
        assert_a_pass_is_the_references(&mut model, "as built");
        assert!(model.tree_grad()[0] < 0.0 && model.tree_grad()[1] > 0.0);
        assert_eq!(masses(&model)[0], model.q()[0]);
        assert_eq!(masses(&model)[4].to_bits(), 1f32.to_bits());
        assert_eq!(model.tree_grad()[2], 0.0);

        // tree 1 goes: net 0 is one tree of one-path sub-nets, all frozen
        let mut model = two_nets_on_a_row([0.0, -20.0, 0.0]);
        assert!(model.prune(1e-4).is_some());
        assert_eq!(model.undecided(), (0, 0));
        assert!(model.lanes()[1].is_empty());
        assert_a_pass_is_the_references(&mut model, "everything frozen");
        // back in the first layout tree 1's sub-net restarts level, and
        // is computed again
        model.restore_layout();
        assert_eq!(model.undecided(), (3, 4));
        assert_a_pass_is_the_references(&mut model, "restored");
        assert_eq!(&model.p()[2..4], &[0.5, 0.5]);
        assert_eq!(&masses(&model)[2..4], &[0.0, 0.0], "silenced by q = 0");
    }

    #[test]
    fn a_frozen_mass_is_one_wherever_a_prune_moves_its_path() {
        // tree 0 goes with its two paths and tree 1's sub-net loses its
        // loser: the two paths left move down to where the masses of
        // others were, and no pass will write theirs
        let mut model = two_nets_on_a_row([-20.0, 0.0, 0.0]);
        model.forward();
        let one = 1f32.to_bits();
        assert!(masses(&model)[..2].iter().all(|m| m.to_bits() != one));
        assert_eq!(model.prune(1e-4).map(flagged), Some(vec![1, 2, 5, 7]));
        assert_eq!(model.undecided(), (0, 0));
        assert_eq!(masses(&model).len(), 2);
        assert!(masses(&model).iter().all(|m| m.to_bits() == one));
        assert_a_pass_is_the_references(&mut model, "pruned");
        assert!(masses(&model).iter().all(|m| m.to_bits() == one));
        // and back in the first layout, the frozen path of net 1 is at 1.0
        // again wherever it moved back to
        model.restore_layout();
        assert_eq!(masses(&model)[4].to_bits(), one);
        assert_a_pass_is_the_references(&mut model, "restored");
        assert_eq!(masses(&model)[4].to_bits(), one);
    }

    #[test]
    fn a_net_keeps_its_best_tree_and_a_dropped_tree_takes_its_sub_nets() {
        // one net of two trees on a 3 × 1 row: tree 0 has two one-path
        // sub-nets, tree 1 one sub-net with two paths
        let shape = CostShape {
            width: 3,
            height: 1,
            net_tree_offsets: &[0, 2],
            subnet_tree: &[0, 0, 1],
            subnet_path_offsets: &[0, 1, 2, 4],
            path_wl: &[1.0, 1.0, 2.0, 2.0],
            path_run_offsets: &[0, 1, 2, 3, 4],
            path_runs: &[(0, 1), (1, 2), (0, 2), (0, 2)],
            path_via_offsets: &[0; 5],
            path_via_cells: &[],
            capacity: &[1.0; 2],
            beta: &[0.0; 3],
        };
        let build = |tree: [f32; 2]| {
            let logits = tree.into_iter().chain([0.0, 0.0, 6.0, -6.0]).collect();
            CostModel::new(&shape, terms(Activation::Relu), logits).unwrap()
        };
        // tree 1 wins: tree 0 goes with both its sub-nets, and the loser
        // of tree 1's two paths goes too
        let mut model = build([-20.0, 0.0]);
        assert_eq!(model.prune(1e-4).map(flagged), Some(vec![1, 4]));
        assert_eq!((model.num_trees(), model.num_paths()), (1, 1));
        assert_eq!(model.geometry.subnet_tree, [0]);
        assert_eq!(model.geometry.path_runs, [(0, 2)]);
        assert_eq!(model.prune(1e-4), None, "nothing left to drop");
        model.restore_layout();
        assert_eq!(model.tree_logits(), &[f32::NEG_INFINITY, 0.0]);
        assert_eq!(model.path_logits(), &[0.0, 0.0, 6.0, f32::NEG_INFINITY]);
        assert_eq!(model.geometry.subnet_tree, [0, 0, 1]);

        // tree 0 wins: tree 1's paths go whatever their own odds
        let mut model = build([0.0, -20.0]);
        assert_eq!(model.prune(1e-4).map(flagged), Some(vec![0, 2, 3]));
        assert_eq!(model.geometry.subnet_tree, [0, 0]);
        assert_eq!(model.geometry.path_run_offsets, [0, 1, 2]);

        // a threshold above every probability still keeps each winner
        let mut model = build([0.0, 0.1]);
        assert_eq!(model.prune(2.0).map(flagged), Some(vec![1, 4]));
    }

    #[test]
    fn a_group_of_eight_or_more_matches_its_pruned_self_to_rounding() {
        // one sub-net of twelve paths over the one edge of a 2 × 1 grid;
        // every other one is far behind
        let paths = 12;
        let shape = CostShape {
            width: 2,
            height: 1,
            net_tree_offsets: &[0, 1],
            subnet_tree: &[0],
            subnet_path_offsets: &[0, paths as u32],
            path_wl: &(0..paths).map(|i| 1.0 + i as f32).collect::<Vec<_>>(),
            path_run_offsets: &(0..=paths as u32).collect::<Vec<_>>(),
            path_runs: &vec![(0, 1); paths],
            path_via_offsets: &vec![0; paths + 1],
            path_via_cells: &[],
            capacity: &[0.5],
            beta: &[0.0; 2],
        };
        let logits: Vec<f32> = (0..=paths)
            .map(|i| if i % 2 == 0 { 0.1 * i as f32 } else { -30.0 })
            .collect();
        let mut full = CostModel::new(&shape, terms(Activation::Sigmoid), logits).unwrap();
        let mut pruned = full.clone();
        let kept = flagged(pruned.prune(1e-4).expect("six paths far behind"));
        assert_eq!(kept.len(), 1 + paths / 2);
        for (i, w) in full.logits.iter_mut().enumerate() {
            if !kept.contains(&(i as u32)) {
                *w = f32::NEG_INFINITY;
            }
        }
        full.forward();
        full.backward();
        pruned.forward();
        pruned.backward();
        assert!(close(f64::from(pruned.loss), f64::from(full.loss), 1e-6));
        for (j, &k) in kept.iter().enumerate() {
            let (got, want) = (pruned.grad[j], full.grad[k as usize]);
            assert!(close(f64::from(got), f64::from(want), 1e-6), "{got} {want}");
        }
    }

    #[test]
    fn probabilities_are_the_noise_free_forward_probabilities() {
        let has_choice = |offsets: &[u32]| offsets.windows(2).any(|g| g[1] - g[0] >= 2);
        let problem = (0..)
            .map(Problem::random)
            .find(|p| has_choice(&p.net_tree_offsets) && has_choice(&p.subnet_path_offsets))
            .expect("some seed has a choice of trees and of paths");
        let mut noisy = problem.model(terms(Activation::Sigmoid), 7);
        let mut quiet = noisy.clone();
        quiet.noise.fill(0.0);
        quiet.forward();
        noisy.forward();
        assert_ne!(noisy.q(), quiet.q(), "the noise changed nothing");
        assert_ne!(noisy.p(), quiet.p(), "the noise changed nothing");
        let demand = noisy.demand().to_vec();
        noisy.probabilities();
        assert_eq!(noisy.q(), quiet.q());
        assert_eq!(noisy.p(), quiet.p());
        assert_eq!(
            noisy.demand(),
            &demand[..],
            "the read-out computes nothing else"
        );
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        // 3×2 cells, one net, one tree, one sub-net, one L from 0 to 5
        let good = CostShape {
            width: 3,
            height: 2,
            net_tree_offsets: &[0, 1],
            subnet_tree: &[0],
            subnet_path_offsets: &[0, 1],
            path_wl: &[3.0],
            path_run_offsets: &[0, 2],
            path_runs: &[(0, 2), (2, 5)],
            path_via_offsets: &[0, 1],
            path_via_cells: &[2],
            capacity: &[1.0; 7],
            beta: &[0.5; 6],
        };
        let build =
            |shape: CostShape<'_>| CostModel::new(&shape, terms(Activation::Relu), vec![0.0; 2]);
        assert!(build(good).is_ok());

        for (runs, why) in [
            ([(2, 2), (2, 5)], "empty"),
            ([(2, 0), (2, 5)], "reversed"),
            ([(0, 2), (2, 6)], "off the grid"),
            ([(0, 4), (2, 5)], "diagonal"),
            ([(2, 3), (2, 5)], "wraps from one row into the next"),
        ] {
            let bad = CostShape {
                path_runs: &runs,
                ..good
            };
            assert!(build(bad).is_err(), "a run that is {why}");
        }
        let bad = CostShape {
            capacity: &[1.0; 6],
            ..good
        };
        assert!(build(bad).is_err(), "one capacity short");
        let bad = CostShape {
            net_tree_offsets: &[1, 0],
            ..good
        };
        assert!(build(bad).is_err(), "offsets that are not CSR");
        let bad = CostShape {
            subnet_tree: &[1],
            ..good
        };
        assert!(
            build(bad).is_err(),
            "a sub-net of a tree that does not exist"
        );
        let bad = CostShape {
            path_via_cells: &[6],
            ..good
        };
        assert!(build(bad).is_err(), "a turn off the grid");
        let bad = CostShape {
            path_run_offsets: &[0, 1],
            ..good
        };
        assert!(build(bad).is_err(), "a run no path owns");
        assert!(
            CostModel::new(&good, terms(Activation::Relu), vec![0.0; 3]).is_err(),
            "one logit too many"
        );
    }
}
