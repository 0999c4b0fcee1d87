//! The training loop: Adam over the expected cost with temperature
//! annealing and fresh Gumbel noise every iteration.
//!
//! With noise on, the loop draws one key from the caller's RNG as it
//! starts — the RNG's one use here — and names iteration `it`'s noise
//! by the key and `it` ([`Noise::new`]); the kernel computes each
//! logit's sample where it reads the logit. A run over
//! [`LANE_THRESHOLD`] paths or more engages a
//! [`Helper`](parallel::Helper) thread for its duration, which the kernel
//! hands the upper lane of its two sub-net loops. Whichever thread runs
//! what, every result is the bit pattern of the loop run without one.
//!
//! At every step of the temperature schedule (`it > 0`, a multiple of
//! [`TEMPERATURE_INTERVAL`]) the loop first has the kernel drop the
//! candidates whose noise-free probability at the new temperature is
//! under [`PRUNE_BELOW`] ([`CostModel::prune`]) and shrinks Adam's
//! moments with it: the iterations after it run over the candidates
//! still alive. A logit whose group is left with one candidate has a
//! gradient of `+0.0` from then on; the step forgets its moments, and
//! the Adam update and the telemetry row's gradient norm run over the
//! groups of two or more only ([`STEP_GAP`]), so it keeps the value it
//! had at the prune. A surviving logit hears the noise it would have
//! heard unpruned: its sample is keyed by its index in the forest's
//! layout. On the way out the model is put back in that layout
//! ([`CostModel::restore_layout`]), which is how extraction and the warm
//! start read it. A run shorter than one [`TEMPERATURE_INTERVAL`] never
//! reaches a step.
//!
//! The loop is instrumented through `dgr-obs` (see [`RouteHooks`]):
//! per-iteration `forward`/`backward`/`adam` spans (and a `prune` span per
//! step) while the span log is open (`--trace`, `--profile`),
//! per-iteration telemetry rows when a
//! [`TelemetrySink`](dgr_obs::TelemetrySink) is attached or a run scope
//! is open (a `dgrd` job), and a throttled stderr progress line every
//! `PROGRESS_EVERY` (100) iterations when [`RouteHooks::progress`] is set.
//! With no hooks and nothing open, the loop is byte-for-byte the
//! uninstrumented hot path plus one relaxed atomic load per span and one
//! thread-local read per iteration.

use std::ops::Range;
use std::time::{Duration, Instant};

use dgr_autodiff::parallel::{self, LANE_THRESHOLD};
use dgr_autodiff::{Adam, Noise};
use dgr_obs::IterationRow;
use rand::rngs::StdRng;
use rand::RngCore;

use crate::config::{DgrConfig, TEMPERATURE_INTERVAL};
use crate::relax::CostModel;
use crate::RouteHooks;

/// Maximum number of [`CurvePoint`]s retained in a [`TrainReport`].
pub const CURVE_POINTS: usize = 256;

/// The probability under which a temperature step drops a candidate that
/// is not the most probable of its group ([`CostModel::prune`]).
///
/// Measured on the benchmark's 1 000-iteration congested design (18 170
/// logits; `dgr route` wall time, median of six interleaved runs, 549 ms
/// with no step dropping anything): 10⁻² 282 ms, 10⁻³ 291, **10⁻⁴ 298**,
/// 10⁻⁵ 340, 10⁻⁶ 362, 10⁻⁸ 440, each leaving 6 087 – 6 689 logits alive
/// and a `cost_score` within −0.43 … −0.02 % of the unpruned run's. What
/// the threshold trades is how early a group is closed: in an unpruned run
/// of that design 49 of the 12 055 candidates that are ever under 10⁻⁴ at
/// a step end as the winner of their group (122 of 12 148 at 10⁻³, 7 of
/// 11 933 at 10⁻⁶), and on `ispd18_5m` the *soft* loss ends 0.0 / 1.9 /
/// 4.2 / 6.7 / 9.7 % above the unpruned run's at 10⁻⁸ / 10⁻⁶ / 10⁻⁵ /
/// 10⁻⁴ / 10⁻² while the extracted cost stays inside its seed-to-seed
/// spread (EXPERIMENTS.md, "The live set"). Extraction's rip-up rounds
/// re-pick over every path of the chosen tree from the forest, dropped
/// ones included.
pub const PRUNE_BELOW: f32 = 1e-4;

/// The most lone logits between two choice runs that the Adam step and the
/// gradient norm walk through rather than around (`moving_runs`). A
/// logit of a one-candidate group has a `+0.0` gradient and, since the
/// prune that left it alone, zero moments, so stepping it changes no bit;
/// what a gap costs is a few wasted updates, what a cut costs is a call of
/// the update loop.
///
/// Measured as the `adam` span of `dgr route --profile` on the seed-1
/// benchmark designs, ms a run, three runs each, against the dense step
/// over every logit:
///
/// | gap | `congested_full_train` (1 000 it) | `large_quick_route` (40) | `high_degree_sparse` (40) |
/// |---|---|---|---|
/// | dense | 26.1–26.5 | 4.5–4.8 | 17.9–20.5 |
/// | 0 (exact runs) | 9.8–10.2 | 7.7–14.0 | 25.3–29.1 |
/// | **4** | **6.6–7.2** | **4.5–5.0** | **18.7–19.7** |
/// | 8 | 7.0–7.6 | 4.6–5.0 | 18.3–19.4 |
/// | 16 | 7.2–7.9 | 4.5–4.9 | 18.7–20.3 |
/// | 64 | 8.1–8.6 | 4.5–5.3 | 18.1–20.3 |
/// | 256 | 9.3–9.9 | 4.4–4.7 | 18.3–19.4 |
///
/// Exact runs lose on the two 40-iteration designs, where most runs are
/// 2–3 logits long; from 4 up those read as the dense step, and the
/// congested design, whose step the dense loop spent on decided logits,
/// is fastest at 4. The gradient norm over the same runs: 3.1–3.3 ms there
/// at 4, 4.9–5.3 exact, 5.4–5.9 at 256 (the sum over every logit: 6.0–6.3).
pub const STEP_GAP: usize = 4;

/// Least wall-clock time between two progress lines but the last, so
/// tiny fast runs do not flood stderr.
const PROGRESS_MIN_GAP: Duration = Duration::from_millis(200);

/// Training iterations between two progress lines; the last iteration
/// always prints one.
const PROGRESS_EVERY: usize = 100;

/// One retained sample of the training trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration index (offset by the adaptive rounds before this one).
    pub iter: usize,
    /// Total weighted loss at this iteration.
    pub loss: f32,
    /// Unweighted expected-overflow term at this iteration.
    pub overflow: f32,
}

/// What happened during training — loss trajectory, timings, memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Iterations executed, in every adaptive round.
    pub iterations: usize,
    /// Downsampled loss/overflow trajectory (≤ [`CURVE_POINTS`] samples,
    /// final iteration always included) retained so comparison tooling
    /// (`dgr compare`, fig5/fig6) does not re-derive it ad hoc.
    pub curve: Vec<CurvePoint>,
    /// Loss of the final iteration.
    pub final_loss: f32,
    /// Temperature of the last iteration executed (the initial one if
    /// none was).
    pub final_temperature: f32,
    /// Wall-clock training time.
    pub duration: Duration,
    /// Wall-clock time the calling thread spent in forward passes across
    /// all iterations, waiting for the helper's lane included.
    pub forward_time: Duration,
    /// Wall-clock time the calling thread spent in backward passes across
    /// all iterations, waiting for the helper's lane included.
    pub backward_time: Duration,
    /// Most bytes the kernel held during the run ([`CostModel::bytes`],
    /// capacity counted), read before the first iteration and after each
    /// temperature step that drops candidates — the "GPU memory" analogue
    /// reported in the Fig. 5b reproduction. A step's buffers keep their
    /// capacity and its live rows come on top, so the peak is the first
    /// such step's.
    pub graph_bytes: usize,
    /// The forest's counts at iteration 0, then what each temperature
    /// step that dropped candidates left, in order.
    pub live: Vec<LiveRow>,
}

impl TrainReport {
    /// This round followed by the adaptive round `next`, as one run: the
    /// iterations, curves and times add up, the memory peak is the larger,
    /// and the final loss, temperature and live rows are `next`'s.
    pub(crate) fn followed_by(mut self, next: TrainReport) -> TrainReport {
        self.curve.extend(next.curve);
        TrainReport {
            iterations: self.iterations + next.iterations,
            curve: self.curve,
            duration: self.duration + next.duration,
            forward_time: self.forward_time + next.forward_time,
            backward_time: self.backward_time + next.backward_time,
            graph_bytes: self.graph_bytes.max(next.graph_bytes),
            ..next
        }
    }
}

/// What is still in the kernel's tables from one temperature step on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRow {
    /// The iteration of the step (not offset).
    pub iteration: usize,
    /// Trees alive.
    pub trees: usize,
    /// Paths alive.
    pub paths: usize,
    /// Sub-nets an iteration still computes: those alive and not down to
    /// one path under the one tree of their net
    /// ([`CostModel::undecided`]).
    pub undecided_subnets: usize,
    /// Paths of those sub-nets.
    pub undecided_paths: usize,
}

impl LiveRow {
    fn at(iteration: usize, model: &CostModel) -> LiveRow {
        let (undecided_subnets, undecided_paths) = model.undecided();
        LiveRow {
            iteration,
            trees: model.num_trees(),
            paths: model.num_paths(),
            undecided_subnets,
            undecided_paths,
        }
    }

    /// Trees and paths alive: the logits still trained.
    pub fn candidates(&self) -> usize {
        self.trees + self.paths
    }
}

/// Trains `model` in place per `cfg` and returns the report.
///
/// Every iteration: set the temperature from the annealing schedule,
/// name the iteration's Gumbel noise (if enabled; one key drawn from
/// `rng` per call, see the module docs), forward, backward, Adam step. At
/// every temperature step the kernel first drops the candidates under
/// [`PRUNE_BELOW`]; it is back in the forest's layout on return.
pub fn train(model: &mut CostModel, cfg: &DgrConfig, rng: &mut StdRng) -> TrainReport {
    train_loop(model, cfg, rng, &mut RouteHooks::default(), 0)
}

/// The loop behind [`train`] and [`Session::train`](crate::Session::train),
/// with observability hooks: telemetry rows, progress lines,
/// cooperative cancellation between iterations, and per-iteration phase
/// spans (`forward` / `backward` / `adam` under the `train` category,
/// and — with a helper engaged — `lane_fwd` / `lane_bwd` on whichever
/// thread ran them) recorded while the span log is open.
///
/// `iter_offset` is added to every reported iteration index, so adaptive
/// rounds continue numbering instead of restarting at zero.
pub(crate) fn train_loop(
    model: &mut CostModel,
    cfg: &DgrConfig,
    rng: &mut StdRng,
    hooks: &mut RouteHooks,
    iter_offset: usize,
) -> TrainReport {
    let _train_span = dgr_obs::span("train", "train");
    dgr_obs::status_phase("train");
    let start = Instant::now();
    let mut adam = Adam::new(num_logits(model), cfg.learning_rate);
    let mut curve = Vec::new();
    let mut iterations = 0;
    let mut final_loss = f32::NAN;
    let mut final_temperature = cfg.initial_temperature;
    let mut forward_time = Duration::ZERO;
    let mut backward_time = Duration::ZERO;
    let curve_stride = cfg.iterations.div_ceil(CURVE_POINTS).max(1);
    let mut last_progress: Option<Instant> = None;

    // dropped (joined) on every way out of this function, unwinding included
    let _helper = (model.num_paths() >= LANE_THRESHOLD).then(parallel::Helper::engage);
    let key = cfg.gumbel_noise.then(|| rng.next_u64());
    let mut graph_bytes = model.bytes();
    let mut live = vec![LiveRow::at(0, model)];
    let is_step = |it: usize| it > 0 && it.is_multiple_of(TEMPERATURE_INTERVAL);
    // the logits Adam steps and the gradient norm sums: every other one
    // is in a group of one, its gradient +0.0 and its moments zero
    let mut moving = moving_runs(model);

    for it in 0..cfg.iterations {
        if hooks.is_cancelled() {
            break;
        }
        let temp = cfg.temperature_at(it);
        model.set_temperature(temp);
        if is_step(it) {
            let _s = dgr_obs::span("train", "prune");
            if let Some(keep) = prune_step(model) {
                adam.retain(&keep, model.choice_runs());
                moving = moving_runs(model);
                live.push(LiveRow::at(it, model));
                graph_bytes = graph_bytes.max(model.bytes());
            }
        }
        model.set_noise(key.map(|key| Noise::new(key, it as u64)));
        let fwd_start = Instant::now();
        {
            let _s = dgr_obs::span("train", "forward");
            model.forward();
        }
        forward_time += fwd_start.elapsed();
        let loss = model.loss();
        iterations += 1;
        final_loss = loss;
        final_temperature = temp;
        let last_iter = it + 1 == cfg.iterations;
        if it % curve_stride == 0 || last_iter {
            curve.push(CurvePoint {
                iter: iter_offset + it,
                loss,
                overflow: model.overflow_cost(),
            });
        }
        let bwd_start = Instant::now();
        {
            let _s = dgr_obs::span("train", "backward");
            model.backward();
        }
        backward_time += bwd_start.elapsed();
        // a row is materialized for its readers only: a sink, or the
        // run's scope (a dgrd job), which feeds off dgr_obs::tick
        if hooks.telemetry.is_some() || dgr_obs::status_scope_id().is_some() {
            // folded from +0.0: with nothing moving, the row reads 0, not −0
            let (_, grads) = model.logits_and_grads();
            let grad_sq = moving
                .iter()
                .flat_map(|r| &grads[r.clone()])
                .fold(0.0f32, |sum, g| sum + g * g);
            let row = IterationRow {
                iter: iter_offset + it,
                loss,
                wl: model.wl_cost(),
                vias: model.via_cost(),
                overflow: model.overflow_cost(),
                temperature: temp,
                grad_norm: grad_sq.sqrt(),
            };
            if let Some(sink) = hooks.telemetry.as_mut() {
                sink.record(&row);
            }
            dgr_obs::tick(&row);
        }
        {
            let _s = dgr_obs::span("train", "adam");
            let (logits, grads) = model.logits_and_grads();
            adam.step_runs(logits, grads, &moving);
        }
        if hooks.progress {
            let due = it % PROGRESS_EVERY == 0 || last_iter;
            let spaced = last_progress.is_none_or(|t| t.elapsed() >= PROGRESS_MIN_GAP);
            if due && (spaced || last_iter) {
                last_progress = Some(Instant::now());
                eprintln!(
                    "[dgr] iter {:>6}/{}  loss {:>12.4}  overflow {:>10.4}  elapsed {:.1}s",
                    iter_offset + it,
                    iter_offset + cfg.iterations,
                    loss,
                    model.overflow_cost(),
                    start.elapsed().as_secs_f64(),
                );
            }
        }
    }

    if let Some(sink) = hooks.telemetry.as_mut() {
        sink.flush();
    }
    // extraction, the warm start and every other reader index the model
    // by the forest
    model.restore_layout();

    TrainReport {
        iterations,
        curve,
        final_loss,
        final_temperature,
        duration: start.elapsed(),
        forward_time,
        backward_time,
        graph_bytes,
        live,
    }
}

/// A temperature step's compaction: the product's one call of
/// [`CostModel::prune`] (the oracle's gradient check is the other).
#[allow(clippy::disallowed_methods)]
fn prune_step(model: &mut CostModel) -> Option<Vec<bool>> {
    model.prune(PRUNE_BELOW)
}

/// One logit per tree and per path.
fn num_logits(model: &CostModel) -> usize {
    model.num_trees() + model.num_paths()
}

/// The model's choice runs — the logits of groups of two or more, the
/// only ones with a gradient — merged across gaps of at most [`STEP_GAP`].
fn moving_runs(model: &CostModel) -> Vec<Range<usize>> {
    let mut merged: Vec<Range<usize>> = Vec::new();
    for run in model.choice_runs() {
        match merged.last_mut() {
            Some(last) if run.start - last.end <= STEP_GAP => last.end = run.end,
            _ => merged.push(run.clone()),
        }
    }
    merged
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the inline reference loop prunes and steps densely
mod tests {
    use super::*;
    use crate::relax::build_cost_model;
    use dgr_dag::{build_forest, PatternConfig};
    use dgr_grid::{CapacityBuilder, Design, GcellGrid, Net, Point};
    use dgr_rsmt::{tree_candidates, CandidateConfig};
    use rand::SeedableRng;

    fn contended_design() -> Design {
        // two nets forced through a 1-track corridor: training must split
        // them across the two L corridors.
        let grid = GcellGrid::new(6, 6).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        Design::new(
            grid,
            cap,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(5, 5)]),
                Net::new("b", vec![Point::new(0, 0), Point::new(5, 5)]),
            ],
            5,
        )
        .unwrap()
    }

    #[test]
    fn training_reduces_loss_and_separates_nets() {
        let design = contended_design();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        // ReLU gives a crisp separation signal on this symmetric toy; a pure
        // sigmoid is exchange-invariant around the capacity midpoint
        // (σ(1) + σ(−1) = 2σ(0)), so it cannot split two identical nets.
        let cfg = DgrConfig {
            iterations: 200,
            activation: dgr_autodiff::Activation::Relu,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train(&mut model, &cfg, &mut rng);

        assert_eq!(report.iterations, 200);
        let first = report.curve[0].loss;
        assert!(report.final_loss < first, "{first} → {}", report.final_loss);

        // with noise off at readout, the two nets should prefer opposite Ls
        model.probabilities();
        let p = model.p();
        let a_choice = p[0] > p[1];
        let b_choice = p[2] > p[3];
        assert_ne!(a_choice, b_choice, "nets did not separate: p = {p:?}");
    }

    #[test]
    fn report_has_finite_numbers_and_memory() {
        let design = contended_design();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig {
            iterations: 5,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train(&mut model, &cfg, &mut rng);
        assert!(report.final_loss.is_finite());
        assert!(report.graph_bytes > 0);
        assert!((report.final_temperature - 1.0).abs() < 1e-6); // < 100 iters
    }

    #[test]
    fn a_cancel_raised_before_the_first_iteration_reports_nothing_ran() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let design = contended_design();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig {
            iterations: 40,
            initial_temperature: 0.7,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let mut hooks = RouteHooks {
            telemetry: Some(dgr_obs::TelemetrySink::in_memory()),
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..RouteHooks::default()
        };
        let report = train_loop(&mut model, &cfg, &mut rng, &mut hooks, 0);
        assert_eq!(report.iterations, 0);
        assert!(report.final_loss.is_nan());
        assert_eq!(report.final_temperature, 0.7);
        assert!(report.curve.is_empty());
        assert_eq!(hooks.telemetry.unwrap().rows(), 0);
    }

    /// `nets` random two- to four-pin nets on a 40 × 40 grid with the
    /// default candidates and patterns, and the default config run just
    /// past its second temperature step: by then training has sharpened
    /// the logits enough that each step finds candidates under
    /// [`PRUNE_BELOW`].
    fn random_problem(nets: usize) -> (Design, dgr_dag::DagForest, DgrConfig) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(nets as u64);
        let grid = GcellGrid::new(40, 40).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 3.0).build(&grid).unwrap();
        let nets = (0..nets)
            .map(|n| {
                let pins = (0..rng.gen_range(2..5))
                    .map(|_| Point::new(rng.gen_range(0..40), rng.gen_range(0..40)))
                    .collect();
                Net::new(format!("n{n}"), pins)
            })
            .collect();
        let design = Design::new(grid, cap, nets, 5).unwrap();
        let cfg = DgrConfig {
            iterations: 2 * TEMPERATURE_INTERVAL + 1,
            ..DgrConfig::default()
        };
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &cfg.candidates).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, cfg.patterns).unwrap();
        (design, forest, cfg)
    }

    /// What a run leaves behind, as bits: the final logits, and the next
    /// draw of the RNG it was handed.
    fn residue(model: &CostModel, rng: &mut StdRng) -> (Vec<u32>, u64) {
        let logits = model.tree_logits().iter().chain(model.path_logits());
        (logits.map(|w| w.to_bits()).collect(), rng.next_u64())
    }

    /// The loop without a helper: the round's key, then `iterations` of
    /// the step's prune, noise, forward, backward and the update. Each prune
    /// forgets the moments of the logits it leaves alone in their group,
    /// and the update steps every logit: the gaps between the runs
    /// [`train`] steps are stepped here too, and must not move. Returns
    /// the losses too.
    fn inline_loop(
        model: &mut CostModel,
        cfg: &DgrConfig,
        rng: &mut StdRng,
        iterations: usize,
    ) -> Vec<u32> {
        inline_loop_by(Forget::AtThePrune, model, cfg, rng, iterations).0
    }

    /// What a prune does to the optimizer moments of a logit it leaves
    /// alone in its group.
    #[derive(Clone, Copy, PartialEq)]
    enum Forget {
        AtThePrune,
        /// Keep them: the loop before [`STEP_GAP`], whose lone logits
        /// drifted on that momentum.
        Never,
    }

    /// [`inline_loop`] under `forget`. Also returns the logits in the
    /// forest's layout as built and after each prune that dropped
    /// candidates.
    fn inline_loop_by(
        forget: Forget,
        model: &mut CostModel,
        cfg: &DgrConfig,
        rng: &mut StdRng,
        iterations: usize,
    ) -> (Vec<u32>, Vec<Vec<f32>>) {
        let in_the_forest_layout = |model: &CostModel| {
            let mut model = model.clone();
            model.restore_layout();
            let logits = model.tree_logits().iter().chain(model.path_logits());
            logits.copied().collect::<Vec<f32>>()
        };
        let mut adam = Adam::new(num_logits(model), cfg.learning_rate);
        let mut losses = Vec::new();
        let mut at_prunes = vec![in_the_forest_layout(model)];
        let key = rng.next_u64();
        for it in 0..iterations {
            model.set_temperature(cfg.temperature_at(it));
            if it > 0 && it.is_multiple_of(TEMPERATURE_INTERVAL) {
                if let Some(keep) = model.prune(PRUNE_BELOW) {
                    let runs = match forget {
                        Forget::AtThePrune => model.choice_runs().to_vec(),
                        Forget::Never => std::iter::once(0..num_logits(model)).collect(),
                    };
                    adam.retain(&keep, &runs);
                    at_prunes.push(in_the_forest_layout(model));
                }
            }
            model.set_noise(Some(Noise::new(key, it as u64)));
            model.forward();
            losses.push(model.loss().to_bits());
            model.backward();
            let (w, g) = model.logits_and_grads();
            adam.step(w, g);
        }
        model.restore_layout();
        (losses, at_prunes)
    }

    /// Whether each logit of `w` (in the forest's layout) is decided: the
    /// one finite logit of its group, and for a path, under a live tree.
    fn decided(forest: &dgr_dag::DagForest, w: &[f32]) -> Vec<bool> {
        let trees = forest.num_trees();
        let mut flags = vec![false; w.len()];
        let mut mark_lone = |group: std::ops::Range<usize>| {
            let mut finite = group.filter(|&i| w[i].is_finite());
            if let (Some(i), None) = (finite.next(), finite.next()) {
                flags[i] = true;
            }
        };
        for n in 0..forest.num_nets() {
            mark_lone(forest.trees_of_net(n));
        }
        for s in 0..forest.num_subnets() {
            if w[forest.tree_of_subnet(s)].is_finite() {
                let paths = forest.paths_of_subnet(s);
                mark_lone(trees + paths.start..trees + paths.end);
            }
        }
        flags
    }

    #[test]
    fn forgetting_at_the_prune_moves_nothing_but_the_decided_logits() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for nets in [200, 1200] {
            let (design, forest, cfg) = random_problem(nets);
            let run = |forget| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
                let (losses, at_prunes) =
                    inline_loop_by(forget, &mut model, &cfg, &mut rng, cfg.iterations);
                model.probabilities();
                (model, losses, at_prunes)
            };
            let (new, losses, at_prunes) = run(Forget::AtThePrune);
            let (old, old_losses, _) = run(Forget::Never);
            assert_eq!(
                at_prunes.len(),
                3,
                "{nets} nets: both steps dropped candidates"
            );
            assert_eq!(losses, old_losses, "{nets} nets");
            assert_eq!(bits(new.q()), bits(old.q()), "{nets} nets");
            assert_eq!(bits(new.p()), bits(old.p()), "{nets} nets");
            assert_eq!(bits(new.demand()), bits(old.demand()), "{nets} nets");

            let logits = |m: &CostModel| [m.tree_logits(), m.path_logits()].concat();
            let (w, w_old) = (logits(&new), logits(&old));
            let decided_at = at_prunes.iter().map(|at| decided(&forest, at));
            let decided_at: Vec<Vec<bool>> = decided_at.collect();
            let (mut kept, mut drifted) = (0, 0);
            for (i, decided) in decided(&forest, &w).into_iter().enumerate() {
                if !decided {
                    assert_eq!(w[i].to_bits(), w_old[i].to_bits(), "{nets} nets, logit {i}");
                    continue;
                }
                // the value it had at the prune that left it alone, or as
                // built when it was alone from the start
                let first = decided_at.iter().position(|d| d[i]);
                let first = first.expect("decided at the end, so after the last prune");
                assert_eq!(
                    w[i].to_bits(),
                    at_prunes[first][i].to_bits(),
                    "{nets} nets, logit {i}"
                );
                kept += usize::from(first > 0);
                drifted += usize::from(w[i].to_bits() != w_old[i].to_bits());
            }
            assert!(
                kept > 0 && drifted > 0,
                "{nets} nets: {kept} logits decided by a prune, {drifted} of them drifted before"
            );
        }
    }

    #[test]
    fn a_model_with_nothing_to_decide_reports_a_gradient_norm_of_plus_zero() {
        // two nets along one row each: one tree of one straight path
        let grid = GcellGrid::new(6, 6).unwrap();
        let cap = CapacityBuilder::uniform(&grid, 1.0).build(&grid).unwrap();
        let nets =
            [0, 3].map(|y| Net::new(format!("n{y}"), vec![Point::new(0, y), Point::new(5, y)]));
        let design = Design::new(grid, cap, nets.into(), 5).unwrap();
        let pools: Vec<_> = design
            .nets
            .iter()
            .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
            .collect();
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
        let cfg = DgrConfig {
            iterations: 5,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        assert!(model.choice_runs().is_empty(), "a group of two");
        let mut hooks = RouteHooks {
            telemetry: Some(dgr_obs::TelemetrySink::in_memory()),
            ..RouteHooks::default()
        };
        train_loop(&mut model, &cfg, &mut rng, &mut hooks, 0);
        let sink = hooks.telemetry.unwrap();
        let rows = sink.memory_contents().unwrap().lines();
        let norms: Vec<&str> = rows.map(|row| row.rsplit_once(',').unwrap().1).collect();
        assert_eq!(norms, [r#""grad_norm":0}"#; 5]);
    }

    /// `set_num_threads` is process-global, and the crate's other tests
    /// answer the same at any value of it; these two take turns.
    static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn train_is_the_inline_loop_bit_for_bit_on_both_sides_of_the_lane_threshold() {
        let _guard = THREADS.lock().unwrap();
        for (nets, engages) in [(200, false), (1200, true)] {
            let (design, forest, cfg) = random_problem(nets);
            let mut rng = StdRng::seed_from_u64(3);
            let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
            assert_eq!(model.num_paths() >= LANE_THRESHOLD, engages, "{nets} nets");
            assert!(
                !model.lanes()[1].is_empty(),
                "{nets} nets have a net boundary"
            );
            let losses = inline_loop(&mut model, &cfg, &mut rng, cfg.iterations);
            let want = residue(&model, &mut rng);

            for threads in [1, 2, 8] {
                parallel::set_num_threads(threads);
                let mut rng = StdRng::seed_from_u64(3);
                let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
                let report = train(&mut model, &cfg, &mut rng);
                parallel::set_num_threads(0);
                let curve: Vec<u32> = report.curve.iter().map(|p| p.loss.to_bits()).collect();
                assert_eq!(curve, losses, "{nets} nets, {threads} threads");
                let (steps, logits): (Vec<_>, Vec<_>) = report
                    .live
                    .iter()
                    .map(|row| (row.iteration, row.candidates()))
                    .unzip();
                assert_eq!(
                    steps,
                    [0, TEMPERATURE_INTERVAL, 2 * TEMPERATURE_INTERVAL],
                    "{nets} nets: both steps dropped candidates"
                );
                assert!(logits[2] < logits[1] && logits[1] < logits[0]);
                assert_eq!(logits[0], num_logits(&model));
                assert!(
                    residue(&model, &mut rng) == want,
                    "{nets} nets, {threads} threads: logits or RNG state differ"
                );
            }
        }
    }

    #[test]
    fn after_training_the_model_is_back_in_the_forest_layout() {
        let (design, forest, cfg) = random_problem(200);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train(&mut model, &cfg, &mut rng);
        assert!(report.live.len() > 1, "steps that dropped candidates");
        let last = report.live.last().unwrap();
        let (live_trees, live_paths) = (last.trees, last.paths);
        assert_eq!(
            (model.num_trees(), model.num_paths()),
            (forest.num_trees(), forest.num_paths())
        );
        // the peak is a step's: the buffers of the forest's layout, their
        // capacity kept, beside live rows no larger than the forest's columns
        assert!(
            model.bytes() < report.graph_bytes
                && report.graph_bytes < model.bytes() + forest.bytes(),
            "{} of {} beside a forest of {}",
            report.graph_bytes,
            model.bytes(),
            forest.bytes()
        );

        let dropped =
            |w: &[f32]| -> Vec<bool> { w.iter().map(|&w| w == f32::NEG_INFINITY).collect() };
        let (tree_gone, path_gone) = (dropped(model.tree_logits()), dropped(model.path_logits()));
        let dropped_tree = |t: usize| tree_gone[t];
        let dropped_path = |i: usize| tree_gone[forest.tree_of_path(i)] || path_gone[i];
        let count =
            |n: usize, dropped: &dyn Fn(usize) -> bool| (0..n).filter(|&i| !dropped(i)).count();
        assert_eq!(count(forest.num_trees(), &dropped_tree), live_trees);
        assert_eq!(count(forest.num_paths(), &dropped_path), live_paths);

        // as the last iteration left it, and as extraction reads it
        for read_out in [false, true] {
            if read_out {
                model.probabilities();
            }
            let (q, p) = (model.q(), model.p());
            let sums_to_one = |group: std::ops::Range<usize>, prob: &[f32]| {
                (prob[group].iter().sum::<f32>() - 1.0).abs() < 1e-5
            };
            for t in (0..forest.num_trees()).filter(|&t| dropped_tree(t)) {
                assert_eq!(q[t], 0.0, "tree {t}");
            }
            for i in (0..forest.num_paths()).filter(|&i| dropped_path(i)) {
                assert_eq!(q[forest.tree_of_path(i)] * p[i], 0.0, "path {i}");
            }
            for n in 0..forest.num_nets() {
                assert!(sums_to_one(forest.trees_of_net(n), q), "net {n}");
            }
            for s in 0..forest.num_subnets() {
                assert!(sums_to_one(forest.paths_of_subnet(s), p), "sub-net {s}");
            }
        }
    }

    /// A cancel raised, after a temperature step has shrunk the kernel,
    /// while the helper is engaged: the report counts the iterations that
    /// ran, and the logits and the RNG come back as the loop without a
    /// helper leaves them after that many.
    #[test]
    fn a_cancel_mid_run_reports_what_ran() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let _guard = THREADS.lock().unwrap();
        let (design, forest, mut cfg) = random_problem(1200);
        cfg.iterations = 1_000_000; // the cancel ends the run, nothing else
        let cancel = Arc::new(AtomicBool::new(false));
        // the run writes a telemetry row per iteration to a file; a line
        // in the file is an iteration that has run
        let path = std::env::temp_dir().join(format!("dgr_cancel_{}.jsonl", std::process::id()));
        let sink = dgr_obs::TelemetrySink::to_path(path.to_str().unwrap()).unwrap();
        let mut hooks = RouteHooks {
            telemetry: Some(sink),
            cancel: Some(Arc::clone(&cancel)),
            ..RouteHooks::default()
        };
        // … and cancels once the run is past its first temperature step
        let past_a_step = TEMPERATURE_INTERVAL + 2;
        let watcher = std::thread::spawn({
            let (cancel, path) = (Arc::clone(&cancel), path.clone());
            move || {
                let rows = || {
                    let file = std::fs::read(&path).unwrap_or_default();
                    file.iter().filter(|&&b| b == b'\n').count()
                };
                while rows() < past_a_step {
                    std::thread::yield_now();
                }
                cancel.store(true, Ordering::Relaxed);
            }
        });

        parallel::set_num_threads(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train_loop(&mut model, &cfg, &mut rng, &mut hooks, 0);
        parallel::set_num_threads(0);
        watcher.join().unwrap();
        let _ = std::fs::remove_file(&path);

        let ran = report.iterations;
        assert!(
            past_a_step <= ran && ran < cfg.iterations,
            "{ran} iterations"
        );
        assert!(report.live.len() > 1, "the step dropped candidates");
        assert_eq!(hooks.telemetry.unwrap().rows(), ran);
        let got = residue(&model, &mut rng);

        let mut rng = StdRng::seed_from_u64(3);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        inline_loop(&mut model, &cfg, &mut rng, ran);
        assert!(got == residue(&model, &mut rng), "after {ran} iterations");
    }

    #[test]
    fn deterministic_given_seed() {
        let design = contended_design();
        let run = |seed| {
            let pools: Vec<_> = design
                .nets
                .iter()
                .map(|n| tree_candidates(&n.pins, &CandidateConfig::single()).unwrap())
                .collect();
            let forest = build_forest(&design.grid, &pools, PatternConfig::l_only()).unwrap();
            let cfg = DgrConfig {
                iterations: 30,
                ..DgrConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
            train(&mut model, &cfg, &mut rng).final_loss
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6)); // different seeds explore differently
    }
}
