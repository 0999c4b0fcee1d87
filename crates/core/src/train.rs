//! The training loop: Adam over the expected cost with temperature
//! annealing and per-iteration Gumbel noise resampling.
//!
//! A run over [`LANE_THRESHOLD`] paths or more engages a
//! [`Helper`](parallel::Helper) thread for its duration, which the kernel
//! hands the upper lane of its two sub-net loops and the loop hands the
//! *next* iteration's noise draw — the RNG's only consumer here, and
//! nothing an iteration computes feeds it. The draw works on a copy of
//! the RNG and a second buffer; the top of the next iteration trades the
//! buffer in and stores the copy back, so an iteration that never runs
//! (the one after the last, the one a cancel prevents) draws nothing
//! the caller's RNG can show. Whichever thread runs what, every result
//! is the bit pattern of `sample_noise → forward → backward → step` run
//! inline.
//!
//! At every step of the temperature schedule (`it > 0`, a multiple of
//! `temperature_interval`) the loop first has the kernel drop the
//! candidates whose noise-free probability at the new temperature is
//! under [`PRUNE_BELOW`] ([`CostModel::prune`]) and shrinks Adam's
//! moments with it: the iterations after it run over the candidates
//! still alive. Noise belongs to a layout, so the iteration before a
//! step offers no draw ahead and the step draws after it has compacted —
//! the same RNG stream whichever thread draws. On the way out the model
//! is put back in the forest's layout ([`CostModel::restore_layout`]),
//! which is how extraction and the warm start read it. A run shorter
//! than one `temperature_interval` never reaches a step.
//!
//! The loop is instrumented through `dgr-obs` (see [`RouteHooks`]):
//! per-iteration `forward`/`backward`/`adam` spans (and a `prune` span per
//! step) when the global observability switch is on, per-iteration JSONL
//! telemetry rows when a [`TelemetrySink`](dgr_obs::TelemetrySink) is
//! attached, and a throttled stderr progress line when a
//! [`ProgressConfig`] is attached. With no
//! hooks and observability off, the loop is byte-for-byte the
//! uninstrumented hot path plus one relaxed atomic load per iteration
//! phase.

use std::time::{Duration, Instant};

use dgr_autodiff::cost::NoiseRuns;
use dgr_autodiff::parallel::{self, LANE_THRESHOLD};
use dgr_autodiff::Adam;
use dgr_grid::Design;
use dgr_obs::IterationRow;
use rand::rngs::StdRng;

use crate::config::DgrConfig;
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

/// How often the training loop re-reads the process RSS for telemetry
/// (`/proc` reads are microseconds — cheap, but not per-iteration cheap).
const RSS_SAMPLE_INTERVAL: usize = 16;

/// One retained sample of the training trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration index (offset by [`train_with_hooks`]'s `iter_offset`).
    pub iter: usize,
    /// Total weighted loss at this iteration.
    pub loss: f32,
    /// Unweighted expected-overflow term at this iteration.
    pub overflow: f32,
}

/// What happened during training — loss trajectory, timings, memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Iterations executed.
    pub iterations: usize,
    /// `(iteration, loss)` samples at `loss_record_interval`.
    pub loss_history: Vec<(usize, f32)>,
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
    /// Most bytes the kernel's value and gradient buffers held during the
    /// run (they shrink at every temperature step that drops candidates)
    /// — the "GPU memory" analogue reported in the Fig. 5b reproduction.
    pub graph_bytes: usize,
    /// The forest's counts at iteration 0, then what each temperature
    /// step that dropped candidates left, in order.
    pub live: Vec<LiveRow>,
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

/// Throttled stderr progress reporting for long `dgr route` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressConfig {
    /// Print every `every` iterations (the final iteration always
    /// prints).
    pub every: usize,
    /// Minimum wall-clock gap between lines, so tiny fast runs do not
    /// flood stderr.
    pub min_gap: Duration,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig {
            every: 100,
            min_gap: Duration::from_millis(200),
        }
    }
}

/// Trains `model` in place per `cfg` and returns the report.
///
/// Every iteration: set the temperature from the annealing schedule,
/// take fresh Gumbel noise (if enabled; drawn while the iteration before
/// ran, see the module docs), forward, backward, Adam step. At every
/// temperature step the kernel first drops the candidates under
/// [`PRUNE_BELOW`]; it is back in the forest's layout on return.
pub fn train(model: &mut CostModel, cfg: &DgrConfig, rng: &mut StdRng) -> TrainReport {
    train_loop(model, cfg, rng, None, &mut RouteHooks::default(), 0, None)
}

/// [`train`] with observability hooks: telemetry rows, progress lines,
/// dense snapshots of the Eq. 10 expected demand over `design` every
/// [`SnapshotConfig::every`](crate::SnapshotConfig::every) iterations
/// (plus the final one), cooperative cancellation between iterations, and
/// per-iteration phase spans (`forward` / `backward` / `adam` under the
/// `train` category, and — with a helper engaged — `noise_ahead` /
/// `lane_fwd` / `lane_bwd` on whichever thread ran them) recorded when
/// `dgr_obs::enabled()`.
///
/// The two things a round varies ride beside the hooks: `iter_offset` is
/// added to every reported iteration index, so adaptive rounds continue
/// numbering instead of restarting at zero, and `lane` tags every
/// telemetry row and dense snapshot — `dgr train --batch N` trains its
/// seeds one after another into the same sinks and numbers them there; a
/// lone run passes `None`.
pub fn train_with_hooks(
    model: &mut CostModel,
    cfg: &DgrConfig,
    rng: &mut StdRng,
    design: &Design,
    hooks: &mut RouteHooks,
    iter_offset: usize,
    lane: Option<u64>,
) -> TrainReport {
    train_loop(model, cfg, rng, Some(design), hooks, iter_offset, lane)
}

/// The loop behind both entry points; [`train`] has no design and no
/// snapshot sink to capture one for.
fn train_loop(
    model: &mut CostModel,
    cfg: &DgrConfig,
    rng: &mut StdRng,
    design: Option<&Design>,
    hooks: &mut RouteHooks,
    iter_offset: usize,
    lane: Option<u64>,
) -> TrainReport {
    let _train_span = dgr_obs::span("train", "train");
    dgr_obs::status_phase("train");
    let start = Instant::now();
    let mut adam = Adam::new(num_logits(model), cfg.learning_rate);
    let mut loss_history = Vec::new();
    let mut curve = Vec::new();
    let mut iterations = 0;
    let mut final_loss = f32::NAN;
    let mut final_temperature = cfg.initial_temperature;
    let mut forward_time = Duration::ZERO;
    let mut backward_time = Duration::ZERO;
    let curve_stride = cfg.iterations.div_ceil(CURVE_POINTS).max(1);
    let mut last_progress: Option<Instant> = None;
    let mut rss_cache: Option<u64> = None;

    // dropped (joined) on every way out of this function, unwinding included
    let _helper = (model.num_paths() >= LANE_THRESHOLD).then(parallel::Helper::engage);
    // the draw for the iteration about to run: the RNG after it, and the
    // noise in a buffer of the model's layout (zeros where nothing draws)
    let draw = |noise_runs: NoiseRuns, mut rng: StdRng, mut noise: Vec<f32>| {
        parallel::ahead("noise_ahead", move || {
            noise_runs.fill(&mut rng, &mut noise);
            (rng, noise)
        })
    };
    let mut noise_ahead = None;
    // the buffer the next draw fills, while no draw is out
    let mut spare_noise = match cfg.gumbel_noise {
        true => vec![0.0; num_logits(model)],
        false => Vec::new(),
    };
    let graph_bytes = model.bytes();
    let mut live = vec![LiveRow::at(0, model)];
    let is_step = |it: usize| it > 0 && it.is_multiple_of(cfg.temperature_interval);

    for it in 0..cfg.iterations {
        if hooks.is_cancelled() {
            break;
        }
        let temp = cfg.temperature_at(it);
        model.set_temperature(temp);
        if is_step(it) {
            let _s = dgr_obs::span("train", "prune");
            if let Some(keep) = model.prune(PRUNE_BELOW) {
                adam.retain(&keep);
                spare_noise.truncate(num_logits(model));
                spare_noise.fill(0.0);
                live.push(LiveRow::at(it, model));
            }
        }
        if cfg.gumbel_noise {
            // drawn while the iteration before ran, unless this is the
            // first iteration or a step, whose layout was not known then
            let ahead = noise_ahead.take().unwrap_or_else(|| {
                draw(
                    model.noise_runs(),
                    rng.clone(),
                    std::mem::take(&mut spare_noise),
                )
            });
            let (rng_after, mut noise) = ahead.finish();
            *rng = rng_after;
            model.swap_noise(&mut noise);
            if it + 1 < cfg.iterations && !is_step(it + 1) {
                noise_ahead = Some(draw(model.noise_runs(), rng.clone(), noise));
            } else {
                spare_noise = noise;
            }
        }
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
        if cfg.loss_record_interval > 0 && it % cfg.loss_record_interval == 0 {
            loss_history.push((it, loss));
        }
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
        if let (Some(snap), Some(design)) = (hooks.snap.as_mut(), design) {
            if snap.every > 0 && (it % snap.every == 0 || last_iter) {
                crate::snapshot::write_dense_snapshot(
                    &mut snap.sink,
                    design,
                    model.demand(),
                    (iter_offset + it) as u64,
                    "train",
                    lane,
                );
            }
        }
        // a row is materialized when a sink wants it OR the global obs
        // switch is on (the run's live scope feeds off dgr_obs::tick)
        if hooks.telemetry.is_some() || dgr_obs::enabled() {
            if !hooks.skip_rss && (it % RSS_SAMPLE_INTERVAL == 0 || last_iter) {
                rss_cache = dgr_obs::profile::read_rss_bytes();
            }
            let grad_sq: f32 = model
                .tree_grad()
                .iter()
                .chain(model.path_grad())
                .map(|g| g * g)
                .sum();
            let row = IterationRow {
                iter: iter_offset + it,
                loss,
                wl: model.wl_cost(),
                vias: model.via_cost(),
                overflow: model.overflow_cost(),
                temperature: temp,
                grad_norm: grad_sq.sqrt(),
                mem_rss: rss_cache,
                lane,
            };
            if let Some(sink) = hooks.telemetry.as_mut() {
                sink.record(&row);
            }
            dgr_obs::tick(&row);
        }
        {
            let _s = dgr_obs::span("train", "adam");
            let (logits, grads) = model.logits_and_grads();
            adam.step(logits, grads);
        }
        if let Some(progress) = hooks.progress {
            let due = progress.every > 0 && (it % progress.every == 0 || last_iter);
            let spaced = last_progress.is_none_or(|t| t.elapsed() >= progress.min_gap);
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
    if let Some(snap) = hooks.snap.as_mut() {
        snap.sink.flush();
    }
    // extraction, the warm start and every other reader index the model
    // by the forest
    model.restore_layout();

    TrainReport {
        iterations,
        loss_history,
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

/// One logit per tree and per path.
fn num_logits(model: &CostModel) -> usize {
    model.num_trees() + model.num_paths()
}

#[cfg(test)]
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
            loss_record_interval: 50,
            activation: dgr_autodiff::Activation::Relu,
            ..DgrConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train(&mut model, &cfg, &mut rng);

        assert_eq!(report.iterations, 200);
        assert_eq!(report.loss_history.len(), 4);
        let first = report.loss_history[0].1;
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
        let report = train_with_hooks(&mut model, &cfg, &mut rng, &design, &mut hooks, 0, None);
        assert_eq!(report.iterations, 0);
        assert!(report.final_loss.is_nan());
        assert_eq!(report.final_temperature, 0.7);
        assert!(report.curve.is_empty() && report.loss_history.is_empty());
        assert_eq!(hooks.telemetry.unwrap().rows(), 0);
    }

    /// `nets` random two- to four-pin nets on a 40 × 40 grid with the
    /// default candidates and patterns, and a 12-iteration config whose
    /// temperature steps every 4 iterations from low enough that each
    /// step finds candidates under [`PRUNE_BELOW`].
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
            iterations: 12,
            initial_temperature: 0.05,
            temperature_interval: 4,
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
        use rand::RngCore;
        let logits = model.tree_logits().iter().chain(model.path_logits());
        (logits.map(|w| w.to_bits()).collect(), rng.next_u64())
    }

    /// The loop as it was before the helper: `iterations` of the step's
    /// prune, noise, forward, backward and the update, inline. Returns
    /// the losses too.
    fn inline_loop(
        model: &mut CostModel,
        cfg: &DgrConfig,
        rng: &mut StdRng,
        iterations: usize,
    ) -> Vec<u32> {
        let mut adam = Adam::new(num_logits(model), cfg.learning_rate);
        let mut losses = Vec::new();
        for it in 0..iterations {
            model.set_temperature(cfg.temperature_at(it));
            if it > 0 && it.is_multiple_of(cfg.temperature_interval) {
                if let Some(keep) = model.prune(PRUNE_BELOW) {
                    adam.retain(&keep);
                }
            }
            model.sample_noise(rng);
            model.forward();
            losses.push(model.loss().to_bits());
            model.backward();
            let (w, g) = model.logits_and_grads();
            adam.step(w, g);
        }
        model.restore_layout();
        losses
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
                    [0, 4, 8],
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
        assert_eq!(
            report.graph_bytes,
            model.bytes(),
            "the peak is the forest's"
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
    /// while the helper holds the next iteration's noise draw: the report
    /// counts the iterations that ran, and the RNG comes back as the
    /// inline loop leaves it after that many — the draw for the iteration
    /// that never ran shows nowhere.
    #[test]
    fn a_cancel_mid_run_reports_what_ran_and_hides_the_draw_ahead() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let _guard = THREADS.lock().unwrap();
        let (design, forest, mut cfg) = random_problem(1200);
        cfg.iterations = 1_000_000; // the cancel ends the run, nothing else
        let cancel = Arc::new(AtomicBool::new(false));
        // the run writes a demand snapshot per iteration to a file; a
        // line in the file is an iteration that has run
        let path = std::env::temp_dir().join(format!("dgr_cancel_{}.jsonl", std::process::id()));
        let sink = dgr_obs::SnapshotSink::to_path(path.to_str().unwrap()).unwrap();
        let mut hooks = RouteHooks {
            telemetry: Some(dgr_obs::TelemetrySink::in_memory()),
            snap: Some(crate::SnapshotConfig { sink, every: 1 }),
            cancel: Some(Arc::clone(&cancel)),
            skip_rss: true,
            ..RouteHooks::default()
        };
        // … and cancels once the run is past its first temperature step
        let past_a_step = cfg.temperature_interval + 2;
        let watcher = std::thread::spawn({
            let (cancel, path) = (Arc::clone(&cancel), path.clone());
            move || {
                let snapshots = || {
                    let file = std::fs::read(&path).unwrap_or_default();
                    file.iter().filter(|&&b| b == b'\n').count()
                };
                while snapshots() < past_a_step {
                    std::thread::yield_now();
                }
                cancel.store(true, Ordering::Relaxed);
            }
        });

        parallel::set_num_threads(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = build_cost_model(&design, &forest, &cfg, &mut rng);
        let report = train_with_hooks(&mut model, &cfg, &mut rng, &design, &mut hooks, 0, None);
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
