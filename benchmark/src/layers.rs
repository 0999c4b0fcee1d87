//! Every call the benchmark makes into the router's layers, one thin
//! function per layer, in the order `dgr route` runs them
//! (`DgrRouter::route_with_hooks` → `refine` → `assign_layers` →
//! `RouteGuide`). A change to a layer's public API is a change to this
//! file and no other.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dgr_autodiff::kernels;
use dgr_core::{CostModel, DgrConfig, DgrRouter, RouteHooks, RoutingSolution, TrainReport};
use dgr_dag::DagForest;
use dgr_grid::Design;
use dgr_post::{AssignConfig, Assigned3d, RefineConfig, RefineReport, RouteGuide};
use dgr_rsmt::{CandidateConfig, RoutingTree, RsmtCache};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The configuration `dgr route --iterations N --seed 0` builds.
pub fn config(iterations: usize) -> DgrConfig {
    DgrConfig {
        iterations,
        seed: 0,
        ..DgrConfig::default()
    }
}

/// What the CLI does before routing: a fresh, enabled span registry and a
/// published run identity (the CLI enables spans on every run).
pub fn obs_begin(cfg: &DgrConfig) {
    dgr_obs::reset();
    dgr_obs::set_enabled(true);
    dgr_obs::status_begin("route", cfg.iterations as u64, 1);
}

/// `io`: design text → `Design`.
pub fn parse(text: &str) -> Design {
    dgr_io::parse_design(text).expect("generated design parses")
}

/// Per-net candidate pools and what the Steiner cache did for them.
pub struct Pools {
    pub trees: Vec<Vec<RoutingTree>>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Nets whose Steiner tree comes from Dreyfus–Wagner (4 to
/// `EXACT_PIN_LIMIT` distinct pins) and not from a 1/2/3-pin fast path
/// or the large-net heuristic.
pub fn exact_nets(design: &Design) -> usize {
    design
        .nets
        .iter()
        .filter(|n| {
            (4..=dgr_rsmt::EXACT_PIN_LIMIT).contains(&dgr_rsmt::tree::dedup_pins(&n.pins).len())
        })
        .count()
}

/// `rsmt`: the per-net `tree_candidates_cached` fan-out, with the
/// router's per-net seeds (splitmix64 of base seed and net index) and its
/// parallel threshold of 64 nets.
pub fn candidates(design: &Design, cfg: &DgrConfig) -> Pools {
    fn per_net_seed(base: u64, i: usize) -> u64 {
        let mut z = base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut base = cfg.candidates.clone();
    base.clamp = Some(design.grid.bounds());
    let cache = RsmtCache::new();
    let nets = &design.nets;
    let trees = dgr_autodiff::parallel::par_indexed(nets.len(), 64, |i| {
        let cfg_i = CandidateConfig {
            seed: per_net_seed(base.seed, i),
            ..base.clone()
        };
        dgr_rsmt::tree_candidates_cached(&nets[i].pins, &cfg_i, &cache)
            .expect("generated nets have pins")
    });
    Pools {
        trees,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    }
}

/// `dag`: candidate pools → DAG forest.
pub fn forest(design: &Design, pools: &Pools, cfg: &DgrConfig) -> DagForest {
    dgr_dag::build_forest_with_extras(&design.grid, &pools.trees, cfg.patterns, &HashMap::new())
        .expect("forest builds for generated nets")
}

/// The RNG the router seeds once and threads through relax and train.
pub fn rng(cfg: &DgrConfig) -> StdRng {
    StdRng::seed_from_u64(cfg.seed)
}

/// `core`: forest → expected-cost tape.
pub fn relax(design: &Design, forest: &DagForest, cfg: &DgrConfig, rng: &mut StdRng) -> CostModel {
    dgr_core::build_cost_model(design, forest, cfg, rng)
}

/// `core` + `autodiff`: the training loop.
pub fn train(model: &mut CostModel, cfg: &DgrConfig, rng: &mut StdRng) -> TrainReport {
    dgr_core::train(model, cfg, rng)
}

/// `core`: trained probabilities → discrete 2D solution.
pub fn extract(
    design: &Design,
    forest: &DagForest,
    model: &mut CostModel,
    cfg: &DgrConfig,
) -> RoutingSolution {
    dgr_core::extract_solution(design, forest, model, cfg).expect("extraction stays on the grid")
}

/// `post`: maze rip-up and reroute of nets over overflowed edges.
pub fn refine(design: &Design, solution: &mut RoutingSolution) -> RefineReport {
    dgr_post::refine(design, solution, RefineConfig::default()).expect("refine stays on the grid")
}

/// `post`: 2D solution → layers.
pub fn assign(design: &Design, solution: &RoutingSolution) -> Assigned3d {
    dgr_post::assign_layers(design, solution, AssignConfig::default())
        .expect("generated designs have two or more layers")
}

/// `post`: layer assignment → guide boxes and their text.
pub fn guide(design: &Design, assigned: &Assigned3d) -> (usize, String) {
    let guide = RouteGuide::from_assignment(design, assigned);
    (guide.num_boxes(), guide.to_text())
}

/// One whole `DgrRouter::route_with_hooks`, for the cost of observing it:
/// with the span registry on or off, with or without the in-memory
/// telemetry sink `dgrd` attaches to every job.
pub fn route_whole(design: &Design, cfg: &DgrConfig, spans: bool, telemetry: bool) -> Duration {
    dgr_obs::reset();
    dgr_obs::set_enabled(spans);
    let mut hooks = RouteHooks {
        telemetry: telemetry.then(dgr_obs::TelemetrySink::in_memory),
        ..RouteHooks::default()
    };
    let t = Instant::now();
    let solution = DgrRouter::new(cfg.clone())
        .route_with_hooks(design, &mut hooks)
        .expect("route succeeds");
    let elapsed = t.elapsed();
    black_box(solution);
    elapsed
}

/// Nanoseconds per element of the four kernels the tape spends its time
/// in, over the workload's own index structures.
pub struct KernelTimes {
    pub seg_softmax_fwd: f64,
    pub seg_softmax_bwd: f64,
    pub gather: f64,
    pub scatter_add: f64,
}

/// `autodiff`: times `softmax_into` / `seg_softmax_bwd` over the forest's
/// sub-net → path segments, and `gather_fwd` / `scatter_add` over its
/// path → edge incidence, repeating each until it has run for `budget`.
pub fn kernel_times(forest: &DagForest, num_edges: usize, budget: Duration) -> KernelTimes {
    let offsets = forest.subnet_path_offsets_slice();
    let paths = forest.num_paths();
    let logits: Vec<f32> = (0..paths).map(|i| (i % 17) as f32 * 0.05 - 0.4).collect();
    let mut prob = vec![0.0f32; paths];
    let gout: Vec<f32> = (0..paths).map(|i| (i % 13) as f32 * 0.1).collect();
    let mut gx = vec![0.0f32; paths];

    let (edge_offsets, edge_idx) = forest.path_edge_csr();
    // entry k of the incidence belongs to path `owner[k]`
    let mut owner = vec![0u32; edge_idx.len()];
    for p in 0..paths {
        owner[edge_offsets[p] as usize..edge_offsets[p + 1] as usize].fill(p as u32);
    }
    let mut entries = vec![0.0f32; edge_idx.len()];
    let mut demand = vec![0.0f32; num_edges];

    // ns per element of `pass`, which touches `elems` elements per call
    let time = |elems: usize, pass: &mut dyn FnMut()| -> f64 {
        pass(); // warm the buffers
        let start = Instant::now();
        let mut calls = 0u32;
        while calls < 3 || start.elapsed() < budget {
            pass();
            calls += 1;
        }
        start.elapsed().as_nanos() as f64 / (f64::from(calls) * elems.max(1) as f64)
    };

    let seg_softmax_fwd = time(paths, &mut || {
        for w in offsets.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            kernels::softmax_into(&logits[a..b], &mut prob[a..b]);
        }
        black_box(&mut prob);
    });
    let seg_softmax_bwd = time(paths, &mut || {
        for w in offsets.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            kernels::seg_softmax_bwd(&prob[a..b], &gout[a..b], &mut gx[a..b]);
        }
        black_box(&mut gx);
    });
    let gather = time(owner.len(), &mut || {
        kernels::gather_fwd(&mut entries, &prob, &owner);
        black_box(&mut entries);
    });
    let scatter_add = time(edge_idx.len(), &mut || {
        kernels::scatter_add(&mut demand, edge_idx, &entries);
        black_box(&mut demand);
    });
    KernelTimes {
        seg_softmax_fwd,
        seg_softmax_bwd,
        gather,
        scatter_add,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Placement, Shape};
    use crate::validate::validate_guide;

    /// Generator → every layer in order → validator, on a design small
    /// enough for a debug build.
    #[test]
    fn the_pipeline_yields_a_guide_the_validator_accepts_until_it_is_corrupted() {
        let generated = generate(
            &Shape {
                width: 24,
                height: 20,
                layers: 5,
                nets: 120,
                base_capacity: 8.0,
                beta: 0.25,
                placement: Placement::Clustered {
                    clusters: 6,
                    spread: 3.0,
                    two_cluster_share: 0.3,
                    dispersed_share: 0.45,
                    macros: 1,
                    macro_factor: 0.3,
                },
            },
            5,
        );
        let cfg = config(20);
        let design = parse(&generated.text);
        assert_eq!(design.nets.len(), 120);
        let pools = candidates(&design, &cfg);
        let forest = forest(&design, &pools, &cfg);
        let mut rng = rng(&cfg);
        let mut model = relax(&design, &forest, &cfg, &mut rng);
        let report = train(&mut model, &cfg, &mut rng);
        assert_eq!(report.iterations, 20);
        let mut solution = extract(&design, &forest, &mut model, &cfg);
        refine(&design, &mut solution);
        let assigned = assign(&design, &solution);
        let (boxes, text) = guide(&design, &assigned);

        let stats = validate_guide(&generated, &text).expect("a real guide is valid");
        assert_eq!((stats.nets, stats.boxes), (120, boxes));

        // drop the first net's first box: a pin is uncovered or the net
        // falls apart
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(2);
        assert!(validate_guide(&generated, &lines.join("\n")).is_err());
        // move a box to a layer the design does not have
        let bad_layer = text.replacen(" 0\n", " 9\n", 1).replacen(" 1\n", " 9\n", 1);
        assert!(validate_guide(&generated, &bad_layer)
            .unwrap_err()
            .contains("layer 9 of 5"));
    }
}
