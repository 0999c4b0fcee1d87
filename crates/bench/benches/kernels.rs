//! Micro-benchmarks of the hot kernels: the building blocks whose
//! throughput determines DGR's per-iteration cost.

use dgr_autodiff::kernels;
use dgr_bench::harness::Harness;
use dgr_grid::{GcellGrid, Point};
use dgr_rsmt::{rsmt, tree_candidates, CandidateConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_pair_softmax(h: &mut Harness) {
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let logits: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let gout: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut p = vec![0.0f32; n];
        let mut gx = vec![0.0f32; n];
        h.bench_throughput(&format!("pair_softmax/fwd_bwd/{n}"), n as u64, || {
            for k in (0..n).step_by(2) {
                kernels::softmax_into(&logits[k..k + 2], &mut p[k..k + 2]);
                kernels::seg_softmax_bwd(&p[k..k + 2], &gout[k..k + 2], &mut gx[k..k + 2]);
            }
        });
    }
}

fn bench_gather_scatter(h: &mut Harness) {
    for &n in &[100_000usize, 1_000_000] {
        let mut rng = StdRng::seed_from_u64(2);
        let w: Vec<f32> = (0..n / 4).map(|_| rng.gen_range(0.0..1.0)).collect();
        let idx: Vec<u32> = (0..n).map(|_| rng.gen_range(0..(n as u32 / 4))).collect();
        let tgt: Vec<u32> = (0..n).map(|_| rng.gen_range(0..(n as u32 / 8))).collect();
        let mut gathered = vec![0.0f32; n];
        let mut out = vec![0.0f32; n / 8];
        h.bench_throughput(&format!("gather_scatter/{n}"), n as u64, || {
            kernels::gather_fwd(&mut gathered, &w, &idx);
            kernels::scatter_add(&mut out, &tgt, &gathered);
        });
    }
}

fn bench_rsmt(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(3);
    for &pins in &[3usize, 5, 8, 20, 64] {
        let pts: Vec<Point> = (0..pins)
            .map(|_| Point::new(rng.gen_range(0..500), rng.gen_range(0..500)))
            .collect();
        h.bench(&format!("rsmt/pins/{pins}"), || {
            rsmt(&pts).expect("non-empty");
        });
    }
}

fn bench_forest_build(h: &mut Harness) {
    let grid = GcellGrid::new(128, 128).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let pools: Vec<_> = (0..2000)
        .map(|_| {
            let pins: Vec<Point> = (0..rng.gen_range(2..5))
                .map(|_| Point::new(rng.gen_range(0..128), rng.gen_range(0..128)))
                .collect();
            tree_candidates(&pins, &CandidateConfig::default()).expect("pins")
        })
        .collect();
    h.bench("forest_build_2000_nets", || {
        dgr_dag::build_forest(&grid, &pools, dgr_dag::PatternConfig::l_only()).expect("in grid");
    });
}

fn bench_maze(h: &mut Harness) {
    let grid = GcellGrid::new(256, 256).unwrap();
    h.bench("maze_route_256", || {
        dgr_baseline::maze_route(
            &grid,
            Point::new(3, 7),
            Point::new(250, 240),
            |_| 1.0,
            &dgr_baseline::maze::MazeConfig::default(),
        )
        .expect("connected");
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_pair_softmax(&mut h);
    bench_gather_scatter(&mut h);
    bench_rsmt(&mut h);
    bench_forest_build(&mut h);
    bench_maze(&mut h);
}
