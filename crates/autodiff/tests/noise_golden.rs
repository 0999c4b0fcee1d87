//! The Gumbel noise stream, pinned: 2²⁰ draws through
//! [`NoiseRuns::fill`] must hash to `tests/golden/gumbel_noise.txt`,
//! and the generator must be left where the golden says.
//!
//! Every other golden pins the noise only through what training does
//! with it; this one pins the samples themselves, bit for bit, so a
//! faster transform of the uniforms cannot move a single one.
//! `DGR_UPDATE_GOLDEN=1` rewrites the file — only ever from a commit
//! whose noise is known good.

use dgr_autodiff::{Activation, CostModel, CostShape, CostTerms};
use dgr_obs::fnv1a64;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Group sizes, cycled: one constant group and three that draw noise.
const SIZES: [usize; 4] = [1, 2, 3, 3];

/// CSR offsets of `cycles` repetitions of [`SIZES`], and the entries
/// they number that sit in groups of two or more.
fn groups(cycles: usize, base: usize) -> (Vec<u32>, Vec<usize>) {
    let mut offsets = vec![0u32];
    let mut noisy = Vec::new();
    for &size in SIZES.iter().cycle().take(SIZES.len() * cycles) {
        let start = *offsets.last().unwrap() as usize;
        if size > 1 {
            noisy.extend(base + start..base + start + size);
        }
        offsets.push((start + size) as u32);
    }
    (offsets, noisy)
}

/// 144 trees and 1 008 paths in one-, two- and three-candidate groups,
/// 1 024 of them noisy; every path is one run along a row.
fn model() -> (CostModel, Vec<usize>) {
    let side = 8;
    let (net_tree_offsets, mut noisy) = groups(16, 0);
    let trees = *net_tree_offsets.last().unwrap() as usize;
    let (subnet_path_offsets, noisy_paths) = groups(112, trees);
    noisy.extend(noisy_paths);
    let subnets = subnet_path_offsets.len() - 1;
    let paths = *subnet_path_offsets.last().unwrap() as usize;
    let runs: Vec<(u32, u32)> = (0..paths)
        .map(|p| ((p % side * side) as u32, (p % side * side + 3) as u32))
        .collect();
    let shape = CostShape {
        width: side,
        height: side,
        net_tree_offsets: &net_tree_offsets,
        subnet_tree: &(0..subnets)
            .map(|s| (s * trees / subnets) as u32)
            .collect::<Vec<_>>(),
        subnet_path_offsets: &subnet_path_offsets,
        path_wl: &vec![3.0; paths],
        path_run_offsets: &(0..=paths as u32).collect::<Vec<_>>(),
        path_runs: &runs,
        path_via_offsets: &vec![0; paths + 1],
        path_via_cells: &[],
        capacity: &vec![1.0; 2 * side * (side - 1)],
        beta: &vec![0.5; side * side],
    };
    let terms = CostTerms {
        wirelength: 0.5,
        via: 4.0,
        overflow: 500.0,
        sqrt_layers: 3.0,
        activation: Activation::Sigmoid,
        overflow_scale: 1.0,
    };
    let model = CostModel::new(&shape, terms, vec![0.0; trees + paths]).expect("a valid model");
    (model, noisy)
}

#[test]
fn gumbel_noise_matches_the_golden() {
    let (model, noisy) = model();
    assert_eq!(noisy.len(), 1024);
    let runs = model.noise_runs();
    let mut rng = StdRng::seed_from_u64(7);
    let mut noise = vec![0.0f32; model.num_trees() + model.num_paths()];
    let mut bytes = Vec::with_capacity(4 << 20);
    for _ in 0..1024 {
        runs.fill(&mut rng, &mut noise);
        bytes.extend(noisy.iter().flat_map(|&i| noise[i].to_bits().to_le_bytes()));
    }
    let text = format!(
        "draws {}\nfnv1a64 {:016x}\nnext_u64 {:016x}\n",
        bytes.len() / 4,
        fnv1a64(&bytes),
        rng.next_u64()
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/gumbel_noise.txt"
    );
    if std::env::var_os("DGR_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).unwrap();
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (DGR_UPDATE_GOLDEN=1 records it)"));
    assert!(text == want, "noise differs from {path}:\n{text}");
}
