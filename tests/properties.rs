//! Property-based tests over the core invariants of every subsystem.

use dgr::autodiff::{Activation, CostModel, CostShape, CostTerms};
use dgr::dag::{build_forest, enumerate_paths, PatternConfig};
use dgr::grid::{GcellGrid, Point, Rect};
use dgr::rsmt::{exact_steiner, rmst, rsmt, tree_candidates, CandidateConfig};
use proptest::prelude::*;

fn arb_point(max: i32) -> impl Strategy<Value = Point> {
    (0..max, 0..max).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_pins(max_coord: i32, max_pins: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(max_coord), 1..=max_pins)
}

/// A cost kernel over one row of `reach + 1` cells: one net, one tree,
/// sub-nets grouped by `offsets`; path `i` costs `path_cost[i]` and runs
/// from cell 0 over the first `1 + i % reach` edges (none if `reach` is 0).
fn one_row_model(offsets: &[u32], path_cost: &[f32], reach: usize, logits: Vec<f32>) -> CostModel {
    let paths = path_cost.len();
    let runs: Vec<(u32, u32)> = (0..paths * reach.min(1))
        .map(|i| (0, (1 + i % reach) as u32))
        .collect();
    let run_offsets: Vec<u32> = (0..=paths).map(|i| (i * reach.min(1)) as u32).collect();
    let shape = CostShape {
        width: reach + 1,
        height: 1,
        net_tree_offsets: &[0, 1],
        subnet_tree: &vec![0; offsets.len() - 1],
        subnet_path_offsets: offsets,
        path_wl: path_cost,
        path_turns: &vec![0.0; paths],
        path_run_offsets: &run_offsets,
        path_runs: &runs,
        path_via_offsets: &vec![0; paths + 1],
        path_via_cells: &[],
        capacity: &vec![0.5; reach],
        beta: &vec![0.0; reach + 1],
    };
    let terms = CostTerms {
        wirelength: 1.0,
        via: 0.0,
        overflow: 2.0,
        sqrt_layers: 1.0,
        activation: Activation::Sigmoid,
        overflow_scale: 1.0,
    };
    CostModel::new(&shape, terms, logits).expect("a well-formed row")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rsmt_is_bracketed_by_hpwl_and_rmst(pins in arb_pins(40, 10)) {
        let tree = rsmt(&pins).unwrap();
        tree.validate().unwrap();
        let hpwl = Rect::bounding(&pins).half_perimeter() as u64;
        let mst = rmst(&pins).length();
        prop_assert!(tree.length() >= hpwl,
            "steiner {} below HPWL {}", tree.length(), hpwl);
        prop_assert!(tree.length() <= mst,
            "steiner {} exceeds MST {}", tree.length(), mst);
    }

    #[test]
    fn exact_steiner_is_never_beaten_by_the_heuristic(pins in arb_pins(20, 7)) {
        let exact = exact_steiner(&pins).length();
        let heuristic = dgr::rsmt::steinerize::steinerized_rmst(&pins).length();
        prop_assert!(heuristic >= exact);
    }

    #[test]
    fn tree_candidates_all_span_the_pins(pins in arb_pins(30, 8)) {
        let pool = tree_candidates(&pins, &CandidateConfig::default()).unwrap();
        prop_assert!(!pool.is_empty());
        let distinct: std::collections::HashSet<_> = pins.iter().copied().collect();
        for tree in &pool {
            tree.validate().unwrap();
            for p in &distinct {
                prop_assert!(tree.nodes().contains(p));
            }
        }
    }

    #[test]
    fn pattern_paths_connect_with_exact_manhattan_length(
        a in arb_point(50),
        b in arb_point(50),
        stride in prop::option::of(1u32..6),
    ) {
        let paths = enumerate_paths(a, b, stride);
        prop_assert!(!paths.is_empty());
        for p in &paths {
            prop_assert_eq!(p.source(), a);
            prop_assert_eq!(p.sink(), b);
            prop_assert_eq!(p.wirelength(), a.manhattan_distance(b));
            prop_assert!(p.num_turns() <= 2);
        }
    }

    #[test]
    fn forest_arenas_validate_for_random_netlists(
        netlist in proptest::collection::vec(arb_pins(24, 6), 1..12),
        z in prop::option::of(2u32..5),
    ) {
        let grid = GcellGrid::new(25, 25).unwrap();
        let pools: Vec<_> = netlist
            .iter()
            .map(|pins| tree_candidates(pins, &CandidateConfig::default()).unwrap())
            .collect();
        let patterns = match z {
            Some(s) => PatternConfig::with_z(s),
            None => PatternConfig::l_only(),
        };
        let forest = build_forest(&grid, &pools, patterns).unwrap();
        forest.validate().unwrap();
        // every path's edge count equals its wirelength
        for i in 0..forest.num_paths() {
            prop_assert_eq!(
                forest.path_edges(i).len() as f32,
                forest.path_wirelength(i)
            );
        }
    }

    #[test]
    fn segmented_softmax_groups_sum_to_one(
        widths in proptest::collection::vec(1usize..5, 1..10),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut offsets = vec![0u32];
        for w in &widths {
            offsets.push(offsets.last().unwrap() + *w as u32);
        }
        let n = *offsets.last().unwrap() as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // one tree whose sub-nets are the groups; the first logit is the tree's
        let logits: Vec<f32> = (0..1 + n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut model = one_row_model(&offsets, &vec![0.0; n], 0, logits);
        model.sample_noise(&mut rng);
        model.forward();
        for k in 0..widths.len() {
            let r = offsets[k] as usize..offsets[k + 1] as usize;
            let sum: f32 = model.p()[r].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "group {k} sums to {sum}");
        }
    }

    #[test]
    fn autodiff_gradients_match_finite_differences(
        logits in proptest::collection::vec(-2.0f32..2.0, 4..10),
        costs in proptest::collection::vec(-3.0f32..3.0, 10),
    ) {
        // one group of n paths: path i costs `costs[i]` and runs over the
        // first 1 + i % 3 edges of a four-cell row
        let n = logits.len();
        let loss_at = |path_logits: &[f32]| {
            let mut w = vec![0.0];
            w.extend_from_slice(path_logits);
            let mut model = one_row_model(&[0, n as u32], &costs[..n], 3, w);
            model.forward();
            model
        };
        let mut model = loss_at(&logits);
        model.backward();
        let analytic = model.path_grad().to_vec();
        let h = 1e-2f32;
        for i in 0..n {
            let mut up = logits.clone();
            up[i] += h;
            let mut dn = logits.clone();
            dn[i] -= h;
            let numeric = (loss_at(&up).loss() - loss_at(&dn).loss()) / (2.0 * h);
            prop_assert!(
                (analytic[i] - numeric).abs() < 0.05,
                "grad[{i}] analytic {} vs numeric {}", analytic[i], numeric
            );
        }
    }

    #[test]
    fn maze_routes_are_rectilinear_and_connected(
        a in arb_point(20),
        b in arb_point(20),
        turn_cost in 0.0f32..3.0,
    ) {
        let grid = GcellGrid::new(20, 20).unwrap();
        let path = dgr::grid::maze_route(
            &grid, a, b, |_| 1.0,
            &dgr::grid::MazeConfig { bounds: None, turn_cost },
        ).unwrap();
        prop_assert_eq!(*path.first().unwrap(), a);
        prop_assert_eq!(*path.last().unwrap(), b);
        let len: u32 = path.windows(2).map(|w| w[0].manhattan_distance(w[1])).sum();
        prop_assert_eq!(len, a.manhattan_distance(b)); // uniform cost → shortest
        for w in path.windows(2) {
            prop_assert!(w[0].is_aligned_with(w[1]));
        }
    }

    #[test]
    fn design_format_roundtrips(
        netlist in proptest::collection::vec(arb_pins(15, 5), 1..8),
        layers in 1u32..10,
    ) {
        let grid = GcellGrid::new(16, 16).unwrap();
        let cap = dgr::grid::CapacityBuilder::uniform(&grid, 3.5).build(&grid).unwrap();
        let nets: Vec<_> = netlist
            .into_iter()
            .enumerate()
            .map(|(i, pins)| dgr::grid::Net::new(format!("n{i}"), pins))
            .collect();
        let design = dgr::grid::Design::new(grid, cap, nets, layers).unwrap();
        let parsed = dgr::io::parse_design(&dgr::io::write_design(&design)).unwrap();
        prop_assert_eq!(parsed.nets, design.nets);
        prop_assert_eq!(parsed.num_layers, design.num_layers);
    }

    #[test]
    fn overflow_stats_scale_monotonically_with_demand(
        wires in 1u32..6,
        cap in 1.0f32..4.0,
    ) {
        let grid = GcellGrid::new(8, 8).unwrap();
        let capm = dgr::grid::CapacityBuilder::uniform(&grid, cap).build(&grid).unwrap();
        let mut demand = dgr::grid::DemandMap::new(&grid);
        let mut prev = 0.0f64;
        for _ in 0..wires {
            demand.add_segment(&grid, Point::new(0, 3), Point::new(7, 3)).unwrap();
            let s = dgr::grid::OverflowStats::measure(&grid, &capm, &demand);
            prop_assert!(s.total_overflow >= prev);
            prev = s.total_overflow;
        }
    }
}
