//! Exact overflow minimization over L-shape choices — the paper's ILP
//! reference (Table 1).
//!
//! The Table-1 experiment fixes one routing tree per net and asks for the
//! L-shape assignment minimizing `Σ_e ReLU(d_e − cap_e)` (wire demand
//! only, because a linear program cannot model the other activations).
//! The paper solves this with CVXPY; we solve it **exactly** with
//! branch-and-bound:
//!
//! * **decomposition** — nets whose bounding boxes do not overlap cannot
//!   share an edge, so connected components of the bbox-overlap graph are
//!   solved independently,
//! * **admissible bound** — `overflow(committed) + Σ_s min-choice
//!   marginal(s)`: because ReLU is convex, a path's marginal overflow
//!   against the current demand can only grow as other paths commit, so
//!   this never overestimates,
//! * **dynamic branching** — expand the remaining sub-net whose two
//!   choices differ most under the current demand, cheapest choice first,
//! * **wall-clock limit** — instances the bound cannot close in time
//!   report [`IlpStatus::TimedOut`], mirroring the paper's `N/A` rows.

use std::time::{Duration, Instant};

use dgr_dag::{build_forest, DagForest, PatternConfig};
use dgr_grid::{Design, Rect};
use dgr_rsmt::CandidateConfig;

use crate::BaselineError;

/// Completion status of an ILP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpStatus {
    /// The returned overflow is provably optimal.
    Optimal,
    /// The time limit expired; the returned overflow is the best
    /// incumbent (an upper bound on the optimum).
    TimedOut,
}

/// Result of an ILP solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlpResult {
    /// Total `Σ_e ReLU(d_e − cap_e)` of the best assignment found.
    pub overflow: f64,
    /// Whether the value is proven optimal.
    pub status: IlpStatus,
    /// Wall-clock solve time.
    pub runtime: Duration,
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
}

/// Exact branch-and-bound solver for the Table-1 problem.
#[derive(Debug, Clone)]
pub struct IlpSolver {
    /// Wall-clock budget; `TimedOut` is reported when exceeded.
    pub time_limit: Duration,
}

impl Default for IlpSolver {
    fn default() -> Self {
        IlpSolver {
            time_limit: Duration::from_secs(600),
        }
    }
}

struct Component<'f> {
    subnets: Vec<usize>,
    forest: &'f DagForest,
}

impl IlpSolver {
    /// Creates a solver with the given time budget.
    pub fn new(time_limit: Duration) -> Self {
        IlpSolver { time_limit }
    }

    /// Solves the L-shape assignment problem for `design`.
    ///
    /// # Errors
    ///
    /// Propagates tree/forest construction failures.
    pub fn solve(&self, design: &Design) -> Result<IlpResult, BaselineError> {
        let start = Instant::now();
        let mut pools = Vec::with_capacity(design.nets.len());
        let cand = CandidateConfig::single();
        for net in &design.nets {
            pools.push(dgr_rsmt::tree_candidates(&net.pins, &cand)?);
        }
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only())?;

        // Component decomposition over net bounding boxes.
        let comps = components(design, &forest);
        let cap: Vec<f32> = design.capacity.as_slice().to_vec();
        let mut demand = vec![0.0f32; design.grid.num_edges()];
        let mut total = 0.0f64;
        let mut nodes = 0u64;
        let mut status = IlpStatus::Optimal;
        for comp in comps {
            let deadline = start + self.time_limit;
            let (ov, n, opt) = solve_component(&comp, &cap, &mut demand, deadline);
            total += ov;
            nodes += n;
            if !opt {
                status = IlpStatus::TimedOut;
            }
        }
        Ok(IlpResult {
            overflow: total,
            status,
            runtime: start.elapsed(),
            nodes,
        })
    }

    /// Brute-force reference for tests: enumerates every assignment.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    ///
    /// # Panics
    ///
    /// Panics if the design has more than 24 sub-nets (4^24 assignments).
    pub fn brute_force(&self, design: &Design) -> Result<f64, BaselineError> {
        let cand = CandidateConfig::single();
        let mut pools = Vec::with_capacity(design.nets.len());
        for net in &design.nets {
            pools.push(dgr_rsmt::tree_candidates(&net.pins, &cand)?);
        }
        let forest = build_forest(&design.grid, &pools, PatternConfig::l_only())?;
        let s = forest.num_subnets();
        assert!(s <= 24, "brute force limited to 24 subnets, got {s}");
        let cap = design.capacity.as_slice();
        let mut best = f64::INFINITY;
        let mut choice = vec![0usize; s];
        loop {
            // evaluate current assignment
            let mut demand = vec![0.0f32; design.grid.num_edges()];
            for (sub, &c) in choice.iter().enumerate() {
                let paths: Vec<usize> = forest.paths_of_subnet(sub).collect();
                let p = paths[c.min(paths.len() - 1)];
                for e in forest.path_edges(p) {
                    demand[e as usize] += 1.0;
                }
            }
            let ov: f64 = demand
                .iter()
                .zip(cap)
                .map(|(&d, &c)| ((d - c).max(0.0)) as f64)
                .sum();
            best = best.min(ov);
            // advance the mixed-radix counter
            let mut k = 0;
            loop {
                if k == s {
                    return Ok(best);
                }
                let radix = forest.paths_of_subnet(k).len();
                choice[k] += 1;
                if choice[k] < radix {
                    break;
                }
                choice[k] = 0;
                k += 1;
            }
        }
    }
}

fn components<'f>(design: &Design, forest: &'f DagForest) -> Vec<Component<'f>> {
    let n = forest.num_nets();
    let boxes: Vec<Option<Rect>> = design
        .nets
        .iter()
        .map(|net| {
            if net.pins.is_empty() {
                None
            } else {
                Some(Rect::bounding(&net.pins))
            }
        })
        .collect();
    // Union-find over nets by bbox overlap. Small instances use the exact
    // O(n²) pairwise test (tightest decomposition); large instances union
    // through fine spatial buckets — conservative (same-bucket nets may
    // not actually overlap) but always *valid*: a component can only
    // grow, never split two interacting nets apart. O(n·buckets-per-net).
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    if n <= 2000 {
        #[allow(clippy::needless_range_loop)] // pairwise i<j sweep
        for i in 0..n {
            let Some(bi) = boxes[i] else { continue };
            for j in i + 1..n {
                let Some(bj) = boxes[j] else { continue };
                let overlap = bi.lo.x <= bj.hi.x
                    && bj.lo.x <= bi.hi.x
                    && bi.lo.y <= bj.hi.y
                    && bj.lo.y <= bi.hi.y;
                if overlap {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
    } else {
        const BUCKET: i32 = 4;
        let mut bucket_owner: std::collections::HashMap<(i32, i32), usize> = Default::default();
        for (i, bx) in boxes.iter().enumerate() {
            let Some(b) = bx else { continue };
            for by in (b.lo.y / BUCKET)..=(b.hi.y / BUCKET) {
                for bxx in (b.lo.x / BUCKET)..=(b.hi.x / BUCKET) {
                    match bucket_owner.entry((bxx, by)) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            let (ri, rj) = (find(&mut parent, i), find(&mut parent, *e.get()));
                            if ri != rj {
                                parent[ri] = rj;
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(i);
                        }
                    }
                }
            }
        }
    }
    let mut groups: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for net in 0..n {
        let root = find(&mut parent, net);
        let subnets: Vec<usize> = forest
            .trees_of_net(net)
            .flat_map(|t| forest.subnets_of_tree(t))
            .collect();
        groups.entry(root).or_default().extend(subnets);
    }
    groups
        .into_values()
        .filter(|s| !s.is_empty())
        .map(|subnets| Component { subnets, forest })
        .collect()
}

/// DFS branch-and-bound over one component. Returns
/// `(optimal overflow, nodes, proven)`. All demand commitments are
/// unwound before returning, so `demand` comes back unchanged.
///
/// Assumes non-negative capacities (true for every synthetic protocol):
/// with `cap ≥ 0` the telescoped marginals equal the final overflow.
fn solve_component(
    comp: &Component<'_>,
    cap: &[f32],
    demand: &mut [f32],
    deadline: Instant,
) -> (f64, u64, bool) {
    let forest = comp.forest;
    let subs = &comp.subnets;
    let mut nodes = 0u64;
    let mut proven = true;

    // greedy incumbent: cheapest marginal per subnet in order
    let mut best = {
        let mut greedy_choice = Vec::with_capacity(subs.len());
        for &s in subs {
            let mut best_p = None;
            let mut best_m = f64::INFINITY;
            for p in forest.paths_of_subnet(s) {
                let m = marginal(forest, p, cap, demand);
                if m < best_m {
                    best_m = m;
                    best_p = Some(p);
                }
            }
            let p = best_p.expect("subnet has paths");
            commit(forest, p, demand, 1.0);
            greedy_choice.push(p);
        }
        let incumbent = overflow_of(subs, forest, &greedy_choice, cap, demand);
        for &p in &greedy_choice {
            commit(forest, p, demand, -1.0);
        }
        incumbent
    };

    // DFS stack: (depth, committed overflow, remaining set as index list)
    struct Frame {
        remaining: Vec<usize>,
        tried: Vec<usize>, // paths committed along this branch, for undo
        committed: f64,
        next_choices: Vec<usize>, // paths of the chosen subnet, cheap first
    }
    fn choose_subnet(
        forest: &DagForest,
        remaining: &[usize],
        cap: &[f32],
        demand: &[f32],
    ) -> (usize, Vec<usize>, f64) {
        // pick the subnet with the largest spread between its choices
        let mut pick = 0usize;
        let mut pick_paths = Vec::new();
        let mut pick_spread = -1.0f64;
        let mut lb_sum = 0.0f64;
        for (k, &s) in remaining.iter().enumerate() {
            let mut paths: Vec<usize> = forest.paths_of_subnet(s).collect();
            let mut margs: Vec<f64> = paths
                .iter()
                .map(|&p| marginal(forest, p, cap, demand))
                .collect();
            // sort choices cheap-first
            let mut order: Vec<usize> = (0..paths.len()).collect();
            order.sort_by(|&a, &b| margs[a].total_cmp(&margs[b]));
            paths = order.iter().map(|&i| paths[i]).collect();
            margs.sort_by(f64::total_cmp);
            lb_sum += margs[0];
            let spread = margs.last().expect("non-empty") - margs[0];
            if spread > pick_spread {
                pick_spread = spread;
                pick = k;
                pick_paths = paths;
            }
        }
        (pick, pick_paths, lb_sum)
    }

    let mut stack: Vec<Frame> = Vec::new();
    let (k, choices, lb) = choose_subnet(forest, subs, cap, demand);
    if lb >= best {
        return (best, nodes, proven);
    }
    let mut first_remaining = subs.clone();
    first_remaining.swap_remove(k);
    stack.push(Frame {
        remaining: first_remaining,
        tried: Vec::new(),
        committed: 0.0,
        next_choices: choices,
    });

    while let Some(frame) = stack.last_mut() {
        if Instant::now() > deadline {
            proven = false;
            break;
        }
        let Some(p) = frame.next_choices.pop() else {
            // undo this frame's committed path (if any) and pop
            if let Some(p) = frame.tried.pop() {
                commit(forest, p, demand, -1.0);
            }
            stack.pop();
            // also undo the parent's committed path transition: handled by
            // parent frames owning their own `tried` entries
            continue;
        };
        nodes += 1;
        // undo previously committed sibling of this frame
        if let Some(prev) = frame.tried.pop() {
            commit(forest, prev, demand, -1.0);
        }
        let add = marginal(forest, p, cap, demand);
        commit(forest, p, demand, 1.0);
        frame.tried.push(p);
        let committed = frame.committed + add;
        let remaining = frame.remaining.clone();
        if remaining.is_empty() {
            if committed < best {
                best = committed;
            }
            continue;
        }
        let (k, choices, lb) = choose_subnet(forest, &remaining, cap, demand);
        if committed + lb >= best {
            continue; // pruned; sibling will undo on next iteration
        }
        let mut rest = remaining;
        rest.swap_remove(k);
        stack.push(Frame {
            remaining: rest,
            tried: Vec::new(),
            committed,
            next_choices: choices,
        });
    }
    // unwind any residual commitments after a break
    while let Some(mut frame) = stack.pop() {
        if let Some(p) = frame.tried.pop() {
            commit(forest, p, demand, -1.0);
        }
    }
    (best, nodes, proven)
}

fn marginal(forest: &DagForest, path: usize, cap: &[f32], demand: &[f32]) -> f64 {
    forest
        .path_edges(path)
        .map(|e| {
            let (d, c) = (demand[e as usize], cap[e as usize]);
            (((d + 1.0 - c).max(0.0) - (d - c).max(0.0)) as f64).max(0.0)
        })
        .sum()
}

fn commit(forest: &DagForest, path: usize, demand: &mut [f32], sign: f32) {
    for e in forest.path_edges(path) {
        demand[e as usize] += sign;
    }
}

fn overflow_of(
    _subs: &[usize],
    forest: &DagForest,
    choices: &[usize],
    cap: &[f32],
    base: &[f32],
) -> f64 {
    // `base` already contains the committed demand for `choices`; compute
    // overflow restricted to the edges those choices touch plus base.
    let mut touched: Vec<u32> = choices.iter().flat_map(|&p| forest.path_edges(p)).collect();
    touched.sort_unstable();
    touched.dedup();
    touched
        .iter()
        .map(|&e| ((base[e as usize] - cap[e as usize]).max(0.0)) as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgr_grid::{CapacityBuilder, GcellGrid, Net, Point};

    fn design(tracks: f32, nets: Vec<Net>) -> Design {
        let grid = GcellGrid::new(12, 12).unwrap();
        let cap = CapacityBuilder::uniform(&grid, tracks)
            .build(&grid)
            .unwrap();
        Design::new(grid, cap, nets, 1).unwrap()
    }

    #[test]
    fn single_net_has_zero_overflow() {
        let d = design(
            1.0,
            vec![Net::new("a", vec![Point::new(0, 0), Point::new(5, 5)])],
        );
        let r = IlpSolver::default().solve(&d).unwrap();
        assert_eq!(r.overflow, 0.0);
        assert_eq!(r.status, IlpStatus::Optimal);
    }

    #[test]
    fn two_conflicting_nets_can_separate() {
        // identical pins, cap 1: optimal = route on opposite Ls → 0 overflow
        let d = design(
            1.0,
            vec![
                Net::new("a", vec![Point::new(1, 1), Point::new(6, 6)]),
                Net::new("b", vec![Point::new(1, 1), Point::new(6, 6)]),
            ],
        );
        let r = IlpSolver::default().solve(&d).unwrap();
        assert_eq!(r.overflow, 0.0);
        assert_eq!(r.status, IlpStatus::Optimal);
    }

    #[test]
    fn three_identical_nets_must_overflow() {
        // three wires, two L corridors of cap 1 → at least one corridor
        // carries 2: overflow = manhattan distance (10 shared edges × 1)
        let d = design(
            1.0,
            vec![
                Net::new("a", vec![Point::new(1, 1), Point::new(6, 6)]),
                Net::new("b", vec![Point::new(1, 1), Point::new(6, 6)]),
                Net::new("c", vec![Point::new(1, 1), Point::new(6, 6)]),
            ],
        );
        let r = IlpSolver::default().solve(&d).unwrap();
        let bf = IlpSolver::default().brute_force(&d).unwrap();
        assert_eq!(r.overflow, bf);
        assert_eq!(r.status, IlpStatus::Optimal);
        assert!(r.overflow > 0.0);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..6 {
            let mut nets = Vec::new();
            for i in 0..5 {
                let x = rng.gen_range(0..6);
                let y = rng.gen_range(0..6);
                let pins = vec![
                    Point::new(x, y),
                    Point::new(x + rng.gen_range(1..5), y + rng.gen_range(1..5)),
                ];
                nets.push(Net::new(format!("n{i}"), pins));
            }
            let d = design(1.0, nets);
            let bnb = IlpSolver::default().solve(&d).unwrap();
            let bf = IlpSolver::default().brute_force(&d).unwrap();
            assert!(
                (bnb.overflow - bf).abs() < 1e-6,
                "case {case}: bnb {} vs brute force {}",
                bnb.overflow,
                bf
            );
            assert_eq!(bnb.status, IlpStatus::Optimal);
        }
    }

    #[test]
    fn timeout_reports_incumbent() {
        // a dense instance with an impossible 0-second budget still
        // returns a finite upper bound
        let mut nets = Vec::new();
        for i in 0..12 {
            nets.push(Net::new(
                format!("n{i}"),
                vec![Point::new(0, i % 6), Point::new(8, (i * 3) % 9 + 1)],
            ));
        }
        let d = design(1.0, nets);
        let r = IlpSolver::new(Duration::from_secs(0)).solve(&d).unwrap();
        assert!(r.overflow.is_finite());
    }

    #[test]
    fn disjoint_nets_decompose() {
        // far-apart nets: component decomposition keeps node count tiny
        let d = design(
            1.0,
            vec![
                Net::new("a", vec![Point::new(0, 0), Point::new(2, 2)]),
                Net::new("b", vec![Point::new(8, 8), Point::new(10, 10)]),
            ],
        );
        let r = IlpSolver::default().solve(&d).unwrap();
        assert_eq!(r.overflow, 0.0);
        assert!(r.nodes <= 8, "expected tiny search, got {} nodes", r.nodes);
    }
}
