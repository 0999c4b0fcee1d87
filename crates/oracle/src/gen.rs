//! Seeded random design generation shared by every oracle check.
//!
//! A [`CaseSpec`] is the *complete* description of one differential test
//! case: which cross-check to run plus the handful of generator knobs
//! (grid size, capacity profile, netlist shape, op count). Everything
//! else — pin positions, hotspot rectangles, logit values, op sequences —
//! is derived deterministically from `seed`, so a spec round-tripped
//! through JSON replays the identical case.

use dgr_grid::{CapacityBuilder, Design, GcellGrid, Net, Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the five differential cross-checks a case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Dreyfus–Wagner exact Steiner vs. brute-force Hanan enumeration.
    Rsmt,
    /// Relaxed expected cost at one-hot logits vs. a discrete replay of
    /// every selectable tree/path combination.
    PathCost,
    /// The cost kernel's gradients vs. fourth-order differences of an
    /// independent f64 forward pass.
    GradCheck,
    /// Incremental demand updates vs. a from-scratch naive recount.
    DemandReplay,
    /// The per-net layer-assignment DP vs. exhaustive enumeration of all
    /// layer assignments on a tiny stack.
    LayerAssign,
}

impl CheckKind {
    /// All five checks, in fuzz-loop order.
    pub const ALL: [CheckKind; 5] = [
        CheckKind::Rsmt,
        CheckKind::PathCost,
        CheckKind::GradCheck,
        CheckKind::DemandReplay,
        CheckKind::LayerAssign,
    ];

    /// Stable lowercase name used in JSON case files and reports.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Rsmt => "rsmt",
            CheckKind::PathCost => "path_cost",
            CheckKind::GradCheck => "grad_check",
            CheckKind::DemandReplay => "demand_replay",
            CheckKind::LayerAssign => "layer_assign",
        }
    }

    /// Inverse of [`CheckKind::name`].
    pub fn from_name(s: &str) -> Option<CheckKind> {
        CheckKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One differential test case, fully determined by these fields.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// The cross-check to run.
    pub check: CheckKind,
    /// Master seed for all randomness inside the case.
    pub seed: u64,
    /// Grid width in g-cells.
    pub width: u32,
    /// Grid height in g-cells.
    pub height: u32,
    /// Uniform track count before penalties.
    pub tracks: f32,
    /// Number of nets in the generated netlist.
    pub num_nets: usize,
    /// Upper bound on pins per net (≥ 2).
    pub max_pins: usize,
    /// Routing layers in the design.
    pub num_layers: u32,
    /// Carve a random half-capacity hotspot rectangle.
    pub hotspot: bool,
    /// Register pin-density and local-net penalties (Eq. 1) at the net
    /// pins.
    pub pin_density: bool,
    /// Length of the op sequence for [`CheckKind::DemandReplay`].
    pub ops: usize,
}

impl CaseSpec {
    /// Draws a spec for `check` whose size knobs stay inside that check's
    /// brute-force budget. `seed` becomes the case's master seed.
    pub fn sample(check: CheckKind, seed: u64) -> CaseSpec {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (width, height) = match check {
            // the layer brute force is exponential in segment count:
            // keep routes short
            CheckKind::LayerAssign => (rng.gen_range(3..=6), rng.gen_range(3..=6)),
            _ => (rng.gen_range(3..=8), rng.gen_range(3..=8)),
        };
        // a gradient check reaches the tree softmax only through a net of
        // two or more trees, which wants pins to choose among: so its
        // designs have more nets of more pins than the others
        let num_nets = match check {
            CheckKind::Rsmt => rng.gen_range(1..=3),
            CheckKind::PathCost => rng.gen_range(1..=2),
            CheckKind::GradCheck => rng.gen_range(3..=4),
            CheckKind::DemandReplay => 0,
            CheckKind::LayerAssign => 1,
        };
        let max_pins = match check {
            CheckKind::Rsmt => rng.gen_range(2..=5),
            CheckKind::LayerAssign => rng.gen_range(2..=3),
            CheckKind::GradCheck => rng.gen_range(4..=6),
            _ => rng.gen_range(2..=4),
        };
        CaseSpec {
            check,
            seed,
            width,
            height,
            tracks: [1.0f32, 2.0, 4.0][rng.gen_range(0..3usize)],
            num_nets,
            max_pins,
            num_layers: rng.gen_range(2..=4),
            hotspot: rng.gen_range(0..3) == 0,
            pin_density: rng.gen_range(0..3) == 0,
            ops: if check == CheckKind::DemandReplay {
                rng.gen_range(8..=40)
            } else {
                0
            },
        }
    }

    /// Strictly-smaller variants of `self`, largest reduction first —
    /// the shrinker adopts the first one that still fails.
    pub fn shrink_candidates(&self) -> Vec<CaseSpec> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut CaseSpec)| {
            let mut s = self.clone();
            f(&mut s);
            if s != *self {
                out.push(s);
            }
        };
        push(&|s| {
            if s.num_nets > 1 {
                s.num_nets -= 1;
            }
        });
        push(&|s| s.max_pins = (s.max_pins - 1).max(2));
        push(&|s| s.ops /= 2);
        push(&|s| s.hotspot = false);
        push(&|s| s.pin_density = false);
        push(&|s| s.num_layers = (s.num_layers - 1).max(2));
        push(&|s| s.width = (s.width - 1).max(3));
        push(&|s| s.height = (s.height - 1).max(3));
        push(&|s| s.tracks = 1.0);
        out
    }
}

/// The RNG every stage of a case derives its randomness from. Seeded
/// once per case; generation order is part of the format, so new draws
/// must only ever be appended.
pub fn case_rng(spec: &CaseSpec) -> StdRng {
    StdRng::seed_from_u64(spec.seed ^ 0xD1CE_0CA5_E5EE_D000)
}

/// Generates the design a spec describes. Deterministic in `spec`.
///
/// # Panics
///
/// Panics only on internal inconsistency (all generated pins are kept
/// inside the grid by construction).
pub fn gen_design(spec: &CaseSpec, rng: &mut StdRng) -> Design {
    let grid = GcellGrid::new(spec.width, spec.height).expect("spec dims ≥ 3");
    let w = spec.width as i32;
    let h = spec.height as i32;

    let mut nets = Vec::with_capacity(spec.num_nets);
    for n in 0..spec.num_nets {
        let k = rng.gen_range(2..=spec.max_pins);
        let mut pins: Vec<Point> = Vec::with_capacity(k);
        while pins.len() < k {
            let p = Point::new(rng.gen_range(0..w), rng.gen_range(0..h));
            if !pins.contains(&p) {
                pins.push(p);
            }
        }
        nets.push(Net::new(format!("n{n}"), pins));
    }

    let mut builder = CapacityBuilder::uniform(&grid, spec.tracks);
    if spec.hotspot {
        let x0 = rng.gen_range(0..w);
        let y0 = rng.gen_range(0..h);
        let x1 = rng.gen_range(x0..w);
        let y1 = rng.gen_range(y0..h);
        builder.scale_region(
            &grid,
            Rect::new(Point::new(x0, y0), Point::new(x1, y1)),
            0.5,
        );
    }
    if spec.pin_density {
        for net in &nets {
            for &p in &net.pins {
                builder = builder.add_pins(&grid, p, 1).expect("pin in grid");
            }
        }
        let locals = rng.gen_range(0..=2);
        for _ in 0..locals {
            let p = Point::new(rng.gen_range(0..w), rng.gen_range(0..h));
            builder = builder.add_local_nets(&grid, p, 1).expect("cell in grid");
        }
    }
    let cap = builder.build(&grid).expect("same grid");
    Design::new(grid, cap, nets, spec.num_layers).expect("generated design is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = CaseSpec::sample(CheckKind::Rsmt, 7);
        let d1 = gen_design(&spec, &mut case_rng(&spec));
        let d2 = gen_design(&spec, &mut case_rng(&spec));
        assert_eq!(d1.nets.len(), d2.nets.len());
        for (a, b) in d1.nets.iter().zip(&d2.nets) {
            assert_eq!(a.pins, b.pins);
        }
        assert_eq!(d1.capacity.as_slice(), d2.capacity.as_slice());
    }

    #[test]
    fn sampled_specs_respect_check_budgets() {
        for seed in 0..50 {
            let s = CaseSpec::sample(CheckKind::LayerAssign, seed);
            assert!(s.width <= 6 && s.height <= 6 && s.max_pins <= 3);
            let s = CaseSpec::sample(CheckKind::Rsmt, seed);
            assert!(s.max_pins <= 5);
            // six distinct pins fit on the smallest grid, 3 × 3
            let s = CaseSpec::sample(CheckKind::GradCheck, seed);
            assert!(s.max_pins <= 6 && s.num_nets <= 4);
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_different() {
        let spec = CaseSpec::sample(CheckKind::DemandReplay, 3);
        for c in spec.shrink_candidates() {
            assert_ne!(c, spec);
        }
    }

    #[test]
    fn check_kind_names_round_trip() {
        for k in CheckKind::ALL {
            assert_eq!(CheckKind::from_name(k.name()), Some(k));
        }
        assert_eq!(CheckKind::from_name("nope"), None);
    }
}
