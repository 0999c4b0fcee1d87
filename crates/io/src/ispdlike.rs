//! ISPD-like synthetic designs: the benchmark substitute for Tables 2–3.
//!
//! Contest circuits are hard to route because of (a) spatially clustered
//! pins (standard-cell rows and IP blocks), (b) macros that block routing
//! resources, (c) hotspot regions where demand concentrates, and (d) pin
//! density eating into edge capacity. This generator reproduces those
//! features with controllable intensity so the congested/uncongested
//! split of the paper's two benchmark suites can be mirrored.

use dgr_grid::{CapacityBuilder, Design, GcellGrid, Net, Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::IoError;

/// Parameters of the ISPD-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct IspdLikeConfig {
    /// Grid width in g-cells.
    pub width: u32,
    /// Grid height in g-cells.
    pub height: u32,
    /// Number of nets.
    pub num_nets: usize,
    /// Routable layers.
    pub num_layers: u32,
    /// Base tracks per edge (before pin/blockage deductions).
    pub base_capacity: f32,
    /// Number of pin clusters; nets draw their pins near cluster centers.
    pub clusters: usize,
    /// Std-dev of pin spread around a cluster center, in g-cells.
    pub cluster_spread: f64,
    /// Fraction of nets that span two clusters (global wires).
    pub global_net_fraction: f64,
    /// Fraction of nets whose pins are uniform random over the whole die
    /// (the dispersed standard-cell background).
    pub uniform_fraction: f64,
    /// Number of macro blockages (rectangles with reduced capacity).
    pub macros: usize,
    /// Capacity multiplier inside macros (0 = hard blockage).
    pub macro_capacity_factor: f32,
    /// The per-cell `β` weight (Eq. 1/2): scales both the pin-density
    /// capacity deduction and via pressure. Contest LEFs yield small
    /// values; 1.0 would let clustered pins consume entire edges.
    pub pin_beta: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IspdLikeConfig {
    fn default() -> Self {
        IspdLikeConfig {
            width: 64,
            height: 64,
            num_nets: 1000,
            num_layers: 9,
            base_capacity: 10.0,
            clusters: 8,
            cluster_spread: 4.0,
            global_net_fraction: 0.35,
            uniform_fraction: 0.35,
            macros: 2,
            macro_capacity_factor: 0.3,
            pin_beta: 0.25,
            seed: 1,
        }
    }
}

impl IspdLikeConfig {
    /// The `--fast` shrink for smoke runs — the one rule behind
    /// `dgr generate --fast`, dgrd's catalog `"fast": true` and the table
    /// binaries: a quarter of the nets (at least 50) on a quarter of the
    /// area (sides halved, rounded, at least 20), with a quarter of the
    /// clusters (rounded, at least 3) spread half as wide. Net density,
    /// cluster density and relative cluster spread — hence the congestion
    /// regime — are all preserved.
    #[must_use]
    pub fn fast(mut self) -> Self {
        self.num_nets = (self.num_nets / 4).max(50);
        self.width = self.width.div_ceil(2).max(20);
        self.height = self.height.div_ceil(2).max(20);
        self.clusters = ((self.clusters + 2) / 4).max(3);
        self.cluster_spread /= 2.0;
        self
    }
}

/// The ISPD-like design generator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct IspdLikeGenerator {
    config: IspdLikeConfig,
}

impl IspdLikeGenerator {
    /// Creates a generator.
    pub fn new(config: IspdLikeConfig) -> Self {
        IspdLikeGenerator { config }
    }

    /// Generates the design.
    ///
    /// # Errors
    ///
    /// Propagates grid/design validation failures (only possible with
    /// degenerate dimensions).
    pub fn generate(&self) -> Result<Design, IoError> {
        let cfg = &self.config;
        let grid = GcellGrid::new(cfg.width, cfg.height)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let bounds = grid.bounds();

        // cluster centers
        let centers: Vec<Point> = (0..cfg.clusters.max(1))
            .map(|_| {
                Point::new(
                    rng.gen_range(0..cfg.width as i32),
                    rng.gen_range(0..cfg.height as i32),
                )
            })
            .collect();

        let sample_near = |rng: &mut StdRng, c: Point, spread: f64| -> Point {
            // Irwin–Hall approximation of a gaussian (sum of uniforms)
            let g = |rng: &mut StdRng| {
                let s: f64 = (0..6).map(|_| rng.gen_range(-0.5..0.5)).sum();
                s * spread
            };
            Point::new(
                (c.x + g(rng).round() as i32).clamp(bounds.lo.x, bounds.hi.x),
                (c.y + g(rng).round() as i32).clamp(bounds.lo.y, bounds.hi.y),
            )
        };

        // nets: mostly local (one cluster), some global (two clusters)
        let mut nets = Vec::with_capacity(cfg.num_nets);
        let mut pin_load: Vec<(Point, u32)> = Vec::new();
        for i in 0..cfg.num_nets {
            let uniform = rng.gen_bool(cfg.uniform_fraction);
            let c1 = centers[rng.gen_range(0..centers.len())];
            let global = rng.gen_bool(cfg.global_net_fraction);
            let c2 = if global {
                centers[rng.gen_range(0..centers.len())]
            } else {
                c1
            };
            // pin count: 2 common, up to 12 rare (contest-like distribution)
            let npins = match rng.gen_range(0..100) {
                0..=54 => 2,
                55..=79 => 3,
                80..=91 => 4,
                92..=96 => rng.gen_range(5..=8),
                _ => rng.gen_range(9..=12),
            };
            let mut pins = Vec::with_capacity(npins);
            if uniform {
                // dispersed background net: a random local neighbourhood
                let c = Point::new(
                    rng.gen_range(0..cfg.width as i32),
                    rng.gen_range(0..cfg.height as i32),
                );
                let spread = cfg.cluster_spread * 2.0;
                for _ in 0..npins {
                    let p = sample_near(&mut rng, c, spread);
                    pins.push(p);
                    pin_load.push((p, 1));
                }
            } else {
                for k in 0..npins {
                    let c = if k % 2 == 0 { c1 } else { c2 };
                    let p = sample_near(&mut rng, c, cfg.cluster_spread);
                    pins.push(p);
                    pin_load.push((p, 1));
                }
            }
            nets.push(Net::new(format!("net{i}"), pins));
        }

        // capacity: base, macro blockages, pin-density load
        let mut builder = CapacityBuilder::uniform(&grid, cfg.base_capacity);
        for _ in 0..cfg.macros {
            let w = rng.gen_range((cfg.width / 12).max(1)..=(cfg.width / 6).max(2)) as i32;
            let h = rng.gen_range((cfg.height / 12).max(1)..=(cfg.height / 6).max(2)) as i32;
            let x = rng.gen_range(0..(cfg.width as i32 - w).max(1));
            let y = rng.gen_range(0..(cfg.height as i32 - h).max(1));
            builder.scale_region(
                &grid,
                Rect::new(Point::new(x, y), Point::new(x + w - 1, y + h - 1)),
                cfg.macro_capacity_factor,
            );
        }
        let mut builder = builder.clone();
        for y in 0..cfg.height as i32 {
            for x in 0..cfg.width as i32 {
                builder = builder.set_beta(&grid, Point::new(x, y), cfg.pin_beta)?;
            }
        }
        for (p, count) in pin_load {
            builder = builder.add_pins(&grid, p, count)?;
        }
        let capacity = builder.build(&grid)?;

        Ok(Design::new(grid, capacity, nets, cfg.num_layers)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_shrink_preserves_net_density() {
        let base = IspdLikeConfig {
            width: 121,
            height: 120,
            num_nets: 8000,
            clusters: 102,
            cluster_spread: 12.0,
            ..IspdLikeConfig::default()
        };
        let fast = base.clone().fast();
        assert_eq!((fast.width, fast.height), (61, 60), "halves round up");
        assert_eq!((fast.num_nets, fast.clusters), (2000, 26));
        assert_eq!(fast.cluster_spread, 6.0);
        let full = IspdLikeGenerator::new(base).generate().unwrap();
        let fast = IspdLikeGenerator::new(fast).generate().unwrap();
        let density =
            |d: &Design| d.num_nets() as f64 / (d.grid.width() as f64 * d.grid.height() as f64);
        let rel = (density(&fast) - density(&full)).abs() / density(&full);
        assert!(rel < 0.1, "net density drifted {rel:.3} under --fast");
        // nothing shrinks below the floors
        let tiny = IspdLikeConfig {
            width: 24,
            height: 24,
            num_nets: 60,
            clusters: 4,
            ..IspdLikeConfig::default()
        }
        .fast();
        assert_eq!((tiny.width, tiny.num_nets, tiny.clusters), (20, 50, 3));
    }

    #[test]
    fn generates_requested_shape() {
        let g = IspdLikeGenerator::new(IspdLikeConfig {
            num_nets: 200,
            ..IspdLikeConfig::default()
        });
        let d = g.generate().unwrap();
        assert_eq!(d.num_nets(), 200);
        assert_eq!(d.num_layers, 9);
        assert!(d.num_pins() >= 400);
        for net in &d.nets {
            assert!(net.pins.len() >= 2);
            for p in &net.pins {
                assert!(d.grid.contains(*p));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = IspdLikeConfig {
            num_nets: 50,
            ..IspdLikeConfig::default()
        };
        let a = IspdLikeGenerator::new(cfg.clone()).generate().unwrap();
        let b = IspdLikeGenerator::new(cfg.clone()).generate().unwrap();
        assert_eq!(a, b);
        let c = IspdLikeGenerator::new(IspdLikeConfig { seed: 99, ..cfg })
            .generate()
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn macros_reduce_capacity_somewhere() {
        let cfg = IspdLikeConfig {
            num_nets: 10,
            macros: 3,
            macro_capacity_factor: 0.0,
            ..IspdLikeConfig::default()
        };
        let d = IspdLikeGenerator::new(cfg).generate().unwrap();
        let base = 10.0;
        let blocked = d
            .grid
            .edge_ids()
            .filter(|&e| d.capacity.capacity(e) < base * 0.5)
            .count();
        assert!(blocked > 0, "expected blocked edges under macros");
    }

    #[test]
    fn pins_cluster_spatially() {
        // with tiny spread, a local net's pins stay close together
        let cfg = IspdLikeConfig {
            num_nets: 100,
            cluster_spread: 1.0,
            global_net_fraction: 0.0,
            ..IspdLikeConfig::default()
        };
        let d = IspdLikeGenerator::new(cfg).generate().unwrap();
        let avg_hpwl: f64 = d
            .nets
            .iter()
            .map(|n| Rect::bounding(&n.pins).half_perimeter() as f64)
            .sum::<f64>()
            / d.nets.len() as f64;
        assert!(avg_hpwl < 16.0, "local nets too spread out: {avg_hpwl}");
    }
}
