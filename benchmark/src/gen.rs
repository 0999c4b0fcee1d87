//! Seeded input generator owned by the benchmark.
//!
//! Writes the `DGR-DESIGN v1` text directly — not through `dgr-io` or
//! `compat/rand` — so the program under test only ever sees generated
//! inputs and a change to the repo's own generators cannot move the
//! benchmark's inputs. The same `(shape, seed)` gives the same text.

use std::fmt::Write as _;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo + 1) as u64) as i32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The `n` stratum midpoints `(k + ½)/n` of `[0, 1)` in shuffled
    /// order: thresholding them deals out exact shares of `n` items.
    pub fn dealt(&mut self, n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }

    /// Bell-shaped offset with standard deviation ≈ `0.7·spread`
    /// (Irwin–Hall sum of six uniforms), rounded to a g-cell.
    fn bell(&mut self, spread: f64) -> i32 {
        let s: f64 = (0..6).map(|_| self.unit() - 0.5).sum();
        (s * spread).round() as i32
    }
}

/// A seed for the `index`-th sub-input of a run, well mixed so that
/// neighbouring seeds share nothing.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// FNV-1a 64 of `bytes`; printed for every generated design so two runs
/// can show they measured the same input.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// How a shape places its pins.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Contest-like: pins gather around cluster centres, a share of nets
    /// spans two clusters, a share is dispersed over the die, macros cut
    /// capacity and pin density eats into it. Degrees 2/3/4/5–8/9–12 at
    /// 55/25/12/5/3 %.
    Clustered {
        clusters: usize,
        spread: f64,
        two_cluster_share: f64,
        dispersed_share: f64,
        macros: usize,
        macro_factor: f32,
    },
    /// Every net has 5–8 pins, uniform in a `±radius` box around a
    /// uniform centre; uniform capacity, no macros, no pin deduction.
    HighDegree { radius: i32 },
}

/// Everything that defines one generated design, except the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub width: i32,
    pub height: i32,
    pub layers: u32,
    pub nets: usize,
    pub base_capacity: f32,
    pub beta: f32,
    pub placement: Placement,
}

/// One net of a generated design: what the validator checks guides against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPins {
    pub name: String,
    pub pins: Vec<(i32, i32)>,
}

/// A generated design: its text, plus the parts the validator needs.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedDesign {
    pub width: i32,
    pub height: i32,
    pub layers: u32,
    pub nets: Vec<NetPins>,
    pub text: String,
    pub fnv64: u64,
}

impl GeneratedDesign {
    /// Net counts by degree class `[2, 3, 4, 5–8, 9–12]` and the pin total.
    pub fn degree_histogram(&self) -> ([usize; 5], usize) {
        let mut hist = [0usize; 5];
        let mut pins = 0;
        for net in &self.nets {
            pins += net.pins.len();
            hist[match net.pins.len() {
                0..=2 => 0,
                3 => 1,
                4 => 2,
                5..=8 => 3,
                _ => 4,
            }] += 1;
        }
        (hist, pins)
    }

    /// One header line: hash, size and degree histogram.
    pub fn describe(&self) -> String {
        let (h, pins) = self.degree_histogram();
        format!(
            "fnv64 {:016x}  {}x{}x{}  {} nets  {} pins  {} bytes  degree 2/3/4/5-8/9-12 = {}/{}/{}/{}/{}",
            self.fnv64,
            self.width,
            self.height,
            self.layers,
            self.nets.len(),
            pins,
            self.text.len(),
            h[0],
            h[1],
            h[2],
            h[3],
            h[4]
        )
    }
}

/// Whether g-cell `p` lies in one of the inclusive rectangles.
fn in_any(rects: &[(i32, i32, i32, i32)], p: (i32, i32)) -> bool {
    rects
        .iter()
        .any(|&(x0, y0, x1, y1)| x0 <= p.0 && p.0 <= x1 && y0 <= p.1 && p.1 <= y1)
}

/// Generates the design of `shape` for `seed`.
pub fn generate(shape: &Shape, seed: u64) -> GeneratedDesign {
    let mut rng = Rng::new(seed);
    let (w, h) = (shape.width, shape.height);
    let clamp = |x: i32, y: i32| (x.clamp(0, w - 1), y.clamp(0, h - 1));

    let mut nets = Vec::with_capacity(shape.nets);
    let mut macro_rects: Vec<(i32, i32, i32, i32)> = Vec::new();
    let mut macro_factor = 1.0f32;
    match &shape.placement {
        Placement::Clustered {
            clusters,
            spread,
            two_cluster_share,
            dispersed_share,
            macros,
            macro_factor: factor,
        } => {
            // The floorplan — cluster centres and macros — comes from the
            // shape alone; the seed draws every net. Congestion depends on
            // how hotspots and macros overlap, so a floorplan redrawn per
            // seed moves overflow, refine time and cost by several percent
            // between seeds, more than the regressions the benchmark is
            // there to bound. Centres sit one per cell of a lattice over
            // the die, jittered inside the cell.
            let mut plan = Rng::new(derive_seed(
                (w as u64) << 40 | (h as u64) << 20 | shape.nets as u64,
                *clusters as u64,
            ));
            let k = (*clusters).max(1);
            let gx = ((k as f64 * w as f64 / h as f64).sqrt().ceil() as usize).max(1);
            let gy = k.div_ceil(gx);
            let centres: Vec<(i32, i32)> = (0..k)
                .map(|i| {
                    let (cx, cy) = ((i % gx) as f64, (i / gx) as f64);
                    let x = (cx + plan.unit()) * w as f64 / gx as f64;
                    let y = (cy + plan.unit()) * h as f64 / gy as f64;
                    clamp(x as i32, y as i32)
                })
                .collect();
            // macros: one per cell of their own lattice, so they never
            // stack; each spans a sixth to a third of its cell either way
            macro_factor = *factor;
            let m = (*macros).max(1);
            let mx = ((m as f64 * w as f64 / h as f64).sqrt().ceil() as usize).max(1);
            let my = m.div_ceil(mx);
            let (cell_w, cell_h) = (w / mx as i32, h / my as i32);
            for i in 0..*macros {
                let mw = plan.range((cell_w / 6).max(1), (cell_w / 3).max(1));
                let mh = plan.range((cell_h / 6).max(1), (cell_h / 3).max(1));
                let x = (i % mx) as i32 * cell_w + plan.range(0, (cell_w - mw).max(0));
                let y = (i / mx) as i32 * cell_h + plan.range(0, (cell_h - mh).max(0));
                macro_rects.push((x, y, x + mw - 1, y + mh - 1));
            }
            // Net kinds are dealt, not drawn: every seed has the same
            // number of dispersed nets, of two-cluster nets and of nets of
            // each degree class, in a seeded order. What differs between
            // seeds is where the pins fall, not how many there are.
            let kind_dispersed = rng.dealt(shape.nets);
            let kind_two_cluster = rng.dealt(shape.nets);
            let kind_degree = rng.dealt(shape.nets);
            for i in 0..shape.nets {
                let dispersed = kind_dispersed[i] < *dispersed_share;
                let c1 = centres[rng.below(k as u64) as usize];
                let c2 = if kind_two_cluster[i] < *two_cluster_share {
                    centres[rng.below(k as u64) as usize]
                } else {
                    c1
                };
                let degree = match (kind_degree[i] * 100.0) as u32 {
                    0..=54 => 2,
                    55..=79 => 3,
                    80..=91 => 4,
                    92..=96 => rng.range(5, 8),
                    _ => rng.range(9, 12),
                } as usize;
                let (home, reach) = if dispersed {
                    ((rng.range(0, w - 1), rng.range(0, h - 1)), spread * 2.0)
                } else {
                    (c1, *spread)
                };
                let mut pins: Vec<(i32, i32)> = Vec::with_capacity(degree);
                let mut tries = 0;
                while pins.len() < degree && tries < degree * 20 {
                    tries += 1;
                    let c = if dispersed || pins.len().is_multiple_of(2) {
                        home
                    } else {
                        c2
                    };
                    let p = (c.0 + rng.bell(reach), c.1 + rng.bell(reach));
                    // Draws that leave the die or land in a macro are
                    // redrawn, not moved: clamping them would pile pins onto
                    // border cells, and an edge that a macro has cut and
                    // pins have then eaten overflows whatever the router
                    // does — by an amount that is luck of the draw, at 500
                    // cost units apiece.
                    if p.0 < 0 || p.0 >= w || p.1 < 0 || p.1 >= h {
                        continue;
                    }
                    if !in_any(&macro_rects, p) && !pins.contains(&p) {
                        pins.push(p);
                    }
                }
                if pins.len() < 2 {
                    // a spread too small to find a second g-cell
                    let (x, y) = pins[0];
                    pins.push(if x + 1 < w { (x + 1, y) } else { (x - 1, y) });
                }
                nets.push(NetPins {
                    name: format!("n{i}"),
                    pins,
                });
            }
        }
        Placement::HighDegree { radius } => {
            for i in 0..shape.nets {
                let c = (rng.range(0, w - 1), rng.range(0, h - 1));
                let degree = rng.range(5, 8) as usize;
                let mut pins: Vec<(i32, i32)> = Vec::with_capacity(degree);
                while pins.len() < degree {
                    let p = clamp(
                        c.0 + rng.range(-*radius, *radius),
                        c.1 + rng.range(-*radius, *radius),
                    );
                    if !pins.contains(&p) {
                        pins.push(p);
                    }
                }
                nets.push(NetPins {
                    name: format!("n{i}"),
                    pins,
                });
            }
        }
    }

    // Edge ids as the format defines them: horizontal (x,y)→(x+1,y) is
    // y·(w−1)+x; vertical (x,y)→(x,y+1) follows at num_h + y·w + x.
    let (wu, hu) = (w as usize, h as usize);
    let num_h = (wu - 1) * hu;
    let h_edge = |x: i32, y: i32| y as usize * (wu - 1) + x as usize;
    let v_edge = |x: i32, y: i32| num_h + y as usize * wu + x as usize;
    let mut tracks = vec![shape.base_capacity; num_h + wu * (hu - 1)];
    for y in 0..h {
        for x in 0..w {
            if !in_any(&macro_rects, (x, y)) {
                continue;
            }
            if x + 1 < w {
                tracks[h_edge(x, y)] *= macro_factor;
            }
            if y + 1 < h {
                tracks[v_edge(x, y)] *= macro_factor;
            }
        }
    }
    if matches!(shape.placement, Placement::Clustered { .. }) {
        // Eq. (1) of the paper: each pin costs β tracks, shared evenly by
        // the edges around its g-cell.
        let mut pin_count = vec![0u32; wu * hu];
        for net in &nets {
            for &(x, y) in &net.pins {
                pin_count[y as usize * wu + x as usize] += 1;
            }
        }
        for y in 0..h {
            for x in 0..w {
                let count = pin_count[y as usize * wu + x as usize];
                if count == 0 {
                    continue;
                }
                let mut around = Vec::with_capacity(4);
                if x > 0 {
                    around.push(h_edge(x - 1, y));
                }
                if x + 1 < w {
                    around.push(h_edge(x, y));
                }
                if y > 0 {
                    around.push(v_edge(x, y - 1));
                }
                if y + 1 < h {
                    around.push(v_edge(x, y));
                }
                let share = shape.beta * count as f32 / around.len() as f32;
                for e in around {
                    tracks[e] -= share;
                }
            }
        }
    }

    let mut text = String::with_capacity(tracks.len() * 6 + nets.len() * 32);
    text.push_str("DGR-DESIGN v1\n");
    writeln!(text, "grid {w} {h} {}", shape.layers).expect("write to String");
    text.push_str("tracks");
    for t in &tracks {
        write!(text, " {t}").expect("write to String");
    }
    text.push_str("\nbeta");
    for _ in 0..wu * hu {
        write!(text, " {}", shape.beta).expect("write to String");
    }
    text.push('\n');
    for net in &nets {
        write!(text, "net {}", net.name).expect("write to String");
        for &(x, y) in &net.pins {
            write!(text, " {x} {y}").expect("write to String");
        }
        text.push('\n');
    }
    GeneratedDesign {
        width: w,
        height: h,
        layers: shape.layers,
        nets,
        fnv64: fnv64(text.as_bytes()),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Shape {
        Shape {
            width: 24,
            height: 20,
            layers: 5,
            nets: 120,
            base_capacity: 10.0,
            beta: 0.25,
            placement: Placement::Clustered {
                clusters: 6,
                spread: 3.0,
                two_cluster_share: 0.3,
                dispersed_share: 0.45,
                macros: 2,
                macro_factor: 0.5,
            },
        }
    }

    #[test]
    fn deterministic_per_seed_and_different_across_seeds() {
        let a = generate(&small(), 7);
        let b = generate(&small(), 7);
        let c = generate(&small(), 8);
        assert_eq!(a, b);
        assert_eq!(a.fnv64, b.fnv64);
        assert_ne!(a.text, c.text);
        assert_ne!(a.fnv64, c.fnv64);
    }

    #[test]
    fn text_has_the_format_the_parser_expects() {
        let d = generate(&small(), 3);
        let mut lines = d.text.lines();
        assert_eq!(lines.next(), Some("DGR-DESIGN v1"));
        assert_eq!(lines.next(), Some("grid 24 20 5"));
        let tracks = lines.next().unwrap();
        assert_eq!(tracks.split_whitespace().count(), 1 + 23 * 20 + 24 * 19);
        let beta = lines.next().unwrap();
        assert_eq!(beta.split_whitespace().count(), 1 + 24 * 20);
        assert_eq!(lines.count(), 120);
        // macros and pins both cut capacity somewhere
        assert!(tracks
            .split_whitespace()
            .skip(1)
            .any(|t| t.parse::<f32>().unwrap() < 6.0));
    }

    #[test]
    fn pins_are_distinct_in_grid_and_at_least_two() {
        for shape in [
            small(),
            Shape {
                placement: Placement::HighDegree { radius: 4 },
                ..small()
            },
        ] {
            let d = generate(&shape, 11);
            for net in &d.nets {
                assert!(net.pins.len() >= 2, "{net:?}");
                for (i, &(x, y)) in net.pins.iter().enumerate() {
                    assert!((0..24).contains(&x) && (0..20).contains(&y));
                    assert!(!net.pins[..i].contains(&(x, y)));
                }
            }
        }
    }

    #[test]
    fn high_degree_nets_all_have_five_to_eight_pins() {
        let d = generate(
            &Shape {
                placement: Placement::HighDegree { radius: 5 },
                ..small()
            },
            2,
        );
        let (hist, pins) = d.degree_histogram();
        assert_eq!(hist, [0, 0, 0, 120, 0]);
        assert!((600..=960).contains(&pins));
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
