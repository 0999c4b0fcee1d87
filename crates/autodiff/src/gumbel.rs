//! Gumbel(0, 1) noise for the stochastic softmax.
//!
//! Adding Gumbel noise to logits before a softmax ("Gumbel-softmax",
//! Jang et al. 2016) turns the deterministic relaxation into a stochastic
//! one, which the DGR paper uses to escape poor initializations. Noise is
//! fresh every iteration.
//!
//! # A pure function
//!
//! The noise of a logit is `g = −ln(−ln u)`, with `u` a hash of three
//! inputs: a key (one per training round), the iteration, and the
//! logit's index in the layout the kernel was built with. Nothing is
//! drawn in order — the generator is counter-based, as in Salmon et al.,
//! "Parallel random numbers: as easy as 1, 2, 3" (SC'11) — so the code
//! that reads a logit computes its noise on the spot, and a logit's noise
//! depends on nothing else: not on which logits a prune has left, on
//! where the kernel's loops are cut into lanes, or on the thread.
//!
//! The hash is two splitmix64 sequences, nested: [`Noise::new`] takes the
//! output at the iteration of the sequence seeded with the key, and
//! [`Noise::sample`] the output at the logit of the sequence seeded with
//! that. `u` is the top 23 bits of the result, taken at the middle of
//! their cell — exact in `f32`, in `[2⁻²⁴, 1 − 2⁻²⁴]` — so `g` lies in
//! about `[−2.81, 16.64]` and is never infinite.
//!
//! Both logarithms are `ln`, an inline `f32` logarithm with no branch
//! and no division, so that `Noise::fill` runs them over a batch of
//! samples in vector registers: ≈ 7 ns a sample, the hash included,
//! where two libm `logf` calls a sample cost ≈ 15 and two `f64` `ln` ≈
//! 18 (EXPERIMENTS.md, "Noise as a pure function"). It is also the same
//! arithmetic on every platform, where libm's last bits are not.

/// splitmix64's increment, the golden ratio in 64 bits.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output function (Steele, Lea and Flood, "Fast splittable
/// pseudorandom number generators", OOPSLA'14).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `n`-th output (from 0) of the splitmix64 sequence seeded with
/// `seed`.
fn nth(seed: u64, n: u64) -> u64 {
    mix(seed.wrapping_add(n.wrapping_add(1).wrapping_mul(GAMMA)))
}

/// One iteration's Gumbel(0, 1) noise: a pure function from a logit's
/// index to its sample.
///
/// # Examples
///
/// ```
/// use dgr_autodiff::gumbel::Noise;
///
/// let noise = Noise::new(7, 0);
/// let g: Vec<f32> = (0..8).map(|logit| noise.sample(logit)).collect();
/// assert!(g.iter().all(|g| g.is_finite()));
/// // the same inputs, the same sample; another iteration, another one
/// assert_eq!(Noise::new(7, 0).sample(3), g[3]);
/// assert_ne!(Noise::new(7, 1).sample(3), g[3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Noise {
    /// The seed of the iteration's sequence.
    seed: u64,
}

impl Noise {
    /// The noise of iteration `iteration` of the round keyed `key`.
    pub fn new(key: u64, iteration: u64) -> Noise {
        Noise {
            seed: nth(key, iteration),
        }
    }

    /// The sample of the logit at `logit`, its index in the layout the
    /// kernel was built with: `−ln(−ln u)`.
    pub fn sample(self, logit: u64) -> f32 {
        gumbel(self.uniform(logit))
    }

    /// The samples of `logits`, in order, into the front of `out` until
    /// either runs out; returns how many. Each is [`Self::sample`]'s bits:
    /// the uniforms are hashed one by one, then both logarithms run over
    /// the batch in a loop the compiler vectorises.
    pub(crate) fn fill(self, logits: impl Iterator<Item = u64>, out: &mut [f32]) -> usize {
        let mut n = 0;
        for (u, logit) in out.iter_mut().zip(logits) {
            *u = self.uniform(logit);
            n += 1;
        }
        for g in &mut out[..n] {
            *g = gumbel(*g);
        }
        n
    }

    /// The `u` of `logit`: the top 23 bits of its hash, at the middle of
    /// their cell.
    #[inline]
    fn uniform(self, logit: u64) -> f32 {
        let bits = nth(self.seed, logit) >> 41;
        (bits as f32 + 0.5) * (1.0 / (1u32 << 23) as f32)
    }
}

/// `−ln(−ln u)`.
#[inline(always)]
fn gumbel(u: f32) -> f32 {
    -ln(-ln(u))
}

/// The natural logarithm of a positive normal `x`, within about 1 ulp:
/// Moshier's Cephes `logf`, without its special cases and with its one
/// branch a select.
///
/// `x = 2^e · m` with `m ∈ [√½, √2)`, `f = m − 1` (exact), and
/// `ln x = e·ln 2 + f − ½f² + f³·P(f)`, `P` a degree-8 minimax
/// polynomial; `ln 2` is split in two so that `e·ln 2` adds no rounding
/// of its own.
#[inline(always)]
#[allow(clippy::excessive_precision)] // the coefficients as Cephes spells them
fn ln(x: f32) -> f32 {
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P: [f32; 9] = [
        7.037_683_629_2e-2,
        -1.151_461_031_0e-1,
        1.167_699_874_0e-1,
        -1.242_014_084_6e-1,
        1.424_932_278_7e-1,
        -1.666_805_766_5e-1,
        2.000_071_476_5e-1,
        -2.499_999_399_3e-1,
        3.333_333_117_4e-1,
    ];
    let bits = x.to_bits();
    // x = 2^e · m, m ∈ [½, 1); below √½ one power of two moves into m
    let m = f32::from_bits(bits & 0x007f_ffff | 0x3f00_0000);
    let low = m < std::f32::consts::FRAC_1_SQRT_2;
    let e = ((bits >> 23) as i32 - 126 - i32::from(low)) as f32;
    let f = if low { m + m - 1.0 } else { m - 1.0 };
    let z = f * f;
    let p = P[1..].iter().fold(P[0], |p, &c| p * f + c);
    (f * z * p + e * LN2_LO - 0.5 * z) + f + e * LN2_HI
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Euler–Mascheroni: the mean of Gumbel(0, 1).
    const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

    /// 2²⁰ samples: 16 iterations of 65 536 logits.
    fn samples(key: u64) -> Vec<f64> {
        let per_iteration = 1u64 << 16;
        let noise = (0..16).map(|it| Noise::new(key, it));
        let all = noise.flat_map(|n| (0..per_iteration).map(move |i| f64::from(n.sample(i))));
        all.collect()
    }

    #[test]
    fn samples_follow_gumbel_zero_one() {
        let mut g = samples(2024);
        let n = g.len() as f64;
        let mean = g.iter().sum::<f64>() / n;
        let var = g.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        // the mean's standard error is √(π²/6 / n) = 1.25e-3; the sample
        // variance's is √((μ₄ − σ⁴) / n) = √(4.4) · π²/6 / √n = 3.4e-3 (a
        // Gumbel's excess kurtosis is 12/5): five of each
        let pi2_6 = std::f64::consts::PI.powi(2) / 6.0;
        assert!((mean - EULER_GAMMA).abs() < 5.0 * 1.25e-3, "mean {mean}");
        assert!((var - pi2_6).abs() < 5.0 * 3.4e-3, "variance {var}");
        // Kolmogorov–Smirnov against F(x) = exp(−exp(−x)): the largest
        // gap between the empirical and the true CDF, under 1.95 / √n
        // (the 0.1 % critical value)
        g.sort_by(f64::total_cmp);
        let cdf = |x: f64| (-(-x).exp()).exp();
        let d = g.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let f = cdf(x);
            d.max(f - i as f64 / n).max((i + 1) as f64 / n - f)
        });
        assert!(d < 1.95 / n.sqrt(), "KS distance {d}");
    }

    #[test]
    fn neighbouring_logits_iterations_and_keys_are_uncorrelated() {
        // Pearson correlation of 2¹⁶ pairs each: its standard error is
        // 1/√n = 3.9e-3, and five of it bounds each
        let n = 1u64 << 16;
        let base = Noise::new(5, 0);
        for (what, other, shift) in [
            ("next logit", base, 1),
            ("next iteration", Noise::new(5, 1), 0),
            ("next key", Noise::new(6, 0), 0),
        ] {
            let a: Vec<f64> = (0..n).map(|i| f64::from(base.sample(i))).collect();
            let b: Vec<f64> = (0..n).map(|i| f64::from(other.sample(i + shift))).collect();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / n as f64;
            let (ma, mb) = (mean(&a), mean(&b));
            let cov: f64 = a.iter().zip(&b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let sd = |v: &[f64], m: f64| v.iter().map(|x| (x - m) * (x - m)).sum::<f64>().sqrt();
            let r = cov / (sd(&a, ma) * sd(&b, mb));
            assert!(r.abs() < 5.0 / (n as f64).sqrt(), "{what}: r = {r}");
        }
    }

    #[test]
    fn a_batch_is_the_samples_one_by_one() {
        let noise = Noise::new(9, 4);
        let logits = (0..1000u64).map(|i| i * i % 7919);
        let mut batch = [0.0f32; 600];
        assert_eq!(noise.fill(logits.clone(), &mut batch), 600);
        let mut tail = [7.0f32; 600];
        assert_eq!(noise.fill(logits.clone().skip(600), &mut tail), 400);
        let bits = |g: &[f32]| g.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        let one_by_one: Vec<f32> = logits.map(|i| noise.sample(i)).collect();
        assert_eq!(bits(&batch), bits(&one_by_one[..600]));
        assert_eq!(bits(&tail[..400]), bits(&one_by_one[600..]));
        assert_eq!(tail[400], 7.0, "past the end stays");
    }

    #[test]
    fn ln_is_within_two_ulps_of_the_f64_logarithm() {
        // every 97th f32 from 2⁻²⁴ to 17 — the inputs of both
        // logarithms — against `f64::ln`, rounded to f32
        let (from, to) = ((2f32.powi(-24)).to_bits(), 17f32.to_bits());
        let mut worst = 0u32;
        for x in (from..to).step_by(97).map(f32::from_bits) {
            let (got, want) = (ln(x), f64::from(x).ln() as f32);
            let ulps = (got.to_bits() as i64 - want.to_bits() as i64).unsigned_abs() as u32;
            // across 0, at x = 1, the signs differ: both are exact there
            let ulps = if got.signum() == want.signum() {
                ulps
            } else {
                u32::from(got != want)
            };
            worst = worst.max(ulps);
        }
        assert!(worst <= 2, "{worst} ulps");
    }

    #[test]
    fn the_ends_of_u_are_finite() {
        // the smallest and the largest `u` the 52 bits reach
        let u = |bits: u32| (bits as f32 + 0.5) * (1.0 / (1u32 << 23) as f32);
        let (low, high) = (gumbel(u(0)), gumbel(u((1 << 23) - 1)));
        assert!((-2.82..-2.80).contains(&low), "{low}");
        assert!((16.63..16.65).contains(&high), "{high}");
    }
}
