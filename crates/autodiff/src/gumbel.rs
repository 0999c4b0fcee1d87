//! Gumbel(0, 1) noise for the stochastic softmax.
//!
//! Adding Gumbel noise to logits before a softmax ("Gumbel-softmax",
//! Jang et al. 2016) turns the deterministic relaxation into a stochastic
//! one, which the DGR paper uses to escape poor initializations. Noise is
//! resampled every iteration.
//!
//! # The transform, and why it is libm's
//!
//! A sample is `g = −ln(−ln u)`, computed in `f64` and rounded to `f32`;
//! the *reference* is that formula with the platform's `ln` for both
//! logarithms. Two libm calls cost several times the draw of `u`, so the
//! samples are computed with an inline, branch-free logarithm instead
//! (`ln` below: fdlibm's `e_log.c` reduction and polynomial, error < 1 ulp)
//! over a chunk of uniforms at a time, and each result is *accepted* only
//! when it provably rounds to the reference's `f32`:
//!
//! * Let `y` be the inline result and `y′` the reference's, both before
//!   the rounding to `f32`, and `ε = f64::EPSILON`. Both inner logarithms
//!   are within 1 ulp of `ln u`, so they differ by at most `2ε·b`, `b`
//!   their value; the outer logarithm turns that relative difference into
//!   at most `2ε` absolute, and its own two roundings add at most
//!   `2ε·|y|`. So `|y − y′| ≤ 2ε·(|y| + 1)`.
//! * Take `d = 4ε·(|y| + 1)`, twice that bound — the spare half covers
//!   the rounding of `y ± d` itself. If `y − d` and `y + d` round to the
//!   same `f32`, then so does every number between them, `y′` included,
//!   because rounding to nearest is monotone.
//! * Otherwise the sample is recomputed by the reference formula. That is
//!   the case near `y = 0` (`u ≈ e⁻¹`, where `d` spans many `f32`s) and
//!   wherever `y` lies within `d` of a midpoint between two `f32`s:
//!   rarely — 336 of 10⁹ draws in the ignored test
//!   `identity_over_a_billion_draws`.
//!
//! The output is the reference's bits on every draw, and the generator
//! is left where the reference leaves it: the uniforms are drawn one per
//! sample, in the same order. The transform body is compiled twice, plain
//! and for AVX2 (chosen at run time); the bound is the proof for both.

use std::ops::Range;

use rand::Rng;

/// The uniform draw is clamped to `[EPS, 1 − EPS)` so the double
/// logarithm never produces `±∞`.
const EPS: f64 = 1e-12;

/// Samples transformed in one pass: the uniforms of a chunk are drawn,
/// then transformed, then scattered to their runs.
const CHUNK: usize = 256;

/// Fills `out` with independent Gumbel(0, 1) samples:
/// `g = −ln(−ln u)`, `u ~ Uniform(0, 1)`.
///
/// The uniform draw is clamped away from 0 and 1 so the double logarithm
/// never produces `±∞`.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut noise = vec![0.0f32; 8];
/// dgr_autodiff::gumbel::fill_gumbel(&mut rng, &mut noise);
/// assert!(noise.iter().all(|g| g.is_finite()));
/// ```
pub fn fill_gumbel<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) {
    let all = 0..out.len();
    fill_runs(rng, std::slice::from_ref(&all), out);
}

/// Fills the entries of `out` that `runs` name with Gumbel(0, 1)
/// samples, run by run and in index order within a run — the order
/// [`fill_gumbel`] over each run in turn would draw them in.
///
/// # Panics
///
/// Panics if a run reaches past the end of `out`.
pub(crate) fn fill_runs<R: Rng + ?Sized>(rng: &mut R, runs: &[Range<usize>], out: &mut [f32]) {
    let (mut u, mut a, mut g) = ([0.0f64; CHUNK], [0.0f64; CHUNK], [0.0f32; CHUNK]);
    let mut left: usize = runs.iter().map(Range::len).sum();
    let mut runs = runs.iter().cloned();
    let mut run = 0..0;
    while left > 0 {
        let n = left.min(CHUNK);
        for u in &mut u[..n] {
            *u = rng.gen_range(EPS..(1.0 - EPS));
        }
        transform(&u[..n], &mut a[..n], &mut g[..n]);
        let mut done = &g[..n];
        while !done.is_empty() {
            if run.is_empty() {
                run = runs.next().expect("the runs hold the samples counted");
            }
            let k = run.len().min(done.len());
            out[run.start..run.start + k].copy_from_slice(&done[..k]);
            run.start += k;
            done = &done[k..];
        }
        left -= n;
    }
}

/// `g[i] = −ln(−ln u[i])` rounded to `f32`, bit for bit the reference's;
/// `a` is scratch of the same length.
fn transform(u: &[f64], a: &mut [f64], g: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `transform_avx2` requires AVX2 and nothing else, and the
        // CPU was just found to have it.
        return unsafe { transform_avx2(u, a, g) };
    }
    transform_body(u, a, g);
}

/// [`transform_body`], compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn transform_avx2(u: &[f64], a: &mut [f64], g: &mut [f32]) {
    transform_body(u, a, g);
}

/// Two branch-free passes over the chunk, one per logarithm (one pass
/// of both waits on the chain of two divisions and two polynomials per
/// sample); then, only if some sample was not accepted, a third that
/// recomputes those by the reference.
#[inline(always)]
fn transform_body(u: &[f64], a: &mut [f64], g: &mut [f32]) {
    for (a, &u) in a.iter_mut().zip(u) {
        *a = -ln(u);
    }
    let mut all = true;
    for (g, &a) in g.iter_mut().zip(&*a) {
        let (v, accepted) = outer(a);
        *g = v;
        all &= accepted;
    }
    if !all {
        for ((g, &a), &u) in g.iter_mut().zip(&*a).zip(u) {
            if !outer(a).1 {
                *g = (-(-u.ln()).ln()) as f32;
            }
        }
    }
}

/// `y = −ln a` by [`ln`], rounded to `f32`, and whether the rounding test
/// accepts it (module doc): `y ± d` round to the same `f32`.
#[inline(always)]
fn outer(a: f64) -> (f32, bool) {
    let y = -ln(a);
    let d = 4.0 * f64::EPSILON * (y.abs() + 1.0);
    let lo = (y - d) as f32;
    (lo, lo.to_bits() == ((y + d) as f32).to_bits())
}

/// The natural logarithm of a positive normal `x`, within 1 ulp: fdlibm's
/// `e_log.c` without its special cases and its branch on `f`.
///
/// `x = 2^k·m` with `m ∈ [√½, √2)`, `f = m − 1`, `s = f/(2 + f)`, and
/// `ln m = f − ½f² + s·(½f² + R(s²))` with `R` a minimax polynomial.
#[inline(always)]
#[allow(clippy::excessive_precision)] // the constants as `e_log.c` spells them
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = 6.93147180369123816490e-01;
    const LN2_LO: f64 = 1.90821492927058770002e-10;
    const LG1: f64 = 6.666666666666735130e-01;
    const LG2: f64 = 3.999999999940941908e-01;
    const LG3: f64 = 2.857142874366239149e-01;
    const LG4: f64 = 2.222219843214978396e-01;
    const LG5: f64 = 1.818357216161805012e-01;
    const LG6: f64 = 1.531383769920937332e-01;
    const LG7: f64 = 1.479819860511658591e-01;
    // the high word of √½ is 0x3fe6a09e: offsetting the high word by it
    // carries a mantissa of √2 or more into the exponent
    let bits = x.to_bits();
    let hx = ((bits >> 32) as u32).wrapping_add(0x3ff0_0000 - 0x3fe6_a09e);
    let k = (hx >> 20) as i32 - 0x3ff;
    let hx = (hx & 0x000f_ffff) + 0x3fe6_a09e;
    let m = f64::from_bits((hx as u64) << 32 | (bits & 0xffff_ffff));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let dk = k as f64;
    dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
}

/// The loop [`fill_gumbel`] ran before the inline logarithm: one uniform
/// and two libm logarithms per sample. The tests' reference, bit for bit.
#[cfg(test)]
pub(crate) fn reference_fill<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) {
    for v in out {
        let u: f64 = rng.gen_range(EPS..(1.0 - EPS));
        *v = (-(-u.ln()).ln()) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn reference(u: f64) -> f32 {
        (-(-u.ln()).ln()) as f32
    }

    /// The transform's decision for `u`: `true` keeps the inline result.
    fn accepted(u: f64) -> bool {
        outer(-ln(u)).1
    }

    #[test]
    fn samples_are_finite_and_varied() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut buf = vec![0.0f32; 10_000];
        fill_gumbel(&mut rng, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite()));
        let distinct: std::collections::HashSet<u32> = buf.iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() > 9_000);
    }

    #[test]
    fn mean_approximates_euler_mascheroni() {
        // E[Gumbel(0,1)] = γ ≈ 0.5772
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0f32; 200_000];
        fill_gumbel(&mut rng, &mut buf);
        let mean: f64 = buf.iter().map(|&v| v as f64).sum::<f64>() / buf.len() as f64;
        assert!((mean - 0.5772).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = vec![0.0f32; 16];
        let mut b = vec![0.0f32; 16];
        fill_gumbel(&mut StdRng::seed_from_u64(9), &mut a);
        fill_gumbel(&mut StdRng::seed_from_u64(9), &mut b);
        assert_eq!(a, b);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|g| g.to_bits()).collect()
    }

    #[test]
    fn fill_gumbel_is_the_reference_bit_for_bit() {
        // 4 seeds × 2.5 M draws, in buffers that end mid-chunk and on one
        for (seed, len) in [
            (1, 2_500_000),
            (2, 2_499_999),
            (3, 256 * 9_766),
            (4, 2_500_001),
        ] {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut got = vec![0.0f32; len];
            let mut want = vec![0.0f32; len];
            fill_gumbel(&mut a, &mut got);
            reference_fill(&mut b, &mut want);
            assert!(bits(&got) == bits(&want), "seed {seed}: a sample differs");
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "seed {seed}: the generator moved differently"
            );
        }
    }

    #[test]
    fn fill_runs_is_the_reference_run_by_run() {
        // empty runs, runs of 1–3 logits with gaps between them, one run
        // longer than a chunk, and runs straddling chunk boundaries
        let mut runs = Vec::new();
        let mut at = 0;
        for i in 0..2_000usize {
            let len = [0, 1, 2, 3, 2, 1, 3, 0][i % 8];
            runs.push(at..at + len);
            at += len + i % 3;
            if i == 700 {
                runs.push(at..at + 10_000);
                at += 10_000;
            }
        }
        let total: usize = runs.iter().map(Range::len).sum();
        for seed in 0..8 {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut got = vec![7.0f32; at];
            let mut want = vec![7.0f32; at];
            for _ in 0..1_250_000 / total + 1 {
                fill_runs(&mut a, &runs, &mut got);
                for run in &runs {
                    reference_fill(&mut b, &mut want[run.clone()]);
                }
                assert!(bits(&got) == bits(&want), "seed {seed}: a sample differs");
            }
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "seed {seed}: the generator moved differently"
            );
        }
    }

    /// The `u` whose reference `y` (before the `f32` rounding) is nearest
    /// the midpoint between `t` and the next `f32` up, by bisection on
    /// `u`, along which `y` increases.
    fn u_at_midpoint(t: f32) -> (f64, f64) {
        let mid = (t as f64 + f32::from_bits(t.to_bits() + 1) as f64) / 2.0;
        let y = |u: f64| -(-u.ln()).ln();
        let (mut lo, mut hi) = (EPS, 1.0 - EPS);
        while f64::from_bits(lo.to_bits() + 1) < hi {
            let m = lo + (hi - lo) / 2.0;
            if m <= lo || m >= hi {
                break;
            }
            if y(m) < mid {
                lo = m;
            } else {
                hi = m;
            }
        }
        let u = if (y(lo) - mid).abs() <= (y(hi) - mid).abs() {
            lo
        } else {
            hi
        };
        (u, mid)
    }

    #[test]
    fn hard_inputs_fall_back_and_keep_the_reference_bits() {
        let e_inv = (-1.0f64).exp();
        let mut near_zero: Vec<f64> = vec![e_inv];
        let (mut below, mut above) = (e_inv, e_inv);
        for _ in 0..64 {
            below = f64::from_bits(below.to_bits() - 1);
            above = f64::from_bits(above.to_bits() + 1);
            near_zero.extend([below, above]);
        }
        let mut midpoints = Vec::new();
        for t in [1.5f32, -0.75, 0.1, 4.0, -1.8] {
            let (u, mid) = u_at_midpoint(t);
            let y = -(-u.ln()).ln();
            let d = 4.0 * f64::EPSILON * (y.abs() + 1.0);
            assert!(
                (y - mid).abs() < d / 2.0,
                "bisection for {t} ended {} from the midpoint",
                y - mid
            );
            midpoints.push(u);
        }
        for &u in near_zero.iter().chain(&midpoints) {
            assert!(!accepted(u), "u = {u:e} was accepted");
        }
        // the ends of the clamp are ordinary inputs: they need only agree
        let ends = [EPS, 1.0 - EPS, 1.0 - 2.0 * EPS];
        let inputs: Vec<f64> = near_zero
            .iter()
            .chain(&midpoints)
            .chain(&ends)
            .copied()
            .collect();
        let mut got = vec![0.0f32; inputs.len()];
        transform(&inputs, &mut vec![0.0; inputs.len()], &mut got);
        let want: Vec<f32> = inputs.iter().map(|&u| reference(u)).collect();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn the_two_transform_bodies_agree() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut rng = StdRng::seed_from_u64(5);
            let u: Vec<f64> = (0..1 << 20)
                .map(|_| rng.gen_range(EPS..(1.0 - EPS)))
                .collect();
            let (mut plain, mut wide) = (vec![0.0f32; u.len()], vec![0.0f32; u.len()]);
            for ((u, p), w) in u
                .chunks(CHUNK)
                .zip(plain.chunks_mut(CHUNK))
                .zip(wide.chunks_mut(CHUNK))
            {
                let mut a = [0.0; CHUNK];
                transform_body(u, &mut a[..u.len()], p);
                // SAFETY: AVX2 was detected above.
                unsafe { transform_avx2(u, &mut a[..u.len()], w) };
            }
            assert!(bits(&plain) == bits(&wide));
        }
    }

    /// `cargo test --release -p dgr-autodiff --lib identity_over -- --ignored --nocapture`
    #[test]
    #[ignore = "10⁹ draws: run in release"]
    fn identity_over_a_billion_draws() {
        const DRAWS: u64 = 1_000_000_000;
        let mut rng = StdRng::seed_from_u64(2024);
        let (mut u, mut a, mut got) = ([0.0f64; CHUNK], [0.0f64; CHUNK], [0.0f32; CHUNK]);
        let (mut mismatches, mut fallbacks) = (0u64, 0u64);
        for _ in 0..DRAWS / CHUNK as u64 {
            for u in &mut u {
                *u = rng.gen_range(EPS..(1.0 - EPS));
            }
            transform(&u, &mut a, &mut got);
            for (&u, &g) in u.iter().zip(&got) {
                mismatches += (g.to_bits() != reference(u).to_bits()) as u64;
                fallbacks += !accepted(u) as u64;
            }
        }
        let rate = fallbacks as f64 / DRAWS as f64;
        println!("gumbel identity: draws {DRAWS} mismatches {mismatches} fallbacks {fallbacks} rate {rate:.3e}");
        assert_eq!(mismatches, 0);
        assert!(rate < 1e-5, "fallback rate {rate}");
    }
}
