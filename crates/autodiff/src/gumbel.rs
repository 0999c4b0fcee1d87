//! Gumbel(0, 1) noise for the stochastic softmax.
//!
//! Adding Gumbel noise to logits before a softmax ("Gumbel-softmax",
//! Jang et al. 2016) turns the deterministic relaxation into a stochastic
//! one, which the DGR paper uses to escape poor initializations. Noise is
//! resampled every iteration.

use rand::Rng;

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
    const EPS: f64 = 1e-12;
    for v in out {
        let u: f64 = rng.gen_range(EPS..(1.0 - EPS));
        *v = (-(-u.ln()).ln()) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
