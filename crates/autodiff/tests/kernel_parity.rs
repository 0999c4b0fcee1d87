//! Property tests: the chunked 8-lane kernels agree with their scalar
//! references on adversarial segment layouts — empty segments, runs of
//! singletons, and huge segments — within a reassociation tolerance on
//! the order of 1 ULP per accumulated element. Elementwise and
//! index-driven kernels must match bit-for-bit.
//!
//! The references are plain loops written out here. The dot product's
//! own parity test is in `kernels`' unit tests: `kernels::dot` is private.

use dgr_autodiff::kernels;
use proptest::prelude::*;

/// Distance in representable f32 steps (monotonic bit mapping), `u64`
/// so NaN/infinity mismatches simply read as enormous.
fn ulps(a: f32, b: f32) -> u64 {
    let ord = |x: f32| -> i64 {
        let i = x.to_bits() as i32;
        (if i < 0 { i32::MIN - i } else { i }) as i64
    };
    ord(a).abs_diff(ord(b))
}

/// Reassociation-tolerant comparison: exact, within `abs_tol`, or
/// within a ULP budget that grows with the reduction length.
fn close(a: f32, b: f32, len: usize, abs_tol: f32) -> bool {
    a == b || (a - b).abs() <= abs_tol || ulps(a, b) <= 8 + len as u64
}

/// The sequential softmax the chunked one replaced.
fn softmax_scalar(x: &[f32], out: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(x) {
        let e = (v - max).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Adversarial segment-length mix: mostly empty/singleton/small, with
/// an occasional huge segment.
fn seg_lens() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(0usize),
            3 => Just(1usize),
            3 => 2usize..9,
            1 => 900usize..1100,
        ],
        1..12,
    )
}

/// Deterministic pseudo-random values in (-16, 16): the proptest input
/// is the adversarial *layout*; values just need to be varied and
/// reproducible without threading a runner through helper strategies.
fn pseudo(n: usize, salt: u64) -> Vec<f32> {
    (0..n as u64)
        .map(|i| {
            let h = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xD134_2543_DE82_EF95))
                .rotate_left(17);
            ((h % 32768) as f32 / 32768.0) * 32.0 - 16.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seg_softmax_parity(lens in seg_lens(), seed in 0u64..1000) {
        let total: usize = lens.iter().sum();
        let x = pseudo(total, seed);
        let gout = pseudo(total, seed ^ 0x5EED);
        let mut p_s = vec![0.0f32; total];
        let mut p_c = vec![0.0f32; total];
        let mut gx_s = vec![0.0f32; total];
        let mut gx_c = vec![0.0f32; total];
        let mut at = 0;
        for &len in &lens {
            let r = at..at + len;
            at += len;
            softmax_scalar(&x[r.clone()], &mut p_s[r.clone()]);
            kernels::softmax_into(&x[r.clone()], &mut p_c[r.clone()]);
            for j in r.clone() {
                prop_assert!(
                    close(p_s[j], p_c[j], len, f32::EPSILON * len as f32),
                    "softmax[{j}] mismatch in segment of {len}: {} vs {}",
                    p_s[j], p_c[j]
                );
            }
            // Backward differs only through its dot; the reference sums
            // it in order against the sequential forward output.
            let d: f32 = gout[r.clone()].iter().zip(&p_s[r.clone()]).map(|(a, b)| a * b).sum();
            for j in r.clone() {
                gx_s[j] += p_s[j] * (gout[j] - d);
            }
            kernels::seg_softmax_bwd(&p_c[r.clone()], &gout[r.clone()], &mut gx_c[r.clone()]);
            let dnorm: f32 = gout[r.clone()].iter().zip(&p_s[r.clone()])
                .map(|(a, b)| (a * b).abs()).sum();
            for j in r {
                prop_assert!(
                    close(gx_s[j], gx_c[j], len,
                          f32::EPSILON * (1.0 + dnorm) * len.max(1) as f32),
                    "seg_softmax_bwd[{j}] mismatch in segment of {len}: {} vs {}",
                    gx_s[j], gx_c[j]
                );
            }
        }
    }

    #[test]
    fn gather_scatter_bit_identical(lens in seg_lens(), seed in 0u64..1000) {
        let total: usize = lens.iter().sum::<usize>().max(1);
        let x = pseudo(total, seed);
        let idx: Vec<u32> = (0..total)
            .map(|i| ((i * 2654435761) % total) as u32)
            .collect();
        let mut naive = (vec![0.0f32; total], vec![0.0f32; total]);
        for (j, &i) in idx.iter().enumerate() {
            naive.0[j] = x[i as usize];
            naive.1[i as usize] += x[j];
        }
        let mut out = vec![0.0f32; total];
        let mut acc = vec![0.0f32; total];
        kernels::gather_fwd(&mut out, &x, &idx);
        kernels::scatter_add(&mut acc, &idx, &x);
        // Index-driven kernels visit each output bin in index order, as
        // the plain loop does, so they must agree bit-for-bit.
        prop_assert_eq!(naive, (out, acc));
    }
}
