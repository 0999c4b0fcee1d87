//! Chunked (8-lane) f32 kernels: the group softmax the expected-cost
//! kernel ([`crate::cost`]) calls, the fused Adam update, and what only
//! the benchmark calls, timing it per element: the segmented softmax
//! backward (the one caller of the private `dot`) and the gather /
//! scatter-add pair.
//!
//! Every hot loop is written as an explicit 8-lane chunked pass
//! (`chunks_exact(8)` bodies LLVM auto-vectorizes to SSE/AVX on stable
//! Rust — no nightly features, no intrinsics) with a scalar tail.
//! Reductions keep **8 independent lane accumulators** that are folded in
//! a fixed pairwise order, so results are deterministic but differ from
//! the sequential sum in the last ULP whenever more than one chunk
//! participates.
//!
//! The sequential loops the reductions replaced are the references the
//! tests check against, up to ULP-scale error: `dot_scalar` in this
//! module's tests, the softmax in `tests/kernel_parity.rs`. (`max` is
//! associative and bit-identical to its sequential fold for finite
//! inputs.)

const LANES: usize = 8;

// --- reductions ------------------------------------------------------------

/// `Σ x[i]·w[i]`, lane-striped (8 accumulators, pairwise fold, scalar
/// tail).
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
fn dot(x: &[f32], w: &[f32]) -> f32 {
    assert_eq!(x.len(), w.len(), "dot operands disagree");
    let mut acc = [0.0f32; LANES];
    let mut xs = x.chunks_exact(LANES);
    let mut ws = w.chunks_exact(LANES);
    for (cx, cw) in (&mut xs).zip(&mut ws) {
        for j in 0..LANES {
            acc[j] += cx[j] * cw[j];
        }
    }
    let mut s = fold_lanes(&acc);
    for (&a, &b) in xs.remainder().iter().zip(ws.remainder()) {
        s += a * b;
    }
    s
}

/// Maximum element (`-inf` for empty input). Max is associative, so the
/// chunked pass is bit-identical to the sequential fold for finite
/// inputs; no scalar twin is needed.
#[inline]
fn max(x: &[f32]) -> f32 {
    let mut acc = [f32::NEG_INFINITY; LANES];
    let mut it = x.chunks_exact(LANES);
    for c in &mut it {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a = a.max(v);
        }
    }
    let mut m = acc.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for &v in it.remainder() {
        m = m.max(v);
    }
    m
}

/// Fixed pairwise fold of the 8 lane accumulators.
#[inline(always)]
fn fold_lanes(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

// --- softmax ---------------------------------------------------------------

/// Numerically-stable softmax of `x` into `out` (same length):
/// [`softmax_in_place`] on a copy.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn softmax_into(x: &[f32], out: &mut [f32]) {
    out.copy_from_slice(x);
    softmax_in_place(out);
}

/// Numerically-stable softmax of `x`, in place: associative max,
/// lane-striped exp accumulation, and a rescale pass.
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let m = max(x);
    let mut acc = [0.0f32; LANES];
    let mut xs = x.chunks_exact_mut(LANES);
    for c in &mut xs {
        for j in 0..LANES {
            let e = (c[j] - m).exp();
            c[j] = e;
            acc[j] += e;
        }
    }
    let mut sum = fold_lanes(&acc);
    for v in xs.into_remainder() {
        let e = (*v - m).exp();
        *v = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Fused segmented-softmax backward for one segment:
/// `gx[j] += p[j]·(gout[j] − Σ_k gout[k]·p[k])` in two passes — one
/// lane-striped dot product, one elementwise fused update.
pub fn seg_softmax_bwd(p: &[f32], gout: &[f32], gx: &mut [f32]) {
    let d = dot(gout, p);
    for ((g, &pv), &go) in gx.iter_mut().zip(p).zip(gout) {
        *g += pv * (go - d);
    }
}

// --- index-driven passes ---------------------------------------------------

/// `out[i] = x[idx[i]]` — the gather forward.
pub fn gather_fwd(out: &mut [f32], x: &[f32], idx: &[u32]) {
    for (o, &i) in out.iter_mut().zip(idx) {
        *o = x[i as usize];
    }
}

/// `out[idx[i]] += x[i]` — the scatter-add. The index stream is
/// unrolled by 8 to hide load latency; entries still land in each output
/// bin in index order, so the result is bit-identical to the plain loop.
pub fn scatter_add(out: &mut [f32], idx: &[u32], x: &[f32]) {
    let mut is = idx.chunks_exact(LANES);
    let mut xs = x.chunks_exact(LANES);
    for (ci, cx) in (&mut is).zip(&mut xs) {
        for j in 0..LANES {
            out[ci[j] as usize] += cx[j];
        }
    }
    for (&i, &v) in is.remainder().iter().zip(xs.remainder()) {
        out[i as usize] += v;
    }
}

/// Fused Adam update over one contiguous span: reads the gradient once
/// and updates moments + parameters in a single pass. `bc1`/`bc2` are the
/// bias-correction denominators for the current step.
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    data: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    let n = data.len();
    assert!(
        m.len() == n && v.len() == n && grad.len() == n,
        "adam operands disagree"
    );
    for i in 0..n {
        let g = grad[i];
        let mi = b1 * m[i] + (1.0 - b1) * g;
        let vi = b2 * v[i] + (1.0 - b2) * g * g;
        m[i] = mi;
        v[i] = vi;
        let mhat = mi / bc1;
        let vhat = vi / bc2;
        data[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_close(a: f32, b: f32, scale: f32) -> bool {
        (a - b).abs() <= 1e-5 * scale.abs().max(1.0)
    }

    /// The sequential loop [`dot`] replaced.
    fn dot_scalar(x: &[f32], w: &[f32]) -> f32 {
        x.iter().zip(w).map(|(a, b)| a * b).sum()
    }

    /// Reproducible values in (−16, 16), varied by `salt`.
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

    #[test]
    fn chunked_dot_matches_scalar() {
        // empty, singleton, sub-chunk, every tail, and segments of a
        // thousand, several seeds each
        let lens = (0..=24).chain([900, 1003, 1099]);
        for (len, salt) in lens.flat_map(|len| (0..4).map(move |salt| (len, salt))) {
            let (x, w) = (pseudo(len, salt), pseudo(len, salt ^ 0xABCD));
            let (dc, ds) = (dot(&x, &w), dot_scalar(&x, &w));
            // reassociation error ≤ n·ε·Σ|terms|
            let terms: f32 = x.iter().zip(&w).map(|(a, b)| (a * b).abs()).sum();
            let bound = f32::EPSILON * terms * len.max(1) as f32;
            assert!((dc - ds).abs() <= bound, "{len} elements: {dc} vs {ds}");
        }
    }

    #[test]
    fn short_inputs_are_bit_identical() {
        // Fewer than 8 elements never touch the lane accumulators, so the
        // chunked reductions degrade to the exact sequential order.
        for n in 0..8 {
            let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            assert_eq!(dot(&x, &x), dot_scalar(&x, &x), "n={n}");
        }
    }

    #[test]
    fn max_handles_empty_and_tail() {
        assert_eq!(max(&[]), f32::NEG_INFINITY);
        let x: Vec<f32> = (0..19).map(|i| ((i * 7) % 13) as f32).collect();
        let want = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(max(&x), want);
    }

    #[test]
    fn softmax_normalizes() {
        let x: Vec<f32> = (0..21).map(|i| ((i % 9) as f32 - 4.0) * 0.7).collect();
        let mut a = vec![0.0; x.len()];
        softmax_into(&x, &mut a);
        assert!(ulp_close(a.iter().sum::<f32>(), 1.0, 1.0));
    }

    #[test]
    fn softmax_is_monotone_and_shift_invariant() {
        let mut a = vec![0.0; 4];
        softmax_into(&[1.0, 2.0, 3.0, 4.0], &mut a);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let mut b = vec![0.0; 4];
        softmax_into(&[101.0, 102.0, 103.0, 104.0], &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut out = vec![0.0; 2];
        softmax_into(&[1000.0, 0.0], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-6);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
