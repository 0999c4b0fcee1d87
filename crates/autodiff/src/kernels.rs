//! Chunked (8-lane) f32 kernels — the SIMD layer.
//!
//! The DGR paper runs its tensor ops as wide CUDA kernels; this module is
//! the CPU analogue: every hot loop is written as an explicit 8-lane
//! chunked pass (`chunks_exact(8)` bodies LLVM auto-vectorizes to SSE/AVX
//! on stable Rust — no nightly features, no intrinsics) with a scalar
//! tail. Reductions keep **8 independent lane accumulators** that are
//! folded in a fixed pairwise order, so results are deterministic but
//! differ from the sequential sum in the last ULP whenever more than one
//! chunk participates.
//!
//! The sequential loops the reductions replaced stay as [`sum_scalar`],
//! [`dot_scalar`] and [`softmax_into_scalar`]: nothing executes them, they
//! are the reference `tests/kernel_parity.rs` checks [`sum`], [`dot`] and
//! [`softmax_into`] against (agreement up to ULP-scale error; [`max`] is
//! associative and bit-identical to its sequential fold for finite
//! inputs). Pure elementwise passes (axpy, gather, fused activation maps,
//! fused multiply backward) carry no reduction and need no reference.

use crate::activation::Activation;

const LANES: usize = 8;

// --- reductions ------------------------------------------------------------

/// `Σ x[i]`, lane-striped: 8 accumulators folded pairwise, scalar tail.
#[inline]
pub fn sum(x: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut it = x.chunks_exact(LANES);
    for c in &mut it {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    let mut s = fold_lanes(&acc);
    for &v in it.remainder() {
        s += v;
    }
    s
}

/// Sequential reference sum.
#[inline]
pub fn sum_scalar(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// `Σ x[i]·w[i]`, lane-striped (8 accumulators, pairwise fold, scalar
/// tail).
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub fn dot(x: &[f32], w: &[f32]) -> f32 {
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

/// Sequential reference dot product.
#[inline]
pub fn dot_scalar(x: &[f32], w: &[f32]) -> f32 {
    x.iter().zip(w).map(|(a, b)| a * b).sum()
}

/// Maximum element (`-inf` for empty input). Max is associative, so the
/// chunked pass is bit-identical to the sequential fold for finite
/// inputs; no scalar twin is needed.
#[inline]
pub fn max(x: &[f32]) -> f32 {
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
/// associative max, lane-striped exp accumulation, and a rescale pass.
pub fn softmax_into(x: &[f32], out: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let m = max(x);
    let mut acc = [0.0f32; LANES];
    let mut xs = x.chunks_exact(LANES);
    let mut os = out.chunks_exact_mut(LANES);
    for (cx, co) in (&mut xs).zip(&mut os) {
        for j in 0..LANES {
            let e = (cx[j] - m).exp();
            co[j] = e;
            acc[j] += e;
        }
    }
    let mut sum = fold_lanes(&acc);
    for (&v, o) in xs.remainder().iter().zip(os.into_remainder()) {
        let e = (v - m).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Sequential reference softmax.
pub fn softmax_into_scalar(x: &[f32], out: &mut [f32]) {
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

/// Fused segmented-softmax backward for one segment:
/// `gx[j] += p[j]·(gout[j] − Σ_k gout[k]·p[k])` in two passes — one
/// [`dot`], one elementwise fused update.
pub fn seg_softmax_bwd(p: &[f32], gout: &[f32], gx: &mut [f32]) {
    let d = dot(gout, p);
    for ((g, &pv), &go) in gx.iter_mut().zip(p).zip(gout) {
        *g += pv * (go - d);
    }
}

// --- elementwise passes ----------------------------------------------------
//
// No reduction is involved; the explicit slice-iterator bodies exist so
// LLVM vectorizes them without bounds checks.

/// `out[i] = a[i] + b[i]`.
pub fn add2(out: &mut [f32], a: &[f32], b: &[f32]) {
    for ((o, &u), &v) in out.iter_mut().zip(a).zip(b) {
        *o = u + v;
    }
}

/// `out[i] = a[i] · b[i]`.
pub fn mul2(out: &mut [f32], a: &[f32], b: &[f32]) {
    for ((o, &u), &v) in out.iter_mut().zip(a).zip(b) {
        *o = u * v;
    }
}

/// `out[i] = k · x[i]`.
pub fn scale_into(out: &mut [f32], x: &[f32], k: f32) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = k * v;
    }
}

/// `dst[i] += g` — the SumAll backward broadcast.
pub fn add_scalar(dst: &mut [f32], g: f32) {
    for d in dst.iter_mut() {
        *d += g;
    }
}

/// `dst[i] += k·src[i]`.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub fn axpy(dst: &mut [f32], src: &[f32], k: f32) {
    assert_eq!(dst.len(), src.len(), "axpy operands disagree");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += k * s;
    }
}

/// Fused Add backward, one read of `gout` feeding both operands:
/// `ga[i] += gout[i]` and `gb[i] += gout[i]`.
pub fn add_bwd(ga: &mut [f32], gb: &mut [f32], gout: &[f32]) {
    for ((a, b), &g) in ga.iter_mut().zip(gb.iter_mut()).zip(gout) {
        *a += g;
        *b += g;
    }
}

/// Fused multiply backward, both operands in one read of `gout`:
/// `ga[i] += gout[i]·xb[i]` and `gb[i] += gout[i]·xa[i]`.
///
/// # Panics
///
/// Panics if any slice length differs.
pub fn mul_bwd(ga: &mut [f32], gb: &mut [f32], gout: &[f32], xa: &[f32], xb: &[f32]) {
    let n = gout.len();
    assert!(
        ga.len() == n && gb.len() == n && xa.len() == n && xb.len() == n,
        "mul_bwd operands disagree"
    );
    for i in 0..n {
        let g = gout[i];
        ga[i] += g * xb[i];
        gb[i] += g * xa[i];
    }
}

/// Fused multiply backward for `x·x`: `ga[i] += 2·gout[i]·xa[i]`.
pub fn mul_bwd_same(ga: &mut [f32], gout: &[f32], xa: &[f32]) {
    for ((g, &go), &x) in ga.iter_mut().zip(gout).zip(xa) {
        *g += 2.0 * go * x;
    }
}

/// `gx[i] += gout[i]·c[i]` — the MulConst backward / generic three-slice
/// fused multiply-accumulate.
pub fn fma_accum(gx: &mut [f32], gout: &[f32], c: &[f32]) {
    for ((g, &go), &cv) in gx.iter_mut().zip(gout).zip(c) {
        *g += go * cv;
    }
}

/// `out[i] = x[idx[i]]` — the gather forward.
pub fn gather_fwd(out: &mut [f32], x: &[f32], idx: &[u32]) {
    for (o, &i) in out.iter_mut().zip(idx) {
        *o = x[i as usize];
    }
}

/// `gx[j] += gout[idx[j]]` — the scatter-add backward (a gather-accumulate
/// over the *output* cotangent; elementwise in `j`).
pub fn scatter_bwd(gx: &mut [f32], gout: &[f32], idx: &[u32]) {
    for (g, &i) in gx.iter_mut().zip(idx) {
        *g += gout[i as usize];
    }
}

/// `out[idx[i]] += x[i]` — the sequential scatter-add body (also the
/// per-chunk kernel of the parallel scatter). The index stream is
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

// --- fused activation kernels ----------------------------------------------

/// `out[i] = kind.eval(x[i])` with the variant match hoisted out of the
/// loop so each arm compiles to a dedicated vectorizable pass.
pub fn activate_fwd(kind: Activation, x: &[f32], out: &mut [f32]) {
    #[inline(always)]
    fn map(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = f(v);
        }
    }
    match kind {
        Activation::Relu => map(x, out, |v| Activation::Relu.eval(v)),
        Activation::Sigmoid => map(x, out, |v| Activation::Sigmoid.eval(v)),
        Activation::LeakyRelu => map(x, out, |v| Activation::LeakyRelu.eval(v)),
        Activation::Exp => map(x, out, |v| Activation::Exp.eval(v)),
        Activation::Celu => map(x, out, |v| Activation::Celu.eval(v)),
    }
}

/// Fused activation backward: `gx[i] += gout[i]·kind.grad(x[i])` in one
/// pass per variant (one read of `x` and `gout`, one write of `gx`).
pub fn activate_bwd(kind: Activation, x: &[f32], gout: &[f32], gx: &mut [f32]) {
    #[inline(always)]
    fn fused(x: &[f32], gout: &[f32], gx: &mut [f32], df: impl Fn(f32) -> f32) {
        for ((g, &go), &v) in gx.iter_mut().zip(gout).zip(x) {
            *g += go * df(v);
        }
    }
    match kind {
        Activation::Relu => fused(x, gout, gx, |v| Activation::Relu.grad(v)),
        Activation::Sigmoid => fused(x, gout, gx, |v| Activation::Sigmoid.grad(v)),
        Activation::LeakyRelu => fused(x, gout, gx, |v| Activation::LeakyRelu.grad(v)),
        Activation::Exp => fused(x, gout, gx, |v| Activation::Exp.grad(v)),
        Activation::Celu => fused(x, gout, gx, |v| Activation::Celu.grad(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_close(a: f32, b: f32, scale: f32) -> bool {
        (a - b).abs() <= 1e-5 * scale.abs().max(1.0)
    }

    #[test]
    fn chunked_sum_dot_match_scalar() {
        let x: Vec<f32> = (0..1003).map(|i| ((i % 37) as f32 - 18.0) * 0.37).collect();
        let w: Vec<f32> = (0..1003).map(|i| ((i % 11) as f32) * 0.21).collect();
        let (sc, ss) = (sum(&x), sum_scalar(&x));
        assert!(ulp_close(sc, ss, ss), "{sc} vs {ss}");
        let (dc, ds) = (dot(&x, &w), dot_scalar(&x, &w));
        assert!(ulp_close(dc, ds, ds), "{dc} vs {ds}");
    }

    #[test]
    fn short_inputs_are_bit_identical() {
        // Fewer than 8 elements never touch the lane accumulators, so the
        // chunked reductions degrade to the exact sequential order.
        for n in 0..8 {
            let x: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
            assert_eq!(sum(&x), sum_scalar(&x), "n={n}");
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
    fn softmax_matches_scalar_and_normalizes() {
        let x: Vec<f32> = (0..21).map(|i| ((i % 9) as f32 - 4.0) * 0.7).collect();
        let mut a = vec![0.0; x.len()];
        let mut b = vec![0.0; x.len()];
        softmax_into(&x, &mut a);
        softmax_into_scalar(&x, &mut b);
        assert!(ulp_close(a.iter().sum::<f32>(), 1.0, 1.0));
        for (u, v) in a.iter().zip(&b) {
            assert!(ulp_close(*u, *v, 1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn fused_mul_backward_matches_reference() {
        let n = 37;
        let xa: Vec<f32> = (0..n).map(|i| (i as f32) * 0.3 - 2.0).collect();
        let xb: Vec<f32> = (0..n).map(|i| 1.5 - (i as f32) * 0.1).collect();
        let gout: Vec<f32> = (0..n).map(|i| ((i % 5) as f32) * 0.25).collect();
        let mut ga = vec![0.5f32; n];
        let mut gb = vec![-0.5f32; n];
        mul_bwd(&mut ga, &mut gb, &gout, &xa, &xb);
        for i in 0..n {
            assert_eq!(ga[i], 0.5 + gout[i] * xb[i]);
            assert_eq!(gb[i], -0.5 + gout[i] * xa[i]);
        }
    }
}
