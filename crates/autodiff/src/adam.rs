//! The Adam optimizer (Kingma & Ba 2015) — the update rule the paper uses
//! for its trainable logits.

use std::ops::Range;

use crate::kernels;

/// Adam state over one parameter vector.
///
/// # Examples
///
/// ```
/// use dgr_autodiff::Adam;
///
/// // minimise w²: the gradient is 2w
/// let mut w = [5.0f32];
/// let mut adam = Adam::new(1, 0.5);
/// for _ in 0..200 {
///     let g = [2.0 * w[0]];
///     adam.step(&mut w, &g);
/// }
/// assert!(w[0].abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First moments.
    m: Vec<f32>,
    /// Second moments.
    v: Vec<f32>,
}

impl Adam {
    /// Creates an optimizer with the standard moments
    /// (`β₁ = 0.9, β₂ = 0.999, ε = 1e−8`) over `len` parameters.
    pub fn new(len: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Shrinks the optimizer to the parameters `keep` flags (one flag per
    /// parameter, what [`crate::CostModel::prune`] returns), and forgets
    /// the moments of every kept parameter outside `runs` (in the new
    /// layout; the pruned model's [`crate::CostModel::choice_runs`]). The
    /// parameters inside keep their moments, and the step count is
    /// unchanged.
    ///
    /// A forgotten parameter whose gradient stays `+0.0` is then a fixed
    /// point of every update: `m = v = 0`, so the step is `lr · 0 / ε = 0`
    /// and `w − 0 = w` for every `w`, `−0.0` and `−∞` included. That is
    /// what lets [`Self::step_runs`] skip it.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer flags than parameters, or if a run ends
    /// past the kept ones.
    pub fn retain(&mut self, keep: &[bool], runs: &[Range<usize>]) {
        crate::cost::retain_flagged(&mut self.m, keep);
        crate::cost::retain_flagged(&mut self.v, keep);
        let len = self.m.len();
        let mut from = 0;
        for (start, end) in runs.iter().map(|r| (r.start, r.end)).chain([(len, len)]) {
            self.m[from..start].fill(0.0);
            self.v[from..start].fill(0.0);
            from = end;
        }
    }

    /// Applies one Adam update to `params` from `grads`. A parameter whose
    /// gradient has always been zero is left bit-for-bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the optimizer's.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_runs(params, grads, std::slice::from_ref(&(0..params.len())));
    }

    /// [`Self::step`] over the parameters in `runs` only: one more step
    /// counted, and each parameter inside gets the bits `step` would give
    /// it. A parameter outside is not touched — which is `step`'s answer
    /// too for one whose moments are zero and whose gradient is `+0.0`
    /// (see [`Self::retain`]).
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the optimizer's, or
    /// if a run ends past it.
    pub fn step_runs(&mut self, params: &mut [f32], grads: &[f32], runs: &[Range<usize>]) {
        let n = self.m.len();
        assert!(
            params.len() == n && grads.len() == n,
            "adam operands disagree"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for r in runs {
            kernels::adam_update(
                &mut params[r.clone()],
                &mut self.m[r.clone()],
                &mut self.v[r.clone()],
                &grads[r.clone()],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the dense step is tested here
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_convex_bowl() {
        let mut w = [3.0f32, -4.0];
        let mut adam = Adam::new(2, 0.3);
        let loss = |w: &[f32; 2]| w[0] * w[0] + w[1] * w[1];
        let mut last = f32::INFINITY;
        for i in 0..300 {
            if i % 50 == 0 {
                assert!(loss(&w) <= last + 1e-3);
                last = loss(&w);
            }
            let g = [2.0 * w[0], 2.0 * w[1]];
            adam.step(&mut w, &g);
        }
        assert!(loss(&w) < 1e-3);
    }

    #[test]
    fn zero_gradients_leave_parameters_bit_identical() {
        let mut w = [0.1f32, -0.0, 3.5e-9];
        let before = w.map(f32::to_bits);
        let mut adam = Adam::new(3, 0.3);
        for _ in 0..20 {
            adam.step(&mut w, &[0.0; 3]);
        }
        assert_eq!(w.map(f32::to_bits), before);
    }

    #[test]
    fn retained_parameters_step_as_if_the_others_had_never_been_there() {
        let grad = |step: usize, i: usize| ((step * 7 + i * 3) % 11) as f32 - 5.0;
        let grads =
            |step: usize, of: &[usize]| -> Vec<f32> { of.iter().map(|&i| grad(step, i)).collect() };
        let all = [0, 1, 2, 3, 4, 5];
        let kept = [1, 2, 5];
        let mut w: Vec<f32> = all.iter().map(|&i| i as f32).collect();
        let mut adam = Adam::new(w.len(), 0.1);
        // the same three parameters, alone from the start
        let mut w_alone: Vec<f32> = kept.iter().map(|&i| i as f32).collect();
        let mut alone = Adam::new(kept.len(), 0.1);
        for step in 0..5 {
            adam.step(&mut w, &grads(step, &all));
            alone.step(&mut w_alone, &grads(step, &kept));
        }
        let none_forgotten = 0..kept.len();
        adam.retain(
            &all.map(|i| kept.contains(&i)),
            std::slice::from_ref(&none_forgotten),
        );
        let mut w: Vec<f32> = kept.iter().map(|&i| w[i]).collect();
        assert_eq!(adam.steps(), 5, "the bias correction carries on");
        for step in 5..10 {
            adam.step(&mut w, &grads(step, &kept));
            alone.step(&mut w_alone, &grads(step, &kept));
        }
        let bits = |w: &[f32]| -> Vec<u32> { w.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&w), bits(&w_alone));
    }

    fn bits(w: &[f32]) -> Vec<u32> {
        w.iter().map(|v| v.to_bits()).collect()
    }

    /// A gradient that moves every one of `n` parameters at `step`.
    fn busy_grads(step: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((step * 5 + i * 7) % 13) as f32 - 6.5)
            .collect()
    }

    #[test]
    fn step_runs_is_step_inside_the_runs_and_touches_nothing_outside() {
        let n = 12;
        let runs = [1..3, 4..5, 7..11];
        let inside = |i: usize| runs.iter().any(|r| r.contains(&i));
        let start: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 1.0).collect();
        let (mut dense, mut sparse) = (start.clone(), start.clone());
        let (mut a, mut b) = (Adam::new(n, 0.1), Adam::new(n, 0.1));
        for step in 0..20 {
            let g = busy_grads(step, n);
            a.step(&mut dense, &g);
            b.step_runs(&mut sparse, &g, &runs);
        }
        assert_eq!(b.steps(), 20);
        for i in 0..n {
            let want = if inside(i) { dense[i] } else { start[i] };
            assert_eq!(sparse[i].to_bits(), want.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn a_forgotten_entry_is_a_fixed_point_inside_a_merged_gap() {
        // entries 2 and 3 are decided at the prune after step 5: the kept
        // runs leave them out, their gradient is +0.0 from then on, and a
        // step over runs merged across them, or a dense one, keeps their
        // bits — whatever they are
        let n = 6;
        let odd = [f32::NEG_INFINITY, -0.0];
        let runs = [0..2, 4..6];
        for dense in [false, true] {
            let mut w: Vec<f32> = (0..n).map(|i| i as f32 - 2.5).collect();
            let mut adam = Adam::new(n, 0.3);
            for step in 0..5 {
                adam.step(&mut w, &busy_grads(step, n));
            }
            adam.retain(&[true; 6], &runs);
            w[2..4].copy_from_slice(&odd);
            let before = bits(&w);
            let mut reference = w.clone();
            let mut alone = adam.clone();
            for step in 5..30 {
                let mut g = busy_grads(step, n);
                g[2..4].fill(0.0);
                match dense {
                    true => adam.step(&mut w, &g),
                    false => adam.step_runs(&mut w, &g, &[0..3, 3..n]),
                }
                alone.step_runs(&mut reference, &g, &runs);
            }
            assert_eq!(bits(&w[2..4]), before[2..4], "dense {dense}");
            assert_eq!(bits(&w), bits(&reference), "dense {dense}");
            assert_eq!(bits(&adam.m[2..4]), [0, 0]);
            assert_eq!(bits(&adam.v[2..4]), [0, 0]);
        }
    }

    #[test]
    fn a_new_optimizer_has_its_rate_and_no_steps() {
        let adam = Adam::new(1, 0.5);
        assert_eq!(adam.learning_rate(), 0.5);
        assert_eq!(adam.steps(), 0);
    }
}
