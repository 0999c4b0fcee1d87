//! The Adam optimizer (Kingma & Ba 2015) — the update rule the paper uses
//! for its trainable logits.

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

    /// Updates the learning rate (e.g. for decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Shrinks the optimizer to the parameters `keep` flags (one flag per
    /// parameter, what [`crate::CostModel::prune`] returns): each keeps
    /// its moments, and the step count is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer flags than parameters.
    pub fn retain(&mut self, keep: &[bool]) {
        crate::cost::retain_flagged(&mut self.m, keep);
        crate::cost::retain_flagged(&mut self.v, keep);
    }

    /// Applies one Adam update to `params` from `grads`. A parameter whose
    /// gradient has always been zero is left bit-for-bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the optimizer's.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        kernels::adam_update(
            params,
            &mut self.m,
            &mut self.v,
            grads,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            bc1,
            bc2,
        );
    }
}

#[cfg(test)]
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
        adam.retain(&all.map(|i| kept.contains(&i)));
        let mut w: Vec<f32> = kept.iter().map(|&i| w[i]).collect();
        assert_eq!(adam.steps(), 5, "the bias correction carries on");
        for step in 5..10 {
            adam.step(&mut w, &grads(step, &kept));
            alone.step(&mut w_alone, &grads(step, &kept));
        }
        let bits = |w: &[f32]| -> Vec<u32> { w.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&w), bits(&w_alone));
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut adam = Adam::new(1, 0.5);
        assert_eq!(adam.learning_rate(), 0.5);
        adam.set_learning_rate(0.1);
        assert_eq!(adam.learning_rate(), 0.1);
        assert_eq!(adam.steps(), 0);
    }
}
