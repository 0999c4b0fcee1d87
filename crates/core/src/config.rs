//! Router configuration: cost weights, training schedule, extraction.

use dgr_autodiff::Activation;
use dgr_dag::PatternConfig;
use dgr_rsmt::CandidateConfig;

use crate::DgrError;

/// Weights of the three cost terms in Eq. (3).
///
/// The default is the ICCAD'19 contest metric the paper adopts:
/// `cost = 500·overflow + 4·via + 0.5·wirelength`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// `a₁` — wirelength weight.
    pub wirelength: f32,
    /// `a₂` — via weight.
    pub via: f32,
    /// `a₃` — overflow weight.
    pub overflow: f32,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            wirelength: 0.5,
            via: 4.0,
            overflow: 500.0,
        }
    }
}

/// How the discrete 2D solution is read out of the optimized
/// probabilities (Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtractionMode {
    /// Pick the highest-probability path per sub-net (used in the ILP
    /// comparison, Table 1).
    Argmax,
    /// Top-p candidate sets per sub-net, then a greedy congestion-aware
    /// pick inside each set (the paper's default read-out).
    TopP {
        /// Cumulative-probability threshold; candidates are taken in
        /// descending probability until the threshold is passed.
        threshold: f32,
    },
}

impl Default for ExtractionMode {
    fn default() -> Self {
        ExtractionMode::TopP { threshold: 0.9 }
    }
}

/// Full configuration of [`crate::DgrRouter`].
///
/// Defaults reproduce the paper's experimental setup: 1000 iterations of
/// Adam at lr 0.3, initial temperature 1.0 decayed ×0.9 every 100
/// iterations, sigmoid overflow activation, Gumbel noise on, top-p
/// extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct DgrConfig {
    /// Cost-term weights (Eq. 3).
    pub weights: CostWeights,
    /// Number of optimization iterations.
    pub iterations: usize,
    /// Adam learning rate (paper default 0.3).
    pub learning_rate: f32,
    /// Initial Gumbel-softmax temperature.
    pub initial_temperature: f32,
    /// Multiplicative temperature decay factor.
    pub temperature_decay: f32,
    /// Apply the decay every this many iterations.
    pub temperature_interval: usize,
    /// Overflow activation `f` in Eq. (9) — the Fig. 6 knob.
    pub activation: Activation,
    /// Scale applied to the activation input: `f((d − cap) / scale)`.
    /// Saturating activations (sigmoid/CELU) lose their gradient when
    /// `|d − cap|` spans tens of tracks; a scale of a few tracks keeps
    /// congested edges inside the responsive band. `1.0` reproduces the
    /// unscaled formula.
    pub overflow_scale: f32,
    /// Whether to add Gumbel noise to the logits (`false` degrades to a
    /// plain deterministic softmax — an ablation in this reproduction).
    pub gumbel_noise: bool,
    /// Discrete read-out strategy.
    pub extraction: ExtractionMode,
    /// RNG seed for logit init and Gumbel noise.
    pub seed: u64,
    /// Routing-tree candidate pool configuration.
    pub candidates: CandidateConfig,
    /// Pattern families per 2-pin sub-net.
    pub patterns: PatternConfig,
    /// Record the loss every this many iterations (0 = never).
    pub loss_record_interval: usize,
    /// Rip-up/re-pick rounds after the first extraction pass: nets that
    /// cross overflowed edges re-choose their paths greedily over the
    /// full candidate set of their selected tree. `0` reproduces the
    /// plain one-pass read-out.
    pub extraction_rounds: usize,
    /// Adaptive forest-expansion rounds (the paper's future-work
    /// extension): after a routing round that leaves overflow, sub-nets
    /// crossing overflowed edges receive additional maze-derived path
    /// candidates, logits are warm-started, and training resumes for
    /// [`DgrConfig::adaptive_iterations`]. `0` disables the feature.
    pub adaptive_rounds: usize,
    /// Training iterations of each adaptive round.
    pub adaptive_iterations: usize,
}

impl Default for DgrConfig {
    fn default() -> Self {
        DgrConfig {
            weights: CostWeights::default(),
            iterations: 1000,
            learning_rate: 0.3,
            initial_temperature: 1.0,
            temperature_decay: 0.9,
            temperature_interval: 100,
            activation: Activation::Sigmoid,
            overflow_scale: 1.0,
            gumbel_noise: true,
            extraction: ExtractionMode::default(),
            seed: 0,
            candidates: CandidateConfig::default(),
            patterns: PatternConfig::default(),
            loss_record_interval: 10,
            extraction_rounds: 2,
            adaptive_rounds: 0,
            adaptive_iterations: 200,
        }
    }
}

impl DgrConfig {
    /// The configuration used for the Table-1 ILP comparison: a single
    /// tree candidate per net, ReLU overflow (the only activation an ILP
    /// can mirror), overflow-only objective, argmax read-out.
    pub fn ilp_comparison() -> Self {
        DgrConfig {
            weights: CostWeights {
                wirelength: 0.0,
                via: 0.0,
                overflow: 1.0,
            },
            activation: Activation::Relu,
            extraction: ExtractionMode::Argmax,
            candidates: CandidateConfig::single(),
            extraction_rounds: 0,
            ..DgrConfig::default()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DgrError::BadConfig`] describing the first problem.
    pub fn validate(&self) -> Result<(), DgrError> {
        if self.iterations == 0 {
            return Err(DgrError::BadConfig("iterations must be > 0".into()));
        }
        // `!(x > 0)` deliberately catches NaN as invalid
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.learning_rate > 0.0) {
            return Err(DgrError::BadConfig("learning rate must be > 0".into()));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.initial_temperature > 0.0) {
            return Err(DgrError::BadConfig("temperature must be > 0".into()));
        }
        if !(0.0 < self.temperature_decay && self.temperature_decay <= 1.0) {
            return Err(DgrError::BadConfig(
                "temperature decay must be in (0, 1]".into(),
            ));
        }
        if self.temperature_interval == 0 {
            return Err(DgrError::BadConfig(
                "temperature interval must be > 0".into(),
            ));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.overflow_scale > 0.0) {
            return Err(DgrError::BadConfig("overflow scale must be > 0".into()));
        }
        if let ExtractionMode::TopP { threshold } = self.extraction {
            if !(0.0 < threshold && threshold <= 1.0) {
                return Err(DgrError::BadConfig(
                    "top-p threshold must be in (0, 1]".into(),
                ));
            }
        }
        Ok(())
    }

    /// The temperature at iteration `it` under the annealing schedule.
    pub fn temperature_at(&self, it: usize) -> f32 {
        self.initial_temperature
            * self
                .temperature_decay
                .powi((it / self.temperature_interval) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = DgrConfig::default();
        assert_eq!(c.weights.overflow, 500.0);
        assert_eq!(c.weights.via, 4.0);
        assert_eq!(c.weights.wirelength, 0.5);
        assert_eq!(c.iterations, 1000);
        assert_eq!(c.learning_rate, 0.3);
        assert_eq!(c.activation, Activation::Sigmoid);
        c.validate().unwrap();
    }

    #[test]
    fn annealing_schedule() {
        let c = DgrConfig::default();
        assert_eq!(c.temperature_at(0), 1.0);
        assert_eq!(c.temperature_at(99), 1.0);
        assert!((c.temperature_at(100) - 0.9).abs() < 1e-6);
        assert!((c.temperature_at(999) - 0.9f32.powi(9)).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = DgrConfig {
            iterations: 0,
            ..DgrConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DgrConfig {
            temperature_decay: 1.5,
            ..DgrConfig::default()
        };
        assert!(c.validate().is_err());

        let c = DgrConfig {
            extraction: ExtractionMode::TopP { threshold: 0.0 },
            ..DgrConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn ilp_comparison_profile() {
        let c = DgrConfig::ilp_comparison();
        assert_eq!(c.activation, Activation::Relu);
        assert_eq!(c.extraction, ExtractionMode::Argmax);
        assert_eq!(c.candidates.max_candidates, 1);
        assert_eq!(c.weights.wirelength, 0.0);
        c.validate().unwrap();
    }
}
