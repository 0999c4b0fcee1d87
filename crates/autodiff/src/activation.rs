//! Elementwise activation functions — the overflow-cost family of Fig. 6.

/// Non-linearity applied to per-edge `demand − capacity` in the overflow
/// cost (Eq. 6/9). The paper evaluates exactly this set and finds sigmoid
/// best; ReLU is used for the ILP comparison because ILP can only model
/// piecewise-linear objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `max(0, x)` — the exact overflow mass; zero gradient below capacity.
    Relu,
    /// `1 / (1 + e^{-x})` — smooth, saturating; the paper's default.
    Sigmoid,
    /// `max(αx, x)` with `α = 0.01` — keeps a small gradient below capacity.
    LeakyRelu,
    /// `e^x` (input clamped to ≤ 20 to avoid overflow) — aggressive
    /// penalty growth.
    Exp,
    /// `max(0, x) + min(0, α(e^{x/α} − 1))` with `α = 1` — smooth ReLU.
    Celu,
}

const LEAKY_ALPHA: f32 = 0.01;
const EXP_CLAMP: f32 = 20.0;

impl Activation {
    /// Evaluates the activation and its derivative at `x` together, so
    /// the variants built on an exponential evaluate it once.
    #[inline]
    pub fn eval_grad(self, x: f32) -> (f32, f32) {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    (x, 1.0)
                } else {
                    (0.0, 0.0)
                }
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                (s, s * (1.0 - s))
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    (x, 1.0)
                } else {
                    (LEAKY_ALPHA * x, LEAKY_ALPHA)
                }
            }
            Activation::Exp => {
                let e = x.min(EXP_CLAMP).exp();
                (e, e)
            }
            Activation::Celu => {
                if x >= 0.0 {
                    (x, 1.0)
                } else {
                    let e = x.exp();
                    (e - 1.0, e)
                }
            }
        }
    }

    /// Evaluates the activation at `x`.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        self.eval_grad(x).0
    }

    /// Evaluates the derivative at `x`.
    #[inline]
    pub fn grad(self, x: f32) -> f32 {
        self.eval_grad(x).1
    }

    /// All variants, in the order Fig. 6 lists them.
    pub const ALL: [Activation; 5] = [
        Activation::Relu,
        Activation::Sigmoid,
        Activation::LeakyRelu,
        Activation::Exp,
        Activation::Celu,
    ];

    /// Short lowercase name used in reports ("relu", "sigmoid", …).
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::LeakyRelu => "leakyrelu",
            Activation::Exp => "exp",
            Activation::Celu => "celu",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Activation {
    type Err = ParseActivationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "relu" => Ok(Activation::Relu),
            "sigmoid" => Ok(Activation::Sigmoid),
            "leakyrelu" | "leaky_relu" => Ok(Activation::LeakyRelu),
            "exp" => Ok(Activation::Exp),
            "celu" => Ok(Activation::Celu),
            _ => Err(ParseActivationError(s.to_owned())),
        }
    }
}

/// Error returned when parsing an unknown activation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseActivationError(String);

impl std::fmt::Display for ParseActivationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown activation function `{}`", self.0)
    }
}

impl std::error::Error for ParseActivationError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(a: Activation, x: f32) -> f32 {
        let h = 1e-3;
        (a.eval(x + h) - a.eval(x - h)) / (2.0 * h)
    }

    #[test]
    fn relu_values() {
        assert_eq!(Activation::Relu.eval(2.5), 2.5);
        assert_eq!(Activation::Relu.eval(-1.0), 0.0);
        assert_eq!(Activation::Relu.grad(3.0), 1.0);
        assert_eq!(Activation::Relu.grad(-3.0), 0.0);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let s = Activation::Sigmoid;
        assert!((s.eval(0.0) - 0.5).abs() < 1e-6);
        assert!(s.eval(10.0) > 0.999);
        assert!(s.eval(-10.0) < 0.001);
        assert!((s.eval(2.0) + s.eval(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exp_is_clamped() {
        assert!(Activation::Exp.eval(1000.0).is_finite());
        assert!(Activation::Exp.grad(1000.0).is_finite());
    }

    #[test]
    fn celu_is_continuous_at_zero() {
        let c = Activation::Celu;
        assert!((c.eval(1e-6) - c.eval(-1e-6)).abs() < 1e-4);
        assert!((c.eval(-30.0) + 1.0).abs() < 1e-4); // asymptote −1
    }

    #[test]
    fn analytic_gradients_match_numeric() {
        for a in Activation::ALL {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7, 4.0] {
                let got = a.grad(x);
                let want = numeric_grad(a, x);
                assert!(
                    (got - want).abs() < 1e-2,
                    "{a} grad mismatch at {x}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn parse_roundtrip() {
        for a in Activation::ALL {
            let parsed: Activation = a.name().parse().unwrap();
            assert_eq!(parsed, a);
        }
        assert!("swish".parse::<Activation>().is_err());
    }
}
