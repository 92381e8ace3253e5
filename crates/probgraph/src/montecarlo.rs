//! Monte-Carlo sampling configuration.
//!
//! The paper sets the cycling number of its samplers (Algorithms 3 and 5) to
//! `N = (4 ln(2/ξ)) / τ²` following standard Monte-Carlo estimation theory
//! \[26\]: with `N` samples the estimate is within a multiplicative `(1 ± τ)`
//! of the true value with probability at least `1 − ξ`.

/// Accuracy parameters of the Monte-Carlo estimators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Relative error `τ` (> 0).
    pub tau: f64,
    /// Failure probability `ξ` (in `(0, 1)`).
    pub xi: f64,
    /// Hard cap on the number of samples regardless of `τ`/`ξ` (0 = no cap).
    pub max_samples: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            tau: 0.1,
            xi: 0.05,
            max_samples: 100_000,
        }
    }
}

impl MonteCarloConfig {
    /// A fast, low-accuracy configuration for index construction, where the
    /// bounds only need to be roughly right to prune well.
    pub fn coarse() -> Self {
        MonteCarloConfig {
            tau: 0.25,
            xi: 0.1,
            max_samples: 4_000,
        }
    }

    /// The paper's cycling number `N = 4 ln(2/ξ) / τ²`, clamped by
    /// `max_samples` and to at least 16.
    pub fn num_samples(&self) -> usize {
        let tau = if self.tau > 0.0 { self.tau } else { 0.1 };
        let xi = self.xi.clamp(1e-9, 0.999_999);
        let n = (4.0 * (2.0 / xi).ln() / (tau * tau)).ceil();
        let n = if n.is_finite() && n > 0.0 {
            n as usize
        } else {
            16
        };
        let n = n.max(16);
        if self.max_samples > 0 {
            n.min(self.max_samples)
        } else {
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formula() {
        let mc = MonteCarloConfig {
            tau: 0.1,
            xi: 0.05,
            max_samples: 0,
        };
        // 4 ln(40) / 0.01 ≈ 1475.6 → 1476
        assert_eq!(mc.num_samples(), 1476);
    }

    #[test]
    fn cap_and_floor() {
        let mc = MonteCarloConfig {
            tau: 0.01,
            xi: 0.01,
            max_samples: 5_000,
        };
        assert_eq!(mc.num_samples(), 5_000);
        let tiny = MonteCarloConfig {
            tau: 10.0,
            xi: 0.5,
            max_samples: 0,
        };
        assert_eq!(tiny.num_samples(), 16);
    }

    #[test]
    fn degenerate_parameters_do_not_panic() {
        let mc = MonteCarloConfig {
            tau: 0.0,
            xi: 0.0,
            max_samples: 100,
        };
        assert!(mc.num_samples() >= 16);
        assert!(mc.num_samples() <= 100);
    }

    #[test]
    fn coarse_is_smaller_than_default() {
        assert!(
            MonteCarloConfig::coarse().num_samples() <= MonteCarloConfig::default().num_samples()
        );
    }
}
