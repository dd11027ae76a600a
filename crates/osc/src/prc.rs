//! The phase-response curve of eq. (5).
//!
//! Mirollo & Strogatz show that for a concave-up state function
//! `x = f(θ)` the effect of receiving a pulse of amplitude `ε` is the
//! piecewise-linear *return map*
//!
//! ```text
//! θ ← min(α·θ + β, 1)
//! α = e^{a·ε}
//! β = (e^{a·ε} − 1) / (e^{a} − 1)
//! ```
//!
//! where `a > 0` is the dissipation factor of the underlying
//! integrate-and-fire dynamics (eq. (1)). Synchrony of a fully-meshed
//! population is guaranteed whenever `α > 1` and `β > 0`, which holds
//! exactly when `a > 0` and `ε > 0`.

use serde::{Deserialize, Serialize};

/// A phase-response curve `θ ← min(α·θ + β, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prc {
    /// Multiplicative phase advance (`e^{aε}`).
    pub alpha: f64,
    /// Additive phase advance (`(e^{aε} − 1)/(e^{a} − 1)`).
    pub beta: f64,
}

impl Prc {
    /// Build from the physical parameters of eq. (5): dissipation `a`
    /// and pulse coupling strength `epsilon`.
    ///
    /// # Panics
    ///
    /// If `a <= 0` or `epsilon <= 0` — outside that region the
    /// Mirollo–Strogatz convergence guarantee does not hold and no
    /// protocol in this workspace wants such a curve.
    pub fn from_dissipation(a: f64, epsilon: f64) -> Prc {
        assert!(a > 0.0, "dissipation factor must be positive");
        assert!(epsilon > 0.0, "coupling strength must be positive");
        let ea_eps = (a * epsilon).exp();
        Prc {
            alpha: ea_eps,
            beta: (ea_eps - 1.0) / (a.exp() - 1.0),
        }
    }

    /// The default coupling used across the workspace (a = 3, ε = 0.03 —
    /// a weak-coupling operating point comparable to the firefly D2D
    /// literature).
    pub fn standard() -> Prc {
        Prc::from_dissipation(3.0, 0.03)
    }

    /// Whether the Mirollo–Strogatz convergence condition (α > 1, β > 0)
    /// holds.
    pub fn converges(&self) -> bool {
        self.alpha > 1.0 && self.beta > 0.0
    }

    /// Apply the curve to a phase in `[0, 1]`, returning the advanced
    /// phase (saturating at the threshold 1).
    #[inline]
    pub fn apply(&self, theta: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&theta), "phase {theta} out of range");
        (self.alpha * theta + self.beta).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_values() {
        // a = 3, ε = 0.03: α = e^0.09 ≈ 1.09417, β = (e^0.09−1)/(e^3−1).
        let prc = Prc::from_dissipation(3.0, 0.03);
        assert!((prc.alpha - 0.09f64.exp()).abs() < 1e-12);
        assert!((prc.beta - (0.09f64.exp() - 1.0) / (3f64.exp() - 1.0)).abs() < 1e-12);
        assert!(prc.converges());
    }

    #[test]
    fn apply_is_monotone_and_saturates() {
        let prc = Prc::standard();
        let mut last = -1.0;
        for i in 0..=100 {
            let theta = i as f64 / 100.0;
            let out = prc.apply(theta);
            assert!(out >= last);
            assert!(out <= 1.0);
            assert!(out >= theta, "PRC must only advance phase");
            last = out;
        }
        assert_eq!(prc.apply(1.0), 1.0);
    }

    #[test]
    fn stronger_coupling_advances_more() {
        let weak = Prc::from_dissipation(3.0, 0.01);
        let strong = Prc::from_dissipation(3.0, 0.2);
        for theta in [0.1, 0.5, 0.9] {
            assert!(strong.apply(theta) >= weak.apply(theta));
        }
    }

    #[test]
    fn zero_phase_gains_beta() {
        let prc = Prc::standard();
        assert!((prc.apply(0.0) - prc.beta).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_dissipation_rejected() {
        let _ = Prc::from_dissipation(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_coupling_rejected() {
        let _ = Prc::from_dissipation(3.0, 0.0);
    }
}
