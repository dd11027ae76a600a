//! Deterministic path-loss models.
//!
//! The paper's Table I specifies the distance-dependent ("propagation
//! model in dB") loss as a piecewise outdoor D2D model taken from the
//! 3GPP D2D channel-model discussion (R1-130598):
//!
//! ```text
//! PL(d) = 4.35 + 25·log10(d)   if d < 6 m
//! PL(d) = 40.0 + 40·log10(d)   otherwise
//! ```
//!
//! §III additionally uses the classic log-distance model of eq. (7)
//! (`p** = p* + 10·n·log10(r/r0)` with path-loss exponent `n` = 2 indoor
//! / 4 outdoor) for the RSSI error derivation; both are implemented.
//! Each model is invertible — inversion is exactly what RSSI ranging
//! does (eq. (11)).

use serde::{Deserialize, Serialize};

use crate::units::Db;
use ffd2d_sim::deployment::Meters;

/// Minimum modelled distance; below this the far-field assumption breaks
/// down and the loss is clamped to `PL(MIN_DISTANCE_M)`.
pub const MIN_DISTANCE_M: f64 = 0.1;

/// A deterministic distance → loss model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PathLoss {
    /// The paper's Table-I piecewise outdoor D2D model.
    PaperPiecewise,
    /// Log-distance: `PL(d) = pl0 + 10·n·log10(d/r0)` (eq. (7)).
    LogDistance {
        /// Loss at the reference distance, in dB.
        pl0: f64,
        /// Path-loss exponent (2 indoor, 4 outdoor per §III).
        exponent: f64,
        /// Reference distance in meters.
        r0: f64,
    },
}

impl PathLoss {
    /// The paper's outdoor log-distance configuration (exponent 4,
    /// 1 m reference, reference loss matched to the piecewise model at
    /// 6 m so the two agree at the breakpoint).
    pub fn outdoor_log_distance() -> PathLoss {
        // Piecewise model at 6 m: 40 + 40·log10(6) = 71.126 dB.
        // Log-distance with n = 4, r0 = 1 m: pl0 + 40·log10(6) = pl0 + 31.126.
        PathLoss::LogDistance {
            pl0: 40.0,
            exponent: 4.0,
            r0: 1.0,
        }
    }

    /// Path-loss exponent in the regime that dominates ranging; used by
    /// the RSSI error model (`n` in eq. (12)).
    pub fn ranging_exponent(&self) -> f64 {
        match *self {
            // Beyond the 6 m breakpoint the paper's model has slope
            // 40 dB/decade, i.e. exponent 4 (outdoor, as stated in §III).
            PathLoss::PaperPiecewise => 4.0,
            PathLoss::LogDistance { exponent, .. } => exponent,
        }
    }

    /// Loss in dB at distance `d`.
    pub fn loss(&self, d: Meters) -> Db {
        let d = d.0.max(MIN_DISTANCE_M);
        let db = match *self {
            PathLoss::PaperPiecewise => {
                if d < 6.0 {
                    4.35 + 25.0 * d.log10()
                } else {
                    40.0 + 40.0 * d.log10()
                }
            }
            PathLoss::LogDistance { pl0, exponent, r0 } => pl0 + 10.0 * exponent * (d / r0).log10(),
        };
        Db(db)
    }

    /// Invert the model: the distance at which the loss equals `loss`.
    ///
    /// This is the ranging primitive of eq. (11): a device measuring a
    /// received power `p` knows the implied loss `tx − p` and inverts the
    /// model to an estimated distance. Monotonicity of every model makes
    /// the inverse well-defined; results are clamped to
    /// [`MIN_DISTANCE_M`, ∞).
    pub fn invert(&self, loss: Db) -> Meters {
        let l = loss.0;
        let d = match *self {
            PathLoss::PaperPiecewise => {
                // Breakpoint loss: PL(6) = 40 + 40·log10(6) ≈ 71.126 dB.
                let breakpoint = 40.0 + 40.0 * 6f64.log10();
                if l < breakpoint {
                    // Near regime also has a seam: the near branch at 6 m
                    // gives 4.35 + 25·log10(6) ≈ 23.80 dB, so losses in
                    // (23.80, 71.126) are unreachable by the near branch;
                    // ranging maps them to the near-branch inverse capped
                    // at 6 m — the standard convention for a piecewise
                    // model with a discontinuity.
                    10f64.powf((l - 4.35) / 25.0).min(6.0)
                } else {
                    10f64.powf((l - 40.0) / 40.0)
                }
            }
            PathLoss::LogDistance { pl0, exponent, r0 } => {
                r0 * 10f64.powf((l - pl0) / (10.0 * exponent))
            }
        };
        Meters(d.max(MIN_DISTANCE_M))
    }

    /// Maximum distance at which a link closes given an available budget
    /// (`tx_power − detection_threshold`).
    pub fn max_range(&self, budget: Db) -> Meters {
        self.invert(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_matches_table1_formulas() {
        let m = PathLoss::PaperPiecewise;
        // d < 6: PL = 4.35 + 25 log10(d)
        assert!((m.loss(Meters(1.0)).0 - 4.35).abs() < 1e-12);
        assert!((m.loss(Meters(3.0)).0 - (4.35 + 25.0 * 3f64.log10())).abs() < 1e-12);
        // d >= 6: PL = 40 + 40 log10(d)
        assert!((m.loss(Meters(6.0)).0 - (40.0 + 40.0 * 6f64.log10())).abs() < 1e-12);
        assert!((m.loss(Meters(100.0)).0 - 120.0).abs() < 1e-12);
    }

    #[test]
    fn paper_model_is_monotone() {
        let m = PathLoss::PaperPiecewise;
        let mut last = f64::MIN;
        for i in 1..2000 {
            let d = i as f64 * 0.25;
            let l = m.loss(Meters(d)).0;
            assert!(l >= last, "non-monotone at d={d}");
            last = l;
        }
    }

    #[test]
    fn table1_range_is_about_89_meters() {
        // Budget = 23 − (−95) = 118 dB; 40 + 40 log10(d) = 118 → d ≈ 89.1 m.
        let m = PathLoss::PaperPiecewise;
        let r = m.max_range(Db(118.0));
        assert!((r.0 - 89.125).abs() < 0.05, "range {r:?}");
    }

    #[test]
    fn invert_round_trips_far_regime() {
        let m = PathLoss::PaperPiecewise;
        for d in [6.0, 10.0, 25.0, 80.0, 140.0] {
            let back = m.invert(m.loss(Meters(d)));
            assert!((back.0 - d).abs() / d < 1e-9, "d={d} back={back:?}");
        }
    }

    #[test]
    fn invert_round_trips_near_regime() {
        let m = PathLoss::PaperPiecewise;
        for d in [0.5, 1.0, 2.0, 4.0, 5.9] {
            let back = m.invert(m.loss(Meters(d)));
            assert!((back.0 - d).abs() / d < 1e-9, "d={d} back={back:?}");
        }
    }

    #[test]
    fn invert_handles_the_seam() {
        // Losses between the branch images map to the 6 m seam.
        let m = PathLoss::PaperPiecewise;
        let seam = m.invert(Db(50.0));
        assert!((seam.0 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn log_distance_round_trip() {
        let m = PathLoss::outdoor_log_distance();
        for d in [1.0, 5.0, 50.0, 500.0] {
            let back = m.invert(m.loss(Meters(d)));
            assert!((back.0 - d).abs() / d < 1e-9);
        }
        assert_eq!(m.ranging_exponent(), 4.0);
    }

    #[test]
    fn log_distance_matches_eq7_shape() {
        // Doubling distance adds 10·n·log10(2) dB.
        let m = PathLoss::LogDistance {
            pl0: 30.0,
            exponent: 2.0,
            r0: 1.0,
        };
        let delta = m.loss(Meters(20.0)).0 - m.loss(Meters(10.0)).0;
        assert!((delta - 20.0 * 2f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn distances_below_minimum_are_clamped() {
        let m = PathLoss::PaperPiecewise;
        assert_eq!(m.loss(Meters(0.0)), m.loss(Meters(MIN_DISTANCE_M)));
        assert_eq!(m.loss(Meters(-5.0)), m.loss(Meters(MIN_DISTANCE_M)));
    }
}
