//! Synchrony metrics.
//!
//! Convergence detection in the experiments needs a quantitative notion
//! of "all devices are synchronized": [`phase_spread`], the smallest arc
//! of the unit circle containing every phase, robust near the
//! wrap-around point where naive max−min fails, and
//! [`is_synchronized`], the spread held against a tolerance.

/// Length (in turns, `[0, 1)`) of the smallest arc containing all
/// phases. 0 when all phases coincide.
pub fn phase_spread(phases: &[f64]) -> f64 {
    if phases.len() < 2 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = phases.iter().map(|p| p.rem_euclid(1.0)).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    // The smallest covering arc is 1 − (largest gap between consecutive
    // phases on the circle).
    let mut max_gap = 1.0 - sorted.last().unwrap() + sorted[0];
    for w in sorted.windows(2) {
        max_gap = max_gap.max(w[1] - w[0]);
    }
    1.0 - max_gap
}

/// True when every phase lies within `tol` turns of every other —
/// the convergence criterion of the protocol engines.
pub fn is_synchronized(phases: &[f64], tol: f64) -> bool {
    phase_spread(phases) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_basic() {
        assert_eq!(phase_spread(&[0.5]), 0.0);
        assert!((phase_spread(&[0.1, 0.3]) - 0.2).abs() < 1e-12);
        assert!((phase_spread(&[0.1, 0.2, 0.3]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn spread_handles_wraparound() {
        // 0.95 and 0.05 are only 0.1 apart on the circle.
        assert!((phase_spread(&[0.95, 0.05]) - 0.1).abs() < 1e-12);
        assert!((phase_spread(&[0.9, 0.0, 0.1]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn is_synchronized_thresholds() {
        assert!(is_synchronized(&[0.5, 0.5001], 0.001));
        assert!(!is_synchronized(&[0.1, 0.4], 0.01));
        assert!(is_synchronized(&[0.99, 0.01], 0.05)); // wraparound
    }
}
