//! Property-based tests for the oscillator substrate.

use proptest::prelude::*;

use ffd2d_osc::oscillator::PhaseOscillator;
use ffd2d_osc::prc::Prc;
use ffd2d_osc::sync::{is_synchronized, phase_spread};

proptest! {
    /// Eq. (5): for any a > 0, ε > 0 the PRC satisfies the
    /// Mirollo–Strogatz convergence conditions and only advances phase.
    #[test]
    fn prc_always_converging_and_advancing(a in 0.01f64..10.0, eps in 0.001f64..2.0, theta in 0.0f64..1.0) {
        let prc = Prc::from_dissipation(a, eps);
        prop_assert!(prc.converges());
        prop_assert!(prc.alpha > 1.0);
        prop_assert!(prc.beta > 0.0);
        let out = prc.apply(theta);
        prop_assert!(out >= theta - 1e-15, "PRC moved phase backwards");
        prop_assert!(out <= 1.0);
        // Monotonicity in θ.
        let out2 = prc.apply((theta + 0.01).min(1.0));
        prop_assert!(out2 >= out - 1e-15);
    }

    /// An uncoupled oscillator fires with exactly its natural period,
    /// whatever the initial phase.
    #[test]
    fn natural_period_is_exact(phase in 0.0f64..0.999, period in 2u32..500) {
        let mut osc = PhaseOscillator::new(phase, period, 1);
        let mut fires = Vec::new();
        for t in 0..(period as u64 * 5) {
            if osc.tick() {
                fires.push(t);
            }
        }
        prop_assert!(fires.len() >= 4);
        for w in fires.windows(2) {
            prop_assert_eq!(w[1] - w[0], period as u64);
        }
    }

    /// Delay compensation: a pulse heard with age k has the same effect
    /// as the identical pulse heard instantly k slots earlier, for any
    /// phase where neither crosses the threshold.
    #[test]
    fn delayed_equals_shifted_instant(theta in 0.1f64..0.6, age in 0u32..8) {
        let prc = Prc::standard();
        let period = 100;
        let age_phase = age as f64 / period as f64;
        prop_assume!(theta + age_phase < 0.9);
        let mut now = PhaseOscillator::new(theta + age_phase, period, 0);
        now.on_pulse_delayed(&prc, age);
        let mut then = PhaseOscillator::new(theta, period, 0);
        then.on_pulse(&prc);
        prop_assert!((now.phase() - (then.phase() + age_phase)).abs() < 1e-12);
    }

    /// The spread is an arc length in `[0, 1)` and is shift-invariant
    /// on the circle.
    #[test]
    fn sync_metrics_consistency(phases in proptest::collection::vec(0.0f64..1.0, 1..30), shift in 0.0f64..1.0) {
        let spread = phase_spread(&phases);
        prop_assert!((0.0..1.0).contains(&spread) || spread == 0.0);
        // Rotation invariance.
        let shifted: Vec<f64> = phases.iter().map(|p| (p + shift).rem_euclid(1.0)).collect();
        prop_assert!((phase_spread(&shifted) - spread).abs() < 1e-9);
    }

    /// `is_synchronized` is the spread held against the tolerance.
    #[test]
    fn is_synchronized_agrees_with_spread(phases in proptest::collection::vec(0.0f64..1.0, 1..25), tol in 0.2f64..0.45) {
        prop_assert_eq!(is_synchronized(&phases, tol), phase_spread(&phases) <= tol);
    }

    /// Event-engine contract: `now + ticks_to_next_fire()` names
    /// exactly the slot where repeated ticking fires, for arbitrary
    /// starting state — including phases a hair under the `1 - 1e-12`
    /// threshold and refractory windows longer than the remaining ramp
    /// (the countdown must not delay the fire).
    #[test]
    fn next_fire_slot_matches_ticking(
        phase in 0.0f64..0.999,
        period in 2u32..400,
        refractory_frac in 0.0f64..1.0,
        now in 0u64..10_000,
    ) {
        // Keep the refractory legal (shorter than the period).
        let refractory = (refractory_frac * (period - 1) as f64) as u32;
        let osc = PhaseOscillator::new(phase, period, refractory);
        let predicted = now + osc.ticks_to_next_fire() as u64;
        prop_assert!(predicted > now, "a fire must be strictly in the future");
        let mut probe = osc;
        let mut slot = now;
        loop {
            slot += 1;
            if probe.tick() {
                break;
            }
            prop_assert!(slot <= now + period as u64 + 1, "never fired");
        }
        prop_assert_eq!(predicted, slot);
    }

    /// `advance_by(k)` is indistinguishable from `k` single ticks for
    /// arbitrary `(phase, period, refractory)` — same fire count, same
    /// phase bits, same refractory state — even when the window
    /// straddles several fires and the post-fire refractory reset.
    #[test]
    fn advance_by_equals_repeated_ticks(
        phase in 0.0f64..0.999,
        period in 2u32..200,
        refractory_frac in 0.0f64..1.0,
        k in 0u64..1_000,
    ) {
        // Keep the refractory legal (shorter than the period).
        let refractory = (refractory_frac * (period - 1) as f64) as u32;
        let mut fast = PhaseOscillator::new(phase, period, refractory);
        let mut slow = fast;
        let fast_fires = fast.advance_by(k);
        let mut slow_fires = 0u32;
        for _ in 0..k {
            if slow.tick() {
                slow_fires += 1;
            }
        }
        prop_assert_eq!(fast_fires, slow_fires);
        prop_assert_eq!(fast, slow, "state diverged after {} ticks", k);
        // And the two futures stay aligned past the window.
        prop_assert_eq!(fast.ticks_to_next_fire(), slow.ticks_to_next_fire());
    }

    /// Threshold-epsilon edge: starting exactly on `(T-1)/T`, one tick
    /// lands on the `1 - 1e-12` threshold and must fire — prediction,
    /// fast-forward, and literal ticking all agree on it.
    #[test]
    fn epsilon_threshold_fire_is_predicted(period in 2u32..500, refractory in 0u32..1) {
        let start = (period - 1) as f64 / period as f64;
        let osc = PhaseOscillator::new(start, period, refractory);
        prop_assert_eq!(osc.ticks_to_next_fire(), 1, "one tick from the brink");
        let mut fast = osc;
        prop_assert_eq!(fast.advance_by(1), 1);
        let mut slow = osc;
        prop_assert!(slow.tick());
        prop_assert_eq!(fast, slow);
    }
}
