//! Property-based tests for the radio substrate.

use proptest::prelude::*;

use ffd2d_radio::fading::FadingModel;
use ffd2d_radio::pathloss::PathLoss;
use ffd2d_radio::rssi::{ranging_error_stats, relative_error_from_shadowing, RangingEstimate};
use ffd2d_radio::shadowing::ShadowingField;
use ffd2d_radio::units::{Db, Dbm};
use ffd2d_sim::deployment::Meters;
use ffd2d_sim::time::Slot;

fn models() -> impl Strategy<Value = PathLoss> {
    prop_oneof![
        Just(PathLoss::PaperPiecewise),
        (20.0..60.0f64, 1.5..5.0f64).prop_map(|(pl0, exponent)| PathLoss::LogDistance {
            pl0,
            exponent,
            r0: 1.0
        }),
    ]
}

proptest! {
    /// Every path-loss model is monotone non-decreasing in distance and
    /// inverts exactly outside the piecewise seam.
    #[test]
    fn pathloss_monotone_and_invertible(model in models(), d1 in 0.2f64..500.0, d2 in 0.2f64..500.0) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(model.loss(Meters(lo)).get() <= model.loss(Meters(hi)).get() + 1e-12);
        // Round trip (the paper model's seam (≈23.8, ≈71.1) dB is not in
        // the image of loss(), so every image point inverts exactly).
        let back = model.invert(model.loss(Meters(d1)));
        prop_assert!((back.0 - d1).abs() / d1 < 1e-6, "model {model:?} d {d1} -> {back:?}");
    }

    /// Ranging: the estimate responds to shadowing exactly per eq. (11),
    /// for any true distance beyond the breakpoint.
    #[test]
    fn ranging_matches_eq11(d in 6.0f64..200.0, x in -30.0f64..30.0) {
        let model = PathLoss::outdoor_log_distance();
        let n = model.ranging_exponent();
        let tx = Dbm(23.0);
        let rx = tx - model.loss(Meters(d)) - Db(x);
        let est = RangingEstimate::from_rx(tx, rx, &model);
        let expected = d * 10f64.powf(x / (10.0 * n));
        prop_assert!((est.distance.0 - expected).abs() / expected < 1e-9);
        let eps = est.relative_error(Meters(d));
        prop_assert!(eps >= -1.0, "eq. (6) lower bound violated");
        prop_assert!((eps - relative_error_from_shadowing(x, n)).abs() < 1e-9);
    }

    /// Closed-form error stats: mean ≥ median = 1 and both grow with σ.
    #[test]
    fn error_stats_ordering(s1 in 0.0f64..20.0, s2 in 0.0f64..20.0, n in 1.5f64..5.0) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let a = ranging_error_stats(lo, n);
        let b = ranging_error_stats(hi, n);
        prop_assert!(a.mean_ratio >= a.median_ratio - 1e-12);
        prop_assert!(b.mean_ratio >= a.mean_ratio - 1e-12);
        prop_assert!(b.std_ratio >= a.std_ratio - 1e-12);
    }

    /// Shadowing is symmetric, deterministic, and scales linearly in σ.
    #[test]
    fn shadowing_properties(seed in any::<u64>(), a in 0u32..500, b in 0u32..500, scale in 0.1f64..4.0) {
        prop_assume!(a != b);
        let f1 = ShadowingField::new(seed, 10.0);
        prop_assert_eq!(f1.sample(a, b), f1.sample(b, a));
        let f2 = ShadowingField::new(seed, 10.0 * scale);
        let r = f2.sample(a, b).get() / f1.sample(a, b).get();
        if f1.sample(a, b).get().abs() > 1e-9 {
            prop_assert!((r - scale).abs() < 1e-9);
        }
    }

    /// Fading is symmetric and block-constant for any block length.
    #[test]
    fn fading_block_structure(seed in any::<u64>(), a in 0u32..100, b in 0u32..100, coh in 1u64..50, slot in 0u64..10_000) {
        prop_assume!(a != b);
        let f = FadingModel::Rayleigh { coherence_slots: coh };
        let g = f.gain(seed, a, b, Slot(slot));
        prop_assert_eq!(g, f.gain(seed, b, a, Slot(slot)));
        let block_start = (slot / coh) * coh;
        prop_assert_eq!(g, f.gain(seed, a, b, Slot(block_start)));
    }
}
